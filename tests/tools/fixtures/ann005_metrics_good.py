"""ANN005 corpus: every registered metric is counted."""


class MetricsRegistry:
    def __init__(self):
        self._metrics = {}

    def register(self, name, stage, description=""):
        self._metrics[name] = (stage, description)
        return name


METRICS = MetricsRegistry()
METRICS.register("rows", stage="fetch", description="records per reply")
METRICS.register("anchors_considered", stage="reconcile")
METRICS.register("conflicts", stage="reconcile")


def instrument(span, reply, report):
    span.incr("rows", len(reply.records))
    span.set_counter("anchors_considered", report.considered)
    report.incr("conflicts", report.count())
