"""ANN005 corpus: a counter registered but never counted."""


class MetricsRegistry:
    def register(self, name, stage, description=""):
        return name


METRICS = MetricsRegistry()
METRICS.register("rows", stage="fetch", description="records per reply")
METRICS.register("orphaned_counter", stage="fetch")  # nothing counts it


def record_reply(report, reply):
    report.incr("rows", len(reply.records))
