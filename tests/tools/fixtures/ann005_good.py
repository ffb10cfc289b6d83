"""ANN005 corpus: every registered counter is counted."""


class MetricsRegistry:
    def register(self, name, stage, description=""):
        return name


METRICS = MetricsRegistry()
METRICS.register("rows", stage="fetch", description="records per reply")
METRICS.register("retries", stage="fetch")


def record_reply(report, reply):
    report.incr("rows", len(reply.records))
    report.incr("retries", reply.retries)
