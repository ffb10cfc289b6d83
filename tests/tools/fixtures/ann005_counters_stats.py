"""ANN005 cross-file corpus: the report side folding both keys."""


class ExecutionReport:
    def __init__(self) -> None:
        self.counters = {"index_hits": 0, "scan_fetches": 0}

    def record_tally(self, tally) -> None:
        self.counters["index_hits"] += tally["index_hits"]
        self.counters["scan_fetches"] += tally["scan_queries"]
