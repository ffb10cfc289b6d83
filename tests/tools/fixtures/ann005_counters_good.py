"""ANN005 cross-file corpus: counter keys the report module folds in
(lint together with ann005_counters_stats.py)."""


class FakeStore:
    def _fetchpath_counters(self):
        return {
            "index_hits": 0,
            "scan_queries": 0,
        }
