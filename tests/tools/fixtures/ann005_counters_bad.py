"""ANN005 cross-file corpus: a fetch-path counter key the report
module never mentions (lint together with ann005_counters_stats.py)."""


class FakeStore:
    def _fetchpath_counters(self):
        return {
            "index_hits": 0,
            "mystery_counter": 0,  # the ExecutionReport module never names it
        }
