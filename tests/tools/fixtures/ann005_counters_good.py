"""ANN005 cross-file corpus: tally keys the report module folds in
(lint together with ann005_counters_stats.py)."""


def new_tally():
    return {
        "index_hits": 0,
        "scan_queries": 0,
    }
