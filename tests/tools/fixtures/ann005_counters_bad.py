"""ANN005 cross-file corpus: a fetch tally key the report module never
mentions (lint together with ann005_counters_stats.py)."""


def new_tally():
    return {
        "index_hits": 0,
        "mystery_counter": 0,  # the ExecutionReport module never names it
    }
