"""The traced work counts of an align on the smoke corpora are pinned.

perfbench counts DP cells, pairwise DTW calls, DBA members, span-cost
calls and span tables from call arguments and results, and per EM
iteration the assignments changed and the live clusters.  A change that
only makes the same work faster must leave every one of these counts
as it is; this test reads them from the benchmark's tracer, installed
in-process on the 8-sentence seed-0 smoke corpora by the run it shares
with test_bench_hooks, and compares them with recorded values.
"""

import pytest

from test_bench_hooks import traced_smoke_run

EXPECTED = {
    "smoke": {
        "dtw.dp_cells": 85090,
        "dtw.repeat_rows": 0,
        "dtw.dba_members": 100,
        "model.span_tables": 322,
        "dtw.pair_dtw_calls": 306,
        "dtw.span_costs_calls": 19,
        "dtw.dba_calls": 19,
    },
    "smoke-proper": {
        "dtw.dp_cells": 110943,
        "dtw.repeat_rows": 0,
        "dtw.dba_members": 146,
        "model.span_tables": 360,
        "dtw.pair_dtw_calls": 443,
        "dtw.span_costs_calls": 26,
        "dtw.dba_calls": 26,
    },
}

# Per EM iteration: words whose (cluster, span) changed, and live clusters.
PER_ITERATION = {
    "smoke": {"assignments_changed": [31, 1, 0], "live_clusters": [12, 6, 6]},
    "smoke-proper": {"assignments_changed": [37, 10, 3], "live_clusters": [12, 7, 7]},
}


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_traced_work_counts(workload):
    tracer, _ = traced_smoke_run(workload)
    counts = {
        name: tracer.counts[name]
        for name in ("dtw.dp_cells", "dtw.repeat_rows", "dtw.dba_members", "model.span_tables")
    }
    counts["dtw.pair_dtw_calls"] = tracer.calls["dtw.dtw_distance"]
    counts["dtw.span_costs_calls"] = tracer.calls["model.candidate_span_costs"]
    counts["dtw.dba_calls"] = tracer.calls["trainer.dba_centroid"]
    assert counts == EXPECTED[workload]
    assert tracer.per_iteration == PER_ITERATION[workload]
