"""Frozen sizes, mixes, rates and limits of the five workloads.

Sized once on the 2-core container this benchmark was written on and then
frozen: a change that claims a gain may not edit this file (README, "Rules").
``BENCHMARK.json`` has a fixed key set with no room for these, so they live
here and are stamped into every result file's fingerprint.

The driver gives a run about 30 s all told (114 runs in 3420 s), three
set-ups included, so row counts are the largest at which three set-ups plus
a ``run_seconds`` window fit with room to spare.
"""

from __future__ import annotations

from typing import Any, Dict

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Latency limits of ``serve_mixed`` (ms): a request slower than its class
#: limit, refused, timed out or wrong counts as missing it.
READ_LIMIT_MS = 50.0
WRITE_LIMIT_MS = 150.0

FULL: Dict[str, Dict[str, Any]] = {
    "serve_point": {
        "rows": 50_000,
        "connections": 2,
        "plan_cache": 256,
        "adhoc_shapes": 1024,
        "stream_length": 40_000,
        # share of requests per op class
        "mix": {"prepared_point": 45, "literal_point": 35, "range10": 10, "adhoc": 10},
        "tail_percentile": 99.0,
    },
    "serve_mixed": {
        "fact_rows": 5_000,
        "dim_rows": 500,
        "categories": 50,
        "connections": 2,
        "plan_cache": 256,
        # R is 28% of this mix's closed-loop capacity at the seed commit
        # (180 ops/s with both connections sending back to back), the top
        # rung 42%.  A join or a view recompute holds the server for 20 ms
        # whatever the table size, so at R = 90 half of all requests queued
        # behind one and every median sat on the knee between "waited" and
        # "did not": it moved by a fifth from seed to seed.  At R = 50 fewer
        # than a quarter wait and the medians sit inside their op's samples.
        "rate_ops_s": 50.0,
        "rungs": [0.5, 1.0, 1.5],
        # share of the window each rung gets
        "rung_share": [0.2, 0.5, 0.3],
        "mix": {
            "exec_point": 36, "filter_agg": 15, "topk": 5, "join_lookup": 10,
            "mv_read": 4, "insert_batch": 17, "update_point": 10, "delete_point": 3,
        },
        "insert_batch_rows": 20,
        # joins, view reads and deletes are 17% of requests: p90 sits inside them
        "tail_percentile": 90.0,
    },
    "analytic_scan": {
        "fact_rows": 40_000,
        "dim_rows": 2_000,
        "categories": 50,
        "segments": 2,
        # Statements per pass, by class.  Cheap classes repeat so each gets a
        # stable median, and the counts put p50 (filter_agg) and p90
        # (groupby_low) inside one class's samples, not between two classes.
        "repeats": {
            "filter_agg": 6, "text_pred": 6, "groupby_low": 2, "groupby_high": 1,
            "join_agg": 1, "topk": 2, "select_rows": 6, "window_sum": 4,
        },
        "tail_percentile": 90.0,
    },
    "ingest_dml": {
        "rows": 30_000,
        "categories": 50,
        "segments": 2,
        "insert_batch_rows": 100,
        # Writes per pass, by class; a probe pair follows every 5th write.
        # Point updates are the bulk so that p50 sits inside their samples;
        # p95 sits inside the view reads (6 of 42 statements).
        "block": {
            "insert_batch": 4, "update_point": 16, "update_range": 3,
            "delete_point": 5, "delete_range": 2,
        },
        "probe_every": 5,
        "tail_percentile": 95.0,
    },
    "paper_methods": {
        "rows": 1_500,
        "segments": 4,
        "pool_workers": 2,
        "logregr_features": 8,
        "logregr_iterations": 6,
        "kmeans_k": 5,
        "kmeans_dims": 4,
        "kmeans_max_iterations": 5,
        "sgd_epochs": 4,
        # Calls per pass, by class (classes not listed run once).  The counts
        # put p50 (naive_bayes) and p85 (logregr_irls) inside one class.
        "repeats": {"linregr_v03_k10": 3, "linregr_v03_k80": 3, "naive_bayes": 3},
        "tail_percentile": 85.0,
    },
}

#: Tiny sizes for the smoke test: the same code paths in a tenth of a second
#: each.  p75 is the highest percentile a 0.4 s window supports everywhere;
#: ``min_passes`` keeps it supported on a machine too slow for the window.
SMOKE: Dict[str, Dict[str, Any]] = {
    "serve_point": dict(FULL["serve_point"], rows=300, adhoc_shapes=300, stream_length=600, tail_percentile=75.0),
    "serve_mixed": dict(FULL["serve_mixed"], fact_rows=300, dim_rows=30, rate_ops_s=200.0, tail_percentile=75.0),
    "analytic_scan": dict(
        FULL["analytic_scan"], fact_rows=1_500, dim_rows=100, tail_percentile=75.0, min_passes=2
    ),
    "ingest_dml": dict(
        FULL["ingest_dml"], rows=1_200, insert_batch_rows=10, tail_percentile=75.0, min_passes=1
    ),
    "paper_methods": dict(
        FULL["paper_methods"], rows=150, kmeans_max_iterations=2, sgd_epochs=2, tail_percentile=75.0,
        min_passes=3,
    ),
}
