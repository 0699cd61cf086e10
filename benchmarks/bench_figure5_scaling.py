"""Figure 5: linear-regression (v0.3) execution time vs number of variables,
one series per segment count, plus the parallel-speedup claim.

The paper's observation: "the Greenplum database achieves perfect linear
speedup in the example shown" — doubling the number of segments roughly halves
the execution time, and the curves grow super-linearly in the number of
independent variables.

Two speedup series exist here (see ``docs/architecture.md``):

* the **modelled** series (segments swept, folds sequential, speedup
  projected from per-segment times by ``harness.modelled_parallel_seconds``)
  — the historical Figure 5 shape, and
* the **measured** series (``test_measured_parallel_workers``): the same
  aggregate executed on a real ``Database(parallel=N)`` worker pool, with
  wall-clock measured speedup reported per worker count.  No shape assertion
  is made on this series — it is hardware-dependent (a single-core CI box
  measures a slowdown, which is the truth) — the numbers land in
  ``extra_info`` for the report.
"""

from __future__ import annotations

import os

import pytest

from harness import DEFAULT_ROWS, best_linregr, build_regression_database, run_linregr


SEGMENT_SERIES = [6, 12, 24]
VARIABLE_AXIS = [10, 40, 80]
#: Worker counts for the measured-speedup series, capped at the host's cores
#: (shipping to more workers than cores only measures oversubscription).
_CORES = os.cpu_count() or 1
WORKER_SERIES = sorted({1, min(2, _CORES), min(4, _CORES)})
#: The speedup-shape assertions need per-segment transition work well above
#: timer noise; with the compiled/vectorized engine that takes more rows than
#: the sweep default (the interpreted seed engine was ~15x slower per row).
SHAPE_ROWS = max(DEFAULT_ROWS, 60_000)


@pytest.fixture(scope="module")
def figure5_database():
    return build_regression_database(SHAPE_ROWS, max(VARIABLE_AXIS), segments=SEGMENT_SERIES[0])


@pytest.mark.parametrize("segments", SEGMENT_SERIES)
@pytest.mark.parametrize("variables", VARIABLE_AXIS)
def test_scaling_series(benchmark, segments, variables):
    database = build_regression_database(DEFAULT_ROWS, variables, segments=segments)

    def run():
        return run_linregr(database, version="v0.3", segments=segments)

    measurement = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info["segments"] = segments
    benchmark.extra_info["variables"] = variables
    benchmark.extra_info["modelled_parallel_seconds"] = measurement.modelled_parallel_seconds
    benchmark.extra_info["modelled_speedup_vs_serial"] = measurement.modelled_speedup


@pytest.mark.parametrize("workers", WORKER_SERIES)
def test_measured_parallel_workers(benchmark, workers):
    """Real speedup curve: measured wall clock vs worker-pool size.

    Unlike every other target in this file, nothing here is modelled: the
    per-segment folds run concurrently in worker processes and the reported
    speedup divides the serial fold time by measured elapsed time (dispatch
    and IPC included).
    """
    database = build_regression_database(
        DEFAULT_ROWS, 40, segments=max(6, workers), workers=workers
    )
    database.ensure_parallel_workers()  # spawn cost stays out of the timing

    def run():
        return run_linregr(database, version="v0.3")

    measurement = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert measurement.workers == workers  # the pool really executed it
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["measured_parallel_seconds"] = measurement.measured_parallel_seconds
    benchmark.extra_info["measured_speedup"] = measurement.measured_speedup
    benchmark.extra_info["aggregate_serial_seconds"] = measurement.aggregate_serial_seconds
    database.close()


def test_more_segments_reduce_modelled_time(figure5_database):
    """The Figure 5 speedup shape: 24 segments beat 6 segments on the same data.

    Measured on the aggregate-pattern times (transition/merge/final from
    AggregateTimings): that is the quantity the paper parallelises, and the
    compiled engine's constant per-query bookkeeping would otherwise drown
    the ratio at laptop row counts.
    """
    slow = best_linregr(figure5_database, version="v0.3", segments=6, repeats=5)
    fast = best_linregr(figure5_database, version="v0.3", segments=24, repeats=5)
    assert fast.aggregate_modelled_seconds < slow.aggregate_modelled_seconds
    # Speedup out of the ideal 4x.  The batched kernels lose some per-row
    # efficiency at smaller per-segment batches (a real effect the
    # interpreted seed engine did not have), so the bar is 1.6x, not 2x.
    assert slow.aggregate_modelled_seconds / fast.aggregate_modelled_seconds > 1.6


def test_speedup_is_close_to_segment_count(figure5_database):
    measurement = best_linregr(figure5_database, version="v0.3", segments=12)
    assert measurement.modelled_speedup > 6.0  # ideal is 12


def test_single_query_overhead_is_small(figure5_database):
    """Paper: 'The overhead for a single query is very low and only a fraction of a second.'"""
    measurement = run_linregr(figure5_database, version="v0.3", segments=6)
    overhead = measurement.wall_seconds - measurement.modelled_parallel_seconds
    assert abs(overhead) < 5.0  # engine bookkeeping stays bounded at this scale
