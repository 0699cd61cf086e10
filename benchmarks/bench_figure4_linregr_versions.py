"""Figure 4: linear-regression execution times across versions, variables and segments.

Each benchmark runs ``SELECT linregr(y, x) FROM data`` with one of the three
implementation-generation kernels (v0.1alpha -> naive, v0.2.1beta ->
unoptimized, v0.3 -> optimized) for a given number of independent variables
and segments, at a laptop-scale row count.  pytest-benchmark records the wall
time; the modelled parallel time and the rescaled paper reference are stored
in ``extra_info`` so the JSON output can be compared against the paper's
table directly.

Run ``python benchmarks/report.py figure4`` for the full paper-style sweep.
"""

from __future__ import annotations

import pytest

from harness import (
    BENCH_SEGMENTS,
    BENCH_VARIABLES,
    DEFAULT_ROWS,
    PAPER_VERSIONS,
    run_linregr,
    scale_paper_time,
)


@pytest.mark.parametrize("segments", BENCH_SEGMENTS)
@pytest.mark.parametrize("variables", BENCH_VARIABLES)
@pytest.mark.parametrize("version", PAPER_VERSIONS)
def test_linregr_version_times(benchmark, regression_database_factory, segments, variables, version):
    database = regression_database_factory(DEFAULT_ROWS, variables, segments)

    def run():
        return run_linregr(database, version=version, segments=segments)

    measurement = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info["segments"] = segments
    benchmark.extra_info["variables"] = variables
    benchmark.extra_info["version"] = version
    benchmark.extra_info["rows"] = measurement.rows
    benchmark.extra_info["modelled_parallel_seconds"] = measurement.modelled_parallel_seconds
    benchmark.extra_info["paper_seconds_rescaled"] = scale_paper_time(
        segments, variables, version, rows=measurement.rows
    )
    assert measurement.variables == variables


@pytest.mark.parametrize("variables", [10, 80])
def test_v03_beats_v021beta(regression_database_factory, variables):
    """The headline Figure 4 ordering: the v0.3 kernel is faster than v0.2.1beta."""
    database = regression_database_factory(DEFAULT_ROWS, variables, 6)
    optimized = run_linregr(database, version="v0.3")
    unoptimized = run_linregr(database, version="v0.2.1beta")
    assert optimized.modelled_parallel_seconds < unoptimized.modelled_parallel_seconds


def test_naive_kernel_loses_at_wide_models(regression_database_factory):
    """At large variable counts the v0.1alpha-style kernel falls behind v0.3."""
    database = regression_database_factory(DEFAULT_ROWS, 80, 6)
    optimized = run_linregr(database, version="v0.3")
    naive = run_linregr(database, version="v0.1alpha")
    assert optimized.modelled_parallel_seconds < naive.modelled_parallel_seconds


def test_execution_time_grows_with_variables(regression_database_factory):
    """Per-row cost grows (at least) quadratically in the number of variables."""
    narrow_db = regression_database_factory(DEFAULT_ROWS, 10, 6)
    wide_db = regression_database_factory(DEFAULT_ROWS, 80, 6)
    narrow = run_linregr(narrow_db, version="v0.3")
    wide = run_linregr(wide_db, version="v0.3")
    assert wide.modelled_parallel_seconds > narrow.modelled_parallel_seconds
