"""Engine microbenchmarks: compiled closures vs the reference evaluator.

Isolates the costs the query-compilation layer removes —

* per-row ``RowContext`` construction plus tree-walking
  ``Expression.evaluate`` dispatch (the reference evaluator's adapter), and
* one Python transition call per row in the aggregate fold —

and reports each as rows/second so the two are directly comparable.  The
``*_interpreted_*`` metrics time the test oracle, not the product: they are
reported but never gated.  Two entry points:

* ``pytest benchmarks/bench_engine_micro.py`` — pytest-benchmark targets
  following the Figure 4/5 harness conventions (rows/sec in ``extra_info``).
* ``python benchmarks/bench_engine_micro.py [--output PATH]`` — standalone
  run that writes ``BENCH_engine.json``, the file
  ``benchmarks/check_regression.py`` diffs against the committed baseline.

Row count follows ``REPRO_BENCH_ROWS`` like the rest of the harness.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np

from harness import DEFAULT_ROWS

from repro import Database
from repro.engine.aggregates import builtin_aggregates
from repro.engine.compile import ColumnLayout, compile_expression
from repro.engine.executor import _Relation
from repro.engine.expressions import interpreted_row_function
from repro.engine.parser import parse_statement
from repro.engine.segments import SegmentedAggregator
from repro.engine.vectorized import ColumnBatch

#: Microbenchmarks run this many rows (scaled with the harness default).
MICRO_ROWS = max(DEFAULT_ROWS * 10, 40_000)


def _make_database(compiled: bool, rows: int, *, workers: int = 0, segments: int = 4) -> Database:
    database = Database(num_segments=segments, compiled_execution=compiled, parallel=workers)
    database.create_table(
        "m",
        [("id", "integer"), ("a", "double precision"), ("b", "double precision")],
        distributed_by="id",
    )
    rng = np.random.default_rng(5)
    data = rng.normal(size=(rows, 2))
    database.load_rows("m", [(i, float(x), float(y)) for i, (x, y) in enumerate(data)])
    return database


def _expression_fixture(database: Database):
    """The parsed filter expression plus relation machinery for eval benchmarks."""
    statement = parse_statement("SELECT id FROM m WHERE a + b * 2.0 > 0.5")
    executor = database.executor
    relation = executor._scan_from_item(statement.from_items[0], None)
    return statement.where, executor, relation


def _time_rows_per_sec(
    total_rows: int, func: Callable[[], object], repeats: int = 3
) -> Tuple[float, object]:
    """Best-of-N throughput: the minimum elapsed time is the noise-robust
    estimator on a shared (or single-core) machine, and the regression gate
    needs stable numbers."""
    best = float("inf")
    result: object = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = func()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return total_rows / best if best > 0 else float("inf"), result


#: Metrics that only exist when ``--workers`` is given; excluded from the
#: committed baseline so the regression gate stays comparable across runs
#: with and without the parallel tier.
PARALLEL_ONLY_METRICS = frozenset(
    {
        "query_unfiltered_serial_rows_per_sec",
        "query_unfiltered_parallel_rows_per_sec",
        "parallel_measured_speedup",
    }
)


def _baseline_metric(name: str) -> bool:
    """Whether a metric belongs in the committed regression baseline.

    Parallel metrics (machine/worker dependent), the opt-in ``--indexes``
    metrics (absent from default runs, so the gate would flag them MISSING)
    and the reference-evaluator metrics (they time the parity oracle, which
    is allowed to be slow) stay out.
    """
    return (
        name not in PARALLEL_ONLY_METRICS
        and "_interpreted_" not in name
        and not name.startswith("index_")
    )


def _make_index_database(rows: int, *, indexes: bool = True) -> Database:
    """A table shaped for the access-path sweep: unique ``pk`` (point lookups
    and range predicates of any selectivity are exact row-count fractions).
    ``indexes=False`` is the sequential-scan side: same data, no ``CREATE
    INDEX``."""
    database = Database(num_segments=4)
    database.create_table(
        "ix",
        [("pk", "integer"), ("k", "integer"), ("v", "double precision")],
        distributed_by="pk",
    )
    rng = np.random.default_rng(23)
    values = rng.normal(size=rows)
    database.load_rows("ix", [(i, i % 50, float(x)) for i, x in enumerate(values)])
    if indexes:
        database.execute("CREATE INDEX ix_pk_hash ON ix USING hash (pk)")
        database.execute("CREATE INDEX ix_pk ON ix (pk)")
        database.execute("ANALYZE ix")
    return database


#: Range-predicate hit rates for the ``--indexes`` selectivity sweep, as
#: fractions of the table (0.001% → 50%).
INDEX_SWEEP_FRACTIONS = (0.00001, 0.0001, 0.001, 0.01, 0.1, 0.5)


def _run_index_suite(metrics: Dict[str, float], rows: int, *, repeats: int) -> None:
    """The ``--indexes`` pattern: index-probe vs sequential-scan rows/sec.

    Point lookup (``WHERE pk = const``, the acceptance shape: EXPLAIN must
    show an index-scan node and the probe must beat the scan by a wide
    margin) plus a range-selectivity sweep from 0.001% to 50% hit rate —
    at the high-selectivity end the cost model is expected to *decline* the
    index and match the scan, which the sweep makes visible.
    """
    indexed = _make_index_database(rows)
    scan = _make_index_database(rows, indexes=False)

    target = rows // 2
    point_query = f"SELECT v FROM ix WHERE pk = {target}"
    explain_text = "\n".join(
        row[0] for row in indexed.execute("EXPLAIN " + point_query).rows
    )
    assert "Index Scan" in explain_text, explain_text

    metrics["index_point_lookup_rows_per_sec"], hit = _time_rows_per_sec(
        rows, repeats=repeats, func=lambda: indexed.execute(point_query).rows
    )
    assert indexed.last_stats.scan_details[0].access == "index"
    assert indexed.last_stats.rows_scanned == 1
    metrics["index_point_scan_rows_per_sec"], scan_hit = _time_rows_per_sec(
        rows, repeats=repeats, func=lambda: scan.execute(point_query).rows
    )
    assert hit == scan_hit
    metrics["index_point_lookup_speedup"] = (
        metrics["index_point_lookup_rows_per_sec"] / metrics["index_point_scan_rows_per_sec"]
    )

    for fraction in INDEX_SWEEP_FRACTIONS:
        hits = max(1, int(rows * fraction))
        query = f"SELECT count(*) FROM ix WHERE pk >= 0 AND pk < {hits}"
        label = f"{fraction * 100:g}pct"
        metrics[f"index_range_{label}_indexed_rows_per_sec"], left = _time_rows_per_sec(
            rows, repeats=repeats, func=lambda: indexed.execute(query).rows
        )
        access = indexed.last_stats.scan_details[0].access
        metrics[f"index_range_{label}_scan_rows_per_sec"], right = _time_rows_per_sec(
            rows, repeats=1, func=lambda: scan.execute(query).rows
        )
        assert left == right and left[0][0] == hits
        # Selective probes must take the index; at 50% the cost model is
        # expected to fall back to the scan (both shapes are load-bearing).
        if fraction <= 0.01:
            assert access == "index", (fraction, access)


def run_micro_suite(
    rows: int = MICRO_ROWS,
    *,
    workers: int = 0,
    repeats: int = 3,
    indexes: bool = False,
) -> Dict[str, float]:
    """All microbenchmark metrics, each in rows/second (higher is better).

    With ``workers > 0`` the suite additionally measures the *real* parallel
    tier — the same unfiltered aggregate scan executed serially and through a
    ``Database(parallel=workers)`` worker pool — and reports the measured
    (wall-clock, IPC included) speedup.  On a single-core machine expect a
    value below 1; the point of the metric is that it is measured, not
    simulated.  ``indexes`` adds the index-probe vs sequential-scan pattern.
    """
    database = _make_database(True, rows)
    where, executor, relation = _expression_fixture(database)
    metrics: Dict[str, float] = {}

    # -- expression evaluation: reference evaluator vs compiled closure ------
    functions = executor._function_registry()
    reference = interpreted_row_function(where, relation.context_keys(), functions, None)
    metrics["expression_eval_interpreted_rows_per_sec"], interpreted_hits = _time_rows_per_sec(
        rows, repeats=repeats, func=lambda: sum(1 for row in relation.rows if reference(row) is True)
    )
    layout = ColumnLayout(relation.context_keys())
    predicate = compile_expression(where, layout, functions)
    assert predicate is not None
    metrics["expression_eval_compiled_rows_per_sec"], compiled_hits = _time_rows_per_sec(
        rows, repeats=repeats, func=lambda: sum(1 for row in relation.rows if predicate(row) is True)
    )
    assert interpreted_hits == compiled_hits

    # -- aggregate fold throughput: row-at-a-time vs batched kernel ----------
    sum_definition = next(d for d in builtin_aggregates() if d.name == "sum")
    column = [row[1] for row in relation.rows]
    stream_rows = [(value,) for value in column]
    aggregator = SegmentedAggregator(sum_definition)
    metrics["aggregate_fold_rows_per_sec"], folded = _time_rows_per_sec(
        rows, repeats=repeats, func=lambda: aggregator.runner.fold(stream_rows)
    )
    metrics["aggregate_batch_rows_per_sec"], batched = _time_rows_per_sec(
        rows, repeats=repeats, func=lambda: aggregator._fold_stream(ColumnBatch((column,)))
    )
    assert abs(folded - batched) <= 1e-6 * max(1.0, abs(folded))

    # -- end-to-end query throughput, both tiers -----------------------------
    query = "SELECT sum(a), avg(b), count(*) FROM m WHERE a > 0"
    metrics["query_compiled_rows_per_sec"], fast = _time_rows_per_sec(
        rows, repeats=repeats, func=lambda: database.execute(query).rows
    )
    interpreted_db = _make_database(False, rows)
    metrics["query_interpreted_rows_per_sec"], slow = _time_rows_per_sec(
        rows, repeats=repeats, func=lambda: interpreted_db.execute(query).rows
    )
    assert fast[0][2] == slow[0][2]

    # -- real parallel tier: measured (not simulated) speedup ----------------
    if workers > 0:
        scan = "SELECT sum(a), avg(b), count(*) FROM m"  # unfiltered aggregate scan
        metrics["query_unfiltered_serial_rows_per_sec"], serial_rows = _time_rows_per_sec(
            rows, repeats=repeats, func=lambda: database.execute(scan).rows
        )
        segments = max(4, workers)
        parallel_db = _make_database(True, rows, workers=workers, segments=segments)
        parallel_db.ensure_parallel_workers()  # spawn outside the timed region
        metrics["query_unfiltered_parallel_rows_per_sec"], parallel_rows = _time_rows_per_sec(
            rows, repeats=repeats, func=lambda: parallel_db.execute(scan).rows
        )
        assert parallel_rows[0][2] == serial_rows[0][2]
        assert parallel_db.last_stats.executed_parallel, "worker pool did not engage"
        metrics["parallel_measured_speedup"] = (
            metrics["query_unfiltered_parallel_rows_per_sec"]
            / metrics["query_unfiltered_serial_rows_per_sec"]
        )
        parallel_db.close()

    if indexes:
        # The acceptance shape is a 100k-row indexed table; smoke runs keep
        # their reduced row count.
        index_rows = max(rows, 100_000) if rows >= MICRO_ROWS else rows
        _run_index_suite(metrics, index_rows, repeats=repeats)
    return metrics


def write_report(path: Path, metrics: Dict[str, float], *, rows: int = MICRO_ROWS) -> None:
    payload = {
        "benchmark": "engine_micro",
        "rows": rows,
        "unit": "rows_per_sec",
        "metrics": {name: round(value, 2) for name, value in metrics.items()},
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# pytest-benchmark targets
# ---------------------------------------------------------------------------


def test_expression_eval_compiled_vs_interpreted(benchmark):
    database = _make_database(True, MICRO_ROWS)
    where, executor, relation = _expression_fixture(database)
    layout = ColumnLayout(relation.context_keys())
    predicate = compile_expression(where, layout, executor._function_registry())

    def run():
        return sum(1 for row in relation.rows if predicate(row) is True)

    hits = benchmark(run)
    reference = interpreted_row_function(
        where, relation.context_keys(), executor._function_registry(), None
    )
    assert hits == sum(1 for row in relation.rows if reference(row) is True)
    benchmark.extra_info["rows_per_sec"] = MICRO_ROWS / benchmark.stats.stats.mean


def test_aggregate_batch_vs_fold(benchmark):
    database = _make_database(True, MICRO_ROWS)
    relation = database.executor._scan_from_item(
        parse_statement("SELECT a FROM m").from_items[0], None
    )
    column = [row[1] for row in relation.rows]
    sum_definition = next(d for d in builtin_aggregates() if d.name == "sum")
    aggregator = SegmentedAggregator(sum_definition)

    batched = benchmark(lambda: aggregator._fold_stream(ColumnBatch((column,))))
    assert batched == sum(column)
    benchmark.extra_info["rows_per_sec"] = MICRO_ROWS / benchmark.stats.stats.mean


def test_query_throughput_compiled(benchmark):
    database = _make_database(True, MICRO_ROWS)
    result = benchmark(lambda: database.execute("SELECT sum(a), count(*) FROM m").rows)
    assert result[0][1] == MICRO_ROWS
    benchmark.extra_info["rows_per_sec"] = MICRO_ROWS / benchmark.stats.stats.mean


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the JSON report (default: benchmarks/BENCH_engine.json, "
        "or BENCH_engine_smoke.json in --smoke mode so reduced-row numbers never "
        "reach the regression gate)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="also refresh benchmarks/BENCH_engine_baseline.json (machine-specific)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="also measure the real parallel tier with an N-process worker pool "
        "and report the measured (wall-clock) speedup vs the serial scan",
    )
    parser.add_argument(
        "--indexes",
        action="store_true",
        help="also measure the access-path pattern: index-probe vs "
        "sequential-scan point lookups on a 100k-row indexed table plus a "
        "range-selectivity sweep (0.001%% to 50%% hit rate; excluded from "
        "the committed baseline, like the parallel metrics)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: reduced row count, one timing repeat — checks the "
        "benchmark still runs, produces no meaningful absolute numbers",
    )
    args = parser.parse_args(argv)
    if args.smoke and args.write_baseline:
        parser.error("--smoke numbers are meaningless as a baseline; drop one flag")
    rows = min(MICRO_ROWS, 8_000) if args.smoke else MICRO_ROWS
    output = args.output
    if output is None:
        name = "BENCH_engine_smoke.json" if args.smoke else "BENCH_engine.json"
        output = Path(__file__).resolve().parent / name
    metrics = run_micro_suite(
        rows,
        workers=args.workers,
        repeats=1 if args.smoke else 3,
        indexes=args.indexes,
    )
    write_report(output, metrics, rows=rows)
    print(f"wrote {output}" + (" (smoke mode)" if args.smoke else ""))
    for name in sorted(metrics):
        if name.endswith("_measured_speedup"):
            print(f"  {name:44s} {metrics[name]:>14.2f}x (measured, not simulated)")
        elif name.endswith("_speedup"):
            print(f"  {name:44s} {metrics[name]:>14.2f}x")
        else:
            print(f"  {name:44s} {metrics[name]:>14,.0f} rows/sec")
    if args.write_baseline:
        baseline = Path(__file__).resolve().parent / "BENCH_engine_baseline.json"
        write_report(
            baseline,
            {k: v for k, v in metrics.items() if _baseline_metric(k)},
            rows=rows,
        )
        print(f"wrote {baseline}")
    return 0


def test_smoke_does_not_touch_default_report(tmp_path):
    """--smoke without --output must not overwrite BENCH_engine.json."""
    import json as _json

    out = Path(__file__).resolve().parent / "BENCH_engine_smoke.json"
    default = Path(__file__).resolve().parent / "BENCH_engine.json"
    before = default.read_text() if default.exists() else None
    assert main(["--smoke"]) == 0
    assert _json.loads(out.read_text())["rows"] <= 8_000
    if before is not None:
        assert default.read_text() == before
    out.unlink()


if __name__ == "__main__":
    raise SystemExit(main())
