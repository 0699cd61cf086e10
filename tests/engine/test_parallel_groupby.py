"""GROUP BY with and without a worker pool: parity and grouped stats.

Grouped statements run in-process whether or not a pool is attached (the
pool folds ungrouped aggregates only), so a database with a forced pool must
answer a corpus of grouped queries — random, NULL-heavy, single-group and
high-cardinality key distributions — exactly as both in-process tiers do,
without sending the workers anything.
"""

from __future__ import annotations

import pytest

from repro import Database

from reference_tier import reference_database
from test_compiled_parity import _assert_results_equal


ROWS = 240


def _populate(db: Database) -> None:
    db.create_table(
        "g",
        [
            ("id", "integer"),
            ("grp", "text"),            # random low-cardinality split (3 values + NULLs)
            ("sparse", "text"),         # NULL-heavy split (~70% NULL keys)
            ("konst", "text"),          # single-group split
            ("hc", "integer"),          # high-cardinality split (~ROWS/2 groups)
            ("a", "double precision"),
            ("b", "double precision"),
        ],
        distributed_by="id",
    )
    rows = []
    for i in range(1, ROWS + 1):
        grp = None if i % 19 == 0 else "xyz"[i % 3]
        sparse = f"s{i % 4}" if i % 10 < 3 else None
        a = None if i % 7 == 0 else float(i) * 1.25
        b = None if i % 5 == 0 else float(i % 11) - 4.0
        rows.append((i, grp, sparse, "k", i % (ROWS // 2), a, b))
    db.load_rows("g", rows)


def _force_pool(db: Database) -> Database:
    db.worker_pool.min_dispatch_rows = 0  # dispatch every eligible aggregate
    return db


@pytest.fixture(scope="module")
def tiers():
    """(parallel, compiled-serial, reference-tier) databases, same data."""
    databases = [
        _force_pool(Database(num_segments=4, parallel=2)),
        Database(num_segments=4),
        reference_database(num_segments=4),
    ]
    for db in databases:
        _populate(db)
    yield databases
    databases[0].close()


GROUPED_CORPUS = [
    # Random low-cardinality split, builtin aggregates, NULL group keys.
    "SELECT grp, count(*), sum(a), avg(b), min(a), max(a) FROM g GROUP BY grp ORDER BY grp",
    "SELECT grp, var_samp(a), stddev(a), stddev_pop(b) FROM g GROUP BY grp ORDER BY grp",
    "SELECT grp, count(a), count(b) FROM g GROUP BY grp ORDER BY grp",
    # NULL-heavy split.
    "SELECT sparse, count(*), sum(b) FROM g GROUP BY sparse ORDER BY sparse",
    # Single-group split.
    "SELECT konst, count(*), sum(a), avg(a) FROM g GROUP BY konst",
    # High-cardinality split (group count ~ half the row count).
    "SELECT hc, count(*), max(a) FROM g GROUP BY hc ORDER BY hc",
    # Expression keys, multi-column keys, builtin scalar functions in keys.
    "SELECT id % 5, count(*), sum(a) FROM g GROUP BY id % 5 ORDER BY 1",
    "SELECT grp, id % 2, count(*) FROM g GROUP BY grp, id % 2 ORDER BY grp, 2",
    "SELECT upper(grp), count(*) FROM g GROUP BY upper(grp) ORDER BY 1",
    "SELECT abs(b), count(*) FROM g GROUP BY abs(b) ORDER BY 1",
    # Expression aggregate arguments, HAVING, aggregate-only ORDER BY.
    "SELECT grp, sum(a + b), avg(a * 2) FROM g GROUP BY grp ORDER BY grp",
    "SELECT grp, count(*) FROM g GROUP BY grp HAVING count(*) > 20 ORDER BY grp",
    "SELECT grp, sum(a) FROM g GROUP BY grp ORDER BY sum(a) DESC",
    # Order-sensitive aggregates: merged in segment order on every tier.
    "SELECT grp, array_agg(id) FROM g GROUP BY grp ORDER BY grp",
    "SELECT grp, string_agg(sparse, ',') FROM g GROUP BY grp ORDER BY grp",
    # WHERE + GROUP BY (filtered relation keeps segment provenance).
    "SELECT grp, count(*), sum(a) FROM g WHERE id > 40 GROUP BY grp ORDER BY grp",
    # Bool aggregates over expressions.
    "SELECT grp, bool_and(a > 0), bool_or(b > 2) FROM g GROUP BY grp ORDER BY grp",
]


@pytest.mark.parametrize("query", GROUPED_CORPUS)
def test_grouped_parallel_matches_both_serial_tiers(tiers, query):
    parallel_db, compiled_db, interpreted_db = tiers
    expected = compiled_db.execute(query)
    _assert_results_equal(expected, interpreted_db.execute(query), query)
    _assert_results_equal(parallel_db.execute(query), expected, query)


def test_grouped_statement_never_dispatches(tiers):
    parallel_db, _, _ = tiers
    before = parallel_db.worker_pool.stats()["dispatches"]
    stats = parallel_db.execute("SELECT grp, count(*), sum(a) FROM g GROUP BY grp").stats
    assert parallel_db.worker_pool.stats()["dispatches"] == before
    assert stats.group_strategy == "columnar"
    assert len(stats.aggregate_timings) == 2
    for timings in stats.aggregate_timings:
        assert not timings.executed_parallel
        assert timings.num_groups == 4  # x, y, z and the NULL group
        assert timings.num_workers == 0
        assert len(timings.per_segment_seconds) == 4  # folded per segment, merged
    assert not stats.executed_parallel
    assert stats.measured_parallel_seconds is None


def test_grouped_statements_report_serial_seconds(tiers):
    # Grouped statements used to contribute nothing to aggregate_timings, so
    # their fold time went unreported.
    _, compiled_db, _ = tiers
    stats = compiled_db.execute("SELECT grp, count(*), sum(a) FROM g GROUP BY grp").stats
    assert len(stats.aggregate_timings) == 2
    for timings in stats.aggregate_timings:
        assert not timings.executed_parallel
        assert timings.num_groups == 4
        assert sum(timings.rows_per_segment) > 0
    serial = sum(timings.serial_seconds for timings in stats.aggregate_timings)
    assert 0.0 < serial <= stats.total_seconds + 1e-6


def test_ungrouped_aggregates_keep_num_groups_zero(tiers):
    _, compiled_db, _ = tiers
    stats = compiled_db.execute("SELECT sum(a) FROM g").stats
    assert stats.aggregate_timings[0].num_groups == 0


def _fresh_parallel() -> Database:
    db = _force_pool(Database(num_segments=4, parallel=2))
    _populate(db)
    return db


def test_unshippable_aggregate_keeps_statement_in_process():
    db = _fresh_parallel()
    db.create_aggregate(
        "lambda_sum",
        transition=lambda state, value: state + value,
        merge=lambda a, b: a + b,
        initial_state=0,
    )
    result = db.execute("SELECT grp, lambda_sum(id) FROM g GROUP BY grp ORDER BY grp")
    serial = Database(num_segments=4)
    _populate(serial)
    serial.create_aggregate(
        "lambda_sum",
        transition=lambda state, value: state + value,
        merge=lambda a, b: a + b,
        initial_state=0,
    )
    expected = serial.execute("SELECT grp, lambda_sum(id) FROM g GROUP BY grp ORDER BY grp")
    _assert_results_equal(result, expected, "lambda_sum grouped")
    assert not result.stats.executed_parallel
    db.close()


def test_distinct_aggregate_keeps_statement_in_process():
    db = _fresh_parallel()
    result = db.execute("SELECT grp, count(DISTINCT sparse) FROM g GROUP BY grp ORDER BY grp")
    assert not result.stats.executed_parallel
    assert db.worker_pool.stats()["dispatches"] == 0
    db.close()
