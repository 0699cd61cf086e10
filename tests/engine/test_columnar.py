"""Columnar storage: the compiled tier against the reference tier.

Typed packed columns (:mod:`repro.engine.columnar`) are the only storage.
The compiled tier runs supported WHERE clauses as selection bitmaps over the
packed columns (``ExecutionStats.where_vectorized``), groups and ranks on
the columns, and reads single rows without building a segment's row view;
the reference tier (``tests/reference_tier.py``) reads every row through
the row view and evaluates per row.  The two must be observationally
identical — byte-identical query results, identical DML effects, identical
errors.  This suite runs a query corpus and a mirrored DML script through
both tiers and asserts exact equality, plus unit tests for the storage layer
itself: the None vs NaN round-trip through the null bitmap, int-overflow
demotion to object columns (and the resulting vectorization fallback),
per-segment row-cache invalidation, and the rows-touched accounting of
bitmap scans.
"""

from __future__ import annotations

import math
import random

import pytest

from repro import Database
from repro.engine.columnar import ColumnStore
from reference_tier import reference_database


def _seed_rows(count: int = 120, seed: int = 7):
    rng = random.Random(seed)
    rows = []
    for i in range(1, count + 1):
        grp = "abc"[i % 3]
        a = None if i % 7 == 0 else rng.uniform(-50.0, 50.0)
        b = None if i % 11 == 0 else float(i % 5) - 2.0
        n = None if i % 13 == 0 else rng.randrange(-1000, 1000)
        s = None if i % 17 == 0 else f"name_{i % 4}"
        rows.append((i, grp, a, b, n, s))
    return rows


def _make_db(make, rows) -> Database:
    db = make(num_segments=4)
    db.create_table(
        "t",
        [
            ("id", "integer"),
            ("grp", "text"),
            ("a", "double precision"),
            ("b", "double precision"),
            ("n", "integer"),
            ("s", "text"),
        ],
        distributed_by="id",
    )
    db.load_rows("t", rows)
    return db


def _make_pair(rows):
    """Two databases with identical contents: compiled tier, reference tier."""
    return _make_db(Database, rows), _make_db(reference_database, rows)


@pytest.fixture(scope="module")
def db_pair():
    return _make_pair(_seed_rows())


def _values_identical(left, right) -> bool:
    """Byte-identity: same types, same values; NaN equals NaN only."""
    if type(left) is not type(right):
        return False
    if isinstance(left, float):
        if math.isnan(left) or math.isnan(right):
            return math.isnan(left) and math.isnan(right)
        return left == right
    if isinstance(left, (list, tuple)):
        return len(left) == len(right) and all(
            _values_identical(l, r) for l, r in zip(left, right)
        )
    return left == right


def _assert_results_identical(compiled, reference, label):
    assert compiled.columns == reference.columns, label
    assert len(compiled.rows) == len(reference.rows), label
    for row_c, row_r in zip(compiled.rows, reference.rows):
        assert _values_identical(tuple(row_c), tuple(row_r)), (
            f"{label}: {row_c!r} != {row_r!r}"
        )


#: The variance family's batch kernel agrees with the reference tier's
#: Welford fold to floating-point round-off only, so this one query compares
#: approximately.
VARIANCE_QUERY = "SELECT var_samp(a), stddev(a) FROM t WHERE b IS NOT NULL"

# Vectorizable WHERE shapes, fallback shapes, aggregates, GROUP BY, joins —
# every query must agree exactly regardless of which path each tier takes.
CORPUS = [
    "SELECT id, a, b FROM t WHERE a < 0 ORDER BY id",
    "SELECT id FROM t WHERE a BETWEEN -10 AND 25 ORDER BY id",
    "SELECT id FROM t WHERE a NOT BETWEEN -10 AND 25 ORDER BY id",
    "SELECT id FROM t WHERE n > 100 AND a <= 0 ORDER BY id",
    "SELECT id FROM t WHERE a IS NULL ORDER BY id",
    "SELECT id FROM t WHERE a IS NOT NULL AND (b > 0 OR n = 3) ORDER BY id",
    "SELECT id FROM t WHERE NOT (a > 0) ORDER BY id",
    "SELECT id FROM t WHERE a - b > 1.5 ORDER BY id",
    "SELECT id FROM t WHERE a * 2 < b ORDER BY id",
    "SELECT id FROM t WHERE -a > 10 ORDER BY id",
    # Text/LIKE/IN now vectorize in code space over dictionary columns;
    # functions remain fallback parity.
    "SELECT id FROM t WHERE grp = 'a' ORDER BY id",
    "SELECT id FROM t WHERE s LIKE 'name_1%' ORDER BY id",
    "SELECT id FROM t WHERE id IN (3, 5, 8) ORDER BY id",
    "SELECT id FROM t WHERE abs(b) > 1 ORDER BY id",
    # Aggregation over bitmap-filtered scans (late materialization path).
    "SELECT count(*) FROM t WHERE a < 0",
    "SELECT count(*), sum(a), avg(a), min(b), max(b) FROM t WHERE a > -20",
    "SELECT sum(n) FROM t WHERE n BETWEEN -500 AND 500",
    VARIANCE_QUERY,
    "SELECT grp, count(*), sum(a) FROM t WHERE a < 10 GROUP BY grp ORDER BY grp",
    "SELECT grp, count(*) FROM t GROUP BY grp HAVING count(*) > 30 ORDER BY grp",
    "SELECT count(DISTINCT grp) FROM t WHERE id > 10",
    "SELECT array_agg(grp) FROM t WHERE id <= 6",
    # Projection / ordering / joins on top of the packed columns.
    "SELECT id, a + b, grp || '-' || s FROM t ORDER BY id",
    "SELECT id FROM t ORDER BY a DESC, id LIMIT 9",
    "SELECT t1.id, t2.id FROM t t1 JOIN t t2 ON t1.id = t2.id - 1 WHERE t1.a < 0 ORDER BY t1.id",
    "SELECT sub.g, sub.c FROM (SELECT grp AS g, count(*) AS c FROM t WHERE b > -2 GROUP BY grp) sub ORDER BY sub.g",
]


@pytest.mark.parametrize("query", CORPUS)
def test_columnar_matches_reference_tier(db_pair, query):
    columnar_db, reference_db = db_pair
    compiled, reference = columnar_db.execute(query), reference_db.execute(query)
    if query == VARIANCE_QUERY:
        assert compiled.rows == [pytest.approx(row, rel=1e-12) for row in reference.rows]
    else:
        _assert_results_identical(compiled, reference, query)


DML_SCRIPT = [
    "UPDATE t SET a = a + 1.0 WHERE a < 0",
    "UPDATE t SET b = NULL WHERE n > 800",
    "DELETE FROM t WHERE a BETWEEN 30 AND 40",
    "DELETE FROM t WHERE s LIKE 'name_2%'",
    "INSERT INTO t VALUES (9001, 'z', 1.5, -0.5, 42, 'tail')",
    "UPDATE t SET n = n * 2 WHERE id = 9001",
    "DELETE FROM t WHERE id % 9 = 0",
]


def test_dml_parity_step_by_step():
    columnar_db, reference_db = _make_pair(_seed_rows(seed=21))
    probe = "SELECT * FROM t ORDER BY id"
    for statement in DML_SCRIPT:
        result_c = columnar_db.execute(statement)
        result_r = reference_db.execute(statement)
        assert result_c.rowcount == result_r.rowcount, statement
        _assert_results_identical(
            columnar_db.execute(probe), reference_db.execute(probe), statement
        )


@pytest.mark.parametrize("rows", [[], [(1, "a", 2.5, None, 7, "one")]])
def test_empty_and_single_row_tables(rows):
    columnar_db, reference_db = _make_pair(rows)
    for query in [
        "SELECT * FROM t ORDER BY id",
        "SELECT count(*), sum(a) FROM t WHERE a > 0",
        "SELECT id FROM t WHERE a BETWEEN 0 AND 10",
    ]:
        _assert_results_identical(
            columnar_db.execute(query), reference_db.execute(query), query
        )
    assert columnar_db.execute("DELETE FROM t WHERE a < 100").rowcount == (
        reference_db.execute("DELETE FROM t WHERE a < 100").rowcount
    )


def test_null_heavy_table_parity():
    rows = [(i, None, None, None, None, None) for i in range(1, 41)]
    columnar_db, reference_db = _make_pair(rows)
    for query in [
        "SELECT * FROM t ORDER BY id",
        "SELECT count(a), count(*) FROM t",
        "SELECT id FROM t WHERE a IS NULL ORDER BY id",
        "SELECT id FROM t WHERE a > 0 ORDER BY id",
        "SELECT sum(a), avg(b) FROM t WHERE b IS NOT NULL",
    ]:
        _assert_results_identical(
            columnar_db.execute(query), reference_db.execute(query), query
        )


# ---------------------------------------------------------------------------
# Storage-layer behavior
# ---------------------------------------------------------------------------


def test_none_vs_nan_round_trip():
    """The null bitmap keeps stored None distinct from a genuine float NaN."""
    db = Database(num_segments=2)
    db.create_table("f", [("id", "integer"), ("x", "double precision")])
    db.load_rows("f", [(1, None), (2, float("nan")), (3, 1.25)])
    by_id = {row[0]: row[1] for row in db.execute("SELECT id, x FROM f").rows}
    assert by_id[1] is None
    assert isinstance(by_id[2], float) and math.isnan(by_id[2])
    assert by_id[3] == 1.25
    # Both None and NaN are SQL NULL for predicates and strict aggregates.
    assert db.query_scalar("SELECT count(x) FROM f") == 1
    assert db.query_scalar("SELECT count(*) FROM f WHERE x IS NULL") == 2


def test_int_overflow_demotes_column_and_falls_back():
    """A value outside int64 demotes the packed column to an object list;
    queries still answer exactly, just without the vectorized path."""
    db = Database(num_segments=2)
    db.create_table("big", [("id", "integer"), ("v", "bigint")])
    db.load_rows("big", [(1, 10), (2, 2**70), (3, -5), (4, None)])
    table = db.catalog.get_table("big")
    assert any(
        table.column_store(segment).numeric_view(1) is None
        for segment in range(table.num_segments)
        if len(table.column_store(segment))
    )
    rows = db.execute("SELECT id, v FROM big ORDER BY id").rows
    assert rows == [(1, 10), (2, 2**70), (3, -5), (4, None)]
    result = db.execute("SELECT id FROM big WHERE v > 0 ORDER BY id")
    assert [row[0] for row in result.rows] == [1, 2]
    assert result.stats.where_vectorized is False


def test_vectorized_scan_stats_and_accounting():
    """rows_scanned counts bitmap width (rows touched); rows_matched the
    popcount; selectivity is their ratio."""
    columnar_db, reference_db = _make_pair(_seed_rows())
    total = columnar_db.query_scalar("SELECT count(*) FROM t")
    query = "SELECT count(*) FROM t WHERE a < 0"
    result = columnar_db.execute(query)
    assert result.stats.where_vectorized is True
    assert result.stats.rows_scanned == total
    matched = result.stats.rows_matched
    assert result.stats.bitmap_selectivity == pytest.approx(matched / total)
    assert result.stats.scan_details[0].vectorized is True
    # The reference tier answers identically but never vectorizes.
    row_result = reference_db.execute(query)
    assert row_result.rows == result.rows
    assert row_result.stats.where_vectorized is False
    assert row_result.stats.bitmap_selectivity is None


def test_dml_stats_report_vectorized_where():
    columnar_db, _ = _make_pair(_seed_rows(seed=3))
    delete = columnar_db.execute("DELETE FROM t WHERE a < -25")
    assert delete.stats.where_vectorized is True
    assert delete.stats.rows_matched == delete.rowcount
    update = columnar_db.execute("UPDATE t SET b = 0.0 WHERE a > 25")
    assert update.stats.where_vectorized is True
    # Text equality runs in code space over the dictionary-encoded column.
    text_delete = columnar_db.execute("DELETE FROM t WHERE grp = 'a'")
    assert text_delete.stats.where_vectorized is True
    # Function calls stay outside the vector subset → row path, same effect.
    fallback = columnar_db.execute("DELETE FROM t WHERE abs(a) > 90")
    assert fallback.stats.where_vectorized is False


def test_explain_analyze_renders_vectorized_flag(db_pair):
    columnar_db, reference_db = db_pair
    plan_c = "\n".join(
        row[0]
        for row in columnar_db.execute(
            "EXPLAIN ANALYZE SELECT count(*) FROM t WHERE a < 0"
        ).rows
    )
    assert "Vectorized: yes" in plan_c
    plan_r = "\n".join(
        row[0]
        for row in reference_db.execute(
            "EXPLAIN ANALYZE SELECT count(*) FROM t WHERE a < 0"
        ).rows
    )
    assert "Vectorized: no" in plan_r


def test_per_segment_row_cache_invalidation():
    """Mutating one segment must leave the other segments' cached row views
    (``ColumnStore.rows_view``) in place."""
    db = Database(num_segments=3)
    db.create_table("c", [("id", "integer"), ("x", "double precision")])
    table = db.catalog.get_table("c")
    # Round-robin placement: rows land on segments 0, 1, 2, 0, ...
    table.insert((1, 1.0))
    table.insert((2, 2.0))
    table.insert((3, 3.0))
    warm = [table.column_store(segment).rows_view() for segment in range(3)]
    table.insert((4, 4.0))  # round-robin cursor → segment 0
    assert table.column_store(1).rows_view() is warm[1]
    assert table.column_store(2).rows_view() is warm[2]
    assert table.column_store(0).rows_view() is not warm[0]
    assert table.column_store(0).rows_view() == [(1, 1.0), (4, 4.0)]


def test_point_reads_and_dml_deltas_never_build_the_row_view(monkeypatch):
    """A write drops its segment's cached row view; the statements that need
    only a few rows must not rebuild it (``ColumnStore.rows_view`` builds
    every row of the segment).  Each statement below follows a write."""
    db = Database(num_segments=4, plan_cache=16)
    db.create_table(
        "w", [("id", "integer"), ("g", "integer"), ("x", "double precision")],
        distributed_by="id",
    )
    db.load_rows("w", [(i, i % 5, float(i)) for i in range(2000)])
    db.execute("CREATE INDEX w_id ON w (id)")
    db.execute("CREATE INDEX w_x ON w (x)")
    db.execute("CREATE MATERIALIZED VIEW w_sums AS SELECT g, count(*), sum(x) FROM w GROUP BY g")
    built = []
    rows_view = ColumnStore.rows_view
    monkeypatch.setattr(
        ColumnStore, "rows_view", lambda store: built.append(store) or rows_view(store)
    )

    insert = db.execute("INSERT INTO w VALUES (500, 1, 5.0), (501, 2, 6.0)")
    assert insert.stats.matview_deltas_applied == 1
    assert built == [], "INSERT into a table with a view"

    update = db.execute("UPDATE w SET x = 1.5 WHERE id = 7")
    assert update.rowcount == 1 and update.stats.where_vectorized
    assert built == [], "bitmap point UPDATE"

    cached = db.execute("SELECT id, x FROM w WHERE id = 7")
    assert cached.rows == [(7, 1.5)]
    assert built == [], "cached point read after a write"

    db.execute("UPDATE w SET g = 4 WHERE id = 7")
    indexed = db.execute("SELECT id, g FROM w WHERE id = 7 AND x > 0")
    assert indexed.rows == [(7, 4)]
    assert indexed.stats.scan_details[0].access == "index"
    assert built == [], "index point read after a write"

    # Read-mostly traffic does get the view back: once the point reads since
    # the last write have cost about what a build does, the segment builds it.
    [(segment, _)] = db.catalog.get_index("w_id").probe_eq(7)
    store = db.table("w").column_store(segment)
    reads = 0
    while store not in built:
        db.execute("SELECT id, x FROM w WHERE id = 7")
        reads += 1
    assert built == [store] and reads <= len(store) // ColumnStore._CACHE_AFTER


def test_reads_after_a_write_never_build_the_row_view(monkeypatch):
    """Statements that read a few rows, or only the packed columns, must not
    rebuild a written segment's row view: a join lookup whose WHERE probes the
    index below the join, a grouped view's recompute (a WHERE-less scan is
    lazy) and a top-k whose LIMIT covers every selected row (the selection
    gathers only its own rows)."""
    db = Database(num_segments=4)
    db.create_table(
        "t",
        [("id", "integer"), ("dim_id", "integer"), ("cat", "text"), ("q", "integer"),
         ("v", "double precision")],
        distributed_by="id",
    )
    db.create_table("dim", [("dim_id", "integer"), ("region", "text")])
    db.load_rows("t", [(i, i % 50, f"c{i % 7}", i % 500, float(i)) for i in range(2000)])
    db.load_rows("dim", [(i, f"r{i % 3}") for i in range(50)])
    db.execute("CREATE INDEX t_id ON t USING hash (id)")
    db.execute("CREATE MATERIALIZED VIEW by_cat AS SELECT cat, count(*), sum(v) FROM t GROUP BY cat")
    join = "SELECT t.id, t.v, d.region FROM t JOIN dim d ON t.dim_id = d.dim_id WHERE t.id = 7"
    db.execute(join)  # the small side's row view stands from here on
    built = []
    rows_view = ColumnStore.rows_view
    monkeypatch.setattr(
        ColumnStore, "rows_view", lambda store: built.append(store) or rows_view(store)
    )

    db.execute("UPDATE t SET v = 1.5 WHERE id = 8")
    lookup = db.execute(join)
    assert lookup.rows == [(7, 7.0, "r1")]
    assert lookup.stats.scan_details[0].access == "index"
    assert lookup.stats.join_rows_emitted == 1
    assert built == [], "join lookup after a write"

    db.execute("UPDATE t SET v = 2.5 WHERE id = 9")
    view = db.execute("SELECT * FROM by_cat")
    assert view.stats.matview_recomputes == 1
    assert built == [], "grouped view recompute after an UPDATE"

    db.execute("UPDATE t SET v = 3.5 WHERE id = 10")
    top = db.execute("SELECT id, v FROM t WHERE q = 3 ORDER BY v DESC LIMIT 5")
    assert top.rows == [(1503, 1503.0), (1003, 1003.0), (503, 503.0), (3, 3.0)]
    assert built == [], "top-k after a write"


def test_column_store_take_preserves_values():
    """keep_positions (bitmap DELETE) preserves exact values and nulls."""
    db = Database(num_segments=1)
    db.create_table("k", [("id", "integer"), ("x", "double precision")])
    db.load_rows(
        "k", [(1, 1.5), (2, None), (3, float("nan")), (4, -0.0), (5, 2.5)]
    )
    db.execute("DELETE FROM k WHERE id = 5")
    rows = db.execute("SELECT id, x FROM k ORDER BY id").rows
    assert rows[0] == (1, 1.5)
    assert rows[1][1] is None
    assert isinstance(rows[2][1], float) and math.isnan(rows[2][1])
    assert rows[3][1] == 0.0 and math.copysign(1.0, rows[3][1]) == -1.0


def test_large_int_comparison_against_float_falls_back_exactly():
    """int64 values beyond 2**53 compare exactly (the vector path must
    abort rather than round through float64)."""
    huge = 2**53 + 1
    columnar_db, reference_db = _make_pair([])
    for db in (columnar_db, reference_db):
        db.create_table("p", [("id", "integer"), ("v", "bigint")])
        db.load_rows("p", [(1, huge), (2, huge - 1), (3, 0)])
    query = f"SELECT id FROM p WHERE v > {float(2**53)!r} ORDER BY id"
    _assert_results_identical(
        columnar_db.execute(query), reference_db.execute(query), query
    )
