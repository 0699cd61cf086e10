"""Late materialization past the WHERE: columnar GROUP BY and top-k.

Three kinds of evidence that ``engine/grouping.py`` changes no answer:

(a) a seeded parity fuzz — the columnar / partitioned paths against the
    reference tier's row loop (``tests/reference_tier.py``), rows compared
    by ``repr`` (so
    float bits, int-vs-float and group / tie order all count, and no NumPy
    scalar may leak into a result row);
(b) a differential check against stdlib ``sqlite3`` on int/text data — the
    first oracle here that shares no parser or evaluator with the engine;
(c) *path-taken* guards: the measurement spine's statement shapes must
    report the columnar strategies, and a stale materialized-view read must
    rebuild through the kernel, so a later refactor cannot silently decline
    them.

Plus the regression test for ORDER BY over NaN keys (NaN is SQL NULL).
"""

from __future__ import annotations

import random
import sqlite3

import numpy as np
import pytest

from repro import Database
from repro.engine import grouping
from reference_tier import reference_database
from repro.methods.linear_regression import install_linear_regression

NAN = float("nan")
COLUMNS = [
    ("id", "integer"),
    ("txt", "text"),
    ("flag", "boolean"),
    ("k", "integer"),
    ("big", "bigint"),
    ("d", "double precision"),
    ("e", "double precision"),
    ("x", "double precision[]"),
]


def _rows(rng: random.Random, count: int, *, nan_keys: bool, overflow: bool):
    rows = []
    for i in range(count):
        txt = None if rng.random() < 0.1 else rng.choice(["a", "b", "c", "dd", ""])
        flag = None if rng.random() < 0.1 else rng.random() < 0.5
        k = None if rng.random() < 0.1 else rng.randrange(-3, 4)
        # beyond 2^53 always; beyond int64 (which demotes the column) on request
        big = rng.choice([2**53 + 1, -(2**60), 2**62, 7]) + i
        if overflow and i % 17 == 0:
            big = 2**64 + i
        d = rng.choice([0.0, -0.0, 1.5, -2.25, 1e-3, None, 3.0])
        if nan_keys and i % 13 == 0:
            d = NAN
        e = None if rng.random() < 0.15 else round(rng.uniform(-50, 50), 3)
        rows.append((i, txt, flag, k, big, d, e, [float(i % 5), float(i % 3)]))
    return rows


def _pair(seed: int, *, count=None, nan_keys=None, overflow=None):
    """The default tier and the row-loop oracle over identical data."""
    rng = random.Random(seed)
    segments = rng.choice([1, 2, 3, 5])  # 5 segments over 3 rows: empty segments
    random_count = rng.choice([0, 3, 40, 150])
    count = random_count if count is None else count
    distributed_by = rng.choice([None, "id", "txt"])  # "txt": whole groups on one segment
    rows = _rows(
        rng,
        count,
        nan_keys=seed % 4 == 1 if nan_keys is None else nan_keys,
        overflow=seed % 3 == 2 if overflow is None else overflow,
    )
    pair = []
    for make in (Database, reference_database):
        db = make(num_segments=segments)
        install_linear_regression(db)
        db.create_table("t", COLUMNS, distributed_by=distributed_by)
        db.load_rows("t", rows)
        db.create_table("dim", [("k", "integer"), ("label", "text")])
        db.load_rows("dim", [(k, f"L{k % 2}") for k in range(-3, 4)])
        pair.append(db)
    return pair, rng


KEYS = ["txt", "k", "d", "flag", "txt, k", "k, d", "txt, flag, d", "k % 3", "upper(txt)", "k + 1, txt"]
AGGREGATES = [
    "count(*)",
    "count(e)",
    "sum(e)",
    "sum(big)",
    "avg(e)",
    "min(e)",
    "max(txt)",
    "sum(e * 2)",
    "count(DISTINCT k)",
    "array_agg(id)",
    "string_agg(txt, '-')",
    "bool_or(flag)",
]
WHERES = ["", "WHERE id % 2 = 0", "WHERE e > 0", "WHERE id < 0", "WHERE txt = 'a' OR k > 1"]


def _grouped_statement(rng: random.Random) -> str:
    keys = rng.choice(KEYS)
    aggregates = ", ".join(rng.sample(AGGREGATES, rng.randint(1, 3)))
    sql = f"SELECT {keys}, {aggregates} FROM t {rng.choice(WHERES)} GROUP BY {keys}"
    roll = rng.random()
    if roll < 0.25:
        sql += " HAVING count(*) > 1 ORDER BY count(*) DESC, 1 LIMIT 3"
    elif roll < 0.4:
        sql += " ORDER BY 1"
    return sql


def _topk_statement(rng: random.Random) -> str:
    order = rng.choice(
        [
            "e DESC",
            "e",
            "e NULLS FIRST",
            "d DESC NULLS FIRST, id",
            "txt, k DESC",
            "flag DESC, e",
            "2, 1 DESC",
            "label, id",
            "big DESC",
            "e * 2",
        ]
    )
    select = rng.choice(["id, e AS label", "id, txt AS label", "id, k AS label, d"])
    limit = rng.choice([0, 1, 4, 10, 1000])
    offset = rng.choice(["", "", " OFFSET 2"])
    return f"SELECT {select} FROM t {rng.choice(WHERES)} ORDER BY {order} LIMIT {limit}{offset}"


def _no_numpy_scalars(rows) -> bool:
    return not any(isinstance(value, np.generic) for row in rows for value in row)


@pytest.mark.parametrize("seed", range(16))
def test_parity_fuzz_against_the_row_loop(seed):
    (fast, oracle), rng = _pair(seed)
    statements = [_grouped_statement(rng) for _ in range(14)]
    statements += [_topk_statement(rng) for _ in range(10)]
    statements += [
        "SELECT count(*), sum(e), min(txt) FROM t WHERE id < 0",  # ungrouped over nothing: one row
        "SELECT txt, count(*) FROM t WHERE id < 0 GROUP BY txt",  # grouped over nothing: no rows
        "SELECT txt FROM t GROUP BY txt",
        "SELECT dim.label, count(*), sum(t.e) FROM t JOIN dim ON t.k = dim.k GROUP BY dim.label",
        "SELECT k, linregr(e, x) FROM t WHERE e = floor(e) GROUP BY k",
    ]
    for sql in statements:
        got, want = fast.execute(sql), oracle.execute(sql)
        assert repr(got.rows) == repr(want.rows), sql
        assert _no_numpy_scalars(got.rows) or "linregr" in sql, sql


def test_strategies_and_decline_reasons():
    (fast, oracle), _ = _pair(8, count=150, nan_keys=False, overflow=True)
    expectations = {
        "SELECT txt, k, d, count(*), sum(e) FROM t WHERE id > 3 GROUP BY txt, k, d": ("columnar", None),
        "SELECT flag, min(e) FROM t GROUP BY flag": ("columnar", None),
        "SELECT k % 2, count(*) FROM t GROUP BY k % 2": ("partitioned", "group key is not a stored column"),
        "SELECT k, sum(e + 1) FROM t GROUP BY k": ("partitioned", "aggregate argument is neither a stored column nor a constant"),
        "SELECT big, count(*) FROM t GROUP BY big": (
            "partitioned",
            "key column is not packed (demoted or object-typed)",
        ),
        "SELECT dim.label, count(*) FROM t JOIN dim ON t.k = dim.k GROUP BY dim.label": (
            "partitioned",
            "input is not a columnar base-table scan",
        ),
        "SELECT k, count(DISTINCT txt) FROM t GROUP BY k": ("columnar", None),
        "SELECT count(*), sum(e) FROM t WHERE id > 3": ("columnar", None),
        "SELECT sum(e * 2) FROM t": ("partitioned", "aggregate argument is neither a stored column nor a constant"),
    }
    for sql, (strategy, reason) in expectations.items():
        stats = fast.execute(sql).stats
        assert (stats.group_strategy, stats.group_decline_reason) == (strategy, reason), sql
    stats = oracle.execute("SELECT k, count(*) FROM t GROUP BY k").stats
    assert (stats.group_strategy, stats.group_decline_reason) == ("rows", "reference tier")


@pytest.mark.parametrize("segments", [1, 3])
def test_one_stream_per_group_aggregates_ride_the_kernel(segments):
    """DISTINCT and an unmergeable UDA fold one stream per group — from the
    kernel's slices, not a row loop — on one segment and on several."""
    rows = _rows(random.Random(3), 120, nan_keys=False, overflow=False)
    pair = []
    for make in (Database, reference_database):
        db = make(num_segments=segments)
        db.create_aggregate("first_seen", transition=lambda state, v: v if state is None else state)
        db.create_table("t", COLUMNS)
        db.load_rows("t", rows)
        pair.append(db)
    fast, oracle = pair
    for sql in (
        "SELECT txt, first_seen(e), sum(e), count(DISTINCT k), avg(DISTINCT e) FROM t GROUP BY txt",
        "SELECT k % 2, first_seen(id), sum(e + 1) FROM t WHERE e > 0 GROUP BY k % 2",
        "SELECT first_seen(e), sum(e), count(DISTINCT k), count(*) FROM t WHERE id > 5",
        "SELECT first_seen(e), sum(e), count(DISTINCT k), count(*) FROM t WHERE id < 0",
    ):
        got = fast.execute(sql)
        assert got.stats.group_strategy in ("columnar", "partitioned"), sql
        assert repr(got.rows) == repr(oracle.execute(sql).rows), sql


def test_nan_key_column_declines_to_the_partitioned_path():
    (fast, oracle), _ = _pair(1, count=40, nan_keys=True)
    sql = "SELECT d, count(*) FROM t GROUP BY d"
    got = fast.execute(sql)
    assert got.stats.group_strategy == "partitioned"
    assert got.stats.group_decline_reason == "float key column holds NaN"
    assert repr(got.rows) == repr(oracle.execute(sql).rows)


def test_one_timings_object_per_aggregate_call():
    (fast, _), _ = _pair(8, count=150)
    stats = fast.execute("SELECT txt, count(*), sum(e) FROM t GROUP BY txt").stats
    assert [t.aggregate_name for t in stats.aggregate_timings] == ["count", "sum"]
    for timings in stats.aggregate_timings:
        assert timings.num_groups == 6  # a, b, c, dd, '' and NULL
        assert len(timings.per_segment_seconds) == len(timings.rows_per_segment)
        assert sum(timings.rows_per_segment) == 150
        assert timings.serial_seconds > 0.0


def test_batch_kernel_fallback_is_recorded_not_silent():
    from repro.engine.aggregates import AggregateDefinition
    from repro.engine.segments import SegmentedAggregator
    from repro.engine.vectorized import ColumnBatch

    def picky_batch(state, values):
        raise ValueError("no batches today")

    definition = AggregateDefinition(
        "s", lambda state, value: state + value, initial_state=0, batch_transition=picky_batch
    )
    value, timings = SegmentedAggregator(definition).run([ColumnBatch((list(range(10)),))])
    assert value == 45  # the row fold took over: same answer
    assert timings.batch_fallback_reason == "batch_kernel:ValueError"
    assert timings.fallback_reason is None  # that field is for worker-pool faults


def test_batch_kernel_fallback_is_not_a_parallel_fallback():
    (fast, oracle), _ = _pair(8, count=150)
    for sql in ("SELECT sum(txt) FROM t", "SELECT k, sum(txt) FROM t GROUP BY k"):
        got = fast.execute(sql)  # sum's batch kernel cannot add text; the row fold concatenates
        assert repr(got.rows) == repr(oracle.execute(sql).rows)
        assert [t.batch_fallback_reason for t in got.stats.aggregate_timings] == ["batch_kernel:TypeError"]
        assert got.stats.parallel_fallback_reason is None  # no pool, so no pool fault


# ---------------------------------------------------------------------------
# Top-k
# ---------------------------------------------------------------------------


def test_topk_strategies_and_decline_reasons():
    (fast, _), _ = _pair(8, count=150, overflow=True)
    expectations = {
        "SELECT id, e FROM t ORDER BY e DESC LIMIT 5": ("columnar-topk", None),
        "SELECT id, txt AS label FROM t WHERE id > 2 ORDER BY label, 1 DESC LIMIT 5 OFFSET 3": (
            "columnar-topk",
            None,
        ),
        "SELECT id, e FROM t ORDER BY e DESC": ("sort", "no LIMIT"),
        "SELECT id, e FROM t ORDER BY e DESC LIMIT 100000": ("sort", "LIMIT covers every row"),
        "SELECT id, e FROM t ORDER BY e * 2 LIMIT 5": ("heap", "ORDER BY key is not a stored column"),
        "SELECT id, e + 1 FROM t ORDER BY e LIMIT 5": ("heap", "select list computes expressions"),
        "SELECT id, big FROM t ORDER BY big LIMIT 5": (
            "heap",
            "key column is not packed (demoted or object-typed)",
        ),
        "SELECT txt, count(*) FROM t GROUP BY txt ORDER BY 2 DESC LIMIT 2": (
            "heap",
            "ORDER BY runs over aggregate output",
        ),
    }
    for sql, (strategy, reason) in expectations.items():
        stats = fast.execute(sql).stats
        assert (stats.order_strategy, stats.order_decline_reason) == (strategy, reason), sql


def test_topk_ties_keep_row_order_and_nulls_follow_the_flag():
    db = Database(num_segments=2)
    db.create_table("s", [("id", "integer"), ("g", "double precision")])
    db.load_rows("s", [(i, [1.0, None, 1.0, 2.0, None, 1.0, 0.5][i % 7]) for i in range(21)])
    oracle = reference_database(num_segments=2)
    oracle.create_table("s", [("id", "integer"), ("g", "double precision")])
    oracle.load_rows("s", [(i, [1.0, None, 1.0, 2.0, None, 1.0, 0.5][i % 7]) for i in range(21)])
    for order in ("g", "g DESC", "g NULLS FIRST", "g DESC NULLS FIRST", "g DESC NULLS LAST"):
        sql = f"SELECT id, g FROM s ORDER BY {order} LIMIT 9"
        got = db.execute(sql)
        assert got.stats.order_strategy == "columnar-topk"
        assert repr(got.rows) == repr(oracle.execute(sql).rows), sql


@pytest.mark.parametrize("make", [Database, reference_database])
def test_order_by_nan_places_nan_with_the_nulls(make):
    db = make(num_segments=1)  # scan order = id order
    db.create_table("n", [("id", "integer"), ("g", "double precision")])
    db.load_rows("n", [(1, 0.0), (2, -0.0), (3, NAN), (4, None), (5, NAN), (6, 1.5)])

    def ids(sql):
        return [row[0] for row in db.execute(sql).rows]

    # NaN is SQL NULL: with the NULLs (row order among themselves), never
    # interleaved with — or displacing — real values.
    assert ids("SELECT id, g FROM n ORDER BY g") == [1, 2, 6, 3, 4, 5]
    assert ids("SELECT id, g FROM n ORDER BY g DESC") == [6, 1, 2, 3, 4, 5]
    assert ids("SELECT id, g FROM n ORDER BY g NULLS FIRST") == [3, 4, 5, 1, 2, 6]
    assert ids("SELECT id, g FROM n ORDER BY g DESC LIMIT 3") == [6, 1, 2]
    assert ids("SELECT id, g FROM n ORDER BY g LIMIT 4") == [1, 2, 6, 3]
    assert ids("SELECT id, g FROM n ORDER BY g DESC NULLS FIRST LIMIT 4") == [3, 4, 5, 6]
    # The heap path (an expression key keeps it off the columnar one).
    assert ids("SELECT id, g FROM n ORDER BY g + 0 DESC LIMIT 3") == [6, 1, 2]
    assert ids("SELECT id, g FROM n ORDER BY g + 0 LIMIT 4") == [1, 2, 6, 3]


# ---------------------------------------------------------------------------
# (b) Differential check against sqlite3
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_grouped_and_topk_shapes_agree_with_sqlite(seed):
    rng = random.Random(100 + seed)
    rows = [
        (
            i,
            rng.choice(["red", "green", "blue", None]),
            rng.choice([None, 1, 2, 3, 5, 8]),
            rng.randrange(-1000, 1000),
        )
        for i in range(rng.choice([0, 1, 60, 300]))
    ]
    db = Database(num_segments=rng.choice([1, 2, 4]))
    db.create_table("s", [("id", "integer"), ("c", "text"), ("k", "integer"), ("n", "integer")])
    db.load_rows("s", rows)
    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE s (id INTEGER, c TEXT, k INTEGER, n INTEGER)")
    lite.executemany("INSERT INTO s VALUES (?, ?, ?, ?)", rows)

    cut = rng.randrange(-500, 500)
    grouped = [
        f"SELECT c, count(*), count(k), sum(n), min(n), max(n) FROM s WHERE n != {cut} GROUP BY c",
        f"SELECT k, c, count(*), sum(n) FROM s WHERE n > {cut} GROUP BY k, c",
        "SELECT k, count(*), min(c), max(c) FROM s GROUP BY k",
        f"SELECT c, sum(n) FROM s WHERE n < {cut} GROUP BY c HAVING count(*) > 2",
        f"SELECT count(*), sum(n), max(n) FROM s WHERE n >= {cut}",
    ]
    for sql in grouped:
        # Group order is unspecified in SQL: compare as sets (no duplicates by construction).
        assert set(db.execute(sql).rows) == set(lite.execute(sql).fetchall()), sql

    # sqlite sorts NULLs first ascending, last descending; say so explicitly here.
    ordered = [
        (f"SELECT id, n FROM s WHERE n != {cut} ORDER BY n DESC, id LIMIT 7", None),
        ("SELECT id, k FROM s ORDER BY k NULLS FIRST, id LIMIT 9 OFFSET 2", "SELECT id, k FROM s ORDER BY k, id LIMIT 9 OFFSET 2"),
        ("SELECT id, c FROM s ORDER BY c DESC NULLS LAST, id DESC LIMIT 5", "SELECT id, c FROM s ORDER BY c DESC, id DESC LIMIT 5"),
    ]
    for sql, lite_sql in ordered:
        got = db.execute(sql)
        assert got.rows == lite.execute(lite_sql or sql).fetchall(), sql
        if len(rows) > 12:
            assert got.stats.order_strategy == "columnar-topk", sql


# ---------------------------------------------------------------------------
# (c) Path-taken guards for the measurement spine's shapes
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def spine_like():
    rng = np.random.default_rng(5)
    count = 4000
    db = Database(num_segments=2)
    db.create_table(
        "fact",
        [("id", "integer"), ("cat", "text"), ("k", "integer"), ("q", "integer"), ("v", "double precision")],
    )
    db.load_rows(
        "fact",
        list(
            zip(
                range(count),
                [f"cat{c:02d}" for c in rng.integers(0, 50, count).tolist()],
                rng.integers(0, count // 10, count).tolist(),
                rng.integers(0, 1000, count).tolist(),
                np.round(rng.uniform(0.0, 100.0, count), 6).tolist(),
            )
        ),
    )
    db.execute("CREATE INDEX fact_id ON fact (id)")
    db.execute("ANALYZE")
    return db


def test_spine_statement_shapes_take_the_columnar_paths(spine_like):
    db = spine_like
    for sql in (
        "SELECT cat, count(*), sum(v) FROM fact WHERE q != 7 GROUP BY cat",  # groupby_low
        "SELECT k, count(*), sum(v) FROM fact WHERE q != 7 GROUP BY k",  # groupby_high
    ):
        stats = db.execute(sql).stats
        assert stats.where_vectorized
        assert (stats.group_strategy, stats.group_decline_reason) == ("columnar", None), sql
    stats = db.execute("SELECT id, v FROM fact WHERE q != 7 ORDER BY v DESC LIMIT 10").stats
    assert (stats.order_strategy, stats.order_decline_reason) == ("columnar-topk", None)
    text = db.explain("SELECT cat, count(*) FROM fact WHERE q != 7 GROUP BY cat", analyze=True)
    assert "Grouping: columnar" in text
    text = db.explain("SELECT id, v FROM fact WHERE q != 7 ORDER BY v DESC LIMIT 10", analyze=True)
    assert "Ordering: columnar-topk" in text
    plain = db.explain("SELECT cat, count(*) FROM fact WHERE q != 7 GROUP BY cat")
    assert "Grouping" not in plain


def test_stale_view_read_rebuilds_through_the_kernel(spine_like, monkeypatch):
    db = spine_like
    db.execute("CREATE MATERIALIZED VIEW by_cat AS SELECT cat, count(*) AS n, sum(v) AS total FROM fact GROUP BY cat")
    calls = []
    real = grouping.fold_groups

    def spy(frames, *rest):
        calls.append(len(frames))
        return real(frames, *rest)

    monkeypatch.setattr(grouping, "fold_groups", spy)
    db.execute("UPDATE fact SET v = v + 1 WHERE id = 11")  # stales the view
    view_rows = db.execute("SELECT cat, n, total FROM by_cat").rows
    assert calls == [2]  # one rebuild, one frame per segment
    direct = db.execute("SELECT cat, count(*) AS n, sum(v) AS total FROM fact GROUP BY cat").rows
    assert repr(view_rows) == repr(direct)
    db.execute("DROP MATERIALIZED VIEW by_cat")
