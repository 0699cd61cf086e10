"""Compiled closures vs the reference evaluator: value and error parity.

Every expression the executor evaluates goes through one seam
(``Executor._compile``, see ``docs/engine-execution.md``) that returns a
compiled closure; the reference tier (``tests/reference_tier.py``) returns
a tree-walking evaluator there instead.  The two must be observationally
identical.  This suite runs a corpus of SELECTs — filters, arithmetic, NULL
semantics, GROUP BY, segmented aggregates, HAVING, ORDER BY, windows,
non-equi joins, CASE, LIKE, casts, subscripts — through both and asserts
identical results, including NULL propagation in comparisons and
``_divide``; and a corpus of malformed statements at every evaluation site,
asserting identical exception type and message, raised on the first row
evaluated and never on zero rows — nor by a CASE branch never taken.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import Database
from reference_tier import reference_database


def _make_pair(num_segments: int = 4):
    """Two databases with identical contents: the engine, the reference tier."""
    pair = []
    for make in (Database, reference_database):
        db = make(num_segments=num_segments)
        db.create_table(
            "t",
            [
                ("id", "integer"),
                ("grp", "text"),
                ("a", "double precision"),
                ("b", "double precision"),
                ("s", "text"),
                ("arr", "double precision[]"),
            ],
            distributed_by="id",
        )
        rows = []
        for i in range(1, 61):
            grp = "abc"[i % 3]
            a = None if i % 7 == 0 else float(i) * 1.5
            b = None if i % 11 == 0 else float(i % 5) - 2.0
            s = None if i % 13 == 0 else f"name_{i % 4}"
            arr = None if i % 17 == 0 else [float(i), float(i % 3), 1.0]
            rows.append((i, grp, a, b, s, arr))
        db.load_rows("t", rows)
        pair.append(db)
    return pair


@pytest.fixture(scope="module")
def db_pair():
    return _make_pair()


CORPUS = [
    # Projection and scalar arithmetic.
    "SELECT id, a + b, a - b, a * 2, -a FROM t ORDER BY id",
    "SELECT id, a / b FROM t WHERE b <> 0 ORDER BY id",
    "SELECT 7 / 2, 7.0 / 2, 5 % 3, 2 ^ 10 FROM t WHERE id = 1",
    # NULL semantics in comparisons and logic.
    "SELECT id FROM t WHERE a > 10 ORDER BY id",
    "SELECT id FROM t WHERE a IS NULL ORDER BY id",
    "SELECT id FROM t WHERE a IS NOT NULL AND b IS NULL ORDER BY id",
    "SELECT id, a = b, a <> b, a < b FROM t ORDER BY id",
    "SELECT id FROM t WHERE a > 5 AND b < 1 ORDER BY id",
    "SELECT id FROM t WHERE a > 80 OR b > 1 ORDER BY id",
    "SELECT id FROM t WHERE NOT (a > 10) ORDER BY id",
    "SELECT id FROM t WHERE a BETWEEN 10 AND 40 ORDER BY id",
    # ... and as values, where the row closure (not the bitmap) evaluates them.
    "SELECT id, a BETWEEN 10 AND 40, b NOT BETWEEN -1 AND 1, a > 10 OR b < 0 FROM t ORDER BY id",
    "SELECT id FROM t WHERE grp IN ('a', 'c') ORDER BY id",
    "SELECT id FROM t WHERE s LIKE 'name%' ORDER BY id",
    "SELECT id, s LIKE 'name_1' FROM t ORDER BY id",
    # CASE, casts, subscripts, functions, concatenation.
    "SELECT id, CASE WHEN a > 30 THEN 'big' WHEN a > 10 THEN 'mid' ELSE 'small' END FROM t ORDER BY id",
    "SELECT id, CAST(a AS text), CAST(id AS double precision) FROM t ORDER BY id",
    "SELECT id, arr[1], arr[5] FROM t ORDER BY id",
    "SELECT id, abs(b), coalesce(a, 0.0) FROM t ORDER BY id",
    "SELECT id, grp || '-' || s FROM t ORDER BY id",
    # Aggregates over the segmented path (columnar + batched kernels).
    "SELECT count(*) FROM t",
    "SELECT count(a), sum(a), avg(a), min(a), max(a) FROM t",
    "SELECT var_samp(a), var_pop(a), stddev(a), stddev_pop(a) FROM t",
    "SELECT bool_and(a > 0), bool_or(b > 1) FROM t",
    "SELECT vector_sum(arr) FROM t",
    "SELECT sum(a + b), avg(a * 2) FROM t",
    "SELECT count(DISTINCT grp) FROM t",
    # Order-sensitive aggregates (always row-at-a-time).
    "SELECT array_agg(grp) FROM t WHERE id <= 5",
    "SELECT string_agg(grp, ',') FROM t WHERE id <= 5",
    "SELECT string_agg(grp) FROM t WHERE id <= 5",
    # GROUP BY / HAVING / ORDER BY over aggregates.
    "SELECT grp, count(*), sum(a), avg(b) FROM t GROUP BY grp ORDER BY grp",
    "SELECT grp, count(*) FROM t GROUP BY grp HAVING count(*) > 15 ORDER BY grp",
    "SELECT grp, stddev(a) FROM t WHERE a IS NOT NULL GROUP BY grp ORDER BY grp",
    "SELECT id % 4, max(a) FROM t GROUP BY id % 4 ORDER BY 1",
    "SELECT grp, count(*) AS n, sum(a) AS total FROM t GROUP BY grp "
    "HAVING sum(a) > 100 AND max(b) >= 1 ORDER BY total DESC, n",
    "SELECT id % 5 AS bucket, avg(b) AS m FROM t GROUP BY id % 5 "
    "HAVING count(*) > 1 ORDER BY avg(b) + 1, bucket LIMIT 3",
    "SELECT upper(grp), count(a) FROM t GROUP BY upper(grp) ORDER BY count(a) DESC, 1",
    # Window functions: expression partition/order keys and arguments.
    "SELECT id, sum(a) OVER (PARTITION BY id % 3 ORDER BY id) FROM t ORDER BY id",
    "SELECT id, row_number() OVER (PARTITION BY upper(grp) ORDER BY a DESC, id), "
    "lag(a * 2, 1) OVER (PARTITION BY id % 2 ORDER BY id) FROM t ORDER BY id",
    "SELECT id, rank() OVER (PARTITION BY grp ORDER BY b), count(*) OVER (PARTITION BY b > 0) "
    "FROM t WHERE b IS NOT NULL ORDER BY id",
    "SELECT id, avg(a + b) OVER (PARTITION BY grp) AS m FROM t ORDER BY m NULLS LAST, id LIMIT 9",
    # DISTINCT / LIMIT / OFFSET.
    "SELECT DISTINCT grp FROM t ORDER BY grp",
    "SELECT id FROM t ORDER BY a DESC LIMIT 5",
    "SELECT id FROM t ORDER BY b, id LIMIT 7 OFFSET 3",
    # Joins and subqueries (fall back where needed, must still agree).
    "SELECT t1.id, t2.id FROM t t1 JOIN t t2 ON t1.id = t2.id - 1 WHERE t1.id < 5 ORDER BY t1.id",
    "SELECT t1.id, t2.id FROM t t1 LEFT JOIN t t2 ON t1.id < t2.id AND t2.id < 4 "
    "WHERE t1.id < 6 ORDER BY t1.id, t2.id NULLS LAST",
    "SELECT t1.id, count(t2.id) FROM t t1 LEFT JOIN t t2 ON t1.a < t2.b GROUP BY t1.id ORDER BY t1.id",
    "SELECT sub.g, sub.n FROM (SELECT grp AS g, count(*) AS n FROM t GROUP BY grp) sub ORDER BY sub.g",
    "SELECT count(*) FROM generate_series(1, 100) AS gs(n)",
]


def _assert_value_equal(left, right, query):
    if isinstance(left, float) or isinstance(right, float):
        if left is None or right is None or (isinstance(left, float) and math.isnan(left)):
            assert left == right or (
                isinstance(right, float) and math.isnan(right)
            ), f"{query}: {left!r} != {right!r}"
        else:
            assert left == pytest.approx(right, rel=1e-9, abs=1e-12), (
                f"{query}: {left!r} != {right!r}"
            )
    elif isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        np.testing.assert_allclose(
            np.asarray(left, dtype=np.float64),
            np.asarray(right, dtype=np.float64),
            rtol=1e-9,
            err_msg=query,
        )
    elif isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        assert len(left) == len(right), f"{query}: length mismatch"
        for l, r in zip(left, right):
            _assert_value_equal(l, r, query)
    else:
        assert left == right, f"{query}: {left!r} != {right!r}"


def _assert_results_equal(compiled, interpreted, query):
    assert compiled.columns == interpreted.columns, query
    assert len(compiled.rows) == len(interpreted.rows), query
    for row_c, row_i in zip(compiled.rows, interpreted.rows):
        _assert_value_equal(list(row_c), list(row_i), query)


@pytest.mark.parametrize("query", CORPUS)
def test_compiled_matches_interpreted(db_pair, query):
    compiled_db, interpreted_db = db_pair
    _assert_results_equal(compiled_db.execute(query), interpreted_db.execute(query), query)


def test_null_propagation_in_divide(db_pair):
    compiled_db, interpreted_db = db_pair
    query = "SELECT id, a / b FROM t WHERE b IS NULL OR a IS NULL ORDER BY id"
    _assert_results_equal(compiled_db.execute(query), interpreted_db.execute(query), query)
    # NULL / x and x / NULL are NULL on both tiers, never a division error.
    for db in db_pair:
        rows = db.execute(query).rows
        assert rows and all(row[1] is None for row in rows)


def test_division_by_zero_raised_on_both_tiers(db_pair):
    from repro.errors import ExecutionError

    for db in db_pair:
        with pytest.raises(ExecutionError):
            db.execute("SELECT a / 0 FROM t WHERE a IS NOT NULL")


def test_parameters_bind_on_both_tiers(db_pair):
    query = "SELECT count(*) FROM t WHERE a > %(low)s"
    compiled_db, interpreted_db = db_pair
    assert compiled_db.query_scalar(query, {"low": 20.0}) == interpreted_db.query_scalar(
        query, {"low": 20.0}
    )


# ---------------------------------------------------------------------------
# Error parity: malformed statements at every evaluation site
# ---------------------------------------------------------------------------

#: kind -> (bad expression, FROM clause for the SELECT sites).  The bad
#: expressions name no alias so the DML sites can use them too; an ambiguous
#: reference needs two sources, which only a SELECT has.
_BAD = {
    "unknown_column": ("nosuch", "e x"),
    "ambiguous_column": ("v", "e x, f y"),
    "unknown_function": ("nosuchfn(1)", "e x"),
    "unbound_parameter": ("%(nope)s", "e x"),
    "unknown_cast_type": ("CAST(1 AS nosuchtype)", "e x"),
}

_SELECT_SITES = {
    "where": "SELECT x.id FROM {src} WHERE {bad} > 0",
    "select_list": "SELECT {bad} FROM {src}",
    "group_by_key": "SELECT count(*) FROM {src} GROUP BY {bad}",
    "aggregate_argument": "SELECT sum({bad}) FROM {src} GROUP BY x.g",
    "having": "SELECT x.g FROM {src} GROUP BY x.g HAVING {bad} > 0",
    "order_by_groups": "SELECT x.g, count(*) FROM {src} GROUP BY x.g ORDER BY {bad}",
    "window_partition_key": "SELECT row_number() OVER (PARTITION BY {bad}) FROM {src}",
    "window_order_key": "SELECT sum(x.id) OVER (ORDER BY {bad}) FROM {src}",
    "non_equi_join_on": "SELECT 1 FROM {src} JOIN f z ON x.id < {bad}",
}

_DML_SITES = {
    "update_set": "UPDATE e SET v = {bad}",
    "delete_where": "DELETE FROM e WHERE {bad} > 0",
    "insert_values": "INSERT INTO e VALUES ({bad}, 'a', 1.0)",
}

_ERROR_CASES = [
    (f"{site}-{kind}", template.format(bad=bad, src=src))
    for kind, (bad, src) in _BAD.items()
    for site, template in _SELECT_SITES.items()
] + [
    (f"{site}-{kind}", template.format(bad=bad))
    for kind, (bad, _src) in _BAD.items()
    if kind != "ambiguous_column"
    for site, template in _DML_SITES.items()
]

#: A malformed node in a CASE branch no row takes: nothing evaluates it, so
#: the statement answers — at a select-list site and at a WHERE site.
_UNTAKEN_BRANCH_CASES = [
    ("case_select_list", "SELECT CASE WHEN x.id < 0 THEN nosuch ELSE 1 END FROM e x"),
    ("case_where", "SELECT x.id FROM e x WHERE CASE WHEN x.id < 0 THEN nosuchfn(x.id) ELSE x.id > 1 END"),
]


def _error_pair(populated: bool):
    pair = []
    for make in (Database, reference_database):
        db = make(num_segments=2)
        db.execute("CREATE TABLE e (id integer, g text, v double precision)")
        db.execute("CREATE TABLE f (id integer, v double precision)")
        if populated:
            db.execute("INSERT INTO e VALUES (1, 'a', 1.0), (2, 'b', 2.0), (3, 'a', NULL)")
            db.execute("INSERT INTO f VALUES (1, 1.0), (2, 2.0)")
        pair.append(db)
    return pair


def _outcome(db, statement):
    try:
        result = db.execute(statement)
    except Exception as exc:  # the assertion below pins the exact type
        return type(exc), str(exc)
    return result.rows, result.rowcount


@pytest.mark.parametrize("statement", [c[1] for c in _ERROR_CASES], ids=[c[0] for c in _ERROR_CASES])
def test_malformed_statement_raises_identically_on_both_tiers(statement):
    from repro.errors import ReproError

    compiled_db, reference_db = _error_pair(populated=True)
    kind, message = _outcome(compiled_db, statement)
    assert isinstance(kind, type) and issubclass(kind, ReproError), (statement, kind, message)
    assert (kind, message) == _outcome(reference_db, statement), statement
    # The failed statement changed nothing on either tier.
    query = "SELECT * FROM e ORDER BY id"
    assert compiled_db.execute(query).rows == reference_db.execute(query).rows
    assert len(compiled_db.execute(query).rows) == 3


@pytest.mark.parametrize(
    "statement", [c[1] for c in _UNTAKEN_BRANCH_CASES], ids=[c[0] for c in _UNTAKEN_BRANCH_CASES]
)
def test_malformed_case_branch_never_taken_is_not_an_error(statement):
    compiled_db, reference_db = _error_pair(populated=True)
    outcome = _outcome(compiled_db, statement)
    assert outcome == _outcome(reference_db, statement), statement
    rows, _rowcount = outcome
    assert isinstance(rows, list) and rows, (statement, outcome)


@pytest.mark.parametrize(
    "statement",
    [c[1] for c in _ERROR_CASES if not c[0].startswith("insert_values")],
    ids=[c[0] for c in _ERROR_CASES if not c[0].startswith("insert_values")],
)
def test_malformed_statement_over_zero_rows_is_not_an_error(statement):
    """Nothing is resolved ahead of evaluation, so no rows means no error —
    on both tiers (INSERT VALUES always evaluates its one row)."""
    compiled_db, reference_db = _error_pair(populated=False)
    outcome = _outcome(compiled_db, statement)
    assert outcome == _outcome(reference_db, statement), statement
    assert outcome in (([], -1), ([], 0)), (statement, outcome)


def test_qualified_and_bare_names_agree_across_select_update_delete():
    """``t.x`` and ``x`` resolve identically in SELECT, UPDATE and DELETE —
    bitmap and per-row predicates, compiled and reference tiers."""
    outcomes = set()
    for make in (Database, reference_database):
        for predicate in ("{x} > 2", "abs({x}) > 2"):  # vectorizable / per-row
            for reference in ("x", "t.x"):
                where = predicate.format(x=reference)
                db = make(num_segments=3)
                db.execute("CREATE TABLE t (x integer, y double precision) DISTRIBUTED BY (x)")
                db.load_rows("t", [(i, float(i)) for i in range(6)])
                selected = db.execute(f"SELECT x FROM t WHERE {where} ORDER BY x").rows
                updated = db.execute(f"UPDATE t SET y = y + t.x WHERE {where}").rowcount
                after_update = db.execute("SELECT * FROM t ORDER BY x").rows
                deleted = db.execute(f"DELETE FROM t WHERE {where}").rowcount
                after_delete = db.execute("SELECT * FROM t ORDER BY x").rows
                assert selected == [(3,), (4,), (5,)]
                assert updated == deleted == 3
                outcomes.add((tuple(after_update), tuple(after_delete)))
    assert len(outcomes) == 1
    after_update, after_delete = outcomes.pop()
    assert after_update[3:] == ((3, 6.0), (4, 8.0), (5, 10.0))
    assert after_delete == ((0, 0.0), (1, 1.0), (2, 2.0))


def test_segmented_linregr_parity():
    from repro.datasets import make_regression, load_regression_table
    from repro.methods import linear_regression

    results = []
    for make in (Database, reference_database):
        db = make(num_segments=6)
        data = make_regression(500, 8, noise=0.3, seed=23)
        load_regression_table(db, "data", data)
        results.append(linear_regression.train(db, "data"))
    fast, slow = results
    np.testing.assert_allclose(fast.coef, slow.coef, rtol=1e-8)
    np.testing.assert_allclose(fast.std_err, slow.std_err, rtol=1e-6)
    assert fast.num_rows == slow.num_rows
    assert fast.r2 == pytest.approx(slow.r2, rel=1e-8)
