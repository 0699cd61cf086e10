"""Join-semantics corpus: hash-join vs nested-loop parity across all tiers.

The hash-join execution layer (``repro.engine.join``) must be
observationally identical to the interpreted nested loop — row values, row
order, which queries raise — for every join shape the planner accepts, and
must fall back cleanly for the shapes it does not.  Three databases with
identical contents run the corpus:

* ``hash`` — compiled execution (the default): hash joins where the planner
  can prove them safe, the nested loop elsewhere,
* ``interpreted`` — the reference tier (``tests/reference_tier.py``): every
  join runs the nested loop (the baseline),
* ``parallel`` — the same with a forced worker pool
  (``min_dispatch_rows = 0``) attached: joins run in-process either way (the
  pool folds ungrouped aggregates only), so attaching it changes nothing.

The baseline is itself checked against SQLite loaded with the same rows —
an oracle that shares no code with the engine.
"""

from __future__ import annotations

import re
import sqlite3

import pytest

from repro import Database
from repro.engine.join import split_conjuncts, conjoin
from repro.engine.parser import parse_statement
from repro.errors import ExecutionError
from reference_tier import reference_database

from test_compiled_parity import _assert_results_equal


def _join_tables():
    """``(name, columns, rows, distributed_by)`` for every corpus table."""
    emp = []
    for i in range(1, 41):
        dept = None if i % 13 == 0 else i % 5  # NULL join keys included
        salary = None if i % 11 == 0 else 1000.0 + 10 * i
        emp.append((i, dept, f"emp_{i}", salary))
    # dept 4 missing (unmatched emps), dept 7 unmatched on the other side,
    # dept 2 duplicated (multiplicity), one NULL key.
    dept = [
        (0, "eng", 100.0),
        (1, "ops", 200.0),
        (2, "sales", 300.0),
        (2, "sales_emea", 310.0),
        (3, "hr", None),
        (7, "empty", 50.0),
        (None, "lost", 10.0),
    ]
    # Viterbi-shaped trio: factors × paths × transitions.
    labels = 6
    return [
        (
            "emp",
            [
                ("id", "integer"),
                ("dept_id", "integer"),
                ("name", "text"),
                ("salary", "double precision"),
            ],
            emp,
            "id",
        ),
        (
            "dept",
            [("dept_id", "integer"), ("dept_name", "text"), ("budget", "double precision")],
            dept,
            "dept_id",
        ),
        (
            "factors",
            [("position", "integer"), ("label", "integer"), ("emission", "double precision")],
            [(p, l, float(p + l) / 7.0) for p in range(3) for l in range(labels)],
            None,
        ),
        (
            "paths",
            [("position", "integer"), ("label", "integer"), ("score", "double precision")],
            [(0, l, float(l) * 0.3) for l in range(labels)],
            None,
        ),
        (
            "transitions",
            [("prev_label", "integer"), ("label", "integer"), ("weight", "double precision")],
            [(a, b, float(a * labels + b) / 11.0) for a in range(labels) for b in range(labels)],
            None,
        ),
    ]


def _load_join_tables(db: Database) -> Database:
    for name, columns, rows, distributed_by in _join_tables():
        db.create_table(name, columns, distributed_by=distributed_by)
        db.load_rows(name, rows)
    # A WHERE pushed into the emp side of a join can take an index probe.
    db.execute("CREATE INDEX emp_id ON emp (id)")
    return db


def _make_db(make=Database, **kwargs) -> Database:
    return _load_join_tables(make(num_segments=4, **kwargs))


def _make_sqlite() -> sqlite3.Connection:
    """The corpus tables in SQLite: an oracle that shares no code with the engine."""
    connection = sqlite3.connect(":memory:")
    for name, columns, rows, _ in _join_tables():
        names = [column for column, _ in columns]
        connection.execute(f"CREATE TABLE {name} ({', '.join(names)})")
        placeholders = ", ".join("?" * len(names))
        connection.executemany(f"INSERT INTO {name} VALUES ({placeholders})", rows)
    return connection


@pytest.fixture(scope="module")
def tiers():
    hash_db = _make_db()
    interpreted_db = _make_db(reference_database)
    parallel_db = _make_db(parallel=2)
    parallel_db.worker_pool.min_dispatch_rows = 0
    yield {
        "hash": hash_db,
        "interpreted": interpreted_db,
        "parallel": parallel_db,
    }
    parallel_db.close()


@pytest.fixture(scope="module")
def oracle():
    connection = _make_sqlite()
    yield connection
    connection.close()


CORPUS = [
    # Plain inner equi-joins, qualified references.
    "SELECT e.id, d.dept_name FROM emp e JOIN dept d ON e.dept_id = d.dept_id ORDER BY e.id, d.dept_name",
    # No ORDER BY: raw emission order must match the nested loop exactly.
    "SELECT e.id, d.dept_name FROM emp e JOIN dept d ON e.dept_id = d.dept_id",
    "SELECT count(*) FROM emp e JOIN dept d ON e.dept_id = d.dept_id",
    # Left join: NULL extension, including NULL-key emp rows.
    "SELECT e.id, d.dept_name FROM emp e LEFT JOIN dept d ON e.dept_id = d.dept_id",
    "SELECT count(*) FROM emp e LEFT JOIN dept d ON e.dept_id = d.dept_id",
    # Single-side conjuncts in ON (pushdown for inner, build-side-only for left).
    "SELECT e.id, d.dept_name FROM emp e JOIN dept d ON e.dept_id = d.dept_id AND e.salary > 1100 AND d.budget > 150",
    "SELECT e.id, d.dept_name FROM emp e LEFT JOIN dept d ON e.dept_id = d.dept_id AND d.budget > 150",
    "SELECT e.id, d.dept_name FROM emp e LEFT JOIN dept d ON e.dept_id = d.dept_id AND e.salary > 1100",
    # Residual cross-side predicate next to the equi key.
    "SELECT e.id, d.dept_name FROM emp e JOIN dept d ON e.dept_id = d.dept_id AND e.salary > d.budget * 4",
    "SELECT e.id, d.dept_name FROM emp e LEFT JOIN dept d ON e.dept_id = d.dept_id AND e.salary > d.budget * 4",
    # Expression keys.
    "SELECT e.id, d.dept_name FROM emp e JOIN dept d ON e.id % 5 = d.dept_id",
    "SELECT a.id, b.id FROM emp a JOIN emp b ON a.id = b.id - 1 WHERE a.id < 6 ORDER BY a.id",
    # Non-equi condition: nested-loop fallback on every tier.
    "SELECT count(*) FROM emp e JOIN dept d ON e.dept_id < d.dept_id",
    "SELECT e.id, d.dept_id FROM emp e LEFT JOIN dept d ON e.dept_id < d.dept_id AND e.id < 4",
    # Cross joins.
    "SELECT count(*) FROM emp CROSS JOIN dept",
    "SELECT count(*) FROM emp, dept",
    # Implicit multi-FROM + WHERE: pushdown must match product-then-filter.
    "SELECT e.id, d.dept_name FROM emp e, dept d WHERE e.dept_id = d.dept_id",
    "SELECT e.id, d.dept_name FROM emp e, dept d WHERE e.dept_id = d.dept_id AND e.salary > 1100 AND d.budget > 150",
    "SELECT e.id, d.dept_name FROM emp e, dept d WHERE e.dept_id = d.dept_id AND e.salary > d.budget * 4",
    # ... including one with no equality at all (prefilters only).
    "SELECT count(*) FROM emp e, dept d WHERE e.salary > 1200 AND d.budget > 100",
    # ... and aggregation over the join.
    "SELECT d.dept_name, count(*), avg(e.salary) FROM emp e, dept d "
    "WHERE e.dept_id = d.dept_id GROUP BY d.dept_name ORDER BY d.dept_name",
    # The Viterbi DP-step shape: three-way join, two equality edges, GROUP BY.
    "SELECT f.position, f.label, max(p.score + t.weight + f.emission) "
    "FROM factors f, paths p, transitions t "
    "WHERE f.position = 1 AND p.position = 0 "
    "AND t.prev_label = p.label AND t.label = f.label "
    "GROUP BY f.position, f.label ORDER BY f.label",
    # Same shape without aggregation (raw emission order).
    "SELECT f.label, p.label, t.weight FROM factors f, paths p, transitions t "
    "WHERE f.position = 1 AND p.position = 0 "
    "AND t.prev_label = p.label AND t.label = f.label",
    # ORDER BY + LIMIT over a join (the top-k short-circuit).
    "SELECT e.id, e.salary FROM emp e JOIN dept d ON e.dept_id = d.dept_id "
    "ORDER BY e.salary DESC LIMIT 3",
    "SELECT e.id, e.salary FROM emp e ORDER BY e.salary DESC NULLS LAST LIMIT 1",
    "SELECT e.id, e.salary FROM emp e ORDER BY e.salary ASC NULLS FIRST, e.id DESC LIMIT 5",
    "SELECT e.id FROM emp e ORDER BY e.dept_id, e.salary DESC LIMIT 4 OFFSET 2",
    # Joins against subqueries and table functions.
    "SELECT s.dept_id, d.dept_name FROM (SELECT dept_id, count(*) AS n FROM emp GROUP BY dept_id) s "
    "JOIN dept d ON s.dept_id = d.dept_id ORDER BY s.dept_id, d.dept_name",
    "SELECT g.i, e.name FROM generate_series(1, 5) g(i) JOIN emp e ON g.i = e.id ORDER BY g.i",
    # Bare (unambiguous) column names across sides.
    "SELECT name, dept_name FROM emp JOIN dept ON emp.dept_id = dept.dept_id ORDER BY name, dept_name",
    # WHERE over explicit joins: conjuncts on each side of an inner join are
    # pushed into that side's scan ...
    "SELECT e.id, d.dept_name FROM emp e JOIN dept d ON e.dept_id = d.dept_id "
    "WHERE e.salary > 1100 AND d.budget > 150",
    # ... of a LEFT JOIN only into the preserved side ...
    "SELECT e.id, d.dept_name FROM emp e LEFT JOIN dept d ON e.dept_id = d.dept_id "
    "WHERE e.salary > 1200",
    # ... while a conjunct on the NULL-extended side stays above the join.
    "SELECT e.id FROM emp e LEFT JOIN dept d ON e.dept_id = d.dept_id WHERE d.dept_name IS NULL",
    # Nested joins: each conjunct reaches the scan it reads, through inner
    # joins and the preserved side of a LEFT JOIN.
    "SELECT a.id, b.id, d.dept_name FROM emp a JOIN emp b ON a.id = b.id - 1 "
    "JOIN dept d ON b.dept_id = d.dept_id WHERE a.salary > 1100 AND d.budget < 300 AND b.id < 30",
    "SELECT e.id, d.dept_name, m.id FROM emp e LEFT JOIN dept d ON e.dept_id = d.dept_id "
    "JOIN emp m ON m.id = e.id + 1 WHERE e.id < 14 AND d.budget IS NULL",
    # A volatile function anywhere in the WHERE pushes nothing.
    "SELECT e.id, d.dept_name FROM emp e JOIN dept d ON e.dept_id = d.dept_id "
    "WHERE random() >= 0.0 AND e.salary > 1100",
    # The pushed side takes an index probe (point and range).
    "SELECT e.id, e.name, d.dept_name FROM emp e JOIN dept d ON e.dept_id = d.dept_id WHERE e.id = 7",
    "SELECT e.id, d.dept_name FROM emp e LEFT JOIN dept d ON e.dept_id = d.dept_id "
    "WHERE e.id BETWEEN 3 AND 9 AND e.salary > 1000",
    "SELECT e.id, d.dept_name FROM emp e, dept d WHERE e.dept_id = d.dept_id AND e.id < 8",
]


# SQLite sorts NULLs first under ASC; the engine sorts them last.  Where a
# corpus query relies on that default, or on a table function SQLite lacks,
# the oracle runs this spelling of it instead.
SQLITE_SPELLING = {
    "SELECT e.id FROM emp e ORDER BY e.dept_id, e.salary DESC LIMIT 4 OFFSET 2": (
        "SELECT e.id FROM emp e ORDER BY e.dept_id NULLS LAST, e.salary DESC LIMIT 4 OFFSET 2"
    ),
    "SELECT g.i, e.name FROM generate_series(1, 5) g(i) JOIN emp e ON g.i = e.id ORDER BY g.i": (
        "WITH RECURSIVE g(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM g WHERE i < 5) "
        "SELECT g.i, e.name FROM g JOIN emp e ON g.i = e.id ORDER BY g.i"
    ),
    # SQLite's random() is a signed 64-bit integer; the engine's is in [0, 1).
    "SELECT e.id, d.dept_name FROM emp e JOIN dept d ON e.dept_id = d.dept_id "
    "WHERE random() >= 0.0 AND e.salary > 1100": (
        "SELECT e.id, d.dept_name FROM emp e JOIN dept d ON e.dept_id = d.dept_id "
        "WHERE random() IS NOT NULL AND e.salary > 1100"
    ),
}


def _null_safe_key(row):
    return tuple((value is None, 0 if value is None else value) for value in row)


def _assert_matches_sqlite(result, oracle: sqlite3.Connection, query: str) -> None:
    """Same rows as SQLite; same order too, wherever the query fixes one."""
    expected = oracle.execute(SQLITE_SPELLING.get(query, query)).fetchall()
    actual = [tuple(row) for row in result.rows]
    if "ORDER BY" not in query:
        expected = sorted(expected, key=_null_safe_key)
        actual = sorted(actual, key=_null_safe_key)
    assert actual == expected, query


@pytest.mark.parametrize("query", CORPUS)
@pytest.mark.parametrize("tier", ["hash", "interpreted", "parallel"])
def test_join_parity_vs_nested_loop(tiers, oracle, tier, query):
    """The compiled tiers must be byte-identical to the reference tier's
    nested loop; the reference tier itself must agree with SQLite."""
    if tier == "interpreted":
        _assert_matches_sqlite(tiers[tier].execute(query), oracle, query)
        return
    _assert_results_equal(
        tiers[tier].execute(query), tiers["interpreted"].execute(query), query
    )


class TestStrategySelection:
    def test_equi_join_uses_hash(self, tiers):
        db = tiers["hash"]
        db.execute("SELECT count(*) FROM emp e JOIN dept d ON e.dept_id = d.dept_id")
        assert db.last_stats.join_strategy == "hash"
        assert db.last_stats.join_rows_emitted > 0

    def test_non_equi_falls_back_to_nested_loop(self, tiers):
        db = tiers["hash"]
        db.execute("SELECT count(*) FROM emp e JOIN dept d ON e.dept_id < d.dept_id")
        assert db.last_stats.join_strategy == "nested_loop"

    def test_cross_join_strategy(self, tiers):
        db = tiers["hash"]
        db.execute("SELECT count(*) FROM emp CROSS JOIN dept")
        assert db.last_stats.join_strategy == "cross"

    def test_multi_from_pushdown_strategy(self, tiers):
        db = tiers["hash"]
        db.execute(
            "SELECT count(*) FROM factors f, paths p, transitions t "
            "WHERE f.position = 1 AND p.position = 0 "
            "AND t.prev_label = p.label AND t.label = f.label"
        )
        # Step 1 (factors × paths) has no usable edge → cross; step 2 joins
        # transitions on both accumulated keys → hash.
        assert db.last_stats.join_strategy == "cross,hash"

    def test_reference_tier_runs_the_nested_loop(self, tiers):
        db = tiers["interpreted"]
        db.execute("SELECT count(*) FROM emp e JOIN dept d ON e.dept_id = d.dept_id")
        assert db.last_stats.join_strategy == "nested_loop"

    def test_volatile_function_disables_pushdown(self, tiers):
        db = tiers["hash"]
        db.execute(
            "SELECT count(*) FROM emp e JOIN dept d "
            "ON e.dept_id = d.dept_id AND random() >= 0.0"
        )
        assert db.last_stats.join_strategy == "nested_loop"


class TestWherePushdown:
    JOIN = "SELECT e.id, e.name, d.dept_name FROM emp e JOIN dept d ON e.dept_id = d.dept_id"

    def test_point_conjunct_probes_the_index_before_the_join(self, tiers):
        result = tiers["hash"].execute(self.JOIN + " WHERE e.id = 7")
        assert result.rows == [(7, "emp_7", "sales"), (7, "emp_7", "sales_emea")]
        assert result.stats.scan_details[0].access == "index"
        assert result.stats.scan_details[0].rows_touched == 1
        assert result.stats.join_rows_emitted == 2

    def test_plain_explain_shows_the_pushed_side(self, tiers):
        plan = tiers["hash"].explain(self.JOIN + " WHERE e.id = 7 AND d.budget > 100")
        assert "-> Index Scan using emp_id on emp e" in plan
        assert "Index Cond: e.id = 7" in plan
        assert "Filter: d.budget > 100" in plan  # on the dept scan
        assert plan.count("Filter:") == 1  # nothing is left above the join

    def test_null_extended_side_keeps_its_conjunct_above_the_join(self, tiers):
        query = (
            "SELECT e.id FROM emp e LEFT JOIN dept d ON e.dept_id = d.dept_id "
            "WHERE d.dept_name IS NULL AND e.salary > 1100"
        )
        lines = tiers["hash"].explain(query).splitlines()
        assert lines[0].startswith("Hash Join (left)")
        assert "  Filter: d.dept_name IS NULL" in lines  # the join's residual
        assert "       Filter: e.salary > 1100" in lines  # the emp scan's
        result = tiers["hash"].execute(query)
        assert result.stats.where_vectorized  # the emp side ran as a bitmap
        assert result.rows == tiers["interpreted"].execute(query).rows

    def test_volatile_where_pushes_nothing(self, tiers):
        db = tiers["hash"]
        unfiltered = db.execute("SELECT count(*) FROM emp e JOIN dept d ON e.dept_id = d.dept_id")
        db.execute(
            "SELECT count(*) FROM emp e JOIN dept d ON e.dept_id = d.dept_id "
            "WHERE random() >= 0.0 AND e.salary > 1100"
        )
        assert not db.last_stats.where_vectorized
        assert db.last_stats.join_rows_emitted == unfiltered.rows[0][0]

    def test_volatile_on_condition_pushes_nothing(self, tiers):
        db = tiers["hash"]
        db.execute(
            "SELECT count(*) FROM emp e JOIN dept d ON e.dept_id = d.dept_id AND random() >= 0.0 "
            "WHERE e.id = 7"
        )
        assert [detail.access for detail in db.last_stats.scan_details] == ["seq", "seq"]

    @pytest.mark.parametrize(
        "query",
        [
            "SELECT e.id, d.dept_name FROM emp e JOIN dept d ON e.dept_id = d.dept_id WHERE e.id < 9",
            "SELECT e.id FROM emp e, dept d WHERE e.dept_id = d.dept_id AND d.budget > 100",
            "SELECT e.id, sum(e.id) OVER (ORDER BY e.id) FROM emp e JOIN dept d "
            "ON e.dept_id = d.dept_id WHERE e.salary > 1100",
            "SELECT e.id FROM emp e WHERE e.salary > 1100",
            "SELECT e.id, e.salary FROM emp e WHERE e.salary > 1100 ORDER BY e.salary LIMIT 3",
        ],
    )
    def test_results_are_plain_lists(self, tiers, query):
        """Lazy row views never escape the statement that built them."""
        assert type(tiers["hash"].execute(query).rows) is list


def _scan_labels(plan: str):
    return re.findall(r"(\w+ Scan)\b", plan)


@pytest.mark.parametrize("query", CORPUS)
def test_explain_access_labels_match_execution(tiers, query):
    """Plain EXPLAIN predicts each scan's access path; EXPLAIN ANALYZE labels
    a scan node by the access that ran, so the two must agree."""
    db = tiers["hash"]
    planned = _scan_labels(db.explain(query))
    assert planned and planned == _scan_labels(db.explain(query, analyze=True)), query
    assert "Planned:" not in db.explain(query, analyze=True)


class TestScanAccounting:
    def test_single_table_scan_unchanged(self, tiers):
        db = tiers["hash"]
        db.execute("SELECT count(*) FROM emp")
        assert db.last_stats.rows_scanned == 40
        assert db.last_stats.rows_scanned_per_source == [40]

    def test_join_counts_base_rows_not_product(self, tiers):
        for tier in ("hash", "interpreted"):
            db = tiers[tier]
            db.execute("SELECT count(*) FROM emp CROSS JOIN dept")
            assert db.last_stats.rows_scanned == 47, tier  # 40 + 7, not 280
            assert db.last_stats.rows_scanned_per_source == [40, 7], tier

    def test_three_way_join_sources(self, tiers):
        db = tiers["hash"]
        db.execute(
            "SELECT count(*) FROM factors f, paths p, transitions t "
            "WHERE f.position = 1 AND p.position = 0 "
            "AND t.prev_label = p.label AND t.label = f.label"
        )
        assert db.last_stats.rows_scanned_per_source == [18, 6, 36]
        assert db.last_stats.rows_scanned == 60


class TestErrorParity:
    @pytest.mark.parametrize(
        "query",
        [
            # Ambiguous bare column across sides.
            "SELECT 1 FROM emp a, emp b WHERE id = 3",
            # Unknown column in a join condition.
            "SELECT 1 FROM emp e JOIN dept d ON e.nope = d.dept_id",
        ],
    )
    def test_errors_raise_on_every_tier(self, tiers, query):
        for tier in ("hash", "interpreted", "parallel"):
            with pytest.raises(ExecutionError):
                tiers[tier].execute(query)


class TestConjunctHelpers:
    def test_split_and_conjoin_roundtrip(self):
        statement = parse_statement(
            "SELECT 1 FROM emp WHERE id > 1 AND salary > 2 AND (name = 'x' OR id = 5)"
        )
        conjuncts = split_conjuncts(statement.where)
        assert len(conjuncts) == 3
        rebuilt = conjoin(conjuncts)
        assert split_conjuncts(rebuilt) == conjuncts
        assert conjoin([]) is None


class TestDMLCompiledPath:
    @pytest.fixture()
    def dml_pair(self):
        pair = []
        for make in (Database, reference_database):
            db = make(num_segments=4)
            db.create_table(
                "u", [("id", "integer"), ("v", "double precision")], distributed_by="id"
            )
            db.load_rows("u", [(i, None if i % 7 == 0 else float(i)) for i in range(1, 31)])
            pair.append(db)
        return pair

    def test_update_parity(self, dml_pair):
        counts = [
            db.execute("UPDATE u SET v = v * 2 WHERE v > 10 AND id < 25").rowcount
            for db in dml_pair
        ]
        assert counts[0] == counts[1] > 0
        rows = [db.execute("SELECT id, v FROM u ORDER BY id").rows for db in dml_pair]
        assert rows[0] == rows[1]

    def test_update_rowcount_and_stats(self, dml_pair):
        db = dml_pair[0]
        result = db.execute("UPDATE u SET v = 0.0 WHERE id <= 3")
        assert result.rowcount == 3
        assert result.stats.rows_scanned == 30

    def test_delete_parity(self, dml_pair):
        counts = []
        for db in dml_pair:
            result = db.execute("DELETE FROM u WHERE v IS NULL OR v < 5")
            counts.append(result.rowcount)
        assert counts[0] == counts[1] > 0
        rows = [db.execute("SELECT id FROM u ORDER BY id").rows for db in dml_pair]
        assert rows[0] == rows[1]

    def test_delete_preserves_segment_placement(self, dml_pair):
        db = dml_pair[0]
        table = db.table("u")
        before = table.segment_sizes()
        db.execute("DELETE FROM u WHERE id % 2 = 0")
        after = table.segment_sizes()
        assert sum(before) - sum(after) == 15
        assert all(a <= b for a, b in zip(after, before))


class TestTopKShortCircuit:
    def test_limit_matches_full_sort(self, tiers):
        full = tiers["hash"].execute(
            "SELECT id, salary FROM emp ORDER BY salary DESC NULLS LAST, id"
        ).rows
        for k in (1, 3, 10):
            top = tiers["hash"].execute(
                f"SELECT id, salary FROM emp ORDER BY salary DESC NULLS LAST, id LIMIT {k}"
            ).rows
            assert top == full[:k]

    def test_distinct_not_short_circuited(self, tiers):
        rows = tiers["hash"].execute(
            "SELECT DISTINCT dept_id FROM emp ORDER BY dept_id NULLS LAST LIMIT 2"
        ).rows
        assert rows == [(0,), (1,)]

    def test_grouped_top_k(self, tiers):
        query = (
            "SELECT dept_id, count(*) AS n FROM emp GROUP BY dept_id "
            "ORDER BY n DESC, dept_id NULLS LAST LIMIT 2"
        )
        assert tiers["hash"].execute(query).rows == tiers["interpreted"].execute(query).rows

    def test_nan_keys_fall_back_to_full_sort(self):
        """NaN sort keys must not change LIMIT results vs the unlimited sort."""
        db = Database(num_segments=1)
        db.create_table("nn", [("id", "integer"), ("v", "double precision")])
        db.load_rows("nn", [(1, float("nan")), (2, 1.0), (3, 2.0), (4, float("nan"))])
        full = db.execute("SELECT id FROM nn ORDER BY v").rows
        for k in (1, 2, 3):
            assert db.execute(f"SELECT id FROM nn ORDER BY v LIMIT {k}").rows == full[:k]
