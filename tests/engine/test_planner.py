"""Cost-based planner subsystem: ANALYZE statistics, access paths, EXPLAIN.

The core guarantee mirrors the join and compiled-execution suites: a query
returns **byte-identical rows** whether the planner rewrites its WHERE into
an index probe or the engine scans every segment row (the same data loaded
with no ``CREATE INDEX`` — an oracle that shares no index-maintenance code
with the subject), across random, NULL-heavy and empty tables, under every
supported predicate shape.
"""

from __future__ import annotations

import random

import pytest

from repro import Database
from repro.engine.parser import parse_statement
from repro.engine.parser.ast_nodes import (
    AnalyzeStatement,
    CreateIndexStatement,
    DropIndexStatement,
    ExplainStatement,
    SelectStatement,
)
from repro.engine.planner import collect_table_statistics
from reference_tier import reference_database


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class TestParsing:
    def test_create_index_default_sorted(self):
        statement = parse_statement("CREATE INDEX i ON t (k)")
        assert isinstance(statement, CreateIndexStatement)
        assert (statement.name, statement.table, statement.column) == ("i", "t", "k")
        assert statement.method == "sorted"

    def test_create_index_using_hash(self):
        statement = parse_statement("CREATE INDEX IF NOT EXISTS i ON t USING hash (k)")
        assert statement.method == "hash"
        assert statement.if_not_exists

    def test_drop_index(self):
        statement = parse_statement("DROP INDEX IF EXISTS a, b")
        assert isinstance(statement, DropIndexStatement)
        assert statement.names == ["a", "b"] and statement.if_exists

    def test_analyze(self):
        assert parse_statement("ANALYZE").table is None
        assert parse_statement("ANALYZE t;").table == "t"
        assert isinstance(parse_statement("ANALYZE"), AnalyzeStatement)

    def test_explain(self):
        statement = parse_statement("EXPLAIN SELECT 1")
        assert isinstance(statement, ExplainStatement) and not statement.analyze
        assert isinstance(statement.target, SelectStatement)
        statement = parse_statement("EXPLAIN ANALYZE DELETE FROM t WHERE k = 1")
        assert statement.analyze


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def _stats_db(rows=1000) -> Database:
    db = Database(num_segments=4)
    db.execute("CREATE TABLE s (id integer, grp integer, v double precision, label text)")
    db.load_rows(
        "s",
        [
            (i, i % 20, float(i) if i % 10 else None, f"l{i % 5}")
            for i in range(rows)
        ],
    )
    return db


class TestStatistics:
    def test_analyze_collects_per_column_stats(self):
        db = _stats_db()
        assert db.execute("ANALYZE s").rowcount == 1
        statistics = db.catalog.get_statistics("s")
        assert statistics.row_count == 1000
        ident = statistics.column("id")
        assert ident.null_frac == 0.0
        assert (ident.min_value, ident.max_value) == (0, 999)
        # FM estimate on a unique column: right order of magnitude.
        assert 500 <= ident.n_distinct <= 2000
        grp = statistics.column("grp")
        assert 10 <= grp.n_distinct <= 40
        v = statistics.column("v")
        assert abs(v.null_frac - 0.1) < 0.01
        assert ident.histogram is not None and ident.histogram[0] == 0
        label = statistics.column("label")
        assert label.kind == "str"

    def test_distinct_estimate_is_the_row_at_a_time_fold(self):
        """ANALYZE routes its sample through the FM sketch's batch add; the
        estimate (hence every statistics snapshot and EXPLAIN) is the one the
        value-by-value transition fold gives."""
        from repro.engine.planner import FM_NUM_MAPS, _estimate_distinct
        from repro.methods.sketches.fm import FMSketchKernel

        samples = [
            list(range(4096)),
            [i % 20 for i in range(1000)],
            [f"l{i % 5}" for i in range(300)],
            [1, 1.0, True, "1", 2.5, 2.5, -0.0, 0.0],
            [float(i) / 7 for i in range(50)],
        ]
        kernel = FMSketchKernel(num_maps=FM_NUM_MAPS)
        for sample in samples:
            state = None
            for value in sample:
                state = kernel.transition(state, value)
            for population in (len(sample), 10 * len(sample)):
                estimate = min(float(state.estimate()), float(len(sample)))
                if population > len(sample) and estimate >= 0.75 * len(sample):
                    estimate *= population / len(sample)
                expected = max(1.0, min(estimate, float(population)))
                assert _estimate_distinct(sample, population) == expected
        db = _stats_db()
        db.execute("ANALYZE s")
        # The snapshot the one-value-at-a-time fold produced before the change.
        assert [(row["columnname"], row["n_distinct"]) for row in db.catalog.statistics("s")] == [
            ("grp", 19.807956576097503),
            ("id", 1000.0),
            ("label", 5.400182453632991),
            ("v", 822.0077307101702),
        ]

    def test_staleness_tracking(self):
        db = _stats_db()
        db.execute("ANALYZE s")
        assert not db.catalog.get_statistics("s").is_stale(db.table("s"))
        db.execute("INSERT INTO s VALUES (5000, 1, 1.0, 'x')")
        assert db.catalog.get_statistics("s").is_stale(db.table("s"))
        listing = db.catalog.statistics("s")
        assert listing and all(row["stale"] for row in listing)
        db.execute("ANALYZE s")
        assert not any(row["stale"] for row in db.catalog.statistics("s"))

    def test_statistics_listing_shape(self):
        db = _stats_db()
        db.analyze("s")  # programmatic analog of ANALYZE s
        rows = db.catalog.statistics()
        assert {row["columnname"] for row in rows} == {"id", "grp", "v", "label"}
        assert all(row["tablename"] == "s" for row in rows)
        assert all(row["row_count"] == 1000 for row in rows)

    def test_empty_table_statistics(self):
        db = Database()
        db.execute("CREATE TABLE e (a integer)")
        statistics = collect_table_statistics(db.table("e"))
        assert statistics.row_count == 0
        assert statistics.column("a").n_distinct == 0.0

    def test_analyze_all_tables(self):
        db = _stats_db()
        db.execute("CREATE TABLE other (x integer)")
        assert db.execute("ANALYZE").rowcount == 2
        assert db.catalog.get_statistics("other") is not None


# ---------------------------------------------------------------------------
# Access-path selection and scan accounting
# ---------------------------------------------------------------------------


def _indexed_db(rows=2000, *, analyze=True, indexes=True, **kwargs) -> Database:
    db = Database(num_segments=4, **kwargs)
    db.execute("CREATE TABLE t (id integer, k integer, v double precision, label text)")
    db.load_rows(
        "t",
        [(i, i % 100, float(i % 7), f"l{i % 4}" if i % 9 else None) for i in range(rows)],
    )
    if indexes:
        db.execute("CREATE INDEX t_id ON t (id)")
        db.execute("CREATE INDEX t_k ON t USING hash (k)")
        db.execute("CREATE INDEX t_label ON t (label)")
    if analyze:
        db.execute("ANALYZE t")
    return db


class TestAccessPaths:
    def test_point_lookup_uses_index_and_counts_touched_rows(self):
        db = _indexed_db()
        result = db.execute("SELECT * FROM t WHERE id = 42")
        assert len(result.rows) == 1
        detail = db.last_stats.scan_details[0]
        assert detail.access == "index" and detail.index_name == "t_id"
        # Honest accounting: the probe touched 1 row, matched 1.
        assert db.last_stats.rows_scanned == 1
        assert db.last_stats.rows_matched == 1

    def test_seq_scan_touches_all_matches_few(self):
        db = _indexed_db(indexes=False)
        db.execute("SELECT * FROM t WHERE id = 42")
        assert db.last_stats.rows_scanned == 2000
        assert db.last_stats.rows_matched == 1
        assert db.last_stats.scan_details[0].access == "seq"

    def test_hash_index_preferred_for_equality(self):
        db = _indexed_db()
        db.execute("SELECT count(*) FROM t WHERE k = 7")
        assert db.last_stats.scan_details[0].index_name == "t_k"

    def test_range_probe_with_residual(self):
        db = _indexed_db()
        result = db.execute("SELECT id FROM t WHERE id >= 100 AND id < 140 AND v > 2.0")
        detail = db.last_stats.scan_details[0]
        assert detail.access == "index" and detail.index_name == "t_id"
        assert db.last_stats.rows_scanned == 40  # probe results
        assert db.last_stats.rows_matched == len(result.rows) < 40

    def test_wide_range_prefers_seq_scan(self):
        db = _indexed_db()
        db.execute("SELECT count(*) FROM t WHERE id >= 10")  # ~100% selectivity
        assert db.last_stats.scan_details[0].access == "seq"

    def test_unindexable_where_stays_seq(self):
        db = _indexed_db()
        db.execute("SELECT count(*) FROM t WHERE v = 3.0")  # no index on v
        assert db.last_stats.scan_details[0].access == "seq"
        db.execute("SELECT count(*) FROM t WHERE id = 5 OR k = 3")  # OR: no conjunct
        assert db.last_stats.scan_details[0].access == "seq"

    def test_volatile_function_disables_index_path(self):
        db = _indexed_db()
        db.execute("SELECT count(*) FROM t WHERE id = 5 AND random() >= 0.0")
        assert db.last_stats.scan_details[0].access == "seq"

    def test_parameter_probe_value(self):
        db = _indexed_db()
        result = db.execute("SELECT id FROM t WHERE id = %(target)s", {"target": 77})
        assert result.rows == [(77,)]
        assert db.last_stats.scan_details[0].access == "index"

    def test_null_equality_probes_nothing(self):
        db = _indexed_db()
        result = db.execute("SELECT id FROM t WHERE id = NULL")
        assert result.rows == []
        assert db.last_stats.rows_scanned == 0
        assert db.last_stats.scan_details[0].access == "index"


# ---------------------------------------------------------------------------
# Parity corpus: indexed vs the same data with no CREATE INDEX, byte-identical
# ---------------------------------------------------------------------------


def _random_rows(rng, count, null_fraction):
    rows = []
    for i in range(count):
        ident = i
        k = rng.randrange(0, 25) if rng.random() > null_fraction else None
        v = round(rng.uniform(-5, 5), 3) if rng.random() > null_fraction else None
        label = rng.choice(["a", "b", "c", "d"]) if rng.random() > null_fraction else None
        rows.append((ident, k, v, label))
    return rows


def _paired_dbs(rows):
    pair = []
    for indexes in (True, False):
        db = Database(num_segments=3)
        db.execute(
            "CREATE TABLE p (id integer, k integer, v double precision, label text) "
            "DISTRIBUTED BY (id)"
        )
        db.load_rows("p", rows)
        if indexes:
            db.execute("CREATE INDEX p_id ON p (id)")
            db.execute("CREATE INDEX p_k ON p USING hash (k)")
            db.execute("CREATE INDEX p_label ON p (label)")
            db.execute("CREATE INDEX p_v ON p (v)")
        db.execute("ANALYZE p")
        pair.append(db)
    return pair


_PARITY_QUERIES = [
    "SELECT * FROM p WHERE id = 17",
    "SELECT * FROM p WHERE id = -1",
    "SELECT * FROM p WHERE k = 3",
    "SELECT * FROM p WHERE k = 3 AND v > 0",
    "SELECT * FROM p WHERE label = 'b' ORDER BY id",
    "SELECT * FROM p WHERE label = 'b' AND k = 2",
    "SELECT id, v FROM p WHERE id >= 5 AND id < 25",
    "SELECT id FROM p WHERE id BETWEEN 10 AND 30 ORDER BY id DESC",
    "SELECT * FROM p WHERE v >= 4.0",
    "SELECT * FROM p WHERE v > 4.5 AND v <= 5.0",
    "SELECT * FROM p WHERE 12 = id",
    "SELECT * FROM p WHERE id = 3 + 4",
    "SELECT * FROM p WHERE k = NULL",
    "SELECT * FROM p WHERE k IS NULL ORDER BY id",
    "SELECT count(*), sum(v), min(id) FROM p WHERE k = 5",
    "SELECT label, count(*) FROM p WHERE id < 40 GROUP BY label ORDER BY label NULLS LAST",
    "SELECT k, avg(v) FROM p WHERE k = 7 GROUP BY k",
    "SELECT * FROM p WHERE id = 8 OR k = 3 ORDER BY id",
    "SELECT id FROM p WHERE id > 10 AND id < 5",
    "SELECT DISTINCT label FROM p WHERE k = 4 ORDER BY label NULLS LAST",
    "SELECT id FROM p WHERE id >= 90 ORDER BY v NULLS FIRST LIMIT 5",
    "SELECT p.id FROM p WHERE p.id = 33",
    "SELECT upper(label) FROM p WHERE label = 'c' AND id % 2 = 0 ORDER BY id",
]


@pytest.mark.parametrize(
    "shape,count,null_fraction",
    [("random", 120, 0.0), ("null_heavy", 120, 0.5), ("small", 7, 0.2), ("empty", 0, 0.0)],
)
def test_parity_corpus(shape, count, null_fraction):
    rng = random.Random(hash(shape) & 0xFFFF)
    rows = _random_rows(rng, count, null_fraction)
    indexed, scan = _paired_dbs(rows)
    for query in _PARITY_QUERIES:
        left = indexed.execute(query)
        right = scan.execute(query)
        assert left.columns == right.columns, query
        assert left.rows == right.rows, (shape, query)


def test_parity_with_parameters():
    rng = random.Random(3)
    indexed, scan = _paired_dbs(_random_rows(rng, 100, 0.2))
    query = "SELECT * FROM p WHERE id = %(a)s AND v > %(b)s"
    parameters = {"a": 12, "b": -10.0}
    assert indexed.execute(query, parameters).rows == scan.execute(query, parameters).rows


def test_parity_under_dml():
    rng = random.Random(9)
    indexed, scan = _paired_dbs(_random_rows(rng, 100, 0.3))
    steps = [
        "UPDATE p SET v = v + 1 WHERE k = 3",
        "DELETE FROM p WHERE id >= 80",
        "INSERT INTO p VALUES (500, 3, 0.5, 'z')",
        "TRUNCATE p",
        "INSERT INTO p VALUES (1, 1, 1.0, 'a'), (2, NULL, NULL, NULL)",
    ]
    for step in steps:
        indexed.execute(step)
        scan.execute(step)
        for query in _PARITY_QUERIES:
            assert indexed.execute(query).rows == scan.execute(query).rows, (step, query)


# ---------------------------------------------------------------------------
# Cost-driven joins
# ---------------------------------------------------------------------------


class TestJoinCosting:
    def _join_db(self, make=Database):
        db = make(num_segments=4)
        db.execute("CREATE TABLE small (k integer, name text)")
        db.load_rows("small", [(i, f"n{i}") for i in range(10)])
        db.execute("CREATE TABLE big (id integer, k integer)")
        db.load_rows("big", [(i, i % 20) for i in range(2000)])
        return db

    def test_small_left_builds_left(self):
        db = self._join_db()
        query = (
            "SELECT s.k, b.id FROM small s JOIN big b ON s.k = b.k "
            "ORDER BY s.k, b.id LIMIT 50"
        )
        result = db.execute(query)
        assert db.last_stats.join_strategy == "hash_reversed"
        nested = self._join_db(reference_database)
        assert result.rows == nested.execute(query).rows

    def test_reversed_left_join_parity(self):
        db = self._join_db()
        db.execute("INSERT INTO small VALUES (999, 'unmatched')")
        query = "SELECT s.k, s.name, b.id FROM small s LEFT JOIN big b ON s.k = b.k"
        result = db.execute(query)
        assert db.last_stats.join_strategy == "hash_reversed"
        nested = self._join_db(reference_database)
        nested.execute("INSERT INTO small VALUES (999, 'unmatched')")
        assert result.rows == nested.execute(query).rows

    def test_big_build_side_keeps_standard_orientation(self):
        db = self._join_db()
        db.execute("SELECT count(*) FROM big b JOIN small s ON b.k = s.k")
        assert db.last_stats.join_strategy == "hash"

    def test_join_step_estimates_recorded(self):
        db = self._join_db()
        db.execute("ANALYZE")
        db.execute("SELECT count(*) FROM big b JOIN small s ON b.k = s.k")
        steps = db.last_stats.join_steps
        assert len(steps) == 1
        assert steps[0].estimated_rows == 2000.0


# ---------------------------------------------------------------------------
# EXPLAIN / EXPLAIN ANALYZE
# ---------------------------------------------------------------------------


class TestExplain:
    def test_explain_shows_index_scan(self):
        db = _indexed_db()
        text = db.explain("SELECT * FROM t WHERE id = 42")
        assert "Index Scan using t_id on t" in text
        assert "Index Cond: id = 42" in text
        assert "rows=" in text

    def test_explain_does_not_execute(self):
        db = _indexed_db()
        db.explain("DELETE FROM t WHERE id = 1")
        assert db.execute("SELECT count(*) FROM t").scalar() == 2000

    def test_explain_analyze_reports_actuals(self):
        db = _indexed_db()
        text = db.explain("SELECT count(*) FROM t WHERE id >= 100 AND id < 120", analyze=True)
        assert "Index Scan" in text
        assert "actual_rows=20" in text
        assert "Rows matched by WHERE: 20" in text
        assert "Execution time:" in text

    def test_explain_analyze_executes_dml(self):
        db = _indexed_db()
        text = db.explain("DELETE FROM t WHERE id = 5", analyze=True)
        assert "Delete on t" in text
        assert db.execute("SELECT count(*) FROM t WHERE id = 5").scalar() == 0

    def test_explain_analyze_shows_a_probe_that_fell_back(self):
        """The plan predicts the probe; a cross-kind value makes the index
        decline at run time, and ANALYZE says so instead of hiding it."""
        db = _indexed_db()
        plan = db.explain("SELECT v FROM t WHERE id = 'x'")
        assert "Index Scan using t_id on t" in plan
        lines = db.explain("SELECT v FROM t WHERE id = 'x'", analyze=True).splitlines()
        assert lines[0].startswith("Seq Scan on t ")
        assert "  Planned: Index Scan using t_id on t" in lines

    def test_explain_seq_scan_with_filter(self):
        db = _indexed_db()
        text = db.explain("SELECT * FROM t WHERE v = 1.0")
        assert "Seq Scan on t" in text and "Filter: v = 1.0" in text

    def test_explain_join_and_aggregate_nodes(self):
        db = _indexed_db()
        db.execute("CREATE TABLE d (k integer, name text)")
        db.load_rows("d", [(i, f"d{i}") for i in range(100)])
        text = db.explain(
            "SELECT d.name, count(*) FROM t JOIN d ON t.k = d.k "
            "GROUP BY d.name ORDER BY d.name LIMIT 3"
        )
        assert "Hash Join" in text
        assert "HashAggregate" in text
        assert "Sort" in text and "Limit" in text

    def test_explain_analyze_join_strategy_labels(self):
        db = _indexed_db()
        db.execute("CREATE TABLE d (k integer, name text)")
        db.load_rows("d", [(i, f"d{i}") for i in range(100)])
        text = db.explain("SELECT count(*) FROM t JOIN d ON t.k = d.k", analyze=True)
        assert "Hash Join" in text and "actual_rows=" in text

    def test_explain_union_and_subquery(self):
        db = _indexed_db()
        text = db.explain("SELECT id FROM t WHERE id = 1 UNION SELECT id FROM t WHERE id = 2")
        assert "Append" in text
        text = db.explain("SELECT n FROM (SELECT count(*) AS n FROM t) s")
        assert "Subquery Scan on s" in text

    def test_explain_analyze_subquery_annotation_alignment(self):
        """A subquery's inner scans run under their *own* stats object, so
        EXPLAIN ANALYZE must not let the inner plan nodes consume the outer
        statement's scan details (which would shift every later annotation
        onto the wrong node)."""
        db = Database(num_segments=2)
        db.execute("CREATE TABLE x (a integer)")
        db.load_rows("x", [(i % 10,) for i in range(10)])
        text = db.explain(
            "SELECT * FROM (SELECT a FROM x WHERE a > 4) s, x WHERE s.a = x.a",
            analyze=True,
        )
        lines = text.splitlines()
        subquery = next(line for line in lines if "Subquery Scan on s" in line)
        assert "actual_rows=5" in subquery  # the subquery produced 5 rows
        outer_scan = next(
            line for line in lines if "Seq Scan on x" in line and "actual_rows" in line
        )
        assert "actual_rows=10" in outer_scan  # the outer base scan touched 10

    def test_explain_output_is_single_column(self):
        db = _indexed_db()
        result = db.execute("EXPLAIN SELECT * FROM t WHERE id = 1")
        assert result.columns == ["QUERY PLAN"]
        assert all(len(row) == 1 for row in result.rows)
