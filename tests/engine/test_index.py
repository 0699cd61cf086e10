"""Secondary-index structures and their maintenance under DML.

Covers the :mod:`repro.engine.index` machinery directly (probes, NULL
exclusion, remapping, degradation) and the DDL surface (CREATE/DROP INDEX,
catalog registration, cascades), plus maintenance parity: after any DML
sequence, every index must be indistinguishable from one rebuilt from
scratch, and indexed query results must stay byte-identical to the
sequential-scan plans.
"""

from __future__ import annotations

import math

import pytest

from repro import Database
from repro.engine.index import HashIndex, SortedIndex, make_index
from repro.errors import CatalogError


def _entries(index, table):
    """Every entry the index would return, via exhaustive probes."""
    if isinstance(index, SortedIndex):
        return index.probe_range(None, None)
    # Hash index: probe every distinct stored value.
    seen = set()
    out = []
    for value in table.column_values(index.column_name):
        if value is None or (isinstance(value, float) and math.isnan(value)):
            continue
        key = value
        if key in seen:
            continue
        seen.add(key)
        out.extend(index.probe_eq(value))
    return sorted(out)


def _fresh_rebuild(index, table):
    clone = make_index("clone", table.name, index.column_name, index.column_index, index.kind)
    clone.rebuild(table._segments)
    return clone


def assert_index_consistent(db, index_name):
    """The live (incrementally maintained) index equals a scratch rebuild."""
    index = db.catalog.get_index(index_name)
    table = db.table(index.table_name)
    clone = _fresh_rebuild(index, table)
    assert index.usable == clone.usable
    if index.usable:
        assert _entries(index, table) == _entries(clone, table)
        assert index.entry_count() == clone.entry_count()


# ---------------------------------------------------------------------------
# Structure-level behaviour
# ---------------------------------------------------------------------------


class TestHashIndex:
    def test_probe_eq_returns_scan_order(self):
        index = HashIndex("i", "t", "k", 0)
        index.add(5, 1, 0)
        index.add(5, 0, 3)
        index.add(5, 0, 1)
        assert index.probe_eq(5) == [(0, 1), (0, 3), (1, 0)]
        assert index.probe_eq(6) == []

    def test_null_and_nan_keys_excluded(self):
        index = HashIndex("i", "t", "k", 0)
        index.add(None, 0, 0)
        index.add(float("nan"), 0, 1)
        index.add(1, 0, 2)
        assert index.entry_count() == 1
        assert index.probe_eq(None) == []
        assert index.probe_eq(float("nan")) == []

    def test_numeric_cross_type_equality(self):
        # 1 and 1.0 are the same key, like SQL `=` and GROUP BY.
        index = HashIndex("i", "t", "k", 0)
        index.add(1, 0, 0)
        assert index.probe_eq(1.0) == [(0, 0)]

    def test_count_eq(self):
        index = HashIndex("i", "t", "k", 0)
        for position in range(3):
            index.add("x", 0, position)
        assert index.count_eq("x") == 3
        assert index.count_eq("y") == 0
        assert index.count_eq(None) == 0


class TestSortedIndex:
    def test_range_probe_bounds(self):
        index = SortedIndex("i", "t", "k", 0)
        for position, value in enumerate([10, 20, 30, 40]):
            index.add(value, 0, position)
        assert index.probe_range(20, 40, low_strict=False, high_strict=True) == [(0, 1), (0, 2)]
        assert index.probe_range(20, 40, low_strict=True, high_strict=False) == [(0, 2), (0, 3)]
        assert index.probe_range(None, 15) == [(0, 0)]
        assert index.probe_range(35, None) == [(0, 3)]
        assert index.probe_range(41, None) == []
        assert index.count_range(20, 40) == 3

    def test_equality_probe(self):
        index = SortedIndex("i", "t", "k", 0)
        for position, value in enumerate([1, 2, 2, 3]):
            index.add(value, 0, position)
        assert index.probe_eq(2) == [(0, 1), (0, 2)]
        assert index.count_eq(2) == 2

    def test_null_bounds_never_match(self):
        index = SortedIndex("i", "t", "k", 0)
        index.add(1, 0, 0)
        assert index.probe_range(None, float("nan")) == []
        assert index.probe_eq(None) == []

    def test_mixed_kind_keys_degrade(self):
        index = SortedIndex("i", "t", "k", 0)
        index.add(1, 0, 0)
        index.add("x", 0, 1)
        assert not index.usable
        assert index.probe_eq(1) is None

    def test_cross_kind_probe_declines(self):
        # An int index probed with a string must fall back (the scan's
        # comparison would raise); the probe signals that with None.
        index = SortedIndex("i", "t", "k", 0)
        index.add(1, 0, 0)
        assert index.probe_eq("x") is None
        assert index.probe_range("a", None) is None

    def test_unorderable_keys_degrade(self):
        index = SortedIndex("i", "t", "k", 0)
        index.add([1, 2], 0, 0)
        assert not index.usable


# ---------------------------------------------------------------------------
# DDL surface
# ---------------------------------------------------------------------------


def _make_db(**kwargs) -> Database:
    db = Database(num_segments=4, **kwargs)
    db.execute("CREATE TABLE t (id integer, k integer, name text)")
    db.load_rows("t", [(i, i % 10, f"name_{i % 7}") for i in range(200)])
    return db


class TestIndexDDL:
    def test_create_and_list(self):
        db = _make_db()
        db.execute("CREATE INDEX t_k ON t USING hash (k)")
        db.execute("CREATE INDEX t_id ON t (id)")
        listing = db.catalog.indexes("t")
        assert [(row["indexname"], row["kind"]) for row in listing] == [
            ("t_id", "sorted"),
            ("t_k", "hash"),
        ]
        assert all(row["entries"] == 200 for row in listing)

    def test_btree_is_sorted_alias(self):
        db = _make_db()
        db.execute("CREATE INDEX t_id ON t USING btree (id)")
        assert db.catalog.get_index("t_id").kind == "sorted"

    def test_duplicate_name_rejected(self):
        db = _make_db()
        db.execute("CREATE INDEX t_k ON t (k)")
        with pytest.raises(CatalogError):
            db.execute("CREATE INDEX t_k ON t (id)")
        # IF NOT EXISTS suppresses the error.
        db.execute("CREATE INDEX IF NOT EXISTS t_k ON t (id)")

    def test_unknown_column_rejected(self):
        db = _make_db()
        with pytest.raises(Exception):
            db.execute("CREATE INDEX t_x ON t (missing)")
        assert db.catalog.indexes() == []

    def test_drop_index(self):
        db = _make_db()
        db.execute("CREATE INDEX t_k ON t (k)")
        db.execute("DROP INDEX t_k")
        assert db.catalog.indexes() == []
        assert db.table("t").indexes == []
        with pytest.raises(CatalogError):
            db.execute("DROP INDEX t_k")
        db.execute("DROP INDEX IF EXISTS t_k")

    def test_drop_table_cascades_to_indexes(self):
        db = _make_db()
        db.execute("CREATE INDEX t_k ON t (k)")
        db.execute("ANALYZE t")
        db.execute("DROP TABLE t")
        assert db.catalog.indexes() == []
        assert db.catalog.statistics() == []

    def test_alter_rename_rebuilds_and_follows(self):
        db = _make_db()
        db.execute("CREATE INDEX t_k ON t USING hash (k)")
        db.execute("ALTER TABLE t RENAME TO u")
        index = db.catalog.get_index("t_k")
        assert index.table_name == "u"
        assert_index_consistent(db, "t_k")
        rows = db.execute("SELECT count(*) FROM u WHERE k = 3").scalar()
        assert rows == 20
        assert db.last_stats.scan_details[0].access == "index"


# ---------------------------------------------------------------------------
# Maintenance parity under DML
# ---------------------------------------------------------------------------

_DML_SEQUENCE = [
    "INSERT INTO t VALUES (900, 3, 'fresh')",
    "INSERT INTO t VALUES (901, NULL, NULL)",
    "UPDATE t SET k = k + 1 WHERE id < 50",
    "DELETE FROM t WHERE k = 5",
    "UPDATE t SET name = 'renamed' WHERE k = 2",
    "DELETE FROM t WHERE id >= 150",
    "TRUNCATE t",
    "INSERT INTO t VALUES (1, 1, 'one'), (2, 2, 'two'), (3, NULL, 'three')",
]

_CHECK_QUERIES = [
    "SELECT * FROM t WHERE k = 3 ORDER BY id",
    "SELECT * FROM t WHERE k = 2 ORDER BY id",
    "SELECT id FROM t WHERE id >= 10 AND id < 60 ORDER BY id",
    "SELECT count(*), sum(id) FROM t WHERE name = 'renamed'",
    "SELECT k, count(*) FROM t WHERE k > 1 GROUP BY k ORDER BY k",
]


def test_dml_maintenance_parity():
    """After every DML step: indexed results == scan results, and every
    incrementally maintained index == a scratch rebuild."""
    indexed = _make_db()
    scan = _make_db()
    indexed.execute("CREATE INDEX t_k ON t USING hash (k)")
    indexed.execute("CREATE INDEX t_id ON t (id)")
    indexed.execute("CREATE INDEX t_name ON t (name)")
    for statement in _DML_SEQUENCE:
        indexed.execute(statement)
        scan.execute(statement)
        for name in ("t_k", "t_id", "t_name"):
            assert_index_consistent(indexed, name)
        for query in _CHECK_QUERIES:
            left = indexed.execute(query)
            right = scan.execute(query)
            assert left.rows == right.rows, (statement, query)


def test_bulk_insert_rebuild_path():
    """insert_many above the bulk threshold rebuilds instead of insorting."""
    db = _make_db()
    db.execute("CREATE INDEX t_id ON t (id)")
    db.load_rows("t", [(1000 + i, i % 5, None) for i in range(1000)])
    assert_index_consistent(db, "t_id")
    assert db.execute("SELECT count(*) FROM t WHERE id = 1500").scalar() == 1


def test_failed_bulk_load_still_rebuilds_indexes():
    """A bulk load that raises mid-way must not leave indexes stale: rows
    inserted before the failure are in the table, so the index rebuild has
    to run even on the error path."""
    db = _make_db()
    db.execute("CREATE INDEX t_id ON t (id)")
    bad_rows = [(2000 + i, 1, None) for i in range(300)] + [("boom", 1, None)]
    with pytest.raises(Exception):
        db.load_rows("t", bad_rows)
    assert_index_consistent(db, "t_id")
    result = db.execute("SELECT id FROM t WHERE id = 2200")
    assert result.rows == [(2200,)]
    assert db.last_stats.scan_details[0].access == "index"


def test_redistribute_rebuilds_indexes():
    db = _make_db()
    db.execute("CREATE INDEX t_k ON t USING hash (k)")
    db.set_num_segments(7)
    assert_index_consistent(db, "t_k")
    baseline = _make_db()
    baseline.set_num_segments(7)
    query = "SELECT * FROM t WHERE k = 4 ORDER BY id"
    assert db.execute(query).rows == baseline.execute(query).rows


def test_degraded_index_falls_back_to_scan():
    """A column that mixes comparison kinds degrades its sorted index, and
    queries silently take the sequential path."""
    db = Database()
    db.execute("CREATE TABLE anyt (id integer, v text)")
    db.create_table("mixed", [("id", "integer"), ("v", "any")], replace=True)
    db.load_rows("mixed", [(1, 5), (2, "text")])
    db.create_index("mixed_v", "mixed", "v")
    index = db.catalog.get_index("mixed_v")
    assert not index.usable
    result = db.execute("SELECT id FROM mixed WHERE v = 5")
    assert result.rows == [(1,)]
    assert db.last_stats.scan_details[0].access == "seq"
