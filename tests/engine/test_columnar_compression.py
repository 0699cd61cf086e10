"""Dictionary/RLE compression lifecycle: the edges the fuzzer only grazes.

:class:`~repro.engine.columnar.DictColumn` unit behavior (None vs NaN
round-trip, the RLE tier and its permanent conversion to packed codes,
raise-before-mutate on cardinality and code-space overflow), the
:class:`~repro.engine.columnar.ColumnStore` demotion contract (dictionary
columns silently become plain object lists and every fast path declines),
database-level demotion mid-INSERT, the position remaps that indexes and
DELETE perform over compressed segments, bitmap-aware in-place UPDATE
index maintenance on both the incremental-``replace`` and bulk-rebuild
paths, and the ``dict16`` wire format the parallel workers ship.
"""

from __future__ import annotations

import math
from array import array

import pytest

from repro import Database
from repro.engine.columnar import ColumnStore, DictColumn
from repro.engine.schema import Schema
from repro.engine.vectorized import _pack_column, _unpack_column
from reference_tier import reference_database


# ---------------------------------------------------------------------------
# DictColumn unit behavior
# ---------------------------------------------------------------------------


def test_dict_column_none_vs_nan_round_trip():
    column = DictColumn()
    nan = float("nan")
    for value in ["x", None, nan, "x", None, nan]:
        column.append(value)

    assert len(column) == 6
    assert column[0] == "x"
    assert column[1] is None
    assert isinstance(column[2], float) and math.isnan(column[2])
    assert column[4] is None
    assert math.isnan(column[5])

    # Storage keeps None and NaN distinct, but the null accounting follows
    # the SQL contract shared with TypedColumn: both are SQL NULL.
    positions = column.null_positions()
    assert positions == {1, 2, 4, 5}
    mask = column.null_mask()
    assert mask is not None and set(map(int, mask.nonzero()[0])) == {1, 2, 4, 5}


def test_dict_column_keys_are_type_exact():
    column = DictColumn()
    for value in [True, 1, 1.0, "1"]:
        column.append(value)
    materialized = list(column)
    assert materialized[0] is True
    assert materialized[1] == 1 and type(materialized[1]) is int
    assert materialized[2] == 1.0 and type(materialized[2]) is float
    assert materialized[3] == "1"
    # Four distinct dictionary entries, not one.
    assert len(column.values) == 4


def test_dict_column_rle_tier_survives_constant_and_sorted_loads():
    column = DictColumn()
    shadow = []
    for value in ["a"] * 500 + ["b"] * 500:
        column.append(value)
        shadow.append(value)
    # Two runs cover a thousand rows: still in the RLE tier.
    assert column._codes is None
    assert len(column._run_codes) == 2
    assert list(column) == shadow
    assert column[499] == "a" and column[500] == "b"
    assert list(column[498:502]) == ["a", "a", "b", "b"]


def test_dict_column_converts_to_packed_on_short_runs():
    column = DictColumn()
    shadow = []
    for i in range(400):
        value = "ab"[i % 2]
        column.append(value)
        shadow.append(value)
    # Alternating values: mean run length 1, so the column gave up on RLE.
    assert column._codes is not None
    assert column._run_codes is None
    assert list(column) == shadow


def test_dict_column_set_converts_rle_to_packed():
    column = DictColumn()
    for _ in range(10):
        column.append("a")
    assert column._codes is None
    column.set(4, "b")
    assert column._codes is not None  # point writes need positional codes
    assert list(column) == ["a"] * 4 + ["b"] + ["a"] * 5
    column.set(4, None)
    assert column[4] is None
    with pytest.raises(IndexError):
        column.set(10, "c")


def test_dict_column_cardinality_overflow_raises_before_mutating():
    column = DictColumn(max_distinct=3)
    for value in ["a", "b", "c", "a"]:
        column.append(value)
    with pytest.raises(OverflowError):
        column.append("d")
    # Raise-before-mutate: the failed append left no trace.
    assert len(column) == 4
    assert list(column) == ["a", "b", "c", "a"]
    # Existing entries (and NULL) still append fine afterwards.
    column.append("b")
    column.append(None)
    assert list(column) == ["a", "b", "c", "a", "b", None]


def test_dict_column_code_space_overflow():
    # A caller-supplied threshold cannot outrun the int16 code space.
    column = DictColumn(max_distinct=10**6)
    for i in range(DictColumn._CODE_LIMIT):
        column.append(i)
    with pytest.raises(OverflowError):
        column.append("one-too-many")
    assert len(column) == DictColumn._CODE_LIMIT
    assert column[0] == 0 and column[-1] == DictColumn._CODE_LIMIT - 1


def test_dict_column_unhashable_value_raises_type_error():
    column = DictColumn()
    column.append("a")
    with pytest.raises(TypeError):
        column.append(["unhashable"])
    assert list(column) == ["a"]


# ---------------------------------------------------------------------------
# ColumnStore demotion contract
# ---------------------------------------------------------------------------


def _text_store():
    return ColumnStore(Schema.from_pairs([("id", "integer"), ("s", "text")]))


def test_column_store_demotes_dictionary_on_unhashable():
    store = _text_store()
    store.append((1, "a"))
    assert store.dict_view(1) is not None
    store.append((2, ["unhashable"]))  # bypasses SQL coercion on purpose
    assert store.dict_view(1) is None  # demoted: fast paths decline
    assert store[0] == (1, "a")
    assert store[1] == (2, ["unhashable"])
    store.append((3, "b"))
    assert store[2] == (3, "b")


def test_column_store_set_rows_demotes_and_reapplies():
    store = _text_store()
    for i in range(6):
        store.append((i, f"s{i}"))
    # One of the in-place writes is unhashable: the column demotes and every
    # write in the batch is re-applied against the object list.
    store.set_rows([1, 3], [(1, ["x"]), (3, "replaced")], [1])
    assert store.dict_view(1) is None
    assert store[1] == (1, ["x"])
    assert store[3] == (3, "replaced")
    assert store[0] == (0, "s0") and store[5] == (5, "s5")


def test_column_store_keep_positions_remaps_dictionary_codes():
    store = _text_store()
    for i in range(10):
        store.append((i, "abc"[i % 3]))
    store.keep_positions([0, 3, 4, 8])
    assert len(store) == 4
    assert [row[1] for row in store] == ["a", "a", "b", "c"]
    view = store.dict_view(1)
    assert view is not None  # still compressed after the remap
    codes, values = view
    assert [values[code] for code in codes] == ["a", "a", "b", "c"]


# ---------------------------------------------------------------------------
# Database-level demotion and index/DELETE remaps
# ---------------------------------------------------------------------------


def _make_db(make=Database):
    db = make(num_segments=3)
    db.create_table(
        "t", [("id", "integer"), ("s", "text")], distributed_by="id"
    )
    return db


def test_demotion_mid_insert_is_observationally_invisible(monkeypatch):
    monkeypatch.setattr(DictColumn, "MAX_DISTINCT", 4)
    db = _make_db()
    db.load_rows("t", [(i, "abc"[i % 3]) for i in range(1, 31)])

    compressed = db.execute("SELECT count(*) FROM t WHERE s = 'a'")
    assert compressed.rows == [(10,)]
    assert compressed.stats.where_vectorized is True

    # Blow the per-column dictionary: the affected segments demote to plain
    # object lists mid-INSERT, with no error surfaced.
    db.execute(
        "INSERT INTO t VALUES "
        + ", ".join(f"({i}, 'unique_{i}')" for i in range(31, 61))
    )

    after = db.execute("SELECT count(*) FROM t WHERE s = 'a'")
    assert after.rows == [(10,)]
    assert after.stats.where_vectorized is False  # dict path declined
    listed = db.execute("SELECT s FROM t WHERE id = 45")
    assert listed.rows == [("unique_45",)]
    # Pre-demotion rows are untouched by the representation change.
    assert db.execute("SELECT s FROM t WHERE id = 1").rows == [("b",)]


def test_create_index_and_delete_remap_compressed_positions():
    db = _make_db()
    twin = _make_db(reference_database)
    rows = [(i, "abcd"[i % 4]) for i in range(1, 101)]
    for target in (db, twin):
        target.load_rows("t", rows)
        target.execute("CREATE INDEX t_s ON t USING hash (s)")
        target.execute("ANALYZE t")

    deleted = db.execute("DELETE FROM t WHERE id % 3 = 0")
    assert deleted.rowcount == twin.execute("DELETE FROM t WHERE id % 3 = 0").rowcount

    for value in "abcd":
        query = f"SELECT id FROM t WHERE s = '{value}' ORDER BY id"
        left, right = db.execute(query), twin.execute(query)
        assert left.rows == right.rows, value
        # The hash index survived the position remap and still serves scans.
        assert any(d.index_name == "t_s" for d in left.stats.scan_details)


# ---------------------------------------------------------------------------
# In-place UPDATE: index maintenance, segment stability
# ---------------------------------------------------------------------------


def _indexed_db(row_count):
    db = _make_db()
    db.load_rows("t", [(i, f"name_{i % 5}") for i in range(1, row_count + 1)])
    db.execute("CREATE INDEX t_s_hash ON t USING hash (s)")
    db.execute("CREATE INDEX t_s_sorted ON t (s)")
    db.execute("ANALYZE t")
    return db


@pytest.mark.parametrize("row_count", [60, 1200], ids=["incremental", "bulk-rebuild"])
def test_update_in_place_maintains_indexes(row_count):
    # 60 rows touched -> per-entry index.replace(); 1200 -> one bulk rebuild.
    db = _indexed_db(row_count)
    result = db.execute("UPDATE t SET s = 'renamed' WHERE s = 'name_2'")
    assert result.rowcount == row_count // 5

    gone = db.execute("SELECT id FROM t WHERE s = 'name_2'")
    assert gone.rows == []
    moved = db.execute("SELECT count(*) FROM t WHERE s = 'renamed'")
    assert moved.rows == [(row_count // 5,)]
    # Both index families still point at live positions.
    for index_name in ("t_s_hash", "t_s_sorted"):
        assert db.catalog.get_index(index_name) is not None
    spot = db.execute("SELECT s FROM t WHERE id = 2")
    assert spot.rows == [("renamed",)]


def test_update_never_moves_rows_between_segments():
    db = _indexed_db(90)
    table = db.catalog.get_table("t")
    before = [len(table.segment_view(i)) for i in range(table.num_segments)]
    db.execute("UPDATE t SET s = 'x' WHERE id % 2 = 0")
    after = [len(table.segment_view(i)) for i in range(table.num_segments)]
    assert before == after


def test_no_match_update_does_not_invalidate_anything():
    db = _indexed_db(60)
    table = db.catalog.get_table("t")
    version = table._data_version
    result = db.execute("UPDATE t SET s = 'y' WHERE s = 'no-such-value'")
    assert result.rowcount == 0
    assert table._data_version == version


# ---------------------------------------------------------------------------
# dict16 wire format (parallel worker shipping)
# ---------------------------------------------------------------------------


def test_dict16_wire_round_trip():
    column = DictColumn()
    values = ["red", None, "green", "red", None, "blue", "red"]
    for value in values:
        column.append(value)

    tag, payload = _pack_column(column)
    assert tag == "dict16"
    codes, dictionary = payload
    assert isinstance(codes, array) and codes.typecode == "h"
    assert list(_unpack_column((tag, payload))) == values


def test_dict16_wire_round_trip_preserves_nan_vs_none():
    column = DictColumn()
    nan = float("nan")
    for value in [nan, None, "x"]:
        column.append(value)
    unpacked = list(_unpack_column(_pack_column(column)))
    assert math.isnan(unpacked[0])
    assert unpacked[1] is None
    assert unpacked[2] == "x"


def test_parallel_query_ships_compressed_columns():
    db = Database(num_segments=4, parallel=2)
    db.create_table("t", [("id", "integer"), ("s", "text")], distributed_by="id")
    db.load_rows("t", [(i, "abc"[i % 3]) for i in range(1, 201)])
    result = db.execute(
        "SELECT s, count(*) FROM t WHERE s != 'c' GROUP BY s ORDER BY s"
    )
    assert result.rows == [("a", 66), ("b", 67)]
