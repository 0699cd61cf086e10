"""Unit tests for Schema, Column and Table storage / segment partitioning."""

import numpy as np
import pytest

from repro.engine.schema import Column, Schema
from repro.engine.table import Table
from repro.errors import CatalogError, ExecutionError, TypeMismatchError


def make_schema():
    return Schema.from_pairs([("id", "integer"), ("x", "double precision[]"), ("y", "double precision")])


class TestSchema:
    def test_from_pairs_and_lookup(self):
        schema = make_schema()
        assert len(schema) == 3
        assert schema.names == ["id", "x", "y"]
        assert schema.index_of("Y") == 2
        assert schema.type_of("x").is_array

    def test_duplicate_column_raises(self):
        with pytest.raises(CatalogError):
            Schema.from_pairs([("a", "integer"), ("A", "text")])

    def test_missing_column_raises(self):
        with pytest.raises(CatalogError):
            make_schema().index_of("missing")

    def test_project_and_rename(self):
        schema = make_schema()
        projected = schema.project(["y", "id"])
        assert projected.names == ["y", "id"]
        renamed = schema.rename({"id": "row_id"})
        assert renamed.names == ["row_id", "x", "y"]

    def test_concat_with_suffix(self):
        left = Schema.from_pairs([("id", "integer")])
        right = Schema.from_pairs([("id", "integer"), ("v", "text")])
        with pytest.raises(CatalogError):
            left.concat(right)
        combined = left.concat(right, on_conflict="suffix")
        assert combined.names == ["id", "id_right", "v"]

    def test_equality_and_hash(self):
        assert make_schema() == make_schema()
        assert hash(make_schema()) == hash(make_schema())

    def test_has_column(self):
        assert make_schema().has_column("ID")
        assert not make_schema().has_column("nope")


class TestTable:
    def test_insert_and_iterate(self):
        table = Table("t", make_schema())
        table.insert([1, [1.0, 2.0], 3.0])
        table.insert([2, [4.0, 5.0], 6.0])
        assert len(table) == 2
        rows = list(table.rows())
        assert rows[0][0] == 1
        assert isinstance(rows[0][1], np.ndarray)

    def test_insert_coerces_and_validates(self):
        table = Table("t", make_schema())
        table.insert(["7", [1, 2], "3.5"])
        row = next(iter(table))
        assert row[0] == 7 and row[2] == 3.5
        with pytest.raises(TypeMismatchError):
            table.insert([1, [1.0, 2.0]])  # wrong arity

    def test_round_robin_distribution_is_balanced(self):
        table = Table("t", make_schema(), num_segments=4)
        table.insert_many([(i, [0.0], float(i)) for i in range(100)])
        sizes = table.segment_sizes()
        assert sum(sizes) == 100
        assert max(sizes) - min(sizes) <= 1

    def test_hash_distribution_is_deterministic_and_collocated(self):
        table_a = Table("a", make_schema(), num_segments=4, distributed_by="id")
        table_b = Table("b", make_schema(), num_segments=4, distributed_by="id")
        for i in range(50):
            table_a.insert([i, [0.0], 0.0])
            table_b.insert([i, [0.0], 0.0])
        assert table_a.segment_sizes() == table_b.segment_sizes()
        # Same key always lands on the same segment.
        for segment in range(4):
            ids_a = {row[0] for row in table_a.segment_rows(segment)}
            ids_b = {row[0] for row in table_b.segment_rows(segment)}
            assert ids_a == ids_b

    def test_invalid_distribution_column_raises(self):
        with pytest.raises(CatalogError):
            Table("t", make_schema(), num_segments=2, distributed_by="missing")

    def test_zero_segments_raises(self):
        with pytest.raises(ExecutionError):
            Table("t", make_schema(), num_segments=0)

    def test_truncate_and_replace(self):
        table = Table("t", make_schema(), num_segments=2)
        table.insert_many([(i, [0.0], float(i)) for i in range(10)])
        table.truncate()
        assert len(table) == 0
        count = table.replace_rows([(1, [1.0], 1.0)])
        assert count == 1 and len(table) == 1

    def test_delete_where_rows(self):
        table = Table("t", make_schema(), num_segments=2)
        table.insert_many([(i, [0.0], float(i)) for i in range(10)])
        y = table.schema.index_of("y")
        deleted = table.delete_where_rows(lambda row: row[y] >= 5.0)
        assert deleted == 5
        assert len(table) == 5

    def test_redistribute_preserves_rows(self):
        table = Table("t", make_schema(), num_segments=1)
        table.insert_many([(i, [0.0], float(i)) for i in range(20)])
        table.redistribute(5)
        assert table.num_segments == 5
        assert len(table) == 20
        assert sorted(row[0] for row in table.rows()) == list(range(20))

    def test_column_values_and_to_dicts(self):
        table = Table("t", make_schema())
        table.insert_many([(1, [0.0], 10.0), (2, [0.0], 20.0)])
        assert table.column_values("y") == [10.0, 20.0]
        assert table.to_dicts()[0]["id"] == 1
