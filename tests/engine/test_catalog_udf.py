"""Tests for the catalog, the UDF/UDA registration helpers and query stats."""

import pytest

from repro import Database
from repro.engine.udf import AggregateBuilder, scalar_function
from repro.errors import CatalogError, FunctionError, ValidationError


class TestCatalog:
    def test_table_registration_and_lookup(self, db):
        db.create_table("a", [("v", "integer")])
        assert db.catalog.has_table("A")
        assert db.catalog.table_schema("a").names == ["v"]
        with pytest.raises(CatalogError):
            db.catalog.get_table("missing")

    def test_table_names_filter_temporary(self, db):
        db.create_table("perm", [("v", "integer")])
        db.create_table("tmp", [("v", "integer")], temporary=True)
        assert "tmp" in db.catalog.table_names()
        assert "tmp" not in db.catalog.table_names(include_temporary=False)

    def test_rename_conflict(self, db):
        db.create_table("a", [("v", "integer")])
        db.create_table("b", [("v", "integer")])
        with pytest.raises(CatalogError):
            db.catalog.rename_table("a", "b")

    def test_function_and_aggregate_listing(self, db):
        assert "abs" in db.catalog.function_names()
        assert "sum" in db.catalog.aggregate_names()
        with pytest.raises(CatalogError):
            db.catalog.get_function("nope")
        with pytest.raises(CatalogError):
            db.catalog.get_aggregate("nope")

    def test_duplicate_registration_requires_replace(self, db):
        db.create_function("f", lambda: 1)
        db.create_function("f", lambda: 2)  # replace=True default
        with pytest.raises(CatalogError):
            db.create_function("f", lambda: 3, replace=False)


class TestUDFHelpers:
    def test_scalar_function_decorator(self, db):
        @scalar_function(db, "double_it", return_type="double precision")
        def double_it(x):
            return 2.0 * x

        assert db.query_scalar("SELECT double_it(21)") == 42.0

    def test_aggregate_builder(self, db):
        (
            AggregateBuilder(db, "product")
            .with_initial_state(1.0)
            .with_transition(lambda state, x: state * x)
            .with_merge(lambda a, b: a * b)
            .register()
        )
        db.create_table("v", [("x", "double precision")])
        db.load_rows("v", [(2.0,), (3.0,), (4.0,)])
        assert db.query_scalar("SELECT product(x) FROM v") == 24.0

    def test_aggregate_builder_requires_transition(self, db):
        with pytest.raises(ValueError):
            AggregateBuilder(db, "broken").register()

    def test_udf_error_is_wrapped(self, db):
        db.create_function("boom", lambda x: 1 / 0)
        db.create_table("v", [("x", "double precision")])
        db.load_rows("v", [(1.0,)])
        with pytest.raises(FunctionError):
            db.execute("SELECT boom(x) FROM v")

    def test_strict_udf_skips_null(self, db):
        calls = []

        def traced(x):
            calls.append(x)
            return x

        db.create_function("traced", traced)
        db.create_table("v", [("x", "double precision")])
        db.load_rows("v", [(None,), (1.0,)])
        values = db.execute("SELECT traced(x) AS v FROM v").column("v")
        assert values == [None, 1.0]
        assert calls == [1.0]


class TestExecutionStats:
    def test_aggregate_query_records_per_segment_timings(self):
        db = Database(num_segments=6)
        db.create_table("n", [("v", "double precision")])
        db.load_rows("n", [(float(i),) for i in range(600)])
        result = db.execute("SELECT sum(v) FROM n")
        assert result.stats is not None
        timings = result.stats.aggregate_timings
        assert len(timings) == 1
        assert timings[0].num_segments == 6
        assert sum(timings[0].rows_per_segment) == 600
        assert result.stats.simulated_parallel_seconds <= result.stats.total_seconds + 1e-6

    def test_single_segment_database_folds_one_stream(self):
        db = Database(num_segments=1)
        db.create_table("n", [("v", "double precision")])
        db.load_rows("n", [(float(i),) for i in range(60)])
        result = db.execute("SELECT sum(v) FROM n")
        assert result.rows[0][0] == float(sum(range(60)))
        timings = result.stats.aggregate_timings[0]
        assert timings.num_segments == 1
        assert timings.merge_seconds == 0.0

    def test_last_stats_updated(self, numbers_db):
        numbers_db.execute("SELECT count(*) FROM t")
        assert numbers_db.last_stats is not None
        assert numbers_db.last_stats.rows_scanned == 6

    def test_invalid_segment_count_rejected(self):
        with pytest.raises(ValidationError):
            Database(num_segments=0)
        db = Database()
        with pytest.raises(ValidationError):
            db.set_num_segments(0)
