"""Batched aggregate kernels: coverage for the vectorized tier.

Checks that (1) built-in batch kernels produce exactly what the
row-at-a-time fold produces, (2) order-sensitive aggregates (``array_agg``,
``string_agg``) have no batch kernel and deterministically take the fold,
(3) a failing batch kernel falls back instead of failing the query, and
(4) the ``string_agg`` delimiter semantics (per-row placement, no hard-coded
default) are PostgreSQL-like.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database
from repro.engine.aggregates import AggregateDefinition, builtin_aggregates
from repro.engine.segments import SegmentedAggregator
from repro.engine.vectorized import (
    ColumnBatch,
    builtin_batch_transitions,
    strict_filter_columns,
)
from reference_tier import reference_database


def get_builtin(name: str) -> AggregateDefinition:
    for definition in builtin_aggregates():
        if definition.name == name:
            return definition
    raise AssertionError(name)


class TestBatchKernels:
    def test_builtins_carry_batch_kernels(self):
        kernels = builtin_batch_transitions()
        for name in ("count", "sum", "avg", "min", "max", "stddev", "vector_sum"):
            assert name in kernels
            assert get_builtin(name).batch_transition is not None

    @pytest.mark.parametrize(
        "name", ["count", "sum", "avg", "min", "max", "var_samp", "stddev", "bool_or"]
    )
    def test_batch_fold_matches_row_fold(self, name):
        values = [float(i % 13) - 3.0 for i in range(1, 200)]
        values[10] = None
        values[50] = float("nan")
        rows = [(v,) for v in values]
        segments = [rows[i::4] for i in range(4)]

        definition = get_builtin(name)
        batched, _ = SegmentedAggregator(definition).run(segments)

        plain = AggregateDefinition(
            definition.name,
            definition.transition,
            merge=definition.merge,
            final=definition.final,
            initial_state=definition.initial_state,
            strict=definition.strict,
        )
        folded, _ = SegmentedAggregator(plain).run(segments)
        if isinstance(batched, float):
            assert batched == pytest.approx(folded, rel=1e-12)
        else:
            assert batched == folded

    def test_column_batch_streams_match_row_streams(self):
        definition = get_builtin("sum")
        values = [1.0, 2.0, None, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
        columns = ColumnBatch((values,))
        rows = columns.rows()
        assert rows == [(v,) for v in values]
        value_batch, _ = SegmentedAggregator(definition).run([columns])
        value_rows, _ = SegmentedAggregator(definition).run([rows])
        assert value_batch == value_rows == 42.0

    def test_tiny_streams_take_the_row_fold(self):
        # Below the batch cutoff the row fold runs — same result, no batch call.
        calls = {"batch": 0}

        def counting_batch(state, values):
            calls["batch"] += 1
            return get_builtin("sum").batch_transition(state, values)

        definition = AggregateDefinition(
            "sum_counting",
            get_builtin("sum").transition,
            merge=get_builtin("sum").merge,
            initial_state=None,
            batch_transition=counting_batch,
        )
        value, _ = SegmentedAggregator(definition).run([[(1.0,), (2.0,)], [(3.0,)]])
        assert value == 6.0
        assert calls["batch"] == 0

    def test_strict_filter_matches_is_null_for_float_subclasses(self):
        # np.float64 NaN is a float subclass; both tiers must skip it.
        columns = ([1.0, np.float64("nan"), 3.0],)
        filtered, count = strict_filter_columns(columns)
        assert count == 2
        assert filtered[0] == [1.0, 3.0]

    def test_numpy_nan_from_udf_agrees_across_tiers(self):
        results = []
        for make in (Database, reference_database):
            db = make(num_segments=2)
            db.create_table("t", [("id", "integer"), ("a", "double precision")])
            db.load_rows("t", [(1, 1.0), (2, 2.0), (3, 0.0)])
            db.create_function(
                "inv",
                lambda x: np.float64(1.0) / x if x else np.float64("nan"),
                return_type="double precision",
            )
            results.append(db.query_scalar("SELECT sum(inv(a)) FROM t"))
        assert results[0] == pytest.approx(1.5)
        assert results[0] == pytest.approx(results[1])

    def test_strict_filter_drops_rows_with_any_null(self):
        columns = ([1.0, None, 3.0, float("nan")], ["x", "y", None, "w"])
        filtered, count = strict_filter_columns(columns)
        assert count == 1
        assert filtered[0] == [1.0]
        assert filtered[1] == ["x"]

    def test_strict_filter_clean_columns_not_copied(self):
        columns = ([1.0, 2.0], [3.0, 4.0])
        filtered, count = strict_filter_columns(columns)
        assert count == 2
        assert filtered[0] is columns[0] and filtered[1] is columns[1]

    def test_failing_batch_kernel_falls_back_to_fold(self):
        calls = {"batch": 0}

        def bad_batch(state, values):
            calls["batch"] += 1
            raise RuntimeError("ragged input")

        definition = AggregateDefinition(
            "sum_with_bad_batch",
            get_builtin("sum").transition,
            merge=get_builtin("sum").merge,
            initial_state=None,
            batch_transition=bad_batch,
        )
        stream = [[(float(i),) for i in range(1, 11)], [(float(i),) for i in range(11, 21)]]
        value, _ = SegmentedAggregator(definition).run(stream)
        assert value == sum(range(1, 21))
        assert calls["batch"] >= 1

    def test_vector_sum_batch_matches_fold(self):
        rows = [(np.array([float(i), float(2 * i)]),) for i in range(1, 11)] + [(None,)]
        segments = [rows]
        value, _ = SegmentedAggregator(get_builtin("vector_sum")).run(segments)
        np.testing.assert_allclose(value, [55.0, 110.0])


class TestOrderSensitiveAggregatesBypass:
    def test_array_and_string_agg_have_no_batch_kernel(self):
        assert get_builtin("array_agg").batch_transition is None
        assert get_builtin("string_agg").batch_transition is None
        assert "array_agg" not in builtin_batch_transitions()
        assert "string_agg" not in builtin_batch_transitions()

    def test_order_preserved_through_segmented_path(self):
        # Distributed by id, the per-segment fold order is insertion order;
        # the merged result must be deterministic run to run.
        db = Database(num_segments=4)
        db.create_table("ev", [("id", "integer"), ("tag", "text")], distributed_by="id")
        db.load_rows("ev", [(i, f"t{i}") for i in range(1, 13)])
        first = db.query_scalar("SELECT array_agg(tag) FROM ev")
        second = db.query_scalar("SELECT array_agg(tag) FROM ev")
        assert first == second
        assert sorted(first) == sorted(f"t{i}" for i in range(1, 13))

    def test_string_agg_matches_interpreted_tier(self):
        results = []
        for make in (Database, reference_database):
            db = make(num_segments=3)
            db.create_table("ev", [("id", "integer"), ("tag", "text")], distributed_by="id")
            db.load_rows("ev", [(i, f"t{i}") for i in range(1, 10)])
            results.append(db.query_scalar("SELECT string_agg(tag, '|') FROM ev"))
        assert results[0] == results[1]


class TestStringAggDelimiter:
    def test_two_argument_form_joins_with_delimiter(self, numbers_db):
        result = numbers_db.query_scalar("SELECT string_agg(grp, ', ') FROM t WHERE id <= 3")
        assert result == "a, a, b"

    def test_single_argument_form_concatenates(self, numbers_db):
        # No delimiter argument means plain concatenation, not a hidden ",".
        result = numbers_db.query_scalar("SELECT string_agg(grp) FROM t WHERE id <= 3")
        assert result == "aab"

    def test_empty_input_returns_null(self, numbers_db):
        assert numbers_db.query_scalar("SELECT string_agg(grp, ',') FROM t WHERE id > 99") is None

    def test_null_delimiter_concatenates_instead_of_dropping_rows(self, db):
        # PostgreSQL: string_agg is strict in the value only; a NULL delimiter
        # joins with nothing rather than discarding the row.
        db.create_table("s", [("id", "integer"), ("name", "text"), ("d", "text")])
        db.load_rows("s", [(1, "a", ","), (2, "b", ";"), (3, "c", None)])
        assert db.query_scalar("SELECT string_agg(name, d) FROM s") == "a;bc"
        assert db.query_scalar("SELECT string_agg(name) FROM s") == "abc"

    def test_null_values_skipped(self, db):
        db.create_table("s2", [("id", "integer"), ("name", "text")])
        db.load_rows("s2", [(1, "a"), (2, None), (3, "c")])
        assert db.query_scalar("SELECT string_agg(name, '-') FROM s2") == "a-c"
