"""Unit tests for the UDA framework, built-in aggregates and the segmented runner."""

import numpy as np
import pytest

from repro.engine.aggregates import AggregateDefinition, AggregateRunner, builtin_aggregates
from repro.engine.segments import SegmentedAggregator
from repro.errors import FunctionError


def get_builtin(name):
    for definition in builtin_aggregates():
        if definition.name == name:
            return definition
    raise AssertionError(f"no builtin aggregate {name}")


class TestAggregateRunner:
    def test_serial_count_sum_avg(self):
        rows = [(float(i),) for i in range(1, 11)]
        assert AggregateRunner(get_builtin("count")).run(rows) == 10
        assert AggregateRunner(get_builtin("sum")).run(rows) == 55.0
        assert AggregateRunner(get_builtin("avg")).run(rows) == pytest.approx(5.5)

    def test_strict_skips_nulls(self):
        rows = [(1.0,), (None,), (3.0,)]
        assert AggregateRunner(get_builtin("count")).run(rows) == 2
        assert AggregateRunner(get_builtin("avg")).run(rows) == pytest.approx(2.0)

    def test_empty_input(self):
        assert AggregateRunner(get_builtin("count")).run([]) == 0
        assert AggregateRunner(get_builtin("sum")).run([]) is None
        assert AggregateRunner(get_builtin("avg")).run([]) is None

    def test_variance_and_stddev(self):
        rows = [(x,) for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]]
        variance = AggregateRunner(get_builtin("var_pop")).run(rows)
        assert variance == pytest.approx(4.0)
        stddev = AggregateRunner(get_builtin("stddev_pop")).run(rows)
        assert stddev == pytest.approx(2.0)
        sample_var = AggregateRunner(get_builtin("var_samp")).run(rows)
        assert sample_var == pytest.approx(np.var([2, 4, 4, 4, 5, 5, 7, 9], ddof=1))

    def test_min_max_bool_array_agg(self):
        rows = [(3.0,), (1.0,), (2.0,)]
        assert AggregateRunner(get_builtin("min")).run(rows) == 1.0
        assert AggregateRunner(get_builtin("max")).run(rows) == 3.0
        assert AggregateRunner(get_builtin("bool_and")).run([(True,), (False,)]) is False
        assert AggregateRunner(get_builtin("bool_or")).run([(True,), (False,)]) is True
        assert AggregateRunner(get_builtin("array_agg")).run(rows) == [3.0, 1.0, 2.0]

    def test_vector_sum(self):
        rows = [(np.array([1.0, 2.0]),), (np.array([3.0, 4.0]),)]
        result = AggregateRunner(get_builtin("vector_sum")).run(rows)
        np.testing.assert_array_equal(result, [4.0, 6.0])

    def test_segmented_equals_serial_for_all_builtins(self):
        rows = [(float(i),) for i in range(1, 101)]
        segments = [rows[i::4] for i in range(4)]
        for name in ("count", "sum", "avg", "min", "max", "var_samp", "stddev", "bool_or"):
            definition = get_builtin(name)
            runner = AggregateRunner(definition)
            serial = runner.run(rows)
            parallel = runner.run_segmented(segments)
            if isinstance(serial, float):
                assert parallel == pytest.approx(serial)
            else:
                assert parallel == serial

    def test_merge_required_for_parallel(self):
        definition = AggregateDefinition("no_merge", lambda s, x: (s or 0) + x, initial_state=0)
        runner = AggregateRunner(definition)
        with pytest.raises(FunctionError):
            runner.merge_states([1, 2])

    def test_merge_of_empty_segments(self):
        definition = get_builtin("sum")
        runner = AggregateRunner(definition)
        assert runner.run_segmented([[], [(5.0,)], []]) == 5.0
        assert runner.run_segmented([[], []]) is None


class TestSegmentedAggregator:
    def test_timings_reported_per_segment(self):
        definition = get_builtin("sum")
        segments = [[(float(i),)] * 50 for i in range(4)]
        value, timings = SegmentedAggregator(definition).run(segments)
        assert value == pytest.approx(sum(i * 50.0 for i in range(4)))
        assert timings.num_segments == 4
        assert timings.rows_per_segment == [50, 50, 50, 50]
        assert timings.serial_seconds >= timings.simulated_parallel_seconds
        assert timings.speedup >= 1.0

    def test_unmergeable_aggregate_folds_one_fused_stream(self):
        definition = AggregateDefinition("sum_no_merge", lambda state, x: state + x, initial_state=0.0)
        segments = [[(1.0,)] * 10, [(2.0,)] * 10]
        value, timings = SegmentedAggregator(definition).run(segments)
        assert value == 30.0
        assert timings.num_segments == 1
        assert timings.merge_seconds == 0.0

    def test_custom_aggregate_round_trip(self):
        definition = AggregateDefinition(
            "sum_sq",
            lambda state, x: state + x * x,
            merge=lambda a, b: a + b,
            initial_state=0.0,
        )
        value, timings = SegmentedAggregator(definition).run([[(1.0,), (2.0,)], [(3.0,)]])
        assert value == pytest.approx(14.0)
        assert timings.aggregate_name == "sum_sq"
