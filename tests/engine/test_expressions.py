"""Unit tests for expression semantics (SQL three-valued logic, arrays, casts),
run through the reference evaluator the parity suites hold the engine to."""

import numpy as np
import pytest

from repro.engine.functions import builtin_functions
from repro.engine.parser import parse_expression
from repro.errors import ExecutionError, FunctionError
from reference_tier import RowContext, evaluate as evaluate_node


def make_context(values=None, parameters=None):
    functions = {definition.name.lower(): definition for definition in builtin_functions()}
    return RowContext({k.lower(): v for k, v in (values or {}).items()}, functions, parameters)


def evaluate(sql, values=None, parameters=None):
    return evaluate_node(parse_expression(sql), make_context(values, parameters))


class TestArithmetic:
    def test_basic_arithmetic(self):
        assert evaluate("1 + 2 * 3") == 7
        assert evaluate("2 ^ 10") == 1024
        assert evaluate("7 % 3") == 1
        assert evaluate("-x", {"x": 5}) == -5

    def test_integer_division_truncates(self):
        assert evaluate("7 / 2") == 3
        assert evaluate("7.0 / 2") == 3.5

    def test_division_by_zero_raises(self):
        with pytest.raises(ExecutionError):
            evaluate("1 / 0")

    def test_null_propagation(self):
        assert evaluate("1 + x", {"x": None}) is None
        assert evaluate("x * 2", {"x": None}) is None

    def test_array_arithmetic(self):
        result = evaluate("x + y", {"x": np.array([1.0, 2.0]), "y": np.array([3.0, 4.0])})
        np.testing.assert_array_equal(result, [4.0, 6.0])


class TestComparisonsAndLogic:
    def test_comparisons(self):
        assert evaluate("2 > 1") is True
        assert evaluate("2 <= 1") is False
        assert evaluate("'abc' = 'abc'") is True
        assert evaluate("1 <> 2") is True

    def test_three_valued_logic(self):
        assert evaluate("x > 1", {"x": None}) is None
        assert evaluate("x > 1 AND TRUE", {"x": None}) is None
        assert evaluate("x > 1 AND FALSE", {"x": None}) is False
        assert evaluate("x > 1 OR TRUE", {"x": None}) is True
        assert evaluate("NOT x", {"x": None}) is None

    def test_between_and_in(self):
        assert evaluate("5 BETWEEN 1 AND 10") is True
        assert evaluate("x NOT BETWEEN 1 AND 10", {"x": 50}) is True
        assert evaluate("3 IN (1, 2, 3)") is True
        assert evaluate("4 NOT IN (1, 2, 3)") is True
        assert evaluate("x IN (1, 2)", {"x": None}) is None

    def test_is_null(self):
        assert evaluate("x IS NULL", {"x": None}) is True
        assert evaluate("x IS NOT NULL", {"x": 1}) is True

    def test_like(self):
        assert evaluate("'hello' LIKE 'he%'") is True
        assert evaluate("'hello' LIKE 'h_llo'") is True
        assert evaluate("'hello' LIKE 'x%'") is False

    def test_array_equality(self):
        assert evaluate("x = y", {"x": np.array([1.0]), "y": np.array([1.0])}) is True


class TestCaseCastArrays:
    def test_case_expression(self):
        assert evaluate("CASE WHEN x > 0 THEN 'pos' ELSE 'neg' END", {"x": 3}) == "pos"
        assert evaluate("CASE WHEN x > 0 THEN 'pos' END", {"x": -1}) is None

    def test_cast(self):
        assert evaluate("'42'::integer") == 42
        assert evaluate("CAST(1 AS double precision)") == 1.0
        assert evaluate("1 = 1") is True

    def test_array_literal_and_subscript(self):
        result = evaluate("ARRAY[1, 2, 3]")
        np.testing.assert_array_equal(result, [1.0, 2.0, 3.0])
        assert evaluate("x[1]", {"x": np.array([10.0, 20.0])}) == 10.0
        # PostgreSQL 1-based indexing; out-of-range yields NULL.
        assert evaluate("x[5]", {"x": np.array([10.0, 20.0])}) is None

    def test_string_concat_operator(self):
        assert evaluate("'a' || 'b'") == "ab"

    def test_text_array_literal(self):
        assert evaluate("ARRAY['a', 'b']") == ["a", "b"]


class TestFunctionsAndParameters:
    def test_builtin_scalar_functions(self):
        assert evaluate("abs(-3)") == 3
        assert evaluate("sqrt(16)") == 4.0
        assert evaluate("lower('ABC')") == "abc"
        assert evaluate("length('abcd')") == 4
        assert evaluate("coalesce(NULL, NULL, 7)") == 7
        assert evaluate("greatest(1, 5, 3)") == 5

    def test_strict_function_returns_null(self):
        assert evaluate("sqrt(x)", {"x": None}) is None

    def test_unknown_function_raises(self):
        with pytest.raises(FunctionError):
            evaluate("no_such_function(1)")

    def test_parameters(self):
        assert evaluate("%(a)s + 1", parameters={"a": 41}) == 42

    def test_unbound_parameter_raises(self):
        with pytest.raises(ExecutionError):
            evaluate("%(missing)s")

    def test_array_functions(self):
        assert evaluate("array_dot(x, x)", {"x": np.array([3.0, 4.0])}) == 25.0
        assert evaluate("array_upper(x, 1)", {"x": np.array([1.0, 2.0, 3.0])}) == 3

    def test_column_lookup_ambiguity(self):
        context = make_context({"a.v": 1, "b.v": 2})
        with pytest.raises(ExecutionError):
            evaluate_node(parse_expression("v"), context)
        assert evaluate_node(parse_expression("a.v"), context) == 1

    def test_missing_column_raises(self):
        with pytest.raises(ExecutionError):
            evaluate("missing_column")


class TestTreeUtilities:
    def test_walk_and_column_references(self):
        expression = parse_expression("a + b * coalesce(c, 1)")
        names = {ref.name for ref in expression.column_references()}
        assert names == {"a", "b", "c"}

    def test_contains_aggregate(self):
        expression = parse_expression("1 + sum(x)")
        assert expression.contains_aggregate(lambda name: name == "sum")
        assert not expression.contains_aggregate(lambda name: name == "avg")
