"""The reference tier: the oracle the parity suites hold the engine to.

The engine has one execution tier — compiled closures, bitmap WHERE, hash
joins, index scans, the grouping kernel, batched folds.  This module is the
slow, obviously-correct twin it is compared with, kept out of the product:

* :func:`evaluate` — a tree-walking evaluator, one function per node type,
  over a :class:`RowContext` (one row's values by name, the function
  registry, bound parameters and the executor's computed aggregate / window
  values).  Nothing is resolved ahead of time, so a malformed expression
  raises on the first row evaluated and never on an empty input.
* :class:`ReferenceExecutor` — the engine's executor with ``_compile``
  handing out that evaluator and every fast path declined: joins run the
  nested loop, comma joins the Cartesian product, WHERE clauses a per-row
  predicate over every stored row, GROUP BY the row loop below, ORDER BY …
  LIMIT the heap over row keys, and every aggregate folds row at a time.
* :func:`reference_database` — a plain :class:`~repro.Database` with a
  :class:`ReferenceExecutor` installed.

What the two tiers share is what defines the semantics rather than what
implements the fast paths: the parser, storage, the SQL operator functions
(``_BINARY_OPS``, ``like_match``, ``is_null``, ``values_equal``,
``coerce_value``) and the aggregate definitions.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import Database
from repro.engine.executor import Executor
from repro.engine.expressions import (
    _BINARY_OPS,
    ArrayLiteral,
    Between,
    BinaryOp,
    CaseExpr,
    Cast,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    Parameter,
    Star,
    Subscript,
    UnaryOp,
    WindowCall,
    like_match,
)
from repro.engine.segments import AggregateTimings, SegmentedAggregator
from repro.engine.types import coerce_value, hashable_key, is_null, type_from_name, values_equal
from repro.errors import ExecutionError, FunctionError

__all__ = ["ReferenceExecutor", "RowContext", "evaluate", "reference_database"]


class RowContext:
    """Evaluation context: one row's values plus the function registry.

    Column values are looked up first by qualified name (``alias.column``)
    then by bare column name.  Aggregate and window results computed by the
    executor arrive in ``placeholders``, keyed by the ``id`` of the call node
    they stand in for.
    """

    def __init__(
        self,
        values: Dict[str, Any],
        functions: Optional[Dict[str, Callable[..., Any]]] = None,
        parameters: Optional[Dict[str, Any]] = None,
        placeholders: Optional[Dict[int, Any]] = None,
    ) -> None:
        self.values = values
        self.functions = functions or {}
        self.parameters = parameters or {}
        self.placeholders = placeholders or {}

    def lookup(self, name: str, qualifier: Optional[str] = None) -> Any:
        if qualifier is not None:
            key = f"{qualifier.lower()}.{name.lower()}"
            if key in self.values:
                return self.values[key]
            raise ExecutionError(f"column {qualifier}.{name} not found in row")
        key = name.lower()
        if key in self.values:
            return self.values[key]
        # Fall back to any qualified match (unambiguous bare reference).
        matches = [k for k in self.values if k.endswith("." + key)]
        if len(matches) == 1:
            return self.values[matches[0]]
        if len(matches) > 1:
            raise ExecutionError(f"column reference {name!r} is ambiguous")
        raise ExecutionError(f"column {name!r} not found in row")

    def call(self, name: str, args: Sequence[Any]) -> Any:
        try:
            func = self.functions[name.lower()]
        except KeyError:
            raise FunctionError(f"function {name!r} does not exist") from None
        return func(*args)


# ---------------------------------------------------------------------------
# The evaluator: one function per node type
# ---------------------------------------------------------------------------


def evaluate(node: Expression, context: RowContext) -> Any:
    """Evaluate ``node`` against one row's ``context``."""
    try:
        evaluator = _EVALUATORS[type(node)]
    except KeyError:
        raise ExecutionError(f"cannot evaluate a {type(node).__name__}") from None
    return evaluator(node, context)


def _literal(node: Literal, context: RowContext) -> Any:
    return node.value


def _column_ref(node: ColumnRef, context: RowContext) -> Any:
    return context.lookup(node.name, node.qualifier)


def _star(node: Star, context: RowContext) -> Any:
    raise ExecutionError("'*' cannot be evaluated as a scalar expression")


def _parameter(node: Parameter, context: RowContext) -> Any:
    if node.name not in context.parameters:
        raise ExecutionError(f"parameter {node.name!r} was not bound")
    return context.parameters[node.name]


def _binary(node: BinaryOp, context: RowContext) -> Any:
    op = node.op.lower()
    if op == "like":
        return like_match(evaluate(node.left, context), evaluate(node.right, context))
    try:
        func = _BINARY_OPS[op]
    except KeyError:
        raise ExecutionError(f"unsupported operator {node.op!r}") from None
    return func(evaluate(node.left, context), evaluate(node.right, context))


def _unary(node: UnaryOp, context: RowContext) -> Any:
    value = evaluate(node.operand, context)
    op = node.op.lower()
    if op == "-":
        return None if is_null(value) else -value
    if op == "+":
        return value
    if op == "not":
        if value is None:
            return None
        return not bool(value)
    raise ExecutionError(f"unsupported unary operator {node.op!r}")


def _function_call(node: FunctionCall, context: RowContext) -> Any:
    # An aggregate call the executor already computed arrives as a
    # placeholder; anything else reaching this point is a scalar call.
    if id(node) in context.placeholders:
        return context.placeholders[id(node)]
    return context.call(node.name, [evaluate(arg, context) for arg in node.args])


def _window_call(node: WindowCall, context: RowContext) -> Any:
    if id(node) in context.placeholders:
        return context.placeholders[id(node)]
    raise ExecutionError("window function evaluated outside of a windowed query context")


def _case(node: CaseExpr, context: RowContext) -> Any:
    for condition, result in node.whens:
        if evaluate(condition, context) is True:
            return evaluate(result, context)
    if node.else_result is not None:
        return evaluate(node.else_result, context)
    return None


def _array(node: ArrayLiteral, context: RowContext) -> Any:
    values = [evaluate(item, context) for item in node.items]
    if values and all(isinstance(v, str) for v in values):
        return values
    return np.asarray(values, dtype=np.float64)


def _subscript(node: Subscript, context: RowContext) -> Any:
    array = evaluate(node.base, context)
    position = evaluate(node.index, context)
    if is_null(array) or is_null(position):
        return None
    idx = int(position) - 1
    if idx < 0 or idx >= len(array):
        return None
    value = array[idx]
    if isinstance(value, np.generic):
        return value.item()
    return value


def _cast(node: Cast, context: RowContext) -> Any:
    return coerce_value(evaluate(node.operand, context), type_from_name(node.type_name))


def _in_list(node: InList, context: RowContext) -> Any:
    value = evaluate(node.operand, context)
    if is_null(value):
        return None
    found = any(values_equal(value, evaluate(item, context)) for item in node.items)
    return (not found) if node.negated else found


def _is_null(node: IsNull, context: RowContext) -> Any:
    result = is_null(evaluate(node.operand, context))
    return (not result) if node.negated else result


def _between(node: Between, context: RowContext) -> Any:
    value = evaluate(node.operand, context)
    low = evaluate(node.low, context)
    high = evaluate(node.high, context)
    if is_null(value) or is_null(low) or is_null(high):
        return None
    result = low <= value <= high
    return (not result) if node.negated else result


_EVALUATORS: Dict[type, Callable[[Any, RowContext], Any]] = {
    Literal: _literal,
    ColumnRef: _column_ref,
    Star: _star,
    Parameter: _parameter,
    BinaryOp: _binary,
    UnaryOp: _unary,
    FunctionCall: _function_call,
    WindowCall: _window_call,
    CaseExpr: _case,
    ArrayLiteral: _array,
    Subscript: _subscript,
    Cast: _cast,
    InList: _in_list,
    IsNull: _is_null,
    Between: _between,
}


# ---------------------------------------------------------------------------
# The executor: every fast path declined
# ---------------------------------------------------------------------------


class ReferenceExecutor(Executor):
    """The engine's executor, row at a time and tree-walking."""

    def _compile(self, expression: Expression, env) -> Callable[[Tuple[Any, ...]], Any]:
        """The evaluator over one positional row: each column's value under
        every name the row's layout gives it, each computed aggregate /
        window value under its call node."""
        keys = tuple(env.layout.key_to_index.items())
        slots = tuple(env.slots.items())

        def evaluate_row(row: Tuple[Any, ...]) -> Any:
            context = RowContext(
                {key: row[index] for key, index in keys},
                env.functions,
                env.parameters,
                {node_id: row[index] for node_id, index in slots},
            )
            return evaluate(expression, context)

        return evaluate_row

    def _scan_table(self, ref, stats=None):
        # Without its source table a scan is plain rows: no columnar
        # grouping or top-k reads the stored columns.
        relation = super()._scan_table(ref, stats)
        relation.source_table = None
        return relation

    def _hash_join_plan(self, left, right, join, parameters):
        return None

    def _push_where(self, items, where, parameters, join=None):
        return None

    def _choose_single_table_path(self, ref, where, parameters):
        return None

    def _vectorized_single_table(self, ref, where, parameters, stats):
        return None

    def _match_masks(self, table, where, env):
        return None

    def _call_plans(self, aggregate_calls, env):
        return [
            (call, definition, SegmentedAggregator(definition, use_batch=False), argument_fns)
            for call, definition, _aggregator, argument_fns in super()._call_plans(
                aggregate_calls, env
            )
        ]

    def _grouped_results(self, statement, call_plans, relation, stats, env):
        """Row-at-a-time grouping: per group, per call, one argument tuple
        stream per segment, folded and merged by the aggregate itself."""
        stats.group_strategy, stats.group_decline_reason = "rows", "reference tier"
        groups: Dict[Any, List[int]] = {}
        if statement.group_by:
            key_fns = [self._compile(expression, env) for expression in statement.group_by]
            for index, row in enumerate(relation.rows):
                key = tuple(hashable_key(fn(row)) for fn in key_fns)
                groups.setdefault(key, []).append(index)
        else:
            groups[()] = list(range(len(relation.rows)))

        single_group = len(groups) == 1 and not statement.group_by
        # A grouped statement reports one timings object per call, the
        # per-group contributions folded together.
        grouped_timings = [
            AggregateTimings(aggregate_name=definition.name)
            for _call, definition, _aggregator, _argument_fns in call_plans
        ]
        results: List[Tuple[Any, Optional[Tuple[Any, ...]], List[Any]]] = []
        rows, segment_ids = relation.rows, relation.segment_ids
        for key, member_indices in groups.items():
            aggregate_values: List[Any] = []
            for position, (call, _definition, aggregator, argument_fns) in enumerate(call_plans):
                streams: List[list] = [[] for _ in range(max(relation.num_segments, 1))]
                for index in member_indices:
                    streams[segment_ids[index]].append(
                        (1,) if call.star else tuple(fn(rows[index]) for fn in argument_fns)
                    )
                value, timings = self._run_aggregate(
                    call, aggregator, streams, grouped=bool(statement.group_by)
                )
                aggregate_values.append(value)
                if single_group:
                    stats.aggregate_timings.append(timings)
                else:
                    grouped_timings[position].accumulate(timings)
            representative = rows[member_indices[0]] if member_indices else None
            results.append((key, representative, aggregate_values))
        if not single_group and groups:
            stats.aggregate_timings.extend(grouped_timings)
        return results


def reference_database(**kwargs: Any) -> Database:
    """A plain :class:`~repro.Database` (same keyword arguments) running the
    reference tier.  It takes no worker pool: the oracle folds in-process."""
    if kwargs.get("parallel"):
        raise ValueError("the reference tier folds in-process; it takes no worker pool")
    database = Database(**kwargs)
    database.executor = ReferenceExecutor(database)
    return database
