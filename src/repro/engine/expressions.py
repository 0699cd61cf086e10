"""Expression AST and evaluator.

Expressions are shared between the SQL parser (which builds them from text)
and programmatic callers (driver code may build them directly).  Evaluation
happens against a :class:`RowContext` mapping column names to values plus the
catalog's function registry; aggregate calls are *not* evaluated here — the
executor replaces them with pre-computed values (see
:mod:`repro.engine.executor`), which mirrors how a database separates scalar
expression evaluation from aggregation.

``Expression.evaluate`` is the engine's *reference evaluator*.  The executor
never calls it directly: :func:`interpreted_row_function` adapts it to the
positional-row ``fn(row)`` shape every evaluation site uses, and
``Executor._compile`` hands that adapter out only when the closure compiler
(:mod:`repro.engine.compile`) declines a malformed statement — so the
statement raises this module's errors on the first row it evaluates — or when
``Database(compiled_execution=False)`` selects the reference tier.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ExecutionError, FunctionError
from .types import is_null, values_equal

__all__ = [
    "Expression",
    "Literal",
    "ColumnRef",
    "Star",
    "Parameter",
    "BinaryOp",
    "UnaryOp",
    "FunctionCall",
    "WindowCall",
    "WindowSpec",
    "CaseExpr",
    "ArrayLiteral",
    "Subscript",
    "Cast",
    "InList",
    "IsNull",
    "Between",
    "RowContext",
    "interpreted_row_function",
    "like_match",
    "like_regex",
]


class Expression:
    """Base class for all expression nodes."""

    def evaluate(self, context: "RowContext") -> Any:
        raise NotImplementedError

    def children(self) -> List["Expression"]:
        return []

    def walk(self) -> Iterable["Expression"]:
        """Pre-order traversal of the expression tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def contains_aggregate(self, is_aggregate: Callable[[str], bool]) -> bool:
        """Whether any function call in the tree names a known aggregate."""
        for node in self.walk():
            if isinstance(node, FunctionCall) and is_aggregate(node.name):
                return True
        return False

    def column_references(self) -> List["ColumnRef"]:
        return [node for node in self.walk() if isinstance(node, ColumnRef)]


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


def interpreted_row_function(
    expression: Expression,
    keys_per_column: Sequence[Sequence[str]],
    functions: Optional[Dict[str, Callable[..., Any]]],
    parameters: Optional[Dict[str, Any]],
    slots: Optional[Dict[int, int]] = None,
) -> Callable[[Tuple[Any, ...]], Any]:
    """The reference evaluator behind the executor's ``fn(row)`` seam.

    Returns a function over one positional row that builds the row's
    :class:`RowContext` — ``keys_per_column[i]`` are the names column ``i``
    answers to, ``slots`` maps ``id(call node)`` to the trailing row position
    holding that aggregate/window call's computed value — and tree-walks
    :meth:`Expression.evaluate`.  Nothing is resolved ahead of time, so a
    malformed expression raises on the first row evaluated and never on an
    empty input.
    """
    slot_items = tuple((slots or {}).items())

    def evaluate_row(row: Tuple[Any, ...]) -> Any:
        values: Dict[str, Any] = {}
        for keys, value in zip(keys_per_column, row):
            for key in keys:
                values[key] = value
        placeholders = {node_id: row[index] for node_id, index in slot_items}
        return expression.evaluate(
            RowContext(values, functions, parameters, placeholders)
        )

    return evaluate_row


# ---------------------------------------------------------------------------
# Leaf nodes
# ---------------------------------------------------------------------------


@dataclass
class Literal(Expression):
    value: Any

    def evaluate(self, context: RowContext) -> Any:
        return self.value


@dataclass
class ColumnRef(Expression):
    name: str
    qualifier: Optional[str] = None

    def evaluate(self, context: RowContext) -> Any:
        return context.lookup(self.name, self.qualifier)

    @property
    def qualified_name(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name


@dataclass
class Star(Expression):
    """``*`` or ``alias.*`` in a select list (expanded by the executor)."""

    qualifier: Optional[str] = None

    def evaluate(self, context: RowContext) -> Any:  # pragma: no cover - expanded earlier
        raise ExecutionError("'*' cannot be evaluated as a scalar expression")


@dataclass
class Parameter(Expression):
    """A named parameter (``%(name)s`` style) bound at execution time.

    Driver functions use parameters instead of string interpolation for
    values, which avoids quoting problems when templating SQL.
    """

    name: str

    def evaluate(self, context: RowContext) -> Any:
        if self.name not in context.parameters:
            raise ExecutionError(f"parameter {self.name!r} was not bound")
        return context.parameters[self.name]


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def _numeric_binary(op: Callable[[Any, Any], Any], symbol: str):
    def apply(left: Any, right: Any) -> Any:
        if is_null(left) or is_null(right):
            return None
        if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
            return op(np.asarray(left, dtype=np.float64), np.asarray(right, dtype=np.float64))
        try:
            return op(left, right)
        except TypeError as exc:
            raise ExecutionError(f"operator {symbol} not supported for {left!r}, {right!r}") from exc

    return apply


def _divide(left: Any, right: Any) -> Any:
    if is_null(left) or is_null(right):
        return None
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return np.asarray(left, dtype=np.float64) / np.asarray(right, dtype=np.float64)
    if right == 0:
        raise ExecutionError("division by zero")
    if isinstance(left, int) and isinstance(right, int):
        # PostgreSQL integer division truncates; methods that need a real
        # quotient cast one operand to double precision, and so do we.
        return left // right
    return left / right


def _comparison(op: Callable[[Any, Any], bool]):
    def apply(left: Any, right: Any) -> Optional[bool]:
        if is_null(left) or is_null(right):
            return None
        if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
            if op is operator.eq:
                return values_equal(left, right)
            if op is operator.ne:
                return not values_equal(left, right)
        return bool(op(left, right))

    return apply


def _logical_and(left: Any, right: Any) -> Optional[bool]:
    # SQL three-valued logic.
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def _logical_or(left: Any, right: Any) -> Optional[bool]:
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def like_regex(pattern: str) -> "re.Pattern":
    """Compiled regex for a SQL ``LIKE`` pattern (``%``/``_`` wildcards).

    Separate from :func:`like_match` so the expression compiler can hoist
    regex construction to plan time when the pattern is a literal.
    """
    import re

    regex = "^" + re.escape(pattern).replace("%", ".*").replace("_", ".") + "$"
    # re.escape escapes % and _ themselves; undo that.
    regex = regex.replace(re.escape("%"), ".*").replace(re.escape("_"), ".")
    return re.compile(regex)


def like_match(text: Any, pattern: Any) -> Optional[bool]:
    """SQL ``LIKE``: ``%``/``_`` wildcards, NULL-propagating.

    Shared by the interpreted evaluator and the compiled closures in
    :mod:`repro.engine.compile` so the two tiers cannot drift.
    """
    if is_null(text) or is_null(pattern):
        return None
    return like_regex(pattern).match(str(text)) is not None


def _concat_op(left: Any, right: Any) -> Any:
    if is_null(left) or is_null(right):
        return None
    if isinstance(left, (list, np.ndarray)) or isinstance(right, (list, np.ndarray)):
        return np.concatenate(
            [np.atleast_1d(np.asarray(left)), np.atleast_1d(np.asarray(right))]
        )
    return str(left) + str(right)


_BINARY_OPS: Dict[str, Callable[[Any, Any], Any]] = {
    "+": _numeric_binary(operator.add, "+"),
    "-": _numeric_binary(operator.sub, "-"),
    "*": _numeric_binary(operator.mul, "*"),
    "/": _divide,
    "%": _numeric_binary(operator.mod, "%"),
    "^": _numeric_binary(operator.pow, "^"),
    "=": _comparison(operator.eq),
    "!=": _comparison(operator.ne),
    "<>": _comparison(operator.ne),
    "<": _comparison(operator.lt),
    "<=": _comparison(operator.le),
    ">": _comparison(operator.gt),
    ">=": _comparison(operator.ge),
    "and": _logical_and,
    "or": _logical_or,
    "||": _concat_op,
}


@dataclass
class BinaryOp(Expression):
    op: str
    left: Expression
    right: Expression

    def children(self) -> List[Expression]:
        return [self.left, self.right]

    def evaluate(self, context: RowContext) -> Any:
        op = self.op.lower()
        if op == "like":
            return self._like(context)
        try:
            func = _BINARY_OPS[op]
        except KeyError:
            raise ExecutionError(f"unsupported operator {self.op!r}") from None
        if op in ("and", "or"):
            return func(self.left.evaluate(context), self.right.evaluate(context))
        return func(self.left.evaluate(context), self.right.evaluate(context))

    def _like(self, context: RowContext) -> Optional[bool]:
        return like_match(self.left.evaluate(context), self.right.evaluate(context))


@dataclass
class UnaryOp(Expression):
    op: str
    operand: Expression

    def children(self) -> List[Expression]:
        return [self.operand]

    def evaluate(self, context: RowContext) -> Any:
        value = self.operand.evaluate(context)
        op = self.op.lower()
        if op == "-":
            return None if is_null(value) else -value
        if op == "+":
            return value
        if op == "not":
            if value is None:
                return None
            return not bool(value)
        raise ExecutionError(f"unsupported unary operator {self.op!r}")


@dataclass
class FunctionCall(Expression):
    name: str
    args: List[Expression] = field(default_factory=list)
    distinct: bool = False
    star: bool = False  # count(*)

    def children(self) -> List[Expression]:
        return list(self.args)

    def evaluate(self, context: RowContext) -> Any:
        # An aggregate call the executor already computed arrives as a
        # placeholder; anything else reaching this point is a scalar call.
        if id(self) in context.placeholders:
            return context.placeholders[id(self)]
        argument_values = [arg.evaluate(context) for arg in self.args]
        return context.call(self.name, argument_values)


@dataclass
class WindowSpec:
    partition_by: List[Expression] = field(default_factory=list)
    order_by: List[Tuple[Expression, bool]] = field(default_factory=list)  # (expr, ascending)


@dataclass
class WindowCall(Expression):
    """An aggregate or ranking function with an ``OVER (...)`` clause."""

    function: FunctionCall
    spec: WindowSpec

    def children(self) -> List[Expression]:
        children: List[Expression] = [self.function]
        children.extend(self.spec.partition_by)
        children.extend(expr for expr, _ in self.spec.order_by)
        return children

    def evaluate(self, context: RowContext) -> Any:
        if id(self) in context.placeholders:
            return context.placeholders[id(self)]
        raise ExecutionError(
            "window function evaluated outside of a windowed query context"
        )


@dataclass
class CaseExpr(Expression):
    whens: List[Tuple[Expression, Expression]]
    else_result: Optional[Expression] = None

    def children(self) -> List[Expression]:
        nodes: List[Expression] = []
        for condition, result in self.whens:
            nodes.extend([condition, result])
        if self.else_result is not None:
            nodes.append(self.else_result)
        return nodes

    def evaluate(self, context: RowContext) -> Any:
        for condition, result in self.whens:
            if condition.evaluate(context) is True:
                return result.evaluate(context)
        if self.else_result is not None:
            return self.else_result.evaluate(context)
        return None


@dataclass
class ArrayLiteral(Expression):
    items: List[Expression]

    def children(self) -> List[Expression]:
        return list(self.items)

    def evaluate(self, context: RowContext) -> Any:
        values = [item.evaluate(context) for item in self.items]
        if values and all(isinstance(v, str) for v in values):
            return values
        return np.asarray(values, dtype=np.float64)


@dataclass
class Subscript(Expression):
    """One-based array indexing, ``x[i]``, matching PostgreSQL semantics."""

    base: Expression
    index: Expression

    def children(self) -> List[Expression]:
        return [self.base, self.index]

    def evaluate(self, context: RowContext) -> Any:
        array = self.base.evaluate(context)
        position = self.index.evaluate(context)
        if is_null(array) or is_null(position):
            return None
        idx = int(position) - 1
        if idx < 0 or idx >= len(array):
            return None
        value = array[idx]
        if isinstance(value, np.generic):
            return value.item()
        return value


@dataclass
class Cast(Expression):
    operand: Expression
    type_name: str

    def children(self) -> List[Expression]:
        return [self.operand]

    def evaluate(self, context: RowContext) -> Any:
        from .types import coerce_value, type_from_name

        return coerce_value(self.operand.evaluate(context), type_from_name(self.type_name))


@dataclass
class InList(Expression):
    operand: Expression
    items: List[Expression]
    negated: bool = False

    def children(self) -> List[Expression]:
        return [self.operand] + list(self.items)

    def evaluate(self, context: RowContext) -> Any:
        value = self.operand.evaluate(context)
        if is_null(value):
            return None
        found = any(values_equal(value, item.evaluate(context)) for item in self.items)
        return (not found) if self.negated else found


@dataclass
class IsNull(Expression):
    operand: Expression
    negated: bool = False

    def children(self) -> List[Expression]:
        return [self.operand]

    def evaluate(self, context: RowContext) -> Any:
        result = is_null(self.operand.evaluate(context))
        return (not result) if self.negated else result


@dataclass
class Between(Expression):
    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def children(self) -> List[Expression]:
        return [self.operand, self.low, self.high]

    def evaluate(self, context: RowContext) -> Any:
        value = self.operand.evaluate(context)
        low = self.low.evaluate(context)
        high = self.high.evaluate(context)
        if is_null(value) or is_null(low) or is_null(high):
            return None
        result = low <= value <= high
        return (not result) if self.negated else result
