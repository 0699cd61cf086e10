"""Expression AST and the SQL operator functions.

Expressions are shared between the SQL parser (which builds them from text)
and programmatic callers (driver code may build them directly).  The nodes
are plain data: :mod:`repro.engine.compile` turns a tree into a closure over
positional rows once per statement, and that closure is the only way the
engine evaluates one.  Aggregate and window calls are *not* evaluated per
row — the executor computes them and the compiled closure reads each value
back from its slot in the row (see :mod:`repro.engine.executor`), which
mirrors how a database separates scalar expression evaluation from
aggregation.

The operator functions below (``_BINARY_OPS``, :func:`like_match`) carry the
SQL NULL semantics; the compiled closures, the code-space predicate programs
and the test suite's reference evaluator all call them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import ExecutionError
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
    "like_match",
    "like_regex",
]


class Expression:
    """Base class for all expression nodes."""

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


# ---------------------------------------------------------------------------
# Leaf nodes
# ---------------------------------------------------------------------------


@dataclass
class Literal(Expression):
    value: Any


@dataclass
class ColumnRef(Expression):
    name: str
    qualifier: Optional[str] = None

    @property
    def qualified_name(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name


@dataclass
class Star(Expression):
    """``*`` or ``alias.*`` in a select list (expanded by the executor)."""

    qualifier: Optional[str] = None


@dataclass
class Parameter(Expression):
    """A named parameter (``%(name)s`` style) bound at execution time.

    Driver functions use parameters instead of string interpolation for
    values, which avoids quoting problems when templating SQL.
    """

    name: str


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

    Shared by the row closures and the code-space predicate programs of
    :mod:`repro.engine.compile`, so the two cannot drift.
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


@dataclass
class UnaryOp(Expression):
    op: str
    operand: Expression

    def children(self) -> List[Expression]:
        return [self.operand]


@dataclass
class FunctionCall(Expression):
    name: str
    args: List[Expression] = field(default_factory=list)
    distinct: bool = False
    star: bool = False  # count(*)

    def children(self) -> List[Expression]:
        return list(self.args)


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


@dataclass
class ArrayLiteral(Expression):
    items: List[Expression]

    def children(self) -> List[Expression]:
        return list(self.items)


@dataclass
class Subscript(Expression):
    """One-based array indexing, ``x[i]``, matching PostgreSQL semantics."""

    base: Expression
    index: Expression

    def children(self) -> List[Expression]:
        return [self.base, self.index]


@dataclass
class Cast(Expression):
    operand: Expression
    type_name: str

    def children(self) -> List[Expression]:
        return [self.operand]


@dataclass
class InList(Expression):
    operand: Expression
    items: List[Expression]
    negated: bool = False

    def children(self) -> List[Expression]:
        return [self.operand] + list(self.items)


@dataclass
class IsNull(Expression):
    operand: Expression
    negated: bool = False

    def children(self) -> List[Expression]:
        return [self.operand]


@dataclass
class Between(Expression):
    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def children(self) -> List[Expression]:
        return [self.operand, self.low, self.high]
