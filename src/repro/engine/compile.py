"""Query-time expression compilation.

The reference evaluator (:mod:`repro.engine.expressions`) builds a
``RowContext`` dict per row and tree-walks ``Expression.evaluate`` per node —
fine for correctness, but the Figure 4/5 benchmarks then measure interpreter
overhead instead of the aggregation pattern the paper studies.  This module
compiles an :class:`~repro.engine.expressions.Expression` tree **once per
query** into a Python closure over *positional* row tuples: column names are
resolved to tuple indices at plan time, scalar functions are looked up once,
and each node becomes a small closure, so per-row evaluation is a chain of
direct calls with no dict building and no ``isinstance`` dispatch.

:func:`compile_expression` is strict and serves two kinds of caller:

* **Planning gates** ask a yes/no question — can this conjunct be pushed
  below a join (``join.py``), probed through an index
  (``planner.choose_access_path``)?  ``None`` is their "no"; nothing is
  evaluated on the strength of it.
* **The evaluation seam**, ``Executor._compile``, is total: every site that
  evaluates an expression calls the ``fn(row)`` it returns.  Valid statements
  always compile; ``None`` there means a malformed statement (unknown column
  or function, unbound parameter, unknown cast type), and the seam substitutes
  the reference evaluator's adapter
  (:func:`~repro.engine.expressions.interpreted_row_function`) so the
  statement raises that tier's error on the first row it evaluates.

Aggregate and window calls are never evaluated per row: the executor computes
them and appends the values to the row, and the ``slots`` map
(``id(call node)`` → row position) compiles each such call to a positional
read.  ``tests/engine/test_compiled_parity.py`` holds the closures and the
reference evaluator to identical results and identical errors.

NULL semantics are inherited rather than re-implemented: compiled closures
call the *same* operator functions (``_BINARY_OPS``, :func:`is_null`,
``values_equal``, ``like_match``) the interpreted nodes use.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .expressions import (
    _BINARY_OPS,
    ArrayLiteral,
    Between,
    BinaryOp,
    Cast,
    CaseExpr,
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
    like_regex,
)
from ..errors import TypeMismatchError
from .types import (
    BIGINT,
    BOOLEAN,
    DOUBLE,
    INTEGER,
    SQLType,
    TEXT,
    coerce_value,
    is_null,
    type_from_name,
    values_equal,
)

__all__ = [
    "ColumnLayout",
    "VectorPredicate",
    "compile_expression",
    "compile_predicate_vector",
    "keys_for_columns",
]

#: Compiled row function: takes one positional row tuple, returns a value.
RowFunction = Callable[[Tuple[Any, ...]], Any]


class _Uncompilable(Exception):
    """Raised internally when a subtree is outside the compilable subset."""


def keys_for_columns(
    columns: Sequence[Tuple[Optional[str], str]]
) -> List[List[str]]:
    """The row-dict keys each ``(alias, name)`` column populates.

    This is the canonical name-visibility rule for a relation: a qualified key
    when the column has a source alias, plus the bare name when it is unique
    across the relation.  The reference evaluator's ``RowContext`` and
    :class:`ColumnLayout` (compiled tier) both derive from it, and
    the join planner uses it to build layouts for the *two-relation* case —
    each side alone plus the combined ``left.columns + right.columns`` row —
    so a pushed-down predicate resolves names exactly as the post-join row
    would.
    """
    bare_counts: Dict[str, int] = {}
    for _, name in columns:
        bare_counts[name.lower()] = bare_counts.get(name.lower(), 0) + 1
    keys: List[List[str]] = []
    for alias, name in columns:
        column_keys = []
        if alias:
            column_keys.append(f"{alias.lower()}.{name.lower()}")
        if bare_counts[name.lower()] == 1:
            column_keys.append(name.lower())
        elif not alias:
            column_keys.append(name.lower())
        keys.append(column_keys)
    return keys


class ColumnLayout:
    """Positional name resolution for one relation.

    Mirrors the key layout the reference evaluator's adapter builds
    (qualified key, then bare key when unambiguous, later duplicates winning)
    so that a compiled ``ColumnRef`` reads the same value the interpreted
    lookup would.
    """

    def __init__(self, keys_per_column: Sequence[Sequence[str]]) -> None:
        self.width = len(keys_per_column)
        self.key_to_index: Dict[str, int] = {}
        for index, keys in enumerate(keys_per_column):
            for key in keys:
                self.key_to_index[key] = index

    @classmethod
    def for_columns(cls, columns: Sequence[Tuple[Optional[str], str]]) -> "ColumnLayout":
        """Layout for a relation given as ``(alias, name)`` columns."""
        return cls(keys_for_columns(columns))

    def column_indices(self, expression: Expression) -> Optional[frozenset]:
        """Tuple indices of every column reference in ``expression``.

        ``None`` when any reference fails to resolve (missing or ambiguous
        name) — the join planner then abandons its plan so evaluation can
        raise the proper error.  An expression with no column
        references returns the empty set (a constant predicate).
        """
        indices = set()
        for node in expression.walk():
            if isinstance(node, ColumnRef):
                index = self.resolve(node.name, node.qualifier)
                if index is None:
                    return None
                indices.add(index)
        return frozenset(indices)

    def resolve(self, name: str, qualifier: Optional[str] = None) -> Optional[int]:
        """Tuple index for a column reference, or ``None`` if unresolvable.

        Follows ``RowContext.lookup``: qualified key first, then bare key,
        then a unique qualified match for a bare reference.  Ambiguous or
        missing names return ``None`` so the reference evaluator can raise
        the proper error.
        """
        if qualifier is not None:
            return self.key_to_index.get(f"{qualifier.lower()}.{name.lower()}")
        key = name.lower()
        if key in self.key_to_index:
            return self.key_to_index[key]
        suffix = "." + key
        matches = [k for k in self.key_to_index if k.endswith(suffix)]
        if len(matches) == 1:
            return self.key_to_index[matches[0]]
        return None


def compile_expression(
    expression: Expression,
    layout: ColumnLayout,
    functions: Dict[str, Callable[..., Any]],
    parameters: Optional[Dict[str, Any]] = None,
    aggregate_names: Optional[frozenset] = None,
    slots: Optional[Dict[int, int]] = None,
) -> Optional[RowFunction]:
    """Compile an expression tree to a closure over positional row tuples.

    ``slots`` maps ``id(node)`` of already-computed aggregate/window calls to
    the row position holding their value.  Returns ``None`` when any node is
    outside the compilable subset (see the module docstring for what callers
    do with that).
    """
    try:
        return _compile(
            expression,
            layout,
            functions,
            parameters or {},
            aggregate_names or frozenset(),
            slots or {},
        )
    except _Uncompilable:
        return None


def _compile(
    node: Expression,
    layout: ColumnLayout,
    functions: Dict[str, Callable[..., Any]],
    parameters: Dict[str, Any],
    aggregate_names: frozenset,
    slots: Dict[int, int],
) -> RowFunction:
    recurse = lambda child: _compile(
        child, layout, functions, parameters, aggregate_names, slots
    )

    if isinstance(node, Literal):
        value = node.value
        return lambda row: value

    if isinstance(node, ColumnRef):
        index = layout.resolve(node.name, node.qualifier)
        if index is None:
            raise _Uncompilable(node.qualified_name)
        return lambda row: row[index]

    if isinstance(node, Parameter):
        if node.name not in parameters:
            # Unbound parameter: the reference evaluator raises the error.
            raise _Uncompilable(node.name)
        value = parameters[node.name]
        return lambda row: value

    if isinstance(node, BinaryOp):
        op = node.op.lower()
        left = recurse(node.left)
        right = recurse(node.right)
        if op == "like":
            if isinstance(node.right, Literal) and isinstance(node.right.value, str):
                # Literal pattern (the common case): build the regex once at
                # plan time instead of once per row.
                regex = like_regex(node.right.value)
                return lambda row: (
                    None
                    if is_null(text := left(row))
                    else regex.match(str(text)) is not None
                )
            return lambda row: like_match(left(row), right(row))
        try:
            func = _BINARY_OPS[op]
        except KeyError:
            raise _Uncompilable(node.op) from None
        return lambda row: func(left(row), right(row))

    if isinstance(node, UnaryOp):
        operand = recurse(node.operand)
        op = node.op.lower()
        if op == "-":
            return lambda row: None if is_null(value := operand(row)) else -value
        if op == "+":
            return operand
        if op == "not":
            def negate(row):
                value = operand(row)
                if value is None:
                    return None
                return not bool(value)

            return negate
        raise _Uncompilable(node.op)

    if isinstance(node, (FunctionCall, WindowCall)) and id(node) in slots:
        slot = slots[id(node)]
        return lambda row: row[slot]

    if isinstance(node, WindowCall) or isinstance(node, Star):
        raise _Uncompilable(type(node).__name__)

    if isinstance(node, FunctionCall):
        name = node.name.lower()
        if node.star or node.distinct or name in aggregate_names:
            # Aggregates are evaluated by the executor, never per row.
            raise _Uncompilable(name)
        try:
            func = functions[name]
        except KeyError:
            raise _Uncompilable(name) from None
        arg_fns = [recurse(arg) for arg in node.args]
        if not arg_fns:
            return lambda row: func()
        if len(arg_fns) == 1:
            only = arg_fns[0]
            return lambda row: func(only(row))
        if len(arg_fns) == 2:
            first, second = arg_fns
            return lambda row: func(first(row), second(row))
        return lambda row: func(*[fn(row) for fn in arg_fns])

    if isinstance(node, CaseExpr):
        whens = [(recurse(cond), recurse(result)) for cond, result in node.whens]
        else_fn = recurse(node.else_result) if node.else_result is not None else None

        def case(row):
            for condition, result in whens:
                if condition(row) is True:
                    return result(row)
            if else_fn is not None:
                return else_fn(row)
            return None

        return case

    if isinstance(node, ArrayLiteral):
        item_fns = [recurse(item) for item in node.items]

        def array(row):
            values = [fn(row) for fn in item_fns]
            if values and all(isinstance(v, str) for v in values):
                return values
            return np.asarray(values, dtype=np.float64)

        return array

    if isinstance(node, Subscript):
        base = recurse(node.base)
        index_fn = recurse(node.index)

        def subscript(row):
            array = base(row)
            position = index_fn(row)
            if is_null(array) or is_null(position):
                return None
            idx = int(position) - 1
            if idx < 0 or idx >= len(array):
                return None
            value = array[idx]
            if isinstance(value, np.generic):
                return value.item()
            return value

        return subscript

    if isinstance(node, Cast):
        operand = recurse(node.operand)
        try:
            sql_type = type_from_name(node.type_name)
        except TypeMismatchError:
            raise _Uncompilable(node.type_name) from None
        return lambda row: coerce_value(operand(row), sql_type)

    if isinstance(node, InList):
        operand = recurse(node.operand)
        item_fns = [recurse(item) for item in node.items]
        negated = node.negated

        def in_list(row):
            value = operand(row)
            if is_null(value):
                return None
            found = any(values_equal(value, fn(row)) for fn in item_fns)
            return (not found) if negated else found

        return in_list

    if isinstance(node, IsNull):
        operand = recurse(node.operand)
        if node.negated:
            return lambda row: not is_null(operand(row))
        return lambda row: is_null(operand(row))

    if isinstance(node, Between):
        operand = recurse(node.operand)
        low_fn = recurse(node.low)
        high_fn = recurse(node.high)
        negated = node.negated

        def between(row):
            value = operand(row)
            low = low_fn(row)
            high = high_fn(row)
            if is_null(value) or is_null(low) or is_null(high):
                return None
            result = low <= value <= high
            return (not result) if negated else result

        return between

    raise _Uncompilable(type(node).__name__)


# ---------------------------------------------------------------------------
# Vectorized predicate compilation (columnar storage)
#
# A second, column-level compiler: instead of a closure called once per row,
# a supported WHERE clause compiles to a program that reads a segment's
# packed columns (:class:`~repro.engine.columnar.ColumnStore`) and evaluates
# the whole predicate with NumPy — one selection bitmap per segment, no
# per-row Python at all.
#
# The contract is the same as ``compile_expression``'s: byte-identical
# results or no compilation.  Anything whose NumPy semantics could diverge
# from the row operators declines, either at compile time
# (``compile_predicate_vector`` returns None) or at runtime
# (``VectorPredicate.mask`` returns None — e.g. a column demoted to an
# object list).  The executor then re-runs the query on the row path.
#
# Divergence hazards this subset is engineered around:
#
# * **int64 vs float comparisons.**  NumPy promotes int64 to float64, which
#   is inexact beyond 2**53; Python compares int-to-float exactly.  Whenever
#   an int column meets a float operand the mask aborts if any stored value
#   exceeds 2**53 in magnitude.  Int *literals* beyond 2**53 decline at
#   compile time for the same reason.
# * **int64 arithmetic.**  NumPy int64 arithmetic wraps silently where
#   Python promotes to arbitrary precision, so ``+ - *`` vectorize only when
#   every column operand is ``double precision``; int columns may still be
#   *compared*, where int64 is exact.
# * **NaN from float arithmetic.**  ``inf - inf`` is NaN, which SQL-side is
#   NULL (``is_null``); arithmetic results fold ``isnan`` into the null mask
#   so ``NOT (a - b > 0)`` agrees with the row path's three-valued logic.
# * **Three-valued logic.**  Boolean nodes carry ``(true_mask, null_mask)``;
#   AND/OR/NOT combine them with Kleene rules, mirroring ``_logical_and`` /
#   ``_logical_or`` exactly (False dominates AND, True dominates OR).
# ---------------------------------------------------------------------------

#: Largest int magnitude that float64 represents exactly — the admission
#: bound for int literals and the runtime guard for int columns meeting
#: float operands.
_SAFE_INT = 2 ** 53

_VECTOR_COMPARE_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_VECTOR_ARITH_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
}


class _VectorAbort(Exception):
    """Raised at mask time when a runtime precondition fails (→ row path)."""


class VectorPredicate:
    """A compiled segment-at-a-time WHERE program.

    :meth:`mask` evaluates the predicate over one segment's packed columns
    and returns the selection bitmap (True where the WHERE is satisfied), or
    ``None`` when a runtime precondition fails — the caller must then fall
    back to row-at-a-time evaluation for the whole statement.
    """

    __slots__ = ("_program",)

    def __init__(self, program) -> None:
        self._program = program

    def mask(self, store) -> Optional[np.ndarray]:
        length = len(store)
        try:
            true_mask, _nulls = self._program(store, length)
        except _VectorAbort:
            return None
        return true_mask


def compile_predicate_vector(
    expression: Expression,
    layout: ColumnLayout,
    column_types: Sequence[SQLType],
    parameters: Optional[Dict[str, Any]] = None,
) -> Optional[VectorPredicate]:
    """Compile a WHERE clause to a bitmap program, or ``None``.

    ``column_types`` gives the stored SQL type at each tuple position
    (``layout`` must resolve names to those same positions — i.e. the
    relation is a base-table scan in schema order).
    """
    try:
        program = _vector_bool(expression, layout, column_types, parameters or {})
    except _Uncompilable:
        return None
    return VectorPredicate(program)


def _mask_or(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> Optional[np.ndarray]:
    if a is None:
        return b
    if b is None:
        return a
    return a | b


def _check_int_exact(values: np.ndarray) -> None:
    """Abort when an int64 column holds values float64 cannot represent
    exactly (the comparison would be rounded; Python's would not)."""
    if len(values) and (values.max() > _SAFE_INT or values.min() < -_SAFE_INT):
        raise _VectorAbort


def _resolve_operand(spec, store, length):
    kind, payload = spec
    if kind == "scalar":
        return payload, None
    return payload(store, length)


def _vector_num(
    node: Expression,
    layout: ColumnLayout,
    column_types: Sequence[SQLType],
    parameters: Dict[str, Any],
):
    """Compile a numeric subtree to ``(kind, payload)``.

    ``kind`` is ``"scalar"`` (payload: the constant Python value),
    ``"f64"`` or ``"i64"`` (payload: ``fn(store, length) -> (values,
    null_mask)``).  Raises ``_Uncompilable`` outside the subset.
    """
    recurse = lambda child: _vector_num(child, layout, column_types, parameters)

    if isinstance(node, (Literal, Parameter)):
        if isinstance(node, Parameter):
            if node.name not in parameters:
                raise _Uncompilable(node.name)
            value = parameters[node.name]
        else:
            value = node.value
        if isinstance(value, bool):
            return ("scalar", value)
        if isinstance(value, int):
            if not -_SAFE_INT <= value <= _SAFE_INT:
                raise _Uncompilable("int literal beyond exact float64 range")
            return ("scalar", value)
        if isinstance(value, float):
            if math.isnan(value):
                # A NULL constant: let the row path run its NULL semantics.
                raise _Uncompilable("NaN literal")
            return ("scalar", value)
        raise _Uncompilable(type(value).__name__)

    if isinstance(node, ColumnRef):
        index = layout.resolve(node.name, node.qualifier)
        if index is None or index >= len(column_types):
            raise _Uncompilable(node.qualified_name)
        sql_type = column_types[index]
        if sql_type is DOUBLE:
            kind = "f64"
        elif sql_type is INTEGER or sql_type is BIGINT:
            kind = "i64"
        else:
            raise _Uncompilable(str(sql_type))

        def load(store, length, _index=index):
            view = store.numeric_view(_index)
            if view is None:
                # Demoted column (e.g. int beyond int64) — no packed buffer.
                raise _VectorAbort
            return view

        return (kind, load)

    if isinstance(node, UnaryOp):
        op = node.op.lower()
        if op == "+":
            return recurse(node.operand)
        if op == "-":
            kind, payload = recurse(node.operand)
            if kind == "scalar":
                return ("scalar", -payload)
            if kind != "f64":
                # Negating int64 can wrap at the boundary; Python cannot.
                raise _Uncompilable("negated int column")

            def negate(store, length, _inner=payload):
                values, nulls = _inner(store, length)
                return -values, nulls

            return ("f64", negate)
        raise _Uncompilable(node.op)

    if isinstance(node, BinaryOp):
        op = _VECTOR_ARITH_OPS.get(node.op.lower())
        if op is None:
            raise _Uncompilable(node.op)
        left = recurse(node.left)
        right = recurse(node.right)
        if left[0] == "scalar" and right[0] == "scalar":
            folded = op(left[1], right[1])
            if isinstance(folded, int) and not -_SAFE_INT <= folded <= _SAFE_INT:
                raise _Uncompilable("folded constant beyond exact float64 range")
            if isinstance(folded, float) and math.isnan(folded):
                raise _Uncompilable("folded NaN constant")
            return ("scalar", folded)
        if left[0] == "i64" or right[0] == "i64":
            # NumPy int64 arithmetic wraps; Python ints do not.  Comparisons
            # on int columns stay vectorized — arithmetic does not.
            raise _Uncompilable("int column arithmetic")

        def arith(store, length, _l=left, _r=right, _op=op):
            lv, ln = _resolve_operand(_l, store, length)
            rv, rn = _resolve_operand(_r, store, length)
            with np.errstate(all="ignore"):
                values = _op(lv, rv)
            nulls = _mask_or(ln, rn)
            # Float arithmetic can *produce* NaN (inf - inf) which SQL-side
            # is NULL; stored-NULL placeholders are NaN and propagate here,
            # so isnan covers both.
            nan_mask = np.isnan(values)
            if nan_mask.any():
                nulls = _mask_or(nulls, nan_mask)
            return values, nulls

        return ("f64", arith)

    raise _Uncompilable(type(node).__name__)


def _vector_compare(op, left, right):
    """Comparison program over two numeric operand specs → bool program."""
    if left[0] == "scalar" and right[0] == "scalar":
        # Constant predicate: no bitmap width driver, row path handles it.
        raise _Uncompilable("constant comparison")

    # An int64 operand meeting any float operand is promoted to float64 by
    # NumPy (inexact beyond 2**53) where Python compares exactly — guard the
    # int side's magnitude at mask time.  Scalar ints are admitted only
    # within the exact range, so int-vs-int never needs the guard.
    def _is_floatish(spec):
        return spec[0] == "f64" or (
            spec[0] == "scalar" and isinstance(spec[1], float)
        )

    guard_left = left[0] == "i64" and _is_floatish(right)
    guard_right = right[0] == "i64" and _is_floatish(left)

    def compare(store, length, _l=left, _r=right, _op=op):
        lv, ln = _resolve_operand(_l, store, length)
        rv, rn = _resolve_operand(_r, store, length)
        if guard_left:
            _check_int_exact(lv)
        if guard_right:
            _check_int_exact(rv)
        with np.errstate(invalid="ignore"):
            result = _op(lv, rv)
        nulls = _mask_or(ln, rn)
        if nulls is not None:
            result = result & ~nulls
        return result, nulls

    return compare


# ---------------------------------------------------------------------------
# Code-space predicate programs (dictionary-encoded columns)
#
# A predicate over a dictionary-encoded text/boolean column needs the row
# operator evaluated once **per distinct value**, not per row: evaluate the
# exact row-tier operator over the dictionary (plus the NULL entry) into a
# pair of lookup tables, then one fancy-index over the int16 code array
# yields the (true, null) bitmaps.  Constants therefore resolve against the
# dictionary once per segment; a constant no dictionary entry satisfies
# simply produces an all-false table — Kleene short-circuit for free.
# Because the *row operators themselves* build the tables, NULL constants,
# type mismatches and three-valued logic agree with the row path by
# construction; anything the row operator raises on aborts the mask and the
# row path re-runs (and re-raises) it.
# ---------------------------------------------------------------------------

#: Stored types eligible for dictionary encoding (must mirror
#: ``ColumnStore._new_column``).
_DICT_TYPES = (TEXT, BOOLEAN)


def _dict_column(
    node: Expression, layout: ColumnLayout, column_types: Sequence[SQLType]
) -> Optional[int]:
    """Tuple index of a dictionary-eligible column reference, or ``None``."""
    if not isinstance(node, ColumnRef):
        return None
    index = layout.resolve(node.name, node.qualifier)
    if index is None or index >= len(column_types):
        return None
    if column_types[index] not in _DICT_TYPES:
        return None
    return index


def _dict_constant(node: Expression, parameters: Dict[str, Any]) -> Any:
    """The Python value of a constant operand (any type — the row operator
    decides what it means, including NULL)."""
    if isinstance(node, Literal):
        return node.value
    if isinstance(node, Parameter):
        if node.name not in parameters:
            raise _Uncompilable(node.name)
        return parameters[node.name]
    raise _Uncompilable(type(node).__name__)


def _dict_program(column_index: int, rowfn: Callable[[Any], Any]):
    """Boolean program evaluating ``rowfn`` over a column's dictionary.

    ``rowfn`` is a closure over the row-tier operator and the resolved
    constant; it is called once per dictionary entry plus once for ``None``
    and must return ``True``/``False``/``None`` (SQL three-valued result).
    Anything else — including an exception — aborts to the row path.
    """

    def program(store, length, _index=column_index, _rowfn=rowfn):
        view = store.dict_view(_index)
        if view is None:  # a demoted column: no code space to run in
            raise _VectorAbort
        codes, values = view
        size = len(values)
        true_lut = np.zeros(size + 1, dtype=bool)
        null_lut = np.zeros(size + 1, dtype=bool)
        try:
            for code in range(size + 1):
                # The final slot is the NULL entry; code -1 wraps to it.
                result = _rowfn(values[code] if code < size else None)
                if result is None:
                    null_lut[code] = True
                elif result is True:
                    true_lut[code] = True
                elif result is not False:
                    raise _VectorAbort
        except _VectorAbort:
            raise
        except Exception:
            # The row operator would raise for this column/constant pairing
            # (e.g. a cross-type ordering) — let the row path raise it.
            raise _VectorAbort
        true_mask = true_lut[codes]
        null_mask = null_lut[codes]
        return true_mask, (null_mask if null_mask.any() else None)

    return program


def _dict_compare(
    node: BinaryOp,
    layout: ColumnLayout,
    column_types: Sequence[SQLType],
    parameters: Dict[str, Any],
):
    """Comparison of a dictionary column against a constant, in code space."""
    func = _BINARY_OPS.get(node.op.lower())
    if func is None:
        raise _Uncompilable(node.op)
    left_index = _dict_column(node.left, layout, column_types)
    right_index = _dict_column(node.right, layout, column_types)
    if left_index is not None and right_index is None:
        constant = _dict_constant(node.right, parameters)
        return _dict_program(
            left_index, lambda value, _f=func, _c=constant: _f(value, _c)
        )
    if right_index is not None and left_index is None:
        constant = _dict_constant(node.left, parameters)
        return _dict_program(
            right_index, lambda value, _f=func, _c=constant: _f(_c, value)
        )
    raise _Uncompilable(node.op)


def _vector_bool(
    node: Expression,
    layout: ColumnLayout,
    column_types: Sequence[SQLType],
    parameters: Dict[str, Any],
):
    """Compile a boolean subtree to ``fn(store, length) -> (true, nulls)``.

    ``true`` is the satisfied-row bitmap; ``nulls`` marks rows where the
    predicate evaluates to SQL NULL (``None`` when provably none do).  False
    rows are the remainder — exactly Kleene three-valued logic.
    """
    recurse = lambda child: _vector_bool(child, layout, column_types, parameters)
    recurse_num = lambda child: _vector_num(child, layout, column_types, parameters)

    if isinstance(node, BinaryOp):
        op_name = node.op.lower()
        compare_op = _VECTOR_COMPARE_OPS.get(op_name)
        if compare_op is not None:
            try:
                operands = (recurse_num(node.left), recurse_num(node.right))
            except _Uncompilable:
                # Outside the numeric subset — a text/boolean comparison may
                # still run in code space over a dictionary column.
                return _dict_compare(node, layout, column_types, parameters)
            return _vector_compare(compare_op, *operands)
        if op_name == "like":
            index = _dict_column(node.left, layout, column_types)
            if index is None:
                raise _Uncompilable("like")
            pattern = _dict_constant(node.right, parameters)
            # ``like_match`` is the row tier's operator (NULL-propagating,
            # ``str(text)``); evaluated per dictionary entry the regex still
            # compiles only once per distinct value per segment.
            return _dict_program(
                index, lambda value, _p=pattern: like_match(value, _p)
            )
        if op_name == "and":
            left, right = recurse(node.left), recurse(node.right)

            def kleene_and(store, length, _l=left, _r=right):
                t1, n1 = _l(store, length)
                t2, n2 = _r(store, length)
                t = t1 & t2
                if n1 is None and n2 is None:
                    return t, None
                f1 = ~t1 if n1 is None else ~(t1 | n1)
                f2 = ~t2 if n2 is None else ~(t2 | n2)
                n = ~(t | f1 | f2)
                return t, (n if n.any() else None)

            return kleene_and
        if op_name == "or":
            left, right = recurse(node.left), recurse(node.right)

            def kleene_or(store, length, _l=left, _r=right):
                t1, n1 = _l(store, length)
                t2, n2 = _r(store, length)
                t = t1 | t2
                if n1 is None and n2 is None:
                    return t, None
                f1 = ~t1 if n1 is None else ~(t1 | n1)
                f2 = ~t2 if n2 is None else ~(t2 | n2)
                n = ~(t | (f1 & f2))
                return t, (n if n.any() else None)

            return kleene_or
        raise _Uncompilable(node.op)

    if isinstance(node, UnaryOp):
        if node.op.lower() != "not":
            raise _Uncompilable(node.op)
        inner = recurse(node.operand)

        def kleene_not(store, length, _inner=inner):
            t, n = _inner(store, length)
            return (~t if n is None else ~(t | n)), n

        return kleene_not

    if isinstance(node, IsNull):
        negated = node.negated
        try:
            spec = recurse_num(node.operand)
        except _Uncompilable:
            index = _dict_column(node.operand, layout, column_types)
            if index is None:
                raise
            return _dict_program(
                index,
                lambda value, _n=negated: (not is_null(value)) if _n else is_null(value),
            )
        if spec[0] == "scalar":
            raise _Uncompilable("IS NULL on constant")

        def is_null_mask(store, length, _spec=spec):
            _, nulls = _resolve_operand(_spec, store, length)
            if negated:
                return (np.ones(length, dtype=bool) if nulls is None else ~nulls), None
            return (np.zeros(length, dtype=bool) if nulls is None else nulls), None

        return is_null_mask

    if isinstance(node, InList):
        index = _dict_column(node.operand, layout, column_types)
        if index is None:
            raise _Uncompilable("in")
        items = [_dict_constant(item, parameters) for item in node.items]
        negated = node.negated

        # Mirrors the compiled row tier's ``in_list`` closure exactly:
        # NULL operand → NULL; membership via ``values_equal``.
        def in_dictionary(value, _items=items, _negated=negated):
            if is_null(value):
                return None
            found = any(values_equal(value, item) for item in _items)
            return (not found) if _negated else found

        return _dict_program(index, in_dictionary)

    if isinstance(node, Between):
        # BETWEEN is the conjunction of two comparisons; the operands' null
        # masks are shared, so Kleene AND reproduces the row semantics ("any
        # NULL → NULL") exactly.  NOT BETWEEN is Kleene NOT of the range.
        inrange = BinaryOp(
            "and",
            BinaryOp("<=", node.low, node.operand),
            BinaryOp("<=", node.operand, node.high),
        )
        program = recurse(inrange)
        if not node.negated:
            return program

        def negate(store, length, _inner=program):
            t, n = _inner(store, length)
            return (~t if n is None else ~(t | n)), n

        return negate

    raise _Uncompilable(type(node).__name__)
