"""Batched aggregate transition kernels for the segmented execution path.

The paper's measurement target is the user-defined-aggregate pattern itself
(per-segment transition folds plus a merge tree); the interpreted engine adds
one Python call per row on top of it, which at laptop scale dominates the
Figure 4/5 numbers.  A *batch transition* consumes one segment's argument
values as whole columns in a single call — NumPy reductions or C-speed
builtins instead of a per-row fold — while keeping the state/merge/final
contract of :class:`~repro.engine.aggregates.AggregateDefinition` intact.

Rules of engagement:

* A batch kernel must be semantically interchangeable with folding the
  row-at-a-time transition over the same (strict-filtered) rows; the parity
  suite enforces this.
* Order-sensitive aggregates (``array_agg``, ``string_agg``) deliberately
  have **no** batch kernel: their result depends on row order within a
  segment, so they always take the deterministic row-at-a-time fold.
* Any exception raised by a batch kernel (ragged arrays, unsupported operand
  types) makes the caller silently fall back to the row-at-a-time fold, so a
  batch kernel never changes which queries succeed.

User-defined aggregates may opt in by setting ``batch_transition`` on their
definition (``linregr``'s v0.3 kernel does); everything else automatically
falls back, leaving the driver-function methods untouched.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ColumnBatch",
    "ConstantColumn",
    "constant_argument",
    "matrix_argument",
    "strict_filter_columns",
    "builtin_batch_transitions",
]


class ConstantColumn(Sequence):
    """A column of one repeated value, stored in O(1) space.

    ``count(*)``'s synthetic ``1`` argument and any aggregate argument that is
    a plan-time constant (a literal or bound parameter): the columnar path
    never materializes N copies, and a batch kernel reads ``.value`` once.
    """

    __slots__ = ("value", "length")

    def __init__(self, value: Any, length: int) -> None:
        self.value = value
        self.length = length

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[Any]:
        return repeat(self.value, self.length)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ConstantColumn(self.value, len(range(*index.indices(self.length))))
        if -self.length <= index < self.length:
            return self.value
        raise IndexError(index)

    def __reduce__(self):
        # O(1) wire format regardless of length (slots classes need explicit
        # support anyway; the worker pool ships these for count(*)).
        return (ConstantColumn, (self.value, self.length))


def constant_argument(column: Sequence[Any]) -> Any:
    """The one value of a batch-kernel argument that must not vary by row: the
    engine hands a plan-time constant over as a :class:`ConstantColumn`.
    Anything else may vary, so the kernel declines (the row fold takes over)."""
    if not isinstance(column, ConstantColumn):
        raise TypeError("argument is not a plan-time constant")
    return column.value


def matrix_argument(column: Sequence[Any]) -> np.ndarray:
    """A ``double precision[]`` batch-kernel argument as one ``(rows, width)``
    float64 array (a stored column's cached view when it has one); raises —
    row fold — for ragged or NULL-holding input."""
    matrix = np.asarray(column, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("batch kernel needs uniform-width arrays")
    return matrix


class ColumnBatch:
    """One segment's aggregate arguments, stored as columns.

    The executor produces these directly from a table's cached columnar view
    when an aggregate's arguments are plain column references, skipping
    per-row argument evaluation entirely.  ``prefiltered`` marks a batch
    whose rows are already known NULL-free (e.g. ``count(*)``'s constant
    argument), letting strict aggregates skip the null scan.
    """

    __slots__ = ("columns", "length", "prefiltered")

    def __init__(
        self, columns: Tuple[Sequence[Any], ...], *, prefiltered: bool = False
    ) -> None:
        self.columns = columns
        self.length = len(columns[0]) if columns else 0
        self.prefiltered = prefiltered

    def __len__(self) -> int:
        return self.length

    def rows(self) -> List[Tuple[Any, ...]]:
        """Row-tuple view (for the row-at-a-time fallback fold)."""
        if not self.columns:
            return [()] * self.length
        return list(zip(*self.columns))

    def __reduce__(self):
        # Compact segment-batch export for the parallel worker pool: float
        # columns travel as packed C-double buffers instead of one pickle op
        # per value.  ``array('d').tolist()`` restores bit-identical Python
        # floats, so shipping a batch through a worker cannot change results.
        return (
            _rebuild_column_batch,
            (tuple(_pack_column(column) for column in self.columns), self.prefiltered),
        )


def _pack_column(column: Sequence[Any]) -> Tuple[str, Any]:
    """Wire format for one column: packed typed buffer or ('raw', values)."""
    if isinstance(column, ConstantColumn):
        return ("const", column)
    # Columnar-native storage: a clean packed column ships its typed buffer
    # as-is — near-zero-copy (pickling an ``array`` is one memcpy), no
    # per-value scan at all.
    wire = getattr(column, "packed_wire", None)
    if wire is not None:
        packed = wire()
        if packed is not None:
            return packed
    # `type(v) is float` (not isinstance) keeps bools/ints/np.float64 on the
    # raw path so the round-trip preserves value types exactly.  len() (not
    # truthiness) so array-likes without a scalar bool (ndarray) stay raw.
    if len(column) and all(type(value) is float for value in column):
        return ("f64", array("d", column))
    return ("raw", list(column))


def _unpack_column(packed: Tuple[str, Any]) -> Sequence[Any]:
    # 'f64'/'i64' buffers restore via ``tolist`` — bit-identical Python
    # floats / exact ints, so shipping never changes results.
    tag, payload = packed
    if tag in ("f64", "i64"):
        return payload.tolist()
    if tag == "dict16":
        # Dictionary-encoded column: int16 code buffer + value dictionary
        # (code -1 is SQL NULL).  Decoding shares the dictionary's value
        # objects, so the round-trip is value-identical.
        codes, values = payload
        return [None if code < 0 else values[code] for code in codes]
    return payload


def _rebuild_column_batch(packed_columns, prefiltered: bool) -> "ColumnBatch":
    return ColumnBatch(
        tuple(_unpack_column(packed) for packed in packed_columns), prefiltered=prefiltered
    )


def _null_positions(column: Sequence[Any]) -> Optional[set]:
    """Indices of SQL-NULL entries (None or float NaN), or None when clean.

    The NaN test must mirror ``types.is_null`` (``isinstance(value, float)``)
    so float subclasses like ``np.float64`` are filtered identically on both
    execution tiers.
    """
    # Packed columns (columnar storage) answer from their cached null mask —
    # one vectorized isnan / bitmap read instead of a per-value Python scan.
    finder = getattr(column, "null_positions", None)
    if finder is not None:
        return finder()
    positions = {
        i
        for i, value in enumerate(column)
        if value is None or (isinstance(value, float) and value != value)
    }
    return positions or None


def strict_filter_columns(
    columns: Tuple[Sequence[Any], ...]
) -> Tuple[Tuple[Sequence[Any], ...], int]:
    """Drop rows where *any* argument is NULL (strict-aggregate semantics).

    Returns ``(filtered_columns, surviving_row_count)``.  The common all-clean
    case returns the input columns unchanged without copying.
    """
    if not columns:
        return columns, 0
    nulls: Optional[set] = None
    for column in columns:
        positions = _null_positions(column)
        if positions:
            nulls = positions if nulls is None else nulls | positions
    if not nulls:
        return columns, len(columns[0])
    kept = len(columns[0]) - len(nulls)
    filtered = tuple(
        ConstantColumn(column.value, kept)  # stays a constant for the batch kernels
        if isinstance(column, ConstantColumn)
        else [value for i, value in enumerate(column) if i not in nulls]
        for column in columns
    )
    return filtered, kept


# ---------------------------------------------------------------------------
# Built-in batch kernels
#
# Each kernel receives the already strict-filtered argument columns and the
# incoming state, and must return the same state a sequential fold of the
# matching row-at-a-time transition would have produced (bit-identical where
# the arithmetic allows: Python ``sum``/``min``/``max`` are sequential left
# folds, so count/sum/avg/min/max/bool_* are exact; the variance family uses
# a two-pass batch moment combined with Chan's merge, which agrees with the
# Welford fold to floating-point round-off).
# ---------------------------------------------------------------------------


def _count_batch(state: int, *columns: Sequence[Any]) -> int:
    length = len(columns[0]) if columns else 0
    return state + length


def _sum_batch(state: Any, values: Sequence[Any]) -> Any:
    if not len(values):
        return state
    if isinstance(values[0], np.ndarray) or isinstance(state, np.ndarray):
        if state is None:
            state = np.array(values[0], dtype=np.float64, copy=True)
            values = values[1:]
        for value in values:
            state = state + np.asarray(value, dtype=np.float64)
        return state
    if state is None:
        return sum(values[1:], values[0])
    return sum(values, state)


def _avg_batch(state: Tuple[int, float], values: Sequence[Any]) -> Tuple[int, float]:
    count, total = state
    return (count + len(values), sum(map(float, values), total))


def _min_batch(state: Any, values: Sequence[Any]) -> Any:
    if not len(values):
        return state
    low = min(values)
    return low if state is None else min(state, low)


def _max_batch(state: Any, values: Sequence[Any]) -> Any:
    if not len(values):
        return state
    high = max(values)
    return high if state is None else max(state, high)


def _variance_batch(
    state: Tuple[int, float, float], values: Sequence[Any]
) -> Tuple[int, float, float]:
    # Two-pass batch moments merged into the running (count, mean, M2) state
    # with Chan et al.'s combination — the same formula the aggregate's merge
    # function uses across segments.
    if not len(values):
        return state
    arr = np.asarray(values, dtype=np.float64)
    count_b = int(arr.shape[0])
    mean_b = float(arr.mean())
    m2_b = float(((arr - mean_b) ** 2).sum())
    count_a, mean_a, m2_a = state
    if count_a == 0:
        return (count_b, mean_b, m2_b)
    count = count_a + count_b
    delta = mean_b - mean_a
    mean = mean_a + delta * count_b / count
    m2 = m2_a + m2_b + delta * delta * count_a * count_b / count
    return (count, mean, m2)


def _bool_batch(combine: Callable[[Sequence[bool]], bool]):
    def batch(state: Optional[bool], values: Sequence[Any]) -> Optional[bool]:
        if not len(values):
            return state
        folded = combine([bool(v) for v in values])
        if state is None:
            return folded
        return combine([state, folded])

    return batch


def _vector_sum_batch(state: Any, values: Sequence[Any]) -> Any:
    if not len(values):
        return state
    total = matrix_argument(values).sum(axis=0)
    if state is None:
        return total
    return state + total


def builtin_batch_transitions() -> Dict[str, Callable[..., Any]]:
    """Batch kernels for the built-in aggregates, keyed by aggregate name.

    ``array_agg`` and ``string_agg`` are intentionally absent (order
    sensitivity — see module docstring).
    """
    return {
        "count": _count_batch,
        "sum": _sum_batch,
        "avg": _avg_batch,
        "min": _min_batch,
        "max": _max_batch,
        "var_samp": _variance_batch,
        "var_pop": _variance_batch,
        "variance": _variance_batch,
        "stddev": _variance_batch,
        "stddev_pop": _variance_batch,
        "bool_and": _bool_batch(all),
        "bool_or": _bool_batch(any),
        "vector_sum": _vector_sum_batch,
    }
