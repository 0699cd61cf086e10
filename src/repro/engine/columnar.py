"""Typed packed column storage — the one segment representation.

Greenplum stores a table's rows on its segments; this engine's fast paths
(batch aggregate kernels, packed worker pickling, hash-join builds, index
maintenance) all want *columns*.  Every segment of every table is a
:class:`ColumnStore`: one typed packed column per schema column —
``array('d')`` for ``double precision``, ``array('q')`` for
``integer``/``bigint``, dictionary codes for text and booleans, a plain
Python list for everything else — plus a null bitmap, and row tuples are a
*derived* view: a few rows read per position (:meth:`ColumnStore.rows_at`),
every row through a per-segment cache.

Representation invariants
-------------------------
* A ``double precision`` column stores SQL NULL as a NaN placeholder **and**
  a set bit in the null bitmap.  A genuine NaN value (which
  :func:`~repro.engine.types.is_null` also treats as NULL) stores as NaN with
  a *clear* bitmap bit, so ``None`` and ``float('nan')`` round-trip
  distinctly — ``format_value`` renders them differently.
* An ``integer``/``bigint`` column stores SQL NULL as a ``0`` placeholder
  plus a set bitmap bit.  A Python int that does not fit in a C int64
  *demotes* the whole column to a plain object list (append-time
  ``OverflowError``); demoted columns simply lose the packed fast paths,
  never correctness — ``numeric_view`` returns ``None`` and every consumer
  falls back to the row representation.
* NumPy views of packed buffers are **copies** (``np.array``), cached per
  column mutation: a true ``np.frombuffer`` view would pin the ``array``
  buffer and make subsequent appends raise ``BufferError``.  The copy is one
  C memcpy, amortized across queries by the cache.

The row-tuple view (:meth:`ColumnStore.rows_view`) is materialized lazily
and cached until the next mutation of *this segment* — per-segment
invalidation, so DML touching one segment never recomputes another
segment's view.

Compression
-----------
Text and boolean columns always compress with dictionary encoding
(:class:`DictColumn`): values live once in a per-column dictionary and the
column itself is an ``array('h')`` of int16 codes (``-1`` = SQL NULL).  A
freshly created column starts in a run-length tier (runs of ``(code,
count)`` pairs — loads of sorted or constant data stay O(runs)); once runs
get short the column converts permanently to the packed code array.  A
column whose distinct count crosses :attr:`DictColumn.max_distinct` (or the
int16 code space) *demotes* to a plain object list, exactly like an int
column overflowing int64 — fast paths decline, results never change.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .schema import Schema
from .types import BIGINT, BOOLEAN, DOUBLE, DOUBLE_ARRAY, INTEGER, TEXT, is_null

__all__ = [
    "ArrayColumn",
    "ColumnStore",
    "DictColumn",
    "TypedColumn",
    "SelectedRows",
    "gather_positions",
]

_NAN = float("nan")

#: Key under which a genuine NaN value (which ``is_null`` treats as NULL but
#: which must round-trip distinctly from ``None``) lives in a dictionary —
#: NaN is not equal to itself, so it cannot key a dict directly.
_NAN_KEY = ("__nan__",)


def _dict_key(value: Any) -> Any:
    """Dictionary identity of a value: type-exact, NaN-safe.

    ``(type, value)`` keeps ``True`` / ``1`` / ``1.0`` distinct (tuple
    equality compares the classes first), so a round-trip through the
    dictionary returns the exact object kind that was stored.  Unhashable
    values raise ``TypeError`` — the owning store then demotes the column.
    """
    if isinstance(value, float) and value != value:
        return _NAN_KEY
    return (value.__class__, value)


class TypedColumn(Sequence):
    """One packed numeric column: typed ``array`` + null bitmap.

    Reads present Python values (``None`` for SQL NULL), so the column is a
    drop-in ``Sequence`` replacement for the ``list`` columns the engine used
    to cache.  Writers go through :meth:`append`, which may raise
    ``OverflowError`` for out-of-range ints — the owning :class:`ColumnStore`
    then demotes the column to an object list.
    """

    __slots__ = ("typecode", "data", "nulls", "null_count", "_values_cache", "_mask_cache")

    def __init__(self, typecode: str) -> None:
        if typecode not in ("d", "q"):
            raise ValueError(f"unsupported typecode {typecode!r}")
        self.typecode = typecode
        self.data = array(typecode)
        self.nulls = bytearray()
        self.null_count = 0
        self._values_cache: Optional[np.ndarray] = None
        self._mask_cache: Optional[np.ndarray] = None

    # -- writes -------------------------------------------------------------

    def append(self, value: Any) -> None:
        self._values_cache = None
        self._mask_cache = None
        if value is None:
            self.data.append(_NAN if self.typecode == "d" else 0)
            self.nulls.append(1)
            self.null_count += 1
        else:
            # May raise OverflowError/TypeError *before* mutating, so a
            # failed append leaves the column consistent for demotion.
            self.data.append(value)
            self.nulls.append(0)

    def set(self, position: int, value: Any) -> None:
        """Rewrite one existing position (bitmap-aware UPDATE).

        Same failure contract as :meth:`append`: an unrepresentable value
        raises *before* any mutation, so the owning store can demote and
        retry against the object list.
        """
        if value is None:
            self._values_cache = None
            self._mask_cache = None
            self.data[position] = _NAN if self.typecode == "d" else 0
            if not self.nulls[position]:
                self.nulls[position] = 1
                self.null_count += 1
        else:
            self.data[position] = value  # raises before any mutation
            self._values_cache = None
            self._mask_cache = None
            if self.nulls[position]:
                self.nulls[position] = 0
                self.null_count -= 1

    # -- sequence protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self.data)))]
        if self.nulls[index]:
            return None
        return self.data[index]

    def __iter__(self) -> Iterator[Any]:
        if not self.null_count:
            return iter(self.data)
        return (None if null else value for value, null in zip(self.data, self.nulls))

    def __array__(self, dtype=None, copy=None):
        # Lets NumPy-based batch kernels (variance, vector_sum) consume the
        # packed buffer directly.  With NULLs present the placeholders would
        # corrupt the result, so refuse — the kernel's caller falls back to
        # the row-at-a-time fold, exactly as a None in a list column would
        # have made np.asarray produce an object array and the kernel raise.
        if self.null_count:
            raise ValueError("column contains NULLs; no packed array view")
        values = self.values_array()
        if dtype is not None and values.dtype != dtype:
            return values.astype(dtype)
        return values

    # -- packed views ---------------------------------------------------------

    def values_array(self) -> np.ndarray:
        """Packed values as an ndarray (NULL placeholders included).

        A cached *copy* of the buffer — see the module docstring for why a
        zero-copy ``frombuffer`` view is unsafe here.
        """
        if self._values_cache is None:
            self._values_cache = np.array(
                self.data, dtype=np.float64 if self.typecode == "d" else np.int64
            )
        return self._values_cache

    def null_mask(self) -> Optional[np.ndarray]:
        """Boolean SQL-NULL mask (True where NULL), or ``None`` when clean.

        For float columns this covers genuine NaN values too (``is_null``
        treats NaN as NULL), not just stored ``None``.
        """
        if self.typecode == "d":
            if self._mask_cache is None:
                mask = np.isnan(self.values_array())
                self._mask_cache = mask if mask.any() else None
                if self._mask_cache is None:
                    return None
            return self._mask_cache
        if not self.null_count:
            return None
        if self._mask_cache is None:
            self._mask_cache = np.array(np.frombuffer(self.nulls, dtype=np.bool_))
        return self._mask_cache

    def null_positions(self) -> Optional[set]:
        """Strict-filter contract of ``vectorized._null_positions``: indices of
        SQL-NULL entries (None or NaN) as a set, or ``None`` when clean."""
        mask = self.null_mask()
        if mask is None:
            return None
        positions = set(np.flatnonzero(mask).tolist())
        return positions or None

    def take(self, positions: np.ndarray) -> "TypedColumn":
        """New column with the rows at ``positions`` (ascending), packed."""
        clone = TypedColumn(self.typecode)
        values = self.values_array()[positions]
        clone.data.frombytes(values.tobytes())
        kept_nulls = np.frombuffer(self.nulls, dtype=np.uint8)[positions]
        clone.nulls.extend(kept_nulls.tobytes())
        clone.null_count = int(kept_nulls.sum())
        return clone

    def packed_wire(self) -> Optional[Tuple[str, array]]:
        """Wire format for worker shipping, or ``None`` (→ generic packing).

        A clean column ships its ``array`` buffer as-is — pickling an
        ``array`` is one memcpy, so a segment batch crosses the process
        boundary near-zero-copy.  Columns with stored NULLs use the generic
        path (placeholders must not leak as values).
        """
        if self.null_count or not len(self.data):
            return None
        return ("f64" if self.typecode == "d" else "i64", self.data)


class DictColumn(Sequence):
    """One dictionary-encoded column: int16 codes + a value dictionary.

    Two physical tiers, both behind the same ``Sequence`` facade:

    * **RLE** (the initial tier): parallel ``(code, run length)`` arrays.
      Constant and sorted loads stay O(runs); once the mean run length drops
      below ~4 the column converts permanently to —
    * **packed**: one ``array('h')`` of codes in row order.

    SQL NULL is code ``-1``; a genuine NaN is a *dictionary entry* (keyed by
    a sentinel), so ``None`` and ``float('nan')`` round-trip distinctly just
    as they do through :class:`TypedColumn`.  :meth:`append`/:meth:`set`
    raise ``OverflowError`` before mutating when the dictionary would exceed
    :attr:`max_distinct` (or the int16 code space) and ``TypeError`` for
    unhashable values — the owning :class:`ColumnStore` then demotes the
    column to a plain object list.
    """

    __slots__ = (
        "values",
        "_code_of",
        "_codes",
        "_run_codes",
        "_run_counts",
        "_length",
        "_codes_cache",
        "_mask_cache",
        "max_distinct",
    )

    #: Demotion threshold: past this many distinct values the column is no
    #: longer "low cardinality" and dictionary lookups stop paying for
    #: themselves.  Kept well under the int16 code space.
    MAX_DISTINCT = 4096

    #: Hard ceiling from the ``array('h')`` code representation.
    _CODE_LIMIT = 32767

    #: RLE→packed conversion: convert when there are more than this many runs
    #: *and* the mean run length is below ``_RLE_MIN_MEAN_RUN``.
    _RLE_MIN_RUNS = 64
    _RLE_MIN_MEAN_RUN = 4

    def __init__(self, max_distinct: Optional[int] = None) -> None:
        self.values: List[Any] = []
        self._code_of: Dict[Any, int] = {}
        self._codes: Optional[array] = None  # packed tier
        self._run_codes: Optional[array] = array("h")  # RLE tier
        self._run_counts: Optional[array] = array("q")
        self._length = 0
        self._codes_cache: Optional[np.ndarray] = None
        self._mask_cache: Any = False  # False = not computed (None is valid)
        self.max_distinct = self.MAX_DISTINCT if max_distinct is None else max_distinct

    # -- encoding -------------------------------------------------------------

    def _encode(self, value: Any) -> int:
        """Code for ``value``, growing the dictionary; raises before mutating."""
        if value is None:
            return -1
        key = _dict_key(value)  # may raise TypeError (unhashable) → demotion
        code = self._code_of.get(key)
        if code is None:
            if len(self.values) >= min(self.max_distinct, self._CODE_LIMIT):
                raise OverflowError(
                    f"dictionary column exceeds {self.max_distinct} distinct values"
                )
            code = len(self.values)
            self._code_of[key] = code
            self.values.append(value)
        return code

    def _decode(self, code: int) -> Any:
        return None if code < 0 else self.values[code]

    def _invalidate(self) -> None:
        self._codes_cache = None
        self._mask_cache = False

    def _to_packed(self) -> None:
        """Convert the RLE tier to the packed code array (one-way)."""
        expanded = np.repeat(
            np.frombuffer(self._run_codes, dtype=np.int16),
            np.frombuffer(self._run_counts, dtype=np.int64),
        )
        codes = array("h")
        codes.frombytes(np.ascontiguousarray(expanded, dtype=np.int16).tobytes())
        self._codes = codes
        self._run_codes = None
        self._run_counts = None

    # -- writes ---------------------------------------------------------------

    def append(self, value: Any) -> None:
        code = self._encode(value)  # raises before any mutation
        self._invalidate()
        if self._codes is not None:
            self._codes.append(code)
        else:
            runs = self._run_codes
            if len(runs) and runs[-1] == code:
                self._run_counts[-1] += 1
            else:
                runs.append(code)
                self._run_counts.append(1)
                if (
                    len(runs) > self._RLE_MIN_RUNS
                    and len(runs) * self._RLE_MIN_MEAN_RUN > self._length + 1
                ):
                    self._to_packed()
        self._length += 1

    def set(self, position: int, value: Any) -> None:
        """Rewrite one existing position (bitmap-aware UPDATE).

        The RLE tier converts to packed first — point writes would split
        runs, and a column being point-updated has left the append-only
        load phase the RLE tier exists for.
        """
        code = self._encode(value)  # raises before any mutation
        if self._codes is None:
            self._to_packed()
        if not -self._length <= position < self._length:
            raise IndexError(position)
        self._invalidate()
        self._codes[position] = code

    # -- sequence protocol ----------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._decode(int(c)) for c in self.codes_array()[index]]
        if self._codes is not None:
            return self._decode(self._codes[index])
        return self._decode(int(self.codes_array()[index]))

    def __iter__(self) -> Iterator[Any]:
        values = self.values
        if self._codes is not None:
            return (None if c < 0 else values[c] for c in self._codes)
        return (
            None if code < 0 else values[code]
            for code, count in zip(self._run_codes, self._run_counts)
            for _ in range(count)
        )

    # -- packed views ---------------------------------------------------------

    def codes_array(self) -> np.ndarray:
        """Row-order codes as an int16 ndarray (cached copy; ``-1`` = NULL)."""
        if self._codes_cache is None:
            if self._codes is not None:
                self._codes_cache = np.array(self._codes, dtype=np.int16)
            else:
                self._codes_cache = np.repeat(
                    np.frombuffer(self._run_codes, dtype=np.int16),
                    np.frombuffer(self._run_counts, dtype=np.int64),
                )
        return self._codes_cache

    def null_mask(self) -> Optional[np.ndarray]:
        """Boolean SQL-NULL mask (True where NULL), or ``None`` when clean.

        Covers both ``None`` (code ``-1``) and dictionary entries that are
        themselves SQL NULL (a stored NaN), mirroring ``TypedColumn``.
        """
        if self._mask_cache is False:
            lut = np.zeros(len(self.values) + 1, dtype=bool)
            lut[-1] = True  # code -1 wraps to the sentinel slot
            for code, value in enumerate(self.values):
                if is_null(value):
                    lut[code] = True
            mask = lut[self.codes_array()]
            self._mask_cache = mask if mask.any() else None
        return self._mask_cache

    def null_positions(self) -> Optional[set]:
        """Strict-filter contract of ``vectorized._null_positions``."""
        mask = self.null_mask()
        if mask is None:
            return None
        positions = set(np.flatnonzero(mask).tolist())
        return positions or None

    def gather(self, positions: np.ndarray) -> List[Any]:
        """Decoded values at ``positions`` (late materialization)."""
        values = self.values
        return [
            None if code < 0 else values[code]
            for code in self.codes_array()[positions].tolist()
        ]

    def take(self, positions: np.ndarray) -> "DictColumn":
        """New packed-tier column with the rows at ``positions`` (ascending)."""
        clone = DictColumn(max_distinct=self.max_distinct)
        clone.values = list(self.values)
        clone._code_of = dict(self._code_of)
        taken = np.ascontiguousarray(self.codes_array()[positions], dtype=np.int16)
        codes = array("h")
        codes.frombytes(taken.tobytes())
        clone._codes = codes
        clone._run_codes = None
        clone._run_counts = None
        clone._length = len(codes)
        return clone

    def packed_wire(self) -> Optional[Tuple[str, Tuple[array, Tuple[Any, ...]]]]:
        """Wire format for worker shipping: codes buffer + dictionary.

        Unlike ``TypedColumn``, NULLs need no special casing — code ``-1``
        decodes to ``None`` on the far side — so every non-empty column
        ships compressed.
        """
        if not self._length:
            return None
        if self._codes is not None:
            codes = self._codes
        else:
            codes = array("h")
            codes.frombytes(
                np.ascontiguousarray(self.codes_array(), dtype=np.int16).tobytes()
            )
        return ("dict16", (codes, tuple(self.values)))


class ArrayColumn(list):
    """One ``double precision[]`` column: the object list plus a matrix view.

    :meth:`matrix` stacks the rows into one read-only ``(rows, width)``
    float64 array (what ``np.asarray(column)`` hands a batch kernel), cached
    like ``TypedColumn._values_cache`` until the column next mutates: an
    INSERT's append shows as a changed length, an UPDATE's item assignment
    drops the cache here, DELETE and TRUNCATE build a fresh column.
    """

    #: ``(rows stacked, matrix or None)``; a stale length means recompute.
    _matrix: Tuple[int, Optional[np.ndarray]] = (-1, None)

    def __setitem__(self, index, value) -> None:
        self._matrix = (-1, None)
        super().__setitem__(index, value)

    def matrix(self) -> Optional[np.ndarray]:
        """``None`` for a column that is empty, holds a NULL or is ragged."""
        if self._matrix[0] != len(self):
            try:
                stacked = np.array(self[:], dtype=np.float64)  # a slice is a plain list
                stacked.flags.writeable = False
            except (TypeError, ValueError):  # a NULL row, ragged widths
                stacked = None
            if stacked is not None and stacked.ndim != 2:
                stacked = None
            self._matrix = (len(self), stacked)
        return self._matrix[1]

    def __array__(self, dtype=None, copy=None):
        matrix = self.matrix()
        if matrix is None:  # the kernel's caller falls back to the row fold
            raise ValueError("array column is empty, ragged or holds NULLs")
        return matrix if dtype in (None, matrix.dtype) else matrix.astype(dtype)


class ColumnStore(Sequence):
    """One segment's rows, stored as typed packed columns — the only segment
    type a :class:`~repro.engine.table.Table` has.

    Numeric columns are :class:`TypedColumn`, text and boolean columns
    :class:`DictColumn`, ``double precision[]`` an :class:`ArrayColumn`, and
    anything else (or a demoted column) a plain object list.  Exposes the
    sequence-of-row-tuples protocol (``len``, indexing, iteration,
    ``append``) for consumers that need every row — sequential scans, the
    per-row predicate DML paths — while column-oriented consumers read the
    packed columns directly and a few rows are read with :meth:`rows_at`
    without building the whole row view.
    """

    __slots__ = ("schema", "_columns", "_length", "_rows_cache", "_reads")

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._columns: List[Any] = [self._new_column(column.sql_type) for column in schema]
        self._length = 0
        self._rows_cache: Optional[List[Tuple[Any, ...]]] = None
        #: Rows :meth:`rows_at` read off the columns since the last mutation.
        self._reads = 0

    @staticmethod
    def _new_column(sql_type) -> Any:
        if sql_type is DOUBLE:
            return TypedColumn("d")
        if sql_type is INTEGER or sql_type is BIGINT:
            return TypedColumn("q")
        if sql_type is TEXT or sql_type is BOOLEAN:
            # Dictionary encoding only for types whose consumers never need
            # a numeric packed view — an int column behind a dictionary
            # would lose ``numeric_view`` and with it the numeric bitmap
            # path, a net loss.
            return DictColumn()
        return ArrayColumn() if sql_type is DOUBLE_ARRAY else []

    # -- writes -------------------------------------------------------------

    def append(self, row: Tuple[Any, ...]) -> None:
        self._rows_cache = None
        self._reads = 0
        for i, value in enumerate(row):
            column = self._columns[i]
            if isinstance(column, (TypedColumn, DictColumn)):
                try:
                    column.append(value)
                except (OverflowError, TypeError):
                    # Demote: a value the packed representation cannot hold
                    # (an int beyond int64, a dictionary past its distinct
                    # threshold, an unhashable value) turns the column into
                    # a plain object list.  Fast paths decline; results do
                    # not change.
                    demoted = list(column)
                    demoted.append(value)
                    self._columns[i] = demoted
            else:
                column.append(value)
        self._length += 1

    def set_rows(
        self,
        positions: Sequence[int],
        rows: Sequence[Tuple[Any, ...]],
        column_indices: Optional[Sequence[int]] = None,
    ) -> None:
        """Rewrite the rows at ``positions`` in place (bitmap-aware UPDATE).

        ``rows`` holds one full coerced row per position; ``column_indices``
        limits the writes to the assigned columns (the rest are untouched
        storage).  A packed column that cannot hold a new value demotes to
        an object list and the writes are re-applied — sets are absolute,
        so re-applying those already made is idempotent.
        """
        self._rows_cache = None
        self._reads = 0
        indices = range(len(self._columns)) if column_indices is None else column_indices
        for i in indices:
            column = self._columns[i]
            if isinstance(column, (TypedColumn, DictColumn)):
                try:
                    for position, row in zip(positions, rows):
                        column.set(position, row[i])
                    continue
                except (OverflowError, TypeError):
                    demoted = list(column)
                    self._columns[i] = column = demoted
            for position, row in zip(positions, rows):
                column[position] = row[i]

    def clear(self) -> None:
        self._columns = [self._new_column(column.sql_type) for column in self.schema]
        self._length = 0
        self._rows_cache = None
        self._reads = 0

    def keep_positions(self, positions: Sequence[int]) -> None:
        """Retain only the rows at ``positions`` (ascending) — segment DELETE."""
        index = np.asarray(positions, dtype=np.int64)
        new_columns: List[Any] = []
        for column in self._columns:
            if isinstance(column, (TypedColumn, DictColumn)):
                new_columns.append(column.take(index))
            else:
                new_columns.append(type(column)(column[p] for p in index))
        self._columns = new_columns
        self._length = len(index)
        self._rows_cache = None
        self._reads = 0

    # -- row-tuple view -------------------------------------------------------

    def rows_view(self) -> List[Tuple[Any, ...]]:
        """Materialized row tuples, cached until this segment next mutates.

        Callers treat the result as immutable (the same contract
        ``Table.segment_view`` always had); a mutation builds a fresh list,
        so snapshots held across DML stay self-consistent.
        """
        if self._rows_cache is None:
            if self._length:
                self._rows_cache = list(zip(*self._columns))
            else:
                self._rows_cache = []
        return self._rows_cache

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        return self.rows_view()[index]

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self.rows_view())

    # -- column access --------------------------------------------------------

    def column(self, index: int) -> Sequence[Any]:
        """One column as a value sequence (packed column or object list)."""
        return self._columns[index]

    def columns_view(self) -> Tuple[Sequence[Any], ...]:
        """All columns, live (``Table.segment_columns``)."""
        return tuple(self._columns)

    def numeric_view(self, index: int) -> Optional[Tuple[np.ndarray, Optional[np.ndarray]]]:
        """``(values, null_mask)`` ndarrays for a packed numeric column.

        ``None`` for object-list columns (non-numeric types or demoted
        numeric columns) — vectorized consumers must then fall back.
        """
        column = self._columns[index]
        if not isinstance(column, TypedColumn):
            return None
        return column.values_array(), column.null_mask()

    #: Below this many positions ``rows_at`` reads per position: one NumPy
    #: gather per column costs more than a point read's few ``__getitem__``.
    _GATHER_MIN_ROWS = 4

    #: ``rows_at`` builds the row cache once the rows it read since the last
    #: mutation reach ``1/_CACHE_AFTER`` of the segment.  A per-position read
    #: costs ~15x a cached one, so by then the reads have cost about what the
    #: build does (ski rental): read-mostly traffic gets the cache, and a
    #: write stream's few-row reads never rebuild it.
    _CACHE_AFTER = 16

    def rows_at(self, positions: Sequence[int]) -> List[Tuple[Any, ...]]:
        """Row tuples at ``positions`` (any int sequence) — O(len(positions)).

        Served from the row cache when one is standing (sharing its value
        objects), or once enough reads since the last mutation have paid for
        building it (``_CACHE_AFTER``).  Otherwise a point read's few
        positions read per position, with no ndarray in the way, and more
        gather each column with one fancy-index.
        """
        cache = self._rows_cache
        if cache is None:
            self._reads += len(positions)
            if self._reads * self._CACHE_AFTER >= self._length:
                cache = self.rows_view()
        if cache is not None:
            if isinstance(positions, np.ndarray):
                positions = positions.tolist()
            return [cache[position] for position in positions]
        columns = self._columns
        if len(positions) < self._GATHER_MIN_ROWS or not columns:
            return [tuple([column[position] for column in columns]) for position in positions]
        at = np.asarray(positions, dtype=np.int64)
        return list(zip(*(gather_positions(column, at) for column in columns)))

    def dict_view(self, index: int) -> Optional[Tuple[np.ndarray, List[Any]]]:
        """``(codes, dictionary values)`` for a dictionary-encoded column.

        ``None`` for anything else (plain lists, numeric columns, demoted
        dictionary columns) — code-space predicate programs must then fall
        back to the row path.
        """
        column = self._columns[index]
        if not isinstance(column, DictColumn):
            return None
        return column.codes_array(), column.values


def gather_positions(column: Sequence[Any], positions: np.ndarray) -> List[Any]:
    """Late materialization: the values of ``column`` at ``positions``.

    Packed columns gather with one NumPy fancy-index (+``tolist``, which
    restores genuine Python floats/ints; stored NULLs are patched back to
    ``None``); dictionary columns gather in code space and decode; anything
    else gathers per-position.  ``positions`` need not be ascending.
    """
    if isinstance(column, TypedColumn):
        values = column.values_array()[positions].tolist()
        if column.null_count:
            stored_nulls = np.frombuffer(column.nulls, dtype=np.uint8)[positions]
            for index in np.flatnonzero(stored_nulls).tolist():
                values[index] = None
        return values
    if isinstance(column, DictColumn):
        return column.gather(positions)
    return [column[p] for p in positions.tolist()]


class SelectedRows(Sequence):
    """Lazy row view of a table scan (late row materialization): the rows a
    bitmap WHERE selected, or every stored row of a WHERE-less scan.

    Holds per-segment ``(store, selected positions)`` pairs; ``len`` is known
    up front, but row tuples are only built on first row access, and then
    only at the selected positions (:meth:`ColumnStore.rows_at`).  Aggregate
    queries that stay on the columnar stream path therefore never materialize
    a single row tuple.
    """

    __slots__ = ("_parts", "_length", "_rows")

    def __init__(self, parts: List[Tuple[ColumnStore, np.ndarray]]) -> None:
        self._parts = parts
        self._length = sum(len(positions) for _, positions in parts)
        self._rows: Optional[List[Tuple[Any, ...]]] = None

    def _materialize(self) -> List[Tuple[Any, ...]]:
        if self._rows is None:
            rows: List[Tuple[Any, ...]] = []
            for store, positions in self._parts:
                if len(positions):
                    rows.extend(store.rows_at(positions))
            self._rows = rows
        return self._rows

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        return self._materialize()[index]

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self._materialize())


def materialized(rows: Sequence[Tuple[Any, ...]]) -> Sequence[Tuple[Any, ...]]:
    """``rows`` with every tuple built: a :class:`SelectedRows` materializes
    once, so a loop indexing the result pays no per-row method call."""
    return rows._materialize() if isinstance(rows, SelectedRows) else rows
