"""In-memory table storage with shared-nothing segment partitioning.

The Greenplum database the paper evaluates on stores every table
hash-distributed across *segments* (one query process per core).  Aggregation
then runs the user-defined aggregate's transition function independently per
segment and combines the partial states with the merge function
(Section 3.1.1).  This module reproduces that storage model: a
:class:`Table` is a set of per-segment stores plus a partitioning of rows
into segments, so the executor can run per-segment scans and the benchmark
harness can measure per-segment work.

Every segment is a :class:`~repro.engine.columnar.ColumnStore` of typed
packed columns — ``array('d')``/``array('q')`` plus a null bitmap for
numeric columns, dictionary codes for text and booleans, object lists
otherwise.  The packed columns are the source of truth: the vectorized
WHERE path, the grouping kernel, batch aggregate kernels and worker
shipping read them directly, point reads and DML deltas read single rows
(:meth:`ColumnStore.rows_at`), and only consumers that need every row
(sequential scans, per-row predicate DML) build the segment's cached row
view (:meth:`segment_view`).
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import ExecutionError, TypeMismatchError
from .columnar import ColumnStore
from .schema import Schema
from .types import coerce_value, hashable_key

__all__ = ["Row", "Table"]

Row = Tuple[Any, ...]


def _distribution_hash(value: Any) -> int:
    """Stable hash used to assign a row to a segment.

    Python's builtin ``hash`` of strings is randomized per process which would
    make segment assignment (and therefore per-segment timings)
    non-deterministic across runs, so we use a small FNV-1a implementation.
    """
    data = repr(hashable_key(value)).encode("utf-8")
    acc = 0xCBF29CE484222325
    for byte in data:
        acc ^= byte
        acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc


class Table:
    """A named, typed table distributed across shared-nothing segments.

    Parameters
    ----------
    name:
        Table name as registered in the catalog.
    schema:
        Column names and types.
    num_segments:
        Number of shared-nothing segments the table is distributed over.
    distributed_by:
        Optional column name used for hash distribution; rows with equal
        distribution keys land on the same segment (Greenplum's
        ``DISTRIBUTED BY``).  When omitted, rows are distributed round-robin,
        which is what Greenplum calls ``DISTRIBUTED RANDOMLY``.
    temporary:
        Whether the table is a session temp table (the inter-iteration state
        tables created by driver functions are temporary).
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        *,
        num_segments: int = 1,
        distributed_by: Optional[str] = None,
        temporary: bool = False,
    ) -> None:
        if num_segments < 1:
            raise ExecutionError("a table needs at least one segment")
        self.name = name
        self.schema = schema
        self.temporary = temporary
        self.num_segments = num_segments
        self.distributed_by = distributed_by
        if distributed_by is not None:
            # Validates the column exists.
            self._distribution_index: Optional[int] = schema.index_of(distributed_by)
        else:
            self._distribution_index = None
        self._segments: List[ColumnStore] = [ColumnStore(self.schema) for _ in range(num_segments)]
        self._row_count = 0
        self._round_robin_cursor = 0
        # Monotonic mutation counter (ANALYZE statistics snapshots and the
        # plan cache record it for staleness tracking).  Per-segment derived
        # views live on the segment's store and invalidate there.
        self._data_version = 0
        #: Secondary indexes attached by the catalog
        #: (:mod:`repro.engine.index`), maintained by the mutation hooks
        #: below: inserts append entries, TRUNCATE clears, deletes remap one
        #: segment's surviving positions, and bulk loads / full replaces /
        #: redistribution rebuild.
        self._indexes: List = []

    # -- basic protocol -----------------------------------------------------

    def __len__(self) -> int:
        return self._row_count

    def __iter__(self) -> Iterator[Row]:
        return self.rows()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Table({self.name!r}, rows={self._row_count}, segments={self.num_segments})"

    @property
    def column_names(self) -> List[str]:
        return self.schema.names

    def column_store(self, segment: int) -> ColumnStore:
        """One segment's :class:`ColumnStore`."""
        return self._segments[segment]

    # -- mutation -----------------------------------------------------------

    def _coerce_row(self, values: Sequence[Any]) -> Row:
        if len(values) != len(self.schema):
            raise TypeMismatchError(
                f"table {self.name!r} has {len(self.schema)} columns, got {len(values)} values"
            )
        return tuple(
            coerce_value(value, column.sql_type)
            for value, column in zip(values, self.schema)
        )

    def _segment_for(self, row: Row) -> int:
        if self.num_segments == 1:
            return 0
        if self._distribution_index is not None:
            return _distribution_hash(row[self._distribution_index]) % self.num_segments
        segment = self._round_robin_cursor % self.num_segments
        self._round_robin_cursor += 1
        return segment

    #: At or above this many incoming rows, ``insert_many`` on an indexed
    #: table suspends incremental maintenance and rebuilds each index once at
    #: the end — a sorted index pays O(n) list-insert per incremental add, so
    #: bulk loads would otherwise degenerate to O(n²).
    _BULK_REBUILD_ROWS = 256

    def insert(self, values: Sequence[Any]) -> None:
        """Insert a single row (values in schema order)."""
        row = self._coerce_row(values)
        segment = self._segment_for(row)
        self._segments[segment].append(row)
        self._row_count += 1
        self._data_version += 1
        if self._indexes:
            position = len(self._segments[segment]) - 1
            for index in self._indexes:
                index.add(row[index.column_index], segment, position)

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Bulk insert; returns the number of rows inserted."""
        if self._indexes:
            rows = list(rows)
            if len(rows) >= self._BULK_REBUILD_ROWS:
                return self._with_index_rebuild(lambda: self._insert_all(rows))
        return self._insert_all(rows)

    def _insert_all(self, rows: Iterable[Sequence[Any]]) -> int:
        count = 0
        for values in rows:
            self.insert(values)
            count += 1
        return count

    def _with_index_rebuild(self, mutate) -> int:
        """Run a bulk mutation with index maintenance suspended, then rebuild.

        The rebuild runs even when the mutation raises partway (e.g. a row
        failing type coercion mid-load): rows inserted before the failure are
        in the table, so skipping the rebuild would leave indexes silently
        stale and index probes returning wrong results.
        """
        indexes, self._indexes = self._indexes, []
        try:
            return mutate()
        finally:
            self._indexes = indexes
            for index in indexes:
                index.rebuild(self._segments)

    def truncate(self) -> None:
        """Remove all rows but keep the schema and distribution policy."""
        self._segments = [ColumnStore(self.schema) for _ in range(self.num_segments)]
        self._row_count = 0
        self._round_robin_cursor = 0
        self._data_version += 1
        for index in self._indexes:
            index.clear()

    def replace_rows(self, rows: Iterable[Sequence[Any]]) -> int:
        """Replace the full contents (used by CREATE TABLE AS and bulk loads)."""
        if self._indexes:
            return self._with_index_rebuild(lambda: self._replace_all(rows))
        return self._replace_all(rows)

    def update_rows_in_place(
        self,
        updates_per_segment: Sequence[Tuple[Sequence[int], Sequence[Row]]],
        changed_columns: Sequence[int],
    ) -> int:
        """Bitmap-aware UPDATE: rewrite only the matched positions, per segment.

        ``updates_per_segment`` holds one ``(positions, coerced full rows)``
        pair per segment; ``changed_columns`` names the assigned column
        indices (storage writes and index maintenance are limited to them).
        Rows never move between segments — UPDATE does not redistribute
        (Greenplum's historical rule), so untouched segments keep their
        caches and only indexes on assigned columns see any work: entries
        are replaced in place below the bulk threshold, rebuilt once above
        it.  Returns the number of rows updated.
        """
        total = sum(len(positions) for positions, _ in updates_per_segment)
        if not total:
            return 0
        changed = set(changed_columns)
        affected = [index for index in self._indexes if index.column_index in changed]
        incremental = affected and total < self._BULK_REBUILD_ROWS
        for segment_index, (positions, rows) in enumerate(updates_per_segment):
            if not len(positions):
                continue
            segment = self._segments[segment_index]
            old_values: List[List[Any]] = []
            if incremental:
                old_values = [
                    [segment.column(index.column_index)[position] for position in positions]
                    for index in affected
                ]
            segment.set_rows(positions, rows, changed_columns)
            self._data_version += 1
            if incremental:
                for index, olds in zip(affected, old_values):
                    for position, old, row in zip(positions, olds, rows):
                        index.replace(
                            old, row[index.column_index], segment_index, position
                        )
        if affected and not incremental:
            for index in affected:
                index.rebuild(self._segments)
        return total

    def _replace_all(self, rows: Iterable[Sequence[Any]]) -> int:
        self.truncate()
        return self.insert_many(rows)

    def delete_where_rows(self, predicate) -> int:
        """Delete rows for which ``predicate(row_tuple)`` is true; returns count.

        The executor hands a predicate compiled against the schema's column
        layout.  Rows stay on their segments — deletion never rehashes —
        and indexes remap surviving positions.
        """
        deleted = 0
        for segment_index in range(self.num_segments):
            kept_positions = [
                position
                for position, row in enumerate(self.segment_view(segment_index))
                if not predicate(row)
            ]
            deleted += self._apply_keep(segment_index, kept_positions)
        if deleted:
            self._row_count -= deleted
        return deleted

    def keep_segment_positions(self, kept_per_segment: Sequence[Sequence[int]]) -> int:
        """Bitmap DELETE: retain only the given positions on each segment.

        ``kept_per_segment`` holds one ascending position sequence per
        segment (the complement of a vectorized WHERE's selection bitmap).
        Returns the number of rows deleted.  Index entries are remapped per
        segment, exactly as the predicate-based delete does.
        """
        deleted = 0
        for segment_index, kept_positions in enumerate(kept_per_segment):
            deleted += self._apply_keep(segment_index, kept_positions)
        if deleted:
            self._row_count -= deleted
        return deleted

    def _apply_keep(self, segment_index: int, kept_positions) -> int:
        """Keep only ``kept_positions`` on one segment; returns rows removed."""
        segment = self._segments[segment_index]
        removed = len(segment) - len(kept_positions)
        if not removed:
            return 0
        segment.keep_positions(kept_positions)
        self._data_version += 1
        for index in self._indexes:
            index.remap_segment(segment_index, list(kept_positions))
        return removed

    # -- secondary indexes ----------------------------------------------------

    @property
    def indexes(self) -> List:
        """Secondary indexes attached to this table (catalog-owned objects)."""
        return list(self._indexes)

    def attach_index(self, index) -> None:
        """Attach (and build) a secondary index; the catalog calls this."""
        if any(existing.name.lower() == index.name.lower() for existing in self._indexes):
            raise ExecutionError(f"index {index.name!r} is already attached to {self.name!r}")
        index.rebuild(self._segments)
        self._indexes.append(index)

    def detach_index(self, name: str) -> None:
        self._indexes = [
            index for index in self._indexes if index.name.lower() != name.lower()
        ]

    # -- access -------------------------------------------------------------

    def rows(self) -> Iterator[Row]:
        """Iterate over all rows (segment order, then insertion order)."""
        for segment in range(self.num_segments):
            yield from self.segment_view(segment)

    def segment_rows(self, segment: int) -> List[Row]:
        """Rows stored on one segment."""
        return list(self.segment_view(segment))

    def segment_view(self, segment: int) -> Sequence[Row]:
        """Read-only view of every row on one segment (no copy — do not
        mutate): the store's cached row-tuple materialization, built lazily
        and invalidated when *that segment* next mutates.  Reading a few rows
        goes through :meth:`ColumnStore.rows_at` instead."""
        return self._segments[segment].rows_view()

    def rows_at(self, entries: Iterable[Tuple[int, int]]) -> List[Row]:
        """Row tuples at ``(segment, position)`` entries (an index probe's
        result), in entry order — read off the packed columns, never
        building a segment's row view."""
        rows: List[Row] = []
        for segment, run in groupby(entries, key=itemgetter(0)):
            rows.extend(self._segments[segment].rows_at([position for _, position in run]))
        return rows

    def segment_columns(self, segment: int) -> Tuple[Sequence[Any], ...]:
        """One segment's live packed columns — the source of truth, no
        materialization at all."""
        return self._segments[segment].columns_view()

    def segment_sizes(self) -> List[int]:
        """Number of rows per segment (used to report distribution skew)."""
        return [len(segment) for segment in self._segments]

    def to_dicts(self) -> List[dict]:
        """Materialize all rows as dictionaries keyed by column name."""
        names = self.schema.names
        return [dict(zip(names, row)) for row in self.rows()]

    def column_values(self, name: str) -> List[Any]:
        """All values of one column, in row order."""
        index = self.schema.index_of(name)
        return [row[index] for row in self.rows()]

    # -- reorganisation -----------------------------------------------------

    def redistribute(self, num_segments: int, distributed_by: Optional[str] = None) -> None:
        """Re-partition the table across a new number of segments.

        The benchmark harness uses this to sweep the segment count for the
        Figure 4 / Figure 5 experiments without reloading data.
        """
        if num_segments < 1:
            raise ExecutionError("a table needs at least one segment")
        rows = list(self.rows())
        self.num_segments = num_segments
        self.distributed_by = distributed_by if distributed_by is not None else self.distributed_by
        self._distribution_index = (
            self.schema.index_of(self.distributed_by) if self.distributed_by else None
        )
        self._segments = [ColumnStore(self.schema) for _ in range(num_segments)]
        self._row_count = 0
        self._round_robin_cursor = 0
        self._data_version += 1
        for row in rows:
            self._segments[self._segment_for(row)].append(row)
            self._row_count += 1
        # Entries are (segment, position) pairs, so moving rows between
        # segments invalidates every index: rebuild.
        for index in self._indexes:
            index.rebuild(self._segments)
