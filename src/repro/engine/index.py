"""Secondary indexes: hash (equality) and sorted (equality + range) access paths.

Greenplum's cost-based optimizer — the machinery Section 3.1 of the paper
leans on ("the driver UDF ... interrogates the database catalog", and the
generated queries are planned like any other SQL) — chooses between a
sequential segment scan and an index probe per predicate.  This module is the
storage half of that choice for our engine: per-table secondary indexes that
the planner (:mod:`repro.engine.planner`) turns into index-scan access paths.

Two kinds exist, mirroring PostgreSQL's ``hash`` and ``btree`` access methods:

* :class:`HashIndex` — ``{key: [(segment, position), ...]}`` buckets keyed by
  :func:`~repro.engine.types.hashable_key` (the same key identity GROUP BY,
  DISTINCT and the hash join use), supporting equality probes only.
* :class:`SortedIndex` — parallel ``(keys, entries)`` arrays kept sorted, so
  equality *and* range probes are two :mod:`bisect` calls.  Keys must be
  mutually comparable; an index that ever sees a key outside one comparison
  kind (numeric or string) marks itself unusable and the planner falls back
  to sequential scans, exactly as if the index did not exist.

Invariants shared by both kinds:

* **NULL keys are excluded** (NaN counts as NULL, per
  :func:`~repro.engine.types.is_null`).  SQL ``=``/range comparisons against
  NULL are never ``TRUE``, so excluded rows can never be probe results —
  matching the hash join's NULL-never-matches semantics.
* **Entries are (segment, position) pairs** into the table's segment lists.
  Probe results are returned sorted, which is exactly the sequential scan's
  (segment order, insertion order) emission order — the property that keeps
  index-scan query output byte-identical to the scan-based plan.
* **Maintenance is incremental**: inserts append an entry, TRUNCATE clears,
  deletes remap one segment's surviving positions without re-extracting or
  re-sorting keys, and only bulk loads / UPDATE's full-table replace take the
  O(n log n) rebuild path (:meth:`BaseIndex.rebuild`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import CatalogError
from .types import hashable_key, is_null

__all__ = ["BaseIndex", "HashIndex", "SortedIndex", "make_index", "INDEX_KINDS"]

#: An index entry: (segment index, position within the segment's row list).
Entry = Tuple[int, int]

INDEX_KINDS = ("hash", "sorted")


def _comparison_kind(value: Any) -> Optional[str]:
    """The comparison family of a key: ``"num"``, ``"str"`` or None (unusable).

    Booleans fold into the numeric family (Python compares ``True < 2`` the
    way SQL does).  Anything else — arrays, lists, composite values — has no
    total order the engine's comparison operators guarantee, so a sorted
    index cannot serve it.
    """
    if isinstance(value, bool):
        return "num"
    if isinstance(value, (int, float)):
        return "num"
    if isinstance(value, str):
        return "str"
    return None


class BaseIndex:
    """Common shape of a secondary index on one column of one table."""

    kind: str = "base"

    def __init__(self, name: str, table_name: str, column_name: str, column_index: int) -> None:
        self.name = name
        self.table_name = table_name
        self.column_name = column_name
        self.column_index = column_index
        #: Set False when the index cannot represent its keys (uncomparable
        #: or unhashable values).  The planner treats an unusable index as
        #: absent; the table keeps maintaining row counts but not entries.
        self.usable = True

    # -- maintenance --------------------------------------------------------

    def add(self, value: Any, segment: int, position: int) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def clear(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def remap_segment(self, segment: int, kept_positions: Sequence[int]) -> None:  # pragma: no cover
        raise NotImplementedError

    def replace(self, old_value: Any, new_value: Any, segment: int, position: int) -> None:  # pragma: no cover
        """In-place UPDATE of one row: drop the entry under ``old_value`` and
        re-add it under ``new_value`` (same segment/position)."""
        raise NotImplementedError

    def rebuild(self, segments: Sequence[Any]) -> None:
        """Rebuild from scratch over the table's segment stores, walking the
        indexed packed column (no row tuples).

        Used for bulk loads, UPDATE's full replace, redistribution and ALTER
        RENAME — anywhere incremental maintenance would degenerate to
        per-row work on the whole table anyway.
        """
        self.usable = True
        self.clear()
        column = self.column_index
        for segment, store in enumerate(segments):
            for position, value in enumerate(store.column(column)):
                self.add(value, segment, position)
                if not self.usable:
                    return

    # -- probes -------------------------------------------------------------

    def probe_eq(self, value: Any) -> Optional[List[Entry]]:  # pragma: no cover - abstract
        raise NotImplementedError

    def supports_range(self) -> bool:
        return False

    def entry_count(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def distinct_keys(self) -> Optional[int]:
        """Number of distinct indexed keys, when the structure knows it."""
        return None

    def count_eq(self, value: Any) -> Optional[int]:
        """Exact matching-entry count for an equality probe, or None.

        Cheap (O(1) hash lookup / O(log n) bisect) — the planner uses it as
        the cardinality estimate when no ANALYZE statistics exist.
        """
        return None

    def describe(self) -> Dict[str, Any]:
        """One ``pg_indexes``-style row for catalog introspection."""
        return {
            "indexname": self.name,
            "tablename": self.table_name,
            "columnname": self.column_name,
            "kind": self.kind,
            "entries": self.entry_count(),
            "usable": self.usable,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"{type(self).__name__}({self.name!r}, table={self.table_name!r}, "
            f"column={self.column_name!r}, entries={self.entry_count()})"
        )


class HashIndex(BaseIndex):
    """Equality-only index: hashable key → entry list in insertion order."""

    kind = "hash"

    def __init__(self, name: str, table_name: str, column_name: str, column_index: int) -> None:
        super().__init__(name, table_name, column_name, column_index)
        self._buckets: Dict[Any, List[Entry]] = {}

    def add(self, value: Any, segment: int, position: int) -> None:
        if not self.usable or is_null(value):
            return
        try:
            key = hashable_key(value)
            bucket = self._buckets.get(key)
        except TypeError:
            # A key hashable_key cannot normalize (exotic objects): degrade.
            self.usable = False
            self._buckets.clear()
            return
        if bucket is None:
            self._buckets[key] = [(segment, position)]
        else:
            bucket.append((segment, position))

    def clear(self) -> None:
        self._buckets.clear()

    def remap_segment(self, segment: int, kept_positions: Sequence[int]) -> None:
        if not self.usable:
            return
        kept = list(kept_positions)
        dead_keys: List[Any] = []
        for key, entries in self._buckets.items():
            new_entries: List[Entry] = []
            for entry_segment, position in entries:
                if entry_segment != segment:
                    new_entries.append((entry_segment, position))
                    continue
                rank = bisect_left(kept, position)
                if rank < len(kept) and kept[rank] == position:
                    new_entries.append((segment, rank))
            if new_entries:
                self._buckets[key] = new_entries
            else:
                dead_keys.append(key)
        for key in dead_keys:
            del self._buckets[key]

    def replace(self, old_value: Any, new_value: Any, segment: int, position: int) -> None:
        if not self.usable:
            return
        if not is_null(old_value):
            try:
                key = hashable_key(old_value)
            except TypeError:
                # The stored key was never indexed (add degraded us already),
                # but degrade defensively — replace must never leave a stale
                # entry behind.
                self.usable = False
                self._buckets.clear()
                return
            bucket = self._buckets.get(key)
            if bucket is not None:
                try:
                    bucket.remove((segment, position))
                except ValueError:
                    pass
                if not bucket:
                    del self._buckets[key]
        self.add(new_value, segment, position)

    def probe_eq(self, value: Any) -> Optional[List[Entry]]:
        if not self.usable:
            return None
        if is_null(value):
            return []  # `col = NULL` is never TRUE
        try:
            entries = self._buckets.get(hashable_key(value), [])
        except TypeError:
            return None
        return sorted(entries)

    def entry_count(self) -> int:
        return sum(len(entries) for entries in self._buckets.values())

    def distinct_keys(self) -> Optional[int]:
        return len(self._buckets) if self.usable else None

    def count_eq(self, value: Any) -> Optional[int]:
        if not self.usable:
            return None
        if is_null(value):
            return 0
        try:
            return len(self._buckets.get(hashable_key(value), ()))
        except TypeError:
            return None


class SortedIndex(BaseIndex):
    """Sorted-array index: equality and range probes via bisect."""

    kind = "sorted"

    def __init__(self, name: str, table_name: str, column_name: str, column_index: int) -> None:
        super().__init__(name, table_name, column_name, column_index)
        self._keys: List[Any] = []
        self._entries: List[Entry] = []
        self._key_kind: Optional[str] = None

    def _degrade(self) -> None:
        self.usable = False
        self._keys.clear()
        self._entries.clear()
        self._key_kind = None

    def _admit(self, value: Any) -> bool:
        """Check a key belongs to this index's comparison family."""
        kind = _comparison_kind(value)
        if kind is None:
            return False
        if self._key_kind is None:
            self._key_kind = kind
            return True
        return kind == self._key_kind

    def add(self, value: Any, segment: int, position: int) -> None:
        if not self.usable or is_null(value):
            return
        if not self._admit(value):
            self._degrade()
            return
        at = bisect_right(self._keys, value)
        self._keys.insert(at, value)
        self._entries.insert(at, (segment, position))

    def clear(self) -> None:
        self._keys.clear()
        self._entries.clear()
        self._key_kind = None

    def rebuild(self, segments: Sequence[Any]) -> None:
        """Bulk build: collect, kind-check, sort once (O(n log n))."""
        self.usable = True
        self.clear()
        column = self.column_index
        pairs: List[Tuple[Any, Entry]] = []
        for segment, store in enumerate(segments):
            for position, value in enumerate(store.column(column)):
                if is_null(value):
                    continue
                if not self._admit(value):
                    self._degrade()
                    return
                pairs.append((value, (segment, position)))
        pairs.sort(key=lambda pair: (pair[0], pair[1]))
        self._keys = [key for key, _ in pairs]
        self._entries = [entry for _, entry in pairs]

    def remap_segment(self, segment: int, kept_positions: Sequence[int]) -> None:
        if not self.usable:
            return
        kept = list(kept_positions)
        new_keys: List[Any] = []
        new_entries: List[Entry] = []
        for key, (entry_segment, position) in zip(self._keys, self._entries):
            if entry_segment != segment:
                new_keys.append(key)
                new_entries.append((entry_segment, position))
                continue
            rank = bisect_left(kept, position)
            if rank < len(kept) and kept[rank] == position:
                new_keys.append(key)
                new_entries.append((segment, rank))
        self._keys = new_keys
        self._entries = new_entries

    def replace(self, old_value: Any, new_value: Any, segment: int, position: int) -> None:
        if not self.usable:
            return
        if not is_null(old_value):
            # All keys equal to old_value form one contiguous bisect range;
            # the (segment, position) pair disambiguates within it.  A key
            # outside the comparison family cannot have been indexed while
            # usable, but degrade rather than trust that invariant.
            try:
                start = bisect_left(self._keys, old_value)
                end = bisect_right(self._keys, old_value, lo=start)
            except TypeError:
                self._degrade()
                return
            for at in range(start, end):
                if self._entries[at] == (segment, position):
                    del self._keys[at]
                    del self._entries[at]
                    break
        self.add(new_value, segment, position)

    def _probe_kind_ok(self, value: Any) -> bool:
        """A probe value must share the key family, or the comparison the
        sequential scan would run could raise — fall back so it does."""
        if not self._keys:
            return True  # empty index: probe trivially returns no rows
        return _comparison_kind(value) == self._key_kind

    def probe_eq(self, value: Any) -> Optional[List[Entry]]:
        # Equality is the degenerate inclusive range [value, value] — but a
        # NULL value must check here: probe_range reads a None bound as
        # "unbounded", while `col = NULL` is never TRUE.
        if is_null(value):
            return [] if self.usable else None
        return self.probe_range(value, value)

    def _range_bounds(
        self, low: Any, high: Any, low_strict: bool, high_strict: bool
    ) -> Optional[Tuple[int, int]]:
        """``(start, end)`` slice of the sorted arrays for a range predicate.

        The single source of truth for bound resolution, shared by
        :meth:`probe_range` and :meth:`count_range` so the planner's
        cardinality estimate can never disagree with the probe it estimates.
        ``None`` means the probe must decline (unusable index or a
        cross-kind bound); an empty slice means no rows match — including a
        NULL bound, whose predicate is never TRUE under SQL three-valued
        comparison.
        """
        if not self.usable:
            return None
        if (low is not None and is_null(low)) or (high is not None and is_null(high)):
            return (0, 0)
        for bound in (low, high):
            if bound is not None and not self._probe_kind_ok(bound):
                return None
        start = 0
        if low is not None:
            start = bisect_right(self._keys, low) if low_strict else bisect_left(self._keys, low)
        end = len(self._keys)
        if high is not None:
            end = bisect_left(self._keys, high) if high_strict else bisect_right(self._keys, high)
        return (start, max(start, end))

    def probe_range(
        self,
        low: Any = None,
        high: Any = None,
        *,
        low_strict: bool = False,
        high_strict: bool = False,
    ) -> Optional[List[Entry]]:
        """Entries with ``low (<|<=) key (<|<=) high``; ``None`` bound = open."""
        bounds = self._range_bounds(low, high, low_strict, high_strict)
        if bounds is None:
            return None
        start, end = bounds
        return sorted(self._entries[start:end])

    def supports_range(self) -> bool:
        return True

    def count_eq(self, value: Any) -> Optional[int]:
        if is_null(value):  # None means "unbounded" to count_range
            return 0 if self.usable else None
        return self.count_range(value, value)

    def count_range(
        self,
        low: Any = None,
        high: Any = None,
        *,
        low_strict: bool = False,
        high_strict: bool = False,
    ) -> Optional[int]:
        """Exact entry count for a range probe (two bisects), or None."""
        bounds = self._range_bounds(low, high, low_strict, high_strict)
        if bounds is None:
            return None
        start, end = bounds
        return end - start

    def entry_count(self) -> int:
        return len(self._keys)

    def distinct_keys(self) -> Optional[int]:
        if not self.usable:
            return None
        distinct = 0
        previous = object()
        for key in self._keys:
            if key != previous:
                distinct += 1
                previous = key
        return distinct


def make_index(name: str, table_name: str, column_name: str, column_index: int, kind: str) -> BaseIndex:
    """Construct an index of the requested kind (``hash`` or ``sorted``)."""
    if kind == "hash":
        return HashIndex(name, table_name, column_name, column_index)
    if kind in ("sorted", "btree"):
        return SortedIndex(name, table_name, column_name, column_index)
    raise CatalogError(f"unknown index kind {kind!r} (expected one of {INDEX_KINDS})")
