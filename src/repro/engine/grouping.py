"""Late materialization past the WHERE: GROUP BY and top-k over columns.

The vectorized WHERE leaves a *selection vector* (ascending positions per
segment); this module keeps the plan columnar from there on.

**Grouping.**  A :class:`Frame` is one segment's input as columns.  Its GROUP
BY key columns become integer group ids — dictionary codes, ``np.unique``
ranks of packed numerics, a dict numbering of anything else (key values a
row function computed once per column), combined mixed-radix.  One *stable*
``argsort`` of the ids partitions the rows, so each group's argument values
are a contiguous slice **in row order**; :func:`fold_groups` hands those
slices to the aggregate's own fold (same batch kernels, same strict NULL
filtering, same left folds) and keeps one state per group per segment — or,
for a call that must see one stream per group, the slices themselves.
Groups come out in first-appearance order and only each group's first row is
ever materialized.  An ungrouped aggregate is the one-group case.

**Top-k.**  :func:`top_rows` orders the selected positions by packed or
dictionary key columns with one stable ``lexsort`` and builds row tuples for
the ``limit`` winners only.

Eligibility is decided up front from the column kinds
(:func:`key_column_decline`), never by catching an exception.  The second
half of the module is the planning the executor (and the materialized-view
rebuild) calls: which frames a statement gets, and whether its ORDER BY …
LIMIT qualifies for :func:`top_rows`.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .columnar import ArrayColumn, ColumnStore, DictColumn, TypedColumn, gather_positions
from .expressions import ColumnRef, Expression, Literal
from .planner import constant_value
from .segments import AggregateTimings
from .types import hashable_key, is_null
from .vectorized import ColumnBatch, ConstantColumn

__all__ = [
    "Frame",
    "GroupedStates",
    "column_index",
    "columnar_top_k",
    "fold_groups",
    "grouped_states",
    "key_column_decline",
    "merge_and_finalize",
    "output_position",
    "partitioned_grouped",
    "segment_runs",
    "top_rows",
]


def key_column_decline(column: Sequence[Any], *, grouping: bool) -> Optional[str]:
    """Why a stored column cannot key the columnar paths (``None``: it can).

    Grouping additionally refuses a float column holding a genuine NaN: the
    row tier keys such rows by object identity.  Ordering does not — NaN
    sorts with the NULLs, which the column's null mask already covers.
    """
    if isinstance(column, DictColumn):
        if len({value.__class__ for value in column.values}) > 1:
            return "dictionary column mixes value types"
        return None
    if not isinstance(column, TypedColumn):
        return "key column is not packed (demoted or object-typed)"
    mask = column.null_mask()
    if grouping and column.typecode == "d" and mask is not None:
        if int(mask.sum()) != column.null_count:
            return "float key column holds NaN"
    return None


def _column_ids(column: Sequence[Any], positions: np.ndarray) -> Tuple[np.ndarray, int]:
    """``(ids, id-space size)`` of one key column at ``positions``."""
    if isinstance(column, DictColumn):  # code -1 (NULL) becomes id 0
        return column.codes_array()[positions].astype(np.int64) + 1, len(column.values) + 1
    if isinstance(column, TypedColumn):
        uniques, ids = np.unique(column.values_array()[positions], return_inverse=True)
        mask = column.null_mask()
        if mask is not None:  # the NULL group takes the id past the last rank
            ids[mask[positions]] = len(uniques)
        return ids.astype(np.int64), len(uniques) + 1
    numbering: Dict[Any, int] = {}  # hashable key values, numbered as they appear
    ids = np.fromiter(
        (numbering.setdefault(column[p], len(numbering)) for p in positions.tolist()),
        dtype=np.int64,
        count=len(positions),
    )
    return ids, len(numbering) + 1


def _partition(ids: np.ndarray):
    """Stable partition of row numbers by id.

    Returns ``(order, starts, ends, firsts)``: ``order[starts[g]:ends[g]]``
    are group ``g``'s rows in row order, ``firsts[g]`` its first row, and
    groups are listed by first appearance.
    """
    order = np.argsort(ids, kind="stable")
    grouped = ids[order]
    cuts = np.flatnonzero(grouped[1:] != grouped[:-1]) + 1
    starts = np.concatenate(([0], cuts))
    ends = np.concatenate((cuts, [len(ids)]))
    firsts = order[starts]
    appearance = np.argsort(firsts)
    return order, starts[appearance], ends[appearance], firsts[appearance]


def _argument_at(column: Sequence[Any], at: np.ndarray, whole: bool):
    """One argument column read at ``at`` (``whole``: every row, so the stored
    column itself, no copy) and whether it is known NULL-free without a scan.
    A constant stays one; an array column gathers from its matrix view as one
    2-D array — unless ``at`` selects under a quarter of it, where stacking
    the whole column (again after every INSERT) would cost more than it saves."""
    if isinstance(column, ConstantColumn):
        return ConstantColumn(column.value, len(at)), not is_null(column.value)
    if isinstance(column, ArrayColumn) and 4 * len(at) >= len(column):
        matrix = column.matrix()
        if matrix is not None:
            return (column if whole else matrix[at]), True
    clean = isinstance(column, TypedColumn) and column.null_mask() is None
    return (column if whole else gather_positions(column, at)), clean


def _group_slices(column: Sequence[Any], bounds):
    """One argument column's slice per group, lazily (each is dropped after
    its fold).  A constant is rebuilt — slicing one costs three times as much,
    4k times a segment: 3 to 6 ms of the spine's 49 ms ``groupby_high``."""
    if isinstance(column, ConstantColumn):
        return (ConstantColumn(column.value, high - low) for _slot, low, high in bounds)
    return (column[low:high] for _slot, low, high in bounds)


class Frame:
    """One segment's grouped input: key and argument columns read at ``at``.

    ``keys`` holds one column per GROUP BY expression (hashable values);
    ``arguments`` one column list per aggregate call (the constant ``1`` for
    ``count(*)``); ``rows_at(positions)`` builds representative rows.
    """

    def __init__(self, segment, at: np.ndarray, keys, arguments, rows_at, whole=False) -> None:
        self.segment, self.at, self.keys = segment, at, keys
        self.arguments, self.rows_at = arguments, rows_at
        #: ``at`` is every position of the argument columns, in order.
        self.whole = whole

    def ids(self) -> np.ndarray:
        ids, space = np.zeros(len(self.at), dtype=np.int64), 1
        for column in self.keys:  # mixed-radix combination
            column_ids, size = _column_ids(column, self.at)
            if space * size >= 1 << 62:
                ids, space = np.unique(ids, return_inverse=True)[1], len(self.at) + 1
            ids, space = ids * size + column_ids, space * size
        # int16 ids radix-sort; wider ones merge-sort.
        return ids.astype(np.int16) if space <= 1 << 15 else ids

    def key_tuples(self, firsts: np.ndarray) -> List[tuple]:
        if not self.keys:
            return [()] * len(firsts)
        at = self.at[firsts]
        return list(zip(*(gather_positions(column, at) for column in self.keys)))

    def argument_columns(self, call: int, at: Optional[np.ndarray]):
        """One call's argument columns read at ``at`` — ``None``: the frame's
        own rows as they stand — and whether they are known NULL-free."""
        whole = at is None and self.whole
        at = self.at if at is None else at
        read = [_argument_at(column, at, whole) for column in self.arguments[call]]
        return tuple(column for column, _ in read), all(clean for _, clean in read)


class GroupedStates:
    """Groups in first-appearance order with per-segment aggregate states.

    ``states[call][segment][group]`` is the folded state (the aggregate's
    initial state where the group has no rows on that segment); ``origins``
    are each group's first ``(segment, row number)``.
    """

    def __init__(self, num_calls: int, num_segments: int) -> None:
        self.keys: List[tuple] = []
        self.origins: List[Tuple[int, int]] = []
        self.rows: List[tuple] = []
        self.states: List[List[List[Any]]] = [
            [[] for _ in range(num_segments)] for _ in range(num_calls)
        ]
        self.fold_seconds = [[0.0] * num_segments for _ in range(num_calls)]
        self.rows_per_segment = [0] * num_segments
        #: Rows of the largest single group slice (decides the fold tier).
        self.longest_slice = 0


def fold_groups(
    frames: Sequence[Frame], aggregators, num_segments: int, deferred=frozenset()
) -> GroupedStates:
    """Partition every frame and fold each group's slices, segment by segment.

    A call whose index is in ``deferred`` is not folded: its "state" is the
    slices themselves, a ``ColumnBatch`` per segment (``[]`` where the group
    has no rows), for :meth:`SegmentedAggregator.run` to consume per group.
    """
    out = GroupedStates(len(aggregators), num_segments)
    slot_of: Dict[tuple, int] = {}
    for frame in frames:
        segment = frame.segment
        out.rows_per_segment[segment] += len(frame.at)
        if not len(frame.at):
            continue
        if frame.keys:
            order, starts, ends, firsts = _partition(frame.ids())
            partitioned = frame.at[order]  # positions, group by group, in row order
            longest = int((ends - starts).max())
        else:  # ungrouped: one group, the rows as they stand
            starts, ends, firsts = np.array([0]), np.array([len(frame.at)]), np.array([0])
            partitioned, longest = None, len(frame.at)
        out.longest_slice = max(out.longest_slice, longest)
        slots: List[int] = []
        fresh: List[int] = []
        for local, key in enumerate(frame.key_tuples(firsts)):
            slot = slot_of.get(key)
            if slot is None:
                slot = slot_of[key] = len(out.keys)
                out.keys.append(key)
                fresh.append(local)
            slots.append(slot)
        if fresh:
            out.origins.extend((segment, row) for row in firsts[fresh].tolist())
            out.rows.extend(frame.rows_at(frame.at[firsts[fresh]]))
        bounds = list(zip(slots, starts.tolist(), ends.tolist()))
        for call, aggregator in enumerate(aggregators):
            defer = call in deferred
            make_state = list if defer else aggregator.definition.make_state
            for per_group in out.states[call]:
                per_group.extend([make_state() for _ in fresh])
            columns, clean = frame.argument_columns(call, partitioned)
            states, fold = out.states[call][segment], aggregator._fold_columns
            start = time.perf_counter()
            if len(bounds) == 1 or not columns:
                sliced = [columns] * len(bounds)
            else:
                sliced = zip(*[_group_slices(column, bounds) for column in columns])
            for (slot, low, high), slices in zip(bounds, sliced):
                if defer:
                    states[slot] = ColumnBatch(slices, prefiltered=clean)
                else:
                    states[slot] = fold(slices, high - low, clean)
            out.fold_seconds[call][segment] += time.perf_counter() - start
    return out


def top_rows(
    parts: Sequence[Tuple[ColumnStore, np.ndarray]],
    order_keys: Sequence[Tuple[int, bool, bool]],
    limit: int,
) -> List[tuple]:
    """The first ``limit`` selected rows under ``order_keys``, as row tuples.

    ``parts`` are per-segment ``(store, selected positions)``; each order key
    is ``(column index, ascending, nulls_last)`` over a column
    :func:`key_column_decline` accepted.  One stable ``lexsort`` reproduces
    the row tier's comparator: per-key direction, NULLs (and NaN) placed by
    ``nulls_last`` and tied among themselves, ties falling to the next key
    and finally to row order.
    """
    sort_keys: List[np.ndarray] = []  # least significant first, as lexsort wants
    for index, ascending, nulls_last in reversed(order_keys):
        columns = [store.column(index) for store, _ in parts]
        values: List[np.ndarray] = []
        nulls: List[np.ndarray] = []
        if isinstance(columns[0], DictColumn):
            # Dictionaries are per segment: rank the union of their values.
            ranked = sorted({value for column in columns for value in column.values})
            rank = {value: position for position, value in enumerate(ranked)}
            for column, (_, positions) in zip(columns, parts):
                codes = column.codes_array()[positions]
                table = np.array([rank[value] for value in column.values] + [0], dtype=np.int64)
                values.append(table[codes])  # code -1 (NULL) reads the trailing 0
                nulls.append(codes < 0)
        else:
            for column, (_, positions) in zip(columns, parts):
                mask = column.null_mask()
                if mask is None:
                    mask = np.zeros(len(column), dtype=bool)
                nulls.append(mask[positions])
                values.append(np.where(nulls[-1], 0, column.values_array()[positions]))
        value_key, null_key = np.concatenate(values), np.concatenate(nulls)
        if not ascending:
            # ``~v`` reverses int64 without overflow; ``-v`` is exact for floats.
            value_key = ~value_key if value_key.dtype.kind == "i" else -value_key
        sort_keys += [value_key, null_key if nulls_last else ~null_key]
    winners = np.lexsort(sort_keys)[:limit]
    offsets = np.cumsum([0] + [len(positions) for _, positions in parts])
    owner = np.searchsorted(offsets, winners, side="right") - 1
    rows: List[Any] = [None] * len(winners)
    for segment, (store, positions) in enumerate(parts):
        mine = np.flatnonzero(owner == segment)
        picked = store.rows_at(positions[winners[mine] - offsets[segment]])
        for slot, row in zip(mine.tolist(), picked):
            rows[slot] = row
    return rows


# ---------------------------------------------------------------------------
# Planning: what the executor asks of the kernel
# ---------------------------------------------------------------------------


def column_index(expression: Optional[Expression], layout) -> Optional[int]:
    """Row position a plain column reference reads, else ``None``."""
    if isinstance(expression, ColumnRef):
        return layout.resolve(expression.name, expression.qualifier)
    return None


def output_position(expression: Expression, lowered_names: List[str]) -> Optional[int]:
    """Output column an ORDER BY ordinal (``ORDER BY 1``) or bare output
    alias names; ``None`` for a key evaluated over the source row."""
    if isinstance(expression, Literal) and isinstance(expression.value, int):
        return expression.value - 1
    if isinstance(expression, ColumnRef) and expression.qualifier is None:
        if expression.name.lower() in lowered_names:
            return lowered_names.index(expression.name.lower())
    return None


def segment_runs(segment_ids: Sequence[int]) -> Optional[List[Tuple[int, int, int]]]:
    """``(segment, start, end)`` runs of a relation's row provenance, or
    ``None`` when the rows are not in segment order (no scan or join emits
    such rows; per-segment phase one cannot represent them)."""
    ids = np.asarray(segment_ids, dtype=np.int64)
    if not len(ids):
        return []
    cuts = (np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist()
    starts = [0] + cuts
    segments = ids[starts].tolist()
    if segments != sorted(segments):
        return None
    return list(zip(segments, starts, cuts + [len(ids)]))


def _scan_parts(relation) -> Optional[List[Tuple[ColumnStore, np.ndarray]]]:
    """Per-segment ``(store, selected positions)`` of a table scan (``None``
    for any other relation)."""
    table, selections = relation.source_table, relation.segment_selections
    if table is None:
        return None
    stores = [table.column_store(segment) for segment in range(table.num_segments)]
    if selections is None:
        selections = [np.arange(len(store)) for store in stores]
    return list(zip(stores, selections))


def _first_decline(parts, indices: Sequence[int], *, grouping: bool) -> Optional[str]:
    declines = (
        key_column_decline(store.column(index), grouping=grouping)
        for store, _ in parts
        for index in indices
    )
    return next((reason for reason in declines if reason), None)


def _group_frames(executor, group_by, call_plans, relation, env):
    """``(frames, strategy, decline reason)`` for one grouped statement.

    *Columnar* frames read the stored columns of a columnar table scan at the
    selected positions — when every key is a plain stored column the kernel
    can number and every aggregate argument is a stored column or a plan-time
    constant (riding as a :class:`ConstantColumn`).  Otherwise the statement's
    row functions compute each key and argument column once (*partitioned*),
    with the first refusing guard as the reason — as one stream when the
    rows are not in segment order.
    """
    layout, parts = env.layout, _scan_parts(relation)
    key_indices = [column_index(expression, layout) for expression in group_by]

    def constant(value: Any):
        return lambda store: ConstantColumn(value, len(store))

    def source(argument: Expression):
        """How a store yields one argument column: a stored column, a
        plan-time constant as a :class:`ConstantColumn`, or ``None``."""
        index = column_index(argument, layout)
        if index is not None:
            return lambda store: store.column(index)
        ok, value = constant_value(
            argument, layout, env.functions, env.parameters, env.aggregate_names, scalar_only=False
        )
        return constant(value) if ok else None

    argument_sources = [  # count(*) folds the constant 1
        [constant(1)] if call.star else [source(argument) for argument in call.args]
        for call, _definition, _aggregator, _argument_fns in call_plans
    ]
    if parts is None:
        reason = "input is not a columnar base-table scan"
    elif None in key_indices:
        reason = "group key is not a stored column"
    elif any(None in sources for sources in argument_sources):
        reason = "aggregate argument is neither a stored column nor a constant"
    else:
        reason = _first_decline(parts, key_indices, grouping=True)
    if reason is None:
        frames = [
            Frame(
                segment,
                at,
                [store.column(index) for index in key_indices],
                [[column_of(store) for column_of in sources] for sources in argument_sources],
                store.rows_at,
                whole=len(at) == len(store),
            )
            for segment, (store, at) in enumerate(parts)
        ]
        return frames, "columnar", None
    rows = relation.rows
    runs = segment_runs(relation.segment_ids)
    if runs is None:  # fold as one stream, in row order
        runs = [(0, 0, len(rows))]
    keys = [
        [hashable_key(fn(row)) for row in rows]
        for fn in [executor._compile(expression, env) for expression in group_by]
    ]
    arguments = [
        [ConstantColumn(1, len(rows))] if call.star
        else [[fn(row) for row in rows] for fn in argument_fns]
        for call, _definition, _aggregator, argument_fns in call_plans
    ]

    def rows_at(positions: np.ndarray) -> List[tuple]:
        return [rows[index] for index in positions.tolist()]

    frames = [
        Frame(segment, np.arange(start, end), keys, arguments, rows_at)
        for segment, start, end in runs
    ]
    return frames, "partitioned", reason


def grouped_states(
    executor, group_by, call_plans, relation, stats, env, deferred=frozenset()
) -> GroupedStates:
    """Per-group, per-segment aggregate states of one grouped statement;
    records the strategy."""
    frames, stats.group_strategy, stats.group_decline_reason = _group_frames(
        executor, group_by, call_plans, relation, env
    )
    aggregators = [aggregator for _call, _definition, aggregator, _fns in call_plans]
    return fold_groups(frames, aggregators, max(relation.num_segments, 1), deferred)


def merge_and_finalize(aggregator, states_per_group, timings: AggregateTimings) -> List[Any]:
    """Phase two: merge each group's per-segment states, then finalize."""
    start = time.perf_counter()
    merged = [aggregator.runner.merge_states(states) for states in states_per_group]
    timings.merge_seconds = time.perf_counter() - start
    start = time.perf_counter()
    values = [aggregator.definition.finalize(state) for state in merged]
    timings.final_seconds = time.perf_counter() - start
    return values


def partitioned_grouped(executor, statement, call_plans, relation, stats, env):
    """In-process phase one of an aggregate statement on the kernel.

    Returns ``(key, representative row, [value per aggregate call])`` per
    group in first-appearance order.  A call folds per segment and merges
    — **one** ``AggregateTimings`` for all its groups — unless each group must
    go through :meth:`SegmentedAggregator.run` on its own: an ungrouped
    aggregate (the per-segment timings and pool fan-out of Figures 4/5), or a
    DISTINCT or unmergeable one (one stream per group).
    """
    ungrouped = not statement.group_by
    deferred = {
        position
        for position, (call, definition, _aggregator, _fns) in enumerate(call_plans)
        if ungrouped or call.distinct or not definition.supports_parallel
    }
    grouped = grouped_states(
        executor, statement.group_by, call_plans, relation, stats, env, deferred
    )
    if ungrouped and not grouped.keys:
        # An ungrouped aggregate has its one row over no input too.
        grouped.keys, grouped.rows = [()], [None]
        for per_segment in grouped.states:
            for per_group in per_segment:
                per_group.append([])
    value_columns: List[List[Any]] = []
    for position, (call, definition, aggregator, _fns) in enumerate(call_plans):
        timings = AggregateTimings(aggregate_name=definition.name)
        if position in deferred:
            values = []
            for streams in zip(*grouped.states[position]):
                value, one = executor._run_aggregate(
                    call, aggregator, list(streams), grouped=not ungrouped
                )
                values.append(value)
                if ungrouped:
                    timings = one
                else:
                    timings.accumulate(one)
        else:
            timings.per_segment_seconds = grouped.fold_seconds[position]
            timings.rows_per_segment = list(grouped.rows_per_segment)
            timings.num_groups = len(grouped.keys)
            aggregator.note_tier(timings, grouped.longest_slice)
            values = merge_and_finalize(aggregator, zip(*grouped.states[position]), timings)
        value_columns.append(values)
        if grouped.keys:
            stats.aggregate_timings.append(timings)
    per_group = zip(*value_columns) if value_columns else [()] * len(grouped.keys)
    return [
        (key, row, list(values)) for key, row, values in zip(grouped.keys, grouped.rows, per_group)
    ]


def columnar_top_k(statement, items, output_names, relation, layout, limit_hint, windowed, stats):
    """The ``limit_hint`` winning source rows in output order — or ``None``
    with the first refusing guard recorded.

    Applies when every ORDER BY key names (directly, by alias or by ordinal)
    a packed or dictionary column of a columnar table scan and the select
    list (``items``) only reads columns, so projecting the winners alone
    cannot skip an error the full projection would have raised.
    """

    def decline(reason: str) -> None:
        stats.order_decline_reason = reason

    parts = _scan_parts(relation)
    if limit_hint is None:
        return decline("no LIMIT")
    if windowed:
        return decline("window functions read every row")
    if not 0 <= limit_hint < len(relation.rows):
        return decline("LIMIT covers every row")
    if parts is None:
        return decline("input is not a columnar base-table scan")
    if any(column_index(item, layout) is None for item in items):
        return decline("select list computes expressions")
    lowered = [name.lower() for name in output_names]
    keys: List[Tuple[int, bool, bool]] = []
    for order_item in statement.order_by:
        expression = order_item.expression
        position = output_position(expression, lowered)
        if position is not None:
            expression = items[position] if 0 <= position < len(items) else None
        index = column_index(expression, layout)
        if index is None:
            return decline("ORDER BY key is not a stored column")
        reason = _first_decline(parts, [index], grouping=False)
        if reason is not None:
            return decline(reason)
        keys.append((index, order_item.ascending, order_item.nulls_last))
    stats.order_strategy = "columnar-topk"
    return top_rows(parts, keys, limit_hint)
