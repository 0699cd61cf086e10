"""Incremental materialized views: O(delta) aggregate upkeep.

A materialized view stores the *states* of the aggregates in its defining
query, not their finalized values.  Because every built-in aggregate (and
every method kernel with a ``merge`` function) follows the mergeable
transition/merge/final contract from :mod:`repro.engine.aggregates`, an
``INSERT`` into the base table only has to fold the delta rows into the
affected groups' states — O(delta) work — and a read finalizes the states on
demand.  ``DELETE``/``UPDATE``/``TRUNCATE`` (and any write the engine cannot
attribute to a delta) simply leave the view *stale*; the next read detects the
base table's ``_data_version`` drift and recomputes from scratch.  ``REFRESH
MATERIALIZED VIEW`` forces that recompute eagerly.

Two maintenance strategies exist:

``incremental``
    Single-table aggregate/GROUP BY queries over a real table.  Per-group,
    per-segment aggregate states are kept; inserts fold deltas in place and
    reads finalize.  The per-segment state layout reproduces the executor's
    segmented fold exactly (fold each segment's stream, then
    ``merge_states`` in segment order), so finalized view contents are
    byte-identical to running the defining query for fold-exact aggregates.

``recompute``
    Everything else (joins, DISTINCT, ORDER BY/LIMIT, window functions,
    plain projections, UNIONs, views over views).  The finalized result rows
    are stored and rebuilt whenever any dependency's version drifts.

Freshness is defined purely by version comparison — ``synced_versions``
records each dependency's ``Table._data_version`` (or dependent view's
``version``) at the last synchronization point, so *any* write path (SQL DML,
direct ``Table`` API calls, chaos-harness interference) is detected without
needing hooks on every mutator.  Delta folding is the only path that needs an
explicit hook (:func:`apply_insert_delta`, called from the executor's INSERT
handler) because it must observe the per-segment row ranges the insert
appended.

Thread safety: every read/maintenance operation takes the view's re-entrant
lock.  If a delta fold dies partway through (fault injection, a raising UDA
transition), the view is force-marked stale before the lock is released, so a
half-applied delta can never be observed — the next read recomputes from the
base table.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import CatalogError
from .compile import RowFunction
from .expressions import Expression, FunctionCall, Parameter, Star
from .grouping import grouped_states
from .parser.ast_nodes import (
    SelectItem,
    SelectStatement,
    Statement,
    SubquerySource,
    TableRef,
    UnionStatement,
)
from .plancache import referenced_tables
from .segments import ExecutionStats
from .types import hashable_key, is_null

__all__ = [
    "MaterializedView",
    "plan_matview",
    "refresh",
    "ensure_fresh",
    "read_rows",
    "apply_insert_delta",
]


class _Group:
    """One group's incremental state.

    ``order_key`` is the ``(segment, position)`` of the group's first member
    in base-table scan order — the executor emits groups in first-appearance
    order over the segment-concatenated scan, so sorting groups by this key
    reproduces its output ordering exactly.  ``rep_row`` is that member's
    stored base row (the representative the group's output expressions are
    evaluated over).  ``states`` holds one state list per aggregate call,
    each with one entry per base segment, mirroring the executor's segmented
    fold-then-merge.
    """

    __slots__ = ("order_key", "rep_row", "states")

    def __init__(
        self,
        order_key: Optional[Tuple[int, int]],
        rep_row: Optional[tuple],
        states: List[List[Any]],
    ) -> None:
        self.order_key = order_key
        self.rep_row = rep_row
        self.states = states


class _MaintenancePlan:
    """Row functions for folding and finalizing, valid for one catalog version.

    ``finalizers`` holds ``(having_fn or None, item_fns)`` over a group row —
    the representative's columns, then one slot per aggregate call — keyed by
    whether the group has a representative (an ungrouped view over no rows
    does not, and its expressions then see no columns at all).
    """

    __slots__ = ("catalog_version", "key_fns", "where_fn", "call_plans", "finalizers")

    def __init__(
        self,
        catalog_version: int,
        key_fns: List[RowFunction],
        where_fn: Optional[RowFunction],
        call_plans: List[tuple],
        finalizers: Dict[bool, Tuple[Optional[RowFunction], List[RowFunction]]],
    ) -> None:
        self.catalog_version = catalog_version
        self.key_fns = key_fns
        self.where_fn = where_fn
        #: The executor's ``(call, definition, aggregator, argument functions)``.
        self.call_plans = call_plans
        self.finalizers = finalizers


class MaterializedView:
    """Catalog entry for one materialized view."""

    def __init__(
        self,
        name: str,
        sql: str,
        statement: Statement,
        select_items: Optional[List[SelectItem]],
        columns: Optional[List[str]],
        strategy: str,
        dependencies: List[str],
        base_table: Optional[str],
        strategy_reason: str,
    ) -> None:
        self.name = name
        self.sql = sql
        #: The parsed defining query.  Reused verbatim for every recompute and
        #: finalize so the ``id(call)``-keyed aggregate slots stay stable.
        self.statement = statement
        #: Star-expanded select items (incremental strategy only) — the same
        #: :class:`SelectItem` objects every read evaluates.
        self.select_items = select_items
        self.columns = columns
        self.strategy = strategy  # "incremental" | "recompute"
        self.strategy_reason = strategy_reason
        self.dependencies = dependencies  # lowercased base table / view names
        self.base_table = base_table  # lowercased; incremental only
        #: Content version: bumped on every materialized-content change
        #: (delta fold, recompute, refresh).  The plan cache snapshots it so
        #: maintenance invalidates cached plans that scan the view.
        self.version = 0
        #: Per-dependency version at the last synchronization point.
        self.synced_versions: Dict[str, int] = {}
        self.deltas_applied = 0
        self.recomputes = 0
        self.last_row_count: Optional[int] = None
        self.lock = threading.RLock()
        # Incremental state ------------------------------------------------
        self.groups: Dict[Any, _Group] = {}
        self.num_base_segments = 1
        self._plan: Optional[_MaintenancePlan] = None
        # Recompute state --------------------------------------------------
        self.rows: List[tuple] = []

    # ------------------------------------------------------------------ freshness

    def is_stale(self, catalog) -> bool:
        """True when any dependency's version drifted since the last sync."""
        for name in self.dependencies:
            if catalog.has_table(name):
                current = catalog.get_table(name)._data_version
            elif catalog.has_matview(name):
                current = catalog.get_matview(name).version
            else:  # dependency dropped out from under us
                return True
            if self.synced_versions.get(name) != current:
                return True
        return False

    def force_stale(self) -> None:
        """Discard sync state so the next read recomputes from scratch."""
        self.synced_versions.clear()

    def snapshot_token(self, catalog) -> tuple:
        """Stable identity of the view's *source* data for snapshot checks.

        Derived from the transitive base tables' data versions rather than
        ``self.version``, so a lazy recompute performed *during* a read does
        not look like concurrent drift to the serving layer's snapshot
        validation.
        """
        token = []
        for name in self.dependencies:
            if catalog.has_table(name):
                token.append(catalog.get_table(name)._data_version)
            elif catalog.has_matview(name):
                token.append(catalog.get_matview(name).snapshot_token(catalog))
            else:
                token.append(None)
        return tuple(token)

    def describe(self, catalog) -> Dict[str, Any]:
        """JSON-safe observability record for ``Catalog.matviews()``."""
        rows = self.last_row_count
        if rows is None and self.strategy == "incremental":
            # No read has finalized yet; without HAVING the group count is
            # exactly the output row count.
            if self.statement.having is None:
                rows = len(self.groups)
        return {
            "matviewname": self.name,
            "definition": self.sql,
            "strategy": self.strategy,
            "rows": rows,
            "stale": self.is_stale(catalog),
            "version": self.version,
            "deltas_applied": self.deltas_applied,
            "recomputes": self.recomputes,
        }


# ---------------------------------------------------------------------- planning


def _statement_expressions(statement: Statement) -> List[Expression]:
    """Every expression reachable from a SELECT/UNION statement tree."""
    expressions: List[Expression] = []
    if isinstance(statement, UnionStatement):
        for part in statement.selects:
            expressions.extend(_statement_expressions(part))
        return expressions
    if not isinstance(statement, SelectStatement):
        return expressions
    for item in statement.select_items:
        if not isinstance(item.expression, Star):
            expressions.append(item.expression)
    for clause in (statement.where, statement.having):
        if clause is not None:
            expressions.append(clause)
    expressions.extend(statement.group_by)
    for ordering in statement.order_by:
        expressions.append(ordering.expression)
    for item in statement.from_items:
        if isinstance(item, SubquerySource):
            expressions.extend(_statement_expressions(item.select))
    return expressions


def _walk_all(expressions: Sequence[Expression]):
    for expression in expressions:
        yield from expression.walk()


def _incremental_block_reason(executor, statement: Statement) -> Optional[str]:
    """Why the view cannot be maintained incrementally (None = eligible)."""
    if not isinstance(statement, SelectStatement):
        return "defining query is a UNION"
    if statement.distinct:
        return "SELECT DISTINCT requires recompute"
    if statement.order_by or statement.limit is not None or statement.offset is not None:
        return "ORDER BY/LIMIT/OFFSET requires recompute"
    if len(statement.from_items) != 1 or not isinstance(statement.from_items[0], TableRef):
        return "defining query must scan exactly one base table"
    ref = statement.from_items[0]
    if not executor.catalog.has_table(ref.name):
        return "base relation is not a plain table"
    expressions = _statement_expressions(statement)
    if executor._collect_window_calls(expressions):
        return "window functions require recompute"
    calls = executor._collect_aggregate_calls(expressions)
    if not calls and not statement.group_by:
        return "plain projection views maintain by recompute"
    aggregates = executor._aggregate_registry()
    table = executor.catalog.get_table(ref.name)
    for call in calls:
        if call.distinct:
            return "DISTINCT aggregates require recompute"
        definition = aggregates.get(call.name.lower())
        if definition is None:
            return f"unknown aggregate {call.name!r}"
        if table.num_segments > 1 and definition.merge is None:
            return (
                f"aggregate {call.name!r} has no merge function; "
                "cannot maintain per-segment states"
            )
    functions = executor.catalog
    for node in _walk_all(expressions):
        if isinstance(node, FunctionCall):
            name = node.name.lower()
            if functions.has_function(name) and functions.get_function(name).volatile:
                return f"volatile function {node.name!r} requires recompute"
    return None


def plan_matview(executor, name: str, sql: str, statement: Statement) -> MaterializedView:
    """Validate and plan a view definition; does not materialize anything."""
    for node in _walk_all(_statement_expressions(statement)):
        if isinstance(node, Parameter):
            raise CatalogError(
                "materialized view definitions cannot reference bind parameters"
            )
    dependencies = sorted({n.lower() for n in referenced_tables(statement)})
    for dependency in dependencies:
        if not executor.catalog.has_table(dependency) and not executor.catalog.has_matview(
            dependency
        ):
            raise CatalogError(f"relation {dependency!r} does not exist")
    reason = _incremental_block_reason(executor, statement)
    if reason is None:
        ref = statement.from_items[0]
        table = executor.catalog.get_table(ref.name)
        items = executor._expand_select_items(
            statement.select_items, executor._table_columns(ref, table)
        )
        columns = [executor._output_name(item, i) for i, item in enumerate(items)]
        view = MaterializedView(
            name,
            sql,
            statement,
            items,
            columns,
            "incremental",
            dependencies,
            ref.name.lower(),
            "incremental",
        )
    else:
        view = MaterializedView(
            name, sql, statement, None, None, "recompute", dependencies, None, reason
        )
    return view


# ---------------------------------------------------------------- maintenance plan


def _base_table(executor, view: MaterializedView):
    return executor.catalog.get_table(view.statement.from_items[0].name)


def _maintenance_plan(executor, view: MaterializedView) -> _MaintenancePlan:
    catalog_version = executor.catalog.version
    plan = view._plan
    if plan is not None and plan.catalog_version == catalog_version:
        return plan
    statement = view.statement
    columns = executor._table_columns(statement.from_items[0], _base_table(executor, view))
    env = executor._compiler_env(columns, None)
    aggregate_sources: List[Expression] = [item.expression for item in view.select_items]
    if statement.having is not None:
        aggregate_sources.append(statement.having)
    calls = executor._collect_aggregate_calls(aggregate_sources)

    def finalizer(group_columns):
        group_env = executor._slotted_env(group_columns, None, calls)
        having_fn = (
            executor._compile(statement.having, group_env)
            if statement.having is not None
            else None
        )
        return having_fn, [
            executor._compile(item.expression, group_env) for item in view.select_items
        ]

    plan = _MaintenancePlan(
        catalog_version,
        [executor._compile(expression, env) for expression in statement.group_by],
        executor._compile(statement.where, env) if statement.where is not None else None,
        executor._call_plans(calls, env),
        {True: finalizer(columns), False: finalizer([])},
    )
    view._plan = plan
    return plan


def _fresh_states(plan: _MaintenancePlan, num_segments: int) -> List[List[Any]]:
    """Initial per-segment states for every aggregate call of one new group."""
    return [
        [definition.make_state() for _ in range(num_segments)]
        for _call, definition, _aggregator, _argument_fns in plan.call_plans
    ]


def _absorb_row(
    plan: _MaintenancePlan,
    groups: Dict[Any, _Group],
    row: tuple,
    segment: int,
    position: int,
    num_segments: int,
) -> None:
    """Fold one base row into its group's per-segment states.

    Reproduces the executor's grouped pipeline exactly: WHERE ``is True``
    filter, ``hashable_key`` group keys, first-appearance representative, and
    a strict NULL-skipping transition fold per aggregate per segment.
    """
    if plan.where_fn is not None and plan.where_fn(row) is not True:
        return
    key = tuple(hashable_key(fn(row)) for fn in plan.key_fns)
    order_key = (segment, position)
    group = groups.get(key)
    if group is None:
        group = _Group(
            order_key,
            row,
            _fresh_states(plan, num_segments),
        )
        groups[key] = group
    elif group.order_key is None or order_key < group.order_key:
        group.order_key = order_key
        group.rep_row = row
    for (call, definition, _aggregator, argument_fns), states in zip(plan.call_plans, group.states):
        if call.star:
            arguments: tuple = (1,)
        else:
            arguments = tuple(fn(row) for fn in argument_fns)
        if definition.strict and any(is_null(value) for value in arguments):
            continue
        states[segment] = definition.transition(states[segment], *arguments)


# ---------------------------------------------------------------------- refresh


def refresh(executor, view: MaterializedView, stats=None) -> None:
    """Rebuild the view's materialized content from its dependencies."""
    with view.lock:
        if view.strategy == "incremental":
            _rebuild_incremental(executor, view)
        else:
            _rebuild_recompute(executor, view)
        view.version += 1
        view.recomputes += 1
    if stats is not None:
        stats.matview_recomputes += 1


def _rebuild_incremental(executor, view: MaterializedView) -> None:
    """Rebuild through the executor's grouping kernel.

    The kernel yields exactly what a view stores — per group: key, first
    ``(segment, row number)``, representative row, one state per aggregate
    per segment — so only the O(delta) INSERT fold goes row by row.  A row
    number counts the segment's WHERE survivors, so it never exceeds the
    stored position: order keys stay comparable with the positions later
    INSERT deltas carry.
    """
    table = _base_table(executor, view)
    plan = _maintenance_plan(executor, view)
    statement = view.statement
    before_version = table._data_version
    scratch = ExecutionStats()  # the rebuild is not the reading statement's scan
    relation, env = executor._filtered_relation(statement, None, scratch)
    grouped = grouped_states(executor, statement.group_by, plan.call_plans, relation, scratch, env)
    groups: Dict[Any, _Group] = {
        key: _Group(origin, row, [[states[slot] for states in call] for call in grouped.states])
        for slot, (key, origin, row) in enumerate(
            zip(grouped.keys, grouped.origins, grouped.rows)
        )
    }
    if not groups and not statement.group_by:
        # The executor always emits one output row for an empty grouped scan.
        groups[()] = _Group(None, None, _fresh_states(plan, table.num_segments))
    view.groups = groups
    view.num_base_segments = table.num_segments
    view.synced_versions = {view.base_table: before_version}
    view.last_row_count = None  # unknown until the next finalize


def _rebuild_recompute(executor, view: MaterializedView) -> None:
    # Running the defining query freshens nested views first (their scans go
    # through ensure_fresh), so snapshotting dependency versions *after* the
    # execute observes a settled state.
    result = executor.execute(view.statement, None)
    view.rows = [tuple(row) for row in result.rows]
    view.columns = list(result.columns)
    view.last_row_count = len(view.rows)
    synced: Dict[str, int] = {}
    catalog = executor.catalog
    for dependency in view.dependencies:
        if catalog.has_table(dependency):
            synced[dependency] = catalog.get_table(dependency)._data_version
        elif catalog.has_matview(dependency):
            synced[dependency] = catalog.get_matview(dependency).version
    view.synced_versions = synced


def ensure_fresh(executor, view: MaterializedView, stats=None) -> bool:
    """Recompute the view if any dependency drifted.  Returns True if it did."""
    if not view.is_stale(executor.catalog):
        return False
    with view.lock:
        if not view.is_stale(executor.catalog):
            return False
        refresh(executor, view, stats)
        return True


# ------------------------------------------------------------------------- reads


def read_rows(executor, view: MaterializedView) -> List[tuple]:
    """Finalized view contents.  Caller is responsible for ensure_fresh."""
    with view.lock:
        if view.strategy == "incremental":
            rows = _finalize_incremental(executor, view)
        else:
            rows = list(view.rows)
        view.last_row_count = len(rows)
        return rows


def _finalize_incremental(executor, view: MaterializedView) -> List[tuple]:
    plan = _maintenance_plan(executor, view)
    ordered = sorted(
        view.groups.values(),
        key=lambda group: group.order_key if group.order_key is not None else (-1, -1),
    )
    rows: List[tuple] = []
    for group in ordered:
        group_row = tuple(
            definition.finalize(aggregator.runner.merge_states(list(states)))
            for (_call, definition, aggregator, _fns), states in zip(plan.call_plans, group.states)
        )
        if group.rep_row is not None:
            group_row = group.rep_row + group_row
        having_fn, item_fns = plan.finalizers[group.rep_row is not None]
        if having_fn is not None and having_fn(group_row) is not True:
            continue
        rows.append(tuple(fn(group_row) for fn in item_fns))
    return rows


# ------------------------------------------------------------------- delta fold


def apply_insert_delta(
    executor,
    table,
    before_version: int,
    before_lengths: List[int],
    stats=None,
) -> None:
    """Fold freshly inserted rows into every fresh incremental view on ``table``.

    ``before_version``/``before_lengths`` are the base table's
    ``_data_version`` and per-segment row counts captured immediately before
    the insert; the delta is exactly the rows appended past those lengths.
    Views that were already stale before the insert are skipped (their next
    read recomputes anyway).  If a fold raises partway through, the view is
    force-marked stale — in-place states may be half-mutated, and a recompute
    on the next read is the only safe continuation.  The insert itself is
    never failed by view maintenance.
    """
    catalog = executor.catalog
    views = catalog.incremental_matviews_on(table.name)
    if not views:
        return
    after_version = table._data_version
    if after_version == before_version:
        return  # nothing inserted
    delta_rows: Optional[List[Tuple[int, int, tuple]]] = None
    for view in views:
        with view.lock:
            if view.synced_versions.get(view.base_table) != before_version:
                continue  # already stale (or synced elsewhere); leave for recompute
            if delta_rows is None:
                # Only the appended range is read off the packed columns.
                delta_rows = []
                for segment in range(table.num_segments):
                    store = table.column_store(segment)
                    start = before_lengths[segment]
                    appended = store.rows_at(range(start, len(store)))
                    delta_rows.extend(
                        (segment, start + offset, row) for offset, row in enumerate(appended)
                    )
            try:
                plan = _maintenance_plan(executor, view)
                for segment, position, row in delta_rows:
                    _absorb_row(
                        plan, view.groups, row, segment, position, table.num_segments
                    )
            except Exception:
                view.force_stale()
                continue
            view.synced_versions[view.base_table] = after_version
            view.version += 1
            view.deltas_applied += 1
            if stats is not None:
                stats.matview_deltas_applied += 1
