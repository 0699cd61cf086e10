"""Statement execution.

The executor evaluates parsed statements against the catalog.  The part that
matters most for the paper is aggregate execution: queries that aggregate a
single base table run the *segmented* path — independent per-segment
transition folds followed by a merge — which is the Greenplum execution model
the Figure 4 / Figure 5 experiments measure.  Joins have their own execution
layer (:mod:`repro.engine.join`): inner/left equi-joins — and implicit
multi-table FROM lists whose WHERE clause contains cross-source equality
conjuncts — run as compiled build/probe hash joins, with single-side WHERE
conjuncts pushed into each side's scan (index probe or bitmap WHERE), falling
back to a nested loop over the compiled ON condition for anything the planner
cannot prove safe.  Everything else
(subqueries, window functions, DML) exists so that MADlib-style methods can be
written as plain SQL plus driver functions, exactly as in the paper.

Every expression the executor evaluates — WHERE, select list, GROUP BY keys,
aggregate arguments, HAVING, ORDER BY keys, window partition/order/argument
keys, join ON conditions, UPDATE SET, DELETE WHERE, INSERT VALUES — goes
through one seam, :meth:`Executor._compile`, which always returns a compiled
function over a positional row (:func:`~repro.engine.compile.
compile_row_function`; a malformed statement's unresolvable node raises its
error when evaluated).  Aggregate and window results are appended to the row
as trailing slots, so the expressions around them are ordinary ``fn(row)``
calls too.  There is one execution tier, which a worker pool can widen (see
``docs/engine-execution.md`` and ``docs/architecture.md``):

* **Compiled + batched** — ``_compile`` returns a closure built once per
  statement (:mod:`repro.engine.compile`); when the aggregated input is a
  base-table scan and the aggregate's arguments are plain column references,
  per-segment argument streams come straight from the table's packed columns
  as :class:`~repro.engine.vectorized.ColumnBatch` slices, and aggregates
  with a ``batch_transition`` consume each segment in a single batched call.
* **Parallel** — with ``Database(parallel=N)``, a mergeable *ungrouped*
  aggregate additionally fans its per-segment folds out to the persistent
  worker pool (:mod:`repro.engine.parallel`); the coordinator merges the
  partial states.  Grouped statements and joins run in-process either way.
  Results are identical to the in-process tier by construction.

The parity suites hold this executor to a row-at-a-time reference executor
kept under ``tests/`` (``tests/reference_tier.py``), which overrides
:meth:`_compile` with a tree-walking evaluator and declines every fast path
this class chooses (:meth:`_hash_join_plan`, :meth:`_push_where`,
:meth:`_choose_single_table_path`, :meth:`_vectorized_single_table`,
:meth:`_match_masks`, :meth:`_grouped_results`).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import CatalogError, ExecutionError
from .aggregates import AggregateDefinition
from .columnar import SelectedRows, materialized
from .compile import (
    ColumnLayout,
    RowFunction,
    compile_expression,
    compile_predicate_vector,
    compile_row_function,
    keys_for_columns,
)
from .grouping import columnar_top_k, output_position, partitioned_grouped
from .join import (
    HashJoinPlan,
    JoinEstimates,
    classify_where_conjuncts,
    conjoin,
    execute_hash_join,
    has_volatile_calls,
    plan_hash_join,
    plan_key_join,
    split_conjuncts,
)
from .planner import choose_access_path, collect_table_statistics, explain_statement
from .vectorized import ColumnBatch
from .expressions import ColumnRef, Expression, FunctionCall, Star, WindowCall
from . import matview as matview_module
from .parser.ast_nodes import (
    AlterTableRenameStatement,
    AnalyzeStatement,
    CreateIndexStatement,
    CreateMaterializedViewStatement,
    CreateTableAsStatement,
    CreateTableStatement,
    DeleteStatement,
    DropIndexStatement,
    DropMaterializedViewStatement,
    DropTableStatement,
    ExplainStatement,
    FunctionSource,
    InsertStatement,
    Join,
    OrderItem,
    RefreshMaterializedViewStatement,
    SelectItem,
    SelectStatement,
    Statement,
    SubquerySource,
    TableRef,
    TruncateStatement,
    UnionStatement,
    UpdateStatement,
)
from .result import ResultSet
from .schema import Column, Schema
from .segments import AggregateTimings, ExecutionStats, ScanDetail, SegmentedAggregator
from .table import Table
from .types import ANY, SQLType, coerce_value, hashable_key, infer_type, is_null, type_from_name
from .window import compute_window_values

__all__ = ["Executor"]


@dataclass
class _Relation:
    """An intermediate result: named columns, row tuples, segment provenance."""

    columns: List[Tuple[Optional[str], str]]  # (source alias, column name)
    #: A table scan's rows are a lazy :class:`SelectedRows`: a loop that
    #: indexes them binds :func:`materialized` first.
    rows: Sequence[Tuple[Any, ...]]
    segment_ids: List[int]
    num_segments: int = 1
    #: Set only for a single-table scan whose rows map 1:1 onto stored
    #: positions (unfiltered, or bitmap-filtered with ``segment_selections``
    #: recording which); lets the aggregate path slice per-segment argument
    #: columns straight from the table's packed columns.  Any other
    #: derivation (row-path WHERE, joins, projection) drops it.
    source_table: Optional[Table] = None
    #: When the WHERE ran vectorized: one ascending position array per
    #: segment — the selection bitmap's set bits.  ``rows`` then holds only
    #: the selected rows (late-materialized), and the aggregate fast path
    #: gathers argument columns at these positions instead of building rows.
    segment_selections: Optional[List[Any]] = None
    #: Planner cardinality estimate for this relation (statistics-backed for
    #: base-table scans, the access path's estimate for index scans); None
    #: for derived relations, where the actual row count is already in hand.
    #: Feeds the join layer's cost decisions.
    estimated_rows: Optional[float] = None

    def context_keys(self) -> List[List[str]]:
        """For each column, the row-dict keys it populates."""
        return keys_for_columns(self.columns)


class _Pushdown(NamedTuple):
    """How a WHERE clause runs over a join's sources, decided before any scan
    (:meth:`Executor._push_where`; EXPLAIN shows the same decision)."""

    #: Per source, the conjuncts it is scanned under (``None``: a plain scan).
    sides: List[Optional[Expression]]
    #: Per comma-list join step, its hash-key plan (``None``: a cross step).
    steps: List[Optional[HashJoinPlan]]
    #: What stays above the join, evaluated per joined row.
    residual: Optional[Expression]


class _CompileEnv(NamedTuple):
    """What the expressions over one relation's rows compile against."""

    layout: ColumnLayout
    functions: Dict[str, Callable[..., Any]]
    parameters: Optional[Dict[str, Any]]
    aggregate_names: frozenset
    #: ``id(call node)`` → row position, for aggregate/window calls whose
    #: computed values the executor appended to the row.
    slots: Dict[int, int]


class Executor:
    """Executes parsed statements against a :class:`~repro.engine.database.Database`."""

    def __init__(self, database) -> None:
        self.database = database
        # Function/aggregate registries are rebuilt only when the catalog's
        # DDL version moves — every statement used to pay two full dict
        # rebuilds, which dominates short point lookups in serving mode.
        # Callers must treat the returned dicts as read-only.
        self._registry_version = -1
        self._functions_cache: Dict[str, Callable[..., Any]] = {}
        self._aggregates_cache: Dict[str, AggregateDefinition] = {}
        self._aggregate_names_cache: frozenset = frozenset()

    # ------------------------------------------------------------------ utils

    @property
    def catalog(self):
        return self.database.catalog

    def _refresh_registries(self) -> None:
        version = self.catalog.version
        if version != self._registry_version:
            self._functions_cache = {
                name.lower(): self.catalog.get_function(name)
                for name in self.catalog.function_names()
            }
            self._aggregates_cache = {
                name.lower(): self.catalog.get_aggregate(name)
                for name in self.catalog.aggregate_names()
            }
            self._aggregate_names_cache = frozenset(self._aggregates_cache)
            self._registry_version = version

    def _function_registry(self) -> Dict[str, Callable[..., Any]]:
        self._refresh_registries()
        return self._functions_cache

    def _aggregate_registry(self) -> Dict[str, AggregateDefinition]:
        self._refresh_registries()
        return self._aggregates_cache

    def _aggregate_names(self) -> frozenset:
        self._refresh_registries()
        return self._aggregate_names_cache

    # ------------------------------------------------------------------ compilation

    def _compiler_env(
        self,
        columns: Sequence[Tuple[Optional[str], str]],
        parameters,
        slots: Optional[Dict[int, int]] = None,
    ) -> _CompileEnv:
        """Compilation environment for rows laid out as ``columns``.

        The layout depends only on the column list, so one env is valid
        across WHERE filtering (which preserves columns).
        """
        return _CompileEnv(
            ColumnLayout.for_columns(columns),
            self._function_registry(),
            parameters,
            self._aggregate_names(),
            slots or {},
        )

    def _slotted_env(self, columns, parameters, calls: Sequence[Expression]) -> _CompileEnv:
        """Env for rows of ``columns`` followed by one computed value per call.

        ``calls`` are the aggregate or window call nodes the executor has
        already evaluated; expressions compiled against this env read each
        one back from its trailing slot.
        """
        width = len(columns)
        return self._compiler_env(
            columns, parameters, {id(call): width + k for k, call in enumerate(calls)}
        )

    def _compile(self, expression: Expression, env: _CompileEnv) -> RowFunction:
        """The one expression-evaluation seam: always a function of one row.

        In a malformed statement only the unresolvable node raises, and only
        when evaluated, so the statement returns normally over no rows.
        """
        return compile_row_function(expression, *env)

    # ------------------------------------------------------------------ dispatch

    def execute(self, statement: Statement, parameters: Optional[Dict[str, Any]] = None) -> ResultSet:
        start = time.perf_counter()
        if isinstance(statement, SelectStatement):
            result = self._execute_select(statement, parameters)
        elif isinstance(statement, UnionStatement):
            result = self._execute_union(statement, parameters)
        elif isinstance(statement, CreateTableStatement):
            result = self._execute_create_table(statement)
        elif isinstance(statement, CreateTableAsStatement):
            result = self._execute_create_table_as(statement, parameters)
        elif isinstance(statement, InsertStatement):
            result = self._execute_insert(statement, parameters)
        elif isinstance(statement, UpdateStatement):
            result = self._execute_update(statement, parameters)
        elif isinstance(statement, DeleteStatement):
            result = self._execute_delete(statement, parameters)
        elif isinstance(statement, DropTableStatement):
            result = self._execute_drop(statement)
        elif isinstance(statement, TruncateStatement):
            result = self._execute_truncate(statement)
        elif isinstance(statement, AlterTableRenameStatement):
            result = self._execute_alter(statement)
        elif isinstance(statement, CreateIndexStatement):
            result = self._execute_create_index(statement)
        elif isinstance(statement, DropIndexStatement):
            result = self._execute_drop_index(statement)
        elif isinstance(statement, CreateMaterializedViewStatement):
            result = self._execute_create_matview(statement)
        elif isinstance(statement, DropMaterializedViewStatement):
            result = self._execute_drop_matview(statement)
        elif isinstance(statement, RefreshMaterializedViewStatement):
            result = self._execute_refresh_matview(statement)
        elif isinstance(statement, AnalyzeStatement):
            result = self._execute_analyze(statement)
        elif isinstance(statement, ExplainStatement):
            result = self._execute_explain(statement, parameters)
        else:
            raise ExecutionError(f"unsupported statement type {type(statement).__name__}")
        if result.stats is None:
            # Every statement carries stats so benchmark reports never
            # silently drop timings (DML used to return stats-less results).
            kind = type(statement).__name__.removesuffix("Statement")
            kind = "".join(
                ("_" + ch.lower()) if ch.isupper() and i else ch.lower()
                for i, ch in enumerate(kind)
            )
            result.stats = ExecutionStats(statement_kind=kind)
        for timing in result.stats.aggregate_timings:
            # Roll per-aggregate supervision outcomes (fold-dispatch
            # fallbacks, retries, respawns) up to the statement level.
            if timing.fallback_reason or timing.worker_retries or timing.pool_respawns:
                result.stats.note_parallel_fallback(
                    timing.fallback_reason, timing.worker_retries, timing.pool_respawns
                )
        result.stats.total_seconds = time.perf_counter() - start
        return result

    # ------------------------------------------------------------------ FROM clause

    @staticmethod
    def _table_columns(ref: TableRef, table: Table) -> List[Tuple[Optional[str], str]]:
        """The ``(alias, name)`` columns a scan of ``table`` as ``ref`` exposes."""
        alias = ref.effective_alias
        return [(alias, name) for name in table.schema.names]

    def _row_estimate(self, table: Table) -> float:
        """A scan's planner row count: the ANALYZE snapshot while fresh."""
        statistics = self.catalog.get_statistics(table.name)
        if statistics is not None and not statistics.is_stale(table):
            return float(statistics.row_count)
        return float(len(table))

    def _stored_relation(self, ref: TableRef, table: Table, selections=None) -> _Relation:
        """A lazy relation over ``table``'s stored rows (:class:`SelectedRows`):
        at ``selections`` (one ascending position array per segment), or at
        every position when ``None``."""
        parts: List[Tuple[Any, Any]] = []
        segment_ids: List[int] = []
        for segment in range(table.num_segments):
            store = table.column_store(segment)
            positions = np.arange(len(store)) if selections is None else selections[segment]
            parts.append((store, positions))
            segment_ids.extend([segment] * len(positions))
        return _Relation(
            self._table_columns(ref, table),
            SelectedRows(parts),
            segment_ids,
            table.num_segments,
            source_table=table,
            segment_selections=selections,
        )

    def _scan_table(self, ref: TableRef, stats: Optional[ExecutionStats] = None) -> _Relation:
        if not self.catalog.has_table(ref.name) and self.catalog.has_matview(ref.name):
            return self._scan_matview(ref, stats)
        table = self.catalog.get_table(ref.name)
        relation = self._stored_relation(ref, table)
        relation.estimated_rows = self._row_estimate(table)
        if stats is not None:
            stats.rows_scanned_per_source.append(len(relation.rows))
            stats.scan_details.append(
                ScanDetail(
                    table.name, "seq", len(relation.rows), estimated_rows=relation.estimated_rows
                )
            )
        return relation

    def _scan_matview(self, ref: TableRef, stats: Optional[ExecutionStats] = None) -> _Relation:
        """Read a materialized view like a table: freshen if stale, finalize."""
        view = self.catalog.get_matview(ref.name)
        matview_module.ensure_fresh(self, view, stats)
        rows = matview_module.read_rows(self, view)
        columns = [(ref.effective_alias, name) for name in view.columns]
        if stats is not None:
            stats.rows_scanned_per_source.append(len(rows))
            stats.scan_details.append(
                ScanDetail(view.name, "matview", len(rows), estimated_rows=float(len(rows)))
            )
        return _Relation(columns, rows, [0] * len(rows), 1)

    def _scan_subquery(
        self, source: SubquerySource, parameters, stats: Optional[ExecutionStats] = None
    ) -> _Relation:
        result = self.execute(source.select, parameters)
        columns = [(source.alias, name) for name in result.columns]
        rows = list(result.rows)
        if stats is not None:
            stats.rows_scanned_per_source.append(len(rows))
            stats.scan_details.append(ScanDetail(source.alias, "subquery", len(rows)))
        return _Relation(columns, rows, [0] * len(rows), 1)

    def _scan_function(self, source: FunctionSource, parameters) -> _Relation:
        name = source.name.lower()
        env = self._compiler_env([], parameters)
        args = [self._compile(arg, env)(()) for arg in source.args]
        if name == "generate_series":
            if len(args) == 2:
                start, stop = int(args[0]), int(args[1])
                step = 1
            elif len(args) == 3:
                start, stop, step = int(args[0]), int(args[1]), int(args[2])
            else:
                raise ExecutionError("generate_series takes 2 or 3 arguments")
            values = list(range(start, stop + (1 if step > 0 else -1), step))
        else:
            raise ExecutionError(f"unsupported table function {source.name!r}")
        column_name = source.column_names[0] if source.column_names else source.name
        columns = [(source.alias, column_name)]
        rows = [(value,) for value in values]
        return _Relation(columns, rows, [0] * len(rows), 1)

    def _scan_from_item(
        self, item, parameters, stats: Optional[ExecutionStats] = None
    ) -> _Relation:
        if isinstance(item, TableRef):
            return self._scan_table(item, stats)
        if isinstance(item, SubquerySource):
            return self._scan_subquery(item, parameters, stats)
        if isinstance(item, FunctionSource):
            relation = self._scan_function(item, parameters)
            if stats is not None:
                stats.rows_scanned_per_source.append(len(relation.rows))
                stats.scan_details.append(
                    ScanDetail(item.name, "function", len(relation.rows))
                )
            return relation
        raise ExecutionError(f"unsupported FROM item {type(item).__name__}")

    def _scan_filtered(
        self, item, where: Optional[Expression], parameters, stats: ExecutionStats
    ) -> Tuple[_Relation, Optional[Expression]]:
        """Scan one FROM item under ``where``; ``(relation, residual WHERE)``.

        The one access path for a statement's only source and for every join
        side alike: a base table takes an index probe
        (:meth:`_choose_single_table_path`), else the bitmap WHERE over its
        packed columns, else a scan whose rows the caller filters by the
        residual (:meth:`_filter`); a join pushes ``where`` on into its sides.
        """
        if isinstance(item, Join):
            return self._execute_join(item, where, parameters, stats)
        if where is not None and isinstance(item, TableRef) and self.catalog.has_table(item.name):
            chosen = self._choose_single_table_path(item, where, parameters)
            indexed = self._execute_index_scan(chosen, stats) if chosen is not None else None
            if indexed is not None:
                return indexed
            vectorized = self._vectorized_single_table(item, where, parameters, stats)
            if vectorized is not None:
                return vectorized, None
        return self._scan_from_item(item, parameters, stats), where

    def _filter(self, relation: _Relation, where: Optional[Expression], parameters) -> _Relation:
        """The rows of ``relation`` for which ``where`` is TRUE, row by row."""
        if where is None:
            return relation
        predicate = self._compile(where, self._compiler_env(relation.columns, parameters))
        rows, segment_ids = materialized(relation.rows), relation.segment_ids
        kept = [i for i, row in enumerate(rows) if predicate(row) is True]
        return _Relation(
            relation.columns,
            [rows[i] for i in kept],
            [segment_ids[i] for i in kept],
            relation.num_segments,
        )

    def _side(self, item, where: Optional[Expression], parameters, stats) -> _Relation:
        """One join input: ``item`` scanned and filtered under the WHERE
        conjuncts pushed to it, every row tuple built once."""
        relation = self._filter(*self._scan_filtered(item, where, parameters, stats), parameters)
        relation.rows = materialized(relation.rows)
        return relation

    def _static_columns(self, item) -> Optional[List[Tuple[Optional[str], str]]]:
        """The ``(alias, name)`` columns scanning ``item`` yields, known before
        it runs; ``None`` when only running it can tell (or raise)."""
        if isinstance(item, TableRef):
            if self.catalog.has_table(item.name):
                return self._table_columns(item, self.catalog.get_table(item.name))
            if self.catalog.has_matview(item.name):
                names = self.catalog.get_matview(item.name).columns
                return None if names is None else [(item.effective_alias, name) for name in names]
            return None
        if isinstance(item, Join):
            left, right = self._static_columns(item.left), self._static_columns(item.right)
            return None if left is None or right is None else left + right
        if isinstance(item, FunctionSource):
            return [(item.alias, item.column_names[0] if item.column_names else item.name)]
        if isinstance(item, SubquerySource) and isinstance(item.select, SelectStatement):
            inner = [self._static_columns(source) for source in item.select.from_items]
            if None in inner:
                return None
            try:
                items = self._expand_select_items(
                    item.select.select_items, [column for columns in inner for column in columns]
                )
            except ExecutionError:
                return None
            return [(item.alias, self._output_name(one, i)) for i, one in enumerate(items)]
        return None

    def _push_where(
        self, items: List[object], where: Optional[Expression], parameters, join=None
    ) -> Optional[_Pushdown]:
        """Split ``where`` over a comma list's ``items`` or ``join``'s two
        sides, or ``None``: every conjunct stays above the join.

        Decided from the sources' static columns before any scan, and EXPLAIN
        asks the same question, so the plan it shows is the plan that runs.
        A conjunct that reads one source only is pushed into that source's
        scan (:meth:`_scan_filtered`): any comma-list source, either side of
        an inner or cross join, but only the preserved side of a LEFT JOIN —
        the WHERE must still see the other side's NULL-extended rows.  A
        comma list's equality edges become hash-key steps.  Nothing is pushed
        when the WHERE or the join's ON calls a volatile function (fewer rows
        or pairs would change how often it draws), a name does not resolve,
        or a pushed conjunct or key does not compile: product-then-filter
        then evaluates it, and raises its error, where it always did.
        """
        if where is None:
            return None
        columns = [self._static_columns(item) for item in items]
        if None in columns:
            return None
        functions = self._function_registry()
        if join is not None and join.condition is not None:
            if has_volatile_calls(join.condition, functions):
                return None
        source_of = [source for source, names in enumerate(columns) for _ in names]
        classified = classify_where_conjuncts(
            where,
            ColumnLayout.for_columns([column for names in columns for column in names]),
            source_of,
            functions,
        )
        if classified is None:
            return None
        prefilters, edges, residual = classified
        if join is not None:  # the ON clause joins; the WHERE only filters
            if join.kind == "left":
                prefilters.pop(1, None)
            pushed = {id(conjunct) for conjuncts in prefilters.values() for conjunct in conjuncts}
            if not pushed:
                return None
            residual = [c for c in split_conjuncts(where) if id(c) not in pushed]
            edges = []
        sides = [conjoin(prefilters.get(source, [])) for source in range(len(items))]
        for side, names in zip(sides, columns):
            if side is not None and compile_expression(
                side, ColumnLayout.for_columns(names), functions, parameters
            ) is None:
                return None
        steps: List[Optional[HashJoinPlan]] = []
        for position in range(1, len(items)):
            # Every edge is usable at the step that joins its later source.
            step_left: List[Expression] = []
            step_right: List[Expression] = []
            for source_a, expr_a, source_b, expr_b in edges:
                if max(source_a, source_b) == position:
                    step_left.append(expr_b if source_a == position else expr_a)
                    step_right.append(expr_a if source_a == position else expr_b)
            plan = None
            if step_left:
                left_columns = [column for names in columns[:position] for column in names]
                plan = plan_key_join(
                    left_columns, columns[position], step_left, step_right, functions, parameters
                )
                if plan is None:
                    return None
            steps.append(plan)
        return _Pushdown(sides, steps, conjoin(residual))

    def _combine(self, left: _Relation, right: _Relation, pairs: List[Tuple[int, Optional[int]]]) -> _Relation:
        """Build a relation from (left_row_index, right_row_index-or-None) pairs."""
        left_rows, right_rows = materialized(left.rows), materialized(right.rows)
        left_segments = left.segment_ids
        null_row = (None,) * len(right.columns)
        rows = [left_rows[i] + (null_row if j is None else right_rows[j]) for i, j in pairs]
        segment_ids = [left_segments[i] for i, _ in pairs]
        return _Relation(left.columns + right.columns, rows, segment_ids, left.num_segments)

    def _cross(self, left: _Relation, right: _Relation, stats: ExecutionStats) -> _Relation:
        """The Cartesian product, left-major."""
        pairs = [(i, j) for i in range(len(left.rows)) for j in range(len(right.rows))]
        relation = self._combine(left, right, pairs)
        stats.record_join("cross", len(relation.rows))
        return relation

    def _joined_relation(
        self, left: _Relation, right: _Relation, outcome, stats: ExecutionStats
    ) -> _Relation:
        """The relation one hash-join step produced, recorded on ``stats``."""
        estimated = self._join_estimates(left, right).output_rows
        stats.record_join(outcome.strategy, len(outcome.rows), estimated_rows=estimated)
        return _Relation(
            left.columns + right.columns, outcome.rows, outcome.segment_ids, left.num_segments
        )

    @staticmethod
    def _join_estimates(left: _Relation, right: _Relation) -> JoinEstimates:
        """Planner cardinalities for one join step (stats-backed when scans).

        The output estimate is the crude FK-join heuristic ``max(left,
        right)`` — good enough to rank strategies; EXPLAIN displays it as an
        estimate, never as a measurement.
        """
        estimated_left = (
            left.estimated_rows if left.estimated_rows is not None else float(len(left.rows))
        )
        estimated_right = (
            right.estimated_rows
            if right.estimated_rows is not None
            else float(len(right.rows))
        )
        return JoinEstimates(
            left_rows=estimated_left,
            right_rows=estimated_right,
            output_rows=max(estimated_left, estimated_right),
        )

    def _execute_join(
        self, join: Join, where: Optional[Expression], parameters, stats: ExecutionStats
    ) -> Tuple[_Relation, Optional[Expression]]:
        """Run one ``JOIN``; ``(relation, residual WHERE)``.

        Each side is scanned under the WHERE conjuncts :meth:`_push_where`
        gives it.  Filtering a side keeps its row order, so the join still
        emits probe-major, build-minor — the nested loop's order.
        """
        pushdown = self._push_where([join.left, join.right], where, parameters, join)
        left_where, right_where = (None, None) if pushdown is None else pushdown.sides
        residual = where if pushdown is None else pushdown.residual
        left = self._side(join.left, left_where, parameters, stats)
        right = self._side(join.right, right_where, parameters, stats)
        if join.kind == "cross" or join.condition is None:
            return self._cross(left, right, stats), residual

        plan = self._hash_join_plan(left, right, join, parameters)
        if plan is not None:
            outcome = execute_hash_join(plan, left, right)
            return self._joined_relation(left, right, outcome, stats), residual

        # Nested-loop fallback: non-equi conditions, volatile subtrees, names
        # the planner could not resolve.
        condition = self._compile(
            join.condition, self._compiler_env(left.columns + right.columns, parameters)
        )
        pairs: List[Tuple[int, Optional[int]]] = []
        for i, left_row in enumerate(left.rows):
            matched = False
            for j, right_row in enumerate(right.rows):
                if condition(left_row + right_row) is True:
                    pairs.append((i, j))
                    matched = True
            if join.kind == "left" and not matched:
                pairs.append((i, None))
        relation = self._combine(left, right, pairs)
        stats.record_join("nested_loop", len(relation.rows))
        return relation, residual

    def _hash_join_plan(self, left: _Relation, right: _Relation, join: Join, parameters):
        """The hash-join plan for an ON join, or ``None``: the nested loop."""
        return plan_hash_join(
            left.columns,
            right.columns,
            join.kind,
            join.condition,
            self._function_registry(),
            parameters,
        )

    def _build_relation(
        self,
        from_items: List[object],
        parameters,
        where: Optional[Expression],
        stats: ExecutionStats,
    ) -> Tuple[_Relation, Optional[Expression]]:
        """Materialize the FROM clause; returns ``(relation, residual WHERE)``.

        A single source takes :meth:`_scan_filtered` under the whole WHERE.
        A comma list is joined left to right exactly as written, each source
        scanned under the conjuncts :meth:`_push_where` gave it and each step
        a hash join on the equality edges it completes (else Cartesian), so
        the emitted order is the product's lexicographic ``(source 0 row,
        source 1 row, ...)`` order restricted to surviving rows —
        byte-identical to product-then-filter.
        """
        if not from_items:
            # SELECT without FROM: a single empty row.
            return _Relation([], [()], [0], 1), where
        if len(from_items) == 1:
            return self._scan_filtered(from_items[0], where, parameters, stats)
        pushdown = self._push_where(from_items, where, parameters) or _Pushdown(
            [None] * len(from_items), [None] * (len(from_items) - 1), where
        )
        sides = [
            self._side(item, side, parameters, stats)
            for item, side in zip(from_items, pushdown.sides)
        ]
        relation = sides[0]
        for right, plan in zip(sides[1:], pushdown.steps):
            if plan is None:
                relation = self._cross(relation, right, stats)
            else:
                outcome = execute_hash_join(plan, relation, right)
                relation = self._joined_relation(relation, right, outcome, stats)
        return relation, pushdown.residual

    # ------------------------------------------------------------------ SELECT

    def _expand_select_items(
        self, items: List[SelectItem], columns: List[Tuple[Optional[str], str]]
    ) -> List[SelectItem]:
        expanded: List[SelectItem] = []
        for item in items:
            if isinstance(item.expression, Star):
                qualifier = item.expression.qualifier
                matched = False
                for alias, name in columns:
                    if qualifier is None or (alias and alias.lower() == qualifier.lower()):
                        expanded.append(SelectItem(ColumnRef(name, alias), name))
                        matched = True
                if not matched:
                    raise ExecutionError(
                        f"'*' expansion found no columns for qualifier {qualifier!r}"
                    )
            else:
                expanded.append(item)
        return expanded

    def _output_name(self, item: SelectItem, position: int) -> str:
        if item.alias:
            return item.alias
        expression = item.expression
        if isinstance(expression, ColumnRef):
            return expression.name
        if isinstance(expression, FunctionCall):
            return expression.name.lower()
        if isinstance(expression, WindowCall):
            return expression.function.name.lower()
        return f"column{position + 1}"

    def _collect_aggregate_calls(self, expressions: Iterable[Expression]) -> List[FunctionCall]:
        aggregates = self._aggregate_registry()
        calls: List[FunctionCall] = []
        seen = set()
        for expression in expressions:
            if expression is None:
                continue
            for node in expression.walk():
                if isinstance(node, WindowCall):
                    # The aggregate inside an OVER clause is handled by the
                    # window machinery, not by GROUP BY aggregation.
                    break
                if isinstance(node, FunctionCall) and node.name.lower() in aggregates:
                    if id(node) not in seen:
                        seen.add(id(node))
                        calls.append(node)
        return calls

    def _collect_window_calls(self, expressions: Iterable[Expression]) -> List[WindowCall]:
        calls: List[WindowCall] = []
        for expression in expressions:
            if expression is None:
                continue
            for node in expression.walk():
                if isinstance(node, WindowCall):
                    calls.append(node)
        return calls

    def _choose_single_table_path(self, ref: TableRef, where: Expression, parameters):
        """``(ref, table, AccessPath)`` for a table scanned under ``where``, or
        ``None``.

        The one place access-path selection happens: :meth:`_scan_filtered`
        runs the chosen probe, and EXPLAIN calls this too so the displayed
        plan is the executed plan by construction.
        """
        if not self.catalog.has_table(ref.name):
            return None  # the scan path raises the proper catalog error
        table = self.catalog.get_table(ref.name)
        if not any(index.usable for index in table.indexes):
            return None
        path = choose_access_path(
            table,
            ref.effective_alias,
            where,
            self._function_registry(),
            parameters,
            self._aggregate_names(),
            self.catalog.get_statistics(table.name),
        )
        if path is None:
            return None
        return ref, table, path

    def _execute_index_scan(self, chosen, stats: ExecutionStats):
        """Materialize an index probe as a relation; ``(relation, residual)``.

        Probe results are (segment, position) pairs in ascending order —
        exactly the sequential scan's emission order restricted to matching
        rows — so everything downstream behaves byte-identically to the
        scan-then-filter plan.  Returns ``None`` when the probe declines
        (degraded index), in which case the caller takes the scan path.
        """
        ref, table, path = chosen
        entries = path.probe()
        if entries is None:
            return None
        columns = self._table_columns(ref, table)
        rows = table.rows_at(entries)
        segment_ids = [segment for segment, _ in entries]
        stats.rows_scanned_per_source.append(len(rows))
        stats.scan_details.append(
            ScanDetail(
                table.name,
                "index",
                len(rows),
                estimated_rows=path.estimated_rows,
                index_name=path.index.name,
                index_condition=path.condition_sql,
            )
        )
        relation = _Relation(
            columns, rows, segment_ids, table.num_segments, estimated_rows=path.estimated_rows
        )
        return relation, path.residual

    def _vectorized_single_table(
        self, ref: TableRef, where: Expression, parameters, stats: ExecutionStats
    ) -> Optional[_Relation]:
        """Bitmap-vectorized WHERE over one base table, or ``None``.

        When ``where`` is in the vector-compilable subset, evaluate it
        segment-at-a-time over the packed columns into selection bitmaps —
        no per-row Python at all — and return a relation whose rows are the
        selected positions, materialized lazily (:class:`SelectedRows`).
        ``None`` (compile decline or runtime abort on any segment) sends the
        caller to the row path; both paths are byte-identical by contract.
        """
        table = self.catalog.get_table(ref.name)
        predicate = compile_predicate_vector(
            where,
            ColumnLayout.for_columns(self._table_columns(ref, table)),
            [column.sql_type for column in table.schema],
            parameters,
        )
        if predicate is None:
            return None
        selections: List[Any] = []
        for segment in range(table.num_segments):
            mask = predicate.mask(table.column_store(segment))
            if mask is None:
                return None  # runtime abort (e.g. demoted column) → row path
            selections.append(np.flatnonzero(mask))
        relation = self._stored_relation(ref, table, selections)
        width, matched = len(table), len(relation.rows)
        # Rows *touched* is the bitmap width (every stored row was examined),
        # not the popcount — rows_matched reports the survivors.
        stats.rows_scanned_per_source.append(width)
        stats.scan_details.append(
            ScanDetail(
                table.name, "seq", width, estimated_rows=self._row_estimate(table), vectorized=True
            )
        )
        stats.where_vectorized = True
        stats.bitmap_selectivity = (matched / width) if width else 0.0
        return relation

    def _filtered_relation(
        self, statement: SelectStatement, parameters, stats: ExecutionStats
    ) -> Tuple[_Relation, _CompileEnv]:
        """FROM and WHERE: the rows the rest of the statement works on."""
        relation, residual_where = self._build_relation(
            statement.from_items, parameters, statement.where, stats
        )
        # Per-source base rows *touched*, never the size of a join product;
        # single-source statements keep the historical value (their base
        # scan), and an index scan counts only its probe results.
        stats.rows_scanned = (
            sum(stats.rows_scanned_per_source)
            if stats.rows_scanned_per_source
            else len(relation.rows)
        )
        relation = self._filter(relation, residual_where, parameters)
        # Rows surviving the WHERE stage — distinct from rows *touched*
        # (``rows_scanned``), which an index scan keeps small.
        stats.rows_matched = len(relation.rows)
        return relation, self._compiler_env(relation.columns, parameters)

    def _execute_select(self, statement: SelectStatement, parameters) -> ResultSet:
        stats = ExecutionStats(statement_kind="select")
        relation, env = self._filtered_relation(statement, parameters, stats)

        select_items = self._expand_select_items(statement.select_items, relation.columns)
        output_names = [self._output_name(item, i) for i, item in enumerate(select_items)]

        all_expressions = [item.expression for item in select_items]
        if statement.having is not None:
            all_expressions.append(statement.having)
        for order_item in statement.order_by:
            all_expressions.append(order_item.expression)

        aggregate_calls = self._collect_aggregate_calls(all_expressions)
        window_calls = self._collect_window_calls(all_expressions)

        # ORDER BY + LIMIT k: only the top k (+ offset) rows are needed, so
        # the sort can short-circuit into a bounded heap selection — unless
        # DISTINCT must deduplicate the full ordering first.
        limit_hint: Optional[int] = None
        if statement.order_by and statement.limit is not None and not statement.distinct:
            limit_hint = statement.limit + (statement.offset or 0)

        if aggregate_calls or statement.group_by:
            output_rows = self._execute_grouped(
                statement,
                select_items,
                aggregate_calls,
                relation,
                parameters,
                stats,
                env,
                limit_hint=limit_hint,
            )
        else:
            rows = relation.rows
            if window_calls:
                # Window results ride as trailing slots of each row, where
                # the select list and ORDER BY read them back by position.
                rows = materialized(rows)
                window_values = compute_window_values(
                    window_calls,
                    rows,
                    self._aggregate_registry(),
                    lambda expression: self._compile(expression, env),
                )
                env = self._slotted_env(relation.columns, parameters, window_calls)
                rows = [row + values for row, values in zip(rows, window_values)]
            item_fns = [self._compile(item.expression, env) for item in select_items]
            top = None
            if statement.order_by:
                top = columnar_top_k(
                    statement, [item.expression for item in select_items], output_names,
                    relation, env.layout, limit_hint, bool(window_calls), stats,
                )
            projected = rows if top is None else top  # top-k: the winning rows only
            output_rows = [tuple(fn(row) for fn in item_fns) for row in projected]
            if statement.order_by and top is None:
                output_rows = self._apply_order_by(
                    statement.order_by, output_names, output_rows, rows, env, limit_hint, stats
                )

        if statement.distinct:
            seen = set()
            unique_rows = []
            for row in output_rows:
                key = tuple(hashable_key(value) for value in row)
                if key not in seen:
                    seen.add(key)
                    unique_rows.append(row)
            output_rows = unique_rows

        if statement.offset:
            output_rows = output_rows[statement.offset:]
        if statement.limit is not None:
            output_rows = output_rows[: statement.limit]

        return ResultSet(output_names, output_rows, stats=stats)

    def _apply_order_by(
        self,
        order_by: List[OrderItem],
        output_names: List[str],
        output_rows: List[Tuple[Any, ...]],
        source_rows: Sequence[Tuple[Any, ...]],
        env: _CompileEnv,
        limit_hint: Optional[int],
        stats: ExecutionStats,
    ) -> List[Tuple[Any, ...]]:
        """Sort ``output_rows``; ``source_rows[i]`` is the (``env``-shaped)
        row that output row ``i`` was computed from.

        NaN sort keys are SQL NULL (``types.is_null``): they are placed with
        the NULLs, in row order among themselves.
        """
        count = len(output_rows)
        lowered_names = [name.lower() for name in output_names]
        keys_per_item: List[List[Any]] = []
        for order_item in order_by:
            position = output_position(order_item.expression, lowered_names)
            if position is not None:
                keys = [row[position] for row in output_rows]
            else:
                fn = self._compile(order_item.expression, env)
                keys = [fn(row) for row in source_rows]
            keys_per_item.append(
                [None if is_null(key) else hashable_key(key) for key in keys]
            )

        if limit_hint is not None and 0 <= limit_hint < count:
            stats.order_strategy = "heap"
            return self._top_k_order_by(order_by, output_rows, keys_per_item, limit_hint)

        stats.order_strategy = "sort"
        indices = list(range(count))
        for order_item, keys in reversed(list(zip(order_by, keys_per_item))):
            non_null = [i for i in indices if keys[i] is not None]
            nulls = [i for i in indices if keys[i] is None]
            non_null.sort(key=keys.__getitem__, reverse=not order_item.ascending)
            indices = (non_null + nulls) if order_item.nulls_last else (nulls + non_null)
        return [output_rows[i] for i in indices]

    @staticmethod
    def _top_k_order_by(
        order_by: List[OrderItem],
        output_rows: List[Tuple[Any, ...]],
        keys_per_item: List[List[Any]],
        limit: int,
    ) -> List[Tuple[Any, ...]]:
        """``ORDER BY ... LIMIT k`` short-circuit: bounded heap selection.

        One ``heapq.nsmallest`` over a composite comparator replaces the full
        multi-pass sort — O(n log k) instead of O(k_order · n log n) — which
        is the shape of Viterbi's per-position argmax (``ORDER BY score DESC
        LIMIT 1``).  The comparator reproduces the multi-pass semantics
        exactly: per-key ascending/descending, NULLS FIRST/LAST partitioning
        per key, ties falling through to the next key, and final ties keeping
        input order (``nsmallest`` is stable), so the selected prefix is
        byte-identical to sorting everything and slicing.
        """

        def compare(first: int, second: int) -> int:
            for keys, order_item in zip(keys_per_item, order_by):
                a, b = keys[first], keys[second]
                if a is None or b is None:
                    if a is None and b is None:
                        continue
                    if order_item.nulls_last:
                        return 1 if a is None else -1
                    return -1 if a is None else 1
                if a == b:
                    continue
                if a < b:
                    return -1 if order_item.ascending else 1
                return 1 if order_item.ascending else -1
            return 0

        top = heapq.nsmallest(limit, range(len(output_rows)), key=cmp_to_key(compare))
        return [output_rows[index] for index in top]

    def _execute_grouped(
        self,
        statement: SelectStatement,
        select_items: List[SelectItem],
        aggregate_calls: List[FunctionCall],
        relation: _Relation,
        parameters,
        stats: ExecutionStats,
        env: _CompileEnv,
        limit_hint: Optional[int] = None,
    ) -> List[Tuple[Any, ...]]:
        call_plans = self._call_plans(aggregate_calls, env)
        group_results = self._grouped_results(statement, call_plans, relation, stats, env)

        # HAVING, the select list and ORDER BY run over one row per group:
        # the representative's columns, then one slot per aggregate call.
        # Only an ungrouped aggregate over no rows lacks a representative,
        # and then its expressions see no columns at all.
        group_env = self._slotted_env(
            relation.columns if len(relation.rows) else [], parameters, aggregate_calls
        )
        having = (
            self._compile(statement.having, group_env)
            if statement.having is not None
            else None
        )
        item_fns = [self._compile(item.expression, group_env) for item in select_items]

        output_rows: List[Tuple[Any, ...]] = []
        group_rows: List[Tuple[Any, ...]] = []
        for _key, representative, aggregate_values in group_results:
            group_row = tuple(aggregate_values)
            if representative is not None:
                group_row = representative + group_row
            if having is not None and having(group_row) is not True:
                continue
            output_rows.append(tuple(fn(group_row) for fn in item_fns))
            group_rows.append(group_row)

        if statement.order_by:
            stats.order_decline_reason = "ORDER BY runs over aggregate output"
            output_names = [self._output_name(item, i) for i, item in enumerate(select_items)]
            output_rows = self._apply_order_by(
                statement.order_by, output_names, output_rows, group_rows, group_env,
                limit_hint, stats,
            )
        return output_rows

    def _call_plans(self, aggregate_calls: List[FunctionCall], env: _CompileEnv) -> List[tuple]:
        """One ``(call, definition, aggregator, argument functions)`` per
        aggregate call, compiled once per statement (not per group)."""
        aggregates = self._aggregate_registry()
        call_plans = []
        for call in aggregate_calls:
            definition = aggregates[call.name.lower()]
            argument_fns = [self._compile(arg, env) for arg in call.args]
            call_plans.append((call, definition, SegmentedAggregator(definition), argument_fns))
        return call_plans

    def _grouped_results(self, statement, call_plans, relation, stats, env):
        """Phase one of an aggregate statement: ``(key, representative row or
        None, [aggregate value per call])`` per group, in first-appearance
        order (:func:`~repro.engine.grouping.partitioned_grouped`)."""
        return partitioned_grouped(self, statement, call_plans, relation, stats, env)

    def _run_aggregate(
        self, call: FunctionCall, aggregator: SegmentedAggregator, streams: list, *, grouped: bool
    ) -> Tuple[Any, AggregateTimings]:
        """One group's value for one call, from its per-segment argument
        streams.  Only an ungrouped statement's aggregate may fold on the
        worker pool; :meth:`SegmentedAggregator.run` keeps an unmergeable one
        in-process."""
        pool = None if grouped else self.database.worker_pool
        if call.distinct:
            seen = set()
            unique: List[Tuple[Any, ...]] = []
            for stream in streams:
                for arguments in stream.rows() if isinstance(stream, ColumnBatch) else stream:
                    key = tuple(hashable_key(a) for a in arguments)
                    if key not in seen:
                        seen.add(key)
                        unique.append(arguments)
            streams = [unique] + [[] for _ in streams[1:]]
        return aggregator.run(streams, pool=pool)

    def _execute_union(self, statement: UnionStatement, parameters) -> ResultSet:
        results = [self._execute_select(select, parameters) for select in statement.selects]
        width = len(results[0].columns)
        for result in results[1:]:
            if len(result.columns) != width:
                raise ExecutionError("UNION inputs must have the same number of columns")
        rows: List[Tuple[Any, ...]] = []
        for result in results:
            rows.extend(result.rows)
        if not statement.all:
            seen = set()
            unique = []
            for row in rows:
                key = tuple(hashable_key(v) for v in row)
                if key not in seen:
                    seen.add(key)
                    unique.append(row)
            rows = unique
        return ResultSet(results[0].columns, rows, stats=ExecutionStats(statement_kind="select"))

    # ------------------------------------------------------------------ DDL / DML

    def _require_base_table(self, name: str, operation: str) -> Table:
        """Resolve a DML target, rejecting materialized views explicitly."""
        if not self.catalog.has_table(name) and self.catalog.has_matview(name):
            raise CatalogError(
                f"cannot {operation} {name!r}: it is a materialized view"
            )
        return self.catalog.get_table(name)

    def _execute_create_table(self, statement: CreateTableStatement) -> ResultSet:
        if statement.if_not_exists and self.catalog.has_table(statement.name):
            return ResultSet([], [], rowcount=0)
        schema = Schema(
            [Column(col.name, type_from_name(col.type_name)) for col in statement.columns]
        )
        table = Table(
            statement.name,
            schema,
            num_segments=self.database.num_segments,
            distributed_by=statement.distributed_by,
            temporary=statement.temporary,
        )
        self.catalog.create_table(table)
        return ResultSet([], [], rowcount=0)

    def _infer_result_schema(self, result: ResultSet) -> Schema:
        columns: List[Column] = []
        for position, name in enumerate(result.columns):
            sql_type: SQLType = ANY
            for row in result.rows:
                value = row[position]
                if value is not None:
                    sql_type = infer_type(value)
                    break
            columns.append(Column(name, sql_type))
        return Schema(columns)

    def _execute_create_table_as(self, statement: CreateTableAsStatement, parameters) -> ResultSet:
        result = self.execute(statement.select, parameters)
        if self.catalog.has_table(statement.name):
            raise CatalogError(f"table {statement.name!r} already exists")
        schema = self._infer_result_schema(result)
        table = Table(
            statement.name,
            schema,
            num_segments=self.database.num_segments,
            distributed_by=statement.distributed_by,
            temporary=statement.temporary,
        )
        table.insert_many(result.rows)
        self.catalog.create_table(table)
        return ResultSet([], [], rowcount=len(result.rows), stats=result.stats)

    def _execute_insert(self, statement: InsertStatement, parameters) -> ResultSet:
        table = self._require_base_table(statement.table, "INSERT into")
        rows: List[List[Any]] = []
        if statement.select is not None:
            result = self.execute(statement.select, parameters)
            rows = [list(row) for row in result.rows]
        else:
            env = self._compiler_env([], parameters)
            for value_row in statement.values_rows:
                rows.append([self._compile(expression, env)(()) for expression in value_row])
        if statement.columns:
            name_to_position = {name.lower(): i for i, name in enumerate(statement.columns)}
            full_rows = []
            for row in rows:
                if len(row) != len(statement.columns):
                    raise ExecutionError(
                        "INSERT has a different number of expressions than target columns"
                    )
                full_row = []
                for column in table.schema:
                    position = name_to_position.get(column.name.lower())
                    full_row.append(row[position] if position is not None else None)
                full_rows.append(full_row)
            rows = full_rows
        watchers = self.catalog.incremental_matviews_on(table.name)
        before_version = table._data_version
        before_lengths = table.segment_sizes() if watchers else None
        count = table.insert_many(rows)
        stats = ExecutionStats(statement_kind="insert")
        if before_lengths is not None:
            matview_module.apply_insert_delta(
                self, table, before_version, before_lengths, stats
            )
        return ResultSet([], [], rowcount=count, stats=stats)

    def _table_env(self, table: Table, parameters) -> _CompileEnv:
        """Env over ``table``'s stored rows, named as ``FROM table`` names them."""
        return self._compiler_env(self._table_columns(TableRef(table.name), table), parameters)

    def _match_masks(self, table: Table, where: Expression, env: _CompileEnv):
        """One WHERE match bitmap per segment off the packed columns, or None.

        ``None`` (compile decline, or a runtime abort on any segment) sends
        the caller to the per-row predicate.
        """
        vector = compile_predicate_vector(
            where, env.layout, [column.sql_type for column in table.schema], env.parameters
        )
        if vector is None:
            return None
        masks = []
        for segment in range(table.num_segments):
            mask = vector.mask(table.column_store(segment))
            if mask is None:
                return None
            masks.append(mask)
        return masks

    def _execute_update(self, statement: UpdateStatement, parameters) -> ResultSet:
        """UPDATE, rewriting matched rows in place.

        The WHERE predicate and each assignment expression compile once per
        statement against the table's column layout and run over positional
        row tuples.

        The rewrite is bitmap-aware: only *matched* positions are written,
        per segment (``Table.update_rows_in_place``), so an UPDATE touching
        1% of a table does ~1% of the storage work — rows never move
        segments, untouched segments keep their caches, and only indexes on
        assigned columns are maintained.  When the WHERE is in the
        vector-compilable subset the match bitmap itself comes from the
        packed columns with no per-row predicate calls.
        """
        table = self._require_base_table(statement.table, "UPDATE")
        env = self._table_env(table, parameters)
        segment_masks = predicate = None
        if statement.where is not None:
            segment_masks = self._match_masks(table, statement.where, env)
            if segment_masks is None:
                predicate = self._compile(statement.where, env)
        assignments = [
            (table.schema.index_of(name), self._compile(expression, env))
            for name, expression in statement.assignments
        ]
        changed_columns = [position for position, _ in assignments]
        column_types = [column.sql_type for column in table.schema]
        rows_scanned = len(table)
        updates: List[Tuple[List[int], List[Tuple[Any, ...]]]] = []
        updated = 0
        for segment in range(table.num_segments):
            if segment_masks is not None:
                # Only the matched rows are read off the packed columns.
                selected = np.flatnonzero(segment_masks[segment])
                positions = selected.tolist()
                rows = table.column_store(segment).rows_at(selected)
            elif predicate is None:  # no WHERE: every row matches
                rows = table.segment_view(segment)
                positions = list(range(len(rows)))
            else:
                segment_rows = table.segment_view(segment)
                positions = [
                    position
                    for position, row in enumerate(segment_rows)
                    if predicate(row) is True
                ]
                rows = [segment_rows[position] for position in positions]
            new_rows: List[Tuple[Any, ...]] = []
            for row in rows:
                new_row = list(row)
                for column_index, value_fn in assignments:
                    # The full-replace path coerced on reinsert; coerce the
                    # assigned values up front so the in-place write stores
                    # exactly what a reinsert would have.
                    new_row[column_index] = coerce_value(
                        value_fn(row), column_types[column_index]
                    )
                new_rows.append(tuple(new_row))
            updates.append((positions, new_rows))
            updated += len(new_rows)
        table.update_rows_in_place(updates, changed_columns)
        stats = ExecutionStats(
            statement_kind="update",
            rows_scanned=rows_scanned,
            rows_matched=updated,
            rows_scanned_per_source=[rows_scanned],
        )
        if segment_masks is not None:
            stats.where_vectorized = True
            stats.bitmap_selectivity = updated / rows_scanned if rows_scanned else 0.0
        return ResultSet([], [], rowcount=updated, stats=stats)

    def _execute_delete(self, statement: DeleteStatement, parameters) -> ResultSet:
        table = self._require_base_table(statement.table, "DELETE from")
        if statement.where is None:
            count = len(table)
            table.truncate()
            return ResultSet([], [], rowcount=count)
        rows_scanned = len(table)
        env = self._table_env(table, parameters)
        stats = ExecutionStats(
            statement_kind="delete",
            rows_scanned=rows_scanned,
            rows_scanned_per_source=[rows_scanned],
        )
        # Bitmap DELETE: hand the table the *complement* positions to keep —
        # no row tuples, no per-row predicate calls, one index remap per
        # segment.
        segment_masks = self._match_masks(table, statement.where, env)
        if segment_masks is not None:
            count = table.keep_segment_positions(
                [np.flatnonzero(~mask).tolist() for mask in segment_masks]
            )
            stats.where_vectorized = True
            stats.bitmap_selectivity = count / rows_scanned if rows_scanned else 0.0
        else:
            predicate = self._compile(statement.where, env)
            count = table.delete_where_rows(lambda row: predicate(row) is True)
        stats.rows_matched = count
        return ResultSet([], [], rowcount=count, stats=stats)

    def _execute_drop(self, statement: DropTableStatement) -> ResultSet:
        for name in statement.names:
            self.catalog.drop_table(name, if_exists=statement.if_exists)
        return ResultSet([], [], rowcount=0)

    def _execute_truncate(self, statement: TruncateStatement) -> ResultSet:
        table = self._require_base_table(statement.name, "TRUNCATE")
        count = len(table)
        table.truncate()
        return ResultSet([], [], rowcount=count)

    def _execute_alter(self, statement: AlterTableRenameStatement) -> ResultSet:
        self.catalog.rename_table(statement.old_name, statement.new_name)
        return ResultSet([], [], rowcount=0)

    # ------------------------------------------------------------------ matview DDL

    def _execute_create_matview(self, statement: CreateMaterializedViewStatement) -> ResultSet:
        if self.catalog.has_matview(statement.name) or self.catalog.has_table(statement.name):
            if statement.if_not_exists and self.catalog.has_matview(statement.name):
                return ResultSet([], [], rowcount=0)
            raise CatalogError(f"relation {statement.name!r} already exists")
        view = matview_module.plan_matview(
            self, statement.name, statement.sql or "", statement.select
        )
        # Materialize eagerly: validates the defining query end-to-end and
        # leaves the view fresh for its first read.
        matview_module.refresh(self, view)
        self.catalog.create_matview(view)
        stats = ExecutionStats(statement_kind="create_materialized_view")
        stats.matview_recomputes = 1
        return ResultSet([], [], rowcount=0, stats=stats)

    def _execute_drop_matview(self, statement: DropMaterializedViewStatement) -> ResultSet:
        for name in statement.names:
            self.catalog.drop_matview(name, if_exists=statement.if_exists)
        return ResultSet([], [], rowcount=0)

    def _execute_refresh_matview(self, statement: RefreshMaterializedViewStatement) -> ResultSet:
        view = self.catalog.get_matview(statement.name)
        stats = ExecutionStats(statement_kind="refresh_materialized_view")
        matview_module.refresh(self, view, stats)
        return ResultSet([], [], rowcount=0, stats=stats)

    # ------------------------------------------------------------------ planner DDL

    def _execute_create_index(self, statement: CreateIndexStatement) -> ResultSet:
        self.catalog.create_index(
            statement.name,
            statement.table,
            statement.column,
            kind=statement.method,
            if_not_exists=statement.if_not_exists,
        )
        return ResultSet([], [], rowcount=0)

    def _execute_drop_index(self, statement: DropIndexStatement) -> ResultSet:
        for name in statement.names:
            self.catalog.drop_index(name, if_exists=statement.if_exists)
        return ResultSet([], [], rowcount=0)

    def _execute_analyze(self, statement: AnalyzeStatement) -> ResultSet:
        names = [statement.table] if statement.table else self.catalog.table_names()
        for name in names:
            table = self.catalog.get_table(name)
            self.catalog.set_statistics(collect_table_statistics(table))
        return ResultSet([], [], rowcount=len(names))

    def _execute_explain(self, statement: ExplainStatement, parameters) -> ResultSet:
        lines = explain_statement(
            self, statement.target, parameters, analyze=statement.analyze
        )
        return ResultSet(["QUERY PLAN"], [(line,) for line in lines])
