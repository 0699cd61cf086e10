"""Statement execution.

The executor evaluates parsed statements against the catalog.  The part that
matters most for the paper is aggregate execution: queries that aggregate a
single base table run the *segmented* path — independent per-segment
transition folds followed by a merge — which is the Greenplum execution model
the Figure 4 / Figure 5 experiments measure.  Joins have their own execution
layer (:mod:`repro.engine.join`): inner/left equi-joins — and implicit
multi-table FROM lists whose WHERE clause contains cross-source equality
conjuncts — run as compiled build/probe hash joins with single-side conjuncts
pushed below the join, falling back to a nested loop over the compiled ON
condition for anything the planner cannot prove safe.  Everything else
(subqueries, window functions, DML) exists so that MADlib-style methods can be
written as plain SQL plus driver functions, exactly as in the paper.

Every expression the executor evaluates — WHERE, select list, GROUP BY keys,
aggregate arguments, HAVING, ORDER BY keys, window partition/order/argument
keys, join ON conditions, UPDATE SET, DELETE WHERE, INSERT VALUES — goes
through one seam, :meth:`Executor._compile`, which always returns a function
over a positional row.  Aggregate and window results are appended to the row
as trailing slots, so the expressions around them are ordinary ``fn(row)``
calls too.  There are two production tiers (see ``docs/engine-execution.md``
and ``docs/architecture.md``):

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

The **reference evaluator** (tree-walking ``Expression.evaluate``) is one
adapter behind the same seam: ``_compile`` returns it when the compiler
declines a malformed statement — which then raises the evaluator's own error
on the first row — and for every expression under
``Database(compiled_execution=False)``, the oracle
``tests/engine/test_compiled_parity.py`` compares the closures against.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from functools import cmp_to_key
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import CatalogError, ExecutionError, SQLSyntaxError
from .aggregates import AggregateDefinition
from .columnar import SelectedRows
from .compile import (
    ColumnLayout,
    RowFunction,
    compile_expression,
    compile_predicate_vector,
    keys_for_columns,
)
from .grouping import columnar_top_k, output_position, partitioned_grouped
from .join import (
    JoinEstimates,
    apply_prefilter,
    classify_where_conjuncts,
    conjoin,
    execute_hash_join,
    plan_hash_join,
    plan_key_join,
)
from .planner import (
    choose_access_path,
    collect_table_statistics,
    explain_statement,
    maybe_auto_analyze,
)
from .vectorized import ColumnBatch
from .expressions import (
    ColumnRef,
    Expression,
    FunctionCall,
    Star,
    WindowCall,
    interpreted_row_function,
)
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
    rows: List[Tuple[Any, ...]]
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


class _CompileEnv(NamedTuple):
    """What the expressions over one relation's rows compile against."""

    keys_per_column: List[List[str]]
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
        keys_per_column = keys_for_columns(columns)
        return _CompileEnv(
            keys_per_column,
            ColumnLayout(keys_per_column),
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

        The compiled closure by default.  The reference evaluator's adapter
        when ``compiled_execution`` is off, or when the strict compiler
        declines — which, at this seam, means a malformed statement; the
        adapter resolves nothing ahead of time, so the statement raises the
        evaluator's own error on the first row it evaluates and returns
        normally over no rows.
        """
        keys_per_column, layout, functions, parameters, aggregate_names, slots = env
        if self.database.compiled_execution:
            fn = compile_expression(
                expression, layout, functions, parameters, aggregate_names, slots
            )
            if fn is not None:
                return fn
        return interpreted_row_function(
            expression, keys_per_column, functions, parameters, slots
        )

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

    def _scan_table(self, ref: TableRef, stats: Optional[ExecutionStats] = None) -> _Relation:
        if not self.catalog.has_table(ref.name) and self.catalog.has_matview(ref.name):
            return self._scan_matview(ref, stats)
        table = self.catalog.get_table(ref.name)
        columns = self._table_columns(ref, table)
        rows: List[Tuple[Any, ...]] = []
        segment_ids: List[int] = []
        for segment in range(table.num_segments):
            segment_rows = table.segment_view(segment)
            rows.extend(segment_rows)
            segment_ids.extend([segment] * len(segment_rows))
        statistics = self.catalog.get_statistics(table.name)
        estimated = (
            float(statistics.row_count)
            if statistics is not None and not statistics.is_stale(table)
            else float(len(rows))
        )
        if stats is not None:
            stats.rows_scanned_per_source.append(len(rows))
            stats.scan_details.append(
                ScanDetail(table.name, "seq", len(rows), estimated_rows=estimated)
            )
        return _Relation(
            columns,
            rows,
            segment_ids,
            table.num_segments,
            source_table=table,
            estimated_rows=estimated,
        )

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
        if isinstance(item, Join):
            return self._execute_join(item, parameters, stats)
        raise ExecutionError(f"unsupported FROM item {type(item).__name__}")

    def _combine(self, left: _Relation, right: _Relation, pairs: List[Tuple[int, Optional[int]]]) -> _Relation:
        """Build a relation from (left_row_index, right_row_index-or-None) pairs."""
        columns = left.columns + right.columns
        right_width = len(right.columns)
        rows: List[Tuple[Any, ...]] = []
        segment_ids: List[int] = []
        for left_index, right_index in pairs:
            right_row = right.rows[right_index] if right_index is not None else (None,) * right_width
            rows.append(left.rows[left_index] + right_row)
            segment_ids.append(left.segment_ids[left_index])
        num_segments = left.num_segments
        return _Relation(columns, rows, segment_ids, num_segments)

    def _joined_relation(
        self, left: _Relation, right: _Relation, outcome, stats: Optional[ExecutionStats]
    ) -> _Relation:
        """The relation one hash-join step produced, recorded on ``stats``."""
        if stats is not None:
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
        self, join: Join, parameters, stats: Optional[ExecutionStats] = None
    ) -> _Relation:
        left = self._scan_from_item(join.left, parameters, stats)
        right = self._scan_from_item(join.right, parameters, stats)
        pairs: List[Tuple[int, Optional[int]]] = []
        if join.kind == "cross" or join.condition is None:
            for i in range(len(left.rows)):
                for j in range(len(right.rows)):
                    pairs.append((i, j))
            relation = self._combine(left, right, pairs)
            if stats is not None:
                stats.record_join("cross", len(relation.rows))
            return relation

        # Hash joins are the compiled tier's; the reference tier (and any
        # condition the planner declines) runs the nested loop.
        if self.database.compiled_execution:
            plan = plan_hash_join(
                left.columns,
                right.columns,
                join.kind,
                join.condition,
                self._function_registry(),
                parameters,
            )
            if plan is not None:
                outcome = execute_hash_join(plan, left, right)
                return self._joined_relation(left, right, outcome, stats)

        # Nested-loop fallback: non-equi conditions, volatile subtrees, names
        # the planner could not resolve.
        condition = self._compile(
            join.condition, self._compiler_env(left.columns + right.columns, parameters)
        )
        for i, left_row in enumerate(left.rows):
            matched = False
            for j, right_row in enumerate(right.rows):
                if condition(left_row + right_row) is True:
                    pairs.append((i, j))
                    matched = True
            if join.kind == "left" and not matched:
                pairs.append((i, None))
        relation = self._combine(left, right, pairs)
        if stats is not None:
            stats.record_join("nested_loop", len(relation.rows))
        return relation

    def _build_relation(
        self,
        from_items: List[object],
        parameters,
        where: Optional[Expression] = None,
        stats: Optional[ExecutionStats] = None,
    ) -> Tuple[_Relation, Optional[Expression]]:
        """Materialize the FROM clause; returns ``(relation, residual WHERE)``.

        For a multi-source FROM list with a WHERE clause, the planner tries
        to turn the legacy Cartesian-product-then-filter shape into a chain
        of pushed-down prefilters and hash-join steps
        (:func:`repro.engine.join.classify_where_conjuncts`); WHERE conjuncts
        consumed by the plan are removed from the returned residual.  When
        planning is not applicable (single source, no WHERE, the reference
        tier, unsafe clause) the WHERE comes back untouched.
        """
        if not from_items:
            # SELECT without FROM: a single empty row.
            return _Relation([], [()], [0], 1), where
        relations = [self._scan_from_item(item, parameters, stats) for item in from_items]
        if len(relations) == 1:
            return relations[0], where
        if where is not None and self.database.compiled_execution:
            planned = self._plan_multi_from(relations, where, parameters, stats)
            if planned is not None:
                return planned
        relation = relations[0]
        for right in relations[1:]:
            pairs = [(i, j) for i in range(len(relation.rows)) for j in range(len(right.rows))]
            relation = self._combine(relation, right, pairs)
            if stats is not None:
                stats.record_join("cross", len(relation.rows))
        return relation, where

    def _plan_multi_from(
        self,
        relations: List[_Relation],
        where: Expression,
        parameters,
        stats: Optional[ExecutionStats],
    ) -> Optional[Tuple[_Relation, Optional[Expression]]]:
        """WHERE→join pushdown over a comma FROM list, or ``None`` (legacy).

        Sources are joined left-to-right exactly as written; every equality
        edge becomes usable at the step that joins its later source, so the
        emitted row order is the Cartesian product's lexicographic
        ``(source 0 row, source 1 row, ...)`` order restricted to surviving
        rows — byte-identical to product-then-filter.
        """
        functions = self._function_registry()
        all_columns = [column for relation in relations for column in relation.columns]
        source_of: List[int] = []
        for source, relation in enumerate(relations):
            source_of.extend([source] * len(relation.columns))
        classified = classify_where_conjuncts(
            where, ColumnLayout.for_columns(all_columns), source_of, functions
        )
        if classified is None:
            return None
        prefilters, edges, residual = classified

        # Compile and apply the single-source prefilters (no relation is
        # mutated before every compile has succeeded).
        predicates: Dict[int, Callable] = {}
        for source, conjuncts in prefilters.items():
            predicate = compile_expression(
                conjoin(conjuncts),
                ColumnLayout(relations[source].context_keys()),
                functions,
                parameters,
            )
            if predicate is None:
                return None
            predicates[source] = predicate
        filtered: List[_Relation] = []
        for source, relation in enumerate(relations):
            predicate = predicates.get(source)
            if predicate is not None:
                rows, segment_ids = apply_prefilter(
                    predicate, relation.rows, relation.segment_ids
                )
                relation = _Relation(relation.columns, rows, segment_ids, relation.num_segments)
            filtered.append(relation)

        current = filtered[0]
        for position in range(1, len(filtered)):
            right = filtered[position]
            step_left: List[Expression] = []
            step_right: List[Expression] = []
            for source_a, expr_a, source_b, expr_b in edges:
                if max(source_a, source_b) != position:
                    continue  # both joined already, or the later source is ahead
                if source_a == position:
                    step_left.append(expr_b)
                    step_right.append(expr_a)
                else:
                    step_left.append(expr_a)
                    step_right.append(expr_b)
            if not step_left:
                pairs = [
                    (i, j)
                    for i in range(len(current.rows))
                    for j in range(len(right.rows))
                ]
                current = self._combine(current, right, pairs)
                if stats is not None:
                    stats.record_join("cross", len(current.rows))
                continue
            plan = plan_key_join(
                current.columns, right.columns, step_left, step_right, functions, parameters
            )
            if plan is None:
                return None
            outcome = execute_hash_join(plan, current, right)
            current = self._joined_relation(current, right, outcome, stats)
        return current, conjoin(residual)

    # ------------------------------------------------------------------ SELECT

    def _expand_select_items(
        self, items: List[SelectItem], relation: _Relation
    ) -> List[SelectItem]:
        expanded: List[SelectItem] = []
        for item in items:
            if isinstance(item.expression, Star):
                qualifier = item.expression.qualifier
                matched = False
                for alias, name in relation.columns:
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

    def _choose_single_table_path(self, statement: SelectStatement, parameters):
        """``(ref, table, AccessPath)`` for a single-table WHERE, or ``None``.

        The one place access-path selection happens: ``_execute_select`` runs
        the chosen probe, and EXPLAIN calls this too so the displayed plan is
        the executed plan by construction.
        """
        database = self.database
        if not database.compiled_execution:
            return None
        if len(statement.from_items) != 1 or not isinstance(
            statement.from_items[0], TableRef
        ):
            return None
        if statement.where is None:
            return None
        ref = statement.from_items[0]
        if not self.catalog.has_table(ref.name):
            return None  # the scan path raises the proper catalog error
        table = self.catalog.get_table(ref.name)
        if not any(index.usable for index in table.indexes):
            return None
        statistics = maybe_auto_analyze(database, table)
        path = choose_access_path(
            table,
            ref.effective_alias,
            statement.where,
            self._function_registry(),
            parameters,
            self._aggregate_names(),
            statistics,
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
        self, statement: SelectStatement, parameters, stats: ExecutionStats
    ) -> Optional[_Relation]:
        """Bitmap-vectorized WHERE over one base table, or ``None``.

        When the FROM clause is a single base table and the WHERE
        clause is in the vector-compilable subset, evaluate the predicate
        segment-at-a-time over the packed columns into selection bitmaps —
        no per-row Python at all — and return a relation whose rows are the
        selected positions, materialized lazily (:class:`SelectedRows`).
        ``None`` (compile decline or runtime abort on any segment) sends the
        caller to the row path; both paths are byte-identical by contract.
        """
        if statement.where is None:
            return None
        if not self.database.compiled_execution:
            return None
        if len(statement.from_items) != 1 or not isinstance(
            statement.from_items[0], TableRef
        ):
            return None
        ref = statement.from_items[0]
        if not self.catalog.has_table(ref.name):
            return None  # the scan path raises the proper catalog error
        table = self.catalog.get_table(ref.name)
        columns = self._table_columns(ref, table)
        predicate = compile_predicate_vector(
            statement.where,
            ColumnLayout(keys_for_columns(columns)),
            [column.sql_type for column in table.schema],
            parameters,
        )
        if predicate is None:
            return None
        parts: List[Tuple[Any, Any]] = []
        selections: List[Any] = []
        segment_ids: List[int] = []
        width = 0
        matched = 0
        for segment in range(table.num_segments):
            store = table.column_store(segment)
            mask = predicate.mask(store)
            if mask is None:
                return None  # runtime abort (e.g. demoted column) → row path
            positions = np.flatnonzero(mask)
            width += len(store)
            matched += len(positions)
            parts.append((store, positions))
            selections.append(positions)
            segment_ids.extend([segment] * len(positions))
        statistics = self.catalog.get_statistics(table.name)
        estimated = (
            float(statistics.row_count)
            if statistics is not None and not statistics.is_stale(table)
            else float(width)
        )
        # Rows *touched* is the bitmap width (every stored row was examined),
        # not the popcount — rows_matched reports the survivors.
        stats.rows_scanned_per_source.append(width)
        stats.scan_details.append(
            ScanDetail(
                table.name, "seq", width, estimated_rows=estimated, vectorized=True
            )
        )
        stats.where_vectorized = True
        stats.bitmap_selectivity = (matched / width) if width else 0.0
        return _Relation(
            columns,
            SelectedRows(parts),
            segment_ids,
            table.num_segments,
            source_table=table,
            segment_selections=selections,
        )

    def _filtered_relation(
        self, statement: SelectStatement, parameters, stats: ExecutionStats
    ) -> Tuple[_Relation, _CompileEnv]:
        """FROM and WHERE: the rows the rest of the statement works on."""
        relation = None
        residual_where = statement.where
        chosen = self._choose_single_table_path(statement, parameters)
        if chosen is not None:
            indexed = self._execute_index_scan(chosen, stats)
            if indexed is not None:
                relation, residual_where = indexed
        if relation is None:
            vectorized = self._vectorized_single_table(statement, parameters, stats)
            if vectorized is not None:
                relation = vectorized
                residual_where = None
        if relation is None:
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
        env = self._compiler_env(relation.columns, parameters)

        if residual_where is not None:
            predicate = self._compile(residual_where, env)
            kept = [i for i, row in enumerate(relation.rows) if predicate(row) is True]
            relation = _Relation(
                relation.columns,
                [relation.rows[i] for i in kept],
                [relation.segment_ids[i] for i in kept],
                relation.num_segments,
            )
            # The column layout is unchanged, so `env` stays valid.
        # Rows surviving the WHERE stage — distinct from rows *touched*
        # (``rows_scanned``), which an index scan keeps small.
        stats.rows_matched = len(relation.rows)
        return relation, env

    def _execute_select(self, statement: SelectStatement, parameters) -> ResultSet:
        stats = ExecutionStats(statement_kind="select")
        relation, env = self._filtered_relation(statement, parameters, stats)

        select_items = self._expand_select_items(statement.select_items, relation)
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

        # Phase-one grouping: the partitioned kernel; the row loop is the
        # ``compiled_execution=False`` oracle.  Both produce the same
        # structure: (key, representative row or None, [aggregate value per
        # call]) in global first-appearance order.
        group_results = None
        if self.database.compiled_execution:
            group_results = partitioned_grouped(self, statement, call_plans, relation, stats, env)
        else:
            stats.group_decline_reason = "compiled_execution is off"
        if group_results is None:
            stats.group_strategy = "rows"
            group_results = self._inprocess_grouped(statement, call_plans, relation, stats, env)

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
        use_batch = self.database.compiled_execution
        call_plans = []
        for call in aggregate_calls:
            definition = aggregates[call.name.lower()]
            argument_fns = [self._compile(arg, env) for arg in call.args]
            aggregator = SegmentedAggregator(definition, use_batch=use_batch)
            call_plans.append((call, definition, aggregator, argument_fns))
        return call_plans

    def _inprocess_grouped(
        self,
        statement: SelectStatement,
        call_plans: List[tuple],
        relation: _Relation,
        stats: ExecutionStats,
        env: _CompileEnv,
    ) -> List[Tuple[Any, Optional[Tuple[Any, ...]], List[Any]]]:
        """Row-at-a-time grouping: the ``compiled_execution=False`` oracle
        the partitioned kernel is held byte-identical to."""
        groups: Dict[Any, List[int]] = {}
        group_order: List[Any] = []
        if statement.group_by:
            key_fns = [self._compile(expression, env) for expression in statement.group_by]
            for index, row in enumerate(relation.rows):
                key = tuple(hashable_key(fn(row)) for fn in key_fns)
                if key not in groups:
                    groups[key] = []
                    group_order.append(key)
                groups[key].append(index)
        else:
            key = ()
            groups[key] = list(range(len(relation.rows)))
            group_order.append(key)

        single_group = len(groups) == 1 and not statement.group_by
        # Grouped statements accumulate one statement-level timings object per
        # aggregate call (per-group contributions folded together), so
        # ``simulated_parallel_seconds`` projects grouped work too instead of
        # silently dropping it.
        grouped_timings = [
            AggregateTimings(aggregate_name=definition.name)
            for _call, definition, _aggregator, _argument_fns in call_plans
        ]
        results: List[Tuple[Any, Optional[Tuple[Any, ...]], List[Any]]] = []
        rows, segment_ids = relation.rows, relation.segment_ids
        for key in group_order:
            member_indices = groups[key]
            aggregate_values: List[Any] = []
            for position, (call, definition, aggregator, argument_fns) in enumerate(call_plans):
                # Per-segment argument streams, built row by row.
                streams: List[list] = [[] for _ in range(max(relation.num_segments, 1))]
                for index in member_indices:
                    segment = segment_ids[index] if index < len(segment_ids) else 0
                    streams[segment].append(
                        (1,) if call.star else tuple(fn(rows[index]) for fn in argument_fns)
                    )
                value, timings = self._run_aggregate(
                    call, aggregator, streams, grouped=bool(statement.group_by)
                )
                aggregate_values.append(value)
                if single_group:
                    stats.aggregate_timings.append(timings)
                else:
                    grouped_timings[position].accumulate(timings)
            representative = rows[member_indices[0]] if member_indices else None
            results.append((key, representative, aggregate_values))
        if not single_group and group_order:
            stats.aggregate_timings.extend(grouped_timings)
        return results

    def _run_aggregate(
        self, call: FunctionCall, aggregator: SegmentedAggregator, streams: list, *, grouped: bool
    ) -> Tuple[Any, AggregateTimings]:
        """One group's value for one call, from its per-segment argument
        streams (column batches from the kernel, argument tuples from the
        row loop).  Only an ungrouped statement's aggregate may fold on the
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

        ``None`` (reference tier, compile decline, or a runtime abort on any
        segment) sends the caller to the per-row predicate.
        """
        if not self.database.compiled_execution:
            return None
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
