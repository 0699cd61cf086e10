"""Cost-based planning: table statistics, access-path selection and EXPLAIN.

This module is the engine's analog of the PostgreSQL/Greenplum planner layer
the paper's driver functions lean on (Section 3.1): statistics collected by
``ANALYZE`` live in the catalog where templated queries can interrogate them,
and a cost model chooses between the sequential segment scan and an
index-probe access path (:mod:`repro.engine.index`) per WHERE clause.

Three pieces:

**Statistics** (:func:`collect_table_statistics`).  One ``ANALYZE`` pass per
table records, per column: row count, NULL fraction, an n-distinct estimate
from the existing Flajolet–Martin sketch kernel
(:class:`repro.methods.sketches.fm.FMSketchKernel` — the same mergeable UDA
the Table 1 methods use), min/max, and an equi-depth histogram over a
deterministic row sample.  The snapshot stores the table's mutation version,
so staleness is a cheap comparison — DML bumps the version, ANALYZE resets
it.

**Access paths** (:func:`choose_access_path`).  For a single-table WHERE, the
planner splits the clause into AND-conjuncts, finds equality and range
conjuncts over indexed columns whose comparison value is row-independent,
estimates each candidate's cardinality (statistics when analyzed, the index's
own key counts otherwise), and switches to an index probe only when

    ``INDEX_PROBE_COST + est_rows * INDEX_ROW_COST < table_rows * SEQ_ROW_COST``

i.e. when estimated selectivity beats the full scan.  Everything the probe
does not consume stays a residual predicate evaluated per candidate row, so
results are byte-identical to the sequential plan (probe results arrive in
(segment, position) order — exactly scan order).  The planner is
all-or-nothing like the join planner: unresolvable names, volatile or unknown
functions, uncompilable subtrees and cross-kind comparisons all return
``None`` so the scan path preserves legacy semantics, errors included.

**EXPLAIN** (:func:`explain_statement`).  Builds a plan tree (scan nodes with
access path and estimated rows, join nodes with strategy, aggregate / sort /
limit wrappers) from the same decision functions execution uses.  ``EXPLAIN
ANALYZE`` executes the statement and annotates the tree with the actual
touched/emitted row counts recorded in
:class:`~repro.engine.segments.ExecutionStats`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .compile import ColumnLayout, compile_expression, keys_for_columns
from .expressions import (
    ArrayLiteral,
    Between,
    BinaryOp,
    CaseExpr,
    Cast,
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
)
from .index import BaseIndex, SortedIndex, _comparison_kind
from .join import conjoin, has_volatile_calls, split_conjuncts
from .types import is_null

__all__ = [
    "ColumnStatistics",
    "TableStatistics",
    "collect_table_statistics",
    "AccessPath",
    "choose_access_path",
    "constant_value",
    "PlanNode",
    "explain_statement",
    "expression_sql",
    "SEQ_ROW_COST",
    "INDEX_ROW_COST",
    "INDEX_PROBE_COST",
]

# ---------------------------------------------------------------------------
# Cost model constants
# ---------------------------------------------------------------------------

#: Relative cost of touching one row in a sequential scan.
SEQ_ROW_COST = 1.0
#: Relative cost of fetching one row through an index probe (random access,
#: probe-result sort, residual evaluation).
INDEX_ROW_COST = 2.0
#: Fixed per-probe setup cost (bisect / bucket lookup, plan bookkeeping).
INDEX_PROBE_COST = 20.0

#: Fallback selectivities when neither statistics nor index counts exist.
DEFAULT_EQ_SELECTIVITY = 0.005
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0

#: ANALYZE samples at most this many non-NULL values per column for the
#: n-distinct sketch and the histogram (row count / NULL fraction / min / max
#: always use the full column).
ANALYZE_SAMPLE_ROWS = 4096
#: FM sketch width used for the n-distinct estimate (paper's Table 1 kernel).
FM_NUM_MAPS = 16
#: Equi-depth histogram bucket count.
HISTOGRAM_BUCKETS = 20


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


@dataclass
class ColumnStatistics:
    """Per-column statistics snapshot (the ``pg_stats`` row analog)."""

    name: str
    null_frac: float = 0.0
    n_distinct: float = 0.0
    min_value: Any = None
    max_value: Any = None
    #: Equi-depth histogram boundaries (``HISTOGRAM_BUCKETS + 1`` values,
    #: sorted), or None when the column's values are not mutually comparable.
    histogram: Optional[List[Any]] = None
    #: Comparison family of the column's non-NULL values: ``"num"``, ``"str"``
    #: or None (mixed / non-scalar — range estimation unavailable).
    kind: Optional[str] = None


@dataclass
class TableStatistics:
    """Per-table statistics snapshot stored in the catalog by ``ANALYZE``."""

    table_name: str
    row_count: int
    #: ``Table._data_version`` at collection time; any DML bumps the table's
    #: version, so ``data_version != table._data_version`` means stale.
    data_version: int
    columns: Dict[str, ColumnStatistics] = field(default_factory=dict)

    def column(self, name: str) -> Optional[ColumnStatistics]:
        return self.columns.get(name.lower())

    def is_stale(self, table) -> bool:
        return self.data_version != table._data_version

    def column_rows(self) -> List[Dict[str, Any]]:
        """``pg_stats``-style listing rows (one per column)."""
        rows = []
        for stats in self.columns.values():
            rows.append(
                {
                    "tablename": self.table_name,
                    "columnname": stats.name,
                    "row_count": self.row_count,
                    "null_frac": stats.null_frac,
                    "n_distinct": stats.n_distinct,
                    "min": stats.min_value,
                    "max": stats.max_value,
                    "histogram_buckets": len(stats.histogram) - 1 if stats.histogram else 0,
                }
            )
        return rows


def _column_sample(values: List[Any], limit: int) -> List[Any]:
    """Deterministic evenly-strided sample (no RNG: ANALYZE must be stable)."""
    if len(values) <= limit:
        return list(values)
    stride = max(1, len(values) // limit)
    return values[::stride][:limit]


def _estimate_distinct(sample: List[Any], population: int) -> float:
    """n-distinct estimate: FM sketch over the sample, scaled to the column.

    Uses the existing Flajolet–Martin kernel (mergeable UDA from the paper's
    Table 1 descriptive statistics).  Scaling follows the usual heuristic: a
    sample that looks mostly-unique scales linearly with the population,
    while a sample whose distinct count has saturated is taken as the
    column's true cardinality.
    """
    if not sample:
        return 0.0
    # Lazy import: methods build on the engine, so the engine must not import
    # the methods package at module load time.
    from ..methods.sketches.fm import FMSketch

    estimate = float(FMSketch.empty(FM_NUM_MAPS).add_many(sample).estimate())
    estimate = min(estimate, float(len(sample)))
    if population > len(sample) and estimate >= 0.75 * len(sample):
        estimate *= population / max(len(sample), 1)
    return max(1.0, min(estimate, float(population)))


def _equi_depth_histogram(sample: List[Any], buckets: int) -> Optional[List[Any]]:
    try:
        ordered = sorted(sample)
    except TypeError:
        return None
    if len(ordered) < 2:
        return None
    edges = []
    for j in range(buckets + 1):
        edges.append(ordered[round(j * (len(ordered) - 1) / buckets)])
    return edges


def collect_table_statistics(table) -> TableStatistics:
    """One ANALYZE pass over a table (full column scan + strided sample)."""
    statistics = TableStatistics(
        table_name=table.name,
        row_count=len(table),
        data_version=table._data_version,
    )
    for position, column in enumerate(table.schema):
        values: List[Any] = []
        for segment in range(table.num_segments):
            values.extend(table.segment_columns(segment)[position])
        non_null = [value for value in values if not is_null(value)]
        null_frac = 1.0 - (len(non_null) / len(values)) if values else 0.0
        stats = ColumnStatistics(name=column.name, null_frac=null_frac)
        kinds = {_comparison_kind(value) for value in non_null}
        if len(kinds) == 1 and None not in kinds:
            stats.kind = next(iter(kinds))
            stats.min_value = min(non_null)
            stats.max_value = max(non_null)
        sample = _column_sample(non_null, ANALYZE_SAMPLE_ROWS)
        stats.n_distinct = _estimate_distinct(sample, len(non_null))
        if stats.kind is not None:
            stats.histogram = _equi_depth_histogram(sample, HISTOGRAM_BUCKETS)
        statistics.columns[column.name.lower()] = stats
    return statistics


# ---------------------------------------------------------------------------
# Selectivity estimation
# ---------------------------------------------------------------------------


def _histogram_position(stats: ColumnStatistics, value: Any) -> float:
    """Estimated fraction of non-NULL values strictly below ``value``."""
    histogram = stats.histogram
    try:
        if histogram and len(histogram) >= 2:
            buckets = len(histogram) - 1
            at = bisect_left(histogram, value)
            if at <= 0:
                return 0.0
            if at >= len(histogram):
                return 1.0
            low, high = histogram[at - 1], histogram[at]
            within = 0.5
            if stats.kind == "num" and isinstance(value, (int, float)) and high != low:
                within = min(1.0, max(0.0, (value - low) / (high - low)))
            return ((at - 1) + within) / buckets
        if (
            stats.kind == "num"
            and isinstance(value, (int, float))
            and stats.min_value is not None
            and stats.max_value is not None
            and stats.max_value != stats.min_value
        ):
            span = stats.max_value - stats.min_value
            return min(1.0, max(0.0, (value - stats.min_value) / span))
    except TypeError:
        pass
    return DEFAULT_RANGE_SELECTIVITY


def estimated_eq_rows(
    statistics: Optional[TableStatistics],
    column_name: str,
    index: BaseIndex,
    value: Any,
    table_rows: int,
) -> float:
    """Estimated matching rows for ``column = value``."""
    if statistics is not None:
        stats = statistics.column(column_name)
        if stats is not None and stats.n_distinct >= 1.0:
            return statistics.row_count * (1.0 - stats.null_frac) / stats.n_distinct
    exact = index.count_eq(value)
    if exact is not None:
        return float(exact)
    return table_rows * DEFAULT_EQ_SELECTIVITY


def estimated_range_rows(
    statistics: Optional[TableStatistics],
    column_name: str,
    index: SortedIndex,
    low: Any,
    high: Any,
    low_strict: bool,
    high_strict: bool,
    table_rows: int,
) -> float:
    """Estimated matching rows for a (possibly half-open) range predicate."""
    if statistics is not None:
        stats = statistics.column(column_name)
        if stats is not None and stats.kind is not None:
            low_pos = 0.0 if low is None else _histogram_position(stats, low)
            high_pos = 1.0 if high is None else _histogram_position(stats, high)
            fraction = max(0.0, high_pos - low_pos)
            return statistics.row_count * (1.0 - stats.null_frac) * fraction
    exact = index.count_range(low, high, low_strict=low_strict, high_strict=high_strict)
    if exact is not None:
        return float(exact)
    bounds = (low is not None) + (high is not None)
    fraction = DEFAULT_RANGE_SELECTIVITY ** max(bounds, 1)
    return table_rows * fraction


# ---------------------------------------------------------------------------
# Access-path selection
# ---------------------------------------------------------------------------


@dataclass
class AccessPath:
    """A chosen index probe replacing the sequential scan of one table."""

    index: BaseIndex
    kind: str  # "eq" | "range"
    value: Any = None
    low: Any = None
    high: Any = None
    low_strict: bool = False
    high_strict: bool = False
    #: The consumed conjuncts rendered as SQL (EXPLAIN's ``Index Cond``).
    condition_sql: str = ""
    #: Conjuncts the probe does not consume, evaluated per candidate row.
    residual: Optional[Expression] = None
    estimated_rows: float = 0.0
    table_rows: int = 0
    #: Set when a consumed conjunct compares against NULL: the predicate can
    #: never be TRUE, so the probe returns no rows without touching data.
    never_true: bool = False

    def probe(self) -> Optional[List[Tuple[int, int]]]:
        """Run the probe; ``None`` means fall back to the sequential scan."""
        if self.never_true:
            return []
        if self.kind == "eq":
            return self.index.probe_eq(self.value)
        return self.index.probe_range(
            self.low, self.high, low_strict=self.low_strict, high_strict=self.high_strict
        )


_SCALAR_TYPES = (int, float, str, bool)


def constant_value(
    expression: Expression,
    layout: ColumnLayout,
    functions: Dict[str, Callable[..., Any]],
    parameters: Optional[Dict[str, Any]],
    aggregate_names: frozenset,
    scalar_only: bool = True,
) -> Tuple[bool, Any]:
    """Evaluate a row-independent expression at plan time; (ok, value).

    Nothing that reads a column or calls a volatile or unknown function is a
    constant.  Index probes need a scalar; an aggregate argument
    (``scalar_only=False``) may be any value, e.g. a bound array parameter."""
    if layout.column_indices(expression) != frozenset() or has_volatile_calls(
        expression, functions
    ):
        return False, None
    compiled = compile_expression(
        expression, ColumnLayout([]), functions, parameters, aggregate_names
    )
    if compiled is None:
        return False, None
    try:
        value = compiled(())
    except Exception:
        # A raising constant (e.g. 1/0) must raise on the scan path instead.
        return False, None
    if scalar_only and value is not None and not isinstance(value, _SCALAR_TYPES):
        return False, None
    return True, value


_RANGE_OPS = {"<": ("high", True), "<=": ("high", False), ">": ("low", True), ">=": ("low", False)}


def choose_access_path(
    table,
    alias: Optional[str],
    where: Expression,
    functions: Dict[str, Callable[..., Any]],
    parameters: Optional[Dict[str, Any]],
    aggregate_names: frozenset,
    statistics: Optional[TableStatistics],
) -> Optional[AccessPath]:
    """Pick an index probe for a single-table WHERE, or ``None`` (→ scan).

    All-or-nothing safety gates mirror the join planner: the whole WHERE must
    compile against the table layout (so the residual is guaranteed to
    compile), no volatile/unknown function may appear anywhere in it, and
    probe values must be plan-time scalars.  The cost rule then compares the
    cheapest candidate probe against the sequential scan.
    """
    indexes = [index for index in getattr(table, "indexes", []) if index.usable]
    if not indexes or where is None:
        return None
    if has_volatile_calls(where, functions):
        return None
    columns = [(alias, name) for name in table.schema.names]
    layout = ColumnLayout(keys_for_columns(columns))
    if compile_expression(where, layout, functions, parameters, aggregate_names) is None:
        return None

    by_column: Dict[str, List[BaseIndex]] = {}
    for index in indexes:
        by_column.setdefault(index.column_name.lower(), []).append(index)
    alias_lower = alias.lower() if alias else None

    def indexed_column(expression: Expression) -> Optional[str]:
        if not isinstance(expression, ColumnRef):
            return None
        if expression.qualifier is not None and (
            alias_lower is None or expression.qualifier.lower() != alias_lower
        ):
            return None
        name = expression.name.lower()
        return name if name in by_column else None

    conjuncts = split_conjuncts(where)
    consumed_flags = [False] * len(conjuncts)
    eq_candidates: List[Tuple[int, str, Any]] = []  # (conjunct idx, column, value)
    range_constraints: Dict[str, List[Tuple[int, str, bool, Any]]] = {}

    for position, conjunct in enumerate(conjuncts):
        if isinstance(conjunct, Between) and not conjunct.negated:
            column = indexed_column(conjunct.operand)
            if column is None:
                continue
            ok_low, low = constant_value(conjunct.low, layout, functions, parameters, aggregate_names)
            ok_high, high = constant_value(conjunct.high, layout, functions, parameters, aggregate_names)
            if ok_low and ok_high:
                range_constraints.setdefault(column, []).append((position, "low", False, low))
                range_constraints.setdefault(column, []).append((position, "high", False, high))
            continue
        if not isinstance(conjunct, BinaryOp):
            continue
        op = conjunct.op
        if op not in ("=", "<", "<=", ">", ">="):
            continue
        column = indexed_column(conjunct.left)
        other = conjunct.right
        if column is None:
            column = indexed_column(conjunct.right)
            other = conjunct.left
            if column is None:
                continue
            # Flip the comparison: ``5 > col`` is ``col < 5``.
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}[op]
        ok, value = constant_value(other, layout, functions, parameters, aggregate_names)
        if not ok:
            continue
        if op == "=":
            eq_candidates.append((position, column, value))
        else:
            bound, strict = _RANGE_OPS[op]
            range_constraints.setdefault(column, []).append((position, bound, strict, value))

    best: Optional[AccessPath] = None
    best_positions: List[int] = []

    table_rows = len(table)

    def consider(path: AccessPath, positions: List[int]) -> None:
        nonlocal best, best_positions
        if best is None or path.estimated_rows < best.estimated_rows:
            best = path
            best_positions = positions

    for position, column, value in eq_candidates:
        index_list = by_column[column]
        index = next((i for i in index_list if i.kind == "hash"), index_list[0])
        never_true = value is None or is_null(value)
        estimated = (
            0.0
            if never_true
            else estimated_eq_rows(statistics, column, index, value, table_rows)
        )
        consider(
            AccessPath(
                index=index,
                kind="eq",
                value=value,
                condition_sql=expression_sql(conjuncts[position]),
                estimated_rows=estimated,
                table_rows=table_rows,
                never_true=never_true,
            ),
            [position],
        )

    for column, constraints in range_constraints.items():
        index = next(
            (i for i in by_column[column] if i.supports_range()), None
        )
        if index is None:
            continue
        low = high = None
        low_strict = high_strict = False
        never_true = False
        positions: List[int] = []
        try:
            for position, bound, strict, value in constraints:
                positions.append(position)
                if value is None or is_null(value):
                    # ``col > NULL`` is never TRUE, so neither is the AND.
                    never_true = True
                    continue
                if bound == "low":
                    if low is None or value > low:
                        low, low_strict = value, strict
                    elif value == low and strict:
                        low_strict = True
                else:
                    if high is None or value < high:
                        high, high_strict = value, strict
                    elif value == high and strict:
                        high_strict = True
        except TypeError:
            continue
        if never_true:
            estimated = 0.0
        else:
            estimated = estimated_range_rows(
                statistics, column, index, low, high, low_strict, high_strict, table_rows
            )
        condition = " AND ".join(expression_sql(conjuncts[p]) for p in sorted(set(positions)))
        consider(
            AccessPath(
                index=index,
                kind="range",
                low=low,
                high=high,
                low_strict=low_strict,
                high_strict=high_strict,
                condition_sql=condition,
                estimated_rows=estimated,
                table_rows=table_rows,
                never_true=never_true,
            ),
            sorted(set(positions)),
        )

    if best is None:
        return None
    if INDEX_PROBE_COST + best.estimated_rows * INDEX_ROW_COST >= table_rows * SEQ_ROW_COST:
        return None
    for position in best_positions:
        consumed_flags[position] = True
    best.residual = conjoin(
        [conjunct for position, conjunct in enumerate(conjuncts) if not consumed_flags[position]]
    )
    return best


# ---------------------------------------------------------------------------
# EXPLAIN plan trees
# ---------------------------------------------------------------------------


@dataclass
class PlanNode:
    """One node of an EXPLAIN plan tree."""

    label: str
    detail: str = ""
    estimated_rows: Optional[float] = None
    actual_rows: Optional[int] = None
    lines: List[str] = field(default_factory=list)  # extra per-node lines
    children: List["PlanNode"] = field(default_factory=list)

    def format(self, indent: int = 0) -> List[str]:
        pad = "  " * indent
        head = self.label + (f" {self.detail}" if self.detail else "")
        annotations = []
        if self.estimated_rows is not None:
            annotations.append(f"rows={int(round(self.estimated_rows))}")
        if self.actual_rows is not None:
            annotations.append(f"actual_rows={self.actual_rows}")
        if annotations:
            head += "  (" + " ".join(annotations) + ")"
        prefix = "" if indent == 0 else "-> "
        out = [pad + prefix + head]
        body_pad = pad + ("  " if indent == 0 else "     ")
        for line in self.lines:
            out.append(body_pad + line)
        for child in self.children:
            out.extend(child.format(indent + 1))
        return out

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def expression_sql(expression: Optional[Expression]) -> str:
    """Best-effort SQL rendering of an expression tree for plan display."""
    if expression is None:
        return ""
    if isinstance(expression, Literal):
        if expression.value is None:
            return "NULL"
        if isinstance(expression.value, str):
            escaped = expression.value.replace("'", "''")
            return f"'{escaped}'"
        return repr(expression.value)
    if isinstance(expression, ColumnRef):
        return expression.name if expression.qualifier is None else f"{expression.qualifier}.{expression.name}"
    if isinstance(expression, Parameter):
        return f"%({expression.name})s"
    if isinstance(expression, Star):
        return "*"
    if isinstance(expression, BinaryOp):
        return f"{expression_sql(expression.left)} {expression.op.upper()} {expression_sql(expression.right)}"
    if isinstance(expression, UnaryOp):
        return f"{expression.op.upper()} {expression_sql(expression.operand)}"
    if isinstance(expression, IsNull):
        suffix = "IS NOT NULL" if expression.negated else "IS NULL"
        return f"{expression_sql(expression.operand)} {suffix}"
    if isinstance(expression, Between):
        word = "NOT BETWEEN" if expression.negated else "BETWEEN"
        return (
            f"{expression_sql(expression.operand)} {word} "
            f"{expression_sql(expression.low)} AND {expression_sql(expression.high)}"
        )
    if isinstance(expression, InList):
        items = ", ".join(expression_sql(item) for item in expression.items)
        word = "NOT IN" if expression.negated else "IN"
        return f"{expression_sql(expression.operand)} {word} ({items})"
    if isinstance(expression, FunctionCall):
        if expression.star:
            inner = "*"
        else:
            inner = ", ".join(expression_sql(arg) for arg in expression.args)
            if expression.distinct:
                inner = f"DISTINCT {inner}"
        return f"{expression.name}({inner})"
    if isinstance(expression, WindowCall):
        return f"{expression_sql(expression.function)} OVER (...)"
    if isinstance(expression, Cast):
        return f"{expression_sql(expression.operand)}::{expression.type_name}"
    if isinstance(expression, Subscript):
        return f"{expression_sql(expression.base)}[{expression_sql(expression.index)}]"
    if isinstance(expression, ArrayLiteral):
        return "ARRAY[" + ", ".join(expression_sql(item) for item in expression.items) + "]"
    if isinstance(expression, CaseExpr):
        return "CASE ... END"
    return type(expression).__name__


_JOIN_STRATEGY_LABELS = {
    "hash": "Hash Join",
    "hash_reversed": "Hash Join (build left)",
    "nested_loop": "Nested Loop",
    "cross": "Nested Loop (cross)",
}


#: The scan node label of each executed access (``ScanDetail.access``).
_ACCESS_LABELS = {
    "seq": "Seq Scan",
    "index": "Index Scan",
    "subquery": "Subquery Scan",
    "function": "Function Scan",
    "matview": "MatView Scan",
}


class _ExplainBuilder:
    """Builds the plan tree for one statement, mirroring executor decisions."""

    def __init__(self, executor, parameters) -> None:
        self.executor = executor
        self.catalog = executor.catalog
        self.parameters = parameters
        self.functions = executor._function_registry()
        self.aggregate_names = frozenset(
            name.lower() for name in self.catalog.aggregate_names()
        )
        #: Scan and join nodes in execution (DFS) order, for annotation.
        #: Only nodes of the *outermost* statement belong here: subqueries,
        #: UNION branches and DML-embedded selects execute with their own
        #: ``ExecutionStats``, so their nodes must not consume the outer
        #: statement's scan/join details (see :meth:`_build_isolated`).
        self.scan_nodes: List[PlanNode] = []
        self.join_nodes: List[PlanNode] = []

    def _build_isolated(self, statement) -> PlanNode:
        """Build a nested statement's subtree without polluting the outer
        annotation lists — the nested statement records its row counts into
        its own stats object, which EXPLAIN ANALYZE cannot see."""
        saved_scans, saved_joins = self.scan_nodes, self.join_nodes
        self.scan_nodes, self.join_nodes = [], []
        try:
            return self.build(statement)
        finally:
            self.scan_nodes, self.join_nodes = saved_scans, saved_joins

    # -- helpers ------------------------------------------------------------

    def _table_estimate(self, name: str) -> Optional[float]:
        if not self.catalog.has_table(name):
            return None
        table = self.catalog.get_table(name)
        statistics = self.catalog.get_statistics(name)
        if statistics is not None and not statistics.is_stale(table):
            return float(statistics.row_count)
        return float(len(table))

    # -- FROM items ---------------------------------------------------------

    def _scan_node(self, item, where=None) -> PlanNode:
        """The plan of one FROM item scanned under ``where`` — the conjuncts
        execution scans it under (:meth:`Executor._scan_filtered`)."""
        from .parser.ast_nodes import FunctionSource, Join, SubquerySource, TableRef

        if isinstance(item, Join):
            return self._join_node(item, where)
        if isinstance(item, TableRef):
            display = item.name if item.alias is None else f"{item.name} {item.alias}"
            chosen = (
                None
                if where is None
                else self.executor._choose_single_table_path(item, where, self.parameters)
            )
            if not self.catalog.has_table(item.name) and self.catalog.has_matview(item.name):
                view = self.catalog.get_matview(item.name)
                estimate = (
                    float(view.last_row_count) if view.last_row_count is not None else None
                )
                node = PlanNode("MatView Scan", f"on {display}", estimated_rows=estimate)
                node.lines.append(
                    f"Freshness: {'stale' if view.is_stale(self.catalog) else 'fresh'}"
                )
                node.lines.append(f"Maintenance: {view.strategy}")
            elif chosen is not None:
                path = chosen[2]
                node = PlanNode(
                    "Index Scan",
                    f"using {path.index.name} on {display}",
                    estimated_rows=path.estimated_rows,
                )
                node.lines.append(f"Index Cond: {path.condition_sql}")
                where = path.residual
            else:
                node = PlanNode(
                    "Seq Scan", f"on {display}", estimated_rows=self._table_estimate(item.name)
                )
        elif isinstance(item, SubquerySource):
            child = self._build_isolated(item.select)
            node = PlanNode(
                "Subquery Scan",
                f"on {item.alias}",
                estimated_rows=child.estimated_rows,
                children=[child],
            )
        elif isinstance(item, FunctionSource):
            node = PlanNode("Function Scan", f"on {item.name} {item.alias}")
        else:
            return PlanNode(type(item).__name__)
        if where is not None:
            node.lines.append(f"Filter: {expression_sql(where)}")
        self.scan_nodes.append(node)
        return node

    def _join_node(self, join, where) -> PlanNode:
        from .join import plan_hash_join

        pushdown = self.executor._push_where([join.left, join.right], where, self.parameters, join)
        left_where, right_where = (None, None) if pushdown is None else pushdown.sides
        left = self._scan_node(join.left, left_where)
        right = self._scan_node(join.right, right_where)
        label = "Nested Loop"
        detail = ""
        if join.kind == "cross" or join.condition is None:
            label = "Nested Loop (cross)"
        else:
            left_columns = self.executor._static_columns(join.left)
            right_columns = self.executor._static_columns(join.right)
            if left_columns is not None and right_columns is not None:
                plan = plan_hash_join(
                    left_columns,
                    right_columns,
                    join.kind,
                    join.condition,
                    self.functions,
                    self.parameters,
                )
                if plan is not None:
                    label = "Hash Join"
        if join.condition is not None:
            detail = f"({join.kind})"
        node = PlanNode(label, detail, children=[left, right])
        if join.condition is not None:
            node.lines.append(f"Join Cond: {expression_sql(join.condition)}")
        residual = where if pushdown is None else pushdown.residual
        if residual is not None:
            node.lines.append(f"Filter: {expression_sql(residual)}")
        estimates = [c.estimated_rows for c in (left, right) if c.estimated_rows is not None]
        if len(estimates) == 2 and label.startswith("Hash"):
            node.estimated_rows = max(estimates)
        self.join_nodes.append(node)
        return node

    # -- statements ---------------------------------------------------------

    def build(self, statement) -> PlanNode:
        from .parser.ast_nodes import (
            CreateTableAsStatement,
            DeleteStatement,
            InsertStatement,
            SelectStatement,
            UnionStatement,
            UpdateStatement,
        )

        if isinstance(statement, SelectStatement):
            return self._build_select(statement)
        if isinstance(statement, UnionStatement):
            children = [self._build_isolated(select) for select in statement.selects]
            return PlanNode(
                "Append", "(UNION ALL)" if statement.all else "(UNION)", children=children
            )
        if isinstance(statement, InsertStatement):
            children = (
                [self._build_isolated(statement.select)] if statement.select is not None else []
            )
            return PlanNode("Insert", f"on {statement.table}", children=children)
        if isinstance(statement, UpdateStatement):
            node = PlanNode("Update", f"on {statement.table}")
            if statement.where is not None:
                node.lines.append(f"Filter: {expression_sql(statement.where)}")
            return node
        if isinstance(statement, DeleteStatement):
            node = PlanNode("Delete", f"on {statement.table}")
            if statement.where is not None:
                node.lines.append(f"Filter: {expression_sql(statement.where)}")
            return node
        if isinstance(statement, CreateTableAsStatement):
            return PlanNode(
                "Create Table As",
                f"{statement.name}",
                children=[self._build_isolated(statement.select)],
            )
        kind = type(statement).__name__.removesuffix("Statement")
        return PlanNode(kind)

    def _build_select(self, statement) -> PlanNode:
        from .parser.ast_nodes import TableRef

        executor = self.executor
        single_ref = (
            statement.from_items[0]
            if len(statement.from_items) == 1 and isinstance(statement.from_items[0], TableRef)
            else None
        )
        if not statement.from_items:
            node: PlanNode = PlanNode("Result", estimated_rows=1)
        elif len(statement.from_items) == 1:
            node = self._scan_node(statement.from_items[0], statement.where)
        else:
            node = self._comma_join_chain(statement)

        aggregate_calls = executor._collect_aggregate_calls(
            [item.expression for item in statement.select_items]
            + ([statement.having] if statement.having is not None else [])
            + [order.expression for order in statement.order_by]
        )
        if aggregate_calls or statement.group_by:
            if statement.group_by:
                keys = ", ".join(expression_sql(key) for key in statement.group_by)
                agg = PlanNode("HashAggregate", f"keys: {keys}", children=[node])
                if (
                    len(statement.group_by) == 1
                    and isinstance(statement.group_by[0], ColumnRef)
                    and single_ref is not None
                ):
                    statistics = self.catalog.get_statistics(single_ref.name)
                    column = (
                        statistics.column(statement.group_by[0].name)
                        if statistics is not None
                        else None
                    )
                    if column is not None:
                        agg.estimated_rows = column.n_distinct
            else:
                agg = PlanNode("Aggregate", estimated_rows=1, children=[node])
            if statement.having is not None:
                agg.lines.append(f"Having: {expression_sql(statement.having)}")
            node = agg

        if statement.order_by:
            keys = ", ".join(
                expression_sql(order.expression) + ("" if order.ascending else " DESC")
                for order in statement.order_by
            )
            detail = f"key: {keys}"
            if statement.limit is not None and not statement.distinct:
                detail += " (top-k)"
            node = PlanNode("Sort", detail, children=[node])
        if statement.distinct:
            node = PlanNode("Unique", children=[node])
        if statement.limit is not None or statement.offset:
            pieces = []
            if statement.limit is not None:
                pieces.append(f"limit {statement.limit}")
            if statement.offset:
                pieces.append(f"offset {statement.offset}")
            node = PlanNode("Limit", " ".join(pieces), estimated_rows=statement.limit, children=[node])
        return node

    def _comma_join_chain(self, statement) -> PlanNode:
        items = statement.from_items
        pushdown = self.executor._push_where(items, statement.where, self.parameters)
        sides = [None] * len(items) if pushdown is None else pushdown.sides
        node = self._scan_node(items[0], sides[0])
        for position in range(1, len(items)):
            right = self._scan_node(items[position], sides[position])
            hashed = pushdown is not None and pushdown.steps[position - 1] is not None
            label = "Hash Join" if hashed else "Nested Loop (cross)"
            join = PlanNode(label, "(implicit)", children=[node, right])
            self.join_nodes.append(join)
            node = join
        residual = statement.where if pushdown is None else pushdown.residual
        if residual is not None:
            node.lines.append(f"Filter: {expression_sql(residual)}")
        return node


def explain_statement(executor, target, parameters, *, analyze: bool = False) -> List[str]:
    """Render the plan for a statement; EXPLAIN ANALYZE also executes it.

    The tree is built from the same decision functions the executor uses
    (access-path choice, hash-join planning), so a plain EXPLAIN shows the
    plan that *would* run.  With ``analyze=True`` the statement executes and
    the recorded :class:`~repro.engine.segments.ExecutionStats` annotate the
    tree with actual row counts and join strategies.
    """
    builder = _ExplainBuilder(executor, parameters)
    tree = builder.build(target)
    footer: List[str] = []
    if analyze:
        result = executor.execute(target, parameters)
        stats = result.stats
        tree.actual_rows = len(result.rows) if result.rows or result.columns else result.rowcount
        if stats is not None:
            for node, detail in zip(builder.scan_nodes, stats.scan_details):
                node.actual_rows = detail.rows_touched
                executed = _ACCESS_LABELS[detail.access]
                if executed != node.label:
                    # A degraded index falls back to the scan at run time:
                    # show what ran, and what the plan predicted.
                    node.lines.append(f"Planned: {node.label} {node.detail}")
                    node.label, node.detail = executed, "on " + node.detail.partition(" on ")[2]
                if detail.access == "seq" and node.label == "Seq Scan":
                    # Whether the WHERE ran as a bitmap over packed columns
                    # (columnar vectorized path) or as a per-row predicate.
                    node.lines.append(
                        "Vectorized: yes" if detail.vectorized else "Vectorized: no"
                    )
            # Which grouping / ordering strategy ran, and why not the faster
            # one — on the statement's own nodes (the chain above its scans).
            node = tree
            while node.label in ("Limit", "Unique", "Sort", "HashAggregate", "Aggregate"):
                if node.label == "HashAggregate" and stats.group_strategy:
                    why = stats.group_decline_reason
                    node.lines.append(
                        f"Grouping: {stats.group_strategy}" + (f" ({why})" if why else "")
                    )
                elif node.label == "Sort" and stats.order_strategy:
                    why = stats.order_decline_reason
                    node.lines.append(
                        f"Ordering: {stats.order_strategy}" + (f" ({why})" if why else "")
                    )
                if node.label.endswith("Aggregate"):
                    # Which tier folded each aggregate, and why not the batch one.
                    for t in filter(lambda t: t.fold_tier, stats.aggregate_timings):
                        why = f" ({t.fold_decline_reason})" if t.fold_decline_reason else ""
                        node.lines.append(f"Fold: {t.aggregate_name} {t.fold_tier}{why}")
                node = node.children[0]
            for node, step in zip(builder.join_nodes, stats.join_steps):
                node.actual_rows = step.rows_emitted
                label = _JOIN_STRATEGY_LABELS.get(step.strategy)
                if label is not None:
                    node.label = label
            if stats.rows_matched is not None:
                footer.append(f"Rows matched by WHERE: {stats.rows_matched}")
            footer.append(f"Execution time: {stats.total_seconds * 1000.0:.3f} ms")
    return tree.format() + footer
