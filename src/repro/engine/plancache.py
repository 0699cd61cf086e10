"""Plan caching: pay parse→compile→plan once per query *shape*.

"Architecture of a Database System" (Hellerstein, Stonebraker & Hamilton,
Section 4 and 6) describes the query-processing discipline every serious
server adopts: incoming SQL is *normalized* into a parameterized shape, the
parsed/optimized plan for that shape is kept in a shared plan cache, and
subsequent statements that differ only in their literal values reuse it.
This module is that machinery for our engine:

* :func:`normalize_statement` — tokenize a statement and replace literal
  tokens with synthetic parameters (``%(__c0)s``, ``%(__c1)s``, ...).  The
  rebuilt text is both the cache *fingerprint* (two statements with the same
  shape normalize to the same string) and the SQL that is actually parsed,
  so a cached AST serves every literal binding of the shape.
* :class:`PlanCache` — an LRU of :class:`CachedPlan` entries keyed on the
  fingerprint.  Every entry records the catalog's DDL version and the data
  version of each referenced table; a lookup revalidates both, so any DDL
  (CREATE/DROP/ALTER/ANALYZE/UDF registration) or enough DML drift replans
  the shape instead of trusting a stale plan.
* :class:`SimpleSelectPlan` — a *physical* plan for the hot serving shape
  (single-table projection with an indexable equality WHERE).  A
  cache hit on this shape skips the whole executor: probe the secondary
  index, materialize the matching rows, project.  Anything it cannot prove
  safe declines at build or run time and the generic executor runs instead,
  so results are byte-identical with the cache on or off.

Normalization subtleties (all covered by ``tests/serving/test_plancache.py``):

* Numbers after a ``GROUP``/``ORDER``/``LIMIT``/``OFFSET`` keyword are *not*
  parameterized: ``ORDER BY 2`` is an output-column ordinal and ``LIMIT 10``
  must be a literal per the grammar, so those literals stay part of the
  shape.  (String literals freeze there too, conservatively.)
* Identifier tokens are re-emitted quoted (``"name"``), which reproduces the
  original token stream exactly whether or not the source quoted them.
* Statements whose parameters could collide with the synthetic names (a user
  parameter starting with ``__c``) and non-DML/SELECT statements are simply
  not cached.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Tuple, Union

from .expressions import BinaryOp, ColumnRef, Literal, Parameter, Star
from .parser import parse_statement
from .parser.ast_nodes import (
    CreateTableAsStatement,
    DeleteStatement,
    ExplainStatement,
    InsertStatement,
    Join,
    SelectStatement,
    Statement,
    SubquerySource,
    TableRef,
    UnionStatement,
    UpdateStatement,
)
from .parser.lexer import tokenize
from .planner import AUTO_ANALYZE_FRACTION, AUTO_ANALYZE_MIN_MUTATIONS
from .result import ResultSet
from .segments import ExecutionStats, ScanDetail

__all__ = [
    "normalize_statement",
    "NormalizedStatement",
    "referenced_tables",
    "statement_is_read_only",
    "CachedPlan",
    "PlanCache",
    "SimpleSelectPlan",
]


#: Prefix of the synthetic parameter names normalization introduces.  A user
#: statement that already binds a parameter with this prefix bypasses the
#: cache entirely rather than risk a collision.
SYNTHETIC_PREFIX = "__c"

#: Statement-leading keywords eligible for caching.  DDL is rare and cheap to
#: parse; EXPLAIN wants the *uncached* planning path by definition.
_CACHEABLE_FIRST_KEYWORDS = {"select", "insert", "update", "delete"}

#: After one of these keywords is seen, literal tokens stop being
#: parameterized: ``ORDER BY 2`` is an ordinal, ``LIMIT``/``OFFSET`` require
#: literal numbers in the grammar, and GROUP BY ordinals ride along.
_FREEZE_KEYWORDS = {"group", "order", "limit", "offset"}


class NormalizedStatement(NamedTuple):
    """The outcome of normalizing one SQL string.

    ``fingerprint`` is the parameterized SQL text (also what the cache
    parses); ``values`` maps each synthetic parameter name to the literal it
    replaced in *this* statement.
    """

    fingerprint: str
    values: Dict[str, Any]


def _quote_name(value: str) -> str:
    # The lexer cannot produce a name containing a double quote (a quoted
    # identifier ends at the first one), so plain re-quoting round-trips.
    return f'"{value}"'


def _quote_string(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def _number_value(text: str) -> Any:
    """Convert a number token exactly as the parser does."""
    return float(text) if any(c in text for c in ".eE") else int(text)


def normalize_statement(sql: str) -> Optional[NormalizedStatement]:
    """Parameterize a statement's literals; None when the shape is uncacheable.

    Raises :class:`~repro.errors.SQLSyntaxError` for text the lexer rejects —
    the same error the uncached path would raise.
    """
    tokens = tokenize(sql)
    if not tokens or tokens[0].kind != "keyword":
        return None
    if tokens[0].value.lower() not in _CACHEABLE_FIRST_KEYWORDS:
        return None
    parts: List[str] = []
    values: Dict[str, Any] = {}
    frozen = False
    for token in tokens:
        kind = token.kind
        if kind == "eof":
            break
        if kind == "keyword":
            lowered = token.value.lower()
            if lowered in _FREEZE_KEYWORDS:
                frozen = True
            parts.append(lowered)
        elif kind == "name":
            parts.append(_quote_name(token.value))
        elif kind == "operator":
            parts.append(token.value)
        elif kind == "parameter":
            if token.value.startswith(SYNTHETIC_PREFIX):
                return None  # user parameter could collide with ours
            parts.append(f"%({token.value})s")
        elif kind == "number":
            if frozen:
                parts.append(token.value)
            else:
                name = f"{SYNTHETIC_PREFIX}{len(values)}"
                values[name] = _number_value(token.value)
                parts.append(f"%({name})s")
        elif kind == "string":
            if frozen:
                parts.append(_quote_string(token.value))
            else:
                name = f"{SYNTHETIC_PREFIX}{len(values)}"
                values[name] = token.value
                parts.append(f"%({name})s")
        else:  # pragma: no cover - the lexer has no other kinds
            return None
    return NormalizedStatement(" ".join(parts), values)


# ---------------------------------------------------------------------------
# Statement introspection
# ---------------------------------------------------------------------------


def referenced_tables(statement: Statement) -> List[str]:
    """Lowercased names of every base table a statement touches.

    Used for cache invalidation (data-version snapshots) and by the serving
    layer's snapshot validation; unknown FROM shapes contribute nothing
    (subqueries and joins are walked recursively).
    """
    names: List[str] = []

    def walk_from(item: object) -> None:
        if isinstance(item, TableRef):
            names.append(item.name.lower())
        elif isinstance(item, Join):
            walk_from(item.left)
            walk_from(item.right)
        elif isinstance(item, SubquerySource):
            walk_select(item.select)

    def walk_select(select: Statement) -> None:
        if isinstance(select, UnionStatement):
            for sub in select.selects:
                walk_select(sub)
            return
        if isinstance(select, SelectStatement):
            for item in select.from_items:
                walk_from(item)

    if isinstance(statement, (SelectStatement, UnionStatement)):
        walk_select(statement)
    elif isinstance(statement, InsertStatement):
        names.append(statement.table.lower())
        if statement.select is not None:
            walk_select(statement.select)
    elif isinstance(statement, UpdateStatement):
        names.append(statement.table.lower())
    elif isinstance(statement, DeleteStatement):
        names.append(statement.table.lower())
    elif isinstance(statement, CreateTableAsStatement):
        walk_select(statement.select)
    return list(dict.fromkeys(names))  # first-seen order, no duplicates


def statement_is_read_only(statement: Statement) -> bool:
    """True when executing the statement cannot mutate any table.

    SELECT/UNION and plain EXPLAIN are reads; EXPLAIN ANALYZE actually runs
    its target, so it is only a read when the target is.  Everything else
    (DML, DDL, ANALYZE) is a write.  The serving layer uses this to pick the
    reader or the writer side of its lock.
    """
    if isinstance(statement, (SelectStatement, UnionStatement)):
        return True
    if isinstance(statement, ExplainStatement):
        if not statement.analyze:
            return True
        return statement_is_read_only(statement.target)
    return False


# ---------------------------------------------------------------------------
# The hot-shape physical plan
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class SimpleSelectPlan:
    """Executor-bypassing plan for ``SELECT cols FROM t WHERE col = const``
    with a usable index on ``col``.

    Built once per cached shape; every execution re-fetches the table from
    the catalog and declines on anything it cannot prove byte-identical to
    the generic path — the caller then falls back.  The probe uses the
    secondary index directly, which is also what makes prepared point
    lookups ~an-order-of-magnitude cheaper than a full parse→plan→execute
    round trip, and bounded enough for the server to run on its event loop.
    """

    table_name: str
    column_indices: List[int]
    output_names: List[str]
    where_column: int
    where_param: Optional[str]
    where_value: Any

    # -- construction -------------------------------------------------------

    @staticmethod
    def try_build(statement: Statement, catalog) -> Optional["SimpleSelectPlan"]:
        """Build the fast plan for a statement, or None when out of shape."""
        if not isinstance(statement, SelectStatement):
            return None
        if (
            statement.group_by
            or statement.having is not None
            or statement.order_by
            or statement.limit is not None
            or statement.offset is not None
            or statement.distinct
        ):
            return None
        if len(statement.from_items) != 1:
            return None
        ref = statement.from_items[0]
        if not isinstance(ref, TableRef):
            return None
        if not catalog.has_table(ref.name):
            return None
        table = catalog.get_table(ref.name)
        alias = ref.effective_alias.lower()
        schema = table.schema
        lowered = [name.lower() for name in schema.names]

        def resolve(column: ColumnRef) -> Optional[int]:
            if column.qualifier is not None and column.qualifier.lower() != alias:
                return None
            try:
                return lowered.index(column.name.lower())
            except ValueError:
                return None

        column_indices: List[int] = []
        output_names: List[str] = []
        for item in statement.select_items:
            expression = item.expression
            if isinstance(expression, Star):
                if expression.qualifier is not None and (
                    expression.qualifier.lower() != alias
                ):
                    return None
                if item.alias:
                    return None
                column_indices.extend(range(len(schema)))
                output_names.extend(schema.names)
                continue
            if not isinstance(expression, ColumnRef):
                return None
            index = resolve(expression)
            if index is None:
                return None
            column_indices.append(index)
            output_names.append(item.alias or expression.name)

        where = statement.where
        if not isinstance(where, BinaryOp) or where.op != "=":
            return None
        left, right = where.left, where.right
        if isinstance(right, ColumnRef) and not isinstance(left, ColumnRef):
            left, right = right, left
        if not isinstance(left, ColumnRef):
            return None
        where_column = resolve(left)
        if where_column is None:
            return None
        where_param: Optional[str] = None
        where_value: Any = None
        if isinstance(right, Literal):
            where_value = right.value
        elif isinstance(right, Parameter):
            where_param = right.name
        else:
            return None
        # Only worthwhile (and only provably scan-order-identical) when a
        # usable index covers the probed column.
        if not any(
            index.usable and index.column_index == where_column for index in table.indexes
        ):
            return None
        return SimpleSelectPlan(
            table.name.lower(),
            column_indices,
            output_names,
            where_column,
            where_param,
            where_value,
        )

    # -- execution ----------------------------------------------------------

    def execute(
        self, catalog, parameters: Optional[Dict[str, Any]], max_rows: Optional[int] = None
    ) -> Union[ResultSet, str]:
        """Run the plan, or say why it declines to the generic executor:
        ``"probe"`` (table gone, parameter unbound, or no usable index answered,
        e.g. a cross-kind key) or ``"rows"`` (more than ``max_rows`` matches,
        counted before any row is read)."""
        if not catalog.has_table(self.table_name):
            return "probe"  # let the generic path raise the canonical error
        start = time.perf_counter()
        table = catalog.get_table(self.table_name)
        stats = ExecutionStats(statement_kind="select")
        if self.where_param is not None:
            if parameters is None or self.where_param not in parameters:
                return "probe"  # generic path raises the unbound-parameter error
            value = parameters[self.where_param]
        else:
            value = self.where_value
        entries = None
        index_name = None
        for index in table.indexes:
            if index.usable and index.column_index == self.where_column:
                if max_rows is not None and (index.count_eq(value) or 0) > max_rows:
                    return "rows"
                entries = index.probe_eq(value)
                index_name = index.name
                if entries is not None:
                    break
        if entries is None:
            return "probe"  # no usable index left / probe declined: fall back
        columns = self.column_indices
        rows = [tuple([row[i] for i in columns]) for row in table.rows_at(entries)]
        stats.rows_scanned_per_source.append(len(rows))
        stats.scan_details.append(
            ScanDetail(table.name, "index", len(rows), index_name=index_name)
        )
        stats.total_seconds = time.perf_counter() - start
        return ResultSet(self.output_names, rows, stats=stats)


# ---------------------------------------------------------------------------
# The cache
# ---------------------------------------------------------------------------


class CachedPlan:
    """One cached shape: parsed AST + validity snapshot + optional fast plan."""

    __slots__ = ("statement", "catalog_version", "table_versions", "matview_versions", "simple_plan")

    def __init__(self, statement: Statement, catalog) -> None:
        self.statement = statement
        self.catalog_version = catalog.version
        self.table_versions: Dict[str, Tuple[int, int]] = {}
        self.matview_versions: Dict[str, int] = {}
        for name in referenced_tables(statement):
            if catalog.has_table(name):
                table = catalog.get_table(name)
                self.table_versions[name] = (table._data_version, len(table))
            elif catalog.has_matview(name):
                self.matview_versions[name] = catalog.get_matview(name).version
        self.simple_plan = SimpleSelectPlan.try_build(statement, catalog)

    def is_valid(self, catalog) -> bool:
        """Still safe to reuse?  Any DDL or enough DML drift says no.

        The drift threshold mirrors auto-ANALYZE damping: a table that has
        mutated more than ``max(64, 20% of its row count at plan time)``
        times since the plan was built gets replanned, because access-path
        choices are data-dependent even though the AST is not.
        """
        if catalog.version != self.catalog_version:
            return False
        for name, (version, row_count) in self.table_versions.items():
            if not catalog.has_table(name):
                return False
            drift = catalog.get_table(name)._data_version - version
            if drift > max(AUTO_ANALYZE_MIN_MUTATIONS, AUTO_ANALYZE_FRACTION * row_count):
                return False
        # Materialized views invalidate strictly on *any* content change
        # (delta fold, refresh, recompute): unlike base-table drift, which
        # only skews cost estimates, a view-version bump means the cached
        # plan would serve different rows.
        for name, version in self.matview_versions.items():
            if not catalog.has_matview(name):
                return False
            if catalog.get_matview(name).version != version:
                return False
        return True


class PlanCache:
    """LRU cache of :class:`CachedPlan` entries keyed on the fingerprint.

    Thread-safe: the server's event loop and its worker threads share one
    cache, so bookkeeping (LRU order, eviction, counters) happens under an
    internal lock — but not parsing, so a lookup never waits behind a parse.
    Two threads missing one fingerprint both parse it; the later insert wins
    (the plans are equal).  ``misses`` counts the plans built.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("plan cache capacity must be at least 1")
        self.capacity = capacity
        self._entries: "OrderedDict[str, CachedPlan]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def lookup(self, fingerprint: str, catalog) -> Optional[CachedPlan]:
        """A valid entry for the fingerprint, or None (stale entries evict)."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                return None
            if not entry.is_valid(catalog):
                del self._entries[fingerprint]
                self.invalidations += 1
                return None
            self._entries.move_to_end(fingerprint)
            self.hits += 1
            return entry

    def get_or_create(self, fingerprint: str, catalog) -> CachedPlan:
        entry = self.lookup(fingerprint, catalog)
        if entry is not None:
            return entry
        entry = CachedPlan(parse_statement(fingerprint), catalog)
        with self._lock:
            self.misses += 1
            self._entries[fingerprint] = entry
            self._entries.move_to_end(fingerprint)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return entry

    def stats(self) -> Dict[str, int]:
        """Counters for monitoring and the serving benchmark's hit ratio."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
            }
