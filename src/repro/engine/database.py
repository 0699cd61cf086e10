"""The user-facing database facade.

A :class:`Database` bundles a catalog, an executor and a segment count, and
exposes the operations MADlib-style code needs:

* ``execute(sql, parameters)`` — run one SQL statement (the macro-programming
  surface),
* ``create_function`` / ``create_aggregate`` — install user-defined scalar
  functions and aggregates (the extension interface MADlib's installation
  scripts use),
* programmatic helpers (``create_table``, ``load_rows``, ``table``) used by
  workload generators and tests.

The segment count plays the role of the number of Greenplum query processes;
``num_segments=1`` is the single-stream aggregation baseline the merge-path
ablation benchmark compares against.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import CatalogError, ValidationError
from .aggregates import AggregateDefinition, builtin_aggregates
from .catalog import Catalog
from .executor import Executor
from .faults import FaultInjector
from .functions import FunctionDefinition, builtin_functions
from .parallel import SegmentWorkerPool
from .parser import parse_script, parse_statement
from .parser.lexer import tokenize
from .plancache import SYNTHETIC_PREFIX, CachedPlan, PlanCache, normalize_statement
from .result import ResultSet
from .schema import Column, Schema
from .segments import ExecutionStats
from .table import Table
from .types import ANY, SQLType, type_from_name

__all__ = ["Database", "PreparedStatement", "connect"]


class Database:
    """An in-memory, single-process stand-in for PostgreSQL / Greenplum.

    Every table stores each segment as typed packed columns
    (:class:`~repro.engine.columnar.ColumnStore`, dictionary-encoded text and
    booleans), and every statement runs on one execution tier — compiled
    expressions, batched folds; as Greenplum has one storage layer and one
    executor, no switch selects another.

    Parameters
    ----------
    num_segments:
        Number of shared-nothing segments new tables are distributed over.
        ``1`` behaves like single-node PostgreSQL; larger values emulate a
        Greenplum cluster with that many query processes.  Aggregates over
        segmented tables run the per-segment transition + merge path.
    parallel:
        Number of worker *processes* for real parallel segment execution
        (:mod:`repro.engine.parallel`).  ``0``
        (default) keeps everything in-process, timing each segment's fold;
        ``N >= 1`` creates a persistent
        :class:`~repro.engine.parallel.SegmentWorkerPool` that runs an
        *ungrouped* aggregate's per-segment transition folds concurrently
        and merges the partial states on the coordinator.  Grouped
        statements and joins run in-process with or without a pool.
        Aggregates the pool cannot ship (non-picklable UDAs) transparently
        fall back to the in-process fold, so results are identical with and
        without workers.
    plan_cache:
        Capacity of the plan cache (:mod:`repro.engine.plancache`).  ``0``
        (the embedded default) disables caching: every ``execute`` parses
        and plans from scratch, exactly as before.  ``N >= 1`` normalizes
        each SELECT/DML statement into a literal-parameterized shape and
        reuses the parsed (and, for simple indexed point lookups, fully
        planned) statement across calls, invalidating on any DDL or enough
        DML drift.  Results are byte-identical either way.  The serving
        layer (:mod:`repro.engine.serving`) enables this by default.
    parallel_task_timeout:
        Per-task supervision deadline for the worker pool (seconds); a task
        whose result misses the deadline is declared lost (dead or hung
        worker) and the pool's respawn/retry/fallback policy engages.
        ``None`` keeps the pool default (generous — production statements
        are never killed by the supervisor); chaos tests shrink it.
    parallel_task_retries:
        Bounded per-segment retry budget after worker-pool infra faults
        (``None`` = pool default).
    parallel_min_dispatch_rows:
        An ungrouped aggregate whose segment streams total fewer rows than
        this folds in-process (``None`` = pool default, 512); ``0`` sends
        every eligible one to the workers.
    faults:
        Optional :class:`~repro.engine.faults.FaultInjector` wired into the
        worker pool's dispatch sites for deterministic chaos testing.
        ``None`` (default, production) costs one attribute check per
        dispatch; results are byte-identical with or without injected
        faults — that is the point of the fault-tolerance layer, and the
        chaos harness (``tests/serving/test_chaos.py``) proves it.
    """

    def __init__(
        self,
        num_segments: int = 1,
        *,
        parallel: int = 0,
        plan_cache: int = 0,
        parallel_task_timeout: Optional[float] = None,
        parallel_task_retries: Optional[int] = None,
        parallel_min_dispatch_rows: Optional[int] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        if num_segments < 1:
            raise ValidationError("num_segments must be at least 1")
        if parallel is None:
            parallel = 0
        if parallel < 0:
            raise ValidationError("parallel worker count must not be negative")
        if plan_cache < 0:
            raise ValidationError("plan cache capacity must not be negative")
        self.num_segments = num_segments
        self.parallel = int(parallel)
        self.faults = faults
        self._worker_pool: Optional[SegmentWorkerPool] = (
            SegmentWorkerPool(
                self.parallel,
                min_dispatch_rows=parallel_min_dispatch_rows,
                task_timeout=parallel_task_timeout,
                max_task_retries=parallel_task_retries,
                faults=faults,
            )
            if self.parallel
            else None
        )
        self.catalog = Catalog()
        self.executor = Executor(self)
        self.last_stats: Optional[ExecutionStats] = None
        self.plan_cache_size = int(plan_cache)
        self.plan_cache: Optional[PlanCache] = (
            PlanCache(self.plan_cache_size) if self.plan_cache_size else None
        )
        self._temp_counter = 0
        # ``unique_temp_name`` and ``close`` may be reached from serving-layer
        # threads; these locks make both safe without slowing the embedded
        # single-thread case measurably.
        self._temp_lock = threading.Lock()
        self._close_lock = threading.Lock()
        for definition in builtin_functions():
            self.catalog.register_function(definition)
        for aggregate in builtin_aggregates():
            self.catalog.register_aggregate(aggregate)

    # ------------------------------------------------------------------ SQL API

    def execute(self, sql: str, parameters: Optional[Dict[str, Any]] = None) -> ResultSet:
        """Parse and execute a single SQL statement — through the plan cache,
        if there is one and the shape is cacheable (not DDL or EXPLAIN)."""
        normalized = None if self.plan_cache is None else normalize_statement(sql)
        if normalized is None:
            return self._record_stats(self.executor.execute(parse_statement(sql), parameters))
        entry, merged = self.resolve(normalized.fingerprint, normalized.values, parameters)
        return self.execute_resolved(normalized.fingerprint, entry, merged)

    def _record_stats(self, result: ResultSet) -> ResultSet:
        # Every result now carries stats (DML included); ``last_stats`` keeps
        # tracking the most recent *query* so callers inspecting aggregate
        # timings are not clobbered by housekeeping DML.
        if result.stats is not None and result.stats.statement_kind == "select":
            self.last_stats = result.stats
        return result

    def resolve(
        self, fingerprint: Optional[str], values: Dict[str, Any], parameters: Optional[Dict[str, Any]]
    ) -> Tuple[Optional[CachedPlan], Optional[Dict[str, Any]]]:
        """``(plan-cache hit or None, merged parameters)`` for a normalized
        statement, for :meth:`execute_resolved`.  ``execute``, prepared
        statements and the server's event loop (which must not parse) all
        resolve here.  Literal ``values`` override caller parameters."""
        merged = {**(parameters or {}), **values} if values else parameters
        if fingerprint is None or self.plan_cache is None:
            return None, merged
        return self.plan_cache.lookup(fingerprint, self.catalog), merged

    def execute_resolved(
        self, fingerprint: str, entry: Optional[CachedPlan], parameters: Optional[Dict[str, Any]]
    ) -> ResultSet:
        """Run what :meth:`resolve` returned, possibly on another thread: a
        miss is parsed here, and an entry DDL staled meanwhile is rebuilt."""
        if entry is None or not entry.is_valid(self.catalog):
            entry = self.plan_cache.get_or_create(fingerprint, self.catalog)
        plan = entry.simple_plan
        result = None if plan is None else plan.execute(self.catalog, parameters)
        if not isinstance(result, ResultSet):
            result = self.executor.execute(entry.statement, parameters)
        return self._record_stats(result)

    def prepare(self, sql: str) -> "PreparedStatement":
        """Parse (and cache the plan for) a statement once, for many executions.

        Literals in the statement are captured as defaults, so
        ``db.prepare("SELECT * FROM t WHERE id = %(id)s")`` and
        ``db.prepare("SELECT * FROM t WHERE id = 1")`` are both valid; the
        former is re-bound per :meth:`PreparedStatement.execute` call.
        Works with or without a plan cache (without one, the prepared
        statement simply holds its own parsed AST).
        """
        normalized = None if self.plan_cache is None else normalize_statement(sql)
        if normalized is None:
            # No cache, or an uncacheable shape: it owns its parsed AST.
            return PreparedStatement(self, statement=parse_statement(sql))
        # Parse now (through the cache) so PREPARE surfaces syntax errors.
        self.plan_cache.get_or_create(normalized.fingerprint, self.catalog)
        return PreparedStatement(self, fingerprint=normalized.fingerprint, values=normalized.values)

    def execute_script(self, sql: str, parameters: Optional[Dict[str, Any]] = None) -> List[ResultSet]:
        """Execute a semicolon-separated script; returns one result per statement."""
        return [self.executor.execute(stmt, parameters) for stmt in parse_script(sql)]

    def query_dicts(self, sql: str, parameters: Optional[Dict[str, Any]] = None) -> List[dict]:
        """Execute a SELECT and return rows as dictionaries."""
        return self.execute(sql, parameters).to_dicts()

    def query_scalar(self, sql: str, parameters: Optional[Dict[str, Any]] = None) -> Any:
        """Execute a SELECT expected to produce a single value."""
        return self.execute(sql, parameters).scalar()

    # ------------------------------------------------------------------ extension API

    def create_function(
        self,
        name: str,
        func: Callable[..., Any],
        *,
        return_type: Union[str, SQLType] = ANY,
        strict: bool = True,
        volatile: bool = False,
        replace: bool = True,
    ) -> FunctionDefinition:
        """Register a Python callable as a SQL scalar function (a UDF)."""
        if isinstance(return_type, str):
            return_type = type_from_name(return_type)
        definition = FunctionDefinition(name, func, return_type, strict=strict, volatile=volatile)
        self.catalog.register_function(definition, replace=replace)
        return definition

    def create_aggregate(
        self,
        name: str,
        *,
        transition: Callable[..., Any],
        merge: Optional[Callable[[Any, Any], Any]] = None,
        final: Optional[Callable[[Any], Any]] = None,
        initial_state: Any = None,
        strict: bool = True,
        return_type: Union[str, SQLType] = ANY,
        replace: bool = True,
    ) -> AggregateDefinition:
        """Register a user-defined aggregate (transition / merge / final)."""
        if isinstance(return_type, str):
            return_type = type_from_name(return_type)
        definition = AggregateDefinition(
            name,
            transition,
            merge=merge,
            final=final,
            initial_state=initial_state,
            strict=strict,
            return_type=return_type,
        )
        self.catalog.register_aggregate(definition, replace=replace)
        return definition

    # ------------------------------------------------------------------ table helpers

    def create_table(
        self,
        name: str,
        columns: Union[Schema, Sequence[Tuple[str, str]]],
        *,
        distributed_by: Optional[str] = None,
        temporary: bool = False,
        replace: bool = False,
    ) -> Table:
        """Create a table programmatically (columns as ``(name, sql_type)`` pairs)."""
        if replace and self.catalog.has_table(name):
            self.catalog.drop_table(name)
        schema = columns if isinstance(columns, Schema) else Schema.from_pairs(columns)
        table = Table(
            name,
            schema,
            num_segments=self.num_segments,
            distributed_by=distributed_by,
            temporary=temporary,
        )
        return self.catalog.create_table(table)

    def load_rows(self, name: str, rows: Iterable[Sequence[Any]]) -> int:
        """Bulk-load rows into an existing table; returns the number inserted."""
        return self.catalog.get_table(name).insert_many(rows)

    def table(self, name: str) -> Table:
        """Look up a table object (raises CatalogError if missing)."""
        return self.catalog.get_table(name)

    def has_table(self, name: str) -> bool:
        return self.catalog.has_table(name)

    def drop_table(self, name: str, *, if_exists: bool = True) -> None:
        self.catalog.drop_table(name, if_exists=if_exists)

    def table_names(self) -> List[str]:
        return self.catalog.table_names()

    # ------------------------------------------------------------------ planner

    def analyze(self, table: Optional[str] = None) -> int:
        """Collect planner statistics (the ``ANALYZE [table]`` statement).

        Returns the number of tables analyzed.  Statistics land in the
        catalog (``catalog.statistics()`` lists them, the pg_stats analog)
        where the access-path planner and driver UDFs interrogate them.
        Delegates to the SQL statement so the two surfaces cannot diverge.
        """
        sql = "ANALYZE" if table is None else f"ANALYZE {table}"
        return self.execute(sql).rowcount

    def create_index(
        self, name: str, table: str, column: str, *, kind: str = "sorted"
    ) -> None:
        """Create a secondary index programmatically (``CREATE INDEX`` analog)."""
        self.catalog.create_index(name, table, column, kind=kind)

    def explain(
        self, sql: str, parameters: Optional[Dict[str, Any]] = None, *, analyze: bool = False
    ) -> str:
        """Render a statement's plan as text (``EXPLAIN [ANALYZE]`` analog)."""
        prefix = "EXPLAIN ANALYZE " if analyze else "EXPLAIN "
        result = self.execute(prefix + sql, parameters)
        return "\n".join(row[0] for row in result.rows)

    # ------------------------------------------------------------------ parallel workers

    @property
    def worker_pool(self) -> Optional[SegmentWorkerPool]:
        """The persistent segment worker pool, or None when ``parallel=0``."""
        return self._worker_pool

    def ensure_parallel_workers(self) -> None:
        """Start the worker pool now instead of on first use (idempotent).

        Driver iteration controllers call this so multipass methods pay the
        process-spawn cost once up front, never inside a timed iteration.
        """
        if self._worker_pool is not None:
            self._worker_pool.ensure_started()

    def close(self) -> None:
        """Release external resources (the worker pool); idempotent.

        Safe to call concurrently (the serving layer's teardown races
        ``__del__`` and explicit ``close`` calls): exactly one caller shuts
        the pool down, everyone else returns immediately.  The database
        object itself stays usable — subsequent queries simply run without
        the parallel tier.
        """
        with self._close_lock:
            pool, self._worker_pool = self._worker_pool, None
        if pool is not None:
            pool.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown timing
        # Last-resort cleanup so a served database dropped with in-flight
        # sessions cannot leak worker processes.  Everything here must
        # tolerate a partially torn-down interpreter.
        try:
            self.close()
        except Exception:
            pass

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ segments

    def set_num_segments(self, num_segments: int, *, redistribute: bool = True) -> None:
        """Change the segment count, optionally redistributing existing tables.

        The Figure 4 / Figure 5 harness uses this to sweep cluster sizes over
        the same loaded data.
        """
        if num_segments < 1:
            raise ValidationError("num_segments must be at least 1")
        self.num_segments = num_segments
        if redistribute:
            for name in self.catalog.table_names():
                table = self.catalog.get_table(name)
                table.redistribute(num_segments, table.distributed_by)

    # ------------------------------------------------------------------ temp tables

    def unique_temp_name(self, prefix: str = "madlib_temp") -> str:
        """A fresh temp-table name (drivers stage inter-iteration state in these).

        Counter updates happen under a lock so two serving-layer sessions can
        never be handed the same name.
        """
        with self._temp_lock:
            self._temp_counter += 1
            candidate = f"{prefix}_{self._temp_counter}"
            while self.catalog.has_table(candidate):
                self._temp_counter += 1
                candidate = f"{prefix}_{self._temp_counter}"
            return candidate

    @contextmanager
    def temporary_table(self, prefix: str = "madlib_temp"):
        """Context manager yielding a fresh temp-table name, dropped on exit."""
        name = self.unique_temp_name(prefix)
        try:
            yield name
        finally:
            self.catalog.drop_table(name, if_exists=True)

    def drop_temporary_tables(self) -> int:
        return self.catalog.drop_temporary_tables()


class PreparedStatement:
    """A statement parsed (and plan-cached) once, executable many times.

    With a plan cache, the prepared statement holds only its *fingerprint*;
    every execution revalidates the shared cache entry, so DDL or data drift
    transparently replans instead of running a stale plan.  Without a cache
    it owns its parsed AST.  ``values`` carries the literals normalization
    extracted at PREPARE time; caller parameters are merged under them (the
    synthetic ``__cN`` names can never be overridden by callers).
    """

    def __init__(
        self,
        database: Database,
        *,
        fingerprint: Optional[str] = None,
        values: Optional[Dict[str, Any]] = None,
        statement: Optional[Any] = None,
    ) -> None:
        self.database = database
        self.fingerprint = fingerprint
        self.values = dict(values) if values else {}
        self._statement = statement

    @property
    def parameter_names(self) -> List[str]:
        """The caller-facing parameter names (synthetic literals excluded)."""
        if self.fingerprint is None:
            return []
        return sorted(
            {
                token.value
                for token in tokenize(self.fingerprint)
                if token.kind == "parameter"
                and not token.value.startswith(SYNTHETIC_PREFIX)
            }
        )

    def execute(self, parameters: Optional[Dict[str, Any]] = None) -> ResultSet:
        database = self.database
        entry, merged = database.resolve(self.fingerprint, self.values, parameters)
        if self.fingerprint is None:
            return database._record_stats(database.executor.execute(self._statement, merged))
        return database.execute_resolved(self.fingerprint, entry, merged)


def connect(num_segments: int = 1, **kwargs: Any) -> Database:
    """Create a new in-memory database (named to read like a DB-API call)."""
    return Database(num_segments=num_segments, **kwargs)
