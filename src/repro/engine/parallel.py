"""Real parallel segment execution: a persistent worker-process pool.

In-process, :mod:`repro.engine.segments` folds the segments one after
another and times each.  This module runs them concurrently: a persistent
:mod:`multiprocessing` pool of worker processes, one task per segment, true
two-phase aggregation exactly as Greenplum/MADlib execute it —

1. the coordinator ships each segment's argument batch to a worker,
2. every worker runs the (already compiled/batched) **transition** fold over
   its segment locally and returns the partial state, and
3. the coordinator combines partial states with the aggregate's **merge**
   function and applies **final** — the merge/final phases never leave the
   coordinator, so their callables (often lambdas) never need to be pickled.

What crosses the process boundary:

* **Down**: an *aggregate spec* plus one segment's argument stream.  Built-in
  aggregates travel as just their name — every worker rebuilds the builtin
  registry at startup, so the closure-based builtins (``min``/``max``/
  ``bool_*``) work without being picklable.  User-defined aggregates travel
  as their transition/batch kernels pickled *by reference* (module +
  qualname), which works for module-level functions such as ``linregr``'s
  kernels.  Aggregates whose callables cannot be pickled (lambdas, local
  closures — e.g. the IGD objective closures) are detected up front and the
  caller falls back to the in-process serial fold; parallelism never changes
  which queries succeed or what they return.
* **Up**: the partial state and the worker-measured fold wall-clock seconds
  (so :class:`~repro.engine.segments.AggregateTimings` keeps its per-segment
  timing semantics under real parallelism).

Argument streams are shipped compactly: :class:`~repro.engine.vectorized.
ColumnBatch` pickles float columns as packed C-double buffers (see its
``__reduce__``) and ``count(*)``'s constant column in O(1) space, so the
dominant IPC cost for numeric workloads is one ``memcpy``-like transfer per
segment rather than a per-value pickle loop.  Storage is columnar
(:mod:`repro.engine.columnar`), so this is near-zero-copy end to end: a
NULL-free packed column exports its stored ``array('d')``/``array('q')`` buffer
as-is (``TypedColumn.packed_wire``) — no per-value scan even to
*build* the wire format — and workers restore exact values via ``tolist()``.

The pool runs exactly one task shape, :func:`_fold_segment_task`: one
ungrouped aggregate's transition over one segment's argument stream
(:meth:`SegmentWorkerPool.run_aggregate`).  Workers never compile SQL.
Grouped statements and joins run the same in-process code whether or not a
pool is attached: measured on a 2-core machine, shipping their rows and
expressions to workers never clearly beat the in-process kernel
(``docs/engine-execution.md``, "What the pool runs").

The pool is **persistent**: it belongs to the :class:`~repro.engine.database.
Database` (``Database(parallel=N)``), is started lazily on first use (or
eagerly via ``ensure_started``, which the driver-iteration controller calls
so multipass methods pay the spawn cost once, not per iteration), and is
reused by every query until ``close()``.

Supervision (the fault-tolerance layer)
---------------------------------------

Real worker processes die.  A SIGKILL'd fork used to strand the blanket
``pool.map`` call forever (the task's result simply never arrives), and any
worker-side exception was silently retried in-process — masking genuine
kernel bugs behind the fallback.  Dispatch is now supervised:

* every fan-out runs through :meth:`SegmentWorkerPool._dispatch`, which
  submits one ``apply_async`` per task and collects results under a
  **per-task deadline** (``task_timeout``, scaled by queueing depth);
* a missing result (dead or hung worker) is an *infra fault*: the pool is
  **respawned** (terminate + fresh processes, reclaiming hung slots) and the
  unfinished tasks are **retried** with exponential backoff, at most
  ``max_task_retries`` times;
* failures are **classified** (:func:`classify_failure`): infra faults —
  lost workers, IPC pickling breakage — raise :class:`WorkerPoolError` after
  retries are exhausted, which callers turn into an in-process fallback with
  the reason recorded on ``ExecutionStats.parallel_fallback_reason``; *query
  errors* — anything the shipped kernel itself raised — propagate unchanged,
  byte-identical to the in-process tier, and are **never retried or masked**;
* cumulative counters (``stats()``) expose retries, respawns and fallbacks
  so operators see degradation instead of inferring it.

Deterministic fault injection (:mod:`repro.engine.faults`) hooks two sites:
``parallel.dispatch`` (once per fan-out attempt; ``pickle_error``) and
``parallel.task`` (once per task per attempt; ``worker_crash`` /
``worker_hang`` / ``slow_worker`` — decided on the coordinator and shipped
to the worker as a directive, so chaos runs replay exactly by seed).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.pool
import os
import pickle
import threading
import time
import weakref
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import EngineError, ReproError, ValidationError
from .aggregates import AggregateDefinition, builtin_aggregates
from .faults import PICKLE_ERROR, SLOW_WORKER, WORKER_CRASH, WORKER_HANG, FaultInjector

__all__ = [
    "SegmentWorkerPool",
    "WorkerPoolError",
    "classify_failure",
    "shippable_spec",
]


# ---------------------------------------------------------------------------
# Failure classification: infra faults versus query errors
# ---------------------------------------------------------------------------


def _rebuild_worker_pool_error(reason, retries, respawns, message):
    return WorkerPoolError(reason, retries=retries, respawns=respawns, message=message)


class WorkerPoolError(EngineError):
    """A fan-out failed for *infrastructure* reasons after bounded retries.

    Raised only for faults of the pool itself — dead or hung worker
    processes, IPC pickling breakage — never for errors the query's own code
    raised (those propagate unchanged, byte-identical to the in-process
    tier).  Callers catch exactly this type, record ``reason`` on
    ``ExecutionStats.parallel_fallback_reason``, and fall back in-process.
    """

    def __init__(
        self,
        reason: str,
        *,
        retries: int = 0,
        respawns: int = 0,
        message: Optional[str] = None,
    ) -> None:
        self.reason = reason
        self.retries = retries
        self.respawns = respawns
        super().__init__(
            message
            or f"worker pool fan-out failed ({reason}) after "
            f"{retries} task retries and {respawns} pool respawns"
        )

    def __reduce__(self):  # survives the worker → coordinator pickle hop
        return (
            _rebuild_worker_pool_error,
            (self.reason, self.retries, self.respawns, str(self)),
        )


class _InfraFailure(Exception):
    """Internal marker for one failed dispatch attempt (never escapes)."""

    def __init__(self, reason: str, retryable: bool) -> None:
        super().__init__(reason)
        self.reason = reason
        self.retryable = retryable


def classify_failure(exc: BaseException) -> Tuple[Optional[str], bool]:
    """``(reason, retryable)`` when ``exc`` is an infra fault, ``(None, _)``
    when it is a query error.

    The contract (see ``docs/robustness.md``): anything the *pool machinery*
    produced — a result that never arrived (``multiprocessing.TimeoutError``
    from a dead or hung worker), payloads or partial states that failed to
    pickle, broken IPC pipes, a worker-side :class:`WorkerPoolError` — is an
    infra fault the caller may retry and then absorb into the in-process
    fallback.  Anything else was raised by the shipped kernel itself and
    would have been raised identically in-process: it must propagate with
    the same type and message, never be retried, never be masked.
    """
    if isinstance(exc, WorkerPoolError):
        return exc.reason or "worker_internal", False
    if isinstance(exc, multiprocessing.TimeoutError):
        return "worker_lost", True
    if isinstance(exc, (pickle.PicklingError, multiprocessing.pool.MaybeEncodingError)):
        return "pickle_error", False
    if isinstance(exc, (BrokenPipeError, EOFError, ConnectionError)):
        return "ipc_broken", True
    if isinstance(exc, ReproError):
        return None, False
    return None, False


# ---------------------------------------------------------------------------
# Aggregate specs: what identifies an aggregate inside a worker process.
# ---------------------------------------------------------------------------

#: Module that defines the built-in aggregates; their transition callables
#: (including the ``min``/``max``/``bool_*`` closures) all live here.
_BUILTIN_MODULE = AggregateDefinition.__module__

#: Coordinator-side fingerprints of the builtins:
#: name -> (transition __qualname__, strict flag).
_BUILTIN_FINGERPRINTS = {
    definition.name.lower(): (definition.transition.__qualname__, definition.strict)
    for definition in builtin_aggregates()
}

#: What ``pickle.dumps`` raises for a callable that cannot cross the process
#: boundary: a lambda (``PicklingError``), a local closure (``AttributeError``),
#: an object holding a lock or another unpicklable resource (``TypeError``).
_UNPICKLABLE = (pickle.PicklingError, AttributeError, TypeError)

#: Attribute used to memoize the spec decision on a definition object, so the
#: picklability probe runs once per definition rather than once per query.
_SPEC_CACHE_ATTR = "_parallel_spec_cache"


def shippable_spec(definition: AggregateDefinition) -> Optional[tuple]:
    """A picklable description of ``definition``'s transition side, or None.

    ``("builtin", name)`` when the definition *is* the built-in registered
    under that name (same transition function identity by module/qualname and
    same strictness) — workers rebuild it locally from their own registry.
    ``("funcs", name, transition, batch, initial_state, strict)`` when the
    transition-side callables pickle (by reference); an unpicklable batch
    kernel alone only degrades that aggregate to the worker's row-at-a-time
    fold, it does not force serial execution.  ``None`` means the aggregate
    cannot run in workers at all and the caller must fold in-process.
    """
    cached = getattr(definition, _SPEC_CACHE_ATTR, None)
    if cached is not None:
        return cached[0]
    spec = _build_spec(definition)
    try:
        setattr(definition, _SPEC_CACHE_ATTR, (spec,))
    except AttributeError:  # pragma: no cover - slotted subclass
        pass
    return spec


def _build_spec(definition: AggregateDefinition) -> Optional[tuple]:
    name = definition.name.lower()
    fingerprint = _BUILTIN_FINGERPRINTS.get(name)
    if (
        fingerprint is not None
        and getattr(definition.transition, "__module__", None) == _BUILTIN_MODULE
        and definition.transition.__qualname__ == fingerprint[0]
        and definition.strict == fingerprint[1]
    ):
        return ("builtin", name)
    try:
        pickle.dumps((definition.transition, definition.initial_state))
    except _UNPICKLABLE:
        return None
    batch = definition.batch_transition
    if batch is not None:
        try:
            pickle.dumps(batch)
        except _UNPICKLABLE:
            batch = None
    return (
        "funcs",
        definition.name,
        definition.transition,
        batch,
        definition.initial_state,
        definition.strict,
    )


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

#: Per-worker registry of built-in aggregate definitions, built once at pool
#: startup (each worker has its own copy — shared-nothing, like a segment).
_WORKER_BUILTINS: Optional[dict] = None


def _worker_initializer() -> None:
    global _WORKER_BUILTINS
    _WORKER_BUILTINS = {d.name.lower(): d for d in builtin_aggregates()}


def _apply_worker_fault(directive: Optional[tuple]) -> None:
    """Act on a coordinator-decided fault directive, inside the worker.

    ``("crash",)`` dies abruptly (no cleanup, no exception back — exactly
    what a SIGKILL or OOM kill looks like to the coordinator);
    ``("hang", s)`` / ``("slow", s)`` sleep — past every deadline for a
    hang, briefly for a slow worker.  ``None`` (the production value) is a
    single comparison.
    """
    if directive is None:
        return
    kind = directive[0]
    if kind == "crash":
        os._exit(70)
    elif kind in ("hang", "slow"):
        time.sleep(directive[1])


def _resolve_spec(spec: tuple) -> AggregateDefinition:
    global _WORKER_BUILTINS
    if spec[0] == "builtin":
        if _WORKER_BUILTINS is None:  # defensive: initializer not run
            _worker_initializer()
        return _WORKER_BUILTINS[spec[1]]
    _tag, name, transition, batch, initial_state, strict = spec
    # merge/final are deliberately absent: they run on the coordinator only.
    return AggregateDefinition(
        name,
        transition,
        initial_state=initial_state,
        strict=strict,
        batch_transition=batch,
    )


def _fold_segment_task(task: tuple) -> Tuple[Any, float]:
    """Run one segment's transition fold in a worker; returns (state, seconds).

    Reuses :meth:`SegmentedAggregator._fold_stream`, so the batched tier, the
    small-stream threshold and the silent batch-kernel fallback behave
    identically to the in-process fold — parallel execution cannot change
    results.
    """
    from .segments import SegmentedAggregator  # deferred: avoids import cycle

    directive, spec, stream = task
    _apply_worker_fault(directive)
    aggregator = SegmentedAggregator(_resolve_spec(spec))
    start = time.perf_counter()
    state = aggregator._fold_stream(stream)
    return state, time.perf_counter() - start


def _terminate_pool(pool: multiprocessing.pool.Pool) -> None:
    pool.terminate()
    pool.join()


# ---------------------------------------------------------------------------
# Coordinator side
# ---------------------------------------------------------------------------


class SegmentWorkerPool:
    """A persistent pool of segment-worker processes.

    Parameters
    ----------
    num_workers:
        Number of worker processes (>= 1).  Matching the machine's core count
        (and the database's segment count) gives the best speedup; more
        segments than workers simply queue.
    start_method:
        Optional :mod:`multiprocessing` start method.  Defaults to ``fork``
        where available (cheap startup, inherits imports) and ``spawn``
        elsewhere.
    min_dispatch_rows:
        Fan-outs whose streams total fewer rows than this fold in-process —
        a pool round trip costs a fixed few hundred microseconds, more than
        folding a small table takes.  Set to ``0`` to force every eligible
        aggregate through the workers (the parallel parity tests do).
    task_timeout:
        Per-task supervision deadline in seconds (scaled by queueing depth
        when a fan-out has more tasks than workers).  A task whose result
        has not arrived by the deadline is declared lost — its worker dead
        or hung — and the supervision policy (respawn + retry, then
        fallback) engages.  Generous by default so production statements
        are never killed by the supervisor; chaos tests shrink it.
    max_task_retries:
        How many times an unfinished task may be re-submitted after an
        infra fault before the fan-out gives up with
        :class:`WorkerPoolError` (→ in-process fallback).
    retry_backoff:
        Base sleep before retry attempt *n* (doubles each attempt).
    faults:
        Optional :class:`~repro.engine.faults.FaultInjector` for
        deterministic chaos testing; ``None`` (production) costs one
        attribute check per dispatch.
    """

    #: Default row floor below which dispatching to workers is not worth it.
    DEFAULT_MIN_DISPATCH_ROWS = 512

    #: Default per-task supervision deadline (seconds).
    DEFAULT_TASK_TIMEOUT = 60.0

    #: Default bounded per-segment retry budget after infra faults.
    DEFAULT_MAX_TASK_RETRIES = 2

    #: Default base backoff before a retry attempt (seconds, doubling).
    DEFAULT_RETRY_BACKOFF = 0.05

    def __init__(
        self,
        num_workers: int,
        *,
        start_method: Optional[str] = None,
        min_dispatch_rows: Optional[int] = None,
        task_timeout: Optional[float] = None,
        max_task_retries: Optional[int] = None,
        retry_backoff: Optional[float] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        if num_workers < 1:
            raise ValidationError("parallel worker count must be at least 1")
        self.num_workers = int(num_workers)
        self.min_dispatch_rows = (
            self.DEFAULT_MIN_DISPATCH_ROWS if min_dispatch_rows is None else int(min_dispatch_rows)
        )
        self.task_timeout = (
            self.DEFAULT_TASK_TIMEOUT if task_timeout is None else float(task_timeout)
        )
        if self.task_timeout <= 0:
            raise ValidationError("task_timeout must be positive")
        self.max_task_retries = (
            self.DEFAULT_MAX_TASK_RETRIES if max_task_retries is None else int(max_task_retries)
        )
        if self.max_task_retries < 0:
            raise ValidationError("max_task_retries must not be negative")
        self.retry_backoff = (
            self.DEFAULT_RETRY_BACKOFF if retry_backoff is None else float(retry_backoff)
        )
        self.faults = faults
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.start_method = start_method
        self._pool: Optional[multiprocessing.pool.Pool] = None
        self._finalizer = None
        self._closed = False
        #: Guards pool creation/respawn/close so serving-layer threads never
        #: race two pools into existence.
        self._pool_mutex = threading.Lock()
        self._counter_lock = threading.Lock()
        #: Cumulative supervision counters (see :meth:`stats`).
        self.counters: Dict[str, int] = {
            "dispatches": 0,
            "tasks": 0,
            "worker_retries": 0,
            "pool_respawns": 0,
            "infra_failures": 0,
            "fallbacks": 0,
            "query_errors": 0,
        }
        #: Per-dispatching-thread record of the most recent fan-out
        #: (retries/respawns/reason) so callers can attribute supervision
        #: work to the statement that paid for it.
        self._report_local = threading.local()

    # -- lifecycle -----------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._pool is not None

    def ensure_started(self) -> None:
        """Start the worker processes now (idempotent, thread-safe).

        Called lazily on the first parallel aggregate, and eagerly by
        :class:`~repro.driver.iteration.IterationController` so iterative
        methods never pay the spawn cost inside a timed iteration.
        """
        if self._pool is not None or self._closed:
            return
        with self._pool_mutex:
            if self._pool is None and not self._closed:
                context = multiprocessing.get_context(self.start_method)
                self._pool = context.Pool(self.num_workers, initializer=_worker_initializer)
                self._finalizer = weakref.finalize(self, _terminate_pool, self._pool)

    def close(self) -> None:
        """Shut the workers down (idempotent); the pool cannot be restarted."""
        with self._pool_mutex:
            self._closed = True
            pool, self._pool = self._pool, None
            if self._finalizer is not None:
                self._finalizer.detach()
                self._finalizer = None
        if pool is not None:
            _terminate_pool(pool)

    def respawn(self) -> None:
        """Terminate and recreate the worker processes (supervision restart).

        Reclaims hung worker slots (a sleeping fork occupies a pool slot
        forever; ``Pool`` only repopulates workers that *died*).  Outstanding
        results from the old pool never arrive — their dispatch loops hit
        the per-task deadline and retry on the fresh pool.
        """
        with self._pool_mutex:
            pool, self._pool = self._pool, None
            if self._finalizer is not None:
                self._finalizer.detach()
                self._finalizer = None
            if pool is None or self._closed:
                return
            with self._counter_lock:
                self.counters["pool_respawns"] += 1
        _terminate_pool(pool)
        self.ensure_started()

    # -- supervision ---------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """A snapshot of the cumulative supervision counters."""
        with self._counter_lock:
            return dict(self.counters)

    def consume_dispatch_report(self) -> Optional[Dict[str, Any]]:
        """The calling thread's most recent fan-out report, cleared on read.

        ``{"worker_retries", "pool_respawns", "fallback_reason"}`` — the
        executor copies these onto the statement's ``ExecutionStats`` so a
        retried or fallen-back statement is visible in EXPLAIN ANALYZE and
        the serving stats, attributed to the statement that paid the cost.
        """
        report = getattr(self._report_local, "value", None)
        self._report_local.value = None
        return report

    def _set_report(
        self, retries: int, respawns: int, reason: Optional[str] = None
    ) -> None:
        if retries or respawns or reason is not None:
            self._report_local.value = {
                "worker_retries": retries,
                "pool_respawns": respawns,
                "fallback_reason": reason,
            }
        else:
            self._report_local.value = None

    def _count(self, key: str, amount: int = 1) -> None:
        with self._counter_lock:
            self.counters[key] += amount

    def _probe_fault(self, site: str):
        injector = self.faults
        return injector.probe(site) if injector is not None else None

    def _task_directive(self) -> Optional[tuple]:
        """The coordinator-decided fault directive for one task (chaos only)."""
        fault = self._probe_fault("parallel.task")
        if fault is None:
            return None
        if fault.kind == WORKER_CRASH:
            return ("crash",)
        if fault.kind == WORKER_HANG:
            return ("hang", fault.delay)
        if fault.kind == SLOW_WORKER:
            return ("slow", fault.delay)
        return None

    def _attempt(
        self,
        tasks: Sequence[tuple],
        pending: List[int],
        results: List[Any],
        done: List[bool],
    ) -> None:
        """One dispatch attempt over the unfinished tasks.

        Fills ``results``/``done`` for every task whose result arrives in
        time; raises :class:`_InfraFailure` on the first infra fault (later
        pending tasks stay marked unfinished for the retry), re-raises the
        first query error unchanged.
        """
        pool = self._pool
        if pool is None:
            raise _InfraFailure("pool_closed", False)
        fault = self._probe_fault("parallel.dispatch")
        if fault is not None and fault.kind == PICKLE_ERROR:
            raise _InfraFailure(PICKLE_ERROR, False)
        handles = [
            (
                index,
                pool.apply_async(_fold_segment_task, ((self._task_directive(),) + tasks[index],)),
            )
            for index in pending
        ]
        # Tasks queue when a fan-out is wider than the pool; give each wave
        # of ``num_workers`` tasks its own deadline slice.
        waves = -(-len(pending) // self.num_workers)
        deadline = time.monotonic() + self.task_timeout * max(1, waves)
        for index, handle in handles:
            remaining = deadline - time.monotonic()
            try:
                results[index] = handle.get(timeout=max(remaining, 0.001))
                done[index] = True
            except multiprocessing.TimeoutError:
                raise _InfraFailure("worker_lost", True) from None
            except Exception as exc:
                reason, retryable = classify_failure(exc)
                if reason is None:
                    self._count("query_errors")
                    raise  # the query's own error: byte-identical passthrough
                raise _InfraFailure(reason, retryable) from exc

    def _dispatch(self, tasks: Sequence[tuple]) -> List[Any]:
        """Supervised fan-out: per-task results in task order.

        Retries unfinished tasks (respawning the pool first) up to
        ``max_task_retries`` times with exponential backoff; raises
        :class:`WorkerPoolError` when infra faults win, re-raises query
        errors unchanged.  Completed tasks are never re-run — retry is per
        segment, not per fan-out.
        """
        count = len(tasks)
        results: List[Any] = [None] * count
        done = [False] * count
        retries = 0
        respawns = 0
        self._count("dispatches")
        self._count("tasks", count)
        for attempt in range(self.max_task_retries + 1):
            pending = [index for index in range(count) if not done[index]]
            if attempt:
                time.sleep(self.retry_backoff * (2 ** (attempt - 1)))
                retries += len(pending)
                self._count("worker_retries", len(pending))
            try:
                self._attempt(tasks, pending, results, done)
                self._set_report(retries, respawns)
                return results
            except _InfraFailure as failure:
                self._count("infra_failures")
                if failure.retryable and not self._closed:
                    self.respawn()
                    respawns += 1
                if not failure.retryable or attempt == self.max_task_retries:
                    self._count("fallbacks")
                    self._set_report(retries, respawns, failure.reason)
                    raise WorkerPoolError(
                        failure.reason, retries=retries, respawns=respawns
                    ) from None

    # -- execution -------------------------------------------------------------

    def run_aggregate(
        self,
        definition: AggregateDefinition,
        segment_streams: Sequence[Any],
    ) -> Optional[Tuple[List[Any], List[float], float]]:
        """Fold every segment stream in the worker pool.

        Returns ``(partial_states, per_segment_seconds, wall_seconds)`` where
        ``per_segment_seconds`` are measured *inside* the workers (the fold
        itself) and ``wall_seconds`` is the coordinator-observed elapsed time
        for the whole fan-out — dispatch, folds and IPC included.  Returns
        ``None`` when this aggregate cannot be shipped (non-picklable UDA) or
        the pool is closed, in which case the caller folds in-process.
        Raises :class:`WorkerPoolError` when supervision exhausted its
        retries (the caller falls back with the reason recorded), and
        re-raises worker-side query errors unchanged.
        """
        if self._closed:
            return None
        if sum(len(stream) for stream in segment_streams) < self.min_dispatch_rows:
            return None
        spec = shippable_spec(definition)
        if spec is None:
            return None
        self.ensure_started()
        tasks = [(spec, stream) for stream in segment_streams]
        start = time.perf_counter()
        results = self._dispatch(tasks)
        wall = time.perf_counter() - start
        states = [state for state, _ in results]
        seconds = [elapsed for _, elapsed in results]
        return states, seconds, wall

    def __enter__(self) -> "SegmentWorkerPool":
        self.ensure_started()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "closed" if self._closed else ("started" if self.started else "idle")
        return f"SegmentWorkerPool(num_workers={self.num_workers}, {state})"
