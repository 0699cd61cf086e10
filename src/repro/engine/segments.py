"""Shared-nothing segment execution and aggregate timing statistics.

The paper's infrastructure evaluation (Section 4.4, Figures 4 and 5) measures
how the user-defined-aggregate building block scales with the number of
Greenplum *segments* (one query process per core).  Two regimes exist here:

**In-process** (the default, ``Database(parallel=0)``): per-segment
transition folds run one after another on a single core while their
individual wall-clock times are recorded.  ``serial_seconds`` is their sum
plus the merge and final phases (what one segment would pay to scan
everything).  The engine reports what it measured and nothing more; a
projection of the elapsed time a cluster would observe is the benchmark
harness's business (``benchmarks/harness.py``), labelled there as a model.

**Measured parallelism** (``Database(parallel=N)``): per-segment folds really
run concurrently in the persistent worker pool of
:mod:`repro.engine.parallel`, and the timings additionally record
``measured_parallel_wall_seconds`` — the coordinator-observed wall clock of
the whole fan-out (dispatch + folds + IPC) — next to the worker-measured
per-segment fold times.

Per-segment folds run in one of two tiers (see ``docs/engine-execution.md``):
a **batched** tier that hands a segment's argument columns to the
aggregate's ``batch_transition`` kernel in a single call (built-in
aggregates and ``linregr``'s v0.3 kernel define one), and the
**row-at-a-time** fold, which is the fallback for user-defined aggregates,
order-sensitive aggregates (``array_agg``, ``string_agg``) and any batch
kernel that raises.  Both tiers are timed identically — on the coordinator
and inside pool workers — so the per-segment timing methodology is the same
in-process and on the pool.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, List, Optional, Sequence, Union

from .aggregates import AggregateDefinition, AggregateRunner
from .parallel import WorkerPoolError
from .vectorized import ColumnBatch, ConstantColumn, strict_filter_columns

__all__ = [
    "AggregateTimings",
    "ExecutionStats",
    "JoinStep",
    "ScanDetail",
    "SegmentedAggregator",
]


@dataclass
class AggregateTimings:
    """Wall-clock timings for one aggregate executed with the segmented path.

    ``per_segment_seconds`` are always the fold times themselves: measured on
    the coordinator when segments run one after another, measured *inside*
    the workers when the pool executes them.  ``measured_parallel_wall_seconds``
    and ``num_workers`` are populated only when the fan-out really ran in the
    worker pool.
    """

    aggregate_name: str
    per_segment_seconds: List[float] = field(default_factory=list)
    merge_seconds: float = 0.0
    final_seconds: float = 0.0
    rows_per_segment: List[int] = field(default_factory=list)
    #: Coordinator-observed wall clock of the parallel per-segment phase
    #: (dispatch + worker folds + IPC); ``None`` when segments ran in-process.
    measured_parallel_wall_seconds: Optional[float] = None
    #: Worker-pool size that executed the fan-out; ``0`` = in-process.
    num_workers: int = 0
    #: Number of groups this aggregate was evaluated over; ``0`` for a plain
    #: (ungrouped) aggregate.  Grouped statements report one timings object
    #: per aggregate call with the per-group work folded together, so the
    #: per-segment totals stay comparable between grouped and ungrouped
    #: statements.
    num_groups: int = 0
    #: Why the worker-pool fan-out for this aggregate fell back in-process
    #: (``worker_lost``, ``pickle_error``, ...); ``None`` when it ran in the
    #: pool or was never dispatched.  Set only for *infra* faults — query
    #: errors propagate instead of falling back.
    fallback_reason: Optional[str] = None
    #: ``batch_kernel:<ExceptionType>`` when a batch kernel raised and the
    #: row fold took over (results are unaffected); not a pool fault, so it
    #: never reaches ``ExecutionStats.parallel_fallback_reason``.
    batch_fallback_reason: Optional[str] = None
    #: Which tier folded the transition side — ``batch`` (whole-segment
    #: kernel) or ``rows`` — and, for ``rows``, why not the faster one: ``no
    #: batch kernel``, ``below _BATCH_MIN_ROWS``, ``use_batch=False`` or the
    #: ``batch_fallback_reason``.
    fold_tier: Optional[str] = None
    fold_decline_reason: Optional[str] = None
    #: Supervision work this aggregate's fan-out(s) paid for: task
    #: re-submissions after infra faults, and full pool respawns.
    worker_retries: int = 0
    pool_respawns: int = 0

    @property
    def num_segments(self) -> int:
        return len(self.per_segment_seconds)

    def accumulate(self, other: "AggregateTimings") -> None:
        """Fold one group's timings into this statement-level accumulator.

        Per-segment fold times add elementwise (segment *i*'s total transition
        work across all groups), merge/final phases add, and ``num_groups``
        counts the contributions.  Groups never fold on the worker pool, so
        there is no measured wall clock to add.
        """
        if len(other.per_segment_seconds) > len(self.per_segment_seconds):
            grow = len(other.per_segment_seconds) - len(self.per_segment_seconds)
            self.per_segment_seconds.extend([0.0] * grow)
            self.rows_per_segment.extend([0] * grow)
        for i, seconds in enumerate(other.per_segment_seconds):
            self.per_segment_seconds[i] += seconds
        for i, rows in enumerate(other.rows_per_segment):
            self.rows_per_segment[i] += rows
        self.merge_seconds += other.merge_seconds
        self.final_seconds += other.final_seconds
        self.num_groups += 1
        self.batch_fallback_reason = self.batch_fallback_reason or other.batch_fallback_reason
        if self.fold_tier != "batch":  # any group on the batch tier makes the call "batch"
            self.fold_tier, self.fold_decline_reason = other.fold_tier, other.fold_decline_reason

    @property
    def executed_parallel(self) -> bool:
        """True when the per-segment folds really ran in worker processes."""
        return self.measured_parallel_wall_seconds is not None

    @property
    def serial_seconds(self) -> float:
        """Total transition time: what a single segment would have spent."""
        return sum(self.per_segment_seconds) + self.merge_seconds + self.final_seconds

    @property
    def measured_parallel_seconds(self) -> Optional[float]:
        """Measured elapsed time of the aggregate under real parallelism.

        Wall clock of the worker-pool fan-out plus the coordinator-side merge
        and final phases; ``None`` when the aggregate did not run in the pool.
        """
        if self.measured_parallel_wall_seconds is None:
            return None
        return self.measured_parallel_wall_seconds + self.merge_seconds + self.final_seconds

    @property
    def measured_speedup(self) -> Optional[float]:
        """Serial fold time over measured parallel elapsed time.

        The denominator is real wall clock, but the numerator sums fold times
        measured *inside concurrently running workers*, which contention
        (cache, memory bandwidth, SMT) can inflate relative to a genuinely
        serial run — so this ratio is an upper bound on the true speedup.
        For an unbiased number time a separate serial execution of the same
        query, as ``bench_engine_micro.py --workers`` does.
        """
        measured = self.measured_parallel_seconds
        if measured is None or measured == 0.0:
            return None
        return self.serial_seconds / measured


@dataclass
class ScanDetail:
    """One base-relation scan as executed (backs EXPLAIN ANALYZE scan nodes)."""

    source: str  #: table name (or function/subquery/view alias)
    access: str  #: ``seq`` | ``index`` | ``subquery`` | ``function`` | ``matview``
    #: Rows actually touched: the full relation for a sequential scan, only
    #: the probe results for an index scan.
    rows_touched: int = 0
    #: The planner's cardinality estimate for this scan, when one was made.
    estimated_rows: Optional[float] = None
    index_name: Optional[str] = None
    index_condition: Optional[str] = None
    #: True when the scan's WHERE ran as a bitmap over packed columns
    #: (columnar vectorized path) rather than a per-row predicate.
    vectorized: bool = False


@dataclass
class JoinStep:
    """One executed join step (strategy + cardinalities) in execution order."""

    strategy: str
    rows_emitted: int = 0
    estimated_rows: Optional[float] = None


@dataclass
class ExecutionStats:
    """Statistics attached to a :class:`~repro.engine.result.ResultSet`."""

    statement_kind: str = "select"
    #: Base rows *touched* by the statement's sources.  For multi-source FROM
    #: lists this is the *sum of per-source base-table rows* (see
    #: ``rows_scanned_per_source``), never the size of a join product — the
    #: old accounting counted post-product rows, which made a 100×100
    #: Cartesian product look like a 10,000-row scan.  An index scan counts
    #: only the rows its probe returned, not the whole table; compare with
    #: :attr:`rows_matched` for the WHERE-survivor count.
    rows_scanned: int = 0
    #: Rows that survived the statement's WHERE stage (before grouping /
    #: DISTINCT / LIMIT); for UPDATE and DELETE, the affected-row count.
    #: ``None`` for statements with no row-matching stage.  Splitting this
    #: from ``rows_scanned`` keeps EXPLAIN ANALYZE honest: an index scan
    #: touches few rows (``rows_scanned``) while a sequential scan touches
    #: all of them for the same ``rows_matched``.
    rows_matched: Optional[int] = None
    #: One entry per FROM source in scan order: base-table rows for table
    #: scans, produced rows for subqueries and table functions.
    rows_scanned_per_source: List[int] = field(default_factory=list)
    #: Per-scan access-path records in scan order (EXPLAIN ANALYZE's source
    #: of truth for which plan actually ran).
    scan_details: List[ScanDetail] = field(default_factory=list)
    #: Per-join-step records in execution order.
    join_steps: List[JoinStep] = field(default_factory=list)
    #: Comma-joined strategy labels, one per executed join step, in execution
    #: order: ``hash`` (build right, probe left), ``hash_reversed`` (build
    #: left), ``nested_loop`` (non-equi or uncompilable condition), ``cross``
    #: (Cartesian step).  ``None`` when the statement joined nothing.
    join_strategy: Optional[str] = None
    #: Total rows emitted by all join steps (intermediate steps included).
    join_rows_emitted: int = 0
    aggregate_timings: List[AggregateTimings] = field(default_factory=list)
    planning_seconds: float = 0.0
    total_seconds: float = 0.0
    #: True when the statement's WHERE clause was evaluated segment-at-a-time
    #: as selection bitmaps over packed columns (columnar vectorized path)
    #: instead of a per-row predicate — SELECT scans, bitmap DELETE, and
    #: bitmap UPDATE all set it.
    where_vectorized: bool = False
    #: Fraction of bitmap-scanned rows the WHERE selected (popcount / bitmap
    #: width); ``None`` when the WHERE did not run vectorized.
    bitmap_selectivity: Optional[float] = None
    #: Why a worker-pool fan-out of this statement fell back in-process
    #: (first infra fault reason: ``worker_lost``, ``pickle_error``,
    #: ``ipc_broken``, ...); ``None`` when nothing fell back.  Query errors
    #: never set this — they propagate.
    parallel_fallback_reason: Optional[str] = None
    #: Supervision work the statement's fan-outs paid for: per-segment task
    #: re-submissions after infra faults, and full worker-pool respawns.
    worker_retries: int = 0
    pool_respawns: int = 0
    #: Which phase one a GROUP BY ran — ``columnar`` (group ids from packed /
    #: dictionary key columns), ``partitioned`` (ids from key values computed
    #: per column) or ``rows`` (the reference tier's row loop, under
    #: ``tests/``) — and which ORDER BY ran:
    #: ``columnar-topk``, ``heap`` or ``sort``.  Each ``*_decline_reason``
    #: names the first guard that refused the faster one.
    group_strategy: Optional[str] = None
    group_decline_reason: Optional[str] = None
    order_strategy: Optional[str] = None
    order_decline_reason: Optional[str] = None
    #: Materialized-view maintenance this statement performed: incremental
    #: views that absorbed an INSERT delta by folding only the new rows into
    #: their group states (O(delta) upkeep) ...
    matview_deltas_applied: int = 0
    #: ... versus full recomputes of a view's contents (REFRESH, or a read of
    #: a view left stale by DELETE/UPDATE/TRUNCATE).
    matview_recomputes: int = 0

    def note_parallel_fallback(
        self, reason: Optional[str], retries: int = 0, respawns: int = 0
    ) -> None:
        """Record supervision work (first fallback reason wins)."""
        if reason is not None and self.parallel_fallback_reason is None:
            self.parallel_fallback_reason = reason
        self.worker_retries += retries
        self.pool_respawns += respawns

    def record_join(
        self, strategy: str, rows_emitted: int, estimated_rows: Optional[float] = None
    ) -> None:
        """Record one executed join step (strategy label + emitted rows)."""
        self.join_strategy = (
            strategy if self.join_strategy is None else f"{self.join_strategy},{strategy}"
        )
        self.join_rows_emitted += rows_emitted
        self.join_steps.append(JoinStep(strategy, rows_emitted, estimated_rows))

    @property
    def executed_parallel(self) -> bool:
        """True when any aggregate of this statement ran on the worker pool."""
        return any(t.executed_parallel for t in self.aggregate_timings)

    @property
    def measured_parallel_seconds(self) -> Optional[float]:
        """Sum of measured parallel aggregate times, or None if none ran
        in the pool."""
        measured = [
            t.measured_parallel_seconds
            for t in self.aggregate_timings
            if t.measured_parallel_seconds is not None
        ]
        if not measured:
            return None
        return sum(measured)


class SegmentedAggregator:
    """Runs an aggregate over per-segment argument streams, recording timings.

    This is the execution-side counterpart of
    :class:`~repro.engine.aggregates.AggregateRunner`: same semantics, but it
    times every phase so the Figure 4 / Figure 5 harness can report
    per-segment numbers.
    """

    def __init__(self, definition: AggregateDefinition, *, use_batch: bool = True) -> None:
        self.definition = definition
        self.runner = AggregateRunner(definition)
        #: When false every fold is row-at-a-time: the seam the reference
        #: executor under ``tests/`` and the batch-kernel suites use to
        #: compare the two fold tiers (in-process only; workers batch).
        self.use_batch = use_batch
        #: ``batch_kernel:<ExceptionType>`` once a batch kernel has raised and
        #: the row fold took over (results are unaffected).
        self.batch_fallback_reason: Optional[str] = None

    # -- per-segment folds ---------------------------------------------------

    #: Below this many rows the batch machinery (strict filter, kernel
    #: dispatch) costs more than a plain fold — e.g. high-cardinality
    #: GROUP BY produces thousands of single-row streams.
    _BATCH_MIN_ROWS = 8

    def _fold_batch(self, columns: Sequence[Sequence[Any]], length: int, prefiltered: bool) -> Any:
        """One batch-kernel call over a segment's argument columns."""
        definition = self.definition
        state = definition.make_state()
        if length == 0:
            return state
        if definition.strict and not prefiltered:
            columns, length = strict_filter_columns(columns)
            if length == 0:
                return state
        return definition.batch_transition(state, *columns)

    def _batches(self, length: int) -> bool:
        """Whether a stream of ``length`` rows takes the batched tier."""
        return (
            self.use_batch
            and self.definition.batch_transition is not None
            and length >= self._BATCH_MIN_ROWS
        )

    def note_tier(self, timings: AggregateTimings, longest: int) -> None:
        """Record on ``timings`` which tier folds a call whose longest stream
        has ``longest`` rows, and the first guard that refused the batch one."""
        timings.batch_fallback_reason = reason = self.batch_fallback_reason
        if not self.use_batch:
            reason = "use_batch=False"
        elif self.definition.batch_transition is None:
            reason = "no batch kernel"
        elif longest < self._BATCH_MIN_ROWS:
            reason = "below _BATCH_MIN_ROWS"
        timings.fold_tier = "batch" if reason is None else "rows"
        timings.fold_decline_reason = reason

    def _fold_columns(
        self, columns: Sequence[Sequence[Any]], length: int, prefiltered: bool = False
    ) -> Any:
        """Fold ``length`` rows given as argument columns: batched tier when
        available, row tier otherwise.  ``prefiltered`` marks columns known
        NULL-free (no strict NULL test needed)."""
        if self._batches(length):
            try:
                return self._fold_batch(columns, length, prefiltered)
            except Exception as exc:
                # A failing batch kernel (ragged arrays, unsupported operand
                # types) must not change which queries succeed.
                self.batch_fallback_reason = f"batch_kernel:{type(exc).__name__}"
        rows = zip(*columns) if columns else [()] * length
        return self.runner.fold(rows, prefiltered=prefiltered)

    def _fold_stream(self, stream: Union[ColumnBatch, List[Sequence[Any]]]) -> Any:
        """Fold one segment's stream (a column batch, or argument tuples)."""
        if isinstance(stream, ColumnBatch):
            return self._fold_columns(stream.columns, stream.length, stream.prefiltered)
        if self._batches(len(stream)):
            return self._fold_columns(tuple(list(c) for c in zip(*stream)), len(stream))
        return self.runner.fold(stream)

    @staticmethod
    def _concatenate(
        segment_streams: Sequence[Union[ColumnBatch, List[Sequence[Any]]]]
    ) -> Union[ColumnBatch, List[Sequence[Any]]]:
        """Fuse all segment streams into one, in segment order."""
        streams = [stream for stream in segment_streams if len(stream)]
        if streams and all(isinstance(stream, ColumnBatch) for stream in streams):
            width = len(streams[0].columns)
            if all(len(stream.columns) == width for stream in streams):

                def fused(parts: Sequence[Sequence[Any]]) -> Sequence[Any]:
                    if all(isinstance(part, ConstantColumn) for part in parts):
                        # One plan-time constant on every segment stays one.
                        return ConstantColumn(parts[0].value, sum(map(len, parts)))
                    return [value for part in parts for value in part]

                return ColumnBatch(
                    tuple(fused([stream.columns[i] for stream in streams]) for i in range(width)),
                    prefiltered=all(stream.prefiltered for stream in streams),
                )
        all_rows: List[Sequence[Any]] = []
        for stream in streams:
            all_rows.extend(stream.rows() if isinstance(stream, ColumnBatch) else stream)
        return all_rows

    def run(
        self,
        segment_streams: Sequence[Union[ColumnBatch, List[Sequence[Any]]]],
        *,
        pool=None,
    ) -> tuple:
        """Execute and return ``(value, AggregateTimings)``.

        Each stream is one segment's argument rows — either a list of
        argument tuples or a :class:`~repro.engine.vectorized.ColumnBatch`
        sliced straight from a table's columnar view.  One stream, or an
        aggregate with no merge function, folds as a single transition
        stream (the segments fused in order).

        ``pool`` is an optional :class:`~repro.engine.parallel.
        SegmentWorkerPool`; when given (and the aggregate is mergeable and
        shippable) the per-segment folds run concurrently in worker
        processes — real two-phase aggregation — and the timings carry the
        measured fan-out wall clock.  Any aggregate the pool cannot execute
        (non-picklable UDA) silently folds in-process instead, so the pool
        never changes which queries succeed or what they return.
        """
        timings = AggregateTimings(aggregate_name=self.definition.name)
        if not self.definition.supports_parallel or len(segment_streams) <= 1:
            combined = self._concatenate(segment_streams)
            start = time.perf_counter()
            state = self._fold_stream(combined)
            timings.per_segment_seconds = [time.perf_counter() - start]
            timings.rows_per_segment = [len(combined)]
            longest = len(combined)
        else:
            longest = max(len(stream) for stream in segment_streams)
            states = None
            if pool is not None:
                try:
                    outcome = pool.run_aggregate(self.definition, segment_streams)
                except WorkerPoolError as exc:
                    # Infra faults only (dead/hung workers, IPC pickling) —
                    # supervision already retried; refold in-process and
                    # record why.  Query errors raised by the transition
                    # itself propagate out of this call byte-identical to
                    # the in-process tier: they are never retried or masked.
                    timings.fallback_reason = exc.reason
                    timings.worker_retries = exc.retries
                    timings.pool_respawns = exc.respawns
                    outcome = None
                if outcome is not None:
                    report = pool.consume_dispatch_report()
                    if report is not None:
                        # Succeeded, but only after supervision stepped in.
                        timings.worker_retries = report["worker_retries"]
                        timings.pool_respawns = report["pool_respawns"]
                    states, per_segment, wall = outcome
                    timings.per_segment_seconds = per_segment
                    timings.rows_per_segment = [len(s) for s in segment_streams]
                    timings.measured_parallel_wall_seconds = wall
                    timings.num_workers = pool.num_workers
            if states is None:
                states = []
                for stream in segment_streams:
                    start = time.perf_counter()
                    states.append(self._fold_stream(stream))
                    timings.per_segment_seconds.append(time.perf_counter() - start)
                    timings.rows_per_segment.append(len(stream))
            start = time.perf_counter()
            state = self.runner.merge_states(states)
            timings.merge_seconds = time.perf_counter() - start
        start = time.perf_counter()
        value = self.definition.finalize(state)
        timings.final_seconds = time.perf_counter() - start
        self.note_tier(timings, longest)
        return value, timings
