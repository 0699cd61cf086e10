"""Seeded chaos harness: concurrent clients vs an injected-fault server.

The fault-tolerance layer's acceptance test is not "the happy path still
works" but "under crashes, hangs, truncated responses and vanishing
clients, every statement either succeeds or fails *typed*, and the
committed data is exactly what the acknowledgements promise".  This module
drives that experiment end to end so both the test suite
(``tests/serving/test_chaos.py``) and the benchmark
(``benchmarks/bench_chaos.py``) run the identical workload:

1. Build a :class:`~repro.engine.database.Database` (parallel worker pool)
   and a :class:`~repro.engine.serving.ServerThread`, both wired to one
   seeded :class:`~repro.engine.faults.FaultInjector`.
2. Run N client threads, each owning a disjoint key range, issuing a
   seeded mix of INSERT/UPDATE/DELETE/SELECT (aggregates go through the
   worker pool, where crashes and hangs fire) plus deliberate query
   errors.  Clients honour ``retry_after_ms`` on BUSY, reconnect on broken
   connections, and record every write as *acked*, *failed* (typed error
   before execution) or *in doubt* (TIMEOUT, truncated response, or a
   chaos-injected disconnect — the statement may or may not have
   committed).
3. Check the invariants: the run finishes (no deadlock), the drain
   completes, the readers/writer lock ends idle (no leak), every table's
   ``_data_version`` only ever moved forward, no response carried an
   ``INTERNAL`` or ``SNAPSHOT_VIOLATION`` code, and the final table
   contents are consistent with *some* commit/abort resolution of the
   in-doubt writes given that acked writes applied exactly once and typed
   failures not at all.
4. Replay the resolved write sequence on a fresh fault-free database and
   require the final table dump to be **byte-identical** — an acknowledged
   write that was silently dropped, applied twice (a retry bug), or
   corrupted in flight cannot survive this comparison.

Disjoint key ranges make the comparison exact without having to control
thread interleavings: each key's history is one client's *ordered*
statement sequence, so commit-or-not per in-doubt write is the only
degree of freedom (searched exhaustively; in-doubt writes are rare).
"""

from __future__ import annotations

import itertools
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .database import Database
from .faults import (
    CLIENT_STALL,
    PICKLE_ERROR,
    WIRE_TRUNCATE,
    WORKER_CRASH,
    WORKER_HANG,
    FaultInjector,
)
from .serving import ServerThread, ServingClient

__all__ = ["ChaosReport", "default_fault_injector", "run_chaos"]

#: Error codes a chaos statement is allowed to fail with.  ``INTERNAL``
#: (an unclassified crash) and ``SNAPSHOT_VIOLATION`` (broken isolation)
#: are never acceptable.
_FORBIDDEN_CODES = frozenset({"INTERNAL", "SNAPSHOT_VIOLATION"})

#: Rows present before any client connects, so aggregates always have work.
_SEED_ROWS = 64
_SEED_OWNER = -1


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


@dataclass
class ChaosReport:
    """Everything one seeded chaos run observed, plus the verdict."""

    seed: int
    statements: int = 0
    acked_writes: int = 0
    failed_writes: int = 0
    in_doubt_writes: int = 0
    reads: int = 0
    busy_retries: int = 0
    reconnects: int = 0
    typed_errors: Dict[str, int] = field(default_factory=dict)
    faults_fired: Dict[str, int] = field(default_factory=dict)
    drained: bool = False
    lock_idle: bool = False
    versions_monotone: bool = True
    replay_identical: bool = False
    #: After the run drains: the materialized view's finalized contents are
    #: byte-identical to re-running its defining query (no half-applied
    #: deltas survive fault-injected writes).
    matview_consistent: bool = False
    server_stats: Dict[str, Any] = field(default_factory=dict)
    pool_stats: Optional[Dict[str, int]] = None
    elapsed_seconds: float = 0.0
    #: Invariant violations, human-readable; empty means the run passed.
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            not self.errors
            and self.drained
            and self.lock_idle
            and self.versions_monotone
            and self.replay_identical
            and self.matview_consistent
        )

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return (
            f"seed {self.seed}: {verdict} — {self.statements} stmts, "
            f"{self.acked_writes} acked / {self.in_doubt_writes} in-doubt / "
            f"{self.failed_writes} failed writes, "
            f"{sum(self.faults_fired.values())} faults "
            f"({', '.join(f'{k}={v}' for k, v in sorted(self.faults_fired.items())) or 'none'}), "
            f"{self.reconnects} reconnects, {self.elapsed_seconds:.1f}s"
        )


# ---------------------------------------------------------------------------
# Fault profile
# ---------------------------------------------------------------------------


def default_fault_injector(seed: int) -> FaultInjector:
    """The standard chaos arsenal: every documented site, modest rates.

    Firing counts are bounded so one seed stays within a few seconds of
    wall clock (each ``worker_hang`` costs one per-task deadline).
    """
    return (
        FaultInjector(seed)
        .arm("parallel.task", WORKER_CRASH, rate=0.12, max_fires=2)
        .arm("parallel.task", WORKER_HANG, rate=0.06, max_fires=1)
        .arm("parallel.dispatch", PICKLE_ERROR, rate=0.05, max_fires=1)
        .arm("serving.send", WIRE_TRUNCATE, rate=0.06, max_fires=3)
        # Client-side sites (probed only by this harness): a stall sleeps
        # before reading the response; delay == 0 means disconnect without
        # reading at all — the cancellation-on-disconnect exercise.
        .arm("client.stall", CLIENT_STALL, rate=0.08, max_fires=3, delay=0.04)
        .arm("client.disconnect", CLIENT_STALL, rate=0.05, max_fires=2, delay=0.0)
    )


# ---------------------------------------------------------------------------
# Client workload
# ---------------------------------------------------------------------------


@dataclass
class _WriteOp:
    """One write statement's ledger entry for the replay comparison."""

    kind: str  # "insert" | "update" | "delete"
    key: int
    value: Optional[int]  # inserted/updated v; None for delete
    status: str  # "acked" | "failed" | "in_doubt"
    sql: str


class _ChaosClient:
    """One client thread's connection, with reconnect and BUSY pacing."""

    def __init__(self, host: str, port: int, report: ChaosReport, lock: threading.Lock):
        self._host = host
        self._port = port
        self._report = report
        self._report_lock = lock
        self._client: Optional[ServingClient] = None

    def _connect(self) -> ServingClient:
        if self._client is None:
            last: Optional[BaseException] = None
            for _ in range(5):
                try:
                    self._client = ServingClient(self._host, self._port, timeout=30.0)
                    break
                except (ConnectionError, OSError) as exc:
                    last = exc
                    time.sleep(0.02)
            else:
                raise ConnectionError(f"could not (re)connect: {last}")
        return self._client

    def _drop(self) -> None:
        """Abrupt teardown: close the raw socket, never send a close frame.

        (``ServingClient.close()`` would perform the polite close op — the
        opposite of the disconnect chaos this harness is injecting.)
        """
        if self._client is not None:
            try:
                # shutdown() emits the FIN immediately; close() alone would
                # wait for the makefile() wrapper's io-ref to be collected.
                self._client._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._client._sock.close()
            except OSError:
                pass
            self._client = None
        with self._report_lock:
            self._report.reconnects += 1

    def execute(self, sql: str, faults: FaultInjector) -> Tuple[str, Any]:
        """Run one statement; ``("ok", reply) | ("error", code) | ("lost", None)``.

        BUSY is retried with the server's ``retry_after_ms`` hint and never
        surfaces (a shed statement was not executed, so retrying is safe
        for writes too).  A broken connection — whether from an injected
        client disconnect, a truncated response, or the transport — returns
        ``"lost"``: the caller must treat a write as in doubt.
        """
        for _ in range(12):
            try:
                client = self._connect()
            except ConnectionError:
                return "lost", None
            disconnect = faults.probe("client.disconnect")
            stall = faults.probe("client.stall")
            try:
                client._write_frame({"op": "query", "sql": sql})
                client._file.flush()
                if disconnect is not None:
                    # Vanish without reading: the server must cancel the
                    # awaiting batch and release the lock on its own.
                    self._drop()
                    return "lost", None
                if stall is not None and stall.delay:
                    time.sleep(stall.delay)
                reply = client._read_frame()
            except (ConnectionError, OSError):
                self._drop()
                return "lost", None
            if reply.get("ok"):
                return "ok", reply
            error = reply.get("error") or {}
            code = error.get("code", "INTERNAL")
            if code == "BUSY":
                with self._report_lock:
                    self._report.busy_retries += 1
                time.sleep(min(error.get("retry_after_ms", 25), 200) / 1000.0)
                continue
            with self._report_lock:
                self._report.typed_errors[code] = (
                    self._report.typed_errors.get(code, 0) + 1
                )
            return "error", code
        return "error", "BUSY"

    def close(self) -> None:
        if self._client is not None:
            try:
                self._client.close()
            except OSError:
                pass
            self._client = None


def _client_worker(
    cid: int,
    seed: int,
    statements: int,
    host: str,
    port: int,
    faults: FaultInjector,
    report: ChaosReport,
    report_lock: threading.Lock,
    ledger: List[_WriteOp],
    failures: List[str],
) -> None:
    """One chaos client: a seeded statement mix over its own key range."""
    rng = random.Random(f"{seed}:client:{cid}")
    client = _ChaosClient(host, port, report, report_lock)
    next_key = cid * 1_000_000
    live_keys: List[int] = []
    try:
        for seq in range(statements):
            roll = rng.random()
            op: Optional[_WriteOp] = None
            if roll < 0.30 or not live_keys:
                key, next_key = next_key, next_key + 1
                sql = f"INSERT INTO chaos VALUES ({key}, {cid}, {seq})"
                op = _WriteOp("insert", key, seq, "in_doubt", sql)
            elif roll < 0.45:
                key = rng.choice(live_keys)
                sql = f"UPDATE chaos SET v = {seq} WHERE k = {key}"
                op = _WriteOp("update", key, seq, "in_doubt", sql)
            elif roll < 0.52:
                key = rng.choice(live_keys)
                sql = f"DELETE FROM chaos WHERE k = {key}"
                op = _WriteOp("delete", key, None, "in_doubt", sql)
            elif roll < 0.80:
                sql = "SELECT count(*), sum(v) FROM chaos"
            elif roll < 0.90:
                # Alternate between the raw grouped aggregate and the
                # materialized view of the same query, so view reads (and
                # their lazy recomputes) interleave with faulted writes.
                if seq % 2:
                    sql = "SELECT c, cnt, total FROM chaos_by_c"
                else:
                    sql = "SELECT c, count(*) FROM chaos GROUP BY c"
            elif roll < 0.95:
                key = rng.choice(live_keys)
                sql = f"SELECT v FROM chaos WHERE k = {key}"
            else:
                sql = "SELECT no_such_column FROM chaos"

            status, payload = client.execute(sql, faults)
            with report_lock:
                report.statements += 1
            if op is None:
                with report_lock:
                    report.reads += 1
                if status == "error" and payload in _FORBIDDEN_CODES:
                    failures.append(f"client {cid} stmt {seq}: {payload} on {sql!r}")
                continue
            if status == "ok":
                op.status = "acked"
            elif status == "error":
                if payload == "TIMEOUT":
                    # The statement thread keeps running after a TIMEOUT
                    # response — it may still commit.
                    op.status = "in_doubt"
                elif payload in _FORBIDDEN_CODES:
                    op.status = "in_doubt"
                    failures.append(f"client {cid} stmt {seq}: {payload} on {sql!r}")
                else:
                    op.status = "failed"
            else:  # lost
                op.status = "in_doubt"
            ledger.append(op)
            if op.kind == "insert" and op.status != "failed":
                live_keys.append(op.key)
            elif op.kind == "delete" and op.status == "acked":
                live_keys.remove(op.key)
    finally:
        client.close()


# ---------------------------------------------------------------------------
# Resolution + replay
# ---------------------------------------------------------------------------


def _simulate(ops: List[_WriteOp], apply_flags: Tuple[bool, ...]) -> Optional[int]:
    """Final ``v`` for one key (``None`` = absent) under one resolution."""
    state: Optional[int] = None
    flag = iter(apply_flags)
    for op in ops:
        applied = op.status == "acked" or (op.status == "in_doubt" and next(flag))
        if not applied:
            continue
        if op.kind == "insert":
            state = op.value
        elif op.kind == "update":
            if state is not None:  # UPDATE of an absent key is a no-op
                state = op.value
        else:
            state = None
    return state


def _resolve_key(ops: List[_WriteOp], observed: Optional[int]) -> Optional[Tuple[bool, ...]]:
    """Find commit flags for the key's in-doubt ops that explain ``observed``."""
    doubt = [op for op in ops if op.status == "in_doubt"]
    flags = [op.status == "in_doubt" for op in ops]
    for combo in itertools.product((True, False), repeat=len(doubt)):
        if _simulate(ops, combo) == observed:
            picks = iter(combo)
            return tuple(next(picks) if d else False for d in flags)
    return None


def _dump(db: Database) -> List[Tuple[Any, ...]]:
    return db.execute("SELECT k, c, v FROM chaos ORDER BY k").rows


# ---------------------------------------------------------------------------
# The harness
# ---------------------------------------------------------------------------


def run_chaos(
    seed: int,
    *,
    clients: int = 4,
    statements_per_client: int = 30,
    parallel: int = 2,
    segments: int = 2,
    faults: Optional[FaultInjector] = None,
    statement_timeout: float = 8.0,
    task_timeout: float = 0.75,
    join_timeout: float = 60.0,
) -> ChaosReport:
    """One seeded chaos run; see the module docstring for the experiment."""
    report = ChaosReport(seed=seed)
    report_lock = threading.Lock()
    injector = default_fault_injector(seed) if faults is None else faults
    started = time.monotonic()

    db = Database(
        segments,
        parallel=parallel,
        plan_cache=64,
        faults=injector,
        parallel_task_timeout=task_timeout,
        parallel_min_dispatch_rows=0,
    )
    db.execute("CREATE TABLE chaos (k INTEGER, c INTEGER, v INTEGER)")
    for i in range(_SEED_ROWS):
        db.execute(f"INSERT INTO chaos VALUES ({10_000_000 + i}, {_SEED_OWNER}, {i})")
    # Point reads by key then answer on the server's event loop, under faults.
    db.execute("CREATE INDEX chaos_k ON chaos (k)")
    # A continuously maintained view over the chaos table: every INSERT folds
    # a delta into its group states, DELETE/UPDATE leave it stale, and the
    # post-drain check asserts its contents still match the defining query.
    db.execute(
        "CREATE MATERIALIZED VIEW chaos_by_c AS "
        "SELECT c, count(*) AS cnt, sum(v) AS total FROM chaos GROUP BY c"
    )

    server = ServerThread(
        db,
        max_concurrent=4,
        max_queue=2 * clients + 4,
        statement_timeout=statement_timeout,
        faults=injector,
    ).start()

    # Sample every table's _data_version while chaos runs; committed writes
    # must only ever move versions forward (reading an int is atomic).
    versions: Dict[str, int] = {}
    sampler_stop = threading.Event()

    def sample_versions() -> None:
        while not sampler_stop.is_set():
            for name in db.catalog.table_names():
                version = db.catalog.get_table(name)._data_version
                if version < versions.get(name, version):
                    report.versions_monotone = False
                versions[name] = version
            time.sleep(0.002)

    sampler = threading.Thread(target=sample_versions, daemon=True)
    sampler.start()

    ledgers: List[List[_WriteOp]] = [[] for _ in range(clients)]
    failures: List[str] = []
    threads = [
        threading.Thread(
            target=_client_worker,
            args=(
                cid, seed, statements_per_client, server.host, server.port,
                injector, report, report_lock, ledgers[cid], failures,
            ),
            daemon=True,
        )
        for cid in range(clients)
    ]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + join_timeout
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    stuck = [t for t in threads if t.is_alive()]
    if stuck:
        failures.append(f"deadlock: {len(stuck)} client thread(s) still running "
                        f"after {join_timeout}s")
    sampler_stop.set()
    sampler.join(timeout=5.0)

    report.drained = server.stop(drain_timeout=30.0)
    report.lock_idle = server.server._lock.idle
    report.server_stats = server.server.stats.as_dict()
    pool = db._worker_pool
    report.pool_stats = None if pool is None else pool.stats()
    for fault in injector.history():
        report.faults_fired[fault.kind] = report.faults_fired.get(fault.kind, 0) + 1
    report.errors.extend(failures)

    for ledger in ledgers:
        for op in ledger:
            if op.status == "acked":
                report.acked_writes += 1
            elif op.status == "failed":
                report.failed_writes += 1
            else:
                report.in_doubt_writes += 1

    if not stuck:
        report.matview_consistent = _check_matview(db, report.errors)
        report.replay_identical = _check_replay(db, ledgers, report.errors)
    db.close()
    report.elapsed_seconds = time.monotonic() - started
    return report


def _check_matview(db: Database, errors: List[str]) -> bool:
    """View/base-table consistency after the run drains.

    Whatever subset of in-doubt writes actually committed, the view's
    finalized contents must be byte-identical to re-running its defining
    query — a half-applied delta (states folded for some rows of an insert
    but not others) or a missed invalidation would show up here.
    """
    view_rows = db.execute("SELECT c, cnt, total FROM chaos_by_c").rows
    direct_rows = db.execute(
        "SELECT c, count(*) AS cnt, sum(v) AS total FROM chaos GROUP BY c"
    ).rows
    if repr(view_rows) != repr(direct_rows):
        errors.append(
            "matview chaos_by_c diverged from its defining query: "
            f"view={view_rows[:4]!r}... direct={direct_rows[:4]!r}..."
        )
        return False
    return True


def _check_replay(
    db: Database, ledgers: List[List[_WriteOp]], errors: List[str]
) -> bool:
    """Resolve in-doubt writes against the observed final state and replay.

    Returns whether a fault-free replay of the resolved write sequence
    produces a byte-identical table dump.
    """
    observed_rows = _dump(db)
    observed: Dict[int, int] = {k: v for k, _c, v in observed_rows}

    replay = Database(plan_cache=0)
    try:
        replay.execute("CREATE TABLE chaos (k INTEGER, c INTEGER, v INTEGER)")
        for i in range(_SEED_ROWS):
            replay.execute(
                f"INSERT INTO chaos VALUES ({10_000_000 + i}, {_SEED_OWNER}, {i})"
            )
        ok = True
        for ledger in ledgers:
            by_key: Dict[int, List[_WriteOp]] = {}
            for op in ledger:
                by_key.setdefault(op.key, []).append(op)
            for key, ops in by_key.items():
                resolution = _resolve_key(ops, observed.get(key))
                if resolution is None:
                    history = [(op.kind, op.value, op.status) for op in ops]
                    errors.append(
                        f"key {key}: observed final v={observed.get(key)!r} is "
                        f"unreachable from its write history {history} — an "
                        "acked write was dropped, double-applied, or corrupted"
                    )
                    ok = False
                    continue
                for op, apply in zip(ops, resolution):
                    if op.status == "acked" or apply:
                        replay.execute(op.sql)
        if not ok:
            return False
        chaos_dump = _dump(db)
        replay_dump = _dump(replay)
        if repr(chaos_dump) != repr(replay_dump):
            diff = [
                (a, b) for a, b in itertools.zip_longest(chaos_dump, replay_dump)
                if a != b
            ]
            errors.append(
                f"replay mismatch: {len(diff)} differing row(s), first 3: {diff[:3]}"
            )
            return False
        return True
    finally:
        replay.close()
