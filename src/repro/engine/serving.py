"""The concurrent serving layer: a TCP front door for a :class:`Database`.

"Architecture of a Database System" (Hellerstein, Stonebraker & Hamilton)
opens with the components every DBMS grows around its query processor: a
process/session model, admission control, prepared statements and a shared
plan cache.  This module is that front door for our engine — the piece that
turns the single-caller in-process :class:`~repro.engine.database.Database`
into a server many clients can hit at once.

Wire protocol (see ``docs/serving.md`` for the full specification)
------------------------------------------------------------------

Length-prefixed JSON frames: every message is a 4-byte big-endian unsigned
length followed by that many bytes of UTF-8 JSON.  Requests are objects with
an ``op`` field:

``connect``                     → ``{ok, session, version}``
``query   {sql, params?}``      → ``{ok, columns, rows, rowcount}``
``prepare {sql}``               → ``{ok, handle, params}``
``execute {handle, params?}``   → ``{ok, columns, rows, rowcount}``
``stats``                       → ``{ok, server, plan_cache}``
``close``                       → ``{ok}`` and the connection closes

Failures are ``{ok: false, error: {code, message}}`` with a typed ``code``
(``SYNTAX``, ``CATALOG``, ``BUSY``, ``TIMEOUT``, ``PROTOCOL``, ...); the
session survives every error except a broken frame boundary (truncated or
oversized frame), which closes the connection.

Concurrency model
-----------------

A coarse FIFO-fair readers/writer lock guards the database: any number of
read statements (SELECT, plain EXPLAIN) run concurrently on a thread pool,
while a write statement (DML, DDL, ANALYZE) excludes everything else.  Read
statements additionally capture every table's ``_data_version`` before and
after execution and raise ``SNAPSHOT_VIOLATION`` if the two differ — the
lock makes that impossible by construction, so the validation is a live
assertion that the isolation actually holds (the concurrency stress suite
leans on it).  One read skips the pool: a cached index-equality plan
matching at most ``INLINE_MAX_ROWS`` rows runs on the event loop itself
when no writer holds or awaits the lock (``DatabaseServer._answer_inline``).

Admission control is a bounded counter: at most ``max_concurrent`` admitted
statements run at once and at most ``max_queue`` more may wait; past that
the server *sheds* the statement with a typed ``BUSY`` error (carrying a
``retry_after_ms`` hint sized to the backlog) instead of letting latency
grow without bound.  Each statement also gets a ``statement_timeout``; on
expiry the client receives ``TIMEOUT`` while the abandoned thread keeps the
lock until the statement actually finishes (a Python thread cannot be
killed), so isolation is never compromised.

Resilience (see ``docs/robustness.md``)
---------------------------------------

A client that disconnects mid-statement no longer strands its batch: the
connection loop races socket reads against the in-flight batch, and EOF
cancels the *await* (the statement thread runs to completion and the
readers/writer lock is released by its done-callback, exactly as on
timeout — the lock can never leak to a vanished client).  ``stop()``
performs a graceful drain — stop accepting, finish in-flight batches,
bounded by ``drain_timeout`` — and reports whether the drain completed.
A :class:`~repro.engine.faults.FaultInjector` can be wired to the
``serving.send`` site to truncate response frames mid-write, which is how
the chaos harness (``tests/serving/test_chaos.py``) creates in-doubt
acknowledgements.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import threading
from collections import deque
from concurrent.futures import Future as ThreadFuture
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Deque, Dict, List, NamedTuple, Optional, Tuple

from .. import __version__
from ..errors import (
    CatalogError,
    ExecutionError,
    FunctionError,
    MethodError,
    ReproError,
    SQLSyntaxError,
    TypeMismatchError,
    ValidationError,
)
from .database import Database, PreparedStatement
from .faults import WIRE_TRUNCATE, FaultInjector
from .parser import parse_statement
from .parser.lexer import tokenize
from .plancache import CachedPlan, PlanCache, normalize_statement, statement_is_read_only
from .result import ResultSet

__all__ = [
    "ServingError",
    "ProtocolError",
    "ServerBusyError",
    "StatementTimeoutError",
    "SnapshotViolationError",
    "RemoteError",
    "ReadWriteLock",
    "ServerStats",
    "Session",
    "DatabaseServer",
    "ServerThread",
    "ServingClient",
    "error_code_for",
]

_HEADER = struct.Struct(">I")

#: Sentinel distinguishing "argument omitted" from an explicit ``None``
#: (``stop(drain_timeout=None)`` means wait forever).
_UNSET: Any = object()

#: Default cap on one frame's JSON body.  Large enough for bulk INSERTs and
#: wide result sets, small enough that a garbage length prefix cannot make
#: the server try to buffer gigabytes.
DEFAULT_MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Most rows an index probe may match and still run on the event loop, so
#: the loop never runs unbounded work; a larger one goes to a worker thread.
INLINE_MAX_ROWS = 64


# ---------------------------------------------------------------------------
# Typed errors
# ---------------------------------------------------------------------------


class ServingError(ReproError):
    """Base class for serving-layer failures; ``code`` goes over the wire."""

    code = "SERVING"


class ProtocolError(ServingError):
    """The client sent something that is not a well-formed request.

    ``fatal`` marks violations after which the frame boundary cannot be
    trusted (oversized declared length) — the server answers and then closes
    the connection.
    """

    code = "PROTOCOL"

    def __init__(self, message: str, *, fatal: bool = False) -> None:
        super().__init__(message)
        self.fatal = fatal


class ServerBusyError(ServingError):
    """Admission control shed the statement; retry later.

    ``retry_after_ms`` is a backoff hint sized to the current backlog — it
    rides along in the error frame so well-behaved clients can pace their
    retries instead of hammering an overloaded server.
    """

    code = "BUSY"

    def __init__(self, message: str, *, retry_after_ms: Optional[int] = None) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class StatementTimeoutError(ServingError):
    """The statement exceeded the per-statement timeout."""

    code = "TIMEOUT"


class SnapshotViolationError(ServingError):
    """A read statement observed a table version change mid-execution."""

    code = "SNAPSHOT_VIOLATION"


class RemoteError(ReproError):
    """Client-side mirror of a typed error frame received from the server."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


#: Engine exception → wire code, most specific class first.
_ERROR_CODES: Tuple[Tuple[type, str], ...] = (
    (ServingError, ""),  # placeholder; serving errors carry their own code
    (SQLSyntaxError, "SYNTAX"),
    (CatalogError, "CATALOG"),
    (TypeMismatchError, "TYPE_MISMATCH"),
    (FunctionError, "FUNCTION"),
    (ExecutionError, "EXECUTION"),
    (ValidationError, "VALIDATION"),
    (MethodError, "METHOD"),
    (ReproError, "ENGINE"),
)


def error_code_for(exc: BaseException) -> str:
    """The wire error code for an exception (``INTERNAL`` for foreign ones)."""
    if isinstance(exc, ServingError):
        return exc.code
    for klass, code in _ERROR_CODES[1:]:
        if isinstance(exc, klass):
            return code
    return "INTERNAL"


# ---------------------------------------------------------------------------
# FIFO-fair readers/writer lock
# ---------------------------------------------------------------------------


class ReadWriteLock:
    """An asyncio readers/writer lock with FIFO fairness.

    Readers share; a writer excludes everyone.  Grants happen in arrival
    order — a waiting writer blocks later readers (no writer starvation),
    and consecutive queued readers are granted as one batch.  ``release_*``
    are plain callables (not coroutines) so a worker thread's done-callback
    can invoke them via ``loop.call_soon_threadsafe``.
    """

    def __init__(self) -> None:
        self._active_readers = 0
        self._writer_active = False
        #: (kind, future) in arrival order; dead (cancelled) futures are
        #: skipped at wake time.
        self._waiters: Deque[Tuple[str, asyncio.Future]] = deque()

    # -- introspection ------------------------------------------------------

    @property
    def active_readers(self) -> int:
        return self._active_readers

    @property
    def writer_active(self) -> bool:
        return self._writer_active

    @property
    def waiters(self) -> int:
        """Queued (not yet granted, not yet reaped-cancelled) waiters."""
        return sum(1 for _, future in self._waiters if not future.done())

    @property
    def idle(self) -> bool:
        """No holder and nobody queued — the leak-freedom invariant."""
        return (
            not self._writer_active
            and self._active_readers == 0
            and self.waiters == 0
        )

    # -- acquire ------------------------------------------------------------

    def try_acquire_read(self) -> bool:
        """:meth:`acquire_read`'s fast path: grant unless a writer holds or awaits."""
        if self._writer_active or self._waiters:
            return False
        self._active_readers += 1
        return True

    async def acquire_read(self) -> None:
        if not self.try_acquire_read():
            await self._wait("r")

    async def acquire_write(self) -> None:
        if not self._writer_active and self._active_readers == 0 and not self._waiters:
            self._writer_active = True
            return
        await self._wait("w")

    async def _wait(self, kind: str) -> None:
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._waiters.append((kind, future))
        try:
            await future
        except asyncio.CancelledError:
            if future.done() and not future.cancelled():
                # Granted and cancelled in the same tick: hand it back.
                if kind == "r":
                    self.release_read()
                else:
                    self.release_write()
            else:
                try:
                    self._waiters.remove((kind, future))
                except ValueError:
                    pass
                self._wake()
            raise

    # -- release ------------------------------------------------------------

    def release_read(self) -> None:
        if self._active_readers <= 0:
            raise RuntimeError("release_read without a matching acquire")
        self._active_readers -= 1
        if self._active_readers == 0:
            self._wake()

    def release_write(self) -> None:
        if not self._writer_active:
            raise RuntimeError("release_write without a matching acquire")
        self._writer_active = False
        self._wake()

    def _wake(self) -> None:
        while self._waiters:
            kind, future = self._waiters[0]
            if future.done():  # cancelled while queued
                self._waiters.popleft()
                continue
            if kind == "w":
                if self._active_readers == 0 and not self._writer_active:
                    self._waiters.popleft()
                    self._writer_active = True
                    future.set_result(None)
                return
            if self._writer_active:
                return
            # Grant this reader and keep going: consecutive readers batch.
            self._waiters.popleft()
            self._active_readers += 1
            future.set_result(None)


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------


class Session:
    """Per-connection state: an id and the prepared-statement handles."""

    def __init__(self, session_id: int) -> None:
        self.id = session_id
        #: handle -> (statement, lock side: "read" or "write")
        self.statements: Dict[str, Tuple[PreparedStatement, str]] = {}
        self._next_handle = 0

    def add_statement(self, prepared: PreparedStatement, kind: str) -> str:
        self._next_handle += 1
        handle = f"s{self._next_handle}"
        self.statements[handle] = (prepared, kind)
        return handle

    def get_statement(self, handle: str) -> Tuple[PreparedStatement, str]:
        try:
            return self.statements[handle]
        except KeyError:
            raise ProtocolError(f"unknown statement handle {handle!r}") from None


def _classify_sql(sql: str) -> str:
    """``"read"`` or ``"write"`` for lock selection, before any parse.

    SELECT (including UNION chains) is a read; EXPLAIN is a read unless it
    is EXPLAIN ANALYZE of a write (that actually runs its target), which
    needs the full parse to see.  Anything unrecognized (or unparseable: it
    fails with its real error when run) is conservatively a write — the
    statement still executes correctly, just without reader concurrency.
    """
    try:
        tokens = tokenize(sql)
        first = tokens[0].value.lower() if tokens and tokens[0].kind == "keyword" else ""
        if first == "explain":
            return "read" if statement_is_read_only(parse_statement(sql)) else "write"
    except ReproError:
        return "write"
    return "read" if first == "select" else "write"


class _Statement(NamedTuple):
    """A ``query`` / ``execute`` request resolved once, on the event loop."""

    kind: str  # "read" or "write": the lock side
    entry: Optional[CachedPlan]  # the plan-cache hit; None on a miss or uncached
    params: Optional[Dict[str, Any]]  # caller parameters merged with literals
    execute: Callable[[], ResultSet]  # the worker-thread body


# ---------------------------------------------------------------------------
# The server
# ---------------------------------------------------------------------------


def _result_payload(result: ResultSet) -> Dict[str, Any]:
    return {
        "ok": True,
        "columns": list(result.columns),
        "rows": [list(row) for row in result.rows],
        "rowcount": result.rowcount,
    }


def _error_payload(exc: BaseException) -> Dict[str, Any]:
    error: Dict[str, Any] = {"code": error_code_for(exc), "message": str(exc)}
    retry_after = getattr(exc, "retry_after_ms", None)
    if retry_after is not None:
        error["retry_after_ms"] = retry_after
    return {"ok": False, "error": error}


@dataclass
class ServerStats:
    """Monitoring counters for one :class:`DatabaseServer` (``stats`` op).

    ``statements_cancelled`` counts in-flight batches whose awaiting client
    disconnected (the statement thread still finishes and releases the lock;
    only the response is abandoned).  ``client_disconnects`` counts
    connections that ended without a clean ``close`` op.  Each query/execute
    counts once: ``inline`` (answered on the event loop) or ``handoff[reason]``
    (sent to a worker thread; reasons in ``docs/serving.md``).
    """

    statements_served: int = 0
    statements_shed: int = 0
    statements_timed_out: int = 0
    statements_cancelled: int = 0
    client_disconnects: int = 0
    truncated_sends: int = 0
    inline: int = 0
    handoff: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(("miss", "shape", "lock", "probe", "rows", "queued"), 0)
    )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "served": self.statements_served,
            "shed": self.statements_shed,
            "timed_out": self.statements_timed_out,
            "cancelled": self.statements_cancelled,
            "disconnects": self.client_disconnects,
            "truncated_sends": self.truncated_sends,
            "inline": self.inline,
            "handoff": dict(self.handoff),
        }


class DatabaseServer:
    """Serve one :class:`Database` over TCP to many concurrent clients.

    Parameters
    ----------
    database:
        The engine to serve.  If it has no plan cache, one of capacity
        ``plan_cache`` is installed (pass ``plan_cache=0`` to serve fully
        uncached — the benchmark's baseline mode).
    host, port:
        Listen address; port ``0`` picks a free port (``self.port`` has the
        real one after :meth:`start`).
    max_concurrent:
        Worker-thread count = maximum statements executing at once.
    max_queue:
        Statements allowed to wait beyond ``max_concurrent`` before
        admission control sheds new arrivals with ``BUSY``.
    statement_timeout:
        Seconds before an admitted statement fails with ``TIMEOUT``.
    drain_timeout:
        Default bound (seconds) on :meth:`stop`'s graceful drain; ``None``
        waits for in-flight work indefinitely (the pre-chaos behaviour).
    faults:
        Optional :class:`~repro.engine.faults.FaultInjector` probed at the
        ``serving.send`` site (response truncation).  ``None`` in
        production: the cost is one attribute check per batch.
    """

    def __init__(
        self,
        database: Database,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_concurrent: int = 8,
        max_queue: int = 16,
        statement_timeout: float = 30.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        plan_cache: int = 256,
        drain_timeout: Optional[float] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        if max_concurrent < 1:
            raise ValidationError("max_concurrent must be at least 1")
        if max_queue < 0:
            raise ValidationError("max_queue must not be negative")
        self.database = database
        if database.plan_cache is None and plan_cache:
            database.plan_cache = PlanCache(plan_cache)
            database.plan_cache_size = plan_cache
        self.host = host
        self.port = port
        self.max_concurrent = max_concurrent
        self.max_queue = max_queue
        self.statement_timeout = statement_timeout
        self.max_frame_bytes = max_frame_bytes
        self.drain_timeout = drain_timeout
        self.faults = faults
        self._lock = ReadWriteLock()
        self._pool = ThreadPoolExecutor(
            max_workers=max_concurrent, thread_name_prefix="repro-serve"
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._sessions: Dict[int, Session] = {}
        self._connections: set = set()
        self._next_session = 0
        self._inflight = 0
        self._active_batches = 0
        self._stopping = False
        # Monitoring counters (exposed by the ``stats`` op).
        self.stats = ServerStats()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(
        self,
        *,
        close_database: bool = False,
        drain_timeout: Optional[float] = _UNSET,
    ) -> bool:
        """Graceful drain and stop; returns whether the drain completed.

        Phases: (1) stop accepting — the listener closes and admission
        control sheds new statements with BUSY; (2) drain — wait for every
        in-flight batch to finish and flush its responses, bounded by
        ``drain_timeout`` (the constructor default if not given, ``None`` =
        unbounded); (3) disconnect survivors and shut the thread pool down.
        When the deadline expires with work still running the pool is shut
        down without waiting (a Python thread cannot be killed) and
        ``False`` is returned so callers — e.g. the ``repro.serve`` CLI —
        can exit nonzero.  Only a completed drain may close the database:
        worker-pool teardown must never race a live statement.
        """
        if drain_timeout is _UNSET:
            drain_timeout = self.drain_timeout
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        drained = await self._drain(drain_timeout)
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        # Blocks until every submitted statement thread has finished — unless
        # the drain already gave up on a wedged statement.
        await asyncio.get_running_loop().run_in_executor(
            None, lambda: self._pool.shutdown(wait=drained)
        )
        if close_database and drained:
            self.database.close()
        return drained

    async def _drain(self, timeout: Optional[float]) -> bool:
        """Wait for in-flight batches and statements to reach zero."""
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        while self._active_batches or self._inflight:
            if deadline is not None and loop.time() >= deadline:
                return False
            await asyncio.sleep(0.005)
        return True

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    # -- connection handling ------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        self._next_session += 1
        session = Session(self._next_session)
        self._sessions[session.id] = session
        buffer = bytearray()
        recv: Optional[asyncio.Task] = None
        batch: Optional[asyncio.Task] = None
        clean_close = False
        try:
            while True:
                items = self._extract_frames(buffer)
                if not items:
                    if recv is None:
                        recv = asyncio.ensure_future(reader.read(65536))
                    chunk = await recv
                    recv = None
                    if not chunk:
                        break  # client disconnected (possibly mid-frame)
                    buffer.extend(chunk)
                    continue
                frames, items = self._answer_leading(session, items)
                if frames:
                    self._active_batches += 1
                    try:
                        truncated = await self._send(writer, frames)
                    finally:
                        self._active_batches -= 1
                    if truncated:
                        clean_close = True
                        break
                if not items:
                    continue
                # Race the batch against further socket reads so a client
                # that vanishes mid-statement cancels the *await* instead of
                # stranding the connection until the statement finishes.
                # Data that arrives while the batch runs (a pipelining
                # client) is buffered for the next iteration.
                batch = asyncio.ensure_future(
                    self._process_batch(session, items, writer)
                )
                disconnected = False
                while not batch.done():
                    if recv is None:
                        recv = asyncio.ensure_future(reader.read(65536))
                    await asyncio.wait(
                        {batch, recv}, return_when=asyncio.FIRST_COMPLETED
                    )
                    if not recv.done():
                        continue
                    try:
                        chunk = recv.result()
                    except (ConnectionError, OSError):
                        chunk = b""
                    recv = None
                    if chunk:
                        buffer.extend(chunk)
                    elif not batch.done():
                        # EOF with the batch still in flight: abandon the
                        # response.  The statement thread runs to completion
                        # and its done-callback releases the lock.
                        batch.cancel()
                        try:
                            await batch
                        except asyncio.CancelledError:
                            pass
                        batch = None
                        self.stats.statements_cancelled += 1
                        disconnected = True
                        break
                if disconnected:
                    break
                close = batch.result()
                batch = None
                if close:
                    clean_close = True
                    break
        except asyncio.CancelledError:
            pass  # server shutdown
        except ConnectionError:
            pass  # mid-query disconnect: results are discarded
        finally:
            if not clean_close:
                self.stats.client_disconnects += 1
            for pending in (recv, batch):
                if pending is not None and not pending.done():
                    pending.cancel()
                    try:
                        await pending
                    except (asyncio.CancelledError, ConnectionError, OSError):
                        pass
            self._sessions.pop(session.id, None)
            self._connections.discard(task)
            _shutdown_transport(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    def _extract_frames(self, buffer: bytearray) -> List[Any]:
        """Parse every complete frame out of the receive buffer.

        Pipelined clients land many frames per socket read; draining them
        all here is what lets :meth:`_process_batch` amortize the
        thread-pool hop across a whole batch.  Returns parsed request dicts
        interleaved (in arrival order) with :class:`ProtocolError` markers
        for frames whose body is broken; an oversized declared length is a
        *fatal* marker — the boundary is gone, nothing after it can be
        trusted.
        """
        items: List[Any] = []
        while len(buffer) >= _HEADER.size:
            (length,) = _HEADER.unpack_from(buffer)
            if length > self.max_frame_bytes:
                items.append(
                    ProtocolError(
                        f"frame of {length} bytes exceeds the "
                        f"{self.max_frame_bytes}-byte limit",
                        fatal=True,
                    )
                )
                buffer.clear()
                break
            if len(buffer) < _HEADER.size + length:
                break
            body = bytes(buffer[_HEADER.size : _HEADER.size + length])
            del buffer[: _HEADER.size + length]
            try:
                request = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                items.append(ProtocolError(f"malformed JSON frame: {exc}"))
                continue
            if not isinstance(request, dict):
                items.append(ProtocolError("request frame must be a JSON object"))
                continue
            items.append(request)
        return items

    # -- dispatch -----------------------------------------------------------

    async def _process_batch(
        self, session: Session, items: List[Any], writer: asyncio.StreamWriter
    ) -> bool:
        """Answer one batch of requests, in order; returns ``close?``.

        Consecutive *read* statements are executed as a single admitted unit
        on one worker-thread submission — the pipelining fast path.  Writes,
        control ops, and protocol errors act as barriers: queued reads flush
        first so every response lands in request order.
        """
        self._active_batches += 1
        try:
            return await self._process_batch_inner(session, items, writer)
        finally:
            self._active_batches -= 1

    async def _process_batch_inner(
        self, session: Session, items: List[Any], writer: asyncio.StreamWriter
    ) -> bool:
        frames: List[bytes] = []
        close = False
        pending_reads: List[Any] = []

        async def flush_reads() -> None:
            if pending_reads:
                batch = list(pending_reads)
                del pending_reads[:]
                frames.extend(await self._run_read_batch(batch))

        for item in items:
            if isinstance(item, ProtocolError):
                await flush_reads()
                frames.append(json_frame(_error_payload(item)))
                if item.fatal:
                    close = True
                    break
                continue
            try:
                statement = item if isinstance(item, _Statement) else None
                if statement is None and item.get("op") in ("query", "execute"):
                    statement = self._resolve(session, item)
                    self.stats.handoff["queued"] += 1  # behind a request not answered inline
                if statement is not None:
                    run = partial(self._run_statement, statement.kind, statement.execute)
                    if statement.kind == "read":
                        pending_reads.append(run)
                        continue
                    await flush_reads()
                    frames.append(await self._admit("write", run))
                    continue
                await flush_reads()
                frame, close = await self._dispatch_control(session, item)
                frames.append(frame)
                if close:
                    break
            except BaseException as exc:
                if isinstance(
                    exc, (asyncio.CancelledError, KeyboardInterrupt, SystemExit)
                ):
                    raise
                self._count_error(exc)
                await flush_reads()
                frames.append(json_frame(_error_payload(exc)))
        await flush_reads()
        return await self._send(writer, frames) or close

    async def _send(self, writer: asyncio.StreamWriter, frames: List[bytes]) -> bool:
        """Write response frames and drain; True when the ``serving.send``
        fault truncated them (the connection then closes)."""
        blob = b"".join(frames)
        fault = None if self.faults is None or not blob else self.faults.probe("serving.send")
        truncated = fault is not None and fault.kind == WIRE_TRUNCATE
        if truncated:
            # Chaos: lose the tail of the response batch.  The work is
            # already committed — the client sees a broken frame and must
            # treat unacknowledged statements as in-doubt.
            self.stats.truncated_sends += 1
            blob = blob[: max(1, len(blob) // 2)]
        writer.write(blob)
        await writer.drain()
        return truncated

    def _resolve(self, session: Session, request: Dict[str, Any]) -> _Statement:
        """Resolve a query/execute request, once, on the loop: one normalize
        (which also picks the lock side) and a plan-cache lookup, a hit only.
        Uncacheable text (DDL, EXPLAIN) and an uncached server classify by
        tokens instead.  Nothing here may queue behind the worker pool."""
        database = self.database
        params = self._params_of(request)
        if request["op"] == "query":
            sql = self._require_sql(request)
            try:
                normalized = None if database.plan_cache is None else normalize_statement(sql)
            except ReproError:
                normalized = None  # the worker raises the real error
            if normalized is None:
                run = partial(database.execute, sql, params)
                return _Statement(_classify_sql(sql), None, params, run)
            fingerprint, values = normalized
        else:
            handle = request.get("handle")
            if not isinstance(handle, str):
                raise ProtocolError("request needs a 'handle' string")
            prepared, kind = session.get_statement(handle)
            if prepared.fingerprint is None:
                return _Statement(kind, None, params, lambda: prepared.execute(params))
            fingerprint, values = prepared.fingerprint, prepared.values
        entry, merged = database.resolve(fingerprint, values, params)
        kind = "read" if fingerprint.startswith("select ") else "write"
        return _Statement(
            kind, entry, merged, lambda: database.execute_resolved(fingerprint, entry, merged)
        )

    def _answer_leading(self, session: Session, items: List[Any]) -> Tuple[List[bytes], List[Any]]:
        """Answer a frame set's leading point reads without a batch task: their
        frames, and the items left for the batch, whose first may be a
        :class:`_Statement` declined here (the batch does not resolve it again)."""
        frames: List[bytes] = []
        for index, item in enumerate(items):
            if not isinstance(item, dict) or item.get("op") not in ("query", "execute"):
                return frames, items[index:]
            try:
                statement = self._resolve(session, item)
            except ReproError:
                return frames, items[index:]  # the batch answers the error
            frame = self._answer_inline(statement)
            if frame is None:
                return frames, [statement, *items[index + 1 :]]
            frames.append(frame)
        return frames, []

    def _answer_inline(self, statement: _Statement) -> Optional[bytes]:
        """Run a cached :class:`SimpleSelectPlan` (a read-only index probe) on
        the event loop while no writer holds or awaits the lock; else None,
        counting why it goes to a worker thread (``docs/serving.md``).  No
        ``statement_timeout``: it is one probe of <= ``INLINE_MAX_ROWS`` rows."""
        entry = statement.entry
        if entry is None or entry.simple_plan is None:
            reason = "miss" if entry is None else "shape"
        elif (
            self._stopping
            or self._inflight >= self.max_concurrent + self.max_queue
            or not self._lock.try_acquire_read()
        ):
            reason = "lock"
        else:
            catalog = self.database.catalog
            try:
                before = self._version_snapshot(catalog)
                result = entry.simple_plan.execute(catalog, statement.params, INLINE_MAX_ROWS)
                if isinstance(result, ResultSet):
                    result = self._served(result, before)
            except ReproError as exc:
                result = json_frame(_error_payload(exc))
            finally:
                self._lock.release_read()
            if isinstance(result, bytes):
                self.stats.inline += 1
                return result
            reason = result  # "probe" or "rows"
        self.stats.handoff[reason] += 1
        return None

    async def _run_read_batch(self, thunks: List[Any]) -> List[bytes]:
        """Run queued read thunks as one admitted worker-thread unit.

        Engine errors are isolated per statement (each becomes its own error
        frame); admission failures — BUSY, TIMEOUT — apply to the whole
        batch, one identical error frame per statement so the response count
        always matches the request count.
        """

        def run_all() -> List[bytes]:
            return [self._safe_frame(thunk) for thunk in thunks]

        try:
            return await self._admit("read", run_all)
        except (ServerBusyError, StatementTimeoutError) as exc:
            self._count_error(exc)
            return [json_frame(_error_payload(exc))] * len(thunks)

    def _safe_frame(self, thunk) -> bytes:
        try:
            return thunk()
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            return json_frame(_error_payload(exc))

    def _count_error(self, exc: BaseException) -> None:
        if isinstance(exc, StatementTimeoutError):
            self.stats.statements_timed_out += 1
        if isinstance(exc, ServerBusyError):
            self.stats.statements_shed += 1

    async def _dispatch_control(
        self, session: Session, request: Dict[str, Any]
    ) -> Tuple[bytes, bool]:
        """Non-statement ops: connect, prepare, stats, close, unknown."""
        op = request.get("op")
        if op == "connect":
            return json_frame(
                {
                    "ok": True,
                    "session": session.id,
                    "version": __version__,
                    "max_frame_bytes": self.max_frame_bytes,
                }
            ), False
        if op == "prepare":
            return await self._op_prepare(session, request), False
        if op == "stats":
            return json_frame(self._op_stats()), False
        if op == "close":
            return json_frame({"ok": True}), True
        raise ProtocolError(f"unknown op {op!r}")

    def _require_sql(self, request: Dict[str, Any]) -> str:
        sql = request.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise ProtocolError("request needs a non-empty 'sql' string")
        return sql

    @staticmethod
    def _params_of(request: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        params = request.get("params")
        if params is None:
            return None
        if not isinstance(params, dict):
            raise ProtocolError("'params' must be a JSON object")
        return params

    async def _op_prepare(self, session: Session, request: Dict[str, Any]) -> bytes:
        sql = self._require_sql(request)
        loop = asyncio.get_running_loop()

        def prepare() -> bytes:
            prepared = self.database.prepare(sql)
            kind = _classify_sql(sql)
            handle = session.add_statement(prepared, kind)
            return json_frame(
                {
                    "ok": True,
                    "handle": handle,
                    "params": prepared.parameter_names,
                    "read_only": kind == "read",
                }
            )

        # PREPARE parses (and may touch the shared plan cache) but never
        # mutates table data; the cache has its own lock.
        return await loop.run_in_executor(self._pool, prepare)

    def _retry_after_ms(self) -> int:
        """Backoff hint for a shed statement, sized to the backlog.

        Rough model: each queued statement ahead of the retrier takes some
        slice of a worker; 20 ms per backlogged statement, clamped to
        [25 ms, 2 s], is enough to spread a thundering herd without making a
        briefly-saturated server look down.
        """
        backlog = max(0, self._inflight - self.max_concurrent)
        return max(25, min(2000, 20 * (backlog + 1)))

    def _op_stats(self) -> Dict[str, Any]:
        cache = self.database.plan_cache
        server = {
            "sessions": len(self._sessions),
            "inflight": self._inflight,
            "active_batches": self._active_batches,
        }
        server.update(self.stats.as_dict())
        worker_pool = getattr(self.database, "_worker_pool", None)
        return {
            "ok": True,
            "server": server,
            "lock": {
                "active_readers": self._lock.active_readers,
                "writer_active": self._lock.writer_active,
                "waiters": self._lock.waiters,
            },
            "worker_pool": None if worker_pool is None else worker_pool.stats(),
            "plan_cache": None if cache is None else cache.stats(),
            "matviews": self.database.catalog.matviews(),
        }

    # -- statement execution ------------------------------------------------

    def _run_statement(self, kind: str, execute) -> bytes:
        """Worker-thread body: run one statement, serialize the response.

        Read statements capture every table's data version before and after
        and fail with ``SNAPSHOT_VIOLATION`` on drift — under the
        readers/writer lock this can never fire; it exists to *prove* that.
        JSON serialization happens here too, off the event loop.
        """
        before = self._version_snapshot(self.database.catalog) if kind == "read" else None
        return self._served(execute(), before)

    def _served(self, result: ResultSet, before: Optional[Dict[str, Any]]) -> bytes:
        """Count a finished statement and encode its response frame, after
        re-checking a read's pre-execution version snapshot ``before``."""
        if before is not None:
            after = self._version_snapshot(self.database.catalog)
            if before != after:
                raise SnapshotViolationError(
                    "table versions changed during a read statement: "
                    f"{sorted(set(before.items()) ^ set(after.items()))[:4]}"
                )
        self.stats.statements_served += 1
        return json_frame(_result_payload(result))

    @staticmethod
    def _version_snapshot(catalog) -> Dict[str, Any]:
        snapshot: Dict[str, Any] = {
            name: catalog.get_table(name)._data_version
            for name in catalog.table_names()
        }
        for name in catalog.matview_names():
            # Keyed off the view's *source* tables, not its content version:
            # a read of a stale view lazily recomputes it (bumping the
            # content version mid-read), which is not concurrent drift.
            snapshot[f"matview:{name}"] = catalog.get_matview(name).snapshot_token(
                catalog
            )
        return snapshot

    async def _admit(self, kind: str, run) -> bytes:
        """Admission control + lock + timeout around a worker-thread body."""
        if self._stopping:
            raise ServerBusyError("server is shutting down")
        if self._inflight >= self.max_concurrent + self.max_queue:
            raise ServerBusyError(
                f"server at capacity ({self._inflight} statements in flight)",
                retry_after_ms=self._retry_after_ms(),
            )
        self._inflight += 1
        try:
            if kind == "read":
                await self._lock.acquire_read()
                release = self._lock.release_read
            else:
                await self._lock.acquire_write()
                release = self._lock.release_write
            loop = asyncio.get_running_loop()
            try:
                thread_future: ThreadFuture = self._pool.submit(run)
            except RuntimeError:
                # Pool already shut down (stop raced a late batch).  Without
                # a thread future there is no done-callback, so release here
                # or the lock leaks forever.
                release()
                raise ServerBusyError("server is shutting down") from None

            def on_done(_: ThreadFuture) -> None:
                # The lock is held until the statement thread truly finishes,
                # even when the awaiting client timed out or disconnected.
                try:
                    loop.call_soon_threadsafe(release)
                except RuntimeError:
                    release()  # loop already closed (interpreter teardown)

            thread_future.add_done_callback(on_done)
            wrapped = asyncio.wrap_future(thread_future, loop=loop)
            try:
                return await asyncio.wait_for(
                    asyncio.shield(wrapped), self.statement_timeout
                )
            except asyncio.TimeoutError:
                thread_future.cancel()  # no-op if already running
                wrapped.add_done_callback(_swallow_exception)
                raise StatementTimeoutError(
                    f"statement exceeded the {self.statement_timeout}s timeout"
                ) from None
        finally:
            self._inflight -= 1


def _shutdown_transport(writer: asyncio.StreamWriter) -> None:
    """Send FIN explicitly before closing a connection's transport.

    ``transport.close()`` only closes this process's file descriptor.  The
    parallel worker pool forks, and forked workers inherit every open fd —
    including accepted client sockets — so the kernel keeps the connection
    alive after our close and the client hangs on read until its own
    timeout instead of seeing EOF.  ``socket.shutdown`` acts on the
    *connection*, not the fd refcount: the FIN goes out no matter who else
    holds a copy.  Skipped when the transport still buffers unflushed
    response bytes (shutdown would drop them); ``close()`` flushes first
    in that rare case.
    """
    transport = writer.transport
    if transport.is_closing() or transport.get_write_buffer_size():
        return
    sock = writer.get_extra_info("socket")
    if sock is None:
        return
    try:
        sock.shutdown(socket.SHUT_WR)
    except OSError:
        pass


def _swallow_exception(future: "asyncio.Future[Any]") -> None:
    if not future.cancelled():
        future.exception()


def json_frame(payload: Dict[str, Any]) -> bytes:
    """Encode one payload as a length-prefixed JSON frame."""
    body = json.dumps(payload, separators=(",", ":"), default=str).encode("utf-8")
    return _HEADER.pack(len(body)) + body


# ---------------------------------------------------------------------------
# Background-thread server (tests, benchmarks, embedding)
# ---------------------------------------------------------------------------


class ServerThread:
    """Run a :class:`DatabaseServer` on a dedicated event-loop thread.

    ``start()`` returns once the port is bound; ``stop()`` drains and joins.
    Usable as a context manager.
    """

    def __init__(self, database: Database, **server_kwargs: Any) -> None:
        self.server = DatabaseServer(database, **server_kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            try:
                loop.run_until_complete(self.server.start())
            except BaseException as exc:
                self._startup_error = exc
                return
            finally:
                self._started.set()
            loop.run_forever()
        finally:
            loop.close()

    def stop(
        self,
        *,
        close_database: bool = False,
        drain_timeout: Optional[float] = _UNSET,
    ) -> bool:
        loop = self._loop
        if loop is None or not loop.is_running():
            return True
        done = threading.Event()
        outcome = {"drained": True}

        async def drain() -> None:
            try:
                outcome["drained"] = await self.server.stop(
                    close_database=close_database, drain_timeout=drain_timeout
                )
            finally:
                done.set()
                loop.stop()

        asyncio.run_coroutine_threadsafe(drain(), loop)
        done.wait()
        if self._thread is not None:
            self._thread.join()
        self._loop = None
        return outcome["drained"]

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


# ---------------------------------------------------------------------------
# Synchronous client
# ---------------------------------------------------------------------------


class ServingClient:
    """Blocking-socket client for the wire protocol (tests, benchmarks, CLI).

    One request/response per call, plus :meth:`pipeline` which writes a batch
    of requests before reading the batch of responses — amortizing network
    round trips exactly the way a DB-API driver's ``executemany`` does.
    """

    def __init__(self, host: str, port: int, *, timeout: Optional[float] = 60.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self.session: Optional[int] = None
        reply = self.request({"op": "connect"})
        self.session = reply.get("session")

    # -- framing ------------------------------------------------------------

    def _write_frame(self, payload: Dict[str, Any]) -> None:
        self._file.write(json_frame(payload))

    def _read_frame(self) -> Dict[str, Any]:
        header = self._file.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ConnectionError("server closed the connection")
        (length,) = _HEADER.unpack(header)
        body = self._file.read(length)
        if len(body) < length:
            raise ConnectionError("truncated frame from server")
        return json.loads(body.decode("utf-8"))

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request and return its (checked) response."""
        self._write_frame(payload)
        self._file.flush()
        return self._check(self._read_frame())

    def pipeline(self, payloads: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Send all requests, then read all responses (errors returned, not raised)."""
        for payload in payloads:
            self._write_frame(payload)
        self._file.flush()
        return [self._read_frame() for _ in payloads]

    @staticmethod
    def _check(reply: Dict[str, Any]) -> Dict[str, Any]:
        if not reply.get("ok", False):
            error = reply.get("error") or {}
            raise RemoteError(
                error.get("code", "INTERNAL"), error.get("message", "unknown error")
            )
        return reply

    # -- operations ---------------------------------------------------------

    def query(self, sql: str, params: Optional[Dict[str, Any]] = None) -> "RemoteResult":
        payload: Dict[str, Any] = {"op": "query", "sql": sql}
        if params is not None:
            payload["params"] = params
        return RemoteResult(self.request(payload))

    def prepare(self, sql: str) -> str:
        return self.request({"op": "prepare", "sql": sql})["handle"]

    def execute(self, handle: str, params: Optional[Dict[str, Any]] = None) -> "RemoteResult":
        payload: Dict[str, Any] = {"op": "execute", "handle": handle}
        if params is not None:
            payload["params"] = params
        return RemoteResult(self.request(payload))

    def stats(self) -> Dict[str, Any]:
        return self.request({"op": "stats"})

    def close(self) -> None:
        try:
            self._write_frame({"op": "close"})
            self._file.flush()
            self._read_frame()
        except (OSError, ConnectionError):
            pass
        finally:
            try:
                self._file.close()
            except OSError:
                pass
            self._sock.close()

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class RemoteResult:
    """Client-side view of a result frame (rows re-tupled like a ResultSet)."""

    def __init__(self, reply: Dict[str, Any]) -> None:
        self.columns: List[str] = reply.get("columns", [])
        self.rows: List[Tuple[Any, ...]] = [tuple(row) for row in reply.get("rows", [])]
        self.rowcount: int = reply.get("rowcount", len(self.rows))

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def to_dicts(self) -> List[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def scalar(self) -> Any:
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"scalar() requires a 1x1 result, got {len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]
