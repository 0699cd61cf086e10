"""Client side of the serving workloads: server lifecycle and load loops.

Two load shapes (choosing-metrics guide, section 5):

* :func:`closed_loop` — each connection sends its next request when the
  previous reply arrives, so a slow server receives less load;
* :func:`open_loop` — each connection sends on a seeded schedule and every
  latency is timed from the request's *due* time, so a stall is charged to
  the requests that waited behind it.

Both talk to the server only through ``ServingClient.pipeline`` (errors come
back as replies, nothing is raised for a typed server error).
"""

from __future__ import annotations

import functools
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.engine.serving import ServingClient

from common import OUT_DIR, SPINE_DIR

#: (op class, request payload, expected-reply checker argument)
Request = Tuple[str, Dict[str, Any], Any]

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0
CLIENT_TIMEOUT_S = 20.0


class ServerProcess:
    """One server subprocess; ``stop`` always ends it (SIGTERM → drain → kill)."""

    def __init__(self, spec: Dict[str, Any]) -> None:
        self.spec = spec
        self.port: Optional[int] = None
        self.steps_s: Dict[str, float] = {}
        self.report: Dict[str, Any] = {}
        self._process: Optional[subprocess.Popen] = None
        self._spec_path = OUT_DIR / f"server_spec_{os.getpid()}.json"

    def start(self) -> "ServerProcess":
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.spec["cpus"] = split_cpus()[0]
        with open(self._spec_path, "w", encoding="utf-8") as handle:
            json.dump(self.spec, handle)
        self._process = subprocess.Popen(
            [sys.executable, str(SPINE_DIR / "server_main.py"), str(self._spec_path)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            ready = _read_json_line(self._process, READY_TIMEOUT_S)
            if not ready.get("ready"):
                raise RuntimeError(f"server did not become ready: {ready}")
        except BaseException:
            self.stop()
            raise
        self.port = int(ready["port"])
        self.steps_s = dict(ready.get("steps_s", {}))
        return self

    def stop(self) -> Dict[str, Any]:
        """Terminate the server and wait for it; returns its exit report."""
        process, self._process = self._process, None
        if process is None:
            return self.report
        try:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
                self.report = _read_json_line(process, STOP_TIMEOUT_S)
            try:
                process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            for stream in (process.stdin, process.stdout):
                if stream is not None:
                    stream.close()
            self._spec_path.unlink(missing_ok=True)
        self.report.setdefault("exit_code", process.returncode)
        return self.report

    def __enter__(self) -> "ServerProcess":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


@functools.lru_cache(maxsize=None)
def split_cpus() -> Tuple[List[int], List[int]]:
    """(server CPUs, client CPUs): the last CPU for the server, the rest for us.

    Left to the scheduler, a lightly loaded server and its sleeping clients
    land on the same or on different cores from run to run, and every latency
    of the run moves by a fifth with that one placement.  Pinning each side
    removes the coin toss.  With one CPU (or no affinity call) nothing is
    pinned.  Only the server process and the client threads are pinned, never
    this process's main thread, which the in-process twin database and the
    layer probes run on.
    """
    if not hasattr(os, "sched_getaffinity"):
        return [], []
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return [], []
    return cpus[-1:], cpus[:-1]


class KeepAwake:
    """A lowest-priority spinner on every CPU while an open loop runs.

    An open loop leaves the machine idle between arrivals, and in this
    sandbox an idle virtual CPU is halted: waking it costs 0.1-0.3 ms more or
    less depending on what the host is doing that minute, which moved every
    cheap request's latency by a third from one run to the next.  A
    ``nice 19`` spinner gives way to the server and the clients at once but
    keeps the CPU from halting, so what is left is the program's own time.
    Each spinner exits on its own if this process disappears.
    """

    SPIN = (
        "import os\n"
        "parent = os.getppid()\n"
        "os.nice(19)\n"
        "while os.getppid() == parent:\n"
        "    for _ in range(200000):\n"
        "        pass\n"
    )

    def __init__(self) -> None:
        self._spinners: List[subprocess.Popen] = []

    def __enter__(self) -> "KeepAwake":
        server_cpus, client_cpus = split_cpus()
        try:
            for cpu in server_cpus + client_cpus:
                spinner = subprocess.Popen([sys.executable, "-c", self.SPIN])
                self._spinners.append(spinner)
                os.sched_setaffinity(spinner.pid, [cpu])
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for spinner in self._spinners:
            spinner.kill()
        for spinner in self._spinners:
            spinner.wait()
        self._spinners = []


def pin_client_thread() -> None:
    """Called by each load-generating thread as it starts."""
    client_cpus = split_cpus()[1]
    if client_cpus:
        os.sched_setaffinity(0, client_cpus)


def _read_json_line(process: subprocess.Popen, timeout: float) -> Dict[str, Any]:
    """One JSON line from the child's stdout, or ``{}`` on EOF / timeout."""
    holder: List[str] = []
    reader = threading.Thread(
        target=lambda: holder.append(process.stdout.readline()), daemon=True
    )
    reader.start()
    reader.join(timeout)
    if not holder or not holder[0].strip():
        return {}
    return json.loads(holder[0])


def close_serving(server: ServerProcess, clients: Sequence[ServingClient]) -> Dict[str, Any]:
    """Teardown of a serving workload: clients first, the server whatever happens."""
    try:
        for client in clients:
            client.close()
    finally:
        report = server.stop()
    return {"peak_rss_mb": report.get("peak_rss_mb"), "server": report, "steps_s": server.steps_s}


def connect(port: int) -> ServingClient:
    return ServingClient("127.0.0.1", port, timeout=CLIENT_TIMEOUT_S)


def send(client: ServingClient, payload: Dict[str, Any]) -> Dict[str, Any]:
    """One request, one reply; a typed server error is a reply, not a raise."""
    return client.pipeline([payload])[0]


@dataclass
class Record:
    """One completed (or failed) request as the client saw it."""

    op: str
    latency_ms: float
    reply: Optional[Dict[str, Any]]
    expect: Any
    lag_ms: float = 0.0
    rung: int = 0
    due_s: float = 0.0
    #: set by the workload once the reply has been checked against its oracle
    ok: bool = False


@dataclass
class LoopResult:
    records: List[Record] = field(default_factory=list)
    elapsed_s: float = 0.0
    backlog_max: int = 0
    errors: List[str] = field(default_factory=list)


def _run_workers(worker, count: int, barrier: threading.Barrier, window: Dict[str, float]) -> float:
    """Start ``count`` worker threads, open the window for all at once, join them."""
    threads = [threading.Thread(target=worker, args=(index,)) for index in range(count)]
    for thread in threads:
        thread.start()
    window["start"] = time.perf_counter()
    barrier.wait()
    for thread in threads:
        thread.join()
    return time.perf_counter() - window["start"]


def closed_loop(
    clients: Sequence[ServingClient],
    streams: Sequence[Sequence[Request]],
    seconds: float,
    tracer,
) -> LoopResult:
    """Each client walks its own request stream until the window closes."""
    result = LoopResult()
    per_thread: List[List[Record]] = [[] for _ in clients]
    barrier = threading.Barrier(len(clients) + 1)
    window: Dict[str, float] = {}

    def worker(index: int) -> None:
        client, stream, records = clients[index], streams[index], per_thread[index]
        pin_client_thread()
        barrier.wait()
        deadline = window["start"] + seconds
        position = 0
        try:
            while True:
                op, payload, expect = stream[position % len(stream)]
                position += 1
                start = time.perf_counter()
                if start >= deadline:
                    break
                with tracer.span("serving.request." + op, position):
                    reply = send(client, payload)
                records.append(
                    Record(op, (time.perf_counter() - start) * 1e3, reply, expect)
                )
        except (OSError, ValueError) as exc:  # socket loss or a torn frame
            result.errors.append(f"connection {index}: {exc!r}")

    result.elapsed_s = _run_workers(worker, len(clients), barrier, window)
    for records in per_thread:
        result.records.extend(records)
    return result


#: (due offset in seconds from the window start, rung index, request)
Arrival = Tuple[float, int, Request]


def open_loop(
    clients: Sequence[ServingClient],
    schedules: Sequence[Sequence[Arrival]],
    tracer,
) -> LoopResult:
    """Send each request at its due time; latency runs from the due time.

    A connection still waiting for a reply cannot send, so the requests that
    came due meanwhile are sent late: their lateness (``lag_ms``) is the
    generator lag, and the count of overdue requests is the backlog.
    """
    result = LoopResult()
    per_thread: List[List[Record]] = [[] for _ in clients]
    backlog = [0 for _ in clients]
    barrier = threading.Barrier(len(clients) + 1)
    window: Dict[str, float] = {}

    def worker(index: int) -> None:
        client, schedule, records = clients[index], schedules[index], per_thread[index]
        pin_client_thread()
        barrier.wait()
        origin = window["start"]
        overdue_from = 0
        try:
            for position, (offset, rung, (op, payload, expect)) in enumerate(schedule):
                due = origin + offset
                now = time.perf_counter()
                if now < due:
                    time.sleep(due - now)
                    now = time.perf_counter()
                else:
                    while overdue_from < len(schedule) and origin + schedule[overdue_from][0] <= now:
                        overdue_from += 1
                    backlog[index] = max(backlog[index], overdue_from - position)
                with tracer.span("serving.request." + op, position):
                    reply = send(client, payload)
                done = time.perf_counter()
                records.append(
                    Record(op, (done - due) * 1e3, reply, expect, (now - due) * 1e3, rung, offset)
                )
        except (OSError, ValueError) as exc:
            result.errors.append(f"connection {index}: {exc!r}")
            for offset, rung, (op, _, expect) in schedule[len(records):]:
                records.append(Record(op, float("inf"), None, expect, 0.0, rung, offset))

    with KeepAwake():
        result.elapsed_s = _run_workers(worker, len(clients), barrier, window)
    result.backlog_max = max(backlog) if backlog else 0
    for records in per_thread:
        result.records.extend(records)
    return result
