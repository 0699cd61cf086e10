"""``serve_point``: closed-loop point serving against a server subprocess.

Two connections walk seeded request streams over an indexed table: prepared
point lookups, literal queries of the same shape, short index ranges, and an
``adhoc`` share drawn from more distinct statement shapes than the plan
cache holds.  Frame decode, JSON, sessions, the thread hand-off, the plan
cache and the parser do most of the work; the executor does almost none.

Oracle: a Python dict of the generated rows.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro import Database

import layer_probes as probes
from common import median, percentile
from serving_support import (
    Record,
    Request,
    ServerProcess,
    close_serving,
    closed_loop,
    connect,
    send,
)
from workload import Measurement

NAME = "serve_point"
LOOP = "closed"

COLUMNS = [
    ("id", "integer"),
    ("grp", "text"),
    ("v", "double precision"),
    ("n", "integer"),
    ("note", "text"),
]
COLUMN_NAMES = [name for name, _ in COLUMNS]
SETUP_SQL = [
    ("index", "CREATE INDEX kv_id ON kv (id)"),
    ("analyze", "ANALYZE kv"),
]
POINT_SQL = "SELECT id, grp, v, n FROM kv WHERE id = %(id)s"
POINT_COLUMNS = (0, 1, 2, 3)

#: adhoc predicates after ``id = X``: (SQL suffix template, Python check)
ADHOC_PREDICATES = [
    ("", lambda row, c: True),
    (" AND n >= {c}", lambda row, c: row[3] >= c),
    (" AND v < {c}.5", lambda row, c: row[2] < c + 0.5),
    (" AND grp != 'g{c:02d}'", lambda row, c: row[1] != f"g{c:02d}"),
]


@dataclass
class Inputs:
    rows: List[Tuple[Any, ...]]
    streams: List[List[Request]]
    spec: Dict[str, Any]
    size: Dict[str, Any]


@dataclass
class State:
    server: ServerProcess
    clients: list


def _adhoc_shapes(rng: random.Random, count: int) -> List[Tuple[Tuple[int, ...], int]]:
    """``count`` distinct (projection, predicate) shapes, each its own fingerprint."""
    shapes = [
        (columns, predicate)
        for width in range(1, len(COLUMNS) + 1)
        for columns in itertools.permutations(range(len(COLUMNS)), width)
        for predicate in range(len(ADHOC_PREDICATES))
    ]
    rng.shuffle(shapes)
    return shapes[:count]


def generate(seed: int, size: Dict[str, Any]) -> Inputs:
    rng = random.Random(seed)
    count = size["rows"]
    rows = [
        (
            i,
            f"g{rng.randrange(16):02d}",
            round(rng.uniform(0.0, 1000.0), 6),
            rng.randrange(1000),
            f"n{rng.randrange(10**6):06d}",
        )
        for i in range(count)
    ]
    shapes = _adhoc_shapes(rng, size["adhoc_shapes"])
    ops = list(size["mix"])
    weights = [size["mix"][op] for op in ops]

    def request(op: str) -> Request:
        key = rng.randrange(count)
        row = rows[key]
        if op == "prepared_point":
            payload = {"op": "execute", "handle": None, "params": {"id": key}}
            return op, payload, [[row[c] for c in POINT_COLUMNS]]
        if op == "literal_point":
            sql = f"SELECT id, grp, v, n FROM kv WHERE id = {key}"
            return op, {"op": "query", "sql": sql}, [[row[c] for c in POINT_COLUMNS]]
        if op == "range10":
            low = rng.randrange(count - 10)
            sql = f"SELECT id, v FROM kv WHERE id >= {low} AND id < {low + 10}"
            return op, {"op": "query", "sql": sql}, [[r[0], r[2]] for r in rows[low : low + 10]]
        columns, predicate = shapes[rng.randrange(len(shapes))]
        suffix, check = ADHOC_PREDICATES[predicate]
        constant = rng.randrange(16) if predicate == 3 else rng.randrange(1000)
        sql = (
            f"SELECT {', '.join(COLUMN_NAMES[c] for c in columns)} FROM kv "
            f"WHERE id = {key}{suffix.format(c=constant)}"
        )
        expected = [[row[c] for c in columns]] if check(row, constant) else []
        return op, {"op": "query", "sql": sql}, expected

    streams = [
        [request(op) for op in rng.choices(ops, weights, k=size["stream_length"])]
        for _ in range(size["connections"])
    ]
    spec = {
        "num_segments": 2,
        "plan_cache": size["plan_cache"],
        "max_concurrent": 8,
        "max_queue": 16,
        "statement_timeout": 30.0,
        "drain_timeout": 5.0,
        "tables": [{"name": "kv", "columns": COLUMNS, "rows": rows}],
        "setup_sql": SETUP_SQL,
    }
    return Inputs(rows, streams, spec, size)


def setup(inputs: Inputs) -> State:
    server = ServerProcess(inputs.spec).start()
    try:
        clients = [connect(server.port) for _ in inputs.streams]
        for client, stream in zip(clients, inputs.streams):
            handle = client.prepare(POINT_SQL)
            for op, payload, _ in stream:
                if op == "prepared_point":
                    payload["handle"] = handle
    except BaseException:
        server.stop()
        raise
    return State(server, clients)


def teardown(state: State) -> Dict[str, Any]:
    return close_serving(state.server, state.clients)


def _check(record: Record) -> bool:
    reply = record.reply
    return bool(reply and reply.get("ok")) and sorted(reply["rows"]) == sorted(record.expect)


def run(state: State, inputs: Inputs, seconds: float, tracer) -> Measurement:
    # One untimed lap of each shape the cache can hold, so lazy set-up
    # (first plan of the three hot shapes) is not charged to the window.
    for client, stream in zip(state.clients, inputs.streams):
        for op in ("prepared_point", "literal_point", "range10"):
            send(client, next(payload for name, payload, _ in stream if name == op))
    loop = closed_loop(state.clients, inputs.streams, seconds, tracer)
    measurement = Measurement(elapsed_s=loop.elapsed_s, attempted=len(loop.records))
    for problem in loop.errors:
        measurement.attempted += 1
        measurement.fail(problem)
    for record in loop.records:
        if _check(record):
            measurement.samples.setdefault(record.op, []).append(record.latency_ms)
        else:
            measurement.fail(f"{record.op}: got {str(record.reply)[:120]} want {record.expect}")
    measurement.good_ops = len(measurement.latencies())
    return measurement


def _twin(inputs: Inputs) -> Database:
    """The same data in this process, to time the engine without the wire."""
    database = Database(num_segments=inputs.spec["num_segments"], plan_cache=inputs.size["plan_cache"])
    database.create_table("kv", COLUMNS)
    database.load_rows("kv", inputs.rows)
    for _, statement in SETUP_SQL:
        database.execute(statement)
    return database


def layers(state: State, inputs: Inputs, measurement: Measurement, tracer) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    stream = inputs.streams[0]
    statements = [p["sql"] for _, p, _ in stream[:600] if "sql" in p] + [POINT_SQL]
    out.update(probes.parser_probe(statements, tracer))
    twin = _twin(inputs)
    out.update(probes.plancache_probe(twin, statements, inputs.size["plan_cache"], tracer))

    for op, values in measurement.samples.items():
        out[f"serving.rtt_p50_ms.{op}"] = median(values)
    reads = measurement.latencies()
    out["client.read_p50_ms"] = median(reads)
    out["client.read_p95_ms"] = percentile(reads, 95.0, guard=False)
    out["serving.read_p99_ms"] = percentile(reads, 99.0, guard=False)

    # Idle-server round trip against the same statement run in process: the
    # frame + JSON + event loop + thread hand-off cost.
    client = state.clients[0]
    prepared = twin.prepare(POINT_SQL)
    point_requests = [r for r in stream if r[0] == "prepared_point"][:300]
    engine_s: Dict[str, List[float]] = {}
    rtts = []
    for rid, (_, payload, _) in enumerate(point_requests):
        with tracer.span("probe.idle_rtt", rid):
            start = time.perf_counter()
            send(client, payload)
            rtts.append(time.perf_counter() - start)
        with tracer.span("probe.embedded_execute", rid):
            start = time.perf_counter()
            prepared.execute(payload["params"])
            engine_s.setdefault("prepared_point", []).append(time.perf_counter() - start)
    if rtts:
        out["serving.wire_overhead_us"] = (median(rtts) - median(engine_s["prepared_point"])) * 1e6

    # Engine time per op class on the twin: what the wire time is not.
    for op, payload, _ in stream[:1500]:
        if "sql" in payload:
            start = time.perf_counter()
            twin.execute(payload["sql"])
            engine_s.setdefault(op, []).append(time.perf_counter() - start)
    rtt_total = sum(sum(values) for values in measurement.samples.values())
    engine_total = sum(
        median(engine_s[op]) * 1e3 * len(values)
        for op, values in measurement.samples.items()
        if op in engine_s
    )
    if rtt_total > 0:
        out["serving.self_frac"] = max(0.0, 1.0 - engine_total / rtt_total)

    out.update(
        probes.encode_probe(
            twin,
            {
                1: "SELECT id, grp, v, n FROM kv WHERE id = 1",
                100: "SELECT id, grp, v, n FROM kv WHERE id < 100",
                2000: "SELECT id, grp, v, n FROM kv WHERE id < 2000",
            },
            tracer,
        )
    )
    server_stats = client.stats()
    out.update(probes.plancache_counters(server_stats.get("plan_cache")))
    counters = server_stats.get("server", {})
    for key in ("served", "shed", "timed_out"):
        out[f"serving.{key}"] = counters.get(key)
    out["index.probe_us"] = median(engine_s["prepared_point"]) * 1e6 if engine_s.get("prepared_point") else None
    return out
