"""``serve_mixed``: open-loop reads beside a write stream, on a server subprocess.

Seeded Poisson arrivals over two connections at three fixed absolute rates
(R/2, R, 3R/2).  Reads — prepared point lookups, a filtered aggregate, a
top-k, a join lookup and a materialized-view read — contend with INSERT
batches, point UPDATEs and point DELETEs for the server's FIFO readers/writer
lock, and every UPDATE/DELETE stales the view the next ``mv_read`` recomputes.
Latency is timed from each request's due time.

Oracle: reads touch only the *stable band* (``q < 900``) that no write ever
changes, so each has an exact answer computed from the generated rows; writes
touch only the mutable band, each target at most once, so the final table and
view contents do not depend on how the two connections interleaved and are
checked against a pure-Python replay when the window closes.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro import Database

import layer_probes as probes
import sizes as frozen
from common import close_enough, median, percentile
from serving_support import (
    Arrival,
    Record,
    Request,
    ServerProcess,
    close_serving,
    connect,
    open_loop,
    send,
)
from workload import Measurement

NAME = "serve_mixed"
LOOP = "open"

FACT_COLUMNS = [
    ("id", "integer"),
    ("dim_id", "integer"),
    ("cat", "text"),
    ("q", "integer"),
    ("v", "double precision"),
]
DIM_COLUMNS = [("dim_id", "integer"), ("region", "text"), ("w", "double precision")]
VIEW_SQL = "SELECT cat, count(*) AS n, sum(v) AS total FROM fact GROUP BY cat"
SETUP_SQL = [
    ("index", "CREATE INDEX fact_id ON fact USING hash (id)"),
    ("analyze", "ANALYZE"),
    ("view", f"CREATE MATERIALIZED VIEW by_cat AS {VIEW_SQL}"),
]
POINT_SQL = "SELECT id, dim_id, cat, q, v FROM fact WHERE id = %(id)s"
STABLE_Q = 900  # rows with q below this are never written
READS = ("exec_point", "filter_agg", "topk", "join_lookup", "mv_read")
WRITES = ("insert_batch", "update_point", "delete_point")


@dataclass
class Inputs:
    seed: int
    size: Dict[str, Any]
    fact: List[Tuple[Any, ...]]
    dim: List[Tuple[Any, ...]]
    spec: Dict[str, Any]


@dataclass
class State:
    server: ServerProcess
    clients: list
    handles: List[str]
    #: replay of the mutable band: id -> row, as acknowledged writes leave it
    mutable: Dict[int, Tuple[Any, ...]]
    #: per connection, ids it may still update or delete (each used once)
    targets: List[List[int]]
    next_id: int
    slices: int = 0
    #: (op, statement) of the latest schedule, for the engine-side probes
    statements: List[Tuple[str, str]] = field(default_factory=list)


def generate(seed: int, size: Dict[str, Any]) -> Inputs:
    rng = random.Random(seed)
    cats = [f"cat{i:02d}" for i in range(size["categories"])]
    dim = [(i, f"r{i % 8}", round(rng.uniform(0.5, 2.0), 6)) for i in range(size["dim_rows"])]
    fact = [
        (
            i,
            rng.randrange(size["dim_rows"]),
            cats[rng.randrange(len(cats))],
            rng.randrange(1000),
            round(rng.uniform(0.0, 100.0), 9),
        )
        for i in range(size["fact_rows"])
    ]
    spec = {
        "num_segments": 2,
        "plan_cache": size["plan_cache"],
        "max_concurrent": 8,
        "max_queue": 16,
        "statement_timeout": 30.0,
        "drain_timeout": 5.0,
        "tables": [
            {"name": "fact", "columns": FACT_COLUMNS, "rows": fact},
            {"name": "dim", "columns": DIM_COLUMNS, "rows": dim},
        ],
        "setup_sql": SETUP_SQL,
    }
    return Inputs(seed, size, fact, dim, spec)


def setup(inputs: Inputs) -> State:
    server = ServerProcess(inputs.spec).start()
    try:
        clients = [connect(server.port) for _ in range(inputs.size["connections"])]
        handles = [client.prepare(POINT_SQL) for client in clients]
    except BaseException:
        server.stop()
        raise
    mutable = {row[0]: row for row in inputs.fact if row[3] >= STABLE_Q}
    ordered = sorted(mutable)
    targets = [ordered[i :: len(clients)] for i in range(len(clients))]
    return State(server, clients, handles, mutable, targets, next_id=len(inputs.fact))


def teardown(state: State) -> Dict[str, Any]:
    return close_serving(state.server, state.clients)


class _Requests:
    """Builds one connection's requests and their expected replies."""

    def __init__(self, inputs: Inputs, state: State, connection: int, rng: random.Random) -> None:
        self.inputs, self.state, self.connection, self.rng = inputs, state, connection, rng
        self.stable = [row for row in inputs.fact if row[3] < STABLE_Q]
        self.regions = {row[0]: row[1] for row in inputs.dim}
        self.cats = sorted({row[2] for row in inputs.fact})

    def build(self, op: str) -> Request:
        rng, state = self.rng, self.state
        if op == "exec_point":
            row = self.stable[rng.randrange(len(self.stable))]
            payload = {"op": "execute", "handle": state.handles[self.connection], "params": {"id": row[0]}}
            return op, payload, ("rows", [list(row)])
        if op == "filter_agg":
            low = rng.randrange(STABLE_Q - 50)
            hits = [row[4] for row in self.stable if low <= row[3] < low + 50]
            sql = f"SELECT count(*), sum(v) FROM fact WHERE q >= {low} AND q < {low + 50}"
            return op, {"op": "query", "sql": sql}, ("agg", len(hits), sum(hits))
        if op == "topk":
            q = rng.randrange(STABLE_Q)
            best = sorted((row for row in self.stable if row[3] == q), key=lambda r: -r[4])[:5]
            sql = f"SELECT id, v FROM fact WHERE q = {q} ORDER BY v DESC LIMIT 5"
            return op, {"op": "query", "sql": sql}, ("ordered", [[r[0], r[4]] for r in best])
        if op == "join_lookup":
            row = self.stable[rng.randrange(len(self.stable))]
            sql = (
                "SELECT f.id, f.v, d.region FROM fact f JOIN dim d ON f.dim_id = d.dim_id "
                f"WHERE f.id = {row[0]}"
            )
            return op, {"op": "query", "sql": sql}, ("rows", [[row[0], row[4], self.regions[row[1]]]])
        if op == "mv_read":
            return op, {"op": "query", "sql": "SELECT cat, n, total FROM by_cat"}, ("view",)
        if op == "insert_batch":
            rows = []
            for _ in range(self.inputs.size["insert_batch_rows"]):
                rows.append(
                    (
                        state.next_id,
                        rng.randrange(self.inputs.size["dim_rows"]),
                        self.cats[rng.randrange(len(self.cats))],
                        rng.randrange(STABLE_Q, 1000),
                        round(rng.uniform(0.0, 100.0), 9),
                    )
                )
                state.next_id += 1
            values = ", ".join(f"({r[0]}, {r[1]}, '{r[2]}', {r[3]}, {r[4]!r})" for r in rows)
            return op, {"op": "query", "sql": f"INSERT INTO fact VALUES {values}"}, ("insert", rows)
        pool = state.targets[self.connection]
        target = pool.pop(rng.randrange(len(pool)))
        if op == "update_point":
            value = round(rng.uniform(0.0, 100.0), 9)
            sql = f"UPDATE fact SET v = {value!r} WHERE id = {target}"
            return op, {"op": "query", "sql": sql}, ("update", target, value)
        return op, {"op": "query", "sql": f"DELETE FROM fact WHERE id = {target}"}, ("delete", target)


def _deck(rng: random.Random, ops: List[str], mix: Dict[str, int], total: int) -> List[str]:
    """``total`` op classes in the mix's exact proportions, shuffled.

    Drawing each op independently would let the class counts of a 12-second
    run wander by several percent from seed to seed; dealing from a deck keeps
    every seed's mix the same and leaves only the order to the seed.
    """
    weight = sum(mix[op] for op in ops)
    deck = [op for op in ops for _ in range(max(1, total * mix[op] // weight))]
    filler = max(ops, key=lambda op: mix[op])
    deck.extend([filler] * (total - len(deck)))
    rng.shuffle(deck)
    return deck[:total]


def _schedules(inputs: Inputs, state: State, seconds: float, ops: List[str]) -> List[List[Arrival]]:
    """Per connection: seeded Poisson arrivals, rung after rung.

    Each rung holds exactly rate x duration arrivals placed uniformly at
    random — a Poisson process conditioned on its count — so every seed
    offers the same load and only the spacing differs.
    """
    size = inputs.size
    schedules: List[List[Arrival]] = []
    for connection in range(size["connections"]):
        rng = random.Random(f"{inputs.seed}/{state.slices}/{connection}")
        requests = _Requests(inputs, state, connection, rng)
        times: List[Tuple[float, int]] = []
        rung_start = 0.0
        for rung, (factor, share) in enumerate(zip(size["rungs"], size["rung_share"])):
            rung_end = rung_start + seconds * share
            count = round(size["rate_ops_s"] * factor / size["connections"] * (rung_end - rung_start))
            times.extend(sorted((rng.uniform(rung_start, rung_end), rung) for _ in range(count)))
            rung_start = rung_end
        arrivals: List[Arrival] = []
        for (clock, rung), op in zip(times, _deck(rng, ops, size["mix"], len(times))):
            if op in ("update_point", "delete_point") and not state.targets[connection]:
                op = "insert_batch"  # pool dry: keep the write share, change no answer
            request = requests.build(op)
            if op == "insert_batch":
                # rows this connection inserts become its own later targets
                state.targets[connection].extend(row[0] for row in request[2][1])
            arrivals.append((clock, rung, request))
        schedules.append(arrivals)
    return schedules


def _check(record: Record, cats: int) -> bool:
    reply, expect = record.reply, record.expect
    if not (reply and reply.get("ok")):
        return False
    kind = expect[0]
    if kind == "rows":
        return reply["rows"] == expect[1]
    if kind == "agg":
        (count, total), = reply["rows"]
        return count == expect[1] and close_enough(total or 0.0, expect[2])
    if kind == "ordered":
        return reply["rows"] == expect[1]
    if kind == "view":
        return len(reply["rows"]) == cats and all(row[1] > 0 for row in reply["rows"])
    if kind == "insert":
        return reply["rowcount"] == len(expect[1])
    return reply["rowcount"] == 1  # update / delete of one live row


def _apply(state: State, expect: Tuple[Any, ...]) -> None:
    """Replay one acknowledged write on the mutable band."""
    kind = expect[0]
    if kind == "insert":
        for row in expect[1]:
            state.mutable[row[0]] = row
    elif kind == "update":
        row = state.mutable[expect[1]]
        state.mutable[expect[1]] = row[:4] + (expect[2],)
    elif kind == "delete":
        del state.mutable[expect[1]]


def _final_check(state: State, inputs: Inputs, measurement: Measurement) -> None:
    """Mutable band and view contents against the replay, once the loop has drained."""
    client = state.clients[0]
    measurement.attempted += 2
    reply = send(client, {"op": "query", "sql": f"SELECT id, dim_id, cat, q, v FROM fact WHERE q >= {STABLE_Q}"})
    if not reply.get("ok") or sorted(map(tuple, reply["rows"])) != sorted(state.mutable.values()):
        measurement.fail("final mutable-band contents differ from the replay of acknowledged writes")
    totals: Dict[str, List[float]] = {}
    for row in list(state.mutable.values()) + [r for r in inputs.fact if r[3] < STABLE_Q]:
        entry = totals.setdefault(row[2], [0, 0.0])
        entry[0] += 1
        entry[1] += row[4]
    reply = send(client, {"op": "query", "sql": "SELECT cat, n, total FROM by_cat"})
    got = {row[0]: row[1:] for row in reply.get("rows", [])} if reply.get("ok") else {}
    same = set(got) == set(totals) and all(
        got[cat][0] == n and close_enough(got[cat][1], total, rel=1e-9, abs_tol=1e-6)
        for cat, (n, total) in totals.items()
    )
    if not same:
        measurement.fail("final by_cat view differs from the replay")


def _rung_report(records: List[Record], rate: float) -> Dict[str, Any]:
    """One rung against the latency limits, with the growing-backlog test."""
    reads = [r.latency_ms for r in records if r.op in READS]
    writes = [r.latency_ms for r in records if r.op in WRITES]
    ordered = sorted(records, key=lambda r: r.due_s)
    third = max(1, len(ordered) // 3)
    early = [r.lag_ms for r in ordered[:third]]
    late = [r.lag_ms for r in ordered[-third:]]
    growing = bool(early and late) and (sum(late) / len(late)) > 2.0 * (sum(early) / len(early)) + 5.0
    report = {
        "rate_ops_s": rate,
        "requests": len(records),
        "failed": sum(1 for r in records if not r.ok),
        "read_p95_ms": percentile(reads, 95.0, guard=False) if reads else None,
        "write_p95_ms": percentile(writes, 95.0, guard=False) if writes else None,
        "backlog_growing": growing,
    }
    report["meets_limits"] = (
        report["failed"] == 0
        and not growing
        and reads and report["read_p95_ms"] <= frozen.READ_LIMIT_MS
        and writes and report["write_p95_ms"] <= frozen.WRITE_LIMIT_MS
    )
    return report


def run(state: State, inputs: Inputs, seconds: float, tracer, ops: Tuple[str, ...] = READS + WRITES) -> Measurement:
    size = inputs.size
    schedules = _schedules(inputs, state, seconds, list(ops))
    state.slices += 1
    state.statements = [
        (op, payload["sql"]) for _, _, (op, payload, _) in schedules[0][:400] if "sql" in payload
    ]
    # Untimed lap: first plan of every read shape, and a settled view.
    for client, handle in zip(state.clients, state.handles):
        send(client, {"op": "execute", "handle": handle, "params": {"id": 0}})
        send(client, {"op": "query", "sql": "SELECT cat, n, total FROM by_cat"})
    loop = open_loop(state.clients, schedules, tracer)
    measurement = Measurement(elapsed_s=loop.elapsed_s, attempted=len(loop.records))
    for problem in loop.errors:
        measurement.fail(problem)
    for record in loop.records:
        record.ok = _check(record, size["categories"])
        if not record.ok:
            measurement.fail(f"{record.op}: got {str(record.reply)[:120]} want {str(record.expect)[:80]}")
            continue
        if record.op in WRITES:
            _apply(state, record.expect)
        measurement.samples.setdefault(record.op, []).append(record.latency_ms)
        limit = frozen.READ_LIMIT_MS if record.op in READS else frozen.WRITE_LIMIT_MS
        if record.latency_ms <= limit:
            measurement.good_ops += 1
    if any(op in WRITES for op in ops):
        _final_check(state, inputs, measurement)

    # End-to-end percentiles cover the whole three-rung schedule (a fixed
    # load shape, and three times the samples); the read/write split below
    # is taken at rung R alone.
    middle = [r for r in loop.records if r.rung == 1 and r.ok]
    reads = [r.latency_ms for r in middle if r.op in READS]
    writes = [r.latency_ms for r in middle if r.op in WRITES]
    rungs = [
        _rung_report([r for r in loop.records if r.rung == i], size["rate_ops_s"] * factor)
        for i, factor in enumerate(size["rungs"])
    ]
    measurement.notes["rungs"] = rungs
    measurement.notes["seconds"] = seconds
    passing = [rung["rate_ops_s"] for rung in rungs if rung["meets_limits"]]
    extra = measurement.extra
    extra["client.rate_ok_ops_s"] = max(passing) if passing else 0.0
    extra["serving.gen_lag_p95_ms"] = percentile([r.lag_ms for r in loop.records], 95.0, guard=False)
    extra["serving.backlog_max"] = float(loop.backlog_max)
    if reads:
        extra["client.read_p50_ms"] = median(reads)
        extra["client.read_p95_ms"] = percentile(reads, 95.0, guard=False)
        extra["serving.read_p99_ms"] = percentile(reads, 99.0, guard=False)
    if writes:
        extra["client.write_p50_ms"] = median(writes)
        extra["client.write_p95_ms"] = percentile(writes, 95.0, guard=False)
        extra["serving.write_p99_ms"] = percentile(writes, 99.0, guard=False)
    return measurement


def _twin(inputs: Inputs) -> Database:
    database = Database(num_segments=inputs.spec["num_segments"], plan_cache=inputs.size["plan_cache"])
    for table, columns, rows in (("fact", FACT_COLUMNS, inputs.fact), ("dim", DIM_COLUMNS, inputs.dim)):
        database.create_table(table, columns)
        database.load_rows(table, rows)
    for _, statement in SETUP_SQL:
        database.execute(statement)
    return database


def layers(state: State, inputs: Inputs, measurement: Measurement, tracer) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for op, values in measurement.samples.items():
        out[f"serving.rtt_p50_ms.{op}"] = median(values)

    # the mixed schedule's statements, before the reads-only run replaces them
    labelled = state.statements
    statements = [sql for _, sql in labelled]
    # Reads alone at the same rates: what the write stream costs the readers.
    alone = run(state, inputs, min(4.0, measurement.notes["seconds"]), tracer, ops=READS)
    measurement.attempted += alone.attempted
    measurement.failed += alone.failed
    on, off = measurement.extra.get("client.read_p50_ms"), alone.extra.get("client.read_p50_ms")
    if on and off:
        out["serving.read_slowdown_under_writes_x"] = on / off

    twin = _twin(inputs)
    out.update(probes.parser_probe(statements, tracer))
    out.update(probes.plancache_probe(twin, statements, inputs.size["plan_cache"], tracer))

    # Engine time of the same statements in this process: what the client's
    # wait is not.  The rest (wire, JSON, hand-off, lock and queue wait) is
    # the serving layer's.
    engine_ms: Dict[str, List[float]] = {}
    prepared = twin.prepare(POINT_SQL)
    for rid, (op, sql) in enumerate(labelled + [("exec_point", "")] * 40):
        with tracer.span("probe.embedded_execute", rid):
            start = time.perf_counter()
            if op == "exec_point":
                prepared.execute({"id": inputs.fact[rid % len(inputs.fact)][0]})
            else:
                twin.execute(sql)
            engine_ms.setdefault(op, []).append((time.perf_counter() - start) * 1e3)
    waited = sum(sum(values) for values in measurement.samples.values())
    engine = sum(
        median(engine_ms[op]) * len(values)
        for op, values in measurement.samples.items()
        if op in engine_ms
    )
    if waited > 0:
        out["serving.self_frac"] = max(0.0, 1.0 - engine / waited)

    server_stats = state.clients[0].stats()
    out.update(probes.plancache_counters(server_stats.get("plan_cache")))
    counters = server_stats.get("server", {})
    for key in ("served", "shed", "timed_out"):
        out[f"serving.{key}"] = counters.get(key)
    views = server_stats.get("matviews") or [{}]
    out["matview.deltas_applied"] = views[0].get("deltas_applied")
    out["matview.recomputes"] = views[0].get("recomputes")
    return out
