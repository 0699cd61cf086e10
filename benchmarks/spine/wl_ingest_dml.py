"""``ingest_dml``: closed-loop embedded write stream with read probes.

Set-up bulk-loads, indexes, analyzes and defines an incremental view; the
timed stream then mixes INSERT batches, point and range UPDATEs, and point and
range DELETEs, with a filtered aggregate and a view read after every few
writes so cache invalidation and view recompute are charged to the write path.
``table`` / ``columnar`` / ``index`` / ``matview`` work here as a *writer*
where ``analytic_scan`` uses the same layers as a reader.

Oracle: a numpy replay of the stream (row id == array position) gives every
statement's row count and every probe's answer, and the final table contents
are compared row for row when the window closes.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import numpy as np

from repro import Database

import layer_probes as probes
from common import close_enough, median, peak_rss_mb, percentile
from workload import Measurement

NAME = "ingest_dml"
LOOP = "closed"

COLUMNS = [("id", "integer"), ("cat", "text"), ("q", "integer"), ("v", "double precision")]
VIEW_SQL = "SELECT cat, count(*) AS n, sum(v) AS total FROM t GROUP BY cat"
PROBE_SQL = "SELECT cat, n, total FROM by_cat"
WRITES = ("insert_batch", "update_point", "update_range", "delete_point", "delete_range")
PROBES = ("probe_filter_agg", "probe_mv_read")

#: (op class, statement, expected outcome)
Step = Tuple[str, str, Tuple[Any, ...]]


@dataclass
class Inputs:
    seed: int
    size: Dict[str, Any]
    cats: List[str]
    rows: List[Tuple[Any, ...]]


class Replay:
    """The table as the stream should leave it; row id is the array position."""

    def __init__(self, inputs: Inputs) -> None:
        count = len(inputs.rows)
        self.cats = inputs.cats
        self.count = count
        capacity = count * 2
        self.alive = np.zeros(capacity, dtype=bool)
        self.cat = np.zeros(capacity, dtype=np.int64)
        self.q = np.zeros(capacity, dtype=np.int64)
        self.v = np.zeros(capacity, dtype=np.float64)
        code = {name: i for i, name in enumerate(inputs.cats)}
        self.alive[:count] = True
        self.cat[:count] = [code[row[1]] for row in inputs.rows]
        self.q[:count] = [row[2] for row in inputs.rows]
        self.v[:count] = [row[3] for row in inputs.rows]

    def _grow(self, need: int) -> None:
        if need <= len(self.alive):
            return
        for name in ("alive", "cat", "q", "v"):
            old = getattr(self, name)
            new = np.zeros(max(need, 2 * len(old)), dtype=old.dtype)
            new[: len(old)] = old
            setattr(self, name, new)

    def insert(self, rows: List[Tuple[int, int, int, float]]) -> None:
        self._grow(self.count + len(rows))
        for row_id, cat, q, v in rows:
            self.alive[row_id], self.cat[row_id], self.q[row_id], self.v[row_id] = True, cat, q, v
        self.count += len(rows)

    def live_id(self, rng: random.Random) -> int:
        while True:
            candidate = rng.randrange(self.count)
            if self.alive[candidate]:
                return candidate

    def band(self, low: int, width: int) -> np.ndarray:
        return self.alive & (self.q >= low) & (self.q < low + width)

    def view(self) -> Dict[str, Tuple[int, float]]:
        live = self.alive[: self.count]
        counts = np.bincount(self.cat[: self.count][live], minlength=len(self.cats))
        sums = np.bincount(self.cat[: self.count][live], weights=self.v[: self.count][live], minlength=len(self.cats))
        return {self.cats[i]: (int(counts[i]), float(sums[i])) for i in range(len(self.cats)) if counts[i]}

    def rows(self) -> List[Tuple[Any, ...]]:
        ids = np.nonzero(self.alive[: self.count])[0]
        return [
            (int(i), self.cats[self.cat[i]], int(self.q[i]), float(self.v[i])) for i in ids
        ]


@dataclass
class State:
    database: Database
    replay: Replay
    rng: random.Random
    passes: int = 0
    steps_s: Dict[str, float] = field(default_factory=dict)
    #: the latest pass's statement texts, for the parser / planner probes
    last_statements: List[str] = field(default_factory=list)


def generate(seed: int, size: Dict[str, Any]) -> Inputs:
    rng = random.Random(seed)
    cats = [f"cat{i:02d}" for i in range(size["categories"])]
    rows = [
        (i, cats[rng.randrange(len(cats))], rng.randrange(1000), round(rng.uniform(0.0, 100.0), 6))
        for i in range(size["rows"])
    ]
    return Inputs(seed, size, cats, rows)


SETUP_SQL = [
    ("index", "CREATE INDEX t_id ON t (id)"),
    ("analyze", "ANALYZE t"),
    ("view", f"CREATE MATERIALIZED VIEW by_cat AS {VIEW_SQL}"),
]


def load(database: Database, inputs: Inputs, steps: Dict[str, float], statements=SETUP_SQL) -> None:
    start = time.perf_counter()
    database.create_table("t", COLUMNS)
    database.load_rows("t", inputs.rows)
    steps["load"] = time.perf_counter() - start
    for label, sql in statements:
        start = time.perf_counter()
        database.execute(sql)
        steps[label] = time.perf_counter() - start


def setup(inputs: Inputs) -> State:
    database = Database(num_segments=inputs.size["segments"])
    state = State(database, Replay(inputs), random.Random(inputs.seed + 1))
    load(database, inputs, state.steps_s)
    return state


def teardown(state: State) -> Dict[str, Any]:
    state.database.close()
    return {"peak_rss_mb": peak_rss_mb(), "steps_s": state.steps_s}


def _write(op: str, state: State, size: Dict[str, Any]) -> Step:
    """One write statement; the replay is advanced as it is generated."""
    rng, replay = state.rng, state.replay
    if op == "insert_batch":
        rows = [
            (replay.count + i, rng.randrange(len(replay.cats)), rng.randrange(1000), round(rng.uniform(0.0, 100.0), 6))
            for i in range(size["insert_batch_rows"])
        ]
        values = ", ".join(f"({i}, '{replay.cats[c]}', {q}, {v!r})" for i, c, q, v in rows)
        replay.insert(rows)
        return op, f"INSERT INTO t VALUES {values}", ("rowcount", len(rows))
    if op == "update_point":
        target, value = replay.live_id(rng), round(rng.uniform(0.0, 100.0), 6)
        replay.v[target] = value
        return op, f"UPDATE t SET v = {value!r} WHERE id = {target}", ("rowcount", 1)
    if op == "delete_point":
        target = replay.live_id(rng)
        replay.alive[target] = False
        return op, f"DELETE FROM t WHERE id = {target}", ("rowcount", 1)
    if op == "update_range":
        low = rng.randrange(990)
        mask = replay.band(low, 10)
        replay.v[mask] = replay.v[mask] + 1.5
        return op, f"UPDATE t SET v = v + 1.5 WHERE q >= {low} AND q < {low + 10}", ("rowcount", int(mask.sum()))
    low = rng.randrange(995)
    mask = replay.band(low, 5)
    replay.alive[mask] = False
    return op, f"DELETE FROM t WHERE q >= {low} AND q < {low + 5}", ("rowcount", int(mask.sum()))


def _probes(state: State) -> List[Step]:
    low = state.rng.randrange(900)
    mask = state.replay.band(low, 100)
    return [
        (
            "probe_filter_agg",
            f"SELECT count(*), sum(v) FROM t WHERE q >= {low} AND q < {low + 100}",
            ("agg", int(mask.sum()), float(state.replay.v[mask].sum())),
        ),
        ("probe_mv_read", PROBE_SQL, ("view", state.replay.view())),
    ]


def next_pass(state: State, size: Dict[str, Any]) -> List[Step]:
    """One block of the stream: the frozen write mix, shuffled, with probes."""
    writes = [op for op, count in size["block"].items() for _ in range(count)]
    state.rng.shuffle(writes)
    steps: List[Step] = []
    for position, op in enumerate(writes, start=1):
        steps.append(_write(op, state, size))
        if position % size["probe_every"] == 0:
            steps.extend(_probes(state))
    return steps


def _matches(result: Any, expect: Tuple[Any, ...]) -> bool:
    if expect[0] == "rowcount":
        return result.rowcount == expect[1]
    if expect[0] == "agg":
        (count, total), = result.rows
        return count == expect[1] and close_enough(total or 0.0, expect[2])
    got = {row[0]: row[1:] for row in result.rows}
    return set(got) == set(expect[1]) and all(
        got[cat][0] == n and close_enough(got[cat][1], total, abs_tol=1e-6)
        for cat, (n, total) in expect[1].items()
    )


def run(state: State, inputs: Inputs, seconds: float, tracer) -> Measurement:
    database = state.database
    measurement = Measurement()
    pass_times: List[float] = []
    checks: List[Tuple[str, Any, Tuple[Any, ...]]] = []
    deadline = time.perf_counter() + seconds
    while len(pass_times) < inputs.size.get("min_passes", 1) or time.perf_counter() < deadline:
        steps = next_pass(state, inputs.size)
        state.passes += 1
        state.last_statements = [sql for _, sql, _ in steps]
        pass_start = time.perf_counter()
        for position, (op, sql, expect) in enumerate(steps):
            rid = state.passes * 1000 + position
            start = time.perf_counter()
            if tracer.enabled:
                with tracer.span("op." + op, rid):
                    result = probes.staged_execute(database, sql, tracer, rid, label=op)
            else:
                result = database.execute(sql)
            measurement.samples.setdefault(op, []).append((time.perf_counter() - start) * 1e3)
            checks.append((op, result, expect))
        pass_times.append(time.perf_counter() - pass_start)
    measurement.elapsed_s = sum(pass_times)
    measurement.attempted = len(checks) + 1
    for op, result, expect in checks:
        if _matches(result, expect):
            measurement.good_ops += 1
        else:
            measurement.fail(f"{op}: got {str(result.rows)[:80]} rowcount={result.rowcount}, want {str(expect)[:80]}")
    final = database.execute("SELECT id, cat, q, v FROM t")
    if sorted(final.rows) != state.replay.rows():
        measurement.fail("final table contents differ from the replay of the stream")
    reads = [v for op in PROBES for v in measurement.samples.get(op, [])]
    writes = [v for op in WRITES for v in measurement.samples.get(op, [])]
    extra = measurement.extra
    extra["client.pass_s"] = median(pass_times)
    extra["client.read_p50_ms"] = median(reads)
    extra["client.read_p95_ms"] = percentile(reads, 95.0, guard=False)
    extra["client.write_p50_ms"] = median(writes)
    extra["client.write_p95_ms"] = percentile(writes, 95.0, guard=False)
    measurement.notes["passes"] = len(pass_times)
    return measurement


def _timed_ms(database: Database, sql: str, tracer, name: str, rid: int) -> float:
    with tracer.span(name, rid):
        start = time.perf_counter()
        database.execute(sql)
        return (time.perf_counter() - start) * 1e3


def layers(state: State, inputs: Inputs, measurement: Measurement, tracer) -> Dict[str, Any]:
    database, size = state.database, inputs.size
    out: Dict[str, Any] = {}
    for op in WRITES:
        out[f"table.op_ms.{op}"] = probes.span_median(tracer, f"executor.execute.{op}", 1e3)
    statements = state.last_statements
    out.update(probes.parser_probe(statements, tracer))
    out["planner.explain_ms"] = probes.explain_probe(
        database, [s for s in statements if s.startswith("SELECT")], tracer
    )

    # View upkeep as the writer pays it: the same INSERTs with and without a view.
    twin = Database(num_segments=size["segments"])
    twin_steps: Dict[str, float] = {}
    load(twin, inputs, twin_steps, statements=SETUP_SQL[:1])  # index only: no view, no statistics
    with_view, without_view, stale, fresh, after_write, steady, point = [], [], [], [], [], [], []
    scan = "SELECT count(*), sum(v) FROM t WHERE q >= 100 AND q < 200"
    for rid in range(8):
        base = 10_000_000 + rid * 100
        values = ", ".join(f"({base + i}, 'cat00', 999, 1.0)" for i in range(size["insert_batch_rows"]))
        insert = f"INSERT INTO t VALUES {values}"
        with_view.append(_timed_ms(database, insert, tracer, "matview.insert_with_view", rid))
        without_view.append(_timed_ms(twin, insert, tracer, "matview.insert_without_view", rid))
        after_write.append(_timed_ms(database, scan, tracer, "columnar.scan_after_write", rid))
        steady.append(_timed_ms(database, scan, tracer, "columnar.scan_steady", rid))
        database.execute(f"UPDATE t SET v = 2.0 WHERE id = {base}")
        stale.append(_timed_ms(database, PROBE_SQL, tracer, "matview.read_stale", rid))
        fresh.append(_timed_ms(database, PROBE_SQL, tracer, "matview.read_fresh", rid))
        point.append(_timed_ms(database, f"SELECT id, v FROM t WHERE id = {base + 1}", tracer, "index.probe", rid))
    twin.close()
    out["matview.fold_ms_per_insert"] = median(with_view) - median(without_view)
    out["matview.read_stale_ms"] = median(stale)
    out["matview.read_fresh_ms"] = median(fresh)
    out["columnar.read_after_write_ms"] = median(after_write) - median(steady)
    out["index.probe_us"] = median(point) * 1e3
    out["matview.create_ms"] = state.steps_s["view"] * 1e3
    out["index.create_ms"] = state.steps_s["index"] * 1e3
    out["planner.analyze_ms"] = state.steps_s["analyze"] * 1e3
    out["columnar.load_rows_per_s"] = len(inputs.rows) / state.steps_s["load"]
    describe = getattr(getattr(database, "catalog", None), "matviews", None)
    views = describe() if callable(describe) else []
    if views:
        out["matview.deltas_applied"] = views[0].get("deltas_applied")
        out["matview.recomputes"] = views[0].get("recomputes")
    return out
