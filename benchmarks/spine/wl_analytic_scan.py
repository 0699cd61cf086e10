"""``analytic_scan``: closed-loop embedded analytics, one thread, no server.

A fact table (numeric and dictionary-text columns) joined to a small
dimension; every pass runs eight op classes with fresh literals at fixed
selectivity.  ``compile`` / ``columnar`` / ``vectorized`` / ``join`` /
``segments`` / ``executor`` do all the work; serving, the plan cache and the
write path do none, so this is the control for every serving or write-path
change and the target for every engine change.

Oracle: numpy over the generated arrays (sums compared to a relative 1e-9,
because the engine and numpy add in different orders).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro import Database

import layer_probes as probes
from common import close_enough, median, peak_rss_mb
from workload import Measurement

NAME = "analytic_scan"
LOOP = "closed"

FACT_COLUMNS = [
    ("id", "integer"),
    ("dim_id", "integer"),
    ("cat", "text"),
    ("k", "integer"),
    ("q", "integer"),
    ("v", "double precision"),
    ("w", "double precision"),
]
DIM_COLUMNS = [("dim_id", "integer"), ("region", "text"), ("weight", "double precision")]
OPS = (
    "filter_agg", "text_pred", "groupby_low", "groupby_high",
    "join_agg", "topk", "select_rows", "window_sum",
)
REGIONS = 8


@dataclass
class Inputs:
    seed: int
    size: Dict[str, Any]
    arrays: Dict[str, np.ndarray]
    cats: List[str]
    fact_rows: List[Tuple[Any, ...]]
    dim_rows: List[Tuple[Any, ...]]


@dataclass
class State:
    database: Database
    rng: np.random.Generator
    passes: int = 0
    steps_s: Dict[str, float] = field(default_factory=dict)
    #: the latest result of each op class, for the counters in ``ResultSet.stats``
    last_results: Dict[str, Any] = field(default_factory=dict)


def generate(seed: int, size: Dict[str, Any]) -> Inputs:
    rng = np.random.default_rng(seed)
    count, dims = size["fact_rows"], size["dim_rows"]
    cats = [f"cat{i:02d}" for i in range(size["categories"])]
    arrays = {
        "id": np.arange(count),
        "dim_id": rng.integers(0, dims, count),
        "cat": rng.integers(0, len(cats), count),
        "k": rng.integers(0, max(1, count // 10), count),
        "q": rng.integers(0, 1000, count),
        "v": np.round(rng.uniform(0.0, 100.0, count), 6),
        "w": np.round(rng.uniform(0.0, 1.0, count), 6),
        "region": np.arange(dims) % REGIONS,
    }
    fact_rows = list(
        zip(
            arrays["id"].tolist(),
            arrays["dim_id"].tolist(),
            [cats[c] for c in arrays["cat"].tolist()],
            arrays["k"].tolist(),
            arrays["q"].tolist(),
            arrays["v"].tolist(),
            arrays["w"].tolist(),
        )
    )
    dim_rows = [(i, f"r{i % REGIONS}", 1.0 + (i % 7) * 0.25) for i in range(dims)]
    return Inputs(seed, size, arrays, cats, fact_rows, dim_rows)


def load_tables(database: Database, inputs: Inputs) -> None:
    database.create_table("fact", FACT_COLUMNS)
    database.load_rows("fact", inputs.fact_rows)
    database.create_table("dim", DIM_COLUMNS)
    database.load_rows("dim", inputs.dim_rows)


def load(database: Database, inputs: Inputs, steps: Dict[str, float]) -> None:
    """Create, load, index and analyze; per-step seconds land in ``steps``."""
    start = time.perf_counter()
    load_tables(database, inputs)
    steps["load"] = time.perf_counter() - start
    start = time.perf_counter()
    database.execute("CREATE INDEX fact_id ON fact (id)")
    steps["index"] = time.perf_counter() - start
    start = time.perf_counter()
    database.execute("ANALYZE")
    steps["analyze"] = time.perf_counter() - start


def setup(inputs: Inputs) -> State:
    database = Database(num_segments=inputs.size["segments"])
    state = State(database, np.random.default_rng(inputs.seed + 1))
    load(database, inputs, state.steps_s)
    return state


def teardown(state: State) -> Dict[str, Any]:
    state.database.close()
    return {"peak_rss_mb": peak_rss_mb(), "steps_s": state.steps_s}


# -- statements and their numpy oracles ---------------------------------------

Check = Callable[[List[Tuple[Any, ...]]], bool]


def _sums_match(got: Dict[Any, Tuple[int, float]], counts: np.ndarray, sums: np.ndarray, keys) -> bool:
    present = np.nonzero(counts)[0]
    if len(got) != len(present):
        return False
    for code in present.tolist():
        entry = got.get(keys[code] if keys is not None else code)
        if entry is None or entry[0] != counts[code] or not close_enough(entry[1], float(sums[code])):
            return False
    return True


def statement(op: str, inputs: Inputs, rng: np.random.Generator) -> Tuple[str, Check]:
    """One statement of class ``op`` with fresh literals, and its oracle."""
    a = inputs.arrays
    q, v = a["q"], a["v"]
    if op == "filter_agg":
        low = int(rng.integers(0, 900))
        mask = (q >= low) & (q < low + 100)
        sql = f"SELECT count(*), sum(v) FROM fact WHERE q >= {low} AND q < {low + 100}"
        return sql, lambda rows: rows[0][0] == int(mask.sum()) and close_enough(rows[0][1], float(v[mask].sum()))
    if op == "text_pred":
        code = int(rng.integers(0, len(inputs.cats)))
        mask = a["cat"] == code
        sql = f"SELECT count(*), sum(w) FROM fact WHERE cat = '{inputs.cats[code]}'"
        return sql, lambda rows: rows[0][0] == int(mask.sum()) and close_enough(rows[0][1], float(a["w"][mask].sum()))
    if op in ("groupby_low", "groupby_high", "join_agg", "topk"):
        skip = int(rng.integers(0, 1000))
        keep = q != skip
    if op == "groupby_low":
        counts = np.bincount(a["cat"][keep], minlength=len(inputs.cats))
        sums = np.bincount(a["cat"][keep], weights=v[keep], minlength=len(inputs.cats))
        sql = f"SELECT cat, count(*), sum(v) FROM fact WHERE q != {skip} GROUP BY cat"
        return sql, lambda rows: _sums_match({r[0]: r[1:] for r in rows}, counts, sums, inputs.cats)
    if op == "groupby_high":
        counts = np.bincount(a["k"][keep])
        sums = np.bincount(a["k"][keep], weights=v[keep])
        sql = f"SELECT k, count(*), sum(v) FROM fact WHERE q != {skip} GROUP BY k"
        return sql, lambda rows: _sums_match({r[0]: r[1:] for r in rows}, counts, sums, None)
    if op == "join_agg":
        region = a["region"][a["dim_id"][keep]]
        counts = np.bincount(region, minlength=REGIONS)
        sums = np.bincount(region, weights=v[keep], minlength=REGIONS)
        sql = (
            "SELECT d.region, count(*), sum(f.v) FROM fact f JOIN dim d ON f.dim_id = d.dim_id "
            f"WHERE f.q != {skip} GROUP BY d.region"
        )
        names = [f"r{i}" for i in range(REGIONS)]
        return sql, lambda rows: _sums_match({r[0]: r[1:] for r in rows}, counts, sums, names)
    if op == "topk":
        best = np.sort(v[keep])[-10:][::-1].tolist()
        sql = f"SELECT id, v FROM fact WHERE q != {skip} ORDER BY v DESC LIMIT 10"
        return sql, lambda rows: [r[1] for r in rows] == best and all(v[r[0]] == r[1] and q[r[0]] != skip for r in rows)
    low = int(rng.integers(0, 990))
    chosen = np.nonzero((q >= low) & (q < low + 10))[0]
    if op == "select_rows":
        sql = f"SELECT id, cat, v FROM fact WHERE q >= {low} AND q < {low + 10}"
        want = sorted((int(i), inputs.cats[a["cat"][i]], float(v[i])) for i in chosen)
        return sql, lambda rows: sorted(rows) == want
    # window_sum: running sum of v within each cat, in id order (ids ascend in ``chosen``)
    sql = (
        "SELECT id, sum(v) OVER (PARTITION BY cat ORDER BY id) FROM fact "
        f"WHERE q >= {low} AND q < {low + 10}"
    )
    running: Dict[int, float] = {}
    want_sum: Dict[int, float] = {}
    for i in chosen.tolist():
        code = int(a["cat"][i])
        running[code] = running.get(code, 0.0) + float(v[i])
        want_sum[i] = running[code]
    return sql, lambda rows: len(rows) == len(want_sum) and all(
        close_enough(total, want_sum.get(row_id, float("nan"))) for row_id, total in rows
    )


def run(state: State, inputs: Inputs, seconds: float, tracer) -> Measurement:
    database, repeats = state.database, inputs.size["repeats"]
    measurement = Measurement()
    pending: List[Tuple[str, Check, List[Tuple[Any, ...]]]] = []
    pass_times: List[float] = []
    # One untimed lap: lazy column views and dictionary look-ups fill here.
    for op in OPS:
        database.execute(statement(op, inputs, state.rng)[0])
    deadline = time.perf_counter() + seconds
    while len(pass_times) < inputs.size.get("min_passes", 1) or time.perf_counter() < deadline:
        state.passes += 1
        pass_start = time.perf_counter()
        for op in OPS:
            laps = []
            for lap in range(repeats[op]):
                sql, check = statement(op, inputs, state.rng)
                rid = state.passes * 100 + lap
                start = time.perf_counter()
                if tracer.enabled:
                    with tracer.span("op." + op, rid):
                        result = probes.staged_execute(database, sql, tracer, rid, label=op)
                else:
                    result = database.execute(sql)
                laps.append((time.perf_counter() - start) * 1e3)
                pending.append((op, check, result.rows))
                state.last_results[op] = result
            measurement.samples.setdefault(op, []).extend(laps)
        pass_times.append(time.perf_counter() - pass_start)
    measurement.elapsed_s = sum(pass_times)
    measurement.attempted = len(pending)
    for op, check, rows in pending:
        if check(rows):
            measurement.good_ops += 1
        else:
            measurement.fail(f"{op}: result differs from the numpy oracle ({len(rows)} rows)")
    measurement.extra["client.pass_s"] = median(pass_times)
    measurement.notes["passes"] = len(pass_times)
    return measurement


def layers(state: State, inputs: Inputs, measurement: Measurement, tracer) -> Dict[str, Any]:
    database = state.database
    out: Dict[str, Any] = {}
    last = state.last_results
    rng = np.random.default_rng(inputs.seed + 2)
    statements = [statement(op, inputs, rng)[0] for op in OPS for _ in range(10)]
    out.update(probes.parser_probe(statements, tracer))
    out["planner.explain_ms"] = probes.explain_probe(database, statements[::10], tracer)
    for op in OPS:
        out[f"executor.exec_ms.{op}"] = probes.span_median(tracer, f"executor.execute.{op}", 1e3)
    cheap = [s for s in statements if s.startswith("SELECT count(*)")]
    out["executor.facade_overhead_us"] = probes.facade_overhead_us(database, cheap, tracer)

    selected = last.get("select_rows")
    scanned = probes.stat(selected, "rows_scanned")
    if scanned is not None and selected is not None and selected.rows:
        out["executor.rows_scanned_per_result_row"] = scanned / len(selected.rows)
    flags = [probes.stat(result, "where_vectorized") for result in last.values()]
    flags = [flag for flag in flags if flag is not None]
    if flags:
        out["executor.vectorized_frac"] = sum(map(bool, flags)) / len(flags)
    joined = last.get("join_agg")
    strategy = probes.stat(joined, "join_strategy")
    if strategy:
        steps = strategy.split(",")
        out["join.hash_frac"] = sum(step.startswith("hash") for step in steps) / len(steps)
    out["join.rows_emitted"] = probes.stat(joined, "join_rows_emitted")
    timings = probes.stat(last.get("groupby_low"), "aggregate_timings") or []
    fold = getattr(timings[0], "serial_seconds", None) if timings else None
    out["segments.fold_ms"] = fold * 1e3 if fold is not None else None

    # Storage as a reader sees it: load rate (from set-up), space, and the
    # first scan of a freshly loaded copy against its steady state.
    rows = len(inputs.fact_rows) + len(inputs.dim_rows)
    out["columnar.load_rows_per_s"] = rows / state.steps_s["load"]
    out["index.create_ms"] = state.steps_s["index"] * 1e3
    out["planner.analyze_ms"] = state.steps_s["analyze"] * 1e3
    twin = Database(num_segments=inputs.size["segments"])
    out["columnar.bytes_per_row"] = probes.traced_bytes_per_row(
        lambda: load_tables(twin, inputs), rows
    )
    scan = "SELECT count(*), sum(v) FROM fact WHERE q >= 100 AND q < 200"
    timings_ms = []
    for rid in range(6):
        with tracer.span("columnar.scan", rid):
            start = time.perf_counter()
            twin.execute(scan)
            timings_ms.append((time.perf_counter() - start) * 1e3)
    out["columnar.cold_first_scan_ms"] = timings_ms[0] - median(timings_ms[1:])
    twin.close()
    return out
