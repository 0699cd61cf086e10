"""``paper_methods``: the paper's own runs at laptop scale, four segments.

Figure 4 cells of ``linregr`` (three kernel generations, k = 10/40/80), one
Figure 5 cell on a *measured* two-worker pool, the Figure 3 driver loops
(IRLS logistic regression, k-means, SGD) with fixed seeds and iteration caps,
naive Bayes, and the Table 1 sketches.  ``methods`` / ``convex`` / ``driver``
/ ``aggregates`` / ``parallel`` do the work; the parser and planner do almost
nothing.

Oracles: ``numpy.linalg.lstsq`` for every linregr cell, a numpy Newton
iteration for logistic regression, recomputed inertia for k-means, per-class
numpy moments for naive Bayes, and each sketch's stated error bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import numpy as np

from repro import Database
from repro.convex import sgd
from repro.convex.objectives import LogisticObjective
from repro.datasets import (
    load_logistic_table,
    load_points_table,
    load_regression_table,
    make_blobs,
    make_logistic,
    make_regression,
)
from repro.methods import kmeans, linear_regression, logistic_regression, naive_bayes, quantiles
from repro.methods.sketches import countmin, fm

import layer_probes as probes
from common import median, peak_rss_mb
from workload import Measurement

NAME = "paper_methods"
LOOP = "closed"

#: op class -> (table, linregr kernel) for the Figure 4 / 5 cells
LINREGR_CELLS = {
    "linregr_v03_k10": ("r10", "optimized"),
    "linregr_v03_k80": ("r80", "optimized"),
    "linregr_v021_k40": ("r40", "unoptimized"),
    "linregr_v01_k40": ("r40", "naive"),
    "linregr_v021_k80_pool2": ("r80", "unoptimized"),
}
OPS = tuple(LINREGR_CELLS) + ("logregr_irls", "kmeans", "sgd_logistic", "naive_bayes", "sketch_profile")
DRIVER_OPS = ("logregr_irls", "kmeans", "sgd_logistic")
QUANTILE_FRACTIONS = (0.25, 0.5, 0.75)
SKETCH_EPS = 0.01


@dataclass
class Inputs:
    seed: int
    size: Dict[str, Any]
    regression: Dict[str, Any]
    logistic: Any
    points: np.ndarray
    events: List[Tuple[int, int, float]]
    #: reference answers the engine never sees
    lstsq: Dict[str, np.ndarray]
    newton: np.ndarray


@dataclass
class State:
    database: Database
    pool_database: Database
    pool_start_s: float
    iterations: Dict[str, int] = field(default_factory=dict)
    passes: int = 0


def _newton_logistic(features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Maximum-likelihood logistic coefficients by plain Newton steps."""
    coef = np.zeros(features.shape[1])
    for _ in range(50):
        p = 1.0 / (1.0 + np.exp(-(features @ coef)))
        gradient = features.T @ (labels - p)
        hessian = (features * (p * (1.0 - p))[:, None]).T @ features
        step = np.linalg.solve(hessian, gradient)
        coef = coef + step
        if np.linalg.norm(step) <= 1e-10 * max(1.0, np.linalg.norm(coef)):
            break
    return coef


def generate(seed: int, size: Dict[str, Any]) -> Inputs:
    rows = size["rows"]
    regression = {
        f"r{k}": make_regression(rows, k, noise=0.5, seed=seed * 1000 + k) for k in (10, 40, 80)
    }
    logistic = make_logistic(rows, size["logregr_features"], seed=seed * 1000 + 1)
    # Overlapping blobs, so Lloyd's algorithm runs to its iteration cap on every seed.
    points, _, _ = make_blobs(
        rows, size["kmeans_dims"], size["kmeans_k"], spread=2.0, separation=3.0, seed=seed * 1000 + 2
    )
    rng = np.random.default_rng(seed * 1000 + 3)
    # Zipf-ish items so the Count-Min probes meet both heavy and rare values.
    items = np.minimum(rng.zipf(1.3, rows), 5000)
    events = list(zip(range(rows), items.tolist(), np.round(rng.normal(50.0, 15.0, rows), 6).tolist()))
    lstsq = {
        name: np.linalg.lstsq(data.features, data.response, rcond=None)[0]
        for name, data in regression.items()
    }
    return Inputs(
        seed, size, regression, logistic, points, events, lstsq,
        _newton_logistic(logistic.features, logistic.labels),
    )


def _load(database: Database, inputs: Inputs, tables: Tuple[str, ...]) -> None:
    for name in tables:
        load_regression_table(database, name, inputs.regression[name])


def setup(inputs: Inputs) -> State:
    size = inputs.size
    database = Database(num_segments=size["segments"])
    _load(database, inputs, ("r10", "r40", "r80"))
    load_logistic_table(database, "logi", inputs.logistic)
    load_points_table(database, "pts", inputs.points)
    database.create_table("events", [("id", "integer"), ("item", "integer"), ("x", "double precision")])
    database.load_rows("events", inputs.events)
    pool_database = Database(num_segments=size["segments"], parallel=size["pool_workers"])
    try:
        _load(pool_database, inputs, ("r80",))
        start = time.perf_counter()
        pool_database.ensure_parallel_workers()
        pool_start_s = time.perf_counter() - start
    except BaseException:
        pool_database.close()
        database.close()
        raise
    return State(database, pool_database, pool_start_s)


def teardown(state: State) -> Dict[str, Any]:
    try:
        state.pool_database.close()
    finally:
        state.database.close()
    return {"peak_rss_mb": peak_rss_mb()}


# -- one call per op class, and what each must satisfy -------------------------


def _relative_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(got) - want) / np.linalg.norm(want))


def call(op: str, state: State, inputs: Inputs) -> Any:
    """The method driver behind one op class."""
    size, database = inputs.size, state.database
    if op in LINREGR_CELLS:
        table, kernel = LINREGR_CELLS[op]
        target = state.pool_database if op.endswith("pool2") else database
        return linear_regression.train(target, table, kernel=kernel)
    if op == "logregr_irls":
        # tolerance 0: every seed runs the same number of IRLS steps
        return logistic_regression.train(
            database, "logi", max_iterations=size["logregr_iterations"], tolerance=0.0
        )
    if op == "kmeans":
        return kmeans.train(
            database, "pts", k=size["kmeans_k"], seed=inputs.seed,
            max_iterations=size["kmeans_max_iterations"],
        )
    if op == "sgd_logistic":
        objective = LogisticObjective(size["logregr_features"])
        return sgd.train(
            database, "logi", ["y", "x"], objective, max_epochs=size["sgd_epochs"], tolerance=0.0
        )
    if op == "naive_bayes":
        return naive_bayes.train_gaussian(database, "logi", "y", "x")
    return (
        quantiles.approximate_quantiles(database, "events", "x", QUANTILE_FRACTIONS),
        fm.count_distinct(database, "events", "item"),
        countmin.sketch_column(database, "events", "item", eps=SKETCH_EPS),
    )


def verify(op: str, result: Any, state: State, inputs: Inputs, notes: Dict[str, Any]) -> bool:
    """Check one result against an oracle that shares no code with the engine."""
    if op in LINREGR_CELLS:
        error = _relative_error(result.coef, inputs.lstsq[LINREGR_CELLS[op][0]])
        notes["linregr_coef_rel_err"] = max(notes.get("linregr_coef_rel_err", 0.0), error)
        return error <= 1e-6 and result.num_rows == inputs.size["rows"]
    if op == "logregr_irls":
        state.iterations.setdefault(op, result.num_iterations)
        return (
            result.num_iterations == state.iterations[op]
            and _relative_error(result.coef, inputs.newton) <= 1e-4
        )
    if op == "kmeans":
        state.iterations.setdefault(op, result.num_iterations)
        distances = ((inputs.points[:, None, :] - result.centroids[None, :, :]) ** 2).sum(axis=2)
        inertia = float(distances.min(axis=1).sum())
        history = result.objective_history
        return (
            result.num_iterations == state.iterations[op]
            and abs(result.objective - inertia) <= 1e-6 * inertia
            and all(later <= earlier * (1 + 1e-9) for earlier, later in zip(history, history[1:]))
        )
    if op == "sgd_logistic":
        state.iterations.setdefault(op, result.num_epochs)
        signed = np.where(inputs.logistic.labels > 0, 1.0, -1.0)
        margins = signed * (inputs.logistic.features @ result.model)
        loss = float(np.mean(np.log1p(np.exp(-margins))))
        return (
            result.num_epochs == state.iterations[op] == inputs.size["sgd_epochs"]
            and np.isfinite(loss)
            and loss < np.log(2.0)
            and result.loss_history[-1] < result.loss_history[0]
        )
    if op == "naive_bayes":
        for index, label in enumerate(result.classes):
            rows = inputs.logistic.features[inputs.logistic.labels == label]
            if not (
                np.isclose(result.priors[index], len(rows) / len(inputs.logistic.labels))
                and np.allclose(result.means[index], rows.mean(axis=0), rtol=1e-9, atol=1e-12)
                and np.allclose(result.variances[index], rows.var(axis=0), rtol=1e-6, atol=1e-9)
            ):
                return False
        return len(result.classes) == 2
    estimates, distinct, sketch = result
    xs = np.sort(np.asarray([event[2] for event in inputs.events]))
    items = np.asarray([event[1] for event in inputs.events])
    ranks_ok = all(
        abs(np.searchsorted(xs, estimate) / len(xs) - fraction) <= 0.06
        for fraction, estimate in zip(QUANTILE_FRACTIONS, estimates)
    )
    true_distinct = len(np.unique(items))
    values, counts = np.unique(items, return_counts=True)
    probe = list(zip(values[:10].tolist(), counts[:10].tolist())) + list(
        zip(values[-10:].tolist(), counts[-10:].tolist())
    )
    never_under = all(sketch.estimate(value) >= count for value, count in probe)
    within = sum(sketch.estimate(value) <= count + SKETCH_EPS * len(items) for value, count in probe)
    return (
        ranks_ok
        and 0.6 * true_distinct <= distinct <= 1.6 * true_distinct
        and never_under
        and within >= len(probe) - 1
    )


def run(state: State, inputs: Inputs, seconds: float, tracer) -> Measurement:
    measurement = Measurement()
    pass_times: List[float] = []
    results: List[Tuple[str, Any]] = []
    for op in OPS:  # one untimed lap: aggregates registered, lazy column views filled
        call(op, state, inputs)
    deadline = time.perf_counter() + seconds
    while len(pass_times) < inputs.size.get("min_passes", 1) or time.perf_counter() < deadline:
        state.passes += 1
        pass_start = time.perf_counter()
        for op in OPS:
            for _ in range(inputs.size["repeats"].get(op, 1)):
                start = time.perf_counter()
                with tracer.span("methods." + op, state.passes):
                    result = call(op, state, inputs)
                measurement.samples.setdefault(op, []).append((time.perf_counter() - start) * 1e3)
                results.append((op, result))
        pass_times.append(time.perf_counter() - pass_start)
    measurement.elapsed_s = sum(pass_times)
    measurement.attempted = len(results)
    for op, result in results:
        if verify(op, result, state, inputs, measurement.notes):
            measurement.good_ops += 1
        else:
            measurement.fail(f"{op}: result fails its oracle")
    measurement.extra["client.pass_s"] = median(pass_times)
    for op in DRIVER_OPS:
        measurement.extra[f"driver.iterations.{op}"] = float(state.iterations[op])
        measurement.extra[f"driver.ms_per_iteration.{op}"] = (
            median(measurement.samples[op]) / state.iterations[op]
        )
    measurement.extra["methods.linregr_coef_rel_err"] = measurement.notes["linregr_coef_rel_err"]
    measurement.notes["passes"] = len(pass_times)
    return measurement


def layers(state: State, inputs: Inputs, measurement: Measurement, tracer) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for op in OPS:
        out[f"methods.op_ms.{op}"] = probes.span_median(tracer, "methods." + op, 1e3)
    out["parallel.pool_start_ms"] = state.pool_start_s * 1e3

    # The Figure 5 cell on the pool against the same cell in process (measured wall).
    serial, pooled = [], []
    for rid in range(5):
        for target, sink, name in (
            (state.database, serial, "parallel.linregr_serial"),
            (state.pool_database, pooled, "parallel.linregr_pool2"),
        ):
            with tracer.span(name, rid):
                start = time.perf_counter()
                linear_regression.train(target, "r80", kernel="unoptimized")
                sink.append(time.perf_counter() - start)
    out["parallel.linregr_speedup_x"] = median(serial) / median(pooled)
    pool = getattr(state.pool_database, "worker_pool", None)
    counters = pool.stats() if pool is not None and hasattr(pool, "stats") else {}
    out["parallel.retries"] = counters.get("worker_retries")
    out["parallel.respawns"] = counters.get("pool_respawns")

    # First scan after load against steady state: the ndarray-view fill.
    twin = Database(num_segments=inputs.size["segments"])
    _load(twin, inputs, ("r80",))
    timings = []
    for rid in range(4):
        with tracer.span("columnar.linregr_scan", rid):
            start = time.perf_counter()
            linear_regression.train(twin, "r80")
            timings.append((time.perf_counter() - start) * 1e3)
    twin.close()
    out["columnar.cold_first_scan_ms"] = timings[0] - median(timings[1:])
    statements = ["SELECT linregr(y, x) FROM r80", "SELECT quantile_reservoir(x) FROM events"]
    out.update(probes.parser_probe(statements * 20, tracer))
    return out
