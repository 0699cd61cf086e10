"""The measurement spine: one command, five workloads, every metric by name.

    python3 benchmarks/spine/run.py [--workload NAME] [--seed N] [--seconds S]
                                    [--trace 0|1 | --traced] [--runs N] [--smoke]
                                    [--out FILE]

With ``--workload`` the workload runs in this process and the last line of
standard output is one JSON object ``{correct, attempted, failed, metrics}``:
the end-to-end metrics of ``BENCHMARK.json`` with tracing off (``--trace 0``),
the per-layer metrics from a traced replay with ``--trace 1``.  Without it,
every workload runs in a fresh subprocess, untraced and (with ``--traced``)
traced, and ``--out`` receives one result file with the machine fingerprint.

See README.md in this directory for the workloads and the metric ↔ layer
predictions.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

SPINE_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(SPINE_DIR.parent.parent / "src"))
sys.path.insert(0, str(SPINE_DIR))

# Before numpy loads: one BLAS thread, here and in every child process.  On a
# two-CPU sandbox OpenBLAS's two-thread pool starts, at random, in a state
# where each small matrix product takes 8 ms instead of 0.04 ms, and stays
# there for the life of the process; no benchmark can be steady across that.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import repro  # noqa: E402,F401  (fail before any work where the program is absent)

import sizes as frozen  # noqa: E402
from common import (  # noqa: E402
    OUT_DIR,
    REPO_ROOT,
    fingerprint,
    geomean,
    median,
    peak_rss_mb,
    percentile,
    sample_counts,
)
from trace import NullTracer, Tracer  # noqa: E402

WORKLOADS = ["serve_point", "serve_mixed", "analytic_scan", "ingest_dml", "paper_methods"]

#: Share of ``--seconds`` a traced run gives each of its two untraced
#: reference slices; the traced replay between them gets the rest, and the
#: layer probes run after all three.
UNTRACED_SLICE = 0.2


def load_contract() -> Dict[str, Any]:
    with open(REPO_ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def units(contract: Dict[str, Any], section: str) -> Dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in contract[section]}


def end_to_end(measurement, setup_times: List[float], rss_mb: float, tail_pct: float) -> Dict[str, float]:
    """The six numbers a user of the system would see, one definition for all workloads."""
    per_op = [median(values) for values in measurement.samples.values() if values]
    latencies = measurement.latencies()
    return {
        "setup_s": median(setup_times),
        "throughput_ops_s": measurement.good_ops / measurement.elapsed_s,
        "geomean_op_ms": geomean(per_op),
        "latency_p50_ms": percentile(latencies, 50.0),
        "latency_tail_ms": percentile(latencies, tail_pct),
        "peak_rss_mb": rss_mb,
    }


def _timed_setup(module, seed: int, size: Dict[str, Any]):
    start = time.perf_counter()
    inputs = module.generate(seed, size)
    state = module.setup(inputs)
    return inputs, state, time.perf_counter() - start


def run_untraced(module, seed: int, seconds: float, size: Dict[str, Any], setups: int) -> Dict[str, Any]:
    setup_times: List[float] = []
    inputs = state = None
    for _ in range(setups):
        if state is not None:
            module.teardown(state)
            inputs = state = None  # drop the previous copy before building the next
            gc.collect()
        inputs, state, elapsed = _timed_setup(module, seed, size)
        setup_times.append(elapsed)
    try:
        measurement = module.run(state, inputs, seconds, NullTracer())
    finally:
        report = module.teardown(state)
    rss = report.get("peak_rss_mb") or peak_rss_mb()
    values = end_to_end(measurement, setup_times, rss, size["tail_percentile"])
    return {
        "values": values,
        "measurement": measurement,
        "detail": {
            "setup_times_s": setup_times,
            "sample_counts": sample_counts(measurement.samples),
            "op_median_ms": {op: median(v) for op, v in measurement.samples.items() if v},
            "tail_percentile": size["tail_percentile"],
            "elapsed_s": measurement.elapsed_s,
            "extra": measurement.extra,
            "notes": measurement.notes,
            "problems": measurement.problems,
            "teardown": report,
        },
    }


def _pace(module, measurement) -> float:
    """What tracing may slow: ops per second (closed loop) or 1 / median latency (open)."""
    if module.LOOP == "closed":
        return measurement.good_ops / measurement.elapsed_s
    return 1.0 / median(measurement.latencies())


def run_traced(module, seed: int, seconds: float, size: Dict[str, Any], per_layer: List[str]) -> Dict[str, Any]:
    inputs, state, setup_elapsed = _timed_setup(module, seed, size)
    tracer = Tracer()
    try:
        # untraced, traced, untraced: a drift over the run (caches warming,
        # tables growing) lands on both sides of the comparison
        before = module.run(state, inputs, seconds * UNTRACED_SLICE, NullTracer())
        measurement = module.run(state, inputs, seconds * (1.0 - 2 * UNTRACED_SLICE), tracer)
        after = module.run(state, inputs, seconds * UNTRACED_SLICE, NullTracer())
        found = module.layers(state, inputs, measurement, tracer)
    finally:
        report = module.teardown(state)
    found.update(measurement.extra)
    untraced_pace = (_pace(module, before) + _pace(module, after)) / 2.0
    found["tracing.overhead_frac"] = untraced_pace / _pace(module, measurement) - 1.0
    for layer in ("serving", "parser", "plancache", "executor", "methods"):
        found.setdefault(f"{layer}.self_frac", tracer.layer_share(layer))
    trace_path = OUT_DIR / f"trace_{module.NAME}.jsonl"
    tracer.write_jsonl(trace_path)
    unnamed = sorted(set(found) - set(per_layer))
    if unnamed:
        raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {unnamed}")
    # A layer this workload does not exercise, or a counter the program no
    # longer exposes, is absent (None); the contract line carries 0.0 for it.
    absent = sorted(name for name in per_layer if found.get(name) is None)
    values = {name: float(found.get(name) or 0.0) for name in per_layer}
    for reference in (before, after):
        measurement.attempted += reference.attempted
        measurement.failed += reference.failed
        measurement.problems.extend(reference.problems)
    return {
        "values": values,
        "measurement": measurement,
        "detail": {
            "absent": absent,
            "spans": len(tracer.spans),
            "trace_file": str(trace_path.relative_to(REPO_ROOT)),
            "setup_s": setup_elapsed,
            "sample_counts": sample_counts(measurement.samples),
            "notes": measurement.notes,
            "problems": measurement.problems,
            "teardown": report,
        },
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Dict[str, Any]:
    """Generate, set up, measure and check one workload in this process."""
    contract = load_contract()
    module = importlib.import_module(f"wl_{name}")
    size = (frozen.SMOKE if smoke else frozen.FULL)[name]
    if trace:
        outcome = run_traced(module, seed, seconds, size, [m["name"] for m in contract["per_layer"]])
        unit_of = units(contract, "per_layer")
    else:
        setups = 1 if smoke else frozen.SETUP_REPEATS
        outcome = run_untraced(module, seed, seconds, size, setups)
        unit_of = units(contract, "end_to_end")
    measurement = outcome["measurement"]
    return {
        "workload": name,
        "traced": trace,
        "correct": measurement.failed == 0,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {
            metric: {"value": value, "unit": unit_of[metric]}
            for metric, value in outcome["values"].items()
        },
        "detail": outcome["detail"],
        "fingerprint": fingerprint(seed, size),
    }


def contract_line(result: Dict[str, Any]) -> str:
    return json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")})


def print_metrics(result: Dict[str, Any], stream) -> None:
    mode = "traced" if result["traced"] else "untraced"
    print(f"== {result['workload']} ({mode}): attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']}", file=stream)
    absent = set(result["detail"].get("absent", ()))
    for metric, entry in result["metrics"].items():
        shown = "absent" if metric in absent else f"{entry['value']:.6g}"
        print(f"  {metric:44s} {shown:>14s} {entry['unit']}", file=stream)
    for problem in result["detail"].get("problems", ()):
        print(f"  ! {problem}", file=stream)


def run_all(args) -> int:
    """Each workload in a fresh interpreter; one combined result file.

    ``--smoke`` stays in this interpreter instead: the smoke test has ten
    seconds for ten runs, and start-up would take half of them.
    """
    results = []
    modes = [False, True] if args.traced else [False]
    runs = [
        (name, args.seed + n, traced)
        for name in WORKLOADS
        for n in range(args.runs)
        for traced in modes
    ]
    for name, seed, traced in runs:
        if args.smoke:
            results.append(run_workload(name, seed, args.seconds, traced, smoke=True))
            print_metrics(results[-1], sys.stdout)
            continue
        out_file = OUT_DIR / f"result_{name}_{int(traced)}.json"
        command = [
            sys.executable, str(SPINE_DIR / "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(args.seconds),
            "--trace", str(int(traced)), "--out", str(out_file),
        ]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        if completed.returncode != 0:
            print(f"{name}: run exited with code {completed.returncode}", file=sys.stderr)
            return completed.returncode
        with open(out_file, "r", encoding="utf-8") as handle:
            result = json.load(handle)
        out_file.unlink()
        print_metrics(result, sys.stdout)
        results.append(result)
    if args.out:
        write_json(Path(args.out), {"results": results})
    return 0 if all(result["correct"] for result in results) else 1


def write_json(path: Path, document: Dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, default=str)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window (default: run_seconds of BENCHMARK.json; 0.4 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    parser.add_argument("--runs", type=int, default=1, metavar="N",
                        help="without --workload: N runs per workload, seeds SEED..SEED+N-1")
    parser.add_argument("--out", default=None, metavar="FILE", help="write the full result file here")
    args = parser.parse_args(argv)
    args.traced = args.traced or bool(args.trace)
    if args.seconds is None:
        args.seconds = 0.4 if args.smoke else float(contract["run_seconds"])
    if args.workload is None:
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, args.traced, args.smoke)
    if args.out:
        write_json(Path(args.out), result)
    print_metrics(result, sys.stdout)
    print(contract_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
