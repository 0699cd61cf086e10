"""Compare two spine result files: ``python3 compare.py A.json B.json``.

A is the parent, B the change; both come from ``run.py --runs N --out FILE``
on the same machine with the same seeds.  One row per workload × end-to-end
metric: both medians with their quartiles, B/A with its base, the bound from
``BENCHMARK.json`` and a verdict:

* ``unresolved`` — either side's quartile spread is wider than the bound, so
  the runs cannot tell a regression from noise (not the same as "same");
* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better by more than A's own quartile spread;
* ``same`` — anything else.

Exit code 1 on any ``worse`` row or a higher failed fraction on any workload.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Tuple

from common import REPO_ROOT, quartiles


def load_runs(path: Path) -> Tuple[Dict[Tuple[str, str], List[float]], Dict[str, List[int]]]:
    """Untraced values by (workload, metric), and [failed, attempted] by workload."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    results = document["results"] if "results" in document else [document]
    values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    failures: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
    for result in results:
        if result["traced"]:
            continue
        for metric, entry in result["metrics"].items():
            values[(result["workload"], metric)].append(entry["value"])
        failures[result["workload"]][0] += result["failed"]
        failures[result["workload"]][1] += result["attempted"]
    return values, failures


def verdict(a: Dict[str, float], b: Dict[str, float], better: str, bound: float) -> str:
    if max(a["spread"], b["spread"]) > bound:
        return "unresolved"
    change = (b["median"] - a["median"]) / a["median"]
    worsening = change if better == "lower" else -change
    if worsening > bound:
        return "worse"
    if -worsening > a["spread"]:
        return "better"
    return "same"


def shown(q: Dict[str, float], unit: str) -> str:
    return f"{q['median']:.4g} [{q['q1']:.4g}, {q['q3']:.4g}] {unit}"


def compare(path_a: Path, path_b: Path, contract: Dict[str, Any], stream) -> int:
    values_a, failures_a = load_runs(path_a)
    values_b, failures_b = load_runs(path_b)
    status = 0
    print(
        f"{'workload':15s} {'metric':18s} {'A median [q1, q3]':>34s} {'B median [q1, q3]':>34s} "
        f"{'B/A (base A)':>22s} {'bound':>6s}  verdict",
        file=stream,
    )
    for workload in [w["name"] for w in contract["workloads"]]:
        for metric in contract["end_to_end"]:
            key = (workload, metric["name"])
            if key not in values_a or key not in values_b:
                continue
            a, b = quartiles(values_a[key]), quartiles(values_b[key])
            outcome = verdict(a, b, metric["better"], metric["bound"])
            if outcome == "worse":
                status = 1
            unit = metric["unit"]
            ratio = f"{b['median'] / a['median']:.3f} (A={a['median']:.4g} {unit})"
            print(
                f"{workload:15s} {metric['name']:18s} {shown(a, unit):>34s} {shown(b, unit):>34s} "
                f"{ratio:>22s} {metric['bound']:6.2f}  {outcome}",
                file=stream,
            )
        failed_a, attempted_a = failures_a.get(workload, [0, 0])
        failed_b, attempted_b = failures_b.get(workload, [0, 0])
        if attempted_a and attempted_b:
            frac_a, frac_b = failed_a / attempted_a, failed_b / attempted_b
            note = "higher" if frac_b > frac_a else "not higher"
            if frac_b > frac_a:
                status = 1
            print(
                f"{workload:15s} {'failed_frac':18s} {failed_a}/{attempted_a} = {frac_a:.3g}  ->  "
                f"{failed_b}/{attempted_b} = {frac_b:.3g}  {note}",
                file=stream,
            )
    return status


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(REPO_ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        contract = json.load(handle)
    return compare(Path(argv[0]), Path(argv[1]), contract, sys.stdout)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
