"""Statistics, machine fingerprint and process helpers shared by the spine.

Nothing here imports the program under test, so ``compare.py`` and the
result-file tooling work on a machine that has only the result files.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

SPINE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SPINE_DIR.parent.parent
OUT_DIR = SPINE_DIR / "out"

#: A percentile is reported only when at least this many samples lie beyond
#: it (choosing-metrics guide, section 1); fewer and the number is one slow
#: request, not a distribution.
MIN_SAMPLES_BEYOND = 10


class UndersizedSampleError(ValueError):
    """A percentile was asked of too few samples to support it."""


def percentile(samples: Sequence[float], pct: float, *, guard: bool = True) -> float:
    """Linear-interpolated percentile; refuses an unsupported tail.

    ``guard`` checks the ten-samples-beyond rule: p95 needs 200 samples, p99
    needs 1000.  The median is always supported once there are 20 samples.
    """
    count = len(samples)
    if count == 0:
        raise UndersizedSampleError(f"p{pct:g} of an empty sample")
    beyond = count * min(pct, 100.0 - pct) / 100.0
    if guard and beyond < MIN_SAMPLES_BEYOND:
        raise UndersizedSampleError(
            f"p{pct:g} of {count} samples has {beyond:.1f} beyond it; "
            f"{MIN_SAMPLES_BEYOND} are required"
        )
    ordered = sorted(samples)
    rank = (count - 1) * pct / 100.0
    low = int(math.floor(rank))
    high = min(low + 1, count - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(samples: Iterable[float]) -> float:
    return float(statistics.median(samples))


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(value) for value in values if value > 0.0]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and the IQR/median spread the acceptance rule uses."""
    if len(values) < 2:
        only = float(values[0]) if values else 0.0
        return {"q1": only, "median": only, "q3": only, "spread": 0.0}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "q1": q1,
        "median": q2,
        "q3": q3,
        "spread": (q3 - q1) / q2 if q2 else 0.0,
    }


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MB (Linux reports KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> Optional[str]:
    """The checkout's commit, or None outside a git repository.

    The driver's checkout is not a repository, so absence is normal.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fingerprint(seed: int, sizes: Dict[str, object]) -> Dict[str, object]:
    """What a reader needs to judge whether two result files are comparable."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": seed,
        "sizes": sizes,
        "argv": sys.argv[1:],
    }


def close_enough(actual: float, expected: float, rel: float = 1e-9, abs_tol: float = 1e-9) -> bool:
    """Float comparison for sums the engine and the oracle add in different orders."""
    return math.isclose(actual, expected, rel_tol=rel, abs_tol=abs_tol)


def sample_counts(samples: Dict[str, List[float]]) -> Dict[str, int]:
    return {op: len(values) for op, values in samples.items()}
