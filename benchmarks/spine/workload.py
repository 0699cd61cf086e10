"""What every workload hands back to the runner."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List


@dataclass
class Measurement:
    """One timed window as the workload's user saw it.

    ``samples`` holds every correct operation's latency by op class (ms); the
    p50 / tail percentiles are taken over all of them together.  ``good_ops``
    counts operations that completed correctly — and, where the workload
    fixes a latency limit, within it.
    """

    samples: Dict[str, List[float]] = field(default_factory=dict)
    good_ops: int = 0
    elapsed_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Client-observed numbers only this workload has (``client.*`` /
    #: ``serving.*`` per-layer metrics) and exact counts (driver iterations).
    extra: Dict[str, float] = field(default_factory=dict)
    #: Anything else worth keeping in the result file (rung reports, counts).
    notes: Dict[str, Any] = field(default_factory=dict)
    #: Human-readable oracle failures, capped, for the result file.
    problems: List[str] = field(default_factory=list)

    def latencies(self) -> List[float]:
        return [value for values in self.samples.values() for value in values]

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)
