"""Deterministic, site-keyed fault injection for the fault-tolerance layer.

Production databases are tested by *killing* them: crash a backend
mid-statement, stall a client mid-response, truncate a wire frame — and then
prove the system either completed the work or failed it with a typed error,
never something in between.  "Architecture of a Database System" treats
process supervision and admission control as first-class architecture; this
module is the test harness side of that architecture for our engine.

A :class:`FaultInjector` is a registry of *armed* faults keyed by **site**
name.  Engine code probes sites at the few places where real infrastructure
can fail::

    fault = injector.probe("parallel.task") if injector is not None else None

and reacts to whatever comes back (``None`` almost always).  Probing is

* **deterministic** — whether probe number *n* at a site fires is a pure
  function of ``(seed, site, n)``, so a chaos run can be replayed exactly by
  re-running with the same seed and workload;
* **cheap** — an un-armed injector is ``None`` on the :class:`~repro.engine.
  database.Database`/server, so production paths pay one attribute check;
  with an injector installed, a probe at an un-armed site is one dict lookup;
* **thread-safe** — the serving layer probes from worker threads and the
  event loop concurrently; per-site probe counters advance under a lock.

Fault kinds (the strings are open-ended; these are the ones the engine and
the chaos harness know how to act on):

=================  =========================================================
``worker_crash``   a pool worker process dies abruptly (``os._exit``) while
                   holding a task — the coordinator's supervision must
                   detect the loss, respawn, retry and/or fall back.
``worker_hang``    a pool worker sleeps past every deadline (SIGSTOP
                   stand-in); only the per-task deadline can recover.
``slow_worker``    a pool worker sleeps ``delay`` seconds, then finishes
                   normally — exercises deadlines without losing work.
``pickle_error``   task dispatch raises :class:`pickle.PicklingError`
                   before anything is shipped — the classic unshippable
                   payload, must fall back in-process with a reason.
``wire_truncate``  the server writes only half of a response batch and
                   drops the connection — the client sees a truncated
                   frame; acknowledged state must still be consistent.
``client_stall``   a chaos client sleeps ``delay`` seconds before reading
                   its response (or, with ``delay == 0``, disconnects
                   without reading) — exercises cancellation-on-disconnect.
=================  =========================================================

Sites currently probed by the engine (documented in ``docs/robustness.md``):

* ``parallel.dispatch`` — once per worker-pool fan-out attempt
  (``pickle_error``);
* ``parallel.task`` — once per task per attempt (``worker_crash``,
  ``worker_hang``, ``slow_worker``); the decision is made on the
  coordinator and shipped to the worker as a *directive*, so determinism
  never depends on worker scheduling;
* ``serving.send`` — once per response batch write (``wire_truncate``).

The chaos harness additionally probes client-side sites (``client.stall``,
``client.disconnect``) that never appear in engine code.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "Fault",
    "FaultSpec",
    "FaultInjector",
    "WORKER_CRASH",
    "WORKER_HANG",
    "SLOW_WORKER",
    "PICKLE_ERROR",
    "WIRE_TRUNCATE",
    "CLIENT_STALL",
    "FAULT_KINDS",
]

WORKER_CRASH = "worker_crash"
WORKER_HANG = "worker_hang"
SLOW_WORKER = "slow_worker"
PICKLE_ERROR = "pickle_error"
WIRE_TRUNCATE = "wire_truncate"
CLIENT_STALL = "client_stall"

FAULT_KINDS = frozenset(
    {WORKER_CRASH, WORKER_HANG, SLOW_WORKER, PICKLE_ERROR, WIRE_TRUNCATE, CLIENT_STALL}
)

#: Kind-specific default ``delay`` seconds: a hang must outlive any sane
#: per-task deadline; a slow worker / stalled client only needs to be
#: noticeable.
_DEFAULT_DELAYS = {WORKER_HANG: 3600.0, SLOW_WORKER: 0.05, CLIENT_STALL: 0.1}


@dataclass(frozen=True)
class Fault:
    """One fired fault: what :meth:`FaultInjector.probe` hands back."""

    kind: str
    site: str
    #: Zero-based probe index at this site that fired (replay diagnostics).
    sequence: int
    #: Sleep length for delay-shaped kinds; irrelevant otherwise.
    delay: float = 0.0


@dataclass
class FaultSpec:
    """An armed fault at one site.

    ``rate`` is the per-probe firing probability (evaluated deterministically
    from the injector seed); ``max_fires`` bounds the total number of firings
    (``None`` = unbounded); ``delay`` parameterizes the delay-shaped kinds.
    """

    kind: str
    rate: float = 1.0
    max_fires: Optional[int] = None
    delay: float = 0.0
    fired: int = field(default=0, compare=False)

    @property
    def exhausted(self) -> bool:
        return self.max_fires is not None and self.fired >= self.max_fires


class FaultInjector:
    """A seeded registry of faults armed at named sites.

    >>> injector = FaultInjector(seed=7)
    >>> injector.arm("parallel.task", "worker_crash", rate=0.2, max_fires=3)
    >>> fault = injector.probe("parallel.task")   # deterministic in (7, site, 0)

    The same seed and the same probe sequence reproduce the same firing
    pattern — the property the chaos harness's fault-free-replay comparison
    and "25 seeds" acceptance runs are built on.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._sites: Dict[str, List[FaultSpec]] = {}
        self._probes: Dict[str, int] = {}
        self._history: List[Fault] = []
        self._lock = threading.Lock()

    # -- arming --------------------------------------------------------------

    def arm(
        self,
        site: str,
        kind: str,
        *,
        rate: float = 1.0,
        max_fires: Optional[int] = None,
        delay: Optional[float] = None,
    ) -> "FaultInjector":
        """Arm ``kind`` at ``site``; returns self so arms chain."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {rate}")
        if delay is None:
            delay = _DEFAULT_DELAYS.get(kind, 0.0)
        with self._lock:
            self._sites.setdefault(site, []).append(
                FaultSpec(kind, rate=rate, max_fires=max_fires, delay=delay)
            )
        return self

    def disarm(self, site: str, kind: Optional[str] = None) -> None:
        """Remove every armed fault at ``site`` (optionally one kind only)."""
        with self._lock:
            if kind is None:
                self._sites.pop(site, None)
            elif site in self._sites:
                self._sites[site] = [s for s in self._sites[site] if s.kind != kind]

    # -- probing -------------------------------------------------------------

    def probe(self, site: str) -> Optional[Fault]:
        """One probe at ``site``: the fired :class:`Fault`, or ``None``.

        Every call advances the site's probe counter whether or not anything
        fires, so firing patterns depend only on how many times the site has
        been probed — not on what other sites did in between.  When several
        specs are armed at one site, the first (in arming order) whose
        deterministic coin lands wins the probe.
        """
        with self._lock:
            specs = self._sites.get(site)
            if not specs:
                return None
            sequence = self._probes.get(site, 0)
            self._probes[site] = sequence + 1
            for spec in specs:
                if spec.exhausted:
                    continue
                if spec.rate < 1.0:
                    # String seeding hashes via SHA-512 internally, so the
                    # draw is stable across processes and PYTHONHASHSEED.
                    coin = random.Random(
                        f"{self.seed}:{site}:{spec.kind}:{sequence}"
                    ).random()
                    if coin >= spec.rate:
                        continue
                spec.fired += 1
                fault = Fault(spec.kind, site, sequence, spec.delay)
                self._history.append(fault)
                return fault
            return None

    # -- introspection -------------------------------------------------------

    def fired(self, site: Optional[str] = None, kind: Optional[str] = None) -> int:
        """Number of faults fired, optionally filtered by site and/or kind."""
        with self._lock:
            return sum(
                1
                for fault in self._history
                if (site is None or fault.site == site)
                and (kind is None or fault.kind == kind)
            )

    def probes(self, site: str) -> int:
        """How many times ``site`` has been probed."""
        with self._lock:
            return self._probes.get(site, 0)

    def history(self) -> List[Fault]:
        """Every fired fault, in firing order (a copy)."""
        with self._lock:
            return list(self._history)

    def reset(self) -> None:
        """Forget probe counters, firing counts and history; keep the arms."""
        with self._lock:
            self._probes.clear()
            self._history.clear()
            for specs in self._sites.values():
                for spec in specs:
                    spec.fired = 0

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        with self._lock:
            arms = {site: [s.kind for s in specs] for site, specs in self._sites.items()}
        return f"FaultInjector(seed={self.seed}, armed={arms}, fired={len(self._history)})"
