"""In-memory spans around the calls the benchmark makes into each layer.

A span is (id, parent, name, request id, start, end).  Spans nest per thread;
a layer's *self time* is its span minus the part its children cover, so the
self times of one request add up to the request's wall clock.  Spans are kept
in a list and written to ``out/trace_<workload>.jsonl`` when the run ends —
never during the timed window.  Spans inside ``src/repro`` are a later issue:
these are recorded from the benchmark's side of every public call.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

SpanRecord = Tuple[int, Optional[int], str, Optional[int], float, float]


class _Span:
    __slots__ = ("tracer", "name", "rid", "id", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str, rid: Optional[int]) -> None:
        self.tracer = tracer
        self.name = name
        self.rid = rid

    def __enter__(self) -> "_Span":
        stack = self.tracer._stack()
        self.parent = stack[-1].id if stack else None
        self.id = next(self.tracer._ids)
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append(
            (self.id, self.parent, self.name, self.rid, self.start, end)
        )


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: ``span`` hands back one shared no-op context manager."""

    enabled = False

    def span(self, name: str, rid: Optional[int] = None) -> _NullSpan:
        return _NULL_SPAN


class Tracer:
    """Tracing on: every ``with tracer.span(...)`` appends one record."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[SpanRecord] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, rid: Optional[int] = None) -> _Span:
        return _Span(self, name, rid)

    # -- analysis -----------------------------------------------------------

    def durations(self) -> Dict[str, List[float]]:
        """Span durations in seconds, grouped by name."""
        grouped: Dict[str, List[float]] = defaultdict(list)
        for _, _, name, _, start, end in self.spans:
            grouped[name].append(end - start)
        return grouped

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name (duration minus direct children)."""
        child_total: Dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_total[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for span_id, _, name, _, start, end in self.spans:
            totals[name] += (end - start) - child_total.get(span_id, 0.0)
        return totals

    def root_seconds(self) -> float:
        """Wall clock covered by root spans (the denominator of a self share)."""
        return sum(end - start for _, parent, _, _, start, end in self.spans if parent is None)

    def layer_share(self, prefix: str) -> float:
        """Share of root-span wall clock that is self time of ``prefix.*`` spans."""
        wall = self.root_seconds()
        if wall <= 0.0:
            return 0.0
        own = sum(
            seconds
            for name, seconds in self.self_seconds().items()
            if name == prefix or name.startswith(prefix + ".")
        )
        return own / wall

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, rid, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "request": rid,
                            "start": start,
                            "end": end,
                        },
                        separators=(",", ":"),
                    )
                )
                handle.write("\n")
