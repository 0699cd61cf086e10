"""Outside-in layer probes: spans around public calls into each layer.

Every function takes a tracer and records spans named ``<module>.<call>``;
the per-layer metrics are read back from the tracer's durations, so the
numbers in the result file and the spans in ``trace_<workload>.jsonl`` are
the same measurements.  Only the surface ROADMAP items 2-3 promise to keep
is used; counters are read with ``getattr``-with-default so a renamed field
yields "absent" (``None``), never a crash.
"""

from __future__ import annotations

import time
import tracemalloc
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro import Database
from repro.engine.parser import parse_statement, tokenize
from repro.engine.plancache import PlanCache, normalize_statement
from repro.engine.serving import json_frame

from common import median


def span_median(tracer, name: str, scale: float) -> Optional[float]:
    """Median duration of the spans called ``name``, scaled (1e3 → ms)."""
    durations = tracer.durations().get(name)
    return median(durations) * scale if durations else None


def stat(result: Any, field: str, default: Any = None) -> Any:
    """A field of ``ResultSet.stats`` that may have been renamed or removed."""
    return getattr(getattr(result, "stats", None), field, default)


def parser_probe(statements: Sequence[str], tracer) -> Dict[str, Optional[float]]:
    """``tokenize`` and ``parse_statement`` over the workload's own statements."""
    for rid, sql in enumerate(statements):
        with tracer.span("parser.tokenize", rid):
            tokenize(sql)
        with tracer.span("parser.parse", rid):
            parse_statement(sql)
    return {
        "parser.tokenize_us": span_median(tracer, "parser.tokenize", 1e6),
        "parser.parse_us": span_median(tracer, "parser.parse", 1e6),
    }


def plancache_probe(
    database: Database, statements: Sequence[str], capacity: int, tracer
) -> Dict[str, Optional[float]]:
    """Fingerprinting and a warm lookup in a cache of the server's capacity."""
    cache = PlanCache(capacity)
    for rid, sql in enumerate(statements):
        with tracer.span("plancache.normalize", rid):
            normalized = normalize_statement(sql)
        if normalized is None:
            continue
        cache.get_or_create(normalized.fingerprint, database.catalog)
        with tracer.span("plancache.lookup", rid):
            cache.lookup(normalized.fingerprint, database.catalog)
    return {
        "plancache.normalize_us": span_median(tracer, "plancache.normalize", 1e6),
        "plancache.lookup_us": span_median(tracer, "plancache.lookup", 1e6),
    }


def plancache_counters(stats: Optional[Dict[str, Any]]) -> Dict[str, Optional[float]]:
    """Hit ratio and miss counts out of ``PlanCache.stats()`` (or the stats op).

    There is no eviction counter today, so misses on a full cache stand in
    for evictions.
    """
    if not stats:
        return {}
    hits, misses = stats.get("hits"), stats.get("misses")
    ratio = None
    if hits is not None and misses is not None and hits + misses:
        ratio = hits / (hits + misses)
    return {
        "plancache.hit_ratio": ratio,
        "plancache.misses": misses,
        "plancache.invalidations": stats.get("invalidations"),
    }


def staged_execute(database: Database, sql: str, tracer, rid: int, label: str):
    """``Database.execute`` taken apart: parse, then the executor on the AST."""
    with tracer.span("parser.parse." + label, rid):
        statement = parse_statement(sql)
    with tracer.span("executor.execute." + label, rid):
        return database.executor.execute(statement)


def facade_overhead_us(database: Database, statements: Iterable[str], tracer) -> Optional[float]:
    """``Database.execute`` minus parse minus executor, per statement (median)."""
    overheads: List[float] = []
    for rid, sql in enumerate(statements):
        with tracer.span("probe.facade", rid):
            start = time.perf_counter()
            database.execute(sql)
            whole = time.perf_counter() - start
            start = time.perf_counter()
            statement = parse_statement(sql)
            parsed = time.perf_counter() - start
            start = time.perf_counter()
            database.executor.execute(statement)
            executed = time.perf_counter() - start
        overheads.append(whole - parsed - executed)
    return median(overheads) * 1e6 if overheads else None


def reply_payload(result: Any) -> Dict[str, Any]:
    """A result shaped like the wire reply (``docs/serving.md``)."""
    return {
        "ok": True,
        "columns": list(result.columns),
        "rows": [list(row) for row in result.rows],
        "rowcount": result.rowcount,
    }


def encode_probe(
    database: Database, sql_by_rows: Dict[int, str], tracer, repeats: int = 15
) -> Dict[str, Optional[float]]:
    """``json_frame`` on real 1 / 100 / 2000-row payloads: cost and bytes per row."""
    cost: Dict[int, float] = {}
    size: Dict[int, int] = {}
    for rows, sql in sql_by_rows.items():
        payload = reply_payload(database.execute(sql))
        count = len(payload["rows"])
        if count == 0:
            continue
        timings = []
        for rid in range(repeats):
            with tracer.span(f"serving.encode.{rows}", rid):
                start = time.perf_counter()
                frame = json_frame(payload)
                timings.append(time.perf_counter() - start)
        cost[count], size[count] = median(timings), len(frame)
    if len(cost) < 2:
        return {}
    small, large = min(cost), max(cost)
    return {
        "serving.encode_us_per_row": (cost[large] - cost[small]) / (large - small) * 1e6,
        "serving.bytes_per_row": (size[large] - size[small]) / (large - small),
    }


def explain_probe(database: Database, statements: Sequence[str], tracer) -> Optional[float]:
    """Plan-only ``Database.explain`` per statement, in ms (median)."""
    for rid, sql in enumerate(statements):
        with tracer.span("planner.explain", rid):
            database.explain(sql)
    return span_median(tracer, "planner.explain", 1e3)


def traced_bytes_per_row(load, rows: int) -> Optional[float]:
    """tracemalloc delta of ``load()`` per row it stored."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        load()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (after - before) / rows if rows else None
