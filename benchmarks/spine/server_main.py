"""Server subprocess for the serving workloads: its own interpreter, its own GIL.

Usage: ``python server_main.py SPEC.json``.  The spec holds only generated
inputs — tables with their rows, labelled set-up statements, and the server's
capacity settings — never a workload name or a seed, so the program under
test cannot tell which workload it is serving.

Protocol with the parent (one JSON object per line on stdout):

* ``{"ready": true, "port": N, "steps_s": {...}}`` once the listener is bound;
* ``{"done": true, "drained": bool, "peak_rss_mb": X}`` after SIGTERM (or EOF
  on stdin, which is how an abandoned server notices its parent is gone).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro import Database  # noqa: E402
from repro.engine.serving import DatabaseServer  # noqa: E402

from common import peak_rss_mb  # noqa: E402


def build_database(spec: dict, steps: dict) -> Database:
    """Create, load and prepare the database; per-step seconds land in ``steps``."""
    database = Database(num_segments=spec["num_segments"], plan_cache=spec["plan_cache"])
    start = time.perf_counter()
    for table in spec["tables"]:
        database.create_table(table["name"], [tuple(c) for c in table["columns"]])
        database.load_rows(table["name"], [tuple(row) for row in table["rows"]])
    steps["load"] = time.perf_counter() - start
    for label, statement in spec["setup_sql"]:
        start = time.perf_counter()
        database.execute(statement)
        steps[label] = steps.get(label, 0.0) + time.perf_counter() - start
    return database


async def serve(server: DatabaseServer, steps: dict, drain_timeout: float) -> bool:
    await server.start()
    print(json.dumps({"ready": True, "port": server.port, "steps_s": steps}), flush=True)
    loop = asyncio.get_running_loop()
    shutdown = asyncio.Event()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, shutdown.set)

    def on_stdin() -> None:
        if not sys.stdin.buffer.read1(4096):
            loop.remove_reader(sys.stdin.fileno())
            shutdown.set()

    loop.add_reader(sys.stdin.fileno(), on_stdin)
    serve_task = asyncio.ensure_future(server.serve_forever())
    try:
        await shutdown.wait()
    finally:
        serve_task.cancel()
        await asyncio.gather(serve_task, return_exceptions=True)
    return await server.stop(close_database=True, drain_timeout=drain_timeout)


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    if spec.get("cpus"):
        os.sched_setaffinity(0, spec["cpus"])
    steps: dict = {}
    database = build_database(spec, steps)
    server = DatabaseServer(
        database,
        port=0,
        max_concurrent=spec["max_concurrent"],
        max_queue=spec["max_queue"],
        statement_timeout=spec["statement_timeout"],
        plan_cache=spec["plan_cache"],
    )
    drained = asyncio.run(serve(server, steps, spec["drain_timeout"]))
    print(
        json.dumps({"done": True, "drained": drained, "peak_rss_mb": peak_rss_mb()}),
        flush=True,
    )
    return 0 if drained else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
