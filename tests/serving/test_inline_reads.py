"""Bounded point reads answered on the server's event loop.

A cached index-equality plan (``SimpleSelectPlan``) runs right on the loop
when no writer holds or awaits the readers/writer lock; every other
statement takes the worker-thread path.  The contract checked here: replies
are identical to an uncached server's, a read queued behind a writer still
sees the write (FIFO), the loop never runs a probe over ``INLINE_MAX_ROWS``
rows, DDL sends the next read back to a worker, and the ``inline`` /
``handoff`` counters account for every statement exactly once.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro import Database
from repro.engine.plancache import PlanCache
from repro.engine.serving import INLINE_MAX_ROWS, ServerThread, ServingClient

POINT_SQL = "SELECT id, grp, v, n FROM kv WHERE id = %(id)s"
#: n = id % 2: an equality probe on n matches 100 rows, over the inline bound.
ROWS = [(i, f"g{i % 7}", i / 4, i % 2, f"n{i:04d}") for i in range(200)]


def _make_database(plan_cache: int = 0) -> Database:
    db = Database(num_segments=2, plan_cache=plan_cache)
    db.create_function("sleepy", lambda ms: time.sleep(ms / 1000.0) or ms, volatile=True)
    db.execute(
        "CREATE TABLE kv (id INTEGER, grp TEXT, v DOUBLE PRECISION, n INTEGER, note TEXT)"
    )
    db.load_rows("kv", ROWS)
    db.execute("CREATE INDEX kv_id ON kv (id)")
    db.execute("CREATE INDEX kv_n ON kv USING hash (n)")
    db.execute("CREATE TABLE slowt (ms INTEGER)")
    db.load_rows("slowt", [(100,)] * 5)
    return db


def _reply(client: ServingClient, payload) -> dict:
    """One request's raw reply (errors returned, not raised)."""
    return client.pipeline([payload])[0]


def _server_stats(server: ServerThread) -> dict:
    return server.server.stats.as_dict()


def _send_raw(client: ServingClient, payload) -> None:
    client._write_frame(payload)
    client._file.flush()


def _requests(handle: str):
    """The four serve_point shapes plus NULL, NaN, bigint and cross-kind keys."""
    keys = [5, 199, 4000, None, float("nan"), 2**70, 7.0, "5", "abc"]
    out = [{"op": "execute", "handle": handle, "params": {"id": key}} for key in keys]
    for literal in ("5", "199", "NULL", "123456789012345678901234", "'5'", "5.5"):
        out.append({"op": "query", "sql": f"SELECT id, grp, v, n FROM kv WHERE id = {literal}"})
    out += [
        {"op": "query", "sql": "SELECT id, v FROM kv WHERE id >= 10 AND id < 20"},
        {"op": "query", "sql": "SELECT note, id FROM kv WHERE id = 7 AND n >= 1"},
        {"op": "query", "sql": "SELECT grp FROM kv WHERE id = 8 AND grp != 'g1'"},
        {"op": "query", "sql": "SELECT id FROM kv WHERE n = 1"},
        {"op": "execute", "handle": handle},  # unbound parameter: typed error
    ]
    return out


def test_replies_equal_an_uncached_server():
    cached = ServerThread(_make_database(), plan_cache=64).start()
    uncached = ServerThread(_make_database(), plan_cache=0).start()
    try:
        with ServingClient(cached.host, cached.port) as one, ServingClient(
            uncached.host, uncached.port
        ) as two:
            handles = (one.prepare(POINT_SQL), two.prepare(POINT_SQL))
            for _ in range(2):  # first pass fills the plan cache, second hits it
                for mine, theirs in zip(_requests(handles[0]), _requests(handles[1])):
                    got, want = _reply(one, mine), _reply(two, theirs)
                    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True), mine
        stats = _server_stats(cached)
        assert stats["inline"] >= 10
        assert stats["handoff"]["probe"] >= 2  # "5" and "abc" against the int index
        assert stats["handoff"]["rows"] >= 1
        assert _server_stats(uncached)["inline"] == 0
        assert cached.server._lock.idle
    finally:
        cached.stop()
        uncached.stop()


def test_counters_are_exact_and_lock_ends_idle():
    with ServerThread(_make_database(), plan_cache=64) as server:
        with ServingClient(server.host, server.port) as client:
            handle = client.prepare(POINT_SQL)  # PREPARE caches the shape
            assert client.execute(handle, {"id": 1}).rows == [(1, "g1", 0.25, 1)]
            for key in (2, 3):  # a miss parsed on a worker, then a hit
                assert client.query(f"SELECT id FROM kv WHERE id = {key}").rows == [(key,)]
            for _ in range(2):  # range: miss, then a hit with no point plan
                assert len(client.query("SELECT id FROM kv WHERE id < 10").rows) == 10
            for _ in range(2):  # 100 matches: miss, then declined before any row is read
                assert len(client.query("SELECT id FROM kv WHERE n = 1").rows) == 100
            assert client.execute(handle, {"id": "abc"}).rows == []  # cross-kind key
            client.query("INSERT INTO kv VALUES (500, 'g0', 1.0, 0, 'x')")  # a write: miss
            replies = client.pipeline(
                [{"op": "query", "sql": "SELECT id FROM kv WHERE id < 10"}]
                + [{"op": "execute", "handle": handle, "params": {"id": 500}}] * 2
            )
            assert [r["rows"] for r in replies[1:]] == [[[500, "g0", 1.0, 0]]] * 2
        stats = _server_stats(server)
        assert stats["inline"] == 2
        assert stats["handoff"] == {
            "miss": 4,
            "shape": 2,
            "lock": 0,
            "probe": 1,
            "rows": 1,
            "queued": 2,  # pipelined behind the range read's hand-off
        }
        assert stats["served"] == 12
        assert server.server._lock.idle


def test_point_read_behind_queued_writer_sees_the_write():
    """FIFO: reader A holds the lock, writer B queues, point read C arrives.
    C may not run on the loop past B; it waits and sees B's update."""
    with ServerThread(_make_database(), plan_cache=64, max_concurrent=4) as server:
        a, b, c = (ServingClient(server.host, server.port) for _ in range(3))
        try:
            handle = c.prepare(POINT_SQL)
            assert c.execute(handle, {"id": 3}).rows[0][2] == 0.75  # warm: inline
            _send_raw(a, {"op": "query", "sql": "SELECT count(sleepy(ms)) FROM slowt"})
            time.sleep(0.15)  # A holds the read lock for ~0.5 s
            _send_raw(b, {"op": "query", "sql": "UPDATE kv SET v = v + sleepy(50) + 950 WHERE id = 3"})
            time.sleep(0.15)  # B waits for A
            assert server.server._lock.waiters == 1
            reply = _reply(c, {"op": "execute", "handle": handle, "params": {"id": 3}})
            assert reply["rows"] == [[3, "g3", 1000.75, 1]]
            assert a._read_frame()["rows"] == [[5]]
            assert b._read_frame()["rowcount"] == 1
        finally:
            for client in (a, b, c):
                client.close()
        stats = _server_stats(server)
        assert stats["handoff"]["lock"] == 1
        assert stats["inline"] == 1
        assert server.server._lock.idle


def test_probe_over_the_bound_is_handed_off():
    with ServerThread(_make_database(), plan_cache=64) as server:
        with ServingClient(server.host, server.port) as client:
            handle = client.prepare("SELECT id FROM kv WHERE n = %(n)s")
            for n in (0, 1):
                rows = client.execute(handle, {"n": n}).rows
                assert len(rows) == 100 > INLINE_MAX_ROWS
                assert rows == [(i,) for i in range(n, 200, 2)]
        stats = _server_stats(server)
        assert stats["inline"] == 0 and stats["handoff"]["rows"] == 2


def test_drop_index_sends_the_next_read_to_a_worker():
    with ServerThread(_make_database(), plan_cache=64) as server:
        with ServingClient(server.host, server.port) as client:
            handle = client.prepare(POINT_SQL)
            assert client.execute(handle, {"id": 9}).rows == [(9, "g2", 2.25, 1)]
            assert _server_stats(server)["inline"] == 1
            client.query("DROP INDEX kv_id")
            before = _server_stats(server)["handoff"]
            # Stale entry: the lookup evicts it, a worker rebuilds it without
            # a point plan, and the next execution is a hit of the wrong shape.
            for _ in range(2):
                assert client.execute(handle, {"id": 9}).rows == [(9, "g2", 2.25, 1)]
            after = _server_stats(server)
        assert after["inline"] == 1
        assert after["handoff"]["miss"] == before["miss"] + 1
        assert after["handoff"]["shape"] == before["shape"] + 1
        assert server.server._lock.idle


def test_disconnect_after_an_inline_read_leaves_the_server_usable():
    with ServerThread(_make_database(), plan_cache=64) as server:
        client = ServingClient(server.host, server.port)
        handle = client.prepare(POINT_SQL)
        for key in range(20):
            _send_raw(client, {"op": "execute", "handle": handle, "params": {"id": key}})
        client._sock.shutdown(socket.SHUT_RDWR)
        client._sock.close()
        with ServingClient(server.host, server.port) as fresh:
            assert fresh.query("SELECT count(*) FROM kv").scalar() == 200
        deadline = time.monotonic() + 5.0
        while not server.server._lock.idle and time.monotonic() < deadline:
            time.sleep(0.02)
        assert server.server._lock.idle


def test_event_loop_never_runs_the_executor_or_a_miss_parse(monkeypatch):
    """Whatever the traffic, the loop thread only probes cached point plans:
    the executor and every plan-cache parse run on worker threads."""
    from repro.engine import plancache
    from repro.engine.executor import Executor

    threads = []
    real_execute, real_parse = Executor.execute, plancache.parse_statement

    def execute(self, *args, **kwargs):
        threads.append(threading.current_thread().name)
        return real_execute(self, *args, **kwargs)

    def parse(sql):
        threads.append(threading.current_thread().name)
        return real_parse(sql)

    with ServerThread(_make_database(), plan_cache=64) as server:
        monkeypatch.setattr(Executor, "execute", execute)
        monkeypatch.setattr(plancache, "parse_statement", parse)
        with ServingClient(server.host, server.port) as client:
            handle = client.prepare(POINT_SQL)
            for key in range(30):
                client.execute(handle, {"id": key})
                client.query(f"SELECT id, note FROM kv WHERE id = {key}")
                client.query(f"SELECT id FROM kv WHERE id >= {key} AND id < {key + 3}")
                client.query(f"SELECT v FROM kv WHERE id = {key} AND n = {key % 2}")
                client.execute(handle, {"id": str(key)})  # cross-kind: seq scan
            client.query("SELECT id FROM kv WHERE n = 0")  # over the bound
            client.query("UPDATE kv SET v = v + 1 WHERE id = 3")
        inline = _server_stats(server)["inline"]
    assert inline == 59  # 30 prepared + 29 literal point reads (the first is a miss)
    assert threads and all(name.startswith("repro-serve_") for name in threads), set(threads)


def test_plan_cache_lookup_does_not_wait_behind_a_parse(monkeypatch):
    """A miss parses outside the cache lock, so a lookup of another
    fingerprint from a second thread returns while the parse is held open."""
    from repro.engine import plancache

    db = _make_database()
    cache = PlanCache(8)
    warm = plancache.normalize_statement("SELECT id FROM kv WHERE id = 1").fingerprint
    cache.get_or_create(warm, db.catalog)
    entered, release = threading.Event(), threading.Event()
    real_parse = plancache.parse_statement

    def slow_parse(sql):
        entered.set()
        release.wait(10.0)
        return real_parse(sql)

    monkeypatch.setattr(plancache, "parse_statement", slow_parse)
    cold = plancache.normalize_statement("SELECT v FROM kv WHERE id = 1").fingerprint
    parser = threading.Thread(target=cache.get_or_create, args=(cold, db.catalog))
    parser.start()
    try:
        assert entered.wait(5.0)
        start = time.monotonic()
        assert cache.lookup(warm, db.catalog) is not None
        assert time.monotonic() - start < 1.0
    finally:
        release.set()
        parser.join(10.0)
    assert not parser.is_alive()
    assert cache.lookup(cold, db.catalog) is not None
    assert cache.stats()["misses"] == 2


@pytest.mark.parametrize("plan_cache", [0, 8])
def test_prepared_statement_results_match_with_and_without_cache(plan_cache):
    db = _make_database(plan_cache)
    literal = db.prepare("SELECT id, note FROM kv WHERE id = 42")
    bound = db.prepare("SELECT id, note FROM kv WHERE id = %(id)s AND n = 0")
    for _ in range(2):
        assert literal.execute().rows == [(42, "n0042")]
        assert bound.execute({"id": 42}).rows == [(42, "n0042")]
        assert bound.execute({"id": 43}).rows == []
