"""Seeded fuzz of the wire decoder and the statement front end.

Random frame bodies, non-object JSON, truncated frames, SQL token soup and
wrong-typed request fields go at one server — over one long-lived session
where the fault is not fatal, and over throwaway sockets where it is.  The
invariants: the server never answers ``INTERNAL`` (every failure is typed),
a non-fatal error keeps the session, the readers/writer lock ends idle, and
a fresh client still gets correct answers afterward.
"""

from __future__ import annotations

import json
import random
import socket
import struct

import pytest

from repro import Database
from repro.engine.serving import ServerThread, ServingClient

_HEADER = struct.Struct(">I")

_TOKENS = (
    "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "NULL", "IN", "BETWEEN", "LIKE",
    "IS", "AS", "ORDER", "BY", "GROUP", "HAVING", "LIMIT", "OFFSET", "DISTINCT",
    "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE", "EXPLAIN", "ANALYZE",
    "count", "sum", "avg", "kv", "id", "v", "n", "grp", "nope", "*",
    "0", "1", "-1", "3.5", "1e308", "99999999999999999999999", "'a'", "''", "'it''s'",
    "=", "<", ">", "<=", ">=", "!=", "+", "-", "/", "||", "(", ")", ",", ";", ".",
    "%(id)s", "%(__c0)s", "TRUE", "FALSE",
)
_VALID = (
    "SELECT id, grp, v, n FROM kv WHERE id = 5",
    "SELECT id, v FROM kv WHERE id >= 10 AND id < 20",
    "SELECT count(*), sum(v) FROM kv WHERE n = 1",
    "SELECT grp, count(*) FROM kv GROUP BY grp ORDER BY 1 LIMIT 3",
    "UPDATE kv SET v = v + 1 WHERE id = 7",
)
_ODD_VALUES = (None, True, 1, -1, 2**80, 3.5, float("nan"), "5", "", [1], {"a": 1}, [[]])


def _make_database() -> Database:
    db = Database(num_segments=2, plan_cache=32)
    db.execute("CREATE TABLE kv (id INTEGER, grp TEXT, v DOUBLE PRECISION, n INTEGER)")
    db.load_rows("kv", [(i, f"g{i % 5}", i / 2, i % 3) for i in range(100)])
    db.execute("CREATE INDEX kv_id ON kv (id)")
    # The liveness probe's table: no fuzzed statement names it.
    db.execute("CREATE TABLE fixed (k INTEGER, label TEXT)")
    db.load_rows("fixed", [(k, f"k{k}") for k in range(10)])
    db.execute("CREATE INDEX fixed_k ON fixed (k)")
    return db


def _read_frame(sock: socket.socket):
    data = b""
    while len(data) < _HEADER.size:
        chunk = sock.recv(_HEADER.size - len(data))
        if not chunk:
            return None
        data += chunk
    (length,) = _HEADER.unpack(data)
    body = b""
    while len(body) < length:
        chunk = sock.recv(length - len(body))
        if not chunk:
            return None
        body += chunk
    return json.loads(body.decode("utf-8"))


def _exchange(sock: socket.socket, body: bytes):
    sock.sendall(_HEADER.pack(len(body)) + body)
    return _read_frame(sock)


def _soup(rng: random.Random) -> str:
    if rng.random() < 0.4:  # a valid statement with one token dropped, doubled or swapped
        words = rng.choice(_VALID).split()
        at = rng.randrange(len(words))
        edit = rng.randrange(3)
        if edit == 0:
            del words[at]
        elif edit == 1:
            words.insert(at, words[at])
        else:
            words[at] = rng.choice(_TOKENS)
        return " ".join(words) or "SELECT"
    return " ".join(rng.choice(_TOKENS) for _ in range(rng.randint(1, 20)))


def _request(rng: random.Random, handle: str) -> bytes:
    roll = rng.randrange(8)
    if roll == 0:  # random bytes
        return bytes(rng.randrange(256) for _ in range(rng.randint(0, 40)))
    if roll == 1:  # well-formed JSON that is not an object
        return json.dumps(rng.choice([[1, 2], "query", 42, None, True, [{"op": "query"}]])).encode()
    if roll <= 4:  # token soup, sometimes with parameters
        payload = {"op": "query", "sql": _soup(rng)}
        if rng.random() < 0.3:
            payload["params"] = {"id": rng.choice(_ODD_VALUES)}
        return json.dumps(payload).encode()
    if roll == 5:  # the prepared point lookup with odd parameters
        params = rng.choice([{"id": rng.choice(_ODD_VALUES)}, [1], "id", 7, {}, None])
        return json.dumps({"op": "execute", "handle": handle, "params": params}).encode()
    # wrong-typed or missing fields
    return json.dumps(
        rng.choice(
            [
                {"op": "query", "sql": rng.choice([None, 5, ["SELECT 1"], {"a": 1}, " "])},
                {"op": "execute", "handle": rng.choice([None, 1, [handle], "s999"])},
                {"op": rng.choice([None, 1, ["query"], "QUERY", "teleport"])},
                {"op": "prepare", "sql": rng.choice([5, "", "SELEKT", _soup(rng)])},
                {"sql": "SELECT 1"},
            ]
        )
    ).encode()


@pytest.mark.parametrize("seed", range(4))
def test_wire_fuzz_never_internal_and_keeps_the_session(seed):
    rng = random.Random(seed)
    with ServerThread(_make_database(), max_frame_bytes=4096) as server:
        with ServingClient(server.host, server.port) as client:
            handle = client.prepare("SELECT id, v FROM kv WHERE id = %(id)s")
            probe = client.prepare("SELECT label FROM fixed WHERE k = %(k)s")
            sock = client._sock
            for step in range(150):
                body = _request(rng, handle)
                reply = _exchange(sock, body)
                assert reply is not None, f"seed {seed} step {step}: session lost on {body!r}"
                if not reply["ok"]:
                    code = reply["error"]["code"]
                    assert code not in ("INTERNAL", "SNAPSHOT_VIOLATION"), (body, reply)
                alive = {"op": "execute", "handle": probe, "params": {"k": step % 10}}
                alive = _exchange(sock, json.dumps(alive).encode())
                assert alive["ok"] and alive["rows"] == [[f"k{step % 10}"]], (body, alive)
        # Fatal faults on throwaway sockets: a truncated frame then EOF, and
        # an oversized declared length (typed PROTOCOL error, then close).
        for _ in range(10):
            raw = socket.create_connection((server.host, server.port), timeout=5.0)
            body = json.dumps({"op": "query", "sql": _soup(rng)}).encode()
            raw.sendall(_HEADER.pack(len(body) + rng.randint(1, 50)) + body)
            raw.close()
        raw = socket.create_connection((server.host, server.port), timeout=5.0)
        raw.sendall(_HEADER.pack(4097) + b"{}")
        assert _read_frame(raw)["error"]["code"] == "PROTOCOL"
        assert _read_frame(raw) is None
        raw.close()
        with ServingClient(server.host, server.port) as fresh:
            assert fresh.query("SELECT count(*) FROM kv").scalar() == 100
        assert server.server._lock.idle
        counted = server.server.stats.as_dict()
        assert counted["inline"] > 0


def _nested_statements(depth: int):
    """Statements nested ``depth`` levels deep, one per nesting construct."""
    return [
        "SELECT " + "(" * depth + "1" + ")" * depth,
        "SELECT " + "(v + " * depth + "1" + ")" * depth + " FROM kv WHERE id = 3",
        "SELECT " + "abs(" * depth + "v" + ")" * depth + " FROM kv",
        "SELECT count(*) FROM kv WHERE " + "NOT " * depth + "id = 3",
        "SELECT * FROM " + "(SELECT * FROM " * depth + "kv" + ") s" * depth,
        "SELECT id FROM kv WHERE id IN (" * depth + "3" + ")" * depth,
    ]


@pytest.mark.parametrize("depth", [100, 1_000])
def test_deeply_nested_statements_are_typed_syntax_errors(depth):
    """Nesting past the parser's limit is a SYNTAX error, never a
    ``RecursionError`` surfacing as INTERNAL, and the session survives."""
    with ServerThread(_make_database()) as server:
        with ServingClient(server.host, server.port) as client:
            probe = client.prepare("SELECT label FROM fixed WHERE k = %(k)s")
            sock = client._sock
            for sql in _nested_statements(depth):
                for op in ("query", "prepare"):
                    reply = _exchange(sock, json.dumps({"op": op, "sql": sql}).encode())
                    assert reply is not None, f"session lost on {op} {sql[:40]}..."
                    assert not reply["ok"] and reply["error"]["code"] == "SYNTAX", reply
                alive = {"op": "execute", "handle": probe, "params": {"k": 4}}
                alive = _exchange(sock, json.dumps(alive).encode())
                assert alive["ok"] and alive["rows"] == [["k4"]], alive
            # A statement nested well inside the limit still answers.
            shallow = _nested_statements(20)
            assert client.query(shallow[1]).scalar() == 1.5 * 20 + 1  # v = 1.5 at id 3
            assert len(client.query(shallow[4]).rows) == 100
        assert server.server._lock.idle

