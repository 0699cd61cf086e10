"""Plan-cache correctness: parity, fuzzing, and invalidation.

A cached plan must be *observationally invisible*: any query answered
through the cache (including the indexed point-lookup fast path) must return
byte-identical columns and rows to a twin database with no cache at all.
This suite fuzzes ~200 randomized queries across both, then checks the
invalidation triggers one by one — DDL (catalog version), ANALYZE, and DML
drift past the replan threshold — plus the normalization subtleties
(LIMIT/ordinal literals stay unparameterized; synthetic parameter names are
reserved).
"""

from __future__ import annotations

import random

import pytest

from repro import Database
from repro.engine.plancache import (
    SYNTHETIC_PREFIX,
    normalize_statement,
    statement_is_read_only,
)
from repro.engine.parser import parse_statement


def _make_pair(rows, *, num_segments: int = 3):
    """Twin databases, identical contents: plan-cached vs uncached."""
    pair = []
    for capacity in (128, 0):
        db = Database(num_segments=num_segments, plan_cache=capacity)
        db.execute(
            "CREATE TABLE p (id INTEGER, k INTEGER, v DOUBLE PRECISION, label TEXT)"
        )
        db.load_rows("p", rows)
        db.execute("CREATE INDEX p_id ON p (id)")
        db.execute("CREATE INDEX p_k ON p USING hash (k)")
        db.execute("ANALYZE p")
        pair.append(db)
    return pair


def _random_rows(rng, count, null_fraction=0.15):
    rows = []
    for i in range(count):
        k = rng.randrange(0, 25) if rng.random() > null_fraction else None
        v = round(rng.uniform(-5, 5), 3) if rng.random() > null_fraction else None
        label = rng.choice(["a", "b", "c", "d"]) if rng.random() > null_fraction else None
        rows.append((i, k, v, label))
    return rows


# ---------------------------------------------------------------------------
# Fuzzed parity: ~200 randomized queries, cached == uncached, twice each
# ---------------------------------------------------------------------------

_TEMPLATES = [
    "SELECT * FROM p WHERE id = {id}",
    "SELECT id, v FROM p WHERE id = {id}",
    "SELECT label FROM p WHERE id = {id}",
    "SELECT * FROM p WHERE k = {k}",
    "SELECT * FROM p WHERE k = {k} AND v > {v}",
    "SELECT id FROM p WHERE v > {v} ORDER BY id",
    "SELECT id FROM p WHERE v > {v} ORDER BY 1 LIMIT {limit}",
    "SELECT id, v FROM p WHERE id >= {id} ORDER BY v NULLS LAST LIMIT {limit}",
    "SELECT count(*), sum(v) FROM p WHERE k = {k}",
    "SELECT label, count(*), avg(v) FROM p WHERE id < {id} GROUP BY label ORDER BY label NULLS LAST",
    "SELECT DISTINCT label FROM p WHERE k > {k} ORDER BY label NULLS FIRST",
    "SELECT id, coalesce(v, 0.0) * 2 FROM p WHERE id = {id}",
    "SELECT upper(label) FROM p WHERE label = '{label}' ORDER BY id LIMIT {limit}",
    "SELECT id FROM p WHERE id BETWEEN {id} AND {id2} ORDER BY id DESC",
    "SELECT k, count(*) FROM p GROUP BY k ORDER BY 2 DESC, 1 NULLS LAST LIMIT {limit}",
    "SELECT id FROM p WHERE label IN ('{label}', 'zz') ORDER BY id OFFSET {limit}",
    "SELECT CASE WHEN v > {v} THEN 'hi' ELSE 'lo' END, count(*) FROM p GROUP BY 1 ORDER BY 1",
]


def _render(rng, template):
    ident = rng.randrange(-5, 130)
    return template.format(
        id=ident,
        id2=ident + rng.randrange(0, 40),
        k=rng.randrange(-2, 27),
        v=round(rng.uniform(-6, 6), 2),
        label=rng.choice(["a", "b", "c", "d", "nope"]),
        limit=rng.randrange(1, 8),
    )


def test_fuzz_parity_200_queries():
    rng = random.Random(0xC0FFEE)
    cached, uncached = _make_pair(_random_rows(rng, 120))
    for i in range(200):
        query = _render(rng, rng.choice(_TEMPLATES))
        left = cached.execute(query)
        right = uncached.execute(query)
        assert left.columns == right.columns, query
        assert left.rows == right.rows, query
        # A second run comes out of the cache and must still be identical.
        again = cached.execute(query)
        assert again.columns == right.columns and again.rows == right.rows, query
    stats = cached.plan_cache.stats()
    assert stats["hits"] >= 200  # every repeat (and template reuse) hit


def test_fuzz_parity_with_parameters():
    rng = random.Random(17)
    cached, uncached = _make_pair(_random_rows(rng, 100))
    queries = [
        ("SELECT * FROM p WHERE id = %(a)s", lambda: {"a": rng.randrange(0, 110)}),
        (
            "SELECT id FROM p WHERE k = %(a)s AND v > %(b)s ORDER BY id",
            lambda: {"a": rng.randrange(0, 25), "b": round(rng.uniform(-5, 5), 2)},
        ),
        (
            "SELECT count(*) FROM p WHERE label = %(l)s",
            lambda: {"l": rng.choice(["a", "b", "c", "d"])},
        ),
        # Float parameter probing an integer column through the hash index.
        ("SELECT * FROM p WHERE id = %(a)s", lambda: {"a": float(rng.randrange(0, 110))}),
    ]
    for _ in range(60):
        sql, make_params = rng.choice(queries)
        params = make_params()
        assert cached.execute(sql, params).rows == uncached.execute(sql, params).rows, (
            sql,
            params,
        )


def test_parity_under_interleaved_dml():
    rng = random.Random(5)
    cached, uncached = _make_pair(_random_rows(rng, 80))
    checks = [
        "SELECT * FROM p WHERE id = 17",
        "SELECT count(*), sum(v) FROM p",
        "SELECT label, count(*) FROM p GROUP BY label ORDER BY label NULLS LAST",
    ]
    steps = [
        "UPDATE p SET v = v + 1 WHERE k = 3",
        "DELETE FROM p WHERE id >= 70",
        "INSERT INTO p VALUES (500, 3, 0.5, 'z')",
        "UPDATE p SET label = 'w' WHERE id < 5",
    ]
    for step in steps:
        cached.execute(step)
        uncached.execute(step)
        for query in checks:
            assert cached.execute(query).rows == uncached.execute(query).rows, (step, query)


# ---------------------------------------------------------------------------
# Invalidation triggers
# ---------------------------------------------------------------------------


def test_ddl_invalidates_cached_plans():
    rng = random.Random(2)
    cached, uncached = _make_pair(_random_rows(rng, 60))
    query = "SELECT * FROM p WHERE id = 30"
    assert cached.execute(query).rows == uncached.execute(query).rows
    before = cached.plan_cache.stats()["invalidations"]
    # Any catalog change bumps the catalog version: the cached plan replans.
    cached.execute("CREATE TABLE unrelated (x INTEGER)")
    uncached.execute("CREATE TABLE unrelated (x INTEGER)")
    assert cached.execute(query).rows == uncached.execute(query).rows
    assert cached.plan_cache.stats()["invalidations"] > before


def test_drop_index_replans_to_scan():
    rng = random.Random(3)
    cached, _ = _make_pair(_random_rows(rng, 60))
    query = "SELECT * FROM p WHERE id = 10"
    cached.execute(query)
    with_index = cached.execute(query)
    assert cached.last_stats.scan_details[0].access == "index"
    cached.execute("DROP INDEX p_id")
    after_drop = cached.execute(query)
    assert after_drop.rows == with_index.rows
    # The replanned statement fell back to a scan — no stale index plan ran.
    assert cached.last_stats.scan_details[0].access != "index"


def test_analyze_invalidates_cached_plans():
    rng = random.Random(4)
    cached, _ = _make_pair(_random_rows(rng, 60))
    query = "SELECT count(*) FROM p WHERE k = 5"
    cached.execute(query)
    cached.execute(query)
    before = cached.plan_cache.stats()["invalidations"]
    cached.execute("ANALYZE p")  # statistics snapshot bumps the catalog version
    cached.execute(query)
    assert cached.plan_cache.stats()["invalidations"] > before


def test_dml_drift_invalidates_cached_plans():
    db = Database(plan_cache=32)
    db.execute("CREATE TABLE d (id INTEGER, v INTEGER)")
    db.load_rows("d", [(i, i) for i in range(50)])
    query = "SELECT count(*) FROM d WHERE v >= 0"
    assert db.execute(query).rows[0][0] == 50
    before = db.plan_cache.stats()["invalidations"]
    # Grow the table far past the drift threshold (max(64, 20% of rows)).
    db.load_rows("d", [(i, i) for i in range(50, 550)])
    assert db.execute(query).rows[0][0] == 550
    assert db.plan_cache.stats()["invalidations"] > before


def test_small_dml_does_not_thrash_the_cache():
    db = Database(plan_cache=32)
    db.execute("CREATE TABLE d (id INTEGER, v INTEGER)")
    db.load_rows("d", [(i, i) for i in range(1000)])
    query = "SELECT count(*) FROM d WHERE v >= %(cut)s"
    db.execute(query, {"cut": 0})
    before = db.plan_cache.stats()
    # A handful of single-row inserts stays under the drift threshold: the
    # cached plan keeps serving (with exact results — counts include new rows).
    for i in range(5):
        db.execute("INSERT INTO d VALUES (%(i)s, %(i)s)", {"i": 1000 + i})
        assert db.execute(query, {"cut": 0}).rows[0][0] == 1001 + i
    after = db.plan_cache.stats()
    assert after["invalidations"] == before["invalidations"]
    assert after["hits"] > before["hits"]


# ---------------------------------------------------------------------------
# Normalization subtleties
# ---------------------------------------------------------------------------


def test_limit_and_ordinal_literals_stay_unparameterized():
    # LIMIT requires a raw number token and ORDER BY 2 is an ordinal: both
    # must survive in the fingerprint, so different values => different keys.
    one = normalize_statement("SELECT a, b FROM t ORDER BY 2 LIMIT 3")
    two = normalize_statement("SELECT a, b FROM t ORDER BY 2 LIMIT 4")
    other = normalize_statement("SELECT a, b FROM t ORDER BY 1 LIMIT 3")
    assert one.fingerprint != two.fingerprint
    assert one.fingerprint != other.fingerprint
    assert "limit 3" in one.fingerprint
    # WHERE literals, by contrast, do get parameterized and share a key.
    lhs = normalize_statement("SELECT a FROM t WHERE a = 5")
    rhs = normalize_statement("SELECT a FROM t WHERE a = 99")
    assert lhs.fingerprint == rhs.fingerprint
    assert lhs.values != rhs.values


def test_synthetic_parameter_names_are_reserved():
    db = Database(plan_cache=8)
    db.execute("CREATE TABLE r (x INTEGER)")
    db.execute("INSERT INTO r VALUES (1), (2)")
    # A user parameter in the reserved namespace bypasses the cache but still
    # executes correctly.
    result = db.execute("SELECT x FROM r WHERE x = %(__c0)s", {"__c0": 2})
    assert result.rows == [(2,)]
    normalized = normalize_statement("SELECT x FROM r WHERE x = %(__c0)s")
    assert normalized is None
    assert SYNTHETIC_PREFIX == "__c"


def test_ddl_statements_are_not_cached():
    assert normalize_statement("CREATE TABLE z (a INTEGER)") is None
    assert normalize_statement("DROP TABLE z") is None
    assert normalize_statement("ANALYZE p") is None
    assert normalize_statement("EXPLAIN SELECT 1") is None


def test_statement_read_only_classification():
    assert statement_is_read_only(parse_statement("SELECT 1"))
    assert statement_is_read_only(parse_statement("EXPLAIN SELECT 1"))
    assert statement_is_read_only(parse_statement("EXPLAIN ANALYZE SELECT 1"))
    assert not statement_is_read_only(
        parse_statement("EXPLAIN ANALYZE DELETE FROM p WHERE id = 1")
    )
    assert not statement_is_read_only(parse_statement("INSERT INTO p VALUES (1, 1, 1.0, 'a')"))
    assert not statement_is_read_only(parse_statement("UPDATE p SET v = 0"))


# ---------------------------------------------------------------------------
# Prepared statements and cache mechanics
# ---------------------------------------------------------------------------


def test_prepared_statement_parity_and_replan():
    rng = random.Random(6)
    cached, uncached = _make_pair(_random_rows(rng, 90))
    prepared = cached.prepare("SELECT id, v FROM p WHERE id = %(id)s")
    assert prepared.parameter_names == ["id"]
    for key in (0, 7, 42, 89, 200, -1):
        assert (
            prepared.execute({"id": key}).rows
            == uncached.execute("SELECT id, v FROM p WHERE id = %(id)s", {"id": key}).rows
        )
    # DDL between executions: the handle revalidates and replans transparently.
    cached.execute("DROP INDEX p_id")
    uncached.execute("DROP INDEX p_id")
    assert (
        prepared.execute({"id": 42}).rows
        == uncached.execute("SELECT id, v FROM p WHERE id = %(id)s", {"id": 42}).rows
    )


def test_lru_eviction_keeps_capacity():
    db = Database(plan_cache=4)
    db.execute("CREATE TABLE e (a INTEGER)")
    db.execute("INSERT INTO e VALUES (1)")
    # LIMIT literals are frozen into the fingerprint: 8 distinct cache keys.
    for limit in range(1, 9):
        db.execute(f"SELECT a FROM e LIMIT {limit}")
    assert db.plan_cache.stats()["entries"] <= 4


def test_cache_disabled_is_the_default():
    db = Database()
    assert db.plan_cache is None
    db.execute("CREATE TABLE n (a INTEGER)")
    db.execute("INSERT INTO n VALUES (3)")
    assert db.execute("SELECT a FROM n").rows == [(3,)]
