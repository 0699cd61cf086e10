"""Plan cache vs dictionary compression: demotion must stay invisible.

A cached plan is only an AST — executing it always goes back through the
executor, which consults the *current* storage representation.  So when a
text column demotes from dictionary to plain object storage mid-session
(cardinality blowout), cached plans and prepared handles must keep
returning correct results: the vectorized text path silently declines
(``where_vectorized`` flips to False) and, once the demoting INSERT drifts
past the plan cache's replan threshold, the entry is invalidated and replanned.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.engine.columnar import DictColumn


@pytest.fixture()
def tiny_dictionaries(monkeypatch):
    """Dictionaries blow out after 4 distinct values: demotion on demand."""
    monkeypatch.setattr(DictColumn, "MAX_DISTINCT", 4)


def _make_db(*, plan_cache=64, rows=200):
    db = Database(num_segments=3, plan_cache=plan_cache)
    db.execute("CREATE TABLE s (id INTEGER, label TEXT)")
    db.load_rows("s", [(i, "abc"[i % 3]) for i in range(1, rows + 1)])
    return db


def _demote(db, start, count):
    """Insert ``count`` distinct labels: every segment's dictionary demotes."""
    db.execute(
        "INSERT INTO s VALUES "
        + ", ".join(f"({i}, 'unique_{i}')" for i in range(start, start + count))
    )


def test_cached_plan_survives_demotion_below_drift(tiny_dictionaries):
    db = _make_db()
    query = "SELECT count(*) FROM s WHERE label = 'a'"
    expected = db.execute(query)
    assert expected.stats.where_vectorized is True
    db.execute(query)  # warm: second execution is a cache hit
    hits_before = db.plan_cache.stats()["hits"]
    invalidations_before = db.plan_cache.stats()["invalidations"]

    # A small INSERT (under max(64, 20% of rows)) keeps the plan cached but
    # flips the storage representation underneath it.
    _demote(db, 1000, 12)

    after = db.execute(query)
    assert after.rows == expected.rows  # none of the new labels match
    assert after.stats.where_vectorized is False  # dict path declined
    stats = db.plan_cache.stats()
    assert stats["hits"] > hits_before  # served from cache...
    assert stats["invalidations"] == invalidations_before  # ...not replanned


def test_demoting_insert_past_drift_invalidates(tiny_dictionaries):
    db = _make_db(rows=100)
    query = "SELECT count(*) FROM s WHERE label != 'c'"
    first = db.execute(query)
    db.execute(query)
    before = db.plan_cache.stats()["invalidations"]

    # 200 distinct labels: demotes every segment AND drifts past the
    # invalidation threshold, so the next execution replans.
    _demote(db, 1000, 200)

    after = db.execute(query)
    assert after.rows[0][0] == first.rows[0][0] + 200
    assert db.plan_cache.stats()["invalidations"] > before


def test_prepared_execute_correct_across_demotion(tiny_dictionaries):
    db = _make_db()
    twin = Database(num_segments=3)  # no cache, no compression pressure
    twin.execute("CREATE TABLE s (id INTEGER, label TEXT)")
    twin.load_rows("s", [(i, "abc"[i % 3]) for i in range(1, 201)])

    prepared = db.prepare("SELECT id FROM s WHERE label = %(x)s ORDER BY id")
    query = "SELECT id FROM s WHERE label = %(x)s ORDER BY id"

    compressed = prepared.execute({"x": "b"})
    assert compressed.rows == twin.execute(query, {"x": "b"}).rows
    assert compressed.stats.where_vectorized is True

    _demote(db, 1000, 12)
    _demote(twin, 1000, 12)

    # Same handle, new storage representation: identical answers, row path.
    for probe in ("b", "unique_1005", "missing"):
        got = prepared.execute({"x": probe})
        assert got.rows == twin.execute(query, {"x": probe}).rows, probe
    assert prepared.execute({"x": "b"}).stats.where_vectorized is False


def test_recompressed_table_revectorizes_through_cache(tiny_dictionaries):
    # Demote, then rebuild the table contents with CREATE TABLE AS: the new
    # table's fresh segments re-acquire dictionaries, and cached plans
    # against it vectorize again.
    db = _make_db(rows=60)
    _demote(db, 1000, 12)
    assert db.execute("SELECT count(*) FROM s WHERE label = 'a'").stats.where_vectorized is False

    db.execute("CREATE TABLE compact AS SELECT id, label FROM s WHERE id <= 60")
    query = "SELECT count(*) FROM compact WHERE label = 'a'"
    first = db.execute(query)
    assert first.stats.where_vectorized is True
    assert first.rows == [(20,)]
    second = db.execute(query)  # cache hit, same vectorized path
    assert second.rows == first.rows
    assert second.stats.where_vectorized is True
