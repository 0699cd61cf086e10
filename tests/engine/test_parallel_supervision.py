"""Worker-pool supervision: crashes, hangs, retries, fallback, passthrough.

The contract (``docs/robustness.md``): *infrastructure* failures — a dead
or hung worker, an unpicklable dispatch — are retried with backoff and, if
the budget runs out, fall back to in-process execution with
``ExecutionStats.parallel_fallback_reason`` set; results are byte-identical
either way.  *Query* errors raised by user expressions are none of the
pool's business: they propagate to the caller with exactly the message the
in-process tier produces, and are never retried (a side-effecting UDA must
not run twice because a *different* worker died).
"""

from __future__ import annotations

import pickle

import pytest

from repro.engine import Database, FaultInjector, WorkerPoolError
from repro.engine.faults import PICKLE_ERROR, SLOW_WORKER, WORKER_CRASH, WORKER_HANG

ROWS = 240
EXPECTED_SUM = sum(i * 2 for i in range(ROWS))


def _make_db(
    faults=None, *, parallel: int = 2, task_timeout: float = 5.0, retries: int = 2
) -> Database:
    db = Database(
        num_segments=4,
        parallel=parallel,
        faults=faults,
        parallel_task_timeout=task_timeout,
        parallel_task_retries=retries,
        parallel_min_dispatch_rows=0,
    )
    db.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
    db.load_rows("t", [(i % 12, i * 2) for i in range(ROWS)])
    return db


def test_worker_crash_retries_to_byte_identical_result():
    """A SIGKILL'd worker mid-aggregate: retry succeeds, stats record it."""
    faults = FaultInjector(7).arm("parallel.task", WORKER_CRASH, max_fires=1)
    db = _make_db(faults, task_timeout=3.0)
    try:
        result = db.execute("SELECT sum(v) FROM t")
        assert result.rows[0][0] == EXPECTED_SUM
        assert result.stats.worker_retries > 0
        assert result.stats.parallel_fallback_reason is None  # retry, not fallback
        assert db._worker_pool.stats()["infra_failures"] >= 1
    finally:
        db.close()


def test_worker_hang_deadline_respawn():
    """A hung worker occupies its pool slot; only respawn reclaims it."""
    faults = FaultInjector(7).arm("parallel.task", WORKER_HANG, max_fires=1)
    db = _make_db(faults, task_timeout=1.0)
    try:
        result = db.execute("SELECT sum(v) FROM t")
        assert result.rows[0][0] == EXPECTED_SUM
        assert result.stats.pool_respawns >= 1
        assert db._worker_pool.stats()["pool_respawns"] >= 1
    finally:
        db.close()


def test_crash_every_attempt_falls_back_with_reason():
    """Retry budget exhausted: in-process fallback, reason on the stats."""
    faults = FaultInjector(7).arm("parallel.task", WORKER_CRASH)  # unbounded
    db = _make_db(faults, task_timeout=1.0, retries=1)
    try:
        result = db.execute("SELECT sum(v) FROM t")
        assert result.rows[0][0] == EXPECTED_SUM  # fallback is byte-identical
        assert result.stats.parallel_fallback_reason == "worker_lost"
        assert db._worker_pool.stats()["fallbacks"] >= 1
    finally:
        db.close()


def test_pickle_error_is_nonretryable_fallback():
    """An unshippable dispatch never retries — straight to fallback."""
    faults = FaultInjector(7).arm("parallel.dispatch", PICKLE_ERROR, max_fires=1)
    db = _make_db(faults)
    try:
        result = db.execute("SELECT sum(v) FROM t")
        assert result.rows[0][0] == EXPECTED_SUM
        assert result.stats.parallel_fallback_reason == "pickle_error"
        assert result.stats.worker_retries == 0
        counters = db._worker_pool.stats()
        assert counters["fallbacks"] == 1
        assert counters["worker_retries"] == 0
    finally:
        db.close()


def test_slow_worker_finishes_within_deadline():
    """A slow (not hung) worker completes normally; no retry, no fallback."""
    faults = FaultInjector(7).arm(
        "parallel.task", SLOW_WORKER, max_fires=2, delay=0.05
    )
    db = _make_db(faults, task_timeout=5.0)
    try:
        result = db.execute("SELECT sum(v) FROM t")
        assert result.rows[0][0] == EXPECTED_SUM
        assert result.stats.worker_retries == 0
        assert result.stats.parallel_fallback_reason is None
    finally:
        db.close()


def test_query_error_propagates_byte_identical_and_is_not_retried():
    """A user-expression error is a query error: same type, same message as
    the in-process tier, zero retries, zero fallbacks."""
    rows = [(i % 4, f"row{i}") for i in range(ROWS)]
    inprocess = Database(num_segments=4)
    inprocess.execute("CREATE TABLE s (k INTEGER, name TEXT)")
    inprocess.load_rows("s", rows)
    parallel = _make_db()
    parallel.execute("CREATE TABLE s (k INTEGER, name TEXT)")
    parallel.load_rows("s", rows)
    sql = "SELECT avg(name) FROM s"  # ValueError inside the fold itself
    try:
        with pytest.raises(Exception) as baseline:
            inprocess.execute(sql)
        with pytest.raises(Exception) as pooled:
            parallel.execute(sql)
        assert type(pooled.value) is type(baseline.value)
        assert str(pooled.value) == str(baseline.value)
        counters = parallel._worker_pool.stats()
        assert counters["query_errors"] >= 1
        assert counters["worker_retries"] == 0
        assert counters["fallbacks"] == 0
    finally:
        inprocess.close()
        parallel.close()


def test_multi_aggregate_statement_under_crash():
    """Every aggregate of a statement rides the same supervision; a crash in
    one fan-out leaves the whole row byte-identical."""
    faults = FaultInjector(11).arm("parallel.task", WORKER_CRASH, max_fires=1)
    db = _make_db(faults, task_timeout=3.0)
    plain = Database(num_segments=4)
    plain.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
    plain.load_rows("t", [(i % 12, i * 2) for i in range(ROWS)])
    sql = "SELECT sum(v), count(*), max(k), avg(v) FROM t WHERE k > 2"
    try:
        result = db.execute(sql)
        assert result.rows == plain.execute(sql).rows
        assert result.stats.executed_parallel and result.stats.worker_retries > 0
    finally:
        db.close()
        plain.close()


def test_worker_pool_error_pickles():
    """The error crosses the process boundary with its fields intact."""
    err = WorkerPoolError("worker_lost", retries=2, respawns=1)
    clone = pickle.loads(pickle.dumps(err))
    assert isinstance(clone, WorkerPoolError)
    assert clone.reason == "worker_lost"
    assert clone.retries == 2 and clone.respawns == 1
    assert str(clone) == str(err)


def test_pool_counters_accumulate_across_statements():
    faults = FaultInjector(5).arm("parallel.task", WORKER_CRASH, max_fires=2)
    db = _make_db(faults, task_timeout=3.0)
    try:
        for _ in range(3):
            assert db.execute("SELECT sum(v) FROM t").rows[0][0] == EXPECTED_SUM
        counters = db._worker_pool.stats()
        assert counters["dispatches"] >= 3
        assert counters["infra_failures"] >= 1
        assert counters["query_errors"] == 0
    finally:
        db.close()


def test_respawned_pool_keeps_serving():
    """After an explicit respawn the pool dispatches as if nothing happened."""
    db = _make_db()
    try:
        before = db.execute("SELECT sum(v) FROM t").rows[0][0]
        db._worker_pool.respawn()
        assert db.execute("SELECT sum(v) FROM t").rows[0][0] == before
        assert db._worker_pool.stats()["pool_respawns"] == 1
    finally:
        db.close()
