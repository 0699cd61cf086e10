"""Real parallel segment execution: worker-pool tier parity and lifecycle.

The worker pool (``Database(parallel=N)``, ``repro.engine.parallel``) must
be observationally identical to in-process execution: same results for the
whole compiled-parity corpus, same queries succeeding, with non-picklable
user-defined aggregates transparently falling back to the in-process fold.
These tests force the pool on (``min_dispatch_rows = 0``) so even the small
test tables actually cross the process boundary.
"""

from __future__ import annotations

import operator
import pickle
import threading

import numpy as np
import pytest

from repro import Database
from repro.engine.aggregates import AggregateDefinition
from repro.engine.parallel import SegmentWorkerPool, shippable_spec
from repro.engine.vectorized import ColumnBatch, ConstantColumn
from repro.errors import ValidationError

from test_compiled_parity import CORPUS, _assert_results_equal, _make_pair


def _force_pool(database: Database) -> Database:
    """Dispatch every eligible aggregate through the workers, however small."""
    database.worker_pool.min_dispatch_rows = 0
    return database


@pytest.fixture(scope="module")
def parallel_pair():
    """(parallel db, serial db) with identical contents; pool torn down after."""
    compiled_serial, _ = _make_pair()
    parallel_db = Database(num_segments=4, parallel=2)
    _force_pool(parallel_db)
    # Clone the corpus table into the parallel database.
    parallel_db.create_table(
        "t",
        [
            ("id", "integer"),
            ("grp", "text"),
            ("a", "double precision"),
            ("b", "double precision"),
            ("s", "text"),
            ("arr", "double precision[]"),
        ],
        distributed_by="id",
    )
    parallel_db.load_rows("t", list(compiled_serial.table("t").rows()))
    yield parallel_db, compiled_serial
    parallel_db.close()


@pytest.mark.parametrize("query", CORPUS)
def test_parallel_matches_serial(parallel_pair, query):
    parallel_db, serial_db = parallel_pair
    _assert_results_equal(parallel_db.execute(query), serial_db.execute(query), query)


def test_stats_record_measured_parallel_execution(parallel_pair):
    parallel_db, _ = parallel_pair
    stats = parallel_db.execute("SELECT sum(a) FROM t").stats
    timings = stats.aggregate_timings[0]
    assert timings.executed_parallel
    assert timings.num_workers == 2
    assert timings.measured_parallel_wall_seconds > 0.0
    assert timings.measured_parallel_seconds >= timings.measured_parallel_wall_seconds
    assert timings.measured_speedup is not None
    assert len(timings.per_segment_seconds) == 4  # worker-measured fold times
    assert stats.executed_parallel
    assert stats.measured_parallel_seconds is not None
    # The summed fold time is reported beside the measured wall clock.
    assert timings.serial_seconds >= sum(timings.per_segment_seconds) > 0.0


def test_serial_database_never_reports_measured_parallelism(parallel_pair):
    _, serial_db = parallel_pair
    stats = serial_db.execute("SELECT sum(a) FROM t").stats
    assert serial_db.worker_pool is None
    assert not stats.executed_parallel
    assert stats.measured_parallel_seconds is None
    assert all(t.num_workers == 0 for t in stats.aggregate_timings)


def test_non_picklable_uda_falls_back_to_serial(parallel_pair):
    parallel_db, _ = parallel_pair
    parallel_db.create_aggregate(
        "lambda_sum",
        transition=lambda state, value: state + value,
        merge=lambda a, b: a + b,
        initial_state=0,
    )
    result = parallel_db.execute("SELECT lambda_sum(id) FROM t")
    assert result.rows[0][0] == sum(range(1, 61))
    assert not result.stats.aggregate_timings[0].executed_parallel


def test_module_level_uda_ships_to_workers(parallel_pair):
    parallel_db, _ = parallel_pair
    from repro.methods import linear_regression

    definition = linear_regression.make_linregr_aggregate()
    assert shippable_spec(definition) is not None
    assert shippable_spec(definition)[0] == "funcs"


def test_linregr_parity_under_real_parallelism():
    from repro.datasets import make_regression, load_regression_table
    from repro.methods import linear_regression

    results = []
    for workers in (0, 2):
        db = Database(num_segments=6, parallel=workers)
        if workers:
            _force_pool(db)
        data = make_regression(400, 6, noise=0.3, seed=11)
        load_regression_table(db, "data", data)
        results.append(linear_regression.train(db, "data"))
        timings = db.last_stats.aggregate_timings[0]
        assert timings.executed_parallel == bool(workers)
        db.close()
    serial, parallel = results
    np.testing.assert_allclose(serial.coef, parallel.coef, rtol=1e-10)
    np.testing.assert_allclose(serial.std_err, parallel.std_err, rtol=1e-10)
    assert serial.num_rows == parallel.num_rows


def test_builtin_specs_travel_by_name(parallel_pair):
    parallel_db, _ = parallel_pair
    for name in ("count", "sum", "min", "max", "bool_and", "string_agg"):
        definition = parallel_db.catalog.get_aggregate(name)
        spec = shippable_spec(definition)
        assert spec == ("builtin", name)
        pickle.dumps(spec)  # must always cross the wire


def test_replaced_builtin_name_is_not_confused_with_builtin():
    db = Database(num_segments=2, parallel=1)
    _force_pool(db)
    db.create_table("v", [("x", "double precision")])
    db.load_rows("v", [(float(i),) for i in range(20)])
    # A user aggregate that *shadows* a builtin name with different semantics
    # must never be resolved to the builtin inside a worker.
    db.create_aggregate(
        "sum",
        transition=lambda state, value: state + 2 * value,
        merge=lambda a, b: a + b,
        initial_state=0.0,
    )
    assert db.query_scalar("SELECT sum(x) FROM v") == pytest.approx(2 * sum(range(20)))
    db.close()


def test_pool_is_persistent_and_reused(parallel_pair):
    parallel_db, _ = parallel_pair
    pool = parallel_db.worker_pool
    assert pool.started  # earlier tests already ran queries
    parallel_db.execute("SELECT avg(a) FROM t")
    parallel_db.execute("SELECT max(b) FROM t")
    assert parallel_db.worker_pool is pool  # same pool object, no respawn


def test_small_fanouts_stay_in_process():
    db = Database(num_segments=4, parallel=2)  # default dispatch floor
    db.create_table("tiny", [("x", "double precision")])
    db.load_rows("tiny", [(float(i),) for i in range(10)])
    result = db.execute("SELECT sum(x) FROM tiny")
    assert result.rows[0][0] == float(sum(range(10)))
    assert not result.stats.aggregate_timings[0].executed_parallel
    assert not db.worker_pool.started  # never even spawned
    db.close()


def test_iteration_controller_warms_the_pool():
    from repro.driver import IterationController

    db = Database(num_segments=2, parallel=1)
    assert not db.worker_pool.started
    controller = IterationController(db, initial_state=0.0, max_iterations=3)
    assert db.worker_pool.started  # spawn cost paid before the first iteration
    controller.cleanup()
    db.close()


def test_database_close_is_idempotent_and_disables_the_tier():
    db = Database(num_segments=2, parallel=2)
    _force_pool(db)
    db.create_table("v", [("x", "double precision")])
    db.load_rows("v", [(float(i),) for i in range(50)])
    assert db.execute("SELECT sum(x) FROM v").stats.aggregate_timings[0].executed_parallel
    db.close()
    db.close()
    # Still queryable, just without workers.
    result = db.execute("SELECT sum(x) FROM v")
    assert result.rows[0][0] == float(sum(range(50)))
    assert not result.stats.aggregate_timings[0].executed_parallel


def test_parallel_validation():
    with pytest.raises(ValidationError):
        Database(parallel=-1)
    with pytest.raises(ValidationError):
        SegmentWorkerPool(0)


def test_column_batch_pickles_compactly_and_exactly():
    floats = [1.5, float("nan"), -0.0, 3.25]
    mixed = [1, None, "x", 2.5]
    batch = ColumnBatch((floats, mixed))
    restored = pickle.loads(pickle.dumps(batch))
    assert restored.length == batch.length
    assert restored.columns[0][0] == 1.5 and restored.columns[0][2] == -0.0
    assert restored.columns[0][1] != restored.columns[0][1]  # NaN round-trips
    assert restored.columns[1] == mixed  # types preserved on the raw path
    assert all(type(v) is float for v in restored.columns[0])

    constant = ColumnBatch((ConstantColumn(1, 10_000),), prefiltered=True)
    payload = pickle.dumps(constant)
    assert len(payload) < 500  # O(1) wire format, not 10k pickled ints
    restored = pickle.loads(payload)
    assert restored.prefiltered and len(restored) == 10_000
    assert list(restored.columns[0][:3]) == [1, 1, 1]


# ---------------------------------------------------------------------------
# Method-library kernels on the pool: byte-identical to the in-process fold.
# ---------------------------------------------------------------------------


def _uda_pair():
    serial = Database(num_segments=4)
    parallel = _force_pool(Database(num_segments=4, parallel=2))
    for db in (serial, parallel):
        db.create_table("v", [("x", "double precision")], distributed_by="x")
        db.load_rows("v", [(float(i % 37) * 1.7,) for i in range(300)])
    return serial, parallel


def test_quantile_reservoir_runs_on_pool_with_identical_result():
    from repro.methods.quantiles import install_quantile_aggregate

    serial, parallel = _uda_pair()
    for db in (serial, parallel):
        install_quantile_aggregate(db, reservoir_size=64)
    expected = serial.query_scalar("SELECT quantile_reservoir(x) FROM v")
    result = parallel.query_scalar("SELECT quantile_reservoir(x) FROM v")
    assert parallel.last_stats.aggregate_timings[0].executed_parallel
    assert result == expected  # byte-identical reservoirs, not just close
    parallel.close()


def test_fm_sketch_runs_on_pool_with_identical_result():
    from repro.methods.sketches import install_fm

    serial, parallel = _uda_pair()
    for db in (serial, parallel):
        install_fm(db, num_maps=16)
    expected = serial.query_scalar("SELECT fmsketch(x) FROM v")
    result = parallel.query_scalar("SELECT fmsketch(x) FROM v")
    assert parallel.last_stats.aggregate_timings[0].executed_parallel
    assert (result.bitmaps == expected.bitmaps).all()
    parallel.close()


def test_countmin_sketch_runs_on_pool_with_identical_result():
    from repro.methods.sketches import install_countmin

    serial, parallel = _uda_pair()
    for db in (serial, parallel):
        install_countmin(db, eps=0.05, delta=0.05)
    expected = serial.query_scalar("SELECT cmsketch(x) FROM v")
    result = parallel.query_scalar("SELECT cmsketch(x) FROM v")
    assert parallel.last_stats.aggregate_timings[0].executed_parallel
    assert (result.counters == expected.counters).all() and result.total == expected.total
    parallel.close()


def test_igd_epoch_runs_on_pool_with_identical_model():
    import numpy as np

    from repro.convex.igd import install_igd
    from repro.convex.objectives import LeastSquaresObjective
    from repro.datasets import make_regression, load_regression_table

    data = make_regression(300, 4, noise=0.2, seed=17)
    models = []
    for workers in (0, 2):
        db = Database(num_segments=4, parallel=workers)
        if workers:
            _force_pool(db)
        load_regression_table(db, "d", data)
        install_igd(db, LeastSquaresObjective(4))
        record = db.execute("SELECT igd_epoch(%(m)s, 0.01, y, x) FROM d", {"m": None})
        if workers:
            assert record.stats.aggregate_timings[0].executed_parallel
            db.close()
        models.append(np.asarray(record.rows[0][0]["model"]))
    np.testing.assert_array_equal(models[0], models[1])


def test_cg_matvec_runs_on_pool_with_identical_solution():
    import numpy as np

    from repro.support.conjugate_gradient import conjugate_gradient_sql

    rng = np.random.default_rng(5)
    basis = rng.normal(size=(6, 6))
    matrix = basis @ basis.T + 6 * np.eye(6)
    rhs = rng.normal(size=6)
    solutions = []
    for workers in (0, 2):
        db = Database(num_segments=3, parallel=workers)
        if workers:
            _force_pool(db)
        db.create_table("m", [("id", "integer"), ("row", "double precision[]")])
        db.load_rows("m", [(i, list(map(float, matrix[i]))) for i in range(6)])
        result = conjugate_gradient_sql(db, "m", "row", rhs, tolerance=1e-10)
        solutions.append(result.solution)
        if workers:
            db.close()
    np.testing.assert_allclose(solutions[0], solutions[1], rtol=1e-12)


# ---------------------------------------------------------------------------
# What cannot cross the process boundary stays in-process.
# ---------------------------------------------------------------------------


class _LockedKernel:
    """A kernel object holding a lock."""

    def __init__(self) -> None:
        self.lock = threading.Lock()

    def __call__(self, state, value):
        return state + value


def _local_closure():
    def add(state, value):
        return state + value

    return add


#: One unpicklable callable per exception ``pickle.dumps`` raises for it.
UNPICKLABLE = {
    "lambda": (lambda state, value: state + value, pickle.PicklingError),
    "closure": (_local_closure(), AttributeError),
    "lock": (_LockedKernel(), TypeError),
}


@pytest.mark.parametrize("kind", list(UNPICKLABLE))
def test_unpicklable_transition_answers_in_process(kind):
    transition, error = UNPICKLABLE[kind]
    with pytest.raises(error):
        pickle.dumps(transition)
    definition = AggregateDefinition(
        f"sum_{kind}", transition, merge=operator.add, initial_state=0.0
    )
    assert shippable_spec(definition) is None
    db = _force_pool(Database(num_segments=4, parallel=2))
    db.catalog.register_aggregate(definition)
    db.create_table("v", [("x", "double precision")])
    db.load_rows("v", [(float(i),) for i in range(50)])
    result = db.execute(f"SELECT sum_{kind}(x) FROM v")
    assert result.rows[0][0] == float(sum(range(50)))
    assert not result.stats.aggregate_timings[0].executed_parallel
    assert db.worker_pool.stats()["dispatches"] == 0
    db.close()


@pytest.mark.parametrize("kind", list(UNPICKLABLE))
def test_unpicklable_batch_kernel_alone_ships_the_row_fold(kind):
    batch, _error = UNPICKLABLE[kind]
    definition = AggregateDefinition(
        "sum_rows", operator.add, merge=operator.add, initial_state=0.0, batch_transition=batch
    )
    spec = shippable_spec(definition)
    assert spec is not None and spec[0] == "funcs"
    assert spec[3] is None  # the worker folds row at a time
    pickle.dumps(spec)


# ---------------------------------------------------------------------------
# The pool folds ungrouped aggregates only: attaching one changes no grouped
# or join path.
# ---------------------------------------------------------------------------


def _load_fact_dim(db: Database) -> Database:
    # Both tables are distributed on ``k``: ``f.k = d.k`` is the co-located
    # shape, ``f.q = d.k`` the broadcast one.
    db.create_table(
        "fact",
        [
            ("id", "integer"),
            ("k", "integer"),
            ("q", "integer"),
            ("cat", "text"),
            ("v", "double precision"),
        ],
        distributed_by="k",
    )
    db.create_table("dim", [("k", "integer"), ("label", "text")], distributed_by="k")
    db.load_rows(
        "fact", [(i, i % 40, (i * 7) % 53, f"c{i % 5}", float(i % 97) * 0.5) for i in range(600)]
    )
    db.load_rows("dim", [(k, f"d{k % 6}") for k in range(40)])
    return db


@pytest.fixture(scope="module")
def pool_twins():
    """``(database with a forced pool, pool-less twin)``, same rows."""
    pooled = _load_fact_dim(_force_pool(Database(num_segments=4, parallel=2)))
    yield pooled, _load_fact_dim(Database(num_segments=4))
    pooled.close()


POOL_FREE_SHAPES = {
    "low_cardinality_group_by": "SELECT cat, count(*), sum(v) FROM fact GROUP BY cat ORDER BY cat",
    "high_cardinality_group_by": "SELECT id, sum(v), max(q) FROM fact GROUP BY id ORDER BY id",
    "expression_key": "SELECT q % 7, count(*), avg(v) FROM fact GROUP BY q % 7 ORDER BY 1",
    "distinct_grouped_call": "SELECT cat, count(DISTINCT q) FROM fact GROUP BY cat ORDER BY cat",
    "colocated_join": "SELECT f.id, d.label FROM fact f JOIN dim d ON f.k = d.k",
    "broadcast_join": "SELECT f.id, d.label FROM fact f JOIN dim d ON f.q = d.k",
    "join_then_group_by": (
        "SELECT d.label, count(*), sum(f.v) FROM fact f JOIN dim d ON f.k = d.k "
        "GROUP BY d.label ORDER BY d.label"
    ),
}


@pytest.mark.parametrize("shape", list(POOL_FREE_SHAPES))
def test_attaching_a_pool_changes_no_grouped_or_join_path(pool_twins, shape):
    sql = POOL_FREE_SHAPES[shape]
    pooled, twin = pool_twins
    before = pooled.worker_pool.stats()["dispatches"]
    got, want = pooled.execute(sql), twin.execute(sql)
    assert pooled.worker_pool.stats()["dispatches"] == before
    assert not got.stats.executed_parallel
    _assert_results_equal(got, want, sql)
    assert got.stats.group_strategy == want.stats.group_strategy
    assert got.stats.join_strategy == want.stats.join_strategy


def test_ungrouped_aggregate_still_dispatches_beside_them(pool_twins):
    pooled, twin = pool_twins
    before = pooled.worker_pool.stats()["dispatches"]
    got = pooled.execute("SELECT sum(v), count(*) FROM fact")
    assert pooled.worker_pool.stats()["dispatches"] == before + 2  # one per aggregate
    assert got.stats.executed_parallel
    assert got.rows == twin.execute("SELECT sum(v), count(*) FROM fact").rows
