"""Batch ≡ row fold for every method-library segment kernel.

The paper's micro-programming layer (Section 3.3) moves a method's inner loop
off the row-at-a-time transition and onto dense arrays.  Each kernel here must
be interchangeable with folding its row transition over the same rows — for
any partitioning into segments, with NULL rows, with plan-time constants
arriving as ``ConstantColumn`` and array columns as one cached 2-D view — and
a kernel that declines (ragged arrays, an argument that may vary by row) must
hand over to the row fold without changing the outcome.

Exact equality for sketches and counts; ``rel=1e-12`` for float states, whose
sums the kernels accumulate in another order.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro import Database
from repro.abstraction import LogRegrIRLSState
from repro.convex.objectives import LogisticObjective
from repro.convex.igd import install_igd
from repro.datasets import load_logistic_table, load_points_table, make_blobs, make_logistic
from repro.engine.columnar import ArrayColumn
from repro.engine.segments import SegmentedAggregator
from repro.engine.vectorized import ConstantColumn
from repro.methods import kmeans, logistic_regression, naive_bayes, quantiles, svm
from repro.methods.sketches import countmin, fm
from repro.methods.sketches.countmin import CountMinSketch
from repro.methods.sketches.fm import FMSketch
from reference_tier import reference_database


def _definitions():
    database = Database()
    kmeans.install_kmeans(database)
    logistic_regression.install_logistic_regression(database)
    fm.install_fm(database)
    countmin.install_countmin(database)
    # The aggregate a ``train_gaussian`` call registers.
    load_logistic_table(database, "logi", make_logistic(4, 2, seed=1))
    naive_bayes.train_gaussian(database, "logi", "y", "x")
    return {name: database.catalog.get_aggregate(name) for name in KERNELS}


def _arrays(rng, n, width=3):
    return [np.asarray([rng.uniform(-4, 4) for _ in range(width)]) for _ in range(n)]


def _kmeans_columns(rng, n):
    centroids = np.asarray([rng.uniform(-4, 4) for _ in range(4 * 3)])
    return (_arrays(rng, n), ConstantColumn(centroids, n), ConstantColumn(4, n))


def _reassigned_columns(rng, n):
    old = np.asarray([rng.uniform(-4, 4) for _ in range(4 * 3)])
    new = old + np.asarray([rng.uniform(-1, 1) for _ in range(4 * 3)])
    return (_arrays(rng, n), ConstantColumn(old, n), ConstantColumn(new, n), ConstantColumn(4, n))


def _irls_columns(rng, n):
    coef = np.asarray([rng.uniform(-1, 1) for _ in range(3)])
    return ([float(rng.random() < 0.5) for _ in range(n)], _arrays(rng, n), ConstantColumn(coef, n))


def _sketch_columns(rng, n):
    # 1, 1.0 and True are one dictionary key but three reprs: three sketch items.
    pool = [1, 1.0, True, "1", None.__class__.__name__, 2.5, -7] + list(range(10, 40))
    return ([rng.choice(pool) for _ in range(n)],)


#: aggregate name -> (argument columns for n rows, whether states compare exactly)
KERNELS = {
    "kmeans_step": (_kmeans_columns, False),
    "kmeans_reassigned": (_reassigned_columns, True),
    "logregr_irls_step": (_irls_columns, False),
    "nb_gauss_stats": (lambda rng, n: (_arrays(rng, n),), False),
    "fmsketch": (_sketch_columns, True),
    "cmsketch": (_sketch_columns, True),
}

DEFINITIONS = _definitions()


def assert_states_equal(got, want, exact: bool) -> None:
    """Structural equality of two aggregate states."""
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            assert_states_equal(got[key], want[key], exact)
    elif isinstance(want, (FMSketch, CountMinSketch, LogRegrIRLSState)):
        assert type(got) is type(want)
        assert_states_equal(vars(got), vars(want), exact)
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        if exact or want.dtype.kind in "iu":
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    elif isinstance(want, float) and not exact:
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    else:
        assert type(got) is type(want) and got == want


def _slice(columns, low, high):
    return tuple(column[low:high] for column in columns)


def _fold(definition, columns, *, batch: bool):
    aggregator = SegmentedAggregator(definition, use_batch=batch)
    return aggregator._fold_columns(columns, len(columns[0])), aggregator


@pytest.mark.parametrize("name", sorted(KERNELS))
class TestBatchEqualsRowFold:
    def test_every_kernel_is_registered(self, name):
        assert DEFINITIONS[name].batch_transition is not None

    @pytest.mark.parametrize("size", [1, 7, 8, 57])
    def test_kernel_called_directly(self, name, size):
        """The kernel itself, below and above the engine's 8-row threshold."""
        definition, (make, exact) = DEFINITIONS[name], KERNELS[name]
        columns = make(random.Random(size), size)
        batched = definition.batch_transition(definition.make_state(), *columns)
        folded, _ = _fold(definition, columns, batch=False)
        assert_states_equal(batched, folded, exact)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_segment_splits_merge_to_the_serial_fold(self, name, seed):
        definition, (make, exact) = DEFINITIONS[name], KERNELS[name]
        rng = random.Random(seed)
        columns = make(rng, 90)
        cuts = sorted(rng.randint(0, 90) for _ in range(3))
        bounds = [0] + cuts + [90]
        states = []
        for low, high in zip(bounds, bounds[1:]):
            state, aggregator = _fold(definition, _slice(columns, low, high), batch=True)
            assert aggregator.batch_fallback_reason is None
            states.append(state)
        merged = SegmentedAggregator(definition).runner.merge_states(states)
        serial, _ = _fold(definition, columns, batch=False)
        assert_states_equal(definition.finalize(merged), definition.finalize(serial), exact)

    def test_null_rows(self, name):
        """NULL argument rows: a strict aggregate filters them before the
        kernel; the non-strict IRLS kernel declines and the row fold skips
        them.  Either way the state is the row tier's."""
        definition, (make, exact) = DEFINITIONS[name], KERNELS[name]
        rng = random.Random(3)
        columns = list(make(rng, 40))
        first = list(columns[0])
        for position in (0, 5, 6, 39):
            first[position] = None
        columns[0] = first
        batched, aggregator = _fold(definition, tuple(columns), batch=True)
        folded, _ = _fold(definition, tuple(columns), batch=False)
        assert_states_equal(batched, folded, exact)
        if definition.strict:
            assert aggregator.batch_fallback_reason is None
        else:
            assert aggregator.batch_fallback_reason.startswith("batch_kernel:")


@pytest.mark.parametrize("name", ["kmeans_step", "kmeans_reassigned", "logregr_irls_step"])
def test_argument_that_may_vary_by_row_declines_to_the_row_fold(name):
    """Only a ``ConstantColumn`` is known constant: the same values as a plain
    list make the kernel decline, and the row fold's state is unchanged."""
    definition, (make, exact) = DEFINITIONS[name], KERNELS[name]
    columns = make(random.Random(5), 30)
    as_lists = tuple(list(c) if isinstance(c, ConstantColumn) else c for c in columns)
    batched, aggregator = _fold(definition, as_lists, batch=True)
    folded, _ = _fold(definition, columns, batch=False)
    assert aggregator.batch_fallback_reason == "batch_kernel:TypeError"
    assert_states_equal(batched, folded, exact)


@pytest.mark.parametrize("name", ["kmeans_step", "nb_gauss_stats", "logregr_irls_step"])
def test_ragged_arrays_take_the_row_fold_and_its_outcome(name):
    """Ragged vectors: the kernel declines, the reason is recorded, and the
    caller sees exactly what the row tier gives — here, its error."""
    definition, (make, _exact) = DEFINITIONS[name], KERNELS[name]
    columns = list(make(random.Random(7), 20))
    position = 1 if name == "logregr_irls_step" else 0
    ragged = list(columns[position])
    ragged[11] = np.ones(5)
    columns[position] = ragged
    with pytest.raises(ValueError) as row_error:
        _fold(definition, tuple(columns), batch=False)
    aggregator = SegmentedAggregator(definition)
    with pytest.raises(ValueError) as batch_error:
        aggregator._fold_columns(tuple(columns), 20)
    assert aggregator.batch_fallback_reason == "batch_kernel:ValueError"
    assert str(batch_error.value) == str(row_error.value)


def test_irls_null_coefficients_constant():
    """The first IRLS pass binds ``previous_coef`` to NULL."""
    definition = DEFINITIONS["logregr_irls_step"]
    y, x, _ = _irls_columns(random.Random(2), 25)
    columns = (y, x, ConstantColumn(None, 25))
    batched, aggregator = _fold(definition, columns, batch=True)
    folded, _ = _fold(definition, columns, batch=False)
    assert aggregator.batch_fallback_reason is None
    assert_states_equal(batched, folded, False)


def test_sketches_are_byte_identical():
    definition = DEFINITIONS["fmsketch"]
    (values,) = _sketch_columns(random.Random(11), 200)
    batched, _ = _fold(definition, (values,), batch=True)
    folded, _ = _fold(definition, (values,), batch=False)
    assert batched.bitmaps.tobytes() == folded.bitmaps.tobytes()
    definition = DEFINITIONS["cmsketch"]
    batched, _ = _fold(definition, (values,), batch=True)
    folded, _ = _fold(definition, (values,), batch=False)
    assert batched.counters.tobytes() == folded.counters.tobytes()
    assert batched.total == folded.total == 200


# ---------------------------------------------------------------------------
# Through SQL: constants as ConstantColumn, the matrix view and its invalidation
# ---------------------------------------------------------------------------


def _points_pair(rows: int):
    points, _, _ = make_blobs(max(rows, 1), 3, 3, seed=23)
    pair = []
    for make in (Database, reference_database):
        database = make(num_segments=3)
        load_points_table(database, "pts", points[:rows])
        kmeans.install_kmeans(database)
        pair.append(database)
    return pair


STEP_SQL = "SELECT kmeans_step(coords, %(c)s, %(k)s) FROM pts"
REASSIGNED_SQL = "SELECT kmeans_reassigned(coords, %(c)s, %(d)s, %(k)s) FROM pts"
CENTROIDS = {"c": np.arange(9.0) - 4.0, "d": np.arange(9.0)[::-1] - 3.0, "k": 3}


def _assert_pair_agrees(batch_db, row_db, expect_tier="batch"):
    for sql, exact in ((STEP_SQL, False), (REASSIGNED_SQL, True)):
        got, want = batch_db.execute(sql, CENTROIDS), row_db.execute(sql, CENTROIDS)
        assert_states_equal(got.scalar(), want.scalar(), exact)
        assert got.stats.group_strategy == "columnar"
        assert got.stats.aggregate_timings[0].fold_tier == expect_tier
        timings = want.stats.aggregate_timings[0]
        assert (timings.fold_tier, timings.fold_decline_reason) == (
            "rows", "use_batch=False",
        )


def test_constants_ride_the_columnar_frame():
    batch_db, row_db = _points_pair(120)
    _assert_pair_agrees(batch_db, row_db)


@pytest.mark.parametrize("rows", [1, 7])
def test_short_streams_fold_by_rows(rows):
    batch_db, row_db = _points_pair(rows)
    _assert_pair_agrees(batch_db, row_db, expect_tier="rows")
    reason = batch_db.execute(STEP_SQL, CENTROIDS).stats.aggregate_timings[0].fold_decline_reason
    assert reason == "below _BATCH_MIN_ROWS"


def test_null_constant_on_a_strict_aggregate_filters_every_row():
    batch_db, row_db = _points_pair(40)
    parameters = dict(CENTROIDS, c=None)
    assert batch_db.query_scalar(STEP_SQL, parameters) is None
    assert row_db.query_scalar(STEP_SQL, parameters) is None


def test_volatile_argument_is_not_a_constant():
    database = Database(num_segments=2)
    database.create_table("t", [("x", "double precision")])
    database.load_rows("t", [(float(i),) for i in range(20)])
    result = database.execute("SELECT count(DISTINCT random()) FROM t")
    assert result.scalar() == 20
    assert result.stats.group_decline_reason == (
        "aggregate argument is neither a stored column nor a constant"
    )


def test_fold_tier_reasons_in_explain_analyze():
    database = Database(num_segments=2)
    database.create_table("t", [("g", "integer"), ("x", "double precision")])
    database.load_rows("t", [(i % 2, float(i)) for i in range(40)])
    plan = database.explain("SELECT g, sum(x), array_agg(x) FROM t GROUP BY g", analyze=True)
    assert "Fold: sum batch" in plan
    assert "Fold: array_agg rows (no batch kernel)" in plan


def test_matrix_view_is_cached_and_invalidated_by_every_mutation():
    batch_db, row_db = _points_pair(90)
    column = batch_db.table("pts").column_store(0).column(1)
    assert isinstance(column, ArrayColumn)
    view = column.matrix()
    assert view is column.matrix() and not view.flags.writeable
    assert np.array_equal(view, np.stack(list(column)))
    _assert_pair_agrees(batch_db, row_db)
    assert column.matrix() is view  # reads leave the cache alone

    mutations = [
        ("INSERT INTO pts VALUES (1000, %(p)s, NULL), (1001, %(q)s, NULL)",
         {"p": np.asarray([9.0, 9.0, 9.0]), "q": np.asarray([-9.0, 0.0, 1.0])}),
        ("UPDATE pts SET coords = %(p)s WHERE id < 30", {"p": np.asarray([0.5, -0.5, 2.0])}),
        ("DELETE FROM pts WHERE id >= 60 AND id < 1000", None),
    ]
    for sql, parameters in mutations:
        for database in (batch_db, row_db):
            database.execute(sql, parameters)
        _assert_pair_agrees(batch_db, row_db)
        fresh = batch_db.table("pts").column_store(0).column(1)
        assert fresh.matrix() is not view
        assert np.array_equal(fresh.matrix(), np.stack(list(fresh)))
        view = fresh.matrix()
    for database in (batch_db, row_db):
        database.table("pts").truncate()
    assert batch_db.table("pts").column_store(0).column(1).matrix() is None
    assert batch_db.query_scalar(STEP_SQL, CENTROIDS) is None
    assert batch_db.query_scalar(REASSIGNED_SQL, CENTROIDS) == 0


def test_selective_aggregate_after_dml_leaves_the_view_unbuilt():
    """Stacking the whole column for a handful of selected rows — again after
    every INSERT — would make mixed ingest + array-aggregate traffic O(N) per
    statement; a selection under a quarter of the column gathers row by row."""
    batch_db, row_db = _points_pair(120)
    column = batch_db.table("pts").column_store(0).column(1)
    for step in range(3):
        for database in (batch_db, row_db):
            database.execute(
                "INSERT INTO pts VALUES (%(i)s, %(p)s, NULL)",
                {"i": 2000 + step, "p": np.asarray([1.0, 2.0, float(step)])},
            )
        sql = "SELECT vector_sum(coords), count(*) FROM pts WHERE id < 24"
        got, want = batch_db.execute(sql), row_db.execute(sql)
        np.testing.assert_allclose(got.rows[0][0], want.rows[0][0], rtol=1e-12)
        assert got.rows[0][1] == want.rows[0][1] > 0
        assert got.stats.aggregate_timings[0].fold_tier == "batch"
        assert column._matrix[1] is None  # never stacked
    wide = "SELECT vector_sum(coords) FROM pts WHERE id >= 24"
    np.testing.assert_allclose(
        batch_db.query_scalar(wide), row_db.query_scalar(wide), rtol=1e-12
    )
    assert column._matrix[1] is not None  # most of the column: one gather from the view


def test_serial_merge_path_keeps_constants_and_the_batch_tier():
    """An aggregate with no merge function fuses the segment streams into
    one: a plan-time constant must stay a ``ConstantColumn`` through the
    fusion, or the fused fold falls from the batch kernel to the row fold."""
    points, _, _ = make_blobs(120, 3, 3, seed=23)
    data = make_logistic(120, 3, seed=9)
    pair = []
    for mergeable in (True, False):
        database = Database(num_segments=4)
        load_points_table(database, "pts", points)
        load_logistic_table(database, "logi", data)
        kmeans.install_kmeans(database)
        logistic_regression.install_logistic_regression(database)
        if not mergeable:
            catalog = database.catalog
            for name in ("kmeans_step", "kmeans_reassigned", "logregr_irls_step", "count"):
                catalog.register_aggregate(dataclasses.replace(catalog.get_aggregate(name), merge=None))
        pair.append(database)
    statements = [
        (STEP_SQL, CENTROIDS, False),
        (REASSIGNED_SQL, CENTROIDS, True),
        ("SELECT logregr_irls_step(y, x, %(c)s) FROM logi", {"c": np.asarray([0.1, -0.2, 0.3])}, False),
        ("SELECT count(*) FROM pts", None, True),
    ]
    for sql, parameters, exact in statements:
        merged, fused = (database.execute(sql, parameters) for database in pair)
        assert_states_equal(fused.scalar(), merged.scalar(), exact)
        timings = fused.stats.aggregate_timings[0]
        assert (timings.fold_tier, timings.batch_fallback_reason) == ("batch", None), sql
        assert timings.num_segments == 1


@pytest.mark.parametrize(
    "install, other",
    [
        (fm.install_fm, lambda db: fm.install_fm(db, num_maps=32)),
        (countmin.install_countmin, lambda db: countmin.install_countmin(db, eps=0.05)),
        (quantiles.install_quantile_aggregate, None),
        (svm.install_svm, None),
        (lambda db: install_igd(db, LogisticObjective(4)),
         lambda db: install_igd(db, LogisticObjective(5))),
    ],
)
def test_reinstalling_an_equal_kernel_is_a_catalog_no_op(install, other):
    """Kernel objects are rebuilt by every ``install_*``; the catalog compares
    their bound methods by function, class and parameters."""
    database = Database()
    install(database)
    version = database.catalog.version
    install(database)
    assert database.catalog.version == version
    if other is not None:  # different parameters are a different definition
        other(database)
        assert database.catalog.version == version + 1


def test_null_array_rows_drop_the_view_not_the_answer():
    batch_db, row_db = _points_pair(60)
    for database in (batch_db, row_db):
        database.execute("UPDATE pts SET coords = NULL WHERE id = 7 OR id = 8")
    assert batch_db.table("pts").column_store(1).column(1).matrix() is None
    _assert_pair_agrees(batch_db, row_db)


# ---------------------------------------------------------------------------
# Pool round trip
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pool_pair():
    data = make_logistic(240, 4, seed=5)
    points, _, _ = make_blobs(240, 3, 3, seed=6)
    pair = []
    for workers in (2, 0):
        database = Database(num_segments=4, parallel=workers)
        load_logistic_table(database, "logi", data)
        load_points_table(database, "pts", points)
        database.create_table("events", [("item", "integer")])
        database.load_rows("events", [((i * i) % 37,) for i in range(300)])
        pair.append(database)
    pair[0].worker_pool.min_dispatch_rows = 0
    yield pair
    pair[0].close()


def test_irls_on_the_pool_equals_in_process(pool_pair):
    pool_db, serial_db = pool_pair
    pooled = logistic_regression.train(pool_db, "logi", max_iterations=4, tolerance=0.0)
    assert pool_db.last_stats is not None
    serial = logistic_regression.train(serial_db, "logi", max_iterations=4, tolerance=0.0)
    np.testing.assert_allclose(pooled.coef, serial.coef, rtol=1e-12)
    assert pooled.log_likelihood == pytest.approx(serial.log_likelihood, rel=1e-12)
    result = pool_db.execute("SELECT logregr_irls_step(y, x, %(c)s) FROM logi", {"c": None})
    assert result.stats.executed_parallel
    assert result.stats.aggregate_timings[0].fold_tier == "batch"


def test_every_kernel_ships_to_the_pool(pool_pair):
    from repro.engine.parallel import shippable_spec

    pool_db, _ = pool_pair
    svm.install_svm(pool_db)
    install_igd(pool_db, LogisticObjective(4))
    quantiles.install_quantile_aggregate(pool_db)
    kmeans.install_kmeans(pool_db)
    fm.install_fm(pool_db)
    countmin.install_countmin(pool_db)
    for name in ("logregr_irls_step", "svm_igd_epoch", "igd_epoch", "quantile_reservoir",
                 "kmeans_step", "kmeans_reassigned", "fmsketch", "cmsketch"):
        definition = pool_db.catalog.get_aggregate(name)
        spec = shippable_spec(definition)
        assert spec is not None, name
        assert spec[3] is definition.batch_transition or spec[3] == definition.batch_transition


def test_sketches_and_kmeans_byte_identical_through_the_pool(pool_pair):
    pool_db, serial_db = pool_pair
    pooled = fm.count_distinct(pool_db, "events", "item")
    assert pool_db.last_stats.executed_parallel
    assert pooled == fm.count_distinct(serial_db, "events", "item")
    for database in pool_pair:
        fm.install_fm(database)
    bitmaps = [db.query_scalar("SELECT fmsketch(item) FROM events").bitmaps for db in pool_pair]
    assert bitmaps[0].tobytes() == bitmaps[1].tobytes()
    sketches = [countmin.sketch_column(db, "events", "item") for db in pool_pair]
    assert sketches[0].counters.tobytes() == sketches[1].counters.tobytes()
    assert sketches[0].total == sketches[1].total == 300
    fits = [kmeans.train(db, "pts", k=3, seed=4, max_iterations=4) for db in pool_pair]
    assert fits[0].reassignments_history == fits[1].reassignments_history
    np.testing.assert_allclose(fits[0].centroids, fits[1].centroids, rtol=1e-12)
