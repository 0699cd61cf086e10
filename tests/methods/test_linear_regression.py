"""Tests for OLS linear regression: all kernels, statistics, paper example shape."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Database
from repro.datasets import load_regression_table, make_regression
from repro.errors import ValidationError
from repro.methods import linear_regression
from repro.methods.linear_regression import KERNELS, VERSION_KERNELS, make_linregr_aggregate


class TestTraining:
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_all_kernels_recover_coefficients(self, regression_db, kernel):
        data = regression_db.regression_data
        model = linear_regression.train(regression_db, "regr", kernel=kernel)
        np.testing.assert_allclose(model.coef, data.coefficients, atol=0.05)
        assert model.r2 > 0.99
        assert model.num_rows == data.features.shape[0]

    def test_kernels_agree_with_each_other(self, regression_db):
        results = {
            kernel: linear_regression.train(regression_db, "regr", kernel=kernel).coef
            for kernel in KERNELS
        }
        np.testing.assert_allclose(results["optimized"], results["naive"], rtol=1e-8)
        np.testing.assert_allclose(results["optimized"], results["unoptimized"], rtol=1e-8)

    def test_matches_numpy_closed_form(self, regression_db):
        data = regression_db.regression_data
        model = linear_regression.train(regression_db, "regr")
        expected, *_ = np.linalg.lstsq(data.features, data.response, rcond=None)
        np.testing.assert_allclose(model.coef, expected, rtol=1e-6)

    def test_statistics_shapes_and_ranges(self, regression_db):
        model = linear_regression.train(regression_db, "regr")
        width = regression_db.regression_data.features.shape[1]
        assert model.std_err.shape == (width,)
        assert model.t_stats.shape == (width,)
        assert model.p_values.shape == (width,)
        assert np.all(model.std_err >= 0)
        assert np.all((model.p_values >= 0) & (model.p_values <= 1))
        assert model.condition_no >= 1.0

    def test_significant_coefficients_have_small_p_values(self, regression_db):
        data = regression_db.regression_data
        model = linear_regression.train(regression_db, "regr")
        strong = np.abs(data.coefficients) > 0.5
        assert np.all(model.p_values[strong] < 0.01)

    def test_paper_example_record_fields(self, db):
        # The Section 4.1.1 example: SELECT (linregr(y, x)).* FROM data,
        # producing coef, r2, std_err, t_stats, p_values and condition_no.
        rng = np.random.default_rng(0)
        x = np.column_stack([np.ones(200), rng.uniform(0, 10, 200)])
        y = 1.7 + 2.2 * x[:, 1] + rng.normal(scale=1.0, size=200)
        db.create_table("data", [("x", "double precision[]"), ("y", "double precision")])
        db.load_rows("data", [(x[i], float(y[i])) for i in range(200)])
        linear_regression.install_linear_regression(db)
        record = db.query_scalar("SELECT linregr(y, x) FROM data")
        assert set(record) >= {"coef", "r2", "std_err", "t_stats", "p_values", "condition_no"}
        assert record["coef"][0] == pytest.approx(1.7, abs=0.5)
        assert record["coef"][1] == pytest.approx(2.2, abs=0.1)
        assert record["r2"] > 0.9

    def test_parallel_matches_serial(self):
        data = make_regression(300, 3, seed=21)
        results = []
        for segments in (1, 6):
            db = Database(num_segments=segments)
            load_regression_table(db, "regr", data)
            results.append(linear_regression.train(db, "regr").coef)
        np.testing.assert_allclose(results[0], results[1], rtol=1e-9)

    def test_training_twice_leaves_the_catalog_version_alone(self, regression_db):
        linear_regression.train(regression_db, "regr")
        version = regression_db.catalog.version
        linear_regression.train(regression_db, "regr")
        assert regression_db.catalog.version == version
        # A different kernel is a different definition: that one does register.
        linear_regression.train(regression_db, "regr", kernel="naive")
        assert regression_db.catalog.version == version + 1

    def test_predict_in_database(self, regression_db):
        model = linear_regression.train(regression_db, "regr")
        predictions = linear_regression.predict(regression_db, model, "regr")
        assert len(predictions) == regression_db.regression_data.features.shape[0]
        data = regression_db.regression_data
        predicted = np.asarray([row["prediction"] for row in predictions])
        np.testing.assert_allclose(predicted, data.features @ model.coef, rtol=1e-9)

    def test_result_predict_method(self, regression_db):
        model = linear_regression.train(regression_db, "regr")
        single = model.predict(regression_db.regression_data.features[:5])
        assert single.shape == (5,)


class TestValidationAndEdgeCases:
    def test_unknown_kernel_rejected(self, regression_db):
        with pytest.raises(ValidationError):
            linear_regression.train(regression_db, "regr", kernel="turbo")
        with pytest.raises(ValidationError):
            make_linregr_aggregate("turbo")

    def test_missing_table_and_columns_rejected(self, db):
        with pytest.raises(ValidationError):
            linear_regression.train(db, "missing")
        db.create_table("bad", [("y", "double precision"), ("x", "double precision")])
        db.load_rows("bad", [(1.0, 1.0)])
        with pytest.raises(ValidationError):
            linear_regression.train(db, "bad")  # x is not an array column

    def test_empty_table_rejected(self, db):
        db.create_table("empty", [("y", "double precision"), ("x", "double precision[]")])
        with pytest.raises(ValidationError):
            linear_regression.train(db, "empty", "y", "x")

    def test_null_rows_are_skipped(self, db):
        db.create_table("d", [("y", "double precision"), ("x", "double precision[]")])
        db.load_rows("d", [(1.0, np.array([1.0])), (None, np.array([2.0])), (2.0, np.array([2.0]))])
        model = linear_regression.train(db, "d", "y", "x")
        assert model.num_rows == 2

    def test_collinear_features_still_produce_model(self, db):
        rng = np.random.default_rng(3)
        base = rng.normal(size=100)
        x = np.column_stack([base, base])  # perfectly collinear
        y = 3 * base
        db.create_table("c", [("y", "double precision"), ("x", "double precision[]")])
        db.load_rows("c", [(float(y[i]), x[i]) for i in range(100)])
        model = linear_regression.train(db, "c", "y", "x")
        assert model.condition_no == float("inf")
        np.testing.assert_allclose(model.predict(x), y, atol=1e-6)

    def test_version_kernel_map_covers_paper_versions(self):
        assert set(VERSION_KERNELS) == {"v0.1alpha", "v0.2.1beta", "v0.3"}
        assert set(VERSION_KERNELS.values()) == set(KERNELS)


class TestProperties:
    @given(
        num_rows=st.integers(min_value=20, max_value=120),
        width=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=15, deadline=None)
    def test_fit_matches_numpy_for_random_problems(self, num_rows, width, seed):
        data = make_regression(num_rows, width, noise=0.2, seed=seed)
        db = Database(num_segments=3)
        load_regression_table(db, "regr", data)
        model = linear_regression.train(db, "regr")
        expected, *_ = np.linalg.lstsq(data.features, data.response, rcond=None)
        np.testing.assert_allclose(model.coef, expected, rtol=1e-5, atol=1e-6)
