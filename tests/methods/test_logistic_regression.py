"""Tests for logistic regression via the IRLS driver pattern."""

import numpy as np
import pytest

from repro import Database
from repro.datasets import load_logistic_table, make_logistic
from repro.errors import ValidationError
from repro.methods import logistic_regression


class TestTraining:
    def test_recovers_coefficients(self, logistic_db):
        data = logistic_db.logistic_data
        model = logistic_regression.train(logistic_db, "logi")
        # IRLS on 400 rows: direction and rough magnitude should match.
        assert np.corrcoef(model.coef, data.coefficients)[0, 1] > 0.95
        assert model.converged
        assert model.num_rows == 400

    def test_accuracy_close_to_bayes_optimal(self, logistic_db):
        data = logistic_db.logistic_data
        model = logistic_regression.train(logistic_db, "logi")
        accuracy = float(np.mean(model.predict(data.features) == data.labels))
        # Labels are noisy; compare against the accuracy the true coefficients achieve.
        oracle = float(np.mean((data.features @ data.coefficients > 0) == (data.labels > 0)))
        assert accuracy > 0.5
        assert accuracy >= oracle - 0.05

    def test_matches_a_numpy_newton_iteration(self, logistic_db):
        """Oracle: IRLS is Newton's method on the log-likelihood, so each pass
        must land where a plain numpy Newton step lands."""
        data = logistic_db.logistic_data
        features, labels = data.features, data.labels
        coef = np.zeros(features.shape[1])
        for iterations in range(1, 6):
            p = 1.0 / (1.0 + np.exp(-(features @ coef)))
            hessian = (features * (p * (1.0 - p))[:, None]).T @ features
            coef = coef + np.linalg.solve(hessian, features.T @ (labels - p))
            model = logistic_regression.train(
                logistic_db, "logi", max_iterations=iterations, tolerance=0.0
            )
            assert model.num_iterations == iterations
            np.testing.assert_allclose(model.coef, coef, rtol=1e-8, atol=1e-10)
        likelihood = float(np.sum(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)))
        assert model.log_likelihood == pytest.approx(likelihood, rel=1e-9)

    def test_statistics_fields(self, logistic_db):
        model = logistic_regression.train(logistic_db, "logi")
        width = logistic_db.logistic_data.features.shape[1]
        assert model.std_err.shape == (width,)
        assert model.p_values.shape == (width,)
        assert np.all((model.p_values >= 0) & (model.p_values <= 1))
        np.testing.assert_allclose(model.odds_ratios, np.exp(model.coef))
        assert model.log_likelihood <= 0.0

    def test_temp_state_table_is_cleaned_up(self, logistic_db):
        before = set(logistic_db.table_names())
        logistic_regression.train(logistic_db, "logi")
        after = set(logistic_db.table_names())
        assert before == after

    def test_parallel_matches_serial(self):
        data = make_logistic(300, 3, seed=5)
        coefficients = []
        for segments in (1, 5):
            db = Database(num_segments=segments)
            load_logistic_table(db, "logi", data)
            coefficients.append(logistic_regression.train(db, "logi").coef)
        np.testing.assert_allclose(coefficients[0], coefficients[1], rtol=1e-6)

    def test_boolean_label_column(self, db4):
        data = make_logistic(200, 2, seed=6)
        load_logistic_table(db4, "logi_bool", data, boolean_labels=True)
        model = logistic_regression.train(db4, "logi_bool")
        assert model.num_rows == 200

    def test_iteration_budget_respected(self, logistic_db):
        model = logistic_regression.train(logistic_db, "logi", max_iterations=2)
        assert model.num_iterations <= 2

    def test_probabilities_are_calibrated_shape(self, logistic_db):
        model = logistic_regression.train(logistic_db, "logi")
        probabilities = model.predict_probability(logistic_db.logistic_data.features)
        assert np.all((probabilities >= 0) & (probabilities <= 1))

    def test_predict_in_database(self, logistic_db):
        model = logistic_regression.train(logistic_db, "logi")
        rows = logistic_regression.predict(logistic_db, model, "logi")
        assert len(rows) == 400
        assert set(rows[0]) == {"id", "probability", "prediction"}


class TestValidation:
    def test_missing_table_rejected(self, db):
        with pytest.raises(ValidationError):
            logistic_regression.train(db, "nope")

    def test_non_array_feature_column_rejected(self, db):
        db.create_table("bad", [("y", "double precision"), ("x", "double precision")])
        db.load_rows("bad", [(1.0, 1.0)])
        with pytest.raises(ValidationError):
            logistic_regression.train(db, "bad")

    def test_empty_table_rejected(self, db):
        db.create_table("empty", [("y", "double precision"), ("x", "double precision[]")])
        with pytest.raises(ValidationError):
            logistic_regression.train(db, "empty")
