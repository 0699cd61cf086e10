"""Integration tests: full pipelines through the public API on the SQL engine.

These exercise the combinations the paper cares about: driver functions plus
user-defined aggregates over segmented tables, templated catalog-driven
queries, and the claim that the parallel (merge) execution path returns the
same models as single-stream execution.
"""

import numpy as np
import pytest

from repro import Database
from repro.datasets import (
    load_logistic_table,
    load_points_table,
    load_regression_table,
    make_blobs,
    make_logistic,
    make_regression,
    make_tag_corpus,
)
from repro.methods import kmeans, linear_regression, logistic_regression, profile
from repro.methods.sketches import count_distinct
from repro.convex import train_least_squares
from repro.text import TrigramIndex, train_crf, viterbi


class TestAnalystWorkflow:
    """The MAD workflow: load data magnetically, profile it, then model it."""

    def test_load_profile_model(self):
        db = Database(num_segments=4)
        data = make_regression(500, 4, noise=0.1, seed=41)
        load_regression_table(db, "sales", data)

        # Profile the freshly loaded table (templated / catalog-driven SQL).
        table_profile = profile.profile(db, "sales")
        assert table_profile.row_count == 500
        assert table_profile.column("y").stddev > 0

        # Model it with the single-pass aggregate.
        model = linear_regression.train(db, "sales")
        assert model.r2 > 0.95

        # Score it back into a table inside the engine and aggregate the error.
        predictions = linear_regression.predict(db, model, "sales")
        db.create_table("scored", [("id", "integer"), ("prediction", "double precision")])
        db.load_rows("scored", [(row["id"], row["prediction"]) for row in predictions])
        mse = db.query_scalar(
            "SELECT avg((s.y - p.prediction) * (s.y - p.prediction)) "
            "FROM sales s JOIN scored p ON s.id = p.id"
        )
        assert mse < 0.05

    def test_mixed_methods_share_one_database(self):
        db = Database(num_segments=4)
        regression = make_regression(300, 3, seed=42)
        load_regression_table(db, "regr", regression)
        classification = make_logistic(300, 3, seed=43)
        load_logistic_table(db, "logi", classification)
        points, _, _ = make_blobs(200, 2, 3, seed=44)
        load_points_table(db, "pts", points)

        ols = linear_regression.train(db, "regr")
        irls = logistic_regression.train(db, "logi")
        clusters = kmeans.train(db, "pts", k=3, seed=45)
        sgd = train_least_squares(db, "regr", max_epochs=10)

        assert ols.r2 > 0.9
        assert irls.num_rows == 300
        assert clusters.centroids.shape == (3, 2)
        np.testing.assert_allclose(sgd.model, regression.coefficients, atol=0.25)
        # No temp state tables leaked by any driver.
        assert not [name for name in db.table_names() if "state" in name]

    def test_distinct_count_and_grouped_models(self):
        db = Database(num_segments=4)
        data = make_regression(400, 2, seed=46)
        load_regression_table(db, "d", data)
        estimate = count_distinct(db, "d", "id")
        assert 250 <= estimate <= 650
        # Per-group regression via SQL grouping of the linregr aggregate:
        linear_regression.install_linear_regression(db)
        rows = db.query_dicts(
            "SELECT id % 2 AS bucket, linregr(y, x) AS model FROM d GROUP BY id % 2 ORDER BY bucket"
        )
        assert len(rows) == 2
        for row in rows:
            np.testing.assert_allclose(
                np.asarray(row["model"]["coef"]), data.coefficients, atol=0.2
            )


class TestParallelConsistency:
    """The merge path must not change results (Section 3.1.1 invariant)."""

    @pytest.mark.parametrize("segments", [1, 2, 8])
    def test_linear_regression_invariant_to_segment_count(self, segments):
        data = make_regression(300, 3, seed=47)
        db = Database(num_segments=segments)
        load_regression_table(db, "regr", data)
        model = linear_regression.train(db, "regr")
        expected, *_ = np.linalg.lstsq(data.features, data.response, rcond=None)
        np.testing.assert_allclose(model.coef, expected, rtol=1e-6)

    def test_single_stream_gives_same_model(self):
        data = make_regression(300, 3, seed=48)
        models = []
        for segments in (4, 1):
            db = Database(num_segments=segments)
            load_regression_table(db, "regr", data)
            models.append(linear_regression.train(db, "regr").coef)
        np.testing.assert_allclose(models[0], models[1], rtol=1e-9)

    def test_per_segment_statistics_reported(self):
        db = Database(num_segments=4)
        data = make_regression(80_000, 8, seed=49)
        load_regression_table(db, "regr", data)
        linear_regression.install_linear_regression(db)
        result = db.execute("SELECT linregr(y, x) FROM regr")
        timings = result.stats.aggregate_timings[0]
        assert timings.num_segments == 4
        assert sum(timings.rows_per_segment) == 80_000


class TestTextPipeline:
    def test_tag_and_resolve_entities(self):
        db = Database(num_segments=2)
        corpus = make_tag_corpus(60, seed=50)
        train_corpus, test_corpus = corpus.split(0.8)
        model = train_crf(train_corpus, num_epochs=4, seed=51)

        # Tag the held-out sentences and store the NAME mentions in a table.
        db.create_table("mentions", [("doc_id", "integer"), ("text", "text")])
        mention_id = 0
        for sequence in test_corpus.sequences:
            labels, _ = viterbi(model, sequence.tokens)
            for token, label in zip(sequence.tokens, labels):
                if label == "NAME":
                    db.load_rows("mentions", [(mention_id, token)])
                    mention_id += 1
        assert mention_id > 0

        # Entity resolution by approximate string matching over the mentions.
        index = TrigramIndex(db, "mentions")
        index.build()
        matches = index.search("tebow", threshold=0.3)
        if matches:  # the synthetic corpus usually contains Tebow mentions
            assert all(match.similarity >= 0.3 for match in matches)
