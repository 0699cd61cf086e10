"""Tests for k-means clustering: both assignment strategies, seeding, convergence."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.methods import kmeans


def match_centroids(found, true):
    """Greedy matching distance between found and true centroids."""
    found = list(found)
    total = 0.0
    for target in true:
        distances = [float(np.linalg.norm(candidate - target)) for candidate in found]
        index = int(np.argmin(distances))
        total += distances[index]
        found.pop(index)
    return total / len(true)


class TestTraining:
    def test_recovers_blob_centroids(self, points_db):
        result = kmeans.train(points_db, "pts", k=3, seed=1)
        assert result.centroids.shape == (3, 2)
        assert match_centroids(result.centroids, points_db.blob_centroids) < 0.5
        assert result.converged

    def test_objective_is_non_increasing(self, points_db):
        result = kmeans.train(points_db, "pts", k=3, seed=2)
        history = result.objective_history
        assert all(later <= earlier + 1e-6 for earlier, later in zip(history, history[1:]))

    @pytest.mark.parametrize("strategy", ["implicit", "explicit"])
    def test_objective_equals_recomputed_inertia(self, points_db, strategy):
        """Oracle: the reported objective is the inertia numpy computes for
        the returned centroids, and Lloyd's iterations never increase it."""
        result = kmeans.train(
            points_db, "pts", k=3, seed=5, max_iterations=6, min_reassignment_fraction=0.0,
            assignment_strategy=strategy,
        )
        points = points_db.blob_points
        distances = ((points[:, None, :] - result.centroids[None, :, :]) ** 2).sum(axis=2)
        assert result.objective == pytest.approx(float(distances.min(axis=1).sum()), rel=1e-9)
        history = result.objective_history + [result.objective]
        assert all(later <= earlier * (1 + 1e-12) for earlier, later in zip(history, history[1:]))
        # The reassignment counts are those of numpy's own argmin, pass by pass.
        assert result.reassignments_history[-1] == 0 or result.num_iterations == 6

    def test_reassignment_count_matches_numpy(self, points_db):
        kmeans.install_kmeans(points_db)
        points = points_db.blob_points
        old, new = points[:3], points[3:6] + 0.25
        counted = points_db.query_scalar(
            "SELECT kmeans_reassigned(coords, %(old)s, %(new)s, %(k)s) FROM pts",
            {"old": old.ravel(), "new": new.ravel(), "k": 3},
        )

        def closest(centroids):
            return ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)

        assert counted == int((closest(old) != closest(new)).sum())

    def test_training_leaves_the_catalog_and_plan_cache_alone(self):
        """A method call must not flush cached plans: the second ``train``
        re-registers identical definitions, which is a catalog no-op."""
        from repro import Database
        from repro.datasets import load_points_table, make_blobs

        database = Database(num_segments=2, plan_cache=16)
        load_points_table(database, "pts", make_blobs(120, 2, 3, seed=17)[0])
        # Twice: plans the first call cached before its own install step are
        # invalidated by that step, once.
        for _ in range(2):
            kmeans.train(database, "pts", k=3, seed=1, max_iterations=2)
        probe = "SELECT count(*) FROM pts WHERE id < 50"
        assert database.query_scalar(probe) == 50
        version, before = database.catalog.version, database.plan_cache.stats()
        kmeans.train(database, "pts", k=3, seed=1, max_iterations=2)
        kmeans.assign(database, kmeans.train(database, "pts", k=3, seed=1, max_iterations=2), "pts")
        assert database.catalog.version == version
        assert database.query_scalar(probe) == 50
        after = database.plan_cache.stats()
        assert after["invalidations"] == before["invalidations"]
        assert after["hits"] > before["hits"]

    def test_explicit_and_implicit_strategies_agree(self, points_db):
        implicit = kmeans.train(points_db, "pts", k=3, seed=3, assignment_strategy="implicit")
        explicit = kmeans.train(points_db, "pts", k=3, seed=3, assignment_strategy="explicit")
        assert implicit.objective == pytest.approx(explicit.objective, rel=0.05)
        assert explicit.assignment_strategy == "explicit"

    def test_explicit_strategy_stores_assignments(self, points_db):
        kmeans.train(points_db, "pts", k=3, seed=4, assignment_strategy="explicit")
        unassigned = points_db.query_scalar(
            "SELECT count(*) FROM pts WHERE centroid_id IS NULL"
        )
        assert unassigned == 0
        distinct = points_db.query_scalar("SELECT count(DISTINCT centroid_id) FROM pts")
        assert distinct == 3

    def test_random_seeding(self, points_db):
        result = kmeans.train(points_db, "pts", k=3, seeding="random", seed=5)
        assert result.centroids.shape == (3, 2)

    def test_assign_labels_every_row(self, points_db):
        result = kmeans.train(points_db, "pts", k=3, seed=6)
        assignments = kmeans.assign(points_db, result, "pts")
        assert len(assignments) == 300
        assert {row["cluster_id"] for row in assignments} <= {0, 1, 2}

    def test_assignments_match_generating_labels(self, points_db):
        result = kmeans.train(points_db, "pts", k=3, seed=7)
        assignments = kmeans.assign(points_db, result, "pts")
        found = np.asarray([row["cluster_id"] for row in assignments])
        true = points_db.blob_labels
        # Cluster ids are arbitrary; check that each found cluster is (almost) pure.
        for cluster in range(3):
            members = true[found == cluster]
            if len(members) == 0:
                continue
            majority = np.bincount(members).max() / len(members)
            assert majority > 0.9

    def test_k_equals_one(self, points_db):
        result = kmeans.train(points_db, "pts", k=1, seed=8)
        np.testing.assert_allclose(
            result.centroids[0], points_db.blob_points.mean(axis=0), atol=1e-6
        )


class TestValidation:
    def test_invalid_k(self, points_db):
        with pytest.raises(ValidationError):
            kmeans.train(points_db, "pts", k=0)
        with pytest.raises(ValidationError):
            kmeans.train(points_db, "pts", k=1000)

    def test_invalid_strategy_and_seeding(self, points_db):
        with pytest.raises(ValidationError):
            kmeans.train(points_db, "pts", k=2, assignment_strategy="magic")
        with pytest.raises(ValidationError):
            kmeans.train(points_db, "pts", k=2, seeding="magic")

    def test_missing_table(self, db):
        with pytest.raises(ValidationError):
            kmeans.train(db, "nope", k=2)
