"""k-means clustering (Section 4.3): large-state iteration.

Lloyd's algorithm implemented the way the paper describes: a driver function
iterates, and each iteration is one pass of a user-defined aggregate whose
transition function finds the closest centroid for a point (using the
*inter*-iteration state — the previous centroids) and updates that centroid's
running barycenter in the *intra*-iteration state.  Two assignment strategies
are provided, matching the Section 4.3.1 discussion:

``implicit``
    Assignments are never stored; the convergence test recomputes the closest
    centroid under both the old and the new positions (two closest-centroid
    computations per point per iteration) — one pass of a second mergeable
    aggregate, ``kmeans_reassigned``.
``explicit``
    A ``centroid_id`` column on the points table is refreshed each iteration
    with ``UPDATE points SET centroid_id = closest_column(centroids, coords)``,
    halving the closest-centroid computations at the cost of a second pass
    over the data (PostgreSQL processes statements one at a time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..driver import validate_column_type, validate_columns_exist, validate_table_exists
from ..errors import ValidationError
from ..engine.aggregates import AggregateDefinition
from ..engine.vectorized import constant_argument, matrix_argument

__all__ = ["KMeansResult", "install_kmeans", "train", "assign"]


@dataclass
class KMeansResult:
    """Fitted centroids plus the per-iteration trace."""

    centroids: np.ndarray
    objective: float
    num_iterations: int
    converged: bool
    assignment_strategy: str
    objective_history: List[float] = field(default_factory=list)
    reassignments_history: List[int] = field(default_factory=list)

    @property
    def k(self) -> int:
        return self.centroids.shape[0]


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------


def _closest(centroids: np.ndarray, point: np.ndarray) -> int:
    diffs = centroids - point
    return int(np.argmin(np.einsum("ij,ij->i", diffs, diffs)))


_DISTANCE_CHUNK_ROWS = 4096


def _squared_distances(centroids: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The n×k matrix whose row ``i`` is what :func:`_closest` takes the
    ``argmin`` of for point ``i`` (the same differences, summed the same way)."""
    distances = np.empty((len(points), len(centroids)), dtype=np.float64)
    for low in range(0, len(points), _DISTANCE_CHUNK_ROWS):  # bounds the n×k×d temporary
        chunk = slice(low, low + _DISTANCE_CHUNK_ROWS)
        diffs = centroids[None, :, :] - points[chunk, None, :]
        np.einsum("nkd,nkd->nk", diffs, diffs, out=distances[chunk])
    return distances


def _centroid_matrix(centroids_flat, k, dimension: int) -> np.ndarray:
    return np.asarray(centroids_flat, dtype=np.float64).reshape(int(k), dimension)


def _empty_step_state(k: int, dimension: int) -> dict:
    return {
        "sums": np.zeros((k, dimension), dtype=np.float64),
        "counts": np.zeros(k, dtype=np.int64),
        "objective": 0.0,
    }


def _kmeans_step_transition(state, coords, centroids_flat, k):
    """Accumulate per-centroid sums and counts for one point."""
    point = np.asarray(coords, dtype=np.float64)
    k = int(k)
    centroids = _centroid_matrix(centroids_flat, k, point.shape[0])
    if state is None:
        state = _empty_step_state(k, point.shape[0])
    index = _closest(centroids, point)
    state["sums"][index] += point
    state["counts"][index] += 1
    difference = point - centroids[index]
    state["objective"] += float(difference @ difference)
    return state


def _kmeans_step_batch(state, coords_column, centroids_column, k_column):
    """A segment's points in one call: one n×k distance matrix, ``argmin``,
    and per-centroid sums by ``np.add.at`` (which adds in row order, as the
    row fold does)."""
    points = matrix_argument(coords_column)
    k = int(constant_argument(k_column))
    centroids = _centroid_matrix(constant_argument(centroids_column), k, points.shape[1])
    if state is None:
        state = _empty_step_state(k, points.shape[1])
    distances = _squared_distances(centroids, points)
    closest = distances.argmin(axis=1)
    np.add.at(state["sums"], closest, points)
    state["counts"] += np.bincount(closest, minlength=k)
    state["objective"] += float(distances.min(axis=1).sum())
    return state


def _kmeans_step_merge(a, b):
    if a is None:
        return b
    if b is None:
        return a
    a["sums"] += b["sums"]
    a["counts"] += b["counts"]
    a["objective"] += b["objective"]
    return a


def _kmeans_step_final(state):
    if state is None:
        return None
    return {
        "sums": state["sums"],
        "counts": state["counts"],
        "objective": float(state["objective"]),
    }


def _reassigned_transition(state: int, coords, old_flat, new_flat, k) -> int:
    """Count a point whose closest centroid differs between two centroid sets
    (the implicit-assignment convergence test of Section 4.3.1)."""
    point = np.asarray(coords, dtype=np.float64)
    old = _centroid_matrix(old_flat, k, point.shape[0])
    new = _centroid_matrix(new_flat, k, point.shape[0])
    return state + (_closest(old, point) != _closest(new, point))


def _reassigned_batch(state: int, coords_column, old_column, new_column, k_column) -> int:
    points = matrix_argument(coords_column)
    k = constant_argument(k_column)
    old = _centroid_matrix(constant_argument(old_column), k, points.shape[1])
    new = _centroid_matrix(constant_argument(new_column), k, points.shape[1])
    moved = _squared_distances(old, points).argmin(axis=1) != _squared_distances(
        new, points
    ).argmin(axis=1)
    return state + int(np.count_nonzero(moved))


def _reassigned_merge(a: int, b: int) -> int:
    return a + b


def closest_row(centroids_flat, k, point) -> int:
    """``kmeans_closest_centroid``: ``closest_column`` over a centroid matrix
    flattened row-major plus ``k``."""
    point = np.asarray(point, dtype=np.float64)
    return _closest(_centroid_matrix(centroids_flat, k, point.shape[0]), point)


def install_kmeans(database) -> None:
    """Register the per-iteration aggregates and the ``closest_column`` helper UDF.

    Everything registered is module-level, so a repeated install is a catalog
    no-op and the aggregates ship to ``parallel=N`` workers.
    """
    database.catalog.register_aggregate(
        AggregateDefinition(
            "kmeans_step",
            _kmeans_step_transition,
            merge=_kmeans_step_merge,
            final=_kmeans_step_final,
            initial_state=None,
            strict=True,
            batch_transition=_kmeans_step_batch,
        )
    )
    database.catalog.register_aggregate(
        AggregateDefinition(
            "kmeans_reassigned",
            _reassigned_transition,
            merge=_reassigned_merge,
            initial_state=0,
            strict=True,
            batch_transition=_reassigned_batch,
        )
    )
    database.create_function("kmeans_closest_centroid", closest_row, return_type="integer")


# ---------------------------------------------------------------------------
# Seeding
# ---------------------------------------------------------------------------


def _seed_centroids(points: np.ndarray, k: int, method: str, rng: np.random.Generator) -> np.ndarray:
    if method == "random":
        indices = rng.choice(points.shape[0], size=k, replace=False)
        return points[indices].copy()
    if method == "kmeans++":
        centroids = [points[int(rng.integers(points.shape[0]))]]
        for _ in range(1, k):
            distances = np.min(
                np.stack([np.einsum("ij,ij->i", points - c, points - c) for c in centroids]),
                axis=0,
            )
            total = float(distances.sum())
            if total <= 0:
                centroids.append(points[int(rng.integers(points.shape[0]))])
                continue
            probabilities = distances / total
            centroids.append(points[int(rng.choice(points.shape[0], p=probabilities))])
        return np.asarray(centroids, dtype=np.float64)
    raise ValidationError(f"unknown seeding method {method!r}; use 'random' or 'kmeans++'")


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def train(
    database,
    source_table: str,
    coords_column: str = "coords",
    *,
    k: int = 3,
    max_iterations: int = 50,
    min_reassignment_fraction: float = 0.001,
    seeding: str = "kmeans++",
    assignment_strategy: str = "implicit",
    centroid_id_column: str = "centroid_id",
    seed: Optional[int] = None,
) -> KMeansResult:
    """Run Lloyd's algorithm over a points table.

    ``assignment_strategy`` selects between the implicit (recompute) and
    explicit (UPDATE a ``centroid_id`` column) variants discussed in
    Section 4.3.1.
    """
    validate_table_exists(database, source_table)
    validate_columns_exist(database, source_table, [coords_column])
    validate_column_type(database, source_table, coords_column, expect_array=True)
    if assignment_strategy not in ("implicit", "explicit"):
        raise ValidationError("assignment_strategy must be 'implicit' or 'explicit'")
    if k < 1:
        raise ValidationError("k must be at least 1")
    num_rows = database.query_scalar(f"SELECT count(*) FROM {source_table}")
    if num_rows < k:
        raise ValidationError(f"cannot fit {k} clusters to {num_rows} points")
    if assignment_strategy == "explicit":
        validate_columns_exist(database, source_table, [centroid_id_column])

    install_kmeans(database)
    rng = np.random.default_rng(seed)
    # Seeding phase runs on a sample pulled to the driver; the sample (and the
    # k centroids) are small, which is the paper's assumption that "we can
    # always comfortably store k centroids in main memory".
    sample = database.execute(
        f"SELECT {coords_column} FROM {source_table} LIMIT 10000"
    ).column(coords_column)
    points_sample = np.asarray([np.asarray(p, dtype=np.float64) for p in sample])
    centroids = _seed_centroids(points_sample, k, seeding, rng)
    dimension = centroids.shape[1]

    if assignment_strategy == "explicit":
        _refresh_assignments(database, source_table, coords_column, centroid_id_column, centroids)

    objective_history: List[float] = []
    reassignment_history: List[int] = []
    converged = False
    iterations = 0
    previous_assign_counts: Optional[np.ndarray] = None

    for iteration in range(max_iterations):
        iterations = iteration + 1
        record = database.query_scalar(
            f"SELECT kmeans_step({coords_column}, %(centroids)s, %(k)s) FROM {source_table}",
            {"centroids": centroids.ravel(), "k": k},
        )
        sums = np.asarray(record["sums"], dtype=np.float64)
        counts = np.asarray(record["counts"], dtype=np.int64)
        objective_history.append(float(record["objective"]))
        new_centroids = centroids.copy()
        for index in range(k):
            if counts[index] > 0:
                new_centroids[index] = sums[index] / counts[index]
            else:
                # Re-seed an empty centroid at a random sampled point.
                new_centroids[index] = points_sample[int(rng.integers(points_sample.shape[0]))]

        # Convergence: count reassignments.
        if assignment_strategy == "explicit":
            reassigned = _count_reassignments_explicit(
                database, source_table, coords_column, centroid_id_column, new_centroids
            )
            _refresh_assignments(
                database, source_table, coords_column, centroid_id_column, new_centroids
            )
        else:
            reassigned = _count_reassignments_implicit(
                database, source_table, coords_column, centroids, new_centroids
            )
        reassignment_history.append(reassigned)
        centroids = new_centroids
        if reassigned <= min_reassignment_fraction * num_rows:
            converged = True
            break

    final_record = database.query_scalar(
        f"SELECT kmeans_step({coords_column}, %(centroids)s, %(k)s) FROM {source_table}",
        {"centroids": centroids.ravel(), "k": k},
    )
    return KMeansResult(
        centroids=centroids,
        objective=float(final_record["objective"]),
        num_iterations=iterations,
        converged=converged,
        assignment_strategy=assignment_strategy,
        objective_history=objective_history,
        reassignments_history=reassignment_history,
    )


def _refresh_assignments(database, source_table, coords_column, centroid_id_column, centroids) -> None:
    """The explicit-strategy UPDATE from Section 4.3.1."""
    database.execute(
        f"UPDATE {source_table} SET {centroid_id_column} = "
        f"kmeans_closest_centroid(%(centroids)s, %(k)s, {coords_column})",
        {"centroids": centroids.ravel(), "k": centroids.shape[0]},
    )


def _count_reassignments_explicit(
    database, source_table, coords_column, centroid_id_column, new_centroids
) -> int:
    """One closest-centroid computation per point: compare with the stored id."""
    return int(
        database.query_scalar(
            f"SELECT count(*) FROM {source_table} WHERE {centroid_id_column} != "
            f"kmeans_closest_centroid(%(centroids)s, %(k)s, {coords_column})",
            {"centroids": new_centroids.ravel(), "k": new_centroids.shape[0]},
        )
    )


def _count_reassignments_implicit(
    database, source_table, coords_column, old_centroids, new_centroids
) -> int:
    """Two closest-centroid computations per point (old and new positions),
    one aggregate pass."""
    return int(
        database.query_scalar(
            f"SELECT kmeans_reassigned({coords_column}, %(old)s, %(new)s, %(k)s) "
            f"FROM {source_table}",
            {
                "old": old_centroids.ravel(),
                "new": new_centroids.ravel(),
                "k": new_centroids.shape[0],
            },
        )
    )


def assign(
    database,
    result: KMeansResult,
    source_table: str,
    coords_column: str = "coords",
    *,
    id_column: str = "id",
) -> List[dict]:
    """Return the cluster assignment of every row under a fitted model."""
    validate_columns_exist(database, source_table, [coords_column, id_column])
    install_kmeans(database)
    return database.query_dicts(
        f"SELECT {id_column}, kmeans_closest_centroid(%(centroids)s, %(k)s, {coords_column}) "
        f"AS cluster_id FROM {source_table} ORDER BY {id_column}",
        {"centroids": result.centroids.ravel(), "k": result.k},
    )
