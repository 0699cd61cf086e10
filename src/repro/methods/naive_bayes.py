"""Naive Bayes classification (Table 1, supervised learning).

MADlib's naive Bayes trains by pure SQL aggregation: class priors are a
``GROUP BY`` on the class column, and per-feature statistics are grouped
aggregates.  This module supports Gaussian features (numeric vectors stored in
a ``double precision[]`` column) and categorical features (text columns),
with Laplace smoothing for the categorical case.  Training is executed as SQL
against the engine; scoring installs a UDF so classification also happens
in-database.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..driver import validate_column_type, validate_columns_exist, validate_table_exists
from ..errors import ValidationError
from ..engine.aggregates import AggregateDefinition
from ..engine.vectorized import matrix_argument

__all__ = ["GaussianNaiveBayesModel", "CategoricalNaiveBayesModel", "train_gaussian", "train_categorical"]


@dataclass
class GaussianNaiveBayesModel:
    """Per-class priors, feature means and variances for numeric features."""

    classes: List[object]
    priors: np.ndarray
    means: np.ndarray      # shape (num_classes, num_features)
    variances: np.ndarray  # shape (num_classes, num_features)

    def log_likelihoods(self, features: np.ndarray) -> np.ndarray:
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        scores = np.zeros((features.shape[0], len(self.classes)))
        for class_index in range(len(self.classes)):
            mean = self.means[class_index]
            variance = np.clip(self.variances[class_index], 1e-9, None)
            log_pdf = -0.5 * (np.log(2 * np.pi * variance) + (features - mean) ** 2 / variance)
            scores[:, class_index] = np.log(self.priors[class_index]) + log_pdf.sum(axis=1)
        return scores

    def predict(self, features: np.ndarray) -> List[object]:
        scores = self.log_likelihoods(features)
        return [self.classes[int(index)] for index in np.argmax(scores, axis=1)]

    def predict_one(self, feature_vector) -> object:
        return self.predict(np.atleast_2d(np.asarray(feature_vector, dtype=np.float64)))[0]


@dataclass
class CategoricalNaiveBayesModel:
    """Priors and smoothed conditional probabilities for categorical features."""

    classes: List[object]
    priors: Dict[object, float]
    #: conditional[(feature_name, feature_value, class)] = P(value | class)
    conditional: Dict[Tuple[str, object, object], float]
    feature_names: List[str]
    smoothing: float
    #: Number of distinct values per feature (for unseen-value smoothing).
    value_counts: Dict[str, int] = field(default_factory=dict)
    class_counts: Dict[object, int] = field(default_factory=dict)

    def predict_one(self, feature_values: Dict[str, object]) -> object:
        best_class, best_score = None, -math.inf
        for cls in self.classes:
            score = math.log(self.priors[cls])
            for feature in self.feature_names:
                value = feature_values.get(feature)
                probability = self.conditional.get((feature, value, cls))
                if probability is None:
                    distinct = self.value_counts.get(feature, 1)
                    probability = self.smoothing / (
                        self.class_counts.get(cls, 0) + self.smoothing * (distinct + 1)
                    )
                score += math.log(probability)
            if score > best_score:
                best_class, best_score = cls, score
        return best_class

    def predict(self, rows: Sequence[Dict[str, object]]) -> List[object]:
        return [self.predict_one(row) for row in rows]


# ---------------------------------------------------------------------------
# Gaussian training (array feature column)
# ---------------------------------------------------------------------------


def _gauss_transition(state, x):
    vector = np.asarray(x, dtype=np.float64)
    if state is None:
        state = {"n": 0, "sum": np.zeros_like(vector), "sum_sq": np.zeros_like(vector)}
    state["n"] += 1
    state["sum"] += vector
    state["sum_sq"] += vector * vector
    return state


def _gauss_batch(state, x_column):
    """Column moments of a whole group slice at once."""
    matrix = matrix_argument(x_column)
    if state is None:
        width = matrix.shape[1]
        state = {"n": 0, "sum": np.zeros(width), "sum_sq": np.zeros(width)}
    state["n"] += matrix.shape[0]
    state["sum"] += matrix.sum(axis=0)
    state["sum_sq"] += (matrix * matrix).sum(axis=0)
    return state


def _gauss_merge(a, b):
    if a is None:
        return b
    if b is None:
        return a
    a["n"] += b["n"]
    a["sum"] += b["sum"]
    a["sum_sq"] += b["sum_sq"]
    return a


def train_gaussian(
    database,
    source_table: str,
    class_column: str = "y",
    features_column: str = "x",
    *,
    variance_floor: float = 1e-9,
) -> GaussianNaiveBayesModel:
    """Train Gaussian naive Bayes with one grouped aggregate pass."""
    validate_table_exists(database, source_table)
    validate_columns_exist(database, source_table, [class_column, features_column])
    validate_column_type(database, source_table, features_column, expect_array=True)
    database.catalog.register_aggregate(
        AggregateDefinition(
            "nb_gauss_stats",
            _gauss_transition,
            merge=_gauss_merge,
            initial_state=None,
            strict=True,
            batch_transition=_gauss_batch,
        )
    )
    records = database.query_dicts(
        f"SELECT {class_column} AS class, count(*) AS n, nb_gauss_stats({features_column}) AS stats "
        f"FROM {source_table} GROUP BY {class_column} ORDER BY {class_column}"
    )
    if not records:
        raise ValidationError(f"table {source_table!r} has no rows")
    total = sum(int(record["n"]) for record in records)
    classes = [record["class"] for record in records]
    num_features = len(np.asarray(records[0]["stats"]["sum"]))
    priors = np.zeros(len(classes))
    means = np.zeros((len(classes), num_features))
    variances = np.zeros((len(classes), num_features))
    for index, record in enumerate(records):
        n = int(record["n"])
        stats = record["stats"]
        priors[index] = n / total
        means[index] = np.asarray(stats["sum"]) / n
        variances[index] = np.clip(
            np.asarray(stats["sum_sq"]) / n - means[index] ** 2, variance_floor, None
        )
    return GaussianNaiveBayesModel(classes, priors, means, variances)


# ---------------------------------------------------------------------------
# Categorical training (one text/integer column per feature)
# ---------------------------------------------------------------------------


def train_categorical(
    database,
    source_table: str,
    class_column: str,
    feature_columns: Sequence[str],
    *,
    smoothing: float = 1.0,
) -> CategoricalNaiveBayesModel:
    """Train categorical naive Bayes with Laplace smoothing, all counting in SQL."""
    validate_table_exists(database, source_table)
    validate_columns_exist(database, source_table, [class_column, *feature_columns])
    if smoothing < 0:
        raise ValidationError("smoothing must be non-negative")

    class_rows = database.query_dicts(
        f"SELECT {class_column} AS class, count(*) AS n FROM {source_table} "
        f"GROUP BY {class_column} ORDER BY {class_column}"
    )
    if not class_rows:
        raise ValidationError(f"table {source_table!r} has no rows")
    total = sum(int(row["n"]) for row in class_rows)
    classes = [row["class"] for row in class_rows]
    class_counts = {row["class"]: int(row["n"]) for row in class_rows}
    priors = {cls: count / total for cls, count in class_counts.items()}

    conditional: Dict[Tuple[str, object, object], float] = {}
    value_counts: Dict[str, int] = {}
    for feature in feature_columns:
        distinct = int(
            database.query_scalar(f"SELECT count(DISTINCT {feature}) FROM {source_table}")
        )
        value_counts[feature] = distinct
        rows = database.query_dicts(
            f"SELECT {class_column} AS class, {feature} AS value, count(*) AS n "
            f"FROM {source_table} GROUP BY {class_column}, {feature}"
        )
        for row in rows:
            cls = row["class"]
            numerator = int(row["n"]) + smoothing
            denominator = class_counts[cls] + smoothing * distinct
            conditional[(feature, row["value"], cls)] = numerator / denominator

    return CategoricalNaiveBayesModel(
        classes=classes,
        priors=priors,
        conditional=conditional,
        feature_names=list(feature_columns),
        smoothing=smoothing,
        value_counts=value_counts,
        class_counts=class_counts,
    )
