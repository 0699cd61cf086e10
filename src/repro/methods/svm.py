"""Support vector machines (Table 1, supervised learning).

MADlib's SVM is trained with incremental gradient descent — the same
aggregate-friendly online pattern the Wisconsin convex framework generalizes
(Section 5.1).  Each epoch is one user-defined-aggregate pass over the data
that folds the hinge-loss subgradient update into the model state; the driver
loops epochs and checks convergence.  Both linear classification and a simple
epsilon-insensitive regression variant are provided.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..driver import IterationController, validate_column_type, validate_columns_exist, validate_table_exists
from ..errors import ValidationError
from ..engine.aggregates import AggregateDefinition

__all__ = ["SVMModel", "install_svm", "train_classifier", "train_regressor", "predict"]


@dataclass
class SVMModel:
    """A linear SVM model: weights, bias and the training trace."""

    weights: np.ndarray
    bias: float
    num_iterations: int
    converged: bool
    loss_history: List[float] = field(default_factory=list)
    task: str = "classification"

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        return features @ self.weights + self.bias

    def predict(self, features: np.ndarray) -> np.ndarray:
        scores = self.decision_function(features)
        if self.task == "classification":
            return np.where(scores >= 0.0, 1.0, -1.0)
        return scores


# ---------------------------------------------------------------------------
# Per-epoch aggregate: fold IGD updates over the rows of one scan
# ---------------------------------------------------------------------------


def _svm_epoch_transition(state, y, x, model_in, stepsize, regularization, epsilon):
    vector = np.asarray(x, dtype=np.float64)
    if state is None:
        if model_in is None:
            weights = np.zeros(vector.shape[0], dtype=np.float64)
            bias = 0.0
        else:
            model = np.asarray(model_in, dtype=np.float64)
            weights, bias = model[:-1].copy(), float(model[-1])
        state = {"weights": weights, "bias": bias, "n": 0, "loss": 0.0}
    weights, bias = state["weights"], state["bias"]
    label = float(y)
    margin = label * (float(vector @ weights) + bias)
    # Subgradient of (1/2)*lambda*||w||^2 + hinge loss for this example.
    step = float(stepsize)
    regularization = float(regularization)
    weights *= (1.0 - step * regularization)
    if epsilon is None:
        # Classification: hinge loss.
        if margin < 1.0:
            weights += step * label * vector
            state["bias"] = bias + step * label
            state["loss"] += 1.0 - margin
    else:
        # Regression: epsilon-insensitive loss.
        error = (float(vector @ weights) + bias) - label
        if abs(error) > float(epsilon):
            sign = 1.0 if error > 0 else -1.0
            weights -= step * sign * vector
            state["bias"] = bias - step * sign
            state["loss"] += abs(error) - float(epsilon)
    state["weights"] = weights
    state["n"] += 1
    return state


def _svm_epoch_merge(a, b):
    """Model averaging across segments (the parallelized-SGD scheme of [47])."""
    if a is None:
        return b
    if b is None:
        return a
    total = a["n"] + b["n"]
    if total == 0:
        return a
    weight_a = a["n"] / total
    weight_b = b["n"] / total
    a["weights"] = weight_a * a["weights"] + weight_b * b["weights"]
    a["bias"] = weight_a * a["bias"] + weight_b * b["bias"]
    a["loss"] += b["loss"]
    a["n"] = total
    return a


def _svm_epoch_final(state):
    if state is None:
        return None
    return {
        "model": np.concatenate([state["weights"], [state["bias"]]]),
        "loss": float(state["loss"]),
        "n": int(state["n"]),
    }


def _svm_strict_transition(state, y, x, model_in, stepsize, regularization, epsilon):
    """The registered transition: strict in ``y`` and ``x`` only (the model is
    NULL on the first epoch, epsilon for classification)."""
    if y is None or x is None:
        return state
    return _svm_epoch_transition(state, y, x, model_in, stepsize, regularization, epsilon)


def install_svm(database) -> None:
    """Register the per-epoch IGD aggregate."""
    database.catalog.register_aggregate(
        AggregateDefinition(
            "svm_igd_epoch",
            _svm_strict_transition,
            merge=_svm_epoch_merge,
            final=_svm_epoch_final,
            initial_state=None,
            strict=False,
        )
    )


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def _train(
    database,
    source_table: str,
    dependent_column: str,
    independent_column: str,
    *,
    epsilon: Optional[float],
    max_iterations: int,
    stepsize: float,
    regularization: float,
    decay: float,
    tolerance: float,
) -> SVMModel:
    validate_table_exists(database, source_table)
    validate_columns_exist(database, source_table, [dependent_column, independent_column])
    validate_column_type(database, source_table, independent_column, expect_array=True)
    install_svm(database)

    update_sql = (
        f"SELECT svm_igd_epoch({dependent_column}, {independent_column}, "
        f"%(model)s, %(stepsize)s, %(regularization)s, %(epsilon)s) FROM {source_table}"
    )
    model: Optional[np.ndarray] = None
    loss_history: List[float] = []
    converged = False
    iterations = 0
    current_step = stepsize
    controller = IterationController(
        database, max_iterations=max_iterations, temp_prefix="svm_state",
        fail_on_max_iterations=False,
    )
    with controller:
        previous_loss = None
        for _ in range(max_iterations):
            record = controller.update(
                update_sql,
                {
                    "model": model,
                    "stepsize": current_step,
                    "regularization": regularization,
                    "epsilon": epsilon,
                },
            )
            if record is None:
                raise ValidationError(f"table {source_table!r} has no usable rows")
            model = np.asarray(record["model"], dtype=np.float64)
            loss = float(record["loss"]) / max(int(record["n"]), 1)
            loss_history.append(loss)
            iterations += 1
            current_step *= decay
            if previous_loss is not None and abs(previous_loss - loss) < tolerance:
                converged = True
                break
            previous_loss = loss

    return SVMModel(
        weights=model[:-1],
        bias=float(model[-1]),
        num_iterations=iterations,
        converged=converged,
        loss_history=loss_history,
        task="classification" if epsilon is None else "regression",
    )


def train_classifier(
    database,
    source_table: str,
    dependent_column: str = "y",
    independent_column: str = "x",
    *,
    max_iterations: int = 30,
    stepsize: float = 0.1,
    regularization: float = 1e-3,
    decay: float = 0.9,
    tolerance: float = 1e-4,
) -> SVMModel:
    """Train a linear SVM classifier (labels must be -1 / +1)."""
    return _train(
        database, source_table, dependent_column, independent_column,
        epsilon=None, max_iterations=max_iterations, stepsize=stepsize,
        regularization=regularization, decay=decay, tolerance=tolerance,
    )


def train_regressor(
    database,
    source_table: str,
    dependent_column: str = "y",
    independent_column: str = "x",
    *,
    epsilon: float = 0.1,
    max_iterations: int = 30,
    stepsize: float = 0.05,
    regularization: float = 1e-3,
    decay: float = 0.9,
    tolerance: float = 1e-4,
) -> SVMModel:
    """Train an epsilon-insensitive linear SVM regressor."""
    if epsilon < 0:
        raise ValidationError("epsilon must be non-negative")
    return _train(
        database, source_table, dependent_column, independent_column,
        epsilon=epsilon, max_iterations=max_iterations, stepsize=stepsize,
        regularization=regularization, decay=decay, tolerance=tolerance,
    )


def predict(
    database,
    model: SVMModel,
    source_table: str,
    independent_column: str = "x",
    *,
    id_column: str = "id",
) -> List[dict]:
    """Score a table in-database with a fitted SVM model."""
    validate_columns_exist(database, source_table, [independent_column, id_column])
    weights, bias = model.weights, model.bias

    def score(x) -> float:
        return float(np.dot(np.asarray(x, dtype=np.float64), weights) + bias)

    database.create_function("svm_score", score, return_type="double precision")
    return database.query_dicts(
        f"SELECT {id_column}, svm_score({independent_column}) AS score, "
        f"CASE WHEN svm_score({independent_column}) >= 0 THEN 1 ELSE -1 END AS prediction "
        f"FROM {source_table} ORDER BY {id_column}"
    )
