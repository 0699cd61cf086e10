"""Binary logistic regression via iteratively-reweighted least squares (Section 4.2).

This is the paper's canonical *multi-pass* method: each IRLS iteration is one
user-defined-aggregate pass over the data (``logregr_irls_step``), and a
Python driver function owns the outer loop, staging inter-iteration state in a
temporary table exactly as in Figure 3.  A stochastic-gradient solver is also
provided (the same update later generalized by the convex framework of
Section 5.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..abstraction import LogRegrIRLSState, SymmetricPositiveDefiniteEigenDecomposition
from ..driver import IterationController, validate_column_type, validate_columns_exist, validate_table_exists
from ..errors import ConvergenceError, ValidationError
from ..engine.aggregates import AggregateDefinition
from ..engine.vectorized import constant_argument, matrix_argument

__all__ = [
    "LogisticRegressionResult",
    "install_logistic_regression",
    "train",
    "predict",
]


def _sigma(z: np.ndarray) -> np.ndarray:
    """The logistic function sigma(z) = 1 / (1 + exp(-z)), numerically clipped."""
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))


@dataclass
class LogisticRegressionResult:
    """Fitted logistic-regression model with the usual inference statistics."""

    coef: np.ndarray
    log_likelihood: float
    std_err: np.ndarray
    z_stats: np.ndarray
    p_values: np.ndarray
    odds_ratios: np.ndarray
    condition_no: float
    num_rows: int
    num_iterations: int
    converged: bool

    def predict_probability(self, features: np.ndarray) -> np.ndarray:
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        return _sigma(features @ self.coef)

    def predict(self, features: np.ndarray, *, threshold: float = 0.5) -> np.ndarray:
        return (self.predict_probability(features) >= threshold).astype(np.int64)


# ---------------------------------------------------------------------------
# The per-iteration aggregate (one IRLS step)
# ---------------------------------------------------------------------------


def _irls_transition(state: LogRegrIRLSState, y: float, x, previous_coef) -> LogRegrIRLSState:
    vector = np.asarray(x, dtype=np.float64)
    if not state.is_initialized:
        coef = None if previous_coef is None else np.asarray(previous_coef, dtype=np.float64)
        state.initialize(vector.shape[0], coef)
    label = 1.0 if y else 0.0
    xb = float(vector @ state.coef)
    mu = float(_sigma(np.asarray([xb]))[0])
    weight = max(mu * (1.0 - mu), 1e-12)
    # Working response z = x.b + (y - mu) / w ; accumulate X^T D X and X^T D z.
    z = xb + (label - mu) / weight
    state.num_rows += 1
    state.x_trans_d_x += weight * np.outer(vector, vector)
    state.x_trans_d_z += weight * z * vector
    # Log-likelihood of the *previous* coefficients, used for convergence tests.
    state.log_likelihood += label * math.log(max(mu, 1e-300)) + (1.0 - label) * math.log(
        max(1.0 - mu, 1e-300)
    )
    return state


def _irls_strict_transition(state, y, x, previous_coef):
    """The registered transition: strict in ``y`` and ``x``, not in the
    coefficients (NULL on the first iteration)."""
    if y is None or x is None:
        return state
    return _irls_transition(state, y, x, previous_coef)


def _irls_batch(state: LogRegrIRLSState, y_column, x_column, coef_column) -> LogRegrIRLSState:
    """A segment in one call: ``X @ coef``, then one weighted Gram product.

    Same arithmetic as :func:`_irls_transition` row by row (summed in another
    order).  The aggregate is not strict, so NULLs reach the kernel: it raises
    on a NULL ``y`` or ``x`` and the row fold — which skips such rows — takes
    over.
    """
    matrix = matrix_argument(x_column)
    previous_coef = constant_argument(coef_column)
    responses = np.asarray(y_column, dtype=np.float64)
    # numpy reads None as NaN; a genuine NaN label is not NULL (it counts as 1).
    if np.isnan(responses).any() and any(value is None for value in y_column):
        raise ValueError("NULL label")
    if not state.is_initialized:
        coef = None if previous_coef is None else np.asarray(previous_coef, dtype=np.float64)
        state.initialize(matrix.shape[1], coef)
    labels = np.where(responses != 0, 1.0, 0.0)
    xb = matrix @ state.coef
    mu = _sigma(xb)
    weights = np.maximum(mu * (1.0 - mu), 1e-12)
    z = xb + (labels - mu) / weights
    state.num_rows += matrix.shape[0]
    state.x_trans_d_x += (matrix * weights[:, None]).T @ matrix
    state.x_trans_d_z += matrix.T @ (weights * z)
    state.log_likelihood += float(
        labels @ np.log(np.maximum(mu, 1e-300))
        + (1.0 - labels) @ np.log(np.maximum(1.0 - mu, 1e-300))
    )
    return state


def _irls_merge(a: LogRegrIRLSState, b: LogRegrIRLSState) -> LogRegrIRLSState:
    return a.merge(b)


def _irls_final(state: LogRegrIRLSState) -> Optional[Dict[str, object]]:
    if state is None or not state.is_initialized or state.num_rows == 0:
        return None
    decomposition = SymmetricPositiveDefiniteEigenDecomposition(state.x_trans_d_x)
    inverse = decomposition.pseudo_inverse()
    new_coef = inverse @ state.x_trans_d_z
    return {
        "coef": new_coef,
        "previous_coef": state.coef,
        "log_likelihood": float(state.log_likelihood),
        "covariance_diag": np.diag(inverse),
        "condition_no": float(decomposition.condition_no()),
        "num_rows": int(state.num_rows),
    }


def install_logistic_regression(database, *, name: str = "logregr_irls_step") -> None:
    """Register the per-iteration IRLS aggregate (strict in y and x, not in the state)."""
    definition = AggregateDefinition(
        name,
        _irls_strict_transition,
        merge=_irls_merge,
        final=_irls_final,
        initial_state=LogRegrIRLSState,
        strict=False,
        batch_transition=_irls_batch,
    )
    database.catalog.register_aggregate(definition)


# ---------------------------------------------------------------------------
# Driver function (the Figure 3 control flow)
# ---------------------------------------------------------------------------


def train(
    database,
    source_table: str,
    dependent_column: str = "y",
    independent_column: str = "x",
    *,
    max_iterations: int = 30,
    tolerance: float = 1e-6,
    fail_on_max_iterations: bool = False,
) -> LogisticRegressionResult:
    """Fit binary logistic regression with the IRLS driver pattern.

    The driver creates a temp table for inter-iteration state, runs
    ``SELECT logregr_irls_step(y, x, previous_coef) FROM source`` once per
    iteration, and stops when the coefficient update is below ``tolerance``
    (relative L2 norm) — the "did_converge" test of Figure 3.
    """
    validate_table_exists(database, source_table)
    validate_columns_exist(database, source_table, [dependent_column, independent_column])
    validate_column_type(database, source_table, independent_column, expect_array=True)
    install_logistic_regression(database)

    update_sql = (
        f"SELECT logregr_irls_step({dependent_column}, {independent_column}, %(previous_coef)s) "
        f"FROM {source_table}"
    )

    controller = IterationController(
        database,
        initial_state=None,
        max_iterations=max_iterations,
        temp_prefix="logregr_state",
        fail_on_max_iterations=fail_on_max_iterations,
    )
    previous_coef: Optional[np.ndarray] = None
    converged = False
    final_record: Optional[Dict[str, object]] = None
    with controller:
        for _ in range(max_iterations):
            record = controller.update(
                update_sql,
                {"previous_coef": None if previous_coef is None else previous_coef},
            )
            if record is None:
                raise ValidationError(f"table {source_table!r} has no usable rows")
            final_record = record
            new_coef = np.asarray(record["coef"], dtype=np.float64)
            if previous_coef is not None:
                denominator = max(float(np.linalg.norm(previous_coef)), 1e-12)
                if float(np.linalg.norm(new_coef - previous_coef)) / denominator < tolerance:
                    previous_coef = new_coef
                    converged = True
                    break
            previous_coef = new_coef
        iterations_run = controller.iteration

    if final_record is None:  # pragma: no cover - max_iterations >= 1 always yields one record
        raise ConvergenceError("no IRLS iterations were run")
    if not converged and fail_on_max_iterations:
        raise ConvergenceError(
            f"logistic regression did not converge in {max_iterations} iterations"
        )

    coef = np.asarray(final_record["coef"], dtype=np.float64)
    covariance_diag = np.asarray(final_record["covariance_diag"], dtype=np.float64)
    std_err = np.sqrt(np.clip(covariance_diag, 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        z_stats = np.where(std_err > 0, coef / std_err, np.inf * np.sign(coef))
    from scipy import stats as scipy_stats  # lazily: see linear_regression._finalize

    p_values = 2.0 * scipy_stats.norm.sf(np.abs(z_stats))
    return LogisticRegressionResult(
        coef=coef,
        log_likelihood=float(final_record["log_likelihood"]),
        std_err=std_err,
        z_stats=z_stats,
        p_values=p_values,
        odds_ratios=np.exp(coef),
        condition_no=float(final_record["condition_no"]),
        num_rows=int(final_record["num_rows"]),
        num_iterations=iterations_run,
        converged=converged,
    )


def predict(
    database,
    model: LogisticRegressionResult,
    source_table: str,
    independent_column: str = "x",
    *,
    id_column: str = "id",
    threshold: float = 0.5,
) -> List[dict]:
    """Score a table in-database: probability and thresholded label per row."""
    validate_columns_exist(database, source_table, [independent_column, id_column])
    coef = model.coef

    def probability(x) -> float:
        return float(_sigma(np.asarray([np.dot(np.asarray(x, dtype=np.float64), coef)]))[0])

    database.create_function("logregr_probability", probability, return_type="double precision")
    return database.query_dicts(
        f"SELECT {id_column}, logregr_probability({independent_column}) AS probability, "
        f"logregr_probability({independent_column}) >= {threshold} AS prediction "
        f"FROM {source_table} ORDER BY {id_column}"
    )
