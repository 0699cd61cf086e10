"""Ordinary-least-squares linear regression (Section 4.1).

Linear regression is the paper's canonical *single-pass* method: the model is
computed by one user-defined aggregate whose transition function accumulates
``X^T X`` and ``X^T y`` (sums of per-row outer products), whose merge function
adds partial states from different segments, and whose final function solves
the normal equations and derives the usual statistics (Listings 1 and 2).

Three transition *kernels* are provided, mirroring the implementation
generations compared in Section 4.4 / Figure 4:

``naive``
    The v0.1alpha analog: a bare implementation with no abstraction-layer
    wrapping or finiteness checks, updating the Gram matrix row by row with an
    explicit loop (the paper's "simple nested loop" in C).  Cheap for narrow
    models, increasingly expensive as the number of variables grows.
``unoptimized``
    The v0.2.1beta analog: routes every row through the abstraction layer
    (``AnyType`` unwrap, handle promotion), computes the outer product through
    a row-vector expression that allocates temporaries, and pays a defensive
    copy of the state on every row — the behaviours the paper blames for that
    version's slowdown.
``optimized``
    The v0.3 analog: vectorized rank-1 update of the Gram matrix, symmetric
    structure exploited at finalization, minimal per-row overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..abstraction import (
    AnyType,
    LinRegrTransitionState,
    SymmetricPositiveDefiniteEigenDecomposition,
)
from ..driver import validate_column_type, validate_columns_exist, validate_table_exists
from ..errors import ValidationError
from ..engine.aggregates import AggregateDefinition
from ..engine.vectorized import matrix_argument

__all__ = [
    "LinearRegressionResult",
    "KERNELS",
    "make_linregr_aggregate",
    "install_linear_regression",
    "train",
    "predict",
]


@dataclass
class LinearRegressionResult:
    """The composite record returned by ``linregr`` (Section 4.1.1 example output)."""

    coef: np.ndarray
    r2: float
    std_err: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
    condition_no: float
    num_rows: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "coef": self.coef,
            "r2": self.r2,
            "std_err": self.std_err,
            "t_stats": self.t_stats,
            "p_values": self.p_values,
            "condition_no": self.condition_no,
            "num_rows": self.num_rows,
        }

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Apply the fitted coefficients to new feature rows."""
        return np.atleast_2d(np.asarray(features, dtype=np.float64)) @ self.coef


# ---------------------------------------------------------------------------
# Transition kernels
# ---------------------------------------------------------------------------


def _transition_optimized(state: LinRegrTransitionState, y: float, x) -> LinRegrTransitionState:
    """v0.3-style transition: vectorized rank-1 update, minimal overhead."""
    vector = np.asarray(x, dtype=np.float64)
    if not state.is_initialized:
        state.initialize(vector.shape[0])
    state.num_rows += 1
    state.y_sum += y
    state.y_square_sum += y * y
    state.x_transp_y += vector * y
    state.x_transp_x += np.outer(vector, vector)
    return state


def _transition_unoptimized(state: LinRegrTransitionState, y: float, x) -> LinRegrTransitionState:
    """v0.2.1beta-style transition: abstraction overhead plus copy-heavy math.

    Every row goes through an ``AnyType`` argument pack, the feature vector is
    re-bridged to a column vector, the outer product is formed through an
    explicit row-vector/column-vector matmul (two temporaries), and the Gram
    matrix is replaced rather than updated in place — the defensive-copy
    behaviour of the first C++ abstraction layer.
    """
    args = AnyType.args(state, y, x)
    y_value = args[1].get_as(float)
    vector = args[2].get_as("MappedColumnVector")
    if not math.isfinite(y_value) or not np.all(np.isfinite(vector)):
        return state
    if not state.is_initialized:
        state.initialize(vector.shape[0])
    state.num_rows += 1
    state.y_sum += y_value
    state.y_square_sum += y_value * y_value
    state.x_transp_y = state.x_transp_y + vector * y_value
    row = vector.reshape(1, -1)
    outer = row.T @ row
    state.x_transp_x = state.x_transp_x + outer
    return state


def _transition_naive(state: LinRegrTransitionState, y: float, x) -> LinRegrTransitionState:
    """v0.1alpha-style transition: no checks, explicit per-row loop over the triangle."""
    vector = np.asarray(x, dtype=np.float64)
    if not state.is_initialized:
        state.initialize(vector.shape[0])
    state.num_rows += 1
    state.y_sum += y
    state.y_square_sum += y * y
    state.x_transp_y += vector * y
    gram = state.x_transp_x
    for i in range(vector.shape[0]):
        gram[i, : i + 1] += vector[i] * vector[: i + 1]
    return state


def _batch_transition_optimized(
    state: LinRegrTransitionState, y_column, x_column
) -> LinRegrTransitionState:
    """Batched v0.3 transition: one BLAS-backed Gram update per segment.

    Semantically a fold of :func:`_transition_optimized` over the segment's
    rows — ``X^T X`` and ``X^T y`` accumulated for the whole batch in single
    matrix products instead of one rank-1 update per row.  Registered as the
    optimized kernel's ``batch_transition``; the engine falls back to the
    row-at-a-time fold if this raises (e.g. ragged feature vectors).
    """
    matrix = matrix_argument(x_column)
    responses = np.asarray(y_column, dtype=np.float64)
    if not state.is_initialized:
        state.initialize(matrix.shape[1])
    state.num_rows += matrix.shape[0]
    state.y_sum += float(responses.sum())
    state.y_square_sum += float(responses @ responses)
    state.x_transp_y += matrix.T @ responses
    state.x_transp_x += matrix.T @ matrix
    return state


KERNELS: Dict[str, Callable] = {
    "optimized": _transition_optimized,
    "unoptimized": _transition_unoptimized,
    "naive": _transition_naive,
}

#: Batch (whole-segment) kernels; only the v0.3 analog has one — the older
#: generations are deliberately row-at-a-time, that is what Figure 4 measures.
BATCH_KERNELS: Dict[str, Callable] = {
    "optimized": _batch_transition_optimized,
}

#: Map of paper version labels to kernel names (used by the Figure 4 harness).
VERSION_KERNELS = {"v0.3": "optimized", "v0.2.1beta": "unoptimized", "v0.1alpha": "naive"}


def _merge(a: LinRegrTransitionState, b: LinRegrTransitionState) -> LinRegrTransitionState:
    return a.merge(b)


def _finalize(state: LinRegrTransitionState) -> Optional[Dict[str, object]]:
    if state is None or not state.is_initialized or state.num_rows == 0:
        return None
    width = state.width_of_x
    n = state.num_rows
    # The naive kernel maintains only the lower triangle; reconstruct the full
    # symmetric matrix before decomposing (harmless for the other kernels).
    gram = state.x_transp_x
    if not np.allclose(gram, gram.T):
        lower = np.tril(gram)
        gram = lower + lower.T - np.diag(np.diag(lower))
    decomposition = SymmetricPositiveDefiniteEigenDecomposition(gram)
    inverse = decomposition.pseudo_inverse()
    coef = inverse @ state.x_transp_y

    ss_total = state.y_square_sum - state.y_sum * state.y_sum / n
    ss_residual = max(state.y_square_sum - float(coef @ state.x_transp_y), 0.0)
    r2 = 1.0 - ss_residual / ss_total if ss_total > 0 else 1.0

    degrees_of_freedom = max(n - width, 1)
    variance = ss_residual / degrees_of_freedom
    std_err = np.sqrt(np.clip(np.diag(inverse) * variance, 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = np.where(std_err > 0, coef / std_err, np.inf * np.sign(coef))
    # Imported where it is used: ``scipy.stats`` costs ~70 MB of resident
    # memory, and ANALYZE imports this package (for the FM sketch) in every
    # process, most of which never finalize a regression.
    from scipy import stats as scipy_stats

    p_values = 2.0 * scipy_stats.t.sf(np.abs(t_stats), degrees_of_freedom)

    return {
        "coef": coef,
        "r2": float(r2),
        "std_err": std_err,
        "t_stats": t_stats,
        "p_values": p_values,
        "condition_no": float(decomposition.condition_no()),
        "num_rows": int(n),
    }


def make_linregr_aggregate(kernel: str = "optimized", name: str = "linregr") -> AggregateDefinition:
    """Build the ``linregr`` aggregate definition for a given kernel."""
    if kernel not in KERNELS:
        raise ValidationError(f"unknown linregr kernel {kernel!r}; choose from {sorted(KERNELS)}")
    return AggregateDefinition(
        name,
        KERNELS[kernel],
        merge=_merge,
        final=_finalize,
        initial_state=LinRegrTransitionState,
        strict=True,
        batch_transition=BATCH_KERNELS.get(kernel),
    )


def install_linear_regression(database, *, kernel: str = "optimized", name: str = "linregr") -> None:
    """Register the ``linregr`` user-defined aggregate on a database."""
    definition = make_linregr_aggregate(kernel, name)
    database.catalog.register_aggregate(definition)


def train(
    database,
    source_table: str,
    dependent_column: str = "y",
    independent_column: str = "x",
    *,
    kernel: str = "optimized",
) -> LinearRegressionResult:
    """Fit OLS linear regression over a table: ``SELECT linregr(y, x) FROM source``.

    Parameters mirror the SQL interface in the paper: the data lives in
    ``source_table`` with the response in ``dependent_column`` (double
    precision) and the feature vector in ``independent_column``
    (double precision[]).
    """
    validate_table_exists(database, source_table)
    validate_columns_exist(database, source_table, [dependent_column, independent_column])
    validate_column_type(database, source_table, independent_column, expect_array=True)
    install_linear_regression(database, kernel=kernel)
    record = database.query_scalar(
        f"SELECT linregr({dependent_column}, {independent_column}) FROM {source_table}"
    )
    if record is None:
        raise ValidationError(f"table {source_table!r} has no usable rows")
    return LinearRegressionResult(
        coef=np.asarray(record["coef"], dtype=np.float64),
        r2=float(record["r2"]),
        std_err=np.asarray(record["std_err"], dtype=np.float64),
        t_stats=np.asarray(record["t_stats"], dtype=np.float64),
        p_values=np.asarray(record["p_values"], dtype=np.float64),
        condition_no=float(record["condition_no"]),
        num_rows=int(record["num_rows"]),
    )


def predict(
    database,
    model: LinearRegressionResult,
    source_table: str,
    independent_column: str = "x",
    *,
    output_column: str = "prediction",
    id_column: str = "id",
) -> List[dict]:
    """Score a table with a fitted model inside the database.

    Registers a scoring UDF bound to the model coefficients and evaluates it in
    SQL so the scan happens in the engine.
    """
    validate_columns_exist(database, source_table, [independent_column, id_column])
    coef = model.coef

    def score(x) -> float:
        return float(np.dot(np.asarray(x, dtype=np.float64), coef))

    database.create_function("linregr_predict", score, return_type="double precision")
    return database.query_dicts(
        f"SELECT {id_column}, linregr_predict({independent_column}) AS {output_column} "
        f"FROM {source_table} ORDER BY {id_column}"
    )
