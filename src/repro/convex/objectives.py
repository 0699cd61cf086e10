"""Convex objectives for the unified SGD abstraction (Section 5.1, Table 2).

The Wisconsin contribution: "an ideal abstraction would allow us to decouple
the specification of the model from the algorithm used to solve the
specification".  Every model in Table 2 is expressed as a sum of per-example
convex terms ``f(x) = sum_i f_i(x)``; incremental gradient descent then only
needs, per example, the gradient of one term.  Each :class:`Objective` below
supplies exactly that: how to initialize the model vector, how to compute one
term's loss, and how to apply one term's (sub)gradient step in place.

Row formats (what the data table stores per example):

* Least squares / lasso / logistic / SVM: ``(y, x)`` with ``x`` a
  ``double precision[]`` feature vector.
* Recommendation (low-rank matrix factorization): ``(i, j, rating)``.
* Labeling (CRF): ``(token_features, labels)`` where ``token_features`` is a
  list of per-position observation-feature index lists.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ValidationError
from ..text.crf import LinearChainCRF
from ..text.features import FeatureMap

__all__ = [
    "Objective",
    "LeastSquaresObjective",
    "LassoObjective",
    "LogisticObjective",
    "HingeObjective",
    "RecommendationObjective",
    "CRFObjective",
    "TABLE2_OBJECTIVES",
]


class Objective:
    """Base class: one convex term per data row."""

    #: Human-readable name matching the Table 2 row.
    name: str = "objective"

    def initial_model(self) -> np.ndarray:
        """A fresh, zero-initialized model vector."""
        raise NotImplementedError

    def loss(self, model: np.ndarray, row: Sequence[Any]) -> float:
        """The value of this row's term ``f_i`` at ``model``."""
        raise NotImplementedError

    def apply_gradient(self, model: np.ndarray, row: Sequence[Any], stepsize: float) -> None:
        """In-place SGD step ``model -= stepsize * grad f_i(model)``."""
        raise NotImplementedError

    def total_loss(self, model: np.ndarray, rows: Sequence[Sequence[Any]]) -> float:
        return float(sum(self.loss(model, row) for row in rows))

    def __eq__(self, other: Any) -> bool:
        """Same model with the same hyper-parameters (lets a repeated
        ``install_igd`` be recognised as a catalog no-op)."""
        return type(other) is type(self) and vars(other) == vars(self)

    __hash__ = None


# ---------------------------------------------------------------------------
# Vector-model objectives: y, x rows
# ---------------------------------------------------------------------------


class LeastSquaresObjective(Objective):
    """``sum (x^T u - y)^2`` — ordinary least squares."""

    name = "Least Squares"

    def __init__(self, dimension: int) -> None:
        if dimension < 1:
            raise ValidationError("dimension must be positive")
        self.dimension = dimension

    def initial_model(self) -> np.ndarray:
        return np.zeros(self.dimension, dtype=np.float64)

    def loss(self, model, row) -> float:
        y, x = float(row[0]), np.asarray(row[1], dtype=np.float64)
        residual = float(x @ model) - y
        return residual * residual

    def apply_gradient(self, model, row, stepsize) -> None:
        y, x = float(row[0]), np.asarray(row[1], dtype=np.float64)
        residual = float(x @ model) - y
        model -= stepsize * 2.0 * residual * x


class LassoObjective(LeastSquaresObjective):
    """``sum (x^T u - y)^2 + mu * ||u||_1`` — squared loss with an L1 penalty.

    The L1 term is handled with a proximal (soft-thresholding) step after each
    gradient step, which keeps the iterates sparse.
    """

    name = "Lasso"

    def __init__(self, dimension: int, mu: float = 0.1) -> None:
        super().__init__(dimension)
        if mu < 0:
            raise ValidationError("mu must be non-negative")
        self.mu = mu

    def loss(self, model, row) -> float:
        # Spread the (global) penalty across rows so total_loss matches the objective.
        return super().loss(model, row) + self.mu * float(np.abs(model).sum())

    def apply_gradient(self, model, row, stepsize) -> None:
        super().apply_gradient(model, row, stepsize)
        threshold = stepsize * self.mu
        np.copyto(model, np.sign(model) * np.maximum(np.abs(model) - threshold, 0.0))


class LogisticObjective(Objective):
    """``sum log(1 + exp(-y x^T u))`` with labels ``y in {-1, +1}``."""

    name = "Logistic Regression"

    def __init__(self, dimension: int) -> None:
        if dimension < 1:
            raise ValidationError("dimension must be positive")
        self.dimension = dimension

    def initial_model(self) -> np.ndarray:
        return np.zeros(self.dimension, dtype=np.float64)

    @staticmethod
    def _to_signed(y: float) -> float:
        return 1.0 if y > 0 else -1.0

    def loss(self, model, row) -> float:
        y = self._to_signed(float(row[0]))
        x = np.asarray(row[1], dtype=np.float64)
        margin = y * float(x @ model)
        # log(1 + exp(-margin)) computed stably.
        if margin > 30:
            return math.exp(-margin)
        return math.log1p(math.exp(-margin))

    def apply_gradient(self, model, row, stepsize) -> None:
        y = self._to_signed(float(row[0]))
        x = np.asarray(row[1], dtype=np.float64)
        margin = y * float(x @ model)
        coefficient = -y / (1.0 + math.exp(min(margin, 30.0)))
        model -= stepsize * coefficient * x


class HingeObjective(Objective):
    """``sum (1 - y x^T u)_+`` — the SVM classification objective."""

    name = "Classification (SVM)"

    def __init__(self, dimension: int, regularization: float = 1e-4) -> None:
        if dimension < 1:
            raise ValidationError("dimension must be positive")
        self.dimension = dimension
        self.regularization = regularization

    def initial_model(self) -> np.ndarray:
        return np.zeros(self.dimension, dtype=np.float64)

    def loss(self, model, row) -> float:
        y = 1.0 if float(row[0]) > 0 else -1.0
        x = np.asarray(row[1], dtype=np.float64)
        return max(0.0, 1.0 - y * float(x @ model))

    def apply_gradient(self, model, row, stepsize) -> None:
        y = 1.0 if float(row[0]) > 0 else -1.0
        x = np.asarray(row[1], dtype=np.float64)
        model *= 1.0 - stepsize * self.regularization
        if y * float(x @ model) < 1.0:
            model += stepsize * y * x


# ---------------------------------------------------------------------------
# Recommendation: low-rank matrix factorization
# ---------------------------------------------------------------------------


class RecommendationObjective(Objective):
    """``sum (L_i^T R_j - M_ij)^2 + mu ||L, R||_F^2`` — low-rank factorization.

    The model vector packs the user factors ``L`` (num_users x rank) followed
    by the item factors ``R`` (num_items x rank); each example only touches one
    row of each, so the per-row gradient update is sparse.
    """

    name = "Recommendation"

    def __init__(self, num_users: int, num_items: int, rank: int, mu: float = 0.05,
                 *, init_scale: float = 0.1, seed: Optional[int] = 0) -> None:
        if min(num_users, num_items, rank) < 1:
            raise ValidationError("num_users, num_items and rank must be positive")
        self.num_users = num_users
        self.num_items = num_items
        self.rank = rank
        self.mu = mu
        self.init_scale = init_scale
        self.seed = seed

    def initial_model(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return rng.normal(scale=self.init_scale, size=(self.num_users + self.num_items) * self.rank)

    def _views(self, model: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        split = self.num_users * self.rank
        left = model[:split].reshape(self.num_users, self.rank)
        right = model[split:].reshape(self.num_items, self.rank)
        return left, right

    def loss(self, model, row) -> float:
        user, item, rating = int(row[0]), int(row[1]), float(row[2])
        left, right = self._views(model)
        residual = float(left[user] @ right[item]) - rating
        penalty = self.mu * (float(left[user] @ left[user]) + float(right[item] @ right[item]))
        return residual * residual + penalty

    def apply_gradient(self, model, row, stepsize) -> None:
        user, item, rating = int(row[0]), int(row[1]), float(row[2])
        left, right = self._views(model)
        user_vector = left[user].copy()
        residual = float(user_vector @ right[item]) - rating
        left[user] -= stepsize * (2.0 * residual * right[item] + 2.0 * self.mu * user_vector)
        right[item] -= stepsize * (2.0 * residual * user_vector + 2.0 * self.mu * right[item])


# ---------------------------------------------------------------------------
# Labeling: linear-chain CRF log-likelihood
# ---------------------------------------------------------------------------


class CRFObjective(Objective):
    """``sum_k [ sum_j x_j F_j(y_k, z_k) - log Z(z_k) ]`` — CRF labeling.

    Negated (so that SGD *minimizes*), the per-example term is the negative
    conditional log-likelihood of one sentence.  The model vector packs the
    observation weights, transition weights and start weights of a
    :class:`~repro.text.crf.LinearChainCRF`.
    """

    name = "Labeling (CRF)"

    def __init__(self, num_features: int, num_labels: int) -> None:
        if num_features < 1 or num_labels < 1:
            raise ValidationError("num_features and num_labels must be positive")
        self.num_features = num_features
        self.num_labels = num_labels
        feature_map = FeatureMap()
        for index in range(num_features):
            feature_map.intern(f"f{index}")
        self._crf = LinearChainCRF([f"L{i}" for i in range(num_labels)], feature_map)

    def initial_model(self) -> np.ndarray:
        size = self.num_features * self.num_labels + self.num_labels * self.num_labels + self.num_labels
        return np.zeros(size, dtype=np.float64)

    def _load(self, model: np.ndarray) -> None:
        observation_size = self.num_features * self.num_labels
        transition_size = self.num_labels * self.num_labels
        self._crf.observation_weights = model[:observation_size].reshape(
            self.num_features, self.num_labels
        )
        self._crf.transition_weights = model[
            observation_size:observation_size + transition_size
        ].reshape(self.num_labels, self.num_labels)
        self._crf.start_weights = model[observation_size + transition_size:]

    def loss(self, model, row) -> float:
        token_features, labels = row[0], [int(l) for l in row[1]]
        self._load(model)
        return -self._crf.log_likelihood(token_features, labels)

    def apply_gradient(self, model, row, stepsize) -> None:
        token_features, labels = row[0], [int(l) for l in row[1]]
        self._load(model)
        gradient = self._crf.gradient(token_features, labels)
        # apply_gradient on the CRF performs gradient *ascent* on the wrapped
        # views, which are backed by `model`, so the update lands in place.
        self._crf.apply_gradient(gradient, stepsize)


#: The Table 2 catalogue: model name -> objective class.
TABLE2_OBJECTIVES = {
    "Least Squares": LeastSquaresObjective,
    "Lasso": LassoObjective,
    "Logistic Regression": LogisticObjective,
    "Classification (SVM)": HingeObjective,
    "Recommendation": RecommendationObjective,
    "Labeling (CRF)": CRFObjective,
}
