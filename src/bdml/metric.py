"""Metric assembly and nearest-neighbor evaluation.

A fitted weight vector turns into a PSD quadratic form over the eigen
basis; distances are always evaluated in the projected K-dimensional
space, so the dense d-by-d matrix never materializes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import kernels
from .spectral import DataMatrix, EigenBasis, _freeze

if TYPE_CHECKING:  # the eval path loads no fit module
    from .mle import MleSolution
    from .vb import VariationalPosterior


@dataclass(frozen=True)
class MetricModel:
    """Nonnegative weights over an eigen basis plus the similarity threshold."""

    basis: EigenBasis
    weights: np.ndarray
    threshold: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (self.basis.k,):
            raise ValueError(
                f"weights must have shape ({self.basis.k},), got {w.shape}"
            )
        check_weights(w, self.threshold)
        object.__setattr__(self, "weights", _freeze(w))
        object.__setattr__(self, "threshold", float(self.threshold))

    @property
    def augmented(self) -> np.ndarray:
        """Weight vector in augmented layout: threshold first."""
        return np.concatenate(([self.threshold], self.weights))

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "weights": self.weights.tolist(),
            "basis": {
                "vectors": self.basis.vectors.tolist(),
                "eigenvalues": self.basis.eigenvalues.tolist(),
                "center": self.basis.center.tolist(),
                "scale": self.basis.scale.tolist(),
            },
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "MetricModel":
        threshold, weights, b = _entries(doc, "model", "threshold", "weights", "basis")
        # the constructors convert the lists to float64 arrays
        basis = EigenBasis(*_entries(b, "model basis", "vectors", "eigenvalues", "center", "scale"))
        if isinstance(threshold, bool) or not isinstance(threshold, (int, float)):
            raise ValueError(f"model 'threshold' entry must be a number, got {threshold!r}")
        try:
            threshold = float(threshold)
        except OverflowError:  # an int past float's range; a float that far parses as inf
            raise ValueError("model 'threshold' entry is an integer too large for a float") from None
        return cls(basis, weights, threshold)


def _entries(doc, what: str, *names) -> list:
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object")
    missing = [name for name in names if name not in doc]
    if missing:
        raise ValueError(f"{what} has no {missing[0]!r} entry")
    return [doc[name] for name in names]


def check_weights(weights, threshold) -> None:
    """The value checks of a :class:`MetricModel`, for one model or a stack:
    (..., K) weights and (...) thresholds."""
    if np.any(weights < 0):
        raise ValueError("weights must be elementwise nonnegative")
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite")
    if not np.all(np.isfinite(threshold) & (np.asarray(threshold) >= 0)):
        raise ValueError("threshold must be finite and nonnegative")


def from_augmented(augmented, basis: EigenBasis) -> MetricModel:
    """Split an augmented (K+1)-vector into threshold and weights."""
    aug = np.asarray(augmented, dtype=np.float64)
    if aug.shape != (basis.k + 1,):
        raise ValueError(
            f"augmented vector must have length {basis.k + 1}, got {aug.shape}"
        )
    return MetricModel(basis=basis, weights=aug[1:], threshold=float(aug[0]))


def from_posterior(post: VariationalPosterior, basis: EigenBasis) -> MetricModel:
    return from_augmented(post.mu, basis)


def from_mle(sol: MleSolution, basis: EigenBasis) -> MetricModel:
    return from_augmented(sol.gamma, basis)


def distance(model: MetricModel, x, z) -> float:
    """Squared metric distance between two raw feature vectors."""
    proj = model.basis.project_diff(
        np.asarray(x, dtype=np.float64) - np.asarray(z, dtype=np.float64)
    )
    return float(model.weights @ (proj * proj))


def _check_1nn_data(train: DataMatrix, queries: DataMatrix, d: int) -> None:
    if train.labels is None:
        raise ValueError("training data must be labeled")
    if not train.d == queries.d == d:
        raise ValueError(f"dimension mismatch: train {train.d}, queries {queries.d}, metric {d}")


def knn_classify(model: MetricModel, train: DataMatrix, queries: DataMatrix) -> np.ndarray:
    """Label each query by its nearest training row under the model metric.

    Distance ties go to the lowest training-row index.  Projections are
    scaled by the square root of each weight, turning the metric into a
    plain squared Euclidean search in K dimensions.
    """
    _check_1nn_data(train, queries, model.basis.d)
    proj = model.basis.project
    [labels] = knn_many(model.augmented[None], proj(train.x)[None], proj(queries.x)[None],
                        train.labels[None])
    return labels


def knn_many(augmented, train_proj, query_proj, train_labels) -> np.ndarray:
    """:func:`knn_classify` for each of a stack of r models.

    ``augmented`` is (r, K+1), threshold first, checked as a :class:`MetricModel`
    checks it; ``train_proj`` and ``query_proj`` the (r, n, K) and (r, q, K)
    basis projections of the training rows and queries, and ``train_labels``
    (r, n).  Returns the (r, q) predicted labels.
    """
    check_weights(augmented[:, 1:], augmented[:, 0])
    root = np.sqrt(augmented[:, 1:])[:, None, :]
    idx = kernels.nn1_many(kernels.as_f64(train_proj * root), kernels.as_f64(query_proj * root))
    return np.take_along_axis(train_labels, idx, axis=-1)


def euclidean_knn(train: DataMatrix, queries: DataMatrix) -> np.ndarray:
    """1NN on raw features under the ordinary Euclidean distance."""
    _check_1nn_data(train, queries, train.d)
    idx = kernels.nn1_indices(kernels.as_f64(train.x), kernels.as_f64(queries.x))
    return train.labels[idx]


def accuracy(predicted, truth) -> float:
    """Fraction of positions where the two label vectors agree."""
    p = np.asarray(predicted).reshape(-1)
    t = np.asarray(truth).reshape(-1)
    if p.shape != t.shape:
        raise ValueError(f"length mismatch: {p.shape[0]} vs {t.shape[0]}")
    if p.size == 0:
        raise ValueError("cannot score empty label vectors")
    return float(np.mean(p == t))
