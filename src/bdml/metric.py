"""Metric assembly and nearest-neighbor evaluation.

A fitted weight vector turns into a PSD quadratic form over the eigen
basis; distances are always evaluated in the projected K-dimensional
space, so the dense d-by-d matrix never materializes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .mle import MleSolution
from .spectral import DataMatrix, EigenBasis
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
        if np.any(w < 0):
            raise ValueError("weights must be elementwise nonnegative")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if not np.isfinite(self.threshold) or self.threshold < 0:
            raise ValueError("threshold must be finite and nonnegative")
        w = np.ascontiguousarray(w)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
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
        b = doc["basis"]
        basis = EigenBasis(
            vectors=np.array(b["vectors"], dtype=np.float64),
            eigenvalues=np.array(b["eigenvalues"], dtype=np.float64),
            center=np.array(b["center"], dtype=np.float64),
            scale=np.array(b["scale"], dtype=np.float64),
        )
        return cls(
            basis=basis,
            weights=np.array(doc["weights"], dtype=np.float64),
            threshold=float(doc["threshold"]),
        )


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


def knn_classify(model: MetricModel, train: DataMatrix, queries: DataMatrix) -> np.ndarray:
    """Label each query by its nearest training row under the model metric.

    Distance ties go to the lowest training-row index.  Projections are
    scaled by the square root of each weight, turning the metric into a
    plain squared Euclidean search in K dimensions.
    """
    if train.labels is None:
        raise ValueError("training data must be labeled")
    if train.d != queries.d or train.d != model.basis.d:
        raise ValueError("dimension mismatch between model, train and queries")
    root = np.sqrt(model.weights)
    t = kernels.as_f64(model.basis.project(train.x) * root)
    q = kernels.as_f64(model.basis.project(queries.x) * root)
    idx = kernels.nn1_indices(t, q)
    return train.labels[idx]


def euclidean_knn(train: DataMatrix, queries: DataMatrix) -> np.ndarray:
    """1NN on raw features under the ordinary Euclidean distance."""
    if train.labels is None:
        raise ValueError("training data must be labeled")
    if train.d != queries.d:
        raise ValueError("dimension mismatch between train and queries")
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
