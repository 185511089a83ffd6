"""Point estimation of the augmented weights by penalized likelihood.

Serves as the non-Bayesian baseline: the same pairwise likelihood, but a
single weight vector found by projected gradient ascent under the
elementwise nonnegativity constraint instead of a posterior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import kernels
from .spectral import ConstraintSet, DataMatrix, EigenBasis, feature_matrix

DEFAULT_REG = 1e-6
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITERS = 500
ARMIJO_C1 = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_HALVINGS = 50


@dataclass(frozen=True)
class MleSolution:
    gamma: np.ndarray
    objective: float
    converged: bool
    iterations: int

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=np.float64)
        if g.ndim != 1:
            raise ValueError("gamma must be a vector")
        if np.any(g < 0):
            raise ValueError("gamma must be elementwise nonnegative")
        if not np.isfinite(self.objective):
            raise ValueError("objective must be finite")
        g = np.ascontiguousarray(g)
        g.setflags(write=False)
        object.__setattr__(self, "gamma", g)

    @property
    def k(self) -> int:
        return self.gamma.shape[0] - 1


def _check_inputs(gamma, features, labels, reg):
    g = np.asarray(gamma, dtype=np.float64)
    w = kernels.as_f64(features)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if w.ndim != 2 or w.shape[1] != g.shape[0]:
        raise ValueError("features must be 2-d with one column per weight")
    if y.shape[0] != w.shape[0]:
        raise ValueError("features and labels disagree on the constraint count")
    if not reg >= 0:
        raise ValueError(f"reg must be >= 0, got {reg}")
    return g, w, y


def mle_objective(gamma, features, labels, reg: float = DEFAULT_REG) -> float:
    """Penalized log-likelihood of the labeled pairs at a point estimate.

    Each constraint contributes -log(1 + exp(y * gamma.omega)); the ridge
    term -reg*|gamma|^2/2 keeps separable constraint sets from sending the
    maximizer to infinity.  Nonpositive by construction when reg = 0.
    """
    return _objective(*_check_inputs(gamma, features, labels, reg), reg)


def mle_gradient(gamma, features, labels, reg: float = DEFAULT_REG) -> np.ndarray:
    """Analytic gradient of :func:`mle_objective` in gamma."""
    return _gradient(*_check_inputs(gamma, features, labels, reg), reg)


def _objective(g, w, y, reg) -> float:
    margins = y * (w @ g)
    return float(-np.sum(np.logaddexp(0.0, margins)) - 0.5 * reg * (g @ g))


def _gradient(g, w, y, reg) -> np.ndarray:
    margins = y * (w @ g)
    return -w.T @ (y * expit(margins)) - reg * g


def _projected_gradient(gamma, grad):
    # at the boundary only directions pointing inward count
    return np.where(gamma > 0, grad, np.maximum(grad, 0.0))


def _start_point(w: np.ndarray) -> np.ndarray:
    """All-ones start, rescaled so the median margin magnitude is 1."""
    dim = w.shape[1]
    ones = np.ones(dim)
    if w.shape[0] == 0:
        return np.zeros(dim)
    scale = np.median(np.abs(w @ ones))
    if scale > 1e-12:
        ones = ones / scale
    return ones


def mle_fit(
    constraints: ConstraintSet,
    data: DataMatrix,
    basis: EigenBasis,
    reg: float = DEFAULT_REG,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> MleSolution:
    """Maximize the penalized likelihood over the nonnegative orthant.

    Projected gradient ascent with Armijo backtracking.  Starts from the
    better of the scaled all-ones point and the origin, so the reported
    objective never falls below the objective at zero.  Converged means
    the projected gradient norm dropped under ``tol``; a failed line
    search returns the best iterate found with ``converged=False``.
    """
    if tol <= 0 or max_iters < 1:
        raise ValueError("tol must be positive and max_iters at least 1")
    w = feature_matrix(data, basis, constraints.pairs)
    zero, w, y = _check_inputs(np.zeros(basis.k + 1), w, constraints.labels, reg)

    candidates = [zero, _start_point(w)]
    values = [_objective(c, w, y, reg) for c in candidates]
    best = int(np.argmax(values))
    gamma, value = candidates[best], values[best]

    converged = False
    iterations = 0
    while iterations < max_iters:
        grad = _gradient(gamma, w, y, reg)
        if np.linalg.norm(_projected_gradient(gamma, grad)) < tol:
            converged = True
            break
        step = 1.0
        accepted = False
        for _ in range(MAX_HALVINGS + 1):
            trial = np.maximum(gamma + step * grad, 0.0)
            trial_value = _objective(trial, w, y, reg)
            if trial_value >= value + ARMIJO_C1 * (grad @ (trial - gamma)):
                gamma, value = trial, trial_value
                accepted = True
                break
            step *= BACKTRACK_FACTOR
        iterations += 1
        if not accepted:
            break
    else:
        grad = _gradient(gamma, w, y, reg)
        converged = bool(np.linalg.norm(_projected_gradient(gamma, grad)) < tol)

    return MleSolution(
        gamma=gamma, objective=value, converged=converged, iterations=iterations
    )
