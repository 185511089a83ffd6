"""Point estimation of the augmented weights by penalized likelihood.

Serves as the non-Bayesian baseline: the same pairwise likelihood, but a
single weight vector found under the elementwise nonnegativity constraint
instead of a posterior.  The fit is a projected Newton method (D. P.
Bertsekas, "Projected Newton methods for optimization problems with simple
constraints", SIAM J. Control Optim. 20(2), 1982): the objective is concave
and its negative Hessian is at most 51x51, so every iteration can afford a
Newton solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .spectral import ConstraintSet, DataMatrix, EigenBasis, feature_matrix

DEFAULT_REG = 1e-6
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITERS = 500
ARMIJO_C1 = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_HALVINGS = 50
# a free Hessian block whose smallest Cholesky pivot (squared) falls below
# this fraction of its largest diagonal entry counts as singular
SINGULAR_RTOL = 1e-12
# an iteration that cannot raise the objective has stalled; the fit then
# counts as converged if the full step promised at most this many units in
# the last place of the objective, which its rounding hides
STALL_ULPS = 4


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
    return _derivatives(*_check_inputs(gamma, features, labels, reg), reg)[0]


def _objective(g, w, y, reg) -> float:
    margins = y * (w @ g)
    return float(-np.sum(np.logaddexp(0.0, margins)) - 0.5 * reg * (g @ g))


def _derivatives(g, w, y, reg):
    """Gradient of the objective and the curvature weights of its negative Hessian.

    Both come from one pass over the margins: with s = sigma(margins) the
    curvature weights are y^2 s (1 - s), which :func:`_negative_hessian`
    turns into the Hessian only when a Newton step needs it.
    """
    s = kernels.expit(y * (w @ g))
    grad = -w.T @ (y * s) - reg * g
    return grad, y * y * s * (1.0 - s)


def _negative_hessian(w, curvature, reg) -> np.ndarray:
    """W^T diag(curvature) W + reg*I: positive semidefinite, definite when reg > 0."""
    neg_hess = kernels.weighted_outer_sum(w, curvature)
    neg_hess.flat[:: w.shape[1] + 1] += reg
    return neg_hess


def _projected_gradient(gamma, grad):
    # at the boundary only directions pointing inward count
    return np.where(gamma > 0, grad, np.maximum(grad, 0.0))


def _newton_direction(gamma, grad, neg_hess) -> np.ndarray:
    """Ascent direction of one projected Newton iteration.

    Coordinates held at the bound (zero, with the gradient pointing outward)
    take the gradient, which the projection leaves at zero.  The free ones
    take the Newton step on their block of the negative Hessian, or the
    gradient if that block is singular (possible at reg = 0 with fewer
    constraints than weights).
    """
    direction = grad.copy()
    free = (gamma > 0) | (grad > 0)
    block = neg_hess[free][:, free]
    try:
        pivots = np.diagonal(np.linalg.cholesky(block))
    except np.linalg.LinAlgError:
        return direction
    if pivots.min() ** 2 > SINGULAR_RTOL * block.diagonal().max():
        direction[free] = np.linalg.solve(block, grad[free])
    return direction


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

    Projected Newton ascent: zero coordinates whose gradient points
    outward take a gradient step, the others a Newton step (the gradient
    if their Hessian block is singular), followed by Armijo backtracking
    along the projection arc max(gamma + t*d, 0) from t = 1.  Starts from
    the better of the scaled all-ones point and the origin, and never
    accepts a lower objective, so the reported objective never falls
    below the objective at zero.  Converged means the projected gradient
    norm dropped under ``tol``, or that an iteration could no longer raise
    the objective while the full step promised a gain below its rounding
    (``STALL_ULPS``), which happens where the curvature is large.  Any
    other stalled or failed line search, or ``max_iters`` iterations,
    return the last iterate with ``converged=False``.
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
    while True:
        grad, curvature = _derivatives(gamma, w, y, reg)
        if np.linalg.norm(_projected_gradient(gamma, grad)) < tol:
            converged = True
            break
        if iterations == max_iters:
            break
        iterations += 1
        direction = _newton_direction(gamma, grad, _negative_hessian(w, curvature, reg))
        step = 1.0
        for _ in range(MAX_HALVINGS + 1):
            trial = np.maximum(gamma + step * direction, 0.0)
            trial_value = _objective(trial, w, y, reg)
            # a clipped Newton step can point against the gradient, so the
            # Armijo term is floored at 0: no step may lower the objective
            gain = ARMIJO_C1 * (grad @ (trial - gamma))
            if trial_value >= value + max(gain, 0.0):
                break
            step *= BACKTRACK_FACTOR
        else:
            trial_value = -np.inf
        if trial_value <= value:
            promised = 0.5 * (grad @ (np.maximum(gamma + direction, 0.0) - gamma))
            converged = promised <= STALL_ULPS * np.spacing(abs(value))
            break
        gamma, value = trial, trial_value

    return MleSolution(
        gamma=gamma, objective=value, converged=converged, iterations=iterations
    )
