"""Point estimation of the augmented weights by penalized likelihood.

Serves as the non-Bayesian baseline: the same pairwise likelihood, but a
single weight vector found under the elementwise nonnegativity constraint
instead of a posterior.  The fit is a projected Newton method (D. P.
Bertsekas, "Projected Newton methods for optimization problems with simple
constraints", SIAM J. Control Optim. 20(2), 1982): the objective is concave
and its negative Hessian is at most 51x51, so every iteration can afford a
Newton solve.  :func:`fit_many` runs the method on a stack of same-shape
problems in lockstep, as ``vb.fit_many`` does for the variational fits.
:func:`mle_objective` and :func:`mle_gradient` check and evaluate their
one problem as a stack of one, by the input check ``vb`` shares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels, spectral
from .spectral import ConstraintSet, DataMatrix, EigenBasis, _freeze, _replaced, feature_matrix

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
    """Nonnegative weights at a finite objective, of one problem or a stack along a leading
    axis.  ``gamma`` is read-only; a C-contiguous float64 one is frozen in place, not copied."""

    gamma: np.ndarray
    objective: float
    converged: bool
    iterations: int

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=np.float64)
        if not g.ndim or g.shape[:-1] != np.shape(self.objective):
            raise ValueError("gamma must be one vector per objective")
        if (g < 0).any():
            raise ValueError("gamma must be elementwise nonnegative")
        if not np.isfinite(self.objective).all():
            raise ValueError("objective must be finite")
        object.__setattr__(self, "gamma", _freeze(g))

    @property
    def weights(self) -> np.ndarray:
        return self.gamma

    def row(self, n: int) -> MleSolution:
        """Problem ``n`` of a stack, as :func:`mle_fit` gives it; the stack's checks cover it."""
        return _replaced(self, gamma=self.gamma[n], objective=float(self.objective[n]),
                         converged=bool(self.converged[n]), iterations=int(self.iterations[n]))


def _check_reg(reg) -> None:
    """The one rule for the ridge strength: finite and nonnegative."""
    if not 0 <= reg < np.inf:
        raise ValueError(f"reg must be {'finite' if reg > 0 else '>= 0'}, got {reg}")


def _one(gamma, features, labels, reg):
    """One problem's weights, (m, k+1) features and m labels as a checked stack of one."""
    _check_reg(reg)
    w, y = spectral._fit_input(np.asarray(features)[None], np.ravel(labels)[None])
    g = np.asarray(gamma, dtype=np.float64)
    if w.shape[2] != g.shape[0] or g.ndim != 1:
        raise ValueError(f"features need one column per weight: {w.shape[2]} for {g.shape}")
    return g[None], w, y


def mle_objective(gamma, features, labels, reg: float = DEFAULT_REG) -> float:
    """Penalized log-likelihood of the labeled pairs at a point estimate.

    Each constraint contributes -log(1 + exp(y * gamma.omega)); the ridge
    term -reg*|gamma|^2/2 keeps separable constraint sets from sending the
    maximizer to infinity.  Nonpositive by construction when reg = 0.
    """
    return float(_objective(*_one(gamma, features, labels, reg), reg)[0])


def mle_gradient(gamma, features, labels, reg: float = DEFAULT_REG) -> np.ndarray:
    """Analytic gradient of :func:`mle_objective` in gamma."""
    return _derivatives(*_one(gamma, features, labels, reg), reg)[0][0]


def _dot(a, b):
    """Dot products over the last axis: (..., d) and (..., d) give (...)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _objective(g, w, y, reg):
    margins = y * kernels.mat_vec(w, g)
    return -np.sum(np.logaddexp(0.0, margins), axis=-1) - 0.5 * reg * _dot(g, g)


def _derivatives(g, w, y, reg):
    """Gradient of the objective and the curvature weights of its negative Hessian.

    Both come from one pass over the margins: with s = sigma(margins) the
    curvature weights c are s (1 - s), as y^2 = 1.  The negative Hessian is then
    W^T diag(c) W + reg*I, positive semidefinite and definite when
    reg > 0, formed only when a Newton step needs it.
    """
    s = kernels.expit(y * kernels.mat_vec(w, g))
    grad = kernels.mat_vec(-np.swapaxes(w, -1, -2), y * s) - reg * g
    return grad, s * (1.0 - s)


def _newton_direction(gamma, grad, neg_hess) -> np.ndarray:
    """Ascent direction of one projected Newton iteration for each problem of an (r, k+1) stack.

    Coordinates held at the bound (zero, with the gradient pointing outward)
    take the gradient, which the projection leaves at zero.  The free ones
    take the Newton step on their block of the negative Hessian, or the
    gradient if that block is singular (possible at reg = 0 with fewer
    constraints than weights).  Problems with the same free coordinates
    are factored and solved as one stack; only a stack that does not
    factor has its blocks factored one at a time.
    """
    direction = grad.copy()
    free = (gamma > 0) | (grad > 0)
    todo = np.arange(free.shape[0])
    while todo.size:
        same = (free[todo] == free[todo[0]]).all(axis=-1)
        members, todo = todo[same], todo[~same]
        at = np.flatnonzero(free[members[0]])
        block = neg_hess[members[:, None, None], at[:, None], at]
        try:
            factors = np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            factors = np.stack([_factor(b) for b in block])
        pivots = np.diagonal(factors, axis1=-2, axis2=-1)
        nonsingular = (pivots.min(axis=-1) ** 2
                       > SINGULAR_RTOL * np.diagonal(block, axis1=-2, axis2=-1).max(axis=-1))
        solved = members[nonsingular][:, None], at
        steps = np.linalg.solve(block[nonsingular], grad[solved][..., None])
        direction[solved] = steps[..., 0]
    return direction


def _factor(block):
    """Cholesky factor of one block; zero, so it counts as singular, where it does not factor."""
    try:
        return np.linalg.cholesky(block)
    except np.linalg.LinAlgError:
        return np.zeros_like(block)


def _start_point(w: np.ndarray) -> np.ndarray:
    """All-ones start of each (r, m, k+1) problem, rescaled so its median margin magnitude is 1."""
    r, m, dim = w.shape
    if m == 0:
        return np.zeros((r, dim))
    # the median as np.median gives it, which would import numpy.ma
    margins = np.sort(np.abs(w @ np.ones(dim)), axis=-1)
    scale = margins[:, m // 2] if m % 2 else (margins[:, m // 2 - 1] + margins[:, m // 2]) / 2
    return np.ones((r, dim)) / np.where(scale > 1e-12, scale, 1.0)[:, None]


def _line_search(gamma, value, grad, direction, w, y, reg):
    """Armijo backtracking of each problem along its projection arc
    max(gamma + t*d, 0) from t = 1, all problems halving t together.

    Returns each problem's last trial point and its objective, -inf where
    no step was accepted.
    """
    trial, trial_value = np.empty_like(gamma), np.full(value.shape, -np.inf)
    searching = np.arange(gamma.shape[0])
    step = 1.0
    for _ in range(MAX_HALVINGS + 1):
        g = gamma[searching]
        t = np.maximum(g + step * direction[searching], 0.0)
        t_value = _objective(t, w[searching], y[searching], reg)
        # a clipped Newton step can point against the gradient, so the
        # Armijo term is floored at 0: no step may lower the objective
        gain = ARMIJO_C1 * _dot(grad[searching], t - g)
        accepted = t_value >= value[searching] + np.maximum(gain, 0.0)
        trial[searching] = t
        trial_value[searching[accepted]] = t_value[accepted]
        searching = searching[~accepted]
        if not searching.size:
            break
        step *= BACKTRACK_FACTOR
    return trial, trial_value


def mle_fit(constraints: ConstraintSet, data: DataMatrix, basis: EigenBasis,
            reg: float = DEFAULT_REG, tol: float = DEFAULT_TOL,
            max_iters: int = DEFAULT_MAX_ITERS) -> MleSolution:
    """:func:`fit_many` of one problem, the labeled pairs' feature rows and labels."""
    w = feature_matrix(data, basis, constraints.pairs)
    return fit_many(w[None], constraints.labels[None], reg, tol, max_iters).row(0)


def fit_many(features, labels, reg: float = DEFAULT_REG, tol: float = DEFAULT_TOL,
             max_iters: int = DEFAULT_MAX_ITERS) -> MleSolution:
    """Maximize the penalized likelihood over the nonnegative orthant, one stacked solution.

    ``features`` is an (r, m, k+1) stack of r problems' constraint feature
    rows and ``labels`` the (r, m) stack of their labels.  Projected Newton
    ascent: zero coordinates whose gradient points outward take a
    gradient step, the others a Newton step (the gradient if their
    Hessian block is singular), followed by Armijo backtracking along the
    projection arc max(gamma + t*d, 0) from t = 1.  Starts from the better
    of the scaled all-ones point and the origin, and never accepts a lower
    objective, so the reported objective never falls below the objective
    at zero.  Converged means the projected gradient norm dropped under
    ``tol``, or that an iteration could no longer raise the objective
    while the full step promised a gain below its rounding
    (``STALL_ULPS``), which happens where the curvature is large.  Any
    other stalled or failed line search, or ``max_iters`` iterations,
    return the last iterate with ``converged=False``.  So does, at ``reg=0``, a problem with
    a constraint whose every margin y*(gamma.w) is negative at the last iterate: 2*gamma
    scores strictly higher, so gamma is no maximum but a point on an unbounded ascent.

    The problems advance in lockstep.  Each keeps its own start point,
    stop test, iteration cap and line search and is frozen once it stops,
    so its row of the stack is that of fitting it alone, bit for bit.  The
    result is one :class:`MleSolution` holding the r solutions as a stack,
    whose checks run once, when it is built: an error in any problem, those
    checks included, fails the whole call.
    """
    _check_reg(reg)
    w, y = spectral._fit_input(features, labels, tol, max_iters)
    r, _, dim = w.shape

    starts = np.stack([np.zeros((r, dim)), _start_point(w)])
    values = np.stack([_objective(c, w, y, reg) for c in starts])
    best = np.argmax(values, axis=0)
    gamma, value = starts[best, np.arange(r)], values[best, np.arange(r)]

    iterations = np.zeros(r, dtype=np.int64)
    converged = np.zeros(r, dtype=bool)
    live = np.arange(r)  # the problems still iterating
    while live.size:
        w_l, y_l = (w, y) if live.size == r else (w[live], y[live])
        g_l, v_l = gamma[live], value[live]
        grad, curvature = _derivatives(g_l, w_l, y_l, reg)
        pg = np.where(g_l > 0, grad, np.maximum(grad, 0.0))  # at 0 only inward directions count
        done = np.sqrt(_dot(pg, pg)) < tol
        converged[live[done]] = True
        going = ~done & (iterations[live] < max_iters)
        if not going.all():
            live, w_l, y_l, g_l, v_l, grad, curvature = (
                a[going] for a in (live, w_l, y_l, g_l, v_l, grad, curvature))
        iterations[live] += 1
        direction = _newton_direction(g_l, grad, kernels.weighted_gram(w_l, curvature, reg))
        trial, trial_value = _line_search(g_l, v_l, grad, direction, w_l, y_l, reg)
        stalled = trial_value <= v_l
        g_s = g_l[stalled]
        promised = 0.5 * _dot(grad[stalled], np.maximum(g_s + direction[stalled], 0.0) - g_s)
        converged[live[stalled]] = promised <= STALL_ULPS * np.spacing(np.abs(v_l[stalled]))
        moved = ~stalled
        gamma[live[moved]], value[live[moved]] = trial[moved], trial_value[moved]
        live = live[moved]
    if reg == 0 and w.shape[1]:
        converged &= ~(y * kernels.mat_vec(w, gamma) < 0).all(axis=-1)
    return MleSolution(*map(_freeze, (gamma, value, converged, iterations)))
