"""Variational posterior over augmented metric weights.

The likelihood of a labeled pair is a sigmoid of the signed margin
between threshold and squared distance.  Each sigmoid is lower-bounded
by a Gaussian-conjugate form with one variational parameter xi per
constraint, so the posterior over weights stays Gaussian and the two
update steps alternate in closed form, never decreasing the bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels, spectral
from .spectral import ConstraintSet, DataMatrix, EigenBasis, _freeze, _replaced, feature_matrix

LAMBDA_SERIES_CUTOFF = 1e-4
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITERS = 200


@dataclass(frozen=True)
class PriorConfig:
    """Isotropic Gaussian prior: mean gamma0 per component, precision delta."""

    gamma0: float = 1.0
    delta: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.gamma0) or self.gamma0 < 0:
            raise ValueError(f"gamma0 must be finite and >= 0, got {self.gamma0}")
        if not np.isfinite(self.delta) or self.delta <= 0:
            raise ValueError(f"delta must be finite and > 0, got {self.delta}")


@dataclass(frozen=True)
class VariationalPosterior:
    """Gaussian posterior N(mu, sigma) plus the variational state around it,
    of one problem or of a stack of them along a leading axis.

    ``mu`` is clamped elementwise to be nonnegative, which is what every
    downstream consumer (metric assembly, pair scoring) uses.  ``mu_raw``
    keeps the unclamped linear-solve output, on which the bound guarantees
    actually hold.  ``bound_trajectory`` starts at the initial point and
    records one value per iteration; a stack's is (r, t+1), row n's ending at
    ``iterations[n]``, and its ``bound``, ``iterations`` and ``converged`` are (r,).
    The four arrays are read-only; a C-contiguous float64 one passed in is frozen
    in place, not copied, so the caller's own array becomes read-only too.
    """

    mu: np.ndarray
    sigma: np.ndarray
    xi: np.ndarray
    bound: float
    iterations: int
    mu_raw: np.ndarray
    bound_trajectory: tuple = ()
    converged: bool = False

    def __post_init__(self):
        names = ("mu", "sigma", "xi", "mu_raw")
        mu, sigma, xi, mu_raw = (np.asarray(getattr(self, n), dtype=np.float64) for n in names)
        if (not mu.ndim or xi.ndim != mu.ndim or xi.shape[:-1] != mu.shape[:-1]
                or sigma.shape != mu.shape + mu.shape[-1:] or mu_raw.shape != mu.shape):
            raise ValueError("inconsistent posterior shapes")
        if (np.abs(sigma - np.swapaxes(sigma, -1, -2)) > 1e-10).any():
            raise ValueError("sigma is not symmetric within 1e-10")
        if (np.linalg.eigvalsh(sigma).min(axis=-1) <= 0).any():
            raise ValueError("sigma is not positive definite")
        if (xi <= 0).any():
            raise ValueError("all xi must be strictly positive")
        if (mu < 0).any():
            raise ValueError("mu must be elementwise nonnegative post-clamp")
        for name, value in zip(names, (mu, sigma, xi, mu_raw)):
            object.__setattr__(self, name, _freeze(value))

    @property
    def weights(self) -> np.ndarray:
        return self.mu

    def row(self, n: int) -> VariationalPosterior:
        """Problem ``n`` of a stack, as :func:`fit` gives it; the stack's checks cover it."""
        its = int(self.iterations[n])
        return _replaced(self, mu=self.mu[n], sigma=self.sigma[n], xi=self.xi[n],
                         bound=float(self.bound[n]), iterations=its, mu_raw=self.mu_raw[n],
                         bound_trajectory=tuple(self.bound_trajectory[n, : its + 1].tolist()),
                         converged=bool(self.converged[n]))


def lambda_xi(xi):
    """tanh(xi/2)/(4 xi), extended through 0 by its series.

    Even and continuous; near the origin the direct quotient is 0/0, so
    below ``LAMBDA_SERIES_CUTOFF`` the expansion 1/8 - xi^2/96 is used.
    Accepts scalars or arrays.
    """
    arr = np.asarray(xi, dtype=np.float64)
    small = np.abs(arr) < LAMBDA_SERIES_CUTOFF
    safe = np.where(small, 1.0, arr)
    out = np.where(small, 0.125 - arr * arr / 96.0, np.tanh(safe / 2.0) / (4.0 * safe))
    if out.ndim == 0:
        return float(out)
    return out


def jj_bound(z, xi):
    """Variational lower bound on the sigmoid: tight exactly at z = +-xi."""
    z = np.asarray(z, dtype=np.float64)
    xi = np.asarray(xi, dtype=np.float64)
    out = np.exp(kernels.log_expit(xi) + (z - xi) / 2.0 - lambda_xi(xi) * (z * z - xi * xi))
    if out.ndim == 0:
        return float(out)
    return out


def _checked(features, labels, xi, tol=None, max_iters=None):
    """Features, labels and xi of a stack of problems as float64 arrays, once they pass
    :func:`spectral._fit_input` (a fit's ``tol`` and ``max_iters`` too) and xi its own checks."""
    w, y = spectral._fit_input(features, labels, tol, max_iters)
    x = np.asarray(xi, np.float64)
    if x.shape != y.shape:
        raise ValueError("xi must have one entry per constraint")
    if not (np.isfinite(x) & (x > 0)).all():
        raise ValueError("all xi must be finite and strictly positive")
    return w, y, x


def _solve_spd(precision: np.ndarray) -> np.ndarray:
    """Invert SPD matrices, one (d, d) or a stack (r, d, d), from one Cholesky factor each.

    A factor L gives the inverse as inv(L)^T inv(L).  If the stack does not
    factor, each matrix is factored on its own with escalating diagonal
    jitter before giving up.
    """
    if not np.isfinite(precision).all():
        raise ValueError("precision matrix holds inf or nan")
    try:
        factor = np.linalg.cholesky(precision)
    except np.linalg.LinAlgError:
        dim = precision.shape[-1]
        singles = [_jittered_factor(p) for p in precision.reshape(-1, dim, dim)]
        factor = np.stack(singles).reshape(precision.shape)
    inv_factor = np.linalg.inv(factor)
    cov = np.swapaxes(inv_factor, -1, -2) @ inv_factor
    return (cov + np.swapaxes(cov, -1, -2)) / 2.0


def _jittered_factor(precision: np.ndarray) -> np.ndarray:
    """Cholesky factor of one SPD matrix, adding diagonal jitter where it fails."""
    dim = precision.shape[0]
    base = 1e-10 * np.trace(precision) / dim
    jitter = 0.0
    for _ in range(4):
        try:
            return np.linalg.cholesky(precision + jitter * np.eye(dim))
        except np.linalg.LinAlgError:
            jitter = base if jitter == 0.0 else jitter * 10.0
    raise np.linalg.LinAlgError(
        "precision matrix numerically singular after jitter escalation "
        f"(condition estimate {np.linalg.cond(precision):.3e})"
    )


def _row_quad_forms(w, mat):
    """w_i . mat . w_i for each row of one problem or each of a stack: (..., m, d) and
    (..., d, d) give (..., m)."""
    return np.einsum("...ij,...ij->...i", w @ mat, w)


def e_step(features, labels, xi, prior: PriorConfig, *, clamp: bool = True):
    """Optimal Gaussian (mu, sigma) for fixed variational parameters.

    The precision gathers one rank-one term per constraint regardless of
    its label; labels enter only the linear term.  With ``clamp`` the
    returned mean is projected onto the nonnegative orthant, which is the
    downstream convention; pass ``clamp=False`` inside bound-monotonicity
    loops.
    """
    w, y, x = _checked(np.asarray(features)[None], np.ravel(labels)[None], np.ravel(xi)[None])
    [mu], [sigma] = _e_step(w, y, lambda_xi(x), prior)
    return (np.maximum(mu, 0.0) if clamp else mu), sigma


def _e_step(w, y, lam, prior: PriorConfig):
    """:func:`e_step` on a stack of checked problems, unclamped, given ``lam = lambda_xi(xi)``.

    ``w`` is (r, m, d), ``y`` and ``lam`` are (r, m); returns (r, d) means
    and (r, d, d) covariances.
    """
    precision = kernels.weighted_gram(w, 2.0 * lam, prior.delta)
    linear = prior.delta * prior.gamma0 - kernels.mat_vec(np.swapaxes(w, -1, -2), y / 2.0)
    sigma = _solve_spd(precision)
    return kernels.mat_vec(sigma, linear), sigma


def m_step(features, mu, sigma) -> np.ndarray:
    """Per-constraint optimum xi = sqrt((mu.w)^2 + w.Sigma.w).

    Takes one problem, (m, d) features with a (d,) mean and a (d, d)
    covariance, or a stack of them along a leading axis.
    """
    w = kernels.as_f64(features)
    mu = np.asarray(mu, dtype=np.float64)
    sigma = kernels.as_f64(sigma)
    mean_part = kernels.mat_vec(w, mu)
    quad = np.maximum(_row_quad_forms(w, sigma), 0.0)
    return np.sqrt(mean_part * mean_part + quad)


def elbo(features, labels, mu, sigma, xi, prior: PriorConfig) -> float:
    """Evidence lower bound at the given variational state.

    Gaussian part is the negative KL divergence from the prior; each
    constraint adds its expected sigmoid bound.  Zero constraints at the
    prior give exactly 0.
    """
    w, y, x = _checked(np.asarray(features)[None], np.ravel(labels)[None], np.ravel(xi)[None])
    mu, sigma = np.asarray(mu, dtype=np.float64)[None], kernels.as_f64(sigma)[None]
    return float(_elbo(w, y, mu, sigma, x, lambda_xi(x), prior)[0])


def _elbo(w, y, mu, sigma, x, lam, prior: PriorConfig) -> np.ndarray:
    """:func:`elbo` on a stack of checked problems, one bound each.

    ``lam`` is ``lambda_xi(x)``.
    """
    dim = mu.shape[-1]
    sign, logdet = np.linalg.slogdet(sigma)
    if np.any(sign <= 0):
        raise ValueError("sigma is not positive definite")
    resid = mu - prior.gamma0
    kl = 0.5 * (
        prior.delta * (np.trace(sigma, axis1=-2, axis2=-1)
                       + (resid[:, None, :] @ resid[:, :, None])[:, 0, 0])
        - dim
        - dim * np.log(prior.delta)
        - logdet
    )
    zm = kernels.mat_vec(w, mu)
    quad = _row_quad_forms(w, sigma)
    return np.sum(
        kernels.log_expit(x) - (y * zm + x) / 2.0 - lam * (quad + zm * zm - x * x),
        axis=-1,
    ) - kl


def fit(constraints: ConstraintSet, data: DataMatrix, basis: EigenBasis,
        prior: PriorConfig | None = None, tol: float = DEFAULT_TOL,
        max_iters: int = DEFAULT_MAX_ITERS, *, xi0: float = 1.0) -> VariationalPosterior:
    """Alternate the two closed-form updates until the bound settles.

    Iterations run on the unclamped mean so each one is a coordinate
    ascent step on the bound; the clamp is applied once, to the final
    mean.  Convergence is a relative bound change below ``tol``, with the
    denominator floored at 1 so a bound near zero cannot stall the test.
    This is :func:`fit_many` of one problem, the pairs' feature rows.
    """
    w = feature_matrix(data, basis, constraints.pairs)
    return fit_many(w[None], constraints.labels[None], prior, tol, max_iters, xi0=xi0).row(0)


def fit_many(features, labels, prior: PriorConfig | None = None, tol: float = DEFAULT_TOL,
             max_iters: int = DEFAULT_MAX_ITERS, *, xi0: float = 1.0) -> VariationalPosterior:
    """:func:`fit` of independent problems as one stacked solve, one stacked posterior.

    ``features`` is an (r, m, k+1) stack of r problems' constraint feature
    rows and ``labels`` the (r, m) stack of their ±1 labels.  Each problem
    keeps its own stop test and is frozen once it passes, so its row of
    the stack, iteration count and bound trajectory are those of fitting
    it alone, bit for bit.  The result is one :class:`VariationalPosterior`
    holding the r posteriors as a stack, whose checks run once, when it is
    built: an error in any problem, those checks included, fails the whole call.
    """
    if prior is None:
        prior = PriorConfig()
    w, y, xi = _checked(features, labels, np.full(np.shape(labels), float(xi0)), tol, max_iters)
    r, _, dim = w.shape

    mu = np.full((r, dim), float(prior.gamma0))
    sigma = np.broadcast_to(np.eye(dim) / prior.delta, (r, dim, dim)).copy()
    lam = lambda_xi(xi)  # shared by each bound and the next E-step
    bound = _elbo(w, y, mu, sigma, xi, lam, prior)
    history = [bound.copy()]  # the bounds after each iteration; a frozen problem's stay put
    iterations = np.zeros(r, dtype=np.int64)
    converged = np.zeros(r, dtype=bool)
    live = np.arange(r)  # the problems still iterating
    for it in range(1, max_iters + 1):
        w_l, y_l = (w, y) if live.size == r else (w[live], y[live])
        mu_l, sigma_l = _e_step(w_l, y_l, lam[live], prior)
        xi_l = m_step(w_l, mu_l, sigma_l)
        if np.any(xi_l <= 0):
            raise ValueError("all xi must be strictly positive")
        xi[live] = xi_l
        lam[live] = lambda_xi(xi_l)
        previous = bound[live]
        bound_l = _elbo(w_l, y_l, mu_l, sigma_l, xi[live], lam[live], prior)
        mu[live], sigma[live], bound[live], iterations[live] = mu_l, sigma_l, bound_l, it
        history.append(bound.copy())
        done = np.abs(bound_l - previous) < tol * np.maximum(1.0, np.abs(previous))
        converged[live[done]] = True
        live = live[~done]
        if not live.size:
            break
    arrays = (np.maximum(mu, 0.0), sigma, xi, bound, iterations, mu, np.stack(history, axis=1),
              converged)
    return VariationalPosterior(*map(_freeze, arrays))
