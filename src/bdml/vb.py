"""Variational posterior over augmented metric weights.

The likelihood of a labeled pair is a sigmoid of the signed margin
between threshold and squared distance.  Each sigmoid is lower-bounded
by a Gaussian-conjugate form with one variational parameter xi per
constraint, so the posterior over weights stays Gaussian and the two
update steps alternate in closed form, never decreasing the bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .spectral import ConstraintSet, DataMatrix, EigenBasis, feature_matrix

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
    """Gaussian posterior N(mu, sigma) plus the variational state around it.

    ``mu`` is clamped elementwise to be nonnegative, which is what every
    downstream consumer (metric assembly, pair scoring) uses.  ``mu_raw``
    keeps the unclamped linear-solve output, on which the bound guarantees
    actually hold.  ``bound_trajectory`` starts at the initial point and
    records one value per iteration.
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
        mu = np.asarray(self.mu, dtype=np.float64)
        sigma = np.asarray(self.sigma, dtype=np.float64)
        xi = np.asarray(self.xi, dtype=np.float64)
        mu_raw = np.asarray(self.mu_raw, dtype=np.float64)
        dim = mu.shape[0]
        if mu.ndim != 1 or sigma.shape != (dim, dim) or mu_raw.shape != (dim,):
            raise ValueError("inconsistent posterior shapes")
        if np.abs(sigma - sigma.T).max() > 1e-10:
            raise ValueError("sigma is not symmetric within 1e-10")
        if np.linalg.eigvalsh(sigma).min() <= 0:
            raise ValueError("sigma is not positive definite")
        if xi.ndim != 1 or np.any(xi <= 0):
            raise ValueError("all xi must be strictly positive")
        if np.any(mu < 0):
            raise ValueError("mu must be elementwise nonnegative post-clamp")
        for name, value in (("mu", mu), ("sigma", sigma), ("xi", xi), ("mu_raw", mu_raw)):
            a = np.ascontiguousarray(value)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def k(self) -> int:
        return self.mu.shape[0] - 1

    def to_dict(self, prior: PriorConfig | None = None) -> dict:
        doc = {
            "mu": self.mu.tolist(),
            "mu_raw": self.mu_raw.tolist(),
            "sigma": self.sigma.tolist(),
            "xi": self.xi.tolist(),
            "bound": float(self.bound),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "bound_trajectory": [float(b) for b in self.bound_trajectory],
        }
        if prior is not None:
            doc["prior"] = {"gamma0": prior.gamma0, "delta": prior.delta}
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "VariationalPosterior":
        return cls(
            mu=np.array(doc["mu"], dtype=np.float64),
            sigma=np.array(doc["sigma"], dtype=np.float64),
            xi=np.array(doc["xi"], dtype=np.float64),
            bound=float(doc["bound"]),
            iterations=int(doc["iterations"]),
            mu_raw=np.array(doc["mu_raw"], dtype=np.float64),
            bound_trajectory=tuple(doc.get("bound_trajectory", ())),
            converged=bool(doc.get("converged", False)),
        )


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


def _as_constraint_arrays(features, labels, xi=None):
    w = kernels.as_f64(features)
    if w.ndim != 2:
        raise ValueError("features must be a 2-d array, one row per constraint")
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if y.shape[0] != w.shape[0]:
        raise ValueError("features and labels disagree on the constraint count")
    if y.size and not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be +1 or -1")
    if xi is None:
        return w, y
    x = np.asarray(xi, dtype=np.float64).reshape(-1)
    if x.shape[0] != w.shape[0]:
        raise ValueError("xi must have one entry per constraint")
    if np.any(x <= 0):
        raise ValueError("all xi must be strictly positive")
    return w, y, x


def _solve_spd(precision: np.ndarray) -> np.ndarray:
    """Invert an SPD matrix, escalating diagonal jitter before giving up.

    One Cholesky factor L gives the inverse as inv(L)^T inv(L).
    """
    if not np.isfinite(precision).all():
        raise ValueError("precision matrix holds inf or nan")
    dim = precision.shape[0]
    base = 1e-10 * np.trace(precision) / dim
    jitter = 0.0
    for _ in range(4):
        try:
            factor = np.linalg.cholesky(precision + jitter * np.eye(dim))
        except np.linalg.LinAlgError:
            jitter = base if jitter == 0.0 else jitter * 10.0
            continue
        inv_factor = np.linalg.inv(factor)
        cov = inv_factor.T @ inv_factor
        return (cov + cov.T) / 2.0
    raise np.linalg.LinAlgError(
        "precision matrix numerically singular after jitter escalation "
        f"(condition estimate {np.linalg.cond(precision):.3e})"
    )


def e_step(features, labels, xi, prior: PriorConfig, *, clamp: bool = True):
    """Optimal Gaussian (mu, sigma) for fixed variational parameters.

    The precision gathers one rank-one term per constraint regardless of
    its label; labels enter only the linear term.  With ``clamp`` the
    returned mean is projected onto the nonnegative orthant, which is the
    downstream convention; pass ``clamp=False`` inside bound-monotonicity
    loops.
    """
    w, y, x = _as_constraint_arrays(features, labels, xi)
    return _e_step(w, y, lambda_xi(x), prior, clamp)


def _e_step(w, y, lam, prior: PriorConfig, clamp: bool):
    """:func:`e_step` on checked arrays, given ``lam = lambda_xi(xi)``."""
    dim = w.shape[1]
    precision = prior.delta * np.eye(dim)
    if w.shape[0]:
        precision += kernels.weighted_outer_sum(w, 2.0 * lam)
    sigma = _solve_spd(precision)
    linear = np.full(dim, prior.delta * prior.gamma0)
    if w.shape[0]:
        linear -= w.T @ (y / 2.0)
    mu = sigma @ linear
    if clamp:
        mu = np.maximum(mu, 0.0)
    return mu, sigma


def m_step(features, mu, sigma) -> np.ndarray:
    """Per-constraint optimum xi = sqrt((mu.w)^2 + w.Sigma.w)."""
    w = kernels.as_f64(features)
    mu = np.asarray(mu, dtype=np.float64)
    sigma = kernels.as_f64(sigma)
    mean_part = w @ mu
    quad = np.maximum(kernels.row_quad_forms(w, sigma), 0.0)
    return np.sqrt(mean_part * mean_part + quad)


def elbo(features, labels, mu, sigma, xi, prior: PriorConfig) -> float:
    """Evidence lower bound at the given variational state.

    Gaussian part is the negative KL divergence from the prior; each
    constraint adds its expected sigmoid bound.  Zero constraints at the
    prior give exactly 0.
    """
    w, y, x = _as_constraint_arrays(features, labels, xi)
    mu = np.asarray(mu, dtype=np.float64)
    return _elbo(w, y, mu, kernels.as_f64(sigma), x, lambda_xi(x), prior)


def _elbo(w, y, mu, sigma, x, lam, prior: PriorConfig) -> float:
    """:func:`elbo` on checked arrays, given ``lam = lambda_xi(x)``."""
    dim = mu.shape[0]
    sign, logdet = np.linalg.slogdet(sigma)
    if sign <= 0:
        raise ValueError("sigma is not positive definite")
    resid = mu - prior.gamma0
    kl = 0.5 * (
        prior.delta * (np.trace(sigma) + resid @ resid)
        - dim
        - dim * np.log(prior.delta)
        - logdet
    )
    total = -kl
    if w.shape[0]:
        zm = w @ mu
        quad = kernels.row_quad_forms(w, sigma)
        total += np.sum(
            kernels.log_expit(x) - (y * zm + x) / 2.0 - lam * (quad + zm * zm - x * x)
        )
    return float(total)


def fit(
    constraints: ConstraintSet,
    data: DataMatrix,
    basis: EigenBasis,
    prior: PriorConfig | None = None,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    *,
    xi0: float = 1.0,
) -> VariationalPosterior:
    """Alternate the two closed-form updates until the bound settles.

    Iterations run on the unclamped mean so each one is a coordinate
    ascent step on the bound; the clamp is applied once, to the final
    mean.  Convergence is a relative bound change below ``tol``, with the
    denominator floored at 1 so a bound near zero cannot stall the test.
    """
    if prior is None:
        prior = PriorConfig()
    if tol <= 0 or max_iters < 1:
        raise ValueError("tol must be positive and max_iters at least 1")
    w, y, xi = _as_constraint_arrays(
        feature_matrix(data, basis, constraints.pairs),
        constraints.labels,
        np.full(len(constraints), float(xi0)),
    )

    dim = basis.k + 1
    mu = np.full(dim, float(prior.gamma0))
    sigma = np.eye(dim) / prior.delta
    lam = lambda_xi(xi)  # shared by each bound and the next E-step
    bound = _elbo(w, y, mu, sigma, xi, lam, prior)
    trajectory = [bound]
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        mu, sigma = _e_step(w, y, lam, prior, clamp=False)
        if len(constraints):
            xi = m_step(w, mu, sigma)
            if np.any(xi <= 0):
                raise ValueError("all xi must be strictly positive")
            lam = lambda_xi(xi)
        previous, bound = bound, _elbo(w, y, mu, sigma, xi, lam, prior)
        trajectory.append(bound)
        if abs(bound - previous) < tol * max(1.0, abs(previous)):
            converged = True
            break
    return VariationalPosterior(
        mu=np.maximum(mu, 0.0),
        sigma=sigma,
        xi=xi,
        bound=bound,
        iterations=iterations,
        mu_raw=mu,
        bound_trajectory=tuple(trajectory),
        converged=converged,
    )
