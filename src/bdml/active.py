"""Scoring and selection of unlabeled pairs.

Three posterior notions feed the same entropy criterion: a plug-in
sigmoid at a point estimate, the same thing at the posterior mean, and a
Laplacian approximation that integrates the pair likelihood against the
Gaussian posterior around a pair of clamped modes.  Random selection is
the control.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .kernels import expit, log_expit, xlogx
from .spectral import (
    ConstraintSet, DataMatrix, EigenBasis, PairFeature, _as_rows, _canonical,
    _repeated_rows, feature_matrix,
)
from .vb import VariationalPosterior

STRATEGIES = ("RANDOM", "MLE_ACT", "BAYES_ACT", "BAYES_VAR")
MAX_ENTROPY = float(np.log(2.0))


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One structured (i, j) key per row, ordered like the rows' tuples."""
    return np.ascontiguousarray(rows).view([("i", np.int64), ("j", np.int64)]).ravel()


@dataclass(frozen=True)
class PairPool:
    """Candidate pairs plus the subset already labeled by the oracle.

    ``candidates`` is a read-only int64 (m, 2) array in canonical order:
    each pair as (low, high), the rows sorted lexicographically.
    ``labeled`` is given as (i, j, y) triples or a :class:`ConstraintSet`,
    whose pairs must be candidates, and held as a ConstraintSet in the
    same order.  ``candidates`` may also be given as another pool, whose
    candidates are reused without checking them again.
    """

    candidates: np.ndarray
    labeled: ConstraintSet = ()
    _open: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.candidates, PairPool):
            pairs = self.candidates.candidates
        else:
            pairs = _checked_candidates(self.candidates)

        lab = self.labeled
        lab = _as_rows(lab.items if isinstance(lab, ConstraintSet) else lab, 3, "labeled")
        order, lab_pairs = _canonical(lab)
        keys, lab_keys = _row_keys(pairs), _row_keys(lab_pairs)
        pos = np.searchsorted(keys, lab_keys)
        found = pos < keys.size
        found[found] = keys[pos[found]] == lab_keys[found]
        if not found.all():
            pair = tuple(lab_pairs[np.flatnonzero(~found)[0]].tolist())
            raise ValueError(f"labeled pair {pair} is not a candidate")
        labeled = ConstraintSet(np.column_stack((lab_pairs, lab[order, 2])))

        is_open = np.ones(pairs.shape[0], dtype=bool)
        is_open[pos] = False
        is_open.setflags(write=False)
        object.__setattr__(self, "candidates", pairs)
        object.__setattr__(self, "labeled", labeled)
        object.__setattr__(self, "_open", is_open)

    @property
    def unlabeled(self) -> np.ndarray:
        """The unlabeled pairs as an int64 (u, 2) array, canonical order."""
        return self.candidates[self._open]

    def with_labels(self, triples) -> "PairPool":
        new = _as_rows(list(triples), 3, "labeled")
        return PairPool(self, np.concatenate((self.labeled.items, new)))


def _checked_candidates(candidates) -> np.ndarray:
    """Candidate pairs as a canonical int64 (m, 2) array; rejects bad pairs."""
    raw = _as_rows(candidates, 2, "candidates")
    self_pairs = np.flatnonzero(raw[:, 0] == raw[:, 1])
    if self_pairs.size:
        i = int(raw[self_pairs[0], 0])
        raise ValueError(f"self-pair ({i}, {i}) cannot be a candidate")
    negative = np.flatnonzero(np.any(raw < 0, axis=1))
    if negative.size:
        pair = tuple(raw[negative[0]].tolist())
        raise ValueError(f"negative index in pair {pair}")
    _, pairs = _canonical(raw)
    dup = _repeated_rows(pairs)
    if dup.size:
        pair = tuple(pairs[dup[0]].tolist())
        raise ValueError(f"duplicate candidate pair {pair}")
    pairs.setflags(write=False)
    return pairs


@dataclass(frozen=True)
class PairScore:
    pair: tuple
    p_plus: float
    entropy: float
    strategy: str

    def __post_init__(self):
        i, j = self.pair
        object.__setattr__(self, "pair", (int(i), int(j)))
        if not 0.0 <= self.p_plus <= 1.0:
            raise ValueError(f"p_plus must lie in [0, 1], got {self.p_plus}")
        if not -1e-12 <= self.entropy <= MAX_ENTROPY + 1e-12:
            raise ValueError(f"entropy must lie in [0, log 2], got {self.entropy}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy tag {self.strategy!r}")


def entropy(p_plus):
    """Binary entropy in nats, with 0 log 0 = 0.  Scalar or array."""
    p = np.asarray(p_plus, dtype=np.float64)
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("probabilities must lie in [0, 1]")
    h = -xlogx(p) - xlogx(1.0 - p)
    if h.ndim == 0:
        return float(h)
    return h


def _omega_vector(omega) -> np.ndarray:
    if isinstance(omega, PairFeature):
        return omega.omega
    return np.asarray(omega, dtype=np.float64)


def plugin_posterior(gamma, omega) -> float:
    """Similarity probability at a point estimate: sigma(-gamma.omega)."""
    w = _omega_vector(omega)
    g = np.asarray(gamma, dtype=np.float64)
    return float(expit(-(g @ w)))


def laplace_gamma(mu, sigma, omega, sign: int) -> np.ndarray:
    """Approximate mode of the gamma integrand for one pair outcome.

    ``sign`` +1 targets the similar outcome, -1 the dissimilar one; the
    mode is the mean nudged against the outcome's slope and clamped to
    the nonnegative orthant.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    w = _omega_vector(omega)
    mu = np.asarray(mu, dtype=np.float64)
    sigma = kernels.as_f64(sigma)
    p = expit(sign * float(mu @ w))
    return np.maximum(mu - sign * p * (sigma @ w), 0.0)


def laplace_posterior(mu, sigma, omega) -> float:
    """Similarity probability integrating the Gaussian posterior.

    Each outcome gets an unnormalized mass: its sigmoid at the clamped
    mode times a Gaussian volume factor driven by the pair's projected
    variance.  Masses are combined in log space, so the normalized
    result is exact and overflow-safe for margins in the hundreds.
    """
    w = _omega_vector(omega)
    mu = np.asarray(mu, dtype=np.float64)
    sigma = kernels.as_f64(sigma)
    quad = float(w @ (sigma @ w))
    z = float(mu @ w)
    p_plus_mode = expit(z)
    p_minus_mode = expit(-z)
    g_plus = laplace_gamma(mu, sigma, w, 1)
    g_minus = laplace_gamma(mu, sigma, w, -1)
    log_mass_plus = log_expit(-(g_plus @ w)) - 0.5 * p_plus_mode**2 * quad
    log_mass_minus = log_expit(g_minus @ w) - 0.5 * p_minus_mode**2 * quad
    if np.isneginf(log_mass_plus) and np.isneginf(log_mass_minus):
        raise ValueError(
            f"both outcome masses underflow to zero (omega.Sigma.omega = {quad:.6e})"
        )
    return float(expit(log_mass_plus - log_mass_minus))


def laplace_posterior_batch(mu, sigma, features) -> np.ndarray:
    """:func:`laplace_posterior` for every row of a feature matrix at once.

    Each term of the scalar form is a row-wise closed form: the projected
    variance omega.Sigma.omega, the two clamped modes and the two log
    masses.  Agrees with the scalar function to rounding.
    """
    w = kernels.as_f64(features)
    mu = np.asarray(mu, dtype=np.float64)
    sigma = kernels.as_f64(sigma)
    sw = w @ sigma
    quad = np.einsum("ij,ij->i", sw, w)
    z = w @ mu
    p_plus_mode = expit(z)
    p_minus_mode = expit(-z)
    g_plus = np.maximum(mu - p_plus_mode[:, None] * sw, 0.0)
    g_minus = np.maximum(mu + p_minus_mode[:, None] * sw, 0.0)
    log_mass_plus = (log_expit(-np.einsum("ij,ij->i", g_plus, w))
                     - 0.5 * p_plus_mode**2 * quad)
    log_mass_minus = (log_expit(np.einsum("ij,ij->i", g_minus, w))
                      - 0.5 * p_minus_mode**2 * quad)
    lost = np.flatnonzero(np.isneginf(log_mass_plus) & np.isneginf(log_mass_minus))
    if lost.size:
        r = lost[0]
        raise ValueError(
            f"both outcome masses underflow to zero in row {r} "
            f"(omega.Sigma.omega = {quad[r]:.6e})"
        )
    return expit(log_mass_plus - log_mass_minus)


@dataclass(frozen=True)
class Scorer:
    """A strategy tag bundled with whatever model state it needs.

    RANDOM carries nothing.  The plug-in strategies carry a point weight
    vector (the MLE solution or the posterior mean); BAYES_VAR also
    carries the posterior covariance.
    """

    strategy: str
    data: DataMatrix | None = None
    basis: EigenBasis | None = None
    gamma: np.ndarray | None = None
    sigma: np.ndarray | None = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy tag {self.strategy!r}")
        if self.strategy == "RANDOM":
            return
        if self.data is None or self.basis is None or self.gamma is None:
            raise ValueError(f"{self.strategy} needs data, basis and weights")
        g = np.asarray(self.gamma, dtype=np.float64)
        if g.shape != (self.basis.k + 1,):
            raise ValueError(
                f"weights must have length {self.basis.k + 1}, got {g.shape}"
            )
        object.__setattr__(self, "gamma", g)
        if self.strategy == "BAYES_VAR":
            if self.sigma is None:
                raise ValueError("BAYES_VAR needs the posterior covariance")
            s = kernels.as_f64(self.sigma)
            if s.shape != (g.shape[0], g.shape[0]):
                raise ValueError("covariance shape does not match the weights")
            object.__setattr__(self, "sigma", s)

    @classmethod
    def random(cls) -> "Scorer":
        return cls(strategy="RANDOM")

    @classmethod
    def mle_act(cls, data, basis, gamma) -> "Scorer":
        return cls(strategy="MLE_ACT", data=data, basis=basis, gamma=gamma)

    @classmethod
    def bayes_act(cls, data, basis, post: VariationalPosterior) -> "Scorer":
        return cls(strategy="BAYES_ACT", data=data, basis=basis, gamma=post.mu)

    @classmethod
    def bayes_var(cls, data, basis, post: VariationalPosterior) -> "Scorer":
        return cls(
            strategy="BAYES_VAR",
            data=data,
            basis=basis,
            gamma=post.mu,
            sigma=post.sigma,
        )


def _score_arrays(scorer: Scorer, pairs: np.ndarray):
    """``(p_plus, entropy)`` arrays for an int64 (m, 2) array of pairs."""
    m = pairs.shape[0]
    if scorer.strategy == "RANDOM":
        return np.full(m, 0.5), np.full(m, MAX_ENTROPY)
    w = feature_matrix(scorer.data, scorer.basis, pairs)
    if scorer.strategy == "BAYES_VAR":
        p_plus = laplace_posterior_batch(scorer.gamma, scorer.sigma, w)
    else:
        p_plus = expit(-(w @ scorer.gamma))
    ok = (p_plus >= 0.0) & (p_plus <= 1.0)
    if not ok.all():
        raise ValueError(f"p_plus must lie in [0, 1], got {p_plus[~ok][0]}")
    h = entropy(p_plus)
    ok = (h >= -1e-12) & (h <= MAX_ENTROPY + 1e-12)
    if not ok.all():
        raise ValueError(f"entropy must lie in [0, log 2], got {h[~ok][0]}")
    return p_plus, h


def score_pairs(scorer: Scorer, pairs) -> list:
    """One PairScore per pair, in the order given.

    RANDOM expresses no preference and scores every pair at maximum
    entropy; the entropy strategies evaluate their posterior per pair.
    """
    pairs = [(int(i), int(j)) for i, j in pairs]
    p_plus, h = _score_arrays(scorer, _as_rows(pairs, 2, "pairs"))
    return [
        PairScore(pair=p, p_plus=pr, entropy=hr, strategy=scorer.strategy)
        for p, pr, hr in zip(pairs, p_plus.tolist(), h.tolist())
    ]


def rank_pairs(scorer: Scorer, pairs):
    """Score pairs and order them most uncertain first.

    ``pairs`` is an (m, 2) array or a sequence of (i, j).  Returns the
    pairs as an int64 (m, 2) array with their ``p_plus`` and entropy,
    ordered by descending entropy, ties to the lowest (i, j).
    """
    pairs = _as_rows(pairs, 2, "pairs")
    p_plus, h = _score_arrays(scorer, pairs)
    order = np.lexsort((pairs[:, 1], pairs[:, 0], -h))
    return pairs[order], p_plus[order], h[order]


def select(pool: PairPool, scorer: Scorer, batch: int, rng_seed) -> np.ndarray:
    """Pick ``batch`` unlabeled pairs for the oracle, an int64 (batch, 2) array.

    Entropy strategies take the top of the pool, ties to the lowest
    (i, j); RANDOM draws uniformly without replacement, depending only
    on the seed and the canonical order of the unlabeled pairs.
    """
    unlabeled = pool.unlabeled
    if not unlabeled.shape[0]:
        raise ValueError("no unlabeled pairs left to select from")
    if not 1 <= batch <= unlabeled.shape[0]:
        raise ValueError(
            f"batch must lie in [1, {unlabeled.shape[0]}], got {batch}"
        )
    if scorer.strategy == "RANDOM":
        rng = np.random.default_rng(rng_seed)
        return unlabeled[rng.choice(unlabeled.shape[0], size=batch, replace=False)]
    return rank_pairs(scorer, unlabeled)[0][:batch]
