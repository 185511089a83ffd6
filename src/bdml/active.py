"""Scoring and selection of unlabeled pairs.

Three posterior notions feed the same entropy criterion: a plug-in
sigmoid at a point estimate, the same thing at the posterior mean, and a
Laplacian approximation that integrates the pair likelihood against the
Gaussian posterior around a pair of clamped modes.  Random selection is
the control.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import kernels
from .config import STRATEGIES
from .kernels import expit, log_expit, xlogx
from .spectral import (
    ConstraintSet, DataMatrix, EigenBasis, PairFeature, _as_rows, _canonical, _checked_pairs,
    _freeze, feature_matrix,
)
from .vb import VariationalPosterior

MAX_ENTROPY = float(np.log(2.0))


@dataclass(frozen=True, init=False, eq=False)
class PairPool:
    """Candidate pairs plus one oracle label per candidate.

    ``candidates`` is a read-only int64 (m, 2) array in canonical order:
    each pair as (low, high), the rows sorted lexicographically.
    ``labels`` is a read-only int8 (m,) array, 0 for an open candidate
    and the oracle's +1 or -1 for a labeled one.  ``labeled`` may be
    given as (i, j, y) triples or a :class:`ConstraintSet` whose pairs
    are candidates.  Bad candidates are reported as bad constraints are.
    """

    candidates: np.ndarray
    labels: np.ndarray

    def __init__(self, candidates, labeled=()):
        pairs = _checked_pairs(_as_rows(candidates, 2, "candidates"), "cannot be a candidate",
                               "duplicate candidate pair {}")
        object.__setattr__(self, "candidates", _freeze(pairs))
        object.__setattr__(self, "labels", _freeze(np.zeros(len(self.candidates), np.int8)))
        lab = labeled.items if isinstance(labeled, ConstraintSet) else labeled
        object.__setattr__(self, "labels", self.with_labels(lab).labels)

    @property
    def labeled(self) -> ConstraintSet:
        """The labeled candidates and their labels, in candidate order."""
        at = self.labels != 0
        return ConstraintSet(np.column_stack((self.candidates[at], self.labels[at])))

    @property
    def unlabeled(self) -> np.ndarray:
        """The unlabeled pairs as an int64 (u, 2) array, canonical order."""
        return self.candidates[self.labels == 0]

    def with_labels(self, triples) -> "PairPool":
        """A new pool with the (i, j, y) ``triples`` labeled; the one place
        pairs are matched to candidates."""
        rows = _as_rows(list(triples), 3, "labeled")
        order, pairs = _canonical(rows)
        rec = [("i", np.int64), ("j", np.int64)]  # orders like the rows' tuples
        keys, wanted = (np.ascontiguousarray(a).view(rec).ravel()
                        for a in (self.candidates, pairs))
        pos = np.searchsorted(keys, wanted)
        found = pos < keys.size
        found[found] = keys[pos[found]] == wanted[found]
        if not found.all():
            pair = tuple(pairs[np.flatnonzero(~found)[0]].tolist())
            raise ValueError(f"labeled pair {pair} is not a candidate")
        return self.with_labels_at(pos, rows[order, 2])

    def with_labels_at(self, positions, labels) -> "PairPool":
        """A new pool with the open candidates at ``positions`` labeled ``labels`` (±1)."""
        pos, y = np.asarray(positions, dtype=np.int64).ravel(), np.asarray(labels).ravel()
        labels = self.labels.copy()
        label_many(labels[None], pos[None], y[None], self.candidates)
        pool = copy.copy(self)  # shares the read-only candidates
        object.__setattr__(pool, "labels", _freeze(labels))
        return pool


def label_many(labels, positions, y, candidates) -> None:
    """:meth:`PairPool.with_labels_at` for each row of a stack, in place.

    ``labels`` is an int8 (r, m) stack of label vectors over the same
    ``candidates``; row n takes the ±1 labels ``y[n]`` at its open
    candidates ``positions[n]``, both (r, b).  Nothing is written unless
    every row passes: as many positions as labels, positions within the
    candidates, then, for the first faulty entry in row order, a label
    of +1 or -1 and a position neither labeled already nor repeated.
    """
    if positions.shape != y.shape:
        raise ValueError(f"{positions.size} positions but {y.size} labels")
    m = labels.shape[-1]
    outside = positions[(positions < 0) | (positions >= m)]
    if outside.size:
        raise ValueError(f"position {outside[0]} is not a candidate of {m}")
    order = np.argsort(positions, axis=-1, kind="stable")  # a repeat sorts after its first
    repeat = np.zeros(positions.shape, dtype=bool)
    np.put_along_axis(repeat, order[:, 1:],
                      np.diff(np.take_along_axis(positions, order, -1)) == 0, -1)
    rows = np.arange(labels.shape[0])[:, None]
    faults = np.stack(((y != 1) & (y != -1), repeat | (labels[rows, positions] != 0)), -1)
    if faults.any():
        n, c = np.argwhere(faults.any(axis=-1))[0]
        pair = tuple(candidates[positions[n, c]].tolist())
        raise ValueError(f"label must be +1 or -1, got {y[n, c]}" if faults[n, c, 0]
                         else f"duplicate pair {pair} labeled twice")
    labels[rows, positions] = y


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
    if not np.all((p >= 0) & (p <= 1)):  # nan fails both
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
    masses.  Agrees with the scalar function to rounding.  Takes one
    posterior or a stack: (..., m, k+1) features with (..., k+1) means and
    (..., k+1, k+1) covariances give (..., m), each problem's probabilities
    bit for bit as alone.
    """
    w = kernels.as_f64(features)
    mu = np.asarray(mu, dtype=np.float64)
    sigma = kernels.as_f64(sigma)
    sw = w @ sigma
    quad = np.einsum("...ij,...ij->...i", sw, w)
    z = kernels.mat_vec(w, mu)
    p_plus_mode = expit(z)
    p_minus_mode = expit(-z)
    mu = mu[..., None, :]
    g_plus = np.maximum(mu - p_plus_mode[..., None] * sw, 0.0)
    g_minus = np.maximum(mu + p_minus_mode[..., None] * sw, 0.0)
    log_mass_plus = (log_expit(-np.einsum("...ij,...ij->...i", g_plus, w))
                     - 0.5 * p_plus_mode**2 * quad)
    log_mass_minus = (log_expit(np.einsum("...ij,...ij->...i", g_minus, w))
                      - 0.5 * p_minus_mode**2 * quad)
    lost = np.argwhere(np.isneginf(log_mass_plus) & np.isneginf(log_mass_minus))
    if lost.size:
        at = tuple(lost[0])
        raise ValueError(
            f"both outcome masses underflow to zero in row {at[-1]} "
            f"(omega.Sigma.omega = {quad[at]:.6e})"
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
    if scorer.strategy == "RANDOM":
        m = pairs.shape[0]
        return np.full(m, 0.5), np.full(m, MAX_ENTROPY)
    w = feature_matrix(scorer.data, scorer.basis, pairs)
    return _score_rows(scorer.strategy, scorer.gamma, scorer.sigma, w)


def _score_rows(strategy, gamma, sigma, w):
    """``(p_plus, entropy)`` arrays of an entropy strategy for pair feature rows.

    Takes one problem or a stack: (..., m, k+1) rows ``w`` with (..., k+1)
    weights ``gamma`` and, for BAYES_VAR, (..., k+1, k+1) covariances
    ``sigma`` give (..., m) arrays.
    """
    if strategy == "BAYES_VAR":
        p_plus = laplace_posterior_batch(gamma, sigma, w)
    else:
        p_plus = expit(-kernels.mat_vec(w, gamma))
    return p_plus, entropy(p_plus)


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


def select(pool: PairPool, features, scorer: Scorer, batch: int, rng_seed) -> np.ndarray:
    """Pick ``batch`` unlabeled pairs for the oracle: their int64 positions in ``pool.candidates``.

    ``features`` is the (m, k+1) feature table of ``pool.candidates``, the
    rows :func:`feature_matrix` gives them.  Entropy strategies score the
    whole table and take the top of the open candidates, ties to the
    lowest (i, j); RANDOM reads no features (None will do) and draws
    uniformly without replacement, depending only on the seed and the
    canonical order of the unlabeled pairs.
    """
    gamma = sigma = None
    if scorer.strategy != "RANDOM":
        features, gamma = kernels.as_f64(features)[None], scorer.gamma[None]
        sigma = None if scorer.sigma is None else scorer.sigma[None]
    return select_many(scorer.strategy, pool.labels[None], features, gamma, sigma, batch,
                       [rng_seed])[0]


def select_many(strategy, labels, features, gamma, sigma, batch, seeds) -> np.ndarray:
    """:func:`select` for each of a stack of r pools over the same m candidates.

    ``labels`` holds the pools' int8 (r, m) label rows, 0 for an open
    candidate.  An entropy strategy scores the whole (r, m, k+1) feature
    tables under the (r, k+1) weights ``gamma`` and, for BAYES_VAR, the
    (r, k+1, k+1) covariances ``sigma``, with -inf for a labeled row; RANDOM
    reads none of them and draws pool n's batch from ``seeds[n]``.  Returns
    the (r, batch) candidate positions picked, each row in pick order.
    """
    if strategy != "RANDOM" and features.shape[1:] != (labels.shape[1], gamma.shape[1]):
        raise ValueError(f"features must hold one row of {gamma.shape[1]} per candidate, "
                         f"got shape {features.shape[1:]}")
    is_open = labels == 0
    u = int(np.count_nonzero(is_open, axis=-1).min())
    if not u:
        raise ValueError("no unlabeled pairs left to select from")
    if not 1 <= batch <= u:
        raise ValueError(f"batch must lie in [1, {u}], got {batch}")
    if strategy == "RANDOM":
        return np.stack([o[np.random.default_rng(s).choice(o.size, size=batch, replace=False)]
                         for o, s in zip(map(np.flatnonzero, is_open), seeds)])
    h = _score_rows(strategy, gamma, sigma, features)[1]
    return _top(np.where(is_open, h, -np.inf), batch)  # so a labeled candidate is never picked


def _top(h, batch):
    """Columns of the ``batch`` largest entries of each row of ``h`` (r, m),
    largest first, ties to the lowest column: the first ``batch`` of a stable
    argsort of -h.  A partition finds each row's ``batch``-th largest; only
    the entries at least as large, ties with it included, are sorted."""
    neg = -h
    kth = np.partition(neg, batch - 1, axis=-1)[:, batch - 1, None]
    rows, cols = np.nonzero(neg <= kth)  # row by row, each row's columns ascending
    order = np.lexsort((neg[rows, cols], rows))  # stable, so ties keep column order
    first = np.searchsorted(rows, np.arange(h.shape[0]))
    return cols[order][first[:, None] + np.arange(batch)]
