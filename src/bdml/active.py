"""Scoring and selection of unlabeled pairs.

Three posterior notions feed the same entropy criterion: a plug-in
sigmoid at a point estimate, the same thing at the posterior mean, and a
Laplacian approximation that integrates the pair likelihood against the
Gaussian posterior around a pair of clamped modes.  Random selection is
the control.  Each formula is written once, over the feature rows of one
problem or a stack; the one-pair functions are row 0 of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .kernels import expit, log_expit, xlogx
from .spectral import (
    ConstraintSet, DataMatrix, EigenBasis, PairFeature, _as_rows, _canonical, _checked_pairs,
    _freeze, _replaced, feature_matrix,
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
        pos, y = _as_rows(np.reshape(positions, (-1, 1)), 1, "positions")[:, 0], np.ravel(labels)
        labels = self.labels.copy()
        label_many(labels[None], pos[None], y[None], self.candidates)
        return _replaced(self, labels=_freeze(labels))  # shares the read-only candidates


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
        if self.strategy not in RULES:
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


def _row(omega) -> np.ndarray:
    """A pair's feature vector, an array or a :class:`PairFeature`, as a (1, k+1) row."""
    w = np.asarray(omega.omega if isinstance(omega, PairFeature) else omega, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError(f"omega must be one feature vector, got shape {w.shape}")
    return w[None]


def _plugin_rows(gamma, _sigma, w):
    """sigma(-gamma.w) per row, any covariance unread: (..., m, k+1), (..., k+1) give (..., m)."""
    return expit(-kernels.mat_vec(kernels.as_f64(w), gamma))


def plugin_posterior(gamma, omega) -> float:
    """Similarity probability at a point estimate: sigma(-gamma.omega)."""
    return float(_plugin_rows(np.asarray(gamma, dtype=np.float64), None, _row(omega))[0])


def _modes(mu, sigma, w):
    """``(w.Sigma, expit(mu.w), expit(-mu.w), g_plus, g_minus)`` for each feature row ``w``,
    the modes as :func:`laplace_gamma` gives them; shapes as in :func:`laplace_posterior_batch`."""
    mu = np.asarray(mu, dtype=np.float64)
    sw = w @ kernels.as_f64(sigma)
    z = kernels.mat_vec(w, mu)
    p_plus, p_minus = expit(z), expit(-z)
    mu = mu[..., None, :]
    g_plus, g_minus = (np.multiply(p[..., None], sw) for p in (p_plus, p_minus))
    np.maximum(np.subtract(mu, g_plus, out=g_plus), 0.0, out=g_plus)  # one temporary each
    np.maximum(np.add(mu, g_minus, out=g_minus), 0.0, out=g_minus)
    return sw, p_plus, p_minus, g_plus, g_minus


def laplace_gamma(mu, sigma, omega, sign: int) -> np.ndarray:
    """Approximate mode of the gamma integrand for the similar (``sign`` +1) or the
    dissimilar (-1) outcome of one pair: the mean nudged against the outcome's slope,
    mu -/+ p (Sigma omega) with p = expit(+/-mu.omega), clamped to the nonnegative orthant."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    g_plus, g_minus = _modes(mu, sigma, _row(omega))[3:]
    return (g_plus if sign == 1 else g_minus)[0]


def laplace_posterior(mu, sigma, omega) -> float:
    """:func:`laplace_posterior_batch` for one pair, a vector or a :class:`PairFeature`."""
    return float(laplace_posterior_batch(mu, sigma, _row(omega))[0])


def laplace_posterior_batch(mu, sigma, features) -> np.ndarray:
    """Similarity probability of every row of a feature matrix, integrating the Gaussian posterior.

    Each outcome gets an unnormalized mass: its sigmoid at the clamped
    mode (:func:`laplace_gamma`) times a Gaussian volume factor driven by
    the pair's projected variance omega.Sigma.omega.  Masses are combined
    in log space, so the normalized result is exact and overflow-safe for
    margins in the hundreds.  Takes one posterior or a stack: (..., m, k+1)
    features with (..., k+1) means and (..., k+1, k+1) covariances give
    (..., m), each problem's probabilities bit for bit as alone.
    """
    w = kernels.as_f64(features)
    sw, p_plus_mode, p_minus_mode, g_plus, g_minus = _modes(mu, sigma, w)
    quad = np.einsum("...ij,...ij->...i", sw, w)
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


# each Scorer tag's p_plus of (..., m, k+1) feature rows, (..., k+1) weights and (..., k+1, k+1)
# covariances, None for RANDOM; only the rules in READS_SIGMA read covariances and are given them
RULES = {"RANDOM": None, "MLE_ACT": _plugin_rows, "BAYES_ACT": _plugin_rows,
         "BAYES_VAR": laplace_posterior_batch}
READS_SIGMA = frozenset({"BAYES_VAR"})
STRATEGIES = tuple(RULES)  # the Scorer tags, which are also the strategies score-pairs offers


@dataclass(frozen=True)
class Scorer:
    """A strategy tag bundled with whatever model state it needs.

    RANDOM carries nothing.  The scoring rules carry a point weight vector
    (the MLE solution or the posterior mean); those in ``READS_SIGMA``
    also carry the posterior covariance.
    """

    strategy: str
    data: DataMatrix | None = None
    basis: EigenBasis | None = None
    gamma: np.ndarray | None = None
    sigma: np.ndarray | None = None

    def __post_init__(self):
        if self.strategy not in RULES:
            raise ValueError(f"unknown strategy tag {self.strategy!r}")
        if RULES[self.strategy] is None:
            return
        if self.data is None or self.basis is None or self.gamma is None:
            raise ValueError(f"{self.strategy} needs data, basis and weights")
        g = np.asarray(self.gamma, dtype=np.float64)
        if g.shape != (self.basis.k + 1,):
            raise ValueError(
                f"weights must have length {self.basis.k + 1}, got {g.shape}"
            )
        object.__setattr__(self, "gamma", g)
        if self.strategy in READS_SIGMA:
            if self.sigma is None:
                raise ValueError(f"{self.strategy} needs the posterior covariance")
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
    if RULES[scorer.strategy] is None:
        m = pairs.shape[0]
        return np.full(m, 0.5), np.full(m, MAX_ENTROPY)
    w = feature_matrix(scorer.data, scorer.basis, pairs)
    return _score_rows(scorer.strategy, scorer.gamma, scorer.sigma, w)


def _score_rows(strategy, gamma, sigma, w):
    """``(p_plus, entropy)`` arrays of a scoring rule of :data:`RULES` for pair feature rows.

    Takes one problem or a stack: (..., m, k+1) rows ``w`` with (..., k+1)
    weights ``gamma`` and, for a rule in ``READS_SIGMA``, (..., k+1, k+1)
    covariances ``sigma`` give (..., m) arrays.
    """
    p_plus = RULES[strategy](gamma, sigma, w)
    return p_plus, entropy(p_plus)


def score_pairs(scorer: Scorer, pairs) -> list:
    """One PairScore per pair, in the order given.

    RANDOM expresses no preference and scores every pair at maximum
    entropy; the entropy strategies evaluate their posterior per pair.
    """
    pairs = _as_rows(pairs, 2, "pairs")
    p_plus, h = _score_arrays(scorer, pairs)
    return [
        PairScore(pair=p, p_plus=pr, entropy=hr, strategy=scorer.strategy)
        for p, pr, hr in zip(pairs.tolist(), p_plus.tolist(), h.tolist())
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

    :func:`select_many` of one pool, whose candidates' rows (see
    :func:`feature_matrix`) make the (m, k+1) ``features`` table.  Entropy
    strategies take the top of the open candidates, ties to the lowest (i, j);
    RANDOM reads no features (None will do) and draws uniformly without
    replacement, by the seed alone, from the unlabeled pairs in canonical order.
    """
    return select_many(scorer.strategy, pool.labels[None],
                       *(None if a is None else np.asarray(a)[None]
                         for a in (features, scorer.gamma, scorer.sigma)), batch, [rng_seed])[0]


def select_many(strategy, labels, features, gamma, sigma, batch, seeds) -> np.ndarray:
    """:func:`select` for each of a stack of r pools over the same m candidates.

    ``labels`` holds the pools' int8 (r, m) label rows, 0 for an open
    candidate.  A scoring rule scores the whole (r, m, k+1) feature tables
    under the (r, k+1) weights ``gamma`` and, if in ``READS_SIGMA``, the (r, k+1,
    k+1) covariances ``sigma``, with -inf for a labeled row; RANDOM reads only
    ``seeds``, drawing pool n's batch from ``seeds[n]``.  Returns the (r, batch)
    candidate positions picked, each row in pick order.
    """
    if RULES[strategy] is not None and features.shape[1:] != (labels.shape[1], gamma.shape[1]):
        raise ValueError(f"features must hold one row of {gamma.shape[1]} per candidate, "
                         f"got shape {features.shape[1:]}")
    is_open = labels == 0
    u = int(np.count_nonzero(is_open, axis=-1).min())
    if not u:
        raise ValueError("no unlabeled pairs left to select from")
    if not 1 <= batch <= u:
        raise ValueError(f"batch must lie in [1, {u}], got {batch}")
    if RULES[strategy] is None:
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
