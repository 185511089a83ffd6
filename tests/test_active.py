import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import expit, log_expit

from bdml.active import (
    MAX_ENTROPY,
    READS_SIGMA,
    PairPool,
    PairScore,
    Scorer,
    _modes,
    _plugin_rows,
    entropy,
    laplace_gamma,
    laplace_posterior,
    laplace_posterior_batch,
    label_many,
    plugin_posterior,
    rank_pairs,
    score_pairs,
    select,
    select_many,
)
from bdml.spectral import ConstraintSet, DataMatrix, EigenBasis, PairFeature, feature_matrix
from bdml.vb import PriorConfig, fit


def _posterior_instance(seed, k=3, scale=1.0):
    """Random nonnegative mean, SPD covariance, one pair feature."""
    rng = np.random.default_rng(seed)
    mu = rng.gamma(1.5, size=k + 1)
    a = rng.normal(size=(k + 1, k + 1))
    sigma = scale * (a @ a.T / (k + 1) + 0.05 * np.eye(k + 1))
    omega = np.concatenate(([-1.0], rng.gamma(1.0, size=k)))
    return mu, sigma, omega


def _interior(mu, sigma, omega):
    for sign in (1, -1):
        p = expit(sign * float(mu @ omega))
        if np.any(mu - sign * p * (sigma @ omega) < 0):
            return False
    return True


# ---------------------------------------------------------------------------
# containers


def test_pair_pool_canonicalizes():
    pool = PairPool(candidates=((3, 1), (0, 2), (4, 0)), labeled=((2, 0, 1),))
    npt.assert_array_equal(pool.candidates, [(0, 2), (0, 4), (1, 3)], strict=True)
    assert not pool.candidates.flags.writeable
    assert isinstance(pool.labeled, ConstraintSet)
    npt.assert_array_equal(pool.labeled.items, [(0, 2, 1)], strict=True)
    npt.assert_array_equal(pool.labeled.pairs, [(0, 2)], strict=True)
    npt.assert_array_equal(pool.unlabeled, [(0, 4), (1, 3)], strict=True)
    grown = pool.with_labels(((4, 0, -1),))
    npt.assert_array_equal(grown.unlabeled, [(1, 3)], strict=True)
    again = PairPool(grown.candidates, grown.labeled)
    npt.assert_array_equal(again.labeled.items, [(0, 2, 1), (0, 4, -1)], strict=True)
    npt.assert_array_equal(again.unlabeled, grown.unlabeled, strict=True)


def test_pair_pool_validation():
    with pytest.raises(ValueError, match=r"self-pair \(1, 1\)"):
        PairPool(candidates=((1, 1),))
    with pytest.raises(ValueError, match=r"duplicate candidate pair \(1, 2\)"):
        PairPool(candidates=((1, 2), (2, 1)))
    with pytest.raises(ValueError, match=r"negative index in pair \(-1, 2\)"):
        PairPool(candidates=((-1, 2),))
    with pytest.raises(ValueError, match=r"labeled pair \(0, 2\) is not a candidate"):
        PairPool(candidates=((0, 1),), labeled=((0, 2, 1),))
    with pytest.raises(ValueError, match=r"pair \(0, 1\) labeled twice"):
        PairPool(candidates=((0, 1),), labeled=((0, 1, 1), (1, 0, -1)))
    with pytest.raises(ValueError, match="label must be"):
        PairPool(candidates=((0, 1),), labeled=((0, 1, 0),))
    with pytest.raises(ValueError, match="rows of 2"):
        PairPool(candidates=((0, 1, 2),))
    # a non-integer index or label is refused, not truncated, wherever pairs come in
    with pytest.raises(ValueError, match="^candidates must be integers, got float64$"):
        PairPool(candidates=((0.5, 2.9),))
    with pytest.raises(ValueError, match="^labeled must be integers, got float64$"):
        PairPool(candidates=((0, 1),), labeled=((0, 1.0, 1),))
    with pytest.raises(ValueError, match="^labeled must be integers, got float64$"):
        PairPool(candidates=((0, 1),)).with_labels(((0, 1, 0.9),))
    for score in (score_pairs, rank_pairs):
        with pytest.raises(ValueError, match="^pairs must be integers, got float64$"):
            score(Scorer.random(), [(0, 1), (0.5, 2.9)])
    assert len(PairPool(candidates=()).candidates) == 0


def test_pair_pool_round_trips_a_large_pool():
    n = 500
    pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    assert len(pairs) == 124_750
    rng = np.random.default_rng(3)
    # shuffled, half of them reversed, to exercise canonicalization
    given_order = [pairs[p] if p % 2 else pairs[p][::-1]
                   for p in rng.permutation(len(pairs)).tolist()]
    picks = rng.choice(len(pairs), size=300, replace=False).tolist()
    triples = [(pairs[p][1], pairs[p][0], 1 if p % 3 else -1) for p in picks]
    pool = PairPool(candidates=tuple(given_order), labeled=tuple(triples))
    npt.assert_array_equal(pool.candidates, pairs, strict=True)
    taken = {pairs[p] for p in picks}
    npt.assert_array_equal(pool.labeled.pairs, sorted(taken), strict=True)
    npt.assert_array_equal(
        pool.labeled.items,
        sorted((*pairs[p], 1 if p % 3 else -1) for p in picks),
        strict=True,
    )
    npt.assert_array_equal(
        pool.unlabeled, [p for p in pairs if p not in taken], strict=True
    )
    i, j = pool.unlabeled[0].tolist()
    grown = pool.with_labels([(j, i, 1)])
    npt.assert_array_equal(grown.candidates, pairs, strict=True)
    npt.assert_array_equal(grown.unlabeled, pool.unlabeled[1:], strict=True)


def test_pair_pool_keys_span_the_labeled_indices_too():
    # with a key base from the candidates alone (indices up to 4, base 5),
    # (0, 7) would key as 0 * 5 + 7 = 1 * 5 + 2, the key of candidate (1, 2)
    candidates = np.column_stack(np.triu_indices(5, 1))
    with pytest.raises(ValueError, match=r"labeled pair \(0, 7\) is not a candidate"):
        PairPool(candidates=candidates, labeled=((0, 7, 1),))
    with pytest.raises(ValueError, match=r"labeled pair \(0, 7\) is not a candidate"):
        PairPool(candidates=candidates).with_labels([(1, 2, 1), (7, 0, -1)])


@pytest.mark.parametrize("top", [3_037_000_498, 3_037_000_499, 2**62, 2**63 - 1])
def test_pair_pool_matches_pairs_whose_integer_keys_would_overflow(top):
    # i * (top + 1) + j leaves int64 once top + 1 exceeds floor(sqrt(2**63 - 1))
    candidates = ((0, top), (1, 2), (1, top), (top - 1, top))
    pool = PairPool(candidates=candidates, labeled=((top, 1, -1), (2, 1, 1)))
    npt.assert_array_equal(pool.labeled.items, [(1, 2, 1), (1, top, -1)], strict=True)
    npt.assert_array_equal(pool.unlabeled, [(0, top), (top - 1, top)], strict=True)
    grown = pool.with_labels([(top, top - 1, 1)])
    npt.assert_array_equal(grown.unlabeled, [(0, top)], strict=True)
    with pytest.raises(ValueError, match=rf"labeled pair \(2, {top}\) is not a candidate"):
        pool.with_labels([(2, top, 1)])
    with pytest.raises(ValueError, match=rf"labeled pair \(0, {top - 1}\) is not a candidate"):
        pool.with_labels([(0, top - 1, 1)])


def test_pair_pool_labels_are_an_int8_vector_in_candidate_order():
    pool = PairPool(candidates=((3, 1), (0, 2), (4, 0)), labeled=((4, 0, -1), (2, 0, 1)))
    npt.assert_array_equal(pool.labels, np.array([1, -1, 0], dtype=np.int8), strict=True)
    assert not pool.labels.flags.writeable
    grown = pool.with_labels_at(np.array([2]), np.array([1]))
    npt.assert_array_equal(grown.labels, np.array([1, -1, 1], dtype=np.int8), strict=True)
    npt.assert_array_equal(pool.labels, np.array([1, -1, 0], dtype=np.int8), strict=True)
    assert grown.candidates is pool.candidates
    npt.assert_array_equal(grown.labeled.items, [(0, 2, 1), (0, 4, -1), (1, 3, 1)],
                           strict=True)
    assert grown.unlabeled.shape == (0, 2)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 8), data=st.data())
def test_labeling_by_position_equals_labeling_by_triples(n, data):
    pairs = np.column_stack(np.triu_indices(n, 1))
    m = len(pairs)
    pool = PairPool(candidates=pairs)
    order = data.draw(st.permutations(range(m)))
    first = data.draw(st.integers(0, m))
    taken = order[: data.draw(st.integers(first, m))]
    y = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=len(taken),
                           max_size=len(taken)))
    flip = data.draw(st.lists(st.booleans(), min_size=len(taken), max_size=len(taken)))
    triples = [(*(pairs[p][::-1] if f else pairs[p]).tolist(), label)
               for p, label, f in zip(taken, y, flip)]
    by_position = pool.with_labels_at(taken[:first], y[:first])
    by_position = by_position.with_labels_at(taken[first:], y[first:])
    by_triples = pool.with_labels(triples[:first]).with_labels(triples[first:])
    given_at_once = PairPool(candidates=pairs, labeled=triples)
    for other in (by_triples, given_at_once):
        npt.assert_array_equal(other.labels, by_position.labels, strict=True)
        npt.assert_array_equal(other.labeled.items, by_position.labeled.items, strict=True)
        npt.assert_array_equal(other.unlabeled, by_position.unlabeled, strict=True)
    want = np.zeros(m, dtype=np.int8)
    want[taken] = y
    npt.assert_array_equal(by_position.labels, want, strict=True)


@pytest.mark.parametrize("route", ["triples", "positions"])
def test_pair_pool_errors_through_both_routes(route):
    pool = PairPool(candidates=((0, 1), (0, 2), (1, 2)), labeled=((1, 0, 1),))

    def label(triples):
        if route == "triples":
            return pool.with_labels(triples)
        at = {(0, 1): 0, (0, 2): 1, (1, 2): 2, (0, 3): 3}
        return pool.with_labels_at([at[min(i, j), max(i, j)] for i, j, _ in triples],
                                   [y for _, _, y in triples])

    not_a_candidate = (r"labeled pair \(0, 3\)" if route == "triples"
                       else "position 3") + " is not a candidate"
    with pytest.raises(ValueError, match=not_a_candidate):
        label([(0, 2, 1), (3, 0, 1)])
    with pytest.raises(ValueError, match=r"^duplicate pair \(0, 1\) labeled twice$"):
        label([(0, 1, -1)])
    with pytest.raises(ValueError, match=r"^duplicate pair \(0, 2\) labeled twice$"):
        label([(0, 2, 1), (2, 0, 1)])
    with pytest.raises(ValueError, match=r"^label must be \+1 or -1, got 0$"):
        label([(1, 2, 0)])
    npt.assert_array_equal(pool.labels, np.array([1, 0, 0], dtype=np.int8), strict=True)


def test_labeling_by_position_validation():
    pool = PairPool(candidates=((0, 1), (0, 2)))
    with pytest.raises(ValueError, match="position -1 is not a candidate of 2"):
        pool.with_labels_at([-1], [1])
    with pytest.raises(ValueError, match="2 positions but 1 labels"):
        pool.with_labels_at([0, 1], [1])
    for positions in ([0.9], np.array([1.0]), [True]):
        with pytest.raises(ValueError, match="^positions must be integers, got "):
            pool.with_labels_at(positions, [1])
    npt.assert_array_equal(pool.with_labels_at(np.array([1], np.int8), [-1]).labels, [0, -1])


def test_label_many_labels_each_row_as_with_labels_at_does():
    pairs = np.column_stack(np.triu_indices(4, 1))
    pools = [PairPool(pairs, labeled=((0, 1, 1),)), PairPool(pairs, labeled=((2, 3, -1),))]
    positions, y = np.array([[5, 2], [0, 3]]), np.array([[-1, 1], [1, 1]])
    labels = np.stack([pool.labels for pool in pools])
    label_many(labels, positions, y, pairs)
    for row, pool, pos, ys in zip(labels, pools, positions, y):
        npt.assert_array_equal(row, pool.with_labels_at(pos, ys).labels, strict=True)


def test_label_many_names_the_first_faulty_entry_in_row_order_and_writes_nothing():
    pairs = np.column_stack(np.triu_indices(4, 1))
    labels = np.zeros((3, 6), dtype=np.int8)
    labels[1, 4] = 1
    y = np.ones((3, 2), dtype=np.int64)
    cases = [
        # row 1 relabels (1, 3) before row 2 repeats (0, 1)
        (np.array([[0, 1], [4, 2], [0, 0]]), y, r"^duplicate pair \(1, 3\) labeled twice$"),
        (np.array([[0, 1], [2, 3], [5, 5]]), y, r"^duplicate pair \(2, 3\) labeled twice$"),
        (np.array([[0, 1], [2, 3], [0, 5]]), np.array([[1, 1], [1, 0], [1, 2]]),
         r"^label must be \+1 or -1, got 0$"),
        (np.array([[0, 1], [2, 6], [0, 5]]), y, "^position 6 is not a candidate of 6$"),
    ]
    for positions, answers, message in cases:
        before = labels.copy()
        with pytest.raises(ValueError, match=message):
            label_many(labels, positions, answers, pairs)
        npt.assert_array_equal(labels, before, strict=True)
    with pytest.raises(ValueError, match="^6 positions but 3 labels$"):
        label_many(labels, np.array([[0, 1], [2, 3], [4, 5]]), y[:, :1], pairs)
    npt.assert_array_equal(labels, before, strict=True)


def test_pair_score_validation():
    PairScore(pair=(0, 1), p_plus=0.5, entropy=MAX_ENTROPY, strategy="RANDOM")
    with pytest.raises(ValueError, match="strategy"):
        PairScore(pair=(0, 1), p_plus=0.5, entropy=0.0, strategy="EUCLID")


# ---------------------------------------------------------------------------
# posteriors and entropies


def test_entropy_known_values():
    assert entropy(0.0) == 0.0
    assert entropy(1.0) == 0.0
    npt.assert_allclose(entropy(0.5), MAX_ENTROPY, rtol=1e-15)
    npt.assert_allclose(entropy([0.0, 0.5]), [0.0, MAX_ENTROPY], rtol=1e-15)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        entropy(-0.01)


@pytest.mark.parametrize("p", [np.nan, [0.5, np.nan], [[np.nan, 1.0]]])
def test_entropy_rejects_nan(p):
    with pytest.raises(ValueError, match=r"probabilities must lie in \[0, 1\]"):
        entropy(p)


@given(st.floats(0.0, 1.0))
def test_entropy_is_symmetric(p):
    # 1.0 - p rounds for tiny p, shifting the result by up to ~eps * |log p|
    npt.assert_allclose(entropy(p), entropy(1.0 - p), atol=1e-14)


@given(st.floats(0.0, 1.0))
@example(0.0)
@example(1.0)
@example(0.5)
@example(1.0 - 2.0**-53)
@example(2.0**-53)
@example(5e-324)
@example(2.0**-1022 - 2.0**-1074)
def test_entropy_lies_within_zero_and_log_2(p):
    # the scoring path relies on this bound, which it does not check at run time
    for h in (entropy(p), entropy(1.0 - p), *entropy([p, 1.0 - p])):
        assert -1e-12 <= h <= MAX_ENTROPY + 1e-12


def test_plugin_posterior_examples():
    assert plugin_posterior(np.zeros(2), [-1.0, 3.0]) == 0.5
    npt.assert_allclose(
        plugin_posterior([1.0, 1.0], [-1.0, 2.0]), expit(-1.0), rtol=1e-15
    )
    # larger distance at the same threshold means less similar
    near = plugin_posterior([1.0, 1.0], [-1.0, 0.2])
    far = plugin_posterior([1.0, 1.0], [-1.0, 5.0])
    assert near > 0.5 > far


def test_entropy_falls_as_the_margin_grows():
    gamma = np.array([1.0, 1.0])
    hs = [
        entropy(plugin_posterior(gamma, [-1.0, b]))
        for b in (1.0, 1.5, 2.5, 4.0, 7.0)
    ]
    assert all(a > b for a, b in zip(hs, hs[1:]))


def test_laplace_gamma_limits():
    mu = np.array([0.5, 1.0, 0.2])
    omega = np.array([-1.0, 2.0, 1.0])
    npt.assert_allclose(
        laplace_gamma(mu, np.zeros((3, 3)), omega, 1), mu, atol=1e-15
    )
    # zero margin: both outcomes equally likely, step is half of sigma.omega
    sigma = 0.1 * np.eye(3)
    balanced = np.array([2.0, 1.0, 0.0])  # mu.omega = 0
    got = laplace_gamma(balanced, sigma, omega, 1)
    npt.assert_allclose(got, np.maximum(balanced - 0.05 * omega, 0.0), atol=1e-15)
    with pytest.raises(ValueError, match="sign"):
        laplace_gamma(mu, sigma, omega, 0)


def test_laplace_gamma_solves_the_orthant_quadratic():
    checked = 0
    for seed in range(200):
        mu, sigma, omega = _posterior_instance(seed, k=2, scale=0.3)
        if not _interior(mu, sigma, omega):
            continue
        precision = np.linalg.inv(sigma)
        for sign in (1, -1):
            p = expit(sign * float(mu @ omega))

            def objective(g):
                r = g - mu
                return 0.5 * r @ precision @ r + sign * p * (omega @ g)

            res = minimize(
                objective,
                mu,
                method="L-BFGS-B",
                bounds=[(0.0, None)] * 3,
                options={"ftol": 1e-14, "gtol": 1e-10},
            )
            npt.assert_allclose(
                laplace_gamma(mu, sigma, omega, sign), res.x, atol=1e-4
            )
        checked += 1
        if checked >= 10:
            break
    assert checked >= 10


def test_laplace_posterior_collapses_to_plugin():
    for seed in range(8):
        mu, _, omega = _posterior_instance(seed)
        tight = 1e-12 * np.eye(mu.shape[0])
        assert abs(
            laplace_posterior(mu, tight, omega) - plugin_posterior(mu, omega)
        ) < 1e-6


def test_laplace_posterior_matches_manual_masses():
    from scipy.special import log_expit

    mu, sigma, omega = _posterior_instance(40)
    quad = omega @ sigma @ omega
    lm_plus = (
        log_expit(-(laplace_gamma(mu, sigma, omega, 1) @ omega))
        - 0.5 * expit(mu @ omega) ** 2 * quad
    )
    lm_minus = (
        log_expit(laplace_gamma(mu, sigma, omega, -1) @ omega)
        - 0.5 * expit(-(mu @ omega)) ** 2 * quad
    )
    p = laplace_posterior(mu, sigma, omega)
    npt.assert_allclose(p, expit(lm_plus - lm_minus), rtol=1e-14)
    npt.assert_allclose(p + expit(lm_minus - lm_plus), 1.0, atol=1e-12)


def test_laplace_uncertainty_dominates_plugin_in_the_interior():
    checked = 0
    for seed in range(300):
        mu, sigma, omega = _posterior_instance(seed, scale=0.5)
        if not _interior(mu, sigma, omega):
            continue
        if omega @ sigma @ omega > 4.0:
            continue
        h_plugin = entropy(plugin_posterior(mu, omega))
        h_laplace = entropy(laplace_posterior(mu, sigma, omega))
        assert h_laplace >= h_plugin - 1e-12
        checked += 1
        if checked >= 25:
            break
    assert checked >= 25


def _hundreds_instance(seed, sigma_scale, margins):
    """Mean, covariance and feature rows with margins in the hundreds and clamped modes."""
    _, sigma, _ = _posterior_instance(seed, scale=sigma_scale)
    rng = np.random.default_rng(seed)
    # Margins in the hundreds come from large weights on moderate features;
    # the last weight sits near 0, so its mode component clamps to 0.  A
    # margin near 0 cancels terms in the hundreds, leaving ~1e-13 of rounding
    # in mu.omega that omega.Sigma.omega multiplies into p_plus in both
    # forms, so the covariance scale stays at most 1 for an atol of 1e-12.
    mu = np.concatenate(([450.0], 100.0 + 100.0 * rng.gamma(1.5, size=2), [1e-3]))
    rows = []
    for margin in [-300.0, 300.0, 0.0] + margins:
        body = 0.5 + rng.gamma(1.0, size=mu.shape[0] - 1)
        scale = (margin + mu[0]) / (mu[1:] @ body)
        rows.append(np.concatenate(([-1.0], scale * body)))
    w = np.array(rows)
    # The margin-0 row (index 2) takes both modes at even odds, moving the
    # last weight by -/+ (w.Sigma)_last / 2; a last weight below a quarter of
    # that makes one of its modes clamp to 0 on every drawn instance.
    mu[-1] = min(mu[-1], 0.25 * abs(w[2] @ sigma[:, -1]))
    assert np.abs(w @ mu).max() >= 299.0
    clamps = np.minimum(
        mu - expit(w @ mu)[:, None] * (w @ sigma),
        mu + expit(-(w @ mu))[:, None] * (w @ sigma),
    )
    assert np.any(clamps < 0)  # some mode leaves the orthant and clamps to 0
    return mu, sigma, w


_HUNDREDS = dict(
    seed=st.integers(0, 2**32 - 1),
    sigma_scale=st.floats(0.05, 1.0),
    margins=st.lists(st.floats(-400.0, 400.0), max_size=8),
)


@settings(max_examples=60, deadline=None)
@given(**_HUNDREDS)
def test_laplace_posterior_batch_matches_scalar(seed, sigma_scale, margins):
    mu, sigma, w = _hundreds_instance(seed, sigma_scale, margins)
    batch = laplace_posterior_batch(mu, sigma, w)
    scalar = [laplace_posterior(mu, sigma, row) for row in w]
    npt.assert_allclose(batch, scalar, rtol=0, atol=1e-12)
    oracle = []  # the modes and log masses per row, independent of bdml
    for row in w:
        z, quad = mu @ row, row @ sigma @ row
        g_plus = np.maximum(mu - expit(z) * (sigma @ row), 0.0)
        g_minus = np.maximum(mu + expit(-z) * (sigma @ row), 0.0)
        lm_plus = log_expit(-(g_plus @ row)) - 0.5 * expit(z) ** 2 * quad
        lm_minus = log_expit(g_minus @ row) - 0.5 * expit(-z) ** 2 * quad
        oracle.append(expit(lm_plus - lm_minus))
    npt.assert_allclose(batch, oracle, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(**_HUNDREDS)
def test_one_pair_functions_are_rows_of_the_batch_core(seed, sigma_scale, margins):
    mu, sigma, w = _hundreds_instance(seed, sigma_scale, margins)
    # each row as a one-row problem of a stack: a row of a larger matrix can
    # take other BLAS kernels, and so other rounding, than the same row alone
    rows = w[:, None]
    npt.assert_array_equal([laplace_posterior(mu, sigma, row) for row in w],
                           laplace_posterior_batch(mu, sigma, rows)[:, 0])
    _, _, _, g_plus, g_minus = _modes(mu, sigma, rows)
    for sign, modes in ((1, g_plus), (-1, g_minus)):
        npt.assert_array_equal([laplace_gamma(mu, sigma, row, sign) for row in w], modes[:, 0])
    npt.assert_array_equal([plugin_posterior(mu, row) for row in w],
                           _plugin_rows(mu, None, rows)[:, 0])


def test_one_pair_functions_take_pair_features_lists_and_nan():
    mu, sigma, omega = _posterior_instance(7)
    feature = PairFeature(omega)
    assert plugin_posterior(mu.tolist(), feature) == plugin_posterior(mu, omega)
    assert laplace_posterior(mu, sigma.tolist(), feature) == laplace_posterior(mu, sigma, omega)
    for sign in (1, -1):
        npt.assert_array_equal(laplace_gamma(mu, sigma.tolist(), feature, sign),
                               laplace_gamma(mu, sigma, omega, sign))
    assert np.isnan(plugin_posterior([np.nan, 1.0], [-1.0, 2.0]))  # nan in, nan out
    for bad in (omega[None], 1.0):
        for call in (lambda: plugin_posterior(mu, bad), lambda: laplace_posterior(mu, sigma, bad),
                     lambda: laplace_gamma(mu, sigma, bad, 1)):
            with pytest.raises(ValueError, match="omega must be one feature vector"):
                call()


def test_laplace_posterior_batch_flags_the_underflowing_row():
    mu = np.array([1.0, 1.0])
    sigma = 1e308 * np.eye(2)
    # only the middle row's omega.Sigma.omega overflows to inf
    w = np.array([[-1.0, 0.0], [-1.0, 1.0], [-1.0, 0.1]])
    with np.errstate(over="ignore"):
        for r in (0, 2):
            laplace_posterior(mu, sigma, w[r])
        with pytest.raises(ValueError, match=r"row 1 \(omega.Sigma.omega = inf\)"):
            laplace_posterior_batch(mu, sigma, w)


def test_laplace_posterior_batch_gives_each_problem_of_a_stack_its_alone_bits():
    rng = np.random.default_rng(4)
    posteriors = [_posterior_instance(seed, k=3) for seed in range(5)]
    mu = np.stack([p[0] for p in posteriors])
    sigma = np.stack([p[1] for p in posteriors])
    w = np.concatenate((-np.ones((5, 40, 1)), rng.gamma(1.0, size=(5, 40, 3))), axis=-1)
    stacked = laplace_posterior_batch(mu, sigma, w)
    assert stacked.shape == (5, 40)
    for n in range(5):
        npt.assert_array_equal(stacked[n], laplace_posterior_batch(mu[n], sigma[n], w[n]))
    # as in the test above: only row 7 of problem 3 overflows omega.Sigma.omega
    mu[3], sigma[3], w[3] = 1.0, 1e308 * np.eye(4), [-1.0, 0.0, 0.0, 0.0]
    w[3, 7, 1] = 1.0
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match=r"row 7 \(omega.Sigma.omega = inf\)"):
            laplace_posterior_batch(mu, sigma, w)


def test_laplace_posterior_flags_total_underflow():
    mu = np.array([1.0, 1.0])
    omega = np.array([-1.0, 1.0])  # mu.omega = 0, both modes at even odds
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="omega.Sigma.omega"):
            laplace_posterior(mu, 1e308 * np.eye(2), omega)


# ---------------------------------------------------------------------------
# scorers


def test_scorer_validation(clusters, clusters_basis):
    Scorer.random()
    gamma = np.ones(clusters_basis.k + 1)
    with pytest.raises(ValueError, match="needs data"):
        Scorer(strategy="MLE_ACT", gamma=gamma)
    with pytest.raises(ValueError, match="length"):
        Scorer(strategy="MLE_ACT", data=clusters, basis=clusters_basis,
               gamma=np.ones(2))
    with pytest.raises(ValueError, match="covariance"):
        Scorer(strategy="BAYES_VAR", data=clusters, basis=clusters_basis,
               gamma=gamma)
    with pytest.raises(ValueError, match="covariance shape"):
        Scorer(strategy="BAYES_VAR", data=clusters, basis=clusters_basis,
               gamma=gamma, sigma=np.eye(2))
    with pytest.raises(ValueError, match="unknown strategy"):
        Scorer(strategy="GREEDY")


@pytest.fixture
def posterior(clusters, clusters_basis):
    items = ((0, 2, 1), (8, 20, -1), (9, 11, 1), (1, 16, -1))
    return fit(ConstraintSet(items), clusters, clusters_basis, PriorConfig())


def test_score_pairs_random_is_indifferent():
    scores = score_pairs(Scorer.random(), [(0, 5), (2, 3)])
    assert [s.pair for s in scores] == [(0, 5), (2, 3)]
    assert all(s.p_plus == 0.5 and s.entropy == MAX_ENTROPY for s in scores)
    assert all(s.strategy == "RANDOM" for s in scores)


def test_score_pairs_plugin_paths_match_per_pair(clusters, clusters_basis, posterior):
    from bdml.spectral import pair_feature

    pairs = [(0, 5), (7, 3), (2, 21)]
    scorer = Scorer.bayes_act(clusters, clusters_basis, posterior)
    scores = score_pairs(scorer, pairs)
    for s, (i, j) in zip(scores, pairs):
        omega = pair_feature(clusters, clusters_basis, i, j)
        npt.assert_allclose(
            s.p_plus, plugin_posterior(posterior.mu, omega), rtol=1e-12
        )
        npt.assert_allclose(s.entropy, entropy(s.p_plus), rtol=1e-12)
        assert s.strategy == "BAYES_ACT"


def test_score_pairs_bayes_var_uses_laplace(clusters, clusters_basis, posterior):
    from bdml.spectral import pair_feature

    pairs = [(0, 5), (7, 3)]
    scorer = Scorer.bayes_var(clusters, clusters_basis, posterior)
    scores = score_pairs(scorer, pairs)
    for s, (i, j) in zip(scores, pairs):
        omega = pair_feature(clusters, clusters_basis, i, j)
        npt.assert_allclose(
            s.p_plus,
            laplace_posterior(posterior.mu, posterior.sigma, omega),
            rtol=1e-12,
        )
    assert score_pairs(scorer, []) == []


# ---------------------------------------------------------------------------
# selection


def _table(data, basis, pool):
    """The feature table of the pool's candidates."""
    return feature_matrix(data, basis, pool.candidates)


def test_select_takes_the_entropy_top(clusters, clusters_basis, posterior):
    candidates = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    pool = PairPool(candidates=tuple(candidates))
    scorer = Scorer.mle_act(clusters, clusters_basis, posterior.mu)
    picked = select(pool, _table(clusters, clusters_basis, pool), scorer, batch=5, rng_seed=0)
    assert picked.dtype == np.int64
    ranked = sorted(
        score_pairs(scorer, pool.unlabeled), key=lambda s: (-s.entropy, s.pair)
    )
    npt.assert_array_equal(pool.candidates[picked], [s.pair for s in ranked[:5]],
                           strict=True)


@pytest.mark.parametrize("strategy", ["BAYES_ACT", "BAYES_VAR"])
def test_select_matches_sorted_score_pairs(clusters, clusters_basis, posterior,
                                           strategy):
    candidates = tuple((i, j) for i in range(12) for j in range(i + 1, 12))
    pool = PairPool(candidates=candidates, labeled=((0, 2, 1), (3, 9, -1)))
    scorer = getattr(Scorer, strategy.lower())(clusters, clusters_basis, posterior)
    ranked = sorted(
        score_pairs(scorer, pool.unlabeled), key=lambda s: (-s.entropy, s.pair)
    )
    table = _table(clusters, clusters_basis, pool)
    for batch in (1, 7, len(ranked)):
        picked = select(pool, table, scorer, batch=batch, rng_seed=0)
        npt.assert_array_equal(pool.candidates[picked], [s.pair for s in ranked[:batch]],
                               strict=True)


def test_select_breaks_ties_by_pair_order():
    x = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 1.0], [9.0, 9.0]])
    basis = EigenBasis(
        vectors=np.eye(2), eigenvalues=[1.0, 1.0],
        center=np.zeros(2), scale=np.ones(2),
    )
    data = DataMatrix(x)
    # rows 0 and 1 coincide, so (0, 2) and (1, 2) share a feature vector
    pool = PairPool(candidates=((0, 2), (1, 2), (0, 3)))
    scorer = Scorer.mle_act(data, basis, np.array([1.0, 0.1, 0.1]))
    scores = {s.pair: s.entropy for s in score_pairs(scorer, pool.unlabeled)}
    assert scores[(0, 2)] == scores[(1, 2)]
    picked = select(pool, _table(data, basis, pool), scorer, batch=2, rng_seed=0)
    npt.assert_array_equal(pool.candidates[picked], [(0, 2), (1, 2)], strict=True)


def test_select_random_is_seed_deterministic():
    pool = PairPool(
        candidates=tuple((i, j) for i in range(6) for j in range(i + 1, 6)),
        labeled=((0, 1, 1), (2, 3, -1)),
    )
    a = select(pool, None, Scorer.random(), batch=4, rng_seed=11)
    b = select(pool, None, Scorer.random(), batch=4, rng_seed=11)
    npt.assert_array_equal(a, b, strict=True)
    assert a.shape == (4,) and a.dtype == np.int64
    picked = set(map(tuple, pool.candidates[a].tolist()))
    assert len(picked) == 4
    assert picked <= set(map(tuple, pool.unlabeled.tolist()))
    assert (0, 1) not in picked and (2, 3) not in picked
    c = select(pool, None, Scorer.random(), batch=4, rng_seed=12)
    assert set(a.tolist()) != set(c.tolist())  # seeds decouple the draws


def test_select_is_invariant_to_weight_rescaling(clusters, clusters_basis, posterior):
    pool = PairPool(candidates=tuple(
        (i, j) for i in range(10) for j in range(i + 1, 10)))
    table = _table(clusters, clusters_basis, pool)
    a = select(pool, table, Scorer.mle_act(clusters, clusters_basis, posterior.mu),
               batch=6, rng_seed=0)
    b = select(pool, table, Scorer.mle_act(clusters, clusters_basis, 2.0 * posterior.mu),
               batch=6, rng_seed=0)
    npt.assert_array_equal(a, b, strict=True)


def test_select_validation(clusters, clusters_basis):
    pool = PairPool(candidates=((0, 1), (0, 2)), labeled=((0, 1, 1), (0, 2, 1)))
    with pytest.raises(ValueError, match="no unlabeled"):
        select(pool, None, Scorer.random(), batch=1, rng_seed=0)
    open_pool = PairPool(candidates=((0, 1), (0, 2)))
    with pytest.raises(ValueError, match=r"batch must lie in \[1, 2\]"):
        select(open_pool, None, Scorer.random(), batch=3, rng_seed=0)
    with pytest.raises(ValueError, match="batch"):
        select(open_pool, None, Scorer.random(), batch=0, rng_seed=0)
    scorer = Scorer.mle_act(clusters, clusters_basis, np.ones(clusters_basis.k + 1))
    table = _table(clusters, clusters_basis, open_pool)
    with pytest.raises(ValueError, match=r"one row of 4 per candidate, got shape \(1, 4\)"):
        select(open_pool, table[:1], scorer, batch=1, rng_seed=0)
    with pytest.raises(ValueError, match=r"one row of 4 per candidate, got shape \(2, 3\)"):
        select(open_pool, table[:, :3], scorer, batch=1, rng_seed=0)


@settings(max_examples=100, deadline=None)
@given(tag=st.sampled_from(["RANDOM", "MLE_ACT", "BAYES_ACT", "BAYES_VAR"]),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_select_is_row_0_of_select_many(tag, seed, data):
    rng = np.random.default_rng(seed)
    points = DataMatrix(rng.normal(size=(8, 2)))
    basis = EigenBasis(vectors=np.eye(2), eigenvalues=[2.0, 1.0],
                       center=np.zeros(2), scale=np.ones(2))
    pairs = np.column_stack(np.triu_indices(8, 1))
    labeled = data.draw(st.lists(st.integers(0, len(pairs) - 1), unique=True,
                                 max_size=len(pairs) - 1))
    pool = PairPool(pairs).with_labels_at(labeled, rng.choice([-1, 1], size=len(labeled)))
    batch = data.draw(st.integers(1, len(pairs) - len(labeled)))
    a = rng.normal(size=(3, 3))
    gamma, sigma = rng.uniform(0.0, 2.0, size=3), a @ a.T + np.eye(3)
    if tag == "RANDOM":
        scorer, features, stacked = Scorer.random(), None, (None, None, None)
    else:  # every other column of a wider array: a table that is not contiguous
        scorer = Scorer(tag, points, basis, gamma, sigma if tag == "BAYES_VAR" else None)
        wide = np.zeros((len(pairs), 6))
        wide[:, ::2] = feature_matrix(points, basis, pairs)
        features = wide[:, ::2]
        assert not features.flags.c_contiguous
        stacked = (features[None], gamma[None], None if scorer.sigma is None else sigma[None])
    picked = select(pool, features, scorer, batch, seed)
    npt.assert_array_equal(
        picked, select_many(tag, pool.labels[None], *stacked, batch, [seed])[0], strict=True)
    if tag != "RANDOM":  # the table's layout changes no bit of the scores
        contiguous = (np.ascontiguousarray(stacked[0]),) + stacked[1:]
        npt.assert_array_equal(
            picked, select_many(tag, pool.labels[None], *contiguous, batch, [seed])[0],
            strict=True)


@pytest.mark.parametrize("seed", range(5))
def test_bayes_act_select_many_reads_no_covariance(seed):
    # a rule outside READS_SIGMA picks the same pairs with the covariances as without them
    rng = np.random.default_rng(seed)
    r, m, k = 3, 28, 2
    features = np.concatenate([-np.ones((r, m, 1)), rng.gamma(1.0, size=(r, m, k))], axis=-1)
    labels = np.where(rng.uniform(size=(r, m)) < 0.3, rng.choice([-1, 1], size=(r, m)), 0)
    labels = labels.astype(np.int8)
    gamma, a = rng.uniform(0.0, 2.0, size=(r, k + 1)), rng.normal(size=(r, k + 1, k + 1))
    sigma = a @ np.swapaxes(a, -1, -2) + np.eye(k + 1)
    picked = select_many("BAYES_ACT", labels, features, gamma, None, 5, None)
    npt.assert_array_equal(
        picked, select_many("BAYES_ACT", labels, features, gamma, sigma, 5, None), strict=True)
    assert "BAYES_ACT" not in READS_SIGMA and "BAYES_VAR" in READS_SIGMA


def _plugin_stack(margins):
    """Label rows, k=1 feature tables and weights whose plug-in entropy falls
    as |margin| grows, plus the open positions: every third candidate is open,
    at one row of ``margins`` per pool, and the labeled ones sit at margin 0,
    the highest entropy."""
    margins = np.asarray(margins, dtype=np.float64)
    r, u = margins.shape
    labels = np.tile(np.array([0, 1, -1], dtype=np.int8), (r, u))
    table = np.zeros((r, 3 * u))
    table[:, ::3] = np.abs(margins)
    features = np.stack((-np.ones((r, 3 * u)), table), axis=-1)
    open_at = np.tile(np.arange(0, 3 * u, 3), (r, 1))
    return labels, features, np.tile([0.0, 1.0], (r, 1)), open_at


def test_select_many_takes_each_pools_top_with_ties_straddling_the_cut():
    # pool 0: margin 0 first, then four pairs tied at margin 1 for the last two places;
    # pool 1: the tie at margin 2 straddles the cut at the third place
    labels, features, gamma, _ = _plugin_stack([[3, 1, 2, 1, 1, 0, 1], [2, 0, 5, 2, 1, 2, 2]])
    picked = select_many("MLE_ACT", labels, features, gamma, None, 3, None)
    npt.assert_array_equal(picked, [[15, 3, 9], [3, 12, 0]], strict=True)


def test_select_many_on_flat_entropies_takes_the_first_open_pairs():
    # zero weights put every pair at p = 1/2, entropy exactly log 2
    labels, features, _, open_at = _plugin_stack(np.arange(12.0).reshape(2, 6))
    for batch in (1, 4, 6):
        picked = select_many("BAYES_ACT", labels, features, np.zeros((2, 2)), None, batch, None)
        npt.assert_array_equal(picked, open_at[:, :batch], strict=True)


def test_select_many_never_picks_a_labeled_candidate_of_the_highest_entropy():
    # the labeled candidates score log 2, above every open one
    labels, features, gamma, _ = _plugin_stack([[3, 1, 2], [0.5, 4, 1]])
    h = entropy(expit(-features[..., 1]))  # the plug-in entropy under weights (0, 1)
    assert h[labels != 0].min() > h[labels == 0].max()
    picked = select_many("MLE_ACT", labels, features, gamma, None, 3, None)
    npt.assert_array_equal(picked, [[3, 6, 0], [0, 6, 3]], strict=True)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), r=st.integers(1, 4), u=st.integers(1, 30))
def test_select_many_matches_a_stable_sort_of_each_pools_entropies(data, r, u):
    # margins from a few values, so ties are everywhere, the cut included
    margins = data.draw(st.lists(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]),
                                          min_size=u, max_size=u), min_size=r, max_size=r))
    batch = data.draw(st.integers(1, u))
    labels, features, gamma, open_at = _plugin_stack(margins)
    picked = select_many("MLE_ACT", labels, features, gamma, None, batch, None)
    h = entropy(expit(-np.abs(np.asarray(margins))))
    want = np.take_along_axis(open_at, np.argsort(-h, axis=-1, kind="stable")[:, :batch], -1)
    npt.assert_array_equal(picked, want, strict=True)


@pytest.mark.parametrize("strategy", ["RANDOM", "MLE_ACT", "BAYES_ACT", "BAYES_VAR"])
def test_select_many_gives_each_pool_its_select(clusters, clusters_basis, posterior, strategy):
    pairs = np.column_stack(np.triu_indices(12, 1))
    pools = [PairPool(pairs, labeled=((0, 2, 1), (3, 9, -1))),
             PairPool(pairs, labeled=((1, 5, 1), (4, 7, -1)))]
    table = _table(clusters, clusters_basis, pools[0])

    def scorer(gamma, sigma):
        if strategy == "RANDOM":
            return Scorer.random()
        return Scorer(strategy, clusters, clusters_basis, gamma,
                      sigma if strategy == "BAYES_VAR" else None)

    scorers = [scorer(posterior.mu, posterior.sigma),
               scorer(0.5 * posterior.mu, 2.0 * posterior.sigma)]
    labels = np.stack([pool.labels for pool in pools])
    features = gamma = sigma = None
    if strategy != "RANDOM":
        features, gamma = np.stack([table, table]), np.stack([s.gamma for s in scorers])
    if strategy == "BAYES_VAR":
        sigma = np.stack([s.sigma for s in scorers])
    picked = select_many(strategy, labels, features, gamma, sigma, 7, [11, 12])
    for pool, scorer, seed, got in zip(pools, scorers, (11, 12), picked):
        npt.assert_array_equal(got, select(pool, table, scorer, 7, seed), strict=True)
    if strategy != "RANDOM":  # the table's shape is checked for the stack as for one pool
        with pytest.raises(ValueError, match=r"one row of 4 per candidate, got shape \(65, 4\)"):
            select_many(strategy, labels, features[:, 1:], gamma, sigma, 7, [11, 12])
