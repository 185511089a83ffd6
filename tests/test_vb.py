import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import expit

from bdml import vb
from bdml.spectral import ConstraintSet, DataMatrix, EigenBasis, feature_matrix
from bdml.vb import (
    LAMBDA_SERIES_CUTOFF,
    PriorConfig,
    VariationalPosterior,
    _solve_spd,
    e_step,
    elbo,
    fit,
    fit_many,
    jj_bound,
    lambda_xi,
    m_step,
)
from conftest import random_features, random_labels


def _instance(seed, m=8, k=3):
    rng = np.random.default_rng(seed)
    w = random_features(rng, m, k)
    y = random_labels(rng, m)
    xi = rng.gamma(2.0, size=m) + 0.1
    return w, y, xi


# ---------------------------------------------------------------------------
# lambda and the sigmoid bound


def test_lambda_known_values():
    assert lambda_xi(0.0) == 0.125
    npt.assert_allclose(lambda_xi(2.0), np.tanh(1.0) / 8.0, rtol=1e-15)
    out = lambda_xi(np.array([0.0, 2.0]))
    assert isinstance(out, np.ndarray)
    npt.assert_allclose(out, [0.125, np.tanh(1.0) / 8.0], rtol=1e-15)


@given(st.floats(-50.0, 50.0))
def test_lambda_is_even(x):
    npt.assert_allclose(lambda_xi(-x), lambda_xi(x), rtol=1e-13)


@given(st.floats(-50.0, 50.0, allow_nan=False))
def test_lambda_range(x):
    val = lambda_xi(x)
    assert 0.0 < val <= 0.125


def test_lambda_branches_agree_at_cutoff():
    eps = LAMBDA_SERIES_CUTOFF * 1e-10
    below = lambda_xi(LAMBDA_SERIES_CUTOFF - eps)  # series branch
    at = lambda_xi(LAMBDA_SERIES_CUTOFF)  # direct branch
    assert abs(below - at) < 1e-12


def test_jj_bound_tight_at_both_signs():
    for xi in (1e-3, 0.5, 2.0, 9.0):
        npt.assert_allclose(jj_bound(xi, xi), expit(xi), rtol=1e-12)
        npt.assert_allclose(jj_bound(-xi, xi), expit(-xi), rtol=1e-12)


def test_jj_bound_never_exceeds_sigmoid_on_grid():
    z = np.linspace(-25.0, 25.0, 101)
    for xi in np.geomspace(1e-5, 20.0, 40):
        assert np.all(jj_bound(z, xi) <= expit(z) + 1e-12)


@settings(max_examples=200)
@given(st.floats(-30.0, 30.0), st.floats(1e-6, 30.0))
def test_jj_bound_property(z, xi):
    assert jj_bound(z, xi) <= expit(z) + 1e-12


# ---------------------------------------------------------------------------
# the two closed-form updates


def test_e_step_with_no_constraints_returns_prior():
    prior = PriorConfig(gamma0=0.7, delta=1.0)
    mu, sigma = e_step(np.empty((0, 4)), [], [], prior)
    npt.assert_array_equal(mu, np.full(4, 0.7))
    npt.assert_allclose(sigma, np.eye(4), atol=1e-14)


def test_e_step_matches_direct_inverse():
    w, y, xi = _instance(21)
    prior = PriorConfig(gamma0=0.5, delta=2.0)
    mu, sigma = e_step(w, y, xi, prior, clamp=False)

    lam = lambda_xi(xi)
    precision = prior.delta * np.eye(w.shape[1]) + 2.0 * (w.T * lam) @ w
    sigma_oracle = np.linalg.inv(precision)
    mu_oracle = sigma_oracle @ (
        np.full(w.shape[1], prior.delta * prior.gamma0) - w.T @ (y / 2.0)
    )
    npt.assert_allclose(sigma, sigma_oracle, atol=1e-12)
    npt.assert_allclose(mu, mu_oracle, atol=1e-12)


def test_e_step_is_the_bound_maximizer():
    w, y, xi = _instance(22, m=6, k=2)
    prior = PriorConfig()
    mu, sigma = e_step(w, y, xi, prior, clamp=False)

    neg = lambda m: -elbo(w, y, m, sigma, xi, prior)
    res = minimize(neg, np.zeros(3), method="BFGS", options={"gtol": 1e-12})
    npt.assert_allclose(mu, res.x, atol=1e-6)

    # finite-difference Hessian of the negative bound inverts to sigma
    dim, h = 3, 1e-3
    hess = np.empty((dim, dim))
    for a in range(dim):
        for b in range(dim):
            ea, eb = np.eye(dim)[a] * h, np.eye(dim)[b] * h
            hess[a, b] = (
                neg(mu + ea + eb) - neg(mu + ea - eb)
                - neg(mu - ea + eb) + neg(mu - ea - eb)
            ) / (4.0 * h * h)
    npt.assert_allclose(np.linalg.inv(hess), sigma, rtol=1e-6, atol=1e-9)


def test_e_step_clamp_only_floors_the_mean():
    rng = np.random.default_rng(23)
    w = random_features(rng, 12, 3) * np.array([1.0, 8.0, 8.0, 8.0])
    y = np.ones(12)
    xi = np.full(12, 1.0)
    prior = PriorConfig(gamma0=0.0, delta=1.0)
    raw, sigma_raw = e_step(w, y, xi, prior, clamp=False)
    assert raw.min() < 0  # strong similar pairs drive weights negative
    clamped, sigma = e_step(w, y, xi, prior)
    npt.assert_array_equal(clamped, np.maximum(raw, 0.0))
    npt.assert_array_equal(sigma, sigma_raw)


def test_solve_spd_inverts_and_rejects():
    npt.assert_allclose(
        _solve_spd(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), atol=1e-14
    )
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        _solve_spd(np.zeros((2, 2)))


def test_solve_spd_factors_a_stack_like_each_matrix_alone():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 2, 2))
    spd = a @ np.swapaxes(a, -1, -2) + 0.1 * np.eye(2)
    # singular to the last bit, so only the jittered retry factors it
    needs_jitter = np.ones((2, 2))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(needs_jitter)
    for stack in (spd, np.concatenate((spd[:1], needs_jitter[None], spd[1:]))):
        got = _solve_spd(stack)
        assert got.shape == stack.shape
        for g, one in zip(got, stack):
            assert g.tobytes() == _solve_spd(one).tobytes()


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_solve_spd_rejects_a_non_finite_precision(bad):
    # LAPACK's Cholesky would factor these into a zero or nan covariance
    with pytest.raises(ValueError, match="inf or nan"):
        _solve_spd(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_m_step_formula():
    w = np.array([[-1.0, 1.0, 0.0], [-1.0, 0.0, 4.0], [-1.0, 2.0, 2.0]])
    mu = np.array([0.5, 1.0, 2.0])
    sigma = 0.1 * np.eye(3)
    expected = np.sqrt((w @ mu) ** 2 + 0.1 * (w * w).sum(axis=1))
    npt.assert_allclose(m_step(w, mu, sigma), expected, rtol=1e-14)


def test_m_step_is_the_per_constraint_optimum():
    w, y, xi0 = _instance(24, m=5, k=3)
    prior = PriorConfig()
    mu, sigma = e_step(w, y, xi0, prior, clamp=False)
    xi = m_step(w, mu, sigma)
    best = elbo(w, y, mu, sigma, xi, prior)
    for c in range(len(xi)):
        for bump in (-0.01, 0.01):
            trial = xi.copy()
            trial[c] = max(trial[c] + bump, 1e-9)
            assert elbo(w, y, mu, sigma, trial, prior) <= best + 1e-12


# ---------------------------------------------------------------------------
# the bound


def test_elbo_is_zero_at_prior_with_no_constraints():
    prior = PriorConfig(gamma0=1.3, delta=1.0)
    mu = np.full(4, 1.3)
    assert elbo(np.empty((0, 4)), [], mu, np.eye(4), [], prior) == 0.0
    scaled = PriorConfig(gamma0=1.3, delta=2.5)
    val = elbo(np.empty((0, 4)), [], mu, np.eye(4) / 2.5, [], scaled)
    assert abs(val) < 1e-12


def test_each_constraint_term_is_nonpositive():
    w, y, xi = _instance(25)
    prior = PriorConfig()
    mu = np.full(w.shape[1], prior.gamma0)
    sigma = np.eye(w.shape[1]) / prior.delta
    for m in range(len(y)):
        with_m = elbo(w[: m + 1], y[: m + 1], mu, sigma, xi[: m + 1], prior)
        without = elbo(w[:m], y[:m], mu, sigma, xi[:m], prior)
        assert with_m <= without + 1e-12


def test_elbo_rejects_indefinite_sigma():
    prior = PriorConfig()
    with pytest.raises(ValueError, match="positive definite"):
        elbo(np.empty((0, 2)), [], np.zeros(2), np.diag([1.0, -1.0]), [], prior)


def test_constraint_array_validation():
    prior = PriorConfig()
    with pytest.raises(ValueError, match=r"need \(r, m, k\+1\) features .* got \(1, 3\) and"):
        e_step(np.zeros(3), [1.0], [1.0], prior)
    with pytest.raises(ValueError, match="constraint count"):
        e_step(np.zeros((2, 3)), [1.0], [1.0, 1.0], prior)
    with pytest.raises(ValueError, match=r"\+1 or -1"):
        e_step(np.zeros((1, 3)), [0.0], [1.0], prior)
    with pytest.raises(ValueError, match="strictly positive"):
        e_step(np.zeros((1, 3)), [1.0], [0.0], prior)
    with pytest.raises(ValueError, match="one entry per constraint"):
        e_step(np.zeros((1, 3)), [1.0], [1.0, 2.0], prior)


# ---------------------------------------------------------------------------
# full EM


def test_fit_with_no_constraints_returns_prior_immediately(clusters, clusters_basis):
    prior = PriorConfig(gamma0=0.8, delta=2.0)
    post = fit(ConstraintSet(()), clusters, clusters_basis, prior)
    assert post.iterations == 1 and post.converged
    assert post.bound == 0.0
    npt.assert_allclose(post.mu, np.full(4, 0.8), atol=1e-12)
    npt.assert_allclose(post.sigma, np.eye(4) / 2.0, atol=1e-12)
    assert post.bound_trajectory == (0.0, 0.0)
    stack = fit_many(np.zeros((3, 0, 4)), np.zeros((3, 0)), prior)
    for n in range(3):
        row = stack.row(n)
        assert row.iterations == 1 and row.converged and row.bound == 0.0
        npt.assert_allclose(row.mu, np.full(4, 0.8), atol=1e-12)
        npt.assert_allclose(row.sigma, np.eye(4) / 2.0, atol=1e-12)


def test_fit_trajectory_is_monotone(clusters, clusters_basis):
    rng = np.random.default_rng(26)
    for _ in range(5):
        idx = rng.choice(clusters.n, size=8, replace=False)
        items = []
        for a in range(0, 8, 2):
            i, j = int(idx[a]), int(idx[a + 1])
            y = 1 if clusters.labels[i] == clusters.labels[j] else -1
            items.append((i, j, y))
        post = fit(ConstraintSet(tuple(items)), clusters, clusters_basis)
        diffs = np.diff(post.bound_trajectory)
        assert np.all(diffs >= -1e-8)
        assert post.converged


def test_fit_single_similar_pair_raises_its_probability(clusters, clusters_basis):
    from bdml.spectral import pair_feature

    i, j = 0, 1  # same cluster
    assert clusters.labels[i] == clusters.labels[j]
    post = fit(ConstraintSet(((i, j, 1),)), clusters, clusters_basis)
    omega = pair_feature(clusters, clusters_basis, i, j).omega
    assert expit(-(omega @ post.mu)) > 0.5


def test_fit_posterior_mean_is_stationary(clusters, clusters_basis):
    items = ((0, 2, 1), (8, 20, -1), (9, 11, 1), (1, 16, -1))
    prior = PriorConfig()
    post = fit(ConstraintSet(items), clusters, clusters_basis, prior, tol=1e-12)
    from bdml.spectral import feature_matrix

    w = feature_matrix(clusters, clusters_basis, [(i, j) for i, j, _ in items])
    y = np.array([float(s) for _, _, s in items])
    h = 1e-5
    for a in range(post.mu.shape[0]):
        e = np.zeros_like(post.mu_raw)
        e[a] = h
        up = elbo(w, y, post.mu_raw + e, post.sigma, post.xi, prior)
        dn = elbo(w, y, post.mu_raw - e, post.sigma, post.xi, prior)
        assert abs(up - dn) / (2 * h) < 1e-5


def test_fit_covariance_never_exceeds_prior(clusters, clusters_basis):
    items = ((0, 2, 1), (8, 20, -1), (9, 11, 1))
    prior = PriorConfig(delta=2.0)
    post = fit(ConstraintSet(items), clusters, clusters_basis, prior)
    assert post.mu.shape == (clusters_basis.k + 1,)
    gap = np.linalg.eigvalsh(np.eye(post.mu.shape[0]) / 2.0 - post.sigma)
    assert gap.min() >= -1e-10


def test_fit_is_invariant_to_constraint_order(clusters, clusters_basis):
    items = [(0, 2, 1), (8, 20, -1), (9, 11, 1), (1, 16, -1), (3, 4, 1)]
    a = fit(ConstraintSet(tuple(items)), clusters, clusters_basis)
    b = fit(ConstraintSet(tuple(reversed(items))), clusters, clusters_basis)
    npt.assert_allclose(a.mu, b.mu, atol=1e-10)
    npt.assert_allclose(a.sigma, b.sigma, atol=1e-10)
    npt.assert_allclose(a.bound, b.bound, atol=1e-10)


def test_fit_validation(clusters, clusters_basis):
    with pytest.raises(ValueError, match="tol"):
        fit(ConstraintSet(()), clusters, clusters_basis, tol=0.0)
    with pytest.raises(ValueError, match="tol must be positive"):
        fit(ConstraintSet(((0, 1, 1), (2, 9, -1))), clusters, clusters_basis, tol=np.nan)
    with pytest.raises(ValueError, match="max_iters"):
        fit(ConstraintSet(()), clusters, clusters_basis, max_iters=0)
    with pytest.raises(IndexError):
        fit(ConstraintSet(((0, 999, 1),)), clusters, clusters_basis)


def test_fit_rejects_a_nonpositive_xi_at_start_and_after_each_m_step(
    clusters, clusters_basis, monkeypatch
):
    constraints = ConstraintSet(((0, 1, 1), (0, 20, -1)))
    with pytest.raises(ValueError, match="strictly positive"):
        fit(constraints, clusters, clusters_basis, xi0=0.0)
    calls = []
    monkeypatch.setattr(
        vb, "m_step", lambda w, mu, sigma: calls.append(1) or np.zeros(w.shape[0])
    )
    with pytest.raises(ValueError, match="strictly positive"):
        fit(constraints, clusters, clusters_basis)
    assert len(calls) == 1  # raised in the first iteration, not at the end


def _assert_bitwise_equal(a, b):
    for name in ("mu", "mu_raw", "sigma", "xi"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert (a.bound, a.iterations, a.converged, a.bound_trajectory) == (
        b.bound, b.iterations, b.converged, b.bound_trajectory
    )


def _assert_row_bitwise_equal(stack, n, post):
    """Row ``n`` of a stacked posterior, its arrays and the posterior it builds, is ``post``."""
    for name in ("mu", "mu_raw", "sigma", "xi"):
        assert getattr(stack, name)[n].tobytes() == getattr(post, name).tobytes(), name
    assert stack.weights[n].tobytes() == post.weights.tobytes()
    assert (stack.bound[n], stack.iterations[n], stack.converged[n]) == (
        post.bound, post.iterations, post.converged
    )
    its = stack.iterations[n]  # the row's trajectory, then its bound while the others iterate
    assert tuple(stack.bound_trajectory[n, : its + 1].tolist()) == post.bound_trajectory
    assert (stack.bound_trajectory[n, its:] == post.bound).all()
    _assert_bitwise_equal(stack.row(n), post)


def _stacked(problems):
    """The (features, labels) stacks of ``(constraints, data, basis)`` problems."""
    w = np.stack([feature_matrix(d, b, c.pairs) for c, d, b in problems])
    return w, np.stack([c.labels for c, _, _ in problems])


def test_fit_many_equals_fit_on_each_problem(clusters, clusters_basis):
    rng = np.random.default_rng(31)
    pairs = np.column_stack(np.triu_indices(clusters.n, 1))
    problems = []
    for _ in range(8):
        picks = pairs[rng.choice(len(pairs), size=6, replace=False)]
        items = tuple(
            (i, j, 1 if clusters.labels[i] == clusters.labels[j] else -1)
            for i, j in picks.tolist()
        )
        problems.append((ConstraintSet(items), clusters, clusters_basis))
    prior = PriorConfig(gamma0=0.5, delta=2.0)
    stacked = fit_many(*_stacked(problems), prior)
    alone = [fit(*p, prior) for p in problems]
    assert stacked.converged.all()
    assert len(set(stacked.iterations.tolist())) > 1  # frozen at different times
    for n, post in enumerate(alone):
        _assert_row_bitwise_equal(stacked, n, post)


def test_fit_many_equals_fit_when_one_problem_needs_jitter(monkeypatch):
    # Four pairs with the same feature row (-1, 1, 1) at lambda = 1/8 make a
    # precision of exactly [[1, -1, -1], [-1, 1, 1], [-1, 1, 1]]: delta = 1e-17
    # is lost in rounding, and only the jittered Cholesky factors it.
    rng = np.random.default_rng(3)
    corners = [[0, 0], [1, 1], [-1, 1], [1, -1], [-1, -1]]
    x = np.vstack((corners, rng.integers(-3, 4, size=(15, 2)))).astype(float)
    data = DataMatrix(x, np.arange(20) % 2)
    basis = EigenBasis(vectors=np.eye(2), eigenvalues=[2.0, 1.0],
                       center=np.zeros(2), scale=np.ones(2))
    problems = [(ConstraintSet(((0, 1, 1), (0, 2, -1), (0, 3, 1), (0, 4, -1))), data, basis)]
    for items in (((5, 6, 1), (7, 9, -1), (10, 15, -1), (12, 19, 1)),
                  ((5, 8, -1), (6, 11, 1), (13, 14, 1), (16, 18, -1))):
        problems.append((ConstraintSet(items), data, basis))
    prior = PriorConfig(delta=1e-17)
    failed_alone = []

    def jittered(precision, _fn=vb._jittered_factor):
        try:
            np.linalg.cholesky(precision)
        except np.linalg.LinAlgError:
            failed_alone.append(True)
        else:
            failed_alone.append(False)
        return _fn(precision)

    monkeypatch.setattr(vb, "_jittered_factor", jittered)
    stacked = fit_many(*_stacked(problems), prior, max_iters=30, xi0=1e-10)
    assert True in failed_alone and False in failed_alone
    alone = [fit(*p, prior, max_iters=30, xi0=1e-10) for p in problems]
    assert stacked.converged[0] and stacked.iterations[0] < 30
    for n, post in enumerate(alone):
        _assert_row_bitwise_equal(stacked, n, post)


def test_fit_many_validation(clusters, clusters_basis):
    w = feature_matrix(clusters, clusters_basis, ((0, 1), (0, 20)))[None]
    empty = fit_many(w[:0], np.ones((0, 2)))
    assert (empty.mu.shape, empty.sigma.shape, empty.xi.shape) == ((0, 4), (0, 4, 4), (0, 2))
    assert empty.bound.shape == empty.iterations.shape == empty.converged.shape == (0,)
    assert len(empty.bound_trajectory) == 0
    # a stack shares the constraint count and the basis size by its shape
    with pytest.raises(ValueError, match=r"\(r, m, k\+1\) features and \(r, m\) labels"):
        fit_many(w[0], np.ones(2))
    with pytest.raises(ValueError, match=r"got \(1, 2, 4\) and \(1, 3\)"):
        fit_many(w, np.ones((1, 3)))
    with pytest.raises(ValueError, match=r"\+1 or -1"):
        fit_many(w, [[1.0, 0.0]])
    with pytest.raises(ValueError, match="tol"):
        fit_many(w, np.ones((1, 2)), tol=0.0)
    for max_iters in (0, 2.5):
        with pytest.raises(ValueError, match="max_iters an integer of at least 1"):
            fit_many(w, np.ones((1, 2)), max_iters=max_iters)
    # non-finite inputs fail up front, named, not as a nan bound or a late solve error
    for xi0 in (np.inf, np.nan, 0.0):
        with pytest.raises(ValueError, match="xi must be finite and strictly positive"):
            fit_many(w, np.ones((1, 2)), xi0=xi0)
    bad = w.copy()
    bad[0, 1] = np.inf
    with pytest.raises(ValueError, match="features must be finite"):
        fit_many(bad, np.ones((1, 2)))


# ---------------------------------------------------------------------------
# posterior container


def test_posterior_validation():
    ok = dict(
        mu=np.zeros(2),
        sigma=np.eye(2),
        xi=np.ones(3),
        bound=-1.0,
        iterations=4,
        mu_raw=np.array([-0.1, 0.0]),
    )
    VariationalPosterior(**ok)
    with pytest.raises(ValueError, match="symmetric"):
        VariationalPosterior(**{**ok, "sigma": np.array([[1.0, 0.5], [0.0, 1.0]])})
    with pytest.raises(ValueError, match="positive definite"):
        VariationalPosterior(**{**ok, "sigma": np.diag([1.0, 0.0])})
    with pytest.raises(ValueError, match="strictly positive"):
        VariationalPosterior(**{**ok, "xi": np.array([1.0, 0.0, 1.0])})
    with pytest.raises(ValueError, match="nonnegative"):
        VariationalPosterior(**{**ok, "mu": np.array([-0.1, 0.0])})
    with pytest.raises(ValueError, match="shapes"):
        VariationalPosterior(**{**ok, "mu_raw": np.zeros(3)})


def test_posterior_checks_fail_a_stack_on_any_problem():
    # a stacked posterior has the checks of one posterior, failing on any row
    ok = dict(mu=np.zeros((3, 2)), sigma=np.stack([np.eye(2)] * 3), xi=np.ones((3, 4)))
    scalars = dict(bound=np.zeros(3), iterations=np.ones(3, int), mu_raw=np.zeros((3, 2)))
    VariationalPosterior(**ok, **scalars)
    bad = {"symmetric": ("sigma", (1, 0, 1), 0.5), "positive definite": ("sigma", (2, 1, 1), 0.0),
           "strictly positive": ("xi", (1, 3), 0.0), "nonnegative": ("mu", (2, 0), -0.1)}
    for message, (name, at, value) in bad.items():
        arrays = {key: a.copy() for key, a in ok.items()}
        arrays[name][at] = value
        with pytest.raises(ValueError, match=message):
            VariationalPosterior(**arrays, **scalars)
    for name, shape in (("xi", (2, 4)), ("xi", (4,)), ("sigma", (3, 2, 3)), ("mu_raw", (2, 2))):
        with pytest.raises(ValueError, match="inconsistent posterior shapes"):
            VariationalPosterior(**{**ok, **scalars, name: np.ones(shape)})


def test_fit_many_returns_read_only_arrays(clusters, clusters_basis):
    stack = fit_many(feature_matrix(clusters, clusters_basis, ((0, 1), (0, 20)))[None],
                     np.array([[1.0, -1.0]]))
    for field in dataclasses.fields(stack):
        with pytest.raises(ValueError, match="read-only"):
            getattr(stack, field.name)[...] = 0


def test_fit_many_reports_the_elbo_at_the_state_it_returns():
    # each problem's bound is the public elbo at its returned raw mean, covariance
    # and xi, bit for bit, and its trajectory ends there
    prior = PriorConfig()
    for seed in range(50):
        rng = np.random.default_rng(seed)
        r, m, k = (int(v) for v in (rng.integers(1, 8), rng.integers(1, 41), rng.integers(1, 5)))
        w = np.stack([random_features(rng, m, k) for _ in range(r)])
        y = rng.choice([-1.0, 1.0], size=(r, m))
        stack = fit_many(w, y, prior)
        for n in range(r):
            assert stack.bound[n] == elbo(w[n], y[n], stack.mu_raw[n], stack.sigma[n],
                                          stack.xi[n], prior), (seed, n)
        assert (stack.bound_trajectory[:, -1] == stack.bound).all(), seed


def test_fit_checks_its_one_posterior_once(clusters, clusters_basis, monkeypatch):
    constraints = ConstraintSet(((0, 1, 1), (0, 20, -1), (3, 21, -1)))
    stack = fit_many(feature_matrix(clusters, clusters_basis, constraints.pairs)[None],
                     constraints.labels[None])
    assert type(stack) is VariationalPosterior and stack.mu.shape == (1, 4)
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a, _fn=np.linalg.eigvalsh: calls.append(a.shape) or _fn(a))
    built = []
    monkeypatch.setattr(VariationalPosterior, "__post_init__",
                        lambda self, _fn=VariationalPosterior.__post_init__: built.append(1)
                        or _fn(self))
    post = fit(constraints, clusters, clusters_basis)
    assert calls == [(1, 4, 4)] and built == [1]  # the stack of one, not its row again
    _assert_bitwise_equal(stack.row(0), post)
    assert built == [1]  # row(n) reruns no check
    assert (post.mu.shape, post.weights is post.mu) == ((4,), True)


def test_prior_validation():
    with pytest.raises(ValueError, match="gamma0"):
        PriorConfig(gamma0=-1.0)
    with pytest.raises(ValueError, match="delta"):
        PriorConfig(delta=0.0)
