import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import expit

from bdml import vb
from bdml.spectral import ConstraintSet
from bdml.vb import (
    LAMBDA_SERIES_CUTOFF,
    PriorConfig,
    VariationalPosterior,
    _solve_spd,
    e_step,
    elbo,
    fit,
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
    with pytest.raises(ValueError, match="2-d"):
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


def test_posterior_serialization_round_trip(clusters, clusters_basis):
    prior = PriorConfig(gamma0=0.5, delta=3.0)
    post = fit(ConstraintSet(((0, 2, 1), (8, 20, -1))), clusters, clusters_basis, prior)
    doc = post.to_dict(prior)
    assert doc["prior"] == {"gamma0": 0.5, "delta": 3.0}
    back = VariationalPosterior.from_dict(doc)
    npt.assert_array_equal(back.mu, post.mu)
    npt.assert_array_equal(back.mu_raw, post.mu_raw)
    npt.assert_array_equal(back.sigma, post.sigma)
    npt.assert_array_equal(back.xi, post.xi)
    assert back.bound == post.bound
    assert back.iterations == post.iterations
    assert back.converged == post.converged
    assert back.bound_trajectory == post.bound_trajectory
    assert post.k == clusters_basis.k


def test_prior_validation():
    with pytest.raises(ValueError, match="gamma0"):
        PriorConfig(gamma0=-1.0)
    with pytest.raises(ValueError, match="delta"):
        PriorConfig(delta=0.0)
