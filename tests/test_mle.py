import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import expit

from bdml.active import PairPool
from bdml.harness import label_initial_pairs
from bdml.mle import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    MleSolution,
    _derivatives,
    _negative_hessian,
    _newton_direction,
    mle_fit,
    mle_gradient,
    mle_objective,
)
from bdml.spectral import (
    ConstraintSet, DataMatrix, EigenBasis, eigen_basis, feature_matrix, load_csv,
    pair_feature,
)
from conftest import benchmark_module, random_features, random_labels


def _instance(seed, m=10, k=3):
    rng = np.random.default_rng(seed)
    return random_features(rng, m, k), random_labels(rng, m)


# ---------------------------------------------------------------------------
# objective and gradient


def test_objective_at_zero_is_m_log_two():
    w, y = _instance(31, m=7)
    npt.assert_allclose(
        mle_objective(np.zeros(4), w, y, reg=0.0), -7 * np.log(2.0), rtol=1e-14
    )


def test_objective_approaches_zero_from_below_when_separable():
    w = np.array([[-1.0, 3.0]])
    y = np.array([-1.0])
    gamma = np.array([0.0, 1.0])
    near = mle_objective(10.0 * gamma, w, y, reg=0.0)
    far = mle_objective(gamma, w, y, reg=0.0)
    assert far < near < 0.0
    assert near > -1e-12


def test_objective_matches_naive_summation():
    w, y = _instance(32)
    rng = np.random.default_rng(33)
    gamma = rng.gamma(1.0, size=4)
    reg = 0.3
    naive = -sum(
        math.log1p(math.exp(yi * (wi @ gamma))) for wi, yi in zip(w, y)
    ) - 0.5 * reg * float(gamma @ gamma)
    npt.assert_allclose(mle_objective(gamma, w, y, reg), naive, atol=1e-10)


def test_gradient_at_zero_single_similar_pair():
    w = np.array([[-1.0, 2.0, 0.5]])
    grad = mle_gradient(np.zeros(3), w, [1.0], reg=0.0)
    npt.assert_allclose(grad, -w[0] / 2.0, rtol=1e-15)


def test_gradient_cancels_on_label_symmetric_pairs():
    row = np.array([-1.0, 1.5, 0.2])
    w = np.stack([row, row])
    grad = mle_gradient(np.zeros(3), w, [1.0, -1.0], reg=0.7)
    npt.assert_allclose(grad, np.zeros(3), atol=1e-15)


@pytest.mark.parametrize("seed", [34, 35, 36])
def test_gradient_matches_finite_differences(seed):
    w, y = _instance(seed, m=9, k=4)
    rng = np.random.default_rng(seed + 100)
    gamma = rng.gamma(1.0, size=5)
    reg = 0.1
    grad = mle_gradient(gamma, w, y, reg)
    h = 1e-6
    for a in range(5):
        e = np.zeros(5)
        e[a] = h
        fd = (
            mle_objective(gamma + e, w, y, reg)
            - mle_objective(gamma - e, w, y, reg)
        ) / (2.0 * h)
        assert abs(fd - grad[a]) / max(1.0, abs(grad[a])) < 1e-5


@pytest.mark.parametrize("seed", [34, 35, 36])
def test_negative_hessian_matches_finite_differences_of_the_gradient(seed):
    w, y = _instance(seed, m=9, k=4)
    rng = np.random.default_rng(seed + 200)
    gamma = rng.gamma(1.0, size=5)
    reg = 0.1
    grad, curvature = _derivatives(gamma, w, y, reg)
    neg_hess = _negative_hessian(w, curvature, reg)
    npt.assert_array_equal(grad, mle_gradient(gamma, w, y, reg))
    npt.assert_allclose(neg_hess, neg_hess.T, rtol=1e-14, atol=0)
    h = 1e-5
    for a in range(5):
        e = np.zeros(5)
        e[a] = h
        fd = (mle_gradient(gamma + e, w, y, reg) - mle_gradient(gamma - e, w, y, reg)) / (2.0 * h)
        assert np.all(np.abs(fd + neg_hess[a]) / np.maximum(1.0, np.abs(neg_hess[a])) < 1e-6)


def test_newton_direction_falls_back_to_the_gradient_on_a_singular_block():
    gamma = np.array([1.0, 2.0, 0.0])
    grad = np.array([0.5, -1.0, 2.0])
    v = np.array([1.0, 2.0, 3.0])
    for singular in (np.zeros((3, 3)), np.outer(v, v)):
        npt.assert_array_equal(_newton_direction(gamma, grad, singular), grad)
    # a held coordinate (zero, gradient pointing outward) keeps its gradient
    hess = np.diag([2.0, 4.0, 8.0]) + 0.1
    gamma[2], grad[2] = 0.0, -2.0
    d = _newton_direction(gamma, grad, hess)
    assert d[2] == -2.0
    npt.assert_allclose(d[:2], np.linalg.solve(hess[:2, :2], grad[:2]), rtol=1e-14)


def test_input_validation():
    with pytest.raises(ValueError, match="one column per weight"):
        mle_objective(np.zeros(3), np.zeros((2, 4)), [1.0, 1.0])
    with pytest.raises(ValueError, match="constraint count"):
        mle_objective(np.zeros(3), np.zeros((2, 3)), [1.0])
    with pytest.raises(ValueError, match="reg"):
        mle_objective(np.zeros(3), np.zeros((1, 3)), [1.0], reg=-0.1)
    with pytest.raises(ValueError, match="reg must be >= 0, got nan"):
        mle_objective(np.zeros(3), np.zeros((1, 3)), [1.0], reg=float("nan"))


# ---------------------------------------------------------------------------
# the fitter


def test_fit_with_no_constraints_stays_at_zero(clusters, clusters_basis):
    sol = mle_fit(ConstraintSet(()), clusters, clusters_basis)
    npt.assert_array_equal(sol.gamma, np.zeros(clusters_basis.k + 1))
    assert sol.objective == 0.0
    assert sol.converged and sol.iterations == 0


def test_fit_separable_instance_lands_on_the_right_sides():
    basis = EigenBasis(
        vectors=np.array([[1.0]]),
        eigenvalues=np.array([1.0]),
        center=np.zeros(1),
        scale=np.ones(1),
    )
    data = DataMatrix([[0.0], [0.1], [5.0]])
    sol = mle_fit(ConstraintSet(((0, 1, 1), (0, 2, -1))), data, basis, reg=0.1)
    sim = pair_feature(data, basis, 0, 1).omega
    dis = pair_feature(data, basis, 0, 2).omega
    assert expit(-(sim @ sol.gamma)) > 0.5
    assert expit(-(dis @ sol.gamma)) < 0.5
    assert sol.converged


def test_fit_never_reports_below_the_zero_point(clusters, clusters_basis):
    rng = np.random.default_rng(37)
    for _ in range(5):
        idx = rng.choice(clusters.n, size=6, replace=False)
        items = tuple(
            (int(idx[a]), int(idx[a + 1]),
             1 if clusters.labels[idx[a]] == clusters.labels[idx[a + 1]] else -1)
            for a in range(0, 6, 2)
        )
        sol = mle_fit(ConstraintSet(items), clusters, clusters_basis, reg=0.5)
        floor = mle_objective(
            np.zeros(clusters_basis.k + 1), *_constraint_arrays(
                clusters, clusters_basis, items), reg=0.5)
        assert sol.objective >= floor - 1e-12
        assert np.all(sol.gamma >= 0)


def _constraint_arrays(data, basis, items):
    from bdml.spectral import feature_matrix

    w = feature_matrix(data, basis, [(i, j) for i, j, _ in items])
    y = np.array([float(s) for _, _, s in items])
    return w, y


def test_fit_symmetric_instance_converges_at_zero_immediately():
    basis = EigenBasis(
        vectors=np.array([[1.0]]),
        eigenvalues=np.array([1.0]),
        center=np.zeros(1),
        scale=np.ones(1),
    )
    # both labels on pairs with identical squared distance: gradient is 0 at 0
    data = DataMatrix([[0.0], [1.0], [2.0], [3.0]])
    sol = mle_fit(ConstraintSet(((0, 1, 1), (2, 3, -1))), data, basis, reg=0.0)
    npt.assert_array_equal(sol.gamma, np.zeros(2))
    assert sol.converged and sol.iterations == 0


def test_fit_solution_is_a_constrained_stationary_point(clusters, clusters_basis):
    items = ((0, 2, 1), (8, 20, -1), (9, 11, 1), (1, 16, -1))
    sol = mle_fit(ConstraintSet(items), clusters, clusters_basis, reg=0.2, tol=1e-8)
    assert sol.converged
    w, y = _constraint_arrays(clusters, clusters_basis, items)
    grad = mle_gradient(sol.gamma, w, y, reg=0.2)
    proj = np.where(sol.gamma > 0, grad, np.maximum(grad, 0.0))
    assert np.linalg.norm(proj) < 1e-8


def _oracle_instance(seed):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(4, 16)), int(rng.integers(1, 6))
    k = int(rng.integers(1, min(d, n - 1) + 1))
    data = DataMatrix(rng.standard_normal((n, d)) * rng.gamma(1.0, size=d))
    basis = eigen_basis(data, k=k, standardize=False)
    candidates = np.column_stack(np.triu_indices(n, 1))
    m = int(rng.integers(1, min(30, len(candidates)) + 1))
    pairs = candidates[rng.choice(len(candidates), size=m, replace=False)]
    items = np.column_stack((pairs, rng.choice([-1, 1], size=m)))
    return ConstraintSet(items), data, basis


def _lbfgsb_oracle(w, y, reg):
    res = minimize(
        lambda g: -mle_objective(g, w, y, reg), np.zeros(w.shape[1]),
        jac=lambda g: -mle_gradient(g, w, y, reg), method="L-BFGS-B",
        bounds=[(0.0, None)] * w.shape[1],
        options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 20000},
    )
    return res.x, -res.fun


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), reg=st.sampled_from([1e-6, 0.1, 1.0, 5.0]))
# curvature near 1e4-1e5 leaves a projected gradient above tol whose remaining
# gain is below the objective's rounding, so the line search stalls there
@example(seed=143, reg=1.0)
@example(seed=1451, reg=0.1)
@example(seed=1451, reg=1e-6)
def test_fit_agrees_with_an_lbfgsb_oracle(seed, reg):
    # With ||pg|| < tol at the returned point and the objective reg-strongly
    # concave, |gamma - gamma*| < tol/reg and objective* - objective < tol^2/reg.
    # For reg >= 0.1 that pins gamma to 1e-5; at reg = 1e-6 the maximizer sits
    # on a nearly flat ridge, so only the objective is compared (within 1e-6).
    constraints, data, basis = _oracle_instance(seed)
    sol = mle_fit(constraints, data, basis, reg=reg)
    assert sol.converged and sol.iterations <= 50
    w = feature_matrix(data, basis, constraints.pairs)
    gamma, value = _lbfgsb_oracle(w, constraints.labels, reg)
    assert sol.objective >= value - DEFAULT_TOL**2 / reg
    if reg >= 0.1:
        assert np.linalg.norm(sol.gamma - gamma) < DEFAULT_TOL / reg + 1e-9


@pytest.mark.parametrize("seed", [0, 7, 13, 99, 2026])
def test_score_pairs_fit_at_the_default_reg_converges(seed, tmp_path):
    # the score-pairs MLE_ACT fit of benchmarks/compare_outputs.py; a
    # gradient step restarted at t = 1 needs over 500 iterations on each seed
    benchmark_module("compare_outputs").write_clusters(tmp_path / "data.csv", 1, 10)
    data = load_csv(tmp_path / "data.csv")
    basis = eigen_basis(data, k=2, standardize=False)
    pool = PairPool(candidates=np.column_stack(np.triu_indices(data.n, 1)))
    pool = label_initial_pairs(pool, data, 10, seed)
    sol = mle_fit(pool.labeled, data, basis)
    assert sol.converged and sol.iterations <= 30


def test_fit_at_reg_zero_with_fewer_constraints_than_weights_stays_finite(
        clusters, clusters_basis):
    # the negative Hessian has rank 2 of 4, so the fit runs on gradient steps
    items = ((0, 2, 1), (8, 20, -1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = mle_fit(ConstraintSet(items), clusters, clusters_basis, reg=0.0)
    assert np.all(np.isfinite(sol.gamma)) and np.isfinite(sol.objective)
    assert sol.objective >= -2 * np.log(2.0)
    # Measured behaviour, not a requirement: the ascent creeps toward the
    # unattained supremum 0 for all max_iters gradient steps (a FOUND line
    # in CHANGES.md).  A fit that learns to stop early must update this.
    assert not sol.converged and sol.iterations == DEFAULT_MAX_ITERS


def test_fit_at_reg_zero_on_a_separable_instance_stops_early():
    # the supremum 0 is not attained; the fit must stop, and claim
    # convergence only where it has come within 1e-6 of the supremum
    basis = EigenBasis(
        vectors=np.array([[1.0]]),
        eigenvalues=np.array([1.0]),
        center=np.zeros(1),
        scale=np.ones(1),
    )
    data = DataMatrix([[0.0], [0.1], [5.0]])
    sol = mle_fit(ConstraintSet(((0, 1, 1), (0, 2, -1))), data, basis, reg=0.0)
    assert sol.iterations <= DEFAULT_MAX_ITERS // 10
    assert not sol.converged or sol.objective > -1e-6


def test_fit_validation(clusters, clusters_basis):
    with pytest.raises(ValueError, match="tol"):
        mle_fit(ConstraintSet(()), clusters, clusters_basis, tol=0.0)
    with pytest.raises(ValueError, match="max_iters"):
        mle_fit(ConstraintSet(()), clusters, clusters_basis, max_iters=0)
    with pytest.raises(IndexError):
        mle_fit(ConstraintSet(((0, 999, 1),)), clusters, clusters_basis)
    with pytest.raises(ValueError, match="reg must be >= 0, got nan"):
        mle_fit(ConstraintSet(((0, 1, 1),)), clusters, clusters_basis, reg=float("nan"))


def test_solution_container_validation():
    MleSolution(gamma=np.zeros(2), objective=-1.0, converged=True, iterations=3)
    with pytest.raises(ValueError, match="nonnegative"):
        MleSolution(gamma=np.array([-0.1]), objective=-1.0,
                    converged=True, iterations=0)
    with pytest.raises(ValueError, match="finite"):
        MleSolution(gamma=np.zeros(2), objective=np.nan,
                    converged=False, iterations=0)
    with pytest.raises(ValueError, match="vector"):
        MleSolution(gamma=np.zeros((2, 2)), objective=0.0,
                    converged=False, iterations=0)
    assert MleSolution(np.zeros(4), 0.0, True, 1).k == 3
