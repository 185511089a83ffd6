import dataclasses
import math
import warnings
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import expit

from bdml import kernels, mle, vb
from bdml.active import PairPool
from bdml.harness import label_initial_pairs
from bdml.mle import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    MleSolution,
    _derivatives,
    _newton_direction,
    fit_many,
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
    neg_hess = kernels.weighted_gram(w, curvature, reg)
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
        npt.assert_array_equal(_newton_direction(gamma[None], grad[None], singular[None]),
                               grad[None])
    # a held coordinate (zero, gradient pointing outward) keeps its gradient
    hess = np.diag([2.0, 4.0, 8.0]) + 0.1
    held_gamma, held_grad = gamma.copy(), grad.copy()
    held_gamma[2], held_grad[2] = 0.0, -2.0
    [d] = _newton_direction(held_gamma[None], held_grad[None], hess[None])
    assert d[2] == -2.0
    npt.assert_allclose(d[:2], np.linalg.solve(hess[:2, :2], held_grad[:2]), rtol=1e-14)
    # in one stack: the singular block keeps its gradient, the other two
    # problems share their free set and are solved together
    stacked = _newton_direction(np.stack([gamma, held_gamma, held_gamma]),
                                np.stack([grad, held_grad, held_grad]),
                                np.stack([np.outer(v, v), hess, hess]))
    npt.assert_array_equal(stacked, [grad, d, d])


def test_input_validation():
    with pytest.raises(ValueError, match="one column per weight"):
        mle_objective(np.zeros(3), np.zeros((2, 4)), [1.0, 1.0])
    with pytest.raises(ValueError, match="constraint count"):
        mle_objective(np.zeros(3), np.zeros((2, 3)), [1.0])
    with pytest.raises(ValueError, match="reg"):
        mle_objective(np.zeros(3), np.zeros((1, 3)), [1.0], reg=-0.1)
    with pytest.raises(ValueError, match="reg must be >= 0, got nan"):
        mle_objective(np.zeros(3), np.zeros((1, 3)), [1.0], reg=float("nan"))
    # one problem is checked as a stack of one, by the check vb shares
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="features must be finite"):
            mle_objective(np.zeros(3), np.array([[-1.0, bad, 0.0]]), [1.0])
        with pytest.raises(ValueError, match=r"labels must be \+1 or -1"):
            mle_gradient(np.zeros(3), np.zeros((1, 3)), [bad])


@pytest.mark.parametrize("bad", [0.5, 2.0])
def test_mle_refuses_a_label_other_than_plus_or_minus_one_as_vb_does(bad, clusters,
                                                                     clusters_basis):
    w, y = _stack(9, 2, 3, clusters_basis.k)
    y[1, 1] = bad
    # stands in for a ConstraintSet, which refuses such a label itself
    constraints = SimpleNamespace(pairs=np.array([[0, 1], [0, 2], [1, 2]]), labels=y[1])
    for call in (lambda: fit_many(w, y), lambda: vb.fit_many(w, y),
                 lambda: mle_fit(constraints, clusters, clusters_basis),
                 lambda: vb.fit(constraints, clusters, clusters_basis),
                 lambda: mle_objective(np.zeros(w.shape[2]), w[1], y[1]),
                 lambda: mle_gradient(np.zeros(w.shape[2]), w[1], y[1])):
        with pytest.raises(ValueError, match=r"^labels must be \+1 or -1$"):
            call()


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
    # L-BFGS-B can stop on its ftol test short of the maximizer (3.6e-7 away
    # at seed=18373862, reg=5.0), so it restarts from its own result with
    # ftol=0 until its projected gradient is negligible against tol, or a
    # restart no longer moves it (the gradient's rounding floor)
    x, ftol = np.zeros(w.shape[1]), 1e-15
    for _ in range(10):
        res = minimize(
            lambda g: -mle_objective(g, w, y, reg), x,
            jac=lambda g: -mle_gradient(g, w, y, reg), method="L-BFGS-B",
            bounds=[(0.0, None)] * w.shape[1],
            options={"ftol": ftol, "gtol": 1e-12, "maxiter": 20000},
        )
        moved, x, ftol = not np.array_equal(res.x, x), res.x, 0.0
        grad = mle_gradient(x, w, y, reg)
        pg = np.where(x > 0, grad, np.maximum(grad, 0.0))
        if not moved or np.linalg.norm(pg) < 1e-3 * DEFAULT_TOL:
            break
    return x, -res.fun


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), reg=st.sampled_from([1e-6, 0.1, 1.0, 5.0]))
# curvature near 1e4-1e5 leaves a projected gradient above tol whose remaining
# gain is below the objective's rounding, so the line search stalls there
@example(seed=143, reg=1.0)
@example(seed=1451, reg=0.1)
@example(seed=1451, reg=1e-6)
# L-BFGS-B's first run stops 3.6e-7 short of the maximizer here
@example(seed=18373862, reg=5.0)
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
    with pytest.raises(ValueError, match="tol must be positive"):
        mle_fit(ConstraintSet(((0, 1, 1), (2, 9, -1))), clusters, clusters_basis, tol=np.nan)
    with pytest.raises(ValueError, match="max_iters"):
        mle_fit(ConstraintSet(()), clusters, clusters_basis, max_iters=0)
    with pytest.raises(IndexError):
        mle_fit(ConstraintSet(((0, 999, 1),)), clusters, clusters_basis)
    with pytest.raises(ValueError, match="reg must be >= 0, got nan"):
        mle_fit(ConstraintSet(((0, 1, 1),)), clusters, clusters_basis, reg=float("nan"))
    with pytest.raises(ValueError, match="reg must be finite, got inf"):
        mle_fit(ConstraintSet(((0, 1, 1),)), clusters, clusters_basis, reg=np.inf)


# ---------------------------------------------------------------------------
# the stacked fitter


def _stack(seed, r, m, k):
    """r problems of m pair-like constraints; each problem's body has its own
    scale, 1e-2 to 1e3, so curvatures (and stalled line searches) vary."""
    rng = np.random.default_rng(seed)
    body = rng.gamma(1.5, size=(r, m, k)) * 10.0 ** rng.uniform(-2, 3, size=(r, 1, 1))
    return (np.concatenate([-np.ones((r, m, 1)), body], axis=-1),
            rng.choice([-1.0, 1.0], size=(r, m)))


def _same_solution(a, b):
    return (a.gamma.tobytes() == b.gamma.tobytes() and a.objective == b.objective
            and a.iterations == b.iterations and a.converged == b.converged)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), r=st.integers(1, 6),
       m=st.sampled_from([0, 1, 2, 3, 8, 20]), k=st.integers(1, 4),
       reg=st.sampled_from([0.0, 1e-6, 0.1, 5.0]), max_iters=st.sampled_from([1, 3, 60]))
# a stalled line search that counts as converged, in a stack of mixed free sets
@example(seed=946168879, r=4, m=2, k=4, reg=0.1, max_iters=60)
# reg = 0 with fewer constraints than weights: singular blocks, so the
# stacked factorization fails and every problem runs on gradient steps
# to max_iters
@example(seed=4082534881, r=5, m=2, k=4, reg=0.0, max_iters=60)
@example(seed=0, r=3, m=0, k=2, reg=1.0, max_iters=60)
def test_fit_many_gives_every_problem_its_alone_fit_bit_for_bit(seed, r, m, k, reg, max_iters):
    w, y = _stack(seed, r, m, k)
    stacked = fit_many(w, y, reg=reg, max_iters=max_iters)
    assert len(stacked.weights) == r
    for n in range(r):
        alone = fit_many(w[n:n+1], y[n:n+1], reg=reg, max_iters=max_iters).row(0)
        assert _same_solution(stacked.row(n), alone), n
        assert (stacked.weights[n].tobytes(), stacked.objective[n], stacked.iterations[n],
                stacked.converged[n]) == (alone.gamma.tobytes(), alone.objective,
                                          alone.iterations, alone.converged), n


@pytest.mark.parametrize("reg", [5.0, 0.5, 1e-6])
def test_fit_many_reports_the_objective_at_the_weights_it_returns(reg):
    # each problem's objective is the public mle_objective at its returned gamma, bit for bit
    for seed in range(20):
        rng = np.random.default_rng(seed)
        r, m, k = (int(v) for v in (rng.integers(1, 8), rng.integers(1, 41), rng.integers(1, 5)))
        w, y = _stack(seed, r, m, k)
        stack = fit_many(w, y, reg=reg)
        for n in range(r):
            assert stack.objective[n] == mle_objective(stack.gamma[n], w[n], y[n], reg), (seed, n)


def test_fit_many_fails_whole_on_an_error_in_any_problem():
    w, y = _stack(5, 3, 8, 2)
    y[1, 4] = np.nan
    for n in (0, 2):
        fit_many(w[n:n+1], y[n:n+1])
    for args in ((w, y), (w[1:2], y[1:2])):
        with pytest.raises(ValueError, match=r"labels must be \+1 or -1"):
            fit_many(*args)
    w, y = _stack(5, 3, 8, 2)
    w[2, 0, 1] = np.inf
    with pytest.raises(ValueError, match="features must be finite"):
        fit_many(w, y)


def test_fit_many_validation():
    w, y = _stack(6, 2, 3, 2)
    empty = fit_many(w[:0], y[:0])
    assert empty.weights.shape == (0, 3)
    assert empty.objective.shape == empty.converged.shape == empty.iterations.shape == (0,)
    with pytest.raises(ValueError, match=r"need \(r, m, k\+1\) features and \(r, m\) labels"):
        fit_many(w[0], y[0])
    with pytest.raises(ValueError, match=r"got \(2, 3, 3\) and \(2, 2\)"):
        fit_many(w, y[:, :2])
    with pytest.raises(ValueError, match="tol"):
        fit_many(w, y, tol=0.0)
    for max_iters in (0, 2.5):
        with pytest.raises(ValueError, match="max_iters an integer of at least 1"):
            fit_many(w, y, max_iters=max_iters)
    with pytest.raises(ValueError, match="reg must be >= 0, got -1.0"):
        fit_many(w, y, reg=-1.0)


def test_solution_checks_fail_a_stack_on_any_problem():
    # a stacked solution has the checks of one solution, failing on any row
    gamma, objective = np.zeros((3, 2)), np.full(3, -1.0)
    flags = dict(converged=np.ones(3, bool), iterations=np.ones(3, int))
    MleSolution(gamma.copy(), objective, **flags)
    gamma[1, 1] = -0.1
    with pytest.raises(ValueError, match="nonnegative"):
        MleSolution(gamma, objective, **flags)
    objective[2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        MleSolution(np.zeros((3, 2)), objective, **flags)
    with pytest.raises(ValueError, match="one vector per objective"):
        MleSolution(np.zeros((2, 2)), np.zeros(3), **flags)
    stack = fit_many(*_stack(7, 2, 3, 2))
    for field in dataclasses.fields(stack):
        with pytest.raises(ValueError, match="read-only"):
            getattr(stack, field.name)[...] = 0


def test_fit_many_returns_one_checked_solution_whose_rows_are_not_rechecked(monkeypatch):
    w, y = _stack(8, 3, 4, 2)
    built = []
    monkeypatch.setattr(MleSolution, "__post_init__",
                        lambda self, _fn=MleSolution.__post_init__: built.append(1) or _fn(self))
    stack = fit_many(w, y)
    assert type(stack) is MleSolution and stack.gamma.shape == (3, 3) and built == [1]
    assert stack.weights is stack.gamma and stack.gamma.shape[-1] == 3
    for n in range(3):
        row = stack.row(n)
        assert (type(row.objective), type(row.converged), type(row.iterations)) == (
            float, bool, int)
        assert _same_solution(row, fit_many(w[n:n+1], y[n:n+1]).row(0))
    assert built == [1] + [1] * 3  # the three fits of one, no row


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
    assert MleSolution(np.zeros(4), 0.0, True, 1).gamma.shape == (4,)
