import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import expit

from bdml.mle import (
    MleSolution,
    mle_fit,
    mle_gradient,
    mle_objective,
)
from bdml.spectral import ConstraintSet, DataMatrix, EigenBasis, pair_feature
from conftest import random_features, random_labels


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
