import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import bdml
from bdml.metric import (
    MetricModel,
    accuracy,
    distance,
    euclidean_knn,
    from_augmented,
    from_mle,
    from_posterior,
    knn_classify,
)
from bdml.mle import MleSolution
from bdml.spectral import DataMatrix, EigenBasis, eigen_basis
from bdml.vb import VariationalPosterior


def _full_basis(d):
    return EigenBasis(
        vectors=np.eye(d),
        eigenvalues=np.ones(d),
        center=np.zeros(d),
        scale=np.ones(d),
    )


def _model(basis, weights, threshold=0.5):
    return MetricModel(basis=basis, weights=weights, threshold=threshold)


# ---------------------------------------------------------------------------
# construction


def test_from_augmented_unpacks_and_round_trips():
    basis = _full_basis(2)
    model = from_augmented([0.5, 1.0, 2.0], basis)
    assert model.threshold == 0.5
    npt.assert_array_equal(model.weights, [1.0, 2.0])
    npt.assert_array_equal(model.augmented, [0.5, 1.0, 2.0])
    from_augmented(np.zeros(3), basis)  # all-zero weights are legal
    with pytest.raises(ValueError, match="length 3"):
        from_augmented(np.zeros(4), basis)


def test_constructors_delegate():
    basis = _full_basis(2)
    post = VariationalPosterior(
        mu=np.array([0.3, 1.0, 0.0]),
        sigma=np.eye(3),
        xi=np.ones(1),
        bound=-1.0,
        iterations=1,
        mu_raw=np.array([0.3, 1.0, -0.1]),
    )
    m1 = from_posterior(post, basis)
    npt.assert_array_equal(m1.augmented, post.mu)
    sol = MleSolution(gamma=np.array([0.1, 2.0, 3.0]), objective=-1.0,
                      converged=True, iterations=5)
    m2 = from_mle(sol, basis)
    npt.assert_array_equal(m2.augmented, sol.gamma)


def test_model_validation():
    basis = _full_basis(2)
    with pytest.raises(ValueError, match="shape"):
        _model(basis, np.ones(3))
    with pytest.raises(ValueError, match="nonnegative"):
        _model(basis, np.array([1.0, -0.1]))
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="weights must be finite"):
            _model(basis, np.array([bad, 1.0]))
    with pytest.raises(ValueError, match="threshold"):
        _model(basis, np.ones(2), threshold=-1.0)
    with pytest.raises(ValueError, match="threshold"):
        _model(basis, np.ones(2), threshold=np.inf)


def test_serialization_round_trip(clusters, clusters_basis):
    model = _model(clusters_basis, np.array([1.0, 0.5, 0.0]), threshold=0.7)
    back = MetricModel.from_dict(model.to_dict())
    npt.assert_array_equal(back.weights, model.weights)
    assert back.threshold == model.threshold
    npt.assert_array_equal(back.basis.vectors, model.basis.vectors)
    npt.assert_array_equal(back.basis.center, model.basis.center)
    import json

    json.dumps(model.to_dict())  # plain types only


# ---------------------------------------------------------------------------
# the quadratic form


def test_distance_is_zero_at_identical_points():
    model = _model(_full_basis(3), np.array([1.0, 2.0, 3.0]))
    x = np.array([0.3, -1.0, 2.0])
    assert distance(model, x, x) == 0.0


def test_unit_weights_on_the_full_basis_recover_euclidean():
    rng = np.random.default_rng(50)
    model = _model(_full_basis(4), np.ones(4))
    for _ in range(5):
        x, z = rng.normal(size=4), rng.normal(size=4)
        npt.assert_allclose(
            distance(model, x, z), ((x - z) ** 2).sum(), rtol=1e-12
        )


def test_distance_matches_dense_matrix_oracle(clusters, clusters_basis):
    rng = np.random.default_rng(51)
    weights = rng.gamma(1.0, size=clusters_basis.k)
    model = _model(clusters_basis, weights)
    v = clusters_basis.vectors
    dense = v.T @ np.diag(weights) @ v  # unit scales in this basis
    for _ in range(5):
        x, z = rng.normal(size=clusters.d), rng.normal(size=clusters.d)
        npt.assert_allclose(
            distance(model, x, z), (x - z) @ dense @ (x - z), rtol=1e-10
        )


def test_distance_is_nonnegative_and_symmetric(clusters, clusters_basis):
    rng = np.random.default_rng(52)
    model = _model(clusters_basis, rng.gamma(1.0, size=clusters_basis.k))
    for _ in range(20):
        x, z = rng.normal(size=clusters.d), rng.normal(size=clusters.d)
        d = distance(model, x, z)
        assert d >= 0.0
        npt.assert_allclose(d, distance(model, z, x), rtol=1e-12)


def test_root_distance_satisfies_the_triangle_inequality(clusters, clusters_basis):
    rng = np.random.default_rng(53)
    model = _model(clusters_basis, rng.gamma(1.0, size=clusters_basis.k))
    for _ in range(20):
        x, y, z = rng.normal(size=(3, clusters.d))
        lhs = np.sqrt(distance(model, x, z))
        rhs = np.sqrt(distance(model, x, y)) + np.sqrt(distance(model, y, z))
        assert lhs <= rhs + 1e-12


# ---------------------------------------------------------------------------
# nearest neighbor


def test_knn_single_training_row():
    model = _model(_full_basis(2), np.ones(2))
    train = DataMatrix([[0.0, 0.0]], labels=[7])
    queries = DataMatrix([[5.0, 5.0], [-3.0, 1.0]])
    npt.assert_array_equal(knn_classify(model, train, queries), [7, 7])


def test_knn_query_on_a_training_row_returns_its_label(clusters, clusters_basis):
    model = _model(clusters_basis, np.array([1.0, 1.0, 0.5]))
    queries = DataMatrix(clusters.x[[4, 17]])
    got = knn_classify(model, clusters, queries)
    npt.assert_array_equal(got, clusters.labels[[4, 17]])


def test_knn_matches_brute_force(clusters, clusters_basis):
    rng = np.random.default_rng(54)
    weights = rng.gamma(1.0, size=clusters_basis.k)
    model = _model(clusters_basis, weights)
    train = clusters.subset(range(8))
    queries = DataMatrix(rng.normal(size=(4, clusters.d)))
    expected = []
    for q in queries.x:
        dists = [distance(model, q, t) for t in train.x]
        expected.append(train.labels[int(np.argmin(dists))])
    npt.assert_array_equal(knn_classify(model, train, queries), expected)


def test_knn_zero_weights_fall_back_to_the_first_row(clusters, clusters_basis):
    model = _model(clusters_basis, np.zeros(clusters_basis.k))
    queries = DataMatrix(clusters.x[[10, 20]])
    got = knn_classify(model, clusters, queries)
    npt.assert_array_equal(got, [clusters.labels[0]] * 2)


def test_knn_predictions_ignore_weight_scale(clusters, clusters_basis):
    rng = np.random.default_rng(55)
    weights = rng.gamma(1.0, size=clusters_basis.k)
    queries = DataMatrix(rng.normal(size=(6, clusters.d)))
    a = knn_classify(_model(clusters_basis, weights), clusters, queries)
    b = knn_classify(_model(clusters_basis, 10.0 * weights), clusters, queries)
    npt.assert_array_equal(a, b)


def test_knn_validation(clusters, clusters_basis):
    model = _model(clusters_basis, np.ones(clusters_basis.k))
    with pytest.raises(ValueError, match="labeled"):
        knn_classify(model, DataMatrix(clusters.x), DataMatrix(clusters.x))
    with pytest.raises(ValueError, match="dimension"):
        knn_classify(model, clusters, DataMatrix(np.zeros((2, 2))))


def test_euclidean_knn_matches_brute_force(clusters):
    rng = np.random.default_rng(56)
    queries = DataMatrix(rng.normal(size=(5, clusters.d)))
    expected = [
        clusters.labels[int(np.argmin(((q - clusters.x) ** 2).sum(axis=1)))]
        for q in queries.x
    ]
    npt.assert_array_equal(euclidean_knn(clusters, queries), expected)
    with pytest.raises(ValueError, match="labeled"):
        euclidean_knn(DataMatrix(clusters.x), queries)
    with pytest.raises(ValueError, match="dimension"):
        euclidean_knn(clusters, DataMatrix(np.zeros((2, 2))))


def test_metric_beats_euclidean_when_one_axis_is_noise():
    # class sits on the first axis; the second axis is loud noise
    rng = np.random.default_rng(57)
    n = 30
    labels = np.repeat([0, 1], n // 2)
    x0 = np.where(labels == 0, -1.0, 1.0) + 0.05 * rng.normal(size=n)
    x1 = 30.0 * rng.normal(size=n)
    data = DataMatrix(np.column_stack([x0, x1]), labels=labels)
    queries = data.subset(range(0, n, 3))
    basis = _full_basis(2)
    informed = _model(basis, np.array([1.0, 0.0]))
    informed_acc = accuracy(
        knn_classify(informed, data, queries), queries.labels
    )
    assert informed_acc == 1.0


def test_readme_sized_1nn_never_imports_scipy_spatial():
    # scipy.spatial costs ~0.1 s and ~5 MB on import; only large searches use it
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import bdml\n"
        "data = bdml.synth_data(bdml.SynthSpec(classes=3, per_class=20, dim=10, spread=0.3), seed=0)\n"
        "basis = bdml.eigen_basis(data, k=2, standardize=False)\n"
        "model = bdml.MetricModel(basis=basis, weights=np.ones(2), threshold=0.5)\n"
        "train, test = data.subset(range(40)), data.subset(range(40, 60))\n"
        "bdml.knn_classify(model, train, test)\n"
        "bdml.euclidean_knn(train, test)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))\n"
    )
    src = str(Path(bdml.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_import_bdml_loads_no_scipy():
    # scipy.special and scipy.linalg cost ~0.45 s per process; only the KD-tree needs scipy
    code = "import sys\nimport bdml\nprint(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    src = str(Path(bdml.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# accuracy


def test_accuracy_examples():
    assert accuracy([1, 1, 0], [1, 0, 0]) == pytest.approx(2.0 / 3.0)
    assert accuracy([1, 2], [1, 2]) == 1.0
    assert accuracy([0], [1]) == 0.0
    with pytest.raises(ValueError, match="length mismatch"):
        accuracy([1, 2], [1])
    with pytest.raises(ValueError, match="empty"):
        accuracy([], [])
