import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import bdml
from bdml import kernels
from bdml.metric import (
    MetricModel,
    accuracy,
    check_weights,
    distance,
    euclidean_knn,
    from_augmented,
    from_mle,
    from_posterior,
    knn_classify,
    knn_many,
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


def test_knn_many_gives_each_model_its_knn_classify(clusters, clusters_basis):
    rng = np.random.default_rng(5)
    weights = rng.gamma(1.0, size=(4, clusters_basis.k))
    weights[2] = 0.0  # every distance ties, so the first training row wins
    queries = DataMatrix(clusters.x[::3] + 0.05, clusters.labels[::3])
    stack = [np.stack([a] * 4) for a in (clusters_basis.project(clusters.x),
                                         clusters_basis.project(queries.x), clusters.labels)]
    got = knn_many(np.column_stack((rng.gamma(1.0, size=4), weights)), *stack)
    for w, labels in zip(weights, got):
        npt.assert_array_equal(labels, knn_classify(_model(clusters_basis, w), clusters, queries),
                               strict=True)


def test_knn_many_checks_every_model_of_a_stack(clusters, clusters_basis):
    proj = clusters_basis.project(clusters.x)
    stack = [np.stack([a] * 3) for a in (proj, proj[:4], clusters.labels)]
    good = np.ones(clusters_basis.k + 1)
    for at, value, message in ((2, -0.5, "nonnegative"), (1, np.inf, "weights must be finite"),
                               (0, np.nan, "threshold"), (0, -1.0, "threshold")):
        for model in range(3):
            augmented = np.stack([good] * 3)
            augmented[model, at] = value
            with pytest.raises(ValueError, match=message):
                knn_many(augmented, *stack)


def test_check_weights_checks_every_model_of_a_stack():
    check_weights(np.ones((3, 2)), np.zeros(3))
    for weights, threshold, message in (
        ([[1.0, 1.0], [1.0, -0.5]], [0.0, 0.0], "nonnegative"),
        ([[1.0, np.inf], [1.0, 1.0]], [0.0, 0.0], "weights must be finite"),
        ([[1.0, 1.0], [1.0, 1.0]], [0.0, np.nan], "threshold"),
        ([[1.0, 1.0], [1.0, 1.0]], [-1.0, 0.0], "threshold"),
    ):
        with pytest.raises(ValueError, match=message):
            check_weights(np.array(weights), np.array(threshold))


def test_euclidean_knn_matches_brute_force(clusters, monkeypatch):
    rng = np.random.default_rng(56)
    queries = DataMatrix(rng.normal(size=(5, clusters.d)))

    def expected(train):
        return [train.labels[int(np.argmin(((q - train.x) ** 2).sum(axis=1)))] for q in queries.x]

    npt.assert_array_equal(euclidean_knn(clusters, queries), expected(clusters))
    # more rows than LEAF_ROWS: the kd search of knn_many, as the learned metrics take it
    leaves = []
    monkeypatch.setattr(kernels, "_kd_leaves",
                        lambda train, _built=kernels._kd_leaves: leaves.append(train.shape)
                        or _built(train))
    big = DataMatrix(rng.normal(size=(2 * kernels.LEAF_ROWS + 7, clusters.d)),
                     rng.integers(0, 4, size=2 * kernels.LEAF_ROWS + 7))
    npt.assert_array_equal(euclidean_knn(big, queries), expected(big))
    assert leaves == [big.x.T.shape]
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


def test_eval_runs_without_scipy_and_matches_the_exhaustive_search(tmp_path):
    # a multi-leaf search: eval must run with every scipy import failing
    train, test = (bdml.synth_data(bdml.SynthSpec(classes=5, per_class=n, dim=10, spread=0.6),
                                   seed=seed) for n, seed in ((800, 0), (200, 1)))
    basis = eigen_basis(train, k=5, standardize=False)
    model = _model(basis, np.random.default_rng(58).gamma(1.0, size=5))
    (tmp_path / "model.json").write_text(json.dumps(model.to_dict()), encoding="utf-8")
    bdml.save_csv(train, tmp_path / "train.csv")
    bdml.save_csv(test, tmp_path / "test.csv")
    root = np.sqrt(model.weights)
    t = kernels.as_f64(basis.project(train.x) * root)
    q = kernels.as_f64(basis.project(test.x) * root)
    assert len(kernels._kd_leaves(t.T)[1]) - 1 > 1
    want = accuracy(train.labels[kernels.nn1_exhaustive(t, q)], test.labels)
    assert 0.5 < want < 1.0  # wrong rows would show in the accuracy
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from bdml.cli import main\n"
        "sys.exit(main(['eval', '--model', 'model.json', '--train', 'train.csv',"
        " '--test', 'test.csv']))\n"
    )
    out = _fresh_python(code, cwd=tmp_path)
    assert out.returncode == 0 and out.stderr == "", out.stderr
    assert out.stdout == f"accuracy: {want:.4f} (n=1000)\n"


def _fresh_python(code, cwd=None):
    """Run ``code`` in a fresh interpreter that imports bdml from this tree."""
    src = str(Path(bdml.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True)


def test_import_bdml_loads_no_scipy():
    # scipy.special and scipy.linalg cost ~0.45 s per process; bdml needs neither
    out = _fresh_python(
        "import sys\nimport bdml\nprint(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_import_bdml_loads_no_submodule_and_no_numpy():
    out = _fresh_python("import sys\nimport bdml\n"
                        "print(sorted(m for m in sys.modules"
                        " if m.startswith(('bdml.', 'numpy')) or m == 'numpy'))\n")
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_eval_loads_no_fit_scoring_or_experiment_module(tmp_path):
    data = bdml.synth_data(bdml.SynthSpec(classes=3, per_class=6, dim=4), seed=3)
    model = _model(eigen_basis(data, k=2), np.array([1.0, 0.5]))
    (tmp_path / "model.json").write_text(json.dumps(model.to_dict()), encoding="utf-8")
    bdml.save_csv(data, tmp_path / "data.csv")
    out = _fresh_python(
        "import sys\n"
        "from bdml.cli import main\n"
        "code = main(['eval', '--model', 'model.json', '--train', 'data.csv',"
        " '--test', 'data.csv'])\n"
        "print(code, sorted({'bdml.harness', 'bdml.active', 'bdml.vb', 'bdml.mle'}"
        " & set(sys.modules)))\n", cwd=tmp_path)
    assert out.returncode == 0 and out.stderr == "", out.stderr
    assert out.stdout == "accuracy: 1.0000 (n=18)\n0 []\n"


def test_every_exported_name_is_its_home_modules_object():
    # fresh, so each name is resolved by the package's own lookup on first use
    out = _fresh_python(
        "import importlib, sys\n"
        "import bdml\n"
        "for name in bdml.__all__:\n"
        "    value = getattr(bdml, name)\n"
        "    if name in bdml._SUBMODULES:\n"
        "        assert value is sys.modules['bdml.' + name], name\n"
        "    elif name != '__version__':\n"
        "        home = importlib.import_module('bdml.' + bdml._HOME[name])\n"
        "        assert value is getattr(home, name), name\n"
        "        assert getattr(value, '__module__', home.__name__) == home.__name__, name\n"
        "    assert name in dir(bdml), name\n"
        "from bdml import MetricModel, vb\n"
        "print(MetricModel is bdml.metric.MetricModel, vb is bdml.vb)\n")
    assert out.returncode == 0, out.stderr
    assert out.stdout == "True True\n"


def test_dir_lists_exactly_the_exported_names_and_loads_no_numpy():
    # dir() sorts what the package's __dir__ lists, which puts __version__ first
    assert dir(bdml) == sorted(bdml.__all__)
    out = _fresh_python("import sys\nimport bdml\n"
                        "print(dir(bdml) == sorted(bdml.__all__), 'numpy' in sys.modules)\n")
    assert out.returncode == 0, out.stderr
    assert out.stdout == "True False\n"


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="module 'bdml' has no attribute 'no_such_name'"):
        bdml.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from bdml import no_such_name  # noqa: F401


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
