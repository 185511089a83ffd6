import csv

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdml.spectral import (
    ConstraintSet,
    DataMatrix,
    EigenBasis,
    PairFeature,
    eigen_basis,
    feature_matrix,
    load_csv,
    pair_feature,
    pca_project,
    save_csv,
)


# ---------------------------------------------------------------------------
# containers


def test_data_matrix_validation():
    with pytest.raises(ValueError, match="2-d"):
        DataMatrix(np.zeros(3))
    with pytest.raises(ValueError, match="at least 1 row"):
        DataMatrix(np.zeros((0, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        DataMatrix([[1.0, np.inf]])
    with pytest.raises(ValueError, match="labels must have shape"):
        DataMatrix(np.zeros((3, 2)), labels=[0, 1])
    with pytest.raises(ValueError, match="integers"):
        DataMatrix(np.zeros((2, 2)), labels=[0.0, 1.0])


def test_data_matrix_subset_carries_labels():
    data = DataMatrix(np.arange(8.0).reshape(4, 2), labels=[3, 1, 4, 1])
    sub = data.subset([2, 0])
    npt.assert_array_equal(sub.x, [[4.0, 5.0], [0.0, 1.0]])
    npt.assert_array_equal(sub.labels, [4, 3])
    assert data.subset([1]).n == 1


def test_eigen_basis_container_validation():
    ok = dict(
        vectors=np.eye(2),
        eigenvalues=[2.0, 1.0],
        center=np.zeros(2),
        scale=np.ones(2),
    )
    EigenBasis(**ok)
    with pytest.raises(ValueError, match="orthonormal"):
        EigenBasis(**{**ok, "vectors": np.array([[1.0, 0.0], [1.0, 0.0]])})
    with pytest.raises(ValueError, match="nonincreasing"):
        EigenBasis(**{**ok, "eigenvalues": [1.0, 2.0]})
    with pytest.raises(ValueError, match="negative eigenvalue"):
        EigenBasis(**{**ok, "eigenvalues": [1.0, -1.0]})
    with pytest.raises(ValueError, match="positive"):
        EigenBasis(**{**ok, "scale": [1.0, 0.0]})


def test_pair_feature_validation():
    PairFeature([-1.0, 0.0, 2.5])
    with pytest.raises(ValueError, match=r"omega\[0\]"):
        PairFeature([1.0, 2.0])
    with pytest.raises(ValueError, match="nonnegative"):
        PairFeature([-1.0, -0.5])
    with pytest.raises(ValueError, match="k\\+1"):
        PairFeature([-1.0])
    assert PairFeature([-1.0, 1.0, 2.0, 3.0]).k == 3


def test_constraint_set_canonicalizes_and_validates():
    cs = ConstraintSet(((5, 2, 1), (0, 3, -1)))
    assert cs.items == ((2, 5, 1), (0, 3, -1))
    assert cs.pairs == ((2, 5), (0, 3))
    npt.assert_array_equal(cs.labels, [1.0, -1.0])
    assert cs.equivalence == ((2, 5),)
    assert cs.inequivalence == ((0, 3),)
    assert len(cs) == 2
    cs.check_bounds(6)
    with pytest.raises(IndexError, match=r"\(2, 5\)"):
        cs.check_bounds(5)
    with pytest.raises(ValueError, match="self-pair"):
        ConstraintSet(((1, 1, 1),))
    with pytest.raises(ValueError, match="duplicate"):
        ConstraintSet(((1, 2, 1), (2, 1, -1)))
    with pytest.raises(ValueError, match="negative index"):
        ConstraintSet(((-1, 2, 1),))
    with pytest.raises(ValueError, match=r"\+1 or -1"):
        ConstraintSet(((0, 1, 2),))


# ---------------------------------------------------------------------------
# eigen_basis


def test_eigenvalues_match_characteristic_polynomial():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 3))
    basis = eigen_basis(DataMatrix(x), k=3, center=False, standardize=False)

    s = x.T @ x
    tr = np.trace(s)
    m2 = sum(
        s[a, a] * s[b, b] - s[a, b] * s[b, a]
        for a, b in ((0, 1), (0, 2), (1, 2))
    )
    roots = np.sort(np.roots([1.0, -tr, m2, -np.linalg.det(s)]).real)[::-1]
    npt.assert_allclose(basis.eigenvalues, roots, rtol=1e-9, atol=1e-12)
    for r in range(3):
        npt.assert_allclose(
            s @ basis.vectors[r],
            basis.eigenvalues[r] * basis.vectors[r],
            atol=1e-9,
        )


def test_basis_rows_are_orthonormal(clusters_basis):
    gram = clusters_basis.vectors @ clusters_basis.vectors.T
    npt.assert_allclose(gram, np.eye(clusters_basis.k), atol=1e-12)
    assert np.all(np.diff(clusters_basis.eigenvalues) <= 1e-10)


def test_eigenvalue_sum_equals_scatter_trace(clusters):
    basis = eigen_basis(clusters, k=min(clusters.n, clusters.d), standardize=False)
    z = clusters.x - clusters.x.mean(axis=0)
    npt.assert_allclose(basis.eigenvalues.sum(), np.trace(z.T @ z), rtol=1e-12)


def test_basis_invariant_under_row_permutation(clusters):
    perm = np.random.default_rng(0).permutation(clusters.n)
    a = eigen_basis(clusters, k=3, standardize=False)
    b = eigen_basis(clusters.subset(perm), k=3, standardize=False)
    npt.assert_allclose(a.vectors, b.vectors, atol=1e-9)
    npt.assert_allclose(a.eigenvalues, b.eigenvalues, rtol=1e-9)
    npt.assert_allclose(a.center, b.center, atol=1e-12)


def test_sign_canonicalization():
    rng = np.random.default_rng(12)
    basis = eigen_basis(DataMatrix(rng.normal(size=(10, 4))), k=4)
    for row in basis.vectors:
        pivot = row[np.flatnonzero(np.abs(row) > 1e-12)[0]]
        assert pivot > 0


def test_duplicated_column_gets_equal_weight():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(12, 3))
    x = np.column_stack([x[:, 0], x[:, 0], x[:, 1], x[:, 2]])
    basis = eigen_basis(DataMatrix(x), k=3, center=False, standardize=False)
    keep = basis.eigenvalues > 1e-8
    npt.assert_allclose(
        basis.vectors[keep, 0], basis.vectors[keep, 1], atol=1e-9
    )


def test_energy_policy_picks_smallest_sufficient_k():
    # scatter spectrum is exactly (10, 3, 1, 0.1)
    x = np.diag(np.sqrt([10.0, 3.0, 1.0, 0.1]))
    data = DataMatrix(x)
    basis = eigen_basis(data, energy=0.9, center=False, standardize=False)
    assert basis.k == 2
    assert eigen_basis(data, energy=0.95, center=False, standardize=False).k == 3
    assert eigen_basis(data, energy=1.0, center=False, standardize=False).k == 4


def test_eigen_basis_rejects_degenerate_input():
    flat = DataMatrix(np.ones((5, 3)))
    with pytest.raises(ValueError, match="zero scatter"):
        eigen_basis(flat, k=1)
    with pytest.raises(ValueError, match="at least 2 rows"):
        eigen_basis(DataMatrix(np.ones((1, 3))), k=1)
    data = DataMatrix(np.random.default_rng(1).normal(size=(6, 3)))
    with pytest.raises(ValueError, match="k must be in"):
        eigen_basis(data, k=4)
    with pytest.raises(ValueError, match="k must be in"):
        eigen_basis(data, k=0)
    with pytest.raises(ValueError, match="energy fraction"):
        eigen_basis(data, energy=1.5)


def test_standardize_divides_by_column_std():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(20, 3)) * np.array([1.0, 10.0, 100.0])
    raw = eigen_basis(DataMatrix(x), k=3, standardize=False)
    std = eigen_basis(DataMatrix(x), k=3, standardize=True)
    npt.assert_array_equal(raw.scale, np.ones(3))
    npt.assert_allclose(std.scale, x.std(axis=0), rtol=1e-12)
    # standardized spectrum is flat-ish, raw is dominated by the big column
    assert raw.eigenvalues[0] / raw.eigenvalues.sum() > 0.9
    assert std.eigenvalues[0] / std.eigenvalues.sum() < 0.6


# ---------------------------------------------------------------------------
# pca_project


def test_pca_full_rank_preserves_distances(clusters):
    proj = pca_project(clusters, target_dim=min(clusters.n, clusters.d))
    for a, b in ((0, 1), (3, 17), (5, 22)):
        npt.assert_allclose(
            np.linalg.norm(proj.x[a] - proj.x[b]),
            np.linalg.norm(clusters.x[a] - clusters.x[b]),
            rtol=1e-10,
        )
    npt.assert_array_equal(proj.labels, clusters.labels)


def test_pca_rank_one_data_fits_in_one_dimension():
    t = np.linspace(-2.0, 3.0, 9)
    direction = np.array([3.0, 0.0, 4.0]) / 5.0
    x = 1.5 + np.outer(t, direction)
    proj = pca_project(DataMatrix(x), target_dim=1)
    dist = np.abs(proj.x[:, 0] - proj.x[0, 0])
    npt.assert_allclose(dist, np.abs(t - t[0]), rtol=1e-10, atol=1e-12)


def test_projected_column_variance_equals_eigenvalue_over_n(clusters):
    k = 4
    basis = eigen_basis(clusters, k=k, standardize=False)
    proj = basis.project(clusters.x)
    npt.assert_allclose(
        proj.var(axis=0), basis.eigenvalues / clusters.n, rtol=1e-10
    )


# ---------------------------------------------------------------------------
# pair features


def _manual_basis():
    return EigenBasis(
        vectors=np.array([[1.0, 0.0]]),
        eigenvalues=np.array([1.0]),
        center=np.zeros(2),
        scale=np.ones(2),
    )


def test_pair_feature_hand_example():
    data = DataMatrix(np.array([[0.0, 0.0], [2.0, 5.0]]))
    feat = pair_feature(data, _manual_basis(), 0, 1)
    npt.assert_array_equal(feat.omega, [-1.0, 4.0])
    assert feat.k == 1


def test_pair_feature_is_symmetric(clusters, clusters_basis):
    a = pair_feature(clusters, clusters_basis, 2, 9).omega
    b = pair_feature(clusters, clusters_basis, 9, 2).omega
    npt.assert_array_equal(a, b)


def test_pair_feature_rejects_bad_pairs(clusters, clusters_basis):
    with pytest.raises(ValueError, match="self-pair"):
        pair_feature(clusters, clusters_basis, 3, 3)
    with pytest.raises(IndexError):
        pair_feature(clusters, clusters_basis, 0, clusters.n)


def test_augmented_inner_product_is_distance_minus_threshold(
    clusters, clusters_basis
):
    rng = np.random.default_rng(15)
    weights = rng.gamma(1.0, size=clusters_basis.k)
    mu = 0.7
    gamma = np.concatenate(([mu], weights))
    omega = pair_feature(clusters, clusters_basis, 4, 19).omega
    diff = clusters_basis.project_diff(clusters.x[4] - clusters.x[19])
    npt.assert_allclose(gamma @ omega, weights @ (diff * diff) - mu, atol=1e-10)


def test_feature_matrix_matches_pair_feature(clusters, clusters_basis):
    pairs = [(0, 5), (7, 3), (2, 21)]
    mat = feature_matrix(clusters, clusters_basis, pairs)
    assert mat.shape == (3, clusters_basis.k + 1)
    for row, (i, j) in zip(mat, pairs):
        npt.assert_allclose(
            row, pair_feature(clusters, clusters_basis, i, j).omega, atol=1e-12
        )
    npt.assert_array_equal(
        feature_matrix(clusters, clusters_basis, np.array(pairs)), mat
    )


def test_feature_matrix_edge_cases(clusters, clusters_basis):
    empty = feature_matrix(clusters, clusters_basis, [])
    assert empty.shape == (0, clusters_basis.k + 1)
    with pytest.raises(ValueError, match="self-pair"):
        feature_matrix(clusters, clusters_basis, [(1, 1)])
    with pytest.raises(IndexError):
        feature_matrix(clusters, clusters_basis, [(0, 99)])
    with pytest.raises(ValueError, match=r"\(i, j\) rows"):
        feature_matrix(clusters, clusters_basis, [(0, 1, 2)])


# ---------------------------------------------------------------------------
# CSV round trip


def test_csv_round_trip_is_exact(tmp_path, clusters):
    path = tmp_path / "data.csv"
    save_csv(clusters, path)
    back = load_csv(path)
    npt.assert_array_equal(back.x, clusters.x)
    npt.assert_array_equal(back.labels, clusters.labels)


def test_csv_round_trip_without_labels(tmp_path):
    data = DataMatrix(np.array([[0.1, -2.0], [1e-17, 3.25]]))
    path = tmp_path / "plain.csv"
    save_csv(data, path)
    back = load_csv(path)
    npt.assert_array_equal(back.x, data.x)
    assert back.labels is None


def test_csv_round_trip_single_column(tmp_path):
    data = DataMatrix(np.array([[0.5], [-1e300], [2.0**-1074]]))
    path = tmp_path / "one.csv"
    save_csv(data, path)
    assert path.read_text().splitlines()[0] == "f0"
    back = load_csv(path)
    assert back.x.tobytes() == data.x.tobytes()
    assert back.x.shape == (3, 1)
    assert back.labels is None


def test_csv_label_column_position_is_free(tmp_path):
    path = tmp_path / "mid.csv"
    path.write_text("f0,label,f1\n1.0,4,2.0\n")
    data = load_csv(path)
    npt.assert_array_equal(data.x, [[1.0, 2.0]])
    npt.assert_array_equal(data.labels, [4])


@pytest.mark.parametrize(
    "body, message",
    [
        ("", "empty file"),
        ("f0,f1\n", "no data rows"),
        ("f0,oops\n1,2\n", "header"),
        ("f0,label,label\n1,2,3\n", "header"),
        ("f0,f1\n1.0\n", "row 2 has 1 fields"),
        ("f0,f1\n1.0,zonk\n", "unparseable number in row 2"),
        ("f0,f1\n1.0,2.0\ninf,0.0\n", "non-finite value in row 3"),
        ("f0,f1\nnan,1.0\n1.0,zonk\n", "non-finite value in row 2"),
        ("f0,f1\n1.0,2.0\ninf,zonk\n", "unparseable number in row 3"),
        ("f0,f1\n1.0,2.0\n\n3.0,4.0\n", "row 3 has 0 fields"),
        ("f0,label\n1.0,maybe\n", "unparseable label in row 2"),
    ],
)
def test_csv_errors_name_the_offence(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ValueError, match=message):
        load_csv(path)


# ---------------------------------------------------------------------------
# load_csv against the row-by-row parser it replaced


def _reference_load_csv(path) -> DataMatrix:
    """Row-by-row CSV parser, one numpy check per value: the oracle."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        has_label = "label" in header
        feature_names = [h for h in header if h != "label"]
        d = len(feature_names)
        expected = [f"f{c}" for c in range(d)]
        if feature_names != expected or header.count("label") > 1:
            raise ValueError(
                f"{path}: header must be f0..f{d-1} with one optional "
                f"'label' column, got {header}"
            )
        cols = {name: idx for idx, name in enumerate(header)}
        feat_idx = [cols[name] for name in expected]
        label_idx = cols.get("label")

        rows, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: row {lineno} has {len(row)} fields, "
                    f"expected {len(header)}"
                )
            try:
                vals = [float(row[c]) for c in feat_idx]
            except ValueError:
                raise ValueError(f"{path}: unparseable number in row {lineno}") from None
            if not all(np.isfinite(v) for v in vals):
                raise ValueError(f"{path}: non-finite value in row {lineno}")
            rows.append(vals)
            if has_label:
                try:
                    labels.append(int(row[label_idx]))
                except ValueError:
                    raise ValueError(
                        f"{path}: unparseable label in row {lineno}"
                    ) from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return DataMatrix(np.array(rows), np.array(labels) if has_label else None)


NUMBER_TOKENS = ["0", "-2.5", " 1.5 ", "1e-320", "1e400", "-1e400", "inf",
                 "-Infinity", "nan", "NaN", "zonk", "", "1_0", "0x10", "+.5"]
LABEL_TOKENS = ["0", "7", "-3", "+3", " 4 ", "3.0", "1_0", "maybe", "",
                "99999999999999999999"]


@st.composite
def csv_bodies(draw):
    """Header f0..f{d-1} with the label anywhere, then good and bad rows."""
    d = draw(st.integers(1, 3))
    names = [f"f{c}" for c in range(d)]
    if draw(st.booleans()):
        names.insert(draw(st.integers(0, d)), "label")
    lines = [",".join(names)]
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "ragged"]))
        if kind == "blank":
            lines.append("")
            continue
        width = len(names)
        if kind == "ragged":
            width += draw(st.sampled_from([-1, 1]))
        fields = []
        for c in range(width):
            if c < len(names) and names[c] == "label":
                fields.append(draw(st.sampled_from(LABEL_TOKENS)))
            elif draw(st.integers(0, 3)):
                fields.append(repr(draw(st.floats(allow_nan=False))))
            else:
                fields.append(draw(st.sampled_from(NUMBER_TOKENS)))
        lines.append(",".join(fields))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _outcome(loader, path):
    try:
        data = loader(path)
    except ValueError as exc:
        return ("error", str(exc))
    labels = None
    if data.labels is not None:
        labels = (data.labels.dtype, data.labels.tobytes())
    return ("data", data.x.shape, data.x.tobytes(), labels)


@settings(max_examples=300, deadline=None)
@given(body=csv_bodies())
def test_load_csv_matches_the_row_by_row_reference(tmp_path_factory, body):
    path = tmp_path_factory.getbasetemp() / "differential.csv"
    path.write_text(body, encoding="utf-8")
    assert _outcome(load_csv, path) == _outcome(_reference_load_csv, path)
