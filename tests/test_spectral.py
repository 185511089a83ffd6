import csv
import io
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bdml import spectral
from bdml.active import PairPool
from bdml.harness import STRATEGY_TABLE
from bdml.spectral import (
    ConstraintSet,
    DataMatrix,
    EigenBasis,
    PairFeature,
    eigen_basis,
    feature_matrix,
    load_csv,
    pair_feature,
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


def test_data_matrix_freezes_a_contiguous_float64_x_in_place_and_copies_the_rest():
    # the rule its docstring states: the caller's own array is kept, not copied
    x, labels = np.zeros((3, 2)), np.arange(3)
    data = DataMatrix(x, labels)
    assert np.shares_memory(data.x, x) and not x.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        x[0, 0] = 1.0
    labels[0] = 5  # labels are always copied to int64
    other = np.zeros((3, 2), dtype=np.float32)
    assert not np.shares_memory(DataMatrix(other).x, other)
    other[0, 0] = 1.0


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
    assert PairFeature([-1.0, 1.0, 2.0, 3.0]).omega.shape == (4,)


def test_constraint_set_canonicalizes_and_validates():
    cs = ConstraintSet(((5, 2, 1), (0, 3, -1)))
    npt.assert_array_equal(cs.items, [(2, 5, 1), (0, 3, -1)], strict=True)
    assert not cs.items.flags.writeable
    npt.assert_array_equal(cs.pairs, [(2, 5), (0, 3)], strict=True)
    npt.assert_array_equal(cs.labels, [1.0, -1.0], strict=True)
    assert len(cs) == 2
    assert len(ConstraintSet(())) == 0
    with pytest.raises(ValueError, match="self-pair"):
        ConstraintSet(((1, 1, 1),))
    with pytest.raises(ValueError, match="duplicate"):
        ConstraintSet(((1, 2, 1), (2, 1, -1)))
    with pytest.raises(ValueError, match="negative index"):
        ConstraintSet(((-1, 2, 1),))
    with pytest.raises(ValueError, match=r"\+1 or -1"):
        ConstraintSet(((0, 1, 2),))
    # refused, where they used to be truncated to (0, 1, 1) and a label of -1
    for items in (((0.7, 1, 1.5),), ((0, 1, -1.9),), np.array([[0, 1, 1]], dtype=float)):
        with pytest.raises(ValueError, match="^constraints must be integers, got float64$"):
            ConstraintSet(items)
    npt.assert_array_equal(ConstraintSet(np.array([[3, 1, -1]], np.int8)).items, [(1, 3, -1)],
                           strict=True)


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


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(1, 4),
    extra_rows=st.integers(2, 20),
    extra_cols=st.integers(1, 4),
    offset=st.sampled_from([0.0, 1.0, -1e3]),
    standardize=st.booleans(),
    scale=st.just(1.0),
)
# singular values 3.99, 2.01, 8.2e-3 and 8.1e-4: a floor of n·d·eps times the
# largest scaled value (0.031) called the third direction noise; what centering
# loses here, the data's rounding and the column means' error, is 5.4e-3
@example(seed=258, rank=3, extra_rows=2, extra_cols=1, offset=1e8, standardize=True,
         scale=1e-4)
def test_eigen_basis_stops_at_the_numerical_rank(seed, rank, extra_rows, extra_cols,
                                                 offset, standardize, scale):
    # rank-r rows (scaled, plus an offset) span r directions; the rest of the
    # spectrum is rounding noise, in no particular order
    rng = np.random.default_rng(seed)
    n, d = rank + extra_rows, rank + extra_cols
    data = DataMatrix(rng.normal(size=(n, rank)) @ rng.normal(size=(rank, d)) * scale + offset)
    basis = eigen_basis(data, k=rank, standardize=standardize)
    assert np.all(np.diff(basis.eigenvalues) <= 0)
    assert eigen_basis(data, energy=1.0, standardize=standardize).k == rank
    with pytest.raises(ValueError, match=rf"k={rank + 1} exceeds the numerical rank {rank} "):
        eigen_basis(data, k=rank + 1, standardize=standardize)


def test_energy_mode_stops_at_the_numerical_rank():
    # a small spread on a large offset: centering leaves rounding noise with
    # eigenvalues about 1e-6 of the first, which energy=1.0 would take
    rng = np.random.default_rng(5)
    x = rng.normal(size=(30, 2)) @ rng.normal(size=(2, 6)) * 1e-4 + 1e8
    assert eigen_basis(DataMatrix(x), energy=1.0, standardize=False).k == 2


def test_eigen_basis_keeps_k_equal_to_n_on_centered_rows_that_span_n_minus_1():
    x = np.random.default_rng(3).normal(size=(3, 5))
    basis = eigen_basis(DataMatrix(x), k=3, standardize=False)
    assert basis.k == 3
    assert basis.eigenvalues[2] < 1e-25 * basis.eigenvalues[0]
    with pytest.raises(ValueError, match="k=3 exceeds the numerical rank 1 "):
        eigen_basis(DataMatrix(x[[0, 1, 1]]), k=3, standardize=False)


@pytest.mark.parametrize("order, tilt, scale", [
    pytest.param([0, 1, 2, 3, 4, 5], 1.0, 1.0, id="order0"),
    pytest.param([1, 0, 2, 4, 3, 5], 1.0, 1.0, id="order1"),
    pytest.param([0, 1, 2, 3, 4, 5], 1 + 3e-11, 1.0, id="near_tie"),
    pytest.param([0, 1, 2, 3, 4, 5], 1 + 3e-11, 1e3, id="near_tie_scaled"),
])
def test_eigen_basis_orders_tied_eigenvalues_by_their_vectors(order, tilt, scale):
    # rows +-e1, +-e2, +-0.5 e3: eigenvalues 2, 2 and 0.5; the raw SVD may put
    # either of the tied vectors first, depending on the row order.  With e1
    # tilted by 3e-11 its eigenvalue leads by 1.2e-10 of the largest, still a
    # tie; the vectors swap, and the eigenvalues must not swap with them
    e = np.diag([tilt, 1.0, 0.5]) * scale
    basis = eigen_basis(DataMatrix(np.concatenate([e, -e])[order]), k=3, standardize=False)
    npt.assert_array_equal(basis.vectors, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert np.all(np.diff(basis.eigenvalues) <= 0)


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


@pytest.mark.parametrize("c", [1e-300, 1e-200, 1e-160, 1e-100, 1e-10, 1e10, 1e14, 1e100,
                               1e150, 1e153])
def test_standardized_basis_does_not_depend_on_the_data_scale(c):
    # the README synth data; with an absolute constant-column guard and a
    # threshold from the raw data, 1e14 and up, and 1e-100 and below, were
    # rejected as "zero scatter"; below 1e-154 the column variances underflow
    from bdml.harness import SynthSpec, synth_data

    x = synth_data(SynthSpec(classes=3, per_class=20, dim=10, spread=0.3), seed=0).x
    want = eigen_basis(DataMatrix(x), k=2, standardize=True)
    got = eigen_basis(DataMatrix(x * c), k=2, standardize=True)
    npt.assert_allclose(got.vectors, want.vectors, rtol=0, atol=1e-13)
    npt.assert_allclose(got.eigenvalues, want.eigenvalues, rtol=1e-13)
    npt.assert_allclose(got.scale, want.scale * c, rtol=1e-13)


@settings(max_examples=100, deadline=None)
@given(e=st.integers(-450, 450), center=st.booleans(), k=st.sampled_from([2, None]))
# with the floor held at 1 or above, 2**-47 was rejected as "zero scatter"
# and 2**-45 took k = 3 in energy mode instead of 7
@example(e=-47, center=True, k=2)
@example(e=-45, center=True, k=None)
@example(e=-450, center=False, k=None)
@example(e=450, center=True, k=2)
def test_unstandardized_basis_does_not_depend_on_a_power_of_two_scale(e, center, k):
    # README-style synth data; scaling by 2**e is exact, so the basis is the same bits
    from bdml.harness import SynthSpec, synth_data

    x = synth_data(SynthSpec(classes=3, per_class=8, dim=10, spread=0.3), seed=0).x
    want = eigen_basis(DataMatrix(x), k=k, center=center, standardize=False)
    got = eigen_basis(DataMatrix(np.ldexp(x, e)), k=k, center=center, standardize=False)
    assert got.k == want.k
    npt.assert_array_equal(got.vectors, want.vectors, strict=True)
    npt.assert_array_equal(got.eigenvalues, np.ldexp(want.eigenvalues, 2 * e), strict=True)
    npt.assert_array_equal(got.center, np.ldexp(want.center, e), strict=True)


@pytest.mark.parametrize("e", [-520, -600, -1000])
@pytest.mark.parametrize("center", [True, False])
@pytest.mark.parametrize("k", [2, None])
def test_unstandardized_data_whose_squares_underflow_is_rejected(e, center, k):
    # the relative floors alone pass these: at 2**-520 the eigenvalues are
    # subnormal, at 2**-600 all 0, which energy mode divided 0/0 (a RuntimeWarning
    # fails this test, see pyproject.toml) and an explicit k turned into all-0 features
    from bdml.harness import SynthSpec, synth_data

    x = synth_data(SynthSpec(classes=3, per_class=8, dim=10, spread=0.3), seed=0).x
    data = DataMatrix(np.ldexp(x, e))
    with pytest.raises(ValueError, match="data too small: its squares underflow "
                       rf"\(largest magnitude {np.abs(data.x).max():.6g}\)"):
        eigen_basis(data, k=k, center=center, standardize=False)


def test_energy_mode_rejects_data_whose_eigenvalue_sum_overflows():
    # at 2**510 every eigenvalue is finite but their sum is not; energy mode
    # used to warn and divide by inf, while an explicit k needs no sum
    from bdml.harness import SynthSpec, synth_data

    x = synth_data(SynthSpec(classes=3, per_class=8, dim=10, spread=0.3), seed=0).x
    data = DataMatrix(np.ldexp(x, 510))
    with pytest.raises(ValueError, match="data too large: its squares overflow"):
        eigen_basis(data, k=None, standardize=False)
    assert eigen_basis(data, k=2, standardize=False).k == 2


@pytest.mark.parametrize("v", [0.0, 1.0 / 3.0, 1e100 / 3.0])
def test_standardize_scales_a_constant_column_by_its_magnitude(v):
    # scaled by 1, the constant column's magnitude set the zero-scatter
    # threshold, and 1e100 / 3 hid the spread of the other column
    x = np.column_stack((np.random.default_rng(2).normal(size=8), np.full(8, v)))
    basis = eigen_basis(DataMatrix(x), k=1, standardize=True)
    assert basis.scale[1] == (abs(v) or 1.0)
    npt.assert_allclose(basis.vectors, [[1.0, 0.0]], rtol=0, atol=1e-15)


SQRT_MAX = np.sqrt(np.finfo(np.float64).max)  # 1.34e154: larger values square to inf


@settings(max_examples=300, deadline=None)
@given(
    x=arrays(np.float64, st.tuples(st.integers(2, 12), st.integers(1, 5)),
             elements=st.floats(-1.0, 1.0)),
    exponent=st.sampled_from([0, 140, 150, 152, 153, 154, 155, 160, 300]),
    standardize=st.booleans(),
)
@example(x=np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]), exponent=154, standardize=True)
@example(x=np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]), exponent=154, standardize=False)
@example(x=np.array([[2.2250738585e-311], [0.0]]), exponent=0, standardize=False)
def test_eigen_basis_rejects_overflowing_data_before_numpy_warns(x, exponent, standardize):
    # any numpy RuntimeWarning fails this test (see pyproject.toml)
    data = DataMatrix(x * 10.0**exponent)
    spread = np.abs(data.x - data.x.mean(axis=0)).max()
    try:
        basis = eigen_basis(data, k=1, standardize=standardize)
    except ValueError as exc:
        if "squares underflow" in str(exc):
            # a kept singular value is above n·d·eps·σ₁ >= n·d·eps·spread, and its square below tiny
            assert spread < 2 * np.sqrt(np.finfo(float).tiny) / (x.size * np.finfo(float).eps)
            return
        if "squares overflow" not in str(exc):
            assert "zero scatter" in str(exc)
            return
        assert f"largest magnitude {np.abs(data.x).max():.6g}" in str(exc)
        # the summed squares of at most n x d deviations overflowed
        assert spread > SQRT_MAX / np.sqrt(x.size)
    else:
        assert np.isfinite(basis.eigenvalues).all()
        # one deviation past SQRT_MAX squares to inf, in the std or the scatter
        assert spread <= SQRT_MAX


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
    assert feat.omega.shape == (2,)


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
    diff = ((clusters.x[4] - clusters.x[19]) / clusters_basis.scale) @ clusters_basis.vectors.T
    npt.assert_allclose(gamma @ omega, weights @ (diff * diff) - mu, atol=1e-10)


def test_feature_matrix_matches_pair_feature(clusters, clusters_basis):
    pairs = [(0, 5), (7, 3), (2, 21)]
    mat = feature_matrix(clusters, clusters_basis, pairs)
    assert mat.shape == (3, clusters_basis.k + 1)
    for row, (i, j) in zip(mat, pairs):
        npt.assert_array_equal(row, pair_feature(clusters, clusters_basis, i, j).omega)
    npt.assert_array_equal(
        feature_matrix(clusters, clusters_basis, np.array(pairs)), mat
    )


def test_feature_matrix_edge_cases(clusters, clusters_basis):
    empty = feature_matrix(clusters, clusters_basis, [])
    assert empty.shape == (0, clusters_basis.k + 1)
    with pytest.raises(ValueError, match="self-pair"):
        feature_matrix(clusters, clusters_basis, [(1, 1)])
    with pytest.raises(IndexError, match=r"pair \(0, 99\) out of bounds for 24 rows"):
        feature_matrix(clusters, clusters_basis, [(0, 99)])
    with pytest.raises(IndexError, match=r"pair \(-1, 2\) out of bounds"):
        feature_matrix(clusters, clusters_basis, [(0, 1), (-1, 2), (0, 99)])
    with pytest.raises(ValueError, match=r"\(i, j\) rows"):
        feature_matrix(clusters, clusters_basis, [(0, 1, 2)])


def test_feature_matrix_names_the_first_bad_pair_out_of_bounds_before_self_pairs(
    clusters, clusters_basis
):
    with pytest.raises(ValueError, match=r"^self-pair \(2, 2\) has no constraint semantics$"):
        feature_matrix(clusters, clusters_basis, [(0, 1), (2, 2), (3, 3)])
    with pytest.raises(IndexError, match=r"^pair \(5, 24\) out of bounds for 24 rows$"):
        feature_matrix(clusters, clusters_basis, [(1, 1), (5, 24), (-1, 0)])
    # a float index is refused, not truncated to a row
    with pytest.raises(IndexError, match="^pair indices must be integers$"):
        feature_matrix(clusters, clusters_basis, np.array([(0, 1), (2, 3.5)]))
    with pytest.raises(IndexError, match="^pair indices must be integers$"):
        pair_feature(clusters, clusters_basis, 2.0, 3)


def test_feature_matrix_rows_do_not_depend_on_the_index_dtype_or_layout(clusters, clusters_basis):
    pairs = [(0, 5), (7, 3), (2, 21), (23, 0)]
    want = feature_matrix(clusters, clusters_basis, np.ascontiguousarray(pairs, dtype=np.int64))
    wide = np.zeros((len(pairs), 5), dtype=np.int64)
    wide[:, [1, 3]] = pairs
    for given in (pairs, np.array(pairs, dtype=np.int32), np.array(pairs, dtype=np.uint16),
                  np.asfortranarray(pairs), wide[:, 1::2]):
        npt.assert_array_equal(feature_matrix(clusters, clusters_basis, given), want)
    for bad in (np.array(pairs, dtype=np.float64), np.array([(True, False)])):
        with pytest.raises(IndexError, match="^pair indices must be integers$"):
            feature_matrix(clusters, clusters_basis, bad)


def test_feature_matrix_checks_constraint_pairs_against_the_rows():
    cs = ConstraintSet(((5, 2, 1), (0, 3, -1)))
    data = DataMatrix(np.arange(12.0).reshape(6, 2) ** 2)
    basis = EigenBasis(vectors=np.eye(2), eigenvalues=[1.0, 1.0],
                       center=np.zeros(2), scale=np.ones(2))
    assert feature_matrix(data, basis, cs.pairs).shape == (2, 3)
    with pytest.raises(IndexError, match=r"pair \(2, 5\) out of bounds for 5 rows"):
        feature_matrix(data.subset(range(5)), basis, cs.pairs)


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


_CSV_FIELDS = st.one_of(st.integers(), st.floats(), st.sampled_from(sorted(STRATEGY_TABLE)))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.lists(
    st.lists(_CSV_FIELDS, min_size=n, max_size=n), min_size=1, max_size=5)))
@example([[-0.0, 5e-324, -2.0**-1074, np.inf, -np.inf, np.nan, 10**30, -7]])
@example([[], [], []])
def test_write_rows_writes_what_csv_writer_writes(columns):
    header = [f"c{c}" for c in range(len(columns))]
    ours, theirs = io.StringIO(), io.StringIO()
    spectral._write_rows(ours, header, *columns)
    csv.writer(theirs).writerows([header, *zip(*columns)])
    assert ours.getvalue() == theirs.getvalue()
    if not columns[0]:
        assert ours.getvalue() == ",".join(header) + "\r\n"


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
                 "-Infinity", "nan", "NaN", "zonk", "", "1_0", "0x10", "+.5",
                 "1#5", "#", "2.5#", "١٢", "\xa01.5", "1.5\xa0", '"1,5"', '"1\n5"']
LABEL_TOKENS = ["0", "7", "-3", "+3", " 4 ", "3.0", "1_0", "maybe", "",
                "99999999999999999999", "18446744073709551615", "١٢", "\xa02",
                "#", "1#"]
LINE_ENDS = ["\n", "\r\n", "\r"]


@st.composite
def csv_bodies(draw):
    """Header f0..f{d-1} with the label anywhere (first, or alone), then good
    and bad rows.  Odd lines and fields (blank, whitespace-only and ragged
    lines, quoted fields and header names, tokens that numpy's C reader
    refuses or Python reads in its own way) come at a rate drawn per body,
    from never, so whole files parse, to often.  Lines end in LF, CRLF or CR."""
    odd = draw(st.integers(0, 3))  # in tenths

    def sometimes(odd_values, usual):
        return draw(st.sampled_from(odd_values)) if draw(st.integers(0, 9)) < odd else usual

    def quoted(field):
        return sometimes([f'"{field}"'], field)

    d = draw(st.integers(0, 3))
    names = [f"f{c}" for c in range(d)]
    if d == 0 or draw(st.booleans()):
        names.insert(draw(st.integers(0, d)), "label")
    lines = [",".join(map(quoted, names))]
    for _ in range(draw(st.integers(1, 6))):
        kind = sometimes(["blank", "spaces", "ragged"], "row")
        if kind == "blank":
            lines.append("")
            continue
        if kind == "spaces":
            lines.append(draw(st.sampled_from([" ", "\t", "  \t ", "\xa0"])))
            continue
        width = len(names)
        if kind == "ragged":
            width += draw(st.sampled_from([-1, 1]))
        fields = []
        for c in range(width):
            if c < len(names) and names[c] == "label":
                valid = draw(st.sampled_from(LABEL_TOKENS[:5]))
                fields.append(sometimes(LABEL_TOKENS, valid))
            else:
                fields.append(sometimes(NUMBER_TOKENS, repr(draw(st.floats(allow_nan=False)))))
        lines.append(",".join(map(quoted, fields)))
    ends = [draw(st.sampled_from(LINE_ENDS)) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def _outcome(loader, path):
    try:
        data = loader(path)
    except ValueError as exc:
        return ("error", str(exc))
    labels = None
    if data.labels is not None:
        labels = (data.labels.dtype, data.labels.tobytes())
    return ("data", data.x.shape, data.x.tobytes(), labels)


@settings(max_examples=1000, deadline=None)
@given(body=csv_bodies())
def test_load_csv_matches_the_row_by_row_reference(tmp_path_factory, body):
    path = tmp_path_factory.getbasetemp() / "differential.csv"
    path.write_text(body, encoding="utf-8", newline="")
    assert _outcome(load_csv, path) == _outcome(_reference_load_csv, path)


def test_save_csv_files_take_the_c_reader(tmp_path, monkeypatch, clusters):
    # a guard that always fell back would pass every other test
    def row_loop(*args):
        raise AssertionError("the row loop ran")

    monkeypatch.setattr(spectral, "_read_rows", row_loop)
    for data in (clusters, DataMatrix(clusters.x)):
        path = tmp_path / "data.csv"
        save_csv(data, path)
        assert _outcome(load_csv, path) == _outcome(_reference_load_csv, path)


def test_a_warning_from_the_c_reader_hands_the_file_to_the_row_loop(tmp_path, monkeypatch):
    # numpy 1.24-1.26 may read the label 3.0 as 3 with only a DeprecationWarning
    def warning_loadtxt(lines, dtype, **kwargs):
        list(lines)
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated",
                      DeprecationWarning)
        return np.zeros(1, dtype)

    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    path = tmp_path / "data.csv"
    for body in ("f0,label\n1.5,3.0\n", "f0,label\n1.5,3\n2.5,4\n", "f0,f1\n"):
        path.write_text(body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # none may escape
            assert _outcome(load_csv, path) == _outcome(_reference_load_csv, path)


# ---------------------------------------------------------------------------
# ConstraintSet and PairPool candidates against a per-item reference


def _reference_constraint_set(items, self_pair="is not a constraint",
                              repeat="duplicate pair {} labeled twice") -> tuple:
    """The per-item validation loop: the oracle for the array version.

    ``self_pair`` and ``repeat`` word those faults; the defaults are a
    :class:`ConstraintSet`'s."""
    norm = []
    seen = set()
    for item in items:
        i, j, y = item
        i, j, y = int(i), int(j), int(y)
        if i == j:
            raise ValueError(f"self-pair ({i}, {i}) {self_pair}")
        if i < 0 or j < 0:
            raise ValueError(f"negative index in pair ({i}, {j})")
        if y not in (-1, 1):
            raise ValueError(f"label must be +1 or -1, got {y}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ValueError(repeat.format(key))
        seen.add(key)
        norm.append((key[0], key[1], y))
    return tuple(norm)


@st.composite
def constraint_triples(draw, candidates=False):
    """Valid triples, then up to four faults inserted anywhere.

    The faults are self-pairs, negative indices, labels in {-2, 0, 2} and
    repeats of pairs already in the list, either way round, some of them
    with a bad label too.  As ``candidates`` every label is +1, so the
    only faults are in the pairs.
    """
    index = st.integers(0, 6)
    label = st.just(1) if candidates else st.sampled_from([-2, -1, 0, 1, 2])
    items = draw(st.lists(
        st.tuples(index, index, st.just(1) if candidates else st.sampled_from([-1, 1]))
        .filter(lambda t: t[0] != t[1]),
        max_size=8,
        unique_by=lambda t: (min(t[:2]), max(t[:2])),
    ))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["self", "negative"] + ["label"] * (not candidates)
                                    + ["repeat"] * 3))
        i, j, y = draw(index), draw(index), draw(label)
        if kind == "self":
            fault = (i, i, y)
        elif kind == "negative":
            fault = draw(st.sampled_from([(-1 - i, j, y), (i, -1 - j, y)]))
        elif kind == "label":
            fault = (i, j, draw(st.sampled_from([-2, 0, 2])))
        elif items:
            a, b, _ = draw(st.sampled_from(items))
            y = draw(st.just(1) if candidates else st.sampled_from([-1, 1, 0]))
            fault = draw(st.sampled_from([(b, a, y), (a, b, y)]))
        else:
            continue
        items.insert(draw(st.integers(0, len(items))), fault)
    return items


def _constraint_outcome(build, items):
    try:
        return ("items", build(items))
    except ValueError as exc:
        return ("error", str(exc))


@settings(max_examples=400, deadline=None)
@given(items=constraint_triples())
def test_constraint_set_matches_the_per_item_reference(items):
    def build(triples):
        return tuple(map(tuple, ConstraintSet(triples).items.tolist()))

    assert _constraint_outcome(build, items) == _constraint_outcome(
        _reference_constraint_set, items
    )


@settings(max_examples=400, deadline=None)
@given(items=constraint_triples(candidates=True))
def test_pair_pool_candidates_match_the_per_item_reference(items):
    def build(triples):
        return tuple(map(tuple, PairPool([t[:2] for t in triples]).candidates.tolist()))

    def reference(triples):
        valid = _reference_constraint_set(triples, "cannot be a candidate",
                                          "duplicate candidate pair {}")
        return tuple(sorted(t[:2] for t in valid))

    assert _constraint_outcome(build, items) == _constraint_outcome(reference, items)
