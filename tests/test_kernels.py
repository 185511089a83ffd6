"""The kernels must match their dense and exhaustive oracles exactly.

``nn1_indices`` prunes kd leaves by their bounding boxes; with leaves of
one to many rows it must return the same indices as ``nn1_exhaustive``
and a brute-force argmin, ties to the lowest training row.  The
sigmoid and entropy kernels are checked against ``scipy.special``: bit
for bit where numpy has the same formula, within a stated number of
units in the last place (ulp) where it does not.
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special

from bdml import kernels
from bdml.active import entropy

TINY = np.finfo(np.float64).tiny  # smallest normal double, 2.2e-308
# every input sign and range a sigmoid meets: exp overflow starts near 709.8,
# its result goes subnormal below -708.4 and underflows to 0 below -745.1
EDGES = np.array([0.0, -0.0, 708.0, -708.0, 745.0, -745.0, 1e-300, -1e-300,
                  710.0, -710.0, 1e4, -1e4, np.inf, -np.inf, np.nan])
# p log p at its zeros 0 and 1, at subnormal, tiny and near-1 inputs, and at nan
P_EDGES = np.array([0.0, 1.0, 5e-324, 1e-310, TINY, 1e-300, 0.5, 1.0 - 2**-53, np.nan])


def _instance(seed, m=14, n=11, k=4):
    rng = np.random.default_rng(seed)
    proj = rng.normal(size=(n, k))
    ii = rng.integers(0, n, size=m)
    jj = (ii + rng.integers(1, n, size=m)) % n
    return proj, kernels.as_i64(ii), kernels.as_i64(jj)


def _brute_nn1(train, queries):
    """Independent oracle: one argmin per query, first minimum wins.

    Squares are added coordinate by coordinate, the order the searches
    use; numpy's ``sum`` pairs them up differently from 8 coordinates on.
    """
    return np.array(
        [np.argmin(sum((q[c] - train[:, c]) ** 2 for c in range(train.shape[1])))
         for q in queries],
        dtype=np.int64,
    )


def test_pair_sq_proj_variants_agree():
    proj, ii, jj = _instance(0)
    out = kernels.pair_sq_proj(kernels.as_f64(proj), ii, jj)
    oracle = np.column_stack([-np.ones(ii.shape[0]), (proj[ii] - proj[jj]) ** 2])
    npt.assert_array_equal(out, oracle)
    assert np.all(out[:, 0] == -1.0)
    assert np.all(out[:, 1:] >= 0)


def test_pair_sq_proj_matches_direct_squares():
    proj, ii, jj = _instance(1)
    out = kernels.pair_sq_proj(kernels.as_f64(proj), ii, jj)
    for c in range(ii.shape[0]):
        d = proj[ii[c]] - proj[jj[c]]
        npt.assert_allclose(out[c, 1:], d * d, atol=1e-14)


def test_nn1_variants_agree_with_brute_force():
    rng = np.random.default_rng(2)
    train = kernels.as_f64(rng.normal(size=(9, 3)))
    queries = kernels.as_f64(rng.normal(size=(5, 3)))
    expected = _brute_nn1(train, queries)
    npt.assert_array_equal(kernels.nn1_indices(train, queries), expected)
    npt.assert_array_equal(kernels.nn1_exhaustive(train, queries), expected)


def test_nn1_tie_goes_to_lowest_index(monkeypatch):
    row = np.array([1.0, 2.0])
    train = kernels.as_f64(np.stack([row + 1.0, row, row, row + 1.0]))
    queries = kernels.as_f64(np.stack([row, row + 1.0, row + 0.5]))
    for leaf_rows in (256, 1):  # one leaf, then one leaf per row
        monkeypatch.setattr(kernels, "LEAF_ROWS", leaf_rows)
        for search in (kernels.nn1_indices, kernels.nn1_exhaustive):
            npt.assert_array_equal(search(train, queries), [1, 0, 0])


def test_nn1_numpy_chunking_boundary(monkeypatch):
    rng = np.random.default_rng(3)
    train = kernels.as_f64(rng.normal(size=(4, 2)))
    queries = kernels.as_f64(rng.normal(size=(7, 2)))
    expected = _brute_nn1(train, queries)
    monkeypatch.setattr(kernels, "LEAF_ROWS", 1)  # nn1_indices: four one-row leaves
    # blocks of 3, 3 and 1 queries of 4 rows (or leaves); then one query per block
    for budget in (3 * 4, 1):
        monkeypatch.setattr(kernels, "BLOCK_ELEMS", budget)
        npt.assert_array_equal(kernels.nn1_exhaustive(train, queries), expected)
        npt.assert_array_equal(kernels.nn1_indices(train, queries), expected)


@pytest.mark.parametrize("k", range(1, 8))
def test_nn1_distances_match_numpy_sum_below_8_coordinates(k):
    # from 8 coordinates on numpy's sum pairs the squares up in another order
    rng = np.random.default_rng(k)
    queries, rows = rng.normal(size=(6, k)) * 1e3, rng.normal(size=(9, k))
    want = ((queries[:, None, :] - rows[None, :, :]) ** 2).sum(axis=-1)
    npt.assert_array_equal(kernels._sq_dist(queries, rows), want)


_grid = st.integers(-2, 2).map(float)
_far = st.integers(-1000, 1000).map(float)


@st.composite
def _tie_heavy_search(draw):
    """Integer-grid train and query sets full of exact ties, and a leaf size.

    Duplicate rows and duplicate queries put exact ties in different kd
    leaves; far queries lie outside every leaf's box; scaled grids give
    squared distances that underflow to subnormals or overflow to inf.
    """
    k = draw(st.integers(1, 10))
    train = draw(arrays(np.float64, st.tuples(st.integers(1, 40), st.just(k)), elements=_grid))
    fresh = draw(arrays(np.float64, st.tuples(st.integers(0, 15), st.just(k)), elements=_grid))
    far = draw(arrays(np.float64, st.tuples(st.integers(0, 3), st.just(k)), elements=_far))
    # queries sitting on training rows, duplicates included
    on_rows = draw(st.lists(st.integers(0, train.shape[0] - 1), max_size=6))
    queries = np.concatenate([fresh, far, train[on_rows]])
    queries = np.concatenate([queries, queries[: draw(st.integers(0, 4))]])
    if draw(st.booleans()):
        train = np.concatenate([train, train[: draw(st.integers(1, 4))]])
    scale = draw(st.sampled_from([1.0, 1.0, 1e-160, 1e150, 1e155]))
    train, queries = scale * train, scale * queries
    if draw(st.integers(0, 7)) == 0:  # one inf or nan entry
        target = train if queries.size == 0 or draw(st.booleans()) else queries
        target.flat[draw(st.integers(0, target.size - 1))] = draw(
            st.sampled_from([np.inf, -np.inf, np.nan]))
    leaf_rows = draw(st.sampled_from([1, 2, 3, 5, 8, 256]))
    return kernels.as_f64(train), kernels.as_f64(queries), leaf_rows


@settings(max_examples=400, deadline=None)
@given(_tie_heavy_search())
@example((np.zeros((1, 2)), np.array([[1.0, 1.0], [0.0, 0.0]]), 1))  # one training row
@example((np.zeros((3, 2)), np.empty((0, 2)), 1))  # no queries
@example((np.ones((4, 1)), np.ones((2, 1)), 1))  # every row a duplicate of the query
@example((np.array([[0.0, np.inf], [1.0, 1.0]]), np.array([[1.0, 1.0], [np.nan, 0.0]]), 1))
def test_nn1_tree_matches_the_exhaustive_oracle_on_ties(search):
    train, queries, leaf_rows = search
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
        mp.setattr(kernels, "LEAF_ROWS", leaf_rows)
        got = kernels.nn1_indices(train, queries)
        assert got.dtype == np.int64 and got.shape == (queries.shape[0],)
        npt.assert_array_equal(got, _brute_nn1(train, queries))
        npt.assert_array_equal(got, kernels.nn1_exhaustive(train, queries))


@pytest.mark.parametrize("leaf_rows", [256, 2])
def test_nn1_searches_of_a_stack_match_each_search_alone(leaf_rows, monkeypatch):
    # a grid full of ties; leaf_rows 2 sends the 9-row searches through the kd leaves
    monkeypatch.setattr(kernels, "LEAF_ROWS", leaf_rows)
    rng = np.random.default_rng(9)
    train = kernels.as_f64(rng.integers(-2, 3, size=(4, 9, 3)))
    queries = kernels.as_f64(rng.integers(-2, 3, size=(4, 6, 3)))
    dist = kernels._sq_dist(queries, train)
    assert dist.shape == (4, 6, 9)
    for budget in (kernels.BLOCK_ELEMS, 1):  # one block, then one query per block
        monkeypatch.setattr(kernels, "BLOCK_ELEMS", budget)
        exhaustive, many = kernels.nn1_exhaustive(train, queries), kernels.nn1_many(train, queries)
        for n in range(4):
            npt.assert_array_equal(dist[n], kernels._sq_dist(queries[n], train[n]))
            alone = _brute_nn1(train[n], queries[n])
            npt.assert_array_equal(exhaustive[n], alone)
            npt.assert_array_equal(many[n], alone)
            npt.assert_array_equal(kernels.nn1_indices(train[n], queries[n]), alone)


def _counting_distances(monkeypatch):
    """Record (n_query, n_rows) of every row-distance computation."""
    shapes, sq_dist = [], kernels._sq_dist

    def counted(queries, rows, hi=None):
        if hi is None:
            shapes.append((queries.shape[0], rows.shape[0]))
        return sq_dist(queries, rows, hi)

    monkeypatch.setattr(kernels, "_sq_dist", counted)
    return shapes


def test_nn1_large_search_takes_the_tree_and_stays_exact(monkeypatch):
    rng = np.random.default_rng(6)
    train = rng.normal(size=(2048, 3)).round(1)
    train[1000:1100] = train[:100]  # duplicate rows: exact ties
    queries = np.concatenate([rng.normal(size=(448, 3)), train[rng.integers(0, 2048, 64)]])
    order, starts = kernels._kd_leaves(kernels.as_f64(train))
    assert len(starts) - 1 == 8 and np.diff(starts).max() <= kernels.LEAF_ROWS
    npt.assert_array_equal(np.sort(order), np.arange(2048))
    shapes = _counting_distances(monkeypatch)
    got = kernels.nn1_indices(kernels.as_f64(train), kernels.as_f64(queries))
    npt.assert_array_equal(got, _brute_nn1(train, queries))
    # the boxes prune: far fewer distances than the exhaustive 2048 per query
    assert sum(q * r for q, r in shapes) < train.shape[0] * queries.shape[0] / 2


def test_nn1_searches_of_one_leaf_go_to_the_exhaustive_search(monkeypatch):
    def no_leaves(train):
        raise AssertionError("kd leaves built")

    monkeypatch.setattr(kernels, "_kd_leaves", no_leaves)
    rng = np.random.default_rng(8)
    train = rng.normal(size=(kernels.LEAF_ROWS + 1, 2))
    queries = rng.normal(size=(5, 2))
    npt.assert_array_equal(kernels.nn1_indices(train[:-1], queries),
                           _brute_nn1(train[:-1], queries))
    with pytest.raises(AssertionError, match="kd leaves built"):
        kernels.nn1_indices(train, queries)


def test_nn1_small_few_query_and_wide_searches_match_the_exhaustive_search():
    rng = np.random.default_rng(7)
    for n_train, n_query, k in (
        (40, 20, 2),  # a README-sized search: one leaf
        (1 << 16, 15, 2),  # few queries
        (1024, 1024, 17),  # many dimensions
        (4096, 64, 20),  # raw d=20 features, as EUCLID searches them
    ):
        train = rng.normal(size=(n_train, k))
        queries = rng.normal(size=(n_query, k))
        leaves = len(kernels._kd_leaves(train)[1]) - 1
        assert (leaves == 1) == (n_train <= kernels.LEAF_ROWS)
        got = kernels.nn1_indices(train, queries)
        npt.assert_array_equal(got, kernels.nn1_exhaustive(train, queries))


def test_weighted_gram_matches_the_outer_product_sum():
    rng = np.random.default_rng(4)
    rows = kernels.as_f64(rng.normal(size=(13, 5)))
    coef = kernels.as_f64(rng.gamma(1.0, size=13))
    oracle = sum(c * np.outer(r, r) for c, r in zip(coef, rows)) + 0.3 * np.eye(5)
    gram = kernels.weighted_gram(rows, coef, 0.3)
    npt.assert_allclose(gram, oracle, atol=1e-12)
    # each problem of a stack gets its own matrix bit for bit; no rows give ridge*I
    stacked = kernels.weighted_gram(np.stack([rows, 2.0 * rows]), np.stack([coef, coef]), 0.3)
    npt.assert_array_equal(stacked[0], gram)
    npt.assert_array_equal(stacked[1], kernels.weighted_gram(2.0 * rows, coef, 0.3))
    npt.assert_array_equal(kernels.weighted_gram(rows[:0], coef[:0], 0.3), 0.3 * np.eye(5))


def _margins(seed):
    """1e5 draws at four scales, then the edge cases."""
    rng = np.random.default_rng(seed)
    draws = [rng.normal(scale=s, size=25_000) for s in (1.0, 10.0, 100.0, 400.0)]
    return np.concatenate(draws + [EDGES])


def _probabilities(seed):
    """1e5 draws: uniform, log-uniform down to subnormals, and just below 1."""
    rng = np.random.default_rng(seed)
    return np.concatenate([
        rng.random(40_000),
        10.0 ** rng.uniform(-323, 0, 40_000),
        1.0 - 10.0 ** rng.uniform(-16, 0, 20_000),
        P_EDGES,
    ])


def _ulps(got, want):
    """|got - want| in units in the last place of ``want``."""
    return np.abs(got - want) / np.spacing(np.abs(want))


def test_log_expit_is_bitwise_scipy():
    x = _margins(6)
    with np.errstate(invalid="ignore"):  # the nan edge; see the next test
        got = kernels.log_expit(x)
    want = special.log_expit(x)
    npt.assert_array_equal(np.isnan(got), np.isnan(want))
    finite = ~np.isnan(want)
    npt.assert_array_equal(got[finite].view(np.int64), want[finite].view(np.int64))
    assert kernels.log_expit(-1e4) == -1e4 and kernels.log_expit(1e4) == -0.0


def test_log_expit_flags_nan_as_an_invalid_value():
    with pytest.warns(RuntimeWarning, match="invalid value"):
        assert np.isnan(kernels.log_expit(np.nan))


def test_expit_matches_scipy_within_4_ulp_and_keeps_the_subnormal_tail():
    x = _margins(7)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = kernels.expit(x)
    want = special.expit(x)
    npt.assert_array_equal(np.isnan(got), np.isnan(want))
    normal = want >= TINY
    assert _ulps(got[normal], want[normal]).max() <= 4
    # below the normal range scipy's 1/(1 + exp(-x)) flushes to 0 once exp
    # overflows; the split form keeps exp(x), so only an absolute bound holds
    sub = (want < TINY) & ~np.isnan(want)
    assert np.abs(got[sub] - want[sub]).max() <= TINY
    # where 1 + exp(x) rounds to 1 the sigmoid is exp(x) to the last bit
    tail = x[x < -40]
    npt.assert_array_equal(kernels.expit(tail), np.exp(tail))
    assert kernels.expit(0.0) == 0.5 and kernels.expit(-0.0) == 0.5
    assert kernels.expit(np.inf) == 1.0 and kernels.expit(-np.inf) == 0.0
    assert isinstance(kernels.expit(1.0), np.float64)


def test_xlogx_matches_scipy_xlogy_within_4_ulp():
    p = _probabilities(8)
    got, want = kernels.xlogx(p), special.xlogy(p, p)
    npt.assert_array_equal(np.isnan(got), np.isnan(want))
    finite = ~np.isnan(want)
    assert _ulps(got[finite], want[finite]).max() <= 4
    assert kernels.xlogx(0.0) == 0.0 and kernels.xlogx(1.0) == 0.0


def test_entropy_matches_scipy_within_4_ulp():
    p = _probabilities(9)[:-1]  # entropy takes probabilities, not nan
    want = -special.xlogy(p, p) - special.xlogy(1.0 - p, 1.0 - p)
    assert _ulps(entropy(p), want).max() <= 4


@pytest.mark.parametrize("kernel", [kernels.expit, kernels.log_expit, kernels.xlogx])
def test_sigmoid_kernels_keep_shape_and_return_scalars_for_scalars(kernel):
    assert np.shape(kernel(np.zeros((2, 3)))) == (2, 3)
    assert np.ndim(kernel(0.5)) == 0


def test_coercion_helpers():
    f = kernels.as_f64([[1, 2], [3, 4]])
    assert f.dtype == np.float64 and f.flags["C_CONTIGUOUS"]
    i = kernels.as_i64([1.0, 2.0])
    assert i.dtype == np.int64 and i.flags["C_CONTIGUOUS"]
