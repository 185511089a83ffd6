"""Hot numeric kernels, one numpy implementation each.

``nn1_indices`` is the only kernel with a choice inside: an exhaustive
search for small or high-dimensional inputs, and an exact KD-tree search
for large low-dimensional ones.  Both return the same indices, ties to
the lowest training row included.  The tree is scipy's ``cKDTree``,
imported on first use, so ``import bdml`` loads numpy alone.
"""

import numpy as np

# nn1_indices searches exhaustively below this many (train, query) pairs,
# where the scipy.spatial import and the tree build cost more than they save
TREE_MIN_PAIRS = 1 << 20
# ... or below this many queries: building a tree costs as much as 10-16
# exhaustive passes over the training rows (K = 2-16)
TREE_MIN_QUERIES = 16
# ... or above this many dimensions, where KD-tree pruning stops paying off
TREE_MAX_DIM = 16
# a tree hit is final only if the runner-up's squared distance exceeds it
# by this relative margin, far above the ~1e-15 rounding of either search
TIE_RTOL = 1e-9
# squared distances below this may hold underflowed terms, whose relative
# rounding is unbounded; such hits are rechecked exhaustively
TIE_MIN_SQ = 1e-280
# elements of one query-block x train x K difference tensor (8 MB)
BLOCK_ELEMS = 1 << 20


def pair_sq_proj(proj, ii, jj):
    diff = proj[ii] - proj[jj]
    out = np.empty((diff.shape[0], diff.shape[1] + 1))
    out[:, 0] = -1.0
    out[:, 1:] = diff * diff
    return out


def nn1_exhaustive(train, queries):
    """Index of each query's nearest training row, ties to the lowest index.

    Compares every query with every training row, a block of queries at
    a time so the difference tensor stays within ``BLOCK_ELEMS``.
    """
    out = np.empty(queries.shape[0], dtype=np.int64)
    chunk = max(1, BLOCK_ELEMS // max(1, train.shape[0] * train.shape[1]))
    for start in range(0, queries.shape[0], chunk):
        block = queries[start : start + chunk]
        d2 = ((block[:, None, :] - train[None, :, :]) ** 2).sum(axis=-1)
        out[start : start + block.shape[0]] = d2.argmin(axis=1)
    return out


def nn1_tree(train, queries):
    """:func:`nn1_exhaustive` through a KD-tree, with the same results.

    The tree's nearest row is kept when the second nearest is farther by
    more than ``TIE_RTOL``: no rounding can then reorder the two.  Every
    other query (a near tie, a duplicate row, a distance near underflow
    or overflow, a one-row training set) is searched exhaustively, as is
    the whole search when an input holds inf or nan, which the tree
    rejects.
    """
    from scipy.spatial import cKDTree

    if not (np.isfinite(train).all() and np.isfinite(queries).all()):
        return nn1_exhaustive(train, queries)
    dist, idx = cKDTree(train).query(queries, k=2)
    d1 = dist[:, 0] * dist[:, 0]
    d2 = dist[:, 1] * dist[:, 1]
    sure = (d1 >= TIE_MIN_SQ) & np.isfinite(d2) & (d2 > d1 * (1.0 + TIE_RTOL))
    out = idx[:, 0].astype(np.int64)
    if not sure.all():
        out[~sure] = nn1_exhaustive(train, queries[~sure])
    return out


def uses_tree(n_train, n_query, k) -> bool:
    """Whether :func:`nn1_indices` searches these shapes with a KD-tree."""
    return (
        k <= TREE_MAX_DIM
        and n_query >= TREE_MIN_QUERIES
        and n_train * n_query >= TREE_MIN_PAIRS
    )


def nn1_indices(train, queries):
    """Index of each query's nearest training row, ties to the lowest index.

    The search strategy depends only on the input shapes.
    """
    if uses_tree(train.shape[0], queries.shape[0], train.shape[1]):
        return nn1_tree(train, queries)
    return nn1_exhaustive(train, queries)


def weighted_outer_sum(rows, coef):
    return (rows * coef[:, None]).T @ rows


def expit(x):
    """Logistic sigmoid 1/(1 + exp(-x)), free of overflow for either sign."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))  # at most 1, so nothing overflows
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def log_expit(x):
    """log expit(x), exact in the tails: -log(1 + exp(-x)).

    A nan gives nan, with numpy's invalid-value warning.
    """
    return -np.logaddexp(0.0, -np.asarray(x, dtype=np.float64))


def xlogx(p):
    """p log p with 0 log 0 = 0, for p >= 0."""
    p = np.asarray(p, dtype=np.float64)
    return p * np.log(np.where(p == 0, 1.0, p))


def as_f64(a):
    """Contiguous float64 view or copy, the layout the kernels expect."""
    return np.ascontiguousarray(a, dtype=np.float64)


def as_i64(a):
    return np.ascontiguousarray(a, dtype=np.int64)
