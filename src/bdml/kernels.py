"""Hot numeric kernels, one numpy implementation each.

``nn1_indices`` is an exact branch-and-bound search over kd leaves
(Friedman, Bentley & Finkel, ACM TOMS 3(3), 1977) in numpy alone.  Each
query searches the leaf with the nearest bounding box first, then every
leaf whose box is no farther than its best row.  Box and row distances
come from the same operations in the same coordinate order, and rounding
is monotone, so a box is never computed farther than a row inside it:
the search returns exactly the rows of :func:`nn1_exhaustive`, ties to
the lowest training row included.
"""

import numpy as np

# rows per kd leaf of the 1NN search; the splits stop at this many or fewer
LEAF_ROWS = 256
# query x row (or leaf) elements of one block of distances (2 MB).  _sq_dist sums
# coordinate by coordinate, so each of its temporaries holds that many whatever K
# is; the kd search keeps a block's box distances while it merges rows into it
BLOCK_ELEMS = 1 << 18


def pair_sq_proj(proj, ii, jj):
    diff = proj[ii] - proj[jj]
    out = np.empty((diff.shape[0], diff.shape[1] + 1))
    out[:, 0] = -1.0
    out[:, 1:] = diff * diff
    return out


def _sq_dist(queries, rows, hi=None):
    """Squared distances (..., n_query, n_rows) for one search or each of a
    stack, summed coordinate by coordinate as numpy's ``sum`` does below 8
    coordinates; with ``hi``, to each box of corners ``rows`` and ``hi`` at
    its point nearest the query."""
    out = np.zeros(queries.shape[:-1] + rows.shape[-2:-1])
    for k in range(queries.shape[-1]):
        q = queries[..., k, None]
        if hi is None:
            diff = q - rows[..., None, :, k]
        else:
            diff = np.maximum(q, rows[..., None, :, k])
            np.minimum(diff, hi[..., None, :, k], out=diff)  # one temporary, not two
            np.subtract(q, diff, out=diff)
        out += np.multiply(diff, diff, out=diff)
    return out


def _kd_leaves(train):
    """Row order and leaf starts of median splits on the widest coordinate
    down to LEAF_ROWS rows; each leaf keeps its rows in index order."""
    n, cols = train.shape[0], np.ascontiguousarray(train.T)
    order, starts, spans = np.arange(n), [], [(0, n)]
    while spans:
        lo, hi = spans.pop()
        if hi - lo <= LEAF_ROWS:
            order[lo:hi].sort()
            starts.append(lo)
            continue
        span = cols.take(order[lo:hi], axis=1)
        axis = np.argmax(span.max(axis=1) - span.min(axis=1))
        mid = (hi - lo) // 2
        order[lo:hi] = order[lo:hi][np.argpartition(span[axis], mid)]
        spans += [(lo + mid, hi), (lo, lo + mid)]
    return order, np.array(starts + [n])


def _nn1_search(train, queries, order, starts):
    """Nearest training row of each query; leaf i is ``order[starts[i]:starts[i + 1]]``."""
    rows = train[order]
    lo, hi = np.minimum.reduceat(rows, starts[:-1]), np.maximum.reduceat(rows, starts[:-1])
    leaves = list(zip(starts[:-1].tolist(), starts[1:].tolist()))
    out = np.empty(queries.shape[0], dtype=np.int64)
    chunk = max(1, BLOCK_ELEMS // len(leaves))
    for start in range(0, queries.shape[0], chunk):
        block = queries[start : start + chunk]
        bound = _sq_dist(block, lo, hi)
        first = bound.argmin(axis=1)
        best, idx = np.empty(block.shape[0]), out[start : start + block.shape[0]]
        for leaf, (a, b) in enumerate(leaves):  # the leaf of the nearest box first
            sel = (first == leaf).nonzero()[0]
            _merge(block, sel, rows[a:b], order[a:b], best, idx, assign=True)
        for leaf, (a, b) in enumerate(leaves):  # then every box as near as the best row
            sel = ((bound[:, leaf] <= best) & (first != leaf)).nonzero()[0]
            _merge(block, sel, rows[a:b], order[a:b], best, idx)
    return out


def _merge(block, sel, rows, ids, best, idx, assign=False):
    """Replace the (best, idx) of queries ``block[sel]`` by their nearest of
    ``rows`` (training rows ``ids``): with ``assign`` always, otherwise where
    it is nearer, or as near and lower."""
    chunk = max(1, BLOCK_ELEMS // rows.shape[0])
    for start in range(0, sel.size, chunk):
        q = sel[start : start + chunk]
        d2 = _sq_dist(block[q], rows)
        j = d2.argmin(axis=1)
        d, i = d2.min(axis=1), ids[j]
        if not assign:
            win = (d < best[q]) | ((d == best[q]) & (i < idx[q]))
            q, d, i = q[win], d[win], i[win]
        best[q], idx[q] = d, i


def nn1_exhaustive(train, queries):
    """Index of each query's nearest training row, ties to the lowest index,
    for one search or each of a stack: (..., n, K) rows and (..., q, K)
    queries give (..., q).  Every query against every row, in blocks of at
    most ``BLOCK_ELEMS`` query-row distances."""
    out = np.empty(queries.shape[:-1], dtype=np.int64)
    chunk = max(1, BLOCK_ELEMS // (train.size // train.shape[-1]))
    for start in range(0, queries.shape[-2], chunk):
        block = queries[..., start : start + chunk, :]
        out[..., start : start + chunk] = _sq_dist(block, train).argmin(axis=-1)
    return out


def nn1_indices(train, queries):
    """:func:`nn1_exhaustive`'s rows through the kd leaves.  Up to ``LEAF_ROWS``
    training rows (one leaf), and inf or nan, which no box bounds, go to it."""
    if train.shape[0] > LEAF_ROWS and np.isfinite(train).all() and np.isfinite(queries).all():
        return _nn1_search(train, queries, *_kd_leaves(train))
    return nn1_exhaustive(train, queries)


def nn1_many(train, queries):
    """:func:`nn1_indices` for each search of a stack: (r, n, K) rows and
    (r, q, K) queries give (r, q).  Searches of one leaf go to
    :func:`nn1_exhaustive` as one stack, larger ones one by one."""
    if train.shape[1] <= LEAF_ROWS:
        return nn1_exhaustive(train, queries)
    return np.stack([nn1_indices(t, q) for t, q in zip(train, queries)])


def weighted_gram(rows, coef, ridge):
    """rows^T diag(coef) rows + ridge*I for one problem or each of a stack:
    (..., m, d) rows and (..., m) coefficients give (..., d, d)."""
    gram = np.swapaxes(rows * coef[..., None], -1, -2) @ rows
    diag = np.arange(rows.shape[-1])
    gram[..., diag, diag] += ridge
    return gram


def mat_vec(mat, vec):
    """``mat @ vec`` for one problem or each of a stack: (..., a, b) and (..., b) give (..., a)."""
    return (mat @ vec[..., None])[..., 0]


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
