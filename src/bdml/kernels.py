"""Hot numeric kernels, one numpy implementation each.

Every 1NN search takes ``nn1_many``: :func:`nn1_exhaustive`, or an exact branch-and-bound
search over kd leaves (Friedman, Bentley & Finkel, ACM TOMS 3(3), 1977) in numpy alone.
Each query searches the leaf with the nearest bounding box first, then every leaf whose
box is no farther than its best row.  Box and row distances come from the same operations
in the same coordinate order, and rounding is monotone, so a box is never computed farther
than a row inside it: the kd search returns exactly :func:`nn1_exhaustive`'s rows, ties to
the lowest training row included.
"""

import numpy as np

# rows per kd leaf of the 1NN search, at most.  At eval's 20,000 x 5,000 x 5, 64 to 512 took 329,
# 153, 102 and 96 ms; 512 would send 257-512 row searches to nn1_exhaustive, slower from ~450 rows
LEAF_ROWS = 256
# query x row (or leaf) elements of one block of distances (2 MB whatever K is): _sq_dist's result,
# its temporary and the kd search's box distances.  2^18 to 2^21 took 100, 92-98, 89-90 and 91 ms
# at that shape (2 vCPUs, alternating rounds): under 3 % of eval's wall, for up to 4 MB more peak
BLOCK_ELEMS = 1 << 18


def pair_sq_proj(proj, ii, jj):
    diff = proj[ii] - proj[jj]
    out = np.empty((diff.shape[0], diff.shape[1] + 1))
    out[:, 0] = -1.0
    out[:, 1:] = diff * diff
    return out


def _sq_dist(queries, cols, hi=None):
    """Squared distances (..., n_query, n) from (..., n_query, K) queries to the
    coordinate-major (..., K, n) rows of one search or each of a stack, summed
    coordinate by coordinate as numpy's ``sum`` does below 8 coordinates; with
    ``hi``, to each box of corners ``cols`` and ``hi`` at its point nearest the query."""
    out = np.zeros(queries.shape[:-1] + cols.shape[-1:])
    diff = np.empty_like(out)
    for k in range(queries.shape[-1]):
        q, row = queries[..., k, None], cols[..., None, k, :]
        near = row if hi is None else np.clip(q, row, hi[..., None, k, :], out=diff)
        np.subtract(q, near, out=diff)
        out += np.multiply(diff, diff, out=diff)
    return out


def _kd_leaves(cols):
    """Row order and leaf starts of median splits of the (K, n) rows on the widest
    coordinate down to LEAF_ROWS rows; each leaf keeps its rows in index order."""
    n = cols.shape[1]
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


def _nn1_search(cols, queries, order, starts):
    """Nearest of the (K, n) rows to each query; leaf i is ``order[starts[i]:starts[i + 1]]``."""
    rows = cols[:, order]
    lo, hi = (f.reduceat(rows, starts[:-1], axis=1) for f in (np.minimum, np.maximum))
    leaves = list(zip(starts[:-1].tolist(), starts[1:].tolist()))
    out = np.empty(queries.shape[0], dtype=np.int64)
    chunk = max(1, BLOCK_ELEMS // len(leaves))
    for start in range(0, queries.shape[0], chunk):
        block = queries[start : start + chunk]
        bound = _sq_dist(block, lo, hi)
        first = bound.argmin(axis=1)
        best, idx = np.full(block.shape[0], np.inf), out[start : start + block.shape[0]]
        idx.fill(cols.shape[1])  # above every row, so an inf distance from overflow wins too
        for leaf, (a, b) in enumerate(leaves):  # the leaf of the nearest box first
            sel = (first == leaf).nonzero()[0]
            _merge(block, sel, rows[:, a:b], order[a:b], best, idx)
        for leaf, (a, b) in enumerate(leaves):  # then every box as near as the best row
            sel = ((bound[:, leaf] <= best) & (first != leaf)).nonzero()[0]
            _merge(block, sel, rows[:, a:b], order[a:b], best, idx)
    return out


def _merge(block, sel, cols, ids, best, idx):
    """Replace the (best, idx) of queries ``block[sel]`` by their nearest of the
    (K, n) rows ``cols`` (training rows ``ids``) where it is nearer, or as near and lower."""
    chunk = max(1, BLOCK_ELEMS // cols.shape[1])
    for start in range(0, sel.size, chunk):
        q = sel[start : start + chunk]
        d2 = _sq_dist(block[q], cols)
        j = d2.argmin(axis=1)
        d, i = d2[np.arange(q.size), j], ids[j]
        win = (d < best[q]) | ((d == best[q]) & (i < idx[q]))
        q, d, i = q[win], d[win], i[win]
        best[q], idx[q] = d, i


def nn1_exhaustive(train, queries):
    """Index of each query's nearest training row, ties to the lowest index,
    for one search or each of a stack: (..., n, K) rows and (..., q, K)
    queries give (..., q).  Every query against every row, in blocks of at
    most ``BLOCK_ELEMS`` query-row distances."""
    cols = np.ascontiguousarray(np.swapaxes(train, -1, -2))
    out = np.empty(queries.shape[:-1], dtype=np.int64)
    chunk = max(1, BLOCK_ELEMS // (cols.size // cols.shape[-2]))
    for start in range(0, queries.shape[-2], chunk):
        block = queries[..., start : start + chunk, :]
        out[..., start : start + chunk] = _sq_dist(block, cols).argmin(axis=-1)
    return out


def nn1_many(train, queries):
    """:func:`nn1_exhaustive`'s rows for each search of a stack: (r, n, K) rows and (r, q, K)
    queries give (r, q).  A stack of one leaf (``LEAF_ROWS`` rows or fewer), or with an inf or
    nan, which no box bounds, goes to it whole; any other takes the kd search once per search."""
    if train.shape[1] <= LEAF_ROWS or not (np.isfinite(train).all() and np.isfinite(queries).all()):
        return nn1_exhaustive(train, queries)
    cols = np.ascontiguousarray(np.swapaxes(train, 1, 2))
    return np.stack([_nn1_search(c, q, *_kd_leaves(c)) for c, q in zip(cols, queries)])


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
