"""Data handling, eigendecomposition and pair-feature extraction.

A learned metric is parametrized over the top eigenvectors of the data
scatter: each labeled pair contributes an augmented feature vector whose
leading entry is -1 (carrying the similarity threshold) followed by the
squared projections of the pair difference onto the basis vectors.
"""

from __future__ import annotations

import copy
import csv
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels

MAX_ENERGY_COMPONENTS = 50
ORTHO_TOL = 1e-10


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _replaced(obj, **fields):
    """A copy of the frozen dataclass ``obj`` with ``fields`` set, its checks not rerun."""
    new = copy.copy(obj)
    for name, value in fields.items():
        object.__setattr__(new, name, value)
    return new


@dataclass(frozen=True)
class DataMatrix:
    """n examples by d features, with optional integer class labels, both read-only.
    A C-contiguous float64 ``x`` is frozen in place, not copied: the caller's own
    array becomes read-only too, so pass a copy to keep yours writable."""

    x: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"data must be 2-d, got shape {x.shape}")
        n, d = x.shape
        if n < 1 or d < 1:
            raise ValueError(f"need at least 1 row and 1 column, got {n}x{d}")
        if not np.all(np.isfinite(x)):
            raise ValueError("data contains non-finite entries")
        object.__setattr__(self, "x", _freeze(x))
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != (n,):
                raise ValueError(
                    f"labels must have shape ({n},), got {labels.shape}"
                )
            if not np.issubdtype(labels.dtype, np.integer):
                raise ValueError("labels must be integers")
            object.__setattr__(self, "labels", _freeze(labels.astype(np.int64)))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def subset(self, rows) -> "DataMatrix":
        rows = np.asarray(rows, dtype=np.int64)
        labels = None if self.labels is None else self.labels[rows]
        return DataMatrix(self.x[rows], labels)


@dataclass(frozen=True)
class EigenBasis:
    """Top-K orthonormal eigenvectors of the preprocessed data scatter.

    ``vectors`` holds the basis row-wise, shape (k, d).  ``center`` and
    ``scale`` record the column shifts and scales applied before the
    eigendecomposition; projections apply the same preprocessing.
    """

    vectors: np.ndarray
    eigenvalues: np.ndarray
    center: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.float64)
        ev = np.asarray(self.eigenvalues, dtype=np.float64)
        c = np.asarray(self.center, dtype=np.float64)
        s = np.asarray(self.scale, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError("vectors must be 2-d (k, d)")
        k, d = v.shape
        if k < 1 or k > d:
            raise ValueError(f"need 1 <= k <= d, got k={k}, d={d}")
        if ev.shape != (k,) or c.shape != (d,) or s.shape != (d,):
            raise ValueError("inconsistent basis shapes")
        gram = v @ v.T
        if not np.allclose(gram, np.eye(k), atol=ORTHO_TOL):
            raise ValueError("basis vectors are not orthonormal")
        if np.any(ev < -1e-10):
            raise ValueError("negative eigenvalue beyond tolerance")
        if np.any(np.diff(ev) > 1e-10):
            raise ValueError("eigenvalues must be nonincreasing")
        if np.any(s <= 0):
            raise ValueError("scales must be positive")
        object.__setattr__(self, "vectors", _freeze(v))
        object.__setattr__(self, "eigenvalues", _freeze(np.maximum(ev, 0.0)))
        object.__setattr__(self, "center", _freeze(c))
        object.__setattr__(self, "scale", _freeze(s))

    @property
    def k(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]

    def project(self, x: np.ndarray) -> np.ndarray:
        """Project rows of ``x`` onto the basis, preprocessing included."""
        x = np.asarray(x, dtype=np.float64)
        return ((x - self.center) / self.scale) @ self.vectors.T


@dataclass(frozen=True)
class PairFeature:
    """Augmented feature of one pair: (-1, squared projections...)."""

    omega: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.omega, dtype=np.float64)
        if w.ndim != 1 or w.shape[0] < 2:
            raise ValueError("omega must be a vector of length k+1 >= 2")
        if w[0] != -1.0:
            raise ValueError("omega[0] must be exactly -1")
        if np.any(w[1:] < 0):
            raise ValueError("squared projections must be nonnegative")
        object.__setattr__(self, "omega", _freeze(w))


def _as_rows(items, width: int, what: str) -> np.ndarray:
    """``items`` as int64 (m, width) rows; a non-integer input is refused, not truncated."""
    a = np.asarray(items)
    if a.size == 0:
        return np.empty((0, width), dtype=np.int64)
    if not np.issubdtype(a.dtype, np.integer):
        raise ValueError(f"{what} must be integers, got {a.dtype}")
    if a.ndim != 2 or a.shape[1] != width:
        raise ValueError(f"{what} must be rows of {width} integers")
    return a.astype(np.int64, copy=False)


def _canonical(rows: np.ndarray):
    """The order sorting the rows' (low, high) pairs, and those pairs sorted."""
    lo = np.minimum(rows[:, 0], rows[:, 1])
    hi = np.maximum(rows[:, 0], rows[:, 1])
    order = np.lexsort((hi, lo))
    return order, np.stack((lo[order], hi[order]), axis=1)


def _checked_pairs(pairs: np.ndarray, self_pair: str, repeat: str, labels=1) -> np.ndarray:
    """The int64 (m, 2) ``pairs`` as (low, high) pairs in canonical order.

    An input with several faults reports the first faulty row, and for
    that row a self-pair (``self_pair`` ends the message), then a negative
    index, then a label other than +1 or -1, then a pair seen in an
    earlier row (``repeat`` formats the message).
    """
    order, canon = _canonical(pairs)
    seen = np.zeros(len(pairs), dtype=bool)
    seen[order[1:]] = np.all(canon[1:] == canon[:-1], axis=1)  # lexsort is stable
    y = np.broadcast_to(labels, len(pairs))
    faults = np.column_stack((pairs[:, 0] == pairs[:, 1], np.any(pairs < 0, axis=1),
                              (y != 1) & (y != -1), seen))
    faulty = np.flatnonzero(faults.any(axis=1))
    if faulty.size:
        i, j = pairs[faulty[0]].tolist()
        raise ValueError((
            f"self-pair ({i}, {i}) {self_pair}",
            f"negative index in pair ({i}, {j})",
            f"label must be +1 or -1, got {y[faulty[0]]}",
            repeat.format((min(i, j), max(i, j))),
        )[int(np.argmax(faults[faulty[0]]))])
    return canon


@dataclass(frozen=True)
class ConstraintSet:
    """Labeled pairs (i, j, y): y=+1 equivalence, y=-1 inequivalence.

    ``items`` is a read-only int64 (m, 3) array in the order given, each
    pair written as (low, high).  An input with several faults reports
    the first faulty item, and for that item a self-pair, then a negative
    index, then a bad label, then a pair seen earlier.
    """

    items: np.ndarray

    def __post_init__(self):
        rows = _as_rows(self.items, 3, "constraints")
        pairs = rows[:, :2]
        _checked_pairs(pairs, "is not a constraint", "duplicate pair {} labeled twice", rows[:, 2])
        object.__setattr__(self, "items", _freeze(np.column_stack((np.sort(pairs, 1), rows[:, 2]))))

    def __len__(self) -> int:
        return self.items.shape[0]

    @property
    def pairs(self) -> np.ndarray:
        """The (low, high) pairs, an int64 (m, 2) view."""
        return self.items[:, :2]

    @property
    def labels(self) -> np.ndarray:
        return self.items[:, 2].astype(np.float64)


def _fit_input(features, labels, tol=None, max_iters=None):
    """Features and labels of a stack of fit problems as float64 (r, m, k+1) and (r, m) arrays,
    once they pass the checks ``vb`` and ``mle`` share, and a fit's ``tol`` and ``max_iters``."""
    if tol is not None and not (tol > 0 and isinstance(max_iters, (int, np.integer))
                                and max_iters >= 1):
        raise ValueError("tol must be positive and max_iters an integer of at least 1")
    w, y = kernels.as_f64(features), np.asarray(labels, np.float64)
    if w.ndim != 3 or y.shape != w.shape[:2]:
        raise ValueError("need (r, m, k+1) features and (r, m) labels of the same problem and "
                         f"constraint count, got {w.shape} and {y.shape}")
    if not np.isfinite(w).all():
        raise ValueError("features must be finite")
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("labels must be +1 or -1")
    return w, y


# ---------------------------------------------------------------------------
# operations


def _canonicalize_signs(vectors: np.ndarray) -> np.ndarray:
    """Rows negated where their first entry above 1e-12 in magnitude (else entry 0) is negative."""
    pivot = np.argmax(np.abs(vectors) > 1e-12, axis=1)
    flip = vectors[np.arange(vectors.shape[0]), pivot] < 0
    return np.where(flip[:, None], -vectors, vectors)


def _tie_break(eigenvalues: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """The vectors, those of a tie in lexicographic order.  A tie is an eigenvalue
    and the next ones within 1e-9 times the largest eigenvalue of it."""
    tol = 1e-9 * max(eigenvalues[0], 1e-300)
    ties, anchor = [], 0
    for i, ev in enumerate(eigenvalues):
        anchor = anchor if eigenvalues[anchor] - ev <= tol else i
        ties.append(anchor)
    return vectors[np.lexsort((*vectors.T[::-1], ties))]


def _preprocess(x: np.ndarray, center: bool, standardize: bool):
    n, d = x.shape
    c = x.mean(axis=0) if center else np.zeros(d)
    if standardize:
        # columns below 1 are scaled up by an exact power of two, so no variance underflows;
        # a spread within rounding of its magnitude is constant; scaled by that, its noise is eps
        top = np.abs(x).max(axis=0)
        unit = np.ldexp(1.0, np.minimum(np.frexp(top)[1], 0))
        s = (x / unit).std(axis=0) * unit
        s = np.where(s <= n * np.finfo(float).eps * top, np.where(top > 0, top, 1.0), s)
    else:
        s = np.ones(d)
    return (x - c) / s, c, s


def eigen_basis(
    data: DataMatrix,
    k: int | None = None,
    *,
    energy: float = 0.95,
    center: bool = True,
    standardize: bool = True,
) -> EigenBasis:
    """Top-k eigenbasis of the scatter of the preprocessed data.

    With ``k=None`` the smallest k capturing at least ``energy`` of the
    total spectral energy is used, capped at ``MAX_ENERGY_COMPONENTS`` and
    at the numerical rank: the count of singular values above n·d·eps
    times the largest one plus what centering loses, √n times the data's
    rounding (√d·eps/2 times the largest scaled value) and the column
    means' error (the norm of the centered columns' residual mean).
    Below that a singular value is rounding noise, so an explicit ``k`` past the rank is
    rejected, and so is data whose squares overflow or, within the rank,
    underflow.  ``k = n`` on centered rows that span n - 1 is accepted; its
    last direction is then rounding noise.
    Eigenvector signs are canonicalized (first nonzero component positive)
    and the vectors of equal eigenvalues are ordered lexicographically, so
    the result is deterministic; the eigenvalues stay descending, as the
    SVD gives them.
    """
    n, d = data.n, data.d
    if n < 2:
        raise ValueError("eigen basis needs at least 2 rows")
    kmax = min(n, d)
    if k is not None:
        if not 1 <= k <= kmax:
            raise ValueError(f"k must be in [1, {kmax}], got {k}")
    elif not 0 < energy <= 1:
        raise ValueError(f"energy fraction must be in (0, 1], got {energy}")

    try:  # overflow raises here instead of warning
        with np.errstate(over="raise"):
            z, c, s = _preprocess(data.x, center, standardize)
            _, sv, vt = np.linalg.svd(z, full_matrices=False)
            eigenvalues = sv * sv
            total = eigenvalues.sum() if k is None else None  # the energy cut's denominator
    except FloatingPointError:
        big = float(np.abs(data.x).max())
        raise ValueError(
            f"data too large: its squares overflow (largest magnitude {big:.6g})"
        ) from None
    # the SVD rounds relative to the largest singular value; centering cancels
    # the leading digits, exposing the data's own rounding, and shifts every
    # row by the error of the column means, which the residual mean measures
    rounding = n * d * np.finfo(float).eps
    big = (np.abs(data.x).max(axis=0) / s).max()
    lost = np.sqrt(n) * (np.sqrt(d) * np.finfo(float).eps / 2 * big
                         + np.linalg.norm(z.mean(axis=0))) if center else 0.0
    rank = int(np.count_nonzero(sv > rounding * sv[0] + lost))
    if not rank or sv[0] <= rounding * big:
        raise ValueError("zero scatter: all rows are identical after preprocessing")
    if eigenvalues[rank - 1] < np.finfo(float).tiny:  # a kept eigenvalue would lose its precision
        raise ValueError(f"data too small: its squares underflow (largest magnitude {big:.6g})")
    # centered, n <= d rows span n - 1 directions, yet k = n has always been allowed
    if k is not None and k > rank + (center and rank == n - 1):
        raise ValueError(
            f"k={k} exceeds the numerical rank {rank} of the data: eigenvalue "
            f"{rank + 1} is {eigenvalues[rank]:.3g}, rounding noise next to {eigenvalues[0]:.6g}"
        )

    if k is None:
        frac = np.cumsum(eigenvalues) / total
        k = int(np.searchsorted(frac, energy - 1e-12) + 1)
        k = min(k, MAX_ENERGY_COMPONENTS, rank)

    vectors = _tie_break(eigenvalues[:k], _canonicalize_signs(vt[:k]))
    return EigenBasis(vectors=vectors, eigenvalues=eigenvalues[:k], center=c, scale=s)


def pair_feature(data: DataMatrix, basis: EigenBasis, i: int, j: int) -> PairFeature:
    """Augmented feature of the pair (i, j): (-1, squared projections)."""
    return PairFeature(feature_matrix(data, basis, [(i, j)])[0])


def _check_pairs(i, j, n: int, what: str) -> None:
    """Reject non-integer index arrays ``i`` and ``j`` (of one shape), then, in flat order,
    the first pair out of bounds for ``n`` rows, then the first self-pair (no ``what``)."""
    if not (np.issubdtype(i.dtype, np.integer) and np.issubdtype(j.dtype, np.integer)):
        raise IndexError("pair indices must be integers")
    outside = np.flatnonzero((np.minimum(i, j) < 0) | (np.maximum(i, j) >= n))
    if outside.size:
        a, b = i.flat[outside[0]], j.flat[outside[0]]
        raise IndexError(f"pair ({a}, {b}) out of bounds for {n} rows")
    same = np.flatnonzero(i == j)
    if same.size:
        a = i.flat[same[0]]
        raise ValueError(f"self-pair ({a}, {a}) has no {what}")


def feature_matrix(data: DataMatrix, basis: EigenBasis, pairs) -> np.ndarray:
    """Stack augmented pair features row-wise, shape (len(pairs), k+1).

    ``pairs`` is a sequence of (i, j) or an integer (m, 2) array.
    """
    if len(pairs) == 0:
        return np.empty((0, basis.k + 1))
    idx = np.asarray(pairs)
    if idx.ndim != 2 or idx.shape[1] != 2:
        raise ValueError("pairs must be (i, j) rows")
    ii, jj = kernels.as_i64(idx[:, 0]), kernels.as_i64(idx[:, 1])
    _check_pairs(idx[:, 0], idx[:, 1], data.n, "constraint semantics")
    proj = kernels.as_f64(basis.project(data.x))
    return kernels.pair_sq_proj(proj, ii, jj)


# ---------------------------------------------------------------------------
# CSV ingestion


def load_csv(path) -> DataMatrix:
    """Read a dataset CSV: header f0..f{d-1} plus optional integer label.

    The data rows are parsed by one ``np.loadtxt`` call, numpy's C reader,
    which converts numbers as Python's ``float`` and ``int`` do.  Wherever
    it could read the file differently from ``csv`` (it refuses or warns, a
    data line is blank, a value is not finite), the rows are read again one
    by one, and only that loop raises, so values and errors are the same
    either way.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)  # consumes exactly the lines of the header record
        header = _read_header(reader, path)
        data = _read_rows_c(fh, header)
        if data is None:
            fh.seek(0)
            next(reader)
            data = _read_rows(reader, header, path)
    return data


def _read_header(reader, path) -> list[str]:
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty file") from None
    header = [h.strip() for h in header]
    feature_names = [h for h in header if h != "label"]
    d = len(feature_names)
    expected = [f"f{c}" for c in range(d)]
    if feature_names != expected or header.count("label") > 1:
        raise ValueError(
            f"{path}: header must be f0..f{d-1} with one optional "
            f"'label' column, got {header}"
        )
    return header


def _refuse_blank(lines):
    """The lines, raising at a blank one, which ``csv`` reads as a 0-field
    row and ``np.loadtxt`` skips."""
    for line in lines:
        if line.isspace():
            raise ValueError("blank line")
        yield line


def _read_rows_c(lines, header) -> DataMatrix | None:
    """The data rows through ``np.loadtxt``, or None if it could disagree
    with :func:`_read_rows`."""
    d = len(header) - header.count("label")
    if d == 0:  # a label alone is no dataset; the row loop says so
        return None
    dtype = np.dtype([(h, "i8" if h == "label" else "f8") for h in header])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. "input contained no data"
            rows = np.loadtxt(_refuse_blank(lines), dtype=dtype, delimiter=",",
                              comments=None, quotechar=None, ndmin=1)
    except (ValueError, Warning):  # whatever the C reader refuses, the row loop decides
        return None
    x = np.stack([rows[f"f{c}"] for c in range(d)], axis=1)
    if not np.isfinite(x).all():
        return None
    return DataMatrix(x, rows["label"] if "label" in header else None)


def _read_rows(reader, header, path) -> DataMatrix:
    """The data rows one by one through ``csv`` and Python's ``float`` and
    ``int``: the exact reader, and the only one that raises."""
    has_label = "label" in header
    d = len(header) - has_label
    label_idx = header.index("label") if has_label else None
    flat, labels, lineno = [], [], 1
    try:
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: row {lineno} has {len(row)} fields, "
                    f"expected {len(header)}"
                )
            label = row.pop(label_idx) if has_label else None  # leaves f0..f{d-1}
            try:
                flat += tuple(map(float, row))  # a failing row adds nothing
            except ValueError:
                raise ValueError(f"{path}: unparseable number in row {lineno}") from None
            if has_label:
                try:
                    labels.append(int(label))
                except ValueError:
                    raise ValueError(f"{path}: unparseable label in row {lineno}") from None
    finally:  # on errors too: a non-finite value in an earlier row comes first
        x = np.array(flat, dtype=np.float64)
        bad_row = np.flatnonzero(~np.isfinite(x))[:1] // d + 2
        if bad_row.size:
            raise ValueError(f"{path}: non-finite value in row {bad_row[0]}") from None
    if lineno == 1:
        raise ValueError(f"{path}: no data rows")
    return DataMatrix(x.reshape(lineno - 1, d), np.array(labels) if has_label else None)


def save_csv(data: DataMatrix, path) -> None:
    """Write a dataset in the same schema :func:`load_csv` reads."""
    labels = [] if data.labels is None else [data.labels.tolist()]
    header = [f"f{c}" for c in range(data.d)] + ["label"] * len(labels)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        _write_rows(fh, header, *data.x.T.tolist(), *labels)


def _write_rows(fh, header, *columns) -> None:
    """Write ``header``, then one row per entry of the equal-length ``columns`` of Python
    ints, floats and strings, byte for byte as the ``csv`` module writes them: commas, CRLF
    line ends, each float as its shortest repr (``%s`` is ``str``).  No field may need quotes."""
    fh.write(",".join(header) + "\r\n")
    line = ",".join(["%s"] * len(header)) + "\r\n"
    fh.writelines(line % row for row in zip(*columns, strict=True))
