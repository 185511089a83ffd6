"""Data handling, eigendecomposition and pair-feature extraction.

A learned metric is parametrized over the top eigenvectors of the data
scatter: each labeled pair contributes an augmented feature vector whose
leading entry is -1 (carrying the similarity threshold) followed by the
squared projections of the pair difference onto the basis vectors.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import kernels

MAX_ENERGY_COMPONENTS = 50
ORTHO_TOL = 1e-10


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DataMatrix:
    """n examples by d features, with optional integer class labels."""

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

    def project_diff(self, diff: np.ndarray) -> np.ndarray:
        """Project a difference vector; the center cancels, the scale not."""
        return (np.asarray(diff, dtype=np.float64) / self.scale) @ self.vectors.T


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

    @property
    def k(self) -> int:
        return self.omega.shape[0] - 1


@dataclass(frozen=True)
class ConstraintSet:
    """Labeled pairs (i, j, y): y=+1 equivalence, y=-1 inequivalence."""

    items: tuple

    def __post_init__(self):
        norm = []
        seen = set()
        for item in self.items:
            i, j, y = item
            i, j, y = int(i), int(j), int(y)
            if i == j:
                raise ValueError(f"self-pair ({i}, {i}) is not a constraint")
            if i < 0 or j < 0:
                raise ValueError(f"negative index in pair ({i}, {j})")
            if y not in (-1, 1):
                raise ValueError(f"label must be +1 or -1, got {y}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate pair {key}")
            seen.add(key)
            norm.append((key[0], key[1], y))
        object.__setattr__(self, "items", tuple(norm))

    def __len__(self) -> int:
        return len(self.items)

    @property
    def pairs(self) -> tuple:
        return tuple((i, j) for i, j, _ in self.items)

    @property
    def labels(self) -> np.ndarray:
        return np.array([y for _, _, y in self.items], dtype=np.float64)

    @property
    def equivalence(self) -> tuple:
        return tuple((i, j) for i, j, y in self.items if y == 1)

    @property
    def inequivalence(self) -> tuple:
        return tuple((i, j) for i, j, y in self.items if y == -1)

    def check_bounds(self, n: int) -> None:
        for i, j, _ in self.items:
            if i >= n or j >= n:
                raise IndexError(f"pair ({i}, {j}) out of bounds for {n} rows")


# ---------------------------------------------------------------------------
# operations


def _canonicalize_signs(vectors: np.ndarray) -> np.ndarray:
    out = vectors.copy()
    for r in range(out.shape[0]):
        nz = np.flatnonzero(np.abs(out[r]) > 1e-12)
        pivot = nz[0] if nz.size else 0
        if out[r, pivot] < 0:
            out[r] = -out[r]
    return out


def _tie_break(eigenvalues: np.ndarray, vectors: np.ndarray):
    """Order equal eigenvalues by lexicographic order of their vectors."""
    order = list(range(eigenvalues.shape[0]))
    tol = 1e-9 * max(eigenvalues[0], 1e-300)
    start = 0
    while start < len(order):
        stop = start + 1
        while stop < len(order) and eigenvalues[start] - eigenvalues[stop] <= tol:
            stop += 1
        if stop - start > 1:
            group = sorted(order[start:stop], key=lambda r: tuple(vectors[r]))
            order[start:stop] = group
        start = stop
    return eigenvalues[order], vectors[order]


def _preprocess(x: np.ndarray, center: bool, standardize: bool):
    n, d = x.shape
    c = x.mean(axis=0) if center else np.zeros(d)
    if standardize:
        s = x.std(axis=0)
        s = np.where(s <= 1e-12, 1.0, s)
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
    total spectral energy is used, capped at ``MAX_ENERGY_COMPONENTS``.
    Eigenvector signs are canonicalized (first nonzero component positive)
    and equal eigenvalues are ordered lexicographically by vector, so the
    result is deterministic.
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

    z, c, s = _preprocess(data.x, center, standardize)
    _, sv, vt = np.linalg.svd(z, full_matrices=False)
    eigenvalues = sv * sv
    degenerate = n * d * np.finfo(float).eps * max(1.0, float(np.abs(data.x).max()))
    if sv[0] <= degenerate:
        raise ValueError("zero scatter: all rows are identical after preprocessing")

    if k is None:
        total = eigenvalues.sum()
        frac = np.cumsum(eigenvalues) / total
        k = int(np.searchsorted(frac, energy - 1e-12) + 1)
        k = min(k, MAX_ENERGY_COMPONENTS, kmax)

    vectors = _canonicalize_signs(vt[:k])
    ev, vectors = _tie_break(eigenvalues[:k].copy(), vectors)
    return EigenBasis(vectors=vectors, eigenvalues=ev, center=c, scale=s)


def pca_project(data: DataMatrix, target_dim: int) -> DataMatrix:
    """Project rows onto the top eigenvectors of the centered scatter.

    Labels are carried through unchanged.  No column standardization is
    applied, so with ``target_dim = rank`` pairwise distances are preserved.
    """
    basis = eigen_basis(data, k=target_dim, center=True, standardize=False)
    return DataMatrix(basis.project(data.x), data.labels)


def pair_feature(data: DataMatrix, basis: EigenBasis, i: int, j: int) -> PairFeature:
    """Augmented feature of the pair (i, j): (-1, squared projections)."""
    n = data.n
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"pair ({i}, {j}) out of bounds for {n} rows")
    if i == j:
        raise ValueError(f"self-pair ({i}, {i}) has no constraint semantics")
    proj = basis.project_diff(data.x[i] - data.x[j])
    return PairFeature(np.concatenate(([-1.0], proj * proj)))


def feature_matrix(data: DataMatrix, basis: EigenBasis, pairs) -> np.ndarray:
    """Stack augmented pair features row-wise, shape (len(pairs), k+1).

    ``pairs`` is a sequence of (i, j) or an integer (m, 2) array.
    """
    if len(pairs) == 0:
        return np.empty((0, basis.k + 1))
    idx = kernels.as_i64(pairs)
    if idx.ndim != 2 or idx.shape[1] != 2:
        raise ValueError("pairs must be (i, j) rows")
    ii = kernels.as_i64(idx[:, 0])
    jj = kernels.as_i64(idx[:, 1])
    n = data.n
    if ii.min() < 0 or jj.min() < 0 or ii.max() >= n or jj.max() >= n:
        raise IndexError(f"pair index out of bounds for {n} rows")
    if np.any(ii == jj):
        raise ValueError("self-pair has no constraint semantics")
    proj = kernels.as_f64(basis.project(data.x))
    return kernels.pair_sq_proj(proj, ii, jj)


# ---------------------------------------------------------------------------
# CSV ingestion


def load_csv(path) -> DataMatrix:
    """Read a dataset CSV: header f0..f{d-1} plus optional integer label."""
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = [f"f{c}" for c in range(data.d)]
        if data.labels is not None:
            header.append("label")
        writer.writerow(header)
        for r in range(data.n):
            row = [repr(float(v)) for v in data.x[r]]
            if data.labels is not None:
                row.append(str(int(data.labels[r])))
            writer.writerow(row)
