"""Matrix, mask, and ground-truth primitives shared by the other modules.

Conventions frozen here and relied on everywhere else:

* Vectorization is column-major: the flat index of entry (i, j) is
  ``i + j * n1``.
* Sample masks store their entries sorted by that flat index, so the
  selection operator (``select_vector``) and its adjoint (``scatter_vector``)
  agree with the mask ordering across modules.
* Every seeded generator is a pure function of (arguments, seed) and
  reproduces bit-identical output on repeat.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = [
    "Dims",
    "GroundTruth",
    "SampleMask",
    "as_matrix",
    "generate_low_rank",
    "project",
    "sample_mask_uniform",
    "scatter_vector",
    "select_vector",
]


@dataclasses.dataclass(frozen=True)
class Dims:
    """Matrix shape; both sides must be at least 1."""

    n1: int
    n2: int

    def __post_init__(self):
        n1, n2 = int(self.n1), int(self.n2)
        if n1 != self.n1 or n2 != self.n2:
            raise ValueError(f"dimensions must be integers, got ({self.n1!r}, {self.n2!r})")
        if n1 < 1 or n2 < 1:
            raise ValueError(f"dimensions must be positive, got ({n1}, {n2})")
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "n2", n2)

    @property
    def size(self) -> int:
        return self.n1 * self.n2

    def __iter__(self):
        yield self.n1
        yield self.n2


def _as_dims(dims) -> Dims:
    if isinstance(dims, Dims):
        return dims
    n1, n2 = dims
    return Dims(n1, n2)


@dataclasses.dataclass(frozen=True, eq=False)
class GroundTruth:
    """A generated low-rank test matrix and the parameters that produced it.

    Invariants guaranteed by :func:`generate_low_rank`: numerical rank is at
    most ``rank_budget`` and ``max(abs(matrix))`` equals ``max_norm`` up to
    one rounding step.
    """

    matrix: np.ndarray
    rank_budget: int
    max_norm: float
    seed: int


@dataclasses.dataclass(frozen=True, eq=False)
class SampleMask:
    """An ordered set of observed entry positions.

    Entries are kept sorted by column-major flat index; construction rejects
    duplicates and out-of-range indices.
    """

    dims: Dims
    rows: np.ndarray
    cols: np.ndarray

    def __post_init__(self):
        dims = _as_dims(self.dims)
        rows = np.asarray(self.rows, dtype=np.int64).ravel()
        cols = np.asarray(self.cols, dtype=np.int64).ravel()
        if rows.shape != cols.shape:
            raise ValueError("rows and cols must have equal length")
        if rows.size < 1:
            raise ValueError("mask must contain at least one entry")
        if rows.min(initial=0) < 0 or rows.max(initial=0) >= dims.n1:
            raise ValueError("row index out of range")
        if cols.min(initial=0) < 0 or cols.max(initial=0) >= dims.n2:
            raise ValueError("column index out of range")
        flat = rows + cols * dims.n1
        order = np.argsort(flat, kind="stable")
        flat = flat[order]
        if (flat[1:] == flat[:-1]).any():
            raise ValueError("mask entries must be distinct")
        rows = rows[order]
        cols = cols[order]
        rows.flags.writeable = False
        cols.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    @property
    def m_prime(self) -> int:
        return int(self.rows.size)


def as_matrix(x) -> np.ndarray:
    """Coerce a GroundTruth or array-like into a finite 2-D float array."""
    m = np.asarray(getattr(x, "matrix", x), dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def generate_low_rank(dims, rank: int, max_norm: float, seed: int) -> GroundTruth:
    """Random matrix of rank <= ``rank`` whose largest |entry| equals ``max_norm``.

    Drawn as ``A @ B.T`` with independent standard-normal factors
    A (n1 x rank) and B (n2 x rank), then rescaled by
    ``max_norm / max|entry|`` so the max-norm budget is met with equality.
    Deterministic given ``seed``.
    """
    dims = _as_dims(dims)
    if rank < 1 or rank > min(dims.n1, dims.n2):
        raise ValueError(f"rank must be in [1, {min(dims.n1, dims.n2)}], got {rank}")
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    attempt = int(seed)
    while True:
        rng = np.random.default_rng(attempt)
        a = rng.standard_normal((dims.n1, rank))
        b = rng.standard_normal((dims.n2, rank))
        raw = a @ b.T
        peak = float(np.abs(raw).max())
        if peak > 0.0:
            break
        attempt += 1  # all-zero product has probability zero; guarded anyway
    matrix = raw * (max_norm / peak)
    matrix.flags.writeable = False
    return GroundTruth(matrix=matrix, rank_budget=int(rank), max_norm=float(max_norm), seed=int(seed))


def sample_mask_uniform(dims, m_prime: int, seed: int) -> SampleMask:
    """Draw ``m_prime`` distinct entry positions uniformly without replacement."""
    dims = _as_dims(dims)
    if not 1 <= m_prime <= dims.size:
        raise ValueError(f"m_prime must be in [1, {dims.size}], got {m_prime}")
    rng = np.random.default_rng(int(seed))
    flat = rng.choice(dims.size, size=int(m_prime), replace=False)
    flat.sort()
    cols, rows = np.divmod(flat, dims.n1)
    return SampleMask(dims, rows, cols)


def _check_dims(X: np.ndarray, mask: SampleMask) -> None:
    if X.shape != (mask.dims.n1, mask.dims.n2):
        raise ValueError(f"matrix shape {X.shape} does not match mask dims {tuple(mask.dims)}")


def project(X, mask: SampleMask) -> np.ndarray:
    """Orthogonal projection: keep entries on the mask, zero elsewhere."""
    Xm = as_matrix(X)
    _check_dims(Xm, mask)
    out = np.zeros_like(Xm)
    out[mask.rows, mask.cols] = Xm[mask.rows, mask.cols]
    return out


def select_vector(X, mask: SampleMask) -> np.ndarray:
    """Masked entries of vec(X), in the mask's canonical order.

    Satisfies ``norm(select_vector(X, mask)) == frobenius(project(X, mask))``.
    """
    Xm = as_matrix(X)
    _check_dims(Xm, mask)
    return Xm[mask.rows, mask.cols]


def scatter_vector(values, mask: SampleMask) -> np.ndarray:
    """Adjoint of :func:`select_vector`: place values on the mask, zero elsewhere."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size != mask.m_prime:
        raise ValueError(f"expected {mask.m_prime} values, got {v.size}")
    out = np.zeros((mask.dims.n1, mask.dims.n2))
    out[mask.rows, mask.cols] = v
    return out

