"""Dithered one-bit observations of a masked matrix and derived structures.

An observation compares each masked entry against m independent threshold
sequences and keeps only the signs.  The set of matrices reproducing those
signs is an axis-aligned polyhedron with one single-entry inequality per
(sequence, masked entry) pair; it is stored sparsely as sign/threshold
arrays, never as a dense constraint matrix.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .core import Dims, SampleMask, as_matrix, scatter_vector, select_vector
from .quantize import DitherSpec, DitherTensor, sign_pm1

__all__ = [
    "ConsistencyReport",
    "NoiseSpec",
    "OneBitObservation",
    "PolyhedronSystem",
    "UnsupportedModeError",
    "build_polyhedron",
    "consistency_report",
    "feasible_intervals",
    "hamming",
    "observe_one_bit",
    "strip_thresholds",
    "surrogate_data",
    "t_ave",
    "violation_measure",
]


class UnsupportedModeError(RuntimeError):
    """Raised when an operation needs data the observation mode does not carry."""


@dataclasses.dataclass(frozen=True)
class NoiseSpec:
    """Pre-quantization additive noise."""

    kind: str = "none"
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "gaussian"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.sigma < 0:
            raise ValueError("noise sigma must be nonnegative")
        if self.kind == "gaussian" and self.sigma <= 0:
            raise ValueError("gaussian noise needs sigma > 0")

    @classmethod
    def none(cls) -> "NoiseSpec":
        return cls()

    @classmethod
    def gaussian(cls, sigma: float) -> "NoiseSpec":
        return cls("gaussian", sigma)


@dataclasses.dataclass(frozen=True, eq=False)
class OneBitObservation:
    """Signs of masked entries against m threshold sequences.

    ``thresholds`` is None in statistics-only mode, where the reconstruction
    may use only the signs and the dither scale.
    """

    signs: np.ndarray
    thresholds: DitherTensor | None
    mask: SampleMask
    dither_spec: DitherSpec | None

    def __post_init__(self):
        signs = np.asarray(self.signs)
        if signs.ndim != 2 or signs.shape[1] != self.mask.m_prime:
            raise ValueError(f"signs must be (m, {self.mask.m_prime}), got {signs.shape}")
        if not np.all(np.abs(signs) == 1):
            raise ValueError("signs must be +1 or -1")
        if self.thresholds is not None and self.thresholds.values.shape != signs.shape:
            raise ValueError("thresholds shape must match signs shape")
        signs = signs.astype(np.int64)
        signs.flags.writeable = False
        object.__setattr__(self, "signs", signs)

    @property
    def m(self) -> int:
        return int(self.signs.shape[0])

    @property
    def m_prime(self) -> int:
        return int(self.signs.shape[1])


@dataclasses.dataclass(frozen=True, eq=False)
class PolyhedronSystem:
    """Sign constraints s * (x_k - t) >= 0, one per (sequence, masked entry).

    Row l, column k of ``signs``/``thresholds`` encodes the constraint on the
    k-th masked entry (canonical mask order) from the l-th sequence.  The
    dense constraint matrix is never materialized: it would have exactly one
    nonzero per row.
    """

    signs: np.ndarray
    thresholds: np.ndarray
    mask: SampleMask

    def __post_init__(self):
        signs = np.asarray(self.signs, dtype=np.int64)
        thr = np.asarray(self.thresholds, dtype=float)
        if signs.ndim != 2 or signs.shape != thr.shape or signs.shape[1] != self.mask.m_prime:
            raise ValueError("signs/thresholds must both be (m, m_prime) matching the mask")
        if signs.size == 0:
            raise ValueError("constraint system is empty")
        if not np.all(np.abs(signs) == 1):
            raise ValueError("signs must be +1 or -1")
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "thresholds", thr)

    @property
    def dims(self) -> Dims:
        return self.mask.dims


@dataclasses.dataclass(frozen=True)
class ConsistencyReport:
    """Summed and per-sequence sign disagreements between two reconstructions."""

    zeta: int
    per_sequence: tuple
    consistent: bool


def observe_one_bit(
    X,
    mask: SampleMask,
    thresholds: DitherTensor,
    noise: NoiseSpec = NoiseSpec(),
    seed: int = 0,
) -> OneBitObservation:
    """Compare masked entries (plus optional noise) against each threshold row.

    Noise is drawn once per masked entry and shared across all m sequences:
    it models the data, while the thresholds model the sensor.
    """
    Xm = as_matrix(X)
    x = select_vector(Xm, mask)
    if thresholds.values.shape[1] != mask.m_prime:
        raise ValueError(
            f"threshold tensor has {thresholds.values.shape[1]} columns, mask has {mask.m_prime}"
        )
    if noise.kind == "gaussian":
        n = np.random.default_rng(int(seed)).normal(0.0, noise.sigma, size=mask.m_prime)
    else:
        n = np.zeros(mask.m_prime)
    signs = sign_pm1((x + n)[None, :] - thresholds.values)
    return OneBitObservation(signs=signs, thresholds=thresholds, mask=mask, dither_spec=thresholds.spec)


def strip_thresholds(obs: OneBitObservation) -> OneBitObservation:
    """Statistics-only view of an observation: drop exact threshold values."""
    return OneBitObservation(signs=obs.signs, thresholds=None, mask=obs.mask, dither_spec=obs.dither_spec)


def build_polyhedron(obs: OneBitObservation) -> PolyhedronSystem:
    """Constraint system encoding every observed sign; needs exact thresholds."""
    if obs.thresholds is None:
        raise UnsupportedModeError("statistics-only observation carries no threshold values")
    return PolyhedronSystem(signs=obs.signs, thresholds=obs.thresholds.values, mask=obs.mask)


def violation_measure(system: PolyhedronSystem, X) -> float:
    """Root-sum-square of constraint violations max(0, -s*(x_k - t)).

    Zero exactly when X satisfies every sign constraint.
    """
    x = select_vector(as_matrix(X), system.mask)
    slack = system.signs * (x[None, :] - system.thresholds)
    v = np.minimum(slack, 0.0)
    return float(np.sqrt(np.sum(v * v)))


def feasible_intervals(system: PolyhedronSystem):
    """Per-entry feasible interval [lo, hi] implied by the sign constraints.

    Each constraint touches a single entry, so the polyhedron is the box
    lo_k <= x_k <= hi_k with lo the largest +1 threshold and hi the smallest
    -1 threshold (-inf/+inf when a side is unconstrained).
    """
    plus = np.where(system.signs > 0, system.thresholds, -np.inf)
    minus = np.where(system.signs < 0, system.thresholds, np.inf)
    return plus.max(axis=0), minus.min(axis=0)


def hamming(a, b) -> int:
    """Number of positions where two sign vectors differ."""
    av = np.asarray(a).ravel()
    bv = np.asarray(b).ravel()
    if av.shape != bv.shape:
        raise ValueError(f"length mismatch: {av.size} vs {bv.size}")
    if not (np.all(np.abs(av) == 1) and np.all(np.abs(bv) == 1)):
        raise ValueError("inputs must be +-1 sign vectors")
    return int(np.count_nonzero(av != bv))


def consistency_report(x_bar, obs: OneBitObservation, x_true) -> ConsistencyReport:
    """Per-sequence sign disagreement between a solution and the generating matrix.

    Counts, on the mask only, positions where sign(x_true - t) and
    sign(x_bar - t) differ, with the tie-at-threshold resolved to +1 on both
    sides.
    """
    if obs.thresholds is None:
        raise UnsupportedModeError("consistency needs exact threshold values")
    xt = select_vector(as_matrix(x_true), obs.mask)
    xb = select_vector(as_matrix(x_bar), obs.mask)
    t = obs.thresholds.values
    s_true = sign_pm1(xt[None, :] - t)
    s_bar = sign_pm1(xb[None, :] - t)
    per = tuple(int(c) for c in np.count_nonzero(s_true != s_bar, axis=1))
    zeta = int(sum(per))
    return ConsistencyReport(zeta=zeta, per_sequence=per, consistent=zeta == 0)


def t_ave(X, obs: OneBitObservation, power: int) -> float:
    """Average |entry - threshold|^power over the mask and all sequences."""
    if power not in (1, 2):
        raise ValueError(f"power must be 1 or 2, got {power}")
    if obs.thresholds is None:
        raise UnsupportedModeError("threshold distances need exact threshold values")
    x = select_vector(as_matrix(X), obs.mask)
    d = np.abs(x[None, :] - obs.thresholds.values)
    return float(np.mean(d**power))


def surrogate_data(obs: OneBitObservation, delta: float) -> np.ndarray:
    """Statistics-only reconstruction target: (delta/2) * signs on the mask.

    Defined for a single dither sequence (m = 1): the scaled sign of an entry
    against one uniform threshold is an unbiased proxy for the entry itself
    when the threshold range covers the signal.
    """
    if obs.m != 1:
        raise UnsupportedModeError(f"surrogate data is defined for m = 1, got m = {obs.m}")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    return scatter_vector(0.5 * delta * obs.signs[0], obs.mask)

