"""Dithered one-bit observations of a masked matrix, and what they constrain.

An observation compares each masked entry against m independent threshold
sequences and keeps only the signs.  The set of matrices reproducing those
signs is an axis-aligned polyhedron with one single-entry inequality per
(sequence, masked entry) pair; the observation itself, its sign and threshold
arrays, is that polyhedron, and no dense constraint matrix is ever formed.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .core import SampleMask, as_matrix, scatter_vector, select_vector
from .quantize import sign_pm1

__all__ = [
    "OneBitObservation",
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


@dataclasses.dataclass(frozen=True, eq=False)
class OneBitObservation:
    """Signs of masked entries against m threshold sequences: the sign system
    s * (x_k - t) >= 0, one constraint per (sequence, masked entry).

    Row l, column k of ``signs``/``thresholds`` is the constraint on the k-th
    masked entry (canonical mask order) from the l-th sequence.
    ``thresholds`` is None in statistics-only mode, where the reconstruction
    may use only the signs and the dither scale.
    """

    signs: np.ndarray
    thresholds: np.ndarray | None
    mask: SampleMask

    def __post_init__(self):
        signs = np.asarray(self.signs)
        if signs.ndim != 2 or signs.shape[1] != self.mask.m_prime:
            raise ValueError(f"signs must be (m, {self.mask.m_prime}), got {signs.shape}")
        if signs.size == 0:
            raise ValueError("constraint system is empty")
        if not np.all(np.abs(signs) == 1):
            raise ValueError("signs must be +1 or -1")
        if self.thresholds is not None:
            thresholds = np.asarray(self.thresholds, dtype=float)
            if thresholds.shape != signs.shape:
                raise ValueError("thresholds shape must match signs shape")
            # +-inf are one-sided bounds, but a NaN threshold bounds nothing
            if np.isnan(thresholds).any():
                raise ValueError("thresholds must not be NaN")
            object.__setattr__(self, "thresholds", thresholds)
        signs = signs.astype(np.int64)
        signs.flags.writeable = False
        object.__setattr__(self, "signs", signs)

    @property
    def m(self) -> int:
        return int(self.signs.shape[0])


def _thresholds(obs: OneBitObservation, use: str) -> np.ndarray:
    if obs.thresholds is None:
        raise UnsupportedModeError(f"{use} needs exact threshold values; a statistics-only observation has none")
    return obs.thresholds


def observe_one_bit(X, mask: SampleMask, thresholds, noise_sigma: float = 0.0, seed: int = 0) -> OneBitObservation:
    """Compare masked entries (plus optional N(0, noise_sigma^2) noise)
    against each row of the (m x m_prime) threshold array.

    Noise is drawn once per masked entry and shared across all m sequences:
    it models the data, while the thresholds model the sensor.
    """
    if noise_sigma < 0:
        raise ValueError(f"noise sigma must be nonnegative, got {noise_sigma}")
    x = select_vector(as_matrix(X), mask)
    if noise_sigma > 0:
        x = x + np.random.default_rng(int(seed)).normal(0.0, noise_sigma, size=mask.m_prime)
    signs = sign_pm1(x[None, :] - thresholds)
    return OneBitObservation(signs=signs, thresholds=thresholds, mask=mask)


def strip_thresholds(obs: OneBitObservation) -> OneBitObservation:
    """Statistics-only view of an observation: drop exact threshold values."""
    return OneBitObservation(signs=obs.signs, thresholds=None, mask=obs.mask)


def build_polyhedron(obs: OneBitObservation) -> OneBitObservation:
    """The sign polyhedron of an observation: the observation itself, once
    checked to carry thresholds (a statistics-only one raises)."""
    _thresholds(obs, "a sign polyhedron")
    return obs


def violation_measure(system: OneBitObservation, X) -> float:
    """Root-sum-square of constraint violations max(0, -s*(x_k - t)).

    Zero exactly when X's masked entries lie in the closed box [lo, hi] of
    ``feasible_intervals``.  An entry on the threshold of a -1 sign reads
    zero here, yet the +1 tie rule gives it the opposite sign, and
    ``consistency_report`` counts that tie as a disagreement.
    """
    x = select_vector(as_matrix(X), system.mask)
    slack = system.signs * (x[None, :] - _thresholds(system, "violation"))
    v = np.minimum(slack, 0.0)
    return float(np.sqrt(np.sum(v * v)))


def feasible_intervals(system: OneBitObservation):
    """Per-entry feasible interval [lo, hi] implied by the sign constraints.

    Each constraint touches a single entry, so the polyhedron is the box
    lo_k <= x_k <= hi_k with lo the largest +1 threshold and hi the smallest
    -1 threshold (-inf/+inf when a side is unconstrained).
    """
    thresholds = _thresholds(system, "the feasible box")
    plus = np.where(system.signs > 0, thresholds, -np.inf)
    minus = np.where(system.signs < 0, thresholds, np.inf)
    return plus.max(axis=0), minus.min(axis=0)


def hamming(a, b) -> int:
    """Number of positions where two equal-size sign arrays differ."""
    av = np.asarray(a).ravel()
    bv = np.asarray(b).ravel()
    if av.shape != bv.shape:
        raise ValueError(f"length mismatch: {av.size} vs {bv.size}")
    if not (np.all(np.abs(av) == 1) and np.all(np.abs(bv) == 1)):
        raise ValueError("inputs must be +-1 sign vectors")
    return int(np.count_nonzero(av != bv))


def consistency_report(x_bar, obs: OneBitObservation, x_true) -> int:
    """Sign disagreements zeta between a solution and the generating matrix.

    Counts, on the mask only and over all m sequences, positions where
    sign(x_true - t) and sign(x_bar - t) differ, with the tie-at-threshold
    resolved to +1 on both sides.
    """
    t = _thresholds(obs, "consistency")
    xt = select_vector(as_matrix(x_true), obs.mask)
    xb = select_vector(as_matrix(x_bar), obs.mask)
    return hamming(sign_pm1(xt[None, :] - t), sign_pm1(xb[None, :] - t))


def t_ave(X, obs: OneBitObservation, power: int) -> float:
    """Average |entry - threshold|^power over the mask and all sequences."""
    if power not in (1, 2):
        raise ValueError(f"power must be 1 or 2, got {power}")
    thresholds = _thresholds(obs, "threshold distance")
    x = select_vector(as_matrix(X), obs.mask)
    d = np.abs(x[None, :] - thresholds)
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

