"""Scalar quantizers, dither generators, and the one-bit limiting case.

The mid-rise quantizer maps x to ``delta * (floor(x / delta) + 1/2)`` and
saturates at ``K * delta / 2``, so outputs live in the symmetric alphabet
``{+-k * delta / 2 : 0 <= k <= K}``.  Adding a uniform dither on
``[-delta/2, delta/2)`` before quantizing makes the output unbiased for any
unsaturated input; the randomized (stochastic) quantizer achieves the same
in-expectation cancellation by rounding to an adjacent multiple of delta
with matching probabilities.  For inputs smaller than the resolution both
reduce, exactly, to a scaled sign comparison.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .core import SampleMask, scatter_vector, select_vector

__all__ = [
    "DitherSpec",
    "DitherTensor",
    "QuantizerSpec",
    "dithered_quantize",
    "generate_dither_tensor",
    "one_bit",
    "quantize_matrix",
    "scalar_quantize",
    "sign_pm1",
    "stochastic_quantize",
]


@dataclasses.dataclass(frozen=True)
class QuantizerSpec:
    """Resolution ``delta`` and alphabet half-count ``K`` (levels)."""

    delta: float
    levels: int

    def __post_init__(self):
        if not (np.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if int(self.levels) != self.levels or self.levels < 1:
            raise ValueError(f"levels must be a positive integer, got {self.levels}")
        object.__setattr__(self, "delta", float(self.delta))
        object.__setattr__(self, "levels", int(self.levels))

    @property
    def saturation(self) -> float:
        """Largest representable magnitude, K * delta / 2."""
        return self.levels * self.delta / 2.0

    @property
    def stochastic_saturation(self) -> float:
        """Largest magnitude of the randomized-rounding alphabet, K * delta."""
        return self.levels * self.delta


@dataclasses.dataclass(frozen=True)
class DitherSpec:
    """Dither distribution: none, uniform(half_width), or gaussian(sigma)."""

    kind: str
    param: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "uniform", "gaussian"):
            raise ValueError(f"unknown dither kind {self.kind!r}")
        if self.kind == "none":
            if self.param != 0.0:
                raise ValueError("dither kind 'none' takes no parameter")
        else:
            if not (np.isfinite(self.param) and self.param > 0):
                raise ValueError(f"dither parameter must be positive, got {self.param}")
        object.__setattr__(self, "param", float(self.param))

    @classmethod
    def none(cls) -> "DitherSpec":
        return cls("none")

    @classmethod
    def uniform(cls, half_width: float) -> "DitherSpec":
        """Uniform on [-half_width, half_width)."""
        return cls("uniform", half_width)

    @classmethod
    def gaussian(cls, sigma: float) -> "DitherSpec":
        return cls("gaussian", sigma)

    @property
    def variance(self) -> float:
        """Analytic variance: half_width^2 / 3, sigma^2, or 0."""
        if self.kind == "uniform":
            return self.param**2 / 3.0
        if self.kind == "gaussian":
            return self.param**2
        return 0.0


@dataclasses.dataclass(frozen=True, eq=False)
class DitherTensor:
    """m independent dither sequences of length m_prime, one row per sequence."""

    values: np.ndarray
    spec: DitherSpec
    seed: int


def sign_pm1(z):
    """Sign with the tie broken upward: +1 for z >= 0, -1 for z < 0."""
    arr = np.asarray(z)
    out = np.where(arr >= 0, 1, -1)
    if arr.ndim == 0:
        return int(out)
    return out


def _finite_or_raise(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def scalar_quantize(x, spec: QuantizerSpec):
    """Mid-rise quantization of x, saturated into [-K*delta/2, K*delta/2].

    For 0 < |x| < delta the output is exactly (delta/2) * sign(x): one-bit
    behaviour with a fixed zero threshold.
    """
    arr = _finite_or_raise(x, "quantizer input")
    q = spec.delta * (np.floor(arr / spec.delta) + 0.5)
    q = q.clip(-spec.saturation, spec.saturation)
    if arr.ndim == 0:
        return float(q)
    return q


def dithered_quantize(x, tau, spec: QuantizerSpec):
    """Quantize x + tau; with tau uniform on [-delta/2, delta/2) the result is
    unbiased for |x| <= K*delta/2 - delta."""
    arr = _finite_or_raise(x, "quantizer input")
    tarr = _finite_or_raise(tau, "dither")
    return scalar_quantize(arr + tarr, spec)


def stochastic_quantize(x, spec: QuantizerSpec, rng):
    """Randomized rounding to an adjacent multiple of delta.

    Rounds x down to floor(x/delta)*delta with probability
    ``1 - x/delta + floor(x/delta)`` and up otherwise, so the expectation
    equals x whenever the result is unsaturated.  Saturates at K*delta.
    ``rng`` is a seed or numpy Generator.
    """
    arr = _finite_or_raise(x, "quantizer input")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    k = np.floor(arr / spec.delta)
    p_down = 1.0 - arr / spec.delta + k
    u = gen.random(arr.shape)
    q = (k + (u >= p_down)) * spec.delta
    q = q.clip(-spec.stochastic_saturation, spec.stochastic_saturation)
    if arr.ndim == 0:
        return float(q)
    return q


def one_bit(x, tau):
    """Sign comparison against a threshold: +1 if x >= tau, else -1.

    The tie x == tau resolves to +1, consistently with the mid-rise
    quantizer's floor(0) + 1/2 > 0.
    """
    arr = _finite_or_raise(x, "input")
    tarr = _finite_or_raise(tau, "threshold")
    return sign_pm1(arr - tarr)


def generate_dither_tensor(spec: DitherSpec, m: int, m_prime: int, seed: int) -> DitherTensor:
    """Draw an (m x m_prime) array of i.i.d. dithers.

    Uses the counter-based Philox generator so the full tensor is a pure
    function of (spec, m, m_prime, seed), independent of draw order.
    """
    if m < 1 or m_prime < 1:
        raise ValueError(f"tensor shape must be positive, got ({m}, {m_prime})")
    rng = np.random.Generator(np.random.Philox(int(seed)))
    if spec.kind == "uniform":
        values = rng.uniform(-spec.param, spec.param, size=(m, m_prime))
    elif spec.kind == "gaussian":
        values = rng.normal(0.0, spec.param, size=(m, m_prime))
    else:
        values = np.zeros((m, m_prime))
    values.flags.writeable = False
    return DitherTensor(values=values, spec=spec, seed=int(seed))


def quantize_matrix(
    X,
    mask: SampleMask,
    spec: QuantizerSpec,
    dither: DitherSpec = DitherSpec("none"),
    seed: int = 0,
) -> np.ndarray:
    """Quantize the masked entries of X (optionally dithered); zero elsewhere.

    A uniform dither here must have half-width delta/2, the regime in which
    the dithered quantizer is unbiased entrywise.
    """
    if dither.kind == "uniform" and abs(dither.param - spec.delta / 2.0) > 1e-12 * spec.delta:
        raise ValueError(
            f"uniform dither half-width must equal delta/2 = {spec.delta / 2.0}, got {dither.param}"
        )
    x = select_vector(X, mask)
    tau = generate_dither_tensor(dither, 1, mask.m_prime, seed).values[0]
    q = scalar_quantize(x + tau, spec)
    return scatter_vector(q, mask)
