"""Closed-form recovery-error bounds and their failure-probability exponents.

Every bound concerns rank-r matrices with max-norm at most alpha, n1 x n2,
observed at m_prime uniformly sampled positions (against m threshold
sequences where relevant).  Each evaluator returns the bound value together
with the exponent E such that the bound holds except with probability
2 * exp(E); E combines a covering-number term
2 * alpha * (n1 + n2) * r * sqrt(n1 n2) / rho (with rho set to the bound
value itself) and a concentration term that grows with the sample count.
The absolute constants C and D1 of those terms are not pinned down by the
analysis; they default to 1 and are caller-overridable.  The exponents are
reported by the ``bounds`` command; the harness judges trials by the values.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

__all__ = [
    "BoundInputs",
    "BoundValue",
    "TightnessResult",
    "BOUND_FORMULAS",
    "bound_inconsistent",
    "bound_noisy",
    "bound_quantized",
    "bound_statistics_only",
    "bound_subgaussian",
    "bound_uniform",
    "compare_tightness",
    "epsilon_decay_rate",
    "loglog_slope",
    "smallest_epsilon",
]

UNIFORM_TIGHTER = "uniform_tighter"
SUBGAUSSIAN_TIGHTER = "subgaussian_tighter"
CONDITION_VIOLATED = "condition_violated"

_EPS_BRACKET = (1e-12, 1e3)
_EPS_TOL = 1e-10


@dataclasses.dataclass(frozen=True)
class BoundInputs:
    """Every symbol the bound formulas consume, with 1.0 constants by default.

    ``delta``/``K`` describe the quantizer, ``T`` the dither variance,
    ``zeta`` the measured sign-disagreement count, ``beta`` the noise
    Frobenius budget, ``sigma1``/``sigma2`` the declared noise tail proxies.
    """

    n1: int
    n2: int
    r: int
    alpha: float
    delta: float = 0.0
    K: int = 1
    epsilon: float = 0.0
    T: float = 0.0
    zeta: int = 0
    beta: float = 0.0
    sigma1: float = 0.0
    sigma2: float = 0.0
    m: int = 1
    m_prime: int = 1
    C: float = 1.0
    D1: float = 1.0

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError(f"dimensions must be positive, got ({self.n1}, {self.n2})")
        if self.r < 1:
            raise ValueError(f"r must be at least 1, got {self.r}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        for name in ("delta", "epsilon", "T", "zeta", "beta", "sigma1", "sigma2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.K < 1 or self.m < 1 or self.m_prime < 1:
            raise ValueError("K, m, and m_prime must be at least 1")
        if self.C <= 0 or self.D1 <= 0:
            raise ValueError("constants must be positive")


@dataclasses.dataclass(frozen=True)
class BoundValue:
    """Evaluated bound: value, exponent E of the 2*exp(E) failure probability,
    formula tag, and advisory flags ('degenerate', 'hypothesis_violated')."""

    value: float
    failure_probability_exponent: float
    formula_id: str
    flags: tuple = ()


@dataclasses.dataclass(frozen=True)
class TightnessResult:
    verdict: str
    gap: float


def _covering_term(p: BoundInputs, rho: float) -> float:
    return 2.0 * p.alpha * (p.n1 + p.n2) * p.r * math.sqrt(p.n1 * p.n2) / rho


def bound_quantized(p: BoundInputs) -> BoundValue:
    """2 * sqrt(r n1 n2 (eps + K^2 delta^2 / 4)); concentration term eps^2 m' / C."""
    value = 2.0 * math.sqrt(p.r * p.n1 * p.n2 * (p.epsilon + (p.K * p.K * p.delta * p.delta) / 4.0))
    if value == 0.0:
        return BoundValue(0.0, math.nan, "quantized", ("degenerate",))
    exponent = _covering_term(p, value) - (p.epsilon**2) * p.m_prime / p.C
    return BoundValue(value, exponent, "quantized")


def bound_subgaussian(p: BoundInputs) -> BoundValue:
    """sqrt(n1 n2 (2 alpha^2 r + 2 T + 6 eps)); concentration term C eps^2 m m'."""
    value = math.sqrt(p.n1 * p.n2 * (2.0 * p.alpha**2 * p.r + 2.0 * p.T + 6.0 * p.epsilon))
    exponent = _covering_term(p, value) - p.C * (p.epsilon**2) * p.m * p.m_prime
    return BoundValue(value, exponent, "subgaussian")


def bound_uniform(p: BoundInputs) -> BoundValue:
    """4 * sqrt(eps alpha n1 n2) for thresholds uniform on [-alpha, alpha];
    concentration term eps^2 m m' / (2 alpha^2)."""
    value = 4.0 * math.sqrt(p.epsilon * p.alpha * p.n1 * p.n2)
    if value == 0.0:
        return BoundValue(0.0, math.nan, "uniform", ("degenerate",))
    exponent = _covering_term(p, value) - (p.epsilon**2) * p.m * p.m_prime / (2.0 * p.alpha**2)
    return BoundValue(value, exponent, "uniform")


def bound_inconsistent(p: BoundInputs) -> BoundValue:
    """sqrt(n1 n2 (2 alpha^2 r + 8 alpha^2 zeta + 2 T + 6 eps)): the
    sign-consistent bound inflated by the measured disagreement count zeta;
    reduces to bound_subgaussian exactly at zeta = 0."""
    inner = 2.0 * p.alpha**2 * p.r + 8.0 * p.alpha**2 * p.zeta + 2.0 * p.T + 6.0 * p.epsilon
    value = math.sqrt(p.n1 * p.n2 * inner)
    exponent = _covering_term(p, value) - p.C * (p.epsilon**2) * p.m * p.m_prime
    return BoundValue(value, exponent, "inconsistent")


def bound_statistics_only(p: BoundInputs) -> BoundValue:
    """2 * sqrt(r n1 n2 (eps + delta^2 / 4)) for sign-only recovery with a
    uniform dither of range delta >= 2 alpha; flagged when that hypothesis
    fails (the value is still computed)."""
    flags = ()
    if p.delta < 2.0 * p.alpha:
        flags = ("hypothesis_violated",)
    value = 2.0 * math.sqrt(p.r * p.n1 * p.n2 * (p.epsilon + (p.delta * p.delta) / 4.0))
    if value == 0.0:
        return BoundValue(0.0, math.nan, "statistics_only", flags + ("degenerate",))
    exponent = _covering_term(p, value) - (p.epsilon**2) * p.m_prime / p.C
    return BoundValue(value, exponent, "statistics_only", flags)


def bound_noisy(p: BoundInputs) -> BoundValue:
    """Sign-only bound plus the noise Frobenius budget beta.

    Value: 2 * sqrt(r n1 n2 (eps + delta^2 / 4)) + beta.  The concentration
    term is D1 * m' * min(delta1, delta2) with
    delta1 = eps^2 / (K2 + delta K1 + delta^2/4)^2,
    delta2 = eps / (K2 + delta K1 + delta^2/4),
    K1 = max(alpha, sigma1), K2 = max(alpha, sigma2); rho stays at the
    beta-free core value.
    """
    core = 2.0 * math.sqrt(p.r * p.n1 * p.n2 * (p.epsilon + (p.delta * p.delta) / 4.0))
    value = core + p.beta
    k1 = max(p.alpha, p.sigma1)
    k2 = max(p.alpha, p.sigma2)
    denom = k2 + p.delta * k1 + (p.delta * p.delta) / 4.0
    if core == 0.0 or denom == 0.0:
        return BoundValue(value, math.nan, "noisy", ("degenerate",))
    delta1 = (p.epsilon**2) / (denom * denom)
    delta2 = p.epsilon / denom
    exponent = _covering_term(p, core) - p.D1 * p.m_prime * min(delta1, delta2)
    return BoundValue(value, exponent, "noisy")


BOUND_FORMULAS = {
    "quantized": bound_quantized,
    "subgaussian": bound_subgaussian,
    "uniform": bound_uniform,
    "inconsistent": bound_inconsistent,
    "statistics_only": bound_statistics_only,
    "noisy": bound_noisy,
}


def compare_tightness(p: BoundInputs) -> TightnessResult:
    """Compare the uniform-dither and sub-gaussian bounds at T = alpha^2 / 3.

    The uniform bound is tighter whenever (r + 1/3) alpha >= 8 eps; the gap
    is the difference of squared bound values,
    n1 n2 ((2r + 2/3) alpha^2 + 6 eps - 16 eps alpha).  When the condition
    fails the comparison is not claimed and the signed gap is still reported.
    """
    gap = p.n1 * p.n2 * ((2.0 * p.r + 2.0 / 3.0) * p.alpha**2 + 6.0 * p.epsilon - 16.0 * p.epsilon * p.alpha)
    if (p.r + 1.0 / 3.0) * p.alpha < 8.0 * p.epsilon:
        return TightnessResult(CONDITION_VIOLATED, gap)
    verdict = UNIFORM_TIGHTER if gap > 0.0 else SUBGAUSSIAN_TIGHTER
    return TightnessResult(verdict, gap)


def smallest_epsilon(p: BoundInputs, formula: str = "quantized") -> float:
    """Smallest eps > 0 whose failure exponent is nonpositive, by bisection to
    a bracket width of 1e-10.

    The exponent is strictly decreasing in eps (the covering term shrinks,
    the concentration term grows), so the root is unique.  The bracket
    [1e-12, 1e3] expands upward when needed; no sign change raises.
    """
    fn = BOUND_FORMULAS[formula]

    def exponent(eps: float) -> float:
        return fn(dataclasses.replace(p, epsilon=eps)).failure_probability_exponent

    lo, hi = _EPS_BRACKET
    f_lo = exponent(lo)
    if not math.isfinite(f_lo):
        raise ValueError(f"exponent undefined at eps={lo} for formula {formula!r}")
    if f_lo <= 0.0:
        return lo
    f_hi = exponent(hi)
    expansions = 0
    while f_hi > 0.0 and expansions < 8:
        hi *= 10.0
        f_hi = exponent(hi)
        expansions += 1
    if f_hi > 0.0:
        raise RuntimeError(f"no eps root in [{lo}, {hi}] for formula {formula!r}")
    while hi - lo > _EPS_TOL:
        mid = 0.5 * (lo + hi)
        if exponent(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def loglog_slope(x, y) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


def epsilon_decay_rate(p: BoundInputs, m_prime_grid, formula: str = "quantized") -> float:
    """Fitted decay exponent of the smallest admissible eps against m_prime.

    For each sample count in the grid, solves the smallest eps with
    nonpositive failure exponent, then fits the log-log slope.  The grid
    needs at least 5 points spanning at least two decades.  The slope sits
    near -2/5 whenever the bound value scales like sqrt(eps).
    """
    grid = sorted(int(v) for v in m_prime_grid)
    if len(grid) < 5:
        raise ValueError(f"need at least 5 grid points, got {len(grid)}")
    if grid[0] < 1 or grid[-1] < 100 * grid[0]:
        raise ValueError("grid must span at least two decades of positive sample counts")
    eps = [smallest_epsilon(dataclasses.replace(p, m_prime=mp), formula) for mp in grid]
    return loglog_slope(grid, eps)
