"""Nuclear-norm recovery solvers.

Two convex programs share the singular-value soft-threshold as their
proximal core:

* ``solve_quantized_mc``: minimize ||X||_* subject to
  ||P_mask(X) - Q||_F <= radius, handled by accelerated proximal gradient on
  the penalized form ||X||_* + (1/2 mu) ||P_mask(X) - Q||_F^2 plus a
  bisection on mu until the ball constraint is active (residual within 5%
  below the radius, never beyond its feasibility slack).
* ``solve_one_bit_mc``: minimize reg_weight * ||X||_* + 1/2 ||X||_F^2 over
  the sign polyhedron, which is a per-entry box on the mask, handled by
  dual accelerated singular value thresholding: FISTA on the 1-smooth dual
  of the strongly convex objective, with a clip onto the box (shrunk by a
  tiny interior margin) as its proximal step and a duality-gap stop.

Both start from the zero matrix and are fully deterministic.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .core import SampleMask, as_matrix
from .onebit import (
    OneBitObservation,
    PolyhedronSystem,
    feasible_intervals,
    surrogate_data,
    violation_measure,
)

__all__ = [
    "ProxParams",
    "SolverReport",
    "prox_nuclear",
    "solve_one_bit_mc",
    "solve_quantized_mc",
    "solve_statistics_only",
]

# Acceptable undershoot of the target radius before the ball constraint
# stops counting as active (the overshoot side is capped by tol_feas, which
# keeps the feasibility contract hard), and the mu-bisection limits (the
# nominal bracket is [1e-6, 1e6]; the ends extend when the target residual
# is out of reach).
_RESIDUAL_BAND = 0.05
_MU_BRACKET = (1e-6, 1e6)
_MU_LIMITS = (1e-10, 1e10)
_MAX_BISECTIONS = 40

# Interior margin of the one-bit box, shrunk per entry to a quarter of the
# entry's feasible interval so the shrunk box stays nonempty.
_FEAS_MARGIN = 5e-7


@dataclasses.dataclass(frozen=True)
class ProxParams:
    """Iteration budget and tolerances for the proximal solvers.

    ``max_iters`` is the total budget across all inner solves;
    ``step_size`` scales the analytic 1/L step; ``tol_rel_change`` stops an
    inner loop (quantized) or bounds the relative duality gap (one-bit);
    ``tol_feas`` is the relative slack on the ball radius (the one-bit solver
    stops only on exact sign feasibility).
    """

    max_iters: int = 20000
    step_size: float = 1.0
    tol_rel_change: float = 1e-8
    tol_feas: float = 1e-6

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.step_size <= 0 or self.tol_rel_change <= 0 or self.tol_feas <= 0:
            raise ValueError("step_size and tolerances must be positive")


@dataclasses.dataclass(eq=False)
class SolverReport:
    """Solution plus run diagnostics.

    ``data_residual`` is the ball residual ||P_mask(X) - Q||_F for the
    quantized problem and the constraint violation for the one-bit problem.
    ``stage_objectives`` holds one stage for the one-bit solver, its
    per-iteration primal objective, and is empty otherwise.
    """

    matrix: np.ndarray
    iterations: int
    objective: float
    data_residual: float
    converged: bool
    nuclear_norm: float
    stage_objectives: tuple = ()


def _svd_soft(Z: np.ndarray, theta: float):
    """Soft-threshold the singular values of Z by theta; returns (matrix, sv)."""
    try:
        u, s, vt = np.linalg.svd(Z, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"SVD failed on {Z.shape} matrix (fro={np.linalg.norm(Z):.3e}, "
            f"max={np.abs(Z).max():.3e}, finite={np.all(np.isfinite(Z))})"
        ) from exc
    s_shrunk = np.maximum(s - theta, 0.0)
    return (u * s_shrunk) @ vt, s_shrunk


def prox_nuclear(Z, theta: float) -> np.ndarray:
    """Proximal operator of theta * ||.||_*: shrink each singular value by theta.

    Minimizes theta * ||X||_* + 1/2 ||X - Z||_F^2; theta = 0 returns Z.
    """
    Zm = as_matrix(Z)
    if theta < 0:
        raise ValueError(f"theta must be nonnegative, got {theta}")
    if theta == 0:
        return Zm.copy()
    return _svd_soft(Zm, theta)[0]


def _fista_ball(q, mask: SampleMask, shape, mu, x0, params: ProxParams, cap: int):
    """Accelerated proximal gradient for ||X||_* + (1/2 mu)||P(X) - Q||_F^2.

    The smooth part has Lipschitz constant 1/mu, so the gradient step with
    step_size s is X - s * (P(X) - Q) on the mask and the prox weight is
    s * mu.  Returns (X, iterations, inner_converged, residual, nuclear).
    """
    rows, cols = mask.rows, mask.cols
    s = params.step_size
    theta = s * mu
    X = x0.copy()
    Y = x0.copy()
    t = 1.0
    nuc = float(np.linalg.norm(X, "nuc")) if X.any() else 0.0
    converged = False
    iters = 0
    for iters in range(1, max(cap, 0) + 1):
        Z = Y.copy()
        Z[rows, cols] -= s * (Y[rows, cols] - q)
        Xn, sv = _svd_soft(Z, theta)
        rel = np.linalg.norm(Xn - X) / max(1.0, np.linalg.norm(X))
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        Y = Xn + ((t - 1.0) / t_next) * (Xn - X)
        X = Xn
        nuc = float(sv.sum())
        t = t_next
        if rel <= params.tol_rel_change:
            converged = True
            break
    if cap <= 0:
        iters = 0
    residual = float(np.linalg.norm(X[rows, cols] - q))
    return X, iters, converged, residual, nuc


def solve_quantized_mc(Q, mask: SampleMask, radius: float, params: ProxParams | None = None) -> SolverReport:
    """Minimum nuclear norm subject to ||P_mask(X) - Q||_F <= radius.

    Q must vanish off the mask.  If the zero matrix is feasible it is
    returned directly (it has minimal nuclear norm).  Otherwise the data-fit
    weight mu is bisected until the residual lands in the acceptance window
    [0.95 * radius, radius * (1 + tol_feas)], each subproblem warm-started
    from the previous iterate.  A radius no inner solve can reach yields
    converged=False.
    """
    params = params or ProxParams()
    Qm = as_matrix(Q)
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    off = Qm.copy()
    off[mask.rows, mask.cols] = 0.0
    if np.any(off != 0.0):
        raise ValueError("Q must vanish off the sample mask")
    q = Qm[mask.rows, mask.cols]
    qnorm = float(np.linalg.norm(q))
    shape = Qm.shape

    if qnorm <= radius:
        return SolverReport(
            matrix=np.zeros(shape),
            iterations=0,
            objective=0.0,
            data_residual=qnorm,
            converged=True,
            nuclear_norm=0.0,
        )

    feas_limit = radius * (1.0 + params.tol_feas)
    band_lo = (1.0 - _RESIDUAL_BAND) * radius
    band_hi = feas_limit
    inner_cap = max(100, params.max_iters // 10)

    total = 0
    accepted = None  # (X, residual, nuclear) with residual inside the band
    best_feasible = None  # feasible iterate with the largest residual (smallest nuclear norm)
    closest = None  # smallest residual seen, fallback when nothing is feasible

    def evaluate(mu, warm):
        nonlocal total
        cap = min(inner_cap, params.max_iters - total)
        X, iters, ok, resid, nuc = _fista_ball(q, mask, shape, mu, warm, params, cap)
        total += iters
        return X, ok, resid, nuc

    def consider(X, ok, resid, nuc):
        nonlocal accepted, best_feasible, closest
        if closest is None or resid < closest[1]:
            closest = (X, resid, nuc, ok)
        if resid <= feas_limit and (best_feasible is None or resid > best_feasible[1]):
            best_feasible = (X, resid, nuc, ok)
        if band_lo <= resid <= band_hi and ok and accepted is None:
            accepted = (X, resid, nuc, ok)

    mu_lo, mu_hi = _MU_BRACKET
    warm = np.zeros(shape)

    # qnorm > radius, so the large-mu side over-shoots the band; make sure the
    # small-mu side can undershoot it, expanding below the nominal bracket if
    # the target is tighter than mu = 1e-6 can reach.
    while total < params.max_iters:
        X, ok, resid, nuc = evaluate(mu_lo, warm)
        warm = X
        consider(X, ok, resid, nuc)
        if accepted is not None or resid <= band_hi or mu_lo <= _MU_LIMITS[0]:
            break
        mu_lo = max(mu_lo / 10.0, _MU_LIMITS[0])

    for _ in range(_MAX_BISECTIONS):
        if accepted is not None or total >= params.max_iters:
            break
        mu = math.sqrt(mu_lo * mu_hi)
        X, ok, resid, nuc = evaluate(mu, warm)
        warm = X
        consider(X, ok, resid, nuc)
        if resid > radius:
            mu_hi = mu
        else:
            mu_lo = mu

    if accepted is not None:
        X, resid, nuc, ok = accepted
        converged = True
    elif best_feasible is not None:
        X, resid, nuc, ok = best_feasible
        converged = bool(ok)
    else:
        X, resid, nuc, ok = closest
        converged = False

    return SolverReport(
        matrix=X,
        iterations=total,
        objective=nuc,
        data_residual=resid,
        converged=converged,
        nuclear_norm=nuc,
    )


def solve_one_bit_mc(
    system: PolyhedronSystem,
    reg_weight: float,
    params: ProxParams | None = None,
) -> SolverReport:
    """Minimize reg_weight * ||X||_* + 1/2 ||X||_F^2 over the sign polyhedron.

    The polyhedron is the per-entry box lo <= X_mask <= hi of
    ``feasible_intervals``; the solver targets the box shrunk by
    gamma_k = min(_FEAS_MARGIN, width_k / 4) on each side.  The objective is
    1-strongly convex, so the dual over the box multipliers y is 1-smooth:
    accelerated proximal gradient on the dual (dual accelerated SVT) maps
    each extrapolated multiplier w to X = SVT(-P_mask^*(w)), one SVD per
    step, and its proximal step is a clip onto the shrunk box.  The loop
    stops once X satisfies every sign constraint (lo <= x < hi, the strict
    side matching the +1 tie rule of ``consistency_report``) and the duality
    gap against the shrunk box is at most tol_rel_change * max(1, |P(X)|).
    An empty box (some lo > hi) returns the zero matrix after 0 iterations.
    """
    params = params or ProxParams()
    if reg_weight < 0:
        raise ValueError(f"reg_weight must be nonnegative, got {reg_weight}")
    mask = system.mask
    rows, cols = mask.rows, mask.cols
    shape = (mask.dims.n1, mask.dims.n2)

    lo, hi = feasible_intervals(system)
    if np.any(lo > hi):
        X = np.zeros(shape)
        return SolverReport(
            matrix=X, iterations=0, objective=0.0, data_residual=violation_measure(system, X),
            converged=False, nuclear_norm=0.0,
        )
    gamma = np.minimum(_FEAS_MARGIN, 0.25 * (hi - lo))
    box_lo, box_hi = lo + gamma, hi - gamma

    def primal_of(y):
        W = np.zeros(shape)
        W[rows, cols] = -y
        return _svd_soft(W, reg_weight)

    def dual_value(y):
        # -f*(-P^* y) - support of the shrunk box; f*(Z) = 1/2 ||SVT(Z)||_F^2,
        # and a zero multiplier costs nothing against an infinite bound
        _, sv = primal_of(y)
        up, down = y > 0, y < 0
        support = float(y[up] @ box_hi[up] + y[down] @ box_lo[down])
        return -0.5 * float(sv @ sv) - support

    s = params.step_size
    y = w = np.zeros(mask.m_prime)
    t = 1.0
    history = []
    converged = False
    for iters in range(1, params.max_iters + 1):
        X, sv = primal_of(w)
        x = X[rows, cols]
        nuc = float(sv.sum())
        objective = reg_weight * nuc + 0.5 * float(sv @ sv)
        history.append(objective)
        v = w + s * x
        y_next = v - s * np.clip(v / s, box_lo, box_hi)
        if np.all((lo <= x) & (x < hi)):
            gap = objective - dual_value(y_next)
            if gap <= params.tol_rel_change * max(1.0, abs(objective)):
                converged = True
                break
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        w = y_next + ((t - 1.0) / t_next) * (y_next - y)
        y, t = y_next, t_next

    return SolverReport(
        matrix=X,
        iterations=iters,
        objective=objective,
        data_residual=violation_measure(system, X),
        converged=converged,
        nuclear_norm=nuc,
        stage_objectives=(np.array(history),),
    )


def solve_statistics_only(
    obs: OneBitObservation,
    delta: float,
    radius: float,
    params: ProxParams | None = None,
) -> SolverReport:
    """Recovery from signs and the dither scale alone (single-sequence mode).

    Builds the scaled-sign surrogate (delta/2) * R on the mask and solves
    the radius-constrained nuclear norm problem against it.  The caller is
    responsible for delta >= 2 * max|X|, the regime in which the surrogate
    is unbiased.
    """
    Q = surrogate_data(obs, delta)
    return solve_quantized_mc(Q, obs.mask, radius, params)
