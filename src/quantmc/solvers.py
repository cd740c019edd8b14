"""Nuclear-norm recovery solvers.

Two convex programs, each solved by a loop around one singular-value
soft-threshold per step, ``_svd_soft``.  Each rule is stated once, in the
docstring named here:

* ``solve_quantized_mc``: minimum nuclear norm inside the ball
  ||P_mask(X) - Q||_F <= radius, by one primal-dual (Chambolle-Pock) loop
  started at Q's own Pareto point (one ``_eigh`` of Q's Gram matrix), which
  stops on a duality gap of _BALL_GAP of the nuclear norm.  Its feasible
  point is the iterate, scaled along its ray onto the ball when it lies
  outside (``_ray``); the gap takes the better of the step's own dual point
  and the answer's residual, scaled by its exact operator norm
  (``_op_norm``).  Its step, its start, its certificate and its feasible
  point: ``solve_quantized_mc``.
* ``solve_one_bit_mc``: minimum reg_weight * ||X||_* + 1/2 ||X||_F^2 over
  the sign polyhedron, a per-entry box, by dual accelerated singular value
  thresholding: ``_fista`` (FISTA with the gradient restart) on the dual,
  with the spectral step of ``_clipped_step``.  Its step, its stop and what
  the stop certifies: ``solve_one_bit_mc``, with the duality gap of
  ``_box_gap``.

Both solvers take their budget and tolerances from ``ProxParams`` and are
fully deterministic.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from numpy.linalg import _umath_linalg

from .core import SampleMask, as_matrix
from .onebit import OneBitObservation, feasible_intervals, violation_measure

__all__ = [
    "ProxParams",
    "SolverReport",
    "prox_nuclear",
    "solve_one_bit_mc",
    "solve_quantized_mc",
]

# Where _svd_soft's Gram path holds its precision: the smallest
# theta / sigma_1, and the smallest ||Z||_F^2 (below it, an eps-relative
# rounding of sigma_1^2 may be subnormal).
_GRAM_FLOOR = 1e-4
_GRAM_MIN = np.finfo(float).tiny / np.finfo(float).eps

# Interior margin of the one-bit box, shrunk per entry to a quarter of the
# entry's feasible interval so the shrunk box stays nonempty.
_FEAS_MARGIN = 5e-7

# Share of the curvature quotient that the one-bit spectral step takes: the
# quotient measures the last move, and the next, momentum-driven move may
# meet more curvature.  On the onebit_known bench workload (first trial of
# seeds 2-21) 0.7 in place of 1.0 cut the iterations from 1280 to 1164.
_STEP_SAFETY = 0.7

# Largest spectral step of the one-bit dual; the smallest is 1 = 1/L.  On the
# 32x32 bench workload (first trial of 20 seeds) the short Barzilai-Borwein
# quotient clipped to [1, 3] cut the iterations from 1710 to 1280, and 0.7
# times it to 1164; the long quotient doubled them.
_STEP_MAX = 3.0

# Relative duality gap at which the ball solver stops: its answer's nuclear
# norm is then at most 1 / (1 - _BALL_GAP) times the program's minimum.  On
# the ball bench workloads (first trial of seeds 2-11) the loop takes 120 and
# 413 steps at 1e-2, 182 and 1121 at 1e-3, and 334 and 3419 at 3e-6.
_BALL_GAP = 1e-2


@dataclasses.dataclass(frozen=True)
class ProxParams:
    """Iteration budget and tolerances for the proximal solvers.

    ``max_iters`` caps the steps of either solver.  ``tol_feas`` is the
    relative slack on the ball radius: a converged ball answer has
    ||P(X) - q|| <= radius (1 + tol_feas).  ``tol_rel_change`` bounds the
    one-bit solver's relative duality gap against the shrunk box; the ball
    solver stops on a fixed relative gap, _BALL_GAP, and does not read it.
    The one-bit solver stops only on exact sign feasibility and does not
    read ``tol_feas``.
    """

    max_iters: int = 20000
    tol_rel_change: float = 1e-8
    tol_feas: float = 1e-6

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.tol_rel_change <= 0 or self.tol_feas <= 0:
            raise ValueError("tolerances must be positive")


@dataclasses.dataclass(eq=False)
class SolverReport:
    """Solution plus run diagnostics.

    ``data_residual`` is the ball residual ||P_mask(X) - Q||_F for the
    quantized problem and the constraint violation for the one-bit problem.
    ``stage_objectives`` holds one float per stage, so its length is the
    stage count; each solver runs one stage, and the entry is its final
    objective (the nuclear norm, for the ball solver).  It is empty when
    the zero matrix is returned without a solve.
    """

    matrix: np.ndarray
    iterations: int
    objective: float
    data_residual: float
    converged: bool
    nuclear_norm: float
    stage_objectives: tuple = ()


def _gesdd(Z: np.ndarray):
    """Thin LAPACK gesdd SVD of Z, with the matrix described when it fails."""
    try:
        return np.linalg.svd(Z, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"SVD failed on {Z.shape} matrix (fro={np.linalg.norm(Z):.3e}, "
            f"max={np.abs(Z).max():.3e}, finite={np.all(np.isfinite(Z))})"
        ) from exc


def _eigh_failed(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _eigh(gram: np.ndarray):
    """Eigenvalues (ascending) and eigenvectors of the symmetric float64 gram.

    LAPACK syevd through numpy's ``eigh_lo`` gufunc, the routine
    ``np.linalg.eigh`` runs, with the same floating-point error state, so
    the result is bitwise that of ``np.linalg.eigh`` and a failure to
    converge raises ``np.linalg.LinAlgError``; it skips only the wrapper's
    input checks and type conversions, which a float64 Gram matrix does not
    need.
    """
    with np.errstate(call=_eigh_failed, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return _umath_linalg.eigh_lo(gram, signature="d->dd")


def _svd_soft(Z: np.ndarray, theta: float):
    """Soft-threshold the singular values of Z by theta; returns (matrix, sv).

    It is the one matrix decomposition either solver takes per step.  With
    A = Z, or Z^T when Z is wide, the eigenpairs (lam, v) of the smaller
    Gram matrix A^T A (LAPACK syevd, by ``_eigh``) with lam > theta^2 give
    sigma = sqrt(lam) and X = A V diag(1 - theta / sigma) V^T, and
    sv = sigma - theta holds only those kept.  Squaring puts an error of
    about eps * sigma_1^2 into every lam, so a singular value near theta is
    off by at most eps * sigma_1^2 / (2 theta).  Below
    theta = _GRAM_FLOOR * sigma_1 (where that reaches about
    1e-12 * sigma_1), and when the trace of A^T A overflows or comes too
    near the subnormal range, a full SVD (LAPACK gesdd) is taken instead;
    its sv has one entry per singular value.
    sigma_1^2 is at least the trace over the k = A.shape[1] eigenvalues, so
    a theta that the trace alone puts below the floor goes to gesdd without
    a syevd.  Either routine raises ``np.linalg.LinAlgError`` when LAPACK
    does not converge (a NaN in Z, for one), which ``run_experiment``
    records as a failed trial.
    """
    A = Z.T if Z.shape[0] < Z.shape[1] else Z
    gram = A.T @ A
    trace = gram.trace()
    if _GRAM_MIN <= trace < math.inf and theta >= _GRAM_FLOOR * math.sqrt(trace / A.shape[1]):
        soft = _gram_soft(Z, _eigh(gram), theta)
        if soft is not None:
            return soft
    u, s, vt = _gesdd(Z)
    s_shrunk = np.maximum(s - theta, 0.0)
    return (u * s_shrunk) @ vt, s_shrunk


def _gram_soft(Z: np.ndarray, eig, theta: float):
    """``_svd_soft``'s Gram path: (SVT_theta(Z), sv) from the eigenpairs
    eig = (lam, V) of A^T A, A = Z or Z^T when Z is wide, or None where
    theta < _GRAM_FLOOR * sigma_1 and the squares are too coarse."""
    lam, V = eig
    if theta < _GRAM_FLOOR * math.sqrt(lam[-1]):
        return None
    A = Z.T if Z.shape[0] < Z.shape[1] else Z
    k = lam.searchsorted(theta * theta, side="right")
    sigma = np.sqrt(lam[k:])
    Vk = V[:, k:]
    X = (A @ (Vk * (1.0 - theta / sigma))) @ Vk.T
    return (X if A is Z else X.T), sigma - theta


def _op_norm(M: np.ndarray) -> float:
    """||M||_op, the root of the largest eigenvalue of the smaller Gram matrix
    (LAPACK syevd, values only, numpy's ``eigvalsh_lo``: about half the work
    of ``_eigh``).  The largest eigenvalue is off by a small multiple of eps
    times itself, so the root is good to about eps relative.  Where the
    Gram matrix's trace is not in [_GRAM_MIN, inf), gesdd's largest singular
    value is taken instead."""
    A = M.T if M.shape[0] < M.shape[1] else M
    gram = A.T @ A
    if not _GRAM_MIN <= gram.trace() < math.inf:
        return float(np.linalg.svd(M, compute_uv=False)[0])
    with np.errstate(call=_eigh_failed, invalid="call", over="ignore", divide="ignore", under="ignore"):
        lam = _umath_linalg.eigvalsh_lo(gram, signature="d->d")
    return math.sqrt(max(float(lam[-1]), 0.0))


def _op_lower(M: np.ndarray, v: np.ndarray):
    """A lower bound on ||M||_op from 4 power steps on M^T M from the unit
    vector v; returns (bound, the last unit vector), or (0, v) when M v = 0."""
    bound = 0.0
    for _ in range(4):
        w = M.T @ (M @ v)
        norm = math.sqrt(w @ w)
        if norm == 0.0:
            break
        bound, v = math.sqrt(norm), w / norm
    return bound, v


def _ray(x: np.ndarray, r: np.ndarray, r_norm: float, radius: float) -> float:
    """The scale t nearest 1 with ||t x - q|| = radius, where r = x - q lies
    outside the ball, or 0 when no positive t reaches the ball.

    With t = 1 + s the condition is a s^2 + 2 b s + c = 0, a = ||x||^2,
    b = <x, r>, c = ||r||^2 - radius^2 > 0; both roots in s have the sign
    of -b, and the one nearest 0 is -c / (b + sign(b) sqrt(b^2 - a c)),
    without cancellation.
    """
    a, b = float(x @ x), float(x @ r)
    c = (r_norm - radius) * (r_norm + radius)
    disc = b * b - a * c
    if not (disc >= 0.0 and b != 0.0):
        return 0.0
    return max(1.0 - c / (b + math.copysign(math.sqrt(disc), b)), 0.0)


def prox_nuclear(Z, theta: float) -> np.ndarray:
    """Proximal operator of theta * ||.||_*: shrink each singular value by theta.

    Minimizes theta * ||X||_* + 1/2 ||X - Z||_F^2; theta = 0 returns Z, and
    a negative or NaN theta raises ``ValueError``.
    Computed by ``_svd_soft``: from the Gram eigendecomposition (LAPACK
    syevd, numpy's ``eigh_lo``), or a full SVD (gesdd) when
    theta < 1e-4 * sigma_1(Z).  Raises ``np.linalg.LinAlgError`` when LAPACK
    does not converge.
    """
    Zm = as_matrix(Z)
    if not theta >= 0:
        raise ValueError(f"theta must be nonnegative, got {theta}")
    if theta == 0:
        return Zm.copy()
    return _svd_soft(Zm, theta)[0]


def _fro(a: np.ndarray) -> float:
    """||a||_F computed as np.linalg.norm does: the root of the dot product of
    a raveled (in memory order) view with itself."""
    v = a.ravel(order="K")
    return math.sqrt(v @ v)


def _fista(step, z0, cap: int):
    """Accelerated proximal loop (FISTA with adaptive restart) of the one-bit solver.

    ``step(w, z)`` maps the extrapolated point w and the current iterate z
    to ``(z_next, stop, info)``: one proximal-gradient step and its stopping
    test.  Runs at most ``cap >= 1`` steps from z0; returns (z, iterations,
    stopped, info of the last step).  The loop never writes into z0 or into
    an array a step was given or returned: each w is built in the fresh
    array that held the move z_next - z, and w - z_next goes to one scratch
    array.

    Gradient restart (O'Donoghue-Candes): when the step's gradient mapping
    w - z_next has a positive inner product with the move z_next - z, the
    momentum points uphill, so t is reset to 1 and the next point is z_next
    itself.  On the first step w = z, so it never fires there.
    """
    z = w = z0
    t = 1.0
    grad = np.empty(np.shape(z0))
    for iters in range(1, cap + 1):
        z_next, stop, info = step(w, z)
        if stop:
            return z_next, iters, True, info
        move = z_next - z
        np.subtract(w, z_next, out=grad)
        if np.vdot(grad, move) > 0:
            t = 1.0
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        move *= (t - 1.0) / t_next
        move += z_next
        w = move
        z, t = z_next, t_next
    return z, iters, False, info


def _box_gap(w, x, box_lo, box_hi):
    """Duality gap of the one-bit solver at its dual point w, from the step's
    own primal x = P(X(w)): the Fenchel-Young gap sigma_B(w) - <w, x>.

    sigma_B(w) = sum over w > 0 of w box_hi, plus over w < 0 of w box_lo, is
    the support function of the box B = [box_lo, box_hi]; it is +inf where w
    meets an unbounded side, and so is the gap.  X = SVT(-P^* w) gives
    <X, -P^* w> = reg ||X||_* + ||X||_F^2 (Fenchel-Young with equality), so
    the gap equals the objective at X less the dual value at w.
    """
    up, down = w > 0.0, w < 0.0
    return float(w[up] @ (box_hi[up] - x[up]) + w[down] @ (box_lo[down] - x[down]))


def _clipped_step(num, den, s_max):
    """Spectral step of the one-bit dual, in units of 1/L: the quotient num / den,
    an inverse local curvature along the last move, times _STEP_SAFETY and
    clipped to [1, s_max]; 1 where the quotient is not positive and finite.
    """
    if not (num > 0.0 and den > 0.0):
        return 1.0
    rho = num / den
    return min(s_max, max(1.0, _STEP_SAFETY * rho)) if math.isfinite(rho) else 1.0


def solve_quantized_mc(Q, mask: SampleMask, radius: float, params: ProxParams | None = None) -> SolverReport:
    """Minimum nuclear norm subject to ||P_mask(X) - Q||_F <= radius.

    Q must vanish off the mask and be finite, and the radius positive (an
    infinite one admits the zero matrix); otherwise ``ValueError``.  If the
    zero matrix is feasible it is returned directly (it has minimal nuclear
    norm).  Otherwise the saddle problem
    min_X max_y ||X||_* + <P(X), y> - <y, q> - radius ||y||, q the masked
    entries of Q, is solved by the primal-dual loop of Chambolle and Pock
    (J. Math. Imaging Vis. 2011).  Each step is

        v = y + sigma P(Xbar),  y = v - sigma Pi(v / sigma),
        Xn = SVT_tau(X - tau P^* y),  Xbar = 2 Xn - X,

    with Pi the projection onto the ball, one ``_svd_soft`` per step, and
    tau = 2 max_k |q_k|, sigma = 0.99 / tau (sigma tau ||P||^2 < 1; X and
    tau scale with Q, y and sigma tau do not).  The loop starts at Q's own
    Pareto point, the solution on a full mask: X = SVT_mu(Q) and
    y = (P(X) - q) / mu, with mu the root of
    sqrt(sum_i min(sigma_i(Q), mu)^2) = radius.  One ``_eigh`` of Q's
    smaller Gram matrix gives both: its eigenvalues are the sigma_i^2, and
    its eigenpairs give SVT_mu(Q) as in ``_svd_soft``, which takes the start
    instead where its precision rule calls for gesdd.

    Each step's feasible point F is Xn while its residual r = P(Xn) - q has
    ||r|| <= radius (1 + tol_feas).  Otherwise it is t Xn, with t the end
    nearest 1 of the interval of scales that ``_ray`` finds inside the
    ball; ||t Xn||_* = t ||Xn||_* needs no decomposition, and t Xn keeps
    Xn's rank.  Where that line misses the ball (or rounding puts t Xn
    outside it), F is Xn with P(F) = q + r radius / ||r||, the masked
    repair.  That moves Xn by ||r|| - radius in Frobenius norm, so ||F||_*
    is at most ||Xn||_* + (||r|| - radius) sqrt(min(n1, n2)), and F's own
    nuclear norm takes one values-only SVD, once that bound certifies the
    gap (F counts only if the rounding of q + r radius / ||r|| leaves it
    inside the ball, which a tiny radius may not).

    Each step certifies F with the better of two dual points; any y with
    ||P^* y||_op <= 1 proves that no feasible point has a nuclear norm
    below -<y, q> - radius ||y||.  The first is the step's own.
    (X - tau P^* y - Xn) / tau is a subgradient of ||.||_* at Xn, so
    ||P^* y||_op <= 1 + ||X - Xn||_F / tau, and y' = y / (1 + ||X - Xn||_F
    / tau) is dual feasible.  The second is F's own residual,
    f / ||P^* f||_op with f = P(F) - q (r for the masked repair, which is
    parallel to it), the multiplier's direction at the solution.  Its
    exact norm costs one ``_op_norm``, taken only when the first point does
    not certify and neither of two free lower bounds on ||P^* f||_op rules
    it out: |<f, P(Xn)>| / ||Xn||_*, as ||.||_op is dual to ||.||_*, and
    ``_op_lower``'s power steps, each warm-started from the last.  The loop
    stops, converged, at the first F whose gap ||F||_* - dual is at most
    _BALL_GAP ||F||_*.  After max_iters steps the last F is returned with
    converged=False.
    ``tol_rel_change`` is not read.
    """
    params = params or ProxParams()
    Qm = as_matrix(Q)
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    off = Qm.copy()
    off[mask.rows, mask.cols] = 0.0
    if np.any(off != 0.0):
        raise ValueError("Q must vanish off the sample mask")
    q = Qm[mask.rows, mask.cols]
    qnorm = float(np.linalg.norm(q))

    if qnorm <= radius:
        return SolverReport(
            matrix=np.zeros(Qm.shape),
            iterations=0,
            objective=0.0,
            data_residual=qnorm,
            converged=True,
            nuclear_norm=0.0,
        )

    # The start: one syevd of Q's Gram matrix gives Q's squared singular
    # values and, from the same eigenpairs, SVT_mu(Q).  The start's mu, in
    # units of ||q||: with the k largest singular values at or above mu, the
    # Pareto residual squared is tail_k + k mu^2, tail_k the sum of the other
    # squares, and it rises from 0 to 1 on [0, sigma_1].
    A = Qm.T if Qm.shape[0] < Qm.shape[1] else Qm
    gram = A.T @ A
    eig = _eigh(gram) if _GRAM_MIN <= gram.trace() < math.inf else None
    if eig is None:
        sq = (np.linalg.svd(Qm, compute_uv=False) / qnorm) ** 2
    else:
        sq = np.maximum(eig[0][::-1], 0.0) / (qnorm * qnorm)
    tails = np.append(np.cumsum(sq[::-1])[::-1][1:], 0.0)
    rho2 = (radius / qnorm) ** 2
    k = max(1, int(np.count_nonzero(tails + np.arange(1, len(sq) + 1) * sq > rho2)))
    mu = qnorm * math.sqrt(max(rho2 - tails[k - 1], 0.0) / k)
    soft = None if eig is None else _gram_soft(Qm, eig, mu)
    X = soft[0] if soft else _svd_soft(Qm, mu)[0]

    idx = mask.rows * Qm.shape[1] + mask.cols  # C-order flat index of the mask
    tau = 2.0 * float(np.abs(q).max())
    sigma = 0.99 / tau
    limit = radius * (1.0 + params.tol_feas)
    spread = math.sqrt(min(Qm.shape))  # ||D||_* <= spread ||D||_F
    x = X.take(idx)
    y = (x - q) / mu
    x_bar = x
    u = np.full(Qm.shape[1], 1.0 / math.sqrt(Qm.shape[1]))  # _op_lower's vector, kept across steps
    for iters in range(1, params.max_iters + 1):
        w = y / sigma + x_bar - q  # v / sigma - q
        w_norm = math.sqrt(w @ w)
        y = (sigma * (1.0 - radius / w_norm)) * w if w_norm > radius else np.zeros_like(w)
        Z = X.copy()
        Z.put(idx, x - tau * y)
        Xn, sv = _svd_soft(Z, tau)
        nuc = float(np.add.reduce(sv))
        xn = Xn.take(idx)
        r = xn - q
        r_norm = math.sqrt(r @ r)
        y_dual = y / (1.0 + _fro(X - Xn) / tau)
        dual = -float(y_dual @ q) - radius * math.sqrt(y_dual @ y_dual)
        X, x, x_bar = Xn, xn, 2.0 * xn - x

        # The feasible point F: t X on the ray, or the masked repair, whose
        # nuclear norm is bounded here and taken by SVD once it certifies.
        t = 1.0 if r_norm <= limit else _ray(xn, r, r_norm, radius)
        if t > 0.0:
            f = r if t == 1.0 else t * xn - q
            f_norm = math.sqrt(f @ f)
        masked = not (t > 0.0 and f_norm <= limit)
        g, f_nuc = (r, nuc + (r_norm - radius) * spread) if masked else (f, t * nuc)

        # The second dual point, g / ||P^* g||_op; its exact norm is taken
        # only when neither free lower bound rules out a certificate.
        if f_nuc - dual > _BALL_GAP * f_nuc:
            num = -float(g @ q) - radius * math.sqrt(g @ g)
            need = num / ((1.0 - _BALL_GAP) * f_nuc)  # the largest norm that certifies
            if num > 0.0 and abs(float(g @ xn)) <= need * nuc:
                M = np.zeros(Qm.shape)
                M.put(idx, g)
                lower, u = _op_lower(M, u)
                if lower <= need:
                    dual = max(dual, num / _op_norm(M))
        certified = f_nuc - dual <= _BALL_GAP * f_nuc
        if not masked:
            F = X if t == 1.0 else t * X
            converged = certified
        elif certified or iters == params.max_iters:
            F = X.copy()
            F.put(idx, q + (radius / r_norm) * r)
            f = F.take(idx) - q
            f_norm = math.sqrt(f @ f)
            f_nuc = float(np.linalg.svd(F, compute_uv=False).sum())
            converged = certified and f_norm <= limit
        else:
            continue
        if converged:
            break

    return SolverReport(
        matrix=F,
        iterations=iters,
        objective=f_nuc,
        data_residual=f_norm,
        converged=converged,
        nuclear_norm=f_nuc,
        stage_objectives=(f_nuc,),
    )


def solve_one_bit_mc(
    system: OneBitObservation,
    reg_weight: float,
    params: ProxParams | None = None,
) -> SolverReport:
    """Minimize reg_weight * ||X||_* + 1/2 ||X||_F^2 over the sign polyhedron.

    ``system`` is a one-bit observation with thresholds (``build_polyhedron``
    checks the mode); its signs and thresholds are the polyhedron, the
    per-entry box lo <= X_mask <= hi of ``feasible_intervals``.  The
    solver targets the box shrunk by
    gamma_k = min(_FEAS_MARGIN, width_k / 4) on each side.  The objective is
    1-strongly convex, so the dual over the box multipliers y is 1-smooth:
    accelerated proximal gradient on the dual (dual accelerated SVT) maps
    each extrapolated multiplier w to X = SVT(-P_mask^*(w)), one
    ``_svd_soft`` per step, and its proximal step is a clip onto the shrunk
    box.  With x = P_mask(X), the step v = w + s x, y = v - s clip(v / s)
    (the prox of s times the box's support function) takes s from
    ``_clipped_step``: _STEP_SAFETY times the short Barzilai-Borwein quotient
    <dw, -dx> / ||dx||^2 of the changes of w and x since the previous step,
    clipped to [1, _STEP_MAX], and s = 1 on the first step (the mask leaves
    the dual's local curvature well below its global bound 1).  The loop stops once X
    satisfies every sign constraint (lo <= x < hi, the strict side matching
    the +1 tie rule of ``consistency_report``) and the duality gap at w
    against the shrunk box, ``_box_gap`` = sigma_B(w) - <w, x>, is at most
    tol_rel_change * max(1, |P(X)|), whatever the steps were.  That gap is
    exactly P(X) - D(w), D the dual objective, so P(X) is at most the
    shrunk-box optimum plus the gap; it is +inf, and the loop goes on, while
    w puts weight on an unbounded side of the box.

    Against the sign box [lo, hi] itself, which X satisfies at the stop,
    the same gap sigma_[lo, hi](w) - <w, x> is the shrunk-box gap plus
    sum_k gamma_k |w_k|, so

        P(X) - OPT_box <= tol_rel_change * max(1, |P(X)|) + sum_k gamma_k |w_k|.

    The margin term dominates: at the stops of the onebit_known bench
    workload (first trial of seeds 1-9) the shrunk-box gap is negative
    (-4.5e-7 to -1.4e-9 of P(X); X is not yet inside the shrunk box), so
    the stop is the first strictly sign-feasible iterate, and the sign-box
    gap is 2.3e-6 to 3.7e-6 of P(X), against tol_rel_change = 1e-9.
    An empty box (some lo > hi) returns the zero matrix after 0 iterations;
    a negative or non-finite reg_weight raises ``ValueError``.
    """
    params = params or ProxParams()
    if not 0 <= reg_weight < math.inf:
        raise ValueError(f"reg_weight must be finite and nonnegative, got {reg_weight}")
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

    idx = rows * shape[1] + cols  # C-order flat index of the mask
    W = np.zeros(shape)  # -P^*(w), rewritten on the mask for each w
    W_flat = W.reshape(-1)
    last = None  # (w, x) of the previous step

    def step(w, _):
        nonlocal last
        W_flat[idx] = -w
        X, sv = _svd_soft(W, reg_weight)
        x = X.take(idx)
        nuc = float(np.add.reduce(sv))
        objective = reg_weight * nuc + 0.5 * float(sv @ sv)
        if last is None:
            s = 1.0
        else:
            dx = x - last[1]
            s = _clipped_step(-float((w - last[0]) @ dx), float(dx @ dx), _STEP_MAX)
        last = (w, x)
        v = w + s * x
        y_next = v - s * np.minimum(np.maximum(v / s, box_lo), box_hi)
        stop = bool(((lo <= x) & (x < hi)).all()) and (
            _box_gap(w, x, box_lo, box_hi) <= params.tol_rel_change * max(1.0, abs(objective))
        )
        return y_next, stop, (X, nuc, objective)

    _, iters, converged, (X, nuc, objective) = _fista(step, np.zeros(mask.m_prime), params.max_iters)

    return SolverReport(
        matrix=X,
        iterations=iters,
        objective=objective,
        data_residual=violation_measure(system, X),
        converged=converged,
        nuclear_norm=nuc,
        stage_objectives=(objective,),
    )
