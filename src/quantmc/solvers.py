"""Nuclear-norm recovery solvers.

Both of the paper's programs are min ||X||_* subject to P_mask(X) in C, with
no regularization term, and both are solved by one certified primal-dual
(Chambolle-Pock) loop, ``_pdhg``: one singular-value soft-threshold per
step, ``_svd_soft``, and a stop at the first answer whose duality gap is at
most _GAP of its nuclear norm.  Each program passes the loop its dual prox,
the support function of C, and its candidate answer; where the iterate
misses C, both repair it on the mask alone, ``_masked_repair``.  Each rule
is stated once, in the docstring named here:

* ``solve_quantized_mc``: C is the ball ||P_mask(X) - Q||_F <= radius.  The
  loop starts at Q's own Pareto point (one ``_eigh`` of Q's Gram matrix).
  Its candidate is the iterate, scaled along its ray onto the ball when it
  lies outside (``_ray``), and the gap takes the better of the step's own
  dual point and the answer's residual, scaled by its exact operator norm
  (``_op_norm``).
* ``solve_one_bit_mc``: C is the sign box lo <= P_mask(X) < hi of
  ``feasible_intervals``.  The loop starts at zero and draws its iterates
  into the box shrunk by a margin; its candidate is the iterate when it
  satisfies every sign, or else the iterate clipped into the shrunk box.

Each solver takes one input beyond its program, the step budget
``max_iters``, and both are fully deterministic.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from numpy.linalg import _umath_linalg

from .core import SampleMask, as_matrix
from .onebit import OneBitObservation, feasible_intervals, violation_measure

__all__ = [
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

# Interior margin of the one-bit box, in units of the box's largest finite
# |bound| and shrunk per entry to a quarter of the entry's feasible interval
# so the shrunk box stays nonempty: the one-bit loop's multiplier pushes its
# iterates into the shrunk box, and its repair clips into it, so that they
# land strictly inside the sign box.  The shrunk box's minimum lies above
# the sign box's, which the stop certifies against, so the margin scales
# with the bounds: a fixed 5e-7 kept every solve of onebit_known at
# alpha = dither_param = 1e-4 from certifying.
_FEAS_MARGIN = 5e-7

# Relative duality gap at which both solvers stop: the answer's nuclear norm
# is then at most 1 / (1 - _GAP) times the program's minimum.  On the ball
# bench workloads (first trial of seeds 2-11) the loop takes 120 and 413
# steps at 1e-2, 182 and 1121 at 1e-3, and 334 and 3419 at 3e-6.
_GAP = 1e-2

# Relative slack on the ball radius: a ball answer counts as feasible when
# ||P(X) - q|| <= radius (1 + _TOL_FEAS).  The one-bit solver's answers
# satisfy every sign constraint exactly.
_TOL_FEAS = 1e-6


@dataclasses.dataclass(eq=False)
class SolverReport:
    """Solution plus run diagnostics.

    ``data_residual`` is the ball residual ||P_mask(X) - Q||_F for the
    quantized problem and the constraint violation for the one-bit problem.
    ``stage_objectives`` holds one float per stage, so its length is the
    stage count; each solver runs one stage, and the entry is its final
    objective, the answer's nuclear norm.  It is empty when the zero matrix
    is returned without a solve.
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


def _masked_repair(X: np.ndarray, idx: np.ndarray, values: np.ndarray):
    """X with its masked entries (C-order flat indices idx) set to values,
    and that matrix's nuclear norm, by one values-only SVD."""
    F = X.copy()
    F.put(idx, values)
    return F, float(np.linalg.svd(F, compute_uv=False).sum())


def _pdhg(X, y, idx, tau, prox, support, candidate, max_iters: int):
    """The primal-dual loop of Chambolle and Pock (J. Math. Imaging Vis.
    2011) on min ||X||_* subject to P(X) in C, from the pair (X, y), with P
    the masked entries at the C-order flat indices idx.

    The saddle problem is min_X max_y ||X||_* + <P(X), y> - sigma_C(y), with
    sigma_C the support function of C, and each step is

        y = prox(y / sigma + P(Xbar), sigma),
        Xn = SVT_tau(X - tau P^* y),  Xbar = 2 Xn - X,

    one ``_svd_soft`` per step, with sigma = 0.99 / tau (sigma tau ||P||^2
    < 1).  ``prox(v / sigma, sigma)`` is the prox of sigma * sigma_C at v,
    v - sigma Pi_C(v / sigma).  Any y with ||P^* y||_op <= 1 proves that no
    point of the program has a nuclear norm below -sigma_C(y), and each
    step has one for free: (X - tau P^* y - Xn) / tau is a subgradient of
    ||.||_* at Xn, so ||P^* y||_op <= 1 + ||X - Xn||_F / tau, and
    y' = y / (1 + ||X - Xn||_F / tau) is dual feasible; ``support(y')`` is
    sigma_C(y').

    ``candidate(Xn, P(Xn), ||Xn||_*, -sigma_C(y'), last)`` gives the step's
    answer: None, or (F, ||F||_*, dual, feasible), with F a point of the
    program when ``feasible`` is true and dual a lower bound at least
    -sigma_C(y'); ``last`` is true on the last step of the budget, which
    must give an answer.  The loop stops at the first feasible F whose gap
    ||F||_* - dual is at most _GAP ||F||_*, and returns (F, ||F||_*,
    iterations, True); after max_iters steps it returns the last step's
    answer with False.
    """
    sigma = 0.99 / tau
    x = X.take(idx)
    x_bar = x
    for iters in range(1, max_iters + 1):
        y = prox(y / sigma + x_bar, sigma)
        Z = X.copy()
        Z.put(idx, x - tau * y)
        Xn, sv = _svd_soft(Z, tau)
        nuc = float(np.add.reduce(sv))
        xn = Xn.take(idx)
        y_dual = y / (1.0 + _fro(X - Xn) / tau)
        X, x, x_bar = Xn, xn, 2.0 * xn - x
        answer = candidate(X, x, nuc, -support(y_dual), iters == max_iters)
        if answer is not None:
            F, f_nuc, dual, feasible = answer
            if feasible and f_nuc - dual <= _GAP * f_nuc:
                return F, f_nuc, iters, True
    return F, f_nuc, iters, False


def solve_quantized_mc(Q, mask: SampleMask, radius: float, max_iters: int = 20000) -> SolverReport:
    """Minimum nuclear norm subject to ||P_mask(X) - Q||_F <= radius.

    Q must vanish off the mask and be finite, the radius positive (an
    infinite one admits the zero matrix) and max_iters at least 1;
    otherwise ``ValueError``.  If the zero matrix is feasible it is returned
    directly (it has minimal nuclear norm).  Otherwise the saddle problem
    min_X max_y ||X||_* + <P(X), y> - <y, q> - radius ||y||, q the masked
    entries of Q, is solved by ``_pdhg``, whose dual prox here is
    v - sigma Pi(v / sigma), Pi the projection onto the ball, and whose
    support function is sigma(y) = <y, q> + radius ||y||.  Its steps are
    tau = 2 max_k |q_k| and sigma = 0.99 / tau (X and tau scale with Q,
    y and sigma tau do not).  The loop starts at Q's own
    Pareto point, the solution on a full mask: X = SVT_mu(Q) and
    y = (P(X) - q) / mu, with mu the root of
    sqrt(sum_i min(sigma_i(Q), mu)^2) = radius.  One ``_eigh`` of Q's
    smaller Gram matrix gives both: its eigenvalues are the sigma_i^2, and
    its eigenpairs give SVT_mu(Q) as in ``_svd_soft``, which takes the start
    instead where its precision rule calls for gesdd.

    Each step's feasible point F is Xn while its residual r = P(Xn) - q has
    ||r|| <= radius (1 + _TOL_FEAS).  Otherwise it is t Xn, with t the end
    nearest 1 of the interval of scales that ``_ray`` finds inside the
    ball; ||t Xn||_* = t ||Xn||_* needs no decomposition, and t Xn keeps
    Xn's rank.  Where that line misses the ball (or rounding puts t Xn
    outside it), F is Xn with P(F) = q + r radius / ||r||, the masked
    repair.  That moves Xn by ||r|| - radius in Frobenius norm, so ||F||_*
    is at most ||Xn||_* + (||r|| - radius) sqrt(min(n1, n2)), and F's own
    nuclear norm takes one values-only SVD (``_masked_repair``), once that
    bound certifies the gap (F counts only if the rounding of
    q + r radius / ||r|| leaves it inside the ball, which a tiny radius may
    not).

    Each step certifies F with the better of two dual points.  The first is
    the loop's own y'.  The second is F's own residual, f / ||P^* f||_op with
    f = P(F) - q (r for the masked repair, which is parallel to it), the
    multiplier's direction at the solution.  Its exact norm costs one
    ``_op_norm``, taken only when the first point does not certify and
    neither of two free lower bounds on ||P^* f||_op rules it out:
    |<f, P(Xn)>| / ||Xn||_*, as ||.||_op is dual to ||.||_*, and
    ``_op_lower``'s power steps, each warm-started from the last.  The loop
    stops, converged, at the first F whose gap ||F||_* - dual is at most
    _GAP ||F||_*.  After max_iters steps the last F is returned with
    converged=False.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
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
    limit = radius * (1.0 + _TOL_FEAS)
    spread = math.sqrt(min(Qm.shape))  # ||D||_* <= spread ||D||_F
    u = np.full(Qm.shape[1], 1.0 / math.sqrt(Qm.shape[1]))  # _op_lower's vector, kept across steps

    def prox(v, sigma):
        w = v - q
        w_norm = math.sqrt(w @ w)
        return (sigma * (1.0 - radius / w_norm)) * w if w_norm > radius else np.zeros_like(w)

    def support(y):
        return float(y @ q) + radius * math.sqrt(y @ y)

    def candidate(X, x, nuc, dual, last):
        # The feasible point F: t X on the ray, or the masked repair, whose
        # nuclear norm is bounded here and taken by SVD once it certifies.
        nonlocal u
        r = x - q
        r_norm = math.sqrt(r @ r)
        t = 1.0 if r_norm <= limit else _ray(x, r, r_norm, radius)
        if t > 0.0:
            f = r if t == 1.0 else t * x - q
            f_norm = math.sqrt(f @ f)
        masked = not (t > 0.0 and f_norm <= limit)
        g, f_nuc = (r, nuc + (r_norm - radius) * spread) if masked else (f, t * nuc)

        # The second dual point, g / ||P^* g||_op; its exact norm is taken
        # only when neither free lower bound rules out a certificate.
        if f_nuc - dual > _GAP * f_nuc:
            num = -float(g @ q) - radius * math.sqrt(g @ g)
            need = num / ((1.0 - _GAP) * f_nuc)  # the largest norm that certifies
            if num > 0.0 and abs(float(g @ x)) <= need * nuc:
                M = np.zeros(Qm.shape)
                M.put(idx, g)
                lower, u = _op_lower(M, u)
                if lower <= need:
                    dual = max(dual, num / _op_norm(M))
        if not masked:
            return (X if t == 1.0 else t * X), f_nuc, dual, True
        if f_nuc - dual > _GAP * f_nuc and not last:
            return None
        F, f_nuc = _masked_repair(X, idx, q + (radius / r_norm) * r)
        f = F.take(idx) - q
        return F, f_nuc, dual, math.sqrt(f @ f) <= limit

    F, f_nuc, iters, converged = _pdhg(
        X, (X.take(idx) - q) / mu, idx, 2.0 * float(np.abs(q).max()), prox, support, candidate, max_iters
    )
    f = F.take(idx) - q
    return SolverReport(
        matrix=F,
        iterations=iters,
        objective=f_nuc,
        data_residual=math.sqrt(f @ f),
        converged=converged,
        nuclear_norm=f_nuc,
        stage_objectives=(f_nuc,),
    )


def solve_one_bit_mc(system: OneBitObservation, max_iters: int = 20000) -> SolverReport:
    """Minimum nuclear norm over the sign polyhedron.

    ``system`` is a one-bit observation with thresholds (``build_polyhedron``
    checks the mode); its signs and thresholds are the polyhedron, the
    per-entry box lo <= X_mask < hi of ``feasible_intervals`` (the strict
    side matches the +1 tie rule of ``consistency_report``).  A max_iters
    below 1 raises ``ValueError``.  If the zero matrix lies in the box it
    is returned directly, converged after 0 iterations (it has minimal
    nuclear norm).  It is returned after 0 iterations with converged=False
    where the box is empty (some lo >= hi), and where every finite bound is
    0 (some entry must then be negative, and no point has the least nuclear
    norm).

    Otherwise, with s the largest finite |bound|, the program is solved by
    ``_pdhg`` on the box shrunk by gamma_k = min(_FEAS_MARGIN s, width_k / 4)
    on each side: its dual prox is v - sigma clip(v / sigma), the clip onto
    the shrunk box, which keeps the multiplier off every unbounded side.
    The steps are tau = s / 2 and sigma = 0.99 / tau, so the loop is
    scale-free like the ball's, and it starts at X = 0, y = 0.  Each step's
    dual point is certified against the sign box [lo, hi] itself, whose
    support function is sum over y > 0 of y hi plus sum over y < 0 of
    y lo.  Once the step's own gap ||Xn||_* - dual is at
    most _GAP ||Xn||_*, the answer is Xn if it is strictly sign-feasible,
    and otherwise Xn with its masked entries clipped into the shrunk box
    (strictly sign-feasible by construction), accepted if the gap at its
    own nuclear norm, by one values-only SVD, still certifies.  So every
    converged answer satisfies every sign constraint, and its nuclear norm
    is at most 1 / (1 - _GAP) times the program's minimum.  After max_iters
    steps the last step's clipped (or strictly feasible) point is returned
    with converged=False.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    mask = system.mask
    X = np.zeros((mask.dims.n1, mask.dims.n2))
    lo, hi = feasible_intervals(system)
    bounds = np.abs(np.concatenate((lo, hi)))
    scale = float(bounds[np.isfinite(bounds)].max(initial=0.0))
    zero_feasible = bool(((lo <= 0.0) & (0.0 < hi)).all())
    if zero_feasible or scale == 0.0 or not (lo < hi).all():
        return SolverReport(
            matrix=X, iterations=0, objective=0.0, data_residual=violation_measure(system, X),
            converged=zero_feasible, nuclear_norm=0.0,
        )
    gamma = np.minimum(_FEAS_MARGIN * scale, 0.25 * (hi - lo))
    box_lo, box_hi = lo + gamma, hi - gamma
    idx = mask.rows * X.shape[1] + mask.cols  # C-order flat index of the mask

    def prox(v, sigma):
        return sigma * (v - np.minimum(np.maximum(v, box_lo), box_hi))

    def support(y):
        up, down = y > 0.0, y < 0.0
        return float(y[up] @ hi[up] + y[down] @ lo[down])

    def candidate(X, x, nuc, dual, last):
        if nuc - dual > _GAP * nuc and not last:
            return None
        if ((lo <= x) & (x < hi)).all():
            return X, nuc, dual, True
        return *_masked_repair(X, idx, np.minimum(np.maximum(x, box_lo), box_hi)), dual, True

    F, nuc, iters, converged = _pdhg(
        X, np.zeros(mask.m_prime), idx, 0.5 * scale, prox, support, candidate, max_iters
    )
    return SolverReport(
        matrix=F,
        iterations=iters,
        objective=nuc,
        data_residual=violation_measure(system, F),
        converged=converged,
        nuclear_norm=nuc,
        stage_objectives=(nuc,),
    )
