"""Nuclear-norm recovery solvers.

Both of the paper's programs are min ||X||_* subject to P_mask(X) in C, with
no regularization term, and both are solved by one certified primal-dual
(Chambolle-Pock) loop, ``_pdhg``, over-relaxed by _RHO: one singular-value
soft-threshold per step, ``_svd_soft``, and a stop at the first answer whose
duality gap is at most _GAP of its nuclear norm.  Each program passes the
loop the Euclidean projection onto C and the support function of C; the
loop forms the dual step from the projection, and repairs an iterate that
misses C by projecting its masked entries onto C, under one rule for when
that repair's SVD can pay.  Each rule is stated once, in the docstring
named here:

* ``_pdhg``: the step, its free dual point, the masked repair, the
  repair's second dual point and the stop.
* ``solve_quantized_mc``: C is the ball ||P_mask(X) - Q||_F <= radius.  The
  loop starts at Q's own Pareto point and its multiplier, X = Q - mu Y and
  y = -P(Y), both from one ``_eigh`` of Q's Gram matrix.  On a full mask
  that start is the solution, and it is returned after 0 steps where the
  loop's own stop rule, in closed form from the same eigenvalues, certifies
  it.  Its candidate answers are cheaper than the repair: the iterate, or
  the iterate scaled along its ray onto the ball when it lies outside
  (``_ray``), and their gap takes the better of the step's own dual point
  and the answer's residual, scaled by its exact operator norm
  (``_op_norm``).
* ``solve_one_bit_mc``: C is the sign box lo <= P_mask(X) < hi of
  ``feasible_intervals``.  The loop starts where its first step from
  X = 0, y = 0 lands, in closed form, and projects onto the box shrunk by
  a margin, which draws its iterates, and the repair, strictly inside the
  sign box; its support function takes the dual point off the box's
  unbounded sides.

Both programs are homogeneous in their data, so the floating-point range
is settled once, where the data comes in: ``prox_nuclear`` and both
solvers solve at unit scale, with their data (Z and theta, Q and the
radius, or the sign box) times the power of two 2^-e of ``_unit_scale``
that puts its largest finite |entry| in [0.5, 1), and multiply the answer,
its nuclear norm and the ball residual back by 2^e.  A power of two scales
exactly, so the answer at 2^k times the data is 2^k times the answer, and
no kernel below (``_svd_soft``, ``_op_norm``) needs a range check of its
own.

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

# The smallest theta / sigma_1 at which a Gram eigendecomposition holds its
# precision: below it _svd_soft takes a full SVD instead, and the ball
# start's weights w_i = 1 / max(sigma_i, mu) are 0.
_GRAM_FLOOR = 1e-4

# Interior margin of the one-bit box, in units of the box's largest finite
# |bound| and shrunk per entry to a quarter of the entry's feasible interval
# so the shrunk box stays nonempty: the one-bit loop projects onto the
# shrunk box, which pushes its iterates, and puts its repair, strictly
# inside the sign box.  Without it the answer can sit on an open side and
# flip that sign: on the 1x2 system x < 0, x' >= 1e-3, the box
# [lo, nextafter(hi)] gave x = -0.0, which reads as +1, with a violation of
# 0.  The shrunk box's minimum lies above the sign box's, which the stop
# certifies against, so the margin scales with the bounds: a fixed 5e-7
# kept every solve of onebit_known at alpha = dither_param = 1e-4 from
# certifying.
_FEAS_MARGIN = 5e-7

# Relative duality gap at which both solvers stop: the answer's nuclear norm
# is then at most 1 / (1 - _GAP) times the program's minimum.  On the ball
# bench workloads large_n and rate_sweep (first trial of seeds 2-11) the
# loop takes 81 and 292 steps at 1e-2, 134 and 774 at 1e-3, and 223 and
# 2277 at 3e-6.
_GAP = 1e-2

# Relaxation of the primal-dual step (``_pdhg``), in (0, 2).  Over the first
# trial of seeds 2-11 of large_n, rate_sweep and onebit_known, and over the
# tests' 150 ball stress problems, the loop takes 120, 413, 592 and 4011
# steps at 1 (582 on onebit_known in the dual-first form), 93, 324, 463 and
# 3149 at 1.3, 81, 292, 404 and 2825 at 1.5, and 75, 299, 366 and 2746 at
# 1.7, where rate_sweep turns up again (onebit_known at its earlier step
# tau = s / 2, and from X = 0, y = 0; it takes 348 at 1.5 and tau = s, 338
# from its closed-form first step, and 291 where a repair that misses is
# also certified against the multiplier at its exact norm).
_RHO = 1.5

# The product sigma tau of the loop's dual and primal steps (``_pdhg``),
# below 1 / ||P||^2 = 1 as the method's convergence needs.
_SIGMA_TAU = 0.99

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

    ``dual`` is the answer's certificate, the dual point y whose bound the
    stop compared, one float per observed entry in mask order.  With P^* y
    the matrix holding y on the mask and 0 elsewhere, ||P^* y||_op <= 1 to
    rounding, so no point of the program has a nuclear norm below
    -sigma_C(y), sigma_C the support function of its set C (the ball or
    the sign box), and a converged answer F has ||F||_* + sigma_C(y) <=
    _GAP ||F||_*.  y does not scale with the data; it is 0 where the zero
    matrix is returned without a step.
    """

    matrix: np.ndarray
    iterations: int
    objective: float
    data_residual: float
    converged: bool
    nuclear_norm: float
    stage_objectives: tuple = ()
    dual: np.ndarray | None = None


def _unit_scale(a: np.ndarray):
    """(m, e) with m 2^e the largest finite |entry| of a and m in [0.5, 1),
    or (0.0, 0) when that is 0: the one scale rule of the solvers (module
    docstring)."""
    return math.frexp(float(np.abs(a[np.isfinite(a)]).max(initial=0.0)))


def _gesdd(Z: np.ndarray, compute_uv: bool = True):
    """Thin LAPACK gesdd SVD of Z (singular values only without
    compute_uv), with the matrix described when it fails."""
    try:
        return np.linalg.svd(Z, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"SVD failed on {Z.shape} matrix (fro={np.linalg.norm(Z):.3e}, "
            f"max={np.abs(Z).max():.3e}, finite={np.all(np.isfinite(Z))})"
        ) from exc


def _eigh_failed(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _eigh(Z: np.ndarray, vectors: bool = True):
    """Eigenvalues (ascending) and, with vectors, eigenvectors of the smaller
    Gram matrix A^T A of Z, A = Z or Z^T when Z is wide.

    LAPACK syevd through numpy's ``eigh_lo`` gufunc (``eigvalsh_lo``
    without vectors, about half the work), the routine ``np.linalg.eigh``
    (``np.linalg.eigvalsh``) runs, with the same floating-point error
    state, so the result is bitwise that of the numpy function on A^T A and
    a failure to converge raises ``np.linalg.LinAlgError``; it skips only
    the wrapper's input checks and type conversions, which a float64 Gram
    matrix does not need.
    """
    A = Z.T if Z.shape[0] < Z.shape[1] else Z
    gram = A.T @ A
    with np.errstate(call=_eigh_failed, invalid="call", over="ignore", divide="ignore", under="ignore"):
        if vectors:
            return _umath_linalg.eigh_lo(gram, signature="d->dd")
        return _umath_linalg.eigvalsh_lo(gram, signature="d->d")


def _svd_soft(Z: np.ndarray, theta: float):
    """Soft-threshold the singular values of Z by theta; returns (matrix, sv).

    It is the one matrix decomposition either solver takes per step.  With
    A = Z, or Z^T when Z is wide, the eigenpairs (lam, v) of the smaller
    Gram matrix A^T A (``_eigh``) with lam > theta^2 give sigma = sqrt(lam)
    and X = A V diag(1 - theta / sigma) V^T, and sv = sigma - theta holds
    only those kept.  Squaring puts an error of about eps * sigma_1^2 into
    every lam, so a singular value near theta is off by at most
    eps * sigma_1^2 / (2 theta).  Below theta = _GRAM_FLOOR * sigma_1
    (where that reaches about 1e-12 * sigma_1) a full SVD (``_gesdd``) is
    taken instead; its sv has one entry per singular value.

    In the loop theta is the step tau, at unit scale in [1, 2) on the ball
    and in [0.5, 1) on the box, so a step reaches the SVD only where
    sigma_1(Z) exceeds 1e4 tau.  The largest sigma_1(Z) / tau over the
    loop's steps is 8.75 on large_n, 7.89 on onebit_known and 4.44 on
    rate_sweep (first trial of seeds 2-21), and 3.24 over the tests' 150
    ball stress problems: the floor is that loop's guard, and
    ``prox_nuclear`` its other user.  Z must be at the solvers' unit scale
    (module docstring), where A^T A neither overflows nor underflows.
    Either routine raises ``np.linalg.LinAlgError`` when LAPACK does not
    converge (a NaN in Z, for one), which ``run_experiment`` records as a
    failed trial.
    """
    A = Z.T if Z.shape[0] < Z.shape[1] else Z
    lam, V = _eigh(Z)
    if theta < _GRAM_FLOOR * math.sqrt(lam.max(initial=0.0)):
        u, s, vt = _gesdd(Z)
        s_shrunk = np.maximum(s - theta, 0.0)
        return (u * s_shrunk) @ vt, s_shrunk
    k = lam.searchsorted(theta * theta, side="right")
    sigma = np.sqrt(lam[k:])
    Vk = V[:, k:]
    X = (A @ (Vk * (1.0 - theta / sigma))) @ Vk.T
    return (X if A is Z else X.T), sigma - theta


def _op_norm(M: np.ndarray) -> float:
    """||M||_op, the root of the largest eigenvalue of M's smaller Gram
    matrix (``_eigh``, values only).  The largest eigenvalue is off by a
    small multiple of eps times itself, so the root is good to about eps
    relative; M's entries must be at most about 1 (the solvers' unit scale,
    module docstring), so that the Gram matrix does not overflow."""
    return math.sqrt(max(float(_eigh(M, vectors=False)[-1]), 0.0))


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
    Computed by ``_svd_soft`` on Z and theta at unit scale (module
    docstring): from the Gram eigendecomposition (LAPACK syevd, numpy's
    ``eigh_lo``), or a full SVD (gesdd) when theta < 1e-4 * sigma_1(Z).
    Raises ``np.linalg.LinAlgError`` when LAPACK does not converge.
    """
    Zm = as_matrix(Z)
    if not theta >= 0:
        raise ValueError(f"theta must be nonnegative, got {theta}")
    if theta == 0:
        return Zm.copy()
    _, e = _unit_scale(Zm)
    return np.ldexp(_svd_soft(np.ldexp(Zm, -e), float(np.ldexp(theta, -e)))[0], e)


def _pdhg(X, y, idx, tau, project, support, max_iters: int, candidate=None, contains=None):
    """The primal-dual loop of Chambolle and Pock (J. Math. Imaging Vis.
    2011) on min ||X||_* subject to P(X) in C, from the pair (X, y), with P
    the masked entries at the C-order flat indices idx, over-relaxed by
    _RHO.

    The saddle problem is min_X max_y ||X||_* + <P(X), y> - sigma_C(y), with
    sigma_C the support function of C, and each step maps the pair (X, y)
    primal first,

        Xt = SVT_tau(Z),  Z = X - tau P^* y,  v = y / sigma + P(2 Xt - X),
        yt = sigma (v - project(v)),
        X <- X + _RHO D,  y <- y + _RHO (yt - y),

    one ``_svd_soft`` per step, with sigma = _SIGMA_TAU / tau and
    ``project`` the Euclidean projection Pi_C onto C.  The step difference
    D = Xt - X is formed once and serves both the relaxation and the dual
    point below; the relaxed P(X) is read off the relaxed X, the same bits
    as relaxing P(X) on its own.  yt is the prox of sigma * sigma_C at
    sigma v, by Moreau's identity sigma v - sigma Pi_C(v), so each program
    states C once, as Pi_C.  The map (X, y) -> (Xt, yt) is firmly
    nonexpansive in the method's metric, so any relaxation in (0, 2) keeps
    the iteration convergent (Condat, J. Optim. Theory Appl. 2013;
    Chambolle and Pock, Math. Program. 2016).

    Any y with ||P^* y||_op <= 1 proves that no point of the program has a
    nuclear norm below -sigma_C(y), and each step has one for free,
    y' = y / (1 + ||D||_F / tau): G = (Z - Xt) / tau = -D / tau - P^* y is
    a subgradient of ||.||_* at Xt, so ||G||_op <= 1 and
    ||P^* y||_op <= 1 + ||D||_F / tau, whatever X is, the relaxed one
    included.  ``support(y')`` is sigma_C at y', or at a dual-feasible
    point the program derives from it where sigma_C(y') is infinite;
    dual = -support(y').

    Each step's answer F is the program's ``candidate(Xt, P(Xt), ||Xt||_*,
    dual, y')``, a point of C with (F, ||F||_*, a lower bound at least dual,
    the dual point of that bound), where it has one; otherwise it is the
    masked repair, Xt with P(F) = project(P(Xt)), with (dual, y'), whose
    nuclear norm takes one values-only SVD (``_gesdd``).  Where the program
    passes a membership test, the repair counts only if ``contains(P(F))``:
    rounding can put the projection of a point far outside a tiny ball just
    outside it.  The SVD is skipped where the repair cannot certify against
    y', as it needs dual >= (1 - _GAP) ||F||_* > 0: while dual <= 0 or the
    step's own gap ||Xt||_* - dual exceeds _GAP ||Xt||_*, and then, with
    p = project(P(Xt)), where dual lies below (1 - _GAP) times a free lower
    bound on ||F||_*, less a relative 1e-9 for rounding.  With G the step's
    subgradient above, <Xt, G> = ||Xt||_*, and F - Xt lies on the mask, so
    ||F||_* >= <F, G> = ||Xt||_* + <p - P(Xt), (z - P(Xt)) / tau>,
    z = P(Z).  The cheap tests come first, so most steps project nothing
    for it.  A skip spares only a repair that could not certify against y',
    so it never moves the stopping step; the budget's last step, which must
    give an answer, skips nothing.

    A repair whose SVD has run, that lies in C and whose gap against y'
    misses, is certified against a second dual point as well: the
    multiplier at its exact operator norm, y / ||P^* y||_op, one
    ``_op_norm`` of the matrix holding y on the mask, and the larger bound
    is kept with its point.  That bound is -support(y / ||P^* y||_op), not
    -support(y) / ||P^* y||_op, as a support function that repairs the
    point (the one-bit one divides by 1 + ||c||_F) is not positively
    homogeneous.  The point costs at most one norm per repair SVD, and
    neither the skip nor the loop's path reads it, so it can only stop the
    loop sooner.  The loop stops at the first F whose gap ||F||_* - dual is
    at most _GAP ||F||_*, and returns (F, ||F||_*, iterations, True, the
    dual point of F's bound); after max_iters steps it returns the last
    step's answer and point with False.
    """
    sigma = _SIGMA_TAU / tau
    x = X.take(idx)
    for iters in range(1, max_iters + 1):
        last = iters == max_iters
        Z = X.copy()
        Z.put(idx, x - tau * y)
        Xt, sv = _svd_soft(Z, tau)
        xt = Xt.take(idx)
        D = Xt - X
        nuc = float(np.add.reduce(sv))
        point = y / (1.0 + np.linalg.norm(D) / tau)
        dual = -support(point)
        answer = candidate(Xt, xt, nuc, dual, point) if candidate else None
        if answer is None and (last or dual > 0.0 and nuc - dual <= _GAP * nuc):
            # z = x - tau y is formed again here: kept alive through every
            # step, it made the large_n solves about 2% slower
            p = project(xt)
            if last or not dual < (1.0 - _GAP) * (1.0 - 1e-9) * (nuc + (p - xt) @ (x - tau * y - xt) / tau):
                F = Xt.copy()
                F.put(idx, p)
                f_nuc = float(_gesdd(F, compute_uv=False).sum())
                if contains is not None and not contains(p):
                    dual = -math.inf  # a repair outside C cannot stop the loop
                elif f_nuc - dual > _GAP * f_nuc:
                    # the second dual point, y at its exact norm (docstring)
                    M = np.zeros(X.shape)
                    M.put(idx, y)
                    op = _op_norm(M)
                    if op > 0.0:
                        exact = y / op
                        exact_dual = -support(exact)
                        if exact_dual > dual:
                            dual, point = exact_dual, exact
                answer = F, f_nuc, dual, point
        if answer is not None:
            F, f_nuc, f_dual, point = answer
            converged = f_nuc - f_dual <= _GAP * f_nuc
            if converged or last:
                return F, f_nuc, iters, converged, point
        del answer, point  # not kept alive through the next step, as z above
        v = y / sigma + (2.0 * xt - x)
        yt = sigma * (v - project(v))
        X = X + _RHO * D
        x = X.take(idx)
        y = y + _RHO * (yt - y)


def solve_quantized_mc(Q, mask: SampleMask, radius: float, max_iters: int = 20000) -> SolverReport:
    """Minimum nuclear norm subject to ||P_mask(X) - Q||_F <= radius.

    Q must vanish off the mask and be finite, the radius positive (an
    infinite one admits the zero matrix) and max_iters at least 1;
    otherwise ``ValueError``.  If the zero matrix is feasible it is returned
    directly (it has minimal nuclear norm).  Otherwise the saddle problem
    min_X max_y ||X||_* + <P(X), y> - <y, q> - radius ||y||, q the masked
    entries of Q, is solved by ``_pdhg``, with Pi the projection onto the
    ball, Pi(v) = q + (v - q) radius / ||v - q|| outside it, and the support
    function sigma(y) = <y, q> + radius ||y||.  Its steps are
    tau = 2 max_k |q_k| and sigma = _SIGMA_TAU / tau (X and tau scale with
    Q, y and sigma tau do not).  The loop starts at Q's own Pareto point,
    the solution on a full mask: X = SVT_mu(Q) and
    y = (P(X) - q) / mu, with mu the root of
    sqrt(sum_i min(sigma_i(Q), mu)^2) = radius.  One ``_eigh`` of Q's
    smaller Gram matrix gives the pair: its eigenvalues are the sigma_i^2,
    and with A = Q (Q^T when Q is wide), V the eigenvectors,
    w_i = 1 / max(sigma_i, mu) and Y = A V diag(w) V^T (transposed back
    when Q is wide), SVT_mu(Q) = Q - mu Y and y = -P(Y), so that
    P(X) - q = mu y by construction.  y is formed without the subtraction,
    which at a tiny mu would divide X's rounding error by mu.  Where
    max(sigma_i, mu) lies at or below the precision floor _GRAM_FLOOR
    sigma_1, w_i = 0: that component keeps Q's value, off by at most mu,
    and a mu of 0 (a radius whose square underflows) divides nothing.  All
    of this runs on Q and the radius at unit scale (module docstring).

    On a full mask P^* is the identity and the start is the solution, so
    where every w_i is positive the loop's stop rule is tried on the start
    pair before any step, from the eigenvalues already taken:
    ||P^* y||_op = ||Y||_op = max_i sigma_i w_i (at most 1), ||X||_* = sum_i
    max(sigma_i - mu, 0), and the dual point is y / max(1, max_i sigma_i
    w_i).  Where X lies in the ball to the slack below and its gap
    ||X||_* - dual is at most _GAP ||X||_*, X is returned, converged, after
    0 iterations; otherwise the loop runs from the pair as on a partial
    mask.  A w_i of 0 marks a component at the precision floor, whose
    sigma_i the Gram eigenvalue gives to only about 1e-8 sigma_1, so such a
    start is left to the loop, whose soft-threshold drops that component.

    Each step's candidate answer is Xt while its residual r = P(Xt) - q
    has ||r|| <= radius (1 + _TOL_FEAS).  Otherwise it is t Xt, with t the
    end nearest 1 of the interval of scales that ``_ray`` finds inside the
    ball; ||t Xt||_* = t ||Xt||_* needs no decomposition, and t Xt keeps
    Xt's rank.  Where that line misses the ball (or rounding puts t Xt
    outside it), there is no candidate, and the loop takes its masked
    repair, P(F) = Pi(P(Xt)), which counts while it lies in the ball to
    the same slack and is certified as ``_pdhg`` states, against y' and the
    multiplier at its exact norm.  A candidate is certified with the better
    of two dual points.  The first is the loop's own y'.  The second is the
    candidate's own residual, f / ||P^* f||_op with f = P(F) - q, the
    multiplier's direction at the solution.  Its exact norm costs one
    ``_op_norm``, taken only when the first point does not certify and a
    free lower bound on ||P^* f||_op does not rule it out: ``_op_lower``'s
    power steps, each warm-started from the last.  The point that gives the
    kept bound is the report's ``dual``.  The loop stops, converged, at the
    first answer whose gap ||F||_* - dual is at most _GAP ||F||_*.  After
    max_iters steps the last answer is returned with converged=False.
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
    # The problem at unit scale: Q, q and the radius times 2^-e.
    q = Qm[mask.rows, mask.cols]
    qmax, e = _unit_scale(q)
    Qm, q, radius = np.ldexp(Qm, -e), np.ldexp(q, -e), float(np.ldexp(radius, -e))
    qnorm = float(np.linalg.norm(q))

    if qnorm <= radius:
        return SolverReport(
            matrix=np.zeros(Qm.shape),
            iterations=0,
            objective=0.0,
            data_residual=float(np.ldexp(qnorm, e)),
            converged=True,
            nuclear_norm=0.0,
            dual=np.zeros(q.size),
        )

    # The start: one syevd of Q's Gram matrix gives Q's squared singular
    # values and, from the same eigenpairs, the start pair.  The start's mu,
    # in units of ||q||: with the k largest singular values at or above mu,
    # the Pareto residual squared is tail_k + k mu^2, tail_k the sum of the
    # other squares, and it rises from 0 to 1 on [0, sigma_1].
    lam, V = _eigh(Qm)
    sq = np.maximum(lam[::-1], 0.0) / (qnorm * qnorm)
    tails = np.append(np.cumsum(sq[::-1])[::-1][1:], 0.0)
    rho2 = (radius / qnorm) ** 2
    k = max(1, int(np.count_nonzero(tails + np.arange(1, len(sq) + 1) * sq > rho2)))
    mu = qnorm * math.sqrt(max(rho2 - tails[k - 1], 0.0) / k)
    # The start pair in closed form (docstring): X = Q - mu Y, y = -P(Y).
    s = np.maximum(np.sqrt(np.maximum(lam, 0.0)), mu)  # max(sigma_i, mu), ascending
    w = np.divide(1.0, s, out=np.zeros_like(s), where=s > _GRAM_FLOOR * s[-1])
    A = Qm.T if Qm.shape[0] < Qm.shape[1] else Qm
    Y = (A @ (V * w)) @ V.T
    X, Y = (M if A is Qm else M.T for M in (A - mu * Y, Y))

    idx = mask.rows * Qm.shape[1] + mask.cols  # C-order flat index of the mask
    limit = radius * (1.0 + _TOL_FEAS)
    u = np.full(Qm.shape[1], 1.0 / math.sqrt(Qm.shape[1]))  # _op_lower's vector, kept across steps

    def project(v):
        w = v - q
        w_norm = math.sqrt(w @ w)
        return q + (radius / w_norm) * w if w_norm > radius else v

    def support(y):
        return float(y @ q) + radius * math.sqrt(y @ y)

    def contains(p):
        f = p - q
        return math.sqrt(f @ f) <= limit

    def candidate(X, x, nuc, dual, point):
        # X inside the ball or t X on its ray, or None where the ray misses
        nonlocal u
        r = x - q
        r_norm = math.sqrt(r @ r)
        t = 1.0 if r_norm <= limit else _ray(x, r, r_norm, radius)
        f = r if t == 1.0 else t * x - q
        if not (t > 0.0 and math.sqrt(f @ f) <= limit):
            return None
        # The second dual point, f / ||P^* f||_op; its exact norm is taken
        # only when _op_lower's free lower bound does not rule out a
        # certificate.
        f_nuc = t * nuc
        if f_nuc - dual > _GAP * f_nuc:
            num = -support(f)
            if num > 0.0:
                M = np.zeros(Qm.shape)
                M.put(idx, f)
                lower, u = _op_lower(M, u)
                if lower <= num / ((1.0 - _GAP) * f_nuc):  # the largest norm that certifies
                    op = _op_norm(M)
                    if num / op > dual:
                        dual, point = num / op, f / op
        return (X if t == 1.0 else t * X), f_nuc, dual, point

    start = None
    if idx.size == Qm.size and w.all():
        # The full-mask exit (docstring): s_i - mu = max(sigma_i - mu, 0).  y
        # is formed again for the loop: held in this frame through a
        # partial-mask solve, it made the large_n runs about 2% slower.
        y = -Y.take(idx) / max(1.0, float((np.sqrt(np.maximum(lam, 0.0)) * w).max()))
        nuc = float((s - mu).sum())
        if contains(X.take(idx)) and nuc + support(y) <= _GAP * nuc:
            start = X, nuc, 0, True, y
    F, f_nuc, iters, converged, dual = start or _pdhg(
        X, -Y.take(idx), idx, 2.0 * qmax, project, support, max_iters, candidate, contains
    )
    f = F.take(idx) - q
    f_nuc = float(np.ldexp(f_nuc, e))
    return SolverReport(
        matrix=np.ldexp(F, e),
        iterations=iters,
        objective=f_nuc,
        data_residual=float(np.ldexp(math.sqrt(f @ f), e)),
        converged=converged,
        nuclear_norm=f_nuc,
        stage_objectives=(f_nuc,),
        dual=dual,
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

    Otherwise the program is solved at unit scale (module docstring).  With
    s the largest finite |bound|, ``_pdhg`` runs on the box shrunk by
    gamma_k = min(_FEAS_MARGIN s, width_k / 4) on each side: its projection
    is the clip onto the shrunk box.  The steps are tau = s and
    sigma = _SIGMA_TAU / tau, so the loop is scale-free like the ball's.
    Its first step from X = 0, y = 0 would soft-threshold a zero matrix and
    move y alone, so the loop starts where that step lands, at X = 0 and
    y = _RHO sigma (0 - Pi(0)), formed with the loop's own operations in
    their order: every later iterate is bitwise the one the loop reaches
    from (0, 0), and ``iterations`` counts the loop's steps alone, as the
    ball's closed-form start is not counted either.
    Each step's dual point is certified against the sign box [lo, hi]
    itself, whose support function is sum over y > 0 of y hi plus sum over
    y < 0 of y lo.  The dual step puts no weight on an unbounded side, but
    the relaxed multiplier can, and there the support function is
    infinite; so the support function first drops that part c of the dual
    point and divides the rest by 1 + ||c||_F, which keeps it dual
    feasible, as ||P^* c||_op <= ||c||_F.  That is vector arithmetic,
    with y+ = max(y, 0), y- = min(y, 0) and the bounds' infinite sides set
    to 0 in hi_f and lo_f: sigma = (<y+, hi_f> + <y-, lo_f>) / (1 + ||c||),
    ||c||^2 the sum of (y+)^2 over hi = +inf and of (y-)^2 over lo = -inf,
    with hi_f, lo_f and the 0/1 side weights formed once per solve.  As
    1 + ||c|| does not scale with the point, this support function is not
    positively homogeneous, and the loop's second point y / ||P^* y||_op,
    taken after a repair that misses against y', is repaired and bounded
    as it stands.  Every answer is the loop's masked repair, Xt with its
    masked entries clipped into the shrunk box, so it is strictly
    sign-feasible by construction, and a converged one has a nuclear norm
    of at most 1 / (1 - _GAP) times the program's minimum.  The report's
    ``dual`` is the repaired point (w - c) / (1 + ||c||_F) of the point w
    whose bound stopped the loop, y' or the second point, formed once, from
    the w the loop returns.  After max_iters steps the last step's repair is
    returned with converged=False.

    Over the first trial of seeds 2-11 of the onebit_known workload the
    loop takes 291 steps and 10 repair SVDs, one per solve, each followed by
    one ``_op_norm`` for the second point, which stops every solve; without
    that point it takes 338 steps and 57 repair SVDs (348 steps from
    (0, 0), 404 at tau = s / 2).
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    mask = system.mask
    X = np.zeros((mask.dims.n1, mask.dims.n2))
    lo, hi = feasible_intervals(system)
    scale, e = _unit_scale(np.concatenate((lo, hi)))
    zero_feasible = bool(((lo <= 0.0) & (0.0 < hi)).all())
    if zero_feasible or scale == 0.0 or not (lo < hi).all():
        return SolverReport(
            matrix=X, iterations=0, objective=0.0, data_residual=violation_measure(system, X),
            converged=zero_feasible, nuclear_norm=0.0, dual=np.zeros(mask.m_prime),
        )
    lo, hi = np.ldexp(lo, -e), np.ldexp(hi, -e)  # the box at unit scale
    gamma = np.minimum(_FEAS_MARGIN * scale, 0.25 * (hi - lo))
    box_lo, box_hi = lo + gamma, hi - gamma
    open_lo, open_hi = np.isinf(lo), np.isinf(hi)
    lo_f, hi_f = np.where(open_lo, 0.0, lo), np.where(open_hi, 0.0, hi)
    w_lo, w_hi = open_lo.astype(float), open_hi.astype(float)
    idx = mask.rows * X.shape[1] + mask.cols  # C-order flat index of the mask
    tau = scale

    def project(v):
        return np.minimum(np.maximum(v, box_lo), box_hi)

    def support(y):
        # c, y's weight on unbounded sides, would make sigma infinite; as
        # ||P^* c||_op <= ||c||_F, (y - c) / (1 + ||c||_F) is dual feasible
        up, down = np.maximum(y, 0.0), np.minimum(y, 0.0)
        c_norm = math.sqrt((up * up) @ w_hi + (down * down) @ w_lo)
        return float(up @ hi_f + down @ lo_f) / (1.0 + c_norm)

    # The first step from (0, 0) in closed form (docstring), as _pdhg forms
    # it: v = y / sigma + P(2 Xt - X) = 0, and y = _RHO sigma (v - Pi(v))
    v = np.zeros(mask.m_prime)
    F, nuc, iters, converged, y = _pdhg(
        X, _RHO * (_SIGMA_TAU / tau * (v - project(v))), idx, tau, project, support, max_iters
    )
    c = y * np.where(y > 0.0, w_hi, w_lo)  # the report's dual (docstring)
    y = (y - c) / (1.0 + math.sqrt(c @ c))
    F, nuc = np.ldexp(F, e), float(np.ldexp(nuc, e))
    return SolverReport(
        matrix=F,
        iterations=iters,
        objective=nuc,
        data_residual=violation_measure(system, F),
        converged=converged,
        nuclear_norm=nuc,
        stage_objectives=(nuc,),
        dual=y,
    )
