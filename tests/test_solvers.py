"""Nuclear-norm proximal operator and the two recovery solvers."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quantmc.harness
import quantmc.solvers
from quantmc.core import SampleMask, generate_low_rank, project, sample_mask_uniform, scatter_vector
from quantmc.onebit import (
    OneBitObservation,
    UnsupportedModeError,
    build_polyhedron,
    consistency_report,
    feasible_intervals,
    observe_one_bit,
    strip_thresholds,
    surrogate_data,
)
from quantmc.quantize import DitherSpec, QuantizerSpec, generate_dither_tensor, quantize_matrix, sign_pm1
from quantmc.solvers import (
    _FEAS_MARGIN,
    _GAP,
    _GRAM_FLOOR,
    _TOL_FEAS,
    _svd_soft,
    prox_nuclear,
    solve_one_bit_mc,
    solve_quantized_mc,
)


class TestProxNuclear:
    def test_diagonal_soft_threshold(self):
        out = prox_nuclear(np.diag([3.0, 1.0]), 2.0)
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_zero_theta_is_identity(self):
        Z = np.random.default_rng(0).standard_normal((4, 6))
        assert np.array_equal(prox_nuclear(Z, 0.0), Z)

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            prox_nuclear(np.eye(2), -0.1)

    def test_nan_theta_rejected(self):
        # an infinite theta shrinks every singular value to zero
        with pytest.raises(ValueError, match="theta"):
            prox_nuclear(np.eye(2), math.nan)
        assert np.all(prox_nuclear(np.eye(2), math.inf) == 0.0)

    def test_local_optimality_against_random_perturbations(self):
        # output minimizes theta ||X||_* + 1/2 ||X - Z||_F^2; no random
        # perturbation may do better
        rng = np.random.default_rng(1)
        Z = rng.standard_normal((5, 4))
        theta = 0.7

        def objective(X):
            return theta * np.linalg.norm(X, "nuc") + 0.5 * np.linalg.norm(X - Z) ** 2

        X_star = prox_nuclear(Z, theta)
        base = objective(X_star)
        for _ in range(10_000):
            scale = 10.0 ** rng.uniform(-4, 0)
            assert base <= objective(X_star + scale * rng.standard_normal((5, 4))) + 1e-12

    def test_singular_values_match_soft_threshold_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            Z = rng.standard_normal((6, 5))
            s_in = np.linalg.svd(Z, compute_uv=False)
            for theta in (0.0, 0.3, 2.0):
                s_out = np.linalg.svd(prox_nuclear(Z, theta), compute_uv=False)
                assert np.max(np.abs(s_out - np.maximum(s_in - theta, 0.0))) <= 1e-10

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_extreme_scales(self, scale):
        # the Gram matrix of Z itself would underflow or overflow; the
        # operator solves at unit scale and must still match the oracle
        W = np.random.default_rng(7).standard_normal((20, 12))
        Z = scale * W
        theta = 0.1 * np.linalg.norm(Z, 2)
        X = prox_nuclear(Z, theta)
        X_ref, _ = _gesdd_soft(Z, theta)
        assert np.max(np.abs(X - X_ref)) <= 1e-10 * scale * np.linalg.norm(W)

    @pytest.mark.parametrize("k", [-1000, -500, 500, 900])
    @pytest.mark.parametrize("shape", [(40, 12), (12, 40), (20, 20), (7, 3)], ids=["tall", "wide", "square", "7x3"])
    def test_scale_free_across_the_range(self, svd_calls, shape, k):
        # Z and theta times 2^k give 2^k times the answer, bitwise, by the
        # Gram path alone (theta lies above the precision floor)
        Z = np.random.default_rng(sum(shape)).standard_normal(shape)
        theta = 0.1 * np.linalg.norm(Z, 2)
        svd_calls.clear()
        X = prox_nuclear(Z, theta)
        np.testing.assert_array_equal(prox_nuclear(np.ldexp(Z, k), np.ldexp(theta, k)), np.ldexp(X, k))
        assert svd_calls == []


def _gesdd_soft(Z, theta):
    """Reference SVT: full LAPACK gesdd SVD, shrink, recombine."""
    u, s, vt = np.linalg.svd(Z, full_matrices=False)
    s = np.maximum(s - theta, 0.0)
    return (u * s) @ vt, s


def _record_shapes(monkeypatch, module, name):
    """Patch module.<name> to record the shape of each matrix it is given."""
    calls = []
    fn = getattr(module, name)

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return fn(a, *args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes passed to np.linalg.svd while the test runs."""
    return _record_shapes(monkeypatch, np.linalg, "svd")


@pytest.fixture
def eigh_calls(monkeypatch):
    """Shapes of the matrices whose Gram matrix ``_eigh`` decomposes while
    the test runs."""
    return _record_shapes(monkeypatch, quantmc.solvers, "_eigh")


@pytest.fixture
def solves(monkeypatch):
    """Reports of the solver calls the harness makes while the test runs."""
    reports = []
    for name in ("solve_quantized_mc", "solve_one_bit_mc"):
        def recording(*args, _solve=getattr(quantmc.harness, name), **kwargs):
            report = _solve(*args, **kwargs)
            reports.append(report)
            return report

        monkeypatch.setattr(quantmc.harness, name, recording)
    return reports


@pytest.fixture
def last_soft(monkeypatch):
    """The (matrix, sv) of the last ``_svd_soft`` call while the test runs,
    at the solver's unit scale."""
    last = []
    svd_soft = quantmc.solvers._svd_soft

    def recording(Z, theta, eig=None):
        last[:] = svd_soft(Z, theta, eig)
        return tuple(last)

    monkeypatch.setattr(quantmc.solvers, "_svd_soft", recording)
    return last


def _with_spectrum(shape, s, seed):
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((shape[0], len(s))))
    v, _ = np.linalg.qr(rng.standard_normal((shape[1], len(s))))
    return (u * np.asarray(s, dtype=float)) @ v.T


# The three bench workloads, run in the tests at seed 1 (trial base_seed
# 100000).
BENCH_CONFIGS = {
    "large_n": dict(
        scenario="quantized", n1=128, n2=128, r=2, alpha=1.0, delta=0.25, K=8,
        dither_kind="uniform", epsilon=0.05, sample_fraction=0.3,
        delta_policy="oracle", max_iters=4000, tol_rel_change=3e-6,
    ),
    "rate_sweep": dict(
        scenario="rate_sweep", n1=32, n2=32, r=2, alpha=1.0, delta=0.25, K=8,
        dither_kind="uniform", epsilon=0.05, m_prime_grid=(128, 256, 512, 1024),
        delta_policy="oracle", max_iters=4000, tol_rel_change=3e-6,
    ),
    "onebit_known": dict(
        scenario="onebit_dithers_known", n1=32, n2=32, r=2, alpha=1.0,
        dither_kind="uniform", dither_param=1.0, m=20, m_prime=512, epsilon=0.1,
        max_iters=40000, tol_feas=1e-9, tol_rel_change=1e-9,
    ),
}


class TestSvdSoft:
    """``_svd_soft`` against the gesdd oracle, on both of its paths."""

    @staticmethod
    def _assert_matches_oracle(Z, theta):
        X, sv = _svd_soft(Z, theta)
        X_ref, sv_ref = _gesdd_soft(Z, theta)
        assert X.shape == Z.shape
        assert np.max(np.abs(X - X_ref), initial=0.0) <= 1e-10 * max(1.0, np.linalg.norm(Z))
        assert sv.sum() == pytest.approx(sv_ref.sum(), rel=1e-12)
        assert sv @ sv == pytest.approx(sv_ref @ sv_ref, rel=1e-12)
        return X, sv

    @pytest.mark.parametrize("shape", [(160, 160), (160, 40), (40, 160), (7, 3), (3, 7), (1, 5)])
    @pytest.mark.parametrize("ratio", [0.01, 0.1, 0.5])
    def test_gaussian_shapes(self, shape, ratio):
        Z = np.random.default_rng(sum(shape)).standard_normal(shape)
        self._assert_matches_oracle(Z, ratio * np.linalg.norm(Z, 2))

    @pytest.mark.parametrize("shape", [(60, 50), (50, 60)])
    @pytest.mark.parametrize("ratio", [1.001 * _GRAM_FLOOR, 0.01, 0.3])
    def test_rank_deficient(self, shape, ratio):
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((shape[0], 3)) @ rng.standard_normal((3, shape[1]))
        self._assert_matches_oracle(Z, ratio * np.linalg.norm(Z, 2))

    def test_theta_at_a_repeated_singular_value(self):
        Z = _with_spectrum((40, 30), [5.0, 3.0, 3.0, 3.0, 1.0], seed=4)
        X, _ = self._assert_matches_oracle(Z, 3.0)
        assert np.linalg.svd(X, compute_uv=False)[0] == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("scale", [1.0 + 1e-12, 2.0])
    @pytest.mark.parametrize("shape", [(30, 20), (20, 30)])
    def test_theta_above_sigma1_gives_zero(self, scale, shape):
        Z = np.random.default_rng(5).standard_normal(shape)
        X, sv = _svd_soft(Z, scale * np.linalg.norm(Z, 2))
        assert X.shape == shape and np.all(X == 0.0)
        assert sv.sum() == 0.0

    @pytest.mark.parametrize("theta", [0.0, 0.5])
    @pytest.mark.parametrize("shape", [(6, 4), (4, 6), (0, 3)])
    def test_zero_matrix(self, theta, shape):
        X, sv = _svd_soft(np.zeros(shape), theta)
        assert X.shape == shape and np.all(X == 0.0)
        assert sv.sum() == 0.0

    @pytest.mark.parametrize("shape", [(160, 160), (160, 40), (40, 160)])
    @pytest.mark.parametrize("ratio, gesdd_calls", [(0.999 * _GRAM_FLOOR, 1), (1.001 * _GRAM_FLOOR, 0)])
    def test_precision_floor(self, svd_calls, shape, ratio, gesdd_calls):
        # below theta = _GRAM_FLOOR * sigma_1 the squared matrix is too coarse
        # and the kernel falls back to gesdd; at or above it, it does not
        Z = _with_spectrum(shape, np.geomspace(10.0, 1e-6, 40), seed=6)
        self._assert_matches_oracle(Z, ratio * np.linalg.norm(Z, 2))
        assert len(svd_calls) == gesdd_calls + 1  # plus the oracle's own SVD

    @pytest.mark.parametrize("shape", [(160, 160), (160, 40), (40, 160), (3, 7)])
    def test_zero_theta_falls_back_to_gesdd(self, svd_calls, shape):
        # theta = 0 lies below the floor: one gesdd, which returns Z
        Z = np.random.default_rng(8).standard_normal(shape)
        X, sv = _svd_soft(Z, 0.0)
        assert len(svd_calls) == 1
        assert np.max(np.abs(X - Z)) <= 1e-12 * np.linalg.norm(Z)
        assert sv.sum() == pytest.approx(np.linalg.norm(Z, "nuc"), rel=1e-12)

    @pytest.mark.parametrize("shape", [(160, 160), (160, 40), (40, 160), (3, 7)])
    def test_gram_path_decomposes_once(self, eigh_calls, svd_calls, shape):
        # the positive control of the test above: at a threshold above the
        # floor the one decomposition is Z's smaller Gram matrix's, and no
        # gesdd runs; given those eigenpairs, as the ball solver's start
        # gives its own, the kernel takes none and the same answer
        Z = np.random.default_rng(8).standard_normal(shape)
        theta = 0.1 * np.linalg.norm(Z, 2)
        X, sv = self._assert_matches_oracle(Z, theta)
        assert eigh_calls == [shape] and len(svd_calls) == 1  # the oracle's own SVD
        X_given, sv_given = _svd_soft(Z, theta, quantmc.solvers._eigh(Z))
        assert eigh_calls == [shape, shape] and len(svd_calls) == 1
        assert np.array_equal(X_given, X) and np.array_equal(sv_given, sv)

    @pytest.mark.parametrize("workload", sorted(BENCH_CONFIGS))
    def test_bench_workload_matches_the_oracle(self, monkeypatch, solves, workload):
        # Each ball solve decomposes Q's Gram matrix once for its start,
        # whose soft-threshold takes those eigenpairs, then takes one
        # soft-threshold per step, each by its own Gram matrix, and at most
        # one exact operator norm per step, by the eigenvalues of one more,
        # where _op_lower's bound does not rule it out; none of these solves
        # needs the masked repair and its values-only SVD.  The one-bit
        # solve takes one soft-threshold per step, each by its own Gram
        # matrix, and one values-only SVD, for its masked repair, at each
        # step whose own gap certifies, the stopping step among them.
        events = []
        svd, svd_soft = np.linalg.svd, quantmc.solvers._svd_soft
        eigh, op_norm = quantmc.solvers._eigh, quantmc.solvers._op_norm

        def recording(name, fn):
            def recorded(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)

            return recorded

        def recording_svd(a, *args, **kwargs):
            events.append("values" if kwargs.get("compute_uv") is False else "gesdd")
            return svd(a, *args, **kwargs)

        def recording_eigh(Z, vectors=True):
            events.append("eigh" if vectors else "eigvals")
            return eigh(Z, vectors)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        monkeypatch.setattr(quantmc.solvers, "_svd_soft", recording("soft", svd_soft))
        monkeypatch.setattr(quantmc.solvers, "_eigh", recording_eigh)
        monkeypatch.setattr(quantmc.solvers, "_op_norm", recording("op", op_norm))
        for name in ("solve_quantized_mc", "solve_one_bit_mc"):
            monkeypatch.setattr(quantmc.harness, name, recording("solve", getattr(quantmc.harness, name)))
        cfg = quantmc.harness.ExperimentConfig(trials=1, base_seed=100000, **BENCH_CONFIGS[workload])
        records, _ = quantmc.harness.run_experiment(cfg)
        runs = " ".join(events).split("solve")[1:]
        assert len(runs) == len(solves) > 0
        for rep, run in zip(solves, runs):
            if workload == "onebit_known":
                steps = run.split("soft")[1:]
                assert len(steps) == rep.iterations
                assert all(step.split() in (["eigh"], ["eigh", "values"]) for step in steps)
                assert steps[-1].split() == ["eigh", "values"]
            else:
                start, start_soft, *steps = run.split("soft")
                assert start.split() == ["eigh"] and start_soft.split() == []
                assert len(steps) == rep.iterations
                assert all(step.split() in (["eigh"], ["eigh", "op", "eigvals"]) for step in steps)
        monkeypatch.setattr(quantmc.solvers, "_svd_soft", lambda Z, theta, eig=None: _gesdd_soft(Z, theta))
        monkeypatch.setattr(quantmc.solvers, "_op_norm", lambda M: np.linalg.norm(M, 2))
        solves.clear()
        oracle_records, _ = quantmc.harness.run_experiment(cfg)
        assert len(solves) == len(runs)
        assert len(records) == len(oracle_records) > 0
        for rec, ref in zip(records, oracle_records):
            assert (rec.iterations, rec.converged) == (ref.iterations, ref.converged)
            assert rec.iterations > 0
            assert rec.err_fro == pytest.approx(ref.err_fro, rel=1e-9)


def _matrices():
    """Matrices whose smaller Gram matrix has the size and structure the
    kernel meets, keyed by that Gram matrix."""
    rng = np.random.default_rng(9)
    matrices = {}
    for k in (1, 2, 32, 128):
        matrices[f"{k}x{k}"] = rng.standard_normal((k + 5, k))
    matrices["3x3 of a wide 3x7"] = rng.standard_normal((3, 7))
    matrices["rank-deficient 30x30"] = rng.standard_normal((40, 4)) @ rng.standard_normal((4, 30))
    matrices["repeated eigenvalue 30x30"] = _with_spectrum((40, 30), [5.0, 3.0, 3.0, 3.0, 1.0], seed=4)
    return matrices


MATRICES = _matrices()


def _gram(Z):
    """The smaller Gram matrix of Z, formed as ``_eigh`` forms it."""
    A = Z.T if Z.shape[0] < Z.shape[1] else Z
    return A.T @ A


class TestEigh:
    """``_eigh`` is numpy's own syevd call on the smaller Gram matrix,
    without the wrapper, with and without the eigenvectors."""

    @pytest.mark.parametrize("name", list(MATRICES))
    def test_bitwise_equal_to_numpy(self, name):
        Z = MATRICES[name]
        lam, V = quantmc.solvers._eigh(Z)
        lam_ref, V_ref = np.linalg.eigh(_gram(Z))
        assert lam.dtype == V.dtype == np.float64
        assert np.array_equal(lam, lam_ref) and np.array_equal(V, V_ref)
        values = quantmc.solvers._eigh(Z, vectors=False)
        assert values.dtype == np.float64 and np.array_equal(values, np.linalg.eigvalsh(_gram(Z)))

    @pytest.mark.parametrize("full", [False, True])
    def test_nan_raises_linalg_error_without_a_warning(self, full):
        # a Z with one NaN entry, or a Z of NaNs: LAPACK does not converge on
        # its Gram matrix, np.linalg.eigh and eigvalsh raise, and so must
        # _eigh on both paths, with the error state that turns the flag into
        # the error instead of a warning
        Z = np.random.default_rng(10).standard_normal((9, 4))
        Z[2, 1] = np.nan
        if full:
            Z = np.full((3, 3), np.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for reference in (np.linalg.eigh, np.linalg.eigvalsh):
                with pytest.raises(np.linalg.LinAlgError):
                    reference(_gram(Z))
            for vectors in (True, False):
                with pytest.raises(np.linalg.LinAlgError):
                    quantmc.solvers._eigh(Z, vectors)


def _op_norm_cases():
    rng = np.random.default_rng(11)
    Q, mask, radius = _stress_problem(0)
    answer = solve_quantized_mc(Q, mask, radius).matrix
    return {
        "tall": rng.standard_normal((40, 7)),
        "wide": rng.standard_normal((7, 40)),
        "rank-1": np.outer(rng.standard_normal(30), rng.standard_normal(20)),
        "masked residual": project(answer - Q, mask),
        "tiny residual": 1e-12 * rng.standard_normal((9, 5)),
    }


class TestOpNorm:
    """``_op_norm`` against gesdd's largest singular value."""

    @pytest.mark.parametrize("name", ["tall", "wide", "rank-1", "masked residual", "tiny residual"])
    def test_matches_gesdd(self, name):
        M = _op_norm_cases()[name]
        assert quantmc.solvers._op_norm(M) == pytest.approx(np.linalg.norm(M, 2), rel=1e-12)

    @pytest.mark.parametrize("shape", [(6, 4), (4, 6)])
    def test_zero_matrix(self, shape):
        assert quantmc.solvers._op_norm(np.zeros(shape)) == 0.0


# Most iterations the first solve of each bench workload may take at trial
# base_seed 100000: it takes 7 on large_n, 11 on rate_sweep and 49 on
# onebit_known (11, 15 and 72 unrelaxed).
ITERATION_LIMITS = {"large_n": 9, "rate_sweep": 13, "onebit_known": 55}


@pytest.mark.parametrize("workload", sorted(BENCH_CONFIGS))
def test_bench_workload_iterations(solves, workload):
    cfg = quantmc.harness.ExperimentConfig(trials=1, base_seed=100000, **BENCH_CONFIGS[workload])
    quantmc.harness.run_experiment(cfg)
    assert len(solves) > 0 and all(rep.converged for rep in solves)
    assert solves[0].iterations <= ITERATION_LIMITS[workload]


# Most steps of the ball solver over the first trial of seeds 2-11
# (base_seed s * 100000): it takes 81 on large_n and 292 on rate_sweep
# (120 and 413 unrelaxed).
BALL_ITERATION_LIMITS = {"large_n": 90, "rate_sweep": 310}


@pytest.mark.parametrize("workload", sorted(BALL_ITERATION_LIMITS))
def test_bench_workload_ball_iterations(solves, workload):
    for seed in range(2, 12):
        cfg = quantmc.harness.ExperimentConfig(trials=1, base_seed=seed * 100000, **BENCH_CONFIGS[workload])
        quantmc.harness.run_experiment(cfg)
    assert len(solves) >= 10 and all(rep.converged for rep in solves)
    assert sum(rep.iterations for rep in solves) <= BALL_ITERATION_LIMITS[workload]


def _stress_problem(k):
    """Problem k of a random ball stress set: a 3-13 per side matrix of rank
    1-3 plus 0.2 Gaussian noise, 25-100% observed, radius ||q|| * 10^U(-6, 0).
    Returns (Q, mask, radius)."""
    rng = np.random.default_rng(5000 + k)
    n1, n2 = (int(n) for n in rng.integers(3, 14, 2))
    r = min(int(rng.integers(1, 4)), n1, n2)
    m_prime = round(rng.uniform(0.25, 1.0) * n1 * n2)
    X = rng.standard_normal((n1, r)) @ rng.standard_normal((r, n2))
    mask = sample_mask_uniform((n1, n2), m_prime, rng.integers(2**31))
    Q = project(X + 0.2 * rng.standard_normal((n1, n2)), mask)
    return Q, mask, float(np.linalg.norm(Q[mask.rows, mask.cols]) * 10.0 ** rng.uniform(-6.0, 0.0))


def _last_step(solve, *args):
    """Run solve(*args) and record the last step ``_pdhg`` takes: its input
    pair (X, y), its soft-threshold Xt = SVT_tau(X - tau P^* y) and tau, at
    the solver's unit scale, which y does not see.  Returns (report, (X, y,
    Xt, tau))."""
    last = []
    step_dual = quantmc.solvers._step_dual

    def recording(X, y, Xt, tau):
        last[:] = [(X.copy(), y.copy(), Xt.copy(), tau)]
        return step_dual(X, y, Xt, tau)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quantmc.solvers, "_step_dual", recording)
        rep = solve(*args)
    return rep, last[0]


def _certified(Q, mask, radius):
    """Solve the ball program and recompute the answer's certificate from
    the inputs and outputs of the loop alone, with every norm taken by
    gesdd or np.linalg.norm.

    Two dual points are tried, and the one with the smaller gap is kept.
    The first is the last step's own: from its input pair (X, y) and
    Xt = SVT_tau(X - tau P^* y), the point y / (1 + ||X - Xt||_F / tau).
    The second is the answer's own residual f = P(answer) - q, as
    f / ||P^* f||_op, unless f = 0.  Returns (report, nuclear norm and
    residual of the answer, ||P^* y||_op of the kept point y, gap
    ||answer||_* + <y, q> + radius ||y||).
    """
    rep, (X, y, Xt, tau) = _last_step(solve_quantized_mc, Q, mask, radius)
    q = Q[mask.rows, mask.cols]
    nuclear = np.linalg.norm(rep.matrix, "nuc")
    f = rep.matrix[mask.rows, mask.cols] - q
    residual = np.linalg.norm(f)
    points = [y / (1.0 + np.linalg.norm(X - Xt) / tau)]
    if np.any(f != 0.0):
        points.append(f / np.linalg.norm(scatter_vector(f, mask), 2))
    gaps = [nuclear + y @ q + radius * np.linalg.norm(y) for y in points]
    k = int(np.argmin(gaps))
    return rep, nuclear, residual, np.linalg.norm(scatter_vector(points[k], mask), 2), gaps[k]


class TestSolveQuantizedMC:
    # Most iterations over the 150 problems of _stress_problem at the default
    # budget: the loop takes 2825 (4011 unrelaxed).
    STRESS_ITERATION_LIMIT = 3000

    def test_stress_set_converges(self):
        total, missed = 0, []
        for k in range(150):
            Q, mask, radius = _stress_problem(k)
            rep = solve_quantized_mc(Q, mask, radius)
            total += rep.iterations
            if not (rep.converged and rep.data_residual <= radius * (1.0 + _TOL_FEAS)):
                missed.append(k)
        assert missed == []
        assert total <= self.STRESS_ITERATION_LIMIT

    @pytest.mark.parametrize("k", range(150))
    def test_stress_answer_carries_its_certificate(self, k):
        Q, mask, radius = _stress_problem(k)
        rep, nuclear, residual, op, gap = _certified(Q, mask, radius)
        assert rep.converged and residual <= radius * (1.0 + _TOL_FEAS)
        assert op <= 1.0 + 1e-9 and gap <= _GAP * nuclear

    def test_steps_are_scale_free(self):
        # tau = 2 max |q| and sigma = 0.99 / tau scale with Q, so a scale by
        # a power of two scales every iterate exactly
        for k in range(0, 150, 10):
            Q, mask, radius = _stress_problem(k)
            rep = solve_quantized_mc(Q, mask, radius)
            for scale in (128.0, 1.0 / 128.0):
                scaled = solve_quantized_mc(scale * Q, mask, scale * radius)
                assert scaled.iterations == rep.iterations and scaled.converged
                np.testing.assert_array_equal(scaled.matrix, scale * rep.matrix)

    @pytest.mark.parametrize("k", [-500, 500])
    def test_scale_free_across_the_range(self, k):
        # Q and the radius times 2^k give 2^k times the answer, bitwise and
        # in the same steps, near either end of the floating-point range
        for j in range(150):
            Q, mask, radius = _stress_problem(j)
            rep = solve_quantized_mc(Q, mask, radius)
            scaled = solve_quantized_mc(np.ldexp(Q, k), mask, np.ldexp(radius, k))
            assert (scaled.iterations, scaled.converged) == (rep.iterations, rep.converged)
            np.testing.assert_array_equal(scaled.matrix, np.ldexp(rep.matrix, k))
            assert scaled.nuclear_norm == np.ldexp(rep.nuclear_norm, k)
            assert scaled.data_residual == np.ldexp(rep.data_residual, k)

    @staticmethod
    def _probe():
        """A 10 x 10 rank-2 problem, 60 entries observed with 0.1 noise, at
        radius 0.3 ||q||."""
        rng = np.random.default_rng(1)
        X = rng.standard_normal((10, 2)) @ rng.standard_normal((2, 10))
        mask = sample_mask_uniform((10, 10), 60, 3)
        Q = project(X + 0.1 * rng.standard_normal((10, 10)), mask)
        return Q, mask, 0.3 * float(np.linalg.norm(Q[mask.rows, mask.cols]))

    @pytest.mark.parametrize("k", [-600, 600])
    def test_beyond_the_gram_range(self, k):
        # at 2^-600 ||q||^2 underflows to 0 and at 2^600 Q's Gram matrix
        # overflows; solved at unit scale, the answer is still 2^k times the
        # answer at scale 1
        Q, mask, radius = self._probe()
        rep = solve_quantized_mc(Q, mask, radius)
        scaled = solve_quantized_mc(np.ldexp(Q, k), mask, np.ldexp(radius, k))
        assert rep.converged and rep.iterations > 0
        assert scaled.converged and scaled.iterations == rep.iterations
        np.testing.assert_array_equal(scaled.matrix, np.ldexp(rep.matrix, k))
        assert scaled.nuclear_norm == np.ldexp(rep.nuclear_norm, k)

    @pytest.mark.parametrize("r", [1e-12, 1e-50, 1e-100, 1e-160, 1e-200, 1e-300])
    def test_tiny_radius_start(self, r):
        # At radius r ||q|| the start's mu is tiny, or 0 where (r ||q||)^2
        # underflows; its multiplier comes from Q's eigenpairs in closed form,
        # with no subtraction to divide by mu, so each solve converges with
        # its certificate and without a warning
        Q, mask, _ = self._probe()
        radius = r * float(np.linalg.norm(Q[mask.rows, mask.cols]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep, nuclear, residual, op, gap = _certified(Q, mask, radius)
        assert rep.converged and residual <= radius * (1.0 + _TOL_FEAS)
        assert op <= 1.0 + 1e-9 and gap <= _GAP * nuclear

    @pytest.mark.parametrize("share", [0.3, 0.6, 0.9])
    def test_full_mask_start_is_the_solution(self, share):
        # On a full mask the start, SVT_mu(Q) with Q's Pareto residual at mu
        # equal to the radius, solves the program, and y = (P(X) - q) / mu is
        # its multiplier: the first step's soft-threshold returns the same X
        # and certifies it.
        gt = generate_low_rank((30, 30), 3, 1.0, seed=2)
        mask = sample_mask_uniform((30, 30), 900, seed=102)
        noise = 0.1 * np.random.default_rng(2).standard_normal((30, 30))
        Q = project(gt + noise, mask)
        radius = share * float(np.linalg.norm(Q))
        rep = solve_quantized_mc(Q, mask, radius)
        assert rep.converged and rep.iterations == 1
        assert rep.data_residual == pytest.approx(radius, rel=1e-9)
        # the Pareto residual's root, by bisection
        sigma = np.linalg.svd(Q, compute_uv=False)
        lo, hi = 0.0, sigma[0]
        for _ in range(100):
            mu = 0.5 * (lo + hi)
            lo, hi = (mu, hi) if np.linalg.norm(np.minimum(sigma, mu)) < radius else (lo, mu)
        expected = _gesdd_soft(Q, mu)[0]
        assert np.max(np.abs(rep.matrix - expected)) <= 1e-10 * np.linalg.norm(Q)
        assert rep.nuclear_norm == pytest.approx(np.linalg.norm(expected, "nuc"), rel=1e-10)

    def test_full_mask_tiny_radius_pins_solution(self):
        gt = generate_low_rank((8, 8), 2, 1.0, seed=3)
        mask = sample_mask_uniform((8, 8), 64, seed=4)
        Q = project(gt, mask)
        rep = solve_quantized_mc(Q, mask, 9e-7)
        assert np.linalg.norm(rep.matrix - gt) <= 1e-6
        assert rep.converged

    def test_large_radius_returns_zero(self):
        gt = generate_low_rank((6, 6), 2, 1.0, seed=5)
        mask = sample_mask_uniform((6, 6), 20, seed=6)
        Q = project(gt, mask)
        rep = solve_quantized_mc(Q, mask, np.linalg.norm(Q) + 1.0)
        assert rep.nuclear_norm <= 1e-8
        assert rep.converged and rep.iterations == 0

    def test_q_must_vanish_off_mask(self):
        mask = sample_mask_uniform((3, 3), 4, seed=0)
        with pytest.raises(ValueError):
            solve_quantized_mc(np.ones((3, 3)), mask, 0.5)

    def test_radius_must_be_positive(self):
        mask = sample_mask_uniform((3, 3), 4, seed=0)
        with pytest.raises(ValueError):
            solve_quantized_mc(project(np.ones((3, 3)), mask), mask, 0.0)

    def test_feasibility_contract(self):
        gt = generate_low_rank((12, 12), 2, 1.0, seed=7)
        mask = sample_mask_uniform((12, 12), 90, seed=8)
        Q = quantize_matrix(gt, mask, QuantizerSpec(0.25, 8), DitherSpec.uniform(0.125), seed=9)
        radius = 0.8 * float(np.linalg.norm(Q[mask.rows, mask.cols]))
        rep = solve_quantized_mc(Q, mask, radius)
        if rep.converged:
            assert rep.data_residual <= radius * (1 + _TOL_FEAS)

    def test_recovery_close_to_truth_with_oracle_radius(self):
        gt = generate_low_rank((16, 16), 2, 1.0, seed=10)
        mask = sample_mask_uniform((16, 16), 180, seed=11)
        Q = quantize_matrix(gt, mask, QuantizerSpec(0.1, 40), DitherSpec.uniform(0.05), seed=12)
        radius = float(np.linalg.norm((gt - Q)[mask.rows, mask.cols]))
        rep = solve_quantized_mc(Q, mask, radius)
        assert rep.converged
        assert np.linalg.norm(rep.matrix - gt) <= 0.25 * np.linalg.norm(gt)

    def test_minimality_when_truth_is_feasible(self):
        # convexity: the returned nuclear norm cannot beat the truth's by
        # more than solver slack when the truth is strictly inside the ball
        gt = generate_low_rank((10, 10), 2, 1.0, seed=13)
        mask = sample_mask_uniform((10, 10), 70, seed=14)
        Q = quantize_matrix(gt, mask, QuantizerSpec(0.2, 12), DitherSpec.uniform(0.1), seed=15)
        true_resid = float(np.linalg.norm((gt - Q)[mask.rows, mask.cols]))
        rep = solve_quantized_mc(Q, mask, 1.3 * true_resid)
        assert rep.nuclear_norm <= np.linalg.norm(gt, "nuc") + 1e-6

    def test_nuclear_norm_shrinks_as_radius_grows(self):
        gt = generate_low_rank((10, 10), 2, 1.0, seed=16)
        mask = sample_mask_uniform((10, 10), 60, seed=17)
        Q = project(gt, mask)
        qnorm = float(np.linalg.norm(Q))
        norms = []
        for radius in (0.05 * qnorm, 0.2 * qnorm, 0.8 * qnorm, 1.2 * qnorm):
            rep = solve_quantized_mc(Q, mask, radius)
            norms.append(rep.nuclear_norm)
        assert all(a >= b - 1e-9 for a, b in zip(norms, norms[1:]))

    def test_budget_exhaustion_reports_not_converged(self):
        gt = generate_low_rank((10, 10), 3, 1.0, seed=18)
        mask = sample_mask_uniform((10, 10), 55, seed=19)
        Q = project(gt, mask)
        rep = solve_quantized_mc(Q, mask, 1e-8, 3)
        assert not rep.converged
        assert rep.iterations <= 3

    @pytest.mark.parametrize("radius", [1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12])
    def test_tiny_radius_converges(self, radius):
        # On the inputs of test_budget_exhaustion_reports_not_converged, each
        # radius is certified in 39 steps (58, and 60 at 1e-12, unrelaxed)
        # by the masked repair (the ray misses the ball).
        gt = generate_low_rank((10, 10), 3, 1.0, seed=18)
        mask = sample_mask_uniform((10, 10), 55, seed=19)
        rep, nuclear, residual, op, gap = _certified(project(gt, mask), mask, radius)
        assert rep.converged and rep.iterations <= 45
        assert residual <= radius * (1.0 + _TOL_FEAS)
        assert op <= 1.0 + 1e-9 and gap <= _GAP * nuclear

    def test_ray_repair_keeps_the_iterate(self, last_soft):
        # The last iterate of the large_n solve at base_seed 300000 lies
        # outside the ball, and the line through it meets the ball: the
        # answer is that iterate scaled onto the sphere.
        ((Q, mask, radius),) = TestBallOracle._problems("large_n-3")
        rep = solve_quantized_mc(Q, mask, radius)
        X, sv = np.ldexp(last_soft[0], quantmc.solvers._unit_scale(Q)[1]), last_soft[1]
        t = np.vdot(rep.matrix, X) / np.vdot(X, X)
        assert rep.converged and t != pytest.approx(1.0, abs=1e-6)
        assert np.max(np.abs(rep.matrix - t * X)) <= 1e-14 * np.abs(X).max()
        assert np.linalg.matrix_rank(rep.matrix) <= len(sv)
        residual = np.linalg.norm(rep.matrix[mask.rows, mask.cols] - Q[mask.rows, mask.cols])
        assert radius * (1.0 - 1e-12) <= residual <= radius * (1.0 + _TOL_FEAS)
        assert rep.nuclear_norm == pytest.approx(np.linalg.norm(rep.matrix, "nuc"), rel=1e-9)

    @pytest.mark.parametrize("radius", [1e-4, 1e-8])
    def test_masked_repair_where_the_ray_misses(self, last_soft, radius):
        # On the inputs of test_tiny_radius_converges the line through the
        # last iterate misses the ball, so the answer is that iterate with
        # its masked residual scaled onto the sphere, and still certified.
        gt = generate_low_rank((10, 10), 3, 1.0, seed=18)
        mask = sample_mask_uniform((10, 10), 55, seed=19)
        Q = project(gt, mask)
        q = Q[mask.rows, mask.cols]
        rep, nuclear, residual, op, gap = _certified(Q, mask, radius)
        X = np.ldexp(last_soft[0], quantmc.solvers._unit_scale(Q)[1])
        r = X[mask.rows, mask.cols] - q
        assert quantmc.solvers._ray(X[mask.rows, mask.cols], r, np.linalg.norm(r), radius) == 0.0
        assert np.array_equal(rep.matrix - project(rep.matrix, mask), X - project(X, mask))
        f = rep.matrix[mask.rows, mask.cols] - q
        assert np.max(np.abs(f - (radius / np.linalg.norm(r)) * r)) <= 1e-6 * radius
        assert rep.converged and residual <= radius * (1.0 + _TOL_FEAS)
        assert op <= 1.0 + 1e-9 and gap <= _GAP * nuclear

    @pytest.mark.parametrize("radius", [1e-2, 1e-4, 1e-8])
    @pytest.mark.parametrize("max_iters", [1, 3, 10, 20000])
    def test_every_answer_is_feasible(self, radius, max_iters):
        # converged or cut short by the budget, the answer lies in the ball,
        # and its reported residual and nuclear norm are its own
        gt = generate_low_rank((10, 10), 3, 1.0, seed=18)
        mask = sample_mask_uniform((10, 10), 55, seed=19)
        Q = project(gt, mask)
        rep = solve_quantized_mc(Q, mask, radius, max_iters)
        assert rep.converged or rep.iterations == max_iters
        residual = np.linalg.norm(rep.matrix[mask.rows, mask.cols] - Q[mask.rows, mask.cols])
        assert rep.data_residual == pytest.approx(residual, rel=1e-12)
        assert residual <= radius * (1.0 + _TOL_FEAS)
        assert rep.nuclear_norm == pytest.approx(np.linalg.norm(rep.matrix, "nuc"), rel=1e-9)

    def test_radius_near_exact_completion_is_certified(self):
        # A partial mask admits exact completion, so every radius is
        # feasible, 1e-12 included.
        gt = generate_low_rank((10, 10), 3, 1.0, seed=40)
        mask = sample_mask_uniform((10, 10), 55, seed=41)
        rep, nuclear, residual, op, gap = _certified(project(gt, mask), mask, 1e-12)
        assert rep.converged
        assert residual <= 1e-12 * (1.0 + _TOL_FEAS)
        assert op <= 1.0 + 1e-9 and gap <= _GAP * nuclear

    def test_nan_radius_and_non_finite_q_rejected(self):
        # a NaN radius failed inside LAPACK; an infinite one admits X = 0
        gt = generate_low_rank((6, 6), 2, 1.0, seed=5)
        mask = sample_mask_uniform((6, 6), 20, seed=6)
        Q = project(gt, mask)
        with pytest.raises(ValueError, match="radius"):
            solve_quantized_mc(Q, mask, math.nan)
        rep = solve_quantized_mc(Q, mask, math.inf)
        assert rep.converged and rep.iterations == 0 and np.all(rep.matrix == 0.0)
        Q[mask.rows[0], mask.cols[0]] = math.inf
        with pytest.raises(ValueError, match="finite"):
            solve_quantized_mc(Q, mask, 1.0)


class TestBallOracle:
    """Each default ball answer against the program's minimum, from a solve
    to a gap of 1e-9, with both certificates recomputed by ``_certified``."""

    @staticmethod
    def _problems(name):
        """(Q, mask, radius) of the ball solves of the first trial of a bench
        workload at base_seed s * 100000, or of a stress problem."""
        kind, k = name.rsplit("-", 1)
        if kind == "stress":
            return [_stress_problem(int(k))]
        problems = []
        with pytest.MonkeyPatch.context() as mp:
            solve = quantmc.harness.solve_quantized_mc

            def recording(Q, mask, radius, max_iters):
                problems.append((Q, mask, radius))
                return solve(Q, mask, radius, max_iters)

            mp.setattr(quantmc.harness, "solve_quantized_mc", recording)
            cfg = quantmc.harness.ExperimentConfig(trials=1, base_seed=int(k) * 100000, **BENCH_CONFIGS[kind])
            quantmc.harness.run_experiment(cfg)
        return problems

    # Stress problems 53 and 104 have steep Pareto curves; their answers are
    # 0% above the minimum (0% and 0.81% unrelaxed), and those of the bench
    # workloads at most 0.30%.
    @pytest.mark.parametrize(
        "name", ["large_n-2", "large_n-3", "rate_sweep-2", "rate_sweep-3", "stress-53", "stress-104"]
    )
    def test_within_the_gap_of_the_minimum(self, name):
        problems = self._problems(name)
        assert len(problems) in (1, 4)
        for Q, mask, radius in problems:
            rep, nuclear, residual, op, gap = _certified(Q, mask, radius)
            assert rep.converged and residual <= radius * (1.0 + _TOL_FEAS)
            assert op <= 1.0 + 1e-9 and gap <= _GAP * nuclear
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(quantmc.solvers, "_GAP", 1e-9)
                ref, ref_nuclear, ref_residual, ref_op, ref_gap = _certified(Q, mask, radius)
            assert ref.converged and ref_residual <= radius * (1.0 + _TOL_FEAS)
            assert ref_op <= 1.0 + 1e-9 and ref_gap <= 1e-9 * ref_nuclear + 1e-12 * ref_nuclear
            assert nuclear <= 1.01 * ref_nuclear


def _one_bit_system(shape, m_prime, m, seed):
    """A noise-free one-bit system: a rank-2 truth seen at m_prime entries
    against m uniform(1) threshold sequences; with m = 1 every entry's box
    has one unbounded side.  Returns (system, truth)."""
    gt = generate_low_rank(shape, 2, 1.0, seed=seed)
    mask = sample_mask_uniform(shape, m_prime, seed=seed + 1)
    thr = generate_dither_tensor(DitherSpec.uniform(1.0), m, m_prime, seed=seed + 2)
    return build_polyhedron(observe_one_bit(gt, mask, thr)), gt


def _bench_one_bit_system(seed):
    """The one-bit system of the first trial of the onebit_known workload at
    base_seed seed * 100000."""
    systems = []
    with pytest.MonkeyPatch.context() as mp:
        solve = quantmc.harness.solve_one_bit_mc

        def recording(system, max_iters):
            systems.append(system)
            return solve(system, max_iters)

        mp.setattr(quantmc.harness, "solve_one_bit_mc", recording)
        cfg = quantmc.harness.ExperimentConfig(trials=1, base_seed=seed * 100000, **BENCH_CONFIGS["onebit_known"])
        quantmc.harness.run_experiment(cfg)
    (system,) = systems
    return system


def _recorded_box_steps(system):
    """Solve the one-bit program and record what ``_pdhg`` weighs at each
    step: (w, dual, answer), with w the dual point the loop passed to the
    program's support function, dual the lower bound it passed on to the
    candidate, and answer the candidate's (F, ||F||_*, dual, feasible) or
    None.  Returns (report, steps)."""
    steps = []
    pdhg = quantmc.solvers._pdhg

    def recording(X, y, idx, tau, project, support, candidate, max_iters):
        points = []

        def recording_support(w):
            points.append(w.copy())
            return support(w)

        def recording_candidate(X, x, nuc, dual, last):
            answer = candidate(X, x, nuc, dual, last)
            steps.append((points[-1], dual, answer))
            return answer

        return pdhg(X, y, idx, tau, project, recording_support, recording_candidate, max_iters)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quantmc.solvers, "_pdhg", recording)
        rep = solve_one_bit_mc(system)
    return rep, steps


def _support_repair(w, lo, hi):
    """w without c, its weight on the unbounded sides of [lo, hi], divided
    by 1 + ||c||_F: dual feasible when w is, as ||P^* c||_op <= ||c||_F."""
    wrong = ((w > 0.0) & np.isinf(hi)) | ((w < 0.0) & np.isinf(lo))
    return np.where(wrong, 0.0, w) / (1.0 + np.linalg.norm(w[wrong]))


def _box_support(w, lo, hi):
    """sigma_[lo, hi](w): the sum over w > 0 of w hi and over w < 0 of w lo."""
    up, down = w > 0.0, w < 0.0
    return w[up] @ hi[up] + w[down] @ lo[down]


def _recorded_projections(solve, *args):
    """Run solve(*args) and record each projection the loop's dual step
    takes, at the solver's unit scale: the ``project`` that ``_pdhg``
    takes, wrapped.  Returns (report, project, projected points)."""
    points, given = [], []
    pdhg = quantmc.solvers._pdhg

    def recording(X, y, idx, tau, project, support, candidate, max_iters):
        def recording_project(v):
            p = project(v)
            points.append(p.copy())
            return p

        given.append(project)
        return pdhg(X, y, idx, tau, recording_project, support, candidate, max_iters)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quantmc.solvers, "_pdhg", recording)
        rep = solve(*args)
    (project,) = given
    return rep, project, points


@pytest.mark.parametrize("problem", ["ball-0", "ball-1", "ball-2", "box-0", "box-1"])
def test_dual_step_projects_into_the_set(problem):
    # Each program states its set C once, as its projection: the loop takes
    # it once per step but the stopping one, for its dual step
    # sigma (v - project(v)).  Every projected point lies in C: in the ball
    # to _TOL_FEAS, and in the shrunk box, strictly inside the sign box.  On
    # the box, projecting twice is projecting once, bitwise.
    kind, k = problem.split("-")
    if kind == "ball":
        Q, mask, radius = _stress_problem(int(k))
        rep, project, points = _recorded_projections(solve_quantized_mc, Q, mask, radius)
        q = Q[mask.rows, mask.cols]
        e = quantmc.solvers._unit_scale(q)[1]
        q, radius = np.ldexp(q, -e), np.ldexp(radius, -e)
        for p in points:
            assert np.linalg.norm(p - q) <= radius * (1.0 + _TOL_FEAS)
    else:
        # five sequences per entry (some boxes one-sided), or ten
        shape, m_prime, m, seed = ((16, 12), 120, 5, 5) if k == "0" else ((12, 12), 80, 10, 20)
        system = _one_bit_system(shape, m_prime, m, seed)[0]
        rep, project, points = _recorded_projections(solve_one_bit_mc, system)
        lo, hi = feasible_intervals(system)
        e = quantmc.solvers._unit_scale(np.concatenate((lo, hi)))[1]
        lo, hi = np.ldexp(lo, -e), np.ldexp(hi, -e)
        for p in points:
            assert np.all((lo < p) & (p < hi))
            np.testing.assert_array_equal(project(p), p)
    assert rep.converged and len(points) == rep.iterations - 1 > 0


class TestSolveOneBitMC:
    def test_single_constraint_scalar(self):
        # min |x| subject to x >= 0.5: the answer is sign-feasible and within
        # the gap of the minimum 0.5
        mask = SampleMask((1, 1), [0], [0])
        system = OneBitObservation(np.array([[1]]), np.array([[0.5]]), mask)
        rep = solve_one_bit_mc(system)
        assert rep.converged and rep.data_residual == 0.0
        assert 0.5 <= rep.matrix[0, 0] <= 0.5 / (1.0 - _GAP)
        assert rep.nuclear_norm == pytest.approx(rep.matrix[0, 0], rel=1e-12)

    def test_vacuous_constraints_give_zero(self):
        # 0 lies in every entry's box: the zero matrix, without a step
        mask = sample_mask_uniform((4, 4), 8, seed=0)
        system = OneBitObservation(np.ones((3, 8), dtype=int), np.full((3, 8), -1e10), mask)
        rep = solve_one_bit_mc(system)
        assert np.all(rep.matrix == 0.0) and rep.converged
        assert rep.iterations == 0 and rep.stage_objectives == ()

    def test_consistent_recovery_mid_size(self):
        gt = generate_low_rank((12, 12), 2, 1.0, seed=20)
        mask = sample_mask_uniform((12, 12), 80, seed=21)
        thr = generate_dither_tensor(DitherSpec.uniform(1.0), 10, 80, seed=22)
        obs = observe_one_bit(gt, mask, thr)
        system = build_polyhedron(obs)
        rep = solve_one_bit_mc(system)
        assert rep.converged and rep.data_residual == 0.0
        assert consistency_report(rep.matrix, obs, gt) == 0

    def test_no_feasible_perturbation_improves_objective(self):
        # every point of the box has a nuclear norm of at least the dual
        # bound, which the stop puts within _GAP of the answer's
        gt = generate_low_rank((8, 8), 2, 1.0, seed=23)
        mask = sample_mask_uniform((8, 8), 30, seed=24)
        thr = generate_dither_tensor(DitherSpec.uniform(1.0), 6, 30, seed=25)
        system = build_polyhedron(observe_one_bit(gt, mask, thr))
        rep = solve_one_bit_mc(system)
        assert rep.converged
        assert rep.stage_objectives == (rep.objective,) and rep.objective == rep.nuclear_norm
        lo, hi = feasible_intervals(system)
        base = np.linalg.norm(rep.matrix, "nuc")
        rng = np.random.default_rng(26)
        for _ in range(2000):
            Z = rep.matrix + 10.0 ** rng.uniform(-6, -1) * rng.standard_normal((8, 8))
            Z[mask.rows, mask.cols] = np.clip(Z[mask.rows, mask.cols], lo, np.nextafter(hi, -np.inf))
            assert np.linalg.norm(Z, "nuc") >= (1.0 - _GAP) * base * (1.0 - 1e-12)

    def test_minimality_against_feasible_truth(self):
        # the truth satisfies every sign, so the minimum is at most its
        # nuclear norm, and the answer at most 1 / (1 - _GAP) times that
        system, gt = _one_bit_system((10, 10), 50, 8, seed=26)
        rep = solve_one_bit_mc(system)
        assert rep.converged and rep.data_residual == 0.0
        assert rep.nuclear_norm == pytest.approx(np.linalg.norm(rep.matrix, "nuc"), rel=1e-9)
        assert rep.nuclear_norm <= np.linalg.norm(gt, "nuc") / (1.0 - _GAP)

    def test_infeasible_system_reports_violation(self):
        # contradictory signs around one entry: x >= 1 and x <= -1
        mask = SampleMask((1, 1), [0], [0])
        system = OneBitObservation(np.array([[1], [-1]]), np.array([[1.0], [-1.0]]), mask)
        rep = solve_one_bit_mc(system, 2000)
        assert not rep.converged
        assert rep.iterations == 0
        assert rep.data_residual > 0.1

    # x >= 0.5 and x < 0.5 (the tie goes to +1): lo = hi, an empty box; and
    # x < 0 with x' >= 0, whose nuclear norm has no least value
    @pytest.mark.parametrize(
        "signs, thresholds", [([[1], [-1]], [[0.5], [0.5]]), ([[-1, 1]], [[0.0, 0.0]])], ids=["touching", "zero_bounds"]
    )
    def test_box_without_a_minimum_takes_no_step(self, signs, thresholds):
        thresholds = np.array(thresholds)
        mask = SampleMask((1, thresholds.shape[1]), [0] * thresholds.shape[1], list(range(thresholds.shape[1])))
        rep = solve_one_bit_mc(OneBitObservation(np.array(signs), thresholds, mask), 2000)
        assert not rep.converged and rep.iterations == 0 and np.all(rep.matrix == 0.0)

    @pytest.mark.parametrize("t", [1e-3, 0.75, 1e3])
    def test_margin_keeps_a_sign_at_its_tie(self, t):
        # x < 0 and x' >= t: the minimum sits on the open side x = 0, where
        # the tie goes to +1 and violation_measure reads 0, so only the
        # signs show whether the answer stayed strictly inside; without the
        # interior margin the answer at t = 1e-3 was x = -0.0, sign +1
        mask = SampleMask((1, 2), [0, 0], [0, 1])
        system = OneBitObservation(np.array([[-1, 1]]), np.array([[0.0, t]]), mask)
        rep = solve_one_bit_mc(system)
        x = rep.matrix[mask.rows, mask.cols]
        assert rep.converged
        np.testing.assert_array_equal(sign_pm1(x - system.thresholds), system.signs)

    def test_steps_are_scale_free(self):
        # the margin and tau scale with the thresholds, so a scale by a power
        # of two scales every iterate exactly
        system, _ = _one_bit_system((12, 12), 80, 10, seed=20)
        rep = solve_one_bit_mc(system)
        for scale in (2.0**-20, 2.0**10):
            scaled = OneBitObservation(system.signs, scale * system.thresholds, system.mask)
            rep_scaled = solve_one_bit_mc(scaled)
            assert rep_scaled.iterations == rep.iterations and rep_scaled.converged
            np.testing.assert_array_equal(rep_scaled.matrix, scale * rep.matrix)

    @pytest.mark.parametrize("k", [-500, 500])
    def test_scale_free_across_the_range(self, k):
        # truth and thresholds times 2^k keep every sign, and the answer is
        # 2^k times the answer at scale 1, bitwise and in the same steps
        for seed in range(10):
            system, _ = _one_bit_system((16, 12), 120, 5, seed=seed)
            rep = solve_one_bit_mc(system)
            scaled = solve_one_bit_mc(OneBitObservation(system.signs, np.ldexp(system.thresholds, k), system.mask))
            assert rep.converged and rep.iterations > 0
            assert scaled.converged and scaled.iterations == rep.iterations
            np.testing.assert_array_equal(scaled.matrix, np.ldexp(rep.matrix, k))
            assert scaled.nuclear_norm == np.ldexp(rep.nuclear_norm, k) and scaled.data_residual == 0.0

    @pytest.mark.parametrize("max_iters", [1, 3, 10])
    def test_budget_answer_is_sign_feasible(self, max_iters):
        # cut short by the budget, the answer is the last iterate's masked
        # repair, its masked entries projected onto the shrunk box, so it
        # lies strictly inside the sign box; its reported nuclear norm is
        # its own
        system, _ = _one_bit_system((12, 12), 80, 10, seed=20)
        rep = solve_one_bit_mc(system, max_iters)
        assert not rep.converged and rep.iterations == max_iters
        assert rep.data_residual == 0.0
        lo, hi = feasible_intervals(system)
        x = rep.matrix[system.mask.rows, system.mask.cols]
        assert np.all((lo < x) & (x < hi))
        assert rep.nuclear_norm == pytest.approx(np.linalg.norm(rep.matrix, "nuc"), rel=1e-9)

    @pytest.mark.parametrize("problem", ["onebit_known", "unbounded_side"])
    def test_stop_gap_is_the_duality_gap_at_w(self, problem):
        # The loop stops at the first feasible answer F whose gap
        # ||F||_* - dual is at most _GAP ||F||_*, with dual = -sigma_[lo, hi](w)
        # at the step's dual point w taken off the unbounded sides
        # (_support_repair): ||P^* w||_op <= 1 (gesdd), and w puts no weight
        # on an unbounded side, so sigma_[lo, hi](w) is finite
        if problem == "onebit_known":
            system = _bench_one_bit_system(1)
        else:
            # one dither per entry: every box has exactly one unbounded side
            system = _one_bit_system((10, 10), 50, 1, seed=30)[0]
        rep, steps = _recorded_box_steps(system)
        assert rep.converged and rep.iterations == len(steps) > 1
        lo, hi = feasible_intervals(system)
        assert np.any(np.isinf(lo) | np.isinf(hi))
        if problem == "unbounded_side":
            assert np.all(np.isinf(lo) != np.isinf(hi))
        for w, dual, answer in steps[:-1]:
            assert answer is None or not (answer[3] and answer[1] - answer[2] <= _GAP * answer[1])
        w, dual, (F, f_nuc, answer_dual, feasible) = steps[-1]
        np.testing.assert_array_equal(F, rep.matrix)
        assert feasible and f_nuc == rep.nuclear_norm
        assert f_nuc == pytest.approx(np.linalg.norm(F, "nuc"), rel=1e-9)
        w = _support_repair(w, lo, hi)
        assert np.all(w[np.isinf(hi)] <= 0.0) and np.all(w[np.isinf(lo)] >= 0.0)
        support = _box_support(w, lo, hi)
        assert math.isfinite(support) and answer_dual == dual
        assert dual == pytest.approx(-support, rel=1e-12, abs=1e-12 * f_nuc)
        assert np.linalg.norm(scatter_vector(w, system.mask), 2) <= 1.0 + 1e-9
        assert 0.0 <= f_nuc - dual <= _GAP * f_nuc

    def test_stop_certifies_against_the_sign_box(self):
        # The loop's iterates are drawn into the box shrunk by gamma, but the
        # stop takes its bound against the sign box [lo, hi] itself: at the
        # stopping step dual = -sigma_[lo, hi](w), which lies sum_k gamma_k |w_k|
        # below the shrunk box's -sigma(w), a bound for the shrunk program only.
        # The answer satisfies every sign, strictly.
        system = _bench_one_bit_system(1)
        rep, steps = _recorded_box_steps(system)
        assert rep.converged and rep.data_residual == 0.0
        lo, hi = feasible_intervals(system)
        x = rep.matrix[system.mask.rows, system.mask.cols]
        assert np.all((lo <= x) & (x < hi))
        bounds = np.abs(np.concatenate((lo, hi)))
        gamma = np.minimum(_FEAS_MARGIN * bounds[np.isfinite(bounds)].max(), 0.25 * (hi - lo))
        w, dual, (F, f_nuc, _, _) = steps[-1]
        w = _support_repair(w, lo, hi)
        sign_box = -_box_support(w, lo, hi)
        shrunk_box = -_box_support(w, lo + gamma, hi - gamma)
        margin = float(gamma @ np.abs(w))
        assert margin > 0.0
        assert dual == pytest.approx(sign_box, rel=1e-12, abs=1e-12 * f_nuc)
        assert shrunk_box - dual == pytest.approx(margin, rel=1e-6, abs=1e-12 * f_nuc)
        assert f_nuc - dual <= _GAP * f_nuc

    def test_support_repair_takes_the_point_off_unbounded_sides(self):
        # On this system, where some entries' five thresholds lie on one side,
        # the relaxed multiplier puts weight of the wrong sign on unbounded
        # sides at most steps, where sigma_[lo, hi] of the step's dual point w
        # is infinite.  The support function drops that part c of w and
        # divides the rest by 1 + ||c||_F: at every step the repaired point
        # has ||P^* w||_op <= 1 (gesdd), and the bound passed on is its
        # -sigma_[lo, hi], finite and at most the nuclear norm of a solve to
        # a gap of 1e-5.
        system = _one_bit_system((16, 12), 120, 5, seed=5)[0]
        lo, hi = feasible_intervals(system)
        rep, steps = _recorded_box_steps(system)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quantmc.solvers, "_GAP", 1e-5)
            ref = solve_one_bit_mc(system)
        assert rep.converged and ref.converged
        ref_nuclear = np.linalg.norm(ref.matrix, "nuc")
        repaired = 0
        for w, dual, _ in steps:
            repaired += bool(np.any((w > 0.0) & np.isinf(hi)) or np.any((w < 0.0) & np.isinf(lo)))
            w = _support_repair(w, lo, hi)
            assert np.linalg.norm(scatter_vector(w, system.mask), 2) <= 1.0 + 1e-9
            assert math.isfinite(dual) and dual <= ref_nuclear
            assert dual == pytest.approx(-_box_support(w, lo, hi), rel=1e-12, abs=1e-12 * ref_nuclear)
        assert repaired > 0

    def test_empty_system_rejected(self):
        mask = SampleMask((1, 1), [0], [0])
        for thresholds in (np.zeros((0, 1)), None):
            with pytest.raises(ValueError, match="empty"):
                OneBitObservation(np.zeros((0, 1), dtype=int), thresholds, mask)


def _budget_solves():
    """One solve per case, given its budget: each solver on a problem that
    takes steps, and on one whose zero matrix is feasible."""
    Q, mask, radius = _stress_problem(0)
    vacuous = OneBitObservation(
        np.ones((3, 8), dtype=int), np.full((3, 8), -1e10), sample_mask_uniform((4, 4), 8, seed=0)
    )
    system = _one_bit_system((6, 6), 20, 4, seed=20)[0]
    return {
        "ball": lambda budget: solve_quantized_mc(Q, mask, radius, budget),
        "ball_zero_feasible": lambda budget: solve_quantized_mc(Q, mask, 2.0 * np.linalg.norm(Q), budget),
        "one_bit": lambda budget: solve_one_bit_mc(system, budget),
        "one_bit_zero_feasible": lambda budget: solve_one_bit_mc(vacuous, budget),
    }


@pytest.mark.parametrize("case", ["ball", "ball_zero_feasible", "one_bit", "one_bit_zero_feasible"])
def test_budget_below_one_rejected(case):
    # the budget is checked before any other work, the zero matrix's exit
    # included; a budget of 1 is accepted
    solve = _budget_solves()[case]
    assert solve(1).iterations == (0 if case.endswith("zero_feasible") else 1)
    for budget in (0, -1):
        with pytest.raises(ValueError, match="max_iters"):
            solve(budget)


# Most steps of the one-bit solver over the first trial of seeds 2-11
# (base_seed s * 100000) of the onebit_known workload: it takes 404 (582
# unrelaxed).
BOX_ITERATION_LIMIT = 430


def test_bench_workload_box_iterations(solves):
    for seed in range(2, 12):
        cfg = quantmc.harness.ExperimentConfig(trials=1, base_seed=seed * 100000, **BENCH_CONFIGS["onebit_known"])
        records, _ = quantmc.harness.run_experiment(cfg)
        assert all(rec.zeta == 0 and rec.violation == 0.0 for rec in records)
    assert len(solves) == 10 and all(rep.converged for rep in solves)
    assert sum(rep.iterations for rep in solves) <= BOX_ITERATION_LIMIT


def _box_certified(system):
    """Solve the one-bit program and recompute the answer's certificate
    against the sign box [lo, hi] from the inputs and outputs of the loop
    alone, with every norm taken by gesdd.

    From the last step's input pair (X, y) and Xt = SVT_tau(X - tau P^* y),
    the step's dual point is y' = y / (1 + ||X - Xt||_F / tau), and
    ``_support_repair`` takes it off the unbounded sides.  Returns (report,
    nuclear norm of the answer, ||P^* y''||_op, gap ||answer||_* +
    sigma_[lo, hi](y'')) for that repaired point y''.
    """
    rep, (X, y, Xt, tau) = _last_step(solve_one_bit_mc, system)
    lo, hi = feasible_intervals(system)
    y = _support_repair(y / (1.0 + np.linalg.norm(X - Xt) / tau), lo, hi)
    nuclear = np.linalg.norm(rep.matrix, "nuc")
    return rep, nuclear, np.linalg.norm(scatter_vector(y, system.mask), 2), nuclear + _box_support(y, lo, hi)


class TestBoxOracle:
    """Each default one-bit answer against the program's minimum, from a
    solve to a gap of 1e-5, with both certificates recomputed by
    ``_box_certified``."""

    @staticmethod
    def _system(name):
        kind, k = name.rsplit("-", 1)
        if kind == "small":
            # one sequence per entry (every box one-sided), or ten
            return _one_bit_system((10, 12), 60, (1, 10)[int(k)], seed=40 + int(k))[0]
        return _bench_one_bit_system(int(k))

    @pytest.mark.parametrize("name", ["onebit_known-2", "onebit_known-3", "small-0", "small-1"])
    def test_within_the_gap_of_the_minimum(self, name):
        system = self._system(name)
        mask = system.mask
        lo, hi = feasible_intervals(system)
        if name == "small-0":
            assert np.all(np.isinf(lo) != np.isinf(hi))
        rep, nuclear, op, gap = _box_certified(system)
        x = rep.matrix[mask.rows, mask.cols]
        assert rep.converged and np.all((lo <= x) & (x < hi))
        assert op <= 1.0 + 1e-9 and gap <= _GAP * nuclear
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quantmc.solvers, "_GAP", 1e-5)
            ref, ref_nuclear, ref_op, ref_gap = _box_certified(system)
        x = ref.matrix[mask.rows, mask.cols]
        assert ref.converged and np.all((lo <= x) & (x < hi))
        assert ref_op <= 1.0 + 1e-9 and ref_gap <= 1e-5 * ref_nuclear + 1e-12 * ref_nuclear
        assert nuclear <= 1.01 * ref_nuclear


class TestSolveStatisticsOnly:
    """The sign-only estimator: the ball solver against the scaled-sign surrogate."""

    def _obs(self, X, mask, delta, seed):
        thr = generate_dither_tensor(DitherSpec.uniform(delta / 2), 1, mask.m_prime, seed)
        return strip_thresholds(observe_one_bit(X, mask, thr))

    @staticmethod
    def _solve(obs, delta, radius):
        return solve_quantized_mc(surrogate_data(obs, delta), obs.mask, radius)

    def test_all_positive_signs_large_radius_gives_zero(self):
        gt = generate_low_rank((5, 5), 1, 1.0, seed=29)
        mask = sample_mask_uniform((5, 5), 10, seed=30)
        obs = self._obs(np.abs(gt) + 2.0, mask, 2.0, 31)
        rep = self._solve(obs, 2.0, 100.0)
        assert np.all(rep.matrix == 0.0)

    def test_scalar_case_residual_contract(self):
        mask = SampleMask((1, 1), [0], [0])
        obs = self._obs(np.array([[0.9]]), mask, 2.0, 32)
        assert obs.signs[0, 0] in (-1, 1)
        rep = self._solve(obs, 2.0, 0.1)
        surrogate = obs.signs[0, 0] * 1.0
        assert abs(rep.matrix[0, 0] - surrogate) <= 0.1 * (1 + _TOL_FEAS)

    def test_multi_sequence_rejected(self):
        gt = generate_low_rank((4, 4), 1, 1.0, seed=33)
        mask = sample_mask_uniform((4, 4), 8, seed=34)
        thr = generate_dither_tensor(DitherSpec.uniform(1.0), 2, 8, seed=35)
        obs = observe_one_bit(gt, mask, thr)
        with pytest.raises(UnsupportedModeError):
            self._solve(obs, 2.0, 1.0)

    def test_recovers_under_oracle_radius(self):
        gt = generate_low_rank((12, 12), 1, 1.0, seed=36)
        mask = sample_mask_uniform((12, 12), 100, seed=37)
        delta = 2.0
        obs = self._obs(gt, mask, delta, 38)
        surrogate = 0.5 * delta * obs.signs[0]
        radius = float(np.linalg.norm(gt[mask.rows, mask.cols] - surrogate))
        rep = self._solve(obs, delta, radius)
        assert rep.converged
        assert np.linalg.norm(rep.matrix - gt) <= np.linalg.norm(gt)
