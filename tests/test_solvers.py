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
from quantmc.quantize import DitherSpec, QuantizerSpec, generate_dither_tensor, quantize_matrix
from quantmc.solvers import (
    _BALL_GAP,
    _FEAS_MARGIN,
    _GRAM_FLOOR,
    _STEP_MAX,
    _STEP_SAFETY,
    ProxParams,
    _box_gap,
    _clipped_step,
    _fista,
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
    """Shapes of the Gram matrices ``_svd_soft`` decomposes while the test runs."""
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
    """The (matrix, sv) of the last ``_svd_soft`` call while the test runs."""
    last = []
    svd_soft = quantmc.solvers._svd_soft

    def recording(Z, theta):
        last[:] = svd_soft(Z, theta)
        return tuple(last)

    monkeypatch.setattr(quantmc.solvers, "_svd_soft", recording)
    return last


@pytest.fixture
def inner_products(monkeypatch):
    """Values np.vdot returns while the test runs."""
    values = []
    vdot = np.vdot

    def recording(a, b):
        values.append(vdot(a, b))
        return values[-1]

    monkeypatch.setattr(np, "vdot", recording)
    return values


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
        return X

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
        X = self._assert_matches_oracle(Z, 3.0)
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

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_extreme_scales(self, scale):
        # the Gram matrix of Z underflows or overflows; the kernel must
        # still match the oracle
        W = np.random.default_rng(7).standard_normal((20, 12))
        Z = scale * W
        theta = 0.1 * np.linalg.norm(Z, 2)
        X, sv = _svd_soft(Z, theta)
        X_ref, sv_ref = _gesdd_soft(Z, theta)
        assert np.max(np.abs(X - X_ref)) <= 1e-10 * scale * np.linalg.norm(W)
        assert sv.sum() == pytest.approx(sv_ref.sum(), rel=1e-12)

    @pytest.mark.parametrize("shape", [(160, 160), (160, 40), (40, 160)])
    @pytest.mark.parametrize("ratio, gesdd_calls", [(0.999 * _GRAM_FLOOR, 1), (1.001 * _GRAM_FLOOR, 0)])
    def test_precision_floor(self, svd_calls, shape, ratio, gesdd_calls):
        # below theta = _GRAM_FLOOR * sigma_1 the squared matrix is too coarse
        # and the kernel falls back to gesdd; at or above it, it does not
        Z = _with_spectrum(shape, np.geomspace(10.0, 1e-6, 40), seed=6)
        self._assert_matches_oracle(Z, ratio * np.linalg.norm(Z, 2))
        assert len(svd_calls) == gesdd_calls + 1  # plus the oracle's own SVD

    @pytest.mark.parametrize("shape", [(160, 160), (160, 40), (40, 160), (3, 7)])
    def test_zero_theta_skips_eigh(self, eigh_calls, svd_calls, shape):
        # sigma_1^2 >= trace / k puts theta = 0 below the floor before the
        # Gram matrix is decomposed: one gesdd, no eigh
        Z = np.random.default_rng(8).standard_normal(shape)
        X, sv = _svd_soft(Z, 0.0)
        assert eigh_calls == [] and len(svd_calls) == 1
        assert np.max(np.abs(X - Z)) <= 1e-12 * np.linalg.norm(Z)
        assert sv.sum() == pytest.approx(np.linalg.norm(Z, "nuc"), rel=1e-12)

    @pytest.mark.parametrize("shape", [(160, 160), (160, 40), (40, 160), (3, 7)])
    def test_gram_path_decomposes_once(self, eigh_calls, svd_calls, shape):
        # the positive control of the test above: at a threshold above the
        # floor the one decomposition is the k x k Gram matrix's, k the
        # smaller side, and no gesdd runs
        Z = np.random.default_rng(8).standard_normal(shape)
        k = min(shape)
        self._assert_matches_oracle(Z, 0.1 * np.linalg.norm(Z, 2))
        assert eigh_calls == [(k, k)] and len(svd_calls) == 1  # the oracle's own SVD

    @pytest.mark.parametrize("workload", sorted(BENCH_CONFIGS))
    def test_bench_workload_matches_the_oracle(self, monkeypatch, solves, workload):
        # Each ball solve decomposes Q's Gram matrix once for its start, then
        # takes one soft-threshold per step, each by its own Gram matrix, and
        # at most one exact operator norm per step; none of these solves
        # needs the masked repair and its values-only SVD.  The one-bit solve
        # takes one soft-threshold per step, the first (of zero) by gesdd.
        # Every other soft-threshold takes the Gram path.
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

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        monkeypatch.setattr(quantmc.solvers, "_svd_soft", recording("soft", svd_soft))
        monkeypatch.setattr(quantmc.solvers, "_eigh", recording("eigh", eigh))
        monkeypatch.setattr(quantmc.solvers, "_op_norm", recording("op", op_norm))
        for name in ("solve_quantized_mc", "solve_one_bit_mc"):
            monkeypatch.setattr(quantmc.harness, name, recording("solve", getattr(quantmc.harness, name)))
        cfg = quantmc.harness.ExperimentConfig(trials=1, base_seed=100000, **BENCH_CONFIGS[workload])
        records, _ = quantmc.harness.run_experiment(cfg)
        runs = " ".join(events).split("solve")[1:]
        assert len(runs) == len(solves) > 0
        for rep, run in zip(solves, runs):
            if workload == "onebit_known":
                assert run.split() == ["soft", "gesdd"] + ["soft", "eigh"] * (rep.iterations - 1)
            else:
                start, *steps = run.split("soft")
                assert start.split() == ["eigh"] and len(steps) == rep.iterations
                assert all(step.split() in (["eigh"], ["eigh", "op"]) for step in steps)
        monkeypatch.setattr(quantmc.solvers, "_svd_soft", _gesdd_soft)
        monkeypatch.setattr(quantmc.solvers, "_gram_soft", lambda Z, eig, theta: None)
        monkeypatch.setattr(quantmc.solvers, "_op_norm", lambda M: np.linalg.norm(M, 2))
        solves.clear()
        oracle_records, _ = quantmc.harness.run_experiment(cfg)
        assert len(solves) == len(runs)
        assert len(records) == len(oracle_records) > 0
        for rec, ref in zip(records, oracle_records):
            assert (rec.iterations, rec.converged) == (ref.iterations, ref.converged)
            assert rec.iterations > 0
            assert rec.err_fro == pytest.approx(ref.err_fro, rel=1e-9)


def _grams():
    """Gram matrices A^T A of the sizes and structures the kernel meets."""
    rng = np.random.default_rng(9)
    grams = {}
    for k in (1, 2, 32, 128):
        A = rng.standard_normal((k + 5, k))
        grams[f"{k}x{k}"] = A.T @ A
    wide = rng.standard_normal((3, 7))
    grams["3x3 of a wide 3x7"] = wide @ wide.T
    low = rng.standard_normal((40, 4)) @ rng.standard_normal((4, 30))
    grams["rank-deficient 30x30"] = low.T @ low
    repeated = _with_spectrum((40, 30), [5.0, 3.0, 3.0, 3.0, 1.0], seed=4)
    grams["repeated eigenvalue 30x30"] = repeated.T @ repeated
    return grams


GRAMS = _grams()


class TestEigh:
    """``_eigh`` is numpy's own syevd call, without the wrapper."""

    @pytest.mark.parametrize("name", list(GRAMS))
    def test_bitwise_equal_to_numpy(self, name):
        gram = GRAMS[name]
        lam, V = quantmc.solvers._eigh(gram)
        lam_ref, V_ref = np.linalg.eigh(gram)
        assert lam.dtype == V.dtype == np.float64
        assert np.array_equal(lam, lam_ref) and np.array_equal(V, V_ref)

    @pytest.mark.parametrize("full", [False, True])
    def test_nan_raises_linalg_error_without_a_warning(self, full):
        # the Gram of a Z with one NaN entry, or a Gram of NaNs: LAPACK does
        # not converge, np.linalg.eigh raises, and so must _eigh, with the
        # error state that turns the flag into the error instead of a warning
        Z = np.random.default_rng(10).standard_normal((9, 4))
        Z[2, 1] = np.nan
        gram = np.full((3, 3), np.nan) if full else Z.T @ Z
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.eigh(gram)
            with pytest.raises(np.linalg.LinAlgError):
                quantmc.solvers._eigh(gram)


def _op_norm_cases():
    rng = np.random.default_rng(11)
    Q, mask, radius = _stress_problem(0)
    answer = solve_quantized_mc(Q, mask, radius).matrix
    return {
        "tall": rng.standard_normal((40, 7)),
        "wide": rng.standard_normal((7, 40)),
        "rank-1": np.outer(rng.standard_normal(30), rng.standard_normal(20)),
        "masked residual": project(answer - Q, mask),
        "gram below its floor": 1e-160 * rng.standard_normal((9, 5)),
    }


class TestOpNorm:
    """``_op_norm`` against gesdd's largest singular value."""

    @pytest.mark.parametrize("name", ["tall", "wide", "rank-1", "masked residual", "gram below its floor"])
    def test_matches_gesdd(self, name):
        M = _op_norm_cases()[name]
        assert quantmc.solvers._op_norm(M) == pytest.approx(np.linalg.norm(M, 2), rel=1e-12)

    @pytest.mark.parametrize("shape", [(6, 4), (4, 6)])
    def test_zero_matrix(self, shape):
        assert quantmc.solvers._op_norm(np.zeros(shape)) == 0.0


class TestFistaRestart:
    """Gradient restart in ``_fista``, driven by a scripted step."""

    @staticmethod
    def _drive(z0, points):
        """Run _fista through the given iterates; returns the (w, z) each step received."""
        calls = []

        def step(w, z):
            calls.append((w, z))
            return points[len(calls) - 1], False, None

        _fista(step, z0, len(points))
        return calls

    @pytest.mark.parametrize("seed", range(4))
    def test_never_writes_into_its_arguments(self, seed):
        # the loop reuses buffers; none may be an array a step saw or gave
        rng = np.random.default_rng(seed)
        z0 = rng.standard_normal((4, 3))
        z0_before = z0.copy()
        seen = []

        def step(w, z):
            z_next = z + rng.standard_normal((4, 3))
            seen.extend((a, a.copy()) for a in (w, z, z_next))
            return z_next, False, None

        _fista(step, z0, 12)
        assert len(seen) == 36
        for a, before in seen:
            np.testing.assert_array_equal(a, before)
        np.testing.assert_array_equal(z0, z0_before)

    @pytest.mark.parametrize("seed", range(4))
    def test_never_fires_on_the_first_step(self, inner_products, seed):
        # the first step extrapolates from nothing, w = z0, so its inner
        # product is -||z1 - z0||^2, from a zero or a warm start alike
        rng = np.random.default_rng(seed)
        z0 = np.zeros((4, 3)) if seed == 0 else 10.0 ** (seed - 2) * rng.standard_normal((4, 3))
        points = [z0 + rng.standard_normal((4, 3)) for _ in range(3)]
        calls = self._drive(z0, points)
        assert calls[0][0] is z0 and calls[0][1] is z0
        assert inner_products[0] == pytest.approx(-np.linalg.norm(points[0] - z0) ** 2, rel=1e-12)
        assert inner_products[0] < 0

    # Two steps along d, then a third that is short enough for the momentum
    # to overshoot it (restart), a step back to z1 or a stall (no restart:
    # the inner product is negative or zero), then a fourth along d.
    @pytest.mark.parametrize("third, restarts", [(0.01, True), (-1.0, False), (0.0, False)])
    def test_momentum_after_the_third_step(self, third, restarts):
        z0 = np.array([0.5, -1.0, 2.0])
        d = np.array([1.0, 2.0, -1.0])
        points = [z0 + d, z0 + 2.0 * d, z0 + (2.0 + third) * d, z0 + 3.0 * d, z0]
        calls = self._drive(z0, points)
        (w3, z2), (w4, z3), (w5, z4) = calls[2:5]

        def next_t(t):
            return 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))

        t2 = next_t(1.0)
        t3 = next_t(t2)
        np.testing.assert_allclose(w3, z2 + ((t2 - 1.0) / t3) * d, rtol=1e-15)
        assert (np.vdot(w3 - z3, z3 - z2) > 0) == restarts
        if restarts:
            np.testing.assert_array_equal(w4, z3)
            t3 = 1.0
        t4 = next_t(t3)
        np.testing.assert_allclose(w4, z3 + ((t3 - 1.0) / t4) * (z3 - z2), rtol=1e-15)
        # the fourth step moves along d from w4 and restarts nothing
        np.testing.assert_allclose(w5, z4 + ((t4 - 1.0) / next_t(t4)) * (z4 - z3), rtol=1e-15)


# Most iterations the first solve of each bench workload may take at trial
# base_seed 100000.  FISTA without the restart took 223 on onebit_known; the
# mu search it once ran for the ball took 139 and 1019, the primal-dual loop
# 16 and 20 with its step's dual point alone, and it takes 11 and 15 with
# the answer's residual point as well.
ITERATION_LIMITS = {"large_n": 15, "rate_sweep": 20, "onebit_known": 150}


@pytest.mark.parametrize("workload", sorted(BENCH_CONFIGS))
def test_bench_workload_iterations(solves, workload):
    cfg = quantmc.harness.ExperimentConfig(trials=1, base_seed=100000, **BENCH_CONFIGS[workload])
    quantmc.harness.run_experiment(cfg)
    assert len(solves) > 0 and all(rep.converged for rep in solves)
    assert solves[0].iterations <= ITERATION_LIMITS[workload]


# Most steps of the ball solver over the first trial of seeds 2-11
# (base_seed s * 100000): the last mu search took 203 and 1888, the
# primal-dual loop 162 and 592 with its step's dual point alone, and it
# takes 120 and 413 with the answer's residual point and the ray repair.
BALL_ITERATION_LIMITS = {"large_n": 130, "rate_sweep": 440}


@pytest.mark.parametrize("workload", sorted(BALL_ITERATION_LIMITS))
def test_bench_workload_ball_iterations(solves, workload):
    for seed in range(2, 12):
        cfg = quantmc.harness.ExperimentConfig(trials=1, base_seed=seed * 100000, **BENCH_CONFIGS[workload])
        quantmc.harness.run_experiment(cfg)
    assert len(solves) >= 10 and all(rep.converged for rep in solves)
    assert sum(rep.iterations for rep in solves) <= BALL_ITERATION_LIMITS[workload]


class TestClippedStep:
    """``_clipped_step``, the spectral step of the one-bit dual: _STEP_SAFETY
    times the quotient, clipped to [1, s_max]."""

    # (num, den, s_max, safety, step): the one-bit dual passes the short
    # Barzilai-Borwein quotient <dw, -dx> / ||dx||^2 with s_max 3; the clip
    # is checked at s_max 2 as well.  The factor is the module's
    # _STEP_SAFETY, set here to each value listed: the factors the spectral
    # steps once took (0.9 and 1.0) and the one it takes now.
    CLIPPED = [
        (1.0, 1.0, 2.0, 0.9, 1.0),
        (1.5, 1.0, 2.0, 0.9, 1.35),
        (4.0, 2.0, 2.0, 0.9, 1.8),
        (50.0, 1.0, 2.0, 0.9, 2.0),
        (2.0, 1.0, _STEP_MAX, 1.0, 2.0),
        (1.25, 1.0, _STEP_MAX, 1.0, 1.25),
        (10.0, 1.0, _STEP_MAX, 1.0, _STEP_MAX),
        (0.5, 1.0, _STEP_MAX, 1.0, 1.0),
        (1.25, 1.0, 2.0, _STEP_SAFETY, 1.0),
        (2.0, 1.0, 2.0, _STEP_SAFETY, 1.4),
        (4.0, 2.0, _STEP_MAX, _STEP_SAFETY, 1.4),
        (4.0, 1.0, 2.0, _STEP_SAFETY, 2.0),
        (4.0, 1.0, _STEP_MAX, _STEP_SAFETY, 2.8),
        (5.0, 1.0, _STEP_MAX, _STEP_SAFETY, _STEP_MAX),
    ]
    # quotients that are not positive and finite give the 1/L step
    UNIT = [
        (0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (-1.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.nan),
        (math.inf, 1.0), (math.inf, math.inf), (1e300, 1e-300),
    ]

    @pytest.mark.parametrize(
        "num, den, s_max, safety, expected",
        CLIPPED
        + [
            (num, den, s_max, safety, 1.0)
            for num, den in UNIT
            for s_max, safety in ((2.0, 0.9), (3.0, 1.0), (2.0, _STEP_SAFETY), (3.0, _STEP_SAFETY))
        ],
    )
    def test_clipped_quotient(self, monkeypatch, num, den, s_max, safety, expected):
        assert _STEP_MAX == 3.0 and _STEP_SAFETY == 0.7
        monkeypatch.setattr(quantmc.solvers, "_STEP_SAFETY", safety)
        assert _clipped_step(num, den, s_max) == pytest.approx(expected, rel=1e-15)


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


def _certified(Q, mask, radius, params=None):
    """Solve the ball program and recompute the answer's certificate from
    the inputs and outputs of the loop alone, with every norm taken by
    gesdd or np.linalg.norm.

    Two dual points are tried, and the one with the smaller gap is kept.
    The first is the step's own: the last step took Xn = SVT_tau(Z) with
    Z = X - tau P^* y, X the previous soft-threshold's output, so
    y = P(X - Z) / tau and the point is y / (1 + ||X - Xn||_F / tau).  It
    needs two soft-thresholds; a solve of one step has only its step's.
    The second is the answer's own residual f = P(answer) - q, as
    f / ||P^* f||_op.  Returns (report, nuclear norm and residual of the
    answer, ||P^* y||_op of the kept point y, gap ||answer||_* + <y, q> +
    radius ||y||).
    """
    calls = []  # (Z, theta, output) of each soft-threshold
    svd_soft = quantmc.solvers._svd_soft

    def recording(Z, theta):
        out = svd_soft(Z, theta)
        calls.append((Z.copy(), theta, out[0]))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quantmc.solvers, "_svd_soft", recording)
        rep = solve_quantized_mc(Q, mask, radius, params)
    q = Q[mask.rows, mask.cols]
    nuclear = np.linalg.norm(rep.matrix, "nuc")
    f = rep.matrix[mask.rows, mask.cols] - q
    residual = np.linalg.norm(f)
    points = [f / np.linalg.norm(scatter_vector(f, mask), 2)]
    if len(calls) >= 2:
        (_, _, X), (Z, tau, Xn) = calls[-2:]
        y = (X - Z)[mask.rows, mask.cols] / tau
        points.append(y / (1.0 + np.linalg.norm(X - Xn) / tau))
    gaps = [nuclear + y @ q + radius * np.linalg.norm(y) for y in points]
    k = int(np.argmin(gaps))
    return rep, nuclear, residual, np.linalg.norm(scatter_vector(points[k], mask), 2), gaps[k]


class TestSolveQuantizedMC:
    # Most iterations over the 150 problems of _stress_problem at the default
    # ProxParams: the last mu search took 86891, the primal-dual loop 4024
    # with its step's dual point alone, and it takes 4011 with both.
    STRESS_ITERATION_LIMIT = 4200

    def test_stress_set_converges(self):
        params = ProxParams()
        total, missed = 0, []
        for k in range(150):
            Q, mask, radius = _stress_problem(k)
            rep = solve_quantized_mc(Q, mask, radius, params)
            total += rep.iterations
            if not (rep.converged and rep.data_residual <= radius * (1.0 + params.tol_feas)):
                missed.append(k)
        assert missed == []
        assert total <= self.STRESS_ITERATION_LIMIT

    @pytest.mark.parametrize("k", range(150))
    def test_stress_answer_carries_its_certificate(self, k):
        Q, mask, radius = _stress_problem(k)
        params = ProxParams()
        rep, nuclear, residual, op, gap = _certified(Q, mask, radius, params)
        assert rep.converged and residual <= radius * (1.0 + params.tol_feas)
        assert op <= 1.0 + 1e-9 and gap <= _BALL_GAP * nuclear

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

    @pytest.mark.parametrize("share", [0.3, 0.6, 0.9])
    def test_full_mask_start_is_the_solution(self, share):
        # On a full mask the start, SVT_mu(Q) with Q's Pareto residual at mu
        # equal to the radius, solves the program, and y = (P(X) - q) / mu is
        # its multiplier: the first step returns the same pair and certifies
        # it.
        gt = generate_low_rank((30, 30), 3, 1.0, seed=2)
        mask = sample_mask_uniform((30, 30), 900, seed=102)
        noise = 0.1 * np.random.default_rng(2).standard_normal((30, 30))
        Q = project(gt + noise, mask)
        radius = share * float(np.linalg.norm(Q))
        rep = solve_quantized_mc(Q, mask, radius, ProxParams())
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
        rep = solve_quantized_mc(Q, mask, 9e-7, ProxParams(tol_rel_change=1e-10))
        assert np.linalg.norm(rep.matrix - gt) <= 1e-6
        assert rep.converged

    def test_large_radius_returns_zero(self):
        gt = generate_low_rank((6, 6), 2, 1.0, seed=5)
        mask = sample_mask_uniform((6, 6), 20, seed=6)
        Q = project(gt, mask)
        rep = solve_quantized_mc(Q, mask, np.linalg.norm(Q) + 1.0, ProxParams())
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
        params = ProxParams(tol_rel_change=1e-9)
        radius = 0.8 * float(np.linalg.norm(Q[mask.rows, mask.cols]))
        rep = solve_quantized_mc(Q, mask, radius, params)
        if rep.converged:
            assert rep.data_residual <= radius * (1 + params.tol_feas)

    def test_recovery_close_to_truth_with_oracle_radius(self):
        gt = generate_low_rank((16, 16), 2, 1.0, seed=10)
        mask = sample_mask_uniform((16, 16), 180, seed=11)
        Q = quantize_matrix(gt, mask, QuantizerSpec(0.1, 40), DitherSpec.uniform(0.05), seed=12)
        radius = float(np.linalg.norm((gt - Q)[mask.rows, mask.cols]))
        rep = solve_quantized_mc(Q, mask, radius, ProxParams(tol_rel_change=1e-8))
        assert rep.converged
        assert np.linalg.norm(rep.matrix - gt) <= 0.25 * np.linalg.norm(gt)

    def test_minimality_when_truth_is_feasible(self):
        # convexity: the returned nuclear norm cannot beat the truth's by
        # more than solver slack when the truth is strictly inside the ball
        gt = generate_low_rank((10, 10), 2, 1.0, seed=13)
        mask = sample_mask_uniform((10, 10), 70, seed=14)
        Q = quantize_matrix(gt, mask, QuantizerSpec(0.2, 12), DitherSpec.uniform(0.1), seed=15)
        true_resid = float(np.linalg.norm((gt - Q)[mask.rows, mask.cols]))
        rep = solve_quantized_mc(Q, mask, 1.3 * true_resid, ProxParams(tol_rel_change=1e-9))
        assert rep.nuclear_norm <= np.linalg.norm(gt, "nuc") + 1e-6

    def test_nuclear_norm_shrinks_as_radius_grows(self):
        gt = generate_low_rank((10, 10), 2, 1.0, seed=16)
        mask = sample_mask_uniform((10, 10), 60, seed=17)
        Q = project(gt, mask)
        qnorm = float(np.linalg.norm(Q))
        norms = []
        for radius in (0.05 * qnorm, 0.2 * qnorm, 0.8 * qnorm, 1.2 * qnorm):
            rep = solve_quantized_mc(Q, mask, radius, ProxParams(tol_rel_change=1e-9))
            norms.append(rep.nuclear_norm)
        assert all(a >= b - 1e-9 for a, b in zip(norms, norms[1:]))

    def test_budget_exhaustion_reports_not_converged(self):
        gt = generate_low_rank((10, 10), 3, 1.0, seed=18)
        mask = sample_mask_uniform((10, 10), 55, seed=19)
        Q = project(gt, mask)
        rep = solve_quantized_mc(Q, mask, 1e-8, ProxParams(max_iters=3))
        assert not rep.converged
        assert rep.iterations <= 3

    @pytest.mark.parametrize("radius", [1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12])
    def test_tiny_radius_converges(self, radius):
        # On the inputs of test_budget_exhaustion_reports_not_converged, each
        # radius is certified in 58 steps, 60 at 1e-12, by the masked repair
        # (the ray misses the ball); at 1e-12 the rescaled iterate first
        # rounds to a point outside the ball, and the loop goes on until a
        # rescaled iterate lies inside.
        gt = generate_low_rank((10, 10), 3, 1.0, seed=18)
        mask = sample_mask_uniform((10, 10), 55, seed=19)
        params = ProxParams()
        rep, nuclear, residual, op, gap = _certified(project(gt, mask), mask, radius, params)
        assert rep.converged and rep.iterations <= 70
        assert residual <= radius * (1.0 + params.tol_feas)
        assert op <= 1.0 + 1e-9 and gap <= _BALL_GAP * nuclear

    def test_ray_repair_keeps_the_iterate(self, last_soft):
        # The last iterate of the large_n solve at base_seed 200000 lies
        # outside the ball, and the line through it meets the ball: the
        # answer is that iterate scaled onto the sphere.
        ((Q, mask, radius),) = TestBallOracle._problems("large_n-2")
        params = ProxParams()
        rep = solve_quantized_mc(Q, mask, radius, params)
        X, sv = last_soft
        t = np.vdot(rep.matrix, X) / np.vdot(X, X)
        assert rep.converged and t != pytest.approx(1.0, abs=1e-6)
        assert np.max(np.abs(rep.matrix - t * X)) <= 1e-14 * np.abs(X).max()
        assert np.linalg.matrix_rank(rep.matrix) <= len(sv)
        residual = np.linalg.norm(rep.matrix[mask.rows, mask.cols] - Q[mask.rows, mask.cols])
        assert radius * (1.0 - 1e-12) <= residual <= radius * (1.0 + params.tol_feas)
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
        params = ProxParams()
        rep, nuclear, residual, op, gap = _certified(Q, mask, radius, params)
        X = last_soft[0]
        r = X[mask.rows, mask.cols] - q
        assert quantmc.solvers._ray(X[mask.rows, mask.cols], r, np.linalg.norm(r), radius) == 0.0
        assert np.array_equal(rep.matrix - project(rep.matrix, mask), X - project(X, mask))
        f = rep.matrix[mask.rows, mask.cols] - q
        assert np.max(np.abs(f - (radius / np.linalg.norm(r)) * r)) <= 1e-6 * radius
        assert rep.converged and residual <= radius * (1.0 + params.tol_feas)
        assert op <= 1.0 + 1e-9 and gap <= _BALL_GAP * nuclear

    @pytest.mark.parametrize("radius", [1e-2, 1e-4, 1e-8])
    @pytest.mark.parametrize("max_iters", [1, 3, 10, 20000])
    def test_every_answer_is_feasible(self, radius, max_iters):
        # converged or cut short by the budget, the answer lies in the ball,
        # and its reported residual and nuclear norm are its own
        gt = generate_low_rank((10, 10), 3, 1.0, seed=18)
        mask = sample_mask_uniform((10, 10), 55, seed=19)
        Q = project(gt, mask)
        params = ProxParams(max_iters=max_iters)
        rep = solve_quantized_mc(Q, mask, radius, params)
        assert rep.converged or rep.iterations == max_iters
        residual = np.linalg.norm(rep.matrix[mask.rows, mask.cols] - Q[mask.rows, mask.cols])
        assert rep.data_residual == pytest.approx(residual, rel=1e-12)
        assert residual <= radius * (1.0 + params.tol_feas)
        assert rep.nuclear_norm == pytest.approx(np.linalg.norm(rep.matrix, "nuc"), rel=1e-9)

    def test_radius_near_exact_completion_is_certified(self):
        # A partial mask admits exact completion, so every radius is
        # feasible, 1e-12 included.
        gt = generate_low_rank((10, 10), 3, 1.0, seed=40)
        mask = sample_mask_uniform((10, 10), 55, seed=41)
        rep, nuclear, residual, op, gap = _certified(project(gt, mask), mask, 1e-12)
        assert rep.converged
        assert residual <= 1e-12 * (1.0 + ProxParams().tol_feas)
        assert op <= 1.0 + 1e-9 and gap <= _BALL_GAP * nuclear

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

            def recording(Q, mask, radius, params=None):
                problems.append((Q, mask, radius))
                return solve(Q, mask, radius, params)

            mp.setattr(quantmc.harness, "solve_quantized_mc", recording)
            cfg = quantmc.harness.ExperimentConfig(trials=1, base_seed=int(k) * 100000, **BENCH_CONFIGS[kind])
            quantmc.harness.run_experiment(cfg)
        return problems

    # The mu search that the loop replaced returned 4.3 times the minimum
    # on stress problem 104 and 1.8 times on problem 53.
    @pytest.mark.parametrize(
        "name", ["large_n-2", "large_n-3", "rate_sweep-2", "rate_sweep-3", "stress-53", "stress-104"]
    )
    def test_within_the_gap_of_the_minimum(self, name):
        params = ProxParams()
        problems = self._problems(name)
        assert len(problems) in (1, 4)
        for Q, mask, radius in problems:
            rep, nuclear, residual, op, gap = _certified(Q, mask, radius, params)
            assert rep.converged and residual <= radius * (1.0 + params.tol_feas)
            assert op <= 1.0 + 1e-9 and gap <= _BALL_GAP * nuclear
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(quantmc.solvers, "_BALL_GAP", 1e-9)
                ref, ref_nuclear, ref_residual, ref_op, ref_gap = _certified(Q, mask, radius, params)
            assert ref.converged and ref_residual <= radius * (1.0 + params.tol_feas)
            assert ref_op <= 1.0 + 1e-9 and ref_gap <= 1e-9 * ref_nuclear + 1e-12 * ref_nuclear
            assert nuclear <= 1.01 * ref_nuclear


class TestSolveOneBitMC:
    def test_single_constraint_scalar(self):
        mask = SampleMask((1, 1), [0], [0])
        system = OneBitObservation(np.array([[1]]), np.array([[0.5]]), mask)
        rep = solve_one_bit_mc(system, 0.0, ProxParams(tol_feas=1e-9, tol_rel_change=1e-12))
        assert abs(rep.matrix[0, 0] - 0.5) <= 1e-6
        assert rep.converged and rep.data_residual == 0.0

    def test_vacuous_constraints_give_zero(self):
        mask = sample_mask_uniform((4, 4), 8, seed=0)
        system = OneBitObservation(np.ones((3, 8), dtype=int), np.full((3, 8), -1e10), mask)
        rep = solve_one_bit_mc(system, 10.0, ProxParams())
        assert np.all(rep.matrix == 0.0) and rep.converged

    def test_negative_reg_weight_rejected(self):
        mask = SampleMask((1, 1), [0], [0])
        system = OneBitObservation(np.array([[1]]), np.array([[0.0]]), mask)
        with pytest.raises(ValueError):
            solve_one_bit_mc(system, -1.0)

    @pytest.mark.parametrize("reg_weight", [math.nan, math.inf])
    def test_non_finite_reg_weight_rejected(self, reg_weight):
        # a NaN weight failed inside LAPACK; an infinite one ran the whole
        # budget on a NaN objective
        mask = SampleMask((1, 1), [0], [0])
        system = OneBitObservation(np.array([[1]]), np.array([[0.0]]), mask)
        with pytest.raises(ValueError, match="reg_weight"):
            solve_one_bit_mc(system, reg_weight)

    def test_consistent_recovery_mid_size(self):
        gt = generate_low_rank((12, 12), 2, 1.0, seed=20)
        mask = sample_mask_uniform((12, 12), 80, seed=21)
        thr = generate_dither_tensor(DitherSpec.uniform(1.0), 10, 80, seed=22)
        obs = observe_one_bit(gt, mask, thr)
        system = build_polyhedron(obs)
        rep = solve_one_bit_mc(system, 1.0, ProxParams(tol_feas=1e-9, tol_rel_change=1e-9))
        assert rep.converged and rep.data_residual == 0.0
        assert consistency_report(rep.matrix, obs, gt) == 0

    def test_zero_reg_weight_matches_closed_form(self, eigh_calls):
        # without the nuclear term the program separates per entry: the
        # minimum-norm point of the shrunk box on the mask, zero elsewhere
        gt = generate_low_rank((12, 12), 2, 1.0, seed=23)
        mask = sample_mask_uniform((12, 12), 80, seed=24)
        thr = generate_dither_tensor(DitherSpec.uniform(1.0), 10, 80, seed=25)
        system = build_polyhedron(observe_one_bit(gt, mask, thr))
        lo, hi = feasible_intervals(system)
        gamma = np.minimum(_FEAS_MARGIN, 0.25 * (hi - lo))
        expected = np.zeros((12, 12))
        expected[mask.rows, mask.cols] = np.clip(0.0, lo + gamma, hi - gamma)
        assert np.count_nonzero(expected) > 10
        rep = solve_one_bit_mc(system, 0.0, ProxParams(tol_feas=1e-9, tol_rel_change=1e-9))
        assert rep.converged and rep.data_residual == 0.0
        assert np.max(np.abs(rep.matrix - expected)) <= 1e-6
        # every soft-threshold at theta = 0 goes straight to gesdd
        assert eigh_calls == []

    def test_no_feasible_perturbation_improves_objective(self):
        gt = generate_low_rank((8, 8), 2, 1.0, seed=23)
        mask = sample_mask_uniform((8, 8), 30, seed=24)
        thr = generate_dither_tensor(DitherSpec.uniform(1.0), 6, 30, seed=25)
        system = build_polyhedron(observe_one_bit(gt, mask, thr))
        reg = 1.0
        rep = solve_one_bit_mc(system, reg, ProxParams(tol_feas=1e-9, tol_rel_change=1e-9))
        assert rep.converged
        assert rep.stage_objectives == (rep.objective,)
        lo, hi = feasible_intervals(system)
        gamma = np.minimum(_FEAS_MARGIN, 0.25 * (hi - lo))

        def objective(X):
            return reg * np.linalg.norm(X, "nuc") + 0.5 * np.linalg.norm(X) ** 2

        base = objective(rep.matrix)
        rng = np.random.default_rng(26)
        for _ in range(2000):
            Z = rep.matrix + 10.0 ** rng.uniform(-6, -1) * rng.standard_normal((8, 8))
            Z[mask.rows, mask.cols] = np.clip(Z[mask.rows, mask.cols], lo + gamma, hi - gamma)
            assert objective(Z) >= base - 1e-9 * (1.0 + abs(base))

    def test_minimality_against_feasible_truth(self):
        gt = generate_low_rank((10, 10), 2, 1.0, seed=26)
        mask = sample_mask_uniform((10, 10), 50, seed=27)
        thr = generate_dither_tensor(DitherSpec.uniform(1.0), 8, 50, seed=28)
        system = build_polyhedron(observe_one_bit(gt, mask, thr))
        reg = 1.0
        rep = solve_one_bit_mc(system, reg, ProxParams(tol_feas=1e-9, tol_rel_change=1e-9))
        truth_objective = reg * np.linalg.norm(gt, "nuc") + 0.5 * np.linalg.norm(gt) ** 2
        assert rep.objective <= truth_objective + 1e-6

    @pytest.mark.parametrize("problem", ["onebit_known", "unbounded_side"])
    def test_stop_gap_is_the_duality_gap_at_w(self, monkeypatch, problem):
        # At the stopping step the Fenchel-Young gap sigma_B(w) - <w, x> that
        # _box_gap takes from the step's own primal equals P(X) - D(w), with
        # D(w) = -1/2 ||SVT_reg(-P^* w)||_F^2 - sigma_B(w) from a gesdd SVD
        gaps, solves = [], []
        box_gap, solve = quantmc.solvers._box_gap, quantmc.solvers.solve_one_bit_mc

        def recording_gap(w, x, box_lo, box_hi):
            gaps.append((w.copy(), x.copy(), box_gap(w, x, box_lo, box_hi)))
            return gaps[-1][2]

        def recording_solve(system, reg_weight, params=None):
            solves.append((system, reg_weight, params, solve(system, reg_weight, params)))
            return solves[-1][3]

        monkeypatch.setattr(quantmc.solvers, "_box_gap", recording_gap)
        if problem == "onebit_known":
            monkeypatch.setattr(quantmc.harness, "solve_one_bit_mc", recording_solve)
            cfg = quantmc.harness.ExperimentConfig(trials=1, base_seed=100000, **BENCH_CONFIGS[problem])
            quantmc.harness.run_experiment(cfg)
        else:
            # one dither per entry: every box has exactly one unbounded side
            gt = generate_low_rank((10, 10), 2, 1.0, seed=30)
            mask = sample_mask_uniform((10, 10), 50, seed=31)
            thr = generate_dither_tensor(DitherSpec.uniform(1.0), 1, 50, seed=32)
            recording_solve(build_polyhedron(observe_one_bit(gt, mask, thr)), 1.0,
                            ProxParams(tol_feas=1e-9, tol_rel_change=1e-9))
        [(system, reg, params, rep)] = solves
        assert rep.converged and rep.iterations > 1
        lo, hi = feasible_intervals(system)
        gamma = np.minimum(_FEAS_MARGIN, 0.25 * (hi - lo))
        box_lo, box_hi = lo + gamma, hi - gamma
        assert np.any(np.isinf(box_lo) | np.isinf(box_hi))
        if problem == "unbounded_side":
            assert np.all(np.isinf(box_lo) != np.isinf(box_hi))
        w, x, gap = gaps[-1]
        np.testing.assert_array_equal(x, rep.matrix[system.mask.rows, system.mask.cols])
        # w is the point whose soft-threshold gave x
        X_w, sv = _gesdd_soft(scatter_vector(-w, system.mask), reg)
        np.testing.assert_allclose(X_w[system.mask.rows, system.mask.cols], x, rtol=0.0, atol=1e-10)
        up, down = w > 0, w < 0
        support = w[up] @ box_hi[up] + w[down] @ box_lo[down]
        dual = -0.5 * sv @ sv - support
        scale = max(1.0, abs(rep.objective))
        assert abs(gap - (rep.objective - dual)) <= 1e-9 * scale
        assert gap <= params.tol_rel_change * scale
        # where w puts weight on an unbounded side, sigma_B(w) and the gap are +inf
        one = np.array([1.0])
        assert _box_gap(one, one, -one, np.array([math.inf])) == math.inf
        assert _box_gap(-one, one, np.array([-math.inf]), one) == math.inf
        assert _box_gap(0.0 * one, one, np.array([-math.inf]), np.array([math.inf])) == 0.0

    def test_stop_certifies_against_the_sign_box(self, monkeypatch):
        # The stop bounds the gap against the shrunk box; X is feasible for
        # the sign box [lo, hi] itself, and the Fenchel-Young gap against it,
        # sigma_[lo, hi](w) - <w, x>, is the shrunk-box gap plus
        # sum_k gamma_k |w_k|.  Weak duality puts OPT_box between
        # D_box(w) = P(X) - that gap and P(X), so P(X) - OPT_box <=
        # tol * max(1, |P(X)|) + sum_k gamma_k |w_k|.
        gaps = []
        box_gap = quantmc.solvers._box_gap

        def recording(w, x, box_lo, box_hi):
            gaps.append((w.copy(), x.copy(), box_gap(w, x, box_lo, box_hi)))
            return gaps[-1][2]

        solves = []
        solve = quantmc.solvers.solve_one_bit_mc

        def recording_solve(system, reg_weight, params=None):
            solves.append((system, solve(system, reg_weight, params)))
            return solves[-1][1]

        monkeypatch.setattr(quantmc.solvers, "_box_gap", recording)
        monkeypatch.setattr(quantmc.harness, "solve_one_bit_mc", recording_solve)
        cfg = quantmc.harness.ExperimentConfig(trials=1, base_seed=100000, **BENCH_CONFIGS["onebit_known"])
        quantmc.harness.run_experiment(cfg)
        [(system, rep)] = solves
        assert rep.converged and rep.data_residual == 0.0
        lo, hi = feasible_intervals(system)
        gamma = np.minimum(_FEAS_MARGIN, 0.25 * (hi - lo))
        w, x, shrunk_gap = gaps[-1]
        assert np.all((lo <= x) & (x < hi))
        up, down = w > 0.0, w < 0.0
        sign_box_gap = float(w[up] @ (hi[up] - x[up]) + w[down] @ (lo[down] - x[down]))
        margin = float(gamma @ np.abs(w))
        scale = max(1.0, abs(rep.objective))
        assert math.isfinite(sign_box_gap) and margin > 0.0
        assert sign_box_gap == pytest.approx(shrunk_gap + margin, rel=1e-12, abs=1e-12 * scale)
        assert sign_box_gap <= cfg.tol_rel_change * scale + margin

    def test_infeasible_system_reports_violation(self):
        # contradictory signs around one entry: x >= 1 and x <= -1
        mask = SampleMask((1, 1), [0], [0])
        system = OneBitObservation(np.array([[1], [-1]]), np.array([[1.0], [-1.0]]), mask)
        rep = solve_one_bit_mc(system, 0.0, ProxParams(max_iters=2000))
        assert not rep.converged
        assert rep.iterations == 0
        assert rep.data_residual > 0.1

    def test_empty_system_rejected(self):
        mask = SampleMask((1, 1), [0], [0])
        for thresholds in (np.zeros((0, 1)), None):
            with pytest.raises(ValueError, match="empty"):
                OneBitObservation(np.zeros((0, 1), dtype=int), thresholds, mask)


# Most iterations the one-bit solver may take over the first trial of seeds
# 2-11 (base_seed s * 100000) of the onebit_known workload; the unit step took
# 869, the spectral step at the full quotient 641 and at 0.7 of it 599.
SPECTRAL_ITERATION_LIMIT = 620


def test_bench_workload_spectral_iterations(solves):
    for seed in range(2, 12):
        cfg = quantmc.harness.ExperimentConfig(trials=1, base_seed=seed * 100000, **BENCH_CONFIGS["onebit_known"])
        records, _ = quantmc.harness.run_experiment(cfg)
        assert all(rec.zeta == 0 and rec.violation == 0.0 for rec in records)
    assert len(solves) == 10 and all(rep.converged for rep in solves)
    assert sum(rep.iterations for rep in solves) <= SPECTRAL_ITERATION_LIMIT


def _random_one_bit_problem(k):
    """A seeded one-bit system (sides 3-24, m 1-11, noise-free or sigma 0.1)
    and a reg_weight between 0.01 and 20."""
    rng = np.random.default_rng(1000 + k)
    n1, n2 = (int(v) for v in rng.integers(3, 25, size=2))
    r = int(rng.integers(1, min(n1, n2, 3) + 1))
    m = int(rng.integers(1, 12))
    m_prime = int(rng.integers(1, n1 * n2 + 1))
    reg_weight = float(10.0 ** rng.uniform(-2.0, math.log10(20.0)))
    noise_sigma = 0.1 if rng.random() < 0.5 else 0.0
    seeds = [int(v) for v in rng.integers(2**31, size=4)]
    gt = generate_low_rank((n1, n2), r, 1.0, seed=seeds[0])
    mask = sample_mask_uniform((n1, n2), m_prime, seed=seeds[1])
    thr = generate_dither_tensor(DitherSpec.uniform(1.0), m, m_prime, seed=seeds[2])
    return build_polyhedron(observe_one_bit(gt, mask, thr, noise_sigma, seeds[3])), reg_weight


class TestSpectralStep:
    """The safeguarded Barzilai-Borwein step of the one-bit dual SVT."""

    def test_first_step_is_the_unit_step(self):
        # the second primal of a solve is SVT(P^*(clip(0))): the first dual
        # step from w = 0 moved by s = 1
        gt = generate_low_rank((12, 12), 2, 1.0, seed=20)
        mask = sample_mask_uniform((12, 12), 80, seed=21)
        thr = generate_dither_tensor(DitherSpec.uniform(1.0), 10, 80, seed=22)
        system = build_polyhedron(observe_one_bit(gt, mask, thr))
        lo, hi = feasible_intervals(system)
        gamma = np.minimum(_FEAS_MARGIN, 0.25 * (hi - lo))
        W = np.zeros((12, 12))
        W[mask.rows, mask.cols] = np.clip(0.0, lo + gamma, hi - gamma)
        assert np.count_nonzero(W) > 10
        rep = solve_one_bit_mc(system, 1.0, ProxParams(max_iters=2))
        assert rep.iterations == 2 and not rep.converged
        np.testing.assert_array_equal(rep.matrix, _svd_soft(W, 1.0)[0])

    def test_every_step_in_range_on_the_bench_workload(self, monkeypatch, solves):
        steps = []  # (curvature <dw, -dx>, step)

        def recording(curvature, sq, s_max):
            assert s_max == _STEP_MAX
            steps.append((curvature, _clipped_step(curvature, sq, s_max)))
            if curvature > 0.0:
                assert steps[-1][1] == min(s_max, max(1.0, _STEP_SAFETY * (curvature / sq)))
            return steps[-1][1]

        monkeypatch.setattr(quantmc.solvers, "_clipped_step", recording)
        cfg = quantmc.harness.ExperimentConfig(trials=1, base_seed=100000, **BENCH_CONFIGS["onebit_known"])
        quantmc.harness.run_experiment(cfg)
        assert len(solves) == 1 and solves[0].converged
        # every step but the first asks for the quotient
        assert len(steps) == solves[0].iterations - 1
        assert all(1.0 <= s <= _STEP_MAX for _, s in steps)
        assert all(s == 1.0 for curvature, s in steps if curvature <= 0.0)
        assert sum(s > 1.0 for _, s in steps) > len(steps) // 2

    def test_agrees_with_the_unit_step_on_random_problems(self, monkeypatch):
        # Both stops certify P(X) <= OPT_shrunk + tol * max(1, |P(X)|), and X
        # lies in the sign box, so P(X) >= OPT_box.  Clipping the box optimum
        # X_box into the shrunk box moves it by ||gamma|| at most, to a point
        # where P has subgradients of norm <= reg * sqrt(min(n1, n2)) +
        # ||X_box||_F + ||gamma||, and ||X_box||_F <= sqrt(2 P(X)): that
        # bounds OPT_shrunk - OPT_box.
        params = ProxParams(tol_rel_change=1e-9, tol_feas=1e-9)
        iterations = [0, 0]
        converged = 0
        for k in range(48):
            system, reg = _random_one_bit_problem(k)
            monkeypatch.setattr(quantmc.solvers, "_STEP_MAX", 1.0)
            unit = solve_one_bit_mc(system, reg, params)
            monkeypatch.setattr(quantmc.solvers, "_STEP_MAX", _STEP_MAX)
            spectral = solve_one_bit_mc(system, reg, params)
            iterations[0] += unit.iterations
            iterations[1] += spectral.iterations
            if not unit.converged:
                continue
            converged += 1
            assert spectral.converged, k
            assert spectral.data_residual == 0.0, k
            lo, hi = feasible_intervals(system)
            gamma = float(np.linalg.norm(np.minimum(_FEAS_MARGIN, 0.25 * (hi - lo))))
            top = max(unit.objective, spectral.objective)
            dims = system.mask.dims
            margin = (reg * math.sqrt(min(dims.n1, dims.n2)) + math.sqrt(2.0 * top) + gamma) * gamma
            tol = params.tol_rel_change * max(1.0, top) + margin
            assert abs(unit.objective - spectral.objective) <= tol, k
        assert converged >= 40
        assert iterations[1] < iterations[0]


class TestSolveStatisticsOnly:
    """The sign-only estimator: the ball solver against the scaled-sign surrogate."""

    def _obs(self, X, mask, delta, seed):
        thr = generate_dither_tensor(DitherSpec.uniform(delta / 2), 1, mask.m_prime, seed)
        return strip_thresholds(observe_one_bit(X, mask, thr))

    @staticmethod
    def _solve(obs, delta, radius, params=None):
        return solve_quantized_mc(surrogate_data(obs, delta), obs.mask, radius, params)

    def test_all_positive_signs_large_radius_gives_zero(self):
        gt = generate_low_rank((5, 5), 1, 1.0, seed=29)
        mask = sample_mask_uniform((5, 5), 10, seed=30)
        obs = self._obs(np.abs(gt) + 2.0, mask, 2.0, 31)
        rep = self._solve(obs, 2.0, 100.0, ProxParams())
        assert np.all(rep.matrix == 0.0)

    def test_scalar_case_residual_contract(self):
        mask = SampleMask((1, 1), [0], [0])
        obs = self._obs(np.array([[0.9]]), mask, 2.0, 32)
        assert obs.signs[0, 0] in (-1, 1)
        params = ProxParams(tol_rel_change=1e-10)
        rep = self._solve(obs, 2.0, 0.1, params)
        surrogate = obs.signs[0, 0] * 1.0
        assert abs(rep.matrix[0, 0] - surrogate) <= 0.1 * (1 + params.tol_feas)

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
        rep = self._solve(obs, delta, radius, ProxParams(tol_rel_change=1e-8))
        assert rep.converged
        assert np.linalg.norm(rep.matrix - gt) <= np.linalg.norm(gt)
