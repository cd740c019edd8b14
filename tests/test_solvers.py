"""Nuclear-norm proximal operator and the two recovery solvers."""

import math

import numpy as np
import pytest

import quantmc.harness
import quantmc.solvers
from quantmc.core import SampleMask, generate_low_rank, project, sample_mask_uniform, scatter_vector
from quantmc.onebit import (
    NoiseSpec,
    PolyhedronSystem,
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
    _BALL_STEP_MAX,
    _BRACKET_MARGIN,
    _FEAS_MARGIN,
    _GRAM_FLOOR,
    _RESIDUAL_BAND,
    _STALL_GAP,
    _STEP_MAX,
    _STEP_SAFETY,
    ProxParams,
    _ball_gap,
    _box_gap,
    _clipped_step,
    _fista,
    _fista_ball,
    _svd_soft,
    _warm_start,
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


def _record_shapes(monkeypatch, name):
    """Patch np.linalg.<name> to record the shape of each matrix it is given."""
    calls = []
    fn = getattr(np.linalg, name)

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return fn(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes passed to np.linalg.svd while the test runs."""
    return _record_shapes(monkeypatch, "svd")


@pytest.fixture
def eigh_calls(monkeypatch):
    """Shapes passed to np.linalg.eigh while the test runs."""
    return _record_shapes(monkeypatch, "eigh")


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

    @pytest.mark.parametrize("workload", sorted(BENCH_CONFIGS))
    def test_bench_workload_matches_the_oracle(self, monkeypatch, svd_calls, solves, workload):
        cfg = quantmc.harness.ExperimentConfig(trials=1, base_seed=100000, **BENCH_CONFIGS[workload])
        records, _ = quantmc.harness.run_experiment(cfg)
        # every soft-threshold takes the Gram path; the one SVD per solve is
        # the ball solver's ||Q||_op, or the one-bit solver's zero first step
        assert len(svd_calls) == len(solves)
        kernel_stages = [len(rep.stage_objectives) for rep in solves]
        solves.clear()
        monkeypatch.setattr(quantmc.solvers, "_svd_soft", _gesdd_soft)
        oracle_records, _ = quantmc.harness.run_experiment(cfg)
        assert [len(rep.stage_objectives) for rep in solves] == kernel_stages and len(solves) > 0
        assert len(records) == len(oracle_records) > 0
        for rec, ref in zip(records, oracle_records):
            assert (rec.iterations, rec.converged) == (ref.iterations, ref.converged)
            assert rec.iterations > 0
            assert rec.err_fro == pytest.approx(ref.err_fro, rel=1e-9)


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

    def test_never_fires_on_the_first_step_of_a_warm_started_ball_stage(self, inner_products):
        gt = generate_low_rank((12, 10), 2, 1.0, seed=44)
        mask = sample_mask_uniform((12, 10), 70, seed=45)
        q = project(gt.matrix, mask)[mask.rows, mask.cols]
        warm = _fista_ball(q, mask, 0.5, np.zeros((12, 10)), ProxParams(), 200)[0]
        assert np.linalg.norm(warm) > 0
        inner_products.clear()
        _, iters, *_ = _fista_ball(q, mask, 0.1, warm, ProxParams(), 200)
        assert iters > 2 and inner_products[0] < 0

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
# base_seed 100000; FISTA without the restart took 139, 1019 and 223.
ITERATION_LIMITS = {"large_n": 100, "rate_sweep": 600, "onebit_known": 150}


@pytest.mark.parametrize("workload", sorted(BENCH_CONFIGS))
def test_bench_workload_iterations(solves, workload):
    cfg = quantmc.harness.ExperimentConfig(trials=1, base_seed=100000, **BENCH_CONFIGS[workload])
    quantmc.harness.run_experiment(cfg)
    assert len(solves) > 0 and all(rep.converged for rep in solves)
    assert solves[0].iterations <= ITERATION_LIMITS[workload]


# Most iterations the mu search may take at trial base_seed 100000: the
# large_n solve, and the whole first rate_sweep sweep of four solves.  Solving
# every search stage to relative change took 58 and 599.
SEARCH_ITERATION_LIMITS = {"large_n": 48, "rate_sweep": 450}


@pytest.mark.parametrize("workload", sorted(SEARCH_ITERATION_LIMITS))
def test_bench_workload_search_iterations(solves, workload):
    cfg = quantmc.harness.ExperimentConfig(trials=1, base_seed=100000, **BENCH_CONFIGS[workload])
    quantmc.harness.run_experiment(cfg)
    assert len(solves) > 0 and all(rep.converged for rep in solves)
    assert sum(rep.iterations for rep in solves) <= SEARCH_ITERATION_LIMITS[workload]


# Most iterations over the first trial of seeds 2-11 (base_seed s * 100000);
# warm starts from the nearest solved mu alone took 406 and 3416, the path
# predictor 381 and 3243.
PREDICTOR_ITERATION_LIMITS = {"large_n": 395, "rate_sweep": 3330}


@pytest.mark.parametrize("workload", sorted(PREDICTOR_ITERATION_LIMITS))
def test_bench_workload_predictor_iterations(solves, workload):
    for seed in range(2, 12):
        cfg = quantmc.harness.ExperimentConfig(trials=1, base_seed=seed * 100000, **BENCH_CONFIGS[workload])
        quantmc.harness.run_experiment(cfg)
    assert len(solves) >= 10 and all(rep.converged for rep in solves)
    assert sum(rep.iterations for rep in solves) <= PREDICTOR_ITERATION_LIMITS[workload]


# Most iterations over the same trials with the spectral step of the ball
# stages and the certified acceptance (checked with the certificate in
# TestBallGapCertificate); the unit step took 381 and 3243, the spectral
# step at 0.9 of the quotient 324 and 2713, and at 0.7 of it, with the
# in-band stop on the step's fixed-point residual, 287 and 2463.
SPECTRAL_BALL_ITERATION_LIMITS = {"large_n": 300, "rate_sweep": 2550}


class TestBallGapCertificate:
    """The bound ``_ball_gap`` puts on a mu stage's exact residual, and its use."""

    @pytest.fixture
    def gaps(self, monkeypatch):
        """(nuc, ||r||, gap, e, lam, s) of each _ball_gap call while the test
        runs, with lam = d / (mu + y_dist / s) its dual point."""
        calls = []
        ball_gap = quantmc.solvers._ball_gap

        def recording(mu, nuc, r, d, q, y_dist, s):
            gap, e = ball_gap(mu, nuc, r, d, q, y_dist, s)
            calls.append((nuc, float(np.linalg.norm(r)), gap, e, d / (mu + y_dist / s), s))
            return gap, e

        monkeypatch.setattr(quantmc.solvers, "_ball_gap", recording)
        return calls

    @pytest.mark.parametrize("seed", range(40))
    def test_gap_bounds_the_exact_residual(self, gaps, seed):
        rng = np.random.default_rng(700 + seed)
        shape = tuple(int(n) for n in rng.integers(6, 17, size=2))
        size = shape[0] * shape[1]
        mask = sample_mask_uniform(shape, int(rng.integers(size // 3, size + 1)), seed=seed)
        gt = generate_low_rank(shape, int(rng.integers(1, 4)), 1.0, seed=seed)
        Q = project(gt.matrix + 0.3 * rng.standard_normal(shape), mask)
        q = Q[mask.rows, mask.cols]
        mu = np.linalg.norm(Q, 2) * 10.0 ** rng.uniform(-3.0, 0.0)
        x0 = np.zeros(shape)
        if seed % 2:
            # warm start from a looser solve at a nearby mu, as the search does
            x0 = _fista_ball(q, mask, mu * 10.0 ** rng.uniform(-1.0, 1.0), x0, ProxParams(tol_rel_change=1e-4), 500)[0]
        _, _, ref_stop, exact, _ = _fista_ball(q, mask, mu, x0, ProxParams(tol_rel_change=1e-12), 100_000)
        assert ref_stop == "change"
        gaps.clear()
        # the exact residual lies inside this band, so a sound certificate
        # can never stop the stage, and every iterate outside it is checked
        band = (exact * (1.0 - 1e-9), exact * (1.0 + 1e-9), exact)
        _, _, stop, _, _ = _fista_ball(q, mask, mu, x0, ProxParams(tol_rel_change=1e-10), 3000, band)
        assert stop != "gap" and len(gaps) > 0
        for nuc, rnorm, gap, e, _, s in gaps:
            assert 1.0 <= s <= _BALL_STEP_MAX
            assert gap >= -1e-12 * max(1.0, nuc + rnorm * rnorm / (2.0 * mu))
            assert abs(rnorm - exact) <= e + 1e-9 * exact
        # the dual point is feasible whatever the step, ||P^* lam||_op <= 1
        # (checked on every tenth call and the last, one SVD each)
        for *_, lam, _ in gaps[::10] + gaps[-1:]:
            assert np.linalg.norm(scatter_vector(lam, mask), 2) <= 1.0 + 1e-9
        if mask.m_prime < size:
            # a partial mask leaves the curvature below 1/mu: longer steps
            assert any(s > 1.0 for *_, s in gaps)

    @pytest.mark.parametrize("mu, delta", [(0.5, 0.1), (0.5, -0.2), (0.01, 0.005), (2.0, 1.5)])
    def test_bound_is_attained_on_a_scalar_stage(self, mu, delta):
        # F(x) = |x| + (x - q)^2 / (2 mu) with q > mu has x* = q - mu and the
        # multiplier lam* = -1, which d = -mu with y_dist = 0 reproduces (and
        # ||P^* d|| = mu keeps it feasible).  At x = x* + delta, |delta| < mu,
        # the gap is delta^2 / (2 mu) and ||r|| misses ||r*|| = mu by exactly
        # e = |delta|, so a smaller e or a larger gap is wrong.
        q = 3.0
        x = q - mu + delta
        gap, e = _ball_gap(mu, x, np.array([x - q]), np.array([-mu]), np.array([q]), 0.0, 1.0)
        assert gap == pytest.approx(delta * delta / (2.0 * mu), rel=1e-9)
        assert e == pytest.approx(abs(delta), rel=1e-9)
        assert abs(abs(x - q) - mu) == pytest.approx(e, rel=1e-9)

    @pytest.mark.parametrize("workload", ["large_n", "rate_sweep"])
    def test_only_relative_change_stops_are_accepted(self, monkeypatch, solves, workload):
        stages = []
        fista_ball = quantmc.solvers._fista_ball

        def recording(*args):
            out = fista_ball(*args)
            stages.append((out[0], out[2]))
            return out

        monkeypatch.setattr(quantmc.solvers, "_fista_ball", recording)
        cfg = quantmc.harness.ExperimentConfig(trials=1, base_seed=100000, **BENCH_CONFIGS[workload])
        quantmc.harness.run_experiment(cfg)
        assert len(solves) > 0
        for rep in solves:
            assert rep.converged
            assert [stop for X, stop in stages if X is rep.matrix] == ["change"]
        # the certificate path is exercised
        assert any(stop == "gap" for _, stop in stages)

    @pytest.mark.parametrize("workload", sorted(SPECTRAL_BALL_ITERATION_LIMITS))
    def test_accepted_stages_carry_the_certificate(self, monkeypatch, gaps, solves, workload):
        # every accepted stage's last gap is taken at the returned iterate and
        # puts the stage's exact residual inside the acceptance band, and the
        # spectral step keeps the iterations of these trials within the limit
        stages = []
        fista_ball = quantmc.solvers._fista_ball

        def recording(*args):
            first = len(gaps)
            out = fista_ball(*args)
            stages.append((out, args[6], gaps[first:]))
            return out

        monkeypatch.setattr(quantmc.solvers, "_fista_ball", recording)
        for seed in range(2, 12):
            cfg = quantmc.harness.ExperimentConfig(trials=1, base_seed=seed * 100000, **BENCH_CONFIGS[workload])
            quantmc.harness.run_experiment(cfg)
        assert len(solves) >= 10
        for rep in solves:
            assert rep.converged
            [(out, (lo, hi, _), calls)] = [st for st in stages if st[0][0] is rep.matrix]
            assert out[2] == "change" and len(calls) > 0
            _, rnorm, _, e, _, _ = calls[-1]
            assert rnorm == pytest.approx(out[3], rel=1e-12)
            assert lo <= rnorm - e and rnorm + e <= hi
        assert sum(rep.iterations for rep in solves) <= SPECTRAL_BALL_ITERATION_LIMITS[workload]

    @pytest.mark.parametrize("workload", ["large_n", "rate_sweep"])
    def test_in_band_stops_are_fixed_points_of_the_step(self, monkeypatch, gaps, solves, workload):
        # inside the band a stage stops on its step's fixed-point residual
        # ||Y - Xn|| / (s max(1, ||Y||)), which falls below tol while the
        # momentum still moves the iterate by more
        steps, stages = [], []  # (Y, X, Xn) of every step; (out, band, last step, last gap) per stage
        fista, fista_ball = quantmc.solvers._fista, quantmc.solvers._fista_ball

        def recording_fista(step, z0, cap):
            def recorded(w, z):
                out = step(w, z)
                steps.append((w, z, out[0]))
                return out

            return fista(recorded, z0, cap)

        def recording_ball(*args):
            out = fista_ball(*args)
            stages.append((out, args[6], steps[-1], gaps[-1] if gaps else None))
            return out

        monkeypatch.setattr(quantmc.solvers, "_fista", recording_fista)
        monkeypatch.setattr(quantmc.solvers, "_fista_ball", recording_ball)
        tol = BENCH_CONFIGS[workload]["tol_rel_change"]
        for seed in range(1, 4):
            cfg = quantmc.harness.ExperimentConfig(trials=1, base_seed=seed * 100000, **BENCH_CONFIGS[workload])
            quantmc.harness.run_experiment(cfg)
        assert len(solves) >= 3 and all(rep.converged for rep in solves)
        accepted = [st for st in stages if any(st[0][0] is rep.matrix for rep in solves)]
        assert len(accepted) == len(solves)
        moving = 0
        for (X, _, stop, resid, _), (lo, hi, _), (Y, X_prev, Xn), (_, rnorm, *_, s) in accepted:
            assert stop == "change" and lo <= resid <= hi and Xn is X and rnorm == resid
            assert np.linalg.norm(Y - Xn) <= tol * s * max(1.0, np.linalg.norm(Y))
            moving += np.linalg.norm(Xn - X_prev) > tol * max(1.0, np.linalg.norm(X_prev))
        # the iterate's change alone would have kept some of these stages going
        assert moving > 0

    def test_a_stalled_small_mu_stage_is_not_accepted(self, gaps):
        # The inputs of test_budget_exhaustion_reports_not_converged.  From
        # zero, a stage at mu = 8.3e-9 moves X by about mu per step, so its
        # relative change passes after 2 steps at nuclear norm 3.727, against
        # 3.403 by continuation.  With a band around that residual, its gap
        # stays far above _STALL_GAP of its objective and no iterate within
        # the cap earns the certificate, so the stage never stops on relative
        # change and the search cannot accept it.
        gt = generate_low_rank((10, 10), 3, 1.0, seed=18)
        mask = sample_mask_uniform((10, 10), 55, seed=19)
        q = project(gt.matrix, mask)[mask.rows, mask.cols]
        mu, x0 = 8.3e-9, np.zeros((10, 10))
        _, iters, stop, resid, nuc = _fista_ball(q, mask, mu, x0, ProxParams(), 400)
        assert (iters, stop) == (2, "change") and nuc == pytest.approx(3.727, abs=1e-3)
        radius = resid / (1.0 - 0.5 * _RESIDUAL_BAND)
        band = ((1.0 - _RESIDUAL_BAND) * radius, radius * (1.0 + ProxParams().tol_feas), resid)
        assert band[0] <= resid <= band[1]
        _, iters, stop, _, nuc = _fista_ball(q, mask, mu, x0, ProxParams(), 400, band)
        assert (iters, stop) == (400, None) and nuc > 3.7
        assert len(gaps) > 0
        assert not any(band[0] <= rnorm - e and rnorm + e <= band[1] for _, rnorm, _, e, _, _ in gaps)
        assert all(gap > _STALL_GAP * (nuc + rnorm * rnorm / (2.0 * mu)) for nuc, rnorm, gap, *_ in gaps)


class TestClippedStep:
    """``_clipped_step``, the spectral step of both solvers: _STEP_SAFETY times
    the quotient, clipped to [1, s_max]."""

    # (num, den, s_max, safety, step): a ball stage passes rho = ||Y - Xn||^2 /
    # ||P(Y - Xn)||^2 >= 1 with s_max 2; the one-bit dual passes the short
    # Barzilai-Borwein quotient <dw, -dx> / ||dx||^2 with s_max 3.  The
    # factor is the module's _STEP_SAFETY, set here to each value listed:
    # the factors the two steps once took (0.9 and 1.0) and the one they
    # share now.
    CLIPPED = [
        (1.0, 1.0, _BALL_STEP_MAX, 0.9, 1.0),
        (1.5, 1.0, _BALL_STEP_MAX, 0.9, 1.35),
        (4.0, 2.0, _BALL_STEP_MAX, 0.9, 1.8),
        (50.0, 1.0, _BALL_STEP_MAX, 0.9, _BALL_STEP_MAX),
        (2.0, 1.0, _STEP_MAX, 1.0, 2.0),
        (1.25, 1.0, _STEP_MAX, 1.0, 1.25),
        (10.0, 1.0, _STEP_MAX, 1.0, _STEP_MAX),
        (0.5, 1.0, _STEP_MAX, 1.0, 1.0),
        (1.25, 1.0, _BALL_STEP_MAX, _STEP_SAFETY, 1.0),
        (2.0, 1.0, _BALL_STEP_MAX, _STEP_SAFETY, 1.4),
        (4.0, 2.0, _STEP_MAX, _STEP_SAFETY, 1.4),
        (4.0, 1.0, _BALL_STEP_MAX, _STEP_SAFETY, _BALL_STEP_MAX),
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
        assert _STEP_MAX == 3.0 and _BALL_STEP_MAX == 2.0 and _STEP_SAFETY == 0.7
        monkeypatch.setattr(quantmc.solvers, "_STEP_SAFETY", safety)
        assert _clipped_step(num, den, s_max) == pytest.approx(expected, rel=1e-15)


class TestBallStep:
    """The spectral step of a ball stage in ``_fista_ball``."""

    @pytest.mark.parametrize("seed", range(3))
    def test_steps_of_a_stage(self, monkeypatch, seed):
        # each stage, cold or warm, starts at s = 1, every step lies in
        # [1, 2] / L, each s is _clipped_step of the previous step's
        # ||Y - Xn||^2 >= ||P(Y - Xn)||^2, and a partial mask gives longer
        # steps than 1/L
        thetas, quotients = [], []
        svd_soft = quantmc.solvers._svd_soft

        def soft(Z, theta):
            thetas.append(theta)
            return svd_soft(Z, theta)

        def step(y_sq, p_sq, s_max):
            assert s_max == _BALL_STEP_MAX
            assert y_sq >= p_sq * (1.0 - 1e-12)
            quotients.append(_clipped_step(y_sq, p_sq, s_max))
            assert quotients[-1] == min(s_max, max(1.0, _STEP_SAFETY * (y_sq / p_sq)))
            return quotients[-1]

        monkeypatch.setattr(quantmc.solvers, "_svd_soft", soft)
        monkeypatch.setattr(quantmc.solvers, "_clipped_step", step)
        gt = generate_low_rank((20, 16), 2, 1.0, seed=seed)
        mask = sample_mask_uniform((20, 16), 160, seed=seed + 10)
        q = project(gt.matrix, mask)[mask.rows, mask.cols]
        x0 = np.zeros((20, 16))
        for mu in (0.3, 0.1):
            thetas.clear()
            quotients.clear()
            x0, iters, *_ = _fista_ball(q, mask, mu, x0, ProxParams(tol_rel_change=1e-10), 300)
            assert iters > 3 and len(thetas) == iters == len(quotients)
            assert thetas[0] == mu
            assert thetas[1:] == [s * mu for s in quotients[:-1]]
            assert all(mu <= theta <= _BALL_STEP_MAX * mu for theta in thetas)
            assert max(thetas) > mu


class TestSolveQuantizedMC:
    def test_full_mask_tiny_radius_pins_solution(self):
        gt = generate_low_rank((8, 8), 2, 1.0, seed=3)
        mask = sample_mask_uniform((8, 8), 64, seed=4)
        Q = project(gt.matrix, mask)
        rep = solve_quantized_mc(Q, mask, 9e-7, ProxParams(tol_rel_change=1e-10))
        assert np.linalg.norm(rep.matrix - gt.matrix) <= 1e-6
        assert rep.converged

    def test_large_radius_returns_zero(self):
        gt = generate_low_rank((6, 6), 2, 1.0, seed=5)
        mask = sample_mask_uniform((6, 6), 20, seed=6)
        Q = project(gt.matrix, mask)
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
        Q = quantize_matrix(gt.matrix, mask, QuantizerSpec(0.25, 8), DitherSpec.uniform(0.125), seed=9)
        params = ProxParams(tol_rel_change=1e-9)
        radius = 0.8 * float(np.linalg.norm(Q[mask.rows, mask.cols]))
        rep = solve_quantized_mc(Q, mask, radius, params)
        if rep.converged:
            assert rep.data_residual <= radius * (1 + params.tol_feas)

    def test_recovery_close_to_truth_with_oracle_radius(self):
        gt = generate_low_rank((16, 16), 2, 1.0, seed=10)
        mask = sample_mask_uniform((16, 16), 180, seed=11)
        Q = quantize_matrix(gt.matrix, mask, QuantizerSpec(0.1, 40), DitherSpec.uniform(0.05), seed=12)
        radius = float(np.linalg.norm((gt.matrix - Q)[mask.rows, mask.cols]))
        rep = solve_quantized_mc(Q, mask, radius, ProxParams(tol_rel_change=1e-8))
        assert rep.converged
        assert np.linalg.norm(rep.matrix - gt.matrix) <= 0.25 * np.linalg.norm(gt.matrix)

    def test_minimality_when_truth_is_feasible(self):
        # convexity: the returned nuclear norm cannot beat the truth's by
        # more than solver slack when the truth is strictly inside the ball
        gt = generate_low_rank((10, 10), 2, 1.0, seed=13)
        mask = sample_mask_uniform((10, 10), 70, seed=14)
        Q = quantize_matrix(gt.matrix, mask, QuantizerSpec(0.2, 12), DitherSpec.uniform(0.1), seed=15)
        true_resid = float(np.linalg.norm((gt.matrix - Q)[mask.rows, mask.cols]))
        rep = solve_quantized_mc(Q, mask, 1.3 * true_resid, ProxParams(tol_rel_change=1e-9))
        assert rep.nuclear_norm <= np.linalg.norm(gt.matrix, "nuc") + 1e-6

    def test_nuclear_norm_shrinks_as_radius_grows(self):
        gt = generate_low_rank((10, 10), 2, 1.0, seed=16)
        mask = sample_mask_uniform((10, 10), 60, seed=17)
        Q = project(gt.matrix, mask)
        qnorm = float(np.linalg.norm(Q))
        norms = []
        for radius in (0.05 * qnorm, 0.2 * qnorm, 0.8 * qnorm, 1.2 * qnorm):
            rep = solve_quantized_mc(Q, mask, radius, ProxParams(tol_rel_change=1e-9))
            norms.append(rep.nuclear_norm)
        assert all(a >= b - 1e-9 for a, b in zip(norms, norms[1:]))

    def test_budget_exhaustion_reports_not_converged(self):
        gt = generate_low_rank((10, 10), 3, 1.0, seed=18)
        mask = sample_mask_uniform((10, 10), 55, seed=19)
        Q = project(gt.matrix, mask)
        rep = solve_quantized_mc(Q, mask, 1e-8, ProxParams(max_iters=3))
        assert not rep.converged
        assert rep.iterations <= 3

    # Iterations and nuclear norms of the unit-step solver, which accepted any
    # in-band stage on relative change, at these radii.
    UNIT_STEP_SOLVES = {
        1e-4: (3363, 3.4026671850),
        1e-5: (3495, 3.4029059763),
        1e-6: (3495, 3.4029304313),
        1e-7: (3496, 3.4029328731),
        1e-8: (3499, 3.4029331172),
    }

    @pytest.mark.parametrize("radius", sorted(UNIT_STEP_SOLVES))
    def test_tiny_radius_converges(self, monkeypatch, radius):
        # On the inputs of test_budget_exhaustion_reports_not_converged, the
        # band is too narrow for the gap to certify: the search accepts a
        # settled stage instead of spending its budget.  The nuclear norm
        # falls with the residual at about the dual norm 2.7, so two points
        # of the band differ by at most about 0.14 * radius.
        stops = []
        fista_ball = quantmc.solvers._fista_ball

        def recording(*args):
            out = fista_ball(*args)
            stops.append(out[2])
            return out

        monkeypatch.setattr(quantmc.solvers, "_fista_ball", recording)
        gt = generate_low_rank((10, 10), 3, 1.0, seed=18)
        mask = sample_mask_uniform((10, 10), 55, seed=19)
        Q = project(gt.matrix, mask)
        rep = solve_quantized_mc(Q, mask, radius, ProxParams())
        iterations, nuclear = self.UNIT_STEP_SOLVES[radius]
        assert rep.converged and rep.iterations <= iterations
        assert (1.0 - _RESIDUAL_BAND) * radius <= rep.data_residual <= radius * (1.0 + ProxParams().tol_feas)
        assert stops[-1] == "settled"
        assert rep.nuclear_norm == pytest.approx(nuclear, abs=3.0 * _RESIDUAL_BAND * radius + 1e-8)

    @pytest.mark.parametrize("radius", [1e-2, 1e-4, 1e-8])
    @pytest.mark.parametrize("max_iters", [400, 1000, 2500, 20000])
    def test_converged_only_inside_the_band(self, radius, max_iters):
        # converged means a stage was accepted, whatever the budget cut short
        gt = generate_low_rank((10, 10), 3, 1.0, seed=18)
        mask = sample_mask_uniform((10, 10), 55, seed=19)
        Q = project(gt.matrix, mask)
        params = ProxParams(max_iters=max_iters)
        rep = solve_quantized_mc(Q, mask, radius, params)
        inside = (1.0 - _RESIDUAL_BAND) * radius <= rep.data_residual <= radius * (1.0 + params.tol_feas)
        assert inside or not rep.converged

    def test_feasible_fallback_below_the_band_is_not_converged(self, monkeypatch):
        # Two stages at radius 0.1, each solved to relative change without a
        # band: the second lands feasible below the band and is returned as
        # the best feasible stage, but no stage was accepted.
        stops = []
        fista_ball = quantmc.solvers._fista_ball

        def unbanded(q, mask, mu, x0, params, cap, band=None):
            out = fista_ball(q, mask, mu, x0, params, cap)
            stops.append(out[2])
            return out

        monkeypatch.setattr(quantmc.solvers, "_fista_ball", unbanded)
        monkeypatch.setattr(quantmc.solvers, "_MAX_STAGES", 2)
        gt = generate_low_rank((10, 10), 3, 1.0, seed=18)
        mask = sample_mask_uniform((10, 10), 55, seed=19)
        Q = project(gt.matrix, mask)
        rep = solve_quantized_mc(Q, mask, 0.1, ProxParams())
        assert stops == ["change", "change"]
        assert rep.data_residual < (1.0 - _RESIDUAL_BAND) * 0.1
        assert not rep.converged

    def test_unreachable_radius_reports_infeasible(self):
        # a radius below what the smallest data-fit weight can reach on a
        # partial mask yields a best-effort iterate flagged not converged
        gt = generate_low_rank((10, 10), 3, 1.0, seed=40)
        mask = sample_mask_uniform((10, 10), 55, seed=41)
        Q = project(gt.matrix, mask)
        rep = solve_quantized_mc(Q, mask, 1e-12, ProxParams(tol_rel_change=1e-10))
        assert not rep.converged
        assert rep.data_residual > 1e-12


class TestBallRootFinding:
    @pytest.mark.parametrize("scale", [1.000001, 3.0])
    def test_zero_is_optimal_above_operator_norm(self, scale):
        # the bracket's upper end: for mu >= ||Q||_op the penalized problem
        # is solved by X = 0, so its residual is ||q|| without a solve
        gt = generate_low_rank((12, 10), 2, 1.0, seed=42)
        mask = sample_mask_uniform((12, 10), 70, seed=43)
        Q = project(gt.matrix, mask)
        q = Q[mask.rows, mask.cols]
        mu = scale * np.linalg.norm(Q, 2)
        X, iters, stop, resid, nuc = _fista_ball(q, mask, mu, np.zeros(Q.shape), ProxParams(), 50)
        assert stop == "change" and iters == 1
        assert np.all(X == 0.0) and nuc == 0.0
        assert resid == pytest.approx(np.linalg.norm(q), rel=1e-15)

    def test_rate_sweep_stages_and_iterations(self, monkeypatch):
        # the c13 sweep configuration; each ball solve takes few mu stages
        # and ends inside the acceptance band
        solves = []

        def recording(Q, mask, radius, params=None):
            report = solve_quantized_mc(Q, mask, radius, params)
            solves.append((mask.m_prime, radius, params, report))
            return report

        monkeypatch.setattr(quantmc.harness, "solve_quantized_mc", recording)
        cfg = quantmc.harness.ExperimentConfig(
            scenario="rate_sweep", n1=32, n2=32, r=2, alpha=1.0, delta=0.25, K=8,
            dither_kind="uniform", epsilon=0.05, m_prime_grid=(128, 256, 512, 1024),
            delta_policy="oracle", max_iters=4000, tol_rel_change=3e-6,
            trials=1, base_seed=100000,
        )
        quantmc.harness.run_experiment(cfg)
        assert [m for m, *_ in solves] == [128, 256, 512, 1024]
        for _, radius, params, rep in solves:
            assert rep.converged
            assert 1 <= len(rep.stage_objectives) <= 6
            assert all(isinstance(stage, float) for stage in rep.stage_objectives)
            assert (1 - _RESIDUAL_BAND) * radius <= rep.data_residual <= radius * (1 + params.tol_feas)
        assert solves[0][3].iterations <= 1200

    @staticmethod
    def _recorded_stages(monkeypatch):
        """Record (mu, stop, residual) of each stage of the next ball solves."""
        stages = []
        fista_ball = quantmc.solvers._fista_ball

        def recording(q, mask, mu, x0, params, cap, band=None):
            out = fista_ball(q, mask, mu, x0, params, cap, band)
            stages.append((mu, out[2], out[3]))
            return out

        monkeypatch.setattr(quantmc.solvers, "_fista_ball", recording)
        return stages

    def test_floor_stage_ends_the_search(self, monkeypatch):
        # The inputs of test_budget_exhaustion_reports_not_converged at a radius
        # no stage reaches: the search steps mu down to _MU_FLOOR and stops
        # there once a stage at the floor has converged, with budget and stages
        # to spare, and returns the stage with the smallest residual.
        stages = self._recorded_stages(monkeypatch)
        gt = generate_low_rank((10, 10), 3, 1.0, seed=18)
        mask = sample_mask_uniform((10, 10), 55, seed=19)
        rep = solve_quantized_mc(project(gt.matrix, mask), mask, 1e-11, ProxParams())
        assert not rep.converged
        assert len(stages) == len(rep.stage_objectives) < quantmc.solvers._MAX_STAGES
        assert rep.iterations < ProxParams().max_iters
        mu, stop, _ = stages[-1]
        assert mu == pytest.approx(quantmc.solvers._MU_FLOOR, rel=1e-12) and stop == "change"
        assert all(m > mu for m, *_ in stages[:-1])
        assert rep.data_residual == min(resid for *_, resid in stages) > 1e-11

    @pytest.mark.parametrize("radius", [1e-1, 1e-2, 1e-4])
    def test_regula_falsi_when_the_secant_does_not_rise(self, monkeypatch, radius):
        # With no secant guess the search steps mu down until a stage
        # undershoots the target; from then on each stage sits where the chord
        # through the bracket ends, in (log mu, log residual), meets the target
        # (kept _BRACKET_MARGIN clear of the ends), and the search still lands
        # a certified stage in the band.
        stages = self._recorded_stages(monkeypatch)
        monkeypatch.setattr(quantmc.solvers, "_secant", lambda a, b, y_target: None)
        gt = generate_low_rank((10, 10), 3, 1.0, seed=18)
        mask = sample_mask_uniform((10, 10), 55, seed=19)
        Q = project(gt.matrix, mask)
        rep = solve_quantized_mc(Q, mask, radius, ProxParams())
        assert rep.converged
        assert (1.0 - _RESIDUAL_BAND) * radius <= rep.data_residual <= radius * (1.0 + ProxParams().tol_feas)
        target = (1.0 - 0.5 * _RESIDUAL_BAND) * radius
        hi, lo = (math.log(np.linalg.norm(Q, 2)), math.log(np.linalg.norm(Q))), None
        chord_stages = 0
        for (mu, _, resid), (mu_next, *_) in zip(stages, stages[1:]):
            if resid < target:
                lo = (math.log(mu), math.log(resid))
            else:
                hi = (math.log(mu), math.log(resid))
            if lo is not None:
                x = lo[0] + (math.log(target) - lo[1]) * (hi[0] - lo[0]) / (hi[1] - lo[1])
                margin = _BRACKET_MARGIN * (hi[0] - lo[0])
                assert math.log(mu_next) == pytest.approx(min(max(x, lo[0] + margin), hi[0] - margin), abs=1e-12)
                chord_stages += 1
        assert chord_stages > 0


def _point(mu, X):
    """A solved point of the mu search: (log mu, log residual, iterate)."""
    return (math.log(mu), 0.0, X)


class TestPathPredictor:
    """``_warm_start``: the line through the last two solved points, or the nearest end."""

    # On a full mask a stage's solution is SVT_mu(Q); the spectrum keeps
    # rank 1 for mu in [3, 5) and rank 2 for mu in [1, 3).  At
    # mu = ||Q||_op = 5 it is the zero matrix, the search's free upper
    # point, which lies on the rank-1 line as well.
    @pytest.mark.parametrize("shape", [(9, 7), (7, 9)])
    @pytest.mark.parametrize(
        "mu_a, mu_b, mu",
        [(2.5, 2.0, 1.6), (2.5, 2.0, 1.55), (2.0, 2.5, 2.2), (2.9, 1.1, 2.0), (5.0, 4.0, 3.5), (5.0, 4.0, 3.1)],
    )
    def test_exact_where_the_kept_rank_is_fixed(self, shape, mu_a, mu_b, mu):
        Q = _with_spectrum(shape, [5.0, 3.0, 1.0, 0.5], seed=10)
        a, b = (_point(m, prox_nuclear(Q, m)) for m in (mu_a, mu_b))
        assert abs((mu - mu_b) / (mu_b - mu_a)) <= 1.0
        start = _warm_start(math.log(mu), max(a, b), None, b, a)
        ref = prox_nuclear(Q, mu)
        assert np.linalg.norm(start - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_far_guess_takes_the_nearest_end(self):
        # f = (mu - mu_b) / (mu_b - mu_a) beyond +-1 falls back to the end
        # of the bracket nearest in log mu, as does a first stage
        ends = {mu: _point(mu, np.full((3, 2), mu)) for mu in (0.5, 2.9, 3.0)}
        hi, lo = ends[2.9], ends[0.5]
        for mu, nearest in [(0.8, lo), (2.0, hi)]:
            assert abs((mu - 2.9) / (2.9 - 3.0)) > 1.0
            assert _warm_start(math.log(mu), hi, lo, hi, ends[3.0]) is nearest[2]
        assert _warm_start(math.log(0.2), hi, None, hi, ends[3.0]) is hi[2]
        assert _warm_start(math.log(2.0), hi, None, hi, None) is hi[2]


class TestSolveOneBitMC:
    def test_single_constraint_scalar(self):
        mask = SampleMask((1, 1), [0], [0])
        system = PolyhedronSystem(np.array([[1]]), np.array([[0.5]]), mask)
        rep = solve_one_bit_mc(system, 0.0, ProxParams(tol_feas=1e-9, tol_rel_change=1e-12))
        assert abs(rep.matrix[0, 0] - 0.5) <= 1e-6
        assert rep.converged and rep.data_residual == 0.0

    def test_vacuous_constraints_give_zero(self):
        mask = sample_mask_uniform((4, 4), 8, seed=0)
        system = PolyhedronSystem(np.ones((3, 8), dtype=int), np.full((3, 8), -1e10), mask)
        rep = solve_one_bit_mc(system, 10.0, ProxParams())
        assert np.all(rep.matrix == 0.0) and rep.converged

    def test_negative_reg_weight_rejected(self):
        mask = SampleMask((1, 1), [0], [0])
        system = PolyhedronSystem(np.array([[1]]), np.array([[0.0]]), mask)
        with pytest.raises(ValueError):
            solve_one_bit_mc(system, -1.0)

    def test_consistent_recovery_mid_size(self):
        gt = generate_low_rank((12, 12), 2, 1.0, seed=20)
        mask = sample_mask_uniform((12, 12), 80, seed=21)
        thr = generate_dither_tensor(DitherSpec.uniform(1.0), 10, 80, seed=22)
        obs = observe_one_bit(gt.matrix, mask, thr)
        system = build_polyhedron(obs)
        rep = solve_one_bit_mc(system, 1.0, ProxParams(tol_feas=1e-9, tol_rel_change=1e-9))
        assert rep.converged and rep.data_residual == 0.0
        assert consistency_report(rep.matrix, obs, gt.matrix).zeta == 0

    def test_zero_reg_weight_matches_closed_form(self, eigh_calls):
        # without the nuclear term the program separates per entry: the
        # minimum-norm point of the shrunk box on the mask, zero elsewhere
        gt = generate_low_rank((12, 12), 2, 1.0, seed=23)
        mask = sample_mask_uniform((12, 12), 80, seed=24)
        thr = generate_dither_tensor(DitherSpec.uniform(1.0), 10, 80, seed=25)
        system = build_polyhedron(observe_one_bit(gt.matrix, mask, thr))
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
        system = build_polyhedron(observe_one_bit(gt.matrix, mask, thr))
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
        system = build_polyhedron(observe_one_bit(gt.matrix, mask, thr))
        reg = 1.0
        rep = solve_one_bit_mc(system, reg, ProxParams(tol_feas=1e-9, tol_rel_change=1e-9))
        truth_objective = reg * np.linalg.norm(gt.matrix, "nuc") + 0.5 * np.linalg.norm(gt.matrix) ** 2
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
            recording_solve(build_polyhedron(observe_one_bit(gt.matrix, mask, thr)), 1.0,
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
        system = PolyhedronSystem(np.array([[1], [-1]]), np.array([[1.0], [-1.0]]), mask)
        rep = solve_one_bit_mc(system, 0.0, ProxParams(max_iters=2000))
        assert not rep.converged
        assert rep.iterations == 0
        assert rep.data_residual > 0.1

    def test_empty_system_rejected(self):
        mask = SampleMask((1, 1), [0], [0])
        with pytest.raises(ValueError):
            PolyhedronSystem(np.zeros((0, 1), dtype=int), np.zeros((0, 1)), mask)


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
    noise = NoiseSpec.gaussian(0.1) if rng.random() < 0.5 else NoiseSpec.none()
    seeds = [int(v) for v in rng.integers(2**31, size=4)]
    gt = generate_low_rank((n1, n2), r, 1.0, seed=seeds[0])
    mask = sample_mask_uniform((n1, n2), m_prime, seed=seeds[1])
    thr = generate_dither_tensor(DitherSpec.uniform(1.0), m, m_prime, seed=seeds[2])
    return build_polyhedron(observe_one_bit(gt.matrix, mask, thr, noise, seeds[3])), reg_weight


class TestSpectralStep:
    """The safeguarded Barzilai-Borwein step of the one-bit dual SVT."""

    def test_first_step_is_the_unit_step(self):
        # the second primal of a solve is SVT(P^*(clip(0))): the first dual
        # step from w = 0 moved by s = 1
        gt = generate_low_rank((12, 12), 2, 1.0, seed=20)
        mask = sample_mask_uniform((12, 12), 80, seed=21)
        thr = generate_dither_tensor(DitherSpec.uniform(1.0), 10, 80, seed=22)
        system = build_polyhedron(observe_one_bit(gt.matrix, mask, thr))
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
            dims = system.dims
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
        obs = self._obs(np.abs(gt.matrix) + 2.0, mask, 2.0, 31)
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
        obs = observe_one_bit(gt.matrix, mask, thr)
        with pytest.raises(UnsupportedModeError):
            self._solve(obs, 2.0, 1.0)

    def test_recovers_under_oracle_radius(self):
        gt = generate_low_rank((12, 12), 1, 1.0, seed=36)
        mask = sample_mask_uniform((12, 12), 100, seed=37)
        delta = 2.0
        obs = self._obs(gt.matrix, mask, delta, 38)
        surrogate = 0.5 * delta * obs.signs[0]
        radius = float(np.linalg.norm(gt.matrix[mask.rows, mask.cols] - surrogate))
        rep = self._solve(obs, delta, radius, ProxParams(tol_rel_change=1e-8))
        assert rep.converged
        assert np.linalg.norm(rep.matrix - gt.matrix) <= np.linalg.norm(gt.matrix)
