"""Nuclear-norm proximal operator and the two recovery solvers."""

import numpy as np
import pytest

import quantmc.harness
from quantmc.core import SampleMask, generate_low_rank, project, sample_mask_uniform
from quantmc.onebit import (
    PolyhedronSystem,
    UnsupportedModeError,
    build_polyhedron,
    consistency_report,
    feasible_intervals,
    observe_one_bit,
    strip_thresholds,
)
from quantmc.quantize import DitherSpec, QuantizerSpec, generate_dither_tensor, quantize_matrix
from quantmc.solvers import (
    _FEAS_MARGIN,
    _RESIDUAL_BAND,
    ProxParams,
    _fista_ball,
    prox_nuclear,
    solve_one_bit_mc,
    solve_quantized_mc,
    solve_statistics_only,
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
        X, iters, ok, resid, nuc = _fista_ball(q, mask, mu, np.zeros(Q.shape), ProxParams(), 50)
        assert ok and iters == 1
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
            assert all(stage.shape == (1,) for stage in rep.stage_objectives)
            assert (1 - _RESIDUAL_BAND) * radius <= rep.data_residual <= radius * (1 + params.tol_feas)
        assert solves[0][3].iterations <= 1200


class TestSolveOneBitMC:
    def test_single_constraint_scalar(self):
        mask = SampleMask.from_pairs((1, 1), [(0, 0)])
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
        mask = SampleMask.from_pairs((1, 1), [(0, 0)])
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

    def test_zero_reg_weight_matches_closed_form(self):
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

    def test_no_feasible_perturbation_improves_objective(self):
        gt = generate_low_rank((8, 8), 2, 1.0, seed=23)
        mask = sample_mask_uniform((8, 8), 30, seed=24)
        thr = generate_dither_tensor(DitherSpec.uniform(1.0), 6, 30, seed=25)
        system = build_polyhedron(observe_one_bit(gt.matrix, mask, thr))
        reg = 1.0
        rep = solve_one_bit_mc(system, reg, ProxParams(tol_feas=1e-9, tol_rel_change=1e-9))
        assert rep.converged
        assert len(rep.stage_objectives) == 1 and len(rep.stage_objectives[0]) == rep.iterations
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

    def test_infeasible_system_reports_violation(self):
        # contradictory signs around one entry: x >= 1 and x <= -1
        mask = SampleMask.from_pairs((1, 1), [(0, 0)])
        system = PolyhedronSystem(np.array([[1], [-1]]), np.array([[1.0], [-1.0]]), mask)
        rep = solve_one_bit_mc(system, 0.0, ProxParams(max_iters=2000))
        assert not rep.converged
        assert rep.iterations == 0
        assert rep.data_residual > 0.1

    def test_empty_system_rejected(self):
        mask = SampleMask.from_pairs((1, 1), [(0, 0)])
        with pytest.raises(ValueError):
            PolyhedronSystem(np.zeros((0, 1), dtype=int), np.zeros((0, 1)), mask)


class TestSolveStatisticsOnly:
    def _obs(self, X, mask, delta, seed):
        thr = generate_dither_tensor(DitherSpec.uniform(delta / 2), 1, mask.m_prime, seed)
        return strip_thresholds(observe_one_bit(X, mask, thr))

    def test_all_positive_signs_large_radius_gives_zero(self):
        gt = generate_low_rank((5, 5), 1, 1.0, seed=29)
        mask = sample_mask_uniform((5, 5), 10, seed=30)
        obs = self._obs(np.abs(gt.matrix) + 2.0, mask, 2.0, 31)
        rep = solve_statistics_only(obs, 2.0, 100.0, ProxParams())
        assert np.all(rep.matrix == 0.0)

    def test_scalar_case_residual_contract(self):
        mask = SampleMask.from_pairs((1, 1), [(0, 0)])
        obs = self._obs(np.array([[0.9]]), mask, 2.0, 32)
        assert obs.signs[0, 0] in (-1, 1)
        params = ProxParams(tol_rel_change=1e-10)
        rep = solve_statistics_only(obs, 2.0, 0.1, params)
        surrogate = obs.signs[0, 0] * 1.0
        assert abs(rep.matrix[0, 0] - surrogate) <= 0.1 * (1 + params.tol_feas)

    def test_multi_sequence_rejected(self):
        gt = generate_low_rank((4, 4), 1, 1.0, seed=33)
        mask = sample_mask_uniform((4, 4), 8, seed=34)
        thr = generate_dither_tensor(DitherSpec.uniform(1.0), 2, 8, seed=35)
        obs = observe_one_bit(gt.matrix, mask, thr)
        with pytest.raises(UnsupportedModeError):
            solve_statistics_only(obs, 2.0, 1.0)

    def test_recovers_under_oracle_radius(self):
        gt = generate_low_rank((12, 12), 1, 1.0, seed=36)
        mask = sample_mask_uniform((12, 12), 100, seed=37)
        delta = 2.0
        obs = self._obs(gt.matrix, mask, delta, 38)
        surrogate = 0.5 * delta * obs.signs[0]
        radius = float(np.linalg.norm(gt.matrix[mask.rows, mask.cols] - surrogate))
        rep = solve_statistics_only(obs, delta, radius, ProxParams(tol_rel_change=1e-8))
        assert rep.converged
        assert np.linalg.norm(rep.matrix - gt.matrix) <= np.linalg.norm(gt.matrix)

