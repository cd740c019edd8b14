"""One-bit observation model, polyhedron, consistency, and distance metrics."""

import numpy as np
import pytest

from quantmc.core import SampleMask, generate_low_rank, sample_mask_uniform, select_vector
from quantmc.onebit import (
    NoiseSpec,
    OneBitObservation,
    PolyhedronSystem,
    UnsupportedModeError,
    build_polyhedron,
    consistency_report,
    feasible_intervals,
    hamming,
    load_observation,
    observe_one_bit,
    save_observation,
    strip_thresholds,
    surrogate_data,
    t_ave,
    violation_measure,
)
from quantmc.quantize import DitherSpec, DitherTensor, generate_dither_tensor, sign_pm1


def _tensor(values, spec=None):
    values = np.asarray(values, dtype=float)
    return DitherTensor(values=values, spec=spec or DitherSpec.none(), seed=0)


def _one_entry_mask():
    return SampleMask.from_pairs((1, 1), [(0, 0)])


class TestObserveOneBit:
    def test_below_threshold_gives_minus_one(self):
        obs = observe_one_bit(np.array([[0.3]]), _one_entry_mask(), _tensor([[0.5]]))
        assert obs.signs[0, 0] == -1

    def test_very_low_thresholds_give_all_plus_one(self):
        gt = generate_low_rank((5, 5), 2, 1.0, seed=0)
        mask = sample_mask_uniform((5, 5), 10, seed=1)
        thr = _tensor(np.full((3, 10), -1e10))
        obs = observe_one_bit(gt.matrix, mask, thr)
        assert np.all(obs.signs == 1)

    def test_two_sequences_straddle_entry(self):
        obs = observe_one_bit(np.array([[2.0]]), _one_entry_mask(), _tensor([[1.0], [3.0]]))
        assert obs.signs[:, 0].tolist() == [1, -1]

    def test_noise_shared_across_sequences(self):
        # identical threshold rows must yield identical sign rows because the
        # noise is drawn once per entry, not once per sequence
        gt = generate_low_rank((6, 6), 2, 1.0, seed=3)
        mask = sample_mask_uniform((6, 6), 18, seed=4)
        thr = generate_dither_tensor(DitherSpec.uniform(1.0), 1, 18, seed=5)
        stacked = _tensor(np.vstack([thr.values] * 4), DitherSpec.uniform(1.0))
        obs = observe_one_bit(gt.matrix, mask, stacked, NoiseSpec.gaussian(0.5), seed=6)
        assert all(np.array_equal(obs.signs[0], obs.signs[k]) for k in range(1, 4))

    def test_shape_mismatch(self):
        mask = sample_mask_uniform((4, 4), 6, seed=0)
        with pytest.raises(ValueError):
            observe_one_bit(np.zeros((4, 4)), mask, _tensor(np.zeros((2, 5))))


class TestPolyhedron:
    def test_constraint_count(self):
        gt = generate_low_rank((7, 13), 2, 1.0, seed=0)
        mask = sample_mask_uniform((7, 13), 13, seed=1)
        thr = generate_dither_tensor(DitherSpec.uniform(1.0), 7, 13, seed=2)
        system = build_polyhedron(observe_one_bit(gt.matrix, mask, thr))
        assert system.n_constraints == 91

    def test_ground_truth_always_feasible(self):
        for seed in range(5):
            gt = generate_low_rank((8, 8), 2, 1.0, seed=seed)
            mask = sample_mask_uniform((8, 8), 20, seed=seed + 50)
            thr = generate_dither_tensor(DitherSpec.uniform(1.0), 5, 20, seed=seed + 100)
            system = build_polyhedron(observe_one_bit(gt.matrix, mask, thr))
            assert violation_measure(system, gt.matrix) == 0.0

    def test_single_constraint_encoding(self):
        obs = observe_one_bit(np.array([[2.0]]), _one_entry_mask(), _tensor([[0.5]]))
        system = build_polyhedron(obs)
        assert system.signs.tolist() == [[1]] and system.thresholds.tolist() == [[0.5]]

    def test_statistics_only_mode_unsupported(self):
        obs = observe_one_bit(np.array([[2.0]]), _one_entry_mask(), _tensor([[0.5]]))
        with pytest.raises(UnsupportedModeError):
            build_polyhedron(strip_thresholds(obs))

    def test_feasible_intervals_box(self):
        signs = np.array([[1, -1], [1, 1]])
        thr = np.array([[0.2, 0.9], [-0.4, 0.1]])
        mask = SampleMask.from_pairs((1, 2), [(0, 0), (0, 1)])
        lo, hi = feasible_intervals(PolyhedronSystem(signs, thr, mask))
        assert np.array_equal(lo, [0.2, 0.1])
        assert lo[1] == 0.1 and hi[0] == np.inf and hi[1] == 0.9


class TestViolationMeasure:
    def test_single_violated_constraint(self):
        system = PolyhedronSystem(np.array([[1]]), np.array([[0.5]]), _one_entry_mask())
        assert violation_measure(system, np.array([[0.3]])) == pytest.approx(0.2)

    def test_two_violations_combine_in_quadrature(self):
        mask = SampleMask.from_pairs((1, 2), [(0, 0), (0, 1)])
        system = PolyhedronSystem(np.array([[1, 1]]), np.array([[0.5, 0.5]]), mask)
        v = violation_measure(system, np.array([[0.2, 0.1]]))
        assert v == pytest.approx(np.sqrt(0.09 + 0.16))

    def test_feasible_is_exact_zero(self):
        system = PolyhedronSystem(np.array([[1]]), np.array([[0.5]]), _one_entry_mask())
        assert violation_measure(system, np.array([[0.5]])) == 0.0
        assert violation_measure(system, np.array([[0.7]])) == 0.0


class TestHamming:
    def test_examples(self):
        assert hamming([1, -1, 1], [1, 1, 1]) == 1
        a = np.array([1, -1, 1, -1, 1])
        assert hamming(a, a) == 0
        assert hamming(a, -a) == 5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming([1, -1], [1])

    def test_rejects_non_signs(self):
        with pytest.raises(ValueError):
            hamming([1, 0], [1, 1])


class TestConsistencyReport:
    def test_truth_is_always_consistent(self):
        gt = generate_low_rank((6, 6), 2, 1.0, seed=1)
        mask = sample_mask_uniform((6, 6), 15, seed=2)
        thr = generate_dither_tensor(DitherSpec.uniform(1.0), 4, 15, seed=3)
        obs = observe_one_bit(gt.matrix, mask, thr)
        rep = consistency_report(gt.matrix, obs, gt.matrix)
        assert rep.zeta == 0 and rep.consistent and rep.per_sequence == (0, 0, 0, 0)

    def test_matches_brute_force_count(self):
        gt = generate_low_rank((6, 6), 2, 1.0, seed=4)
        mask = sample_mask_uniform((6, 6), 15, seed=5)
        thr = generate_dither_tensor(DitherSpec.uniform(1.0), 3, 15, seed=6)
        obs = observe_one_bit(gt.matrix, mask, thr)
        x_bar = -gt.matrix
        rep = consistency_report(x_bar, obs, gt.matrix)
        expected = 0
        xt = select_vector(gt.matrix, mask)
        xb = select_vector(x_bar, mask)
        for ell in range(3):
            for k in range(15):
                t = thr.values[ell, k]
                if sign_pm1(xt[k] - t) != sign_pm1(xb[k] - t):
                    expected += 1
        assert rep.zeta == expected == sum(rep.per_sequence)

    def test_zeta_bounded_by_constraint_count(self):
        gt = generate_low_rank((5, 5), 1, 1.0, seed=7)
        mask = sample_mask_uniform((5, 5), 10, seed=8)
        thr = generate_dither_tensor(DitherSpec.uniform(1.0), 6, 10, seed=9)
        obs = observe_one_bit(gt.matrix, mask, thr)
        rep = consistency_report(np.full((5, 5), 1e6), obs, gt.matrix)
        assert 0 <= rep.zeta <= 6 * 10

    def test_statistics_only_unsupported(self):
        gt = generate_low_rank((4, 4), 1, 1.0, seed=0)
        mask = sample_mask_uniform((4, 4), 8, seed=1)
        thr = generate_dither_tensor(DitherSpec.uniform(1.0), 1, 8, seed=2)
        obs = strip_thresholds(observe_one_bit(gt.matrix, mask, thr))
        with pytest.raises(UnsupportedModeError):
            consistency_report(gt.matrix, obs, gt.matrix)


class TestThresholdDistances:
    def test_power_two_example(self):
        obs = observe_one_bit(np.array([[2.0]]), _one_entry_mask(), _tensor([[1.0], [3.0]]))
        assert t_ave(np.array([[2.0]]), obs, 2) == pytest.approx(1.0)

    def test_power_one_example(self):
        obs = observe_one_bit(np.array([[2.0]]), _one_entry_mask(), _tensor([[1.0], [3.0]]))
        assert t_ave(np.array([[2.0]]), obs, 1) == pytest.approx(1.0)

    def test_zero_distance(self):
        X = np.array([[0.3, -0.2], [0.9, 0.0]])
        mask = sample_mask_uniform((2, 2), 4, seed=0)
        thr = _tensor(select_vector(X, mask)[None, :])
        obs = observe_one_bit(X, mask, thr)
        assert t_ave(X, obs, 1) == 0.0 and t_ave(X, obs, 2) == 0.0

    def test_invalid_power(self):
        obs = observe_one_bit(np.array([[2.0]]), _one_entry_mask(), _tensor([[1.0]]))
        with pytest.raises(ValueError):
            t_ave(np.array([[2.0]]), obs, 3)

    def test_statistics_only_unsupported(self):
        obs = strip_thresholds(observe_one_bit(np.array([[2.0]]), _one_entry_mask(), _tensor([[1.0]])))
        with pytest.raises(UnsupportedModeError):
            t_ave(np.array([[2.0]]), obs, 2)

    def test_power_two_expectation_uniform_and_gaussian(self):
        # mean of t_ave(.,2) over dither seeds ~ T + ||P(X)||_F^2 / m_prime
        gt = generate_low_rank((6, 6), 2, 1.0, seed=10)
        mask = sample_mask_uniform((6, 6), 12, seed=11)
        x_energy = float(np.sum(select_vector(gt.matrix, mask) ** 2))
        for spec in (DitherSpec.uniform(1.0), DitherSpec.gaussian(0.6)):
            samples = np.empty(10_000)
            for seed in range(samples.size):
                thr = generate_dither_tensor(spec, 3, 12, seed=seed)
                obs = observe_one_bit(gt.matrix, mask, thr)
                samples[seed] = t_ave(gt.matrix, obs, 2)
            target = spec.variance + x_energy / 12
            se = samples.std(ddof=1) / np.sqrt(samples.size)
            assert abs(samples.mean() - target) <= 3 * se

    def test_power_one_expectation_uniform_alpha(self):
        # mean of t_ave(.,1) under uniform [-alpha, alpha] dithers
        # ~ alpha/2 + ||P(X)||_F^2 / (2 alpha m_prime)
        alpha = 1.0
        gt = generate_low_rank((6, 6), 2, alpha, seed=12)
        mask = sample_mask_uniform((6, 6), 12, seed=13)
        x_energy = float(np.sum(select_vector(gt.matrix, mask) ** 2))
        samples = np.empty(10_000)
        for seed in range(samples.size):
            thr = generate_dither_tensor(DitherSpec.uniform(alpha), 3, 12, seed=seed)
            obs = observe_one_bit(gt.matrix, mask, thr)
            samples[seed] = t_ave(gt.matrix, obs, 1)
        target = alpha / 2 + x_energy / (2 * alpha * 12)
        se = samples.std(ddof=1) / np.sqrt(samples.size)
        assert abs(samples.mean() - target) <= 3 * se


class TestSurrogateData:
    def test_positive_sign(self):
        obs = observe_one_bit(np.array([[2.0]]), _one_entry_mask(), _tensor([[0.5]]))
        assert surrogate_data(obs, 2.0)[0, 0] == 1.0

    def test_negative_sign(self):
        obs = observe_one_bit(np.array([[0.1]]), _one_entry_mask(), _tensor([[0.5]]))
        assert surrogate_data(obs, 1.0)[0, 0] == -0.5

    def test_off_mask_zero(self):
        gt = generate_low_rank((4, 4), 1, 1.0, seed=0)
        mask = sample_mask_uniform((4, 4), 5, seed=1)
        thr = generate_dither_tensor(DitherSpec.uniform(2.0), 1, 5, seed=2)
        obs = observe_one_bit(gt.matrix, mask, thr)
        S = surrogate_data(obs, 4.0)
        off = S.copy()
        off[mask.rows, mask.cols] = 0.0
        assert np.all(off == 0.0)

    def test_multi_sequence_unsupported(self):
        obs = observe_one_bit(np.array([[2.0]]), _one_entry_mask(), _tensor([[0.5], [1.5]]))
        with pytest.raises(UnsupportedModeError):
            surrogate_data(obs, 2.0)


class TestSignExpectation:
    def test_mean_sign_tracks_x_over_lambda(self):
        # E sign(x + tau) = x / lam for tau uniform on [-lam, lam], |x| <= lam
        lam = 1.0
        rng = np.random.Generator(np.random.Philox(42))
        tau = rng.uniform(-lam, lam, 200_000)
        for x in (-0.8, -0.3, 0.0, 0.55, 1.0):
            mean = np.mean(sign_pm1(x + tau))
            se = max(np.std(sign_pm1(x + tau)) / np.sqrt(tau.size), 1e-12)
            assert abs(mean - x / lam) <= max(3 * se, 1e-3)


class TestObservationCsv:
    def test_round_trip_with_thresholds(self, tmp_path):
        gt = generate_low_rank((5, 7), 2, 1.0, seed=20)
        mask = sample_mask_uniform((5, 7), 9, seed=21)
        thr = generate_dither_tensor(DitherSpec.uniform(1.0), 3, 9, seed=22)
        obs = observe_one_bit(gt.matrix, mask, thr)
        save_observation(obs, tmp_path / "obs")
        loaded = load_observation(tmp_path / "obs", DitherSpec.uniform(1.0))
        assert np.array_equal(loaded.signs, obs.signs)
        assert np.array_equal(loaded.thresholds.values, obs.thresholds.values)
        assert loaded.mask.pairs() == obs.mask.pairs()
        assert tuple(loaded.mask.dims) == (5, 7)

    def test_round_trip_statistics_only(self, tmp_path):
        gt = generate_low_rank((4, 4), 1, 1.0, seed=23)
        mask = sample_mask_uniform((4, 4), 6, seed=24)
        thr = generate_dither_tensor(DitherSpec.uniform(2.0), 1, 6, seed=25)
        obs = strip_thresholds(observe_one_bit(gt.matrix, mask, thr))
        save_observation(obs, tmp_path / "obs")
        loaded = load_observation(tmp_path / "obs")
        assert loaded.thresholds is None
        assert np.array_equal(loaded.signs, obs.signs)

    def test_solver_run_replays_from_disk(self, tmp_path):
        # the serialized triple carries everything a solve needs
        from quantmc.solvers import ProxParams, solve_one_bit_mc

        gt = generate_low_rank((6, 6), 2, 1.0, seed=26)
        mask = sample_mask_uniform((6, 6), 14, seed=27)
        thr = generate_dither_tensor(DitherSpec.uniform(1.0), 4, 14, seed=28)
        obs = observe_one_bit(gt.matrix, mask, thr)
        save_observation(obs, tmp_path / "obs")
        loaded = load_observation(tmp_path / "obs")
        params = ProxParams(tol_feas=1e-9, tol_rel_change=1e-9)
        original = solve_one_bit_mc(build_polyhedron(obs), 1.0, params)
        replayed = solve_one_bit_mc(build_polyhedron(loaded), 1.0, params)
        assert original.matrix.tobytes() == replayed.matrix.tobytes()
        assert original.iterations == replayed.iterations


class TestValidation:
    def test_signs_must_be_pm_one(self):
        with pytest.raises(ValueError):
            OneBitObservation(
                signs=np.array([[0, 1]]),
                thresholds=None,
                mask=SampleMask.from_pairs((1, 2), [(0, 0), (0, 1)]),
                dither_spec=None,
            )

    def test_noise_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec.gaussian(0.0)
        with pytest.raises(ValueError):
            NoiseSpec(kind="poisson")
