"""One-bit observation model, its sign polyhedron, consistency, and distance metrics."""

import numpy as np
import pytest

from quantmc.core import SampleMask, generate_low_rank, sample_mask_uniform, select_vector
from quantmc.onebit import (
    OneBitObservation,
    UnsupportedModeError,
    build_polyhedron,
    consistency_report,
    feasible_intervals,
    hamming,
    observe_one_bit,
    strip_thresholds,
    surrogate_data,
    t_ave,
    violation_measure,
)
from quantmc.quantize import DitherSpec, generate_dither_tensor, sign_pm1


def _tensor(values):
    return np.asarray(values, dtype=float)


def _one_entry_mask():
    return SampleMask((1, 1), [0], [0])


class TestObserveOneBit:
    def test_below_threshold_gives_minus_one(self):
        obs = observe_one_bit(np.array([[0.3]]), _one_entry_mask(), _tensor([[0.5]]))
        assert obs.signs[0, 0] == -1

    def test_very_low_thresholds_give_all_plus_one(self):
        gt = generate_low_rank((5, 5), 2, 1.0, seed=0)
        mask = sample_mask_uniform((5, 5), 10, seed=1)
        thr = _tensor(np.full((3, 10), -1e10))
        obs = observe_one_bit(gt, mask, thr)
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
        stacked = np.vstack([thr] * 4)
        obs = observe_one_bit(gt, mask, stacked, 0.5, seed=6)
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
        system = build_polyhedron(observe_one_bit(gt, mask, thr))
        assert system.signs.size == 91

    def test_ground_truth_always_feasible(self):
        for seed in range(5):
            gt = generate_low_rank((8, 8), 2, 1.0, seed=seed)
            mask = sample_mask_uniform((8, 8), 20, seed=seed + 50)
            thr = generate_dither_tensor(DitherSpec.uniform(1.0), 5, 20, seed=seed + 100)
            system = build_polyhedron(observe_one_bit(gt, mask, thr))
            assert violation_measure(system, gt) == 0.0

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
        mask = SampleMask((1, 2), [0, 0], [0, 1])
        lo, hi = feasible_intervals(OneBitObservation(signs, thr, mask))
        assert np.array_equal(lo, [0.2, 0.1])
        assert lo[1] == 0.1 and hi[0] == np.inf and hi[1] == 0.9


class TestViolationMeasure:
    def test_single_violated_constraint(self):
        system = OneBitObservation(np.array([[1]]), np.array([[0.5]]), _one_entry_mask())
        assert violation_measure(system, np.array([[0.3]])) == pytest.approx(0.2)

    def test_two_violations_combine_in_quadrature(self):
        mask = SampleMask((1, 2), [0, 0], [0, 1])
        system = OneBitObservation(np.array([[1, 1]]), np.array([[0.5, 0.5]]), mask)
        v = violation_measure(system, np.array([[0.2, 0.1]]))
        assert v == pytest.approx(np.sqrt(0.09 + 0.16))

    def test_feasible_is_exact_zero(self):
        system = OneBitObservation(np.array([[1]]), np.array([[0.5]]), _one_entry_mask())
        assert violation_measure(system, np.array([[0.5]])) == 0.0
        assert violation_measure(system, np.array([[0.7]])) == 0.0

    def test_tie_on_a_minus_sign_reads_zero_but_flips(self):
        # x = t on a -1 sign lies in the closed box, so the measure is zero,
        # but the +1 tie rule reads it as +1: one disagreement
        system = OneBitObservation(np.array([[-1]]), np.array([[0.5]]), _one_entry_mask())
        x = np.array([[0.5]])
        assert violation_measure(system, x) == 0.0
        assert consistency_report(x, system, np.array([[0.0]])) == 1


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
        obs = observe_one_bit(gt, mask, thr)
        assert consistency_report(gt, obs, gt) == 0

    def test_matches_brute_force_count(self):
        gt = generate_low_rank((6, 6), 2, 1.0, seed=4)
        mask = sample_mask_uniform((6, 6), 15, seed=5)
        thr = generate_dither_tensor(DitherSpec.uniform(1.0), 3, 15, seed=6)
        obs = observe_one_bit(gt, mask, thr)
        x_bar = -gt
        zeta = consistency_report(x_bar, obs, gt)
        expected = 0
        xt = select_vector(gt, mask)
        xb = select_vector(x_bar, mask)
        for ell in range(3):
            for k in range(15):
                t = thr[ell, k]
                if sign_pm1(xt[k] - t) != sign_pm1(xb[k] - t):
                    expected += 1
        per_sequence = [hamming(sign_pm1(xt - t), sign_pm1(xb - t)) for t in thr]
        assert zeta == expected == sum(per_sequence)

    def test_zeta_bounded_by_constraint_count(self):
        gt = generate_low_rank((5, 5), 1, 1.0, seed=7)
        mask = sample_mask_uniform((5, 5), 10, seed=8)
        thr = generate_dither_tensor(DitherSpec.uniform(1.0), 6, 10, seed=9)
        obs = observe_one_bit(gt, mask, thr)
        assert 0 <= consistency_report(np.full((5, 5), 1e6), obs, gt) <= 6 * 10

    def test_statistics_only_unsupported(self):
        gt = generate_low_rank((4, 4), 1, 1.0, seed=0)
        mask = sample_mask_uniform((4, 4), 8, seed=1)
        thr = generate_dither_tensor(DitherSpec.uniform(1.0), 1, 8, seed=2)
        obs = strip_thresholds(observe_one_bit(gt, mask, thr))
        with pytest.raises(UnsupportedModeError):
            consistency_report(gt, obs, gt)


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
        x_energy = float(np.sum(select_vector(gt, mask) ** 2))
        for spec in (DitherSpec.uniform(1.0), DitherSpec.gaussian(0.6)):
            samples = np.empty(10_000)
            for seed in range(samples.size):
                thr = generate_dither_tensor(spec, 3, 12, seed=seed)
                obs = observe_one_bit(gt, mask, thr)
                samples[seed] = t_ave(gt, obs, 2)
            target = spec.variance + x_energy / 12
            se = samples.std(ddof=1) / np.sqrt(samples.size)
            assert abs(samples.mean() - target) <= 3 * se

    def test_power_one_expectation_uniform_alpha(self):
        # mean of t_ave(.,1) under uniform [-alpha, alpha] dithers
        # ~ alpha/2 + ||P(X)||_F^2 / (2 alpha m_prime)
        alpha = 1.0
        gt = generate_low_rank((6, 6), 2, alpha, seed=12)
        mask = sample_mask_uniform((6, 6), 12, seed=13)
        x_energy = float(np.sum(select_vector(gt, mask) ** 2))
        samples = np.empty(10_000)
        for seed in range(samples.size):
            thr = generate_dither_tensor(DitherSpec.uniform(alpha), 3, 12, seed=seed)
            obs = observe_one_bit(gt, mask, thr)
            samples[seed] = t_ave(gt, obs, 1)
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
        obs = observe_one_bit(gt, mask, thr)
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


class TestValidation:
    def test_signs_must_be_pm_one(self):
        with pytest.raises(ValueError):
            OneBitObservation(
                signs=np.array([[0, 1]]),
                thresholds=None,
                mask=SampleMask((1, 2), [0, 0], [0, 1]),
            )

    def test_thresholds_must_match_signs(self):
        mask = SampleMask((1, 2), [0, 0], [0, 1])
        with pytest.raises(ValueError):
            OneBitObservation(np.ones((2, 2), dtype=int), np.zeros((1, 2)), mask)

    def test_negative_noise_sigma_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            observe_one_bit(np.array([[2.0]]), _one_entry_mask(), _tensor([[0.5]]), noise_sigma=-0.3)

    def test_nan_threshold_rejected(self):
        # a NaN threshold bounds nothing (its sign would be recorded as -1 and
        # the solver would return X = 0 with a NaN residual); +-inf are
        # one-sided bounds and stay allowed
        mask = SampleMask((2, 2), [0, 0, 1], [0, 1, 1])
        with pytest.raises(ValueError, match="NaN"):
            observe_one_bit(np.ones((2, 2)), mask, _tensor([[0.5, np.nan, -0.2]]))
        with pytest.raises(ValueError, match="NaN"):
            OneBitObservation(np.ones((1, 3), dtype=int), _tensor([[0.5, np.nan, -0.2]]), mask)
        obs = observe_one_bit(np.ones((2, 2)), mask, _tensor([[0.5, np.inf, -np.inf]]))
        assert obs.signs.tolist() == [[1, -1, 1]]
