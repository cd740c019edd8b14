"""Scalar, dithered, stochastic, and one-bit quantization."""

import numpy as np
import pytest

from quantmc.core import SampleMask, project, sample_mask_uniform
from quantmc.quantize import (
    DitherSpec,
    QuantizerSpec,
    dithered_quantize,
    generate_dither_tensor,
    one_bit,
    quantize_matrix,
    scalar_quantize,
    sign_pm1,
    stochastic_quantize,
)


class TestQuantizerSpec:
    def test_saturation_levels(self):
        spec = QuantizerSpec(0.5, 8)
        assert spec.saturation == 2.0
        assert spec.stochastic_saturation == 4.0

    @pytest.mark.parametrize("delta,levels", [(0.0, 4), (-1.0, 4), (1.0, 0)])
    def test_invalid(self, delta, levels):
        with pytest.raises(ValueError):
            QuantizerSpec(delta, levels)


class TestScalarQuantize:
    def test_hand_values(self):
        assert scalar_quantize(0.3, QuantizerSpec(1.0, 4)) == 0.5
        assert scalar_quantize(-1.2, QuantizerSpec(0.5, 8)) == -1.25

    def test_saturates_at_alphabet_edge(self):
        assert scalar_quantize(10.0, QuantizerSpec(1.0, 4)) == 2.0
        assert scalar_quantize(-10.0, QuantizerSpec(1.0, 4)) == -2.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            scalar_quantize(np.inf, QuantizerSpec(1.0, 4))

    def test_one_bit_reduction_below_resolution(self):
        # exact equality with (delta/2) * sign(x) for 0 < |x| < delta
        spec = QuantizerSpec(0.7, 6)
        x = np.linspace(-0.7 * 0.999, 0.7 * 0.999, 10_000)
        q = scalar_quantize(x, spec)
        assert np.array_equal(q, 0.35 * sign_pm1(x))

    def test_error_bound_half_delta_when_unsaturated(self):
        spec = QuantizerSpec(0.25, 8)
        rng = np.random.default_rng(0)
        x = rng.uniform(-(spec.levels - 1) * spec.delta / 2, (spec.levels - 1) * spec.delta / 2, 50_000)
        assert np.max(np.abs(scalar_quantize(x, spec) - x)) <= spec.delta / 2

    def test_output_always_in_alphabet(self):
        spec = QuantizerSpec(0.5, 8)
        rng = np.random.default_rng(1)
        x = rng.uniform(-20, 20, 10_000)
        q = scalar_quantize(x, spec)
        assert np.max(np.abs(q)) <= spec.saturation
        k = q / (spec.delta / 2)
        assert np.allclose(k, np.round(k), atol=1e-12)


class TestDitheredQuantize:
    def test_hand_values(self):
        spec = QuantizerSpec(1.0, 4)
        assert dithered_quantize(0.3, 0.4, spec) == 0.5
        assert dithered_quantize(0.3, -0.4, spec) == -0.5
        assert dithered_quantize(0.0, 0.0, spec) == 0.5  # tie resolves upward

    def test_one_bit_reduction_with_dither(self):
        # exact equality with (delta/2) * sign(x + tau) for |x|, |tau| < delta/2
        spec = QuantizerSpec(1.0, 4)
        xs = np.linspace(-0.499, 0.499, 100)
        taus = np.linspace(-0.499, 0.499, 100)
        xg, tg = np.meshgrid(xs, taus)
        q = dithered_quantize(xg, tg, spec)
        assert np.array_equal(q, 0.5 * sign_pm1(xg + tg))

    def test_matches_one_bit_with_negated_threshold(self):
        spec = QuantizerSpec(1.0, 8)
        rng = np.random.default_rng(7)
        x = rng.uniform(-0.49, 0.49, 2000)
        tau = rng.uniform(-0.5, 0.5, 2000)
        assert np.array_equal(dithered_quantize(x, tau, spec), 0.5 * one_bit(x, -tau))

    def test_nonfinite_dither_rejected(self):
        with pytest.raises(ValueError):
            dithered_quantize(0.1, np.nan, QuantizerSpec(1.0, 4))


class TestStochasticQuantize:
    def test_exact_grid_point_is_deterministic(self):
        spec = QuantizerSpec(1.0, 8)
        out = stochastic_quantize(np.full(1000, 3.0), spec, 0)
        assert np.all(out == 3.0)

    def test_two_point_support_and_probability(self):
        spec = QuantizerSpec(1.0, 8)
        out = stochastic_quantize(np.full(200_000, 0.75), spec, 123)
        values, counts = np.unique(out, return_counts=True)
        assert np.array_equal(values, [0.0, 1.0])
        # p(round down) = 1 - 0.75 = 0.25, binomial 4-sigma margin ~ 0.004
        assert abs(counts[0] / out.size - 0.25) < 0.005

    def test_unbiased_monte_carlo(self):
        spec = QuantizerSpec(1.0, 8)
        out = stochastic_quantize(np.full(1_000_000, 0.75), spec, 11)
        assert abs(out.mean() - 0.75) <= 0.002

    def test_saturation_and_alphabet(self):
        spec = QuantizerSpec(1.0, 3)
        out = stochastic_quantize(np.linspace(-10, 10, 5000), spec, 5)
        assert np.max(np.abs(out)) <= spec.stochastic_saturation
        assert np.allclose(out, np.round(out / spec.delta) * spec.delta, atol=1e-12)


class TestOneBit:
    def test_hand_values(self):
        assert one_bit(0.3, 0.5) == -1
        assert one_bit(0.5, 0.5) == 1
        assert one_bit(0.7, 0.5) == 1

    def test_sign_pm1_tie(self):
        assert sign_pm1(0.0) == 1
        assert np.array_equal(sign_pm1(np.array([-0.0, 0.0, -1e-300])), [1, 1, -1])


class TestDitherTensor:
    def test_uniform_variance_monte_carlo(self):
        t = generate_dither_tensor(DitherSpec.uniform(1.0), 1000, 1000, seed=0)
        assert 0.330 <= t.var() <= 0.337

    def test_gaussian_variance_within_one_percent(self):
        t = generate_dither_tensor(DitherSpec.gaussian(0.7), 1000, 1000, seed=1)
        assert abs(t.var() - 0.49) <= 0.01 * 0.49

    def test_zero_sigma_rejected(self):
        with pytest.raises(ValueError):
            DitherSpec.gaussian(0.0)

    def test_zero_half_width_rejected(self):
        with pytest.raises(ValueError):
            DitherSpec.uniform(0.0)

    def test_same_seed_identical(self):
        a = generate_dither_tensor(DitherSpec.uniform(0.5), 3, 10, seed=7)
        b = generate_dither_tensor(DitherSpec.uniform(0.5), 3, 10, seed=7)
        assert a.tobytes() == b.tobytes()

    def test_read_only(self):
        t = generate_dither_tensor(DitherSpec.uniform(0.5), 2, 3, seed=0)
        with pytest.raises(ValueError):
            t[0, 0] = 0.0

    def test_none_kind_gives_zeros(self):
        t = generate_dither_tensor(DitherSpec.none(), 2, 4, seed=0)
        assert np.all(t == 0.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            generate_dither_tensor(DitherSpec.uniform(1.0), 0, 5, seed=0)

    def test_variance_property(self):
        assert DitherSpec.uniform(1.0).variance == pytest.approx(1 / 3)
        assert DitherSpec.gaussian(0.5).variance == 0.25
        assert DitherSpec.none().variance == 0.0



class TestQuantizeMatrix:
    def test_single_entry_no_dither(self):
        mask = sample_mask_uniform((1, 1), 1, seed=0)
        Q = quantize_matrix(np.array([[0.3]]), mask, QuantizerSpec(1.0, 4))
        assert Q[0, 0] == 0.5

    def test_off_mask_entries_are_zero(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, (6, 6))
        mask = sample_mask_uniform((6, 6), 10, seed=3)
        Q = quantize_matrix(X, mask, QuantizerSpec(0.5, 8))
        off = Q.copy()
        off[mask.rows, mask.cols] = 0.0
        assert np.all(off == 0.0)

    def test_uniform_dither_requires_half_resolution(self):
        mask = sample_mask_uniform((2, 2), 4, seed=0)
        with pytest.raises(ValueError):
            quantize_matrix(np.zeros((2, 2)), mask, QuantizerSpec(1.0, 4), DitherSpec.uniform(0.3))

    def test_masked_entries_in_alphabet(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, (5, 5))
        mask = sample_mask_uniform((5, 5), 12, seed=5)
        spec = QuantizerSpec(0.5, 8)
        Q = quantize_matrix(X, mask, spec, DitherSpec.uniform(0.25), seed=9)
        vals = Q[mask.rows, mask.cols]
        k = vals / (spec.delta / 2)
        assert np.allclose(k, np.round(k), atol=1e-12) and np.max(np.abs(vals)) <= spec.saturation

    def test_dither_mean_recovers_projection(self):
        # mean over dither seeds approaches P_mask(X) entrywise (unsaturated)
        spec = QuantizerSpec(1.0, 8)
        X = np.array([[0.3, -1.4], [2.2, 0.0]])
        mask = SampleMask((2, 2), [0, 1, 0], [0, 0, 1])
        seeds = 100_000
        acc = np.zeros_like(X)
        for seed in range(seeds):
            acc += quantize_matrix(X, mask, spec, DitherSpec.uniform(0.5), seed=seed)
        assert np.max(np.abs(acc / seeds - project(X, mask))) <= 0.01

    def test_deterministic(self):
        X = np.linspace(-1, 1, 16).reshape(4, 4)
        mask = sample_mask_uniform((4, 4), 9, seed=1)
        a = quantize_matrix(X, mask, QuantizerSpec(0.25, 8), DitherSpec.uniform(0.125), seed=3)
        b = quantize_matrix(X, mask, QuantizerSpec(0.25, 8), DitherSpec.uniform(0.125), seed=3)
        assert a.tobytes() == b.tobytes()
