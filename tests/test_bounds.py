"""Closed-form bound evaluators, tightness comparison, and decay-rate fits."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantmc.bounds import (
    CONDITION_VIOLATED,
    SUBGAUSSIAN_TIGHTER,
    UNIFORM_TIGHTER,
    BoundInputs,
    bound_inconsistent,
    bound_noisy,
    bound_quantized,
    bound_statistics_only,
    bound_subgaussian,
    bound_uniform,
    compare_tightness,
    epsilon_decay_rate,
    loglog_slope,
    smallest_epsilon,
)


def _inputs(**kw):
    base = dict(n1=10, n2=10, r=1, alpha=1.0)
    base.update(kw)
    return BoundInputs(**base)


class TestBoundQuantized:
    def test_hand_value(self):
        v = bound_quantized(_inputs(r=2, epsilon=0.05, K=4, delta=0.5))
        assert v.value == pytest.approx(2 * math.sqrt(200 * 1.05), rel=1e-12)
        assert v.value == pytest.approx(28.983, abs=5e-4)

    def test_degenerate_zero(self):
        v = bound_quantized(_inputs(epsilon=0.0, delta=0.0))
        assert v.value == 0.0 and math.isnan(v.failure_probability_exponent)
        assert "degenerate" in v.flags

    def test_doubling_rank_scales_by_sqrt2(self):
        lo = bound_quantized(_inputs(r=2, epsilon=0.1, K=2, delta=0.3))
        hi = bound_quantized(_inputs(r=4, epsilon=0.1, K=2, delta=0.3))
        assert hi.value == pytest.approx(math.sqrt(2) * lo.value, rel=1e-12)

    def test_exponent_closed_form(self):
        p = _inputs(r=2, epsilon=0.05, K=4, delta=0.5, m_prime=500, C=2.0)
        v = bound_quantized(p)
        expected = 2 * p.alpha * (p.n1 + p.n2) * p.r * math.sqrt(p.n1 * p.n2) / v.value
        expected -= p.epsilon**2 * p.m_prime / p.C
        assert v.failure_probability_exponent == pytest.approx(expected, rel=1e-12)


class TestBoundSubgaussian:
    def test_hand_value(self):
        v = bound_subgaussian(_inputs(T=1 / 3, epsilon=0.0))
        assert v.value == pytest.approx(math.sqrt(800 / 3), rel=1e-12)
        assert v.value == pytest.approx(16.330, abs=5e-4)

    def test_alpha_zero_rejected(self):
        with pytest.raises(ValueError):
            _inputs(alpha=0.0)

    def test_epsilon_term_scales_linearly_in_squared_value(self):
        base = _inputs(T=0.2, epsilon=0.0)
        lo = bound_subgaussian(dataclasses.replace(base, epsilon=0.07))
        hi = bound_subgaussian(dataclasses.replace(base, epsilon=0.14))
        floor = bound_subgaussian(base)
        ratio = (hi.value**2 - floor.value**2) / (lo.value**2 - floor.value**2)
        assert ratio == pytest.approx(2.0, rel=1e-9)


class TestBoundUniform:
    def test_hand_value(self):
        v = bound_uniform(_inputs(epsilon=0.01))
        assert v.value == pytest.approx(4.0, rel=1e-12)

    def test_epsilon_zero_flagged_degenerate(self):
        v = bound_uniform(_inputs(epsilon=0.0))
        assert v.value == 0.0 and math.isnan(v.failure_probability_exponent)
        assert "degenerate" in v.flags

    def test_quadrupling_epsilon_doubles_value(self):
        lo = bound_uniform(_inputs(epsilon=0.02))
        hi = bound_uniform(_inputs(epsilon=0.08))
        assert hi.value == pytest.approx(2 * lo.value, rel=1e-12)

    def test_exponent_closed_form(self):
        p = _inputs(r=3, epsilon=0.02, m=5, m_prime=200)
        v = bound_uniform(p)
        expected = 0.5 * math.sqrt(p.alpha / p.epsilon) * (p.n1 + p.n2) * p.r
        expected -= p.epsilon**2 * p.m * p.m_prime / (2 * p.alpha**2)
        assert v.failure_probability_exponent == pytest.approx(expected, rel=1e-9)


class TestBoundInconsistent:
    def test_reduces_to_subgaussian_at_zero_zeta(self):
        p = _inputs(T=1 / 3, epsilon=0.02, m=4, m_prime=100)
        assert bound_inconsistent(p).value == bound_subgaussian(p).value

    def test_hand_value(self):
        v = bound_inconsistent(_inputs(T=1 / 3, epsilon=0.0, zeta=1))
        assert v.value == pytest.approx(math.sqrt(100 * (2 + 8 + 2 / 3)), rel=1e-12)
        assert v.value == pytest.approx(32.660, abs=5e-4)

    def test_strictly_increasing_in_zeta(self):
        values = [bound_inconsistent(_inputs(T=0.1, epsilon=0.01, zeta=z)).value for z in range(6)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestBoundStatisticsOnly:
    def test_hand_value(self):
        v = bound_statistics_only(_inputs(epsilon=0.0, delta=2.0))
        assert v.value == pytest.approx(20.0, rel=1e-12)
        assert v.flags == ()

    def test_hypothesis_violation_flagged_but_computed(self):
        v = bound_statistics_only(_inputs(epsilon=0.0, delta=1.0))
        assert "hypothesis_violated" in v.flags
        assert v.value == pytest.approx(10.0, rel=1e-12)

    def test_zero_value_degenerate(self):
        v = bound_statistics_only(_inputs(epsilon=0.0, delta=0.0))
        assert v.value == 0.0 and "degenerate" in v.flags

    def test_equals_quantized_at_single_level(self):
        p = _inputs(r=2, epsilon=0.03, delta=2.5, K=1)
        assert bound_statistics_only(p).value == bound_quantized(p).value


class TestBoundNoisy:
    def test_reduces_to_statistics_only_at_zero_beta(self):
        p = _inputs(r=2, epsilon=0.05, delta=2.0)
        assert bound_noisy(p).value == bound_statistics_only(p).value

    def test_hand_value_with_beta(self):
        v = bound_noisy(_inputs(epsilon=0.0, delta=2.0, beta=3.0))
        assert v.value == pytest.approx(23.0, rel=1e-12)

    def test_deviation_terms_cross_at_denominator(self):
        # delta1 = eps^2/d^2 and delta2 = eps/d coincide exactly when eps = d
        p = _inputs(delta=2.0, sigma1=0.5, sigma2=0.5)
        denom = max(p.alpha, p.sigma2) + p.delta * max(p.alpha, p.sigma1) + p.delta**2 / 4
        below = bound_noisy(dataclasses.replace(p, epsilon=0.9 * denom))
        at = bound_noisy(dataclasses.replace(p, epsilon=denom))
        cov = 2 * p.alpha * (p.n1 + p.n2) * p.r * math.sqrt(p.n1 * p.n2)
        core_at = 2 * math.sqrt(p.r * p.n1 * p.n2 * (denom + p.delta**2 / 4))
        # at eps = denom both deviation terms equal 1, so the exponent is cov/core - D1 m'
        assert at.failure_probability_exponent == pytest.approx(cov / core_at - p.D1 * p.m_prime, rel=1e-9)
        assert below.failure_probability_exponent > at.failure_probability_exponent


class TestReductionIdentities:
    @settings(max_examples=200, deadline=None)
    @given(
        n1=st.integers(1, 40),
        n2=st.integers(1, 40),
        r=st.integers(1, 8),
        alpha=st.floats(0.01, 10, allow_nan=False),
        eps=st.floats(0, 5, allow_nan=False),
        delta=st.floats(0, 4, allow_nan=False),
        T=st.floats(0, 3, allow_nan=False),
        beta=st.floats(0, 10, allow_nan=False),
        m=st.integers(1, 50),
        mp=st.integers(1, 5000),
    )
    def test_exact_reductions(self, n1, n2, r, alpha, eps, delta, T, beta, m, mp):
        r = min(r, n1, n2)
        p = BoundInputs(n1=n1, n2=n2, r=r, alpha=alpha, epsilon=eps, delta=delta, T=T, m=m, m_prime=mp)
        assert bound_inconsistent(dataclasses.replace(p, zeta=0)).value == bound_subgaussian(p).value
        assert bound_noisy(dataclasses.replace(p, beta=0.0)).value == bound_statistics_only(p).value
        assert bound_statistics_only(dataclasses.replace(p, K=1)).value == bound_quantized(
            dataclasses.replace(p, K=1)
        ).value


class TestMonotonicity:
    _FIELDS = {
        bound_quantized: ("epsilon", "r", "delta"),
        bound_subgaussian: ("epsilon", "r", "T"),
        bound_uniform: ("epsilon", "r"),
        bound_inconsistent: ("epsilon", "r", "T", "zeta"),
        bound_statistics_only: ("epsilon", "r", "delta"),
        bound_noisy: ("epsilon", "r", "delta", "beta"),
    }

    def test_values_nondecreasing_in_each_parameter(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            p = BoundInputs(
                n1=int(rng.integers(1, 40)),
                n2=int(rng.integers(1, 40)),
                r=1,
                alpha=float(rng.uniform(0.05, 5)),
                epsilon=float(rng.uniform(0, 2)),
                delta=float(rng.uniform(0, 3)),
                T=float(rng.uniform(0, 2)),
                zeta=int(rng.integers(0, 50)),
                beta=float(rng.uniform(0, 5)),
                K=int(rng.integers(1, 10)),
                m=int(rng.integers(1, 20)),
                m_prime=int(rng.integers(1, 2000)),
            )
            p = dataclasses.replace(p, r=int(rng.integers(1, min(p.n1, p.n2) + 1)))
            for fn, fields in self._FIELDS.items():
                base = fn(p).value
                for field in fields:
                    stepped = dataclasses.replace(p, **{field: getattr(p, field) + (1 if field in ("r", "zeta") else 0.37)})
                    assert fn(stepped).value >= base - 1e-12


class TestTightness:
    def test_hand_gap(self):
        res = compare_tightness(_inputs(epsilon=0.01))
        assert res.verdict == UNIFORM_TIGHTER
        assert res.gap == pytest.approx(100 * (8 / 3 + 0.06 - 0.16), rel=1e-12)
        assert res.gap == pytest.approx(256.67, abs=0.01)

    def test_condition_violated(self):
        # (r + 1/3) alpha < 8 eps
        res = compare_tightness(_inputs(epsilon=1.0))
        assert res.verdict == CONDITION_VIOLATED

    def test_gap_matches_bound_difference(self):
        for eps in (0.001, 0.01, 0.05):
            p = _inputs(r=2, alpha=0.8, epsilon=eps, T=0.8**2 / 3)
            res = compare_tightness(p)
            direct = bound_subgaussian(p).value ** 2 - bound_uniform(p).value ** 2
            assert abs(res.gap - direct) <= 1e-9 * max(1.0, abs(direct))

    def test_uniform_tighter_whenever_condition_holds(self):
        rng = np.random.default_rng(1)
        for _ in range(2000):
            r = int(rng.integers(1, 10))
            alpha = float(rng.uniform(0.05, 10))
            eps = float(rng.uniform(0, (r + 1 / 3) * alpha / 8))
            p = BoundInputs(n1=12, n2=9, r=r, alpha=alpha, epsilon=eps, T=alpha**2 / 3)
            res = compare_tightness(p)
            assert res.verdict != SUBGAUSSIAN_TIGHTER
            assert bound_uniform(p).value <= bound_subgaussian(p).value + 1e-12


class TestDecayRate:
    def test_planted_power_law_recovered_exactly(self):
        grid = np.array([1e3, 1e4, 1e5, 1e6, 1e7])
        eps = 3.7 * grid ** (-0.4)
        assert loglog_slope(grid, eps) == pytest.approx(-0.4, abs=1e-12)

    def test_planted_constant_has_zero_slope(self):
        grid = np.array([1e3, 1e4, 1e5, 1e6, 1e7])
        assert loglog_slope(grid, np.full(5, 2.5)) == pytest.approx(0.0, abs=1e-12)

    def test_quantized_family_slope(self):
        p = _inputs(r=2, delta=0.0, K=8)
        slope = epsilon_decay_rate(p, [10**k for k in range(3, 8)], "quantized")
        assert -0.41 <= slope <= -0.39

    def test_subgaussian_family_slope(self):
        alpha = 1e-3
        p = _inputs(alpha=alpha, T=alpha**2 / 3, m=1)
        slope = epsilon_decay_rate(p, [10**k for k in range(3, 8)], "subgaussian")
        assert -0.41 <= slope <= -0.39

    def test_grid_validation(self):
        p = _inputs(r=2, delta=0.0)
        with pytest.raises(ValueError):
            epsilon_decay_rate(p, [1000, 2000, 4000, 8000], "quantized")
        with pytest.raises(ValueError):
            epsilon_decay_rate(p, [1000, 1500, 2000, 2500, 3000], "quantized")

    def test_root_is_sign_change_point(self):
        p = _inputs(r=2, delta=0.1, K=4, m_prime=10_000)
        eps = smallest_epsilon(p, "quantized")
        above = bound_quantized(dataclasses.replace(p, epsilon=eps + 1e-8)).failure_probability_exponent
        below = bound_quantized(dataclasses.replace(p, epsilon=max(eps - 1e-8, 1e-13))).failure_probability_exponent
        assert above <= 0.0 <= below

    def test_no_root_raises_after_expansion(self):
        # an absurd covering scale keeps the exponent positive over the
        # entire expanded bracket
        p = _inputs(alpha=1e40, r=2, delta=0.0)
        with pytest.raises(RuntimeError):
            smallest_epsilon(p, "quantized")


class TestBoundInputsValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(n1=0),
            dict(r=0),
            dict(alpha=-1.0),
            dict(epsilon=-0.1),
            dict(zeta=-1),
            dict(K=0),
            dict(C=0.0),
            dict(D1=0.0),
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            _inputs(**kw)
