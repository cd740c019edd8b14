"""Acceptance suite: every end-to-end contract at its stated tolerance.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s``) and
asserts the same condition, so a red test always corresponds to a FAIL line.
A criterion that holds but that the zero estimator would meet too prints
VACUOUS instead of PASS; its assert is unchanged.  The heavy Monte Carlo
criteria are seeded and deterministic.
"""

import dataclasses
import time

import numpy as np
import pytest

from quantmc.bounds import (
    SUBGAUSSIAN_TIGHTER,
    BoundInputs,
    bound_inconsistent,
    bound_noisy,
    bound_quantized,
    bound_statistics_only,
    bound_subgaussian,
    bound_uniform,
    compare_tightness,
    epsilon_decay_rate,
)
from quantmc.core import generate_low_rank, sample_mask_uniform, select_vector
from quantmc.harness import ExperimentConfig, emit_report, fit_rate, run_experiment
from quantmc.onebit import observe_one_bit, t_ave
from quantmc.quantize import (
    DitherSpec,
    QuantizerSpec,
    dithered_quantize,
    generate_dither_tensor,
    scalar_quantize,
    sign_pm1,
    stochastic_quantize,
)
from quantmc.solvers import prox_nuclear

SEED = 20250809


def _check(criterion: str, condition: bool, detail: str = "", vacuous: bool = False) -> None:
    status = "FAIL" if not condition else "VACUOUS" if vacuous else "PASS"
    print(f"[acceptance] {criterion}: {status}  {detail}".rstrip())
    assert condition, f"{criterion}: {detail}"


def test_c01_uniform_dither_cancellation():
    # dithered quantization is unbiased for unsaturated inputs
    spec = QuantizerSpec(1.0, 8)
    n_draws = 1_000_000
    t0 = time.perf_counter()
    worst = 0.0
    for i, x in enumerate((-1.5, -0.7, 0.0, 0.4, 1.2)):
        rng = np.random.Generator(np.random.Philox(SEED + i))
        tau = rng.uniform(-0.5, 0.5, n_draws)
        worst = max(worst, abs(float(np.mean(dithered_quantize(x, tau, spec))) - x))
    elapsed = time.perf_counter() - t0
    _check(
        "uniform-dither-cancellation",
        worst <= 0.005 and elapsed < 5.0,
        f"worst |mean - x| = {worst:.2e} (limit 5e-3), {elapsed:.2f}s (limit 5s)",
    )


def test_c02_stochastic_quantizer_unbiased():
    spec = QuantizerSpec(1.0, 8)
    n_draws = 1_000_000
    worst = 0.0
    for i, x in enumerate((-1.5, -0.7, 0.0, 0.4, 1.2)):
        out = stochastic_quantize(np.full(n_draws, x), spec, SEED + 10 + i)
        worst = max(worst, abs(float(out.mean()) - x))
    _check(
        "stochastic-quantizer-unbiased",
        worst <= 0.005,
        f"worst |mean - x| = {worst:.2e} (limit 5e-3)",
    )


def test_c03_one_bit_reduction_identities():
    # below the resolution, quantization is exactly a scaled sign
    failures = 0
    for delta in (1.0, 0.7):
        spec = QuantizerSpec(delta, 8)
        x = np.linspace(-0.999 * delta, 0.999 * delta, 10_000)
        x = x[x != 0.0]
        failures += int(np.count_nonzero(scalar_quantize(x, spec) != (delta / 2) * sign_pm1(x)))
        xs = np.linspace(-0.499 * delta, 0.499 * delta, 100)
        taus = np.linspace(-0.499 * delta, 0.499 * delta, 100)
        xg, tg = np.meshgrid(xs, taus)
        failures += int(np.count_nonzero(dithered_quantize(xg, tg, spec) != (delta / 2) * sign_pm1(xg + tg)))
    _check("one-bit-reduction-identities", failures == 0, f"{failures} grid failures (limit 0)")


def test_c04_threshold_distance_expectations():
    # mean threshold distances against their closed forms, 3 standard errors
    alpha = 1.0
    gt = generate_low_rank((20, 20), 2, alpha, seed=SEED)
    mask = sample_mask_uniform((20, 20), 200, seed=SEED + 1)
    energy = float(np.sum(select_vector(gt, mask) ** 2))
    n_seeds, m = 1000, 50
    cases = [
        ("power2-uniform", DitherSpec.uniform(alpha), 2, DitherSpec.uniform(alpha).variance + energy / 200),
        ("power2-gaussian", DitherSpec.gaussian(0.6), 2, 0.36 + energy / 200),
        ("power1-uniform", DitherSpec.uniform(alpha), 1, alpha / 2 + energy / (2 * alpha * 200)),
    ]
    details = []
    ok = True
    for name, spec, power, target in cases:
        samples = np.empty(n_seeds)
        for seed in range(n_seeds):
            thr = generate_dither_tensor(spec, m, 200, seed=SEED + 100 + seed)
            obs = observe_one_bit(gt, mask, thr)
            samples[seed] = t_ave(gt, obs, power)
        se = samples.std(ddof=1) / np.sqrt(n_seeds)
        dev = abs(samples.mean() - target)
        ok = ok and dev <= 3 * se
        details.append(f"{name}: |dev|={dev:.2e} vs 3se={3 * se:.2e}")
    _check("threshold-distance-expectations", ok, "; ".join(details))


def test_c05_sign_expectation_identity():
    # E sign(x + tau) = x / lam for tau uniform on [-lam, lam]
    lam = 1.0
    rng = np.random.Generator(np.random.Philox(SEED + 5))
    tau = rng.uniform(-lam, lam, 1_000_000)
    worst = 0.0
    for x in np.linspace(-lam, lam, 11):
        worst = max(worst, abs(float(np.mean(sign_pm1(x + tau))) - x / lam))
    _check("sign-expectation-identity", worst <= 0.005, f"worst deviation {worst:.2e} (limit 5e-3)")


def test_c06_prox_nuclear_svd_oracle():
    rng = np.random.default_rng(SEED + 6)
    worst = 0.0
    for _ in range(100):
        Z = rng.standard_normal((6, 5))
        s_in = np.linalg.svd(Z, compute_uv=False)
        for theta in (0.0, 0.3, 2.0):
            s_out = np.linalg.svd(prox_nuclear(Z, theta), compute_uv=False)
            worst = max(worst, float(np.max(np.abs(s_out - np.maximum(s_in - theta, 0.0)))))
    _check("prox-nuclear-svd-oracle", worst <= 1e-10, f"worst sv deviation {worst:.2e} (limit 1e-10)")


def _zero_estimator_detail(records) -> str:
    trivial = sum(r.trivial_solution for r in records)
    vacuous = sum(r.bound_vacuous for r in records)
    return f"; X = 0 on {trivial} of {len(records)}, X = 0 meets the bound on {vacuous} of {len(records)}"


def _criterion7_config(**overrides):
    base = dict(
        scenario="quantized", n1=32, n2=32, r=2, alpha=1.0, delta=0.25, K=8,
        dither_kind="uniform", m_prime=512, trials=50, base_seed=SEED + 7,
        epsilon=0.05,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_c07_quantized_mc_recovery_bound():
    t0 = time.perf_counter()
    records, _ = run_experiment(_criterion7_config())
    elapsed = time.perf_counter() - t0
    converged = [r for r in records if r.converged]
    ok_rate = np.mean([r.bound_satisfied for r in converged])
    median_err = float(np.median([r.err_fro for r in converged]))
    bound = records[0].bound_value
    _check(
        "quantized-mc-recovery-bound",
        len(converged) > 0 and ok_rate >= 0.98 and median_err * 5 <= bound and elapsed < 300,
        f"satisfied {ok_rate:.0%} (need 98%), median err {median_err:.2f} vs bound/5 = {bound / 5:.2f}, "
        f"{elapsed:.0f}s (limit 300s)" + _zero_estimator_detail(converged),
        # every error measured is the zero matrix's own
        vacuous=all(r.trivial_solution for r in converged),
    )


def test_c07_oracle_radius_beats_zero():
    # the theorem radius above admits the zero matrix, so that check passes
    # without a solve; at the oracle radius the ball solver must run and
    # land well inside the zero estimator's rel_err of 1
    records, _ = run_experiment(_criterion7_config(delta_policy="oracle"))
    median_rel = float(np.median([r.rel_err for r in records]))
    converged = sum(r.converged for r in records)
    _check(
        "quantized-mc-oracle-radius-beats-zero",
        median_rel <= 0.6,
        f"median rel_err {median_rel:.3f} (limit 0.6; X = 0 gives 1.0), "
        f"{converged} of {len(records)} solves converged",
    )


@pytest.fixture(scope="module")
def c08_run():
    cfg = ExperimentConfig(
        scenario="onebit_dithers_known", n1=32, n2=32, r=2, alpha=1.0,
        dither_kind="uniform", dither_param=1.0, m=20, m_prime=512,
        trials=50, base_seed=SEED + 8, epsilon=0.1,
        max_iters=40000, tol_feas=1e-9, tol_rel_change=1e-9,
    )
    return run_experiment(cfg)


def test_c08_one_bit_known_dither_consistency(c08_run):
    records, summary = c08_run
    consistency_rate = summary["consistency_rate"]
    uniform_rows = [r for r in records if r.bound_id == "uniform"]
    consistent_ok = all(r.bound_satisfied for r in uniform_rows if r.zeta == 0)
    inconsistent_rows = [r for r in records if r.bound_id == "inconsistent"]
    zeta_bound_ok = all(r.bound_satisfied for r in inconsistent_rows)
    _check(
        "one-bit-known-dither-consistency",
        consistency_rate >= 0.90 and consistent_ok and zeta_bound_ok,
        f"zeta=0 in {consistency_rate:.0%} of trials (need 90%), "
        f"uniform bound on consistent trials: {consistent_ok}, "
        f"measured-zeta bound on all trials: {zeta_bound_ok}",
    )


def test_c08_one_bit_beats_zero(c08_run):
    records, _ = c08_run
    uniform_rel = [r.rel_err for r in records if r.bound_id == "uniform"]
    median_rel = float(np.median(uniform_rel))
    _check(
        "one-bit-known-dither-beats-zero",
        median_rel <= 0.8,
        f"median rel_err {median_rel:.3f} over {len(uniform_rel)} uniform rows (limit 0.8; X = 0 gives 1.0)",
    )


def test_c09_statistics_only_recovery_bound():
    cfg = ExperimentConfig(
        scenario="onebit_stats_only", n1=24, n2=24, r=1, alpha=1.0, delta=2.0,
        m_prime=288, trials=50, base_seed=SEED + 9, epsilon=0.05,
    )
    records, _ = run_experiment(cfg)
    rate = np.mean([r.bound_satisfied for r in records])
    _check(
        "statistics-only-recovery-bound",
        rate == 1.0,
        f"satisfied {rate:.0%} of 50 trials (need 100%), bound {records[0].bound_value:.2f}"
        + _zero_estimator_detail(records)
        + "; at this size X = 0 does as well, see statistics-only-beats-zero for 384x384",
        vacuous=np.mean([r.bound_vacuous for r in records]) == 1.0,
    )


def test_c10_noisy_one_bit_recovery_bound():
    sigma, m_prime = 0.1, 288
    rng = np.random.default_rng(SEED + 10)
    norms = np.linalg.norm(rng.normal(0.0, sigma, size=(1000, m_prime)), axis=1)
    beta = float(np.percentile(norms, 99.0))
    cfg = ExperimentConfig(
        scenario="onebit_noisy", n1=24, n2=24, r=1, alpha=1.0, delta=2.0,
        m_prime=m_prime, noise_sigma=sigma, beta=beta, trials=50,
        base_seed=SEED + 10, epsilon=0.05,
    )
    records, _ = run_experiment(cfg)
    rate = np.mean([r.bound_satisfied for r in records])
    _check(
        "noisy-one-bit-recovery-bound",
        rate >= 0.98,
        f"satisfied {rate:.0%} of 50 trials (need 98%), beta = {beta:.3f}" + _zero_estimator_detail(records),
        vacuous=np.mean([r.bound_vacuous for r in records]) >= 0.98,
    )


def _sign_only_beats_zero(criterion, scenario, noise_sigma, base_seed):
    # the bound checks c09 and c10 hold for X = 0 too; at 384x384, fully
    # observed at the oracle radius, the estimator must land well below the
    # zero estimator's rel_err of 1
    cfg = ExperimentConfig(
        scenario=scenario, n1=384, n2=384, r=1, alpha=1.0, delta=2.0,
        sample_fraction=1.0, noise_sigma=noise_sigma, trials=3,
        base_seed=base_seed, epsilon=0.05, delta_policy="oracle",
    )
    records, _ = run_experiment(cfg)
    median_rel = float(np.median([r.rel_err for r in records]))
    converged = sum(r.converged for r in records)
    _check(
        criterion,
        median_rel <= 0.85,
        f"median rel_err {median_rel:.3f} (limit 0.85; X = 0 gives 1.0), "
        f"{converged} of {len(records)} solves converged",
    )


def test_c15_statistics_only_beats_zero():
    _sign_only_beats_zero("statistics-only-beats-zero", "onebit_stats_only", 0.0, SEED + 15)


def test_c16_noisy_one_bit_beats_zero():
    _sign_only_beats_zero("noisy-one-bit-beats-zero", "onebit_noisy", 0.1, SEED + 16)


def test_c17_error_rises_with_quantizer_resolution():
    # At a fixed range K delta = 2, bound_quantized is the same for every
    # delta, so no bound check sees the resolution; the oracle-radius error
    # must fall as the quantizer gets finer.  X = 0 has rel_err 1 at every
    # delta, a slope of 0.
    deltas = (0.0625, 0.125, 0.25, 0.5, 1.0)
    medians, bounds = [], set()
    for delta in deltas:
        cfg = _criterion7_config(delta=delta, K=round(2 / delta), trials=20, base_seed=777, delta_policy="oracle")
        records, _ = run_experiment(cfg)
        medians.append(float(np.median([r.rel_err for r in records])))
        bounds.add(records[0].bound_value)
    fine = [i for i, delta in enumerate(deltas) if delta <= 0.25]
    slope = float(np.polyfit(np.log(np.take(deltas, fine)), np.log(np.take(medians, fine)), 1)[0])
    _check(
        "error-rises-with-resolution",
        slope > 0.5,
        f"log-log slope of median rel_err against delta <= 0.25: {slope:.3f} (need > 0.5; X = 0 gives 0), "
        f"medians {[round(m, 3) for m in medians]} at delta {list(deltas)}, "
        f"bound_quantized {', '.join(f'{b:.2f}' for b in sorted(bounds))}",
    )


def test_c11_bound_reduction_identities():
    rng = np.random.default_rng(SEED + 11)
    exact = True
    for _ in range(10_000):
        p = BoundInputs(
            n1=int(rng.integers(1, 64)),
            n2=int(rng.integers(1, 64)),
            r=int(rng.integers(1, 6)),
            alpha=float(rng.uniform(0.01, 8)),
            epsilon=float(rng.uniform(0, 3)),
            delta=float(rng.uniform(0, 4)),
            T=float(rng.uniform(0, 2)),
            beta=float(rng.uniform(0, 6)),
            m=int(rng.integers(1, 40)),
            m_prime=int(rng.integers(1, 4000)),
        )
        exact = exact and bound_inconsistent(dataclasses.replace(p, zeta=0)).value == bound_subgaussian(p).value
        exact = exact and bound_noisy(dataclasses.replace(p, beta=0.0)).value == bound_statistics_only(p).value
        exact = exact and (
            bound_statistics_only(dataclasses.replace(p, K=1)).value
            == bound_quantized(dataclasses.replace(p, K=1)).value
        )
        if not exact:
            break
    _check("bound-reduction-identities", exact, "3 identities x 10^4 random draws, exact equality")


def test_c12_uniform_vs_subgaussian_tightness():
    rng = np.random.default_rng(SEED + 12)
    exceptions = 0
    for _ in range(10_000):
        r = int(rng.integers(1, 10))
        alpha = float(rng.uniform(0.05, 10))
        eps = float(rng.uniform(0, (r + 1 / 3) * alpha / 8))
        p = BoundInputs(
            n1=int(rng.integers(1, 64)), n2=int(rng.integers(1, 64)), r=r,
            alpha=alpha, epsilon=eps, T=alpha**2 / 3,
        )
        if bound_uniform(p).value > bound_subgaussian(p).value:
            exceptions += 1
        if compare_tightness(p).verdict == SUBGAUSSIAN_TIGHTER:
            exceptions += 1
    _check(
        "uniform-vs-subgaussian-tightness",
        exceptions == 0,
        f"{exceptions} exceptions over 10^4 draws satisfying (r + 1/3) alpha >= 8 eps",
    )


def test_c13_epsilon_and_error_decay_rates():
    grid = [10**k for k in range(3, 8)]
    slope_q = epsilon_decay_rate(BoundInputs(n1=10, n2=10, r=2, alpha=1.0, delta=0.0, K=8), grid, "quantized")
    alpha = 1e-3
    slope_s = epsilon_decay_rate(
        BoundInputs(n1=10, n2=10, r=1, alpha=alpha, T=alpha**2 / 3, m=1), grid, "subgaussian"
    )
    analytic_ok = -0.41 <= slope_q <= -0.39 and -0.41 <= slope_s <= -0.39

    cfg = _criterion7_config(
        scenario="rate_sweep", m_prime=None, m_prime_grid=(128, 256, 512, 1024),
        max_iters=4000, tol_rel_change=3e-6,
    )
    records, _ = run_experiment(cfg)
    fit = fit_rate(records)
    _check(
        "epsilon-and-error-decay-rates",
        analytic_ok and fit.slope < 0,
        f"analytic slopes {slope_q:.4f}, {slope_s:.4f} (need [-0.41, -0.39]); "
        f"empirical sweep slope {fit.slope:.3f} +- {fit.half_width:.3f} (need < 0), "
        f"medians {[round(v, 2) for v in fit.medians]}",
    )


def test_c14_end_to_end_determinism(tmp_path):
    configs = [
        _criterion7_config(trials=5),
        ExperimentConfig(
            scenario="onebit_dithers_known", n1=32, n2=32, r=2, alpha=1.0,
            dither_kind="uniform", dither_param=1.0, m=20, m_prime=512,
            trials=2, base_seed=SEED + 14, epsilon=0.1,
            max_iters=40000, tol_feas=1e-9, tol_rel_change=1e-9,
        ),
        # the theorem radius above makes the ball solver return zero without
        # a step; the oracle radius runs its primal-dual loop
        _criterion7_config(
            scenario="rate_sweep", m_prime=None, m_prime_grid=(128, 256, 512, 1024),
            trials=1, delta_policy="oracle", max_iters=4000, tol_rel_change=3e-6,
        ),
        # the statistics-only ball solve against the sign surrogate
        ExperimentConfig(
            scenario="onebit_stats_only", n1=24, n2=24, r=1, alpha=1.0, delta=2.0,
            m_prime=288, trials=1, base_seed=SEED + 14, epsilon=0.05, delta_policy="oracle",
        ),
        # 128x128 ball solves, whose soft-thresholds run on the Gram path
        _criterion7_config(
            n1=128, n2=128, m_prime=None, sample_fraction=0.3, trials=1,
            delta_policy="oracle", max_iters=4000, tol_rel_change=3e-6,
        ),
    ]
    identical = True
    for idx, cfg in enumerate(configs):
        rec_a, _ = run_experiment(cfg)
        rec_b, _ = run_experiment(cfg)
        a = emit_report(rec_a, tmp_path / f"{idx}_a.csv").read_bytes()
        b = emit_report(rec_b, tmp_path / f"{idx}_b.csv").read_bytes()
        identical = identical and a == b
    _check("end-to-end-determinism", identical, "5 configs x 2 runs, byte-identical CSV")
