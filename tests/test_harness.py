"""Experiment configs, scenario runs, CSV reports, and rate fitting."""

import dataclasses

import numpy as np
import pytest

from quantmc.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    TrialRecord,
    config_from_mapping,
    emit_report,
    fit_rate,
    load_config,
    run_experiment,
    summarize,
)

QUANTIZED_CFG = """
# quantization sanity config
scenario = quantized
n1 = 8
n2 = 8
r = 2
alpha = 1.0
delta = 0.25
K = 8
dither_kind = uniform
m_prime = 40
trials = 3
base_seed = 5
epsilon = 0.05
"""


def _planted_records(m_primes, errs_by_group, trials=5):
    records = []
    for mp, err in zip(m_primes, errs_by_group):
        for trial in range(trials):
            records.append(
                TrialRecord(
                    trial=trial, seed=trial, n1=8, n2=8, r=2, alpha=1.0, m=1, m_prime=mp,
                    delta=0.1, K=4, dither_kind="none", dither_param=0.0, noise_sigma=0.0,
                    epsilon=0.05, err_fro=err, rel_err=err, bound_id="quantized",
                    bound_value=10.0, bound_satisfied=True, zeta=None, violation=0.0,
                    iterations=1, converged=True, wall_time_ms=1.0, group=f"mprime:{mp:08d}",
                )
            )
    return records


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(QUANTIZED_CFG)
        cfg = load_config(path)
        assert cfg.scenario == "quantized"
        assert (cfg.n1, cfg.n2, cfg.r) == (8, 8, 2)
        assert cfg.delta == 0.25 and cfg.K == 8
        assert cfg.m_prime == 40 and cfg.trials == 3 and cfg.base_seed == 5

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            config_from_mapping({"scenario": "quantized", "n1": "4", "n2": "4", "r": "1", "alpha": "1", "delta": "0.1", "m_prime": "4", "bogus": "1"})

    def test_missing_required_field(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scenario="quantized", n1=4, n2=4, r=1, alpha=1.0, delta=0.1)

    def test_scenario_specific_requirements(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scenario="onebit_dithers_known", n1=4, n2=4, r=1, alpha=1.0, m_prime=4)
        with pytest.raises(ValueError):
            ExperimentConfig(scenario="onebit_noisy", n1=4, n2=4, r=1, alpha=1.0, delta=2.0, m_prime=4)
        with pytest.raises(ValueError):
            ExperimentConfig(scenario="rate_sweep", n1=4, n2=4, r=1, alpha=1.0, delta=0.1, m_prime_grid=(4, 8))

    def test_grid_parsing(self):
        cfg = config_from_mapping(
            {
                "scenario": "rate_sweep", "n1": "8", "n2": "8", "r": "2", "alpha": "1",
                "delta": "0.25", "K": "8", "m_prime_grid": "16, 24, 32, 48",
            }
        )
        assert cfg.m_prime_grid == (16, 24, 32, 48)
        assert cfg.effective_delta_policy() == "oracle"

    def test_sample_fraction(self):
        cfg = ExperimentConfig(
            scenario="quantized", n1=10, n2=10, r=1, alpha=1.0, delta=0.1, K=4, sample_fraction=0.3
        )
        assert cfg.resolved_m_prime() == 30

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("scenario quantized\n")
        with pytest.raises(ValueError):
            load_config(path)


class TestRunQuantized:
    def test_full_observation_error_dominated_by_quantization(self):
        # full mask, tiny resolution, huge alphabet: the recovery error obeys
        # the entrywise oracle err <= (delta/2) * sqrt(n1 n2)
        delta = 0.01
        cfg = ExperimentConfig(
            scenario="quantized", n1=4, n2=4, r=2, alpha=1.0, delta=delta, K=400,
            dither_kind="none", m_prime=16, trials=1, base_seed=11,
            delta_policy="oracle", tol_rel_change=1e-9,
        )
        records, _ = run_experiment(cfg)
        assert len(records) == 1
        assert records[0].err_fro <= (delta / 2) * 4.0
        assert records[0].converged

    def test_theorem_policy_is_conservative_and_satisfied(self):
        cfg = ExperimentConfig(
            scenario="quantized", n1=8, n2=8, r=2, alpha=1.0, delta=0.25, K=8,
            dither_kind="uniform", m_prime=40, trials=3, base_seed=5,
        )
        records, summary = run_experiment(cfg)
        assert all(r.bound_satisfied for r in records)
        assert summary["satisfied_quantized"] == 1.0

    def test_records_carry_bound_metadata(self):
        cfg = ExperimentConfig(
            scenario="quantized", n1=6, n2=6, r=1, alpha=1.0, delta=0.5, K=4,
            dither_kind="uniform", m_prime=18, trials=2, base_seed=0,
        )
        records, _ = run_experiment(cfg)
        assert {r.bound_id for r in records} == {"quantized"}
        assert all(r.m_prime == 18 and r.K == 4 for r in records)


class TestRunOneBit:
    def test_known_dithers_records_all_bounds(self):
        cfg = ExperimentConfig(
            scenario="onebit_dithers_known", n1=10, n2=10, r=2, alpha=1.0,
            dither_kind="uniform", dither_param=1.0, m=8, m_prime=50, trials=2,
            base_seed=3, epsilon=0.1, tol_feas=1e-9, tol_rel_change=1e-9,
        )
        records, summary = run_experiment(cfg)
        ids = {r.bound_id for r in records}
        assert ids == {"subgaussian", "inconsistent", "uniform"}
        assert summary["consistency_rate"] == 1.0
        assert all(r.zeta == 0 for r in records)

    def test_gaussian_dithers_skip_uniform_bound(self):
        cfg = ExperimentConfig(
            scenario="onebit_dithers_known", n1=8, n2=8, r=1, alpha=1.0,
            dither_kind="gaussian", dither_param=0.8, m=6, m_prime=30, trials=1,
            base_seed=4, tol_feas=1e-9,
        )
        records, _ = run_experiment(cfg)
        assert {r.bound_id for r in records} == {"subgaussian", "inconsistent"}

    def test_stats_only_scenario(self):
        cfg = ExperimentConfig(
            scenario="onebit_stats_only", n1=8, n2=8, r=1, alpha=1.0, delta=2.0,
            m_prime=40, trials=2, base_seed=6, epsilon=0.05,
        )
        records, _ = run_experiment(cfg)
        assert {r.bound_id for r in records} == {"statistics_only"}
        assert all(r.bound_satisfied for r in records)

    def test_noisy_scenario_uses_noisy_bound(self):
        cfg = ExperimentConfig(
            scenario="onebit_noisy", n1=8, n2=8, r=1, alpha=1.0, delta=2.0,
            m_prime=40, noise_sigma=0.1, trials=2, base_seed=7, epsilon=0.05,
        )
        records, _ = run_experiment(cfg)
        assert {r.bound_id for r in records} == {"noisy"}
        noiseless = dataclasses.replace(cfg, scenario="onebit_stats_only", noise_sigma=0.0)
        base_records, _ = run_experiment(noiseless)
        # the noisy bound adds the beta budget on top of the sign-only bound
        assert records[0].bound_value > base_records[0].bound_value


class TestBatchResilience:
    def test_numerical_failure_recorded_not_raised(self, monkeypatch):
        import quantmc.harness as hz

        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic failure")

        monkeypatch.setattr(hz, "solve_quantized_mc", boom)
        cfg = ExperimentConfig(
            scenario="quantized", n1=6, n2=6, r=1, alpha=1.0, delta=0.5, K=4,
            dither_kind="none", m_prime=10, trials=2, base_seed=0,
        )
        records, summary = run_experiment(cfg)
        assert len(records) == 2
        assert all(not r.converged and not r.bound_satisfied for r in records)
        assert all(np.isnan(r.err_fro) for r in records)
        assert summary["trials"] == 2

    @pytest.mark.parametrize(
        "solver, scenario, extra, bound_id",
        [
            (
                "solve_one_bit_mc", "onebit_dithers_known",
                dict(dither_kind="uniform", dither_param=1.0, m=4), "subgaussian",
            ),
            ("solve_statistics_only", "onebit_stats_only", dict(delta=2.0), "statistics_only"),
            ("solve_statistics_only", "onebit_noisy", dict(delta=2.0, noise_sigma=0.1), "noisy"),
        ],
        ids=["onebit_known", "stats_only", "noisy"],
    )
    def test_failure_row_carries_regime_bound(self, monkeypatch, solver, scenario, extra, bound_id):
        import quantmc.harness as hz

        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic failure")

        monkeypatch.setattr(hz, solver, boom)
        cfg = ExperimentConfig(
            scenario=scenario, n1=6, n2=6, r=1, alpha=1.0, m_prime=12, trials=1, base_seed=0, **extra
        )
        records, _ = run_experiment(cfg)
        assert len(records) == 1
        assert records[0].bound_id == bound_id
        assert np.isnan(records[0].err_fro) and not records[0].converged

    def test_noisy_known_dithers_reports_sign_flips(self):
        # strong pre-quantization noise flips signs; the batch still runs and
        # the measured disagreement feeds the inflated bound
        cfg = ExperimentConfig(
            scenario="onebit_dithers_known", n1=8, n2=8, r=1, alpha=1.0,
            dither_kind="uniform", dither_param=1.0, m=5, m_prime=30,
            noise_sigma=0.5, trials=3, base_seed=17, max_iters=3000,
        )
        records, summary = run_experiment(cfg)
        inconsistent = [r for r in records if r.bound_id == "inconsistent"]
        assert len(inconsistent) == 3
        assert summary["mean_zeta"] > 0
        base = [r for r in records if r.bound_id == "subgaussian"]
        for flip, ref in zip(inconsistent, base):
            assert flip.bound_value >= ref.bound_value


class TestInconsistencySweep:
    def test_zeta_median_nondecreasing_in_perturbation(self):
        cfg = ExperimentConfig(
            scenario="inconsistency_sweep", n1=10, n2=10, r=2, alpha=1.0,
            dither_kind="uniform", dither_param=1.0, m=6, m_prime=40, trials=8,
            base_seed=9, perturb_scales=(0.0, 0.25, 0.5, 1.0, 2.0),
        )
        records, _ = run_experiment(cfg)
        groups = sorted({r.group for r in records})
        medians = [np.median([r.zeta for r in records if r.group == g]) for g in groups]
        assert all(a <= b for a, b in zip(medians, medians[1:]))
        assert medians[0] == 0  # zero perturbation is consistent

    def test_bounds_scale_with_measured_zeta(self):
        cfg = ExperimentConfig(
            scenario="inconsistency_sweep", n1=8, n2=8, r=1, alpha=1.0,
            dither_kind="uniform", dither_param=1.0, m=4, m_prime=30, trials=3,
            base_seed=10, perturb_scales=(0.0, 3.0),
        )
        records, _ = run_experiment(cfg)
        small = [r for r in records if r.group == "scale:000"]
        large = [r for r in records if r.group == "scale:001"]
        assert all(s.bound_value <= l.bound_value for s, l in zip(small, large))


class TestRateSweep:
    def test_planted_decay_recovered(self):
        records = _planted_records([100, 200, 400, 800], [10.0 * mp ** (-0.4) for mp in (100, 200, 400, 800)])
        fit = fit_rate(records)
        assert fit.slope == pytest.approx(-0.4, abs=1e-12)

    def test_planted_constant_zero_slope(self):
        records = _planted_records([100, 200, 400, 800], [2.0, 2.0, 2.0, 2.0])
        assert fit_rate(records).slope == pytest.approx(0.0, abs=1e-12)

    def test_insufficient_groups_rejected(self):
        records = _planted_records([100, 200, 400], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            fit_rate(records)

    def test_real_sweep_slope_negative(self):
        cfg = ExperimentConfig(
            scenario="rate_sweep", n1=16, n2=16, r=2, alpha=1.0, delta=0.25, K=8,
            dither_kind="uniform", m_prime_grid=(48, 96, 160, 256), trials=6,
            base_seed=13, max_iters=4000, tol_rel_change=3e-6,
        )
        records, summary = run_experiment(cfg)
        assert summary["rate_slope"] < 0
        fit = fit_rate(records)
        assert fit.slope == summary["rate_slope"]
        assert len(fit.m_primes) == 4


class TestEmitReport:
    def test_header_only_for_empty_records(self, tmp_path):
        path = emit_report([], tmp_path / "empty.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        data = [ln for ln in lines[1:] if ln and not ln.startswith("#")]
        assert data == []

    def test_three_records_three_rows(self, tmp_path):
        records = _planted_records([100], [1.0], trials=3)
        path = emit_report(records, tmp_path / "three.csv")
        lines = path.read_text().splitlines()
        data = [ln for ln in lines[1:] if ln and not ln.startswith("#")]
        assert len(data) == 3

    def test_reemission_is_byte_identical(self, tmp_path):
        records = _planted_records([100, 200, 400, 800], [4.0, 3.0, 2.0, 1.0])
        a = emit_report(records, tmp_path / "a.csv").read_bytes()
        b = emit_report(records, tmp_path / "b.csv").read_bytes()
        assert a == b

    def test_summary_block_is_commented(self, tmp_path):
        records = _planted_records([100], [1.0], trials=2)
        text = emit_report(records, tmp_path / "s.csv").read_text()
        tail = [ln for ln in text.splitlines() if ln.startswith("#")]
        assert any("median_err_fro" in ln for ln in tail)

    def test_stable_timings_zeroes_wall_time(self, tmp_path):
        records = _planted_records([100], [1.0], trials=1)
        stable = emit_report(records, tmp_path / "t0.csv").read_text()
        live = emit_report(records, tmp_path / "t1.csv", stable_timings=False).read_text()
        idx = CSV_COLUMNS.index("wall_time_ms")
        assert stable.splitlines()[1].split(",")[idx] == "0.0"
        assert live.splitlines()[1].split(",")[idx] == "1.0"


class TestDeterminism:
    def test_config_to_csv_is_pure(self, tmp_path):
        cfg = ExperimentConfig(
            scenario="quantized", n1=8, n2=8, r=2, alpha=1.0, delta=0.25, K=8,
            dither_kind="uniform", m_prime=40, trials=3, base_seed=5,
        )
        rec_a, _ = run_experiment(cfg)
        rec_b, _ = run_experiment(cfg)
        a = emit_report(rec_a, tmp_path / "a.csv").read_bytes()
        b = emit_report(rec_b, tmp_path / "b.csv").read_bytes()
        assert a == b

    def test_summarize_stable_key_order(self):
        records = _planted_records([100, 200, 400, 800], [4.0, 3.0, 2.0, 1.0])
        assert list(summarize(records)) == list(summarize(records))
