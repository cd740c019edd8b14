"""Experiment configs, scenario runs, CSV reports, and rate fitting."""

import dataclasses
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import quantmc.harness
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
    _t_quantile,
)
from quantmc.solvers import solve_quantized_mc

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
                    iterations=1, converged=True, wall_time_ms=1.0,
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

    SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
    def test_shipped_config_loads(self, path):
        # a key the harness no longer knows, or a value its scenario does
        # not read, would fail here before any trial runs
        cfg = load_config(path)
        assert cfg.out == f"{path.stem}_report.csv"

    def test_shipped_configs_are_found(self):
        # the test above runs once per file the glob finds
        assert [p.name for p in self.SHIPPED_CONFIGS] == [
            "onebit_demo.cfg", "quantized_demo.cfg", "rate_demo.cfg", "stats_only_demo.cfg",
        ]

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(QUANTIZED_CFG + "m_prime = 20\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:15: duplicate key 'm_prime'")):
            load_config(path)

    BASES = {
        "quantized": dict(scenario="quantized", n1=4, n2=4, r=1, alpha=1.0, delta=0.25, K=8, m_prime=8),
        "rate_sweep": dict(scenario="rate_sweep", n1=4, n2=4, r=1, alpha=1.0, delta=0.25, K=8, m_prime_grid=(4, 6, 8, 10)),
        "onebit_dithers_known": dict(
            scenario="onebit_dithers_known", n1=4, n2=4, r=1, alpha=1.0, dither_kind="gaussian", dither_param=0.5, m_prime=8,
        ),
        "onebit_noisy": dict(scenario="onebit_noisy", n1=4, n2=4, r=1, alpha=1.0, delta=2.0, noise_sigma=0.1, m_prime=8),
    }

    @pytest.mark.parametrize(
        "scenario, override",
        [
            ("quantized", dict(m_prime=None, sample_fraction=-0.2)),
            ("quantized", dict(m_prime=None, sample_fraction=1.5)),
            ("quantized", dict(m_prime=None, sample_fraction=0.01)),
            ("quantized", dict(m_prime=17)),
            ("rate_sweep", dict(m_prime_grid=(4, 6, 8, 17))),
            ("onebit_dithers_known", dict(noise_sigma=-0.3)),
            ("quantized", dict(epsilon=-0.05)),
            ("onebit_noisy", dict(beta=-1.0)),
            ("quantized", dict(max_iters=0)),
            ("quantized", dict(tol_rel_change=0.0)),
            ("quantized", dict(tol_feas=0.0)),
            ("quantized", dict(delta=float("inf"))),
            ("quantized", dict(alpha=float("nan"))),
            ("quantized", dict(epsilon=float("nan"))),
        ],
        ids=[
            "sample_fraction_negative", "sample_fraction_above_one", "sample_fraction_rounds_to_zero",
            "m_prime_above_size", "m_prime_grid_above_size", "noise_sigma_negative", "epsilon_negative", "beta_negative", "max_iters_zero",
            "tol_rel_change_zero", "tol_feas_zero", "delta_infinite", "alpha_nan", "epsilon_nan",
        ],
    )
    def test_validate_rejects_what_a_trial_would_reject_or_bend(self, scenario, override):
        ExperimentConfig(**self.BASES[scenario])
        with pytest.raises(ValueError):
            ExperimentConfig(**{**self.BASES[scenario], **override})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            config_from_mapping({"scenario": "quantized", "n1": "4", "n2": "4", "r": "1", "alpha": "1", "delta": "0.1", "m_prime": "4", "bogus": "1"})

    def test_step_size_key_rejected(self):
        mapping = {"scenario": "quantized", "n1": "4", "n2": "4", "r": "1", "alpha": "1", "delta": "0.1", "m_prime": "4"}
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_mapping({**mapping, "step_size": "1.0"})

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

    # the scenarios whose trials draw no noise, each with the keys it needs
    NOISELESS = {
        "quantized": dict(delta=0.25, K=8, m_prime=8),
        "rate_sweep": dict(delta=0.25, K=8, m_prime_grid=(4, 6, 8, 10)),
        "onebit_stats_only": dict(delta=2.0, m_prime=8),
        "inconsistency_sweep": dict(dither_kind="uniform", dither_param=1.0, m=2, m_prime=8),
    }

    @pytest.mark.parametrize("scenario", sorted(NOISELESS))
    def test_noise_rejected_where_no_noise_is_drawn(self, scenario):
        base = dict(scenario=scenario, n1=4, n2=4, r=1, alpha=1.0, **self.NOISELESS[scenario])
        ExperimentConfig(**base)
        with pytest.raises(ValueError, match="noise_sigma must be 0"):
            ExperimentConfig(**base, noise_sigma=0.5)

    def test_every_field_settable_from_strings(self):
        # one representative value per ExperimentConfig field, each parsed by
        # the field's annotation, in configs of scenarios that read them
        mappings = [
            {
                "scenario": "onebit_noisy", "n1": "6", "n2": "7", "r": "2", "alpha": "1.5",
                "delta": "2.0", "m": "1", "sample_fraction": "0.25", "noise_sigma": "0.1",
                "trials": "4", "base_seed": "9", "epsilon": "0.01", "delta_policy": "oracle",
                "beta": "1.25", "max_iters": "300", "tol_rel_change": "1e-7", "tol_feas": "1e-5",
                "out": "noisy_report.csv",
            },
            {
                "scenario": "rate_sweep", "n1": "6", "n2": "7", "r": "2", "alpha": "1.5",
                "delta": "0.5", "K": "3", "m_prime_grid": "8, 16,32, 40",
            },
            {
                "scenario": "onebit_dithers_known", "n1": "6", "n2": "7", "r": "2", "alpha": "1.5",
                "dither_kind": "gaussian", "dither_param": "0.5", "m": "3", "m_prime": "20",
            },
            {
                "scenario": "inconsistency_sweep", "n1": "6", "n2": "7", "r": "2", "alpha": "1.5",
                "dither_kind": "uniform", "dither_param": "1.0", "m_prime": "20",
                "perturb_scales": "0, 0.5,2",
            },
        ]
        expected = [
            ExperimentConfig(
                scenario="onebit_noisy", n1=6, n2=7, r=2, alpha=1.5, delta=2.0, m=1,
                sample_fraction=0.25, noise_sigma=0.1, trials=4, base_seed=9, epsilon=0.01,
                delta_policy="oracle", beta=1.25, max_iters=300, tol_rel_change=1e-7, tol_feas=1e-5,
                out="noisy_report.csv",
            ),
            ExperimentConfig(
                scenario="rate_sweep", n1=6, n2=7, r=2, alpha=1.5, delta=0.5, K=3, m_prime_grid=(8, 16, 32, 40)
            ),
            ExperimentConfig(
                scenario="onebit_dithers_known", n1=6, n2=7, r=2, alpha=1.5, dither_kind="gaussian",
                dither_param=0.5, m=3, m_prime=20,
            ),
            ExperimentConfig(
                scenario="inconsistency_sweep", n1=6, n2=7, r=2, alpha=1.5, dither_kind="uniform",
                dither_param=1.0, m_prime=20, perturb_scales=(0.0, 0.5, 2.0),
            ),
        ]
        assert set().union(*mappings) == {f.name for f in dataclasses.fields(ExperimentConfig)}
        for mapping, want in zip(mappings, expected):
            cfg = config_from_mapping(mapping)
            assert cfg == want
            for name in mapping:
                value = getattr(cfg, name)
                assert type(value) is type(getattr(want, name)), name
                if isinstance(value, tuple):
                    assert {type(v) for v in value} == {int if name == "m_prime_grid" else float}
        # the failure-exponent constants and noise tail proxies are not settings:
        # no bound value reads them
        for key in ("C", "c", "D1", "C1", "sigma1", "sigma2"):
            with pytest.raises(ValueError, match="unknown config key"):
                config_from_mapping({**mappings[0], key: "1.0"})

    # A config of each scenario with the keys it needs, and a value other than
    # the default for each field that only some scenarios read.
    SCENARIO_BASES = {
        **NOISELESS,
        "onebit_noisy": dict(delta=2.0, m_prime=8, noise_sigma=0.1),
        "onebit_dithers_known": dict(dither_kind="uniform", dither_param=1.0, m=2, m_prime=8),
    }
    UNREAD_VALUES = {
        "delta": 0.5, "K": 4, "dither_kind": "gaussian", "dither_param": 0.5, "m": 3,
        "m_prime": 6, "sample_fraction": 0.5, "noise_sigma": 0.2,
        "delta_policy": "oracle", "beta": 1.0, "m_prime_grid": (4, 6, 8, 10),
        "perturb_scales": (0.0, 1.0), "max_iters": 100, "tol_rel_change": 1e-6, "tol_feas": 1e-5,
    }

    @pytest.mark.parametrize("field", sorted(UNREAD_VALUES))
    def test_field_rejected_where_the_scenario_does_not_read_it(self, field):
        readers = quantmc.harness._FIELD_READERS[field]
        assert 0 < len(readers) < len(self.SCENARIO_BASES)
        for scenario, base in self.SCENARIO_BASES.items():
            kwargs = dict(scenario=scenario, n1=4, n2=4, r=1, alpha=1.0, **base)
            if field == "sample_fraction":
                kwargs.pop("m_prime", None)
            kwargs[field] = self.UNREAD_VALUES[field]
            if scenario in readers:
                assert getattr(ExperimentConfig(**kwargs), field) == self.UNREAD_VALUES[field]
            else:
                with pytest.raises(ValueError, match=f"does not read {field}"):
                    ExperimentConfig(**kwargs)

    def test_every_rule_has_a_case(self):
        assert set(quantmc.harness._FIELD_READERS) == set(self.UNREAD_VALUES)

    def test_m_prime_and_sample_fraction_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            ExperimentConfig(scenario="quantized", n1=4, n2=4, r=1, alpha=1.0, delta=0.25, m_prime=8, sample_fraction=0.5)

    def test_readme_config_table_lists_every_field(self):
        # the first column of README's "Config files" table names the keys in
        # backticks, several to a cell; they must be the ExperimentConfig fields
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("\n## Config files\n", 1)[1].split("\n## ", 1)[0]
        keys = []
        for line in table.splitlines():
            if line.startswith("|"):
                for span in re.findall(r"`([^`]*)`", line.split("|")[1]):
                    keys.extend(key.strip() for key in span.split(","))
        assert sorted(keys) == sorted(f.name for f in dataclasses.fields(ExperimentConfig))

    def test_readme_config_table_names_the_readers(self):
        # the last column of the same table names the scenarios that read the
        # row's keys: "all", "all but `x`", or a list of scenarios
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("\n## Config files\n", 1)[1].split("\n## ", 1)[0]
        scenarios = quantmc.harness.SCENARIOS
        rows = [line.split("|")[1:-1] for line in table.splitlines() if line.startswith("| `")]
        assert len(rows) > 0
        for cells in rows:
            named = set(re.findall(r"`([^`]*)`", cells[-1]))
            readers = set(scenarios) - named if cells[-1].strip().startswith("all") else named
            for span in re.findall(r"`([^`]*)`", cells[0]):
                for key in span.split(","):
                    assert readers == set(quantmc.harness._FIELD_READERS.get(key.strip(), scenarios)), key

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


@pytest.mark.parametrize(
    "scenario, extra",
    [
        ("quantized", dict(K=8, dither_kind="uniform", sample_fraction=0.5, trials=3)),
        ("onebit_stats_only", dict(sample_fraction=1.0, trials=2)),
    ],
)
def test_oracle_rows_are_scale_free(scenario, extra):
    # the solver is scale-free, and so is the oracle radius's floor: at
    # alpha = 2^-50 (delta scaled with it) every row reads as at alpha = 1,
    # where an absolute floor of 1e-12 exceeded ||q|| and returned X = 0
    def rows(alpha):
        delta = alpha / 4 if scenario == "quantized" else 2 * alpha
        cfg = ExperimentConfig(
            scenario=scenario, n1=16, n2=16, r=1, alpha=alpha, delta=delta, base_seed=7,
            delta_policy="oracle", **extra,
        )
        return [(r.rel_err, r.iterations, r.converged) for r in run_experiment(cfg)[0]]

    ref = rows(1.0)
    assert all(rel_err < 1.0 and iterations > 0 for rel_err, iterations, _ in ref)
    assert rows(2.0**-50) == ref


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

    def test_noise_budget_is_the_closed_form_percentile(self):
        # the 99th percentile of ||N(0, sigma^2 I_k)||: at k = 2 the chi-square
        # quantile is exactly -2 ln 0.01, and at k = 288 (the stats-only demo
        # size) a seeded 20 000-draw percentile agrees within its sampling
        # error, about 0.019 sigma (the norm's density there is 0.038 / sigma)
        def beta(sigma, m_prime):
            cfg = ExperimentConfig(
                scenario="onebit_noisy", n1=24, n2=24, r=1, alpha=1.0, delta=2.0,
                m_prime=m_prime, noise_sigma=sigma, trials=1, base_seed=7,
            )
            return quantmc.harness._resolve_beta(cfg, m_prime)

        assert beta(0.1, 2) == pytest.approx(0.1 * np.sqrt(-2.0 * np.log(0.01)), rel=1e-3)
        rng = np.random.default_rng(288)
        draws = np.percentile(np.linalg.norm(rng.normal(0.0, 0.1, size=(20000, 288)), axis=1), 99.0)
        assert abs(beta(0.1, 288) - draws) <= 3.0 * 0.019 * 0.1
        cfg = ExperimentConfig(
            scenario="onebit_noisy", n1=8, n2=8, r=1, alpha=1.0, delta=2.0,
            m_prime=40, noise_sigma=0.1, trials=3, base_seed=7, epsilon=0.05, beta=beta(0.1, 40),
        )
        records, _ = run_experiment(cfg)
        drawn, _ = run_experiment(dataclasses.replace(cfg, beta=None))
        assert [r.bound_value for r in drawn] == [r.bound_value for r in records]

    def test_stats_only_solves_the_surrogate_ball_once(self, monkeypatch):
        # one ball solve per trial, against (delta/2) * signs on the mask, at
        # the oracle radius ||x - q||
        import quantmc.harness as hz
        from quantmc.core import select_vector

        calls, observations = [], []

        def recording(Q, mask, radius, max_iters):
            calls.append((Q.copy(), mask, radius))
            return solve_quantized_mc(Q, mask, radius, max_iters)

        strip = hz.strip_thresholds

        def stripping(obs):
            observations.append(strip(obs))
            return observations[-1]

        monkeypatch.setattr(hz, "solve_quantized_mc", recording)
        monkeypatch.setattr(hz, "strip_thresholds", stripping)
        cfg = ExperimentConfig(
            scenario="onebit_stats_only", n1=8, n2=8, r=1, alpha=1.0, delta=2.0,
            m_prime=40, trials=3, base_seed=6, epsilon=0.05, delta_policy="oracle",
        )
        records, _ = run_experiment(cfg)
        assert len(records) == len(calls) == len(observations) == 3
        for trial, ((Q, mask, radius), obs) in enumerate(zip(calls, observations)):
            s_gt = hz._trial_seeds(cfg.base_seed, trial, 4)[0]
            x = select_vector(hz.generate_low_rank(cfg.dims, cfg.r, cfg.alpha, s_gt), mask)
            q = Q[mask.rows, mask.cols]
            assert np.array_equal(q, cfg.delta / 2.0 * obs.signs[0])
            off = Q.copy()
            off[mask.rows, mask.cols] = 0.0
            assert np.all(off == 0.0)
            assert radius == float(np.linalg.norm(x - q))


@pytest.mark.parametrize(
    "config",
    [
        dict(
            scenario="quantized", n1=10, n2=10, r=2, alpha=1.0, delta=0.25, K=8,
            dither_kind="uniform", m_prime=50, delta_policy="oracle",
        ),
        dict(
            scenario="onebit_dithers_known", n1=10, n2=10, r=2, alpha=1.0,
            dither_kind="uniform", dither_param=1.0, m=8, m_prime=50,
        ),
    ],
    ids=["quantized", "onebit_known"],
)
def test_budget_reaches_the_solver(config):
    # the harness hands max_iters to the solver as a bare int, so no type
    # checks it on the way: a budget of 2 must cut every solve short
    records, _ = run_experiment(ExperimentConfig(trials=3, base_seed=3, max_iters=2, **config))
    assert {r.trial for r in records} == {0, 1, 2}
    assert all(r.iterations == 2 and not r.converged for r in records)


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
        assert all(not r.trivial_solution and not r.bound_vacuous for r in records)
        assert all(np.isnan(r.err_fro) for r in records)
        assert summary["trials"] == 2

    def test_failed_sweep_recorded_not_raised(self, monkeypatch):
        # with no finite error there is no rate to fit, and the summary says so
        import quantmc.harness as hz

        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic failure")

        monkeypatch.setattr(hz, "solve_quantized_mc", boom)
        cfg = ExperimentConfig(
            scenario="rate_sweep", n1=6, n2=6, r=1, alpha=1.0, delta=0.5, K=4,
            dither_kind="uniform", m_prime_grid=(8, 12, 16, 20), trials=2, base_seed=0,
        )
        records, summary = run_experiment(cfg)
        assert len(records) == 8 and all(np.isnan(r.err_fro) and not r.converged for r in records)
        assert summary["trials"] == 8 and "rate_slope" not in summary

    @pytest.mark.parametrize(
        "solver, scenario, extra, bound_id",
        [
            ("solve_quantized_mc", "quantized", dict(delta=0.5, K=4, dither_kind="uniform"), "quantized"),
            (
                "solve_one_bit_mc", "onebit_dithers_known",
                dict(dither_kind="uniform", dither_param=1.0, m=4), "subgaussian",
            ),
            ("solve_quantized_mc", "onebit_stats_only", dict(delta=2.0), "statistics_only"),
            ("solve_quantized_mc", "onebit_noisy", dict(delta=2.0, noise_sigma=0.1), "noisy"),
        ],
        ids=["quantized", "onebit_known", "stats_only", "noisy"],
    )
    def test_failure_row_carries_regime_bound(self, monkeypatch, solver, scenario, extra, bound_id):
        # a failed trial's row reports the bound and the dither its solved
        # rows would report
        import quantmc.harness as hz

        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic failure")

        cfg = ExperimentConfig(
            scenario=scenario, n1=6, n2=6, r=1, alpha=1.0, m_prime=12, trials=1, base_seed=0, **extra
        )
        solved = run_experiment(cfg)[0][0]
        monkeypatch.setattr(hz, solver, boom)
        records, _ = run_experiment(cfg)
        assert len(records) == 1
        assert records[0].bound_id == bound_id
        assert np.isnan(records[0].err_fro) and not records[0].converged
        assert (records[0].dither_kind, records[0].dither_param) == (solved.dither_kind, solved.dither_param)

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

    def test_t_quantile_reference_values(self):
        # t_0.975 quantiles for df = 2..8 from SciPy 1.17.1 (stats.t.ppf)
        reference = [
            4.302652729749462, 3.1824463052837078, 2.7764451051977934, 2.5705818356363146,
            2.4469118511449786, 2.364624251592784, 2.306004135204166,
        ]
        assert _t_quantile(0.975, 2) == reference[0]
        for df, ref in enumerate(reference[1:], start=3):
            assert _t_quantile(0.975, df) == pytest.approx(ref, rel=1e-13, abs=0)

    def test_planted_fit_reference_values(self):
        # SciPy 1.17.1 stats.linregress slope and t.ppf(0.975, 2) * stderr
        records = _planted_records([100, 200, 400, 800], [1.9, 1.31, 0.98, 0.66])
        fit = fit_rate(records)
        assert fit.slope == -0.4995097624339727
        assert fit.half_width == 0.08512006366879836

    def test_five_point_fit_reference_values(self):
        # df = 3 takes the bisection path of the t quantile
        records = _planted_records([128, 256, 512, 1024, 2048], [2.1, 1.5, 1.2, 0.8, 0.61])
        fit = fit_rate(records)
        assert fit.slope == -0.447390695581499
        assert fit.half_width == pytest.approx(0.0626754247664539, rel=1e-13, abs=0)

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
        assert {r.group for r in records} == {""}  # m_prime alone tells the sweep points apart

    def test_concatenated_runs_count_every_trial(self):
        # single-trial sweeps of different base seeds are all trial 0; the
        # records of all three runs are twelve solves, and the fit takes the
        # median over each m_prime's three
        runs = [
            run_experiment(
                ExperimentConfig(
                    scenario="rate_sweep", n1=10, n2=10, r=2, alpha=1.0, delta=0.25, K=8,
                    dither_kind="uniform", m_prime_grid=(20, 40, 60, 80), trials=1,
                    base_seed=seed, max_iters=2000, tol_rel_change=1e-5,
                )
            )[0]
            for seed in (100, 200, 300)
        ]
        records = [rec for run in runs for rec in run]
        assert summarize(records)["trials"] == 12
        fit = fit_rate(records)
        for m_prime, median in zip(fit.m_primes, fit.medians):
            assert median == np.median([r.err_fro for r in records if r.m_prime == m_prime])
        assert len({r.err_fro for r in records}) == 12


    def test_sweep_and_report_import_numpy_only(self, tmp_path):
        # a lazy import of a large statistics package inside fit_rate once
        # tripled the peak memory of every process that ran a sweep
        script = textwrap.dedent(
            f"""
            import sys

            before = set(sys.modules)
            from quantmc.harness import ExperimentConfig, emit_report, run_experiment

            cfg = ExperimentConfig(
                scenario="rate_sweep", n1=8, n2=8, r=1, alpha=1.0, delta=0.25, K=8,
                dither_kind="uniform", m_prime_grid=(16, 24, 32, 48), trials=2,
                base_seed=13, max_iters=500, tol_rel_change=1e-5,
            )
            records, summary = run_experiment(cfg)
            assert "rate_slope" in summary
            emit_report(records, {str(tmp_path / "sweep.csv")!r})
            loaded = [name for name in set(sys.modules) - before if getattr(sys.modules[name], "__file__", None)]
            extra = {{name.split(".")[0] for name in loaded}} - set(sys.stdlib_module_names) - {{"numpy", "quantmc"}}
            assert not extra, sorted(extra)
            """
        )
        import quantmc

        src = str(Path(quantmc.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr


class TestTrivialFlags:
    @staticmethod
    def _c07_trial(**overrides):
        # the c07 acceptance config, one trial
        base = dict(
            scenario="quantized", n1=32, n2=32, r=2, alpha=1.0, delta=0.25, K=8,
            dither_kind="uniform", m_prime=512, trials=1, base_seed=20250809 + 7, epsilon=0.05,
        )
        records, _ = run_experiment(ExperimentConfig(**{**base, **overrides}))
        assert len(records) == 1
        return records[0]

    def test_theorem_radius_sets_both(self):
        rec = self._c07_trial(delta_policy="theorem")
        assert rec.trivial_solution and rec.iterations == 0 and rec.rel_err == 1.0
        assert rec.bound_vacuous and rec.bound_satisfied

    def test_oracle_radius_solves_but_bound_stays_vacuous(self):
        # the quantized bound is at least 2 sqrt(r n1 n2) K delta / 2, and an
        # unsaturated quantizer has K delta / 2 >= alpha >= ||X||_F / sqrt(n1 n2),
        # so no radius policy can make it informative
        rec = self._c07_trial(delta_policy="oracle")
        assert not rec.trivial_solution and rec.iterations > 0 and rec.rel_err < 1.0
        assert rec.bound_vacuous

    def test_informative_bound_and_solve_set_neither(self):
        cfg = ExperimentConfig(
            scenario="onebit_dithers_known", n1=32, n2=32, r=2, alpha=1.0,
            dither_kind="uniform", dither_param=1.0, m=20, m_prime=512, trials=1,
            base_seed=20250809 + 8, epsilon=0.001, max_iters=40000, tol_feas=1e-9, tol_rel_change=1e-9,
        )
        records, _ = run_experiment(cfg)
        (uniform,) = [r for r in records if r.bound_id == "uniform"]
        assert not uniform.trivial_solution and not uniform.bound_vacuous
        assert uniform.bound_value < uniform.err_fro / uniform.rel_err

    def test_flags_stay_out_of_report(self, tmp_path):
        rec = self._c07_trial(delta_policy="theorem")
        assert "trivial_solution" not in CSV_COLUMNS and "bound_vacuous" not in CSV_COLUMNS
        summary = summarize([rec])
        assert not any("trivial" in key or "vacuous" in key for key in summary)
        text = emit_report([rec], tmp_path / "r.csv").read_text()
        assert "trivial" not in text and "vacuous" not in text


class TestEmitReport:
    def test_header_is_pinned(self, tmp_path):
        header = (
            "trial,seed,n1,n2,r,alpha,m,m_prime,delta,K,dither_kind,dither_param,noise_sigma,epsilon,"
            "err_fro,rel_err,bound_id,bound_value,bound_satisfied,zeta,violation,iterations,converged,wall_time_ms"
        )
        assert emit_report([], tmp_path / "h.csv").read_text().splitlines()[0] == header

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
