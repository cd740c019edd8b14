"""Monte Carlo experiment engine: generate, quantize/observe, solve, measure,
and compare against the closed-form bounds.

A run is a pure function of its config: per-trial seeds are
``base_seed + trial`` and every random object derives from them, so two runs
of the same config produce identical records.  Reports are plot-ready CSV
with a fixed column set and a trailing '#'-commented summary block.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path

import numpy as np

from . import bounds as bnd
from .core import Dims, generate_low_rank, sample_mask_uniform, select_vector
from .onebit import (
    NoiseSpec,
    build_polyhedron,
    consistency_report,
    observe_one_bit,
    strip_thresholds,
)
from .quantize import DitherSpec, QuantizerSpec, generate_dither_tensor, quantize_matrix
from .solvers import ProxParams, solve_one_bit_mc, solve_quantized_mc, solve_statistics_only

__all__ = [
    "CSV_COLUMNS",
    "ExperimentConfig",
    "RateFit",
    "TrialRecord",
    "emit_report",
    "fit_rate",
    "load_config",
    "run_experiment",
    "summarize",
]

SCENARIOS = (
    "quantized",
    "onebit_dithers_known",
    "onebit_stats_only",
    "onebit_noisy",
    "inconsistency_sweep",
    "rate_sweep",
)

CSV_COLUMNS = (
    "trial",
    "seed",
    "n1",
    "n2",
    "r",
    "alpha",
    "m",
    "m_prime",
    "delta",
    "K",
    "dither_kind",
    "dither_param",
    "noise_sigma",
    "epsilon",
    "err_fro",
    "rel_err",
    "bound_id",
    "bound_value",
    "bound_satisfied",
    "zeta",
    "violation",
    "iterations",
    "converged",
    "wall_time_ms",
)


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Everything a scenario needs; unknown combinations fail fast in validate().

    ``delta`` is the quantizer resolution.  ``delta_policy`` picks the ball
    radius for the quantized/statistics-only solvers: "theorem" uses the
    conservative sqrt(m' (eps + q_max^2)) radius that is feasible for the
    generating matrix with high probability, "oracle" uses the trial's true
    masked residual, "auto" means theorem everywhere except rate_sweep.
    """

    scenario: str
    n1: int
    n2: int
    r: int
    alpha: float
    delta: float = 0.0
    K: int = 1
    dither_kind: str = "none"
    dither_param: float = 0.0
    m: int = 1
    m_prime: int | None = None
    sample_fraction: float | None = None
    noise_sigma: float = 0.0
    sigma1: float | None = None
    sigma2: float | None = None
    trials: int = 1
    base_seed: int = 0
    epsilon: float = 0.05
    reg_weight: float = 1.0
    delta_policy: str = "auto"
    beta: float | None = None
    m_prime_grid: tuple = ()
    perturb_scales: tuple = (0.0, 0.25, 0.5, 1.0, 2.0)
    max_iters: int = 20000
    step_size: float = 1.0
    tol_rel_change: float = 1e-8
    tol_feas: float = 1e-6
    C: float = 1.0
    c: float = 1.0
    D1: float = 1.0
    C1: float = 1.0
    out: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "m_prime_grid", tuple(int(v) for v in self.m_prime_grid))
        object.__setattr__(self, "perturb_scales", tuple(float(v) for v in self.perturb_scales))
        self.validate()

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; choose one of {SCENARIOS}")
        Dims(self.n1, self.n2)
        if not 1 <= self.r <= min(self.n1, self.n2):
            raise ValueError(f"r must be in [1, {min(self.n1, self.n2)}]")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.delta_policy not in ("auto", "theorem", "oracle"):
            raise ValueError(f"unknown delta_policy {self.delta_policy!r}")
        if self.dither_kind not in ("none", "uniform", "gaussian"):
            raise ValueError(f"unknown dither_kind {self.dither_kind!r}")
        needs_mask = self.scenario != "rate_sweep"
        if needs_mask and self.m_prime is None and self.sample_fraction is None:
            raise ValueError(f"scenario {self.scenario!r} needs m_prime or sample_fraction")
        quantizer_scenarios = ("quantized", "onebit_stats_only", "onebit_noisy", "rate_sweep")
        if self.scenario in quantizer_scenarios and self.delta <= 0:
            raise ValueError(f"scenario {self.scenario!r} needs delta > 0")
        if self.scenario in ("quantized", "rate_sweep") and self.K < 1:
            raise ValueError("K must be at least 1")
        if self.scenario in ("onebit_dithers_known", "inconsistency_sweep"):
            if self.dither_kind == "none" or self.dither_param <= 0:
                raise ValueError(f"scenario {self.scenario!r} needs a uniform or gaussian dither")
            if self.m < 1:
                raise ValueError("m must be at least 1")
        if self.scenario in ("onebit_stats_only", "onebit_noisy") and self.m != 1:
            raise ValueError("statistics-only scenarios use a single dither sequence (m = 1)")
        if self.scenario == "onebit_noisy" and self.noise_sigma <= 0:
            raise ValueError("onebit_noisy needs noise_sigma > 0")
        if self.scenario == "rate_sweep" and len(set(self.m_prime_grid)) < 4:
            raise ValueError("rate_sweep needs at least 4 distinct m_prime_grid values")

    @property
    def dims(self) -> Dims:
        return Dims(self.n1, self.n2)

    def resolved_m_prime(self) -> int:
        if self.m_prime is not None:
            return int(self.m_prime)
        return max(1, round(self.sample_fraction * self.n1 * self.n2))

    def prox_params(self) -> ProxParams:
        return ProxParams(
            max_iters=self.max_iters,
            step_size=self.step_size,
            tol_rel_change=self.tol_rel_change,
            tol_feas=self.tol_feas,
        )

    def effective_delta_policy(self) -> str:
        if self.delta_policy != "auto":
            return self.delta_policy
        return "oracle" if self.scenario == "rate_sweep" else "theorem"


@dataclasses.dataclass
class TrialRecord:
    """One CSV row: a solved trial evaluated against one bound formula."""

    trial: int
    seed: int
    n1: int
    n2: int
    r: int
    alpha: float
    m: int
    m_prime: int
    delta: float
    K: int
    dither_kind: str
    dither_param: float
    noise_sigma: float
    epsilon: float
    err_fro: float
    rel_err: float
    bound_id: str
    bound_value: float
    bound_satisfied: bool
    zeta: int | None
    violation: float | None
    iterations: int
    converged: bool
    wall_time_ms: float
    group: str = ""  # grouping tag (m' sweep, perturbation scale); not a CSV column


@dataclasses.dataclass(frozen=True)
class RateFit:
    slope: float
    half_width: float
    m_primes: tuple
    medians: tuple


def _trial_seeds(base_seed: int, trial: int, count: int):
    ss = np.random.SeedSequence(base_seed + trial)
    return [int(v) for v in ss.generate_state(count, dtype=np.uint64)]


def _bound_inputs(cfg: ExperimentConfig, m_prime: int, **overrides) -> bnd.BoundInputs:
    base = dict(
        n1=cfg.n1,
        n2=cfg.n2,
        r=cfg.r,
        alpha=cfg.alpha,
        epsilon=cfg.epsilon,
        m=cfg.m,
        m_prime=m_prime,
        C=cfg.C,
        c=cfg.c,
        D1=cfg.D1,
        C1=cfg.C1,
    )
    base.update(overrides)
    return bnd.BoundInputs(**base)


def _regime_bound(cfg: ExperimentConfig, m_prime: int) -> bnd.BoundValue:
    """The zeta-free bound a solver scenario's trials are judged by; failed
    trials carry it too."""
    if cfg.scenario == "onebit_dithers_known":
        T = DitherSpec(cfg.dither_kind, cfg.dither_param).variance
        return bnd.bound_subgaussian(_bound_inputs(cfg, m_prime, T=T))
    if cfg.scenario == "onebit_stats_only":
        return bnd.bound_statistics_only(_bound_inputs(cfg, m_prime, delta=cfg.delta))
    if cfg.scenario == "onebit_noisy":
        sigma1 = cfg.noise_sigma if cfg.sigma1 is None else cfg.sigma1
        sigma2 = cfg.noise_sigma if cfg.sigma2 is None else cfg.sigma2
        beta = _resolve_beta(cfg, m_prime)
        return bnd.bound_noisy(_bound_inputs(cfg, m_prime, delta=cfg.delta, beta=beta, sigma1=sigma1, sigma2=sigma2))
    return bnd.bound_quantized(_bound_inputs(cfg, m_prime, delta=cfg.delta, K=cfg.K))


def _record(
    cfg, trial, m_prime, err, ref_norm, bound, report, *,
    zeta=None, wall_ms=0.0, group="", dither=None,
):
    rel = float(err / ref_norm) if ref_norm > 0 and np.isfinite(err) else float("nan")
    dither_kind = cfg.dither_kind if dither is None else dither.kind
    dither_param = cfg.dither_param if dither is None else dither.param
    return TrialRecord(
        trial=trial,
        seed=cfg.base_seed + trial,
        n1=cfg.n1,
        n2=cfg.n2,
        r=cfg.r,
        alpha=cfg.alpha,
        m=cfg.m,
        m_prime=m_prime,
        delta=cfg.delta,
        K=cfg.K,
        dither_kind=dither_kind,
        dither_param=dither_param,
        noise_sigma=cfg.noise_sigma,
        epsilon=cfg.epsilon,
        err_fro=err,
        rel_err=rel,
        bound_id=bound.formula_id,
        bound_value=bound.value,
        bound_satisfied=bool(err <= bound.value),
        zeta=zeta,
        violation=None if report is None else report.data_residual,
        iterations=0 if report is None else report.iterations,
        converged=True if report is None else report.converged,
        wall_time_ms=wall_ms,
        group=group,
    )


def _quantized_trial(cfg: ExperimentConfig, trial: int, m_prime: int, group: str = ""):
    s_gt, s_mask, s_dither = _trial_seeds(cfg.base_seed, trial, 3)
    gt = generate_low_rank(cfg.dims, cfg.r, cfg.alpha, s_gt)
    mask = sample_mask_uniform(cfg.dims, m_prime, s_mask)
    spec = QuantizerSpec(cfg.delta, cfg.K)
    dither = DitherSpec.uniform(cfg.delta / 2.0) if cfg.dither_kind == "uniform" else DitherSpec.none()
    q_max_sq = (cfg.K * cfg.delta / 2.0) ** 2
    t0 = time.perf_counter()
    Q = quantize_matrix(gt.matrix, mask, spec, dither, s_dither)
    if cfg.effective_delta_policy() == "theorem":
        radius = float(np.sqrt(m_prime * (cfg.epsilon + q_max_sq)))
    else:
        residual = select_vector(gt.matrix, mask) - Q[mask.rows, mask.cols]
        radius = max(float(np.linalg.norm(residual)), 1e-12)
    report = solve_quantized_mc(Q, mask, radius, cfg.prox_params())
    wall_ms = 1e3 * (time.perf_counter() - t0)
    err = float(np.linalg.norm(gt.matrix - report.matrix))
    ref = float(np.linalg.norm(gt.matrix))
    bound = _regime_bound(cfg, m_prime)
    return [_record(cfg, trial, m_prime, err, ref, bound, report, wall_ms=wall_ms, group=group, dither=dither)]


def _onebit_known_trial(cfg: ExperimentConfig, trial: int):
    s_gt, s_mask, s_dither, s_noise = _trial_seeds(cfg.base_seed, trial, 4)
    m_prime = cfg.resolved_m_prime()
    gt = generate_low_rank(cfg.dims, cfg.r, cfg.alpha, s_gt)
    mask = sample_mask_uniform(cfg.dims, m_prime, s_mask)
    dspec = DitherSpec(cfg.dither_kind, cfg.dither_param)
    thresholds = generate_dither_tensor(dspec, cfg.m, m_prime, s_dither)
    noise = NoiseSpec.gaussian(cfg.noise_sigma) if cfg.noise_sigma > 0 else NoiseSpec.none()
    t0 = time.perf_counter()
    obs = observe_one_bit(gt.matrix, mask, thresholds, noise, s_noise)
    system = build_polyhedron(obs)
    report = solve_one_bit_mc(system, cfg.reg_weight, cfg.prox_params())
    wall_ms = 1e3 * (time.perf_counter() - t0)
    err = float(np.linalg.norm(gt.matrix - report.matrix))
    ref = float(np.linalg.norm(gt.matrix))
    zeta = consistency_report(report.matrix, obs, gt.matrix).zeta
    T = dspec.variance
    records = [
        _record(cfg, trial, m_prime, err, ref, _regime_bound(cfg, m_prime), report, zeta=zeta, wall_ms=wall_ms),
        _record(
            cfg, trial, m_prime, err, ref,
            bnd.bound_inconsistent(_bound_inputs(cfg, m_prime, T=T, zeta=zeta)),
            report, zeta=zeta, wall_ms=wall_ms,
        ),
    ]
    if cfg.dither_kind == "uniform" and abs(cfg.dither_param - cfg.alpha) <= 1e-12 * cfg.alpha:
        records.append(
            _record(
                cfg, trial, m_prime, err, ref,
                bnd.bound_uniform(_bound_inputs(cfg, m_prime, T=T)),
                report, zeta=zeta, wall_ms=wall_ms,
            )
        )
    return records


def _stats_only_trial(cfg: ExperimentConfig, trial: int, *, noisy: bool):
    s_gt, s_mask, s_dither, s_noise = _trial_seeds(cfg.base_seed, trial, 4)
    m_prime = cfg.resolved_m_prime()
    gt = generate_low_rank(cfg.dims, cfg.r, cfg.alpha, s_gt)
    mask = sample_mask_uniform(cfg.dims, m_prime, s_mask)
    dspec = DitherSpec.uniform(cfg.delta / 2.0)
    thresholds = generate_dither_tensor(dspec, 1, m_prime, s_dither)
    noise = NoiseSpec.gaussian(cfg.noise_sigma, cfg.sigma1, cfg.sigma2) if noisy else NoiseSpec.none()
    t0 = time.perf_counter()
    obs = strip_thresholds(observe_one_bit(gt.matrix, mask, thresholds, noise, s_noise))
    surrogate_masked = 0.5 * cfg.delta * obs.signs[0]
    if cfg.effective_delta_policy() == "theorem":
        radius = float(np.sqrt(m_prime * (cfg.epsilon + cfg.delta**2 / 4.0)))
    else:
        residual = select_vector(gt.matrix, mask) - surrogate_masked
        radius = max(float(np.linalg.norm(residual)), 1e-12)
    report = solve_statistics_only(obs, cfg.delta, radius, cfg.prox_params())
    wall_ms = 1e3 * (time.perf_counter() - t0)
    err = float(np.linalg.norm(gt.matrix - report.matrix))
    ref = float(np.linalg.norm(gt.matrix))
    bound = _regime_bound(cfg, m_prime)
    return [_record(cfg, trial, m_prime, err, ref, bound, report, wall_ms=wall_ms, dither=dspec)]


def _resolve_beta(cfg: ExperimentConfig, m_prime: int, draws: int = 1000, quantile: float = 99.0) -> float:
    """Noise Frobenius budget: config value, or the 99th percentile of the
    masked noise norm over seeded draws (deterministic given base_seed)."""
    if cfg.beta is not None:
        return float(cfg.beta)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.base_seed, spawn_key=(0xBE7A,)))
    norms = np.linalg.norm(rng.normal(0.0, cfg.noise_sigma, size=(draws, m_prime)), axis=1)
    return float(np.percentile(norms, quantile))


def _inconsistency_trial(cfg: ExperimentConfig, trial: int):
    s_gt, s_mask, s_dither, s_perturb = _trial_seeds(cfg.base_seed, trial, 4)
    m_prime = cfg.resolved_m_prime()
    gt = generate_low_rank(cfg.dims, cfg.r, cfg.alpha, s_gt)
    mask = sample_mask_uniform(cfg.dims, m_prime, s_mask)
    dspec = DitherSpec(cfg.dither_kind, cfg.dither_param)
    thresholds = generate_dither_tensor(dspec, cfg.m, m_prime, s_dither)
    obs = observe_one_bit(gt.matrix, mask, thresholds)
    direction = np.random.default_rng(s_perturb).standard_normal((cfg.n1, cfg.n2))
    ref = float(np.linalg.norm(gt.matrix))
    records = []
    for idx, scale in enumerate(cfg.perturb_scales):
        x_bar = gt.matrix + scale * cfg.alpha * direction
        zeta = consistency_report(x_bar, obs, gt.matrix).zeta
        err = float(np.linalg.norm(gt.matrix - x_bar))
        bound = bnd.bound_inconsistent(_bound_inputs(cfg, m_prime, T=dspec.variance, zeta=zeta))
        records.append(
            _record(
                cfg, trial, m_prime, err, ref, bound, None,
                zeta=zeta, group=f"scale:{idx:03d}",
            )
        )
    return records


def run_experiment(cfg: ExperimentConfig):
    """Execute all trials of a config; returns (records, summary).

    Trial failures from numerical errors are recorded (err_fro = nan,
    converged = false) and never abort the batch.
    """
    cfg.validate()
    records = []

    def run_safely(trial, fn, fallback_m_prime, fallback_group, *args, **kwargs):
        try:
            records.extend(fn(cfg, trial, *args, **kwargs))
        except np.linalg.LinAlgError:
            bound = _regime_bound(cfg, fallback_m_prime)
            failed = _record(
                cfg, trial, fallback_m_prime, float("nan"), 0.0, bound, None, group=fallback_group
            )
            records.append(dataclasses.replace(failed, converged=False, bound_satisfied=False))

    if cfg.scenario == "rate_sweep":
        for m_prime in sorted(set(cfg.m_prime_grid)):
            group = f"mprime:{m_prime:08d}"
            for trial in range(cfg.trials):
                run_safely(trial, _quantized_trial, m_prime, group, m_prime, group)
    else:
        m_prime = cfg.resolved_m_prime()
        for trial in range(cfg.trials):
            if cfg.scenario == "quantized":
                run_safely(trial, _quantized_trial, m_prime, "", m_prime)
            elif cfg.scenario == "onebit_dithers_known":
                run_safely(trial, _onebit_known_trial, m_prime, "")
            elif cfg.scenario == "onebit_stats_only":
                run_safely(trial, _stats_only_trial, m_prime, "", noisy=False)
            elif cfg.scenario == "onebit_noisy":
                run_safely(trial, _stats_only_trial, m_prime, "", noisy=True)
            elif cfg.scenario == "inconsistency_sweep":
                run_safely(trial, _inconsistency_trial, m_prime, "")
    return records, summarize(records)


def _unique_trials(records):
    seen = {}
    for rec in records:
        key = (rec.group, rec.m_prime, rec.trial)
        if key not in seen:
            seen[key] = rec
    return list(seen.values())


def summarize(records) -> dict:
    """Aggregate statistics for the summary block; pure function of records."""
    summary: dict = {"rows": len(records)}
    uniq = _unique_trials(records)
    summary["trials"] = len(uniq)
    errs = [r.err_fro for r in uniq if np.isfinite(r.err_fro)]
    if errs:
        summary["median_err_fro"] = float(np.median(errs))
        summary["mean_err_fro"] = float(np.mean(errs))
    bound_ids = sorted({r.bound_id for r in records})
    for bid in bound_ids:
        rows = [r for r in records if r.bound_id == bid]
        summary[f"satisfied_{bid}"] = float(np.mean([r.bound_satisfied for r in rows]))
    zetas = [r.zeta for r in uniq if r.zeta is not None]
    if zetas:
        summary["mean_zeta"] = float(np.mean(zetas))
        summary["consistency_rate"] = float(np.mean([z == 0 for z in zetas]))
    m_primes = sorted({r.m_prime for r in uniq})
    if len(m_primes) >= 4:
        fit = fit_rate(records)
        summary["rate_slope"] = fit.slope
        summary["rate_half_width"] = fit.half_width
    return summary


def fit_rate(records) -> RateFit:
    """Log-log slope of median err_fro against m_prime, with a 95% half-width."""
    from scipy import stats

    groups: dict = {}
    for rec in _unique_trials(records):
        if np.isfinite(rec.err_fro):
            groups.setdefault(rec.m_prime, []).append(rec.err_fro)
    if len(groups) < 4:
        raise ValueError(f"need at least 4 distinct m_prime groups, got {len(groups)}")
    m_primes = sorted(groups)
    medians = [float(np.median(groups[mp])) for mp in m_primes]
    res = stats.linregress(np.log(m_primes), np.log(medians))
    half = float(stats.t.ppf(0.975, len(m_primes) - 2) * res.stderr)
    return RateFit(slope=float(res.slope), half_width=half, m_primes=tuple(m_primes), medians=tuple(medians))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def emit_report(records, path, stable_timings: bool = True) -> Path:
    """Write records as CSV plus a '#'-commented summary block.

    With ``stable_timings`` (the default) the wall_time_ms column is zeroed
    so that identical records always produce identical bytes; pass False to
    keep measured timings.
    """
    path = Path(path)
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        values = []
        for col in CSV_COLUMNS:
            v = getattr(rec, col)
            if col == "wall_time_ms" and stable_timings:
                v = 0.0
            values.append(_fmt(v))
        lines.append(",".join(values))
    for key, value in summarize(records).items():
        lines.append(f"# {key} = {_fmt(value)}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


_INT_KEYS = {"n1", "n2", "r", "K", "m", "m_prime", "trials", "base_seed", "max_iters"}
_FLOAT_KEYS = {
    "alpha", "delta", "dither_param", "noise_sigma", "sigma1", "sigma2", "epsilon",
    "reg_weight", "beta", "sample_fraction", "step_size", "tol_rel_change", "tol_feas",
    "C", "c", "D1", "C1",
}
_STR_KEYS = {"scenario", "dither_kind", "delta_policy", "out"}
_LIST_INT_KEYS = {"m_prime_grid"}
_LIST_FLOAT_KEYS = {"perturb_scales"}


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    kwargs = {}
    for key, raw in mapping.items():
        raw = raw.strip() if isinstance(raw, str) else raw
        if key in _INT_KEYS:
            kwargs[key] = int(raw)
        elif key in _FLOAT_KEYS:
            kwargs[key] = float(raw)
        elif key in _STR_KEYS:
            kwargs[key] = str(raw)
        elif key in _LIST_INT_KEYS:
            kwargs[key] = tuple(int(tok) for tok in str(raw).split(",") if tok.strip())
        elif key in _LIST_FLOAT_KEYS:
            kwargs[key] = tuple(float(tok) for tok in str(raw).split(",") if tok.strip())
        else:
            raise ValueError(f"unknown config key {key!r}")
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    """Parse a flat ``key = value`` config file ('#' starts a comment)."""
    mapping = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        mapping[key.strip()] = value.strip()
    return config_from_mapping(mapping)
