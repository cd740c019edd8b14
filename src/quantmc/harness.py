"""Monte Carlo experiment engine: generate, quantize/observe, solve, measure,
and compare against the closed-form bounds.

Every scenario runs one trial pipeline, ``_trial``: draw the trial's seeds,
the ground truth, the mask and the scenario's dither, observe and solve (the
inconsistency sweep perturbs the truth instead), and judge the estimate by
the regime's closed-form bound.  ``wall_time_ms`` covers the observe-and-solve
step alone: quantize, or observe and build the polyhedron or strip the
thresholds and form the surrogate, then solve.  The ground truth, the mask
and the threshold tensor are drawn before the timer starts.

A run is a pure function of its config: per-trial seeds are
``base_seed + trial`` and every random object derives from them, so two runs
of the same config produce identical records.  Reports are plot-ready CSV
with a fixed column set and a trailing '#'-commented summary block.
"""

from __future__ import annotations

import dataclasses
import math
import time
from pathlib import Path

import numpy as np

from . import bounds as bnd
from .core import Dims, generate_low_rank, sample_mask_uniform, select_vector
from .onebit import build_polyhedron, consistency_report, observe_one_bit, strip_thresholds, surrogate_data
from .quantize import DitherSpec, QuantizerSpec, generate_dither_tensor, quantize_matrix
from .solvers import solve_one_bit_mc, solve_quantized_mc

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

_BALL_SCENARIOS = ("quantized", "rate_sweep", "onebit_stats_only", "onebit_noisy")
_THRESHOLD_SCENARIOS = ("onebit_dithers_known", "inconsistency_sweep")
_ONE_MASK_SCENARIOS = tuple(s for s in SCENARIOS if s != "rate_sweep")
_SOLVER_SCENARIOS = tuple(s for s in SCENARIOS if s != "inconsistency_sweep")

# The fields that only some scenarios read, with those scenarios; validate()
# rejects a value other than the field's default in any other scenario.
_FIELD_READERS = {
    "delta": _BALL_SCENARIOS,
    "K": ("quantized", "rate_sweep"),
    "dither_kind": ("quantized", "rate_sweep", *_THRESHOLD_SCENARIOS),
    "dither_param": _THRESHOLD_SCENARIOS,
    "m": _THRESHOLD_SCENARIOS,
    "m_prime": _ONE_MASK_SCENARIOS,
    "sample_fraction": _ONE_MASK_SCENARIOS,
    "noise_sigma": ("onebit_dithers_known", "onebit_noisy"),
    "delta_policy": _BALL_SCENARIOS,
    "beta": ("onebit_noisy",),
    "m_prime_grid": ("rate_sweep",),
    "perturb_scales": ("inconsistency_sweep",),
    "max_iters": _SOLVER_SCENARIOS,
    # tol_rel_change and tol_feas change no output in any scenario (no
    # solver reads them); the benchmark's workloads set them
    "tol_rel_change": _SOLVER_SCENARIOS,
    "tol_feas": _SOLVER_SCENARIOS,
}


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
    trials: int = 1
    base_seed: int = 0
    epsilon: float = 0.05
    delta_policy: str = "auto"
    beta: float | None = None
    m_prime_grid: tuple = ()
    perturb_scales: tuple = (0.0, 0.25, 0.5, 1.0, 2.0)
    max_iters: int = 20000
    tol_rel_change: float = 1e-8
    tol_feas: float = 1e-6
    out: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "m_prime_grid", tuple(int(v) for v in self.m_prime_grid))
        object.__setattr__(self, "perturb_scales", tuple(float(v) for v in self.perturb_scales))
        self.validate()

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; choose one of {SCENARIOS}")
        dims = Dims(self.n1, self.n2)
        if not 1 <= self.r <= min(self.n1, self.n2):
            raise ValueError(f"r must be in [1, {min(self.n1, self.n2)}]")
        # alpha > 0, epsilon >= 0 and beta >= 0 are the bounds' own checks.
        bnd.BoundInputs(self.n1, self.n2, self.r, self.alpha, epsilon=self.epsilon, beta=self.beta or 0.0)
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        for name in ("tol_rel_change", "tol_feas"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.delta_policy not in ("auto", "theorem", "oracle"):
            raise ValueError(f"unknown delta_policy {self.delta_policy!r}")
        if self.dither_kind not in ("none", "uniform", "gaussian"):
            raise ValueError(f"unknown dither_kind {self.dither_kind!r}")
        if self.scenario in _ONE_MASK_SCENARIOS and self.m_prime is None and self.sample_fraction is None:
            raise ValueError(f"scenario {self.scenario!r} needs m_prime or sample_fraction")
        if self.scenario in _BALL_SCENARIOS and self.delta <= 0:
            raise ValueError(f"scenario {self.scenario!r} needs delta > 0")
        if self.scenario in ("quantized", "rate_sweep"):
            QuantizerSpec(self.delta, self.K)
        if self.scenario in _THRESHOLD_SCENARIOS:
            if self.dither_kind == "none" or self.dither_param <= 0:
                raise ValueError(f"scenario {self.scenario!r} needs a uniform or gaussian dither")
            if self.m < 1:
                raise ValueError("m must be at least 1")
        if self.m_prime is not None and self.sample_fraction is not None:
            raise ValueError("set m_prime or sample_fraction, not both")
        if self.sample_fraction is not None and not 0 < self.sample_fraction <= 1:
            raise ValueError(f"sample_fraction must be in (0, 1], got {self.sample_fraction}")
        # every m' a trial draws must lie in the range sample_mask_uniform accepts
        for m_prime in self.m_prime_grid if self.scenario == "rate_sweep" else (self.resolved_m_prime(),):
            if not 1 <= m_prime <= dims.size:
                raise ValueError(f"m_prime must be in [1, {dims.size}], got {m_prime}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be nonnegative, got {self.noise_sigma}")
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            items = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in items):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
            readers = _FIELD_READERS.get(field.name, SCENARIOS)
            if self.scenario not in readers and value != field.default:
                raise ValueError(
                    f"scenario {self.scenario!r} does not read {field.name}; {field.name} must be {field.default!r}"
                )
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
        return round(self.sample_fraction * self.n1 * self.n2)

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
    group: str = ""  # perturbation scale of an inconsistency sweep; not a CSV column
    # Not CSV columns either: the solver returned X = 0, and the bound is met
    # by the zero estimator too (bound_value >= ||X_true||_F).
    trivial_solution: bool = False
    bound_vacuous: bool = False


# The CSV columns: the fields of TrialRecord before ``group``, in order.
_FIELDS = [field.name for field in dataclasses.fields(TrialRecord)]
CSV_COLUMNS = tuple(_FIELDS[: _FIELDS.index("group")])


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
    return bnd.BoundInputs(
        n1=cfg.n1, n2=cfg.n2, r=cfg.r, alpha=cfg.alpha, epsilon=cfg.epsilon, m=cfg.m, m_prime=m_prime, **overrides
    )


def _dither_spec(cfg: ExperimentConfig) -> DitherSpec:
    """The dither a trial draws, and its rows report: uniform(delta/2) for a
    dithered quantizer and for the sign-only surrogate, none for an
    undithered quantizer, the configured thresholds otherwise."""
    if cfg.scenario in ("onebit_stats_only", "onebit_noisy"):
        return DitherSpec.uniform(cfg.delta / 2.0)
    if cfg.scenario in ("quantized", "rate_sweep"):
        return DitherSpec.uniform(cfg.delta / 2.0) if cfg.dither_kind == "uniform" else DitherSpec.none()
    return DitherSpec(cfg.dither_kind, cfg.dither_param)


def _regime_bound(cfg: ExperimentConfig, m_prime: int) -> bnd.BoundValue:
    """The zeta-free bound a solver scenario's trials are judged by; failed
    trials carry it too."""
    if cfg.scenario == "onebit_dithers_known":
        return bnd.bound_subgaussian(_bound_inputs(cfg, m_prime, T=_dither_spec(cfg).variance))
    if cfg.scenario == "onebit_stats_only":
        return bnd.bound_statistics_only(_bound_inputs(cfg, m_prime, delta=cfg.delta))
    if cfg.scenario == "onebit_noisy":
        return bnd.bound_noisy(_bound_inputs(cfg, m_prime, delta=cfg.delta, beta=_resolve_beta(cfg, m_prime)))
    return bnd.bound_quantized(_bound_inputs(cfg, m_prime, delta=cfg.delta, K=cfg.K))


def _record(cfg, trial, m_prime, err, ref_norm, bound, report, *, zeta=None, wall_ms=0.0, group=""):
    rel = float(err / ref_norm) if ref_norm > 0 and np.isfinite(err) else float("nan")
    dither = _dither_spec(cfg)
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
        dither_kind=dither.kind,
        dither_param=dither.param,
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
        trivial_solution=report is not None and not np.any(report.matrix),
        bound_vacuous=bool(ref_norm > 0 and bound.value >= ref_norm),
    )


def _solve_ball(cfg: ExperimentConfig, gt, mask, Q, q_max_sq: float):
    """Ball solve of a trial against data Q, zero off the mask, whose entries
    are bounded by q_max; the radius is the theorem's sqrt(m' (eps + q_max^2))
    or, under the oracle policy, the trial's true masked residual, floored at
    1e-12 times the data's norm ||q|| so that it scales with the data, as the
    solver does."""
    if cfg.effective_delta_policy() == "theorem":
        radius = float(np.sqrt(mask.m_prime * (cfg.epsilon + q_max_sq)))
    else:
        q = Q[mask.rows, mask.cols]
        radius = max(float(np.linalg.norm(select_vector(gt, mask) - q)), 1e-12 * float(np.linalg.norm(q)))
    return solve_quantized_mc(Q, mask, radius, cfg.max_iters)


# The standard normal's 99th percentile.
_Z99 = 2.3263478740408408


def _resolve_beta(cfg: ExperimentConfig, m_prime: int) -> float:
    """Noise Frobenius budget: the config value, or the 99th percentile of
    ||N(0, sigma^2 I_m')||.

    ||N||^2 / sigma^2 is chi-square with k = m' degrees of freedom, and the
    Wilson-Hilferty form of its quantile, k (1 - 2/(9k) + z sqrt(2/(9k)))^3
    with z the normal 99th percentile, is within 0.37% of the exact one at
    k = 1, 0.11% for k >= 2 and 1.2e-5 for k >= 288 (after the square root).
    """
    if cfg.beta is not None:
        return float(cfg.beta)
    c = 2.0 / (9.0 * m_prime)
    return cfg.noise_sigma * math.sqrt(m_prime * (1.0 - c + _Z99 * math.sqrt(c)) ** 3)


def _trial(cfg: ExperimentConfig, trial: int, m_prime: int):
    """One trial of any scenario; returns its records (one per bound, or one
    per perturbation scale)."""
    # The fourth seed draws the observation noise or the inconsistency sweep's
    # perturbation direction; quantizer trials ignore it, and the first three
    # words of a four-word draw are those of a three-word one.
    s_gt, s_mask, s_dither, s_noise = _trial_seeds(cfg.base_seed, trial, 4)
    gt = generate_low_rank(cfg.dims, cfg.r, cfg.alpha, s_gt)
    mask = sample_mask_uniform(cfg.dims, m_prime, s_mask)
    dither = _dither_spec(cfg)
    ref = float(np.linalg.norm(gt))
    if cfg.scenario in ("quantized", "rate_sweep"):
        spec = QuantizerSpec(cfg.delta, cfg.K)
        t0 = time.perf_counter()
        Q = quantize_matrix(gt, mask, spec, dither, s_dither)
        report = _solve_ball(cfg, gt, mask, Q, (cfg.K * cfg.delta / 2.0) ** 2)
    else:
        thresholds = generate_dither_tensor(dither, cfg.m, m_prime, s_dither)
        t0 = time.perf_counter()
        obs = observe_one_bit(gt, mask, thresholds, cfg.noise_sigma, s_noise)
        if cfg.scenario == "inconsistency_sweep":
            direction = np.random.default_rng(s_noise).standard_normal((cfg.n1, cfg.n2))
            records = []
            for idx, scale in enumerate(cfg.perturb_scales):
                x_bar = gt + scale * cfg.alpha * direction
                zeta = consistency_report(x_bar, obs, gt)
                err = float(np.linalg.norm(gt - x_bar))
                bound = bnd.bound_inconsistent(_bound_inputs(cfg, m_prime, T=dither.variance, zeta=zeta))
                group = f"scale:{idx:03d}"
                records.append(_record(cfg, trial, m_prime, err, ref, bound, None, zeta=zeta, group=group))
            return records
        if cfg.scenario == "onebit_dithers_known":
            report = solve_one_bit_mc(build_polyhedron(obs), cfg.max_iters)
        else:
            obs = strip_thresholds(obs)
            report = _solve_ball(cfg, gt, mask, surrogate_data(obs, cfg.delta), cfg.delta**2 / 4.0)
    wall_ms = 1e3 * (time.perf_counter() - t0)
    err = float(np.linalg.norm(gt - report.matrix))
    bounds = [_regime_bound(cfg, m_prime)]
    zeta = None
    if cfg.scenario == "onebit_dithers_known":
        zeta = consistency_report(report.matrix, obs, gt)
        bounds.append(bnd.bound_inconsistent(_bound_inputs(cfg, m_prime, T=dither.variance, zeta=zeta)))
        if dither.kind == "uniform" and abs(dither.param - cfg.alpha) <= 1e-12 * cfg.alpha:
            bounds.append(bnd.bound_uniform(_bound_inputs(cfg, m_prime, T=dither.variance)))
    return [_record(cfg, trial, m_prime, err, ref, bound, report, zeta=zeta, wall_ms=wall_ms) for bound in bounds]


def run_experiment(cfg: ExperimentConfig):
    """Execute all trials of a config; returns (records, summary).

    Trial failures from numerical errors are recorded (err_fro = nan,
    converged = false) and never abort the batch.
    """
    grid = sorted(set(cfg.m_prime_grid)) if cfg.scenario == "rate_sweep" else [cfg.resolved_m_prime()]
    records = []
    for m_prime in grid:
        for trial in range(cfg.trials):
            try:
                records.extend(_trial(cfg, trial, m_prime))
            except np.linalg.LinAlgError:
                failed = _record(cfg, trial, m_prime, float("nan"), 0.0, _regime_bound(cfg, m_prime), None)
                records.append(dataclasses.replace(failed, converged=False, bound_satisfied=False))
    return records, summarize(records)


def _unique_trials(records):
    """One record per solve: the rows of one solve (one per bound) share
    their seed, so records concatenated from several runs stay apart."""
    seen = {}
    for rec in records:
        key = (rec.group, rec.m_prime, rec.seed)
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
    # fit_rate skips failed trials, so count only the m' values it will see
    if len({r.m_prime for r in uniq if np.isfinite(r.err_fro)}) >= 4:
        fit = fit_rate(records)
        summary["rate_slope"] = fit.slope
        summary["rate_half_width"] = fit.half_width
    return summary


def _t_two_sided_mass(t: float, df: int) -> float:
    """P(|T| <= t) for Student's t with integer df >= 1, t >= 0: the finite
    cos^2 series of Abramowitz-Stegun 26.7.3 (odd df) and 26.7.4 (even df)
    in theta = atan(t / sqrt(df))."""
    theta = math.atan(t / math.sqrt(df))
    cos2 = math.cos(theta) ** 2
    odd = df % 2
    term = math.sin(theta) * (math.cos(theta) if odd else 1.0)
    series = 0.0
    for k in range(odd, df - 1, 2):
        series += term
        term *= (k + 1) / (k + 2) * cos2
    return 2.0 / math.pi * (theta + series) if odd else series


def _t_quantile(p: float, df: int) -> float:
    """Quantile of Student's t for 0.5 <= p < 1 and integer df >= 2.

    df = 2 has the closed form (2p - 1) / sqrt(2p(1 - p)); larger df bisect
    the closed-form CDF down to adjacent floats.
    """
    if df == 2:
        return (2.0 * p - 1.0) / math.sqrt(2.0 * p * (1.0 - p))
    target = 2.0 * p - 1.0
    lo, hi = 0.0, 1.0
    while _t_two_sided_mass(hi, df) < target:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if _t_two_sided_mass(mid, df) < target:
            lo = mid
        else:
            hi = mid


def fit_rate(records) -> RateFit:
    """Log-log slope of median err_fro against m_prime, with a 95% half-width.

    Slope and standard error follow the least-squares arithmetic of SciPy's
    ``stats.linregress`` step for step, so both figures match it bit for bit
    on a 4-point grid; the package needs numpy alone.
    """
    groups: dict = {}
    for rec in _unique_trials(records):
        if np.isfinite(rec.err_fro):
            groups.setdefault(rec.m_prime, []).append(rec.err_fro)
    if len(groups) < 4:
        raise ValueError(f"need at least 4 distinct m_prime groups, got {len(groups)}")
    m_primes = sorted(groups)
    medians = [float(np.median(groups[mp])) for mp in m_primes]
    ssxm, ssxym, _, ssym = np.cov(np.log(m_primes), np.log(medians), bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = float("nan") if ssxym == 0 else 0.0
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    df = len(m_primes) - 2
    stderr = np.sqrt((1 - r**2) * ssym / ssxm / df)
    half = float(_t_quantile(0.975, df) * stderr)
    return RateFit(slope=float(ssxym / ssxm), half_width=half, m_primes=tuple(m_primes), medians=tuple(medians))


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


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Build a config from string values, each parsed by its field's type
    (``int``, ``float`` or ``str``, ``| None`` ignored); tuple fields are
    comma lists, which ``__post_init__`` turns into ints or floats."""
    fields = {f.name: f.type.split("|")[0].strip() for f in dataclasses.fields(ExperimentConfig)}
    kwargs = {}
    for key, raw in mapping.items():
        if key not in fields:
            raise ValueError(f"unknown config key {key!r}")
        raw = raw.strip() if isinstance(raw, str) else raw
        if fields[key] == "tuple":
            kwargs[key] = tuple(tok for tok in str(raw).split(",") if tok.strip())
        else:
            kwargs[key] = {"int": int, "float": float, "str": str}[fields[key]](raw)
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    """Parse a flat ``key = value`` config file ('#' starts a comment; a key
    set twice is an error)."""
    mapping = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key in mapping:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        mapping[key] = value.strip()
    return config_from_mapping(mapping)
