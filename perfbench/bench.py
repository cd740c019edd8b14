"""The quantmc benchmark workloads, their metrics and their correctness check.

A workload is a fixed ``ExperimentConfig`` run as a closed loop: one caller
runs ``run_experiment`` with ``trials=1``, one call after another, until the
time budget is spent.  Trial k of seed s uses ``base_seed = s * SEED_STRIDE + k``,
so the inputs are a function of the seed alone.  On ``rate_sweep`` one trial
is the whole m' sweep of one seed (four solves).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from quantmc import bounds, harness

import tracer

SEED_STRIDE = 100_000
WARMUP_OFFSET = SEED_STRIDE - 1  # warm-up trial seed, never reached by the timed loop
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
DECAY_GRID = [10**k for k in range(3, 8)]
DECAY_SLOPE_RANGE = (-0.41, -0.39)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # ExperimentConfig fields other than trials and base_seed


WORKLOADS = {
    w.name: w
    for w in (
        # c13 sweep: the ball solver's mu bisection over many cheap 32x32 SVDs.
        Workload(
            "rate_sweep",
            dict(
                scenario="rate_sweep", n1=32, n2=32, r=2, alpha=1.0, delta=0.25, K=8,
                dither_kind="uniform", epsilon=0.05, m_prime_grid=(128, 256, 512, 1024),
                delta_policy="oracle", max_iters=4000, tol_rel_change=3e-6,
            ),
        ),
        # c08: the one-bit penalty solver with backtracking does nearly all the work.
        Workload(
            "onebit_known",
            dict(
                scenario="onebit_dithers_known", n1=32, n2=32, r=2, alpha=1.0,
                dither_kind="uniform", dither_param=1.0, m=20, m_prime=512, epsilon=0.1,
                max_iters=40000, tol_feas=1e-9, tol_rel_change=1e-9,
            ),
        ),
        # The ball solver the other way round: few iterations, each a costly 128x128 SVD.
        Workload(
            "large_n",
            dict(
                scenario="quantized", n1=128, n2=128, r=2, alpha=1.0, delta=0.25, K=8,
                dither_kind="uniform", epsilon=0.05, sample_fraction=0.3,
                delta_policy="oracle", max_iters=4000, tol_rel_change=3e-6,
            ),
        ),
    )
}


class HostProbe:
    """Reference dense SVDs at the workload's matrix size, timed between trials.

    On a shared host the speed of the same work drifts by up to about 1.6x
    over seconds, as other tenants contend for the core.  Timings divided by
    the reference measured in the same run stay comparable between runs.
    """

    SECONDS = 0.02

    def __init__(self, n: int):
        self._z = np.random.default_rng(0).standard_normal((n, n))
        self._svd = np.linalg.svd  # captured before any tracing wraps it
        self.samples: list[float] = []  # mean seconds per SVD, one per probe

    def sample(self) -> float:
        calls = 0
        t0 = time.perf_counter()
        while calls == 0 or time.perf_counter() - t0 < self.SECONDS:
            self._svd(self._z, full_matrices=False)
            calls += 1
        self.samples.append((time.perf_counter() - t0) / calls)
        return self.samples[-1]


# Run in a fresh interpreter: import the package, then make the first SVD.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import numpy as np
import quantmc
n = int(sys.argv[2])
np.linalg.svd(np.random.default_rng(0).standard_normal((n, n)))
print(time.perf_counter() - t0)
"""


def setup_time(n: int) -> float:
    """Seconds a fresh interpreter takes to import quantmc and make its first SVD."""
    src = Path(harness.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(src), str(n)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    return float(out.stdout.split()[-1])


@dataclasses.dataclass
class Trial:
    """One seeded ``run_experiment`` call with ``trials=1``."""

    wall_s: float  # the whole run_experiment call
    records: list
    probe_s: float = math.nan  # reference SVD time around this trial

    def solves(self):
        """The trial's solves; the records of one solve (one per bound) count once."""
        return list({(r.group, r.m_prime): r for r in self.records}.values())

    @property
    def ms(self) -> float:
        """Sum of TrialRecord.wall_time_ms over the trial's solves."""
        return sum(r.wall_time_ms for r in self.solves())

    @property
    def rel_err(self) -> float:
        """Mean rel_err over the trial's solves."""
        return float(np.mean([r.rel_err for r in self.solves()]))

    @property
    def errored(self) -> bool:
        """No usable result: the harness records a failed solve as a non-finite error."""
        return not all(math.isfinite(r.err_fro) for r in self.records)

    @property
    def unconverged(self) -> bool:
        return not all(r.converged for r in self.records)


def run_trial(workload: Workload, base_seed: int) -> Trial:
    cfg = harness.ExperimentConfig(trials=1, base_seed=base_seed, **workload.config)
    t0 = time.perf_counter()
    records, _ = harness.run_experiment(cfg)
    return Trial(time.perf_counter() - t0, records)


def decay_slopes() -> tuple[float, float]:
    """Analytic epsilon-decay slopes on the c13 grid (quantized, sub-gaussian)."""
    slope_q = bounds.epsilon_decay_rate(
        bounds.BoundInputs(n1=10, n2=10, r=2, alpha=1.0, delta=0.0, K=8), DECAY_GRID, "quantized"
    )
    alpha = 1e-3
    slope_s = bounds.epsilon_decay_rate(
        bounds.BoundInputs(n1=10, n2=10, r=1, alpha=alpha, T=alpha**2 / 3, m=1), DECAY_GRID, "subgaussian"
    )
    return slope_q, slope_s


def _outcome(trial: Trial):
    return [(r.m_prime, r.bound_id, r.err_fro, r.iterations, r.converged) for r in trial.records]


@dataclasses.dataclass
class Run:
    workload: Workload
    seed: int
    trials: list  # Trial list, tracing off
    traced: list  # Trial list on the same seeds, tracing on (trace runs only)
    probe: HostProbe
    setup_s: list  # one set-up time per fresh interpreter
    warmup_s: float
    slopes: tuple
    rate_fit: object | None
    tracer: tracer.Tracer | None

    @property
    def records(self):
        return [r for t in self.trials for r in t.records]


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> Run:
    """Closed loop over seeded single-trial configs for ``seconds``.

    A host probe runs before the first trial and after every trial.  The
    set-up probes are spread evenly over the run, between trials, so that
    at least one of them is likely to meet the host at full speed.  With ``trace`` every
    seed runs twice, untraced and traced, in alternating order, so the
    tracing overhead is measured on identical work.
    """
    base = seed * SEED_STRIDE
    t0 = time.perf_counter()
    run_trial(workload, base + WARMUP_OFFSET)
    warmup_s = time.perf_counter() - t0
    n = workload.config["n1"]
    probe = HostProbe(n)
    tr = tracer.Tracer() if trace else None
    untraced, traced, setups = [], [], []
    before = probe.sample()
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        if len(setups) < SETUP_REPEATS and time.perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(setup_time(n))
            before = probe.sample()
        turns = ((False, True) if k % 2 == 0 else (True, False)) if trace else (False,)
        for traced_turn in turns:
            with tr.installed() if traced_turn else contextlib.nullcontext():
                trial = run_trial(workload, base + k)
            (traced if traced_turn else untraced).append(trial)
            after = probe.sample()
            trial.probe_s = 0.5 * (before + after)
            before = after
        k += 1
    setups += [setup_time(n) for _ in range(SETUP_REPEATS - len(setups))]
    with tr.installed() if trace else contextlib.nullcontext():
        slopes = decay_slopes()
    records = [r for t in untraced for r in t.records]
    rate_fit = harness.fit_rate(records) if workload.config["scenario"] == "rate_sweep" else None
    return Run(workload, seed, untraced, traced, probe, setups, warmup_s, slopes, rate_fit, tr)


def check(run: Run) -> list[str]:
    """Correctness failures of a run; an empty list means the outputs are correct."""
    failures = []
    records = run.records + [r for t in run.traced for r in t.records]
    if not all(math.isfinite(r.err_fro) for r in records):
        failures.append("a trial has a non-finite error")
    med = median_rel_err(run)
    if not med < 1.0:
        failures.append(f"median_rel_err {med:.4f} is not below 1 (the zero estimator's error)")
    if run.workload.config["scenario"] == "onebit_dithers_known":
        tol = run.workload.config["tol_feas"]
        if not all(r.zeta == 0 and r.violation <= tol for r in records):
            failures.append(f"a one-bit trial has zeta > 0 or violation > {tol}")
    if run.rate_fit is not None and not run.rate_fit.slope < 0:
        failures.append(f"rate_slope {run.rate_fit.slope:.4f} is not negative")
    lo, hi = DECAY_SLOPE_RANGE
    if not all(lo <= s <= hi for s in run.slopes):
        failures.append(f"analytic epsilon-decay slopes {run.slopes} outside [{lo}, {hi}]")
    if run.traced and [_outcome(t) for t in run.traced] != [_outcome(t) for t in run.trials]:
        failures.append("traced results differ from untraced results on the same seeds")
    return failures


def median_rel_err(run: Run) -> float:
    errs = [t.rel_err for t in run.trials if math.isfinite(t.rel_err)]
    return statistics.median(errs) if errs else math.nan


def end_to_end(run: Run) -> tuple[dict, dict]:
    """End-to-end metrics (name -> (value, unit)) and the numbers behind them.

    Time metrics other than ``setup_s`` are in units of the reference SVD
    time measured just before and after each trial ("svd").  ``setup_s`` is
    the fastest of the run's set-ups: slower ones waited on the host.
    """
    trials = run.trials
    n = len(trials)
    cost = [t.ms / 1e3 / t.probe_s for t in trials]
    wall_cost = [t.wall_s / t.probe_s for t in trials]
    tail_cost, tail_pct, _ = tracer.tail(cost)
    metrics = {
        "setup_s": (min(run.setup_s), "s"),
        "wall_svd": (statistics.fmean(wall_cost), "svd"),
        "trials_per_ksvd": (1e3 * n / sum(wall_cost), "1/ksvd"),
        "trial_svd_p50": (statistics.median(cost), "svd"),
        "trial_svd_tail": (tail_cost, "svd"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "median_rel_err": (median_rel_err(run), "ratio"),
        "bound_satisfied_frac": (float(np.mean([r.bound_satisfied for r in run.records])), "ratio"),
    }
    info = {
        "trials": n,
        "tail_pct": tail_pct,
        "ref_svd_ms": 1e3 * statistics.fmean(run.probe.samples),
        "probes": len(run.probe.samples),
        "wall_s": statistics.median(t.wall_s for t in trials),
        "trials_per_s": n / sum(t.wall_s for t in trials),
        "trial_ms_p50": statistics.median(t.ms for t in trials),
        "trial_ms_tail": tracer.tail([t.ms for t in trials])[0],
        "failed_frac": sum(t.errored or t.unconverged for t in trials) / n,
        "unconverged": sum(t.unconverged for t in trials),
        "setup_s_all": run.setup_s,
        "rate_slope": None if run.rate_fit is None else run.rate_fit.slope,
        "rate_half_width": None if run.rate_fit is None else run.rate_fit.half_width,
        "decay_slopes": list(run.slopes),
        "warmup_s": run.warmup_s,
    }
    return metrics, info


def per_layer(run: Run) -> tuple[dict, dict]:
    """Per-layer metrics from the traced trials, plus the tracing overhead."""
    metrics, info = tracer.layer_metrics(run.tracer.spans, len(run.traced))
    untraced = sum(t.wall_s / t.probe_s for t in run.trials)
    traced = sum(t.wall_s / t.probe_s for t in run.traced)
    metrics["trace.overhead_frac"] = ((traced - untraced) / untraced, "ratio")
    info["traced_trials"] = len(run.traced)
    return metrics, info


def report_sha256(run: Run, out_dir: Path) -> str:
    """sha256 of the default emit_report CSV (stable timings) of the first trial."""
    path = harness.emit_report(run.trials[0].records, out_dir / f"{run.workload.name}-seed{run.seed}.csv")
    return hashlib.sha256(path.read_bytes()).hexdigest()
