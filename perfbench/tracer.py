"""Spans around quantmc's public functions, recorded from outside the package.

``Tracer.installed()`` replaces each public function under the name its
caller looks it up by (``quantmc.harness.solve_quantized_mc``,
``quantmc.bounds.bound_quantized``, ``numpy.linalg.svd``, ...) with a wrapper
that records a span, and restores the originals on exit.  Spans stay in
memory; ``layer_metrics`` turns them into the per-layer numbers and
``write_spans`` dumps them when the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gzip
import json
import statistics
import time

import numpy as np

import quantmc.bounds
import quantmc.harness
import quantmc.solvers

LAYERS = ("core", "quantize", "onebit", "solvers", "solvers.svd", "bounds", "harness")
SOLVE_SPANS = ("solvers.solve_quantized_mc", "solvers.solve_one_bit_mc")
BOUND_FUNCTIONS = (
    "bound_quantized",
    "bound_subgaussian",
    "bound_uniform",
    "bound_inconsistent",
    "bound_statistics_only",
    "bound_noisy",
)


def _solve_extra(report):
    return {"iterations": report.iterations, "stages": len(report.stage_objectives)}


# (module, attribute, span name, result -> extra span fields)
TARGETS = (
    (quantmc.harness, "run_experiment", "harness.run_experiment", None),
    (quantmc.harness, "summarize", "harness.summarize", None),
    (quantmc.harness, "generate_low_rank", "core.generate_low_rank", None),
    (quantmc.harness, "sample_mask_uniform", "core.sample_mask_uniform", None),
    (quantmc.harness, "select_vector", "core.select_vector", None),
    (quantmc.harness, "quantize_matrix", "quantize.quantize_matrix", None),
    (quantmc.harness, "generate_dither_tensor", "quantize.generate_dither_tensor", None),
    (quantmc.harness, "observe_one_bit", "onebit.observe_one_bit", None),
    (quantmc.harness, "build_polyhedron", "onebit.build_polyhedron", None),
    (quantmc.harness, "consistency_report", "onebit.consistency_report", None),
    (quantmc.solvers, "violation_measure", "onebit.violation_measure", None),
    (quantmc.harness, "solve_quantized_mc", "solvers.solve_quantized_mc", _solve_extra),
    (quantmc.harness, "solve_one_bit_mc", "solvers.solve_one_bit_mc", _solve_extra),
    (np.linalg, "svd", "solvers.svd", None),
    (quantmc.bounds, "epsilon_decay_rate", "bounds.epsilon_decay_rate", None),
) + tuple((quantmc.bounds, fn, f"bounds.{fn}", None) for fn in BOUND_FUNCTIONS)

# Every harness trial starts by generating its ground truth.
TRIAL_START = "core.generate_low_rank"


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    trial: int  # harness trial counter, -1 outside any trial
    extra: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._trial = -1

    def _wrap(self, name, fn, extra_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == TRIAL_START:
                self._trial += 1
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, 0.0, 0.0, parent, self._trial)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if extra_of is not None:
                span.extra = extra_of(out)
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in TARGETS]
        try:
            for (mod, attr, name, extra_of), (_, _, fn) in zip(TARGETS, originals):
                setattr(mod, attr, self._wrap(name, fn, extra_of))
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(vars(span)) + "\n")


def layer_of(name: str) -> str:
    return "solvers.svd" if name == "solvers.svd" else name.split(".", 1)[0]


def self_times(spans) -> list[float]:
    """Span duration minus the time its direct children cover (seconds)."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def tail(values):
    """Highest value with at least ten values beyond it, its percentile, and the count.

    The tail never reads below the median: with fewer than 20 values no
    percentile above the 50th has ten values beyond it, and the median is
    returned as the 50th percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, trials: int) -> tuple[dict, dict]:
    """Per-layer metrics and per-layer self-time shares of the traced trials.

    ``trials`` is the number of benchmark trials the spans cover.  Layer self
    times and shares count only spans inside ``run_experiment``; shares are
    over the total time of those spans.
    """
    selfs = self_times(spans)
    durations = [s.duration for s in spans]
    by_name: dict[str, list[int]] = {}
    for idx, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(idx)

    def total(names, times=durations):
        return sum(times[i] for n in names for i in by_name.get(n, ()))

    def mean_ms(name):
        return _ratio(1e3 * total([name]), len(by_name.get(name, ())))

    solves = [spans[i] for n in SOLVE_SPANS for i in by_name.get(n, ())]
    solve_ms = [1e3 * s.duration for s in solves]
    iters = sum(s.extra["iterations"] for s in solves)
    n_svd = len(by_name.get("solvers.svd", ()))
    svd_s = total(["solvers.svd"], selfs)
    solve_s = sum(s.duration for s in solves)
    bound_spans = [f"bounds.{fn}" for fn in BOUND_FUNCTIONS]
    n_bound = sum(len(by_name.get(n, ())) for n in bound_spans)

    # Parents precede their children, so each span's root is known on arrival.
    roots: list[int] = []
    for idx, span in enumerate(spans):
        roots.append(idx if span.parent < 0 else roots[span.parent])
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span, st, root in zip(spans, selfs, roots):
        if spans[root].name == "harness.run_experiment":
            layer_self[layer_of(span.name)] += st
    trial_s = total(["harness.run_experiment"])

    metrics = {
        "solvers.iters_per_solve": (_ratio(iters, len(solves)), "count"),
        "solvers.ms_per_iter": (_ratio(1e3 * solve_s, iters), "ms"),
        "solvers.solve_ms_p50": (statistics.median(solve_ms) if solves else 0.0, "ms"),
        "solvers.solve_ms_tail": (tail(solve_ms)[0] if solves else 0.0, "ms"),
        "solvers.svd_calls_per_solve": (_ratio(n_svd, len(solves)), "count"),
        "solvers.svd_per_iter": (_ratio(n_svd, iters), "ratio"),
        "solvers.stages_per_solve": (_ratio(sum(s.extra["stages"] for s in solves), len(solves)), "count"),
        "solvers.svd_ms": (_ratio(1e3 * svd_s, n_svd), "ms"),
        "solvers.svd_share": (_ratio(svd_s, solve_s), "ratio"),
        "solvers.trivial_frac": (_ratio(sum(s.extra["iterations"] == 0 for s in solves), len(solves)), "ratio"),
        "core.generate_ms": (_ratio(1e3 * layer_self["core"], trials), "ms"),
        "quantize.quantize_ms": (_ratio(1e3 * layer_self["quantize"], trials), "ms"),
        "onebit.violation_calls": (_ratio(len(by_name.get("onebit.violation_measure", ())), len(solves)), "count"),
        "bounds.eval_us": (_ratio(1e6 * total(bound_spans), n_bound), "us"),
        "bounds.decay_rate_ms": (mean_ms("bounds.epsilon_decay_rate"), "ms"),
        "harness.self_ms_per_trial": (_ratio(1e3 * layer_self["harness"], trials), "ms"),
        "harness.summarize_ms": (mean_ms("harness.summarize"), "ms"),
    }
    observe = ["onebit.observe_one_bit", "onebit.build_polyhedron"]
    info = {
        "shares": {layer: _ratio(t, trial_s) for layer, t in layer_self.items()},
        "onebit.observe_ms": _ratio(1e3 * total(observe, selfs), trials),
        "onebit.consistency_ms": _ratio(1e3 * total(["onebit.consistency_report"], selfs), trials),
        "solves": len(solves),
        "svd_calls": n_svd,
        "spans": len(spans),
    }
    return metrics, info
