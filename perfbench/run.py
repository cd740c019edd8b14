"""quantmc benchmark command.

    python3 perfbench/run.py --workload rate_sweep --seed 1 --seconds 30 --trace 0

Runs one workload for ``--seconds`` on inputs made from ``--seed``, checks
the outputs, and prints a human-readable report followed, as the last line,
by one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics with tracing off;
``--trace 1`` reports the per-layer metrics of a traced run.  The full
report (environment, report hash, layer shares) and, for traced runs, the
spans go to ``.bench_out/`` at the checkout root.

Exit codes: 0 when the outputs are correct, 1 when the correctness check
fails (the result is still printed), 2 when the package cannot be found or
set up (nothing is printed on stdout).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# One BLAS thread: a single caller runs trials one after another, and on a
# small shared box extra BLAS threads make 128x128 SVDs slower and noisier.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _openblas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_vendor = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_vendor,
        "blas_threads_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads_runtime": _openblas_threads(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (SRC / "quantmc" / "__init__.py").is_file():
        print(f"error: no quantmc package at {SRC / 'quantmc'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench
    import quantmc

    if Path(quantmc.__file__).resolve().parent != SRC / "quantmc":
        print(f"error: imported quantmc from {quantmc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}")
    workload = bench.WORKLOADS[args.workload]

    try:
        run = bench.measure(workload, args.seed, args.seconds, trace=bool(args.trace))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: set-up probe failed: {exc}", file=sys.stderr)
        return 2
    failures = bench.check(run)
    OUT_DIR.mkdir(exist_ok=True)

    e2e, e2e_info = bench.end_to_end(run)
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "report_csv_sha256": bench.report_sha256(run, OUT_DIR),
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "end_to_end_info": e2e_info,
        "failures": failures,
    }
    metrics = e2e
    if args.trace:
        metrics, layer_info = bench.per_layer(run)
        report["per_layer"] = {k: v for k, (v, _) in metrics.items()}
        report["per_layer_info"] = layer_info
        spans_path = OUT_DIR / f"{workload.name}-seed{args.seed}.spans.jsonl.gz"
        run.tracer.write_spans(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    (OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )

    print(f"workload {workload.name} seed {args.seed}")
    print("env " + json.dumps(report["env"], sort_keys=True))
    print(f"report_csv_sha256 {report['report_csv_sha256']}")
    for key, value in e2e_info.items():
        print(f"info {key} = {value}")
    if args.trace:
        for layer, share in layer_info["shares"].items():
            print(f"share {layer:12s} {100 * share:6.2f}% of traced trial time (self)")
        for key, value in layer_info.items():
            if key != "shares":
                print(f"info {key} = {value}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for failure in failures:
        print(f"FAIL {failure}")
    print("correct" if not failures else "INCORRECT")

    trials = run.trials + run.traced
    result = {
        "correct": not failures,
        "attempted": len(trials),
        "failed": sum(t.errored for t in trials),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
