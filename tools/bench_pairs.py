"""Alternating parent/change pairs of the benchmark, summarized per workload.

    python3 tools/bench_pairs.py --parent ../parent --change . --pr 28 \\
        --workloads onebit_known large_n --seeds 2801-2810 [--seconds 30]

Each checkout must hold ``perfbench/run.py`` and ``BENCHMARK.json``.  For
every workload and seed, the pair's two runs of

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

go one after the other, each in its own checkout, and the side that runs
first alternates from pair to pair, so that a drift of the machine falls on
both sides alike.  Every run (its end-to-end metrics, trial counts and
report hash) and, per workload and metric, each side's median and
quartiles, the change's relative move of the median, the pairs the change
wins and the three results of the review rule (``summarize``) go into
``BENCH_<pr>.json`` in the current directory.  So do the two numbers that
``wall_svd`` divides, each run's median trial wall time ``wall_s`` and its
reference SVD time ``ref_svd_ms``, read from the report the run writes to
``.bench_out/<workload>-seed<seed>-trace0.json`` in its checkout, with
each side's median (``INFO_KEYS``).  Keys of an existing file that this
script does not write (notes, step counts) are kept.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")

# The numbers behind wall_svd, from the end_to_end_info of each run's report:
# the median trial wall time and the reference SVD time it is divided by.
INFO_KEYS = ("wall_s", "ref_svd_ms")


def summarize(parent, change, better, bound):
    """Summary of one metric over paired runs: parent[i] and change[i] come
    from pair i, better is "lower" or "higher", and bound the metric's
    relative bound.  The change wins a pair where its value is strictly
    better; the quartiles are numpy's linear 25th and 75th percentiles, and
    change_rel is the change's median over the parent's, minus 1 (None at a
    parent median of 0).  The review rule's three results: ``claim_holds``,
    the change wins at least 9 in 10 pairs and its median is better than
    the parent's by more than the parent's interquartile range;
    ``within_bound``, the change's median is worse than the parent's by at
    most bound times the parent's median (in magnitude); and ``resolved``,
    the runs are tight enough to tell: the parent's interquartile range is
    at most bound times its median (in magnitude), or every change run is
    better than every parent run."""
    if len(parent) != len(change) or not parent:
        raise ValueError(f"need equal, nonempty sides, got {len(parent)} and {len(change)} runs")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    p, c = np.asarray(parent, dtype=float), np.asarray(change, dtype=float)
    wins = c < p if better == "lower" else c > p
    apart = c.max() < p.min() if better == "lower" else c.min() > p.max()
    p_med, c_med = float(np.median(p)), float(np.median(c))
    p_q = [float(v) for v in np.percentile(p, [25, 75])]
    gain = p_med - c_med if better == "lower" else c_med - p_med
    wins_n = int(np.count_nonzero(wins))
    return {
        "parent_median": p_med,
        "change_median": c_med,
        "parent_quartiles": p_q,
        "change_quartiles": [float(v) for v in np.percentile(c, [25, 75])],
        "change_rel": c_med / p_med - 1.0 if p_med != 0.0 else None,
        "change_wins": wins_n,
        "pairs": len(p),
        "claim_holds": 10 * wins_n >= 9 * len(p) and gain > p_q[1] - p_q[0],
        "within_bound": -gain <= bound * abs(p_med),
        "resolved": bool(p_q[1] - p_q[0] <= bound * abs(p_med) or apart),
    }


def read_info(checkout: Path, workload: str, seed: int) -> dict:
    """The ``INFO_KEYS`` of the end_to_end_info in the report that an
    untraced run of workload at seed wrote in checkout."""
    report = json.loads((checkout / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {key: report["end_to_end_info"][key] for key in INFO_KEYS}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in checkout: its last stdout line, the JSON result,
    with the report hash the run printed added as ``report_csv_sha256`` and
    the run's ``read_info`` as ``info``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {out.returncode}: {out.stderr.strip()}")
    result = json.loads(lines[-1])
    result["report_csv_sha256"] = next((line.split()[1] for line in lines if line.startswith("report_csv_sha256 ")), None)
    result["info"] = read_info(checkout, workload, seed)
    return result


def git_commit(checkout: Path):
    """The commit checkout holds, or None where it is no git checkout or
    has changes to tracked files, which its HEAD would not describe."""
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=checkout, capture_output=True, text=True)
    return head.stdout.strip() if head.returncode == 0 and dirty.returncode == 0 and not dirty.stdout.strip() else None


def workload_row(workload, seeds, seconds, first_sides, results, spec):
    """The BENCH row of one workload: results[side][i] is run i of side."""
    row = {
        "workload": workload,
        "seconds": seconds,
        "trace": 0,
        "seeds": list(seeds),
        "first_side": list(first_sides),
        "all_correct": all(r["correct"] for side in SIDES for r in results[side]),
        "report_csv_sha256": {side: [r["report_csv_sha256"] for r in results[side]] for side in SIDES},
        "attempted": {side: [r["attempted"] for r in results[side]] for side in SIDES},
        "failed": {side: [r["failed"] for r in results[side]] for side in SIDES},
        "metrics": {},
        "info": {},
    }
    for key in INFO_KEYS:
        values = {side: [r["info"][key] for r in results[side]] for side in SIDES}
        row["info"][key] = {**values, **{f"{side}_median": float(np.median(values[side])) for side in SIDES}}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        row["metrics"][name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            **values,
            **summarize(values["parent"], values["change"], metric["better"], metric["bound"]),
        }
    return row


def parse_seeds(text: str):
    """'2801-2810' or '5,7,9' as a list of ints."""
    if "-" in text:
        first, last = (int(v) for v in text.split("-"))
        return list(range(first, last + 1))
    return [int(v) for v in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())

    path = Path(f"BENCH_{args.pr}.json")
    bench = json.loads(path.read_text()) if path.exists() else {}
    bench["command"] = "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0"
    bench.update({f"{side}_commit": git_commit(checkouts[side]) for side in SIDES})
    rows = {row["workload"]: row for row in bench.get("runs", [])}
    for workload in args.workloads:
        results = {side: [] for side in SIDES}
        first_sides = []
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            first_sides.append(order[0])
            for side in order:
                results[side].append(run_once(checkouts[side], workload, seed, args.seconds))
            wall = {side: results[side][-1]["metrics"]["wall_svd"]["value"] for side in SIDES}
            print(f"{workload} seed {seed}: wall_svd parent {wall['parent']:.4g} change {wall['change']:.4g}", flush=True)
        rows[workload] = workload_row(workload, args.seeds, args.seconds, first_sides, results, spec)
        bench["runs"] = list(rows.values())
        path.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
