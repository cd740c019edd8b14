"""The summary of tools/bench_pairs.py; Tier-1 runs no benchmark."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_summary_of_lower_is_better():
    parent = [10.0, 12.0, 11.0, 13.0, 9.0]
    change = [9.0, 12.0, 10.0, 14.0, 8.0]
    s = bench_pairs.summarize(parent, change, "lower", 0.25)
    assert s["parent_median"] == 11.0 and s["change_median"] == 10.0
    assert s["parent_quartiles"] == [10.0, 12.0] and s["change_quartiles"] == [9.0, 12.0]
    assert s["change_rel"] == pytest.approx(-1.0 / 11.0)
    # pairs 0, 2 and 4 are better; a tie (pair 1) is no win
    assert s["change_wins"] == 3 and s["pairs"] == 5


def test_summary_of_higher_is_better():
    s = bench_pairs.summarize([1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 1.0, 5.0], "higher", 0.25)
    assert s["parent_median"] == 2.5 and s["change_median"] == 2.0
    assert s["parent_quartiles"] == [1.75, 3.25]
    assert s["change_wins"] == 2 and s["pairs"] == 4


def test_summary_at_a_zero_parent_median():
    s = bench_pairs.summarize([0.0, 0.0], [0.0, 1.0], "lower", 0.25)
    assert s["change_rel"] is None and s["change_wins"] == 0


@pytest.mark.parametrize(
    "parent, change, better",
    [([1.0], [1.0, 2.0], "lower"), ([], [], "lower"), ([1.0], [2.0], "smaller")],
)
def test_summary_rejects_bad_input(parent, change, better):
    with pytest.raises(ValueError):
        bench_pairs.summarize(parent, change, better, 0.25)


# Ten parent runs with median 10.0 and interquartile range 1.0.
_PARENT = [9.0, 9.5, 9.5, 9.5, 10.0, 10.0, 10.5, 10.5, 10.5, 11.0]


@pytest.mark.parametrize(
    "change, better, holds",
    [
        # every pair better, the median 1.5 below: the claim holds
        ([v - 1.5 for v in _PARENT], "lower", True),
        # the same for a higher-is-better metric
        ([v + 1.5 for v in _PARENT], "higher", True),
        # 8 of 10 pairs better, though the median moves by 1.5
        ([v - 1.5 for v in _PARENT[:8]] + [v + 1.0 for v in _PARENT[8:]], "lower", False),
        # every pair better, but the median moves by the IQR alone
        ([v - 1.0 for v in _PARENT], "lower", False),
        # a gain in the wrong direction
        ([v - 1.5 for v in _PARENT], "higher", False),
    ],
)
def test_claim_holds_needs_nine_wins_in_ten_and_a_move_past_the_iqr(change, better, holds):
    s = bench_pairs.summarize(_PARENT, change, better, 0.25)
    assert s["parent_quartiles"] == [9.5, 10.5]
    assert s["claim_holds"] is holds


@pytest.mark.parametrize(
    "shift, better, within",
    [
        (2.4, "lower", True),  # 24% worse
        (2.5, "lower", True),  # at the bound
        (2.6, "lower", False),
        (-5.0, "lower", True),  # better by any amount
        (-2.4, "higher", True),
        (-2.6, "higher", False),
        (5.0, "higher", True),
    ],
)
def test_within_bound_compares_the_medians(shift, better, within):
    s = bench_pairs.summarize(_PARENT, [v + shift for v in _PARENT], better, 0.25)
    assert s["within_bound"] is within


@pytest.mark.parametrize(
    "parent, change, better, resolved",
    [
        # the parent's IQR, 1.0, is 10% of its median: tight enough at 0.25
        (_PARENT, [v + 2.0 for v in _PARENT], "lower", True),
        (_PARENT, [v - 2.0 for v in _PARENT], "higher", True),
        # an IQR of 8.0 about a median of 10.0 is too wide to tell...
        ([2.0, 6.0, 10.0, 14.0, 18.0], [1.0, 5.0, 9.0, 13.0, 17.0], "lower", False),
        # ...unless every change run beats every parent run
        ([2.0, 6.0, 10.0, 14.0, 18.0], [0.5, 1.0, 1.0, 1.5, 1.9], "lower", True),
        ([2.0, 6.0, 10.0, 14.0, 18.0], [18.5, 19.0, 20.0, 21.0, 22.0], "higher", True),
        # a tie with the best parent run is no separation
        ([2.0, 6.0, 10.0, 14.0, 18.0], [0.5, 1.0, 1.0, 1.5, 2.0], "lower", False),
        # separated, but on the worse side
        ([2.0, 6.0, 10.0, 14.0, 18.0], [0.5, 1.0, 1.0, 1.5, 1.9], "higher", False),
    ],
)
def test_resolved_needs_a_tight_parent_or_separated_runs(parent, change, better, resolved):
    assert bench_pairs.summarize(parent, change, better, 0.25)["resolved"] is resolved


def test_commit_of_a_checkout(tmp_path):
    # a checkout's HEAD names it only while its tracked files are unchanged
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    assert bench_pairs.git_commit(tmp_path) is None
    subprocess.run(git + ["init", "-q"], cwd=tmp_path, check=True)
    (tmp_path / "f").write_text("a")
    subprocess.run(git + ["add", "f"], cwd=tmp_path, check=True)
    subprocess.run(git + ["commit", "-q", "-m", "f"], cwd=tmp_path, check=True)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tmp_path, capture_output=True, text=True).stdout.strip()
    (tmp_path / "untracked").write_text("b")
    assert bench_pairs.git_commit(tmp_path) == head
    (tmp_path / "f").write_text("c")
    assert bench_pairs.git_commit(tmp_path) is None


def test_seed_ranges():
    assert bench_pairs.parse_seeds("2801-2804") == [2801, 2802, 2803, 2804]
    assert bench_pairs.parse_seeds("5,7,9") == [5, 7, 9]


def _run(wall_svd, wall_s, ref_svd_ms):
    """A run result as run_once returns it, with one end-to-end metric."""
    return {
        "correct": True, "attempted": 3, "failed": 0, "report_csv_sha256": "ab",
        "metrics": {"wall_svd": {"value": wall_svd}},
        "info": {"wall_s": wall_s, "ref_svd_ms": ref_svd_ms},
    }


def test_run_info_is_read_from_the_report(tmp_path):
    # wall_svd's two inputs come from the report perfbench/run.py writes
    out = tmp_path / ".bench_out"
    out.mkdir()
    report = {"end_to_end_info": {"wall_s": 0.004, "ref_svd_ms": 0.1, "trials": 7}}
    (out / "onebit_known-seed3-trace0.json").write_text(json.dumps(report))
    assert bench_pairs.read_info(tmp_path, "onebit_known", 3) == {"wall_s": 0.004, "ref_svd_ms": 0.1}
    with pytest.raises(FileNotFoundError):
        bench_pairs.read_info(tmp_path, "onebit_known", 4)


def test_row_holds_each_sides_run_info_and_medians():
    spec = {"end_to_end": [{"name": "wall_svd", "unit": "svd", "better": "lower", "bound": 0.25}]}
    results = {
        "parent": [_run(40.0, 0.004, 0.10), _run(44.0, 0.005, 0.11), _run(42.0, 0.006, 0.12)],
        "change": [_run(36.0, 0.0036, 0.10), _run(38.0, 0.0035, 0.09), _run(37.0, 0.0040, 0.11)],
    }
    row = bench_pairs.workload_row("onebit_known", [1, 2, 3], 30.0, ["parent", "change", "parent"], results, spec)
    assert row["metrics"]["wall_svd"]["parent_median"] == 42.0
    wall, ref = row["info"]["wall_s"], row["info"]["ref_svd_ms"]
    assert wall["parent"] == [0.004, 0.005, 0.006] and wall["change"] == [0.0036, 0.0035, 0.0040]
    assert wall["parent_median"] == 0.005 and wall["change_median"] == 0.0036
    assert ref["parent_median"] == 0.11 and ref["change_median"] == 0.10
