"""The summary of tools/bench_pairs.py; Tier-1 runs no benchmark."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_summary_of_lower_is_better():
    parent = [10.0, 12.0, 11.0, 13.0, 9.0]
    change = [9.0, 12.0, 10.0, 14.0, 8.0]
    s = bench_pairs.summarize(parent, change, "lower")
    assert s["parent_median"] == 11.0 and s["change_median"] == 10.0
    assert s["parent_quartiles"] == [10.0, 12.0] and s["change_quartiles"] == [9.0, 12.0]
    assert s["change_rel"] == pytest.approx(-1.0 / 11.0)
    # pairs 0, 2 and 4 are better; a tie (pair 1) is no win
    assert s["change_wins"] == 3 and s["pairs"] == 5


def test_summary_of_higher_is_better():
    s = bench_pairs.summarize([1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 1.0, 5.0], "higher")
    assert s["parent_median"] == 2.5 and s["change_median"] == 2.0
    assert s["parent_quartiles"] == [1.75, 3.25]
    assert s["change_wins"] == 2 and s["pairs"] == 4


def test_summary_at_a_zero_parent_median():
    s = bench_pairs.summarize([0.0, 0.0], [0.0, 1.0], "lower")
    assert s["change_rel"] is None and s["change_wins"] == 0


@pytest.mark.parametrize(
    "parent, change, better",
    [([1.0], [1.0, 2.0], "lower"), ([], [], "lower"), ([1.0], [2.0], "smaller")],
)
def test_summary_rejects_bad_input(parent, change, better):
    with pytest.raises(ValueError):
        bench_pairs.summarize(parent, change, better)


def test_seed_ranges():
    assert bench_pairs.parse_seeds("2801-2804") == [2801, 2802, 2803, 2804]
    assert bench_pairs.parse_seeds("5,7,9") == [5, 7, 9]
