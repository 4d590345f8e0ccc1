"""The gain verdict of ``tools/ab_pairs.py`` on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab_pairs", Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

# Ten parent runs with quartiles 3.60 and 3.70 (exclusive method): a spread of 0.10.
PARENT = [3.55, 3.60, 3.60, 3.62, 3.64, 3.66, 3.68, 3.70, 3.70, 3.75]


def test_nine_wins_of_ten_with_a_wide_gap_hold():
    change = [p - 0.2 for p in PARENT[:9]] + [PARENT[9] + 0.1]
    v = ab_pairs.verdict(PARENT, change)
    assert (v.wins, v.pairs, v.holds) == (9, 10, True)
    assert v.spread == pytest.approx(0.10)
    assert v.gap == pytest.approx(0.2)


def test_eight_wins_of_ten_fail_however_wide_the_gap():
    change = [p - 1.0 for p in PARENT[:8]] + [p + 0.01 for p in PARENT[8:]]
    v = ab_pairs.verdict(PARENT, change)
    assert (v.wins, v.holds) == (8, False)
    assert v.gap > v.spread


def test_ten_wins_with_a_gap_inside_the_parent_spread_fail():
    change = [p - 0.05 for p in PARENT]
    v = ab_pairs.verdict(PARENT, change)
    assert (v.wins, v.holds) == (10, False)
    assert 0 < v.gap < v.spread


def test_a_tie_counts_for_neither_side():
    change = [p - 0.2 for p in PARENT[:9]] + [PARENT[9]]
    assert ab_pairs.verdict(PARENT, change).wins == 9


def test_higher_is_better_turns_the_rule_round():
    change = [p + 0.2 for p in PARENT]
    assert ab_pairs.verdict(PARENT, change, "higher").holds
    assert not ab_pairs.verdict(PARENT, change, "lower").holds


def test_unequal_sides_are_refused():
    with pytest.raises(ValueError, match="same number of runs"):
        ab_pairs.verdict(PARENT, PARENT[:9])
