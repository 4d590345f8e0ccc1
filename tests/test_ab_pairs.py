"""The gain verdict and the regression flags of ``tools/ab_pairs.py`` on fixed numbers."""

import importlib.util
import json
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


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # PARENT's spread 0.10 is 2.7 % of its median 3.65.
    assert not ab_pairs.unresolved(PARENT, PARENT, 0.03)
    assert ab_pairs.unresolved(PARENT, PARENT, 0.02)
    assert ab_pairs.unresolved(PARENT, [p + 1 for p in PARENT], 0.02)
    # Unless every change run beats every parent run.
    assert not ab_pairs.unresolved(PARENT, [3.54] * 10, 0.02)
    assert ab_pairs.unresolved(PARENT, [3.54] * 9 + [3.55], 0.02)
    assert not ab_pairs.unresolved(PARENT, [3.76] * 10, 0.02, "higher")
    assert ab_pairs.unresolved(PARENT, [3.54] * 10, 0.02, "higher")


SPEC = {"end_to_end": [{"name": "op_rel_time", "better": "lower", "bound": 0.25},
                       {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}


def run(op_rel_time=1.0, peak_rss_mb=50.0, failed=0, attempted=100, digests=None):
    """One run's record as ``run_bench`` returns it."""
    return {"metrics": {"op_rel_time": {"value": op_rel_time},
                        "peak_rss_mb": {"value": peak_rss_mb}},
            "failed": failed, "attempted": attempted,
            "digests": {"a.tsv": "aa"} if digests is None else digests}


def test_a_median_worse_by_more_than_the_bound_regresses():
    # Parent median 3.65; a bound of 0.25 allows up to 4.5625.
    assert ab_pairs.regressed(PARENT, [4.57] * 10, 0.25)
    assert not ab_pairs.regressed(PARENT, [4.56] * 10, 0.25)
    assert not ab_pairs.regressed(PARENT, [p + 10 for p in PARENT[:4]] + PARENT[4:], 0.25)


def test_higher_is_better_turns_the_bound_round():
    assert ab_pairs.regressed(PARENT, [2.73] * 10, 0.25, "higher")
    assert not ab_pairs.regressed(PARENT, [2.74] * 10, 0.25, "higher")
    assert not ab_pairs.regressed(PARENT, [4.57] * 10, 0.25, "higher")


def test_equal_sides_raise_no_flag():
    parent = [run(peak_rss_mb=50.0 + i) for i in range(5)]
    assert ab_pairs.flags(parent, parent, SPEC) == []


def test_each_metric_is_held_to_its_own_bound():
    parent = [run(peak_rss_mb=50.0)] * 5
    # 55.1 MB is 10.2 % above 50: past peak_rss_mb's 0.1, inside op_rel_time's 0.25.
    change = [run(op_rel_time=1.2, peak_rss_mb=55.1)] * 5
    found = ab_pairs.flags(parent, change, SPEC)
    assert len(found) == 1 and found[0].startswith("peak_rss_mb: change median 55.1 ")


def test_a_larger_failed_share_is_flagged():
    parent = [run(failed=1, attempted=100), run(failed=0, attempted=100)]
    assert ab_pairs.failed_share(parent) == 0.005
    same_share = [run(failed=0, attempted=100), run(failed=1, attempted=100)]
    assert ab_pairs.flags(parent, same_share, SPEC) == []
    more = [run(failed=2, attempted=100), run(failed=0, attempted=100)]
    assert ab_pairs.flags(parent, more, SPEC) == [
        "failed operations: change share 0.01 is above the parent's 0.005"]


def test_a_digest_that_differs_between_the_sides_is_flagged():
    parent = [run(digests={"a.tsv": "aa", "b.tsv": "bb"})] * 2
    changed = [run(digests={"a.tsv": "aa", "b.tsv": "bX"})] * 2
    missing = [run(digests={"a.tsv": "aa"})] * 2
    assert ab_pairs.digest_differences(parent, parent) == []
    assert ab_pairs.digest_differences(parent, changed) == ["b.tsv"]
    assert ab_pairs.digest_differences(parent, missing) == ["b.tsv"]
    assert ab_pairs.flags(parent, changed, SPEC) == [
        "sha256 b.tsv differs between the parent and the change"]


@pytest.mark.parametrize("change_digest, status", [("aa", 0), ("aX", 1)])
def test_main_exits_1_when_a_flag_fires_though_the_claim_holds(tmp_path, monkeypatch, capsys,
                                                               change_digest, status):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    parent_runs = iter(PARENT)
    change_runs = iter(p - 0.2 for p in PARENT)

    def fake_bench(checkout, workload, seed, seconds):
        if checkout == tmp_path / "parent":
            return run(op_rel_time=next(parent_runs))
        return run(op_rel_time=next(change_runs), digests={"a.tsv": change_digest})

    monkeypatch.setattr(ab_pairs, "run_bench", fake_bench)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path), "--workload", "w",
            "--seed", "1", "--seconds", "1"]
    assert ab_pairs.main(argv) == status
    out = capsys.readouterr().out
    assert "claim on w op_rel_time: holds" in out
    assert ("regression: sha256 a.tsv differs" in out) == bool(status)


@pytest.mark.parametrize("change_digest, status", [("aa", 0), ("aX", 1)])
def test_metric_none_exits_on_the_regression_lines_alone(tmp_path, monkeypatch, capsys,
                                                         change_digest, status):
    """With ``--metric none`` equal sides, which no claim could win, exit 0,
    and only a flag makes the status 1."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")

    def fake_bench(checkout, workload, seed, seconds):
        if checkout == tmp_path / "parent":
            return run()
        return run(digests={"a.tsv": change_digest})

    monkeypatch.setattr(ab_pairs, "run_bench", fake_bench)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path), "--workload", "w",
            "--seed", "1", "--seconds", "1", "--pairs", "5", "--metric", "none"]
    assert ab_pairs.main(argv) == status
    out = capsys.readouterr().out
    assert "claim on" not in out
    assert ("regression: sha256 a.tsv differs" in out) == bool(status)


def test_main_reports_an_unresolved_metric_without_changing_its_status(tmp_path, monkeypatch,
                                                                      capsys):
    """The parent's ``peak_rss_mb`` spreads 45 % of its median, past its
    0.1 bound, and the change's runs overlap it: that metric is reported
    unresolved and ``op_rel_time``, whose runs all beat the parent's, is not."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    parent_rss = iter([40.0, 50.0, 60.0, 70.0] * 2)

    def fake_bench(checkout, workload, seed, seconds):
        if checkout == tmp_path / "parent":
            return run(op_rel_time=2.0, peak_rss_mb=next(parent_rss))
        return run(op_rel_time=1.0, peak_rss_mb=55.0)

    monkeypatch.setattr(ab_pairs, "run_bench", fake_bench)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path), "--workload", "w",
            "--seed", "1", "--seconds", "1", "--pairs", "8", "--metric", "none"]
    assert ab_pairs.main(argv) == 0
    out = capsys.readouterr().out
    assert [line.split(":")[1] for line in out.splitlines()
            if line.startswith("unresolved: ")] == [" peak_rss_mb"]
