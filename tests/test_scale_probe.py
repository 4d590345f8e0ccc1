"""``tools/scale_probe.py`` at a tiny size: its floor share against a direct count."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from lexchoice.cooc import SignificanceThresholds

TOOL = Path(__file__).resolve().parents[1] / "tools" / "scale_probe.py"
_SPEC = importlib.util.spec_from_file_location("scale_probe", TOOL)
scale_probe = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(scale_probe)


def test_the_floor_share_is_the_share_of_written_pairs_at_or_above_the_floor(tmp_path):
    train = tmp_path / "train.tag"
    scale_probe.draw_train(3_000, 1, train)
    result = scale_probe.measure(train, tmp_path)
    rows = [line.split("\t") for line in (tmp_path / "pairs.tsv").read_text().splitlines()
            if line.count("\t") == 2]
    floor = SignificanceThresholds().count_floor
    assert result["written"] == len(rows) > 0
    assert result["kept"] == sum(int(count) >= floor for _, _, count in rows) > 0
    assert result["tokens"] == len(train.read_text().split())
    assert set(result["cpu_s"]) == set(result["traced_bytes"]) == set(scale_probe.STAGES)
    # The write comes first and leaves no row counted; the rows stage then counts them all.
    assert scale_probe.STAGES.index("write") < scale_probe.STAGES.index("rows")
    assert result["traced_bytes"]["write"][1] < result["traced_bytes"]["rows"][1] / 10


def test_the_probe_prints_one_table_per_size_from_a_fresh_process():
    done = subprocess.run([sys.executable, str(TOOL), "--sizes", "1000,2000"],
                          capture_output=True, text=True, timeout=120, check=True)
    heads = [line for line in done.stdout.splitlines() if line.startswith("train ")]
    assert [head.split()[1] for head in heads] == ["1,000", "2,000"]
    assert all("the count floor keeps" in head and "max RSS" in head for head in heads)
    for stage in scale_probe.STAGES:
        assert done.stdout.count(f"| {stage} |") == 2


def test_each_stage_costs_the_least_of_its_untraced_passes(tmp_path, monkeypatch):
    costs = iter([3.0, 1.0, 2.0])

    def fake_stages(train, out, traced):
        cost = 7.0 if traced else next(costs)
        return {name: cost for name in scale_probe.STAGES}, {"tokens": 1}

    monkeypatch.setattr(scale_probe, "run_stages", fake_stages)
    result = scale_probe.measure(tmp_path / "train.tag", tmp_path)
    assert scale_probe.PASSES == 3
    assert result["cpu_s"] == dict.fromkeys(scale_probe.STAGES, 1.0)
    assert result["traced_bytes"] == dict.fromkeys(scale_probe.STAGES, 7.0)
