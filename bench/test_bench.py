"""The benchmark's own tests, at a tiny scale.

    PYTHONPATH=src python3 -m pytest -q bench

They are not part of the package's suite (``tests/``).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from gen import CorpusParams, generate  # noqa: E402
from lexchoice import choice  # noqa: E402

TINY = run.SCALES["tiny"]


def tiny_corpus(seed: int):
    return generate(seed, CorpusParams(**TINY["corpus"]), queries=20)


def test_generator_is_deterministic_per_seed_and_differs_across_seeds():
    a, b, c = tiny_corpus(3), tiny_corpus(3), tiny_corpus(4)
    assert (a.train_text, a.heldout_text, a.queries) == (b.train_text, b.heldout_text, b.queries)
    assert a.train_text != c.train_text
    assert a.queries != c.queries


def test_generator_has_the_properties_networks_need():
    from lexchoice import corpus

    c = generate(1)
    stream = corpus.ingest(c.train_text)
    vocab = corpus.build_vocabulary(stream)
    assert any(tok.pos == "CD" for tok in stream) and any(tok.pos == "." for tok in stream)
    assert any(f > vocab.stop_threshold for f in vocab.freq.values())
    lengths = [len(line.split()) for line in c.train_text.splitlines()]
    assert min(lengths) <= 10 and max(lengths) >= 35
    members = [w for s in c.sets for w in s["members"]]
    assert all(0 < vocab.freq.get(w, 0) <= vocab.stop_threshold for w in members)


def test_benchmark_json_matches_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert on_disk == spec.benchmark_json()


def run_cli(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_each_workload_emits_every_metric(workload, trace):
    proc = run_cli(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = spec.END_TO_END if trace == 0 else spec.PER_LAYER
    assert {n: u for n, u, *_ in table} == {n: m["unit"] for n, m in result["metrics"].items()}
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text(encoding="utf-8"))
    proc = run_cli("grid", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def prepared(workload: str, tmp_path: Path):
    run.prepare(workload, 5, TINY, tmp_path)
    prep = json.loads((tmp_path / "prep.json").read_text(encoding="utf-8"))
    return workloads.WORKLOADS[workload](tmp_path, prep)


def test_corrupted_network_artifact_fails_the_pipeline_checks(tmp_path, monkeypatch):
    wl = prepared("pipeline", tmp_path)
    real_main = workloads.cli.main

    def main_then_corrupt(argv):
        status = real_main(argv)
        if argv[0] == "build":
            net = Path(argv[argv.index("--out") + 1]) / f"{wl.roots[0]}.net"
            lines = net.read_text(encoding="utf-8").splitlines()
            edge = next(i for i, line in enumerate(lines) if line.startswith("EDGE"))
            w1, w2, _ = lines[edge][5:].split(" ")
            lines[edge] = f"EDGE {w1} {w2} 99.000000"
            net.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return status

    monkeypatch.setattr(workloads.cli, "main", main_then_corrupt)
    result = workloads.measure(wl, 0.01)
    assert result["failed"] > 0
    assert f"pipeline.net.{wl.roots[0]}" in result["failures"]


def test_wrong_ranking_fails_the_choose_checks(tmp_path, monkeypatch):
    wl = prepared("choose", tmp_path)
    real_choose = choice.choose
    monkeypatch.setattr(choice, "choose", lambda *args: real_choose(*args)[::-1])
    result = workloads.measure(wl, 0.01)
    assert result["failed"] > 0
    assert any(name.startswith("choose.rerank.") for name in result["failures"])


def test_grid_recount_detects_a_wrong_pair_count(tmp_path, monkeypatch):
    wl = prepared("grid", tmp_path)
    real_count = workloads.cooc.count_pairs

    member = wl.set_defs[0].members[0]

    def off_by_one(ts, vocab, window):
        counts = real_count(ts, vocab, window)
        key = next(key for key in counts.pairs if member in key)
        counts.pairs[key] += 1
        return counts

    monkeypatch.setattr(workloads.cooc, "count_pairs", off_by_one)
    wl.setup()
    wl.op(0, lambda name: workloads.nullcontext())
    checks = workloads.Checks()
    wl.check(checks, [])
    assert any(name.startswith("grid.recount.") for name in checks.failures)


def test_self_times_account_for_the_traced_time():
    tracer = workloads.Tracer("t")
    with tracer.span("op"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("a"):
            pass
    self_times = tracer.self_times()
    assert set(self_times) == {"op", "a", "b"}
    assert sum(self_times.values()) == pytest.approx(tracer.root_time())
    assert min(self_times.values()) >= 0
