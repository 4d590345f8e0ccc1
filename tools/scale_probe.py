#!/usr/bin/env python3
"""What each stage of ``stats`` and ``build`` costs as the training corpus grows.

    python3 tools/scale_probe.py --sizes 25000,100000,400000 --seed 1

For each size it draws a training text of that many tokens with
``bench/gen.py`` (the benchmark's language, seed ``--seed``), writes it to a
temporary directory, and measures it in a fresh process, at window
half-width k = 10 and the default stop threshold F = 800. The stages run in
pipeline order, through the package's own functions:

- ``ingest``: ``corpus.ingest_files``;
- ``vocabulary``: ``corpus.build_vocabulary``;
- ``count_pairs``: ``cooc.count_pairs``;
- ``write``: ``write_vocabulary`` and ``write_pair_counts``, of the table
  as ``count_pairs`` returned it, no row counted yet, as ``stats`` writes it;
- ``rows``: every row of that table counted (``PairCounts.rows``);
- ``read``: ``read_pair_counts`` with the default thresholds, which keeps
  only the pairs ``build``'s count floor can admit.

Per stage it prints the CPU seconds, the tracemalloc peak above what was
traced when the stage began, and what the stage's results still hold when
it ends, each in MB and in bytes per token. Per size it
prints the process's max RSS, read after the untraced passes of the stages,
and the share of the written pairs that the floor keeps. Each stage's CPU
time is the least of ``PASSES`` untraced passes, since one pass on a
shared host can read far above what the stage costs; the peaks come from a
last, traced pass.

It uses the standard library only, and reads ``bench/gen.py`` without
changing it.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import process_time

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from lexchoice import cooc, corpus  # noqa: E402

WINDOW = 10
MAX_FREQ = corpus.DEFAULT_STOP_THRESHOLD
STAGES = ("ingest", "vocabulary", "count_pairs", "write", "rows", "read")
PASSES = 3


def max_rss_mb() -> float:
    """This process's peak resident set: ``VmHWM``, which a new program
    starts afresh, or else ``ru_maxrss``."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_stages(train: Path, out: Path, traced: bool) -> tuple[dict, dict]:
    """Each stage's CPU seconds, or its tracemalloc peak and the bytes it
    leaves held, both above the traced size when it began; and the token
    and pair counts."""
    cfg = corpus.CorpusConfig(stop_threshold=MAX_FREQ)
    cost: dict[str, float] = {}
    figures: dict = {}

    def stage(name, step):
        if traced:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = step()
            held, peak = tracemalloc.get_traced_memory()
            cost[name] = (peak - start, held - start)
        else:
            t0 = process_time()
            result = step()
            cost[name] = process_time() - t0
        return result

    ts = stage("ingest", lambda: corpus.ingest_files([train], cfg))
    vocab = stage("vocabulary", lambda: corpus.build_vocabulary(ts, cfg))
    counts = stage("count_pairs",
                   lambda: cooc.count_pairs(ts, vocab, cooc.WindowConfig(WINDOW)))

    def write():
        corpus.write_vocabulary(vocab, out / "vocab.tsv")
        return cooc.write_pair_counts(counts, out / "pairs.tsv")

    figures["written"] = stage("write", write)
    stage("rows", lambda: counts.rows)
    cut = stage("read", lambda: cooc.read_pair_counts(out / "pairs.tsv", vocab,
                                                      cooc.SignificanceThresholds()))
    figures["kept"] = sum(map(len, cut.rows.values())) // 2
    figures["tokens"] = len(ts)
    return cost, figures


def measure(train: Path, out: Path) -> dict:
    """Every figure for one training file, its artifacts written to ``out``."""
    passes = [run_stages(train, out, traced=False) for _ in range(PASSES)]
    cpu = {name: min(cost[name] for cost, _ in passes) for name in STAGES}
    counts = passes[0][1]
    rss = max_rss_mb()
    tracemalloc.start()
    try:
        traced, _ = run_stages(train, out, traced=True)
    finally:
        tracemalloc.stop()
    return {**counts, "max_rss_mb": rss, "cpu_s": cpu, "traced_bytes": traced}


def draw_train(size: int, seed: int, path: Path) -> None:
    from gen import CorpusParams, generate

    path.write_text(generate(seed, CorpusParams(train_tokens=size, heldout_tokens=1)).train_text,
                    encoding="utf-8")


def report(size: int, seed: int, result: dict) -> str:
    tokens = result["tokens"]
    share = result["kept"] / result["written"] if result["written"] else 0.0
    lines = [f"train {size:,} (seed {seed}, {tokens:,} tokens, F = {MAX_FREQ}, k = {WINDOW}): "
             f"max RSS {result['max_rss_mb']:.1f} MB; the count floor keeps "
             f"{result['kept']:,} of {result['written']:,} pairs ({100 * share:.1f} %)",
             "| stage | CPU s | peak MB | peak B/token | held MB | held B/token |",
             "|---|---|---|---|---|---|"]
    for name in STAGES:
        row = [f"{result['cpu_s'][name]:.3f}"]
        for size in result["traced_bytes"][name]:
            row += [f"{size / 1e6:.2f}", f"{size / tokens if tokens else 0:.0f}"]
        lines.append(f"| {name} | {' | '.join(row)} |")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default="25000,100000,400000",
                        help="comma-separated training sizes in tokens")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--measure", nargs=2, metavar=("TRAIN", "OUT"),
                        help="measure one training file in this process and print JSON")
    args = parser.parse_args(argv)
    if args.measure:
        train, out = map(Path, args.measure)
        print(json.dumps(measure(train, out)))
        return 0
    for size in (int(s) for s in args.sizes.split(",")):
        with tempfile.TemporaryDirectory() as tmp:
            train = Path(tmp) / "train.tag"
            draw_train(size, args.seed, train)
            done = subprocess.run(
                [sys.executable, __file__, "--measure", str(train), tmp],
                stdout=subprocess.PIPE, text=True, check=True)
        print(report(size, args.seed, json.loads(done.stdout)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
