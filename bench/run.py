#!/usr/bin/env python3
"""lexchoice benchmark: one command, three workloads, stdlib only.

    python3 bench/run.py --workload {grid,pipeline,choose} --seed N --seconds S --trace {0,1}

Run it from the repository root. The program under test is the package in
``src/lexchoice`` of the current directory; nothing is installed. The run

1. generates a corpus from ``--seed`` (and, for ``choose``, the vocabulary
   and ``.net`` artifacts) in a scratch directory under ``bench/_work``;
2. starts a fresh Python process that does the workload's untimed set-up
   several times, then runs its operation in a closed loop with one client
   for ``--seconds`` (``--trace 0``), or runs each distinct input once
   untraced and once traced (``--trace 1``);
3. checks the outputs, prints every metric with its unit, the artifact
   digests and the provenance, writes the same to
   ``bench/results/BENCH_<workload>_seed<N>_trace<T>.json``, and prints
   one JSON object as its last line.

See bench/README.md for why each workload exists and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

# A run must end within 180 s; the measured process gets what prep leaves.
RUN_LIMIT_S = 170

SCALES = {
    "full": {"corpus": {}, "roots": 32, "max_edges": 150, "queries": 10_000, "batch": 100,
             "sample": 200},
    "tiny": {
        "corpus": {"train_tokens": 8_000, "heldout_tokens": 4_000, "background_types": 2_000,
                   "topics": 12, "sets": 2},
        "roots": 8, "max_edges": 12, "queries": 300, "batch": 10, "sample": 30,
    },
}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def prepare(workload: str, seed: int, scale: dict, work: Path) -> dict:
    """Write the generated inputs into ``work``; return what the workload needs."""
    from gen import STRUCTURE_SEED, CorpusParams, generate
    from lexchoice import cooc, corpus, network

    params = CorpusParams(**scale["corpus"])
    generated = generate(seed, params, queries=scale["queries"] if workload == "choose" else 0)
    generated.write(work)
    prep = {"seed": seed, "train": "train.tag", "heldout": "heldout.tag",
            "sets": generated.sets, "corpus": params.as_dict()}
    if workload == "pipeline":
        stream = corpus.ingest(generated.train_text)
        vocab = corpus.build_vocabulary(stream)
        members = [w for s in generated.sets for w in s["members"]]
        # The same roots for every seed, as far as the corpus allows.
        words = random.Random(STRUCTURE_SEED).sample(generated.topic_words,
                                                     len(generated.topic_words))
        usable = [w for w in words if 0 < vocab.freq.get(w, 0) <= vocab.stop_threshold]
        prep["roots"] = members + usable[:scale["roots"] - len(members)]
        prep["max_edges"] = scale["max_edges"]
    elif workload == "choose":
        from workloads import NETWORK_ORDER, WINDOW

        stream = corpus.ingest(generated.train_text)
        vocab = corpus.build_vocabulary(stream)
        counts = cooc.count_pairs(stream, vocab, cooc.WindowConfig(WINDOW))
        nets = work / "nets"
        corpus.write_vocabulary(vocab, nets / "vocab.tsv")
        for s in generated.sets:
            for w in s["members"]:
                net = network.build_network(w, counts, max_order=NETWORK_ORDER)
                network.write_network(net, nets / f"{w}.net")
        (work / "queries.tsv").write_text(
            "".join(f"{set_id}\t{text}\n" for set_id, text in generated.queries), encoding="utf-8"
        )
        prep.update(nets="nets", queries="queries.tsv", batch=scale["batch"], sample=scale["sample"])
    (work / "prep.json").write_text(json.dumps(prep), encoding="utf-8")
    return prep


def provenance(args, prep: dict) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            git_sha = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for path in sorted((SRC / "lexchoice").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "corpus": prep["corpus"],
    }


def main(argv: list[str] | None = None) -> int:
    from spec import END_TO_END, PER_LAYER, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="corpus and workload size; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "lexchoice" / "__init__.py").is_file():
        fail(f"no lexchoice package under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))

    # Turn SIGTERM into SystemExit, so subprocess.run stops the measured
    # process and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = perf_counter()
    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prep = prepare(args.workload, args.seed, SCALES[args.scale], work)
        env = dict(os.environ, PYTHONHASHSEED="0")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        command = [sys.executable, str(BENCH / "workloads.py"), str(work), args.workload,
                   str(args.seconds), str(args.trace)]
        try:
            child = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                                   timeout=max(1.0, RUN_LIMIT_S - (perf_counter() - started)))
        except subprocess.TimeoutExpired:
            fail("the measured process ran out of time and was stopped")
        sys.stdout.write(child.stdout)
        if child.returncode != 0 or not (work / "result.json").is_file():
            fail(f"the measured process exited with status {child.returncode}")
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        spans = work / "spans.tsv"
        label = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
        results_dir = BENCH / "results"
        results_dir.mkdir(exist_ok=True)
        if spans.is_file():
            shutil.copyfile(spans, results_dir / f"{label}_spans.tsv")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {name: unit for name, unit, *_ in (END_TO_END if args.trace == 0 else PER_LAYER)}
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    record = {"provenance": provenance(args, prep), "digests": result["digests"],
              "failures": result["failures"], "detail": result["detail"],
              "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}
    (results_dir / f"{label}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for key, value in record["provenance"].items():
        print(f"# {key}: {json.dumps(value)}")
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(f"failed_ops_frac = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']})")
    for key, value in result["detail"].items():
        print(f"# {key}: {value}")
    for name, value in result["digests"].items():
        print(f"sha256 {name} {value}")
    if result["failures"]:
        print(f"# failed checks: {', '.join(result['failures'][:20])}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
