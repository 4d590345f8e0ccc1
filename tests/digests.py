"""Pinned sha256 digests of every artifact the program writes.

``tests/digests.json`` holds the digests of the benchmark's three workloads
at their tiny scale (seed 5), as ``test_bench_surface`` runs them, and of a
CLI chain over the planted corpus: ``stats``, an uncapped and a capped
``build``, ``choose`` (text and ``--json``) and ``evaluate``. The tests
compare what the code writes now with the file, so a change that alters an
artifact byte fails tier-1.

The digests are pinned for CPython on Linux: a ``math.log2`` or ``sqrt``
result near a threshold may differ under another libm, so elsewhere the
tests that compare them are reported as skipped.

A change that alters an artifact on purpose regenerates the file, recording
the commit checked out, with

    PYTHONPATH=src python3 tests/digests.py

and says which digests moved and why.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import subprocess
import sys
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
PINNED_PATH = Path(__file__).resolve().parent / "digests.json"
PINNED_HERE = sys.platform == "linux" and platform.python_implementation() == "CPython"
NOT_PINNED = "digests are pinned for CPython on Linux"
BENCH_SEED = 5

sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from lexchoice.cli import main  # noqa: E402
from lexchoice.synthetic import planted_corpus  # noqa: E402

CHOOSE_ARGS = ["choose", "--networks", "nets", "--vocab", "counts/vocab.tsv",
               "--candidates", "widget,gadget",
               "--sentence", "hx001/NN factory/NN hx002/NN ____ catalog/NN ./."]


def pinned() -> dict:
    return json.loads(PINNED_PATH.read_text(encoding="utf-8"))


def run_bench_workload(workload: str, work: Path):
    """Prepare and run ``workload`` at the tiny scale in ``work``, traced as
    the benchmark traces it: ``(workload object, outputs)``."""
    run.prepare(workload, BENCH_SEED, run.SCALES["tiny"], work)
    prep = json.loads((work / "prep.json").read_text(encoding="utf-8"))
    wl = workloads.WORKLOADS[workload](work, prep)
    tracer = tracing.Tracer("t")
    with tracing.instrument(tracer):
        wl.setup()
        outputs = [wl.op(i, tracer.span) for i in range(wl.steps)]
    return wl, outputs


@contextmanager
def _inside(directory: Path):
    before = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(before)


def _stdout_of(argv: list[str]) -> bytes:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"lexchoice {' '.join(argv)} exited with {code}")
    return out.getvalue().encode("utf-8")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_chain_digests(work: Path) -> dict[str, str]:
    """Run the CLI chain over the planted corpus inside ``work``, with
    relative paths so that no artifact holds ``work``: the digest of each
    file written and of each ``choose`` output."""
    pc = planted_corpus()
    (work / "train.tag").write_text(pc.train_text, encoding="utf-8")
    (work / "heldout.tag").write_text(pc.heldout_text, encoding="utf-8")
    config = {"train_corpus": "train.tag", "heldout_corpus": "heldout.tag",
              "windows": [4, 10], "orders": [1, 2, 3],
              "sets": [{"id": "planted", "pos": "NN", "members": pc.set_def.members}],
              "out_dir": "report"}
    (work / "eval.json").write_text(json.dumps(config), encoding="utf-8")
    roots = ["--root", "widget", "--root", "gadget", "--root", "assemble"]
    with _inside(work):
        _stdout_of(["stats", "--corpus", "train.tag", "--window", "4", "--out", "counts"])
        _stdout_of(["build", "--counts", "counts", "--order", "2", *roots, "--out", "nets"])
        _stdout_of(["build", "--counts", "counts", "--order", "2", "--max-edges", "6",
                    *roots, "--out", "capped"])
        outputs = {"choose": _stdout_of(CHOOSE_ARGS),
                   "choose --json": _stdout_of(CHOOSE_ARGS + ["--json"])}
        _stdout_of(["evaluate", "--config", "eval.json"])
    files = ["counts/vocab.tsv", "counts/pairs.tsv",
             *sorted(f"{d}/{p.name}" for d in ("nets", "capped") for p in (work / d).glob("*.net")),
             "report/report.tsv", "report/instances.tsv"]
    digests = {name: _sha256((work / name).read_bytes()) for name in files}
    digests.update((name, _sha256(data)) for name, data in outputs.items())
    return digests


def regenerate(work: Path) -> dict:
    """Every digest, computed under ``work``, with the commit checked out."""
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True, check=True).stdout.strip()
    bench = {}
    for workload in spec.WORKLOADS:
        (work / workload).mkdir()
        wl, _ = run_bench_workload(workload, work / workload)
        bench[workload] = wl.digests()
    (work / "cli").mkdir()
    return {"commit": commit, "regenerate": "PYTHONPATH=src python3 tests/digests.py",
            "bench": bench, "cli": cli_chain_digests(work / "cli")}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        PINNED_PATH.write_text(json.dumps(regenerate(Path(tmp)), indent=2, sort_keys=True) + "\n",
                               encoding="utf-8")
    print(f"wrote {PINNED_PATH}")
