#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, and the verdict on a gain.

    python3 tools/ab_pairs.py --parent DIR --change DIR --workload pipeline \\
        --seed 59 --seconds 30 --pairs 10 --metric op_rel_time

Each pair runs ``bench/run.py --workload W --seed S --seconds T --trace 0``
once in each checkout, from that checkout's root: the parent first in odd
pairs, the change first in even ones. The script prints every run's
end-to-end metrics and failed operations, then each side's median and
quartiles and the change's wins per metric. A pair where the two runs read
the same counts for neither side.

The claim on ``--metric`` holds when the change wins at least nine tenths
of the pairs and its median beats the parent's by more than the distance
between the parent's quartiles. Quartiles are ``statistics.quantiles``
with its default (exclusive) method, which on ten runs spreads them
wider than the inclusive one.

The script also flags a regression:
- on any end-to-end metric, a change median worse than the parent's by
  more than that metric's ``bound``, a share of the parent's median;
- a larger share of failed operations on the change's side, over all its
  runs;
- any ``sha256`` artifact digest that differs between the two sides.

An end-to-end metric is reported ``unresolved`` when the parent's
quartile spread, as a share of its median, is wider than the metric's
bound, unless every change run beats every parent run: the runs then
cannot tell a change of that size from the parent's own noise. This
changes no exit status.

The exit status is 0 when the claim holds and nothing is flagged, and 1
otherwise. ``--metric none`` claims nothing: a run that only checks for
regressions then exits 0 unless a ``regression:`` line is printed. The
metric names, which way is better and the bounds come from
``BENCHMARK.json`` in the change's checkout. The script edits neither
checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

# A run must end within the benchmark's own 180-s limit; this only guards
# against a hung process.
RUN_TIMEOUT_S = 600


class Verdict(NamedTuple):
    wins: int
    pairs: int
    gap: float  # parent median less change median, positive when the change is better
    spread: float  # parent's upper quartile less its lower quartile
    holds: bool


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str = "lower") -> Verdict:
    """Whether the change's runs beat the parent's, pair by pair, by the
    rule in the module docstring. ``parent[i]`` and ``change[i]`` are pair
    i's two runs."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need the same number of runs on each side, at least two")
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    q1, parent_median, q3 = quartiles(parent)
    gap = sign * (parent_median - statistics.median(change))
    spread = q3 - q1
    return Verdict(wins, len(parent), gap, spread, wins * 10 >= 9 * len(parent) and gap > spread)


def regressed(parent: list[float], change: list[float], bound: float,
              better: str = "lower") -> bool:
    """Whether the change's median is worse than the parent's by more than
    ``bound``, a share of the parent's median."""
    sign = 1 if better == "lower" else -1
    parent_median = statistics.median(parent)
    return sign * (statistics.median(change) - parent_median) > bound * abs(parent_median)


def unresolved(parent: list[float], change: list[float], bound: float,
               better: str = "lower") -> bool:
    """Whether the parent's quartile spread is wider than ``bound``, a share
    of its median, while some change run does not beat every parent run."""
    sign = 1 if better == "lower" else -1
    if all(sign * (p - c) > 0 for p in parent for c in change):
        return False
    q1, parent_median, q3 = quartiles(parent)
    return q3 - q1 > bound * abs(parent_median)


def failed_share(runs: list[dict]) -> float:
    """Failed operations over attempted ones, over all of ``runs``."""
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def digest_differences(parent: list[dict], change: list[dict]) -> list[str]:
    """The artifact names whose ``sha256`` digests on one side are not those
    on the other (a name one side lacks included), sorted."""
    def seen(runs: list[dict], name: str) -> set:
        return {r["digests"].get(name) for r in runs}

    names = {name for r in parent + change for name in r["digests"]}
    return sorted(name for name in names if seen(parent, name) != seen(change, name))


def flags(parent: list[dict], change: list[dict], spec: dict) -> list[str]:
    """Every regression rule of the module docstring that the runs break,
    one line each; empty when none does."""
    found = []
    for m in spec["end_to_end"]:
        name = m["name"]
        before = [r["metrics"][name]["value"] for r in parent]
        after = [r["metrics"][name]["value"] for r in change]
        if regressed(before, after, m["bound"], m["better"]):
            found.append(f"{name}: change median {statistics.median(after):.6g} is worse than "
                         f"the parent's {statistics.median(before):.6g} by more than "
                         f"its bound {m['bound']:g}")
    if failed_share(change) > failed_share(parent):
        found.append(f"failed operations: change share {failed_share(change):.6g} is above "
                     f"the parent's {failed_share(parent):.6g}")
    for name in digest_differences(parent, change):
        found.append(f"sha256 {name} differs between the parent and the change")
    return found


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run in ``checkout``: the JSON object the benchmark
    prints as its last line, with the ``sha256`` lines it prints before it
    as ``digests``."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} in {checkout} exited with {done.returncode}")
    result = json.loads(lines[-1])
    result["digests"] = dict(line.removeprefix("sha256 ").rsplit(" ", 1)
                             for line in lines if line.startswith("sha256 "))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    parser.add_argument("--change", type=Path, required=True, help="the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--metric", default="op_rel_time",
                        help="the metric of the claim, or 'none' to claim nothing")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if args.metric not in better and args.metric != "none":
        parser.error(f"--metric must be one of {', '.join(better)} or none")
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {s: [] for s in sides}
    for pair in range(1, args.pairs + 1):
        order = ["parent", "change"] if pair % 2 else ["change", "parent"]
        for side in order:
            result = run_bench(sides[side], args.workload, args.seed, args.seconds)
            runs[side].append(result)
            shown = " ".join(f"{name}={result['metrics'][name]['value']:.6g}" for name in better)
            print(f"pair {pair} {side}: {shown} failed={result['failed']} of "
                  f"{result['attempted']}", flush=True)

    values = {side: {name: [r["metrics"][name]["value"] for r in runs[side]] for name in better}
              for side in sides}
    for name, direction in better.items():
        for side in sides:
            q1, median, q3 = quartiles(values[side][name])
            print(f"{name} {side}: median {median:.6g} quartiles {q1:.6g} {q3:.6g}")
        v = verdict(values["parent"][name], values["change"][name], direction)
        print(f"{name}: change better in {v.wins} of {v.pairs} pairs, median gap {v.gap:.6g}, "
              f"parent quartile spread {v.spread:.6g}")
        if unresolved(values["parent"][name], values["change"][name], bounds[name], direction):
            print(f"unresolved: {name}: the parent quartile spread {v.spread:.6g} is wider than "
                  f"its bound {bounds[name]:g} of the parent median")
    holds = True
    if args.metric != "none":
        v = verdict(values["parent"][args.metric], values["change"][args.metric],
                    better[args.metric])
        holds = v.holds
        print(f"claim on {args.workload} {args.metric}: {'holds' if holds else 'does not hold'}")
    found = flags(runs["parent"], runs["change"], spec)
    for line in found:
        print(f"regression: {line}")
    return 0 if holds and not found else 1


if __name__ == "__main__":
    sys.exit(main())
