"""The three workloads: untimed set-up, one timed operation, and the checks.

Run by ``bench/run.py`` in a fresh process per workload, after the corpus
files and (for ``choose``) the ``.net`` artifacts have been written by the
parent process, so that peak RSS belongs to the workload alone:

    python3 bench/workloads.py WORK_DIR WORKLOAD SECONDS TRACE

It reads ``WORK_DIR/prep.json`` and writes ``WORK_DIR/result.json``.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import statistics
import sys
import traceback
import tracemalloc
from array import array
from collections import Counter
from contextlib import nullcontext, redirect_stdout
from pathlib import Path
from time import perf_counter

from lexchoice import choice, cli, cooc, corpus, evaluation, ioutil, network

import calibrate
from spec import CELLS, ORDERS, PER_LAYER, WINDOWS
from tracing import Tracer, instrument

# Set-up runs this often before the timed loop, and once after each block
# of it; the median of all is setup_s.
SETUP_REPEATS = 5
# Operations are timed in blocks at least this long, each followed by the
# calibration kernel.
BLOCK_SECONDS = 1.0
# Window half-width and network order of the pipeline and choose workloads.
WINDOW = 10
NETWORK_ORDER = 3


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def recount_rows(stream, words, k: int) -> dict[str, Counter]:
    """Pair counts of ``words`` against everything, by direct enumeration of
    each occurrence's window; independent of cooc.count_pairs."""
    targets = set(words)
    rows = {w: Counter() for w in targets}
    n = len(stream)
    for i, tok in enumerate(stream):
        if tok.surface not in targets or tok.is_stop:
            continue
        row = rows[tok.surface]
        for j in range(max(0, i - k), min(n, i + k + 1)):
            other = stream[j]
            if j == i or other.sentence_id != tok.sentence_id:
                continue
            if other.is_stop or other.surface == tok.surface:
                continue
            row[other.surface] += 1
    return rows


def table_rows(counts: cooc.PairCounts, words) -> dict[str, Counter]:
    return {w: Counter({o: counts.get(w, o) for o in counts.neighbors(w)}) for w in words}


def stream_counts(stream, vocab) -> dict[str, float]:
    return {
        "corpus.tokens": len(stream),
        "corpus.stop_tokens": sum(tok.is_stop for tok in stream),
        "corpus.vocab_words": len(vocab.freq),
    }


def stream_peak_mb(path: Path) -> float:
    """tracemalloc peak of ingesting and counting one corpus file."""
    tracemalloc.start()
    try:
        stream = corpus.ingest_files([path])
        corpus.build_vocabulary(stream)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def peak_rss_kb() -> int:
    """This process's peak resident set. ru_maxrss would also count the
    parent's peak, which the kernel carries across exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


class Grid:
    """cli.cmd_evaluate's work through the library: the paper's experiment."""

    distinct_inputs = 1
    steps = 1

    def __init__(self, work: Path, prep: dict):
        self.train = work / prep["train"]
        self.heldout = work / prep["heldout"]
        self.out = work / "eval-out"
        self.set_defs = [
            evaluation.SetDefinition(s["id"], s["pos"], s["members"]) for s in prep["sets"]
        ]
        self.header = {"train": prep["train"], "heldout": prep["heldout"], "format": "slash",
                       "windows": ",".join(map(str, WINDOWS)), "orders": ",".join(map(str, ORDERS))}
        self.state = None
        self.cells = None

    def setup(self) -> None:
        self.state = None
        train = corpus.ingest_files([self.train])
        heldout = corpus.ingest_files([self.heldout])
        vocab = corpus.build_vocabulary(train)
        corpus.apply_stop_policy(heldout, vocab, corpus.CorpusConfig())
        self.state = (train, vocab, heldout)

    def op(self, i: int, span) -> str:
        train, vocab, heldout = self.state
        self.cells = evaluation.run_grid(
            train, vocab, heldout, self.set_defs, list(WINDOWS), list(ORDERS)
        )
        report = evaluation.render_grid_report(self.cells, self.set_defs, self.header)
        log = evaluation.render_instance_log(self.cells)
        ioutil.atomic_write_text(self.out / "report.tsv", report)
        ioutil.atomic_write_text(self.out / "instances.tsv", log)
        return digest([self.out / "report.tsv", self.out / "instances.tsv"])

    def check(self, checks: Checks, outputs: list) -> None:
        train, vocab, _ = self.state
        checks.add("grid.cells", [(c.window, c.order) for c in self.cells] == CELLS)
        for cell in self.cells:
            for sdef in self.set_defs:
                outcomes = cell.outcomes[sdef.set_id]
                report = cell.reports[sdef.set_id]
                n = len(outcomes)
                baseline = min(sdef.members, key=lambda w: (-vocab.freq.get(w, 0), w))
                correct = sum(o.chosen == o.instance.gold for o in outcomes)
                base_correct = sum(o.instance.gold == baseline for o in outcomes)
                checks.add(
                    f"grid.accuracy.k{cell.window}.d{cell.order}.{sdef.set_id}",
                    n == report.sample_size and n > 0
                    and report.accuracy == correct / n
                    and report.baseline_accuracy == base_correct / n,
                )
                checks.add(
                    f"grid.fallback.k{cell.window}.d{cell.order}.{sdef.set_id}",
                    all(o.chosen == baseline for o in outcomes
                        if all(s.total == 0.0 for s in o.ranked)),
                )
        words = [w for sdef in self.set_defs for w in sdef.members]
        for k in WINDOWS:
            counts = cooc.count_pairs(train, vocab, cooc.WindowConfig(k))
            checks.add(f"grid.recount.k{k}", table_rows(counts, words) == recount_rows(train, words, k))

    def layer_counts(self) -> dict[str, float]:
        train, vocab, _ = self.state
        outcomes = [o for cell in self.cells for outs in cell.outcomes.values() for o in outs]
        fallback = sum(all(s.total == 0.0 for s in o.ranked) for o in outcomes)
        values = stream_counts(train, vocab)
        values["evaluation.instances"] = len(outcomes)
        values["choice.fallback_frac"] = fallback / len(outcomes)
        values["corpus.stream_peak_mb"] = stream_peak_mb(self.train)
        tracemalloc.start()
        try:
            cooc.count_pairs(train, vocab, cooc.WindowConfig(50))
            values["cooc.pairs_peak_mb.k50"] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        return values

    def digests(self) -> dict[str, str]:
        return {name: digest([self.out / name]) for name in ("report.tsv", "instances.tsv")}


class Pipeline:
    """The CLI's write-then-read path: stats, build, and a capped build.
    Each command is one step: operation i runs command i mod 3."""

    def __init__(self, work: Path, prep: dict):
        self.train = work / prep["train"]
        self.roots = prep["roots"]
        self.max_edges = prep["max_edges"]
        self.counts_dir = work / "counts"
        self.nets_dir = work / "nets"
        self.capped_dir = work / "capped"
        self.state = None
        roots = [a for r in self.roots for a in ("--root", r)]
        self.commands = [
            ("cli.stats_s", ["stats", "--corpus", str(self.train), "--window", str(WINDOW),
                             "--out", str(self.counts_dir)]),
            ("cli.build_s", ["build", "--counts", str(self.counts_dir), "--order", str(NETWORK_ORDER),
                             "--out", str(self.nets_dir), *roots]),
            ("cli.build_capped_s", ["build", "--counts", str(self.counts_dir),
                                    "--order", str(NETWORK_ORDER), "--max-edges", str(self.max_edges),
                                    "--out", str(self.capped_dir), *roots]),
        ]
        self.steps = self.distinct_inputs = len(self.commands)

    def outputs(self, step: int) -> list[Path]:
        if step == 0:
            return [self.counts_dir / "vocab.tsv", self.counts_dir / "pairs.tsv"]
        directory = self.nets_dir if step == 1 else self.capped_dir
        return [directory / f"{r}.net" for r in self.roots]

    def setup(self) -> None:
        self.state = None
        stream = corpus.ingest_files([self.train])
        vocab = corpus.build_vocabulary(stream)
        self.state = (stream, vocab)

    def op(self, i: int, span) -> str:
        name, argv = self.commands[i % self.steps]
        with span(name), redirect_stdout(io.StringIO()):
            status = cli.main(argv)
        if status != 0:
            raise RuntimeError(f"lexchoice {argv[0]} exited with {status}")
        return digest(self.outputs(i % self.steps))

    def check(self, checks: Checks, outputs: list) -> None:
        stream, vocab = self.state
        read_vocab = corpus.read_vocabulary(self.counts_dir / "vocab.tsv")
        checks.add("pipeline.vocab", (read_vocab.freq, read_vocab.total_tokens)
                   == (vocab.freq, vocab.total_tokens))
        counts = cooc.count_pairs(stream, vocab, cooc.WindowConfig(WINDOW))
        read_counts = cooc.read_pair_counts(self.counts_dir / "pairs.tsv", vocab)
        checks.add("pipeline.pairs", read_counts.pairs == counts.pairs)
        checks.add("pipeline.recount", table_rows(counts, self.roots)
                   == recount_rows(stream, self.roots, WINDOW))
        caps = network.NetworkCaps(max_edges=self.max_edges)
        truncated = 0
        for root in self.roots:
            built = network.build_network(root, counts, max_order=NETWORK_ORDER)
            checks.add(f"pipeline.net.{root}",
                       network.read_network(self.nets_dir / f"{root}.net") == built)
            capped = network.build_network(root, counts, max_order=NETWORK_ORDER, caps=caps)
            read_capped = network.read_network(self.capped_dir / f"{root}.net")
            checks.add(f"pipeline.capped.{root}",
                       read_capped == capped and read_capped.edge_count <= self.max_edges)
            truncated += read_capped.truncated is not None
        checks.add("pipeline.cap_fires", truncated > 0)

    def layer_counts(self) -> dict[str, float]:
        stream, vocab = self.state
        values = stream_counts(stream, vocab)
        values["cooc.pairs_file_mb"] = (self.counts_dir / "pairs.tsv").stat().st_size / 1e6
        values["corpus.stream_peak_mb"] = stream_peak_mb(self.train)
        return values

    def digests(self) -> dict[str, str]:
        return {
            "vocab.tsv": digest([self.counts_dir / "vocab.tsv"]),
            "pairs.tsv": digest([self.counts_dir / "pairs.tsv"]),
            "nets/*.net": digest(self.outputs(1)),
            "capped/*.net": digest(self.outputs(2)),
        }


class Choose:
    """One client filling gaps, closed loop, on networks read from disk:
    the steps of cli.cmd_choose for each query. One operation is a batch of
    distinct queries, so that every timed sample mixes short and long
    sentences alike."""

    steps = 1

    def __init__(self, work: Path, prep: dict):
        self.train = work / prep["train"]
        self.nets_dir = work / prep["nets"]
        self.sets = prep["sets"]
        self.sample = prep["sample"]
        self.batch = prep["batch"]
        lines = (work / prep["queries"]).read_text(encoding="utf-8").splitlines()
        self.queries = [tuple(line.split("\t")) for line in lines]
        self.distinct_inputs = len(self.queries) // self.batch
        self.state = None

    def _candidate_sets(self, nets, vocab) -> dict[str, choice.CandidateSet]:
        return {
            s["id"]: choice.CandidateSet(
                s["id"], s["pos"],
                [choice.Candidate(w, nets[w], vocab.freq.get(w, 0)) for w in s["members"]],
            )
            for s in self.sets
        }

    def setup(self) -> None:
        self.state = None
        vocab = corpus.read_vocabulary(self.nets_dir / "vocab.tsv")
        nets = {}
        for s in self.sets:
            for w in s["members"]:
                nets[w] = network.read_network(self.nets_dir / f"{w}.net")
                network.max_sig_shortest_path(nets[w], w)
        self.state = (vocab, self._candidate_sets(nets, vocab))

    def parse(self, i: int, vocab) -> tuple[str, choice.GapSentence]:
        set_id, text = self.queries[i % len(self.queries)]
        sentence = choice.parse_gap_sentence(text, choice.GAP, corpus.DEFAULT_STOP_TAGS)
        for tok in sentence.tokens:
            if vocab.is_frequency_stopped(tok.surface):
                tok.is_stop = True
        return set_id, sentence

    def rank(self, i: int, cand_sets, vocab) -> list[choice.ChoiceScore]:
        set_id, sentence = self.parse(i, vocab)
        return choice.choose(cand_sets[set_id], sentence)

    def op(self, i: int, span) -> tuple[str, ...]:
        vocab, cand_sets = self.state
        first = (i % self.distinct_inputs) * self.batch
        return tuple(self.rank(q, cand_sets, vocab)[0].candidate
                     for q in range(first, first + self.batch))

    def check(self, checks: Checks, outputs: list) -> None:
        """Re-rank a sample of queries with the networks read from disk,
        with networks built in memory from the training corpus, and by the
        ranking's definition; rankings, totals and the timed loop's winner
        must all agree exactly."""
        vocab, file_sets = self.state
        stream = corpus.ingest_files([self.train])
        train_vocab = corpus.build_vocabulary(stream)
        counts = cooc.count_pairs(stream, train_vocab, cooc.WindowConfig(WINDOW))
        nets = {w: network.build_network(w, counts, max_order=NETWORK_ORDER)
                for s in self.sets for w in s["members"]}
        memory_sets = self._candidate_sets(nets, train_vocab)
        winners = [w for batch in outputs for w in batch]
        step = max(1, len(self.queries) // self.sample)
        for i in range(0, len(winners), step):
            from_files = [(s.candidate, s.total) for s in self.rank(i, file_sets, vocab)]
            in_memory = [(s.candidate, s.total) for s in self.rank(i, memory_sets, train_vocab)]
            checks.add(f"choose.rerank.{i}", from_files == in_memory == self.oracle(i, nets, train_vocab)
                       and from_files[0][0] == winners[i])

    def oracle(self, i: int, nets, vocab) -> list[tuple[str, float]]:
        """The ranking by its definition: evidence totals descending, ties
        to the more frequent candidate, then the smaller word."""
        set_id, sentence = self.parse(i, vocab)
        evidence = [tok.surface for tok in sentence.evidence_tokens()]
        members = next(s["members"] for s in self.sets if s["id"] == set_id)
        totals = {}
        for w in members:
            total = 0.0
            for word in evidence:
                total += network.significance(nets[w], word).value
            totals[w] = total
        ranked = sorted(members, key=lambda w: (-totals[w], -vocab.freq.get(w, 0), w))
        return [(w, totals[w]) for w in ranked]

    def layer_counts(self) -> dict[str, float]:
        vocab, cand_sets = self.state
        lookups = fallback = 0
        for i in range(len(self.queries)):
            set_id, sentence = self.parse(i, vocab)
            lookups += len(sentence.evidence_tokens()) * len(cand_sets[set_id].members)
            fallback += choice.choose(cand_sets[set_id], sentence)[0].total == 0.0
        return {
            "choice.evidence_lookups": lookups / len(self.queries),
            "choice.fallback_frac": fallback / len(self.queries),
        }

    def digests(self) -> dict[str, str]:
        return {"nets/*.net": digest(sorted(self.nets_dir.glob("*.net")))}


WORKLOADS = {"grid": Grid, "pipeline": Pipeline, "choose": Choose}


def _run_ops(op, stop, distinct: int) -> tuple[array, list, int]:
    """Closed loop, one client: call ``op(i)`` until ``stop(i + 1, now)``.

    Returns the durations, the outputs of the first ``distinct`` operations,
    and how many operations failed: raised, or gave another output than the
    first operation on the same input (op i and op i + distinct share it).
    Later outputs are compared as they come, so memory does not grow with
    the number of operations run."""
    durations, first, failed = array("d"), [], 0
    i = 0
    while True:
        t0 = perf_counter()
        try:
            out = op(i)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out = None
        t1 = perf_counter()
        durations.append(t1 - t0)
        if i < distinct:
            first.append(out)
            failed += out is None
        else:
            failed += out is None or out != first[i % distinct]
        i += 1
        if stop(i, t1):
            return durations, first, failed


def _untraced(wl):
    return lambda i: wl.op(i, lambda name: nullcontext())


def measure(wl, seconds: float) -> dict:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        wl.setup()
        setup_times.append(perf_counter() - t0)
    # The operations run in blocks of at least BLOCK_SECONDS; a workload of
    # several steps (operation i is step i mod steps) makes each operation a
    # block, so that a block holds one kind of step, and stops only after a
    # whole round. After each block the set-up is timed once more, so that
    # setup_s samples the whole run, and the calibration kernel is timed, as
    # it is before the first block.
    calibrate.kernel()
    refs, marks = array("d", [calibrate.timed_kernel()]), [0]
    start = perf_counter()
    deadline = start + seconds
    block_end = start + BLOCK_SECONDS

    def stop(i, now):
        nonlocal block_end
        done = now >= deadline and i % wl.steps == 0
        if done or wl.steps > 1 or now >= block_end:
            t0 = perf_counter()
            wl.setup()
            setup_times.append(perf_counter() - t0)
            refs.append(calibrate.timed_kernel())
            marks.append(i)
            block_end = perf_counter() + BLOCK_SECONDS
        return done

    durations, outputs, failed = _run_ops(_untraced(wl), stop, wl.distinct_inputs)
    peak_rss_mb = peak_rss_kb() / 1024
    checks = Checks()
    wl.check(checks, outputs)
    # Per step, each block's mean operation time over the mean of the two
    # kernel times around it; the kernel's input never changes. A round's
    # value sums the steps' medians, and so do its raw times.
    rel = [[] for _ in range(wl.steps)]
    for n, (a, b) in enumerate(zip(marks, marks[1:])):
        rel[a % wl.steps].append(statistics.fmean(durations[a:b]) / ((refs[n] + refs[n + 1]) / 2))
    rel = [sorted(r) for r in rel]
    raw = [sorted(durations[k::wl.steps]) for k in range(wl.steps)]
    tail = raw[0][int(0.99 * len(raw[0]))] * 1e3 if wl.steps == 1 and len(raw[0]) >= 1000 else None
    return {
        "attempted": len(durations) + checks.attempted,
        "failed": failed + len(checks.failures),
        "failures": checks.failures,
        "digests": wl.digests(),
        "metrics": {
            "setup_s": statistics.median(setup_times),
            "op_rel_time": sum(statistics.median(r) for r in rel),
            "peak_rss_mb": peak_rss_mb,
        },
        "detail": {
            "setup_samples": len(setup_times),
            "ops": len(durations),
            "rounds": len(durations) // wl.steps,
            "blocks": len(marks) - 1,
            "op_rel_time_p10": sum(r[len(r) // 10] for r in rel),
            "op_rel_time_p90": sum(r[len(r) * 9 // 10] for r in rel),
            "kernel_p50_ms": statistics.median(refs) * 1e3,
            "op_min_ms": sum(r[0] for r in raw) * 1e3,
            "op_p10_ms": sum(r[len(r) // 10] for r in raw) * 1e3,
            "op_p50_ms": sum(statistics.median(r) for r in raw) * 1e3,
            "op_p99_ms": tail,
            "ops_per_s": len(durations) / wl.steps / sum(durations),
        },
    }


def measure_traced(wl, run_id: str, spans_path: Path) -> dict:
    """Each distinct input once untraced, then once traced, for per-layer
    self times and the tracing overhead (traced minus untraced time)."""
    n = wl.distinct_inputs
    tracer = Tracer(run_id)
    with instrument(tracer):
        with tracer.span("setup"):
            wl.setup()
    plain, plain_outputs, _ = _run_ops(_untraced(wl), lambda i, now: i >= n, n)

    def traced_op(i):
        with tracer.span("op"):
            return wl.op(i, tracer.span)

    with instrument(tracer):
        _, outputs, _ = _run_ops(traced_op, lambda i, now: i >= n, n)
    tracer.write(spans_path)

    checks = Checks()
    self_times = tracer.self_times()
    covered = sum(self_times.values())
    checks.add("trace.accounting", abs(covered - tracer.root_time()) <= 1e-6 * (1 + covered))
    wl.check(checks, outputs)

    metrics = dict.fromkeys((name for name, _, _ in PER_LAYER), 0.0)
    calls, totals = tracer.calls(), tracer.totals()
    for name, value in self_times.items():
        if name in ("setup", "op"):
            metrics["other_s"] += value
        elif name.startswith("cli."):
            metrics["cli.self_s"] += value
        elif name.endswith("_us"):
            metrics[name] = value / calls[name] * 1e6
        else:
            metrics[name] += value
    for name in ("cli.stats_s", "cli.build_s", "cli.build_capped_s"):
        metrics[name] = totals.get(name, 0.0)
    metrics.update(tracer.counts)
    metrics.update(wl.layer_counts())
    metrics["trace.op_s"] = totals["op"]
    metrics["trace.overhead_pct"] = (totals["op"] - sum(plain)) / sum(plain) * 100
    unknown = set(metrics).difference(name for name, _, _ in PER_LAYER)
    if unknown:
        raise RuntimeError(f"traced metrics missing from spec.PER_LAYER: {sorted(unknown)}")
    return {
        "attempted": 2 * n + checks.attempted,
        "failed": sum(a is None or a != b for a, b in zip(outputs, plain_outputs))
        + len(checks.failures),
        "failures": checks.failures,
        "digests": wl.digests(),
        "metrics": metrics,
        "detail": {"spans": len(tracer.spans)},
    }


def main(argv: list[str]) -> int:
    work, name, seconds, trace = Path(argv[0]), argv[1], float(argv[2]), argv[3] == "1"
    prep = json.loads((work / "prep.json").read_text(encoding="utf-8"))
    wl = WORKLOADS[name](work, prep)
    if trace:
        result = measure_traced(wl, f"{name}-{prep['seed']}", work / "spans.tsv")
    else:
        result = measure(wl, seconds)
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
