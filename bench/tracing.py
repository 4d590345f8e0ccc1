"""Span recording around the package's public calls, for the traced run.

Spans are recorded by wrappers that live here, installed by replacing the
module attributes the package looks up at call time (``evaluation.count_pairs``,
``cooc.read_pair_counts``, ``network.build_network``, ...). Nothing is
wrapped per token or per ``significance`` call. Spans stay in memory; the
run writes them out when it ends.

A span's self time is its duration minus the time its child spans cover.
Root spans are the benchmark's own set-up and operations; their self time
is the remainder no layer accounts for and is reported as ``other_s``.
"""

from __future__ import annotations

import os
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from time import perf_counter

from lexchoice import choice, cli, cooc, corpus, evaluation, ioutil, network

DEFAULT_MAX_EDGES = network.NetworkCaps().max_edges


class Tracer:
    """In-memory spans: [name, start, end, parent index, run id]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, perf_counter(), None, parent, self.run_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = perf_counter()

    def wrap(self, name, fn, after=None):
        """``fn`` wrapped in a span called ``name``, or ``name(*args)`` when it
        is callable; ``after(result, *args)`` runs once the span has closed,
        to record counts."""

        def traced(*args, **kwargs):
            with self.span(name(*args, **kwargs) if callable(name) else name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), child_time in zip(self.spans, covered):
            totals[name] += (end - start) - child_time
        return dict(totals)

    def totals(self) -> dict[str, float]:
        """Inclusive duration summed per span name."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            totals[name] += end - start
        return dict(totals)

    def calls(self) -> dict[str, int]:
        calls: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            calls[name] += 1
        return dict(calls)

    def root_time(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent is None)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("run\tspan\tparent\tname\tstart\tend\n")
            for i, (name, start, end, parent, run_id) in enumerate(self.spans):
                parent_text = "" if parent is None else str(parent)
                handle.write(f"{run_id}\t{i}\t{parent_text}\t{name}\t{start:.9f}\t{end:.9f}\n")


@contextmanager
def instrument(tracer: Tracer):
    """Install span wrappers on the package's module attributes; restore on exit."""
    counts = tracer.counts

    def record_pairs(result, ts, vocab, window):
        counts[f"cooc.pairs.k{window.half_width}"] = len(result.pairs)

    def index_after(result, *args, **kwargs):
        # The neighbour index is built lazily by the first neighbors() call,
        # which would otherwise land inside the first build_network. Forcing
        # it here, right where the table is made, moves no work, only names it.
        with tracer.span(f"cooc.neighbors_index_s.k{result.half_width}"):
            result.neighbors("")

    def count_then_index(result, ts, vocab, window):
        record_pairs(result, ts, vocab, window)
        index_after(result)

    def build_name(root, counts_, thresholds=None, max_order=2, caps=None, **_):
        if caps is not None and caps.max_edges < DEFAULT_MAX_EDGES:
            return "network.build_network_capped_s"
        return f"network.build_network_s.k{counts_.half_width}.d{max_order}"

    def record_network(net, root, counts_, thresholds=None, max_order=2, caps=None, **_):
        if caps is not None and caps.max_edges < DEFAULT_MAX_EDGES:
            counts["network.truncated_roots"] += net.truncated is not None
            return
        suffix = f"k{counts_.half_width}.d{max_order}"
        counts[f"network.nodes.{suffix}"] += net.node_count
        counts[f"network.edges.{suffix}"] += net.edge_count

    def record_write(result, path, text):
        counts["ioutil.bytes_written"] += os.path.getsize(path)

    patches = [
        (corpus, "ingest_files", tracer.wrap("corpus.ingest_s", corpus.ingest_files)),
        (corpus, "build_vocabulary",
         tracer.wrap("corpus.build_vocabulary_s", corpus.build_vocabulary)),
        (corpus, "apply_stop_policy",
         tracer.wrap("corpus.apply_stop_policy_s", corpus.apply_stop_policy)),
        (corpus, "write_vocabulary",
         tracer.wrap("corpus.write_vocabulary_s", corpus.write_vocabulary)),
        (corpus, "read_vocabulary",
         tracer.wrap("corpus.read_vocabulary_s", corpus.read_vocabulary)),
        # cli's stats counts and writes; it never asks for neighbours.
        (cooc, "count_pairs", tracer.wrap(
            lambda ts, vocab, window: f"cooc.count_pairs_s.k{window.half_width}",
            cooc.count_pairs, record_pairs)),
        # run_grid builds networks from each table it counts.
        (evaluation, "count_pairs", tracer.wrap(
            lambda ts, vocab, window: f"cooc.count_pairs_s.k{window.half_width}",
            evaluation.count_pairs, count_then_index)),
        (cooc, "write_pair_counts",
         tracer.wrap("cooc.write_pair_counts_s", cooc.write_pair_counts)),
        # cli's build grows networks from the table it reads.
        (cooc, "read_pair_counts",
         tracer.wrap("cooc.read_pair_counts_s", cooc.read_pair_counts, index_after)),
        (network, "build_network",
         tracer.wrap(build_name, network.build_network, record_network)),
        (evaluation, "build_network",
         tracer.wrap(build_name, evaluation.build_network, record_network)),
        (network, "write_network",
         tracer.wrap("network.write_network_s", network.write_network)),
        (network, "read_network",
         tracer.wrap("network.read_network_s", network.read_network)),
        (network, "max_sig_shortest_path",
         tracer.wrap("network.path_dp_s", network.max_sig_shortest_path)),
        (choice, "parse_gap_sentence",
         tracer.wrap("choice.parse_gap_sentence_us", choice.parse_gap_sentence)),
        (choice, "choose", tracer.wrap("choice.choose_us", choice.choose)),
        (evaluation, "run_grid",
         tracer.wrap("evaluation.run_grid_s", evaluation.run_grid)),
        (evaluation, "extract_instances",
         tracer.wrap("evaluation.extract_instances_s", evaluation.extract_instances)),
        (evaluation, "judge_instances",
         tracer.wrap("evaluation.judge_instances_s", evaluation.judge_instances)),
        (evaluation, "render_grid_report",
         tracer.wrap("evaluation.render_s", evaluation.render_grid_report)),
        (evaluation, "render_instance_log",
         tracer.wrap("evaluation.render_s", evaluation.render_instance_log)),
    ]
    write = tracer.wrap("ioutil.atomic_write_text_s", ioutil.atomic_write_text, record_write)
    for module in (ioutil, corpus, cooc, network, cli):
        patches.append((module, "atomic_write_text", write))

    with ExitStack() as stack:
        for module, attr, wrapper in patches:
            original = getattr(module, attr)
            stack.callback(setattr, module, attr, original)
            setattr(module, attr, wrapper)
        yield tracer
