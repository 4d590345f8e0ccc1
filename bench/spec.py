"""The benchmark's workloads and metric names, in one place.

``BENCHMARK.json`` at the repository root is this module's output:

    python3 bench/spec.py > BENCHMARK.json

and ``bench/test_bench.py`` checks that the two agree.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 30

WORKLOADS = {
    "grid": "the paper's window x order grid via run_grid: count_pairs per window and a network per cell dominate",
    "pipeline": "CLI stats, build and capped build: artifact write/parse, one window, many roots, the edge cap",
    "choose": "closed loop of distinct gap queries on networks read from disk: choice and path scores, no cooc",
}

# (name, unit, better, bound). Every workload reports every one of these.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_rel_time", "x_ref", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

WINDOWS = (4, 10, 50)
ORDERS = (1, 2, 3)
# The grid skips the wide third-order cell, as evaluation.grid_cells does.
CELLS = [(k, d) for k in WINDOWS for d in ORDERS if not (k == 50 and d == 3)]

PER_LAYER: list[tuple[str, str, str]] = [
    ("corpus.ingest_s", "s", "lower"),
    ("corpus.build_vocabulary_s", "s", "lower"),
    ("corpus.apply_stop_policy_s", "s", "lower"),
    ("corpus.write_vocabulary_s", "s", "lower"),
    ("corpus.read_vocabulary_s", "s", "lower"),
    ("corpus.tokens", "count", "higher"),
    ("corpus.stop_tokens", "count", "higher"),
    ("corpus.vocab_words", "count", "higher"),
    ("corpus.stream_peak_mb", "MB", "lower"),
]
PER_LAYER += [(f"cooc.count_pairs_s.k{k}", "s", "lower") for k in WINDOWS]
PER_LAYER += [(f"cooc.neighbors_index_s.k{k}", "s", "lower") for k in WINDOWS]
PER_LAYER += [(f"cooc.pairs.k{k}", "count", "higher") for k in WINDOWS]
PER_LAYER += [
    ("cooc.pairs_peak_mb.k50", "MB", "lower"),
    ("cooc.write_pair_counts_s", "s", "lower"),
    ("cooc.read_pair_counts_s", "s", "lower"),
    ("cooc.pairs_file_mb", "MB", "lower"),
]
PER_LAYER += [(f"network.build_network_s.k{k}.d{d}", "s", "lower") for k, d in CELLS]
PER_LAYER += [(f"network.nodes.k{k}.d{d}", "count", "higher") for k, d in CELLS]
PER_LAYER += [(f"network.edges.k{k}.d{d}", "count", "higher") for k, d in CELLS]
PER_LAYER += [
    ("network.build_network_capped_s", "s", "lower"),
    ("network.truncated_roots", "count", "higher"),
    ("network.write_network_s", "s", "lower"),
    ("network.read_network_s", "s", "lower"),
    ("network.path_dp_s", "s", "lower"),
    ("choice.parse_gap_sentence_us", "us", "lower"),
    ("choice.choose_us", "us", "lower"),
    ("choice.evidence_lookups", "count", "lower"),
    ("choice.fallback_frac", "ratio", "lower"),
    ("evaluation.extract_instances_s", "s", "lower"),
    ("evaluation.judge_instances_s", "s", "lower"),
    ("evaluation.run_grid_s", "s", "lower"),
    ("evaluation.render_s", "s", "lower"),
    ("evaluation.instances", "count", "higher"),
    ("ioutil.atomic_write_text_s", "s", "lower"),
    ("ioutil.bytes_written", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.stats_s", "s", "lower"),
    ("cli.build_s", "s", "lower"),
    ("cli.build_capped_s", "s", "lower"),
    ("other_s", "s", "lower"),
    ("trace.op_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
