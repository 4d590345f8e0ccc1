#!/usr/bin/env python3
"""Walk through the training side of the pipeline on a small corpus:
ingest tagged text, apply the stop policy, count windowed co-occurrences,
keep the pairs whose t-score and mutual information both clear their
thresholds, and grow a co-occurrence network around a root word.

Run: python demos/01_network_from_corpus.py
"""

import tempfile
from pathlib import Path

from lexchoice.cooc import SignificanceThresholds, WindowConfig, count_pairs
from lexchoice.corpus import CorpusConfig, build_vocabulary, ingest
from lexchoice.network import build_network, max_sig_shortest_path, significance, write_network

# A miniature "dinner party" corpus. Templates repeat so the planted
# collocations clear the significance thresholds; filler sentences bulk up
# the token count so expected counts stay low. Function words repeat often
# enough to cross the frequency threshold and become stop words, as they
# would in a real corpus.
TEMPLATES = [
    ("the/DT guests/NNS arrived/VBD for/IN dinner/NN", 20),
    ("the/DT guests/NNS brought/VBD red/JJ wine/NN", 20),
    ("the/DT coffee/NN is/VBZ served/VBN at/IN breakfast/NN", 30),
    ("breakfast/NN was/VBD quiet/JJ", 20),
    ("it/PRP was/VBD at/IN times/NNS for/IN all/DT is/VBZ said/VBD", 60),
]
FILLER_POOL = [f"filler{i:02d}/NN" for i in range(40)]


def build_demo_corpus() -> str:
    lines = []
    for template, repeats in TEMPLATES:
        lines.extend([template] * repeats)
    for i in range(200):
        lines.append(" ".join(FILLER_POOL[(i + j) % len(FILLER_POOL)] for j in range(8)))
    return "\n".join(lines) + "\n"


def main() -> None:
    cfg = CorpusConfig(stop_threshold=50)  # low threshold so "the" gets stopped
    stream = ingest(build_demo_corpus(), cfg)
    vocab = build_vocabulary(stream, cfg)

    print(f"corpus: {vocab.total_tokens} tokens, {len(vocab.freq)} distinct words")
    print(f"stop threshold F={cfg.stop_threshold}: "
          f"'the' occurs {vocab.freq['the']} times -> stop word\n")

    counts = count_pairs(stream, vocab, WindowConfig(half_width=4))
    print(f"windowed pair table (+-4 words, same sentence): {len(counts.pairs)} pairs")
    thresholds = SignificanceThresholds()
    print(f"significant collocates: t >= {thresholds.t_min}, MI >= {thresholds.mi_min} bits")
    for w1, w2 in [("guests", "dinner"), ("guests", "wine"), ("coffee", "breakfast")]:
        t = dict(counts.significant_neighbors(w1, thresholds)).get(w2)
        shown = "not significant" if t is None else f"t = {t:5.2f}"
        print(f"  f({w1},{w2}) = {counts.get(w1, w2):2d}   {shown}")
    print()

    net = build_network("dinner", counts, max_order=2)
    print(f"network for 'dinner' up to order 2: "
          f"{net.node_count} nodes, {net.edge_count} edges")
    by_depth: dict[int, list[str]] = {}
    for word, depth in net.depths.items():
        by_depth.setdefault(depth, []).append(word)
    for depth in sorted(by_depth):
        print(f"  depth {depth}: {', '.join(sorted(by_depth[depth]))}")
    print()

    # "wine" never co-occurs with "dinner" directly, yet the network links
    # them through "guests": a second-order relation.
    path = max_sig_shortest_path(net, "wine")
    score = significance(net, "wine")
    print(f"best path dinner -> wine: {' - '.join(path)}")
    print(f"relation order {score.order}, score {score.value:.4f}")
    print(f"(a first-order neighbor keeps its full edge t-score: "
          f"sig(dinner, guests) = {significance(net, 'guests').value:.4f})\n")

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "dinner.net"
        write_network(net, out)
        print(f"serialized network ({out.name}), first lines:")
        for line in out.read_text().splitlines()[:10]:
            print(f"  {line}")


if __name__ == "__main__":
    main()
