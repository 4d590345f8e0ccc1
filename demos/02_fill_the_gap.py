#!/usr/bin/env python3
"""Fill a sentence gap with the most typical of several near-synonyms.

Each candidate gets its own co-occurrence network; a sentence supports a
candidate by the summed relation scores of its words, and the ranking falls
back to training frequency when no word provides evidence.

Run: python demos/02_fill_the_gap.py
"""

from lexchoice.choice import (Candidate, CandidateSet, choose, evidence_breakdown,
                              parse_gap_sentence, top_contributors)
from lexchoice.cooc import WindowConfig, count_pairs
from lexchoice.corpus import CorpusConfig, build_vocabulary, ingest
from lexchoice.network import build_network

# Same miniature corpus as demo 01: "dinner" keeps company with "guests",
# who bring "wine"; "breakfast" pairs directly with "coffee" and is the
# more frequent word overall. Function words repeat enough to become
# frequency-stopped.
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


SENTENCES = [
    "the/DT wine/NN list/NN pleased/VBD everyone/NN at/IN ____",
    "hot/JJ coffee/NN waited/VBD before/IN ____",
    "____ was/VBD fine/JJ",  # no usable evidence: frequency fallback
]


def main() -> None:
    cfg = CorpusConfig(stop_threshold=50)
    stream = ingest(build_demo_corpus(), cfg)
    vocab = build_vocabulary(stream, cfg)
    counts = count_pairs(stream, vocab, WindowConfig(half_width=4))

    members = []
    for word in ("dinner", "breakfast"):
        net = build_network(word, counts, max_order=2)
        members.append(Candidate(word, net, vocab.freq[word]))
    cands = CandidateSet("meals", "NN", members)
    print("candidates:", ", ".join(f"{m.word} (freq {m.training_freq})" for m in members))

    for text in SENTENCES:
        print(f"\nsentence: {text}")
        sentence = parse_gap_sentence(text)
        ranked = choose(cands, sentence)
        for rank, score in enumerate(ranked, 1):
            net = next(m.network for m in members if m.word == score.candidate)
            evidence = ", ".join(
                f"{word} ({value:.3f}, order {net.depths.get(word)})"
                for word, value in top_contributors(evidence_breakdown(net, sentence), 3)
            )
            print(f"  {rank}. {score.candidate:<10} total={score.total:.4f}"
                  + (f"   evidence: {evidence}" if evidence else ""))
        if ranked[0].total == 0.0:
            print(f"  -> {ranked[0].candidate} (baseline fallback: most frequent)")
        else:
            print(f"  -> {ranked[0].candidate}")


if __name__ == "__main__":
    main()
