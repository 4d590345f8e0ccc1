#!/usr/bin/env python3
"""Run the full evaluation protocol on a synthetic corpus that isolates
second-order evidence.

The generated training corpus plants two chains: the target candidate
co-occurs with an anchor word, and the anchor with a bridge word, while the
target and the bridge never meet directly. Held-out test sentences offer
only the bridge word as evidence. A first-order system therefore sees
nothing and collapses to the frequency baseline (which favors the rival
candidate); allowing second-order relations recovers the connection and the
accuracy jumps.

Run: python demos/03_window_order_sweep.py
"""

from lexchoice.corpus import CorpusConfig, apply_stop_policy, build_vocabulary, ingest
from lexchoice.evaluation import render_grid_report, run_grid
from lexchoice.synthetic import planted_corpus


def main() -> None:
    pc = planted_corpus(seed=20)
    cfg = CorpusConfig()
    train = ingest(pc.train_text, cfg)
    heldout = ingest(pc.heldout_text, cfg)
    vocab = build_vocabulary(train, cfg)
    apply_stop_policy(heldout, vocab)

    print(f"training corpus: {vocab.total_tokens} tokens")
    print(f"candidates: {pc.target} (planted target) vs {pc.rival} "
          f"(more frequent: {vocab.freq[pc.rival]} vs {vocab.freq[pc.target]})")
    print(f"evidence chain: {pc.target} - {pc.anchor} - {pc.bridge}; "
          f"test sentences contain only '{pc.bridge}'\n")

    cells = run_grid(train, vocab, heldout, [pc.set_def],
                     windows=[4, 10], orders=[1, 2])
    print(render_grid_report(cells, [pc.set_def],
                             {"windows": "4,10", "orders": "1,2"}))

    for cell in cells:
        report = cell.reports[pc.set_def.set_id]
        marker = "significant" if report.significant_at_5pct else "not significant"
        print(f"window +-{cell.window}, order {cell.order}: "
              f"accuracy {report.accuracy:.1%} vs baseline {report.baseline_accuracy:.1%} "
              f"(chi2 = {report.chi2:.2f}, {marker})")
    print("\norder 1 never beats the baseline; order 2 does. The same contrast,"
          "\non real corpora, is why second-order relations earn their keep.")


if __name__ == "__main__":
    main()
