"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).
"""

import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lexchoice.cli import main
from lexchoice.cooc import WindowConfig, count_pairs
from lexchoice.corpus import (
    CorpusConfig,
    TokenStream,
    apply_stop_policy,
    build_vocabulary,
    ingest,
)
from lexchoice.evaluation import SetDefinition, chi_square, run_grid
from lexchoice.network import CoocNetwork, significance
from lexchoice.synthetic import planted_corpus

from conftest import pair_key
from oracles import (
    enumerate_shortest_path_scores,
    exact_mcnemar_p,
    forward_pair_counts,
    random_layered_network,
    random_stream,
)

# The benchmark's corpus generator, imported without being changed.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from gen import CorpusParams, generate  # noqa: E402

CORPUS_ENV = "LEXCHOICE_EVAL_CORPUS"


def _report(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion failed: {name}"


def chain(weights: list[float]) -> CoocNetwork:
    words = ["w0"] + [f"w{i}" for i in range(1, len(weights) + 1)]
    return CoocNetwork(
        root="w0",
        max_order=len(weights),
        depths={w: i for i, w in enumerate(words)},
        edges={pair_key(words[i], words[i + 1]): weights[i] for i in range(len(weights))},
        total_tokens=10_000,
        half_width=4,
    )


def test_significance_formula_identity():
    # depth 1: score equals the edge t-score with zero tolerance
    t = 2.783641
    first_order = significance(chain([t]), "w1")
    exact_first = first_order.value == t and first_order.order == 1

    # depth 2 chain, t1=2.00 t2=2.56: (2.00 + 2.56/2) / 2^3 = 0.41
    second_order = significance(chain([2.00, 2.56]), "w2")
    exact_second = abs(second_order.value - 0.41) <= 1e-9 and second_order.order == 2

    _report("significance-formula-identity", exact_first and exact_second)


def test_order_penalty_strictly_decreasing():
    weight = 2.5
    net = chain([weight] * 5)
    computed = [significance(net, f"w{d}").value for d in range(1, 6)]
    rational = [
        Fraction(5, 2) * sum(Fraction(1, i) for i in range(1, d + 1)) / Fraction(d**3)
        for d in range(1, 6)
    ]
    decreasing_exact = all(a > b for a, b in zip(rational, rational[1:]))
    decreasing_computed = all(a > b for a, b in zip(computed, computed[1:]))
    matches = all(
        abs(c - float(r)) <= 1e-12 * float(r) for c, r in zip(computed, rational)
    )
    _report(
        "order-penalty-strictly-decreasing",
        decreasing_exact and decreasing_computed and matches,
    )


def test_counting_oracle_random_streams():
    rng = random.Random(424)
    ok = True
    for i in range(100):
        k = [1, 4, 10, 50][i % 4]
        ts, cfg = random_stream(rng, rng.randint(200, 10_000), vocab_size=60)
        vocab = build_vocabulary(ts, cfg)
        cross = rng.random() < 0.25
        counts = count_pairs(ts, vocab, WindowConfig(k, cross))
        if counts.pairs != forward_pair_counts(ts, k, cross):
            ok = False
            break
    _report("counting-oracle-100-random-streams", ok)


def test_path_selection_oracle_random_graphs():
    rng = random.Random(77)
    ok = True
    for _ in range(200):
        net = random_layered_network(rng, max_nodes=8)
        for word in sorted(net.depths):
            if word == net.root:
                continue
            best_score, _ = max(enumerate_shortest_path_scores(net, word))
            depth = net.depths[word]
            if significance(net, word).value != best_score / depth**3:
                ok = False
    _report("path-selection-oracle-200-random-graphs", ok)


def test_chi_square_criterion():
    chi2, significant = chi_square(60, 100, 40, 100)
    worked = abs(chi2 - 8.0) <= 1e-9 and significant
    equal_chi2, equal_significant = chi_square(50, 100, 50, 100)
    degenerate = equal_chi2 == 0.0 and not equal_significant
    # straddle the 3.841 critical value
    over, over_sig = chi_square(62, 100, 48, 100)
    under, under_sig = chi_square(56, 100, 44, 100)
    threshold = over > 3.841 and over_sig and under < 3.841 and not under_sig
    _report("chi-square-2x2", worked and degenerate and threshold)


def test_second_order_evidence_end_to_end():
    pc = planted_corpus()
    cfg = CorpusConfig()
    train = ingest(pc.train_text, cfg)
    held = ingest(pc.heldout_text, cfg)
    vocab = build_vocabulary(train, cfg)
    apply_stop_policy(held, vocab, cfg)
    cells = run_grid(train, vocab, held, [pc.set_def], windows=[4], orders=[1, 2])
    by_order = {cell.order: cell.reports["planted"] for cell in cells}
    baseline = by_order[1].baseline_accuracy
    order1_at_or_below_baseline = by_order[1].accuracy <= baseline
    order2_beats_baseline = by_order[2].accuracy >= baseline + 0.20
    _report(
        "second-order-evidence-end-to-end",
        order1_at_or_below_baseline and order2_beats_baseline,
    )


def test_exact_mcnemar_by_hand():
    # b = 1, c = 9: 2 * (C(10, 0) + C(10, 1)) / 2^10; no discordant pair: 1.
    _report("exact-mcnemar-by-hand", exact_mcnemar_p(1, 9) == exact_mcnemar_p(9, 1)
            == 0.021484375 and exact_mcnemar_p(0, 0) == 1)


@pytest.mark.parametrize("seed", range(1, 6))
def test_second_order_helps_on_the_bench_language(seed):
    """The paper's claim on text not built to show it: on the benchmark's
    generated language at its default size, pooled over the synonym sets at
    k = 4, order 2 gets right more of the instances on which orders 1 and 2
    disagree, by an exact McNemar test. Seeds 1-10 read b <= 1 and
    c = 16..29, p <= 7.63e-5: the bound 1e-3 is over ten times the largest."""
    g = generate(seed, CorpusParams())
    train, held = ingest(g.train_text), ingest(g.heldout_text)
    vocab = build_vocabulary(train)
    apply_stop_policy(held, vocab)
    sets = [SetDefinition(s["id"], s["pos"], s["members"]) for s in g.sets]
    first, second = run_grid(train, vocab, held, sets, [4], [1, 2])
    pairs = [(x, y) for s in sets for x, y in zip(first.outcomes[s.set_id],
                                                   second.outcomes[s.set_id])]
    assert pairs and all(x.instance is y.instance for x, y in pairs)
    b = sum(x.correct and not y.correct for x, y in pairs)
    c = sum(y.correct and not x.correct for x, y in pairs)
    p = exact_mcnemar_p(b, c)
    _report(f"second-order-helps-bench-seed-{seed} (b={b} c={c} p={p:.3g})", c > b and p < 1e-3)


def test_evaluate_determinism(tmp_path):
    pc = planted_corpus()
    train = tmp_path / "train.tag"
    held = tmp_path / "heldout.tag"
    train.write_text(pc.train_text)
    held.write_text(pc.heldout_text)
    config = {
        "train_corpus": str(train),
        "heldout_corpus": str(held),
        "windows": [4],
        "orders": [1, 2],
        "sets": [{"id": "planted", "pos": "NN", "members": pc.set_def.members}],
    }
    cfg_path = tmp_path / "eval.json"
    cfg_path.write_text(json.dumps(config))
    outputs = []
    for name in ("run1", "run2"):
        code = main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path / name)])
        assert code == 0
        outputs.append(
            (
                (tmp_path / name / "report.tsv").read_bytes(),
                (tmp_path / name / "instances.tsv").read_bytes(),
            )
        )
    _report("evaluate-determinism-byte-identical", outputs[0] == outputs[1])


TRIAL_SETS = [
    SetDefinition("1", "JJ", ["difficult", "hard", "tough"]),
    SetDefinition("2", "NN", ["error", "mistake", "oversight"]),
    SetDefinition("3", "NN", ["job", "task", "duty"]),
    SetDefinition("4", "NN", ["responsibility", "commitment", "obligation", "burden"]),
    SetDefinition("5", "NN", ["material", "stuff", "substance"]),
    SetDefinition("6", "VB", ["give", "provide", "offer"]),
    SetDefinition("7", "VB", ["settle", "resolve"]),
]


@pytest.mark.skipif(
    CORPUS_ENV not in os.environ,
    reason=f"optional: set {CORPUS_ENV} to a slash-tagged corpus file to run",
)
def test_directional_improvement_on_real_corpus():
    cfg = CorpusConfig()
    stream = ingest(Path(os.environ[CORPUS_ENV]).read_text(encoding="utf-8"), cfg)
    if not stream:
        pytest.skip("corpus is empty")
    mid = stream[len(stream) // 2].sentence_id
    train = TokenStream.of(t for t in stream if t.sentence_id < mid)
    held = TokenStream.of(t for t in stream if t.sentence_id >= mid)
    vocab = build_vocabulary(train, cfg)
    apply_stop_policy(held, vocab, cfg)

    usable = [
        sdef
        for sdef in TRIAL_SETS
        if all(vocab.freq.get(w, 0) >= 5 for w in sdef.members)
        and not any(vocab.is_frequency_stopped(w) for w in sdef.members)
    ]
    if not usable:
        pytest.skip("no synonym set has enough training data in this corpus")
    cells = run_grid(train, vocab, held, usable, windows=[4], orders=[1, 2])
    by_order = {cell.order: cell.reports for cell in cells}
    improved = [
        sdef.set_id
        for sdef in usable
        if by_order[2][sdef.set_id].accuracy > by_order[1][sdef.set_id].accuracy
    ]
    print(f"sets with order-2 > order-1 accuracy: {improved or 'none'}")
    _report("directional-improvement-real-corpus", bool(improved))
