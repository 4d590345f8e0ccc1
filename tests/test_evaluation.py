import itertools
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from lexchoice import evaluation
from lexchoice.choice import Candidate, CandidateSet, GapSentence, choose
from lexchoice.cooc import SignificanceThresholds, WindowConfig, count_pairs
from lexchoice.corpus import (CorpusConfig, Token, TokenStream, apply_stop_policy,
                              build_vocabulary, ingest)
from lexchoice.evaluation import (
    CHI2_5PCT_CRITICAL,
    EvalReport,
    baseline_choose,
    chi_square,
    coarse_category,
    extract_instances,
    grid_cells,
    judge_instances,
    render_grid_report,
    render_instance_log,
    run_grid,
    SetDefinition,
    summarize,
)
from lexchoice.network import CoocNetwork, InvalidRootError, NetworkCaps, build_network
from lexchoice.synthetic import planted_corpus

from conftest import grid_text, pair_key, tagged_text
from oracles import (blanked, expected_scoring_network, per_cell_grid, per_set_instances,
                     reference_evidence_tokens)


def star(root: str, direct: dict[str, float]) -> CoocNetwork:
    depths = {root: 0, **{w: 1 for w in direct}}
    edges = {pair_key(root, w): t for w, t in direct.items()}
    return CoocNetwork(root, 1, depths, edges, 10_000, 4)


def root_only(root: str) -> CoocNetwork:
    return CoocNetwork(root, 0, {root: 0}, {}, 10_000, 4)


def heldout(text: str, threshold: int = 100):
    cfg = CorpusConfig(stop_threshold=threshold)
    ts = ingest(text, cfg)
    build_vocabulary(ts, cfg)
    return ts


def two_candidate_set(freq_a=5, freq_b=9) -> CandidateSet:
    return CandidateSet(
        "s",
        "NN",
        [
            Candidate("alpha", star("alpha", {"cue": 3.0}), freq_a),
            Candidate("beta", root_only("beta"), freq_b),
        ],
    )


def instances_of(ts, words: list[str], pos_category: str):
    """The instances ``extract_instances`` finds for one set of ``words``."""
    return extract_instances(ts, [SetDefinition("s", pos_category, words)])["s"]


def test_extract_one_instance_per_occurrence():
    ts = heldout("i/PRP made/VBD a/DT mistake/NN today/NN")
    instances = instances_of(ts, ["error", "mistake", "oversight"], "NN")
    assert len(instances) == 1
    inst = instances[0]
    assert (inst.gold, inst.position) == ("mistake", 3)
    assert inst.evidence == ["i", "made", "a", "today"]


def test_extract_two_occurrences_leave_each_other_visible():
    ts = heldout("the/DT error/NN hid/VBD the/DT mistake/NN")
    instances = instances_of(ts, ["error", "mistake"], "NN")
    assert [i.gold for i in instances] == ["error", "mistake"]
    first, second = instances
    assert first.evidence == ["the", "hid", "the", "mistake"]
    assert second.evidence == ["the", "error", "hid", "the"]


def test_extract_picks_evidence_within_the_window_and_skips_stop_words():
    ts = heldout("the/DT error/NN hid/VBD 3/CD mistakes/NNS\nin/IN one/CD error/NN")
    instances = extract_instances(ts, [SetDefinition("s", "NN", ["error", "mistakes"])], 1)["s"]
    assert [(i.gold, i.sentence_id, i.position, i.evidence) for i in instances] == [
        ("error", 0, 1, ["the", "hid"]), ("mistakes", 0, 4, []), ("error", 1, 2, [])]


def test_extract_matches_pos_category():
    ts = heldout("the/DT task/NN to/TO task/VB him/PRP fell/VBD to/TO Task/NNP")
    noun_instances = instances_of(ts, ["task", "chore"], "NN")
    assert len(noun_instances) == 1  # verb and proper-noun occurrences excluded
    assert noun_instances[0].position == 1
    verb_instances = instances_of(ts, ["task", "chore"], "VB")
    assert len(verb_instances) == 1
    assert verb_instances[0].position == 3


def test_extract_groups_inflected_tags():
    ts = heldout("tough/JJ tasks/NNS await/VBP")
    instances = instances_of(ts, ["tasks", "chores"], "NN")
    assert len(instances) == 1


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.tuples(st.sampled_from(["a", "b", "c", "d"]),
                                   st.sampled_from(["NN", "VB"]), st.booleans()),
                         min_size=1, max_size=8), min_size=1, max_size=5),
       st.sampled_from([None, 0, 1, 2, 3, 8]), st.data())
def test_instance_evidence_is_the_blanked_sentence_evidence(sentences, evidence_window, data):
    """On random streams, gaps at sentence edges and candidates side by side
    among them, every instance holds the evidence that the reference picks
    from its blanked sentence, and its judged ranking is ``choose``'s on
    that sentence."""
    tokens = [Token(w, tag, sid, stop) for sid, sent in enumerate(sentences)
              for w, tag, stop in sent]
    set_defs = [SetDefinition(f"s{i}", data.draw(st.sampled_from(["NN", "VB"])),
                              data.draw(st.lists(st.sampled_from("abcd"), min_size=2, max_size=3,
                                                 unique=True)))
                for i in range(data.draw(st.integers(1, 2)))]
    scores = data.draw(st.dictionaries(st.sampled_from("abcd"), st.sampled_from([0.5, 1.0, 2.5])))
    found = extract_instances(TokenStream.of(tokens), set_defs, evidence_window)
    for sdef in set_defs:
        cands = CandidateSet(sdef.set_id, sdef.pos_category,
                             [Candidate(w, star(w, {x: t for x, t in scores.items() if x != w}),
                                        data.draw(st.integers(0, 2)))
                              for w in sdef.members])
        for outcome in judge_instances(cands, found[sdef.set_id]):
            inst = outcome.instance
            sentence = blanked([t for t in tokens if t.sentence_id == inst.sentence_id],
                               inst.position)
            assert inst.gold == sentences[inst.sentence_id][inst.position][0]
            assert inst.evidence == [t.surface for t in reference_evidence_tokens(
                sentence, evidence_window)]
            assert outcome.ranked == choose(cands, sentence, evidence_window)


def judged(cands: CandidateSet, text: str):
    """The run_grid path: extract, judge, summarize."""
    ts = heldout(text)
    words = [m.word for m in cands.members]
    instances = instances_of(ts, words, cands.pos_category)
    return summarize(cands, judge_instances(cands, instances))


def test_extract_instances_carry_set_id():
    ts = heldout("an/DT alpha/NN and/CC a/DT beta/NN arrived/VBD")
    instances = instances_of(ts, ["alpha", "beta"], "NN")
    assert [i.gold for i in instances] == ["alpha", "beta"]


def test_coarse_category():
    assert coarse_category("NNS") == "NN"
    assert coarse_category("VBD") == "VB"
    assert coarse_category("JJR") == "JJ"
    assert coarse_category("NNP") == "NNP"
    assert coarse_category("NNPS") == "NNP"
    assert coarse_category("DT") == "DT"


def test_baseline_choose_most_frequent():
    def set_with(freqs: dict[str, int]) -> CandidateSet:
        members = [Candidate(w, root_only(w), f) for w, f in freqs.items()]
        return CandidateSet("x", "NN", members)

    assert baseline_choose(set_with({"error": 64, "mistake": 61, "oversight": 37})) == "error"
    assert baseline_choose(set_with({"job": 418, "task": 123, "duty": 48})) == "job"
    assert baseline_choose(set_with({"b": 7, "a": 7})) == "a"


@given(st.dictionaries(st.text("abc", min_size=1, max_size=2), st.integers(0, 3),
                       min_size=2, max_size=6))
def test_baseline_is_the_ranking_without_evidence(freqs):
    """Frequency ties included, the baseline is ``choose``'s winner for a
    sentence whose only words are stop words."""
    members = [Candidate(w, star(w, {"cue": 2.0}), f) for w, f in freqs.items()]
    cands = CandidateSet("x", "NN", members)
    tokens = [Token("cue", "NNP", 0, is_stop=True), Token("gap", "NN", 0)]
    no_evidence = GapSentence(tokens, 1)
    assert baseline_choose(cands) == choose(cands, no_evidence)[0].candidate


def test_evaluate_counts_correct_choices():
    cands = two_candidate_set()
    # alpha wins whenever "cue" is present; otherwise beta (frequency fallback)
    text = "\n".join(
        [
            "cue/NN alpha/NN",       # alpha chosen, gold alpha: correct
            "cue/NN alpha/NN",       # correct
            "calm/NN alpha/NN",      # beta chosen, gold alpha: wrong
            "calm/NN beta/NN",       # beta chosen, gold beta: correct
        ]
    )
    report = judged(cands, text)
    assert report.sample_size == 4
    assert report.accuracy == pytest.approx(0.75)
    assert report.baseline_accuracy == pytest.approx(0.25)  # baseline always beta


def test_evaluate_all_correct():
    report = judged(two_candidate_set(), "cue/NN alpha/NN")
    assert report.accuracy == 1.0


def test_evaluate_rejects_empty_instances():
    with pytest.raises(ValueError):
        summarize(two_candidate_set(), [])


def test_empty_networks_reduce_to_baseline():
    members = [
        Candidate("alpha", root_only("alpha"), 5),
        Candidate("beta", root_only("beta"), 9),
    ]
    cands = CandidateSet("s", "NN", members)
    text = "cue/NN alpha/NN\nx/NN beta/NN\ny/NN alpha/NN\nz/NN beta/NN"
    report = judged(cands, text)
    assert report.accuracy == report.baseline_accuracy
    assert report.chi2 == 0.0 and not report.significant_at_5pct


def test_chi_square_worked_table():
    chi2, significant = chi_square(60, 100, 40, 100)
    assert chi2 == pytest.approx(8.0, abs=1e-9)
    assert significant


def test_chi_square_equal_proportions_zero():
    chi2, significant = chi_square(30, 50, 30, 50)
    assert chi2 == 0.0 and not significant


def test_chi_square_symmetry():
    a = chi_square(57, 90, 33, 80)
    b = chi_square(33, 80, 57, 90)
    assert a == b


def test_chi_square_degenerate_margins():
    assert chi_square(10, 10, 7, 7) == (0.0, False)
    assert chi_square(0, 10, 0, 7) == (0.0, False)


def test_chi_square_threshold_boundary():
    # just over/under the 3.841 critical value
    assert CHI2_5PCT_CRITICAL == 3.841
    chi2, significant = chi_square(62, 100, 48, 100)
    assert chi2 > CHI2_5PCT_CRITICAL and significant
    chi2_small, significant_small = chi_square(56, 100, 44, 100)
    assert chi2_small < CHI2_5PCT_CRITICAL and not significant_small


def test_chi_square_matches_definition_on_small_tables():
    def from_definition(ca, na, cb, nb):
        observed = [[ca, na - ca], [cb, nb - cb]]
        rows = [na, nb]
        cols = [ca + cb, (na - ca) + (nb - cb)]
        total = na + nb
        value = 0.0
        for i in (0, 1):
            for j in (0, 1):
                expected = rows[i] * cols[j] / total
                value += (observed[i][j] - expected) ** 2 / expected
        return value

    for na, nb in itertools.product(range(1, 11), range(1, 11)):
        if na + nb > 20:
            continue
        for ca in range(na + 1):
            for cb in range(nb + 1):
                col_c = ca + cb
                col_w = (na - ca) + (nb - cb)
                chi2, _ = chi_square(ca, na, cb, nb)
                if col_c == 0 or col_w == 0:
                    assert chi2 == 0.0
                else:
                    assert chi2 == pytest.approx(from_definition(ca, na, cb, nb), abs=1e-9)


def test_chi_square_validates_inputs():
    with pytest.raises(ValueError):
        chi_square(1, 0, 1, 5)
    with pytest.raises(ValueError):
        chi_square(6, 5, 1, 5)


def test_report_bounds_validated():
    with pytest.raises(ValueError):
        EvalReport("s", 0, 0.5, 0.5, 0.0, False)
    with pytest.raises(ValueError):
        EvalReport("s", 5, 1.5, 0.5, 0.0, False)


def test_grid_cells_omit_wide_third_order():
    cells = grid_cells([4, 10, 50], [1, 2, 3])
    assert (50, 3) not in cells
    assert len(cells) == 8
    assert grid_cells([5, 7], [1, 2, 3]) == [(5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (7, 3)]


def test_run_grid_rejects_sets_absent_from_heldout():
    cfg = CorpusConfig(stop_threshold=100)
    train = ingest("alpha/NN cue/NN\nbeta/NN calm/NN", cfg)
    vocab = build_vocabulary(train, cfg)
    heldout_ts = ingest("nothing/NN here/RB", cfg)
    sdef = SetDefinition("s", "NN", ["alpha", "beta"])
    with pytest.raises(ValueError, match="no occurrences"):
        run_grid(train, vocab, heldout_ts, [sdef], windows=[4], orders=[1])


@pytest.mark.parametrize(
    "set_ids, windows, orders, problem",
    [
        (["a", "a"], [4], [1], "set ids must be distinct, got 'a' twice"),
        (["a", "b"], [4, 10, 4], [1],
         "windows must be a list of distinct integers, got 4 twice in [4, 10, 4]"),
        (["a", "b"], [4], [2, 1, 2],
         "orders must be a list of distinct integers, got 2 twice in [2, 1, 2]"),
    ],
    ids=["set-id", "window", "order"],
)
def test_run_grid_refuses_repeats_before_counting(monkeypatch, set_ids, windows, orders,
                                                   problem):
    def no_counting(*args):
        raise AssertionError("count_pairs called")

    monkeypatch.setattr(evaluation, "count_pairs", no_counting)
    pc = planted_corpus()
    train = ingest(pc.train_text)
    held = ingest(pc.heldout_text)
    set_defs = [SetDefinition(set_id, "NN", pc.set_def.members) for set_id in set_ids]
    with pytest.raises(ValueError, match=re.escape(problem)):
        run_grid(train, build_vocabulary(train), held, set_defs, windows, orders)


@pytest.mark.parametrize(
    "windows, orders, t_min, problem",
    [
        ([4, 0], [1], 2.0, "window half_width must be >= 1"),
        ([4], [1, -1], 2.0, "max_order must be >= 0"),
        ([4], [1], 1e-9, "t_min 1e-09 is below the edge weight precision 1e-6"),
    ],
    ids=["window", "order", "t-min"],
)
def test_run_grid_refuses_a_setting_no_cell_can_use_before_counting(monkeypatch, windows, orders,
                                                                    t_min, problem):
    """A setting that would fail at a later cell is refused before the
    training stream is walked, so no earlier cell is judged in vain."""
    def no_counting(*args):
        raise AssertionError("count_pairs called")

    monkeypatch.setattr(evaluation, "count_pairs", no_counting)
    pc = planted_corpus()
    train = ingest(pc.train_text)
    with pytest.raises(ValueError, match=re.escape(problem)):
        run_grid(train, build_vocabulary(train), ingest(pc.heldout_text), [pc.set_def], windows,
                 orders, SignificanceThresholds(t_min, 2.0))


@pytest.mark.parametrize(
    "members, max_freq, problem",
    [
        (["widget", "doohickey"], 800,
         "set 'planted': member 'doohickey' is absent from training (count 0, F = 800)"),
        (["widget", "gadget"], 100,
         "set 'planted': member 'gadget' is a stop word (count 150, F = 100)"),
    ],
    ids=["absent", "stop-word"],
)
def test_run_grid_refuses_an_unusable_member_before_counting(monkeypatch, members, max_freq,
                                                             problem):
    """A member with no network is refused by name, with its set, its
    count and F, before the training stream is walked."""
    def no_counting(*args):
        raise AssertionError("count_pairs called")

    monkeypatch.setattr(evaluation, "count_pairs", no_counting)
    pc = planted_corpus()
    cfg = CorpusConfig(stop_threshold=max_freq)
    train = ingest(pc.train_text, cfg)
    held = ingest(pc.heldout_text, cfg)
    sdef = SetDefinition("planted", "NN", members)
    with pytest.raises(InvalidRootError, match=re.escape(problem)):
        run_grid(train, build_vocabulary(train, cfg), held, [sdef], [4], [2])


def test_run_grid_refuses_a_negative_evidence_window_before_counting(monkeypatch):
    def no_counting(*args):
        raise AssertionError("count_pairs called")

    monkeypatch.setattr(evaluation, "count_pairs", no_counting)
    pc = planted_corpus()
    train = ingest(pc.train_text)
    held = ingest(pc.heldout_text)
    with pytest.raises(ValueError, match="evidence_window must be non-negative, got -1"):
        run_grid(train, build_vocabulary(train), held, [pc.set_def], [4], [2],
                 evidence_window=-1)


def test_extract_instances_refuses_a_negative_evidence_window():
    pc = planted_corpus()
    with pytest.raises(ValueError, match="evidence_window must be non-negative, got -1"):
        extract_instances(ingest(pc.heldout_text), [pc.set_def], -1)


def test_set_definition_refuses_a_repeated_member():
    with pytest.raises(ValueError, match=re.escape("set 's': member 'widget' is listed twice")):
        SetDefinition("s", "NN", ["widget", "gadget", "Widget"])


def test_run_grid_and_reports(tmp_path):
    cfg = CorpusConfig(stop_threshold=100)
    # filler bulks N so the planted alpha-cue pair clears the thresholds
    train_text = "\n".join(
        ["alpha/NN cue/NN"] * 30
        + ["beta/NN calm/NN"] * 40
        + ["p/NN q/NN r/NN s/NN t/NN"] * 200
    )
    train = ingest(train_text, cfg)
    vocab = build_vocabulary(train, cfg)
    heldout_ts = ingest("cue/NN alpha/NN\ncalm/NN beta/NN", cfg)
    sdef = SetDefinition("s", "NN", ["alpha", "beta"])
    cells = run_grid(train, vocab, heldout_ts, [sdef], windows=[4], orders=[1])
    assert len(cells) == 1
    report = cells[0].reports["s"]
    assert report.sample_size == 2
    text = render_grid_report(cells, [sdef], {"train": "x"})
    assert "narrow-1" in text and "baseline" in text
    log = render_instance_log(cells)
    assert log.splitlines()[0].startswith("window\torder")
    assert len(log.splitlines()) == 3  # header + 2 instances


@pytest.mark.parametrize(
    "caps", [NetworkCaps(max_nodes=15), NetworkCaps(max_edges=60), NetworkCaps()]
)
def test_run_grid_with_firing_caps_matches_per_cell_builds(caps, monkeypatch):
    pc = planted_corpus()
    cfg = CorpusConfig()
    train = ingest(pc.train_text, cfg)
    vocab = build_vocabulary(train, cfg)
    held = ingest(pc.heldout_text, cfg)
    apply_stop_policy(held, vocab, cfg)
    thresholds = SignificanceThresholds()
    networks: list[CoocNetwork] = []
    real_judge = evaluation.judge_instances

    def recording_judge(cands, instances):
        networks.extend(m.network for m in cands.members)
        return real_judge(cands, instances)

    monkeypatch.setattr(evaluation, "judge_instances", recording_judge)
    cells = run_grid(train, vocab, held, [pc.set_def], [4, 10], [1, 2, 3], thresholds, caps)

    assert any(net.truncated for net in networks) == (caps != NetworkCaps())
    counts = {k: count_pairs(train, vocab, WindowConfig(k)) for k in (4, 10)}
    for net in networks:
        direct = build_network(net.root, counts[net.half_width], thresholds, net.max_order, caps)
        assert net == expected_scoring_network(direct, caps)
    assert cells == per_cell_grid(train, vocab, held, [pc.set_def], [4, 10], [1, 2, 3],
                                  thresholds, caps)


def test_run_grid_picks_each_instance_evidence_once(monkeypatch):
    """The held-out stream is extracted once, at the grid's evidence
    window, and every cell judges those same instances."""
    pc = planted_corpus()
    cfg = CorpusConfig()
    train = ingest(pc.train_text, cfg)
    vocab = build_vocabulary(train, cfg)
    held = ingest(pc.heldout_text, cfg)
    apply_stop_policy(held, vocab, cfg)
    windows = []
    real_extract = evaluation.extract_instances

    def counting_extract(held_out, set_defs, evidence_window=None):
        windows.append(evidence_window)
        return real_extract(held_out, set_defs, evidence_window)

    monkeypatch.setattr(evaluation, "extract_instances", counting_extract)
    cells = run_grid(train, vocab, held, [pc.set_def], [4, 10], [1, 2, 3], evidence_window=3)
    instances = [[o.instance for o in cell.outcomes[pc.set_def.set_id]] for cell in cells]
    assert len(cells) == 6 and windows == [3] and len(instances[0]) > 1
    assert all(list(map(id, cell)) == list(map(id, instances[0])) for cell in instances)
    assert instances[0] == real_extract(held, [pc.set_def], 3)[pc.set_def.set_id]


def test_run_grid_walks_the_training_stream_once(monkeypatch):
    """One ``count_pairs``, at the widest window, serves every window."""
    windows = []
    real_count = evaluation.count_pairs

    def counting(ts, vocab, window):
        windows.append(window)
        return real_count(ts, vocab, window)

    monkeypatch.setattr(evaluation, "count_pairs", counting)
    pc = planted_corpus()
    train = ingest(pc.train_text)
    held = ingest(pc.heldout_text)
    run_grid(train, build_vocabulary(train), held, [pc.set_def], [10, 4, 50], [1, 2],
             cross_sentences=True)
    assert windows == [WindowConfig(50, cross_sentences=True)]


def test_grid_outcomes_hold_totals_alone():
    pc = planted_corpus()
    train = ingest(pc.train_text)
    held = ingest(pc.heldout_text)
    cells = run_grid(train, build_vocabulary(train), held, [pc.set_def], [4], [2])
    scores = [s for o in cells[0].outcomes[pc.set_def.set_id] for s in o.ranked]
    assert scores and all(vars(s).keys() == {"candidate", "total"} for s in scores)


@settings(max_examples=100, deadline=None)
@given(grid_text, grid_text, st.sampled_from([2, 5, 800]), st.booleans(),
       st.lists(st.sampled_from([1, 2, 4, 10, 50]), min_size=1, max_size=3, unique=True),
       st.lists(st.sampled_from([1, 2, 3]), min_size=1, unique=True),
       st.sampled_from([(0.01, -1.0), (0.5, -1.0), (1.0, 0.0), (2.0, 2.0)]),
       st.sampled_from([None, 0, 2]), st.data())
def test_run_grid_equals_the_per_cell_grid_on_random_text(train_sents, held_sents, max_freq,
                                                           cross, windows, orders, thresholds,
                                                           evidence_window, data):
    """On random tagged text and random sets of ingested words, two parts
    of speech and overlapping members among them, ``run_grid`` equals the
    grid recounted, rebuilt and re-extracted per cell, windows in any order,
    either sentence setting and any evidence window; and a set absent from
    the held-out text is refused."""
    assume(grid_cells(windows, orders))
    cfg = CorpusConfig(stop_threshold=max_freq)
    train = ingest(tagged_text(train_sents, "slash"), cfg)
    vocab = build_vocabulary(train, cfg)
    # The training text ends the held-out text, so most sets occur in it.
    held = ingest(tagged_text(held_sents + train_sents, "slash"), cfg)
    apply_stop_policy(held, vocab, cfg)
    roots = sorted(w for w in vocab.freq if not vocab.is_frequency_stopped(w))
    assume(len(roots) >= 2)
    set_defs = [
        SetDefinition(f"s{i}", data.draw(st.sampled_from(["NN", "VB"])),
                      data.draw(st.lists(st.sampled_from(roots), min_size=2, max_size=3,
                                         unique=True)))
        for i in range(data.draw(st.integers(1, 3)))
    ]
    instances = extract_instances(held, set_defs, evidence_window)
    assert instances == {sdef.set_id: per_set_instances(held, sdef.members, sdef.pos_category,
                                                        evidence_window)
                         for sdef in set_defs}
    thresholds = SignificanceThresholds(*thresholds)
    args = (train, vocab, held, set_defs, windows, orders, thresholds, NetworkCaps(), cross,
            evidence_window)
    if not all(instances.values()):
        with pytest.raises(ValueError, match="in the held-out corpus"):
            run_grid(*args)
        return
    assert run_grid(*args) == per_cell_grid(*args)
