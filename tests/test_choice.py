import dataclasses
import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from lexchoice.choice import (
    GAP,
    Candidate,
    CandidateSet,
    ChoiceScore,
    GapSentence,
    _rank,
    choose,
    evidence_breakdown,
    parse_gap_sentence,
    top_contributors,
)
from lexchoice.cooc import WindowConfig, count_pairs
from lexchoice.corpus import DEFAULT_STOP_TAGS, Token, Vocabulary, build_vocabulary, ingest
from lexchoice.network import CoocNetwork, build_network
from lexchoice.synthetic import planted_corpus

from conftest import pair_key, surfaces
from oracles import (blanked, random_layered_network, reference_apply_stop_policy,
                     reference_evidence_tokens, reference_parse_gap_sentence, reference_rank,
                     summed_significance)


def evidence_network(root: str, direct: dict[str, float]) -> CoocNetwork:
    """Star network: each key is a depth-1 neighbor with the given t-score."""
    depths = {root: 0, **{w: 1 for w in direct}}
    edges = {pair_key(root, w): t for w, t in direct.items()}
    return CoocNetwork(root, 1, depths, edges, total_tokens=10_000, half_width=4)


def root_only(root: str) -> CoocNetwork:
    return CoocNetwork(root, 0, {root: 0}, {}, total_tokens=10_000, half_width=4)


def sentence(words: list[str], gap_index: int, stops: set[str] = frozenset()) -> GapSentence:
    tokens = [Token(w, "NN", 0, is_stop=w in stops) for w in words]
    return blanked(tokens, gap_index)


def score_of(net: CoocNetwork, s: GapSentence, evidence_window: int | None = None) -> ChoiceScore:
    """``net``'s score from ``choose``, ranked against a rival with no edges."""
    members = [Candidate(net.root, net, 0), Candidate("_rival", root_only("_rival"), 0)]
    ranked = choose(CandidateSet("s", "NN", members), s, evidence_window)
    return next(score for score in ranked if score.candidate == net.root)


def test_score_counts_each_occurrence():
    net = evidence_network("c", {"learn": 0.41, "plant": 2.00})
    s = sentence(["learn", "c", "plant", "learn"], 1)
    score = score_of(net, s)
    assert score.total == pytest.approx(0.41 * 2 + 2.00, rel=1e-12)
    assert evidence_breakdown(net, s) == {
        "learn": pytest.approx(0.82, rel=1e-12),
        "plant": pytest.approx(2.0),
    }


def test_score_skips_gap_and_stops():
    net = evidence_network("c", {"learn": 1.0})
    s = sentence(["learn", "c", "learn"], 1, stops={"learn"})
    assert score_of(net, s).total == 0.0


def test_score_empty_evidence_is_zero():
    net = evidence_network("c", {"learn": 1.0})
    s = sentence(["the", "c", "of"], 1, stops={"the", "of"})
    assert score_of(net, s).total == 0.0


def test_gap_token_never_scores_even_if_candidate_word():
    # blanked position originally held the candidate itself
    net = evidence_network("c", {"c2": 3.0})
    s = sentence(["c2", "c"], 1)
    assert s.tokens[1].surface == GAP
    assert GAP not in evidence_breakdown(net, s)


def test_unknown_words_contribute_zero():
    net = evidence_network("c", {"learn": 1.5})
    s = sentence(["learn", "c", "mystery"], 1)
    score = score_of(net, s)
    assert score.total == pytest.approx(1.5)
    assert evidence_breakdown(net, s)["mystery"] == 0.0


def test_evidence_window_restricts_positions():
    net = evidence_network("c", {"near": 1.0, "far": 1.0})
    s = sentence(["far", "x", "x", "near", "c", "x"], 4)
    assert score_of(net, s).total == pytest.approx(2.0)
    assert score_of(net, s, evidence_window=1).total == pytest.approx(1.0)


def test_negative_evidence_window_is_refused():
    net = evidence_network("c", {"near": 1.0})
    s = sentence(["near", "c"], 1)
    with pytest.raises(ValueError, match="evidence_window must be non-negative, got -1"):
        s.evidence_tokens(-1)
    with pytest.raises(ValueError, match="evidence_window must be non-negative"):
        score_of(net, s, evidence_window=-1)


def test_choose_ranks_by_total():
    c1 = Candidate("job", evidence_network("job", {"w": 5.52}), 418)
    c2 = Candidate("task", evidence_network("task", {"w": 4.40}), 123)
    c3 = Candidate("duty", evidence_network("duty", {"w": 2.21}), 48)
    cands = CandidateSet("3", "NN", [c1, c2, c3])
    s = sentence(["w", "gapword"], 1)
    ranked = choose(cands, s)
    assert [r.candidate for r in ranked] == ["job", "task", "duty"]
    assert ranked[0].total == pytest.approx(5.52)


def test_choose_all_zero_falls_back_to_frequency():
    c1 = Candidate("error", root_only("error"), 64)
    c2 = Candidate("mistake", root_only("mistake"), 61)
    c3 = Candidate("oversight", root_only("oversight"), 37)
    cands = CandidateSet("2", "NN", [c1, c2, c3])
    ranked = choose(cands, sentence(["nothing", "x"], 1))
    assert [r.candidate for r in ranked] == ["error", "mistake", "oversight"]
    assert all(r.total == 0.0 for r in ranked)


def test_choose_tie_breaks_frequency_then_lexicographic():
    cands = CandidateSet(
        "t",
        "NN",
        [
            Candidate("beta", root_only("beta"), 10),
            Candidate("alpha", root_only("alpha"), 10),
            Candidate("gamma", root_only("gamma"), 20),
        ],
    )
    ranked = choose(cands, sentence(["x", "y"], 1))
    assert [r.candidate for r in ranked] == ["gamma", "alpha", "beta"]


def test_choose_empty_set_rejected():
    with pytest.raises(ValueError):
        CandidateSet("x", "NN", [])


def test_candidate_word_must_match_network_root():
    with pytest.raises(ValueError):
        Candidate("other", root_only("word"), 1)


def test_additivity_over_concatenation():
    net = evidence_network("c", {"u": 1.3, "v": 2.7})
    s1 = sentence(["u", "c", "v"], 1)
    s2 = sentence(["v", "v", "u", "pad"], 3)  # gap lands on the padding token
    combined = GapSentence(s1.tokens + s2.tokens, 1)
    expected = score_of(net, s1).total + score_of(net, s2).total
    assert score_of(net, combined).total == pytest.approx(expected, rel=1e-12)


def test_argmax_stable_under_global_scaling():
    rng = random.Random(17)
    words = [f"e{i}" for i in range(6)]
    for _ in range(20):
        nets = {}
        for cand in ("one", "two", "three"):
            direct = {w: round(rng.uniform(0.2, 4.0), 6) for w in words if rng.random() < 0.7}
            nets[cand] = direct
        sent_words = [rng.choice(words) for _ in range(8)] + ["g"]
        s = sentence(sent_words, len(sent_words) - 1)

        def ranking(scale: float) -> list[str]:
            members = [
                Candidate(c, evidence_network(c, {w: t * scale for w, t in d.items()}), 5)
                for c, d in nets.items()
            ]
            return [r.candidate for r in choose(CandidateSet("s", "NN", members), s)]

        assert ranking(1.0) == ranking(3.7)


def test_totals_never_negative():
    rng = random.Random(23)
    words = [f"e{i}" for i in range(8)]
    for _ in range(30):
        direct = {w: rng.uniform(0.01, 5.0) for w in words if rng.random() < 0.6}
        if not direct:
            continue
        net = evidence_network("c", direct)
        sent_words = [rng.choice(words + ["zz"]) for _ in range(10)] + ["g"]
        s = sentence(sent_words, len(sent_words) - 1)
        assert score_of(net, s).total >= 0.0
        assert all(v >= 0.0 for v in evidence_breakdown(net, s).values())


def test_choose_deterministic():
    net1 = evidence_network("a", {"w": 1.0})
    net2 = evidence_network("b", {"w": 1.0})
    cands = CandidateSet("s", "NN", [Candidate("a", net1, 3), Candidate("b", net2, 3)])
    s = sentence(["w", "x"], 1)
    first = [r.candidate for r in choose(cands, s)]
    for _ in range(5):
        assert [r.candidate for r in choose(cands, s)] == first


def test_parse_gap_sentence():
    text = "The/DT Army/NNP ____ was/VBD 12/CD big/JJ"
    s = parse_gap_sentence(text)
    assert s.gap_index == 2
    assert s.tokens[2].surface == GAP
    # the proper noun and the number are flagged by the default stop tags
    assert [t.is_stop for t in s.tokens] == [False, True, False, False, True, False]
    assert s.tokens[0].surface == "the"
    assert not any(t.is_stop for t in parse_gap_sentence(text, GAP, frozenset()).tokens)


def test_planted_bridge_as_proper_noun_gives_no_evidence():
    """Tagged NNP, the planted bridge word is a stop word, as it is to
    ``lexchoice choose``: the gap falls back to the more frequent rival.
    Tagged NN, it is second-order evidence for the target."""
    pc = planted_corpus()
    stream = ingest(pc.train_text)
    vocab = build_vocabulary(stream)
    counts = count_pairs(stream, vocab, WindowConfig(4))
    members = [Candidate(w, build_network(w, counts), vocab.freq[w]) for w in pc.set_def.members]
    cands = CandidateSet("planted", "NN", members)
    ranked = choose(cands, parse_gap_sentence("Factory/NNP hx001/NN ____ hx002/NN"))
    assert (ranked[0].candidate, ranked[0].total) == (pc.rival, 0.0)
    ranked = choose(cands, parse_gap_sentence("factory/NN hx001/NN ____ hx002/NN"))
    assert ranked[0].candidate == pc.target and ranked[0].total > 0.0


def test_parse_gap_sentence_accepts_bare_words():
    s = parse_gap_sentence("plain words ____ here")
    assert [t.surface for t in s.tokens] == ["plain", "words", GAP, "here"]
    assert not any(t.is_stop for t in s.tokens)


def test_parse_gap_sentence_requires_exactly_one_gap():
    with pytest.raises(ValueError):
        parse_gap_sentence("no gap here")
    with pytest.raises(ValueError):
        parse_gap_sentence("____ two ____")


@pytest.mark.parametrize("text, marker", [(f"{GAP}/NN x/NN {GAP}", GAP),
                                          (f"x/NN [gap] {GAP}", "[gap]")])
def test_parse_gap_sentence_rejects_the_placeholder_as_a_word(text, marker):
    with pytest.raises(ValueError, match="has the gap marker"):
        parse_gap_sentence(text, marker)


# Bare words, slashes anywhere, stop tags, case, the placeholder and the
# markers drawn below, mixed with random surfaces and tags.
gap_pieces = st.one_of(
    st.sampled_from(["word", "The/DT", "a/b/NN", "/NN", "a/", "/", "//", "Army/NNP", "12/CD",
                     ",/,", GAP, f"{GAP}/NN", f"x/{GAP}", "[gap]/NN", "B/b/NNP"]),
    st.tuples(surfaces, st.sampled_from(["", "/NN", "/CD", "/NNP", "/vb"])).map("".join),
)


@settings(max_examples=300)
@given(st.sampled_from([GAP, "[gap]", "x/NN"]).flatmap(
           lambda marker: st.tuples(st.just(marker),
                                    st.lists(st.one_of(gap_pieces, st.just(marker)),
                                             max_size=12))),
       st.sampled_from([DEFAULT_STOP_TAGS, frozenset(), frozenset({"", "NN"})]))
def test_parse_gap_sentence_matches_the_reference_parser(marker_and_pieces, stop_tags):
    """The library and the reference parser give the same tokens and gap,
    or raise the same error, on any list of pieces: no marker, one or
    several, bare words, empty surfaces or tags, and the placeholder."""
    marker, pieces = marker_and_pieces
    text = " ".join(pieces)

    def outcome(parse):
        try:
            parsed = parse(text, marker, stop_tags)
        except ValueError as exc:
            return type(exc), str(exc)
        return ([(t.surface, t.pos, t.sentence_id, t.is_stop) for t in parsed.tokens],
                parsed.gap_index)

    assert outcome(parse_gap_sentence) == outcome(reference_parse_gap_sentence)


@settings(max_examples=300)
@given(st.lists(gap_pieces, max_size=12), st.integers(0, 12), st.data())
def test_parse_gap_sentence_applies_the_training_stop_rule(pieces, at, data):
    """Given the training vocabulary, the parser flags every token as the
    reference stop policy flags a token list: by its tag or by a training
    count above F. The vocabulary counts some of the sentence's words and
    others; like every written vocabulary, it never holds the placeholder.
    A text the parser refuses is refused alike with the vocabulary."""
    pieces.insert(at, GAP)
    text = " ".join(pieces)
    try:
        expected = reference_parse_gap_sentence(text)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            parse_gap_sentence(text, vocab=Vocabulary({"a": 1}, 1, 800))
        return
    words = sorted({tok.surface for tok in expected.tokens} - {GAP})
    freq = data.draw(st.dictionaries(st.sampled_from(words) if words else surfaces,
                                     st.integers(1, 40)))
    freq.update(data.draw(st.dictionaries(surfaces, st.integers(1, 40), max_size=3)))
    vocab = Vocabulary(freq, sum(freq.values()), data.draw(st.sampled_from([1, 7, 20, 800])))
    reference_apply_stop_policy(expected.tokens, vocab)
    parsed = parse_gap_sentence(text, vocab=vocab)
    assert (parsed.tokens, parsed.gap_index) == (expected.tokens, expected.gap_index)


@settings(max_examples=300)
@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), st.booleans()), min_size=1,
                max_size=10).flatmap(
           lambda toks: st.tuples(
               st.just(toks),
               st.one_of(st.sampled_from([0, len(toks) - 1]), st.integers(0, len(toks) - 1)),
               st.one_of(st.sampled_from([None, 0, 1, len(toks), len(toks) + 3]),
                         st.integers(0, len(toks))))))
def test_evidence_tokens_match_the_reference_loop(tokens_gap_window):
    """The sliced evidence is the reference loop's, token for token and
    surface for surface: the gap first, last or inside, stop flags anywhere
    (the gap's own included), and windows of None, 0, 1 and beyond both
    ends."""
    toks, gap, window = tokens_gap_window
    s = GapSentence([Token(w, "NN", 0, stop) for w, stop in toks], gap)
    got, want = s.evidence_tokens(window), reference_evidence_tokens(s, window)
    assert [id(tok) for tok in got] == [id(tok) for tok in want]
    assert s.evidence_surfaces(window) == [tok.surface for tok in want]


# Two t-scores and few words, so totals tie often; an empty map gives a
# network whose every total is 0.0.
star_edges = st.dictionaries(st.sampled_from(["u", "v", "w"]), st.sampled_from([1.0, 2.5]),
                             max_size=3)


@settings(max_examples=300)
@given(st.permutations(["c0", "c1", "c2", "c3"]).flatmap(
           lambda roots: st.lists(st.tuples(star_edges, st.integers(0, 2)),
                                  min_size=2, max_size=4).map(
               lambda drawn: [Candidate(root, evidence_network(root, edges), freq)
                              for root, (edges, freq) in zip(roots, drawn)])),
       st.lists(st.sampled_from(["u", "v", "w", "c0", "zz"]), max_size=6))
def test_rank_matches_the_reference_sort(members, evidence):
    """One stable sort on the totals over the tie order ranks as the
    reference's three-key sort does, with tied totals (all-zero ones
    included) and tied training frequencies, totals bit for bit."""
    cands = CandidateSet("s", "NN", members)
    assert _rank(cands, evidence) == reference_rank(cands, evidence)
    s = sentence(evidence + ["g"], len(evidence))
    assert choose(cands, s) == reference_rank(
        cands, [tok.surface for tok in reference_evidence_tokens(s)])


@settings(max_examples=200)
@given(st.lists(st.tuples(star_edges, st.integers(0, 2)), min_size=2, max_size=4),
       st.lists(st.sampled_from(["u", "v", "w", "c0", "zz"]), max_size=6))
def test_every_member_order_ranks_as_the_reference(drawn, evidence):
    """The tie order is fixed when the set is made, so every permutation of
    the same members ranks as the reference sort does, totals bit for bit."""
    members = [Candidate(f"c{i}", evidence_network(f"c{i}", edges), freq)
               for i, (edges, freq) in enumerate(drawn)]
    want = reference_rank(CandidateSet("s", "NN", members), evidence)
    for order in itertools.permutations(members):
        cands = CandidateSet("s", "NN", list(order))
        assert _rank(cands, evidence) == want == reference_rank(cands, evidence)


def test_candidate_set_is_read_only():
    cands = CandidateSet("s", "NN", [Candidate("a", root_only("a"), 1),
                                     Candidate("b", root_only("b"), 2)])
    assert [m.word for m in cands.members] == ["b", "a"]
    for name, value in (("members", []), ("set_id", "t"), ("pos_category", "VB")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cands, name, value)


def test_top_contributors_sorted():
    net = evidence_network("c", {"u": 1.0, "v": 3.0, "w": 2.0})
    s = sentence(["u", "v", "w", "g"], 3)
    assert top_contributors(evidence_breakdown(net, s), 2) == [("v", pytest.approx(3.0)), ("w", pytest.approx(2.0))]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([None, 0, 1, 3]))
def test_scores_match_summed_significance(seed, evidence_window):
    """Every candidate's total and breakdown equal the sum of one
    significance() per evidence token, bit for bit, and choose ranks them
    by totals alone."""
    rng = random.Random(seed)
    roots = ["c0", "c1", "c2"][: rng.randint(2, 3)]
    members = [
        Candidate(root, random_layered_network(rng, 8, root=root), rng.randint(0, 3))
        for root in roots
    ]
    pool = roots + [f"w{i}" for i in range(1, 9)] + ["zz"]
    tokens = [Token(rng.choice(pool), "NN", 0, is_stop=rng.random() < 0.2)
              for _ in range(rng.randint(1, 14))]
    s = blanked(tokens, rng.randrange(len(tokens)))
    expected = {m.word: summed_significance(m.network, s, evidence_window) for m in members}
    for m in members:
        score = score_of(m.network, s, evidence_window)
        assert (score.total, evidence_breakdown(m.network, s, evidence_window)) == expected[m.word]
    ranked = choose(CandidateSet("s", "NN", members), s, evidence_window)
    freq = {m.word: m.training_freq for m in members}
    assert [r.candidate for r in ranked] == sorted(
        roots, key=lambda w: (-expected[w][0], -freq[w], w)
    )
    assert [vars(r) for r in ranked] == [
        {"candidate": r.candidate, "total": expected[r.candidate][0]} for r in ranked
    ]
