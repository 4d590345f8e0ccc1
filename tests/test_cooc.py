import math
import random
import re
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lexchoice import cooc, ioutil
from lexchoice.cooc import (
    PairCounts,
    SignificanceThresholds,
    WindowConfig,
    count_pairs,
    read_pair_counts,
    write_pair_counts,
)
from lexchoice.corpus import (
    CorpusConfig,
    Token,
    TokenStream,
    Vocabulary,
    apply_stop_policy,
    build_vocabulary,
    ingest,
    read_vocabulary,
    write_vocabulary,
)
from lexchoice.evaluation import run_grid
from lexchoice.synthetic import planted_corpus

from conftest import (assert_same_table, from_pairs, mirrored_rows, pair_key, surfaces,
                      tagged_sentences_of, tagged_text)
from oracles import (
    forward_pair_counts,
    pair_statistics,
    quadratic_pair_counts,
    random_stream,
    reference_read_pair_counts,
    reference_write_pair_counts,
    sorted_key_pair_table_text,
    unfloored_significant_neighbors,
)


# What the writer and ``at_half_width`` say of a table without an occurrence record.
NO_RECORD = re.escape("the pair table has no occurrence record: it was read from a file "
                      "or changed through its pairs")


def stream(text, threshold=100):
    cfg = CorpusConfig(stop_threshold=threshold)
    ts = ingest(text, cfg)
    vocab = build_vocabulary(ts, cfg)
    return ts, vocab


def test_count_pairs_k1():
    ts, vocab = stream("x/NN y/NN z/NN")
    counts = count_pairs(ts, vocab, WindowConfig(1))
    assert counts.pairs == {("x", "y"): 1, ("y", "z"): 1}
    assert counts.get("x", "z") == 0


def test_count_pairs_k2_reaches_further():
    ts, vocab = stream("x/NN y/NN z/NN")
    counts = count_pairs(ts, vocab, WindowConfig(2))
    assert counts.pairs == {("x", "y"): 1, ("y", "z"): 1, ("x", "z"): 1}


def test_stop_token_occupies_position_without_pairing():
    ts, vocab = stream("x/NN 1989/CD y/NN")
    counts = count_pairs(ts, vocab, WindowConfig(1))
    assert counts.pairs == {}
    counts2 = count_pairs(ts, vocab, WindowConfig(2))
    assert counts2.pairs == {("x", "y"): 1}


def test_self_pairs_not_counted():
    ts, vocab = stream("x/NN x/NN y/NN")
    counts = count_pairs(ts, vocab, WindowConfig(2))
    assert counts.pairs == {("x", "y"): 2}


def test_window_does_not_cross_sentences_by_default():
    ts, vocab = stream("x/NN\ny/NN")
    assert count_pairs(ts, vocab, WindowConfig(5)).pairs == {}
    crossed = count_pairs(ts, vocab, WindowConfig(5, cross_sentences=True))
    assert crossed.pairs == {("x", "y"): 1}


def test_a_word_without_partners_has_no_row_before_any_read():
    ts, vocab = stream("x/NN 1989/CD\ny/NN z/NN")
    counts = count_pairs(ts, vocab, WindowConfig(1))
    assert len(counts.rows) == 2
    assert list(counts.rows) == ["y", "z"]
    assert "x" not in counts.rows and counts.get("x", "y") == 0


def test_counts_symmetric_by_construction():
    ts, vocab = stream("a/NN b/NN a/NN b/NN")
    counts = count_pairs(ts, vocab, WindowConfig(3))
    assert counts.get("a", "b") == counts.get("b", "a") == 4


def one_pair(f_xy, f_x, f_y, total, k):
    """A table holding the one pair ("x", "y")."""
    return from_pairs({("x", "y"): f_xy}, freq={"x": f_x, "y": f_y},
                      total_tokens=total, half_width=k)


def x_row(counts, t_min, mi_min):
    return counts.significant_neighbors("x", SignificanceThresholds(t_min, mi_min))


# The least positive t_min: every pair with t > 0 clears it, and its count
# floor underflows to 0.
ANY_T = math.ulp(0.0)


def test_t_score_worked_value():
    # E = 100 * 200 * 2*4 / 100000 = 1.6, t = (16 - 1.6) / sqrt(16)
    [(other, t)] = x_row(one_pair(16, 100, 200, 100_000, 4), 2.0, 2.0)
    assert other == "y"
    assert t == pytest.approx(3.6, abs=1e-12)


def test_t_score_zero_when_observed_equals_expected():
    # E = 10*100*2*5/1000 = 10 = f_xy: t = 0 fails the least positive t_min,
    # and one more co-occurrence passes it.
    assert pair_statistics(10, 10, 100, 1000, 5) == (0.0, 0.0)
    assert x_row(one_pair(10, 10, 100, 1000, 5), ANY_T, -math.inf) == []
    assert x_row(one_pair(11, 10, 100, 1000, 5), ANY_T, -math.inf) == [("y", 1 / math.sqrt(11))]


def test_t_score_rare_pair_limit():
    [(_, t)] = x_row(one_pair(1, 1, 1, 10**9, 4), 0.5, 2.0)
    assert t == pytest.approx(1.0, abs=1e-6)


def test_mutual_information_worked_value():
    counts = one_pair(16, 100, 200, 100_000, 4)
    _, mi = pair_statistics(16, 100, 200, 100_000, 4)
    assert mi == pytest.approx(math.log2(10), abs=1e-12)
    # The pair passes with mi_min at its MI and fails one float above it.
    assert [other for other, _ in x_row(counts, 2.0, mi)] == ["y"]
    assert x_row(counts, 2.0, math.nextafter(mi, math.inf)) == []


def test_mutual_information_zero_and_negative():
    # f = E gives MI = 0 and f < E gives MI < 0; t has the same sign, so
    # neither pair passes any thresholds.
    assert pair_statistics(10, 10, 100, 1000, 5)[1] == 0.0
    assert pair_statistics(4, 10, 100, 1000, 5)[1] < 0
    for f_xy in (10, 4):
        assert x_row(one_pair(f_xy, 10, 100, 1000, 5), ANY_T, -math.inf) == []


def test_is_significant_requires_both_measures():
    good = one_pair(16, 100, 200, 100_000, 4)  # t=3.6, MI=3.32
    assert [other for other, _ in x_row(good, 2.0, 2.0)] == ["y"]
    assert x_row(good, 3.7, 2.0) == []
    # t = 50 but MI = 1 bit: high-volume pair only twice as frequent as chance
    lopsided = one_pair(10_000, 1_000, 5_000, 8_000, 4)
    t, mi = pair_statistics(10_000, 1_000, 5_000, 8_000, 4)
    assert t > 2.0
    assert mi == pytest.approx(1.0)
    assert x_row(lopsided, 2.0, 2.0) == []
    assert x_row(lopsided, 2.0, 1.0) == [("y", t)]


def test_sign_agreement_of_t_and_mi():
    # t > 0 exactly when f > E, and then MI > 0 too: the pair passes the
    # least positive t_min with mi_min at -inf and just above 0 alike.
    rng = random.Random(11)
    for _ in range(200):
        f_xy, f_x, f_y = rng.randint(1, 50), rng.randint(1, 500), rng.randint(1, 500)
        total, k = rng.randint(1_000, 100_000), rng.choice([1, 4, 10, 50])
        above = f_xy * total > f_x * f_y * 2 * k
        counts = one_pair(f_xy, f_x, f_y, total, k)
        assert bool(x_row(counts, ANY_T, -math.inf)) == above
        assert bool(x_row(counts, ANY_T, math.ulp(0.0))) == above
        assert (pair_statistics(f_xy, f_x, f_y, total, k)[1] > 0) == above


def test_joint_count_bounded_by_marginals():
    rng = random.Random(31)
    for _ in range(5):
        ts, cfg = random_stream(rng, 600)
        vocab = build_vocabulary(ts, cfg)
        for k in (2, 6):
            counts = count_pairs(ts, vocab, WindowConfig(k))
            for (w1, w2), f_xy in counts.pairs.items():
                assert f_xy <= min(vocab.freq[w1], vocab.freq[w2]) * 2 * k


def test_window_monotonicity():
    rng = random.Random(3)
    ts, cfg = random_stream(rng, 500)
    vocab = build_vocabulary(ts, cfg)
    previous = None
    for k in (1, 2, 4, 8, 16):
        counts = count_pairs(ts, vocab, WindowConfig(k))
        if previous is not None:
            for key, value in previous.pairs.items():
                assert counts.get(*key) >= value
        previous = counts


@pytest.mark.parametrize("seed", range(6))
def test_quadratic_oracle_small_streams(seed):
    rng = random.Random(seed)
    ts, cfg = random_stream(rng, rng.randint(0, 300))
    vocab = build_vocabulary(ts, cfg)
    for k in (1, 3, 7):
        counts = count_pairs(ts, vocab, WindowConfig(k))
        assert counts.pairs == quadratic_pair_counts(ts, k)


# A sentence is a list of (word, is_stop) tokens; stops land anywhere,
# sentence edges included, and sentence ids may skip (as ingest_files does).
sentences = st.lists(
    st.tuples(st.lists(st.tuples(st.sampled_from("abcdef"), st.booleans()), max_size=12),
              st.integers(1, 2)),
    max_size=10,
)


@settings(max_examples=200, deadline=None)
@given(sentences, st.integers(1, 60), st.booleans())
def test_count_pairs_matches_quadratic_oracle(sents, k, cross):
    ts, sid = [], 0
    for tokens, step in sents:
        ts.extend(Token(w, "NN", sid, is_stop) for w, is_stop in tokens)
        sid += step
    freq = {}
    for tok in ts:
        freq[tok.surface] = freq.get(tok.surface, 0) + 1
    vocab = Vocabulary(freq, total_tokens=len(ts), stop_threshold=800)
    counts = count_pairs(TokenStream.of(ts), vocab, WindowConfig(k, cross_sentences=cross))
    assert counts.pairs == quadratic_pair_counts(ts, k, cross_sentences=cross)


READERS = ["get", "neighbors", "significant_neighbors"]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 300), st.integers(1, 30), st.booleans(),
       st.data())
def test_rows_counted_on_first_read_match_the_quadratic_oracle(seed, n_tokens, k, cross, data):
    ts, cfg = random_stream(random.Random(seed), n_tokens, 15)
    vocab = build_vocabulary(ts, cfg)
    expected = quadratic_pair_counts(ts, k, cross_sentences=cross)
    rows = mirrored_rows(expected)
    counts = count_pairs(ts, vocab, WindowConfig(k, cross_sentences=cross))
    words = sorted(vocab.freq)
    reads = data.draw(st.lists(st.tuples(st.sampled_from(words), st.sampled_from(READERS)),
                               unique_by=lambda read: read[0]) if words else st.just([]))
    for word, reader in reads:
        if reader == "get":
            assert [counts.get(word, other) for other in words] == [
                rows.get(word, {}).get(other, 0) for other in words]
        elif reader == "neighbors":
            assert counts.neighbors(word) == sorted(rows.get(word, {}))
        else:
            counts.significant_neighbors(word, SignificanceThresholds(ANY_T, -math.inf))
        assert counts.row(word) == rows.get(word)
    changed = expected and data.draw(st.booleans())
    if changed:
        key = data.draw(st.sampled_from(sorted(expected)))
        counts.pairs[key] += 1
        expected[key] += 1
        rows = mirrored_rows(expected)
        assert counts.row(key[0]) == rows[key[0]]
        assert counts.row(key[1]) == rows[key[1]]
    forcing = data.draw(st.permutations(["view", "len", "write"]))
    for force in forcing:
        if force == "view":
            assert counts.pairs == expected
        elif force == "len":
            assert len(counts.pairs) == len(expected)
            assert len(counts.rows) == len(rows)
        else:
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "pairs.tsv"
                if changed:  # a changed table is refused and no file is made
                    with pytest.raises(ValueError, match=NO_RECORD):
                        write_pair_counts(counts, path)
                    assert not path.exists()
                else:
                    write_pair_counts(counts, path)
                    assert path.read_text(encoding="utf-8") == sorted_key_pair_table_text(counts)
        assert {word: counts.row(word) for word in words} == {
            word: rows.get(word) for word in words}
    assert counts.rows == rows


def test_rows_are_counted_only_when_read(monkeypatch):
    calls = []
    real_count_elements = cooc._count_elements

    def count_elements(row, surfaces):
        calls.append(surfaces)
        real_count_elements(row, surfaces)

    monkeypatch.setattr(cooc, "_count_elements", count_elements)
    pc = planted_corpus()
    cfg = CorpusConfig()
    train = ingest(pc.train_text, cfg)
    vocab = build_vocabulary(train, cfg)
    counts = count_pairs(train, vocab, WindowConfig(4))
    assert calls == []
    word = pc.set_def.members[0]
    occurrences = sum(tok.surface == word and not tok.is_stop for tok in train)
    row = counts.row(word)
    assert row and len(calls) == occurrences
    assert counts.row(word) is row and counts.neighbors(word) == sorted(row)
    assert len(calls) == occurrences
    calls.clear()
    heldout = ingest(pc.heldout_text, cfg)
    apply_stop_policy(heldout, vocab, cfg)
    run_grid(train, vocab, heldout, [pc.set_def], [4], [1, 2])
    assert 0 < len(calls) < sum(not tok.is_stop for tok in train)


def test_forward_oracle_with_cross_sentences():
    rng = random.Random(99)
    ts, cfg = random_stream(rng, 400)
    vocab = build_vocabulary(ts, cfg)
    counts = count_pairs(ts, vocab, WindowConfig(5, cross_sentences=True))
    assert counts.pairs == forward_pair_counts(ts, 5, cross_sentences=True)


random_thresholds = st.builds(
    SignificanceThresholds, st.floats(0.01, 3.0), st.floats(-2.0, 3.0)
)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 400), st.integers(2, 40),
       st.integers(1, 8), random_thresholds)
def test_significant_neighbors_match_pair_stats(seed, n_tokens, vocab_size, k, thresholds):
    ts, cfg = random_stream(random.Random(seed), n_tokens, vocab_size)
    counts = count_pairs(ts, build_vocabulary(ts, cfg), WindowConfig(k))
    for word in counts.vocab.freq:
        row = counts.significant_neighbors(word, thresholds)
        assert row == unfloored_significant_neighbors(counts, word, thresholds)
        assert counts.significant_neighbors(word, thresholds) is row


@st.composite
def floor_tables(draw):
    """A row of counts at and beside n, with ``t_min`` at, just above or
    just below sqrt(n) (or anywhere), and N from small to so large that the
    expected counts all but vanish."""
    n = draw(st.integers(1, 2_000))
    root = math.sqrt(n)
    t_min = draw(st.one_of(
        st.sampled_from([root, math.nextafter(root, math.inf), math.nextafter(root, 0.0)]),
        st.floats(0.01, 50.0),
    ))
    near = st.integers(max(1, n - 2), n + 2)
    counts = draw(st.lists(st.one_of(near, st.integers(1, 3 * n + 3)), min_size=1, max_size=12))
    freq = {"x": draw(st.integers(1, 60))}
    row = {}
    for i, f_xy in enumerate(counts):
        freq[f"y{i}"] = draw(st.integers(1, 60))
        row[("x", f"y{i}")] = f_xy
    # N is at least the sum of the marginals, as in any vocabulary.
    total = draw(st.one_of(st.integers(max(50, sum(freq.values())), 10**7),
                           st.sampled_from([10**12, 10**18, 10**24])))
    table = from_pairs(row, freq=freq, total_tokens=total,
                       half_width=draw(st.integers(1, 10)))
    mi_min = draw(st.one_of(st.floats(-3.0, 8.0), st.just(-math.inf)))
    return table, SignificanceThresholds(t_min, mi_min)


@settings(max_examples=600, deadline=None)
@given(floor_tables())
def test_count_floor_keeps_every_passing_pair(case):
    counts, thresholds = case
    for word in counts.rows:
        assert counts.significant_neighbors(word, thresholds) == unfloored_significant_neighbors(
            counts, word, thresholds
        )


@pytest.mark.parametrize(
    "n, t_min",
    [(4, 2.0), (5, math.sqrt(5)), (3, math.nextafter(math.sqrt(3), math.inf)),
     (6, math.nextafter(math.sqrt(6), math.inf))],
)
def test_count_floor_keeps_a_pair_whose_t_rounds_to_t_min(n, t_min):
    # With E = 2e-24, t = n / sqrt(n) in floats, which rounds to at least
    # t_min; for n other than 4, n is below the float t_min * t_min.
    counts = from_pairs({("x", "y"): n}, freq={"x": 1, "y": 1},
                        total_tokens=10**24, half_width=1)
    thresholds = SignificanceThresholds(t_min, 2.0)
    assert counts.significant_neighbors("x", thresholds) == [("y", n / math.sqrt(n))]
    assert n / math.sqrt(n) >= t_min and (n == 4 or n < t_min * t_min)


def test_pair_counts_file_roundtrip(tmp_path, tiny_stream, tiny_vocab):
    counts = count_pairs(tiny_stream, tiny_vocab, WindowConfig(4))
    path = tmp_path / "pairs.tsv"
    write_pair_counts(counts, path)
    again = read_pair_counts(path, tiny_vocab)
    assert_same_table(again, counts)
    header = path.read_text().splitlines()[:2]
    assert header == [f"N={tiny_vocab.total_tokens}", "K=4"]


def test_read_pair_counts_keys_rows_with_the_vocabulary_objects(tmp_path, tiny_stream,
                                                                tiny_vocab):
    write_vocabulary(tiny_vocab, tmp_path / "vocab.tsv")
    write_pair_counts(count_pairs(tiny_stream, tiny_vocab, WindowConfig(4)),
                      tmp_path / "pairs.tsv")
    vocab = read_vocabulary(tmp_path / "vocab.tsv")
    key = {word: word for word in vocab.freq}
    counts = read_pair_counts(tmp_path / "pairs.tsv", vocab)
    assert len(counts.rows) > 5
    for word, row in counts.rows.items():
        assert word is key[word]
        assert all(other is key[other] for other in row)


def test_pair_counts_file_deterministic(tmp_path, tiny_stream, tiny_vocab):
    counts = count_pairs(tiny_stream, tiny_vocab, WindowConfig(4))
    write_pair_counts(counts, tmp_path / "p1.tsv")
    write_pair_counts(counts, tmp_path / "p2.tsv")
    assert (tmp_path / "p1.tsv").read_bytes() == (tmp_path / "p2.tsv").read_bytes()


def table_text(counts) -> str:
    """The bytes ``write_pair_counts`` writes for ``counts``, as text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.tsv"
        write_pair_counts(counts, path)
        return path.read_text(encoding="utf-8")


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 300), st.integers(1, 30), st.booleans(),
       st.data())
def test_a_table_derived_from_a_wider_record_equals_count_pairs(seed, n_tokens, widest, cross,
                                                                data):
    """A table derived at any k <= K (any k at all across sentences) from
    the record ``count_pairs`` made at K, its rows forced first or not,
    holds the rows and writes the text of ``count_pairs`` at k."""
    ts, cfg = random_stream(random.Random(seed), n_tokens, 15)
    vocab = build_vocabulary(ts, cfg)
    record = count_pairs(ts, vocab, WindowConfig(widest, cross_sentences=cross))
    if data.draw(st.booleans()):
        record.rows
    k = data.draw(st.integers(1, widest + 10 * cross))
    derived = record.at_half_width(k)
    direct = count_pairs(ts, vocab, WindowConfig(k, cross_sentences=cross))
    assert (derived.vocab, derived.half_width, derived.cross_sentences) == (vocab, k, cross)
    assert derived.rows == direct.rows
    assert table_text(derived) == table_text(direct)


def test_tables_sharing_a_record_count_their_own_rows():
    """Forcing the record table's rows, or writing through one derived
    table's pair view, changes no other table of the same record; the
    changed table is no longer narrowed."""
    pc = planted_corpus()
    train = ingest(pc.train_text)
    vocab = build_vocabulary(train)
    record = count_pairs(train, vocab, WindowConfig(10))
    narrow, sibling = record.at_half_width(4), record.at_half_width(4)
    expected = {k: count_pairs(train, vocab, WindowConfig(k)).rows for k in (4, 10)}
    assert record.rows == expected[10]
    assert narrow.rows == expected[4]
    key = next(iter(narrow.pairs))
    narrow.pairs[key] += 1
    assert narrow.pairs[key] == expected[4][key[0]][key[1]] + 1
    assert sibling.rows == expected[4]
    assert record.rows == expected[10]
    assert record.at_half_width(4).rows == expected[4]
    assert record.at_half_width(10).rows == expected[10]
    with pytest.raises(ValueError, match=NO_RECORD):
        narrow.at_half_width(4)


def test_a_record_refuses_a_wider_sentence_bounded_window(tmp_path, tiny_stream, tiny_vocab):
    record = count_pairs(tiny_stream, tiny_vocab, WindowConfig(4))
    with pytest.raises(ValueError, match="half-width 5 exceeds the record's 4"):
        record.at_half_width(5)
    with pytest.raises(ValueError, match="half_width must be >= 1"):
        record.at_half_width(0)
    crossed = count_pairs(tiny_stream, tiny_vocab, WindowConfig(4, cross_sentences=True))
    assert crossed.at_half_width(5).rows == count_pairs(
        tiny_stream, tiny_vocab, WindowConfig(5, cross_sentences=True)).rows
    write_pair_counts(record, tmp_path / "pairs.tsv")
    with pytest.raises(ValueError, match=NO_RECORD):
        read_pair_counts(tmp_path / "pairs.tsv", tiny_vocab).at_half_width(4)


@settings(max_examples=200, deadline=None)
@given(tagged_sentences_of(surfaces), st.sampled_from(["slash", "tsv"]),
       st.sampled_from([1, 2, 4, 800]), st.integers(1, 60), st.booleans())
def test_pair_table_file_round_trip(sents, fmt, threshold, k, cross):
    text = tagged_text(sents, fmt)
    cfg = CorpusConfig(format=fmt, stop_threshold=threshold)
    ts = ingest(text, cfg)
    vocab = build_vocabulary(ts, cfg)
    counts = count_pairs(ts, vocab, WindowConfig(k, cross_sentences=cross))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.tsv"
        write_pair_counts(counts, path)
        assert path.read_bytes() == sorted_key_pair_table_text(counts).encode("utf-8")
        again = read_pair_counts(path, vocab)
    assert_same_table(again, counts)
    assert all(counts.rows.values()) and all(again.rows.values())


@settings(max_examples=200, deadline=None)
@given(tagged_sentences_of(surfaces), st.sampled_from([1, 2, 800]), st.integers(1, 12),
       st.booleans(), st.booleans())
def test_write_pair_counts_equals_the_generator_writer(sents, threshold, k, cross, read_back):
    """The writer's bytes and pair-row count are the generator writer's for
    a counted table; the same table read back in file order, which has no
    occurrence record, is refused and the file left as it was."""
    cfg = CorpusConfig(stop_threshold=threshold)
    ts = ingest(tagged_text(sents, "slash"), cfg)
    vocab = build_vocabulary(ts, cfg)
    counts = count_pairs(ts, vocab, WindowConfig(k, cross_sentences=cross))
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp) / "new.tsv", Path(tmp) / "old.tsv"
        assert write_pair_counts(counts, new) == reference_write_pair_counts(counts, old)
        assert new.read_bytes() == old.read_bytes()
        if read_back:
            with pytest.raises(ValueError, match=NO_RECORD):
                write_pair_counts(read_pair_counts(new, vocab), new)
            assert new.read_bytes() == old.read_bytes()


# Words no test stream holds: surfaces are at most three characters.
STRANGERS = ["!new1", "!new2"]


@settings(max_examples=200, deadline=None)
@given(tagged_sentences_of(surfaces), st.sampled_from([1, 2, 800]), st.integers(1, 12),
       st.booleans(), st.data())
def test_write_pair_counts_equals_the_generator_writer_on_a_used_table(sents, threshold, k,
                                                                      cross, data):
    """A table derived at a narrower window or not, with some of its rows
    read, on words the stream never held too, writes the generator writer's
    bytes and pair-row count; with some pairs set through its pair view, on
    stop words its record never held too, it is refused and makes no file.
    Then a sibling from the same record holds a fresh table's rows, and the
    table a fresh table's rows with the same sets."""
    cfg = CorpusConfig(stop_threshold=threshold)
    ts = ingest(tagged_text(sents, "slash"), cfg)
    vocab = build_vocabulary(ts, cfg)
    record = count_pairs(ts, vocab, WindowConfig(k, cross_sentences=cross))
    width = data.draw(st.integers(1, k))
    counts = record.at_half_width(width) if data.draw(st.booleans()) else record
    sibling = record.at_half_width(counts.half_width)
    words = sorted(vocab.freq) + STRANGERS
    for word in data.draw(st.lists(st.sampled_from(words), unique=True)):
        counts.row(word)
    edits = data.draw(st.lists(st.tuples(st.sampled_from(words), st.sampled_from(words),
                                         st.integers(1, 50))))
    edits = [((w1, w2), n) for w1, w2, n in edits
             if w1 < w2 and w1 in vocab.freq and w2 in vocab.freq]
    for key, n in edits:
        counts.pairs[key] = n
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp) / "new.tsv", Path(tmp) / "old.tsv"
        if edits:
            with pytest.raises(ValueError, match=NO_RECORD):
                write_pair_counts(counts, new)
            assert not new.exists()
        else:
            assert write_pair_counts(counts, new) == reference_write_pair_counts(counts, old)
            assert new.read_bytes() == old.read_bytes()
    window = WindowConfig(counts.half_width, cross_sentences=cross)
    fresh = count_pairs(ts, vocab, window)
    assert sibling.rows == fresh.rows
    for key, n in edits:
        fresh.pairs[key] = n
    assert counts.rows == fresh.rows


# The vocabulary of the random pair-table texts; "zz" is not in it.
TEXT_VOCAB = Vocabulary({"ant": 5, "bee": 4, "cat": 3, "dog": 2, "eel": 1}, 15, 800)
TEXT_PAIRS = [(w1, w2) for w1 in TEXT_VOCAB.freq for w2 in TEXT_VOCAB.freq if w1 < w2]
TEXT_FAULTS = ["repeat", "swap", "self", "count", "unknown", "excess"]
# Counts the writer never writes; ``int`` accepts the padded ones and the
# last four.
BAD_COUNTS = ["0", "-3", " 7", "7 ", " 7 ", "2.5", "x", "", "+3", "03", "3_0", "\u0663"]
BAD_HEADERS = ["K=0", "N=99", "F=7", "CROSS=2", "CROSS=01", "CROSS=+1", "Q=1", "K=3", "K=x", "N",
               "K=+4", "K=04", "N= 15", "N=015", "F=+800", "F=0800"]
# Characters other than \n at which ``str.splitlines`` breaks a line.
LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\r"]


@st.composite
def pair_table_texts(draw):
    """Pair-table texts over ``TEXT_VOCAB`` as the writer writes them or
    not: rows sorted, shuffled or with one w1 run split in two; repeated,
    swapped and self pairs, bad or padded counts, counts above the 2K x
    min(f) = 8 x min(f) that a stream can give, and unknown words; headers
    missing, bad or after the rows; blank and whitespace-only lines;
    ``\n`` or ``\r\n`` line ends; and other line breaks anywhere, inside a
    word, a count or a header."""
    pairs = draw(st.lists(st.sampled_from(TEXT_PAIRS), unique=True, max_size=10))
    freq = TEXT_VOCAB.freq
    rows = [[w1, w2, str(draw(st.integers(1, 8 * min(freq[w1], freq[w2]))))] for w1, w2 in pairs]
    for fault in draw(st.lists(st.sampled_from(TEXT_FAULTS), max_size=2)):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        w1, w2, count = rows[i]
        if fault == "repeat":
            rows.append([w1, w2, draw(st.sampled_from([count, "9"]))])
        elif fault == "swap":
            rows[i] = [w2, w1, count]
        elif fault == "self":
            rows[i] = [w1, w1, count]
        elif fault == "count":
            rows[i] = [w1, w2, draw(st.sampled_from(BAD_COUNTS))]
        elif fault == "excess":
            rows[i] = [w1, w2, str(draw(st.integers(41, 60)))]
        else:
            rows[i] = [w1, "zz", count] if draw(st.booleans()) else ["zz", w2, count]
    order = draw(st.sampled_from(["sorted", "shuffled", "split"]))
    if order == "shuffled":
        rows = draw(st.permutations(rows))
    else:
        rows.sort()
        runs = [i for i in range(1, len(rows)) if rows[i][0] == rows[i - 1][0]]
        if order == "split" and runs:
            rows.append(rows.pop(draw(st.sampled_from(runs))))
    lines = ["\t".join(row) for row in rows]
    header = ["N=15", "K=4"] + draw(st.sampled_from([[], ["F=800"], ["CROSS=1"],
                                                      ["F=800", "CROSS=0"]]))
    header = list(draw(st.permutations(header)))
    if draw(st.booleans()):
        header.pop(draw(st.integers(0, len(header) - 1)))
    if draw(st.booleans()):
        header.insert(draw(st.integers(0, len(header))), draw(st.sampled_from(BAD_HEADERS)))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["K=4", "F=800"])))
    lines = header + lines
    for blank in draw(st.lists(st.sampled_from(["", "   ", " \t "]), max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), blank)
    for brk in draw(st.lists(st.sampled_from(LINE_BREAKS), max_size=2)):
        if lines:
            i = draw(st.integers(0, len(lines) - 1))
            fields = lines[i].split("\t")
            f = draw(st.integers(0, len(fields) - 1))
            j = draw(st.integers(0, len(fields[f])))
            fields[f] = fields[f][:j] + brk + fields[f][j:]
            lines[i] = "\t".join(fields)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def read_outcome(reader, path: Path):
    """What ``reader`` makes of ``path``: its rows in word and key order and
    its settings, or the message it refuses the file with."""
    try:
        table: PairCounts = reader(path, TEXT_VOCAB)
    except ValueError as exc:
        return str(exc)
    return ([(word, list(row.items())) for word, row in table._rows.items()],
            table.half_width, table.cross_sentences, table.vocab is TEXT_VOCAB)


@settings(max_examples=500, deadline=None)
@given(pair_table_texts())
def test_read_pair_counts_equals_the_per_line_reader(text):
    """The reader returns the per-line reader's rows, in the same word and
    key order, or refuses the text with the same message."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.tsv"
        path.write_bytes(text.encode("utf-8"))
        assert read_outcome(read_pair_counts, path) == read_outcome(reference_read_pair_counts,
                                                                   path)


FLOOR_T_MINS = [0.5, 1.0, 1.5, 2.0, 3.0, 1e200]


def cut_rows(table: PairCounts, floor: float) -> dict[str, dict[str, int]]:
    """The table's rows cut to the counts at or above ``floor``, empty rows dropped."""
    rows = {word: {other: n for other, n in row.items() if n >= floor}
            for word, row in table.rows.items()}
    return {word: row for word, row in rows.items() if row}


@settings(max_examples=500, deadline=None)
@given(pair_table_texts(), st.sampled_from(FLOOR_T_MINS), st.sampled_from([-1.0, 0.0, 1.0]))
def test_a_read_with_thresholds_is_the_whole_read_cut_to_the_floor(text, t_min, mi_min):
    """Given thresholds, the reader refuses a text with the message of the
    per-line reader, which checks the counts it keeps at the same floor,
    or returns that reader's rows cut to the count floor, its settings and
    floor; its significant neighbours are the whole table's."""
    thresholds = SignificanceThresholds(t_min, mi_min)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.tsv"
        path.write_bytes(text.encode("utf-8"))
        try:
            whole = reference_read_pair_counts(path, TEXT_VOCAB, thresholds.count_floor)
        except ValueError as exc:
            with pytest.raises(ValueError) as refused:
                read_pair_counts(path, TEXT_VOCAB, thresholds)
            assert str(refused.value) == str(exc)
            return
        cut = read_pair_counts(path, TEXT_VOCAB, thresholds)
    assert cut.floor == thresholds.count_floor
    assert cut.rows == cut_rows(whole, cut.floor)
    assert (cut.vocab, cut.half_width, cut.cross_sentences) == (
        TEXT_VOCAB, whole.half_width, whole.cross_sentences)
    for word in TEXT_VOCAB.freq:
        assert cut.significant_neighbors(word, thresholds) == whole.significant_neighbors(
            word, thresholds)


@pytest.mark.parametrize("order, refused", [
    ("sorted", None),
    ("shuffled", "line 4: pair 'bee' 'cat' does not sort after the pair before it, 'bee' 'eel'"),
    ("split", "line 7: pair 'ant' 'bee' does not sort after the pair before it, 'bee' 'eel'"),
])
def test_a_read_with_thresholds_keeps_only_the_pairs_at_the_floor(tmp_path, order, refused):
    """In the writer's order, the default floor of 4 keeps the two pairs
    counted 4 and 9 times and drops the rest, in both words' rows. Out of
    it, the table is refused at the first line that does not sort after
    the one before, kept or dropped."""
    rows = [("ant", "bee", "9"), ("ant", "cat", "3"), ("ant", "dog", "1"), ("bee", "cat", "4"),
            ("bee", "eel", "2")]
    if order == "shuffled":
        rows = rows[::-1]
    elif order == "split":
        rows = rows[1:3] + rows[3:] + rows[:1]
    path = tmp_path / "pairs.tsv"
    path.write_text("\n".join(["N=15", "K=4", *("\t".join(row) for row in rows)]) + "\n")
    if refused:
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {refused}')}$"):
            read_pair_counts(path, TEXT_VOCAB, SignificanceThresholds())
        return
    counts = read_pair_counts(path, TEXT_VOCAB, SignificanceThresholds())
    assert counts.rows == {"ant": {"bee": 9}, "bee": {"ant": 9, "cat": 4}, "cat": {"bee": 4}}
    assert counts.neighbors("cat") == ["bee"] and counts.get("ant", "cat") == 0
    assert counts.floor == 4 * (1 - cooc.COUNT_FLOOR_MARGIN)


@pytest.mark.parametrize("rows, line_no, problem", [
    (["ant\tbee\t1", "K=4"], 4, "header line K= after the first pair row"),
    (["ant\tbee\t1", "ant\tbee\t1"], 4, "pair 'ant' 'bee' repeats an earlier row"),
    (["ant\tcat\t1", "ant\tbee\t9", "ant\tcat\t1"], 4,
     "pair 'ant' 'bee' does not sort after the pair before it, 'ant' 'cat'"),
    (["ant\tbee\t1", "bee\tcat\t1", "ant\tbee\t1"], 5,
     "pair 'ant' 'bee' does not sort after the pair before it, 'bee' 'cat'"),
    (["ant\tbee\t1", "ant\tzz\t1"], 4, "pair word 'zz' is not in the vocabulary"),
])
def test_a_read_with_thresholds_checks_the_pairs_it_drops(tmp_path, rows, line_no, problem):
    """A pair below the floor still counts as the first pair row, still
    catches a repeat of it on the next line, still bounds the order of the
    lines after it, and is still checked."""
    path = tmp_path / "pairs.tsv"
    path.write_text("\n".join(["N=15", "K=3", *rows]) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line {line_no}: {problem}')}$"):
        read_pair_counts(path, TEXT_VOCAB, SignificanceThresholds())


# A table over TEXT_VOCAB in the writer's order, with counts below and
# above the default floor of 4, and the index of its first pair line, of a
# line inside a w1 run, of the first line of a run, and of its last line.
WRITER_ROWS = [("ant", "bee", "9"), ("ant", "cat", "2"), ("ant", "eel", "5"), ("bee", "cat", "1"),
               ("bee", "dog", "7"), ("cat", "dog", "3"), ("dog", "eel", "6")]
FAULT_PLACES = {"first": 0, "mid-run": 1, "run change": 3, "last": 6}


def faulty_writer_table(fault: str, place: int, count: str) -> str:
    """``WRITER_ROWS`` with one fault at row ``place``, its count ``count``:
    the row replaced by a swapped pair, a self pair, a count of 0, an
    unknown w1 or w2, or a repeat of the row before; the row moved two rows
    later; or a header or blank line put in before it."""
    rows = [list(row) for row in WRITER_ROWS]
    w1, w2, _ = rows[place]
    lines = ["N=15", "K=4"]
    fault_row = {"swap": [w2, w1, count], "self": [w1, w1, count], "count 0": [w1, w2, "0"],
                 "unknown w1": [w1 + "x", w2, count], "unknown w2": [w1, w2 + "x", count],
                 "repeat": [*rows[place - 1][:2], count]}.get(fault)
    if fault_row is None:
        rows[place][2] = count
    else:
        rows[place] = fault_row
    if fault == "moved":
        rows.insert(place + 2, rows.pop(place))
    lines += ["\t".join(row) for row in rows]
    if fault in ("header", "blank"):
        lines.insert(2 + place, "K=4" if fault == "header" else "")
    return "\n".join(lines) + "\n"


def assert_reads_as_the_per_line_reader(path: Path) -> str | tuple:
    """The reader's outcome is the per-line reader's; given thresholds, it
    refuses the text with the same message or returns the per-line reader's
    rows cut to the floor. Returns the per-line reader's outcome."""
    expected = read_outcome(reference_read_pair_counts, path)
    assert read_outcome(read_pair_counts, path) == expected
    thresholds = SignificanceThresholds()
    if isinstance(expected, str):
        with pytest.raises(ValueError) as refused:
            read_pair_counts(path, TEXT_VOCAB, thresholds)
        assert str(refused.value) == expected
    else:
        cut = read_pair_counts(path, TEXT_VOCAB, thresholds)
        assert cut.rows == cut_rows(reference_read_pair_counts(path, TEXT_VOCAB), cut.floor)
    return expected


# Counts below and above the default floor of 4; no row's count can pass
# 2K x min(f) = 8 for the pairs with eel.
@pytest.mark.parametrize("count", ["2", "8"])
@pytest.mark.parametrize("fault, place", [
    (fault, place)
    for fault in ["swap", "self", "count 0", "unknown w1", "unknown w2", "repeat", "moved",
                  "header", "blank"]
    for place in FAULT_PLACES
    # No row before the first to repeat, and none after the last to move past.
    if (fault, place) not in {("repeat", "first"), ("moved", "last")}
])
def test_one_fault_in_a_writer_order_table_reads_as_the_per_line_reader_reads_it(
        tmp_path, fault, place, count):
    """One fault anywhere in a table that is otherwise in the writer's
    order, below or above the floor, is refused at the per-line reader's
    line with its message; a blank line is no fault. A moved row is
    refused where it lands, the first line that does not sort after the
    line before."""
    path = tmp_path / "pairs.tsv"
    path.write_text(faulty_writer_table(fault, FAULT_PLACES[place], count))
    expected = assert_reads_as_the_per_line_reader(path)
    assert isinstance(expected, str) == (fault != "blank")
    if fault == "moved":
        i = FAULT_PLACES[place]
        (w1, w2, _), (p1, p2, _) = WRITER_ROWS[i], WRITER_ROWS[i + 2]
        assert expected == (f"{path}: line {i + 5}: pair {w1!r} {w2!r} does not sort after "
                            f"the pair before it, {p1!r} {p2!r}")


@pytest.mark.parametrize("brk", LINE_BREAKS)
@pytest.mark.parametrize("old, new", [
    ("K=4", "K={}4"),
    ("ant\tcat\t2", "ant\tcat\t{}2"),
    ("bee\tdog\t7", "bee\tdog\t1{}7"),
    ("dog\teel\t6\n", "dog\teel\t6{}\n"),
    ("ant\teel", "ant\te{}el"),
])
def test_a_line_break_in_a_writer_order_table_reads_as_the_per_line_reader_reads_it(
        tmp_path, brk, old, new):
    """A line break other than \\n inside a header, before, inside or after
    a count, or inside a word is refused at its line."""
    path = tmp_path / "pairs.tsv"
    text = "".join(f"{line}\n" for line in ["N=15", "K=4", *map("\t".join, WRITER_ROWS)])
    line_no = text.count("\n", 0, text.index(old)) + 1
    text = text.replace(old, new.format(brk))
    path.write_bytes(text.encode())
    bad = text.split("\n")[line_no - 1]
    assert assert_reads_as_the_per_line_reader(path) == (
        f"{path}: line {line_no}: {bad!r} holds a line break other than \\n")


@pytest.mark.parametrize("text", ["N=15\nK=4\nF=800", "N=15\nK=4\nCROSS=1", "K=4\nN=15"])
def test_a_header_only_table_without_a_last_line_end_is_refused_at_its_last_line(tmp_path, text):
    path = tmp_path / "pairs.tsv"
    path.write_text(text)
    last = text.split("\n")[-1]
    assert assert_reads_as_the_per_line_reader(path) == (
        f"{path}: line {text.count(chr(10)) + 1}: {last!r} does not end in \\n")


@pytest.mark.parametrize("brk", LINE_BREAKS)
def test_a_vocabulary_word_holding_a_line_break_reads_as_the_per_line_reader_reads_it(
        tmp_path, brk):
    """A pair line whose word holds a line break other than \\n is refused
    at its line, even when the vocabulary holds that word: \\n is a table
    line's only break."""
    vocab = Vocabulary({f"a{brk}b": 4, "c": 5}, 9, 800)
    path = tmp_path / "pairs.tsv"
    line = f"a{brk}b\tc\t4"
    path.write_bytes(f"N=9\nK=4\n{line}\n".encode())
    expected = f"{path}: line 3: {line!r} holds a line break other than \\n"
    for thresholds in (None, SignificanceThresholds()):
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            read_pair_counts(path, vocab, thresholds)
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        reference_read_pair_counts(path, vocab)


def test_a_table_with_a_count_floor_refuses_what_needs_a_pair_below_it(tmp_path):
    """Thresholds with a lower floor, a write of the table, which has no
    occurrence record, and a count below the floor are refused; thresholds
    with the same or a higher floor are served."""
    path = tmp_path / "pairs.tsv"
    path.write_text("N=15\nK=4\nant\tbee\t9\nant\tcat\t3\n")
    counts = read_pair_counts(path, TEXT_VOCAB, SignificanceThresholds(2.0, 2.0))
    floor = counts.floor
    with pytest.raises(ValueError, match=f"^t_min 1.5 needs counts below the table's floor {floor}$"):
        counts.significant_neighbors("ant", SignificanceThresholds(1.5, 2.0))
    for thresholds in (SignificanceThresholds(2.0, -1.0), SignificanceThresholds(3.0, 2.0)):
        counts.significant_neighbors("ant", thresholds)
    with pytest.raises(ValueError, match=f"^{NO_RECORD}$"):
        write_pair_counts(counts, tmp_path / "out.tsv")
    assert not (tmp_path / "out.tsv").exists()
    with pytest.raises(ValueError, match=f"^count 3 is below the table's count floor {floor}$"):
        counts.pairs[("ant", "cat")] = 3
    counts.pairs[("ant", "cat")] = 4
    assert counts.rows == {"ant": {"bee": 9, "cat": 4}, "bee": {"ant": 9}, "cat": {"ant": 4}}


def test_a_write_through_the_pair_view_drops_memoised_significance_rows():
    freq = {"a": 10, "b": 10}
    thresholds = SignificanceThresholds(1, 1)
    counts = from_pairs({("a", "b"): 9}, freq, total_tokens=1000, half_width=1)
    assert counts.significant_neighbors("a", thresholds) == [("b", (9 - 0.2) / 3)]
    counts.pairs[("a", "b")] = 1
    fresh = from_pairs({("a", "b"): 1}, freq, total_tokens=1000, half_width=1)
    assert fresh.significant_neighbors("a", thresholds) == []
    assert counts.significant_neighbors("a", thresholds) == []
    assert counts.significant_neighbors("b", thresholds) == []


def small_table(pairs):
    return from_pairs(pairs, freq=dict.fromkeys("abcd", 5), total_tokens=20, half_width=4)


def test_pairs_view_writes_both_rows():
    counts = small_table({("a", "b"): 2})
    counts.pairs[("a", "c")] = 3
    counts.pairs[("a", "b")] += 1
    assert counts.rows == {"a": {"b": 3, "c": 3}, "b": {"a": 3}, "c": {"a": 3}}
    assert counts.get("c", "a") == counts.get("a", "c") == 3
    assert counts.neighbors("a") == ["b", "c"]
    with pytest.raises(ValueError, match="out of order"):
        counts.pairs[("c", "a")] = 1
    with pytest.raises(ValueError, match="self-pair"):
        counts.pairs[("d", "d")] = 1


def test_a_pair_view_write_holds_a_count_a_run_could_make(tmp_path):
    """A write naming a word outside the vocabulary, or a count below 1, is
    refused with the reader's words and leaves the table as it was."""
    counts = small_table({("a", "b"): 2})
    for key, count, problem in [(("a", "zzz"), 50, "pair word 'zzz' is not in the vocabulary"),
                                (("!x", "a"), 5, "pair word '!x' is not in the vocabulary"),
                                (("a", "c"), 0, "count 0 is below 1"),
                                (("a", "b"), -3, "count -3 is below 1")]:
        with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
            counts.pairs[key] = count
    assert counts.rows == {"a": {"b": 2}, "b": {"a": 2}}
    assert counts.significant_neighbors("a", SignificanceThresholds(1.0, -10)) == []
    reference_write_pair_counts(counts, tmp_path / "pairs.tsv")
    assert read_pair_counts(tmp_path / "pairs.tsv", counts.vocab).rows == counts.rows


def changed_table(count):
    """A table counted at k = 4, where f(x, y) = 3, with that pair set to ``count``."""
    ts, vocab = stream("x/NN y/NN z/NN w/NN x/NN y/NN")
    counts = count_pairs(ts, vocab, WindowConfig(4))
    assert counts.get("x", "y") == 3
    counts.pairs[("x", "y")] = count
    assert counts.rows == {**count_pairs(ts, vocab, WindowConfig(4)).rows,
                           "x": {"y": count, "z": 2, "w": 2}, "y": {"x": count, "z": 2, "w": 2}}
    return counts


@pytest.mark.parametrize("count", [2.5, 17])
def test_a_table_changed_through_its_pairs_is_not_written(tmp_path, count):
    """A set count no stream gives (not an integer, or above 2K x min(f) =
    16) is refused by the writer before any file is made."""
    counts = changed_table(count)
    with pytest.raises(ValueError, match=f"^{NO_RECORD}$"):
        write_pair_counts(counts, tmp_path / "pairs.tsv")
    assert list(tmp_path.iterdir()) == []


def test_a_table_changed_through_its_pairs_is_not_narrowed():
    """No narrowing of a changed table hands back the count a set replaced."""
    counts = changed_table(99)
    assert counts.get("x", "y") == counts.get("y", "x") == 99
    with pytest.raises(ValueError, match=f"^{NO_RECORD}$"):
        counts.at_half_width(4)


def test_a_table_read_from_a_file_is_not_written(tmp_path, tiny_stream, tiny_vocab):
    write_pair_counts(count_pairs(tiny_stream, tiny_vocab, WindowConfig(4)),
                      tmp_path / "pairs.tsv")
    again = read_pair_counts(tmp_path / "pairs.tsv", tiny_vocab)
    with pytest.raises(ValueError, match=f"^{NO_RECORD}$"):
        write_pair_counts(again, tmp_path / "out" / "pairs.tsv")
    assert not (tmp_path / "out").exists()


def test_pairs_view_membership_and_length():
    counts = small_table({("a", "b"): 2, ("b", "c"): 1, ("a", "c"): 4})
    assert ("a", "b") in counts.pairs
    assert ("b", "a") not in counts.pairs
    assert ("a", "d") not in counts.pairs
    assert ("d", "z") not in counts.pairs
    assert len(counts.pairs) == 3
    assert sorted(counts.pairs) == [("a", "b"), ("a", "c"), ("b", "c")]


def test_pairs_view_equals_a_plain_dict_both_ways():
    plain = {("a", "b"): 2, ("b", "c"): 1}
    counts = small_table(plain)
    assert counts.pairs == plain and plain == counts.pairs
    assert counts.pairs != {("a", "b"): 2} and {("a", "b"): 2} != counts.pairs
    assert counts.pairs != {("a", "b"): 2, ("b", "c"): 9}
    assert counts.pairs == small_table(plain).pairs
    assert counts.pairs != small_table({("a", "b"): 2}).pairs


@pytest.mark.parametrize("seed", range(4))
def test_from_pairs_rebuilds_a_counted_table(seed):
    ts, cfg = random_stream(random.Random(seed), 300)
    vocab = build_vocabulary(ts, cfg)
    counts = count_pairs(ts, vocab, WindowConfig(3, cross_sentences=bool(seed % 2)))
    plain = dict(counts.pairs.items())
    rebuilt = from_pairs(
        plain, freq=vocab.freq, total_tokens=vocab.total_tokens, half_width=3,
        cross_sentences=bool(seed % 2), stop_threshold=vocab.stop_threshold,
    )
    assert rebuilt.pairs == plain
    assert_same_table(rebuilt, counts)


def test_a_table_holds_the_very_vocabulary_it_was_given(tmp_path, tiny_stream, tiny_vocab):
    counts = count_pairs(tiny_stream, tiny_vocab, WindowConfig(4))
    assert counts.vocab is tiny_vocab
    write_pair_counts(counts, tmp_path / "pairs.tsv")
    assert read_pair_counts(tmp_path / "pairs.tsv", tiny_vocab).vocab is tiny_vocab


def test_read_pair_counts_rejects_mismatched_vocab(tmp_path, tiny_stream, tiny_vocab):
    counts = count_pairs(tiny_stream, tiny_vocab, WindowConfig(4))
    path = tmp_path / "pairs.tsv"
    write_pair_counts(counts, path)
    other_cfg = CorpusConfig(stop_threshold=100)
    other = build_vocabulary(ingest("one/NN two/NN", other_cfg), other_cfg)
    with pytest.raises(ValueError):
        read_pair_counts(path, other)


def rewrite_pairs(path, old, new):
    path.write_text(path.read_text().replace(old, new, 1))


def test_read_pair_counts_rejects_other_stop_threshold(tmp_path, tiny_stream, tiny_vocab):
    path = tmp_path / "pairs.tsv"
    write_pair_counts(count_pairs(tiny_stream, tiny_vocab, WindowConfig(4)), path)
    rewrite_pairs(path, "F=100\n", "F=800\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*F=800.*F=100"):
        read_pair_counts(path, tiny_vocab)


def test_read_pair_counts_rejects_word_missing_from_vocabulary(tmp_path, tiny_stream, tiny_vocab):
    path = tmp_path / "pairs.tsv"
    write_pair_counts(count_pairs(tiny_stream, tiny_vocab, WindowConfig(4)), path)
    lines = path.read_text().splitlines()
    bad_line = next(i for i, line in enumerate(lines, 1) if line.startswith("task\t"))
    rewrite_pairs(path, "\ntask\t", "\nchore\t")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line {bad_line}: pair word 'chore'"):
        read_pair_counts(path, tiny_vocab)


@pytest.mark.parametrize("row", ["task\ttime", "task\ttime\tmany", "task\ttime\t2\t3"])
def test_read_pair_counts_rejects_malformed_row(tmp_path, tiny_stream, tiny_vocab, row):
    path = tmp_path / "pairs.tsv"
    write_pair_counts(count_pairs(tiny_stream, tiny_vocab, WindowConfig(4)), path)
    path.write_text(path.read_text() + row + "\n")
    line_no = len(path.read_text().splitlines())
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line {line_no}: expected"):
        read_pair_counts(path, tiny_vocab)


@pytest.mark.parametrize(
    "old, new, line_no, problem",
    [
        ("N=32\n", "N=abc\n", 1, "expected 'N=<tokens>', got 'N=abc'"),
        ("K=4\n", "K=x\n", 2, "expected 'K=<half-width >= 1>', got 'K=x'"),
        ("K=4\n", "K=0\n", 2, "expected 'K=<half-width >= 1>', got 'K=0'"),
        ("K=4\n", "K=-3\n", 2, "expected 'K=<half-width >= 1>', got 'K=-3'"),
        ("F=100\n", "F=abc\n", 3, "expected 'F=<threshold >= 1>', got 'F=abc'"),
        ("F=100\n", "F=0\n", 3, "expected 'F=<threshold >= 1>', got 'F=0'"),
        ("CROSS=0\n", "CROSS=2\n", 4, "expected 'CROSS=<0 or 1>', got 'CROSS=2'"),
        ("CROSS=0\n", "CROSS=0\nMODE=1\n", 5, "unknown header key 'MODE'"),
        ("CROSS=0\n", "CROSS=0\nK=9\n", 5, "header key K= repeats an earlier line"),
        ("\ntask\ttime\t1\n", "\ntask\ttime\t1\nK=4\n", None,
         "header line K= after the first pair row"),
    ],
    ids=["text-total", "text-window", "zero-window", "negative-window", "text-threshold",
         "zero-threshold", "cross-2", "unknown-key", "repeated-key", "after-rows"],
)
def test_read_pair_counts_rejects_bad_header_lines(
    tmp_path, tiny_stream, tiny_vocab, old, new, line_no, problem
):
    path = tmp_path / "pairs.tsv"
    write_pair_counts(count_pairs(tiny_stream, tiny_vocab, WindowConfig(4)), path)
    assert old in path.read_text()
    rewrite_pairs(path, old, new)
    if line_no is None:
        line_no = path.read_text().splitlines().index("K=4", 4) + 1
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line {line_no}: {problem}')}$"):
        read_pair_counts(path, tiny_vocab)


@pytest.mark.parametrize(
    "row, problem",
    [
        ("time\ttask\t1", "pair 'time' 'task' is out of order"),
        ("task\ttask\t1", "pair 'task' 'task' is out of order or a self-pair"),
        ("task\ttime\t0", "count 0 is below 1"),
        ("task\ttime\t-7", "count -7 is below 1"),
        ("task\ttime\t+3", "count '+3' is not written as 3"),
        ("task\ttime\t03", "count '03' is not written as 3"),
        ("task\ttime\t3_0", "count '3_0' is not written as 30"),
        ("task\ttime\t\u0663", "count '\u0663' is not written as 3"),
        ("task\ttime\t 7", "count ' 7' is not written as 7"),
    ],
    ids=["swapped", "self-pair", "zero-count", "negative-count", "plus-sign", "leading-zero",
         "underscore", "arabic-indic-digit", "padded"],
)
def test_read_pair_counts_rejects_rows_the_writer_never_writes(
    tmp_path, tiny_stream, tiny_vocab, row, problem
):
    path = tmp_path / "pairs.tsv"
    write_pair_counts(count_pairs(tiny_stream, tiny_vocab, WindowConfig(4)), path)
    rewrite_pairs(path, "task\ttime\t1", row)
    line_no = path.read_text().splitlines().index(row) + 1
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line {line_no}: {problem}')}"):
        read_pair_counts(path, tiny_vocab)


def test_read_pair_counts_rejects_a_repeated_pair(tmp_path, tiny_stream, tiny_vocab):
    path = tmp_path / "pairs.tsv"
    write_pair_counts(count_pairs(tiny_stream, tiny_vocab, WindowConfig(4)), path)
    text = path.read_text()
    before = text.splitlines()[-1].split("\t")[:2]
    assert before != ["task", "time"]
    path.write_text(text + "task\ttime\t1\n")
    line_no = len(path.read_text().splitlines())
    problem = (f"line {line_no}: pair 'task' 'time' does not sort after the pair before it, "
               f"{before[0]!r} {before[1]!r}")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {problem}')}$"):
        read_pair_counts(path, tiny_vocab)


def test_a_vocabulary_word_utf8_cannot_encode_is_left_out_of_a_read(tmp_path):
    """A word holding a lone surrogate, which only an in-memory vocabulary
    can hold, does not stop a read, and its bytes as ``surrogatepass``
    encodes them are refused as undecodable."""
    vocab = Vocabulary({"a": 5, "b": 5, "c\ud800": 5}, 15, 800)
    path = tmp_path / "pairs.tsv"
    path.write_bytes(b"N=15\nK=4\na\tb\t3\n")
    assert read_pair_counts(path, vocab).rows == {"a": {"b": 3}, "b": {"a": 3}}
    path.write_bytes(b"N=15\nK=4\na\t" + "c\ud800".encode(errors="surrogatepass") + b"\t3\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 3: byte 0xed "):
        read_pair_counts(path, vocab)


@pytest.mark.parametrize("t_min, kept", [(None, True), (3.0, True), (3.5, False)])
def test_a_count_no_stream_can_give_is_refused_where_the_read_keeps_it(tmp_path, t_min, kept):
    """eel is counted once, so at K = 4 no stream pairs it with dog more
    than 2 x 4 x 1 = 8 times. A count of 9 is refused at its line by a read
    that keeps it, with no thresholds or at the floor of 9 that t_min = 3
    gives, and dropped unchecked below the floor of 12.25 of t_min = 3.5."""
    path = tmp_path / "pairs.tsv"
    path.write_text("N=15\nK=4\nant\tbee\t20\ndog\teel\t9\n")
    thresholds = None if t_min is None else SignificanceThresholds(t_min, -1.0)
    if kept:
        problem = ("line 4: count 9 of pair 'dog' 'eel' is above 2K x min(f) = 8, "
                   "more than any stream gives")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {problem}')}$"):
            read_pair_counts(path, TEXT_VOCAB, thresholds)
    else:
        assert read_pair_counts(path, TEXT_VOCAB, thresholds).rows == {
            "ant": {"bee": 20}, "bee": {"ant": 20}}


@pytest.mark.parametrize("header, problem", [
    ("N=16\nK=4", "pair counts were taken over N=16 tokens but the vocabulary has N=15"),
    ("N=15\nK=4\nF=9", "pair counts were taken with F=9 but the vocabulary has F=800"),
    ("N=15", "missing N=/K= header"),
])
def test_a_header_refused_after_the_pass_outranks_a_count_no_stream_can_give(
        tmp_path, header, problem):
    """Counts are held to the vocabulary only in a table whose header the
    read accepts; another table is refused for its header, as before."""
    path = tmp_path / "pairs.tsv"
    path.write_text(f"{header}\ndog\teel\t9\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {problem}')}$"):
        read_pair_counts(path, TEXT_VOCAB)


def test_a_count_text_the_writer_never_writes_is_refused_at_every_lookup():
    """The memo of parsed count texts stores only the ones it accepts."""
    counts = ioutil.IntTexts(1)
    for _ in range(2):
        for text in ("05", "0"):
            with pytest.raises(ValueError):
                counts[text]
    assert counts["5"] == 5 and "05" not in counts and "0" not in counts


def test_refusing_a_large_table_at_its_last_line_does_not_hold_its_text(tmp_path):
    """A fault on the last line of a large table that is otherwise in the
    writer's order is found in the one pass over the file: the read's
    tracemalloc peak stays below the file's size."""
    words = [f"w{i:03}" for i in range(400)]
    path = tmp_path / "pairs.tsv"
    with open(path, "w", encoding="utf-8") as out:
        out.write("N=20000\nK=4\n")
        out.writelines(f"{a}\t{b}\t{1 + j % 3}\n"
                       for i, a in enumerate(words) for j, b in enumerate(words[i + 1:]))
        out.write("w398\tw399\t0\n")
    line_no = 2 + len(words) * (len(words) - 1) // 2 + 1
    vocab = Vocabulary(dict.fromkeys(words, 50), 20000, 800)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line {line_no}: count 0')}"):
            read_pair_counts(path, vocab, SignificanceThresholds())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


def test_window_config_validation():
    with pytest.raises(ValueError):
        WindowConfig(0)


def test_thresholds_require_positive_t():
    with pytest.raises(ValueError):
        SignificanceThresholds(t_min=0.0)


@pytest.mark.parametrize(
    "t_min, mi_min",
    [(math.nan, 2.0), (2.0, math.nan), (math.inf, 2.0), (-math.inf, 2.0), (2.0, math.inf)],
    ids=["nan-t", "nan-mi", "inf-t", "minus-inf-t", "inf-mi"],
)
def test_thresholds_reject_nan_and_unbounded_values(t_min, mi_min):
    with pytest.raises(ValueError, match="t_min"):
        SignificanceThresholds(t_min, mi_min)


def test_thresholds_allow_unbounded_mi():
    assert SignificanceThresholds(2.0, -math.inf).mi_min == -math.inf


def test_pair_key_orders():
    assert pair_key("b", "a") == ("a", "b")
    assert pair_key("a", "b") == ("a", "b")
