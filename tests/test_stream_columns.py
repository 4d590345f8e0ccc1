"""The columnar token stream against the per-token references in ``oracles``.

Random slash and tsv texts, in one to three files, with bad items, blank
lines and ``\\r\\n`` line ends, must ingest as the references ingest them,
or fail with the same ``CorpusFormatError``; the vocabulary, the stop flags,
the pair-counting record and the held-out instances must then equal theirs.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lexchoice import corpus
from lexchoice.cooc import WindowConfig, count_pairs
from lexchoice.corpus import (GAP, CorpusConfig, CorpusFormatError, Token, TokenStream,
                              apply_stop_policy, build_vocabulary, ingest, ingest_files)
from lexchoice.evaluation import SetDefinition, extract_instances, run_grid

from oracles import (quadratic_pair_counts, reference_apply_stop_policy,
                     reference_build_vocabulary, reference_extract_instances,
                     reference_ingest_files, reference_occurrences)

WORDS = ["a", "B", "c/d", "é", "e"]
TAGS = ["NN", "VB", "CD", "NNP"]

GOOD = {
    "slash": st.builds("{}/{}".format, st.sampled_from(WORDS), st.sampled_from(TAGS)),
    "tsv": st.builds("{}\t{}".format, st.sampled_from(WORDS), st.sampled_from(TAGS)),
}
BAD = {
    "slash": st.sampled_from(["bare", "/NN", "a/", f"{GAP}/NN"]),
    "tsv": st.sampled_from(["notab", "a b\tNN", "\tNN", "a\t", f"{GAP}\tNN", "a\tNN\tx"]),
}


def texts_of(fmt: str, bad: bool) -> st.SearchStrategy[list[str]]:
    """One to three files' texts: slash lines of up to five items, or tsv
    lines of one item or blank; about one item in sixteen bad if ``bad``;
    each line ended by ``\n`` or ``\r\n``."""
    item = GOOD[fmt]
    if bad:
        item = st.integers(0, 15).flatmap(lambda n: BAD[fmt] if n == 0 else GOOD[fmt])
    if fmt == "slash":
        line = st.lists(item, max_size=5).map(" ".join)
    else:
        line = st.one_of(item, st.sampled_from(["", "  ", "\t"]))
    text = st.lists(st.tuples(line, st.sampled_from(["\n", "\r\n"])), max_size=10).map(
        lambda parts: "".join(line + end for line, end in parts))
    return st.lists(text, min_size=1, max_size=3)


def ingest_outcome(ingest_paths, paths, cfg):
    try:
        return list(ingest_paths(paths, cfg))
    except CorpusFormatError as exc:
        return str(exc), exc.message, exc.line, exc.column


def write_files(tmp: str, texts: list[str]) -> list[Path]:
    paths = [Path(tmp) / f"{i}.txt" for i in range(len(texts))]
    for path, text in zip(paths, texts):
        path.write_bytes(text.encode("utf-8"))
    return paths


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["slash", "tsv"]).flatmap(
    lambda fmt: st.tuples(st.just(fmt), texts_of(fmt, bad=True))),
       st.sampled_from([1, 2, 3, corpus._BLOCK_LINES]))
def test_ingest_files_matches_the_per_token_reference(fmt_texts, block_lines):
    """Same surfaces, tags, ids and flags, or the same error, line, column
    and path, however many lines the slash parser splits at a time."""
    fmt, texts = fmt_texts
    cfg = CorpusConfig(format=fmt)
    default = corpus._BLOCK_LINES
    corpus._BLOCK_LINES = block_lines
    try:
        with tempfile.TemporaryDirectory() as tmp:
            paths = write_files(tmp, texts)
            got = ingest_outcome(ingest_files, paths, cfg)
            want = ingest_outcome(reference_ingest_files, paths, cfg)
    finally:
        corpus._BLOCK_LINES = default
    assert got == want


streams = st.sampled_from(["slash", "tsv"]).flatmap(
    lambda fmt: st.tuples(st.just(fmt), texts_of(fmt, bad=False), texts_of(fmt, bad=False),
                          st.integers(1, 4)))


def ingest_both(fmt, texts, threshold):
    cfg = CorpusConfig(format=fmt, stop_threshold=threshold)
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_files(tmp, texts)
        return ingest_files(paths, cfg), reference_ingest_files(paths, cfg), cfg


@settings(max_examples=200, deadline=None)
@given(streams)
def test_vocabulary_and_stop_flags_match_the_references(drawn):
    """``build_vocabulary`` and ``apply_stop_policy`` count and flag a
    stream as the references do; ``apply_stop_policy`` refuses a token
    list, which ``parse_gap_sentence`` flags
    (``test_parse_gap_sentence_applies_the_training_stop_rule``)."""
    fmt, train_texts, held_texts, threshold = drawn
    train, train_ref, cfg = ingest_both(fmt, train_texts, threshold)
    held, held_ref, _ = ingest_both(fmt, held_texts, threshold)
    vocab = build_vocabulary(train, cfg)
    ref_vocab = reference_build_vocabulary(train_ref, cfg)
    assert vocab == ref_vocab
    assert list(vocab.freq) == list(ref_vocab.freq)
    assert list(train) == train_ref
    apply_stop_policy(held, vocab, cfg)
    reference_apply_stop_policy(held_ref, vocab)
    assert list(held) == held_ref
    with pytest.raises(TypeError, match=r"TokenStream\.of\(tokens\)"):
        apply_stop_policy(list(held), vocab)


@settings(max_examples=200, deadline=None)
@given(streams, st.integers(1, 12), st.booleans())
def test_count_pairs_record_and_rows_match_the_references(drawn, k, cross):
    fmt, texts, _, threshold = drawn
    ts, tokens, cfg = ingest_both(fmt, texts, threshold)
    vocab = build_vocabulary(ts, cfg)
    reference_build_vocabulary(tokens, cfg)
    window = WindowConfig(k, cross)
    counts = count_pairs(ts, vocab, window)
    record, want = counts._record, reference_occurrences(tokens, window)
    assert record == want
    assert list(record.by_word) == list(want.by_word)
    assert counts.pairs == quadratic_pair_counts(tokens, k, cross)


# Runs of ids that repeat, skip and come back: a sentence is a maximal run of one id.
id_runs = st.lists(st.tuples(st.integers(0, 3), st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from(TAGS), st.booleans()),
    min_size=1, max_size=5)), max_size=8)


def stream_of_runs(runs) -> list[Token]:
    return [Token(w, tag, sid, stop) for sid, toks in runs for w, tag, stop in toks]


@settings(max_examples=200, deadline=None)
@given(id_runs, st.integers(1, 8), st.booleans())
def test_a_sentence_is_a_maximal_run_of_one_id(runs, k, cross):
    tokens = stream_of_runs(runs)
    ts = TokenStream.of(tokens)
    vocab = build_vocabulary(TokenStream.of(tokens))
    window = WindowConfig(k, cross)
    assert count_pairs(ts, vocab, window)._record == reference_occurrences(tokens, window)
    sets = [SetDefinition("s", "NN", ["a", "b"]), SetDefinition("t", "VB", ["b", "c"])]
    assert extract_instances(ts, sets) == reference_extract_instances(tokens, sets)


@settings(max_examples=200, deadline=None)
@given(streams, st.data())
def test_extract_instances_matches_the_reference(drawn, data):
    fmt, texts, _, threshold = drawn
    ts, tokens, cfg = ingest_both(fmt, texts, threshold)
    words = [w.lower() for w in WORDS]
    sets = [SetDefinition(f"s{i}", data.draw(st.sampled_from(["NN", "VB", "CD", "NNP"])),
                          data.draw(st.lists(st.sampled_from(words), min_size=2, max_size=3,
                                             unique=True)))
            for i in range(data.draw(st.integers(1, 3)))]
    window = data.draw(st.sampled_from([None, 0, 1, 2, 5]))
    assert extract_instances(ts, sets, window) == reference_extract_instances(tokens, sets, window)


@settings(max_examples=100, deadline=None)
@given(id_runs)
def test_a_stream_is_a_read_only_sequence_of_tokens(runs):
    tokens = stream_of_runs(runs)
    ts = TokenStream.of(tokens)
    assert list(TokenStream.of(list(ts))) == list(ts) == tokens and len(ts) == len(tokens)
    assert [ts[i] for i in range(-len(ts), len(ts))] == tokens + tokens
    for tok in [*ts, *(ts[i] for i in range(len(ts)))]:
        tok.surface, tok.pos, tok.sentence_id, tok.is_stop = "z", "Z", 99, not tok.is_stop
    assert list(ts) == stream_of_runs(runs)


def test_stream_columns():
    ts = ingest("The/DT cat/NN 3/CD\n\nsat/VB")
    assert (ts.surfaces, ts.tags, ts.sentence_ids, ts.stops) == (
        ["the", "cat", "3", "sat"], ["DT", "NN", "CD", "VB"], [0, 0, 0, 1], bytearray(b"\0\0\1\0"))
    assert ts.sentence_bounds() == [0, 3, 4]
    assert TokenStream.of([]).sentence_bounds() == [0]
    assert list(ts) == list(TokenStream.of(ts))
    assert repr(ingest("a/NN")) == (
        "TokenStream.of([Token(surface='a', pos='NN', sentence_id=0, is_stop=False)])")


def test_a_stream_takes_an_integer_index_only():
    """A stream is indexed by an integer, never sliced, and equals only itself."""
    ts = ingest("a/NN b/NN")
    assert ts[1] == Token("b", "NN", 0) and ts[True] == ts[1]
    for index in (slice(0, 1), slice(None), 1.0, "0"):
        with pytest.raises(TypeError):
            ts[index]
    assert ts == ts and ts != ingest("a/NN b/NN") and ts != list(ts)


def test_a_token_list_is_refused_naming_the_stream_constructor():
    ts = ingest("the/DT cat/NN sat/VB")
    tokens = list(ts)
    vocab = build_vocabulary(ts)
    calls = [lambda: build_vocabulary(tokens),
             lambda: count_pairs(tokens, vocab, WindowConfig(2)),
             lambda: extract_instances(tokens, []),
             lambda: run_grid(tokens, vocab, ts, [], [2], [1]),
             lambda: run_grid(ts, vocab, tokens, [], [2], [1])]
    for call in calls:
        with pytest.raises(TypeError, match=r"expected a TokenStream, got list; "
                                            r"TokenStream\.of\(tokens\) makes one"):
            call()
