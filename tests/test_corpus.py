import dataclasses
import random
import re
import tempfile
from itertools import groupby
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lexchoice.corpus import (
    GAP,
    CorpusConfig,
    CorpusFormatError,
    Token,
    TokenStream,
    Vocabulary,
    apply_stop_policy,
    build_vocabulary,
    ingest,
    ingest_files,
    read_vocabulary,
    write_vocabulary,
)

from conftest import surfaces, tagged_sentences_of, tagged_text
from oracles import (format_token_stream, random_stream, reference_is_frequency_stopped,
                     regex_parse_slash)


def test_ingest_slash_basic():
    ts = ingest("The/DT team/NN 's/POS most/RBS urgent/JJ task/NN")
    assert len(ts) == 6
    assert [t.surface for t in ts] == ["the", "team", "'s", "most", "urgent", "task"]
    assert [t.pos for t in ts] == ["DT", "NN", "POS", "RBS", "JJ", "NN"]
    assert all(t.sentence_id == 0 for t in ts)


def test_ingest_empty_input():
    assert list(ingest("")) == []
    assert list(ingest("\n\n")) == []


def test_ingest_number_tag_is_stop():
    ts = ingest("1989/CD")
    assert ts[0].is_stop


def test_ingest_proper_noun_and_symbol_stops():
    slash = ingest("Smith/NNP says/VBZ %/SYM yes/UH")
    tsv = ingest("Smith\tNNP\nsays\tVBZ\n%\tSYM\nyes\tUH\n", CorpusConfig(format="tsv"))
    for ts in (slash, tsv):
        assert [(t.surface, t.pos) for t in ts] == [
            ("smith", "NNP"), ("says", "VBZ"), ("%", "SYM"), ("yes", "UH")]
        assert [t.is_stop for t in ts] == [True, False, True, False]


def test_ingest_sentence_boundaries():
    ts = ingest("a/DT b/NN\nc/DT d/NN")
    assert [t.sentence_id for t in ts] == [0, 0, 1, 1]


def test_ingest_surface_with_internal_slash():
    ts = ingest("1/2/CD")
    assert ts[0].surface == "1/2" and ts[0].pos == "CD"


def test_ingest_malformed_token_reports_line_and_column():
    with pytest.raises(CorpusFormatError) as excinfo:
        ingest("good/NN bad\nfine/NN")
    assert excinfo.value.line == 1
    assert excinfo.value.column == 9
    assert "bad" in str(excinfo.value)


def test_ingest_empty_surface_rejected():
    with pytest.raises(CorpusFormatError):
        ingest("/NN")


# ASCII and non-ASCII whitespace, some of which str.splitlines also breaks on.
WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u1680\u2003\u2028\u3000"
slash_items = st.one_of(
    st.builds("{}/{}".format, st.text("aZé/İß", min_size=1, max_size=4),
              st.sampled_from(["NN", "CD", "vb"])),
    st.text("aZé/İß\u200b", min_size=1, max_size=4),
)
slash_texts = st.lists(
    st.tuples(st.text(WHITESPACE, max_size=2), slash_items), max_size=12
).map(lambda parts: "".join(space + item for space, item in parts))


def parse_outcome(parse, raw):
    try:
        return parse(raw)
    except CorpusFormatError as exc:
        return str(exc), exc.line, exc.column


@settings(max_examples=300, deadline=None)
@given(slash_texts)
def test_slash_parser_matches_regex_oracle(raw):
    assert parse_outcome(lambda text: list(ingest(text)), raw) == parse_outcome(regex_parse_slash, raw)


def test_ingest_tsv_variant():
    cfg = CorpusConfig(format="tsv")
    ts = ingest("a\tDT\nb\tNN\n\nc\tVB\n", cfg)
    assert [(t.surface, t.pos, t.sentence_id) for t in ts] == [
        ("a", "DT", 0),
        ("b", "NN", 0),
        ("c", "VB", 1),
    ]


@settings(max_examples=200, deadline=None)
@given(tagged_sentences_of(surfaces))
def test_tsv_and_slash_layouts_parse_alike(sents):
    streams = [ingest(tagged_text(sents, fmt), CorpusConfig(format=fmt)) for fmt in ("slash", "tsv")]
    slash, tsv = ([(t.surface, t.pos, t.sentence_id, t.is_stop) for t in ts] for ts in streams)
    assert tsv == slash


def test_ingest_tsv_rejects_whitespace_in_surface():
    cfg = CorpusConfig(format="tsv")
    with pytest.raises(CorpusFormatError) as excinfo:
        ingest("a\tDT\nnew york\tNN\n", cfg)
    assert (excinfo.value.line, excinfo.value.column) == (2, 4)
    assert "new york" in str(excinfo.value)


def test_ingest_files_names_the_file(tmp_path):
    (tmp_path / "ok.tsv").write_text("a\tDT\n")
    (tmp_path / "bad.tsv").write_text("a\tDT\nb\u00a0c\tNN\n")
    with pytest.raises(CorpusFormatError) as excinfo:
        ingest_files([tmp_path / "ok.tsv", tmp_path / "bad.tsv"], CorpusConfig(format="tsv"))
    assert str(excinfo.value).startswith(f"{tmp_path / 'bad.tsv'}: line 2, column 2: ")
    assert excinfo.value.line == 2


def test_ingest_slash_rejects_the_gap_marker_as_a_surface(tmp_path):
    path = tmp_path / "gap.tag"
    path.write_text(f"a/DT\nb/NN  {GAP}/NN c/NN\n")
    with pytest.raises(CorpusFormatError) as excinfo:
        ingest_files([path])
    assert (excinfo.value.line, excinfo.value.column) == (2, 7)
    assert str(excinfo.value) == (
        f"{path}: line 2, column 7: token '{GAP}/NN' has the gap marker '{GAP}' as its surface"
    )


def test_ingest_tsv_rejects_the_gap_marker_as_a_surface(tmp_path):
    path = tmp_path / "gap.tsv"
    path.write_text(f"a\tDT\n\n{GAP}\tNN\n")
    with pytest.raises(CorpusFormatError) as excinfo:
        ingest_files([path], CorpusConfig(format="tsv"))
    assert (excinfo.value.line, excinfo.value.column) == (3, 1)
    assert str(excinfo.value) == f"{path}: line 3, column 1: surface '{GAP}' is the gap marker"


def test_ingest_tsv_malformed():
    cfg = CorpusConfig(format="tsv")
    with pytest.raises(CorpusFormatError) as excinfo:
        ingest("a\tDT\nnotab\n", cfg)
    assert excinfo.value.line == 2


def test_build_vocabulary_counts_and_flags():
    cfg = CorpusConfig(stop_threshold=2)
    ts = ingest("a/NN a/NN b/NN b/NN b/NN", cfg)
    vocab = build_vocabulary(ts, cfg)
    assert vocab.freq == {"a": 2, "b": 3}
    assert vocab.total_tokens == 5
    assert all(t.is_stop for t in ts if t.surface == "b")
    assert not any(t.is_stop for t in ts if t.surface == "a")


def test_build_vocabulary_empty():
    vocab = build_vocabulary(TokenStream.of([]), CorpusConfig())
    assert vocab.freq == {} and vocab.total_tokens == 0


def test_default_threshold_matches_standard_config():
    assert CorpusConfig().stop_threshold == 800


def test_vocabulary_totals_invariant():
    with pytest.raises(ValueError):
        Vocabulary({"a": 2}, total_tokens=3, stop_threshold=10)


def test_vocabulary_refuses_a_count_below_1():
    # N matches the counts' sum, so only the count itself is at fault.
    with pytest.raises(ValueError, match="vocabulary count of 'b' is -2, below 1"):
        Vocabulary({"a": 5, "b": -2}, total_tokens=3, stop_threshold=800)
    with pytest.raises(ValueError, match="vocabulary count of 'b' is 0, below 1"):
        Vocabulary({"a": 5, "b": 0}, total_tokens=5, stop_threshold=800)


def test_vocabulary_refuses_a_stop_threshold_below_1():
    with pytest.raises(ValueError, match="vocabulary stop threshold must be >= 1, got 0"):
        Vocabulary({"a": 1, "b": 1}, total_tokens=2, stop_threshold=0)


def test_stop_flag_counts_all_occurrences():
    # the frequency threshold sees stop-tagged occurrences too
    cfg = CorpusConfig(stop_threshold=2)
    ts = ingest("x/CD x/NN x/NN", cfg)
    build_vocabulary(ts, cfg)
    assert all(t.is_stop for t in ts)  # freq 3 > 2 even though one is tag-stopped


def test_stop_monotonicity():
    rng = random.Random(7)
    ts, _ = random_stream(rng, 400)
    vocab = build_vocabulary(ts, CorpusConfig(stop_threshold=5))
    for low, high in [(2, 3), (3, 8), (5, 50)]:
        stopped_low = {w for w, c in vocab.freq.items() if c > low}
        stopped_high = {w for w, c in vocab.freq.items() if c > high}
        assert stopped_high <= stopped_low


@pytest.mark.parametrize("seed", range(5))
def test_stream_roundtrip(seed):
    rng = random.Random(seed)
    ts, cfg = random_stream(rng, rng.randint(0, 300))
    text = format_token_stream(ts)
    again = ingest(text, cfg)
    build_vocabulary(again, cfg)
    assert list(again) == list(ts)


def test_roundtrip_tiny(tiny_stream, tiny_config):
    text = format_token_stream(tiny_stream)
    again = ingest(text, tiny_config)
    build_vocabulary(again, tiny_config)
    assert list(again) == list(tiny_stream)


def test_ingest_files_concatenates_in_order(tmp_path, tiny_config):
    (tmp_path / "a.tag").write_text("a/NN b/NN\n")
    (tmp_path / "b.tag").write_text("c/NN\nd/NN\n")
    ts = ingest_files([tmp_path / "a.tag", tmp_path / "b.tag"], tiny_config)
    assert [t.surface for t in ts] == ["a", "b", "c", "d"]
    assert [t.sentence_id for t in ts] == [0, 0, 1, 2]


@settings(max_examples=200, deadline=None)
@given(st.lists(tagged_sentences_of(surfaces, max_sentences=4), max_size=3),
       st.sampled_from(["slash", "tsv"]))
def test_ingest_files_equals_ingest_of_the_joined_texts(texts, fmt):
    """Each file's sentences are numbered on from the last file's, so the
    files ingest as their texts joined would, in either layout."""
    cfg = CorpusConfig(format=fmt)
    texts = [tagged_text(sents, fmt) for sents in texts]
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"{i}.txt" for i in range(len(texts))]
        for path, text in zip(paths, texts):
            path.write_text(text, encoding="utf-8")
        files = ingest_files(paths, cfg)
    joined = ingest("\n\n".join(texts), cfg)
    assert ([(t.sentence_id, t.surface, t.pos, t.is_stop) for t in files]
            == [(t.sentence_id, t.surface, t.pos, t.is_stop) for t in joined])


@pytest.mark.parametrize("fmt", ["slash", "tsv"])
def test_the_tokens_of_a_sentence_share_one_id_object(tmp_path, fmt):
    """Ids above 256 are not cached ints, so a pass adding a file's offset
    token by token would give each token its own id object."""
    paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
    for path in paths:
        path.write_text(tagged_text([[("a", "NN"), ("b", "VB"), ("c", "NN")]] * 300, fmt))
    ts = ingest_files(paths, CorpusConfig(format=fmt))
    assert ts[-1].sentence_id == 599
    for _, sentence in groupby(ts, attrgetter("sentence_id")):
        first, *rest = sentence
        assert all(tok.sentence_id is first.sentence_id for tok in rest)


@settings(max_examples=300)
@given(st.dictionaries(st.sampled_from("abcdef"), st.integers(1, 6), max_size=6).flatmap(
    lambda freq: st.tuples(st.just(freq), st.one_of(
        st.sampled_from([1, max(freq.values(), default=0) + 1]), st.integers(1, 7)))))
def test_frequency_stop_rule_matches_the_count_lookup(freq_and_threshold):
    """The stop set's probe answers as ``freq.get(w, 0) > F`` does, for
    counts around F, F = 1 and F above every count, on words in and out of
    the vocabulary."""
    freq, threshold = freq_and_threshold
    vocab = Vocabulary(freq, sum(freq.values()), threshold)
    for word in [*"abcdef", "", "zz"]:
        assert vocab.is_frequency_stopped(word) is reference_is_frequency_stopped(vocab, word)


def test_vocabulary_is_read_only_and_its_stop_rule_is_derived():
    """No field can be reassigned under the derived stop set, which is no
    init field and which ``==`` and ``repr`` ignore."""
    vocab = Vocabulary({"a": 3, "b": 1}, total_tokens=4, stop_threshold=2)
    for name, value in (("freq", {}), ("total_tokens", 0), ("stop_threshold", 5),
                        ("is_frequency_stopped", bool)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(vocab, name, value)
    assert (vocab.is_frequency_stopped("a"), vocab.is_frequency_stopped("b")) == (True, False)
    assert [f.name for f in dataclasses.fields(Vocabulary) if f.init] == [
        "freq", "total_tokens", "stop_threshold"]
    assert repr(vocab) == "Vocabulary(freq={'a': 3, 'b': 1}, total_tokens=4, stop_threshold=2)"
    other = Vocabulary({"a": 3, "b": 1}, 4, 2)
    object.__setattr__(other, "is_frequency_stopped", frozenset().__contains__)
    assert other == vocab
    assert Vocabulary({"a": 3, "b": 1}, 4, 3) != vocab


def test_vocabulary_file_roundtrip(tmp_path, tiny_vocab):
    path = tmp_path / "vocab.tsv"
    write_vocabulary(tiny_vocab, path)
    again = read_vocabulary(path)
    assert again == tiny_vocab
    first_line = path.read_text().splitlines()[0]
    assert first_line == f"N={tiny_vocab.total_tokens}"


@pytest.mark.parametrize(
    "old, new, line_no, problem",
    [
        ("N=32\n", "N=many\n", 1, "expected 'N=<tokens>'"),
        ("F=100\n", "F=\n", 2, "expected 'F=<threshold>'"),
        ("\na\t2\n", "\na 2\n", 4, "expected 'word<TAB>count, count >= 1'"),
        ("\na\t2\n", "\na\t0\n", 4, "expected 'word<TAB>count, count >= 1'"),
        ("F=100\n", "F=0\n", 2, "expected 'F=<threshold>'"),
        ("F=100\n", "F=-5\n", 2, "expected 'F=<threshold>'"),
        ("\na\t2\n", "\na\t2\na\t2\n", 5, "word 'a' does not sort after the word before it, 'a'"),
        ("\na\t2\n", "\n\t2\n", 4, "word '' is empty or holds whitespace"),
        ("\na\t2\n", "\na b\t2\n", 4, "word 'a b' is empty or holds whitespace"),
    ],
    ids=["bad-total", "bad-threshold", "space-for-tab", "zero-count", "zero-threshold",
         "negative-threshold", "repeated-word", "empty-word", "whitespace-word"],
)
def test_read_vocabulary_names_file_and_line(tmp_path, tiny_vocab, old, new, line_no, problem):
    path = tmp_path / "vocab.tsv"
    write_vocabulary(tiny_vocab, path)
    assert old in path.read_text()
    path.write_text(path.read_text().replace(old, new, 1))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line {line_no}: {problem}')}"):
        read_vocabulary(path)


def test_read_vocabulary_rejects_counts_that_miss_the_total(tmp_path, tiny_vocab):
    path = tmp_path / "vocab.tsv"
    write_vocabulary(tiny_vocab, path)
    path.write_text(path.read_text().replace("\na\t2\n", "\na\t3\n", 1))
    problem = "vocabulary N=32 but its counts sum to 33"
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {problem}')}$"):
        read_vocabulary(path)


def test_vocabulary_file_deterministic(tmp_path, tiny_vocab):
    write_vocabulary(tiny_vocab, tmp_path / "v1.tsv")
    write_vocabulary(tiny_vocab, tmp_path / "v2.tsv")
    assert (tmp_path / "v1.tsv").read_bytes() == (tmp_path / "v2.tsv").read_bytes()


def test_apply_stop_policy_uses_training_frequencies():
    cfg = CorpusConfig(stop_threshold=2)
    train = ingest("busy/JJ busy/JJ busy/JJ word/NN", cfg)
    vocab = build_vocabulary(train, cfg)
    heldout = ingest("busy/JJ word/NN fresh/NN", cfg)
    apply_stop_policy(heldout, vocab)
    flags = {t.surface: t.is_stop for t in heldout}
    assert flags == {"busy": True, "word": False, "fresh": False}


def test_token_surface_must_be_nonempty():
    """An empty surface is refused, by position or keyword; otherwise a
    token is a plain four-slot dataclass whose stop flag the stop policy
    may rewrite, and whose sentence id stays writable too."""
    for args, kwargs in ((("", "NN", 0), {}), ((), {"surface": "", "pos": "NN", "sentence_id": 0})):
        with pytest.raises(ValueError, match="^token surface must be non-empty$"):
            Token(*args, **kwargs)
    tok = Token("a", "NN", 3)
    assert tok.is_stop is False
    assert tok == Token(surface="a", pos="NN", sentence_id=3, is_stop=False)
    assert tok == Token("a", "NN", 3, False)
    assert tok != Token("a", "NN", 3, True)
    assert repr(Token("a/b", "NN", 3, True)) == (
        "Token(surface='a/b', pos='NN', sentence_id=3, is_stop=True)")
    assert not hasattr(tok, "__dict__")
    assert Token.__slots__ == ("surface", "pos", "sentence_id", "is_stop")
    assert [f.name for f in dataclasses.fields(Token)] == ["surface", "pos", "sentence_id",
                                                          "is_stop"]
    tok.is_stop = True
    tok.sentence_id = 7
    assert tok == Token("a", "NN", 7, True)


@pytest.mark.parametrize(
    "fmt, text",
    [("slash", "The/DT task/NN and/CC the/DT task/NN\ntask/NN ./.\n"),
     ("tsv", "The\tDT\ntask\tNN\n\nthe\tDT\ntask\tNN\n")],
)
def test_ingest_keeps_one_string_per_surface_and_tag(fmt, text):
    ts = ingest(text, CorpusConfig(format=fmt))
    assert not any(hasattr(tok, "__dict__") for tok in ts)
    for field in ("surface", "pos"):
        by_text = {}
        for tok in ts:
            value = getattr(tok, field)
            assert by_text.setdefault(value, value) is value
    assert [tok.surface for tok in ts].count("the") == 2
