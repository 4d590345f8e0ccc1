"""The artifact line rules shared by ``vocab.tsv`` and ``.net``: the readers
against whole-text references, and the forms their writers never write."""

import dataclasses
import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lexchoice.cli import main
from lexchoice.cooc import SignificanceThresholds, read_pair_counts, write_pair_counts
from lexchoice.corpus import Vocabulary, read_vocabulary, write_vocabulary
from lexchoice.network import build_network, read_network, write_network

from conftest import significant_counts
from oracles import (random_layered_network, reference_read_network, reference_read_pair_counts,
                     reference_read_vocabulary)

MUTATIONS = ["cr", "vt", "eol", "swap", "count", "header", "byte"]


def outcome(reader, path: Path):
    """What ``reader`` makes of ``path``: what it read, or the line it
    refuses (None when it refuses the file as a whole)."""
    try:
        return "read", reader(path)
    except ValueError as exc:
        found = re.match(rf"{re.escape(str(path))}: line (\d+): ", str(exc))
        return "refused", found and int(found.group(1))


def mutate(draw, lines: list[str], rows: list[int], sep: str, first: int,
           headers: list[int]) -> bytes:
    """The lines, each ending in \\n, with one of ``MUTATIONS`` applied.
    ``rows`` are the indices of the lines that may be swapped or have a
    word or number changed; such a line's fields are split at ``sep``, and
    its words are those from index ``first`` up to the number that ends it.
    ``headers`` are the indices of the header lines whose value is an
    integer, which may gain a ``+`` or ``0`` before it as "count" gives one
    to the number that ends a row."""
    kind = draw(st.sampled_from(MUTATIONS))
    i = draw(st.sampled_from(rows))
    fields = lines[i][:-1].split(sep)
    if kind == "cr":
        lines[i] = lines[i][:-1] + "\r\n"
    elif kind == "vt":
        f = draw(st.integers(first, len(fields) - 2))
        at = draw(st.integers(0, len(fields[f])))
        fields[f] = fields[f][:at] + "\x0b" + fields[f][at:]
        lines[i] = sep.join(fields) + "\n"
    elif kind == "eol":
        lines[-1] = lines[-1][:-1]
    elif kind == "swap":
        j = draw(st.sampled_from([j for j in rows if j != i]))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "count":
        fields[-1] = draw(st.sampled_from(["+", "0"])) + fields[-1]
        lines[i] = sep.join(fields) + "\n"
    elif kind == "header":
        i = draw(st.sampled_from(headers))
        key = re.match("[A-Z]+[= ]", lines[i]).end()
        lines[i] = lines[i][:key] + draw(st.sampled_from(["+", "0"])) + lines[i][key:]
    else:
        at = draw(st.integers(0, len(lines[i]) - 1))
        lines[i] = lines[i][:at] + "\udce9" + lines[i][at:]
    return "".join(lines).encode("utf-8", "surrogateescape")


WORDS = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Z")), min_size=1, max_size=5)


@st.composite
def vocabularies(draw):
    freq = draw(st.dictionaries(WORDS, st.integers(1, 40), min_size=2, max_size=6))
    return Vocabulary(freq, sum(freq.values()), draw(st.sampled_from([1, 7, 800])))


@settings(max_examples=300, deadline=None)
@given(vocabularies(), st.data())
def test_read_vocabulary_agrees_with_the_whole_text_reference(vocab, data):
    """On the writer's table the reader, the reference and the vocabulary
    agree; on the table with one line mutated, the reader and the
    reference refuse it at the same line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vocab.tsv"
        write_vocabulary(vocab, path)
        assert read_vocabulary(path) == reference_read_vocabulary(path) == vocab
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_bytes(mutate(data.draw, lines, list(range(2, len(lines))), "\t", 0, [0, 1]))
        got = outcome(read_vocabulary, path)
        assert got == outcome(reference_read_vocabulary, path)
        assert got[0] == "refused" and got[1] is not None


@st.composite
def networks(draw):
    net = random_layered_network(random.Random(draw(st.integers(0, 10**6))))
    return dataclasses.replace(
        net, thresholds=draw(st.sampled_from([None, SignificanceThresholds(2.0, 1.5)])),
        truncated=draw(st.sampled_from([None, "nodes", "nodes,edges"])),
        cross_sentences=draw(st.booleans()), stop_threshold=draw(st.sampled_from([800, 9])))


@settings(max_examples=300, deadline=None)
@given(networks(), st.data())
def test_read_network_agrees_with_the_whole_text_reference(net, data):
    """On the writer's file the reader, the reference and the network
    agree; on the file with one line mutated, both read the same network
    or both refuse it at the same line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w0.net"
        write_network(net, path)
        assert read_network(path) == reference_read_network(path) == net
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        rows = [i for i, line in enumerate(lines) if line.startswith(("NODE ", "EDGE "))]
        numbers = [i for i, line in enumerate(lines)
                   if line.startswith(("ORDER ", "N ", "K ", "F ", "TMIN ", "MIMIN "))]
        path.write_bytes(mutate(data.draw, lines, rows, " ", 1, numbers))
        assert outcome(read_network, path) == outcome(reference_read_network, path)


def counts_dir(tmp_path: Path) -> Path:
    """A ``stats`` output directory whose table makes ``a`` and ``b`` collocates."""
    counts = significant_counts([("a", "b")])
    write_vocabulary(counts.vocab, tmp_path / "c" / "vocab.tsv")
    write_pair_counts(counts, tmp_path / "c" / "pairs.tsv")
    return tmp_path / "c"


# Forms ``write_vocabulary`` never writes, each on the line named, which the
# reader once took: the first four until it read its lines through
# ``ArtifactLines``, the integer headers until it read them as ``str(n)``.
VOCAB_FORMS = {
    "spaced-N": (lambda text: text.replace("N=10000\n", "N= 10000\n"), 1,
                 "expected 'N=<tokens>', got 'N= 10000'"),
    "plus-F": (lambda text: text.replace("\nF=800\n", "\nF=+800\n"), 2,
               "expected 'F=<threshold>', got 'F=+800'"),
    "crlf": (lambda text: text.replace("\n", "\r\n"), 1,
             "'N=10000\\r' holds a line break other than \\n"),
    "plus-count": (lambda text: text.replace("\nb\t50\n", "\nb\t+50\n"), 5,
                   "expected 'word<TAB>count, count >= 1', got 'b\\t+50'"),
    "trailing-space": (lambda text: text.replace("\nb\t50\n", "\nb\t50 \n"), 5,
                       "expected 'word<TAB>count, count >= 1', got 'b\\t50 '"),
    "no-last-line-end": (lambda text: text[:-1], 5, "'b\\t50' does not end in \\n"),
}


@pytest.mark.parametrize("form", VOCAB_FORMS)
def test_build_refuses_a_vocabulary_its_writer_never_writes(tmp_path, capsys, form):
    counts = counts_dir(tmp_path)
    vocab = counts / "vocab.tsv"
    text = vocab.read_text(encoding="utf-8")
    change, line, problem = VOCAB_FORMS[form]
    assert change(text) != text and text.count("\n") == 5
    vocab.write_bytes(change(text).encode("utf-8"))
    assert main(["build", "--counts", str(counts), "--root", "a", "--out",
                 str(tmp_path / "n")]) == 1
    assert capsys.readouterr().err == f"error: {vocab}: line {line}: {problem}\n"
    assert not (tmp_path / "n").exists()


# Integer header values that ``write_pair_counts`` never writes, each on
# the line named, which the reader took until it read them as ``str(n)``.
PAIR_FORMS = {
    "plus-K": ("\nK=4\n", "\nK=+4\n", 2, "expected 'K=<half-width >= 1>', got 'K=+4'"),
    "spaced-N": ("N=10000\n", "N= 10000\n", 1, "expected 'N=<tokens>', got 'N= 10000'"),
    "zero-prefixed-F": ("\nF=800\n", "\nF=0800\n", 3,
                        "expected 'F=<threshold >= 1>', got 'F=0800'"),
}


@pytest.mark.parametrize("form", PAIR_FORMS)
def test_build_refuses_a_pair_table_its_writer_never_writes(tmp_path, capsys, form):
    counts = counts_dir(tmp_path)
    pairs = counts / "pairs.tsv"
    text = pairs.read_text(encoding="utf-8")
    old, new, line, problem = PAIR_FORMS[form]
    assert text.count(old) == 1
    pairs.write_bytes(text.replace(old, new).encode("utf-8"))
    assert main(["build", "--counts", str(counts), "--root", "a", "--out",
                 str(tmp_path / "n")]) == 1
    assert capsys.readouterr().err == f"error: {pairs}: line {line}: {problem}\n"
    assert not (tmp_path / "n").exists()


# Forms ``write_network`` never writes, each on the line named: line breaks
# other than \n, integers not written as ``str(n)``, thresholds not written
# as ``str(x)``, and a malformed line before a line break other than \n,
# where the first faulty line is named.
NET_FORMS = {
    "crlf": (lambda text: text.replace("\n", "\r\n"), 1,
             "'ROOT b\\r' holds a line break other than \\n"),
    "vertical-tab-after-a-weight": (lambda text: text[:-1] + "\x0b\n", 9,
                                    "'EDGE a b 4.024922\\x0b' holds a line break other than \\n"),
    "zero-prefixed-ORDER": (lambda text: text.replace("\nORDER 1\n", "\nORDER 01\n"), 2,
                            "expected 'ORDER <order>', got 'ORDER 01'"),
    "plus-depth": (lambda text: text.replace("\nNODE a 1\n", "\nNODE a +1\n"), 8,
                   "malformed NODE line 'NODE a +1'"),
    "underscored-depth": (lambda text: text.replace("\nNODE a 1\n", "\nNODE a 1_0\n"), 8,
                          "malformed NODE line 'NODE a 1_0'"),
    "plus-TMIN": (lambda text: text.replace("\nTMIN 2.0\n", "\nTMIN +2.0\n"), 5,
                  "expected 'TMIN <t_min>', got 'TMIN +2.0'"),
    "underscored-MIMIN": (lambda text: text.replace("\nMIMIN 2.0\n", "\nMIMIN 2_0\n"), 6,
                          "expected 'MIMIN <mi_min>', got 'MIMIN 2_0'"),
    "malformed-before-carriage-return": (
        lambda text: text.replace("\nNODE a 1\n", "\nNODE b x\nNODE c 1\r\n"), 8,
        "malformed NODE line 'NODE b x'"),
    "malformed-before-vertical-tab": (
        lambda text: text.replace("\nNODE a 1\n", "\nNODE b x\nNODE c\x0b1\n"), 8,
        "malformed NODE line 'NODE b x'"),
}


@pytest.mark.parametrize("form", NET_FORMS)
def test_choose_refuses_a_network_its_writer_never_writes(tmp_path, capsys, form):
    nets = tmp_path / "nets"
    for word in ("a", "b"):
        write_network(build_network(word, significant_counts([("a", "b")]), max_order=1),
                      nets / f"{word}.net")
    net = nets / "b.net"
    text = net.read_text(encoding="utf-8")
    change, line, problem = NET_FORMS[form]
    assert text.count("\n") == 9
    net.write_bytes(change(text).encode("utf-8"))
    assert main(["choose", "--networks", str(nets), "--candidates", "a,b",
                 "--sentence", "x/NN ____"]) == 1
    assert capsys.readouterr().err == f"error: {net}: line {line}: {problem}\n"


# Words and pairs enough for tables longer than one 64 KB chunk.
BIG_WORDS = [f"w{i:05}" for i in range(9000)]
BIG_VOCAB = Vocabulary(dict.fromkeys(BIG_WORDS, 10), 90000, 800)
CHUNK_FAULTS = ["byte", "crlf", "vt", "order"]


def big_table_lines(table: str) -> list[str]:
    """The lines of a large ``vocab.tsv`` or ``pairs.tsv`` over ``BIG_VOCAB``
    as the writers write them, each ending in \\n."""
    if table == "vocab":
        return ["N=90000\n", "F=800\n"] + [f"{w}\t10\n" for w in BIG_WORDS]
    return ["N=90000\n", "K=4\n"] + [f"{a}\t{b}\t3\n" for i, a in enumerate(BIG_WORDS)
                                     for b in BIG_WORDS[i + 1:i + 3]]


@pytest.mark.parametrize("fault", CHUNK_FAULTS)
@pytest.mark.parametrize("table", ["vocab", "pairs"])
def test_a_fault_in_the_second_chunk_of_a_large_table_is_refused_at_its_line(
        tmp_path, table, fault):
    """A table longer than one 64 KB chunk is read across the chunk bounds:
    unfaulted, it reads as it was written; with one fault in its second
    chunk (an undecodable byte, a \\r\\n line end, a \\x0b inside a word or
    a line out of order), it is refused at that file line."""
    lines = big_table_lines(table)
    path = tmp_path / f"{table}.tsv"
    reader = (read_vocabulary if table == "vocab"
              else lambda path: read_pair_counts(path, BIG_VOCAB))
    path.write_text("".join(lines), encoding="utf-8")
    assert path.stat().st_size > 70000 > 1 << 16
    if table == "vocab":
        assert reader(path) == BIG_VOCAB
    else:
        assert reader(path).rows == reference_read_pair_counts(path, BIG_VOCAB).rows
    i = next(i for i in range(len(lines)) if len("".join(lines[:i]).encode()) > 70000)
    if fault == "byte":
        data = "".join(lines).encode()
        at = len("".join(lines[:i]).encode()) + 2
        path.write_bytes(data[:at] + b"\xe9" + data[at + 1:])
        problem = "byte 0xe9 does not decode as UTF-8 (invalid continuation byte)"
    else:
        if fault == "crlf":
            lines[i] = lines[i][:-1] + "\r\n"
        elif fault == "vt":
            lines[i] = lines[i][:2] + "\x0b" + lines[i][2:]
        else:
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
            i += 1
        path.write_text("".join(lines), encoding="utf-8")
        problem = f"{lines[i][:-1]!r} holds a line break other than \\n"
    if fault == "order":
        *words, _ = lines[i][:-1].split("\t")
        *before, _ = lines[i - 1][:-1].split("\t")
        kind = "word" if table == "vocab" else "pair"
        problem = (f"{kind} {' '.join(map(repr, words))} does not sort after the "
                   f"{kind} before it, {' '.join(map(repr, before))}")
    with pytest.raises(ValueError) as refused:
        reader(path)
    assert str(refused.value) == f"{path}: line {i + 1}: {problem}"
