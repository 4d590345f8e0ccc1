"""Every reader refuses bytes that do not decode as UTF-8, naming the file and line."""

import json
import re

import pytest

from lexchoice.cli import main
from lexchoice.cooc import read_pair_counts
from lexchoice.corpus import (CorpusConfig, CorpusFormatError, Vocabulary, ingest_files,
                              read_vocabulary, write_vocabulary)
from lexchoice.network import build_network, read_network, write_network

from conftest import significant_counts
from oracles import reference_write_pair_counts

BAD_BYTE = "byte 0xe9 does not decode as UTF-8 (invalid continuation byte)"


def append_bad_line(path, line: bytes) -> int:
    """Append ``line`` to the file and return its 1-based line number."""
    data = path.read_bytes()
    path.write_bytes(data + line + b"\n")
    return data.count(b"\n") + 1


@pytest.mark.parametrize("fmt, data, line, column", [
    ("slash", b"good/NN\nok/NN b\xe9d/NN\n", 2, 8),
    ("slash", b"a/NN\r\n\r\nb/NN \xe9x/NN\n", 3, 6),
    ("tsv", b"a\tNN\n\nb\xe9\tNN\n", 3, 2),
])
def test_ingest_files_names_the_path_line_and_column(tmp_path, fmt, data, line, column):
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    good.write_bytes(b"x/NN\n" if fmt == "slash" else b"x\tNN\n")
    bad.write_bytes(data)
    with pytest.raises(CorpusFormatError) as excinfo:
        ingest_files([good, bad], CorpusConfig(format=fmt))
    assert str(excinfo.value) == f"{bad}: line {line}, column {column}: {BAD_BYTE}"
    assert (excinfo.value.line, excinfo.value.column) == (line, column)


def test_read_vocabulary_names_the_line(tmp_path):
    path = tmp_path / "vocab.tsv"
    write_vocabulary(Vocabulary({"a": 1, "b": 2}, 3, 800), path)
    line = append_bad_line(path, b"caf\xe9\t1")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line {line}: {BAD_BYTE}')}$"):
        read_vocabulary(path)


def test_read_pair_counts_names_the_line(tmp_path):
    counts = significant_counts([("a", "b"), ("b", "c")])
    path = tmp_path / "pairs.tsv"
    reference_write_pair_counts(counts, path)
    line = append_bad_line(path, b"a\t\xe9x\t3")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line {line}: {BAD_BYTE}')}$"):
        read_pair_counts(path, counts.vocab)


@pytest.mark.parametrize("good_rows", [1, 3000])
def test_read_pair_counts_names_the_line_of_a_bad_byte_among_the_pairs(tmp_path, good_rows):
    """A bad byte after the first pair row, or after thousands of rows in
    the writer's order, is named at its line."""
    words = [f"w{i:03}" for i in range(100)]
    rows = [f"{a}\t{b}\t3\n".encode() for i, a in enumerate(words) for b in words[i + 1:]]
    path = tmp_path / "pairs.tsv"
    path.write_bytes(b"N=5000\nK=4\n" + b"".join(rows[:good_rows]) + b"w099\t\xe9x\t3\n")
    line = 2 + good_rows + 1
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line {line}: {BAD_BYTE}')}$"):
        read_pair_counts(path, Vocabulary(dict.fromkeys(words, 50), 5000, 800))


@pytest.mark.parametrize("data, line, problem", [
    (b"N=5\x0bK=4\nK=4\na\t\xe9\t3\n", 1, "'N=5\\x0bK=4' holds a line break other than \\n"),
    (b"N=5\nK=4\nb\ta\t3\na\t\xe9\t3\n", 3, "pair 'b' 'a' is out of order or a self-pair"),
])
def test_read_pair_counts_refuses_a_fault_before_a_bad_byte_at_its_line(tmp_path, data, line,
                                                                         problem):
    """Lines are counted at \\n only, and the first faulty line wins over a
    bad byte on a later one."""
    path = tmp_path / "pairs.tsv"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line {line}: {problem}')}$"):
        read_pair_counts(path, Vocabulary({"a": 2, "b": 3}, 5, 800))


def test_read_network_names_the_line(tmp_path):
    net = build_network("a", significant_counts([("a", "b")]), max_order=1)
    path = tmp_path / "a.net"
    write_network(net, path)
    line = append_bad_line(path, b"NODE \xe9x 1")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line {line}: {BAD_BYTE}')}$"):
        read_network(path)


def test_the_cli_names_the_file_and_line_of_undecodable_input(tmp_path, capsys):
    corpus = tmp_path / "bad.tag"
    corpus.write_bytes(b"r/NN a/NN\nr/NN b\xe9/NN\n")
    assert main(["stats", "--corpus", str(corpus), "--out", str(tmp_path / "c")]) == 1
    assert capsys.readouterr().err == f"error: {corpus}: line 2, column 7: {BAD_BYTE}\n"

    corpus.write_bytes(b"r/NN a/NN\nr/NN b/NN\n")
    assert main(["stats", "--corpus", str(corpus), "--out", str(tmp_path / "c")]) == 0
    vocab = tmp_path / "c" / "vocab.tsv"
    line = append_bad_line(vocab, b"\xe9\t1")
    capsys.readouterr()
    assert main(["build", "--counts", str(tmp_path / "c"), "--root", "r",
                 "--out", str(tmp_path / "n")]) == 1
    assert capsys.readouterr().err == f"error: {vocab}: line {line}: {BAD_BYTE}\n"

    nets = tmp_path / "nets"
    for word in ("a", "b"):
        write_network(build_network(word, significant_counts([("a", "b")]), max_order=1),
                      nets / f"{word}.net")
    line = append_bad_line(nets / "b.net", b"NODE \xe9x 1")
    assert main(["choose", "--networks", str(nets), "--candidates", "a,b",
                 "--sentence", "x/NN ____"]) == 1
    assert capsys.readouterr().err == f"error: {nets / 'b.net'}: line {line}: {BAD_BYTE}\n"


def test_evaluate_names_an_undecodable_config(tmp_path, capsys):
    config = tmp_path / "eval.json"
    config.write_bytes(json.dumps({"sets": []}).encode() + b"\xe9")
    assert main(["evaluate", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config {config}: ")
    assert "0xe9" in err
