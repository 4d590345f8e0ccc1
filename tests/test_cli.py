import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from lexchoice import evaluation, network
from lexchoice.choice import (Candidate, CandidateSet, choose, evidence_breakdown,
                              parse_gap_sentence, top_contributors)
from lexchoice.cli import _EVALUATE_SETTINGS, build_parser, main
from lexchoice.cooc import (SignificanceThresholds, WindowConfig, count_pairs, read_pair_counts,
                            write_pair_counts)
from lexchoice.corpus import (CorpusConfig, Vocabulary, apply_stop_policy, build_vocabulary,
                              ingest, ingest_files, read_vocabulary, write_vocabulary)
from lexchoice.network import NetworkCaps, build_network, read_network, write_network
from lexchoice.synthetic import planted_corpus

from conftest import from_pairs, grid_text, surfaces, tagged_sentences_of, tagged_text

FIXTURE = "r/NN a/NN\nr/NN b/NN\na/NN c/NN\n"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_star_counts(base, roots_and_counts, freq, total):
    """Craft a counts artifact directly (vocab.tsv + pairs.tsv)."""
    vocab = Vocabulary(freq, total_tokens=total, stop_threshold=800)
    write_vocabulary(vocab, base / "vocab.tsv")
    counts = from_pairs(
        roots_and_counts, freq=freq, total_tokens=total, half_width=4,
        stop_threshold=800,
    )
    write_pair_counts(counts, base / "pairs.tsv")


@pytest.fixture
def fixture_stats(tmp_path, capsys):
    corpus = tmp_path / "corpus.tag"
    corpus.write_text(
        "\n".join(["r/NN a/NN"] * 20 + ["r/NN b/NN"] * 20 + ["a/NN c/NN"] * 20
                  + ["p/NN q/NN s/NN t/NN u/NN"] * 600)
        + "\n"
    )
    out = tmp_path / "counts"
    code, _, _ = run(
        ["stats", "--corpus", str(corpus), "--window", "4", "--max-freq", "800",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    return tmp_path, out


def test_stats_writes_expected_counts(tmp_path, capsys):
    corpus = tmp_path / "tiny.tag"
    corpus.write_text("x/NN y/NN z/NN\n")
    code, out, _ = run(
        ["stats", "--corpus", str(corpus), "--window", "1", "--out", str(tmp_path / "c")],
        capsys,
    )
    assert code == 0
    assert "N=3" in out and "pairs=2" in out
    pair_lines = [
        line
        for line in (tmp_path / "c" / "pairs.tsv").read_text().splitlines()
        if "\t" in line
    ]
    assert pair_lines == ["x\ty\t1", "y\tz\t1"]


def test_stats_empty_corpus(tmp_path, capsys):
    corpus = tmp_path / "empty.tag"
    corpus.write_text("")
    code, out, _ = run(
        ["stats", "--corpus", str(corpus), "--out", str(tmp_path / "c")], capsys
    )
    assert code == 0
    assert "N=0" in out


def test_stats_rerun_byte_identical(tmp_path, capsys):
    corpus = tmp_path / "tiny.tag"
    corpus.write_text(FIXTURE)
    for name in ("c1", "c2"):
        assert run(["stats", "--corpus", str(corpus), "--out", str(tmp_path / name)], capsys)[0] == 0
    for filename in ("vocab.tsv", "pairs.tsv"):
        assert (tmp_path / "c1" / filename).read_bytes() == (tmp_path / "c2" / filename).read_bytes()


@settings(max_examples=50, deadline=None)
@given(tagged_sentences_of(st.sampled_from(["a", "B", "c", "a/b", "x=y"]), max_sentences=12),
       st.integers(1, 6), st.booleans())
def test_stats_prints_the_pair_rows_it_wrote(sents, k, cross):
    """``pairs=`` is the number of pair rows in ``pairs.tsv``, which is the
    table's pair count."""
    text = tagged_text(sents, "slash")
    ts = ingest(text)
    vocab = build_vocabulary(ts)
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "corpus").write_text(text, encoding="utf-8")
        code, out, _ = run_quietly(["stats", "--corpus", str(Path(tmp) / "corpus"),
                                    f"--window={k}", "--out", str(Path(tmp) / "c")]
                                   + ["--cross-sentences"] * cross)
        lines = (Path(tmp) / "c" / "pairs.tsv").read_text(encoding="utf-8").splitlines()
    pair_rows = sum("\t" in line for line in lines)
    assert pair_rows == len(count_pairs(ts, vocab, WindowConfig(k, cross)).pairs)
    assert (code, out) == (0, f"N={len(ts)} vocabulary={len(vocab.freq)} pairs={pair_rows}\n")


def test_stats_missing_corpus_names_path(tmp_path, capsys):
    code, _, err = run(
        ["stats", "--corpus", str(tmp_path / "nope.tag"), "--out", str(tmp_path / "c")],
        capsys,
    )
    assert code == 1
    assert "nope.tag" in err


def test_stats_malformed_corpus_reports_position(tmp_path, capsys):
    corpus = tmp_path / "bad.tag"
    corpus.write_text("ok/NN broken\n")
    code, _, err = run(
        ["stats", "--corpus", str(corpus), "--out", str(tmp_path / "c")], capsys
    )
    assert code == 1
    assert "line 1" in err and "broken" in err


def test_stats_rejects_tsv_surface_with_space(tmp_path, capsys):
    corpus = tmp_path / "spaced.tsv"
    corpus.write_text("the\tDT\nnew york\tNN\n")
    code, _, err = run(
        ["stats", "--corpus", str(corpus), "--format", "tsv", "--out", str(tmp_path / "c")],
        capsys,
    )
    assert code == 1
    assert err.startswith(f"error: {corpus}: line 2, column 4: ")
    assert not (tmp_path / "c").exists()


def test_build_fixture_network(fixture_stats, capsys):
    tmp_path, counts_dir = fixture_stats
    out = tmp_path / "nets"
    code, stdout, _ = run(
        ["build", "--counts", str(counts_dir), "--root", "r", "--order", "2",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert "r: nodes=4 edges=3" in stdout
    content = (out / "r.net").read_text()
    assert "NODE r 0" in content
    assert "NODE a 1" in content and "NODE b 1" in content
    assert "NODE c 2" in content


def test_build_depth_zero(fixture_stats, capsys):
    tmp_path, counts_dir = fixture_stats
    code, stdout, _ = run(
        ["build", "--counts", str(counts_dir), "--root", "r", "--order", "0",
         "--out", str(tmp_path / "nets0")],
        capsys,
    )
    assert code == 0
    assert "r: nodes=1 edges=0" in stdout


def test_build_unknown_root_continues_others(fixture_stats, capsys):
    tmp_path, counts_dir = fixture_stats
    out = tmp_path / "nets"
    code, stdout, err = run(
        ["build", "--counts", str(counts_dir), "--root", "zzz", "--root", "r",
         "--order", "1", "--out", str(out)],
        capsys,
    )
    assert code == 1
    assert "zzz" in err
    assert (out / "r.net").exists()
    assert "r: nodes=" in stdout


def test_build_truncation_flag(tmp_path, capsys):
    base = tmp_path / "counts"
    base.mkdir()
    freq = {"r": 100, "a": 20, "b": 20, "c": 20, "d": 20, "e": 20, "pad": 9800}
    pairs = {("a", "r"): 20, ("b", "r"): 20, ("c", "r"): 20, ("d", "r"): 20, ("e", "r"): 20}
    write_star_counts(base, pairs, freq, total=10_000)
    out = tmp_path / "nets"
    code, stdout, _ = run(
        ["build", "--counts", str(base), "--root", "r", "--order", "1",
         "--max-nodes", "3", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert "truncated=nodes" in stdout
    assert "TRUNCATED nodes" in (out / "r.net").read_text()


@pytest.fixture
def slash_word_stats(tmp_path, capsys):
    """Counts of a corpus whose words ``../evil`` and ``and/or`` hold slashes."""
    corpus = tmp_path / "slashes.tag"
    corpus.write_text(
        "\n".join(["r/NN ../evil/NN"] * 20 + ["r/NN and/or/CC"] * 20
                   + ["p/NN q/NN s/NN t/NN u/NN"] * 600)
        + "\n"
    )
    out = tmp_path / "counts"
    assert run(["stats", "--corpus", str(corpus), "--out", str(out)], capsys)[0] == 0
    return tmp_path, out


@pytest.mark.parametrize("root", ["../evil", "and/or"])
def test_build_rejects_a_root_with_a_path_separator(slash_word_stats, capsys, root):
    tmp_path, counts_dir = slash_word_stats
    out = tmp_path / "nets"
    code, stdout, err = run(
        ["build", "--counts", str(counts_dir), "--root", "r", "--root", root,
         "--order", "1", "--out", str(out)],
        capsys,
    )
    assert code == 1
    assert stdout == ""
    assert err == (f"error: word {root!r} cannot name a network file: "
                   "it contains a path separator\n")
    assert not out.exists() and not (tmp_path / "evil.net").exists()


@pytest.mark.parametrize("corrupt", [False, True], ids=["valid-table", "corrupt-table"])
def test_build_refuses_a_root_listed_twice_before_reading_the_table(fixture_stats, capsys,
                                                                     corrupt):
    tmp_path, counts_dir = fixture_stats
    if corrupt:
        (counts_dir / "pairs.tsv").write_text("not a pair table\n")
    out = tmp_path / "nets"
    code, stdout, err = run(
        ["build", "--counts", str(counts_dir), "--root", "a", "--root", "r", "--root", "R",
         "--order", "1", "--out", str(out)],
        capsys,
    )
    assert (code, stdout, err) == (1, "", "error: root 'r' is listed twice\n")
    assert not out.exists()


def test_build_checks_its_caps_before_reading_the_table(fixture_stats, capsys):
    tmp_path, counts_dir = fixture_stats
    (counts_dir / "pairs.tsv").write_text("not a pair table\n")
    out = tmp_path / "nets"
    code, stdout, err = run(
        ["build", "--counts", str(counts_dir), "--root", "r", "--max-nodes", "0",
         "--out", str(out)],
        capsys,
    )
    assert (code, stdout, err) == (1, "", "error: caps must allow at least the root node\n")
    assert not out.exists()


def test_build_refuses_a_count_no_stream_can_give(fixture_stats, capsys):
    """b is counted 20 times, so at k = 4 no stream pairs it with r more
    than 2 x 4 x 20 = 160 times: a table claiming 161 is refused at its
    line, one claiming 160 is built."""
    tmp_path, counts_dir = fixture_stats
    pairs = counts_dir / "pairs.tsv"
    text = pairs.read_text(encoding="utf-8")
    line_no = text[:text.index("\nb\tr\t20\n")].count("\n") + 2
    argv = ["build", "--counts", str(counts_dir), "--root", "b", "--out", str(tmp_path / "n")]
    pairs.write_text(text.replace("\nb\tr\t20\n", "\nb\tr\t161\n"), encoding="utf-8")
    assert run(argv, capsys) == (
        1, "", f"error: {pairs}: line {line_no}: count 161 of pair 'b' 'r' is above "
               "2K x min(f) = 160, more than any stream gives\n")
    assert not (tmp_path / "n").exists()
    pairs.write_text(text.replace("\nb\tr\t20\n", "\nb\tr\t160\n"), encoding="utf-8")
    assert run(argv, capsys)[0] == 0


def test_choose_rejects_a_candidate_with_a_path_separator(slash_word_stats, capsys):
    tmp_path, counts_dir = slash_word_stats
    nets = tmp_path / "nets"
    assert run(["build", "--counts", str(counts_dir), "--root", "r", "--out", str(nets)],
               capsys)[0] == 0
    counts = read_pair_counts(counts_dir / "pairs.tsv", read_vocabulary(counts_dir / "vocab.tsv"))
    write_network(build_network("../evil", counts), tmp_path / "evil.net")
    code, stdout, err = run(
        ["choose", "--networks", str(nets), "--candidates", "r,../evil",
         "--sentence", "p/NN ____ q/NN"],
        capsys,
    )
    assert code == 1
    assert stdout == ""
    assert err == ("error: word '../evil' cannot name a network file: "
                   "it contains a path separator\n")


def test_choose_fixture_ranking(fixture_stats, capsys):
    tmp_path, counts_dir = fixture_stats
    nets = tmp_path / "nets"
    assert run(
        ["build", "--counts", str(counts_dir), "--root", "r", "--root", "b",
         "--order", "2", "--out", str(nets)],
        capsys,
    )[0] == 0
    code, stdout, _ = run(
        ["choose", "--networks", str(nets), "--candidates", "r,b",
         "--vocab", str(counts_dir / "vocab.tsv"),
         "--sentence", "c/NN ____ here/RB"],
        capsys,
    )
    assert code == 0
    # c is second-order evidence for r, no evidence for b
    assert stdout.splitlines()[0].startswith("1. r")
    assert "winner: r" in stdout
    assert "baseline fallback" not in stdout


def test_choose_stop_only_sentence_falls_back(fixture_stats, capsys):
    tmp_path, counts_dir = fixture_stats
    nets = tmp_path / "nets"
    assert run(
        ["build", "--counts", str(counts_dir), "--root", "r", "--root", "b",
         "--order", "1", "--out", str(nets)],
        capsys,
    )[0] == 0
    code, stdout, _ = run(
        ["choose", "--networks", str(nets), "--candidates", "r,b",
         "--vocab", str(counts_dir / "vocab.tsv"),
         "--sentence", "1989/CD %/SYM ____ Smith/NNP"],
        capsys,
    )
    assert code == 0
    assert "baseline fallback" in stdout
    # all scores zero; r is the more frequent candidate (40 vs 20)
    assert "winner: r" in stdout


def test_choose_treats_a_frequency_stopped_word_as_no_evidence(fixture_stats, capsys):
    """c, the sentence's only word its tag does not stop, is evidence for r
    under the training F = 800; under a vocabulary whose F = 19 its 20
    occurrences make it a stop word, and the choice falls back. The networks
    are the same but for the F they carry, which must be the vocabulary's."""
    tmp_path, counts_dir = fixture_stats
    nets, low_f_nets = tmp_path / "nets", tmp_path / "low-f-nets"
    assert run(["build", "--counts", str(counts_dir), "--root", "r", "--root", "b",
                "--order", "2", "--out", str(nets)], capsys)[0] == 0
    for root in ("r", "b"):
        net = read_network(nets / f"{root}.net")
        write_network(dataclasses.replace(net, stop_threshold=19), low_f_nets / f"{root}.net")
    low_f = tmp_path / "low-f.tsv"
    low_f.write_text((counts_dir / "vocab.tsv").read_text().replace("\nF=800\n", "\nF=19\n", 1))
    argv = ["choose", "--candidates", "r,b", "--sentence", "c/NN ____ 1989/CD"]
    code, stdout, _ = run(argv + ["--networks", str(nets), "--vocab",
                                  str(counts_dir / "vocab.tsv")], capsys)
    assert code == 0 and "evidence: c=" in stdout and "baseline fallback" not in stdout
    code, stdout, _ = run(argv + ["--networks", str(low_f_nets), "--vocab", str(low_f)], capsys)
    assert code == 0
    assert stdout.splitlines() == ["1. r  total=0.000000", "2. b  total=0.000000",
                                   "winner: r (baseline fallback: most frequent candidate)"]


def test_choose_checks_evidence_window(fixture_stats, capsys):
    tmp_path, counts_dir = fixture_stats
    nets = tmp_path / "nets"
    assert run(["build", "--counts", str(counts_dir), "--root", "r", "--root", "b",
                "--order", "2", "--out", str(nets)], capsys)[0] == 0
    argv = ["choose", "--networks", str(nets), "--candidates", "r,b",
            "--vocab", str(counts_dir / "vocab.tsv"), "--sentence", "c/NN here/RB ____"]
    code, stdout, _ = run(argv + ["--evidence-window", "1"], capsys)
    assert code == 0 and "baseline fallback" in stdout
    code, stdout, _ = run(argv + ["--evidence-window", "2"], capsys)
    assert code == 0 and "baseline fallback" not in stdout
    code, stdout, err = run(argv + ["--evidence-window", "-1"], capsys)
    assert code == 1 and stdout == ""
    assert err.startswith("error: evidence_window must be ") and "-1" in err


def test_choose_refuses_a_negative_top(fixture_stats, capsys):
    tmp_path, counts_dir = fixture_stats
    nets = tmp_path / "nets"
    assert run(["build", "--counts", str(counts_dir), "--root", "r", "--root", "b",
                "--order", "2", "--out", str(nets)], capsys)[0] == 0
    argv = ["choose", "--networks", str(nets), "--candidates", "r,b",
            "--vocab", str(counts_dir / "vocab.tsv"), "--sentence", "c/NN a/NN b/NN ____"]
    code, stdout, _ = run(argv + ["--top", "0"], capsys)
    assert code == 0 and "evidence:" not in stdout and "winner: r" in stdout
    code, stdout, err = run(argv + ["--top", "-1"], capsys)
    assert code == 1 and stdout == ""
    assert err == "error: --top must be a non-negative integer, got -1\n"


def test_choose_refuses_a_missing_vocab_file(fixture_stats, capsys):
    tmp_path, counts_dir = fixture_stats
    nets = tmp_path / "nets"
    assert run(["build", "--counts", str(counts_dir), "--root", "r", "--root", "b",
                "--order", "1", "--out", str(nets)], capsys)[0] == 0
    missing = counts_dir / "vocb.tsv"
    code, stdout, err = run(
        ["choose", "--networks", str(nets), "--candidates", "r,b", "--vocab", str(missing),
         "--sentence", "1989/CD ____"],
        capsys,
    )
    assert code == 1 and stdout == ""
    assert err == f"error: vocabulary file not found: {missing}\n"


def test_choose_refuses_to_run_without_a_vocabulary(fixture_stats, capsys):
    """Without ``--vocab`` and ``<networks>/vocab.tsv`` no frequency is
    known, so ``choose`` names the file it looked for instead of falling
    back on frequencies of 0; with the vocabulary, the fallback is r,
    counted 40 times to b's 20."""
    tmp_path, counts_dir = fixture_stats
    nets = tmp_path / "nets"
    assert run(["build", "--counts", str(counts_dir), "--root", "r", "--root", "b",
                "--order", "1", "--out", str(nets)], capsys)[0] == 0
    argv = ["choose", "--networks", str(nets), "--candidates", "r,b", "--sentence", "zz/NN ____"]
    assert run(argv, capsys) == (
        1, "", f"error: vocabulary file not found: {nets / 'vocab.tsv'}\n")
    (nets / "vocab.tsv").write_bytes((counts_dir / "vocab.tsv").read_bytes())
    code, stdout, _ = run(argv, capsys)
    assert code == 0 and "winner: r (baseline fallback: most frequent candidate)" in stdout


def test_choose_needs_two_candidates(fixture_stats, capsys):
    tmp_path, counts_dir = fixture_stats
    nets = tmp_path / "nets"
    assert run(["build", "--counts", str(counts_dir), "--root", "r", "--out", str(nets)],
               capsys)[0] == 0
    code, stdout, err = run(
        ["choose", "--networks", str(nets), "--candidates", "r", "--sentence", "c/NN ____"],
        capsys,
    )
    assert code == 1 and stdout == ""
    assert err == "error: set 'cli' needs at least two members\n"


def test_choose_takes_a_candidate_holding_a_comma(tmp_path, capsys):
    """``--candidate`` names one word, ',' included; ``--candidates``
    splits on ','. Both add to one list, in command-line order."""
    corpus = tmp_path / "corpus.tag"
    corpus.write_text("\n".join(["r,s/NN a/NN"] * 20 + ["b/NN c/NN"] * 30
                                + ["p/NN q/NN t/NN u/NN"] * 600) + "\n")
    counts, nets = tmp_path / "counts", tmp_path / "nets"
    assert run(["stats", "--corpus", str(corpus), "--out", str(counts)], capsys)[0] == 0
    assert run(["build", "--counts", str(counts), "--root", "r,s", "--root", "b",
                "--out", str(nets)], capsys)[0] == 0
    choose_argv = ["choose", "--networks", str(nets), "--vocab", str(counts / "vocab.tsv"),
                   "--sentence", "a/NN ____"]
    code, stdout, err = run(choose_argv + ["--candidate", "R,S", "--candidates", "b"], capsys)
    assert (code, err) == (0, "")
    lines = stdout.splitlines()
    assert lines[0].startswith("1. r,s  total=") and lines[1].startswith("   evidence: a=")
    assert lines[-1] == "winner: r,s"
    code, stdout, err = run(choose_argv + ["--candidates", "r,s,b"], capsys)
    assert (code, stdout) == (1, "")
    assert err.startswith("error: no network file for candidate 'r'")
    code, stdout, err = run(choose_argv, capsys)
    assert (code, stdout) == (1, "")
    assert err == ("error: choose needs its candidates: --candidates a,b or --candidate a "
                   "--candidate b\n")


def test_choose_refuses_a_repeated_candidate_before_reading_networks(
        fixture_stats, capsys, monkeypatch):
    tmp_path, counts_dir = fixture_stats
    nets = tmp_path / "nets"
    assert run(["build", "--counts", str(counts_dir), "--root", "r", "--root", "b",
                "--out", str(nets)], capsys)[0] == 0
    reads = []
    read_network = network.read_network
    monkeypatch.setattr(network, "read_network",
                        lambda path: reads.append(path) or read_network(path))
    code, stdout, err = run(
        ["choose", "--networks", str(nets), "--candidates", "r,b,R", "--sentence", "c/NN ____"],
        capsys,
    )
    assert (code, stdout) == (1, "")
    assert err == "error: set 'cli': member 'r' is listed twice\n"
    assert reads == []


def test_choose_missing_network_names_candidate(tmp_path, capsys):
    code, _, err = run(
        ["choose", "--networks", str(tmp_path), "--candidates", "x,y",
         "--sentence", "a/NN ____"],
        capsys,
    )
    assert code == 1
    assert "'x'" in err


def test_choose_json_output(fixture_stats, capsys):
    tmp_path, counts_dir = fixture_stats
    nets = tmp_path / "nets"
    run(["build", "--counts", str(counts_dir), "--root", "r", "--root", "b",
         "--order", "2", "--out", str(nets)], capsys)
    code, stdout, _ = run(
        ["choose", "--networks", str(nets), "--candidates", "r,b", "--json",
         "--vocab", str(counts_dir / "vocab.tsv"), "--sentence", "c/NN ____"],
        capsys,
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["winner"] == "r"
    assert payload["ranking"][0]["evidence"][0]["word"] == "c"
    assert payload["ranking"][0]["evidence"][0]["order"] == 2


@pytest.mark.parametrize(
    "table, flags, field",
    [
        ("k10", ["--order", "3", "--t-min", "1.0"], "K 4 vs 10"),
        ("twice", [], "N 16300 vs 32600"),
        ("k4", ["--order", "2"], "ORDER 1 vs 2"),
        ("k4", ["--t-min", "1.0"], "TMIN 2.0 vs 1.0"),
        ("k4", ["--mi-min", "1.5"], "MIMIN 2.0 vs 1.5"),
        ("cross", [], "CROSS 0 vs 1"),
        ("f900", [], "F 800 vs 900"),
    ],
    ids=["window", "tokens", "order", "t-min", "mi-min", "cross-sentences", "stop-threshold"],
)
def test_choose_refuses_candidates_built_differently(tmp_path, capsys, table, flags, field):
    pc = planted_corpus()
    corpora = {"k4": (pc.train_text, ["--window", "4"]), "k10": (pc.train_text, ["--window", "10"]),
               "twice": (pc.train_text * 2, ["--window", "4"]),
               "cross": (pc.train_text, ["--window", "4", "--cross-sentences"]),
               "f900": (pc.train_text, ["--window", "4", "--max-freq", "900"])}
    for name in dict.fromkeys(["k4", table]):
        text, stats_flags = corpora[name]
        (tmp_path / f"{name}.tag").write_text(text)
        assert run(["stats", "--corpus", str(tmp_path / f"{name}.tag"), *stats_flags,
                    "--out", str(tmp_path / name)], capsys)[0] == 0
    nets = tmp_path / "nets"
    assert run(["build", "--counts", str(tmp_path / "k4"), "--root", "widget",
                "--order", "1", "--out", str(nets)], capsys)[0] == 0
    assert run(["build", "--counts", str(tmp_path / table), "--root", "gadget",
                "--order", "1", *flags, "--out", str(nets)], capsys)[0] == 0
    # The check comes before the (here missing) vocabulary is read.
    code, stdout, err = run(
        ["choose", "--networks", str(nets), "--candidates", "widget,gadget",
         "--vocab", str(tmp_path / "missing.tsv"), "--sentence", "factory/NN ____"],
        capsys,
    )
    assert (code, stdout) == (1, "")
    assert err == f"error: candidates 'widget' and 'gadget' were built differently: {field}\n"


def test_choose_refuses_a_vocabulary_from_another_corpus(tmp_path, capsys):
    """A vocabulary whose N is not the networks' N is refused, whether it
    is given by --vocab or found in the networks directory."""
    pc = planted_corpus()
    for name, text in (("once", pc.train_text), ("twice", pc.train_text * 2)):
        (tmp_path / f"{name}.tag").write_text(text)
        assert run(["stats", "--corpus", str(tmp_path / f"{name}.tag"), "--window", "4",
                    "--out", str(tmp_path / name)], capsys)[0] == 0
    nets = tmp_path / "nets"
    assert run(["build", "--counts", str(tmp_path / "once"), "--root", "widget", "--root",
                "gadget", "--order", "1", "--out", str(nets)], capsys)[0] == 0
    choose_argv = ["choose", "--networks", str(nets), "--candidates", "widget,gadget",
                   "--sentence", "factory/NN ____"]
    other = tmp_path / "twice" / "vocab.tsv"
    (nets / "vocab.tsv").write_bytes(other.read_bytes())
    for vocab_path, flags in ((other, ["--vocab", str(other)]), (nets / "vocab.tsv", [])):
        code, stdout, err = run(choose_argv + flags, capsys)
        assert (code, stdout) == (1, "")
        assert err == (f"error: vocabulary {vocab_path} has N=32600 but the networks were "
                       "built with N=16300\n")
    (nets / "vocab.tsv").write_bytes((tmp_path / "once" / "vocab.tsv").read_bytes())
    assert run(choose_argv, capsys)[0] == 0


def test_choose_refuses_a_vocabulary_with_another_stop_threshold(tmp_path, capsys):
    """Networks from an F = 900 table are refused with the same corpus's
    F = 800 vocabulary, and ranked with its F = 900 one."""
    pc = planted_corpus()
    (tmp_path / "train.tag").write_text(pc.train_text)
    for max_freq in ("800", "900"):
        assert run(["stats", "--corpus", str(tmp_path / "train.tag"), "--max-freq", max_freq,
                    "--out", str(tmp_path / max_freq)], capsys)[0] == 0
    nets = tmp_path / "nets"
    assert run(["build", "--counts", str(tmp_path / "900"), "--root", "widget", "--root",
                "gadget", "--order", "1", "--out", str(nets)], capsys)[0] == 0
    assert "F 900\n" in (nets / "widget.net").read_text()
    argv = ["choose", "--networks", str(nets), "--candidates", "widget,gadget",
            "--sentence", "factory/NN ____", "--vocab"]
    other = tmp_path / "800" / "vocab.tsv"
    assert run(argv + [str(other)], capsys) == (
        1, "", f"error: vocabulary {other} has F=800 but the networks were built with F=900\n")
    assert run(argv + [str(tmp_path / "900" / "vocab.tsv")], capsys)[0] == 0


def test_build_refuses_a_table_out_of_the_writers_order(tmp_path, capsys):
    """``build`` reads the table as the writer writes it. The same rows
    shuffled, or with one w1 run split in two, are refused at the first
    line that does not sort after the line before, and no network is written."""
    pc = planted_corpus()
    (tmp_path / "train.tag").write_text(pc.train_text)
    counts = tmp_path / "counts"
    assert run(["stats", "--corpus", str(tmp_path / "train.tag"), "--out", str(counts)],
               capsys)[0] == 0
    pairs = counts / "pairs.tsv"
    lines = pairs.read_text().splitlines()
    header, rows = lines[:4], lines[4:]
    runs = [i for i in range(1, len(rows)) if rows[i].split("\t")[0] == rows[i - 1].split("\t")[0]]
    split = rows[:runs[0]] + rows[runs[0] + 1:] + [rows[runs[0]]]
    shuffled = rows[::2] + rows[1::2]
    roots = ["widget", "gadget", pc.anchor, pc.bridge]
    for name, table, bad in (("writer", rows, None), ("split", split, len(rows) - 1),
                             ("shuffled", shuffled, len(rows[::2]))):
        pairs.write_text("\n".join(header + table) + "\n")
        outcome = run(["build", "--counts", str(counts), "--order", "3",
                       *[f"--root={root}" for root in roots], "--out", str(tmp_path / name)],
                      capsys)
        if bad is None:
            assert outcome[0] == 0 and "edges=0" not in outcome[1]
            continue
        (w1, w2, _), (p1, p2, _) = table[bad].split("\t"), table[bad - 1].split("\t")
        assert outcome == (1, "", f"error: {pairs}: line {len(header) + bad + 1}: pair {w1!r} "
                                  f"{w2!r} does not sort after the pair before it, {p1!r} {p2!r}\n")
        assert not (tmp_path / name).exists()


def test_build_with_a_floor_no_count_reaches_writes_root_only_networks(fixture_stats, capsys):
    """t_min = 1e200 makes the count floor infinite: no pair is kept and
    every network is its root alone."""
    tmp_path, counts_dir = fixture_stats
    out = tmp_path / "nets"
    code, stdout, err = run(["build", "--counts", str(counts_dir), "--root", "r", "--root", "a",
                             "--t-min", "1e200", "--out", str(out)], capsys)
    assert (code, stdout, err) == (0, "r: nodes=1 edges=0\na: nodes=1 edges=0\n", "")
    assert read_network(out / "r.net").depths == {"r": 0}


def run_quietly(argv):
    """``main(argv)`` with its output captured, for use under hypothesis."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# Mostly a few words, so that pairs repeat. Tiny corpora rarely hold a pair
# with t >= 2, so the thresholds stay low and networks often have edges.
repeating_sentences = tagged_sentences_of(
    st.one_of(st.sampled_from(["a", "B", "c", "a/b", "x=y"]), surfaces), max_sentences=16)


@settings(max_examples=100, deadline=None)
@given(repeating_sentences, st.sampled_from(["slash", "tsv"]),
       st.one_of(st.just(800), st.integers(1, 8)), st.one_of(st.just(1), st.integers(1, 12)),
       st.booleans(), st.sampled_from([(0.5, -1.0), (1.0, 0.0), (1.0, 1.0), (1.5, 0.0),
                                       (2.0, -1.0)]),
       st.integers(0, 3), st.integers(1, 3))
def test_stats_build_choose_round_trip(sents, fmt, max_freq, k, cross, thresholds, max_edges,
                                       choose_order):
    """Text the ingesters accept survives stats -> build -> read_network and
    choose: every network read back equals ``build_network`` on the in-memory
    table, a root holding a path separator is refused by name with nothing
    written, and ``choose --json`` equals library ``choose``, each candidate
    named by its own ``--candidate``. A command line cannot carry NUL, so
    roots holding one are not built."""
    text = tagged_text(sents, fmt)
    cfg = CorpusConfig(format=fmt, stop_threshold=max_freq)
    ts = ingest(text, cfg)
    vocab = build_vocabulary(ts, cfg)
    counts = count_pairs(ts, vocab, WindowConfig(k, cross))
    sig = SignificanceThresholds(*thresholds)
    sig_flags = [f"--t-min={sig.t_min}", f"--mi-min={sig.mi_min}"]
    roots = [w for w in vocab.freq if not vocab.is_frequency_stopped(w)]
    named = [w for w in roots if os.sep not in w and "\0" not in w]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "corpus").write_text(text, encoding="utf-8")
        stats = ["stats", "--corpus", str(tmp / "corpus"), f"--format={fmt}", f"--window={k}",
                 f"--max-freq={max_freq}", "--out", str(tmp / "c")]
        assert run_quietly(stats + ["--cross-sentences"] * cross)[0] == 0
        build = ["build", "--counts", str(tmp / "c"), *sig_flags, *[f"--root={w}" for w in named]]
        built = {}
        for order in (1, 2, 3):
            for cap in (None, max_edges):
                out = tmp / f"nets-{order}-{cap}"
                cap_flags = [] if cap is None else [f"--max-edges={cap}"]
                caps = NetworkCaps() if cap is None else NetworkCaps(max_edges=cap)
                if named:
                    assert run_quietly(build + [f"--order={order}", *cap_flags,
                                                "--out", str(out)])[0] == 0
                built[order, cap] = {w: build_network(w, counts, sig, order, caps) for w in named}
                for root in named:
                    net = read_network(out / f"{root}.net")
                    assert net == built[order, cap][root]
                    assert (net.cross_sentences, net.stop_threshold) == (cross, max_freq)

        before = sorted(tmp.rglob("*"))
        for root in roots:
            if os.sep in root:
                assert run_quietly(build + [f"--root={root}", "--out", str(tmp / "refused")]) == (
                    1, "", f"error: word {root!r} cannot name a network file: "
                           "it contains a path separator\n")
        assert sorted(tmp.rglob("*")) == before

        nets = built[choose_order, None]
        pair = sorted(named, key=lambda w: -nets[w].node_count)[:2]
        if len(pair) < 2:
            return
        gap_text = " ".join([f"{w}/{tag}" for w, tag in sents[0]] + ["____"])
        code, stdout, err = run_quietly(
            ["choose", "--networks", str(tmp / f"nets-{choose_order}-None"),
             *[f"--candidate={w}" for w in pair], "--vocab", str(tmp / "c" / "vocab.tsv"),
             f"--sentence={gap_text}", "--json"])
    assert (code, err) == (0, "")
    sentence = parse_gap_sentence(gap_text)
    for tok in sentence.tokens:
        tok.is_stop = tok.is_stop or vocab.is_frequency_stopped(tok.surface)
    ranked = choose(CandidateSet("cli", "", [Candidate(w, nets[w], vocab.freq[w]) for w in pair]),
                    sentence)
    assert json.loads(stdout) == {
        "winner": ranked[0].candidate,
        "baseline_fallback": ranked[0].total == 0.0,
        "ranking": [
            {"candidate": score.candidate, "total": score.total,
             "evidence": [{"word": word, "contribution": value,
                           "order": nets[score.candidate].depths.get(word)}
                          for word, value in top_contributors(
                              evidence_breakdown(nets[score.candidate], sentence))]}
            for score in ranked
        ],
    }


def evaluate_config(tmp_path, **overrides):
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
        "out_dir": str(tmp_path / "report"),
    }
    config.update(overrides)
    path = tmp_path / "eval.json"
    path.write_text(json.dumps(config))
    return path, config


def test_evaluate_refuses_overlapping_corpora(tmp_path, capsys):
    cfg_path, config = evaluate_config(tmp_path)
    config["heldout_corpus"] = config["train_corpus"]
    cfg_path.write_text(json.dumps(config))
    code, _, err = run(["evaluate", "--config", str(cfg_path)], capsys)
    assert code == 1
    assert "overlap" in err


def test_evaluate_planted_grid(tmp_path, capsys):
    cfg_path, config = evaluate_config(tmp_path)
    code, stdout, _ = run(["evaluate", "--config", str(cfg_path)], capsys)
    assert code == 0
    report = (tmp_path / "report" / "report.tsv").read_text()
    lines = report.splitlines()
    labels = [line.split("\t")[0] for line in lines if not line.startswith("#")]
    assert labels == ["set", "size", "baseline", "narrow-1", "narrow-2"]
    narrow2 = next(line for line in lines if line.startswith("narrow-2"))
    assert narrow2.split("\t")[1].startswith("100.0%")
    log = (tmp_path / "report" / "instances.tsv").read_text()
    assert len(log.splitlines()) == 1 + 2 * 40  # header + 2 cells x 40 instances


def test_evaluate_env_var_config(tmp_path, capsys, monkeypatch):
    cfg_path, _ = evaluate_config(tmp_path)
    monkeypatch.setenv("LEXCHOICE_CONFIG", str(cfg_path))
    code, stdout, _ = run(["evaluate"], capsys)
    assert code == 0
    assert "narrow-2" in stdout


def test_evaluate_unknown_candidate_rejected(tmp_path, capsys):
    cfg_path, config = evaluate_config(
        tmp_path, sets=[{"id": "x", "pos": "NN", "members": ["widget", "nonexistent"]}]
    )
    code, _, err = run(["evaluate", "--config", str(cfg_path)], capsys)
    assert code == 1
    assert "nonexistent" in err


def test_evaluate_checks_evidence_window(tmp_path, capsys):
    reports = []
    for value, flags in ((3, []), (None, ["--evidence-window", "3"])):
        cfg_path, _ = evaluate_config(tmp_path, evidence_window=value)
        code, _, _ = run(["evaluate", "--config", str(cfg_path)] + flags, capsys)
        assert code == 0
        reports.append((tmp_path / "report" / "instances.tsv").read_text())
    assert reports[0] == reports[1]
    cfg_path, _ = evaluate_config(tmp_path, out_dir=str(tmp_path / "negative"))
    code, _, err = run(["evaluate", "--config", str(cfg_path), "--evidence-window", "-1"],
                       capsys)
    assert code == 1
    assert err.startswith("error: evidence_window must be ") and "-1" in err
    assert not (tmp_path / "negative").exists()


def test_evaluate_requires_boolean_cross_sentences(tmp_path, capsys):
    cfg_path, _ = evaluate_config(tmp_path, cross_sentences="false")
    code, _, err = run(["evaluate", "--config", str(cfg_path)], capsys)
    assert code == 1
    assert err.startswith("error: ") and "cross_sentences" in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("orders", "12"),
        ("orders", [1, "2"]),
        ("windows", 4),
        ("windows", [4.0]),
        ("windows", [True]),
        ("windows", [4, 10, 4]),
        ("orders", [1, 1]),
        ("max_freq", [800]),
        ("max_freq", "800"),
        ("max_nodes", 1.5),
        ("max_edges", None),
        ("t_min", "2"),
        ("mi_min", [2.0]),
        ("mi_min", False),
        ("evidence_window", "3"),
        ("evidence_window", "three"),
        ("evidence_window", 3.7),
        ("evidence_window", True),
        ("evidence_window", -1),
        ("train_corpus", [1]),
        ("train_corpus", 7),
        ("heldout_corpus", [1]),
        ("heldout_corpus", 7),
        ("out_dir", 5),
        ("out_dir", None),
        ("window", [4]),
        ("order", [1]),
        ("t-min", 2.0),
        ("Sets", []),
    ],
    ids=lambda v: json.dumps(v),
)
def test_evaluate_rejects_mistyped_config_value(tmp_path, capsys, key, value):
    cfg_path, _ = evaluate_config(tmp_path, **{key: value})
    code, _, err = run(["evaluate", "--config", str(cfg_path)], capsys)
    assert code == 1
    if key in ("window", "order", "t-min", "Sets"):
        assert err == f"error: unknown evaluate config key {key!r}\n"
    else:
        assert err.startswith(f"error: {key} must be ")
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("config", [[1, 2], "train.tag", 7], ids=lambda v: json.dumps(v))
def test_evaluate_rejects_a_config_that_is_not_an_object(tmp_path, capsys, config):
    cfg_path = tmp_path / "eval.json"
    cfg_path.write_text(json.dumps(config))
    code, stdout, err = run(["evaluate", "--config", str(cfg_path)], capsys)
    assert (code, stdout) == (1, "")
    assert err == f"error: evaluate config must be a JSON object, got {config!r}\n"


def test_every_evaluate_flag_is_a_setting():
    args = vars(build_parser().parse_args(["evaluate"]))
    flags = args.keys() - {"config", "command", "func"}
    assert flags == {dest for dest, _, _, _ in _EVALUATE_SETTINGS.values()}
    assert all(args[flag] is None for flag in flags)


def test_evaluate_refuses_a_repeated_window_flag(tmp_path, capsys):
    cfg_path, _ = evaluate_config(tmp_path)
    code, _, err = run(["evaluate", "--config", str(cfg_path), "--window", "4", "--window", "4"],
                       capsys)
    assert code == 1
    assert err.startswith("error: windows must be a list of distinct integers, got 4 twice")
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("windows, orders", [([4], []), ([], [1, 2]), ([50], [3])],
                         ids=lambda v: json.dumps(v))
def test_evaluate_refuses_an_empty_grid(tmp_path, capsys, windows, orders):
    cfg_path, _ = evaluate_config(tmp_path, windows=windows, orders=orders)
    code, stdout, err = run(["evaluate", "--config", str(cfg_path)], capsys)
    assert code == 1 and stdout == ""
    assert err.startswith(f"error: windows {windows} and orders {orders} leave no grid cell")
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize(
    "sets, problem",
    [
        ("planted", "sets must be a list"),
        (["planted"], "each set needs"),
        ([{"id": "x", "pos": "NN"}], "each set needs"),
        ([{"id": "x", "members": ["widget", "gadget"]}], "each set needs"),
        ([{"pos": "NN", "members": ["widget", "gadget"]}], "each set needs"),
        ([{"id": "x", "pos": "NN", "members": "widget,gadget"}], "members must be a list"),
        ([{"id": "x", "pos": "NN", "members": ["widget", 7]}], "members must be a list"),
        ([{"id": "x", "pos": ["NN"], "members": ["widget", "gadget"]}], "pos must be a string"),
        ([{"id": ["a"], "pos": "NN", "members": ["widget", "gadget"]}],
         "set id must be a string, got ['a']"),
        ([{"id": "s", "pos": "NN", "members": ["widget", "gadget", "Widget"]}],
         "set 's': member 'widget' is listed twice"),
        ([{"id": "a", "pos": "NN", "members": ["widget", "gadget"]},
          {"id": "a", "pos": "NN", "members": ["gadget", "widget"]}],
         "set ids must be distinct, got 'a' twice"),
        ([{"id": "x", "pos": "NN", "members": ["widget", "gadget"], "name": "x"}],
         "unknown evaluate set key 'name'"),
        ([{"id": "x", "pos": "NN", "members": ["widget", "gadget"], "weight": 1, "gold": "w"}],
         "unknown evaluate set key 'gold'"),
    ],
    ids=lambda v: json.dumps(v),
)
def test_evaluate_rejects_malformed_set(tmp_path, capsys, sets, problem):
    cfg_path, _ = evaluate_config(tmp_path, sets=sets)
    code, _, err = run(["evaluate", "--config", str(cfg_path)], capsys)
    assert code == 1
    assert err.startswith("error: ") and problem in err
    assert not (tmp_path / "report").exists()


def test_evaluate_refuses_a_repeated_member_before_counting(tmp_path, capsys, monkeypatch):
    def no_counting(*args):
        raise AssertionError("count_pairs called")

    monkeypatch.setattr(evaluation, "count_pairs", no_counting)
    cfg_path, _ = evaluate_config(
        tmp_path, sets=[{"id": "s", "pos": "NN", "members": ["widget", "gadget", "Widget"]}]
    )
    code, stdout, err = run(["evaluate", "--config", str(cfg_path)], capsys)
    assert (code, stdout) == (1, "")
    assert err == "error: set 's': member 'widget' is listed twice\n"
    assert not (tmp_path / "report").exists()


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
def test_evaluate_refuses_an_unusable_member_before_counting(tmp_path, capsys, monkeypatch,
                                                             members, max_freq, problem):
    def no_counting(*args):
        raise AssertionError("count_pairs called")

    monkeypatch.setattr(evaluation, "count_pairs", no_counting)
    cfg_path, _ = evaluate_config(
        tmp_path, max_freq=max_freq, sets=[{"id": "planted", "pos": "NN", "members": members}])
    code, stdout, err = run(["evaluate", "--config", str(cfg_path)], capsys)
    assert (code, stdout, err) == (1, "", f"error: {problem}\n")
    assert not (tmp_path / "report").exists()


def config_line(report: str) -> str:
    return next(line for line in report.splitlines() if line.startswith("# config: "))


def test_evaluate_config_line_names_set_window_options(tmp_path, capsys):
    lines = {}
    for name, overrides in (("default", {}), ("window", {"evidence_window": 1}),
                            ("cross", {"cross_sentences": True})):
        cfg_path, _ = evaluate_config(tmp_path, **overrides)
        assert run(["evaluate", "--config", str(cfg_path)], capsys)[0] == 0
        lines[name] = config_line((tmp_path / "report" / "report.tsv").read_text())
    assert "cross_sentences" not in lines["default"]
    assert "evidence_window" not in lines["default"]
    for name, setting in (("window", "evidence_window=1"), ("cross", "cross_sentences=true")):
        assert sorted(lines[name].split()) == sorted(lines["default"].split() + [setting])


@pytest.mark.parametrize(
    "overrides, flags, settings",
    [
        ({}, [], {}),
        ({"t_min": 2.5}, ["--window", "10", "--window", "4", "--order", "2", "--t-min", "3",
                          "--max-nodes", "40"],
         {"windows": [10, 4], "orders": [2], "t_min": 3.0, "max_nodes": 40}),
        ({"cross_sentences": True, "evidence_window": 0, "t_min": 2, "max_edges": 60}, [],
         {"cross_sentences": True, "evidence_window": 0, "t_min": 2.0, "max_edges": 60}),
    ],
    ids=["config", "flags", "cross-sentences"],
)
def test_evaluate_equals_rendered_run_grid(tmp_path, capsys, overrides, flags, settings):
    cfg_path, config = evaluate_config(tmp_path, **overrides)
    assert run(["evaluate", "--config", str(cfg_path)] + flags, capsys)[0] == 0
    want = {"windows": [4], "orders": [1, 2], "t_min": 2.0, "max_nodes": 50_000,
         "max_edges": 500_000, "cross_sentences": False, "evidence_window": None, **settings}
    cfg = CorpusConfig()
    train = ingest_files([config["train_corpus"]], cfg)
    heldout = ingest_files([config["heldout_corpus"]], cfg)
    vocab = build_vocabulary(train, cfg)
    apply_stop_policy(heldout, vocab, cfg)
    set_defs = [evaluation.SetDefinition("planted", "NN", config["sets"][0]["members"])]
    cells = evaluation.run_grid(
        train, vocab, heldout, set_defs, want["windows"], want["orders"],
        SignificanceThresholds(want["t_min"], 2.0),
        NetworkCaps(want["max_nodes"], want["max_edges"]),
        cross_sentences=want["cross_sentences"], evidence_window=want["evidence_window"],
    )
    header = {"train": config["train_corpus"], "heldout": config["heldout_corpus"],
              "format": "slash", "max_freq": 800, "t_min": want["t_min"], "mi_min": 2.0,
              "windows": ",".join(map(str, want["windows"])),
              "orders": ",".join(map(str, want["orders"])),
              "max_nodes": want["max_nodes"], "max_edges": want["max_edges"]}
    if want["cross_sentences"]:
        header.update(cross_sentences="true", evidence_window=0)
    report = (tmp_path / "report" / "report.tsv").read_text()
    assert report == evaluation.render_grid_report(cells, set_defs, header)
    assert ((tmp_path / "report" / "instances.tsv").read_text()
            == evaluation.render_instance_log(cells))
    if want["cross_sentences"]:
        assert config_line(report) == (
            f"# config: cross_sentences=true evidence_window=0 format=slash "
            f"heldout={config['heldout_corpus']} max_edges=60 max_freq=800 max_nodes=50000 "
            f"mi_min=2.0 orders=1,2 t_min=2.0 train={config['train_corpus']} windows=4"
        )


@settings(max_examples=100, deadline=None)
@given(grid_text, grid_text, st.sampled_from(["slash", "tsv"]), st.sampled_from([2, 5, 800]),
       st.booleans(), st.lists(st.sampled_from([1, 2, 4, 10, 50]), min_size=1, max_size=3,
                               unique=True),
       st.lists(st.sampled_from([1, 2, 3]), min_size=1, unique=True),
       st.sampled_from([(0.01, -1.0), (0.5, -1.0), (2.0, 2.0)]),
       st.sampled_from([(50_000, 500_000), (3, 500_000), (50_000, 4)]),
       st.sampled_from([None, 0, 2]), st.data())
def test_evaluate_equals_rendered_run_grid_on_random_text(train_sents, held_sents, fmt, max_freq,
                                                          cross, windows, orders, thresholds,
                                                          caps, evidence_window, data):
    """On the random text and sets that the library grid is checked on,
    given through a config file, CLI ``evaluate`` writes and prints the
    rendered ``run_grid``, or refuses with its error and writes nothing."""
    assume(evaluation.grid_cells(windows, orders))
    cfg = CorpusConfig(format=fmt, stop_threshold=max_freq)
    train_text = tagged_text(train_sents, fmt)
    # The training text ends the held-out text, so most sets occur in it.
    held_text = tagged_text(held_sents + train_sents, fmt)
    train = ingest(train_text, cfg)
    vocab = build_vocabulary(train, cfg)
    held = ingest(held_text, cfg)
    apply_stop_policy(held, vocab)
    roots = sorted(w for w in vocab.freq if not vocab.is_frequency_stopped(w))
    assume(len(roots) >= 2)
    set_defs = [
        evaluation.SetDefinition(
            f"s{i}", data.draw(st.sampled_from(["NN", "VB"])),
            data.draw(st.lists(st.sampled_from(roots), min_size=2, max_size=3, unique=True)))
        for i in range(data.draw(st.integers(1, 3)))
    ]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "train.txt").write_text(train_text, encoding="utf-8")
        (tmp / "heldout.txt").write_text(held_text, encoding="utf-8")
        config = {"train_corpus": str(tmp / "train.txt"), "heldout_corpus": str(tmp / "heldout.txt"),
                  "format": fmt, "max_freq": max_freq, "windows": windows, "orders": orders,
                  "t_min": thresholds[0], "mi_min": thresholds[1], "max_nodes": caps[0],
                  "max_edges": caps[1], "cross_sentences": cross,
                  "evidence_window": evidence_window, "out_dir": str(tmp / "report"),
                  "sets": [{"id": sdef.set_id, "pos": sdef.pos_category,
                            "members": sdef.members} for sdef in set_defs]}
        (tmp / "eval.json").write_text(json.dumps(config), encoding="utf-8")
        code, stdout, err = run_quietly(["evaluate", "--config", str(tmp / "eval.json")])
        try:
            cells = evaluation.run_grid(
                train, vocab, held, set_defs, windows, orders,
                SignificanceThresholds(*thresholds), NetworkCaps(*caps),
                cross_sentences=cross, evidence_window=evidence_window)
        except ValueError as exc:
            assert (code, stdout, err) == (1, "", f"error: {exc}\n")
            assert not (tmp / "report").exists()
            return
        header = {"train": config["train_corpus"], "heldout": config["heldout_corpus"],
                  "format": fmt, "max_freq": max_freq, "t_min": float(thresholds[0]),
                  "mi_min": float(thresholds[1]), "windows": ",".join(map(str, windows)),
                  "orders": ",".join(map(str, orders)), "max_nodes": caps[0],
                  "max_edges": caps[1]}
        if cross:
            header["cross_sentences"] = "true"
        if evidence_window is not None:
            header["evidence_window"] = evidence_window
        report = evaluation.render_grid_report(cells, set_defs, header)
        assert (code, stdout, err) == (0, report, "")
        assert (tmp / "report" / "report.tsv").read_text(encoding="utf-8") == report
        assert ((tmp / "report" / "instances.tsv").read_text(encoding="utf-8")
                == evaluation.render_instance_log(cells))


def test_evaluate_accepts_integer_thresholds(tmp_path, capsys):
    reports = []
    for t_min in (2, 2.0):
        cfg_path, _ = evaluate_config(tmp_path, t_min=t_min, mi_min=t_min)
        code, _, _ = run(["evaluate", "--config", str(cfg_path)], capsys)
        assert code == 0
        reports.append((tmp_path / "report" / "instances.tsv").read_text())
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "flags",
    [["--t-min", "nan"], ["--mi-min", "nan"], ["--t-min", "inf"], ["--mi-min", "inf"],
     ["--t-min", "1e-12"]],
    ids=lambda v: " ".join(v),
)
def test_build_rejects_nan_and_infinite_thresholds(fixture_stats, capsys, flags):
    tmp_path, counts_dir = fixture_stats
    out = tmp_path / "nets"
    code, stdout, err = run(
        ["build", "--counts", str(counts_dir), "--root", "r", "--out", str(out)] + flags,
        capsys,
    )
    assert code == 1 and stdout == ""
    assert err.startswith("error: ") and "t_min" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, flags",
    [({}, ["--t-min", "nan"]), ({"mi_min": math.nan}, []), ({"t_min": math.inf}, []),
     ({"mi_min": math.inf}, []), ({}, ["--mi-min", "inf"]), ({"t_min": 1e-12}, [])],
    ids=["t-min-flag", "mi-min-config", "t-min-config", "mi-min-inf-config", "mi-min-inf-flag",
         "t-min-below-weight-precision-config"],
)
def test_evaluate_rejects_nan_and_infinite_thresholds(tmp_path, capsys, overrides, flags):
    cfg_path, _ = evaluate_config(tmp_path, **overrides)
    code, _, err = run(["evaluate", "--config", str(cfg_path)] + flags, capsys)
    assert code == 1
    assert err.startswith("error: ") and "t_min" in err
    assert not (tmp_path / "report").exists()


def test_build_rejects_a_swapped_pair_row(fixture_stats, capsys):
    tmp_path, counts_dir = fixture_stats
    pairs = counts_dir / "pairs.tsv"
    pairs.write_text(pairs.read_text().replace("\na\tr\t20\n", "\nr\ta\t20\n", 1))
    code, _, err = run(
        ["build", "--counts", str(counts_dir), "--root", "r", "--out", str(tmp_path / "nets")],
        capsys,
    )
    assert code == 1
    assert err == f"error: {pairs}: line 6: pair 'r' 'a' is out of order or a self-pair\n"
    assert not (tmp_path / "nets").exists()


def test_build_rejects_a_zero_window_header(fixture_stats, capsys):
    tmp_path, counts_dir = fixture_stats
    pairs = counts_dir / "pairs.tsv"
    pairs.write_text(pairs.read_text().replace("\nK=4\n", "\nK=0\n", 1))
    code, _, err = run(
        ["build", "--counts", str(counts_dir), "--root", "r", "--out", str(tmp_path / "nets")],
        capsys,
    )
    assert code == 1
    assert err == f"error: {pairs}: line 2: expected 'K=<half-width >= 1>', got 'K=0'\n"
    assert not (tmp_path / "nets").exists()


def test_build_rejects_pairs_counted_with_another_threshold(tmp_path, capsys):
    corpus = tmp_path / "t.tag"
    corpus.write_text(FIXTURE)
    for max_freq, out in (("100", "c100"), ("800", "c800")):
        code, _, _ = run(
            ["stats", "--corpus", str(corpus), "--max-freq", max_freq,
             "--out", str(tmp_path / out)],
            capsys,
        )
        assert code == 0
    (tmp_path / "c800" / "pairs.tsv").write_bytes((tmp_path / "c100" / "pairs.tsv").read_bytes())
    code, _, err = run(
        ["build", "--counts", str(tmp_path / "c800"), "--root", "r",
         "--out", str(tmp_path / "nets")],
        capsys,
    )
    assert code == 1
    assert err.startswith(f"error: {tmp_path / 'c800' / 'pairs.tsv'}: ")
    assert "F=100" in err and "F=800" in err
    assert not (tmp_path / "nets").exists()


def test_evaluate_needs_config(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("LEXCHOICE_CONFIG", raising=False)
    code, _, err = run(["evaluate"], capsys)
    assert code == 1
    assert "train_corpus" in err


def test_console_entry_point(tmp_path):
    corpus = tmp_path / "t.tag"
    corpus.write_text(FIXTURE)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-m", "lexchoice", "stats", "--corpus", str(corpus),
         "--out", str(tmp_path / "c")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert "N=6" in result.stdout
