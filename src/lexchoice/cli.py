"""Command-line front end: count statistics, build networks, fill gaps,
run evaluations.

Subcommands write deterministic, self-describing text artifacts (vocab and
pair-count tables, per-root network files, evaluation reports); identical
inputs and config produce byte-identical outputs. A JSON config file
(--config or the LEXCHOICE_CONFIG env var) supplies defaults that individual
flags override.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import choice, cooc, corpus, evaluation, network
from .ioutil import atomic_write_text

CONFIG_ENV_VAR = "LEXCHOICE_CONFIG"


class CliError(Exception):
    """Fatal command error; the message names the offending path or word."""


def _load_config(path: str | None) -> dict:
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if path is None:
        return {}
    try:
        config = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise CliError(f"evaluate config must be a JSON object, got {config!r}")
    return config


def _is_int(value) -> bool:
    """A JSON integer: bool is an int subclass in Python but not in JSON."""
    return isinstance(value, int) and not isinstance(value, bool)


_PATHS = "a path or a list of paths"
_NUMBER = "a number"
# Each type an evaluate setting may want, named as its error message names it.
# A lone path is made a list before its test.
_TYPE_TESTS = {
    _PATHS: lambda v: isinstance(v, list) and all(isinstance(p, str) for p in v),
    "a path": lambda v: isinstance(v, str),
    "an integer": _is_int,
    "an integer or null": lambda v: v is None or _is_int(v),
    _NUMBER: lambda v: _is_int(v) or isinstance(v, float),
    "a list of integers": lambda v: isinstance(v, list) and all(_is_int(x) for x in v),
    "true or false": lambda v: isinstance(v, bool),
}

# Every evaluate setting: config key -> (flag dest, default, wanted type,
# name on the report's '# config:' line or None). A type of None leaves the
# check to the library class the value goes to.
_EVALUATE_SETTINGS = {
    "train_corpus": ("train", None, _PATHS, "train"),
    "heldout_corpus": ("heldout", None, _PATHS, "heldout"),
    "format": ("format", corpus.CorpusConfig.format, None, "format"),
    "max_freq": ("max_freq", corpus.DEFAULT_STOP_THRESHOLD, "an integer", "max_freq"),
    "windows": ("window", [4, 10, 50], "a list of integers", "windows"),
    "orders": ("order", [1, 2, 3], "a list of integers", "orders"),
    "t_min": ("t_min", cooc.SignificanceThresholds.t_min, _NUMBER, "t_min"),
    "mi_min": ("mi_min", cooc.SignificanceThresholds.mi_min, _NUMBER, "mi_min"),
    "max_nodes": ("max_nodes", network.NetworkCaps.max_nodes, "an integer", "max_nodes"),
    "max_edges": ("max_edges", network.NetworkCaps.max_edges, "an integer", "max_edges"),
    "cross_sentences": ("cross_sentences", cooc.WindowConfig.cross_sentences, "true or false",
                        "cross_sentences"),
    "evidence_window": ("evidence_window", None, "an integer or null", "evidence_window"),
    "out_dir": ("out", "eval-out", "a path", None),
}
_SET_KEYS = {"id", "pos", "members"}


def _read_corpus(paths: list[str], cfg: corpus.CorpusConfig) -> corpus.TokenStream:
    for path in paths:
        if not Path(path).exists():
            raise CliError(f"corpus file not found: {path}")
    return corpus.ingest_files(paths, cfg)


def cmd_stats(args: argparse.Namespace) -> int:
    cfg = corpus.CorpusConfig(format=args.format, stop_threshold=args.max_freq)
    window = cooc.WindowConfig(args.window, args.cross_sentences)
    stream = _read_corpus(args.corpus, cfg)
    vocab = corpus.build_vocabulary(stream, cfg)
    counts = cooc.count_pairs(stream, vocab, window)
    out = Path(args.out)
    corpus.write_vocabulary(vocab, out / "vocab.tsv")
    pairs = cooc.write_pair_counts(counts, out / "pairs.tsv")
    print(f"N={vocab.total_tokens} vocabulary={len(vocab.freq)} pairs={pairs}")
    return 0


def _load_counts(counts_dir: str, thresholds: cooc.SignificanceThresholds) -> cooc.PairCounts:
    base = Path(counts_dir)
    vocab_path = base / "vocab.tsv"
    pairs_path = base / "pairs.tsv"
    for path in (vocab_path, pairs_path):
        if not path.exists():
            raise CliError(f"counts artifact missing: {path}")
    vocab = corpus.read_vocabulary(vocab_path)
    return cooc.read_pair_counts(pairs_path, vocab, thresholds)


def _network_file_name(word: str) -> str:
    """``word.net``, refused when the name would reach into another directory."""
    name = f"{word}.net"
    if os.sep in name or (os.altsep and os.altsep in name):
        raise CliError(f"word {word!r} cannot name a network file: it contains a path separator")
    return name


def cmd_build(args: argparse.Namespace) -> int:
    # Every flag is checked before the table is read.
    names: dict[str, str] = {}
    for root in args.root:
        root = root.lower()
        if root in names:
            raise CliError(f"root {root!r} is listed twice")
        names[root] = _network_file_name(root)
    thresholds = cooc.SignificanceThresholds(args.t_min, args.mi_min)
    network.check_growth(thresholds, args.order)
    caps = network.NetworkCaps(args.max_nodes, args.max_edges)
    counts = _load_counts(args.counts, thresholds)
    out = Path(args.out)
    failed = False
    for root in names:
        try:
            net = network.build_network(root, counts, thresholds, args.order, caps)
        except network.InvalidRootError as exc:
            print(f"error: {exc}", file=sys.stderr)
            failed = True
            continue
        network.write_network(net, out / names[root])
        summary = f"{root}: nodes={net.node_count} edges={net.edge_count}"
        if net.truncated:
            summary += f" truncated={net.truncated}"
        print(summary)
    return 1 if failed else 0


def cmd_choose(args: argparse.Namespace) -> int:
    if args.top < 0:
        raise CliError(f"--top must be a non-negative integer, got {args.top}")
    choice.check_evidence_window(args.evidence_window)
    if not args.candidates:
        raise CliError("choose needs its candidates: --candidates a,b or --candidate a "
                       "--candidate b")
    words = [w.strip().lower() for w in args.candidates if w.strip()]
    choice._check_members("cli", words)
    networks_dir = Path(args.networks)
    nets: dict[str, network.CoocNetwork] = {}
    names = {word: _network_file_name(word) for word in words}
    for word in words:
        path = networks_dir / names[word]
        if not path.exists():
            raise CliError(f"no network file for candidate {word!r}: {path}")
        nets[word] = network.read_network(path)
    # Scores of networks from different tables or settings do not compare.
    built = {w: {"N": n.total_tokens, "K": n.half_width, "CROSS": int(n.cross_sentences),
                 "F": n.stop_threshold, "ORDER": n.max_order, "TMIN": n.thresholds.t_min,
                 "MIMIN": n.thresholds.mi_min} for w, n in nets.items()}
    for word in words[1:]:
        for key, value in built[word].items():
            if value != built[words[0]][key]:
                raise CliError(f"candidates {words[0]!r} and {word!r} were built "
                               f"differently: {key} {built[words[0]][key]} vs {value}")

    # The fallback and the stop rule need the networks' own frequencies and F.
    vocab_path = Path(args.vocab) if args.vocab else networks_dir / "vocab.tsv"
    if not vocab_path.exists():
        raise CliError(f"vocabulary file not found: {vocab_path}")
    vocab = corpus.read_vocabulary(vocab_path)
    first = nets[words[0]]
    for key, have, want in (("N", vocab.total_tokens, first.total_tokens),
                            ("F", vocab.stop_threshold, first.stop_threshold)):
        if have != want:
            raise CliError(f"vocabulary {vocab_path} has {key}={have} but the networks "
                           f"were built with {key}={want}")

    sentence = choice.parse_gap_sentence(args.sentence, args.gap_marker, vocab=vocab)

    cands = choice.CandidateSet(
        set_id="cli",
        pos_category="",
        members=[choice.Candidate(w, nets[w], vocab.freq.get(w, 0)) for w in words],
    )
    ranked = choice.choose(cands, sentence, args.evidence_window)
    fallback = ranked[0].total == 0.0
    # One record per candidate, which both outputs show.
    ranking = []
    for score in ranked:
        net = nets[score.candidate]
        per_word = choice.evidence_breakdown(net, sentence, args.evidence_window)
        ranking.append({"candidate": score.candidate, "total": score.total,
                        "evidence": [{"word": word, "contribution": value,
                                      "order": net.depths.get(word)}
                                     for word, value in choice.top_contributors(per_word,
                                                                                args.top)]})

    if args.json:
        payload = {"winner": ranked[0].candidate, "baseline_fallback": fallback,
                   "ranking": ranking}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    for rank, record in enumerate(ranking, 1):
        print(f"{rank}. {record['candidate']}  total={record['total']:.6f}")
        if record["evidence"]:
            parts = [f"{e['word']}={e['contribution']:.6f}@{e['order']}"
                     for e in record["evidence"]]
            print(f"   evidence: {' '.join(parts)}")
    suffix = " (baseline fallback: most frequent candidate)" if fallback else ""
    print(f"winner: {ranked[0].candidate}{suffix}")
    return 0


def _evaluate_settings(args: argparse.Namespace, config: dict) -> dict:
    """Each setting's flag if given, else its config value or default, type-checked."""
    for key in sorted(config.keys() - _EVALUATE_SETTINGS.keys() - {"sets"}):
        raise CliError(f"unknown evaluate config key {key!r}")
    values = {}
    for key, (dest, default, wanted, _) in _EVALUATE_SETTINGS.items():
        flag = getattr(args, dest)
        value = config.get(key, default) if flag is None else flag
        if wanted == _PATHS and not value:
            raise CliError("evaluate needs train_corpus and heldout_corpus (config or flags)")
        if wanted == _PATHS and isinstance(value, str):
            value = [value]
        if wanted is not None and not _TYPE_TESTS[wanted](value):
            raise CliError(f"{key} must be {wanted}, got {value!r}")
        values[key] = float(value) if wanted == _NUMBER else value
    return values


def _report_config(values: dict) -> dict:
    """The '# config:' line's mapping; a None or False value is left out, 0 is not."""
    header = {}
    for key, (_, _, _, name) in _EVALUATE_SETTINGS.items():
        value = values[key]
        if name is None or value is None or value is False:
            continue
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        header[name] = "true" if value is True else value
    return header


def _set_definitions(raw_sets) -> list[evaluation.SetDefinition]:
    if not raw_sets:
        raise CliError("evaluate config must define candidate sets under 'sets'")
    if not isinstance(raw_sets, list):
        raise CliError(f"sets must be a list, got {raw_sets!r}")
    set_defs = []
    for s in raw_sets:
        if not isinstance(s, dict) or not _SET_KEYS <= s.keys():
            raise CliError(f"each set needs 'id', 'pos' and 'members', got {s!r}")
        for key in sorted(s.keys() - _SET_KEYS):
            raise CliError(f"unknown evaluate set key {key!r}")
        if not isinstance(s["id"], str):
            raise CliError(f"set id must be a string, got {s['id']!r}")
        if not isinstance(s["pos"], str):
            raise CliError(f"set {s['id']!r}: pos must be a string, got {s['pos']!r}")
        members = s["members"]
        if not isinstance(members, list) or not all(isinstance(w, str) for w in members):
            raise CliError(f"set {s['id']!r}: members must be a list of words, got {members!r}")
        set_defs.append(evaluation.SetDefinition(s["id"], s["pos"], members))
    return set_defs


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    values = _evaluate_settings(args, config)
    overlap = {Path(p).resolve() for p in values["train_corpus"]}.intersection(
        Path(p).resolve() for p in values["heldout_corpus"])
    if overlap:
        raise CliError(
            "training and held-out corpora overlap "
            f"({', '.join(str(p) for p in sorted(overlap))}); "
            "evaluation requires disjoint corpora"
        )
    thresholds = cooc.SignificanceThresholds(values["t_min"], values["mi_min"])
    caps = network.NetworkCaps(values["max_nodes"], values["max_edges"])
    set_defs = _set_definitions(config.get("sets"))
    evaluation.check_grid(set_defs, values["windows"], values["orders"], thresholds,
                          values["evidence_window"])

    cfg = corpus.CorpusConfig(format=values["format"], stop_threshold=values["max_freq"])
    train_ts = _read_corpus(values["train_corpus"], cfg)
    heldout_ts = _read_corpus(values["heldout_corpus"], cfg)
    train_vocab = corpus.build_vocabulary(train_ts, cfg)
    corpus.apply_stop_policy(heldout_ts, train_vocab)

    cells = evaluation.run_grid(
        train_ts, train_vocab, heldout_ts, set_defs, values["windows"], values["orders"],
        thresholds, caps, cross_sentences=values["cross_sentences"],
        evidence_window=values["evidence_window"],
    )
    report_text = evaluation.render_grid_report(cells, set_defs, _report_config(values))
    atomic_write_text(Path(values["out_dir"], "report.tsv"), report_text)
    atomic_write_text(Path(values["out_dir"], "instances.tsv"),
                      evaluation.render_instance_log(cells))
    print(report_text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexchoice",
        description="Choose the most typical near-synonym via lexical co-occurrence networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="count a corpus into vocab and pair tables")
    p_stats.add_argument("--corpus", action="append", required=True,
                         help="tagged corpus file (repeatable, concatenated in order)")
    p_stats.add_argument("--format", choices=["slash", "tsv"], default=corpus.CorpusConfig.format)
    p_stats.add_argument("--window", type=int, default=cooc.WindowConfig.half_width,
                         help="half-width k")
    p_stats.add_argument("--cross-sentences", action="store_true")
    p_stats.add_argument("--max-freq", type=int, default=corpus.DEFAULT_STOP_THRESHOLD,
                         help="stop-word frequency threshold F")
    p_stats.add_argument("--out", required=True, help="output directory")
    p_stats.set_defaults(func=cmd_stats)

    p_build = sub.add_parser("build", help="build co-occurrence networks from counts")
    p_build.add_argument("--counts", required=True, help="directory from 'stats'")
    p_build.add_argument("--root", action="append", required=True)
    p_build.add_argument("--order", type=int, default=2, help="maximum relation order D")
    p_build.add_argument("--t-min", type=float, default=cooc.SignificanceThresholds.t_min)
    p_build.add_argument("--mi-min", type=float, default=cooc.SignificanceThresholds.mi_min)
    p_build.add_argument("--max-nodes", type=int, default=network.NetworkCaps.max_nodes)
    p_build.add_argument("--max-edges", type=int, default=network.NetworkCaps.max_edges)
    p_build.add_argument("--out", required=True, help="output directory for .net files")
    p_build.set_defaults(func=cmd_build)

    p_choose = sub.add_parser("choose", help="rank candidates for a gap sentence")
    p_choose.add_argument("--networks", required=True, help="directory of .net files")
    p_choose.add_argument("--candidates", action="extend", type=lambda text: text.split(","),
                          metavar="WORDS", help="comma-separated words")
    p_choose.add_argument("--candidate", dest="candidates", action="append", metavar="WORD",
                          help="one word, which may hold ',' (repeatable)")
    p_choose.add_argument("--sentence", required=True,
                          help="tagged sentence with the gap marker in place")
    p_choose.add_argument("--gap-marker", default=choice.GAP)
    p_choose.add_argument("--vocab", default=None,
                          help="vocab.tsv for training frequencies (default: networks dir)")
    p_choose.add_argument("--evidence-window", type=int, default=None,
                          help="only count evidence within this distance of the gap")
    p_choose.add_argument("--top", type=int, default=5, help="evidence words shown per candidate")
    p_choose.add_argument("--json", action="store_true")
    p_choose.set_defaults(func=cmd_choose)

    p_eval = sub.add_parser("evaluate", help="run the window/order evaluation grid")
    p_eval.add_argument("--config", default=None,
                        help=f"JSON config path (default: ${CONFIG_ENV_VAR})")
    p_eval.add_argument("--train", action="append", help="training corpus file (repeatable)")
    p_eval.add_argument("--heldout", action="append", help="held-out corpus file (repeatable)")
    p_eval.add_argument("--format", choices=["slash", "tsv"], default=None)
    p_eval.add_argument("--window", action="append", type=int,
                        help="window half-width (repeatable, overrides config)")
    p_eval.add_argument("--order", action="append", type=int,
                        help="relation order (repeatable, overrides config)")
    p_eval.add_argument("--t-min", type=float, default=None)
    p_eval.add_argument("--mi-min", type=float, default=None)
    p_eval.add_argument("--max-freq", type=int, default=None)
    p_eval.add_argument("--max-nodes", type=int, default=None)
    p_eval.add_argument("--max-edges", type=int, default=None)
    p_eval.add_argument("--cross-sentences", action="store_true", default=None)
    p_eval.add_argument("--evidence-window", type=int, default=None)
    p_eval.add_argument("--out", default=None, help="report output directory")
    p_eval.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, corpus.CorpusFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
