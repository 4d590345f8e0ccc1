"""Independent reference implementations used to cross-check the library.

These deliberately recompute results by enumeration rather than reusing the
library's streaming/DP code paths.
"""

from __future__ import annotations

import dataclasses
import math
import random
import re
from collections import Counter
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import Iterable

from lexchoice.choice import Candidate, CandidateSet, ChoiceScore, GapSentence
from lexchoice.cooc import (
    PairCounts,
    SignificanceThresholds,
    WindowConfig,
    _Occurrences,
    count_pairs,
)
from lexchoice.corpus import (
    DEFAULT_STOP_TAGS,
    GAP,
    CorpusConfig,
    CorpusFormatError,
    Token,
    TokenStream,
    Vocabulary,
    build_vocabulary,
)
from lexchoice.evaluation import (
    CellResult,
    GapInstance,
    SetDefinition,
    coarse_category,
    grid_cells,
    judge_instances,
    summarize,
)
from lexchoice.ioutil import atomic_write_text
from lexchoice.network import CoocNetwork, NetworkCaps, build_network, significance

from conftest import pair_key


def quadratic_pair_counts(ts: TokenStream | list[Token], k: int,
                          cross_sentences: bool = False) -> dict:
    """All index pairs i < j, checked one by one."""
    counts: Counter = Counter()
    ts = list(ts)
    n = len(ts)
    for i in range(n):
        for j in range(i + 1, n):
            if j - i > k:
                continue
            a, b = ts[i], ts[j]
            if not cross_sentences and a.sentence_id != b.sentence_id:
                continue
            if a.is_stop or b.is_stop or a.surface == b.surface:
                continue
            counts[pair_key(a.surface, b.surface)] += 1
    return dict(counts)


def forward_pair_counts(ts: TokenStream | list[Token], k: int,
                        cross_sentences: bool = False) -> dict:
    """Forward-window enumeration (the library pairs backward)."""
    counts: Counter = Counter()
    ts = list(ts)
    n = len(ts)
    for i in range(n):
        a = ts[i]
        if a.is_stop:
            continue
        for j in range(i + 1, min(n, i + k + 1)):
            b = ts[j]
            if not cross_sentences and a.sentence_id != b.sentence_id:
                continue
            if b.is_stop or b.surface == a.surface:
                continue
            counts[pair_key(a.surface, b.surface)] += 1
    return dict(counts)


def pair_statistics(f_xy: int, f_x: int, f_y: int, total: int, k: int) -> tuple[float, float]:
    """The t-score and mutual information (bits) of a pair seen ``f_xy`` >= 1
    times, against E = f_x * f_y * 2k / N: one exact integer product, then
    one division, as in the library."""
    expected = f_x * f_y * 2 * k / total
    return (f_xy - expected) / math.sqrt(f_xy), math.log2(f_xy / expected)


def unfloored_significant_neighbors(
    counts: PairCounts, word: str, thresholds: SignificanceThresholds
) -> list[tuple[str, float]]:
    """A word's significant neighbours with no count floor: every row entry
    sorted and scored by ``pair_statistics``."""
    freq = counts.vocab.freq
    row = []
    for other, f_xy in sorted(counts.rows.get(word, {}).items()):
        t, mi = pair_statistics(f_xy, freq[word], freq[other], counts.vocab.total_tokens,
                                counts.half_width)
        if t >= thresholds.t_min and mi >= thresholds.mi_min:
            row.append((other, t))
    return row


def sorted_key_pair_table_text(counts) -> str:
    """The pair-table file as ``write_pair_counts`` writes it, from the
    pair keys sorted as tuples."""
    lines = [
        f"N={counts.vocab.total_tokens}",
        f"K={counts.half_width}",
        f"F={counts.vocab.stop_threshold}",
        f"CROSS={int(counts.cross_sentences)}",
    ]
    for (w1, w2) in sorted(counts.pairs):
        lines.append(f"{w1}\t{w2}\t{counts.pairs[(w1, w2)]}")
    return "\n".join(lines) + "\n"


def reference_write_pair_counts(counts: PairCounts, path: str | Path) -> int:
    """``write_pair_counts`` as one generator per word: each word's upper
    half sorted from a generator and its lines added by ``list.extend``."""
    lines = [
        f"N={counts.vocab.total_tokens}",
        f"K={counts.half_width}",
        f"F={counts.vocab.stop_threshold}",
        f"CROSS={int(counts.cross_sentences)}",
    ]
    header = len(lines)
    rows = counts.rows
    for w1 in sorted(rows):
        row = rows[w1]
        lines.extend(f"{w1}\t{w2}\t{row[w2]}" for w2 in sorted(w2 for w2 in row if w1 < w2))
    atomic_write_text(path, "\n".join(lines) + "\n")
    return len(lines) - header


# An integer as the writers write it: digits, no leading zero, and a minus
# sign only before a number other than 0.
WRITTEN_INT = "0|-?[1-9][0-9]*"


def written_int(text: str) -> int:
    """``text`` as an integer if it matches ``WRITTEN_INT``, else ValueError."""
    if re.fullmatch(WRITTEN_INT, text) is None:
        raise ValueError(text)
    return int(text)


# What each pair-table header key's integer value means, and the test its
# number and its text must pass, once the text matches ``WRITTEN_INT``.
PAIR_HEADER_RULES = {"N": ("tokens", lambda n, text: True),
                     "K": ("half-width >= 1", lambda n, text: n >= 1),
                     "F": ("threshold >= 1", lambda n, text: n >= 1),
                     "CROSS": ("0 or 1", lambda n, text: text in ("0", "1"))}


def reference_read_pair_counts(path: str | Path, vocab: Vocabulary,
                               floor: float = 0.0) -> PairCounts:
    """``read_pair_counts`` as one checking loop over the whole text, split
    at \\n only, keeping every pair: header lines, then each pair line as
    the writer writes it and sorting after the pair line before it. A count
    at or above ``floor`` is refused above 2K times the lower of its words'
    frequencies, unless the header is refused after the loop."""
    path = Path(path)
    header: dict[str, int] = {}
    rows: dict[str, dict[str, int]] = {}
    keys = {word: word for word in vocab.freq}
    before = None  # the last pair line's (w1, w2)
    lines = path.read_bytes().decode("utf-8").split("\n")
    for line_no, line in enumerate(lines, 1):
        if not line.strip():
            continue
        if line.splitlines() != [line]:
            problem = f"{line!r} holds a line break other than \\n"
        elif line_no == len(lines):
            problem = f"{line!r} does not end in \\n"
        elif "=" in line and "\t" not in line:
            key, value = line.split("=", 1)
            meaning, test = PAIR_HEADER_RULES.get(key, (None, None))
            if before is not None:
                problem = f"header line {key}= after the first pair row"
            elif test is None:
                problem = f"unknown header key {key!r}"
            elif key in header:
                problem = f"header key {key}= repeats an earlier line"
            else:
                try:
                    number = written_int(value)
                except ValueError:
                    number = None
                if number is not None and test(number, value):
                    header[key] = number
                    continue
                problem = f"expected '{key}=<{meaning}>', got {line!r}"
        else:
            try:
                w1, w2, count = line.split("\t")
                n = int(count)
            except ValueError:
                problem = f"expected 'word<TAB>word<TAB>count', got {line!r}"
            else:
                if w1 >= w2:
                    problem = f"pair {w1!r} {w2!r} is out of order or a self-pair"
                elif n < 1:
                    problem = f"count {n} is below 1"
                elif count != str(n):
                    problem = f"count {count!r} is not written as {n}"
                elif w1 not in keys or w2 not in keys:
                    problem = f"pair word {w1 if w1 not in keys else w2!r} is not in the vocabulary"
                elif (w1, w2) == before:
                    problem = f"pair {w1!r} {w2!r} repeats an earlier row"
                elif before is not None and (w1, w2) < before:
                    problem = (f"pair {w1!r} {w2!r} does not sort after the pair before it, "
                               f"{before[0]!r} {before[1]!r}")
                elif (n >= floor and "K" in header and header.get("N") == vocab.total_tokens
                      and header.get("F", vocab.stop_threshold) == vocab.stop_threshold
                      and n > (most := 2 * header["K"] * min(vocab.freq[w1], vocab.freq[w2]))):
                    problem = (f"count {n} of pair {w1!r} {w2!r} is above 2K x min(f) = {most}, "
                               "more than any stream gives")
                else:
                    a, b = keys[w1], keys[w2]
                    rows.setdefault(a, {})[b] = n
                    rows.setdefault(b, {})[a] = n
                    before = (w1, w2)
                    continue
        raise ValueError(f"{path}: line {line_no}: {problem}")
    if "N" not in header or "K" not in header:
        raise ValueError(f"{path}: missing N=/K= header")
    total = header["N"]
    if total != vocab.total_tokens:
        raise ValueError(
            f"{path}: pair counts were taken over N={total} tokens "
            f"but the vocabulary has N={vocab.total_tokens}"
        )
    threshold = header.get("F", vocab.stop_threshold)
    if threshold != vocab.stop_threshold:
        raise ValueError(
            f"{path}: pair counts were taken with F={threshold} "
            f"but the vocabulary has F={vocab.stop_threshold}"
        )
    return PairCounts(rows, vocab, header["K"], bool(header.get("CROSS", 0)))


def artifact_text_lines(path: str | Path) -> list[tuple[int, str]]:
    """The numbered non-blank lines of an artifact file, its text split at
    \\n only, each checked as the artifact writers write lines: it decodes
    as UTF-8, breaks nowhere else and ends in \\n. A blank line holds only
    whitespace."""
    path = Path(path)
    text = path.read_bytes().decode("utf-8", "surrogateescape")
    lines = text.split("\n")
    numbered = []
    for line_no, line in enumerate(lines, 1):
        problem = None
        if re.search("[\udc80-\udcff]", line):
            problem = "a byte that does not decode as UTF-8"
        elif not line.strip():
            continue
        elif line.splitlines() != [line]:
            problem = "a line break other than \\n"
        elif line_no == len(lines):
            problem = "no \\n at its end"
        if problem is not None:
            raise ValueError(f"{path}: line {line_no}: {problem}")
        numbered.append((line_no, line))
    return numbered


def reference_read_vocabulary(path: str | Path) -> Vocabulary:
    """``read_vocabulary`` as one loop over the whole text: ``N=`` and an
    optional ``F=`` header line, F >= 1, before the rows; then
    ``word<TAB>count`` rows as the writer writes them, their words
    non-empty, without whitespace and in rising order."""
    header: dict[str, int] = {}
    freq: dict[str, int] = {}
    before = None
    for line_no, line in artifact_text_lines(path):
        fields = line.split("\t")
        if "=" in line and len(fields) == 1:
            key, value = line.split("=", 1)
            good = (before is None and key in ("N", "F") and key not in header
                    and re.fullmatch(WRITTEN_INT, value) is not None
                    and (key == "N" or int(value) >= 1))
            if good:
                header[key] = int(value)
                continue
        elif len(fields) == 2:
            word, count = fields
            good = (word != "" and word.split() == [word] and (before is None or word > before)
                    and re.fullmatch("[1-9][0-9]*", count) is not None)
            if good:
                freq[word] = int(count)
                before = word
                continue
        raise ValueError(f"{path}: line {line_no}: not a vocabulary line as written: {line!r}")
    if "N" not in header:
        raise ValueError(f"{path}: missing N= header")
    return Vocabulary(freq, header["N"], header.get("F", 800))


def reference_written_number(value: str) -> int | float:
    """The int or float whose ``str`` is ``value``."""
    if re.fullmatch("0|-?[1-9][0-9]*", value):
        return int(value)
    number = float(value)
    if repr(number) != value:
        raise ValueError(value)
    return number


def reference_written_f(value: str) -> int:
    """A ``.net`` F value: an integer as written, never the default 800,
    which ``write_network`` leaves out."""
    if value == "800":
        raise ValueError(value)
    return written_int(value)


# Each .net header kind and the parser of its value, which takes only what
# ``write_network`` writes: CROSS only as 1, and the caps that fired in the
# order they are checked.
NET_HEADER_RULES = {"ROOT": str, "ORDER": written_int, "N": written_int, "K": written_int,
                    "F": reference_written_f, "TMIN": reference_written_number,
                    "MIMIN": reference_written_number,
                    "TRUNCATED": {"nodes": "nodes", "edges": "edges",
                                  "nodes,edges": "nodes,edges"}.__getitem__,
                    "CROSS": {"1": True}.__getitem__}


def reference_read_network(path: str | Path) -> CoocNetwork:
    """``read_network`` as one loop over the whole text: header lines, each
    kind once, ROOT, ORDER, N, K, TMIN and MIMIN required; then ``NODE word
    depth`` lines, each word once; then ``EDGE w1 w2 weight`` lines, their
    keys rising."""
    header: dict = {}
    depths: dict[str, int] = {}
    edges: dict[tuple[str, str], float] = {}
    last = None  # the last EDGE line's key
    for line_no, line in artifact_text_lines(path):
        kind, *fields = line.split(" ")
        try:
            if kind == "EDGE" and len(fields) == 3:
                key = (fields[0], fields[1])
                if last is None or key > last:
                    edges[key] = float(fields[2])
                    last = key
                    continue
            elif kind == "NODE" and len(fields) == 2 and not edges and fields[0] not in depths:
                depths[fields[0]] = written_int(fields[1])
                continue
            elif (kind in NET_HEADER_RULES and len(fields) == 1 and fields[0]
                  and kind not in header and not depths and not edges):
                header[kind] = NET_HEADER_RULES[kind](fields[0])
                continue
        except (ValueError, KeyError):
            pass
        raise ValueError(f"{path}: line {line_no}: not a .net line as written: {line!r}")
    if not {"ROOT", "ORDER", "N", "K", "TMIN", "MIMIN"} <= set(header):
        raise ValueError(f"{path}: header lines missing")
    return CoocNetwork(header["ROOT"], header["ORDER"], depths, edges, header["N"], header["K"],
                       SignificanceThresholds(header["TMIN"], header["MIMIN"]),
                       header.get("TRUNCATED"), header.get("CROSS", False), header.get("F", 800))


def regex_parse_slash(raw: str) -> list[Token]:
    """The slash-layout parser as a regex scan of each line's tokens, with
    the column taken from the match and the stop flags from the tags."""
    tokens: list[Token] = []
    sentence_id = 0
    for line_no, line in enumerate(raw.splitlines(), 1):
        if not line.strip():
            continue
        for match in re.finditer(r"\S+", line):
            item = match.group()
            column = match.start() + 1
            if "/" not in item:
                raise CorpusFormatError(
                    f"token {item!r} missing '/' tag separator", line_no, column
                )
            surface, pos = item.rsplit("/", 1)
            if not surface or not pos:
                raise CorpusFormatError(
                    f"token {item!r} has empty surface or tag", line_no, column
                )
            tokens.append(Token(surface.lower(), pos, sentence_id, pos in DEFAULT_STOP_TAGS))
        sentence_id += 1
    return tokens


def reference_parse_gap_sentence(
    text: str,
    gap_marker: str = GAP,
    stop_pos_tags: frozenset[str] = DEFAULT_STOP_TAGS,
) -> GapSentence:
    """``choice.parse_gap_sentence`` as a membership test and a ``rsplit``
    per piece, each token built by keyword."""
    tokens: list[Token] = []
    gap_index: int | None = None
    for piece in text.split():
        if piece == gap_marker:
            if gap_index is not None:
                raise ValueError("sentence contains more than one gap marker")
            gap_index = len(tokens)
            tokens.append(Token(GAP, "GAP", 0, is_stop=False))
            continue
        if "/" in piece:
            surface, pos = piece.rsplit("/", 1)
        else:
            surface, pos = piece, ""
        if surface == GAP:
            raise ValueError(f"token {piece!r} has the gap marker {GAP!r} as its surface")
        tokens.append(Token(surface.lower(), pos, 0, is_stop=pos in stop_pos_tags))
    if gap_index is None:
        raise ValueError(f"sentence contains no gap marker {gap_marker!r}")
    return GapSentence(tokens, gap_index)


def reference_is_frequency_stopped(vocab: Vocabulary, word: str) -> bool:
    """The frequency stop rule as a count lookup: ``word`` occurs more than F times."""
    return vocab.freq.get(word, 0) > vocab.stop_threshold


def reference_evidence_tokens(sentence: GapSentence,
                              evidence_window: int | None = None) -> list[Token]:
    """``GapSentence.evidence_tokens`` as a test of every position's index and stop flag."""
    picked = []
    for i, tok in enumerate(sentence.tokens):
        if i == sentence.gap_index or tok.is_stop:
            continue
        if evidence_window is not None and abs(i - sentence.gap_index) > evidence_window:
            continue
        picked.append(tok)
    return picked


def reference_rank(cands: CandidateSet, surfaces: list[str]) -> list[ChoiceScore]:
    """``choice._rank`` as one sort on (-total, -training frequency, word),
    each total added left to right from 0.0."""
    freq = {m.word: m.training_freq for m in cands.members}
    scores = []
    for m in cands.members:
        path_scores = m.network.path_scores()
        total = 0.0
        for surface in surfaces:
            total += path_scores.get(surface, 0.0)
        scores.append(ChoiceScore(m.word, total))
    scores.sort(key=lambda s: (-s.total, -freq[s.candidate], s.candidate))
    return scores


def exact_mcnemar_p(b: int, c: int) -> float:
    """The exact two-sided McNemar p of paired outcomes that disagree ``b``
    times one way and ``c`` times the other: twice the binomial tail
    P(X <= min(b, c)), X ~ Bin(b + c, 1/2), capped at 1 (Dietterich 1998)."""
    n = b + c
    return min(1.0, 2 * sum(math.comb(n, i) for i in range(min(b, c) + 1)) / 2**n)


def random_stream(rng: random.Random, n_tokens: int, vocab_size: int = 40) -> tuple[TokenStream, CorpusConfig]:
    """Random tagged stream with tag-based and frequency-based stops mixed in,
    flagged through the real stop policy."""
    words = [f"t{i}" for i in range(vocab_size)]
    tags = ["NN"] * 6 + ["VB"] * 3 + ["JJ"] * 2 + ["CD"]
    tokens: list[Token] = []
    sid = 0
    for _ in range(n_tokens):
        if tokens and rng.random() < 0.1:
            sid += 1
        tokens.append(Token(rng.choice(words), rng.choice(tags), sid))
    threshold = rng.choice([max(2, n_tokens // vocab_size), 10**9])
    cfg = CorpusConfig(stop_threshold=threshold)
    ts = TokenStream.of(tokens)
    build_vocabulary(ts, cfg)
    return ts, cfg


def topic_stream(rng: random.Random) -> tuple[TokenStream, Vocabulary, list[list[str]]]:
    """Random stream whose sentences mostly draw from one of several small,
    overlapping topics, so that significant pairs chain into deep networks.
    Returns the stream, flagged through the real stop policy, its
    vocabulary and the topics."""
    words = [f"w{i}" for i in range(rng.randint(20, 40))]
    topics = [rng.sample(words, rng.randint(2, 4)) for _ in range(rng.randint(5, 12))]
    tokens: list[Token] = []
    for sid in range(rng.randint(10, 80)):
        topic = rng.choice(topics)
        for _ in range(rng.randint(2, 8)):
            word = rng.choice(topic if rng.random() < 0.9 else words)
            tokens.append(Token(word, rng.choice(["NN"] * 9 + ["CD"]), sid))
    ts = TokenStream.of(tokens)
    vocab = build_vocabulary(ts, CorpusConfig(stop_threshold=rng.choice([8, 10**9])))
    return ts, vocab, topics


def bfs_depths(root: str, adjacency: dict[str, set[str]], max_depth: int) -> dict[str, int]:
    """Plain queue BFS, independent of the builder's layer bookkeeping."""
    depths = {root: 0}
    queue = [root]
    while queue:
        word = queue.pop(0)
        if depths[word] == max_depth:
            continue
        for other in sorted(adjacency.get(word, ())):
            if other not in depths:
                depths[other] = depths[word] + 1
                queue.append(other)
    return depths


def enumerate_shortest_path_scores(net: CoocNetwork, word: str) -> list[tuple[float, tuple[str, ...]]]:
    """Every root-to-word path that descends one layer per step (exactly the
    shortest paths), scored term by term the way a path walk would."""
    target_depth = net.depths[word]
    adjacency: dict[str, list[tuple[str, float]]] = {w: [] for w in net.depths}
    for (w1, w2), weight in net.edges.items():
        adjacency[w1].append((w2, weight))
        adjacency[w2].append((w1, weight))
    found: list[tuple[float, tuple[str, ...]]] = []

    def walk(path: list[str], score: float) -> None:
        tail = path[-1]
        depth = net.depths[tail]
        if depth == target_depth:
            if tail == word:
                found.append((score, tuple(path)))
            return
        for other, weight in adjacency[tail]:
            if net.depths[other] == depth + 1:
                walk(path + [other], score + weight / (depth + 1))

    walk([net.root], 0.0)
    return found


def random_layered_network(
    rng: random.Random, max_nodes: int = 8, root: str = "w0"
) -> CoocNetwork:
    """Random valid network over ``root`` and words ``w1``, ``w2``, ...: every
    non-root node gets a parent one layer up, plus extra same-layer and
    adjacent-layer edges."""
    n = rng.randint(2, max_nodes)
    words = [root] + [f"w{i}" for i in range(1, n)]
    depths = {root: 0}
    for word in words[1:]:
        depths[word] = rng.randint(1, min(3, max(depths.values()) + 1))
    edges: dict[tuple[str, str], float] = {}
    for word, depth in depths.items():
        if depth == 0:
            continue
        parent = rng.choice([w for w in words if depths.get(w) == depth - 1])
        edges[pair_key(word, parent)] = round(rng.uniform(0.5, 5.0), 6)
    for a in words:
        for b in words:
            if a >= b or abs(depths[a] - depths[b]) > 1:
                continue
            if pair_key(a, b) not in edges and rng.random() < 0.45:
                edges[pair_key(a, b)] = round(rng.uniform(0.5, 5.0), 6)
    return CoocNetwork(
        root=root,
        max_order=max(depths.values()),
        depths=depths,
        edges=edges,
        total_tokens=10_000,
        half_width=4,
    )


def summed_significance(
    net: CoocNetwork, sentence: GapSentence, evidence_window: int | None = None
) -> tuple[float, dict[str, float]]:
    """A candidate's evidence total and per-word breakdown, by one
    ``significance`` call per evidence token, left to right."""
    total = 0.0
    per_word: dict[str, float] = {}
    for i, tok in enumerate(sentence.tokens):
        distance = abs(i - sentence.gap_index)
        if distance == 0 or tok.is_stop:
            continue
        if evidence_window is not None and distance > evidence_window:
            continue
        value = significance(net, tok.surface).value
        total += value
        per_word[tok.surface] = per_word.get(tok.surface, 0.0) + value
    return total, per_word


def format_token_stream(ts: TokenStream) -> str:
    """Render a stream back to slash format, one sentence per line."""
    lines: list[str] = []
    current: list[str] = []
    current_id: int | None = None
    for tok in ts:
        if current_id is not None and tok.sentence_id != current_id:
            lines.append(" ".join(current))
            current = []
        current_id = tok.sentence_id
        current.append(f"{tok.surface}/{tok.pos}")
    if current:
        lines.append(" ".join(current))
    return "\n".join(lines) + ("\n" if lines else "")


def best_parent_edge(
    word: str,
    depths: dict[str, int],
    edges: dict[tuple[str, str], float],
) -> tuple[str, str]:
    """Scan every edge for ``word``'s strongest edge to the layer above."""
    parent_depth = depths[word] - 1
    best: tuple[float, str] | None = None
    for (w1, w2), weight in edges.items():
        if w1 == word and depths.get(w2) == parent_depth:
            parent = w2
        elif w2 == word and depths.get(w1) == parent_depth:
            parent = w1
        else:
            continue
        # Highest weight wins; ties fall to the lexicographically smaller parent.
        if best is None or weight > best[0] or (weight == best[0] and parent < best[1]):
            best = (weight, parent)
    assert best is not None, f"node {word!r} lost its parent edge"
    return pair_key(word, best[1])


def quadratic_edge_cap(
    depths: dict[str, int],
    edges: dict[tuple[str, str], float],
    max_edges: int,
) -> tuple[dict[str, int], dict[tuple[str, str], float]]:
    """The edge cap one victim at a time: protect each node's best parent
    edge, remove the weakest deepest-layer node while the protected edges
    alone overflow, then keep the strongest remaining edges."""
    depths = dict(depths)
    edges = dict(edges)
    protected = {w: best_parent_edge(w, depths, edges) for w in depths if depths[w] > 0}

    while len(protected) > max_edges:
        deepest = max(depths.values())
        layer = [w for w in depths if depths[w] == deepest]
        victim = min(layer, key=lambda w: (edges[protected[w]], w))
        del depths[victim]
        del protected[victim]
        for key in [k for k in edges if victim in k]:
            del edges[key]

    protected_keys = set(protected.values())
    if len(edges) > max_edges:
        spare = sorted(
            (key for key in edges if key not in protected_keys),
            key=lambda key: (-edges[key], key),
        )
        keep = protected_keys.union(spare[: max_edges - len(protected_keys)])
        edges = {key: edges[key] for key in sorted(keep)}
    return depths, edges


def blanked(sentence: list[Token], i: int) -> GapSentence:
    """``sentence`` with its token at ``i`` replaced by the gap placeholder."""
    gap = Token(GAP, sentence[i].pos, sentence[i].sentence_id)
    return GapSentence(sentence[:i] + [gap] + sentence[i + 1:], i)


def reference_instance(sentence: list[Token], i: int, sentence_id: int,
                       evidence_window: int | None = None) -> GapInstance:
    """The instance of ``sentence``'s token at ``i``: its evidence is what
    ``reference_evidence_tokens`` picks from the blanked sentence."""
    evidence = [tok.surface for tok in reference_evidence_tokens(blanked(sentence, i),
                                                                 evidence_window)]
    return GapInstance(evidence, sentence[i].surface, sentence_id, i)


def per_set_instances(
    held_out: TokenStream,
    words: Iterable[str],
    pos_category: str,
    evidence_window: int | None = None,
) -> list[GapInstance]:
    """One set's instances, one per occurrence of one of ``words`` in
    ``pos_category``, from a pass of its own over the held-out stream."""
    targets = {w.lower() for w in words}
    instances: list[GapInstance] = []
    for sentence_id, group in groupby(held_out, attrgetter("sentence_id")):
        sentence = list(group)
        for i, tok in enumerate(sentence):
            if tok.surface in targets and coarse_category(tok.pos) == pos_category:
                instances.append(reference_instance(sentence, i, sentence_id, evidence_window))
    return instances


def per_cell_grid(
    train_ts: TokenStream,
    train_vocab: Vocabulary,
    heldout_ts: TokenStream,
    set_defs: list[SetDefinition],
    windows: list[int],
    orders: list[int],
    thresholds: SignificanceThresholds,
    caps: NetworkCaps,
    cross_sentences: bool = False,
    evidence_window: int | None = None,
) -> list[CellResult]:
    """The evaluation grid with pairs recounted, every network built afresh
    and every set's instances extracted anew for each (window, order, set)
    cell."""
    cells: list[CellResult] = []
    for window, order in grid_cells(windows, orders):
        counts = count_pairs(train_ts, train_vocab, WindowConfig(window, cross_sentences))
        cell = CellResult(window, order, {}, {})
        for sdef in set_defs:
            members = [
                Candidate(w, build_network(w, counts, thresholds, order, caps),
                          train_vocab.freq.get(w, 0))
                for w in sdef.members
            ]
            cands = CandidateSet(sdef.set_id, sdef.pos_category, members)
            instances = per_set_instances(heldout_ts, sdef.members, sdef.pos_category,
                                          evidence_window)
            outcomes = judge_instances(cands, instances)
            cell.outcomes[sdef.set_id] = outcomes
            cell.reports[sdef.set_id] = summarize(cands, outcomes)
        cells.append(cell)
    return cells


def expected_scoring_network(direct: CoocNetwork, caps: NetworkCaps) -> CoocNetwork:
    """What ``scoring_network`` must return where ``build_network`` returned
    ``direct`` under ``caps``: ``direct`` itself when the edge cap could fire
    (it fired, or the n(n-1)/2 possible edges among its n grown nodes exceed
    ``caps.max_edges``), else ``direct`` less its same-depth edges."""
    n = len(direct.depths)
    if "edges" in (direct.truncated or "") or n * (n - 1) // 2 > caps.max_edges:
        return direct
    edges = {key: weight for key, weight in direct.edges.items()
             if direct.depths[key[0]] != direct.depths[key[1]]}
    return dataclasses.replace(direct, edges=edges)


# The corpus layer with one ``Token`` per position, parsed, counted and
# flagged token by token, as it was before streams were held as columns.

def reference_parse_slash(raw: str, sentence_id: int = 0) -> list[Token]:
    """Slash text, item by item, its sentences numbered from ``sentence_id``."""
    tokens: list[Token] = []
    for line_no, line in enumerate(raw.splitlines(), 1):
        items = line.split()
        if not items:
            continue
        for index, item in enumerate(items):
            surface, slash, pos = item.rpartition("/")
            if not slash:
                problem = "missing '/' tag separator"
            elif surface == GAP:
                problem = f"has the gap marker {GAP!r} as its surface"
            elif not surface or not pos:
                problem = "has empty surface or tag"
            else:
                tokens.append(Token(surface.lower(), pos, sentence_id, pos in DEFAULT_STOP_TAGS))
                continue
            column = list(re.finditer(r"\S+", line))[index].start() + 1
            raise CorpusFormatError(f"token {item!r} {problem}", line_no, column)
        sentence_id += 1
    return tokens


def reference_parse_tsv(raw: str, sentence_id: int = 0) -> list[Token]:
    """Tsv text, line by line, its sentences numbered from ``sentence_id``."""
    tokens: list[Token] = []
    sentence_open = False
    for line_no, line in enumerate(raw.splitlines(), 1):
        if not line.strip():
            if sentence_open:
                sentence_id += 1
                sentence_open = False
            continue
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise CorpusFormatError(
                f"expected 'surface<TAB>tag', got {line.strip()!r}", line_no, 1
            )
        space = re.search(r"\s", fields[0])
        if space:
            raise CorpusFormatError(
                f"surface {fields[0]!r} contains whitespace", line_no, space.start() + 1
            )
        if fields[0] == GAP:
            raise CorpusFormatError(f"surface {GAP!r} is the gap marker", line_no, 1)
        tokens.append(Token(fields[0].lower(), fields[1], sentence_id,
                            fields[1] in DEFAULT_STOP_TAGS))
        sentence_open = True
    return tokens


def reference_ingest_files(paths: list[Path], cfg: CorpusConfig) -> list[Token]:
    """The files' tokens in order, each file's sentences numbered on from
    the last file's, a format error naming its file."""
    parse = {"slash": reference_parse_slash, "tsv": reference_parse_tsv}[cfg.format]
    tokens: list[Token] = []
    for path in paths:
        first_id = tokens[-1].sentence_id + 1 if tokens else 0
        try:
            tokens.extend(parse(path.read_text(encoding="utf-8"), first_id))
        except CorpusFormatError as exc:
            raise CorpusFormatError(exc.message, exc.line, exc.column, path) from None
    return tokens


def reference_apply_stop_policy(tokens: list[Token], vocab: Vocabulary) -> None:
    """Each token's stop flag from its tag and its training count, one token at a time."""
    for tok in tokens:
        tok.is_stop = (tok.pos in DEFAULT_STOP_TAGS
                       or reference_is_frequency_stopped(vocab, tok.surface))


def reference_build_vocabulary(tokens: list[Token], cfg: CorpusConfig) -> Vocabulary:
    """The tokens' counts, their stop flags set from them in place."""
    freq: dict[str, int] = {}
    for tok in tokens:
        freq[tok.surface] = freq.get(tok.surface, 0) + 1
    vocab = Vocabulary(freq, len(tokens), cfg.stop_threshold)
    reference_apply_stop_policy(tokens, vocab)
    return vocab


def reference_occurrences(tokens: list[Token], window: WindowConfig) -> _Occurrences:
    """``count_pairs``'s occurrence record, one token at a time: the first
    token and, unless the window crosses sentences, each new sentence id
    move the positions on by ``half_width + 1``."""
    k = window.half_width
    by_word: dict[str, list[int]] = {}
    positions: list[int] = []
    surfaces: list[str] = []
    offset = 0
    sentence = None
    for i, tok in enumerate(tokens):
        if i == 0 or tok.sentence_id != sentence and not window.cross_sentences:
            offset += k + 1
        sentence = tok.sentence_id
        if not tok.is_stop:
            by_word.setdefault(tok.surface, []).append(len(positions))
            positions.append(i + offset)
            surfaces.append(tok.surface)
    return _Occurrences(by_word, positions, surfaces, k)


def reference_extract_instances(held_out: list[Token], set_defs: list[SetDefinition],
                                evidence_window: int | None = None
                                ) -> dict[str, list[GapInstance]]:
    """``extract_instances`` over every sentence of the held-out tokens, a
    sentence being a run of one id."""
    instances: dict[str, list[GapInstance]] = {sdef.set_id: [] for sdef in set_defs}
    for sentence_id, group in groupby(held_out, attrgetter("sentence_id")):
        sentence = list(group)
        for i, tok in enumerate(sentence):
            for sdef in set_defs:
                if tok.surface in sdef.members and coarse_category(tok.pos) == sdef.pos_category:
                    instances[sdef.set_id].append(
                        reference_instance(sentence, i, sentence_id, evidence_window))
    return instances
