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
from typing import Iterable

from lexchoice.choice import Candidate, CandidateSet, ChoiceScore, GapSentence
from lexchoice.cooc import (
    PairCounts,
    SignificanceThresholds,
    WindowConfig,
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
from lexchoice.network import CoocNetwork, NetworkCaps, build_network, significance

from conftest import pair_key


def quadratic_pair_counts(ts: TokenStream, k: int, cross_sentences: bool = False) -> dict:
    """All index pairs i < j, checked one by one."""
    counts: Counter = Counter()
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


def forward_pair_counts(ts: TokenStream, k: int, cross_sentences: bool = False) -> dict:
    """Forward-window enumeration (the library pairs backward)."""
    counts: Counter = Counter()
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


def regex_parse_slash(raw: str) -> TokenStream:
    """The slash-layout parser as a regex scan of each line's tokens, with
    the column taken from the match and the stop flags from the tags."""
    tokens: TokenStream = []
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


def random_stream(rng: random.Random, n_tokens: int, vocab_size: int = 40) -> tuple[TokenStream, CorpusConfig]:
    """Random tagged stream with tag-based and frequency-based stops mixed in,
    flagged through the real stop policy."""
    words = [f"t{i}" for i in range(vocab_size)]
    tags = ["NN"] * 6 + ["VB"] * 3 + ["JJ"] * 2 + ["CD"]
    tokens: TokenStream = []
    sid = 0
    for _ in range(n_tokens):
        if tokens and rng.random() < 0.1:
            sid += 1
        tokens.append(Token(rng.choice(words), rng.choice(tags), sid))
    threshold = rng.choice([max(2, n_tokens // vocab_size), 10**9])
    cfg = CorpusConfig(stop_threshold=threshold)
    build_vocabulary(tokens, cfg)
    return tokens, cfg


def topic_stream(rng: random.Random) -> tuple[TokenStream, Vocabulary, list[list[str]]]:
    """Random stream whose sentences mostly draw from one of several small,
    overlapping topics, so that significant pairs chain into deep networks.
    Returns the stream, flagged through the real stop policy, its
    vocabulary and the topics."""
    words = [f"w{i}" for i in range(rng.randint(20, 40))]
    topics = [rng.sample(words, rng.randint(2, 4)) for _ in range(rng.randint(5, 12))]
    tokens: TokenStream = []
    for sid in range(rng.randint(10, 80)):
        topic = rng.choice(topics)
        for _ in range(rng.randint(2, 8)):
            word = rng.choice(topic if rng.random() < 0.9 else words)
            tokens.append(Token(word, rng.choice(["NN"] * 9 + ["CD"]), sid))
    vocab = build_vocabulary(tokens, CorpusConfig(stop_threshold=rng.choice([8, 10**9])))
    return tokens, vocab, topics


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


def per_set_instances(
    held_out: TokenStream,
    words: Iterable[str],
    pos_category: str,
) -> list[GapInstance]:
    """One set's instances, one per occurrence of one of ``words`` in
    ``pos_category``, from a pass of its own over the held-out stream."""
    targets = {w.lower() for w in words}
    instances: list[GapInstance] = []
    for sentence_id, group in groupby(held_out, attrgetter("sentence_id")):
        sentence = list(group)
        for i, tok in enumerate(sentence):
            if tok.surface in targets and coarse_category(tok.pos) == pos_category:
                instances.append(
                    GapInstance(
                        sentence=GapSentence.blank_out(sentence, i),
                        gold=tok.surface,
                        sentence_id=sentence_id,
                        position=i,
                    )
                )
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
            instances = per_set_instances(heldout_ts, sdef.members, sdef.pos_category)
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
