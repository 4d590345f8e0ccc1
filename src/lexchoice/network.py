"""Per-root lexical co-occurrence networks and path-based relation scores.

A network is grown breadth-first from a root word: connect the root to every
word it significantly co-occurs with, then recursively connect those words to
their own significant co-occurrences, up to ``max_order`` hops. A word's
depth is the order of its relation to the root (first-order neighbors at
depth 1, second-order at depth 2, ...). Edges are significant
co-occurrences between included nodes, weighted by their t-scores;
higher-order relations are never materialized as edges, they are read off
shortest paths.

The relation score for a word w at depth d discounts each edge on a shortest
root-to-w path by its position i and the whole sum by the cube of the order:

    score(root, w) = (1/d^3) * sum_{i=1..d} t(w_{i-1}, w_i) / i

Among the (possibly many) shortest paths, the one maximizing that sum is
chosen, via dynamic programming over the depth layers: a shortest path moves
down exactly one layer per step, so same-depth edges are stored but can
never lie on one. Ties break toward the lexicographically smallest
predecessor, making scores and paths deterministic.

One DP sweep scores every node at once when the network is constructed, and
that sweep is also the check that every non-root node has a parent edge:
``CoocNetwork.path_scores()`` is the map word -> score (the root scoring
0.0) that it fills, read by ``significance`` and by sentence scoring alike.

Two builders share the growth step (``_grow``). ``build_network`` keeps
every significant edge among the nodes, same-depth ones too: it makes the
``.net`` files and the networks ``choose`` reads. ``scoring_network`` keeps
only the edges between adjacent layers, which give the same scores, and so
never reads the rows of the nodes at depth ``max_order``, which only the
same-depth edges among them need; the evaluation grid scores with it, since
no grid result reads a same-depth edge. Where the edge cap could fire, the
edges it keeps decide the scores, so ``scoring_network`` returns
``build_network``'s network.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .cooc import PairCounts, SignificanceThresholds
from .corpus import DEFAULT_STOP_THRESHOLD
from .ioutil import (ArtifactLines, IntTexts, atomic_write_text, header_problem, written_int,
                     written_number)

# Edge weights are stored at this precision so the text format round-trips.
WEIGHT_DECIMALS = 6
_WEIGHT_FORMAT = f".{WEIGHT_DECIMALS}f"


class InvalidRootError(ValueError):
    """Root word is unknown or excluded by the stop policy."""


@dataclass(frozen=True)
class NetworkCaps:
    max_nodes: int = 50_000
    max_edges: int = 500_000

    def __post_init__(self):
        if self.max_nodes < 1 or self.max_edges < 0:
            raise ValueError("caps must allow at least the root node")


class SigScore(NamedTuple):
    """Relation score plus the relation's order (None when unreachable)."""

    value: float
    order: int | None


@dataclass
class CoocNetwork:
    root: str
    max_order: int
    depths: dict[str, int]
    edges: dict[tuple[str, str], float]
    total_tokens: int
    half_width: int
    thresholds: SignificanceThresholds = SignificanceThresholds()
    truncated: str | None = None
    cross_sentences: bool = False
    stop_threshold: int = DEFAULT_STOP_THRESHOLD

    def __post_init__(self):
        """Check K, N, F, the depths and edges, then score every node in one DP sweep
        by (depth, word) that is also the check that each non-root node has
        a parent edge. Only parent edges can lie on a shortest path. They are
        tried in sorted order and only a strictly larger sum replaces the
        held one, so ties go to the lexicographically smallest predecessor."""
        if self.half_width < 1 or self.total_tokens < 1:
            raise ValueError(f"network K {self.half_width} and N {self.total_tokens} must be >= 1")
        if self.stop_threshold < 1:
            raise ValueError(f"network F {self.stop_threshold} must be >= 1")
        depths = self.depths
        if depths.get(self.root) != 0:
            raise ValueError("network root must be present at depth 0")
        for word, depth in depths.items():
            if depth < 0 or depth > self.max_order:
                raise ValueError(f"node {word!r} depth {depth} outside 0..{self.max_order}")
            if depth == 0 and word != self.root:
                raise ValueError(f"non-root node {word!r} at depth 0")
        parents: dict[str, list[tuple[str, float]]] = {word: [] for word in depths}
        for (w1, w2), weight in self.edges.items():
            if w1 >= w2:
                raise ValueError(f"edge key ({w1!r}, {w2!r}) not in sorted order")
            if w1 not in depths or w2 not in depths:
                raise ValueError(f"edge ({w1!r}, {w2!r}) references a missing node")
            step = depths[w2] - depths[w1]
            if abs(step) > 1:
                raise ValueError(f"edge ({w1!r}, {w2!r}) spans more than one depth layer")
            if not 0 < weight < math.inf:
                raise ValueError(f"edge ({w1!r}, {w2!r}) has weight {weight}, not in (0, inf)")
            if step == 1:
                parents[w2].append((w1, weight))
            elif step == -1:
                parents[w1].append((w2, weight))
        best: dict[str, float] = {self.root: 0.0}
        self._scores: dict[str, float] = {self.root: 0.0}
        self._pred: dict[str, str | None] = {self.root: None}
        for word in sorted(depths, key=lambda w: (depths[w], w)):
            depth = depths[word]
            if depth == 0:
                continue
            chosen_score = -math.inf
            chosen_pred: str | None = None
            for other, weight in sorted(parents[word]):
                candidate = best[other] + weight / depth
                if candidate > chosen_score:
                    chosen_score = candidate
                    chosen_pred = other
            if chosen_pred is None:
                raise ValueError(f"node {word!r} at depth {depth} has no parent edge")
            best[word] = chosen_score
            self._scores[word] = chosen_score / depth**3
            self._pred[word] = chosen_pred

    @property
    def node_count(self) -> int:
        return len(self.depths)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def path_scores(self) -> dict[str, float]:
        """Every node's relation score to the root, the root's being 0.0.

        Filled at construction; the map must not be mutated."""
        return self._scores


def _grow(
    root: str,
    counts: PairCounts,
    thresholds: SignificanceThresholds,
    max_order: int,
    caps: NetworkCaps,
) -> tuple[dict[str, int], list[str]]:
    """Check the root, the order and the thresholds, then grow ``root``'s
    nodes breadth-first: ``(depths, truncated)``, ``truncated`` being
    ``["nodes"]`` when the node cap ended growth and empty otherwise.

    A word enters at the first depth it is reached, so every depth is the
    word's distance from the root. When the node cap fills mid-layer, the
    strongest candidates (by best incoming t-score) are admitted first and
    growth ends there. Growth reads the significance row of each node it
    grows from: never one at depth ``max_order`` or in the layer where the
    node cap fills.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    if thresholds.t_min < 10**-WEIGHT_DECIMALS:
        # A t-score below half the weight precision would be stored as 0.
        raise ValueError(
            f"t_min {thresholds.t_min} is below the edge weight precision "
            f"1e-{WEIGHT_DECIMALS}"
        )
    vocab = counts.vocab
    if root not in vocab.freq:
        raise InvalidRootError(f"root word {root!r} is not in the vocabulary")
    if vocab.is_frequency_stopped(root):
        raise InvalidRootError(
            f"root word {root!r} is a stop word "
            f"(frequency {vocab.freq[root]} > {vocab.stop_threshold})"
        )

    depths: dict[str, int] = {root: 0}
    frontier = [root]
    truncated: list[str] = []
    for depth in range(1, max_order + 1):
        candidates: dict[str, float] = {}
        for word in frontier:
            for other, t in counts.significant_neighbors(word, thresholds):
                if other in depths:
                    continue
                if other not in candidates or t > candidates[other]:
                    candidates[other] = t
        frontier = sorted(candidates, key=lambda w: (-candidates[w], w))
        room = caps.max_nodes - len(depths)
        if len(frontier) > room:
            del frontier[room:]
            truncated.append("nodes")
        for word in frontier:
            depths[word] = depth
        if not frontier or truncated:
            break
    return depths, truncated


def build_network(
    root: str,
    counts: PairCounts,
    thresholds: SignificanceThresholds = SignificanceThresholds(),
    max_order: int = 2,
    caps: NetworkCaps = NetworkCaps(),
) -> CoocNetwork:
    """Grow the co-occurrence network for ``root`` breadth-first (``_grow``)
    and keep every significant edge among its nodes, same-depth ones too.

    When the edge cap overflows, the weakest edges go first, but each node
    always keeps its strongest parent edge.
    """
    depths, truncated = _grow(root, counts, thresholds, max_order, caps)
    edges: dict[tuple[str, str], float] = {}
    for w1 in sorted(depths):
        for w2, t in counts.significant_neighbors(w1, thresholds):
            if w2 > w1 and w2 in depths:
                edges[(w1, w2)] = round(t, WEIGHT_DECIMALS)

    if len(edges) > caps.max_edges:
        depths, edges = _apply_edge_cap(depths, edges, caps.max_edges)
        truncated.append("edges")

    return _network(root, counts, thresholds, max_order, depths, edges, truncated)


def scoring_network(
    root: str,
    counts: PairCounts,
    thresholds: SignificanceThresholds = SignificanceThresholds(),
    max_order: int = 2,
    caps: NetworkCaps = NetworkCaps(),
) -> CoocNetwork:
    """``build_network``'s network less its same-depth edges, which no
    shortest path uses: the same depths, truncation and path scores.

    Each edge between adjacent layers is in the significance row of its
    upper node, which growth has already read, so, unlike ``build_network``,
    this counts and scores no row of a node at depth ``max_order``. When the
    n(n-1)/2 possible edges among the n nodes exceed ``caps.max_edges``, the
    edge cap could fire, and the edges it keeps decide the scores; then this
    is ``build_network``'s network.
    """
    depths, truncated = _grow(root, counts, thresholds, max_order, caps)
    n = len(depths)
    if n * (n - 1) // 2 > caps.max_edges:
        return build_network(root, counts, thresholds, max_order, caps)
    deepest = max(depths.values())
    edges: dict[tuple[str, str], float] = {}
    for w1, depth in depths.items():
        if depth < deepest:
            for w2, t in counts.significant_neighbors(w1, thresholds):
                if depths.get(w2) == depth + 1:
                    edges[(w1, w2) if w1 < w2 else (w2, w1)] = round(t, WEIGHT_DECIMALS)
    return _network(root, counts, thresholds, max_order, depths, edges, truncated)


def _network(root: str, counts: PairCounts, thresholds: SignificanceThresholds,
             max_order: int, depths: dict[str, int], edges: dict[tuple[str, str], float],
             truncated: list[str]) -> CoocNetwork:
    """The network of ``root`` with these nodes, edges and truncation, and
    the settings of the table it was grown from."""
    return CoocNetwork(
        root=root,
        max_order=max_order,
        depths=depths,
        edges=edges,
        total_tokens=counts.vocab.total_tokens,
        half_width=counts.half_width,
        thresholds=thresholds,
        truncated=",".join(truncated) or None,
        cross_sentences=counts.cross_sentences,
        stop_threshold=counts.vocab.stop_threshold,
    )


def _apply_edge_cap(
    depths: dict[str, int],
    edges: dict[tuple[str, str], float],
    max_edges: int,
) -> tuple[dict[str, int], dict[tuple[str, str], float]]:
    """Keep the strongest edges (ties by key) up to the cap, protecting each
    node's strongest parent edge, the first met for it in that order (a tie
    goes to the smaller parent, whose key is the smaller). If even the parent
    edges overflow the cap, trim nodes deepest layer first, weakest parent
    edge first within a layer (never orphaning anyone: a trimmed node's
    children sit in a deeper layer, which is trimmed before it). ``edges``
    must be in key order, as ``build_network`` makes it: the weight sort is
    stable, so ties and the kept edges stay in key order."""
    ranked = sorted(edges, key=edges.__getitem__, reverse=True)
    protected: dict[str, tuple[str, str]] = {}
    for key in ranked:
        w1, w2 = key
        step = depths[w2] - depths[w1]
        if step:
            protected.setdefault(w2 if step > 0 else w1, key)
    victims = set(heapq.nsmallest(len(protected) - max_edges, protected,
                                  key=lambda w: (-depths[w], edges[protected[w]], w)))
    # With victims, the kept parent edges fill the cap on their own.
    keep = {key for w, key in protected.items() if w not in victims}
    for key in ranked:
        if len(keep) >= max_edges:
            break
        keep.add(key)
    depths = {w: d for w, d in depths.items() if w not in victims}
    return depths, {key: weight for key, weight in edges.items() if key in keep}


def max_sig_shortest_path(net: CoocNetwork, word: str) -> tuple[str, ...]:
    """The shortest root-to-word path with the largest discounted t-score
    sum, as its words, root first. A word that is not a node raises KeyError."""
    path = [word]
    while (predecessor := net._pred[path[-1]]) is not None:
        path.append(predecessor)
    return tuple(reversed(path))


def significance(net: CoocNetwork, word: str) -> SigScore:
    """Score the relation between the root and ``word``.

    Unreachable words (not in the network within its order bound) score 0,
    so sentence scoring tolerates unknown words; the root never scores
    itself. A depth-1 relation's score is exactly its edge t-score.
    """
    depth = net.depths.get(word)
    if depth is None:
        return SigScore(0.0, None)
    return SigScore(net.path_scores()[word], depth)


def write_network(net: CoocNetwork, path: str | Path) -> None:
    """Deterministic text serialization: nodes by (depth, word), edges by key.
    ``CROSS 1`` and ``F n`` are written only when they are not the defaults."""
    lines = [
        f"ROOT {net.root}",
        f"ORDER {net.max_order}",
        f"N {net.total_tokens}",
        f"K {net.half_width}",
    ]
    if net.cross_sentences:
        lines.append("CROSS 1")
    if net.stop_threshold != DEFAULT_STOP_THRESHOLD:
        lines.append(f"F {net.stop_threshold}")
    lines += [f"TMIN {net.thresholds.t_min}", f"MIMIN {net.thresholds.mi_min}"]
    if net.truncated:
        lines.append(f"TRUNCATED {net.truncated}")
    lines += [f"NODE {word} {depth}"
              for depth, word in sorted([(depth, word) for word, depth in net.depths.items()])]
    lines += [f"EDGE {w1} {w2} {net.edges[(w1, w2)]:{_WEIGHT_FORMAT}}"
              for (w1, w2) in sorted(net.edges)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def _written_f(text: str) -> int:
    """An F header value as written: never the default, which is left out."""
    if (n := written_int(text)) == DEFAULT_STOP_THRESHOLD:
        raise ValueError(text)
    return n


# The header kinds of a .net file, each with what its value means and its parser.
_HEADER_KINDS = {"ROOT": ("word", str), "ORDER": ("order", written_int),
                 "N": ("tokens", written_int), "K": ("half-width", written_int),
                 "CROSS": ("1", {"1": True}.__getitem__),
                 "F": (f"threshold other than {DEFAULT_STOP_THRESHOLD}", _written_f),
                 "TMIN": ("t_min", written_number), "MIMIN": ("mi_min", written_number),
                 "TRUNCATED": ("nodes, edges or nodes,edges",
                               {c: c for c in ("nodes", "edges", "nodes,edges")}.__getitem__)}


def read_network(path: str | Path) -> CoocNetwork:
    """Read a network written by ``write_network`` through
    ``ioutil.ArtifactLines``: header lines, each kind once, then ``NODE``
    lines, each word once, then ``EDGE`` lines in rising key order. A
    network that fails validation, or lacks ROOT, ORDER, N, K, TMIN or
    MIMIN, is refused naming the file, and a header value the writer never
    writes (``CROSS 0``, ``F 800``, a TRUNCATED other than ``nodes``,
    ``edges`` or ``nodes,edges``) at its line. A missing CROSS reads as 0
    and a missing F as ``DEFAULT_STOP_THRESHOLD``."""
    lines = ArtifactLines(path)
    header: dict[str, str | int | float] = {}
    depths: dict[str, int] = {}
    edges: dict[tuple[str, str], float] = {}
    depth_of = IntTexts()
    last = ()  # the last EDGE line's key
    for chunk in lines.chunks():
        for line in chunk:
            fields = line.split(" ")
            kind = fields[0]
            try:
                if kind == "EDGE":
                    _, w1, w2, weight = fields
                    weight = float(weight)
                    if (key := (w1, w2)) > last:
                        edges[key] = weight
                        last = key
                        continue
                    problem = f"EDGE {w1!r} {w2!r} does not sort after the EDGE before it"
                elif kind == "NODE":
                    _, word, depth = fields
                    depth = depth_of[depth]
                    if word not in depths and not edges:
                        depths[word] = depth
                        continue
                    problem = (f"repeated NODE line for {word!r}" if word in depths
                               else "NODE line after the first EDGE line")
                elif not line.strip():
                    continue
                else:
                    after = "NODE or EDGE line" if depths or edges else None
                    if (problem := header_problem(line, header, _HEADER_KINDS, " ", after)) is None:
                        continue
            except ValueError:
                problem = f"malformed {kind} line {line!r}"
            lines.refuse(line, problem)
    for required in ("ROOT", "ORDER", "N", "K", "TMIN", "MIMIN"):
        if required not in header:
            raise ValueError(f"{lines.path}: missing {required} header line")
    try:
        return CoocNetwork(
            root=header["ROOT"],
            max_order=header["ORDER"],
            depths=depths,
            edges=edges,
            total_tokens=header["N"],
            half_width=header["K"],
            thresholds=SignificanceThresholds(header["TMIN"], header["MIMIN"]),
            truncated=header.get("TRUNCATED"),
            cross_sentences=header.get("CROSS", False),
            stop_threshold=header.get("F", DEFAULT_STOP_THRESHOLD),
        )
    except ValueError as exc:
        raise ValueError(f"{lines.path}: {exc}") from None
