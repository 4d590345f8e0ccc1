"""Windowed co-occurrence counting and collocation significance statistics.

Pairs are unordered and counted once per co-occurring token pair: a word at
position i pairs with every non-stop word within ``half_width`` positions on
either side, in the same sentence unless ``cross_sentences`` is set. Stop
tokens occupy their window positions (distances stay faithful to the text)
but never form pairs, and a word never pairs with another occurrence of
itself.

Statistics use the window-scaled expected count E = f(x) * f(y) * 2k / N,
where the 2k factor reflects the 2k neighbor slots around each token:

* t-score  t  = (f(x,y) - E) / sqrt(f(x,y))
* mutual information  MI = log2(f(x,y) / E), in bits

A pair is a significant collocation when both statistics clear their
thresholds (intersection, not union). The t-score doubles as the edge
weight downstream; MI is only ever an inclusion filter.

A pair table answers two derived queries lazily and memoises both on
itself: the sorted neighbour index (``PairCounts.neighbors``) and each
word's significant neighbours under given thresholds
(``PairCounts.significant_neighbors``), which network growth reads. A
table must therefore not be mutated once it has been queried.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import TokenStream, Vocabulary, DEFAULT_STOP_THRESHOLD
from .ioutil import atomic_write_text


class UndefinedStatisticError(ValueError):
    """Statistic requested for a pair that never co-occurred (f_xy = 0)."""


@dataclass(frozen=True)
class WindowConfig:
    half_width: int = 4
    cross_sentences: bool = False

    def __post_init__(self):
        if self.half_width < 1:
            raise ValueError("window half_width must be >= 1")


@dataclass(frozen=True)
class SignificanceThresholds:
    t_min: float = 2.0
    mi_min: float = 2.0

    def __post_init__(self):
        if self.t_min <= 0:
            raise ValueError("t_min must be positive (edge weights must stay positive)")


@dataclass(frozen=True)
class PairStats:
    """Everything needed to score one word pair."""

    f_xy: int
    f_x: int
    f_y: int
    total_tokens: int
    half_width: int

    @property
    def expected(self) -> float:
        return self.f_x * self.f_y * 2 * self.half_width / self.total_tokens


def pair_key(w1: str, w2: str) -> tuple[str, str]:
    return (w1, w2) if w1 <= w2 else (w2, w1)


@dataclass
class PairCounts:
    """Joint pair counts plus the marginals needed for significance tests.

    The neighbour index and the significant-neighbour rows are computed on
    first use and memoised on the table, so ``pairs`` and ``freq`` must not
    change once the table has been queried.
    """

    pairs: dict[tuple[str, str], int]
    freq: dict[str, int]
    total_tokens: int
    half_width: int
    cross_sentences: bool = False
    stop_threshold: int = DEFAULT_STOP_THRESHOLD
    _adjacency: dict[str, list[str]] | None = field(default=None, repr=False, compare=False)
    _rows: dict[tuple[str, SignificanceThresholds], list[tuple[str, float]]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def get(self, w1: str, w2: str) -> int:
        return self.pairs.get(pair_key(w1, w2), 0)

    def stats(self, w1: str, w2: str) -> PairStats:
        return PairStats(
            f_xy=self.get(w1, w2),
            f_x=self.freq.get(w1, 0),
            f_y=self.freq.get(w2, 0),
            total_tokens=self.total_tokens,
            half_width=self.half_width,
        )

    def neighbors(self, word: str) -> list[str]:
        """Words that co-occurred with ``word`` at least once, sorted."""
        if self._adjacency is None:
            adjacency: dict[str, list[str]] = {}
            for w1, w2 in self.pairs:
                adjacency.setdefault(w1, []).append(w2)
                adjacency.setdefault(w2, []).append(w1)
            for values in adjacency.values():
                values.sort()
            self._adjacency = adjacency
        return self._adjacency.get(word, [])

    def significant_neighbors(
        self, word: str, thresholds: SignificanceThresholds
    ) -> list[tuple[str, float]]:
        """``(other, t)`` for each neighbour ``other`` that is a significant
        collocate of ``word``, in ``neighbors(word)`` order, t being the
        pair's t-score.

        The same floats as ``t_score(self.stats(word, other))`` and
        ``mutual_information`` give: the expected count is the same integer
        product divided by N, and t and MI are the same operations on it.
        Computed once per word and thresholds, then memoised on the table.
        """
        key = (word, thresholds)
        row = self._rows.get(key)
        if row is not None:
            return row
        pairs, freq = self.pairs, self.freq
        scaled_fx = freq.get(word, 0) * 2 * self.half_width
        total = self.total_tokens
        t_min, mi_min = thresholds.t_min, thresholds.mi_min
        row = []
        for other in self.neighbors(word):
            f_xy = pairs.get((word, other) if word < other else (other, word), 0)
            if f_xy <= 0:
                continue
            expected = scaled_fx * freq.get(other, 0) / total
            t = (f_xy - expected) / math.sqrt(f_xy)
            if t >= t_min and math.log2(f_xy / expected) >= mi_min:
                row.append((other, t))
        self._rows[key] = row
        return row


def count_pairs(ts: TokenStream, vocab: Vocabulary, window: WindowConfig) -> PairCounts:
    """Count windowed co-occurrences over a flagged token stream.

    Each sentence is walked once, keeping the positions and surfaces of its
    non-stop tokens seen so far; a token pairs with those of them that lie
    within ``half_width`` positions. Across sentences, when allowed, the
    tail of the previous sentence's lists carries over.
    """
    pairs: dict[tuple[str, str], int] = {}
    get = pairs.get
    k = window.half_width
    cross = window.cross_sentences
    positions: list[int] = []
    surfaces: list[str] = []
    start = 0
    sentence = None
    for i, tok in enumerate(ts):
        if tok.sentence_id != sentence:
            sentence = tok.sentence_id
            if cross:
                del positions[:start], surfaces[:start]
            else:
                positions.clear()
                surfaces.clear()
            start = 0
        if tok.is_stop:
            continue
        word = tok.surface
        start = bisect_left(positions, i - k, start)
        for other in surfaces[start:]:
            if other != word:
                key = (word, other) if word < other else (other, word)
                pairs[key] = get(key, 0) + 1
        positions.append(i)
        surfaces.append(word)
    return PairCounts(
        pairs,
        freq=vocab.freq,
        total_tokens=vocab.total_tokens,
        half_width=k,
        cross_sentences=cross,
        stop_threshold=vocab.stop_threshold,
    )


def t_score(p: PairStats) -> float:
    """Observed minus expected joint count, normalized by sqrt(observed)."""
    if p.f_xy <= 0:
        raise UndefinedStatisticError("t-score undefined for f_xy = 0")
    return (p.f_xy - p.expected) / math.sqrt(p.f_xy)


def mutual_information(p: PairStats) -> float:
    """log2 of observed over expected joint count, in bits."""
    if p.f_xy <= 0:
        raise UndefinedStatisticError("mutual information undefined for f_xy = 0")
    return math.log2(p.f_xy / p.expected)


def is_significant(p: PairStats, th: SignificanceThresholds = SignificanceThresholds()) -> bool:
    return p.f_xy > 0 and t_score(p) >= th.t_min and mutual_information(p) >= th.mi_min


def write_pair_counts(counts: PairCounts, path: str | Path) -> None:
    lines = [
        f"N={counts.total_tokens}",
        f"K={counts.half_width}",
        f"F={counts.stop_threshold}",
        f"CROSS={int(counts.cross_sentences)}",
    ]
    for (w1, w2) in sorted(counts.pairs):
        lines.append(f"{w1}\t{w2}\t{counts.pairs[(w1, w2)]}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_pair_counts(path: str | Path, vocab: Vocabulary) -> PairCounts:
    """Read a pair table written by ``write_pair_counts``, checked against
    the vocabulary it was counted with: same N, same F, and every pair word
    in it (the significance statistics divide by its frequency). Each row
    must be a pair the writer can write: its words in sorted order and
    distinct, its count at least 1, and no pair twice."""
    path = Path(path)
    header: dict[str, str] = {}
    pairs: dict[tuple[str, str], int] = {}
    freq = vocab.freq
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        try:
            w1, w2, count = line.split("\t")
            n = int(count)
        except ValueError:
            if "=" in line and "\t" not in line:
                key, value = line.split("=", 1)
                header[key] = value
                continue
            if not line.strip():
                continue
            problem = f"expected 'word<TAB>word<TAB>count', got {line!r}"
        else:
            pair = (w1, w2)
            if w1 < w2 and n > 0 and w1 in freq and w2 in freq and pair not in pairs:
                pairs[pair] = n
                continue
            if w1 >= w2:
                problem = f"pair {w1!r} {w2!r} is out of order or a self-pair"
            elif n < 1:
                problem = f"count {n} is below 1"
            elif pair in pairs:
                problem = f"pair {w1!r} {w2!r} repeats an earlier row"
            else:
                problem = f"pair word {w1 if w1 not in freq else w2!r} is not in the vocabulary"
        raise ValueError(f"{path}: line {line_no}: {problem}")
    if "N" not in header or "K" not in header:
        raise ValueError(f"{path}: missing N=/K= header")
    total = int(header["N"])
    if total != vocab.total_tokens:
        raise ValueError(
            f"{path}: pair counts were taken over N={total} tokens "
            f"but the vocabulary has N={vocab.total_tokens}"
        )
    threshold = int(header.get("F", vocab.stop_threshold))
    if threshold != vocab.stop_threshold:
        raise ValueError(
            f"{path}: pair counts were taken with F={threshold} "
            f"but the vocabulary has F={vocab.stop_threshold}"
        )
    return PairCounts(
        pairs,
        freq=freq,
        total_tokens=total,
        half_width=int(header["K"]),
        cross_sentences=bool(int(header.get("CROSS", "0"))),
        stop_threshold=threshold,
    )
