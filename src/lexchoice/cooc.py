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
"""

from __future__ import annotations

import math
from collections import Counter
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
    """Joint pair counts plus the marginals needed for significance tests."""

    pairs: dict[tuple[str, str], int]
    freq: dict[str, int]
    total_tokens: int
    half_width: int
    cross_sentences: bool = False
    stop_threshold: int = DEFAULT_STOP_THRESHOLD
    _adjacency: dict[str, list[str]] | None = field(default=None, repr=False, compare=False)

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


def count_pairs(ts: TokenStream, vocab: Vocabulary, window: WindowConfig) -> PairCounts:
    """Count windowed co-occurrences over a flagged token stream."""
    pairs: Counter[tuple[str, str]] = Counter()
    k = window.half_width
    for i, tok in enumerate(ts):
        if tok.is_stop:
            continue
        for j in range(max(0, i - k), i):
            other = ts[j]
            if not window.cross_sentences and other.sentence_id != tok.sentence_id:
                continue
            if other.is_stop or other.surface == tok.surface:
                continue
            pairs[pair_key(tok.surface, other.surface)] += 1
    return PairCounts(
        dict(pairs),
        freq=vocab.freq,
        total_tokens=vocab.total_tokens,
        half_width=k,
        cross_sentences=window.cross_sentences,
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
    return _significant_t(p, th) is not None


def _significant_t(p: PairStats, th: SignificanceThresholds) -> float | None:
    """The pair's t-score when it is a significant collocation, else None:
    the test and the edge weight from one computation."""
    if p.f_xy <= 0:
        return None
    t = t_score(p)
    if t >= th.t_min and mutual_information(p) >= th.mi_min:
        return t
    return None


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
    path = Path(path)
    header: dict[str, str] = {}
    pairs: dict[tuple[str, str], int] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        if "=" in line and "\t" not in line:
            key, value = line.split("=", 1)
            header[key] = value
            continue
        w1, w2, count = line.split("\t")
        pairs[(w1, w2)] = int(count)
    if "N" not in header or "K" not in header:
        raise ValueError(f"{path}: missing N=/K= header")
    total = int(header["N"])
    if total != vocab.total_tokens:
        raise ValueError(
            f"{path}: pair counts were taken over N={total} tokens "
            f"but the vocabulary has N={vocab.total_tokens}"
        )
    return PairCounts(
        pairs,
        freq=vocab.freq,
        total_tokens=total,
        half_width=int(header["K"]),
        cross_sentences=bool(int(header.get("CROSS", "0"))),
        stop_threshold=int(header.get("F", vocab.stop_threshold)),
    )
