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

A pair table is stored as one row per word, ``rows[a][b] == rows[b][a]``,
the joint count of the pair: network growth reads the full row of each word
it visits, so the rows are counted directly and no other index is built.
Each word's significant neighbours under given thresholds
(``PairCounts.significant_neighbors``) are computed on first use and
memoised on the table, which must therefore not be mutated once queried.

Count floor: E > 0, so t = (f - E) / sqrt(f) < sqrt(f), and a pair whose
count is below ``t_min**2`` can never pass the t test. A row is therefore
cut to the entries whose count reaches ``t_min**2`` before it is sorted and
scored. The floor sits a relative ``COUNT_FLOOR_MARGIN`` below ``t_min**2``:
at f = ``t_min**2`` with a tiny E, the float t can round to exactly
``t_min``, and such a pair passes.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import _count_elements  # the C loop behind Counter.update
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import TokenStream, Vocabulary, DEFAULT_STOP_THRESHOLD
from .ioutil import atomic_write_text


# Relative slack under t_min**2 for the count floor: far above the few ulps
# by which the float t and t_min * t_min can err, far below the gap to the
# next integer count.
COUNT_FLOOR_MARGIN = 1e-9


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
        # NaN fails every comparison, so it passes no threshold and breaks
        # the memo key (nan != nan); no finite MI reaches mi_min = +inf; edge
        # weights must stay positive.
        if not 0 < self.t_min < math.inf or not self.mi_min < math.inf:
            raise ValueError(
                "t_min must be positive and finite and mi_min below +inf and not NaN, "
                f"got t_min={self.t_min} mi_min={self.mi_min}"
            )


def pair_key(w1: str, w2: str) -> tuple[str, str]:
    return (w1, w2) if w1 <= w2 else (w2, w1)


class PairView(Mapping):
    """The pairs of a row table as a mapping ``(w1, w2) -> count``, w1 < w2.

    Reads go to the rows, and setting a pair sets it in both words' rows.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: dict[str, dict[str, int]]):
        self._rows = rows

    def __getitem__(self, key: tuple[str, str]) -> int:
        w1, w2 = key
        row = self._rows.get(w1)
        if w1 < w2 and row is not None and w2 in row:
            return row[w2]
        raise KeyError(key)

    def __setitem__(self, key: tuple[str, str], count: int) -> None:
        w1, w2 = key
        if not w1 < w2:
            raise ValueError(f"pair {w1!r} {w2!r} is out of order or a self-pair")
        for a, b in ((w1, w2), (w2, w1)):
            row = self._rows.get(a)
            if row is None:
                self._rows[a] = {b: count}
            else:
                row[b] = count

    def __iter__(self):
        for w1, row in self._rows.items():
            for w2 in row:
                if w1 < w2:
                    yield (w1, w2)

    def __len__(self) -> int:
        return sum(map(len, self._rows.values())) // 2

    def __eq__(self, other):
        # Two views compare their rows, without building a dict of pair keys.
        if isinstance(other, PairView):
            return self._rows == other._rows
        return super().__eq__(other)

    def __repr__(self) -> str:
        return f"PairView({dict(self.items())!r})"


@dataclass
class PairCounts:
    """Joint pair counts plus the marginals needed for significance tests.

    ``rows[a][b]`` is the joint count of ``a`` and ``b``, stored in both
    words' rows; a word with no partner has no row. ``pairs`` views the same
    counts keyed by sorted word pairs. The significant-neighbour rows are
    computed on first use and memoised on the table, so the counts and
    ``freq`` must not change once the table has been queried.
    """

    rows: dict[str, dict[str, int]]
    freq: dict[str, int]
    total_tokens: int
    half_width: int
    cross_sentences: bool = False
    stop_threshold: int = DEFAULT_STOP_THRESHOLD
    _significant: dict[tuple[str, SignificanceThresholds], list[tuple[str, float]]] = field(
        default_factory=dict, repr=False, compare=False
    )

    @classmethod
    def from_pairs(cls, pairs: Mapping[tuple[str, str], int], **fields) -> "PairCounts":
        """A table holding ``pairs``, each keyed ``(w1, w2)`` with w1 < w2."""
        table = cls({}, **fields)
        view = table.pairs
        for key, count in pairs.items():
            view[key] = count
        return table

    @property
    def pairs(self) -> PairView:
        return PairView(self.rows)

    def get(self, w1: str, w2: str) -> int:
        row = self.rows.get(w1)
        return 0 if row is None else row.get(w2, 0)

    def neighbors(self, word: str) -> list[str]:
        """Words that co-occurred with ``word`` at least once, sorted."""
        return sorted(self.rows.get(word, ()))

    def significant_neighbors(
        self, word: str, thresholds: SignificanceThresholds
    ) -> list[tuple[str, float]]:
        """``(other, t)`` for each neighbour ``other`` that is a significant
        collocate of ``word``, in ``neighbors(word)`` order, t being the
        pair's t-score.

        With f the pair's count, E = f(word) * 2k * f(other) / N (one exact
        integer product, then one division), t = (f - E) / sqrt(f) and
        MI = log2(f / E); the pair is kept when t >= t_min and MI >= mi_min.
        Only entries at or above the count floor (module docstring) are
        sorted and scored. Computed once per word and thresholds, then
        memoised on the table.
        """
        key = (word, thresholds)
        row = self._significant.get(key)
        if row is not None:
            return row
        freq = self.freq
        scaled_fx = freq.get(word, 0) * 2 * self.half_width
        total = self.total_tokens
        t_min, mi_min = thresholds.t_min, thresholds.mi_min
        floor = t_min * t_min * (1 - COUNT_FLOOR_MARGIN)
        counts = self.rows.get(word, {})
        row = []
        for other in sorted(other for other, f_xy in counts.items() if f_xy >= floor):
            f_xy = counts[other]
            expected = scaled_fx * freq.get(other, 0) / total
            t = (f_xy - expected) / math.sqrt(f_xy)
            if t >= t_min and math.log2(f_xy / expected) >= mi_min:
                row.append((other, t))
        self._significant[key] = row
        return row


def count_pairs(ts: TokenStream, vocab: Vocabulary, window: WindowConfig) -> PairCounts:
    """Count windowed co-occurrences over a flagged token stream into rows.

    The stream is cut into sentences (one piece with ``cross_sentences``),
    each kept as the positions and surfaces of its non-stop tokens. A token
    at position p adds every surface at positions p-k..p+k to its own row;
    the row's entry for the word itself is dropped at the end, and so is a
    row left empty.
    """
    k = window.half_width
    cross = window.cross_sentences
    rows: dict[str, dict[str, int]] = {}
    positions: list[int] = []
    surfaces: list[str] = []
    sentence = None
    for i, tok in enumerate(ts):
        if tok.sentence_id != sentence:
            sentence = tok.sentence_id
            if not cross:
                _count_windows(rows, positions, surfaces, k)
                positions, surfaces = [], []
        if not tok.is_stop:
            positions.append(i)
            surfaces.append(tok.surface)
    _count_windows(rows, positions, surfaces, k)
    for word, row in list(rows.items()):
        del row[word]
        if not row:
            del rows[word]
    return PairCounts(
        rows,
        freq=vocab.freq,
        total_tokens=vocab.total_tokens,
        half_width=k,
        cross_sentences=cross,
        stop_threshold=vocab.stop_threshold,
    )


def _count_windows(
    rows: dict[str, dict[str, int]], positions: list[int], surfaces: list[str], k: int
) -> None:
    """Add to each token's row the surfaces within ``k`` positions of it,
    itself included."""
    lo = hi = 0
    for p, word in zip(positions, surfaces):
        lo = bisect_left(positions, p - k, lo)
        hi = bisect_right(positions, p + k, hi)
        row = rows.get(word)
        if row is None:
            row = rows[word] = {}
        _count_elements(row, surfaces[lo:hi])


def write_pair_counts(counts: PairCounts, path: str | Path) -> None:
    lines = [
        f"N={counts.total_tokens}",
        f"K={counts.half_width}",
        f"F={counts.stop_threshold}",
        f"CROSS={int(counts.cross_sentences)}",
    ]
    rows = counts.rows
    for w1 in sorted(rows):
        row = rows[w1]
        lines.extend(f"{w1}\t{w2}\t{row[w2]}" for w2 in sorted(w2 for w2 in row if w1 < w2))
    atomic_write_text(path, "\n".join(lines) + "\n")


# The header keys of a pair table, each with what its integer value means
# and the test that value must pass.
_PAIR_HEADER = {
    "N": ("tokens", lambda n: True),
    "K": ("half-width >= 1", lambda n: n >= 1),
    "F": ("threshold >= 1", lambda n: n >= 1),
    "CROSS": ("0 or 1", lambda n: n in (0, 1)),
}


def _read_pair_header(line: str, header: dict[str, int], after_rows: bool) -> str | None:
    """File the header line ``key=value`` under ``header``, or say what is
    wrong with it."""
    key, value = line.split("=", 1)
    if after_rows:
        return f"header line {key}= after the first pair row"
    if key not in _PAIR_HEADER:
        return f"unknown header key {key!r}"
    if key in header:
        return f"header key {key}= repeats an earlier line"
    meaning, test = _PAIR_HEADER[key]
    try:
        number = int(value)
    except ValueError:
        number = None
    if number is None or not test(number):
        return f"expected '{key}=<{meaning}>', got {line!r}"
    header[key] = number
    return None


def read_pair_counts(path: str | Path, vocab: Vocabulary) -> PairCounts:
    """Read a pair table written by ``write_pair_counts``, checked against
    the vocabulary it was counted with: same N, same F, and every pair word
    in it (the significance statistics divide by its frequency). Each row
    must be a pair the writer can write: its words in sorted order and
    distinct, its count at least 1, and no pair twice. The header lines
    come first, each key at most once with an integer value: N and K, and
    optionally F and CROSS; K and F are at least 1 and CROSS is 0 or 1."""
    path = Path(path)
    header: dict[str, int] = {}
    rows: dict[str, dict[str, int]] = {}
    freq = vocab.freq
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        try:
            w1, w2, count = line.split("\t")
            n = int(count)
        except ValueError:
            if "=" in line and "\t" not in line:
                problem = _read_pair_header(line, header, bool(rows))
                if problem is None:
                    continue
            elif not line.strip():
                continue
            else:
                problem = f"expected 'word<TAB>word<TAB>count', got {line!r}"
        else:
            row = rows.get(w1)
            if row is None:
                row = rows[w1] = {}
            if w1 < w2 and n > 0 and w1 in freq and w2 in freq and w2 not in row:
                row[w2] = n
                other = rows.get(w2)
                if other is None:
                    rows[w2] = {w1: n}
                else:
                    other[w1] = n
                continue
            if w1 >= w2:
                problem = f"pair {w1!r} {w2!r} is out of order or a self-pair"
            elif n < 1:
                problem = f"count {n} is below 1"
            elif w2 in row:
                problem = f"pair {w1!r} {w2!r} repeats an earlier row"
            else:
                problem = f"pair word {w1 if w1 not in freq else w2!r} is not in the vocabulary"
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
    return PairCounts(
        rows,
        freq=freq,
        total_tokens=total,
        half_width=header["K"],
        cross_sentences=bool(header.get("CROSS", 0)),
        stop_threshold=threshold,
    )
