"""Windowed co-occurrence counting and collocation significance statistics.

Pairs are unordered and counted once per co-occurring token pair: a word at
position i pairs with every non-stop word within ``half_width`` positions on
either side, in the same sentence unless ``cross_sentences`` is set. Stop
tokens occupy their window positions (distances stay faithful to the text)
but never form pairs, and a word never pairs with another occurrence of
itself.

A table holds the vocabulary it was counted with (``PairCounts.vocab``),
which alone owns N, each f(x) and the stop threshold F, so a table cannot
disagree with its marginals. Statistics use the window-scaled expected
count E = f(x) * f(y) * 2k / N, where the 2k factor reflects the 2k
neighbor slots around each token:

* t-score  t  = (f(x,y) - E) / sqrt(f(x,y))
* mutual information  MI = log2(f(x,y) / E), in bits

A pair is a significant collocation when both statistics clear their
thresholds (intersection, not union). The t-score doubles as the edge
weight downstream; MI is only ever an inclusion filter.

A pair table is stored as one row per word, ``rows[a][b] == rows[b][a]``,
the joint count of the pair: network growth reads the full row of each word
it visits, and reads few of the words, so ``count_pairs`` only records each
non-stop occurrence under its word and a row is counted the first time it
is read (``PairCounts.row``). ``PairCounts.rows``, which the pair view's
iteration, size and equality use, counts every row left; the writer keeps none.
The occurrence record is read-only, and the rows a narrower window counts
from it are the rows ``count_pairs`` counts at that window, so one record
serves every window up to the one it was made at
(``PairCounts.at_half_width``): a grid walks its training stream once.
Each word's significant neighbours under given thresholds
(``PairCounts.significant_neighbors``) are computed on first use and
memoised on the table. A write through ``PairCounts.pairs`` drops them;
the table must not be mutated any other way once queried.

Count floor: E > 0, so t = (f - E) / sqrt(f) < sqrt(f), and a pair whose
count is below ``t_min**2`` can never pass the t test. A row is therefore
cut to the entries whose count reaches ``t_min**2`` before it is sorted and
scored. The floor sits a relative ``COUNT_FLOOR_MARGIN`` below ``t_min**2``:
at f = ``t_min**2`` with a tiny E, the float t can round to exactly
``t_min``, and such a pair passes. ``read_pair_counts`` given thresholds
keeps only the pairs at or above their floor, and the table refuses what
would need a pair below its ``floor``: thresholds with a lower one, a
write, a count.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import _count_elements  # the C loop behind Counter.update
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain, compress, count, islice
from operator import add
from pathlib import Path
from typing import NamedTuple

from .corpus import TokenStream, Vocabulary, check_stream
from .ioutil import (ArtifactLines, IntTexts, at_least_1, atomic_write_text, header_problem,
                     written_int, zero_or_one)


# Relative slack under t_min**2 for the count floor: far above the few ulps
# by which the float t and t_min * t_min can err, far below the gap to the
# next integer count.
COUNT_FLOOR_MARGIN = 1e-9

# Maps a stream's stop flags (``TokenStream.stops``) to 1 where a token is not a stop.
_NOT_STOP = bytes([1, 0]) + bytes(254)


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

    @property
    def count_floor(self) -> float:
        """The count below which no pair reaches ``t_min`` (module docstring)."""
        return self.t_min * self.t_min * (1 - COUNT_FLOOR_MARGIN)


class PairView(Mapping):
    """The pairs of a table as a mapping ``(w1, w2) -> count``, w1 < w2.

    Reads go to the table's rows. Setting a pair sets it in both words'
    rows and drops the table's memoised significance rows, which the new
    count could change.
    """

    __slots__ = ("_table",)

    def __init__(self, table: PairCounts):
        self._table = table

    def __getitem__(self, key: tuple[str, str]) -> int:
        w1, w2 = key
        row = self._table.row(w1)
        if w1 < w2 and row is not None and w2 in row:
            return row[w2]
        raise KeyError(key)

    def __setitem__(self, key: tuple[str, str], count: int) -> None:
        w1, w2 = key
        if not w1 < w2:
            raise ValueError(f"pair {w1!r} {w2!r} is out of order or a self-pair")
        if count < self._table.floor:
            raise ValueError(f"count {count} is below the table's count floor {self._table.floor}")
        for a, b in ((w1, w2), (w2, w1)):
            row = self._table.row(a)
            if row is None:
                self._table._rows[a] = {b: count}
            else:
                row[b] = count
        self._table._significant.clear()

    def __iter__(self):
        for w1, row in self._table.rows.items():
            for w2 in row:
                if w1 < w2:
                    yield (w1, w2)

    def __len__(self) -> int:
        return sum(map(len, self._table.rows.values())) // 2

    def __eq__(self, other):
        # Two views compare their rows, without building a dict of pair keys.
        if isinstance(other, PairView):
            return self._table.rows == other._table.rows
        return super().__eq__(other)

    def __repr__(self) -> str:
        return f"PairView({dict(self.items())!r})"


class _Occurrences(NamedTuple):
    """Where the non-stop tokens of a stream sit, as ``count_pairs`` records
    them: each token's position and surface in stream order, and each word's
    indices into both. Unless the record was made across sentences, each
    sentence's positions start ``half_width + 1`` further on than the
    text's, so no window of ``half_width`` or less reaches across a sentence
    end. Never mutated once made, so tables may share it."""

    by_word: dict[str, list[int]]
    positions: list[int]
    surfaces: list[str]
    half_width: int


@dataclass(eq=False)
class PairCounts:
    """Joint pair counts plus the vocabulary they were counted with.

    ``row(a)[b]`` is the joint count of ``a`` and ``b``, stored in both
    words' rows; a word with no partner has no row. A table read with a
    count ``floor`` holds only the counts at or above it. Until its first read, a
    word's entry in ``_rows`` holds its occurrences instead of a row: its
    list in the occurrence record ``_record``, which only tables made by
    ``count_pairs`` or ``at_half_width`` have. ``rows`` counts every row
    left and returns them all. ``pairs`` views the same counts keyed by
    sorted word pairs. The vocabulary alone holds the marginals and the stop
    rule: N, each f(x) and the threshold F. The significant-neighbour rows
    are computed on first use and memoised on the table, so once the table
    has been queried its counts change only through ``pairs``, which drops
    them, and its vocabulary not at all.
    """

    _rows: dict[str, dict[str, int] | list[int]]
    vocab: Vocabulary
    half_width: int
    cross_sentences: bool = False
    _record: _Occurrences | None = field(default=None, repr=False)
    _significant: dict[tuple[str, SignificanceThresholds], list[tuple[str, float]]] = field(
        default_factory=dict, repr=False
    )
    floor: float = 0.0

    def row(self, word: str) -> dict[str, int] | None:
        """``word``'s row, ``{other: joint count}``, or None if it has no
        partner. The first read counts the row from the word's occurrences
        and puts it in their place, or drops the word if the row is empty;
        so the words keep their first-seen order."""
        occurrences = self._rows.get(word)
        if occurrences.__class__ is not list:
            return occurrences
        row = self._count_row(word, occurrences, self._record.surfaces)
        if row:
            self._rows[word] = row
            return row
        del self._rows[word]
        return None

    def _count_row(self, word, occurrences: list[int], surfaces: list) -> dict[str, int]:
        """A row, not stored: every entry of ``surfaces``, the record's or a
        copy, within ``half_width`` positions of each of the record's
        ``occurrences``, less ``word``, which ``surfaces`` holds at them."""
        positions = self._record.positions
        k = self.half_width
        n = len(positions)
        row: dict[str, int] = {}
        for i in occurrences:
            # Positions rise by at least 1 per index, so the window of the
            # occurrence at index i lies within indices i - k .. i + k.
            p = positions[i]
            lo = bisect_left(positions, p - k, i - k if i > k else 0, i)
            hi = bisect_right(positions, p + k, i, i + k + 1 if i + k < n else n)
            _count_elements(row, surfaces[lo:hi])
        del row[word]
        return row

    def at_half_width(self, half_width: int) -> PairCounts:
        """The table ``count_pairs`` counts at ``half_width`` over the same
        stream, vocabulary and sentence setting, made from this table's
        occurrence record without a pass over the stream. The new table
        shares only the read-only record and counts and memoises its own
        rows, so neither table's reads or writes reach the other. A
        sentence-bounded record keeps windows inside their sentence only up
        to the half-width it was made at, so a wider one is refused."""
        record = self._record
        if record is None:
            raise ValueError("a pair table read from a file has no occurrence record")
        WindowConfig(half_width)  # refuses a half-width below 1
        if half_width > record.half_width and not self.cross_sentences:
            raise ValueError(f"half-width {half_width} exceeds the record's {record.half_width}: "
                             "its windows would reach across sentence ends")
        return PairCounts(dict(record.by_word), self.vocab, half_width, self.cross_sentences,
                          record)

    @property
    def rows(self) -> dict[str, dict[str, int]]:
        """Every row, ``word -> {other: joint count}``, each counted and kept
        on the table (the writer keeps none); only counts at or above ``floor``."""
        for word in [word for word, row in self._rows.items() if row.__class__ is list]:
            self.row(word)
        return self._rows

    @property
    def pairs(self) -> PairView:
        return PairView(self)

    def get(self, w1: str, w2: str) -> int:
        row = self.row(w1)
        return 0 if row is None else row.get(w2, 0)

    def neighbors(self, word: str) -> list[str]:
        """Words that co-occurred with ``word`` at least ``floor`` times, sorted."""
        return sorted(self.row(word) or ())

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
        memoised on the table; thresholds whose floor is below the table's
        are refused.
        """
        key = (word, thresholds)
        row = self._significant.get(key)
        if row is not None:
            return row
        freq = self.vocab.freq
        scaled_fx = freq.get(word, 0) * 2 * self.half_width
        total = self.vocab.total_tokens
        t_min, mi_min = thresholds.t_min, thresholds.mi_min
        floor = thresholds.count_floor
        if floor < self.floor:
            raise ValueError(f"t_min {t_min} needs counts below the table's floor {self.floor}")
        counts = self.row(word) or {}
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
    """Windowed co-occurrence counts over a flagged token stream, each row
    counted when first read.

    One pass over the stream's columns keeps the position and surface of
    every non-stop token and records the token under its surface
    (``_Occurrences``), for ``PairCounts.row`` to count from and
    ``PairCounts.at_half_width`` to derive the table of any narrower window
    from. A sentence is a maximal run of one sentence id. Anything but a
    ``TokenStream`` raises ``TypeError``.
    """
    check_stream(ts)
    k = window.half_width
    cross = window.cross_sentences
    keep = ts.stops.translate(_NOT_STOP)
    if cross:
        positions = list(compress(count(), keep))
    else:
        # Sentence s (from 0) moves on by (s + 1) * (k + 1) positions.
        bounds = ts.sentence_bounds()
        firsts = map(add, bounds, count(k + 1, k + 1))
        ends = map(add, islice(bounds, 1, None), count(k + 1, k + 1))
        positions = list(compress(chain.from_iterable(map(range, firsts, ends)), keep))
    surfaces = list(compress(ts.surfaces, keep))
    occurrences: dict[str, list[int]] = {}
    for i, word in enumerate(surfaces):
        seen = occurrences.get(word)
        if seen is None:
            occurrences[word] = [i]
        else:
            seen.append(i)
    return PairCounts(dict(occurrences), vocab, k, cross,
                      _Occurrences(occurrences, positions, surfaces, k))


def write_pair_counts(counts: PairCounts, path: str | Path) -> int:
    """Write the table's header and its pair rows, one per pair with
    w1 < w2 in sorted order, and return how many pair rows it wrote. Each w1
    run's lines go to the file as they are made. A row not yet counted is
    counted for them and not kept, and only its upper half is counted: in
    sorted order, each word is masked with None in a copy of the record's
    surfaces before its row is counted from that copy."""
    if counts.floor:
        raise ValueError(f"a table cut at count floor {counts.floor} cannot be written")
    rows = counts._rows
    record = counts._record
    by_word, masked = ({}, None) if record is None else (record.by_word, list(record.surfaces))
    written = 0

    def pieces():
        nonlocal written
        yield (f"N={counts.vocab.total_tokens}\nK={counts.half_width}\n"
               f"F={counts.vocab.stop_threshold}\nCROSS={int(counts.cross_sentences)}\n")
        for w1 in sorted(rows):
            for i in by_word.get(w1, ()):
                masked[i] = None
            row = rows[w1]
            if row.__class__ is list:
                row = counts._count_row(None, row, masked)
                upper = sorted(row)
            else:
                upper = [w2 for w2 in row if w1 < w2]
                upper.sort()
            written += len(upper)
            yield "".join([f"{w1}\t{w2}\t{row[w2]}\n" for w2 in upper])

    atomic_write_text(path, pieces())
    return written


# The header keys of a pair table, each with what its value means and its parser.
_PAIR_HEADER = {"N": ("tokens", written_int), "K": ("half-width >= 1", at_least_1),
                "F": ("threshold >= 1", at_least_1), "CROSS": ("0 or 1", zero_or_one)}


def read_pair_counts(path: str | Path, vocab: Vocabulary,
                     thresholds: SignificanceThresholds | None = None) -> PairCounts:
    """Read a pair table written by ``write_pair_counts``, checked against
    the vocabulary it was counted with: same N, same F, and every pair word
    in it (the significance statistics divide by its frequency).

    Its lines are read through ``ioutil.ArtifactLines``. First the header
    lines, each key once: N and K, optionally F and CROSS; K and F at least
    1, CROSS 0 or 1. Then ``w1<TAB>w2<TAB>count`` lines, each sorting
    strictly after the one before (so w1 < w2 and no pair repeats), both
    words in the vocabulary, the count ``str(n)``, n >= 1. Given
    ``thresholds``, every line is still checked, but only the pairs at or
    above their count floor are kept; a kept count above 2K times the lower
    of its words' frequencies, more than any stream gives, is refused."""
    lines = ArtifactLines(path)
    floor = 0.0 if thresholds is None else thresholds.count_floor
    keys = {word: word for word in vocab.freq}  # so the rows hold no second copy of a word
    header: dict[str, int] = {}
    rows: dict[str, dict[str, int]] = {}
    counts = IntTexts(1)
    run = last = row = None  # the last pair line's words and its w1's row
    for chunk in lines.chunks():
        for line in chunk:
            try:
                w1, w2, count = line.split("\t")
                n = counts[count]
                b = keys[w2]
                if w1 != run:
                    if w2 <= w1 or run is not None and w1 < run:
                        raise ValueError
                    a = keys[w1]
                    row = rows.get(a)
                    if run is None:  # 2K; no bound if the header is refused after the pass
                        width = math.inf if _table_problem(header, vocab) else 2 * header["K"]
                    most = width * vocab.freq[a]
                    run = w1
                elif w2 <= last:
                    raise ValueError
            except (ValueError, KeyError):
                lines.check(line, _line_problem, header, keys, run, last)
                continue
            last = w2
            if n >= floor:
                if n > width and n > (cap := min(most, width * vocab.freq[b])):
                    lines.refuse(line, f"count {n} of pair {a!r} {b!r} is above 2K x min(f) = "
                                       f"{cap}, more than any stream gives")
                if row is None:
                    row = rows[a] = {}
                row[b] = n
                rows.setdefault(b, {})[a] = n
    if (problem := _table_problem(header, vocab)) is not None:
        raise ValueError(f"{lines.path}: {problem}")
    return PairCounts(rows, vocab, header["K"], bool(header.get("CROSS", 0)), floor=floor)


def _table_problem(header: dict[str, int], vocab: Vocabulary) -> str | None:
    """What is wrong with a pair table's ``header``, given its ``vocab``, or None."""
    if "N" not in header or "K" not in header:
        return "missing N=/K= header"
    if header["N"] != vocab.total_tokens:
        return (f"pair counts were taken over N={header['N']} tokens "
                f"but the vocabulary has N={vocab.total_tokens}")
    threshold = header.get("F", vocab.stop_threshold)
    if threshold != vocab.stop_threshold:
        return (f"pair counts were taken with F={threshold} "
                f"but the vocabulary has F={vocab.stop_threshold}")
    return None


def _line_problem(text: str, header: dict[str, int], keys: dict[str, str],
                  run: str | None, last: str | None) -> str | None:
    """What is wrong with a table line that is not a good pair line after
    the pair ``run`` ``last`` (None before the first pair line), given the
    vocabulary's ``keys``; None for a good header line, filed under ``header``."""
    if "=" in text and "\t" not in text:
        return header_problem(text, header, _PAIR_HEADER,
                              after=None if run is None else "pair row")
    try:
        w1, w2, count = text.split("\t")
        n = int(count)
    except ValueError:
        return f"expected 'word<TAB>word<TAB>count', got {text!r}"
    if w1 >= w2:
        return f"pair {w1!r} {w2!r} is out of order or a self-pair"
    if n < 1:
        return f"count {n} is below 1"
    if count != str(n):
        return f"count {count!r} is not written as {n}"
    if w1 not in keys or w2 not in keys:
        return f"pair word {w2 if w1 in keys else w1!r} is not in the vocabulary"
    if (w1, w2) == (run, last):
        return f"pair {w1!r} {w2!r} repeats an earlier row"
    return f"pair {w1!r} {w2!r} does not sort after the pair before it, {run!r} {last!r}"
