"""POS-tagged corpus ingestion, stop-word policy, and vocabulary counts.

Input corpora are already tokenized and tagged. Two text layouts are
supported:

* ``slash``: one sentence per line, tokens written ``surface/TAG`` and
  separated by whitespace (a surface may itself contain slashes; the tag
  is everything after the last one).
* ``tsv``: one ``surface<TAB>tag`` token per line, blank line ends a
  sentence. A surface may not contain whitespace, which the slash layout
  cannot express either and which the space-separated ``.net`` format
  cannot carry.

Surfaces are lowercased on ingestion; tags are kept verbatim. Both are
interned (``sys.intern``), so a stream holds one string object per distinct
surface and tag, and dict probes on them match by identity. A token is a
stop word when its tag marks a number, symbol, or proper noun, or when its
corpus-wide raw frequency exceeds the ``stop_threshold`` (F). Stop tokens
stay in the stream, flagged, so that window positions remain occupied.

A ``TokenStream`` holds the corpus as columns, one entry per position: the
surfaces and the tags (lists of interned strings), the sentence ids (a list
in which every position of a sentence holds the same int object), and the
stop flags (a ``bytearray``). It builds no object per position: three list
entries and one flag byte a position. A sentence is a maximal run of positions with
one id. To its readers the stream is a read-only sequence of ``Token``s,
each made when it is read. A gap sentence stays a plain ``list[Token]``,
flagged when it is parsed (``choice.parse_gap_sentence``).

``ingest_files`` reads and decodes its own files. One that does not decode
as UTF-8 is refused naming its path and the line and column of the first
bad byte.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, count, groupby, repeat
from operator import attrgetter, index as index_of, itemgetter
from pathlib import Path
from sys import intern

from .ioutil import ArtifactLines, IntTexts, atomic_write_text, bad_byte, header_problem

# Penn-Treebank-style defaults: numbers, symbols/punctuation, proper nouns.
DEFAULT_STOP_TAGS = frozenset(
    {
        "CD",
        "SYM", "$", "#", ".", ",", ":", "``", "''", "(", ")", "-LRB-", "-RRB-",
        "NNP", "NNPS",
    }
)

DEFAULT_STOP_THRESHOLD = 800

# Placeholder surface standing in the blanked position of a gap sentence; no
# corpus token may have it as its surface.
GAP = "____"


class CorpusFormatError(ValueError):
    """A line of corpus text does not match the declared tag format."""

    def __init__(self, message: str, line: int, column: int, path: str | Path | None = None):
        location = f"line {line}, column {column}"
        if path is not None:
            location = f"{path}: {location}"
        super().__init__(f"{location}: {message}")
        self.message = message
        self.line = line
        self.column = column


@dataclass(frozen=True)
class CorpusConfig:
    format: str = "slash"
    stop_threshold: int = DEFAULT_STOP_THRESHOLD

    def __post_init__(self):
        if self.format not in ("slash", "tsv"):
            raise ValueError(f"unknown corpus format {self.format!r}")
        if self.stop_threshold <= 0:
            raise ValueError("stop_threshold must be positive")


@dataclass(slots=True, init=False)
class Token:
    """One corpus position: its surface (non-empty, lowercased by the
    parsers), its tag, the sentence it belongs to, and its stop flag.
    Built positionally or by keyword; ``is_stop`` stays writable for the
    stop policy. ``choice.parse_gap_sentence``, on the per-query path, skips
    the class call (``Token.__new__`` and four slot stores, no ``__init__``
    frame) and refuses an empty surface itself, with this message."""

    surface: str
    pos: str
    sentence_id: int
    is_stop: bool = False

    # Written by hand: the generated __init__ plus __post_init__ cost two frames per token.
    def __init__(self, surface: str, pos: str, sentence_id: int, is_stop: bool = False):
        if not surface:
            raise ValueError("token surface must be non-empty")
        self.surface = surface
        self.pos = pos
        self.sentence_id = sentence_id
        self.is_stop = is_stop


class TokenStream(Sequence):
    """A corpus in order, held as columns (module docstring): no object
    per position.

    It is a read-only sequence of ``Token``: ``len``, iteration and an
    integer index give tokens made when they are read; a slice raises
    ``TypeError``. A written token is a copy, so a write to it does not
    reach the stream; only ``apply_stop_policy`` and ``build_vocabulary``
    change a stream, and only its stop flags. ``TokenStream.of`` builds
    one from tokens, and the parsers fill one. The columns are read through
    ``surfaces``, ``tags``, ``sentence_ids`` and ``stops`` (1 for a stop
    word), which must not be mutated. A stream equals only itself: compare
    ``list(a) == list(b)`` for their tokens.
    """

    __slots__ = ("_surfaces", "_tags", "_sentence_ids", "_stops")

    def __init__(self):
        self._surfaces: list[str] = []
        self._tags: list[str] = []
        self._sentence_ids: list[int] = []
        self._stops = bytearray()

    @classmethod
    def of(cls, tokens: Iterable[Token]) -> TokenStream:
        """The stream of ``tokens``, in order, their strings interned."""
        tokens = list(tokens)
        ts = cls()
        ts._surfaces = list(map(intern, map(attrgetter("surface"), tokens)))
        ts._tags = list(map(intern, map(attrgetter("pos"), tokens)))
        ts._sentence_ids = list(map(attrgetter("sentence_id"), tokens))
        ts._stops = bytearray(map(bool, map(attrgetter("is_stop"), tokens)))
        return ts

    surfaces = property(attrgetter("_surfaces"), doc="Each position's surface.")
    tags = property(attrgetter("_tags"), doc="Each position's tag.")
    sentence_ids = property(attrgetter("_sentence_ids"), doc="Each position's sentence id.")
    stops = property(attrgetter("_stops"), doc="Each position's stop flag, 1 or 0.")

    def sentence_bounds(self) -> list[int]:
        """Where each sentence starts, in order, then the stream's length:
        sentence s holds the positions from ``bounds[s]`` up to
        ``bounds[s + 1]``."""
        runs = map(list, map(itemgetter(1), groupby(self._sentence_ids)))
        return list(accumulate(map(len, runs), initial=0))

    def __len__(self) -> int:
        return len(self._surfaces)

    def __getitem__(self, index: int) -> Token:
        index = index_of(index)  # a slice raises TypeError, not a Token of lists
        return Token(self._surfaces[index], self._tags[index], self._sentence_ids[index],
                     self._stops[index] == 1)

    def __iter__(self) -> Iterator[Token]:
        return map(Token, self._surfaces, self._tags, self._sentence_ids,
                   map(bool, self._stops))

    def __repr__(self) -> str:
        return f"TokenStream.of({list(self)!r})"


def check_stream(ts: object) -> None:
    """Refuse anything but a ``TokenStream``, naming the constructor that
    makes one from a token list."""
    if not isinstance(ts, TokenStream):
        raise TypeError(f"expected a TokenStream, got {type(ts).__name__}; "
                        "TokenStream.of(tokens) makes one from Tokens")


@dataclass(frozen=True)
class Vocabulary:
    """Corpus-wide raw frequencies plus the stop-frequency threshold: N,
    each f(x) and F, read by the statistics and the stop rule alike. Each
    count and F are at least 1, and N is the sum of the counts.

    The frequency stop rule, ``is_frequency_stopped(word)``, is true when
    ``word`` occurs more than F times. It is derived once, as a probe of the
    set of such words (its ``__self__``), so the vocabulary is read-only:
    its fields cannot be reassigned, and ``freq`` must not be mutated.
    Equality and ``repr`` ignore the derived rule."""

    freq: dict[str, int]
    total_tokens: int
    stop_threshold: int
    is_frequency_stopped: Callable[[str], bool] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # A count below 1 would reach the statistics' log2 and sqrt as a
        # zero or negative expected count.
        if self.freq and min(self.freq.values()) < 1:
            word, count = next((w, n) for w, n in self.freq.items() if n < 1)
            raise ValueError(f"vocabulary count of {word!r} is {count}, below 1")
        if self.stop_threshold < 1:
            raise ValueError(f"vocabulary stop threshold must be >= 1, got {self.stop_threshold}")
        if (counted := sum(self.freq.values())) != self.total_tokens:
            raise ValueError(f"vocabulary N={self.total_tokens} but its counts sum to {counted}")
        stopped = frozenset(w for w, n in self.freq.items() if n > self.stop_threshold)
        object.__setattr__(self, "is_frequency_stopped", stopped.__contains__)


def _fill(ts: TokenStream, items: list[str], surface_of: dict[str, str], tag_of: dict[str, str],
          lengths: list[int], sentence_id: int) -> int:
    """Append ``items``, each parsed once into ``surface_of`` and
    ``tag_of``, to the stream's columns, as sentences of ``lengths``
    positions numbered on from ``sentence_id``, each flagged a stop word
    when its tag is in ``DEFAULT_STOP_TAGS``; return the next id."""
    ts._surfaces += map(surface_of.__getitem__, items)
    tags = list(map(tag_of.__getitem__, items))
    ts._tags += tags
    ts._stops += bytes(map(DEFAULT_STOP_TAGS.__contains__, tags))
    ts._sentence_ids += chain.from_iterable(map(repeat, count(sentence_id), lengths))
    return sentence_id + len(lengths)


# Slash text is split this many lines at a time, so that only one block's
# item strings are held at once: at 400k tokens, an ingest peak (tracemalloc)
# of 24 MB, against 56 MB for the text split in one block.
_BLOCK_LINES = 512


def _parse_slash(raw: str, ts: TokenStream, sentence_id: int = 0) -> None:
    """Append slash text to ``ts``, numbering its sentences from
    ``sentence_id``. Each distinct ``surface/TAG`` item is split, checked
    and interned once. A bad item raises with ``ts`` part filled."""
    lines = raw.splitlines()
    surface_of: dict[str, str] = {}
    tag_of: dict[str, str] = {}
    for first in range(0, len(lines), _BLOCK_LINES):
        split = list(map(str.split, lines[first:first + _BLOCK_LINES]))
        items = list(chain.from_iterable(split))
        for item in dict.fromkeys(items):  # in the order the items first occur
            if item in surface_of:
                continue
            surface, slash, pos = item.rpartition("/")
            if not surface or not pos or surface == GAP:
                if not slash:
                    problem = "missing '/' tag separator"
                elif surface == GAP:
                    problem = f"has the gap marker {GAP!r} as its surface"
                else:
                    problem = "has empty surface or tag"
                # The first bad item in the text is the first item equal to it.
                n = next(n for n, line_items in enumerate(split) if item in line_items)
                column = _column(lines[first + n], split[n].index(item))
                raise CorpusFormatError(f"token {item!r} {problem}", first + n + 1, column)
            surface_of[item] = intern(surface.lower())
            tag_of[item] = intern(pos)
        lengths = list(filter(None, map(len, split)))
        sentence_id = _fill(ts, items, surface_of, tag_of, lengths, sentence_id)


def _column(line: str, index: int) -> int:
    """1-based column of the ``index``-th whitespace-separated item of ``line``."""
    return list(re.finditer(r"\S+", line))[index].start() + 1


def _parse_tsv(raw: str, ts: TokenStream, sentence_id: int = 0) -> None:
    """Append tsv text to ``ts``, numbering its sentences from
    ``sentence_id``. Each distinct line is split, checked and interned
    once. A bad line raises with ``ts`` as it was."""
    lines = raw.splitlines()
    surface_of = {}
    tag_of = {}
    for line in dict.fromkeys(lines):  # in the order the lines first occur
        if not line.strip():
            continue
        fields = line.split("\t")
        problem = None
        column = 1
        if len(fields) != 2 or not fields[0] or not fields[1]:
            problem = f"expected 'surface<TAB>tag', got {line.strip()!r}"
        elif space := re.search(r"\s", fields[0]):
            problem = f"surface {fields[0]!r} contains whitespace"
            column = space.start() + 1
        elif fields[0] == GAP:
            problem = f"surface {GAP!r} is the gap marker"
        if problem is not None:
            raise CorpusFormatError(problem, lines.index(line) + 1, column)
        surface_of[line] = intern(fields[0].lower())
        tag_of[line] = intern(fields[1])
    is_token = list(map(surface_of.__contains__, lines))
    lengths = [sum(run) for token, run in groupby(is_token) if token]
    _fill(ts, list(compress(lines, is_token)), surface_of, tag_of, lengths, sentence_id)


_PARSERS = {"slash": _parse_slash, "tsv": _parse_tsv}


def ingest(raw: str, cfg: CorpusConfig = CorpusConfig()) -> TokenStream:
    """Parse tagged text into a token stream, in corpus order.

    The parsers flag stops by tag (``DEFAULT_STOP_TAGS``); build_vocabulary
    adds the frequency stops, which need the whole vocabulary.
    """
    ts = TokenStream()
    _PARSERS[cfg.format](raw, ts)
    return ts


def _decode(data: bytes) -> str:
    """``data`` as UTF-8 text. A byte that does not decode raises
    ``CorpusFormatError`` at its line and column (in characters), found only
    then, the text before it split as the parsers split it."""
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        lines = (data[:exc.start].decode() + "?").splitlines()
        raise CorpusFormatError(bad_byte(exc), len(lines), len(lines[-1])) from None


def ingest_files(paths: list[str | Path], cfg: CorpusConfig = CorpusConfig()) -> TokenStream:
    """Ingest several files and concatenate them in the given order, each
    file's sentences numbered on from the last file's. A file that does not
    decode as UTF-8 raises ``CorpusFormatError`` at its first bad byte. Only
    the text of a file is held while it is parsed, not its bytes."""
    parse = _PARSERS[cfg.format]
    ts = TokenStream()
    ids = ts._sentence_ids
    for path in paths:
        try:
            parse(_decode(Path(path).read_bytes()), ts, ids[-1] + 1 if ids else 0)
        except CorpusFormatError as exc:
            raise CorpusFormatError(exc.message, exc.line, exc.column, path) from None
    return ts


def apply_stop_policy(ts: TokenStream, vocab: Vocabulary, cfg: CorpusConfig | None = None) -> None:
    """Recompute every stop flag of a stream: a tag in ``DEFAULT_STOP_TAGS``,
    or a word ``vocab`` counts more than F times. The vocabulary is normally
    the training one, even for held-out text: frequency-based stops are a
    training-corpus property. A gap sentence takes the same rule from
    ``choice.parse_gap_sentence``. ``cfg`` is not read, as the threshold is
    the vocabulary's own; it is kept because ``bench/workloads.py`` passes it.

    It takes one probe a position: a frequency-stopped word reads as the
    stop tag ``CD`` in place of its own tag."""
    check_stream(ts)
    as_stop_tag = dict.fromkeys(vocab.is_frequency_stopped.__self__, "CD")
    ts._stops = bytearray(map(DEFAULT_STOP_TAGS.__contains__,
                              map(as_stop_tag.get, ts._surfaces, ts._tags)))


def build_vocabulary(ts: TokenStream, cfg: CorpusConfig = CorpusConfig()) -> Vocabulary:
    """Count every token occurrence and re-flag the stream's stop words in place."""
    check_stream(ts)
    vocab = Vocabulary(dict(Counter(ts.surfaces)), total_tokens=len(ts),
                       stop_threshold=cfg.stop_threshold)
    apply_stop_policy(ts, vocab)
    return vocab


def write_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    lines = [f"N={vocab.total_tokens}", f"F={vocab.stop_threshold}"]
    for word in sorted(vocab.freq):
        lines.append(f"{word}\t{vocab.freq[word]}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_vocabulary(path: str | Path) -> Vocabulary:
    """Read a table written by ``write_vocabulary`` through
    ``ioutil.ArtifactLines``: ``N=`` and optionally ``F=`` (at least 1), then
    ``word<TAB>str(count)`` rows, words non-empty, free of whitespace and
    strictly rising; ``Vocabulary`` checks the counts are >= 1 and sum to N."""
    lines = ArtifactLines(path)
    header: dict[str, int] = {}
    freq: dict[str, int] = {}
    counts = IntTexts(1)
    last = ""  # the last row's word
    for chunk in lines.chunks():
        for line in chunk:
            try:
                word, count = line.split("\t")
                n = counts[count]
                if word <= last or word.split() != [word]:
                    raise ValueError
            except ValueError:
                lines.check(line, _row_problem, header, last)
                continue
            freq[word] = n
            last = word
    if "N" not in header:
        raise ValueError(f"{lines.path}: missing N= header")
    try:
        return Vocabulary(freq, header["N"], header.get("F", DEFAULT_STOP_THRESHOLD))
    except ValueError as exc:
        raise ValueError(f"{lines.path}: {exc}") from None


def _row_problem(text: str, header: dict[str, int], last: str) -> str | None:
    """What is wrong with a vocabulary line's text after the row of word
    ``last`` ("" before any); None for a good header line, filed under ``header``."""
    if "=" in text and "\t" not in text:
        return header_problem(text, header, {"N": ("tokens", int, None),
                                             "F": ("threshold", int, lambda n: n >= 1)},
                              after="row" if last else None)
    word, *count = text.split("\t")
    if len(count) == 1 and word.split() != [word]:
        return f"word {word!r} is empty or holds whitespace"
    if len(count) == 1 and word <= last:
        return f"word {word!r} does not sort after the word before it, {last!r}"
    return f"expected 'word<TAB>count, count >= 1', got {text!r}"
