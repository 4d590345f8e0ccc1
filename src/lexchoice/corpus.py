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
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from sys import intern

from .ioutil import atomic_write_text

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
    stop policy."""

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


TokenStream = list[Token]


@dataclass(frozen=True)
class Vocabulary:
    """Corpus-wide raw frequencies plus the stop-frequency threshold: N,
    each f(x) and F, read by the statistics and the stop rule alike. Each
    count and F are at least 1, and N is the sum of the counts.

    The frequency stop rule, ``is_frequency_stopped(word)``, is true when
    ``word`` occurs more than F times. It is derived once, as a probe of the
    set of such words, so the vocabulary is read-only: its fields cannot be
    reassigned, and ``freq`` must not be mutated. Equality and ``repr``
    ignore the derived rule."""

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
        if self.total_tokens != sum(self.freq.values()):
            raise ValueError("vocabulary total_tokens does not match sum of counts")
        stopped = frozenset(w for w, n in self.freq.items() if n > self.stop_threshold)
        object.__setattr__(self, "is_frequency_stopped", stopped.__contains__)


def _parse_slash(raw: str, sentence_id: int = 0) -> TokenStream:
    """Parse slash text, numbering its sentences from ``sentence_id``. Each
    distinct ``surface/TAG`` item is split, checked and interned once, the
    first time it occurs; a bad item is never kept."""
    tokens: TokenStream = []
    parsed: dict[str, tuple[str, str, bool]] = {}
    for line_no, line in enumerate(raw.splitlines(), 1):
        items = line.split()
        if not items:
            continue
        for item in items:
            fields = parsed.get(item)
            if fields is None:
                surface, slash, pos = item.rpartition("/")
                if not surface or not pos or surface == GAP:
                    # The first bad item on the line is the first item equal to it.
                    if not slash:
                        problem = "missing '/' tag separator"
                    elif surface == GAP:
                        problem = f"has the gap marker {GAP!r} as its surface"
                    else:
                        problem = "has empty surface or tag"
                    raise CorpusFormatError(
                        f"token {item!r} {problem}", line_no, _column(line, items.index(item))
                    )
                fields = parsed[item] = (intern(surface.lower()), intern(pos),
                                         pos in DEFAULT_STOP_TAGS)
            surface, pos, is_stop = fields
            tokens.append(Token(surface, pos, sentence_id, is_stop))
        sentence_id += 1
    return tokens


def _column(line: str, index: int) -> int:
    """1-based column of the ``index``-th whitespace-separated item of ``line``."""
    return list(re.finditer(r"\S+", line))[index].start() + 1


def _parse_tsv(raw: str, sentence_id: int = 0) -> TokenStream:
    """Parse tsv text, numbering its sentences from ``sentence_id``."""
    tokens: TokenStream = []
    sentence_open = False
    for line_no, line in enumerate(raw.splitlines(), 1):
        if not line.strip():
            if sentence_open:
                sentence_id += 1
                sentence_open = False
            continue
        fields = line.rstrip("\n").split("\t")
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
        tokens.append(Token(intern(fields[0].lower()), intern(fields[1]), sentence_id,
                            fields[1] in DEFAULT_STOP_TAGS))
        sentence_open = True
    return tokens


_PARSERS = {"slash": _parse_slash, "tsv": _parse_tsv}


def ingest(raw: str, cfg: CorpusConfig = CorpusConfig()) -> TokenStream:
    """Parse tagged text into a token stream, in corpus order.

    The parsers flag stops by tag (``DEFAULT_STOP_TAGS``); build_vocabulary
    adds the frequency stops, which need the whole vocabulary.
    """
    return _PARSERS[cfg.format](raw)


def ingest_files(paths: list[str | Path], cfg: CorpusConfig = CorpusConfig()) -> TokenStream:
    """Ingest several files and concatenate them in the given order, each
    file's sentences numbered on from the last file's."""
    parse = _PARSERS[cfg.format]
    stream: TokenStream = []
    for path in paths:
        first_id = stream[-1].sentence_id + 1 if stream else 0
        try:
            stream.extend(parse(Path(path).read_text(encoding="utf-8"), first_id))
        except CorpusFormatError as exc:
            raise CorpusFormatError(exc.message, exc.line, exc.column, path) from None
    return stream


def apply_stop_policy(ts: TokenStream, vocab: Vocabulary,
                      cfg: CorpusConfig | None = None) -> None:
    """Recompute every token's stop flag from tags (``DEFAULT_STOP_TAGS``)
    and ``vocab.is_frequency_stopped``. ``cfg`` is not read: the threshold
    is the vocabulary's own, and the argument is kept only for callers that
    still pass it.

    The vocabulary is normally the training one: frequency-based stops are a
    training-corpus property even when flagging held-out text or a gap
    sentence.
    """
    stopped = vocab.is_frequency_stopped
    for tok in ts:
        tok.is_stop = tok.pos in DEFAULT_STOP_TAGS or stopped(tok.surface)


def build_vocabulary(ts: TokenStream, cfg: CorpusConfig = CorpusConfig()) -> Vocabulary:
    """Count every token occurrence and re-flag the stream's stop words in place."""
    freq = Counter(tok.surface for tok in ts)
    vocab = Vocabulary(dict(freq), total_tokens=len(ts), stop_threshold=cfg.stop_threshold)
    apply_stop_policy(ts, vocab)
    return vocab


def write_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    lines = [f"N={vocab.total_tokens}", f"F={vocab.stop_threshold}"]
    for word in sorted(vocab.freq):
        lines.append(f"{word}\t{vocab.freq[word]}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_vocabulary(path: str | Path) -> Vocabulary:
    """Read a table written by ``write_vocabulary``: an ``N=`` line, an
    optional ``F=`` line of at least 1, then ``word<TAB>count`` rows whose
    counts are at least 1 and sum to N, each word non-empty, free of
    whitespace and on one row only. Anything else raises ValueError naming
    the file and line."""
    path = Path(path)
    freq: dict[str, int] = {}
    total = None
    threshold = DEFAULT_STOP_THRESHOLD
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        problem = None
        try:
            if line_no == 1:
                expected = "N=<tokens>"
                if not line.startswith("N="):
                    raise ValueError
                total = int(line[2:])
            elif line_no == 2 and line.startswith("F="):
                expected = "F=<threshold>"
                threshold = int(line[2:])
                if threshold < 1:
                    raise ValueError
            elif line.strip():
                expected = "word<TAB>count, count >= 1"
                word, count = line.split("\t")
                n = int(count)
                if n < 1:
                    raise ValueError
                if word.split() != [word]:  # empty, or breaks at whitespace
                    problem = f"word {word!r} is empty or holds whitespace"
                elif word in freq:
                    problem = f"word {word!r} repeats an earlier row"
                else:
                    freq[word] = n
        except ValueError:
            problem = f"expected '{expected}', got {line!r}"
        if problem is not None:
            raise ValueError(f"{path}: line {line_no}: {problem}")
    if total is None:
        raise ValueError(f"{path}: line 1: missing N= header")
    counted = sum(freq.values())
    if counted != total:
        raise ValueError(f"{path}: line 1: N={total} but the counts sum to {counted}")
    return Vocabulary(freq, total_tokens=total, stop_threshold=threshold)
