"""Shared file helpers: write-to-temp plus atomic rename, so concurrent
invocations never observe half-written artifacts; the one reader of an
artifact's lines and header lines; and a UTF-8 read of corpus text that
names the place of a byte it cannot decode."""

from __future__ import annotations

import os
import tempfile
from collections.abc import Callable, Iterable, Iterator
from io import BytesIO
from pathlib import Path
from typing import NoReturn


def _bad_byte(error: UnicodeDecodeError) -> str:
    return f"byte 0x{error.object[error.start]:02x} does not decode as UTF-8 ({error.reason})"


class UndecodableText(ValueError):
    """Corpus text holds bytes that do not decode as UTF-8. The text names
    the path and the line; ``line`` and ``column`` (1-based, the column in
    characters) place the bad byte ``error`` names, ``before`` being the
    text of its line before it, and ``message`` says what is wrong with it.
    Lines are broken as ``str.splitlines`` breaks them."""

    def __init__(self, path: str | Path, line: int, before: str, error: UnicodeDecodeError):
        self.message = _bad_byte(error)
        super().__init__(f"{path}: line {line}: {self.message}")
        self.line = line
        self.column = len(before) + 1


def read_text(path: str | Path) -> str:
    """The text of the corpus file ``path``, decoded as UTF-8 with its line
    ends kept, for the corpus parsers, which split it with
    ``str.splitlines``. Bytes that do not decode raise ``UndecodableText``;
    their place is worked out only then."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = (data[:exc.start].decode("utf-8") + "?").splitlines()
        raise UndecodableText(path, len(lines), lines[-1][:-1], exc) from None


class ArtifactLines:
    """The lines of an artifact file: what its writer writes, plus blank
    lines (only whitespace), which are skipped. Every line is UTF-8 and ends
    in ``\\n``, its only break; one that is not, or breaks its reader's own
    rules, is refused naming the file and its ``\\n``-counted line. A line is
    numbered only then, by the chunks before it and its place in its chunk,
    found by identity: only a blank line, never refused, or a one-character
    one, refused where it first comes, can share its object."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lines: list = []  # the chunk handed out last
        self._before = 0  # the lines of the chunks before it

    def chunks(self, decode: bool = False) -> Iterator[list]:
        """The lines in chunks of about 64 KB: bytes, each that the reader
        cannot take passed to ``check``; or ``decode``d, less their ``\\n``
        and held to the line rules, a whole chunk at once where it keeps them."""
        with open(self.path, "rb") as file:
            while chunk := file.read(1 << 16):
                chunk += file.readline()
                if not decode:
                    self._lines = BytesIO(chunk).readlines()
                else:
                    try:
                        text = chunk.decode()
                    except UnicodeDecodeError:
                        text = ""
                    self._lines = text.splitlines()
                    if len(self._lines) != chunk.count(b"\n") or "\r" in text or text[-1:] != "\n":
                        self._lines = BytesIO(chunk).readlines()  # where check numbers a line
                        self._lines = list(map(self.check, self._lines))
                yield self._lines
                self._before += chunk.count(b"\n")

    def check(self, line: bytes, problem: Callable | None = None, *args) -> str:
        """A line of bytes decoded, less its ``\\n``, refused unless blank or
        kept to the line rules and ``problem(text, *args)`` finds nothing wrong."""
        try:
            text = line.decode()
        except UnicodeDecodeError as exc:
            self.refuse(line, _bad_byte(exc))
        body = text.removesuffix("\n")
        if body.strip():
            if body.splitlines() != [body]:
                self.refuse(line, f"{body!r} holds a line break other than \\n")
            if body == text:
                self.refuse(line, f"{body!r} does not end in \\n")
            if problem is not None and (found := problem(body, *args)) is not None:
                self.refuse(line, found)
        return body

    def refuse(self, line: bytes | str, problem: str) -> NoReturn:
        """Raise ValueError naming the file, ``line`` and its ``problem``."""
        number = self._before + next(i for i, x in enumerate(self._lines, 1) if x is line)
        raise ValueError(f"{self.path}: line {number}: {problem}") from None


def header_problem(text: str, header: dict, rules: dict[str, tuple[str, Callable]],
                   sep: str = "=", after: str | None = None) -> str | None:
    """What is wrong with the header line ``text``, ``KEY<sep>value``, or None
    once its value is filed under ``header``. ``rules`` give each key what its
    value means and its parser, which raises ValueError or KeyError for a bad
    one. A key comes once, and none after the first row, of kind ``after``."""
    key, _, value = text.partition(sep)
    shown = key + sep.strip()
    if after is not None:
        return f"header line {shown} after the first {after}"
    if key not in rules:
        return f"unknown header key {key!r}"
    if key in header:
        return f"header key {shown} repeats an earlier line"
    meaning, parse = rules[key]
    try:
        if not value or sep in value:
            raise ValueError(value)
        header[key] = parse(value)
    except (ValueError, KeyError):
        return f"expected '{key}{sep}<{meaning}>', got {text!r}"
    return None


def at_least_1(text: str) -> int:
    """A header value: an integer of at least 1."""
    if (n := int(text)) < 1:
        raise ValueError(text)
    return n


# A header value: 0 or 1, as written.
zero_or_one = {"0": False, "1": True}.__getitem__


class CountTexts(dict):
    """Count texts in UTF-8 as the writers write them, line end included,
    each parsed once: ``str(n)`` for an n of at least 1, else ValueError."""

    def __missing__(self, text: bytes) -> int:
        n = int(text)
        if n < 1 or text != b"%d\n" % n:
            raise ValueError(text)
        self[text] = n
        return n


def atomic_write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write ``text``, or each of its pieces in turn, to ``path`` atomically."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
