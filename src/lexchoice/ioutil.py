"""The artifact layer: write-to-temp plus atomic rename, so concurrent
invocations never observe half-written artifacts, and the one reader of an
artifact's lines and header lines, with the parsers of their values. Its
message for a byte that does not decode as UTF-8 is shared with the corpus
reader."""

from __future__ import annotations

import os
import tempfile
from collections.abc import Callable, Iterable, Iterator
from io import BytesIO
from pathlib import Path
from typing import NoReturn


def bad_byte(error: UnicodeDecodeError) -> str:
    """What is wrong with the byte at which the UTF-8 decode ``error`` stopped."""
    return f"byte 0x{error.object[error.start]:02x} does not decode as UTF-8 ({error.reason})"


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

    def chunks(self, decode: bool = False) -> Iterator[Iterable]:
        """The lines in chunks of about 64 KB: bytes, each that the reader
        cannot take passed to ``check``; or ``decode``d, less their ``\\n``
        and held to the line rules, a whole chunk at once where it keeps
        them, else each line as the reader takes it."""
        with open(self.path, "rb") as file:
            while chunk := file.read(1 << 16):
                chunk += file.readline()
                if not decode:
                    self._lines = BytesIO(chunk).readlines()
                    yield self._lines
                else:
                    try:
                        text = chunk.decode()
                    except UnicodeDecodeError:
                        text = ""
                    self._lines = text.splitlines()
                    if len(self._lines) != chunk.count(b"\n") or "\r" in text or text[-1:] != "\n":
                        self._lines = BytesIO(chunk).readlines()
                        yield self._checked()
                    else:
                        yield self._lines
                self._before += chunk.count(b"\n")

    def _checked(self) -> Iterator[str]:
        """The chunk's byte lines, each passed to ``check`` when the reader
        takes it and then replaced by its text, where ``refuse`` finds it."""
        for i, line in enumerate(self._lines):
            self._lines[i] = self.check(line)
            yield self._lines[i]

    def check(self, line: bytes, problem: Callable | None = None, *args) -> str:
        """A line of bytes decoded, less its ``\\n``, refused unless blank or
        kept to the line rules and ``problem(text, *args)`` finds nothing wrong."""
        try:
            text = line.decode()
        except UnicodeDecodeError as exc:
            self.refuse(line, bad_byte(exc))
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


def written_int(text: str) -> int:
    """An integer as the writers write it, ``str(n)``, else ValueError: so no
    plus sign, leading zero, space or underscore."""
    if text != str(n := int(text)):
        raise ValueError(text)
    return n


def written_number(text: str) -> int | float:
    """An int or a float as the writers write it, ``str(x)``, else ValueError."""
    if text != str(x := int(text) if text.lstrip("-").isdigit() else float(text)):
        raise ValueError(text)
    return x


def at_least_1(text: str) -> int:
    """A header value: an integer of at least 1, written as ``str(n)``."""
    if (n := written_int(text)) < 1:
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


class IntTexts(dict):
    """Integer texts, each parsed once by ``written_int``."""

    def __missing__(self, text: str) -> int:
        self[text] = n = written_int(text)
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
