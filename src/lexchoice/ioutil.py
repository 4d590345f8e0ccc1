"""The artifact layer: write-to-temp plus atomic rename, so concurrent
invocations never observe half-written artifacts, and the one reader of an
artifact's lines, decoded and held to the line rules 64 KB at a time, with
the one rule for header lines and their values. Its message for a byte that
does not decode as UTF-8 is shared with the corpus reader."""

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

    def chunks(self) -> Iterator[Iterable[str]]:
        """The lines, decoded and less their ``\\n``, in chunks of about
        64 KB, held to the line rules a whole chunk at once where it keeps
        them, else each line as the reader takes it."""
        with open(self.path, "rb") as file:
            while chunk := file.read(1 << 16):
                chunk += file.readline()
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
        """The chunk's byte lines, each decoded and held to the line rules
        when the reader takes it, and only then replaced by its text, where
        ``refuse`` finds it."""
        for i, line in enumerate(self._lines):
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
            self._lines[i] = body
            yield body

    def check(self, line: str, problem: Callable, *args) -> None:
        """Refuse ``line`` unless blank or ``problem(line, *args)`` finds nothing wrong."""
        if line.strip() and (found := problem(line, *args)) is not None:
            self.refuse(line, found)

    def refuse(self, line: bytes | str, problem: str) -> NoReturn:
        """Raise ValueError naming the file, ``line`` and its ``problem``."""
        number = self._before + next(i for i, x in enumerate(self._lines, 1) if x is line)
        raise ValueError(f"{self.path}: line {number}: {problem}") from None


def header_problem(text: str, header: dict, rules: dict[str, tuple],
                   sep: str = "=", after: str | None = None) -> str | None:
    """What is wrong with the header line ``text``, ``KEY<sep>value``, or None
    once its value is filed under ``header``. ``rules`` give each key what
    its value means, what it is read as (``int``, ``number`` or ``str``) and
    the test of the values it may take, None for any. A value is taken only
    as its writer writes it, ``str`` of what it reads as, and only if its
    test passes. A key comes once, and none after the first row, of kind
    ``after``."""
    key, _, value = text.partition(sep)
    shown = key + sep.strip()
    if after is not None:
        return f"header line {shown} after the first {after}"
    if key not in rules:
        return f"unknown header key {key!r}"
    if key in header:
        return f"header key {shown} repeats an earlier line"
    meaning, read, allowed = rules[key]
    try:
        x = read(value)
        if not value or sep in value or str(x) != value or allowed is not None and not allowed(x):
            raise ValueError(value)
    except ValueError:
        return f"expected '{key}{sep}<{meaning}>', got {text!r}"
    header[key] = x
    return None


def number(text: str) -> int | float:
    """An int, or else a float: what a threshold header value reads as."""
    return int(text) if text.lstrip("-").isdigit() else float(text)


class IntTexts(dict):
    """Integer texts as the writers write them, ``str(n)``, each parsed
    once; one written otherwise or below ``least`` raises ValueError and is
    not kept."""

    def __init__(self, least: float = float("-inf")):
        self.least = least

    def __missing__(self, text: str) -> int:
        if text != str(n := int(text)) or n < self.least:
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
