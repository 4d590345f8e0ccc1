"""Shared file helpers: write-to-temp plus atomic rename, so concurrent
invocations never observe half-written artifacts, and a UTF-8 read that
names the place of a byte it cannot decode."""

from __future__ import annotations

import os
import tempfile
from collections.abc import Iterable
from pathlib import Path


class UndecodableText(ValueError):
    """A file holds bytes that do not decode as UTF-8. The text names the
    path and the line; ``line`` and ``column`` (1-based, the column in
    characters) place the bad byte ``error`` names, ``before`` being the
    text of its line before it, and ``message`` says what is wrong with it.
    Lines are broken as the reader breaks them."""

    def __init__(self, path: str | Path, line: int, before: str, error: UnicodeDecodeError):
        self.message = (f"byte 0x{error.object[error.start]:02x} does not decode as UTF-8 "
                        f"({error.reason})")
        super().__init__(f"{path}: line {line}: {self.message}")
        self.line = line
        self.column = len(before) + 1


def read_text(path: str | Path) -> str:
    """The text of ``path``, decoded as UTF-8 with its line ends kept, for
    readers that split it with ``str.splitlines``. Bytes that do not decode
    raise ``UndecodableText``; their place is worked out only then."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = (data[:exc.start].decode("utf-8") + "?").splitlines()
        raise UndecodableText(path, len(lines), lines[-1][:-1], exc) from None


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
