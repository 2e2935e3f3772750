"""Files at the boundary: one reader for line-oriented inputs, and atomic writes."""

from __future__ import annotations

import os
import tempfile
from typing import Iterable, Iterator

from .errors import FormatError


def read_lines(path: str) -> Iterator[tuple[int, str]]:
    """(line number, text) of each non-blank line in file order, from one read split
    where text mode splits (\\n, \\r\\n, \\r); the first line that is not UTF-8 raises
    FormatError naming the file, line, byte and offset."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: line {lineno}: invalid UTF-8 byte {raw[exc.start]:#04x} "
                              f"at offset {exc.start} ({exc.reason})") from None
        if line.strip():
            yield lineno, line


def atomic_write(path: str, chunks: Iterable) -> None:
    """Write each byte buffer of `chunks` in turn, then move the file into place.

    The buffers are written as they come, so no joined copy is made. If any
    write or the iteration itself raises, `path` is left as it was.
    """
    directory = os.path.dirname(path) or os.curdir  # "" and "." name the working directory
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write(path, [text.encode("utf-8")])
