"""Atomic file writes: outputs land complete or not at all."""

from __future__ import annotations

import os
import tempfile
from typing import Iterable


def atomic_write(path: str, chunks: Iterable) -> None:
    """Write each byte buffer of `chunks` in turn, then move the file into place.

    The buffers are written as they come, so no joined copy is made. If any
    write or the iteration itself raises, `path` is left as it was.
    """
    directory = os.path.dirname(os.path.abspath(path))
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
