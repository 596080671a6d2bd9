"""Whole-file artifact reads and writes.

``read_text`` reads a UTF-8 text file whole and reports a file it cannot
read or decode as the caller's typed error.

A writer fills a sibling temp file and renames it over the target with
``os.replace``, an atomic rename on POSIX. A write that fails partway
therefore leaves any earlier file byte-identical and removes its temp file;
readers never see a half-written artifact. There is no fsync, so this
guards against a failed or killed process, not against power loss.
"""

from __future__ import annotations

import os
from pathlib import Path


def read_text(path: str | os.PathLike, what: str, error: type[Exception]) -> str:
    """The UTF-8 text of the file ``what`` names, line endings untranslated and
    a leading byte-order mark (as spreadsheet programs write) dropped. Raises
    ``error`` when it cannot be read (missing, a directory) or is not UTF-8."""
    try:
        return Path(path).read_bytes().decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None


def write_bytes(path: str | os.PathLike, *chunks) -> None:
    """Write ``chunks`` (bytes, or C-contiguous arrays as their memory) in order as ``path``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
