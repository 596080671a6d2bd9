"""Whole-file artifact writes.

A writer fills a sibling temp file and renames it over the target with
``os.replace``, an atomic rename on POSIX. A write that fails partway
therefore leaves any earlier file byte-identical and removes its temp file;
readers never see a half-written artifact. There is no fsync, so this
guards against a failed or killed process, not against power loss.
"""

from __future__ import annotations

import os
from pathlib import Path


def write_bytes(path: str | os.PathLike, data: bytes) -> None:
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
