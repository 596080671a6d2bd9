"""AUCAP-EMB v1 container: the project's on-disk matrix format.

Layout is bit-exact: one ASCII header line ``AUCAP-EMB v1 dim=<D> rows=<R>\\n``
followed by R*D little-endian IEEE-754 float32 values in row-major order.
The same container carries clip embeddings (dim 2048 / 128), cached log-Mel
features, word embeddings (dim 256) and SVE matrices (dim K). A log-Mel cache
holds one row per frame of the fixed recipe in ``audio.features``, as wide as
its band count; only the clip length, and so the row count, varies.

Checkpoint payloads reuse the container at each tensor's own width: a
float32 tensor is a plain v1 (f4) record, and a float64 one carries an extra
``dtype=f8`` header token for a lossless round-trip. Plain readers reject that
token, so interchange files remain exactly the v1 format.

One encoder and one parser serve files and in-memory records alike:
:func:`write_matrix` casts the values to float32, checks them and writes what
:func:`pack_matrix` builds; :func:`read_matrix` hands the file's bytes to
:func:`parse_matrix`, which parses them with :func:`unpack_matrix`, rejects
anything after the record and returns the stored float32 values, uncopied.
"""

from __future__ import annotations

import os

import numpy as np

from . import atomic
from .errors import EmbeddingFormatError

_MAX_HEADER = 128  # header line is tiny; anything longer is corrupt


def write_matrix(path: str | os.PathLike, values: np.ndarray) -> None:
    """Write a 1-D or 2-D matrix as a v1 file, cast to float32 once and checked
    as cast: a value beyond the float32 range is refused, not written as inf.
    The file is replaced whole (:func:`atomic.write_bytes`): a failed write
    leaves an earlier file at ``path`` as it was."""
    with np.errstate(over="ignore"):  # an overflow is the inf the check below refuses
        arr = np.asarray(values, dtype=np.float32)
    if arr.ndim not in (1, 2):
        raise EmbeddingFormatError(f"expected a 1-D or 2-D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise EmbeddingFormatError("refusing to write non-finite values")
    atomic.write_bytes(path, pack_matrix(arr))


def pack_matrix(values: np.ndarray, *, dtype: str = "f4") -> bytes:
    """One container record as bytes; ``dtype`` is ``f4`` (v1) or ``f8`` (checkpoints only)."""
    if dtype not in ("f4", "f8"):
        raise EmbeddingFormatError(f"unsupported dtype {dtype!r}")
    arr = np.asarray(values)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    rows, dim = arr.shape
    token = " dtype=f8" if dtype == "f8" else ""
    header = f"AUCAP-EMB v1 dim={dim} rows={rows}{token}\n"
    return header.encode("ascii") + arr.astype(f"<{dtype}").tobytes()


def _parse_header(line: bytes, *, allow_f8: bool) -> tuple[int, int, str]:
    try:
        text = line.decode("ascii")
    except UnicodeDecodeError as exc:
        raise EmbeddingFormatError("header is not ASCII") from exc
    parts = text.strip().split(" ")
    if len(parts) < 4 or parts[0] != "AUCAP-EMB" or parts[1] != "v1":
        raise EmbeddingFormatError(f"bad magic in header {text.strip()!r}")
    fields = {}
    for token in parts[2:]:
        if "=" not in token:
            raise EmbeddingFormatError(f"bad header token {token!r}")
        key, _, value = token.partition("=")
        fields[key] = value
    extra = set(fields) - {"dim", "rows", "dtype"}
    if extra:
        raise EmbeddingFormatError(f"unknown header fields {sorted(extra)}")
    if "dim" not in fields or "rows" not in fields:
        raise EmbeddingFormatError("header missing dim= or rows=")
    try:
        dim = int(fields["dim"])
        rows = int(fields["rows"])
    except ValueError as exc:
        raise EmbeddingFormatError("dim/rows are not integers") from exc
    if dim <= 0 or rows < 0:
        raise EmbeddingFormatError(f"invalid dim={dim} rows={rows}")
    dtype = fields.get("dtype", "f4")
    if dtype == "f8" and not allow_f8:
        raise EmbeddingFormatError("dtype=f8 payloads are only valid inside checkpoints")
    if dtype not in ("f4", "f8"):
        raise EmbeddingFormatError(f"unsupported dtype {dtype!r}")
    return rows, dim, dtype


def unpack_matrix(blob: bytes, *, allow_f8: bool = False,
                  offset: int = 0) -> tuple[np.ndarray, int]:
    """Parse the container record at ``blob[offset:]``; returns (matrix, bytes_consumed).

    The matrix is a read-only view of ``blob`` at the record's width (f4 or f8).
    Raises :class:`EmbeddingFormatError` on a corrupt header, a truncated
    payload or non-finite values; bytes after the record are the caller's.
    """
    newline = blob.find(b"\n", offset, offset + _MAX_HEADER)
    if newline < 0:
        raise EmbeddingFormatError("missing or oversized header line")
    rows, dim, dtype = _parse_header(blob[offset : newline + 1], allow_f8=allow_f8)
    start = newline + 1
    size = rows * dim * (4 if dtype == "f4" else 8)
    if len(blob) - start < size:
        raise EmbeddingFormatError(f"payload truncated ({len(blob) - start} < {size} bytes)")
    arr = np.frombuffer(blob, dtype=f"<{dtype}", count=rows * dim, offset=start)
    arr = arr.reshape(rows, dim)
    if not np.all(np.isfinite(arr)):
        raise EmbeddingFormatError("non-finite values in payload")
    return arr, start + size - offset


def read_matrix(path: str | os.PathLike, *, expected_dim: int | None = None) -> np.ndarray:
    """Read an AUCAP-EMB v1 file into a (rows, dim) float32 array with :func:`parse_matrix`."""
    with open(path, "rb") as fh:
        return parse_matrix(fh.read(), path, expected_dim=expected_dim)


def parse_matrix(blob: bytes, path: str | os.PathLike, *,
                 expected_dim: int | None = None) -> np.ndarray:
    """Parse ``blob``, the bytes of the AUCAP-EMB v1 file ``path``, into a (rows, dim) array.

    The array is a read-only float32 view of ``blob``. Raises
    :class:`EmbeddingFormatError`, naming ``path``, on anything :func:`unpack_matrix`
    rejects, on bytes after the payload, or on a dim that differs from ``expected_dim``.
    """
    try:
        arr, end = unpack_matrix(blob)
    except EmbeddingFormatError as exc:
        raise EmbeddingFormatError(f"{path}: {exc}") from None
    if end < len(blob):
        raise EmbeddingFormatError(f"{path}: {len(blob) - end} trailing bytes after payload")
    if expected_dim is not None and arr.shape[1] != expected_dim:
        raise EmbeddingFormatError(f"{path}: dim={arr.shape[1]} but expected {expected_dim}")
    return arr
