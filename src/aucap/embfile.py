"""AUCAP-EMB v1 container: the project's on-disk matrix format.

Layout is bit-exact: one ASCII header line ``AUCAP-EMB v1 dim=<D> rows=<R>\\n``
followed by R*D little-endian IEEE-754 float32 values in row-major order.
The same container carries clip embeddings (dim 2048 / 128), cached log-Mel
features (dim 64), word embeddings (dim 256) and SVE matrices (dim K).

Checkpoint payloads reuse the container with an extra ``dtype=f8`` header
token for lossless float64 round-trips; plain readers reject that token, so
interchange files remain exactly the v1 format.
"""

from __future__ import annotations

import os

import numpy as np

from . import atomic
from .errors import EmbeddingFormatError

MAGIC = b"AUCAP-EMB v1"
_MAX_HEADER = 128  # header line is tiny; anything longer is corrupt


def write_matrix(path: str | os.PathLike, values: np.ndarray, *, dtype: str = "f4") -> None:
    """Write a 2-D matrix; ``dtype`` is ``f4`` (standard) or ``f8`` (checkpoints only).

    The file is replaced whole (:func:`atomic.write_bytes`): a failed write
    leaves an earlier file at ``path`` as it was.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim not in (1, 2):
        raise EmbeddingFormatError(f"expected a 1-D or 2-D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise EmbeddingFormatError("refusing to write non-finite values")
    atomic.write_bytes(path, pack_matrix(arr, dtype=dtype))


def pack_matrix(values: np.ndarray, *, dtype: str = "f4") -> bytes:
    """In-memory form of :func:`write_matrix`, used by checkpoint containers."""
    if dtype not in ("f4", "f8"):
        raise EmbeddingFormatError(f"unsupported dtype {dtype!r}")
    arr = np.asarray(values, dtype=np.float64)
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


def _read_payload(data: bytes, rows: int, dim: int, dtype: str, where: str) -> np.ndarray:
    itemsize = 4 if dtype == "f4" else 8
    expected = rows * dim * itemsize
    if len(data) < expected:
        raise EmbeddingFormatError(f"{where}: payload truncated ({len(data)} < {expected} bytes)")
    if len(data) > expected:
        raise EmbeddingFormatError(f"{where}: {len(data) - expected} trailing bytes after payload")
    arr = np.frombuffer(data, dtype="<f4" if dtype == "f4" else "<f8", count=rows * dim)
    arr = arr.astype(np.float64).reshape(rows, dim)
    if not np.all(np.isfinite(arr)):
        raise EmbeddingFormatError(f"{where}: non-finite values in payload")
    return arr


def read_matrix(path: str | os.PathLike, *, expected_dim: int | None = None) -> np.ndarray:
    """Read an AUCAP-EMB v1 file into a (rows, dim) float64 array.

    Raises :class:`EmbeddingFormatError` on a corrupt header, truncated or
    oversized payload, non-finite values, or a dim that differs from
    ``expected_dim``.
    """
    with open(path, "rb") as fh:
        head = fh.readline(_MAX_HEADER)
        if not head.endswith(b"\n"):
            raise EmbeddingFormatError(f"{path}: missing or oversized header line")
        rows, dim, dtype = _parse_header(head, allow_f8=False)
        data = fh.read()
    if expected_dim is not None and dim != expected_dim:
        raise EmbeddingFormatError(f"{path}: dim={dim} but expected {expected_dim}")
    return _read_payload(data, rows, dim, dtype, str(path))


def unpack_matrix(blob: bytes, *, allow_f8: bool = False) -> tuple[np.ndarray, int]:
    """Parse one container record from ``blob``; returns (matrix, bytes_consumed)."""
    newline = blob.find(b"\n", 0, _MAX_HEADER)
    if newline < 0:
        raise EmbeddingFormatError("missing header line in packed record")
    rows, dim, dtype = _parse_header(blob[: newline + 1], allow_f8=allow_f8)
    itemsize = 4 if dtype == "f4" else 8
    end = newline + 1 + rows * dim * itemsize
    if len(blob) < end:
        raise EmbeddingFormatError("packed record truncated")
    arr = _read_payload(blob[newline + 1 : end], rows, dim, dtype, "packed record")
    return arr, end
