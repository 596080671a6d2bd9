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
:func:`write_matrix` casts the values to float32, checks them and writes the
header and the values :func:`pack_matrix` returns, uncopied; :func:`read_matrix`
hands the file's bytes to :func:`parse_matrix`, which parses them with
:func:`unpack_matrix`, rejects anything after the record and returns the
stored float32 values, uncopied.
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
    if arr.size and not np.isfinite([arr.min(), arr.max()]).all():  # min/max keep NaN and inf
        raise EmbeddingFormatError("refusing to write non-finite values")
    atomic.write_bytes(path, *pack_matrix(arr))


def pack_matrix(values: np.ndarray, *, dtype: str = "f4") -> tuple[bytes, np.ndarray]:
    """A container record's header line, and its payload: ``values`` as a C-contiguous
    little-endian ``f4`` (v1) or ``f8`` (checkpoints only) array, not copied if it is one."""
    if dtype not in ("f4", "f8"):
        raise EmbeddingFormatError(f"unsupported dtype {dtype!r}")
    arr = np.asarray(values)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    rows, dim = arr.shape
    token = " dtype=f8" if dtype == "f8" else ""
    header = f"AUCAP-EMB v1 dim={dim} rows={rows}{token}\n"
    return header.encode("ascii"), np.ascontiguousarray(arr, dtype=f"<{dtype}")


def parse_header(line: bytes, magic: str, counts: tuple, optional: tuple = ()) -> dict:
    """The fields of a container header ``<magic> key=value ...`` (without its
    newline), the grammar of this container and of checkpoints: each of
    ``counts`` once, as a non-negative integer, and each of ``optional`` at most
    once, as text. Anything else raises :class:`EmbeddingFormatError`."""
    try:
        text = line.decode("ascii")
    except UnicodeDecodeError as exc:
        raise EmbeddingFormatError("header is not ASCII") from exc
    if not text.startswith(magic + " "):
        raise EmbeddingFormatError(f"bad magic in header {text!r}")
    fields = {}
    for token in text[len(magic) + 1:].split(" "):
        key, sep, value = token.partition("=")
        if not sep:
            raise EmbeddingFormatError(f"bad header token {token!r}")
        if key not in counts + optional or key in fields:
            raise EmbeddingFormatError(f"unknown or repeated header field {key!r}")
        if key in counts and not value.isdigit():  # ASCII digits only: no sign, no '_'
            raise EmbeddingFormatError(f"header field {token!r} is not a non-negative integer")
        fields[key] = int(value) if key in counts else value
    missing = [f"{key}=" for key in counts if key not in fields]
    if missing:
        raise EmbeddingFormatError(f"header missing {' and '.join(missing)}")
    return fields


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
    fields = parse_header(blob[offset:newline], "AUCAP-EMB v1", ("dim", "rows"), ("dtype",))
    rows, dim, dtype = fields["rows"], fields["dim"], fields.get("dtype", "f4")
    if dim == 0:
        raise EmbeddingFormatError(f"invalid dim=0 rows={rows}")
    if dtype == "f8" and not allow_f8:
        raise EmbeddingFormatError("dtype=f8 payloads are only valid inside checkpoints")
    if dtype not in ("f4", "f8"):
        raise EmbeddingFormatError(f"unsupported dtype {dtype!r}")
    start = newline + 1
    size = rows * dim * (4 if dtype == "f4" else 8)
    if len(blob) - start < size:
        raise EmbeddingFormatError(f"payload truncated ({len(blob) - start} < {size} bytes)")
    arr = np.frombuffer(blob, dtype=f"<{dtype}", count=rows * dim, offset=start)
    arr = arr.reshape(rows, dim)
    if arr.size and not np.isfinite([arr.min(), arr.max()]).all():  # min/max keep NaN and inf
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
