"""Named-tensor checkpoint container.

Layout:
    AUCAP-CKPT v1 tensors=<N> meta=<M>\\n
    <M bytes of JSON metadata>\\n
    <name> <d0>x<d1>...\\n          (one manifest line per tensor)
    <N payloads, concatenated in manifest order>

Payloads reuse the AUCAP-EMB container at each tensor's own width: a float32
tensor is a plain v1 (f4) payload and any other one takes the ``dtype=f8``
extension, and ``load_tensors`` returns each at its stored width (f4 as
float32, f8 as float64), so a save/load cycle reproduces the values, and a
re-save the file, bit for bit. The captioner and the MLP keep their
parameters at float32 and the batch-norm buffers at float64. A model's
``state()`` is a name -> array dict of its own arrays, which ``save_tensors``
writes uncopied; ``load_tensors`` returns read-only views of the file's bytes,
and ``load_state`` copies each into its parameter or buffer in place, cast to
the width it fills, so a float32 model loads a checkpoint written at f8 as well.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .. import atomic, embfile
from ..errors import CheckpointError, EmbeddingFormatError
from .tensor import Parameter

_MAGIC = "AUCAP-CKPT v1"


def _shape_text(shape: tuple) -> str:
    return "x".join(str(d) for d in shape) if shape else "scalar"


def state_tensor(state: dict[str, np.ndarray], name: str, shape: tuple) -> np.ndarray:
    """``state[name]``, not copied; CheckpointError if it is missing or not of ``shape``."""
    if name not in state:
        raise CheckpointError(f"missing tensor {name!r}")
    if np.shape(state[name]) != tuple(shape):
        raise CheckpointError(f"tensor {name!r} has shape {np.shape(state[name])}, "
                              f"expected {tuple(shape)}")
    return state[name]


def load_parameters(params: list[Parameter], state: dict[str, np.ndarray]) -> None:
    """Copy each parameter's tensor of ``state`` into its data in place, cast to its width."""
    for p in params:
        np.copyto(p.data, state_tensor(state, p.name, p.data.shape))


def save_tensors(path: str | os.PathLike, tensors: dict[str, np.ndarray], meta: dict) -> None:
    for name in tensors:
        if not name or any(ch.isspace() for ch in name):
            raise CheckpointError(f"tensor name {name!r} must be non-empty without whitespace")
    meta_blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    chunks = [f"{_MAGIC} tensors={len(tensors)} meta={len(meta_blob)}\n".encode("ascii"),
              meta_blob, b"\n"]
    payloads = []
    for name, values in tensors.items():
        arr = np.asarray(values)
        dtype = "f4" if arr.dtype == np.float32 else "f8"
        chunks.append(f"{name} {_shape_text(arr.shape)}\n".encode("ascii"))
        # an empty tensor is an empty payload of one column: its shape is the manifest's
        matrix = arr.reshape(arr.shape[0] if arr.ndim else 1, -1) if arr.size else np.zeros((0, 1))
        payloads.extend(embfile.pack_matrix(matrix, dtype=dtype))
    atomic.write_bytes(path, *chunks, *payloads)


def load_tensors(path: str | os.PathLike) -> tuple[dict[str, np.ndarray], dict]:
    try:
        blob = Path(path).read_bytes()
    except FileNotFoundError as exc:
        raise CheckpointError(f"checkpoint not found: {path}") from exc
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc.strerror or exc}") from exc

    newline = blob.find(b"\n")
    if newline < 0:
        raise CheckpointError(f"{path}: missing header line")
    try:
        fields = embfile.parse_header(blob[:newline], _MAGIC, ("tensors", "meta"))
    except EmbeddingFormatError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    count, meta_len = fields["tensors"], fields["meta"]

    pos = newline + 1
    meta_blob = blob[pos : pos + meta_len]
    if len(meta_blob) < meta_len or blob[pos + meta_len : pos + meta_len + 1] != b"\n":
        raise CheckpointError(f"{path}: truncated metadata block")
    try:
        meta = json.loads(meta_blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CheckpointError(f"{path}: metadata is not valid JSON") from exc
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: metadata is not a JSON object")
    pos += meta_len + 1

    manifest = []
    for _ in range(count):
        end = blob.find(b"\n", pos)
        if end < 0:
            raise CheckpointError(f"{path}: truncated manifest")
        line = blob[pos:end].decode("ascii", errors="replace")
        name, sep, shape_text = line.partition(" ")
        if not sep or not name:
            raise CheckpointError(f"{path}: bad manifest line {line!r}")
        dims = () if shape_text == "scalar" else shape_text.split("x")
        if not all(d.isdigit() for d in dims):  # no sign: a negative dim would reach reshape
            raise CheckpointError(f"{path}: bad shape field {shape_text!r}")
        manifest.append((name, tuple(int(d) for d in dims)))
        pos = end + 1

    tensors: dict[str, np.ndarray] = {}
    for name, shape in manifest:
        if name in tensors:
            raise CheckpointError(f"{path}: duplicate tensor {name!r}")
        try:
            arr, consumed = embfile.unpack_matrix(blob, allow_f8=True, offset=pos)
        except EmbeddingFormatError as exc:
            raise CheckpointError(f"{path}: payload for {name!r}: {exc}") from exc
        pos += consumed
        if arr.size != int(np.prod(shape)):  # 1 for the () of a scalar
            raise CheckpointError(f"{path}: tensor {name!r} holds {arr.size} values for "
                                  f"shape {shape}")
        tensors[name] = arr.reshape(shape)
    if pos != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - pos} trailing bytes")
    return tensors, meta
