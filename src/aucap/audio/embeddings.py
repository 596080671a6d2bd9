"""Ingestion of precomputed clip embeddings (VGGish / PANNs) from AUCAP-EMB files."""

from __future__ import annotations

import os

import numpy as np

from .. import embfile
from ..errors import EmbeddingFormatError

# Per-variant feature width: log-Mel frames, per-second VGGish rows,
# single whole-clip PANNs vector.
VARIANT_DIMS = {"logmel": 64, "vggish": 128, "panns": 2048}


def parse_variant_features(blob: bytes, path: str | os.PathLike, variant: str) -> np.ndarray:
    """Parse a clip's (rows, dim) feature matrix from ``blob``, the bytes of its
    file ``path``, under the rules of ``variant``.

    The dim must be the variant's and the file must hold a row; panns files
    hold exactly one 2048-vector, vggish and logmel files one row per second
    / frame.
    """
    values = embfile.parse_matrix(blob, path, expected_dim=VARIANT_DIMS[variant])
    if values.shape[0] == 0:
        raise EmbeddingFormatError(f"{path}: embedding file holds no rows")
    if variant == "panns" and values.shape[0] != 1:
        raise EmbeddingFormatError(
            f"{path}: panns files hold exactly one row, got {values.shape[0]}")
    return values
