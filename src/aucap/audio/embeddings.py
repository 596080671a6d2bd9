"""Ingestion of precomputed clip embeddings (VGGish / PANNs) from AUCAP-EMB files."""

from __future__ import annotations

import os

import numpy as np

from .. import embfile
from ..errors import EmbeddingFormatError

# Per-variant feature width: log-Mel frames, per-second VGGish rows,
# single whole-clip PANNs vector.
VARIANT_DIMS = {"logmel": 64, "vggish": 128, "panns": 2048}


def load_embedding_file(path: str | os.PathLike, expected_dim: int) -> np.ndarray:
    """Load one clip's (rows, dim) matrix, enforcing the dim; rows > 1 for per-second sources."""
    values = embfile.read_matrix(path, expected_dim=expected_dim)
    if values.shape[0] == 0:
        raise EmbeddingFormatError(f"{path}: embedding file holds no rows")
    return values


def load_variant_features(path: str | os.PathLike, variant: str) -> np.ndarray:
    """Load a feature matrix for a clip under the rules of ``variant``.

    panns files must hold exactly one 2048-vector; vggish and logmel files
    hold one row per second / frame.
    """
    if variant not in VARIANT_DIMS:
        raise ValueError(f"unknown variant {variant!r}, want one of {sorted(VARIANT_DIMS)}")
    values = load_embedding_file(path, VARIANT_DIMS[variant])
    if variant == "panns" and values.shape[0] != 1:
        raise EmbeddingFormatError(
            f"{path}: panns files hold exactly one row, got {values.shape[0]}")
    return values
