"""Exception types raised across the aucap package.

Each loader / pipeline stage reports its failure mode with a distinct type so
callers (and the CLI) can categorize errors without string matching.
"""

import math


class AucapError(Exception):
    """Base class for all package-specific errors."""


class WavError(AucapError):
    """Base class for WAV ingestion failures."""


class WavMissingFileError(WavError):
    pass


class WavHeaderError(WavError):
    """Malformed or truncated RIFF/WAVE structure."""


class WavEncodingError(WavError):
    """Structurally valid WAV using an encoding we do not decode."""


class EmbeddingFormatError(AucapError):
    """Bad AUCAP-EMB container: header, payload size, or value problems."""


class EmptyCaptionError(AucapError):
    """Caption text has no surviving tokens after cleaning."""


class VocabularyError(AucapError):
    pass


class SemanticsError(AucapError):
    """Corpus/lexicon mismatch or related SVE encoding failure."""


class ShapeError(AucapError):
    """Tensor or layer dimension mismatch."""


class GraphStateError(AucapError):
    """Autodiff misuse, e.g. an optimizer step before backward."""


class TrainingError(AucapError):
    """Training diverged: a batch loss or the validation loss is not finite."""


def check_finite_loss(loss: float, where: str) -> None:
    """Raise TrainingError naming ``where`` (epoch, batch) unless ``loss`` is finite.
    Gradients go unscanned: a non-finite one shows in the next step's loss."""
    if not math.isfinite(loss):
        raise TrainingError(f"{where}: loss is {loss}")


class CheckpointError(AucapError):
    """Unreadable, corrupt, or mismatched parameter checkpoint."""


class DatasetError(AucapError):
    """Manifest CSV or feature-cache problem."""


class MetricError(AucapError):
    """Degenerate scorer input (empty candidate set, single-clip CIDEr...)."""


class ConfigError(AucapError):
    """Bad run configuration: unknown key, missing artifact, held lock."""
