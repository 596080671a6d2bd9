from .embeddings import VARIANT_DIMS, load_embedding_file, load_variant_features
from .features import (
    FeatureConfig,
    LogMelFeatures,
    MelFilterbank,
    apply_log_mel,
    extract_log_mel,
    frame_signal,
    mel_filterbank,
    power_spectrum,
)
from .wav import WaveBuffer, load_wav, resample, write_wav, zero_pad_or_truncate

__all__ = [
    "VARIANT_DIMS",
    "FeatureConfig",
    "LogMelFeatures",
    "MelFilterbank",
    "WaveBuffer",
    "apply_log_mel",
    "extract_log_mel",
    "frame_signal",
    "load_embedding_file",
    "load_variant_features",
    "load_wav",
    "mel_filterbank",
    "power_spectrum",
    "resample",
    "write_wav",
    "zero_pad_or_truncate",
]
