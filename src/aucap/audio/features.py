"""Log-Mel feature extraction: framing, power spectra, mel filterbank.

The chain is resample -> pad/truncate -> 96 ms Hamming frames with 50%
overlap -> power spectrum (radix-2 rFFT) -> 64 triangular HTK-mel filters
over 125-7500 Hz -> natural log with a 1e-10 floor. The Hamming window and
the filterbank are built once per shape and shared read-only across clips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import ConfigError, ShapeError
from .wav import WaveBuffer, resample, zero_pad_or_truncate

LOG_FLOOR = 1e-10


@dataclass(frozen=True)
class FeatureConfig:
    sample_rate: int = 16000
    pad_seconds: float = 30.0
    window_ms: float = 96.0
    overlap: float = 0.5
    n_mels: int = 64
    fmin: float = 125.0
    fmax: float = 7500.0

    def __post_init__(self):
        """Reject a setting that every clip would fail on, or that builds no filterbank."""
        if self.sample_rate <= 0:
            raise ConfigError(f"feature sample_rate must be positive, got {self.sample_rate}")
        if self.n_mels < 1:
            raise ConfigError(f"feature n_mels must be at least 1, got {self.n_mels}")
        if not 0.0 <= self.overlap < 1.0:
            raise ConfigError(f"feature overlap must lie in [0, 1), got {self.overlap}")
        if not 0.0 <= self.fmin < self.fmax <= self.sample_rate / 2:
            raise ConfigError(f"feature band {self.fmin}-{self.fmax} Hz must satisfy "
                              f"0 <= fmin < fmax <= Nyquist ({self.sample_rate / 2} Hz)")
        w = window_length(self.sample_rate, self.window_ms) if 0 < self.window_ms < math.inf else 0
        if w < 1:
            raise ConfigError(f"feature window_ms must hold one sample, got {self.window_ms}")
        pad = self.pad_seconds * self.sample_rate
        if not (math.isfinite(pad) and round(pad) >= w):
            raise ConfigError(f"feature pad_seconds must be finite and hold one "
                              f"{self.window_ms} ms window, got {self.pad_seconds}")


@dataclass(frozen=True)
class MelFilterbank:
    """Triangular mel filters: ``weights`` is (n_mels, n_bins), rows unimodal."""

    weights: np.ndarray
    center_freqs: np.ndarray
    fmin: float
    fmax: float


@dataclass(frozen=True)
class LogMelFeatures:
    values: np.ndarray  # (T, n_mels)

    @property
    def frame_count(self) -> int:
        return self.values.shape[0]


def window_length(sample_rate: int, window_ms: float = 96.0) -> int:
    return int(round(window_ms / 1000.0 * sample_rate))


def hop_length(sample_rate: int, window_ms: float = 96.0, overlap: float = 0.5) -> int:
    w = window_length(sample_rate, window_ms)
    return max(1, int(round(w * (1.0 - overlap))))


def frame_count(n_samples: int, window: int, hop: int) -> int:
    if n_samples < window:
        return 0
    return (n_samples - window) // hop + 1


@lru_cache(maxsize=8)
def hamming_window(w: int) -> np.ndarray:
    """``np.hamming(w)``, built once per length and shared read-only."""
    window = np.hamming(w)
    window.flags.writeable = False
    return window


def frame_signal(buf: WaveBuffer, window_ms: float = 96.0, overlap: float = 0.5) -> np.ndarray:
    """Split into Hamming-windowed frames; returns a new (T, W) array.

    W = round(window_ms * rate), hop = W * (1 - overlap); frame t covers
    samples [t*hop, t*hop + W). Raises if the buffer is shorter than one
    window.
    """
    w = window_length(buf.sample_rate, window_ms)
    h = hop_length(buf.sample_rate, window_ms, overlap)
    n = buf.samples.size
    t = frame_count(n, w, h)
    if t == 0:
        raise ShapeError(f"buffer of {n} samples is shorter than one {w}-sample window")
    return np.lib.stride_tricks.sliding_window_view(buf.samples, w)[::h][:t] * hamming_window(w)


def next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def power_spectrum(frames: np.ndarray) -> np.ndarray:
    """Magnitude-squared rFFT per frame, zero-padded to the next power of two."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] == 0:
        raise ShapeError(f"expected a non-empty (T, W) frame matrix, got {frames.shape}")
    n_fft = next_pow2(frames.shape[1])
    spec = np.fft.rfft(frames, n=n_fft, axis=1)
    return spec.real**2 + spec.imag**2


def hz_to_mel(f):
    """HTK mel scale: 2595 * log10(1 + f/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(
    n_mels: int, n_fft: int, sample_rate: int, fmin: float = 125.0, fmax: float = 7500.0
) -> MelFilterbank:
    """Build ``n_mels`` unit-height triangular filters over FFT bin frequencies."""
    if fmax > sample_rate / 2:
        raise ValueError(f"fmax {fmax} above Nyquist {sample_rate / 2}")
    mel_points = np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2)
    hz_points = mel_to_hz(mel_points)
    bin_freqs = np.arange(n_fft // 2 + 1, dtype=np.float64) * sample_rate / n_fft
    weights = np.zeros((n_mels, bin_freqs.size), dtype=np.float64)
    for m in range(n_mels):
        lo, center, hi = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        up = (bin_freqs - lo) / (center - lo)
        down = (hi - bin_freqs) / (hi - center)
        weights[m] = np.clip(np.minimum(up, down), 0.0, None)
    return MelFilterbank(
        weights=weights, center_freqs=hz_points[1:-1].copy(), fmin=fmin, fmax=fmax
    )


@lru_cache(maxsize=8)
def shared_filterbank(
    n_mels: int, n_fft: int, sample_rate: int, fmin: float, fmax: float
) -> MelFilterbank:
    """``mel_filterbank`` built once per argument tuple and shared read-only."""
    fb = mel_filterbank(n_mels, n_fft, sample_rate, fmin, fmax)
    fb.weights.flags.writeable = False
    fb.center_freqs.flags.writeable = False
    return fb


def apply_log_mel(power: np.ndarray, fb: MelFilterbank) -> LogMelFeatures:
    """values = ln(max(power @ weights.T, LOG_FLOOR)); output is (T, n_mels)."""
    power = np.asarray(power, dtype=np.float64)
    if power.ndim != 2 or power.shape[1] != fb.weights.shape[1]:
        raise ShapeError(
            f"power has {power.shape} bins but filterbank expects (T, {fb.weights.shape[1]})"
        )
    mel = power @ fb.weights.T
    return LogMelFeatures(values=np.log(np.maximum(mel, LOG_FLOOR)))


def extract_log_mel(buf: WaveBuffer, config: FeatureConfig = FeatureConfig()) -> LogMelFeatures:
    """Full pipeline from raw audio to (T, n_mels) log-Mel features."""
    buf = resample(buf, config.sample_rate)
    buf = zero_pad_or_truncate(buf, config.pad_seconds)
    frames = frame_signal(buf, config.window_ms, config.overlap)
    power = power_spectrum(frames)
    n_fft = next_pow2(frames.shape[1])
    fb = shared_filterbank(config.n_mels, n_fft, config.sample_rate, config.fmin, config.fmax)
    return apply_log_mel(power, fb)
