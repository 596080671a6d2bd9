"""Log-Mel feature extraction: framing, power spectra, mel filterbank.

One fixed recipe, with the sample rate and band of the VGGish front end:
resample to ``SAMPLE_RATE`` -> zero-pad or cut to ``FeatureConfig.pad_seconds``
-> ``WINDOW_MS`` Hamming frames overlapping by ``OVERLAP`` -> power spectrum
(``N_FFT``-point rFFT) -> ``N_MELS`` triangular HTK-mel filters over
``FMIN``-``FMAX`` Hz -> natural log with a ``LOG_FLOOR`` floor. Each value is
a module constant written once, and the band count is the logmel width of
``VARIANT_DIMS``. Only the clip length varies, so the Hamming window and the
filterbank are built once and shared read-only across clips.

The padded clip is never built. Of its T frames, only those that touch the
clip's own samples (frame t when t*HOP is below their count) are framed, from
those samples with zeros appended up to the last such frame's end. Every later
frame lies wholly in the padding, so its power row is exactly zero and is left
as such. The mel product still runs over all T rows: a BLAS product of fewer
rows need not give the same bits per row, and the features must not depend on
how many frames were transformed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from ..errors import ConfigError, ShapeError
from .embeddings import VARIANT_DIMS
from .wav import WaveBuffer, resample

SAMPLE_RATE = 16000
WINDOW_MS = 96.0
OVERLAP = 0.5
N_MELS = VARIANT_DIMS["logmel"]
FMIN = 125.0
FMAX = 7500.0
LOG_FLOOR = 1e-10

WINDOW = int(round(WINDOW_MS / 1000.0 * SAMPLE_RATE))  # samples per frame
HOP = int(round(WINDOW * (1.0 - OVERLAP)))
N_FFT = 1 << (WINDOW - 1).bit_length()  # the next power of two


@dataclass(frozen=True)
class FeatureConfig:
    """The recipe's one setting: every clip is zero-padded or cut to ``pad_seconds``."""

    pad_seconds: float = 30.0

    def __post_init__(self):
        """Reject a clip length that is not finite or holds no whole frame."""
        if not (math.isfinite(self.pad_seconds * SAMPLE_RATE) and self.frames >= 1):
            raise ConfigError(f"feature pad_seconds must be finite and hold one "
                              f"{WINDOW_MS} ms window, got {self.pad_seconds}")

    @property
    def frames(self) -> int:
        """T: the whole windows, HOP apart, in round(pad_seconds * SAMPLE_RATE) samples."""
        return (round(self.pad_seconds * SAMPLE_RATE) - WINDOW) // HOP + 1

    def recipe(self) -> str:
        """The whole recipe as ``name=value`` pairs, the text of a logmel cache sidecar.

        Names, order and value reprs are those of the seven fields this config
        once had, so caches written by earlier versions still match.
        """
        return (f"sample_rate={SAMPLE_RATE!r} pad_seconds={self.pad_seconds!r} "
                f"window_ms={WINDOW_MS!r} overlap={OVERLAP!r} n_mels={N_MELS!r} "
                f"fmin={FMIN!r} fmax={FMAX!r}")


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@cache
def hamming_window() -> np.ndarray:
    """``np.hamming(WINDOW)``, built once and shared read-only."""
    return _read_only(np.hamming(WINDOW))


def frame_signal(buf: WaveBuffer) -> np.ndarray:
    """Split a ``SAMPLE_RATE`` buffer into Hamming-windowed frames: a new (T, WINDOW) array.

    Frame t covers samples [t*HOP, t*HOP + WINDOW). Raises if the buffer is
    at another rate or shorter than one window.
    """
    n = buf.samples.size
    if buf.sample_rate != SAMPLE_RATE or n < WINDOW:
        raise ShapeError(f"buffer of {n} samples at {buf.sample_rate} Hz holds no "
                         f"{WINDOW}-sample window at {SAMPLE_RATE} Hz")
    return np.lib.stride_tricks.sliding_window_view(buf.samples, WINDOW)[::HOP] * hamming_window()


def power_spectrum(frames: np.ndarray) -> np.ndarray:
    """Magnitude-squared rFFT per frame, zero-padded to ``N_FFT``: (T, N_FFT // 2 + 1)."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] == 0 or frames.shape[1] != WINDOW:
        raise ShapeError(f"expected a non-empty (T, {WINDOW}) frame matrix, got {frames.shape}")
    spec = np.fft.rfft(frames, n=N_FFT, axis=1)
    return spec.real**2 + spec.imag**2


def hz_to_mel(f):
    """HTK mel scale: 2595 * log10(1 + f/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank() -> np.ndarray:
    """(N_MELS, N_FFT // 2 + 1) unit-height triangular filters over the FFT bin frequencies."""
    hz_points = mel_to_hz(np.linspace(hz_to_mel(FMIN), hz_to_mel(FMAX), N_MELS + 2))
    lo, center, hi = hz_points[:-2, None], hz_points[1:-1, None], hz_points[2:, None]
    bin_freqs = np.arange(N_FFT // 2 + 1, dtype=np.float64) * SAMPLE_RATE / N_FFT
    up = (bin_freqs - lo) / (center - lo)
    down = (hi - bin_freqs) / (hi - center)
    return np.clip(np.minimum(up, down), 0.0, None)


@cache
def shared_filterbank() -> np.ndarray:
    """``mel_filterbank()``, built once and shared read-only."""
    return _read_only(mel_filterbank())


def apply_log_mel(power: np.ndarray) -> np.ndarray:
    """ln(max(power @ filterbank.T, LOG_FLOOR)): the (T, N_MELS) log-Mel energies."""
    power = np.asarray(power, dtype=np.float64)
    weights = shared_filterbank()
    if power.ndim != 2 or power.shape[1] != weights.shape[1]:
        raise ShapeError(f"power has {power.shape} bins but the filterbank expects "
                         f"(T, {weights.shape[1]})")
    return np.log(np.maximum(power @ weights.T, LOG_FLOOR))


def extract_log_mel(buf: WaveBuffer, config: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Full pipeline from raw audio to (T, N_MELS) log-Mel features, T = ``config.frames``.

    Of the n resampled samples, only the k = min(T, ceil(n / HOP)) frames that
    start within them are framed, with zeros appended up to frame k-1's end,
    and transformed; the other power rows stay zero, which is what their
    transform gives. ``apply_log_mel`` takes all T rows, so every value is, bit
    for bit, that of the clip zero-padded or cut to ``pad_seconds``.
    """
    samples = resample(buf, SAMPLE_RATE).samples
    n_frames = config.frames
    k = min(n_frames, -(-samples.size // HOP))
    end = (k - 1) * HOP + WINDOW
    if samples.size < end:  # rebound, so a resampled copy is freed before framing
        samples = np.concatenate([samples, np.zeros(end - samples.size)])
    power = np.zeros((n_frames, N_FFT // 2 + 1))
    power[:k] = power_spectrum(frame_signal(WaveBuffer(samples[:end], SAMPLE_RATE)))
    return apply_log_mel(power)
