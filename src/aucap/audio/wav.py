"""RIFF/WAVE ingestion and sample-domain utilities.

The parser is deliberately small: uncompressed PCM (8/16/24-bit integer) and
32-bit IEEE float, mono or stereo. Anything else is rejected with a distinct
error so callers can tell "file missing" from "broken header" from "encoding
we do not decode".
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import WavEncodingError, WavHeaderError, WavMissingFileError

_FORMAT_PCM = 1
_FORMAT_IEEE_FLOAT = 3


@dataclass(frozen=True)
class WaveBuffer:
    """Mono audio: float64 samples in [-1, 1] at a fixed sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise WavHeaderError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.samples.size == 0:
            raise WavHeaderError("empty sample buffer")
        # min and max keep NaN and inf, with no bool temporary of the whole buffer
        if not np.isfinite([self.samples.min(), self.samples.max()]).all():
            raise WavHeaderError("non-finite samples")


def _decode_samples(raw: bytes, bits: int, fmt: int, n_channels: int) -> np.ndarray:
    if fmt == _FORMAT_IEEE_FLOAT:
        if bits != 32:
            raise WavEncodingError(f"float WAV must be 32-bit, got {bits}")
        data = np.frombuffer(raw, dtype="<f4").astype(np.float64)
        data = np.clip(data, -1.0, 1.0)
    elif fmt == _FORMAT_PCM:
        if bits == 8:
            # 8-bit PCM is unsigned with a 128 offset
            data = (np.frombuffer(raw, dtype=np.uint8).astype(np.float64) - 128.0) / 128.0
        elif bits == 16:
            data = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
        elif bits == 24:
            b = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3)
            vals = (
                b[:, 0].astype(np.int64)
                | (b[:, 1].astype(np.int64) << 8)
                | (b[:, 2].astype(np.int64) << 16)
            )
            vals = np.where(vals >= 1 << 23, vals - (1 << 24), vals)
            data = vals.astype(np.float64) / float(1 << 23)
        else:
            raise WavEncodingError(f"unsupported PCM bit depth {bits}")
    else:
        raise WavEncodingError(f"unsupported WAV format code {fmt}")

    if n_channels == 1:
        return data
    return data.reshape(-1, n_channels).mean(axis=1)


def load_wav(path: str | Path) -> WaveBuffer:
    """Load a PCM WAV file with :func:`decode_wav`; a missing file raises WavMissingFileError."""
    try:
        blob = Path(path).read_bytes()
    except FileNotFoundError:
        raise WavMissingFileError(f"no such file: {path}") from None
    return decode_wav(blob, path)


def decode_wav(blob: bytes, path: str | Path) -> WaveBuffer:
    """Parse the bytes of a PCM WAV file, averaging stereo to mono and scaling to [-1, 1].

    Integer samples are scaled by the full-scale magnitude of their type, so a
    16-bit sample of 32767 maps to 32767/32768. ``path`` names the source in
    error messages.
    """
    if len(blob) < 12 or blob[0:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise WavHeaderError(f"{path}: not a RIFF/WAVE file")

    fmt_fields = None
    data_raw = None
    pos = 12
    while pos + 8 <= len(blob):
        chunk_id = blob[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", blob, pos + 4)
        body = blob[pos + 8 : pos + 8 + chunk_size]
        if len(body) < chunk_size:
            raise WavHeaderError(f"{path}: truncated {chunk_id!r} chunk")
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise WavHeaderError(f"{path}: fmt chunk too short")
            fmt_fields = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            data_raw = body
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt_fields is None:
        raise WavHeaderError(f"{path}: missing fmt chunk")
    if data_raw is None:
        raise WavHeaderError(f"{path}: missing data chunk")

    audio_fmt, n_channels, sample_rate, _byte_rate, _block_align, bits = fmt_fields
    if n_channels not in (1, 2):
        raise WavEncodingError(f"{path}: {n_channels} channels (only mono/stereo supported)")
    if sample_rate <= 0:
        raise WavHeaderError(f"{path}: nonsensical sample rate {sample_rate}")
    if bits % 8 != 0 or bits == 0:
        raise WavHeaderError(f"{path}: bad bit depth {bits}")

    usable = len(data_raw) - len(data_raw) % ((bits // 8) * n_channels)
    if usable == 0:
        raise WavHeaderError(f"{path}: data chunk holds no complete frame")
    mono = _decode_samples(data_raw[:usable], bits, audio_fmt, n_channels)
    return WaveBuffer(samples=mono, sample_rate=sample_rate)


def resample(buf: WaveBuffer, target_rate: int) -> WaveBuffer:
    """Linear-interpolation resampling to ``target_rate`` Hz.

    Output length is round(len * target/source); equal rates return ``buf``
    itself, which is frozen and whose samples nothing downstream writes. No
    anti-alias filtering (desk-scale tool).
    """
    if target_rate <= 0:
        raise ValueError(f"target_rate must be positive, got {target_rate}")
    if target_rate == buf.sample_rate:
        return buf
    f = buf.samples
    last = f.size - 1
    n_out = max(int(round(f.size * target_rate / buf.sample_rate)), 1)
    x = np.arange(n_out, dtype=np.float64) * (buf.sample_rate / target_rate)
    # np.interp(x, arange(f.size), f) without its binary search, bit for bit: x
    # lies in [j, j + 1) for j = floor(x), where np.interp takes (f[j+1] - f[j]) *
    # (x - j) + f[j], as two roundings; on a grid point and from the last sample
    # on it takes f[j] itself, which keeps the sign of a -0.0 sample.
    j = np.minimum(x.astype(np.intp), last)
    at = f[j]
    out = (f[np.minimum(j + 1, last)] - at) * (x - j) + at
    exact = (x == j) | (j == last)
    out[exact] = at[exact]
    return WaveBuffer(samples=out, sample_rate=target_rate)
