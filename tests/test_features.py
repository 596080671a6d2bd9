from dataclasses import fields

import numpy as np
import pytest

from aucap.audio import features
from aucap.audio.embeddings import VARIANT_DIMS
from aucap.audio.features import (
    FMAX,
    FMIN,
    N_FFT,
    N_MELS,
    OVERLAP,
    SAMPLE_RATE,
    WINDOW_MS,
    FeatureConfig,
    apply_log_mel,
    extract_log_mel,
    frame_signal,
    hamming_window,
    hz_to_mel,
    mel_filterbank,
    mel_to_hz,
    power_spectrum,
    shared_filterbank,
)
from aucap.audio.wav import WaveBuffer, load_wav, resample
from aucap.errors import ConfigError, ShapeError

from conftest import make_wav_bytes, tone
from memory import peak_bytes

RATE = 16000
W = 1536  # round(0.096 * 16000)
H = 768
# the band centres the recipe names: N_MELS points evenly spaced in mel between the band edges
CENTERS = mel_to_hz(np.linspace(hz_to_mel(FMIN), hz_to_mel(FMAX), N_MELS + 2))[1:-1]


def brute_force_dft_power(frame):
    """O(n^2) DFT oracle: |X_k|^2 for k = 0..n/2."""
    n = len(frame)
    k = np.arange(n // 2 + 1)[:, None]
    t = np.arange(n)[None, :]
    basis = np.exp(-2j * np.pi * k * t / n)
    spectrum = basis @ frame
    return np.abs(spectrum) ** 2


class TestFraming:
    def test_frame_count_30s(self):
        buf = WaveBuffer(np.random.RandomState(0).uniform(-1, 1, 480000), RATE)
        frames = frame_signal(buf)
        assert frames.shape == (624, W)

    def test_single_window(self):
        buf = WaveBuffer(np.ones(W), RATE)
        assert frame_signal(buf).shape[0] == 1

    def test_all_ones_yields_window(self):
        buf = WaveBuffer(np.ones(W), RATE)
        assert np.allclose(frame_signal(buf)[0], np.hamming(W))

    def test_too_short(self):
        with pytest.raises(ShapeError):
            frame_signal(WaveBuffer(np.ones(W - 1), RATE))

    def test_another_rate_is_refused(self):
        with pytest.raises(ShapeError, match="22050 Hz"):
            frame_signal(WaveBuffer(np.ones(4 * W), 22050))

    def test_frame_count_formula_randomized(self):
        rng = np.random.RandomState(42)
        for _ in range(1000):
            n = rng.randint(W, 500000)
            buf = WaveBuffer(np.zeros(n), RATE)
            assert frame_signal(buf).shape[0] == (n - W) // H + 1


class TestPowerSpectrum:
    def test_zero_frame(self):
        spec = power_spectrum(np.zeros((1, W)))
        assert spec.shape == (1, 1025)  # n_fft 2048 -> 1025 bins
        assert np.all(spec == 0.0)

    def test_sine_peak_bin(self):
        buf = WaveBuffer(tone(1000, 2.0), RATE)
        frames = frame_signal(buf)
        spec = power_spectrum(frames)
        # 1000 Hz -> bin round(1000 * 2048 / 16000) = 128
        assert int(np.argmax(spec[0])) == 128

    def test_matches_brute_force_dft(self):
        frames = np.random.RandomState(3).uniform(-1, 1, (2, W))
        fast = power_spectrum(frames)
        for row in range(2):
            slow = brute_force_dft_power(np.concatenate([frames[row], np.zeros(N_FFT - W)]))
            assert np.max(np.abs(fast[row] - slow)) < 1e-9 * slow.max()

    def test_parseval(self):
        rng = np.random.RandomState(5)
        frame = rng.uniform(-1, 1, W)
        power = power_spectrum(frame[None, :])[0]
        # rfft keeps half the spectrum; interior bins appear twice in the full sum
        full = power[0] + 2 * power[1:-1].sum() + power[-1]
        energy = N_FFT * np.sum(frame**2)  # the zero padding adds no energy
        assert abs(full - energy) / energy < 1e-6

    def test_window_hop_and_fft_size(self):
        assert (features.WINDOW, features.HOP, N_FFT) == (W, H, 2048)

    def test_other_frame_widths_are_refused(self):
        with pytest.raises(ShapeError):
            power_spectrum(np.zeros((1, 64)))


class TestMelFilterbank:
    fb = mel_filterbank()

    def test_shape_and_range(self):
        assert self.fb.shape == (64, 1025)
        assert N_MELS == VARIANT_DIMS["logmel"]  # the cached width is the band count
        assert np.all(self.fb >= 0.0)

    def test_rows_sum_positive(self):
        assert np.all(self.fb.sum(axis=1) > 0.0)

    def test_rows_unimodal(self):
        for row in self.fb:
            support = row[row > 0]
            diffs = np.sign(np.diff(support))
            # rises then falls: at most one sign change in the nonzero run
            changes = np.count_nonzero(np.diff(diffs[diffs != 0]) != 0)
            assert changes <= 1

    def test_centers_ascending_and_bounded(self):
        peaks = self.fb.argmax(axis=1) * RATE / N_FFT  # each filter's peak bin, in Hz
        assert np.all(np.diff(peaks) > 0)
        assert peaks[0] > 125.0
        assert peaks[-1] < 7500.0

    def test_supports_overlap(self):
        starts = [np.flatnonzero(row)[0] for row in self.fb]
        ends = [np.flatnonzero(row)[-1] for row in self.fb]
        assert starts == sorted(starts)
        for i in range(63):
            assert starts[i + 1] <= ends[i]  # neighbouring triangles share bins

    def test_mel_scale_round_trip(self):
        freqs = np.array([125.0, 440.0, 1000.0, 7500.0])
        assert np.allclose(mel_to_hz(hz_to_mel(freqs)), freqs)
        assert hz_to_mel(1000.0) == pytest.approx(1000.0, abs=0.1)  # HTK anchor


class TestApplyLogMel:
    def test_zero_power_floors(self):
        out = apply_log_mel(np.zeros((3, 1025)))
        assert np.all(out == np.log(1e-10))

    def test_sine_hits_nearest_band(self):
        buf = WaveBuffer(tone(1000, 2.0), RATE)
        feats = apply_log_mel(power_spectrum(frame_signal(buf)))
        expected = int(np.argmin(np.abs(CENTERS - 1000.0)))
        assert int(np.argmax(feats[0])) == expected

    def test_doubling_adds_ln2(self):
        rng = np.random.RandomState(7)
        power = rng.uniform(0.1, 2.0, (4, 1025))
        a = apply_log_mel(power)
        b = apply_log_mel(2.0 * power)
        unfloored = a > np.log(1e-10)
        assert np.allclose((b - a)[unfloored], np.log(2.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            apply_log_mel(np.zeros((2, 100)))


class TestExtractLogMel:
    def test_shape_30s(self):
        buf = WaveBuffer(tone(440, 3.0), RATE)
        assert extract_log_mel(buf).shape == (624, 64)

    def test_trailing_silence_invariant(self):
        cfg = FeatureConfig(pad_seconds=2.0)
        base = tone(440, 1.0)
        short = WaveBuffer(base, RATE)
        padded = WaveBuffer(np.concatenate([base, np.zeros(3 * RATE)]), RATE)
        a = extract_log_mel(short, cfg)
        b = extract_log_mel(padded, cfg)
        assert np.array_equal(a, b)

    def test_resamples_input(self):
        buf = WaveBuffer(tone(440, 1.0, rate=32000), 32000)
        feats = extract_log_mel(buf, FeatureConfig(pad_seconds=1.0))
        assert feats.shape == ((16000 - W) // H + 1, 64)


def pad_or_cut(samples, seconds):
    """A new array of ``samples`` zero-padded or cut to round(seconds * SAMPLE_RATE)."""
    out = np.zeros(int(round(seconds * SAMPLE_RATE)))
    kept = samples[:out.size]
    out[:kept.size] = kept
    return out


def reference_log_mel(samples, rate, config):
    """The per-clip formulas extract_log_mel replaced: the whole padded clip,
    index-gather framing of all its frames, a filterbank and a window built per
    call, and a float64 copy of the power."""
    padded = pad_or_cut(resample(WaveBuffer(samples, rate), SAMPLE_RATE).samples,
                        config.pad_seconds)
    w = int(round(WINDOW_MS / 1000.0 * SAMPLE_RATE))
    h = max(1, int(round(w * (1.0 - OVERLAP))))
    t = (padded.size - w) // h + 1
    idx = np.arange(w)[None, :] + (np.arange(t) * h)[:, None]
    frames = padded[idx] * np.hamming(w)[None, :]
    spec = np.fft.rfft(frames, n=N_FFT, axis=1)
    power = (spec.real**2 + spec.imag**2).astype(np.float64)
    fb = mel_filterbank()
    return np.log(np.maximum(power @ fb.T, 1e-10))


# (bits, format code) -> (integer or float samples in range, their value in [-1, 1])
ENCODINGS = {
    (8, 1): (lambda rng, n: rng.randint(0, 256, n), lambda v: (v - 128.0) / 128.0),
    (16, 1): (lambda rng, n: rng.randint(-32768, 32768, n), lambda v: v / 32768.0),
    (24, 1): (lambda rng, n: rng.randint(-(1 << 23), 1 << 23, n), lambda v: v / float(1 << 23)),
    (32, 3): (lambda rng, n: rng.uniform(-1.2, 1.2, n).astype(np.float32).astype(np.float64),
              lambda v: np.clip(v, -1.0, 1.0)),
}


class TestExtractionMatchesReference:
    """extract_log_mel(load_wav(path)) equals the old per-clip formulas bit for bit."""

    config = FeatureConfig(pad_seconds=0.25)

    @pytest.mark.parametrize("rate", [16000, 22050, 44100])
    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("encoding", sorted(ENCODINGS))
    def test_bitwise_equal(self, tmp_path, rate, channels, encoding):
        draw, scale = ENCODINGS[encoding]
        bits, fmt = encoding
        rng = np.random.RandomState(rate + 10 * channels + bits)
        for seconds in (0.2, 0.25, 0.3):  # below, at and above pad_seconds
            raw = draw(rng, int(round(seconds * rate)) * channels)
            path = tmp_path / f"{seconds}.wav"
            path.write_bytes(make_wav_bytes(raw.tolist(), rate, bits, channels, fmt))
            mono = scale(raw.astype(np.float64)).reshape(-1, channels).mean(axis=1)
            got = extract_log_mel(load_wav(path), self.config)
            assert np.array_equal(got, reference_log_mel(mono, rate, self.config))

    heavy = FeatureConfig(pad_seconds=1.0)  # 19 frames

    @pytest.mark.parametrize("n", [1, H - 1, H, H + 1, W - 1, W, W + 1, 3 * H])
    def test_heavy_padding_bitwise_equal(self, n):
        samples = np.random.RandomState(n).uniform(-1.0, 1.0, n)
        got = extract_log_mel(WaveBuffer(samples, RATE), self.heavy)
        assert np.array_equal(got, reference_log_mel(samples, RATE, self.heavy))

    @pytest.mark.parametrize("samples, rate", [
        (np.random.RandomState(0).uniform(-1.0, 1.0, 4410), 44100),  # 0.1 s at 44.1 kHz
        (np.zeros(2 * H + 5), RATE),                                   # all zero
        (np.r_[np.zeros(2 * H), 0.5], RATE),   # the last held sample starts frame 2
        (np.r_[np.random.RandomState(1).uniform(-1.0, 1.0, 2 * H), -0.25], RATE),
    ], ids=["0.1s-44.1kHz", "all-zero", "last-sample-alone-on-a-boundary",
            "last-sample-on-a-boundary"])
    def test_heavy_padding_edge_clips_bitwise_equal(self, samples, rate):
        got = extract_log_mel(WaveBuffer(samples, rate), self.heavy)
        assert np.array_equal(got, reference_log_mel(samples, rate, self.heavy))

    @pytest.mark.parametrize("rate", [RATE, 44100])
    @pytest.mark.parametrize("seconds", [15.0, 30.0, 31.0], ids=["shorter", "exact", "longer"])
    def test_clip_padded_or_cut_to_30s_bitwise_equal(self, rate, seconds):
        samples = np.random.RandomState(int(seconds)).uniform(-1.0, 1.0, int(seconds * rate))
        got = extract_log_mel(WaveBuffer(samples, rate))
        assert got.shape == (624, N_MELS)
        assert np.array_equal(got, reference_log_mel(samples, rate, FeatureConfig()))

    def test_short_clip_peaks_below_the_power_matrix(self):
        """No padded copy of the clip: a 0.5 s clip at the 30 s pad allocates
        little beside the (T, N_FFT/2+1) float64 power matrix."""
        buf = WaveBuffer(tone(440, 0.5), RATE)
        extract_log_mel(buf)  # builds the shared window and filterbank
        _, peak, _ = peak_bytes(lambda: extract_log_mel(buf))
        assert peak < FeatureConfig().frames * (N_FFT // 2 + 1) * 8 + 1.5e6

    def test_filterbank_and_window_are_built_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(features, "mel_filterbank", lambda: calls.append(1) or mel_filterbank())
        shared_filterbank.cache_clear()
        buf = WaveBuffer(tone(440, 0.5), RATE)
        for pad in (0.5, 0.5, 0.6):
            extract_log_mel(buf, FeatureConfig(pad_seconds=pad))
        assert calls == [1]
        assert hamming_window() is hamming_window()
        assert np.array_equal(hamming_window(), np.hamming(W))

    def test_shared_arrays_reject_writes(self):
        for array in (shared_filterbank(), hamming_window()):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0


class TestTransformedFrames:
    """Only the frames that start within the clip's own samples reach power_spectrum."""

    config = FeatureConfig(pad_seconds=1.0)
    T = (RATE - W) // H + 1  # 19

    @pytest.mark.parametrize("held, rows", [
        (1, 1), (H, 1), (H + 1, 2), (1600, 3), (8000, 11),  # short: ceil(held / HOP)
        ((T - 1) * H + 1, T), (15999, T),  # the last frame, and a tail past it
        (RATE, T), (2 * RATE, T),          # at and above the pad
    ])
    def test_rows_transformed(self, monkeypatch, held, rows):
        seen = []

        def counting(frames):
            seen.append(frames.shape[0])
            return power_spectrum(frames)

        monkeypatch.setattr(features, "power_spectrum", counting)
        samples = np.random.RandomState(held).uniform(-1.0, 1.0, held)
        got = extract_log_mel(WaveBuffer(samples, RATE), self.config)
        assert seen == [rows] and rows == min(self.T, -(-held // H))
        assert got.shape == (self.T, N_MELS)
        assert np.all(got[rows:] == np.log(features.LOG_FLOOR))


class TestFeatureConfig:
    @pytest.mark.parametrize("change", [
        {"pad_seconds": 0.0}, {"pad_seconds": -1.0}, {"pad_seconds": float("nan")},
        {"pad_seconds": 0.05},                   # shorter than one 96 ms window
        {"pad_seconds": float("inf")},
    ])
    def test_rejects_settings_no_clip_can_use(self, change):
        with pytest.raises(ConfigError):
            FeatureConfig(**change)

    @pytest.mark.parametrize("pad, frames", [(30.0, 624), (4.8, 99), (W / RATE, 1)])
    def test_frames(self, pad, frames):
        assert FeatureConfig(pad_seconds=pad).frames == frames
        assert extract_log_mel(WaveBuffer(tone(440, 0.5), RATE), FeatureConfig(pad)).shape == (
            frames, N_MELS)

    def test_the_clip_length_is_the_only_setting(self):
        assert [f.name for f in fields(FeatureConfig)] == ["pad_seconds"]
        assert FeatureConfig(pad_seconds=0.25).recipe() == (
            "sample_rate=16000 pad_seconds=0.25 window_ms=96.0 overlap=0.5 n_mels=64"
            " fmin=125.0 fmax=7500.0")
