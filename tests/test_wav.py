import struct

import numpy as np
import pytest

from aucap.audio.wav import WaveBuffer, decode_wav, load_wav, resample, zero_pad_or_truncate
from aucap.errors import WavEncodingError, WavHeaderError, WavMissingFileError

from conftest import make_wav_bytes


def write_wav(path, buf: WaveBuffer) -> None:
    """Write 16-bit PCM mono: the inverse of load_wav."""
    ints = np.round(np.clip(buf.samples, -1.0, 1.0) * 32767.0).astype(int)
    path.write_bytes(make_wav_bytes(ints.tolist(), sample_rate=buf.sample_rate))


class TestLoadWav:
    def test_silence(self, wav_file):
        buf = load_wav(wav_file([0, 0, 0, 0]))
        assert buf.sample_rate == 16000
        assert np.array_equal(buf.samples, np.zeros(4))

    def test_16bit_full_scale(self, wav_file):
        # integer scaling rule: value / 32768
        buf = load_wav(wav_file([32767, -32768, 16384, 0]))
        expected = np.array([32767 / 32768, -1.0, 0.5, 0.0])
        assert np.allclose(buf.samples, expected, atol=0)
        assert buf.samples[0] == pytest.approx(0.99996948, abs=1e-8)

    def test_stereo_averages_to_mono(self, wav_file):
        # channels (+0.5, -0.5) -> 0.0
        path = wav_file([16384, -16384, 16384, -16384], channels=2)
        buf = load_wav(path)
        assert np.array_equal(buf.samples, np.zeros(2))

    def test_8bit_unsigned(self, wav_file):
        buf = load_wav(wav_file([128, 255, 0], bits=8))
        assert np.allclose(buf.samples, [0.0, 127 / 128, -1.0])

    def test_24bit(self, wav_file):
        full = (1 << 23) - 1
        buf = load_wav(wav_file([full, -(1 << 23), 0], bits=24))
        assert np.allclose(buf.samples, [full / (1 << 23), -1.0, 0.0])

    def test_float32(self, wav_file):
        buf = load_wav(wav_file([0.25, -0.75, 1.0], bits=32, fmt=3))
        assert np.allclose(buf.samples, [0.25, -0.75, 1.0])

    def test_missing_file(self, tmp_path):
        with pytest.raises(WavMissingFileError):
            load_wav(tmp_path / "nope.wav")

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"RIFFxxxxWAVEjunk")
        with pytest.raises(WavHeaderError):
            load_wav(path)

    def test_not_riff(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(WavHeaderError):
            load_wav(path)

    def test_unsupported_encoding(self, wav_file, tmp_path):
        blob = make_wav_bytes([0, 0], fmt=6)  # A-law
        path = tmp_path / "alaw.wav"
        path.write_bytes(blob)
        with pytest.raises(WavEncodingError):
            load_wav(path)

    def test_truncated_data_chunk(self, wav_file, tmp_path):
        blob = make_wav_bytes([1, 2, 3, 4])
        (tmp_path / "cut.wav").write_bytes(blob[:-5])
        with pytest.raises(WavHeaderError):
            load_wav(tmp_path / "cut.wav")

    def test_roundtrip_write_wav(self, tmp_path):
        buf = WaveBuffer(np.linspace(-0.9, 0.9, 50), 8000)
        write_wav(tmp_path / "out.wav", buf)
        again = load_wav(tmp_path / "out.wav")
        assert again.sample_rate == 8000
        assert np.allclose(again.samples, buf.samples, atol=1 / 32767)


def patched(blob: bytes, **fields) -> bytes:
    """``blob``, a ``make_wav_bytes`` file, with fmt fields (``fmt``, ``channels``,
    ``rate``, ``bits``) overwritten in place."""
    out = bytearray(blob)
    for name, value in fields.items():
        offset, code = {"fmt": (20, "<H"), "channels": (22, "<H"), "rate": (24, "<I"),
                        "bits": (34, "<H")}[name]
        struct.pack_into(code, out, offset, value)
    return bytes(out)


WAV_CASES = {  # bytes -> (error type, what the refusal names)
    "fmt-too-short": (b"RIFF\x00\x00\x00\x00WAVEfmt \x0e\x00\x00\x00" + b"\x00" * 14,
                      WavHeaderError, "fmt chunk too short"),
    "no-fmt-chunk": (b"RIFF\x00\x00\x00\x00WAVEdata\x02\x00\x00\x00\x00\x00",
                     WavHeaderError, "missing fmt chunk"),
    "no-data-chunk": (make_wav_bytes([0, 1])[:36], WavHeaderError, "missing data chunk"),
    "3-channels": (patched(make_wav_bytes([0, 1, 2]), channels=3), WavEncodingError,
                   "3 channels"),
    "sample-rate-0": (patched(make_wav_bytes([0, 1]), rate=0), WavHeaderError,
                      "nonsensical sample rate 0"),
    "12-bit": (patched(make_wav_bytes([0, 1]), bits=12), WavHeaderError, "bad bit depth 12"),
    "0-bit": (patched(make_wav_bytes([0, 1]), bits=0), WavHeaderError, "bad bit depth 0"),
    "no-complete-frame": (make_wav_bytes([]), WavHeaderError, "no complete frame"),
    "64-bit-float": (patched(make_wav_bytes([0.0, 0.5], fmt=3, bits=32), bits=64),
                     WavEncodingError, "float WAV must be 32-bit, got 64"),
    "32-bit-pcm": (patched(make_wav_bytes([0, 1]), bits=32), WavEncodingError,
                   "unsupported PCM bit depth 32"),
    "nan-float": (make_wav_bytes([0.0, float("nan")], fmt=3, bits=32), WavHeaderError,
                  "non-finite samples"),
}


@pytest.mark.parametrize("case", WAV_CASES)
def test_bad_wav_is_a_typed_error(case):
    blob, error, message = WAV_CASES[case]
    with pytest.raises(error, match=message):
        decode_wav(blob, "x.wav")


class TestResample:
    def test_identity_rates(self):
        buf = WaveBuffer(np.random.RandomState(0).uniform(-1, 1, 100), 16000)
        out = resample(buf, 16000)
        assert out.sample_rate == 16000
        assert np.array_equal(out.samples, buf.samples)

    def test_length_formula(self):
        buf = WaveBuffer(np.zeros(320), 32000)
        assert resample(buf, 16000).samples.size == 160

    def test_constant_preserved(self):
        buf = WaveBuffer(np.full(100, 0.3), 44100)
        for rate in (8000, 16000, 48000):
            assert np.allclose(resample(buf, rate).samples, 0.3)

    def test_bad_rate(self):
        buf = WaveBuffer(np.zeros(10), 16000)
        with pytest.raises(ValueError):
            resample(buf, 0)


class TestResampleIsInterp:
    """resample is np.interp over the input's sample grid, bit for bit."""

    @staticmethod
    def interp(samples, rate, target):
        n_out = max(int(round(samples.size * target / rate)), 1)
        x = np.arange(n_out, dtype=np.float64) * (rate / target)
        return np.interp(x, np.arange(samples.size, dtype=np.float64), samples)

    @pytest.mark.parametrize("rate, target", [(44100, 16000), (8000, 16000), (32000, 16000),
                                              (22050, 16000), (3, 7)])
    @pytest.mark.parametrize("n_in", [1, 2, 3, 1001, 44100])
    def test_bitwise_equal_to_interp(self, rate, target, n_in):
        rng = np.random.RandomState(n_in)
        samples = rng.uniform(-1, 1, n_in)
        samples[rng.random_sample(n_in) < 0.3] = -0.0
        got = resample(WaveBuffer(samples, rate), target).samples
        assert got.tobytes() == self.interp(samples, rate, target).tobytes()

    def test_grid_points_keep_the_sign_of_zero(self):
        # 8 -> 16 kHz: even outputs fall on samples, the last two at or past the last one
        samples = np.array([-0.0, 0.5, -0.0, -0.25, -0.0])
        got = resample(WaveBuffer(samples, 8000), 16000).samples
        assert got.tobytes() == self.interp(samples, 8000, 16000).tobytes()
        assert np.signbit(got[[0, 4, 8, 9]]).all() and got[2] == 0.5


class TestZeroPadOrTruncate:
    def test_pad_15s_to_30s(self):
        buf = WaveBuffer(np.ones(15 * 16000), 16000)
        out = zero_pad_or_truncate(buf, 30.0)
        assert out.samples.size == 480000
        assert np.all(out.samples[:240000] == 1.0)
        assert np.all(out.samples[240000:] == 0.0)

    def test_exact_length_unchanged(self):
        buf = WaveBuffer(np.ones(480000), 16000)
        out = zero_pad_or_truncate(buf, 30.0)
        assert out is buf

    def test_truncate_31s(self):
        samples = np.arange(31 * 16000, dtype=np.float64) / (31 * 16000)
        buf = WaveBuffer(samples, 16000)
        out = zero_pad_or_truncate(buf, 30.0)
        assert out.samples.size == 480000
        assert np.array_equal(out.samples, samples[:480000])
