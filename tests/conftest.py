import contextlib
import struct

import numpy as np
import pytest

from aucap.nn.checkpoint import load_tensors, save_tensors
from aucap.semantics import NOUN, OTHER, VERB, TagLexicon


@contextlib.contextmanager
def no_random_draws():
    """Within the block, creating an ``np.random.RandomState`` raises AssertionError."""
    def refuse(*args, **kwargs):
        raise AssertionError("a RandomState was created")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "RandomState", refuse)
        yield


def make_wav_bytes(samples, sample_rate=16000, bits=16, channels=1, fmt=1):
    """Assemble a RIFF/WAVE blob from raw integer (or float) samples.

    ``samples`` is a flat interleaved list matching ``channels``.
    """
    if fmt == 3:
        data = struct.pack(f"<{len(samples)}f", *samples)
    elif bits == 8:
        data = struct.pack(f"<{len(samples)}B", *samples)
    elif bits == 16:
        data = struct.pack(f"<{len(samples)}h", *samples)
    elif bits == 24:
        data = b"".join(
            int(v).to_bytes(3, "little", signed=True) for v in samples
        )
    else:
        raise ValueError(bits)
    byte_rate = sample_rate * channels * bits // 8
    block_align = channels * bits // 8
    header = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    fmt_chunk = b"fmt " + struct.pack("<IHHIIHH", 16, fmt, channels, sample_rate,
                                      byte_rate, block_align, bits)
    return header + fmt_chunk + b"data" + struct.pack("<I", len(data)) + data


@pytest.fixture
def wav_file(tmp_path):
    def write(samples, sample_rate=16000, bits=16, channels=1, fmt=1, name="clip.wav"):
        path = tmp_path / name
        path.write_bytes(make_wav_bytes(samples, sample_rate, bits, channels, fmt))
        return path

    return write


@pytest.fixture(scope="session")
def toy_lexicon():
    return TagLexicon({
        "dog": NOUN, "dogs": NOUN, "man": NOUN, "woman": NOUN, "rain": NOUN,
        "birds": NOUN, "car": NOUN, "people": NOUN, "siren": NOUN, "water": NOUN,
        "wind": NOUN, "door": NOUN, "engine": NOUN, "child": NOUN, "bell": NOUN,
        "barks": VERB, "bark": VERB, "speaks": VERB, "speak": VERB, "sings": VERB,
        "sing": VERB, "falls": VERB, "fall": VERB, "talks": VERB, "talk": VERB,
        "rings": VERB, "ring": VERB, "blows": VERB, "blow": VERB, "runs": VERB,
        "run": VERB, "honks": VERB, "honk": VERB, "drips": VERB, "drip": VERB,
        "loudly": OTHER, "softly": OTHER, "down": OTHER, "outside": OTHER,
        "the": OTHER, "and": OTHER, "while": OTHER, "near": OTHER,
    })


def tone(freq, seconds=1.0, rate=16000, amplitude=0.5):
    t = np.arange(int(seconds * rate)) / rate
    return amplitude * np.sin(2 * np.pi * freq * t)


def with_meta(source, target, change):
    """``target``: a copy of checkpoint ``source`` whose metadata dict ``change`` has edited."""
    tensors, meta = load_tensors(source)
    change(meta)
    save_tensors(target, tensors, meta)
    return target


# defects of a checkpoint's metadata -> (an edit that makes it, the CheckpointError's text)
COMMON_META_DEFECTS = {
    "no-config": (lambda m: m.pop("config"), "metadata lacks ['config']"),
    "config-not-an-object": (lambda m: m.update(config=[1]), "metadata lacks a config object"),
    "unknown-key": (lambda m: m["config"].update(bogus=1), "config has unknown keys ['bogus']"),
    "value-of-another-type": (lambda m: m["config"].update(dropout="high"),
                              "config refused: '<=' not supported"),
}
CAPTIONER_META_DEFECTS = {
    **COMMON_META_DEFECTS,
    "no-vocab-size": (lambda m: m.pop("vocab_size"), "metadata lacks ['vocab_size']"),
    "no-vocab-sha256": (lambda m: m.pop("vocab_sha256"), "metadata lacks ['vocab_sha256']"),
    "missing-key": (lambda m: m["config"].pop("embed_dim"), "config lacks ['embed_dim']"),
    "refused-value": (lambda m: m["config"].update(epochs=-1),
                      "config refused: CaptionerConfig epochs must be at least 0, got -1"),
}
MLP_META_DEFECTS = {
    **COMMON_META_DEFECTS,
    "no-hidden-widths": (lambda m: m["config"].pop("hidden_widths"),
                         "config lacks ['hidden_widths']"),
    "hidden-widths-not-a-list": (lambda m: m["config"].update(hidden_widths=5),
                                 "config refused: 'int' object is not iterable"),
    "refused-value": (lambda m: m["config"].update(epochs=-1),
                      "config refused: MLPConfig epochs must be at least 0, got -1"),
}
