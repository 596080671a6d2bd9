"""Seeded fixture generator for the benchmark workloads.

Everything the program sees is written to disk in the formats it reads: a
Clotho-format caption CSV (file_name, caption_1..caption_5) per split,
44.1 kHz 16-bit WAVs, AUCAP-EMB panns vectors, a word<TAB>TAG lexicon, an
index<TAB>word vocabulary, and clip_id<TAB>caption candidate and reference
files. The writers here are independent of ``aucap`` so
that a defect in the program's own writers cannot hide in its readers.

The data is learnable. Every clip belongs to one sound class; its audio (the
class's harmonic tone and modulation rate, or the class centroid of the panns
vectors) and its five captions (the class's subject nouns, verbs and context
words) all come from that class. Captions are 8-20 words. Filler words are
drawn from a Zipf distribution over a pseudo-word vocabulary of about 4.5k
words, close to Clotho's, so the output layer and Adam carry their real
weight. Subjects and verbs give K of a few hundred subject-verb roots.
"""

from __future__ import annotations

import csv
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WAV_RATE = 44100
PANNS_DIM = 2048
VOCAB_WORDS = 4500
N_CLASSES = 8
NOUNS_PER_CLASS = 16
VERBS_PER_CLASS = 16
CONTEXT_PER_CLASS = 24
MIN_WORDS, MAX_WORDS = 8, 20
ZIPF_EXPONENT = 1.0

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "br", "dr", "gl", "kr", "pl", "st", "tr", "sk", "sl", "fl")
_NUCLEI = ("a", "e", "i", "o", "u", "ai", "ou", "ea")
_CODAS = ("", "", "", "n", "m", "l", "r", "k", "t", "p")
_DETERMINERS = ("the", "some", "one", "two", "this")


@dataclass(frozen=True)
class SoundClass:
    nouns: tuple[str, ...]
    verb_stems: tuple[str, ...]
    context: tuple[str, ...]
    tone_hz: float
    mod_hz: float


@dataclass(frozen=True)
class Fixture:
    """Paths of one generated workload and the facts the checks need."""

    root: Path
    dev_csv: Path
    val_csv: Path
    audio_dir: Path
    emb_dir: Path
    lexicon: Path
    vocabulary: Path
    candidates: Path
    references: Path


def _pseudo_words(rng: np.random.RandomState, count: int, taken: set[str]) -> list[str]:
    """Distinct lowercase letter-only words that survive caption cleaning.

    Endings that the tagger's suffix rules or the stemmer act on (-ing, -ed,
    -s) are avoided, so a word's tag and root are the ones the lexicon gives.
    """
    out: list[str] = []
    while len(out) < count:
        syllables = rng.randint(2, 4)
        word = "".join(_ONSETS[rng.randint(len(_ONSETS))] + _NUCLEI[rng.randint(len(_NUCLEI))]
                       for _ in range(syllables))
        word += _CODAS[rng.randint(len(_CODAS))]
        if word in taken or word.endswith(("ing", "ed", "s", "y")):
            continue
        taken.add(word)
        out.append(word)
    return out


def _zipf_weights(n: int) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** ZIPF_EXPONENT
    return w / w.sum()


class CaptionModel:
    """Class-conditioned caption sampler over a fixed pseudo-word lexicon."""

    def __init__(self, seed: int):
        rng = np.random.RandomState(seed)
        taken = set(_DETERMINERS) | {"and", "while"}
        self.classes = []
        for c in range(N_CLASSES):
            nouns = _pseudo_words(rng, NOUNS_PER_CLASS, taken)
            stems = _pseudo_words(rng, VERBS_PER_CLASS, taken)
            context = _pseudo_words(rng, CONTEXT_PER_CLASS, taken)
            self.classes.append(SoundClass(
                nouns=tuple(nouns), verb_stems=tuple(stems), context=tuple(context),
                tone_hz=float(220.0 * 2 ** (c * 0.55)),
                mod_hz=float(1.5 + 1.1 * c),
            ))
        self.filler = ()
        self.filler = tuple(_pseudo_words(rng, VOCAB_WORDS - len(self.words()), taken))
        self.filler_p = _zipf_weights(len(self.filler))
        self.class_p = _zipf_weights(NOUNS_PER_CLASS)

    def words(self) -> list[str]:
        """Every word a caption can hold, in a fixed order."""
        out = list(_DETERMINERS) + ["and", "while"]
        for k in self.classes:
            out += list(k.nouns)
            out += [f"{s}ing" for s in k.verb_stems] + [f"{s}s" for s in k.verb_stems]
            out += list(k.context)
        return out + list(self.filler)

    def lexicon(self) -> dict[str, str]:
        tags = {w: "OTHER" for w in self.words()}
        for k in self.classes:
            tags.update({w: "NOUN" for w in k.nouns})
            tags.update({f"{s}ing": "VERB" for s in k.verb_stems})
            tags.update({f"{s}s": "VERB" for s in k.verb_stems})
        return tags

    def caption(self, rng: np.random.RandomState, cls: int) -> str:
        """det subject [and subject] verb, then class context and Zipf filler."""
        k = self.classes[cls]
        length = rng.randint(MIN_WORDS, MAX_WORDS + 1)
        words = [_DETERMINERS[rng.randint(len(_DETERMINERS))],
                 k.nouns[rng.choice(NOUNS_PER_CLASS, p=self.class_p)]]
        if rng.random_sample() < 0.3:
            words += ["and", k.nouns[rng.choice(NOUNS_PER_CLASS, p=self.class_p)]]
        stem = k.verb_stems[rng.choice(VERBS_PER_CLASS, p=self.class_p)]
        words.append(stem + ("ing" if rng.random_sample() < 0.5 else "s"))
        while len(words) < length:
            if rng.random_sample() < 0.4:
                words.append(k.context[rng.randint(len(k.context))])
            else:
                words.append(self.filler[rng.choice(len(self.filler), p=self.filler_p)])
        return " ".join(words)


def _write_wav(path: Path, samples: np.ndarray) -> None:
    ints = np.round(np.clip(samples, -1.0, 1.0) * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(WAV_RATE)
        fh.writeframes(ints.tobytes())


def _write_emb(path: Path, matrix: np.ndarray) -> None:
    rows, dim = matrix.shape
    with open(path, "wb") as fh:
        fh.write(f"AUCAP-EMB v1 dim={dim} rows={rows}\n".encode("ascii"))
        fh.write(matrix.astype("<f4").tobytes())


def _clip_audio(rng: np.random.RandomState, k: SoundClass, seconds: float) -> np.ndarray:
    t = np.arange(int(seconds * WAV_RATE)) / WAV_RATE
    f0 = k.tone_hz * (1.0 + 0.03 * rng.standard_normal())
    tone = sum(np.sin(2 * np.pi * f0 * h * t + rng.uniform(0, 2 * np.pi)) / h
               for h in (1, 2, 3))
    envelope = 0.55 + 0.45 * np.sin(2 * np.pi * k.mod_hz * t + rng.uniform(0, 2 * np.pi))
    return 0.25 * tone * envelope + 0.05 * rng.standard_normal(t.size)


def _write_csv(path: Path, rows: list[tuple[str, list[str]]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["file_name", *(f"caption_{i}" for i in range(1, 6))])
        for name, captions in rows:
            writer.writerow([name, *captions])


def make_fixture(root: Path, seed: int, *, n_dev: int, n_val: int, panns: bool,
                 wav_seconds: tuple[float, float]) -> Fixture:
    """Write one workload's inputs under ``root``; the same seed gives the same files.

    Every clip has a 44.1 kHz WAV of ``wav_seconds`` (uniform), which the
    caption CSVs reference; with ``panns`` it also has a 2048-d AUCAP-EMB
    vector under ``emb/``. Besides the two caption CSVs, a candidate file
    holds one more caption per development clip, sampled like its references,
    as a captioning system's output for ``evaluate`` to score against the
    reference file.
    """
    root.mkdir(parents=True, exist_ok=True)
    audio_dir, emb_dir = root / "audio", root / "emb"
    audio_dir.mkdir(exist_ok=True)
    emb_dir.mkdir(exist_ok=True)
    model = CaptionModel(seed)
    rng = np.random.RandomState(seed + 1)
    centroids = rng.standard_normal((N_CLASSES, PANNS_DIM))

    candidates: list[str] = []
    references: list[str] = []

    def split(prefix: str, count: int) -> list[tuple[str, list[str]]]:
        rows = []
        for i in range(count):
            cls = i % N_CLASSES  # balanced classes keep split scores comparable across seeds
            clip_id = f"{prefix}{i:05d}"
            captions = [model.caption(rng, cls) for _ in range(5)]
            if prefix == "dev":
                candidates.append(f"{clip_id}\t{model.caption(rng, cls)}\n")
                references.extend(f"{clip_id}\t{c}\n" for c in captions)
            seconds = rng.uniform(*wav_seconds)
            _write_wav(audio_dir / f"{clip_id}.wav", _clip_audio(rng, model.classes[cls], seconds))
            if panns:
                vec = centroids[cls] + 0.8 * rng.standard_normal(PANNS_DIM)
                _write_emb(emb_dir / f"{clip_id}.emb", vec.reshape(1, -1))
            rows.append((f"{clip_id}.wav", captions))
        return rows

    dev_csv, val_csv = root / "development.csv", root / "validation.csv"
    _write_csv(dev_csv, split("dev", n_dev))
    _write_csv(val_csv, split("val", n_val))
    lexicon = root / "lexicon.tsv"
    lexicon.write_text("".join(f"{w}\t{t}\n" for w, t in sorted(model.lexicon().items())),
                       encoding="utf-8")
    vocabulary = root / "vocabulary.tsv"
    words = ["<pad>", "<sos>", "<eos>", "<unk>"] + model.words()
    vocabulary.write_text("".join(f"{i}\t{w}\n" for i, w in enumerate(words)), encoding="utf-8")
    (root / "candidates.tsv").write_text("".join(candidates), encoding="utf-8")
    (root / "references.tsv").write_text("".join(references), encoding="utf-8")
    return Fixture(root=root, dev_csv=dev_csv, val_csv=val_csv, audio_dir=audio_dir,
                   emb_dir=emb_dir, lexicon=lexicon, vocabulary=vocabulary,
                   candidates=root / "candidates.tsv", references=root / "references.tsv")
