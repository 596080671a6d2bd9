"""Content digests that name on-disk artifacts, pinned to their hex values.

A saved corpus names its lexicon's ``sha256()``, a captioner checkpoint its
vocabulary's, and a feature-cache sidecar its source file's. A digest that
changed would make every earlier corpus and checkpoint fail its check and
every cached clip be computed again.
"""

import hashlib
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from aucap import embfile
from aucap.audio.features import FeatureConfig
from aucap.dataset import ClipRecord, _cache_key, cache_features, sve_targets
from aucap.semantics import NOUN, OTHER, VERB, TagLexicon, build_corpus
from aucap.text import Vocabulary

from conftest import make_wav_bytes

LEXICON = {"dog": NOUN, "barks": VERB, "café": NOUN, "softly": OTHER}
WORDS = ["dog", "barks", "café"]
LOGMEL_FIELDS = ("sample_rate=16000 pad_seconds=1.0 window_ms=96.0 overlap=0.5 n_mels=64"
                 " fmin=125.0 fmax=7500.0")
WAV_SHA256 = "efcdfa9039e0c1f004378b20df46197c0bb1af3bea5a3b657f76aff93c1a5bbb"


class TestTagLexicon:
    def test_digest_is_pinned(self):
        assert TagLexicon(LEXICON).sha256() == (
            "4117e86c1848e90fac47427822bf0e967e27d58e8105e472da685c3a6e195c24")
        assert TagLexicon().sha256() == (
            "f5b763a1232e0fff3f068da1524ae605cf809e451a374fa4205fcc3abe5d75e7")

    def test_entries_are_read_only(self):
        lex = TagLexicon(LEXICON)
        digest = lex.sha256()
        with pytest.raises(TypeError):
            lex.entries["dog"] = VERB
        with pytest.raises(TypeError):
            del lex.entries["dog"]
        assert lex.tag("dog") == NOUN and lex.sha256() == digest

    def test_entries_are_copied_from_the_argument(self):
        entries = dict(LEXICON)
        lex = TagLexicon(entries)
        entries["dog"] = VERB
        assert lex.tag("dog") == NOUN and lex.sha256() == TagLexicon(LEXICON).sha256()

    def test_build_sve_hashes_the_lexicon_once(self, monkeypatch):
        """build-sve builds the corpus, then checks it against the lexicon for its targets."""
        lex = TagLexicon(LEXICON)
        hashed = []
        sha256 = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256", lambda data=b"": hashed.append(data) or sha256(data))
        caption = ("<sos>", "dog", "barks", "<eos>")
        corpus = build_corpus([list(caption)], lex)
        sve_targets([ClipRecord("c", None, (caption,), "development")], corpus, lex)
        assert len(hashed) == 1 and corpus.lexicon_sha256 == lex.sha256()


class TestVocabulary:
    def test_digest_is_pinned(self):
        assert Vocabulary(WORDS).sha256() == (
            "54002b91c78df510ec4795097a986ae9c3d1ec88060d13f73fab6fdf19df3888")
        assert Vocabulary().sha256() == (
            "94e249b36520f6cfdc3ac97a23aa28d554a0a4737812422b0cc608cc3eadb93e")

    def test_digest_after_add_equals_a_fresh_vocabulary(self):
        vocab = Vocabulary(WORDS[:1])
        before = vocab.sha256()
        for word in WORDS[1:]:
            vocab.add(word)
        assert vocab.sha256() == Vocabulary(WORDS).sha256() != before
        vocab.add("dog")  # already present: nothing is appended
        assert vocab.sha256() == Vocabulary(WORDS).sha256()


class OpenLog:
    """Counts the files ``open`` is called on inside ``with``.

    An audit hook cannot be removed, so one is added per log and records only
    while the log is active.
    """

    def __init__(self):
        self.counts: Counter | None = None
        sys.addaudithook(self._hook)

    def _hook(self, event, args):
        if event == "open" and self.counts is not None and isinstance(args[0], (str, os.PathLike)):
            self.counts[Path(args[0]).resolve()] += 1

    def __enter__(self) -> Counter:
        self.counts = Counter()
        return self.counts

    def __exit__(self, *exc):
        self.counts = None


@pytest.fixture(scope="module")
def open_log():
    return OpenLog()


class TestCacheFeatures:
    def test_cache_key_is_pinned(self):
        config = FeatureConfig(pad_seconds=1.0)
        assert _cache_key(WAV_SHA256, "logmel", config) == f"{WAV_SHA256} logmel {LOGMEL_FIELDS}"
        assert _cache_key(WAV_SHA256, "panns", config) == f"{WAV_SHA256} panns"

    def test_sidecar_holds_the_pinned_key(self, tmp_path):
        source = tmp_path / "a.wav"
        source.write_bytes(make_wav_bytes([0, 1000, -1000, 32767] * 2000, sample_rate=8000))
        records = [ClipRecord("a", source, (), "development")]
        assert cache_features(records, "logmel", tmp_path, FeatureConfig(pad_seconds=1.0)
                              ).computed == ["a"]
        sidecar = (tmp_path / "logmel" / "a.sha256").read_text(encoding="ascii")
        assert sidecar == f"{WAV_SHA256} logmel {LOGMEL_FIELDS}\n"

    def test_each_source_is_opened_once(self, tmp_path, open_log):
        wavs, embs = [], []
        for i in range(3):
            wavs.append(tmp_path / f"c{i}.wav")
            wavs[-1].write_bytes(make_wav_bytes([300 * i, -1000] * 4000, sample_rate=16000))
            embs.append(tmp_path / f"c{i}.emb")
            embfile.write_matrix(embs[-1], np.full((1, 2048), float(i)))
        config = FeatureConfig(pad_seconds=0.5)
        for variant, sources in (("logmel", wavs), ("panns", embs)):
            records = [ClipRecord(p.stem, p, (), "development") for p in sources]
            for kind in ("computed", "skipped"):  # a cold pass, then a warm one
                with open_log as counts:
                    result = cache_features(records, variant, tmp_path / "cache", config)
                assert getattr(result, kind) == ["c0", "c1", "c2"] and not result.errors
                assert [counts[p.resolve()] for p in sources] == [1, 1, 1], (variant, kind)
