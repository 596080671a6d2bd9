import hashlib
from dataclasses import replace

import numpy as np
import pytest

from aucap.audio.features import FeatureConfig, extract_log_mel
from aucap.audio.wav import load_wav
from aucap.dataset import ClipRecord, cache_features, cache_path, load_caption_csv
from aucap.embfile import read_matrix
from aucap.errors import DatasetError


def write(tmp_path, text):
    path = tmp_path / "captions.csv"
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCaptionCsv:
    def test_clotho_five_captions_per_row(self, tmp_path):
        captions = ",".join(f"a dog barks {i}" for i in range(5))
        path = write(tmp_path, "file_name,caption_1,caption_2,caption_3,caption_4,caption_5\n"
                               f"dog.wav,{captions}\nrain.wav,{captions}\n")
        records = load_caption_csv(path, "clotho")
        assert [r.clip_id for r in records] == ["dog", "rain"]
        assert len(records[0].captions) == 5
        assert records[0].captions[0][0] == "<sos>" and records[0].split == "development"

    def test_audiocaps_one_caption_per_row(self, tmp_path):
        path = write(tmp_path, "file_name,caption\nY1.wav,Rain falls.\nY2.wav,A man speaks\n")
        records = load_caption_csv(path, "audiocaps", split="evaluation")
        assert [(r.clip_id, len(r.captions), r.split) for r in records] == [
            ("Y1", 1, "evaluation"), ("Y2", 1, "evaluation")]

    @pytest.mark.parametrize("text", [
        "file_name,caption\nY1.wav,\n",                   # empty caption cell
        "file_name,caption\nY1.wav,rain\nY1.wav,wind\n",  # duplicate clip
        "file_name\nY1.wav\n",                            # missing column
        "file_name,caption\n,rain\n",                     # empty file name
    ])
    def test_audiocaps_rejects_bad_rows(self, tmp_path, text):
        with pytest.raises(DatasetError):
            load_caption_csv(write(tmp_path, text), "audiocaps")


class TestCacheFeatures:
    def test_skips_unchanged_clips_and_recomputes_edited_ones(self, tmp_path, wav_file):
        config = FeatureConfig(pad_seconds=0.5)
        records = [ClipRecord(name, wav_file(samples, name=f"{name}.wav"), (), "development")
                   for name, samples in (("a", [1000, -1000] * 4000), ("b", [300] * 8000))]
        cache = tmp_path / "cache"
        first = cache_features(records, "logmel", cache, config)
        assert (first.computed, first.skipped, first.errors) == (["a", "b"], [], {})
        a_before = read_matrix(cache_path(cache, "logmel", "a"))
        b_bytes = cache_path(cache, "logmel", "b").read_bytes()

        again = cache_features(records, "logmel", cache, config)
        assert (again.computed, again.skipped) == ([], ["a", "b"])

        wav_file([0, 2000, 0, -2000] * 2000, name="a.wav")  # edit clip a in place
        edited = cache_features(records, "logmel", cache, config)
        assert (edited.computed, edited.skipped, edited.errors) == (["a"], ["b"], {})
        assert not np.array_equal(read_matrix(cache_path(cache, "logmel", "a")), a_before)
        assert cache_path(cache, "logmel", "b").read_bytes() == b_bytes
        sidecar = (cache / "logmel" / "a.sha256").read_text(encoding="ascii").strip()
        assert sidecar == (hashlib.sha256(records[0].path.read_bytes()).hexdigest()
                           + " logmel sample_rate=16000 pad_seconds=0.5 window_ms=96.0"
                             " overlap=0.5 n_mels=64 fmin=125.0 fmax=7500.0")
        assert sorted(p.name for p in (cache / "logmel").iterdir()) == [
            "a.emb", "a.sha256", "b.emb", "b.sha256"]  # no temp file left behind

    @pytest.mark.parametrize("change", [{"pad_seconds": 1.0}, {"n_mels": 32}, {"fmax": 7000.0},
                                        {"overlap": 0.25}])
    def test_another_feature_config_recomputes(self, tmp_path, wav_file, change):
        config = FeatureConfig(pad_seconds=0.5)
        records = [ClipRecord("a", wav_file([1000, -1000] * 4000, name="a.wav"), (),
                              "development")]
        cache = tmp_path / "cache"
        assert cache_features(records, "logmel", cache, config).computed == ["a"]
        other = replace(config, **change)
        again = cache_features(records, "logmel", cache, other)
        assert (again.computed, again.skipped, again.errors) == (["a"], [], {})
        expected = extract_log_mel(load_wav(records[0].path), other).values.astype(np.float32)
        assert np.array_equal(read_matrix(cache_path(cache, "logmel", "a")), expected)
        assert cache_features(records, "logmel", cache, other).skipped == ["a"]
