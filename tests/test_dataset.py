import hashlib
import re

import numpy as np
import pytest

from aucap.audio.features import FeatureConfig, extract_log_mel
from aucap.audio.wav import load_wav
from aucap.dataset import (ClipRecord, DatasetManifest, cache_features, cache_path,
                           caption_pairs, expand_pairs, hold_out_validation, load_caption_csv)
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

    def test_byte_order_mark_is_dropped(self, tmp_path):
        """A CSV that starts with U+FEFF, as spreadsheet programs write it,
        parses like the same file without the mark."""
        text = "file_name,caption\nY1.wav,Rain falls.\n"
        plain = load_caption_csv(write(tmp_path, text), "audiocaps")
        assert load_caption_csv(write(tmp_path, "\ufeff" + text), "audiocaps") == plain
        assert plain[0].clip_id == "Y1"

    @pytest.mark.parametrize("text", [
        "file_name,caption\nY1.wav,\n",                   # empty caption cell
        "file_name,caption\nY1.wav,rain\nY1.wav,wind\n",  # duplicate clip
        "file_name\nY1.wav\n",                            # missing column
        "file_name,caption\n,rain\n",                     # empty file name
    ])
    def test_audiocaps_rejects_bad_rows(self, tmp_path, text):
        with pytest.raises(DatasetError):
            load_caption_csv(write(tmp_path, text), "audiocaps")


def _clip(*words):
    return ("<sos>", *words, "<eos>")


CLOTHO_HEADER = "file_name,caption_1,caption_2,caption_3,caption_4,caption_5\n"


class TestLoadCaptionCsvGolden:
    """Exact records for every format, and one CSV per fault with its message."""

    @pytest.fixture
    def audio(self, tmp_path):
        audio = tmp_path / "audio"
        audio.mkdir()
        for name in ("dog.wav", "rain.wav", "Y1.wav", "Y2.wav", "bell.wav", "wind.flac",
                     "car.wav"):
            (audio / name).write_bytes(b"")
        return audio

    def test_clotho_records(self, tmp_path, audio):
        path = write(tmp_path, CLOTHO_HEADER
                     + "dog.wav,A dog barks!,The dog barks loudly.,dog 2 barks,"
                       "\"Dogs, barking\",a dog\n"
                     + "rain.wav, Rain falls , rain falls,RAIN,rain drips,rain falls down\n")
        assert load_caption_csv(path, "clotho", "validation", audio) == [
            ClipRecord("dog", audio / "dog.wav",
                       (_clip("dog", "barks"), _clip("the", "dog", "barks", "loudly"),
                        _clip("dog", "barks"), _clip("dogs", "barking"), _clip("dog")),
                       "validation"),
            ClipRecord("rain", audio / "rain.wav",
                       (_clip("rain", "falls"), _clip("rain", "falls"), _clip("rain"),
                        _clip("rain", "drips"), _clip("rain", "falls", "down")),
                       "validation"),
        ]

    def test_audiocaps_records(self, tmp_path, audio):
        path = write(tmp_path, "file_name,caption\nY1.wav,Rain falls.\nY2.wav,A man speaks\n")
        assert load_caption_csv(path, "audiocaps", "evaluation", audio) == [
            ClipRecord("Y1", audio / "Y1.wav", (_clip("rain", "falls"),), "evaluation"),
            ClipRecord("Y2", audio / "Y2.wav", (_clip("man", "speaks"),), "evaluation"),
        ]

    def test_generic_groups_consecutive_rows_up_to_five(self, tmp_path, audio):
        rows = ["bell,a bell rings {}".format(w) for w in ("once", "twice", "loudly", "softly",
                                                            "again")]
        path = write(tmp_path, "clip_id,caption\n" + "\n".join(rows)
                     + "\nwind.flac,Wind blows.\ncar,a car honks\ncar,the car passes\n")
        assert load_caption_csv(path, "generic", "development", audio) == [
            ClipRecord("bell", audio / "bell.wav",
                       tuple(_clip("bell", "rings", w)
                             for w in ("once", "twice", "loudly", "softly", "again")),
                       "development"),
            ClipRecord("wind.flac", audio / "wind.flac", (_clip("wind", "blows"),),
                       "development"),
            ClipRecord("car", audio / "car.wav",
                       (_clip("car", "honks"), _clip("the", "car", "passes")), "development"),
        ]

    def test_without_audio_dir_records_carry_no_path(self, tmp_path):
        path = write(tmp_path, "clip_id,caption\nnowhere,a dog barks\nnowhere,a dog runs\n")
        assert load_caption_csv(path, "generic") == [
            ClipRecord("nowhere", None, (_clip("dog", "barks"), _clip("dog", "runs")),
                       "development")]

    @pytest.mark.parametrize("source_format, text, line, message", [
        ("clotho", "file_name,caption_1\ndog.wav,a dog\n", None,
         "missing columns ['caption_2', 'caption_3', 'caption_4', 'caption_5']"),
        ("audiocaps", "file_name\nY1.wav\n", None, "missing columns ['caption']"),
        ("generic", "clip,caption\nbell,a bell\n", None, "missing columns ['clip_id']"),
        ("audiocaps", "file_name,caption\n", None, "no records"),
        ("audiocaps", "", None, "missing CSV header"),
        ("audiocaps", "file_name,caption\nY1.wav,rain\n,rain\n", 3, "empty file_name"),
        ("generic", "clip_id,caption\nbell,a bell\n,a bell\n", 3, "empty clip_id"),
        ("clotho", CLOTHO_HEADER + "dog.wav,a dog,a dog,,a dog,a dog\n", 2,
         "empty caption cell"),
        ("audiocaps", "file_name,caption\nY1.wav,rain\nY2.wav,\n", 3, "empty caption cell"),
        ("generic", "clip_id,caption\nbell,a bell\nbell, \n", 3, "empty caption cell"),
        ("audiocaps", "file_name,caption\nY1.wav,rain\nY2.wav,!! 42\n", 3,
         "caption is empty after cleaning"),
        ("audiocaps", "file_name,caption\nY1.wav,rain\nY1.wav,wind\n", 3,
         "duplicate clip_id 'Y1'"),
        ("clotho", CLOTHO_HEADER + "a/dog.wav" + ",a dog" * 5 + "\nb/dog.mp3" + ",a dog" * 5
         + "\n", 3, "duplicate clip_id 'dog'"),
        ("generic", "clip_id,caption\nbell,a bell\ncar,a car\nbell,a bell\n", 4,
         "duplicate clip_id 'bell' (rows must be grouped)"),
        ("generic", "clip_id,caption\n" + "bell,a bell rings\n" * 6, 7,
         "clip 'bell' has more than 5 captions"),
    ])
    def test_faults_name_the_csv_and_line(self, tmp_path, source_format, text, line, message):
        path = write(tmp_path, text)
        where = str(path) if line is None else f"{path}:{line}"
        with pytest.raises(DatasetError, match=re.escape(f"{where}: {message}")):
            load_caption_csv(path, source_format)

    @pytest.mark.parametrize("source_format, text", [
        ("clotho", CLOTHO_HEADER + "dog.wav" + ",a dog" * 5 + "\ngone.wav" + ",a dog" * 5
         + "\n"),
        ("audiocaps", "file_name,caption\nY1.wav,rain\ngone.wav,rain\n"),
        ("generic", "clip_id,caption\nbell,a bell\ngone,a dog\ngone,a cat\n"),
    ])
    def test_missing_audio_file_is_named(self, tmp_path, audio, source_format, text):
        path = write(tmp_path, text)
        pattern = f"^{re.escape(str(path))}:.*referenced file {re.escape(str(audio / 'gone.wav'))}"
        with pytest.raises(DatasetError, match=pattern + " does not exist$"):
            load_caption_csv(path, source_format, audio_dir=audio)


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

    def test_corrupt_sidecar_recomputes_its_clip(self, tmp_path, wav_file):
        records = [ClipRecord("a", wav_file([1000, -1000] * 4000, name="a.wav"), (),
                              "development")]
        cache = tmp_path / "cache"
        assert cache_features(records, "logmel", cache).computed == ["a"]
        sidecar = cache / "logmel" / "a.sha256"
        key = sidecar.read_bytes()
        sidecar.write_bytes(b"\xff\xfe not a key\n")
        again = cache_features(records, "logmel", cache)
        assert (again.computed, again.skipped, again.errors) == (["a"], [], {})
        assert sidecar.read_bytes() == key

    @pytest.mark.parametrize("pad_seconds", [1.0, 0.25])
    def test_another_clip_length_recomputes(self, tmp_path, wav_file, pad_seconds):
        config = FeatureConfig(pad_seconds=0.5)
        records = [ClipRecord("a", wav_file([1000, -1000] * 4000, name="a.wav"), (),
                              "development")]
        cache = tmp_path / "cache"
        assert cache_features(records, "logmel", cache, config).computed == ["a"]
        other = FeatureConfig(pad_seconds=pad_seconds)
        again = cache_features(records, "logmel", cache, other)
        assert (again.computed, again.skipped, again.errors) == (["a"], [], {})
        expected = extract_log_mel(load_wav(records[0].path), other).astype(np.float32)
        assert np.array_equal(read_matrix(cache_path(cache, "logmel", "a")), expected)
        assert cache_features(records, "logmel", cache, other).skipped == ["a"]

    def test_a_sidecar_of_the_seven_field_config_stays_warm(self, tmp_path, wav_file):
        # the text a cache written while every recipe value was a FeatureConfig field holds
        path = wav_file([1000, -1000] * 4000, name="a.wav")
        cache = tmp_path / "cache"
        (cache / "logmel").mkdir(parents=True)
        emb = cache_path(cache, "logmel", "a")
        emb.write_bytes(b"left as it was")
        (cache / "logmel" / "a.sha256").write_text(
            hashlib.sha256(path.read_bytes()).hexdigest() + " logmel sample_rate=16000"
            " pad_seconds=0.5 window_ms=96.0 overlap=0.5 n_mels=64 fmin=125.0 fmax=7500.0\n",
            encoding="ascii")
        result = cache_features([ClipRecord("a", path, (), "development")], "logmel", cache,
                                FeatureConfig(pad_seconds=0.5))
        assert (result.computed, result.skipped, result.errors) == ([], ["a"], {})
        assert emb.read_bytes() == b"left as it was"


def records_of(n, prefix="d"):
    """``n`` caption-only one-caption clips ``<prefix>0``, ``<prefix>1``, ..."""
    return [ClipRecord(f"{prefix}{i}", None, (_clip("a", f"w{i}"),), "development")
            for i in range(n)]


def ids(records):
    return [r.clip_id for r in records]


class TestCaptionPairs:
    def test_one_pair_per_caption_in_clip_then_caption_order(self):
        records = [ClipRecord("a", None, (_clip("dog"), _clip("cat")), "development"),
                   ClipRecord("b", None, (_clip("rain"),), "development")]
        assert caption_pairs(records) == [("a", list(_clip("dog"))), ("a", list(_clip("cat"))),
                                          ("b", list(_clip("rain")))]

    def test_expand_pairs_gives_the_pairs_of_a_manifest_split(self):
        manifest = DatasetManifest("generic")
        manifest.add("development", records_of(3))
        manifest.add("validation", records_of(2, prefix="v"))
        assert expand_pairs(manifest, "validation") == caption_pairs(records_of(2, prefix="v"))
        assert expand_pairs(manifest, "evaluation") == []


class TestHoldOutValidation:
    def test_same_seed_gives_the_same_split(self):
        records = records_of(20)
        first = hold_out_validation(records, 0.3, seed=5)
        assert first == hold_out_validation(records, 0.3, seed=5)
        assert ids(hold_out_validation(records, 0.3, seed=6)[1]) != ids(first[1])

    @pytest.mark.parametrize("seed, held_out", [
        (5, ["d1", "d2", "d5", "d12", "d17", "d19"]),
        (6, ["d2", "d5", "d6", "d7", "d8", "d17"]),
    ])
    def test_the_held_out_clips_of_a_seed_stay_the_same(self, seed, held_out):
        """The clips that the manifest-based split held out, so a seed keeps its split."""
        assert ids(hold_out_validation(records_of(20), 0.3, seed=seed)[1]) == held_out

    def test_the_lists_are_disjoint_and_split_the_records_in_order(self):
        records = records_of(20)
        kept, held_out = hold_out_validation(records, 0.3, seed=5)
        assert not set(ids(kept)) & set(ids(held_out))
        assert all(r in records for r in kept + held_out)  # the records themselves, unchanged
        for part in (kept, held_out):
            assert part == [r for r in records if r in part]  # order kept
        assert len(kept) + len(held_out) == len(records)

    @pytest.mark.parametrize("n, fraction", [(20, 0.3), (7, 0.5), (3, 0.34), (10, 0.99),
                                             (100, 0.29)])
    def test_int_of_n_times_fraction_clips_move(self, n, fraction):
        kept, held_out = hold_out_validation(records_of(n), fraction, seed=1)
        assert len(held_out) == int(n * fraction)
        assert len(kept) == n - int(n * fraction)

    @pytest.mark.parametrize("fraction", [0.0, 0.09])
    def test_a_fraction_of_no_clip_holds_out_nothing(self, fraction):
        records = records_of(10)
        assert hold_out_validation(records, fraction, seed=3) == (records, [])

    @pytest.mark.parametrize("fraction", [-0.1, 1.0])
    def test_fraction_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(DatasetError, match="fraction must be in"):
            hold_out_validation(records_of(4), fraction, seed=0)
