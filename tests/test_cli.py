import logging
import os
import re
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from aucap import cli, embfile
from aucap import dataset as ds
from aucap.audio.embeddings import VARIANT_DIMS
from aucap.captioner import CaptionerCheckpoint
from aucap.errors import ConfigError
from aucap.mlp import MLP, MLPConfig
from aucap.nn.checkpoint import load_tensors
from aucap.semantics import SubjectVerbCorpus, build_corpus
from aucap.text import Vocabulary, build_vocabulary, clean_caption
from aucap.word2vec import WordEmbeddingTable
from conftest import CAPTIONER_META_DEFECTS, MLP_META_DEFECTS, make_wav_bytes, with_meta

CAPTIONS = {
    "c0": ["a dog barks loudly", "dogs bark outside"],
    "c1": ["a man speaks softly", "the man talks"],
    "c2": ["rain falls down", "water drips near the door"],
    "c3": ["a bell rings", "the siren blows loudly"],
}


def write_caption_csv(root):
    csv = root / "captions.csv"
    csv.write_text("clip_id,caption\n" + "".join(
        f"{clip},{text}\n" for clip, texts in CAPTIONS.items() for text in texts),
        encoding="utf-8")
    return csv


@pytest.fixture
def caption_csv(tmp_path):
    return write_caption_csv(tmp_path)


def write_panns_inputs(root, lexicon):
    """Vocabulary, lexicon, subject-verb corpus and a panns cache for ``CAPTIONS``."""
    captions = [clean_caption(t) for texts in CAPTIONS.values() for t in texts]
    build_vocabulary(captions).save(root / "vocabulary.tsv")
    lexicon.save(root / "lexicon.tsv")
    corpus = build_corpus(captions, lexicon)
    corpus.save(root / "sve_corpus.txt")
    cache = root / "cache"
    (cache / "panns").mkdir(parents=True)
    rng = np.random.RandomState(0)
    for clip in CAPTIONS:
        embfile.write_matrix(cache / "panns" / f"{clip}.emb",
                             rng.standard_normal((1, VARIANT_DIMS["panns"])))
    return corpus


@pytest.fixture
def panns_fixture(tmp_path, caption_csv, toy_lexicon):
    """Caption CSV, vocabulary, lexicon, subject-verb corpus and a panns cache."""
    return tmp_path, write_panns_inputs(tmp_path, toy_lexicon)


def train_captioner_args(root, out):
    return [
        "train-captioner", "--csv", str(root / "captions.csv"),
        "--vocab", str(root / "vocabulary.tsv"), "--cache", str(root / "cache"),
        "--variant", "panns",
        "--lexicon", str(root / "lexicon.tsv"), "--corpus", str(root / "sve_corpus.txt"),
        "--epochs", "1", "--batch", "8", "--embed-dim", "8", "--val-fraction", "0",
        "--out", str(out),
    ]


class TestTrainCaptioner:
    @pytest.mark.parametrize("use_sve", ["on", "off"])
    def test_use_sve_flag(self, panns_fixture, use_sve):
        root, corpus = panns_fixture
        out = root / f"captioner_sve_{use_sve}"
        assert cli.main(train_captioner_args(root, out) + ["--use-sve", use_sve]) == 0
        sve_dim = CaptionerCheckpoint.load(out / "captioner.ckpt").config.sve_dim
        assert corpus.size > 0
        assert sve_dim == (corpus.size if use_sve == "on" else 0)

    def test_use_sve_config_value_must_be_on_or_off(self, panns_fixture):
        root, _ = panns_fixture
        config = root / "train.cfg"
        config.write_text("use_sve = yes\n", encoding="utf-8")
        out = root / "captioner"
        assert cli.main(train_captioner_args(root, out) + ["--config", str(config)]) == 2
        assert not (out / "captioner.ckpt").exists()

    def test_unparsable_float_config_value_exits_2(self, panns_fixture, caplog):
        root, _ = panns_fixture
        config = root / "train.cfg"
        config.write_text("learning_rate = fast\n", encoding="utf-8")
        out = root / "captioner"
        assert cli.main(train_captioner_args(root, out) + ["--config", str(config)]) == 2
        assert "config key 'learning_rate': cannot parse float from 'fast'" in caplog.text
        assert not (out / "captioner.ckpt").exists()


    @pytest.mark.parametrize("flag, value", [("--embed-dim", "0"), ("--embed-dim", "-2")])
    def test_unusable_width_exits_2_and_writes_nothing(self, panns_fixture, flag, value, caplog):
        root, _ = panns_fixture
        before = tree(root)
        assert cli.main(train_captioner_args(root, root / "out") + [flag, value]) == 2
        assert "CaptionerConfig embed_dim must be at least 1" in caplog.text
        assert tree(root) == before

    @pytest.mark.parametrize("fraction", ["-0.5", "1", "1.5", "nan"])
    def test_val_fraction_outside_unit_interval_exits_2_before_any_work(
            self, panns_fixture, fraction, monkeypatch, caplog):
        root, _ = panns_fixture
        monkeypatch.setattr(cli, "_load_records", no_work)
        before = tree(root)
        assert cli.main(train_captioner_args(root, root / "out") + ["--val-fraction", fraction]) == 2
        assert "--val-fraction must be in [0, 1)" in caplog.text
        assert tree(root) == before

    def write_val_csv(self, root, clips):
        val = root / "val.csv"
        val.write_text("clip_id,caption\n" + "".join(f"{c},{CAPTIONS[c][0]}\n" for c in clips),
                       encoding="utf-8")
        return ["--val-csv", str(val)]

    @pytest.mark.parametrize("shared, named", [
        (["c2"], "1 clip(s), first c2; "),
        (["c3", "c2", "c1", "c0"], "4 clip(s), first c0, c1, c2; ")])
    def test_val_csv_sharing_clips_with_csv_exits_2_and_writes_nothing(
            self, panns_fixture, shared, named, monkeypatch, caplog):
        root, _ = panns_fixture
        val_flag = self.write_val_csv(root, shared)
        monkeypatch.setattr(cli, "_load_features", no_work)
        before = tree(root)
        assert cli.main(train_captioner_args(root, root / "out") + val_flag) == 2
        assert f"--csv and --val-csv share {named}" in caplog.text
        assert tree(root) == before

    def test_disjoint_val_csv_selects_epochs_on_its_clips(self, panns_fixture, caplog):
        caplog.set_level(logging.INFO)
        root, _ = panns_fixture
        csv = root / "captions.csv"
        csv.write_text("".join(line + "\n" for line in csv.read_text(encoding="utf-8")
                               .splitlines() if not line.startswith("c3,")), encoding="utf-8")
        argv = train_captioner_args(root, root / "out") + self.write_val_csv(root, ["c3"])
        assert cli.main(argv + ["--epochs", "2"]) == 0
        assert re.search(r"train-captioner: best epoch \d of 2, validation loss", caplog.text)
        assert (root / "out" / "captioner.ckpt").is_file()


def no_work(*args, **kwargs):
    raise AssertionError("work started before the arguments were checked")


def train_mlp_args(root, out, variant="panns"):
    return ["train-mlp", "--csv", str(root / "captions.csv"),
            "--lexicon", str(root / "lexicon.tsv"), "--corpus", str(root / "sve_corpus.txt"),
            "--cache", str(root / "cache"), "--variant", variant,
            "--epochs", "1", "--batch", "8", "--out", str(out)]


def predict_args(root, captioner, mlp, out):
    return ["predict", "--csv", str(root / "captions.csv"), "--checkpoint", str(captioner),
            "--vocab", str(root / "vocabulary.tsv"), "--cache", str(root / "cache"),
            "--sve-source", "mlp", "--mlp", str(mlp), "--max-len", "4", "--out", str(out)]


@pytest.fixture
def logmel_fixture(panns_fixture):
    """``panns_fixture`` plus a log-Mel AUCAP-EMB cache of 5 frames per clip."""
    root, corpus = panns_fixture
    (root / "cache" / "logmel").mkdir()
    rng = np.random.RandomState(1)
    for clip in CAPTIONS:
        embfile.write_matrix(root / "cache" / "logmel" / f"{clip}.emb",
                             rng.standard_normal((5, VARIANT_DIMS["logmel"])))
    return root, corpus


class TestTrainMlp:
    def test_clips_of_different_feature_shapes_exit_1_and_write_nothing(self, panns_fixture,
                                                                         caplog):
        root, _ = panns_fixture
        (root / "cache" / "vggish").mkdir()
        for i, clip in enumerate(CAPTIONS):  # one row per second: c3 lasts a second longer
            embfile.write_matrix(root / "cache" / "vggish" / f"{clip}.emb",
                                 np.ones((3 + (i == 3), VARIANT_DIMS["vggish"])))
        out = root / "mlp"
        assert cli.main(train_mlp_args(root, out, variant="vggish")) == 1
        assert "ShapeError: clip 'c3' has features of shape (4, 128), the first clip (3, 128)" \
            in caplog.text
        assert not (out / "sve_mlp.ckpt").exists()


class TestPredictSveFromMlp:
    def test_clip_of_another_width_than_the_mlp_exits_1_naming_it(self, panns_fixture, caplog):
        root, _ = panns_fixture
        vggish = root / "cache" / "vggish"
        vggish.mkdir()
        for clip in CAPTIONS:
            embfile.write_matrix(vggish / f"{clip}.emb", np.ones((3, VARIANT_DIMS["vggish"])))
        assert cli.main(train_mlp_args(root, root / "mlp", variant="vggish")) == 0
        assert cli.main(train_captioner_args(root, root / "captioner")) == 0
        embfile.write_matrix(vggish / "c2.emb", np.ones((4, VARIANT_DIMS["vggish"])))
        mlp, out = root / "mlp" / "sve_mlp.ckpt", root / "predictions.tsv"
        assert cli.main(predict_args(root, root / "captioner" / "captioner.ckpt", mlp, out)) == 1
        assert (f"ShapeError: clip 'c2' has features of shape (4, 128), the MLP {mlp} "
                f"takes 384 values") in caplog.text
        assert not out.exists()

    def test_logmel_mlp_feeds_predict(self, logmel_fixture):
        root, _ = logmel_fixture
        assert cli.main(train_mlp_args(root, root / "mlp", variant="logmel")) == 0
        mlp = root / "mlp" / "sve_mlp.ckpt"
        assert MLP.load(mlp).variant == "logmel"
        captioner = root / "captioner"
        assert cli.main(train_captioner_args(root, captioner) + ["--variant", "logmel"]) == 0
        out = root / "predictions.tsv"
        assert cli.main(predict_args(root, captioner / "captioner.ckpt", mlp, out)) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert [line.split("\t")[0] for line in lines] == list(CAPTIONS)

    def test_mlp_of_the_captioners_variant_reuses_its_features(self, panns_fixture,
                                                                monkeypatch):
        root, _ = panns_fixture
        assert cli.main(train_mlp_args(root, root / "mlp")) == 0
        assert cli.main(train_captioner_args(root, root / "captioner")) == 0
        loads = []
        load_cached_features = ds.load_cached_features

        def counting(*args, **kwargs):
            loads.append(args[1])
            return load_cached_features(*args, **kwargs)

        monkeypatch.setattr(ds, "load_cached_features", counting)
        out = root / "predictions.tsv"
        assert cli.main(predict_args(root, root / "captioner" / "captioner.ckpt",
                                     root / "mlp" / "sve_mlp.ckpt", out)) == 0
        assert loads == ["panns"] and len(out.read_text(encoding="utf-8").splitlines()) == 4

    def test_mlp_without_recorded_variant_exits_2(self, panns_fixture, caplog):
        root, corpus = panns_fixture
        captioner = root / "captioner"
        assert cli.main(train_captioner_args(root, captioner)) == 0
        mlp = root / "old_mlp.ckpt"
        config = MLPConfig(input_dim=VARIANT_DIMS["panns"], output_dim=corpus.size,
                           hidden_widths=(4,))
        MLP(config, np.random.RandomState(0)).save(mlp)
        out = root / "predictions.tsv"
        assert cli.main(predict_args(root, captioner / "captioner.ckpt", mlp, out)) == 2
        assert "records no feature variant; retrain it with train-mlp" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("mlp_corpus", ["same K, other order", "none recorded"])
    def test_mlp_of_another_corpus_exits_2(self, panns_fixture, mlp_corpus, caplog):
        root, corpus = panns_fixture
        other = root / "other_corpus.txt"
        SubjectVerbCorpus(words=corpus.words[::-1], lexicon_sha256=corpus.lexicon_sha256).save(other)
        assert corpus.size > 1 and SubjectVerbCorpus.load(other).sha256() != corpus.sha256()
        assert cli.main(train_mlp_args(root, root / "mlp") + ["--corpus", str(other)]) == 0
        mlp = root / "mlp" / "sve_mlp.ckpt"
        if mlp_corpus == "none recorded":  # as train-mlp wrote it before it recorded one
            model = MLP.load(mlp)
            model.corpus_sha256 = None
            model.save(mlp)
        captioner = root / "captioner"
        assert cli.main(train_captioner_args(root, captioner)) == 0
        out = root / "predictions.tsv"
        assert cli.main(predict_args(root, captioner / "captioner.ckpt", mlp, out)) == 2
        assert "does not record the captioner's subject-verb corpus" in caplog.text
        assert not out.exists()

    def test_captioner_checkpoint_as_mlp_exits_1(self, panns_fixture, caplog):
        root, _ = panns_fixture
        captioner = root / "captioner" / "captioner.ckpt"
        assert cli.main(train_captioner_args(root, captioner.parent)) == 0
        out = root / "predictions.tsv"
        assert cli.main(predict_args(root, captioner, captioner, out)) == 1
        assert f"CheckpointError: {captioner}: not an SVE MLP checkpoint" in caplog.text
        assert not out.exists()

    def test_directory_as_checkpoint_exits_2(self, panns_fixture, caplog):
        root, _ = panns_fixture
        out = root / "predictions.tsv"
        assert cli.main(predict_args(root, root, root, out)) == 2
        assert f"captioner checkpoint at {root} is a directory, not a file" in caplog.text
        assert not out.exists()


TRAINERS = {"train-mlp": train_mlp_args, "train-captioner": train_captioner_args}


class TestTrainingFields:
    @pytest.mark.parametrize("flag, value", [
        ("--batch", "-3"), ("--batch", "0"), ("--dropout", "1.0"), ("--dropout", "-0.1"),
        ("--epochs", "-1"), ("--learning-rate", "0"), ("--learning-rate", "nan"),
        ("--learning-rate", "inf")])
    @pytest.mark.parametrize("command", sorted(TRAINERS))
    def test_bad_value_exits_2_and_writes_nothing(self, panns_fixture, command, flag, value,
                                                  caplog):
        root, _ = panns_fixture
        before = tree(root)
        assert cli.main(TRAINERS[command](root, root / "out") + [flag, value]) == 2
        assert "configuration error: " in caplog.text and " must be " in caplog.text
        assert tree(root) == before

    @pytest.mark.parametrize("command", sorted(TRAINERS))
    def test_zero_epochs_write_the_initial_model(self, panns_fixture, command, caplog):
        caplog.set_level(logging.INFO)
        root, _ = panns_fixture
        assert cli.main(TRAINERS[command](root, root / "out") + ["--epochs", "0"]) == 0
        assert f"{command}: kept epoch 0 of 0 (no validation loss), final train loss nan" in (
            caplog.text)
        assert len(list((root / "out").glob("*.ckpt"))) == 1

    @pytest.mark.parametrize("command", sorted(TRAINERS))
    def test_without_validation_the_last_epoch_is_kept(self, panns_fixture, command, caplog):
        caplog.set_level(logging.INFO)
        root, _ = panns_fixture
        assert cli.main(TRAINERS[command](root, root / "out") + ["--epochs", "3"]) == 0
        assert re.search(rf"{command}: kept epoch 3 of 3 \(no validation loss\), "
                         r"final train loss \d+\.\d{4}$", caplog.text, re.M)
        assert "best epoch" not in caplog.text

    def test_with_validation_the_best_epoch_and_its_loss_are_logged(self, panns_fixture, caplog):
        caplog.set_level(logging.INFO)
        root, _ = panns_fixture
        args = train_captioner_args(root, root / "out") + ["--epochs", "3", "--val-fraction", "0.3"]
        assert cli.main(args) == 0
        history = CaptionerCheckpoint.load(root / "out" / "captioner.ckpt").history
        val = [float(v) for v in re.findall(r"captioner epoch \d/3 train \S+ validation (\S+)",
                                            caplog.text)]
        best = history["best_epoch"]
        assert len(val) == 3 and best == int(np.argmin(val))
        assert (f"train-captioner: best epoch {best + 1} of 3, validation loss {val[best]:.4f}, "
                "final train loss ") in caplog.text

    @pytest.mark.parametrize("command", sorted(TRAINERS))
    def test_model_size_is_logged_at_start(self, panns_fixture, command, caplog):
        caplog.set_level(logging.INFO)
        root, _ = panns_fixture
        assert cli.main(TRAINERS[command](root, root / "out") + ["--epochs", "0"]) == 0
        tensors, _ = load_tensors(next((root / "out").glob("*.ckpt")))
        params = [v for k, v in tensors.items() if not k.startswith("buffer.")]
        count = sum(v.size for v in params)
        mb = sum(v.nbytes for v in params) / 1e6
        assert all(v.dtype == np.float32 for v in params)
        assert (f"{command.removeprefix('train-')}: {count} parameters, {mb:.1f} MB of weights, "
                f"{3 * mb:.1f} MB with Adam's m and v (plus any gradient held dense)"
                ) in caplog.text


@pytest.fixture
def nan_feature(monkeypatch):
    """Cached features as loaded, with one value of one clip replaced by NaN."""
    load = cli.ds.load_cached_features

    def poisoned(*args, **kwargs):
        features = load(*args, **kwargs)
        features["c1"] = features["c1"].copy()
        features["c1"][0, 7] = np.nan
        return features

    monkeypatch.setattr(cli.ds, "load_cached_features", poisoned)


class TestNonFiniteLoss:
    def test_train_captioner_fails_without_checkpoint(self, panns_fixture, nan_feature, caplog):
        root, _ = panns_fixture
        out = root / "captioner"
        assert cli.main(train_captioner_args(root, out)) == 1
        assert "TrainingError: epoch 1 batch 2" in caplog.text  # the batch that holds c1
        assert not (out / "captioner.ckpt").exists()

    def test_train_mlp_fails_without_checkpoint(self, panns_fixture, nan_feature, caplog):
        root, _ = panns_fixture
        out = root / "mlp"
        assert cli.main(train_mlp_args(root, out)) == 1
        assert "TrainingError: epoch 1 batch 1" in caplog.text
        assert not (out / "sve_mlp.ckpt").exists()


WAV_CLIPS = ("w0", "w1", "w2")


def write_wav_clips(root):
    """A generic CSV naming three 0.5 s, 16 kHz clips in ``root``."""
    (root / "clips.csv").write_text(
        "clip_id,caption\n" + "".join(f"{c},a dog barks\n" for c in WAV_CLIPS), encoding="utf-8")
    for i, clip in enumerate(WAV_CLIPS):
        samples = np.round(8000 * np.sin(0.05 * (i + 1) * np.arange(8000))).astype(int).tolist()
        (root / f"{clip}.wav").write_bytes(make_wav_bytes(samples))


@pytest.fixture
def wav_clips(tmp_path):
    write_wav_clips(tmp_path)
    return tmp_path


def extract_args(root, pad_seconds):
    return ["extract-features", "--csv", str(root / "clips.csv"), "--audio-dir", str(root),
            "--cache", str(root / "cache"), "--pad-seconds", pad_seconds]


class TestExtractFeatures:
    def cached_shape(self, root, clip):
        return embfile.read_matrix(root / "cache" / "logmel" / f"{clip}.emb").shape

    def test_caches_every_clip_then_skips_them(self, wav_clips, caplog):
        caplog.set_level(logging.INFO)
        assert cli.main(extract_args(wav_clips, "1.0")) == 0
        assert sorted(p.name for p in (wav_clips / "cache" / "logmel").iterdir()) == sorted(
            f"{c}{ext}" for c in WAV_CLIPS for ext in (".emb", ".sha256"))
        # 1 s at 16 kHz, in frames of 1536 samples with a hop of 768
        assert all(self.cached_shape(wav_clips, c) == ((16000 - 1536) // 768 + 1, 64)
                   for c in WAV_CLIPS)
        assert "3 computed, 0 skipped, 0 failed" in caplog.text
        caplog.clear()
        assert cli.main(extract_args(wav_clips, "1.0")) == 0
        assert "0 computed, 3 skipped, 0 failed" in caplog.text

    def test_other_pad_seconds_recomputes_every_clip(self, wav_clips, caplog):
        caplog.set_level(logging.INFO)
        assert cli.main(extract_args(wav_clips, "1.0")) == 0
        caplog.clear()
        assert cli.main(extract_args(wav_clips, "2.0")) == 0
        assert "3 computed, 0 skipped, 0 failed" in caplog.text
        assert all(self.cached_shape(wav_clips, c) == ((32000 - 1536) // 768 + 1, 64)
                   for c in WAV_CLIPS)

    def test_corrupt_wav_exits_1_and_names_the_clip(self, wav_clips, caplog):
        (wav_clips / "w1.wav").write_bytes(b"RIFF\x00\x00\x00\x00JUNK")
        assert cli.main(extract_args(wav_clips, "1.0")) == 1
        assert "clip w1: " in caplog.text
        assert not (wav_clips / "cache" / "logmel" / "w1.emb").exists()
        assert (wav_clips / "cache" / "logmel" / "w2.emb").exists()

    @pytest.mark.parametrize("taken", ["cache", "cache/logmel"])
    def test_cache_directory_that_is_a_file_exits_2_before_any_work(self, wav_clips, taken,
                                                                    monkeypatch, caplog):
        (wav_clips / taken).parent.mkdir(exist_ok=True)
        (wav_clips / taken).write_bytes(b"")
        monkeypatch.setattr(cli, "_load_records", no_work)
        before = tree(wav_clips)
        assert cli.main(extract_args(wav_clips, "1.0")) == 2
        assert f"{wav_clips / taken} exists and is not a directory" in caplog.text
        assert tree(wav_clips) == before

    def test_no_audio_dir_exits_2_before_any_work(self, wav_clips, monkeypatch, caplog):
        argv = extract_args(wav_clips, "1.0")
        del argv[argv.index("--audio-dir"):argv.index("--audio-dir") + 2]
        monkeypatch.setattr(cli, "_load_records", no_work)
        before = tree(wav_clips)
        assert cli.main(argv) == 2
        assert "missing required artifact: audio directory (--audio-dir)" in caplog.text
        assert tree(wav_clips) == before

    @pytest.mark.parametrize("pad_seconds", ["0", "-1"])
    def test_bad_pad_seconds_exits_2_and_writes_nothing(self, wav_clips, pad_seconds, caplog):
        assert cli.main(extract_args(wav_clips, pad_seconds)) == 2
        assert "configuration error: feature pad_seconds" in caplog.text
        assert not (wav_clips / "cache").exists()


class TestTrainW2v:
    def test_writes_vocabulary_and_table(self, caption_csv, tmp_path):
        out = tmp_path / "w2v"
        args = ["train-w2v", "--csv", str(caption_csv), "--dim", "6", "--epochs", "2",
                "--out", str(out)]
        assert cli.main(args) == 0
        vocab = Vocabulary.load(out / "vocabulary.tsv")
        assert vocab.words == build_vocabulary(
            [clean_caption(t) for texts in CAPTIONS.values() for t in texts]).words
        table = WordEmbeddingTable.load(out / "word_embeddings.emb", expected_dim=6)
        assert table.matrix.shape == (len(vocab), 6)
        assert np.all(np.isfinite(table.matrix))

    @pytest.mark.parametrize("flag, value", [("--window", "0"), ("--dim", "0"),
                                             ("--negatives", "-1")])
    def test_bad_setting_exits_2_and_writes_nothing(self, caption_csv, tmp_path, flag, value,
                                                     caplog):
        out = tmp_path / "w2v"
        args = ["train-w2v", "--csv", str(caption_csv), flag, value, "--out", str(out)]
        assert cli.main(args) == 2
        assert "configuration error: word2vec " + flag[2:] in caplog.text
        assert not (out / "vocabulary.tsv").exists()
        assert not (out / "word_embeddings.emb").exists()

    @pytest.mark.parametrize("line", ["epochs = abc", "window = 2.5"])
    def test_unparsable_config_value_exits_2_and_writes_nothing(self, caption_csv, tmp_path,
                                                                 line, caplog):
        config = tmp_path / "w2v.cfg"
        config.write_text(line + "\n", encoding="utf-8")
        out = tmp_path / "w2v"
        args = ["train-w2v", "--csv", str(caption_csv), "--config", str(config),
                "--out", str(out)]
        assert cli.main(args) == 2
        key = line.split(" = ")[0]
        assert f"configuration error: config key {key!r}: cannot parse int" in caplog.text
        assert not (out / "vocabulary.tsv").exists()
        assert not (out / "word_embeddings.emb").exists()


HOLD_LOCK = """import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from aucap import cli
with cli.output_lock(Path(sys.argv[2])):
    print("locked", flush=True)
    sys.stdin.read()
"""


def train_w2v_args(csv, out):
    return ["train-w2v", "--csv", str(csv), "--dim", "6", "--epochs", "1", "--out", str(out)]


class TestOutputLock:
    def test_held_lock_refuses_a_command_until_its_holder_is_killed(self, tmp_path,
                                                                    caption_csv):
        out = tmp_path / "w2v"
        argv = train_w2v_args(caption_csv, out)
        assert cli.main(argv) == 0
        src = Path(cli.__file__).resolve().parents[1]
        with subprocess.Popen([sys.executable, "-c", HOLD_LOCK, str(src), str(out)],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as child:
            try:
                assert child.stdout.readline() == "locked\n"
                before = tree(out)
                assert cli.main(argv) == 2
                assert tree(out) == before
            finally:
                child.kill()
                child.wait(timeout=30)
        assert child.returncode == -signal.SIGKILL
        assert (out / cli.LOCK_NAME).exists()  # the killed holder's leftover file
        assert cli.main(argv) == 0
        assert not (out / cli.LOCK_NAME).exists()

    @pytest.mark.parametrize("content", ["1\n", ""], ids=["pid-1", "empty"])
    def test_leftover_lock_file_does_not_block(self, tmp_path, caption_csv, content):
        out = tmp_path / "w2v"
        out.mkdir()
        (out / cli.LOCK_NAME).write_text(content, encoding="utf-8")
        assert cli.main(train_w2v_args(caption_csv, out)) == 0
        assert (out / "word_embeddings.emb").exists()
        assert not (out / cli.LOCK_NAME).exists()

    @pytest.mark.parametrize("command", sorted(cli.subcommands(cli.build_parser())))
    def test_lock_path_that_is_a_directory_exits_2(self, pipeline, tmp_path, command,
                                                   monkeypatch, caplog):
        """Refused with the other outputs, before any work; extract-features locks
        ``<cache root>/<variant>``, evaluate and a ``.tsv`` predict the file's directory."""
        root, commands = pipeline
        argv, locked = list(commands[command]), tmp_path / "out"
        if command == "extract-features":
            argv[argv.index("--cache") + 1] = str(tmp_path / "cache")
            locked = tmp_path / "cache" / "logmel"
        else:
            argv = with_out(argv, locked / "p.tsv" if command in ("predict", "evaluate")
                            else locked)
        (locked / cli.LOCK_NAME).mkdir(parents=True)
        forbid_work(monkeypatch, command)
        before = tree(root), tree(tmp_path)
        assert cli.main(argv) == 2
        assert f"{locked / cli.LOCK_NAME} is a directory, not a file" in caplog.text
        assert (tree(root), tree(tmp_path)) == before

    def test_lock_file_that_cannot_be_opened_is_a_config_error(self, tmp_path):
        (tmp_path / cli.LOCK_NAME).mkdir()
        with pytest.raises(ConfigError, match="cannot open the lock file"):
            with cli.output_lock(tmp_path):
                pass

    def test_second_lock_is_refused_while_the_first_is_held(self, tmp_path):
        lock = tmp_path / cli.LOCK_NAME
        with cli.output_lock(tmp_path):
            with pytest.raises(ConfigError, match="is locked by another run"):
                with cli.output_lock(tmp_path):
                    pass
            assert lock.read_bytes() == b""  # nothing is written into the file
        assert not lock.exists()

    def test_lock_on_a_file_unlinked_meanwhile_is_retried(self, tmp_path, monkeypatch):
        """A holder that releases between our open and our flock unlinks the
        file we then lock; we retry on the file the path names now."""
        lock = tmp_path / cli.LOCK_NAME
        locked = []
        flock = cli.fcntl.flock

        def release_first(fd, op):
            if not locked:
                lock.unlink()
            locked.append(os.fstat(fd))
            flock(fd, op)

        monkeypatch.setattr(cli.fcntl, "flock", release_first)
        with cli.output_lock(tmp_path):
            assert len(locked) == 2
            assert os.path.samestat(locked[1], os.stat(lock))
        assert not lock.exists()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, toy_lexicon):
    """Inputs for every command, with the MLP and captioner that predict reads,
    and per command an argument list that runs to exit 0 (``test_base_run``).
    No list names a flag with choices, so a config-file value would be used."""
    root = tmp_path_factory.mktemp("pipeline")
    csv = str(write_caption_csv(root))
    write_panns_inputs(root, toy_lexicon)
    write_wav_clips(root)
    assert cli.main(train_mlp_args(root, root / "mlp")) == 0
    assert cli.main(train_captioner_args(root, root / "captioner")) == 0
    pairs = "".join(f"{clip}\t{texts[0]}\n" for clip, texts in CAPTIONS.items())
    (root / "candidates.tsv").write_text(pairs, encoding="utf-8")
    (root / "references.tsv").write_text(pairs, encoding="utf-8")
    corpus = ["--lexicon", str(root / "lexicon.tsv"), "--corpus", str(root / "sve_corpus.txt")]
    train = ["--csv", csv, "--cache", str(root / "cache"), "--epochs", "1", "--batch", "8"]
    commands = {
        "extract-features": extract_args(root, "1.0"),
        "build-sve": ["build-sve", "--csv", csv, "--lexicon", str(root / "lexicon.tsv"),
                      "--out", str(root / "sve")],
        "train-w2v": ["train-w2v", "--csv", csv, "--dim", "6", "--epochs", "1",
                      "--out", str(root / "w2v")],
        "train-mlp": ["train-mlp", *train, *corpus, "--out", str(root / "mlp2")],
        "train-captioner": ["train-captioner", *train, *corpus, "--vocab",
                            str(root / "vocabulary.tsv"), "--embed-dim", "8",
                            "--val-fraction", "0", "--out", str(root / "captioner2")],
        "predict": ["predict", "--csv", csv, "--cache", str(root / "cache"), *corpus,
                    "--checkpoint", str(root / "captioner" / "captioner.ckpt"),
                    "--vocab", str(root / "vocabulary.tsv"),
                    "--mlp", str(root / "mlp" / "sve_mlp.ckpt"),
                    "--out", str(root / "predictions.tsv")],
        "evaluate": ["evaluate", "--candidates", str(root / "candidates.tsv"),
                     "--references", str(root / "references.tsv"),
                     "--out", str(root / "report.txt")],
    }
    assert sorted(commands) == sorted(cli.subcommands(cli.build_parser()))
    return root, commands


def config_flags(kind):
    """(command, config key) per flag with ``choices``, or per typed flag (a
    ``type`` or a store_true switch), found by walking ``build_parser()``."""
    cases = []
    for name, command in cli.subcommands(cli.build_parser()).items():
        for action in command._actions:
            if not action.option_strings or action.dest in ("help", "config"):
                continue
            typed = action.type is not None or action.nargs == 0
            if (action.choices is not None) if kind == "choices" else typed:
                cases.append((name, action.dest))
    return cases


def tree(root):
    """Every path under ``root`` with its size and modification time."""
    return {p: (p.stat().st_size, p.stat().st_mtime_ns) for p in root.rglob("*")}


def run_with_config(argv, config_dir, text):
    config = config_dir / "run.cfg"
    config.write_text(text, encoding="utf-8")
    return cli.main(argv + ["--config", str(config)])


class TestConfigFile:
    @pytest.mark.parametrize("command", sorted(cli.subcommands(cli.build_parser())))
    def test_base_run(self, pipeline, command):
        root, commands = pipeline
        assert cli.main(commands[command]) == 0
        assert not list(root.rglob(cli.LOCK_NAME))

    @pytest.mark.parametrize("command, key", config_flags("choices"))
    def test_out_of_range_choice_exits_2_and_writes_nothing(self, pipeline, tmp_path, command,
                                                            key, caplog):
        root, commands = pipeline
        before = tree(root)
        assert run_with_config(commands[command], tmp_path, f"{key} = not-a-choice\n") == 2
        assert f"config key {key!r}: 'not-a-choice' is not one of" in caplog.text
        assert tree(root) == before

    @pytest.mark.parametrize("command, key", config_flags("typed"))
    def test_unparsable_typed_value_exits_2_and_writes_nothing(self, pipeline, tmp_path,
                                                                command, key, caplog):
        root, commands = pipeline
        before = tree(root)
        assert run_with_config(commands[command], tmp_path, f"{key} = x1\n") == 2
        assert f"config key {key!r}: cannot parse" in caplog.text
        assert tree(root) == before

    def test_misspelt_sve_source_exits_2_and_writes_no_predictions(self, pipeline, tmp_path):
        _, commands = pipeline
        out = tmp_path / "predictions.tsv"
        argv = commands["predict"] + ["--out", str(out)]
        assert run_with_config(argv, tmp_path, "sve_source = mpl\n") == 2
        assert not out.exists()
        assert run_with_config(argv, tmp_path, "sve_source = captions\n") == 0
        assert out.exists()

    def test_sve_source_is_mlp_or_captions(self, pipeline, tmp_path):
        _, commands = pipeline
        out = tmp_path / "predictions.tsv"
        with pytest.raises(SystemExit) as exc:
            cli.main(commands["predict"] + ["--sve-source", "off", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        assert run_with_config(commands["predict"] + ["--out", str(out)], tmp_path,
                               "sve_source = off\n") == 2
        assert not out.exists()

    def test_flag_overrides_config_file_which_overrides_default(self, pipeline, tmp_path):
        _, commands = pipeline
        out = tmp_path / "w2v"
        argv = commands["train-w2v"] + ["--out", str(out)]
        assert run_with_config(argv, tmp_path, "dim = 4\nnegatives = 2\n") == 0
        assert WordEmbeddingTable.load(out / "word_embeddings.emb").dim == 6

    def test_switch_reads_on_from_config_file(self, panns_fixture, tmp_path):
        root, _ = panns_fixture
        argv = ["build-sve", "--csv", str(root / "captions.csv"),
                "--lexicon", str(root / "lexicon.tsv"), "--out", str(tmp_path / "sve")]
        assert run_with_config(argv, tmp_path, "matrix_out = on\n") == 0
        assert (tmp_path / "sve" / "sve_targets.emb").exists()

    @pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8"])
    def test_unreadable_config_file_exits_2(self, tmp_path, kind, caplog):
        config = tmp_path / "run.cfg"
        if kind == "directory":
            config.mkdir()
        elif kind == "not utf-8":
            config.write_bytes(b"seed = \xff\n")
        assert cli.main(["evaluate", "--config", str(config)]) == 2
        assert f"cannot read config file {config}" in caplog.text

    def test_seed_only_on_commands_that_draw_random_numbers(self, pipeline, tmp_path, caplog):
        _, commands = pipeline
        seeded = {name for name, command in cli.subcommands(cli.build_parser()).items()
                  if any(a.dest == "seed" for a in command._actions)}
        assert seeded == {"train-w2v", "train-mlp", "train-captioner"}
        for name in sorted(set(commands) - seeded):
            caplog.clear()
            assert run_with_config(commands[name], tmp_path, "seed = 1\n") == 2
            assert "unknown config key 'seed'" in caplog.text


# Every command with --out. evaluate's names its optional report file; every
# other one names a directory (predict's may name its file instead).
OUT_COMMANDS = [name for name, command in cli.subcommands(cli.build_parser()).items()
                if any("--out" in a.option_strings for a in command._actions)]
DIRECTORY_OUT_COMMANDS = [name for name in OUT_COMMANDS if name != "evaluate"]


def forbid_work(monkeypatch, command):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{command} started work despite a bad --out")

    for name in ("_load_records", "build_corpus", "train_word2vec", "train_mlp",
                 "train_captioner"):
        monkeypatch.setattr(cli, name, no_work)
    monkeypatch.setattr(cli.metrics, "evaluate_files", no_work)


def with_out(argv, out):
    """``argv`` with its ``--out`` value replaced, or dropped when ``out`` is None."""
    i = argv.index("--out")
    return argv[:i] + ([] if out is None else ["--out", str(out)]) + argv[i + 2:]


class TestOutRequired:
    @pytest.mark.parametrize("command", DIRECTORY_OUT_COMMANDS)
    def test_missing_out_exits_2_before_any_work(self, pipeline, command, monkeypatch, caplog):
        root, commands = pipeline
        forbid_work(monkeypatch, command)
        before = tree(root)
        assert cli.main(with_out(commands[command], None)) == 2
        assert f"{command} needs --out" in caplog.text
        assert tree(root) == before

    @pytest.mark.parametrize("inside", [False, True])
    @pytest.mark.parametrize("command", DIRECTORY_OUT_COMMANDS)
    def test_out_directory_that_is_a_file_exits_2_before_any_work(
            self, pipeline, tmp_path, command, inside, monkeypatch, caplog):
        root, commands = pipeline
        taken = tmp_path / "taken"
        taken.write_bytes(b"")
        forbid_work(monkeypatch, command)
        before = tree(root)
        assert cli.main(with_out(commands[command], taken / "run" if inside else taken)) == 2
        assert f"{taken} exists and is not a directory" in caplog.text
        assert tree(root) == before and taken.read_bytes() == b""

    # evaluate's --out always names a file, with a suffix or not
    @pytest.mark.parametrize("command, name", [("predict", "predictions.tsv"),
                                               ("evaluate", "report.txt"), ("evaluate", "outdir")])
    def test_out_file_that_is_a_directory_exits_2_before_any_work(
            self, pipeline, tmp_path, command, name, monkeypatch, capsys, caplog):
        root, commands = pipeline
        (tmp_path / name).mkdir()
        forbid_work(monkeypatch, command)
        before = tree(root)
        capsys.readouterr()
        assert cli.main(with_out(commands[command], tmp_path / name)) == 2
        assert "is a directory, not a file" in caplog.text
        assert tree(root) == before and capsys.readouterr().out == ""
        assert list((tmp_path / name).iterdir()) == []

    @pytest.mark.parametrize("command", DIRECTORY_OUT_COMMANDS)
    def test_each_file_it_writes_that_is_a_directory_exits_2_before_any_work(
            self, pipeline, tmp_path, command, monkeypatch, caplog):
        """Every file a run writes in its --out directory, listed after one run
        that writes them all, is made a directory in turn."""
        root, commands = pipeline
        argv = commands[command] + (["--matrix-out"] if command == "build-sve" else [])
        assert cli.main(with_out(argv, tmp_path / "all")) == 0
        names = sorted(p.name for p in (tmp_path / "all").iterdir())
        assert names
        forbid_work(monkeypatch, command)
        for i, name in enumerate(names):
            out = tmp_path / f"out{i}"  # no suffix: predict's --out is then a directory
            (out / name).mkdir(parents=True)
            before = tree(root), tree(tmp_path)
            assert cli.main(with_out(argv, out)) == 2
            assert f"--out {out}: {out / name} is a directory, not a file" in caplog.text
            assert (tree(root), tree(tmp_path)) == before

    def test_predict_out_with_another_suffix_is_a_directory(self, pipeline, tmp_path):
        root, commands = pipeline
        assert cli.main(with_out(commands["predict"], tmp_path / "v1.0")) == 0
        assert [p.name for p in (tmp_path / "v1.0").iterdir()] == ["predictions.tsv"]

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_out_file_in_a_file_exits_2_before_any_work(
            self, pipeline, tmp_path, command, monkeypatch, capsys, caplog):
        root, commands = pipeline
        (tmp_path / "taken").write_bytes(b"")
        forbid_work(monkeypatch, command)
        before = tree(root)
        capsys.readouterr()
        assert cli.main(with_out(commands[command], tmp_path / "taken" / "p.tsv")) == 2
        assert f"{tmp_path / 'taken'} exists and is not a directory" in caplog.text
        assert tree(root) == before and capsys.readouterr().out == ""


# (command, flag) of every input file a pipeline command reads as it runs
INPUT_FLAGS = [("extract-features", "--csv"), ("build-sve", "--csv"), ("build-sve", "--lexicon"),
               ("train-w2v", "--csv"), ("train-mlp", "--csv"), ("train-mlp", "--lexicon"),
               ("train-mlp", "--corpus"), ("train-captioner", "--csv"),
               ("train-captioner", "--val-csv"), ("train-captioner", "--vocab"),
               ("train-captioner", "--w2v"), ("train-captioner", "--lexicon"),
               ("train-captioner", "--corpus"), ("predict", "--csv"), ("predict", "--checkpoint"),
               ("predict", "--vocab"), ("predict", "--mlp"), ("evaluate", "--candidates"),
               ("evaluate", "--references")]


class TestUnreadableInputs:
    @pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8"])
    @pytest.mark.parametrize("command, flag", INPUT_FLAGS)
    def test_exits_1_or_2_without_traceback_and_writes_nothing(self, pipeline, tmp_path, command,
                                                               flag, kind, capsys, caplog):
        root, commands = pipeline
        bad = tmp_path / "input"
        if kind == "directory":
            bad.mkdir()
        elif kind == "not utf-8":
            bad.write_bytes(b"clip_id,caption\nc0,a dog \xff barks\n")
        argv = list(commands[command])
        if flag in argv:
            argv[argv.index(flag) + 1] = str(bad)
        else:
            argv += [flag, str(bad)]
        before = tree(root)
        assert cli.main(argv) in (1, 2)
        assert tree(root) == before
        assert "Traceback" not in capsys.readouterr().err + caplog.text

    @pytest.mark.parametrize("command", ["extract-features", "build-sve", "train-w2v",
                                         "train-mlp", "train-captioner", "predict"])
    def test_no_csv_exits_2_and_writes_nothing(self, pipeline, command, caplog):
        root, commands = pipeline
        argv = list(commands[command])
        del argv[argv.index("--csv"):argv.index("--csv") + 2]
        before = tree(root)
        assert cli.main(argv) == 2
        assert "missing required artifact: caption CSV" in caplog.text
        assert tree(root) == before


class TestMalformedCheckpointMetadata:
    """A checkpoint whose metadata its loader refuses is a CheckpointError (exit 1)
    naming the file, not a traceback or a ConfigError that blames the flags."""

    @pytest.mark.parametrize("flag, defect", [
        *(("--checkpoint", defect) for defect in sorted(CAPTIONER_META_DEFECTS)),
        *(("--mlp", defect) for defect in sorted(MLP_META_DEFECTS))])
    def test_predict_exits_1_naming_it_and_writes_nothing(self, pipeline, tmp_path, flag,
                                                          defect, capsys, caplog):
        root, commands = pipeline
        change, message = (CAPTIONER_META_DEFECTS if flag == "--checkpoint"
                           else MLP_META_DEFECTS)[defect]
        argv = list(commands["predict"])
        i = argv.index(flag) + 1
        argv[i] = str(with_meta(argv[i], tmp_path / "bad.ckpt", change))
        out = tmp_path / "predictions.tsv"
        argv[argv.index("--out") + 1] = str(out)
        assert cli.main(argv) == 1
        assert f"CheckpointError: {tmp_path / 'bad.ckpt'}: {message}" in caplog.text
        assert "Traceback" not in capsys.readouterr().err + caplog.text
        assert not out.exists()


class TestCheckpointTensorsOfAnotherShape:
    """A checkpoint whose tensors do not fit its config is a CheckpointError
    (exit 1) naming the file, before any prediction is written."""

    @pytest.mark.parametrize("flag, key, name", [
        ("--checkpoint", "embed_dim", "enc.embedding.table"),
        ("--mlp", "hidden_widths", "mlp.h0.weights")])
    def test_predict_exits_1_naming_it_and_writes_nothing(self, pipeline, tmp_path, flag, key,
                                                          name, capsys, caplog):
        root, commands = pipeline
        argv = list(commands["predict"])
        i = argv.index(flag) + 1
        held = load_tensors(argv[i])[0][name].shape

        def widen(meta):  # the config now wants wider tensors than the file holds
            value = meta["config"][key]
            meta["config"][key] = [w + 1 for w in value] if key == "hidden_widths" else value + 1

        bad = with_meta(argv[i], tmp_path / "bad.ckpt", widen)
        argv[i] = str(bad)
        out = tmp_path / "predictions.tsv"
        argv[argv.index("--out") + 1] = str(out)
        assert cli.main(argv) == 1
        want = (held[0] + 1, held[1]) if key == "hidden_widths" else (held[0], held[1] + 1)
        assert (f"CheckpointError: {bad}: tensor '{name}' has shape {held}, expected {want}"
                in caplog.text)
        assert "Traceback" not in capsys.readouterr().err + caplog.text
        assert not out.exists()


class TestEmptyCorpus:
    @pytest.mark.parametrize("command", TRAINERS)
    def test_exits_2_and_writes_no_checkpoint(self, panns_fixture, command, caplog):
        root, _ = panns_fixture
        SubjectVerbCorpus(words=(), lexicon_sha256="0" * 64).save(root / "sve_corpus.txt")
        out = root / "out"
        assert cli.main(TRAINERS[command](root, out)) == 2
        assert "is empty (K=0)" in caplog.text
        assert not out.exists()


def read_captions(path):
    return [line.split("\t")[1].split() for line in path.read_text(encoding="utf-8").splitlines()]


class TestPredictMaxLen:
    def test_default_cap_is_the_checkpoints_max_len(self, pipeline, tmp_path):
        root, commands = pipeline
        checkpoint = CaptionerCheckpoint.load(root / "captioner" / "captioner.ckpt")
        short = tmp_path / "short.ckpt"
        replace(checkpoint, config=replace(checkpoint.config, max_len=3)).save(short)
        out = tmp_path / "predictions.tsv"
        argv = commands["predict"] + ["--checkpoint", str(short), "--out", str(out)]
        assert cli.main(argv) == 0
        assert all(len(words) <= 2 for words in read_captions(out))  # <sos> + 2 tokens
        assert cli.main(argv + ["--max-len", "22"]) == 0
        assert max(len(words) for words in read_captions(out)) > 2


    @pytest.mark.parametrize("max_len", ["1", "0", "-3"])
    def test_cap_below_2_exits_2_before_loading_anything(self, pipeline, tmp_path, max_len,
                                                         monkeypatch, caplog):
        root, commands = pipeline
        monkeypatch.setattr(cli, "_require", no_work)
        monkeypatch.setattr(cli, "_load_records", no_work)
        out = tmp_path / "predictions.tsv"
        assert cli.main(commands["predict"] + ["--max-len", max_len, "--out", str(out)]) == 2
        assert "--max-len must be at least 2" in caplog.text
        assert not out.exists()


class TestBuildSve:
    def test_matrix_rows_follow_clip_list_and_equal_sve_targets(self, panns_fixture, tmp_path,
                                                                toy_lexicon):
        root, _ = panns_fixture
        out = tmp_path / "sve"
        assert cli.main(["build-sve", "--csv", str(root / "captions.csv"), "--lexicon",
                         str(root / "lexicon.tsv"), "--matrix-out", "--out", str(out)]) == 0
        clips = (out / "sve_clips.txt").read_text(encoding="utf-8").splitlines()
        assert clips == list(CAPTIONS)
        records = ds.load_caption_csv(root / "captions.csv", "generic")
        targets = ds.sve_targets(records, SubjectVerbCorpus.load(out / "sve_corpus.txt"),
                                 toy_lexicon)
        matrix = embfile.read_matrix(out / "sve_targets.emb")
        assert np.array_equal(matrix, np.stack([targets[clip] for clip in clips]))
        assert matrix.any(axis=1).all()

    def test_captions_without_subject_or_verb_exit_2_and_write_nothing(self, tmp_path,
                                                                      toy_lexicon, caplog):
        csv = tmp_path / "captions.csv"
        csv.write_text("clip_id,caption\nc0,the loudly\nc1,near and outside\n",
                       encoding="utf-8")
        toy_lexicon.save(tmp_path / "lexicon.tsv")
        out = tmp_path / "sve"
        assert cli.main(["build-sve", "--csv", str(csv), "--lexicon", str(tmp_path / "lexicon.tsv"),
                         "--matrix-out", "--out", str(out)]) == 2
        assert f"subject-verb corpus {out / 'sve_corpus.txt'} is empty (K=0)" in caplog.text
        assert "SVE features are disabled" not in caplog.text  # one message: it is refused
        assert not out.exists()


class TestEvaluate:
    @pytest.mark.parametrize("name", ["report.txt", "new/dir/report"])
    def test_out_file_holds_the_printed_report(self, pipeline, tmp_path, name, capsys):
        _, commands = pipeline
        out = tmp_path / name
        capsys.readouterr()
        assert cli.main(commands["evaluate"] + ["--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert out.read_text(encoding="utf-8") == printed
        assert "CIDEr" in printed and "B-1: 1.000000" in printed

    def test_candidates_missing_referenced_clips_exit_1_and_write_nothing(self, tmp_path,
                                                                          caplog, capsys):
        candidates, references = tmp_path / "candidates.tsv", tmp_path / "references.tsv"
        candidates.write_text("c0\tdog barks\nc1\train falls\n", encoding="utf-8")
        references.write_text("c0\tdog barks\nc1\train falls\nc2\ta man speaks\n",
                              encoding="utf-8")
        out = tmp_path / "report.txt"
        assert cli.main(["evaluate", "--candidates", str(candidates), "--references",
                         str(references), "--out", str(out)]) == 1
        assert "no candidate for 1 of the 3 referenced clips: 'c2'" in caplog.text
        assert "CIDEr" not in capsys.readouterr().out
        assert not out.exists()

    def test_reference_with_no_words_exits_1_and_writes_nothing(self, tmp_path, caplog, capsys):
        """A reference line that cleans to nothing is refused, not scored as a
        reference that shares no n-gram; an empty candidate stays legal."""
        candidates, references = tmp_path / "candidates.tsv", tmp_path / "references.tsv"
        candidates.write_text("c0\tdog barks\nc1\t\n", encoding="utf-8")
        references.write_text("c0\tdog barks\nc0\t!!!\nc1\train falls\n", encoding="utf-8")
        out = tmp_path / "report.txt"
        assert cli.main(["evaluate", "--candidates", str(candidates), "--references",
                         str(references), "--out", str(out)]) == 1
        assert f"{references}: clip 'c0' has a reference caption with no words" in caplog.text
        assert "CIDEr" not in capsys.readouterr().out
        assert not out.exists()


def test_commands_chain_from_wav_clips_to_scores(tmp_path, toy_lexicon, caplog):
    """Each command reads what the one before it wrote: log-Mel features, the
    subject-verb corpus, the vocabulary and word embeddings, the MLP, the
    captioner and its predictions."""
    caplog.set_level(logging.INFO)
    csv = str(write_caption_csv(tmp_path))
    for i, clip in enumerate(CAPTIONS):
        samples = np.round(8000 * np.sin(0.05 * (i + 1) * np.arange(4000))).astype(int).tolist()
        (tmp_path / f"{clip}.wav").write_bytes(make_wav_bytes(samples))
    lexicon = tmp_path / "lexicon.tsv"
    toy_lexicon.save(lexicon)
    references = tmp_path / "references.tsv"  # every caption of the CSV, one per line
    rows = [line.split(",", 1) for line in (tmp_path / "captions.csv").read_text(
        encoding="utf-8").splitlines()[1:]]
    references.write_text("".join(f"{clip}\t{text}\n" for clip, text in rows), encoding="utf-8")
    cache, sve, w2v = str(tmp_path / "cache"), tmp_path / "sve", tmp_path / "w2v"
    corpus = ["--lexicon", str(lexicon), "--corpus", str(sve / "sve_corpus.txt")]
    train = ["--csv", csv, "--cache", cache, "--variant", "logmel", "--epochs", "2",
             "--batch", "8", *corpus]
    predictions, report = tmp_path / "predictions.tsv", tmp_path / "report.txt"
    for argv in (
            ["extract-features", "--csv", csv, "--audio-dir", str(tmp_path), "--cache", cache,
             "--pad-seconds", "0.25"],
            ["build-sve", "--csv", csv, "--lexicon", str(lexicon), "--out", str(sve)],
            ["train-w2v", "--csv", csv, "--dim", "8", "--epochs", "1", "--out", str(w2v)],
            ["train-mlp", *train, "--out", str(tmp_path / "mlp")],
            ["train-captioner", *train, "--vocab", str(w2v / "vocabulary.tsv"),
             "--w2v", str(w2v / "word_embeddings.emb"), "--embed-dim", "8",
             "--val-fraction", "0.25", "--out", str(tmp_path / "captioner")],
            ["predict", "--csv", csv, "--cache", cache, "--sve-source", "mlp",
             "--checkpoint", str(tmp_path / "captioner" / "captioner.ckpt"),
             "--vocab", str(w2v / "vocabulary.tsv"),
             "--mlp", str(tmp_path / "mlp" / "sve_mlp.ckpt"), "--max-len", "6",
             "--out", str(predictions)],
            ["evaluate", "--candidates", str(predictions), "--references", str(references),
             "--out", str(report)]):
        assert cli.main(argv) == 0, argv[0]
    assert "extract-features: 4 computed, 0 skipped, 0 failed" in caplog.text
    assert (MLP.load(tmp_path / "mlp" / "sve_mlp.ckpt").corpus_sha256
            == SubjectVerbCorpus.load(sve / "sve_corpus.txt").sha256())
    assert [line.split("\t")[0] for line in predictions.read_text(
        encoding="utf-8").splitlines()] == list(CAPTIONS)
    assert "CIDEr" in report.read_text(encoding="utf-8")
