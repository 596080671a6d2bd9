"""The benchmark's workloads and the pipeline each one runs.

Every workload drives the library API that the ``aucap`` CLI commands call,
in the order a user runs them: extract-features, build-sve, train-w2v,
train-mlp, train-captioner, predict, evaluate. ``cli.main`` itself is not
called: its known defects (``--use-sve off`` still trains with SVE, the MLP
variant is guessed from its input width, ``generic`` manifests map every id
to a WAV) would either break a run or force a workaround, while its own cost
(argument parsing, a lock file) is negligible.

The loop is closed: one caller runs each phase to completion, so every
throughput is work completed per second at the workload's input size. The
first pass of the pipeline is fixed work: its losses, captions and scores
depend only on the seed, and its peak resident set size is read when it
ends. Then ``--seconds`` go to repeats of its phases, and each repeat is
checked to reproduce the first pass.

Each throughput is the median of its samples, each sample scaled to a
reference host speed by the probe in ``speed.py``. Samples are short (one
MLP training, one captioner epoch over two batches, one decode round) so that
every phase gets several.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import fixtures
from speed import SpeedProbe

PAD_SECONDS = 4.8      # log-Mel at 16 kHz: 99 frames of 96 ms with 50% overlap
# Greedy decode length cap (the CLI's default is 22). How long the captions of
# a model trained for a few dozen steps run differs from seed to seed, and a
# token's decode work grows with the prefix; a short cap that nearly every
# caption reaches keeps the work per token the same on every seed.
MAX_LEN = 8
SETUP_REPEATS = 9
RELOAD_CLIPS = 1
TRAIN_UNIT_BATCHES = 2  # captioner throughput: one epoch over this many full batches


@dataclass(frozen=True)
class Workload:
    """Input sizes and settings of one workload; BENCHMARK.json says why it exists."""

    name: str
    variant: str           # feature variant the MLP and captioner read
    wav_seconds: tuple[float, float]  # clip lengths; log-Mel pads or cuts them to PAD_SECONDS
    n_dev: int
    n_val: int
    train_clips: int       # development clips the MLP and the captioner train on
    captioner_epochs: int
    batch_size: int        # captioner; the CLI default, 64
    learning_rate: float   # captioner; the CLI default 1e-3 learns nothing in a few dozen steps
    mlp_epochs: int
    w2v_captions: int      # captions per word2vec sample
    sve_source: str        # SVE at predict time: "mlp" or "captions"
    # shares of the time left after the first pass, per phase
    weights: dict[str, float] = field(default_factory=dict)


WORKLOADS = {
    "clipvec": Workload(
        name="clipvec",
        variant="panns", wav_seconds=(3.0, 5.0), n_dev=24, n_val=16, train_clips=24,
        captioner_epochs=2, batch_size=64, learning_rate=1e-2, mlp_epochs=20, w2v_captions=40,
        sve_source="mlp",
        weights={"extract": 3, "sve": 1, "w2v": 3, "mlp": 2, "train": 2, "predict": 2,
                 "evaluate": 1},
    ),
    "longseq": Workload(
        name="longseq",
        variant="logmel", wav_seconds=(3.0, 5.0), n_dev=16, n_val=4, train_clips=16,
        captioner_epochs=2, batch_size=64, learning_rate=5e-3, mlp_epochs=2, w2v_captions=40,
        sve_source="captions",
        weights={"extract": 1, "sve": 1, "w2v": 2, "mlp": 3, "train": 1.5, "predict": 6,
                 "evaluate": 0.5},
    ),
    "captions": Workload(
        name="captions",
        variant="panns", wav_seconds=(1.0, 2.0), n_dev=160, n_val=16, train_clips=16,
        captioner_epochs=2, batch_size=64, learning_rate=1e-2, mlp_epochs=10, w2v_captions=200,
        sve_source="mlp",
        weights={"extract": 2, "sve": 2, "w2v": 2, "mlp": 1, "train": 2, "predict": 3,
                 "evaluate": 2},
    ),
}


def quick(workload: Workload) -> Workload:
    """A tiny version of ``workload`` for the benchmark's own test."""
    return replace(workload, n_dev=8, n_val=4, train_clips=8, captioner_epochs=1,
                   mlp_epochs=2, w2v_captions=8)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


class Checks:
    """Output checks; each is one attempted operation, failed when false."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def __call__(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return bool(ok)

    def finite(self, values, what: str) -> None:
        for i, v in enumerate(values):
            self(bool(np.isfinite(v)), f"{what}[{i}] = {v} is not finite")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


class Run:
    """One seeded run of a workload: the pipeline once, with repeats around it."""

    def __init__(self, workload: Workload, fixture: fixtures.Fixture, work: Path,
                 seed: int, src_dir: Path):
        from aucap import dataset as ds
        from aucap.audio.features import FeatureConfig
        from aucap.semantics import TagLexicon
        from aucap.text import Vocabulary

        self.w = workload
        self.fx = fixture
        self.work = work
        self.seed = seed
        self.src_dir = src_dir
        self.check = Checks()
        # (work done, start, end) per sample; rates are work / (end - start)
        self.samples: dict[str, list[tuple[float, float, float]]] = defaultdict(list)
        self.last_seconds: dict[str, float] = {}
        self.feature_config = FeatureConfig(pad_seconds=PAD_SECONDS)
        self.lexicon = TagLexicon.load(fixture.lexicon)
        self.vocab = Vocabulary.load(fixture.vocabulary)
        self.dev = ds.load_caption_csv(fixture.dev_csv, "clotho", "development", fixture.audio_dir)
        self.val = ds.load_caption_csv(fixture.val_csv, "clotho", "validation", fixture.audio_dir)
        self.train = self.dev[: workload.train_clips]
        self.dev_captions = [list(c) for r in self.dev for c in r.captions]
        self._rounds: dict[str, int] = defaultdict(int)

    # -- setup ----------------------------------------------------------------

    def measure_setup(self) -> list[tuple[float, float, float]]:
        """Seconds to import aucap and load manifest, lexicon and vocabulary, each
        in a fresh interpreter, with the interval each interpreter ran in."""
        probe = Path(__file__).with_name("setup_probe.py")
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            out = subprocess.run(
                [sys.executable, str(probe), str(self.src_dir), str(self.fx.root)],
                capture_output=True, text=True, timeout=120, check=False)
            ok = self.check(out.returncode == 0, f"setup probe failed: {out.stderr.strip()}")
            if ok:
                report = json.loads(out.stdout.strip().splitlines()[-1])
                self.check(report["clips"] == len(self.dev) + len(self.val)
                           and report["vocab"] == len(self.vocab), "setup probe loaded other data")
                times.append((report["seconds"], start, time.perf_counter()))
        return times

    # -- phases in CLI order ------------------------------------------------------

    def extract(self, first: bool) -> None:
        """A cold log-Mel cache pass over every clip's WAV (timed); the first pass
        also checks a warm pass and, for panns, fills the panns cache (untimed)."""
        from aucap import dataset as ds

        records = self.dev + self.val
        cache = self.work / f"cache{self._next('extract')}"
        os.sync()  # no earlier pass's writeback left to pay for
        start = time.perf_counter()
        result = ds.cache_features(records, "logmel", cache, self.feature_config)
        self.samples["extract"].append((len(records), start, time.perf_counter()))
        for r in records:
            self.check(r.clip_id in result.computed, f"cold cache pass did not compute {r.clip_id}")
        if not first:
            return
        warm = ds.cache_features(records, "logmel", cache, self.feature_config)
        for r in records:
            self.check(r.clip_id in warm.skipped, f"warm cache pass did not skip {r.clip_id}")
        self.cache = cache
        if self.w.variant == "panns":
            self.cache = self.work / "panns"
            emb = [replace(r, path=self.fx.emb_dir / f"{r.clip_id}.emb") for r in records]
            copied = ds.cache_features(emb, "panns", self.cache)
            for r in records:
                self.check(r.clip_id in copied.computed, f"panns cache pass did not copy {r.clip_id}")

    def build_sve(self, first: bool) -> None:
        from aucap import dataset as ds
        from aucap import semantics

        start = time.perf_counter()
        corpus = semantics.build_corpus(self.dev_captions, self.lexicon)
        targets = ds.sve_targets(self.dev, corpus, self.lexicon)
        self.samples["sve"].append((len(self.dev_captions), start, time.perf_counter()))
        if not first:
            self.check(corpus.words == self.corpus.words, "subject-verb corpus changed on repeat")
            return
        self.corpus = corpus
        self.check(corpus.size > 0, "subject-verb corpus is empty")
        for clip_id, vec in targets.items():
            self.check(vec.shape == (corpus.size,) and bool(np.isin(vec, (0.0, 1.0)).all()),
                       f"SVE target of {clip_id} is not binary with width K={corpus.size}")

    def train_w2v(self, first: bool) -> None:
        """One word2vec epoch over the next chunk of development captions."""
        from aucap import text, word2vec

        n = len(self.dev_captions)
        offset = (self._next("w2v") * self.w.w2v_captions) % n
        chunk = (self.dev_captions * 2)[offset: offset + min(self.w.w2v_captions, n)]
        config = word2vec.Word2VecConfig(epochs=1, seed=self.seed)
        start = time.perf_counter()
        built = text.build_vocabulary(chunk)
        table = word2vec.train_word2vec(chunk, self.vocab, config)
        self.samples["w2v"].append((sum(len(c) for c in chunk) * config.epochs, start,
                                    time.perf_counter()))
        self.check(all(w in self.vocab for w in built.words), "caption word missing from vocabulary")
        self.check(table.matrix.shape == (len(self.vocab), config.dim)
                   and bool(np.isfinite(table.matrix).all()),
                   f"word2vec table {table.matrix.shape} is not finite with V={len(self.vocab)} rows")
        self.check.finite(table.epoch_losses, "word2vec loss")
        if first:
            self.w2v_losses = table.epoch_losses

    def train_mlp(self, first: bool) -> None:
        from aucap import dataset as ds
        from aucap import mlp

        features = ds.load_cached_features(self.cache, self.w.variant,
                                           [r.clip_id for r in self.train])
        targets = ds.sve_targets(self.train, self.corpus, self.lexicon)
        x = np.stack([features[r.clip_id].reshape(-1) for r in self.train])
        y = np.stack([targets[r.clip_id] for r in self.train])
        config = mlp.MLPConfig(input_dim=x.shape[1], output_dim=self.corpus.size,
                               epochs=self.w.mlp_epochs, seed=self.seed)
        start = time.perf_counter()
        model, history = mlp.train_mlp(x, y, config)
        self.samples["mlp"].append((len(x) * config.epochs, start, time.perf_counter()))
        self.check.finite(history.train_losses, "mlp train loss")
        if not first:
            self.check(history.train_losses == self.mlp_losses, "MLP losses changed on repeat")
            return
        self.mlp_losses = history.train_losses
        self.mlp_path = self.work / "sve_mlp.ckpt"
        model.save(self.mlp_path)
        reloaded = mlp.MLP.load(self.mlp_path)
        self.check(np.array_equal(mlp.predict_sve(model, x), mlp.predict_sve(reloaded, x)),
                   "reloaded MLP predicts other SVE probabilities")

    def train_captioner(self, first: bool) -> None:
        """The first pass trains the model the later phases use. Throughput comes
        from a short unit that repeats well inside a run: one epoch, without
        validation, over ``TRAIN_UNIT_BATCHES`` full batches of examples from the
        first training captions, which must reproduce its losses every time."""
        from aucap import captioner
        from aucap import dataset as ds

        records = self.train + self.val
        sves = ds.sve_targets(records, self.corpus, self.lexicon)
        features = ds.load_cached_features(self.cache, self.w.variant, [r.clip_id for r in records])
        config = captioner.CaptionerConfig(
            variant=self.w.variant, sve_dim=self.corpus.size, learning_rate=self.w.learning_rate,
            epochs=self.w.captioner_epochs, batch_size=self.w.batch_size, seed=self.seed)
        if first:
            manifest = ds.DatasetManifest(source_format="clotho")
            manifest.add("development", self.train)
            manifest.add("validation", self.val)
            self.checkpoint, history = captioner.train_captioner(
                ds.expand_pairs(manifest, "development"), features, sves, self.vocab, config,
                val_pairs=ds.expand_pairs(manifest, "validation"),
                corpus_sha256=self.corpus.sha256())
            self.check.finite(history["train_loss"], "captioner train loss")
            self.check.finite(history["val_loss"], "captioner val loss")
            self.val_loss = min(history["val_loss"])  # the returned checkpoint is the best epoch
            self.captioner_history = history
        pairs = self._unit_pairs()
        start = time.perf_counter()
        _, unit = captioner.train_captioner(pairs, features, sves, self.vocab,
                                            replace(config, epochs=1),
                                            corpus_sha256=self.corpus.sha256())
        self.samples["train"].append((sum(len(t) - 1 for _, t in pairs), start, time.perf_counter()))
        if first:
            self.unit_loss = unit["train_loss"]
        else:
            self.check(unit["train_loss"] == self.unit_loss, "captioner losses changed on repeat")

    def _unit_pairs(self) -> list[tuple[str, list[str]]]:
        """The first training captions, the last one cut short, giving exactly
        ``TRAIN_UNIT_BATCHES`` full batches of prefix->next-word examples. Caption
        lengths differ by seed; with them, the number of examples and of optimizer
        steps in the unit, and so its rate, would too."""
        need = TRAIN_UNIT_BATCHES * self.w.batch_size
        pairs = []
        for r in self.train:
            for c in r.captions:
                take = min(len(c) - 1, need)  # a caption of n tokens gives n - 1 examples
                pairs.append((r.clip_id, list(c[: take + 1])))
                need -= take
                if need == 0:
                    return pairs
        raise ValueError("the training captions give fewer examples than the unit needs")

    def predict(self, first: bool) -> None:
        """Greedy captions for the held-out clips; one sample per round.

        Tokens, not captions, per second: how long the captions of a barely
        trained model run differs between seeds, and a caption's decode work
        grows with its length.
        """
        from aucap import captioner
        from aucap import dataset as ds
        from aucap import mlp
        from aucap.text import strip_special_tokens

        model = self.checkpoint.build_model()
        ids = [r.clip_id for r in self.val]
        features = ds.load_cached_features(self.cache, self.w.variant, ids)
        if self.w.sve_source == "mlp":
            predictor = mlp.MLP.load(self.mlp_path)
            sves = {i: mlp.predict_sve(predictor, features[i].reshape(-1)) for i in ids}
        else:
            sves = ds.sve_targets(self.val, self.corpus, self.lexicon)
        start = time.perf_counter()
        decoded = {i: model.greedy_decode(
            captioner.build_encoder_input(features[i], sves[i], self.w.variant), self.vocab,
            max_len=MAX_LEN) for i in ids}
        self.samples["predict"].append((sum(len(t) - 1 for t in decoded.values()), start,
                                        time.perf_counter()))
        captions = {i: " ".join(strip_special_tokens(t)) for i, t in decoded.items()}
        if not first:
            self.check(captions == self.captions, "greedy captions changed on repeat")
            return
        self.captions = captions
        for i in ids:
            tokens = decoded[i]
            self.check(tokens[0] == "<sos>" and (tokens[-1] == "<eos>" or len(tokens) == MAX_LEN),
                       f"greedy decode of {i} did not end at <eos> or the length cap: {tokens}")
        # Empty captions are counted, not failed: the batch-norm running-statistics
        # defect (see README) makes some seeds decode <eos> first.
        self.empty_share = sum(not c for c in captions.values()) / len(captions)
        path = self.work / "captioner.ckpt"
        self.checkpoint.save(path)
        reloaded = captioner.CaptionerCheckpoint.load(
            path, vocab=self.vocab, corpus_sha256=self.corpus.sha256()).build_model()
        for i in ids[:RELOAD_CLIPS]:
            enc = captioner.build_encoder_input(features[i], sves[i], self.w.variant)
            again = reloaded.greedy_decode(enc, self.vocab, max_len=MAX_LEN)
            self.check(again == decoded[i], f"reloaded checkpoint decodes {i} differently")

    def evaluate(self, first: bool) -> None:
        """Score the fixture's candidate file against its references (timed); the
        first pass also scores the predicted captions (untimed)."""
        from aucap import metrics

        if first:
            predictions = self.work / "predictions.tsv"
            predictions.write_text("".join(f"{i}\t{c}\n" for i, c in self.captions.items()),
                                   encoding="utf-8")
            references = self.work / "val_references.tsv"
            references.write_text("".join(f"{r.clip_id}\t{' '.join(c[1:-1])}\n"
                                          for r in self.val for c in r.captions), encoding="utf-8")
            self.report = metrics.evaluate_files(predictions, references)
            self._check_report(self.report)
        start = time.perf_counter()
        report = metrics.evaluate_files(self.fx.candidates, self.fx.references)
        self.samples["evaluate"].append((len(self.dev), start, time.perf_counter()))
        if first:
            self._check_report(report)
            self.candidate_report = report
        else:
            self.check(report == self.candidate_report, "candidate scores changed on repeat")

    def _check_report(self, report) -> None:
        for key, value in report.as_dict().items():
            if key == "CIDEr":
                self.check(value >= 0.0, f"CIDEr {value} < 0")
            else:
                self.check(0.0 <= value <= 1.0, f"{key} {value} outside [0, 1]")

    # -- scheduling ---------------------------------------------------------------

    def _next(self, phase: str) -> int:
        n = self._rounds[phase]
        self._rounds[phase] += 1
        return n

    def _phases(self) -> dict:
        return {"extract": self.extract, "sve": self.build_sve, "w2v": self.train_w2v,
                "mlp": self.train_mlp, "train": self.train_captioner,
                "predict": self.predict, "evaluate": self.evaluate}

    def _sample(self, name: str, first: bool) -> float:
        start = time.perf_counter()
        self._phases()[name](first)
        self.last_seconds[name] = time.perf_counter() - start
        return self.last_seconds[name]

    def run(self, seconds: float) -> None:
        """The first pass in CLI order, then repeats for ``seconds``.

        The peak resident set size is read between the two: the first pass is
        the same work on every run of a seed, while the heap left by repeats
        (which ones run, and in which order, depends on timing) is not.
        """
        self.spent: dict[str, float] = dict.fromkeys(self.w.weights, 0.0)
        for name in self._phases():
            took = self._sample(name, True)
            print(f"{name}: first pass {took:.2f}s", file=sys.stderr)
        self.first_pass_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.repeat(time.perf_counter() + seconds)

    def repeat(self, until: float) -> None:
        """Repeat phases already run until ``until``, sharing time by the weights.

        The phase furthest below its share runs next. The first pick always
        runs; after it, a phase whose last sample would overshoot is skipped.
        """
        first_pick = True
        while True:
            left = until - time.perf_counter()
            ready = [n for n in self.spent if n in self.last_seconds
                     and (first_pick or self.last_seconds[n] < left)]
            if left <= 0 or not ready:
                return
            name = min(ready, key=lambda n: self.spent[n] / self.w.weights[n])
            self.spent[name] += self._sample(name, False)
            first_pick = False

    def fingerprints(self) -> dict[str, str]:
        losses = {"w2v": self.w2v_losses, "mlp": self.mlp_losses,
                  "captioner_train": self.captioner_history["train_loss"],
                  "captioner_val": self.captioner_history["val_loss"]}
        return {
            "captions": _sha256("".join(f"{i}\t{c}\n" for i, c in self.captions.items())),
            "losses": _sha256(json.dumps({k: [repr(v) for v in vals] for k, vals in losses.items()},
                                         sort_keys=True)),
        }

    def end_to_end(self, setup: list[tuple[float, float, float]],
                   probe: SpeedProbe) -> dict[str, tuple[float, str]]:
        """Medians over samples, each scaled to the probe's reference speed."""
        rate = {k: statistics.median(work / (end - start) * probe.factor(start, end)
                                     for work, start, end in v)
                for k, v in self.samples.items()}
        setup_s = statistics.median(s / probe.factor(a, b) for s, a, b in setup) if setup \
            else float("nan")
        ok = (self.check.attempted - self.check.failed) / max(self.check.attempted, 1)
        return {
            "setup_s": (setup_s, "s"),
            "extract_clips_per_s": (rate["extract"], "clips/s"),
            "mlp_examples_per_s": (rate["mlp"], "examples/s"),
            "train_examples_per_s": (rate["train"], "examples/s"),
            "val_loss": (self.val_loss, "nats"),
            "predict_tokens_per_s": (rate["predict"], "tokens/s"),
            "w2v_tokens_per_s": (rate["w2v"], "tokens/s"),
            "sve_captions_per_s": (rate["sve"], "captions/s"),
            "evaluate_clips_per_s": (rate["evaluate"], "clips/s"),
            "ok_share": (ok, "share"),
            "peak_rss_mb": (self.first_pass_peak_mb, "MB"),
        }
