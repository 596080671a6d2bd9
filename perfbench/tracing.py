"""Outside-in layer tracing for the traced benchmark run.

Wrappers are installed only in the traced run and removed afterwards, so the
end-to-end runs execute unmodified code. Each wrapper goes where the caller
looks the name up: a function bound by ``from ... import`` is replaced in the
importing module, a function called through its module is replaced there,
and a layer method is replaced on its class.

Spans (name, start, end, parent span, run id) are kept in memory and written
out when the run ends. Call sites that fire about 10^5 times or more a run
(tensor ops, ``to_root``, ``sgns_event_*``) keep counts and aggregate time
instead of one span per call. A span's self time is its duration minus the
time its direct children cover.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

_clock = time.perf_counter


@dataclass
class CallStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    errors: int = 0
    durations: list[float] = field(default_factory=list)


class _Frame:
    __slots__ = ("span_id", "name", "start", "child", "keep")

    def __init__(self, span_id, name, start, keep):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.child = 0.0
        self.keep = keep


# Spans whose descendants are also counted per scope, so that work inside a
# train step or a greedy decode can be told apart from the same call elsewhere.
SCOPES = ("captioner.train_step", "captioner.greedy_decode", "captioner.val_pass")


class Tracer:
    """Span stack plus per-name call statistics and free-form counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.stack: list[_Frame] = []
        self.spans: list[tuple] = []
        self.stats: dict[str, CallStats] = defaultdict(CallStats)
        self.scoped: dict[tuple[str, str], CallStats] = defaultdict(CallStats)
        self.active: Counter = Counter()
        self.counters: Counter = Counter()
        self._next_id = 0

    def current(self) -> str | None:
        return self.stack[-1].name if self.stack else None

    def inside(self, scope: str) -> bool:
        return self.active[scope] > 0

    def enter(self, name: str, keep: bool = True) -> _Frame:
        self._next_id += 1
        frame = _Frame(self._next_id, name, _clock(), keep)
        self.stack.append(frame)
        if name in SCOPES:
            self.active[name] += 1
        return frame

    def exit(self, frame: _Frame, error: bool = False) -> float:
        end = _clock()
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order (top {popped.name})")
        duration = end - frame.start
        stat = self.stats[frame.name]
        stat.calls += 1
        stat.total += duration
        stat.self_time += duration - frame.child
        stat.errors += error
        if frame.name in SCOPES:
            self.active[frame.name] -= 1
        for scope, depth in self.active.items():
            if depth:
                inner = self.scoped[(scope, frame.name)]
                inner.calls += 1
                inner.total += duration
        if self.stack:
            self.stack[-1].child += duration
        if frame.keep:
            stat.durations.append(duration)
            parent = self.stack[-1].span_id if self.stack else None
            self.spans.append((frame.span_id, frame.name, frame.start, end, parent))
        return duration

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": self.run_id}) + "\n")

    # -- reporting ------------------------------------------------------------

    def ms(self, name: str) -> float:
        return 1000.0 * self.stats[name].total if name in self.stats else 0.0

    def calls(self, name: str, scope: str | None = None) -> int:
        table, key = (self.stats, name) if scope is None else (self.scoped, (scope, name))
        return table[key].calls if key in table else 0

    def ms_within(self, name: str, scope: str) -> float:
        key = (scope, name)
        return 1000.0 * self.scoped[key].total if key in self.scoped else 0.0

    def summary(self) -> dict[str, dict]:
        """Every wrapped name: calls, total and self ms, errors, and p50/p90
        per call when at least 10 samples lie beyond the p90."""
        out = {}
        for name, s in sorted(self.stats.items()):
            row = {"calls": s.calls, "ms": 1000.0 * s.total, "self_ms": 1000.0 * s.self_time,
                   "errors": s.errors}
            if s.durations:
                row["p50_ms"] = 1000.0 * statistics.median(s.durations)
            if len(s.durations) >= 100:
                row["p90_ms"] = 1000.0 * statistics.quantiles(s.durations, n=10)[-1]
            out[name] = row
        return out


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _wrap(tracer: Tracer, fn, name, *, keep: bool = True, after=None, before=None):
    """Trace calls of ``fn`` under ``name`` (a string or a function of the call)."""

    def traced(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        label = name if isinstance(name, str) else name(args, kwargs)
        frame = tracer.enter(label, keep)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.exit(frame, error=True)
            raise
        tracer.exit(frame)
        if after is not None:
            after(args, kwargs, result)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", "traced")
    return traced


class Installer:
    """Records every replaced attribute so :meth:`restore` can undo it."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, name, **options) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(self.tracer, original, name, **options))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def install(tracer: Tracer) -> Installer:
    """Wrap the public functions at each layer boundary of ``aucap``."""
    from aucap import captioner, dataset, embfile, metrics, mlp, semantics, text, word2vec
    from aucap.audio import features
    from aucap.nn import layers, tensor
    from aucap.text import strip_special_tokens

    inst = Installer(tracer)
    counters = tracer.counters
    p = inst.patch

    # audio.wav and audio.features: looked up in dataset and in features
    p(dataset, "load_wav", "wav.load_wav")
    p(features, "resample", "wav.resample")
    p(dataset, "extract_log_mel", "features.extract_log_mel")
    for fn in ("frame_signal", "power_spectrum", "mel_filterbank", "apply_log_mel"):
        p(features, fn, f"features.{fn}")

    # embfile: called through the module by dataset, embeddings and word2vec
    p(embfile, "write_matrix", "embfile.write_matrix",
      after=lambda a, k, r: counters.update({"embfile.bytes_written": _file_bytes(a[0])}))
    p(embfile, "read_matrix", "embfile.read_matrix",
      before=lambda a, k: counters.update({"embfile.bytes_read": _file_bytes(a[0])}))

    # dataset: the benchmark calls these through the module. Only log-Mel
    # passes are cold or warm: the untimed panns copy is labelled apart, so
    # that the cold per-clip time stays the extraction path alone.
    def cache_label(args, kwargs):
        if args[1] != "logmel":
            return "dataset.cache_features.copy"
        return "dataset.cache_features." + ("warm" if _all_cached(args) else "cold")

    def cache_after(args, kwargs, result):
        if args[1] != "logmel":
            return
        kind = "warm" if result.skipped and not result.computed else "cold"
        counters[f"dataset.cache_features.{kind}.clips"] += len(args[0])
        counters[f"dataset.cache_features.{kind}.skipped"] += len(result.skipped)

    p(dataset, "cache_features", cache_label, after=cache_after)
    for fn in ("load_cached_features", "load_caption_csv", "sve_targets"):
        p(dataset, fn, f"dataset.{fn}")

    # text: clean_caption is bound by name in dataset and metrics
    p(dataset, "clean_caption", "text.clean_caption", keep=False)
    p(metrics, "clean_caption", "text.clean_caption", keep=False)
    p(text, "build_vocabulary", "text.build_vocabulary")

    # semantics
    p(dataset, "encode_sve", "semantics.encode_sve", keep=False)
    p(semantics, "build_corpus", "semantics.build_corpus")
    p(semantics, "to_root", "semantics.to_root", keep=False)
    p(metrics, "to_root", "semantics.to_root", keep=False)
    p(semantics.TagLexicon, "sha256", "semantics.TagLexicon.sha256", keep=False)

    # word2vec
    p(word2vec, "train_word2vec", "word2vec.train_word2vec")
    p(word2vec, "sgns_event_loss", "word2vec.sgns_event_loss", keep=False)
    p(word2vec, "sgns_event_grads", "word2vec.sgns_event_grads", keep=False)

    # nn.tensor: looked up on the module by layers, captioner and mlp
    for fn in ("concat", "linear", "row_slice", "softmax", "cross_entropy", "embedding_lookup",
               "batch_norm_train", "batch_norm_infer", "dropout"):
        p(tensor, fn, f"tensor.{fn}", keep=False)
    p(tensor, "backward", "tensor.backward")
    original_init = tensor.Tensor.__init__

    def counting_init(self, *args, **kwargs):
        counters["tensor.nodes"] += 1
        if tracer.active["captioner.train_step"]:
            counters["tensor.nodes.train_step"] += 1
        original_init(self, *args, **kwargs)

    inst._saved.append((tensor.Tensor, "__init__", original_init))
    tensor.Tensor.__init__ = counting_init

    # nn.layers: methods on their classes; run_gru looks up gru_cell_step
    p(layers.BiGRU, "run", "layers.BiGRU.run")
    p(layers.GRU, "run", lambda a, k: "layers.GRU.run." + a[0].cell.W_z.name[: -len(".W_z")])
    p(layers, "gru_cell_step", "layers.gru_cell_step", keep=False)
    p(layers.BatchNorm, "__call__", "layers.BatchNorm")
    p(layers.Dense, "__call__", "layers.Dense")
    p(layers.Embedding, "__call__", "layers.Embedding")

    # nn.optim: adam_step is bound by name in captioner and mlp
    def adam_after(args, kwargs, result):
        counters["optim.param_values"] += sum(q.data.size for q in args[0])
        if tracer.current() == "captioner.train_step":
            tracer.exit(tracer.stack[-1])  # a train step ends with its optimizer update

    p(captioner, "adam_step", "optim.adam_step", after=adam_after)
    p(mlp, "adam_step", "optim.adam_step",
      after=lambda a, k, r: counters.update({"optim.param_values": sum(q.data.size for q in a[0])}))

    # nn.checkpoint: bound by name in captioner and mlp
    for module in (captioner, mlp):
        p(module, "save_tensors", "checkpoint.save_tensors",
          after=lambda a, k, r: counters.update({"checkpoint.bytes_written": _file_bytes(a[0])}))
        p(module, "load_tensors", "checkpoint.load_tensors",
          before=lambda a, k: counters.update({"checkpoint.bytes_read": _file_bytes(a[0])}))

    # mlp
    p(mlp.MLP, "forward", lambda a, k: f"mlp.forward.{k.get('mode', a[2] if len(a) > 2 else '')}")
    p(mlp, "predict_sve", "mlp.predict_sve")
    p(mlp, "train_mlp", "mlp.train_mlp")

    # captioner: a train step opens with its batch and closes after adam_step
    def open_train_step(args, kwargs):
        if not tracer.inside("captioner.val_pass") and tracer.current() != "captioner.train_step":
            tracer.enter("captioner.train_step")

    p(captioner, "_batch_arrays", "captioner.batch_arrays", before=open_train_step)
    p(captioner, "_dataset_loss", "captioner.val_pass")
    p(captioner, "train_captioner", "captioner.train_captioner")
    p(captioner.Captioner, "forward", "captioner.forward")
    p(captioner.Captioner, "encode", "captioner.encode")

    def decode_after(args, kwargs, result):
        counters["captioner.captions"] += 1
        counters["captioner.tokens"] += len(result) - 1
        counters["captioner.length_capped"] += result[-1] != "<eos>"
        counters["captioner.empty"] += not strip_special_tokens(result)

    p(captioner.Captioner, "greedy_decode", "captioner.greedy_decode", after=decode_after)

    # metrics: score_corpus calls the scorers through the module
    for fn in ("bleu", "rouge_l", "cider", "meteor", "score_corpus", "evaluate_files"):
        p(metrics, fn, f"metrics.{fn}")
    p(metrics, "lcs_length", "metrics.lcs_length", keep=False)
    return inst


def _all_cached(args) -> bool:
    """True when every record already has a cache entry (the warm pass)."""
    from aucap import dataset

    records, variant, root = args[0], args[1], args[2]
    return all(dataset.cache_path(root, variant, r.clip_id).exists() for r in records)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics named in BENCHMARK.json, as (value, unit)."""
    t, c = tracer, tracer.counters
    steps = t.calls("captioner.train_step")
    captions = c["captioner.captions"]
    out: dict[str, tuple[float, str]] = {
        "wav.load_wav.ms": (t.ms("wav.load_wav"), "ms"),
        "wav.resample.ms": (t.ms("wav.resample"), "ms"),
    }
    for fn in ("frame_signal", "power_spectrum", "mel_filterbank", "apply_log_mel"):
        out[f"features.{fn}.ms"] = (t.ms(f"features.{fn}"), "ms")
    out["features.mel_filterbank.calls_per_clip"] = (
        _ratio(t.calls("features.mel_filterbank"), t.calls("features.extract_log_mel")), "count")
    out["embfile.write_matrix.ms"] = (t.ms("embfile.write_matrix"), "ms")
    out["embfile.read_matrix.ms"] = (t.ms("embfile.read_matrix"), "ms")
    out["embfile.bytes_written"] = (c["embfile.bytes_written"], "bytes")
    out["embfile.bytes_read"] = (c["embfile.bytes_read"], "bytes")
    for kind in ("cold", "warm"):
        out[f"dataset.cache_features.{kind}.ms_per_clip"] = (
            _ratio(t.ms(f"dataset.cache_features.{kind}"), c[f"dataset.cache_features.{kind}.clips"]),
            "ms")
    out["dataset.cache_hit_ratio"] = (
        _ratio(c["dataset.cache_features.warm.skipped"], c["dataset.cache_features.warm.clips"]),
        "ratio")
    for fn in ("load_cached_features", "load_caption_csv", "sve_targets"):
        out[f"dataset.{fn}.ms"] = (t.ms(f"dataset.{fn}"), "ms")
    out["text.clean_caption.calls"] = (t.calls("text.clean_caption"), "count")
    out["text.clean_caption.ms"] = (t.ms("text.clean_caption"), "ms")
    out["text.build_vocabulary.ms"] = (t.ms("text.build_vocabulary"), "ms")
    out["semantics.encode_sve.ms"] = (t.ms("semantics.encode_sve"), "ms")
    out["semantics.lexicon_sha256_per_caption"] = (
        _ratio(t.calls("semantics.TagLexicon.sha256"), t.calls("semantics.encode_sve")), "ratio")
    out["semantics.build_corpus.ms"] = (t.ms("semantics.build_corpus"), "ms")
    out["semantics.to_root.calls"] = (t.calls("semantics.to_root"), "count")
    out["word2vec.events"] = (t.calls("word2vec.sgns_event_loss"), "count")
    out["word2vec.sgns_event_loss.ms"] = (t.ms("word2vec.sgns_event_loss"), "ms")
    out["word2vec.sgns_event_grads.ms"] = (t.ms("word2vec.sgns_event_grads"), "ms")
    out["tensor.backward.ms_per_step"] = (
        _ratio(t.ms_within("tensor.backward", "captioner.train_step"), steps), "ms")
    out["tensor.nodes_per_step"] = (_ratio(c["tensor.nodes.train_step"], steps), "count")
    for fn in ("concat", "linear", "row_slice", "softmax", "cross_entropy", "embedding_lookup",
               "batch_norm_train", "batch_norm_infer", "dropout"):
        out[f"tensor.{fn}.calls"] = (t.calls(f"tensor.{fn}"), "count")
        out[f"tensor.{fn}.ms"] = (t.ms(f"tensor.{fn}"), "ms")
    out["layers.BiGRU.run.ms"] = (t.ms("layers.BiGRU.run"), "ms")
    out["layers.GRU.run.enc.text.ms"] = (t.ms("layers.GRU.run.enc.text"), "ms")
    out["layers.GRU.run.dec.gru.ms"] = (t.ms("layers.GRU.run.dec.gru"), "ms")
    out["layers.gru_steps_per_step"] = (
        _ratio(t.calls("layers.gru_cell_step", "captioner.train_step"), steps), "count")
    for cls in ("BatchNorm", "Dense", "Embedding"):
        out[f"layers.{cls}.ms"] = (t.ms(f"layers.{cls}"), "ms")
    out["optim.adam_step.ms"] = (t.ms("optim.adam_step"), "ms")
    out["optim.params_per_step"] = (_ratio(c["optim.param_values"], t.calls("optim.adam_step")),
                                    "count")
    for fn in ("save_tensors", "load_tensors"):
        out[f"checkpoint.{fn}.ms"] = (t.ms(f"checkpoint.{fn}"), "ms")
    out["checkpoint.bytes_written"] = (c["checkpoint.bytes_written"], "bytes")
    out["checkpoint.bytes_read"] = (c["checkpoint.bytes_read"], "bytes")
    out["mlp.forward.train.ms"] = (t.ms("mlp.forward.train"), "ms")
    out["mlp.forward.infer.ms"] = (t.ms("mlp.forward.infer"), "ms")
    out["mlp.predict_sve.ms"] = (t.ms("mlp.predict_sve"), "ms")
    for part, name in (("forward", "captioner.forward"), ("backward", "tensor.backward"),
                       ("optimizer", "optim.adam_step")):
        out[f"captioner.train_step.{part}.ms"] = (t.ms_within(name, "captioner.train_step"),
                                                  "ms")
    out["captioner.train_step.batch.ms"] = (
        t.ms_within("captioner.batch_arrays", "captioner.train_step"), "ms")
    out["captioner.train_step.ms"] = (t.ms("captioner.train_step"), "ms")
    out["captioner.val_pass.ms"] = (t.ms("captioner.val_pass"), "ms")
    decode = t.stats.get("captioner.greedy_decode")
    durations = decode.durations if decode else []
    out["captioner.greedy_decode.p50_ms"] = (
        1000.0 * statistics.median(durations) if durations else 0.0, "ms")
    out["captioner.greedy_decode.ms"] = (t.ms("captioner.greedy_decode"), "ms")
    out["captioner.audio_passes_per_caption"] = (
        _ratio(t.calls("captioner.encode", "captioner.greedy_decode"), captions),
        "count")
    out["captioner.tokens_per_caption"] = (_ratio(c["captioner.tokens"], captions), "count")
    out["captioner.length_cap_share"] = (_ratio(c["captioner.length_capped"], captions), "share")
    out["captioner.empty_caption_share"] = (_ratio(c["captioner.empty"], captions), "share")
    for fn in ("bleu", "rouge_l", "cider", "meteor"):
        out[f"metrics.{fn}.ms"] = (t.ms(f"metrics.{fn}"), "ms")
    out["metrics.lcs_length.calls"] = (t.calls("metrics.lcs_length"), "count")
    return out


# End-to-end throughputs also reported by the traced run; against the same
# metrics of an untraced run with the same seed they give the tracing overhead.
TRACED_END_TO_END = ("extract_clips_per_s", "mlp_examples_per_s", "train_examples_per_s",
                     "predict_tokens_per_s", "w2v_tokens_per_s", "sve_captions_per_s",
                     "evaluate_clips_per_s")
