"""Command-line entry point.

Commands cover the pipeline end to end: extract-features, build-sve,
train-w2v, train-mlp, train-captioner, predict, evaluate. train-mlp and
train-captioner both train through ``aucap.nn.optim.fit``. Each
option is one argparse declaration that holds its type, choices and default;
a model or feature default is read from its config dataclass. A value is
resolved as flag > ``key = value`` config file (``--config``) > default. A
config-file value passes through its flag's type and choices (a switch reads
on/off) before it becomes a default, so a bad value fails like a bad flag.
Every run logs its fully resolved configuration.

One output rule: a command derives every path it writes from ``--out``
(extract-features: ``<cache root>/<variant>``) and checks each before any
work: no file may be a directory (``.aucap.lock`` included), and no
directory a file or under one. ``--out`` is a directory, except evaluate's
optional report file and a predict ``--out`` ending in ``.tsv``. A command
takes a kernel lock (``flock``) on ``.aucap.lock`` in its output directory
around its writes only (extract-features around the whole cache fill), so
two runs cannot mutate the same cache or checkpoint concurrently. The kernel
drops the lock when its holder ends, however it ends, so a killed run never
leaves its directory locked; a finished run removes the file. A run that
fails, the lock refused included, writes nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import atomic, embfile, metrics
from . import dataset as ds
from .captioner import CaptionerCheckpoint, CaptionerConfig, build_encoder_input, train_captioner
from .audio.embeddings import VARIANT_DIMS
from .audio.features import FeatureConfig
from .errors import AucapError, ConfigError, ShapeError
from .mlp import MLP, MLPConfig, predict_sve, train_mlp
from .semantics import SubjectVerbCorpus, TagLexicon, build_corpus
from .text import Vocabulary, build_vocabulary, strip_special_tokens
from .word2vec import Word2VecConfig, WordEmbeddingTable, train_word2vec

log = logging.getLogger("aucap")

CACHE_ENV = "AUCAP_CACHE"
LOCK_NAME = ".aucap.lock"
SWITCH_VALUES = {"on": True, "true": True, "1": True, "yes": True,
                 "off": False, "false": False, "0": False, "no": False}


@contextlib.contextmanager
def output_lock(directory: Path):
    """Exclusive ``flock`` on ``<directory>/.aucap.lock``; release unlinks the file while held."""
    directory.mkdir(parents=True, exist_ok=True)
    lock = directory / LOCK_NAME
    with contextlib.ExitStack() as held:
        while True:
            try:
                fd = os.open(lock, os.O_CREAT | os.O_WRONLY)
            except OSError as exc:
                raise ConfigError(f"cannot open the lock file {lock}: {exc.strerror}") from exc
            held.callback(os.close, fd)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise ConfigError(f"output directory {directory} is locked by another run "
                                  f"({lock})") from None
            with contextlib.suppress(FileNotFoundError):
                if os.path.samestat(os.fstat(fd), os.stat(lock)):
                    break
            held.close()  # its holder unlinked the file before we locked it: lock the new one
        held.callback(lock.unlink, missing_ok=True)  # runs before the close: unlinked while held
        yield


def parse_config_file(path: Path) -> dict[str, str]:
    """Parse ``key = value`` lines; blank lines and # comments are skipped."""
    text = atomic.read_text(path, "config file", ConfigError)
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """Command name -> its subparser."""
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return commands.choices


def config_defaults(command: argparse.ArgumentParser, values: dict[str, str]) -> dict:
    """Config-file values converted as their flags convert them: by ``type``,
    checked against ``choices``, and on/off for a switch."""
    actions = {a.dest: a for a in command._actions
               if a.option_strings and a.dest not in ("help", "config")}
    converted = {}
    for key, text in values.items():
        action = actions.get(key)
        if action is None:
            raise ConfigError(f"unknown config key {key!r}")
        switch = action.nargs == 0  # store_true
        convert = action.type or str
        try:
            value = SWITCH_VALUES[text.lower()] if switch else convert(text)
        except (KeyError, ValueError):
            kind = "boolean" if switch else convert.__name__
            raise ConfigError(f"config key {key!r}: cannot parse {kind} from {text!r}") from None
        if action.choices is not None and value not in action.choices:
            raise ConfigError(f"config key {key!r}: {text!r} is not one of "
                              f"{', '.join(map(str, action.choices))}")
        converted[key] = value
    return converted


def resolved_config(args: argparse.Namespace) -> str:
    skip = {"func", "command"}
    items = sorted((k, v) for k, v in vars(args).items() if k not in skip)
    return " ".join(f"{k}={v}" for k, v in items)


def _cache_root(args) -> Path:
    root = getattr(args, "cache", None) or os.environ.get(CACHE_ENV)
    if not root:
        raise ConfigError(f"no cache root: pass --cache or set {CACHE_ENV}")
    return Path(root)


def _load_records(args) -> list[ds.ClipRecord]:
    """The clips of ``--csv``."""
    return ds.load_caption_csv(_require(args.csv, "caption CSV"), args.format,
                               audio_dir=getattr(args, "audio_dir", None))


def _load_features(args, variant: str, records: list[ds.ClipRecord]) -> dict[str, np.ndarray]:
    """The cached ``variant`` features of ``records``, keyed by clip id."""
    return ds.load_cached_features(_cache_root(args), variant, [r.clip_id for r in records])


def _load_corpus(args) -> tuple[TagLexicon, SubjectVerbCorpus]:
    """The lexicon and the subject-verb corpus of ``--corpus`` (``_nonempty``)."""
    lexicon = TagLexicon.load(_require(args.lexicon, "tag lexicon"))
    corpus = SubjectVerbCorpus.load(_require(args.corpus, "subject-verb corpus"))
    return lexicon, _nonempty(corpus, args.corpus)


def _nonempty(corpus: SubjectVerbCorpus, path) -> SubjectVerbCorpus:
    """``corpus`` (of ``path``), unless it is empty: every command trains or predicts with K > 0."""
    if corpus.size == 0:
        raise ConfigError(f"subject-verb corpus {path} is empty (K=0); there is no SVE "
                          f"to train or predict with")
    return corpus


def _training_fields(args) -> dict:
    """The ``_add_training`` flags as ``MLPConfig``/``CaptionerConfig`` fields."""
    return dict(dropout=args.dropout, learning_rate=args.learning_rate, epochs=args.epochs,
                batch_size=args.batch, seed=args.seed)


def _last(losses: list[float]) -> float:
    """The final epoch's loss; NaN after zero epochs."""
    return losses[-1] if losses else float("nan")


def _log_kept(command: str, train: list[float], val: list[float], best: int) -> None:
    """Log the epoch a trainer kept: the best by validation loss, else the last."""
    kept = (f"best epoch {best + 1} of {len(train)}, validation loss {val[best]:.4f}" if val
            else f"kept epoch {best + 1} of {len(train)} (no validation loss)")
    log.info("%s: %s, final train loss %.4f", command, kept, _last(train))


def _outputs(args, *names: str) -> list[Path]:
    """The paths ``args.command`` writes, checked by the module's output rule: ``names``
    in the ``--out`` directory, the one ``--out`` file, or extract-features' cache directory."""
    if args.command == "extract-features":
        directory = _cache_root(args) / args.variant
        what = f"cache root {directory.parent}"
    elif not args.out:
        if args.command != "evaluate":
            raise ConfigError(f"{args.command} needs --out")
        return []  # evaluate's report goes to stdout only
    else:
        directory, what = Path(args.out), f"--out {args.out}"
        if args.command == "evaluate" or (args.command, directory.suffix) == ("predict", ".tsv"):
            directory, names = directory.parent, (directory.name,)  # --out names the file
    nearest = next(p for p in (directory, *directory.parents) if p.exists())
    if not nearest.is_dir():
        raise ConfigError(f"{what}: {nearest} exists and is not a directory")
    files = [directory / name for name in names]
    for path in (*files, directory / LOCK_NAME):  # the lock file too, opened only at the writes
        if path.is_dir():
            raise ConfigError(f"{what}: {path} is a directory, not a file")
    return files or [directory]  # extract-features writes one file per clip in it


def _require(path_text: str | None, what: str) -> Path:
    """The path of a required input file, which must exist and not be a directory."""
    if not path_text:
        raise ConfigError(f"missing required artifact: {what}")
    path = Path(path_text)
    if not path.exists():
        raise ConfigError(f"{what} not found at {path}")
    if path.is_dir():
        raise ConfigError(f"{what} at {path} is a directory, not a file")
    return path


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_extract_features(args) -> int:
    (directory,) = _outputs(args)
    if not args.audio_dir:  # without it no record names its source file
        raise ConfigError("missing required artifact: audio directory (--audio-dir)")
    records = _load_records(args)
    feature_config = FeatureConfig(pad_seconds=args.pad_seconds)
    with output_lock(directory):
        result = ds.cache_features(records, args.variant, directory.parent, feature_config)
    log.info("extract-features: %d computed, %d skipped, %d failed",
             len(result.computed), len(result.skipped), len(result.errors))
    for clip_id, message in result.errors.items():
        log.error("clip %s: %s", clip_id, message)
    return 1 if result.errors else 0


def cmd_build_sve(args) -> int:
    matrix = ("sve_targets.emb", "sve_clips.txt") if args.matrix_out else ()
    corpus_file, *matrix_files = _outputs(args, "sve_corpus.txt", *matrix)
    records = _load_records(args)
    lexicon = TagLexicon.load(_require(args.lexicon, "tag lexicon"))
    corpus = _nonempty(build_corpus([c for r in records for c in r.captions], lexicon), corpus_file)
    with output_lock(corpus_file.parent):
        corpus.save(corpus_file)
        if matrix_files:
            targets_file, clips_file = matrix_files
            targets = ds.sve_targets(records, corpus, lexicon)
            embfile.write_matrix(targets_file, np.stack([targets[r.clip_id] for r in records]))
            atomic.write_bytes(clips_file,
                               "".join(f"{r.clip_id}\n" for r in records).encode("utf-8"))
    log.info("build-sve: corpus of K=%d roots written to %s", corpus.size, corpus_file.parent)
    return 0


def cmd_train_w2v(args) -> int:
    vocab_file, table_file = _outputs(args, "vocabulary.tsv", "word_embeddings.emb")
    captions = [c for r in _load_records(args) for c in r.captions]
    vocab = build_vocabulary(captions)
    config = Word2VecConfig(dim=args.dim, window=args.window, negatives=args.negatives,
                            epochs=args.epochs, seed=args.seed)
    table = train_word2vec(captions, vocab, config)
    with output_lock(vocab_file.parent):
        vocab.save(vocab_file)
        table.save(table_file)
    log.info("train-w2v: vocabulary of %d words, %d-dim embeddings, final loss %.4f",
             len(vocab), table.dim, _last(table.epoch_losses))
    return 0


def _check_mlp_width(records, features, width: int, reference: str):
    """Each clip's flattened features must be ``width`` values, the MLP's one
    input width (``reference`` names its source): a VGGish clip has one row per second."""
    for r in records:
        if features[r.clip_id].size != width:
            raise ShapeError(f"clip {r.clip_id!r} has features of shape "
                             f"{features[r.clip_id].shape}, {reference}")


def cmd_train_mlp(args) -> int:
    (model_file,) = _outputs(args, "sve_mlp.ckpt")
    records = _load_records(args)
    lexicon, corpus = _load_corpus(args)
    features = _load_features(args, args.variant, records)
    targets = ds.sve_targets(records, corpus, lexicon)
    first = features[records[0].clip_id]
    _check_mlp_width(records, features, first.size, f"the first clip {first.shape}")
    x = np.stack([features[r.clip_id].reshape(-1) for r in records])
    y = np.stack([targets[r.clip_id] for r in records])
    config = MLPConfig(input_dim=x.shape[1], output_dim=corpus.size, **_training_fields(args))
    model, history = train_mlp(x, y, config)
    model.variant, model.corpus_sha256 = args.variant, corpus.sha256()
    with output_lock(model_file.parent):
        model.save(model_file)
    _log_kept("train-mlp", history.train_losses, history.val_losses, history.best_epoch)
    return 0


def _load_word_embeddings(args, vocab: Vocabulary, embed_dim: int):
    if not getattr(args, "w2v", None):
        log.info("no --w2v given; embedding layer starts from random init")
        return None
    table = WordEmbeddingTable.load(_require(args.w2v, "word embeddings"), expected_dim=embed_dim)
    if table.matrix.shape[0] != len(vocab):
        raise ConfigError(
            f"word embeddings cover {table.matrix.shape[0]} words but vocabulary has {len(vocab)}"
        )
    return table.matrix


def cmd_train_captioner(args) -> int:
    (checkpoint_file,) = _outputs(args, "captioner.ckpt")
    if not 0.0 <= args.val_fraction < 1.0:
        raise ConfigError(f"--val-fraction must be in [0, 1), got {args.val_fraction}")
    vocab = Vocabulary.load(_require(args.vocab, "vocabulary"))
    train = _load_records(args)
    if args.val_csv:
        val = ds.load_caption_csv(_require(args.val_csv, "validation CSV"), args.format,
                                  split="validation")
        shared = sorted({r.clip_id for r in train} & {r.clip_id for r in val})
        if shared:  # epochs would be chosen on training clips, and val captions replace their SVE
            raise ConfigError(f"--csv and --val-csv share {len(shared)} clip(s), first "
                              f"{', '.join(shared[:3])}; hold validation clips out of training")
    else:
        train, val = ds.hold_out_validation(train, args.val_fraction, args.seed)

    records = train + val
    sves, corpus_sha, sve_dim = None, "", 0
    if args.use_sve == "on":
        lexicon, corpus = _load_corpus(args)
        sves = ds.sve_targets(records, corpus, lexicon)
        corpus_sha, sve_dim = corpus.sha256(), corpus.size

    features = _load_features(args, args.variant, records)
    config = CaptionerConfig(variant=args.variant, sve_dim=sve_dim, embed_dim=args.embed_dim,
                             **_training_fields(args))
    embed_init = _load_word_embeddings(args, vocab, config.embed_dim)
    checkpoint, history = train_captioner(
        ds.caption_pairs(train), features, sves, vocab, config,
        val_pairs=ds.caption_pairs(val) or None, embed_init=embed_init, corpus_sha256=corpus_sha,
    )
    with output_lock(checkpoint_file.parent):
        checkpoint.save(checkpoint_file)
    _log_kept("train-captioner", history["train_loss"], history["val_loss"], history["best_epoch"])
    return 0


def _predict_sves(args, checkpoint, records, features) -> dict[str, np.ndarray]:
    """Each clip's SVE, by ``--mlp`` (on ``features`` if of its variant) or from ``--corpus``."""
    if args.sve_source == "mlp":
        path = _require(args.mlp, "SVE MLP checkpoint")
        model = MLP.load(path)
        if model.variant is None:
            raise ConfigError(f"MLP checkpoint {path} records no feature variant; "
                              f"retrain it with train-mlp, which records --variant")
        if model.corpus_sha256 != checkpoint.corpus_sha256:  # its labels, and so their number
            raise ConfigError(f"MLP checkpoint {path} does not record the captioner's "
                              f"subject-verb corpus; retrain it with train-mlp on that --corpus")
        feats = (features if model.variant == checkpoint.config.variant
                 else _load_features(args, model.variant, records))
        width = model.config.input_dim
        _check_mlp_width(records, feats, width, f"the MLP {path} takes {width} values")
        return {r.clip_id: predict_sve(model, feats[r.clip_id].reshape(-1)) for r in records}
    lexicon, corpus = _load_corpus(args)
    if corpus.sha256() != checkpoint.corpus_sha256:
        raise ConfigError("subject-verb corpus does not match the checkpoint")
    return ds.sve_targets(records, corpus, lexicon)


def cmd_predict(args) -> int:
    (predictions_file,) = _outputs(args, "predictions.tsv")
    if args.max_len is not None and args.max_len < 2:
        raise ConfigError(f"--max-len must be at least 2 (<sos> and one word), got {args.max_len}")
    vocab = Vocabulary.load(_require(args.vocab, "vocabulary"))
    checkpoint = CaptionerCheckpoint.load(_require(args.checkpoint, "captioner checkpoint"),
                                          vocab=vocab)
    model = checkpoint.build_model()
    records = _load_records(args)
    features = _load_features(args, checkpoint.config.variant, records)
    sves = _predict_sves(args, checkpoint, records, features) if checkpoint.config.sve_dim else None
    lines = []
    for record in records:
        sve = sves[record.clip_id] if sves is not None else None
        enc = build_encoder_input(features[record.clip_id], sve, checkpoint.config.variant)
        tokens = model.greedy_decode(enc, vocab, max_len=args.max_len)
        caption = " ".join(strip_special_tokens(tokens))
        lines.append(f"{record.clip_id}\t{caption}\n")
    with output_lock(predictions_file.parent):
        atomic.write_bytes(predictions_file, "".join(lines).encode("utf-8"))
    log.info("predict: wrote %d captions to %s", len(lines), predictions_file)
    return 0


def cmd_evaluate(args) -> int:
    outputs = _outputs(args)
    report = metrics.evaluate_files(_require(args.candidates, "candidate file"),
                                    _require(args.references, "reference file"))
    text = report.table() + report.key_value_lines()
    sys.stdout.write(text)
    for report_file in outputs:
        with output_lock(report_file.parent):
            atomic.write_bytes(report_file, text.encode("utf-8"))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub, *, csv=True):
    sub.add_argument("--config", help="key = value config file; flags override it")
    if csv:
        sub.add_argument("--csv", help="caption CSV")
        sub.add_argument("--format", choices=ds.FORMATS, default="generic", help="CSV layout")


def _add_seed(sub, default: int):
    sub.add_argument("--seed", type=int, default=default, help="seed for all randomness")


def _add_corpus(sub):
    sub.add_argument("--lexicon", help="word<TAB>TAG lexicon file")
    sub.add_argument("--corpus", help="sve_corpus.txt from build-sve")


def _add_training(sub, config_cls, batch_help=None):
    """Optimizer flags shared by train-mlp and train-captioner; defaults from ``config_cls``."""
    sub.add_argument("--dropout", type=float, default=config_cls.dropout)
    sub.add_argument("--learning-rate", type=float, default=config_cls.learning_rate)
    sub.add_argument("--epochs", type=int, default=config_cls.epochs)
    sub.add_argument("--batch", type=int, default=config_cls.batch_size, help=batch_help)
    _add_seed(sub, config_cls.seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aucap",
                                     description="audio captioning pipeline")
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    commands = parser.add_subparsers(dest="command", required=True)
    variants = sorted(VARIANT_DIMS)

    p = commands.add_parser("extract-features", help="fill the feature cache")
    _add_common(p)
    p.add_argument("--audio-dir", help="directory holding the referenced files")
    p.add_argument("--variant", choices=variants, default="logmel")
    p.add_argument("--cache", help=f"cache root (default ${CACHE_ENV})")
    p.add_argument("--pad-seconds", type=float, default=FeatureConfig.pad_seconds)
    p.set_defaults(func=cmd_extract_features)

    p = commands.add_parser("build-sve", help="build the subject-verb corpus")
    _add_common(p)
    p.add_argument("--lexicon", help="word<TAB>TAG lexicon file")
    p.add_argument("--matrix-out", action="store_true",
                   help="also write per-clip SVE target matrix")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_build_sve)

    p = commands.add_parser("train-w2v", help="train word embeddings and the vocabulary")
    _add_common(p)
    for name in ("dim", "window", "negatives", "epochs"):
        p.add_argument(f"--{name}", type=int, default=getattr(Word2VecConfig, name))
    _add_seed(p, Word2VecConfig.seed)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_train_w2v)

    p = commands.add_parser("train-mlp", help="train the SVE predictor")
    _add_common(p)
    _add_corpus(p)
    p.add_argument("--cache")
    p.add_argument("--variant", choices=variants, default="panns")
    _add_training(p, MLPConfig)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_train_mlp)

    p = commands.add_parser("train-captioner", help="train the encoder-decoder")
    _add_common(p)
    p.add_argument("--val-csv", help="explicit validation CSV")
    p.add_argument("--val-fraction", type=float, default=0.1,
                   help="held-out fraction of development when no --val-csv")
    p.add_argument("--vocab", help="vocabulary.tsv from train-w2v")
    p.add_argument("--w2v", help="word_embeddings.emb from train-w2v")
    p.add_argument("--cache")
    p.add_argument("--variant", choices=variants, default=CaptionerConfig.variant)
    p.add_argument("--use-sve", choices=("on", "off"), default="on")
    _add_corpus(p)
    p.add_argument("--embed-dim", type=int, default=CaptionerConfig.embed_dim)
    _add_training(p, CaptionerConfig,
                  batch_help="least examples (caption prefixes) per optimizer step: a step "
                             "takes whole captions, grouped by clip, until it holds at least "
                             "this many from at least 2 clips, so it often holds more; an "
                             "epoch's last step takes the rest")
    p.add_argument("--out")
    p.set_defaults(func=cmd_train_captioner)

    p = commands.add_parser("predict", help="greedy-decode captions for clips")
    _add_common(p)
    p.add_argument("--checkpoint", help="captioner.ckpt")
    p.add_argument("--vocab")
    p.add_argument("--cache")
    p.add_argument("--sve-source", choices=("mlp", "captions"), default="mlp",
                   help="SVE of a checkpoint trained with SVE; ignored without")
    p.add_argument("--mlp", help="sve_mlp.ckpt for --sve-source mlp")
    _add_corpus(p)
    p.add_argument("--max-len", type=int, help="caption length cap (default: the checkpoint's)")
    p.add_argument("--out", help="output file or directory")
    p.set_defaults(func=cmd_predict)

    p = commands.add_parser("evaluate", help="score candidates against references")
    _add_common(p, csv=False)
    p.add_argument("--candidates", help="clip_id<TAB>caption file")
    p.add_argument("--references", help="clip_id<TAB>caption file (repeat ids for >1 ref)")
    p.add_argument("--out", help="optional report file")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        if args.config:  # file values become the command's defaults; flags still win
            command = subcommands(parser)[args.command]
            command.set_defaults(**config_defaults(command, parse_config_file(Path(args.config))))
            args = parser.parse_args(argv)
        log.info("resolved config: %s", resolved_config(args))
        return args.func(args)
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        return 2
    except AucapError as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
