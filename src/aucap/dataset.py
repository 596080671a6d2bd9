"""Dataset manifests, caption-pair expansion, and the on-disk feature cache.

Three CSV layouts are understood: ``clotho`` (file_name,caption_1..caption_5),
``audiocaps`` (file_name,caption), and ``generic`` (clip_id,caption with
consecutive repeated ids accumulating up to 5 captions). One row loop reads
them all; a per-format ``_Layout`` names the id column, the caption columns,
whether rows of one id group, and how an id names its audio file (a
``file_name`` cell is the file and its stem the id; a ``clip_id`` without an
extension names ``<clip_id>.wav``). Captions are cleaned at load time; clip
ids must be unique within a split.

The cache stores one AUCAP-EMB file per clip and variant under
``<cache>/<variant>/<clip_id>.emb`` with a ``.sha256`` sidecar that holds the
source file's hash, the variant and, for logmel, the whole log-Mel recipe as
``name=value`` pairs. The recipe is fixed and only its clip length
(``pad_seconds``) varies, so unchanged clips are never recomputed while edited
audio or another clip length is.
"""

from __future__ import annotations

import csv
import hashlib
import io
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import atomic, embfile
from .audio.embeddings import VARIANT_DIMS, parse_variant_features
from .audio.features import FeatureConfig, extract_log_mel
from .audio.wav import decode_wav
from .audio.wav import load_wav  # noqa: F401  (perfbench/tracing.py wraps dataset.load_wav)
from .errors import AucapError, DatasetError, EmptyCaptionError
from .semantics import SubjectVerbCorpus, TagLexicon, check_lexicon, subject_verb_roots
from .semantics import encode_sve  # noqa: F401  (perfbench/tracing.py wraps dataset.encode_sve)
from .text import clean_caption

log = logging.getLogger(__name__)

SPLITS = ("development", "validation", "evaluation")
MAX_CAPTIONS = 5


@dataclass(frozen=True)
class ClipRecord:
    clip_id: str
    path: Path | None
    captions: tuple[tuple[str, ...], ...]  # cleaned, <sos>/<eos> wrapped
    split: str


@dataclass
class DatasetManifest:
    source_format: str
    records: dict[str, list[ClipRecord]] = field(default_factory=dict)

    def add(self, split: str, records: list[ClipRecord]) -> None:
        if split not in SPLITS:
            raise DatasetError(f"unknown split {split!r}, want one of {SPLITS}")
        existing = {r.clip_id for r in self.records.get(split, [])}
        for r in records:
            if r.clip_id in existing:
                raise DatasetError(f"duplicate clip_id {r.clip_id!r} in split {split!r}")
            existing.add(r.clip_id)
        self.records.setdefault(split, []).extend(records)

    def split(self, name: str) -> list[ClipRecord]:
        return self.records.get(name, [])


class _Layout(NamedTuple):
    id_column: str
    caption_columns: tuple[str, ...]
    grouped: bool  # consecutive rows of one id add captions, up to MAX_CAPTIONS
    clip_and_file: Callable[[str], tuple[str, str]]  # id cell -> (clip_id, audio file name)


_LAYOUTS = {
    "clotho": _Layout("file_name", tuple(f"caption_{i}" for i in range(1, 6)), False,
                      lambda cell: (Path(cell).stem, cell)),
    "audiocaps": _Layout("file_name", ("caption",), False, lambda cell: (Path(cell).stem, cell)),
    "generic": _Layout("clip_id", ("caption",), True,
                       lambda cell: (cell, cell if "." in cell else f"{cell}.wav")),
}
FORMATS = tuple(_LAYOUTS)


def load_caption_csv(path: str | Path, source_format: str, split: str = "development",
                     audio_dir: str | Path | None = None) -> list[ClipRecord]:
    """Parse one CSV into clip records for ``split``.

    When ``audio_dir`` is given, referenced files are resolved against it and
    must exist; otherwise records carry no path (caption-only use).
    """
    if source_format not in FORMATS:
        raise DatasetError(f"unknown format {source_format!r}, want one of {FORMATS}")
    layout = _LAYOUTS[source_format]
    path = Path(path)
    audio_dir = Path(audio_dir) if audio_dir is not None else None
    text = atomic.read_text(path, "caption CSV", DatasetError)
    reader = csv.DictReader(io.StringIO(text, newline=""))
    if reader.fieldnames is None:
        raise DatasetError(f"{path}: missing CSV header")
    header = [h.strip() for h in reader.fieldnames]
    rows = [{k.strip(): (v or "").strip() for k, v in row.items() if k is not None}
            for row in reader]
    missing = [c for c in (layout.id_column, *layout.caption_columns) if c not in header]
    if missing:
        raise DatasetError(f"{path}: missing columns {missing}")

    clips: dict[str, tuple[Path | None, list[tuple[str, ...]]]] = {}
    last = None
    for lineno, row in enumerate(rows, start=2):
        where = f"{path}:{lineno}"
        cell = row[layout.id_column]
        if not cell:
            raise DatasetError(f"{where}: empty {layout.id_column}")
        clip_id, file_name = layout.clip_and_file(cell)
        new = clip_id not in clips
        if not new and not (layout.grouped and clip_id == last):
            hint = " (rows must be grouped)" if layout.grouped else ""
            raise DatasetError(f"{where}: duplicate clip_id {clip_id!r}{hint}")
        captions = [] if new else clips[clip_id][1]
        for col in layout.caption_columns:
            if not row[col]:
                raise DatasetError(f"{where}: empty caption cell {col}")
            try:
                captions.append(tuple(clean_caption(row[col])))
            except EmptyCaptionError as exc:
                raise DatasetError(f"{where}: caption is empty after cleaning") from exc
        if len(captions) > MAX_CAPTIONS:
            raise DatasetError(f"{where}: clip {clip_id!r} has more than {MAX_CAPTIONS} captions")
        if new:
            audio = audio_dir / file_name if audio_dir is not None else None
            if audio is not None and not audio.exists():
                raise DatasetError(f"{where}: referenced file {audio} does not exist")
            clips[clip_id] = (audio, captions)
        last = clip_id
    if not clips:
        raise DatasetError(f"{path}: no records")
    return [ClipRecord(clip_id, audio, tuple(captions), split)
            for clip_id, (audio, captions) in clips.items()]


def caption_pairs(records: list[ClipRecord]) -> list[tuple[str, list[str]]]:
    """One (clip_id, caption) instance per caption, in clip then caption order."""
    return [(r.clip_id, list(caption)) for r in records for caption in r.captions]


def expand_pairs(manifest: DatasetManifest, split: str) -> list[tuple[str, list[str]]]:
    """The :func:`caption_pairs` of the ``split`` records of ``manifest``."""
    return caption_pairs(manifest.split(split))


def hold_out_validation(records: list[ClipRecord], fraction: float,
                        seed: int) -> tuple[list[ClipRecord], list[ClipRecord]]:
    """Split ``records`` into (kept, held_out): ``int(len * fraction)`` clips
    drawn by ``seed`` are held out. Both lists keep the records' order."""
    if not 0.0 <= fraction < 1.0:
        raise DatasetError(f"fraction must be in [0, 1), got {fraction}")
    n_val = int(len(records) * fraction)
    picked = set(np.random.RandomState(seed).permutation(len(records))[:n_val].tolist())
    return ([r for i, r in enumerate(records) if i not in picked],
            [r for i, r in enumerate(records) if i in picked])


def sve_targets(records: list[ClipRecord], corpus: SubjectVerbCorpus,
                lexicon: TagLexicon) -> dict[str, np.ndarray]:
    """Per-clip binary SVE target: the union over the clip's captions."""
    check_lexicon(corpus, lexicon)
    roots = iter(subject_verb_roots((c for r in records for c in r.captions), lexicon))
    return {r.clip_id: corpus.encode([w for _ in r.captions for w in next(roots)])
            for r in records}


# ---------------------------------------------------------------------------
# feature cache
# ---------------------------------------------------------------------------


@dataclass
class CacheResult:
    computed: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    errors: dict[str, str] = field(default_factory=dict)


def _cache_key(src_hash: str, variant: str, feature_config: FeatureConfig) -> str:
    """Sidecar content: ``<sha256> <variant>``, then for logmel, the only variant
    computed here, the recipe's ``name=value`` pairs (``FeatureConfig.recipe``)."""
    if variant == "logmel":
        return f"{src_hash} {variant} {feature_config.recipe()}"
    return f"{src_hash} {variant}"


def cache_path(cache_root: str | Path, variant: str, clip_id: str) -> Path:
    return Path(cache_root) / variant / f"{clip_id}.emb"


def cache_features(records: list[ClipRecord], variant: str, cache_root: str | Path,
                   feature_config: FeatureConfig = FeatureConfig()) -> CacheResult:
    """Extract (logmel) or validate-and-copy (vggish/panns) features per clip.

    Idempotent: a clip is recomputed only when its cache key (source hash,
    variant and, for logmel, clip length) changed. Each source is read once; the same
    bytes are hashed and, when the clip is computed, decoded.
    Failures are collected per clip, never raised mid-run.
    """
    if variant not in VARIANT_DIMS:
        raise DatasetError(f"unknown variant {variant!r}")
    out_dir = Path(cache_root) / variant
    out_dir.mkdir(parents=True, exist_ok=True)
    result = CacheResult()
    for record in records:
        clip_id = record.clip_id
        try:
            if record.path is None:
                raise DatasetError("record has no source path")
            blob = record.path.read_bytes()
            key = _cache_key(hashlib.sha256(blob).hexdigest(), variant, feature_config)
            target = cache_path(cache_root, variant, clip_id)
            sidecar = target.with_suffix(".sha256")
            # compared as bytes: a sidecar that is not ASCII matches no key and is rewritten
            if (target.exists() and sidecar.exists()
                    and sidecar.read_bytes().strip() == key.encode()):
                result.skipped.append(clip_id)
                continue
            if variant == "logmel":
                values = extract_log_mel(decode_wav(blob, record.path), feature_config)
            else:
                values = parse_variant_features(blob, record.path, variant)
            embfile.write_matrix(target, values)
            atomic.write_bytes(sidecar, (key + "\n").encode("ascii"))
            result.computed.append(clip_id)
        except (AucapError, OSError) as exc:
            result.errors[clip_id] = str(exc)
    return result


def load_cached_features(cache_root: str | Path, variant: str,
                         clip_ids: list[str]) -> dict[str, np.ndarray]:
    if variant not in VARIANT_DIMS:
        raise DatasetError(f"unknown variant {variant!r}")
    out: dict[str, np.ndarray] = {}
    for clip_id in clip_ids:
        path = cache_path(cache_root, variant, clip_id)
        if not path.exists():
            raise DatasetError(f"no cached {variant} features for clip {clip_id!r} at {path}")
        out[clip_id] = embfile.read_matrix(path, expected_dim=VARIANT_DIMS[variant])
    return out
