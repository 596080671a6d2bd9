"""Dataset manifests, caption-pair expansion, and the on-disk feature cache.

Three CSV layouts are understood: ``clotho`` (file_name,caption_1..caption_5),
``audiocaps`` (file_name,caption), and ``generic`` (clip_id,caption with
consecutive repeated ids accumulating up to 5 captions). Captions are cleaned
at load time; clip ids must be unique within a split.

The cache stores one AUCAP-EMB file per clip and variant under
``<cache>/<variant>/<clip_id>.emb`` with a ``.sha256`` sidecar that holds the
source file's hash, the variant and, for logmel, every ``FeatureConfig`` field,
so unchanged clips are never recomputed while edited audio or another feature
config is.
"""

from __future__ import annotations

import csv
import hashlib
import logging
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import atomic, embfile
from .audio.embeddings import VARIANT_DIMS, load_variant_features
from .audio.features import FeatureConfig, extract_log_mel
from .audio.wav import load_wav
from .errors import AucapError, DatasetError, EmptyCaptionError
from .semantics import SubjectVerbCorpus, TagLexicon, _encode_checked, check_lexicon
from .semantics import encode_sve  # noqa: F401  (perfbench/tracing.py wraps dataset.encode_sve)
from .text import clean_caption

log = logging.getLogger(__name__)

FORMATS = ("clotho", "audiocaps", "generic")
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

    def captions(self, split: str) -> list[list[str]]:
        return [list(c) for r in self.split(split) for c in r.captions]


def _clean_or_raise(text: str, where: str) -> tuple[str, ...]:
    try:
        return tuple(clean_caption(text))
    except EmptyCaptionError as exc:
        raise DatasetError(f"{where}: caption is empty after cleaning") from exc


def _resolve_path(audio_dir: Path | None, file_name: str, where: str) -> Path | None:
    if audio_dir is None:
        return None
    path = audio_dir / file_name
    if not path.exists():
        raise DatasetError(f"{where}: referenced file {path} does not exist")
    return path


def load_caption_csv(path: str | Path, source_format: str, split: str = "development",
                     audio_dir: str | Path | None = None) -> list[ClipRecord]:
    """Parse one CSV into clip records for ``split``.

    When ``audio_dir`` is given, referenced files are resolved against it and
    must exist; otherwise records carry no path (caption-only use).
    """
    if source_format not in FORMATS:
        raise DatasetError(f"unknown format {source_format!r}, want one of {FORMATS}")
    path = Path(path)
    audio_dir = Path(audio_dir) if audio_dir is not None else None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DatasetError(f"{path}: missing CSV header")
        header = [h.strip() for h in reader.fieldnames]
        rows = [{k.strip(): (v or "").strip() for k, v in row.items() if k is not None}
                for row in reader]

    records: list[ClipRecord] = []
    seen: dict[str, int] = {}

    if source_format in ("clotho", "audiocaps"):  # one row per clip
        caption_cols = ([f"caption_{i}" for i in range(1, 6)] if source_format == "clotho"
                        else ["caption"])
        missing = [c for c in ["file_name", *caption_cols] if c not in header]
        if missing:
            raise DatasetError(f"{path}: missing columns {missing}")
        for lineno, row in enumerate(rows, start=2):
            where = f"{path}:{lineno}"
            name = row["file_name"]
            if not name:
                raise DatasetError(f"{where}: empty file_name")
            clip_id = Path(name).stem
            if clip_id in seen:
                raise DatasetError(f"{where}: duplicate clip_id {clip_id!r}")
            seen[clip_id] = lineno
            captions = []
            for col in caption_cols:
                if not row.get(col):
                    raise DatasetError(f"{where}: empty caption cell {col}")
                captions.append(_clean_or_raise(row[col], where))
            records.append(ClipRecord(clip_id, _resolve_path(audio_dir, name, where),
                                      tuple(captions), split))
    else:  # generic
        missing = [c for c in ("clip_id", "caption") if c not in header]
        if missing:
            raise DatasetError(f"{path}: missing columns {missing}")
        grouped: dict[str, list[tuple[str, ...]]] = {}
        order: list[str] = []
        last = None
        for lineno, row in enumerate(rows, start=2):
            where = f"{path}:{lineno}"
            clip_id = row["clip_id"]
            if not clip_id:
                raise DatasetError(f"{where}: empty clip_id")
            if not row.get("caption"):
                raise DatasetError(f"{where}: empty caption cell")
            if clip_id in grouped and clip_id != last:
                raise DatasetError(f"{where}: duplicate clip_id {clip_id!r} (rows must be grouped)")
            if clip_id not in grouped:
                grouped[clip_id] = []
                order.append(clip_id)
            grouped[clip_id].append(_clean_or_raise(row["caption"], where))
            if len(grouped[clip_id]) > MAX_CAPTIONS:
                raise DatasetError(f"{where}: clip {clip_id!r} has more than {MAX_CAPTIONS} captions")
            last = clip_id
        for clip_id in order:
            file_name = clip_id if "." in clip_id else f"{clip_id}.wav"
            path_or_none = _resolve_path(audio_dir, file_name, f"{path}:{clip_id}")
            records.append(ClipRecord(clip_id, path_or_none, tuple(grouped[clip_id]), split))

    if not records:
        raise DatasetError(f"{path}: no records")
    return records


def expand_pairs(manifest: DatasetManifest, split: str) -> list[tuple[str, list[str]]]:
    """One (clip_id, caption) instance per caption, in clip then caption order."""
    return [(r.clip_id, list(caption)) for r in manifest.split(split) for caption in r.captions]


def hold_out_validation(manifest: DatasetManifest, fraction: float,
                        seed: int) -> DatasetManifest:
    """Move a deterministic fraction of development clips into validation."""
    if not 0.0 <= fraction < 1.0:
        raise DatasetError(f"fraction must be in [0, 1), got {fraction}")
    dev = manifest.split("development")
    n_val = int(len(dev) * fraction)
    rng = np.random.RandomState(seed)
    picked = set(rng.permutation(len(dev))[:n_val].tolist())
    out = DatasetManifest(source_format=manifest.source_format)
    out.add("development", [r for i, r in enumerate(dev) if i not in picked])
    val = [ClipRecord(r.clip_id, r.path, r.captions, "validation")
           for i, r in enumerate(dev) if i in picked]
    if val:
        out.add("validation", val)
    for split in ("validation", "evaluation"):
        if manifest.split(split):
            out.add(split, manifest.split(split))
    return out


def sve_targets(records: list[ClipRecord], corpus: SubjectVerbCorpus,
                lexicon: TagLexicon) -> dict[str, np.ndarray]:
    """Per-clip binary SVE target: the union over the clip's captions."""
    check_lexicon(corpus, lexicon)  # once per call: hashing the lexicon costs ~1 ms
    out: dict[str, np.ndarray] = {}
    for r in records:
        vec = np.zeros(corpus.size, dtype=np.float64)
        for caption in r.captions:
            vec = np.maximum(vec, _encode_checked(list(caption), corpus, lexicon))
        out[r.clip_id] = vec
    return out


# ---------------------------------------------------------------------------
# feature cache
# ---------------------------------------------------------------------------


@dataclass
class CacheResult:
    computed: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    errors: dict[str, str] = field(default_factory=dict)


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _cache_key(src_hash: str, variant: str, feature_config: FeatureConfig) -> str:
    """Sidecar content: ``<sha256> <variant>``, then ``name=value`` per FeatureConfig
    field for logmel, the only variant computed from the config."""
    parts = [src_hash, variant]
    if variant == "logmel":
        parts += [f"{f.name}={getattr(feature_config, f.name)!r}" for f in fields(feature_config)]
    return " ".join(parts)


def cache_path(cache_root: str | Path, variant: str, clip_id: str) -> Path:
    return Path(cache_root) / variant / f"{clip_id}.emb"


def cache_features(records: list[ClipRecord], variant: str, cache_root: str | Path,
                   feature_config: FeatureConfig = FeatureConfig()) -> CacheResult:
    """Extract (logmel) or validate-and-copy (vggish/panns) features per clip.

    Idempotent: a clip is recomputed only when its cache key (source hash,
    variant and feature config) changed.
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
            key = _cache_key(_sha256_file(record.path), variant, feature_config)
            target = out_dir / f"{clip_id}.emb"
            sidecar = out_dir / f"{clip_id}.sha256"
            if target.exists() and sidecar.exists() and sidecar.read_text().strip() == key:
                result.skipped.append(clip_id)
                continue
            if variant == "logmel":
                values = extract_log_mel(load_wav(record.path), feature_config).values
            else:
                values = load_variant_features(record.path, variant)
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
