"""Subject-verb semantic embeddings.

A caption contributes its subjects (nouns before the first verb) and all its
verbs, reduced to root form. The corpus is the deduplicated, first-appearance
ordered list of those roots over the training captions; each caption then
encodes as a binary membership vector over the corpus.

Tagging uses a word -> {NOUN, VERB, OTHER} lexicon with ordered suffix-rule
fallbacks, standing in for a full parser; lexicons are plain files so
pre-tagged annotations can be dropped in.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import atomic
from .errors import SemanticsError
from .text import strip_special_tokens

log = logging.getLogger(__name__)

NOUN = "NOUN"
VERB = "VERB"
OTHER = "OTHER"
_TAGS = (NOUN, VERB, OTHER)

_VOWELS = set("aeiou")

SUFFIX_RULES = (("ing", VERB), ("ed", VERB))  # tried in order for a word with no entry
DEFAULT_TAG = OTHER  # of a word with no entry and no matching rule

_LEXICON_HEADER = "# lexicon "  # first line of a saved corpus, before the lexicon's SHA-256


def _has_vowel(word: str) -> bool:
    return any(ch in _VOWELS or ch == "y" for ch in word)


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    c1, v, c2 = word[-3], word[-2], word[-1]
    return c1 not in _VOWELS and v in _VOWELS and c2 not in _VOWELS and c2 not in "wxy"


def _strip_pass(word: str) -> str:
    """One Porter step-1 style pass: plural, then -ed/-ing, then terminal y."""
    w = word
    # plural endings
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies"):
        w = w[:-3] + "y"  # merges with the singular through the terminal-y rule
    elif w.endswith("ss"):
        pass
    elif w.endswith("s") and len(w) > 3:
        w = w[:-1]
    # -ed / -ing
    if w.endswith("eed"):
        if len(w) > 4:
            w = w[:-1]
    else:
        stem = None
        if w.endswith("ed") and _has_vowel(w[:-2]):
            stem = w[:-2]
        elif w.endswith("ing") and _has_vowel(w[:-3]):
            stem = w[:-3]
        if stem is not None:
            if stem.endswith(("at", "bl", "iz")):
                stem += "e"
            elif len(stem) >= 2 and stem[-1] == stem[-2] and stem[-1] not in _VOWELS \
                    and stem[-1] not in "lsz":
                stem = stem[:-1]
            elif _ends_cvc(stem) and sum(ch in _VOWELS for ch in stem) == 1:
                stem += "e"
            w = stem
    # terminal y -> i when a vowel precedes it
    if w.endswith("y") and len(w) > 2 and _has_vowel(w[:-1]):
        w = w[:-1] + "i"
    return w


def to_root(word: str) -> str:
    """Suffix-stripping stemmer (Porter step-1 style); deterministic and idempotent.

    Repeats the stripping pass until the word stops changing, since one pass
    can leave a strippable suffix behind (``aeding -> aed -> a``). The loop
    ends: no pass lengthens a word, and the one length-keeping change, a
    final ``y -> i``, yields a word that no rule touches.
    """
    while True:
        stripped = _strip_pass(word)
        if stripped == word:
            return word
        word = stripped


class TagLexicon:
    """word -> part-of-speech table with ordered suffix-rule fallbacks.

    Resolution: exact entry, then the first matching ``SUFFIX_RULES`` entry,
    then ``DEFAULT_TAG``. Every word therefore maps to exactly one tag. A
    lexicon does not change after construction (``entries`` is a read-only
    view), so its digest is computed on the first ``sha256()`` call and kept.
    """

    def __init__(self, entries: dict[str, str] | None = None):
        entries = dict(entries or {})
        for word, tag in entries.items():
            if tag not in _TAGS:
                raise SemanticsError(f"unknown tag {tag!r} for word {word!r}")
        self.entries = MappingProxyType(entries)
        self._sha256: str | None = None

    def tag(self, word: str) -> str:
        hit = self.entries.get(word)
        if hit is not None:
            return hit
        for suffix, tag in SUFFIX_RULES:
            if word.endswith(suffix) and len(word) > len(suffix):
                return tag
        return DEFAULT_TAG

    def sha256(self) -> str:
        """Hex SHA-256 of a ``word<TAB>TAG`` line per entry in word order, a
        ``*suffix<TAB>TAG`` line per rule, then the default tag."""
        if self._sha256 is None:
            text = "".join([*(f"{w}\t{t}\n" for w, t in sorted(self.entries.items())),
                            *(f"*{s}\t{t}\n" for s, t in SUFFIX_RULES), DEFAULT_TAG])
            self._sha256 = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return self._sha256

    def save(self, path: str | Path) -> None:
        lines = [f"{w}\t{t}\n" for w, t in sorted(self.entries.items())]
        atomic.write_bytes(path, "".join(lines).encode("utf-8"))

    @classmethod
    def load(cls, path: str | Path) -> "TagLexicon":
        entries = {}
        text = atomic.read_text(path, "tag lexicon", SemanticsError)
        for lineno, line in enumerate(text.splitlines()):
            if not line or line.startswith("#"):
                continue
            word, sep, tag = line.partition("\t")
            if not sep:
                raise SemanticsError(f"{path}:{lineno + 1}: expected word<TAB>TAG")
            entries[word] = tag.strip()
        return cls(entries)


@dataclass(frozen=True)
class SubjectVerbCorpus:
    """Ordered, deduplicated root words; K = len(words)."""

    words: tuple[str, ...]
    lexicon_sha256: str
    _index: dict[str, int] = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {w: k for k, w in enumerate(self.words)})
        if len(self._index) != len(self.words):
            raise SemanticsError("corpus contains duplicate words")

    @property
    def size(self) -> int:
        return len(self.words)

    def encode(self, roots) -> np.ndarray:
        """Binary float32 vector: bit k set iff ``words[k]`` is one of ``roots``."""
        vec = np.zeros(self.size, dtype=np.float32)
        vec[[self._index[w] for w in roots if w in self._index]] = 1.0
        return vec

    def save(self, path: str | Path) -> None:
        """One root per line after a ``# lexicon <sha256>`` header naming the lexicon."""
        lines = [f"{_LEXICON_HEADER}{self.lexicon_sha256}\n", *(f"{w}\n" for w in self.words)]
        atomic.write_bytes(path, "".join(lines).encode("utf-8"))

    @classmethod
    def load(cls, path: str | Path) -> "SubjectVerbCorpus":
        """Read a corpus and the hash of the lexicon it was built with."""
        text = atomic.read_text(path, "subject-verb corpus", SemanticsError)
        header, *words = text.splitlines() or [""]
        if not header.startswith(_LEXICON_HEADER):
            raise SemanticsError(f"{path}: no '{_LEXICON_HEADER.strip()}' header; "
                                 f"rebuild the corpus with build-sve")
        return cls(words=tuple(w for w in words if w),
                   lexicon_sha256=header[len(_LEXICON_HEADER):].strip())

    def sha256(self) -> str:
        digest = hashlib.sha256()
        for word in self.words:
            digest.update(word.encode("utf-8"))
            digest.update(b"\n")
        return digest.hexdigest()


def extract_subjects_verbs(caption: list[str], lex: TagLexicon) -> list[str]:
    """Nouns before the first verb, plus every verb, in caption order."""
    tokens = strip_special_tokens(caption)
    tags = [lex.tag(t) for t in tokens]
    first_verb = next((i for i, t in enumerate(tags) if t == VERB), len(tokens))
    out = []
    for i, (token, tag) in enumerate(zip(tokens, tags)):
        if tag == VERB or (tag == NOUN and i < first_verb):
            out.append(token)
    return out


def subject_verb_roots(captions, lex: TagLexicon) -> list[list[str]]:
    """Per caption, the roots of its subjects and verbs in caption order.

    Each distinct word is stemmed once per call, however many captions hold it.
    """
    roots: dict[str, str] = {}
    out = []
    for caption in captions:
        words = extract_subjects_verbs(caption, lex)
        for word in words:
            if word not in roots:
                roots[word] = to_root(word)
        out.append([roots[word] for word in words])
    return out


def build_corpus(captions, lex: TagLexicon) -> SubjectVerbCorpus:
    """Union of rooted subjects/verbs over all captions, first-appearance order."""
    captions = list(captions)
    if not captions:
        raise SemanticsError("caption list is empty")
    words = dict.fromkeys(root for roots in subject_verb_roots(captions, lex) for root in roots)
    if not words:
        log.warning("subject-verb corpus is empty; SVE features are disabled (K=0)")
    return SubjectVerbCorpus(words=tuple(words), lexicon_sha256=lex.sha256())


def check_lexicon(corpus: SubjectVerbCorpus, lex: TagLexicon) -> None:
    """Raise SemanticsError unless ``corpus`` was built with ``lex`` (one lexicon hash)."""
    if lex.sha256() != corpus.lexicon_sha256:
        raise SemanticsError("corpus was built with a different lexicon")


def encode_sve(caption: list[str], corpus: SubjectVerbCorpus, lex: TagLexicon) -> np.ndarray:
    """Binary vector: bit k set iff corpus[k] is a rooted subject/verb of the caption."""
    check_lexicon(corpus, lex)
    return corpus.encode(subject_verb_roots([caption], lex)[0])
