"""Subject-verb semantic embeddings.

A caption contributes its subjects (nouns before the first verb) and all its
verbs, reduced to root form. The corpus is the deduplicated, first-appearance
ordered list of those roots over the training captions; each caption then
encodes as a binary membership vector over the corpus.

Tagging uses a word -> {NOUN, VERB, OTHER} lexicon with ordered suffix-rule
fallbacks, standing in for a full parser; lexicons are plain files so
pre-tagged annotations can be dropped in. The reserved tokens (``<sos>`` and
the like) are never subjects or verbs, whatever the lexicon says.

Within one ``subject_verb_roots`` call each distinct token is tagged once,
each distinct selected word is stemmed once, and each caption is read once;
the function keeps nothing between calls. A corpus made by ``build_corpus``
keeps each distinct caption's roots, so that the clip targets
(``SubjectVerbCorpus.encode_clips``, which ``dataset.sve_targets`` calls) of
the captions it was built from need no second extraction.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import atomic
from .errors import SemanticsError
from .text import RESERVED, require_clean_word, words_sha256

NOUN = "NOUN"
VERB = "VERB"
OTHER = "OTHER"
_TAGS = (NOUN, VERB, OTHER)

_VOWELS = set("aeiou")

SUFFIX_RULES = (("ing", VERB), ("ed", VERB))  # tried in order for a word with no entry
DEFAULT_TAG = OTHER  # of a word with no entry and no matching rule
_RULE_SUFFIXES = tuple(suffix for suffix, _ in SUFFIX_RULES)  # a word with none gets DEFAULT_TAG

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

    ``tag`` looks a word up in ``_exceptions``: the entries whose tag the
    fallbacks would not give, built once from the entries. An entry that the
    fallbacks reproduce (most plain OTHER words) gets the same tag without a
    lookup. The smaller table keeps a lookup cheap when the lexicon is not
    in the CPU caches, as in a single ``build-sve`` run.
    """

    def __init__(self, entries: dict[str, str] | None = None):
        entries = dict(entries or {})
        for word, tag in entries.items():
            if tag not in _TAGS:
                raise SemanticsError(f"unknown tag {tag!r} for word {word!r}")
        self.entries = MappingProxyType(entries)
        self._exceptions: dict[str, str] = {}  # while empty, ``tag`` gives the fallbacks' tag
        self._exceptions = {w: t for w, t in entries.items() if TagLexicon.tag(self, w) != t}
        self._sha256: str | None = None

    def tag(self, word: str) -> str:
        hit = self._exceptions.get(word)
        if hit is not None:
            return hit
        if not word.endswith(_RULE_SUFFIXES):
            return DEFAULT_TAG
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
            require_clean_word(word, path, lineno + 1, SemanticsError)
            entries[word] = tag.strip()
        return cls(entries)


@dataclass(frozen=True)
class SubjectVerbCorpus:
    """Ordered, deduplicated root words; K = len(words).

    A corpus from ``build_corpus`` also keeps ``_roots``: each distinct caption
    it was built from (its token tuple) -> that caption's roots, which
    ``encode_clips`` reads instead of extracting them again. The table is not
    saved and takes no part in ``==``, ``repr`` or ``sha256()``; a loaded
    corpus has none.
    """

    words: tuple[str, ...]
    lexicon_sha256: str
    _index: dict[str, int] = field(default_factory=dict, compare=False, repr=False)
    _roots: dict[tuple[str, ...], list[str]] = field(default_factory=dict, compare=False,
                                                     repr=False)

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

    def encode_clips(self, clips, lex: TagLexicon) -> np.ndarray:
        """Read-only (N, K) float32 matrix, one row per clip of ``clips`` (a list
        of sequences of token-tuple captions): bit k set iff ``words[k]`` is a
        root of one of the clip's captions.

        A caption's roots come from ``_roots`` when it holds them; one
        ``subject_verb_roots`` call extracts those of the distinct captions it
        lacks. One fancy-index assignment sets every bit.
        """
        check_lexicon(self, lex)
        captions = [c for group in clips for c in group]
        roots = list(map(self._roots.get, captions))
        if None in roots:  # a caption without subject or verb has [] in the table
            missing = dict.fromkeys(c for c, found in zip(captions, roots) if found is None)
            extracted = dict(zip(missing, subject_verb_roots(missing, lex)))
            roots = [extracted[c] if found is None else found for c, found in zip(captions, roots)]
        words = [w for found in roots for w in found]
        columns = np.fromiter(map(self._index.get, words, repeat(-1)), np.intp, len(words))
        rows = np.repeat(np.repeat(np.arange(len(clips)), [len(group) for group in clips]),
                         [len(found) for found in roots])
        held = columns >= 0  # a root of a caption the corpus was not built from may be absent
        matrix = np.zeros((len(clips), self.size), dtype=np.float32)
        matrix[rows[held], columns[held]] = 1.0
        matrix.flags.writeable = False
        return matrix

    def save(self, path: str | Path) -> None:
        """One root per line after a ``# lexicon <sha256>`` header naming the lexicon."""
        lines = [f"{_LEXICON_HEADER}{self.lexicon_sha256}\n", *(f"{w}\n" for w in self.words)]
        atomic.write_bytes(path, "".join(lines).encode("utf-8"))

    @classmethod
    def load(cls, path: str | Path) -> "SubjectVerbCorpus":
        """Read a corpus and the hash of the lexicon it was built with."""
        text = atomic.read_text(path, "subject-verb corpus", SemanticsError)
        header, *lines = text.splitlines() or [""]
        if not header.startswith(_LEXICON_HEADER):
            raise SemanticsError(f"{path}: no '{_LEXICON_HEADER.strip()}' header; "
                                 f"rebuild the corpus with build-sve")
        for lineno, word in enumerate(lines, 2):
            if word and word.split() != [word]:  # a blank line is skipped
                raise SemanticsError(f"{path}:{lineno}: word {word!r} holds whitespace")
        return cls(words=tuple(w for w in lines if w),
                   lexicon_sha256=header[len(_LEXICON_HEADER):].strip())

    def sha256(self) -> str:
        """``words_sha256`` of the roots: one line per root in corpus order."""
        return words_sha256(self.words)


def subject_verb_roots(captions, lex: TagLexicon) -> list[list[str]]:
    """Per caption, the roots of its nouns before the first verb and of every
    verb, in caption order; the reserved tokens are neither.

    One call keeps two word tables: token -> tag, which starts with the
    reserved tokens as OTHER, and selected token -> root. So each distinct
    token is tagged once through ``lex.tag`` and each distinct selected word
    is stemmed once through ``to_root``, however many captions hold it, and
    each caption takes one pass. Nothing is kept between calls, so every
    call does the same work. (``build_corpus`` keeps the roots it gets on
    the corpus it returns, for that corpus's clip targets.)
    """
    tags, roots = dict.fromkeys(RESERVED, OTHER), {}
    out = []
    for caption in captions:
        selected = []
        subjects = True
        for token in caption:
            tag = tags.get(token)
            if tag is None:
                tag = tags[token] = lex.tag(token)
            if tag == VERB:
                subjects = False
            elif not subjects or tag != NOUN:
                continue
            root = roots.get(token)
            if root is None:
                root = roots[token] = to_root(token)
            selected.append(root)
        out.append(selected)
    return out


def build_corpus(captions, lex: TagLexicon) -> SubjectVerbCorpus:
    """Union of rooted subjects/verbs over all captions, first-appearance order.

    One ``subject_verb_roots`` call reads each distinct caption once. The
    corpus keeps every distinct caption's roots, keyed by its token tuple
    (``tuple(caption)``, so lists and tuples of one caption share a key), for
    ``encode_clips``. Nothing is kept on ``lex``; each call builds its own table.
    """
    distinct = dict.fromkeys(map(tuple, captions))
    if not distinct:
        raise SemanticsError("caption list is empty")
    table = dict(zip(distinct, subject_verb_roots(distinct, lex)))
    words = dict.fromkeys(root for roots in table.values() for root in roots)
    return SubjectVerbCorpus(words=tuple(words), lexicon_sha256=lex.sha256(), _roots=table)


def check_lexicon(corpus: SubjectVerbCorpus, lex: TagLexicon) -> None:
    """Raise SemanticsError unless ``corpus`` was built with ``lex`` (one lexicon hash)."""
    if lex.sha256() != corpus.lexicon_sha256:
        raise SemanticsError("corpus was built with a different lexicon")


def encode_sve(caption: list[str], corpus: SubjectVerbCorpus, lex: TagLexicon) -> np.ndarray:
    """Binary vector: bit k set iff corpus[k] is a rooted subject/verb of the caption."""
    check_lexicon(corpus, lex)
    return corpus.encode(subject_verb_roots([caption], lex)[0])
