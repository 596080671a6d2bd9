"""Caption cleaning, vocabulary, and index encoding.

Cleaning applies four rules to each whitespace token: lowercase, strip
punctuation characters, drop single-character tokens, drop tokens containing
a digit. Results are wrapped in ``<sos>``/``<eos>``; the boundary tokens are
exempt from all filters, which makes cleaning idempotent.
"""

from __future__ import annotations

import hashlib
import unicodedata
from pathlib import Path

from . import atomic
from .errors import EmptyCaptionError, VocabularyError

PAD = "<pad>"
SOS = "<sos>"
EOS = "<eos>"
UNK = "<unk>"
RESERVED = (PAD, SOS, EOS, UNK)

TokenizedCaption = list[str]


def _strip_punctuation(token: str) -> str:
    return "".join(ch for ch in token if not unicodedata.category(ch).startswith("P"))


def clean_caption(raw: str) -> TokenizedCaption:
    """Clean and tokenize one caption; raises EmptyCaptionError if nothing survives."""
    words = []
    for token in raw.lower().split():
        if token in (SOS, EOS):
            continue  # boundary tokens are re-added below
        if not token.isalpha():  # a letter is neither punctuation nor a digit
            token = _strip_punctuation(token)
            if any(ch.isdigit() for ch in token):
                continue
        if len(token) <= 1:
            continue
        words.append(token)
    if not words:
        raise EmptyCaptionError(f"caption {raw!r} is empty after cleaning")
    return [SOS, *words, EOS]


def require_clean_word(word: str, path: str | Path, lineno: int, error: type[Exception]) -> None:
    """Raise ``error``, naming ``path:lineno``, unless ``clean_caption`` keeps ``word``
    as it is, as one token: a loaded word that cleaning would change can never
    equal a cleaned token, so its entry would be dead without a word said.

    A lower-case run of two or more letters is kept as it is (every such
    string is its own ``lower()``), which settles a loader's common case
    without cleaning; any other word is cleaned and compared."""
    if len(word) > 1 and word.isalpha() and word.islower():
        return
    try:
        if clean_caption(word) == [SOS, word, EOS]:
            return
    except EmptyCaptionError:
        pass
    raise error(f"{path}:{lineno}: word {word!r} is not a cleaned token, so no caption word can "
                f"equal it: a word is lower case, at least two characters long and holds "
                f"no whitespace, punctuation or digit")


def strip_special_tokens(tokens: list[str]) -> list[str]:
    return [t for t in tokens if t not in (PAD, SOS, EOS, UNK)]


class Vocabulary:
    """Bijective word/index tables with the reserved entries always present.

    ``<pad>`` is index 0; words are indexed densely in first-appearance order.
    """

    def __init__(self, words=()):
        self._word_to_index: dict[str, int] = {}
        self._index_to_word: list[str] = []
        for w in RESERVED:
            self._add(w)
        for w in words:
            self.add(w)

    def _add(self, word: str) -> int:
        idx = self._word_to_index.get(word)
        if idx is None:
            idx = len(self._index_to_word)
            self._word_to_index[word] = idx
            self._index_to_word.append(word)
        return idx

    def add(self, word: str) -> int:
        if not word:
            raise VocabularyError("cannot add an empty word")
        return self._add(word)

    def __len__(self) -> int:
        return len(self._index_to_word)

    def __contains__(self, word: str) -> bool:
        return word in self._word_to_index

    def index(self, word: str) -> int:
        return self._word_to_index.get(word, self._word_to_index[UNK])

    def word(self, index: int) -> str:
        if not 0 <= index < len(self._index_to_word):
            raise VocabularyError(f"index {index} out of range for vocabulary of {len(self)}")
        return self._index_to_word[index]

    @property
    def words(self) -> list[str]:
        return list(self._index_to_word)

    @property
    def pad_index(self) -> int:
        return self._word_to_index[PAD]

    @property
    def sos_index(self) -> int:
        return self._word_to_index[SOS]

    @property
    def eos_index(self) -> int:
        return self._word_to_index[EOS]

    @property
    def unk_index(self) -> int:
        return self._word_to_index[UNK]

    def save(self, path: str | Path) -> None:
        lines = [f"{i}\t{w}\n" for i, w in enumerate(self._index_to_word)]
        atomic.write_bytes(path, "".join(lines).encode("utf-8"))

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        vocab = cls()
        text = atomic.read_text(path, "vocabulary", VocabularyError)
        listed = set()
        for lineno, line in enumerate(text.splitlines(), 1):
            if not line:
                continue
            idx_text, sep, word = line.partition("\t")
            if not sep:
                raise VocabularyError(f"{path}:{lineno}: expected index<TAB>word")
            try:
                idx = int(idx_text)
            except ValueError:
                raise VocabularyError(f"{path}:{lineno}: index {idx_text!r} is not an integer")
            if idx < 0:
                raise VocabularyError(f"{path}:{lineno}: index {idx} is negative")
            if word in listed or (word in vocab and idx >= len(RESERVED)):
                raise VocabularyError(f"{path}:{lineno}: word {word!r} repeats index "
                                      f"{vocab.index(word)}")
            listed.add(word)
            if idx < len(RESERVED):
                if vocab._index_to_word[idx] != word:
                    raise VocabularyError(f"{path}:{lineno}: reserved slot {idx} holds {word!r}")
                continue
            require_clean_word(word, path, lineno, VocabularyError)
            if idx != len(vocab._index_to_word):
                raise VocabularyError(f"{path}:{lineno}: indices must be dense, got {idx}")
            vocab._add(word)
        return vocab

    def sha256(self) -> str:
        """``words_sha256`` of the words in index order."""
        return words_sha256(self._index_to_word)


def words_sha256(words) -> str:
    """Hex SHA-256 of the words, each on its own newline-ended line: the
    digest of a vocabulary and of a subject-verb corpus."""
    return hashlib.sha256("".join(f"{w}\n" for w in words).encode("utf-8")).hexdigest()


def build_vocabulary(captions) -> Vocabulary:
    """Index every distinct token over the captions, in first-appearance order."""
    captions = list(captions)
    if not captions:
        raise VocabularyError("need at least one caption to build a vocabulary")
    vocab = Vocabulary()
    for caption in captions:
        for token in caption:
            if token not in RESERVED:
                vocab.add(token)
    return vocab


def encode(caption: TokenizedCaption, vocab: Vocabulary) -> list[int]:
    """Map tokens to indices; out-of-vocabulary tokens become ``<unk>``."""
    return [vocab.index(t) for t in caption]

