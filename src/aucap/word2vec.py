"""Skip-gram word embeddings with negative sampling.

Single-threaded SGD over (center, context) pairs drawn with a dynamic window,
negatives sampled from the unigram distribution raised to 0.75. Training is
bit-deterministic under a fixed seed; the returned table is the input-side
embedding matrix covering the whole vocabulary.

The training loop is a fused kernel. A sentence's window reaches and
negative draws are taken up front, in the order a per-event loop would take
them from the RNG. Each event then gathers its k+1 output rows (context
first) once, computes their scores with one product, takes every gradient
from the old rows and writes the rows back once. A negative equal to its
context is dropped by pointing it at a zero sink row past the vocabulary.
The loss is not read by training, so it is computed per sentence from the
stored scores after the updates. :func:`sgns_event_loss` and
:func:`sgns_event_grads` state one event's loss and gradients; the tests
check the kernel against a loop built from them.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import embfile
from .errors import ConfigError, VocabularyError, check_finite_loss
from .text import Vocabulary

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Word2VecConfig:
    dim: int = 256
    window: int = 5
    negatives: int = 5
    epochs: int = 15
    learning_rate: float = 0.025
    seed: int = 0

    def __post_init__(self):
        for name, low in (("dim", 1), ("window", 1), ("negatives", 0), ("epochs", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"word2vec {name} must be at least {low}, "
                                  f"got {getattr(self, name)}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(
                f"word2vec learning_rate must be finite and positive, got {self.learning_rate}")


@dataclass
class WordEmbeddingTable:
    """(V, dim) input embeddings aligned with vocabulary indices."""

    matrix: np.ndarray
    epoch_losses: list[float]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def save(self, path: str | Path) -> None:
        embfile.write_matrix(path, self.matrix)

    @classmethod
    def load(cls, path: str | Path, expected_dim: int | None = None) -> "WordEmbeddingTable":
        return cls(matrix=embfile.read_matrix(path, expected_dim=expected_dim), epoch_losses=[])


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def sgns_event_loss(w_in: np.ndarray, w_out: np.ndarray, center: int, context: int,
                    negatives: np.ndarray) -> float:
    """Negative-sampling loss of one training event.

    -ln sigmoid(u_o . v_c) - sum_k ln sigmoid(-u_k . v_c)
    """
    v = w_in[center]
    pos = _sigmoid(w_out[context] @ v)
    loss = -np.log(max(pos, 1e-300))
    for n in negatives:
        loss -= np.log(max(_sigmoid(-(w_out[n] @ v)), 1e-300))
    return float(loss)


def sgns_event_grads(w_in: np.ndarray, w_out: np.ndarray, center: int, context: int,
                     negatives: np.ndarray):
    """Gradients of :func:`sgns_event_loss` wrt the touched rows.

    Returns (g_center, {row_index: g_out_row}); duplicate negative rows
    accumulate.
    """
    v = w_in[center]
    g_center = np.zeros_like(v)
    g_out: dict[int, np.ndarray] = {}

    coeff = _sigmoid(w_out[context] @ v) - 1.0
    g_center += coeff * w_out[context]
    g_out[context] = coeff * v
    for n in negatives:
        coeff = _sigmoid(w_out[n] @ v)
        g_center += coeff * w_out[n]
        g = coeff * v
        if n in g_out:
            g_out[n] = g_out[n] + g
        else:
            g_out[n] = g
    return g_center, g_out


def _noise_distribution(counts: np.ndarray) -> np.ndarray:
    powered = counts.astype(np.float64) ** 0.75
    total = powered.sum()
    if total <= 0:
        raise VocabularyError("corpus has no tokens to build a sampling table from")
    return powered / total


def _sentence_events(sent: np.ndarray, rng: np.random.RandomState, window: int,
                     negatives: int, cumulative: np.ndarray, top: int):
    """Draw one sentence's training events in the per-event loop's RNG order.

    Per center: one window reach, then k uniforms per context. Returns
    (centers, rows, keep, repeats): the center word of each event, its k+1
    output rows (context, then negatives), 1.0 where a row counts and 0.0
    for a negative equal to the context (its row is the sink, index V), and
    whether a kept negative repeats within the event. None if the sentence
    has no event.
    """
    n = len(sent)
    center_pos, context_pos, samples = [], [], []
    for i in range(n):
        reach = rng.randint(1, window + 1)
        span = [j for j in range(max(0, i - reach), min(n, i + reach + 1)) if j != i]
        if span:
            center_pos += [i] * len(span)
            context_pos += span
            samples.append(rng.random_sample(negatives * len(span)))
    if not center_pos:
        return None
    contexts = sent[context_pos]
    # A uniform above the last cumulative value (rounding) belongs to the
    # last word that has a count.
    draws = np.minimum(np.searchsorted(cumulative, np.concatenate(samples)), top)
    draws = draws.reshape(len(contexts), negatives)
    kept = draws != contexts[:, None]
    sink = len(cumulative)
    rows = np.concatenate([contexts[:, None], np.where(kept, draws, sink)], axis=1)
    keep = np.concatenate([np.ones((len(contexts), 1)), kept], axis=1)
    ordered = np.sort(rows[:, 1:], axis=1)
    repeats = ((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] != sink)).any(axis=1)
    return sent[center_pos], rows, keep, repeats


def _sentence_loss(scores: np.ndarray, keep: np.ndarray) -> float:
    """Summed :func:`sgns_event_loss` of events with these (n, k+1) scores."""
    signed = scores.copy()
    signed[:, 1:] *= -1.0
    return float(-(keep * np.log(np.maximum(_sigmoid(signed), 1e-300))).sum())


def train_word2vec(corpus, vocab: Vocabulary, config: Word2VecConfig = Word2VecConfig()
                   ) -> WordEmbeddingTable:
    """Train skip-gram embeddings on tokenized captions.

    ``corpus`` is an iterable of token lists (``<sos>``/``<eos>`` included;
    they receive embeddings like any other word). Deterministic for a fixed
    config seed. Raises :class:`TrainingError` when an epoch's loss is not
    finite.
    """
    sentences = [np.array([vocab.index(t) for t in caption], dtype=np.int64)
                 for caption in corpus]
    if not sentences:
        raise VocabularyError("corpus is empty")
    v_size = len(vocab)
    counts = np.bincount(np.concatenate(sentences), minlength=v_size)
    noise = _noise_distribution(counts)
    cumulative = np.cumsum(noise)
    top = int(np.flatnonzero(counts)[-1])

    rng = np.random.RandomState(config.seed)
    w_in = rng.uniform(-0.5 / config.dim, 0.5 / config.dim, size=(v_size, config.dim))
    w_out = np.zeros((v_size + 1, config.dim))  # row v_size: sink of dropped negatives

    lr = config.learning_rate
    epoch_losses: list[float] = []
    # exp overflows harmlessly for large |score|; a diverging run raises
    # TrainingError below instead of warning on every event.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            total, events = 0.0, 0
            for sent in sentences:
                drawn = _sentence_events(sent, rng, config.window, config.negatives,
                                         cumulative, top)
                if drawn is None:
                    continue
                centers, rows, keep, repeats = drawn
                scores = np.empty(rows.shape)
                for center, r, lr_keep, repeat, s in zip(centers.tolist(), rows, lr * keep,
                                                          repeats.tolist(), scores):
                    v = w_in[center]
                    u = w_out.take(r, axis=0)
                    np.matmul(u, v, out=s)
                    a = lr_keep / (1.0 + np.exp(-s))
                    a[0] -= lr
                    g_out = a[:, None] * v
                    v -= a @ u
                    if repeat:
                        np.subtract.at(w_out, r, g_out)
                    else:
                        u -= g_out
                        w_out[r] = u
                total += _sentence_loss(scores, keep)
                events += len(centers)
            epoch_losses.append(total / max(events, 1))
            check_finite_loss(epoch_losses[-1], f"word2vec epoch {epoch + 1}")
            log.debug("word2vec epoch %d loss %.4f", epoch + 1, epoch_losses[-1])
    return WordEmbeddingTable(matrix=w_in, epoch_losses=epoch_losses)
