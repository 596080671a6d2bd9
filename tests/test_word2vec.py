import warnings

import numpy as np
import pytest

from aucap.errors import ConfigError, TrainingError
from aucap.text import build_vocabulary, clean_caption
from aucap.word2vec import (
    Word2VecConfig,
    WordEmbeddingTable,
    sgns_event_grads,
    sgns_event_loss,
    train_word2vec,
)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(a @ b / (na * nb))


def toy_corpus():
    lines = [
        "the cat eats fresh food daily",
        "the feline eats fresh food daily",
        "the cat drinks cold water",
        "the feline drinks cold water",
        "loud trucks rumble across town",
        "quiet snow settles over rooftops",
        "children laugh near the old fountain",
    ]
    return [clean_caption(t) for t in lines for _ in range(8)]


class TestTraining:
    def test_degenerate_single_word(self):
        corpus = [clean_caption("dog dog")]
        vocab = build_vocabulary(corpus)
        table = train_word2vec(corpus, vocab, Word2VecConfig(dim=16, epochs=2, seed=1))
        assert np.all(np.isfinite(table.matrix))
        assert all(np.isfinite(v) for v in table.epoch_losses)

    def test_deterministic(self):
        corpus = toy_corpus()
        vocab = build_vocabulary(corpus)
        cfg = Word2VecConfig(dim=24, epochs=2, seed=7)
        a = train_word2vec(corpus, vocab, cfg)
        b = train_word2vec(corpus, vocab, cfg)
        assert np.array_equal(a.matrix, b.matrix)

    def test_shared_contexts_converge(self):
        # "cat" and "feline" appear in identical contexts
        corpus = toy_corpus()
        vocab = build_vocabulary(corpus)
        table = train_word2vec(corpus, vocab, Word2VecConfig(dim=32, epochs=20, seed=3))
        cat = table.matrix[vocab.index("cat")]
        feline = table.matrix[vocab.index("feline")]
        unrelated = table.matrix[vocab.index("rooftops")]
        assert cosine(cat, feline) > cosine(cat, unrelated)

    def test_matrix_covers_vocabulary(self):
        corpus = toy_corpus()
        vocab = build_vocabulary(corpus)
        table = train_word2vec(corpus, vocab, Word2VecConfig(dim=8, epochs=1, seed=0))
        assert table.matrix.shape == (len(vocab), 8)

    def test_save_load_round_trip(self, tmp_path):
        corpus = toy_corpus()
        vocab = build_vocabulary(corpus)
        table = train_word2vec(corpus, vocab, Word2VecConfig(dim=8, epochs=1, seed=0))
        table.save(tmp_path / "emb.emb")
        loaded = WordEmbeddingTable.load(tmp_path / "emb.emb", expected_dim=8)
        assert np.allclose(loaded.matrix, table.matrix, atol=1e-7)  # float32 container


class TestGradients:
    def test_matches_finite_differences(self):
        # 5-word toy vocabulary, every touched row checked coordinate-wise
        rng = np.random.RandomState(0)
        dim = 6
        w_in = rng.standard_normal((5, dim)) * 0.3
        w_out = rng.standard_normal((5, dim)) * 0.3
        center, context = 1, 3
        negatives = np.array([0, 2, 2, 4])

        g_center, g_out = sgns_event_grads(w_in, w_out, center, context, negatives)
        delta = 1e-6

        def loss():
            return sgns_event_loss(w_in, w_out, center, context, negatives)

        for d in range(dim):
            keep = w_in[center, d]
            w_in[center, d] = keep + delta
            hi = loss()
            w_in[center, d] = keep - delta
            lo = loss()
            w_in[center, d] = keep
            numeric = (hi - lo) / (2 * delta)
            assert abs(numeric - g_center[d]) / max(abs(numeric), abs(g_center[d]), 1e-8) < 1e-5

        for row, grad in g_out.items():
            for d in range(dim):
                keep = w_out[row, d]
                w_out[row, d] = keep + delta
                hi = loss()
                w_out[row, d] = keep - delta
                lo = loss()
                w_out[row, d] = keep
                numeric = (hi - lo) / (2 * delta)
                assert abs(numeric - grad[d]) / max(abs(numeric), abs(grad[d]), 1e-8) < 1e-5


def per_event_reference(corpus, vocab, config):
    """The per-event training loop the fused kernel replaces.

    Same RNG calls in the same order (one window reach per center, k uniforms
    per context), gradients from sgns_event_grads applied row by row. Also
    counts events with a repeated negative and negatives equal to the context.
    """
    sentences = [[vocab.index(t) for t in caption] for caption in corpus]
    counts = np.zeros(len(vocab), dtype=np.int64)
    for sent in sentences:
        for idx in sent:
            counts[idx] += 1
    cumulative = np.cumsum(counts ** 0.75 / (counts ** 0.75).sum())
    rng = np.random.RandomState(config.seed)
    w_in = rng.uniform(-0.5 / config.dim, 0.5 / config.dim, size=(len(vocab), config.dim))
    w_out = np.zeros((len(vocab), config.dim))
    lr = config.learning_rate
    losses, repeated, dropped = [], 0, 0
    for _ in range(config.epochs):
        total, events = 0.0, 0
        for sent in sentences:
            for i, center in enumerate(sent):
                reach = rng.randint(1, config.window + 1)
                for j in range(max(0, i - reach), min(len(sent), i + reach + 1)):
                    if j == i:
                        continue
                    context = sent[j]
                    draws = np.searchsorted(cumulative, rng.random_sample(config.negatives))
                    negatives = draws[draws != context]
                    dropped += len(draws) - len(negatives)
                    repeated += len(set(negatives.tolist())) < len(negatives)
                    total += sgns_event_loss(w_in, w_out, center, context, negatives)
                    events += 1
                    g_center, g_out = sgns_event_grads(w_in, w_out, center, context, negatives)
                    w_in[center] -= lr * g_center
                    for row, g in g_out.items():
                        w_out[row] -= lr * g
        losses.append(total / max(events, 1))
    return w_in, losses, repeated, dropped


def small_vocabulary_corpus():
    # six words, so negatives often repeat and often hit the context; one
    # single-token sentence has a center without any context
    rng = np.random.RandomState(5)
    words = ["bell", "rain", "dog", "car", "wind", "door"]
    corpus = [clean_caption(" ".join(rng.choice(words, rng.randint(2, 7)))) for _ in range(30)]
    return corpus + [["bell"]]


class TestFusedKernel:
    @pytest.mark.parametrize("overrides", [
        {},
        {"negatives": 0},
        {"window": 12},  # wider than every sentence (at most 8 tokens)
        {"negatives": 9, "learning_rate": 0.1},
    ])
    def test_matches_per_event_loop(self, overrides):
        corpus = small_vocabulary_corpus()
        vocab = build_vocabulary(corpus)
        config = Word2VecConfig(**{"dim": 16, "epochs": 3, "seed": 11, **overrides})
        want, want_losses, repeated, dropped = per_event_reference(corpus, vocab, config)
        if config.negatives > 1:
            assert repeated > 0 and dropped > 0  # both write-back paths ran
        got = train_word2vec(corpus, vocab, config)
        assert got.matrix.shape == want.shape
        assert np.abs(got.matrix - want).max() <= 1e-12 * np.abs(want).max()
        assert np.allclose(got.epoch_losses, want_losses, rtol=1e-12, atol=0)

    def test_overflowing_scores_raise_no_warning(self):
        # at this rate some scores pass -709, where exp(-s) overflows to inf
        # and the sigmoid is exactly 0, while the run itself stays finite
        corpus = toy_corpus()
        vocab = build_vocabulary(corpus)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = train_word2vec(corpus, vocab,
                                   Word2VecConfig(dim=16, epochs=3, learning_rate=1.0))
        assert np.all(np.isfinite(table.matrix))
        assert all(np.isfinite(table.epoch_losses))

    def test_uniform_above_last_cumulative_value_draws_last_counted_word(self, monkeypatch):
        # the toy corpus's noise cumsum ends at 1 - 1e-15; a uniform above it
        # must draw the last word that has a count, as a uniform equal to it does
        corpus = toy_corpus()
        vocab = build_vocabulary(corpus)
        counts = np.bincount([vocab.index(t) for s in corpus for t in s], minlength=len(vocab))
        last = np.cumsum(counts ** 0.75 / (counts ** 0.75).sum())[-1]
        assert last < np.nextafter(1.0, 0.0)

        def train_with_uniforms(value):
            class FixedUniforms(np.random.RandomState):
                def random_sample(self, size=None):
                    return np.full(size, value)

            with monkeypatch.context() as m:
                m.setattr(np.random, "RandomState", FixedUniforms)
                return train_word2vec(corpus, vocab, Word2VecConfig(dim=8, epochs=1)).matrix

        assert np.array_equal(train_with_uniforms(np.nextafter(1.0, 0.0)),
                              train_with_uniforms(last))


class TestConfig:
    @pytest.mark.parametrize("overrides", [
        {"dim": 0}, {"window": 0}, {"negatives": -1}, {"epochs": -1},
        {"learning_rate": 0.0}, {"learning_rate": -0.1},
        {"learning_rate": float("nan")}, {"learning_rate": float("inf")},
    ])
    def test_bad_setting_raises_config_error(self, overrides):
        name = next(iter(overrides))
        with pytest.raises(ConfigError, match=name):
            Word2VecConfig(**overrides)

    def test_smallest_settings_train(self):
        corpus = toy_corpus()
        vocab = build_vocabulary(corpus)
        table = train_word2vec(corpus, vocab,
                               Word2VecConfig(dim=1, window=1, negatives=0, epochs=1))
        assert table.matrix.shape == (len(vocab), 1)
        assert train_word2vec(corpus, vocab, Word2VecConfig(dim=4, epochs=0)).epoch_losses == []

    def test_diverging_run_raises_training_error(self):
        corpus = toy_corpus()
        vocab = build_vocabulary(corpus)
        with pytest.raises(TrainingError, match="word2vec epoch 1"):
            train_word2vec(corpus, vocab, Word2VecConfig(dim=8, epochs=3, learning_rate=1e300))
