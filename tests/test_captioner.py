import re

import numpy as np
import pytest

from aucap.captioner import (
    Captioner,
    CaptionerCheckpoint,
    CaptionerConfig,
    _batch_arrays,
    _clip_batches,
    _dataset_loss,
    _encode_captions,
    build_encoder_input,
    train_captioner,
)
from aucap import atomic, captioner, mlp
from aucap.errors import CheckpointError, ConfigError, ShapeError, TrainingError
from aucap.nn import tensor as T
from aucap.nn.checkpoint import load_tensors
from aucap.nn.layers import BN_MOMENTUM, GRU, BiGRU, Dense, Embedding, GRUCellParams, GRUStep
from aucap.nn.optim import AdamState, adam_step
from aucap.text import EOS, PAD, SOS, UNK, Vocabulary, build_vocabulary, clean_caption
from conftest import CAPTIONER_META_DEFECTS, no_random_draws, with_meta
from gradcheck import at_float64, cast, dense_grad, graph_nodes, zero_grads
from memory import peak_bytes


def micro_config(**overrides):
    base = dict(variant="logmel", audio_dim=8, sve_dim=0, bigru1=4, bigru2=4,
                text_gru=8, decoder_gru=8, embed_dim=8, dropout=0.0,
                epochs=3, batch_size=8, seed=0)
    base.update(overrides)
    return CaptionerConfig(**base)


def micro_model(vocab_size=12, **overrides):
    cfg = micro_config(**overrides)
    return Captioner(vocab_size, cfg, np.random.RandomState(cfg.seed)), cfg


def last_columns(prefix):
    """``positions`` naming one example per row of ``prefix``: the row at full length."""
    batch, length = np.shape(prefix)
    return np.full(batch, length - 1), np.arange(batch)


def own_clips(prefix):
    """``clip_of_caption`` of one audio row per row of ``prefix``: caption i of clip i."""
    return np.arange(len(prefix))


def recorded_steps(monkeypatch, holds=False):
    """A list that gets a copy of the logits of each token a greedy decode
    steps, or with ``holds`` those logits and every array the token loop
    holds (``captioner._TokenSteps``)."""
    seen = []
    call = captioner._TokenSteps.__call__

    def arrays(value):
        if isinstance(value, np.ndarray):
            return [value]
        if isinstance(value, (tuple, list)):
            return [a for v in value for a in arrays(v)]
        if isinstance(value, GRUStep):
            return arrays(list(vars(value).values()))
        return []

    def recording(self, token):
        logits = call(self, token)
        seen.append([logits.copy(), *arrays(list(vars(self).values()))] if holds
                    else logits.copy())
        return logits

    monkeypatch.setattr(captioner._TokenSteps, "__call__", recording)
    return seen


class TestBuildEncoderInput:
    def test_panns_concatenation(self):
        out = build_encoder_input(np.zeros((1, 2048)), np.ones(100), "panns")
        assert out.shape == (1, 2148)
        assert np.all(out[0, 2048:] == 1.0)

    def test_one_dimensional_features_rejected(self):
        with pytest.raises(ShapeError, match="2-D or a 3-D stack"):
            build_encoder_input(np.zeros(2048), np.ones(100), "panns")

    def test_logmel_tiling(self):
        out = build_encoder_input(np.zeros((624, 64)), np.arange(100.0), "logmel")
        assert out.shape == (624, 164)
        assert np.array_equal(out[17, 64:], np.arange(100.0))

    def test_no_sve_unchanged(self):
        audio = np.random.RandomState(0).standard_normal((10, 64)).astype(np.float32)
        out = build_encoder_input(audio, None, "logmel")
        assert np.array_equal(out, audio)

    @pytest.mark.parametrize("sve", [None, np.array([0.0, 1.0, 0.25])])
    def test_builds_a_new_float32_array(self, sve):
        audio = np.random.RandomState(1).standard_normal((4, 64))
        out = build_encoder_input(audio, sve, "logmel")
        assert out.dtype == np.float32 and np.array_equal(out[:, :64], audio.astype(np.float32))
        stored = audio.astype(np.float32)
        stored.flags.writeable = False  # as embfile reads it
        again = build_encoder_input(stored, sve, "logmel")
        assert np.array_equal(again, out) and not np.shares_memory(again, stored)

    def test_stack_joins_each_clip_with_its_own_sve(self):
        rng = np.random.RandomState(2)
        audio, sves = rng.standard_normal((3, 5, 8)), rng.standard_normal((3, 4))
        out = build_encoder_input(audio, sves, "logmel")
        assert out.shape == (3, 5, 12) and out.dtype == np.float32
        assert np.array_equal(out, np.stack([build_encoder_input(a, s, "logmel")
                                             for a, s in zip(audio, sves)]))
        assert np.array_equal(build_encoder_input(audio, None, "logmel"),
                              audio.astype(np.float32))

    @pytest.mark.parametrize("audio,sve", [((5, 8), (3, 4)), ((3, 5, 8), (4,)),
                                           ((3, 5, 8), (2, 4)), ((5, 8), ())])
    def test_sve_rows_must_match_the_clips(self, audio, sve):
        with pytest.raises(ShapeError, match="SVE of shape"):
            build_encoder_input(np.zeros(audio), np.zeros(sve), "logmel")

    def test_panns_multi_row_rejected(self):
        with pytest.raises(ShapeError):
            build_encoder_input(np.zeros((2, 2048)), None, "panns")

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            build_encoder_input(np.zeros((1, 8)), None, "mfcc")


def batch_examples(captions, batches):
    """(clip_id, prefix, target) per example of the caption batches, as
    ``_batch_arrays`` lays them out; each caption's audio row is its clip's."""
    clip_ids = list(dict.fromkeys(clip_id for clip_id, _ in captions))
    features = {clip_id: np.full((1, 2), i) for i, clip_id in enumerate(clip_ids)}
    out = []
    for batch in batches:
        chosen = [captions[i] for i in batch]
        audio, prefix, (steps, rows), targets, clip_of_caption = _batch_arrays(
            chosen, features, None, "logmel")
        assert len(audio) == len({clip_id for clip_id, _ in chosen})  # each clip once
        for (clip_id, _), clip_row in zip(chosen, clip_of_caption):
            assert np.array_equal(audio[clip_row], features[clip_id])
        for step, row, target in zip(steps, rows, targets):
            assert step + 1 < len(chosen[row][1])  # prefix and target within the caption
            out.append((chosen[row][0], tuple(prefix[row, : step + 1].tolist()), int(target)))
    return out


class TestPrefixExpansion:
    """Caption batches hold every (prefix -> next word) example once."""

    def test_six_token_caption(self):
        captions = [("c", [1, 5, 6, 7, 8, 2])]
        assert len(batch_examples(captions, [[0]])) == 5

    def test_pairs_content(self):
        examples = batch_examples([("c", [1, 5, 2])], [[0]])
        assert [(prefix, target) for _, prefix, target in examples] == [((1,), 5), ((1, 5), 2)]

    @pytest.mark.parametrize("per_clip", [1, 5])
    def test_counts_match_brute_force(self, per_clip):
        rng = np.random.RandomState(1)
        captions = [(f"c{j // per_clip}", [1, *rng.randint(4, 10, rng.randint(1, 9)).tolist(), 2])
                    for j in range(40)]
        brute = [(clip_id, tuple(ids[:i]), ids[i])
                 for clip_id, ids in captions for i in range(1, len(ids))]
        assert len(brute) == sum(len(ids) - 1 for _, ids in captions)
        for batch_size in (1, 8, 64, 1000):
            batches = _clip_batches(captions, rng.permutation(40 // per_clip), batch_size)
            assert sorted(batch_examples(captions, batches)) == sorted(brute)

    def test_too_short_rejected(self):
        vocab = build_vocabulary([clean_caption("dog barks")])
        with pytest.raises(ShapeError):
            _encode_captions([("c", [SOS])], vocab)
        with pytest.raises(ShapeError, match="does not start"):
            _encode_captions([("c", ["dog", EOS])], vocab)


def one_per_clip(lengths):
    """One caption of each token length, each of its own clip."""
    return [(f"c{i}", [1] * n) for i, n in enumerate(lengths)]


class TestClipBatches:
    @pytest.mark.parametrize("batch_size", [1, 5, 16, 64, 500])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_caption_per_clip_packs_captions_in_order(self, batch_size, seed):
        """With one caption per clip, the batches are those of packing the
        captions themselves in ``order``."""
        rng = np.random.RandomState(seed)
        lengths = rng.randint(2, 20, size=rng.randint(2, 60)).tolist()
        order = rng.permutation(len(lengths))
        batches = _clip_batches(one_per_clip(lengths), order, batch_size)
        assert sorted(i for b in batches for i in b) == list(range(len(lengths)))
        assert [i for b in batches for i in b] == order.tolist()  # packed in order
        assert all(len(b) >= 2 for b in batches)
        # every batch but the last reaches the example budget
        assert all(sum(lengths[i] - 1 for i in b) >= batch_size for b in batches[:-1])

    def test_trailing_single_clip_joins_previous(self):
        assert _clip_batches(one_per_clip([5, 5, 5]), range(3), 8) == [[0, 1, 2]]
        assert _clip_batches(one_per_clip([5, 5, 5, 5]), range(4), 8) == [[0, 1], [2, 3]]
        assert _clip_batches(one_per_clip([5]), range(1), 8) == [[0]]
        captions = [("a", [1] * 5), ("b", [1] * 5), ("b", [1] * 5), ("b", [1] * 5)]
        assert _clip_batches(captions, range(2), 8) == [[0, 1, 2, 3]]  # b's rest joins

    def test_clips_in_order_their_captions_in_file_order(self):
        captions = [("a", [1] * 3), ("b", [1] * 3), ("a", [1] * 3), ("c", [1] * 3),
                    ("b", [1] * 3)]
        assert _clip_batches(captions, [2, 0, 1], 4) == [[3, 0], [2, 1, 4]]  # a's rest starts
        assert _clip_batches(captions, [1, 2, 0], 1) == [[1, 4, 3, 0, 2]]  # a alone joins

    @pytest.mark.parametrize("batch_size", [1, 7, 16, 64, 500])
    @pytest.mark.parametrize("per_clip", [1, 2, 5, "mixed"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_clip_grouping_invariants(self, batch_size, per_clip, seed):
        rng = np.random.RandomState(seed)
        clips = rng.randint(1, 40)
        counts = rng.randint(1, 7, size=clips) if per_clip == "mixed" else [per_clip] * clips
        captions = [(f"c{c}", [1] * rng.randint(2, 20)) for c in range(clips)
                    for _ in range(counts[c])]
        rng.shuffle(captions)  # a clip's captions need not be adjacent in the file
        first_seen = list(dict.fromkeys(clip_id for clip_id, _ in captions))
        order = rng.permutation(clips)
        batches = _clip_batches(captions, order, batch_size)
        flat = [i for b in batches for i in b]
        assert sorted(flat) == list(range(len(captions)))  # every caption once per epoch
        in_clip_order = [i for c in order for i, (clip_id, _) in enumerate(captions)
                         if clip_id == first_seen[c]]
        assert flat == in_clip_order  # consecutive per clip, in file order, clips in order
        examples = [sum(len(captions[i][1]) - 1 for i in b) for b in batches]
        assert all(n >= batch_size for n in examples[:-1])
        per_batch = [{captions[i][0] for i in b} for b in batches]
        assert all(len(held) >= 2 for held in per_batch) or clips < 2
        for clip_id in first_seen:
            spans = [k for k, held in enumerate(per_batch) if clip_id in held]
            assert spans == list(range(spans[0], spans[0] + len(spans))) and len(spans) <= 2

    def test_one_audio_pass_per_clip_in_training(self, monkeypatch):
        """Each audio BiGRU pass of a train step runs one row per distinct clip
        of the batch, here with two captions per clip.

        Also the order the benchmark's tracer relies on: it wraps these
        module attributes, so training must look each up through its module.
        A train step opens with ``_batch_arrays`` and closes with that module's
        ``adam_step``, and ``_dataset_loss`` is one validation pass per epoch."""
        captions = [clean_caption(t) for t in
                    ["dog barks loudly near the old house", "man speaks", "rain falls down",
                     "a car passes by quickly", "birds sing", "water runs"]]
        vocab = build_vocabulary(captions)
        rng = np.random.RandomState(0)
        feats = {f"c{i}": rng.standard_normal((5, 8)) for i in range(len(captions) // 2)}
        pairs = [(f"c{i // 2}", c) for i, c in enumerate(captions)]
        steps, audio_rows, events, in_val = [], [], [], []
        batch_arrays, run = captioner._batch_arrays, BiGRU.run
        dataset_loss, adam_step = captioner._dataset_loss, captioner.adam_step

        def recording_batch(chosen, *args):
            if not in_val:
                steps.append([clip_id for clip_id, _ in chosen])
                events.append("b")
            return batch_arrays(chosen, *args)

        def recording_run(self, xs, *args, **kwargs):
            if not in_val:
                audio_rows.append(xs.data.shape[1])
            return run(self, xs, *args, **kwargs)

        def recording_val(*args):
            events.append("v")
            in_val.append(True)
            try:
                return dataset_loss(*args)
            finally:
                in_val.pop()

        monkeypatch.setattr(captioner, "_batch_arrays", recording_batch)
        monkeypatch.setattr(BiGRU, "run", recording_run)
        monkeypatch.setattr(captioner, "_dataset_loss", recording_val)
        monkeypatch.setattr(captioner, "adam_step", lambda *a: events.append("u") or adam_step(*a))
        monkeypatch.setattr(mlp, "adam_step", lambda *a: events.append("m") or adam_step(*a))
        train_captioner(pairs, feats, None, vocab, micro_config(epochs=2, dropout=0.5),
                        val_pairs=pairs[:2])
        assert re.fullmatch(r"((bu)+v){2}", "".join(events))
        assert len(steps) >= 4  # 2 epochs of at least 2 batches
        assert audio_rows == [len(set(clips)) for clips in steps for _ in range(2)]
        assert sum(audio_rows) < 2 * sum(len(clips) for clips in steps)
        per_epoch = sum(len(clips) for clips in steps) // 2
        assert per_epoch == len(pairs)

        events.clear()
        x = rng.standard_normal((10, 3))
        config = mlp.MLPConfig(input_dim=3, output_dim=2, hidden_widths=(4,), epochs=2,
                               batch_size=4)
        mlp.train_mlp(x, (x[:, :2] > 0).astype(float), config, x, (x[:, :2] > 0).astype(float))
        assert events == ["m"] * 6  # 2 epochs of 3 batches


class TestEncodeDecode:
    def test_fused_width(self):
        model, cfg = micro_model()
        assert cfg.fused_dim == 2 * cfg.bigru2 + cfg.text_gru
        fused = model.encode(np.zeros((2, 5, 8)), np.array([[1], [1]]), ([0, 0], [0, 1]),
                             mode="train", clip_of_caption=[0, 1])
        assert fused.data.shape == (2, cfg.fused_dim)

    def test_default_widths_match_paper_sizes(self):
        cfg = CaptionerConfig()
        assert (cfg.bigru1, cfg.bigru2, cfg.text_gru, cfg.decoder_gru) == (32, 64, 128, 128)
        assert cfg.fused_dim == 256
        assert cfg.embed_dim == 256

    @pytest.mark.parametrize("field, value", [
        ("embed_dim", 0), ("bigru1", 0), ("bigru2", -1), ("text_gru", 0), ("decoder_gru", 0),
        ("sve_dim", -1), ("audio_dim", 0), ("max_len", 1), ("max_len", 0)])
    def test_unusable_width_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"CaptionerConfig {field} must be at least"):
            micro_config(**{field: value})

    def test_decoder_keeps_the_input_columns_of_a_drawn_gru_cell(self):
        """The decoder takes the draws of a whole GRU cell, keeps W_z's and W's
        input columns and zero biases, and leaves the stream where that cell
        would: dec.out draws on as after the cell."""
        model, cfg = micro_model(sve_dim=3)
        rng = np.random.RandomState(cfg.seed)
        BiGRU(cfg.encoder_input_dim, cfg.bigru1, rng)
        BiGRU(2 * cfg.bigru1, cfg.bigru2, rng)
        Embedding(12, cfg.embed_dim, rng)
        GRU(cfg.embed_dim, cfg.text_gru, rng)
        cell = GRUCellParams.stacked(cfg.fused_dim, cfg.decoder_gru, rng, ("dec",))[0]
        h = cfg.decoder_gru
        for kept, drawn in ((model.dec_W_z, cell.W_z), (model.dec_W, cell.W)):
            assert kept.data.dtype == np.float32 and kept.data.flags.c_contiguous
            assert np.array_equal(kept.data, drawn.data[:, h:])
        for b in (model.dec_b_z, model.dec_b):
            assert b.data.dtype == np.float32 and np.array_equal(b.data, np.zeros(h))
        assert np.array_equal(model.out.weights.data, Dense(h, 12, rng).weights.data)

    def test_smallest_usable_widths_accepted(self):
        cfg = micro_config(embed_dim=1, bigru1=1, bigru2=1, text_gru=1, decoder_gru=1,
                           sve_dim=0, audio_dim=1, max_len=2)
        assert cfg.fused_dim == 3 and micro_config(audio_dim=None).feature_dim == 64

    def test_sos_only_prefix_valid(self):
        model, _ = micro_model()
        probs = model.forward(np.zeros((2, 4, 8)), np.array([[1], [1]]), ([0, 0], [0, 1]),
                              mode="infer", clip_of_caption=[0, 1])
        assert probs.data.shape == (2, 12)

    def test_zero_weights_fused_is_shift(self):
        model, cfg = micro_model()
        for p in model.parameters():
            p.data[...] = 0.0
        model.bn_audio2.beta.data[...] = 0.25
        model.bn_text.beta.data[...] = -0.5
        fused = model.encode(np.zeros((2, 3, 8)), np.array([[1], [1]]), ([0, 0], [0, 1]),
                             mode="train", clip_of_caption=[0, 1])
        expected = np.concatenate([np.full(2 * cfg.bigru2, 0.25), np.full(cfg.text_gru, -0.5)])
        assert np.allclose(fused.data, expected[None, :])

    def test_decode_gives_float32_logits(self):
        model, _ = micro_model()
        rng = np.random.RandomState(2)
        prefix = np.array([[1, 5], [1, 6], [1, 7]])
        logits = model.forward(rng.standard_normal((3, 4, 8)), prefix, last_columns(prefix),
                               mode="infer", clip_of_caption=own_clips(prefix))
        assert logits.data.shape == (3, 12) and logits.data.dtype == np.float32
        assert np.allclose(T.softmax(logits).data.sum(axis=1), 1.0, atol=1e-6)
        assert (logits.data < 0).any()  # not probabilities

    def test_last_column_positions_match_each_row_alone(self):
        model, _ = micro_model()
        rng = np.random.RandomState(4)
        audio = rng.standard_normal((3, 4, 8))
        prefix = np.array([[1, 5, 6], [1, 7, 5], [1, 6, 6]])
        batched = model.forward(audio, prefix, positions=([2, 2, 2], [0, 1, 2]),
                                mode="infer", clip_of_caption=own_clips(prefix)).data
        alone = [model.forward(audio[i : i + 1], prefix[i : i + 1], positions=([2], [0]),
                               mode="infer", clip_of_caption=[0]).data[0] for i in range(3)]
        # float32: a row of a many-row product may round apart from the row alone
        assert np.allclose(batched, alone, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("positions", [([0, 3], [0, 1]), ([0, 1], [0, 2]),
                                           ([-1], [0]), ([0, 1], [0]), ([], [])])
    def test_positions_outside_the_prefix_matrix_rejected(self, positions):
        model, _ = micro_model()
        with pytest.raises(ShapeError, match="positions"):
            model.forward(np.zeros((2, 4, 8)), np.ones((2, 3), dtype=int), mode="infer",
                          positions=positions, clip_of_caption=[0, 1])

    def test_clip_rows_match_repeated_rows_in_infer_mode(self):
        """A caption reads its clip's audio row: in infer mode, the same logits
        as one audio row per caption."""
        model, _ = micro_model()
        rng = np.random.RandomState(5)
        audio, prefix = rng.standard_normal((2, 4, 8)), rng.randint(1, 12, size=(3, 3))
        clip_of_caption = np.array([1, 0, 1])
        positions = np.nonzero(np.ones(prefix.shape).T)
        grouped = model.forward(audio, prefix, positions, "infer", clip_of_caption=clip_of_caption)
        repeated = model.forward(audio[clip_of_caption], prefix, positions, "infer",
                                 clip_of_caption=own_clips(prefix))
        assert np.allclose(grouped.data, repeated.data, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("clip_of_caption", [[0, 2], [-1, 0], [0], [0, 1, 1]])
    def test_clip_rows_outside_the_audio_batch_rejected(self, clip_of_caption):
        model, _ = micro_model()
        with pytest.raises(ShapeError, match="clip of each caption"):
            model.forward(np.zeros((2, 4, 8)), np.ones((2, 3), dtype=int), ([0, 1], [0, 1]),
                          "infer", clip_of_caption=clip_of_caption)

    def test_infer_deterministic(self):
        model, _ = micro_model()
        rng = np.random.RandomState(3)
        audio = rng.standard_normal((2, 4, 8))
        prefix = np.array([[1, 5], [1, 6]])
        a = model.forward(audio, prefix, last_columns(prefix), mode="infer",
                          clip_of_caption=own_clips(prefix)).data
        b = model.forward(audio, prefix, last_columns(prefix), mode="infer",
                          clip_of_caption=own_clips(prefix)).data
        assert np.array_equal(a, b)


class TestGreedyDecode:
    def test_eos_dominant_model_stops_immediately(self):
        vocab = build_vocabulary([[SOS, "dog", EOS]])
        model, _ = micro_model(vocab_size=len(vocab))
        for p in model.parameters():
            p.data[...] = 0.0
        model.out.bias.data[vocab.eos_index] = 10.0
        tokens = model.greedy_decode(np.zeros((3, 8)), vocab)
        assert tokens == [SOS, EOS]

    def test_length_cap(self):
        vocab = build_vocabulary([[SOS, "dog", EOS]])
        model, _ = micro_model(vocab_size=len(vocab))
        for p in model.parameters():
            p.data[...] = 0.0
        model.out.bias.data[vocab.index("dog")] = 10.0  # never emits <eos>
        tokens = model.greedy_decode(np.zeros((3, 8)), vocab, max_len=7)
        assert len(tokens) == 7
        assert tokens == [SOS] + ["dog"] * 6

    def test_tie_breaks_to_lowest_index(self):
        vocab = build_vocabulary([[SOS, "dog", EOS]])
        model, _ = micro_model(vocab_size=len(vocab))
        for p in model.parameters():
            p.data[...] = 0.0  # uniform distribution: all logits equal
        tokens = model.greedy_decode(np.zeros((3, 8)), vocab, max_len=3)
        # <pad> (index 0) and <sos> are not allowed; <eos> is the lowest index left
        assert vocab.eos_index < vocab.index("dog")
        assert tokens == [SOS, EOS]

    @pytest.mark.parametrize("reserved", [PAD, SOS, UNK])
    def test_reserved_tokens_never_emitted(self, reserved):
        vocab = build_vocabulary([[SOS, "dog", EOS]])
        model, _ = micro_model(vocab_size=len(vocab))
        for p in model.parameters():
            p.data[...] = 0.0
        model.out.bias.data[vocab.index(reserved)] = 10.0  # the largest logit
        model.out.bias.data[vocab.index("dog")] = 1.0
        tokens = model.greedy_decode(np.zeros((3, 8)), vocab, max_len=5)
        assert tokens == [SOS] + ["dog"] * 4


class TestIncrementalDecode:
    """greedy_decode encodes the audio once and steps the text GRU per token;
    every step must reproduce ``forward`` on the whole prefix bit for bit."""

    @staticmethod
    def _decoding_model(vocab, seed=7, **overrides):
        model, cfg = micro_model(vocab_size=len(vocab), **overrides)
        rng = np.random.RandomState(seed)
        for bn in model._batch_norms():
            # raw EMA buffers after 9 updates whose bias-corrected statistics
            # are mean ~N(0, 1) and variance in [0.5, 2]
            bn.steps = 9
            start_share = BN_MOMENTUM ** bn.steps
            bn.running_mean = (1.0 - start_share) * rng.standard_normal(bn.running_mean.shape)
            bn.running_var = start_share + (1.0 - start_share) * rng.uniform(
                0.5, 2.0, bn.running_var.shape)
            bn.gamma.data = rng.uniform(0.5, 1.5, bn.gamma.data.shape)
            bn.beta.data = rng.standard_normal(bn.beta.data.shape)
        model.out.bias.data[vocab.eos_index] = -50.0  # decode up to the length cap
        cast(model.parameters(), np.float32)  # the batch-norm draws above are float64
        return model, cfg, rng

    def _check_steps_against_forward(self, monkeypatch, variant, frames, sve_dim, width):
        vocab = build_vocabulary([clean_caption("dog barks loudly outside")])
        model, cfg, rng = self._decoding_model(vocab, variant=variant, sve_dim=sve_dim)
        cast(model.parameters(), width)
        sve = rng.randint(0, 2, sve_dim).astype(float) if sve_dim else None
        enc = build_encoder_input(rng.standard_normal((frames, cfg.feature_dim)), sve, variant)

        steps = recorded_steps(monkeypatch)
        tokens = model.greedy_decode(enc, vocab, max_len=7)

        assert len(steps) == len(tokens) - 1 == 6
        indices = [vocab.index(t) for t in tokens]
        for i, logits in enumerate(steps):
            prefix = np.array([indices[: i + 1]])
            full = model.forward(enc[None], prefix, last_columns(prefix), mode="infer",
                                 clip_of_caption=[0])
            assert logits.dtype == full.data.dtype == width
            assert np.array_equal(logits, full.data)
            words_and_eos = full.data[0].copy()
            words_and_eos[[vocab.pad_index, vocab.sos_index, vocab.unk_index]] = -np.inf
            assert indices[i + 1] == int(np.argmax(words_and_eos))

    @pytest.mark.parametrize("variant,frames", [("panns", 1), ("logmel", 5)])
    @pytest.mark.parametrize("sve_dim", [0, 3])
    def test_step_logits_equal_full_prefix_forward(self, monkeypatch, variant, frames, sve_dim):
        self._check_steps_against_forward(monkeypatch, variant, frames, sve_dim, np.float32)

    def test_step_logits_equal_full_prefix_forward_at_float64(self, monkeypatch):
        """The gradient checks' width: the decode follows the parameters."""
        self._check_steps_against_forward(monkeypatch, "logmel", 5, 3, np.float64)

    @pytest.mark.parametrize("max_len", [0, 1, -3])
    def test_length_cap_below_two_rejected(self, max_len):
        vocab = build_vocabulary([clean_caption("dog barks")])
        model, _ = micro_model(vocab_size=len(vocab))
        with pytest.raises(ConfigError, match="max_len"):
            model.greedy_decode(np.zeros((3, 8)), vocab, max_len=max_len)

    def test_token_loop_builds_no_autodiff_node(self, monkeypatch):
        """Only ``encode_audio`` builds Tensors, so a decode builds as many at
        2 tokens as at 15, and no parameter gets a gradient."""
        vocab = build_vocabulary([clean_caption("dog barks loudly")])
        model, _, rng = self._decoding_model(vocab)
        audio = rng.standard_normal((4, 8))
        built = {"encode_audio": 0, "elsewhere": 0}
        inside = []
        init, encode_audio = T.Tensor.__init__, Captioner.encode_audio

        def counting_init(self, *args, **kwargs):
            built["encode_audio" if inside else "elsewhere"] += 1
            init(self, *args, **kwargs)

        def marked(self, *args, **kwargs):
            inside.append(True)
            try:
                return encode_audio(self, *args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(T.Tensor, "__init__", counting_init)
        monkeypatch.setattr(Captioner, "encode_audio", marked)
        counts = []
        for max_len in (2, 15):
            built.update(encode_audio=0, elsewhere=0)
            assert len(model.greedy_decode(audio, vocab, max_len=max_len)) == max_len
            counts.append(dict(built))
        assert counts[0] == counts[1]
        assert counts[0]["elsewhere"] == 0 and counts[0]["encode_audio"] > 0
        assert all(p.grad is None for p in model.parameters())

    @pytest.mark.parametrize("max_len", [2, 6, 15])
    def test_audio_encoded_once_per_decode(self, monkeypatch, max_len):
        vocab = build_vocabulary([clean_caption("dog barks loudly")])
        model, _, rng = self._decoding_model(vocab)
        calls = []
        run = BiGRU.run

        def counting(self, *args, **kwargs):
            calls.append(self)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(BiGRU, "run", counting)
        tokens = model.greedy_decode(rng.standard_normal((4, 8)), vocab, max_len=max_len)
        assert len(tokens) == max_len
        assert calls == [model.audio_gru1, model.audio_gru2]

    def test_batch_of_clips_rejected(self):
        vocab = build_vocabulary([clean_caption("dog barks")])
        model, _ = micro_model(vocab_size=len(vocab))
        with pytest.raises(ShapeError):
            model.greedy_decode(np.zeros((2, 3, 8)), vocab)


class TestPaddingInvariance:
    """A caption batch pads its shorter captions after their last token. The
    text GRU runs forward in time, so no example's state reads a pad column
    and every gradient at one is zero: appending pad columns or changing the
    pad ids must leave the loss and every parameter gradient bitwise equal."""

    @staticmethod
    def _loss_and_grads(model, audio, prefix, positions, targets, mode):
        zero_grads(model.parameters())
        loss = T.softmax_cross_entropy(
            model.forward(audio, prefix, mode=mode, positions=positions,
                          clip_of_caption=own_clips(prefix)), targets)
        T.backward(loss)
        return float(loss.data), [dense_grad(p).copy() for p in model.parameters()]

    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_pad_columns_and_pad_ids_change_nothing(self, mode):
        model, _ = micro_model(dropout=0.0)
        rng = np.random.RandomState(12)
        captions = [("a", [1, 5, 6, 7, 8, 2]), ("b", [1, 9, 2]), ("c", [1, 10, 11, 2])]
        features = {clip_id: rng.standard_normal((3, 8)) for clip_id, _ in captions}
        audio, prefix, positions, targets, _ = _batch_arrays(captions, features, None, "logmel")
        pads = np.arange(prefix.shape[1]) >= np.array([[len(ids) - 1] for _, ids in captions])
        assert pads.any() and not pads.all()
        relabelled = prefix.copy()
        relabelled[pads] = rng.randint(1, 12, size=int(pads.sum()))
        widened = np.pad(prefix, ((0, 0), (0, 3)))
        widened_relabelled = np.pad(relabelled, ((0, 0), (0, 3)), constant_values=7)
        reference = self._loss_and_grads(model, audio, prefix, positions, targets, mode)
        for other in (relabelled, widened, widened_relabelled):
            loss, grads = self._loss_and_grads(model, audio, other, positions, targets, mode)
            assert loss == reference[0]
            for p, g, g_ref in zip(model.parameters(), grads, reference[1]):
                assert np.array_equal(g, g_ref), p.name


class TestTraining:
    def _tiny_dataset(self):
        captions = [clean_caption(t) for t in
                    ["dog barks loudly", "man speaks", "rain falls down"]]
        vocab = build_vocabulary(captions)
        rng = np.random.RandomState(0)
        feats = {f"c{i}": rng.standard_normal((6, 8)) + 2.0 * i for i in range(3)}
        pairs = [(f"c{i}", captions[i]) for i in range(3)]
        return pairs, feats, vocab

    def test_initial_loss_near_log_vocab(self):
        pairs, feats, vocab = self._tiny_dataset()
        cfg = micro_config(epochs=1, learning_rate=1e-12)  # the smallest steps: a rate must be > 0
        _, history = train_captioner(pairs, feats, None, vocab, cfg)
        assert history["train_loss"][0] == pytest.approx(np.log(len(vocab)), rel=0.25)

    def test_one_clip_overfit(self):
        caption = clean_caption("dog barks loudly outside")
        vocab = build_vocabulary([caption])
        feats = {"only": np.random.RandomState(1).standard_normal((6, 8))}
        cfg = micro_config(bigru1=8, bigru2=8, text_gru=16, decoder_gru=16,
                           embed_dim=16, epochs=94, learning_rate=5e-3)
        ckpt, history = train_captioner([("only", caption)], feats, None, vocab, cfg)
        assert history["train_loss"][-1] < 0.01
        decoded = ckpt.build_model().greedy_decode(feats["only"], vocab)
        assert decoded == caption

    def test_captions_of_one_clip_train_without_float32_drift(self):
        """Two captions of one clip share one audio row, which ``bn_audio2``
        weights by their examples. As two equal rows (zero variance), the
        float32 residue of their summed gradients would drive the audio
        branch, and the infer-mode loss would end far above the training loss."""
        captions = [clean_caption("dog barks loudly outside"), clean_caption("a dog is barking")]
        vocab = build_vocabulary(captions)
        feats = {"only": np.random.RandomState(1).standard_normal((6, 8))}
        pairs = [("only", caption) for caption in captions]
        cfg = micro_config(bigru1=8, bigru2=8, text_gru=16, decoder_gru=16,
                           embed_dim=16, epochs=94, learning_rate=5e-3)
        ckpt, history = train_captioner(pairs, feats, None, vocab, cfg)
        model = ckpt.build_model()
        infer_loss = _dataset_loss(model, _encode_captions(pairs, vocab), feats, None,
                                   cfg.batch_size)
        assert infer_loss == pytest.approx(history["train_loss"][-1], abs=0.05)
        assert model.greedy_decode(feats["only"], vocab) in captions

    def test_loss_history_and_best_epoch(self):
        pairs, feats, vocab = self._tiny_dataset()
        _, history = train_captioner(pairs, feats, None, vocab, micro_config(epochs=4))
        assert len(history["train_loss"]) == 4
        assert history["best_epoch"] >= 0

    def test_validation_tracking(self):
        pairs, feats, vocab = self._tiny_dataset()
        _, history = train_captioner(pairs[:2], feats, None, vocab,
                                     micro_config(epochs=3), val_pairs=pairs[2:])
        assert len(history["val_loss"]) == 3

    def test_validation_pairs_may_come_from_a_generator(self):
        pairs, feats, vocab = self._tiny_dataset()
        runs = [train_captioner(pairs[:2], feats, None, vocab, micro_config(epochs=2),
                                val_pairs=val)[1] for val in (pairs[2:], (p for p in pairs[2:]))]
        assert runs[0] == runs[1]

    def test_empty_dataset(self):
        with pytest.raises(ShapeError):
            train_captioner([], {}, None, build_vocabulary([[SOS, "a2b", EOS]]),
                            micro_config())

    def test_missing_features(self):
        captions = [clean_caption("dog barks")]
        vocab = build_vocabulary(captions)
        with pytest.raises(ShapeError):
            train_captioner([("ghost", captions[0])], {}, None, vocab, micro_config())

    def test_mismatched_lengths_rejected(self):
        pairs, feats, vocab = self._tiny_dataset()
        feats["c1"] = np.zeros((9, 8))
        with pytest.raises(ShapeError):
            train_captioner(pairs, feats, None, vocab, micro_config())

    @pytest.mark.parametrize("pairs", [[("c0", 0)], [("c0", 0), ("c0", 1)]])
    def test_one_clip_at_t1_rejected_before_training(self, monkeypatch, pairs):
        """Train-mode batch norm over the T*B audio frames would see one row
        per batch: at T=1 one clip is refused, with one caption or with two."""
        captions = [clean_caption("dog barks loudly"), clean_caption("a dog barks")]
        vocab = build_vocabulary(captions)
        cfg = micro_config(variant="panns")
        feats = {"c0": np.ones((1, cfg.audio_dim)), "c1": np.zeros((1, cfg.audio_dim))}
        monkeypatch.setattr(captioner, "Captioner", None)  # no model is built
        with pytest.raises(ShapeError, match="at least 2 distinct training clips"):
            train_captioner([(c, captions[i]) for c, i in pairs], feats, None, vocab, cfg)
        monkeypatch.undo()
        _, history = train_captioner([("c0", captions[0]), ("c1", captions[0])], feats, None,
                                     vocab, cfg)
        assert len(history["train_loss"]) == cfg.epochs

    @pytest.mark.parametrize("columns,entries", [(7, 5), (9, 3), (8, 5), (7, 4), (8, None)])
    def test_feature_and_sve_widths_are_checked_apart(self, monkeypatch, columns, entries):
        """Features a column short and an SVE an entry long give the right
        joined width, but would shift the SVE into the feature columns. A
        missing SVE (None) is refused the same way."""
        pairs, feats, vocab = self._tiny_dataset()
        sves = {i: np.ones(4, np.float32) for i in feats if i != "c1" or entries}
        feats["c1"] = np.zeros((6, columns))
        if entries:
            sves["c1"] = np.ones(entries, np.float32)
        monkeypatch.setattr(captioner, "Captioner", None)  # no model is built
        with pytest.raises(ShapeError, match="clip 'c1'"):
            train_captioner(pairs, feats, sves, vocab, micro_config(sve_dim=4))

    def test_one_epoch_holds_no_joined_copy_of_the_clips(self):
        """Training reads each clip's features and SVE as given and joins them
        one batch at a time. One epoch and its validation pass over 300 clips
        (micro model, float32 features as the cache holds them) peak at about
        0.67 MB under tracemalloc, below the 2.48 MB of all the clips' joined
        float32 inputs; holding a joined copy of the clips, it peaked at 3.19 MB."""
        cfg = micro_config(audio_dim=512, sve_dim=4, epochs=1, batch_size=8)
        caption = clean_caption("dog barks loudly")
        vocab = build_vocabulary([caption])
        rng = np.random.RandomState(5)
        feats = {f"c{i}": rng.standard_normal((4, 512)).astype(np.float32) for i in range(300)}
        sves = {i: rng.randint(0, 2, 4).astype(np.float32) for i in feats}
        pairs = [(i, caption) for i in feats]
        joined = 4 * len(feats) * 4 * cfg.encoder_input_dim
        (_, history), peak, _ = peak_bytes(lambda: train_captioner(
            pairs[:50], feats, sves, vocab, cfg, val_pairs=pairs[50:]))
        assert len(history["val_loss"]) == 1
        assert peak < joined

    def test_no_parameter_holds_a_gradient_after_training(self, monkeypatch):
        """Each Adam step drops the gradients it applies, so the trained model
        (which the checkpoint's state is) keeps none."""
        pairs, feats, vocab = self._tiny_dataset()
        stepped = []

        def recording_step(params, state):
            stepped.append(params)
            adam_step(params, state)

        monkeypatch.setattr(captioner, "adam_step", recording_step)
        train_captioner(pairs, feats, None, vocab, micro_config(epochs=2))
        assert len(stepped) >= 2 and all(p.grad is None for p in stepped[-1])

    def test_sve_dim_requires_vectors(self):
        pairs, feats, vocab = self._tiny_dataset()
        with pytest.raises(ShapeError):
            train_captioner(pairs, feats, None, vocab, micro_config(sve_dim=4))

    def test_deterministic_training(self):
        pairs, feats, vocab = self._tiny_dataset()
        cfg = micro_config(epochs=3)
        a, _ = train_captioner(pairs, feats, None, vocab, cfg)
        b, _ = train_captioner(pairs, feats, None, vocab, cfg)
        assert list(a.state) == list(b.state)
        for name in a.state:
            assert np.array_equal(a.state[name], b.state[name])


    @pytest.mark.parametrize("unseen", [3, 40])  # dense Adam once most rows are live; row-sparse
    @pytest.mark.parametrize("with_init", [False, True])
    def test_unseen_word_rows_keep_their_initial_values(self, unseen, with_init):
        pairs, feats, vocab = self._tiny_dataset()
        extra = [f"word{i}" for i in range(unseen)]  # in the vocabulary, in no training caption
        vocab = build_vocabulary([caption for _, caption in pairs] + [[SOS, *extra, EOS]])
        cfg = micro_config(epochs=3, learning_rate=3e-2)
        init = (np.random.RandomState(4).standard_normal((len(vocab), cfg.embed_dim))
                if with_init else None)
        start = Captioner(len(vocab), cfg, np.random.RandomState(cfg.seed),
                          embed_init=init).embedding.table.data
        ckpt, _ = train_captioner(pairs, feats, None, vocab, cfg, embed_init=init)
        table = ckpt.state["enc.embedding.table"]
        rows = [vocab.index(word) for word in extra]
        assert np.array_equal(table[rows], start[rows])
        seen = [vocab.index(word) for word in pairs[0][1][1:-1]]
        assert not np.array_equal(table[seen], start[seen])

    @pytest.mark.parametrize("learning_rate,epochs", [(1e-2, 8), (3e-2, 8), (1e-2, 0)])
    def test_checkpoint_holds_best_epoch(self, learning_rate, epochs):
        pairs, feats, vocab = self._tiny_dataset()
        cfg = micro_config(epochs=epochs, learning_rate=learning_rate)
        ckpt, history = train_captioner(pairs[:2], feats, None, vocab, cfg, val_pairs=pairs[2:])
        if epochs == 0:
            initial = Captioner(len(vocab), cfg, np.random.RandomState(cfg.seed))
            assert all(np.array_equal(ckpt.state[p.name], p.data)
                       for p in initial.parameters())
            return
        assert history["best_epoch"] < epochs - 1  # restored from a saved state
        val_loss = _dataset_loss(ckpt.build_model(), _encode_captions(pairs[2:], vocab),
                                 feats, None, cfg.batch_size)
        assert val_loss == history["val_loss"][history["best_epoch"]]

    def test_validation_loss_matches_per_prefix_reference(self):
        captions = [clean_caption(t) for t in
                    ["dog barks loudly", "man speaks", "rain falls down on the roof",
                     "a car passes", "birds sing loudly"]]
        vocab = build_vocabulary(captions)
        rng = np.random.RandomState(3)
        # float32, as the cache holds them: every batch's input is built at float32
        feats = {f"c{i}": rng.standard_normal((4, 8)).astype(np.float32)
                 for i in range(len(captions))}
        pairs = [(f"c{i}", c) for i, c in enumerate(captions)]
        ckpt, _ = train_captioner(pairs, feats, None, vocab,
                                  micro_config(epochs=3, dropout=0.3, learning_rate=1e-2))
        model = ckpt.build_model()
        encoded = _encode_captions(pairs, vocab)

        def check(rel):
            nlls = []
            for clip_id, ids in encoded:
                for i in range(1, len(ids)):
                    prefix = np.array([ids[:i]])
                    logits = model.forward(feats[clip_id][None], prefix, last_columns(prefix),
                                           mode="infer", clip_of_caption=[0])
                    nlls.append(float(T.softmax_cross_entropy(logits, [ids[i]]).data))
            reference = float(np.mean(nlls))
            for batch_size in (1, 6, 100):
                assert _dataset_loss(model, encoded, feats, None, batch_size) == pytest.approx(
                    reference, rel=rel, abs=0.0)

        check(rel=1e-6)  # float32: a row of a many-row product may round apart from it alone
        at_float64(model.parameters())
        check(rel=1e-12)

    def test_nan_feature_raises(self):
        pairs, feats, vocab = self._tiny_dataset()
        feats["c1"][2, 5] = np.nan
        with pytest.raises(TrainingError, match="epoch 1 batch 1"):
            train_captioner(pairs, feats, None, vocab, micro_config())

    def test_graph_size_does_not_grow_with_sequence_length(self):
        model, cfg = micro_model(dropout=0.5)
        rng = np.random.RandomState(6)

        def nodes(frames, words):
            prefix = rng.randint(1, 12, size=(4, words))
            logits = model.forward(rng.standard_normal((4, frames, 8)), prefix,
                                   last_columns(prefix), mode="train", rng=rng,
                                   clip_of_caption=own_clips(prefix))
            return len(graph_nodes(T.softmax_cross_entropy(logits, rng.randint(0, 12, size=4))))

        assert nodes(2, 1) == nodes(9, 1) == nodes(2, 7) == nodes(30, 12)

    def test_every_weight_gets_a_gradient(self):
        model, _ = micro_model()
        rng = np.random.RandomState(8)
        prefix = rng.randint(1, 12, size=(4, 3))
        logits = model.forward(rng.standard_normal((4, 3, 8)), prefix, last_columns(prefix),
                               mode="train", rng=rng, clip_of_caption=own_clips(prefix))
        T.backward(T.softmax_cross_entropy(logits, rng.randint(0, 12, size=4)))
        for p in model.parameters():
            assert np.any(dense_grad(p) != 0.0), p.name
            if p.data.ndim == 2:
                assert np.all(np.any(dense_grad(p) != 0.0, axis=0)), p.name  # every input column

    def test_captions_of_one_clip_give_the_audio_branch_no_gradient(self):
        """With every example on one clip, ``bn_audio2`` sees one clip row
        weighted by the example count: its output is ``beta`` and its input
        gradient exactly 0 at float32, so no weight before it moves (the
        summed gradient of repeated rows would leave a rounding residue that
        Adam turns into full-size steps)."""
        model, _ = micro_model(dropout=0.5)
        rng = np.random.RandomState(10)
        prefix = rng.randint(1, 12, size=(1, 4))
        logits = model.forward(rng.standard_normal((1, 5, 8)), prefix, mode="train",
                               rng=rng, positions=np.nonzero(np.ones(prefix.shape).T),
                               clip_of_caption=[0])
        T.backward(T.softmax_cross_entropy(logits, rng.randint(0, 12, size=logits.data.shape[0])))
        audio_branch = [*model.audio_gru1.parameters(), *model.bn_audio1.parameters(),
                        *model.audio_gru2.parameters(), model.bn_audio2.gamma]
        for p in audio_branch:
            assert dense_grad(p).dtype == np.float32
            assert np.all(dense_grad(p) == 0.0), p.name
        assert np.any(dense_grad(model.bn_audio2.beta) != 0.0)

    def test_float32_throughout(self, monkeypatch):
        """After a train step every graph node but the loss, every parameter
        and gradient and every Adam moment is float32, and so is every array a
        greedy decode's token loop holds or returns: numpy would widen a stray
        float64 buffer silently."""
        pairs, feats, vocab = self._tiny_dataset()
        model, _ = micro_model(vocab_size=len(vocab), dropout=0.5)
        params = model.parameters()
        state = AdamState(learning_rate=1e-2)
        rng = np.random.RandomState(11)
        audio, prefix, positions, targets, clip_of_caption = _batch_arrays(
            _encode_captions(pairs, vocab), feats, None, "logmel")
        loss = T.softmax_cross_entropy(
            model.forward(audio, prefix, mode="train", rng=rng, positions=positions,
                          clip_of_caption=clip_of_caption), targets)
        T.backward(loss)
        nodes = graph_nodes(loss)
        assert loss.data.dtype == np.float64 and nodes[0] is loss
        assert {n.data.dtype for n in nodes[1:]} == {np.dtype(np.float32)}
        assert {dense_grad(n).dtype for n in nodes if n.grad is not None and n is not loss} == {
            np.dtype(np.float32)}
        adam_step(params, state)
        assert {p.data.dtype for p in params} == {np.dtype(np.float32)}
        assert all(p.grad is None for p in params)
        assert {a.dtype for a in [*state.m.values(), *state.v.values()]} == {
            np.dtype(np.float32)}

        steps = recorded_steps(monkeypatch, holds=True)
        model.out.bias.data[vocab.eos_index] = -50.0  # decode up to the length cap
        model.greedy_decode(feats[pairs[0][0]], vocab, max_len=4)
        assert len(steps) == 3
        assert {a.dtype for step in steps for a in step} == {np.dtype(np.float32)}


class TestSveAblationEquivalence:
    def test_zero_sve_matches_ablation_on_audio_columns(self):
        """With the SVE input zeroed and the SVE weight columns zeroed, the
        model computes exactly what the no-SVE model computes."""
        rng = np.random.RandomState(4)
        with_sve, cfg = micro_model(sve_dim=3)
        without, _ = micro_model(sve_dim=0)
        # copy every shared weight; zero the columns that read SVE inputs
        named = {p.name: p for p in with_sve.parameters()}
        for q in without.parameters():
            p = named[q.name]
            if p.data.shape == q.data.shape:
                p.data[...] = q.data  # in place: a GRU parameter stays a view of its stack
        aud = cfg.feature_dim
        hid = cfg.bigru1
        for cell in (with_sve.audio_gru1.fwd, with_sve.audio_gru1.bwd):
            ref = {r.name.split(".")[-1]: r for r in
                   (without.audio_gru1.fwd if cell.W_z.name.endswith("fwd.W_z") or
                    ".fwd." in cell.W_z.name else without.audio_gru1.bwd).parameters()}
            for gate in ("W_z", "W_r", "W"):
                p = getattr(cell, gate)
                q = ref[gate]
                p.data[:, : hid + aud] = q.data
                p.data[:, hid + aud :] = 0.0
            for gate in ("b_z", "b_r", "b"):
                getattr(cell, gate).data[...] = ref[gate].data

        audio = rng.standard_normal((2, 4, aud))
        sve = np.zeros(3)
        inp_sve = np.stack([build_encoder_input(a, sve, "logmel") for a in audio])
        prefix = np.array([[1, 5], [1, 6]])
        a = with_sve.forward(inp_sve, prefix, last_columns(prefix), mode="infer",
                             clip_of_caption=own_clips(prefix)).data
        b = without.forward(audio, prefix, last_columns(prefix), mode="infer",
                            clip_of_caption=own_clips(prefix)).data
        assert np.allclose(a, b, atol=1e-12)


class TestCheckpoint:
    def _checkpoint(self):
        vocab = build_vocabulary([clean_caption("dog barks")])
        model, cfg = micro_model(vocab_size=len(vocab))
        return CaptionerCheckpoint(state=model.state(), config=cfg,
                                   vocab_size=len(vocab), vocab_sha256=vocab.sha256(),
                                   corpus_sha256="abc"), vocab

    def test_round_trip_bitwise(self, tmp_path):
        ckpt, vocab = self._checkpoint()
        path = tmp_path / "cap.ckpt"
        ckpt.save(path)
        again = CaptionerCheckpoint.load(path, vocab=vocab)
        assert list(again.state) == list(ckpt.state)
        for name in ckpt.state:
            assert np.array_equal(again.state[name], ckpt.state[name])
        # saving the loaded checkpoint reproduces the file byte for byte
        again.save(tmp_path / "cap2.ckpt")
        assert (tmp_path / "cap2.ckpt").read_bytes() == path.read_bytes()

    def test_float64_checkpoint_loads_into_float32(self, tmp_path):
        """A checkpoint of float64 parameters, as the captioner wrote before it
        ran at float32, loads with each value rounded to float32."""
        ckpt, vocab = self._checkpoint()
        rng = np.random.RandomState(12)
        ckpt.state = {name: v if name.startswith("buffer.") else rng.standard_normal(v.shape)
                      for name, v in ckpt.state.items()}
        ckpt.save(tmp_path / "old.ckpt")
        assert (tmp_path / "old.ckpt").read_bytes().count(b"dtype=f8") == len(ckpt.state)
        loaded = CaptionerCheckpoint.load(tmp_path / "old.ckpt", vocab=vocab)
        with no_random_draws():
            model = loaded.build_model()
        for p in model.parameters():
            assert p.data.dtype == np.float32
            assert np.array_equal(p.data, ckpt.state[p.name].astype(np.float32))

    def test_build_model_draws_nothing_and_restores_every_bit(self, tmp_path):
        ckpt, vocab = self._checkpoint()
        rng = np.random.RandomState(13)
        ckpt.state = {  # values no initialization draws; the update counts stay integers
            name: v if name.endswith(".steps") else (v + rng.uniform(0.5, 1.0, v.shape)).astype(v.dtype)
            for name, v in ckpt.state.items()}
        ckpt.save(tmp_path / "cap.ckpt")
        loaded = CaptionerCheckpoint.load(tmp_path / "cap.ckpt", vocab=vocab)
        with no_random_draws():
            model = loaded.build_model()
        state = model.state()
        assert list(state) == list(ckpt.state)
        for name, v in ckpt.state.items():
            assert state[name].dtype == v.dtype and state[name].tobytes() == v.tobytes(), name
        assert all(p.grad is None for p in model.parameters())

    def test_tensors_load_at_their_stored_width(self, tmp_path):
        ckpt, _ = self._checkpoint()
        ckpt.save(tmp_path / "cap.ckpt")
        tensors, _ = load_tensors(tmp_path / "cap.ckpt")
        assert {name: v.dtype for name, v in tensors.items()} == {
            name: v.dtype for name, v in ckpt.state.items()}
        widths = {v.dtype for v in tensors.values()}
        assert widths == {np.dtype(np.float32), np.dtype(np.float64)}  # parameters, buffers

    def test_corrupt_manifest(self, tmp_path):
        ckpt, _ = self._checkpoint()
        path = tmp_path / "cap.ckpt"
        ckpt.save(path)
        blob = bytearray(path.read_bytes())
        blob[10:16] = b"tensor"  # clobber the header
        (tmp_path / "bad.ckpt").write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            CaptionerCheckpoint.load(tmp_path / "bad.ckpt")

    @pytest.mark.parametrize("defect", sorted(CAPTIONER_META_DEFECTS))
    def test_malformed_metadata_is_a_checkpoint_error_naming_the_file(self, tmp_path, defect):
        change, message = CAPTIONER_META_DEFECTS[defect]
        ckpt, vocab = self._checkpoint()
        ckpt.save(tmp_path / "cap.ckpt")
        bad = with_meta(tmp_path / "cap.ckpt", tmp_path / "bad.ckpt", change)
        with pytest.raises(CheckpointError, match=re.escape(f"{bad}: {message}")):
            CaptionerCheckpoint.load(bad, vocab=vocab)

    def test_vocab_hash_mismatch(self, tmp_path):
        ckpt, _ = self._checkpoint()
        path = tmp_path / "cap.ckpt"
        ckpt.save(path)
        other = build_vocabulary([clean_caption("rain falls")])
        with pytest.raises(CheckpointError, match="vocabulary hash"):
            CaptionerCheckpoint.load(path, vocab=other)

    def test_corpus_hash_mismatch(self, tmp_path):
        ckpt, vocab = self._checkpoint()
        path = tmp_path / "cap.ckpt"
        ckpt.save(path)
        with pytest.raises(CheckpointError, match="corpus hash"):
            CaptionerCheckpoint.load(path, vocab=vocab, corpus_sha256="different")

    def test_failed_rename_keeps_old_checkpoint_and_removes_temp(self, tmp_path, monkeypatch):
        ckpt, _ = self._checkpoint()
        path = tmp_path / "cap.ckpt"
        ckpt.save(path)
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(atomic.os, "replace", fail)
        ckpt.state = {name: value + 1.0 for name, value in ckpt.state.items()}
        with pytest.raises(OSError, match="disk full"):
            ckpt.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["cap.ckpt"]

    def test_decoder_gru_checkpoint_rejected(self, tmp_path):
        # checkpoints of the GRU-cell decoder hold dec.gru.{W_z,W_r,W,b_z,b_r,b}
        ckpt, _ = self._checkpoint()
        cfg = ckpt.config
        state = {k: v for k, v in ckpt.state.items()
                 if k not in ("dec.W_z", "dec.b_z", "dec.W", "dec.b")}
        cell = GRUCellParams.stacked(cfg.fused_dim, cfg.decoder_gru, np.random.RandomState(0),
                                     ("dec.gru",))[0]
        state.update({p.name: p.data for p in cell.parameters()})
        ckpt.state = state
        ckpt.save(tmp_path / "old.ckpt")
        with pytest.raises(CheckpointError, match="missing tensor 'dec.W_z'"):
            CaptionerCheckpoint.load(tmp_path / "old.ckpt").build_model()

    @pytest.mark.parametrize("name", ["enc.bn_text.gamma", "buffer.enc.bn_text.running_var"])
    def test_missing_or_misshaped_tensor_rejected(self, name):
        ckpt, _ = self._checkpoint()
        state = ckpt.state
        ckpt.state = {k: v for k, v in state.items() if k != name}
        with pytest.raises(CheckpointError, match=f"missing tensor '{name}'"):
            ckpt.build_model()
        ckpt.state = {**state, name: state[name][:-1]}
        with pytest.raises(CheckpointError, match=f"'{name}' has shape"):
            ckpt.build_model()

    @pytest.mark.parametrize("name", ["enc.embedding.table", "buffer.enc.bn_text.running_var"])
    def test_loaded_tensor_errors_name_the_file(self, tmp_path, name):
        ckpt, vocab = self._checkpoint()
        state = ckpt.state
        shape = state[name][:-1].shape
        for label, tensors, message in (
                ("missing", {k: v for k, v in state.items() if k != name},
                 f"missing tensor '{name}'"),
                ("misshaped", {**state, name: state[name][:-1]},
                 f"tensor '{name}' has shape {shape}, expected {state[name].shape}")):
            ckpt.state = tensors
            path = tmp_path / f"{label}.ckpt"
            ckpt.save(path)
            loaded = CaptionerCheckpoint.load(path, vocab=vocab)
            with pytest.raises(CheckpointError, match=re.escape(f"{path}: {message}")):
                loaded.build_model()

    def test_rebuilt_model_decodes_identically(self, tmp_path):
        vocab = build_vocabulary([clean_caption("dog barks loudly")])
        model, cfg = micro_model(vocab_size=len(vocab))
        ckpt = CaptionerCheckpoint(state=model.state(), config=cfg,
                                   vocab_size=len(vocab), vocab_sha256=vocab.sha256())
        ckpt.save(tmp_path / "m.ckpt")
        rebuilt = CaptionerCheckpoint.load(tmp_path / "m.ckpt").build_model()
        audio = np.random.RandomState(5).standard_normal((4, 8))
        assert rebuilt.greedy_decode(audio, vocab) == model.greedy_decode(audio, vocab)

    def test_checkpoint_without_step_buffers_is_uncorrected(self, tmp_path):
        # checkpoints written before batch norm counted its updates hold no
        # "*.steps" buffers; they must load and apply the raw running statistics
        pairs, feats, vocab = TestTraining()._tiny_dataset()
        ckpt, _ = train_captioner(pairs, feats, None, vocab, micro_config(epochs=2))
        ckpt.save(tmp_path / "m.ckpt")
        loaded = CaptionerCheckpoint.load(tmp_path / "m.ckpt")
        state = dict(loaded.state)
        steps = [k for k in state if k.endswith(".steps")]
        assert steps and all(state[k] > 0 for k in steps)

        audio = np.stack([feats[c] for c, _ in pairs])
        prefix = np.array([[vocab.sos_index, 5], [vocab.sos_index, 6], [vocab.sos_index, 7]])

        def infer(with_state):
            loaded.state = with_state
            return loaded.build_model().forward(audio, prefix, last_columns(prefix), mode="infer",
                                                clip_of_caption=own_clips(prefix)).data

        legacy = infer({k: v for k, v in state.items() if k not in steps})
        zeroed = infer({**state, **{k: np.zeros_like(state[k]) for k in steps}})
        assert np.array_equal(legacy, zeroed)
        assert not np.allclose(legacy, infer(state))
