import re
from dataclasses import asdict, replace

import numpy as np
import pytest

from aucap import mlp
from aucap.captioner import CaptionerConfig, train_captioner
from aucap.errors import CheckpointError, ShapeError, TrainingError
from aucap.mlp import MLP, MLPConfig, _dataset_loss, predict_sve, train_mlp
from aucap.nn import tensor as T
from aucap.nn.checkpoint import save_tensors
from aucap.nn.layers import DRAW_BLOCK
from aucap.nn.optim import AdamState, adam_step
from aucap.text import build_vocabulary, clean_caption
from conftest import MLP_META_DEFECTS, no_random_draws, with_meta
from gradcheck import at_float64, max_relative_error
from memory import peak_bytes
from aucap.nn.tensor import Tensor


def separable_toy(n_per_class=32, noise=0.05, seed=0):
    """4 classes, one active label each; features are redundant blocks so
    input dropout cannot erase the signal."""
    rng = np.random.RandomState(seed)
    dim = 16
    xs, ys = [], []
    for cls in range(4):
        mean = np.zeros(dim)
        mean[cls * 4 : (cls + 1) * 4] = 3.0
        xs.append(mean + rng.standard_normal((n_per_class, dim)) * noise)
        y = np.zeros((n_per_class, 4))
        y[:, cls] = 1.0
        ys.append(y)
    return np.vstack(xs), np.vstack(ys)


def small_config(**overrides):
    base = dict(input_dim=16, output_dim=4, hidden_widths=(32, 32, 16, 16, 8, 8),
                dropout=0.5, epochs=100, batch_size=64, seed=0)
    base.update(overrides)
    return MLPConfig(**base)


class TestForward:
    def test_outputs_in_unit_interval(self):
        rng = np.random.RandomState(0)
        model = MLP(small_config(), rng)
        out = predict_sve(model, rng.standard_normal((8, 16)) * 5)
        assert np.all((out > 0.0) & (out < 1.0))

    def test_zero_weights_give_half(self):
        model = MLP(small_config(), np.random.RandomState(0))
        for p in model.parameters():
            p.data[...] = 0.0
        out = predict_sve(model, np.random.RandomState(1).standard_normal((3, 16)))
        assert np.allclose(out, 0.5)

    def test_output_dim_is_corpus_size(self):
        cfg = MLPConfig(input_dim=2048, output_dim=37, hidden_widths=(8, 8))
        model = MLP(cfg, np.random.RandomState(0))
        out = model.forward(Tensor(np.zeros((2, 2048))), mode="infer")
        assert out.data.shape == (2, 37)

    def test_dim_mismatch(self):
        model = MLP(small_config(), np.random.RandomState(0))
        with pytest.raises(ShapeError):
            model.forward(Tensor(np.zeros((2, 7))), mode="infer")

    def test_infer_deterministic_train_stochastic(self):
        rng = np.random.RandomState(2)
        model = MLP(small_config(), rng)
        x = Tensor(rng.standard_normal((4, 16)))
        a = model.forward(x, mode="infer").data
        b = model.forward(x, mode="infer").data
        assert np.array_equal(a, b)
        t1 = model.forward(x, mode="train", rng=np.random.RandomState(1)).data
        t2 = model.forward(x, mode="train", rng=np.random.RandomState(2)).data
        assert not np.array_equal(t1, t2)

    @pytest.mark.parametrize("mode, rng", [("eval", None), ("train", None)])
    def test_misspelt_mode_or_train_without_rng_rejected(self, mode, rng):
        model = MLP(small_config(), np.random.RandomState(3))
        with pytest.raises(ValueError):
            model.forward(Tensor(np.zeros((2, 16))), mode=mode, rng=rng)


class TestTraining:
    def test_separable_exact_match(self):
        x, y = separable_toy()
        model, history = train_mlp(x, y, small_config())
        preds = (predict_sve(model, x) > 0.5).astype(float)
        assert np.array_equal(preds, y)  # exact match 1.0

    def test_loss_trend_non_increasing(self):
        x, y = separable_toy()
        _, history = train_mlp(x, y, small_config(epochs=30))
        losses = np.array(history.train_losses)
        first, last = losses[:5].mean(), losses[-5:].mean()
        assert last < first

    def test_deterministic(self):
        x, y = separable_toy()
        cfg = small_config(epochs=5)
        a, _ = train_mlp(x, y, cfg)
        b, _ = train_mlp(x, y, cfg)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_empty_training_set(self):
        with pytest.raises(ShapeError):
            train_mlp(np.zeros((0, 16)), np.zeros((0, 4)), small_config())

    def test_non_binary_targets_rejected(self):
        with pytest.raises(ShapeError):
            train_mlp(np.zeros((4, 16)), np.full((4, 4), 0.3), small_config())

    def test_trains_and_predicts_at_float32(self):
        x, y = separable_toy()
        model, _ = train_mlp(x, y, small_config(epochs=2))
        assert {p.data.dtype for p in model.parameters()} == {np.dtype(np.float32)}
        assert predict_sve(model, x).dtype == np.float32

    @pytest.mark.parametrize("val, message", [
        (lambda x, y: (x, None), "given together"),
        (lambda x, y: (None, y), "given together"),
        (lambda x, y: (x, y[:, :3]), r"validation targets \(128, 3\) vs expected \(128, 4\)"),
        (lambda x, y: (x[:, :15], y), r"validation features \(128, 15\)"),
        (lambda x, y: (x[:5], y), r"validation targets \(128, 4\) vs expected \(5, 4\)"),
        (lambda x, y: (x, y * 0.5), "validation targets must be binary"),
        (lambda x, y: (x[:0], y[:0]), "validation set is empty"),
    ])
    def test_bad_validation_set_raises_before_training(self, val, message, monkeypatch):
        monkeypatch.setattr(mlp, "fit", lambda *a, **k: pytest.fail("training started"))
        x, y = separable_toy()
        val_features, val_targets = val(x, y)
        with pytest.raises(ShapeError, match=message):
            train_mlp(x, y, small_config(), val_features=val_features, val_targets=val_targets)

    def test_best_epoch_checkpointing(self):
        x, y = separable_toy()
        _, history = train_mlp(x, y, small_config(epochs=20),
                               val_features=x, val_targets=y)
        assert 0 <= history.best_epoch < 20
        assert len(history.val_losses) == 20
        assert min(history.val_losses) == history.val_losses[history.best_epoch]

    @pytest.mark.parametrize("learning_rate", [1e-2, 3e-2])
    def test_returns_best_epoch_parameters(self, learning_rate):
        x, y = separable_toy()
        xv, yv = separable_toy(seed=1, noise=2.0)
        model, history = train_mlp(x, y, small_config(epochs=12, learning_rate=learning_rate),
                                   val_features=xv, val_targets=yv)
        assert history.best_epoch < 11  # the best state is restored, not the last one kept
        val_loss = _dataset_loss(model, xv.astype(np.float32), yv)  # as train_mlp casts it
        assert val_loss == history.val_losses[history.best_epoch]

    def test_zero_epochs_return_the_initial_model(self):
        x, y = separable_toy()
        model, history = train_mlp(x, y, small_config(epochs=0))
        initial = MLP(small_config(), np.random.RandomState(0))
        assert history.best_epoch == -1
        for p, q in zip(model.parameters(), initial.parameters()):
            assert np.array_equal(p.data, q.data)

    def test_nan_feature_raises(self):
        x, y = separable_toy()
        x[5, 3] = np.nan
        with pytest.raises(TrainingError, match="epoch 1 batch 1"):
            train_mlp(x, y, small_config())

    def test_auc_on_training_bits(self):
        x, y = separable_toy()
        model, _ = train_mlp(x, y, small_config(epochs=40))
        probs = predict_sve(model, x)
        pos, neg = probs[y == 1.0], probs[y == 0.0]
        # Wilcoxon-style AUC: P(pos > neg)
        auc = (pos[:, None] > neg[None, :]).mean()
        assert auc > 0.95


class TestGradientsAndState:
    def test_shrunk_variant_gradcheck(self):
        rng = np.random.RandomState(3)
        cfg = MLPConfig(input_dim=6, output_dim=3, hidden_widths=(8, 5), dropout=0.0)
        model = MLP(cfg, rng)
        x = Tensor(rng.standard_normal((5, 6)))
        y = (rng.random_sample((5, 3)) > 0.5).astype(float)
        err = max_relative_error(
            lambda: T.sigmoid_binary_cross_entropy(model.forward(x, mode="infer"), y),
            at_float64(model.parameters()),
        )
        assert err < 1e-4

    def test_save_load_round_trip(self, tmp_path):
        """f4 payloads (plain v1 records) hold the float32 parameters bit for bit."""
        model = MLP(small_config(), np.random.RandomState(4))
        model.save(tmp_path / "mlp.ckpt")
        assert b"dtype=f8" not in (tmp_path / "mlp.ckpt").read_bytes()
        again = MLP.load(tmp_path / "mlp.ckpt")
        assert again.config == model.config
        for pa, pb in zip(model.parameters(), again.parameters()):
            assert pb.data.dtype == np.float32 and pa.data.tobytes() == pb.data.tobytes()

    def test_float64_checkpoint_loads_into_float32(self, tmp_path):
        """A checkpoint of float64 parameters, as the MLP wrote before it trained
        at float32, loads with each value rounded to float32."""
        model = MLP(small_config(), np.random.RandomState(4))
        rng = np.random.RandomState(6)
        state = {name: rng.standard_normal(v.shape) for name, v in model.state().items()}
        save_tensors(tmp_path / "old.ckpt", state, {"kind": "sve-mlp",
                                                    "config": asdict(model.config)})
        assert (tmp_path / "old.ckpt").read_bytes().count(b"dtype=f8") == len(state)
        with no_random_draws():
            again = MLP.load(tmp_path / "old.ckpt")
        for p in again.parameters():
            assert p.data.dtype == np.float32
            assert np.array_equal(p.data, state[p.name].astype(np.float32))

    def test_load_draws_nothing_and_restores_every_bit(self, tmp_path):
        model = MLP(small_config(), np.random.RandomState(4))
        for p in model.parameters():  # values no initialization draws
            p.data += np.random.RandomState(5).uniform(0.5, 1.0, p.data.shape).astype(np.float32)
        model.save(tmp_path / "mlp.ckpt")
        with no_random_draws():
            again = MLP.load(tmp_path / "mlp.ckpt")
        for pa, pb in zip(model.parameters(), again.parameters(), strict=True):
            assert pa.name == pb.name and pa.data.tobytes() == pb.data.tobytes()
            assert pb.data.dtype == np.float32 and pb.grad is None

    def test_captioner_checkpoint_is_float32(self, tmp_path):
        """Parameters are written as f4 records; the batch-norm buffers stay f8."""
        captions = [clean_caption(t) for t in ("dog barks", "rain falls")]
        feats = {f"c{i}": np.random.RandomState(i).standard_normal((2, 3)) for i in range(2)}
        config = CaptionerConfig(variant="logmel", audio_dim=3, bigru1=2, bigru2=2, text_gru=4,
                                 decoder_gru=4, embed_dim=4, epochs=1, batch_size=2)
        ckpt, _ = train_captioner([(f"c{i}", c) for i, c in enumerate(captions)], feats, None,
                                  build_vocabulary(captions), config)
        ckpt.save(tmp_path / "captioner.ckpt")
        buffers = [name for name in ckpt.state if name.startswith("buffer.")]
        assert len(buffers) == 12  # running mean, variance and steps of 4 batch norms
        assert all(ckpt.state[name].dtype == (np.float64 if name in buffers else np.float32)
                   for name in ckpt.state)
        assert (tmp_path / "captioner.ckpt").read_bytes().count(b"dtype=f8") == len(buffers)

    @pytest.mark.parametrize("defect", sorted(MLP_META_DEFECTS))
    def test_malformed_metadata_is_a_checkpoint_error_naming_the_file(self, tmp_path, defect):
        change, message = MLP_META_DEFECTS[defect]
        MLP(small_config(), np.random.RandomState(4)).save(tmp_path / "mlp.ckpt")
        bad = with_meta(tmp_path / "mlp.ckpt", tmp_path / "bad.ckpt", change)
        with pytest.raises(CheckpointError, match=re.escape(f"{bad}: {message}")):
            MLP.load(bad)

    def test_loaded_tensor_errors_name_the_file(self, tmp_path):
        model = MLP(small_config(), np.random.RandomState(4))
        state, meta = model.state(), {"kind": "sve-mlp", "config": asdict(model.config)}
        weights = state["mlp.h0.weights"]
        save_tensors(tmp_path / "missing.ckpt",
                     {k: v for k, v in state.items() if k != "mlp.out.bias"}, meta)
        with pytest.raises(CheckpointError,
                           match=re.escape(f"{tmp_path / 'missing.ckpt'}: missing tensor "
                                           f"'mlp.out.bias'")):
            MLP.load(tmp_path / "missing.ckpt")
        save_tensors(tmp_path / "misshaped.ckpt", {**state, "mlp.h0.weights": weights.T}, meta)
        with pytest.raises(CheckpointError, match=re.escape(
                f"{tmp_path / 'misshaped.ckpt'}: tensor 'mlp.h0.weights' has shape "
                f"{weights.T.shape}, expected {weights.shape}")):
            MLP.load(tmp_path / "misshaped.ckpt")

    def test_load_state_rejects_missing_or_misshaped_tensor(self):
        model = MLP(small_config(), np.random.RandomState(4))
        state = model.state()
        with pytest.raises(CheckpointError, match="missing tensor 'mlp.out.bias'"):
            model.load_state({k: v for k, v in state.items() if k != "mlp.out.bias"})
        with pytest.raises(CheckpointError, match="'mlp.h0.weights' has shape"):
            model.load_state({**state, "mlp.h0.weights": state["mlp.h0.weights"].T})

    def test_predict_single_vector(self):
        model = MLP(small_config(), np.random.RandomState(5))
        out = predict_sve(model, np.zeros(16))
        assert out.shape == (4,)


class TestMemory:
    """tracemalloc peaks (``peak_bytes``) of a 2.1M-parameter MLP against
    budgets in bytes per parameter, each plus SLACK (1 MiB, about 0.5
    B/parameter) for the activations of an 8-example batch, Adam's block
    buffers and the checkpoint header. The budgets are those of float32
    parameters that hold a gradient only from backward to the Adam step (a
    dense weight's as its two batch-row factors), are not drawn when loaded
    and are written to a checkpoint uncopied."""

    CONFIG = MLPConfig(input_dim=1500, output_dim=64, hidden_widths=(1024, 512), batch_size=8)
    SLACK = 1 << 20

    def build(self):
        return MLP(self.CONFIG, np.random.RandomState(0))

    def examples(self, n):
        rng = np.random.RandomState(1)
        x = rng.standard_normal((n, self.CONFIG.input_dim)).astype(np.float32)
        y = (rng.random_sample((n, self.CONFIG.output_dim)) > 0.5).astype(np.float32)
        return x, y

    def test_construction_holds_float32_and_one_draw_block(self):
        """The float32 weights plus one row block of the float64 draw: no
        layer's whole float64 draw (8.4 MB here) is ever held."""
        model, peak, held = peak_bytes(self.build)
        sizes = [p.data.size for p in model.parameters()]
        assert 2_000_000 < sum(sizes) < 2_200_000
        assert held <= 4 * sum(sizes) + self.SLACK
        assert peak <= held + 8 * DRAW_BLOCK + (64 << 10)

    def test_training_step_holds_12_bytes_per_parameter(self):
        """Weights and Adam's m and v, at 4 bytes each: no weight's whole
        gradient is held, only the biases' arrays and the factors."""
        x, y = self.examples(8)
        rng = np.random.RandomState(1)

        def step():
            model = self.build()
            T.backward(T.sigmoid_binary_cross_entropy(model.forward(Tensor(x), "train", rng), y))
            adam_step(model.parameters(), AdamState())
            return model

        model, peak, _ = peak_bytes(step)
        assert peak <= 12 * sum(p.data.size for p in model.parameters()) + self.SLACK

    def test_trained_model_holds_4_bytes_per_parameter(self):
        """The weights alone: the last step dropped the gradients, and Adam's
        moments end with the training."""
        x, y = self.examples(16)
        (model, _), _, held = peak_bytes(lambda: train_mlp(x, y, replace(self.CONFIG, epochs=1)))
        assert all(p.grad is None for p in model.parameters())
        assert held <= 4 * sum(p.data.size for p in model.parameters()) + self.SLACK

    def test_save_writes_the_parameters_themselves(self, tmp_path):
        """No copy of the state, of a tensor's bytes or of the whole file."""
        model = self.build()
        _, peak, _ = peak_bytes(lambda: model.save(tmp_path / "mlp.ckpt"))
        assert peak <= self.SLACK
        again = MLP.load(tmp_path / "mlp.ckpt")
        for pa, pb in zip(model.parameters(), again.parameters(), strict=True):
            assert np.array_equal(pa.data, pb.data)

    def test_load_holds_8_bytes_per_parameter(self, tmp_path):
        """The file's tensors and the model's parameters, at 4 bytes each."""
        self.build().save(tmp_path / "mlp.ckpt")
        model, peak, _ = peak_bytes(lambda: MLP.load(tmp_path / "mlp.ckpt"))
        assert peak <= 8 * sum(p.data.size for p in model.parameters()) + self.SLACK
