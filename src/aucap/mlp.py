"""Multilabel MLP that predicts subject-verb probabilities from audio features.

Six ReLU hidden layers by default, dropout on the input connections and one
logit per label. Training minimises the per-label binary cross-entropy of the
sigmoid of those logits, fused into one node
(``T.sigmoid_binary_cross_entropy``), with Adam, and keeps the parameters from
the epoch with the lowest validation loss. ``predict_sve`` applies the sigmoid.

The MLP trains and predicts at float32. Its training is memory-bound: each
step's Adam update and dense products stream every parameter, and float32
halves those bytes. The fused loss takes no log of a probability, so it needs
no floor near 1, which float32 could not hold (1 - 1e-12 rounds to 1). The
parameters are drawn at float64, as before, and cast once, as the
captioner's are.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import CheckpointError, ShapeError
from .nn import layers
from .nn import tensor as T
from .nn.checkpoint import load_parameters, load_tensors, save_tensors
from .nn.optim import AdamState, TrainHistory, adam_step, check_training_fields, fit
from .nn.tensor import Parameter, Tensor

KIND = "sve-mlp"
DEFAULT_HIDDEN = (1024, 1024, 512, 512, 256, 256)


@dataclass(frozen=True)
class MLPConfig:
    input_dim: int = 2048
    output_dim: int = 1
    hidden_widths: tuple[int, ...] = DEFAULT_HIDDEN
    dropout: float = 0.5
    learning_rate: float = 1e-3
    epochs: int = 100
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        check_training_fields(self)

    @classmethod
    def from_dict(cls, data: dict) -> "MLPConfig":
        data = dict(data)
        data["hidden_widths"] = tuple(data["hidden_widths"])
        return cls(**data)


class MLP:
    def __init__(self, config: MLPConfig, rng: np.random.RandomState):
        self.config = config
        self.variant: str | None = None  # the feature variant it reads; saved in its checkpoint
        self.layers: list[layers.Dense] = []
        prev = config.input_dim
        for i, width in enumerate(config.hidden_widths):
            self.layers.append(layers.Dense(prev, width, rng, name=f"mlp.h{i}"))
            prev = width
        self.out = layers.Dense(prev, config.output_dim, rng, name="mlp.out")
        for p in self.parameters():
            p.cast(np.float32)

    def forward(self, features, mode: str, rng: np.random.RandomState | None = None) -> Tensor:
        """One logit per label; dropout applies only in train mode."""
        x = T._as_tensor(features)
        if x.data.ndim != 2 or x.data.shape[1] != self.config.input_dim:
            raise ShapeError(
                f"expected (batch, {self.config.input_dim}) features, got {x.data.shape}"
            )
        if mode == "train" and self.config.dropout > 0.0:
            if rng is None:
                raise ValueError("train-mode forward needs an rng for dropout")
            x = T.dropout(x, self.config.dropout, mode, rng)
        for layer in self.layers:
            x = T.relu(layer(x))
        return self.out(x)

    def parameters(self) -> list[Parameter]:
        out = []
        for layer in self.layers:
            out.extend(layer.parameters())
        out.extend(self.out.parameters())
        return out

    def state(self) -> dict[str, np.ndarray]:
        return {p.name: p.data.copy() for p in self.parameters()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        load_parameters(self.parameters(), state)

    def save(self, path) -> None:
        meta = {"kind": KIND, "config": asdict(self.config)}
        if self.variant is not None:
            meta["variant"] = self.variant
        save_tensors(path, self.state(), meta)

    @classmethod
    def load(cls, path) -> "MLP":
        tensors, meta = load_tensors(path)
        if meta.get("kind") != KIND:
            raise CheckpointError(f"{path}: not an SVE MLP checkpoint")
        config = MLPConfig.from_dict(meta["config"])
        model = cls(config, np.random.RandomState(config.seed))
        model.variant = meta.get("variant")
        model.load_state(tensors)
        return model


def _dataset_loss(model: MLP, features: np.ndarray, targets: np.ndarray) -> float:
    logits = model.forward(Tensor(features), mode="infer")
    return float(T.sigmoid_binary_cross_entropy(logits, targets).data)


def _examples(features, targets, config: MLPConfig, name: str) -> tuple[np.ndarray, np.ndarray]:
    """``features`` and ``targets`` as float32 arrays. Raises ShapeError unless
    the features are (N, input_dim) with N >= 1 and the targets binary (N, output_dim)."""
    features = np.asarray(features, dtype=np.float32)
    targets = np.asarray(targets, dtype=np.float32)
    if features.ndim != 2 or features.shape[1] != config.input_dim:
        raise ShapeError(f"{name} features {features.shape} vs expected (N, {config.input_dim})")
    if features.shape[0] == 0:
        raise ShapeError(f"{name} set is empty")
    if targets.shape != (features.shape[0], config.output_dim):
        raise ShapeError(f"{name} targets {targets.shape} vs expected "
                         f"({features.shape[0]}, {config.output_dim})")
    if not np.isin(targets, (0.0, 1.0)).all():
        raise ShapeError(f"{name} targets must be binary")
    return features, targets


def train_mlp(features: np.ndarray, targets: np.ndarray, config: MLPConfig,
              val_features: np.ndarray | None = None,
              val_targets: np.ndarray | None = None) -> tuple[MLP, TrainHistory]:
    """Train on (N, input_dim) features and binary (N, K) targets, at float32.

    Checkpoints the best epoch by validation loss; without a validation set
    the training-set loss (evaluated in infer mode) drives the selection.
    Raises ShapeError before any training unless both sets are non-empty and
    binary at the config's widths, and ``val_features`` and ``val_targets`` are
    given together or not at all. Raises TrainingError at the first batch or
    epoch whose loss is not finite.
    """
    features, targets = _examples(features, targets, config, "training")
    if (val_features is None) != (val_targets is None):
        raise ShapeError("val_features and val_targets must be given together")
    if val_features is not None:
        val_features, val_targets = _examples(val_features, val_targets, config, "validation")

    rng = np.random.RandomState(config.seed)
    model = MLP(config, rng)
    params = model.parameters()
    state = AdamState(learning_rate=config.learning_rate)
    n = features.shape[0]

    def batches():
        order = rng.permutation(n)
        return [order[i : i + config.batch_size] for i in range(0, n, config.batch_size)]

    def batch_loss(batch):
        logits = model.forward(Tensor(features[batch]), mode="train", rng=rng)
        return T.sigmoid_binary_cross_entropy(logits, targets[batch]), batch.size

    def val_loss():
        return _dataset_loss(model, val_features, val_targets)

    # adam_step is looked up here at call time
    history = fit(model, config.epochs, batches, batch_loss,
                  update=lambda: adam_step(params, state),
                  val_loss=None if val_features is None else val_loss,
                  fallback_loss=lambda: _dataset_loss(model, features, targets), name="mlp")
    return model, history


def predict_sve(model: MLP, features: np.ndarray) -> np.ndarray:
    """Soft label probabilities (the sigmoid of the logits, float32), no
    thresholding; shape (N, K), or (K,) for one feature vector."""
    features = np.asarray(features, dtype=np.float32)
    single = features.ndim == 1
    if single:
        features = features.reshape(1, -1)
    probs = T.sigmoid(model.forward(Tensor(features), mode="infer")).data
    return probs[0] if single else probs
