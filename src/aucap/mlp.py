"""Multilabel MLP that predicts subject-verb probabilities from audio features.

Six ReLU hidden layers by default, dropout on the input connections, sigmoid
outputs trained with per-label binary cross-entropy and Adam. Training keeps
the parameters from the epoch with the lowest validation loss.
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

    def forward(self, features, mode: str, rng: np.random.RandomState | None = None) -> Tensor:
        """Probabilities in (0, 1) per label; dropout applies only in train mode."""
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
        return T.sigmoid(self.out(x))

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
    probs = model.forward(Tensor(features), mode="infer")
    return float(T.binary_cross_entropy(probs, targets).data)


def train_mlp(features: np.ndarray, targets: np.ndarray, config: MLPConfig,
              val_features: np.ndarray | None = None,
              val_targets: np.ndarray | None = None) -> tuple[MLP, TrainHistory]:
    """Train on (N, input_dim) features and binary (N, K) targets.

    Checkpoints the best epoch by validation loss; without a validation set
    the training-set loss (evaluated in infer mode) drives the selection.
    Raises TrainingError at the first batch or epoch whose loss is not finite.
    """
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if features.shape[0] == 0:
        raise ShapeError("training set is empty")
    if targets.shape != (features.shape[0], config.output_dim):
        raise ShapeError(f"targets {targets.shape} vs expected ({features.shape[0]}, {config.output_dim})")
    if not np.isin(targets, (0.0, 1.0)).all():
        raise ShapeError("targets must be binary")

    rng = np.random.RandomState(config.seed)
    model = MLP(config, rng)
    params = model.parameters()
    state = AdamState(learning_rate=config.learning_rate)
    n = features.shape[0]

    def batches():
        order = rng.permutation(n)
        return [order[i : i + config.batch_size] for i in range(0, n, config.batch_size)]

    def batch_loss(batch):
        probs = model.forward(Tensor(features[batch]), mode="train", rng=rng)
        return T.binary_cross_entropy(probs, targets[batch]), batch.size

    def val_loss():
        return _dataset_loss(model, val_features, val_targets)

    # adam_step is looked up here at call time
    history = fit(model, config.epochs, batches, batch_loss,
                  update=lambda: adam_step(params, state),
                  val_loss=None if val_features is None else val_loss,
                  fallback_loss=lambda: _dataset_loss(model, features, targets), name="mlp")
    return model, history


def predict_sve(model: MLP, features: np.ndarray) -> np.ndarray:
    """Soft label probabilities, no thresholding; shape (N, K)."""
    features = np.asarray(features, dtype=np.float64)
    single = features.ndim == 1
    if single:
        features = features.reshape(1, -1)
    probs = model.forward(Tensor(features), mode="infer").data
    return probs[0] if single else probs
