"""Layers over the autodiff tensor core: dense, embedding, batch norm, GRU, BiGRU.

A layer owns named Parameters plus any non-trainable buffers; models collect
both through ``parameters()`` / ``buffers()`` for the optimizer and the
checkpoint container. Recurrent matrices start orthogonal, everything else
Glorot-uniform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from . import tensor as T
from .tensor import Parameter, Tensor


def glorot_uniform(rng: np.random.RandomState, fan_out: int, fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


def orthogonal(rng: np.random.RandomState, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))  # sign-fix makes the factorization unique


class Dense:
    def __init__(self, in_dim: int, out_dim: int, rng, bias: bool = True, name: str = "dense"):
        self.weights = Parameter(glorot_uniform(rng, out_dim, in_dim), f"{name}.weights")
        self.bias = Parameter(np.zeros(out_dim), f"{name}.bias") if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weights, self.bias)

    def parameters(self) -> list[Parameter]:
        return [self.weights] + ([self.bias] if self.bias is not None else [])


def dense(x, weights, bias=None) -> Tensor:
    """Functional dense layer: x @ W.T + b."""
    return T.linear(x, weights, bias)


class Embedding:
    def __init__(self, vocab_size: int, dim: int, rng, init: np.ndarray | None = None,
                 name: str = "embedding"):
        if init is not None:
            if init.shape != (vocab_size, dim):
                raise ShapeError(f"embedding init {init.shape} vs ({vocab_size}, {dim})")
            table = np.array(init, dtype=np.float64)
        else:
            table = rng.uniform(-0.05, 0.05, size=(vocab_size, dim))
        self.table = Parameter(table, f"{name}.table")

    def __call__(self, indices) -> Tensor:
        return T.embedding_lookup(self.table, indices)

    def parameters(self) -> list[Parameter]:
        return [self.table]


class BatchNorm:
    """Feature-wise batch normalization with running statistics.

    Train mode uses batch statistics (batch >= 2) and updates the running
    mean/variance, an EMA with momentum m = 0.99 that starts at mean 0 and
    variance 1, and counts the updates in the ``<name>.steps`` buffer. Infer
    mode applies frozen statistics with the start values' share m**t removed,
    as in Adam's bias correction: mean / (1 - m**t) and
    max((var - m**t) / (1 - m**t), 0). With t = 0 (untrained, or a checkpoint
    written without the step buffer) the raw buffers are used unchanged.
    """

    def __init__(self, dim: int, momentum: float = 0.99, eps: float = 1e-5, name: str = "bn"):
        self.gamma = Parameter(np.ones(dim), f"{name}.gamma")
        self.beta = Parameter(np.zeros(dim), f"{name}.beta")
        self.momentum = momentum
        self.eps = eps
        self.name = name
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)
        self.steps = 0

    def __call__(self, x: Tensor, mode: str, update_running: bool = True) -> Tensor:
        if mode == "train":
            out, mean, var = T.batch_norm_train(x, self.gamma, self.beta, self.eps)
            if update_running:
                m = self.momentum
                self.running_mean = m * self.running_mean + (1.0 - m) * mean
                self.running_var = m * self.running_var + (1.0 - m) * var
                self.steps += 1
            return out
        if mode == "infer":
            mean, var = self.running_mean, self.running_var
            start_share = self.momentum ** self.steps
            if start_share < 1.0:
                mean = mean / (1.0 - start_share)
                var = np.maximum((var - start_share) / (1.0 - start_share), 0.0)
            return T.batch_norm_infer(x, self.gamma, self.beta, mean, var, self.eps)
        raise ValueError(f"mode must be train or infer, got {mode!r}")

    def parameters(self) -> list[Parameter]:
        return [self.gamma, self.beta]

    def buffers(self) -> dict[str, np.ndarray]:
        return {f"{self.name}.running_mean": self.running_mean,
                f"{self.name}.running_var": self.running_var,
                f"{self.name}.steps": np.array(float(self.steps))}

    def load_buffers(self, values: dict[str, np.ndarray]):
        self.running_mean = np.array(values[f"{self.name}.running_mean"], dtype=np.float64).ravel()
        self.running_var = np.array(values[f"{self.name}.running_var"], dtype=np.float64).ravel()
        self.steps = int(values.get(f"{self.name}.steps", 0))


# ---------------------------------------------------------------------------
# GRU
# ---------------------------------------------------------------------------


@dataclass
class GRUCellParams:
    """Gate weights of shape (hidden, hidden + input); biases optional.

    Column order matches the concatenation [h_prev, x].
    """

    W_z: Parameter
    W_r: Parameter
    W: Parameter
    b_z: Parameter | None = None
    b_r: Parameter | None = None
    b: Parameter | None = None

    @property
    def hidden(self) -> int:
        return self.W_z.data.shape[0]

    @property
    def input_dim(self) -> int:
        return self.W_z.data.shape[1] - self.W_z.data.shape[0]

    @classmethod
    def create(cls, input_dim: int, hidden: int, rng, bias: bool = True,
               name: str = "gru") -> "GRUCellParams":
        def gate(label):
            w = np.empty((hidden, hidden + input_dim))
            w[:, :hidden] = orthogonal(rng, hidden)
            w[:, hidden:] = glorot_uniform(rng, hidden, input_dim)
            return Parameter(w, f"{name}.{label}")

        params = cls(W_z=gate("W_z"), W_r=gate("W_r"), W=gate("W"))
        if bias:
            params.b_z = Parameter(np.zeros(hidden), f"{name}.b_z")
            params.b_r = Parameter(np.zeros(hidden), f"{name}.b_r")
            params.b = Parameter(np.zeros(hidden), f"{name}.b")
        return params

    def parameters(self) -> list[Parameter]:
        out = [self.W_z, self.W_r, self.W]
        out += [b for b in (self.b_z, self.b_r, self.b) if b is not None]
        return out


def gru_cell_step(x_t: Tensor, h_prev: Tensor, p: GRUCellParams) -> Tensor:
    """One GRU step on a (batch, input) slice.

    z = sigmoid(W_z [h, x]); r = sigmoid(W_r [h, x]);
    h_hat = tanh(W [r*h, x]); h' = (1 - z)*h + z*h_hat.
    """
    x_t, h_prev = T._as_tensor(x_t), T._as_tensor(h_prev)
    if x_t.data.ndim != 2 or h_prev.data.ndim != 2:
        raise ShapeError("gru_cell_step expects 2-D (batch, dim) tensors")
    if x_t.data.shape[1] != p.input_dim or h_prev.data.shape[1] != p.hidden:
        raise ShapeError(
            f"gru_cell_step got x={x_t.data.shape} h={h_prev.data.shape} "
            f"for cell (input={p.input_dim}, hidden={p.hidden})"
        )
    hx = T.concat([h_prev, x_t], axis=1)
    z = T.sigmoid(T.linear(hx, p.W_z, p.b_z))
    r = T.sigmoid(T.linear(hx, p.W_r, p.b_r))
    rhx = T.concat([T.mul(r, h_prev), x_t], axis=1)
    h_hat = T.tanh(T.linear(rhx, p.W, p.b))
    return T.add(T.mul(T.sub(1.0, z), h_prev), T.mul(z, h_hat))


def run_gru(steps: list[Tensor], p: GRUCellParams, masks=None,
            return_sequence: bool = False, h0: Tensor | None = None):
    """Iterate the cell over a list of (batch, input) step tensors.

    ``masks[t]`` is an optional (batch, 1) 0/1 array; masked-out steps carry
    the previous state forward, so padded positions never touch the state.
    Returns the final state or the list of per-step states.
    """
    if not steps:
        raise ShapeError("empty input sequence")
    batch = steps[0].data.shape[0]
    h = h0 if h0 is not None else Tensor(np.zeros((batch, p.hidden)))
    outputs = []
    for t, x_t in enumerate(steps):
        h_new = gru_cell_step(x_t, h, p)
        if masks is not None:
            m = masks[t].reshape(batch, 1)
            h = T.add(T.mul(Tensor(m), h_new), T.mul(Tensor(1.0 - m), h))
        else:
            h = h_new
        if return_sequence:
            outputs.append(h)
    return outputs if return_sequence else h


def gru_forward(seq: Tensor, p: GRUCellParams, return_sequence: bool = False):
    """Run a single (T, input) sequence from h0 = 0; returns (T, hidden) or (hidden,)."""
    seq = T._as_tensor(seq)
    if seq.data.ndim != 2 or seq.data.shape[0] < 1:
        raise ShapeError(f"gru_forward expects a non-empty (T, input) tensor, got {seq.data.shape}")
    steps = [T.row_slice(seq, t, t + 1) for t in range(seq.data.shape[0])]
    out = run_gru(steps, p, return_sequence=return_sequence)
    if return_sequence:
        return T.concat(out, axis=0)
    return out  # (1, hidden)


def bigru_forward(seq: Tensor, p_fwd: GRUCellParams, p_bwd: GRUCellParams) -> Tensor:
    """Forward pass plus a time-reversed pass, concatenated per step: (T, 2h)."""
    seq = T._as_tensor(seq)
    if seq.data.ndim != 2 or seq.data.shape[0] < 1:
        raise ShapeError(f"bigru_forward expects a non-empty (T, input) tensor")
    n = seq.data.shape[0]
    steps = [T.row_slice(seq, t, t + 1) for t in range(n)]
    fwd = run_gru(steps, p_fwd, return_sequence=True)
    bwd = run_gru(steps[::-1], p_bwd, return_sequence=True)[::-1]
    rows = [T.concat([f, b], axis=1) for f, b in zip(fwd, bwd)]
    return T.concat(rows, axis=0)


class GRU:
    def __init__(self, input_dim: int, hidden: int, rng, bias: bool = True, name: str = "gru"):
        self.cell = GRUCellParams.create(input_dim, hidden, rng, bias=bias, name=name)

    @property
    def hidden(self) -> int:
        return self.cell.hidden

    def run(self, steps, masks=None, return_sequence: bool = False):
        return run_gru(steps, self.cell, masks=masks, return_sequence=return_sequence)

    def step(self, x_t: Tensor, h_prev: Tensor) -> Tensor:
        """One step from state ``h_prev``: the same ops ``run`` applies per step."""
        return gru_cell_step(x_t, h_prev, self.cell)

    def parameters(self) -> list[Parameter]:
        return self.cell.parameters()


class BiGRU:
    """Two GRUs over the sequence, one time-reversed; outputs concatenated."""

    def __init__(self, input_dim: int, hidden: int, rng, bias: bool = True, name: str = "bigru"):
        self.fwd = GRUCellParams.create(input_dim, hidden, rng, bias=bias, name=f"{name}.fwd")
        self.bwd = GRUCellParams.create(input_dim, hidden, rng, bias=bias, name=f"{name}.bwd")

    @property
    def hidden(self) -> int:
        return self.fwd.hidden

    def run(self, steps: list[Tensor], return_sequence: bool = False):
        fwd = run_gru(steps, self.fwd, return_sequence=return_sequence)
        bwd = run_gru(steps[::-1], self.bwd, return_sequence=return_sequence)
        if return_sequence:
            return [T.concat([f, b], axis=1) for f, b in zip(fwd, bwd[::-1])]
        return T.concat([fwd, bwd], axis=1)

    def parameters(self) -> list[Parameter]:
        return [*self.fwd.parameters(), *self.bwd.parameters()]
