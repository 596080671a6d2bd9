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
    def __init__(self, in_dim: int, out_dim: int, rng, name: str = "dense"):
        self.weights = Parameter(glorot_uniform(rng, out_dim, in_dim), f"{name}.weights")
        self.bias = Parameter(np.zeros(out_dim), f"{name}.bias")

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weights, self.bias)

    def parameters(self) -> list[Parameter]:
        return [self.weights, self.bias]


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
    """Gate weights of shape (hidden, hidden + input) and (hidden,) biases.

    Column order matches the concatenation [h_prev, x].
    """

    W_z: Parameter
    W_r: Parameter
    W: Parameter
    b_z: Parameter
    b_r: Parameter
    b: Parameter

    @property
    def hidden(self) -> int:
        return self.W_z.data.shape[0]

    @property
    def input_dim(self) -> int:
        return self.W_z.data.shape[1] - self.W_z.data.shape[0]

    @classmethod
    def create(cls, input_dim: int, hidden: int, rng, name: str = "gru") -> "GRUCellParams":
        def gate(label):
            w = np.empty((hidden, hidden + input_dim))
            w[:, :hidden] = orthogonal(rng, hidden)
            w[:, hidden:] = glorot_uniform(rng, hidden, input_dim)
            return Parameter(w, f"{name}.{label}")

        return cls(W_z=gate("W_z"), W_r=gate("W_r"), W=gate("W"),
                   b_z=Parameter(np.zeros(hidden), f"{name}.b_z"),
                   b_r=Parameter(np.zeros(hidden), f"{name}.b_r"),
                   b=Parameter(np.zeros(hidden), f"{name}.b"))

    def parameters(self) -> list[Parameter]:
        return [self.W_z, self.W_r, self.W, self.b_z, self.b_r, self.b]


def gru_sequence(xs, cell: GRUCellParams, masks=None, h0=None, reverse: bool = False,
                 return_sequence: bool = False) -> Tensor:
    """Run the GRU over a time-major (T, batch, input) sequence as one autodiff node.

    Per step: z = sigmoid([h, x] @ W_z.T + b_z); r = sigmoid([h, x] @ W_r.T + b_r);
    h_hat = tanh([r*h, x] @ W.T + b); h' = (1 - z)*h + z*h_hat; with (T, batch)
    0/1 ``masks``, m*h' + (1 - m)*h carries the state over masked-out steps.
    Starts from ``h0`` (default zeros); ``reverse`` runs last step first. Returns
    the final (batch, hidden) state or all (T, batch, hidden) states in input order.

    The input projection stays in the loop: a row of a many-row BLAS product
    need not be bitwise equal to that row computed alone, and ``gru_cell_step``
    must reproduce a step of a sequence exactly. The backward is one BPTT loop.
    """
    xs = T._as_tensor(xs)
    if xs.data.ndim != 3 or xs.data.shape[0] < 1 or xs.data.shape[2] != cell.input_dim:
        raise ShapeError(f"gru_sequence expects a non-empty (T, batch, {cell.input_dim}) "
                         f"tensor, got {xs.data.shape}")
    steps, batch, in_dim = xs.data.shape
    hid = cell.hidden
    if h0 is not None:
        h0 = T._as_tensor(h0)
        if h0.data.shape != (batch, hid):
            raise ShapeError(f"gru_sequence got h0 {h0.data.shape}, want {(batch, hid)}")
    if masks is not None:
        masks = np.asarray(masks, dtype=np.float64)
        if masks.shape != (steps, batch):
            raise ShapeError(f"gru_sequence got masks {masks.shape}, want {(steps, batch)}")
        masks = masks.reshape(steps, batch, 1)

    W_z, W_r, W = cell.W_z.data, cell.W_r.data, cell.W.data
    b_z, b_r, b = cell.b_z.data, cell.b_r.data, cell.b.data
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    hx = np.empty((steps, batch, hid + in_dim))  # [h, x] per step, then [r*h, x] in rhx
    hx[:, :, hid:] = xs.data
    rhx = hx.copy()
    gates = [None] * steps  # (z, r, h_hat) per step
    states = np.empty((steps, batch, hid))
    h = h0.data if h0 is not None else np.zeros((batch, hid))
    with np.errstate(over="ignore"):  # exp overflow gives a gate of exactly 0
        for t in order:
            hx[t, :, :hid] = h
            # x @ w.T + b per gate, in the op order of ``tensor.linear``
            z = 1.0 / (1.0 + np.exp(-(hx[t] @ W_z.T + b_z)))
            r = 1.0 / (1.0 + np.exp(-(hx[t] @ W_r.T + b_r)))
            rhx[t, :, :hid] = r * h
            hh = np.tanh(rhx[t] @ W.T + b)
            h_new = (1.0 - z) * h + z * hh
            if masks is not None:
                h_new = masks[t] * h_new + (1.0 - masks[t]) * h
            h = states[t] = h_new
            gates[t] = (z, r, hh)

    params = cell.parameters()
    parents = (xs, *params) if h0 is None else (xs, h0, *params)
    out_req = any(q.requires_grad for q in parents)

    def back(g):
        da = np.empty((steps, batch, 3 * hid))  # pre-activation gradients of z, r, h_hat
        w_rec = np.concatenate([W_z[:, :hid], W_r[:, :hid]])
        dh = np.zeros((batch, hid)) if return_sequence else g
        for t in reversed(order):
            if return_sequence:
                dh = dh + g[t]
            h_prev, (z, r, hh) = hx[t, :, :hid], gates[t]
            d_new = dh if masks is None else masks[t] * dh
            dh_prev = d_new * (1.0 - z)
            if masks is not None:
                dh_prev += (1.0 - masks[t]) * dh
            da_h = da[t, :, 2 * hid:] = d_new * z * (1.0 - hh * hh)
            da[t, :, :hid] = d_new * (hh - h_prev) * z * (1.0 - z)
            d_rh = da_h @ W[:, :hid]
            da[t, :, hid : 2 * hid] = d_rh * h_prev * r * (1.0 - r)
            dh_prev += d_rh * r
            dh_prev += da[t, :, : 2 * hid] @ w_rec
            dh = dh_prev

        flat = da.reshape(steps * batch, 3 * hid)
        d_w_zr = flat[:, : 2 * hid].T @ hx.reshape(steps * batch, -1)
        grads = [d_w_zr[:hid], d_w_zr[hid:], flat[:, 2 * hid:].T @ rhx.reshape(steps * batch, -1),
                 *np.split(flat.sum(axis=0), 3)]
        for q, d in zip(params, grads):
            T._accumulate(q, d)
        if xs.requires_grad:
            w_in = np.concatenate([W_z[:, hid:], W_r[:, hid:], W[:, hid:]])
            T._accumulate(xs, (flat @ w_in).reshape(steps, batch, in_dim))
        if h0 is not None:
            T._accumulate(h0, dh)

    return Tensor(states if return_sequence else h, out_req, parents, back if out_req else None)


def gru_cell_step(x_t: Tensor, h_prev: Tensor, p: GRUCellParams) -> Tensor:
    """One GRU step on a (batch, input) slice: ``gru_sequence`` at T = 1 from ``h_prev``."""
    x_t = T._as_tensor(x_t)
    return gru_sequence(T.reshape(x_t, (1, *x_t.data.shape)), p, h0=h_prev)


class GRU:
    def __init__(self, input_dim: int, hidden: int, rng, name: str = "gru"):
        self.cell = GRUCellParams.create(input_dim, hidden, rng, name=name)

    @property
    def hidden(self) -> int:
        return self.cell.hidden

    def run(self, xs: Tensor, masks=None, return_sequence: bool = False) -> Tensor:
        """``gru_sequence`` over a time-major (T, batch, input) tensor from h0 = 0."""
        return gru_sequence(xs, self.cell, masks=masks, return_sequence=return_sequence)

    def step(self, x_t: Tensor, h_prev: Tensor) -> Tensor:
        """One step from state ``h_prev``: the same ops ``run`` applies per step."""
        return gru_cell_step(x_t, h_prev, self.cell)

    def parameters(self) -> list[Parameter]:
        return self.cell.parameters()


class BiGRU:
    """Two GRUs over the sequence, one time-reversed; outputs concatenated."""

    def __init__(self, input_dim: int, hidden: int, rng, name: str = "bigru"):
        self.fwd = GRUCellParams.create(input_dim, hidden, rng, name=f"{name}.fwd")
        self.bwd = GRUCellParams.create(input_dim, hidden, rng, name=f"{name}.bwd")

    @property
    def hidden(self) -> int:
        return self.fwd.hidden

    def run(self, xs: Tensor, return_sequence: bool = False) -> Tensor:
        """(T, batch, 2*hidden) per-step states, or the (batch, 2*hidden) final
        states, of a time-major (T, batch, input) tensor; forward half first."""
        fwd = gru_sequence(xs, self.fwd, return_sequence=return_sequence)
        bwd = gru_sequence(xs, self.bwd, reverse=True, return_sequence=return_sequence)
        return T.concat([fwd, bwd], axis=fwd.data.ndim - 1)

    def parameters(self) -> list[Parameter]:
        return [*self.fwd.parameters(), *self.bwd.parameters()]
