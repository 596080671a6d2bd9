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
from .checkpoint import state_tensor
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
    variance 1, and counts the updates in the ``buffer.<name>.steps`` buffer. Infer
    mode applies frozen statistics with the start values' share m**t removed,
    as in Adam's bias correction: mean / (1 - m**t) and
    max((var - m**t) / (1 - m**t), 0). With t = 0 (untrained, or a checkpoint
    written without the step buffer) the raw buffers are used unchanged.

    The running statistics stay float64 whatever the width of the data; infer
    mode casts them to it (``T.batch_norm_infer``). In train mode ``counts``
    weighs each row as that many copies of itself (``T.batch_norm_train``);
    infer mode normalizes each row on its own and ignores it.
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

    def __call__(self, x: Tensor, mode: str, counts=None) -> Tensor:
        if mode == "train":
            out, mean, var = T.batch_norm_train(x, self.gamma, self.beta, self.eps, counts)
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
        """Named ``buffer.<name>.*``, apart from the parameters in a model's state."""
        name = f"buffer.{self.name}"
        return {f"{name}.running_mean": self.running_mean,
                f"{name}.running_var": self.running_var,
                f"{name}.steps": np.array(float(self.steps))}

    def load_buffers(self, state: dict[str, np.ndarray]) -> None:
        """Read ``buffers()`` back from a model's ``state``."""
        name = f"buffer.{self.name}"
        self.running_mean = state_tensor(state, f"{name}.running_mean", self.running_mean.shape)
        self.running_var = state_tensor(state, f"{name}.running_var", self.running_var.shape)
        steps = f"{name}.steps"  # absent from checkpoints written before the count
        self.steps = int(state_tensor(state, steps, ())) if steps in state else 0


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


def gru_sequence(xs, cells, masks=None, h0=None, reverse=False,
                 return_sequence: bool = False) -> Tensor:
    """Run D GRU cells over one time-major (T, batch, input) sequence as one autodiff node.

    ``cells`` is one GRUCellParams or a sequence of D of them, all of one shape;
    ``reverse`` is one flag for all cells or one per cell, and a reversed cell
    runs last step first. Per cell and step: z = sigmoid([h, x] @ W_z.T + b_z);
    r = sigmoid([h, x] @ W_r.T + b_r); h_hat = tanh([r*h, x] @ W.T + b);
    h' = (1 - z)*h + z*h_hat; with (T, batch) 0/1 ``masks``, m*h' + (1 - m)*h
    carries the state over masked-out steps. Starts from the (batch, D*hidden)
    ``h0`` (default zeros). Returns the final (batch, D*hidden) states or all
    (T, batch, D*hidden) states in input order; cell d owns columns
    d*hidden:(d+1)*hidden. Every buffer, the masks and the zero ``h0`` take
    the width of the input and the weights, so a float32 run stays float32.

    One time loop serves all D cells. The matrix products stay per cell, with
    the operands and memory layouts of a one-cell run, and write into stacked
    (D, batch, .) gate buffers; each elementwise op then runs once over the
    stack (in place in the forward), in the op order of ``tensor.linear`` and
    the activations. A D-cell run is therefore bitwise equal to D one-cell runs
    joined on the last axis, gradients included.

    The input projection stays in the loop: a row of a many-row BLAS product
    need not be bitwise equal to that row computed alone, and ``gru_cell_step``
    must reproduce a step of a sequence exactly. The backward is one BPTT loop
    over the stack, then per cell one weight, bias and input product over the
    T*batch rows in input-time order.
    """
    cells = (cells,) if isinstance(cells, GRUCellParams) else tuple(cells)
    rev = (reverse,) * len(cells) if isinstance(reverse, bool) else tuple(reverse)
    if not cells or len(rev) != len(cells) or any(
            c.W_z.data.shape != cells[0].W_z.data.shape for c in cells):
        raise ShapeError(f"gru_sequence needs one or more cells of one shape and one reverse "
                         f"flag per cell, got {len(cells)} cells and {len(rev)} flags")
    xs = T._as_tensor(xs)
    in_dim, hid, n_dir = cells[0].input_dim, cells[0].hidden, len(cells)
    if xs.data.ndim != 3 or xs.data.shape[0] < 1 or xs.data.shape[2] != in_dim:
        raise ShapeError(f"gru_sequence expects a non-empty (T, batch, {in_dim}) "
                         f"tensor, got {xs.data.shape}")
    steps, batch, _ = xs.data.shape
    width = n_dir * hid
    dtype = np.result_type(xs.data, cells[0].W_z.data)  # every buffer's width
    if h0 is not None:
        h0 = T._as_tensor(h0)
        if h0.data.shape != (batch, width):
            raise ShapeError(f"gru_sequence got h0 {h0.data.shape}, want {(batch, width)}")

    def step_order(parts):
        """One (T, ...) input-time array per cell -> (T, D, ...) in each cell's step order."""
        parts = [a[::-1] if r else a for a, r in zip(parts, rev)]
        return parts[0][:, None] if n_dir == 1 else np.stack(parts, axis=1)

    if masks is not None:
        masks = np.asarray(masks, dtype=dtype)
        if masks.shape != (steps, batch):
            raise ShapeError(f"gru_sequence got masks {masks.shape}, want {(steps, batch)}")
        # full (T, D, batch, hidden) operands: same-shape ops beat a broadcast per step
        masks = step_order([np.repeat(masks[:, :, None], hid, axis=2)] * n_dir)
        keep = 1.0 - masks

    # per cell, in its own step order: [h, x] in hx, then [r*h, x] in rhx
    hx = np.empty((n_dir, steps, batch, hid + in_dim), dtype)
    b_zr, b = np.empty((2, n_dir, 1, hid), dtype), np.empty((n_dir, 1, hid), dtype)
    mats = []  # (W_z.T, W_r.T, W.T) per cell
    for d, (c, r) in enumerate(zip(cells, rev)):
        hx[d, :, :, hid:] = xs.data[::-1] if r else xs.data
        b_zr[0, d, 0], b_zr[1, d, 0], b[d, 0] = c.b_z.data, c.b_r.data, c.b.data
        mats.append((c.W_z.data.T, c.W_r.data.T, c.W.data.T))
    rhx = hx.copy()
    gates = [None] * steps  # (z, r, h_hat) per step, each (D, batch, hid)
    states = np.empty((steps, n_dir, batch, hid), dtype)
    tmp = np.empty((n_dir, batch, hid), dtype)
    if h0 is None:
        h = h_start = np.zeros((n_dir, batch, hid), dtype)
    else:
        h = h_start = h0.data.reshape(batch, n_dir, hid).transpose(1, 0, 2)
    with np.errstate(over="ignore"):  # exp overflow gives a gate of exactly 0
        for i in range(steps):
            hx[:, i, :, :hid] = h
            zr, hh = np.empty((2, n_dir, batch, hid), dtype), np.empty((n_dir, batch, hid), dtype)
            h_new = states[i]
            for d, (w_z, w_r, _) in enumerate(mats):
                np.matmul(hx[d, i], w_z, out=zr[0, d])
                np.matmul(hx[d, i], w_r, out=zr[1, d])
            zr += b_zr
            np.negative(zr, out=zr)  # sigmoid as 1 / (1 + exp(-a))
            np.exp(zr, out=zr)
            zr += 1.0
            np.divide(1.0, zr, out=zr)
            z, r = zr[0], zr[1]
            np.multiply(r, h, out=rhx[:, i, :, :hid])
            for d, (_, _, w) in enumerate(mats):
                np.matmul(rhx[d, i], w, out=hh[d])
            hh += b
            np.tanh(hh, out=hh)
            np.subtract(1.0, z, out=h_new)
            h_new *= h
            np.multiply(z, hh, out=tmp)
            h_new += tmp
            if masks is not None:
                h_new *= masks[i]
                np.multiply(keep[i], h, out=tmp)
                h_new += tmp
            h = h_new
            gates[i] = z, r, hh

    params = [q for c in cells for q in c.parameters()]
    parents = (xs, *params) if h0 is None else (xs, h0, *params)
    out_req = any(q.requires_grad for q in parents)
    if return_sequence:
        parts = [states[::-1, d] if r else states[:, d] for d, r in enumerate(rev)]
        out = parts[0] if n_dir == 1 else np.concatenate(parts, axis=2)
    else:
        out = h.transpose(1, 0, 2).reshape(batch, width)

    def back(g):
        da = np.empty((n_dir, steps, batch, 3 * hid), dtype)  # pre-activation grads of z, r, h_hat
        w_h = [c.W.data[:, :hid] for c in cells]
        w_rec = [np.concatenate([c.W_z.data[:, :hid], c.W_r.data[:, :hid]]) for c in cells]
        d_rh = np.empty((n_dir, batch, hid), dtype)
        if return_sequence:
            g_steps = step_order(np.moveaxis(g.reshape(steps, batch, n_dir, hid), 2, 0))
            dh = np.zeros((n_dir, batch, hid), dtype)
        else:
            dh = g.reshape(batch, n_dir, hid).transpose(1, 0, 2)
        for i in range(steps - 1, -1, -1):
            if return_sequence:
                dh += g_steps[i]
            h_prev, (z, r, hh) = states[i - 1] if i else h_start, gates[i]
            d_new = dh if masks is None else masks[i] * dh
            one_m_z = 1.0 - z
            dh_prev = d_new * one_m_z
            if masks is not None:
                dh_prev += keep[i] * dh
            da_h = d_new * z * (1.0 - hh * hh)
            for d in range(n_dir):
                np.matmul(da_h[d], w_h[d], out=d_rh[d])
            da[:, i, :, :hid] = d_new * (hh - h_prev) * z * one_m_z
            da[:, i, :, hid : 2 * hid] = d_rh * h_prev * r * (1.0 - r)
            da[:, i, :, 2 * hid:] = da_h
            d_rh *= r
            dh_prev += d_rh
            for d in range(n_dir):
                dh_prev[d] += da[d, i, :, : 2 * hid] @ w_rec[d]
            dh = dh_prev

        rows = steps * batch
        for d, (c, r) in enumerate(zip(cells, rev)):
            order = slice(None, None, -1 if r else 1)  # back to input-time rows
            flat = da[d, order].reshape(rows, 3 * hid)
            d_w_zr = flat[:, : 2 * hid].T @ hx[d, order].reshape(rows, -1)
            d_w = flat[:, 2 * hid:].T @ rhx[d, order].reshape(rows, -1)
            grads = [d_w_zr[:hid], d_w_zr[hid:], d_w, *np.split(flat.sum(axis=0), 3)]
            for q, dq in zip(c.parameters(), grads):
                T._accumulate(q, dq)
            if xs.requires_grad:
                w_in = np.concatenate([c.W_z.data[:, hid:], c.W_r.data[:, hid:], c.W.data[:, hid:]])
                T._accumulate(xs, (flat @ w_in).reshape(steps, batch, in_dim))
        if h0 is not None:
            T._accumulate(h0, dh.transpose(1, 0, 2).reshape(batch, width))

    return Tensor(out, out_req, parents, back if out_req else None)


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
    """Two GRU cells over the sequence, the second time-reversed, run as one
    two-cell ``gru_sequence``: one autodiff node, forward half first."""

    def __init__(self, input_dim: int, hidden: int, rng, name: str = "bigru"):
        self.fwd = GRUCellParams.create(input_dim, hidden, rng, name=f"{name}.fwd")
        self.bwd = GRUCellParams.create(input_dim, hidden, rng, name=f"{name}.bwd")

    @property
    def hidden(self) -> int:
        return self.fwd.hidden

    def run(self, xs: Tensor, return_sequence: bool = False) -> Tensor:
        """(T, batch, 2*hidden) per-step states, or the (batch, 2*hidden) final
        states, of a time-major (T, batch, input) tensor; forward half first."""
        return gru_sequence(xs, (self.fwd, self.bwd), reverse=(False, True),
                            return_sequence=return_sequence)

    def parameters(self) -> list[Parameter]:
        return [*self.fwd.parameters(), *self.bwd.parameters()]
