"""Layers over the autodiff tensor core: dense, embedding, batch norm, GRU, BiGRU.

A layer owns named Parameters plus any non-trainable buffers; models collect
both through ``parameters()`` / ``buffers()`` for the optimizer and the
checkpoint container. Recurrent matrices start orthogonal, everything else
Glorot-uniform, each drawn at float64 and stored at float32. With ``rng=None``
nothing is drawn: the weights stay uninitialized, for a state loaded next.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from . import tensor as T
from .checkpoint import state_tensor
from .tensor import BN_EPS, Parameter, Tensor

BN_MOMENTUM = 0.99  # of the batch-norm running statistics' EMA


def glorot_uniform(rng: np.random.RandomState, fan_out: int, fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


def orthogonal(rng: np.random.RandomState, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))  # sign-fix makes the factorization unique


def _drawn(rng, draw, *shape: int) -> np.ndarray:
    """``draw(rng, *shape)`` at float32, or uninitialized float32 when ``rng`` is None."""
    return np.empty(shape, np.float32) if rng is None else draw(rng, *shape).astype(np.float32)


class Dense:
    def __init__(self, in_dim: int, out_dim: int, rng, name: str = "dense"):
        self.weights = Parameter(_drawn(rng, glorot_uniform, out_dim, in_dim), f"{name}.weights")
        self.bias = Parameter(np.zeros(out_dim, np.float32), f"{name}.bias")

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
            table = np.array(init, dtype=np.float32)
        else:
            table = _drawn(rng, lambda r, *size: r.uniform(-0.05, 0.05, size), vocab_size, dim)
        self.table = Parameter(table, f"{name}.table")

    def __call__(self, indices) -> Tensor:
        return T.embedding_lookup(self.table, indices)

    def parameters(self) -> list[Parameter]:
        return [self.table]


class BatchNorm:
    """Feature-wise batch normalization with running statistics.

    Train mode uses batch statistics (batch >= 2) and updates the running
    mean/variance, an EMA with momentum m = ``BN_MOMENTUM`` that starts at mean 0 and
    variance 1, and counts the updates in the ``buffer.<name>.steps`` buffer. Infer
    mode applies frozen statistics with the start values' share m**t removed,
    as in Adam's bias correction: mean / (1 - m**t) and
    max((var - m**t) / (1 - m**t), 0). With t = 0 (untrained, or a checkpoint
    written without the step buffer) the raw buffers are used unchanged.

    The running statistics stay float64 whatever the width of the data; infer
    mode casts them to it (``infer_statistics``). In train mode ``counts``
    weighs each row as that many copies of itself (``T.batch_norm_train``);
    infer mode normalizes each row on its own and ignores it.
    """

    def __init__(self, dim: int, name: str = "bn"):
        self.gamma = Parameter(np.ones(dim, np.float32), f"{name}.gamma")
        self.beta = Parameter(np.zeros(dim, np.float32), f"{name}.beta")
        self.name = name
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)
        self.steps = 0

    def __call__(self, x: Tensor, mode: str, counts=None) -> Tensor:
        if mode == "train":
            out, mean, var = T.batch_norm_train(x, self.gamma, self.beta, counts)
            m = BN_MOMENTUM
            self.running_mean = m * self.running_mean + (1.0 - m) * mean
            self.running_var = m * self.running_var + (1.0 - m) * var
            self.steps += 1
            return out
        if mode == "infer":
            return T.batch_norm_infer(x, self.gamma, self.beta,
                                      *self.infer_statistics(x.data.dtype))
        raise ValueError(f"mode must be train or infer, got {mode!r}")

    def infer_statistics(self, width) -> tuple[np.ndarray, np.ndarray]:
        """Infer mode's (mean, 1 / sqrt(var + eps)): bias-corrected and computed
        in float64 from the running statistics, then cast to ``width``."""
        mean, var = self.running_mean, self.running_var
        start_share = BN_MOMENTUM ** self.steps
        if start_share < 1.0:
            mean = mean / (1.0 - start_share)
            var = np.maximum((var - start_share) / (1.0 - start_share), 0.0)
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        return mean.astype(width, copy=False), inv_std.astype(width, copy=False)

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
        for buf, stat in ((self.running_mean, "running_mean"), (self.running_var, "running_var")):
            np.copyto(buf, state_tensor(state, f"{name}.{stat}", buf.shape))
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
            w = np.empty((hidden, hidden + input_dim), np.float32)
            if rng is not None:  # each draw is cast as it is stored
                w[:, :hidden] = orthogonal(rng, hidden)
                w[:, hidden:] = glorot_uniform(rng, hidden, input_dim)
            return Parameter(w, f"{name}.{label}")

        zeros = [Parameter(np.zeros(hidden, np.float32), f"{name}.{label}")
                 for label in ("b_z", "b_r", "b")]
        return cls(gate("W_z"), gate("W_r"), gate("W"), *zeros)

    def parameters(self) -> list[Parameter]:
        return [self.W_z, self.W_r, self.W, self.b_z, self.b_r, self.b]


class GRUStep:
    """One time step of D GRU cells of one shape, on plain arrays: the body of
    ``gru_sequence``'s time loop, which greedy decoding also runs token by token.

    Built once per run: each cell's W_z.T, W_r.T and W.T stay transposed
    views of the weights (a C-contiguous copy would let BLAS round
    differently), and the biases are stacked at ``dtype`` as (2, D, 1, hidden)
    for z and r and (D, 1, hidden) for h_hat. A call takes (D, batch, .)
    buffers at ``dtype``: the states ``h`` and ``h_new``, which must not
    overlap; ``hx`` and ``rhx``, whose last ``input_dim`` columns hold each
    cell's input and whose first ``hidden`` get h and r*h; ``zr`` (2, D,
    batch, hidden), which gets z and r; and ``hh``, which gets h_hat. It
    writes the next states to ``h_new``. The caller ignores exp overflow,
    which gives a gate of exactly 0.

    The matrix products stay per cell, with the operands and memory layouts
    of a one-cell run; each elementwise op then runs once over the stack, in
    place, the gates through ``tensor._sigmoid``.
    """

    def __init__(self, cells, batch: int, dtype):
        hid, n_dir = cells[0].hidden, len(cells)
        self.mats = [(c.W_z.data.T, c.W_r.data.T, c.W.data.T) for c in cells]
        self.b_zr, self.b = np.empty((2, n_dir, 1, hid), dtype), np.empty((n_dir, 1, hid), dtype)
        for d, c in enumerate(cells):
            self.b_zr[0, d, 0], self.b_zr[1, d, 0], self.b[d, 0] = c.b_z.data, c.b_r.data, c.b.data
        self.tmp = np.empty((n_dir, batch, hid), dtype)

    def __call__(self, h, h_new, hx, rhx, zr, hh) -> None:
        hid = h.shape[-1]
        hx[:, :, :hid] = h
        for d, (w_z, w_r, _) in enumerate(self.mats):
            np.matmul(hx[d], w_z, out=zr[0, d])
            np.matmul(hx[d], w_r, out=zr[1, d])
        zr += self.b_zr
        T._sigmoid(zr, out=zr)
        z, r = zr[0], zr[1]
        np.multiply(r, h, out=rhx[:, :, :hid])
        for d, (_, _, w) in enumerate(self.mats):
            np.matmul(rhx[d], w, out=hh[d])
        hh += self.b
        np.tanh(hh, out=hh)
        np.subtract(1.0, z, out=h_new)
        h_new *= h
        np.multiply(z, hh, out=self.tmp)
        h_new += self.tmp


def gru_sequence(xs, cells, h0=None, reverse=False, return_sequence: bool = False) -> Tensor:
    """Run D GRU cells over one time-major (T, batch, input) sequence as one autodiff node.

    ``cells`` is one GRUCellParams or a sequence of D of them, all of one shape;
    ``reverse`` is one flag for all cells or one per cell, and a reversed cell
    runs last step first. Per cell and step: z = sigmoid([h, x] @ W_z.T + b_z);
    r = sigmoid([h, x] @ W_r.T + b_r); h_hat = tanh([r*h, x] @ W.T + b);
    h' = (1 - z)*h + z*h_hat. Starts from the (batch, D*hidden) ``h0``
    (default zeros). Returns the final (batch, D*hidden) states or all
    (T, batch, D*hidden) states in input order; cell d owns columns
    d*hidden:(d+1)*hidden. Every buffer and the zero ``h0`` take the width of
    the input and the weights, so a float32 run stays float32.

    One time loop serves all D cells, one ``GRUStep`` per step into stacked
    (D, batch, .) gate buffers. A D-cell run is therefore bitwise equal to D
    one-cell runs joined on the last axis, gradients included.

    The input projection stays in the loop: a row of a many-row BLAS product
    need not be bitwise equal to that row computed alone, and ``gru_cell_step``
    and greedy decoding must reproduce a step of a sequence exactly. The
    backward is one BPTT loop over the stack, then per cell one weight, bias
    and input product over the T*batch rows in input-time order.
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

    # per cell, in its own step order: [h, x] in hx, then [r*h, x] in rhx
    hx = np.empty((n_dir, steps, batch, hid + in_dim), dtype)
    for d, r in enumerate(rev):
        hx[d, :, :, hid:] = xs.data[::-1] if r else xs.data
    rhx = hx.copy()
    step = GRUStep(cells, batch, dtype)
    gates = [None] * steps  # (z, r, h_hat) per step, each (D, batch, hid)
    states = np.empty((steps, n_dir, batch, hid), dtype)
    if h0 is None:
        h = h_start = np.zeros((n_dir, batch, hid), dtype)
    else:
        h = h_start = h0.data.reshape(batch, n_dir, hid).transpose(1, 0, 2)
    with np.errstate(over="ignore"):  # exp overflow gives a gate of exactly 0
        for i in range(steps):
            zr, hh = np.empty((2, n_dir, batch, hid), dtype), np.empty((n_dir, batch, hid), dtype)
            step(h, states[i], hx[:, i], rhx[:, i], zr, hh)
            h = states[i]
            gates[i] = zr[0], zr[1], hh

    params = [q for c in cells for q in c.parameters()]
    parents = (xs, *params) if h0 is None else (xs, h0, *params)
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
            one_m_z = 1.0 - z
            dh_prev = dh * one_m_z
            da_h = dh * z * (1.0 - hh * hh)
            for d in range(n_dir):
                np.matmul(da_h[d], w_h[d], out=d_rh[d])
            da[:, i, :, :hid] = dh * (hh - h_prev) * z * one_m_z
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

    return T._node(out, parents, back)


def gru_cell_step(x_t: Tensor, h_prev: Tensor, p: GRUCellParams) -> Tensor:
    """One GRU step on a (batch, input) slice: ``gru_sequence`` at T = 1 from ``h_prev``.
    No model calls it; the benchmark tracer wraps it by name (ROADMAP items 6 and 11)."""
    x_t = T._as_tensor(x_t)
    return gru_sequence(T.reshape(x_t, (1, *x_t.data.shape)), p, h0=h_prev)


class GRU:
    def __init__(self, input_dim: int, hidden: int, rng, name: str = "gru"):
        self.cell = GRUCellParams.create(input_dim, hidden, rng, name=name)

    @property
    def hidden(self) -> int:
        return self.cell.hidden

    def run(self, xs: Tensor, return_sequence: bool = False) -> Tensor:
        """``gru_sequence`` over a time-major (T, batch, input) tensor from h0 = 0."""
        return gru_sequence(xs, self.cell, return_sequence=return_sequence)

    def parameters(self) -> list[Parameter]:
        return self.cell.parameters()


class BiGRU:
    """Two GRU cells over the sequence, the second time-reversed, run as one
    two-cell ``gru_sequence``: one autodiff node, forward half first."""

    def __init__(self, input_dim: int, hidden: int, rng, name: str = "bigru"):
        self.fwd = GRUCellParams.create(input_dim, hidden, rng, name=f"{name}.fwd")
        self.bwd = GRUCellParams.create(input_dim, hidden, rng, name=f"{name}.bwd")

    def run(self, xs: Tensor, return_sequence: bool = False) -> Tensor:
        """(T, batch, 2*hidden) per-step states, or the (batch, 2*hidden) final
        states, of a time-major (T, batch, input) tensor; forward half first."""
        return gru_sequence(xs, (self.fwd, self.bwd), reverse=(False, True),
                            return_sequence=return_sequence)

    def parameters(self) -> list[Parameter]:
        return [*self.fwd.parameters(), *self.bwd.parameters()]
