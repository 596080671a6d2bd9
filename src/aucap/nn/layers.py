"""Layers over the autodiff tensor core: dense, embedding, batch norm, GRU, BiGRU.

A layer owns named Parameters plus any non-trainable buffers; models collect
both through ``parameters()`` / ``buffers()`` for the optimizer and the
checkpoint container. Recurrent matrices start orthogonal, everything else
Glorot-uniform. A uniform draw goes straight into its float32 array, by
blocks of rows (``uniform_fill``), so no float64 copy of a weight matrix is
ever held; the values are those of one whole draw cast to float32. With
``rng=None`` nothing is drawn: the weights stay uninitialized, for a state
loaded next.

A GRU or BiGRU owns its D cells' parameters through a (3, D, hidden, hidden
+ input) gate stack and a (3, D, hidden) bias stack, of which each cell's
Parameters are views (``GRUCellParams``). A time step makes one broadcast
product for z and r over all D cells and one for h_hat, reading the stacks
in place (``GRUStep``), and refuses cells it would have to copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from . import tensor as T
from .checkpoint import state_tensor
from .tensor import BN_EPS, Parameter, Tensor

BN_MOMENTUM = 0.99  # of the batch-norm running statistics' EMA
FLUSH_STRIDE = 4  # BPTT steps between flushes of the carried gradient's subnormals
DRAW_BLOCK = 1 << 15  # values per uniform draw: a 256 KiB float64 block, cast as it is stored


def uniform_fill(rng: np.random.RandomState, limit: float, out: np.ndarray) -> np.ndarray:
    """Fill the 2-D ``out`` with ``rng.uniform(-limit, limit, out.shape)``, cast
    to its dtype, and return it.

    One draw per block of rows, each of at most ``DRAW_BLOCK`` values or one
    row. The uniform draw takes one double per value in row-major order, so
    the values and the state ``rng`` is left in are bit for bit those of one
    whole draw, whose float64 copy is never made. A 1,024 x 6,336 Glorot
    draw took 40 ms so, against 51 ms whole and cast (fastest of 15 on one
    vCPU of a 2-vCPU x86-64 host); blocks of 1 << 13 to 1 << 16 values were
    within 3 ms of each other."""
    rows = max(1, DRAW_BLOCK // max(1, out.shape[1]))
    for lo in range(0, out.shape[0], rows):
        block = out[lo : lo + rows]
        block[...] = rng.uniform(-limit, limit, block.shape)
    return out


def glorot_uniform(rng: np.random.RandomState, out: np.ndarray) -> np.ndarray:
    """Fill the (fan_out, fan_in) ``out`` uniform in +-sqrt(6 / (fan_in + fan_out))."""
    fan_out, fan_in = out.shape
    return uniform_fill(rng, np.sqrt(6.0 / (fan_in + fan_out)), out)


def orthogonal(rng: np.random.RandomState, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))  # sign-fix makes the factorization unique


class Dense:
    def __init__(self, in_dim: int, out_dim: int, rng, name: str = "dense"):
        weights = np.empty((out_dim, in_dim), np.float32)
        if rng is not None:
            glorot_uniform(rng, weights)
        self.weights = Parameter(weights, f"{name}.weights")
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
            table = np.empty((vocab_size, dim), np.float32)
            if rng is not None:
                uniform_fill(rng, 0.05, table)
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
    """Gate weights of shape (hidden, hidden + input) and (hidden,) biases:
    fixed views of slot ``slot`` of their layer's two stacks.

    Column order matches the concatenation [h_prev, x]. ``stacked`` allocates
    the stacks of a layer of D cells, which own its parameters: a (3, D,
    hidden, hidden + input) gate stack, of which cell d's W_z, W_r and W are
    ``[0, d]``, ``[1, d]`` and ``[2, d]``, and a (3, D, hidden) bias stack,
    likewise for b_z, b_r and b. A view finds its stack as its ``.base``.
    Adam and a checkpoint load write the parameters in place, so the views
    stay views; a Parameter whose data is rebound is cut off from its stack,
    and ``GRUStep`` refuses its cell.
    """

    W_z: Parameter
    W_r: Parameter
    W: Parameter
    b_z: Parameter
    b_r: Parameter
    b: Parameter
    slot: int = 0

    @property
    def hidden(self) -> int:
        return self.W_z.data.shape[0]

    @property
    def input_dim(self) -> int:
        return self.W_z.data.shape[1] - self.W_z.data.shape[0]

    @classmethod
    def stacked(cls, input_dim: int, hidden: int, rng, names) -> tuple["GRUCellParams", ...]:
        """One cell per name, cell d in slot d of one float32 gate stack and one
        zero bias stack. The draws fill cell by cell, each W_z, W_r, then W:
        recurrent columns orthogonal, input columns Glorot-uniform."""
        gates = np.empty((3, len(names), hidden, hidden + input_dim), np.float32)
        biases = np.zeros((3, len(names), hidden), np.float32)
        cells = []
        for d, name in enumerate(names):
            if rng is not None:  # each draw is cast as it is stored
                for w in gates[:, d]:
                    w[:, :hidden] = orthogonal(rng, hidden)
                    glorot_uniform(rng, w[:, hidden:])
            views = (*gates[:, d], *biases[:, d])
            cells.append(cls(*(Parameter(v, f"{name}.{label}") for v, label in
                               zip(views, ("W_z", "W_r", "W", "b_z", "b_r", "b"))), slot=d))
        return tuple(cells)

    def parameters(self) -> list[Parameter]:
        return [self.W_z, self.W_r, self.W, self.b_z, self.b_r, self.b]


def _stacks(cells) -> tuple[np.ndarray, np.ndarray]:
    """The (3, D, hidden, hidden + input) gate and (3, D, hidden) bias views
    of the D ``cells``' slots in their layer's stacks.

    ShapeError naming the first cell that is not the next slot of the first
    cell's stacks with all six Parameters still their views: one rebound,
    built by hand, out of order or of another layer."""
    first = cells[0]
    gates, biases = first.W_z.data.base, first.b_z.data.base
    for d, c in enumerate(cells):
        if (c.slot != first.slot + d or gates is None or biases is None
                or c.W_z.data.base is not gates or c.W_r.data.base is not gates
                or c.W.data.base is not gates or c.b_z.data.base is not biases
                or c.b_r.data.base is not biases or c.b.data.base is not biases):
            name, want = c.W_z.name[: -len(".W_z")], first.W_z.name[: -len(".W_z")]
            raise ShapeError(f"GRU cell {name} is not slot {first.slot + d} of {want}'s stacks "
                             f"with its parameters their views: a step takes consecutive "
                             f"cells of one layer, never rebound or built by hand")
    span = slice(first.slot, first.slot + len(cells))
    return gates[:, span], biases[:, span]


class GRUStep:
    """One time step of D consecutive GRU cells of one layer, on plain arrays:
    the body of ``gru_sequence``'s time loop, which greedy decoding also runs
    token by token.

    Built once per run, it holds views of the cells' slots in their layer's
    stacks (``_stacks``): ``stack``, the (3, D, hidden, hidden + input) gate
    matrices, and the biases as (2, D, 1, hidden) for z and r and (D, 1,
    hidden) for h_hat. It reads the parameters in place and copies none. A
    call takes (D, batch, .) buffers at ``dtype``: the states ``h`` and
    ``h_new``, which must not overlap; ``hx`` and ``rhx``, whose last
    ``input_dim`` columns hold each cell's input and whose first ``hidden``
    get h and r*h; ``zr`` (2, D, batch, hidden), which gets z and r; and
    ``hh``, which gets h_hat. It writes the next states to ``h_new``. The
    caller ignores exp overflow, which gives a gate of exactly 0.

    A step makes two broadcast matrix products: z and r of all D cells from
    ``hx``, then h_hat of all D cells from ``rhx``. Each reads the transposed
    stack, whose every (cell, gate) slice has the strides of that gate's W.T,
    so numpy makes per slice the BLAS call that a one-cell product on W.T
    makes, and the results are bitwise those of one-cell runs (a C-contiguous
    copy of W.T would let BLAS round differently). Each elementwise op then
    runs once over the stack, in place, the gates through ``tensor._sigmoid``.
    """

    def __init__(self, cells, batch: int, dtype):
        self.stack, biases = _stacks(cells)
        self.w_zr, self.w = self.stack[:2].swapaxes(-1, -2), self.stack[2].swapaxes(-1, -2)
        self.b_zr, self.b = biases[:2, :, None], biases[2, :, None]
        self.tmp = np.empty((len(cells), batch, cells[0].hidden), dtype)

    def __call__(self, h, h_new, hx, rhx, zr, hh) -> None:
        hid = h.shape[-1]
        hx[:, :, :hid] = h
        np.matmul(hx, self.w_zr, out=zr)
        zr += self.b_zr
        T._sigmoid(zr, out=zr)
        z, r = zr[0], zr[1]
        np.multiply(r, h, out=rhx[:, :, :hid])
        np.matmul(rhx, self.w, out=hh)
        hh += self.b
        np.tanh(hh, out=hh)
        np.subtract(1.0, z, out=h_new)
        h_new *= h
        np.multiply(z, hh, out=self.tmp)
        h_new += self.tmp


def gru_sequence(xs, cells, reverse=False, return_sequence: bool = False) -> Tensor:
    """Run D GRU cells over one time-major (T, batch, input) sequence as one autodiff node.

    ``cells`` is one GRUCellParams or D consecutive cells of one layer, whose
    stacks it reads in place (``GRUStep``, which refuses any other cells);
    ``reverse`` is one flag for all cells or one per cell, and a reversed
    cell runs last step first. Per cell and step: z = sigmoid([h, x]
    @ W_z.T + b_z); r = sigmoid([h, x] @ W_r.T + b_r); h_hat = tanh([r*h, x]
    @ W.T + b); h' = (1 - z)*h + z*h_hat, from h = 0. Returns the final
    (batch, D*hidden) states or all (T, batch, D*hidden) states in input
    order; cell d owns columns d*hidden:(d+1)*hidden. Every buffer and the
    zero start state take the width of the input and the weights, so a
    float32 run stays float32.

    One time loop serves all D cells, one ``GRUStep`` per step, each making
    two broadcast products over the cells' gate stack into (T, 2, D, batch, .)
    and (T, D, batch, .) gate buffers allocated once per run. A D-cell run is
    bitwise equal to D one-cell runs joined on the last axis, gradients
    included.

    The input projection stays in the loop: a row of a many-row BLAS product
    need not be bitwise equal to that row computed alone, and ``gru_cell_step``
    and greedy decoding must reproduce a step of a sequence exactly. The
    backward is one BPTT loop over the stack, with one broadcast product per
    step for each of the two recurrent gradients, then per cell one weight,
    bias and input product over the T*batch rows in input-time order. Every
    ``FLUSH_STRIDE`` steps the carried state gradient has its subnormal
    entries set to zero, as CPU kernels with flush-to-zero do: a gradient on
    the final state alone decays through every step, and float arithmetic on
    subnormals runs many times slower (unflushed, a BiGRU backward at T = 624
    took twice as long). Without ``return_sequence``, once that gradient is all zero the
    earlier steps get zero gradients without being run.
    """
    cells = (cells,) if isinstance(cells, GRUCellParams) else tuple(cells)
    rev = (reverse,) * len(cells) if isinstance(reverse, bool) else tuple(reverse)
    if not cells or len(rev) != len(cells):
        raise ShapeError(f"gru_sequence needs one or more cells and one reverse flag per "
                         f"cell, got {len(cells)} cells and {len(rev)} flags")
    xs = T._as_tensor(xs)
    in_dim, hid, n_dir = cells[0].input_dim, cells[0].hidden, len(cells)
    if xs.data.ndim != 3 or xs.data.shape[0] < 1 or xs.data.shape[2] != in_dim:
        raise ShapeError(f"gru_sequence expects a non-empty (T, batch, {in_dim}) "
                         f"tensor, got {xs.data.shape}")
    steps, batch, _ = xs.data.shape
    width = n_dir * hid
    dtype = np.result_type(xs.data, cells[0].W_z.data)  # every buffer's width

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
    zr = np.empty((steps, 2, n_dir, batch, hid), dtype)  # z and r of every step
    hh = np.empty((steps, n_dir, batch, hid), dtype)  # h_hat of every step
    states = np.empty((steps, n_dir, batch, hid), dtype)
    h = h_start = np.zeros((n_dir, batch, hid), dtype)
    with np.errstate(over="ignore"):  # exp overflow gives a gate of exactly 0
        for i in range(steps):
            step(h, states[i], hx[:, i], rhx[:, i], zr[i], hh[i])
            h = states[i]

    parents = (xs, *(q for c in cells for q in c.parameters()))
    if return_sequence:
        parts = [states[::-1, d] if r else states[:, d] for d, r in enumerate(rev)]
        out = parts[0] if n_dir == 1 else np.concatenate(parts, axis=2)
    else:
        out = h.transpose(1, 0, 2).reshape(batch, width)

    def back(g):
        da = np.empty((n_dir, steps, batch, 3 * hid), dtype)  # pre-activation grads of z, r, h_hat
        w_h = step.stack[2, ..., :hid]  # each cell's W[:, :hid], with its strides
        # per cell [W_z; W_r][:, :hid], and below W_*[:, hid:], as C-contiguous copies:
        # a reshape that views the stack (at D = 1 it can) hands BLAS another
        # leading dimension, which gives other bits
        w_rec = np.ascontiguousarray(step.stack[:2, ..., :hid].swapaxes(0, 1))
        w_rec = w_rec.reshape(n_dir, 2 * hid, hid)
        d_rh = np.empty((n_dir, batch, hid), dtype)
        tiny = np.finfo(dtype).tiny  # the smallest normal value
        if return_sequence:
            g_steps = step_order(np.moveaxis(g.reshape(steps, batch, n_dir, hid), 2, 0))
            dh = np.zeros((n_dir, batch, hid), dtype)
        else:
            dh = g.reshape(batch, n_dir, hid).transpose(1, 0, 2)
        for i in range(steps - 1, -1, -1):
            if return_sequence:
                dh += g_steps[i]
            h_prev, z, r, hh_i = states[i - 1] if i else h_start, zr[i, 0], zr[i, 1], hh[i]
            one_m_z = 1.0 - z
            dh_prev = dh * one_m_z
            da_h = dh * z * (1.0 - hh_i * hh_i)
            np.matmul(da_h, w_h, out=d_rh)
            da[:, i, :, :hid] = dh * (hh_i - h_prev) * z * one_m_z
            da[:, i, :, hid : 2 * hid] = d_rh * h_prev * r * (1.0 - r)
            da[:, i, :, 2 * hid:] = da_h
            d_rh *= r
            dh_prev += d_rh
            dh_prev += np.matmul(da[:, i, :, : 2 * hid], w_rec)
            dh = dh_prev
            if i % FLUSH_STRIDE == 0:  # flush subnormals to zero, as FTZ kernels do
                np.copyto(dh, 0, where=np.abs(dh) < tiny)
                if not return_sequence and not dh.any():  # no gradient reaches an earlier step
                    da[:, :i] = 0
                    break

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
                w_in = np.ascontiguousarray(step.stack[:, d, :, hid:]).reshape(3 * hid, in_dim)
                T._accumulate(xs, (flat @ w_in).reshape(steps, batch, in_dim))

    return T._node(out, parents, back)


def gru_cell_step(x_t: Tensor, p: GRUCellParams) -> Tensor:
    """One GRU step on a (batch, input) slice: ``gru_sequence`` at T = 1 from zero.
    No model calls it; the benchmark tracer wraps it by name (ROADMAP items 8 and 14)."""
    x_t = T._as_tensor(x_t)
    return gru_sequence(T.reshape(x_t, (1, *x_t.data.shape)), p)


class GRU:
    def __init__(self, input_dim: int, hidden: int, rng, name: str = "gru"):
        self.cell = GRUCellParams.stacked(input_dim, hidden, rng, (name,))[0]

    @property
    def hidden(self) -> int:
        return self.cell.hidden

    def run(self, xs: Tensor, return_sequence: bool = False) -> Tensor:
        """``gru_sequence`` over a time-major (T, batch, input) tensor."""
        return gru_sequence(xs, self.cell, return_sequence=return_sequence)

    def parameters(self) -> list[Parameter]:
        return self.cell.parameters()


class BiGRU:
    """Two GRU cells over the sequence, the second time-reversed, run as one
    two-cell ``gru_sequence``: one autodiff node, forward half first."""

    def __init__(self, input_dim: int, hidden: int, rng, name: str = "bigru"):
        self.fwd, self.bwd = GRUCellParams.stacked(input_dim, hidden, rng,
                                                   (f"{name}.fwd", f"{name}.bwd"))

    def run(self, xs: Tensor, return_sequence: bool = False) -> Tensor:
        """(T, batch, 2*hidden) per-step states, or the (batch, 2*hidden) final
        states, of a time-major (T, batch, input) tensor; forward half first."""
        return gru_sequence(xs, (self.fwd, self.bwd), reverse=(False, True),
                            return_sequence=return_sequence)

    def parameters(self) -> list[Parameter]:
        return [*self.fwd.parameters(), *self.bwd.parameters()]
