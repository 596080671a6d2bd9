"""Adam optimizer with bias correction, and the epoch loop both models train with.

Row-sparse Adam, exactly. A row no lookup has written yet has m = v = 0 and
a gradient of zero (a lookup's gradient starts as zeros), so Adam leaves it
bit for bit: m = b1*0 + (1-b1)*0 = 0, likewise v, and w - scale*0 / (sqrt(0) +
eps) = w. For a parameter whose gradients all come from ``embedding_lookup``
(``Parameter.grad_rows``), the rows those lookups name turn live for good, and
while at most half the rows are live ``adam_step`` updates only them, with the
same ops in the same order. An idle live row keeps moving on its momentum;
this is not lazy Adam. Past half, or after any other write to the gradient,
the update is dense. With the paper's data every training word is live within
epoch 1, so there the saving ends in that epoch.

The first step, in closed form. With m0 = v0 = 0 (Kingma & Ba, "Adam",
arXiv:1412.6980) a parameter's first update reads no moment: m and v are
allocated uninitialized and written straight from the gradient, m = (1-b1)*g
+ 0.0 and v = (1-b2)*g**2. These are the bits of b1*0 + (1-b1)*g and b2*0 +
(1-b2)*g**2: adding zero leaves every value as it is except -0.0, which the
``+ 0.0`` makes 0.0 just as 0 + (-0.0) is 0.0, and (1-b2)*g**2 is never
-0.0. A lookup-fed parameter gets zeroed moments even so, since the rows it
leaves idle must hold m = v = 0; its live rows are written as above.

Blocks. The update runs over ``CHUNK`` elements at a time, with two block
buffers, so the slices of m, v, gradient and data that one block touches stay
in the cache between their twelve ops. Smaller blocks pay more per-call
overhead and larger ones spill the six slices out of the cache: on one vCPU
of a 2-vCPU x86-64 host, a float32 step over 8.6M elements took a median of
30.9 ms at 1 << 14, 26.2 ms at 1 << 16 (256 KiB per slice) and 36.7 ms at
1 << 17. The block size changes no bit: each element's ops are the same.

Factored gradients, by blocks of rows. A dense weight's gradient from one
``linear`` is held as its factors (``T.Factors``): ``g`` (batch, out) and
``x`` (batch, in). The step forms it a block of rows at a time, ``g.T[lo:hi]
@ x`` into one reused buffer, and updates those rows of data, m and v while
the block is in cache, so the (out, in) gradient is never held: for the MLP's
first layer on 6,336 log-Mel inputs that is 26 MB, and 164 MB at 39,936. A
block holds about ``CHUNK`` values but at least ``MIN_ROWS`` = 16 rows, a
multiple of 16, and a tail of fewer rows joins the block before it
(``row_blocks``). This keeps every bit of the full product's rows: with
OpenBLAS 0.3.31 (Haswell kernels) at float32, these blocks equalled the full
product bit for bit at every default-MLP layer from 2,048 and 6,336 inputs,
at 39,936 columns (as blocks of 2 rows did too) and at the captioner's
(4,504, 128) output layer, with 16 to 128 examples (``tests/test_nn_core.py``
pins these shapes). A 1-row block goes through a matrix-vector kernel: at
39,936 columns it differed from the full product in every one of 128 rows
tested. At float64 a 1,001-column product differed in its last column for
blocks of 2-80 rows, so the bits are promised at the models' float32 only.

Widths. m, v and the block buffers are kept at each parameter's dtype, and
every scalar in the update is a Python float, so a float32 parameter is
updated wholly in float32: a numpy float64 scalar would compute its ops in
float64 and round them back, which costs time and changes bits.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, GraphStateError, check_finite_loss
from . import tensor as T
from .tensor import Parameter

log = logging.getLogger(__name__)


BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's decay rates and denominator offset


@dataclass
class AdamState:
    learning_rate: float = 1e-3
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    live: dict[str, np.ndarray] = field(default_factory=dict)  # row masks while row-sparse


CHUNK = 1 << 16  # elements per block: m, v, grad and data slices stay in cache together
MIN_ROWS = 16  # the fewest rows a factored gradient is formed in at once (module docstring)


def adam_step(params: list[Parameter], state: AdamState) -> None:
    """Apply one Adam update and drop the gradients (each becomes None).

    Raises before any update if a parameter has not received a gradient since
    the last step (a step issued before backward), or if its data or gradient
    is not C-contiguous. Runs in place over blocks of each parameter with two
    reused buffers of its dtype, and never rebinds a parameter's data, so a
    GRU cell's parameters stay views of their layer's stacks. Per element the
    ops and their order are m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g**2,
    w -= scale*m / (sqrt(v) + eps); a parameter's first step writes m and v
    from the gradient alone, a lookup-fed parameter is updated over its live
    rows, and a factored gradient is formed by blocks of rows (module docstring).
    """
    stale = [p.name for p in params if p.grad is None]
    if stale:
        raise GraphStateError(f"adam_step before backward for: {', '.join(stale)}")
    strided = [p.name for p in params if not (p.data.flags.c_contiguous
                                              and (isinstance(p.grad, T.Factors)
                                                   or p.grad.flags.c_contiguous))]
    if strided:  # the blocks are views
        raise GraphStateError(f"adam_step needs C-contiguous data and gradients, not for: "
                              f"{', '.join(strided)}")
    state.step += 1
    t = state.step
    scale = float(state.learning_rate * math.sqrt(1.0 - BETA2**t) / (1.0 - BETA1**t))
    buffers = {dt: np.empty((2, CHUNK), dt) for dt in {p.data.dtype for p in params}}
    for p in params:
        first = p.name not in state.m  # m and v are written from the gradient, not read
        if first:
            lookup_fed = p.grad_rows is not None
            alloc = np.zeros_like if lookup_fed else np.empty_like  # idle rows keep m = v = 0
            state.m[p.name], state.v[p.name] = alloc(p.data), alloc(p.data)
            if lookup_fed:
                state.live[p.name] = np.zeros(p.data.shape[0], dtype=bool)
        m, v = state.m[p.name], state.v[p.name]
        bufs = buffers[p.data.dtype]
        rows = _live_rows(p, state.live)
        if isinstance(p.grad, T.Factors):
            _update_factored(scale, bufs, p.data, p.grad, m, v, first)
        elif rows is None:
            _update_blocks(scale, bufs, p.data, p.grad, m, v, first)
        else:
            data, m_rows, v_rows = p.data[rows], m[rows], v[rows]
            _update_blocks(scale, bufs, data, p.grad[rows], m_rows, v_rows, first)
            p.data[rows], m[rows], v[rows] = data, m_rows, v_rows
        p.grad, p.grad_rows = None, None


def _live_rows(p: Parameter, live: dict[str, np.ndarray]) -> np.ndarray | None:
    """Mark the rows ``p``'s lookups wrote live; returns the live rows, or None
    once ``p`` is updated densely (a non-lookup gradient, or over half live)."""
    mask = live.get(p.name)
    if mask is None:
        return None
    if p.grad_rows is not None:
        mask[np.concatenate(p.grad_rows)] = True
        rows = np.flatnonzero(mask)
        if 2 * rows.size <= mask.size:
            return rows
    del live[p.name]
    return None


def row_blocks(rows: int, cols: int) -> list[tuple[int, int]]:
    """The (lo, hi) row bounds a factored gradient of ``rows`` x ``cols`` is
    formed in: blocks of about ``CHUNK`` values but at least ``MIN_ROWS`` rows,
    a multiple of it, with a tail shorter than ``MIN_ROWS`` joined to the block
    before it (module docstring)."""
    step = max(MIN_ROWS, CHUNK // max(cols, 1) // MIN_ROWS * MIN_ROWS)
    bounds = [*range(0, rows, step), rows]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] < MIN_ROWS:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


def _update_factored(scale: float, bufs, data: np.ndarray, grad: T.Factors, m: np.ndarray,
                     v: np.ndarray, first: bool) -> None:
    """``_update_blocks`` over each of ``row_blocks`` in turn, with that block of
    the gradient formed from its factors into one reused buffer just before."""
    blocks = row_blocks(*data.shape)
    product = np.empty((max((hi - lo for lo, hi in blocks), default=0), data.shape[1]),
                       data.dtype)
    for lo, hi in blocks:
        g = grad.rows(lo, hi, out=product[: hi - lo])
        _update_blocks(scale, bufs, data[lo:hi], g, m[lo:hi], v[lo:hi], first)


def _update_blocks(scale: float, bufs, data: np.ndarray, grad: np.ndarray, m: np.ndarray,
                   v: np.ndarray, first: bool) -> None:
    """The Adam update in place over contiguous data, m and v (``grad`` is read), by
    blocks; on the ``first`` step m and v are written, not read (module docstring)."""
    data, grad, m, v = (a.reshape(-1) for a in (data, grad, m, v))
    buf_a, buf_b = bufs
    for lo in range(0, data.size, CHUNK):
        hi = min(lo + CHUNK, data.size)
        g, mb, vb = grad[lo:hi], m[lo:hi], v[lo:hi]
        a, b = buf_a[: hi - lo], buf_b[: hi - lo]
        if first:
            np.multiply(1.0 - BETA1, g, out=mb)
            mb += 0.0  # -0.0 -> 0.0, as 0 + (-0.0)
            np.square(g, out=vb)
            vb *= 1.0 - BETA2
        else:
            mb *= BETA1
            np.multiply(1.0 - BETA1, g, out=a)
            mb += a
            vb *= BETA2
            np.square(g, out=a)
            a *= 1.0 - BETA2
            vb += a
        np.multiply(scale, mb, out=a)
        np.sqrt(vb, out=b)
        b += ADAM_EPS
        a /= b
        data[lo:hi] -= a


def check_training_fields(config) -> None:
    """Raise ConfigError unless the config's ``epochs`` >= 0, ``batch_size`` >= 1,
    0 <= ``dropout`` < 1 and ``learning_rate`` is finite and positive."""
    rate = config.learning_rate
    for name, ok, need in (("epochs", config.epochs >= 0, "at least 0"),
                           ("batch_size", config.batch_size >= 1, "at least 1"),
                           ("dropout", 0.0 <= config.dropout < 1.0, "in [0, 1)"),
                           ("learning_rate", math.isfinite(rate) and rate > 0,
                            "finite and positive")):
        if not ok:
            raise ConfigError(f"{type(config).__name__} {name} must be {need}, "
                              f"got {getattr(config, name)!r}")


@dataclass
class TrainHistory:
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    best_epoch: int = -1


def fit(model, epochs: int, batches, batch_loss, update, val_loss=None,
        name: str = "model") -> TrainHistory:
    """Train ``model`` for ``epochs`` epochs; with ``val_loss``, keep its best epoch.

    Logs first the parameters' count and bytes, and three times those bytes:
    weights and Adam's m and v, which a step holds with each gradient kept as
    an array (a dense weight keeps its gradient as ``Factors``, formed by rows
    in ``adam_step``). Each epoch takes its batches from ``batches()``. Per
    batch, ``batch_loss(batch)`` gives the mean loss tensor and its example
    count; the loss is checked finite, back-propagated and applied by
    ``update()``. The epoch's training loss is the example-weighted
    mean. With ``val_loss``, the epoch of the lowest ``val_loss()`` (recorded
    in ``val_losses``) is kept: a copy of ``model.state()`` is taken just before
    it is trained past and restored by ``model.load_state`` at the end. Without it
    the model ends in its last epoch, never snapshot: a training loss, which
    the optimizer minimises, does not select. Raises TrainingError at the first
    batch or validation loss that is not finite.
    """
    params = model.parameters()
    mb = sum(p.data.nbytes for p in params) / 1e6
    log.info("%s: %d parameters, %.1f MB of weights, %.1f MB with Adam's m and v (plus any "
             "gradient held dense)", name, sum(p.data.size for p in params), mb, 3 * mb)
    history = TrainHistory()
    best_state = None
    for epoch in range(epochs):
        if val_loss is not None and epoch > 0 and history.best_epoch == epoch - 1:
            best_state = {k: v.copy() for k, v in model.state().items()}  # about to be trained past
        total, count = 0.0, 0
        for batch_no, batch in enumerate(batches()):
            loss, examples = batch_loss(batch)
            check_finite_loss(loss.item(), f"epoch {epoch + 1} batch {batch_no + 1}")
            T.backward(loss)
            update()
            total += float(loss.data) * examples
            count += examples
        history.train_losses.append(total / count)
        held_out = math.nan
        if val_loss is not None:
            held_out = val_loss()
            check_finite_loss(held_out, f"epoch {epoch + 1} validation")
            history.val_losses.append(held_out)
        history.best_epoch = epoch if val_loss is None else int(np.argmin(history.val_losses))
        log.info("%s epoch %d/%d train %.4f validation %.4f",
                 name, epoch + 1, epochs, total / count, held_out)
    if history.best_epoch != epochs - 1:
        model.load_state(best_state)
    return history
