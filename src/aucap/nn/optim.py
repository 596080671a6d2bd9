"""Adam optimizer with bias correction, and the epoch loop both models train with.

Row-sparse Adam, exactly. A row no gradient has written yet has m = v = 0 and
a zero gradient, so Adam leaves it bit for bit: m = b1*0 + (1-b1)*0 = 0,
likewise v, and w - scale*0 / (sqrt(0) + eps) = w. For a parameter whose
gradients all come from ``embedding_lookup`` (``Parameter.grad_rows``), the
rows those lookups name turn live for good, and while at most half the rows
are live ``adam_step`` updates only them, with the same ops in the same order.
An idle live row keeps moving on its momentum; this is not lazy Adam. Past
half, or after any other write to the gradient, the update is dense. With the
paper's data every training word is live within epoch 1, so there the saving
ends in that epoch.

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


@dataclass
class AdamState:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    live: dict[str, np.ndarray] = field(default_factory=dict)  # row masks while row-sparse


CHUNK = 1 << 14  # elements per block: m, v, grad and data slices stay in cache together


def adam_step(params: list[Parameter], state: AdamState) -> None:
    """Apply one Adam update and clear the gradients.

    Raises if any parameter has not received a gradient since the last step,
    which catches a step issued before backward. Runs in place over blocks of
    each parameter with two reused buffers of its dtype; per element the ops and
    their order are m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g**2,
    w -= scale*m / (sqrt(v) + eps).
    A lookup-fed parameter is updated over its live rows (module docstring).
    """
    stale = [p.name for p in params if not p.grad_ready]
    if stale:
        raise GraphStateError(f"adam_step before backward for: {', '.join(stale)}")
    state.step += 1
    t = state.step
    scale = float(state.learning_rate * math.sqrt(1.0 - state.beta2**t) / (1.0 - state.beta1**t))
    dtypes = {p.data.dtype for p in params}
    buffers = {dt: (np.empty(CHUNK, dt), np.empty(CHUNK, dt)) for dt in dtypes}
    for p in params:
        if not (p.data.flags.c_contiguous and p.grad.flags.c_contiguous):  # blocks are views
            p.data, p.grad = np.ascontiguousarray(p.data), np.ascontiguousarray(p.grad)
        if p.name not in state.m:
            state.m[p.name], state.v[p.name] = np.zeros_like(p.data), np.zeros_like(p.data)
            if p.grad_rows is not None:
                state.live[p.name] = np.zeros(p.data.shape[0], dtype=bool)
        m, v = state.m[p.name], state.v[p.name]
        rows = _live_rows(p, state.live)
        bufs = buffers[p.data.dtype]
        if rows is None:
            _update_blocks(state, scale, bufs, p.data, p.grad, m, v)
        else:
            data, grad, m_rows, v_rows = p.data[rows], p.grad[rows], m[rows], v[rows]
            _update_blocks(state, scale, bufs, data, grad, m_rows, v_rows)
            p.data[rows], m[rows], v[rows] = data, m_rows, v_rows
            p.grad[rows] = 0.0
        p.grad_ready, p.grad_rows = False, None


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


def _update_blocks(state: AdamState, scale: float, bufs, data: np.ndarray, grad: np.ndarray,
                   m: np.ndarray, v: np.ndarray) -> None:
    """The Adam update in place over contiguous data, grad, m and v, block by block."""
    data, grad, m, v = (a.reshape(-1) for a in (data, grad, m, v))
    buf_a, buf_b = bufs
    for lo in range(0, data.size, CHUNK):
        hi = min(lo + CHUNK, data.size)
        g, mb, vb = grad[lo:hi], m[lo:hi], v[lo:hi]
        a, b = buf_a[: hi - lo], buf_b[: hi - lo]
        mb *= state.beta1
        np.multiply(1.0 - state.beta1, g, out=a)
        mb += a
        vb *= state.beta2
        np.square(g, out=a)
        a *= 1.0 - state.beta2
        vb += a
        g[...] = 0.0
        np.multiply(scale, mb, out=a)
        np.sqrt(vb, out=b)
        b += state.eps
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


def fit(model, epochs: int, batches, batch_loss, update, val_loss=None, fallback_loss=None,
        stop_loss: float | None = None, name: str = "model") -> TrainHistory:
    """Train ``model`` for up to ``epochs`` epochs and leave it in its best epoch's state.

    Each epoch takes its batches from ``batches()``. Per batch,
    ``batch_loss(batch)`` gives the mean loss tensor and its example count; the
    loss is checked finite, back-propagated and applied by ``update()``. The
    epoch's training loss is the example-weighted mean. The watched loss is
    ``val_loss()``, recorded in ``val_losses``; without it, ``fallback_loss()``,
    or else the training loss. The epoch of the lowest watched loss is kept:
    ``model.state()`` is snapshot just before that epoch is trained past, and
    ``model.load_state`` restores it at the end. Training stops once an epoch's
    training loss is below ``stop_loss``. Raises TrainingError at the first
    batch or watched loss that is not finite.
    """
    history = TrainHistory()
    best_loss, best_state = np.inf, None
    for epoch in range(epochs):
        if epoch > 0 and history.best_epoch == epoch - 1:
            best_state = model.state()  # the best epoch so far is about to be trained past
        total, count = 0.0, 0
        for batch_no, batch in enumerate(batches()):
            loss, examples = batch_loss(batch)
            check_finite_loss(loss.item(), f"epoch {epoch + 1} batch {batch_no + 1}")
            T.backward(loss)
            update()
            total += float(loss.data) * examples
            count += examples
        train_loss = total / count
        history.train_losses.append(train_loss)
        if val_loss is not None:
            watched = val_loss()
            history.val_losses.append(watched)
        else:
            watched = train_loss if fallback_loss is None else fallback_loss()
        check_finite_loss(watched, f"epoch {epoch + 1} watched")
        if watched < best_loss:
            best_loss, history.best_epoch = watched, epoch
        log.info("%s epoch %d/%d train %.4f watched %.4f",
                 name, epoch + 1, epochs, train_loss, watched)
        if stop_loss is not None and train_loss < stop_loss:
            log.info("%s reached stop loss %.4g at epoch %d", name, stop_loss, epoch + 1)
            break
    if history.best_epoch != len(history.train_losses) - 1:
        model.load_state(best_state)
    return history
