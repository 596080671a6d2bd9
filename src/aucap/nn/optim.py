"""Adam optimizer with bias correction."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import GraphStateError
from .tensor import Parameter


@dataclass
class AdamState:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def zero_grads(params: list[Parameter]) -> None:
    for p in params:
        p.zero_grad()


CHUNK = 1 << 14  # elements per block: m, v, grad and data slices stay in cache together


def adam_step(params: list[Parameter], state: AdamState) -> None:
    """Apply one Adam update and clear the gradients.

    Raises if any parameter has not received a gradient since the last step,
    which catches a step issued before backward. Runs in place over blocks of
    each parameter with two reused buffers; per element the ops and their order
    are m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g**2, w -= scale*m / (sqrt(v) + eps).
    """
    stale = [p.name for p in params if not p.grad_ready]
    if stale:
        raise GraphStateError(f"adam_step before backward for: {', '.join(stale)}")
    state.step += 1
    t = state.step
    scale = state.learning_rate * np.sqrt(1.0 - state.beta2**t) / (1.0 - state.beta1**t)
    buf_a, buf_b = np.empty(CHUNK), np.empty(CHUNK)
    for p in params:
        if not (p.data.flags.c_contiguous and p.grad.flags.c_contiguous):  # blocks are views
            p.data, p.grad = np.ascontiguousarray(p.data), np.ascontiguousarray(p.grad)
        if p.name not in state.m:
            state.m[p.name], state.v[p.name] = np.zeros(p.data.shape), np.zeros(p.data.shape)
        data, grad, m, v = (a.reshape(-1) for a in
                            (p.data, p.grad, state.m[p.name], state.v[p.name]))
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
        p.grad_ready = False
