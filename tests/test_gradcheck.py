"""Finite-difference gradient check of every layer type, both models and the
captioner's caption-major batch. Check ``i`` draws its weights and inputs from
seed ``SEED + i``; each must match its central differences within 1e-4
relative error. Every check runs at float64: the float32 SVE MLP and
captioner are cast up by ``at_float64``."""

import numpy as np
import pytest

from aucap.captioner import Captioner, CaptionerConfig
from aucap.mlp import MLP, MLPConfig
from aucap.nn import tensor as T
from aucap.nn.layers import (BatchNorm, BiGRU, Dense, Embedding, GRUCellParams, gru_cell_step,
                             gru_sequence)
from aucap.nn.tensor import Parameter, Tensor
from gradcheck import at_float64, max_relative_error

SEED = 0


def _quadratic_target(out: Tensor) -> Tensor:
    return T.mean_all(T.mul(out, out))


def _check_dense(rng):
    layer = Dense(7, 5, rng, name="gc.dense")
    x = Tensor(rng.standard_normal((4, 7)))
    return max_relative_error(lambda: _quadratic_target(layer(x)), layer.parameters(), rng=rng)


def _check_gru_cell(rng):
    cell = GRUCellParams.create(4, 3, rng, name="gc.cell")
    x = Tensor(rng.standard_normal((2, 4)))
    h = Tensor(rng.uniform(-0.9, 0.9, (2, 3)))
    return max_relative_error(
        lambda: _quadratic_target(gru_cell_step(x, h, cell)), cell.parameters(), rng=rng
    )


def _check_gru_sequence(rng, masked=False, with_h0=False, **options):
    """A (T=4, B=3, in=5) run; the input (and ``h0``) are checked as parameters too."""
    cell = GRUCellParams.create(5, 4, rng, name="gc.gru")
    xs = Parameter(rng.standard_normal((4, 3, 5)), "gc.gru.xs")
    h0 = Parameter(rng.uniform(-0.9, 0.9, (3, 4)), "gc.gru.h0") if with_h0 else None
    masks = None
    if masked:
        masks = np.ones((4, 3))
        masks[2:, 1] = 0.0  # row 1 ends after two steps
        masks[0, 2] = 0.0   # row 2 skips its first step
    params = cell.parameters() + [xs] + ([h0] if with_h0 else [])
    return max_relative_error(
        lambda: _quadratic_target(gru_sequence(xs, cell, masks=masks, h0=h0, **options)),
        params, rng=rng,
    )


def _check_bigru(rng, return_sequence=True):
    layer = BiGRU(4, 3, rng, name="gc.bigru")
    xs = Parameter(rng.standard_normal((3, 2, 4)), "gc.bigru.xs")
    return max_relative_error(
        lambda: _quadratic_target(layer.run(xs, return_sequence=return_sequence)),
        layer.parameters() + [xs], rng=rng,
    )


def _check_embedding(rng):
    layer = Embedding(9, 5, rng, name="gc.embed")
    idx = rng.randint(0, 9, size=6)
    return max_relative_error(
        lambda: _quadratic_target(layer(idx)), layer.parameters(), rng=rng
    )


def _check_batch_norm(rng):
    bn = BatchNorm(6, name="gc.bn")
    lin = Dense(6, 6, rng, name="gc.bnin")
    x = Tensor(rng.standard_normal((8, 6)))
    params = bn.parameters() + lin.parameters()
    return max_relative_error(
        lambda: _quadratic_target(bn(lin(x), mode="train")),
        params, rng=rng,
    )


def _check_batch_norm_counts(rng):
    """Rows weighted 3, 1, 0 and 2 copies: the zero-weight row gets no gradient
    through the statistics, only its own output's."""
    bn = BatchNorm(6, name="gc.bnc")
    lin = Dense(6, 6, rng, name="gc.bncin")
    x = Tensor(rng.standard_normal((4, 6)))
    counts = np.array([3, 1, 0, 2])
    return max_relative_error(
        lambda: _quadratic_target(bn(lin(x), mode="train", counts=counts)),
        bn.parameters() + lin.parameters(), rng=rng,
    )


def _check_softmax_xent(rng):
    layer = Dense(6, 5, rng, name="gc.sm")
    x = Tensor(rng.standard_normal((7, 6)))
    targets = rng.randint(0, 5, size=7)
    return max_relative_error(
        lambda: T.softmax_cross_entropy(layer(x), targets), layer.parameters(), rng=rng
    )


def _check_sigmoid_bce(rng):
    """Logits of +-50 against both targets probe the tails: neither overflows."""
    logits = Parameter(rng.standard_normal((4, 5)) * 3.0, "gc.bce.logits")
    y = (rng.random_sample((4, 5)) > 0.5).astype(float)
    logits.data[0, :4], y[0, :4] = (50.0, -50.0, 50.0, -50.0), (0.0, 1.0, 1.0, 0.0)
    return max_relative_error(lambda: T.sigmoid_binary_cross_entropy(logits, y), [logits],
                              rng=rng)


def _check_mlp_stack(rng):
    cfg = MLPConfig(input_dim=6, hidden_widths=(8, 5), output_dim=4, dropout=0.0)
    mlp = MLP(cfg, np.random.RandomState(rng.randint(1 << 31)))
    x = Tensor(rng.standard_normal((5, 6)))
    y = (rng.random_sample((5, 4)) > 0.5).astype(float)
    return max_relative_error(
        lambda: T.sigmoid_binary_cross_entropy(mlp.forward(x, mode="infer"), y),
        at_float64(mlp.parameters()), rng=rng,
    )


def _check_micro_captioner(rng, caption_major: bool = False):
    """The whole model on one batch. ``caption_major`` scores every valid
    (step, row) prefix of the batch, as training does, not each row's last."""
    cfg = CaptionerConfig(
        variant="logmel", audio_dim=6, sve_dim=3, bigru1=4, bigru2=4, text_gru=8,
        decoder_gru=8, embed_dim=8, dropout=0.0, batch_size=4, seed=9,
    )
    model = Captioner(vocab_size=10, config=cfg, rng=np.random.RandomState(rng.randint(1 << 31)))
    batch = 4
    audio = rng.standard_normal((batch, 5, 9))
    prefix = rng.randint(1, 10, size=(batch, 3))
    mask = np.ones((batch, 3))
    mask[0, 2] = 0.0  # one short prefix exercises the masked recurrence
    positions = np.nonzero(mask.T) if caption_major else None
    targets = rng.randint(0, 10, size=int(mask.sum()) if caption_major else batch)

    def loss_fn():
        logits = model.forward(audio, prefix, mask, mode="train", positions=positions)
        return T.softmax_cross_entropy(logits, targets)

    return max_relative_error(loss_fn, at_float64(model.parameters()), rng=rng, max_coords=6)


CHECKS = {
    "dense": _check_dense,
    "gru_cell": _check_gru_cell,
    "gru_sequence": _check_gru_sequence,
    "gru_sequence_masked": lambda rng: _check_gru_sequence(rng, masked=True),
    "gru_sequence_h0": lambda rng: _check_gru_sequence(rng, with_h0=True),
    "gru_sequence_reverse": lambda rng: _check_gru_sequence(rng, reverse=True),
    "gru_sequence_return_sequence":
        lambda rng: _check_gru_sequence(rng, return_sequence=True),
    "bigru": _check_bigru,
    "bigru_final": lambda rng: _check_bigru(rng, return_sequence=False),
    "embedding": _check_embedding,
    "batch_norm": _check_batch_norm,
    "softmax_cross_entropy": _check_softmax_xent,
    "mlp_stack": _check_mlp_stack,
    "micro_captioner": _check_micro_captioner,
    "micro_captioner_caption_major": lambda rng: _check_micro_captioner(rng, True),
    "sigmoid_binary_cross_entropy": _check_sigmoid_bce,
    "batch_norm_counts": _check_batch_norm_counts,
}


@pytest.mark.parametrize("i, name", enumerate(CHECKS), ids=list(CHECKS))
def test_analytic_gradient_matches_central_differences(i, name):
    assert CHECKS[name](np.random.RandomState(SEED + i)) < 1e-4
