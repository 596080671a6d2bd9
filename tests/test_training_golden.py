"""Golden trajectories of ``train_mlp`` and ``train_captioner``.

Each case trains a seeded micro model and pins its per-epoch losses bit for
bit (``float.hex``), the epoch it keeps and the SHA-256 of the checkpoint file
it writes. Any change to the training loop's order of random draws, updates,
loss sums, best-epoch selection or state restore shows here. The values are
results of numpy on x86-64, both models at float32 (their losses summed in
float64); another BLAS may round differently.
"""

import hashlib

import numpy as np
import pytest

from aucap.captioner import CaptionerConfig, train_captioner
from aucap.mlp import MLPConfig, train_mlp
from aucap.text import build_vocabulary, clean_caption


def mlp_data(seed, n=24, noise=0.3):
    """Three labels, each switched on by a block of two of the six features."""
    rng = np.random.RandomState(seed)
    y = (rng.random_sample((n, 3)) > 0.5).astype(float)
    x = np.repeat(y, 2, axis=1) * 2.0 + rng.standard_normal((n, 6)) * noise
    return x, y


MLP_RATES = {"validation": 0.01, "no_validation": 0.2, "restore": 0.15}


def run_mlp(case, tmp_path):
    """At these rates ``no_validation`` keeps epoch 5 of 6 and ``restore`` epoch 2."""
    x, y = mlp_data(0)
    xv, yv = mlp_data(2, n=12, noise=1.5)
    config = MLPConfig(input_dim=6, output_dim=3, hidden_widths=(8, 8), dropout=0.25,
                       learning_rate=MLP_RATES[case], epochs=6, batch_size=8, seed=3)
    validate = case != "no_validation"
    model, history = train_mlp(x, y, config, val_features=xv if validate else None,
                               val_targets=yv if validate else None)
    model.save(tmp_path / "mlp.ckpt")
    return (history.train_losses, history.val_losses, history.best_epoch,
            tmp_path / "mlp.ckpt")


CAPTIONS = ["dog barks loudly", "man speaks softly", "rain falls down", "a bell rings",
            "dogs bark outside", "the man talks"]


def run_captioner(case, tmp_path):
    """``restore`` keeps epoch 3 of 6; ``stop_loss`` stops after 5 and keeps epoch 3."""
    captions = [clean_caption(t) for t in CAPTIONS]
    vocab = build_vocabulary(captions)
    rng = np.random.RandomState(2)
    feats = {f"c{i}": rng.standard_normal((3, 5)) + i % 3 for i in range(len(captions))}
    pairs = [(f"c{i}", c) for i, c in enumerate(captions)]
    config = CaptionerConfig(variant="logmel", audio_dim=5, bigru1=3, bigru2=3, text_gru=6,
                             decoder_gru=6, embed_dim=6, dropout=0.2,
                             learning_rate=0.05 if case in ("restore", "stop_loss") else 0.01,
                             epochs=6, batch_size=6, seed=4)
    validate = case != "no_validation"
    ckpt, history = train_captioner(
        pairs[:4] if validate else pairs, feats, None, vocab, config,
        val_pairs=pairs[4:] if validate else None,
        stop_loss=STOP_LOSS if case == "stop_loss" else None)
    ckpt.save(tmp_path / "captioner.ckpt")
    return (history["train_loss"], history["val_loss"], history["best_epoch"],
            tmp_path / "captioner.ckpt")


STOP_LOSS = 2.0
CASES = ["validation", "no_validation", "restore"]
RUNS = {"mlp": run_mlp, "captioner": run_captioner}
GOLDEN = {
    ("mlp", "validation"): {
        "train": [
            "0x1.e37ed22238e38p-1", "0x1.a1bf6a91c71c7p-1", "0x1.63f145c8e38e4p-1",
            "0x1.3decffb471c71p-1", "0x1.234832638e38fp-1", "0x1.1936b080e38e4p-1",
        ],
        "val": [
            "0x1.5e58de938e38ep-1", "0x1.5a726e4e38e39p-1", "0x1.5a07095c71c72p-1",
            "0x1.59b86cfc71c72p-1", "0x1.55c1d3f1c71c7p-1", "0x1.539ea1e71c71cp-1",
        ],
        "best_epoch": 5,
        "sha256": "59b14bc8613a2cce6ee478a9d1c4d2dea9e4c168ff7b484ed3cbd134dec35bc3",
    },
    ("mlp", "no_validation"): {
        "train": [
            "0x1.b0c4277ce38e3p-1", "0x1.3243035a91c71p-1", "0x1.065054d38f155p-1",
            "0x1.f6687eb5980e4p-2", "0x1.af044134d0cbdp-2", "0x1.c1f96f2172e4bp-2",
        ],
        "val": [],
        "best_epoch": 4,
        "sha256": "566877e40dcb052ce4d659a484a4f7433d9fdd31288ae9f358e1ef80ec6a2994",
    },
    ("mlp", "restore"): {
        "train": [
            "0x1.9da926a955555p-1", "0x1.26c582fc40000p-1", "0x1.cae2289b11c73p-2",
            "0x1.d1182333affb9p-2", "0x1.a202303fb5aa0p-2", "0x1.a44e88404001bp-2",
        ],
        "val": [
            "0x1.781d8c3aaaaabp-1", "0x1.5955cfc4ce38ep-1", "0x1.a1434f37e09c7p-1",
            "0x1.31217b352e792p+0", "0x1.177a9ff53bf05p+0", "0x1.3823dac0f1ca5p+0",
        ],
        "best_epoch": 1,
        "sha256": "b9fc8b287b1bcc25efbc1728eeb3da6628373e2a40f8ecca252fa712308b440b",
    },
    ("captioner", "validation"): {
        "train": [
            "0x1.ae9d9b231c9aap+1", "0x1.697ca049766cfp+1", "0x1.6b3bee532c37cp+1",
            "0x1.6db5827a3d646p+1", "0x1.3bb5a6f230775p+1", "0x1.40eca961fc07cp+1",
        ],
        "val": [
            "0x1.d4a225af5e4f8p+1", "0x1.b45c1d81f2a3ap+1", "0x1.b5990b3f0ca89p+1",
            "0x1.a8fdb247f04a2p+1", "0x1.a7b49443c9f70p+1", "0x1.a2b947d349588p+1",
        ],
        "best_epoch": 5,
        "sha256": "5c7f113aa9e412d0d725deba2d8ab1a7e2919ce5e401d7fcafec2ced788947a4",
    },
    ("captioner", "no_validation"): {
        "train": [
            "0x1.97f180ab612a8p+1", "0x1.6dba12ea0f644p+1", "0x1.5f73b29c54b3fp+1",
            "0x1.48ad013dd7632p+1", "0x1.4347bee140878p+1", "0x1.31d477b1fb5f0p+1",
        ],
        "val": [],
        "best_epoch": 5,
        "sha256": "d0e994a5101568b4125a44a6373587cc2920b66c4214a3fb3397159266202ee4",
    },
    ("captioner", "restore"): {
        "train": [
            "0x1.a79e5511e7b06p+1", "0x1.60e4a947685adp+1", "0x1.7391800389c13p+1",
            "0x1.211de3fec2199p+1", "0x1.f5f9f12c0f783p+0", "0x1.cb20cd38ae137p+0",
        ],
        "val": [
            "0x1.19e6ba9df9ed2p+2", "0x1.95eedc3b63024p+1", "0x1.92b0054d66f20p+1",
            "0x1.966f52407909ap+1", "0x1.a4dc0e4fd10ecp+1", "0x1.bde76ebc0807cp+1",
        ],
        "best_epoch": 2,
        "sha256": "8b30b4f0c8ead545633cf814f8ffed670f1ed879eab01ed71919c607eb74a3d4",
    },
    ("captioner", "stop_loss"): {
        "train": [
            "0x1.a79e5511e7b06p+1", "0x1.60e4a947685adp+1", "0x1.7391800389c13p+1",
            "0x1.211de3fec2199p+1", "0x1.f5f9f12c0f783p+0",
        ],
        "val": [
            "0x1.19e6ba9df9ed2p+2", "0x1.95eedc3b63024p+1", "0x1.92b0054d66f20p+1",
            "0x1.966f52407909ap+1", "0x1.a4dc0e4fd10ecp+1",
        ],
        "best_epoch": 2,
        "sha256": "8b30b4f0c8ead545633cf814f8ffed670f1ed879eab01ed71919c607eb74a3d4",
    },
}


def record(run, case, tmp_path):
    train, val, best, path = run(case, tmp_path)
    return {"train": [float(v).hex() for v in train], "val": [float(v).hex() for v in val],
            "best_epoch": best, "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


@pytest.mark.parametrize("model, case", [(m, c) for m in RUNS for c in CASES]
                         + [("captioner", "stop_loss")])
def test_training_trajectory_is_pinned(model, case, tmp_path):
    assert record(RUNS[model], case, tmp_path) == GOLDEN[model, case]
