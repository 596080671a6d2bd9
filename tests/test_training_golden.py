"""Golden trajectories of ``train_mlp`` and ``train_captioner``.

Each case trains a seeded micro model and pins its per-epoch losses bit for
bit (``float.hex``), the epoch it keeps and the SHA-256 of the checkpoint file
it writes. Any change to the training loop's order of random draws, updates,
loss sums, best-epoch selection or state restore shows here. The values are
float64 results of numpy on x86-64; another BLAS may round differently.
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
            "0x1.e37ed3447bc64p-1", "0x1.a1bf6b0a26b6fp-1", "0x1.63f145c99b9ddp-1",
            "0x1.3decffa8f1fb1p-1", "0x1.2348322954defp-1", "0x1.1936b02904dcbp-1",
        ],
        "val": [
            "0x1.5e58ded27974dp-1", "0x1.5a726f337f467p-1", "0x1.5a070a65fc054p-1",
            "0x1.59b86d413dd9ap-1", "0x1.55c1d440a4c40p-1", "0x1.539ea2d277a52p-1",
        ],
        "best_epoch": 5,
        "sha256": "4ff47dc2341bd133016cc5af8d0660a639a86e04abe9a1809e3f2ecde609a8a1",
    },
    ("mlp", "no_validation"): {
        "train": [
            "0x1.b0c428468c105p-1", "0x1.32430483dbedbp-1", "0x1.0650561bd8733p-1",
            "0x1.f6687f8753425p-2", "0x1.af0447cb377a9p-2", "0x1.c1f93f24816afp-2",
        ],
        "val": [],
        "best_epoch": 4,
        "sha256": "99dbeb711637e86bc1add16642e4f5138897b7f780333612a8b60941f97435ab",
    },
    ("mlp", "restore"): {
        "train": [
            "0x1.9da926c1a10c4p-1", "0x1.26c582fc16d57p-1", "0x1.cae2299e5e56bp-2",
            "0x1.d118253a0dd95p-2", "0x1.a20233efbbc1bp-2", "0x1.a44e8b158d608p-2",
        ],
        "val": [
            "0x1.781d8bd4aacbep-1", "0x1.5955cfc647fa9p-1", "0x1.a14351179d4a3p-1",
            "0x1.31217b1442d3bp+0", "0x1.177a9b93ed7e0p+0", "0x1.3823d95d46b4ap+0",
        ],
        "best_epoch": 1,
        "sha256": "d33559ac675c2383629ac234dbc569f1200feea3594fcfb39c4626390d72e9ff",
    },
    ("captioner", "validation"): {
        "train": [
            "0x1.ae9d9b598a93ap+1", "0x1.697c9f9f2c384p+1", "0x1.6b3bed61752ebp+1",
            "0x1.6db581d2d30c0p+1", "0x1.3bb5a62a39d57p+1", "0x1.40eca89e5109cp+1",
        ],
        "val": [
            "0x1.d4a22429bb83ap+1", "0x1.b45c1c29e1474p+1", "0x1.b5990a0998e6fp+1",
            "0x1.a8fdb2066e35ep+1", "0x1.a7b493dee871cp+1", "0x1.a2b948c37cd9dp+1",
        ],
        "best_epoch": 5,
        "sha256": "28714fe9f22becce78d26d98095b8ddd1ecdae568f9081b672ff5c37b48e845c",
    },
    ("captioner", "no_validation"): {
        "train": [
            "0x1.97f180fa3e6afp+1", "0x1.6dba127bb3876p+1", "0x1.5f73b1fdc6001p+1",
            "0x1.48ad00573ecf3p+1", "0x1.4347c77b53c93p+1", "0x1.31d4787fcfd7fp+1",
        ],
        "val": [],
        "best_epoch": 5,
        "sha256": "12adc212a0e1b46f0e0bb1a428190b4094daef576941c4aa48e1dc9cb00d33bb",
    },
    ("captioner", "restore"): {
        "train": [
            "0x1.a79e5586233b7p+1", "0x1.60e4aa80a089ep+1", "0x1.7391812fc9e29p+1",
            "0x1.211de50374b63p+1", "0x1.f5f9f66975732p+0", "0x1.cb20cfe2fb30ap+0",
        ],
        "val": [
            "0x1.19e6b8d538632p+2", "0x1.95eedd4ce62d5p+1", "0x1.92b004d822836p+1",
            "0x1.966f56c1eebc0p+1", "0x1.a4dc16bcf221dp+1", "0x1.bde74f01470f2p+1",
        ],
        "best_epoch": 2,
        "sha256": "fe8fcf974cb26ea24f19d5ef90f28da85611196df12ffbb80ff1742febcc6080",
    },
    ("captioner", "stop_loss"): {
        "train": [
            "0x1.a79e5586233b7p+1", "0x1.60e4aa80a089ep+1", "0x1.7391812fc9e29p+1",
            "0x1.211de50374b63p+1", "0x1.f5f9f66975732p+0",
        ],
        "val": [
            "0x1.19e6b8d538632p+2", "0x1.95eedd4ce62d5p+1", "0x1.92b004d822836p+1",
            "0x1.966f56c1eebc0p+1", "0x1.a4dc16bcf221dp+1",
        ],
        "best_epoch": 2,
        "sha256": "fe8fcf974cb26ea24f19d5ef90f28da85611196df12ffbb80ff1742febcc6080",
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
