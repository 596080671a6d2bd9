"""Golden trajectories of ``train_mlp`` and ``train_captioner``.

Each case trains a seeded micro model and pins its per-epoch losses bit for
bit (``float.hex``), the epoch it keeps and the SHA-256 of the checkpoint file
it writes, and each captioner case also the greedy captions its checkpoint
decodes. Any change to the training loop's order of random draws, updates,
loss sums, best-epoch selection or state restore, or to the decode's
arithmetic, shows here. The values are
results of numpy on x86-64, both models at float32 (their losses summed in
float64); another BLAS may round differently.
"""

import hashlib

import numpy as np
import pytest

from aucap.captioner import CaptionerCheckpoint, CaptionerConfig, train_captioner
from aucap.mlp import MLPConfig, train_mlp
from aucap.text import build_vocabulary, clean_caption


def mlp_data(seed, n=24, noise=0.3, width=6):
    """Three labels, each switched on by a block of a third of the ``width`` features."""
    rng = np.random.RandomState(seed)
    y = (rng.random_sample((n, 3)) > 0.5).astype(float)
    x = np.repeat(y, width // 3, axis=1) * 2.0 + rng.standard_normal((n, width)) * noise
    return x, y


MLP_RATES = {"validation": 0.01, "no_validation": 0.2, "restore": 0.15, "wide": 0.01}


def run_mlp(case, tmp_path):
    """``no_validation`` keeps its last epoch, although at this rate its training
    loss is lowest in epoch 5 of 6; ``restore`` keeps epoch 2. ``wide`` reads
    300 features into 256 hidden units: its first layer's 76,800 weights span
    several of the initial draw's row blocks and two of Adam's blocks."""
    width, hidden = (300, (256,)) if case == "wide" else (6, (8, 8))
    x, y = mlp_data(0, width=width)
    xv, yv = mlp_data(2, n=12, noise=1.5, width=width)
    config = MLPConfig(input_dim=width, output_dim=3, hidden_widths=hidden, dropout=0.25,
                       learning_rate=MLP_RATES[case], epochs=6, batch_size=8, seed=3)
    validate = case != "no_validation"
    model, history = train_mlp(x, y, config, val_features=xv if validate else None,
                               val_targets=yv if validate else None)
    model.save(tmp_path / "mlp.ckpt")
    return (history.train_losses, history.val_losses, history.best_epoch,
            tmp_path / "mlp.ckpt")


CAPTIONS = ["dog barks loudly", "man speaks softly", "rain falls down", "a bell rings",
            "dogs bark outside", "the man talks"]


def captioner_data():
    """The captions, their vocabulary, one (3, 5) log-Mel-like matrix per clip
    and the (clip_id, caption) pairs."""
    captions = [clean_caption(t) for t in CAPTIONS]
    vocab = build_vocabulary(captions)
    rng = np.random.RandomState(2)
    feats = {f"c{i}": rng.standard_normal((3, 5)) + i % 3 for i in range(len(captions))}
    return captions, vocab, feats, [(f"c{i}", c) for i, c in enumerate(captions)]


def run_captioner(case, tmp_path):
    """``restore`` keeps epoch 3 of 6. ``two_per_clip`` trains, without
    validation, on the six captions as two captions of each of three clips."""
    captions, vocab, feats, pairs = captioner_data()
    if case == "two_per_clip":
        pairs = [(f"c{i // 2}", c) for i, c in enumerate(captions)]
        case = "no_validation"
    config = CaptionerConfig(variant="logmel", audio_dim=5, bigru1=3, bigru2=3, text_gru=6,
                             decoder_gru=6, embed_dim=6, dropout=0.2,
                             learning_rate=0.05 if case == "restore" else 0.01,
                             epochs=6, batch_size=6, seed=4)
    validate = case != "no_validation"
    ckpt, history = train_captioner(
        pairs[:4] if validate else pairs, feats, None, vocab, config,
        val_pairs=pairs[4:] if validate else None)
    ckpt.save(tmp_path / "captioner.ckpt")
    return (history["train_loss"], history["val_loss"], history["best_epoch"],
            tmp_path / "captioner.ckpt")


CASES = ["validation", "no_validation", "restore"]
CAPTIONER_CASES = CASES + ["two_per_clip"]
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
        "best_epoch": 5,
        "sha256": "c91a9881c8c9f7804ebc16afbd5cbd19b4b766ea3e30b1c39ae440e94157cbfb",
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
    ("mlp", "wide"): {
        "train": [
            "0x1.2378db7cabf68p+0", "0x1.617b82eac2e73p-4", "0x1.1ffd9a418e8c5p-5",
            "0x1.bb9155fb25c89p-10", "0x1.9fe321f2fff8bp-5", "0x1.1bd57bd0fe88fp-12",
        ],
        "val": [
            "0x1.52e2d8a390b08p-3", "0x1.324cfbb050d9dp-3", "0x1.4b1e5933d6094p-3",
            "0x1.547d9b355b661p-3", "0x1.55e961879b264p-3", "0x1.530eefb7a4dbcp-3",
        ],
        "best_epoch": 1,
        "sha256": "d61b9ba49bfc9b5dcc91a740108a4f8e3def783f500198f3ed94fbf19c4078e0",
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
    ("captioner", "two_per_clip"): {
        "train": [
            "0x1.af8cfebc5a32dp+1", "0x1.8e8447193c120p+1", "0x1.72186ba2ead18p+1",
            "0x1.62dbb1e5d986bp+1", "0x1.5203e54812452p+1", "0x1.54cb9b5001819p+1",
        ],
        "val": [],
        "best_epoch": 5,
        "sha256": "c5febaa1822f1574cb8c8da9e0604360b625fcf1cd181fdb16753e82c63b3dff",
    },
}


# Greedy captions (max_len 22) of every clip from each captioner case's checkpoint file.
CAPTIONS_DECODED = {
    "validation": [
        "<sos> <eos>",
        "<sos> dog <eos>",
        "<sos> bell rings rings speaks rings down speaks rings down speaks down speaks "
        "down rain speaks down rain speaks down rain speaks",
        "<sos> down down rings down rings down down rings down rings down rings down "
        "rings down rings down rings down rings down",
        "<sos> falls bell rings rings down rings down rings down down rings down speaks "
        "rings down rings down speaks rings down rings",
        "<sos> man rain rain rain rain rain rain rain rain rain rain rain rain rain rain "
        "rain rain rain rain rain rain",
    ],
    "no_validation": [
        "<sos> man <eos>",
        "<sos> rain rain <eos>",
        "<sos> man rain rings <eos>",
        "<sos> the the down down <eos>",
        "<sos> man down rings rings rings rings rings rings rings rings rings rings rings "
        "rings rings rings rings rings rings rings rings",
        "<sos> man rain rain <eos>",
    ],
    "restore": [
        "<sos> man speaks speaks <eos>",
        "<sos> man speaks speaks speaks speaks speaks speaks speaks speaks speaks speaks "
        "speaks speaks speaks speaks speaks speaks speaks speaks speaks speaks",
        "<sos> bell rings bell rings rings <eos>",
        "<sos> bell rings <eos>",
        "<sos> bell rings bell rings rings <eos>",
        "<sos> down down down down down down down down down down down down down down down "
        "down down down down down down",
    ],
    "two_per_clip": [
        "<sos> softly rings rain rings rings <eos>",
        "<sos> <eos>",
        "<sos> man rain rings rings rings rings rings rings rings rings rings rings rings rings "
        "rings rings rings rings rings rings rings",
        "<sos> down down down <eos>",
        "<sos> dogs bark rings rings rings rings rings rings rings rings rings rings rings rings "
        "rings rings rings rings rings rings rings",
        "<sos> rain bark rain rings <eos>",
    ],
}


def record(run, case, tmp_path):
    train, val, best, path = run(case, tmp_path)
    return {"train": [float(v).hex() for v in train], "val": [float(v).hex() for v in val],
            "best_epoch": best, "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


@pytest.mark.parametrize("model, case", [(m, c) for m in RUNS for c in CASES]
                         + [("mlp", "wide"), ("captioner", "two_per_clip")])
def test_training_trajectory_is_pinned(model, case, tmp_path):
    assert record(RUNS[model], case, tmp_path) == GOLDEN[model, case]


@pytest.mark.parametrize("case", CAPTIONER_CASES)
def test_greedy_captions_are_pinned(case, tmp_path):
    captions, vocab, feats, _ = captioner_data()
    path = run_captioner(case, tmp_path)[3]
    model = CaptionerCheckpoint.load(path, vocab=vocab).build_model()
    decoded = [" ".join(model.greedy_decode(feats[f"c{i}"], vocab, max_len=22))
               for i in range(len(captions))]
    assert decoded == CAPTIONS_DECODED[case]
