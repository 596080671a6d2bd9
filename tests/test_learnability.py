"""Learnability gates: absolute statements of what training achieves.

The goldens pin exact losses and captions, and the gradient checks pin each
op; neither asks whether training learns. These gates do, on the caption
model of the benchmark's fixtures (``perfbench/fixtures.py``): captions of
8-20 words over a vocabulary of about 4.5k words, and panns-like clip vectors
or short log-Mel frame sequences drawn around one template per sound class.
The setups are fixed; a gate that fails is a finding about the program, not a
bound to tune.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from aucap.captioner import CaptionerConfig, _encode_captions, train_captioner
from aucap.mlp import MLPConfig, predict_sve, train_mlp
from aucap.text import Vocabulary, build_vocabulary, clean_caption

FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures.py"


def load_fixtures():
    spec = importlib.util.spec_from_file_location("perfbench_fixtures", FIXTURES)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def memorise_captions(variant: str, frames: int, width: int) -> None:
    """8 clips of 8 classes, one caption each, each clip a (frames, width)
    class template plus noise; dropout 0, lr 3e-3, 60 epochs: every greedy
    caption is its training caption."""
    fx = load_fixtures()
    model = fx.CaptionModel(1)
    rng = np.random.RandomState(2)
    templates = rng.standard_normal((fx.N_CLASSES, frames, width))
    pairs, features = [], {}
    for cls in range(8):
        clip_id = f"clip{cls}"
        pairs.append((clip_id, clean_caption(model.caption(rng, cls))))
        clip = templates[cls] + 0.8 * rng.standard_normal((frames, width))
        features[clip_id] = clip.astype(np.float32)
    vocab = Vocabulary(model.words())
    config = CaptionerConfig(variant=variant, dropout=0.0, learning_rate=3e-3, epochs=60)

    checkpoint, _ = train_captioner(pairs, features, None, vocab, config)
    captioner = checkpoint.build_model()
    for clip_id, caption in pairs:
        assert captioner.greedy_decode(features[clip_id], vocab) == caption, clip_id


def test_captioner_memorises_eight_clips():
    """panns: one 2048-vector per clip."""
    memorise_captions("panns", 1, load_fixtures().PANNS_DIM)


def test_logmel_captioner_memorises_eight_clips():
    """log-Mel: 10 frames of 64 bands per clip, through both BiGRUs' time loops."""
    memorise_captions("logmel", 10, 64)


# Nats by which the best held-out loss must beat the unigram. On fixture seeds
# 11-30 (not used here) the gap was 0.249-0.535 (panns) and 0.223-0.375 (logmel).
GENERALISE_MARGIN = 0.1


def unigram_cross_entropy(train, held_out, vocab: Vocabulary) -> float:
    """Mean -ln p of every held-out target token (each caption token after
    ``<sos>``) under the add-one unigram of the training captions' targets,
    over the model's whole output vocabulary."""
    def targets(pairs):
        return [i for _, ids in _encode_captions(pairs, vocab) for i in ids[1:]]

    counts = np.bincount(targets(train), minlength=len(vocab)) + 1.0
    return float(-np.mean(np.log(counts / counts.sum())[targets(held_out)]))


def generalise(variant: str, frames: int, width: int) -> None:
    """16 development and 8 held-out clips, 2 and 1 per class, each with 5
    captions and a (frames, width) class template plus noise; the vocabulary
    of the development captions (held-out words outside it are ``<unk>``);
    dropout 0.2, lr 3e-3, 6 epochs: the best held-out loss beats the
    unigram of the development captions by ``GENERALISE_MARGIN``."""
    fx = load_fixtures()
    model = fx.CaptionModel(1)
    rng = np.random.RandomState(2)
    templates = rng.standard_normal((fx.N_CLASSES, frames, width))
    features = {}

    def split(prefix: str, count: int):
        pairs = []
        for i in range(count):
            clip_id, cls = f"{prefix}{i}", i % fx.N_CLASSES
            clip = templates[cls] + 0.8 * rng.standard_normal((frames, width))
            features[clip_id] = clip.astype(np.float32)
            pairs += [(clip_id, clean_caption(model.caption(rng, cls))) for _ in range(5)]
        return pairs

    train, held_out = split("dev", 16), split("val", 8)
    vocab = build_vocabulary(caption for _, caption in train)
    config = CaptionerConfig(variant=variant, audio_dim=width, bigru1=16, bigru2=16,
                             text_gru=32, decoder_gru=32, embed_dim=32, dropout=0.2,
                             learning_rate=3e-3, epochs=6, seed=1)

    _, history = train_captioner(train, features, None, vocab, config, val_pairs=held_out)
    unigram = unigram_cross_entropy(train, held_out, vocab)
    assert min(history["val_loss"]) < unigram - GENERALISE_MARGIN, (history, unigram)


def test_captioner_generalises_beyond_the_unigram():
    """panns: one 2048-vector per clip."""
    generalise("panns", 1, load_fixtures().PANNS_DIM)


def test_logmel_captioner_generalises_beyond_the_unigram():
    """log-Mel: 10 frames of 64 bands per clip."""
    generalise("logmel", 10, 64)


def test_mlp_memorises_eight_clips():
    """The paper's MLP (six hidden layers) on 8 panns-like clips, each with 16
    random binary labels (p = 0.3); dropout 0, lr 1e-3, 50 epochs of one
    batch: every training label is recovered at a threshold of 0.5."""
    fx = load_fixtures()
    rng = np.random.RandomState(5)
    centroids = rng.standard_normal((fx.N_CLASSES, fx.PANNS_DIM))
    x = (centroids[:8] + 0.8 * rng.standard_normal((8, fx.PANNS_DIM))).astype(np.float32)
    labels = (rng.uniform(size=(8, 16)) < 0.3).astype(np.float32)
    config = MLPConfig(input_dim=fx.PANNS_DIM, output_dim=16, dropout=0.0, learning_rate=1e-3,
                       epochs=50, batch_size=8)

    model, _ = train_mlp(x, labels, config)
    assert np.array_equal(predict_sve(model, x) > 0.5, labels == 1)
