"""Learnability gates: absolute statements of what training achieves.

The goldens pin exact losses and captions, and the gradient checks pin each
op; neither asks whether training learns. These gates do, on the caption
model of the benchmark's fixtures (``perfbench/fixtures.py``): captions of
8-20 words over a vocabulary of about 4.5k words, and panns-like clip vectors
drawn around one centroid per sound class. The setups are fixed; a gate that
fails is a finding about the program, not a bound to tune.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from aucap.captioner import CaptionerConfig, train_captioner
from aucap.text import Vocabulary, clean_caption

FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures.py"


def load_fixtures():
    spec = importlib.util.spec_from_file_location("perfbench_fixtures", FIXTURES)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_captioner_memorises_eight_clips():
    """8 panns-like clips of 8 classes, one caption each, dropout 0, lr 3e-3,
    60 epochs: every greedy caption is its training caption."""
    fx = load_fixtures()
    model = fx.CaptionModel(1)
    rng = np.random.RandomState(2)
    centroids = rng.standard_normal((fx.N_CLASSES, fx.PANNS_DIM))
    pairs, features = [], {}
    for cls in range(8):
        clip_id = f"clip{cls}"
        pairs.append((clip_id, clean_caption(model.caption(rng, cls))))
        vec = centroids[cls] + 0.8 * rng.standard_normal(fx.PANNS_DIM)
        features[clip_id] = vec.reshape(1, -1).astype(np.float32)
    vocab = Vocabulary(model.words())
    config = CaptionerConfig(variant="panns", dropout=0.0, learning_rate=3e-3, epochs=60)

    checkpoint, _ = train_captioner(pairs, features, None, vocab, config)
    captioner = checkpoint.build_model()
    for clip_id, caption in pairs:
        assert captioner.greedy_decode(features[clip_id], vocab) == caption, clip_id
