"""Time the set-up a fresh ``aucap`` process pays before its first phase.

Usage: ``python3 setup_probe.py <src dir> <fixture dir>``. Measures importing
``aucap`` and loading the workload's caption manifest (both splits, with their
referenced files resolved), tag lexicon and vocabulary, and prints one JSON
line with the seconds taken and what was loaded.
"""

import json
import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from aucap import dataset as ds  # noqa: E402
from aucap.semantics import TagLexicon  # noqa: E402
from aucap.text import Vocabulary  # noqa: E402

root = Path(sys.argv[2])
records = ds.load_caption_csv(root / "development.csv", "clotho", "development", root / "audio")
records += ds.load_caption_csv(root / "validation.csv", "clotho", "validation", root / "audio")
TagLexicon.load(root / "lexicon.tsv")
vocab = Vocabulary.load(root / "vocabulary.tsv")
print(json.dumps({"seconds": time.perf_counter() - start, "clips": len(records),
                  "vocab": len(vocab)}))
