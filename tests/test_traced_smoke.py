"""The benchmark tracer (``perfbench/tracing.py``) run over a few small calls.

``test_tracing_contract.py`` checks that the tracer installs and restores its
patches. This runs wrapped code with the tracer installed, so a label or hook
that reads a renamed attribute (the ``GRU.run`` label reads ``cell.W_z.name``)
fails here instead of only in the benchmark's own, much slower, test. Each
call goes through its module, where the tracer patches it.
"""

import numpy as np

from aucap import captioner, metrics, mlp
from aucap.captioner import CaptionerConfig
from aucap.mlp import MLPConfig
from aucap.text import build_vocabulary, clean_caption
from test_tracing_contract import load_tracing


def test_traced_calls_report_their_layers():
    tracing = load_tracing()
    tracer = tracing.Tracer("smoke")
    installer = tracing.install(tracer)
    try:
        rng = np.random.RandomState(0)
        texts = {"dog": "a dog barks", "rain": "rain falls on a roof", "car": "a car passes"}
        pairs = [(clip, clean_caption(text)) for clip, text in texts.items()]
        vocab = build_vocabulary([caption for _, caption in pairs])
        features = {clip: rng.standard_normal((3, 8)).astype(np.float32) for clip in texts}
        config = CaptionerConfig(variant="logmel", audio_dim=8, bigru1=4, bigru2=4, text_gru=8,
                                 decoder_gru=8, embed_dim=8, dropout=0.0, epochs=2, batch_size=8)
        checkpoint, _ = captioner.train_captioner(pairs[:2], features, None, vocab, config,
                                                  val_pairs=pairs[2:])
        model = checkpoint.build_model()
        decoded = [model.greedy_decode(features[clip], vocab, max_len=5) for clip, _ in pairs]

        x = rng.standard_normal((8, 4))
        mlp.train_mlp(x, (x[:, :2] > 0).astype(float),
                      MLPConfig(input_dim=4, output_dim=2, hidden_widths=(8,), epochs=2,
                                batch_size=4))
        metrics.score_corpus([tokens[1:] for tokens in decoded], [[ref] for _, ref in pairs])
    finally:
        installer.restore()

    rows = tracing.layer_metrics(tracer)
    for name in ("layers.BiGRU.run.ms", "layers.GRU.run.enc.text.ms", "optim.adam_step.ms",
                 "captioner.greedy_decode.ms", "captioner.val_pass.ms", "mlp.forward.train.ms"):
        assert rows[name][0] > 0, name
    for name in ("captioner.train_captioner", "mlp.train_mlp", "metrics.score_corpus"):
        assert tracer.calls(name) == 1, name
