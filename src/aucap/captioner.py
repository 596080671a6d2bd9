"""GRU encoder-decoder captioning model.

Audio branch: BiGRU -> batch norm -> BiGRU -> batch norm (final state).
Text branch: embedding -> GRU -> batch norm (final state over the partial
caption). The two states are concatenated into x and decoded by
h = sigmoid(W_z x + b_z) * tanh(W x + b), batch norm and a dense layer to one
logit per vocabulary word. Training is teacher-forced: each caption of N
tokens contributes N-1 (prefix -> next word) examples, and minimises the
cross-entropy of the softmax of those logits, fused into one node
(``T.softmax_cross_entropy``).

A training batch is whole captions, grouped by clip: an epoch permutes the
clips, each clip gives its captions in their given order, and a batch closes
once it holds ``batch_size`` examples and at least 2 clips, the rest of a
clip's captions starting the next (``_clip_batches``). The audio state never
depends on the prefix, and the text state of prefix i is step i of one
text-GRU pass over the caption, so a batch of k captions of c clips takes
one audio pass over its c clips and one text-GRU pass over its (L, k) token
matrix, in which shorter captions are padded after their last token. The
GRU runs forward in time, so a valid step's state never sees the padding
after it, and every gradient at a pad step is zero: the padding needs no
mask. ``bn_audio2`` normalizes the c final audio states, each weighted by
its clip's number of examples, and the valid (step, caption) text states are
gathered to one row per example for ``bn_text``; both thus see the
statistics of one row per example. Each example's audio state is then
gathered through its caption's clip row, and all are decoded together. The
c clips' features and SVEs are joined per batch, by one
``build_encoder_input`` call: training holds no joined copy of the clips.
With one caption per clip, the batches and every random draw are those of
packing the captions themselves.

The model runs at float32: its layers hand out float32 parameters (each
drawn straight into its float32 array), and its inputs are cast to their width,
so the whole graph follows them. The loss and the train-mode batch-norm
statistics reduce in float64 (see ``nn/tensor.py``). Weighting the clip rows
instead of repeating them matters at float32: when a batch holds one clip,
the gradient that ``bn_audio2`` passes on is exactly zero, but summed over n
repeated rows it keeps a rounding residue that 1/sqrt(eps) magnifies past
Adam's eps.

The paper's decoder is a GRU run for one step from h0 = 0. With h0 = 0 the
reset gate only scales the zero state and the recurrent columns of the
update and candidate weights only multiply it, so the step
(1 - z) * h0 + z * h_hat reduces to the closed form above: the same
function, without the weights that could never get a gradient.

The audio state never depends on the caption prefix ("merge" design), so
greedy decoding encodes the audio once per clip and advances the text-GRU
state by one step per emitted token. This is exact: the text state of a
prefix is one cell step on from the state of the prefix one token shorter,
and infer-mode batch norm normalizes each row with frozen statistics, so
every step decodes the same numbers as ``forward`` on the whole prefix.

Only the audio encoding builds autodiff nodes; the tokens are stepped on
plain arrays (``_TokenSteps``). What stays fixed during a decode is prepared
once per clip: the text-GRU cell's ``GRUStep`` (views of the layer's gate
and bias stacks, whose transposed gate slices its two products read) and
reused buffers, each batch norm's bias-corrected mean and
1/sqrt(var + eps) at the model's width, and transposed views of the decoder
and output weights. A token then runs, at batch 1, the kernels that
``forward``'s ops run: ``GRUStep`` is the body of ``gru_sequence``'s loop,
and the decoder calls the forwards of ``T.linear``, ``T.sigmoid`` and
``T.batch_norm_infer`` (``tensor._linear``, ``_sigmoid``, ``_batch_norm_infer``)
on the same operands, each product on the weights' transposed view (a
C-contiguous copy would let BLAS round differently). So every logit is
bitwise equal to ``forward``'s: the two paths share code, not a copied op order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .audio.embeddings import VARIANT_DIMS
from .errors import CheckpointError, ConfigError, ShapeError
from .nn.checkpoint import (config_from_meta, load_model_state, load_parameters, load_tensors,
                            save_tensors)
from .nn.layers import BatchNorm, BiGRU, Dense, Embedding, GRU, GRUStep, glorot_uniform
from .nn import tensor as T
from .nn.optim import AdamState, adam_step, check_training_fields, fit
from .nn.tensor import Parameter, Tensor
from .text import SOS, Vocabulary, encode


@dataclass(frozen=True)
class CaptionerConfig:
    variant: str = "panns"
    sve_dim: int = 0              # K; 0 disables the SVE input
    audio_dim: int | None = None  # defaults to the variant's feature width
    bigru1: int = 32
    bigru2: int = 64
    text_gru: int = 128
    decoder_gru: int = 128        # decoder state width (the paper's decoder GRU size)
    embed_dim: int = 256
    dropout: float = 0.5
    learning_rate: float = 1e-3
    epochs: int = 50
    batch_size: int = 64          # least examples (prefixes) per optimizer step: whole
                                  # captions grouped by clip, from at least 2 clips, so a
                                  # step often holds more; an epoch's last step takes the rest
    max_len: int = 22
    seed: int = 0

    def __post_init__(self):
        check_training_fields(self)
        for name, low in (("embed_dim", 1), ("bigru1", 1), ("bigru2", 1), ("text_gru", 1),
                          ("decoder_gru", 1), ("sve_dim", 0), ("audio_dim", 1), ("max_len", 2)):
            value = getattr(self, name)
            if value is not None and value < low:  # audio_dim None: the variant's width
                raise ConfigError(f"CaptionerConfig {name} must be at least {low}, got {value!r}")

    @property
    def feature_dim(self) -> int:
        return self.audio_dim if self.audio_dim is not None else VARIANT_DIMS[self.variant]

    @property
    def encoder_input_dim(self) -> int:
        return self.feature_dim + self.sve_dim

    @property
    def fused_dim(self) -> int:
        return 2 * self.bigru2 + self.text_gru


def build_encoder_input(audio, sve: np.ndarray | None, variant: str) -> np.ndarray:
    """The (T, F + K) encoder input of one clip's (T, F) features and (K,)
    SVE, or the (B, T, F + K) input of a (B, T, F) stack and its (B, K) SVEs.

    Each frame holds the clip's features, then its SVE (panns: one frame, the
    clip vector). ``sve=None`` leaves the features unchanged (no-SVE
    ablation). The one place where features and SVE are joined: it fills one
    new float32 array, the model's width (and ``embfile``'s).
    """
    if variant not in VARIANT_DIMS:
        raise ValueError(f"unknown variant {variant!r}")
    arr = np.asarray(audio)
    if arr.ndim not in (2, 3):
        raise ShapeError(f"audio features must be 2-D or a 3-D stack, got shape {arr.shape}")
    if variant == "panns" and arr.shape[-2] != 1:
        raise ShapeError(f"panns features are one vector per clip, got {arr.shape[-2]} rows")
    sve = np.zeros(arr.shape[:-2] + (0,)) if sve is None else np.asarray(sve)
    if sve.ndim != arr.ndim - 1 or sve.shape[:-1] != arr.shape[:-2]:
        raise ShapeError(f"SVE of shape {sve.shape} for features of shape {arr.shape}")
    out = np.empty(arr.shape[:-1] + (arr.shape[-1] + sve.shape[-1],), dtype=np.float32)
    out[..., : arr.shape[-1]] = arr
    out[..., arr.shape[-1]:] = sve[..., None, :]  # the same SVE on every frame
    return out


def _decoder_input_block(input_dim: int, hidden: int, rng) -> np.ndarray:
    """The (hidden, input_dim) input columns of one gate of a decoder GRU cell,
    from ``rng``'s next draws as ``GRUCellParams.stacked`` makes them: the
    recurrent block's standard normal draw, which ``orthogonal`` would factorise
    and which is dropped here, then the input block's Glorot-uniform draw.
    Uninitialized when ``rng`` is None."""
    out = np.empty((hidden, input_dim), np.float32)
    if rng is not None:
        rng.standard_normal((hidden, hidden))
        glorot_uniform(rng, out)
    return out


class Captioner:
    def __init__(self, vocab_size: int, config: CaptionerConfig,
                 rng: np.random.RandomState | None, embed_init: np.ndarray | None = None):
        if vocab_size < 5:
            raise ShapeError("vocabulary must hold the reserved tokens plus at least one word")
        self.config = config
        self.vocab_size = vocab_size
        c = config
        in_dim = c.encoder_input_dim
        self.audio_gru1 = BiGRU(in_dim, c.bigru1, rng, name="enc.audio1")
        self.bn_audio1 = BatchNorm(2 * c.bigru1, name="enc.bn_audio1")
        self.audio_gru2 = BiGRU(2 * c.bigru1, c.bigru2, rng, name="enc.audio2")
        self.bn_audio2 = BatchNorm(2 * c.bigru2, name="enc.bn_audio2")
        self.embedding = Embedding(vocab_size, c.embed_dim, rng, init=embed_init,
                                   name="enc.embedding")
        self.text_gru = GRU(c.embed_dim, c.text_gru, rng, name="enc.text")
        self.bn_text = BatchNorm(c.text_gru, name="enc.bn_text")
        # the draws of a GRU cell, of which only W_z's and W's input columns are kept:
        # they and dec.out start as in the GRU form
        w_z, _, w = (_decoder_input_block(c.fused_dim, c.decoder_gru, rng) for _ in range(3))
        self.dec_W_z, self.dec_W = Parameter(w_z, "dec.W_z"), Parameter(w, "dec.W")
        self.dec_b_z, self.dec_b = (Parameter(np.zeros(c.decoder_gru, np.float32), f"dec.{b}")
                                    for b in ("b_z", "b"))
        self.bn_decoder = BatchNorm(c.decoder_gru, name="dec.bn")
        self.out = Dense(c.decoder_gru, vocab_size, rng, name="dec.out")

    @property
    def width(self) -> np.dtype:
        """The parameters' dtype, which inputs are cast to: float32 as built,
        or float64 once the parameters are cast up (as the gradient checks do)."""
        return self.out.weights.data.dtype

    # -- plumbing -----------------------------------------------------------

    def parameters(self) -> list[Parameter]:
        out = []
        for part in (self.audio_gru1, self.bn_audio1, self.audio_gru2, self.bn_audio2,
                     self.embedding, self.text_gru, self.bn_text):
            out.extend(part.parameters())
        out += [self.dec_W_z, self.dec_b_z, self.dec_W, self.dec_b]
        return out + self.bn_decoder.parameters() + self.out.parameters()

    def _batch_norms(self) -> list[BatchNorm]:
        return [self.bn_audio1, self.bn_audio2, self.bn_text, self.bn_decoder]

    def state(self) -> dict[str, np.ndarray]:
        """The parameters' own arrays by name, then the batch-norm buffers
        (``buffer.<name>.*``), uncopied: the tensors of a checkpoint, in file order."""
        out = {p.name: p.data for p in self.parameters()}
        for bn in self._batch_norms():
            out.update(bn.buffers())
        return out

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        load_parameters(self.parameters(), state)
        for bn in self._batch_norms():
            bn.load_buffers(state)

    # -- forward ------------------------------------------------------------

    def encode_audio(self, audio: np.ndarray, mode: str,
                     rng: np.random.RandomState | None = None, rows=None) -> Tensor:
        """(batch, 2*bigru2) audio state: BiGRU -> BN -> BiGRU -> BN (final state).

        ``rows`` gathers clip rows of the state, giving one output row per
        entry; a train-mode ``bn_audio2`` weights each clip row by the number
        of entries that name it, its statistics those of the gathered rows.
        """
        audio = np.asarray(audio, dtype=self.width)
        if audio.ndim != 3 or audio.shape[2] != self.config.encoder_input_dim:
            raise ShapeError(
                f"audio batch must be (B, T, {self.config.encoder_input_dim}), got {audio.shape}"
            )
        xs = Tensor(audio.transpose(1, 0, 2))  # time-major (T, B, d)
        xs = T.dropout(xs, self.config.dropout, mode, rng)
        seq1 = self.audio_gru1.run(xs, return_sequence=True)
        steps, batch, width = seq1.data.shape
        # one batch-norm batch of all T*B frame states, rows in time-major order
        normed = self.bn_audio1(T.reshape(seq1, (steps * batch, width)), mode=mode)
        audio_vec = self.audio_gru2.run(T.reshape(normed, (steps, batch, width)))
        if rows is None:
            return self.bn_audio2(audio_vec, mode=mode)
        counts = np.bincount(rows, minlength=batch)
        return T.embedding_lookup(self.bn_audio2(audio_vec, mode=mode, counts=counts), rows)

    def encode(self, audio: np.ndarray, prefix: np.ndarray, positions, mode: str,
               rng: np.random.RandomState | None = None, *, clip_of_caption) -> Tensor:
        """Fused (examples, 2*bigru2 + text_gru) representation of audio + partial captions.

        ``prefix`` is (captions, L) and runs through the text GRU in one pass.
        ``clip_of_caption`` names the row of ``audio`` that each caption is
        of. ``positions`` = (steps, rows) index arrays name the examples:
        example e is the prefix ``prefix[rows[e], :steps[e] + 1]`` of caption
        ``rows[e]``. Columns after an example's step (padding, in a batch of
        captions of several lengths) come later in time, so they change
        neither its state nor its gradient.
        """
        prefix = np.asarray(prefix, dtype=np.int64)
        clips = np.shape(audio)[0] if np.ndim(audio) else 0
        clip_of_caption = np.asarray(clip_of_caption, dtype=np.int64)
        if (prefix.ndim != 2 or clip_of_caption.shape != prefix.shape[:1]
                or np.any((clip_of_caption < 0) | (clip_of_caption >= clips))):
            raise ShapeError(f"prefix {prefix.shape} / audio {np.shape(audio)} / clip of "
                             f"each caption {clip_of_caption.shape}")
        batch, length = prefix.shape
        steps, rows = (np.asarray(a, dtype=np.int64) for a in positions)
        if (steps.ndim != 1 or steps.shape != rows.shape or not steps.size
                or not (0 <= steps.min() <= steps.max() < length)
                or not (0 <= rows.min() <= rows.max() < batch)):
            raise ShapeError(f"positions must be two equal-length index vectors within "
                             f"the (batch, L) = {prefix.shape} prefix matrix")
        audio_vec = self.encode_audio(audio, mode, rng=rng, rows=clip_of_caption[rows])

        text = T.reshape(self.embedding(prefix.T.ravel()), (length, batch, self.config.embed_dim))
        text = T.dropout(text, self.config.dropout, mode, rng)
        states = self.text_gru.run(text, return_sequence=True)
        text_vec = T.embedding_lookup(T.reshape(states, (length * batch, self.text_gru.hidden)),
                                      steps * batch + rows)  # time-major row of (step, row)
        text_vec = self.bn_text(text_vec, mode=mode)

        return T.concat([audio_vec, text_vec], axis=1)

    def decode_step(self, fused: Tensor, mode: str) -> Tensor:
        """Next-word logits over the vocabulary (softmax gives the distribution)."""
        h = T.mul(T.sigmoid(T.linear(fused, self.dec_W_z, self.dec_b_z)),
                  T.tanh(T.linear(fused, self.dec_W, self.dec_b)))
        h = self.bn_decoder(h, mode=mode)
        return self.out(h)

    def forward(self, audio, prefix, positions, mode: str, rng=None, *,
                clip_of_caption) -> Tensor:
        """Next-word logits of the examples ``positions`` names (see ``encode``)."""
        fused = self.encode(audio, prefix, positions, mode, rng=rng,
                            clip_of_caption=clip_of_caption)
        return self.decode_step(fused, mode)

    # -- inference ----------------------------------------------------------

    def greedy_decode(self, encoder_input: np.ndarray, vocab: Vocabulary,
                      max_len: int | None = None) -> list[str]:
        """Argmax decoding of one clip from ``<sos>`` until ``<eos>`` or the length cap.

        The audio is encoded once; each token then takes one text-GRU step from
        the previous state, infer-mode ``bn_text``, the decoder and ``out`` on
        plain arrays prepared once per call (``_TokenSteps``), building no
        autodiff node, and its logits are bitwise equal to ``forward``'s on the
        whole prefix (see the module docstring). The argmax runs over the logits
        of the words and ``<eos>`` (the softmax keeps their order): ``<pad>``,
        ``<sos>`` and ``<unk>`` are never emitted, since ``strip_special_tokens``
        would drop them and leave no caption word. Equal logits break toward the
        lowest of those indices. ``max_len`` counts ``<sos>``; below 2 it raises
        ConfigError.
        """
        max_len = max_len if max_len is not None else self.config.max_len
        if max_len < 2:
            raise ConfigError(f"greedy_decode max_len must be at least 2 (<sos> and one "
                              f"token), got {max_len!r}")
        arr = np.asarray(encoder_input, dtype=self.width)
        if arr.ndim == 2:
            arr = arr[None, :, :]
        if arr.ndim != 3 or arr.shape[0] != 1:
            raise ShapeError(f"greedy_decode takes one clip, got input of shape {arr.shape}")
        reserved = [vocab.pad_index, vocab.sos_index, vocab.unk_index]
        next_logits = _TokenSteps(self, self.encode_audio(arr, mode="infer").data)
        tokens = [vocab.sos_index]
        with np.errstate(over="ignore"):  # exp overflow gives a gate of exactly 0
            while len(tokens) < max_len:
                scores = next_logits(tokens[-1])[0]
                scores[reserved] = -np.inf
                nxt = int(np.argmax(scores))
                tokens.append(nxt)
                if nxt == vocab.eos_index:
                    break
        return [vocab.word(i) for i in tokens]


class _TokenSteps:
    """The token loop of ``Captioner.greedy_decode`` on plain arrays.

    Built once per clip from the model and the clip's (1, 2*bigru2) audio
    state; each call takes the last token and returns the (1, V) logits of
    the next, one text-GRU step on from the previous call's state (h0 = 0 at
    the first), in an array the next call reuses. The caller ignores exp
    overflow, as ``tensor.sigmoid`` does.
    """

    def __init__(self, model: Captioner, audio_state: np.ndarray):
        width, cell = model.width, model.text_gru.cell
        hid, audio = cell.hidden, audio_state.shape[1]
        self.hid, self.table = hid, model.embedding.table.data
        self.gru = GRUStep((cell,), 1, width)
        self.hx, self.rhx = (np.empty((1, 1, hid + cell.input_dim), width) for _ in range(2))
        self.zr, self.hh = np.empty((2, 1, 1, hid), width), np.empty((1, 1, hid), width)
        self.h, self.h_new = np.zeros((1, 1, hid), width), np.empty((1, 1, hid), width)
        self.fused = np.empty((1, audio + hid), width)  # the row T.concat gives forward
        self.fused[:, :audio] = audio_state
        self.text = self.fused[:, audio:]
        self.bn_text, self.bn_decoder = (
            (bn.gamma.data, bn.beta.data, *bn.infer_statistics(width))
            for bn in (model.bn_text, model.bn_decoder))
        self.dec_z, self.dec, self.out = (
            (w.data.T, b.data) for w, b in ((model.dec_W_z, model.dec_b_z),
                                            (model.dec_W, model.dec_b),
                                            (model.out.weights, model.out.bias)))
        self.z, self.h_hat, self.normed = (
            np.empty((1, model.config.decoder_gru), width) for _ in range(3))
        self.logits = np.empty((1, model.vocab_size), width)

    def __call__(self, token: int) -> np.ndarray:
        fused, z, h_hat = self.fused, self.z, self.h_hat
        self.hx[0, 0, self.hid:] = self.rhx[0, 0, self.hid:] = self.table[token]
        self.gru(self.h, self.h_new, self.hx, self.rhx, self.zr, self.hh)
        self.h, self.h_new = self.h_new, self.h
        T._batch_norm_infer(self.h[0], *self.bn_text, out=self.text)
        T._sigmoid(T._linear(fused, *self.dec_z, out=z), out=z)
        np.tanh(T._linear(fused, *self.dec, out=h_hat), out=h_hat)
        z *= h_hat
        T._batch_norm_infer(z, *self.bn_decoder, out=self.normed)
        return T._linear(self.normed, *self.out, out=self.logits)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


@dataclass
class CaptionerCheckpoint:
    state: dict[str, np.ndarray]  # Captioner.state(): the file's tensors
    config: CaptionerConfig
    vocab_size: int
    vocab_sha256: str
    corpus_sha256: str = ""
    history: dict = field(default_factory=dict)
    path: str | Path | None = None  # the file ``load`` read, which ``build_model``'s errors name

    def save(self, path: str | Path) -> None:
        meta = {
            "kind": "captioner",
            "config": asdict(self.config),
            "vocab_size": self.vocab_size,
            "vocab_sha256": self.vocab_sha256,
            "corpus_sha256": self.corpus_sha256,
            "history": self.history,
        }
        save_tensors(path, self.state, meta)

    @classmethod
    def load(cls, path: str | Path, vocab: Vocabulary | None = None,
             corpus_sha256: str | None = None) -> "CaptionerCheckpoint":
        tensors, meta = load_tensors(path)
        if meta.get("kind") != "captioner":
            raise CheckpointError(f"{path}: not a captioner checkpoint")
        ckpt = cls(
            state=tensors,
            config=config_from_meta(CaptionerConfig, meta, path, "vocab_size", "vocab_sha256"),
            vocab_size=meta["vocab_size"],
            vocab_sha256=meta["vocab_sha256"],
            corpus_sha256=meta.get("corpus_sha256", ""),
            history=meta.get("history", {}),
            path=path,
        )
        if vocab is not None and vocab.sha256() != ckpt.vocab_sha256:
            raise CheckpointError(f"{path}: vocabulary hash mismatch")
        if corpus_sha256 is not None and corpus_sha256 != ckpt.corpus_sha256:
            raise CheckpointError(f"{path}: subject-verb corpus hash mismatch")
        return ckpt

    def build_model(self) -> Captioner:
        """The model of ``state``, drawing nothing. A tensor that is missing or
        not of the config's shape is a CheckpointError naming ``path``."""
        model = Captioner(self.vocab_size, self.config, None)
        load_model_state(model, self.state, self.path)
        return model


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _encode_captions(pairs, vocab: Vocabulary) -> list[tuple[str, list[int]]]:
    """(clip_id, token indices) per caption; a caption of n tokens gives n - 1 examples."""
    captions = []
    for clip_id, tokens in pairs:
        if tokens[0] != SOS:
            raise ShapeError(f"caption for {clip_id!r} does not start with {SOS}")
        indices = encode(tokens, vocab)
        if len(indices) < 2:
            raise ShapeError(f"caption for {clip_id!r} must hold {SOS} and one more token")
        captions.append((clip_id, indices))
    return captions


def _clip_batches(captions: list[tuple[str, list[int]]], order, batch_size: int) -> list[list[int]]:
    """Pack the (clip_id, token indices) ``captions`` into batches of caption
    indices, clip by clip. ``order`` permutes the distinct clips, numbered in
    order of first appearance, and each clip gives its captions in their given
    order, so a clip's captions are consecutive. A batch closes once it holds
    ``batch_size`` examples and at least 2 clips (train-mode batch norm needs 2
    rows even at one audio frame); the rest of a clip's captions start the
    next. A trailing batch of one clip joins the one before it."""
    clips: dict[str, list[int]] = {}
    for i, (clip_id, _) in enumerate(captions):
        clips.setdefault(clip_id, []).append(i)
    groups = list(clips.values())
    batches: list[list[int]] = []
    current: list[int] = []
    examples = 0
    for c in order:
        for i in groups[c]:
            current.append(i)
            examples += len(captions[i][1]) - 1
            # a batch holds whole runs of clips: 2 clips when it ends on another than it began
            if examples >= batch_size and captions[current[0]][0] != captions[i][0]:
                batches.append(current)
                current, examples = [], 0
    if current and batches and captions[current[0]][0] == captions[current[-1]][0]:
        batches[-1].extend(current)
    elif current:
        batches.append(current)
    return batches


def _batch_arrays(captions: list[tuple[str, list[int]]], features: dict[str, np.ndarray],
                  sves: dict[str, np.ndarray] | None, variant: str):
    """One batch of whole (clip_id, token indices) captions: the (c, T, d)
    encoder input of their c distinct clips, in order of first appearance, the
    (k, L) input tokens (each caption less its last token, padded after it),
    per example, in time-major order, its (steps, rows) position and its
    target, the token after the prefix that ends there, and the (k,) clip row
    of each caption."""
    lengths = np.array([len(ids) for _, ids in captions])
    tokens = np.zeros((len(captions), lengths.max()), dtype=np.int64)
    for row, (_, ids) in enumerate(captions):
        tokens[row, : len(ids)] = ids
    steps, rows = np.nonzero(np.arange(lengths.max() - 1)[:, None] < lengths - 1)
    clip_rows: dict[str, int] = {}
    clip_of_caption = np.array([clip_rows.setdefault(clip_id, len(clip_rows))
                                for clip_id, _ in captions])
    sve = None if sves is None else np.stack([sves[c] for c in clip_rows])
    audio = build_encoder_input(np.stack([features[c] for c in clip_rows]), sve, variant)
    return audio, tokens[:, :-1], (steps, rows), tokens[rows, steps + 1], clip_of_caption


def _dataset_loss(model: Captioner, captions: list[tuple[str, list[int]]],
                  features: dict[str, np.ndarray], sves: dict[str, np.ndarray] | None,
                  batch_size: int) -> float:
    """Mean -ln p(next word) over every example of the captions, in infer mode."""
    total = 0.0
    clips = len({clip_id for clip_id, _ in captions})
    for batch in _clip_batches(captions, range(clips), batch_size):
        audio, prefix, positions, targets, clip_of_caption = _batch_arrays(
            [captions[i] for i in batch], features, sves, model.config.variant)
        logits = model.forward(audio, prefix, positions, "infer", clip_of_caption=clip_of_caption)
        total += float(T.softmax_cross_entropy(logits, targets).data) * len(targets)
    return total / sum(len(ids) - 1 for _, ids in captions)


def train_captioner(pairs, features: dict[str, np.ndarray],
                    sves: dict[str, np.ndarray] | None,
                    vocab: Vocabulary, config: CaptionerConfig,
                    val_pairs=None, embed_init: np.ndarray | None = None,
                    corpus_sha256: str = "") -> tuple[CaptionerCheckpoint, dict]:
    """Teacher-forced training over (clip_id, caption tokens) pairs.

    ``features`` maps clip_id to its (T, feature_dim) matrix for the
    configured variant, and ``sves`` (read when ``sve_dim > 0``) to its (K,)
    SVE, both checked before a model is built and read as given: each batch
    joins its clips' rows in ``_batch_arrays``. Returns the checkpoint of the epoch
    with the lowest validation loss (of the last epoch when no validation
    pairs are given) and the loss history. Raises TrainingError at the first
    batch or epoch whose loss is not finite.
    """
    pairs, val_pairs = list(pairs), list(val_pairs or [])
    if not pairs:
        raise ShapeError("training set is empty")
    if config.sve_dim > 0 and sves is None:
        raise ShapeError("config.sve_dim > 0 but no SVE vectors were given")
    sves = sves if config.sve_dim > 0 else None

    frames = set()
    for clip_id in dict.fromkeys(clip_id for clip_id, _ in pairs + val_pairs):
        if clip_id not in features:
            raise ShapeError(f"no features for clip {clip_id!r}")
        shape, sve = np.shape(features[clip_id]), (0,) if sves is None else np.shape(sves.get(clip_id))
        if len(shape) != 2 or (shape[1], sve) != (config.feature_dim, (config.sve_dim,)):
            raise ShapeError(f"clip {clip_id!r}: features {shape} and SVE {sve}, not "
                             f"(T, {config.feature_dim}) and ({config.sve_dim},)")
        frames.add(shape[0])
    if len(frames) != 1:
        raise ShapeError(f"clips disagree on sequence length: {sorted(frames)}")
    clips = len({clip_id for clip_id, _ in pairs})
    if clips < 2 and frames == {1}:  # train-mode bn_audio1 would see one row
        raise ShapeError("at T=1 at least 2 distinct training clips are needed for batch norm")

    rng = np.random.RandomState(config.seed)
    model = Captioner(len(vocab), config, rng, embed_init=embed_init)
    params = model.parameters()
    state = AdamState(learning_rate=config.learning_rate)

    captions = _encode_captions(pairs, vocab)
    val_captions = _encode_captions(val_pairs, vocab) if val_pairs else None

    def batches():
        return _clip_batches(captions, rng.permutation(clips), config.batch_size)

    def batch_loss(batch):
        audio, prefix, positions, targets, clip_of_caption = _batch_arrays(
            [captions[i] for i in batch], features, sves, config.variant)
        logits = model.forward(audio, prefix, positions, "train", rng,
                               clip_of_caption=clip_of_caption)
        return T.softmax_cross_entropy(logits, targets), len(targets)

    # adam_step, _batch_arrays and _dataset_loss are looked up here at call time
    history = fit(model, config.epochs, batches, batch_loss, name="captioner",
                  update=lambda: adam_step(params, state),
                  val_loss=None if val_captions is None else
                  lambda: _dataset_loss(model, val_captions, features, sves, config.batch_size))
    checkpoint = CaptionerCheckpoint(
        state=model.state(), config=config,
        vocab_size=len(vocab), vocab_sha256=vocab.sha256(),
        corpus_sha256=corpus_sha256,
        history={"best_epoch": history.best_epoch},
    )
    return checkpoint, {"train_loss": history.train_losses, "val_loss": history.val_losses,
                        "best_epoch": history.best_epoch}
