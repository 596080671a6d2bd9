"""Corpus-level caption metrics: BLEU-n, ROUGE-L, CIDEr, METEOR.

All scorers take a list of candidate token sequences and a parallel list of
reference lists, strip the special tokens, and return floats. BLEU is
corpus-counted with per-reference clipping and the closest-length brevity
penalty; ROUGE-L is the F-measure over longest common subsequences
(beta = 1.2); CIDEr follows the original TF-IDF cosine formulation over
1..4-grams scaled by 10; METEOR aligns exact matches first, stems second,
and applies the fragmentation penalty 0.5 * (chunks / matches)^3.

This CIDEr is plain CIDEr, not the CIDEr-D of the coco-caption and DCASE
toolkits: candidate counts are not clipped to the references' and there is
no Gaussian length penalty (sigma = 6). This METEOR is the original formula
(Banerjee & Lavie, 2005) with exact and stem matches only, aligned greedily
left to right rather than by fewest crossings; METEOR 1.5 adds synonym and
paraphrase matches, weighs content and function words apart and uses tuned
parameters, none of which is here.

BLEU and CIDEr read one numpy table of n-gram counts over the call's
interned token ids (``_NgramTable``); METEOR and ROUGE-L still align the
token lists. The table gives the bits of counting each caption's n-grams
into a ``Counter`` and adding dict entries in a Python loop: BLEU pools its
counts as integers, idf comes from ``math.log`` over the distinct document
frequencies (``np.log`` differs from it in the last bit on some inputs),
and every CIDEr norm, dot product and mean adds left to right in the dict
loop's order, one vector add per position (``np.sum`` adds pairwise, which
changes the last bits).
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from . import atomic
from .errors import EmptyCaptionError, MetricError
from .semantics import to_root
from .text import clean_caption, strip_special_tokens

_CIDER_MAX_N = 4
_ROUGE_BETA = 1.2


def _prepare(candidates, reference_lists):
    if len(candidates) != len(reference_lists):
        raise MetricError(
            f"{len(candidates)} candidates vs {len(reference_lists)} reference lists"
        )
    if not candidates:
        raise MetricError("empty candidate set")
    cands = [strip_special_tokens(list(c)) for c in candidates]
    refs = []
    for i, group in enumerate(reference_lists):
        if not group:
            raise MetricError(f"candidate {i} has no references")
        refs.append([strip_special_tokens(list(r)) for r in group])
    return cands, refs


class _NgramTable:
    """The distinct 1..max_n-grams of every caption of one call, with counts.

    Captions are numbered candidates first, then each clip's references in
    order; a caption's slot in its clip is 0 for the candidate and 1.. for
    the references. Tokens are interned to ids once, so an n-gram has one
    code in every caption. The order-n code of a position comes from its
    order n-1 code and the token n-1 places on, renumbered densely by
    ``np.unique``: each order's codes stay below the token count, so no code
    overflows int64. Orders are offset apart, so a code also names its order.

    There is one entry per distinct (order, caption, n-gram), sorted by
    (clip, code, slot): the entries of one clip's n-gram form a run, the
    candidate's first. ``group = (order - 1) * n_captions + caption`` and
    ``rank`` is the entry's place among its group's n-grams by first
    appearance, the order in which ``Counter`` kept them.
    """

    def __init__(self, cands, refs, max_n: int):
        captions = cands + [r for group in refs for r in group]
        self.max_n = max_n
        self.n_clips = len(cands)
        self.n_captions = n_caps = len(captions)
        self.lengths = np.array([len(c) for c in captions], dtype=np.int64)
        self.n_refs = np.array([len(group) for group in refs])
        self.ref_clip = np.repeat(np.arange(self.n_clips), self.n_refs)
        ref_start = np.cumsum(self.n_refs) - self.n_refs  # of each clip, among the references
        self.ref_place = np.arange(n_caps - self.n_clips) - ref_start[self.ref_clip]  # in its clip
        clip = np.concatenate([np.arange(self.n_clips), self.ref_clip])
        slot = np.concatenate([np.zeros(self.n_clips, dtype=np.int64), self.ref_place + 1])

        ids: dict = {}
        tokens = np.array([ids.setdefault(w, len(ids)) for c in captions for w in c],
                          dtype=np.int64)
        caption = np.repeat(np.arange(n_caps), self.lengths)
        at = np.arange(len(tokens))
        left = np.cumsum(self.lengths)[caption] - at  # tokens from a position to its caption's end
        code, n_codes = tokens, len(ids)
        groups, codes = [caption], [code]
        for n in range(2, max_n + 1):
            keep = left[at] >= n
            at = at[keep]
            distinct, code = np.unique(code[keep] * len(ids) + tokens[at + n - 1],
                                       return_inverse=True)
            groups.append((n - 1) * n_caps + caption[at])
            codes.append(code + n_codes)
            n_codes += len(distinct)
        self.n_codes = n_codes
        group = np.concatenate(groups)  # in group order, each group in token order
        of = group % n_caps
        width = int(self.n_refs.max()) + 1
        key = (clip[of] * n_codes + np.concatenate(codes)) * width + slot[of]
        # np.unique(..., return_index=True) would sort stably, which is
        # several times slower on int64 than the default sort
        by_key = np.argsort(key)
        key = key[by_key]
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        first = np.minimum.reduceat(by_key, starts)  # each entry's first appearance
        self.count = np.diff(starts, append=len(key))
        run_key, self.slot = np.divmod(key[starts], width)
        self.code = run_key % n_codes
        self.group = group[first]
        is_first = np.zeros(len(group), dtype=bool)
        is_first[first] = True
        sizes = np.bincount(self.group, minlength=max_n * n_caps)
        self.rank = (np.cumsum(is_first) - 1)[first] - (np.cumsum(sizes) - sizes)[self.group]
        is_head = np.diff(run_key, prepend=-1) != 0
        self.heads = np.flatnonzero(is_head)  # the first entry of each run
        self.run = np.cumsum(is_head) - 1     # the run of each entry
        # of each run, the n-gram's largest count in one reference, 0 if none
        self.ref_max = np.maximum.reduceat(np.where(self.slot == 0, 0, self.count), self.heads)


def _sums_in_order(values, rows, ranks, n_rows: int) -> np.ndarray:
    """Per-row sums of ``values``, each added left to right in rank order.

    A row's ranks are distinct. One vector add per rank gives each row the
    bits of a loop of ``+=`` over its values, which is how Python 3.11's
    float ``sum()`` adds; ``np.sum`` and ``np.add.reduceat`` add pairwise and
    would change the last bits.
    """
    total = np.zeros(n_rows)
    by_rank = np.argsort(ranks)
    rows, values = rows[by_rank], values[by_rank]
    bounds = np.searchsorted(ranks[by_rank], np.arange(ranks.max(initial=0) + 2)).tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        total[rows[lo:hi]] += values[lo:hi]
    return total


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------


def _bleu_orders(table: _NgramTable) -> list[float]:
    """BLEU-1..max_n from one pass of clipped n-gram tallies, pooled as integers."""
    n = table.max_n
    cand = np.flatnonzero(table.slot == 0)
    correct = np.zeros(n, dtype=np.int64)
    np.add.at(correct, table.group[cand] // table.n_captions,
              np.minimum(table.count[cand], table.ref_max[table.run[cand]]))
    correct = correct.tolist()
    c = table.lengths[:table.n_clips]
    r = table.lengths[table.n_clips:]
    wide = int(r.max()) + 1
    # each clip's reference of the closest length, the shorter on a tie
    closest = np.minimum.reduceat(np.abs(r - c[table.ref_clip]) * wide + r,
                                  np.flatnonzero(table.ref_place == 0))
    cand_len = int(c.sum())
    ref_len = int((closest % wide).sum())
    guess = [int(np.maximum(c - k, 0).sum()) for k in range(n)]
    scores = []
    for m in range(1, n + 1):
        precisions = [correct[k] / guess[k] if guess[k] > 0 else 0.0 for k in range(m)]
        if any(p == 0.0 for p in precisions) or cand_len == 0:
            scores.append(0.0)
            continue
        bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
        scores.append(bp * math.exp(sum(math.log(p) for p in precisions) / m))
    return scores


def bleu(candidates, reference_lists, n: int = 4) -> float:
    """Corpus BLEU-n: clipped modified precision, geometric mean over 1..n,
    brevity penalty against the closest-length reference.

    The n-gram counts come from one ``_NgramTable`` over interned token ids.
    """
    if n < 1:
        raise MetricError(f"bleu order must be >= 1, got {n}")
    return _bleu_orders(_NgramTable(*_prepare(candidates, reference_lists), n))[-1]


# ---------------------------------------------------------------------------
# ROUGE-L
# ---------------------------------------------------------------------------


def lcs_length(a, b) -> int:
    """Longest common subsequence, bit-parallel (Allison & Dix 1986, in
    Hyyrö's 2004 form). After each token of ``a``, the 0 bits of ``v`` mark
    the positions j where the DP row steps up (L[j + 1] = L[j] + 1), so one
    big-integer step per token replaces a row and the LCS is their count.
    """
    if not a or not b:
        return 0
    masks: dict = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | 1 << j
    full = v = (1 << len(b)) - 1
    for x in a:
        u = v & masks.get(x, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def _rouge_l(cands, refs, beta: float) -> float:
    total = 0.0
    for cand, group in zip(cands, refs):
        best = 0.0
        for ref in group:
            lcs = lcs_length(cand, ref)
            if lcs == 0 or not cand or not ref:
                continue
            p = lcs / len(cand)
            r = lcs / len(ref)
            f = (1.0 + beta**2) * p * r / (r + beta**2 * p)
            best = max(best, f)
        total += best
    return total / len(cands)


def rouge_l(candidates, reference_lists, beta: float = _ROUGE_BETA) -> float:
    """Mean over the corpus of the best per-reference LCS F-measure."""
    return _rouge_l(*_prepare(candidates, reference_lists), beta)


# ---------------------------------------------------------------------------
# CIDEr
# ---------------------------------------------------------------------------


def _cider(table: _NgramTable) -> float:
    n_docs = table.n_clips
    if n_docs < 2:
        raise MetricError("CIDEr needs a corpus of at least 2 clips for IDF")
    n_caps = table.n_captions
    # df: the clips whose references hold the n-gram; 0 gives a candidate's
    # n-gram that no reference holds the unseen idf ln N. math.log, since
    # np.log differs from it in the last bit on some inputs.
    df = np.bincount(table.code[table.heads[table.ref_max > 0]], minlength=table.n_codes)
    distinct, which = np.unique(df, return_inverse=True)
    idf = np.array([math.log(n_docs / max(1, d)) for d in distinct.tolist()])[which]
    weight = table.count * idf[table.code]
    n_groups = _CIDER_MAX_N * n_caps
    norm = np.sqrt(_sums_in_order(weight * weight, table.group, table.rank, n_groups))

    # a dot product adds the n-grams that a reference shares with its clip's
    # candidate, the run's first entry, in the candidate's order
    head = table.heads[table.run]
    r = np.flatnonzero((table.slot != 0) & (table.slot[head] == 0))
    c = head[r]
    dot = _sums_in_order(weight[c] * weight[r], table.group[r], table.rank[c], n_groups)

    order = np.arange(_CIDER_MAX_N)[:, None]
    ref_group = order * n_caps + np.arange(n_docs, n_caps)
    na, nb = norm[order * n_caps + table.ref_clip], norm[ref_group]
    sims = np.zeros(ref_group.shape)
    np.divide(dot[ref_group], na * nb, out=sims, where=(na != 0.0) & (nb != 0.0))
    rows = order * n_docs + table.ref_clip
    ranks = np.broadcast_to(table.ref_place, rows.shape)
    sim_sums = _sums_in_order(sims.ravel(), rows.ravel(), ranks.ravel(), _CIDER_MAX_N * n_docs)
    per_n = 10.0 * sim_sums.reshape(_CIDER_MAX_N, n_docs) / table.n_refs
    per_clip = np.zeros(n_docs)
    for row in per_n:
        per_clip += row
    total = 0.0
    for score in (per_clip / _CIDER_MAX_N).tolist():
        total += score
    return total / n_docs


def cider(candidates, reference_lists) -> float:
    """TF-IDF n-gram cosine similarity (n = 1..4), averaged over references,
    scaled by 10, averaged over n and then over the corpus.

    IDF comes from the reference corpus: idf = ln(N / max(1, df)) with df the
    number of clips whose references contain the n-gram. Needs at least two
    clips for the document statistics to exist. The n-gram counts come from
    one ``_NgramTable`` over interned token ids.
    """
    return _cider(_NgramTable(*_prepare(candidates, reference_lists), _CIDER_MAX_N))


# ---------------------------------------------------------------------------
# METEOR
# ---------------------------------------------------------------------------


def _greedy_align(cand, ref, roots: dict) -> list[tuple[int, int]]:
    """One-to-one alignment: exact matches first, then stem matches.

    Left to right, each candidate token takes the first unused reference
    position of the same word, then each one left takes the first unused
    position of the same root. Each pass pops a per-key queue of the unused
    positions in order, so the alignment is linear in the two lengths.
    """
    free = defaultdict(deque)
    for j, word in enumerate(ref):
        free[word].append(j)
    pairs, left = [], []
    for i, word in enumerate(cand):
        queue = free.get(word)
        if queue:
            pairs.append((i, queue.popleft()))
        else:
            left.append(i)
    if left:
        taken = {j for _, j in pairs}
        by_root = defaultdict(deque)
        for j, word in enumerate(ref):
            if j not in taken:
                by_root[roots[word]].append(j)
        for i in left:
            queue = by_root.get(roots[cand[i]])
            if queue:
                pairs.append((i, queue.popleft()))
    return sorted(pairs)


def _chunk_count(pairs: list[tuple[int, int]]) -> int:
    chunks = 0
    prev = None
    for c, r in pairs:
        if prev is None or c != prev[0] + 1 or r != prev[1] + 1:
            chunks += 1
        prev = (c, r)
    return chunks


def _meteor(cands, refs) -> float:
    roots = {w: to_root(w) for w in {w for caption in chain(cands, *refs) for w in caption}}
    total = 0.0
    for cand, group in zip(cands, refs):
        best = 0.0
        for ref in group:
            if not cand or not ref:
                continue
            pairs = _greedy_align(cand, ref, roots)
            m = len(pairs)
            if m == 0:
                continue
            p = m / len(cand)
            r = m / len(ref)
            f_mean = 10.0 * p * r / (r + 9.0 * p)
            penalty = 0.5 * (_chunk_count(pairs) / m) ** 3
            best = max(best, f_mean * (1.0 - penalty))
        total += best
    return total / len(cands)


def meteor(candidates, reference_lists) -> float:
    """Best per-reference METEOR, averaged over the corpus.

    F_mean = 10PR / (R + 9P); penalty = 0.5 * (chunks / matches)^3.
    """
    return _meteor(*_prepare(candidates, reference_lists))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScoreReport:
    bleu_1: float
    bleu_2: float
    bleu_3: float
    bleu_4: float
    cider: float
    meteor: float
    rouge_l: float

    def as_dict(self) -> dict[str, float]:
        return {
            "B-1": self.bleu_1, "B-2": self.bleu_2, "B-3": self.bleu_3, "B-4": self.bleu_4,
            "CIDEr": self.cider, "METEOR": self.meteor, "ROUGE_L": self.rouge_l,
        }

    def key_value_lines(self) -> str:
        return "".join(f"{k}: {v:.6f}\n" for k, v in self.as_dict().items())

    def table(self) -> str:
        items = self.as_dict()
        head = "  ".join(f"{k:>8}" for k in items)
        row = "  ".join(f"{v:8.4f}" for v in items.values())
        return f"{head}\n{row}\n"


def score_corpus(candidates, reference_lists) -> ScoreReport:
    """All seven scores, equal to the separate scorers' but with each caption
    prepared once, one n-gram table for BLEU-1..4 and CIDEr alike, and each
    distinct word stemmed once."""
    cands, refs = _prepare(candidates, reference_lists)
    table = _NgramTable(cands, refs, _CIDER_MAX_N)
    b1, b2, b3, b4 = _bleu_orders(table)
    return ScoreReport(bleu_1=b1, bleu_2=b2, bleu_3=b3, bleu_4=b4,
                       cider=_cider(table), meteor=_meteor(cands, refs),
                       rouge_l=_rouge_l(cands, refs, _ROUGE_BETA))


def _tokenize_line(text: str) -> list[str]:
    try:
        return clean_caption(text)
    except EmptyCaptionError:
        return []


def read_caption_tsv(path: str | Path) -> dict[str, list[list[str]]]:
    """Read ``clip_id<TAB>caption`` lines; repeated ids accumulate captions."""
    table: dict[str, list[list[str]]] = {}
    for lineno, line in enumerate(atomic.read_text(path, "caption TSV", MetricError).splitlines()):
        if not line.strip():
            continue
        clip_id, sep, caption = line.partition("\t")
        if not sep:
            raise MetricError(f"{path}:{lineno + 1}: expected clip_id<TAB>caption")
        table.setdefault(clip_id, []).append(_tokenize_line(caption))
    return table


def evaluate_files(candidate_path: str | Path, reference_path: str | Path) -> ScoreReport:
    """Score a candidate file against a reference file, aligned by clip id.

    Both files must name the same clips, one candidate each: a clip of either
    file missing from the other raises ``MetricError``, since scores over a
    subset of the references (CIDEr's document frequencies, BLEU's corpus
    counts, every mean) are not the scores of the reference set. A reference
    caption with no words after cleaning raises ``MetricError`` too, since
    it would count as a reference that shares nothing; a candidate may be
    empty, as a model may emit nothing.
    """
    cand_table = read_caption_tsv(candidate_path)
    ref_table = read_caption_tsv(reference_path)
    candidates = []
    references = []
    for clip_id, captions in cand_table.items():
        if len(captions) != 1:
            raise MetricError(f"{candidate_path}: clip {clip_id!r} has {len(captions)} candidates")
        if clip_id not in ref_table:
            raise MetricError(f"{reference_path}: no references for clip {clip_id!r}")
        if not all(ref_table[clip_id]):
            raise MetricError(f"{reference_path}: clip {clip_id!r} has a reference caption "
                              "with no words")
        candidates.append(captions[0])
        references.append(ref_table[clip_id])
    uncovered = [clip_id for clip_id in ref_table if clip_id not in cand_table]
    if uncovered:
        shown = ", ".join(map(repr, uncovered[:3])) + (", ..." if len(uncovered) > 3 else "")
        raise MetricError(f"{candidate_path}: no candidate for {len(uncovered)} of the "
                          f"{len(ref_table)} referenced clips: {shown}")
    return score_corpus(candidates, references)
