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
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

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


def _ngram_counts(tokens, max_n: int) -> list[Counter]:
    """The 1..max_n-gram counts of ``tokens``, each in first-appearance order."""
    return [Counter(zip(*(tokens[i:] for i in range(n)))) for n in range(1, max_n + 1)]


def _count(cands, refs, max_n: int):
    return ([_ngram_counts(c, max_n) for c in cands],
            [[_ngram_counts(r, max_n) for r in group] for group in refs])


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------


def _bleu_orders(cands, refs, cand_grams, ref_grams, n: int) -> list[float]:
    """BLEU-1..n from one pass of clipped n-gram tallies."""
    correct = [0] * n
    guess = [0] * n
    cand_len = 0
    ref_len = 0
    for cand, group, counts, group_counts in zip(cands, refs, cand_grams, ref_grams):
        c = len(cand)
        cand_len += c
        ref_len += min((abs(len(r) - c), len(r)) for r in group)[1]
        for k in range(n):
            guess[k] += max(0, c - k)
            correct[k] += sum(min(cnt, max(r[k].get(ngram, 0) for r in group_counts))
                              for ngram, cnt in counts[k].items())
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
    brevity penalty against the closest-length reference."""
    if n < 1:
        raise MetricError(f"bleu order must be >= 1, got {n}")
    cands, refs = _prepare(candidates, reference_lists)
    return _bleu_orders(cands, refs, *_count(cands, refs, n), n)[-1]


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


def _norm(vec: dict) -> float:
    return math.sqrt(sum(w * w for w in vec.values()))


def _cider(cand_grams, ref_grams) -> float:
    n_docs = len(cand_grams)
    if n_docs < 2:
        raise MetricError("CIDEr needs a corpus of at least 2 clips for IDF")
    idf_by_n: list[dict] = []
    for k in range(_CIDER_MAX_N):
        df = Counter(ng for group in ref_grams for ng in set().union(*(r[k] for r in group)))
        idf_by_n.append({ng: math.log(n_docs / max(1, cnt)) for ng, cnt in df.items()})

    unseen_idf = math.log(n_docs)  # of a candidate n-gram no reference holds
    total = 0.0
    for counts, group in zip(cand_grams, ref_grams):
        per_n = []
        for k, idf in enumerate(idf_by_n):
            cand_vec = {ng: cnt * idf.get(ng, unseen_idf) for ng, cnt in counts[k].items()}
            na = _norm(cand_vec)
            sims = []
            for r in group:
                ref_vec = {ng: cnt * idf[ng] for ng, cnt in r[k].items()}
                nb = _norm(ref_vec)
                dot = sum(w * ref_vec[ng] for ng, w in cand_vec.items() if ng in ref_vec)
                sims.append(0.0 if na == 0.0 or nb == 0.0 else dot / (na * nb))
            per_n.append(10.0 * sum(sims) / len(sims))
        total += sum(per_n) / len(per_n)
    return total / n_docs


def cider(candidates, reference_lists) -> float:
    """TF-IDF n-gram cosine similarity (n = 1..4), averaged over references,
    scaled by 10, averaged over n and then over the corpus.

    IDF comes from the reference corpus: idf = ln(N / max(1, df)) with df the
    number of clips whose references contain the n-gram. Needs at least two
    clips for the document statistics to exist.
    """
    cands, refs = _prepare(candidates, reference_lists)
    return _cider(*_count(cands, refs, _CIDER_MAX_N))


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
    prepared and n-gram counted once (the counts serve BLEU-1..4 and CIDEr
    alike) and each distinct word stemmed once."""
    cands, refs = _prepare(candidates, reference_lists)
    cand_grams, ref_grams = _count(cands, refs, _CIDER_MAX_N)
    b1, b2, b3, b4 = _bleu_orders(cands, refs, cand_grams, ref_grams, 4)
    return ScoreReport(bleu_1=b1, bleu_2=b2, bleu_3=b3, bleu_4=b4,
                       cider=_cider(cand_grams, ref_grams), meteor=_meteor(cands, refs),
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
    counts, every mean) are not the scores of the reference set.
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
        candidates.append(captions[0])
        references.append(ref_table[clip_id])
    uncovered = [clip_id for clip_id in ref_table if clip_id not in cand_table]
    if uncovered:
        shown = ", ".join(map(repr, uncovered[:3])) + (", ..." if len(uncovered) > 3 else "")
        raise MetricError(f"{candidate_path}: no candidate for {len(uncovered)} of the "
                          f"{len(ref_table)} referenced clips: {shown}")
    return score_corpus(candidates, references)
