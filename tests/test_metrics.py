import hashlib
import math
import random
import re
from collections import Counter
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aucap.errors import MetricError
from aucap.metrics import (
    ScoreReport,
    _greedy_align,
    bleu,
    cider,
    evaluate_files,
    lcs_length,
    meteor,
    read_caption_tsv,
    rouge_l,
    score_corpus,
)
from aucap.semantics import to_root
from aucap.text import clean_caption, strip_special_tokens

CAT = "the cat sat on the mat".split()
CAT_REF = "the cat is on the mat".split()


class TestBleu:
    def test_orders_one_to_four(self):
        # 1-grams: the x2, cat, on, mat match; sat does not       -> 5/6
        # 2-grams: the cat, on the, the mat of 5                  -> 3/5
        # 3-grams: on the mat of 4                                -> 1/4
        # 4-grams: none of 3                                      -> 0, so BLEU-4 = 0
        # equal lengths (6, 6): brevity penalty 1
        refs = [[CAT_REF]]
        assert bleu([CAT], refs, 1) == pytest.approx(5 / 6)
        assert bleu([CAT], refs, 2) == pytest.approx(math.sqrt(5 / 6 * 3 / 5))
        assert bleu([CAT], refs, 3) == pytest.approx(0.5)  # (5/6 * 3/5 * 1/4)^(1/3) = (1/8)^(1/3)
        assert bleu([CAT], refs, 4) == 0.0

    def test_brevity_penalty_uses_closest_reference(self):
        # candidate of 2 words; references of 6 and 3 words: the closest is 3
        # both orders have precision 1, so BLEU = exp(1 - 3/2)
        refs = [[CAT, "a cat sat".split()]]
        assert bleu([["the", "cat"]], refs, 1) == pytest.approx(math.exp(-0.5))
        assert bleu([["the", "cat"]], refs, 2) == pytest.approx(math.exp(-0.5))
        assert bleu([["the", "cat"]], refs, 3) == 0.0  # no 3-gram to guess

    def test_closest_length_tie_takes_shorter_reference(self):
        # candidate of 4 words, references of 3 and 5: r = 3 < c, penalty 1
        cand = "dog barks very loudly".split()
        refs = [["dog barks loudly".split(), "the dog barks very loudly".split()]]
        assert bleu([cand], refs, 1) == pytest.approx(1.0)

    def test_counts_pool_over_the_corpus(self):
        # clip 1 as above (1-grams 5/6, 2-grams 3/5, c = r = 6);
        # clip 2 as the brevity case (1-grams 2/2, 2-grams 1/1, c = 2, r = 3)
        # pooled: 7/8 and 4/6, c = 8, r = 9 -> exp(1 - 9/8) * sqrt(7/8 * 4/6)
        cands = [CAT, ["the", "cat"]]
        refs = [[CAT_REF], [CAT, "a cat sat".split()]]
        assert bleu(cands, refs, 2) == pytest.approx(math.exp(-1 / 8) * math.sqrt(7 / 12))

    def test_special_tokens_are_stripped(self):
        assert bleu([["<sos>"] + CAT + ["<eos>"]], [[CAT_REF]], 1) == pytest.approx(5 / 6)

    def test_bad_input(self):
        with pytest.raises(MetricError):
            bleu([CAT], [[CAT_REF]], 0)
        with pytest.raises(MetricError):
            bleu([CAT], [[CAT_REF], [CAT_REF]])
        with pytest.raises(MetricError):
            bleu([CAT], [[]])


class TestRougeL:
    def test_hand_values(self):
        # clip 1: LCS(cat on mat, the cat sat on the mat) = 3, P = 1, R = 1/2;
        #         F = (1 + 1.2^2) P R / (R + 1.2^2 P) = 2.44 * 0.5 / 1.94;
        #         the second reference shares nothing and the best counts
        # clip 2: no common word -> 0
        cands = ["cat on mat".split(), ["bird"]]
        refs = [[CAT, "dog barks".split()], [CAT_REF]]
        assert rouge_l(cands, refs) == pytest.approx((1.22 / 1.94 + 0.0) / 2)

    def test_equal_precision_and_recall(self):
        # LCS = the cat on the mat = 5, P = R = 5/6, so F = 5/6 for any beta
        assert rouge_l([CAT], [[CAT_REF]]) == pytest.approx(5 / 6)


def dp_lcs_length(a, b) -> int:
    """Longest common subsequence via the standard DP table (the reference)."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


class TestLcsLength:
    @settings(max_examples=400)
    @given(st.lists(st.sampled_from("abcd"), max_size=90),
           st.lists(st.sampled_from("abcde"), max_size=90))
    def test_bit_parallel_matches_dp(self, a, b):
        assert lcs_length(a, b) == dp_lcs_length(a, b)

    @settings(max_examples=100)
    @given(st.lists(st.text(max_size=2), max_size=20), st.lists(st.text(max_size=2), max_size=20))
    def test_bit_parallel_matches_dp_on_words(self, a, b):
        assert lcs_length(a, b) == dp_lcs_length(a, b)

    def test_hand_values(self):
        assert lcs_length(CAT, CAT_REF) == 5
        assert lcs_length(CAT, []) == 0
        assert lcs_length(list("abcbdab"), list("bdcaba")) == 4


class TestCider:
    def test_hand_values(self):
        # N = 2 clips; every reference n-gram occurs in one clip: idf = ln 2
        # clip 1: candidate equals its reference for n = 1, 2 -> cos 1 -> 10;
        #         no 3- or 4-grams -> 0; mean over n = 20/4 = 5
        # clip 2: n = 1 {cat} vs {cat, meows}: cos = 1/sqrt(2) -> 10/sqrt(2);
        #         n = 2..4 empty -> 0; mean over n = 10/sqrt(2)/4
        cands = [["dog", "barks"], ["cat"]]
        refs = [[["dog", "barks"]], [["cat", "meows"]]]
        assert cider(cands, refs) == pytest.approx((5 + 10 / math.sqrt(2) / 4) / 2)

    def test_word_in_every_clip_carries_no_weight(self):
        # "the" is in both clips' references: idf = ln(2/2) = 0
        # clip 1: equals its reference for n = 1, 2 -> (10 + 10) / 4 = 5
        # clip 2: {the: 0, cat: ln 2} vs {the: 0, bird: ln 2}: dot 0 -> 0
        #         (without idf the 1-gram cosine would be 1/2)
        cands = [["the", "dog"], ["the", "cat"]]
        refs = [[["the", "dog"]], [["the", "bird"]]]
        assert cider(cands, refs) == pytest.approx(2.5)

    def test_needs_two_clips(self):
        with pytest.raises(MetricError):
            cider([CAT], [[CAT_REF]])


def scan_align(cand, ref, roots):
    """Oracle: for each candidate token, scan the reference for the first unused
    position with the same word, then the same again by root."""
    pairs, used_c, used_r = [], [False] * len(cand), [False] * len(ref)
    for key in (lambda w: w, lambda w: roots[w]):
        for i, word in enumerate(cand):
            if used_c[i]:
                continue
            for j, rword in enumerate(ref):
                if not used_r[j] and key(rword) == key(word):
                    pairs.append((i, j))
                    used_c[i] = used_r[j] = True
                    break
    return sorted(pairs)


# words that share a root with others (dog/dogs, bark/barks/barking/barked), and not
_ALIGN_WORDS = ["dog", "dogs", "bark", "barks", "barking", "barked", "the", "cat", "cats", "a"]


class TestMeteor:
    def test_stem_matches_in_one_chunk(self):
        # no exact match; stems: dogs~dog, bark~barks -> m = 2, one chunk
        # P = R = 2/3: F = 10 P R / (R + 9P) = 2/3; penalty 0.5 (1/2)^3 = 1/16
        assert meteor([["dogs", "bark", "loudly"]], [[["a", "dog", "barks"]]]) == \
            pytest.approx(2 / 3 * 15 / 16)

    def test_fragmented_alignment(self):
        # cat->1, the->0, mat->5: m = 3 in 3 chunks, penalty 0.5 (3/3)^3 = 1/2
        # P = 1, R = 1/2: F = 10 * 0.5 / (0.5 + 9) = 10/19; score 5/19
        assert meteor([["cat", "the", "mat"]], [[CAT]]) == pytest.approx(5 / 19)

    @settings(max_examples=300)
    @given(st.lists(st.sampled_from(_ALIGN_WORDS), max_size=14),
           st.lists(st.sampled_from(_ALIGN_WORDS), max_size=14))
    def test_alignment_equals_the_scan(self, cand, ref):
        roots = {w: to_root(w) for w in _ALIGN_WORDS}
        assert _greedy_align(cand, ref, roots) == scan_align(cand, ref, roots)

    def test_best_reference_and_corpus_mean(self):
        # clip 1: exact the, cat, on, the, mat: m = 5 in 2 chunks (sat/is break it)
        #         P = R = 5/6 -> F = 5/6; penalty 0.5 (2/5)^3 = 0.032
        # clip 2: best reference is the exact one: F = 1, 1 chunk of 2, 1 - 1/16
        cands = [CAT, ["dog", "barks"]]
        refs = [[CAT_REF], [["cat"], ["dog", "barks"]]]
        assert meteor(cands, refs) == pytest.approx((5 / 6 * 0.968 + 15 / 16) / 2)


class TestEvaluateFiles:
    def test_round_trip_through_tsv(self, tmp_path):
        cand = tmp_path / "cand.tsv"
        ref = tmp_path / "ref.tsv"
        cand.write_text("c0\tThe cat sat on the mat.\nc1\tdog barks\n", encoding="utf-8")
        ref.write_text("c1\tdog barks\nc0\tthe cat is on the mat\nc1\tcats meow\n",
                       encoding="utf-8")
        report = evaluate_files(cand, ref)
        cands = [CAT, ["dog", "barks"]]
        refs = [[CAT_REF], [["dog", "barks"], ["cats", "meow"]]]
        assert report == score_corpus(cands, refs)
        # pooled 1-grams (5 + 2)/(6 + 2), 2-grams (3 + 1)/(5 + 1), c = r = 8
        assert report.bleu_1 == pytest.approx(7 / 8)
        assert report.bleu_2 == pytest.approx(math.sqrt(7 / 8 * 4 / 6))
        assert report.rouge_l == pytest.approx((5 / 6 + 1) / 2)
        assert report.meteor == pytest.approx((5 / 6 * 0.968 + 15 / 16) / 2)
        assert set(report.as_dict()) == {"B-1", "B-2", "B-3", "B-4", "CIDEr", "METEOR",
                                         "ROUGE_L"}

    def test_byte_order_mark_is_dropped(self, tmp_path):
        """A TSV that starts with U+FEFF, as spreadsheet programs write it,
        reads like the same file without the mark."""
        text = "Y1\tRain falls.\nY2\ta man speaks\n"
        plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        assert read_caption_tsv(marked) == read_caption_tsv(plain)
        assert list(read_caption_tsv(plain)) == ["Y1", "Y2"]

    def test_candidate_without_references(self, tmp_path):
        cand = tmp_path / "cand.tsv"
        ref = tmp_path / "ref.tsv"
        cand.write_text("c0\tdog barks\nc9\tcat\n", encoding="utf-8")
        ref.write_text("c0\tdog barks\n", encoding="utf-8")
        with pytest.raises(MetricError, match="c9"):
            evaluate_files(cand, ref)

    @pytest.mark.parametrize("missing,named", [
        (["c1"], "no candidate for 1 of the 5 referenced clips: 'c1'$"),
        (["c0", "c2", "c3", "c4"], "no candidate for 4 of the 5 referenced clips: "
                                   "'c0', 'c2', 'c3', ...$")], ids=["one", "four"])
    def test_references_without_candidate(self, tmp_path, missing, named):
        """A candidate file that misses referenced clips is refused, not scored over
        the clips it names (which would change CIDEr's IDF and BLEU's counts)."""
        cand = tmp_path / "cand.tsv"
        ref = tmp_path / "ref.tsv"
        clips = [f"c{i}" for i in range(5)]
        cand.write_text("".join(f"{c}\tdog barks\n" for c in clips if c not in missing),
                        encoding="utf-8")
        ref.write_text("".join(f"{c}\tdog barks\n{c}\ta dog\n" for c in clips), encoding="utf-8")
        with pytest.raises(MetricError, match=named):
            evaluate_files(cand, ref)

    def test_reference_with_no_words(self, tmp_path):
        """A reference line that cleans to nothing names its file and clip; an
        empty candidate is scored, and ``score_corpus`` itself still takes an
        empty reference."""
        cand = tmp_path / "cand.tsv"
        ref = tmp_path / "ref.tsv"
        cand.write_text("c0\tdog barks\nc1\t...\n", encoding="utf-8")
        ref.write_text("c0\tdog barks\nc1\train falls\n", encoding="utf-8")
        assert evaluate_files(cand, ref) == score_corpus([["dog", "barks"], []],
                                                         [[["dog", "barks"]], [["rain", "falls"]]])
        ref.write_text("c0\tdog barks\nc1\train falls\nc1\t!!!\n", encoding="utf-8")
        named = re.escape(f"{ref}: clip 'c1' has a reference caption with no words")
        with pytest.raises(MetricError, match=f"^{named}$"):
            evaluate_files(cand, ref)
        score_corpus([["dog", "barks"], []], [[["dog", "barks"]], [["rain", "falls"], []]])

    def test_two_candidates_for_one_clip(self, tmp_path):
        cand = tmp_path / "cand.tsv"
        ref = tmp_path / "ref.tsv"
        cand.write_text("c0\tdog barks\nc0\tdog\n", encoding="utf-8")
        ref.write_text("c0\tdog barks\n", encoding="utf-8")
        with pytest.raises(MetricError, match="2 candidates"):
            evaluate_files(cand, ref)


WORDS = ("dog dogs barking barks barked car cars passing passes rain raining falls falling "
         "birds bird chirping chirps man speaking speaks talked water flowing flows door doors "
         "closing closed loudly softly the a and while in distance street busy engine running "
         "runs quietly").split()


def golden_corpus(seed=11, clips=48):
    """Seeded clips of 5 cleaned references and one candidate, each a perturbed
    copy of one base sentence: words replaced or dropped, digit tokens
    inserted, punctuation attached and case changed. The last clip's candidate
    is empty."""
    rng = random.Random(seed)

    def perturb(base):
        out = []
        for word in base:
            roll = rng.random()
            if roll < 0.1:
                continue
            if roll < 0.25:
                word = rng.choice(WORDS)
            if rng.random() < 0.1:
                out.append(rng.choice(("2", "10s", "3rd", "4x4")))
            if rng.random() < 0.2:
                word = word.capitalize()
            out.append(word + rng.choice(("", "", "", "", ",", ".", "!", "'s", "?")))
        return " ".join(out)

    candidates, references = [], []
    for _ in range(clips):
        base = [rng.choice(WORDS) for _ in range(rng.randint(6, 12))]
        references.append([clean_caption(perturb(base)) for _ in range(5)])
        candidates.append(clean_caption(perturb(base)))
    candidates[-1] = []
    return candidates, references


class TestScoreCorpus:
    def test_golden_values(self):
        # scores of the plain per-scorer implementation (DP LCS, n-grams counted
        # per scorer and order, every word stemmed per pair), pinned bit for bit
        report = score_corpus(*golden_corpus())
        assert report == ScoreReport(
            bleu_1=float.fromhex("0x1.9800a22a14775p-1"),
            bleu_2=float.fromhex("0x1.4933f61086604p-1"),
            bleu_3=float.fromhex("0x1.007a53a0ff20dp-1"),
            bleu_4=float.fromhex("0x1.87fddd59169f2p-2"),
            cider=float.fromhex("0x1.0d3a4c2123b29p+1"),
            meteor=float.fromhex("0x1.5cf8ac903a944p-1"),
            rouge_l=float.fromhex("0x1.4e318bf382d29p-1"),
        )

    def test_golden_values_of_clip_pairs(self):
        # a corpus mean can hide a last-bit change in one clip's score and a
        # 2-clip corpus does not: the 24 pairs' 168 scores are pinned by digest
        cands, refs = golden_corpus()
        text = "".join(f"{v.hex()}\n" for i in range(0, len(cands), 2)
                       for v in score_corpus(cands[i:i + 2], refs[i:i + 2]).as_dict().values())
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "bb39f605e0394446f34fc04f806508a324aa44f7f43e232cb01c8306900c45e6"

    def test_equals_the_separate_scorers(self):
        cands, refs = golden_corpus()
        report = score_corpus(cands, refs)
        assert [report.bleu_1, report.bleu_2, report.bleu_3, report.bleu_4] == \
            [bleu(cands, refs, n) for n in (1, 2, 3, 4)]
        assert report.cider == cider(cands, refs)
        assert report.meteor == meteor(cands, refs)
        assert report.rouge_l == rouge_l(cands, refs)

    def test_bleu_beyond_order_four(self):
        # every 5-gram of a 6-word candidate equal to its reference matches
        assert bleu([CAT], [[CAT]], 5) == 1.0
        assert bleu([CAT], [[CAT_REF]], 5) == 0.0


# ---------------------------------------------------------------------------
# the dict-based reference for BLEU and CIDEr: each caption's n-grams counted
# into Counters, and every sum a Python loop over dict entries
# ---------------------------------------------------------------------------


def ref_ngram_counts(tokens, max_n):
    """The 1..max_n-gram counts of ``tokens``, each in first-appearance order."""
    return [Counter(zip(*(tokens[i:] for i in range(n)))) for n in range(1, max_n + 1)]


def ref_bleu_orders(cands, refs, cand_grams, ref_grams, n):
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


def ref_sum(values):
    """Left to right from 0, as Python 3.11's ``sum()`` adds floats (3.12
    compensates the rounding)."""
    total = 0
    for value in values:
        total += value
    return total


def ref_norm(vec):
    return math.sqrt(ref_sum(w * w for w in vec.values()))


def ref_cider(cand_grams, ref_grams):
    n_docs = len(cand_grams)
    idf_by_n = []
    for k in range(4):
        df = Counter(ng for group in ref_grams for ng in set().union(*(r[k] for r in group)))
        idf_by_n.append({ng: math.log(n_docs / max(1, cnt)) for ng, cnt in df.items()})
    unseen_idf = math.log(n_docs)  # of a candidate n-gram no reference holds
    total = 0.0
    for counts, group in zip(cand_grams, ref_grams):
        per_n = []
        for k, idf in enumerate(idf_by_n):
            cand_vec = {ng: cnt * idf.get(ng, unseen_idf) for ng, cnt in counts[k].items()}
            na = ref_norm(cand_vec)
            sims = []
            for r in group:
                ref_vec = {ng: cnt * idf[ng] for ng, cnt in r[k].items()}
                nb = ref_norm(ref_vec)
                dot = ref_sum(w * ref_vec[ng] for ng, w in cand_vec.items() if ng in ref_vec)
                sims.append(0.0 if na == 0.0 or nb == 0.0 else dot / (na * nb))
            per_n.append(10.0 * ref_sum(sims) / len(sims))
        total += ref_sum(per_n) / len(per_n)
    return total / n_docs


def ref_scores(candidates, reference_lists, n):
    """The reference's BLEU-1..n, and its CIDEr for a corpus of 2 clips or more."""
    cands = [strip_special_tokens(c) for c in candidates]
    refs = [[strip_special_tokens(r) for r in group] for group in reference_lists]
    cand_grams = [ref_ngram_counts(c, max(n, 4)) for c in cands]
    ref_grams = [[ref_ngram_counts(r, max(n, 4)) for r in group] for group in refs]
    return (ref_bleu_orders(cands, refs, cand_grams, ref_grams, n),
            ref_cider(cand_grams, ref_grams) if len(cands) > 1 else None)


def hexes(values):
    return [v.hex() for v in values]


# few words, so that n-grams repeat within a caption and across clips;
# "the" goes into every clip's references when a corpus asks for it
_TOKENS = ["the", "dog", "barks", "a", "car", "<sos>", "<eos>", "<unk>"]
_caption = st.lists(st.sampled_from(_TOKENS), max_size=12)


@st.composite
def corpora(draw):
    clips = draw(st.integers(1, 7))
    cands = draw(st.lists(_caption, min_size=clips, max_size=clips))
    refs = [draw(st.lists(_caption, min_size=1, max_size=6)) for _ in range(clips)]
    if draw(st.booleans()):
        for group in refs:
            group[0] = group[0] + ["the"]
    return cands, refs


class TestAgainstTheDictReference:
    """BLEU and CIDEr equal, bit for bit, the dict-based reference above."""

    @settings(max_examples=250, deadline=None)
    @given(corpora())
    # a 2-clip corpus with an empty candidate and an empty reference
    @example(([[], ["dog", "barks"]], [[["dog"], []], [["dog", "barks"]]]))
    # "the" in every clip's references: idf 0, so the 1-gram norms of
    # ["the", "the"] and ["the"] are 0
    @example(([["the", "the"], ["the", "dog"]], [[["the"], ["the", "car"]], [["the", "dog"]]]))
    # 6 references and repeated tokens
    @example(([["dog", "dog", "dog", "barks"], ["a"]],
              [[["dog"] * k for k in range(1, 7)], [["a", "a"]]]))
    def test_bleu_of_every_order_cider_and_score_corpus(self, corpus):
        cands, refs = corpus
        ref_bleu, ref_cider_value = ref_scores(cands, refs, 6)
        assert hexes(bleu(cands, refs, n) for n in range(1, 7)) == hexes(ref_bleu)
        if len(cands) < 2:  # CIDEr needs 2 clips for its idf
            return
        assert cider(cands, refs).hex() == ref_cider_value.hex()
        report = score_corpus(cands, refs)
        assert hexes([report.bleu_1, report.bleu_2, report.bleu_3, report.bleu_4,
                      report.cider]) == hexes(ref_bleu[:4] + [ref_cider_value])

    def test_idf_of_a_ratio_where_np_log_is_one_bit_off(self):
        """21 clips, "the" in the references of 20: idf = ln(21/20), for which
        np.log and math.log differ, and on this seed the score shows it."""
        assert np.log(21 / 20) != math.log(21 / 20)
        rng = random.Random(164)
        words = "dog barks a car rain falls".split()
        cands, refs = [], []
        for i in range(21):
            cands.append(["the"] * rng.randint(1, 3) + rng.sample(words, 2))
            group = [rng.sample(words, 3) for _ in range(rng.randint(1, 3))]
            if i < 20:
                group[0] = group[0] + ["the"]
            refs.append(group)
        assert cider(cands, refs).hex() == ref_scores(cands, refs, 4)[1].hex()

    def test_many_distinct_words_and_long_captions(self):
        """Over 70,000 distinct words and 60-token captions, so that an n-gram
        code formed as a base-V number would pass 2**63 by order 4: the
        scores, BLEU-6 among them, equal the reference's."""
        rng = np.random.RandomState(5)
        cands, refs = [], []
        for _ in range(400):
            base = rng.randint(0, 200_000, 60)

            def caption():
                # a close copy of the clip's sentence, or one mostly of new words
                words = base.copy()
                swap = rng.random_sample(60) < rng.choice([0.1, 0.9])
                words[swap] = rng.randint(200_000, 2_000_000, swap.sum())
                return [f"w{i}" for i in words]

            cands.append(caption())
            refs.append([caption() for _ in range(rng.randint(1, 7))])
        distinct = len({w for caption in chain(cands, *refs) for w in caption})
        assert distinct > 70_000 and distinct ** 4 > 2 ** 63
        ref_bleu, ref_cider_value = ref_scores(cands, refs, 6)
        report = score_corpus(cands, refs)
        assert hexes([report.bleu_1, report.bleu_2, report.bleu_3, report.bleu_4,
                      report.cider]) == hexes(ref_bleu[:4] + [ref_cider_value])
        assert bleu(cands, refs, 6).hex() == ref_bleu[5].hex()
        assert ref_bleu[5] > 0.0
