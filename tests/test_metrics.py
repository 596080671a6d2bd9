import math

import pytest

from aucap.errors import MetricError
from aucap.metrics import bleu, cider, evaluate_files, meteor, rouge_l, score_corpus

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

    def test_candidate_without_references(self, tmp_path):
        cand = tmp_path / "cand.tsv"
        ref = tmp_path / "ref.tsv"
        cand.write_text("c0\tdog barks\nc9\tcat\n", encoding="utf-8")
        ref.write_text("c0\tdog barks\n", encoding="utf-8")
        with pytest.raises(MetricError, match="c9"):
            evaluate_files(cand, ref)

    def test_two_candidates_for_one_clip(self, tmp_path):
        cand = tmp_path / "cand.tsv"
        ref = tmp_path / "ref.tsv"
        cand.write_text("c0\tdog barks\nc0\tdog\n", encoding="utf-8")
        ref.write_text("c0\tdog barks\n", encoding="utf-8")
        with pytest.raises(MetricError, match="2 candidates"):
            evaluate_files(cand, ref)
