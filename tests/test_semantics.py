import re
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aucap import atomic
from aucap import dataset as ds
from aucap import semantics
from aucap.errors import SemanticsError
from aucap.semantics import (
    NOUN,
    OTHER,
    VERB,
    SubjectVerbCorpus,
    TagLexicon,
    build_corpus,
    encode_sve,
    subject_verb_roots,
    to_root,
)
from aucap.text import EOS, RESERVED, SOS, clean_caption, strip_special_tokens


def two_pass_roots(captions, lex):
    """Oracle: per caption, strip the reserved tokens, tag every token, then keep
    the roots of the nouns before the first verb and of every verb."""
    out = []
    for caption in captions:
        tokens = strip_special_tokens(caption)
        tags = [lex.tag(t) for t in tokens]
        first_verb = next((i for i, t in enumerate(tags) if t == VERB), len(tokens))
        out.append([to_root(token) for i, (token, tag) in enumerate(zip(tokens, tags))
                    if tag == VERB or (tag == NOUN and i < first_verb)])
    return out


def brute_force_corpus(captions, lex):
    """Oracle: unique rooted subjects+verbs in first-appearance order."""
    seen, out = set(), []
    for roots in two_pass_roots(captions, lex):
        for root in roots:
            if root not in seen:
                seen.add(root)
                out.append(root)
    return out


class TestToRoot:
    @pytest.mark.parametrize("word,root", [
        ("barks", "bark"),
        ("bark", "bark"),
        ("talking", "talk"),
        ("dogs", "dog"),
        ("passes", "pass"),
        ("walked", "walk"),
        ("running", "run"),
        ("agreed", "agree"),
        ("miss", "miss"),
        ("sing", "sing"),
        ("cries", "cry"),
        ("cry", "cry"),
        ("studies", "studi"),
        ("study", "studi"),
    ])
    def test_cases(self, word, root):
        assert to_root(word) == root

    # Random search seldom finds a word that needs a second stripping pass
    # (one pass maps aeding -> aed, the next aed -> a). Without the pin that
    # case lives only in hypothesis's example database, which git ignores, so
    # a fresh checkout could pass on a non-idempotent to_root.
    @settings(max_examples=500)
    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=12))
    @example("aeding")
    def test_idempotent(self, word):
        once = to_root(word)
        assert to_root(once) == once

    def test_idempotent_on_lexicon(self, toy_lexicon):
        for word in toy_lexicon.entries:
            assert to_root(to_root(word)) == to_root(word)


_words = st.text(alphabet="abdeginrs", max_size=7)


def resolve_tag(entries, word):
    """Oracle: the exact entry, then the first matching suffix rule, then the default."""
    if word in entries:
        return entries[word]
    for suffix, tag in semantics.SUFFIX_RULES:
        if word.endswith(suffix) and len(word) > len(suffix):
            return tag
    return semantics.DEFAULT_TAG


class TestTagLexicon:
    def test_resolution_order(self):
        lex = TagLexicon({"running": NOUN})
        assert lex.tag("running") == NOUN  # exact beats suffix
        assert lex.tag("jumping") == VERB
        assert lex.tag("table") == OTHER

    def test_every_word_resolves(self, toy_lexicon):
        for word in ["xyzzy", "qqing", "a", ""]:
            assert toy_lexicon.tag(word) in (NOUN, VERB, OTHER)

    def test_save_load_round_trip(self, tmp_path, toy_lexicon):
        toy_lexicon.save(tmp_path / "lex.tsv")
        loaded = TagLexicon.load(tmp_path / "lex.tsv")
        assert loaded.entries == toy_lexicon.entries
        assert loaded.sha256() == toy_lexicon.sha256()

    @pytest.mark.parametrize("line", ["dog \tNOUN", " dog\tNOUN", "hot dog\tNOUN", "\tNOUN"])
    def test_empty_word_or_word_with_whitespace_rejected(self, tmp_path, line):
        # no cleaned token is empty or holds whitespace: "dog " would leave "dog" to the
        # fallbacks, and "a dog barks" would give the corpus ('bark',)
        path = tmp_path / "lex.tsv"
        path.write_text(f"barks\tVERB\n{line}\n", encoding="utf-8")
        with pytest.raises(SemanticsError, match=r"lex\.tsv:2: word .* is not a cleaned token"):
            TagLexicon.load(path)

    @pytest.mark.parametrize("word", ["Dog", "dog.", "dog5", "5", "a"])
    def test_word_that_cleaning_changes_rejected(self, tmp_path, word):
        # upper case, punctuation, a digit or one character: a lexicon of "Dog" and
        # "barks" would leave "dog" to the fallbacks, and "a dog barks" the corpus ('bark',)
        path = tmp_path / "lex.tsv"
        path.write_text(f"barks\tVERB\n{word}\tNOUN\n", encoding="utf-8")
        with pytest.raises(SemanticsError, match=rf"lex\.tsv:2: word '{re.escape(word)}' is not "
                                                 rf"a cleaned token"):
            TagLexicon.load(path)

    def test_words_cleaning_keeps_accepted(self, tmp_path):
        words = ["dog", "café", "naïve", "日本"]  # uncased letters take the full check
        assert all(clean_caption(w) == [SOS, w, EOS] for w in words)
        path = tmp_path / "lex.tsv"
        path.write_text("# a comment line\n" + "".join(f"{w}\tNOUN\n" for w in words),
                        encoding="utf-8")
        assert TagLexicon.load(path).entries == dict.fromkeys(words, NOUN)

    def test_bad_tag_rejected(self):
        with pytest.raises(SemanticsError):
            TagLexicon({"dog": "ADJ"})

    @settings(max_examples=300)
    @given(st.dictionaries(_words, st.sampled_from([NOUN, VERB, OTHER]), max_size=20),
           st.lists(_words, max_size=20))
    @example({"running": OTHER, "barked": VERB, "table": OTHER, "ing": NOUN}, ["running", "ing"])
    def test_tag_equals_entry_then_rules_then_default(self, entries, words):
        # the lookup table keeps only the entries the fallbacks would not give
        lex = TagLexicon(entries)
        for word in [*entries, *words]:
            assert lex.tag(word) == resolve_tag(entries, word)


class TestSelection:
    """Which words ``subject_verb_roots`` selects, and in what order, pinned on
    words that are their own roots."""

    LEX = TagLexicon({"dog": NOUN, "man": NOUN, "car": NOUN, "rain": NOUN, "bark": VERB,
                      "speak": VERB, "fall": VERB, "near": OTHER,
                      "<unk>": NOUN, "<pad>": NOUN, "<sos>": VERB, "<eos>": VERB})

    @pytest.mark.parametrize("body, selected", [
        (["dog", "bark", "near"], ["dog", "bark"]),
        (["near"], []),
        # the nouns before the first verb, then every verb; a noun after it is dropped
        (["man", "dog", "speak", "car", "bark"], ["man", "dog", "speak", "bark"]),
        (["bark", "dog", "fall"], ["bark", "fall"]),
        # repeated tokens are selected each time
        (["dog", "dog", "bark", "dog", "bark"], ["dog", "dog", "bark", "bark"]),
        # reserved tokens, though the lexicon tags them, are never selected and
        # never end the subjects
        (["<unk>", "dog", "<sos>", "man", "<pad>", "bark", "<eos>", "rain"],
         ["dog", "man", "bark"]),
    ], ids=["simple", "none", "noun-after-verb", "verb-first", "repeats", "reserved"])
    def test_nouns_before_the_first_verb_then_every_verb(self, body, selected):
        assert all(to_root(w) == w for w in body if w not in RESERVED)
        assert subject_verb_roots([[SOS, *body, EOS]], self.LEX) == [selected]

    def test_each_caption_starts_with_its_subjects(self):
        captions = [[SOS, "dog", "bark", "man", EOS], [SOS, "man", "speak", EOS]]
        assert subject_verb_roots(captions, self.LEX) == [["dog", "bark"], ["man", "speak"]]


class CountingLexicon(TagLexicon):
    """A TagLexicon that counts its ``tag`` calls per word."""

    def __init__(self, entries):
        super().__init__(entries)
        self.calls = Counter()

    def tag(self, word):
        self.calls[word] += 1
        return super().tag(word)


# Lexicon entries, reserved tokens (two of them tagged by the lexicon, which
# must not matter) and misses that fall to the suffix rules or to the default.
_ENTRIES = {"dog": NOUN, "dogs": NOUN, "man": NOUN, "rain": NOUN, "barks": VERB,
            "bark": VERB, "talking": VERB, "falls": VERB, "loudly": OTHER, "the": OTHER,
            "<unk>": NOUN, "<sos>": VERB}
_MISSES = ["running", "walked", "jumping", "tapped", "table", "ed", "ing", "cries"]
_tokens = st.sampled_from(sorted(_ENTRIES) + list(RESERVED) + _MISSES) | st.text(
    alphabet="abdeginrs", min_size=1, max_size=7)


class TestSubjectVerbRoots:
    @settings(max_examples=300)
    @given(st.lists(st.lists(_tokens, max_size=12), max_size=12))
    def test_equals_two_pass_oracle(self, captions):
        lex = TagLexicon(_ENTRIES)
        roots = subject_verb_roots(captions, lex)
        assert roots == two_pass_roots(captions, lex)
        assert [subject_verb_roots([caption], lex)[0] for caption in captions] == roots

    def test_reserved_tokens_are_never_selected(self):
        lex = TagLexicon(_ENTRIES)
        assert subject_verb_roots([[SOS, "<unk>", "dog", "<sos>", "barks", EOS]], lex) == \
            [["dog", "bark"]]

    def test_each_distinct_token_is_tagged_once_per_call(self):
        lex = CountingLexicon(_ENTRIES)
        captions = [[SOS, "dog", "barks", "dog", "runs", EOS],
                    [SOS, "the", "man", "talking", "dog", "<pad>", EOS],
                    [SOS, "dog", "barks", EOS]]
        distinct = {t for c in captions for t in c} - set(RESERVED)
        subject_verb_roots(captions, lex)
        assert lex.calls == Counter(dict.fromkeys(distinct, 1))
        subject_verb_roots(captions, lex)  # no table outlives a call
        assert lex.calls == Counter(dict.fromkeys(distinct, 2))

    def test_each_selected_word_is_stemmed_once_per_call(self, monkeypatch):
        stemmed = Counter()

        def counting_to_root(word):
            stemmed[word] += 1
            return to_root(word)

        monkeypatch.setattr(semantics, "to_root", counting_to_root)
        captions = [[SOS, "dogs", "barks", "rain", EOS], [SOS, "dogs", "bark", "falls", EOS]]
        lex = TagLexicon(_ENTRIES)
        assert subject_verb_roots(captions, lex) == [["dog", "bark"], ["dog", "bark", "fall"]]
        assert stemmed == Counter({"dogs": 1, "barks": 1, "bark": 1, "falls": 1})
        subject_verb_roots(captions, lex)
        assert stemmed == Counter({"dogs": 2, "barks": 2, "bark": 2, "falls": 2})


class TestBuildCorpus:
    def test_hand_trace(self, toy_lexicon):
        captions = [clean_caption("dog barks"), clean_caption("man speaks")]
        corpus = build_corpus(captions, toy_lexicon)
        assert list(corpus.words) == ["dog", "bark", "man", "speak"]
        assert corpus.size == 4

    def test_duplicate_captions_change_nothing(self, toy_lexicon):
        captions = [clean_caption("dog barks"), clean_caption("man speaks")]
        a = build_corpus(captions, toy_lexicon)
        b = build_corpus(captions * 3, toy_lexicon)
        assert a.words == b.words

    def test_empty_corpus_allowed(self, toy_lexicon):
        corpus = build_corpus([clean_caption("loudly softly")], toy_lexicon)
        assert corpus.size == 0

    def test_matches_brute_force_on_random_sets(self, toy_lexicon):
        rng = np.random.RandomState(11)
        words = list(toy_lexicon.entries)
        for _ in range(60):
            n_caps = rng.randint(1, 50)
            captions = []
            for _ in range(n_caps):
                body = [words[i] for i in rng.randint(0, len(words), rng.randint(2, 8))]
                captions.append([SOS, *body, EOS])
            corpus = build_corpus(captions, toy_lexicon)
            assert list(corpus.words) == brute_force_corpus(captions, toy_lexicon)

    def test_save_load_round_trip(self, tmp_path, toy_lexicon):
        corpus = build_corpus([clean_caption("dog barks"), clean_caption("rain falls")],
                              toy_lexicon)
        corpus.save(tmp_path / "corpus.txt")
        loaded = SubjectVerbCorpus.load(tmp_path / "corpus.txt")
        assert loaded.words == corpus.words
        assert loaded.sha256() == corpus.sha256()
        assert loaded.lexicon_sha256 == toy_lexicon.sha256()

    def test_loaded_corpus_used_with_another_lexicon_raises(self, tmp_path, toy_lexicon):
        captions = [clean_caption("dog barks")]
        build_corpus(captions, toy_lexicon).save(tmp_path / "corpus.txt")
        other = TagLexicon({**toy_lexicon.entries, "dog": OTHER})
        loaded = SubjectVerbCorpus.load(tmp_path / "corpus.txt")
        with pytest.raises(SemanticsError, match="different lexicon"):
            encode_sve(captions[0], loaded, other)
        with pytest.raises(SemanticsError, match="different lexicon"):
            ds.sve_targets([ds.ClipRecord("c0", None, (tuple(captions[0]),), "development")],
                           loaded, other)

    @pytest.mark.parametrize("line", ["dog ", " dog", "hot dog", "  "])
    def test_word_with_whitespace_rejected(self, tmp_path, line):
        path = tmp_path / "corpus.txt"
        path.write_text(f"# lexicon {'0' * 64}\nbark\n{line}\n", encoding="utf-8")
        with pytest.raises(SemanticsError, match=r"corpus\.txt:3: word .* holds whitespace"):
            SubjectVerbCorpus.load(path)

    def test_file_without_lexicon_header_names_build_sve(self, tmp_path):
        (tmp_path / "corpus.txt").write_text("dog\nbark\n", encoding="utf-8")
        with pytest.raises(SemanticsError, match="rebuild the corpus with build-sve"):
            SubjectVerbCorpus.load(tmp_path / "corpus.txt")

    def test_failed_rename_keeps_old_files_and_removes_temp(self, tmp_path, toy_lexicon,
                                                             monkeypatch):
        corpus = build_corpus([clean_caption("dog barks")], toy_lexicon)
        corpus.save(tmp_path / "corpus.txt")
        toy_lexicon.save(tmp_path / "lex.tsv")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(atomic.os, "replace", fail)
        bigger = build_corpus([clean_caption("dog barks"), clean_caption("rain falls")],
                              toy_lexicon)
        with pytest.raises(OSError, match="disk full"):
            bigger.save(tmp_path / "corpus.txt")
        with pytest.raises(OSError, match="disk full"):
            TagLexicon({"cat": NOUN}).save(tmp_path / "lex.tsv")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestEncodeSve:
    def test_membership_bits(self, toy_lexicon):
        corpus = build_corpus([clean_caption("dog barks"), clean_caption("man speaks")],
                              toy_lexicon)
        vec = encode_sve(clean_caption("dog barks"), corpus, toy_lexicon)
        assert np.array_equal(vec, [1.0, 1.0, 0.0, 0.0])

    def test_disjoint_caption_is_zero(self, toy_lexicon):
        corpus = build_corpus([clean_caption("dog barks")], toy_lexicon)
        vec = encode_sve(clean_caption("rain falls"), corpus, toy_lexicon)
        assert np.array_equal(vec, np.zeros(corpus.size))

    def test_contributing_caption_sets_a_bit(self, toy_lexicon):
        captions = [clean_caption(t) for t in ("dog barks", "man speaks", "rain falls")]
        corpus = build_corpus(captions, toy_lexicon)
        for caption in captions:
            assert encode_sve(caption, corpus, toy_lexicon).sum() >= 1

    def test_restatement_invariant(self, toy_lexicon):
        rng = np.random.RandomState(5)
        words = list(toy_lexicon.entries)
        captions = []
        for _ in range(25):
            body = [words[i] for i in rng.randint(0, len(words), rng.randint(2, 7))]
            captions.append([SOS, *body, EOS])
        corpus = build_corpus(captions, toy_lexicon)
        for caption in captions:
            roots = set(subject_verb_roots([caption], toy_lexicon)[0])
            vec = encode_sve(caption, corpus, toy_lexicon)
            for k, word in enumerate(corpus.words):
                assert vec[k] == (1.0 if word in roots else 0.0)

    def test_lexicon_mismatch_rejected(self, toy_lexicon):
        corpus = build_corpus([clean_caption("dog barks")], toy_lexicon)
        other = TagLexicon({"dog": NOUN})
        with pytest.raises(SemanticsError):
            encode_sve(clean_caption("dog barks"), corpus, other)


class TestSveTargets:
    @staticmethod
    def _records():
        from aucap.dataset import ClipRecord

        texts = {"c0": ["dog barks", "a dog runs"], "c1": ["man speaks"]}
        return [ClipRecord(clip, None, tuple(tuple(clean_caption(t)) for t in ts), "development")
                for clip, ts in texts.items()]

    def test_union_of_caption_vectors(self, toy_lexicon):
        from aucap.dataset import sve_targets

        records = self._records()
        corpus = build_corpus([list(c) for r in records for c in r.captions], toy_lexicon)
        targets = sve_targets(records, corpus, toy_lexicon)
        for r in records:
            union = np.max([encode_sve(list(c), corpus, toy_lexicon) for c in r.captions], axis=0)
            assert np.array_equal(targets[r.clip_id], union)

    def test_lexicon_hashed_once_per_call(self, toy_lexicon, monkeypatch):
        from aucap.dataset import sve_targets

        records = self._records()
        corpus = build_corpus([list(c) for r in records for c in r.captions], toy_lexicon)
        calls = []
        sha256 = TagLexicon.sha256
        monkeypatch.setattr(TagLexicon, "sha256", lambda lex: calls.append(1) or sha256(lex))
        sve_targets(records, corpus, toy_lexicon)
        assert len(calls) == 1

    def test_other_lexicon_rejected(self, toy_lexicon):
        from aucap.dataset import sve_targets

        records = self._records()
        corpus = build_corpus([list(c) for r in records for c in r.captions], toy_lexicon)
        with pytest.raises(SemanticsError):
            sve_targets(records, corpus, TagLexicon({"dog": NOUN}))


@pytest.fixture
def extracted(monkeypatch):
    """Counter of the captions (as token tuples) handed to ``subject_verb_roots``
    through every ``aucap`` module that binds the name."""
    seen = Counter()
    original = semantics.subject_verb_roots

    def counting(captions, lex):
        captions = [tuple(c) for c in captions]
        seen.update(captions)
        return original(captions, lex)

    for name, module in list(sys.modules.items()):
        if name.startswith("aucap") and getattr(module, "subject_verb_roots", None) is original:
            monkeypatch.setattr(module, "subject_verb_roots", counting)
    return seen


class TestSveTargetsReuseRoots:
    """``build_corpus`` keeps each caption's roots and ``sve_targets`` reads
    them, so a caption is extracted once per build-sve; a loaded corpus holds
    no roots, and its targets take one pass."""

    TEXTS = {"c0": ["dog barks", "a dog runs"],
             "c1": ["man speaks", "loudly softly"],  # roots []
             "c2": ["dog barks"],  # one caption text in two clips
             "c3": ["loudly softly", "near and outside"]}  # never a subject or verb
    UNSEEN = {"u0": ["rain falls", "dog barks"],  # a caption the corpus saw, one it did not
              "u1": ["bell rings loudly"],
              "u2": ["the"]}

    @staticmethod
    def records(texts):
        return [ds.ClipRecord(clip, None, tuple(tuple(clean_caption(t)) for t in ts),
                              "development") for clip, ts in texts.items()]

    def test_build_then_targets_extract_each_distinct_caption_once(self, toy_lexicon, extracted,
                                                                   tmp_path):
        records = self.records(self.TEXTS)
        distinct = {c for r in records for c in r.captions}
        corpus = build_corpus([c for r in records for c in r.captions], toy_lexicon)
        ds.sve_targets(records, corpus, toy_lexicon)
        assert extracted == Counter(dict.fromkeys(distinct, 1))
        corpus.save(tmp_path / "corpus.txt")
        extracted.clear()
        ds.sve_targets(records, SubjectVerbCorpus.load(tmp_path / "corpus.txt"), toy_lexicon)
        assert extracted == Counter(dict.fromkeys(distinct, 1))

    def test_unseen_captions_alone_are_extracted(self, toy_lexicon, extracted):
        corpus = build_corpus([list(c) for r in self.records(self.TEXTS) for c in r.captions],
                              toy_lexicon)
        extracted.clear()
        ds.sve_targets(self.records(self.UNSEEN), corpus, toy_lexicon)
        assert extracted == Counter({tuple(clean_caption(t)): 1
                                     for t in ("rain falls", "bell rings loudly", "the")})

    @pytest.mark.parametrize("kind", [list, tuple])
    def test_table_loaded_corpus_and_encode_sve_agree(self, toy_lexicon, tmp_path, kind):
        built_from = self.records(self.TEXTS)
        corpus = build_corpus([kind(c) for r in built_from for c in r.captions], toy_lexicon)
        corpus.save(tmp_path / "corpus.txt")
        loaded = SubjectVerbCorpus.load(tmp_path / "corpus.txt")
        assert corpus == loaded and corpus.sha256() == loaded.sha256()
        assert repr(corpus) == repr(loaded)
        records = built_from + self.records(self.UNSEEN)
        with_table = ds.sve_targets(records, corpus, toy_lexicon)
        without = ds.sve_targets(records, loaded, toy_lexicon)
        assert list(with_table) == list(without) == [r.clip_id for r in records]
        for r in records:
            union = np.max([encode_sve(list(c), corpus, toy_lexicon) for c in r.captions], axis=0)
            for row in (with_table[r.clip_id], without[r.clip_id]):
                assert row.dtype == np.float32 and row.shape == (corpus.size,)
                assert np.array_equal(row, union)
        assert not with_table["c3"].any() and not with_table["u2"].any()
        assert np.array_equal(with_table["c2"], encode_sve(list(clean_caption("dog barks")),
                                                           corpus, toy_lexicon))

    def test_rows_are_read_only(self, toy_lexicon):
        records = self.records(self.TEXTS)
        corpus = build_corpus([c for r in records for c in r.captions], toy_lexicon)
        row = ds.sve_targets(records, corpus, toy_lexicon)["c0"]
        with pytest.raises(ValueError):
            row[0] = 0.0

    def test_no_records_give_no_targets(self, toy_lexicon):
        corpus = build_corpus([clean_caption("dog barks")], toy_lexicon)
        assert ds.sve_targets([], corpus, toy_lexicon) == {}
