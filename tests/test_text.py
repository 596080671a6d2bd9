import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aucap.errors import EmptyCaptionError, VocabularyError
from aucap.text import (
    EOS,
    RESERVED,
    SOS,
    Vocabulary,
    build_vocabulary,
    clean_caption,
    encode,
    strip_special_tokens,
)


class TestCleanCaption:
    def test_four_rules(self):
        # "a" dropped (1 char), "3" dropped (digit), punctuation stripped
        tokens = clean_caption("A dog barks, loudly 3 times!")
        assert tokens == [SOS, "dog", "barks", "loudly", "times", EOS]

    def test_already_clean(self):
        assert clean_caption("people talking") == [SOS, "people", "talking", EOS]

    def test_all_removed_is_error(self):
        with pytest.raises(EmptyCaptionError):
            clean_caption("1 2 3 !")

    def test_idempotent(self):
        first = clean_caption("The QUICK brown-fox; jumps 22 high!")
        again = clean_caption(" ".join(first))
        assert again == first

    @settings(max_examples=300)
    @given(st.text(min_size=1, max_size=60))
    def test_rules_hold_on_random_text(self, raw):
        try:
            tokens = clean_caption(raw)
        except EmptyCaptionError:
            return
        assert tokens[0] == SOS and tokens[-1] == EOS
        assert len(tokens) >= 3
        for token in tokens[1:-1]:
            assert token == token.lower()
            assert len(token) >= 2
            assert not any(ch.isdigit() for ch in token)
            assert not any(unicodedata.category(ch).startswith("P") for ch in token)

    @settings(max_examples=200)
    @given(st.text(min_size=1, max_size=60))
    def test_idempotence_on_random_text(self, raw):
        try:
            first = clean_caption(raw)
        except EmptyCaptionError:
            return
        assert clean_caption(" ".join(first)) == first

    @settings(max_examples=500)
    @given(st.one_of(st.text(max_size=60),
                     st.text(st.characters(categories=("L", "N", "P", "Zs")), max_size=60)))
    def test_matches_the_per_character_rule(self, raw):
        # every token through the per-character punctuation and digit checks,
        # which clean_caption skips for all-letter tokens
        words = []
        for token in raw.lower().split():
            if token in (SOS, EOS):
                continue
            token = "".join(ch for ch in token if not unicodedata.category(ch).startswith("P"))
            if len(token) > 1 and not any(ch.isdigit() for ch in token):
                words.append(token)
        if not words:
            with pytest.raises(EmptyCaptionError):
                clean_caption(raw)
        else:
            assert clean_caption(raw) == [SOS, *words, EOS]


class TestVocabulary:
    def test_reserved_layout(self):
        vocab = Vocabulary()
        assert vocab.pad_index == 0
        assert [vocab.word(i) for i in range(4)] == list(RESERVED)

    def test_build_counts(self):
        vocab = build_vocabulary([[SOS, "dog", EOS]])
        assert len(vocab) == 5

    def test_build_idempotent(self):
        caps = [[SOS, "dog", "barks", EOS], [SOS, "man", EOS]]
        assert build_vocabulary(caps).words == build_vocabulary(caps + caps).words

    def test_first_appearance_order(self):
        vocab = build_vocabulary([[SOS, "zebra", "ant", EOS], [SOS, "ant", "bee", EOS]])
        assert vocab.words[4:] == ["zebra", "ant", "bee"]

    def test_encode_word_identity(self):
        caps = [[SOS, "dog", "barks", EOS]]
        vocab = build_vocabulary(caps)
        assert [vocab.word(i) for i in encode(caps[0], vocab)] == caps[0]

    def test_unknown_maps_to_unk(self):
        vocab = build_vocabulary([[SOS, "dog", EOS]])
        assert encode([SOS, "cat", EOS], vocab)[1] == vocab.unk_index

    def test_word_out_of_range(self):
        vocab = Vocabulary()
        with pytest.raises(VocabularyError):
            vocab.word(99)

    def test_empty_build_rejected(self):
        with pytest.raises(VocabularyError):
            build_vocabulary([])

    def test_serialization_round_trip(self, tmp_path):
        vocab = build_vocabulary([[SOS, "dog", "barks", "loudly", EOS]])
        vocab.save(tmp_path / "v.tsv")
        loaded = Vocabulary.load(tmp_path / "v.tsv")
        assert loaded == vocab
        assert loaded.sha256() == vocab.sha256()

    def test_non_integer_index_rejected(self, tmp_path):
        path = tmp_path / "v.tsv"
        build_vocabulary([[SOS, "dog", EOS]]).save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[4] == "4\tdog"
        path.write_text("\n".join(lines[:4] + ["x\tdog"]) + "\n", encoding="utf-8")
        with pytest.raises(VocabularyError, match=r"v\.tsv:5: index 'x' is not an integer"):
            Vocabulary.load(path)

    def test_negative_index_rejected(self, tmp_path):
        path = tmp_path / "v.tsv"
        build_vocabulary([[SOS, "dog", EOS]]).save(path)
        path.write_text(path.read_text(encoding="utf-8") + "-4\t<sos>\n", encoding="utf-8")
        with pytest.raises(VocabularyError, match=r"v\.tsv:6: index -4 is negative"):
            Vocabulary.load(path)

    def test_failed_save_keeps_old_file(self, tmp_path):
        path = tmp_path / "v.tsv"
        build_vocabulary([[SOS, "dog", EOS]]).save(path)
        before = path.read_bytes()
        broken = build_vocabulary([[SOS, "cat", "\udc80", EOS]])  # lone surrogate: not UTF-8
        with pytest.raises(UnicodeEncodeError):
            broken.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["v.tsv"]

    def test_strip_special_tokens(self):
        assert strip_special_tokens([SOS, "dog", "<pad>", EOS]) == ["dog"]
