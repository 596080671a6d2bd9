import pytest

from aucap.dataset import load_caption_csv
from aucap.errors import DatasetError


def write(tmp_path, text):
    path = tmp_path / "captions.csv"
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCaptionCsv:
    def test_clotho_five_captions_per_row(self, tmp_path):
        captions = ",".join(f"a dog barks {i}" for i in range(5))
        path = write(tmp_path, "file_name,caption_1,caption_2,caption_3,caption_4,caption_5\n"
                               f"dog.wav,{captions}\nrain.wav,{captions}\n")
        records = load_caption_csv(path, "clotho")
        assert [r.clip_id for r in records] == ["dog", "rain"]
        assert len(records[0].captions) == 5
        assert records[0].captions[0][0] == "<sos>" and records[0].split == "development"

    def test_audiocaps_one_caption_per_row(self, tmp_path):
        path = write(tmp_path, "file_name,caption\nY1.wav,Rain falls.\nY2.wav,A man speaks\n")
        records = load_caption_csv(path, "audiocaps", split="evaluation")
        assert [(r.clip_id, len(r.captions), r.split) for r in records] == [
            ("Y1", 1, "evaluation"), ("Y2", 1, "evaluation")]

    @pytest.mark.parametrize("text", [
        "file_name,caption\nY1.wav,\n",                   # empty caption cell
        "file_name,caption\nY1.wav,rain\nY1.wav,wind\n",  # duplicate clip
        "file_name\nY1.wav\n",                            # missing column
        "file_name,caption\n,rain\n",                     # empty file name
    ])
    def test_audiocaps_rejects_bad_rows(self, tmp_path, text):
        with pytest.raises(DatasetError):
            load_caption_csv(write(tmp_path, text), "audiocaps")
