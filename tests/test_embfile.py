import re
import struct
import warnings

import numpy as np
import pytest

from aucap import atomic, embfile
from aucap.audio.embeddings import parse_variant_features
from aucap.errors import CheckpointError, EmbeddingFormatError
from aucap.nn import checkpoint
from memory import peak_bytes


class TestContainer:
    def test_golden_bytes(self, tmp_path):
        # format is bit-exact: ASCII header + little-endian float32 payload
        path = tmp_path / "x.emb"
        embfile.write_matrix(path, np.array([[1.5, -2.0]]))
        expected = b"AUCAP-EMB v1 dim=2 rows=1\n" + struct.pack("<2f", 1.5, -2.0)
        assert path.read_bytes() == expected

    def test_round_trip(self, tmp_path):
        rng = np.random.RandomState(0)
        values = rng.standard_normal((7, 5)).astype(np.float32).astype(np.float64)
        path = tmp_path / "m.emb"
        embfile.write_matrix(path, values)
        assert np.array_equal(embfile.read_matrix(path), values)

    def test_expected_dim_mismatch(self, tmp_path):
        path = tmp_path / "m.emb"
        embfile.write_matrix(path, np.zeros((2, 128)))
        with pytest.raises(EmbeddingFormatError):
            embfile.read_matrix(path, expected_dim=2048)

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "m.emb"
        path.write_bytes(b"AUCAP-XYZ v1 dim=2 rows=1\n" + b"\x00" * 8)
        with pytest.raises(EmbeddingFormatError, match=re.escape(f"{path}: bad magic")):
            embfile.read_matrix(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.emb"
        path.write_bytes(b"AUCAP-EMB v1 dim=4 rows=2\n" + b"\x00" * 12)
        with pytest.raises(EmbeddingFormatError,
                           match=re.escape(f"{path}: payload truncated (12 < 32 bytes)")):
            embfile.read_matrix(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "m.emb"
        path.write_bytes(b"AUCAP-EMB v1 dim=1 rows=1\n" + b"\x00" * 4 + b"junk")
        with pytest.raises(EmbeddingFormatError,
                           match=re.escape(f"{path}: 4 trailing bytes after payload")):
            embfile.read_matrix(path)

    def test_non_finite_rejected_on_read(self, tmp_path):
        path = tmp_path / "m.emb"
        path.write_bytes(b"AUCAP-EMB v1 dim=1 rows=1\n" + struct.pack("<f", float("nan")))
        with pytest.raises(EmbeddingFormatError):
            embfile.read_matrix(path)

    def test_non_finite_rejected_on_write(self, tmp_path):
        with pytest.raises(EmbeddingFormatError):
            embfile.write_matrix(tmp_path / "m.emb", np.array([[np.inf]]))

    @pytest.mark.parametrize("value", [1e39, -3.5e38])
    def test_value_beyond_float32_range_rejected_on_write(self, tmp_path, value):
        """It would be stored as inf, which the reader refuses; the cast warns of nothing."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmbeddingFormatError, match="non-finite"):
                embfile.write_matrix(tmp_path / "m.emb", np.array([[1.0, value]]))
        assert list(tmp_path.iterdir()) == []

    def test_read_gives_the_stored_float32_values_uncopied(self, tmp_path):
        values = np.random.RandomState(1).standard_normal((3, 4)).astype(np.float32)
        embfile.write_matrix(tmp_path / "m.emb", values)
        read = embfile.read_matrix(tmp_path / "m.emb")
        assert read.dtype == np.float32 and np.array_equal(read, values)
        assert not read.flags.writeable and not read.flags.owndata  # a view of the file's bytes

    def test_f8_rejected_outside_checkpoints(self, tmp_path):
        path = tmp_path / "m.emb"
        atomic.write_bytes(path, *embfile.pack_matrix(np.array([[1.0]]), dtype="f8"))
        with pytest.raises(EmbeddingFormatError, match="only valid inside checkpoints"):
            embfile.read_matrix(path)

    def test_oversized_header_line(self, tmp_path):
        path = tmp_path / "m.emb"
        path.write_bytes(b"AUCAP-EMB v1 dim=1 rows=1" + b" " * 200 + b"\n" + b"\x00" * 4)
        with pytest.raises(EmbeddingFormatError, match="missing or oversized header line"):
            embfile.read_matrix(path)

    def test_unpack_leaves_following_bytes_to_the_caller(self):
        blob = record(np.array([[1.0, 2.0]]))
        out, consumed = embfile.unpack_matrix(blob + b"next record")
        assert consumed == len(blob) and np.array_equal(out, [[1.0, 2.0]])

    def test_f8_pack_unpack_bitwise(self):
        rng = np.random.RandomState(1)
        values = rng.standard_normal((3, 4))
        blob = record(values, dtype="f8")
        out, consumed = embfile.unpack_matrix(blob, allow_f8=True)
        assert consumed == len(blob)
        assert np.array_equal(out, values)

    def test_pack_matrix_payload_is_the_values_themselves(self):
        values = np.arange(12, dtype=np.float32).reshape(3, 4)
        header, payload = embfile.pack_matrix(values)
        assert header == b"AUCAP-EMB v1 dim=4 rows=3\n"
        assert np.shares_memory(payload, values) and payload.dtype == np.dtype("<f4")
        header, payload = embfile.pack_matrix(values.T)  # not C-contiguous: laid out anew
        assert header == b"AUCAP-EMB v1 dim=3 rows=4\n" and payload.tobytes() == values.T.tobytes()

    def test_write_matrix_writes_the_values_themselves(self, tmp_path):
        """A float32 matrix reaches the file uncopied: the write allocates at
        most 1 MiB above the 16 MiB matrix, no bytes copy and no joined record."""
        values = np.random.RandomState(2).standard_normal((2000, 2048)).astype(np.float32)
        _, peak, _ = peak_bytes(lambda: embfile.write_matrix(tmp_path / "m.emb", values))
        assert peak <= 1 << 20
        assert np.array_equal(embfile.read_matrix(tmp_path / "m.emb"), values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_write_matrix_refuses_every_non_finite_value(self, tmp_path, bad):
        values = np.zeros((3, 5), np.float32)
        values[1, 2] = bad
        with pytest.raises(EmbeddingFormatError, match="non-finite"):
            embfile.write_matrix(tmp_path / "m.emb", values)
        assert not (tmp_path / "m.emb").exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_read_matrix_refuses_every_non_finite_value(self, tmp_path, bad):
        values = np.zeros((3, 5), np.float32)
        values[2, 4] = bad
        (tmp_path / "m.emb").write_bytes(record(values))
        with pytest.raises(EmbeddingFormatError, match="non-finite"):
            embfile.read_matrix(tmp_path / "m.emb")

    def test_read_matrix_holds_the_file_bytes_only(self, tmp_path):
        """The matrix is a view of the file's bytes, and the finiteness check
        allocates nothing of the payload's size: the read peaks within the
        file's bytes and 1 MiB."""
        values = np.random.RandomState(3).standard_normal((2000, 2048)).astype(np.float32)
        path = tmp_path / "m.emb"
        embfile.write_matrix(path, values)
        read, peak, _ = peak_bytes(lambda: embfile.read_matrix(path))
        assert peak <= path.stat().st_size + (1 << 20)
        assert np.array_equal(read, values)


HEADER_CASES = {  # header line -> what the refusal names
    "non-ascii": (b"AUCAP-EMB v1 dim=1 rows=1 \xff", "header is not ASCII"),
    "bad-magic": (b"AUCAP-EMB v2 dim=1 rows=1", "bad magic in header"),
    "bad-token": (b"AUCAP-EMB v1 dim=1 rows", "bad header token 'rows'"),
    "unknown-field": (b"AUCAP-EMB v1 dim=1 rows=1 kind=x", "unknown or repeated header field 'kind'"),
    "repeated-field": (b"AUCAP-EMB v1 dim=1 dim=1 rows=1", "unknown or repeated header field 'dim'"),
    "missing-field": (b"AUCAP-EMB v1 dim=1", "header missing rows="),
    "missing-fields": (b"AUCAP-EMB v1 dtype=f4", "header missing dim= and rows="),
    "non-integer-dim": (b"AUCAP-EMB v1 dim=one rows=1", "'dim=one' is not a non-negative integer"),
    "negative-rows": (b"AUCAP-EMB v1 dim=1 rows=-1", "'rows=-1' is not a non-negative integer"),
    "signed-dim": (b"AUCAP-EMB v1 dim=+1 rows=1", "'dim=+1' is not a non-negative integer"),
    "underscored-dim": (b"AUCAP-EMB v1 dim=1_0 rows=1", "'dim=1_0' is not a non-negative integer"),
    "zero-dim": (b"AUCAP-EMB v1 dim=0 rows=1", "invalid dim=0 rows=1"),
    "unsupported-dtype": (b"AUCAP-EMB v1 dim=1 rows=1 dtype=f2", "unsupported dtype 'f2'"),
}


@pytest.mark.parametrize("case", HEADER_CASES)
def test_bad_header_is_an_embedding_format_error(case):
    header, message = HEADER_CASES[case]
    with pytest.raises(EmbeddingFormatError, match=re.escape(message)):
        embfile.unpack_matrix(header + b"\n" + b"\x00" * 40, allow_f8=True)


def record(values, dtype="f4") -> bytes:
    """The bytes of one container record of ``values``."""
    header, payload = embfile.pack_matrix(values, dtype=dtype)
    return header + payload.tobytes()


class TestAtomicWrite:
    @pytest.fixture
    def existing(self, tmp_path):
        path = tmp_path / "m.emb"
        embfile.write_matrix(path, np.array([[1.0, 2.0]]))
        return path, path.read_bytes()

    def test_non_finite_values_keep_old_file(self, existing):
        path, before = existing
        with pytest.raises(EmbeddingFormatError):
            embfile.write_matrix(path, np.array([[1.0, np.nan]]))
        assert path.read_bytes() == before
        assert [p.name for p in path.parent.iterdir()] == ["m.emb"]

    def test_failed_rename_keeps_old_file_and_removes_temp(self, existing, monkeypatch):
        path, before = existing

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(atomic.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            embfile.write_matrix(path, np.zeros((4, 2)))
        assert path.read_bytes() == before
        assert [p.name for p in path.parent.iterdir()] == ["m.emb"]

    def test_chunks_are_written_in_order(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic.write_bytes(path, b"head\n", np.array([1.0, 2.0], "<f8"), b"", b"tail")
        assert path.read_bytes() == b"head\n" + struct.pack("<2d", 1.0, 2.0) + b"tail"

    def test_replaces_whole_file(self, existing):
        path, _ = existing
        embfile.write_matrix(path, np.array([[3.0]]))
        assert np.array_equal(embfile.read_matrix(path), [[3.0]])
        assert [p.name for p in path.parent.iterdir()] == ["m.emb"]


class TestClipEmbeddings:
    def test_panns_single_row(self, tmp_path):
        path = tmp_path / "clip.emb"
        embfile.write_matrix(path, np.ones((1, 2048)))
        assert parse_variant_features(path.read_bytes(), path, "panns").shape == (1, 2048)

    def test_vggish_per_second_rows(self, tmp_path):
        path = tmp_path / "clip.emb"
        embfile.write_matrix(path, np.zeros((30, 128)))
        assert parse_variant_features(path.read_bytes(), path, "vggish").shape == (30, 128)

    def test_dim_mismatch(self, tmp_path):
        path = tmp_path / "clip.emb"
        embfile.write_matrix(path, np.zeros((1, 128)))
        with pytest.raises(EmbeddingFormatError):
            parse_variant_features(path.read_bytes(), path, "panns")

    def test_panns_multi_row_rejected(self, tmp_path):
        path = tmp_path / "clip.emb"
        embfile.write_matrix(path, np.zeros((3, 2048)))
        with pytest.raises(EmbeddingFormatError):
            parse_variant_features(path.read_bytes(), path, "panns")

    def test_no_rows_rejected(self, tmp_path):
        path = tmp_path / "clip.emb"
        embfile.write_matrix(path, np.zeros((0, 128)))
        with pytest.raises(EmbeddingFormatError, match="holds no rows"):
            parse_variant_features(path.read_bytes(), path, "vggish")


class TestCheckpointFile:
    def test_round_trip_of_many_tensors(self, tmp_path):
        rng = np.random.RandomState(3)
        shapes = [(), (1,), (7,), (3, 5), (2, 3, 4), (40, 2)]
        tensors = {f"layer{i}.w": rng.standard_normal(shapes[i % len(shapes)]) * 10.0 ** (i % 5)
                   for i in range(60)}
        meta = {"kind": "test", "widths": [3, 5]}
        path = tmp_path / "many.ckpt"
        checkpoint.save_tensors(path, tensors, meta)
        loaded, loaded_meta = checkpoint.load_tensors(path)
        assert loaded_meta == meta and list(loaded) == list(tensors)
        for name, values in tensors.items():
            assert loaded[name].shape == values.shape
            assert np.array_equal(loaded[name], values)
            assert not loaded[name].flags.writeable  # a view of the file's bytes

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0), (2, 0, 4)])
    def test_empty_tensor_round_trips(self, tmp_path, shape):
        path = tmp_path / "empty.ckpt"
        checkpoint.save_tensors(path, {"empty": np.zeros(shape), "after": np.arange(3.0)}, {})
        loaded, _ = checkpoint.load_tensors(path)
        assert loaded["empty"].shape == shape
        assert np.array_equal(loaded["after"], np.arange(3.0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_load_refuses_every_non_finite_value(self, tmp_path, bad, dtype):
        values = np.zeros((3, 5), dtype)
        values[0, 1] = bad
        path = tmp_path / "bad.ckpt"
        checkpoint.save_tensors(path, {"ok": np.ones(2), "bad": values}, {})
        with pytest.raises(CheckpointError, match="payload for 'bad': non-finite"):
            checkpoint.load_tensors(path)

    @pytest.mark.parametrize("case", [
        "missing-header-line", "bad-magic", "non-ascii-header", "negative-count",
        "non-integer-count", "unknown-field", "repeated-field", "missing-field",
        "truncated-metadata", "invalid-json", "too-deep-json", "metadata-not-an-object",
        "truncated-manifest",
        "bad-manifest-line", "unnamed-tensor", "bad-shape-field", "negative-dims",
        "duplicate-tensor", "size-mismatch", "trailing-bytes"])
    def test_corrupt_file_is_a_checkpoint_error(self, tmp_path, case):
        w = record(np.ones(2))  # the payload of tensor "w", shape (2,)
        blob, message = {
            "missing-header-line": (b"AUCAP-CKPT v1 tensors=0 meta=2", "missing header line"),
            "bad-magic": (b"AUCAP-CKPT v2 tensors=1 meta=2\n{}\nw 2\n" + w, "bad magic"),
            "non-ascii-header": (b"AUCAP-CKPT v1 tensors=1 meta=2\xff\n{}\nw 2\n" + w,
                                 "header is not ASCII"),
            "negative-count": (b"AUCAP-CKPT v1 tensors=-1 meta=2\n{}\n",
                               "'tensors=-1' is not a non-negative integer"),
            "non-integer-count": (b"AUCAP-CKPT v1 tensors=1 meta=two\n{}\nw 2\n" + w,
                                  "'meta=two' is not a non-negative integer"),
            "unknown-field": (b"AUCAP-CKPT v1 tensors=1 meta=2 x=1\n{}\nw 2\n" + w,
                              "unknown or repeated header field 'x'"),
            "repeated-field": (b"AUCAP-CKPT v1 tensors=1 tensors=1 meta=2\n{}\nw 2\n" + w,
                               "unknown or repeated header field 'tensors'"),
            "missing-field": (b"AUCAP-CKPT v1 tensors=0\n", "header missing meta="),
            "truncated-metadata": (b"AUCAP-CKPT v1 tensors=0 meta=9\n{}\n",
                                   "truncated metadata block"),
            "invalid-json": (b"AUCAP-CKPT v1 tensors=0 meta=2\n{x\n", "metadata is not valid JSON"),
            "too-deep-json": (b"AUCAP-CKPT v1 tensors=0 meta=200000\n" + b"[" * 100000
                              + b"]" * 100000 + b"\n", "metadata is not valid JSON"),
            "metadata-not-an-object": (b"AUCAP-CKPT v1 tensors=0 meta=2\n[]\n",
                                       "metadata is not a JSON object"),
            "truncated-manifest": (b"AUCAP-CKPT v1 tensors=1 meta=2\n{}\nw 2", "truncated manifest"),
            "bad-manifest-line": (b"AUCAP-CKPT v1 tensors=1 meta=2\n{}\nw\n" + w,
                                  "bad manifest line 'w'"),
            "unnamed-tensor": (b"AUCAP-CKPT v1 tensors=1 meta=2\n{}\n 2\n" + w,
                               "bad manifest line ' 2'"),
            "bad-shape-field": (b"AUCAP-CKPT v1 tensors=1 meta=2\n{}\nw 2xq\n" + w,
                                "bad shape field '2xq'"),
            "negative-dims": (b"AUCAP-CKPT v1 tensors=1 meta=2\n{}\nw -1x-2\n" + w,
                              "bad shape field '-1x-2'"),
            "duplicate-tensor": (b"AUCAP-CKPT v1 tensors=2 meta=2\n{}\nw 2\nw 2\n" + w + w,
                                 "duplicate tensor 'w'"),
            "size-mismatch": (b"AUCAP-CKPT v1 tensors=1 meta=2\n{}\nw 3\n" + w,
                              "tensor 'w' holds 2 values for shape (3,)"),
            "trailing-bytes": (b"AUCAP-CKPT v1 tensors=1 meta=2\n{}\nw 2\n" + w + b"xy",
                               "2 trailing bytes"),
        }[case]
        path = tmp_path / "bad.ckpt"
        path.write_bytes(blob)
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: ") + ".*" + re.escape(message)):
            checkpoint.load_tensors(path)

    def test_directory_is_a_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError, match=f"cannot read checkpoint {re.escape(str(tmp_path))}"):
            checkpoint.load_tensors(tmp_path)
