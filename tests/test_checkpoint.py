import re
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from tempkgqa import checkpoint
from tempkgqa.checkpoint import (
    FORMAT_VERSION,
    CheckpointError,
    decode_matrix,
    encode_matrix,
    load_head,
    load_table,
    load_tgnn,
    save_head,
    save_table,
    save_tgnn,
)
from tempkgqa.embeddings import BasePretrainConfig, init_random, pretrain_base
from tempkgqa.head import init_head
from tempkgqa.indicators import init_projection
from tempkgqa.tgnn import init_params

from conftest import build_store

D, D_LLM = 6, 9


def float32_copy(array):
    return array.astype(np.float32).astype(np.float64)


class TestTableCheckpoint:
    def test_roundtrip_bit_exact_at_float32(self, tmp_path):
        table = init_random(5, 3, 4, D, 0)
        path = tmp_path / "table.ckpt"
        save_table(path, table)
        loaded = load_table(path)
        for name in ("entity", "relation", "time"):
            got = getattr(loaded, name)
            assert got.dtype == np.float32, name  # loaded as stored
            assert np.array_equal(got, getattr(table, name).astype(np.float32)), name

    def test_trained_table_roundtrip_is_exact(self, tmp_path):
        store = build_store([("a", "r1", "b", 1990, 1991), ("b", "r2", "c", 1991, 1992)])
        table = init_random(len(store.entities), len(store.relations), len(store.times), D, 2)
        trained, _ = pretrain_base(store, table, BasePretrainConfig(0.5, 2, 1, 0))
        path = tmp_path / "table.ckpt"
        save_table(path, trained)
        loaded = load_table(path)
        for name in ("entity", "relation", "time"):
            assert np.array_equal(getattr(loaded, name), getattr(trained, name)), name

    def test_save_load_save_is_stable(self, tmp_path):
        table = init_random(5, 3, 4, D, 1)
        first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_table(first, table)
        save_table(second, load_table(first))
        assert first.read_bytes() == second.read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "table.ckpt"
        save_table(path, init_random(5, 3, 4, D, 0))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CheckpointError, match="truncated"):
            load_table(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "table.ckpt"
        save_table(path, init_random(5, 3, 4, D, 0))
        data = bytearray(path.read_bytes())
        data[:4] = b"WHAT"
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="magic"):
            load_table(path)

    def test_wrong_kind_of_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_tgnn(path, init_params(D, 5, 0))
        with pytest.raises(CheckpointError, match="magic"):
            load_table(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "table.ckpt"
        save_table(path, init_random(5, 3, 4, D, 0))
        path.write_bytes(path.read_bytes()[:12])
        with pytest.raises(CheckpointError, match="truncated checkpoint header"):
            load_table(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "table.ckpt"
        save_table(path, init_random(5, 3, 4, D, 0))
        data = bytearray(path.read_bytes())
        data[4] = 99  # little-endian version field
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="version"):
            load_table(path)


class TestTgnnCheckpoint:
    def test_roundtrip(self, tmp_path):
        params = init_params(D, 7, 3)
        path = tmp_path / "tgnn.ckpt"
        save_tgnn(path, params)
        loaded = load_tgnn(path)
        assert loaded.dim == D
        for name in ("w_msg", "w_query", "w_key", "decoder_w", "decoder_b"):
            assert np.array_equal(getattr(loaded, name),
                                  float32_copy(getattr(params, name))), name

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "tgnn.ckpt"
        save_tgnn(path, init_params(D, 7, 3))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(CheckpointError, match="truncated"):
            load_tgnn(path)

    def test_version_2_rejected_with_path(self, tmp_path):
        # the version 2 layout, whose header still carried a layer count
        params = init_params(D, 7, 3)
        path = tmp_path / "tgnn.ckpt"
        save_tgnn(path, params)
        header = b"TGNN" + struct.pack("<IIIQ", 2, D, 1, 7)
        path.write_bytes(header + path.read_bytes()[len(b"TGNN") + struct.calcsize("<IIQ"):])
        with pytest.raises(CheckpointError,
                           match=f"^{re.escape(str(path))}: unsupported format version 2$"):
            load_tgnn(path)


class TestHeadCheckpoint:
    def make(self):
        params = init_head(["who led the lab", "who ran the mill"],
                           ["ada", "ben", "1990"], D_LLM, 0)
        projection = init_projection(D, D_LLM, 1)
        return params, projection

    def load(self, path, params):
        return load_head(path, params.token_vocab, params.answer_labels)

    def test_roundtrip(self, tmp_path):
        params, projection = self.make()
        path = tmp_path / "head.ckpt"
        save_head(path, params, projection)
        assert [p.name for p in tmp_path.iterdir()] == ["head.ckpt"]
        loaded_params, loaded_projection = self.load(path, params)
        assert loaded_params.token_vocab == params.token_vocab
        assert loaded_params.answer_labels == params.answer_labels
        assert np.array_equal(loaded_params.token_emb, float32_copy(params.token_emb))
        assert np.array_equal(loaded_params.scoring, float32_copy(params.scoring))
        assert np.array_equal(loaded_projection.weight, float32_copy(projection.weight))

    @pytest.mark.parametrize("edit, message", [
        (lambda vocab, labels: (dict(list(vocab.items())[:-1]), labels), "tokens 7, expected 6"),
        (lambda vocab, labels: (vocab, labels + ("x",)), "answers 3, expected 4"),
        (lambda vocab, labels: ({**vocab, "x": len(vocab)}, labels[:-1]),
         "tokens 7, expected 8, answers 3, expected 2"),
    ], ids=["fewer-tokens", "more-answers", "both"])
    def test_vocabulary_of_another_size_rejected_with_path(self, tmp_path, edit, message):
        params, projection = self.make()
        path = tmp_path / "head.ckpt"
        save_head(path, params, projection)
        with pytest.raises(CheckpointError, match=(
                f"^{re.escape(str(path))}: {message} "
                "\\(written for another config or fact file\\)$")):
            load_head(path, *edit(params.token_vocab, params.answer_labels))

    def test_expected_widths_checked(self, tmp_path):
        params, projection = self.make()
        path = tmp_path / "head.ckpt"
        save_head(path, params, projection)
        with pytest.raises(CheckpointError, match=f"d_llm {D_LLM}, expected 4, d {D}, expected 5"):
            load_head(path, params.token_vocab, params.answer_labels, {"d_llm": 4, "d": 5})
        # a size the header does not hold is not checked
        loaded, _ = load_head(path, params.token_vocab, params.answer_labels,
                              {"d_llm": D_LLM, "entities": 1})
        assert loaded.dim == D_LLM

    def test_layout_has_no_mixing_weights(self, tmp_path):
        params, projection = self.make()
        path = tmp_path / "head.ckpt"
        save_head(path, params, projection)
        n_tokens, n_answers = params.token_emb.shape[0], len(params.answer_labels)
        floats = n_tokens * D_LLM + D_LLM * n_answers + D * D_LLM
        assert path.stat().st_size == 4 + 4 * 3 + 8 * 2 + 4 * floats

    def test_version_1_rejected(self, tmp_path):
        params, projection = self.make()
        path = tmp_path / "head.ckpt"
        save_head(path, params, projection)
        data = bytearray(path.read_bytes())
        assert data[4] == FORMAT_VERSION == 4
        data[4] = 1  # the layout that still carried the mixing weights
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="unsupported format version 1"):
            self.load(path, params)

    def test_version_3_rejected_with_path(self, tmp_path):
        # the version 3 layout, whose scoring matrix was stored transposed:
        # read as version 4 its values would land in the wrong rows
        params, projection = self.make()
        path = tmp_path / "head.ckpt"
        checkpoint._save(path, b"HEAD", (D_LLM, D, len(params.token_emb), len(params.scoring)),
                         (params.token_emb, params.scoring.T, projection.weight))
        data = bytearray(path.read_bytes())
        data[4] = 3
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError,
                           match=f"^{re.escape(str(path))}: unsupported format version 3$"):
            self.load(path, params)

    def test_scoring_stored_as_held(self, tmp_path):
        # one row per answer on disk, as the head holds it
        params, projection = self.make()
        path = tmp_path / "head.ckpt"
        save_head(path, params, projection)
        start = 4 + 4 * 3 + 8 * 2 + 4 * params.token_emb.size
        stored = np.frombuffer(path.read_bytes()[start:start + 4 * params.scoring.size], "<f4")
        assert stored.tobytes() == params.scoring.astype(np.float32).tobytes()

    def test_load_peak_is_the_matrices_it_returns(self, tmp_path):
        # 20,000 answers: the scoring matrix dominates, and the load holds no
        # second copy of it, nor a temporary its size
        labels = tuple(f"answer {i}" for i in range(20_000))
        params = init_head(["who led the lab", "who ran the mill"], labels, 64, 0)
        path = tmp_path / "head.ckpt"
        save_head(path, params, init_projection(D, 64, 1))
        tracemalloc.start()
        try:
            loaded, projection = load_head(path, params.token_vocab, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = loaded.token_emb.nbytes + loaded.scoring.nbytes + projection.weight.nbytes
        assert loaded.scoring.shape == (20_000, 64)
        assert peak <= 1.1 * held

    @pytest.mark.parametrize("keep", [4, 10, 100])
    def test_truncated_rejected_with_path(self, tmp_path, keep):
        params, projection = self.make()
        path = tmp_path / "head.ckpt"
        save_head(path, params, projection)
        path.write_bytes(path.read_bytes()[:keep])
        message = "truncated checkpoint header" if keep < 32 else "truncated checkpoint$"
        with pytest.raises(CheckpointError, match=message) as caught:
            self.load(path, params)
        assert str(path) in str(caught.value)

    def test_width_mismatch_rejected_at_save(self, tmp_path):
        params, _ = self.make()
        wrong = init_projection(D, D_LLM + 1, 0)
        with pytest.raises(CheckpointError, match="width"):
            save_head(tmp_path / "head.ckpt", params, wrong)


class TestLoadedArrays:
    """Every loader returns the stored float32 values as they are: writable,
    C-contiguous ``float32`` arrays, bit for bit the float32 values saved."""

    def saved_and_loaded(self, tmp_path, kind):
        path = tmp_path / f"{kind}.ckpt"
        if kind == "TKGE":
            table = init_random(5, 3, 4, D, 0)
            save_table(path, table)
            loaded = load_table(path)
            return ([table.entity, table.relation, table.time],
                    [loaded.entity, loaded.relation, loaded.time])
        if kind == "TGNN":
            params = init_params(D, 7, 3)
            save_tgnn(path, params)
            names = ("w_msg", "w_query", "w_key", "decoder_w", "decoder_b")
            loaded = load_tgnn(path)
            return ([getattr(params, n) for n in names], [getattr(loaded, n) for n in names])
        params, projection = TestHeadCheckpoint().make()
        save_head(path, params, projection)
        loaded, loaded_projection = TestHeadCheckpoint().load(path, params)
        return ([params.token_emb, params.scoring, projection.weight],
                [loaded.token_emb, loaded.scoring, loaded_projection.weight])

    @pytest.mark.parametrize("kind", ["TKGE", "TGNN", "HEAD"])
    def test_float32_as_saved(self, tmp_path, kind):
        saved, loaded = self.saved_and_loaded(tmp_path, kind)
        for expected, got in zip(saved, loaded):
            assert got.dtype == np.float32
            assert got.flags.writeable and got.flags.c_contiguous
            assert got.shape == expected.shape
            assert got.tobytes() == expected.astype(np.float32).tobytes()

    def test_decode_matrix_is_float32_as_encoded(self):
        values = np.random.default_rng(0).standard_normal(7)
        decoded = decode_matrix(encode_matrix(values))
        assert decoded.dtype == np.float32 and decoded.flags.writeable
        assert decoded.tobytes() == values.astype(np.float32).tobytes()

    def test_file_shorter_than_its_size_is_truncated(self, tmp_path, monkeypatch):
        # a file that shrinks after its size is read: the matrix's read comes up short
        path = tmp_path / "table.ckpt"
        save_table(path, init_random(5, 3, 4, D, 0))
        path.write_bytes(path.read_bytes()[:-8])
        stat = lambda fd: SimpleNamespace(st_size=10**6)
        monkeypatch.setattr(checkpoint, "os", SimpleNamespace(fstat=stat))
        with pytest.raises(CheckpointError,
                           match=f"^{re.escape(str(path))}: truncated checkpoint$"):
            load_table(path)


class TestOversizedHeader:
    """A header whose row counts claim more data than the file holds is
    rejected, naming the file, before anything the size of the claim is
    allocated."""

    def write(self, tmp_path, kind):
        path = tmp_path / f"{kind}.ckpt"
        if kind == "TKGE":
            save_table(path, init_random(5, 3, 4, D, 0))
            return path, load_table, 12  # offset of n_entities
        if kind == "TGNN":
            save_tgnn(path, init_params(D, 7, 3))
            return path, load_tgnn, 12  # offset of n_entities
        params, projection = TestHeadCheckpoint().make()
        save_head(path, params, projection)
        return path, lambda p: TestHeadCheckpoint().load(p, params), 16  # offset of n_tokens

    @pytest.mark.parametrize("rows", [2**33, 2**61])
    @pytest.mark.parametrize("kind", ["TKGE", "TGNN", "HEAD"])
    def test_rejected_with_path(self, tmp_path, kind, rows):
        path, load, offset = self.write(tmp_path, kind)
        data = bytearray(path.read_bytes())
        assert data[:4] == kind.encode()
        data[offset : offset + 8] = rows.to_bytes(8, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="truncated checkpoint$") as caught:
            load(path)
        assert str(caught.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("kind", ["TKGE", "TGNN", "HEAD"])
    def test_rejected_before_allocating_the_claim(self, tmp_path, kind):
        # 2**22 rows claim at least 16 MB; the rejection allocates none of it
        path, load, offset = self.write(tmp_path, kind)
        data = bytearray(path.read_bytes())
        data[offset : offset + 8] = (2**22).to_bytes(8, "little")
        path.write_bytes(bytes(data))
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="truncated checkpoint$"):
                load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_empty_matrix_with_too_many_rows_rejected(self, tmp_path):
        path, _, _ = self.write(tmp_path, "TKGE")
        data = bytearray(path.read_bytes())
        data[8:12] = (0).to_bytes(4, "little")  # width 0: every matrix is empty
        data[12:20] = (2**62).to_bytes(8, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: matrix shape"):
            load_table(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_decode_matrix_rejects_non_finite_values(value):
    raw = encode_matrix(np.array([1.0, value, 2.0]))
    with pytest.raises(ValueError, match="non-finite value"):
        decode_matrix(raw)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["TKGE", "TGNN", "HEAD"])
def test_non_finite_stored_value_rejected_with_path(tmp_path, kind, value):
    path, load, _ = TestOversizedHeader().write(tmp_path, kind)
    # the last value of the last matrix
    path.write_bytes(path.read_bytes()[:-4] + np.float32(value).tobytes())
    with pytest.raises(CheckpointError,
                       match=f"^{re.escape(str(path))}: non-finite value \\(NaN or infinity\\)$"):
        load(path)
