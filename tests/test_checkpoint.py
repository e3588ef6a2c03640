import re
import struct

import numpy as np
import pytest

from tempkgqa.checkpoint import (
    FORMAT_VERSION,
    CheckpointError,
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
        assert np.array_equal(loaded.entity, float32_copy(table.entity))
        assert np.array_equal(loaded.relation, float32_copy(table.relation))
        assert np.array_equal(loaded.time, float32_copy(table.time))
        assert loaded.entity.dtype == np.float64

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

    def test_roundtrip_with_sidecar(self, tmp_path):
        params, projection = self.make()
        path = tmp_path / "head.ckpt"
        save_head(path, params, projection)
        assert (tmp_path / "head.json").exists()
        loaded_params, loaded_projection = load_head(path)
        assert loaded_params.token_vocab == params.token_vocab
        assert loaded_params.answer_labels == params.answer_labels
        assert np.array_equal(loaded_params.token_emb, float32_copy(params.token_emb))
        assert np.array_equal(loaded_params.scoring, float32_copy(params.scoring))
        assert np.array_equal(loaded_projection.weight, float32_copy(projection.weight))

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
        assert data[4] == FORMAT_VERSION == 3
        data[4] = 1  # the layout that still carried the mixing weights
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="unsupported format version 1"):
            load_head(path)

    @pytest.mark.parametrize("keep", [4, 10, 100])
    def test_truncated_rejected_with_path(self, tmp_path, keep):
        params, projection = self.make()
        path = tmp_path / "head.ckpt"
        save_head(path, params, projection)
        path.write_bytes(path.read_bytes()[:keep])
        message = "truncated checkpoint header" if keep < 32 else "truncated checkpoint$"
        with pytest.raises(CheckpointError, match=message) as caught:
            load_head(path)
        assert str(path) in str(caught.value)

    def test_width_mismatch_rejected_at_save(self, tmp_path):
        params, _ = self.make()
        wrong = init_projection(D, D_LLM + 1, 0)
        with pytest.raises(CheckpointError, match="width"):
            save_head(tmp_path / "head.ckpt", params, wrong)

    def test_sidecar_shape_mismatch_rejected(self, tmp_path):
        params, projection = self.make()
        path = tmp_path / "head.ckpt"
        save_head(path, params, projection)
        sidecar = tmp_path / "head.json"
        text = sidecar.read_text(encoding="utf-8").replace('"ada", ', "")
        sidecar.write_text(text, encoding="utf-8")
        with pytest.raises(CheckpointError, match="sidecar"):
            load_head(path)

    @pytest.mark.parametrize("text", [
        '{"tokens": [', '{"tokens": []}', '{"answer_labels": []}', "[]", "\udcff",
    ], ids=["truncated", "no-labels", "no-tokens", "list", "not-utf8"])
    def test_malformed_sidecar_rejected_with_its_path(self, tmp_path, text):
        params, projection = self.make()
        path = tmp_path / "head.ckpt"
        save_head(path, params, projection)
        sidecar = tmp_path / "head.json"
        sidecar.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(sidecar))}: "):
            load_head(path)

    def test_missing_sidecar_raises(self, tmp_path):
        params, projection = self.make()
        path = tmp_path / "head.ckpt"
        save_head(path, params, projection)
        (tmp_path / "head.json").unlink()
        with pytest.raises(FileNotFoundError):
            load_head(path)


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
        save_head(path, *TestHeadCheckpoint().make())
        return path, load_head, 16  # offset of n_tokens

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

    def test_empty_matrix_with_too_many_rows_rejected(self, tmp_path):
        path, _, _ = self.write(tmp_path, "TKGE")
        data = bytearray(path.read_bytes())
        data[8:12] = (0).to_bytes(4, "little")  # width 0: every matrix is empty
        data[12:20] = (2**62).to_bytes(8, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: matrix shape"):
            load_table(path)
