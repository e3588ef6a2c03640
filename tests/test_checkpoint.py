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
from tempkgqa.embeddings import init_random
from tempkgqa.head import init_head
from tempkgqa.indicators import init_projection
from tempkgqa.tgnn import init_params

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
        params = init_params(D, 7, 3, layers=2)
        path = tmp_path / "tgnn.ckpt"
        save_tgnn(path, params)
        loaded = load_tgnn(path)
        assert loaded.layers == 2
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
        n_tokens, n_answers = params.token_emb.shape[0], params.scoring.shape[1]
        floats = n_tokens * D_LLM + D_LLM * n_answers + D * D_LLM
        assert path.stat().st_size == 4 + 4 * 3 + 8 * 2 + 4 * floats

    def test_version_1_rejected(self, tmp_path):
        params, projection = self.make()
        path = tmp_path / "head.ckpt"
        save_head(path, params, projection)
        data = bytearray(path.read_bytes())
        assert data[4] == FORMAT_VERSION == 2
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

    def test_missing_sidecar_raises(self, tmp_path):
        params, projection = self.make()
        path = tmp_path / "head.ckpt"
        save_head(path, params, projection)
        (tmp_path / "head.json").unlink()
        with pytest.raises(FileNotFoundError):
            load_head(path)
