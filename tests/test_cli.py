import base64
import json
import shutil

import numpy as np
import pytest

from tempkgqa.checkpoint import load_head, load_table, load_tgnn
from tempkgqa.cli import main

from conftest import DATA

DESK = DATA / "desk"


def fast_config(tmp_path, **extra):
    """Desk data with throwaway hyperparameters; exercises plumbing, not quality."""
    payload = {
        "tkg_path": str(DESK / "facts.txt"),
        "questions_train": str(DESK / "questions_train.jsonl"),
        "questions_test": str(DESK / "questions_test.jsonl"),
        "dump_dir": str(tmp_path / "dumps"),
        "checkpoint_dir": str(tmp_path / "dumps" / "checkpoints"),
        "seed": 0,
        "d": 8,
        "d_llm": 16,
        "top_k": 1,
        "max_facts": 10,
        "base_epochs": 2,
        "tgnn_epochs": 1,
        "head_epochs": 2,
        "batch_size": 16,
        "oracle": True,
    }
    payload.update(extra)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full e2e run shared by the artifact assertions below."""
    tmp_path = tmp_path_factory.mktemp("cli")
    config = fast_config(tmp_path)
    assert main(["e2e", "--config", str(config)]) == 0
    return tmp_path / "dumps", config


def copied_run(pipeline, tmp_path):
    """A config over a private copy of the shared run's artifacts."""
    dumps, _ = pipeline
    shutil.copytree(dumps, tmp_path / "dumps")
    return fast_config(tmp_path)


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


class TestArtifacts:
    def test_kg_summary(self, pipeline):
        dumps, _ = pipeline
        summary = json.loads((dumps / "kg.json").read_text())
        assert summary["facts"] == 141
        assert summary["questions_train"] == 76
        assert summary["questions_test"] == 76
        assert sum(summary["test_types"].values()) == 76
        assert set(summary["test_types"]) <= {
            "simple_entity", "simple_time", "before_after", "first_last", "time_join"
        }

    def test_checkpoints_load(self, pipeline):
        dumps, _ = pipeline
        ckpts = dumps / "checkpoints"
        table = load_table(ckpts / "base_table.ckpt")
        assert table.dim == 8
        tgnn_table = load_table(ckpts / "tgnn_table.ckpt")
        assert tgnn_table.entity.shape == table.entity.shape
        params = load_tgnn(ckpts / "tgnn.ckpt")
        assert params.dim == 8
        head, projection = load_head(ckpts / "head.ckpt")
        assert head.dim == 16
        assert projection.dim_in == 8 and projection.dim_out == 16

    def test_loss_dumps(self, pipeline):
        dumps, _ = pipeline
        for name, epochs in (("base_losses.json", 2), ("tgnn_losses.json", 1),
                             ("head_losses.json", 2)):
            losses = json.loads((dumps / name).read_text())["losses"]
            assert len(losses) == epochs
            assert all(np.isfinite(losses))

    def test_subgraph_dumps_cover_every_question(self, pipeline):
        dumps, _ = pipeline
        for split, count in (("train", 76), ("test", 76)):
            records = read_jsonl(dumps / f"subgraphs_{split}.jsonl")
            assert len(records) == count
            for record in records:
                assert set(record) >= {"uid", "relations", "constraint", "facts",
                                       "fallback_relation", "fallback_time", "empty"}
                assert len(record["facts"]) <= 10

    def test_prompt_dumps(self, pipeline):
        dumps, _ = pipeline
        train = read_jsonl(dumps / "prompts_train.jsonl")
        test = read_jsonl(dumps / "prompts_test.jsonl")
        assert {r["uid"] for r in train} != {r["uid"] for r in test}
        train_texts = [r["messages"][0]["content"] for r in train]
        test_texts = [r["messages"][0]["content"] for r in test]
        assert all("Response:" in text for text in train_texts + test_texts)
        # training prompts carry an answer after the response marker
        assert all(not text.endswith("Response:") for text in train_texts)
        assert all(text.endswith("Response:") for text in test_texts)
        assert all(r["template_id"] == "instruction" for r in train + test)

    def test_indicator_dumps_roundtrip_base64(self, pipeline):
        dumps, config = pipeline
        records = read_jsonl(dumps / "indicators_test.jsonl")
        assert records, "no indicator records"
        for record in records[:5]:
            # encoder-width vectors only; the head projects them at use
            assert set(record) == {"uid", "d", "sub", "rel", "obj", "t_min", "t_max"}
            assert record["d"] == 8
            for key in ("sub", "rel", "obj"):
                raw = np.frombuffer(base64.b64decode(record[key]), dtype="<f4")
                assert raw.shape == (8,), key
                assert np.all(np.isfinite(raw))

    def test_predictions(self, pipeline):
        dumps, _ = pipeline
        records = read_jsonl(dumps / "predictions.jsonl")
        assert len(records) == 76
        for record in records:
            answers = record["answers"]
            assert len(answers) <= 10
            assert len(set(answers)) == len(answers)

    def test_report(self, pipeline):
        dumps, _ = pipeline
        report = json.loads((dumps / "report.json").read_text())
        assert report["ks"] == [1, 10]
        assert report["counts"]["overall"] == 76
        assert 0.0 <= report["overall"]["1"] <= report["overall"]["10"] <= 1.0
        assert len(report["records"]) == 76


class TestStageSequencing:
    def test_missing_dump_fails_with_guidance(self, tmp_path, caplog):
        config = fast_config(tmp_path)
        assert main(["build-prompts", "--config", str(config)]) == 2
        assert "run the earlier stages first" in caplog.text

    def test_missing_checkpoint_fails_by_name(self, tmp_path, caplog):
        config = fast_config(tmp_path)
        assert main(["predict", "--config", str(config)]) == 2
        assert "head.ckpt" in caplog.text

    def test_question_missing_from_subgraphs_fails_with_guidance(
        self, pipeline, tmp_path, caplog
    ):
        config = copied_run(pipeline, tmp_path)
        path = tmp_path / "dumps" / "subgraphs_train.jsonl"
        records = read_jsonl(path)
        records[0]["uid"] = "renamed"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert main(["build-prompts", "--config", str(config)]) == 2
        assert str(path) in caplog.text
        assert "rerun retrieve" in caplog.text

    @pytest.mark.parametrize("keep", [12, 200], ids=["short-header", "short-body"])
    def test_truncated_head_checkpoint_returns_2(self, pipeline, tmp_path, caplog, keep):
        config = copied_run(pipeline, tmp_path)
        path = tmp_path / "dumps" / "checkpoints" / "head.ckpt"
        path.write_bytes(path.read_bytes()[:keep])
        assert main(["predict", "--config", str(config)]) == 2
        assert f"{path}: truncated checkpoint" in caplog.text

    def test_single_stage_reruns_cleanly(self, pipeline):
        dumps, config = pipeline
        before = (dumps / "report.json").read_bytes()
        assert main(["evaluate", "--config", str(config)]) == 0
        assert (dumps / "report.json").read_bytes() == before


class TestErrorHandling:
    def test_invalid_config_returns_2(self, tmp_path, caplog):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"d": 0}), encoding="utf-8")
        assert main(["build-kg", "--config", str(bad)]) == 2
        assert "d must be" in caplog.text

    @pytest.mark.parametrize("key, value", [
        ("tgnn_epochs", -1), ("base_epochs", -2), ("head_epochs", -1),
        ("tgnn_learning_rate", -0.1), ("base_learning_rate", -1.0),
        ("head_learning_rate", -0.5), ("tgnn_max_steps", -1),
    ])
    def test_negative_stage_override_returns_2(self, tmp_path, caplog, key, value):
        config = fast_config(tmp_path, **{key: value})
        assert main(["pretrain-tgnn", "--config", str(config)]) == 2
        assert f"{key} must be >= 0" in caplog.text

    def test_zero_stage_overrides_accepted(self, tmp_path):
        config = fast_config(tmp_path, tgnn_epochs=0, tgnn_max_steps=0, tgnn_learning_rate=0.0)
        assert main(["build-kg", "--config", str(config)]) == 0

    def test_missing_config_returns_2(self, tmp_path, caplog):
        missing = tmp_path / "missing.json"
        assert main(["e2e", "--config", str(missing)]) == 2
        assert str(missing) in caplog.text
        assert "cannot read config" in caplog.text

    def test_unreadable_config_returns_2(self, tmp_path, caplog):
        directory = tmp_path / "config.json"
        directory.mkdir()
        assert main(["e2e", "--config", str(directory)]) == 2
        assert f"{directory}: cannot read config" in caplog.text
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe{")
        assert main(["e2e", "--config", str(binary)]) == 2
        assert f"{binary}: config is not UTF-8 text" in caplog.text

    def test_missing_facts_file_returns_2(self, tmp_path):
        config = fast_config(tmp_path, tkg_path=str(tmp_path / "nowhere.txt"))
        assert main(["build-kg", "--config", str(config)]) == 2

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_config_echo_logged(self, tmp_path, caplog):
        config = fast_config(tmp_path)
        with caplog.at_level("INFO"):
            main(["build-kg", "--config", str(config)])
        assert "resolved config" in caplog.text
        assert '"d": 8' in caplog.text
