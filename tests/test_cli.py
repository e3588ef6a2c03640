import base64
import dataclasses
import errno
import json
import logging
import math
import shutil
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tempkgqa import (checkpoint, cli, config, embeddings, evaluation, head, indicators,
                      llm, prompts, retrieval, store, tgnn)
from tempkgqa.checkpoint import load_head, load_table, load_tgnn
from tempkgqa.cli import main
from tempkgqa.errors import TempkgqaError
from tempkgqa.llm import TransportError

from conftest import DATA

DESK = DATA / "desk"


#: JSON nested far deeper than the interpreter's recursion limit
DEEPLY_NESTED = b"[" * 100_000 + b"]" * 100_000


def fast_config(tmp_path, **extra):
    """Desk data with throwaway hyperparameters; exercises plumbing, not quality."""
    payload = {
        "tkg_path": str(DESK / "facts.txt"),
        "questions_train": str(DESK / "questions_train.jsonl"),
        "questions_test": str(DESK / "questions_test.jsonl"),
        "dump_dir": str(tmp_path / "dumps"),
        "seed": 0,
        "d": 8,
        "d_llm": 16,
        "base_epochs": 2,
        "tgnn_epochs": 1,
        "head_epochs": 2,
        "batch_size": 16,
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


def fake_endpoint(monkeypatch, content):
    """Replace ``requests.Session`` with one that answers every post with a
    completion holding ``content``; returns the list of posted (url, body)."""
    posts = []

    class Reply:
        status_code = 200

        def json(self):
            return {"choices": [{"message": {"content": content}}]}

    class FakeSession:
        def post(self, url, json, headers, timeout):
            posts.append((url, json))
            return Reply()

    monkeypatch.setattr(llm.requests, "Session", FakeSession)
    return posts


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
        world = store.load_tkg(DESK / "facts.txt")
        train = store.load_questions(DESK / "questions_train.jsonl", world)
        head_params, projection = load_head(ckpts / "head.ckpt",
                                            head.token_vocab(q.text for q in train),
                                            cli.answer_space(world))
        assert head_params.dim == 16
        assert projection.dim_in == 8 and projection.dim_out == 16

    def test_loss_dumps(self, pipeline):
        dumps, _ = pipeline
        for name, epochs in (("base_losses.json", 2), ("tgnn_losses.json", 1),
                             ("head_losses.json", 2)):
            losses = json.loads((dumps / name).read_text())["losses"]
            assert len(losses) == epochs
            assert all(np.isfinite(losses))

    @pytest.mark.parametrize("losses, diverged", [
        ([], False), ([3.0], False), ([3.0, 2.0, 3.0], False), ([3.0, 3.5], True),
        ([3.0, math.nan], True), ([3.0, math.inf], True), ([math.inf, 3.0], False),
    ])
    def test_divergence_flag(self, tmp_path, caplog, losses, diverged):
        cfg = config.RunConfig(dump_dir=str(tmp_path))
        cli._write_losses(cfg, "head_losses", losses)
        record = json.loads((tmp_path / "head_losses.json").read_text())
        assert record["diverged"] is diverged
        assert ("train-head diverged" in caplog.text) is diverged

    @pytest.mark.parametrize("losses, epoch_batches, diverged", [
        ([100.0, 20.0], [10, 1], True),     # a partial last epoch: per batch 20 > 10
        ([100.0, 9.0], [10, 1], False),
        ([100.0, 80.0], [10, 10], False),
        ([5.0], [1], False),                # a first epoch that is also the partial last
    ])
    def test_divergence_compares_losses_per_batch(
        self, tmp_path, caplog, losses, epoch_batches, diverged
    ):
        cfg = config.RunConfig(dump_dir=str(tmp_path))
        cli._write_losses(cfg, "tgnn_losses", losses, epoch_batches)
        record = json.loads((tmp_path / "tgnn_losses.json").read_text())
        assert record == {"losses": losses, "diverged": diverged}
        assert ("pretrain-tgnn diverged" in caplog.text) is diverged

    def test_partial_encoder_epoch_counted_from_the_schedule(
        self, pipeline, tmp_path, monkeypatch
    ):
        dumps, _ = pipeline
        facts = json.loads((dumps / "kg.json").read_text())["facts"]
        per_epoch = -(-2 * facts // 16)  # both directions of every fact, batch 16
        written = {}
        monkeypatch.setattr(cli, "_write_losses", lambda *args: written.update(args=args))
        copied_run(pipeline, tmp_path)
        run = fast_config(tmp_path, tgnn_epochs=2, tgnn_max_steps=per_epoch + 1)
        assert main(["pretrain-tgnn", "--config", str(run)]) == 0
        _, name, losses, epoch_batches = written["args"]
        assert name == "tgnn_losses"
        assert len(losses) == 2 and epoch_batches == [per_epoch, 1]

    @pytest.mark.parametrize("learning_rate, diverged", [(0.3, False), (10.0, True)])
    def test_large_head_learning_rate_is_flagged(
        self, pipeline, tmp_path, caplog, learning_rate, diverged
    ):
        # desk data; 0.3 is the desk config's head learning rate
        copied_run(pipeline, tmp_path)
        run = fast_config(tmp_path, head_learning_rate=learning_rate, head_epochs=20)
        assert main(["train-head", "--config", str(run)]) == 0
        record = json.loads((tmp_path / "dumps" / "head_losses.json").read_text())
        assert len(record["losses"]) == 20
        assert record["diverged"] is diverged
        assert ("train-head diverged" in caplog.text) is diverged
        for name in ("base_losses.json", "tgnn_losses.json"):
            assert json.loads((tmp_path / "dumps" / name).read_text())["diverged"] is False

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow being tested
    @pytest.mark.parametrize("command, key, written", [
        ("pretrain-base", "base_learning_rate", ("base_table.ckpt",)),
        ("pretrain-tgnn", "tgnn_learning_rate", ("tgnn_table.ckpt", "tgnn.ckpt")),
        ("train-head", "head_learning_rate", ("head.ckpt",)),
    ])
    def test_non_finite_training_saves_nothing(
        self, pipeline, tmp_path, caplog, command, key, written
    ):
        copied_run(pipeline, tmp_path)
        checkpoints = tmp_path / "dumps" / "checkpoints"
        for name in written:
            (checkpoints / name).unlink()
        run = fast_config(tmp_path, **{key: 1e6})
        assert main([command, "--config", str(run)]) == 2
        assert f"so nothing was saved; lower {key} (1000000.0)" in caplog.text
        assert not any((checkpoints / name).exists() for name in written)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow being tested
    @pytest.mark.parametrize("command, key, reader, checkpoint_file", [
        ("pretrain-base", "base_learning_rate", "pretrain-tgnn", "base_table.ckpt"),
        ("pretrain-tgnn", "tgnn_learning_rate", "build-indicators", "tgnn_table.ckpt"),
        ("train-head", "head_learning_rate", "predict", "head.ckpt"),
    ])
    def test_refused_training_leaves_no_earlier_output(
        self, pipeline, tmp_path, caplog, command, key, reader, checkpoint_file
    ):
        # a good run's outputs are in place; the refused rerun removes them,
        # so the next stage cannot read them as if this config wrote them
        copied_run(pipeline, tmp_path)
        dumps = tmp_path / "dumps"
        run = fast_config(tmp_path, **{key: 1e6})
        assert main([command, "--config", str(run)]) == 2
        assert not any((dumps / file).exists() for file in cli.WRITES[command])
        assert main([reader, "--config", str(run)]) == 2
        path = dumps / "checkpoints" / checkpoint_file
        assert f"missing artifact {path}; run {command} first" in caplog.text

    def test_subgraph_dumps_cover_every_question(self, pipeline):
        dumps, _ = pipeline
        for split, count in (("train", 76), ("test", 76)):
            records = read_jsonl(dumps / f"subgraphs_{split}.jsonl")
            assert len(records) == count
            for record in records:
                assert set(record) == set(retrieval.SUBGRAPH_SCHEMA)
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
            # one encoder-width vector; the head projects it at use
            assert set(record) == {"uid", "vector"}
            raw = np.frombuffer(base64.b64decode(record["vector"]), dtype="<f4")
            assert raw.shape == (8,)
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


def dump_files(dumps):
    """The files under ``dumps``, relative to it."""
    return {path.relative_to(dumps).as_posix() for path in dumps.rglob("*") if path.is_file()}


class TestArtifactTable:
    def test_every_read_is_written_by_an_earlier_stage(self):
        assert list(cli.WRITES) == list(cli.STAGES)
        assert set(cli.READS) <= set(cli.STAGES)
        written = set()
        for stage in cli.STAGES:
            for name in cli.READS.get(stage, ()):
                assert name in written, f"{stage} reads {name} before any stage writes it"
            written |= {name for name, (_, writer) in cli.ARTIFACTS.items() if writer == stage}

    def test_every_artifact_has_one_writer(self):
        files = [file for files in cli.WRITES.values() for file in files]
        assert len(files) == len(set(files)) == len(cli.ARTIFACTS) == 16
        assert sorted(file for file, _ in cli.ARTIFACTS.values()) == sorted(files)

    def test_each_stage_alone_writes_exactly_its_declared_files(self, tmp_path):
        config = fast_config(tmp_path)
        dumps = tmp_path / "dumps"
        before = set()
        for stage in cli.STAGES:
            assert main([stage, "--config", str(config)]) == 0, stage
            after = dump_files(dumps)
            assert after - before == set(cli.WRITES[stage]), stage
            before = after

    @pytest.mark.parametrize("command, missing, writer", [
        ("pretrain-tgnn", "checkpoints/base_table.ckpt", "pretrain-base"),
        ("build-prompts", "subgraphs_train.jsonl", "retrieve"),
        ("build-indicators", "checkpoints/tgnn_table.ckpt", "pretrain-tgnn"),
        ("train-head", "indicators_train.jsonl", "build-indicators"),
        ("predict", "checkpoints/head.ckpt", "train-head"),
        ("evaluate", "predictions.jsonl", "predict"),
    ])
    def test_stage_in_an_empty_dir_names_the_stage_to_run(
        self, tmp_path, caplog, command, missing, writer
    ):
        config = fast_config(tmp_path)
        dumps = tmp_path / "dumps"
        assert main([command, "--config", str(config)]) == 2
        assert f"missing artifact {dumps / missing}; run {writer} first" in caplog.text
        assert not dumps.exists()

    def test_build_prompts_with_one_split_missing_writes_nothing(self, pipeline, tmp_path, caplog):
        config = fast_config(tmp_path)
        dumps = tmp_path / "dumps"
        dumps.mkdir()
        shutil.copy(pipeline[0] / "subgraphs_train.jsonl", dumps)
        assert main(["build-prompts", "--config", str(config)]) == 2
        assert (f"missing artifact {dumps / 'subgraphs_test.jsonl'}; run retrieve first"
                in caplog.text)
        assert dump_files(dumps) == {"subgraphs_train.jsonl"}


class TestStageSequencing:
    def test_missing_dump_fails_with_guidance(self, tmp_path, caplog):
        config = fast_config(tmp_path)
        assert main(["build-prompts", "--config", str(config)]) == 2
        assert "run retrieve first" in caplog.text

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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_head_checkpoint_returns_2(self, pipeline, tmp_path, caplog, value):
        config = copied_run(pipeline, tmp_path)
        path = tmp_path / "dumps" / "checkpoints" / "head.ckpt"
        path.write_bytes(path.read_bytes()[:-4] + np.float32(value).tobytes())
        assert main(["predict", "--config", str(config)]) == 2
        assert (f"{path}: non-finite value (NaN or infinity); rerun train-head"
                in caplog.text)

    def test_head_whose_scores_overflow_returns_2(self, pipeline, tmp_path, caplog):
        # every stored value is finite, but the projected features are not:
        # the ranking once read NaN scores and failed with an IndexError
        config = copied_run(pipeline, tmp_path)
        dumps = tmp_path / "dumps"
        path = dumps / "checkpoints" / "head.ckpt"
        world = store.load_tkg(DESK / "facts.txt")
        texts = [q.text for q in store.load_questions(DESK / "questions_train.jsonl", world)]
        params, projection = load_head(path, head.token_vocab(texts), cli.answer_space(world))
        projection.weight[:] = 3e38
        checkpoint.save_head(path, params, projection)
        assert main(["predict", "--config", str(config)]) == 2
        assert (f"{path}: scores of {dumps / 'indicators_test.jsonl'} overflow float32; "
                f"rerun train-head") in caplog.text

    @pytest.mark.parametrize("command, outputs", [
        ("build-prompts", ("prompts_train.jsonl", "prompts_test.jsonl")),
        ("build-indicators", ("indicators_train.jsonl", "indicators_test.jsonl")),
    ])
    def test_corrupt_test_split_leaves_no_output(
        self, pipeline, tmp_path, caplog, command, outputs
    ):
        # the train split reads cleanly; the stage still writes neither split
        config = copied_run(pipeline, tmp_path)
        dumps = tmp_path / "dumps"
        for name in outputs:
            (dumps / name).unlink()
        (dumps / "subgraphs_test.jsonl").write_text("[1]\n", encoding="utf-8")
        assert main([command, "--config", str(config)]) == 2
        assert "line 1: record is not a JSON object; rerun retrieve" in caplog.text
        assert not any((dumps / name).exists() for name in outputs)

    def test_question_missing_from_indicators_fails_with_guidance(
        self, pipeline, tmp_path, caplog
    ):
        config = copied_run(pipeline, tmp_path)
        path = tmp_path / "dumps" / "indicators_test.jsonl"
        records = read_jsonl(path)
        uid = records[0]["uid"]
        records[0]["uid"] = "renamed"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert main(["predict", "--config", str(config)]) == 2
        assert f"question {uid!r} is missing from {path}" in caplog.text
        assert "rerun build-indicators" in caplog.text

    def test_train_head_on_a_partial_indicator_dump_returns_2(self, pipeline, tmp_path, caplog):
        # a missing record once read as a question without evidence
        config = copied_run(pipeline, tmp_path)
        path = tmp_path / "dumps" / "indicators_train.jsonl"
        first, *rest = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(rest))
        assert main(["train-head", "--config", str(config)]) == 2
        uid = json.loads(first)["uid"]
        assert (f"question {uid!r} is missing from {path}; rerun build-indicators"
                in caplog.text)
        assert not (tmp_path / "dumps" / "checkpoints" / "head.ckpt").exists()

    @pytest.mark.parametrize("file, command", [
        ("indicators_train.jsonl", "train-head"),
        ("indicators_test.jsonl", "predict"),
        ("subgraphs_test.jsonl", "build-indicators"),
    ])
    def test_a_dump_holding_another_question_returns_2(
        self, pipeline, tmp_path, caplog, file, command
    ):
        # a record beyond the split's questions was once read without a word
        config = copied_run(pipeline, tmp_path)
        dumps = tmp_path / "dumps"
        path = dumps / file
        records = read_jsonl(path)
        records.append({**records[-1], "uid": "not-a-question"})
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert main([command, "--config", str(config)]) == 2
        writer = cli.ARTIFACTS[path.stem][1]
        assert (f"{path}: question 'not-a-question' is not in its split; rerun {writer}"
                in caplog.text)
        assert not any((dumps / output).exists() for output in cli.WRITES[command])

    def test_empty_evidence_gets_a_null_vector(self, pipeline, tmp_path):
        config = copied_run(pipeline, tmp_path)
        dumps = tmp_path / "dumps"
        subgraphs = read_jsonl(dumps / "subgraphs_test.jsonl")
        uid = subgraphs[1]["uid"]
        subgraphs[1]["facts"] = []
        (dumps / "subgraphs_test.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in subgraphs), encoding="utf-8")
        assert main(["build-indicators", "--config", str(config)]) == 0
        before = read_jsonl(pipeline[0] / "indicators_test.jsonl")
        after = read_jsonl(dumps / "indicators_test.jsonl")
        # one record per question, in the question file's order
        questions = read_jsonl(DESK / "questions_test.jsonl")
        assert [r["uid"] for r in after] == [q["uid"] for q in questions]
        assert [r["uid"] for r in after if r["vector"] is None] == [uid]
        assert [r for r in after if r["uid"] != uid] == [r for r in before if r["uid"] != uid]
        assert ((dumps / "indicators_train.jsonl").read_bytes()
                == (pipeline[0] / "indicators_train.jsonl").read_bytes())

    def test_training_question_without_evidence_is_skipped(self, pipeline, tmp_path, caplog):
        config = copied_run(pipeline, tmp_path)
        path = tmp_path / "dumps" / "indicators_train.jsonl"
        records = read_jsonl(path)
        records[0]["vector"] = None
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert main(["train-head", "--config", str(config)]) == 0
        assert "skipping 1 training questions without evidence" in caplog.text

    def test_predict_reads_no_subgraph_dump(self, pipeline, tmp_path):
        config = copied_run(pipeline, tmp_path)
        dumps = tmp_path / "dumps"
        (dumps / "subgraphs_test.jsonl").unlink()
        (dumps / "predictions.jsonl").unlink()
        assert main(["predict", "--config", str(config)]) == 0
        assert ((dumps / "predictions.jsonl").read_bytes()
                == (pipeline[0] / "predictions.jsonl").read_bytes())

    def test_truncated_indicator_dump_returns_2(self, pipeline, tmp_path, caplog):
        config = copied_run(pipeline, tmp_path)
        path = tmp_path / "dumps" / "indicators_test.jsonl"
        first, second = path.read_bytes().splitlines(keepends=True)[:2]
        path.write_bytes(first + second[: len(second) // 2])  # ends inside the vector
        assert main(["predict", "--config", str(config)]) == 2
        assert f"{path}, line 2: not valid JSON (Unterminated string" in caplog.text
        assert "rerun build-indicators" in caplog.text

    @pytest.mark.parametrize("dump, stage, command, key", [
        ("indicators_test.jsonl", "build-indicators", "predict", "vector"),
        ("subgraphs_test.jsonl", "retrieve", "build-indicators", "fallback_relation"),
        ("subgraphs_train.jsonl", "retrieve", "build-prompts", "facts"),
        ("predictions.jsonl", "predict", "evaluate", "answers"),
    ])
    def test_dump_record_without_key_returns_2(
        self, pipeline, tmp_path, caplog, dump, stage, command, key
    ):
        config = copied_run(pipeline, tmp_path)
        path = tmp_path / "dumps" / dump
        records = read_jsonl(path)
        del records[1][key]
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert main([command, "--config", str(config)]) == 2
        assert f"{path}, line 2: record has no key {key!r}; rerun {stage}" in caplog.text

    def test_dump_line_in_utf16_returns_2(self, pipeline, tmp_path, caplog):
        config = copied_run(pipeline, tmp_path)
        path = tmp_path / "dumps" / "subgraphs_test.jsonl"
        lines = path.read_bytes().splitlines()
        lines[-1] = lines[-1].decode("utf-8").encode("utf-16-le")
        path.write_bytes(b"\n".join(lines) + b"\n")
        assert main(["build-indicators", "--config", str(config)]) == 2
        assert f"{path}, line {len(lines)}: not valid JSON (" in caplog.text
        assert "rerun retrieve" in caplog.text

    def test_dump_line_nested_too_deeply_returns_2(self, pipeline, tmp_path, caplog):
        config = copied_run(pipeline, tmp_path)
        path = tmp_path / "dumps" / "subgraphs_test.jsonl"
        lines = path.read_bytes().splitlines()
        lines[1] = DEEPLY_NESTED
        path.write_bytes(b"\n".join(lines) + b"\n")
        assert main(["build-indicators", "--config", str(config)]) == 2
        assert (f"{path}, line 2: not valid JSON (nested too deeply); rerun retrieve"
                in caplog.text)

    def test_dump_line_that_is_not_an_object_returns_2(self, pipeline, tmp_path, caplog):
        config = copied_run(pipeline, tmp_path)
        path = tmp_path / "dumps" / "predictions.jsonl"
        path.write_text("[1, 2]\n", encoding="utf-8")
        assert main(["evaluate", "--config", str(config)]) == 2
        assert f"{path}, line 1: record is not a JSON object; rerun predict" in caplog.text

    @pytest.mark.parametrize("edit, message", [
        (lambda fact: fact.rsplit("|", 1)[0], "expected 5 '|'-separated fields, got 4"),
        (lambda fact: "|".join(fact.split("|")[:3] + ["2999", "1000"]),
         "start year 2999 after end year 1000"),
        (lambda fact: "nobody|" + fact.split("|", 1)[1], "unknown entity label: 'nobody'"),
    ], ids=["four-fields", "backwards", "unknown-label"])
    def test_malformed_dump_fact_returns_2(self, pipeline, tmp_path, caplog, edit, message):
        config = copied_run(pipeline, tmp_path)
        path = tmp_path / "dumps" / "subgraphs_train.jsonl"
        records = read_jsonl(path)
        line = next(i for i, r in enumerate(records) if r["facts"]) + 1
        fact = records[line - 1]["facts"][0] = edit(records[line - 1]["facts"][0])
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert main(["build-indicators", "--config", str(config)]) == 2
        assert f"{path}, line {line}: fact {fact!r}: {message}; rerun retrieve" in caplog.text

    @pytest.mark.parametrize("edit, found", [
        (lambda record: record["facts"].__setitem__(0, 123), "list holding int"),
        (lambda record: record.update(facts=record["facts"][0]), "str"),
    ], ids=["number", "string"])
    def test_subgraph_facts_that_are_not_strings_return_2(
        self, pipeline, tmp_path, caplog, edit, found
    ):
        # a string once split into characters, each read as a fact
        config = copied_run(pipeline, tmp_path)
        path = tmp_path / "dumps" / "subgraphs_test.jsonl"
        records = read_jsonl(path)
        line = next(i for i, r in enumerate(records) if r["facts"]) + 1
        edit(records[line - 1])
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert main(["build-indicators", "--config", str(config)]) == 2
        assert (f"{path}, line {line}: 'facts' is not a list of strings but {found}; "
                f"rerun retrieve") in caplog.text

    @pytest.mark.parametrize("key, value, message", [
        ("relations", "held", "'relations' is not a list of strings but str"),
        ("constraint", 5, "'constraint' is not an object but int"),
        ("constraint", {}, "'constraint' has no key 'kind'; 'constraint' has no key 't1'; "
                           "'constraint' has no key 't2'"),
        ("constraint", {"kind": "at", "t1": True, "t2": None},
         "'constraint' key 't1' is not an integer or null but bool"),
        ("constraint", {"kind": "at", "t1": 1984.0, "t2": None},
         "'constraint' key 't1' is not an integer or null but float"),
        ("fallback_time", "x", "'fallback_time' is not a boolean but str"),
    ], ids=["relations-string", "constraint-number", "constraint-empty", "t1-bool", "t1-float",
            "fallback-string"])
    def test_subgraph_field_of_another_type_names_the_key(
        self, pipeline, tmp_path, caplog, key, value, message
    ):
        # the string was looked up one character at a time ("unknown relation
        # label: 'h'"), the number was indexed ("'int' object is not
        # subscriptable"), a missing kind was a bare "'kind'", a bool or float
        # year an "unknown time label", and a string flag was read as true
        config = copied_run(pipeline, tmp_path)
        path = tmp_path / "dumps" / "subgraphs_test.jsonl"
        records = read_jsonl(path)
        records[0][key] = value
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert main(["build-indicators", "--config", str(config)]) == 2
        assert f"{path}, line 1: {message}; rerun retrieve" in caplog.text

    def test_indicator_beyond_float32_leaves_no_output(self, pipeline, tmp_path, caplog):
        # time rows near float32's largest value: each indicator adds two, so
        # it would overflow to infinity when stored
        config = copied_run(pipeline, tmp_path)
        dumps = tmp_path / "dumps"
        path = dumps / "checkpoints" / "tgnn_table.ckpt"
        table = load_table(path)
        table.time[:] = 3e38
        checkpoint.save_table(path, table)
        assert main(["build-indicators", "--config", str(config)]) == 2
        assert "does not fit in float32; rerun pretrain-tgnn" in caplog.text
        assert not any((dumps / f"indicators_{split}.jsonl").exists() for split in cli.SPLITS)

    def test_encoder_overflow_leaves_no_output(self, pipeline, tmp_path, caplog, monkeypatch):
        # entity and relation rows near float32's largest value: the sum
        # e_i + r_rho of an edge's message overflows, before anything is pooled
        config = copied_run(pipeline, tmp_path)
        dumps = tmp_path / "dumps"
        path = dumps / "checkpoints" / "tgnn_table.ckpt"
        table = load_table(path)
        table.entity[:] = table.relation[:] = 3e38
        checkpoint.save_table(path, table)
        pooled = []
        monkeypatch.setattr(indicators, "build_indicators", lambda *args: pooled.append(args))
        assert main(["build-indicators", "--config", str(config)]) == 2
        assert "does not fit in float32; rerun pretrain-tgnn" in caplog.text
        assert not pooled
        assert not any((dumps / f"indicators_{split}.jsonl").exists() for split in cli.SPLITS)

    def test_attention_overflow_leaves_no_output(self, pipeline, tmp_path, caplog):
        # entity rows alone near float32's largest value: the messages fit,
        # but the attention score's einsum overflows to NaN without raising
        config = copied_run(pipeline, tmp_path)
        dumps = tmp_path / "dumps"
        path = dumps / "checkpoints" / "tgnn_table.ckpt"
        table = load_table(path)
        table.entity[:] = 3e38
        checkpoint.save_table(path, table)
        assert main(["build-indicators", "--config", str(config)]) == 2
        assert "does not fit in float32; rerun pretrain-tgnn" in caplog.text
        assert not any((dumps / f"indicators_{split}.jsonl").exists() for split in cli.SPLITS)

    @pytest.mark.parametrize("key, value, message", [
        ("vector", "!!", "'vector' is not a base64 float32 vector"),
        ("vector", "AAAAAA==", "'vector' has width 1, expected 8"),
        ("vector", "AAA", "'vector' is not a base64 float32 vector"),
        ("vector", base64.b64encode(np.ones(4, "<f4").tobytes()).decode(),
         "'vector' has width 4, expected 8"),
        ("uid", [1], "'uid' is not a string but list"),
        ("vector", 5, "'vector' is not a string or null but int"),
        ("vector", base64.b64encode(np.full(8, np.nan, "<f4").tobytes()).decode(),
         "'vector' is not a base64 float32 vector (non-finite value (NaN or infinity))"),
    ], ids=["not-base64", "short", "bad-padding", "width", "uid-list", "vector-number",
            "non-finite"])
    def test_malformed_indicator_vector_returns_2(
        self, pipeline, tmp_path, caplog, key, value, message
    ):
        config = copied_run(pipeline, tmp_path)
        path = tmp_path / "dumps" / "indicators_train.jsonl"
        records = read_jsonl(path)
        records[2][key] = value
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert main(["train-head", "--config", str(config)]) == 2
        assert f"{path}, line 3: {message}" in caplog.text
        assert "; rerun build-indicators" in caplog.text

    @pytest.mark.parametrize("change", ["d", "new-entity"])
    @pytest.mark.parametrize("command, name, stage", [
        ("pretrain-tgnn", "base_table.ckpt", "pretrain-base"),
        ("build-indicators", "tgnn_table.ckpt", "pretrain-tgnn"),
    ])
    def test_checkpoint_of_another_shape_returns_2(
        self, pipeline, tmp_path, caplog, change, command, name, stage
    ):
        copied_run(pipeline, tmp_path)
        if change == "d":
            config, message = fast_config(tmp_path, d=16), "d 8, expected 16"
        else:
            # one more fact, naming an entity the checkpoints have no row for
            facts = tmp_path / "facts.txt"
            text = (DESK / "facts.txt").read_text(encoding="utf-8")
            first = text.splitlines()[0].split("|")
            facts.write_text(text + "|".join(["Newcomer", *first[1:]]) + "\n", encoding="utf-8")
            config = fast_config(tmp_path, tkg_path=str(facts))
            n = json.loads((tmp_path / "dumps" / "kg.json").read_bytes())["entities"]
            message = f"entities {n}, expected {n + 1}"
        path = tmp_path / "dumps" / "checkpoints" / name
        assert main([command, "--config", str(config)]) == 2
        assert (f"{path}: {message} (written for another config or fact file); "
                f"rerun {stage}") in caplog.text

    @pytest.mark.parametrize("change", ["d_llm", "d", "tokens"])
    def test_head_of_another_size_returns_2(self, pipeline, tmp_path, caplog, change):
        copied_run(pipeline, tmp_path)
        path = tmp_path / "dumps" / "checkpoints" / "head.ckpt"
        world = store.load_tkg(DESK / "facts.txt")
        texts = [q.text for q in store.load_questions(DESK / "questions_train.jsonl", world)]
        if change == "d":
            checkpoint.save_head(path, head.init_head(texts, cli.answer_space(world), 16, 0),
                                 indicators.init_projection(4, 16, 0))
            message = "d 4, expected 8"
        else:
            if change == "d_llm":
                other, message = fast_config(tmp_path, d_llm=32), "d_llm 32, expected 16"
            else:
                # one training question gains a word no other question holds
                lines = (DESK / "questions_train.jsonl").read_text(encoding="utf-8").splitlines()
                record = json.loads(lines[0])
                record["text"] += " Zebrafish"
                questions = tmp_path / "questions_train.jsonl"
                questions.write_text("\n".join([json.dumps(record), *lines[1:]]) + "\n",
                                     encoding="utf-8")
                other = fast_config(tmp_path, questions_train=str(questions))
                n = len(head.token_vocab(texts))
                message = f"tokens {n + 1}, expected {n}"
            assert main(["train-head", "--config", str(other)]) == 0
        config = fast_config(tmp_path)
        assert main(["predict", "--config", str(config)]) == 2
        assert (f"{path}: {message} (written for another config or fact file); "
                f"rerun train-head") in caplog.text

    def test_encoder_checkpoint_of_another_width_returns_2(self, pipeline, tmp_path, caplog):
        config = copied_run(pipeline, tmp_path)
        path = tmp_path / "dumps" / "checkpoints" / "tgnn.ckpt"
        checkpoint.save_tgnn(path, tgnn.init_params(4, len(load_tgnn(path).decoder_b), 0))
        assert main(["build-indicators", "--config", str(config)]) == 2
        assert f"{path}: d 4, expected 8" in caplog.text
        assert "rerun pretrain-tgnn" in caplog.text

    @pytest.mark.parametrize("key, value, message", [
        ("answers", 5, "'answers' is not a list of strings but int"),
        ("answers", [["a"]], "'answers' is not a list of strings but list holding list"),
        ("answers", "abc", "'answers' is not a list of strings but str"),
        ("uid", {"a": 1}, "'uid' is not a string but dict"),
        ("answers", ["x", "y", "x"], "'answers' repeats a label"),
    ], ids=["number", "nested-list", "string", "uid-object", "repeated"])
    def test_malformed_prediction_returns_2(self, pipeline, tmp_path, caplog, key, value, message):
        config = copied_run(pipeline, tmp_path)
        path = tmp_path / "dumps" / "predictions.jsonl"
        records = read_jsonl(path)
        records[1][key] = value
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert main(["evaluate", "--config", str(config)]) == 2
        assert f"{path}, line 2: {message}; rerun predict" in caplog.text

    @pytest.mark.parametrize("dump, stage, command", [
        ("subgraphs_test.jsonl", "retrieve", "build-prompts"),
        # Its own id: the generated one shares its first 32 characters with the case above.
        pytest.param("subgraphs_test.jsonl", "retrieve", "build-indicators",
                     id="subgraphs_test.jsonl-build-indicators"),
        ("indicators_train.jsonl", "build-indicators", "train-head"),
        ("indicators_test.jsonl", "build-indicators", "predict"),
        ("predictions.jsonl", "predict", "evaluate"),
    ])
    def test_uid_on_two_lines_returns_2(self, pipeline, tmp_path, caplog, dump, stage, command):
        config = copied_run(pipeline, tmp_path)
        path = tmp_path / "dumps" / dump
        records = read_jsonl(path)
        repeated = dict(records[1])
        if "answers" in repeated:
            repeated["answers"] = []  # would have replaced the first line's ranking
        records.append(repeated)
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert main([command, "--config", str(config)]) == 2
        assert (f"{path}, line {len(records)}: uid {repeated['uid']!r} already on line 2; "
                f"rerun {stage}") in caplog.text

    @pytest.mark.parametrize("error, status", [
        (BrokenPipeError(errno.EPIPE, "Broken pipe"), 0),
        (OSError(errno.ENOSPC, "No space left on device"), 2),
    ], ids=["closed-pipe", "disk-full"])
    def test_report_print_failure(self, pipeline, tmp_path, monkeypatch, caplog, error, status):
        # a reader that stops early (``evaluate | head``) is no failure; any
        # other error writing the report is one
        config = copied_run(pipeline, tmp_path)
        with open(tmp_path / "stdout", "w") as sink:
            class FailingStdout:
                def write(self, text):
                    raise error

                def flush(self):
                    pass

                def fileno(self):
                    return sink.fileno()

            monkeypatch.setattr(sys, "stdout", FailingStdout())
            assert main(["evaluate", "--config", str(config)]) == status
        assert (tmp_path / "dumps" / "report.json").exists()
        assert ("No space left on device" in caplog.text) is (status == 2)

    def test_e2e_parses_the_fact_file_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(path):
            calls.append(path)
            return store.load_tkg(path)

        monkeypatch.setattr(cli, "load_tkg", counted)
        assert main(["e2e", "--config", str(fast_config(tmp_path))]) == 0
        assert calls == [str(DESK / "facts.txt")]

    def test_question_with_empty_evidence_gets_no_answers(self, pipeline, tmp_path):
        config = copied_run(pipeline, tmp_path)
        dumps = tmp_path / "dumps"
        indicators = read_jsonl(dumps / "indicators_test.jsonl")
        uid = indicators[0]["uid"]
        indicators[0]["vector"] = None
        (dumps / "indicators_test.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in indicators), encoding="utf-8")
        assert main(["predict", "--config", str(config)]) == 0
        predictions = {r["uid"]: r["answers"] for r in read_jsonl(dumps / "predictions.jsonl")}
        assert predictions[uid] == []
        assert len(predictions) == 76
        assert all(answers for other, answers in predictions.items() if other != uid)

    def test_label_holding_a_tab_is_rejected(self, tmp_path, caplog):
        # prompts join a question's golds with tabs, so a tab inside a label
        # would read as two answers; the ends of a field are still stripped
        (tmp_path / "facts.txt").write_text(
            "Bo Li\t|position held|Mayor of Oslo|1994|1996\n"
            "Ann\tLee|position held|Mayor of Oslo|1990|1993\n", encoding="utf-8")
        config = fast_config(tmp_path, tkg_path=str(tmp_path / "facts.txt"))
        assert main(["e2e", "--config", str(config)]) == 2
        assert (f"{tmp_path / 'facts.txt'}, line 2: label holds a tab, which separates "
                f"answers in prompts") in caplog.text
        assert not (tmp_path / "dumps").exists()

    def test_braces_in_a_question_and_a_label_render_verbatim(self, tmp_path):
        label, text = "position {held}", "Who held the position of Mayor of Oslo in 1990 {approx}?"
        (tmp_path / "facts.txt").write_text(
            f"Ann Lee|{label}|Mayor of Oslo|1990|1993\n"
            f"Bo Li|{label}|Mayor of Oslo|1994|1996\n", encoding="utf-8")
        for split in ("train", "test"):
            question = {"uid": split, "text": text, "entities": ["Mayor of Oslo"],
                        "times": [1990], "qtype": "simple_entity", "atype": "entity",
                        "answers": ["Ann Lee"]}
            (tmp_path / f"{split}.jsonl").write_text(json.dumps(question) + "\n",
                                                     encoding="utf-8")
        config = fast_config(tmp_path, tkg_path=str(tmp_path / "facts.txt"),
                             questions_train=str(tmp_path / "train.jsonl"),
                             questions_test=str(tmp_path / "test.jsonl"))
        assert main(["retrieve", "--config", str(config)]) == 0
        assert main(["build-prompts", "--config", str(config)]) == 0
        [record] = read_jsonl(tmp_path / "dumps" / "prompts_test.jsonl")
        assert text in record["messages"][0]["content"]
        assert f"[Ann Lee, {label}, Mayor of Oslo, 1990, 1993]" in record["messages"][0]["content"]
        world = store.load_tkg(tmp_path / "facts.txt")
        for bundle in (
            prompts.render_relation_ranking(text, [label], 1),
            prompts.render_time_mining(text, prompts.fact_fields(world, world.facts[0]), "after"),
            prompts.render_instruction(world, text, world.facts),
            prompts.render_baseline(world, text, world.facts),
        ):
            assert text in bundle.text and label in bundle.text
        assert text in prompts.render_baseline(world, text).text

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
        ("head_learning_rate", -0.5), ("tgnn_max_steps", -1), ("seed", -1),
    ])
    def test_negative_stage_override_returns_2(self, tmp_path, caplog, key, value):
        config = fast_config(tmp_path, **{key: value})
        assert main(["pretrain-tgnn", "--config", str(config)]) == 2
        assert f"{key} must be >= 0" in caplog.text

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["NaN", "Infinity"])
    @pytest.mark.parametrize("key", ["base_learning_rate", "tgnn_learning_rate",
                                     "head_learning_rate"])
    def test_non_finite_learning_rate_returns_2(self, tmp_path, caplog, key, value):
        # json writes these as the bare words NaN and Infinity, and reads them back
        config = fast_config(tmp_path, **{key: value})
        assert main(["build-kg", "--config", str(config)]) == 2
        assert f"{config}: {key} must be >= 0 and finite" in caplog.text

    @pytest.mark.parametrize("key, value", [
        ("d", "32"), ("batch_size", None), ("d", 32.5), ("seed", "0"), ("tkg_path", 5),
        # an int or float key takes no bool, and only a key whose default is None takes null
        ("d", True), ("head_learning_rate", True), ("head_learning_rate", "0.1"),
        ("model", None),
        ("tgnn_epochs", None), ("dump_dir", ["out"]),
    ])
    def test_config_value_of_wrong_type_returns_2(self, tmp_path, caplog, key, value):
        config = fast_config(tmp_path, **{key: value})
        assert main(["pretrain-base", "--config", str(config)]) == 2
        assert f"{config}: {key!r} is not " in caplog.text

    def test_two_config_values_of_wrong_type_are_both_named(self, tmp_path, caplog):
        config = fast_config(tmp_path, seed="0", head_learning_rate=True)
        assert main(["pretrain-base", "--config", str(config)]) == 2
        assert (f"{config}: 'seed' is not an integer but str; 'head_learning_rate' is not a "
                f"number but bool") in caplog.text

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
        assert f"{binary}: not UTF-8 text (invalid start byte at byte 0)" in caplog.text

    def test_config_nested_too_deeply_returns_2(self, tmp_path, caplog):
        path = tmp_path / "nested.json"
        path.write_bytes(DEEPLY_NESTED)
        assert main(["e2e", "--config", str(path)]) == 2
        assert f"{path}: not valid JSON (nested too deeply)" in caplog.text

    def test_missing_facts_file_returns_2(self, tmp_path):
        config = fast_config(tmp_path, tkg_path=str(tmp_path / "nowhere.txt"))
        assert main(["build-kg", "--config", str(config)]) == 2

    @pytest.mark.parametrize("edit, message", [
        (lambda line: b"5", "line 3: record is not a JSON object"),
        (lambda line: json.dumps(list(json.loads(line))).encode(),
         "line 3: record is not a JSON object"),
        (lambda line: json.dumps({**json.loads(line), "answers": 5}).encode(),
         "line 3: 'answers' is not a list but int"),
        (lambda line: b"\xff" + line, "line 3: not UTF-8 text"),
        (lambda line: DEEPLY_NESTED, "line 3: not valid JSON (nested too deeply)"),
        (lambda line: json.dumps({**json.loads(line), "uid": "q0002"}).encode(),
         "line 3: uid 'q0002' already on line 1"),
        (lambda line: b'{"uid": ' + b"1" * 5000 + b"}",
         "line 3: not valid JSON (Exceeds the limit"),
    ], ids=["number", "list-of-keys", "answers-number", "not-utf8", "nested-too-deeply",
            "repeated-uid", "integer-past-the-digit-limit"])
    def test_malformed_question_file_returns_2(self, tmp_path, caplog, edit, message):
        lines = (DESK / "questions_test.jsonl").read_bytes().splitlines()
        lines[2] = edit(lines[2])
        path = tmp_path / "questions.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        config = fast_config(tmp_path, questions_test=str(path))
        assert main(["build-kg", "--config", str(config)]) == 2
        assert f"{path}, {message}" in caplog.text

    def test_fact_file_that_is_not_utf8_returns_2(self, tmp_path, caplog):
        lines = (DESK / "facts.txt").read_bytes().splitlines()
        lines[2] = b"\xff" + lines[2]
        path = tmp_path / "facts.txt"
        path.write_bytes(b"\n".join(lines) + b"\n")
        config = fast_config(tmp_path, tkg_path=str(path))
        assert main(["build-kg", "--config", str(config)]) == 2
        assert f"{path}: not UTF-8 text" in caplog.text

    def test_failing_endpoint_returns_2_naming_the_question(
        self, tmp_path, caplog, monkeypatch
    ):
        class DownClient:
            def __init__(self, endpoint, model):
                pass

            def send(self, messages):
                raise TransportError("connection refused", attempts=3)

        monkeypatch.setattr(cli, "RemoteLlmClient", DownClient)
        config = fast_config(tmp_path, endpoint="http://localhost:9/v1")
        assert main(["retrieve", "--config", str(config)]) == 2
        first = read_jsonl(DESK / "questions_train.jsonl")[0]["uid"]
        assert f"question {first!r}" in caplog.text
        assert "transport failure" in caplog.text

    def test_failure_on_the_test_split_writes_neither_split(self, tmp_path, caplog, monkeypatch):
        # the train split once was written before the test split was retrieved
        train = read_jsonl(DESK / "questions_train.jsonl")
        failing = read_jsonl(DESK / "questions_test.jsonl")[0]
        assert not any(failing["text"] in q["text"] for q in train)

        class FailsOnTheTestSplit:
            def send(self, messages):
                if any(failing["text"] in m["content"] for m in messages):
                    raise TransportError("connection refused", attempts=3)
                return "n/a"

        monkeypatch.setattr(cli, "_client", lambda cfg: FailsOnTheTestSplit())
        assert main(["retrieve", "--config", str(fast_config(tmp_path))]) == 2
        assert f"question {failing['uid']!r}" in caplog.text
        assert "transport failure" in caplog.text
        assert not (tmp_path / "dumps" / "subgraphs_train.jsonl").exists()

    def test_every_module_error_shares_one_base(self):
        errors = [checkpoint.CheckpointError, cli.CliError, config.ConfigError,
                  embeddings.EmbeddingError, evaluation.EvaluationError,
                  head.HeadError, indicators.IndicatorError, llm.TransportError,
                  prompts.PromptError, retrieval.RetrievalError, store.StoreError,
                  tgnn.TgnnError]
        assert all(issubclass(error, TempkgqaError) for error in errors)

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_removed_jobs_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["e2e", "--jobs", "2"])
        assert caught.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_removed_oracle_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["e2e", "--oracle"])
        assert caught.value.code == 2
        assert "--oracle" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("oracle", True), ("max_facts", 10)])
    def test_removed_setting_returns_2(self, tmp_path, caplog, key, value):
        config = fast_config(tmp_path, **{key: value})
        assert main(["build-kg", "--config", str(config)]) == 2
        assert f"{config}: unknown config keys [{key!r}]" in caplog.text

    def test_config_echo_logged(self, tmp_path, caplog):
        config = fast_config(tmp_path)
        with caplog.at_level("INFO"):
            main(["build-kg", "--config", str(config)])
        assert "resolved config" in caplog.text
        assert '"d": 8' in caplog.text


class TestClient:
    def test_no_endpoint_builds_no_client(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an offline run built a client")

        monkeypatch.setattr(cli, "RemoteLlmClient", refuse)
        config = fast_config(tmp_path)
        assert main(["retrieve", "--config", str(config)]) == 0
        for split in cli.SPLITS:
            records = read_jsonl(tmp_path / "dumps" / f"subgraphs_{split}.jsonl")
            assert len(records) == 76
            for record in records:
                assert record["fallback_relation"] is False, record["uid"]
                assert record["fallback_time"] is False, record["uid"]

    def test_endpoint_receives_the_configured_model(self, tmp_path, monkeypatch):
        posts = fake_endpoint(monkeypatch, "[]")
        config = fast_config(tmp_path, endpoint="http://localhost:9/v1", model="m-test")
        assert main(["retrieve", "--config", str(config)]) == 0
        assert posts
        assert {url for url, _ in posts} == {"http://localhost:9/v1"}
        assert {body["model"] for _, body in posts} == {"m-test"}

    def test_unusable_replies_take_the_offline_answers_and_flag_them(
        self, tmp_path, monkeypatch
    ):
        offline, online = tmp_path / "offline", tmp_path / "online"
        offline.mkdir()
        online.mkdir()
        assert main(["retrieve", "--config", str(fast_config(offline))]) == 0
        posts = fake_endpoint(monkeypatch, "n/a")
        config = fast_config(online, endpoint="http://localhost:9/v1")
        assert main(["retrieve", "--config", str(config)]) == 0
        # one ranking prompt per question, one mining prompt per question of
        # an anchored type whose text names no year
        assert len(posts) == 208
        for split in cli.SPLITS:
            asked = read_jsonl(online / "dumps" / f"subgraphs_{split}.jsonl")
            answered = read_jsonl(offline / "dumps" / f"subgraphs_{split}.jsonl")
            assert len(asked) == len(answered) == 76
            assert all(r["fallback_relation"] for r in asked)
            assert sum(r["fallback_time"] for r in asked) == 28
            for got, want in zip(asked, answered):
                assert got["uid"] == want["uid"]
                for key in ("relations", "constraint", "facts"):
                    assert got[key] == want[key], (got["uid"], key)

    @pytest.mark.parametrize("content", [None, [{"type": "text", "text": "['x']"}]],
                             ids=["null", "list-of-parts"])
    def test_completion_that_is_not_text_returns_2_naming_the_question(
        self, tmp_path, caplog, monkeypatch, content
    ):
        posts = fake_endpoint(monkeypatch, content)
        config = fast_config(tmp_path, endpoint="http://localhost:9/v1")
        assert main(["retrieve", "--config", str(config)]) == 2
        assert len(posts) == 1  # a malformed payload is not retried
        first = read_jsonl(DESK / "questions_train.jsonl")[0]["uid"]
        assert (f"question {first!r}: relation ranking transport failure: "
                "malformed completion payload") in caplog.text


# ---------------------------------------------------------------------------
# every reader, fuzzed through the command line
# ---------------------------------------------------------------------------

#: file of the fuzzed run (its dumps under ``dumps/``) -> the command that reads it
FUZZED_RECORDS = {
    "dumps/subgraphs_train.jsonl": "build-prompts",
    "dumps/subgraphs_test.jsonl": "build-indicators",
    "dumps/indicators_train.jsonl": "train-head",
    "dumps/indicators_test.jsonl": "predict",
    "dumps/predictions.jsonl": "evaluate",
    "questions_test.jsonl": "build-kg",
    "run.json": "build-kg",
}
FUZZED_CHECKPOINTS = {
    "dumps/checkpoints/head.ckpt": "predict",
    "dumps/checkpoints/tgnn.ckpt": "build-indicators",
}
#: the config keys fuzzed: a path key would point the stage at other files
FUZZED_CONFIG_KEYS = sorted(
    {f.name for f in dataclasses.fields(config.RunConfig)} - set(config._PATH_FIELDS))
DELETE = object()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda values: st.lists(values, max_size=3)
    | st.dictionaries(st.text(max_size=4), values, max_size=3),
    max_leaves=4,
)
FUZZ_SETTINGS = settings(max_examples=10, derandomize=True, deadline=None)


class LastError(logging.Handler):
    """Keeps the message of the last error logged."""

    def __init__(self):
        super().__init__(logging.ERROR)
        self.message = None

    def emit(self, record):
        self.message = record.getMessage()


@pytest.fixture(scope="module")
def fuzzed_run(pipeline, tmp_path_factory):
    """``(clean, work)``: ``clean`` holds a copy of the shared run, of the test
    questions, and a config over both with no head epochs, so that
    ``train-head`` costs its set-up only; each example copies it to ``work``,
    where the config points, and mutates the copy."""
    clean, work = tmp_path_factory.mktemp("fuzz-clean"), tmp_path_factory.mktemp("fuzz")
    shutil.copytree(pipeline[0], clean / "dumps")
    shutil.copy(DESK / "questions_test.jsonl", clean / "questions_test.jsonl")
    fast_config(work, head_epochs=0, questions_test=str(work / "questions_test.jsonl"))
    shutil.move(work / "run.json", clean / "run.json")
    return clean, work


def run_fuzzed(fuzzed_run, file, command, mutate):
    """Run ``command`` on a fresh copy of the fuzzed run whose ``file``
    ``mutate`` rewrote: it must exit 0 or 2, and an exit 2 must name the file."""
    clean, work = fuzzed_run
    shutil.copytree(clean, work, dirs_exist_ok=True)
    path = work / file
    path.write_bytes(mutate(path.read_bytes()))
    errors = LastError()
    logger = logging.getLogger("tempkgqa")
    logger.addHandler(errors)
    try:
        status = main([command, "--config", str(work / "run.json")])
    finally:
        logger.removeHandler(errors)
    assert status in (0, 2)
    if status == 2:
        assert str(path) in errors.message


class TestFuzzedReaders:
    @pytest.mark.parametrize("file, command", FUZZED_RECORDS.items())
    @FUZZ_SETTINGS
    @given(data=st.data())
    def test_one_field_of_one_record(self, fuzzed_run, file, command, data):
        def mutate(raw):
            lines = raw.splitlines()
            line = data.draw(st.integers(0, len(lines) - 1), label="line")
            record = json.loads(lines[line])
            keys = FUZZED_CONFIG_KEYS if file == "run.json" else sorted(record)
            key = data.draw(st.sampled_from(keys), label="key")
            value = data.draw(st.just(DELETE) | JSON_VALUES, label="value")
            if value is DELETE:
                record.pop(key, None)
            else:
                record[key] = value
            lines[line] = json.dumps(record).encode()
            return b"\n".join(lines) + b"\n"

        run_fuzzed(fuzzed_run, file, command, mutate)

    @pytest.mark.parametrize("file, command", FUZZED_CHECKPOINTS.items())
    @FUZZ_SETTINGS
    @given(data=st.data())
    def test_checkpoint_bytes(self, fuzzed_run, file, command, data):
        def mutate(raw):
            at = data.draw(st.integers(0, len(raw) - 1), label="at")
            if data.draw(st.booleans(), label="truncate"):
                return raw[:at]
            replaced = data.draw(st.binary(min_size=1, max_size=4), label="bytes")
            return raw[:at] + replaced + raw[at + 1:]

        run_fuzzed(fuzzed_run, file, command, mutate)
