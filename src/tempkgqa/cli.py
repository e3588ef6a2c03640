"""Command line pipeline.

Each subcommand runs one stage (``e2e`` all, in order) and exchanges data
with the others only through the files under ``dump_dir`` that
:data:`WRITES` and :data:`READS` declare.  :func:`run_stage` runs a stage
once its inputs exist, after removing the files it writes, and an error in
one names the stage to rerun.  A failed stage therefore leaves none of its
outputs behind: a training stage whose parameters turn non-finite saves
nothing and names its learning rate.
:func:`main` loads the fact file and the questions once per run and hands
that world to each stage.  All artifacts are deterministic for a fixed
config and seed.

``retrieve`` asks the model at ``endpoint`` to rank relations and mine time
constraints.  Without an endpoint it builds no client, and retrieval's
lexical relation oracle and rule-based time oracle answer, as they do for
any unusable reply.
"""

from __future__ import annotations

import argparse
import base64
import dataclasses
import json
import logging
import math
import os
import sys
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import checkpoint, evaluation, head as head_mod, indicators as ind_mod, tgnn
from .config import ConfigError, RunConfig, TrainSchedule, load_config
from .embeddings import EmbeddingTable, init_random, pretrain_base
from .errors import TempkgqaError
from .llm import RemoteLlmClient
from .prompts import render_instruction
from .retrieval import (RetrievedSubgraph, retrieve_question, subgraph_from_record,
                        subgraph_record)
from .store import AnswerType, Question, TkgStore, load_questions, load_tkg, read_records

log = logging.getLogger("tempkgqa")

PREDICT_DEPTH = 10
TOP_K = 1  # relations retrieval keeps per question
MAX_FACTS = 10  # evidence facts retrieval keeps per question

SPLITS = ("train", "test")
# The artifacts each stage writes, relative to dump_dir; the code names an
# artifact by its file's stem ("head", "subgraphs_test")
WRITES = {
    "build-kg": ("kg.json",),
    "pretrain-base": ("checkpoints/base_table.ckpt", "base_losses.json"),
    "pretrain-tgnn": ("checkpoints/tgnn_table.ckpt", "checkpoints/tgnn.ckpt",
                      "tgnn_losses.json"),
    "retrieve": ("subgraphs_train.jsonl", "subgraphs_test.jsonl"),
    "build-prompts": ("prompts_train.jsonl", "prompts_test.jsonl"),
    "build-indicators": ("indicators_train.jsonl", "indicators_test.jsonl"),
    "train-head": ("checkpoints/head.ckpt", "head_losses.json"),
    "predict": ("predictions.jsonl",),
    "evaluate": ("report.json",),
}
# the artifacts each stage reads, which run_stage requires to exist
READS = {
    "pretrain-tgnn": ("base_table",),
    "build-prompts": ("subgraphs_train", "subgraphs_test"),
    "build-indicators": ("tgnn_table", "tgnn", "subgraphs_train", "subgraphs_test"),
    "train-head": ("indicators_train",),
    "predict": ("head", "indicators_test", "subgraphs_test"),
    "evaluate": ("predictions",),
}
# artifact -> its file and the stage that writes it
ARTIFACTS = {Path(file).stem: (file, stage) for stage, files in WRITES.items() for file in files}
# keys each JSONL dump's readers index, checked when the dump is read
SUBGRAPH_KEYS = ("uid", "relations", "constraint", "facts", "empty")
INDICATOR_KEYS = ("uid", "d", "sub", "rel", "obj", "t_min", "t_max")
PREDICTION_KEYS = ("uid", "answers")


class CliError(TempkgqaError, RuntimeError):
    pass


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def _path(cfg: RunConfig, name: str) -> Path:
    return Path(cfg.dump_dir) / ARTIFACTS[name][0]


def _write_json(path: Path, payload) -> None:
    path.write_text(
        json.dumps(payload, ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
    )
    log.info("wrote %s", path)


def _write_jsonl(path: Path, records) -> None:
    lines = [json.dumps(r, ensure_ascii=False) for r in records]
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    log.info("wrote %s (%d records)", path, len(lines))


def _write_losses(
    cfg: RunConfig, name: str, losses: list[float], epoch_batches: Sequence[int] | None = None,
) -> None:
    """The dump ``name``: its stage's per-epoch losses and whether it
    diverged, that is whether its last epoch's loss per batch is not finite
    or above the first's.  ``epoch_batches`` counts each epoch's batches;
    without it every epoch ran the same number.  A diverged stage logs a
    warning and still succeeds."""
    means = [loss / count for loss, count in zip(losses, epoch_batches or [1] * len(losses))]
    diverged = bool(means) and (not math.isfinite(means[-1]) or means[-1] > means[0])
    _write_json(_path(cfg, name), {"losses": losses, "diverged": diverged})
    stage = ARTIFACTS[name][1]
    log.info("%s epochs: %s", stage, [round(x, 4) for x in losses])
    if diverged:
        log.warning("%s diverged: last epoch loss per batch %s, first %s",
                    stage, means[-1], means[0])


def _read(cfg: RunConfig, name: str, read: Callable, *args, cover: Sequence[Question] = ()):
    """``read(path, *args)`` of the artifact ``name``, which must hold each
    question of ``cover``; an error also names the stage to rerun."""
    path = _path(cfg, name)
    try:
        loaded = read(path, *args)
        missing = [q.uid for q in cover if q.uid not in loaded]
        if missing:
            raise CliError(f"question {missing[0]!r} is missing from {path}")
        return loaded
    except (TempkgqaError, OSError) as exc:
        raise CliError(f"{exc}; rerun {ARTIFACTS[name][1]}") from None


def _require_finite(cfg: RunConfig, learning_rate: str, *arrays: np.ndarray) -> None:
    """Refuse trained parameters holding NaN or infinity before they are saved."""
    if not all(np.isfinite(array).all() for array in arrays):
        raise CliError(f"training made a parameter non-finite (NaN or infinity), so nothing "
                       f"was saved; lower {learning_rate} ({getattr(cfg, learning_rate)})")


def _uid(record: dict) -> str:
    uid = record["uid"]
    if not isinstance(uid, str):
        raise ValueError(f"'uid' is not a string but {type(uid).__name__}")
    return uid


def _encode_vector(vector: np.ndarray) -> str:
    return base64.b64encode(checkpoint.encode_matrix(vector)).decode("ascii")


def _decode_vector(record: dict, key: str, width: int) -> np.ndarray:
    try:
        vector = checkpoint.decode_matrix(base64.b64decode(record[key], validate=True))
    except ValueError as exc:  # binascii.Error is a ValueError
        raise ValueError(f"{key!r} is not a base64 float32 vector ({exc})") from None
    if vector.shape != (width,):
        raise ValueError(f"{key!r} has width {len(vector)}, expected {width}")
    return vector


def _load_sized(path: Path, cfg: RunConfig, store: TkgStore, load: Callable):
    """The table or encoder checkpoint at ``path``, read by ``load``; its
    sizes must match ``cfg.d`` and the store's vocabularies."""
    loaded = load(path)
    found = ({"d": loaded.dim, "entities": len(loaded.entity),
              "relation rows": len(loaded.relation), "times": len(loaded.time)}
             if isinstance(loaded, EmbeddingTable)
             else {"d": loaded.dim, "entities": len(loaded.decoder_b)})
    expected = {"d": cfg.d, "entities": len(store.entities),
                "relation rows": 2 * len(store.relations), "times": len(store.times)}
    wrong = [f"{key} {size}, expected {expected[key]}"
             for key, size in found.items() if size != expected[key]]
    if wrong:
        raise CliError(f"{path}: {', '.join(wrong)} (written for another config or fact file)")
    return loaded


World = tuple[TkgStore, list[Question], list[Question]]  # the store, train and test


def _load_world(cfg: RunConfig) -> World:
    store = load_tkg(cfg.tkg_path)
    return (store, load_questions(cfg.questions_train, store),
            load_questions(cfg.questions_test, store))


def _client(cfg: RunConfig) -> RemoteLlmClient | None:
    """The configured endpoint's client, or none for an offline run."""
    return RemoteLlmClient(cfg.endpoint, model=cfg.model) if cfg.endpoint else None


def answer_space(store: TkgStore) -> tuple[str, ...]:
    """Entity labels first, then time labels; ids index this tuple."""
    return tuple(store.entities.labels) + tuple(store.times.labels)


def gold_answer_ids(store: TkgStore, question: Question) -> list[int]:
    if question.atype is AnswerType.TIME:
        return sorted(len(store.entities) + g for g in question.gold)
    return sorted(question.gold)


def gold_answer_labels(store: TkgStore, question: Question) -> set[str]:
    if question.atype is AnswerType.TIME:
        return {store.times.label(g) for g in question.gold}
    return {store.entities.label(g) for g in question.gold}


def _answer_text(store: TkgStore, question: Question) -> str:
    return "\t".join(sorted(gold_answer_labels(store, question)))


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def stage_build_kg(cfg: RunConfig, world: World) -> None:
    store, train, test = world
    def histogram(questions: Sequence[Question]) -> dict[str, int]:
        counts: dict[str, int] = {}
        for q in questions:
            counts[q.qtype.value] = counts.get(q.qtype.value, 0) + 1
        return dict(sorted(counts.items()))
    _write_json(_path(cfg, "kg"), {
        "entities": len(store.entities),
        "relations": len(store.relations),
        "times": len(store.times),
        "facts": len(store.facts),
        "questions_train": len(train),
        "questions_test": len(test),
        "train_types": histogram(train),
        "test_types": histogram(test),
    })


def stage_pretrain_base(cfg: RunConfig, world: World) -> None:
    store, _, _ = world
    table = init_random(
        len(store.entities), len(store.relations), len(store.times), cfg.d, cfg.seed
    )
    schedule = TrainSchedule(cfg.base_learning_rate, cfg.base_epochs, cfg.batch_size, cfg.seed)
    trained, losses = pretrain_base(store, table, schedule)
    _require_finite(cfg, "base_learning_rate", trained.entity, trained.relation, trained.time)
    checkpoint.save_table(_path(cfg, "base_table"), trained)
    _write_losses(cfg, "base_losses", losses)


def stage_pretrain_tgnn(cfg: RunConfig, world: World) -> None:
    store, _, _ = world
    table = _read(cfg, "base_table", _load_sized, cfg, store, checkpoint.load_table)
    params = tgnn.init_params(cfg.d, len(store.entities), cfg.seed)
    schedule = TrainSchedule(cfg.tgnn_learning_rate, cfg.tgnn_epochs, cfg.batch_size, cfg.seed,
                             cfg.tgnn_max_steps)
    table, params, losses = tgnn.pretrain(store, table, params, schedule)
    _require_finite(cfg, "tgnn_learning_rate", table.entity, table.relation, table.time,
                    *vars(params).values())
    checkpoint.save_table(_path(cfg, "tgnn_table"), table)
    checkpoint.save_tgnn(_path(cfg, "tgnn"), params)
    _write_losses(cfg, "tgnn_losses", losses, schedule.epoch_batches(2 * len(store.facts)))


def stage_retrieve(cfg: RunConfig, world: World) -> None:
    store, train, test = world
    client = _client(cfg)
    for split, questions in zip(SPLITS, (train, test)):
        records = [
            subgraph_record(store, retrieve_question(
                store, question, client, top_k=TOP_K, max_facts=MAX_FACTS))
            for question in questions
        ]
        empties = sum(1 for r in records if r["empty"])
        if empties:
            log.warning("%s split: %d empty subgraphs", split, empties)
        _write_jsonl(_path(cfg, f"subgraphs_{split}"), records)


def _read_subgraphs(
    cfg: RunConfig, store: TkgStore, split: str, cover: Sequence[Question] = ()
) -> dict[str, RetrievedSubgraph]:
    return _read(cfg, f"subgraphs_{split}", read_records, SUBGRAPH_KEYS,
                 lambda record: (_uid(record), subgraph_from_record(store, record)),
                 cover=cover)


def stage_build_prompts(cfg: RunConfig, world: World) -> None:
    store, train, test = world
    # both splits are read and checked before either output is written
    read = [(split, questions, _read_subgraphs(cfg, store, split, questions))
            for split, questions in zip(SPLITS, (train, test))]
    for split, questions, subgraphs in read:
        records = []
        for question in questions:
            subgraph = subgraphs[question.uid]
            answer = _answer_text(store, question) if split == "train" else None
            bundle = render_instruction(store, question.text, subgraph.facts, answer)
            records.append({
                "uid": question.uid,
                "template_id": bundle.template_id,
                "messages": [dict(m) for m in bundle.messages],
            })
        _write_jsonl(_path(cfg, f"prompts_{split}"), records)


def stage_build_indicators(cfg: RunConfig, world: World) -> None:
    store, _, _ = world
    table = _read(cfg, "tgnn_table", _load_sized, cfg, store, checkpoint.load_table)
    params = _read(cfg, "tgnn", _load_sized, cfg, store, checkpoint.load_tgnn)
    # both splits are read and checked before either output is written
    read = {split: _read_subgraphs(cfg, store, split) for split in SPLITS}
    for split, subgraphs in read.items():
        records = []
        for subgraph in subgraphs.values():
            if subgraph.empty:
                continue
            encoded = tgnn.encode_entities(subgraph.facts, table, params)
            built = ind_mod.build_indicators(subgraph, encoded, table)
            records.append({
                "uid": subgraph.uid,
                "d": cfg.d,
                "sub": _encode_vector(built.sub_vec),
                "rel": _encode_vector(built.rel_vec),
                "obj": _encode_vector(built.obj_vec),
                "t_min": store.times.label(built.t_min),
                "t_max": store.times.label(built.t_max),
            })
        _write_jsonl(_path(cfg, f"indicators_{split}"), records)


def _indicator_sets(
    cfg: RunConfig, store: TkgStore, split: str, cover: Sequence[Question] = ()
) -> dict[str, ind_mod.IndicatorSet]:
    """Rebuild the encoder-width indicator sets of a split from its dump."""
    def convert(record: dict) -> tuple[str, ind_mod.IndicatorSet]:
        if record["d"] != cfg.d:
            raise ValueError(f"indicator width {record['d']} does not match config d {cfg.d}")
        return _uid(record), ind_mod.IndicatorSet(
            sub_vec=_decode_vector(record, "sub", cfg.d),
            rel_vec=_decode_vector(record, "rel", cfg.d),
            obj_vec=_decode_vector(record, "obj", cfg.d),
            t_min=store.times.id(record["t_min"]),
            t_max=store.times.id(record["t_max"]),
        )

    return _read(cfg, f"indicators_{split}", read_records, INDICATOR_KEYS, convert, cover=cover)


def stage_train_head(cfg: RunConfig, world: World) -> None:
    store, train, _ = world
    projection = ind_mod.init_projection(cfg.d, cfg.d_llm, cfg.seed)
    indicator_sets = _indicator_sets(cfg, store, "train")
    params = head_mod.init_head(
        (q.text for q in train), answer_space(store), cfg.d_llm, cfg.seed
    )
    dataset: list[head_mod.TrainExample] = []
    skipped = 0
    for question in train:
        built = indicator_sets.get(question.uid)
        if built is None:
            skipped += 1
            continue
        dataset.append(((built, question.text), gold_answer_ids(store, question)))
    if skipped:
        log.warning("skipping %d training questions without evidence", skipped)

    schedule = TrainSchedule(cfg.head_learning_rate, cfg.head_epochs, cfg.batch_size, cfg.seed)
    params, projection, losses = head_mod.train(dataset, params, projection, schedule)
    _require_finite(cfg, "head_learning_rate", params.token_emb, params.scoring,
                    projection.weight)
    checkpoint.save_head(_path(cfg, "head"), params, projection)
    _write_losses(cfg, "head_losses", losses)


def stage_predict(cfg: RunConfig, world: World) -> None:
    store, _, test = world
    params, projection = _read(cfg, "head", checkpoint.load_head)
    # build-indicators skips exactly the questions with empty evidence; those
    # get an empty answer list, any other gap is a stale dump.
    empty = _read(cfg, "subgraphs_test", read_records, SUBGRAPH_KEYS,
                  lambda record: (_uid(record), record["empty"]))
    indicator_sets = _indicator_sets(cfg, store, "test",
                                     [q for q in test if not empty.get(q.uid)])
    answered = [q for q in test if q.uid in indicator_sets]
    examples = [(indicator_sets[q.uid], q.text) for q in answered]
    ranked = dict(zip(
        (q.uid for q in answered),
        head_mod.predict_topk(examples, params, projection, PREDICT_DEPTH),
    ))
    # an entity and a time can share a label; rank_of rejects repeats
    records = [{"uid": q.uid, "answers": list(dict.fromkeys(ranked.get(q.uid, [])))}
               for q in test]
    _write_jsonl(_path(cfg, "predictions"), records)


def _prediction(record: dict) -> tuple[str, list[str]]:
    """A predictions record's uid and its answers, distinct strings."""
    uid, answers = _uid(record), record["answers"]
    if not isinstance(answers, list) or not all(isinstance(a, str) for a in answers):
        raise ValueError("'answers' is not a list of strings")
    if len(set(answers)) != len(answers):
        raise ValueError("'answers' repeats a label")
    return uid, answers


def stage_evaluate(cfg: RunConfig, world: World) -> None:
    store, _, test = world
    predictions = _read(cfg, "predictions", read_records, PREDICTION_KEYS, _prediction)
    records = []
    for question in test:
        rank = evaluation.rank_of(
            predictions.get(question.uid, []), gold_answer_labels(store, question)
        )
        records.append(
            evaluation.RankRecord(question.uid, question.qtype.value, question.atype.value, rank)
        )
    report = evaluation.build_report(records)
    _write_json(_path(cfg, "report"), evaluation.report_payload(report))
    try:
        print(evaluation.render_report(report), flush=True)
    except BrokenPipeError:
        # The reader closed the pipe early (``| head``), which is no failure.
        # Point stdout at the null device, so the flush at exit stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


STAGES = {
    "build-kg": stage_build_kg,
    "pretrain-base": stage_pretrain_base,
    "pretrain-tgnn": stage_pretrain_tgnn,
    "retrieve": stage_retrieve,
    "build-prompts": stage_build_prompts,
    "build-indicators": stage_build_indicators,
    "train-head": stage_train_head,
    "predict": stage_predict,
    "evaluate": stage_evaluate,
}


def run_stage(name: str, cfg: RunConfig, world: World) -> None:
    """Run ``STAGES[name]``, looked up at this call, once the artifacts it
    reads exist.  The files it writes are removed first, so a stage that
    fails leaves none of an earlier run's outputs for a later stage to read."""
    for artifact in READS.get(name, ()):
        path = _path(cfg, artifact)
        if not path.exists():
            raise CliError(f"missing artifact {path}; run {ARTIFACTS[artifact][1]} first")
    for file in WRITES[name]:
        path = Path(cfg.dump_dir, file)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.unlink(missing_ok=True)
    log.info("stage %s", name)
    STAGES[name](cfg, world)


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tempkgqa",
        description="Temporal knowledge graph question answering pipeline.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run config")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--endpoint", help="chat completion endpoint URL")
    common.add_argument("--model", help="model name sent to the endpoint")
    common.add_argument("--dump-dir", help="artifact directory (checkpoints go under it)")
    common.add_argument("-v", "--verbose", action="store_true")

    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in list(STAGES) + ["e2e"]:
        subparsers.add_parser(name, parents=[common])
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides: dict[str, object] = {}
    for name in ("seed", "endpoint", "model", "dump_dir"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    cfg = dataclasses.replace(cfg, **overrides)
    cfg.validate()
    return cfg


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        log.error("%s", exc)
        return 2
    log.info("resolved config: %s", json.dumps(cfg.resolved(), ensure_ascii=False))
    try:
        world = _load_world(cfg)
        for name in STAGES if args.command == "e2e" else [args.command]:
            run_stage(name, cfg, world)
    except (TempkgqaError, OSError) as exc:
        log.error("%s", exc)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
