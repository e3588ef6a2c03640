"""Benchmark worker: runs one workload in this process, checks the outputs
and writes the result object to ``--result``.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``
and the BLAS thread count pinned; see README.md for the workloads, the
metrics and the correctness checks.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from tempkgqa import checkpoint, cli, embeddings, retrieval, store, tgnn
from tracing import LAYER_FUNCTIONS, Tracer, p99

ROOT = Path(__file__).resolve().parent.parent
DESK_CONFIG = ROOT / "configs" / "desk.json"
DESK_DATA = ROOT / "data" / "desk"

TOP_K, MAX_FACTS = 1, 10            # the desk config's retrieval budget
PRETRAIN_D = 32                     # the desk config's encoder width
BASE_FACTS = 512                    # facts per pretrain_base round, a multiple of BATCH
TGNN_STEPS = 16                     # tgnn.pretrain update steps per round
BATCH = 8
BASE_LR, TGNN_LR = 0.3, 0.2         # the desk config's stage learning rates
PROBE_HEAD_EPOCHS = 15
GRAD_TOLERANCE = 1e-4               # acceptance test 01
DESK_SETUP_REPEATS, LARGE_SETUP_REPEATS = 25, 3

SIMPLE = {"simple_entity", "simple_time"}
COMPLEX = {"before_after", "first_last", "time_join"}


@dataclass
class Outcome:
    """What one workload measured; times in seconds."""

    setup: list[float]
    rounds: list[float]
    ops_per_round: float
    attempted: int
    failed: int
    artifact_bytes: int
    peak_rss_mb: float
    problems: list[str] = field(default_factory=list)
    ops_seconds: list[float] | None = None  # when ops are timed apart from rounds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def timed(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def repeat_for(seconds: float, body: Callable[[], None]) -> list[float]:
    """Run whole rounds of ``body`` until ``seconds`` have passed (at least one)."""
    durations: list[float] = []
    started = time.perf_counter()
    while not durations or time.perf_counter() - started < seconds:
        durations.append(timed(body))
    return durations


def fresh_dirs(parent: Path):
    """New output directories ``parent/0``, ``parent/1``, ...  Rewriting a
    just-written file instead makes ext4 flush it to disk on truncation, and
    the round would time the disk rather than the program."""
    for index in itertools.count():
        path = parent / str(index)
        path.mkdir(parents=True)
        yield path


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def load_world(inputs: Path):
    world = store.load_tkg(inputs / "facts.txt")
    train = store.load_questions(inputs / "questions_train.jsonl", world)
    test = store.load_questions(inputs / "questions_test.jsonl", world)
    return world, train, test


def timed_setup(inputs: Path, repeats: int):
    """Set-up times of ``repeats`` loads, and the world of the last one."""
    times, world = [], None
    for _ in range(repeats):
        world = None  # drop the previous copy before loading the next
        start = time.perf_counter()
        world = load_world(inputs)
        times.append(time.perf_counter() - start)
    return times, world


# ---------------------------------------------------------------------------
# desk: the shipped end-to-end run
# ---------------------------------------------------------------------------

def check_desk(dump: Path) -> list[str]:
    """Quality thresholds of acceptance test 07, Hits@K recomputed without
    ``tempkgqa.evaluation``, and gold answers inside the retrieved facts."""
    problems = []
    report = json.loads((dump / "report.json").read_text(encoding="utf-8"))
    if report["by_group"]["simple"]["1"] < 0.90:
        problems.append(f"desk simple Hits@1 {report['by_group']['simple']['1']} < 0.90")
    if report["overall"]["10"] < 0.95:
        problems.append(f"desk overall Hits@10 {report['overall']['10']} < 0.95")

    questions = read_jsonl(DESK_DATA / "questions_test.jsonl")
    predicted = {r["uid"]: r["answers"] for r in read_jsonl(dump / "predictions.jsonl")}
    ranks: dict[str, list[int | None]] = {"overall": [], "simple": [], "complex": []}
    for q in questions:
        gold = set(q["answers"])
        rank = next((i for i, label in enumerate(predicted.get(q["uid"], []), 1)
                     if label in gold), None)
        group = "simple" if q["qtype"] in SIMPLE else "complex" if q["qtype"] in COMPLEX else None
        for key in ("overall", group):
            if key is not None:
                ranks[key].append(rank)
    expected = {"overall": report["overall"], **report["by_group"]}
    for key, values in ranks.items():
        if not values:
            continue
        for k in (1, 10):
            hits = sum(1 for r in values if r is not None and r <= k) / len(values)
            if expected.get(key, {}).get(str(k)) != hits:
                problems.append(f"desk {key} Hits@{k}: report {expected.get(key)} vs {hits}")

    evidence = {r["uid"]: r["facts"] for r in read_jsonl(dump / "subgraphs_test.jsonl")}
    for q in questions:
        fields = [f.split("|") for f in evidence.get(q["uid"], [])]
        cols = (3, 4) if q["atype"] == "time" else (0, 2)
        present = {f[c] for f in fields for c in cols}
        if not set(q["answers"]) <= present:
            problems.append(f"desk {q['uid']}: gold {q['answers']} not in retrieved facts")
    return problems


def run_desk(args, work: Path, tracer: Tracer) -> Outcome:
    setup, _ = timed_setup(DESK_DATA, DESK_SETUP_REPEATS)
    head_epochs = json.loads(DESK_CONFIG.read_text(encoding="utf-8"))["head_epochs"]
    problems: list[str] = []
    dumps = fresh_dirs(work / "desk")
    written: list[Path] = []

    def e2e() -> None:
        dump = next(dumps)
        code = cli.main(["e2e", "--config", str(DESK_CONFIG), "--dump-dir", str(dump)])
        if code == 0:
            written.append(dump)
        else:
            problems.append(f"desk e2e exited with {code}")

    rounds = measure(args, tracer, e2e)
    rss = peak_rss_mb()
    for dump in written:
        problems.extend(check_desk(dump))
    examples = artifact = 0
    if written:
        examples = len(read_jsonl(written[-1] / "indicators_train.jsonl"))
        artifact = tree_bytes(written[-1])
    stages = [f"cli.{stage}" for stage in cli.STAGES]
    attempted = len(stages) * len(rounds)
    completed = sum(len(tracer.durations(s)) - tracer.failed(s) for s in stages)
    return Outcome(setup, rounds, examples * head_epochs, attempted, attempted - completed,
                   artifact, rss, problems, ops_seconds=tracer.durations("cli.train-head"))


# ---------------------------------------------------------------------------
# retrieve-large: oracle retrieval over the generated power-law KG
# ---------------------------------------------------------------------------

class FactTable:
    """The benchmark's own parse of a fact file, independent of ``tempkgqa.store``."""

    def __init__(self, path: Path) -> None:
        self.lines = path.read_text(encoding="utf-8").splitlines()
        fields = [line.split("|") for line in self.lines]
        self.entity_id: dict[str, int] = {}
        self.relation_id: dict[str, int] = {}
        intern = lambda table, label: table.setdefault(label, len(table))
        self.subject = np.array([intern(self.entity_id, f[0]) for f in fields])
        self.relation = np.array([intern(self.relation_id, f[1]) for f in fields])
        self.object = np.array([intern(self.entity_id, f[2]) for f in fields])
        self.start = np.array([int(f[3]) for f in fields])
        self.end = np.array([int(f[4]) for f in fields])
        # entity -> incident rows, as offsets into one row array
        owners = np.concatenate([self.subject, self.object])
        rows = np.tile(np.arange(len(fields)), 2)
        keep = np.concatenate([np.ones(len(fields), bool), self.object != self.subject])
        owners, rows = owners[keep], rows[keep]
        order = np.argsort(owners, kind="stable")
        self.rows = rows[order]
        self.offsets = np.searchsorted(owners[order], np.arange(len(self.entity_id) + 1))

    def incident(self, labels: list[str]) -> np.ndarray:
        ids = [self.entity_id[label] for label in labels]
        return np.unique(np.concatenate(
            [self.rows[self.offsets[i]:self.offsets[i + 1]] for i in ids]))


def admitted(facts: FactTable, rows: np.ndarray, constraint: dict) -> np.ndarray:
    start, end = facts.start[rows], facts.end[rows]
    kind, t1, t2 = constraint["kind"], constraint.get("t1"), constraint.get("t2")
    if kind == "at":
        return (start <= t1) & (t1 <= end)
    if kind == "before":
        return start < t1
    if kind == "after":
        return end > t1
    if kind == "between":
        return np.maximum(start, t1) <= np.minimum(end, t2)
    return np.ones(len(rows), bool)


def check_retrieval(inputs: Path, dump: Path) -> list[str]:
    """Every record against a scan of the incident facts of our own parse."""
    problems = []
    facts = FactTable(inputs / "facts.txt")
    for split in ("train", "test"):
        records = {r["uid"]: r for r in read_jsonl(dump / f"subgraphs_{split}.jsonl")}
        questions = read_jsonl(inputs / f"questions_{split}.jsonl")
        if set(records) != {q["uid"] for q in questions}:
            problems.append(f"{split}: records do not match the questions")
            continue
        for q in questions:
            record = records[q["uid"]]
            rows = facts.incident(q["entities"])
            incident_relations = set(facts.relation[rows].tolist())
            wanted = {facts.relation_id.get(label, -1) for label in record["relations"]}
            if not wanted <= incident_relations:
                problems.append(f"{q['uid']}: relation not incident to an annotated entity")
            rows = rows[np.isin(facts.relation[rows], list(wanted))]
            rows = rows[admitted(facts, rows, record["constraint"])]
            rows = rows[np.lexsort((rows, facts.end[rows], facts.start[rows]))][:MAX_FACTS]
            if record["facts"] != [facts.lines[i] for i in rows]:
                problems.append(f"{q['uid']}: facts differ from the brute-force scan")
            if len(problems) > 20:
                return problems
    return problems


def run_retrieve(args, work: Path, tracer: Tracer) -> Outcome:
    inputs = work / "inputs"
    setup, (world, *splits) = timed_setup(inputs, LARGE_SETUP_REPEATS)
    dumps = fresh_dirs(work / "dump")
    failed: Counter[str] = Counter()
    last: list[Path] = []

    def one_pass() -> None:
        out = next(dumps)
        for split, questions in zip(cli.SPLITS, splits):
            records = []
            for question in questions:
                try:
                    subgraph = retrieval.retrieve_question(
                        world, question, None, top_k=TOP_K, max_facts=MAX_FACTS, oracle=True)
                except (retrieval.RetrievalError, store.StoreError):
                    failed[tracer.phase] += 1
                    continue
                records.append(retrieval.subgraph_record(world, subgraph))
            lines = [json.dumps(r, ensure_ascii=False) for r in records]
            (out / f"subgraphs_{split}.jsonl").write_text(
                "\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
        last[:] = [out]

    rounds = measure(args, tracer, one_pass)
    rss = peak_rss_mb()
    n_questions = sum(len(s) for s in splits)
    return Outcome(setup, rounds, n_questions, n_questions * len(rounds), failed["workload"],
                   tree_bytes(last[0]), rss, check_retrieval(inputs, last[0]))


# ---------------------------------------------------------------------------
# pretrain-large: fixed update steps of both pre-trainers at full vocabulary
# ---------------------------------------------------------------------------

def directional_error(loss: Callable[[], float], arrays: list[np.ndarray],
                      grads: list[np.ndarray], rng: np.random.Generator,
                      h: float = 1e-4) -> float:
    """Relative gap between ``<grad, v>`` and the central difference of
    ``loss`` along ``v`` (the normalised gradient plus a random unit vector)."""
    norm = math.sqrt(sum(float(np.vdot(g, g)) for g in grads)) or 1.0
    noise = [rng.standard_normal(a.shape) for a in arrays]
    noise_norm = math.sqrt(sum(float(np.vdot(r, r)) for r in noise))
    direction = [g / norm + r / noise_norm for g, r in zip(grads, noise)]
    saved = [a.copy() for a in arrays]
    for a, v in zip(arrays, direction):
        a += h * v
    upper = loss()
    for a, s, v in zip(arrays, saved, direction):
        np.copyto(a, s)
        a -= h * v
    lower = loss()
    for a, s in zip(arrays, saved):
        np.copyto(a, s)
    numeric = (upper - lower) / (2 * h)
    analytic = sum(float(np.vdot(g, v)) for g, v in zip(grads, direction))
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)


def check_gradients(world, table0, params0, subset, seed: int) -> list[str]:
    problems = []
    rng = np.random.default_rng(seed)
    table = table0.copy()
    batch = [world.facts[i] for i in subset[:BATCH]]
    _, grads = embeddings.base_loss_and_grads(table, batch)
    error = directional_error(
        lambda: embeddings.base_loss_and_grads(table, batch)[0],
        [table.entity, table.relation, table.time],
        [grads.entity, grads.relation, grads.time], rng)
    if not error < GRAD_TOLERANCE:
        problems.append(f"base_loss_and_grads directional error {error:.2e}")
    params = params0.copy()
    for mask_object in (True, False):
        query, target = tgnn.build_query_subgraph(
            world, table, world.facts[subset[0]], mask_object, rng)
        _, grads = tgnn.gradients(query, table, params, target)
        names = ("w_msg", "w_query", "w_key", "decoder_w", "decoder_b")
        error = directional_error(
            lambda: tgnn.masked_loss(query, table, params, target),
            [getattr(params, n) for n in names] + [table.entity, table.relation, table.time],
            [getattr(grads, n) for n in names] + [grads.entity, grads.relation, grads.time],
            rng)
        if not error < GRAD_TOLERANCE:
            problems.append(f"tgnn.gradients directional error {error:.2e}")
    return problems


def run_pretrain(args, work: Path, tracer: Tracer) -> Outcome:
    inputs = work / "inputs"
    setup, (world, _, _) = timed_setup(inputs, LARGE_SETUP_REPEATS)
    rng = np.random.default_rng(args.seed)
    subset = np.sort(rng.choice(len(world.facts), size=BASE_FACTS, replace=False)).tolist()
    table0 = embeddings.init_random(
        len(world.entities), len(world.relations), len(world.times), PRETRAIN_D, args.seed)
    params0 = tgnn.init_params(PRETRAIN_D, len(world.entities), args.seed)
    dumps = fresh_dirs(work / "dump")
    losses: list[float] = []
    trained: list = []

    def one_round() -> None:
        trained.clear()  # hold no arrays from the previous round while this one runs
        table, base_losses = embeddings.pretrain_base(
            world, table0, embeddings.BasePretrainConfig(BASE_LR, 1, BATCH, args.seed), subset)
        table, params, tgnn_losses = tgnn.pretrain(
            world, table, params0,
            tgnn.TgnnPretrainConfig(TGNN_LR, 1, BATCH, args.seed, max_steps=TGNN_STEPS),
            subset)
        out = next(dumps)
        checkpoint.save_table(out / "table.ckpt", table)
        checkpoint.save_tgnn(out / "tgnn.ckpt", params)
        checkpoint.load_table(out / "table.ckpt")
        checkpoint.load_tgnn(out / "tgnn.ckpt")
        losses.extend(base_losses + tgnn_losses)
        trained[:] = [table, params, out]

    steps = BASE_FACTS // BATCH + TGNN_STEPS
    rounds = measure(args, tracer, one_round)
    rss = peak_rss_mb()

    problems = [f"non-finite loss {x}" for x in losses if not math.isfinite(x)]
    table, params, last = trained
    table_back = checkpoint.load_table(last / "table.ckpt")
    params_back = checkpoint.load_tgnn(last / "tgnn.ckpt")
    as_f4 = lambda a: np.ascontiguousarray(a, dtype="<f4").tobytes()
    pairs = [(table.entity, table_back.entity), (table.relation, table_back.relation),
             (table.time, table_back.time)] + [
        (getattr(params, n), getattr(params_back, n))
        for n in ("w_msg", "w_query", "w_key", "decoder_w", "decoder_b")]
    if not all(as_f4(a) == as_f4(b) and np.array_equal(b, b.astype("<f4")) for a, b in pairs):
        problems.append("checkpoint round trip is not bit-exact")
    problems.extend(check_gradients(world, table0, params0, subset, args.seed))
    queries = 2 * BASE_FACTS + BATCH * TGNN_STEPS
    return Outcome(setup, rounds, queries, steps * len(rounds), 0,
                   tree_bytes(last), rss, problems)


# ---------------------------------------------------------------------------
# measurement and tracing
# ---------------------------------------------------------------------------

def measure(args, tracer: Tracer, body: Callable[[], None]) -> list[float]:
    """Rounds of ``body`` for ``args.seconds`` under ``tracer``, which
    ``main`` installed before set-up.  A traced run first times one round
    with the tracer taken out, so that the tracing overhead can be reported."""
    if args.trace:
        tracer.uninstall()
        tracer.phase = "untraced"
        tracer.untraced = timed(body)
        tracer.install()
    tracer.phase = "workload"
    try:
        return repeat_for(args.seconds, body)
    finally:
        tracer.uninstall()


def run_probe(work: Path, tracer: Tracer) -> None:
    """A short traced desk run, for the layers the workload never calls."""
    config = json.loads(DESK_CONFIG.read_text(encoding="utf-8"))
    for key in ("tkg_path", "questions_train", "questions_test"):
        config[key] = str((DESK_CONFIG.parent / config[key]).resolve())
    config["head_epochs"] = PROBE_HEAD_EPOCHS
    path = work / "probe.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    tracer.phase = "probe"
    tracer.install()
    try:
        code = cli.main(["e2e", "--config", str(path), "--dump-dir", str(work / "probe")])
    finally:
        tracer.uninstall()
    if code != 0:
        raise RuntimeError(f"probe run exited with {code}")


def evidence_observer(evidence: dict[str, list[tuple[bool, int, bool]]]):
    """Per retrieved subgraph: empty or not, its size, and whether a gold
    answer of the question sits among its facts."""
    def observe(phase: str, args: tuple, subgraph) -> None:
        question = args[1]
        if question.atype is store.AnswerType.TIME:
            fields = [t for f in subgraph.facts for t in (f.t_start, f.t_end)]
        else:
            fields = [e for f in subgraph.facts for e in (f.subject, f.object)]
        hit = not question.gold.isdisjoint(fields)
        evidence.setdefault(phase, []).append((subgraph.empty, len(subgraph.facts), hit))
    return observe


LAYER_TIMES = [  # metric name, span name, statistic, scale to the unit
    *[(f"cli.{stage}_s", f"cli.{stage}", "median", 1.0) for stage in cli.STAGES],
    ("store.load_tkg_s", "store.load_tkg", "median", 1.0),
    ("store.load_questions_s", "store.load_questions", "median", 1.0),
    ("store.facts_filtered_us", "store.facts_filtered", "median", 1e6),
    ("retrieval.retrieve_question_us", "retrieval.retrieve_question", "median", 1e6),
    ("retrieval.retrieve_question_p99_us", "retrieval.retrieve_question", "p99", 1e6),
    ("retrieval.candidate_relations_us", "retrieval.candidate_relations", "median", 1e6),
    ("retrieval.lexical_rank_us", "retrieval.lexical_rank", "median", 1e6),
    ("retrieval.anchor_facts_us", "retrieval.anchor_facts", "median", 1e6),
    ("retrieval.rule_time_us", "retrieval.rule_time", "median", 1e6),
    ("retrieval.retrieve_subgraph_us", "retrieval.retrieve_subgraph", "median", 1e6),
    ("embeddings.base_loss_and_grads_ms", "embeddings.base_loss_and_grads", "median", 1e3),
    ("tgnn.build_query_subgraph_us", "tgnn.build_query_subgraph", "median", 1e6),
    ("tgnn.gradients_ms", "tgnn.gradients", "median", 1e3),
    ("tgnn.pretrain_self_s", "tgnn.pretrain", "self", 1.0),
    ("tgnn.encode_entities_ms", "tgnn.encode_entities", "median", 1e3),
    ("indicators.build_indicators_us", "indicators.build_indicators", "median", 1e6),
    ("prompts.render_instruction_us", "prompts.render_instruction", "median", 1e6),
    ("head.loss_and_grads_ms", "head.loss_and_grads", "median", 1e3),
    ("head.train_self_s", "head.train", "self", 1.0),
    ("head.predict_topk_us", "head.predict_topk", "median", 1e6),
    ("checkpoint.save_table_ms", "checkpoint.save_table", "median", 1e3),
    ("checkpoint.load_table_ms", "checkpoint.load_table", "median", 1e3),
    ("checkpoint.save_tgnn_ms", "checkpoint.save_tgnn", "median", 1e3),
    ("checkpoint.load_tgnn_ms", "checkpoint.load_tgnn", "median", 1e3),
    ("evaluation.build_report_ms", "evaluation.build_report", "median", 1e3),
]

LAYERS = ("cli", *LAYER_FUNCTIONS)


def layer_metrics(tracer: Tracer, evidence: dict, rounds: list[float]) -> dict[str, float]:
    """Per-layer figures from the workload's measured rounds.  A function the
    rounds never call is read from set-up (the loads of the large workloads),
    else from the probe; a layer's self time per round from the rounds, else
    from the probe."""
    spans = {phase: tracer.by_name(phase) for phase in ("workload", "setup", "probe")}
    per_round = {"workload": len(rounds), "probe": 1}
    values: dict[str, float] = {}
    for metric, span, statistic, scale in LAYER_TIMES:
        phase = next(p for p in ("workload", "setup", "probe") if span in spans[p])
        durations, self_times = spans[phase][span]
        samples = self_times if statistic == "self" else durations
        values[metric] = scale * (p99(samples) if statistic == "p99"
                                  else statistics.median(samples))
    for layer in LAYERS:
        own = {p: [t for name, (_, times) in spans[p].items()
                   if name.startswith(f"{layer}.") for t in times]
               for p in ("workload", "probe")}
        phase = "workload" if own["workload"] else "probe"
        values[f"{layer}.self_s"] = sum(own[phase]) / per_round[phase]
    phase = "workload" if evidence.get("workload") else "probe"
    seen = evidence[phase]
    values["retrieval.empty_subgraphs"] = sum(e for e, _, _ in seen) / per_round[phase]
    values["retrieval.evidence_facts_mean"] = sum(n for _, n, _ in seen) / len(seen)
    values["retrieval.evidence_recall"] = sum(h for _, _, h in seen) / len(seen)
    values["trace.overhead_s"] = statistics.median(rounds) - tracer.untraced
    return values


WORKLOADS = {"desk": run_desk, "retrieve-large": run_retrieve, "pretrain-large": run_pretrain}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    tracer = Tracer(stages_only=not args.trace)
    evidence: dict[str, list] = {}
    tracer.observers["retrieval.retrieve_question"] = evidence_observer(evidence)
    tracer.phase = "setup"
    tracer.install()
    outcome = WORKLOADS[args.workload](args, args.work, tracer)
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"perfbench {args.workload}: setup {outcome.setup} rounds {outcome.rounds}",
          file=sys.stderr)

    if args.trace:
        called = {**tracer.by_name("setup"), **tracer.by_name("workload")}
        if any(span not in called for _, span, _, _ in LAYER_TIMES):
            run_probe(args.work, tracer)
        metrics = {name: (value, unit_of(name))
                   for name, value in layer_metrics(tracer, evidence, outcome.rounds).items()}
        if args.spans:
            tracer.write(args.spans)
    else:
        ops_time = statistics.median(outcome.ops_seconds or outcome.rounds)
        metrics = {
            "wall_s": (statistics.median(outcome.rounds), "s"),
            "setup_s": (statistics.median(outcome.setup), "s"),
            "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
            "artifact_mb": (outcome.artifact_bytes / 1e6, "MB"),
            "ops_per_s": (outcome.ops_per_round / ops_time, "1/s"),
        }
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    args.result.write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


def unit_of(metric: str) -> str:
    suffix = metric.rsplit("_", 1)[-1]
    if suffix in ("s", "ms", "us"):
        return suffix
    return "ratio" if metric.endswith("recall") else "count"


if __name__ == "__main__":
    raise SystemExit(main())
