"""End-to-end acceptance checks.

Each test certifies one shipped guarantee of the pipeline at its stated
tolerance: gradient fidelity of the analytic backward passes, softmax laws
of the graph encoder, pre-training signal on the patterned fixture,
equivalence of indexed retrieval with a brute-force filter, the reference
constraint demonstrations, prompt byte-exactness, desk-scale answer
quality, evaluation arithmetic, and bit-level determinism of the pipeline.
"""

import json
import time

import numpy as np
import pytest

from tempkgqa.cli import main
from tempkgqa.embeddings import init_random
from tempkgqa.evaluation import RankRecord, build_report, hits_at_k
from tempkgqa.head import init_head, loss_and_grads
from tempkgqa.indicators import IndicatorSet, init_projection
from tempkgqa.prompts import (
    fact_fields,
    render_baseline,
    render_instruction,
    render_relation_ranking,
    render_time_mining,
)
from tempkgqa.retrieval import (
    ConstraintKind,
    anchor_facts,
    candidate_relations,
    lexical_rank,
    retrieve_question,
    retrieve_subgraph,
    rule_time,
)
from tempkgqa.store import AnswerType, Question, QuestionType
from tempkgqa.synthetic import retrieval_stress
from tempkgqa.tgnn import (
    MASK,
    SubgraphBatch,
    TgnnPretrainConfig,
    attention_weights,
    evaluate_masked,
    gradients,
    init_params,
    mask_predict,
    masked_loss,
    pretrain,
)

from conftest import GOLDEN, ROOT, build_store
from gradcheck import fd_gradient, relative_error

DESK_CONFIG = ROOT / "configs" / "desk.json"


def random_masked_batch(rng, n_entities, n_relations, n_times, n_nodes, n_edges):
    nodes = rng.integers(0, n_entities, size=n_nodes)
    mask_idx = int(rng.integers(0, n_nodes))
    nodes[mask_idx] = MASK
    edges = []
    for _ in range(n_edges - 1):
        src, dst = rng.integers(0, n_nodes, size=2)
        start, end = sorted(rng.integers(0, n_times, size=2))
        edges.append([src, dst, rng.integers(0, 2 * n_relations), start, end])
    src = int(rng.integers(0, n_nodes))
    edges.append([src, mask_idx, rng.integers(0, 2 * n_relations), 0, n_times - 1])
    return SubgraphBatch(np.array(nodes), np.array(edges))


def run_e2e(dump_dir):
    code = main(["e2e", "--config", str(DESK_CONFIG), "--dump-dir", str(dump_dir)])
    assert code == 0, "pipeline run failed"


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """One timed pipeline run on the shipped desk fixture."""
    dumps = tmp_path_factory.mktemp("desk_run")
    started = time.monotonic()
    run_e2e(dumps)
    elapsed = time.monotonic() - started
    return dumps, elapsed


def test_01_gradient_fidelity():
    """Analytic gradients of the encoder loss and the answer head (including
    the indicator projection) match central finite differences on 20 seeds."""
    d, n_entities, n_relations, n_times, d_llm = 8, 6, 3, 5, 12
    started = time.monotonic()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        table = init_random(n_entities, n_relations, n_times, d, seed)
        params = init_params(d, n_entities, seed + 100)
        batch = random_masked_batch(rng, n_entities, n_relations, n_times,
                                    n_nodes=8, n_edges=12)
        target = int(rng.integers(0, n_entities))
        _, grads = gradients(batch, table, params, target)
        loss_fn = lambda: masked_loss(batch, table, params, target)
        for holder, name in (
            (params, "w_msg"), (params, "w_query"), (params, "w_key"),
            (params, "decoder_w"), (params, "decoder_b"),
            (table, "entity"), (table, "relation"), (table, "time"),
        ):
            numeric = fd_gradient(loss_fn, getattr(holder, name))
            error = relative_error(getattr(grads, name), numeric)
            assert error < 1e-4, f"seed {seed} {name}: {error:.2e}"

        projection = init_projection(d, d_llm, seed + 200)
        sub, rel, obj = (rng.normal(size=d) for _ in range(3))
        indicators = IndicatorSet(
            sub_vec=sub, rel_vec=rel, obj_vec=obj,
            t_min=0, t_max=n_times - 1,
        )
        head = init_head(["who held the post", "when did it end"],
                         [f"answer{i}" for i in range(7)], d_llm, seed + 300)
        example = (indicators, "who held the post")
        head_batch = [(example, [int(rng.integers(0, 7)), int(rng.integers(0, 7))])]
        _, head_grads = loss_and_grads(head_batch, head, projection)
        head_loss = lambda: loss_and_grads(head_batch, head, projection)[0]
        for array, grad, name in (
            (head.scoring, head_grads.scoring, "scoring"),
            (head.token_emb, head_grads.token_emb, "token_emb"),
            (projection.weight, head_grads.projection, "projection"),
        ):
            numeric = fd_gradient(head_loss, array)
            error = relative_error(grad, numeric)
            assert error < 1e-4, f"seed {seed} head {name}: {error:.2e}"
    assert time.monotonic() - started < 10.0


def test_02_attention_and_softmax_laws():
    """Across 1000 randomized instances: attention weights are a proper
    distribution over clipped nonnegative scores, and the masked-entity
    prediction is a proper distribution."""
    rng = np.random.default_rng(7)
    for _ in range(1000):
        d = int(rng.integers(2, 10))
        n_entities = int(rng.integers(2, 8))
        n_relations = int(rng.integers(1, 4))
        n_times = int(rng.integers(1, 5))
        table = init_random(n_entities, n_relations, n_times, d,
                            int(rng.integers(1 << 30)))
        params = init_params(d, n_entities, int(rng.integers(1 << 30)))

        query = rng.normal(size=d) * 3.0
        messages = [rng.normal(size=d) * 3.0
                    for _ in range(int(rng.integers(1, 7)))]
        alpha = attention_weights(query, messages, params)
        assert abs(alpha.sum() - 1.0) <= 1e-6
        assert np.all(alpha >= 0.0)
        # independent recomputation: scores clip at zero before the softmax
        raw = np.array([
            (params.w_query @ query) @ (params.w_key @ m) for m in messages
        ])
        clipped = np.maximum(raw, 0.0)
        expected = np.exp(clipped - clipped.max())
        expected /= expected.sum()
        assert np.allclose(alpha, expected, atol=1e-9)

        batch = random_masked_batch(
            rng, n_entities, n_relations, n_times,
            n_nodes=int(rng.integers(3, 9)), n_edges=int(rng.integers(3, 12)),
        )
        probs = mask_predict(batch, table, params)
        assert abs(probs.sum() - 1.0) <= 1e-6
        assert np.all(probs >= 0.0)


def test_03_pretraining_signal(pretrain_world):
    """On the shipped patterned fixture the encoder reaches held-out masked
    Hits@10 of at least 0.30 (3x the 10/100 random baseline) within 500
    update steps and two minutes."""
    store, heldout = pretrain_world
    assert len(store.entities) == 100
    assert len(store.relations) == 8
    assert len(store.times) == 10
    assert len(heldout) == 60

    started = time.monotonic()
    table = init_random(len(store.entities), len(store.relations),
                        len(store.times), 32, 0)
    params = init_params(32, len(store.entities), 0)
    config = TgnnPretrainConfig(
        learning_rate=1.0, epochs=40, batch_size=64, seed=0, max_steps=500
    )
    table, params, _ = pretrain(store, table, params, config)
    ranks = evaluate_masked(store, table, params, heldout, config)
    elapsed = time.monotonic() - started

    hits10 = sum(1 for rank in ranks if rank <= 10) / len(ranks)
    assert hits10 >= 0.30, f"held-out Hits@10 {hits10:.3f}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_04_retrieval_matches_brute_force():
    """On 1000 generated questions over a 10^4-fact store, the indexed
    retrieval with lexical relation and rule-based time oracles returns
    exactly the facts a brute-force scan selects."""
    store, questions = retrieval_stress()
    assert len(store.facts) == 10_000
    assert len(questions) == 1000
    top_k, max_facts = 1, 10

    raw_facts = [(f.subject, f.relation, f.object, f.t_start, f.t_end)
                 for f in store.facts]
    matches = 0
    for question in questions:
        candidates = candidate_relations(store, question)
        relations = tuple(lexical_rank(store, question, candidates)[:top_k])
        anchors = anchor_facts(store, question, relations)
        constraint = rule_time(store, question, anchors)
        subgraph = retrieve_subgraph(store, question, relations, constraint,
                                     max_facts)
        assert subgraph == retrieve_question(
            store, question, None, top_k=top_k, max_facts=max_facts
        )

        kind, t1, t2 = constraint.kind, constraint.t1, constraint.t2
        annotated = set(question.entities)
        relation_set = set(relations)
        selected = []
        for index, (subject, relation, obj, start, end) in enumerate(raw_facts):
            if relation not in relation_set:
                continue
            if subject not in annotated and obj not in annotated:
                continue
            if kind is ConstraintKind.AT:
                ok = start <= t1 <= end
            elif kind is ConstraintKind.BEFORE:
                ok = start < t1
            elif kind is ConstraintKind.AFTER:
                ok = end > t1
            elif kind is ConstraintKind.BETWEEN:
                ok = not (end < t1 or t2 < start)
            else:
                ok = True
            if ok:
                selected.append((start, end, index))
        selected.sort()
        expected = tuple(store.facts[i] for _, _, i in selected[:max_facts])
        if subgraph.facts == expected:
            matches += 1
    assert matches == len(questions), f"{matches}/{len(questions)} matched"


def test_05_rule_time_reference_cases():
    """The rule-based constraint oracle reproduces the reference demo
    intervals: an 'after' question anchored at [1991, 1995] yields
    after(1995); a joint-time question anchored at [2012, 2014] yields
    between(2012, 2014)."""
    store = build_store([
        ("ada", "leads", "lab", 1991, 1995),
        ("ben", "leads", "lab", 1996, 1998),
    ])
    question = Question(
        "demo0", "Who led lab after ada?",
        (store.entities.id("ada"), store.entities.id("lab")),
        (), QuestionType.BEFORE_AFTER, AnswerType.ENTITY,
        frozenset({store.entities.id("ben")}),
    )
    anchors = anchor_facts(store, question, range(len(store.relations)))
    constraint = rule_time(store, question, anchors)
    assert constraint.kind is ConstraintKind.AFTER
    assert store.times.label(constraint.t1) == "1995"

    store = build_store([
        ("ada", "works at", "mill", 2012, 2014),
        ("ben", "works at", "forge", 2013, 2015),
    ])
    question = Question(
        "demo1", "Where did ben work while ada worked at mill?",
        (store.entities.id("ada"), store.entities.id("mill")),
        (), QuestionType.TIME_JOIN, AnswerType.ENTITY,
        frozenset({store.entities.id("forge")}),
    )
    anchors = anchor_facts(store, question, range(len(store.relations)))
    constraint = rule_time(store, question, anchors)
    assert constraint.kind is ConstraintKind.BETWEEN
    assert store.times.label(constraint.t1) == "2012"
    assert store.times.label(constraint.t2) == "2014"


def test_06_prompt_golden_bytes(desk_store, desk_train, desk_test):
    """All four renderers reproduce their golden files byte for byte."""
    question = next(q for q in desk_test if q.qtype is QuestionType.BEFORE_AFTER)
    train_question = next(q for q in desk_train
                          if q.qtype is QuestionType.SIMPLE_ENTITY)
    candidates = candidate_relations(desk_store, question)
    labels = [desk_store.relations.label(r) for r in candidates]
    anchor = anchor_facts(desk_store, question, candidates)[0]
    subgraph = retrieve_question(desk_store, question, None,
                                 top_k=1, max_facts=10, oracle=True)
    train_subgraph = retrieve_question(desk_store, train_question, None,
                                       top_k=1, max_facts=10, oracle=True)
    answer = "\t".join(sorted(desk_store.entities.label(g)
                              for g in train_question.gold))

    rendered = {
        "relation_ranking": render_relation_ranking(question.text, labels, 1),
        "time_mining": render_time_mining(
            question.text, fact_fields(desk_store, anchor), "after"),
        "instruction_train": render_instruction(
            desk_store, train_question.text, train_subgraph.facts, answer),
        "instruction_open": render_instruction(
            desk_store, question.text, subgraph.facts),
        "baseline_with_evidence": render_baseline(
            desk_store, question.text, subgraph.facts),
        "baseline_without_evidence": render_baseline(desk_store, question.text),
    }
    for name, bundle in rendered.items():
        produced = (bundle.text + "\n").encode("utf-8")
        golden = (GOLDEN / f"{name}.txt").read_bytes()
        assert produced == golden, f"{name} drifted from its golden file"


def test_07_desk_pipeline_quality(desk_run):
    """Training the head on the desk fixture, where every answer is
    retrievable by construction, reaches Hits@1 >= 0.90 on simple questions
    and Hits@10 >= 0.95 overall within five minutes."""
    dumps, elapsed = desk_run
    report = json.loads((dumps / "report.json").read_text(encoding="utf-8"))
    simple_hits1 = report["by_group"]["simple"]["1"]
    overall_hits10 = report["overall"]["10"]
    assert simple_hits1 >= 0.90, f"simple Hits@1 {simple_hits1:.4f}"
    assert overall_hits10 >= 0.95, f"overall Hits@10 {overall_hits10:.4f}"
    assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_08_evaluation_arithmetic():
    """The crafted rank fixture gives Hits@1 = 0.25 and Hits@10 = 0.75
    exactly, ranks beyond the cutoff miss, and every overall metric is the
    weighted mean of its per-type breakdown."""
    crafted = [
        RankRecord("q0", "simple_entity", "entity", 1),
        RankRecord("q1", "simple_time", "time", 2),
        RankRecord("q2", "before_after", "entity", 10),
        RankRecord("q3", "time_join", "entity", None),
    ]
    assert hits_at_k(crafted, 1) == 0.25
    assert hits_at_k(crafted, 10) == 0.75

    past_cutoff = [
        RankRecord("q0", "simple_entity", "entity", 1),
        RankRecord("q1", "simple_time", "time", 2),
        RankRecord("q2", "before_after", "entity", 11),
        RankRecord("q3", "time_join", "entity", None),
    ]
    assert hits_at_k(past_cutoff, 1) == 0.25
    assert hits_at_k(past_cutoff, 10) == 0.5  # rank 11 is a miss at the cutoff

    rng = np.random.default_rng(13)
    qtypes = ["simple_entity", "simple_time", "before_after", "first_last",
              "time_join"]
    for trial in range(20):
        records = []
        for i in range(int(rng.integers(5, 60))):
            rank = None if rng.random() < 0.2 else int(rng.integers(1, 15))
            records.append(RankRecord(f"q{i}", qtypes[int(rng.integers(5))],
                                      "entity", rank))
        report = build_report(records)
        for k in report.ks:
            weighted = sum(
                report.by_question_type[qtype][k] * report.counts[qtype]
                for qtype in report.by_question_type
            ) / report.counts["overall"]
            assert report.overall[k] == pytest.approx(weighted, abs=1e-12)


def test_09_pipeline_determinism(desk_run, tmp_path):
    """A second pipeline run with the same seed reproduces every checkpoint,
    dump, and report bit for bit."""
    first, _ = desk_run
    second = tmp_path / "again"
    run_e2e(second)

    first_files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    second_files = sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    assert first_files == second_files
    assert first_files, "pipeline produced no artifacts"
    for relative in first_files:
        assert (first / relative).read_bytes() == (second / relative).read_bytes(), \
            f"{relative} differs between identical runs"
