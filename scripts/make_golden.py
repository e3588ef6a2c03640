#!/usr/bin/env python3
"""Render reference prompts from the desk fixture into tests/golden/.

The golden files pin the exact template text and substitution behaviour;
regeneration must leave the tree unchanged.
"""

from pathlib import Path

from tempkgqa.cli import MAX_FACTS, TOP_K
from tempkgqa.prompts import (
    render_baseline,
    render_instruction,
    render_relation_ranking,
    render_time_mining,
    fact_fields,
)
from tempkgqa.retrieval import anchor_facts, candidate_relations, retrieve_question
from tempkgqa.store import load_questions, load_tkg

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    store = load_tkg(ROOT / "data" / "desk" / "facts.txt")
    train = load_questions(ROOT / "data" / "desk" / "questions_train.jsonl", store)
    test = load_questions(ROOT / "data" / "desk" / "questions_test.jsonl", store)
    golden = ROOT / "tests" / "golden"
    golden.mkdir(parents=True, exist_ok=True)

    def write(name: str, text: str) -> None:
        (golden / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        print("wrote", golden / f"{name}.txt")

    # A complex question exercises every stage.
    question = next(q for q in test if q.qtype.value == "before_after")
    candidates = candidate_relations(store, question)
    labels = [store.relations.label(r) for r in candidates]
    write("relation_ranking", render_relation_ranking(question.text, labels, 1).text)

    anchors = anchor_facts(store, question, candidates)
    write(
        "time_mining",
        render_time_mining(question.text, fact_fields(store, anchors[0]), "after").text,
    )

    subgraph = retrieve_question(store, question, None, top_k=TOP_K, max_facts=MAX_FACTS)
    train_question = next(q for q in train if q.qtype.value == "simple_entity")
    train_subgraph = retrieve_question(
        store, train_question, None, top_k=TOP_K, max_facts=MAX_FACTS
    )
    answer = "\t".join(
        sorted(store.entities.label(g) for g in train_question.gold)
    )
    write(
        "instruction_train",
        render_instruction(store, train_question.text, train_subgraph.facts, answer).text,
    )
    write("instruction_open", render_instruction(store, question.text, subgraph.facts).text)
    write("baseline_with_evidence", render_baseline(store, question.text, subgraph.facts).text)
    write("baseline_without_evidence", render_baseline(store, question.text).text)


if __name__ == "__main__":
    main()
