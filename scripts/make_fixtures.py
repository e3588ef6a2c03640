#!/usr/bin/env python3
"""Regenerate the checked-in synthetic datasets under data/.

Both fixtures are deterministic; rerunning this script must leave the
working tree unchanged.
"""

import argparse
from pathlib import Path

from tempkgqa import synthetic
from tempkgqa.cli import MAX_FACTS, TOP_K
from tempkgqa.retrieval import retrieve_question
from tempkgqa.store import AnswerType, load_questions, load_tkg


def check_supported(directory: Path) -> None:
    """Every answer must survive offline retrieval with the default budget."""
    store = load_tkg(directory / "facts.txt")
    questions = []
    for split in ("train", "test"):
        questions += load_questions(directory / f"questions_{split}.jsonl", store)
    for question in questions:
        subgraph = retrieve_question(store, question, None, top_k=TOP_K, max_facts=MAX_FACTS)
        if question.atype is AnswerType.TIME:
            covered = {f.t_start for f in subgraph.facts} | {f.t_end for f in subgraph.facts}
        else:
            covered = {f.subject for f in subgraph.facts}
        if not question.gold <= covered:
            raise SystemExit(f"question {question.uid} lost its answers in retrieval")
    print(f"{directory}: {len(questions)} questions, all answers retrievable")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=Path(__file__).resolve().parent.parent / "data")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    root = Path(args.root)

    pretrain = synthetic.patterned_tkg(seed=args.seed)
    synthetic.write_patterned_tkg(root / "pretrain", pretrain)
    print(f"{root / 'pretrain'}: {len(pretrain.lines)} facts, "
          f"{len(pretrain.heldout)} held out")

    desk = synthetic.qa_fixture(seed=args.seed)
    synthetic.write_qa_fixture(root / "desk", desk)
    print(f"{root / 'desk'}: {len(desk.fact_lines)} facts, "
          f"{len(desk.train)}/{len(desk.test)} questions")
    check_supported(root / "desk")


if __name__ == "__main__":
    main()
