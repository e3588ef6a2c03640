"""Seeded input generator for the large workloads.

Builds a temporal KG at CronQuestions scale (125,000 entities, 330,000
facts) whose subject degrees follow a Zipf law, plus questions of every
type that ``tempkgqa.synthetic.retrieval_stress`` makes.  Only the files
this module writes reach the program under test.

The degree sequence is the same for every seed: entity of subject rank ``i``
gets ``floor(F*H(i)) - floor(F*H(i-1))`` facts, with ``H`` the generalised
harmonic numbers, so the top hub holds ``n_facts / H(n_entities)`` facts
(~26,800 at exponent 1.0).  The seed decides which label sits at which rank,
the objects, relations, years, and which facts the questions are drawn from.

The fact file is grouped by subject label, as KG dumps usually are, so a
hub's facts sit together in memory once loaded.  In a fully shuffled file
every hub scan is a chain of cache misses, and on a small VM that shares its
last-level cache with other tenants the retrieval pass time then swings by
a third between runs.

Questions are drawn by stratified sampling over the facts ordered by subject
rank, so every seed puts the same number of questions on each hub and the
retrieval work per pass barely moves with the seed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

RELATIONS = (
    "ruled", "served", "founded", "joined", "visited", "defended",
    "traded", "studied", "painted", "guarded", "mapped", "farmed",
    "coached", "funded", "sailed", "taught", "built", "hosted",
    "judged", "owned", "led", "sponsored", "audited", "scouted",
)
FIRST_YEAR, LAST_YEAR = 1900, 2019
QTYPES = ("simple_entity", "simple_time", "before_after", "first_last", "time_join")


N_ENTITIES, N_FACTS, N_QUESTIONS = 125_000, 330_000, 10_000
ZIPF = 1.0


def subject_degrees() -> np.ndarray:
    """Facts per subject rank; sums to ``N_FACTS`` exactly."""
    weights = 1.0 / np.arange(1, N_ENTITIES + 1, dtype=np.float64) ** ZIPF
    cumulative = np.floor(np.cumsum(weights) * (N_FACTS / weights.sum())).astype(np.int64)
    cumulative[-1] = N_FACTS
    return np.diff(cumulative, prepend=0)


def entity_label(index: int) -> str:
    return f"N{index:06d}"


def generate(seed: int, directory: Path) -> None:
    """Write ``facts.txt``, ``questions_train.jsonl`` and
    ``questions_test.jsonl`` under ``directory``."""
    rng = np.random.default_rng(seed)
    n_e, n_f, n_q = N_ENTITIES, N_FACTS, N_QUESTIONS

    degrees = subject_degrees()
    label_of_rank = rng.permutation(n_e)
    subject_rank = np.repeat(np.arange(n_e), degrees)  # facts ordered by subject rank
    subjects = label_of_rank[subject_rank]
    # Every entity is an object at least twice, so the vocabulary is exactly n_e.
    objects = rng.permutation(np.resize(np.arange(n_e), n_f))
    clash = objects == subjects
    objects[clash] = (objects[clash] + 1) % n_e
    relations = rng.integers(len(RELATIONS), size=n_f)
    starts = rng.integers(FIRST_YEAR, LAST_YEAR + 1, size=n_f)
    ends = np.minimum(starts + rng.integers(0, 11, size=n_f), LAST_YEAR)

    # Stratified question draw over the rank-ordered facts; each block of
    # len(QTYPES) strata carries every question type once.
    picks = ((np.arange(n_q) + rng.random(n_q)) * (n_f / n_q)).astype(np.int64)
    qtypes = np.concatenate([
        rng.permutation(len(QTYPES)) for _ in range(-(-n_q // len(QTYPES)))
    ])[:n_q]

    questions = []
    for index, (fact, qtype_index) in enumerate(zip(picks, qtypes)):
        subj = entity_label(int(subjects[fact]))
        obj = entity_label(int(objects[fact]))
        rel = RELATIONS[relations[fact]]
        qtype = QTYPES[qtype_index]
        annotated, years = [subj, obj], []
        if qtype == "simple_entity":
            year = int(rng.integers(starts[fact], ends[fact] + 1))
            text = f"Who {rel} {obj} in {year}?"
            annotated, years = [obj], [year]
        elif qtype == "simple_time":
            text = f"When did {subj} {rel} {obj}?"
        elif qtype == "before_after":
            text = f"Who {rel} {obj} {'after' if index % 2 else 'before'} {subj}?"
        elif qtype == "first_last":
            text = f"When did {subj} {rel} {obj} for the first time?"
            annotated = [subj]
        else:
            text = f"Who {rel} {obj} together with {subj}?"
        is_time = qtype in ("simple_time", "first_last")
        questions.append({
            "text": text,
            "entities": annotated,
            "times": years,
            "qtype": qtype,
            "atype": "time" if is_time else "entity",
            "answers": [str(int(starts[fact]))] if is_time else [subj],
        })

    order = np.argsort(subjects, kind="stable")  # grouped by subject label
    lines = [
        f"{entity_label(int(subjects[i]))}|{RELATIONS[relations[i]]}|"
        f"{entity_label(int(objects[i]))}|{int(starts[i])}|{int(ends[i])}"
        for i in order
    ]
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "facts.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    shuffled = [questions[i] for i in rng.permutation(n_q)]
    for split, part in (("train", shuffled[0::2]), ("test", shuffled[1::2])):
        with open(directory / f"questions_{split}.jsonl", "w", encoding="utf-8") as handle:
            for number, record in enumerate(part):
                handle.write(json.dumps({"uid": f"{split[:2]}{number:05d}", **record}) + "\n")
