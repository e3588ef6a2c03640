import json
from pathlib import Path

import pytest

from tempkgqa.store import Quadruple, TkgStore, Vocabulary, load_questions, load_tkg

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="session")
def desk_store() -> TkgStore:
    return load_tkg(DATA / "desk" / "facts.txt")


@pytest.fixture(scope="session")
def desk_train(desk_store):
    return load_questions(DATA / "desk" / "questions_train.jsonl", desk_store)


@pytest.fixture(scope="session")
def desk_test(desk_store):
    return load_questions(DATA / "desk" / "questions_test.jsonl", desk_store)


@pytest.fixture(scope="session")
def pretrain_world(tmp_path_factory):
    """Train-only store plus held-out facts from the patterned fixture."""
    lines = (DATA / "pretrain" / "facts.txt").read_text(encoding="utf-8").splitlines()
    heldout = set(json.loads((DATA / "pretrain" / "split.json").read_text())["heldout"])
    train_file = tmp_path_factory.mktemp("pretrain") / "train.txt"
    train_file.write_text(
        "\n".join(l for i, l in enumerate(lines) if i not in heldout) + "\n",
        encoding="utf-8",
    )
    store = load_tkg(train_file)
    return store, [store.fact_from_label(lines[index]) for index in sorted(heldout)]


def build_store(facts: list[tuple[str, str, str, int, int]]) -> TkgStore:
    """Tiny in-memory store from label-level fact tuples."""
    years = sorted({y for f in facts for y in (f[3], f[4])})
    # entity and relation ids in first appearance, as load_tkg assigns them
    entities = Vocabulary("entity", dict.fromkeys(e for f in facts for e in (f[0], f[2])))
    relations = Vocabulary("relation", dict.fromkeys(f[1] for f in facts))
    times = Vocabulary("time", (str(y) for y in years))
    quads = [
        Quadruple(entities.id(subject), relations.id(relation), entities.id(obj),
                  times.id(str(start)), times.id(str(end)))
        for subject, relation, obj, start, end in facts
    ]
    return TkgStore(entities, relations, times, quads)


@pytest.fixture
def tiny_store() -> TkgStore:
    return build_store([
        ("ada", "leads", "lab", 1990, 1994),
        ("ben", "leads", "lab", 1995, 1998),
        ("cara", "leads", "lab", 1999, 2001),
        ("ada", "works at", "mill", 1988, 1996),
        ("ben", "works at", "mill", 1990, 1999),
        ("dan", "advises", "ada", 1991, 1993),
    ])
