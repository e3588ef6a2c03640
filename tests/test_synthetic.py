import json

import pytest

from tempkgqa.retrieval import retrieve_question
from tempkgqa.store import AnswerType, load_questions, load_tkg
from tempkgqa.synthetic import (
    patterned_tkg,
    qa_fixture,
    retrieval_stress,
    write_patterned_tkg,
    write_qa_fixture,
)


def train_indices(fixture):
    """Indices of the fixture's lines that are not withheld from training."""
    withheld = set(fixture.heldout)
    return [i for i in range(len(fixture.lines)) if i not in withheld]


class TestPatternedTkg:
    def test_advertised_shape(self):
        fixture = patterned_tkg()
        assert len(fixture.lines) == 600
        assert len(fixture.heldout) == 60
        assert len(train_indices(fixture)) == 540

    def test_covers_whole_vocabulary(self, tmp_path):
        fixture = patterned_tkg()
        write_patterned_tkg(tmp_path, fixture)
        store = load_tkg(tmp_path / "facts.txt")
        assert len(store.entities) == 100
        assert len(store.relations) == 8
        assert len(store.times) == 10

    def test_heldout_entities_survive_in_training_split(self, tmp_path):
        """Held-out facts only make sense if their vocabulary stays learnable."""
        fixture = patterned_tkg()
        train_lines = [fixture.lines[i] for i in train_indices(fixture)]
        tmp = tmp_path / "train.txt"
        tmp.write_text("\n".join(train_lines) + "\n", encoding="utf-8")
        train_store = load_tkg(tmp)
        for index in fixture.heldout:
            subject, relation, obj, start, end = fixture.lines[index].split("|")
            assert subject in train_store.entities
            assert obj in train_store.entities
            assert relation in train_store.relations
            assert start in train_store.times and end in train_store.times

    def test_heldout_facts_absent_but_their_pattern_present(self):
        fixture = patterned_tkg()
        train_lines = {fixture.lines[i] for i in train_indices(fixture)}
        train_triples = {
            tuple(fixture.lines[i].split("|")[:3]) for i in train_indices(fixture)
        }
        for index in fixture.heldout:
            line = fixture.lines[index]
            assert line not in train_lines
            # only one year is withheld; the triple itself stays learnable
            assert tuple(line.split("|")[:3]) in train_triples

    def test_deterministic_per_seed(self):
        assert patterned_tkg(seed=3).lines == patterned_tkg(seed=3).lines
        assert patterned_tkg(seed=3).lines != patterned_tkg(seed=4).lines

    def test_roundtrip_through_directory(self, tmp_path):
        fixture = patterned_tkg()
        write_patterned_tkg(tmp_path, fixture)
        lines = (tmp_path / "facts.txt").read_text(encoding="utf-8").splitlines()
        split = json.loads((tmp_path / "split.json").read_text(encoding="utf-8"))
        assert lines == fixture.lines
        assert split == {"heldout": fixture.heldout}
        assert len(load_tkg(tmp_path / "facts.txt").facts) == 600


@pytest.fixture(scope="module")
def fixture():
    return qa_fixture()


@pytest.fixture(scope="module")
def world():
    return retrieval_stress(seed=0, n_entities=200, n_facts=500, n_questions=60)


class TestQaFixture:
    def test_split_sizes_match_shipped_data(self, fixture):
        assert len(fixture.fact_lines) == 141
        assert len(fixture.train) == 76
        assert len(fixture.test) == 76

    def test_matches_shipped_desk_fixture(self, fixture, tmp_path):
        """The data/desk tree is exactly qa_fixture(seed=0)."""
        write_qa_fixture(tmp_path, fixture)
        from conftest import DATA
        desk = DATA / "desk"
        for name in ("facts.txt", "questions_train.jsonl", "questions_test.jsonl"):
            assert (tmp_path / name).read_bytes() == (desk / name).read_bytes(), name

    def test_paraphrase_pairs_share_gold(self, fixture, tmp_path):
        write_qa_fixture(tmp_path, fixture)
        store = load_tkg(tmp_path / "facts.txt")
        train = load_questions(tmp_path / "questions_train.jsonl", store)
        test = load_questions(tmp_path / "questions_test.jsonl", store)
        by_pair = {}
        for question in list(train) + list(test):
            by_pair.setdefault(question.uid, []).append(question)
        # uids are shared between the train and test paraphrase of a pair
        for uid, pair in by_pair.items():
            if len(pair) == 2:
                assert pair[0].gold == pair[1].gold
                assert pair[0].qtype == pair[1].qtype
                assert pair[0].text != pair[1].text

    def test_every_question_supported_by_oracle_retrieval(self, fixture, tmp_path):
        write_qa_fixture(tmp_path, fixture)
        store = load_tkg(tmp_path / "facts.txt")
        for name in ("questions_train.jsonl", "questions_test.jsonl"):
            for question in load_questions(tmp_path / name, store):
                subgraph = retrieve_question(store, question, None,
                                             top_k=1, max_facts=10)
                covered = set()
                for fact in subgraph.facts:
                    covered.add(fact.subject)
                    covered.add(fact.object)
                    covered.add(fact.t_start)
                    covered.add(fact.t_end)
                if question.atype is AnswerType.TIME:
                    hits = {t for f in subgraph.facts
                            for t in (f.t_start, f.t_end)} & question.gold
                else:
                    hits = {e for f in subgraph.facts
                            for e in (f.subject, f.object)} & question.gold
                assert hits == question.gold, question.uid


class TestRetrievalStress:
    def test_shapes(self, world):
        store, questions = world
        assert len(store.facts) == 500
        assert len(questions) == 60
        assert len(store.relations) == 12

    def test_no_self_loops(self, world):
        store, _ = world
        assert all(f.subject != f.object for f in store.facts)

    def test_questions_cover_all_five_types(self, world):
        _, questions = world
        assert len({q.qtype for q in questions}) == 5

    def test_annotations_verbatim_in_text(self, world):
        store, questions = world
        for question in questions:
            for entity in question.entities:
                assert store.entities.label(entity) in question.text
            for time in question.times:
                assert store.times.label(time) in question.text

    def test_deterministic(self):
        a = retrieval_stress(seed=1, n_entities=50, n_facts=80, n_questions=10)
        b = retrieval_stress(seed=1, n_entities=50, n_facts=80, n_questions=10)
        assert a[0].facts == b[0].facts
        assert [q.text for q in a[1]] == [q.text for q in b[1]]
