import json

import pytest
from hypothesis import given, strategies as st

from tempkgqa.store import (
    ANCHORED_TYPES,
    AnswerType,
    COMPLEX_TYPES,
    Question,
    QuestionType,
    Quadruple,
    SIMPLE_TYPES,
    StoreError,
    Vocabulary,
    facts_filtered,
    load_questions,
    load_tkg,
)

from conftest import build_store


class TestVocabulary:
    def test_intern_is_idempotent(self):
        vocab = Vocabulary("entity")
        assert vocab.intern("a") == 0
        assert vocab.intern("b") == 1
        assert vocab.intern("a") == 0
        assert len(vocab) == 2

    def test_add_rejects_duplicates(self):
        vocab = Vocabulary("relation", ["x"])
        with pytest.raises(StoreError, match="duplicate"):
            vocab.add("x")

    def test_label_roundtrip_and_bounds(self):
        vocab = Vocabulary("time", ["1990", "1991"])
        assert vocab.id("1991") == 1
        assert vocab.label(0) == "1990"
        with pytest.raises(StoreError, match="unknown"):
            vocab.id("1992")
        with pytest.raises(StoreError, match="out of range"):
            vocab.label(2)

    def test_contains(self):
        vocab = Vocabulary("entity", ["a"])
        assert "a" in vocab and "b" not in vocab


class TestQuadruple:
    def test_interval_must_be_ordered(self):
        with pytest.raises(ValueError):
            Quadruple(0, 0, 1, t_start=3, t_end=2)

    def test_point_interval_allowed(self):
        fact = Quadruple(0, 0, 1, 2, 2)
        assert fact.t_start == fact.t_end


class TestQuestionTypes:
    def test_simple_complex_partition_the_interval_benchmark(self):
        five = {
            QuestionType.SIMPLE_ENTITY, QuestionType.SIMPLE_TIME,
            QuestionType.BEFORE_AFTER, QuestionType.FIRST_LAST,
            QuestionType.TIME_JOIN,
        }
        assert SIMPLE_TYPES | COMPLEX_TYPES == five
        assert not SIMPLE_TYPES & COMPLEX_TYPES

    def test_anchored_types(self):
        assert QuestionType.BEFORE_AFTER in ANCHORED_TYPES
        assert QuestionType.TIME_JOIN in ANCHORED_TYPES
        assert QuestionType.IMPLICIT in ANCHORED_TYPES
        assert QuestionType.TEMPORAL in ANCHORED_TYPES
        assert QuestionType.SIMPLE_ENTITY not in ANCHORED_TYPES
        assert QuestionType.EXPLICIT not in ANCHORED_TYPES

    def test_question_requires_gold(self):
        with pytest.raises(ValueError):
            Question("q1", "who?", (), (), QuestionType.SIMPLE_ENTITY,
                     AnswerType.ENTITY, frozenset())


class TestFactFile:
    def write(self, tmp_path, text):
        path = tmp_path / "facts.txt"
        path.write_text(text, encoding="utf-8")
        return path

    def test_happy_path(self, tmp_path):
        store = load_tkg(self.write(tmp_path, "a|r|b|1990|1995\nb|r|c|1980|1981\n"))
        assert len(store.facts) == 2
        assert store.entities.label(0) == "a"

    @pytest.mark.parametrize("line,message", [
        ("a|r|b|1990", "4"),
        ("a|r|b|1990|1991|x", "6"),
        ("a||b|1990|1991", "empty label"),
        ("a|r|b|199O|1991", "non-integer"),
        ("a|r|b|01990|1991", "non-canonical"),
        ("a|r|b|1995|1990", "after end"),
    ], ids=["short", "long", "empty", "alpha", "zero-pad", "reversed"])
    def test_rejects_malformed_lines(self, tmp_path, line, message):
        with pytest.raises(StoreError, match=message):
            load_tkg(self.write(tmp_path, line + "\n"))

    def test_surrounding_whitespace_tolerated(self, tmp_path):
        store = load_tkg(self.write(tmp_path, "a | r | b | 1990 | 1991\n"))
        assert store.entities.label(0) == "a"
        assert store.year(store.facts[0].t_start) == 1990

    def test_error_carries_line_number(self, tmp_path):
        with pytest.raises(StoreError, match="line 2"):
            load_tkg(self.write(tmp_path, "a|r|b|1990|1991\nbroken\n"))

    def test_time_ids_chronological_regardless_of_file_order(self, tmp_path):
        store = load_tkg(self.write(tmp_path, "a|r|b|2001|2003\nc|r|d|1987|1999\n"))
        years = [int(label) for label in store.times.labels]
        assert years == sorted(years)
        first, second = store.facts
        assert first.t_start > second.t_end  # id order mirrors year order

    def test_entity_relation_ids_first_appearance(self, tmp_path):
        store = load_tkg(self.write(tmp_path, "z|late|y|1990|1990\na|early|b|1980|1980\n"))
        assert store.entities.label(0) == "z"
        assert store.relations.label(1) == "early"

    def test_fact_label_roundtrips_file_line(self, tmp_path):
        line = "a b|rel x|c|1990|1994"
        store = load_tkg(self.write(tmp_path, line + "\n"))
        assert store.fact_label(store.facts[0]) == line

    @given(st.lists(st.integers(min_value=0, max_value=3000), min_size=1, max_size=30))
    def test_time_id_order_equals_year_order(self, years):
        import tempfile
        from pathlib import Path
        with tempfile.TemporaryDirectory() as tmp:
            lines = [f"s{i}|r|o{i}|{y}|{y}" for i, y in enumerate(years)]
            store = load_tkg(self.write(Path(tmp), "\n".join(lines) + "\n"))
        labels = [int(l) for l in store.times.labels]
        assert labels == sorted(set(years))


class TestStoreIndexes:
    def test_facts_by_entity_covers_both_roles(self, tiny_store):
        ada = tiny_store.entities.id("ada")
        facts = tiny_store.facts_by_entity(ada)
        subjects = {tiny_store.entities.label(f.subject) for f in facts}
        objects = {tiny_store.entities.label(f.object) for f in facts}
        assert "ada" in subjects and "ada" in objects

    def test_self_loop_indexed_once(self):
        store = build_store([("a", "r", "a", 1990, 1990)])
        assert store.fact_ids_by_entity(0) == (0,)

    def test_fact_ids_by_entity_returns_the_index_without_copying(self, tiny_store):
        ada = tiny_store.entities.id("ada")
        first = tiny_store.fact_ids_by_entity(ada)
        second = tiny_store.fact_ids_by_entity(ada)
        assert first is second
        assert isinstance(first, tuple)
        assert first == tuple(
            i for i, f in enumerate(tiny_store.facts) if ada in (f.subject, f.object)
        )
        assert tiny_store.fact_ids_by_entity(len(tiny_store.entities)) == ()

    def test_out_of_range_ids_rejected(self):
        entities = Vocabulary("entity", ["a"])
        relations = Vocabulary("relation", ["r"])
        times = Vocabulary("time", ["1990"])
        from tempkgqa.store import TkgStore
        with pytest.raises(StoreError, match="out of range"):
            TkgStore(entities, relations, times, [Quadruple(0, 0, 1, 0, 0)])


class _Admit:
    def __init__(self, fn):
        self.admits = fn


class TestFactsFiltered:
    def test_sorted_by_start_end_insertion(self, tiny_store):
        everyone = range(len(tiny_store.entities))
        every_rel = range(len(tiny_store.relations))
        facts = facts_filtered(tiny_store, everyone, every_rel, _Admit(lambda f: True))
        keys = [(f.t_start, f.t_end) for f in facts]
        assert keys == sorted(keys)
        assert len(facts) == len(tiny_store.facts)

    def test_filters_compose(self, tiny_store):
        ada = tiny_store.entities.id("ada")
        leads = tiny_store.relations.id("leads")
        facts = facts_filtered(tiny_store, [ada], [leads], _Admit(lambda f: True))
        assert len(facts) == 1
        assert tiny_store.entities.label(facts[0].subject) == "ada"

    def test_constraint_applies(self, tiny_store):
        everyone = range(len(tiny_store.entities))
        leads = tiny_store.relations.id("leads")
        late = tiny_store.times.id("1999")
        facts = facts_filtered(
            tiny_store, everyone, [leads], _Admit(lambda f: f.t_start >= late)
        )
        assert len(facts) == 1


class TestQuestionFile:
    def record(self, **overrides):
        base = {
            "uid": "q1",
            "text": "Who leads the lab group after Ada?",
            "entities": ["ada"],
            "times": [],
            "qtype": "before_after",
            "atype": "entity",
            "answers": ["ben"],
        }
        base.update(overrides)
        return base

    def write(self, tmp_path, records):
        path = tmp_path / "questions.jsonl"
        path.write_text(
            "\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8"
        )
        return path

    def test_loads_and_resolves(self, tmp_path, tiny_store):
        questions = load_questions(self.write(tmp_path, [self.record()]), tiny_store)
        assert questions[0].qtype is QuestionType.BEFORE_AFTER
        assert questions[0].gold == frozenset({tiny_store.entities.id("ben")})

    def test_annotation_check_is_case_insensitive(self, tmp_path, tiny_store):
        record = self.record(text="Who leads the lab group after ADA?")
        questions = load_questions(self.write(tmp_path, [record]), tiny_store)
        assert questions[0].entities == (tiny_store.entities.id("ada"),)

    def test_annotation_must_appear_in_text(self, tmp_path, tiny_store):
        record = self.record(text="Who leads the lab group?")
        with pytest.raises(StoreError, match="not present in text"):
            load_questions(self.write(tmp_path, [record]), tiny_store)

    def test_time_annotation_checked_too(self, tmp_path, tiny_store):
        record = self.record(times=[1995])
        with pytest.raises(StoreError, match="not present in text"):
            load_questions(self.write(tmp_path, [record]), tiny_store)

    def test_missing_key_rejected(self, tmp_path, tiny_store):
        record = self.record()
        del record["atype"]
        with pytest.raises(StoreError, match="missing keys"):
            load_questions(self.write(tmp_path, [record]), tiny_store)

    def test_bad_enum_rejected(self, tmp_path, tiny_store):
        record = self.record(qtype="who_knows")
        with pytest.raises(StoreError, match="who_knows"):
            load_questions(self.write(tmp_path, [record]), tiny_store)

    def test_time_answers_resolve_in_time_vocab(self, tmp_path, tiny_store):
        record = self.record(
            text="When did Ada lead the lab group?",
            qtype="simple_time", atype="time", answers=[1990, 1994],
        )
        questions = load_questions(self.write(tmp_path, [record]), tiny_store)
        gold_years = {tiny_store.year(g) for g in questions[0].gold}
        assert gold_years == {1990, 1994}

    def test_empty_answers_rejected(self, tmp_path, tiny_store):
        with pytest.raises(StoreError, match="no gold answers"):
            load_questions(self.write(tmp_path, [self.record(answers=[])]), tiny_store)

    def test_empty_entities_rejected(self, tmp_path, tiny_store):
        records = [self.record(), self.record(uid="q7", entities=[])]
        with pytest.raises(StoreError, match=r"line 2: question 'q7' has no annotated"):
            load_questions(self.write(tmp_path, records), tiny_store)

    def test_invalid_json_line_numbered(self, tmp_path, tiny_store):
        path = tmp_path / "questions.jsonl"
        path.write_text(json.dumps(self.record()) + "\n{broken\n", encoding="utf-8")
        with pytest.raises(StoreError, match="line 2"):
            load_questions(path, tiny_store)


class TestDeskFixture:
    def test_shape(self, desk_store, desk_train, desk_test):
        assert len(desk_store.facts) == 141
        assert len(desk_train) == len(desk_test) == 76

    def test_gold_labels_exist(self, desk_store, desk_test):
        for question in desk_test:
            assert question.gold
            vocab = (
                desk_store.times
                if question.atype is AnswerType.TIME
                else desk_store.entities
            )
            for g in question.gold:
                vocab.label(g)
