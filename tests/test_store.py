import json
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import tempkgqa.store as store_module
from tempkgqa.retrieval import anchor_facts, candidate_relations
from tempkgqa.store import (
    ANCHORED_TYPES,
    AnswerType,
    BLOCK_CHARS,
    COMPLEX_TYPES,
    FactView,
    Question,
    QuestionType,
    Quadruple,
    QUESTION_SCHEMA,
    SIMPLE_TYPES,
    StoreError,
    TemporalConstraint,
    TkgStore,
    Vocabulary,
    facts_filtered,
    _parse_fact_line,
    _text_blocks,
    load_questions,
    load_tkg,
    member_mask,
)

from conftest import build_store


class TestVocabulary:
    def test_constructor_names_the_first_repeat(self):
        with pytest.raises(StoreError, match=r"^duplicate entity label: 'b'$"):
            Vocabulary("entity", ["a", "b", "c", "b", "a"])
        with pytest.raises(StoreError, match=r"^duplicate time label: '1990'$"):
            Vocabulary("time", iter(["1990", "1990"]))

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
    def test_point_interval_allowed(self):
        fact = build_store([("a", "r", "b", 1990, 1990)]).facts[0]
        assert fact.t_start == fact.t_end

    def test_fields_and_repr(self):
        fact = Quadruple(0, 1, 2, t_start=3, t_end=4)
        assert (fact.subject, fact.relation, fact.object) == (0, 1, 2)
        assert repr(fact) == "Quadruple(subject=0, relation=1, object=2, t_start=3, t_end=4)"


def two_entity_store(facts):
    return TkgStore(Vocabulary("entity", ["a", "b"]), Vocabulary("relation", ["r"]),
                    Vocabulary("time", ["1990", "1991"]), facts)


class TestStoreBoundary:
    """Every row is checked where a store is built; the first bad fact is named."""

    @pytest.mark.parametrize("bad, message", [
        ((0, 0, 1, 1, 0), "interval runs backwards"),
        ((0, -1, 1, 0, 0), "negative id in fact"),
        ((0, 0, 1, -1, 0), "negative id in fact"),
        ((0, 0, 2, 0, 0), "entity id out of range in"),
        ((0, 1, 1, 0, 0), "relation id out of range in"),
        ((0, 0, 1, 0, 2), "time id out of range in"),
    ], ids=["backwards", "negative-relation", "negative-time", "entity", "relation", "time"])
    @pytest.mark.parametrize("as_array", [False, True], ids=["quadruples", "array"])
    def test_bad_fact_rejected_by_name(self, bad, message, as_array):
        facts = [(0, 0, 1, 0, 1), bad, (1, 0, 0, 5, 4)]
        facts = np.array(facts) if as_array else [Quadruple(*f) for f in facts]
        with pytest.raises(StoreError, match=f"^{message}") as raised:
            two_entity_store(facts)
        assert str(raised.value).endswith(repr(Quadruple(*bad)))

    def test_empty_store(self):
        store = two_entity_store([])
        assert len(store.facts) == 0
        assert store.subject.tolist() == store.object.tolist() == []

    def test_empty_store_lookups_find_nothing(self):
        store = two_entity_store([])
        question = Question("q", "a?", (0, 1), (), QuestionType.SIMPLE_ENTITY,
                            AnswerType.ENTITY, frozenset({0}))
        assert candidate_relations(store, question) == []
        assert len(anchor_facts(store, question, [0])) == 0
        assert len(facts_filtered(store, (0, 1), [0], TemporalConstraint.none())) == 0

    def test_holds_no_per_fact_python_object(self, desk_store):
        for value in vars(desk_store).values():
            assert isinstance(value, (np.ndarray, Vocabulary, FactView)), type(value)


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
        ("a|r|Ann\tLee|1990|1991", "label holds a tab"),
    ], ids=["short", "long", "empty", "alpha", "zero-pad", "reversed", "tab"])
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

    def test_error_names_the_file_and_the_line(self, tmp_path):
        path = self.write(tmp_path, "a|r|b|1990|1991\nc|r|d|1992\n")
        message = f"{path}, line 2: expected 5 '|'-separated fields, got 4"
        with pytest.raises(StoreError, match=f"^{re.escape(message)}$"):
            load_tkg(path)

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

    def test_bytes_that_are_not_utf8_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "facts.txt"
        path.write_bytes(b"a|r|b|1990|1991\n\xffc|r|d|1990|1991\n")
        with pytest.raises(StoreError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
            load_tkg(path)

    def test_fact_label_roundtrips_file_line(self, tmp_path):
        line = "a b|rel x|c|1990|1994"
        store = load_tkg(self.write(tmp_path, line + "\n"))
        assert store.fact_label(store.facts[0]) == line

    @given(st.lists(st.integers(min_value=0, max_value=3000), min_size=1, max_size=30))
    def test_time_id_order_equals_year_order(self, years):
        with tempfile.TemporaryDirectory() as tmp:
            lines = [f"s{i}|r|o{i}|{y}|{y}" for i, y in enumerate(years)]
            store = load_tkg(self.write(Path(tmp), "\n".join(lines) + "\n"))
        labels = [int(l) for l in store.times.labels]
        assert labels == sorted(set(years))

    @given(st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c d", "é"]), st.sampled_from(["r", "s t"]),
            st.sampled_from(["a", "b", "c d", "é"]), st.integers(-50, 3000),
            st.integers(0, 40), st.sampled_from(["", " ", "  "]),
        ),
        min_size=1, max_size=25,
    ))
    def test_lines_round_trip_through_the_columns(self, facts):
        """Out-of-order years, self-loops and padded fields: every fact reads
        back as its line, and the columns hold its ids."""
        lines = [f"{s}|{r}|{o}|{start}|{start + length}" for s, r, o, start, length, _ in facts]
        padded = ["|".join(pad + f + pad for f in line.split("|"))
                  for line, (*_, pad) in zip(lines, facts)]
        with tempfile.TemporaryDirectory() as tmp:
            store = load_tkg(self.write(Path(tmp), "\n".join(padded) + "\n"))
        assert [store.fact_label(f) for f in store.facts] == lines
        for i, (s, r, o, start, length, _) in enumerate(facts):
            row = [store.subject[i], store.relation[i], store.object[i],
                   store.t_start[i], store.t_end[i]]
            assert row == [store.entities.id(s), store.relations.id(r), store.entities.id(o),
                           store.times.id(str(start)), store.times.id(str(start + length))]
            assert store.fact_from_label(lines[i]) == store.facts[i]


def looped_load(path):
    """Reference parse of a fact file, one line at a time through the line
    codec, labels interned in first-appearance order: the three
    vocabularies' labels and the ``(n, 5)`` id rows.  A bad line raises the
    error naming the file and the line."""
    entity_ids, relation_ids, rows = {}, {}, []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        try:
            subject, relation, obj, start, end = _parse_fact_line(line)
        except StoreError as exc:
            raise StoreError(f"{path}, line {lineno}: {exc}") from None
        rows.append((entity_ids.setdefault(subject, len(entity_ids)),
                     relation_ids.setdefault(relation, len(relation_ids)),
                     entity_ids.setdefault(obj, len(entity_ids)), start, end))
    years = sorted({year for row in rows for year in row[3:]})
    rank = {year: i for i, year in enumerate(years)}
    rows = [(*row[:3], rank[row[3]], rank[row[4]]) for row in rows]
    labels = (tuple(entity_ids), tuple(relation_ids), tuple(map(str, years)))
    return labels, np.array(rows, dtype=np.int32).reshape(-1, 5)


def assert_loads_as_the_loop(path):
    """``load_tkg(path)`` gives the reference's labels and id rows, or
    raises its error word for word; the store, or ``None``."""
    try:
        labels, rows = looped_load(path)
    except StoreError as exc:
        with pytest.raises(StoreError) as raised:
            load_tkg(path)
        assert str(raised.value) == str(exc)
        return None
    store = load_tkg(path)
    assert (store.entities.labels, store.relations.labels, store.times.labels) == labels
    assert np.array_equal(np.asarray(store.facts), rows)
    return store


PADDED_ENTITIES = st.sampled_from(["a", " a ", "a\t", "b", "c d", " c d", "é"])
PADDED_RELATIONS = st.sampled_from(["r", " r", "s t", "s t "])
FACT_LINES = st.builds(
    lambda s, r, o, start, length, pad: f"{s}|{r}|{o}|{pad}{start}|{start + length}{pad}",
    PADDED_ENTITIES, PADDED_RELATIONS, PADDED_ENTITIES, st.integers(-50, 3000),
    st.integers(0, 40), st.sampled_from(["", " "]),
)
#: Lines the loader must reject, or that break a line in two; the bar is
#: drawn twice as often as the rest, so some have the right field count
JUNK_LINES = st.text(st.sampled_from(list("ab|| 0129-\r\u2028")), max_size=20)


class TestBlockParse:
    """``load_tkg`` against the line loop it replaced, in blocks of any size."""

    def write(self, directory, text):
        path = Path(directory) / "facts.txt"
        path.write_bytes(text.encode("utf-8"))
        return path

    @given(st.lists(FACT_LINES, max_size=30), st.sampled_from(["\n", "\r\n"]), st.booleans(),
           st.sampled_from([1, 16, 64, BLOCK_CHARS]))
    def test_padded_lines_load_as_the_loop(self, lines, newline, final_newline, block_chars):
        """Labels that merge once stripped, CRLF endings and a missing final
        newline, with the text cut into blocks of ``block_chars``."""
        text = newline.join(lines) + (newline if final_newline and lines else "")
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(store_module, "BLOCK_CHARS", block_chars):
            assert assert_loads_as_the_loop(self.write(tmp, text)) is not None

    @given(st.lists(st.one_of(FACT_LINES, JUNK_LINES), max_size=12),
           st.sampled_from(["\n", "\r\n", "\r"]), st.sampled_from([1, 16, BLOCK_CHARS]))
    def test_any_text_loads_or_fails_as_the_loop(self, lines, newline, block_chars):
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(store_module, "BLOCK_CHARS", block_chars):
            assert_loads_as_the_loop(self.write(tmp, newline.join(lines)))

    @pytest.mark.parametrize("text, message", [
        ("a|r|b|1990|1991|x\nr|c|1990|1991\n", "line 1: expected 5 '|'-separated fields, got 6"),
        ("a|r|b|1990|1991\n\nc|r|d|1990|1991\n", "line 2: expected 5 '|'-separated fields, got 1"),
        ("a|r|b|1990|1991\nc\u2028d|r|e|1990|1991\n",
         "line 2: expected 5 '|'-separated fields, got 1"),
    ], ids=["six-beside-four", "blank-line", "u2028-in-label"])
    def test_error_names_the_line(self, tmp_path, text, message):
        path = self.write(tmp_path, text)
        with pytest.raises(StoreError, match=f"^{re.escape(f'{path}, {message}')}$"):
            load_tkg(path)
        assert_loads_as_the_loop(path)

    def test_empty_file_gives_an_empty_store(self, tmp_path):
        store = assert_loads_as_the_loop(self.write(tmp_path, ""))
        assert len(store.facts) == 0
        assert len(store.entities) == len(store.relations) == len(store.times) == 0

    @staticmethod
    def many_lines():
        return [f"e{i % 997}|r{i % 7}|e{i * 31 % 1009}|{1900 + i % 120}|{1900 + i % 120 + i % 5}"
                for i in range(4000)]

    def test_file_of_three_blocks_or_more(self, tmp_path):
        text = "\n".join(self.many_lines()) + "\n"
        assert len(list(_text_blocks(text))) >= 3
        store = assert_loads_as_the_loop(self.write(tmp_path, text))
        assert len(store.facts) == 4000

    @pytest.mark.parametrize("line, message", [
        ("x|r|y|1995", "expected 5 '|'-separated fields, got 4"),
        ("x| |y|1990|1991", "empty label"),
        ("x|r|y|199O|1991", "non-integer year"),
        ("x|r|y|01990|1991", "non-canonical year spelling"),
        ("x|r|y|1995|1990", "start year 1995 after end year 1990"),
        ("x|r\ts|y|1990|1991", "label holds a tab, which separates answers in prompts"),
    ], ids=["fields", "empty", "alpha", "zero-pad", "reversed", "tab"])
    def test_bad_line_in_a_late_block_names_its_line(self, tmp_path, line, message):
        lines = self.many_lines()
        lines[3900] = line
        text = "\n".join(lines) + "\n"
        assert text.index(line) > 2 * BLOCK_CHARS
        path = self.write(tmp_path, text)
        with pytest.raises(StoreError, match=f"^{re.escape(f'{path}, line 3901: {message}')}$"):
            load_tkg(path)


@pytest.mark.parametrize("wanted", [[3, 3, 1, 3], [], [0, 10, 99]],
                         ids=["repeats", "empty", "past-the-vocabulary"])
def test_member_mask_equals_isin(wanted):
    values = np.array([3, 1, 4, 1, 5, 9, 2, 6, 0, 3], dtype=np.int32)
    assert np.array_equal(member_mask(values, wanted), np.isin(values, wanted))


class TestStoreIndexes:
    def test_out_of_range_ids_rejected(self):
        entities = Vocabulary("entity", ["a"])
        relations = Vocabulary("relation", ["r"])
        times = Vocabulary("time", ["1990"])
        from tempkgqa.store import TkgStore
        with pytest.raises(StoreError, match="out of range"):
            TkgStore(entities, relations, times, [Quadruple(0, 0, 1, 0, 0)])


class TestFactView:
    def test_sequence_protocol(self, tiny_store):
        facts, n = tiny_store.facts, 6  # the fixture's six facts
        assert len(facts) == n
        assert list(facts) == list(tiny_store.facts_of(np.arange(n)))
        assert facts[-1] == facts[n - 1] == Quadruple(
            tiny_store.entities.id("dan"), tiny_store.relations.id("advises"),
            tiny_store.entities.id("ada"), tiny_store.times.id("1991"),
            tiny_store.times.id("1993"))
        assert list(facts[1:4]) == [facts[1], facts[2], facts[3]]
        assert list(facts[::-2]) == [facts[5], facts[3], facts[1]]
        assert list(facts[np.array([4, 0])]) == [facts[4], facts[0]]
        assert facts[2:2] == [] and len(facts[10:]) == 0
        assert facts[facts.index(facts[3])] == facts[3] and facts[3] in facts
        for index in (n, -n - 1):
            with pytest.raises(IndexError):
                facts[index]

    def test_fields_are_python_ints(self, tiny_store):
        for fact in (tiny_store.facts[0], *tiny_store.facts, *tiny_store.facts[1:3]):
            assert all(type(field) is int for field in fact)

    def test_array_form_and_read_only_columns(self, tiny_store):
        rows = np.asarray(tiny_store.facts_of([5, 0]))
        assert rows.shape == (2, 5)
        assert rows.tolist() == [list(tiny_store.facts[5]), list(tiny_store.facts[0])]
        for column in (tiny_store.subject, tiny_store.relation, tiny_store.object,
                       tiny_store.t_start, tiny_store.t_end):
            assert column.dtype == np.int32
            with pytest.raises(ValueError):
                column[0] = 1
        with pytest.raises(TypeError):
            tiny_store.facts[0] = tiny_store.facts[1]

    def test_equality_with_sequences(self, tiny_store):
        assert tiny_store.facts[:2] == tiny_store.facts_of([0, 1])
        assert tiny_store.facts[:2] == (tiny_store.facts[0], tiny_store.facts[1])
        assert tiny_store.facts[:2] != tiny_store.facts[1:3]
        assert tiny_store.facts[:2] != [tiny_store.facts[0]]


class TestFactsFiltered:
    def test_sorted_by_start_end_insertion(self, tiny_store):
        everyone = range(len(tiny_store.entities))
        every_rel = range(len(tiny_store.relations))
        facts = facts_filtered(tiny_store, everyone, every_rel, TemporalConstraint.none())
        keys = [(f.t_start, f.t_end) for f in facts]
        assert keys == sorted(keys)
        assert len(facts) == len(tiny_store.facts)

    def test_filters_compose(self, tiny_store):
        ada = tiny_store.entities.id("ada")
        leads = tiny_store.relations.id("leads")
        facts = facts_filtered(tiny_store, [ada], [leads], TemporalConstraint.none())
        assert len(facts) == 1
        assert tiny_store.entities.label(facts[0].subject) == "ada"

    def test_constraint_applies(self, tiny_store):
        everyone = range(len(tiny_store.entities))
        leads = tiny_store.relations.id("leads")
        facts = facts_filtered(
            tiny_store, everyone, [leads], TemporalConstraint.after(tiny_store.times.id("1998"))
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
        with pytest.raises(StoreError, match="line 1: record has no key 'atype'$"):
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

    @pytest.mark.parametrize("line", ["5", '"q2"', "null", json.dumps(list(QUESTION_SCHEMA))],
                             ids=["number", "string", "null", "list-of-keys"])
    def test_record_that_is_not_an_object_rejected(self, tmp_path, tiny_store, line):
        path = tmp_path / "questions.jsonl"
        path.write_text(json.dumps(self.record()) + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(StoreError,
                           match=f"^{re.escape(str(path))}, line 2: record is not a JSON object$"):
            load_questions(path, tiny_store)

    @pytest.mark.parametrize("key, value", [("answers", 5), ("answers", "ben"),
                                            ("entities", "ada"), ("times", None)])
    def test_annotation_that_is_not_a_list_rejected(self, tmp_path, tiny_store, key, value):
        path = self.write(tmp_path, [self.record(**{key: value})])
        with pytest.raises(StoreError,
                           match=f"^{re.escape(str(path))}, line 1: '{key}' is not a list "
                                 f"but (int|str|null)$"):
            load_questions(path, tiny_store)

    @pytest.mark.parametrize("overrides, message", [
        ({"answers": ["nobody"]}, "unknown entity label: 'nobody'"),
        ({"entities": ["cara"]}, "question 'q1': annotation 'cara' not present in text"),
        ({"text": "Who leads the lab group after Ada in 1875?", "times": [1875]},
         "unknown time label: '1875'"),
        ({"qtype": "who_knows"}, "'who_knows' is not a valid QuestionType"),
        ({"answers": []}, "question 'q1' has no gold answers"),
        ({"entities": []}, "question 'q1' has no annotated entities"),
    ], ids=["unknown-answer", "annotation-not-in-text", "unknown-year", "bad-enum",
            "no-answers", "no-entities"])
    def test_every_line_error_names_the_file_and_the_line(self, tmp_path, tiny_store,
                                                           overrides, message):
        path = self.write(tmp_path, [self.record(uid="q0"), self.record(**overrides)])
        with pytest.raises(StoreError,
                           match=f"^{re.escape(str(path))}, line 2: {re.escape(message)}$"):
            load_questions(path, tiny_store)

    def test_bytes_that_are_not_utf8_rejected_naming_the_file(self, tmp_path, tiny_store):
        path = tmp_path / "questions.jsonl"
        path.write_bytes(json.dumps(self.record()).encode() + b"\n\xff\n")
        with pytest.raises(StoreError, match=f"^{re.escape(str(path))}, line 2: not UTF-8 text"):
            load_questions(path, tiny_store)

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
    def test_text_may_hold_unicode_line_separators(self, tmp_path, tiny_store, separator):
        text = f"Who leads the lab group{separator} after Ada?"
        path = tmp_path / "questions.jsonl"
        records = [self.record(text=text), self.record(uid="q2")]
        # CRLF and CR still end a line
        path.write_bytes(b"\r\n".join(json.dumps(r, ensure_ascii=False).encode("utf-8")
                                       for r in records) + b"\r")
        questions = load_questions(path, tiny_store)
        assert [q.uid for q in questions] == ["q1", "q2"]
        assert questions[0].text == text


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
