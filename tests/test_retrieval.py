import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tempkgqa.llm import TransportError
from tempkgqa.prompts import render_relation_ranking, render_time_mining
from tempkgqa.retrieval import (
    SUBGRAPH_SCHEMA,
    ConstraintKind,
    RetrievalError,
    RetrievedSubgraph,
    TemporalConstraint,
    anchor_facts,
    candidate_relations,
    constraint_from_record,
    constraint_record,
    lexical_rank,
    mine_time,
    rank_relations,
    retrieve_question,
    retrieve_subgraph,
    rule_time,
    subgraph_from_record,
    subgraph_record,
)
from tempkgqa import retrieval
from tempkgqa import store as store_module
from tempkgqa.store import (
    AnswerType,
    Quadruple,
    Question,
    QuestionType,
    StoreError,
    TkgStore,
    Vocabulary,
    facts_filtered,
    schema_problems,
)
from tempkgqa.synthetic import retrieval_stress

from conftest import build_store
from mock_llm import MockLlmClient, message_key


def make_question(store, text, entities, qtype=QuestionType.SIMPLE_ENTITY,
                  atype=AnswerType.ENTITY, uid="q0", gold=frozenset({0})):
    ids = tuple(store.entities.id(e) for e in entities)
    return Question(uid, text, ids, (), qtype, atype, gold)


class _FailingClient:
    def send(self, messages):
        raise TransportError("wire down")


def scripted_client(bundle, reply):
    return MockLlmClient(script={message_key(bundle.messages): reply})


class TestConstraint:
    def test_admits_by_kind(self):
        fact = Quadruple(0, 0, 1, 3, 6)
        admits = lambda constraint: bool(constraint.satisfied(fact.t_start, fact.t_end))
        assert admits(TemporalConstraint.none())
        assert admits(TemporalConstraint.at(3))
        assert admits(TemporalConstraint.at(6))
        assert not admits(TemporalConstraint.at(7))
        assert admits(TemporalConstraint.before(4))
        assert not admits(TemporalConstraint.before(3))  # strict start
        assert admits(TemporalConstraint.after(5))
        assert not admits(TemporalConstraint.after(6))  # strict end
        assert admits(TemporalConstraint.between(6, 9))
        assert admits(TemporalConstraint.between(0, 3))
        assert not admits(TemporalConstraint.between(7, 9))

    @pytest.mark.parametrize(
        "kind, t1, t2",
        [
            (ConstraintKind.NONE, 1, None),
            (ConstraintKind.AT, None, None),
            (ConstraintKind.AT, 1, 2),
            (ConstraintKind.BEFORE, None, None),
            (ConstraintKind.AFTER, 1, 2),
            (ConstraintKind.BETWEEN, 1, None),
            (ConstraintKind.BETWEEN, 5, 2),
        ],
    )
    def test_malformed_constraints_rejected(self, kind, t1, t2):
        with pytest.raises(ValueError):
            TemporalConstraint(kind, t1, t2)

    @given(
        start=st.integers(0, 20),
        length=st.integers(0, 20),
        t1=st.integers(0, 40),
        span=st.integers(0, 10),
        kind=st.sampled_from(list(ConstraintKind)),
    )
    def test_admits_matches_interval_arithmetic(self, start, length, t1, span, kind):
        fact = Quadruple(0, 0, 1, start, start + length)
        end = start + length
        if kind is ConstraintKind.BETWEEN:
            constraint = TemporalConstraint.between(t1, t1 + span)
            expected = not (end < t1 or t1 + span < start)
        elif kind is ConstraintKind.AT:
            constraint = TemporalConstraint.at(t1)
            expected = t1 in range(start, end + 1)
        elif kind is ConstraintKind.BEFORE:
            constraint = TemporalConstraint.before(t1)
            expected = start < t1
        elif kind is ConstraintKind.AFTER:
            constraint = TemporalConstraint.after(t1)
            expected = end > t1
        else:
            constraint = TemporalConstraint.none()
            expected = True
        assert bool(constraint.satisfied(fact.t_start, fact.t_end)) == expected


class TestCandidates:
    def test_incident_relations_in_first_occurrence_order(self, tiny_store):
        question = make_question(tiny_store, "who advised ada?", ["ada"])
        labels = [tiny_store.relations.label(r)
                  for r in candidate_relations(tiny_store, question)]
        assert labels == ["leads", "works at", "advises"]

    def test_no_annotated_entities_rejected(self, tiny_store):
        question = Question("q9", "who?", (), (), QuestionType.SIMPLE_ENTITY,
                            AnswerType.ENTITY, frozenset({0}))
        with pytest.raises(RetrievalError, match="q9"):
            candidate_relations(tiny_store, question)


class TestLexicalRank:
    def test_orders_by_token_f1(self, tiny_store):
        question = make_question(tiny_store, "Who leads the lab?", ["ada"])
        candidates = candidate_relations(tiny_store, question)
        ranked = lexical_rank(tiny_store, question, candidates)
        assert tiny_store.relations.label(ranked[0]) == "leads"

    def test_ties_keep_candidate_order(self, tiny_store):
        question = make_question(tiny_store, "zzz?", ["ada"])
        candidates = candidate_relations(tiny_store, question)
        assert lexical_rank(tiny_store, question, candidates) == candidates

    def test_underscores_in_labels_tokenize_as_spaces(self):
        store = build_store([
            ("a", "member_of_team", "b", 1990, 1990),
            ("a", "spouse", "c", 1990, 1990),
        ])
        question = make_question(store, "which team was a a member of?", ["a"])
        ranked = lexical_rank(store, question, candidate_relations(store, question))
        assert store.relations.label(ranked[0]) == "member_of_team"


class TestRankRelations:
    def question_and_candidates(self, store):
        question = make_question(store, "who advised ada?", ["ada"])
        candidates = candidate_relations(store, question)
        labels = [store.relations.label(r) for r in candidates]
        return question, candidates, labels

    def test_scripted_reply_is_used(self, tiny_store):
        question, candidates, labels = self.question_and_candidates(tiny_store)
        bundle = render_relation_ranking(question.text, labels, 2)
        client = scripted_client(bundle, "['advises', 'leads']")
        relations, used_fallback = rank_relations(client, tiny_store, question, candidates, 2)
        chosen = [tiny_store.relations.label(r) for r in relations]
        assert chosen == ["advises", "leads"]
        assert not used_fallback
        assert len(client.calls) == 1

    def test_short_reply_padded_from_lexical_order(self, tiny_store):
        question, candidates, labels = self.question_and_candidates(tiny_store)
        bundle = render_relation_ranking(question.text, labels, 3)
        client = scripted_client(bundle, "['works at']")
        relations, used_fallback = rank_relations(client, tiny_store, question, candidates, 3)
        chosen = [tiny_store.relations.label(r) for r in relations]
        assert chosen[0] == "works at"
        assert relations == tuple(dict.fromkeys(relations))
        assert len(relations) == 3
        assert not used_fallback

    def test_unknown_label_falls_back_to_lexical(self, tiny_store):
        question, candidates, labels = self.question_and_candidates(tiny_store)
        bundle = render_relation_ranking(question.text, labels, 2)
        client = scripted_client(bundle, "['born in', 'leads']")
        relations, used_fallback = rank_relations(client, tiny_store, question, candidates, 2)
        assert used_fallback
        assert relations == tuple(
            lexical_rank(tiny_store, question, candidates)[:2]
        )

    def test_prose_reply_falls_back(self, tiny_store):
        question, candidates, _ = self.question_and_candidates(tiny_store)
        client = MockLlmClient(default="I cannot answer that.")
        relations, used_fallback = rank_relations(client, tiny_store, question, candidates, 1)
        assert used_fallback
        assert relations == tuple(lexical_rank(tiny_store, question, candidates)[:1])

    def test_transport_error_is_wrapped(self, tiny_store):
        question, candidates, _ = self.question_and_candidates(tiny_store)
        with pytest.raises(RetrievalError, match="transport"):
            rank_relations(_FailingClient(), tiny_store, question, candidates, 1)

    def test_no_client_takes_the_lexical_top_k_unflagged(self, tiny_store):
        question, candidates, _ = self.question_and_candidates(tiny_store)
        assert rank_relations(None, tiny_store, question, candidates, 2) == (
            tuple(lexical_rank(tiny_store, question, candidates)[:2]), False)

    def test_bad_arguments_rejected(self, tiny_store):
        question, candidates, _ = self.question_and_candidates(tiny_store)
        client = MockLlmClient(default="[]")
        with pytest.raises(RetrievalError):
            rank_relations(client, tiny_store, question, [], 1)
        with pytest.raises(RetrievalError):
            rank_relations(client, tiny_store, question, candidates, 0)


class TestAnchorFacts:
    def test_linked_facts_come_before_touched(self, tiny_store):
        question = make_question(tiny_store, "when did dan advise ada?",
                                 ["dan", "ada"], QuestionType.SIMPLE_TIME,
                                 AnswerType.TIME)
        relations = list(range(len(tiny_store.relations)))
        anchors = anchor_facts(tiny_store, question, relations)
        first = anchors[0]
        assert tiny_store.entities.label(first.subject) == "dan"
        assert tiny_store.entities.label(first.object) == "ada"
        by_entity = looped_index(tiny_store)
        assert len(anchors) == len(by_entity[tiny_store.entities.id("dan")]) + len(
            by_entity[tiny_store.entities.id("ada")]) - 1

    def test_groups_sorted_by_interval_then_insertion(self, tiny_store):
        question = make_question(tiny_store, "ben?", ["ben"])
        anchors = anchor_facts(tiny_store, question,
                               range(len(tiny_store.relations)))
        keys = [(f.t_start, f.t_end) for f in anchors]
        assert keys == sorted(keys)

    def test_restricts_to_given_relations(self, tiny_store):
        question = make_question(tiny_store, "ada?", ["ada"])
        leads = tiny_store.relations.id("leads")
        anchors = anchor_facts(tiny_store, question, [leads])
        assert {f.relation for f in anchors} == {leads}


class TestRuleTime:
    def test_explicit_year_wins(self, tiny_store):
        question = make_question(tiny_store, "who led the lab in 1996?", ["ada"],
                                 QuestionType.BEFORE_AFTER)
        anchor = tiny_store.facts[0]
        constraint = rule_time(tiny_store, question, [anchor])
        assert constraint == TemporalConstraint.at(tiny_store.times.id("1996"))

    def test_out_of_vocabulary_year_ignored(self, tiny_store):
        question = make_question(tiny_store, "who led the lab in 1896?", ["ada"])
        assert rule_time(tiny_store, question, []) == TemporalConstraint.none()

    def test_after_keyword_takes_anchor_end(self, tiny_store):
        question = make_question(tiny_store, "who led the lab after ada?",
                                 ["ada"], QuestionType.BEFORE_AFTER)
        anchor = tiny_store.facts[0]  # ada leads lab [1990, 1994]
        constraint = rule_time(tiny_store, question, [anchor])
        assert constraint == TemporalConstraint.after(anchor.t_end)

    def test_before_keyword_takes_anchor_start(self, tiny_store):
        question = make_question(tiny_store, "who led the lab before ben?",
                                 ["ben"], QuestionType.BEFORE_AFTER)
        anchor = tiny_store.facts[1]  # ben leads lab [1995, 1998]
        constraint = rule_time(tiny_store, question, [anchor])
        assert constraint == TemporalConstraint.before(anchor.t_start)

    def test_time_join_spans_anchor_interval(self, tiny_store):
        question = make_question(tiny_store, "who worked at the mill while ada led the lab?",
                                 ["ada"], QuestionType.TIME_JOIN)
        anchor = tiny_store.facts[0]
        constraint = rule_time(tiny_store, question, [anchor])
        assert constraint == TemporalConstraint.between(anchor.t_start, anchor.t_end)

    def test_first_last_and_missing_anchor_unconstrained(self, tiny_store):
        question = make_question(tiny_store, "who led the lab first?", ["ada"],
                                 QuestionType.FIRST_LAST)
        assert rule_time(tiny_store, question, [tiny_store.facts[0]]) == TemporalConstraint.none()
        after = make_question(tiny_store, "who led after ada?", ["ada"],
                              QuestionType.BEFORE_AFTER)
        assert rule_time(tiny_store, after, []) == TemporalConstraint.none()


class TestMineTime:
    def anchored_question(self, store):
        question = make_question(store, "who led the lab after ada?", ["ada"],
                                 QuestionType.BEFORE_AFTER)
        return question, [store.facts[0]]

    def test_explicit_year_never_calls_client(self, tiny_store):
        question = make_question(tiny_store, "who led the lab in 1996?", ["ada"],
                                 QuestionType.BEFORE_AFTER)
        client = MockLlmClient()  # unscripted: any call would raise
        mined = mine_time(client, tiny_store, question, [tiny_store.facts[0]])
        assert mined == (TemporalConstraint.at(tiny_store.times.id("1996")), False)
        assert client.calls == []

    def test_unanchored_types_never_call_client(self, tiny_store):
        question = make_question(tiny_store, "who led the lab first?", ["ada"],
                                 QuestionType.FIRST_LAST)
        client = MockLlmClient()
        mined = mine_time(client, tiny_store, question, [tiny_store.facts[0]])
        assert mined == (TemporalConstraint.none(), False)
        assert client.calls == []

    @pytest.mark.parametrize(
        "reply, expected",
        [
            ("after 1994", TemporalConstraint.after),
            ("before 1994", TemporalConstraint.before),
        ],
    )
    def test_directional_replies_parse(self, tiny_store, reply, expected):
        question, anchors = self.anchored_question(tiny_store)
        client = MockLlmClient(default=reply)
        mined = mine_time(client, tiny_store, question, anchors)
        assert mined == (expected(tiny_store.times.id("1994")), False)

    def test_between_reply_parses(self, tiny_store):
        question = make_question(tiny_store, "who worked while ada led?", ["ada"],
                                 QuestionType.TIME_JOIN)
        client = MockLlmClient(default="the overlap is between 1990 and 1994.")
        constraint, _ = mine_time(client, tiny_store, question, [tiny_store.facts[0]])
        assert constraint == TemporalConstraint.between(
            tiny_store.times.id("1990"), tiny_store.times.id("1994"))

    def test_unusable_reply_falls_back_to_rule(self, tiny_store):
        question, anchors = self.anchored_question(tiny_store)
        client = MockLlmClient(default="hard to say")
        mined = mine_time(client, tiny_store, question, anchors)
        assert mined == (rule_time(tiny_store, question, anchors), True)

    def test_out_of_vocabulary_year_falls_back(self, tiny_store):
        question, anchors = self.anchored_question(tiny_store)
        client = MockLlmClient(default="after 1875")
        _, used_fallback = mine_time(client, tiny_store, question, anchors)
        assert used_fallback

    def test_backwards_between_reply_falls_back(self, tiny_store):
        question, anchors = self.anchored_question(tiny_store)
        client = MockLlmClient(default="between 1994 and 1990")
        assert mine_time(client, tiny_store, question, anchors) == (
            rule_time(tiny_store, question, anchors), True)

    @pytest.mark.parametrize("reply, kind", [
        ("after 1990, or between 1990 and 1994", ConstraintKind.BETWEEN),
        ("before 1994 and after 1990", ConstraintKind.AFTER),
        ("before 1990 and after 1875", None),
    ])
    def test_first_pattern_in_between_after_before_order_wins(self, tiny_store,
                                                               reply, kind):
        question, anchors = self.anchored_question(tiny_store)
        constraint, used_fallback = mine_time(MockLlmClient(default=reply), tiny_store,
                                              question, anchors)
        assert used_fallback is (kind is None)
        if kind is not None:
            assert constraint.kind is kind

    def test_no_client_takes_the_rule_unflagged(self, tiny_store):
        question, anchors = self.anchored_question(tiny_store)
        assert mine_time(None, tiny_store, question, anchors) == (
            rule_time(tiny_store, question, anchors), False)

    def test_no_anchor_never_calls_client(self, tiny_store):
        question, _ = self.anchored_question(tiny_store)
        client = MockLlmClient()
        assert mine_time(client, tiny_store, question, []) == (TemporalConstraint.none(), False)
        assert client.calls == []

    def test_transport_error_is_wrapped(self, tiny_store):
        question, anchors = self.anchored_question(tiny_store)
        with pytest.raises(RetrievalError, match="transport"):
            mine_time(_FailingClient(), tiny_store, question, anchors)


class TestRetrieveSubgraph:
    def test_filters_sorts_and_truncates(self, tiny_store):
        question = make_question(tiny_store, "ben?", ["ben"])
        relations = [tiny_store.relations.id("leads"),
                     tiny_store.relations.id("works at")]
        subgraph = retrieve_subgraph(tiny_store, question, relations,
                                     TemporalConstraint.none(), 1)
        assert len(subgraph.facts) == 1
        assert subgraph.facts[0].t_start == tiny_store.times.id("1990")
        assert not subgraph.fallback_relation and not subgraph.fallback_time

    def test_fallback_flags_recorded_as_given(self, tiny_store):
        question = make_question(tiny_store, "ben?", ["ben"])
        subgraph = retrieve_subgraph(tiny_store, question, [0], TemporalConstraint.none(), 1,
                                     fallback_relation=True, fallback_time=False)
        assert subgraph.fallback_relation and not subgraph.fallback_time

    def test_constraint_restricts_facts(self, tiny_store):
        question = make_question(tiny_store, "ben?", ["ben"])
        relations = [tiny_store.relations.id("leads")]
        at = TemporalConstraint.at(tiny_store.times.id("1996"))
        subgraph = retrieve_subgraph(tiny_store, question, relations, at, 10)
        assert [tiny_store.entities.label(f.subject) for f in subgraph.facts] == ["ben"]

    def test_empty_result_is_flagged_not_fatal(self, tiny_store):
        question = make_question(tiny_store, "dan led?", ["dan"])
        subgraph = retrieve_subgraph(tiny_store, question,
                                     [tiny_store.relations.id("leads")],
                                     TemporalConstraint.none(), 5)
        assert subgraph.empty

    def test_bad_arguments_rejected(self, tiny_store):
        question = make_question(tiny_store, "ben?", ["ben"])
        with pytest.raises(RetrievalError):
            retrieve_subgraph(tiny_store, question, [], TemporalConstraint.none(), 5)
        with pytest.raises(RetrievalError):
            retrieve_subgraph(tiny_store, question, [0], TemporalConstraint.none(), 0)


class TestRetrieveQuestion:
    def test_oracle_path_composes_lexical_and_rule(self, tiny_store):
        question = make_question(tiny_store, "who leads the lab after ada?",
                                 ["ada", "lab"], QuestionType.BEFORE_AFTER)
        subgraph = retrieve_question(tiny_store, question, None,
                                     top_k=1, max_facts=10)
        candidates = candidate_relations(tiny_store, question)
        expected_relations = tuple(lexical_rank(tiny_store, question, candidates)[:1])
        assert subgraph.relations == expected_relations
        anchors = anchor_facts(tiny_store, question, expected_relations)
        assert subgraph.constraint == rule_time(tiny_store, question, anchors)
        assert not subgraph.fallback_relation and not subgraph.fallback_time
        # ada's own reign ends 1994; only the later holders survive the filter
        subjects = {tiny_store.entities.label(f.subject) for f in subgraph.facts}
        assert subjects == {"ben", "cara"}

    def test_oracle_flag_suppresses_client_calls(self, tiny_store):
        question = make_question(tiny_store, "who leads the lab after ada?",
                                 ["ada"], QuestionType.BEFORE_AFTER)
        client = MockLlmClient()  # would raise if consulted
        with_client = retrieve_question(tiny_store, question, client,
                                        top_k=1, max_facts=10, oracle=True)
        without = retrieve_question(tiny_store, question, None,
                                    top_k=1, max_facts=10)
        assert client.calls == []
        assert with_client == without

    @pytest.mark.parametrize("qtype", list(QuestionType))
    def test_no_client_runs_each_oracle_once(self, tiny_store, monkeypatch, qtype):
        calls = []
        for name in ("lexical_rank", "rule_time"):
            def counted(*args, _name=name, _original=getattr(retrieval, name)):
                calls.append(_name)
                return _original(*args)
            monkeypatch.setattr(retrieval, name, counted)
        question = make_question(tiny_store, "who leads the lab after ada?",
                                 ["ada", "lab"], qtype)
        retrieve_question(tiny_store, question, None, top_k=1, max_facts=10)
        retrieve_question(tiny_store, question, MockLlmClient(), top_k=1, max_facts=10,
                          oracle=True)
        assert calls == ["lexical_rank", "rule_time"] * 2

    def test_entity_without_facts_yields_empty_sentinel(self):
        entities = Vocabulary("entity", ["a", "b", "ghost"])
        relations = Vocabulary("relation", ["knows"])
        times = Vocabulary("time", ["1990"])
        store = TkgStore(entities, relations, times, [Quadruple(0, 0, 1, 0, 0)])
        question = Question("q7", "ghost?", (entities.id("ghost"),), (),
                            QuestionType.SIMPLE_ENTITY, AnswerType.ENTITY,
                            frozenset({0}))
        subgraph = retrieve_question(store, question, None, top_k=1, max_facts=5)
        assert subgraph.empty
        assert subgraph.relations == ()
        assert subgraph.constraint == TemporalConstraint.none()

    def test_mock_client_path_uses_scripted_ranking(self, tiny_store):
        question = make_question(tiny_store, "who advised ada?", ["ada"])
        candidates = candidate_relations(tiny_store, question)
        labels = [tiny_store.relations.label(r) for r in candidates]
        bundle = render_relation_ranking(question.text, labels, 1)
        client = MockLlmClient(script={message_key(bundle.messages): "['advises']"},
                               default="nonsense")
        subgraph = retrieve_question(tiny_store, question, client,
                                     top_k=1, max_facts=10)
        assert [tiny_store.relations.label(r) for r in subgraph.relations] == ["advises"]
        assert not subgraph.fallback_relation

    def test_fallback_flags_set_by_the_one_retrieve_subgraph_call(self, tiny_store,
                                                                  monkeypatch):
        question = make_question(tiny_store, "who leads the lab after ada?",
                                 ["ada", "lab"], QuestionType.BEFORE_AFTER)
        built = []
        original = retrieval.retrieve_subgraph

        def recorded(*args, **kwargs):
            built.append(original(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(retrieval, "retrieve_subgraph", recorded)
        subgraph = retrieve_question(tiny_store, question, MockLlmClient(default="nonsense"),
                                     top_k=1, max_facts=10)
        assert subgraph.fallback_relation and subgraph.fallback_time
        assert len(built) == 1 and built[0] is subgraph


def eager_rule_time(store, question, anchors):
    """Reference: the constraint oracle as it read ``anchors[0]`` for every
    question type."""
    explicit = retrieval._first_vocabulary_year(store, question.text)
    if explicit is not None:
        return TemporalConstraint.at(explicit)
    anchor = anchors[0] if anchors else None
    if question.qtype in (QuestionType.BEFORE_AFTER, QuestionType.IMPLICIT) and anchor:
        direction = retrieval._keyword_direction(question.text)
        if direction == "after":
            return TemporalConstraint.after(anchor.t_end)
        if direction == "before":
            return TemporalConstraint.before(anchor.t_start)
    if question.qtype in (QuestionType.TIME_JOIN, QuestionType.TEMPORAL) and anchor:
        return TemporalConstraint.between(anchor.t_start, anchor.t_end)
    return TemporalConstraint.none()


def eager_retrieve(store, question, client, *, top_k, max_facts):
    """Reference: :func:`retrieve_question` with the anchors looked up for
    every question, whether or not a time rule reads them."""
    candidates = candidate_relations(store, question)
    if not candidates:
        return RetrievedSubgraph(question.uid, (), (), TemporalConstraint.none())
    fallback_relation = fallback_time = False
    if client is None:
        relations = tuple(lexical_rank(store, question, candidates)[:top_k])
    else:
        relations, fallback_relation = rank_relations(client, store, question, candidates,
                                                      top_k)
    anchors = anchor_facts(store, question, relations)
    if client is None:
        constraint = eager_rule_time(store, question, anchors)
    else:
        constraint, fallback_time = mine_time(client, store, question, anchors)
    subgraph = retrieve_subgraph(store, question, relations, constraint, max_facts)
    return replace(subgraph, fallback_relation=fallback_relation,
                   fallback_time=fallback_time)


class TestAnchorsOnlyWhenRead:
    def counted_anchor_facts(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[1].uid)
            return anchor_facts(*args)

        monkeypatch.setattr(retrieval, "anchor_facts", counted)
        return calls

    @pytest.mark.parametrize("text, qtype, looked_up", [
        ("who leads the lab?", QuestionType.SIMPLE_ENTITY, False),
        ("who led the lab first?", QuestionType.FIRST_LAST, False),
        ("who leads the lab after ada?", QuestionType.BEFORE_AFTER, True),
        ("who led the lab in 1990 after ada?", QuestionType.BEFORE_AFTER, False),
        ("who led the lab in 2050 after ada?", QuestionType.BEFORE_AFTER, True),
        ("who worked at the mill while ada led the lab?", QuestionType.TIME_JOIN, True),
    ])
    def test_anchor_lookup_only_when_a_rule_reads_it(self, tiny_store, monkeypatch,
                                                     text, qtype, looked_up):
        calls = self.counted_anchor_facts(monkeypatch)
        question = make_question(tiny_store, text, ["ada", "lab"], qtype)
        for client in (None, MockLlmClient(default="after 1995")):
            got = retrieve_question(tiny_store, question, client, top_k=2, max_facts=10)
            assert calls == ["q0"] * looked_up
            calls.clear()
            assert got == eager_retrieve(tiny_store, question, client, top_k=2, max_facts=10)

    @pytest.mark.parametrize("qtype", list(QuestionType))
    def test_rule_time_matches_the_eager_reference(self, tiny_store, qtype):
        question = make_question(tiny_store, "", ["ada", "lab"], qtype)
        for text in ("who led the lab after ada?", "who led the lab before ada?",
                     "who led the lab while ada did?", "who led the lab in 1995?",
                     "who led the lab after ada in 2050?"):
            for anchors in ([], [tiny_store.facts[1]], tiny_store.facts[:2]):
                asked = replace(question, text=text)
                assert (rule_time(tiny_store, asked, anchors)
                        == eager_rule_time(tiny_store, asked, anchors)), (text, anchors)

    def assert_matches_eager(self, store, questions, top_k=2, max_facts=10):
        kinds = set()
        for question in questions:
            assert (retrieve_question(store, question, None, top_k=top_k, max_facts=max_facts)
                    == eager_retrieve(store, question, None, top_k=top_k,
                                      max_facts=max_facts)), question.uid
            eager_client = MockLlmClient(default="after 1905")
            lazy_client = MockLlmClient(default="after 1905")
            assert (retrieve_question(store, question, lazy_client, top_k=top_k,
                                      max_facts=max_facts)
                    == eager_retrieve(store, question, eager_client, top_k=top_k,
                                      max_facts=max_facts)), question.uid
            assert lazy_client.calls == eager_client.calls
            kinds.add(question.qtype)
        return kinds

    def test_desk_questions_match_eager_anchors(self, desk_store, desk_train, desk_test):
        kinds = self.assert_matches_eager(desk_store, desk_train + desk_test, top_k=1)
        assert kinds & set(store_module.ANCHORED_TYPES)
        assert kinds - set(store_module.ANCHORED_TYPES)

    @pytest.mark.parametrize("seed", range(2))
    def test_stress_questions_match_eager_anchors(self, seed):
        store, questions = retrieval_stress(seed=seed, n_entities=120, n_facts=900,
                                            n_questions=150)
        kinds = self.assert_matches_eager(store, questions)
        assert kinds == {QuestionType.SIMPLE_ENTITY, QuestionType.SIMPLE_TIME,
                         QuestionType.BEFORE_AFTER, QuestionType.FIRST_LAST,
                         QuestionType.TIME_JOIN}


class TestRecords:
    def test_constraint_roundtrip_uses_year_labels(self, tiny_store):
        constraint = TemporalConstraint.between(tiny_store.times.id("1990"),
                                                tiny_store.times.id("1994"))
        record = constraint_record(tiny_store, constraint)
        assert record == {"kind": "between", "t1": 1990, "t2": 1994}
        assert constraint_from_record(tiny_store, record) == constraint

    def test_none_constraint_roundtrip(self, tiny_store):
        record = constraint_record(tiny_store, TemporalConstraint.none())
        assert record == {"kind": "none", "t1": None, "t2": None}
        assert constraint_from_record(tiny_store, record) == TemporalConstraint.none()

    def test_subgraph_roundtrip(self, tiny_store):
        question = make_question(tiny_store, "who leads the lab after ada?",
                                 ["ada"], QuestionType.BEFORE_AFTER)
        subgraph = retrieve_question(tiny_store, question, None,
                                     top_k=2, max_facts=3)
        record = subgraph_record(tiny_store, subgraph)
        assert record["uid"] == "q0"
        assert all("|" in fact for fact in record["facts"])
        assert subgraph_from_record(tiny_store, record) == subgraph

    def test_empty_subgraph_roundtrip(self, tiny_store):
        empty = RetrievedSubgraph("q5", (), (tiny_store.relations.id("leads"),),
                                  TemporalConstraint.none())
        record = subgraph_record(tiny_store, empty)
        assert record["facts"] == []
        assert subgraph_from_record(tiny_store, record) == empty


# ---------------------------------------------------------------------------
# the columnar scans against per-fact loops
# ---------------------------------------------------------------------------

def looped_index(store):
    """Per-entity fact ids built fact by fact: subject, then object unless the
    fact is a self-loop."""
    by_entity = {}
    for fact_id, fact in enumerate(store.facts):
        by_entity.setdefault(fact.subject, []).append(fact_id)
        if fact.object != fact.subject:
            by_entity.setdefault(fact.object, []).append(fact_id)
    return by_entity


def looped_admits(constraint, fact):
    kind, t1, t2 = constraint.kind, constraint.t1, constraint.t2
    if kind is ConstraintKind.NONE:
        return True
    if kind is ConstraintKind.AT:
        return fact.t_start <= t1 <= fact.t_end
    if kind is ConstraintKind.BEFORE:
        return fact.t_start < t1
    if kind is ConstraintKind.AFTER:
        return fact.t_end > t1
    return max(fact.t_start, t1) <= min(fact.t_end, t2)


def looped_sort_key(store):
    return lambda fact_id: (store.facts[fact_id].t_start, store.facts[fact_id].t_end, fact_id)


def looped_candidate_relations(store, by_entity, question):
    seen = {}
    for entity in question.entities:
        for fact_id in by_entity.get(entity, ()):
            seen.setdefault(store.facts[fact_id].relation, None)
    return list(seen)


def looped_anchor_facts(store, by_entity, question, relations):
    annotated = set(question.entities)
    relation_set = set(relations)
    linked, touched, seen = [], [], set()
    for entity in question.entities:
        for fact_id in by_entity.get(entity, ()):
            if fact_id in seen:
                continue
            seen.add(fact_id)
            fact = store.facts[fact_id]
            if fact.relation not in relation_set:
                continue
            if fact.subject in annotated and fact.object in annotated:
                linked.append(fact_id)
            else:
                touched.append(fact_id)
    linked.sort(key=looped_sort_key(store))
    touched.sort(key=looped_sort_key(store))
    return [store.facts[i] for i in linked + touched]


def looped_facts_filtered(store, by_entity, entities, relations, constraint):
    relation_set = set(relations)
    candidate_ids = set()
    for entity in set(entities):
        candidate_ids.update(by_entity.get(entity, ()))
    kept = [
        fact_id for fact_id in candidate_ids
        if store.facts[fact_id].relation in relation_set
        and looped_admits(constraint, store.facts[fact_id])
    ]
    kept.sort(key=looped_sort_key(store))
    return [store.facts[i] for i in kept]


N_ENTITIES, N_GHOSTS, N_RELATIONS, N_TIMES = 200, 5, 8, 40


def zipf_store(seed):
    """Seeded store whose subjects follow Zipf's law (a few hubs with hundreds
    of facts), with self-loops and ``N_GHOSTS`` entities that have no facts."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, N_ENTITIES + 1)
    n_facts = 3000
    subjects = rng.choice(N_ENTITIES, size=n_facts, p=weights / weights.sum())
    objects = rng.integers(0, N_ENTITIES, size=n_facts)
    loops = rng.random(n_facts) < 0.05
    objects[loops] = subjects[loops]
    starts = rng.integers(0, N_TIMES - 6, size=n_facts)
    ends = starts + rng.integers(0, 6, size=n_facts)
    relations = rng.integers(0, N_RELATIONS, size=n_facts)
    facts = [Quadruple(*map(int, row))
             for row in zip(subjects, relations, objects, starts, ends)]
    return TkgStore(
        Vocabulary("entity", (f"e{i}" for i in range(N_ENTITIES + N_GHOSTS))),
        Vocabulary("relation", (f"r{i}" for i in range(N_RELATIONS))),
        Vocabulary("time", (str(1900 + i) for i in range(N_TIMES))),
        facts,
    )


def random_constraint(rng, kind):
    t1 = int(rng.integers(0, N_TIMES))
    if kind is ConstraintKind.NONE:
        return TemporalConstraint.none()
    if kind is ConstraintKind.BETWEEN:
        return TemporalConstraint.between(t1, min(N_TIMES - 1, t1 + int(rng.integers(0, 8))))
    return TemporalConstraint(kind, t1)


def sampled_questions(store, rng, count):
    """Single-entity questions (hubs, self-loop entities and ghosts among them)
    and multi-entity ones, half of them built around a linking fact."""
    loop_entities = sorted({f.subject for f in store.facts if f.subject == f.object})
    pools = [
        lambda: (0,), lambda: (1,),
        lambda: (int(rng.choice(loop_entities)),),
        lambda: (N_ENTITIES + int(rng.integers(0, N_GHOSTS)),),
        lambda: (int(rng.integers(0, N_ENTITIES)),),
        lambda: tuple(int(e) for e in rng.choice(N_ENTITIES + N_GHOSTS, size=3)),
    ]
    questions = []
    for index in range(count):
        if index % 2:
            fact = store.facts[int(rng.integers(len(store.facts)))]
            others = (int(rng.integers(0, N_ENTITIES + N_GHOSTS)),) * int(rng.integers(0, 2))
            entities = (fact.object, fact.subject) + others
        else:
            entities = pools[index // 2 % len(pools)]()
        questions.append(Question(f"q{index}", "which relation?", entities, (),
                                  QuestionType.SIMPLE_ENTITY, AnswerType.ENTITY,
                                  frozenset({0})))
    return questions


class TestColumnarScansMatchLoops:
    @pytest.fixture(scope="class", params=[0, 1, 2])
    def world(self, request):
        store = zipf_store(request.param)
        return store, looped_index(store), np.random.default_rng(100 + request.param)

    def test_store_has_hubs_loops_and_ghosts(self, world):
        store, by_entity, _ = world
        assert max(len(ids) for ids in by_entity.values()) > 300
        assert any(f.subject == f.object for f in store.facts)
        assert all(N_ENTITIES + g not in by_entity for g in range(N_GHOSTS))

    def test_runs_match_the_looped_index(self, world):
        """Every (entity, relation) run holds the entity's facts under that
        relation, in (t_start, t_end, id) order."""
        store, by_entity, _ = world
        for entity in range(len(store.entities)):
            for relation in range(N_RELATIONS):
                expected = sorted((i for i in by_entity.get(entity, ())
                                   if store.facts[i].relation == relation),
                                  key=looped_sort_key(store))
                assert store.incident_facts([entity], [relation]).tolist() == expected

    def test_runs_cover_both_roles_and_a_self_loop_once(self, world):
        store, by_entity, _ = world
        for entity in range(len(store.entities)):
            ids = store.incident_facts([entity], range(N_RELATIONS)).tolist()
            assert sorted(ids) == by_entity.get(entity, [])
            assert len(ids) == len(set(ids))
            assert sorted(ids, key=looped_sort_key(store)) == ids

    def test_index_is_read_only(self, world):
        store, _, _ = world
        arrays = [value for name, value in vars(store).items()
                  if name.startswith(("_run", "_entity", "_by_time"))]
        assert len(arrays) == 6
        for array in arrays:
            assert isinstance(array, np.ndarray) and not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[:1] = 0

    def test_entity_relations_in_first_fact_order(self, world):
        store, by_entity, _ = world
        for entity in range(len(store.entities)):
            question = Question("q", "which relation?", (entity,), (),
                                QuestionType.SIMPLE_ENTITY, AnswerType.ENTITY, frozenset({0}))
            assert (candidate_relations(store, question)
                    == looped_candidate_relations(store, by_entity, question))

    def test_candidate_relations(self, world):
        store, by_entity, rng = world
        for question in sampled_questions(store, rng, 120):
            assert (candidate_relations(store, question)
                    == looped_candidate_relations(store, by_entity, question))

    def test_anchor_facts(self, world):
        store, by_entity, rng = world
        for question in sampled_questions(store, rng, 120):
            relations = rng.choice(N_RELATIONS, size=int(rng.integers(1, 4)), replace=False)
            relations = [int(r) for r in relations]
            assert (anchor_facts(store, question, relations)
                    == looped_anchor_facts(store, by_entity, question, relations))

    @pytest.mark.parametrize("kind", list(ConstraintKind))
    def test_facts_filtered(self, world, kind):
        store, by_entity, rng = world
        nonempty = 0
        for question in sampled_questions(store, rng, 120):
            relations = [int(r) for r in rng.choice(N_RELATIONS, size=2, replace=False)]
            constraint = random_constraint(rng, kind)
            got = facts_filtered(store, question.entities, relations, constraint)
            assert got == looped_facts_filtered(
                store, by_entity, question.entities, relations, constraint)
            nonempty += bool(got)
        assert nonempty > 20

    def test_linked_facts_present(self, world):
        store, by_entity, rng = world
        relations = list(range(N_RELATIONS))
        linked = 0
        for question in sampled_questions(store, rng, 60):
            anchors = anchor_facts(store, question, relations)
            linked += sum(f.subject in question.entities and f.object in question.entities
                          for f in anchors)
        assert linked > 0


class TestRunIndexEdges:
    def question(self, *entities):
        return Question("q", "which relation?", entities, (), QuestionType.SIMPLE_ENTITY,
                        AnswerType.ENTITY, frozenset({0}))

    @pytest.mark.parametrize("entities", [
        (0, 0), (1, N_ENTITIES, 1), (N_ENTITIES,), (N_ENTITIES + N_GHOSTS,), (-1,),
        (2, N_ENTITIES + N_GHOSTS, 0, -1, 2),
    ], ids=["repeated", "ghost", "ghost-only", "past-the-end", "negative", "mixed"])
    def test_repeated_ghost_and_out_of_range_ids(self, entities):
        store = zipf_store(0)
        by_entity = looped_index(store)
        question = self.question(*entities)
        relations = list(range(N_RELATIONS))
        assert (candidate_relations(store, question)
                == looped_candidate_relations(store, by_entity, question))
        assert (anchor_facts(store, question, relations)
                == looped_anchor_facts(store, by_entity, question, relations))
        assert (facts_filtered(store, entities, relations, TemporalConstraint.none())
                == looped_facts_filtered(store, by_entity, entities, relations,
                                         TemporalConstraint.none()))

    @pytest.mark.parametrize("entity", [N_ENTITIES + N_GHOSTS, -1])
    def test_out_of_range_id_gives_nothing(self, entity):
        store = zipf_store(0)
        question = self.question(entity)
        assert candidate_relations(store, question) == []
        assert len(anchor_facts(store, question, range(N_RELATIONS))) == 0
        assert len(facts_filtered(store, (entity,), range(N_RELATIONS),
                                  TemporalConstraint.none())) == 0

    def test_single_entity_self_loop_anchors_first(self):
        store = build_store([
            ("a", "r", "b", 1990, 1990),
            ("c", "r", "a", 1991, 1992),
            ("a", "r", "a", 1995, 1999),
            ("a", "r", "c", 1989, 1993),
        ])
        anchors = anchor_facts(store, make_question(store, "a?", ["a"]), [0])
        assert [(f.subject, f.object) for f in anchors] == [(0, 0), (0, 2), (0, 1), (2, 0)]
        assert [store.year(f.t_start) for f in anchors] == [1995, 1989, 1990, 1991]


class TestQuadruplesBuiltOnRead:
    def test_retrieval_builds_the_kept_facts_and_one_anchor(self, monkeypatch):
        """Hub questions select hundreds of facts, yet a question builds at
        most ``max_facts`` quadruples plus the anchor that sets the time."""
        built = []

        class Counted(Quadruple):
            __slots__ = ()

            @classmethod
            def _make(cls, iterable):
                built.append(None)
                return super()._make(iterable)

        store = zipf_store(0)
        questions = [replace(q, qtype=QuestionType.TIME_JOIN)
                     for q in sampled_questions(store, np.random.default_rng(0), 120)]
        selected = [len(anchor_facts(store, q, range(N_RELATIONS))) for q in questions]
        assert max(selected) > 300
        monkeypatch.setattr(store_module, "Quadruple", Counted)
        per_question = []
        for question in questions:
            before = len(built)
            subgraph = retrieve_question(store, question, None, top_k=N_RELATIONS, max_facts=10)
            per_question.append(len(built) - before)
            assert per_question[-1] <= len(subgraph.facts) + 1
        assert max(per_question) == 11


class TestDumpFactsUseTheStoreCodec:
    @pytest.mark.parametrize("fact, message", [
        ("ada|leads|lab|1990", "expected 5 '|'-separated fields, got 4"),
        ("ada|leads|lab|1994|1990", "start year 1994 after end year 1990"),
        ("ada|leads|zoo|1990|1994", "unknown entity label: 'zoo'"),
        ("ada|leads|lab|1990|1899", "start year 1990 after end year 1899"),
        ("ada|leads|lab|1990|2099", "unknown time label: '2099'"),
    ])
    def test_malformed_fact_rejected(self, tiny_store, fact, message):
        record = {"uid": "q", "facts": [fact], "relations": [],
                  "constraint": {"kind": "none"}, "empty": False}
        with pytest.raises(StoreError, match=f"fact {fact!r}: {message}"):
            subgraph_from_record(tiny_store, record)


# ---------------------------------------------------------------------------
# dump records round-trip
# ---------------------------------------------------------------------------

RECORD_STORE = build_store([
    ("ada", "leads", "lab", 1990, 1994),
    ("ben", "leads", "lab", 1995, 1998),
    ("cara", "leads", "lab", 1999, 2001),
    ("ada", "works at", "mill", 1988, 1996),
    ("ben", "works at", "mill", 1990, 1999),
    ("dan", "advises", "ada", 1991, 1993),
    ("eve", "knows", "eve", 2001, 2001),
])
TIME_IDS = st.integers(0, len(RECORD_STORE.times) - 1)


@st.composite
def constraints(draw):
    kind = draw(st.sampled_from(list(ConstraintKind)))
    if kind is ConstraintKind.NONE:
        return TemporalConstraint.none()
    t1 = draw(TIME_IDS)
    if kind is ConstraintKind.BETWEEN:
        return TemporalConstraint.between(t1, draw(st.integers(t1, len(RECORD_STORE.times) - 1)))
    return TemporalConstraint(kind, t1)


@st.composite
def subgraphs(draw):
    return RetrievedSubgraph(
        draw(st.text(max_size=12)),
        tuple(draw(st.lists(st.sampled_from(RECORD_STORE.facts), max_size=6))),
        tuple(draw(st.lists(st.integers(0, len(RECORD_STORE.relations) - 1), max_size=3))),
        draw(constraints()),
        draw(st.booleans()),
        draw(st.booleans()),
    )


class TestRecordRoundTrips:
    @given(constraints())
    def test_constraint_record_roundtrip(self, constraint):
        record = json.loads(json.dumps(constraint_record(RECORD_STORE, constraint)))
        assert constraint_from_record(RECORD_STORE, record) == constraint

    @given(subgraphs())
    def test_subgraph_record_roundtrip(self, subgraph):
        record = json.loads(json.dumps(subgraph_record(RECORD_STORE, subgraph)))
        assert schema_problems(record, SUBGRAPH_SCHEMA) == []
        assert subgraph_from_record(RECORD_STORE, record) == subgraph
