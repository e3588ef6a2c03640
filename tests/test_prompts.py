import pytest

from tempkgqa import prompts
from tempkgqa.prompts import (
    PromptError,
    evidence_set_plain,
    evidence_set_quoted,
    fact_fields,
    quoted_list,
    render_baseline,
    render_instruction,
    render_relation_ranking,
    render_time_mining,
    serialize_fact,
)
from tempkgqa.retrieval import anchor_facts, candidate_relations, retrieve_question

from conftest import GOLDEN


def golden_text(name):
    return (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def golden_inputs(desk_store, desk_train, desk_test):
    """The same question/evidence pairs the golden files were rendered from."""
    question = next(q for q in desk_test if q.qtype.value == "before_after")
    train_question = next(q for q in desk_train if q.qtype.value == "simple_entity")
    subgraph = retrieve_question(desk_store, question, None,
                                 top_k=1, max_facts=10, oracle=True)
    train_subgraph = retrieve_question(desk_store, train_question, None,
                                       top_k=1, max_facts=10, oracle=True)
    return question, train_question, subgraph, train_subgraph


class TestGolden:
    def test_relation_ranking_matches(self, desk_store, golden_inputs):
        question = golden_inputs[0]
        labels = [desk_store.relations.label(r)
                  for r in candidate_relations(desk_store, question)]
        rendered = render_relation_ranking(question.text, labels, 1).text + "\n"
        assert rendered == golden_text("relation_ranking")

    def test_time_mining_matches(self, desk_store, golden_inputs):
        question = golden_inputs[0]
        candidates = candidate_relations(desk_store, question)
        anchor = anchor_facts(desk_store, question, candidates)[0]
        rendered = render_time_mining(
            question.text, fact_fields(desk_store, anchor), "after"
        ).text + "\n"
        assert rendered == golden_text("time_mining")

    def test_instruction_train_matches(self, desk_store, golden_inputs):
        _, train_question, _, train_subgraph = golden_inputs
        answer = "\t".join(
            sorted(desk_store.entities.label(g) for g in train_question.gold)
        )
        rendered = render_instruction(
            desk_store, train_question.text, train_subgraph.facts, answer
        ).text + "\n"
        assert rendered == golden_text("instruction_train")

    def test_instruction_open_matches(self, desk_store, golden_inputs):
        question, _, subgraph, _ = golden_inputs
        rendered = render_instruction(desk_store, question.text, subgraph.facts).text + "\n"
        assert rendered == golden_text("instruction_open")

    def test_baseline_with_evidence_matches(self, desk_store, golden_inputs):
        question, _, subgraph, _ = golden_inputs
        rendered = render_baseline(desk_store, question.text, subgraph.facts).text + "\n"
        assert rendered == golden_text("baseline_with_evidence")

    def test_baseline_without_evidence_matches(self, desk_store, golden_inputs):
        question = golden_inputs[0]
        rendered = render_baseline(desk_store, question.text).text + "\n"
        assert rendered == golden_text("baseline_without_evidence")

    def test_open_prompt_ends_at_response_slot(self):
        text = golden_text("instruction_open")
        assert text.endswith("Response:\n")

    def test_train_prompt_carries_tab_joined_answer(self, desk_store, golden_inputs):
        train_question = golden_inputs[1]
        answer = "\t".join(
            sorted(desk_store.entities.label(g) for g in train_question.gold)
        )
        assert f"Response:{answer}" in golden_text("instruction_train")


class TestRenderedShape:
    def test_no_braces_survive(self, desk_store, golden_inputs):
        question, _, subgraph, _ = golden_inputs
        for bundle in (
            render_relation_ranking(question.text, ["leads"], 2),
            render_time_mining(question.text, ["a", "r", "b", "1990", "1991"], "after"),
            render_instruction(desk_store, question.text, subgraph.facts),
            render_baseline(desk_store, question.text, subgraph.facts),
            render_baseline(desk_store, question.text),
        ):
            assert "{" not in bundle.text and "}" not in bundle.text

    def test_template_with_a_stray_brace_rejected(self, desk_store, monkeypatch):
        monkeypatch.setattr(prompts, "INSTRUCTION_TEMPLATE", "Q: {question} {evidence_set} {")
        with pytest.raises(PromptError, match="^instruction: template holds a brace outside"):
            render_instruction(desk_store, "who?", [])

    def test_bundle_is_single_user_message(self, desk_store):
        bundle = render_baseline(desk_store, "who?")
        assert len(bundle.messages) == 1
        assert bundle.messages[0]["role"] == "user"
        assert bundle.text == bundle.messages[0]["content"]

    def test_substitutions_are_recorded(self, desk_store):
        bundle = render_instruction(desk_store, "who?", [])
        assert "who?" in bundle.text
        assert bundle.template_id == "instruction"

    def test_relation_ranking_argument_errors(self):
        with pytest.raises(PromptError):
            render_relation_ranking("who?", [], 1)
        with pytest.raises(PromptError):
            render_relation_ranking("who?", ["leads"], 0)

    def test_time_mining_needs_five_anchor_fields(self):
        with pytest.raises(PromptError):
            render_time_mining("who?", ["a", "r", "b", "1990"], "after")


class TestFactSerialization:
    def test_serialized_form(self, tiny_store):
        assert serialize_fact(tiny_store, tiny_store.facts[0]) == \
            "[ada, leads, lab, 1990, 1994]"

    def test_quoted_list(self):
        assert quoted_list(["a", "b"]) == "['a', 'b']"
        assert quoted_list([]) == "[]"

    def test_evidence_sets_differ_in_quoting(self, tiny_store):
        facts = tiny_store.facts[:2]
        plain = evidence_set_plain(tiny_store, facts)
        quoted = evidence_set_quoted(tiny_store, facts)
        assert plain == ("[[ada, leads, lab, 1990, 1994], "
                         "[ben, leads, lab, 1995, 1998]]")
        assert quoted == ("[['ada', 'leads', 'lab', '1990', '1994'], "
                          "['ben', 'leads', 'lab', '1995', '1998']]")

    def test_empty_evidence_sets(self, tiny_store):
        assert evidence_set_plain(tiny_store, []) == "[]"
        assert evidence_set_quoted(tiny_store, []) == "[]"
