"""Prompt rendering for every LLM touchpoint.

All four templates are fixed module constants with ``{placeholder}`` slots,
and a template may hold no other brace.  Rendering is a single substitution
pass, so a brace inside a question text or a label is never read as a slot
and comes through verbatim.  The in-context demonstrations are part of the
template text and are substituted together with the task-specific slots (in
particular the ``{k}`` occurrences inside the demonstrations).

Facts are serialized as ``[head, relation, tail, start_time, end_time]``
for the model to read; nothing parses that form back.  Dumps store facts in
the fact file's five-field form (:meth:`tempkgqa.store.TkgStore.fact_label`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import TempkgqaError
from .store import FACT_SEPARATOR, Quadruple, TkgStore


class PromptError(TempkgqaError, ValueError):
    """A template slot could not be filled, or a template holds a stray brace."""


@dataclass(frozen=True)
class PromptBundle:
    """A rendered prompt: role-tagged messages and the template they came from."""

    messages: tuple[Mapping[str, str], ...]
    template_id: str

    @property
    def text(self) -> str:
        return "\n\n".join(m["content"] for m in self.messages)


RELATION_RANKING_TEMPLATE = """l will give you a list of words.
Find the {k} words from the list that are most semantically related to the given sentence.
If there are no semantically related words, pick out any {k} words.

Examples)

Sentence A: When was the first time Martin Taylor played for The Hatters?
Words List: ['member of sports team', 'position held', 'award received', 'spouse', 'employer']
Top {k} Answers: ['member of sports team']

Sentence B: Which political position did Pierre Dupont hold in 1997?
Words List: ['member of sports team', 'position held', 'award received', 'spouse', 'employer']
Top {k} Answers: ['position held']

Sentence C: Who was the spouse of Christina Lindberg between 1980 and 1985?
Words List: ['member of sports team', 'position held', 'award received', 'spouse', 'employer']
Top {k} Answers: ['spouse']

Sentence D: Which company was the employer of Martin Roberts before 2001?
Words List: ['member of sports team', 'position held', 'award received', 'spouse', 'employer']
Top {k} Answers: ['employer']

Sentence E: Which was awarded to Daniel Walther in 1980?
Words List: ['member of sports team', 'position held', 'award received', 'spouse', 'employer']
Top {k} Answers: ['award received']

Now let’s find the top {k} words.
Sentence: {sentence}
Words List: {relation_list}
Top {k} Answer:"""


TIME_MINING_TEMPLATE = """I will give you a natural language question with a temporal constraint.
Answer the temporal constraint involved in the question based on the knowledge context and the question type.
Answer only in "before", "after", "between and" format.

Examples)

Question A: Who held Governor of Connecticut position after Lowell P. Weicker?
Knowledge Context: ['Lowell P. Weicker', 'position held', 'Governor of Connecticut', '1991', '1995']
Question Type: after
Response: after 1995

Question B: Who was the dean before Xavier Darcos?
Knowledge Context: ['Xavier Darcos', 'position held', 'dean', '1995', '1998']
Question Type: before
Response: before 1995

Question C: Who's the player who played in Luton Town F.C. with Martin Taylor?
Knowledge Context: ['Martin Taylor', 'member of sports team', 'Luton Town F.C.', '1994', '1996']
Question Type: time_join
Response: between 1994 and 1996

Question D: Which position did Thomas Meehan hold after his time as Mayor of Dover?
Knowledge Context: ['Thomas Meehan', 'position held', 'Mayor of Dover', '1984', '1989']
Question Type: after
Response: after 1989

Question E: Who's the player who played in AC Reggiana with Daniele Magliocchetti?
Knowledge Context: ['Daniele Magliocchetti', 'member of sports team', 'A.C. Reggiana', '2012', '2014']
Question Type: time_join
Response: between 2012 and 2014

Next, let's answer the time constraints involved in the following question.
Question: {question}
Knowledge Context: {context}
Question Type: {type}
Response:"""


INSTRUCTION_TEMPLATE = """Below is an instruction that describes a task, paired with an input that provides further context.
Write a response that appropriately completes the request.

Instruction:
Answer the questions based on evidence.
Each evidence is in the form of [head, relation, tail, start_time, end_time]
and it means 'head relation is tail between start_time and end_time'.
You must list the 10 most relevant answers.

Input:
Question: {question}
Evidence set: {evidence_set}

Response:{answer}"""


BASELINE_WITH_EVIDENCE_TEMPLATE = """Answer the questions based on evidence.
Each evidence is in the form of [head, relation, tail, start_time, end_time]
and it means 'head relation is tail between start_time and end_time'.
You must list the 10 most relevant answers separated by '\\t'.

Examples)

Question A: Who was the Member of the House of Representatives in 1990?
Evidence set: [['Simon Crean', 'position held', 'Member of the House of Representatives', '1990', '2013'], ...]
Answer: Simon Crean\\tJohn Dawkins\\t...

Question B: Which position did Lowell P. Weicker hold in 1993?
Evidence set: [['Lowell P. Weicker', 'position held', 'Governor of Connecticut', '1991', '1995'], ...]
Answer: Governor of Connecticut\\tUnited States Senator\\t...

Question C: When Daniele Amerini played in Modena F.C.?
Evidence set: [['Daniele Amerini', 'member of sports team', 'Modena F.C.', '2005', '2006'], ...]
Answer: 2005\\t2006\\t...

Question D: Who played in Sheffield Wednesday F.C. before Ola Tidman?
Evidence set: [['Ola Tidman', 'member of sports team', 'Sheffield Wednesday F.C.', '2003', '2005'], ...]
Answer: Kevin Pressman\\tChris Marsden\\t...

Question E: With whom did Steve Haslam play on the Sheffield Wednesday F.C.?
Evidence set: [['Ola Tidman', 'member of sports team', 'Sheffield Wednesday F.C.', '2003', '2005'], ...]
Answer: Ola Tidman\\tChris Marsden\\t...

Now let's answer the Question based on the Evidence set.
Please do not say there is no evdience, you must list the 10 most relevant answers separated by '\\t'.
Question: {question}
Evidence set: {evidence_set}
Answer:"""


BASELINE_WITHOUT_EVIDENCE_TEMPLATE = """Answer the questions directly.
You must answer the 10 most relevant answers separated by '\\t'.

Examples)

Question A: Who was the Member of the House of Representatives in 1990?
Answer: Simon Crean\\tJohn Dawkins\\t...

Question B: Which position did Lowell P. Weicker hold in 1993?
Answer: Governor of Connecticut\\tUnited States Senator\\t...

Question C: When Daniele Amerini played in Modena F.C.?
Answer: 2005\\t2006\\t...

Question D: Who played in Sheffield Wednesday F.C. before Ola Tidman?
Answer: Kevin Pressman\\tChris Marsden\\t...

Question E: With whom did Steve Haslam play on the Sheffield Wednesday F.C.?
Answer: Ola Tidman\\tChris Marsden\\t...

Now let's answer the Question, you must answer the 10 most relevant answers separated by '\\t'.
Question: {question}
Answer:"""


_PLACEHOLDER_PATTERN = re.compile(
    r"\{(k|sentence|relation_list|question|context|type|evidence_set|answer)\}"
)


def _render(template_id: str, template: str, substitutions: Mapping[str, str]) -> PromptBundle:
    def fill(match: re.Match) -> str:
        key = match.group(1)
        if key not in substitutions:
            raise PromptError(f"{template_id}: no value for placeholder {{{key}}}")
        return substitutions[key]

    literal = _PLACEHOLDER_PATTERN.sub("", template)
    if "{" in literal or "}" in literal:
        raise PromptError(f"{template_id}: template holds a brace outside its placeholders")
    text = _PLACEHOLDER_PATTERN.sub(fill, template)
    return PromptBundle(messages=({"role": "user", "content": text},), template_id=template_id)


_TOKEN_PATTERN = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase split on whitespace and punctuation (underscores included)."""
    return _TOKEN_PATTERN.findall(text.lower())


# ---------------------------------------------------------------------------
# fact serialization
# ---------------------------------------------------------------------------

def fact_fields(store: TkgStore, fact: Quadruple) -> list[str]:
    return store.fact_label(fact).split(FACT_SEPARATOR)


def serialize_fact(store: TkgStore, fact: Quadruple) -> str:
    """``[head, relation, tail, start_time, end_time]`` with surface labels."""
    return "[" + ", ".join(fact_fields(store, fact)) + "]"


def quoted_list(items: Sequence[str]) -> str:
    return "[" + ", ".join(f"'{item}'" for item in items) + "]"


def evidence_set_plain(store: TkgStore, facts: Sequence[Quadruple]) -> str:
    return "[" + ", ".join(serialize_fact(store, f) for f in facts) + "]"


def evidence_set_quoted(store: TkgStore, facts: Sequence[Quadruple]) -> str:
    return "[" + ", ".join(quoted_list(fact_fields(store, f)) for f in facts) + "]"


# ---------------------------------------------------------------------------
# renderers
# ---------------------------------------------------------------------------

def render_relation_ranking(
    question_text: str, candidate_labels: Sequence[str], k: int
) -> PromptBundle:
    if not candidate_labels:
        raise PromptError("relation ranking needs at least one candidate")
    if k < 1:
        raise PromptError("relation ranking needs k >= 1")
    return _render(
        "relation_ranking",
        RELATION_RANKING_TEMPLATE,
        {
            "k": str(k),
            "sentence": question_text,
            "relation_list": quoted_list(candidate_labels),
        },
    )


def render_time_mining(
    question_text: str, anchor_labels: Sequence[str], type_label: str
) -> PromptBundle:
    if len(anchor_labels) != 5:
        raise PromptError("time mining needs the five anchor fact fields")
    return _render(
        "time_mining",
        TIME_MINING_TEMPLATE,
        {
            "question": question_text,
            "context": quoted_list(anchor_labels),
            "type": type_label,
        },
    )


def render_instruction(
    store: TkgStore,
    question_text: str,
    facts: Sequence[Quadruple],
    answer: str | None = None,
) -> PromptBundle:
    """Tuning/inference prompt; ``answer`` present renders a training record,
    absent leaves the response slot open."""
    return _render(
        "instruction",
        INSTRUCTION_TEMPLATE,
        {
            "question": question_text,
            "evidence_set": evidence_set_plain(store, facts),
            "answer": answer if answer is not None else "",
        },
    )


def render_baseline(
    store: TkgStore,
    question_text: str,
    facts: Sequence[Quadruple] | None = None,
) -> PromptBundle:
    """Generative baseline prompt, with or without the evidence block."""
    if facts is None:
        return _render(
            "baseline_without_evidence",
            BASELINE_WITHOUT_EVIDENCE_TEMPLATE,
            {"question": question_text},
        )
    return _render(
        "baseline_with_evidence",
        BASELINE_WITH_EVIDENCE_TEMPLATE,
        {
            "question": question_text,
            "evidence_set": evidence_set_quoted(store, facts),
        },
    )
