"""Constraint-guided subgraph retrieval.

For each question we pick the most plausible relations, mine the temporal
constraint implied by the question, and then filter the fact store down to a
small evidence set.  A lexical oracle (:func:`lexical_rank`) and a rule
oracle (:func:`rule_time`) answer whenever no usable model reply exists, so
retrieval makes one sequence of calls with or without a client.  A client is
asked to rank every question's relations, and to mine the time only when the
rules read an anchor (:func:`_reads_anchor`); an unusable reply takes the
oracle's answer and sets the result's fallback flag.

The three per-question lookups read the store's (entity, relation) run
index.  :func:`candidate_relations` reads each annotated entity's relations
in first-fact order.  :func:`anchor_facts` and
:func:`tempkgqa.store.facts_filtered` take the annotated entities' runs under
the ranked relations, already in ``(t_start, t_end, id)`` order, merge them
only when there are two or more, and partition or mask what they hold.  Both
return a :class:`~tempkgqa.store.FactView`, which builds a :class:`Quadruple`
only for a fact read: the ``max_facts`` that :func:`retrieve_subgraph` keeps
and the anchor that sets the time.  Interval satisfaction has one
definition, :meth:`TemporalConstraint.satisfied`, applied to whole columns.
Dumped facts are read back through the store's five-field codec.
"""

from __future__ import annotations

import functools
import logging
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import TempkgqaError
from .llm import LlmClient, TransportError
from .prompts import (PromptBundle, fact_fields, render_relation_ranking,
                      render_time_mining, tokenize)
from .store import (
    ANCHORED_TYPES,
    ConstraintKind,
    FactView,
    Quadruple,
    Question,
    QuestionType,
    TemporalConstraint,
    TkgStore,
    facts_filtered,
    member_mask,
)

logger = logging.getLogger(__name__)

YEAR_PATTERN = re.compile(r"\b(\d{4})\b")
BRACKET_PATTERN = re.compile(r"\[(.*?)\]", re.DOTALL)
BETWEEN_PATTERN = re.compile(r"between\s+(\d{4})\s+and\s+(\d{4})", re.IGNORECASE)
AFTER_PATTERN = re.compile(r"after\s+(\d{4})", re.IGNORECASE)
BEFORE_PATTERN = re.compile(r"before\s+(\d{4})", re.IGNORECASE)
# a mining reply's constraint: the first of these patterns found wins
MINED_CONSTRAINTS = (
    (BETWEEN_PATTERN, TemporalConstraint.between),
    (AFTER_PATTERN, TemporalConstraint.after),
    (BEFORE_PATTERN, TemporalConstraint.before),
)


class RetrievalError(TempkgqaError, RuntimeError):
    """Retrieval failed for a question; carries the question uid."""

    def __init__(self, uid: str, message: str) -> None:
        super().__init__(f"question {uid!r}: {message}")
        self.uid = uid


def _ask(client: LlmClient, question: Question, stage: str, bundle: PromptBundle) -> str:
    """The client's reply to ``bundle``; a transport failure names the
    question and the stage."""
    try:
        return client.send(bundle.messages)
    except TransportError as exc:
        raise RetrievalError(question.uid, f"{stage} transport failure: {exc}") from exc


@dataclass(frozen=True)
class RetrievedSubgraph:
    """Evidence selected for one question, with provenance flags."""

    uid: str
    facts: tuple[Quadruple, ...]
    relations: tuple[int, ...]
    constraint: TemporalConstraint
    fallback_relation: bool = False
    fallback_time: bool = False

    @property
    def empty(self) -> bool:
        return not self.facts


# ---------------------------------------------------------------------------
# relation ranking
# ---------------------------------------------------------------------------

def candidate_relations(store: TkgStore, question: Question) -> list[int]:
    """Relations of facts incident to any annotated entity, deduplicated in
    first-occurrence order."""
    if not question.entities:
        raise RetrievalError(question.uid, "no annotated entities")
    return store.relations_of(question.entities)


def _token_set(text: str) -> frozenset[str]:
    return frozenset(tokenize(text))


@functools.lru_cache(maxsize=1024)
def _label_tokens(label: str) -> frozenset[str]:
    """Token set of a relation label, which every question re-ranks."""
    return _token_set(label)


def lexical_rank(store: TkgStore, question: Question, candidates: Sequence[int]) -> list[int]:
    """Order candidates by token-overlap F1 between relation label and question
    text; ties keep the candidate order."""
    question_tokens = _token_set(question.text)

    def f1(relation: int) -> float:
        label_tokens = _label_tokens(store.relations.label(relation))
        if not label_tokens or not question_tokens:
            return 0.0
        overlap = len(label_tokens & question_tokens)
        return 2.0 * overlap / (len(label_tokens) + len(question_tokens))

    return sorted(candidates, key=f1, reverse=True)


def _parse_ranked_labels(reply: str) -> list[str] | None:
    match = BRACKET_PATTERN.search(reply)
    if match is None:
        return None
    items = []
    for raw in match.group(1).split(","):
        label = raw.strip().strip("'\"").strip()
        if label:
            items.append(label)
    return items or None


def rank_relations(
    client: LlmClient | None,
    store: TkgStore,
    question: Question,
    candidates: Sequence[int],
    k: int,
) -> tuple[tuple[int, ...], bool]:
    """The top-k candidate relations and whether the lexical oracle stood in
    for an unusable reply.  Without a client the :func:`lexical_rank` order
    answers; a reply naming only candidates is padded from that order."""
    if not candidates or k < 1:
        raise RetrievalError(question.uid, "rank_relations needs candidates and k >= 1")
    lexical = lexical_rank(store, question, candidates)
    if client is None:
        return tuple(lexical[:k]), False
    labels = [store.relations.label(r) for r in candidates]
    reply = _ask(client, question, "relation ranking",
                 render_relation_ranking(question.text, labels, k))
    by_label = dict(zip(labels, candidates))
    parsed = _parse_ranked_labels(reply)
    if parsed is None or not all(label in by_label for label in parsed):
        logger.debug("question %s: unusable ranking reply %r", question.uid, reply)
        return tuple(lexical[:k]), True
    return tuple(dict.fromkeys([by_label[label] for label in parsed] + lexical))[:k], False


# ---------------------------------------------------------------------------
# anchors and time mining
# ---------------------------------------------------------------------------

def anchor_facts(store: TkgStore, question: Question, relations: Sequence[int]) -> FactView:
    """Facts linking the annotated entities under the ranked relations.

    Facts whose subject and object are both annotated take precedence over
    facts touching a single annotated entity; each group is ordered by
    ``(t_start, t_end, insertion order)``.
    """
    ids = store.incident_facts(question.entities, relations)
    unlinked = ~(member_mask(store.subject[ids], question.entities)
                 & member_mask(store.object[ids], question.entities))
    # A stable partition keeps each group in (t_start, t_end, id) order.
    return store.facts_of(ids[np.argsort(unlinked, kind="stable")])


def _first_vocabulary_year(store: TkgStore, text: str) -> int | None:
    for match in YEAR_PATTERN.finditer(text):
        if match.group(1) in store.times:
            return store.times.id(match.group(1))
    return None


def _reads_anchor(store: TkgStore, question: Question) -> bool:
    """Whether :func:`rule_time` reads an anchor for ``question``: an anchored
    type whose text names no vocabulary year."""
    return (question.qtype in ANCHORED_TYPES
            and _first_vocabulary_year(store, question.text) is None)


def _keyword_direction(text: str) -> str | None:
    lowered = text.lower()
    if re.search(r"\bafter\b", lowered):
        return "after"
    if re.search(r"\bbefore\b", lowered):
        return "before"
    return None


def rule_time(
    store: TkgStore,
    question: Question,
    anchors: Sequence[Quadruple],
) -> TemporalConstraint:
    """Deterministic constraint oracle.

    In order: an explicit in-vocabulary year in the text wins as ``at``;
    before/after questions read the direction keyword and take the anchor's
    near endpoint; joint-time questions span the anchor interval; everything
    else (first/last, ordinal, plain questions without a year) carries no
    constraint and leaves ordering to the sorted fact list.
    """
    explicit = _first_vocabulary_year(store, question.text)
    if explicit is not None:
        return TemporalConstraint.at(explicit)
    if question.qtype not in ANCHORED_TYPES or not anchors:
        return TemporalConstraint.none()
    anchor = anchors[0]
    if question.qtype in (QuestionType.TIME_JOIN, QuestionType.TEMPORAL):
        return TemporalConstraint.between(anchor.t_start, anchor.t_end)
    direction = _keyword_direction(question.text)
    if direction == "after":
        return TemporalConstraint.after(anchor.t_end)
    if direction == "before":
        return TemporalConstraint.before(anchor.t_start)
    return TemporalConstraint.none()


def _mining_type_label(question: Question) -> str:
    if question.qtype in (QuestionType.BEFORE_AFTER, QuestionType.IMPLICIT):
        return _keyword_direction(question.text) or question.qtype.value
    return "time_join"


def _parse_mined_constraint(store: TkgStore, reply: str) -> TemporalConstraint | None:
    for pattern, build in MINED_CONSTRAINTS:
        match = pattern.search(reply)
        if match:
            years = match.groups()
            if not all(year in store.times for year in years):
                return None
            ids = [store.times.id(year) for year in years]
            return build(*ids) if ids == sorted(ids) else None  # not a backwards span
    return None


def mine_time(
    client: LlmClient | None,
    store: TkgStore,
    question: Question,
    anchors: Sequence[Quadruple],
) -> tuple[TemporalConstraint, bool]:
    """The temporal constraint and whether :func:`rule_time` stood in for an
    unusable reply.  The rules answer unless there is a client, an anchor,
    and a question whose constraint the rules read from that anchor."""
    constraint = rule_time(store, question, anchors)
    if client is None or not anchors or not _reads_anchor(store, question):
        return constraint, False
    bundle = render_time_mining(question.text, fact_fields(store, anchors[0]),
                                _mining_type_label(question))
    reply = _ask(client, question, "time mining", bundle)
    mined = _parse_mined_constraint(store, reply)
    if mined is None:
        logger.debug("question %s: unusable mining reply %r", question.uid, reply)
        return constraint, True
    return mined, False


# ---------------------------------------------------------------------------
# subgraph assembly
# ---------------------------------------------------------------------------

def retrieve_subgraph(
    store: TkgStore,
    question: Question,
    relations: Sequence[int],
    constraint: TemporalConstraint,
    max_facts: int,
    *,
    fallback_relation: bool = False,
    fallback_time: bool = False,
) -> RetrievedSubgraph:
    """Filter the store down to at most ``max_facts`` evidence facts; the
    fallback flags are recorded on the result as given."""
    if not relations:
        raise RetrievalError(question.uid, "retrieve_subgraph needs at least one relation")
    if max_facts < 1:
        raise RetrievalError(question.uid, "max_facts must be >= 1")
    selected = facts_filtered(store, question.entities, relations, constraint)
    subgraph = RetrievedSubgraph(question.uid, tuple(selected[:max_facts]), tuple(relations),
                                 constraint, fallback_relation, fallback_time)
    if subgraph.empty:
        logger.debug("question %s: empty subgraph", question.uid)
    return subgraph


def retrieve_question(
    store: TkgStore,
    question: Question,
    client: LlmClient | None,
    *,
    top_k: int,
    max_facts: int,
    oracle: bool = False,
) -> RetrievedSubgraph:
    """Run the full per-question pipeline: relation ranking, anchor lookup,
    time mining, fact filtering.  The anchors are looked up only when
    :func:`_reads_anchor` says a time rule reads them.  ``oracle=True`` sets
    the client aside, so that both oracles answer and it is never called.
    """
    candidates = candidate_relations(store, question)
    if not candidates:
        return RetrievedSubgraph(question.uid, (), (), TemporalConstraint.none())
    if oracle:
        client = None
    relations, fallback_relation = rank_relations(client, store, question, candidates, top_k)
    anchors = anchor_facts(store, question, relations) if _reads_anchor(store, question) else ()
    constraint, fallback_time = mine_time(client, store, question, anchors)
    return retrieve_subgraph(store, question, relations, constraint, max_facts,
                             fallback_relation=fallback_relation, fallback_time=fallback_time)


# ---------------------------------------------------------------------------
# dump records
# ---------------------------------------------------------------------------

def constraint_record(store: TkgStore, constraint: TemporalConstraint) -> dict:
    record: dict = {"kind": constraint.kind.value}
    record["t1"] = store.year(constraint.t1) if constraint.t1 is not None else None
    record["t2"] = store.year(constraint.t2) if constraint.t2 is not None else None
    return record


def constraint_from_record(store: TkgStore, record: dict) -> TemporalConstraint:
    to_id = lambda y: None if y is None else store.times.id(str(y))
    return TemporalConstraint(ConstraintKind(record["kind"]), to_id(record["t1"]),
                              to_id(record["t2"]))


#: The record :func:`subgraph_record` writes; its evidence is empty when its ``facts`` are.
SUBGRAPH_SCHEMA = {"uid": str, "relations": list[str],
                   "constraint": {"kind": str, "t1": int | None, "t2": int | None},
                   "facts": list[str], "fallback_relation": bool, "fallback_time": bool}


def subgraph_record(store: TkgStore, subgraph: RetrievedSubgraph) -> dict:
    """Serializable form of one retrieval result (years as labels, facts in
    the five-field file form)."""
    return {
        "uid": subgraph.uid,
        "relations": [store.relations.label(r) for r in subgraph.relations],
        "constraint": constraint_record(store, subgraph.constraint),
        "facts": [store.fact_label(f) for f in subgraph.facts],
        "fallback_relation": subgraph.fallback_relation,
        "fallback_time": subgraph.fallback_time,
    }


def subgraph_from_record(store: TkgStore, record: dict) -> RetrievedSubgraph:
    return RetrievedSubgraph(
        record["uid"],
        tuple(store.fact_from_label(text) for text in record["facts"]),
        tuple(store.relations.id(r) for r in record["relations"]),
        constraint_from_record(store, record["constraint"]),
        record["fallback_relation"],
        record["fallback_time"],
    )
