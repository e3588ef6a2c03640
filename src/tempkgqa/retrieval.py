"""Constraint-guided subgraph retrieval.

For each question we pick the most plausible relations (by asking a language
model, or by a deterministic lexical oracle), mine the temporal constraint
implied by the question (again LLM-assisted with a rule-based oracle as both
fallback and offline mode), and then filter the fact store down to a small
evidence set.

Interval satisfaction semantics live here, on :class:`TemporalConstraint`;
:func:`tempkgqa.store.facts_filtered` reuses them through ``admits``.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

from .llm import GenerationParams, LlmClient, TransportError
from .prompts import fact_fields, render_relation_ranking, render_time_mining, tokenize
from .store import (
    ANCHORED_TYPES,
    Quadruple,
    Question,
    QuestionType,
    TkgStore,
    facts_filtered,
)

logger = logging.getLogger(__name__)

YEAR_PATTERN = re.compile(r"\b(\d{4})\b")
BRACKET_PATTERN = re.compile(r"\[(.*?)\]", re.DOTALL)
BETWEEN_PATTERN = re.compile(r"between\s+(\d{4})\s+and\s+(\d{4})", re.IGNORECASE)
AFTER_PATTERN = re.compile(r"after\s+(\d{4})", re.IGNORECASE)
BEFORE_PATTERN = re.compile(r"before\s+(\d{4})", re.IGNORECASE)


class RetrievalError(RuntimeError):
    """Retrieval failed for a question; carries the question uid."""

    def __init__(self, uid: str, message: str) -> None:
        super().__init__(f"question {uid!r}: {message}")
        self.uid = uid


class ConstraintKind(str, Enum):
    NONE = "none"
    AT = "at"
    BEFORE = "before"
    AFTER = "after"
    BETWEEN = "between"


@dataclass(frozen=True)
class TemporalConstraint:
    """Temporal filter over fact intervals; ``t1``/``t2`` are time ids.

    Satisfaction, with ``[s, e]`` the fact interval:

    - ``none``          always
    - ``at(t)``         ``s <= t <= e``
    - ``before(t)``     ``s < t``   (the fact starts strictly before ``t``)
    - ``after(t)``      ``e > t``   (the fact ends strictly after ``t``)
    - ``between(a, b)`` the closed intervals ``[s, e]`` and ``[a, b]`` overlap
    """

    kind: ConstraintKind = ConstraintKind.NONE
    t1: int | None = None
    t2: int | None = None

    def __post_init__(self) -> None:
        needs_one = self.kind in (ConstraintKind.AT, ConstraintKind.BEFORE, ConstraintKind.AFTER)
        if self.kind is ConstraintKind.NONE and (self.t1 is not None or self.t2 is not None):
            raise ValueError("constraint 'none' carries no times")
        if needs_one and (self.t1 is None or self.t2 is not None):
            raise ValueError(f"constraint '{self.kind.value}' needs exactly t1")
        if self.kind is ConstraintKind.BETWEEN:
            if self.t1 is None or self.t2 is None:
                raise ValueError("constraint 'between' needs t1 and t2")
            if self.t1 > self.t2:
                raise ValueError("constraint 'between' runs backwards")

    def admits(self, fact: Quadruple) -> bool:
        if self.kind is ConstraintKind.NONE:
            return True
        if self.kind is ConstraintKind.AT:
            return fact.t_start <= self.t1 <= fact.t_end
        if self.kind is ConstraintKind.BEFORE:
            return fact.t_start < self.t1
        if self.kind is ConstraintKind.AFTER:
            return fact.t_end > self.t1
        return max(fact.t_start, self.t1) <= min(fact.t_end, self.t2)

    # -- constructors ----------------------------------------------------

    @classmethod
    def none(cls) -> "TemporalConstraint":
        return cls(ConstraintKind.NONE)

    @classmethod
    def at(cls, t: int) -> "TemporalConstraint":
        return cls(ConstraintKind.AT, t)

    @classmethod
    def before(cls, t: int) -> "TemporalConstraint":
        return cls(ConstraintKind.BEFORE, t)

    @classmethod
    def after(cls, t: int) -> "TemporalConstraint":
        return cls(ConstraintKind.AFTER, t)

    @classmethod
    def between(cls, t1: int, t2: int) -> "TemporalConstraint":
        return cls(ConstraintKind.BETWEEN, t1, t2)


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
    seen: dict[int, None] = {}
    for entity in question.entities:
        for fact in store.facts_by_entity(entity):
            seen.setdefault(fact.relation, None)
    return list(seen)


def _token_set(text: str) -> frozenset[str]:
    return frozenset(tokenize(text))


def lexical_rank(store: TkgStore, question: Question, candidates: Sequence[int]) -> list[int]:
    """Order candidates by token-overlap F1 between relation label and question
    text; ties keep the candidate order."""
    question_tokens = _token_set(question.text)

    def f1(relation: int) -> float:
        label_tokens = _token_set(store.relations.label(relation))
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


@dataclass(frozen=True)
class RelationRanking:
    relations: tuple[int, ...]
    used_fallback: bool
    reply: str | None = None


def rank_relations(
    client: LlmClient,
    store: TkgStore,
    question: Question,
    candidates: Sequence[int],
    k: int,
) -> RelationRanking:
    """Ask the client for the top-k candidate relations; fall back to
    :func:`lexical_rank` when the reply cannot be mapped onto the candidates."""
    if not candidates or k < 1:
        raise RetrievalError(question.uid, "rank_relations needs candidates and k >= 1")
    labels = [store.relations.label(r) for r in candidates]
    bundle = render_relation_ranking(question.text, labels, k)
    try:
        reply = client.send(bundle.messages, GenerationParams(temperature=0.0))
    except TransportError as exc:
        raise RetrievalError(question.uid, f"relation ranking transport failure: {exc}") from exc

    by_label = {label: relation for label, relation in zip(labels, candidates)}
    parsed = _parse_ranked_labels(reply)
    if parsed is not None and all(label in by_label for label in parsed):
        chosen: list[int] = []
        for label in parsed:
            relation = by_label[label]
            if relation not in chosen:
                chosen.append(relation)
        if chosen:
            # Short replies are padded from the lexical order so we always
            # return min(k, |candidates|) relations.
            for relation in lexical_rank(store, question, candidates):
                if len(chosen) >= k:
                    break
                if relation not in chosen:
                    chosen.append(relation)
            return RelationRanking(tuple(chosen[:k]), False, reply)
    logger.debug("question %s: unusable ranking reply %r", question.uid, reply)
    return RelationRanking(tuple(lexical_rank(store, question, candidates)[:k]), True, reply)


# ---------------------------------------------------------------------------
# anchors and time mining
# ---------------------------------------------------------------------------

def anchor_facts(store: TkgStore, question: Question, relations: Sequence[int]) -> list[Quadruple]:
    """Facts linking the annotated entities under the ranked relations.

    Facts whose subject and object are both annotated take precedence over
    facts touching a single annotated entity; each group is ordered by
    ``(t_start, t_end, insertion order)``.
    """
    annotated = set(question.entities)
    relation_set = set(relations)
    linked: list[int] = []
    touched: list[int] = []
    seen: set[int] = set()
    for entity in question.entities:
        for fact_id in store.fact_ids_by_entity(entity):
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
    linked.sort(key=store.sort_key)
    touched.sort(key=store.sort_key)
    return [store.facts[i] for i in linked + touched]


def _first_vocabulary_year(store: TkgStore, text: str) -> int | None:
    for match in YEAR_PATTERN.finditer(text):
        if match.group(1) in store.times:
            return store.times.id(match.group(1))
    return None


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
    anchor = anchors[0] if anchors else None
    if question.qtype in (QuestionType.BEFORE_AFTER, QuestionType.IMPLICIT) and anchor:
        direction = _keyword_direction(question.text)
        if direction == "after":
            return TemporalConstraint.after(anchor.t_end)
        if direction == "before":
            return TemporalConstraint.before(anchor.t_start)
    if question.qtype in (QuestionType.TIME_JOIN, QuestionType.TEMPORAL) and anchor:
        return TemporalConstraint.between(anchor.t_start, anchor.t_end)
    return TemporalConstraint.none()


@dataclass(frozen=True)
class TimeMining:
    constraint: TemporalConstraint
    used_fallback: bool
    reply: str | None = None


def _mining_type_label(question: Question) -> str:
    if question.qtype in (QuestionType.BEFORE_AFTER, QuestionType.IMPLICIT):
        return _keyword_direction(question.text) or question.qtype.value
    return "time_join"


def _parse_mined_constraint(store: TkgStore, reply: str) -> TemporalConstraint | None:
    match = BETWEEN_PATTERN.search(reply)
    if match:
        first, second = match.group(1), match.group(2)
        if first in store.times and second in store.times:
            t1, t2 = store.times.id(first), store.times.id(second)
            if t1 <= t2:
                return TemporalConstraint.between(t1, t2)
        return None
    match = AFTER_PATTERN.search(reply)
    if match:
        if match.group(1) in store.times:
            return TemporalConstraint.after(store.times.id(match.group(1)))
        return None
    match = BEFORE_PATTERN.search(reply)
    if match:
        if match.group(1) in store.times:
            return TemporalConstraint.before(store.times.id(match.group(1)))
        return None
    return None


def mine_time(
    client: LlmClient,
    store: TkgStore,
    question: Question,
    anchors: Sequence[Quadruple],
) -> TimeMining:
    """Resolve the temporal constraint, asking the client only for question
    types that actually need mining; unusable replies fall back to
    :func:`rule_time`."""
    explicit = _first_vocabulary_year(store, question.text)
    if explicit is not None:
        return TimeMining(TemporalConstraint.at(explicit), False)
    if question.qtype not in ANCHORED_TYPES or not anchors:
        return TimeMining(rule_time(store, question, anchors), False)

    anchor = anchors[0]
    bundle = render_time_mining(
        question.text,
        fact_fields(store, anchor),
        _mining_type_label(question),
    )
    try:
        reply = client.send(bundle.messages, GenerationParams(temperature=0.0))
    except TransportError as exc:
        raise RetrievalError(question.uid, f"time mining transport failure: {exc}") from exc
    constraint = _parse_mined_constraint(store, reply)
    if constraint is None:
        logger.debug("question %s: unusable mining reply %r", question.uid, reply)
        return TimeMining(rule_time(store, question, anchors), True, reply)
    return TimeMining(constraint, False, reply)


# ---------------------------------------------------------------------------
# subgraph assembly
# ---------------------------------------------------------------------------

def retrieve_subgraph(
    store: TkgStore,
    question: Question,
    relations: Sequence[int],
    constraint: TemporalConstraint,
    max_facts: int,
) -> RetrievedSubgraph:
    """Filter the store down to at most ``max_facts`` evidence facts."""
    if not relations:
        raise RetrievalError(question.uid, "retrieve_subgraph needs at least one relation")
    if max_facts < 1:
        raise RetrievalError(question.uid, "max_facts must be >= 1")
    selected = facts_filtered(store, question.entities, relations, constraint)
    subgraph = RetrievedSubgraph(
        question.uid, tuple(selected[:max_facts]), tuple(relations), constraint
    )
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
    time mining, fact filtering.

    With ``oracle=True`` (or no client) both LLM stages are replaced by their
    deterministic oracles and the client is never called.
    """
    candidates = candidate_relations(store, question)
    if not candidates:
        return RetrievedSubgraph(question.uid, (), (), TemporalConstraint.none())
    use_oracle = oracle or client is None
    if use_oracle:
        relations = tuple(lexical_rank(store, question, candidates)[:top_k])
        fallback_relation = False
    else:
        ranking = rank_relations(client, store, question, candidates, top_k)
        relations = ranking.relations
        fallback_relation = ranking.used_fallback
    anchors = anchor_facts(store, question, relations)
    if use_oracle:
        constraint = rule_time(store, question, anchors)
        fallback_time = False
    else:
        mining = mine_time(client, store, question, anchors)
        constraint = mining.constraint
        fallback_time = mining.used_fallback
    subgraph = retrieve_subgraph(store, question, relations, constraint, max_facts)
    return replace(
        subgraph, fallback_relation=fallback_relation, fallback_time=fallback_time
    )


# ---------------------------------------------------------------------------
# dump records
# ---------------------------------------------------------------------------

def constraint_record(store: TkgStore, constraint: TemporalConstraint) -> dict:
    record: dict = {"kind": constraint.kind.value}
    record["t1"] = store.year(constraint.t1) if constraint.t1 is not None else None
    record["t2"] = store.year(constraint.t2) if constraint.t2 is not None else None
    return record


def constraint_from_record(store: TkgStore, record: dict) -> TemporalConstraint:
    kind = ConstraintKind(record["kind"])
    to_id = lambda y: None if y is None else store.times.id(str(y))
    return TemporalConstraint(kind, to_id(record.get("t1")), to_id(record.get("t2")))


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
        "empty": subgraph.empty,
    }


def subgraph_from_record(store: TkgStore, record: dict) -> RetrievedSubgraph:
    facts = []
    for text in record["facts"]:
        subject, relation, obj, start, end = text.split("|")
        facts.append(
            Quadruple(
                store.entities.id(subject),
                store.relations.id(relation),
                store.entities.id(obj),
                store.times.id(start),
                store.times.id(end),
            )
        )
    return RetrievedSubgraph(
        record["uid"],
        tuple(facts),
        tuple(store.relations.id(r) for r in record["relations"]),
        constraint_from_record(store, record["constraint"]),
        record.get("fallback_relation", False),
        record.get("fallback_time", False),
    )
