"""In-memory temporal knowledge graph: vocabularies, facts, and lookup indexes.

Facts are quadruples ``(subject, relation, object, [t_start, t_end])`` whose
interval endpoints are closed year bounds; a point-in-time fact collapses to
``t_start == t_end``.  All three vocabularies map surface labels to dense ids.
Time ids are assigned in chronological order of the underlying years, so
integer comparisons on time ids agree with comparisons on the years
themselves.  Entity and relation ids follow first appearance in the input
file, which keeps checkpoints reproducible for a fixed file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

FACT_SEPARATOR = "|"
FACT_FIELDS = 5

QUESTION_KEYS = ("uid", "text", "entities", "times", "qtype", "atype", "answers")


class StoreError(ValueError):
    """Malformed input file or unresolvable label."""


class Vocabulary:
    """Bijective mapping between surface labels and dense ids ``0..n-1``."""

    def __init__(self, name: str, labels: Iterable[str] = ()) -> None:
        self.name = name
        self._ids: dict[str, int] = {}
        self._labels: list[str] = []
        for label in labels:
            self.add(label)

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: str) -> bool:
        return label in self._ids

    def intern(self, label: str) -> int:
        """Return the id for ``label``, assigning the next free id if new."""
        idx = self._ids.get(label)
        if idx is None:
            idx = len(self._labels)
            self._ids[label] = idx
            self._labels.append(label)
        return idx

    def add(self, label: str) -> int:
        """Insert a label that must not be present yet."""
        if label in self._ids:
            raise StoreError(f"duplicate {self.name} label: {label!r}")
        return self.intern(label)

    def id(self, label: str) -> int:
        try:
            return self._ids[label]
        except KeyError:
            raise StoreError(f"unknown {self.name} label: {label!r}") from None

    def label(self, idx: int) -> str:
        if not 0 <= idx < len(self._labels):
            raise StoreError(f"{self.name} id out of range: {idx}")
        return self._labels[idx]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self._labels)


class QuestionType(str, Enum):
    SIMPLE_ENTITY = "simple_entity"
    SIMPLE_TIME = "simple_time"
    BEFORE_AFTER = "before_after"
    FIRST_LAST = "first_last"
    TIME_JOIN = "time_join"
    EXPLICIT = "explicit"
    IMPLICIT = "implicit"
    TEMPORAL = "temporal"
    ORDINAL = "ordinal"


class AnswerType(str, Enum):
    ENTITY = "entity"
    TIME = "time"


#: Question types whose temporal constraint is carried by an anchor fact
#: rather than written in the text.
ANCHORED_TYPES = frozenset(
    {QuestionType.BEFORE_AFTER, QuestionType.TIME_JOIN, QuestionType.IMPLICIT,
     QuestionType.TEMPORAL}
)

SIMPLE_TYPES = frozenset({QuestionType.SIMPLE_ENTITY, QuestionType.SIMPLE_TIME})
COMPLEX_TYPES = frozenset(
    {QuestionType.BEFORE_AFTER, QuestionType.FIRST_LAST, QuestionType.TIME_JOIN}
)


@dataclass(frozen=True)
class Quadruple:
    """One temporal fact; all fields are dense ids, times are chronological."""

    subject: int
    relation: int
    object: int
    t_start: int
    t_end: int

    def __post_init__(self) -> None:
        if min(self.subject, self.relation, self.object, self.t_start, self.t_end) < 0:
            raise StoreError(f"negative id in fact: {self}")
        if self.t_start > self.t_end:
            raise StoreError(f"interval runs backwards: {self}")


@dataclass(frozen=True)
class Question:
    """One annotated question.

    ``entities`` and ``times`` are the annotated ids, ``gold`` holds entity
    ids or time ids depending on ``atype``.
    """

    uid: str
    text: str
    entities: tuple[int, ...]
    times: tuple[int, ...]
    qtype: QuestionType
    atype: AnswerType
    gold: frozenset[int]

    def __post_init__(self) -> None:
        if not self.gold:
            raise StoreError(f"question {self.uid!r} has no gold answers")


class TkgStore:
    """Immutable fact store with per-entity and per-relation indexes."""

    def __init__(
        self,
        entities: Vocabulary,
        relations: Vocabulary,
        times: Vocabulary,
        facts: Sequence[Quadruple],
    ) -> None:
        self.entities = entities
        self.relations = relations
        self.times = times
        self.facts: tuple[Quadruple, ...] = tuple(facts)
        self._by_entity: dict[int, tuple[int, ...]] = {}
        self._by_relation: dict[int, list[int]] = {}
        for idx, fact in enumerate(self.facts):
            self._check_ids(fact)
            self._by_entity.setdefault(fact.subject, []).append(idx)
            if fact.object != fact.subject:
                self._by_entity.setdefault(fact.object, []).append(idx)
            self._by_relation.setdefault(fact.relation, []).append(idx)
        # Frozen once, so lookups hand out the index itself instead of a copy.
        # Each list is replaced in place and freed at once, so the lists and
        # the tuples never all coexist.
        for entity, ids in self._by_entity.items():
            self._by_entity[entity] = tuple(ids)

    def _check_ids(self, fact: Quadruple) -> None:
        if fact.subject >= len(self.entities) or fact.object >= len(self.entities):
            raise StoreError(f"entity id out of range in {fact}")
        if fact.relation >= len(self.relations):
            raise StoreError(f"relation id out of range in {fact}")
        if fact.t_end >= len(self.times):
            raise StoreError(f"time id out of range in {fact}")

    # -- lookups ---------------------------------------------------------

    def fact_ids_by_entity(self, entity: int) -> tuple[int, ...]:
        return self._by_entity.get(entity, ())

    def fact_ids_by_relation(self, relation: int) -> tuple[int, ...]:
        return tuple(self._by_relation.get(relation, ()))

    def facts_by_entity(self, entity: int) -> tuple[Quadruple, ...]:
        return tuple(self.facts[i] for i in self._by_entity.get(entity, ()))

    def facts_by_relation(self, relation: int) -> tuple[Quadruple, ...]:
        return tuple(self.facts[i] for i in self._by_relation.get(relation, ()))

    def year(self, time_id: int) -> int:
        return int(self.times.label(time_id))

    def sort_key(self, fact_id: int) -> tuple[int, int, int]:
        fact = self.facts[fact_id]
        return (fact.t_start, fact.t_end, fact_id)

    def fact_label(self, fact: Quadruple) -> str:
        """Render a fact back into the five-field file form."""
        return FACT_SEPARATOR.join(
            (
                self.entities.label(fact.subject),
                self.relations.label(fact.relation),
                self.entities.label(fact.object),
                self.times.label(fact.t_start),
                self.times.label(fact.t_end),
            )
        )


def _parse_fact_line(line: str, lineno: int) -> tuple[str, str, str, int, int]:
    fields = [f.strip() for f in line.split(FACT_SEPARATOR)]
    if len(fields) != FACT_FIELDS:
        raise StoreError(
            f"line {lineno}: expected {FACT_FIELDS} '|'-separated fields, got {len(fields)}"
        )
    subject, relation, obj, start_text, end_text = fields
    if not subject or not relation or not obj:
        raise StoreError(f"line {lineno}: empty label")
    try:
        start, end = int(start_text), int(end_text)
    except ValueError:
        raise StoreError(f"line {lineno}: non-integer year") from None
    if str(start) != start_text or str(end) != end_text:
        raise StoreError(f"line {lineno}: non-canonical year spelling")
    if start > end:
        raise StoreError(f"line {lineno}: start year {start} after end year {end}")
    return subject, relation, obj, start, end


def load_tkg(path: str | Path) -> TkgStore:
    """Build a store from a ``subject|relation|object|start|end`` fact file.

    The file is read twice: once to collect the year set (time ids must be
    chronological), once to intern entities and relations in first-appearance
    order and materialise the facts.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    parsed = [_parse_fact_line(line, i + 1) for i, line in enumerate(lines)]

    years: set[int] = set()
    for _, _, _, start, end in parsed:
        years.update((start, end))
    times = Vocabulary("time", (str(y) for y in sorted(years)))

    entities = Vocabulary("entity")
    relations = Vocabulary("relation")
    facts = [
        Quadruple(
            entities.intern(subject),
            relations.intern(relation),
            entities.intern(obj),
            times.id(str(start)),
            times.id(str(end)),
        )
        for subject, relation, obj, start, end in parsed
    ]
    return TkgStore(entities, relations, times, facts)


def _require_verbatim(label: str, text: str, uid: str) -> None:
    if label.lower() not in text.lower():
        raise StoreError(f"question {uid!r}: annotation {label!r} not present in text")


def load_questions(path: str | Path, store: TkgStore) -> list[Question]:
    """Load one JSON record per line and resolve all labels against ``store``."""
    questions: list[Question] = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise StoreError(f"line {lineno}: not a valid record ({exc.msg})") from None
        missing = [k for k in QUESTION_KEYS if k not in record]
        if missing:
            raise StoreError(f"line {lineno}: missing keys {missing}")
        uid = str(record["uid"])
        text = str(record["text"])
        try:
            qtype = QuestionType(record["qtype"])
            atype = AnswerType(record["atype"])
        except ValueError as exc:
            raise StoreError(f"line {lineno}: {exc}") from None

        entity_ids = []
        for label in record["entities"]:
            _require_verbatim(str(label), text, uid)
            entity_ids.append(store.entities.id(str(label)))
        time_ids = []
        for year in record["times"]:
            _require_verbatim(str(year), text, uid)
            time_ids.append(store.times.id(str(year)))

        answer_vocab = store.entities if atype is AnswerType.ENTITY else store.times
        gold = frozenset(answer_vocab.id(str(a)) for a in record["answers"])
        if not gold:
            raise StoreError(f"line {lineno}: question {uid!r} has no gold answers")
        questions.append(
            Question(uid, text, tuple(entity_ids), tuple(time_ids), qtype, atype, gold)
        )
    return questions


def facts_filtered(
    store: TkgStore,
    entities: Iterable[int],
    relations: Iterable[int],
    constraint,
) -> list[Quadruple]:
    """Facts incident to any of ``entities``, under any of ``relations``,
    satisfying ``constraint`` (an object with an ``admits(fact)`` predicate).

    Returned sorted ascending by ``(t_start, t_end, insertion order)``.
    """
    entity_set = set(entities)
    relation_set = set(relations)
    candidate_ids: set[int] = set()
    for entity in entity_set:
        candidate_ids.update(store.fact_ids_by_entity(entity))
    kept = [
        fact_id
        for fact_id in candidate_ids
        if store.facts[fact_id].relation in relation_set
        and constraint.admits(store.facts[fact_id])
    ]
    kept.sort(key=store.sort_key)
    return [store.facts[i] for i in kept]
