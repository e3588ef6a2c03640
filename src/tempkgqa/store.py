"""In-memory temporal knowledge graph: vocabularies, facts, and lookup indexes.

Facts are quadruples ``(subject, relation, object, [t_start, t_end])`` whose
interval endpoints are closed year bounds; a point-in-time fact collapses to
``t_start == t_end``.  All three vocabularies map surface labels to dense ids.
Time ids are assigned in chronological order of the underlying years, so
integer comparisons on time ids agree with comparisons on the years
themselves.  Entity and relation ids follow first appearance in the input
file, which keeps checkpoints reproducible for a fixed file.

Besides the tuple of :class:`Quadruple` objects, :class:`TkgStore` keeps one
``int32`` column per fact field and a CSR index from each entity to the ids of
its incident facts, in insertion order.  Lookups and :func:`facts_filtered`
work on those arrays and only turn the ids they keep back into quadruples.
:class:`TemporalConstraint` is the one definition of interval satisfaction,
for a single fact and for whole columns alike.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import TempkgqaError

FACT_SEPARATOR = "|"
FACT_FIELDS = 5

QUESTION_KEYS = ("uid", "text", "entities", "times", "qtype", "atype", "answers")


class StoreError(TempkgqaError, ValueError):
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

    def satisfied(self, t_start, t_end):
        """Whether the intervals ``[t_start, t_end]`` satisfy the constraint.

        Takes two time ids, or two equal-length arrays of them (the store's
        columns), and answers with a bool or a boolean mask.  Both cases run
        the same expressions.  Intervals are well formed (``s <= e``, and
        ``a <= b`` for ``between``), so two closed intervals overlap exactly
        when each starts no later than the other ends.
        """
        if self.kind is ConstraintKind.NONE:
            return np.ones(np.shape(t_start), dtype=bool)
        if self.kind is ConstraintKind.AT:
            return (t_start <= self.t1) & (self.t1 <= t_end)
        if self.kind is ConstraintKind.BEFORE:
            return t_start < self.t1
        if self.kind is ConstraintKind.AFTER:
            return t_end > self.t1
        return (t_start <= self.t2) & (self.t1 <= t_end)

    def admits(self, fact: Quadruple) -> bool:
        return bool(self.satisfied(fact.t_start, fact.t_end))

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


_NO_FACTS = np.zeros(0, dtype=np.int32)
_NO_FACTS.flags.writeable = False


def member_mask(values: np.ndarray, wanted: Iterable[int]) -> np.ndarray:
    """``np.isin(values, wanted)`` for the few ids a question names: one
    comparison per id, where ``np.isin`` sorts both arrays."""
    first, *rest = set(wanted) or (-1,)  # no id is negative: nothing wanted, nothing matches
    mask = values == first
    for value in rest:
        mask |= values == value
    return mask


class TkgStore:
    """Immutable fact store with fact columns and a per-entity CSR index.

    ``subject``, ``relation``, ``object``, ``t_start`` and ``t_end`` are
    ``int32`` arrays indexed by fact id.  The facts incident to entity ``e``
    (as subject or object, a self-loop once) are
    ``_rows[_offsets[e]:_offsets[e + 1]]``, in ascending fact id.
    """

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
        n = len(self.facts)
        # One pass per field straight into its column: no per-fact tuples.
        self.subject, self.relation, self.object, self.t_start, self.t_end = (
            np.fromiter(map(attrgetter(name), self.facts), dtype=np.int32, count=n)
            for name in ("subject", "relation", "object", "t_start", "t_end")
        )
        self._check_ids()
        for column in (self.subject, self.relation, self.object, self.t_start, self.t_end):
            column.flags.writeable = False

        # Each fact contributes its subject and, unless it is a self-loop, its
        # object.  Interleaved per fact, a stable sort by entity keeps every
        # entity's facts in id order.
        ends = np.stack((self.subject, self.object), axis=1).ravel()
        fact_of = np.repeat(np.arange(n, dtype=np.int32), 2)
        keep = np.ones(2 * n, dtype=bool)
        keep[1::2] = self.object != self.subject
        ends, fact_of = ends[keep], fact_of[keep]
        self._rows = fact_of[np.argsort(ends, kind="stable")]
        self._offsets = np.zeros(len(entities) + 1, dtype=np.int64)
        np.cumsum(np.bincount(ends, minlength=len(entities)), out=self._offsets[1:])
        self._rows.flags.writeable = False

    def _check_ids(self) -> None:
        """Reject the first fact whose ids fall outside the vocabularies."""
        n_entities = len(self.entities)
        bad_entity = (self.subject >= n_entities) | (self.object >= n_entities)
        bad_relation = self.relation >= len(self.relations)
        bad_time = self.t_end >= len(self.times)
        bad = bad_entity | bad_relation | bad_time
        if bad.any():
            first = int(np.argmax(bad))
            kind = ("entity" if bad_entity[first]
                    else "relation" if bad_relation[first] else "time")
            raise StoreError(f"{kind} id out of range in {self.facts[first]}")

    # -- lookups ---------------------------------------------------------

    def fact_ids_by_entity(self, entity: int) -> np.ndarray:
        """Ids of the facts incident to ``entity``, ascending; a read-only
        view into the index, empty for an unknown entity."""
        if not 0 <= entity < len(self._offsets) - 1:
            return _NO_FACTS
        return self._rows[self._offsets[entity]:self._offsets[entity + 1]]

    def incident_fact_ids(self, entities: Iterable[int]) -> np.ndarray:
        """Ids of the facts incident to any of ``entities``, each once, ascending."""
        parts = [self.fact_ids_by_entity(e) for e in set(entities)]
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return _NO_FACTS
        # Sort and drop repeats by hand: ``np.unique`` hashes, ~30x slower here.
        ids = np.sort(np.concatenate(parts))
        return ids[np.concatenate(([True], ids[1:] != ids[:-1]))]

    def facts_of(self, fact_ids: np.ndarray) -> list[Quadruple]:
        """The quadruples of ``fact_ids``, in that order."""
        return list(map(self.facts.__getitem__, fact_ids.tolist()))

    def facts_by_entity(self, entity: int) -> tuple[Quadruple, ...]:
        return tuple(self.facts_of(self.fact_ids_by_entity(entity)))

    def year(self, time_id: int) -> int:
        return int(self.times.label(time_id))

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
        if not entity_ids:
            raise StoreError(f"line {lineno}: question {uid!r} has no annotated entities")
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
    constraint: TemporalConstraint,
) -> list[Quadruple]:
    """Facts incident to any of ``entities``, under any of ``relations``,
    satisfying ``constraint``.

    Returned sorted ascending by ``(t_start, t_end, insertion order)``.
    """
    ids = store.incident_fact_ids(entities)
    ids = ids[member_mask(store.relation[ids], relations)]
    t_start, t_end = store.t_start[ids], store.t_end[ids]
    kept = constraint.satisfied(t_start, t_end)
    ids, t_start, t_end = ids[kept], t_start[kept], t_end[kept]
    return store.facts_of(ids[np.lexsort((ids, t_end, t_start))])
