"""In-memory temporal knowledge graph: vocabularies, fact columns, and lookup indexes.

A fact ``(subject, relation, object, [t_start, t_end])`` has closed year
bounds for its interval; a point-in-time fact collapses to
``t_start == t_end``.  All three vocabularies map surface labels to dense ids.
Time ids are assigned in chronological order of the underlying years, so
integer comparisons on time ids agree with comparisons on the years
themselves.  Entity and relation ids follow first appearance in the input
file, which keeps checkpoints reproducible for a fixed file.

A fact is a row of :class:`TkgStore`'s five ``int32`` columns, and these
columns are the only per-fact data the store keeps; a CSR index maps each
entity to the ids of its incident facts, in insertion order.  A
:class:`Quadruple` is the value read from one row: :class:`FactView`, the
sequence behind ``store.facts`` and :meth:`TkgStore.facts_of`, builds one only
for the element read.  Lookups and :func:`facts_filtered` scan the columns.
The five-field text form has one codec: :func:`load_tkg` and
:meth:`TkgStore.fact_from_label` parse it with the same checks, and
:meth:`TkgStore.fact_label` writes it.
:class:`TemporalConstraint` is the one definition of interval satisfaction,
for a single fact and for whole columns alike.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

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


class Quadruple(NamedTuple):
    """One fact as read from a store row; all fields are dense ids, times are
    chronological.  :class:`TkgStore` checks the rows it is built from."""

    subject: int
    relation: int
    object: int
    t_start: int
    t_end: int


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


class FactView(Sequence[Quadruple]):
    """Read-only sequence of the store's facts with ids ``ids``, in that order.

    Reading an element builds the :class:`Quadruple` of its row, in Python
    ints; a slice or an integer-array index gives another view, and
    ``np.asarray(view)`` the ``(len, 5)`` id rows, without building any.  A
    view equals any sequence of the same quadruples.
    """

    __slots__ = ("_columns", "_ids")

    def __init__(self, columns: np.ndarray, ids: np.ndarray) -> None:
        self._columns = columns
        self._ids = ids

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, index):
        if isinstance(index, (slice, np.ndarray)):
            return FactView(self._columns, self._ids[index])
        return Quadruple._make(self._columns[:, self._ids[index]].tolist())

    def __iter__(self):
        return map(Quadruple._make, np.asarray(self).tolist())

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        rows = self._columns[:, self._ids].T
        return rows if dtype is None else rows.astype(dtype)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


class TkgStore:
    """Immutable fact store: one ``int32`` column per fact field and a
    per-entity CSR index.

    ``facts`` is an ``(n, 5)`` id array or a sequence of quadruples; every
    row is checked here.  ``subject``, ``relation``, ``object``, ``t_start``
    and ``t_end`` are read-only columns indexed by fact id, and ``facts``
    is the :class:`FactView` of all of them.  The facts incident to entity
    ``e`` (as subject or object, a self-loop once) are
    ``_rows[_offsets[e]:_offsets[e + 1]]``, in ascending fact id.
    """

    def __init__(self, entities: Vocabulary, relations: Vocabulary, times: Vocabulary,
                 facts: np.ndarray | Sequence[Quadruple]) -> None:
        self.entities = entities
        self.relations = relations
        self.times = times
        self._columns = np.ascontiguousarray(np.asarray(facts, dtype=np.int32).reshape(-1, 5).T)
        self._columns.flags.writeable = False
        self.subject, self.relation, self.object, self.t_start, self.t_end = self._columns
        n = self._columns.shape[1]
        self.facts = FactView(self._columns, np.arange(n, dtype=np.int32))
        self._check_rows()

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

    def _check_rows(self) -> None:
        """Reject the first fact with a negative id, a backwards interval or
        an id outside the vocabularies."""
        n_entities = len(self.entities)
        problems = (
            ((self._columns < 0).any(axis=0), "negative id in fact: {}"),
            (self.t_start > self.t_end, "interval runs backwards: {}"),
            ((self.subject >= n_entities) | (self.object >= n_entities),
             "entity id out of range in {}"),
            (self.relation >= len(self.relations), "relation id out of range in {}"),
            (self.t_end >= len(self.times), "time id out of range in {}"),
        )
        bad = np.logical_or.reduce([mask for mask, _ in problems])
        if bad.any():
            first = int(np.argmax(bad))
            message = next(message for mask, message in problems if mask[first])
            raise StoreError(message.format(self.facts[first]))

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

    def facts_of(self, fact_ids: Sequence[int] | np.ndarray) -> FactView:
        """The facts of ``fact_ids``, in that order."""
        return FactView(self._columns, np.asarray(fact_ids))

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

    def fact_from_label(self, text: str) -> Quadruple:
        """Inverse of :meth:`fact_label`: parse one five-field fact with the
        fact file's checks and resolve its labels."""
        try:
            subject, relation, obj, start, end = _parse_fact_line(text)
            return Quadruple(self.entities.id(subject), self.relations.id(relation),
                             self.entities.id(obj), self.times.id(str(start)),
                             self.times.id(str(end)))
        except StoreError as exc:
            raise StoreError(f"fact {text!r}: {exc}") from None


def _parse_fact_line(line: str) -> tuple[str, str, str, int, int]:
    fields = list(map(str.strip, line.split(FACT_SEPARATOR)))
    if len(fields) != FACT_FIELDS:
        raise StoreError(f"expected {FACT_FIELDS} '|'-separated fields, got {len(fields)}")
    subject, relation, obj, start_text, end_text = fields
    if not subject or not relation or not obj:
        raise StoreError("empty label")
    try:
        start, end = int(start_text), int(end_text)
    except ValueError:
        raise StoreError("non-integer year") from None
    if str(start) != start_text or str(end) != end_text:
        raise StoreError("non-canonical year spelling")
    if start > end:
        raise StoreError(f"start year {start} after end year {end}")
    return subject, relation, obj, start, end


def load_tkg(path: str | Path) -> TkgStore:
    """Build a store from a ``subject|relation|object|start|end`` fact file.

    One pass parses each line straight into entity and relation ids, interned
    in first-appearance order, and raw years; the years then become
    chronological time ids in one renumbering of the two time columns.
    """
    entity_ids: dict[str, int] = {}
    relation_ids: dict[str, int] = {}
    year_ids: dict[int, int] = {}  # in first appearance until the renumbering
    rows = array("i")
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        try:
            subject, relation, obj, start, end = _parse_fact_line(line)
        except StoreError as exc:
            raise StoreError(f"line {lineno}: {exc}") from None
        rows.extend((
            entity_ids.setdefault(subject, len(entity_ids)),
            relation_ids.setdefault(relation, len(relation_ids)),
            entity_ids.setdefault(obj, len(entity_ids)),
            year_ids.setdefault(start, len(year_ids)),
            year_ids.setdefault(end, len(year_ids)),
        ))
    years = sorted(year_ids)
    chronological = np.empty(len(years), dtype=np.int32)
    chronological[[year_ids[y] for y in years]] = np.arange(len(years))
    facts = np.frombuffer(rows, dtype=np.int32).reshape(-1, 5)
    facts[:, 3:] = chronological[facts[:, 3:]]
    return TkgStore(Vocabulary("entity", entity_ids), Vocabulary("relation", relation_ids),
                    Vocabulary("time", map(str, years)), facts)


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
) -> FactView:
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
