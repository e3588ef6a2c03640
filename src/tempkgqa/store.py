"""In-memory temporal knowledge graph: vocabularies, fact columns, and a run index.

A fact ``(subject, relation, object, [t_start, t_end])`` has closed year
bounds for its interval; a point-in-time fact collapses to
``t_start == t_end``.  All three vocabularies map surface labels to dense ids.
Time ids are assigned in chronological order of the underlying years, so
integer comparisons on time ids agree with comparisons on the years
themselves.  Entity and relation ids follow first appearance in the input
file, which keeps checkpoints reproducible for a fixed file.

A fact is a row of :class:`TkgStore`'s five ``int32`` columns, and these
columns are the only per-fact data the store keeps.  A :class:`Quadruple` is
the value read from one row: :class:`FactView`, the sequence behind
``store.facts`` and :meth:`TkgStore.facts_of`, builds one only for the
element read.

The store's one lookup index groups each entity's incident facts into runs,
one per (entity, relation) pair, each already in ``(t_start, t_end, id)``
order, and lists each entity's relations in first-fact order.  So
:meth:`TkgStore.relations_of` reads a slice, and
:meth:`TkgStore.incident_facts` (behind :func:`facts_filtered` and the
retrieval anchors) slices the runs it needs and sorts only when two or more
of them merge.  At 330k facts and 125k entities the index takes ~10 MB of
``int32`` arrays and ~0.1 s to build (two radix sorts).

The five-field text form has one per-line codec, ``_parse_fact_line``:
:meth:`TkgStore.fact_from_label` parses with it, and :meth:`TkgStore.fact_label`
writes the same form.  :func:`load_tkg` parses a whole file column-wise, with
the same checks run in bulk, and only when one fails runs the codec over the
lines to name the first bad one.
:class:`TemporalConstraint` is the one definition of interval satisfaction,
for a single fact and for whole columns alike.

Every JSON file the stages read goes through :func:`decode_record` or, by
uid, :func:`read_records`, so a bad one is named in the same words.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from itertools import chain, count, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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
        self._labels: list[str] = list(labels)
        self._ids: dict[str, int] = dict(zip(self._labels, range(len(self._labels))))
        if len(self._ids) != len(self._labels):
            seen: set[str] = set()
            repeat = next(label for label in self._labels if label in seen or seen.add(label))
            raise StoreError(f"duplicate {name} label: {repeat!r}")

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: str) -> bool:
        return label in self._ids

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
    comparison per id, where ``np.isin`` sorts both arrays.  The ids stay
    Python ints: with numpy 2.4, making one an ``int32`` scalar (~0.4 us)
    costs more than it saves on ``anchor_facts``' two comparisons (~0.15 us
    each)."""
    first, *rest = set(wanted) or (-1,)  # no id is negative: nothing wanted, nothing matches
    mask = values == first
    for value in rest:
        mask |= values == value
    return mask


def _radix_lexsort(*keys: np.ndarray) -> np.ndarray:
    """``np.lexsort(keys)`` of non-negative integer keys, the last one
    primary, as ``int32`` positions.  Each key takes one stable pass per 16
    bits of its largest value, and numpy sorts 16-bit digits in linear
    time: ~3x faster than ``np.lexsort``'s merge sorts here."""
    order = np.arange(len(keys[0]), dtype=np.int32)
    for key in keys:
        for shift in range(0, int(key.max(initial=0)).bit_length(), 16):
            order = order[np.argsort((key >> shift).astype(np.uint16)[order], kind="stable")]
    return order


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
    """Immutable fact store: one ``int32`` column per fact field and an
    (entity, relation) run index.

    ``facts`` is an ``(n, 5)`` id array or a sequence of quadruples; every
    row is checked here.  ``subject``, ``relation``, ``object``, ``t_start``
    and ``t_end`` are read-only columns indexed by fact id, and ``facts``
    is the :class:`FactView` of all of them.

    Each fact is an entry of its subject and, unless it is a self-loop, of
    its object.  The run index keeps the entries sorted by ``(entity,
    relation, t_start, t_end, fact id)`` as time ranks: ``_by_time`` lists
    the fact ids in ``(t_start, t_end, id)`` order, and an entry holds its
    fact's position there.  Run ``r``, the entries of one (entity, relation)
    pair, is ``_run_ranks[_run_start[r]:_run_start[r + 1]]``, ascending,
    under relation ``_run_relation[r]``.  Entity ``e`` owns runs
    ``_entity_runs[e]:_entity_runs[e + 1]``, by ascending relation, and the
    same range of ``_entity_relations`` lists those relations in order of
    their first fact id.
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
        self._index_runs()

    def _index_runs(self) -> None:
        """Build the run index from two stable sorts: the facts by time
        (ties keep the id order), then their entries, taken in time order,
        by entity and relation."""
        n, n_entities = self._columns.shape[1], len(self.entities)
        self._by_time = _radix_lexsort(self.t_start * np.int64(len(self.times)) + self.t_end)
        entity = np.empty(2 * n, dtype=np.int32)
        entity[0::2], entity[1::2] = self.subject[self._by_time], self.object[self._by_time]
        keep = np.ones(2 * n, dtype=bool)
        keep[1::2] = entity[1::2] != entity[0::2]
        entity = entity[keep]
        rank = np.repeat(np.arange(n, dtype=np.int32), 2)[keep]
        order = _radix_lexsort(self.relation[self._by_time[rank]], entity)
        entity, rank = entity[order], rank[order]
        del order  # keeps the build's peak memory below the file parse's
        relation = self.relation[self._by_time[rank]]
        # A run starts where the (entity, relation) pair changes; one more
        # boundary closes the last run.
        bounds = np.ones(len(rank) + 1, dtype=bool)
        bounds[1:-1] = (entity[1:] != entity[:-1]) | (relation[1:] != relation[:-1])
        self._run_start = np.flatnonzero(bounds).astype(np.int32)
        starts = self._run_start[:-1]
        run_entity = entity[starts]
        self._run_ranks = rank
        self._run_relation = relation[starts]
        self._entity_runs = np.zeros(n_entities + 1, dtype=np.int32)
        np.cumsum(np.bincount(run_entity, minlength=n_entities), out=self._entity_runs[1:])
        # np.minimum.reduceat rejects an empty index array.
        first_fact = (np.minimum.reduceat(self._by_time[rank], starts) if len(starts)
                      else starts)
        by_first = np.argsort(run_entity * np.int64(n) + first_fact)  # distinct keys
        self._entity_relations = self._run_relation[by_first]
        for index in (self._by_time, self._run_ranks, self._run_start, self._run_relation,
                      self._entity_runs, self._entity_relations):
            index.flags.writeable = False

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

    def relations_of(self, entities: Iterable[int]) -> list[int]:
        """Relations of the facts incident to any of ``entities``, each once,
        in first-occurrence order: entity by entity as given, and each
        entity's relations in order of their first fact id.  An id outside
        the entity vocabulary has no facts."""
        bounds = self._entity_runs
        parts = [self._entity_relations[bounds[e]:bounds[e + 1]].tolist()
                 for e in entities if 0 <= e < len(bounds) - 1]
        if len(parts) == 1:
            return parts[0]
        return list(dict.fromkeys(relation for part in parts for relation in part))

    def incident_facts(self, entities: Iterable[int], relations: Iterable[int]) -> np.ndarray:
        """Ids of the facts incident to any of ``entities`` under any of
        ``relations``, each once, in ``(t_start, t_end, id)`` order.  Ids
        outside the vocabularies have no facts.

        Each (entity, relation) run is in that order already, so only two or
        more runs are merged: sorted, and rid of the facts that link two of
        ``entities`` and so sit in two runs.
        """
        wanted = set(relations)
        runs = []
        for entity in set(entities):
            if not 0 <= entity < len(self._entity_runs) - 1:
                continue
            low, high = self._entity_runs[entity:entity + 2].tolist()
            held = self._run_relation[low:high].tolist()
            for relation in wanted:
                run = bisect_left(held, relation)
                if run < len(held) and held[run] == relation:
                    start, stop = self._run_start[low + run:low + run + 2].tolist()
                    runs.append(self._run_ranks[start:stop])
        if len(runs) < 2:
            return self._by_time[runs[0] if runs else _NO_FACTS]
        # Sort and drop repeats by hand: ``np.unique`` hashes, ~30x slower here.
        ranks = np.sort(np.concatenate(runs))
        keep = np.ones(len(ranks), dtype=bool)
        keep[1:] = ranks[1:] != ranks[:-1]
        return self._by_time[ranks[keep]]

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
    if "\t" in subject + relation + obj:
        raise StoreError("label holds a tab, which separates answers in prompts")
    try:
        start, end = int(start_text), int(end_text)
    except ValueError:
        raise StoreError("non-integer year") from None
    if str(start) != start_text or str(end) != end_text:
        raise StoreError("non-canonical year spelling")
    if start > end:
        raise StoreError(f"start year {start} after end year {end}")
    return subject, relation, obj, start, end


def _utf8(raw: bytes) -> str:
    """``raw`` as text: the UTF-8 step of every file the stages read."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise StoreError(f"not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _read_utf8(path: str | Path) -> str:
    """The file's text, which :func:`load_tkg` holds only while it parses."""
    try:
        return _utf8(Path(path).read_bytes())
    except StoreError as exc:
        raise StoreError(f"{path}: {exc}") from None


#: Characters of fact-file text parsed at a time: enough lines (~1,000 at
#: CronQuestions label lengths) to amortise the per-block calls, few enough
#: that a block's line and field lists stay small beside the columns.
BLOCK_CHARS = 1 << 15


def _text_blocks(text: str) -> Iterator[str]:
    """``text`` in consecutive pieces of about :data:`BLOCK_CHARS`
    characters, each but the last ending just after a line feed.  A line
    feed ends a line for :meth:`str.splitlines` and a cut after it keeps a
    ``\\r\\n`` whole, so the pieces' lines are the text's lines."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start + BLOCK_CHARS) + 1 or len(text)
        yield text[start:stop]
        start = stop


def _canonical_year(text: str) -> int | None:
    """The year ``text`` spells canonically, else ``None``."""
    try:
        year = int(text)
    except ValueError:
        return None
    return year if str(year) == text else None


def _merge_stripped(raw_ids: dict[str, int], ids: np.ndarray) -> dict[str, None]:
    """The labels of ``raw_ids`` stripped, repeats dropped, in first-appearance
    order as the keys of a dict; ``ids`` is renumbered in place to match."""
    stripped = list(map(str.strip, raw_ids))
    merged = dict.fromkeys(stripped)
    if len(merged) < len(stripped):
        position = dict(zip(merged, range(len(merged))))
        ids[...] = np.fromiter(map(position.__getitem__, stripped), np.int32,
                               len(stripped))[ids]
    return merged


def _raise_first_bad_line(path: str | Path, text: str) -> None:
    """Run :func:`_parse_fact_line` over the lines of ``text`` and raise the
    first one's error, naming ``path`` and the line."""
    lines = chain.from_iterable(map(str.splitlines, _text_blocks(text)))
    for lineno, line in enumerate(lines, 1):
        try:
            _parse_fact_line(line)
        except StoreError as exc:
            raise StoreError(f"{path}, line {lineno}: {exc}") from None


def _parse_fact_text(path: str | Path, text: str) -> tuple[tuple[Vocabulary, ...], np.ndarray]:
    """The three vocabularies and the ``(5, n)`` id columns of a fact file's
    text; see :func:`load_tkg`."""
    entity_ids: dict[str, int] = defaultdict(count().__next__)
    relation_ids: dict[str, int] = defaultdict(count().__next__)
    year_ids: dict[str, int] = defaultdict(count().__next__)
    # Every line that passes the field count holds exactly four separators,
    # so this many columns hold the lines of all blocks that pass, and a
    # valid file fills them.
    columns = np.empty((FACT_FIELDS, text.count(FACT_SEPARATOR) // (FACT_FIELDS - 1)),
                       dtype=np.int32)
    done = 0
    for block in _text_blocks(text):
        lines = block.splitlines()
        if set(map(str.count, lines, repeat(FACT_SEPARATOR))) != {FACT_FIELDS - 1}:
            _raise_first_bad_line(path, text)
        fields = FACT_SEPARATOR.join(lines).split(FACT_SEPARATOR)
        rows = columns[:, done:done + len(lines)]
        done += len(lines)
        # Subject and object interleaved, as a line is read: entity ids
        # follow first appearance line by line.
        pairs = [""] * (2 * len(lines))
        pairs[0::2], pairs[1::2] = fields[0::FACT_FIELDS], fields[2::FACT_FIELDS]
        rows[0:3:2] = np.fromiter(map(entity_ids.__getitem__, pairs), np.int32,
                                  len(pairs)).reshape(-1, 2).T
        for row, interned in ((1, relation_ids), (3, year_ids), (4, year_ids)):
            rows[row] = np.fromiter(map(interned.__getitem__, fields[row::FACT_FIELDS]),
                                    np.int32, len(lines))
    entities = _merge_stripped(entity_ids, columns[0:3:2])
    relations = _merge_stripped(relation_ids, columns[1])
    years = [_canonical_year(label.strip()) for label in year_ids]
    # one scan of the text first: only a file holding a tab searches its labels
    tabbed = "\t" in text and "\t" in "".join(chain(entities, relations))
    if "" in entities or "" in relations or None in years or tabbed:
        _raise_first_bad_line(path, text)
    chronological = sorted(set(years))
    rank = dict(zip(chronological, range(len(chronological))))
    columns[3:] = np.array([rank[year] for year in years], dtype=np.int32)[columns[3:]]
    if (columns[3] > columns[4]).any():
        _raise_first_bad_line(path, text)
    return (Vocabulary("entity", entities), Vocabulary("relation", relations),
            Vocabulary("time", map(str, chronological))), columns


def load_tkg(path: str | Path) -> TkgStore:
    """Build a store from a ``subject|relation|object|start|end`` fact file.

    The text is parsed column-wise in blocks of about :data:`BLOCK_CHARS`
    characters cut after a line feed.  Each block is split into lines, then
    joined with ``|`` and split once; its five fields are strided slices of
    that list.  Entity, relation and year texts are interned per column in
    one C-level pass each, ids in first-appearance order, and the years
    then become chronological time ids.

    Every check of :func:`_parse_fact_line` runs in bulk: the field count as
    the set of each block's per-line ``|`` counts (a count over the whole
    block would let a 6-field line beside a 4-field line pass as two facts);
    stripping, empty labels, tabs and year spelling once per distinct text, raw
    labels that strip alike merging into one id; start after end as one
    array comparison.  Only a failed check runs :func:`_parse_fact_line`
    over the lines, to raise the first bad line's error naming the file and
    the line.

    Memory, at 330k facts (``perfbench/gen.py`` seed 1, three loads in one
    process): one block for the whole file peaked at 228 MB RSS against the
    line loop's 100 MB.  Blocks that each kept their own id arrays peaked at
    106 MB, from the freed heap those arrays leave behind; filling the
    store's own ``(5, n)`` columns in place peaks at 96 MB.  The text and the
    label dicts are dropped before the store builds its index.
    """
    vocabularies, columns = _parse_fact_text(path, _read_utf8(path))
    return TkgStore(*vocabularies, columns.T)


def decode_json(raw: bytes):
    """The JSON value of ``raw``, decoded as UTF-8 first (the ``json`` module
    reads UTF-16 and UTF-32 bytes too), or a :class:`StoreError`."""
    text = _utf8(raw)
    try:
        return json.loads(text)
    except RecursionError:
        raise StoreError("not valid JSON (nested too deeply)") from None
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise StoreError(f"not valid JSON ({getattr(exc, 'msg', exc)})") from None


def decode_record(raw: bytes, keys: Sequence[str] = ()) -> dict:
    """The JSON object of ``raw`` (:func:`decode_json`), holding ``keys``."""
    record = decode_json(raw)
    if not isinstance(record, dict):
        raise StoreError("record is not a JSON object")
    missing = [key for key in keys if key not in record]
    if missing:
        raise StoreError(f"record has no key {missing[0]!r}")
    return record


def read_records(path: str | Path, keys: Sequence[str],
                 convert: Callable[[dict], tuple[str, object]]) -> dict:
    """The values of a JSONL file by uid, in file order: ``convert`` returns
    the uid and value of each line's :func:`decode_record` of ``keys``.  A
    line ends only at a line feed, a carriage return or both.  A bad line,
    and a uid already on an earlier one, raise :class:`StoreError` naming
    the file and the line."""
    values = {}
    first_line: dict = {}
    for number, line in enumerate(Path(path).read_bytes().splitlines(), 1):
        try:
            uid, value = convert(decode_record(line, keys))
            if first_line.setdefault(uid, number) != number:
                raise StoreError(f"uid {uid!r} already on line {first_line[uid]}")
        except (ValueError, KeyError, TypeError) as exc:  # StoreError is a ValueError
            raise StoreError(f"{path}, line {number}: {exc}") from None
        values[uid] = value
    return values


def _require_verbatim(label: str, lowered_text: str, uid: str) -> None:
    if label.lower() not in lowered_text:
        raise StoreError(f"question {uid!r}: annotation {label!r} not present in text")


def _question(store: TkgStore, record: dict) -> tuple[str, Question]:
    """A question record's uid and question, labels resolved against ``store``."""
    for key in ("entities", "times", "answers"):
        if not isinstance(record[key], list):
            raise StoreError(f"{key!r} must be a list")
    uid = str(record["uid"])
    text = str(record["text"])
    lowered_text = text.lower()
    qtype = QuestionType(record["qtype"])
    atype = AnswerType(record["atype"])

    entity_ids = []
    for label in record["entities"]:
        _require_verbatim(str(label), lowered_text, uid)
        entity_ids.append(store.entities.id(str(label)))
    if not entity_ids:
        raise StoreError(f"question {uid!r} has no annotated entities")
    time_ids = []
    for year in record["times"]:
        _require_verbatim(str(year), lowered_text, uid)
        time_ids.append(store.times.id(str(year)))

    answer_vocab = store.entities if atype is AnswerType.ENTITY else store.times
    gold = frozenset(answer_vocab.id(str(a)) for a in record["answers"])
    return uid, Question(uid, text, tuple(entity_ids), tuple(time_ids), qtype, atype, gold)


def load_questions(path: str | Path, store: TkgStore) -> list[Question]:
    """The questions of a JSONL file, read by :func:`read_records`."""
    return list(read_records(path, QUESTION_KEYS,
                             lambda record: _question(store, record)).values())


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
    ids = store.incident_facts(entities, relations)
    return store.facts_of(ids[constraint.satisfied(store.t_start[ids], store.t_end[ids])])
