"""Deterministic synthetic fixtures.

Three generators, all seeded:

- :func:`patterned_tkg` builds a store whose facts repeat each base triple
  at several timestamps, so held-out occurrences of known triples are
  predictable from the remaining ones.  Used to sanity-check pre-training.
- :func:`qa_fixture` builds a small world of position chains, team rosters,
  awards, and employments plus paraphrase-paired questions over it; every
  question's answer-bearing facts are reachable through the offline
  retrieval path by construction.
- :func:`retrieval_stress` builds a large random store and question list
  for exhaustive retrieval comparisons; the gold answers are placeholders.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cli import MAX_FACTS
from .store import (
    AnswerType,
    Question,
    QuestionType,
    Quadruple,
    TemporalConstraint,
    TkgStore,
    Vocabulary,
    facts_filtered,
)

FactLine = tuple[str, str, str, int, int]


# ---------------------------------------------------------------------------
# patterned pre-training fixture
# ---------------------------------------------------------------------------

@dataclass
class PatternedTkg:
    lines: list[str]          # fact file lines, one per fact
    heldout: list[int]        # indices into ``lines`` withheld from training


def patterned_tkg(
    seed: int = 0,
    n_entities: int = 100,
    n_relations: int = 8,
    n_times: int = 10,
    n_triples: int = 200,
    times_per_triple: int = 3,
    n_heldout: int = 60,
) -> PatternedTkg:
    """Base triples emitted at several years each; one year of some triples
    is withheld so the emission pattern stays learnable from the rest."""
    rng = np.random.default_rng(seed)
    years = [1990 + i for i in range(n_times)]
    triples: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    # Round-robin openers guarantee every entity, relation, and year occurs.
    i = 0
    while len(triples) < n_triples:
        if i < n_entities // 2:
            subject, obj = 2 * i, (2 * i + 1) % n_entities
            relation = i % n_relations
        else:
            subject = int(rng.integers(n_entities))
            obj = int(rng.integers(n_entities - 1))
            obj = obj + 1 if obj >= subject else obj
            relation = int(rng.integers(n_relations))
        key = (subject, relation, obj)
        if key not in seen:
            seen.add(key)
            triples.append(key)
        i += 1

    lines: list[str] = []
    last_emission: list[int] = []
    for index, (subject, relation, obj) in enumerate(triples):
        if index < n_times:
            forced = years[index % n_times]
            rest = [y for y in years if y != forced]
            chosen = sorted([forced] + [
                int(y) for y in rng.choice(rest, size=times_per_triple - 1, replace=False)
            ])
        else:
            chosen = sorted(
                int(y) for y in rng.choice(years, size=times_per_triple, replace=False)
            )
        for year in chosen:
            lines.append(f"E{subject:03d}|R{relation}|E{obj:03d}|{year}|{year}")
        last_emission.append(len(lines) - 1)

    withheld_triples = rng.choice(len(triples), size=n_heldout, replace=False)
    heldout = sorted(int(last_emission[t]) for t in withheld_triples)
    return PatternedTkg(lines, heldout)


def write_patterned_tkg(directory: str | Path, fixture: PatternedTkg) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "facts.txt").write_text("\n".join(fixture.lines) + "\n", encoding="utf-8")
    (directory / "split.json").write_text(
        json.dumps({"heldout": fixture.heldout}) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# question-answering fixture
# ---------------------------------------------------------------------------

POSITIONS = [
    "Governor of Avalon", "Governor of Brookfield", "Governor of Rivermont",
    "Governor of Calder", "Mayor of Dunmore", "Mayor of Eastvale",
    "Dean of Farleigh", "Dean of Glenrock",
]
TEAMS = [
    "Avalon City", "Brookfield United", "Calder Rovers",
    "Dunmore Athletic", "Eastvale Rangers", "Farleigh Wanderers",
]
AWARDS = [
    "Order of the Silver Fern", "Golden Compass Prize",
    "Medal of Glenrock", "Rivermont Honor",
]
COMPANIES = [
    "Calder Ironworks", "Eastvale Press", "Dunmore and Sons", "Farleigh Mills",
]
FIRST_NAMES = [
    "Alma", "Boris", "Clara", "Denis", "Edith", "Felix", "Greta", "Hugo",
    "Irene", "Jonas", "Karla", "Lionel", "Mara", "Nils", "Olga", "Pavel",
    "Quinn", "Rosa", "Stefan", "Tilda", "Ulric", "Vera", "Wanda", "Yuri",
    "Anton", "Brita", "Casimir", "Dora",
]
LAST_NAMES = [
    "Ashford", "Bell", "Carver", "Dray", "Ellerton", "Fox", "Grieve",
    "Holt", "Ireton", "Jessop", "Kane", "Larkin", "Moss", "Norr",
]

POSITION_HELD = "position held"
MEMBER_OF = "member of sports team"
AWARD_RECEIVED = "award received"
EMPLOYER = "employer"

YEAR_LO, YEAR_HI = 1980, 1999


@dataclass
class QaFixture:
    fact_lines: list[str]
    train: list[dict]
    test: list[dict]


def _person_names(count: int) -> list[str]:
    names = []
    for i in range(count):
        names.append(f"{FIRST_NAMES[i % len(FIRST_NAMES)]} {LAST_NAMES[i // len(FIRST_NAMES)]}")
    return names


def _overlap(a1: int, b1: int, a2: int, b2: int) -> bool:
    return max(a1, a2) <= min(b1, b2)


def qa_fixture(seed: int = 0) -> QaFixture:
    rng = np.random.default_rng(seed)
    people = _person_names(56)
    politicians = people[:32]
    athletes = people[32:]

    facts: list[FactLine] = []

    # Position chains: consecutive, non-overlapping terms.
    holders_of: dict[str, list[tuple[str, int, int]]] = {}
    for p_idx, position in enumerate(POSITIONS):
        year = YEAR_LO + int(rng.integers(0, 3))
        chain = []
        for h in range(4):
            person = politicians[p_idx * 4 + h]
            length = int(rng.integers(2, 5))
            end = min(year + length - 1, YEAR_HI)
            chain.append((person, year, end))
            facts.append((person, POSITION_HELD, position, year, end))
            year = end + 1
            if year > YEAR_HI - 1:
                year = YEAR_HI - 1
        holders_of[position] = chain

    # Each politician works somewhere; four companies share them.
    employees_of: dict[str, list[tuple[str, int, int]]] = {c: [] for c in COMPANIES}
    for idx, person in enumerate(politicians):
        company = COMPANIES[idx % len(COMPANIES)]
        start = YEAR_LO + int(rng.integers(0, 10))
        end = min(start + int(rng.integers(3, 9)), YEAR_HI)
        employees_of[company].append((person, start, end))
        facts.append((person, EMPLOYER, company, start, end))

    # Half of the politicians also pick up an award (point facts).
    recipients_of: dict[str, list[tuple[str, int, int]]] = {a: [] for a in AWARDS}
    for idx, person in enumerate(politicians[:16]):
        award = AWARDS[idx % len(AWARDS)]
        year = YEAR_LO + int(rng.integers(0, 20))
        recipients_of[award].append((person, year, year))
        facts.append((person, AWARD_RECEIVED, award, year, year))

    # Athletes rotate through teams; stints may overlap across athletes.
    stints_of: dict[str, list[tuple[str, int, int]]] = {t: [] for t in TEAMS}
    athlete_stints: dict[str, list[tuple[str, int, int]]] = {a: [] for a in athletes}
    for idx, athlete in enumerate(athletes):
        n_stints = 2 + int(rng.integers(0, 2))
        team_ids = [(idx + hop) % len(TEAMS) for hop in range(0, 2 * n_stints, 2)]
        year = YEAR_LO + int(rng.integers(0, 6))
        for team_id in team_ids:
            team = TEAMS[team_id]
            length = int(rng.integers(2, 6))
            end = min(year + length - 1, YEAR_HI)
            stints_of[team].append((athlete, year, end))
            athlete_stints[athlete].append((team, year, end))
            facts.append((athlete, MEMBER_OF, team, year, end))
            year = year + int(rng.integers(1, 4))
            if year > YEAR_HI - 1:
                break

    lines = [f"{s}|{r}|{o}|{a}|{b}" for s, r, o, a, b in facts]

    entities = Vocabulary("entity", dict.fromkeys(x for s, _, o, _, _ in facts for x in (s, o)))
    relations = Vocabulary("relation", dict.fromkeys(r for _, r, _, _, _ in facts))
    times = Vocabulary("time", map(str, range(YEAR_LO, YEAR_HI + 1)))
    store = TkgStore(entities, relations, times, [
        (entities.id(s), relations.id(r), entities.id(o), times.id(str(a)), times.id(str(b)))
        for s, r, o, a, b in facts
    ])

    def time_id(year: int) -> int:
        return times.id(str(year))

    def supported(annotated: list[str], relation: str, constraint: TemporalConstraint,
                  answers: list, atype: AnswerType) -> bool:
        """Would the evidence offline retrieval keeps cover every answer?"""
        kept = facts_filtered(store, map(entities.id, annotated), [relations.id(relation)],
                              constraint)[:MAX_FACTS]
        if atype is AnswerType.TIME:
            covered = {store.year(t) for fact in kept for t in (fact.t_start, fact.t_end)}
        else:
            covered = {entities.label(fact.subject) for fact in kept}
        return set(answers) <= covered

    # -- questions ------------------------------------------------------
    pairs: list[tuple[dict, dict]] = []
    uid = [0]

    def emit(texts: tuple[str, str], entities: list[str], times: list[int],
             qtype: QuestionType, atype: AnswerType, answers: list[str]) -> None:
        records = []
        for text in texts:
            uid[0] += 1
            records.append({
                "uid": f"q{uid[0]:04d}",
                "text": text,
                "entities": entities,
                "times": times,
                "qtype": qtype.value,
                "atype": atype.value,
                "answers": sorted(set(answers)),
            })
        pairs.append((records[0], records[1]))

    entity_templates = {
        POSITION_HELD: (
            "Who held the position of {obj} in {year}?",
            "Which person held the position {obj} during {year}?",
        ),
        MEMBER_OF: (
            "Who was a member of sports team {obj} in {year}?",
            "Which player was a member of the sports team {obj} during {year}?",
        ),
        AWARD_RECEIVED: (
            "Who received the award {obj} in {year}?",
            "Which person had received the award {obj} during {year}?",
        ),
        EMPLOYER: (
            "Who worked with employer {obj} in {year}?",
            "Which person had {obj} as their employer during {year}?",
        ),
    }

    def simple_entity(obj: str, relation: str, occupants: list[tuple[str, int, int]]) -> None:
        anchor = occupants[int(rng.integers(len(occupants)))]
        year = int(rng.integers(anchor[1], anchor[2] + 1))
        answers = [p for p, a, b in occupants if a <= year <= b]
        assert supported([obj], relation, TemporalConstraint.at(time_id(year)), answers,
                         AnswerType.ENTITY)
        t1, t2 = entity_templates[relation]
        emit(
            (t1.format(obj=obj, year=year), t2.format(obj=obj, year=year)),
            [obj], [year], QuestionType.SIMPLE_ENTITY, AnswerType.ENTITY, answers,
        )

    for position in POSITIONS:
        simple_entity(position, POSITION_HELD, holders_of[position])
    for team in TEAMS:
        simple_entity(team, MEMBER_OF, stints_of[team])
    for award in AWARDS:
        simple_entity(award, AWARD_RECEIVED, recipients_of[award])
    for company in COMPANIES:
        simple_entity(company, EMPLOYER, employees_of[company])

    time_templates = {
        POSITION_HELD: (
            "When did {subj} hold the position of {obj}?",
            "During which years did {subj} hold the position of {obj}?",
        ),
        AWARD_RECEIVED: (
            "When did {subj} receive the award {obj}?",
            "In which year did {subj} receive the award {obj}?",
        ),
        EMPLOYER: (
            "When did {subj} work with employer {obj}?",
            "During which years did {subj} have {obj} as employer?",
        ),
    }

    def simple_time(subj: str, obj: str, relation: str, start: int, end: int) -> None:
        assert supported([subj], relation, TemporalConstraint.none(), [start, end],
                         AnswerType.TIME)
        t1, t2 = time_templates[relation]
        emit(
            (t1.format(subj=subj, obj=obj), t2.format(subj=subj, obj=obj)),
            [subj], [], QuestionType.SIMPLE_TIME, AnswerType.TIME,
            [str(start), str(end)],
        )

    for position in POSITIONS[:6]:
        person, start, end = holders_of[position][int(rng.integers(4))]
        simple_time(person, position, POSITION_HELD, start, end)
    for award in AWARDS:
        person, start, end = recipients_of[award][0]
        simple_time(person, award, AWARD_RECEIVED, start, end)
    for company in COMPANIES:
        person, start, end = employees_of[company][int(rng.integers(2))]
        simple_time(person, company, EMPLOYER, start, end)

    before_after_templates = {
        "after": (
            "Who held the position of {obj} after {anchor}?",
            "Which person held the position {obj} after the term of {anchor}?",
        ),
        "before": (
            "Who held the position of {obj} before {anchor}?",
            "Which person held the position {obj} before the term of {anchor}?",
        ),
    }

    for p_idx, position in enumerate(POSITIONS):
        chain = holders_of[position]
        anchor = chain[int(rng.integers(0, 2))]  # not the last holder
        answers = [p for p, a, b in chain if b > anchor[2]]
        assert supported([anchor[0], position], POSITION_HELD,
                         TemporalConstraint.after(time_id(anchor[2])), answers, AnswerType.ENTITY)
        t1, t2 = before_after_templates["after"]
        emit(
            (t1.format(obj=position, anchor=anchor[0]),
             t2.format(obj=position, anchor=anchor[0])),
            [anchor[0], position], [], QuestionType.BEFORE_AFTER, AnswerType.ENTITY, answers,
        )
        anchor = chain[int(rng.integers(2, 4))]  # not the first holder
        answers = [p for p, a, b in chain if a < anchor[1]]
        assert supported([anchor[0], position], POSITION_HELD,
                         TemporalConstraint.before(time_id(anchor[1])), answers, AnswerType.ENTITY)
        t1, t2 = before_after_templates["before"]
        emit(
            (t1.format(obj=position, anchor=anchor[0]),
             t2.format(obj=position, anchor=anchor[0])),
            [anchor[0], position], [], QuestionType.BEFORE_AFTER, AnswerType.ENTITY, answers,
        )

    first_last_templates = {
        "first": (
            "When was {subj} first a member of a sports team?",
            "In which year did {subj} become a member of a sports team for the first time?",
        ),
        "last": (
            "When was {subj} last a member of a sports team?",
            "In which year was {subj} a member of a sports team for the last time?",
        ),
    }

    multi_stint = [a for a in athletes if len(athlete_stints[a]) >= 2]
    for idx, athlete in enumerate(multi_stint[:12]):
        stints = athlete_stints[athlete]
        which = "first" if idx % 2 == 0 else "last"
        if which == "first":
            answer = min(a for _, a, _ in stints)
        else:
            answer = max(b for _, _, b in stints)
        assert supported([athlete], MEMBER_OF, TemporalConstraint.none(), [answer],
                         AnswerType.TIME)
        answer = str(answer)
        t1, t2 = first_last_templates[which]
        emit(
            (t1.format(subj=athlete), t2.format(subj=athlete)),
            [athlete], [], QuestionType.FIRST_LAST, AnswerType.TIME, [answer],
        )

    join_templates = (
        "Who was a member of sports team {obj} together with {anchor}?",
        "Together with {anchor}, which player was a member of the sports team {obj}?",
    )

    emitted_joins = 0
    for team in TEAMS * 3:
        if emitted_joins >= 12:
            break
        roster = stints_of[team]
        anchor = roster[int(rng.integers(len(roster)))]
        answers = [
            p for p, a, b in roster
            if p != anchor[0] and _overlap(a, b, anchor[1], anchor[2])
        ]
        if not answers or not supported(
            [anchor[0], team], MEMBER_OF,
            TemporalConstraint.between(time_id(anchor[1]), time_id(anchor[2])), answers,
            AnswerType.ENTITY,
        ):
            continue
        emit(
            (join_templates[0].format(obj=team, anchor=anchor[0]),
             join_templates[1].format(obj=team, anchor=anchor[0])),
            [anchor[0], team], [], QuestionType.TIME_JOIN, AnswerType.ENTITY, answers,
        )
        emitted_joins += 1

    train, test = [], []
    for index, (first, second) in enumerate(pairs):
        if index % 2 == 0:
            train.append(first)
            test.append(second)
        else:
            train.append(second)
            test.append(first)
    return QaFixture(lines, train, test)


def write_qa_fixture(directory: str | Path, fixture: QaFixture) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "facts.txt").write_text(
        "\n".join(fixture.fact_lines) + "\n", encoding="utf-8"
    )
    for name, questions in (("questions_train", fixture.train), ("questions_test", fixture.test)):
        payload = "\n".join(json.dumps(q, ensure_ascii=False) for q in questions)
        (directory / f"{name}.jsonl").write_text(payload + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# retrieval stress fixture (in memory)
# ---------------------------------------------------------------------------

STRESS_RELATIONS = [
    "ruled", "served", "founded", "joined", "visited", "defended",
    "traded", "studied", "painted", "guarded", "mapped", "farmed",
]


def retrieval_stress(
    seed: int = 0,
    n_entities: int = 1500,
    n_facts: int = 10_000,
    n_questions: int = 1000,
) -> tuple[TkgStore, list[Question]]:
    rng = np.random.default_rng(seed)
    entities = Vocabulary("entity", (f"N{i:04d}" for i in range(n_entities)))
    relations = Vocabulary("relation", STRESS_RELATIONS)
    years = list(range(1900, 1930))
    times = Vocabulary("time", (str(y) for y in years))

    facts = []
    for _ in range(n_facts):
        subject = int(rng.integers(n_entities))
        obj = int(rng.integers(n_entities - 1))
        obj = obj + 1 if obj >= subject else obj
        relation = int(rng.integers(len(STRESS_RELATIONS)))
        start = int(rng.integers(len(years)))
        end = min(len(years) - 1, start + int(rng.integers(0, 6)))
        facts.append(Quadruple(subject, relation, obj, start, end))
    store = TkgStore(entities, relations, times, facts)

    qtypes = [
        QuestionType.SIMPLE_ENTITY, QuestionType.SIMPLE_TIME,
        QuestionType.BEFORE_AFTER, QuestionType.FIRST_LAST, QuestionType.TIME_JOIN,
    ]
    questions = []
    for index in range(n_questions):
        fact = store.facts[int(rng.integers(len(store.facts)))]
        subj = entities.label(fact.subject)
        obj = entities.label(fact.object)
        rel = relations.label(fact.relation)
        qtype = qtypes[index % len(qtypes)]
        annotated = [fact.subject, fact.object]
        annotated_times: list[int] = []
        if qtype is QuestionType.SIMPLE_ENTITY:
            year_id = int(rng.integers(fact.t_start, fact.t_end + 1))
            text = f"Who {rel} {obj} in {times.label(year_id)}?"
            annotated = [fact.object]
            annotated_times = [year_id]
        elif qtype is QuestionType.SIMPLE_TIME:
            text = f"When did {subj} {rel} {obj}?"
        elif qtype is QuestionType.BEFORE_AFTER:
            direction = "after" if index % 2 else "before"
            text = f"Who {rel} {obj} {direction} {subj}?"
        elif qtype is QuestionType.FIRST_LAST:
            text = f"When did {subj} {rel} {obj} for the first time?"
            annotated = [fact.subject]
        else:
            text = f"Who {rel} {obj} together with {subj}?"
        atype = (
            AnswerType.TIME
            if qtype in (QuestionType.SIMPLE_TIME, QuestionType.FIRST_LAST)
            else AnswerType.ENTITY
        )
        gold = frozenset({fact.t_start} if atype is AnswerType.TIME else {fact.subject})
        questions.append(
            Question(
                uid=f"s{index:04d}",
                text=text,
                entities=tuple(annotated),
                times=tuple(annotated_times),
                qtype=qtype,
                atype=atype,
                gold=gold,
            )
        )
    return store, questions
