"""Ranking metrics and the evaluation report.

``rank_of`` gives the 1-based position of the first gold answer in a
prediction list; Hits@K is the fraction of questions ranked at or above K.
The report slices the same records by fine question type, by the
simple/complex grouping, and by answer type, so every breakdown is a
weighted mean decomposition of the overall number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Mapping, Sequence

from .store import COMPLEX_TYPES, SIMPLE_TYPES


class EvaluationError(ValueError):
    pass


@dataclass(frozen=True)
class RankRecord:
    uid: str
    qtype: str
    atype: str
    rank: int | None  # None when no gold answer was predicted at all


def rank_of(predictions: Sequence[str], gold: AbstractSet[str]) -> int | None:
    """1-based index of the first prediction contained in ``gold``."""
    if len(set(predictions)) != len(predictions):
        raise EvaluationError("duplicate predictions")
    if not gold:
        raise EvaluationError("empty gold set")
    for position, label in enumerate(predictions, start=1):
        if label in gold:
            return position
    return None


def hits_at_k(records: Sequence[RankRecord], k: int) -> float:
    """Fraction of records with ``rank <= k``; unranked records miss."""
    if not records:
        raise EvaluationError("no records to score")
    if k < 1:
        raise EvaluationError("k must be >= 1")
    return sum(1 for r in records if r.rank is not None and r.rank <= k) / len(records)


def parse_generated(text: str) -> list[str]:
    """Split a generated answer line on tabs into at most ten deduplicated
    non-empty labels, order preserved."""
    seen: dict[str, None] = {}
    for raw in text.split("\t"):
        label = raw.strip()
        if label and label not in seen:
            seen[label] = None
        if len(seen) >= 10:
            break
    return list(seen)


_SIMPLE = frozenset(t.value for t in SIMPLE_TYPES)
_COMPLEX = frozenset(t.value for t in COMPLEX_TYPES)


@dataclass
class EvalReport:
    ks: tuple[int, ...]
    overall: dict[int, float]
    by_question_type: dict[str, dict[int, float]]
    by_group: dict[str, dict[int, float]]       # simple / complex when present
    by_answer_type: dict[str, dict[int, float]]
    counts: dict[str, int]
    records: tuple[RankRecord, ...] = field(repr=False, default=())


def _cell(records: Sequence[RankRecord], ks: Sequence[int]) -> dict[int, float]:
    return {k: hits_at_k(records, k) for k in ks}


def build_report(records: Sequence[RankRecord], ks: Sequence[int] = (1, 10)) -> EvalReport:
    if not records:
        raise EvaluationError("no records to report on")
    by_qtype: dict[str, list[RankRecord]] = {}
    by_atype: dict[str, list[RankRecord]] = {}
    by_group: dict[str, list[RankRecord]] = {}
    for record in records:
        by_qtype.setdefault(record.qtype, []).append(record)
        by_atype.setdefault(record.atype, []).append(record)
        if record.qtype in _SIMPLE:
            by_group.setdefault("simple", []).append(record)
        elif record.qtype in _COMPLEX:
            by_group.setdefault("complex", []).append(record)
    counts = {"overall": len(records)}
    counts.update({name: len(group) for name, group in by_qtype.items()})
    counts.update({name: len(group) for name, group in by_group.items()})
    counts.update({name: len(group) for name, group in by_atype.items()})
    return EvalReport(
        ks=tuple(ks),
        overall=_cell(records, ks),
        by_question_type={name: _cell(group, ks) for name, group in sorted(by_qtype.items())},
        by_group={name: _cell(group, ks) for name, group in sorted(by_group.items())},
        by_answer_type={name: _cell(group, ks) for name, group in sorted(by_atype.items())},
        counts=counts,
        records=tuple(records),
    )


def render_report(report: EvalReport) -> str:
    """Fixed-precision text table: one row per metric, one column per slice."""
    columns: list[tuple[str, Mapping[int, float]]] = [("overall", report.overall)]
    for name in ("complex", "simple"):
        if name in report.by_group:
            columns.append((name, report.by_group[name]))
    columns.extend(report.by_question_type.items())
    columns.extend(report.by_answer_type.items())

    width = max(12, max(len(name) for name, _ in columns) + 2)
    lines = []
    header = "metric".ljust(10) + "".join(name.rjust(width) for name, _ in columns)
    lines.append(header)
    lines.append("counts".ljust(10) + "".join(
        str(report.counts.get(name, 0)).rjust(width) for name, _ in columns
    ))
    for k in report.ks:
        row = f"hits@{k}".ljust(10)
        row += "".join(f"{cell[k]:.4f}".rjust(width) for _, cell in columns)
        lines.append(row)
    return "\n".join(lines) + "\n"


def record_payload(record: RankRecord) -> dict:
    return {
        "uid": record.uid,
        "qtype": record.qtype,
        "atype": record.atype,
        "rank": record.rank,
    }
