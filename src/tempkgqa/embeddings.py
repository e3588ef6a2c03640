"""Base temporal embeddings and their masked-entity pre-trainer.

The relation matrix has ``2 * n_relations`` rows: row ``r`` embeds the
forward direction of relation ``r``, row ``n_relations + r`` the inverse
direction used when the subject is masked.

The pre-training objective is cross-entropy over all entities for the score

    score(s, r, o, t) = dot(e_s + r + t_mid, e_o)

with ``t_mid`` the mean of the start and end time embeddings; each fact is
trained in both masking directions.  Gradients are derived by hand and kept
verifiable against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import TempkgqaError
from .store import Quadruple, TkgStore


class EmbeddingError(TempkgqaError, ValueError):
    pass


@dataclass
class EmbeddingTable:
    entity: np.ndarray    # (n_entities, d)
    relation: np.ndarray  # (2 * n_relations, d), forward rows then inverse rows
    time: np.ndarray      # (n_times, d)

    @property
    def dim(self) -> int:
        return self.entity.shape[1]

    @property
    def n_entities(self) -> int:
        return self.entity.shape[0]

    @property
    def n_relations(self) -> int:
        return self.relation.shape[0] // 2

    def inverse_row(self, relation: int) -> int:
        return self.n_relations + relation

    def copy(self) -> "EmbeddingTable":
        return EmbeddingTable(self.entity.copy(), self.relation.copy(), self.time.copy())


def init_random(
    n_entities: int, n_relations: int, n_times: int, d: int, seed: int
) -> EmbeddingTable:
    """Uniform entries on ``(-1/sqrt(d), 1/sqrt(d))`` from a seeded generator."""
    if n_entities < 1:
        raise EmbeddingError("need at least one entity")
    if d < 1:
        raise EmbeddingError("embedding dimension must be >= 1")
    if n_relations < 0 or n_times < 0:
        raise EmbeddingError("vocabulary sizes must be non-negative")
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(d)
    return EmbeddingTable(
        entity=rng.uniform(-scale, scale, size=(n_entities, d)),
        relation=rng.uniform(-scale, scale, size=(2 * n_relations, d)),
        time=rng.uniform(-scale, scale, size=(n_times, d)),
    )


@dataclass(frozen=True)
class BasePretrainConfig:
    learning_rate: float = 3e-4
    epochs: int = 4
    batch_size: int = 8
    seed: int = 0


@dataclass
class BaseGradients:
    entity: np.ndarray
    relation: np.ndarray
    time: np.ndarray


def _queries(table: EmbeddingTable, facts: Sequence[Quadruple]):
    """Both masking directions for a batch: query vectors plus bookkeeping.

    Returns (anchor_ids, relation_rows, targets, t_starts, t_ends) stacked so
    the object-masked queries come first, then the subject-masked ones.
    """
    subjects = np.array([f.subject for f in facts])
    objects = np.array([f.object for f in facts])
    relations = np.array([f.relation for f in facts])
    starts = np.array([f.t_start for f in facts])
    ends = np.array([f.t_end for f in facts])
    anchors = np.concatenate([subjects, objects])
    rows = np.concatenate([relations, table.n_relations + relations])
    targets = np.concatenate([objects, subjects])
    return anchors, rows, targets, np.tile(starts, 2), np.tile(ends, 2)


def base_loss_and_grads(
    table: EmbeddingTable, facts: Sequence[Quadruple]
) -> tuple[float, BaseGradients]:
    """Summed cross-entropy over both masking directions of ``facts`` and its
    gradient with respect to every embedding row."""
    anchors, rows, targets, starts, ends = _queries(table, facts)
    t_mid = 0.5 * (table.time[starts] + table.time[ends])
    queries = table.entity[anchors] + table.relation[rows] + t_mid

    logits = queries @ table.entity.T
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = len(targets)
    loss = float(-(shifted[np.arange(n), targets] - np.log(exp.sum(axis=1))).sum())

    d_logits = probs
    d_logits[np.arange(n), targets] -= 1.0

    grads = BaseGradients(
        entity=d_logits.T @ queries,
        relation=np.zeros_like(table.relation),
        time=np.zeros_like(table.time),
    )
    d_queries = d_logits @ table.entity
    np.add.at(grads.entity, anchors, d_queries)
    np.add.at(grads.relation, rows, d_queries)
    np.add.at(grads.time, starts, 0.5 * d_queries)
    np.add.at(grads.time, ends, 0.5 * d_queries)
    return loss, grads


def base_scores(table: EmbeddingTable, anchor: int, relation_row: int, t_start: int, t_end: int) -> np.ndarray:
    """Scores of every candidate entity for one masked query."""
    t_mid = 0.5 * (table.time[t_start] + table.time[t_end])
    query = table.entity[anchor] + table.relation[relation_row] + t_mid
    return table.entity @ query


def pretrain_base(
    store: TkgStore,
    table: EmbeddingTable,
    config: BasePretrainConfig,
    fact_indices: Sequence[int] | None = None,
) -> tuple[EmbeddingTable, list[float]]:
    """Mini-batch SGD over the masked-entity objective.

    Returns the trained copy of the table and the per-epoch summed loss
    (accumulated before each parameter update, so with a zero learning rate
    the reported loss is exact for the incoming table).
    """
    if config.epochs < 0 or config.batch_size < 1:
        raise EmbeddingError("bad pretraining config")
    table = table.copy()
    facts = [store.facts[i] for i in fact_indices] if fact_indices is not None else list(store.facts)
    if not facts:
        raise EmbeddingError("no facts to train on")
    rng = np.random.default_rng(config.seed)
    epoch_losses: list[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(len(facts))
        total = 0.0
        for lo in range(0, len(order), config.batch_size):
            batch = [facts[i] for i in order[lo : lo + config.batch_size]]
            loss, grads = base_loss_and_grads(table, batch)
            total += loss
            step = config.learning_rate / (2 * len(batch))
            table.entity -= step * grads.entity
            table.relation -= step * grads.relation
            table.time -= step * grads.time
        epoch_losses.append(total)
    return table, epoch_losses


def masked_ranks(
    table: EmbeddingTable, facts: Sequence[Quadruple]
) -> list[tuple[int, int]]:
    """1-based rank of the true entity for both directions of each fact.

    Ties are resolved pessimistically (the true entity ranks after every
    candidate with an equal score), so reported hits never benefit from
    degenerate constant scores.
    """
    ranks: list[tuple[int, int]] = []
    for fact in facts:
        for anchor, row, target in (
            (fact.subject, fact.relation, fact.object),
            (fact.object, table.n_relations + fact.relation, fact.subject),
        ):
            scores = base_scores(table, anchor, row, fact.t_start, fact.t_end)
            others = np.arange(len(scores)) != target
            rank = 1 + int(np.sum(scores[others] >= scores[target]))
            ranks.append((rank, target))
    return ranks


def hits_at_k_from_ranks(ranks: Sequence[tuple[int, int]], k: int) -> float:
    if not ranks:
        raise EmbeddingError("no ranks")
    return sum(1 for rank, _ in ranks if rank <= k) / len(ranks)
