"""Base temporal embeddings and their masked-entity pre-trainer.

The relation matrix has ``2 * n_relations`` rows: row ``r`` embeds the
forward direction of relation ``r``, row ``n_relations + r`` the inverse
direction used when the subject is masked.

The pre-training objective is cross-entropy over all entities for the score

    score(s, r, o, t) = dot(e_s + r + t_mid, e_o)

with ``t_mid`` the mean of the start and end time embeddings; each fact is
trained in both masking directions.  Gradients are derived by hand and kept
verifiable against central finite differences.

The cross-entropy over all entities is :func:`softmax_cross_entropy`, which
the graph encoder's decoder shares.  It writes the logits, their in-place
max-shifted exp, ``d_logits`` and the dense vocabulary gradient into
:class:`SoftmaxBuffers` that :func:`pretrain_base` allocates once; the
normalisation scales the small ``(B, d)`` operands of the backward products.
The entity gradient is applied in place, so no step allocates an array of
vocabulary size; relation and time gradients are table-sized.
"""

from __future__ import annotations

from dataclasses import dataclass
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


class SoftmaxBuffers:
    """Vocabulary-sized arrays :func:`softmax_cross_entropy` writes into, for
    up to ``max_batch`` queries against the ``(n, d)`` matrix ``vocab``.  The
    logits take ``vocab``'s memory order, so the logits product reads it
    along its rows: at n = 125k, d = 32 and one BLAS thread on a 2-vCPU VM it
    took 2.4 against 8.8 ms for the entity table and 3.0 against 5.1 ms for
    ``decoder_w`` in the other order."""

    def __init__(self, vocab: np.ndarray, max_batch: int) -> None:
        self.order = "C" if vocab.flags.c_contiguous else "F"
        self.logits = np.empty(len(vocab) * max_batch)
        self.ones = np.ones(len(vocab))
        self.vocab_grad = np.empty(vocab.shape, order=self.order)
        self.bias_grad = np.empty(len(vocab))


# numpy reduces a C-ordered (n, B) array along axis 0 one B-wide row at a
# time; (n / 256, 256 * B) blocks take ~1/3 of that at n = 125k, B = 16.
_MAX_BLOCK = 256


def _column_max(logits: np.ndarray) -> np.ndarray:
    if not logits.flags.c_contiguous:
        return logits.max(axis=0)
    head = len(logits) - len(logits) % _MAX_BLOCK
    blocks = logits[:head].reshape(-1, _MAX_BLOCK * logits.shape[1]).max(axis=0, initial=-np.inf)
    return np.maximum(blocks.reshape(_MAX_BLOCK, -1).max(axis=0),
                      logits[head:].max(axis=0, initial=-np.inf))


def _shifted_exp(
    vocab: np.ndarray,
    queries: np.ndarray,
    buffers: SoftmaxBuffers,
    bias: np.ndarray | None,
    targets: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """``exp(logits - max)`` per query as an ``(n, B)`` view of ``buffers``,
    computed in place, its column sums, and the summed cross entropy of
    ``targets`` (0 without them), read before the exp so that it stays
    finite when a target's probability underflows."""
    shape = (len(vocab), len(queries))
    logits = buffers.logits[: shape[0] * shape[1]].reshape(shape, order=buffers.order)
    np.matmul(vocab, queries.T, out=logits)
    if bias is not None:
        logits += bias[:, None]
    logits -= _column_max(logits)
    picked = 0.0 if targets is None else logits[targets, np.arange(len(queries))]
    np.exp(logits, out=logits)
    sums = buffers.ones @ logits
    return logits, sums, 0.0 if targets is None else float((np.log(sums) - picked).sum())


def softmax_probs(
    vocab: np.ndarray,
    queries: np.ndarray,
    buffers: SoftmaxBuffers,
    bias: np.ndarray | None = None,
    targets: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Column ``j`` of the returned ``(n, B)`` view of ``buffers`` is the
    softmax of ``vocab @ queries[j] + bias``; the float is the summed cross
    entropy of ``targets``, 0 without them."""
    exp, sums, loss = _shifted_exp(vocab, queries, buffers, bias, targets)
    exp /= sums
    return exp, loss


def softmax_cross_entropy(
    vocab: np.ndarray,
    queries: np.ndarray,
    targets: np.ndarray,
    buffers: SoftmaxBuffers,
    bias: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Summed cross entropy of ``targets`` under :func:`softmax_probs`, and the
    ``(B, d)`` query gradient; the gradients of ``vocab`` and ``bias`` go to
    ``buffers``.  The buffer holds ``d_logits`` times each query's exp sum
    ``s``: the target entries lose ``s`` in place, before any scaling, so
    ``p - 1`` keeps its precision, and ``1 / s`` scales the ``(B, d)``
    operands instead of the ``(n, B)`` buffer, which saves one pass over it."""
    d_logits, sums, loss = _shifted_exp(vocab, queries, buffers, bias, targets)
    d_logits[targets, np.arange(len(queries))] -= sums
    inv = 1.0 / sums
    np.matmul(d_logits, queries * inv[:, None], out=buffers.vocab_grad)
    if bias is not None:
        np.matmul(d_logits, inv, out=buffers.bias_grad)
    return loss, (d_logits.T @ vocab) * inv[:, None]


def base_loss_and_grads(
    table: EmbeddingTable,
    facts: Sequence[Quadruple],
    buffers: SoftmaxBuffers | None = None,
) -> tuple[float, BaseGradients]:
    """Summed cross-entropy over both masking directions of ``facts`` and its
    gradient with respect to every embedding row.  The entity gradient is
    ``buffers.vocab_grad``, overwritten by the next call."""
    anchors, rows, targets, starts, ends = _queries(table, facts)
    t_mid = 0.5 * (table.time[starts] + table.time[ends])
    queries = table.entity[anchors] + table.relation[rows] + t_mid
    if buffers is None:
        buffers = SoftmaxBuffers(table.entity, len(targets))
    loss, d_queries = softmax_cross_entropy(table.entity, queries, targets, buffers)

    grads = BaseGradients(
        entity=buffers.vocab_grad,
        relation=np.zeros_like(table.relation),
        time=np.zeros_like(table.time),
    )
    np.add.at(grads.entity, anchors, d_queries)
    np.add.at(grads.relation, rows, d_queries)
    np.add.at(grads.time, starts, 0.5 * d_queries)
    np.add.at(grads.time, ends, 0.5 * d_queries)
    return loss, grads


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
    buffers = SoftmaxBuffers(table.entity, 2 * config.batch_size)
    epoch_losses: list[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(len(facts))
        total = 0.0
        for lo in range(0, len(order), config.batch_size):
            batch = [facts[i] for i in order[lo : lo + config.batch_size]]
            loss, grads = base_loss_and_grads(table, batch, buffers)
            total += loss
            step = config.learning_rate / (2 * len(batch))
            grads.entity *= step
            table.entity -= grads.entity
            table.relation -= step * grads.relation
            table.time -= step * grads.time
        epoch_losses.append(total)
    return table, epoch_losses
