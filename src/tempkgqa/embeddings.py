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
max-shifted exp and ``d_logits`` into :class:`SoftmaxBuffers` that
:func:`pretrain_base` allocates once; the normalisation scales the small
``(B, d)`` operands of the backward products.  The backward pass is one
sweep over blocks of :data:`SWEEP_ROWS` vocabulary rows with one path: each
block adds its share of the query gradient from its still-unchanged rows,
writes its rows of the vocabulary (and bias) gradient into a block buffer in
the vocabulary's memory order, scales that buffer by the step and subtracts
it from the block in place.  The base anchors, the entity rows the queries
are built from, are held aside and take their query-gradient share after the
sweep.  A step-mode call (``step`` given) is the whole SGD step: the sweep
steps the entity table, :func:`base_loss_and_grads` then the relation and
time rows, and no vocabulary-sized gradient is allocated.  Gradient mode, for
the gradchecks, is the same sweep at step -1 into new zero arrays, which it
returns; negation and subtraction from zero are exact, so a step has the bits
of the gradient followed by ``param -= step * grad``.  Past one block the
query gradient is summed block by block, so its rounding differs from that of
one whole-vocabulary product; a vocabulary of at most :data:`SWEEP_ROWS`
rows, such as the desk world's, runs one block with the bits of that product.
Relation and time gradients are table-sized.

:func:`pretrain_base` takes its mini-batches of facts from a
:class:`~tempkgqa.config.TrainSchedule`, the schedule of every trainer.

Training runs in float32 (:data:`TRAIN_DTYPE`), the precision checkpoints
store: :func:`pretrain_base` trains a float32 copy of the table it is given.
The kernels and their buffers take the dtype of their inputs, so the float64
tables of :func:`init_random` keep float64 arithmetic for the
finite-difference gradchecks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import TrainSchedule
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

    def copy(self) -> "EmbeddingTable":
        return EmbeddingTable(self.entity.copy(), self.relation.copy(), self.time.copy())

    def astype(self, dtype) -> "EmbeddingTable":
        """A copy with every matrix in ``dtype``."""
        return EmbeddingTable(*(a.astype(dtype) for a in (self.entity, self.relation, self.time)))


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


#: Base pre-training runs on the schedule every trainer shares.
BasePretrainConfig = TrainSchedule

#: The trainers' working precision; checkpoints store it too.
TRAIN_DTYPE = np.float32


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
    subjects, relations, objects, starts, ends = np.asarray(facts, dtype=np.int64).reshape(-1, 5).T
    anchors = np.concatenate([subjects, objects])
    rows = np.concatenate([relations, table.n_relations + relations])
    targets = np.concatenate([objects, subjects])
    return anchors, rows, targets, np.tile(starts, 2), np.tile(ends, 2)


#: Vocabulary rows per block of the backward sweep: the float32 block buffer
#: at d = 32 is 512 KB, so each block's scale and subtract stay in cache.
SWEEP_ROWS = 4096


class SoftmaxBuffers:
    """Arrays :func:`softmax_cross_entropy` writes into, for up to
    ``max_batch`` queries against the ``(n, d)`` matrix ``vocab``.  The
    logits and the sweep's block buffer take ``vocab``'s memory order, so the
    products read it along its rows: at n = 125k, d = 32 and one BLAS thread
    on a 2-vCPU VM the logits product took 2.4 against 8.8 ms for the entity
    table and 3.0 against 5.1 ms for ``decoder_w`` in the other order."""

    def __init__(self, vocab: np.ndarray, max_batch: int) -> None:
        self.order = "C" if vocab.flags.c_contiguous else "F"
        self.logits = np.empty(len(vocab) * max_batch, dtype=vocab.dtype)
        self.ones = np.ones(len(vocab), dtype=vocab.dtype)
        rows = min(len(vocab), SWEEP_ROWS)
        self.block = np.empty(rows * vocab.shape[1], dtype=vocab.dtype)
        self.bias_block = np.empty(rows, dtype=vocab.dtype)


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
    anchors: np.ndarray | None = None,
    step: float | None = None,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray | None]:
    """Summed cross entropy of ``targets`` under :func:`softmax_probs`, the
    ``(B, d)`` query gradient, and the arrays the sweep stepped.  Query ``j``
    may hold row ``anchors[j]`` of ``vocab`` as a summand, which then gains
    ``d_queries[j]``.  With ``step``, ``vocab`` and ``bias`` take
    ``-= step * grad`` in place and are returned; without it, the sweep takes
    step -1 on new zero arrays, so the returned arrays are the gradients of
    ``vocab`` and ``bias`` (None without a bias), bit for bit.

    The logits buffer holds ``d_logits`` times each query's exp sum ``s``:
    the target entries lose ``s`` in place, before any scaling, so ``p - 1``
    keeps its precision, and ``1 / s`` scales the ``(B, d)`` operands instead
    of the ``(n, B)`` buffer, which saves one pass over it."""
    into, bias_into = vocab, bias
    if step is None:
        into = np.zeros_like(vocab)
        bias_into = None if bias is None else np.zeros_like(bias)
        step = -1.0
    d_logits, sums, loss = _shifted_exp(vocab, queries, buffers, bias, targets)
    d_logits[targets, np.arange(len(queries))] -= sums
    inv = 1.0 / sums
    scaled = queries * inv[:, None]
    if anchors is not None:
        held_rows, where = np.unique(anchors, return_inverse=True)
        held = np.empty((len(held_rows), vocab.shape[1]), dtype=vocab.dtype)
    for lo in range(0, len(vocab), SWEEP_ROWS):
        hi = min(lo + SWEEP_ROWS, len(vocab))
        block = d_logits[lo:hi]
        share = block.T @ vocab[lo:hi]
        d_queries = share if lo == 0 else d_queries + share
        grad = buffers.block[: (hi - lo) * vocab.shape[1]].reshape(
            (hi - lo, vocab.shape[1]), order=buffers.order)
        np.matmul(block, scaled, out=grad)
        if anchors is not None:
            first, last = np.searchsorted(held_rows, (lo, hi))
            local = held_rows[first:last] - lo
            held[first:last] = grad[local]
            grad[local] = 0.0  # stepped once d_queries is complete
        grad *= step
        into[lo:hi] -= grad
        if bias is not None:
            bias_grad = buffers.bias_block[: hi - lo]
            np.matmul(block, inv, out=bias_grad)
            bias_grad *= step
            bias_into[lo:hi] -= bias_grad
    d_queries *= inv[:, None]
    if anchors is not None:
        np.add.at(held, where, d_queries)
        held *= step
        into[held_rows] -= held
    return loss, d_queries, into, bias_into


def base_loss_and_grads(
    table: EmbeddingTable,
    facts: Sequence[Quadruple],
    buffers: SoftmaxBuffers | None = None,
    step: float | None = None,
) -> tuple[float, BaseGradients | None]:
    """Summed cross-entropy over both masking directions of ``facts`` and its
    gradient with respect to every embedding row.  With ``step`` the table
    instead takes its SGD step in place, with the bits of
    ``param -= step * grad`` for each of its matrices, and no gradients are
    returned."""
    anchors, rows, targets, starts, ends = _queries(table, facts)
    t_mid = 0.5 * (table.time[starts] + table.time[ends])
    queries = table.entity[anchors] + table.relation[rows] + t_mid
    if buffers is None:
        buffers = SoftmaxBuffers(table.entity, len(targets))
    loss, d_queries, entity, _ = softmax_cross_entropy(
        table.entity, queries, targets, buffers, anchors=anchors, step=step)

    grads = BaseGradients(entity, np.zeros_like(table.relation), np.zeros_like(table.time))
    np.add.at(grads.relation, rows, d_queries)
    np.add.at(grads.time, starts, 0.5 * d_queries)
    np.add.at(grads.time, ends, 0.5 * d_queries)
    if step is None:
        return loss, grads
    table.relation -= step * grads.relation
    table.time -= step * grads.time
    return loss, None


def pretrain_base(
    store: TkgStore,
    table: EmbeddingTable,
    schedule: TrainSchedule,
    fact_indices: Sequence[int] | None = None,
) -> tuple[EmbeddingTable, list[float]]:
    """Mini-batch SGD over the masked-entity objective, in the batches of
    ``schedule`` over the facts.

    Returns the trained :data:`TRAIN_DTYPE` copy of the table and the
    per-epoch summed loss (accumulated before each parameter update, so with
    a zero learning rate the reported loss is exact for the incoming table
    rounded to that precision).
    """
    table = table.astype(TRAIN_DTYPE)
    facts = store.facts if fact_indices is None else store.facts_of(fact_indices)
    if not facts:
        raise EmbeddingError("no facts to train on")
    rng = np.random.default_rng(schedule.seed)
    buffers = SoftmaxBuffers(table.entity, 2 * schedule.batch_size)
    losses: list[float] = []
    for order, rows in schedule.batches(len(facts), rng):
        if rows.start == 0:
            losses.append(0.0)
        batch = facts[order[rows]]
        step = schedule.learning_rate / (2 * len(batch))
        losses[-1] += base_loss_and_grads(table, batch, buffers, step)[0]
    return table, losses
