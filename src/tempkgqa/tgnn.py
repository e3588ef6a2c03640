"""Attention-based message passing over retrieved subgraphs.

The encoder is one layer.  For each directed edge ``i -> j`` carrying
relation row ``rho`` and the start time ``tau`` of its fact:

    m_ij = W_msg (e_i + r_rho + t_tau)
    u_ij = relu((W_query e_i) . (W_key m_ij))
    alpha_.j = softmax of u over the incoming edges of j
    e_j' = sum_i alpha_ij m_ij

Nodes without incoming edges keep their previous embedding; a masked node
starts from the zero vector and is only ever written by aggregation.  A
linear decoder over a masked node's final embedding gives the entity
distribution.  The relu sits on the attention scalar itself and there is no
``sqrt(d)`` scaling.

Every entry point runs one kernel over a :class:`SubgraphBatch`, which may be
the disjoint union of many query subgraphs (the mini-batching of PyTorch
Geometric).  Each batch groups its edges by destination once, when built, so
the neighbourhood softmax and the aggregation are segment reductions
(``np.maximum.reduceat`` / ``np.add.reduceat``) over every graph at once.
The decoder is the base pre-trainer's full-vocabulary softmax kernel
(:func:`embeddings.softmax_cross_entropy`) over ``decoder_w.T``: one product
decodes all ``B`` masked nodes into ``(B, |E|)``-contiguous logits.
Pre-training builds one such union per mini-batch of a
:class:`~tempkgqa.config.TrainSchedule`, and one step-mode :func:`gradients`
call per mini-batch is its whole SGD step.  The kernel's sweep over blocks
of :data:`embeddings.SWEEP_ROWS` decoder rows steps the decoder block by
block, in the F order of ``decoder_w.T``; after the backward pass the
projection matrices are stepped, then only the entity, relation and time
rows the mini-batch touches.  The entity gradient is summed per distinct
node into a ``(k, d)`` array, so no ``(|E|, d)`` entity gradient and no
``(d, |E|)`` decoder gradient is allocated, and the decoder's softmax
buffers are all :func:`pretrain` allocates once.  The result has the bits
of the gradient followed by ``param -= step * grad``.  Without a step, as in
the gradchecks, the same code returns the gradients: the decoder's from the
sweep at step -1 into new zero arrays, the tables' table-shaped.

Pre-training runs in float32 (:data:`embeddings.TRAIN_DTYPE`) on copies of
the table and parameters it is given.  Every kernel, buffer and gradient
takes the dtype of its inputs.  Checkpoints load as float32, and
``build-indicators`` encodes in it; the gradchecks' fresh
:func:`init_params` stay float64.

Subgraphs are built from fact rows: :func:`batch_from_facts` builds an
evidence subgraph fact by fact, :func:`build_query_subgraph` a mini-batch of
masked queries in one pass.  A query's subgraph is its anchor, its masked
node and the two query edges: at one layer the masked node's only in-edge is
the query edge from its anchor, so no other edge could change the loss.

All gradients are derived by hand (reverse mode) and checked against central
finite differences in the test suite; no autodiff framework is involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import TrainSchedule
from .embeddings import (TRAIN_DTYPE, EmbeddingTable, SoftmaxBuffers, softmax_cross_entropy,
                         softmax_probs)
from .errors import TempkgqaError
from .store import Quadruple, TkgStore

MASK = -1


class TgnnError(TempkgqaError, ValueError):
    pass


@dataclass
class TgnnParams:
    w_msg: np.ndarray     # (d, d)
    w_query: np.ndarray   # (d, d)
    w_key: np.ndarray     # (d, d)
    decoder_w: np.ndarray # (d, n_entities)
    decoder_b: np.ndarray # (n_entities,)

    @property
    def dim(self) -> int:
        return self.w_msg.shape[0]

    def copy(self) -> "TgnnParams":
        return TgnnParams(*(getattr(self, name).copy() for name in _PARAM_FIELDS))

    def astype(self, dtype) -> "TgnnParams":
        """A copy with every matrix in ``dtype``."""
        return TgnnParams(*(getattr(self, name).astype(dtype) for name in _PARAM_FIELDS))


_PARAM_FIELDS = ("w_msg", "w_query", "w_key", "decoder_w", "decoder_b")


def init_params(d: int, n_entities: int, seed: int) -> TgnnParams:
    if d < 1 or n_entities < 1:
        raise TgnnError("bad parameter shape request")
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(d)
    return TgnnParams(
        w_msg=rng.uniform(-scale, scale, size=(d, d)),
        w_query=rng.uniform(-scale, scale, size=(d, d)),
        w_key=rng.uniform(-scale, scale, size=(d, d)),
        decoder_w=rng.uniform(-scale, scale, size=(d, n_entities)),
        decoder_b=np.zeros(n_entities),
    )


@dataclass
class SubgraphBatch:
    """Node and edge arrays for one subgraph, or a disjoint union of several.

    ``nodes[i]`` is an entity id or :data:`MASK`; edges are rows
    ``(src_node, dst_node, relation_row, t_start)`` indexing into ``nodes``
    and into the embedding table.  Rows with a fifth column, the fact's end
    year, are accepted and the column dropped, since no layer reads it.
    ``in_edges``, computed once here, holds the edge rows stably sorted by
    destination.  ``receivers`` lists the nodes with in-edges, ascending;
    receiver ``k`` has the ``counts[k]`` rows of ``in_edges`` from ``starts[k]``.
    """

    nodes: np.ndarray
    edges: np.ndarray
    in_edges: np.ndarray = field(init=False, repr=False)
    receivers: np.ndarray = field(init=False, repr=False)
    starts: np.ndarray = field(init=False, repr=False)
    counts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=np.int64)
        edges = np.asarray(self.edges, dtype=np.int64)
        if edges.size == 0:
            edges = edges.reshape(0, 4)
        if edges.ndim != 2 or edges.shape[1] not in (4, 5):
            raise TgnnError(f"edges must be rows of 4 or 5 columns, not shape {edges.shape}")
        self.edges = np.ascontiguousarray(edges[:, :4])
        n = len(self.nodes)
        if self.edges.size:
            endpoints = self.edges[:, :2]
            if endpoints.min() < 0 or endpoints.max() >= n:
                raise TgnnError("edge endpoint outside node list")
        dst = self.edges[:, 1]
        self.in_edges = self.edges[np.argsort(dst, kind="stable")]
        degree = np.bincount(dst, minlength=n)
        self.receivers = np.flatnonzero(degree)
        self.counts = degree[self.receivers]
        self.starts = np.cumsum(self.counts) - self.counts

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def mask_index(self) -> int:
        positions = np.flatnonzero(self.nodes == MASK)
        if len(positions) != 1:
            raise TgnnError(f"expected exactly one masked node, found {len(positions)}")
        return int(positions[0])


def _segment_softmax(u: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Softmax of ``u`` within each run ``u[starts[k] : starts[k] + counts[k]]``;
    the runs are contiguous and cover ``u``."""
    shifted = np.exp(u - np.repeat(np.maximum.reduceat(u, starts), counts))
    return shifted / np.repeat(np.add.reduceat(shifted, starts), counts)


def attention_weights(
    query: np.ndarray, messages: Sequence[np.ndarray], params: TgnnParams
) -> np.ndarray:
    """Attention of one query vector over candidate messages.

    Returns the softmax of ``relu((W_query q) . (W_key m_i))``; when every
    score is clipped to zero this degrades to the uniform distribution.
    """
    if not len(messages):
        raise TgnnError("attention needs at least one message")
    keys = np.asarray(messages) @ params.w_key.T
    u = np.maximum(keys @ (params.w_query @ query), 0.0)
    return _segment_softmax(u, np.zeros(1, dtype=np.intp), np.array([len(u)]))


def _layer_inputs(batch: SubgraphBatch, table: EmbeddingTable) -> np.ndarray:
    base = np.zeros((batch.n_nodes, table.dim), dtype=table.entity.dtype)
    real = batch.nodes != MASK
    base[real] = table.entity[batch.nodes[real]]
    return base


@dataclass
class _LayerCache:
    sources: np.ndarray  # layer input at each edge's source, (E, d)
    summed: np.ndarray   # e + r + t per edge, (E, d)
    messages: np.ndarray # (E, d)
    queries: np.ndarray  # (E, d)
    keys: np.ndarray     # (E, d)
    z: np.ndarray        # raw attention scalars, (E,)
    alpha: np.ndarray    # normalised weights, (E,)


def _forward_layer(
    batch: SubgraphBatch, x: np.ndarray, table: EmbeddingTable, params: TgnnParams
) -> tuple[np.ndarray, _LayerCache]:
    """The layer over ``batch.in_edges``; the cache is in that edge order."""
    src, _, rel, start = batch.in_edges.T
    sources = x[src]
    summed = sources + table.relation[rel] + table.time[start]
    messages_ = summed @ params.w_msg.T
    queries = sources @ params.w_query.T
    keys = messages_ @ params.w_key.T
    z = np.einsum("ed,ed->e", queries, keys)
    alpha = _segment_softmax(np.maximum(z, 0.0), batch.starts, batch.counts)
    y = x.copy()
    y[batch.receivers] = np.add.reduceat(alpha[:, None] * messages_, batch.starts, axis=0)
    return y, _LayerCache(sources, summed, messages_, queries, keys, z, alpha)


def forward(batch: SubgraphBatch, table: EmbeddingTable, params: TgnnParams) -> np.ndarray:
    """Final node embeddings after the layer's aggregation."""
    return _forward_layer(batch, _layer_inputs(batch, table), table, params)[0]


def _masked_rows(
    batch: SubgraphBatch, target: int | Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Masked node rows and one target entity per row.  A single ``target``
    needs exactly one masked node; a sequence gives one per masked node, in
    node order."""
    if np.ndim(target) == 0:
        return np.array([batch.mask_index()]), np.array([target], dtype=np.int64)
    rows = np.flatnonzero(batch.nodes == MASK)
    targets = np.asarray(target, dtype=np.int64)
    if not len(rows) or targets.shape != rows.shape:
        raise TgnnError(f"{len(targets)} targets for {len(rows)} masked nodes")
    return rows, targets


def _decode(
    final: np.ndarray,
    rows: np.ndarray,
    params: TgnnParams,
    buffers: SoftmaxBuffers | None = None,
    targets: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Entity distributions of the masked ``rows``, ``(n_entities, B)``, and
    the summed cross entropy of ``targets``."""
    vocab = params.decoder_w.T
    if buffers is None:
        buffers = SoftmaxBuffers(vocab, len(rows))
    return softmax_probs(vocab, final[rows], buffers, params.decoder_b, targets)


def mask_predict(batch: SubgraphBatch, table: EmbeddingTable, params: TgnnParams) -> np.ndarray:
    """Entity distribution decoded from the masked node's final embedding."""
    rows = np.array([batch.mask_index()])
    final = forward(batch, table, params)
    return _decode(final, rows, params)[0][:, 0]


def masked_loss(
    batch: SubgraphBatch,
    table: EmbeddingTable,
    params: TgnnParams,
    target: int | Sequence[int],
) -> float:
    """Cross entropy of the masked prediction, summed over masked nodes."""
    rows, targets = _masked_rows(batch, target)
    return _decode(forward(batch, table, params), rows, params, targets=targets)[1]


@dataclass
class TgnnGradients:
    w_msg: np.ndarray
    w_query: np.ndarray
    w_key: np.ndarray
    decoder_w: np.ndarray
    decoder_b: np.ndarray
    entity: np.ndarray
    relation: np.ndarray
    time: np.ndarray


def _backward_layer(
    batch: SubgraphBatch,
    cache: _LayerCache,
    d_out: np.ndarray,
    params: TgnnParams,
    grads: TgnnGradients,
) -> np.ndarray:
    """Backpropagate the layer; returns the gradient wrt the layer input."""
    src, dst, rel, start = batch.in_edges.T
    d_x = d_out.copy()
    d_x[batch.receivers] = 0.0  # aggregation replaced these rows

    d_received = d_out[dst]
    d_alpha = np.einsum("ed,ed->e", cache.messages, d_received)
    d_messages = cache.alpha[:, None] * d_received
    d_u = cache.alpha * (d_alpha - np.repeat(
        np.add.reduceat(cache.alpha * d_alpha, batch.starts), batch.counts))

    d_z = d_u * (cache.z > 0.0)
    d_queries = d_z[:, None] * cache.keys
    d_keys = d_z[:, None] * cache.queries

    grads.w_query += d_queries.T @ cache.sources
    grads.w_key += d_keys.T @ cache.messages
    d_messages += d_keys @ params.w_key

    grads.w_msg += d_messages.T @ cache.summed
    d_summed = d_messages @ params.w_msg

    np.add.at(d_x, src, d_queries @ params.w_query + d_summed)
    np.add.at(grads.relation, rel, d_summed)
    np.add.at(grads.time, start, d_summed)
    return d_x


def gradients(
    batch: SubgraphBatch,
    table: EmbeddingTable,
    params: TgnnParams,
    target: int | Sequence[int],
    buffers: SoftmaxBuffers | None = None,
    step: float | None = None,
) -> tuple[float, TgnnGradients | None]:
    """Cross-entropy loss of the masked prediction and its full gradient,
    covering the three projection matrices, the decoder, and every embedding
    row the subgraph touches.

    ``target`` is one entity id for a batch with one masked node, or one id
    per masked node (node order) otherwise; loss and gradients are
    then sums over the masked nodes.  Table gradients are table-shaped and
    nonzero only on the rows the batch touches.  ``buffers`` are the
    decoder's softmax buffers.  With ``step`` the parameters and the touched
    table rows instead take their SGD step in place, with the bits of
    ``param -= step * grad``, and no gradients are returned; rows the batch
    does not touch are not written, so they stay bit-identical.
    """
    rows, targets = _masked_rows(batch, target)
    final, cache = _forward_layer(batch, _layer_inputs(batch, table), table, params)
    if buffers is None:
        buffers = SoftmaxBuffers(params.decoder_w.T, len(rows))
    loss, d_queries, decoder_w, decoder_b = softmax_cross_entropy(
        params.decoder_w.T, final[rows], targets, buffers, params.decoder_b, step=step)
    # in step mode the decoder and entity fields are the stepped parameters
    grads = TgnnGradients(
        w_msg=np.zeros_like(params.w_msg),
        w_query=np.zeros_like(params.w_query),
        w_key=np.zeros_like(params.w_key),
        decoder_w=decoder_w.T,
        decoder_b=decoder_b,
        entity=np.zeros_like(table.entity) if step is None else table.entity,
        relation=np.zeros_like(table.relation),
        time=np.zeros_like(table.time),
    )
    d_nodes = np.zeros_like(final)
    d_nodes[rows] = d_queries
    d_nodes = _backward_layer(batch, cache, d_nodes, params, grads)

    real = batch.nodes != MASK
    entities, where = np.unique(batch.nodes[real], return_inverse=True)
    d_entities = np.zeros((len(entities), table.dim), dtype=d_nodes.dtype)
    np.add.at(d_entities, where, d_nodes[real])
    if step is None:
        grads.entity[entities] = d_entities
        return loss, grads
    for name in ("w_msg", "w_query", "w_key"):
        getattr(params, name)[...] -= step * getattr(grads, name)
    table.entity[entities] -= step * d_entities
    # a row listed twice is written twice with the same value
    relations, times = batch.edges[:, 2], batch.edges[:, 3]
    table.relation[relations] -= step * grads.relation[relations]
    table.time[times] -= step * grads.time[times]
    return loss, None


# ---------------------------------------------------------------------------
# subgraph construction
# ---------------------------------------------------------------------------

def batch_from_facts(
    facts: Sequence[Quadruple], n_relations: int
) -> tuple[SubgraphBatch, dict[int, int]]:
    """Mask-free batch over the entities of ``facts``, numbered in
    first-appearance order (subject before object).  Each fact contributes
    its forward edge and then its inverse edge, whose relation row is offset
    by ``n_relations``; an edge keeps the start year only.  Also returns
    entity id -> node index."""
    if not facts:
        raise TgnnError("cannot build a batch from zero facts")
    node_of: dict[int, int] = {}
    edges: list[list[int]] = []
    for subject, relation, obj, start, _ in facts:
        s, o = node_of.setdefault(subject, len(node_of)), node_of.setdefault(obj, len(node_of))
        edges += ([s, o, relation, start], [o, s, n_relations + relation, start])
    return SubgraphBatch(list(node_of), edges), node_of


def build_query_subgraph(
    store: TkgStore,
    table: EmbeddingTable,
    facts: Quadruple | np.ndarray | Sequence[Quadruple],
    mask_object: bool | np.ndarray | Sequence[bool],
    rng: np.random.Generator | None = None,
) -> tuple[SubgraphBatch, int | np.ndarray]:
    """Disjoint union of the subgraphs of masked queries, one per fact row.

    ``facts`` is one :class:`Quadruple` with one ``mask_object`` flag, or
    ``(n, 5)`` fact id rows with ``n`` flags.  Query ``i`` owns node ``2i``,
    the unmasked entity (the anchor), and node ``2i + 1``, the masked one,
    joined by the fact's edge and then its inverse.  Returns the batch and
    the target entity ids, an ``int`` for one fact.

    ``store`` and ``rng`` are not read: the anchor's neighbourhood cannot
    reach the masked node through one layer (see the module docstring).
    """
    rows = np.asarray(facts, dtype=np.int64)
    subject, relation, obj, start, _ = rows.reshape(-1, 5).T
    flags = np.asarray(mask_object, dtype=bool).reshape(-1)
    if flags.shape != subject.shape:
        raise TgnnError(f"{len(flags)} mask flags for {len(subject)} facts")
    anchor = 2 * np.arange(len(flags))
    # the fact's edge runs from the anchor to the mask when the object is masked
    src, dst = np.where(flags, anchor, anchor + 1), np.where(flags, anchor + 1, anchor)
    nodes = np.column_stack((np.where(flags, subject, obj), np.full_like(anchor, MASK)))
    edges = np.column_stack(
        (src, dst, relation, start, dst, src, table.n_relations + relation, start))
    targets = np.where(flags, obj, subject)
    batch = SubgraphBatch(nodes.ravel(), edges.reshape(-1, 4))
    return batch, int(targets[0]) if rows.ndim == 1 else targets


# ---------------------------------------------------------------------------
# pre-training
# ---------------------------------------------------------------------------

#: Encoder pre-training runs on the schedule every trainer shares.
TgnnPretrainConfig = TrainSchedule


def pretrain(
    store: TkgStore,
    table: EmbeddingTable,
    params: TgnnParams,
    schedule: TrainSchedule,
    fact_indices: Sequence[int] | None = None,
) -> tuple[EmbeddingTable, TgnnParams, list[float]]:
    """Masked-entity pre-training over both directions of every fact.

    ``schedule`` orders the (fact, direction) queries, every query once per
    epoch.  One :func:`build_query_subgraph` call builds a mini-batch's
    disjoint-union graph, and one :func:`gradients` call takes its gradient;
    the reported per-epoch loss is the sum of per-query cross entropies
    accumulated before the corresponding update.  The loss list has one
    entry per epoch that ran, the last one partial when
    ``schedule.max_steps`` ends training mid-epoch.  Returns trained
    :data:`~tempkgqa.embeddings.TRAIN_DTYPE` copies of ``table`` and
    ``params``.
    """
    table = table.astype(TRAIN_DTYPE)
    params = params.astype(TRAIN_DTYPE)
    fact_ids = (np.arange(len(store.facts)) if fact_indices is None
                else np.asarray(fact_indices, dtype=np.int64))
    if not len(fact_ids):
        raise TgnnError("no facts to train on")
    # query i masks the object of fact_ids[i // 2] when i is even, else the subject
    rng = np.random.default_rng(schedule.seed)
    buffers = SoftmaxBuffers(params.decoder_w.T, schedule.batch_size)
    losses: list[float] = []
    for order, rows in schedule.batches(2 * len(fact_ids), rng):
        if rows.start == 0:
            losses.append(0.0)
        chunk = order[rows]
        batch, targets = build_query_subgraph(
            store, table, store.facts_of(fact_ids[chunk // 2]), chunk % 2 == 0)
        step = schedule.learning_rate / len(chunk)
        losses[-1] += gradients(batch, table, params, targets, buffers, step)[0]
    return table, params, losses


def evaluate_masked(
    store: TkgStore,
    table: EmbeddingTable,
    params: TgnnParams,
    facts: Sequence[Quadruple],
    schedule: TrainSchedule,
) -> list[int]:
    """Pessimistic 1-based rank of the answer entity for both directions of
    each held-out fact.  Queries are decoded ``schedule.batch_size`` at a
    time; the schedule's other fields are not read."""
    fact_rows = np.asarray(facts, dtype=np.int64).reshape(-1, 5)
    queries = np.arange(2 * len(fact_rows))
    buffers = SoftmaxBuffers(params.decoder_w.T, schedule.batch_size)
    ranks: list[int] = []
    for lo in range(0, len(queries), schedule.batch_size):
        chunk = queries[lo : lo + schedule.batch_size]
        batch, targets = build_query_subgraph(
            store, table, fact_rows[chunk // 2], chunk % 2 == 0)
        rows, targets = _masked_rows(batch, targets)
        final = forward(batch, table, params)
        probs = _decode(final, rows, params, buffers)[0]
        answer = probs[targets, np.arange(len(rows))]
        ranks.extend(int(r) for r in np.sum(probs >= answer, axis=0))
    return ranks


def encode_entities(
    facts: Sequence[Quadruple], table: EmbeddingTable, params: TgnnParams
) -> dict[int, np.ndarray]:
    """Entity id -> final-layer embedding for the subgraph over ``facts``."""
    batch, node_of = batch_from_facts(facts, table.n_relations)
    final = forward(batch, table, params)
    return {entity: final[idx] for entity, idx in node_of.items()}
