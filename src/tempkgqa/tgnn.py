"""Attention-based message passing over retrieved subgraphs.

One layer, for each directed edge ``i -> j`` carrying relation row ``rho``
and an edge time:

    m_ij = W_msg (e_i + r_rho + t_ij)
    u_ij = relu((W_query e_i) . (W_key m_ij))
    alpha_.j = softmax of u over the incoming edges of j
    e_j' = sum_i alpha_ij m_ij

Nodes without incoming edges keep their previous embedding; a masked node
starts from the zero vector and is only ever written by aggregation.  A
linear decoder over a masked node's final embedding gives the entity
distribution.  The relu sits on the attention scalar itself and there is no
``sqrt(d)`` scaling.

Every entry point runs one kernel over a :class:`SubgraphBatch`, which may be
the disjoint union of many query subgraphs (:func:`merge_batches`, the
mini-batching of PyTorch Geometric).  Edges are grouped by destination once,
so the neighbourhood softmax and the aggregation are segment reductions
(``np.maximum.reduceat`` / ``np.add.reduceat``) over every graph at once.
The decoder is the base pre-trainer's full-vocabulary softmax kernel
(:func:`embeddings.softmax_cross_entropy`) over ``decoder_w.T``: one product
decodes all ``B`` masked nodes into ``(B, |E|)``-contiguous logits.
Pre-training builds one such union per mini-batch, takes one gradient of the
summed loss, and updates only the embedding rows the mini-batch touches.  Its
:class:`TgnnBuffers` hold the decoder's softmax buffers and a dense entity
gradient, allocated once per :func:`pretrain` call.

All gradients are derived by hand (reverse mode) and checked against central
finite differences in the test suite; no autodiff framework is involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .embeddings import EmbeddingTable, SoftmaxBuffers, softmax_cross_entropy, softmax_probs
from .errors import TempkgqaError
from .store import Quadruple, TkgStore

MASK = -1

TIME_MODES = ("start", "end", "mid")


class TgnnError(TempkgqaError, ValueError):
    pass


@dataclass
class TgnnParams:
    w_msg: np.ndarray     # (d, d)
    w_query: np.ndarray   # (d, d)
    w_key: np.ndarray     # (d, d)
    decoder_w: np.ndarray # (d, n_entities)
    decoder_b: np.ndarray # (n_entities,)
    layers: int = 1

    @property
    def dim(self) -> int:
        return self.w_msg.shape[0]

    def copy(self) -> "TgnnParams":
        return TgnnParams(
            self.w_msg.copy(),
            self.w_query.copy(),
            self.w_key.copy(),
            self.decoder_w.copy(),
            self.decoder_b.copy(),
            self.layers,
        )


_PARAM_FIELDS = ("w_msg", "w_query", "w_key", "decoder_w", "decoder_b")


def init_params(d: int, n_entities: int, seed: int, layers: int = 1) -> TgnnParams:
    if d < 1 or n_entities < 1 or layers < 1:
        raise TgnnError("bad parameter shape request")
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(d)
    return TgnnParams(
        w_msg=rng.uniform(-scale, scale, size=(d, d)),
        w_query=rng.uniform(-scale, scale, size=(d, d)),
        w_key=rng.uniform(-scale, scale, size=(d, d)),
        decoder_w=rng.uniform(-scale, scale, size=(d, n_entities)),
        decoder_b=np.zeros(n_entities),
        layers=layers,
    )


@dataclass
class SubgraphBatch:
    """Node and edge arrays for one subgraph, or a disjoint union of several.

    ``nodes[i]`` is an entity id or :data:`MASK`; edges are rows
    ``(src_node, dst_node, relation_row, t_start, t_end)`` indexing into
    ``nodes`` and into the embedding table.  ``order`` holds the edge ids
    stably sorted by destination and ``indptr`` cuts it into one segment per
    node: the in-edges of node ``j`` are ``order[indptr[j]:indptr[j + 1]]``.
    """

    nodes: np.ndarray
    edges: np.ndarray
    order: np.ndarray = field(init=False, repr=False)
    indptr: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=np.int64)
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 5)
        n = len(self.nodes)
        if self.edges.size:
            endpoints = self.edges[:, :2]
            if endpoints.min() < 0 or endpoints.max() >= n:
                raise TgnnError("edge endpoint outside node list")
        dst = self.edges[:, 1]
        self.order = np.argsort(dst, kind="stable")
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst, minlength=n), out=self.indptr[1:])

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def mask_index(self) -> int:
        positions = np.flatnonzero(self.nodes == MASK)
        if len(positions) != 1:
            raise TgnnError(f"expected exactly one masked node, found {len(positions)}")
        return int(positions[0])


def merge_batches(batches: Sequence[SubgraphBatch]) -> SubgraphBatch:
    """Disjoint union of ``batches``: nodes concatenated in order, edge
    endpoints shifted by each graph's node offset.  Masked nodes keep the
    order of their graphs."""
    if not batches:
        raise TgnnError("cannot merge zero batches")
    offsets = np.cumsum([0] + [b.n_nodes for b in batches[:-1]])
    edges = np.concatenate([b.edges for b in batches])
    edges[:, :2] += np.repeat(offsets, [len(b.edges) for b in batches])[:, None]
    return SubgraphBatch(np.concatenate([b.nodes for b in batches]), edges)


def message(
    source: np.ndarray, relation: np.ndarray, time: np.ndarray, params: TgnnParams
) -> np.ndarray:
    """Single edge message ``W_msg (e + r + t)``."""
    return params.w_msg @ (source + relation + time)


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
    keys = np.asarray(messages, dtype=float) @ params.w_key.T
    u = np.maximum(keys @ (params.w_query @ query), 0.0)
    return _segment_softmax(u, np.zeros(1, dtype=np.intp), np.array([len(u)]))


@dataclass
class _Segments:
    """A batch's edges in destination order, one segment per receiving node."""

    edges: np.ndarray      # edge rows sorted by destination, (E, 5)
    receivers: np.ndarray  # nodes with at least one in-edge, ascending
    starts: np.ndarray     # offset of each receiver's first edge in ``edges``
    counts: np.ndarray     # in-degree of each receiver

    @classmethod
    def of(cls, batch: SubgraphBatch) -> "_Segments":
        degree = np.diff(batch.indptr)
        receivers = np.flatnonzero(degree)
        return cls(batch.edges[batch.order], receivers, batch.indptr[receivers],
                   degree[receivers])

    def sum(self, values: np.ndarray) -> np.ndarray:
        return np.add.reduceat(values, self.starts, axis=0)

    def spread(self, per_segment: np.ndarray) -> np.ndarray:
        return np.repeat(per_segment, self.counts, axis=0)


def _edge_times(edges: np.ndarray, table: EmbeddingTable, time_mode: str) -> np.ndarray:
    starts, ends = edges[:, 3], edges[:, 4]
    if time_mode == "start":
        return table.time[starts]
    if time_mode == "end":
        return table.time[ends]
    return 0.5 * (table.time[starts] + table.time[ends])


def _layer_inputs(batch: SubgraphBatch, table: EmbeddingTable) -> np.ndarray:
    base = np.zeros((batch.n_nodes, table.dim))
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
    seg: _Segments, x: np.ndarray, table: EmbeddingTable,
    params: TgnnParams, time_mode: str,
) -> tuple[np.ndarray, _LayerCache]:
    sources = x[seg.edges[:, 0]]
    summed = sources + table.relation[seg.edges[:, 2]] + _edge_times(seg.edges, table, time_mode)
    messages_ = summed @ params.w_msg.T
    queries = sources @ params.w_query.T
    keys = messages_ @ params.w_key.T
    z = np.einsum("ed,ed->e", queries, keys)
    alpha = _segment_softmax(np.maximum(z, 0.0), seg.starts, seg.counts)
    y = x.copy()
    y[seg.receivers] = seg.sum(alpha[:, None] * messages_)
    return y, _LayerCache(sources, summed, messages_, queries, keys, z, alpha)


def _forward_with_caches(
    batch: SubgraphBatch, table: EmbeddingTable, params: TgnnParams, time_mode: str
) -> tuple[np.ndarray, _Segments, list[_LayerCache]]:
    if time_mode not in TIME_MODES:
        raise TgnnError(f"unknown time mode {time_mode!r}")
    seg = _Segments.of(batch)
    x = _layer_inputs(batch, table)
    caches: list[_LayerCache] = []
    for _ in range(params.layers):
        x, cache = _forward_layer(seg, x, table, params, time_mode)
        caches.append(cache)
    return x, seg, caches


def forward(
    batch: SubgraphBatch,
    table: EmbeddingTable,
    params: TgnnParams,
    time_mode: str = "start",
) -> np.ndarray:
    """Final node embeddings after ``params.layers`` rounds of aggregation."""
    return _forward_with_caches(batch, table, params, time_mode)[0]


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


def mask_predict(
    batch: SubgraphBatch,
    table: EmbeddingTable,
    params: TgnnParams,
    time_mode: str = "start",
) -> np.ndarray:
    """Entity distribution decoded from the masked node's final embedding."""
    rows = np.array([batch.mask_index()])
    final = forward(batch, table, params, time_mode)
    return _decode(final, rows, params)[0][:, 0]


def masked_loss(
    batch: SubgraphBatch,
    table: EmbeddingTable,
    params: TgnnParams,
    target: int | Sequence[int],
    time_mode: str = "start",
) -> float:
    """Cross entropy of the masked prediction, summed over masked nodes."""
    rows, targets = _masked_rows(batch, target)
    return _decode(forward(batch, table, params, time_mode), rows, params, targets=targets)[1]


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
    seg: _Segments,
    cache: _LayerCache,
    d_out: np.ndarray,
    params: TgnnParams,
    grads: TgnnGradients,
    time_mode: str,
) -> np.ndarray:
    """Backpropagate one layer; returns the gradient wrt the layer input."""
    src, dst, rel = seg.edges[:, 0], seg.edges[:, 1], seg.edges[:, 2]
    starts, ends = seg.edges[:, 3], seg.edges[:, 4]
    d_x = d_out.copy()
    d_x[seg.receivers] = 0.0  # aggregation replaced these rows

    d_received = d_out[dst]
    d_alpha = np.einsum("ed,ed->e", cache.messages, d_received)
    d_messages = cache.alpha[:, None] * d_received
    d_u = cache.alpha * (d_alpha - seg.spread(seg.sum(cache.alpha * d_alpha)))

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
    if time_mode == "start":
        np.add.at(grads.time, starts, d_summed)
    elif time_mode == "end":
        np.add.at(grads.time, ends, d_summed)
    else:
        np.add.at(grads.time, starts, 0.5 * d_summed)
        np.add.at(grads.time, ends, 0.5 * d_summed)
    return d_x


class TgnnBuffers:
    """The decoder's softmax buffers and a dense entity gradient, zero
    outside the rows the last :func:`gradients` call wrote."""

    def __init__(self, table: EmbeddingTable, params: TgnnParams, max_batch: int) -> None:
        self.decoder = SoftmaxBuffers(params.decoder_w.T, max_batch)
        self.entity = np.zeros(table.entity.shape)
        self.entity_rows = np.zeros(0, dtype=np.int64)


def gradients(
    batch: SubgraphBatch,
    table: EmbeddingTable,
    params: TgnnParams,
    target: int | Sequence[int],
    time_mode: str = "start",
    buffers: TgnnBuffers | None = None,
) -> tuple[float, TgnnGradients]:
    """Cross-entropy loss of the masked prediction and its full gradient,
    covering the three projection matrices, the decoder, and every embedding
    row the subgraph touches.

    ``target`` is one entity id for a batch with one masked node, or one id
    per masked node (node order) for a merged batch; loss and gradients are
    then sums over the masked nodes.  Table gradients are table-shaped and
    nonzero only on the rows the batch touches.  The decoder and entity
    gradients live in ``buffers``, overwritten by the next call.
    """
    rows, targets = _masked_rows(batch, target)
    final, seg, caches = _forward_with_caches(batch, table, params, time_mode)
    if buffers is None:
        buffers = TgnnBuffers(table, params, len(rows))
    loss, d_queries = softmax_cross_entropy(
        params.decoder_w.T, final[rows], targets, buffers.decoder, params.decoder_b)
    buffers.entity[buffers.entity_rows] = 0.0
    d = params.dim
    grads = TgnnGradients(
        w_msg=np.zeros((d, d)),
        w_query=np.zeros((d, d)),
        w_key=np.zeros((d, d)),
        decoder_w=buffers.decoder.vocab_grad.T,
        decoder_b=buffers.decoder.bias_grad,
        entity=buffers.entity,
        relation=np.zeros(table.relation.shape),
        time=np.zeros(table.time.shape),
    )
    d_nodes = np.zeros(final.shape)
    d_nodes[rows] = d_queries
    for cache in reversed(caches):
        d_nodes = _backward_layer(seg, cache, d_nodes, params, grads, time_mode)

    real = batch.nodes != MASK
    buffers.entity_rows = batch.nodes[real]
    np.add.at(grads.entity, buffers.entity_rows, d_nodes[real])
    return loss, grads


# ---------------------------------------------------------------------------
# subgraph construction
# ---------------------------------------------------------------------------

def batch_from_facts(
    facts: Sequence[Quadruple], n_relations: int
) -> tuple[SubgraphBatch, dict[int, int]]:
    """Mask-free batch over the entities of ``facts``; each fact contributes
    its forward and inverse edge.  Also returns entity id -> node index."""
    if not facts:
        raise TgnnError("cannot build a batch from zero facts")
    node_of: dict[int, int] = {}
    nodes: list[int] = []
    for fact in facts:
        for entity in (fact.subject, fact.object):
            if entity not in node_of:
                node_of[entity] = len(nodes)
                nodes.append(entity)
    edges = _fact_edges(facts, node_of, n_relations)
    return SubgraphBatch(np.array(nodes), np.array(edges)), node_of


def _fact_edges(
    facts: Iterable[Quadruple], node_of: Mapping[int, int], n_relations: int
) -> list[list[int]]:
    edges = []
    for fact in facts:
        s, o = node_of[fact.subject], node_of[fact.object]
        edges.append([s, o, fact.relation, fact.t_start, fact.t_end])
        edges.append([o, s, n_relations + fact.relation, fact.t_start, fact.t_end])
    return edges


def build_query_subgraph(
    store: TkgStore,
    table: EmbeddingTable,
    fact: Quadruple,
    mask_object: bool,
    rng: np.random.Generator,
    cap_edges: int = 64,
) -> tuple[SubgraphBatch, int]:
    """Neighbourhood subgraph for one masked query.

    The unmasked entity's 1-hop facts are included (uniformly subsampled when
    they would exceed ``cap_edges`` directed edges) plus the two query edges
    joining the anchor to the masked node.  Returns the batch and the target
    entity id.
    """
    anchor = fact.subject if mask_object else fact.object
    target = fact.object if mask_object else fact.subject
    neighbour_ids = store.fact_ids_by_entity(anchor)
    max_facts = max(0, cap_edges // 2)
    if len(neighbour_ids) > max_facts:
        chosen = rng.choice(len(neighbour_ids), size=max_facts, replace=False)
        neighbour_ids = neighbour_ids[np.sort(chosen)]
    neighbour_ids = neighbour_ids.tolist()

    node_of: dict[int, int] = {anchor: 0}
    nodes: list[int] = [anchor, MASK]
    mask_idx = 1
    for fact_id in neighbour_ids:
        neighbour = store.facts[fact_id]
        for entity in (neighbour.subject, neighbour.object):
            if entity not in node_of:
                node_of[entity] = len(nodes)
                nodes.append(entity)

    n_rel = table.n_relations
    edges = _fact_edges((store.facts[i] for i in neighbour_ids), node_of, n_rel)
    anchor_idx = node_of[anchor]
    if mask_object:
        edges.append([anchor_idx, mask_idx, fact.relation, fact.t_start, fact.t_end])
        edges.append([mask_idx, anchor_idx, n_rel + fact.relation, fact.t_start, fact.t_end])
    else:
        edges.append([mask_idx, anchor_idx, fact.relation, fact.t_start, fact.t_end])
        edges.append([anchor_idx, mask_idx, n_rel + fact.relation, fact.t_start, fact.t_end])
    return SubgraphBatch(np.array(nodes), np.array(edges)), target


def _query_batch(
    store: TkgStore,
    table: EmbeddingTable,
    queries: Iterable[tuple[Quadruple, bool]],
    rng: np.random.Generator,
    cap_edges: int,
) -> tuple[SubgraphBatch, list[int]]:
    """Disjoint union of the subgraphs of ``(fact, mask_object)`` queries,
    built in order, and the target of each."""
    built = [build_query_subgraph(store, table, fact, mask_object, rng, cap_edges)
             for fact, mask_object in queries]
    return merge_batches([b for b, _ in built]), [t for _, t in built]


# ---------------------------------------------------------------------------
# pre-training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TgnnPretrainConfig:
    learning_rate: float = 3e-4
    epochs: int = 4
    batch_size: int = 8
    seed: int = 0
    cap_edges: int = 64
    freeze_table: bool = False
    time_mode: str = "start"
    max_steps: int | None = None


def _sgd_step(
    table: EmbeddingTable,
    params: TgnnParams,
    grads: TgnnGradients,
    batch: SubgraphBatch,
    step: float,
    freeze_table: bool,
) -> None:
    """In-place SGD step; embedding rows the batch does not touch are not
    written, so they stay bit-identical.  Scales ``grads`` in place."""
    for name in _PARAM_FIELDS:
        update = getattr(grads, name)
        update *= step
        param = getattr(params, name)
        param -= update
    if freeze_table:
        return
    # A row id listed twice writes the same value twice, so the ids need no
    # deduplication.
    for array, grad, rows in (
        (table.entity, grads.entity, batch.nodes[batch.nodes != MASK]),
        (table.relation, grads.relation, batch.edges[:, 2]),
        (table.time, grads.time, batch.edges[:, 3:].ravel()),
    ):
        array[rows] -= step * grad[rows]


def pretrain(
    store: TkgStore,
    table: EmbeddingTable,
    params: TgnnParams,
    config: TgnnPretrainConfig,
    fact_indices: Sequence[int] | None = None,
) -> tuple[EmbeddingTable, TgnnParams, list[float]]:
    """Masked-entity pre-training over both directions of every fact.

    Each epoch visits every (fact, direction) query once in a seeded random
    order.  A mini-batch of queries is merged into one disjoint-union graph
    and takes one :func:`gradients` call; the reported per-epoch loss is the
    sum of per-query cross entropies accumulated before the corresponding
    update.  Training ends after ``config.max_steps`` mini-batches, so the
    loss list has one entry per epoch that ran.
    """
    if config.batch_size < 1 or config.epochs < 0:
        raise TgnnError("bad pretraining config")
    table = table.copy()
    params = params.copy()
    fact_ids = list(fact_indices) if fact_indices is not None else list(range(len(store.facts)))
    if not fact_ids:
        raise TgnnError("no facts to train on")
    queries = [(fid, mask_object) for fid in fact_ids for mask_object in (True, False)]
    rng = np.random.default_rng(config.seed)
    buffers = TgnnBuffers(table, params, config.batch_size)
    losses: list[float] = []
    steps = 0
    limit = np.inf if config.max_steps is None else config.max_steps
    for _ in range(config.epochs):
        if steps >= limit:
            break
        order = rng.permutation(len(queries))
        total = 0.0
        for lo in range(0, len(order), config.batch_size):
            if steps >= limit:
                break
            chunk = [queries[i] for i in order[lo : lo + config.batch_size]]
            batch, targets = _query_batch(
                store, table, ((store.facts[fid], mask) for fid, mask in chunk),
                rng, config.cap_edges,
            )
            loss, grads = gradients(batch, table, params, targets, config.time_mode, buffers)
            total += loss
            _sgd_step(table, params, grads, batch, config.learning_rate / len(chunk),
                      config.freeze_table)
            steps += 1
        losses.append(total)
    return table, params, losses


def evaluate_masked(
    store: TkgStore,
    table: EmbeddingTable,
    params: TgnnParams,
    facts: Sequence[Quadruple],
    config: TgnnPretrainConfig,
) -> list[int]:
    """Pessimistic 1-based rank of the answer entity for both directions of
    each held-out fact, with subgraphs drawn from ``store`` only.  Queries
    are decoded ``config.batch_size`` at a time."""
    rng = np.random.default_rng(config.seed)
    queries = [(fact, mask_object) for fact in facts for mask_object in (True, False)]
    buffers = SoftmaxBuffers(params.decoder_w.T, config.batch_size)
    ranks: list[int] = []
    for lo in range(0, len(queries), config.batch_size):
        batch, targets = _query_batch(
            store, table, queries[lo : lo + config.batch_size], rng, config.cap_edges
        )
        rows, targets = _masked_rows(batch, targets)
        final = forward(batch, table, params, config.time_mode)
        probs = _decode(final, rows, params, buffers)[0]
        answer = probs[targets, np.arange(len(rows))]
        ranks.extend(int(r) for r in np.sum(probs >= answer, axis=0))
    return ranks


def encode_entities(
    facts: Sequence[Quadruple],
    table: EmbeddingTable,
    params: TgnnParams,
    time_mode: str = "start",
) -> dict[int, np.ndarray]:
    """Entity id -> final-layer embedding for the subgraph over ``facts``."""
    batch, node_of = batch_from_facts(facts, table.n_relations)
    final = forward(batch, table, params, time_mode)
    return {entity: final[idx] for entity, idx in node_of.items()}
