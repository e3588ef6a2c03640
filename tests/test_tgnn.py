import tracemalloc

import numpy as np
import pytest

from tempkgqa.embeddings import SWEEP_ROWS, SoftmaxBuffers, init_random
from tempkgqa.tgnn import (
    MASK,
    SubgraphBatch,
    TgnnError,
    TgnnParams,
    TgnnPretrainConfig,
    attention_weights,
    batch_from_facts,
    build_query_subgraph,
    encode_entities,
    evaluate_masked,
    forward,
    gradients,
    init_params,
    mask_predict,
    masked_loss,
    pretrain,
)
from tempkgqa.store import TkgStore, Vocabulary

from conftest import build_store
from gradcheck import fd_gradient, relative_error

N_ENTITIES, N_RELATIONS, N_TIMES, D = 6, 3, 4, 6


def random_world(seed):
    rng = np.random.default_rng(seed)
    table = init_random(N_ENTITIES, N_RELATIONS, N_TIMES, D, seed)
    params = init_params(D, N_ENTITIES, seed + 1)
    return rng, table, params


def random_batch(rng, n_nodes=8, n_edges=12):
    """Random subgraph with one masked node that has at least one in-edge."""
    nodes = rng.integers(0, N_ENTITIES, size=n_nodes)
    mask_idx = int(rng.integers(0, n_nodes))
    nodes[mask_idx] = MASK
    edges = []
    for _ in range(n_edges - 1):
        src, dst = rng.integers(0, n_nodes, size=2)
        start, end = sorted(rng.integers(0, N_TIMES, size=2))
        edges.append([src, dst, rng.integers(0, 2 * N_RELATIONS), start, end])
    src = int(rng.integers(0, n_nodes))
    edges.append([src, mask_idx, rng.integers(0, 2 * N_RELATIONS), 0, N_TIMES - 1])
    return SubgraphBatch(np.array(nodes), np.array(edges))


def random_graph(rng, mask_reachable=True, n_nodes=7, n_edges=10):
    """Random single-mask subgraph whose last node has no in-edges; the
    masked node has in-edges only when ``mask_reachable``."""
    nodes = rng.integers(0, N_ENTITIES, size=n_nodes)
    mask_idx = int(rng.integers(0, n_nodes - 1))
    nodes[mask_idx] = MASK
    receivers = [j for j in range(n_nodes - 1) if mask_reachable or j != mask_idx]
    edges = []
    for _ in range(n_edges):
        start, end = sorted(rng.integers(0, N_TIMES, size=2))
        edges.append([rng.integers(0, n_nodes), rng.choice(receivers),
                      rng.integers(0, 2 * N_RELATIONS), start, end])
    if mask_reachable:
        edges[-1][1] = mask_idx
    return SubgraphBatch(np.array(nodes), np.array(edges))


def incoming(batch, node):
    """In-edge rows of ``node``, in edge order, read from the batch's
    segment layout."""
    k = np.searchsorted(batch.receivers, node)
    if k == len(batch.receivers) or batch.receivers[k] != node:
        return batch.in_edges[:0]
    return batch.in_edges[batch.starts[k] : batch.starts[k] + batch.counts[k]]


def merge_batches(batches):
    """Reference: the disjoint union of ``batches``, nodes concatenated in
    order and edge endpoints shifted by each graph's node offset."""
    offsets = np.cumsum([0] + [b.n_nodes for b in batches[:-1]])
    edges = np.concatenate([b.edges for b in batches])
    edges[:, :2] += np.repeat(offsets, [len(b.edges) for b in batches])[:, None]
    return SubgraphBatch(np.concatenate([b.nodes for b in batches]), edges)


def reference_query_graph(fact, mask_object, n_relations):
    """Reference: one masked query's two-node graph from explicit lists.
    Node 0 is the anchor and node 1 the mask; the fact's forward edge comes
    before its inverse edge."""
    subject, relation, obj, start, _ = fact
    anchor, target = (subject, obj) if mask_object else (obj, subject)
    src, dst = (0, 1) if mask_object else (1, 0)
    edges = [[src, dst, relation, start], [dst, src, n_relations + relation, start]]
    return SubgraphBatch(np.array([anchor, MASK]), np.array(edges)), target


def reference_query_batch(queries, n_relations):
    """Reference: the union of the ``(fact, mask_object)`` queries' graphs,
    in order, and the target of each."""
    built = [reference_query_graph(fact, mask_object, n_relations)
             for fact, mask_object in queries]
    return merge_batches([graph for graph, _ in built]), [target for _, target in built]


# ---------------------------------------------------------------------------
# Reference: the per-node looped encoder that the batched kernel replaced.
# It handles one single-mask graph at a time and returns dense gradients.
# ---------------------------------------------------------------------------

PARAM_NAMES = ("w_msg", "w_query", "w_key", "decoder_w", "decoder_b")
TABLE_NAMES = ("entity", "relation", "time")


def reference_in_edges(batch):
    grouped = [[] for _ in range(batch.n_nodes)]
    for edge_id, dst in enumerate(batch.edges[:, 1]):
        grouped[dst].append(edge_id)
    return [np.asarray(g, dtype=np.int64) for g in grouped]


def reference_edge_times(batch, table):
    return table.time[batch.edges[:, 3]]


def reference_forward(batch, table, params):
    """Final node embeddings and the layer's cache, aggregated node by node."""
    in_edges = reference_in_edges(batch)
    x = np.zeros((batch.n_nodes, table.dim))
    real = batch.nodes != MASK
    x[real] = table.entity[batch.nodes[real]]
    src, rel = batch.edges[:, 0], batch.edges[:, 2]
    summed = x[src] + table.relation[rel] + reference_edge_times(batch, table)
    messages = summed @ params.w_msg.T
    queries = x[src] @ params.w_query.T
    keys = messages @ params.w_key.T
    z = np.einsum("ed,ed->e", queries, keys)
    u = np.maximum(z, 0.0)
    y = x.copy()
    alpha = np.zeros(len(batch.edges))
    for node, into in enumerate(in_edges):
        if len(into) == 0:
            continue
        shifted = np.exp(u[into] - u[into].max())
        weights = shifted / shifted.sum()
        alpha[into] = weights
        y[node] = weights @ messages[into]
    return y, (x, summed, messages, queries, keys, z, alpha)


def reference_gradients(batch, table, params, target):
    """Loss and dense gradients (a dict by field name) of one query graph."""
    in_edges = reference_in_edges(batch)
    final, (x, summed, messages, queries, keys, z, alpha) = reference_forward(batch, table, params)
    mask_idx = batch.mask_index()
    logits = final[mask_idx] @ params.decoder_w + params.decoder_b
    shifted = logits - logits.max()
    log_norm = np.log(np.exp(shifted).sum())
    loss = float(log_norm - shifted[target])
    d_logits = np.exp(shifted - log_norm)
    d_logits[target] -= 1.0

    grads = {name: np.zeros_like(getattr(params, name)) for name in PARAM_NAMES}
    grads.update({name: np.zeros_like(getattr(table, name)) for name in TABLE_NAMES})
    grads["decoder_w"] += np.outer(final[mask_idx], d_logits)
    grads["decoder_b"] += d_logits
    d_nodes = np.zeros_like(final)
    d_nodes[mask_idx] = params.decoder_w @ d_logits
    src, rel, starts = batch.edges[:, 0], batch.edges[:, 2], batch.edges[:, 3]
    d_x = np.zeros_like(x)
    d_messages = np.zeros_like(messages)
    d_u = np.zeros(len(batch.edges))
    for node, into in enumerate(in_edges):
        d_node = d_nodes[node]
        if len(into) == 0:
            d_x[node] += d_node
            continue
        weights = alpha[into]
        d_alpha = messages[into] @ d_node
        d_messages[into] += weights[:, None] * d_node[None, :]
        d_u[into] = weights * (d_alpha - weights @ d_alpha)
    d_z = d_u * (z > 0.0)
    d_queries = d_z[:, None] * keys
    d_keys = d_z[:, None] * queries
    grads["w_query"] += d_queries.T @ x[src]
    np.add.at(d_x, src, d_queries @ params.w_query)
    grads["w_key"] += d_keys.T @ messages
    d_messages += d_keys @ params.w_key
    grads["w_msg"] += d_messages.T @ summed
    d_summed = d_messages @ params.w_msg
    np.add.at(d_x, src, d_summed)
    np.add.at(grads["relation"], rel, d_summed)
    np.add.at(grads["time"], starts, d_summed)
    real = batch.nodes != MASK
    np.add.at(grads["entity"], batch.nodes[real], d_x[real])
    return loss, grads


def summed_reference(graphs, targets, table, params):
    """Sum of the looped per-query losses and gradients."""
    total, summed = 0.0, None
    for graph, target in zip(graphs, targets):
        loss, grads = reference_gradients(graph, table, params, target)
        total += loss
        summed = grads if summed is None else {k: summed[k] + grads[k] for k in grads}
    return total, summed


class TestAttention:
    def test_distribution_properties(self):
        rng, table, params = random_world(1)
        msgs = [rng.normal(size=D) for _ in range(5)]
        weights = attention_weights(rng.normal(size=D), msgs, params)
        assert weights.shape == (5,)
        assert np.all(weights > 0)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_all_clipped_scores_become_uniform(self):
        _, table, params = random_world(2)
        params.w_query[:] = 0.0  # every raw score relu-clips to zero
        weights = attention_weights(np.ones(D), [np.ones(D)] * 4, params)
        assert np.allclose(weights, 0.25)

    def test_single_message_gets_full_weight(self):
        _, _, params = random_world(3)
        assert attention_weights(np.ones(D), [np.ones(D)], params) == pytest.approx([1.0])

    def test_empty_messages_rejected(self):
        _, _, params = random_world(4)
        with pytest.raises(TgnnError):
            attention_weights(np.ones(D), [], params)


class TestBatch:
    def test_endpoint_validation(self):
        with pytest.raises(TgnnError, match="endpoint"):
            SubgraphBatch(np.array([0, 1]), np.array([[0, 2, 0, 0, 0]]))

    def test_end_year_column_dropped(self):
        rows = [[0, 1, 2, 3, 9], [1, 0, 4, 3, 9]]
        five = SubgraphBatch(np.array([0, MASK]), np.array(rows))
        four = SubgraphBatch(np.array([0, MASK]), np.array(rows)[:, :4])
        assert five.edges.tolist() == four.edges.tolist() == [[0, 1, 2, 3], [1, 0, 4, 3]]
        assert five.edges.flags.c_contiguous
        assert SubgraphBatch(np.array([0]), []).edges.shape == (0, 4)

    @pytest.mark.parametrize("edges", [[[0, 1, 2]], [[0, 1, 2, 3, 4, 5]], [0, 1, 2, 3]])
    def test_edge_width_checked(self, edges):
        with pytest.raises(TgnnError, match="4 or 5 columns"):
            SubgraphBatch(np.array([0, 1]), edges)

    def test_in_edges_grouped_by_destination(self):
        batch = SubgraphBatch(
            np.array([0, 1, 2]),
            np.array([[0, 1, 0, 0, 0], [2, 1, 1, 0, 0], [1, 0, 0, 0, 0]]),
        )
        assert incoming(batch, 1).tolist() == [[0, 1, 0, 0], [2, 1, 1, 0]]
        assert incoming(batch, 0).tolist() == [[1, 0, 0, 0]]
        assert incoming(batch, 2).tolist() == []
        assert batch.in_edges.tolist() == [[1, 0, 0, 0], [0, 1, 0, 0], [2, 1, 1, 0]]
        assert batch.receivers.tolist() == [0, 1]
        assert batch.starts.tolist() == [0, 1]
        assert batch.counts.tolist() == [1, 2]

    def test_mask_index_requires_exactly_one(self):
        no_mask = SubgraphBatch(np.array([0, 1]), np.zeros((0, 5)))
        with pytest.raises(TgnnError, match="masked node"):
            no_mask.mask_index()
        two = SubgraphBatch(np.array([MASK, MASK]), np.zeros((0, 5)))
        with pytest.raises(TgnnError, match="masked node"):
            two.mask_index()
        one = SubgraphBatch(np.array([0, MASK]), np.zeros((0, 5)))
        assert one.mask_index() == 1


class TestForward:
    def test_isolated_nodes_keep_their_embedding(self):
        _, table, params = random_world(5)
        batch = SubgraphBatch(np.array([0, 1, 2]), np.array([[0, 1, 0, 0, 0]]))
        final = forward(batch, table, params)
        assert np.allclose(final[0], table.entity[0])
        assert np.allclose(final[2], table.entity[2])
        assert not np.allclose(final[1], table.entity[1])

    def test_masked_node_starts_from_zero(self):
        _, table, params = random_world(6)
        # mask has no in-edges, so its embedding stays the zero vector
        batch = SubgraphBatch(np.array([0, MASK]), np.array([[1, 0, 0, 0, 0]]))
        final = forward(batch, table, params)
        assert np.allclose(final[1], 0.0)

    def test_aggregation_replaces_rather_than_adds(self):
        _, table, params = random_world(7)
        batch = SubgraphBatch(np.array([0, 1]), np.array([[0, 1, 2, 1, 3]]))
        final = forward(batch, table, params)
        manual = params.w_msg @ (table.entity[0] + table.relation[2] + table.time[1])
        assert np.allclose(final[1], manual)  # single in-edge: alpha = 1

    def test_message_uses_start_time(self):
        _, table, params = random_world(8)
        batch = SubgraphBatch(np.array([0, 1]), np.array([[0, 1, 0, 1, 3]]))
        start_msg = params.w_msg @ (table.entity[0] + table.relation[0] + table.time[1])
        assert np.allclose(forward(batch, table, params)[1], start_msg)
        # the end year feeds no message, so it gets no gradient
        _, grads = gradients(SubgraphBatch(np.array([0, MASK]), batch.edges), table, params, 2)
        assert np.any(grads.time[1]) and not np.any(grads.time[3])


class TestMaskPredict:
    def test_distribution(self):
        rng, table, params = random_world(11)
        batch = random_batch(rng)
        probs = mask_predict(batch, table, params)
        assert probs.shape == (N_ENTITIES,)
        assert np.all(probs > 0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_loss_is_nll_of_prediction(self):
        rng, table, params = random_world(12)
        batch = random_batch(rng)
        probs = mask_predict(batch, table, params)
        for target in range(N_ENTITIES):
            loss = masked_loss(batch, table, params, target)
            assert loss == pytest.approx(-np.log(probs[target]), rel=1e-9)


class TestGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_finite_differences_all_tensors(self, seed):
        rng, table, params = random_world(seed)
        batch = random_batch(rng)
        target = int(rng.integers(0, N_ENTITIES))
        loss, grads = gradients(batch, table, params, target)
        assert loss == pytest.approx(masked_loss(batch, table, params, target), rel=1e-12)
        loss_fn = lambda: masked_loss(batch, table, params, target)
        for name in ("w_msg", "w_query", "w_key", "decoder_w", "decoder_b"):
            numeric = fd_gradient(loss_fn, getattr(params, name))
            assert relative_error(getattr(grads, name), numeric) < 1e-4, name
        for name in ("entity", "relation", "time"):
            numeric = fd_gradient(loss_fn, getattr(table, name))
            assert relative_error(getattr(grads, name), numeric) < 1e-4, name


class TestBatchedKernel:
    """The disjoint-union kernel against the per-node looped reference."""

    @pytest.mark.parametrize("world", [1, 2])
    @pytest.mark.parametrize("n_graphs", [1, 3, 8])
    def test_union_matches_sum_of_looped_queries(self, n_graphs, world):
        rng, table, params = random_world(40 + n_graphs + 10 * world)
        graphs = [random_graph(rng, mask_reachable=k % 3 != 1) for k in range(n_graphs)]
        targets = [int(t) for t in rng.integers(0, N_ENTITIES, size=n_graphs)]
        if n_graphs == 1:
            loss, grads = gradients(graphs[0], table, params, targets[0])
        else:
            loss, grads = gradients(merge_batches(graphs), table, params, targets)
        expected_loss, expected = summed_reference(graphs, targets, table, params)
        assert loss == pytest.approx(expected_loss, rel=1e-12)
        for name in PARAM_NAMES + TABLE_NAMES:
            assert getattr(grads, name).shape == expected[name].shape, name
            assert relative_error(getattr(grads, name), expected[name]) < 1e-12, name

    def test_loss_of_union_is_sum_of_masked_losses(self):
        rng, table, params = random_world(60)
        graphs = [random_graph(rng) for _ in range(4)]
        targets = [1, 3, 0, 5]
        merged = masked_loss(merge_batches(graphs), table, params, targets)
        single = sum(masked_loss(g, table, params, t) for g, t in zip(graphs, targets))
        assert merged == pytest.approx(single, rel=1e-12)

    def test_repeated_graph_doubles_gradients(self):
        rng, table, params = random_world(61)
        graph = random_graph(rng)
        loss, grads = gradients(graph, table, params, 2)
        loss2, grads2 = gradients(merge_batches([graph, graph]), table, params, [2, 2])
        assert loss2 == pytest.approx(2 * loss, rel=1e-12)
        for name in PARAM_NAMES + TABLE_NAMES:
            assert relative_error(getattr(grads2, name), 2 * getattr(grads, name)) < 1e-12

    def test_unreachable_mask_and_isolated_node(self):
        rng, table, params = random_world(62)
        graph = random_graph(rng, mask_reachable=False)
        mask = graph.mask_index()
        isolated = graph.n_nodes - 1
        assert len(incoming(graph, mask)) == 0 and len(incoming(graph, isolated)) == 0
        final = forward(graph, table, params)
        assert np.array_equal(final[mask], np.zeros(D))
        assert np.array_equal(final[isolated], table.entity[graph.nodes[isolated]])
        _, grads = gradients(graph, table, params, 0)
        _, expected = reference_gradients(graph, table, params, 0)
        assert np.array_equal(grads.decoder_w, np.zeros_like(grads.decoder_w))
        for name in PARAM_NAMES + TABLE_NAMES:
            assert relative_error(getattr(grads, name), expected[name]) < 1e-12, name

    @pytest.mark.parametrize("world", [1, 2])
    def test_forward_of_union_matches_looped_forward(self, world):
        rng, table, params = random_world(62 + world)
        graphs = [random_graph(rng, mask_reachable=k != 1) for k in range(3)]
        final = forward(merge_batches(graphs), table, params)
        expected = np.concatenate([reference_forward(g, table, params)[0] for g in graphs])
        assert relative_error(final, expected) < 1e-12

    def test_mask_predict_matches_looped_forward(self):
        rng, table, params = random_world(64)
        graph = random_graph(rng)
        final, _ = reference_forward(graph, table, params)
        logits = final[graph.mask_index()] @ params.decoder_w + params.decoder_b
        expected = np.exp(logits - logits.max())
        expected /= expected.sum()
        assert relative_error(mask_predict(graph, table, params), expected) < 1e-12

    def test_reused_buffers_give_the_bits_of_fresh_ones(self):
        rng, table, params = random_world(11)
        buffers = SoftmaxBuffers(params.decoder_w.T, 3)
        first = merge_batches([random_graph(rng) for _ in range(3)])
        gradients(first, table, params, rng.integers(0, N_ENTITIES, size=3), buffers)
        second = merge_batches([random_graph(rng) for _ in range(2)])  # a short batch
        targets = rng.integers(0, N_ENTITIES, size=2)
        loss, reused = gradients(second, table, params, targets, buffers)
        fresh_loss, fresh = gradients(second, table, params, targets)
        assert loss == fresh_loss
        for name in PARAM_NAMES + TABLE_NAMES:
            assert np.array_equal(getattr(reused, name), getattr(fresh, name)), name

    def test_gradients_outlive_the_next_call_on_the_buffers(self):
        rng, table, params = random_world(12)
        buffers = SoftmaxBuffers(params.decoder_w.T, 3)
        first = merge_batches([random_graph(rng) for _ in range(3)])
        _, grads = gradients(first, table, params, rng.integers(0, N_ENTITIES, size=3), buffers)
        kept = {name: getattr(grads, name).copy() for name in PARAM_NAMES + TABLE_NAMES}
        second = merge_batches([random_graph(rng) for _ in range(3)])
        gradients(second, table, params, rng.integers(0, N_ENTITIES, size=3), buffers)
        for name in PARAM_NAMES + TABLE_NAMES:
            assert np.array_equal(getattr(grads, name), kept[name]), name

    def test_target_count_must_match_masks(self):
        rng, table, params = random_world(65)
        merged = merge_batches([random_graph(rng), random_graph(rng)])
        with pytest.raises(TgnnError, match="targets for 2 masked nodes"):
            gradients(merged, table, params, [1])
        with pytest.raises(TgnnError, match="exactly one masked node"):
            gradients(merged, table, params, 1)
        unmasked = SubgraphBatch(np.array([0, 1]), np.array([[0, 1, 0, 0, 0]]))
        with pytest.raises(TgnnError, match="0 masked nodes"):
            masked_loss(unmasked, table, params, [])


class TestMerge:
    def test_offsets_and_order(self):
        a = SubgraphBatch(np.array([3, MASK]), np.array([[0, 1, 2, 0, 1]]))
        b = SubgraphBatch(np.array([MASK, 4, 5]), np.array([[1, 0, 1, 1, 1], [2, 0, 0, 0, 0]]))
        merged = merge_batches([a, b])
        assert merged.nodes.tolist() == [3, MASK, MASK, 4, 5]
        assert merged.edges.tolist() == [[0, 1, 2, 0], [3, 2, 1, 1], [4, 2, 0, 0]]
        assert incoming(merged, 2).tolist() == [[3, 2, 1, 1], [4, 2, 0, 0]]
        assert np.flatnonzero(merged.nodes == MASK).tolist() == [1, 2]

    def test_graph_without_edges(self):
        a = SubgraphBatch(np.array([MASK]), np.zeros((0, 5)))
        b = SubgraphBatch(np.array([0, MASK]), np.array([[0, 1, 0, 0, 0]]))
        merged = merge_batches([a, b])
        assert merged.edges.tolist() == [[1, 2, 0, 0]]


def hub_store(seed, n_entities=60, n_facts=600):
    """Seeded store whose subjects follow Zipf's law, with self-loops, built
    from an id array."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, n_entities + 1)
    subjects = rng.choice(n_entities, size=n_facts, p=weights / weights.sum())
    objects = rng.integers(0, n_entities, size=n_facts)
    loops = rng.random(n_facts) < 0.05
    objects[loops] = subjects[loops]
    starts = rng.integers(0, N_TIMES - 1, size=n_facts)
    ends = starts + rng.integers(0, 2, size=n_facts)
    relations = rng.integers(0, N_RELATIONS, size=n_facts)
    return TkgStore(
        Vocabulary("entity", (f"e{i}" for i in range(n_entities))),
        Vocabulary("relation", (f"r{i}" for i in range(N_RELATIONS))),
        Vocabulary("time", (str(1900 + i) for i in range(N_TIMES))),
        np.column_stack((subjects, relations, objects, starts, ends)),
    )


def reference_query_subgraph(store, table, fact, mask_object):
    """Reference: the query subgraph plus every 1-hop fact of the anchor,
    built from ``store.facts[i]``.  Node 0 is the anchor, node 1 the masked
    entity, and the two query edges come last."""
    anchor = fact.subject if mask_object else fact.object
    target = fact.object if mask_object else fact.subject
    neighbours = [f for f in store.facts if anchor in (f.subject, f.object)]

    node_of = {anchor: 0}
    nodes = [anchor, MASK]
    mask_idx = 1
    for neighbour in neighbours:
        for entity in (neighbour.subject, neighbour.object):
            if entity not in node_of:
                node_of[entity] = len(nodes)
                nodes.append(entity)

    n_rel = table.n_relations
    edges = []
    for neighbour in neighbours:
        s, o = node_of[neighbour.subject], node_of[neighbour.object]
        edges.append([s, o, neighbour.relation, neighbour.t_start, neighbour.t_end])
        edges.append([o, s, n_rel + neighbour.relation, neighbour.t_start, neighbour.t_end])
    anchor_idx = node_of[anchor]
    if mask_object:
        edges.append([anchor_idx, mask_idx, fact.relation, fact.t_start, fact.t_end])
        edges.append([mask_idx, anchor_idx, n_rel + fact.relation, fact.t_start, fact.t_end])
    else:
        edges.append([mask_idx, anchor_idx, fact.relation, fact.t_start, fact.t_end])
        edges.append([anchor_idx, mask_idx, n_rel + fact.relation, fact.t_start, fact.t_end])
    return SubgraphBatch(np.array(nodes), np.array(edges)), target


class TestSubgraphConstruction:
    def test_batch_from_facts_layout(self, tiny_store):
        facts = tiny_store.facts[:2]
        batch, node_of = batch_from_facts(facts, len(tiny_store.relations))
        assert batch.n_nodes == len({f.subject for f in facts} | {f.object for f in facts})
        assert len(batch.edges) == 2 * len(facts)
        forward_edge, inverse_edge = batch.edges[0], batch.edges[1]
        assert forward_edge[0] == node_of[facts[0].subject]
        assert forward_edge[1] == node_of[facts[0].object]
        assert inverse_edge[2] == forward_edge[2] + len(tiny_store.relations)

    def test_batch_from_facts_rejects_empty(self):
        with pytest.raises(TgnnError):
            batch_from_facts([], 3)

    def test_query_subgraph_has_mask_and_target(self, tiny_store):
        _, table, _ = random_world(0)
        table = init_random(len(tiny_store.entities), len(tiny_store.relations),
                            len(tiny_store.times), D, 0)
        rng = np.random.default_rng(0)
        fact = tiny_store.facts[0]
        batch, target = build_query_subgraph(tiny_store, table, fact, True, rng)
        assert target == fact.object
        assert batch.nodes[1] == MASK
        assert batch.mask_index() == 1
        # the mask is reachable: its in-edges carry the query relation row
        incoming_edges = incoming(batch, 1)
        assert fact.relation in incoming_edges[:, 2]

    def test_query_subgraph_subject_masking(self, tiny_store):
        table = init_random(len(tiny_store.entities), len(tiny_store.relations),
                            len(tiny_store.times), D, 0)
        rng = np.random.default_rng(0)
        fact = tiny_store.facts[0]
        batch, target = build_query_subgraph(tiny_store, table, fact, False, rng)
        assert target == fact.subject
        incoming_edges = incoming(batch, 1)
        assert table.n_relations + fact.relation in incoming_edges[:, 2]

    @pytest.mark.parametrize("n", [1, 2, 37])
    @pytest.mark.parametrize("masks", ["object", "subject", "mixed"])
    def test_batch_is_the_union_of_single_queries(self, n, masks):
        """One call over ``n`` fact rows builds the union of the ``n``
        single-query reference graphs: the same nodes, edges, segments and
        targets.  The first row is a self-loop."""
        store = hub_store(3)
        table = init_random(len(store.entities), len(store.relations), len(store.times), D, 0)
        rng = np.random.default_rng(n)
        loop = int(np.flatnonzero(store.subject == store.object)[0])
        ids = np.concatenate(([loop], rng.integers(0, len(store.facts), size=n - 1)))
        flags = {"object": np.ones(n, dtype=bool), "subject": np.zeros(n, dtype=bool),
                 "mixed": np.arange(n) % 3 == 1}[masks]
        batch, targets = build_query_subgraph(store, table, store.facts_of(ids), flags)
        expected, expected_targets = reference_query_batch(
            zip(store.facts_of(ids), flags.tolist()), table.n_relations)
        assert isinstance(targets, np.ndarray) and targets.tolist() == expected_targets
        for name in ("nodes", "edges", "in_edges", "receivers", "starts", "counts"):
            assert getattr(batch, name).tolist() == getattr(expected, name).tolist(), name

    @pytest.mark.parametrize("mask_object", [True, False])
    def test_one_fact_gives_one_int_target(self, mask_object):
        store = hub_store(3)
        table = init_random(len(store.entities), len(store.relations), len(store.times), D, 0)
        fact = store.facts[int(np.flatnonzero(store.subject == store.object)[0])]
        batch, target = build_query_subgraph(store, table, fact, mask_object)
        expected, expected_target = reference_query_graph(fact, mask_object, table.n_relations)
        assert type(target) is int and target == expected_target
        assert batch.nodes.tolist() == expected.nodes.tolist()
        assert batch.edges.tolist() == expected.edges.tolist()

    def test_one_flag_per_fact(self):
        store = hub_store(3)
        table = init_random(len(store.entities), len(store.relations), len(store.times), D, 0)
        with pytest.raises(TgnnError, match="1 mask flags for 3 facts"):
            build_query_subgraph(store, table, store.facts[:3], True)

    @pytest.mark.parametrize("mask_object", [True, False])
    @pytest.mark.parametrize("anchor", ["hub", "leaf"])
    def test_neighbourhood_changes_no_loss_or_gradient(self, anchor, mask_object):
        """In float64, the query subgraph and the reference graph that adds
        the anchor's whole 1-hop neighbourhood give the same masked loss and
        the same gradients: through one layer the masked node hears only the
        query edge from its anchor, so attention gets no gradient either."""
        store = hub_store(0)
        table = init_random(len(store.entities), len(store.relations), len(store.times), D, 0)
        params = init_params(D, len(store.entities), 1)
        anchor_of = lambda f: f.subject if mask_object else f.object
        degree = lambda f: int(np.sum((store.subject == anchor_of(f))
                                      | (store.object == anchor_of(f))))
        fact = (max if anchor == "hub" else min)(store.facts, key=degree)
        assert degree(fact) > 32 if anchor == "hub" else degree(fact) < 8

        batch, target = build_query_subgraph(store, table, fact, mask_object)
        full, full_target = reference_query_subgraph(store, table, fact, mask_object)
        assert target == full_target
        assert batch.nodes.tolist() == full.nodes[:2].tolist()
        assert batch.edges.tolist() == full.edges[-2:, :4].tolist()

        loss, grads = gradients(batch, table, params, target)
        full_loss, full_grads = gradients(full, table, params, target)
        assert loss == pytest.approx(masked_loss(batch, table, params, target), rel=1e-12)
        assert full_loss == pytest.approx(loss, rel=1e-12)
        assert masked_loss(full, table, params, target) == pytest.approx(loss, rel=1e-12)
        for name in PARAM_NAMES + TABLE_NAMES:
            assert getattr(grads, name).dtype == np.float64, name
            np.testing.assert_allclose(getattr(full_grads, name), getattr(grads, name),
                                       rtol=1e-12, atol=0, err_msg=name)
        assert not np.any(full_grads.w_query) and not np.any(full_grads.w_key)


def sgd_step(table, params, grads, batch, step):
    """Reference: a gradient-mode :func:`gradients` result applied as
    ``param -= step * grad`` to every parameter and to the table rows the
    batch touches, so the other rows stay bit-identical.  A row id listed
    twice writes the same value twice."""
    for name in PARAM_NAMES:
        getattr(params, name)[...] -= step * getattr(grads, name)
    for array, grad, rows in (
        (table.entity, grads.entity, batch.nodes[batch.nodes != MASK]),
        (table.relation, grads.relation, batch.edges[:, 2]),
        (table.time, grads.time, batch.edges[:, 3]),
    ):
        array[rows] -= step * grad[rows]


def list_order_pretrain(store, table, params, config, fact_indices=None):
    """Reference: pre-training that visits an explicit list of the 2n
    ``(fact_id, mask_object)`` queries, the order :func:`pretrain` now takes
    from index arithmetic on ``2 * len(fact_ids)`` positions."""
    table, params = table.copy(), params.copy()
    fact_ids = list(fact_indices) if fact_indices is not None else list(range(len(store.facts)))
    queries = [(fid, mask_object) for fid in fact_ids for mask_object in (True, False)]
    rng = np.random.default_rng(config.seed)
    buffers = SoftmaxBuffers(params.decoder_w.T, config.batch_size)
    losses, steps = [], 0
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
            batch, targets = reference_query_batch(
                ((store.facts[fid], mask) for fid, mask in chunk), table.n_relations)
            loss, grads = gradients(batch, table, params, targets, buffers)
            total += loss
            sgd_step(table, params, grads, batch, config.learning_rate / len(chunk))
            steps += 1
        losses.append(total)
    return table, params, losses


class TestPretrain:
    def make_world(self, facts=None):
        store = build_store(facts or [
            ("a", "r1", "b", 1990, 1991),
            ("b", "r1", "c", 1991, 1992),
            ("c", "r2", "a", 1990, 1992),
            ("a", "r2", "c", 1992, 1992),
        ])
        table = init_random(len(store.entities), len(store.relations),
                            len(store.times), D, 0)
        params = init_params(D, len(store.entities), 1)
        return store, table, params

    def test_loss_decreases(self):
        store, table, params = self.make_world()
        config = TgnnPretrainConfig(learning_rate=0.5, epochs=15, batch_size=4, seed=0)
        _, _, losses = pretrain(store, table, params, config)
        assert losses[-1] < losses[0]

    def test_max_steps_caps_updates(self):
        store, table, params = self.make_world()
        capped = TgnnPretrainConfig(learning_rate=0.5, epochs=3, batch_size=100, seed=0,
                                    max_steps=1)
        one_epoch = TgnnPretrainConfig(learning_rate=0.5, epochs=1, batch_size=100, seed=0)
        a = pretrain(store, table, params, capped)[1]
        b = pretrain(store, table, params, one_epoch)[1]
        assert np.array_equal(a.w_msg, b.w_msg)

    @pytest.mark.parametrize("max_steps, epochs_run", [(0, 0), (3, 1), (4, 2), (6, 2)])
    def test_max_steps_ends_training(self, max_steps, epochs_run):
        # 8 queries in batches of 3: three steps per epoch
        store, table, params = self.make_world()
        config = TgnnPretrainConfig(learning_rate=0.5, epochs=5, batch_size=3, seed=0,
                                    max_steps=max_steps)
        trained_table, trained_params, losses = pretrain(store, table, params, config)
        assert len(losses) == epochs_run
        assert all(loss > 0.0 for loss in losses)
        # the epochs after the cap change nothing
        just_enough = TgnnPretrainConfig(learning_rate=0.5, epochs=epochs_run,
                                         batch_size=3, seed=0, max_steps=max_steps)
        table_ref, params_ref, losses_ref = pretrain(store, table, params, just_enough)
        assert losses == losses_ref
        assert np.array_equal(trained_table.entity, table_ref.entity)
        assert np.array_equal(trained_params.decoder_w, params_ref.decoder_w)

    def test_deterministic(self):
        store, table, params = self.make_world()
        config = TgnnPretrainConfig(learning_rate=0.3, epochs=2, batch_size=3, seed=9)
        first = pretrain(store, table, params, config)
        second = pretrain(store, table, params, config)
        assert np.array_equal(first[0].entity, second[0].entity)
        assert np.array_equal(first[1].decoder_w, second[1].decoder_w)
        assert first[2] == second[2]

    def test_inputs_not_mutated(self):
        store, table, params = self.make_world()
        entity_before = table.entity.copy()
        msg_before = params.w_msg.copy()
        pretrain(store, table, params, TgnnPretrainConfig(0.5, 1, 8, 0))
        assert np.array_equal(table.entity, entity_before)
        assert np.array_equal(params.w_msg, msg_before)

    def test_evaluate_masked_rank_range(self):
        store, table, params = self.make_world()
        ranks = evaluate_masked(store, table, params, store.facts[:2],
                                TgnnPretrainConfig(3e-4, 4, 8, 0))
        assert len(ranks) == 4
        assert all(1 <= r <= len(store.entities) for r in ranks)


    @pytest.mark.parametrize("n", [7, SWEEP_ROWS + 300, 2 * SWEEP_ROWS + 5])
    def test_step_mode_is_gradient_then_step(self, n):
        # decoder rows in one sweep block and past it, the last block partial
        rng = np.random.default_rng(n)
        table = init_random(n, N_RELATIONS, N_TIMES, D, n).astype(np.float32)
        params = init_params(D, n, n + 1).astype(np.float32)
        params.decoder_b[...] = rng.uniform(-0.5, 0.5, size=n)
        facts = np.column_stack((rng.integers(0, n, size=(8, 1)),
                                 rng.integers(0, N_RELATIONS, size=(8, 1)),
                                 rng.integers(0, n, size=(8, 1)),
                                 np.sort(rng.integers(0, N_TIMES, size=(8, 2)), axis=1)))
        facts[0, [0, 2]] = n - 1, 0
        batch, targets = build_query_subgraph(None, table, facts, rng.random(8) < 0.5)
        step = 0.2 / 8
        expected_table, expected = table.copy(), params.copy()
        loss, grads = gradients(batch, expected_table, expected, targets)
        sgd_step(expected_table, expected, grads, batch, step)
        step_loss, step_grads = gradients(batch, table, params, targets, step=step)
        assert step_grads is None
        assert step_loss == loss
        for name in PARAM_NAMES:
            assert np.array_equal(getattr(params, name), getattr(expected, name)), name
        for name in TABLE_NAMES:
            assert np.array_equal(getattr(table, name), getattr(expected_table, name)), name

    def test_step_mode_allocates_no_entity_sized_array(self):
        n = 2 * SWEEP_ROWS + 5
        rng = np.random.default_rng(n)
        table = init_random(n, N_RELATIONS, N_TIMES, D, n)
        params = init_params(D, n, n + 1)
        facts = np.column_stack((rng.integers(0, n, size=(8, 1)),
                                 rng.integers(0, N_RELATIONS, size=(8, 1)),
                                 rng.integers(0, n, size=(8, 1)),
                                 np.sort(rng.integers(0, N_TIMES, size=(8, 2)), axis=1)))
        batch, targets = build_query_subgraph(None, table, facts, rng.random(8) < 0.5)
        buffers = SoftmaxBuffers(params.decoder_w.T, 8)
        tracemalloc.start()
        try:
            gradients(batch, table, params, targets, buffers, step=0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.entity.nbytes // 2

    def test_one_step_matches_hand_step(self):
        # no end year is also a start year, so the end-only rows must stay put
        store, table, params = self.make_world([
            ("a", "r1", "b", 1990, 1993),
            ("b", "r1", "c", 1991, 1994),
            ("c", "r2", "a", 1990, 1995),
            ("a", "r2", "c", 1992, 1996),
        ])
        config = TgnnPretrainConfig(learning_rate=0.5, epochs=1, batch_size=3, seed=4,
                                    max_steps=1)
        trained_table, trained_params, losses = pretrain(store, table, params, config)

        # The step runs in float32, on the rounding of the inputs.  The looped
        # reference sums in another order, so at that precision it agrees
        # with the kernel only to ~1e-7: the hand step takes the kernel, which
        # test_union_matches_sum_of_looped_queries pins to the looped
        # reference in float64.
        table, params = table.astype(np.float32), params.astype(np.float32)
        rng = np.random.default_rng(config.seed)
        queries = [(store.facts[fid], m) for fid in range(len(store.facts)) for m in (True, False)]
        batch, targets = reference_query_batch(
            (queries[i] for i in rng.permutation(len(queries))[: config.batch_size]),
            table.n_relations)
        loss, expected = gradients(batch, table, params, targets)
        step = config.learning_rate / config.batch_size
        assert losses == [loss]
        for name in PARAM_NAMES:
            stepped = getattr(params, name) - step * getattr(expected, name)
            assert np.array_equal(getattr(trained_params, name), stepped), name
        for name in TABLE_NAMES:
            stepped = getattr(table, name) - step * getattr(expected, name)
            assert np.array_equal(getattr(trained_table, name), stepped), name

    def test_untouched_rows_stay_bit_identical(self):
        store = build_store([
            ("a", "r1", "b", 1990, 1991),
            ("c", "r2", "d", 1995, 1996),
        ])
        table = init_random(len(store.entities), len(store.relations), len(store.times), D, 0)
        params = init_params(D, len(store.entities), 1)
        config = TgnnPretrainConfig(learning_rate=0.5, epochs=1, batch_size=2, seed=0)
        trained, _, _ = pretrain(store, table, params, config, fact_indices=[0])
        table = table.astype(np.float32)
        a, b, c, d = (store.entities.id(x) for x in "abcd")
        r2 = store.relations.id("r2")
        late = [store.times.id(y) for y in ("1995", "1996")]
        assert not np.array_equal(trained.entity[[a, b]], table.entity[[a, b]])
        assert np.array_equal(trained.entity[[c, d]], table.entity[[c, d]])
        assert np.array_equal(trained.relation[[r2, len(store.relations) + r2]],
                              table.relation[[r2, len(store.relations) + r2]])
        assert np.array_equal(trained.time[late], table.time[late])

    def test_evaluate_masked_matches_single_queries(self):
        store, table, params = self.make_world()
        config = TgnnPretrainConfig(learning_rate=3e-4, epochs=4, batch_size=3, seed=2)
        ranks = evaluate_masked(store, table, params, store.facts, config)
        expected = []
        for fact in store.facts:
            for mask_object in (True, False):
                graph, target = build_query_subgraph(store, table, fact, mask_object)
                probs = mask_predict(graph, table, params)
                others = np.arange(len(probs)) != target
                expected.append(1 + int(np.sum(probs[others] >= probs[target])))
        assert ranks == expected

    @pytest.mark.parametrize("seed", range(2))
    def test_query_order_matches_the_list_reference(self, seed):
        """A seeded full-store run, and one over a fact subset, give the bits
        of the list-based query order; a short last batch included."""
        store = hub_store(seed, n_facts=203)
        table = init_random(len(store.entities), len(store.relations), len(store.times), D, seed)
        params = init_params(D, len(store.entities), seed + 1)
        config = TgnnPretrainConfig(learning_rate=0.3, epochs=2, batch_size=8, seed=seed)
        subset = [int(i) for i in np.random.default_rng(seed).permutation(203)[:37]]
        for fact_indices in (None, subset):
            got = pretrain(store, table, params, config, fact_indices)
            expected = list_order_pretrain(store, table.astype(np.float32),
                                           params.astype(np.float32), config, fact_indices)
            assert got[2] == expected[2]
            for name in TABLE_NAMES:
                assert np.array_equal(getattr(got[0], name), getattr(expected[0], name)), name
            for name in PARAM_NAMES:
                assert np.array_equal(getattr(got[1], name), getattr(expected[1], name)), name


class TestDtype:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_buffers_and_gradients_follow_the_inputs(self, dtype):
        rng, table, params = random_world(70)
        table, params = table.astype(dtype), params.astype(dtype)
        graphs = [random_graph(rng) for _ in range(3)]
        buffers = SoftmaxBuffers(params.decoder_w.T, 3)
        for array in (buffers.logits, buffers.ones, buffers.block, buffers.bias_block):
            assert array.dtype == dtype
        _, grads = gradients(merge_batches(graphs), table, params, [0, 1, 2], buffers)
        for name in PARAM_NAMES + TABLE_NAMES:
            assert getattr(grads, name).dtype == dtype, name
        assert forward(graphs[0], table, params).dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_attention_weights_follow_the_inputs(self, dtype):
        rng, _, params = random_world(71)
        params = params.astype(dtype)
        messages = [rng.normal(size=D).astype(dtype) for _ in range(3)]
        weights = attention_weights(rng.normal(size=D).astype(dtype), messages, params)
        assert weights.dtype == dtype
        assert weights.sum() == pytest.approx(1.0, abs=1e-6)

    def test_pretrain_returns_float32(self):
        store = build_store([("a", "r1", "b", 1990, 1991), ("b", "r2", "c", 1991, 1992)])
        table = init_random(len(store.entities), len(store.relations), len(store.times), D, 0)
        params = init_params(D, len(store.entities), 1)
        config = TgnnPretrainConfig(learning_rate=0.5, epochs=1, batch_size=2, seed=0)
        trained_table, trained_params, _ = pretrain(store, table, params, config)
        for name in TABLE_NAMES:
            assert getattr(trained_table, name).dtype == np.float32, name
            assert getattr(table, name).dtype == np.float64, name
        for name in PARAM_NAMES:
            assert getattr(trained_params, name).dtype == np.float32, name
            assert getattr(params, name).dtype == np.float64, name


class TestEncodeEntities:
    def test_covers_all_entities_of_facts(self, tiny_store):
        table = init_random(len(tiny_store.entities), len(tiny_store.relations),
                            len(tiny_store.times), D, 0)
        params = init_params(D, len(tiny_store.entities), 0)
        facts = tiny_store.facts[:3]
        encoded = encode_entities(facts, table, params)
        expected = {f.subject for f in facts} | {f.object for f in facts}
        assert set(encoded) == expected
        for vector in encoded.values():
            assert vector.shape == (D,)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_looped_forward(self, tiny_store, seed):
        table = init_random(len(tiny_store.entities), len(tiny_store.relations),
                            len(tiny_store.times), D, 0)
        params = init_params(D, len(tiny_store.entities), seed)
        encoded = encode_entities(tiny_store.facts, table, params)
        batch, node_of = batch_from_facts(tiny_store.facts, len(tiny_store.relations))
        final, _ = reference_forward(batch, table, params)
        for entity, idx in node_of.items():
            assert relative_error(encoded[entity], final[idx]) < 1e-12

    def test_deterministic(self, tiny_store):
        table = init_random(len(tiny_store.entities), len(tiny_store.relations),
                            len(tiny_store.times), D, 0)
        params = init_params(D, len(tiny_store.entities), 0)
        a = encode_entities(tiny_store.facts, table, params)
        b = encode_entities(tiny_store.facts, table, params)
        for key in a:
            assert np.array_equal(a[key], b[key])
