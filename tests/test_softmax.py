"""The shared full-vocabulary softmax kernel against the dense code it replaced.

``reference_base_loss_and_grads`` is the base pre-trainer's dense kernel and
``reference_decoder`` the graph encoder's ``_decode`` plus its backward pass,
both as they were before the two callers shared
:func:`embeddings.softmax_cross_entropy`.  They build ``(B, |E|)`` logits
and fresh vocabulary-sized gradients on every call; the kernel works in
caller-owned buffers and sums in another order, so the two agree to a
relative error of 1e-12 rather than bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

from tempkgqa import tgnn
from tempkgqa.embeddings import (
    _MAX_BLOCK,
    SWEEP_ROWS,
    BasePretrainConfig,
    SoftmaxBuffers,
    base_loss_and_grads,
    init_random,
    pretrain_base,
    softmax_cross_entropy,
    softmax_probs,
)
from tempkgqa.store import Quadruple

from conftest import build_store
from gradcheck import relative_error

TOL = 1e-12
TABLE_NAMES = ("entity", "relation", "time")
# |E| = 1, below one max block, a non-multiple above it, and an exact multiple
VOCAB_SIZES = (1, 7, _MAX_BLOCK + 44, 2 * _MAX_BLOCK)
# two and three blocks of the backward sweep, each with a partial last block
SWEEP_SIZES = (SWEEP_ROWS + 300, 2 * SWEEP_ROWS + 5)


def reference_base_loss_and_grads(table, facts):
    """The dense base kernel: (B, |E|) logits and a fresh (|E|, d) gradient."""
    subjects = np.array([f.subject for f in facts])
    objects = np.array([f.object for f in facts])
    relations = np.array([f.relation for f in facts])
    starts = np.tile([f.t_start for f in facts], 2)
    ends = np.tile([f.t_end for f in facts], 2)
    anchors = np.concatenate([subjects, objects])
    rows = np.concatenate([relations, table.n_relations + relations])
    targets = np.concatenate([objects, subjects])
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

    grads = {
        "entity": d_logits.T @ queries,
        "relation": np.zeros_like(table.relation),
        "time": np.zeros_like(table.time),
    }
    d_queries = d_logits @ table.entity
    np.add.at(grads["entity"], anchors, d_queries)
    np.add.at(grads["relation"], rows, d_queries)
    np.add.at(grads["time"], starts, 0.5 * d_queries)
    np.add.at(grads["time"], ends, 0.5 * d_queries)
    return loss, grads


def reference_decoder(queries, decoder_w, decoder_b, targets):
    """The encoder's dense decode and its backward pass: loss, the query
    gradient, and the decoder weight and bias gradients."""
    logits = queries @ decoder_w + decoder_b
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    picked = (np.arange(len(targets)), targets)
    loss = float(-log_probs[picked].sum())
    d_logits = np.exp(log_probs)
    d_logits[picked] -= 1.0
    return loss, d_logits @ decoder_w.T, queries.T @ d_logits, d_logits.sum(axis=0)


def random_decoder(rng, n, d=6, scale=1.0):
    decoder_w = scale * rng.uniform(-0.5, 0.5, size=(d, n))
    decoder_b = rng.uniform(-0.5, 0.5, size=n)
    return decoder_w, decoder_b


def random_facts(rng, n_entities, n_relations, n_times, count):
    facts = []
    for _ in range(count):
        start, end = sorted(rng.integers(0, n_times, size=2))
        facts.append(Quadruple(int(rng.integers(n_entities)), int(rng.integers(n_relations)),
                               int(rng.integers(n_entities)), int(start), int(end)))
    return facts


def assert_decoder_matches(decoder_w, decoder_b, queries, targets, buffers):
    loss, d_queries, grad_w, grad_b = softmax_cross_entropy(
        decoder_w.T, queries, targets, buffers, decoder_b)
    ref_loss, ref_queries, ref_w, ref_b = reference_decoder(queries, decoder_w, decoder_b, targets)
    assert loss == pytest.approx(ref_loss, rel=TOL)
    assert relative_error(d_queries, ref_queries) < TOL
    assert relative_error(grad_w.T, ref_w) < TOL
    assert relative_error(grad_b, ref_b) < TOL


class TestKernel:
    @pytest.mark.parametrize("n", VOCAB_SIZES + SWEEP_SIZES)
    @pytest.mark.parametrize("batch", [1, 3, 16])
    def test_decoder_layout_matches_reference(self, n, batch):
        rng = np.random.default_rng(n * 31 + batch)
        decoder_w, decoder_b = random_decoder(rng, n)
        queries = rng.uniform(-1, 1, size=(batch, decoder_w.shape[0]))
        targets = rng.integers(0, n, size=batch)
        targets[-1] = targets[0]  # a repeated target
        assert_decoder_matches(decoder_w, decoder_b, queries, targets,
                               SoftmaxBuffers(decoder_w.T, batch))

    @pytest.mark.parametrize("n", VOCAB_SIZES + SWEEP_SIZES)
    @pytest.mark.parametrize("batch", [1, 3, 16])
    def test_table_layout_matches_reference(self, n, batch):
        # a C-ordered (n, d) vocabulary with no bias, as the base table
        rng = np.random.default_rng(n * 17 + batch)
        decoder_w, _ = random_decoder(rng, n)
        vocab = np.ascontiguousarray(decoder_w.T)
        queries = rng.uniform(-1, 1, size=(batch, vocab.shape[1]))
        targets = rng.integers(0, n, size=batch)
        buffers = SoftmaxBuffers(vocab, batch)
        loss, d_queries, grad, no_bias = softmax_cross_entropy(vocab, queries, targets, buffers)
        ref_loss, ref_queries, ref_w, _ = reference_decoder(queries, decoder_w, 0.0, targets)
        assert loss == pytest.approx(ref_loss, rel=TOL)
        assert relative_error(d_queries, ref_queries) < TOL
        assert relative_error(grad, ref_w.T) < TOL
        assert no_bias is None

    def test_probabilities_are_a_distribution(self):
        rng = np.random.default_rng(3)
        decoder_w, decoder_b = random_decoder(rng, VOCAB_SIZES[2])
        queries = rng.uniform(-1, 1, size=(4, decoder_w.shape[0]))
        probs, loss = softmax_probs(decoder_w.T, queries, SoftmaxBuffers(decoder_w.T, 4), decoder_b)
        assert loss == 0.0
        logits = queries @ decoder_w + decoder_b
        expected = np.exp(logits - logits.max(axis=1, keepdims=True))
        expected /= expected.sum(axis=1, keepdims=True)
        assert relative_error(probs, expected.T) < TOL

    def test_reused_buffers_give_the_bits_of_fresh_ones(self):
        rng = np.random.default_rng(5)
        decoder_w, decoder_b = random_decoder(rng, VOCAB_SIZES[2])
        reused = SoftmaxBuffers(decoder_w.T, 8)
        big = rng.uniform(-1, 1, size=(8, decoder_w.shape[0]))
        softmax_cross_entropy(decoder_w.T, big, rng.integers(0, 300, size=8), reused, decoder_b)
        # a short batch after a full one
        queries = rng.uniform(-1, 1, size=(3, decoder_w.shape[0]))
        targets = rng.integers(0, 300, size=3)
        got = softmax_cross_entropy(decoder_w.T, queries, targets, reused, decoder_b)
        fresh = softmax_cross_entropy(
            decoder_w.T, queries, targets, SoftmaxBuffers(decoder_w.T, 3), decoder_b)
        assert got[0] == fresh[0]
        for array, fresh_array in zip(got[1:], fresh[1:]):
            assert np.array_equal(array, fresh_array)

    def test_large_scores_stay_finite(self):
        rng = np.random.default_rng(7)
        decoder_w, decoder_b = random_decoder(rng, VOCAB_SIZES[2], scale=1e3)
        queries = 1e3 * rng.uniform(-1, 1, size=(4, decoder_w.shape[0]))
        targets = rng.integers(0, VOCAB_SIZES[2], size=4)
        buffers = SoftmaxBuffers(decoder_w.T, 4)
        loss, *arrays = softmax_cross_entropy(decoder_w.T, queries, targets, buffers, decoder_b)
        assert np.isfinite(loss) and loss > 1e3
        for array in arrays:
            assert np.all(np.isfinite(array))


def base_world(n_entities, seed, d=6, n_relations=3, n_times=5):
    table = init_random(n_entities, n_relations, n_times, d, seed)
    return table, np.random.default_rng(seed)


def assert_base_matches(table, facts, buffers=None):
    loss, grads = base_loss_and_grads(table, facts, buffers)
    ref_loss, ref = reference_base_loss_and_grads(table, facts)
    assert loss == pytest.approx(ref_loss, rel=TOL)
    for name in TABLE_NAMES:
        assert relative_error(getattr(grads, name), ref[name]) < TOL, name


class TestBaseKernel:
    @pytest.mark.parametrize("n", VOCAB_SIZES + SWEEP_SIZES)
    def test_matches_dense_reference(self, n):
        table, rng = base_world(n, seed=n)
        facts = random_facts(rng, n, 3, 5, 8)
        # a target equal to its anchor, and a repeated target
        facts[0] = Quadruple(facts[0].subject, 1, facts[0].subject, 0, 4)
        facts[1] = Quadruple(facts[2].subject, 2, facts[2].object, 1, 1)
        assert_base_matches(table, facts)

    def test_single_fact(self):
        table, rng = base_world(VOCAB_SIZES[2], seed=1)
        assert_base_matches(table, random_facts(rng, VOCAB_SIZES[2], 3, 5, 1))

    def test_reused_buffers_give_the_bits_of_fresh_ones(self):
        table, rng = base_world(VOCAB_SIZES[2], seed=2)
        buffers = SoftmaxBuffers(table.entity, 16)
        base_loss_and_grads(table, random_facts(rng, VOCAB_SIZES[2], 3, 5, 8), buffers)
        facts = random_facts(rng, VOCAB_SIZES[2], 3, 5, 3)
        loss, reused = base_loss_and_grads(table, facts, buffers)
        reused = {name: getattr(reused, name).copy() for name in TABLE_NAMES}
        loss_f, fresh = base_loss_and_grads(table, facts)
        assert loss == loss_f
        for name in TABLE_NAMES:
            assert np.array_equal(reused[name], getattr(fresh, name)), name

    def test_pretrain_steps_match_reference_steps(self):
        # five facts in batches of two: the last batch is short
        facts = random_facts(np.random.default_rng(3), VOCAB_SIZES[2], 3, 5, 5)
        store = build_store([(f"e{f.subject}", f"r{f.relation}", f"e{f.object}",
                              1990 + f.t_start, 1990 + f.t_end) for f in facts])
        table = init_random(len(store.entities), len(store.relations), len(store.times), 6, 3)
        config = BasePretrainConfig(learning_rate=0.5, epochs=1, batch_size=2, seed=4)
        trained, losses = pretrain_base(store, table, config)

        # The steps run in float32, on the rounding of ``table``.  The dense
        # reference sums in another order, so at that precision it agrees
        # with the kernel only to ~1e-7: the steps here take the kernel, which
        # test_matches_dense_reference pins to the dense reference in float64.
        expected = table.astype(np.float32)
        total = 0.0
        order = np.random.default_rng(config.seed).permutation(len(store.facts))
        for lo in range(0, len(order), config.batch_size):
            batch = [store.facts[i] for i in order[lo : lo + config.batch_size]]
            loss, grads = base_loss_and_grads(expected, batch)
            total += loss
            step = config.learning_rate / (2 * len(batch))
            for name in TABLE_NAMES:
                getattr(expected, name)[...] -= step * getattr(grads, name)
        assert losses == [total]
        for name in TABLE_NAMES:
            assert np.array_equal(getattr(trained, name), getattr(expected, name)), name

    def test_untouched_rows_stay_bit_identical(self):
        store = build_store([
            ("a", "r1", "b", 1990, 1991),
            ("c", "r2", "d", 1995, 1996),
        ])
        table = init_random(len(store.entities), len(store.relations), len(store.times), 6, 0)
        config = BasePretrainConfig(learning_rate=0.5, epochs=2, batch_size=1, seed=0)
        trained, _ = pretrain_base(store, table, config, fact_indices=[0])
        rounded = table.astype(np.float32)
        r2 = store.relations.id("r2")
        late = [store.times.id(y) for y in ("1995", "1996")]
        assert not np.array_equal(trained.relation, rounded.relation)
        assert np.array_equal(trained.relation[[r2, len(store.relations) + r2]],
                              rounded.relation[[r2, len(store.relations) + r2]])
        assert np.array_equal(trained.time[late], rounded.time[late])

    def test_large_embeddings_stay_finite(self):
        table, rng = base_world(VOCAB_SIZES[2], seed=6)
        for name in TABLE_NAMES:
            getattr(table, name)[...] *= 1e3
        loss, grads = base_loss_and_grads(table, random_facts(rng, VOCAB_SIZES[2], 3, 5, 8))
        assert np.isfinite(loss) and loss > 1e3
        for name in TABLE_NAMES:
            assert np.all(np.isfinite(getattr(grads, name))), name


def sweep_facts(rng, n):
    """Facts over ``n`` entities whose anchors repeat, fall in the last,
    partial sweep block and equal their own target."""
    facts = random_facts(rng, n, 3, 5, 8)
    facts[0] = Quadruple(n - 1, 0, 3, 0, 2)       # subject anchor in the last block
    facts[1] = Quadruple(n - 1, 1, n - 2, 1, 4)   # the same anchor again, object too
    facts[2] = Quadruple(SWEEP_ROWS, 2, SWEEP_ROWS, 2, 3)  # target equal to its anchor
    facts[3] = Quadruple(5, 0, 5, 0, 0)           # the same in the first block
    return facts


class TestStepMode:
    """A step-mode call leaves the parameters with the bits of a gradient-mode
    call followed by ``param -= step * grad``, past one sweep block too."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", VOCAB_SIZES[2:] + SWEEP_SIZES)
    def test_base_step_is_gradient_then_step(self, n, dtype):
        table, rng = base_world(n, seed=n + 1)
        table = table.astype(dtype)
        facts = sweep_facts(rng, n) if n > SWEEP_ROWS else random_facts(rng, n, 3, 5, 8)
        step = 0.3 / 16
        loss, grads = base_loss_and_grads(table, facts)
        stepped = table.copy()
        buffers = SoftmaxBuffers(stepped.entity, 16)
        step_loss, step_grads = base_loss_and_grads(stepped, facts, buffers, step)
        assert step_loss == loss
        assert step_grads is None
        for name in TABLE_NAMES:
            expected = getattr(table, name) - step * getattr(grads, name)
            assert np.array_equal(getattr(stepped, name), expected), name

    @pytest.mark.parametrize("n", VOCAB_SIZES[2:] + SWEEP_SIZES)
    def test_decoder_step_is_gradient_then_step(self, n):
        # the encoder's layout: an F-ordered vocabulary, decoder_w.T, with a bias
        rng = np.random.default_rng(n + 2)
        decoder_w, decoder_b = (a.astype(np.float32) for a in random_decoder(rng, n))
        queries = rng.uniform(-1, 1, size=(16, decoder_w.shape[0])).astype(np.float32)
        targets = rng.integers(0, n, size=16)
        targets[:2] = n - 1, 0
        step = 0.2 / 16
        buffers = SoftmaxBuffers(decoder_w.T, 16)
        loss, d_queries, grad_w, grad_b = softmax_cross_entropy(
            decoder_w.T, queries, targets, buffers, decoder_b)
        expected_w = decoder_w - step * grad_w.T
        expected_b = decoder_b - step * grad_b
        stepped = SoftmaxBuffers(decoder_w.T, 16)
        step_loss, step_queries, vocab, bias = softmax_cross_entropy(
            decoder_w.T, queries, targets, stepped, decoder_b, step=step)
        assert step_loss == loss
        assert np.array_equal(step_queries, d_queries)
        assert vocab.base is decoder_w and bias is decoder_b
        assert np.array_equal(decoder_w, expected_w)
        assert np.array_equal(decoder_b, expected_b)

    def test_step_mode_allocates_no_vocabulary_gradient(self):
        n = SWEEP_SIZES[1]
        table, rng = base_world(n, seed=9)
        facts = sweep_facts(rng, n)
        buffers = SoftmaxBuffers(table.entity, 16)
        decoder_w, decoder_b = random_decoder(rng, n)
        queries = rng.uniform(-1, 1, size=(4, decoder_w.shape[0]))
        targets = rng.integers(0, n, size=4)
        decoder = SoftmaxBuffers(decoder_w.T, 4)
        tracemalloc.start()
        try:
            base_loss_and_grads(table, facts, buffers, 0.01)
            softmax_cross_entropy(decoder_w.T, queries, targets, decoder, decoder_b, step=0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.entity.nbytes // 2

    def test_gradients_outlive_the_next_call_on_the_buffers(self):
        table, rng = base_world(VOCAB_SIZES[2], seed=10)
        buffers = SoftmaxBuffers(table.entity, 16)
        _, grads = base_loss_and_grads(table, random_facts(rng, VOCAB_SIZES[2], 3, 5, 8), buffers)
        kept = {name: getattr(grads, name).copy() for name in TABLE_NAMES}
        base_loss_and_grads(table, random_facts(rng, VOCAB_SIZES[2], 3, 5, 8), buffers)
        for name in TABLE_NAMES:
            assert np.array_equal(getattr(grads, name), kept[name]), name


class TestDtype:
    """The kernel allocates in its inputs' dtype: float32 for the trainers'
    copies, float64 for the gradchecks."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_buffers_and_base_gradients_follow_the_table(self, dtype):
        table, rng = base_world(VOCAB_SIZES[2], seed=7)
        table = table.astype(dtype)
        buffers = SoftmaxBuffers(table.entity, 16)
        for array in (buffers.logits, buffers.ones, buffers.block, buffers.bias_block):
            assert array.dtype == dtype
        _, grads = base_loss_and_grads(table, random_facts(rng, VOCAB_SIZES[2], 3, 5, 8), buffers)
        for name in TABLE_NAMES:
            assert getattr(grads, name).dtype == dtype, name
        probs, _ = softmax_probs(table.entity, table.entity[:3], buffers)
        assert probs.dtype == dtype

    def test_float32_kernel_tracks_float64(self):
        # same float32 values, both precisions: the float32 kernel is
        # accurate to its precision, not to the float64 tolerance
        table, rng = base_world(VOCAB_SIZES[3], seed=8)
        narrow = table.astype(np.float32)
        facts = random_facts(rng, VOCAB_SIZES[3], 3, 5, 8)
        loss32, grads32 = base_loss_and_grads(narrow, facts)
        loss64, grads64 = base_loss_and_grads(narrow.astype(np.float64), facts)
        assert loss32 == pytest.approx(loss64, rel=1e-5)
        for name in TABLE_NAMES:
            assert relative_error(getattr(grads32, name), getattr(grads64, name)) < 1e-4, name


class TestEncoderKernel:
    @pytest.mark.parametrize("n", VOCAB_SIZES)
    def test_masked_loss_and_probabilities_match_reference(self, n):
        rng = np.random.default_rng(n)
        d = 6
        table = init_random(n, 2, 3, d, n)
        params = tgnn.init_params(d, n, n + 1)
        params.decoder_b = rng.uniform(-0.5, 0.5, size=n)
        nodes = np.array([0, tgnn.MASK, n - 1])
        edges = np.array([[0, 1, 0, 0, 2], [2, 1, 3, 1, 1], [1, 0, 1, 0, 0]])
        batch = tgnn.SubgraphBatch(nodes, edges)
        target = n - 1
        final = tgnn.forward(batch, table, params)
        ref_loss, _, _, _ = reference_decoder(final[[1]], params.decoder_w,
                                              params.decoder_b, np.array([target]))
        assert tgnn.masked_loss(batch, table, params, target) == pytest.approx(ref_loss, rel=TOL)
        logits = final[1] @ params.decoder_w + params.decoder_b
        expected = np.exp(logits - logits.max())
        expected /= expected.sum()
        assert relative_error(tgnn.mask_predict(batch, table, params), expected) < TOL
