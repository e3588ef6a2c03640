import numpy as np
import pytest

from tempkgqa.embeddings import (
    BasePretrainConfig,
    EmbeddingError,
    base_loss_and_grads,
    init_random,
    pretrain_base,
)
from tempkgqa.store import Quadruple

from conftest import build_store
from gradcheck import fd_gradient, relative_error


def base_scores(table, anchor, relation_row, t_start, t_end):
    """Scores of every candidate entity for one masked query."""
    t_mid = 0.5 * (table.time[t_start] + table.time[t_end])
    query = table.entity[anchor] + table.relation[relation_row] + t_mid
    return table.entity @ query


def small_world(seed=0, d=6):
    store = build_store([
        ("a", "r1", "b", 1990, 1992),
        ("b", "r2", "c", 1991, 1991),
        ("c", "r1", "a", 1990, 1995),
        ("a", "r2", "c", 1993, 1995),
    ])
    table = init_random(len(store.entities), len(store.relations), len(store.times), d, seed)
    return store, table


class TestInit:
    def test_shapes_and_bounds(self):
        table = init_random(5, 3, 4, 8, seed=1)
        assert table.entity.shape == (5, 8)
        assert table.relation.shape == (6, 8)  # forward plus inverse rows
        assert table.time.shape == (4, 8)
        bound = 1.0 / np.sqrt(8)
        for block in (table.entity, table.relation, table.time):
            assert np.all(np.abs(block) < bound)

    def test_deterministic_per_seed(self):
        a, b = init_random(4, 2, 3, 5, seed=7), init_random(4, 2, 3, 5, seed=7)
        assert np.array_equal(a.entity, b.entity)
        assert not np.array_equal(a.entity, init_random(4, 2, 3, 5, seed=8).entity)

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(EmbeddingError):
            init_random(0, 1, 1, 4, seed=0)
        with pytest.raises(EmbeddingError):
            init_random(3, 1, 1, 0, seed=0)

    def test_inverse_row(self):
        table = init_random(3, 4, 2, 4, seed=0)
        assert table.n_relations == 4
        assert table.inverse_row(1) == 5

    def test_copy_is_deep(self):
        table = init_random(3, 2, 2, 4, seed=0)
        clone = table.copy()
        clone.entity[0, 0] += 1.0
        assert table.entity[0, 0] != clone.entity[0, 0]


class TestLoss:
    def test_uniform_logits_closed_form(self):
        store, table = small_world()
        table.entity[:] = 0.0
        table.relation[:] = 0.0
        table.time[:] = 0.0
        loss, _ = base_loss_and_grads(table, store.facts)
        expected = 2 * len(store.facts) * np.log(len(store.entities))
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_loss_additive_over_batches(self):
        store, table = small_world()
        whole, _ = base_loss_and_grads(table, store.facts)
        parts = sum(
            base_loss_and_grads(table, [f])[0] for f in store.facts
        )
        assert whole == pytest.approx(parts, rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_match_finite_differences(self, seed):
        store, table = small_world(seed=seed)
        _, grads = base_loss_and_grads(table, store.facts)
        loss_fn = lambda: base_loss_and_grads(table, store.facts)[0]
        for name in ("entity", "relation", "time"):
            numeric = fd_gradient(loss_fn, getattr(table, name))
            assert relative_error(getattr(grads, name), numeric) < 1e-4, name

    def test_scores_agree_with_loss_logits(self):
        store, table = small_world()
        fact = store.facts[0]
        scores = base_scores(table, fact.subject, fact.relation, fact.t_start, fact.t_end)
        # softmax cross-entropy of the object under these scores
        shifted = scores - scores.max()
        expected = -(shifted[fact.object] - np.log(np.exp(shifted).sum()))
        loss, _ = base_loss_and_grads(table, [fact])
        # single fact: object-masked plus subject-masked query
        inverse = base_scores(
            table, fact.object, table.inverse_row(fact.relation), fact.t_start, fact.t_end
        )
        shifted_inv = inverse - inverse.max()
        expected += -(shifted_inv[fact.subject] - np.log(np.exp(shifted_inv).sum()))
        assert loss == pytest.approx(float(expected), rel=1e-12)

    def test_interval_midpoint_uses_both_endpoints(self):
        store, table = small_world()
        fact = store.facts[0]
        assert fact.t_start != fact.t_end
        base = base_scores(table, fact.subject, fact.relation, fact.t_start, fact.t_end)
        table.time[fact.t_end] += 1.0
        shifted = base_scores(table, fact.subject, fact.relation, fact.t_start, fact.t_end)
        assert not np.allclose(base, shifted)


class TestPretrain:
    def test_zero_learning_rate_keeps_table_and_loss(self):
        store, table = small_world()
        config = BasePretrainConfig(learning_rate=0.0, epochs=3, batch_size=2, seed=0)
        trained, losses = pretrain_base(store, table, config)
        assert np.array_equal(trained.entity, table.entity)
        reference, _ = base_loss_and_grads(table, store.facts)
        assert losses == pytest.approx([reference] * 3, rel=1e-12)

    def test_loss_decreases(self):
        store, table = small_world()
        config = BasePretrainConfig(learning_rate=0.5, epochs=10, batch_size=2, seed=0)
        _, losses = pretrain_base(store, table, config)
        assert losses[-1] < losses[0]

    def test_respects_fact_subset(self):
        store, table = small_world()
        config = BasePretrainConfig(learning_rate=0.0, epochs=1, batch_size=8, seed=0)
        _, losses = pretrain_base(store, table, config, fact_indices=[0, 2])
        reference, _ = base_loss_and_grads(table, [store.facts[0], store.facts[2]])
        assert losses[0] == pytest.approx(reference, rel=1e-12)

    def test_deterministic(self):
        store, table = small_world()
        config = BasePretrainConfig(learning_rate=0.3, epochs=2, batch_size=2, seed=5)
        first, losses_a = pretrain_base(store, table, config)
        second, losses_b = pretrain_base(store, table, config)
        assert np.array_equal(first.entity, second.entity)
        assert losses_a == losses_b

    def test_input_table_not_mutated(self):
        store, table = small_world()
        snapshot = table.entity.copy()
        pretrain_base(store, table, BasePretrainConfig(learning_rate=0.5, epochs=1))
        assert np.array_equal(table.entity, snapshot)

    def test_empty_training_set_rejected(self):
        store, table = small_world()
        with pytest.raises(EmbeddingError):
            pretrain_base(store, table, BasePretrainConfig(), fact_indices=[])

