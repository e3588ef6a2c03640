import numpy as np
import pytest

from tempkgqa.embeddings import init_random
from tempkgqa.indicators import (
    IndicatorError,
    build_indicators,
    init_projection,
    local_pool,
    temporal_enhance,
)
from tempkgqa.retrieval import RetrievedSubgraph, TemporalConstraint
from tempkgqa.store import Quadruple

D, D_LLM = 6, 10


def make_subgraph(facts):
    return RetrievedSubgraph("q0", tuple(facts), (0,), TemporalConstraint.none())


def make_world(n_entities=4, n_relations=2, n_times=5, seed=0):
    table = init_random(n_entities, n_relations, n_times, D, seed)
    rng = np.random.default_rng(seed + 1)
    nodes = {e: rng.normal(size=D) for e in range(n_entities)}
    return table, nodes


class TestProjection:
    def test_shape_and_bounds(self):
        projection = init_projection(D, D_LLM, 0)
        assert projection.weight.shape == (D, D_LLM)
        assert projection.dim_in == D and projection.dim_out == D_LLM
        assert np.all(np.abs(projection.weight) <= 1.0 / np.sqrt(D))

    def test_deterministic(self):
        assert np.array_equal(init_projection(D, D_LLM, 3).weight,
                              init_projection(D, D_LLM, 3).weight)

    def test_copy_is_independent(self):
        projection = init_projection(D, D_LLM, 0)
        clone = projection.copy()
        clone.weight[0, 0] += 1.0
        assert projection.weight[0, 0] != clone.weight[0, 0]

    def test_bad_dimensions_rejected(self):
        with pytest.raises(IndicatorError):
            init_projection(0, D_LLM, 0)
        with pytest.raises(IndicatorError):
            init_projection(D, 0, 0)


class TestPooling:
    def test_mean_and_max(self):
        vectors = [np.array([1.0, 4.0]), np.array([3.0, 2.0])]
        assert np.allclose(local_pool(vectors, "mean"), [2.0, 3.0])
        assert np.allclose(local_pool(vectors, "max"), [3.0, 4.0])

    def test_single_vector_is_identity(self):
        vector = np.array([1.0, -2.0, 0.5])
        assert np.allclose(local_pool([vector], "mean"), vector)
        assert np.allclose(local_pool([vector], "max"), vector)

    def test_errors(self):
        with pytest.raises(IndicatorError, match="zero vectors"):
            local_pool([], "mean")
        with pytest.raises(IndicatorError, match="pooling mode"):
            local_pool([np.zeros(2)], "sum")

    def test_temporal_enhance_is_additive(self):
        pooled = np.array([1.0, 2.0])
        assert np.allclose(
            temporal_enhance(pooled, np.array([0.1, 0.2]), np.array([10.0, 20.0])),
            [11.1, 22.2],
        )


class TestBuildIndicators:
    def test_matches_manual_computation(self):
        table, nodes = make_world()
        facts = [Quadruple(0, 0, 1, 1, 2), Quadruple(2, 1, 3, 0, 3)]
        result = build_indicators(make_subgraph(facts), nodes, table)

        t_vecs = table.time[0] + table.time[3]  # earliest start, latest end
        sub = (nodes[0] + nodes[2]) / 2 + t_vecs
        rel = (table.relation[0] + table.relation[1]) / 2 + t_vecs
        obj = (nodes[1] + nodes[3]) / 2 + t_vecs
        assert result.t_min == 0 and result.t_max == 3
        assert np.allclose(result.sub_vec, sub)
        assert np.allclose(result.rel_vec, rel)
        assert np.allclose(result.obj_vec, obj)

    def test_repeated_facts_count_twice(self):
        table, nodes = make_world()
        fact = Quadruple(0, 0, 1, 1, 2)
        other = Quadruple(2, 1, 3, 1, 2)
        once = build_indicators(make_subgraph([fact, other]), nodes, table)
        twice = build_indicators(make_subgraph([fact, fact, other]), nodes, table)
        assert not np.allclose(once.sub_vec, twice.sub_vec)
        expected = (2 * nodes[0] + nodes[2]) / 3 + table.time[1] + table.time[2]
        assert np.allclose(twice.sub_vec, expected)

    def test_max_pooling_mode(self):
        table, nodes = make_world()
        facts = [Quadruple(0, 0, 1, 1, 2), Quadruple(2, 1, 3, 1, 2)]
        result = build_indicators(make_subgraph(facts), nodes, table, mode="max")
        t_vecs = table.time[1] + table.time[2]
        assert np.allclose(result.sub_vec,
                           np.maximum(nodes[0], nodes[2]) + t_vecs)

    def test_time_range_unions_all_endpoints(self):
        table, nodes = make_world()
        facts = [Quadruple(0, 0, 1, 2, 2), Quadruple(2, 1, 3, 1, 4)]
        result = build_indicators(make_subgraph(facts), nodes, table)
        assert (result.t_min, result.t_max) == (1, 4)

    def test_empty_subgraph_rejected(self):
        table, nodes = make_world()
        with pytest.raises(IndicatorError, match="empty"):
            build_indicators(make_subgraph([]), nodes, table)

    def test_missing_node_embedding_rejected(self):
        table, nodes = make_world()
        del nodes[1]
        with pytest.raises(IndicatorError, match="entity 1"):
            build_indicators(make_subgraph([Quadruple(0, 0, 1, 0, 0)]),
                             nodes, table)
