import math

import numpy as np
import pytest

from matchgraph.embeddings import EmbeddingMatrix
from matchgraph.errors import InvalidAdjacency, InvalidRecord, UnknownImage
from matchgraph.knn import build_index
from matchgraph.subgraph import (
    Qes,
    QesParams,
    append_edges,
    build_qes,
    compute_features,
    discover_nodes,
)

from qes_oracle import edges_of_qes, oracle_build


def ring_scene(n, dim=2, seed=None):
    if seed is None:
        angles = [2 * math.pi * i / n for i in range(n)]
        vectors = [[math.cos(a), math.sin(a)] for a in angles]
    else:
        vectors = np.random.default_rng(seed).normal(size=(n, dim))
    emb = EmbeddingMatrix(range(n), vectors)
    return emb, build_index(emb)


class TestQesParams:
    def test_validation(self):
        QesParams(1, 0, 1)
        with pytest.raises(ValueError):
            QesParams(0, 0, 1)
        with pytest.raises(ValueError):
            QesParams(1, -1, 1)
        with pytest.raises(ValueError):
            QesParams(1, 0, 0)


class TestDiscoverNodes:
    def test_k2_zero_is_pure_first_hop(self):
        emb, index = ring_scene(8)
        nodes, hops = discover_nodes(index, 0, k1=3, k2=0)
        assert hops == [1, 1, 1]
        assert set(nodes) == set(index.neighbors(0, 3).ids())

    def test_saturated_first_hop(self):
        emb, index = ring_scene(5)
        nodes, hops = discover_nodes(index, 2, k1=4, k2=3)
        assert sorted(nodes) == [0, 1, 3, 4]
        assert hops == [1, 1, 1, 1]

    def test_query_excluded(self):
        emb, index = ring_scene(10)
        nodes, _ = discover_nodes(index, 4, k1=3, k2=2)
        assert 4 not in nodes

    def test_dual_reachability_keeps_tag_one(self):
        emb, index = ring_scene(8)
        nodes, hops = discover_nodes(index, 0, k1=2, k2=2)
        one_hop = set(index.neighbors(0, 2).ids())
        for v, h in zip(nodes, hops):
            if v in one_hop:
                assert h == 1

    def test_eight_ring_against_oracle(self):
        emb, index = ring_scene(8)
        nodes, hops = discover_nodes(index, 0, k1=2, k2=1)
        o_nodes, o_hops, _, _ = oracle_build(list(emb.ids), emb.vectors, 0, 2, 1, 1)
        assert nodes == o_nodes
        assert hops == o_hops

    def test_unknown_query(self):
        emb, index = ring_scene(4)
        with pytest.raises(UnknownImage):
            discover_nodes(index, 77, 2, 1)


class TestAppendEdges:
    def test_single_node(self):
        emb, index = ring_scene(5)
        adjacency = append_edges(index, [2], u=3)
        assert adjacency.shape == (1, 1)
        assert adjacency[0, 0] == 0.0

    def test_u_saturated_gives_complete_graph(self):
        emb, index = ring_scene(6)
        nodes = [0, 2, 4]
        adjacency = append_edges(index, nodes, u=5)
        expected = np.ones((3, 3)) - np.eye(3)
        assert np.array_equal(adjacency, expected)

    def test_eight_ring_against_oracle(self):
        emb, index = ring_scene(8)
        nodes, hops = discover_nodes(index, 0, k1=2, k2=1)
        adjacency = append_edges(index, nodes, u=2)
        qes = Qes(0, nodes, hops, adjacency, compute_features(emb, 0, nodes))
        _, _, o_edges, _ = oracle_build(list(emb.ids), emb.vectors, 0, 2, 1, 2)
        assert edges_of_qes(qes) == o_edges

    def test_node_order_irrelevant(self):
        emb, index = ring_scene(9)
        nodes = [1, 3, 5, 7]
        a1 = append_edges(index, nodes, u=3)
        a2 = append_edges(index, list(reversed(nodes)), u=3)
        assert np.array_equal(a1, np.flip(a2))


class TestComputeFeatures:
    def test_identical_embedding_gives_zero_row(self):
        emb = EmbeddingMatrix([0, 1], [[0.5, -1.0], [0.5, -1.0]])
        features = compute_features(emb, 0, [1])
        assert np.array_equal(features, [[0.0, 0.0]])

    def test_zero_query_passes_raw_rows(self):
        emb = EmbeddingMatrix([0, 1], [[0.0, 0.0], [2.0, 3.0]])
        features = compute_features(emb, 0, [1])
        assert np.array_equal(features, [[2.0, 3.0]])

    def test_elementwise_against_recomputation(self):
        rng = np.random.default_rng(5)
        emb = EmbeddingMatrix(range(6), rng.normal(size=(6, 4)))
        features = compute_features(emb, 2, [0, 1, 3, 4, 5])
        for row, v in enumerate([0, 1, 3, 4, 5]):
            for col in range(4):
                assert features[row, col] == emb.vectors[v, col] - emb.vectors[2, col]


class TestBuildQes:
    def test_composition_matches_stages(self):
        emb, index = ring_scene(12, dim=5, seed=3)
        params = QesParams(3, 2, 2)
        qes = build_qes(index, emb, 4, params)
        nodes, hops = discover_nodes(index, 4, 3, 2)
        assert qes.nodes == tuple(nodes)
        assert qes.hop == tuple(hops)
        assert np.array_equal(qes.adjacency, append_edges(index, nodes, 2))
        assert np.array_equal(qes.features, compute_features(emb, 4, nodes))

    def test_deterministic(self):
        emb, index = ring_scene(15, dim=4, seed=9)
        params = QesParams(4, 2, 3)
        assert build_qes(index, emb, 7, params) == build_qes(index, emb, 7, params)

    def test_twelve_node_scene_against_oracle(self):
        emb, index = ring_scene(12, dim=6, seed=21)
        qes = build_qes(index, emb, 5, QesParams(3, 2, 2))
        o_nodes, o_hops, o_edges, o_features = oracle_build(
            list(emb.ids), emb.vectors, 5, 3, 2, 2
        )
        assert qes.nodes == tuple(o_nodes)
        assert qes.hop == tuple(o_hops)
        assert edges_of_qes(qes) == o_edges
        assert np.array_equal(qes.features, o_features)

    def test_labels_mapping(self):
        emb, index = ring_scene(6)
        qes = build_qes(index, emb, 0, QesParams(2, 1, 2), labels={1: True})
        assert qes.labels is not None
        got = dict(zip(qes.nodes, qes.labels))
        assert got[1] is True
        assert all(not lab for v, lab in got.items() if v != 1)

    def test_invariants_over_random_scenes(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(5, 40))
            emb, index = ring_scene(n, dim=int(rng.integers(2, 8)), seed=int(rng.integers(1e6)))
            params = QesParams(
                k1=int(rng.integers(1, n)),
                k2=int(rng.integers(0, 4)),
                u=int(rng.integers(1, 6)),
            )
            q = int(rng.integers(n))
            qes = build_qes(index, emb, q, params)
            assert q not in qes.nodes
            assert np.array_equal(qes.adjacency, qes.adjacency.T)
            assert not qes.adjacency.diagonal().any()
            assert sum(1 for h in qes.hop if h == 1) == min(params.k1, n - 1)

    def test_edge_superset_with_larger_u(self):
        emb, index = ring_scene(20, dim=4, seed=2)
        params_small = QesParams(5, 2, 2)
        params_large = QesParams(5, 2, 6)
        small = edges_of_qes(build_qes(index, emb, 3, params_small))
        large = edges_of_qes(build_qes(index, emb, 3, params_large))
        assert small <= large


class TestQesValidation:
    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(InvalidAdjacency):
            Qes(0, [1, 2], [1, 1], [[0, 1], [0, 0]], np.zeros((2, 2)))

    def test_rejects_query_in_nodes(self):
        with pytest.raises(InvalidRecord):
            Qes(1, [1, 2], [1, 1], np.zeros((2, 2)), np.zeros((2, 2)))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(InvalidAdjacency):
            Qes(0, [1], [1], [[1.0]], np.zeros((1, 2)))

    def test_rejects_non_binary_adjacency(self):
        with pytest.raises(InvalidAdjacency):
            Qes(0, [1, 2], [1, 1], [[0, 0.5], [0.5, 0]], np.zeros((2, 2)))
