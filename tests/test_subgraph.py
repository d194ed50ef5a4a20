import dataclasses
import math

import numpy as np
import pytest

from matchgraph import knn
from matchgraph.embeddings import EmbeddingMatrix
from matchgraph.errors import InvalidAdjacency, InvalidRecord, UnknownImage
from matchgraph.knn import build_index
from matchgraph.synthetic import SceneConfig, generate_scene
from matchgraph.subgraph import (
    Qes,
    QesParams,
    append_edges,
    build_qes,
    compute_features,
    discover_nodes,
)

from qes_oracle import edges_of_qes, oracle_build, set_algebra_discover


def shuffled_ids(n):
    """Ids that are neither contiguous nor in row order."""
    return 1000 + 7 * np.random.default_rng(n).permutation(n)


def ring_scene(n, dim=2, seed=None, shuffled=False):
    if seed is None:
        angles = [2 * math.pi * i / n for i in range(n)]
        vectors = [[math.cos(a), math.sin(a)] for a in angles]
    else:
        vectors = np.random.default_rng(seed).normal(size=(n, dim))
    emb = EmbeddingMatrix(shuffled_ids(n) if shuffled else range(n), vectors)
    return emb, build_index(emb)


def rows_of(emb, ids):
    return np.array([emb.position(v) for v in ids], dtype=np.intp)


def discover_ids(index, query_id, k1, k2):
    """`discover_nodes` from the query's row, node rows mapped to ids."""
    rows, hop = discover_nodes(index, index.emb.position(query_id), k1, k2)
    return index.ids[rows].tolist(), hop.tolist()


class TestQesParams:
    def test_validation(self):
        QesParams(1, 0, 1)
        with pytest.raises(ValueError):
            QesParams(0, 0, 1)
        with pytest.raises(ValueError):
            QesParams(1, -1, 1)
        with pytest.raises(ValueError):
            QesParams(1, 0, 0)


def zero_noise_ring():
    emb = generate_scene(SceneConfig(n_images=48, symmetry_s=4, dim=8, seed=1)).embeddings
    return emb, build_index(emb)


DISCOVER_SCENES = {
    "random": lambda: ring_scene(30, dim=5, seed=3, shuffled=True),
    "zero-noise ring": zero_noise_ring,
}


class TestDiscoverNodes:
    @pytest.mark.parametrize("make", list(DISCOVER_SCENES.values()), ids=list(DISCOVER_SCENES))
    def test_equals_set_algebra_oracle(self, make):
        emb, index = make()
        n = len(emb)
        for qrow in range(n):
            for k1, k2 in ((3, 0), (1, 2), (5, 3), (4, n - 1), (2, n + 5), (n - 1, 2)):
                rows, hop = discover_nodes(index, qrow, k1, k2)
                o_rows, o_hop = set_algebra_discover(index, qrow, k1, k2)
                assert np.array_equal(rows, o_rows) and np.array_equal(hop, o_hop)

    def test_query_reached_from_its_neighbours_stays_out(self):
        emb, index = ring_scene(10)
        first = index.table([4], 2)[0][0]
        assert 4 in index.table(first, 2)[0]
        rows, hop = discover_nodes(index, 4, 2, 2)
        o_rows, o_hop = set_algebra_discover(index, 4, 2, 2)
        assert np.array_equal(rows, o_rows) and np.array_equal(hop, o_hop)
        assert 4 not in rows and hop.tolist() == [1, 1, 2, 2]

    def test_k2_zero_is_pure_first_hop(self):
        emb, index = ring_scene(8)
        nodes, hops = discover_ids(index, 0, k1=3, k2=0)
        assert hops == [1, 1, 1]
        assert set(nodes) == set(index.neighbors(0, 3).ids())

    def test_saturated_first_hop(self):
        emb, index = ring_scene(5)
        nodes, hops = discover_ids(index, 2, k1=4, k2=3)
        assert sorted(nodes) == [0, 1, 3, 4]
        assert hops == [1, 1, 1, 1]

    def test_query_excluded(self):
        emb, index = ring_scene(10)
        nodes, _ = discover_ids(index, 4, k1=3, k2=2)
        assert 4 not in nodes

    def test_dual_reachability_keeps_tag_one(self):
        emb, index = ring_scene(8)
        nodes, hops = discover_ids(index, 0, k1=2, k2=2)
        one_hop = set(index.neighbors(0, 2).ids())
        for v, h in zip(nodes, hops):
            if v in one_hop:
                assert h == 1

    def test_eight_ring_against_oracle(self):
        emb, index = ring_scene(8)
        nodes, hops = discover_ids(index, 0, k1=2, k2=1)
        o_nodes, o_hops, _, _ = oracle_build(list(emb.ids), emb.vectors, 0, 2, 1, 1)
        assert nodes == o_nodes
        assert hops == o_hops


class TestAppendEdges:
    def test_single_node(self):
        emb, index = ring_scene(5)
        adjacency = append_edges(index, rows_of(emb, [2]), u=3)
        assert adjacency.shape == (1, 1)
        assert adjacency[0, 0] == 0.0

    def test_u_saturated_gives_complete_graph(self):
        emb, index = ring_scene(6)
        nodes = [0, 2, 4]
        adjacency = append_edges(index, rows_of(emb, nodes), u=5)
        expected = np.ones((3, 3)) - np.eye(3)
        assert np.array_equal(adjacency, expected)

    def test_eight_ring_against_oracle(self):
        emb, index = ring_scene(8)
        nodes, hops = discover_ids(index, 0, k1=2, k2=1)
        rows = rows_of(emb, nodes)
        adjacency = append_edges(index, rows, u=2)
        qes = Qes(0, nodes, hops, adjacency, compute_features(emb, emb.position(0), rows))
        _, _, o_edges, _ = oracle_build(list(emb.ids), emb.vectors, 0, 2, 1, 2)
        assert edges_of_qes(qes) == o_edges

    def test_node_order_irrelevant(self):
        emb, index = ring_scene(9)
        nodes = [1, 3, 5, 7]
        a1 = append_edges(index, rows_of(emb, nodes), u=3)
        a2 = append_edges(index, rows_of(emb, reversed(nodes)), u=3)
        assert np.array_equal(a1, np.flip(a2))


class TestComputeFeatures:
    def test_identical_embedding_gives_zero_row(self):
        emb = EmbeddingMatrix([0, 1], [[0.5, -1.0], [0.5, -1.0]])
        features = compute_features(emb, emb.position(0), rows_of(emb, [1]))
        assert np.array_equal(features, [[0.0, 0.0]])

    def test_zero_query_passes_raw_rows(self):
        emb = EmbeddingMatrix([0, 1], [[0.0, 0.0], [2.0, 3.0]])
        features = compute_features(emb, emb.position(0), rows_of(emb, [1]))
        assert np.array_equal(features, [[2.0, 3.0]])

    def test_elementwise_against_recomputation(self):
        rng = np.random.default_rng(5)
        emb = EmbeddingMatrix(range(6), rng.normal(size=(6, 4)))
        features = compute_features(emb, emb.position(2), rows_of(emb, [0, 1, 3, 4, 5]))
        for row, v in enumerate([0, 1, 3, 4, 5]):
            for col in range(4):
                assert features[row, col] == emb.vectors[v, col] - emb.vectors[2, col]


class TestBuildQes:
    def test_composition_matches_stages(self):
        emb, index = ring_scene(12, dim=5, seed=3)
        params = QesParams(3, 2, 2)
        qes = build_qes(index, emb, 4, params)
        qrow = emb.position(4)
        rows, hops = discover_nodes(index, qrow, 3, 2)
        assert qes.nodes.tolist() == index.ids[rows].tolist()
        assert qes.hop.tolist() == hops.tolist()
        assert np.array_equal(qes.adjacency, append_edges(index, rows, 2))
        assert np.array_equal(qes.features, compute_features(emb, qrow, rows))

    def test_lone_image_gets_an_empty_subgraph(self):
        emb, index = ring_scene(1)
        qes = build_qes(index, emb, 0, QesParams(3, 2, 2))
        assert len(qes) == 0 and qes.hop.tolist() == []
        assert qes.adjacency.shape == (0, 0) and qes.features.shape == (0, 2)

    def test_unknown_query(self):
        emb, index = ring_scene(4)
        with pytest.raises(UnknownImage):
            build_qes(index, emb, 77, QesParams(2, 1, 1))

    def test_rejects_a_matrix_other_than_the_index_one(self):
        # The stages read features by the index's rows, so a matrix with
        # the same ids in another row order would give wrong features.
        emb, index = ring_scene(6, dim=3, seed=4)
        for other in (EmbeddingMatrix(emb.ids[::-1], emb.vectors[::-1]),
                      EmbeddingMatrix(emb.ids, emb.vectors)):
            with pytest.raises(ValueError, match="index.emb"):
                build_qes(index, other, 0, QesParams(2, 1, 1))

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
        assert qes.nodes.tolist() == o_nodes
        assert qes.hop.tolist() == o_hops
        assert edges_of_qes(qes) == o_edges
        assert np.array_equal(qes.features, o_features)

    def test_duplicate_rows_against_oracle(self):
        # Zero noise and 4-fold symmetry: every row has three exact
        # duplicates. The oracle's distance formula differs from the
        # library's in the last bits, so on rings where a node's two
        # mirror neighbors tie only up to rounding the two orders differ
        # (n=360 with k1=100 does, on the parent code too); on this ring
        # every tie within reach is exact.
        emb = generate_scene(SceneConfig(n_images=48, symmetry_s=4, dim=32)).embeddings
        index = build_index(emb)
        for q in emb.ids:
            qes = build_qes(index, emb, q, QesParams(12, 3, 5))
            o_nodes, o_hops, o_edges, o_features = oracle_build(
                list(emb.ids), emb.vectors, q, 12, 3, 5
            )
            assert qes.nodes.tolist() == o_nodes
            assert qes.hop.tolist() == o_hops
            assert edges_of_qes(qes) == o_edges
            assert np.array_equal(qes.features, o_features)

    def test_shuffled_ids_against_oracle(self):
        # Ids 1000 + 7·perm: a stage that takes a row for an id, or sorts
        # 2-hop nodes by row instead of id, disagrees with the oracle. In
        # the second scene every row has three exact copies, so ids break
        # the ties at each cut; exact copies tie in any distance formula,
        # unlike the mirror neighbors of a zero-noise ring.
        copies = np.repeat(np.random.default_rng(8).normal(size=(12, 6)), 4, axis=0)
        for emb, params in (
            (ring_scene(40, dim=6, seed=8, shuffled=True)[0], QesParams(6, 3, 4)),
            (EmbeddingMatrix(shuffled_ids(48), copies), QesParams(12, 3, 5)),
        ):
            index = build_index(emb)
            for q in emb.ids:
                qes = build_qes(index, emb, q, params)
                o_nodes, o_hops, o_edges, o_features = oracle_build(
                    list(emb.ids), emb.vectors, q, params.k1, params.k2, params.u
                )
                assert qes.nodes.tolist() == o_nodes
                assert qes.hop.tolist() == o_hops
                assert edges_of_qes(qes) == o_edges
                assert np.array_equal(qes.features, o_features)

    def test_invariants_over_random_scenes(self):
        rng = np.random.default_rng(17)
        for trial in range(25):
            n = int(rng.integers(5, 40))
            emb, index = ring_scene(n, dim=int(rng.integers(2, 8)), seed=int(rng.integers(1e6)),
                                    shuffled=trial % 2 == 1)
            params = QesParams(
                k1=int(rng.integers(1, n)),
                k2=int(rng.integers(0, 4)),
                u=int(rng.integers(1, 6)),
            )
            q = emb.ids[int(rng.integers(n))]
            qes = build_qes(index, emb, q, params)
            assert q not in qes.nodes
            assert np.array_equal(qes.adjacency, qes.adjacency.T)
            assert not qes.adjacency.diagonal().any()
            assert sum(1 for h in qes.hop if h == 1) == min(params.k1, n - 1)
            # The builder skips the checks of `Qes(...)`; its output must pass them.
            assert Qes(q, qes.nodes, qes.hop, qes.adjacency, qes.features) == qes
            for a in (qes.nodes, qes.hop, qes.adjacency, qes.features):
                assert not a.flags.writeable
            assert type(qes.query_id) is int and not hasattr(qes, "labels")
            assert qes.nodes.dtype == np.uint64 and qes.hop.dtype.kind == "i"

    def test_ranking_around_the_query_changes_no_bit(self, monkeypatch):
        # `build_qes` ranks node rows against pools around the query. Over
        # a strided sample of a 2000-image ring, the subgraphs, the ranked
        # rows and the counts must equal those of ranking over every row.
        emb = generate_scene(SceneConfig(n_images=2000, symmetry_s=4, noise_sigma=0.05,
                                         seed=1001)).embeddings
        queries = emb.ids[7::41]

        def build():
            index = build_index(emb)
            built = [build_qes(index, emb, q, QesParams()) for q in queries]
            return index, [(g.nodes.tobytes(), g.hop.tobytes(), g.adjacency.tobytes(),
                            g.features.tobytes()) for g in built]

        pooled_index, pooled = build()
        table = knn.Index.table
        monkeypatch.setattr(knn.Index, "table", lambda self, rows, k, near=None:
                            table(self, rows, k))
        full_index, full = build()
        assert pooled == full
        counts = pooled_index.counts()
        assert counts.pooled > 0
        assert full_index.counts() == dataclasses.replace(counts, pooled=0)
        a, b = pooled_index._table, full_index._table
        assert np.array_equal(a.width, b.width)
        for r, w in enumerate(a.width.tolist()):
            assert a.pos[r, :w].tobytes() == b.pos[r, :w].tobytes()
            assert a.dist[r, :w].tobytes() == b.dist[r, :w].tobytes()

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

    @pytest.mark.parametrize("bad", [-1, 2**64])
    def test_rejects_an_id_outside_u64(self, bad):
        for query_id, nodes in ((0, [1, bad]), (bad, [1, 2])):
            with pytest.raises(InvalidRecord, match=r"\[0, 2\^64\)"):
                Qes(query_id, nodes, [1, 1], np.zeros((2, 2)), np.zeros((2, 2)))

    @pytest.mark.parametrize("query_id, nodes, hop, message", [
        (0.9, [1, 2], [1, 2], r"image id 0\.9 is not an integer"),
        (0, [1.5, 2.2], [1, 2], r"image id 1\.5 is not an integer"),
        (0, [1, 2], [1.7, 2.0], "hop tags must be 1 or 2"),
    ])
    def test_rejects_a_non_integer_instead_of_truncating(self, query_id, nodes, hop, message):
        with pytest.raises(InvalidRecord, match=message):
            Qes(query_id, nodes, hop, np.zeros((2, 2)), np.zeros((2, 2)))
        nodes = np.array([1, 2], dtype=np.uint64)
        qes = Qes(np.uint64(0), list(nodes), list(np.array([1, 2])), np.zeros((2, 2)),
                  np.zeros((2, 2)))
        assert qes.query_id == 0 and qes.nodes.tolist() == [1, 2] and qes.hop.tolist() == [1, 2]

    def test_accepts_the_largest_u64_id(self):
        top = 2**64 - 1
        qes = Qes(top - 1, [top, 0], [1, 2], np.zeros((2, 2)), np.zeros((2, 2)))
        assert qes.nodes.tolist() == [top, 0] and qes.query_id == top - 1

    def test_shuffled_copy_equals_the_permuted_build(self):
        # Built as the benchmark's equivariance check builds it: lists of
        # np.uint64 ids and of ints, adjacency and features permuted.
        emb, index = ring_scene(30, dim=5, seed=12, shuffled=True)
        qes = build_qes(index, emb, emb.ids[3], QesParams(6, 2, 3))
        perm = np.random.default_rng(12).permutation(len(qes))
        shuffled = Qes(qes.query_id, [qes.nodes[i] for i in perm], [qes.hop[i] for i in perm],
                       qes.adjacency[np.ix_(perm, perm)], qes.features[perm])
        assert shuffled.nodes.tolist() == qes.nodes[perm].tolist()
        assert shuffled.hop.tolist() == qes.hop[perm].tolist()
        assert shuffled == Qes._built(qes.query_id, qes.nodes[perm], qes.hop[perm],
                                      qes.adjacency[np.ix_(perm, perm)], qes.features[perm])
        assert shuffled.nodes.dtype == np.uint64
        for a in (shuffled.nodes, shuffled.hop, shuffled.adjacency, shuffled.features):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = a[0]
