import math

import numpy as np
import pytest

import matchgraph as mg
from matchgraph.embeddings import EmbeddingMatrix
from matchgraph.errors import DegenerateVector, UnknownImage
from matchgraph.knn import build_index, query_knn

from retrieval_oracle import brute_force_knn


def ring_matrix(n, start=0):
    angles = [i * 0.1 for i in range(n)]
    return EmbeddingMatrix(
        list(range(start, start + n)),
        [[math.cos(a), math.sin(a)] for a in angles],
    )


class TestBuildIndex:
    def test_zero_row_named(self):
        emb = EmbeddingMatrix([3, 8], [[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegenerateVector, match="8"):
            build_index(emb)

    def test_single_image_queries_empty(self):
        index = build_index(EmbeddingMatrix([4], [[1.0, 2.0]]))
        assert query_knn(index, 4, 3).neighbors == ()

    def test_orthogonal_rows_all_sqrt2(self):
        emb = EmbeddingMatrix([0, 1, 2], np.eye(3))
        index = build_index(emb)
        for q in (0, 1, 2):
            for _, d in query_knn(index, q, 2).neighbors:
                assert abs(d - math.sqrt(2)) <= 1e-12


class TestQueryKnn:
    def test_line_of_angles(self):
        # four points on the unit circle at angles 0, 0.1, 0.2, 0.3
        index = build_index(ring_matrix(4))
        result = query_knn(index, 1, 2)
        assert set(result.ids()) == {0, 2}

    def test_k_exceeding_population(self):
        index = build_index(ring_matrix(5))
        result = query_knn(index, 0, 99)
        assert result.ids() == (1, 2, 3, 4)

    def test_exact_tie_breaks_by_id(self):
        emb = EmbeddingMatrix(
            [10, 7, 5], [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]
        )
        index = build_index(emb)
        result = query_knn(index, 10, 2)
        assert result.ids() == (5, 7)

    def test_unknown_query(self):
        index = build_index(ring_matrix(3))
        with pytest.raises(UnknownImage):
            query_knn(index, 42, 1)

    def test_query_never_returned(self):
        index = build_index(ring_matrix(6))
        assert 2 not in query_knn(index, 2, 5).ids()

    def test_distances_non_decreasing(self):
        rng = np.random.default_rng(11)
        emb = EmbeddingMatrix(range(40), rng.normal(size=(40, 6)))
        index = build_index(emb)
        for q in range(0, 40, 7):
            ds = [d for _, d in query_knn(index, q, 15).neighbors]
            assert ds == sorted(ds)

    def test_memoized_neighbors_match(self):
        rng = np.random.default_rng(12)
        emb = EmbeddingMatrix(range(30), rng.normal(size=(30, 4)))
        index = build_index(emb)
        assert index.neighbors(3, 5) == query_knn(index, 3, 5)
        assert index.neighbors(3, 5) is index.neighbors(3, 5)


class TestOracleAgreement:
    def test_accelerated_equals_brute_force(self):
        # the two routes share no ranking code and must agree exactly
        rng = np.random.default_rng(99)
        emb = EmbeddingMatrix(range(200), rng.normal(size=(200, 16)))
        index = build_index(emb)
        for q in range(0, 200, 23):
            for k in (1, 5, 50, 199):
                assert query_knn(index, q, k) == brute_force_knn(emb, q, k)

    def test_many_random_scenes(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 500:
            n = int(rng.integers(3, 40))
            d = int(rng.integers(2, 10))
            ids = [int(i) for i in rng.choice(1000, size=n, replace=False)]
            emb = EmbeddingMatrix(ids, rng.normal(size=(n, d)))
            index = build_index(emb)
            for _ in range(min(10, 500 - checked)):
                q = ids[int(rng.integers(n))]
                k = int(rng.integers(1, n + 2))
                assert query_knn(index, q, k) == brute_force_knn(emb, q, k)
                checked += 1

    def test_prefix_monotonicity(self):
        rng = np.random.default_rng(8)
        emb = EmbeddingMatrix(range(60), rng.normal(size=(60, 5)))
        index = build_index(emb)
        for q in range(0, 60, 11):
            small = query_knn(index, q, 4).ids()
            big = query_knn(index, q, 20).ids()
            assert big[: len(small)] == small


def test_public_api_resolves_and_names_no_oracle():
    assert all(hasattr(mg, name) for name in mg.__all__)
    assert not {"brute_force_knn", "truncate_result"} & set(mg.__all__)
