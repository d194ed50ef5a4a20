import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import matchgraph as mg
from matchgraph import knn
from matchgraph.embeddings import EmbeddingMatrix
from matchgraph.errors import DegenerateVector, UnknownImage
from matchgraph.knn import build_index, query_knn
from matchgraph.synthetic import SceneConfig, generate_scene

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


def random_scene(n=60):
    rng = np.random.default_rng(12)
    return EmbeddingMatrix(range(n), rng.normal(size=(n, 4)))


def duplicate_scene(n=64):
    # zero noise and 4-fold symmetry: every row has exact duplicates
    return generate_scene(SceneConfig(n_images=n, symmetry_s=4, dim=6)).embeddings


def near_tie_scene():
    # clusters of six rows about 1e-9 apart: their squared distances
    # (~1e-17) are below the rounding of the GEMM form |a|² + |b|² - 2a·b
    rng = np.random.default_rng(21)
    centers = np.repeat(rng.normal(size=(12, 8)), 6, axis=0)
    return EmbeddingMatrix(range(72), centers + 1e-9 * rng.normal(size=centers.shape))


def table_rows(index, pos, dist):
    return [list(zip(index.ids[p].tolist(), d.tolist())) for p, d in zip(pos, dist)]


class TestNeighborTable:
    @pytest.mark.parametrize("make", [random_scene, duplicate_scene])
    def test_mixed_k_order_matches_oracle(self, make):
        # each k narrower than, wider than or capped at the table in turn
        emb = make()
        n = len(emb)
        index = build_index(emb)
        for q in (0, 5, n - 1):
            for k in (5, 100, 3, n - 1, n + 1, 7):
                assert index.neighbors(q, k) == brute_force_knn(emb, q, k)

    def test_rows_and_distances_align(self):
        emb = duplicate_scene()
        index = build_index(emb)
        pos, dist = index.table([3, 3, 10], 6)
        assert pos.shape == dist.shape == (3, 6)
        for row, q in enumerate((3, 3, 10)):
            want = brute_force_knn(emb, q, 6).neighbors
            assert list(zip(index.ids[pos[row]].tolist(), dist[row].tolist())) == list(want)

    def test_k_below_one_rejected(self):
        index = build_index(random_scene())
        with pytest.raises(ValueError):
            index.neighbors(0, 0)

    @pytest.mark.parametrize("make", [random_scene, duplicate_scene, near_tie_scene])
    @pytest.mark.parametrize("k", [1, 7, "n-1"])
    def test_one_call_fills_every_row_exactly(self, make, k):
        emb = make()
        n = len(emb)
        k = n - 1 if k == "n-1" else k
        index = build_index(emb)
        pos, dist = index.table(range(n), k)
        want = [list(brute_force_knn(emb, q, k).neighbors) for q in range(n)]
        assert table_rows(index, pos, dist) == want

    def test_gemm_form_misorders_near_ties(self):
        # The scene keeps its purpose only while the GEMM form orders some
        # pair of neighbors against the difference formula: then a fill
        # that ranked by it, or cut its candidates without a margin, fails
        # the oracle comparison that follows.
        emb = near_tie_scene()
        index = build_index(emb)
        approx = index.sqnorm[:, None] + index.sqnorm - 2.0 * (index.unit @ index.unit.T)
        misordered = 0
        for q in range(len(emb)):
            exact = index.distances(q)
            near = np.argsort(exact)[:5]
            a, e = approx[q, near], exact[near]
            misordered += int(np.sum((a[:, None] > a) & (e[:, None] < e)))
        assert misordered > 0
        for k in (2, 3, 5):
            pos, dist = index.table(range(len(emb)), k)
            assert table_rows(index, pos, dist) == [
                list(brute_force_knn(emb, q, k).neighbors) for q in range(len(emb))]

    def test_rows_across_blocks_with_repeats_and_filled_rows(self):
        rng = np.random.default_rng(5)
        n = 1024
        emb = EmbeddingMatrix(rng.permutation(5000)[:n].tolist(), rng.normal(size=(n, 4)))
        index = build_index(emb)
        index.table(range(0, n, 5), 9)
        rows = np.concatenate([rng.permutation(n), rng.integers(0, n, size=300)])
        assert rows.size - n // 5 > knn._BLOCK_ENTRIES // n
        pos, dist = index.table(rows, 9)
        got = table_rows(index, pos, dist)
        # every row against a full ranking by the library's own distances
        by_row = {}
        for r, line in zip(rows.tolist(), got):
            d = index.distances(r)
            order = np.lexsort((index.ids, d))[:9]
            assert line == list(zip(index.ids[order].tolist(), d[order].tolist()))
            assert by_row.setdefault(r, line) == line
        for r in range(0, n, 37):
            assert by_row[r] == list(brute_force_knn(emb, emb.ids[r], 9).neighbors)

    def test_concurrent_widening_matches_oracle(self):
        # more threads than cores, switching often, widen and fill one table
        # through single-row and overlapping multi-row requests
        emb = random_scene(80)
        index = build_index(emb)
        jobs = [([q], k) for q in range(80) for k in (3, 40, 9, 79)]
        jobs += [(list(range(q, q + 30)), k) for q in range(0, 50, 7) for k in (3, 40, 9, 79)]
        order = np.random.default_rng(3).permutation(len(jobs))
        jobs = [jobs[i] for i in order]

        def run(job):
            rows, k = job
            if len(rows) == 1:
                return [list(index.neighbors(rows[0], k).neighbors)]
            return table_rows(index, *index.table(rows, k))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(run, jobs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        want = {(q, k): list(brute_force_knn(emb, q, k).neighbors)
                for q in range(80) for k in (3, 40, 9, 79)}
        for (rows, k), lines in zip(jobs, got):
            assert lines == [want[q, k] for q in rows]


def test_public_api_resolves_and_names_no_oracle():
    assert all(hasattr(mg, name) for name in mg.__all__)
    assert not {"brute_force_knn", "truncate_result"} & set(mg.__all__)
