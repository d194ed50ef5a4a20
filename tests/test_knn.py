import ast
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matchgraph as mg
from matchgraph import knn
from matchgraph.embeddings import EmbeddingMatrix
from matchgraph.errors import DegenerateVector, UnknownImage
from matchgraph.knn import build_index, query_knn
from matchgraph.synthetic import SceneConfig, generate_scene

from retrieval_oracle import brute_force_knn, row_distances


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
            exact = row_distances(index.unit, q)
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
            d = row_distances(index.unit, r)
            order = np.lexsort((index.ids, d))[:9]
            assert line == list(zip(index.ids[order].tolist(), d[order].tolist()))
            assert by_row.setdefault(r, line) == line
        for r in range(0, n, 37):
            assert by_row[r] == list(brute_force_knn(emb, emb.ids[r], 9).neighbors)


def oracle_rows(emb, rows, k):
    return [list(brute_force_knn(emb, emb.ids[r], k).neighbors) for r in rows]


def tie_at_cut_scene():
    # the query (row 0) has 15 nearer rows, then three rows at one point,
    # listed against id order, that take places 16-18: the floor's cut
    # falls inside the tie, so the id alone decides which one is 16th
    near = [[math.cos(a), math.sin(a)] for a in np.linspace(0.01, 0.15, 15)]
    tied = [[math.cos(0.2), math.sin(0.2)]] * 3
    far = [[math.cos(a), math.sin(a)] for a in np.linspace(0.3, 3.0, 12)]
    ids = [7] + list(range(200, 215)) + [90, 40, 60] + list(range(300, 312))
    return EmbeddingMatrix(ids, [[1.0, 0.0]] + near + tied + far)


class TestPerRowWidths:
    """Rows are ranked only as wide as asked, at least `_MIN_WIDTH`, and
    ranked again when asked wider; every answer equals the oracle."""

    @pytest.mark.parametrize("make", [random_scene, duplicate_scene, near_tie_scene])
    @pytest.mark.parametrize("ks", [(5, 40), (40, 5), (3, 30, 16, 17, 10, 59, 2)],
                             ids=["narrow-then-wide", "wide-then-narrow", "interleaved"])
    def test_request_orders_match_oracle(self, make, ks):
        emb = make()
        n = len(emb)
        index = build_index(emb)
        rng = np.random.default_rng(len(ks))
        for k in ks:
            rows = rng.choice(n, size=n // 2, replace=False)
            pos, dist = index.table(rows, k)
            assert table_rows(index, pos, dist) == oracle_rows(emb, rows, k)

    @pytest.mark.parametrize("first", [None, 5, 16])
    @pytest.mark.parametrize("k", [15, 16, 17, 18, 20])
    def test_one_row_rank_with_a_tie_at_the_cut(self, first, k):
        emb = tie_at_cut_scene()
        index = build_index(emb)
        if first is not None:
            index.table([0], first)
        got = index.neighbors(7, k)
        assert got == brute_force_knn(emb, 7, k)
        assert got.ids()[15:18] == (40, 60, 90)[:max(0, k - 15)]

    def test_block_of_unranked_narrow_and_wide_rows(self):
        emb = random_scene(200)
        index = build_index(emb)
        narrow, wide = list(range(0, 60)), list(range(60, 90))
        index.table(narrow, 5)
        index.table(wide, 50)
        before = index.counts()
        assert (before.rankings, before.reranks) == (90, 0)
        # repeats, the three kinds interleaved, one request
        rows = np.array(narrow[::2] + wide + list(range(90, 200)) + narrow[::3] + wide[:5])
        pos, dist = index.table(rows, 30)
        assert table_rows(index, pos, dist) == oracle_rows(emb, rows, 30)
        after = index.counts()
        assert after.rankings - before.rankings == len(set(narrow[::2] + narrow[::3])) + 110
        assert after.reranks == len(set(narrow[::2] + narrow[::3]))
        # the wide rows kept their ranking, the narrow ones gained theirs
        index.table(wide + narrow[::2], 30)
        assert index.counts().rankings == after.rankings

    def test_wider_table_keeps_ranked_rows(self):
        emb = random_scene(120)
        index = build_index(emb)
        index.table(range(120), 10)
        index.table([3], 100)  # the table grows to 100 columns
        pos, dist = index.table(range(120), 16)
        assert table_rows(index, pos, dist) == oracle_rows(emb, range(120), 16)
        assert (index.counts().rankings, index.counts().reranks) == (121, 1)


WIDTH_SCENE = EmbeddingMatrix(range(48), np.random.default_rng(31).normal(size=(48, 2)))
WIDTH_ORACLE = oracle_rows(WIDTH_SCENE, range(48), 47)

rows_st = st.lists(st.integers(0, 47), min_size=1, max_size=12)
k_st = st.integers(1, 52)
request_st = st.one_of(
    st.tuples(st.just("table"), rows_st, k_st),
    st.tuples(st.just("near"), rows_st, k_st, st.integers(0, 47)),
    st.tuples(st.just("neighbors"), st.integers(0, 47), k_st),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(request_st, min_size=1, max_size=12))
def test_a_rows_width_comes_from_its_requests_alone(requests):
    # a row ends ranked min(max(widest k asked, _MIN_WIDTH), N-1) wide, or
    # not at all if never asked, whatever order the requests came in
    emb, n = WIDTH_SCENE, len(WIDTH_SCENE)
    index = build_index(emb)
    widest = np.zeros(n, dtype=int)
    for kind, *request in requests:
        if kind == "neighbors":
            q, k = request
            got = [list(index.neighbors(q, k).neighbors)]
            rows = [q]
        else:
            rows, k = request[:2]
            got = table_rows(index, *index.table(rows, k, *request[2:]))
        take = min(k, n - 1)
        assert got == [WIDTH_ORACLE[r][:take] for r in rows]
        widest[rows] = np.maximum(widest[rows], k)
    want = np.where(widest > 0, np.minimum(np.maximum(widest, knn._MIN_WIDTH), n - 1), 0)
    table = index._table
    assert table.width.tolist() == want.tolist()
    for r in np.flatnonzero(want):
        w = want[r]
        assert table_rows(index, table.pos[[r], :w], table.dist[[r], :w]) == [WIDTH_ORACLE[r][:w]]


def many_near_ties(clusters=60):
    # `near_tie_scene` in 3-d with more clusters, so that a pool can be
    # smaller than half the rows
    rng = np.random.default_rng(22)
    centers = np.repeat(rng.normal(size=(clusters, 3)), 6, axis=0)
    return EmbeddingMatrix(range(6 * clusters),
                           centers + 1e-9 * rng.normal(size=centers.shape))


def noisy_ring():
    return generate_scene(SceneConfig(n_images=400, symmetry_s=4, dim=8, noise_sigma=0.05,
                                      seed=3)).embeddings


def pooled_table(emb, q, k1, k, extra=()):
    """Rank the k1 nearest rows of row q (and `extra`) at k around q, as
    `discover_nodes` does; the rows, the table's answer and its counts."""
    index = build_index(emb)
    rows = np.append(index.table([q], k1)[0][0], np.asarray(extra, dtype=np.intp))
    pos, dist = index.table(rows, k, near=q)
    return rows, table_rows(index, pos, dist), index.counts()


class TestPool:
    """Rows ranked around a pivot (`table(..., near=q)`) against a pool of
    the pivot's neighborhood equal the oracle row by row, and every way
    the pool falls back to the full scan does too."""

    @pytest.mark.parametrize("n, d", [(400, 3), (300, 2), (300, 4), (500, 8)])
    def test_random_scenes(self, n, d):
        rng = np.random.default_rng(n + d)
        emb = EmbeddingMatrix(rng.permutation(10**6)[:n].tolist(), rng.normal(size=(n, d)))
        pooled = 0
        for q in (0, n // 3):
            for k1, k in ((20, 5), (30, 16), (12, 40)):
                rows, got, counts = pooled_table(emb, q, k1, k)
                assert got == oracle_rows(emb, rows, k)
                pooled += counts.pooled
        # the two low-dimensional scenes rank against pools
        assert (pooled > 0) == (d < 4)

    @pytest.mark.parametrize("n", [200, 400])
    @pytest.mark.parametrize("k1", [12, 30])
    def test_zero_noise_rings_with_ties_at_the_cut(self, n, k1):
        # every point has three exact copies and its ring neighbors come in
        # fours at one distance, so the cut at 16 falls inside a tie
        emb = generate_scene(SceneConfig(n_images=n, symmetry_s=4, dim=6)).embeddings
        for q in (0, 3, n // 2 + 1):
            rows, got, counts = pooled_table(emb, q, k1, 16)
            assert counts.pooled == k1
            want = oracle_rows(emb, rows, 17)
            assert got == [line[:16] for line in want]
            assert any(line[15][1] == line[16][1] for line in want)

    def test_evenly_spaced_ring_with_shuffled_ids(self):
        # a row's two neighbors at each distance tie up to rounding, and
        # the ids, shuffled against the angles, decide between them
        n = 400
        angles = 2 * math.pi * np.arange(n) / n
        ids = (1000 + 7 * np.random.default_rng(n).permutation(n)).tolist()
        emb = EmbeddingMatrix(ids, np.column_stack([np.cos(angles), np.sin(angles)]))
        for q in (0, 133, 266):
            rows, got, counts = pooled_table(emb, q, 30, 17)
            assert counts.pooled == 30
            assert got == oracle_rows(emb, rows, 17)

    def test_near_ties_the_gemm_form_misorders(self):
        emb = many_near_ties()
        for q in (0, 100, 301):
            for k1, k in ((6, 2), (6, 5), (20, 5)):
                rows, got, counts = pooled_table(emb, q, k1, k)
                assert counts.pooled == k1
                assert got == oracle_rows(emb, rows, k)

    def test_pivot_ranked_narrower_than_the_width_falls_back(self):
        # the pivot is ranked 20 wide and the rows are asked at 30
        emb = noisy_ring()
        rows, got, counts = pooled_table(emb, 5, 20, 30)
        assert counts.pooled == 0 and counts.rankings == 21
        assert got == oracle_rows(emb, rows, 30)

    def test_rows_that_hold_the_pivot(self):
        emb = noisy_ring()
        rows, got, counts = pooled_table(emb, 5, 20, 5, extra=(5, 5))
        # the pivot is ranked already; its row is read, the others pooled
        assert counts.pooled == 20 and counts.rankings == 21
        assert got == oracle_rows(emb, rows, 5)

    @pytest.mark.parametrize("k", [150, 199])
    def test_pool_over_half_the_rows_falls_back(self, k):
        # the rows' k nearest reach past half the ring around the pivot
        emb = noisy_ring()
        index = build_index(emb)
        index.table([5], 200)
        rows = index.table([5], 20)[0][0]
        pos, dist = index.table(rows, k, near=5)
        assert index.counts().pooled == 0
        assert table_rows(index, pos, dist) == oracle_rows(emb, rows, k)

    def test_one_short_row_takes_the_row_pass(self):
        emb = random_scene(200)
        index = build_index(emb)
        rows = index.table([0], 40)[0][0]
        index.table(rows[1:], 5)
        pos, dist = index.table(rows, 5, near=0)
        assert index.counts().pooled == 0
        assert table_rows(index, pos, dist) == oracle_rows(emb, rows, 5)


def package_imports():
    """(module file, top-level name) of every absolute import in the package."""
    package = Path(mg.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 1
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                yield path.name, name.split(".")[0]


def test_no_module_imports_threads():
    # `Index` writes its neighbor table on reads and holds no lock, which
    # is safe only while nothing in the package starts a thread
    for module, name in package_imports():
        assert name not in ("threading", "concurrent"), (module, name)


def test_package_imports_only_the_standard_library_and_numpy():
    # the runtime dependency is numpy alone; scipy may be installed, but
    # nothing declares it
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    for module, name in package_imports():
        assert name in allowed, (module, name)


class TestTableCounts:
    def test_counts_on_a_small_ring(self):
        index = build_index(ring_matrix(40))
        assert index.counts() == knn.TableCounts(0, 0, 0, 0, 0)
        rows = list(range(0, 40, 2))
        index.table(rows, 5)
        index.table(rows, 10)  # the floor of 16 covers k = 10: no re-rank
        assert index.counts() == knn.TableCounts(20, 0, 40, 0, 0)
        index.table([1, 3], 30)  # new rows widen the table to 30 columns
        index.table(rows, 10)  # rows ranked before stay ranked
        assert index.counts() == knn.TableCounts(22, 0, 62, 0, 0)
        index.table([0], 30)  # asked wider than ranked: one re-rank
        index.neighbors(0, 20)
        assert index.counts() == knn.TableCounts(23, 1, 64, 0, 0)
        assert str(index.counts()) == (
            "rankings 23 reranks 1 rows_read 64 radius_table 0 radius_pass 0 pooled 0")

    def test_radius_queries_on_a_small_ring(self):
        # a fresh index answers by a pass and ranks nothing; a row ranked
        # 16 wide (the floor) reaches past tau = 0.35 on the ring, and so
        # does every row ranked over all N-1 rows
        index = build_index(ring_matrix(40))
        fresh = [index.within(r, 0.35) for r in range(40)]
        assert index.counts() == knn.TableCounts(0, 0, 0, 0, 40)
        index.table(range(0, 40, 2), 5)
        narrow = [index.within(r, 0.35) for r in range(40)]
        assert index.counts() == knn.TableCounts(20, 0, 20, 20, 60)
        index.table(range(40), 39)
        full = [index.within(r, 0.35) for r in range(40)]
        assert index.counts() == knn.TableCounts(60, 20, 60, 60, 60)
        for answers in (narrow, full):
            for (p, d), (fp, fd) in zip(answers, fresh):
                assert sorted(zip(p.tolist(), d.tolist())) == sorted(zip(fp.tolist(), fd.tolist()))

    @pytest.mark.parametrize("tau", [float("nan"), -1.0, -math.inf])
    @pytest.mark.parametrize("ranked", [False, True])
    def test_radius_outside_range_rejected(self, tau, ranked):
        index = build_index(ring_matrix(6))
        if ranked:
            index.table(range(6), 5)
        with pytest.raises(ValueError, match="tau must be a number >= 0"):
            index.within(0, tau)

    def test_floor_is_capped_at_the_population(self):
        index = build_index(ring_matrix(6))
        index.table(range(6), 2)
        assert index.counts() == knn.TableCounts(6, 0, 6, 0, 0)
        assert index.table(range(6), 99)[0].shape == (6, 5)
        assert index.counts() == knn.TableCounts(6, 0, 12, 0, 0)

    def test_frequent_reranks_leave_new_rows_at_the_floor(self):
        # each query row was ranked narrow as a neighbor of the one before,
        # so every wide request re-ranks; a new row asked narrow is still
        # ranked at the floor, and asked wider it is ranked again
        emb = random_scene(200)
        index = build_index(emb)
        index.table([0], 50)
        index.table(range(1, 12), 5)
        for q in range(1, 12):
            index.table([q], 50)
        counts = index.counts()
        assert counts.reranks == 11
        index.table([150, 151], 5)
        assert index._table.width[[150, 151]].tolist() == [16, 16]
        index.table([150, 151], 50)
        after = index.counts()
        assert (after.rankings, after.reranks) == (counts.rankings + 4, counts.reranks + 2)
        pos, dist = index.table([150, 151], 50)
        assert table_rows(index, pos, dist) == oracle_rows(emb, [150, 151], 50)


def test_public_api_resolves_and_names_no_oracle():
    assert all(hasattr(mg, name) for name in mg.__all__)
    oracles = {"brute_force_knn", "truncate_result", "distance", "l2_normalize", "row_distances"}
    assert not oracles & set(mg.__all__)
