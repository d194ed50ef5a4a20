import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import matchgraph as mg
from matchgraph.evaluation import (
    GroundTruth,
    macro_average,
    per_query_prf,
    view_graph_stats,
    write_metrics_report,
)
from matchgraph.retrieval import RetrievalResult, topk_retrieve


class TestPerQueryPrf:
    def test_two_of_three(self):
        p, r, f = per_query_prf({2, 3, 4}, {3, 4, 5})
        assert (p, r, f) == (2 / 3, 2 / 3, 2 / 3)

    def test_perfect(self):
        assert per_query_prf({1, 2}, {1, 2}) == (1.0, 1.0, 1.0)

    def test_empty_prediction_nonempty_relevant(self):
        assert per_query_prf(set(), {1}) == (0.0, 0.0, 0.0)

    def test_both_empty(self):
        assert per_query_prf(set(), set()) == (1.0, 1.0, 1.0)

    def test_nonempty_prediction_empty_relevant(self):
        p, r, f = per_query_prf({1}, set())
        assert (p, r) == (0.0, 1.0)
        assert f == 0.0

    @given(
        st.sets(st.integers(0, 30)),
        st.sets(st.integers(0, 30)),
    )
    def test_bounds_and_f_dominance(self, predicted, relevant):
        p, r, f = per_query_prf(predicted, relevant)
        assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 and 0.0 <= f <= 1.0
        assert f <= max(p, r) + 1e-12
        if predicted and relevant:
            assert (f == 0.0) == (not predicted & relevant)


class TestMacroAverage:
    def test_single_query_identity(self):
        assert macro_average([(0.3, 0.7, 0.4)]) == (0.3, 0.7, 0.4)

    def test_two_queries(self):
        assert macro_average([(1.0, 1.0, 1.0), (0.0, 0.0, 0.0)]) == (0.5, 0.5, 0.5)

    def test_mean_f_can_undercut_both_means(self):
        # per-query F averaging, not harmonic of the averages
        triples = [(1.0, 0.1, 2 * 0.1 / 1.1), (0.1, 1.0, 2 * 0.1 / 1.1)]
        p, r, f = macro_average(triples)
        assert f < min(p, r)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            macro_average([])


class TestViewGraphStats:
    def test_perfect_retrieval_no_false_positives(self):
        truth = GroundTruth.from_pairs([(1, 2), (2, 3)])
        results = [
            RetrievalResult(1, ((2, 1.0),)),
            RetrievalResult(2, ((1, 1.0), (3, 1.0))),
        ]
        stats = view_graph_stats(results, truth)
        assert stats.true_positive_pairs == 2
        assert stats.false_positive_pairs == 0
        assert stats.cross_class_false_positives is None

    def test_symmetric_scene_topk_confuses_classes(self):
        scene = mg.generate_scene(
            mg.SceneConfig(n_images=16, symmetry_s=2, overlap_angle=math.pi / 8,
                           noise_sigma=0.0, dim=8, seed=0)
        )
        index = mg.build_index(scene.embeddings)
        truth = GroundTruth.from_records(scene.overlaps.records(), 0.25, 0.15,
                                         scene.embeddings.ids)
        results = [topk_retrieve(index, q, 4) for q in scene.embeddings.ids]
        stats = view_graph_stats(results, truth, scene.classes)
        assert stats.cross_class_false_positives > 0

    def test_counts_match_set_arithmetic(self):
        rng = np.random.default_rng(13)
        ids = list(range(20))
        true_pairs = set()
        while len(true_pairs) < 30:
            a, b = rng.choice(20, size=2, replace=False)
            true_pairs.add((min(int(a), int(b)), max(int(a), int(b))))
        truth = GroundTruth.from_pairs(true_pairs, ids)
        classes = {i: int(rng.integers(0, 3)) for i in ids}
        results = []
        for q in ids[:10]:
            others = [v for v in ids if v != q]
            chosen = rng.choice(others, size=5, replace=False)
            results.append(
                RetrievalResult(q, tuple((int(v), 0.5) for v in sorted(chosen)))
            )
        stats = view_graph_stats(results, truth, classes)
        # brute-force recount
        pairs = set()
        for res in results:
            for v, _ in res.retrieved:
                pairs.add((min(res.query_id, v), max(res.query_id, v)))
        tp = {p for p in pairs if p in truth.matchable}
        fp = pairs - truth.matchable
        cross = {(a, b) for a, b in fp if classes[a] != classes[b]}
        assert stats.true_positive_pairs == len(tp)
        assert stats.false_positive_pairs == len(fp)
        assert stats.cross_class_false_positives == len(cross)


class TestGroundTruth:
    def test_from_records_thresholds(self):
        records = [
            mg.OverlapRecord(1, 2, 0.3, 0.0),
            mg.OverlapRecord(2, 3, 0.0, 0.1),
        ]
        truth = GroundTruth.from_records(records, 0.25, 0.15)
        assert truth.contains(1, 2)
        assert not truth.contains(2, 3)

    def test_from_records_equals_the_pairwise_build(self):
        rng = np.random.default_rng(12)
        ids = [0, 1, 2, 3, 4, 5, 6, 7, 2**63, 2**64 - 1]
        records = []
        for _ in range(60):
            a, b = (ids[k] for k in rng.choice(len(ids), size=2, replace=False))
            records.append(mg.OverlapRecord(a, b, *(float(x) for x in rng.random(2) * 0.5)))
        records += records[:10]  # repeats build one pair
        universe = [42, 0]
        truth = GroundTruth.from_records(records, 0.25, 0.15, universe)
        want = GroundTruth.from_pairs(
            [(r.i, r.j) for r in records if mg.label_pair(r, 0.25, 0.15)], universe)
        assert truth == want
        for q in sorted(want.universe) + [99]:
            assert truth.relevant(q) == want.relevant(q)
        empty = GroundTruth.from_records([], universe=[3])
        assert empty == GroundTruth.from_pairs([], [3]) and empty.relevant(3) == set()

    def test_from_store_columns_equals_from_records(self):
        scene = mg.generate_scene(
            mg.SceneConfig(n_images=40, symmetry_s=2, overlap_angle=math.pi / 6, seed=3))
        store = scene.overlaps
        assert not any(column.flags.writeable for column in store.columns())
        for taus in ((0.25, 0.15), (0.0, 0.0), (1.0, 1.0)):
            truth = GroundTruth.from_columns(*store.columns(), *taus)
            want = GroundTruth.from_records(store.records(), *taus)
            assert truth == want
            for q in scene.embeddings.ids:
                assert truth.relevant(q) == want.relevant(q)

    def test_relevant_set(self):
        truth = GroundTruth.from_pairs([(1, 2), (2, 5), (3, 4)])
        assert truth.relevant(2) == {1, 5}
        assert truth.relevant(9) == set()

        rng = np.random.default_rng(11)
        pairs = [tuple(int(v) for v in rng.choice(40, size=2, replace=False)) for _ in range(150)]
        truth = GroundTruth.from_pairs(pairs)
        for q in range(42):
            scan = {b for a, b in truth.matchable if a == q} | {a for a, b in truth.matchable if b == q}
            assert truth.relevant(q) == scan
        truth.relevant(3).add(99)
        assert 99 not in truth.relevant(3)


class TestMetricsReport:
    def test_report_shape(self):
        text = write_metrics_report({3: (1.0, 0.5, 2 / 3), 1: (0.0, 0.0, 0.0)})
        lines = text.strip().splitlines()
        assert lines[0] == "query_id,precision,recall,fmeasure"
        assert lines[1].startswith("1,")
        assert lines[2].startswith("3,")
        assert lines[-1].startswith("MACRO,")
        assert lines[-1] == "MACRO,0.5,0.25,0.3333333333333333"
