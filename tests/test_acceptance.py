"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success)."""

import contextlib
import io
import math
import time

import numpy as np
import pytest

import matchgraph as mg
from matchgraph.evaluation import (
    GroundTruth,
    macro_average,
    per_query_prf,
    view_graph_stats,
)
from matchgraph.gcn import (
    aggregation_matrix,
    backward,
    init_model,
    load_model,
    masked_loss,
    model_forward,
    save_model,
)
from matchgraph.retrieval import (
    read_pair_file,
    write_pair_file,
)
from matchgraph.subgraph import Qes, QesParams
from matchgraph.trainer import (
    OverlapRecord,
    OverlapStore,
    TrainConfig,
    load_overlaps,
    save_overlaps,
)

from gcn_oracle import finite_difference_gradients, max_relative_error
from qes_oracle import edges_of_qes, oracle_build
from retrieval_oracle import truncate_result


@contextlib.contextmanager
def criterion(number, name):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL ({time.time() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS ({time.time() - start:.1f}s)")


def random_qes(rng, n, d):
    a = (rng.random((n, n)) < 0.3).astype(float)
    a = np.triu(a, 1)
    a = a + a.T
    hop = [1] * max(1, n // 2) + [2] * (n - max(1, n // 2))
    return Qes(10**6, list(range(n)), hop, a, rng.normal(size=(n, d)))


@pytest.fixture(scope="module")
def ambiguous_scene():
    config = mg.SceneConfig(
        n_images=360, symmetry_s=4, overlap_angle=math.pi / 12,
        noise_sigma=0.05, dim=32, seed=42,
    )
    scene = mg.generate_scene(config)
    index = mg.build_index(scene.embeddings)
    truth = GroundTruth.from_records(
        scene.overlaps.records(), 0.25, 0.15, scene.embeddings.ids
    )
    return scene, index, truth


def test_criterion_1_gradient_oracle():
    with criterion(1, "gradient-oracle"):
        start = time.time()
        rng = np.random.default_rng(2024)
        for trial in range(20):
            n = int(rng.integers(5, 31))
            d = int(rng.choice([8, 32]))
            qes = random_qes(rng, n, d)
            labels = rng.random(n) < 0.5
            model = init_model(d, conv_widths=(10, 8, 6, 6), fc_widths=(4,), seed=trial)
            analytic = backward([qes], model, [labels]).grads
            numeric = finite_difference_gradients(qes, model, labels, step=1e-6)
            worst = max_relative_error(analytic, numeric)
            assert worst <= 1e-5, f"trial {trial}: relative error {worst}"
        assert time.time() - start < 60.0


def test_criterion_2_qes_oracle_equivalence():
    with criterion(2, "qes-oracle-equivalence"):
        start = time.time()
        rng = np.random.default_rng(77)
        for trial in range(200):
            n = int(rng.integers(20, 201))
            d = int(rng.integers(4, 10))
            ids = [int(i) for i in rng.choice(5000, size=n, replace=False)]
            emb = mg.EmbeddingMatrix(ids, rng.normal(size=(n, d)))
            index = mg.build_index(emb)
            k1 = int(rng.integers(1, 16))
            k2 = int(rng.integers(0, 7))
            u = int(rng.integers(1, 9))
            q = ids[int(rng.integers(n))]
            qes = mg.build_qes(index, emb, q, QesParams(k1, k2, u))
            o_nodes, o_hops, o_edges, o_features = oracle_build(
                ids, emb.vectors, q, k1, k2, u
            )
            assert qes.nodes == tuple(o_nodes)
            assert qes.hop == tuple(o_hops)
            assert edges_of_qes(qes) == o_edges
            assert np.array_equal(qes.features, o_features)
        assert time.time() - start < 60.0


def test_criterion_3_aggregation_matrix_properties():
    with criterion(3, "aggregation-matrix-properties"):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            a = (rng.random((n, n)) < rng.uniform(0.05, 0.6)).astype(float)
            a = np.triu(a, 1)
            a = a + a.T
            g = aggregation_matrix(a)
            assert np.max(np.abs(g - g.T)) <= 1e-12
            isolated = a.sum(axis=1) == 0
            assert not g[isolated].any()
            assert not g[:, isolated].any()
            eigenvalues = np.linalg.eigvalsh(g)
            assert eigenvalues.min() >= -1.0 - 1e-9
            assert eigenvalues.max() <= 1.0 + 1e-9


def test_criterion_4_permutation_equivariance():
    with criterion(4, "permutation-equivariance"):
        rng = np.random.default_rng(6)
        for trial in range(50):
            n = int(rng.integers(3, 16))
            d = int(rng.integers(2, 9))
            qes = random_qes(rng, n, d)
            model = init_model(d, conv_widths=(6, 5, 4, 4), fc_widths=(3,), seed=trial)
            base = model_forward(qes, model)
            perm = rng.permutation(n)
            permuted = Qes(
                qes.query_id,
                [qes.nodes[i] for i in perm],
                [qes.hop[i] for i in perm],
                qes.adjacency[np.ix_(perm, perm)],
                qes.features[perm],
            )
            assert np.max(np.abs(model_forward(permuted, model) - base[perm])) <= 1e-9


def test_criterion_5_ambiguity_resolution(ambiguous_scene):
    with criterion(5, "ambiguity-resolution"):
        start = time.time()
        scene, index, truth = ambiguous_scene
        emb = scene.embeddings

        best_f, best_results = -1.0, None
        for k in (5, 10, 15, 20, 30):
            results = [mg.topk_retrieve(index, q, k) for q in emb.ids]
            f = macro_average(
                [per_query_prf(r.ids(), truth.relevant(r.query_id)) for r in results]
            )[2]
            if f > best_f:
                best_f, best_results = f, results
        baseline_stats = view_graph_stats(best_results, truth, scene.classes)

        config = TrainConfig(
            tau_mo=0.25, tau_ct=0.15, qes_params=QesParams(k1=100, k2=5, u=10),
            learning_rate=1e-2, epochs=140, batch_size=8, beta2=0.99, seed=42,
        )
        model, _ = mg.train(
            emb, scene.overlaps, list(emb.ids), config,
            conv_widths=(128, 128, 64, 64), fc_widths=(32,),
        )
        results = [
            mg.gcn_retrieve(model, index, emb, q, config.qes_params) for q in emb.ids
        ]
        _, _, f_gcn = macro_average(
            [per_query_prf(r.ids(), truth.relevant(r.query_id)) for r in results]
        )
        gcn_stats = view_graph_stats(results, truth, scene.classes)
        elapsed = time.time() - start
        print(
            f"  [criterion 5] gcn F={f_gcn:.4f} vs best topk F={best_f:.4f}; "
            f"cross-class FP {gcn_stats.cross_class_false_positives} vs "
            f"{baseline_stats.cross_class_false_positives}; {elapsed:.0f}s"
        )
        assert f_gcn >= best_f + 0.10
        assert (
            gcn_stats.cross_class_false_positives
            <= 0.5 * baseline_stats.cross_class_false_positives
        )


def test_criterion_6_k_independence(ambiguous_scene):
    with criterion(6, "k-independence"):
        scene, index, truth = ambiguous_scene
        emb = scene.embeddings
        params = QesParams(k1=20, k2=5, u=10)
        model = init_model(32, conv_widths=(32, 32, 16, 16), fc_widths=(8,), seed=3)
        # push the logit bias up so the classifier retrieves non-trivial sets
        model_params = model.parameters()
        model_params[-1] = model_params[-1] + 0.4
        model.set_parameters(model_params)

        gcn_results = [
            mg.gcn_retrieve(model, index, emb, q, params) for q in emb.ids
        ]
        assert any(len(r) > 0 for r in gcn_results)

        def evaluate_at(results, k):
            return macro_average(
                [
                    per_query_prf(truncate_result(r, k).ids(), truth.relevant(r.query_id))
                    for r in results
                ]
            )

        # the classifier's sets are what they are: every evaluation-k reads
        # the same numbers off them
        assert evaluate_at(gcn_results, 25) == evaluate_at(gcn_results, 100)

        topk_25 = [mg.topk_retrieve(index, q, 25) for q in emb.ids]
        topk_100 = [mg.topk_retrieve(index, q, 100) for q in emb.ids]
        metrics_25 = macro_average(
            [per_query_prf(r.ids(), truth.relevant(r.query_id)) for r in topk_25]
        )
        metrics_100 = macro_average(
            [per_query_prf(r.ids(), truth.relevant(r.query_id)) for r in topk_100]
        )
        assert metrics_25 != metrics_100


def test_criterion_7_substitute_checks(tmp_path):
    with criterion(7, "substitute-checks"):
        # metric conventions
        assert per_query_prf({2, 3, 4}, {3, 4, 5}) == (2 / 3, 2 / 3, 2 / 3)
        assert per_query_prf(set(), set()) == (1.0, 1.0, 1.0)
        assert per_query_prf(set(), {1}) == (0.0, 0.0, 0.0)
        assert per_query_prf({1}, set()) == (0.0, 1.0, 0.0)
        # closed-form loss value
        assert abs(masked_loss([0.5], [True], [1]) - math.log(2.0)) <= 1e-12
        # determinism: same seed, same bytes, twice over
        scene = mg.generate_scene(
            mg.SceneConfig(n_images=20, symmetry_s=2, overlap_angle=math.pi / 6,
                           noise_sigma=0.05, dim=8, seed=11)
        )
        config = TrainConfig(qes_params=QesParams(5, 2, 3), epochs=3,
                             batch_size=4, seed=13)
        artifacts = []
        for _ in range(2):
            model, _ = mg.train(
                scene.embeddings, scene.overlaps, list(scene.embeddings.ids),
                config, conv_widths=(8, 8, 6, 6), fc_widths=(4,),
            )
            index = mg.build_index(scene.embeddings)
            results = [
                mg.gcn_retrieve(model, index, scene.embeddings, q, config.qes_params)
                for q in scene.embeddings.ids
            ]
            sink = io.StringIO()
            mg.export_pairs(results, sink)
            artifacts.append((save_model(model), sink.getvalue()))
        assert artifacts[0] == artifacts[1]


def test_criterion_8_file_format_round_trips():
    with criterion(8, "file-format-round-trips"):
        rng = np.random.default_rng(21)
        # embeddings: binary bytes -> load -> save
        for _ in range(50):
            n, d = int(rng.integers(1, 15)), int(rng.integers(1, 10))
            ids = [int(i) for i in rng.choice(10**6, size=n, replace=False)]
            vectors = rng.normal(size=(n, d)).astype(np.float32).astype(np.float64)
            emb = mg.EmbeddingMatrix(ids, vectors)
            data = mg.save_embeddings(emb)
            assert mg.save_embeddings(mg.load_embeddings(data)) == data
        # checkpoints
        for trial in range(50):
            widths = tuple(int(w) for w in rng.integers(2, 9, size=4))
            model = init_model(
                int(rng.integers(2, 7)), conv_widths=widths,
                fc_widths=(int(rng.integers(2, 6)),), seed=trial,
            )
            data = save_model(model)
            assert save_model(load_model(data)) == data
        # pair files
        for _ in range(50):
            pairs = {}
            for _ in range(int(rng.integers(0, 30))):
                a, b = sorted(int(x) for x in rng.choice(60, size=2, replace=False))
                pairs[(a, b)] = float(np.float32(rng.random()))
            pair_list = [(a, b, s) for (a, b), s in sorted(pairs.items())]
            sink = io.StringIO()
            write_pair_file(pair_list, sink)
            assert read_pair_file(sink.getvalue()) == pair_list
        # overlap records
        for _ in range(50):
            records = {}
            for _ in range(int(rng.integers(0, 40))):
                i, j = (int(x) for x in rng.choice(80, size=2, replace=False))
                mo, ct = (float(np.float32(x)) for x in rng.random(2))
                records.setdefault((min(i, j), max(i, j)), OverlapRecord(i, j, mo, ct))
            store = OverlapStore(records.values())
            assert load_overlaps(save_overlaps(store)) == store
