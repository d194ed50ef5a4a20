import math
from pathlib import Path

import numpy as np
import pytest

import matchgraph as mg
from matchgraph.errors import (
    DimensionError,
    EmptyLossSet,
    InvalidAdjacency,
    MalformedHeader,
    ShapeCorruption,
    TruncatedPayload,
    VersionMismatch,
)
from matchgraph.gcn import (
    DenseLayer,
    GcnLayer,
    GcnModel,
    aggregation_matrix,
    backward,
    init_model,
    load_model,
    masked_loss,
    model_forward,
    save_model,
)
from matchgraph.subgraph import Qes, QesParams
from matchgraph.trainer import TrainConfig, build_training_set

from gcn_oracle import (
    finite_difference_gradients,
    max_relative_error,
    oracle_forward,
)


def random_graph(rng, n):
    """Random symmetric 0/1 adjacency with zero diagonal."""
    a = (rng.random((n, n)) < 0.3).astype(float)
    a = np.triu(a, 1)
    return a + a.T


def random_qes(rng, n, d, with_labels=False):
    hop = [1] * max(1, n // 2) + [2] * (n - max(1, n // 2))
    labels = rng.random(n) < 0.5 if with_labels else None
    return Qes(
        query_id=10_000,
        nodes=list(range(n)),
        hop=hop,
        adjacency=random_graph(rng, n),
        features=rng.normal(size=(n, d)),
        labels=labels,
    )


GOLDEN_FEATURES = 3.0 * np.array(
    [
        [0.25, -1.0, 0.5, 2.0],
        [-0.75, 0.3, 1.1, -0.2],
        [1.5, 0.0, -0.6, 0.4],
        [0.1, 0.9, 0.2, -1.3],
        [-0.4, -0.5, 0.8, 0.6],
        [2.2, 1.4, -0.1, 0.0],
    ]
)
GOLDEN_ADJACENCY = np.array(
    [
        [0, 1, 0, 0, 1, 0],
        [1, 0, 1, 0, 0, 0],
        [0, 1, 0, 1, 0, 0],
        [0, 0, 1, 0, 1, 1],
        [1, 0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0, 0],
    ],
    dtype=float,
)
# computed once by the pure-python reference in gcn_oracle.oracle_forward
GOLDEN_PROBS = [
    0.4248594098924366,
    0.5014642165504625,
    0.5030713696029886,
    0.4528634717430036,
    0.4409148039098588,
    0.44010769511689873,
]


def golden_qes():
    return Qes(99, [0, 1, 2, 3, 4, 5], [1, 1, 1, 2, 2, 2],
               GOLDEN_ADJACENCY, GOLDEN_FEATURES)


class TestAggregationMatrix:
    def test_three_node_path(self):
        a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        r = 1.0 / math.sqrt(2)
        expected = np.array([[0, r, 0], [r, 0, r], [0, r, 0]])
        assert np.allclose(aggregation_matrix(a), expected, atol=1e-15)

    def test_zero_matrix(self):
        assert np.array_equal(aggregation_matrix(np.zeros((4, 4))), np.zeros((4, 4)))

    def test_complete_graph(self):
        n = 5
        a = np.ones((n, n)) - np.eye(n)
        assert np.allclose(aggregation_matrix(a), a / (n - 1), atol=1e-15)

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidAdjacency):
            aggregation_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_nonbinary_rejected(self):
        with pytest.raises(InvalidAdjacency):
            aggregation_matrix(np.array([[0.0, 2.0], [2.0, 0.0]]))

    def test_degree_zero_rows_zero(self):
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = 1.0
        g = aggregation_matrix(a)
        assert not g[2].any() and not g[:, 2].any()

    def test_symmetry_and_spectrum_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = random_graph(rng, int(rng.integers(2, 25)))
            g = aggregation_matrix(a)
            assert np.max(np.abs(g - g.T)) <= 1e-12
            eig = np.linalg.eigvalsh(g)
            assert eig.min() >= -1.0 - 1e-9
            assert eig.max() <= 1.0 + 1e-9


class TestModelForward:
    def test_zero_weights_give_half(self):
        qes = golden_qes()
        model = init_model(4, conv_widths=(3, 3, 3, 3), fc_widths=(2,), seed=0)
        model.set_parameters([np.zeros_like(p) for p in model.parameters()])
        assert np.array_equal(model_forward(qes, model), np.full(6, 0.5))

    def test_golden_vector(self):
        model = init_model(4, conv_widths=(8, 8, 6, 6), fc_widths=(3,), seed=42)
        probs = model_forward(golden_qes(), model)
        assert np.allclose(probs, GOLDEN_PROBS, atol=1e-12)

    def test_matches_live_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            n, d = int(rng.integers(2, 9)), int(rng.integers(2, 6))
            qes = random_qes(rng, n, d)
            model = init_model(d, conv_widths=(5, 4, 4, 3), fc_widths=(3,), seed=trial)
            expected = oracle_forward(qes.features.tolist(), qes.adjacency.tolist(), model)
            assert np.allclose(model_forward(qes, model), expected, atol=1e-12)

    def test_outputs_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            qes = random_qes(rng, int(rng.integers(2, 12)), 5)
            model = init_model(5, conv_widths=(6, 6, 4, 4), fc_widths=(3,), seed=trial)
            probs = model_forward(qes, model)
            assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_dimension_mismatch(self):
        qes = golden_qes()
        model = init_model(7, conv_widths=(4, 4, 4, 4), fc_widths=(2,), seed=0)
        with pytest.raises(DimensionError):
            model_forward(qes, model)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        for trial in range(50):
            n, d = int(rng.integers(3, 14)), int(rng.integers(2, 7))
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
            assert np.allclose(model_forward(permuted, model), base[perm], atol=1e-9)

    def test_isolated_node_sees_only_itself(self):
        rng = np.random.default_rng(6)
        adjacency = random_graph(rng, 5)
        adjacency[4, :] = 0.0
        adjacency[:, 4] = 0.0
        features = rng.normal(size=(5, 3))
        qes = Qes(50, [0, 1, 2, 3, 4], [1, 1, 1, 1, 2], adjacency, features)
        model = init_model(3, conv_widths=(5, 4, 4, 3), fc_widths=(2,), seed=9)
        full = model_forward(qes, model)
        solo = Qes(50, [4], [1], np.zeros((1, 1)), features[4:5])
        assert abs(model_forward(solo, model)[0] - full[4]) <= 1e-12


class TestMaskedLoss:
    def test_single_node_half_probability(self):
        loss = masked_loss([0.5], [True], [1])
        assert abs(loss - math.log(2.0)) <= 1e-12

    def test_perfect_predictions_vanish(self):
        loss = masked_loss([1.0, 0.0], [True, False], [1, 1])
        assert loss <= 1e-6

    def test_two_node_arithmetic(self):
        loss = masked_loss([0.8, 0.3], [True, False], [1, 1])
        expected = (-math.log(0.8) - math.log(0.7)) / 2.0
        assert abs(loss - expected) <= 1e-12
        assert abs(loss - 0.28991) <= 1e-5

    def test_second_hop_ignored(self):
        base = masked_loss([0.8, 0.9], [True, True], [1, 2])
        flipped = masked_loss([0.8, 0.9], [True, False], [1, 2])
        assert base == flipped == masked_loss([0.8, 0.123], [True, False], [1, 2])

    def test_no_first_hop_nodes(self):
        with pytest.raises(EmptyLossSet):
            masked_loss([0.4], [True], [2])


class TestBackward:
    def test_gradient_vanishes_at_saturated_fit(self):
        rng = np.random.default_rng(7)
        qes = random_qes(rng, 6, 4)
        model = init_model(4, conv_widths=(4, 4, 3, 3), fc_widths=(2,), seed=0)
        # saturate the final bias so every probability clamps at 1
        params = model.parameters()
        params[-1] = np.array([60.0])
        model.set_parameters(params)
        grads = backward([qes], model, [[True] * 6])
        total = sum(float(np.sum(g * g)) for g in grads.grads)
        assert math.sqrt(total) <= 1e-6

    def test_final_bias_gradient_closed_form(self):
        rng = np.random.default_rng(8)
        qes = random_qes(rng, 7, 3)
        labels = rng.random(7) < 0.5
        model = init_model(3, conv_widths=(5, 4, 4, 3), fc_widths=(2,), seed=3)
        probs = model_forward(qes, model)
        grads = backward([qes], model, [labels])
        mask = qes.hop_mask(1)
        expected = np.mean(probs[mask] - labels[mask].astype(float))
        assert abs(grads.grads[-1][0] - expected) <= 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        for trial in range(3):
            n, d = int(rng.integers(5, 10)), int(rng.integers(2, 5))
            qes = random_qes(rng, n, d)
            labels = rng.random(n) < 0.5
            model = init_model(d, conv_widths=(4, 4, 3, 3), fc_widths=(2,), seed=trial)
            analytic = backward([qes], model, [labels]).grads
            numeric = finite_difference_gradients(qes, model, labels)
            assert max_relative_error(analytic, numeric) <= 1e-5

    def test_loss_field_matches_masked_loss(self):
        rng = np.random.default_rng(10)
        qes = random_qes(rng, 6, 3)
        labels = [True, False, True, False, True, False]
        model = init_model(3, conv_widths=(4, 4, 3, 3), fc_widths=(2,), seed=1)
        grads = backward([qes], model, [labels])
        probs = model_forward(qes, model)
        assert np.array_equal(grads.probs[0], probs)
        assert grads.losses[0] == masked_loss(probs, labels, qes.hop)


def isolated_qes(rng, n, d, isolated):
    """A random subgraph whose first `isolated` nodes have degree 0."""
    qes = random_qes(rng, n, d)
    a = qes.adjacency.copy()
    a[:isolated] = 0.0
    a[:, :isolated] = 0.0
    return Qes(qes.query_id, qes.nodes, qes.hop, a, qes.features)


def relative_to_largest(got, want):
    """Worst over arrays of max |got - want| / max |want|."""
    return max(float(np.max(np.abs(g - w)) / np.max(np.abs(w))) for g, w in zip(got, want))


def mixed_batches(rng, d):
    """Batches of one to eight subgraphs of mixed sizes, among them a
    1-node subgraph and subgraphs with degree-0 nodes."""
    one_node = Qes(10_000, [0], [1], np.zeros((1, 1)), rng.normal(size=(1, d)))
    sized = [random_qes(rng, int(n), d) for n in rng.integers(2, 30, size=10)]
    return [
        [sized[0]],
        [one_node],
        [isolated_qes(rng, 12, d, 3)],
        [sized[1], one_node, sized[2]],
        [sized[3], isolated_qes(rng, 9, d, 9), *sized[4:8], one_node, isolated_qes(rng, 20, d, 1)],
        sized[8:],
    ]


class TestBatchBackward:
    def test_stacked_float64_equals_mean_of_single_subgraphs(self):
        rng = np.random.default_rng(15)
        model = init_model(5, conv_widths=(8, 8, 6, 6), fc_widths=(4,), seed=4)
        for batch in mixed_batches(rng, 5):
            labels = [rng.random(len(q)) < 0.5 for q in batch]
            singles = [backward([q], model, [y]) for q, y in zip(batch, labels)]
            stacked = backward(batch, model, labels)
            mean = [sum(arrays[1:], arrays[0].copy()) / len(batch)
                    for arrays in zip(*(g.grads for g in singles))]
            assert relative_to_largest(stacked.grads, mean) <= 1e-12
            for single, loss, probs in zip(singles, stacked.losses, stacked.probs):
                assert abs(single.losses[0] - loss) <= 1e-12
                assert np.max(np.abs(single.probs[0] - probs)) <= 1e-12

    def test_float32_within_1e_4_of_float64(self):
        rng = np.random.default_rng(16)
        model = init_model(8, conv_widths=(32, 32, 16, 16), fc_widths=(8,), seed=5)
        for batch in mixed_batches(rng, 8):
            labels = [rng.random(len(q)) < 0.5 for q in batch]
            low = backward(batch, model, labels, np.float32)
            assert all(g.dtype == np.float64 for g in low.grads)
            assert relative_to_largest(low.grads, backward(batch, model, labels).grads) <= 1e-4

    def test_float32_probabilities_on_criterion_5_subgraphs(self):
        # The criterion-5 scene, its subgraphs, and the model trained on it
        # in float64 by bench/make_reference_model.py. Measured: at most
        # 5.0e-5 from the float64 forward (2.1e-7 after 10 float32 epochs).
        scene = mg.generate_scene(mg.SceneConfig(
            n_images=360, symmetry_s=4, overlap_angle=math.pi / 12,
            noise_sigma=0.05, dim=32, seed=42,
        ))
        config = TrainConfig(tau_mo=0.25, tau_ct=0.15, qes_params=QesParams(100, 5, 10))
        subgraphs = build_training_set(
            scene.embeddings, scene.overlaps, list(scene.embeddings.ids), config)
        ckpt = Path(__file__).resolve().parents[1] / "bench" / "reference_model.ckpt"
        model = load_model(ckpt.read_bytes())
        worst = 0.0
        for start in range(0, len(subgraphs), 8):
            batch = subgraphs[start : start + 8]
            low = backward(batch, model, [q.labels for q in batch], np.float32)
            for qes, probs in zip(batch, low.probs):
                worst = max(worst, float(np.max(np.abs(probs - model_forward(qes, model)))))
        assert worst <= 1e-4

    def test_one_label_array_per_subgraph(self):
        rng = np.random.default_rng(17)
        qes = random_qes(rng, 5, 3)
        model = init_model(3, conv_widths=(4, 4, 3, 3), fc_widths=(2,), seed=0)
        with pytest.raises(DimensionError):
            backward([qes, qes], model, [[True] * 5])


class TestCheckpoints:
    def test_round_trip_identity(self):
        model = init_model(6, conv_widths=(8, 8, 6, 6), fc_widths=(4,), seed=11)
        clone = load_model(save_model(model))
        for a, b in zip(model.parameters(), clone.parameters()):
            assert np.array_equal(a, b)

    def test_forward_outputs_survive_round_trip(self):
        rng = np.random.default_rng(12)
        w = np.random.default_rng(14).normal
        built = GcnModel(
            [GcnLayer(w(size=(8, 5))), GcnLayer(w(size=(10, 5))),
             GcnLayer(w(size=(10, 4))), GcnLayer(w(size=(8, 4)))],
            [DenseLayer(w(size=(4, 3)), w(size=3)), DenseLayer(w(size=(3, 1)), w(size=1))],
        )
        for model in (init_model(4, conv_widths=(5, 5, 4, 4), fc_widths=(3,), seed=13), built):
            clone = load_model(save_model(model))
            for _ in range(10):
                qes = random_qes(rng, int(rng.integers(2, 9)), 4)
                probs = model_forward(qes, model)
                expected = oracle_forward(qes.features.tolist(), qes.adjacency.tolist(), model)
                assert np.allclose(probs, expected, atol=1e-12)
                assert np.array_equal(probs, model_forward(qes, clone))

    def test_truncated_stream(self):
        data = save_model(init_model(3, conv_widths=(4, 4, 3, 3), fc_widths=(2,), seed=0))
        with pytest.raises(TruncatedPayload):
            load_model(data[:-5])

    def test_bad_magic(self):
        with pytest.raises(MalformedHeader):
            load_model(b"NOPE" + b"\x00" * 40)

    def test_version_mismatch(self):
        data = bytearray(save_model(init_model(3, conv_widths=(4, 4, 3, 3), fc_widths=(2,), seed=0)))
        data[4:8] = (77).to_bytes(4, "little")
        with pytest.raises(VersionMismatch):
            load_model(bytes(data))

    def test_shape_corruption(self):
        model = init_model(3, conv_widths=(4, 4, 3, 3), fc_widths=(2,), seed=0)
        data = bytearray(save_model(model))
        # lie about the first layer's column count while keeping length valid
        data[13:17] = (5).to_bytes(4, "little")
        with pytest.raises((ShapeCorruption, TruncatedPayload)):
            load_model(bytes(data))


class TestModelValidation:
    def test_requires_four_conv_layers(self):
        layers = [GcnLayer(np.ones((4, 2))) for _ in range(3)]
        with pytest.raises(DimensionError):
            GcnModel(layers, [DenseLayer(np.ones((2, 1)), np.zeros(1))])

    def test_final_width_must_be_one(self):
        convs = [GcnLayer(np.ones((4, 2))) for _ in range(4)]
        with pytest.raises(DimensionError):
            GcnModel(convs, [DenseLayer(np.ones((2, 3)), np.zeros(3))])

    def test_default_widths(self):
        model = init_model(32)
        assert [l.weights.shape for l in model.conv_layers] == [
            (64, 256), (512, 256), (512, 128), (256, 128)
        ]
        assert [l.weights.shape for l in model.fc_layers] == [(128, 64), (64, 1)]

    @pytest.mark.parametrize("position", [0, -1])
    def test_set_parameters_rejects_non_finite_and_keeps_model(self, position):
        model = init_model(3, conv_widths=(4, 4, 3, 3), fc_widths=(2,), seed=0)
        before = save_model(model)
        params = [p + 1.0 for p in model.parameters()]
        params[position] = np.full_like(params[position], np.nan)
        with pytest.raises(DimensionError, match="finite"):
            model.set_parameters(params)
        assert save_model(model) == before
