import math
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import matchgraph as mg
from matchgraph import gcn, retrieval
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
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    GcnModel,
    Layer,
    aggregation_matrix,
    backward,
    init_model,
    load_model,
    model_forward,
    prepare,
    save_model,
)
from matchgraph.retrieval import gcn_retrieve
from matchgraph.subgraph import Qes, QesParams, build_qes
from matchgraph.trainer import TrainConfig, train

from gcn_oracle import (
    finite_difference_gradients,
    labeled_subgraphs,
    masked_loss,
    max_relative_error,
    oracle_forward,
)


def random_graph(rng, n):
    """Random symmetric 0/1 adjacency with zero diagonal."""
    a = (rng.random((n, n)) < 0.3).astype(float)
    a = np.triu(a, 1)
    return a + a.T


def random_qes(rng, n, d):
    hop = [1] * max(1, n // 2) + [2] * (n - max(1, n // 2))
    return Qes(
        query_id=10_000,
        nodes=list(range(n)),
        hop=hop,
        adjacency=random_graph(rng, n),
        features=rng.normal(size=(n, d)),
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


def isolated_qes():
    """Seven nodes, two of them (2 and 5) with no edges."""
    rng = np.random.default_rng(8)
    adjacency = random_graph(rng, 7)
    adjacency[[2, 5], :] = 0.0
    adjacency[:, [2, 5]] = 0.0
    return Qes(70, range(7), [1, 1, 1, 1, 2, 2, 2], adjacency, rng.normal(size=(7, 4)))


# Subgraphs on which inference must give the training forward's bits.
FORWARD_CASES = {
    "empty": lambda: Qes(1, [], [], np.zeros((0, 0)), np.zeros((0, 4))),
    "one node": lambda: Qes(1, [0], [1], np.zeros((1, 1)), [[0.5, -1.0, 2.0, 0.25]]),
    "isolated nodes": isolated_qes,
    "over _MAX_INNER nodes": lambda: random_qes(np.random.default_rng(9), gcn._MAX_INNER + 44, 4),
}


class TestModelForward:
    @pytest.mark.parametrize("make", list(FORWARD_CASES.values()), ids=list(FORWARD_CASES))
    def test_equals_training_forward_bit_for_bit(self, make):
        qes = make()
        model = init_model(4, conv_widths=(8, 8, 6, 6), fc_widths=(5, 3), seed=1)
        prepared = gcn.prepare(qes, np.zeros(len(qes), dtype=bool))
        want = gcn._forward_batch([prepared], model, gcn.Workspace(model, len(qes)))[0]
        got = model_forward(qes, model)
        assert got.dtype == want.dtype and got.shape == (len(qes),)
        assert got.tobytes() == want.tobytes()

    def test_inference_never_runs_the_training_forward(self, monkeypatch):
        emb = mg.EmbeddingMatrix(range(20), np.random.default_rng(10).normal(size=(20, 4)))
        index = mg.build_index(emb)
        model = init_model(4, conv_widths=(6, 6, 4, 4), fc_widths=(3,), seed=2)
        params = QesParams(4, 2, 3)
        qes = build_qes(index, emb, 0, params)
        probs = model_forward(qes, model)
        result = gcn_retrieve(model, index, emb, 0, params, prob_threshold=0.0)

        def refuse(*args, **kwargs):
            raise AssertionError("training forward ran")

        monkeypatch.setattr(gcn, "_forward_batch", refuse)
        with pytest.raises(AssertionError, match="training forward"):
            backward([prepare(qes, np.zeros(len(qes), dtype=bool))], model)
        assert np.array_equal(model_forward(qes, model), probs)
        assert gcn_retrieve(model, index, emb, 0, params, prob_threshold=0.0) == result
        assert result.retrieved

    def test_zero_weights_give_half(self):
        qes = golden_qes()
        model = init_model(4, conv_widths=(3, 3, 3, 3), fc_widths=(2,), seed=0)
        model.set_parameters([np.zeros_like(p) for p in model.parameters()])
        assert np.array_equal(model_forward(qes, model), np.full(6, 0.5))

    def test_empty_subgraph_gives_no_probabilities(self):
        emb = mg.EmbeddingMatrix([5], [[1.0, 0.5, 0.0, 0.0]])
        qes = build_qes(mg.build_index(emb), emb, 5, QesParams(3, 2, 2))
        model = init_model(4, conv_widths=(3, 3, 3, 3), fc_widths=(2,), seed=0)
        assert len(qes) == 0 and model_forward(qes, model).shape == (0,)

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


def full_width_forward(qes, model):
    """The training forward in float64 over one subgraph: every column of
    every layer, whether or not it is zero on every node."""
    prepared = gcn.prepare(qes, np.zeros(len(qes), dtype=bool))
    return gcn._forward_batch([prepared], model, gcn.Workspace(model, len(qes)))[0]


def plant_dead_units(model, layer, units):
    """Make `units` of a convolution after the first dead on every node:
    its input is a relu output, nonnegative, so nonpositive weights keep
    those units' relu inputs at or below zero."""
    w = model.layers[layer].weights
    w[:, units] = -np.abs(w[:, units])


def relu_outputs(qes, model):
    """Each hidden layer's relu output over one subgraph, in float64."""
    g = aggregation_matrix(qes.adjacency)
    h, outputs = qes.features, []
    for layer in model.layers[:-1]:
        if layer.bias is None:
            h = np.hstack([h, g @ h]) @ layer.weights
        else:
            h = h @ layer.weights + layer.bias
        h = np.maximum(h, 0.0)
        outputs.append(h)
    return outputs


def aggregated_widths(monkeypatch):
    """The column count of every H that `_aggregate` takes, in call order."""
    widths = []
    aggregate = gcn._aggregate

    def spy(h, *args, **kwargs):
        widths.append(h.shape[1])
        return aggregate(h, *args, **kwargs)

    monkeypatch.setattr(gcn, "_aggregate", spy)
    return widths


class TestLiveColumns:
    @pytest.mark.parametrize("n", [30, gcn._MAX_INNER + 44])
    def test_weights_of_dead_columns_are_never_read(self, n, monkeypatch):
        # Six of conv2's eight units are dead, so conv3 reads only the two
        # live columns: its weight rows for the dead ones, of H and of
        # G H, may hold anything.
        qes = random_qes(np.random.default_rng(30), n, 4)
        dead = np.arange(6)
        zeroed = init_model(4, conv_widths=(8, 8, 6, 6), fc_widths=(5, 3), seed=1)
        plant_dead_units(zeroed, 1, dead)
        poisoned = load_model(save_model(zeroed))
        zeroed.layers[2].weights[np.r_[dead, dead + 8]] = 0.0
        poisoned.layers[2].weights[np.r_[dead, dead + 8]] = np.nan
        widths = aggregated_widths(monkeypatch)
        got = model_forward(qes, poisoned)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - model_forward(qes, zeroed))) <= 1e-12
        assert np.max(np.abs(got - full_width_forward(qes, zeroed))) <= 1e-12
        assert widths[:4] == [4, 8, 2, 6]

    @pytest.mark.parametrize("learning_rate", [3e-2, 1e-1])
    def test_trained_model_with_dead_units(self, learning_rate, monkeypatch):
        # Trained at these rates, the model's hidden layers die: at 3e-2
        # half or more of the units of conv2 to fc1 on some subgraphs, at
        # 1e-1 every unit of conv2 to conv4, so the forward carries no
        # column at all through them.
        scene = mg.generate_scene(mg.SceneConfig(
            n_images=96, symmetry_s=4, overlap_angle=math.pi / 12,
            noise_sigma=0.05, dim=8, seed=7,
        ))
        emb = scene.embeddings
        params = QesParams(20, 3, 5)
        config = TrainConfig(tau_mo=0.25, tau_ct=0.15, qes_params=params,
                             learning_rate=learning_rate, epochs=20, batch_size=8,
                             beta2=0.99, seed=1)
        model, _ = train(emb, scene.overlaps, list(range(0, 96, 4)), config,
                         conv_widths=(16, 16, 8, 8), fc_widths=(8,))
        index = mg.build_index(emb)
        full = [gcn_retrieve(model, index, emb, q, params) for q in emb.ids]
        widths = aggregated_widths(monkeypatch)
        for q in list(emb.ids)[::8]:
            qes = build_qes(index, emb, q, params)
            expected = oracle_forward(qes.features.tolist(), qes.adjacency.tolist(), model)
            assert np.max(np.abs(model_forward(qes, model) - expected)) <= 1e-12
        assert any(w < d for w, d in zip(widths, [8, 16, 16, 8] * len(widths)))

        monkeypatch.setattr(retrieval, "model_forward", full_width_forward)
        for q, got in zip(emb.ids, full):
            want = gcn_retrieve(model, index, emb, q, params)
            assert got.ids() == want.ids()
            assert max((abs(a[1] - b[1]) for a, b in zip(got.retrieved, want.retrieved)),
                       default=0.0) <= 1e-12


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
        grads = backward([prepare(qes, [True] * 6)], model)
        total = sum(float(np.sum(g * g)) for g in grads.grads)
        assert math.sqrt(total) <= 1e-6

    def test_final_bias_gradient_closed_form(self):
        rng = np.random.default_rng(8)
        qes = random_qes(rng, 7, 3)
        labels = rng.random(7) < 0.5
        model = init_model(3, conv_widths=(5, 4, 4, 3), fc_widths=(2,), seed=3)
        probs = model_forward(qes, model)
        grads = backward([prepare(qes, labels)], model)
        mask = qes.hop == 1
        expected = np.mean(probs[mask] - labels[mask].astype(float))
        assert abs(grads.grads[-1][0] - expected) <= 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        for trial in range(3):
            n, d = int(rng.integers(5, 10)), int(rng.integers(2, 5))
            qes = random_qes(rng, n, d)
            labels = rng.random(n) < 0.5
            model = init_model(d, conv_widths=(4, 4, 3, 3), fc_widths=(2,), seed=trial)
            analytic = backward([prepare(qes, labels)], model).grads
            numeric = finite_difference_gradients(qes, model, labels)
            assert max_relative_error(analytic, numeric) <= 1e-5

    def test_loss_field_matches_masked_loss(self):
        rng = np.random.default_rng(10)
        qes = random_qes(rng, 6, 3)
        labels = [True, False, True, False, True, False]
        model = init_model(3, conv_widths=(4, 4, 3, 3), fc_widths=(2,), seed=1)
        grads = backward([prepare(qes, labels)], model)
        probs = model_forward(qes, model)
        assert np.array_equal(grads.probs[0], probs)
        assert grads.losses[0] == masked_loss(probs, labels, qes.hop)

    def test_no_first_hop_nodes(self):
        qes = Qes(9, [0, 1], [2, 2], [[0, 1], [1, 0]], np.ones((2, 3)))
        other = random_qes(np.random.default_rng(11), 4, 3)
        model = init_model(3, conv_widths=(4, 3), fc_widths=(2,), seed=2)
        for batch in ([qes], [other, qes]):
            with pytest.raises(EmptyLossSet):
                backward([prepare(q, [True] * len(q)) for q in batch], model)


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
            prepared = [prepare(q, y) for q, y in zip(batch, labels)]
            singles = [backward([x], model) for x in prepared]
            stacked = backward(prepared, model)
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
            low = backward([prepare(q, y, np.float32) for q, y in zip(batch, labels)], model)
            high = backward([prepare(q, y) for q, y in zip(batch, labels)], model)
            assert all(g.dtype == np.float64 for g in low.grads)
            assert relative_to_largest(low.grads, high.grads) <= 1e-4

    def test_float32_probabilities_on_criterion_5_subgraphs(self):
        # The criterion-5 scene, its subgraphs, and the model trained on it
        # in float64 by bench/make_reference_model.py. Measured: at most
        # 5.0e-5 from the float64 forward (2.1e-7 after 10 float32 epochs).
        scene = mg.generate_scene(mg.SceneConfig(
            n_images=360, symmetry_s=4, overlap_angle=math.pi / 12,
            noise_sigma=0.05, dim=32, seed=42,
        ))
        config = TrainConfig(tau_mo=0.25, tau_ct=0.15, qes_params=QesParams(100, 5, 10))
        subgraphs = labeled_subgraphs(
            scene.embeddings, scene.overlaps, list(scene.embeddings.ids), config)
        ckpt = Path(__file__).resolve().parents[1] / "bench" / "reference_model.ckpt"
        model = load_model(ckpt.read_bytes())
        worst = 0.0
        for start in range(0, len(subgraphs), 8):
            batch = subgraphs[start : start + 8]
            low = backward([prepare(q, y, np.float32) for q, y in batch], model)
            for (qes, _), probs in zip(batch, low.probs):
                worst = max(worst, float(np.max(np.abs(probs - model_forward(qes, model)))))
        assert worst <= 1e-4

    def test_step_memory_does_not_grow_with_layer_width(self):
        # Over 256 stacked rows, so each weight gradient sums blocks. numpy
        # buffers a relu into a strided view in at most 8192 elements; over
        # 1024 rows the 8-wide layers fill that buffer too. In the first
        # batch each subgraph stays within 256 nodes, where G H is one
        # product; the second holds one of 400 nodes, whose G H and its
        # transpose sum blocks too.
        rng = np.random.default_rng(18)
        small = [prepare(q, rng.random(len(q)) < 0.5, np.float32)
                 for q in (random_qes(rng, 220, 8) for _ in range(5))]
        large = [prepare(q, rng.random(len(q)) < 0.5, np.float32)
                 for q in (random_qes(rng, n, 8) for n in (400, 175, 175, 175, 175))]
        for batch, exact in ((small, False), (large, True)):
            peaks = []
            for widths in ((8, 8, 8, 8), (256, 256, 128, 128)):
                model = init_model(8, conv_widths=widths, fc_widths=(8,), seed=0)
                work = gcn.Workspace(model, 1100, np.float32)
                backward(batch, model, work)
                tracemalloc.start()
                try:
                    backward(batch, model, work)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            if exact:
                assert peaks[0] == peaks[1], peaks
            else:
                assert max(peaks) <= 1.1 * min(peaks), peaks

    def test_dead_shares_count_units_zero_on_every_node_since_last_read(self):
        rng = np.random.default_rng(19)
        model = init_model(5, conv_widths=(8, 8, 6, 6), fc_widths=(4,), seed=6)
        plant_dead_units(model, 1, np.arange(5))
        batches = [[random_qes(rng, n, 5) for n in (12, 7)], [random_qes(rng, 9, 5)]]
        work = gcn.Workspace(model, 19, np.float32)

        def expected(subgraphs):
            by_layer = zip(*(relu_outputs(q, model) for q in subgraphs))
            return [float(np.mean(~np.vstack(h).any(axis=0))) for h in by_layer]

        for steps in ([batches[0]], [batches[1]], batches):
            for batch in steps:
                backward([prepare(q, rng.random(len(q)) < 0.5, np.float32) for q in batch],
                         model, work)
            want = expected([q for batch in steps for q in batch])
            assert want[1] >= 5 / 8 and min(want) < 1.0
            assert work.dead_shares() == want

    def test_empty_batch_is_refused_by_name(self):
        model = init_model(3, conv_widths=(4, 4, 3, 3), fc_widths=(2,), seed=0)
        with pytest.raises(DimensionError, match="empty batch"):
            backward([], model)


# One subgraph of 400-500 nodes: forward probabilities and the float64 and
# float32 gradients, hashed. Its G H products have an inner dimension of the
# node count, which OpenBLAS blocks differently with two threads than one.
# A second model, with three quarters of conv2's units and half of conv3's
# dead, hashes the forward that carries only live columns on.
_LARGE_SUBGRAPH_HASH = """
import hashlib
import numpy as np
import matchgraph as mg
from matchgraph.gcn import backward, init_model, model_forward, prepare
from matchgraph.subgraph import QesParams, build_qes
emb = mg.EmbeddingMatrix(range(3000), np.random.default_rng(0).normal(size=(3000, 32)))
qes = build_qes(mg.build_index(emb), emb, 0, QesParams(100, 5, 10))
assert 400 <= len(qes.nodes) <= 500, len(qes.nodes)
model = init_model(32, seed=3)
digest = hashlib.sha256(model_forward(qes, model).tobytes())
planted = init_model(32, seed=4)
for layer, dead in ((1, 192), (2, 64)):
    w = planted.layers[layer].weights
    w[:, :dead] = -np.abs(w[:, :dead])
digest.update(model_forward(qes, planted).tobytes())
labels = np.arange(len(qes.nodes)) % 2 == 0
for dtype in (np.float64, np.float32):
    for grad in backward([prepare(qes, labels, dtype)], model).grads:
        digest.update(grad.tobytes())
print(digest.hexdigest())
"""


class TestBlasThreads:
    def test_large_subgraph_bits_do_not_depend_on_blas_threads(self):
        src = Path(mg.__file__).resolve().parents[1]
        digests = []
        for blas_threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=blas_threads)
            done = subprocess.run([sys.executable, "-c", _LARGE_SUBGRAPH_HASH], env=env,
                                  check=True, capture_output=True, text=True, timeout=300)
            digests.append(done.stdout)
        assert digests[0] == digests[1]


class TestCheckpoints:
    def test_round_trip_identity(self):
        model = init_model(6, conv_widths=(8, 8, 6, 6), fc_widths=(4,), seed=11)
        clone = load_model(save_model(model))
        for a, b in zip(model.parameters(), clone.parameters()):
            assert np.array_equal(a, b)

    def test_forward_outputs_survive_round_trip(self):
        rng = np.random.default_rng(12)
        w = np.random.default_rng(14).normal
        built = GcnModel([
            Layer(w(size=(8, 5))), Layer(w(size=(10, 5))),
            Layer(w(size=(10, 4))), Layer(w(size=(8, 4))),
            Layer(w(size=(4, 3)), w(size=3)), Layer(w(size=(3, 1)), w(size=1)),
        ])
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

    def test_zero_width_dense_layer_is_shape_corruption(self):
        convs = init_model(3, conv_widths=(4, 4, 3, 3), fc_widths=(2,), seed=0).layers[:4]
        # conv layers as saved, then a 3x0 dense layer feeding a 0x1 head
        layers = [(0, layer.weights, None) for layer in convs]
        layers += [(1, np.ones((3, 0)), np.ones(0)), (1, np.ones((0, 1)), np.ones(1))]
        data = CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(layers))
        for kind, weights, bias in layers:
            data += struct.pack("<BIIB", kind, *weights.shape, bias is not None)
            data += weights.astype("<f8").tobytes()
            data += b"" if bias is None else bias.astype("<f8").tobytes()
        with pytest.raises(ShapeCorruption, match="dense weights must be 2-d with >= 1 column"):
            load_model(data)

    def test_conv_layer_after_a_dense_layer_is_shape_corruption(self):
        model = init_model(3, conv_widths=(4, 4, 3, 3), fc_widths=(2,), seed=0)
        data = save_model(model)
        records, start = [], 12
        for p in model.parameters():
            if p.ndim == 2:
                records.append(data[start : start + 10])
                start += 10
            records[-1] += data[start : start + 8 * p.size]
            start += 8 * p.size
        assert start == len(data) and len(records) == 6
        # the two dense layers' records moved ahead of the four convolutions'
        with pytest.raises(ShapeCorruption, match="conv layer after a dense layer") as exc:
            load_model(data[:12] + b"".join(records[4:] + records[:4]))
        assert exc.value.offset == 12 + len(records[4]) + len(records[5])

    def test_shape_corruption(self):
        model = init_model(3, conv_widths=(4, 4, 3, 3), fc_widths=(2,), seed=0)
        data = bytearray(save_model(model))
        # lie about the first layer's column count while keeping length valid
        data[13:17] = (5).to_bytes(4, "little")
        with pytest.raises((ShapeCorruption, TruncatedPayload)):
            load_model(bytes(data))


class TestModelValidation:
    def test_requires_at_least_one_conv_layer(self):
        head = [Layer(np.ones((2, 1)), np.zeros(1))]
        with pytest.raises(DimensionError, match="at least one graph conv layer"):
            GcnModel(head)
        with pytest.raises(DimensionError, match="at least one graph conv layer"):
            init_model(3, conv_widths=(), fc_widths=(2,))
        for depth in (1, 2, 3):
            convs = [Layer(np.ones((4, 2))) for _ in range(depth)]
            assert sum(layer.bias is None for layer in GcnModel(convs + head).layers) == depth

    def test_final_width_must_be_one(self):
        convs = [Layer(np.ones((4, 2))) for _ in range(4)]
        with pytest.raises(DimensionError):
            GcnModel(convs + [Layer(np.ones((2, 3)), np.zeros(3))])

    @pytest.mark.parametrize("order, message", [
        ("cdc", "conv layer after a dense layer"),
        ("dcd", "conv layer after a dense layer"),
        ("cc", "at least one dense layer"),
        ("ddd", "at least one graph conv layer"),
    ])
    def test_layer_order_is_checked(self, order, message):
        # Every layer maps 2 columns to 2 and the last to one logit, so only
        # the order of the kinds is wrong.
        make = {"c": lambda out: Layer(np.ones((4, out))),
                "d": lambda out: Layer(np.ones((2, out)), np.zeros(out))}
        layers = [make[kind](2) for kind in order[:-1]] + [make[order[-1]](1)]
        with pytest.raises(DimensionError, match=message):
            GcnModel(layers)

    @pytest.mark.parametrize("widths", [
        {"fc_widths": (0,)}, {"fc_widths": (2, 0)}, {"fc_widths": (-2,)},
        {"conv_widths": (4, 0, 3, 3)},
    ])
    def test_init_rejects_widths_below_one_and_names_them(self, widths):
        widths = {"conv_widths": (4, 4, 3, 3), "fc_widths": (2,), **widths}
        with pytest.raises(DimensionError, match="layer widths must be >= 1") as exc:
            init_model(3, **widths)
        assert all(str(w) in str(exc.value) for w in widths.values())

    def test_default_widths(self):
        model = init_model(32)
        assert [(l.weights.shape, l.bias is None) for l in model.layers] == [
            ((64, 256), True), ((512, 256), True), ((512, 128), True), ((256, 128), True),
            ((128, 64), False), ((64, 1), False),
        ]

    @pytest.mark.parametrize("position", [0, -1])
    def test_set_parameters_rejects_non_finite_and_keeps_model(self, position):
        model = init_model(3, conv_widths=(4, 4, 3, 3), fc_widths=(2,), seed=0)
        before = save_model(model)
        params = [p + 1.0 for p in model.parameters()]
        params[position] = np.full_like(params[position], np.nan)
        with pytest.raises(DimensionError, match="finite"):
            model.set_parameters(params)
        assert save_model(model) == before
