import dataclasses
import logging
import math
import re

import numpy as np
import pytest

import matchgraph as mg
from matchgraph import evaluation, gcn, trainer
from matchgraph.errors import NoTrainingData
from matchgraph.gcn import prepare, save_model
from matchgraph.overlaps import OverlapRecord, OverlapStore
from matchgraph.subgraph import QesParams
from matchgraph.trainer import (
    TrainConfig,
    build_training_set,
    init_adam,
    label_qes,
    optimizer_step,
    train,
)

from gcn_oracle import adam_step, labeled_subgraphs, masked_loss, oracle_train


# The settings each config class needs besides the one under test.
_REQUIRED = {mg.SceneConfig: {"n_images": 8}, TrainConfig: {}}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("config, name", [
    (config, f.name) for config in _REQUIRED for f in dataclasses.fields(config)
    if f.type is float
])
def test_every_float_setting_refuses_non_finite_values(config, name, value):
    with pytest.raises(ValueError):
        config(**_REQUIRED[config], **{name: value})


def small_scene(n=16, s=2, seed=3, dim=8, noise=0.05):
    return mg.generate_scene(
        mg.SceneConfig(n_images=n, symmetry_s=s, overlap_angle=math.pi / 6,
                       noise_sigma=noise, dim=dim, seed=seed)
    )


class TestLabelQes:
    def test_all_missing_records_label_false(self):
        scene = small_scene()
        index = mg.build_index(scene.embeddings)
        qes = mg.build_qes(index, scene.embeddings, 0, QesParams(4, 2, 3))
        labels = label_qes(qes, OverlapStore(), TrainConfig())
        assert labels.dtype == bool and labels.tolist() == [False] * len(qes)

    def test_full_overlap_labels_true(self):
        scene = small_scene()
        index = mg.build_index(scene.embeddings)
        qes = mg.build_qes(index, scene.embeddings, 0, QesParams(4, 2, 3))
        store = OverlapStore([OverlapRecord(0, int(qes.nodes[0]), 1.0, 1.0)])
        labels = label_qes(qes, store, TrainConfig())
        assert labels.tolist()[0] is True

    def test_labels_match_generator_truth(self):
        scene = small_scene(n=20, s=2)
        cfg = TrainConfig(qes_params=QesParams(5, 2, 3))
        index = mg.build_index(scene.embeddings)
        n, window = 20, math.pi / 6
        for q in (0, 7, 13):
            qes = mg.build_qes(index, scene.embeddings, q, cfg.qes_params)
            labels = label_qes(qes, scene.overlaps, cfg)
            assert labels.shape == (len(qes),)
            for v, got in zip(qes.nodes.tolist(), labels.tolist()):
                steps = min(abs(q - v), n - abs(q - v))
                circ = steps * 2 * math.pi / n
                if circ <= window:
                    mo = max(0.0, 1.0 - circ / window)
                    expected = mo >= cfg.tau_mo or mo >= cfg.tau_ct
                else:
                    expected = False
                assert got == expected


def flat(*arrays):
    return np.concatenate([np.asarray(a, dtype=float).ravel() for a in arrays])


class TestBuildTrainingSet:
    def test_prepares_each_fresh_subgraph_in_float32(self):
        scene = small_scene(n=20)
        cfg = TrainConfig(qes_params=QesParams(5, 2, 3))
        queries = [0, 3, 11, 19]
        subgraphs = build_training_set(scene.embeddings, scene.overlaps, queries, cfg)
        assert len(subgraphs) == len(queries)
        index = mg.build_index(scene.embeddings)
        for sub, q in zip(subgraphs, queries):
            qes = mg.build_qes(index, scene.embeddings, q, cfg.qes_params)
            labels = label_qes(qes, scene.overlaps, cfg)
            assert isinstance(sub, gcn.TrainingSubgraph)
            assert sub.g.dtype == sub.features.dtype == np.float32
            assert np.array_equal(sub.hop1, qes.hop == 1)
            assert np.array_equal(sub.labels, labels) and sub.labels.dtype == np.float64
            want = prepare(qes, labels, np.float32)
            assert sub.g.tobytes() == want.g.tobytes()
            assert sub.features.tobytes() == want.features.tobytes()

    def test_skips_a_query_with_no_1_hop_node(self, monkeypatch, caplog):
        scene = small_scene()
        cfg = TrainConfig(qes_params=QesParams(4, 2, 3))
        build = trainer.build_qes

        def second_hop_only(index, emb, q, params):
            qes = build(index, emb, q, params)
            if q != 1:
                return qes
            return mg.Qes(q, qes.nodes, np.full(len(qes), 2), qes.adjacency, qes.features)

        monkeypatch.setattr(trainer, "build_qes", second_hop_only)
        with caplog.at_level(logging.WARNING, logger="matchgraph.trainer"):
            subgraphs = build_training_set(scene.embeddings, scene.overlaps, [0, 1, 2], cfg)
        assert len(subgraphs) == 2
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING] == [
            "query 1 has no 1-hop nodes; skipping"]

    def test_lone_image_is_skipped_then_refused(self, caplog):
        emb = mg.EmbeddingMatrix([5], [[1.0, 0.0]])
        with caplog.at_level(logging.WARNING, logger="matchgraph.trainer"):
            with pytest.raises(NoTrainingData):
                build_training_set(emb, OverlapStore(), [5], TrainConfig())
        assert "query 5 has no 1-hop nodes; skipping" in caplog.messages


class TestOptimizerStep:
    def test_zero_gradient_leaves_params(self):
        params = flat([1.0, -2.0], [[3.0]])
        before = params.copy()
        state = init_adam(params)
        optimizer_step(params, np.zeros(3), state)
        assert np.array_equal(params, before)
        assert state.step == 1

    def test_first_step_is_signed_learning_rate(self):
        params = np.zeros(3)
        grads = np.array([0.5, -3.0, 1e-3])
        optimizer_step(params, grads, init_adam(params), learning_rate=1e-2)
        step = params  # from zero
        # bias-corrected first step is -lr * g / (|g| + eps)
        assert np.all(np.sign(step) == -np.sign(grads))
        assert np.allclose(np.abs(step), 1e-2, rtol=1e-4)

    def test_constant_gradient_reaches_learning_rate_per_step(self):
        params = np.zeros(1)
        grads = np.array([0.37])
        state = init_adam(params)
        prev = params.copy()
        for t in range(400):
            optimizer_step(params, grads, state, learning_rate=1e-3)
            if t >= 398:
                delta = prev - params
                prev = params.copy()
        assert np.allclose(delta, 1e-3, rtol=1e-2)

    def test_shape_mismatch(self):
        params = np.zeros(3)
        state = init_adam(params)
        from matchgraph.errors import DimensionError

        with pytest.raises(DimensionError):
            optimizer_step(params, np.zeros(4), state)

    def test_equals_functional_update_over_24_steps(self):
        rng = np.random.default_rng(21)
        shapes = [(4, 3), (3,), (5, 1), (1,)]
        arrays = [rng.normal(size=s) for s in shapes]
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        params = flat(*arrays)
        state = init_adam(params)
        for t in range(1, 25):
            # zero, tiny and large gradients among the draws
            grads = [rng.normal(size=s) * rng.choice([0.0, 1e-9, 1.0, 1e3]) for s in shapes]
            arrays, m, v = adam_step(arrays, grads, m, v, t, learning_rate=1e-2, beta2=0.99)
            optimizer_step(params, flat(*grads), state, learning_rate=1e-2, beta2=0.99)
            assert params.tobytes() == flat(*arrays).tobytes()
            assert state.m.tobytes() == flat(*m).tobytes()
            assert state.v.tobytes() == flat(*v).tobytes()


class TestTrain:
    def test_zero_epochs_returns_initialized_model(self):
        scene = small_scene()
        cfg = TrainConfig(qes_params=QesParams(4, 2, 3), epochs=0, seed=11)
        model, history = train(
            scene.embeddings, scene.overlaps, list(scene.embeddings.ids), cfg,
            conv_widths=(6, 6, 4, 4), fc_widths=(3,),
        )
        assert history == []
        reference = mg.init_model(8, conv_widths=(6, 6, 4, 4), fc_widths=(3,), seed=[11, 0])
        assert save_model(model) == save_model(reference)

    def test_loss_decreases_on_memorizable_instance(self):
        scene = small_scene(n=12, s=1, noise=0.02)
        cfg = TrainConfig(
            qes_params=QesParams(4, 2, 3), epochs=200, batch_size=1,
            learning_rate=1e-2, seed=5,
        )
        model, history = train(
            scene.embeddings, scene.overlaps, [0], cfg,
            conv_widths=(8, 8, 6, 6), fc_widths=(4,),
        )
        assert len(history) == 200
        assert history[-1].loss < history[0].loss

    def test_same_seed_gives_identical_checkpoints(self):
        scene = small_scene()
        cfg = TrainConfig(qes_params=QesParams(4, 2, 3), epochs=4, batch_size=4, seed=21)
        ids = list(scene.embeddings.ids)
        m1, h1 = train(scene.embeddings, scene.overlaps, ids, cfg,
                       conv_widths=(6, 6, 4, 4), fc_widths=(3,))
        m2, h2 = train(scene.embeddings, scene.overlaps, ids, cfg,
                       conv_widths=(6, 6, 4, 4), fc_widths=(3,))
        assert save_model(m1) == save_model(m2)
        assert h1 == h2

    def test_no_queries(self):
        scene = small_scene()
        with pytest.raises(NoTrainingData):
            train(scene.embeddings, scene.overlaps, [], TrainConfig())

    def test_epoch_scores_come_from_the_pre_step_forward(self):
        # One batch holds every subgraph, so all of epoch 1 is scored with
        # the initial model, before the only step of the epoch.
        scene = small_scene()
        ids = list(scene.embeddings.ids)
        cfg = TrainConfig(qes_params=QesParams(4, 2, 3), epochs=1,
                          batch_size=len(ids), learning_rate=0.1, seed=7)
        widths = dict(conv_widths=(6, 6, 4, 4), fc_widths=(3,))
        _, history = train(scene.embeddings, scene.overlaps, ids, cfg, **widths)
        model = mg.init_model(8, seed=[7, 0], **widths)
        triples = []
        for qes, labels in labeled_subgraphs(scene.embeddings, scene.overlaps, ids, cfg):
            probs = mg.model_forward(qes, model)
            hop1 = qes.hop == 1
            predicted = set(qes.nodes[hop1 & (probs > 0.5)].tolist())
            relevant = set(qes.nodes[hop1 & labels].tolist())
            triples.append(evaluation.per_query_prf(predicted, relevant))
        row = history[0]
        assert (row.precision, row.recall, row.fmeasure) == evaluation.macro_average(triples)

    def test_one_forward_per_subgraph_per_epoch(self, monkeypatch):
        scene = small_scene()
        ids = list(scene.embeddings.ids)
        cfg = TrainConfig(qes_params=QesParams(4, 2, 3), epochs=3, batch_size=5, seed=2)
        forward = gcn._forward_batch
        calls = []

        def counted(batch, *args):
            calls.extend(batch)
            return forward(batch, *args)

        monkeypatch.setattr(gcn, "_forward_batch", counted)
        train(scene.embeddings, scene.overlaps, ids, cfg,
              conv_widths=(6, 6, 4, 4), fc_widths=(3,))
        n = len(build_training_set(scene.embeddings, scene.overlaps, ids, cfg))
        assert len(calls) == 3 * n
        assert len({id(x) for x in calls}) == n  # each subgraph prepared once

    def test_epoch_log_line_ends_with_wall_seconds(self, caplog):
        scene = small_scene()
        cfg = TrainConfig(qes_params=QesParams(4, 2, 3), epochs=3, seed=2)
        with caplog.at_level(logging.INFO, logger="matchgraph.trainer"):
            _, history = train(scene.embeddings, scene.overlaps, [0, 1, 2], cfg,
                               conv_widths=(6, 6, 4, 4), fc_widths=(3,))
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("epoch ")]
        assert len(lines) == len(history)
        for row, line in zip(history, lines):
            head = (f"epoch {row.epoch}: loss {row.loss:.6f} precision {row.precision:.4f} "
                    f"recall {row.recall:.4f} fmeasure {row.fmeasure:.4f} grad_norm ")
            assert line.startswith(head)
            assert re.fullmatch(r"\S+ dead \d\.\d{4}(/\d\.\d{4}){4} seconds \d+\.\d{3}",
                                line[len(head):])

    def test_epoch_log_line_gives_mean_batch_gradient_norm(self, monkeypatch, caplog):
        scene = small_scene()
        cfg = TrainConfig(qes_params=QesParams(4, 2, 3), epochs=3, batch_size=4, seed=2)
        step = trainer.optimizer_step
        norms = []

        def recorded(params, grads, *args, **kwargs):
            norms.append(math.sqrt(sum(float(np.sum(g * g)) for g in grads)))
            return step(params, grads, *args, **kwargs)

        monkeypatch.setattr(trainer, "optimizer_step", recorded)
        with caplog.at_level(logging.INFO, logger="matchgraph.trainer"):
            train(scene.embeddings, scene.overlaps, list(range(10)), cfg,
                  conv_widths=(6, 6, 4, 4), fc_widths=(3,))
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("epoch ")]
        steps = len(norms) // cfg.epochs
        assert steps > 1 and len(norms) == steps * cfg.epochs
        for epoch, line in enumerate(lines):
            logged = float(re.search(r" grad_norm (\S+) ", line).group(1))
            want = np.mean(norms[epoch * steps : (epoch + 1) * steps])
            assert logged > 0 and logged == pytest.approx(want, rel=1e-5)

    @pytest.mark.parametrize("learning_rate", [1e-3, 1e-1])
    def test_epoch_log_line_gives_dead_unit_shares(self, learning_rate, caplog):
        # The 96-image ring at 16,16,8,8 / 8. At learning rate 0.1 every
        # unit of conv2 to conv4 dies and the loss goes flat near 0.5227; a
        # share reads 1 once every batch of an epoch finds the layer dead,
        # from epoch 12 on here. At 1e-3 no layer dies.
        scene = mg.generate_scene(mg.SceneConfig(
            n_images=96, symmetry_s=4, overlap_angle=math.pi / 12,
            noise_sigma=0.05, dim=8, seed=7,
        ))
        cfg = TrainConfig(tau_mo=0.25, tau_ct=0.15, qes_params=QesParams(20, 3, 5),
                          learning_rate=learning_rate, epochs=20, batch_size=8,
                          beta2=0.99, seed=1)
        with caplog.at_level(logging.INFO, logger="matchgraph.trainer"):
            train(scene.embeddings, scene.overlaps, list(range(0, 96, 4)), cfg,
                  conv_widths=(16, 16, 8, 8), fc_widths=(8,))
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("epoch ")]
        shares = [[float(x) for x in re.search(r" dead (\S+) ", line).group(1).split("/")]
                  for line in lines]
        assert len(shares) == 20 and all(len(row) == 5 for row in shares)
        assert all(0.0 <= x <= 1.0 for row in shares for x in row)
        if learning_rate == 1e-1:
            assert max(shares[0]) < 1.0
            assert all(row[1:4] == [1.0, 1.0, 1.0] for row in shares[11:])
        else:
            assert max(max(row) for row in shares) < 1.0

    def test_build_training_set_logs_the_knn_table_counts(self, caplog):
        scene = small_scene()
        cfg = TrainConfig(qes_params=QesParams(4, 2, 3))
        with caplog.at_level(logging.INFO, logger="matchgraph.trainer"):
            build_training_set(scene.embeddings, scene.overlaps, [0, 1, 2], cfg)
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("knn table:")]
        assert len(lines) == 1
        assert re.fullmatch(r"knn table: rankings \d+ reranks \d+ rows_read \d+"
                            r" radius_table 0 radius_pass 0 pooled \d+", lines[0])

    def test_history_length_matches_epochs(self):
        scene = small_scene()
        cfg = TrainConfig(qes_params=QesParams(4, 2, 3), epochs=3, seed=2)
        _, history = train(scene.embeddings, scene.overlaps, [0, 1, 2], cfg,
                           conv_widths=(6, 6, 4, 4), fc_widths=(3,))
        assert [h.epoch for h in history] == [1, 2, 3]


# (scene size, subgraph shape, queries, batch size, conv widths, fc widths)
ORACLE_GRID = {
    "batch 1": (40, QesParams(6, 2, 3), range(19), 1, (6, 6, 4, 4), (3,)),
    "batch 3, partial last": (40, QesParams(6, 2, 3), range(19), 3, (6, 6, 4, 4), (3,)),
    "batch 8, partial last": (40, QesParams(6, 2, 3), range(19), 8, (6, 6, 4, 4), (3,)),
    "k2 0": (40, QesParams(6, 0, 3), range(19), 3, (6, 6, 4, 4), (3,)),
    "widths 1": (40, QesParams(6, 2, 3), range(19), 3, (1, 1, 1, 1), (1,)),
    "one convolution": (40, QesParams(6, 2, 3), range(19), 3, (6,), (3,)),
    "two convolutions": (40, QesParams(6, 2, 3), range(19), 3, (6, 4), (3, 2)),
    "over _MAX_INNER nodes": (300, QesParams(gcn._MAX_INNER + 14, 3, 3), range(0, 300, 60), 2,
                              (4, 4, 3, 3), (2,)),
}


class TestTrainEqualsOracle:
    @pytest.mark.parametrize("case", list(ORACLE_GRID.values()), ids=list(ORACLE_GRID))
    def test_checkpoint_and_history_bit_equal(self, case):
        n, params, queries, batch_size, conv, fc = case
        scene = small_scene(n=n)
        cfg = TrainConfig(qes_params=params, epochs=3, batch_size=batch_size, seed=5,
                          learning_rate=1e-2, beta2=0.99)
        subgraphs = build_training_set(scene.embeddings, scene.overlaps, list(queries), cfg)
        if batch_size > 1:
            assert len(subgraphs) % batch_size != 0
        if n > gcn._MAX_INNER:
            assert max(map(len, subgraphs)) > gcn._MAX_INNER
        model, history = train(scene.embeddings, scene.overlaps, list(queries), cfg, conv, fc)
        want, want_history = oracle_train(scene.embeddings, scene.overlaps, list(queries), cfg,
                                          conv, fc)
        assert save_model(model) == save_model(want)
        assert history == want_history

    def test_normalizes_each_subgraph_once_per_run(self, monkeypatch):
        scene = small_scene()
        ids = list(scene.embeddings.ids)
        cfg = TrainConfig(qes_params=QesParams(4, 2, 3), epochs=3, batch_size=5, seed=2)
        normalize = gcn._normalize
        calls = []

        def counted(a):
            calls.append(len(a))
            return normalize(a)

        monkeypatch.setattr(gcn, "_normalize", counted)
        train(scene.embeddings, scene.overlaps, ids, cfg, conv_widths=(6, 6, 4, 4), fc_widths=(3,))
        during_train = len(calls)
        n = len(build_training_set(scene.embeddings, scene.overlaps, ids, cfg))
        assert during_train == n

    def test_second_run_repeats_the_first_and_leaves_its_model(self, monkeypatch):
        scene = small_scene()
        ids = list(scene.embeddings.ids)
        cfg = TrainConfig(qes_params=QesParams(4, 2, 3), epochs=4, batch_size=3, seed=8)
        first, first_history = train(scene.embeddings, scene.overlaps, ids, cfg,
                                     conv_widths=(6, 6, 4, 4), fc_widths=(3,))
        first_bytes = save_model(first)
        step = trainer.optimizer_step
        checked = []

        def checking(*args, **kwargs):
            step(*args, **kwargs)
            checked.append(save_model(first) == first_bytes)

        monkeypatch.setattr(trainer, "optimizer_step", checking)
        second, second_history = train(scene.embeddings, scene.overlaps, ids, cfg,
                                       conv_widths=(6, 6, 4, 4), fc_widths=(3,))
        assert checked and all(checked)
        assert save_model(first) == first_bytes == save_model(second)
        assert first_history == second_history


class TestHop1Prf:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_per_query_prf_on_random_masks(self, seed):
        # sparse and dense draws, so that empty predicted and empty
        # relevant sets (and both) come up among the seeds
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        nodes = rng.permutation(1000)[:n] + 1
        hop = np.where(rng.random(n) < 0.7, 1, 2)
        labels = rng.random(n) < rng.choice([0.0, 0.1, 0.5, 1.0])
        probs = rng.random(n) * rng.choice([0.4, 1.0, 2.0])
        qes = mg.Qes(0, nodes, hop, np.zeros((n, n)), np.zeros((n, 2)))
        hop1 = hop == 1
        predicted = set(nodes[hop1 & (probs > 0.5)].tolist())
        relevant = set(nodes[hop1 & labels].tolist())
        got = trainer._hop1_prf(prepare(qes, labels), probs)
        assert got == evaluation.per_query_prf(predicted, relevant)
        assert all(type(v) is float for v in got)

    def test_empty_sets_follow_the_conventions(self):
        qes = mg.Qes(0, [1, 2], [1, 2], np.zeros((2, 2)), np.zeros((2, 2)))
        sub = prepare(qes, [False, True])
        assert trainer._hop1_prf(sub, np.array([0.1, 0.9])) == (1.0, 1.0, 1.0)
        assert trainer._hop1_prf(sub, np.array([0.9, 0.9])) == (0.0, 1.0, 0.0)
        labeled = prepare(qes, [True, False])
        assert trainer._hop1_prf(labeled, np.array([0.1, 0.9])) == (0.0, 0.0, 0.0)


class TestHopTwoInfluence:
    def test_second_hop_labels_never_reach_loss(self):
        scene = small_scene()
        cfg = TrainConfig(qes_params=QesParams(4, 2, 3))
        subgraphs = labeled_subgraphs(
            scene.embeddings, scene.overlaps, list(scene.embeddings.ids), cfg
        )
        model = mg.init_model(8, conv_widths=(6, 6, 4, 4), fc_widths=(3,), seed=0)
        flipped_any = False
        for qes, labels in subgraphs:
            probs = mg.model_forward(qes, model)
            base = masked_loss(probs, labels, qes.hop)
            labels = labels.tolist()
            for i, h in enumerate(qes.hop):
                if h == 2:
                    labels[i] = not labels[i]
                    flipped_any = True
            assert masked_loss(probs, labels, qes.hop) == base
        assert flipped_any
