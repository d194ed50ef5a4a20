import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import matchgraph as mg
from matchgraph import evaluation, gcn
from matchgraph.errors import InvalidRecord, NoTrainingData, NonFiniteValue
from matchgraph.gcn import masked_loss, save_model
from matchgraph.subgraph import QesParams
from matchgraph.trainer import (
    OverlapRecord,
    OverlapStore,
    TrainConfig,
    build_training_set,
    init_adam,
    label_pair,
    label_qes,
    load_overlaps,
    optimizer_step,
    save_overlaps,
    train,
)

from overlap_oracle import parse_overlaps


def small_scene(n=16, s=2, seed=3, dim=8, noise=0.05):
    return mg.generate_scene(
        mg.SceneConfig(n_images=n, symmetry_s=s, overlap_angle=math.pi / 6,
                       noise_sigma=noise, dim=dim, seed=seed)
    )


class TestOverlapRecord:
    def test_rejects_self_pair(self):
        with pytest.raises(InvalidRecord):
            OverlapRecord(3, 3, 0.5, 0.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidRecord):
            OverlapRecord(1, 2, 1.5, 0.0)

    def test_symmetric_lookup(self):
        store = OverlapStore([OverlapRecord(4, 9, 0.7, 0.2)])
        assert store.get(9, 4).mo == 0.7
        assert store.get(4, 9).ct == 0.2
        assert store.get(4, 5) is None

    def test_conflicting_records_rejected(self):
        first = OverlapRecord(1, 2, 0.5, 0.5)
        OverlapStore([first, OverlapRecord(2, 1, 0.5, 0.5)])  # same values are fine
        with pytest.raises(InvalidRecord):
            OverlapStore([first, OverlapRecord(2, 1, 0.6, 0.5)])


class TestOverlapIO:
    def test_round_trip(self):
        store = OverlapStore(
            [OverlapRecord(5, 2, 0.25, 0.125), OverlapRecord(7, 9, 1.0, 0.0)]
        )
        assert load_overlaps(save_overlaps(store)) == store

    def test_symmetric_closure_on_load(self):
        store = load_overlaps("3 1 0.5 0.5\n")
        assert store.get(1, 3) is not None

    def test_bad_line(self):
        with pytest.raises(InvalidRecord):
            load_overlaps("1 2 0.5\n")

    def test_empty_text(self):
        assert len(load_overlaps("")) == 0

    def test_bad_record_reports_its_line_offset(self):
        with pytest.raises(InvalidRecord) as info:
            load_overlaps("0 1 0.5 0.5\n2 3 1.5 0.5\n")
        assert info.value.offset == 12
        assert "byte offset 12" in str(info.value)

    def test_offset_counts_utf8_bytes_and_blank_lines(self):
        # U+00A0 is whitespace to str.split but two bytes in UTF-8.
        text = "\n0 1 0.5 0.5\u00a0\n2 3 0.5\n"
        with pytest.raises(InvalidRecord) as info:
            load_overlaps(text)
        assert info.value.offset == len("\n0 1 0.5 0.5\u00a0\n".encode("utf-8")) == 15

    @pytest.mark.parametrize("score", ["nan", "inf"])
    def test_non_finite_score_reports_its_line_offset(self, score):
        with pytest.raises(NonFiniteValue) as info:
            load_overlaps(f"0 1 0.5 0.5\n2 3 {score} 0.5\n")
        assert info.value.offset == 12
        assert "byte offset 12" in str(info.value)


class TestOverlapIdRange:
    @pytest.mark.parametrize("line", ["-1 2 0.5 0.5", f"2 {2**64} 0.5 0.5", f"{-2**70} 3 0.5 0.5"])
    def test_id_outside_u64_reports_its_line_offset(self, line):
        with pytest.raises(InvalidRecord) as info:
            load_overlaps(f"0 1 0.5 0.5\n{line}\n")
        assert info.value.offset == 12
        assert "outside [0, 2^64)" in str(info.value)

    def test_largest_u64_id_round_trips(self):
        top = 2**64 - 1
        store = load_overlaps(f"{top} 0 0.5 0.25\n")
        assert store.get(0, top) == (0, top, 0.5, 0.25)
        assert save_overlaps(store) == f"0 {top} 0.5 0.25\n"
        with pytest.raises(InvalidRecord):
            OverlapRecord(-1, 2, 0.5, 0.5)


    def test_lookups_are_exact_above_2_to_53(self):
        # 2^53 and 2^53 + 1 are one float64; lookups must not round them
        a, b = 2**53, 2**53 + 1
        store = OverlapStore([OverlapRecord(5, a, 0.5, 0.0), OverlapRecord(b, 7, 0.25, 1.0)])
        assert store.get(b, 7) == (b, 7, 0.25, 1.0)
        assert store.get(5, b) is None and store.get(7, a) is None
        assert store.partners(a).ids.tolist() == [5]
        assert store.partners(b).ids.tolist() == [7]


# Ids at the ends of the u64 range, and score spellings that parse to equal
# floats, so that identical repeats can be written differently.
ID_POOL = [0, 1, 2, 3, 5, 8, 13, 21, 2**31, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1]
EQUAL_FORMS = {"0.0": "-0.0", "-0.0": "0", "1": "1.0", "1.0": "1e0", "0.5": "5e-1", "0.25": "0.250"}
ENDINGS = ["\n", "\r\n", "\u00a0\n", "\u00a0\r\n", " \t\n"]
BLANKS = ["", "   ", "\t", "\u00a0"]


def valid_rows(rng, count):
    """Rows of distinct pairs as token lists, each pair in a random orientation."""
    rows = {}
    while len(rows) < count:
        a, b = (ID_POOL[k] for k in rng.choice(len(ID_POOL), size=2, replace=False))
        scores = [
            list(EQUAL_FORMS)[int(rng.integers(len(EQUAL_FORMS)))] if rng.random() < 0.4
            else repr(float(rng.random()))
            for _ in range(2)
        ]
        rows.setdefault((min(a, b), max(a, b)), [str(a), str(b), *scores])
    return list(rows.values())


def with_repeats(rng, rows):
    """Rows plus identical repeats, some reversed or spelled differently."""
    out = list(rows)
    for row in rows:
        if rng.random() < 0.3:
            a, b, mo, ct = row
            if rng.random() < 0.5:
                a, b = b, a
            out.append([a, b, EQUAL_FORMS.get(mo, mo), EQUAL_FORMS.get(ct, ct)])
    if rng.random() < 0.5:
        rng.shuffle(out)
    else:
        out.reverse()
    return out


def compose(rng, lines):
    """Join lines with mixed endings and separators, among blank lines."""
    parts = []
    for line in lines:
        if rng.random() < 0.2:
            parts.append(BLANKS[int(rng.integers(len(BLANKS)))] + ENDINGS[int(rng.integers(len(ENDINGS)))])
        sep = " " if rng.random() < 0.7 else " \t "
        parts.append(sep.join(line) + ENDINGS[int(rng.integers(len(ENDINGS)))])
    text = "".join(parts)
    return text.rstrip("\n") if rng.random() < 0.2 else text


def outcome(parse, text):
    try:
        return repr(parse(text))
    except (InvalidRecord, NonFiniteValue) as exc:
        return type(exc).__name__, str(exc), exc.offset


def fault_line(kind, rng, earlier):
    """One faulty line of the given kind; a conflict repeats an earlier pair."""
    if kind == "conflict":
        a, b, mo, ct = earlier[int(rng.integers(len(earlier)))]
        return [b, a, mo, "0.125" if float(ct) != 0.125 else "0.375"]
    return {
        "three tokens": ["1", "2", "0.5"],
        "five tokens": ["1", "2", "0.5", "0.5", "0.5"],
        "bad int": ["1.5", "2", "0.5", "0.5"],
        "bad float": ["1", "2", "0.5", "x"],
        "nan": ["1", "2", "nan", "0.5"],
        "inf": ["1", "2", "0.5", "-inf"],
        "out of range": ["1", "2", "1.5", "0.5"],
        "self-pair": ["4", "4", "0.5", "0.5"],
        "negative id": ["-1", "4", "0.5", "0.5"],
        "id past u64": ["4", str(2**64), "0.5", "0.5"],
        "self-pair and nan": ["4", "4", "nan", "0.5"],
        "bad id and self-pair": ["-1", "-1", "0.5", "0.5"],
        "parse and self-pair": ["4", "4", "x", "0.5"],
    }[kind]


FAULT_KINDS = [
    "three tokens", "five tokens", "bad int", "bad float", "nan", "inf", "out of range",
    "self-pair", "negative id", "id past u64", "conflict", "self-pair and nan",
    "bad id and self-pair", "parse and self-pair",
]


class TestLoadOverlapsMatchesOracle:
    def test_valid_texts_give_the_oracle_records(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            rows = with_repeats(rng, valid_rows(rng, int(rng.integers(0, 40))))
            text = compose(rng, rows)
            assert outcome(lambda t: load_overlaps(t).records(), text) == \
                outcome(parse_overlaps, text)

    @pytest.mark.parametrize("first", FAULT_KINDS)
    def test_earliest_fault_wins_with_the_oracle_error(self, first):
        rng = np.random.default_rng([102, FAULT_KINDS.index(first)])
        for second in FAULT_KINDS:
            for _ in range(3):
                rows = valid_rows(rng, int(rng.integers(1, 30)))
                at = int(rng.integers(1, len(rows) + 1))
                later = int(rng.integers(at, len(rows) + 1))
                lines = (rows[:at] + [fault_line(first, rng, rows[:at])] + rows[at:later]
                         + [fault_line(second, rng, rows[:at])] + rows[later:])
                text = compose(rng, lines)
                want = outcome(parse_overlaps, text)
                assert isinstance(want, tuple)
                assert outcome(lambda t: load_overlaps(t).records(), text) == want


class TestLabelPair:
    def test_mo_boundary_inclusive(self):
        record = OverlapRecord(1, 2, 0.25, 0.0)
        assert label_pair(record, 0.25, 0.15) is True

    def test_both_zero(self):
        record = OverlapRecord(1, 2, 0.0, 0.0)
        assert label_pair(record, 0.25, 0.15) is False

    def test_ct_branch(self):
        record = OverlapRecord(1, 2, 0.1, 0.15)
        assert label_pair(record, 0.25, 0.15) is True

    @given(
        mo=st.floats(0, 1), ct=st.floats(0, 1),
        bump_mo=st.floats(0, 1), bump_ct=st.floats(0, 1),
        tau_mo=st.floats(0, 1), tau_ct=st.floats(0, 1),
    )
    def test_monotone_in_scores(self, mo, ct, bump_mo, bump_ct, tau_mo, tau_ct):
        low = label_pair(OverlapRecord(1, 2, mo, ct), tau_mo, tau_ct)
        high = label_pair(
            OverlapRecord(1, 2, min(1.0, mo + bump_mo), min(1.0, ct + bump_ct)),
            tau_mo,
            tau_ct,
        )
        assert high or not low


class TestLabelQes:
    def test_all_missing_records_label_false(self):
        scene = small_scene()
        index = mg.build_index(scene.embeddings)
        qes = mg.build_qes(index, scene.embeddings, 0, QesParams(4, 2, 3))
        labeled = label_qes(qes, OverlapStore(), TrainConfig())
        assert labeled.labels == tuple([False] * len(qes))

    def test_full_overlap_labels_true(self):
        scene = small_scene()
        index = mg.build_index(scene.embeddings)
        qes = mg.build_qes(index, scene.embeddings, 0, QesParams(4, 2, 3))
        store = OverlapStore([OverlapRecord(0, qes.nodes[0], 1.0, 1.0)])
        labeled = label_qes(qes, store, TrainConfig())
        assert labeled.labels[0] is True

    def test_labels_match_generator_truth(self):
        scene = small_scene(n=20, s=2)
        cfg = TrainConfig(qes_params=QesParams(5, 2, 3))
        index = mg.build_index(scene.embeddings)
        n, window = 20, math.pi / 6
        for q in (0, 7, 13):
            qes = label_qes(
                mg.build_qes(index, scene.embeddings, q, cfg.qes_params), scene.overlaps, cfg
            )
            for v, got in zip(qes.nodes, qes.labels):
                steps = min(abs(q - v), n - abs(q - v))
                circ = steps * 2 * math.pi / n
                if circ <= window:
                    mo = max(0.0, 1.0 - circ / window)
                    expected = mo >= cfg.tau_mo or mo >= cfg.tau_ct
                else:
                    expected = False
                assert got == expected


class TestOptimizerStep:
    def test_zero_gradient_leaves_params(self):
        params = [np.array([1.0, -2.0]), np.array([[3.0]])]
        grads = [np.zeros(2), np.zeros((1, 1))]
        state = init_adam(params)
        new_params, new_state = optimizer_step(params, grads, state)
        assert all(np.array_equal(a, b) for a, b in zip(params, new_params))
        assert new_state.step == 1

    def test_first_step_is_signed_learning_rate(self):
        params = [np.array([0.0, 0.0, 0.0])]
        grads = [np.array([0.5, -3.0, 1e-3])]
        new_params, _ = optimizer_step(params, grads, init_adam(params), learning_rate=1e-2)
        step = new_params[0] - params[0]
        # bias-corrected first step is -lr * g / (|g| + eps)
        assert np.all(np.sign(step) == -np.sign(grads[0]))
        assert np.allclose(np.abs(step), 1e-2, rtol=1e-4)

    def test_constant_gradient_reaches_learning_rate_per_step(self):
        params = [np.array([0.0])]
        grads = [np.array([0.37])]
        state = init_adam(params)
        prev = params[0].copy()
        for t in range(400):
            params, state = optimizer_step(params, grads, state, learning_rate=1e-3)
            if t >= 398:
                delta = prev - params[0]
                prev = params[0].copy()
        assert np.allclose(delta, 1e-3, rtol=1e-2)

    def test_shape_mismatch(self):
        params = [np.zeros(3)]
        state = init_adam(params)
        from matchgraph.errors import DimensionError

        with pytest.raises(DimensionError):
            optimizer_step(params, [np.zeros(4)], state)


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
        for qes in build_training_set(scene.embeddings, scene.overlaps, ids, cfg):
            probs = mg.model_forward(qes, model)
            nodes = np.asarray(qes.nodes)
            hop1 = qes.hop_mask(1)
            predicted = set(nodes[hop1 & (probs > 0.5)].tolist())
            relevant = set(nodes[hop1 & np.asarray(qes.labels)].tolist())
            triples.append(evaluation.per_query_prf(predicted, relevant))
        row = history[0]
        assert (row.precision, row.recall, row.fmeasure) == evaluation.macro_average(triples)

    def test_one_forward_per_subgraph_per_epoch(self, monkeypatch):
        scene = small_scene()
        ids = list(scene.embeddings.ids)
        cfg = TrainConfig(qes_params=QesParams(4, 2, 3), epochs=3, batch_size=5, seed=2)
        forward = gcn._forward_cached
        calls = []

        def counted(batch, *args):
            calls.extend(qes.query_id for qes in batch)
            return forward(batch, *args)

        monkeypatch.setattr(gcn, "_forward_cached", counted)
        train(scene.embeddings, scene.overlaps, ids, cfg,
              conv_widths=(6, 6, 4, 4), fc_widths=(3,))
        n = len(build_training_set(scene.embeddings, scene.overlaps, ids, cfg))
        assert len(calls) == 3 * n

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
                    f"recall {row.recall:.4f} fmeasure {row.fmeasure:.4f} seconds ")
            assert line.startswith(head)
            assert re.fullmatch(r"\d+\.\d{3}", line[len(head):])

    def test_history_length_matches_epochs(self):
        scene = small_scene()
        cfg = TrainConfig(qes_params=QesParams(4, 2, 3), epochs=3, seed=2)
        _, history = train(scene.embeddings, scene.overlaps, [0, 1, 2], cfg,
                           conv_widths=(6, 6, 4, 4), fc_widths=(3,))
        assert [h.epoch for h in history] == [1, 2, 3]


class TestHopTwoInfluence:
    def test_second_hop_labels_never_reach_loss(self):
        scene = small_scene()
        cfg = TrainConfig(qes_params=QesParams(4, 2, 3))
        subgraphs = build_training_set(
            scene.embeddings, scene.overlaps, list(scene.embeddings.ids), cfg
        )
        model = mg.init_model(8, conv_widths=(6, 6, 4, 4), fc_widths=(3,), seed=0)
        flipped_any = False
        for qes in subgraphs:
            probs = mg.model_forward(qes, model)
            base = masked_loss(probs, qes.labels, qes.hop)
            labels = list(qes.labels)
            for i, h in enumerate(qes.hop):
                if h == 2:
                    labels[i] = not labels[i]
                    flipped_any = True
            assert masked_loss(probs, labels, qes.hop) == base
        assert flipped_any
