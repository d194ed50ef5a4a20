import math

import numpy as np
import pytest

import matchgraph as mg
from matchgraph.embeddings import save_embeddings
from matchgraph.evaluation import GroundTruth, macro_average, per_query_prf
from matchgraph.overlaps import OverlapRecord, load_overlaps, save_overlaps
from matchgraph.synthetic import SceneConfig, generate_scene, load_classes, save_classes

from overlap_oracle import add
from retrieval_oracle import distance


def pairwise_overlap_text(config):
    """The overlap file of a ring scene built one record at a time."""
    n, step, pairs = config.n_images, 2.0 * math.pi / config.n_images, {}
    m = 1
    while m <= n // 2 and m * step <= config.overlap_angle:
        mo = max(0.0, 1.0 - m * step / config.overlap_angle)
        for gap in sorted({m, n - m}):
            for i in range(n - gap):
                add(pairs, OverlapRecord(i, i + gap, mo, mo))
        m += 1
    return "".join(f"{r.i} {r.j} {r.mo!r} {r.ct!r}\n" for _, r in sorted(pairs.items()))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 24, 360, 720, 2000])
def test_overlap_columns_equal_the_pairwise_build(n):
    for angle in (math.pi / 12, 3.0) if n <= 24 else (math.pi / 12,):
        config = SceneConfig(n_images=n, symmetry_s=4, overlap_angle=angle)
        assert generate_scene(config).overlaps == load_overlaps(pairwise_overlap_text(config))


class TestConfigValidation:
    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            SceneConfig(n_images=10, overlap_angle=math.pi)

    def test_rejects_tiny_dim(self):
        with pytest.raises(ValueError):
            SceneConfig(n_images=10, dim=1)


class TestNoSymmetryScene:
    def test_distance_monotone_within_half_period(self):
        scene = generate_scene(SceneConfig(n_images=36, symmetry_s=1, dim=8,
                                           noise_sigma=0.0, seed=0))
        emb = scene.embeddings
        dists = [distance(emb.row(0), emb.row(j)) for j in range(1, 19)]
        for a, b in zip(dists, dists[1:]):
            assert a < b

    def test_topk_retrieval_near_perfect(self):
        scene = generate_scene(SceneConfig(n_images=40, symmetry_s=1, dim=8,
                                           overlap_angle=math.pi / 8,
                                           noise_sigma=0.0, seed=0))
        index = mg.build_index(scene.embeddings)
        truth = GroundTruth.from_pairs(
            [(r.i, r.j) for r in scene.overlaps.records()], scene.embeddings.ids
        )
        triples = []
        for q in scene.embeddings.ids:
            relevant = truth.relevant(q)
            result = mg.topk_retrieve(index, q, len(relevant))
            triples.append(per_query_prf(result.ids(), relevant))
        _, _, f = macro_average(triples)
        assert f >= 0.999


class TestSymmetricScene:
    def test_exact_cross_class_collision_without_noise(self):
        scene = generate_scene(SceneConfig(n_images=24, symmetry_s=2, dim=8,
                                           noise_sigma=0.0, seed=0))
        emb = scene.embeddings
        n = 24
        for i in range(n):
            j = (i + n // 2) % n
            assert scene.classes[i] != scene.classes[j]
            assert distance(emb.row(i), emb.row(j)) == 0.0
            steps = min(abs(i - j), n - abs(i - j))
            assert steps * 2 * math.pi / n == pytest.approx(math.pi)

    def test_collision_partner_is_never_matchable(self):
        scene = generate_scene(SceneConfig(n_images=24, symmetry_s=2, dim=8,
                                           overlap_angle=math.pi / 8,
                                           noise_sigma=0.0, seed=0))
        for i in range(24):
            j = (i + 12) % 24
            assert scene.overlaps.get(i, j) is None

    def test_class_assignment(self):
        scene = generate_scene(SceneConfig(n_images=12, symmetry_s=3, dim=4, seed=0))
        assert scene.classes == {i: (i * 3) // 12 for i in range(12)}


class TestGroundTruthStructure:
    def test_no_self_pairs_and_symmetric(self):
        scene = generate_scene(SceneConfig(n_images=30, symmetry_s=2, dim=6, seed=4))
        for record in scene.overlaps.records():
            assert record.i != record.j
            assert scene.overlaps.get(record.j, record.i) is not None

    def test_scores_within_unit_interval(self):
        scene = generate_scene(SceneConfig(n_images=30, symmetry_s=2, dim=6, seed=4))
        for record in scene.overlaps.records():
            assert 0.0 <= record.mo <= 1.0
            assert record.ct == record.mo

    def test_matchable_fraction_tracks_window(self):
        for window in (math.pi / 12, math.pi / 6, math.pi / 3):
            n = 120
            scene = generate_scene(SceneConfig(n_images=n, symmetry_s=1, dim=4,
                                               overlap_angle=window, seed=1))
            fraction = len(scene.overlaps) / (n * (n - 1) / 2)
            assert abs(fraction - window / math.pi) <= 2.0 / n


class TestDeterminism:
    def test_identical_bytes_across_runs(self):
        config = SceneConfig(n_images=40, symmetry_s=4, dim=16, noise_sigma=0.07, seed=99)
        a = generate_scene(config)
        b = generate_scene(config)
        assert save_embeddings(a.embeddings) == save_embeddings(b.embeddings)
        assert save_overlaps(a.overlaps) == save_overlaps(b.overlaps)
        assert a.classes == b.classes

    def test_seed_changes_noise(self):
        base = SceneConfig(n_images=20, symmetry_s=2, dim=8, noise_sigma=0.05, seed=1)
        other = SceneConfig(n_images=20, symmetry_s=2, dim=8, noise_sigma=0.05, seed=2)
        assert save_embeddings(generate_scene(base).embeddings) != save_embeddings(
            generate_scene(other).embeddings
        )


class TestClassFile:
    def test_round_trip(self):
        classes = {0: 0, 3: 1, 7: 2}
        assert load_classes(save_classes(classes)) == classes

    def test_duplicate_rejected(self):
        from matchgraph.errors import InvalidRecord

        with pytest.raises(InvalidRecord):
            load_classes("1 0\n1 1\n")
