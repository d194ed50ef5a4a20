import io

import numpy as np
import pytest

import matchgraph as mg
from matchgraph.embeddings import EmbeddingMatrix
from matchgraph.errors import InvalidRecord, MalformedHeader, UnknownImage
from matchgraph.retrieval import (
    RetrievalResult,
    collapse_pairs,
    export_pairs,
    gcn_retrieve,
    read_pair_file,
    threshold_retrieve,
    topk_retrieve,
    write_pair_file,
)
from matchgraph.subgraph import QesParams
from matchgraph.synthetic import SceneConfig, generate_scene

from retrieval_oracle import brute_force_knn, distance, truncate_result


def ring_index(n=12, dim=6, seed=1):
    rng = np.random.default_rng(seed)
    emb = EmbeddingMatrix(range(n), rng.normal(size=(n, dim)))
    return emb, mg.build_index(emb)


def constant_logit_model(dim, logit):
    """A model whose output probability is sigmoid(logit) for every node."""
    model = mg.init_model(dim, conv_widths=(4, 4, 3, 3), fc_widths=(2,), seed=0)
    params = [np.zeros_like(p) for p in model.parameters()]
    params[-1] = np.array([float(logit)])
    model.set_parameters(params)
    return model


class TestGcnRetrieve:
    def test_exactly_half_probability_retrieves_nothing(self):
        emb, index = ring_index()
        model = constant_logit_model(6, 0.0)
        result = gcn_retrieve(model, index, emb, 0, QesParams(4, 2, 3))
        assert result.retrieved == ()

    def test_saturated_positive_model_retrieves_all_first_hop(self):
        emb, index = ring_index()
        model = constant_logit_model(6, 30.0)
        params = QesParams(4, 2, 3)
        result = gcn_retrieve(model, index, emb, 0, params)
        assert result.ids() == set(index.neighbors(0, 4).ids())

    def test_scores_are_probabilities(self):
        emb, index = ring_index()
        model = mg.init_model(6, conv_widths=(6, 6, 4, 4), fc_widths=(3,), seed=4)
        result = gcn_retrieve(model, index, emb, 3, QesParams(5, 2, 3))
        for _, score in result.retrieved:
            assert 0.5 < score < 1.0

    def test_second_hop_never_retrieved(self):
        emb, index = ring_index(20)
        model = constant_logit_model(6, 30.0)
        params = QesParams(3, 4, 2)
        result = gcn_retrieve(model, index, emb, 5, params)
        hop1 = set(index.neighbors(5, 3).ids())
        assert result.ids() <= hop1


class TestTopkRetrieve:
    def test_matches_knn(self):
        emb, index = ring_index()
        result = topk_retrieve(index, 2, 5)
        assert result.ids() == set(index.neighbors(2, 5).ids())
        assert len(result) == 5

    def test_score_map(self):
        emb, index = ring_index()
        by_id = dict(topk_retrieve(index, 2, 5).retrieved)
        for v, d in index.neighbors(2, 5).neighbors:
            assert by_id[v] == 1.0 - d / 2.0

    def test_nested_in_larger_k(self):
        emb, index = ring_index()
        small = topk_retrieve(index, 1, 3).ids()
        large = topk_retrieve(index, 1, 8).ids()
        assert small <= large


class TestThresholdRetrieve:
    def test_tau_zero_keeps_exact_duplicates_only(self):
        emb = EmbeddingMatrix([0, 1, 2], [[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        index = mg.build_index(emb)
        result = threshold_retrieve(index, 0, 0.0)
        assert result.ids() == {1}

    def test_tau_two_keeps_everything(self):
        emb, index = ring_index(9)
        assert threshold_retrieve(index, 4, 2.0).ids() == set(range(9)) - {4}

    def test_matches_full_scan(self):
        emb, index = ring_index(25, seed=8)
        tau = 1.2
        result = threshold_retrieve(index, 7, tau)
        expected = {
            v for v in emb.ids if v != 7 and distance(emb.row(7), emb.row(v)) <= tau
        }
        assert result.ids() == expected

    def test_monotone_in_tau(self):
        emb, index = ring_index(15, seed=9)
        small = threshold_retrieve(index, 2, 0.8).ids()
        large = threshold_retrieve(index, 2, 1.4).ids()
        assert small <= large

    @pytest.mark.parametrize("emb", [
        EmbeddingMatrix([4], [[1.0, 2.0]]),
        EmbeddingMatrix([9, 2], [[1.0, 0.0], [0.0, 1.0]]),
        generate_scene(SceneConfig(n_images=48, symmetry_s=4, dim=6)).embeddings,
    ])
    def test_matches_filtered_oracle_ranking(self, emb):
        index = mg.build_index(emb)
        n = len(emb)
        for q in emb.ids:
            ranked = brute_force_knn(emb, q, n).neighbors
            for tau in (0.0, 0.3, 1.0, 2.0, float("inf")):
                want = tuple(sorted((v, 1.0 - d / 2.0) for v, d in ranked if d <= tau))
                assert threshold_retrieve(index, q, tau).retrieved == want

    def test_unknown_query(self):
        emb, index = ring_index(5)
        with pytest.raises(UnknownImage):
            threshold_retrieve(index, 99, 1.0)


class TestTruncateResult:
    def test_keeps_best_scores(self):
        result = RetrievalResult(0, ((1, 0.9), (2, 0.4), (3, 0.7)))
        kept = truncate_result(result, 2)
        assert kept.ids() == {1, 3}

    def test_no_op_when_k_exceeds_size(self):
        result = RetrievalResult(0, ((1, 0.9), (2, 0.4)))
        assert truncate_result(result, 10) == result


class TestPairExport:
    def test_deduplicates_directions(self):
        results = [
            RetrievalResult(1, ((2, 0.5),)),
            RetrievalResult(2, ((1, 0.8),)),
        ]
        sink = io.StringIO()
        export_pairs(results, sink)
        lines = sink.getvalue().strip().splitlines()
        assert lines[0] == "# matchgraph pairs v1"
        assert lines[1:] == ["1 2 0.8"]

    def test_empty_results_emit_header_only(self):
        sink = io.StringIO()
        export_pairs([], sink)
        assert sink.getvalue() == "# matchgraph pairs v1\n"

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        results = []
        for q in range(8):
            retrieved = tuple(
                (int(v), float(round(rng.random(), 6)))
                for v in sorted(rng.choice([x for x in range(10) if x != q], size=3, replace=False))
            )
            results.append(RetrievalResult(q, retrieved))
        pairs = collapse_pairs(results)
        sink = io.StringIO()
        write_pair_file(pairs, sink)
        assert read_pair_file(sink.getvalue()) == pairs

    def test_missing_header_rejected(self):
        with pytest.raises(MalformedHeader):
            read_pair_file("1 2 0.5\n")

    def test_bad_line_rejected(self):
        with pytest.raises(InvalidRecord):
            read_pair_file("# matchgraph pairs v1\n2 1 0.5\n")

    def test_error_offset_counts_bytes(self):
        # CRLF endings, and a blank line holding a no-break space (2 bytes in UTF-8)
        head = "# matchgraph pairs v1\r\n1 2 0.5\r\n\u00a0\r\n"
        with pytest.raises(InvalidRecord) as exc:
            read_pair_file(head + "3 2 0.5\r\n")
        assert exc.value.offset == len(head.encode("utf-8"))

    @pytest.mark.parametrize("line", ["-5 3 0.5", f"3 {2**70} 0.5", f"{2**64} {2**64 + 1} 0.5"])
    def test_id_outside_u64_rejected(self, line):
        head = f"# matchgraph pairs v1\n0 {2**64 - 1} 0.5\n"
        with pytest.raises(InvalidRecord, match=r"outside \[0, 2\^64\)") as exc:
            read_pair_file(head + line + "\n")
        assert exc.value.offset == len(head.encode("utf-8"))


class TestResultValidation:
    def test_self_retrieval_rejected(self):
        with pytest.raises(InvalidRecord):
            RetrievalResult(1, ((1, 0.5),))

    def test_score_range_enforced(self):
        with pytest.raises(InvalidRecord):
            RetrievalResult(1, ((2, 1.5),))
