import io

import numpy as np
import pytest

import matchgraph as mg
from matchgraph.embeddings import EmbeddingMatrix
from matchgraph.errors import InvalidRecord, MalformedHeader, UnknownImage
from matchgraph import cli, embeddings, retrieval
from matchgraph.retrieval import (
    PAIR_FILE_HEADER,
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

from pair_oracle import parse_pairs
from retrieval_oracle import brute_force_knn, distance, truncate_result
from retrieval_oracle import collapse_pairs as oracle_collapse_pairs
from test_knn import duplicate_scene, near_tie_scene, random_scene as noisy_scene


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

    def test_lone_image_retrieves_nothing(self):
        emb, index = ring_index(n=1)
        model = constant_logit_model(6, 30.0)
        assert gcn_retrieve(model, index, emb, 0, QesParams(4, 2, 3)).retrieved == ()

    def test_scores_are_probabilities(self):
        emb, index = ring_index()
        model = mg.init_model(6, conv_widths=(6, 6, 4, 4), fc_widths=(3,), seed=4)
        result = gcn_retrieve(model, index, emb, 3, QesParams(5, 2, 3))
        for _, score in result.retrieved:
            assert 0.5 < score < 1.0

    @pytest.mark.parametrize("threshold", [float("nan"), -0.1, 1.0, 1.5])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        emb, index = ring_index()
        model = constant_logit_model(6, 0.0)
        with pytest.raises(ValueError, match=r"prob_threshold must be a number in \[0, 1\)"):
            gcn_retrieve(model, index, emb, 0, QesParams(4, 2, 3), threshold)

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


def antipodal_embeddings():
    # v and -v, whose computed distance rounds to just above 2
    v = np.array([-1.1980559825897217, 1.120263695716858, 1.2699267864227295], dtype=np.float32)
    return EmbeddingMatrix([0, 1, 2], [v, -v, [0.0, 1.0, 0.0]])


class TestAntipodalScore:
    def test_distance_rounds_past_two(self):
        index = mg.build_index(antipodal_embeddings())
        assert dict(index.neighbors(0, 2).neighbors)[1] > 2.0

    @pytest.mark.parametrize("retrieve", [lambda index: topk_retrieve(index, 0, 2),
                                          lambda index: threshold_retrieve(index, 0, np.inf)],
                             ids=["topk", "threshold"])
    def test_score_is_zero(self, retrieve):
        score = dict(retrieve(mg.build_index(antipodal_embeddings())).retrieved)[1]
        assert score == 0.0 and type(score) is float


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

    @pytest.mark.parametrize("state", ["fresh", "narrow", "wide", "full"])
    @pytest.mark.parametrize("emb", [
        EmbeddingMatrix([4], [[1.0, 2.0]]),
        EmbeddingMatrix([9, 2], [[1.0, 0.0], [0.0, 1.0]]),
        generate_scene(SceneConfig(n_images=48, symmetry_s=4, dim=6)).embeddings,
        noisy_scene(),
        duplicate_scene(),
        near_tie_scene(),
    ], ids=["one", "two", "ring48", "noisy", "duplicates", "near-ties"])
    def test_matches_filtered_oracle_ranking(self, emb, state):
        # Every row unranked, ranked at the floor of 16, ranked N/2 wide or
        # ranked over all N-1 rows. A radius that is a place's exact
        # distance keeps that place: at the 16th place (or later) of a row
        # ranked 16 wide it is answered by a candidate pass, at earlier
        # places from the table.
        index = mg.build_index(emb)
        n = len(emb)
        width = {"fresh": None, "narrow": 1, "wide": n // 2, "full": n - 1}[state]
        if width:
            index.table(range(n), width)
        for q in emb.ids:
            ranked = brute_force_knn(emb, q, n).neighbors
            places = {0, 7, 15, 16, n // 2 - 1, n // 2, n - 2}
            exact = [ranked[j][1] for j in sorted(places) if 0 <= j < len(ranked)]
            for tau in (0.0, 0.3, 1.0, 2.0, float("inf"), *exact):
                want = tuple(sorted((v, 1.0 - d / 2.0) for v, d in ranked if d <= tau))
                assert threshold_retrieve(index, q, tau).retrieved == want
        counts = index.counts()
        if state == "full" or n == 1:
            assert counts.radius_pass == 0
        elif state == "fresh":
            assert counts.radius_table == 0
        elif n > 16:
            assert counts.radius_table > 0 and counts.radius_pass > 0

    @pytest.mark.parametrize("tau", [float("nan"), -1.0, -1e-300])
    def test_bad_tau_rejected(self, tau):
        emb, index = ring_index(5)
        with pytest.raises(ValueError, match="tau must be a number >= 0"):
            threshold_retrieve(index, 0, tau)

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


# Ids at the ends of the u64 range, spellings that int() and float() accept
# and numpy's text reader refuses, and line breaks of str.splitlines that
# the reader refuses (a lone carriage return) or reads as spaces.
PAIR_IDS = [0, 1, 2, 3, 10, 2**53 + 1, 2**63, 2**64 - 1]
PAIR_FORMS = {"0": "-0", "1": "\u0661", "10": "1_0", "0.5": "\u0660.\u0665", "0.25": "0.2_5",
              "0.0": "-0.0", "1.0": "1e0"}
LINE_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
PAIR_ENDINGS = ["\r\n", "\u00a0\n", "\r", "\x0c", "\u2028"]
PAIR_FAULTS = {
    "two tokens": ["1", "2"],
    "four tokens": ["1", "2", "0.5", "0.5"],
    "bad int": ["1.5", "2", "0.5"],
    "float id": ["1.0", "2", "0.5"],
    "bad float": ["1", "2", "x"],
    "nan": ["1", "2", "nan"],
    "inf": ["1", "2", "inf"],
    "above 1": ["1", "2", "1.5"],
    "negative score": ["1", "2", "-0.25"],
    "descending": ["2", "1", "0.5"],
    "self-pair": ["3", "3", "0.5"],
    "negative id": ["-1", "2", "0.5"],
    "id past u64": ["1", str(2**64), "0.5"],
}
HEADERS = [
    PAIR_FILE_HEADER + "\n", PAIR_FILE_HEADER + "\r\n", PAIR_FILE_HEADER + " \x0c\n",
    " " + PAIR_FILE_HEADER + "\n", "\x0b" + PAIR_FILE_HEADER + "\n", "\r" + PAIR_FILE_HEADER + "\n",
    PAIR_FILE_HEADER + "\r", PAIR_FILE_HEADER + " x\n", "# matchgraph pairs v2\n", "",
]


def pair_rows(rng, count):
    """Valid rows as token lists, some ids and scores spelled otherwise."""
    rows = []
    for _ in range(count):
        a, b = sorted(PAIR_IDS[k] for k in rng.choice(len(PAIR_IDS), size=2, replace=False))
        score = ["0.5", "0.25", "0.0", "1.0", repr(float(rng.random()))][int(rng.integers(5))]
        rows.append([PAIR_FORMS.get(t, t) if rng.random() < 0.2 else t
                     for t in (str(a), str(b), score)])
    return rows


def pair_text(rng, rows, header=PAIR_FILE_HEADER + "\n"):
    """The header and rows with mixed separators and endings, among blank lines."""
    parts = [header]
    for row in rows:
        if rng.random() < 0.2:
            parts.append(["", " ", "\u00a0"][int(rng.integers(3))] + "\n")
        r = rng.random()
        sep = " " if r < 0.7 else "\t" if r < 0.98 else LINE_BREAKS[int(rng.integers(len(LINE_BREAKS)))]
        end = PAIR_ENDINGS[int(rng.integers(len(PAIR_ENDINGS)))] if rng.random() < 0.2 else "\n"
        parts.append(sep.join(row) + end)
    return "".join(parts)


def pair_outcome(parse, text):
    try:
        return repr(parse(text))
    except (InvalidRecord, MalformedHeader) as exc:
        return type(exc).__name__, str(exc), exc.offset


class TestReadPairFileMatchesLineParser:
    def test_valid_texts_give_the_line_parser_pairs(self):
        rng = np.random.default_rng(201)
        for _ in range(300):
            text = pair_text(rng, pair_rows(rng, int(rng.integers(0, 40))))
            assert pair_outcome(read_pair_file, text) == \
                pair_outcome(parse_pairs, text)

    def test_headers_give_the_line_parser_outcome(self):
        rng = np.random.default_rng(202)
        for header in HEADERS:
            for _ in range(20):
                text = pair_text(rng, pair_rows(rng, int(rng.integers(0, 10))), header)
                assert pair_outcome(read_pair_file, text) == \
                    pair_outcome(parse_pairs, text)

    @pytest.mark.parametrize("first", list(PAIR_FAULTS))
    def test_earliest_fault_wins_with_the_line_parser_error(self, first):
        rng = np.random.default_rng([203, list(PAIR_FAULTS).index(first)])
        for second in PAIR_FAULTS:
            for _ in range(3):
                rows = pair_rows(rng, int(rng.integers(1, 30)))
                at = int(rng.integers(0, len(rows) + 1))
                later = int(rng.integers(at, len(rows) + 1))
                rows = (rows[:at] + [PAIR_FAULTS[first]] + rows[at:later]
                        + [PAIR_FAULTS[second]] + rows[later:])
                text = pair_text(rng, rows)
                want = pair_outcome(parse_pairs, text)
                assert isinstance(want, tuple)
                assert pair_outcome(read_pair_file, text) == want


class TestPairFileNumpyRoute:
    def test_written_pairs_are_read_without_the_line_parser(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("line parser called")

        rng = np.random.default_rng(204)
        ids = rng.integers(0, 2**64, size=100, dtype=np.uint64).tolist()
        ids += [0, 2**64 - 1, 2**53, 2**53 + 1]
        scores = [0.0, 1.0, 5e-324, 1 - 2**-53] + rng.random(len(ids) // 2 - 4).tolist()
        pairs = [(min(a, b), max(a, b), s) for a, b, s in zip(ids[0::2], ids[1::2], scores)]
        sink = io.StringIO()
        write_pair_file(pairs, sink)
        monkeypatch.setattr(embeddings, "_lines", refuse)
        assert repr(read_pair_file(sink.getvalue())) == repr(sorted(pairs))


class TestResultValidation:
    def test_self_retrieval_rejected(self):
        with pytest.raises(InvalidRecord):
            RetrievalResult(1, ((1, 0.5),))

    def test_score_range_enforced(self):
        with pytest.raises(InvalidRecord):
            RetrievalResult(1, ((2, 1.5),))

    @pytest.mark.parametrize("query_id,retrieved", [
        (0, ((2**64, 0.5),)),
        (5, ((-1, 0.5),)),
        (2**64, ((1, 0.5),)),
        (-1, ()),
        (0, ((1.0, 0.5),)),
        (1.5, ()),
        ("3", ()),
    ])
    def test_id_not_an_integer_in_u64_rejected(self, query_id, retrieved):
        with pytest.raises(InvalidRecord, match=r"is not an integer in \[0, 2\^64\)"):
            RetrievalResult(query_id, retrieved)

    def test_u64_ends_export_a_readable_pair_file(self):
        result = RetrievalResult(2**64 - 1, ((0, 0.5), (2**63, 1.0), (np.uint64(7), 0.25)))
        sink = io.StringIO()
        export_pairs([result], sink)
        assert read_pair_file(sink.getvalue()) == [
            (0, 2**64 - 1, 0.5), (7, 2**64 - 1, 0.25), (2**63, 2**64 - 1, 1.0)]


BUILT_SCENES = {
    "random": noisy_scene,
    "duplicates": duplicate_scene,
    "near-ties": near_tie_scene,
    "antipodal": antipodal_embeddings,
    "one": lambda: EmbeddingMatrix([4], [[1.0, 2.0]]),
}


def every_route(emb):
    """Each query's results from the three retrieval routes, at several widths."""
    index = mg.build_index(emb)
    model = mg.init_model(emb.dim, conv_widths=(4, 4, 3, 3), fc_widths=(2,), seed=0)
    for q in emb.ids:
        yield gcn_retrieve(model, index, emb, q, QesParams(6, 2, 3), prob_threshold=0.0)
        for k in (1, 5, len(emb)):
            yield topk_retrieve(index, q, k)
        for tau in (0.0, 0.5, float("inf")):
            yield threshold_retrieve(index, q, tau)


class TestBuiltResults:
    """The routes build their results unchecked; each must pass the check."""

    @pytest.mark.parametrize("make", list(BUILT_SCENES.values()), ids=list(BUILT_SCENES))
    def test_every_route_result_passes_the_constructor(self, make):
        for result in every_route(make()):
            assert result == RetrievalResult(result.query_id, result.retrieved)
            assert type(result.retrieved) is tuple
            assert all(type(hit) is tuple and type(hit[0]) is int and type(hit[1]) is float
                       for hit in result.retrieved)
            assert [v for v, _ in result.retrieved] == sorted(result.ids())

    def test_routes_and_stats_never_run_the_check(self, monkeypatch, tmp_path):
        def refuse(self):
            raise AssertionError("result re-checked")

        monkeypatch.setattr(RetrievalResult, "__post_init__", refuse)
        with pytest.raises(AssertionError, match="re-checked"):
            RetrievalResult(0, ())
        emb, index = ring_index(20)
        model = constant_logit_model(6, 30.0)
        assert gcn_retrieve(model, index, emb, 0, QesParams(4, 2, 3)).retrieved
        assert topk_retrieve(index, 0, 5).retrieved
        assert threshold_retrieve(index, 0, 2.0).retrieved
        pairs, report = tmp_path / "pairs", tmp_path / "stats.csv"
        with pairs.open("w") as fp:
            write_pair_file([(0, 1, 0.5), (1, 2, 0.25), (0, 2, 1.0)], fp)
        assert cli.main(["stats", "--pairs", str(pairs), "--truth-pairs", str(pairs),
                         "--report-out", str(report)]) == 0
        assert "true_positive_pairs,3\n" in report.read_text()


# Ids at both ends of the u64 range and across 2^63, where a signed
# conversion would wrap; scores that tie, 0.0 and -0.0 among them.
COLLAPSE_IDS = [0, 1, 2, 5, 2**53 + 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1]
COLLAPSE_SCORES = [0.0, -0.0, 0.25, 0.5, 1.0]


def random_results(rng):
    pool = COLLAPSE_IDS + rng.integers(2**63, 2**64, size=4, dtype=np.uint64).tolist()
    results = []
    for _ in range(rng.integers(0, 12)):
        q = pool[rng.integers(len(pool))]
        others = [v for v in pool if v != q]
        picked = rng.choice(len(others), size=rng.integers(0, len(others) + 1), replace=False)
        scores = [COLLAPSE_SCORES[rng.integers(len(COLLAPSE_SCORES))]
                  if rng.random() < 0.6 else float(rng.random()) for _ in picked]
        retrieved = tuple(sorted((others[j], s) for j, s in zip(picked.tolist(), scores)))
        results.append(RetrievalResult(q, retrieved))
    return results


class TestCollapsePairs:
    def test_matches_dict_oracle_on_random_results(self):
        rng = np.random.default_rng(181)
        for _ in range(300):
            results = random_results(rng)
            # repr tells -0.0 from 0.0 and int from numpy scalars
            assert repr(collapse_pairs(results)) == repr(oracle_collapse_pairs(results))
            assert collapse_pairs(iter(results)) == collapse_pairs(results)

    @pytest.mark.parametrize("first,second,kept", [
        (0.25, 0.5, "0.5"), (0.5, 0.25, "0.5"), (0.5, 0.5, "0.5"),
        (0.0, -0.0, "0.0"), (-0.0, 0.0, "-0.0"), (-0.0, -0.0, "-0.0")])
    def test_repeated_pair_keeps_best_then_first_seen(self, first, second, kept):
        results = [RetrievalResult(2**63, ((3, first),)), RetrievalResult(3, ((2**63, second),))]
        assert repr(collapse_pairs(results)) == f"[(3, {2**63}, {kept})]"

    @pytest.mark.parametrize("results", [[], [RetrievalResult(4, ())],
                                         [RetrievalResult(4, ()), RetrievalResult(5, ())]],
                             ids=["no-results", "one-empty", "two-empty"])
    def test_no_hits_give_no_pairs(self, results):
        assert collapse_pairs(results) == []

    def test_empty_results_beside_hits_are_skipped(self):
        results = [RetrievalResult(4, ()), RetrievalResult(1, ((0, 0.5),)), RetrievalResult(9, ())]
        assert collapse_pairs(results) == [(0, 1, 0.5)]

    @pytest.mark.parametrize("bad", [(3, 3, 0.5), (4, 3, 0.5)])
    def test_write_refuses_unordered_pair_before_writing(self, bad):
        sink = io.StringIO()
        with pytest.raises(InvalidRecord, match="not in ascending order"):
            write_pair_file([(0, 1, 0.5), bad], sink)
        assert sink.getvalue() == ""
