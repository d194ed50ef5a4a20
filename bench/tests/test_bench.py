"""Tests of the benchmark itself: the BENCHMARK.json schema, the output of
every workload in tiny mode, and that each independent check rejects a
corrupted result."""

import hashlib
import io
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import pace  # noqa: E402
import run as bench_run  # noqa: E402
from matchgraph import embeddings, gcn, knn, retrieval, subgraph, synthetic  # noqa: E402
from scenes import OVERLAP_ANGLE, REFERENCE_QES, SYMMETRY, TAU_CT, TAU_MO, ring360_config  # noqa: E402
from workloads import WORKLOADS, Recorder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert all(set(w) == {"name", "why"} for w in SPEC["workloads"])
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in e2e.items()} == bench_run.END_TO_END
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert layers == bench_run.layer_units()
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])


def test_reference_model_digest_is_recorded():
    digest = hashlib.sha256((BENCH / "reference_model.ckpt").read_bytes()).hexdigest()
    assert digest in (BENCH / "README.md").read_text()


def test_times_are_scaled_to_the_reference_pace():
    rec = Recorder()
    for seconds in (3.0, 1.0, 2.0):
        with rec.timed("phase", "a", work=4):
            pass
        rec.times["phase"]["a"][-1] = seconds
    with rec.timed("phase", "b", work=4):
        pass
    rec.times["phase"]["b"][-1] = 0.5
    assert len(rec.pace.probes) == 4
    # medians: unit a 2.0 s, unit b 0.5 s, probes four times the reference
    rec.pace.probes = [4 * pace.REFERENCE_S, 9.0, 4 * pace.REFERENCE_S, 0.0, 4 * pace.REFERENCE_S]
    assert rec.seconds("phase") == pytest.approx(1.25)
    assert rec.rate("phase") == pytest.approx(8 / 1.25)


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_output(workload, trace):
    out = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                    "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in want}
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = run_bench(tmp_path, "--workload", "ring360", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


# ---------------------------------------------------------------- checks

@pytest.fixture(scope="module")
def small():
    scene = synthetic.generate_scene(ring360_config(seed=5, n_images=120))
    data = embeddings.save_embeddings(scene.embeddings)
    emb = embeddings.load_embeddings(data)
    index = knn.build_index(emb)
    ranking = oracle.Ranking(*oracle.decode_embeddings(data))
    model_bytes = (BENCH / "reference_model.ckpt").read_bytes()
    return emb, index, ranking, gcn.load_model(model_bytes), oracle.parse_checkpoint(model_bytes)


def test_neighbor_check_rejects_a_swapped_neighbor(small):
    _, index, ranking, _, _ = small
    got = list(knn.query_knn(index, 7, 10).neighbors)
    assert oracle.check_neighbors(ranking, 7, 10, got)
    got[3], got[4] = got[4], got[3]
    assert not oracle.check_neighbors(ranking, 7, 10, got)


def test_topk_and_threshold_checks_reject_a_wrong_member(small):
    _, index, ranking, _, _ = small
    ids = retrieval.topk_retrieve(index, 7, 10).ids()
    assert oracle.check_topk(ranking, 7, 10, ids)
    far = ranking.top(7, 119)[-1]
    assert not oracle.check_topk(ranking, 7, 10, (ids - {min(ids)}) | {far})
    within = retrieval.threshold_retrieve(index, 7, 0.5).ids()
    assert oracle.check_threshold(ranking, 7, 0.5, within)
    assert not oracle.check_threshold(ranking, 7, 0.5, within | {far})


def test_subgraph_check_rejects_a_flipped_edge(small):
    emb, index, ranking, _, _ = small
    p = REFERENCE_QES
    qes = subgraph.build_qes(index, emb, 7, p)
    args = (ranking, 7, p.k1, p.k2, p.u, qes.nodes, qes.hop)
    assert oracle.check_subgraph(*args, qes.adjacency, qes.features)
    flipped = qes.adjacency.copy()
    flipped[0, 1] = flipped[1, 0] = 1.0 - flipped[0, 1]
    assert not oracle.check_subgraph(*args, flipped, qes.features)
    one_sided = qes.adjacency.copy()
    one_sided[0, 1] = 1.0 - one_sided[0, 1]
    assert not oracle.check_subgraph(*args, one_sided, qes.features)
    assert not oracle.check_subgraph(*args, qes.adjacency, qes.features + 1e-9)


def test_probability_check_rejects_a_perturbation_past_tolerance(small):
    emb, index, ranking, model, weights = small
    p = REFERENCE_QES
    qes = subgraph.build_qes(index, emb, 7, p)
    want = oracle.forward(weights, qes.adjacency, qes.features)
    probs = gcn.model_forward(qes, model)
    assert oracle.check_probabilities(want, probs)
    assert oracle.check_probabilities(want, probs + 0.5 * oracle.PROB_TOLERANCE)
    probs[5] += 2 * oracle.PROB_TOLERANCE
    assert not oracle.check_probabilities(want, probs)


def test_gcn_retrieval_check_rejects_a_two_hop_or_missing_node(small):
    emb, index, ranking, model, weights = small
    p = REFERENCE_QES
    nodes, hop, adjacency, features = oracle.build_subgraph(ranking, 7, p.k1, p.k2, p.u)
    probs = oracle.forward(weights, adjacency, features)
    ids = retrieval.gcn_retrieve(model, index, emb, 7, p).ids()
    assert oracle.check_gcn_retrieval(nodes, hop, probs, ids)
    two_hop = [v for v, h in zip(nodes, hop) if h == 2]
    if two_hop:
        assert not oracle.check_gcn_retrieval(nodes, hop, probs, ids | {two_hop[0]})
    if ids:
        assert not oracle.check_gcn_retrieval(nodes, hop, probs, ids - {min(ids)})


def test_pair_file_check_rejects_a_dropped_or_unsorted_pair(small):
    _, index, _, _, _ = small
    results = [retrieval.topk_retrieve(index, q, 5) for q in range(0, 120, 7)]
    expected = [(r.query_id, r.retrieved) for r in results]
    sink = io.StringIO()
    retrieval.export_pairs(results, sink)
    lines = sink.getvalue().split("\n")
    assert oracle.check_pair_file(sink.getvalue(), expected)
    assert not oracle.check_pair_file("\n".join(lines[:3] + lines[4:]), expected)
    assert not oracle.check_pair_file("\n".join(lines[:2] + [lines[3], lines[2]] + lines[4:]), expected)
    assert not oracle.check_pair_file("\n".join(lines[:3] + lines[2:]), expected)


def test_ring_truth_matches_the_generator():
    scene = synthetic.generate_scene(ring360_config(seed=5, n_images=120))
    truth = oracle.RingTruth(120, SYMMETRY, OVERLAP_ANGLE, TAU_MO, TAU_CT)
    pairs = {(r.i, r.j) for r in scene.overlaps.records() if r.mo >= TAU_MO or r.ct >= TAU_CT}
    assert pairs == {(a, b) for a in range(120) for b in range(a + 1, 120) if truth.matchable(a, b)}
    assert scene.classes == {i: truth.cls(i) for i in range(120)}


def test_report_checks_reject_a_changed_figure():
    truth = oracle.RingTruth(120, SYMMETRY, OVERLAP_ANGLE, TAU_MO, TAU_CT)
    per_query = [(0, {1, 2, 60}), (5, {4, 30}), (9, set())]
    rows = ["query_id,precision,recall,fmeasure"]
    triples = [oracle.prf(ids, truth.relevant(q)) for q, ids in per_query]
    rows += [f"{q},{p!r},{r!r},{f!r}" for (q, _), (p, r, f) in zip(per_query, triples)]
    rows.append("MACRO," + ",".join(repr(sum(t[i] for t in triples) / 3) for i in range(3)))
    report = "\n".join(rows) + "\n"
    assert oracle.check_eval_report(report, truth, per_query)
    bumped = re.sub(r"^MACRO,([^,]+)", lambda m: f"MACRO,{float(m.group(1)) + 1e-9!r}", report, flags=re.M)
    assert not oracle.check_eval_report(bumped, truth, per_query)

    pairs = [(0, 1), (0, 30), (0, 90), (2, 3)]
    tp, fp, cross = oracle.pair_stats(truth, pairs)
    assert (tp, fp, cross) == (2, 2, 2)
    stats = f"metric,value\ntrue_positive_pairs,{tp}\nfalse_positive_pairs,{fp}\ncross_class_false_positives,{cross}\n"
    assert oracle.check_stats_report(stats, truth, pairs)
    assert not oracle.check_stats_report(stats.replace(f"positives,{cross}", f"positives,{cross - 1}"), truth, pairs)
