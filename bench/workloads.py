"""The benchmark's workloads.

Each workload makes its inputs from the seed (untimed), sets up from the
serialized inputs (timed as `setup_s`), then runs whole rounds of the same
operations. Every round checks the program's outputs against `oracle`;
each check and each query, trained subgraph or command counts as one
attempted operation, and a mismatch counts as one failed operation.

Timing. The work of each timed phase is split into fixed units (a chunk of
queries, one training, one command) that every round repeats identically.
A phase's time is the sum over its units of each unit's median
repetition, scaled to the reference pace of `pace.py` by the host-pace
probe taken after every unit. The per-unit median keeps every unit's
share of the work fixed and drops repetitions that met a slow or fast
spell of the host; the scaling takes back part of a whole run's host
slowness or speed, which moved raw times of identical work by up to 1.6x
between runs.

The program is always called through module attributes looked up at call
time, so the traced run's wrappers see the benchmark's own calls too.
"""

import contextlib
import io
import os
import statistics
import time
from pathlib import Path

import numpy as np

from matchgraph import cli, embeddings, evaluation, gcn, knn, retrieval, subgraph, synthetic, trainer

import oracle
from pace import Pace
from scenes import (
    DIM, NOISE, OVERLAP_ANGLE, REFERENCE_CONV_WIDTHS, REFERENCE_FC_WIDTHS, REFERENCE_QES,
    REFERENCE_SEED, SYMMETRY, TAU_CT, TAU_MO, reference_config, ring360_config,
)

HERE = Path(__file__).resolve().parent
REFERENCE_MODEL = HERE / "reference_model.ckpt"
OUT = HERE / "out"
TOPK_SWEEP = (5, 10, 15, 20, 30)
TAU_DIST = 0.5


def heldout_seed(seed):
    """Noise seed of a scene the reference model never saw."""
    return 1000 + seed if 1000 + seed != REFERENCE_SEED else 999


def stride_sample(seed, n, size):
    """`size` query ids 31 apart from a seeded offset, in that order. On a
    ring every position is alike, so the work of the sample hardly depends
    on the seed, unlike a random sample whose neighborhoods overlap more
    or less by chance."""
    offset = int(np.random.default_rng([seed, 11]).integers(n))
    return [(offset + 31 * j) % n for j in range(size)]


class Recorder:
    """Operation counts, check outcomes, timing samples and the quality
    figures of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.times = {}
        self.work = {}
        self.quality = {}
        self.pace = Pace()

    def ops(self, n=1):
        self.attempted += n

    def check(self, what, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    @contextlib.contextmanager
    def timed(self, phase, unit, work=1):
        """Time one repetition of one unit of a phase, then probe the pace."""
        start = time.perf_counter()
        yield
        end = time.perf_counter()
        self.pace.probe()
        self.times.setdefault(phase, {}).setdefault(unit, []).append(end - start)
        self.work.setdefault(phase, {})[unit] = work

    def seconds(self, *phases):
        """Sum over the phases' units of each unit's median repetition,
        at the reference pace."""
        raw = sum(statistics.median(ts) for p in phases for ts in self.times[p].values())
        return raw * self.pace.factor()

    def rate(self, phase):
        return sum(self.work[phase].values()) / self.seconds(phase)


def timed_units(rec, phase, scope, queries, size, fn, prepare=None):
    """Run fn over queries in units of `size`, timing each unit. prepare()
    runs inside the first unit's timer and its result is passed to fn."""
    out, ctx = [], None
    for i, start in enumerate(range(0, len(queries), size)):
        part = queries[start:start + size]
        with rec.timed(phase, (scope, i), len(part)):
            if i == 0 and prepare is not None:
                ctx = prepare()
            out.extend([fn(ctx, q) for q in part])
    rec.ops(len(queries))
    return out


def scene_inputs(config):
    scene = synthetic.generate_scene(config)
    data = embeddings.save_embeddings(scene.embeddings)
    ids, vectors = oracle.decode_embeddings(data)
    return {
        "n": config.n_images,
        "embeddings": data,
        "overlaps": trainer.save_overlaps(scene.overlaps),
        "ranking": oracle.Ranking(ids, vectors),
        "truth": oracle.RingTruth(config.n_images, SYMMETRY, OVERLAP_ANGLE, TAU_MO, TAU_CT),
    }


def check_training(rec, history, model, first_bytes):
    rec.check("train: last-epoch loss below the first", history[-1].loss < history[0].loss)
    data = gcn.save_model(model)
    if first_bytes is not None:
        rec.check("train: checkpoint bytes repeat", data == first_bytes)
    return data


def check_qes(rec, ranking, weights, model, index, emb, result, perm_rng=None):
    """From-definition subgraph, from-formula forward, the retrieved set,
    and (when perm_rng is given) permutation equivariance."""
    p, q = REFERENCE_QES, result.query_id
    qes = subgraph.build_qes(index, emb, q, p)
    rec.check(f"qes {q}", oracle.check_subgraph(
        ranking, q, p.k1, p.k2, p.u, qes.nodes, qes.hop, qes.adjacency, qes.features))
    nodes, hop, adjacency, features = oracle.build_subgraph(ranking, q, p.k1, p.k2, p.u)
    want = oracle.forward(weights, adjacency, features)
    rec.check(f"forward {q}", oracle.check_probabilities(want, gcn.model_forward(qes, model)))
    rec.check(f"gcn retrieval {q}", oracle.check_gcn_retrieval(nodes, hop, want, result.ids()))
    if perm_rng is not None:
        perm = perm_rng.permutation(len(qes))
        shuffled = subgraph.Qes(
            q, [qes.nodes[i] for i in perm], [qes.hop[i] for i in perm],
            qes.adjacency[np.ix_(perm, perm)], qes.features[perm])
        rec.check(f"equivariance {q}", oracle.check_probabilities(
            want[perm], gcn.model_forward(shuffled, model)))


def as_pairs(results):
    return [(r.query_id, r.retrieved) for r in results]


class RingWorkload:
    """Library calls on one or two ring scenes with the reference model.

    scenes: the scene configs; quality figures use the first as the
    scene of `gcn_macro_f` and the last as that of `heldout_macro_f`.
    """

    qes_checks = 2
    neighbor_checks = 8
    pipeline_phases = ("train", "infer", "topk", "threshold", "eval")

    def __init__(self, seed, tiny):
        self.seed = seed
        self.tiny = tiny

    def make_inputs(self):
        return {
            "scenes": [scene_inputs(c) for c in self.scene_configs()],
            "model": REFERENCE_MODEL.read_bytes(),
            "weights": oracle.parse_checkpoint(REFERENCE_MODEL.read_bytes()),
        }

    def setup(self, inputs):
        state = {"scenes": []}
        for s in inputs["scenes"]:
            emb = embeddings.load_embeddings(s["embeddings"])
            index = knn.build_index(emb)
            store = trainer.load_overlaps(s["overlaps"])
            truth = evaluation.GroundTruth.from_records(store.records(), TAU_MO, TAU_CT, emb.ids)
            state["scenes"].append({"emb": emb, "index": index, "store": store, "truth": truth})
        state["model"] = gcn.load_model(inputs["model"])
        return state

    def round(self, inputs, state, rec):
        model, weights = state["model"], inputs["weights"]
        train_scene = state["scenes"][0]
        train_queries = self.train_queries(inputs["scenes"][0]["n"])
        config = reference_config(self.epochs)
        with rec.timed("train", "train"):
            trained, history = trainer.train(
                train_scene["emb"], train_scene["store"], train_queries, config,
                conv_widths=REFERENCE_CONV_WIDTHS, fc_widths=REFERENCE_FC_WIDTHS)
        rec.ops(len(train_queries) * self.epochs)
        rec.quality["train_loss"] = history[-1].loss
        state["checkpoint"] = check_training(rec, history, trained, state.get("checkpoint"))

        macro = []
        for i, (s_in, s) in enumerate(zip(inputs["scenes"], state["scenes"])):
            macro.append(self.scene_round(rec, i, s_in, s, model, weights))
        rec.quality["gcn_macro_f"] = macro[0][0]
        rec.quality["heldout_macro_f"] = macro[-1][0]
        rec.quality["topk_macro_f"] = macro[0][1]

    def scene_round(self, rec, i, s_in, s, model, weights):
        emb, truth, ranking, geo = s["emb"], s["truth"], s_in["ranking"], s_in["truth"]
        queries = self.queries(s_in["n"])
        unit = self.unit
        index_box = []

        def fresh_index():
            index_box.append(knn.build_index(emb))
            return index_box[-1]

        gcn_results = timed_units(
            rec, "infer", i, queries, unit,
            lambda index, q: retrieval.gcn_retrieve(model, index, emb, q, REFERENCE_QES),
            prepare=fresh_index)
        index = index_box[-1]
        topk = {}
        for k in TOPK_SWEEP:
            topk[k] = timed_units(rec, "topk", (i, k), queries, 4 * unit,
                                  lambda _, q: retrieval.topk_retrieve(index, q, k))
        threshold = timed_units(rec, "threshold", i, queries, 4 * unit,
                                lambda _, q: retrieval.threshold_retrieve(index, q, TAU_DIST))

        relevant = {}

        def score(_, r):
            relevant[r.query_id] = truth.relevant(r.query_id)
            return evaluation.per_query_prf(r.ids(), relevant[r.query_id])

        gcn_prf = timed_units(rec, "eval", i, gcn_results, self.eval_unit, score)
        gcn_f = evaluation.macro_average(gcn_prf)[2]
        topk_f = {
            k: evaluation.macro_average(
                [evaluation.per_query_prf(r.ids(), relevant[r.query_id]) for r in rs])[2]
            for k, rs in topk.items()
        }
        best_k = max(TOPK_SWEEP, key=lambda k: (topk_f[k], -k))

        # Checks against the oracle.
        for q in queries:
            rec.check(f"relevant {q}", relevant[q] == geo.relevant(q))
        rec.check("gcn macro-F", oracle.check_close(gcn_f, oracle.macro_f(geo, [(r.query_id, r.ids()) for r in gcn_results])))
        for k, rs in topk.items():
            rec.check(f"top-{k} macro-F", oracle.check_close(topk_f[k], oracle.macro_f(geo, [(r.query_id, r.ids()) for r in rs])))
            for r in rs:
                rec.check(f"top-{k} {r.query_id}", oracle.check_topk(ranking, r.query_id, k, r.ids()))
        for r in threshold:
            rec.check(f"threshold {r.query_id}", oracle.check_threshold(ranking, r.query_id, TAU_DIST, r.ids()))
        for q in queries[:self.neighbor_checks]:
            rec.check(f"neighbors {q}", oracle.check_neighbors(
                ranking, q, REFERENCE_QES.k1, index.neighbors(q, REFERENCE_QES.k1).neighbors))
        perm_rng = np.random.default_rng([self.seed, 7])
        for j, r in enumerate(gcn_results[:self.qes_checks]):
            check_qes(rec, ranking, weights, model, index, emb, r, perm_rng if j == 0 else None)
        sink = io.StringIO()
        retrieval.export_pairs(gcn_results, sink)
        rec.check("pair file", oracle.check_pair_file(sink.getvalue(), as_pairs(gcn_results)))

        classes = {v: geo.cls(v) for v in range(s_in["n"])}
        gcn_stats = evaluation.view_graph_stats(gcn_results, truth, classes)
        topk_stats = evaluation.view_graph_stats(topk[best_k], truth, classes)
        pairs = oracle.collapse(as_pairs(gcn_results))
        tp, fp, cross = oracle.pair_stats(geo, pairs)
        rec.check("gcn view-graph stats",
                  (gcn_stats.true_positive_pairs, gcn_stats.false_positive_pairs,
                   gcn_stats.cross_class_false_positives) == (tp, fp, cross))
        topk_cross = oracle.pair_stats(geo, oracle.collapse(as_pairs(topk[best_k])))[2]
        rec.check("top-k cross-class pairs", topk_stats.cross_class_false_positives == topk_cross)
        if i == 0:
            rec.quality.update({
                "retrieval.pairs_emitted": len(pairs),
                "retrieval.retrieved_mean": float(np.mean([len(r) for r in gcn_results])),
                "retrieval.pair_precision": tp / len(pairs) if pairs else 0.0,
                "retrieval.cross_class_fp": cross,
                "retrieval.topk_cross_class_fp": topk_cross,
            })
        return gcn_f, topk_f[best_k]


class Ring360(RingWorkload):
    """The criterion-5 scene the reference model was trained on, plus a
    held-out copy of the same geometry with fresh noise. Training uses
    every fourth query of the criterion-5 scene, so that a run repeats it
    often enough to time."""

    name = "ring360"
    unit = 24
    eval_unit = 60
    setup_repeats = 10
    qes_checks = 4
    epochs = 2

    def scene_configs(self):
        n = 96 if self.tiny else 360
        return [ring360_config(REFERENCE_SEED, n), ring360_config(heldout_seed(self.seed), n)]

    def train_queries(self, n):
        return list(range(0, n, 4))

    def queries(self, n):
        return list(range(n))


class RingLarge(RingWorkload):
    """A 2000-image ring of the same family, worked on a seeded sample of
    48 queries: kNN scans, subgraph building, overlap parsing and
    ground-truth lookups dominate here, not the GCN. Training uses 32 of
    them; with 16, two epochs did not always lower the loss."""

    name = "ring-large"
    unit = 4
    eval_unit = 4
    epochs = 2
    setup_repeats = 2

    def scene_configs(self):
        return [ring360_config(heldout_seed(self.seed), 240 if self.tiny else 2000)]

    def queries(self, n):
        return sorted(stride_sample(self.seed, n, 16 if self.tiny else 48))

    def train_queries(self, n):
        return stride_sample(self.seed, n, 16 if self.tiny else 32)


def query_threads():
    """One query thread per core but one. With a thread on every core of a
    2-vCPU shared host, a slow spell on either vCPU set the pace of the
    threaded commands: whole runs timed `infer` at 0.91 s against 0.55 s,
    unseen by the single-threaded pace probe."""
    return max(1, len(os.sched_getaffinity(0)) - 1)


class CliPipeline:
    """The README's command sequence through `cli.main`, on files, for a
    720-image ring; `infer` and `baseline` run with `query_threads()`.
    Each command is one timed unit. The two `baseline` commands take 0.05
    and 0.1 s, so each round runs them three times, and `eval` of the GCN
    pairs, whose repetitions ranged from 0.38 to 1.17 s within single runs,
    also three times: their medians get more repetitions than whole rounds
    give."""

    name = "cli-pipeline"
    setup_repeats = 0  # synth and index run inside every round
    baseline_repeats = 3
    eval_repeats = 3
    pipeline_phases = ("setup", "train", "infer", "topk", "threshold", "eval", "other")

    def __init__(self, seed, tiny):
        self.seed = seed
        self.n = 120 if tiny else 720
        self.n_queries = 16 if tiny else 96
        self.n_train = 8
        self.epochs = 2
        self.dir = OUT / f"{self.name}-{seed}"

    def path(self, name):
        return str(self.dir / name)

    def make_inputs(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        queries = sorted(stride_sample(self.seed, self.n, self.n_queries))
        train = stride_sample(self.seed, self.n, self.n_train)
        Path(self.path("queries.txt")).write_text("".join(f"{q}\n" for q in queries))
        Path(self.path("train-queries.txt")).write_text("".join(f"{q}\n" for q in train))
        return {
            "queries": queries,
            "truth": oracle.RingTruth(self.n, SYMMETRY, OVERLAP_ANGLE, TAU_MO, TAU_CT),
            "weights": oracle.parse_checkpoint(REFERENCE_MODEL.read_bytes()),
        }

    def command(self, rec, phase, name, argv, work=1):
        with rec.timed(phase, name, work):
            code = cli.main(argv)
        rec.check(f"{name} exit code {code}", code == 0)

    def round(self, inputs, state, rec):
        p = self.path
        threads = str(query_threads())
        n = len(inputs["queries"])
        self.command(rec, "setup", "synth", [
            "synth", "--embeddings", p("scene.emb"), "--overlaps", p("scene.ov"),
            "--classes", p("scene.cls"), "--n-images", str(self.n), "--symmetry", str(SYMMETRY),
            "--overlap-angle", repr(OVERLAP_ANGLE), "--noise-sigma", repr(NOISE),
            "--dim", str(DIM), "--seed", str(heldout_seed(self.seed))])
        self.command(rec, "setup", "index", [
            "index", "--embeddings", p("scene.emb"), "--k", "10", "--knn-out", p("knn.txt")])
        data = Path(p("scene.emb")).read_bytes()
        if "ranking" not in inputs:
            inputs["ranking"] = oracle.Ranking(*oracle.decode_embeddings(data))
            inputs["embeddings"] = data
        rec.check("synth bytes repeat", data == inputs["embeddings"])
        ranking, geo, queries = inputs["ranking"], inputs["truth"], inputs["queries"]
        qp = REFERENCE_QES
        self.command(rec, "train", "train", [
            "train", "--embeddings", p("scene.emb"), "--overlaps", p("scene.ov"),
            "--model", p("trained.ckpt"), "--queries", p("train-queries.txt"),
            "--history-out", p("history.csv"), "--k1", str(qp.k1), "--k2", str(qp.k2),
            "--u", str(qp.u), "--tau-mo", repr(TAU_MO), "--tau-ct", repr(TAU_CT),
            "--lr", "0.01", "--epochs", str(self.epochs), "--batch-size", "8",
            "--beta2", "0.99", "--seed", str(REFERENCE_SEED),
            "--conv-widths", ",".join(map(str, REFERENCE_CONV_WIDTHS)),
            "--fc-widths", ",".join(map(str, REFERENCE_FC_WIDTHS))])
        rec.ops(self.n_train * self.epochs)
        self.command(rec, "infer", "infer", [
            "infer", "--embeddings", p("scene.emb"), "--model", str(REFERENCE_MODEL),
            "--queries", p("queries.txt"), "--k1", str(qp.k1), "--k2", str(qp.k2),
            "--u", str(qp.u), "--threads", threads, "--pairs-out", p("gcn.pairs"),
            "--results-out", p("gcn.results")], n)
        for _ in range(self.baseline_repeats):
            self.command(rec, "topk", "baseline-topk", [
                "baseline", "--embeddings", p("scene.emb"), "--queries", p("queries.txt"),
                "--topk", "30", "--threads", threads, "--pairs-out", p("topk.pairs"),
                "--results-out", p("topk.results")], n)
            self.command(rec, "threshold", "baseline-threshold", [
                "baseline", "--embeddings", p("scene.emb"), "--queries", p("queries.txt"),
                "--tau-dist", repr(TAU_DIST), "--threads", threads, "--pairs-out",
                p("threshold.pairs"), "--results-out", p("threshold.results")], n)
        for _ in range(self.eval_repeats):
            self.command(rec, "eval", "eval-gcn", [
                "eval", "--pairs", p("gcn.pairs"), "--overlaps", p("scene.ov"),
                "--queries", p("queries.txt"), "--report-out", p("gcn.report")], n)
        self.command(rec, "other", "eval-topk", [
            "eval", "--pairs", p("topk.pairs"), "--overlaps", p("scene.ov"),
            "--queries", p("queries.txt"), "--report-out", p("topk.report")])
        for route in ("gcn", "topk"):
            self.command(rec, "other", f"stats-{route}", [
                "stats", "--pairs", p(f"{route}.pairs"), "--overlaps", p("scene.ov"),
                "--classes", p("scene.cls"), "--report-out", p(f"{route}.stats")])
        rec.ops((1 + 2 * self.baseline_repeats + self.eval_repeats) * n)
        self.check_outputs(inputs, rec, ranking, geo, queries)

    def check_outputs(self, inputs, rec, ranking, geo, queries):
        p = self.path
        for line in Path(p("knn.txt")).read_text().splitlines():
            fields = line.split()
            q = int(fields[0])
            got = [(int(v), float(d)) for v, d in zip(fields[1::2], fields[2::2])]
            rec.check(f"index knn {q}", oracle.check_neighbors(ranking, q, 10, got))

        history = Path(p("history.csv")).read_text().strip().split("\n")[1:]
        losses = [float(row.split(",")[1]) for row in history]
        rec.check("train: last-epoch loss below the first", losses[-1] < losses[0])
        rec.quality["train_loss"] = losses[-1]
        checkpoint = Path(p("trained.ckpt")).read_bytes()
        if "checkpoint" in inputs:
            rec.check("train: checkpoint bytes repeat", checkpoint == inputs["checkpoint"])
        inputs["checkpoint"] = checkpoint

        results = {}
        for route in ("gcn", "topk", "threshold"):
            per_query = {q: [] for q in queries}
            for row in Path(p(f"{route}.results")).read_text().strip().split("\n")[1:]:
                q, v, s = row.split(",")
                per_query[int(q)].append((int(v), float(s)))
            results[route] = sorted(per_query.items())
            text = Path(p(f"{route}.pairs")).read_text()
            rec.check(f"{route} pair file", oracle.check_pair_file(text, results[route]))
        for q, got in results["topk"]:
            rec.check(f"top-30 {q}", oracle.check_topk(ranking, q, 30, [v for v, _ in got]))
        for q, got in results["threshold"]:
            rec.check(f"threshold {q}", oracle.check_threshold(ranking, q, TAU_DIST, [v for v, _ in got]))

        weights, qp = inputs["weights"], REFERENCE_QES
        for q, got in results["gcn"][:2]:
            nodes, hop, adjacency, features = oracle.build_subgraph(ranking, q, qp.k1, qp.k2, qp.u)
            probs = oracle.forward(weights, adjacency, features)
            rec.check(f"gcn retrieval {q}", oracle.check_gcn_retrieval(nodes, hop, probs, [v for v, _ in got]))

        emb = embeddings.load_embeddings(inputs["embeddings"])
        index = knn.build_index(emb)
        model = gcn.load_model(REFERENCE_MODEL.read_bytes())
        library = [retrieval.gcn_retrieve(model, index, emb, q, qp) for q in queries]
        sink = io.StringIO()
        retrieval.export_pairs(library, sink)
        rec.check("threaded infer equals library run",
                  Path(p("gcn.pairs")).read_text() == sink.getvalue())

        for route, metric in (("gcn", "gcn_macro_f"), ("topk", "topk_macro_f")):
            pairs = oracle.collapse(results[route])
            partners = {q: set() for q in queries}
            for a, b in pairs:
                for x, y in ((a, b), (b, a)):
                    if x in partners:
                        partners[x].add(y)
            report = Path(p(f"{route}.report")).read_text()
            rec.check(f"eval {route}", oracle.check_eval_report(report, geo, sorted(partners.items())))
            rec.check(f"stats {route}", oracle.check_stats_report(
                Path(p(f"{route}.stats")).read_text(), geo, pairs))
            rec.quality[metric] = float(report.strip().split("\n")[-1].split(",")[3])
        rec.quality["heldout_macro_f"] = rec.quality["gcn_macro_f"]
        gcn_pairs = oracle.collapse(results["gcn"])
        tp, fp, cross = oracle.pair_stats(geo, gcn_pairs)
        rec.quality.update({
            "retrieval.pairs_emitted": len(gcn_pairs),
            "retrieval.retrieved_mean": float(np.mean([len(g) for _, g in results["gcn"]])),
            "retrieval.pair_precision": tp / len(gcn_pairs) if gcn_pairs else 0.0,
            "retrieval.cross_class_fp": cross,
            "retrieval.topk_cross_class_fp": oracle.pair_stats(geo, oracle.collapse(results["topk"]))[2],
        })


WORKLOADS = {w.name: w for w in (Ring360, RingLarge, CliPipeline)}
