"""Span tracing from outside the program.

`Tracer.install()` replaces each traced public function with a timing
wrapper everywhere the program looks it up: on its defining module, on
every matchgraph module that imported it by name, and on the class for
methods. Each call becomes a span (name, start, end, parent); spans stay
in memory until `uninstall()` and are reduced to per-layer metrics by
`layer_metrics`. Epoch boundaries come from the trainer's INFO log lines.
"""

import functools
import logging
import sys
import threading
import time

import numpy as np

# (module, attribute, span name); "Class.method" attributes are methods.
TRACED = [
    ("embeddings", "load_embeddings", "embeddings.load"),
    ("embeddings", "save_embeddings", "embeddings.save"),
    ("knn", "build_index", "knn.build_index"),
    ("knn", "query_knn", "knn.query"),
    ("knn", "Index.neighbors", "knn.neighbors"),
    ("subgraph", "build_qes", "subgraph.build_qes"),
    ("subgraph", "discover_nodes", "subgraph.discover"),
    ("subgraph", "append_edges", "subgraph.edges"),
    ("subgraph", "compute_features", "subgraph.features"),
    ("gcn", "model_forward", "gcn.forward"),
    ("gcn", "backward", "gcn.backward"),
    ("gcn", "aggregation_matrix", "gcn.aggregation"),
    ("gcn", "load_model", "gcn.load_model"),
    ("gcn", "save_model", "gcn.save_model"),
    ("trainer", "train", "trainer.train"),
    ("trainer", "build_training_set", "trainer.build_training_set"),
    ("trainer", "label_qes", "trainer.label_qes"),
    ("trainer", "optimizer_step", "trainer.optimizer_step"),
    ("trainer", "average_gradients", "trainer.average_gradients"),
    ("trainer", "load_overlaps", "trainer.load_overlaps"),
    ("retrieval", "gcn_retrieve", "retrieval.gcn_retrieve"),
    ("retrieval", "topk_retrieve", "retrieval.topk"),
    ("retrieval", "threshold_retrieve", "retrieval.threshold"),
    ("retrieval", "export_pairs", "retrieval.export"),
    ("retrieval", "read_pair_file", "retrieval.read_pairs"),
    ("evaluation", "GroundTruth.from_records", "evaluation.truth_build"),
    ("evaluation", "GroundTruth.relevant", "evaluation.relevant"),
    ("evaluation", "per_query_prf", "evaluation.prf"),
    ("evaluation", "view_graph_stats", "evaluation.view_graph"),
    ("synthetic", "generate_scene", "synthetic.generate_scene"),
    ("cli", "cmd_synth", "cli.synth"),
    ("cli", "cmd_index", "cli.index"),
    ("cli", "cmd_train", "cli.train"),
    ("cli", "cmd_infer", "cli.infer"),
    ("cli", "cmd_baseline", "cli.baseline"),
    ("cli", "cmd_eval", "cli.eval"),
    ("cli", "cmd_stats", "cli.stats"),
]

# Per-layer metric -> (reduction, span name). "total" sums inclusive
# durations, "self" sums durations minus child spans, "calls" counts.
SPAN_METRICS = {
    "knn.build_index_s": ("total", "knn.build_index"),
    "knn.neighbors_calls": ("calls", "knn.neighbors"),
    "knn.query_calls": ("calls", "knn.query"),
    "knn.query_s": ("total", "knn.query"),
    "subgraph.build_qes_calls": ("calls", "subgraph.build_qes"),
    "subgraph.build_qes_self_s": ("self", "subgraph.build_qes"),
    "subgraph.discover_s": ("total", "subgraph.discover"),
    "subgraph.edges_s": ("total", "subgraph.edges"),
    "subgraph.features_s": ("total", "subgraph.features"),
    "gcn.forward_calls": ("calls", "gcn.forward"),
    "gcn.forward_s": ("total", "gcn.forward"),
    "gcn.backward_calls": ("calls", "gcn.backward"),
    "gcn.backward_s": ("total", "gcn.backward"),
    "gcn.aggregation_calls": ("calls", "gcn.aggregation"),
    "gcn.aggregation_s": ("total", "gcn.aggregation"),
    "gcn.load_model_s": ("total", "gcn.load_model"),
    "gcn.save_model_s": ("total", "gcn.save_model"),
    "trainer.build_training_set_s": ("total", "trainer.build_training_set"),
    "trainer.label_qes_s": ("total", "trainer.label_qes"),
    "trainer.optimizer_steps": ("calls", "trainer.optimizer_step"),
    "trainer.optimizer_step_s": ("total", "trainer.optimizer_step"),
    "trainer.average_gradients_s": ("total", "trainer.average_gradients"),
    "trainer.load_overlaps_s": ("total", "trainer.load_overlaps"),
    "retrieval.gcn_retrieve_self_s": ("self", "retrieval.gcn_retrieve"),
    "retrieval.topk_self_s": ("self", "retrieval.topk"),
    "retrieval.threshold_self_s": ("self", "retrieval.threshold"),
    "retrieval.export_s": ("total", "retrieval.export"),
    "retrieval.read_pairs_s": ("total", "retrieval.read_pairs"),
    "evaluation.truth_build_s": ("total", "evaluation.truth_build"),
    "evaluation.relevant_calls": ("calls", "evaluation.relevant"),
    "evaluation.relevant_s": ("total", "evaluation.relevant"),
    "evaluation.prf_s": ("total", "evaluation.prf"),
    "evaluation.view_graph_s": ("total", "evaluation.view_graph"),
    "embeddings.load_s": ("total", "embeddings.load"),
    "embeddings.save_s": ("total", "embeddings.save"),
    "synthetic.generate_scene_s": ("total", "synthetic.generate_scene"),
    "cli.synth_s": ("total", "cli.synth"),
    "cli.index_s": ("total", "cli.index"),
    "cli.train_s": ("total", "cli.train"),
    "cli.infer_s": ("total", "cli.infer"),
    "cli.baseline_s": ("total", "cli.baseline"),
    "cli.eval_s": ("total", "cli.eval"),
    "cli.stats_s": ("total", "cli.stats"),
}

# Metrics derived from more than one span or from recorded results.
DERIVED_METRICS = [
    "knn.memo_hit_ratio",
    "subgraph.nodes_mean",
    "subgraph.nodes_max",
    "subgraph.edge_density",
    "trainer.epoch_s",
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_time")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_time = 0.0


class _EpochLog(logging.Handler):
    def __init__(self, times):
        super().__init__(logging.INFO)
        self.times = times

    def emit(self, record):
        if record.getMessage().startswith("epoch "):
            self.times.append(time.perf_counter())


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.epoch_times: list[float] = []
        self.subgraph_sizes: list[tuple[int, float]] = []
        self._local = threading.local()
        self._patches = []
        self._log_state = None

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, time.perf_counter(), stack[-1] if stack else None)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = time.perf_counter()
                if span.parent is not None:
                    span.parent.child_time += span.end - span.start
                tracer.spans.append(span)
            if name == "subgraph.build_qes":
                a = result.adjacency
                n = len(result)
                tracer.subgraph_sizes.append((n, float(a.sum()) / (n * (n - 1)) if n > 1 else 0.0))
            return result

        return traced

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self):
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "matchgraph" or k.startswith("matchgraph.")) and m is not None]
        for module_name, attr, name in TRACED:
            module = sys.modules["matchgraph." + module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                raw = owner.__dict__[meth]
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(name, raw.__func__))
                else:
                    replacement = self._wrap(name, raw)
                self._patches.append((owner, meth, raw))
                setattr(owner, meth, replacement)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, wrapper)
        log = logging.getLogger("matchgraph.trainer")
        handler = _EpochLog(self.epoch_times)
        self._log_state = (log, handler, log.level, log.propagate)
        log.setLevel(logging.INFO)
        log.propagate = False
        log.addHandler(handler)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()
        log, handler, level, propagate = self._log_state
        log.removeHandler(handler)
        log.setLevel(level)
        log.propagate = propagate

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def layer_metrics(self):
        """Reduce the recorded spans to every per-layer metric; a layer that
        never ran reports 0."""
        calls, total, self_time = {}, {}, {}
        for s in self.spans:
            d = s.end - s.start
            calls[s.name] = calls.get(s.name, 0) + 1
            total[s.name] = total.get(s.name, 0.0) + d
            self_time[s.name] = self_time.get(s.name, 0.0) + d - s.child_time
        out = {}
        for metric, (how, name) in SPAN_METRICS.items():
            table = {"calls": calls, "total": total, "self": self_time}[how]
            out[metric] = table.get(name, 0)
        neighbors = calls.get("knn.neighbors", 0)
        misses = sum(1 for s in self.spans
                     if s.name == "knn.query" and s.parent is not None
                     and s.parent.name == "knn.neighbors")
        out["knn.memo_hit_ratio"] = (neighbors - misses) / neighbors if neighbors else 0.0
        sizes = [n for n, _ in self.subgraph_sizes]
        out["subgraph.nodes_mean"] = float(np.mean(sizes)) if sizes else 0.0
        out["subgraph.nodes_max"] = max(sizes) if sizes else 0
        out["subgraph.edge_density"] = (
            float(np.mean([d for _, d in self.subgraph_sizes])) if sizes else 0.0
        )
        out["trainer.epoch_s"] = self._mean_epoch()
        return out

    def _mean_epoch(self):
        """Mean epoch wall time: each epoch ends at its log line and starts
        at the previous one, or at the end of the training-set build."""
        durations = []
        for train in (s for s in self.spans if s.name == "trainer.train"):
            builds = [s.end for s in self.spans
                      if s.name == "trainer.build_training_set" and s.parent is train]
            marks = [t for t in self.epoch_times if train.start <= t <= train.end]
            if builds and marks:
                edges = [builds[0]] + marks
                durations += [b - a for a, b in zip(edges, edges[1:])]
        return float(np.mean(durations)) if durations else 0.0
