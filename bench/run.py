"""Benchmark entry point.

    python3 bench/run.py --workload ring360 --seed 1 --seconds 30 --trace 0

Runs one workload in this process against the program under src/ next to
this directory, checks its outputs, and prints as the last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 each pass runs once
untraced and once traced and the metrics are the per-layer ones. --tiny
shrinks every input so a run takes seconds (used by the tests).
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# One BLAS thread. With the library default (one per core) on a 2-vCPU
# machine, one other busy process slowed gcn_retrieve about tenfold
# (18 vs 240 queries/s). Set in main() before numpy is first imported.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# name -> unit; the order is the order printed.
END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "train_loss": "nats",
    "infer_qps": "1/s",
    "topk_qps": "1/s",
    "threshold_qps": "1/s",
    "eval_qps": "1/s",
    "pipeline_s": "s",
    "gcn_macro_f": "F",
    "heldout_macro_f": "F",
    "topk_macro_f": "F",
    "peak_rss_mb": "MB",
}
QUALITY = ("train_loss", "gcn_macro_f", "heldout_macro_f", "topk_macro_f")
RETRIEVAL_COUNTERS = {
    "retrieval.pairs_emitted": "count",
    "retrieval.retrieved_mean": "count",
    "retrieval.pair_precision": "ratio",
    "retrieval.cross_class_fp": "count",
    "retrieval.topk_cross_class_fp": "count",
}


def import_program():
    """Put this checkout's src/ first on the path; refuse any other copy."""
    if not (SRC / "matchgraph" / "__init__.py").is_file():
        sys.exit(f"bench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import matchgraph

    if Path(matchgraph.__file__).resolve().parent != SRC / "matchgraph":
        sys.exit(f"bench: imported matchgraph from {matchgraph.__file__}, not {SRC}")


def layer_units():
    from tracing import DERIVED_METRICS, SPAN_METRICS

    units = {}
    for name in list(SPAN_METRICS) + DERIVED_METRICS:
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith(("_calls", "_steps")):
            units[name] = "count"
        elif name.endswith("ratio") or name.endswith("density"):
            units[name] = "ratio"
        else:
            units[name] = "nodes"
    units.update(RETRIEVAL_COUNTERS)
    units["trace.overhead_s"] = "s"
    return units


def machine_facts():
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    threads = {k: os.environ.get(k) for k in BLAS_THREADS}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def one_pass(workload, rec, setup_repeats, seconds=0.0, min_rounds=1):
    """Make inputs, set up, then run whole rounds until `seconds` pass."""
    inputs = workload.make_inputs()
    state = None
    for _ in range(setup_repeats):
        with rec.timed("setup", "setup"):
            state = workload.setup(inputs)
    rounds, start = 0, time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        workload.round(inputs, state, rec)
        rounds += 1


def end_to_end(workload, rec, seconds):
    one_pass(workload, rec, workload.setup_repeats, seconds, min_rounds=3)
    values = {
        "setup_s": rec.seconds("setup"),
        "train_s": rec.seconds("train"),
        "infer_qps": rec.rate("infer"),
        "topk_qps": rec.rate("topk"),
        "threshold_qps": rec.rate("threshold"),
        "eval_qps": rec.rate("eval"),
        "pipeline_s": rec.seconds(*workload.pipeline_phases),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    values.update({name: rec.quality[name] for name in QUALITY})
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(make_workload, rec, seconds):
    """Alternate untraced and traced passes of identical work (set up once,
    one round); report the lower median of each layer metric over the
    traced passes, so counts stay whole numbers."""
    from tracing import Tracer

    rows, start = [], time.perf_counter()
    spans = None
    while not rows or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        workload = make_workload()
        one_pass(workload, rec, min(1, workload.setup_repeats))
        plain = time.perf_counter() - t0
        with Tracer() as tracer:
            t0 = time.perf_counter()
            workload = make_workload()
            one_pass(workload, rec, min(1, workload.setup_repeats))
            traced = time.perf_counter() - t0
        row = tracer.layer_metrics()
        row.update({k: rec.quality[k] for k in RETRIEVAL_COUNTERS})
        row["trace.overhead_s"] = traced - plain
        rows.append(row)
        spans = tracer.spans
    units = layer_units()
    metrics = {name: {"value": statistics.median_low(r[name] for r in rows), "unit": units[name]}
               for name in units}
    return metrics, spans


def write_spans(path, spans):
    ids = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as fp:
        fp.write("id\tname\tstart\tend\tparent\n")
        for i, s in enumerate(spans):
            parent = ids[id(s.parent)] if s.parent is not None else -1
            fp.write(f"{i}\t{s.name}\t{s.start!r}\t{s.end!r}\t{parent}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description="matchgraph benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    os.environ.update(BLAS_THREADS)
    import_program()
    import matchgraph.cli  # noqa: F401  (imported before tracing patches modules)
    sys.path.insert(0, str(HERE))
    from workloads import OUT, WORKLOADS, Recorder

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    def make_workload():
        return WORKLOADS[args.workload](args.seed, args.tiny)

    rec = Recorder()
    OUT.mkdir(exist_ok=True)
    started = time.perf_counter()
    if args.trace:
        metrics, spans = per_layer(make_workload, rec, args.seconds)
        write_spans(OUT / f"spans-{args.workload}-{args.seed}.tsv", spans)
    else:
        metrics = end_to_end(make_workload(), rec, args.seconds)
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }
    machine = machine_facts()
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  tiny=args.tiny, wall_s=time.perf_counter() - started,
                  machine=machine, failures=rec.failures[:20],
                  pace_factor=rec.pace.factor(), pace_probes=rec.pace.probes,
                  times={phase: [[str(unit), ts] for unit, ts in units.items()]
                         for phase, units in rec.times.items()})
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fp:
        fp.write(json.dumps(record) + "\n")
    for what in rec.failures[:20]:
        print(f"check failed: {what}", file=sys.stderr)
    print("machine: " + json.dumps(machine))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
