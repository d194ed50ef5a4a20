"""Command-line surface wiring the library together.

Subcommands: synth, index, train, infer, baseline, eval, stats. Every
command is a deterministic function of its inputs; synth and train also
take --seed. infer and baseline answer their queries one after another
in one thread: a neighbor index is not shared between threads. They
still accept --threads (an integer, also as a config key) and ignore it,
so that existing command lines keep working. A --config file of
key=value lines, keyed by long flag name with _ for -, supplies settings;
explicit flags win. A setting given nowhere takes the library's default;
the only defaults stated here are synth's 360 images and index's k of 10.

Exit codes: 0 success, 2 usage error, 3 parse/read error, 4 compute error.
"""

import argparse
import io
import logging
import os
import sys
import time

import numpy as np

from . import evaluation, overlaps, retrieval, synthetic, trainer
from .embeddings import decode_text, load_embeddings, raise_earliest, read_rows, save_embeddings
from .errors import InvalidRecord, MatchgraphError, ParseError
from .gcn import load_model, save_model
from .knn import build_index
from .subgraph import QesParams

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_COMPUTE = 4

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _configure_logging() -> None:
    level = os.environ.get("MATCHGRAPH_LOG", "warn").lower()
    logging.basicConfig(level=_LOG_LEVELS.get(level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _read_text(path: str, what: str) -> str:
    """The text of an input file: its bytes, decoded once as UTF-8."""
    with open(path, "rb") as fp:
        return decode_text(fp.read(), what)


def _read_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    lines = io.StringIO(_read_text(path, "config file"), newline=None)
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise InvalidRecord(f"config line {lineno} is not key=value: {stripped!r}")
        key, _, value = stripped.partition("=")
        cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


# Library names whose flag, and so config key, differs.
_FLAGS = {"learning_rate": "lr", "symmetry_s": "symmetry"}


def _given(args, cfg, **casts) -> dict:
    """The settings named in `casts` that were given, by library name: the
    flag's value, else the config value parsed by its cast. Settings given
    nowhere are left out."""
    given = {}
    for name, cast in casts.items():
        key = _FLAGS.get(name, name)
        value = getattr(args, key)
        if value is None and key in cfg:
            raw = cfg[key]
            try:
                value = cast(raw)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                kind = cast.__name__.lstrip("_")
                raise InvalidRecord(f"config value {key}={raw!r} is not a valid {kind}: {exc}")
        if value is not None:
            given[name] = value
    return given


def _widths(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _number(text: str, ok, expected: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or not ok(value):
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return value


def _distance(text: str) -> float:
    return _number(text, lambda v: v >= 0.0, "a number >= 0 or inf")


def _probability(text: str) -> float:
    return _number(text, lambda v: 0.0 <= v < 1.0, "a number in [0, 1)")


def _fraction(text: str) -> float:
    return _number(text, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")


def _read_queries(path: str) -> list[int]:
    """One image id per line; a line that is not an integer in [0, 2^64)
    is refused with its byte offset."""
    text = _read_text(path, "query file")
    rows, fault = read_rows(text, np.dtype([("id", "u8")]), "query")
    raise_earliest(text, fault)
    return rows["id"].tolist()


def _load_embeddings_file(path: str):
    with open(path, "rb") as fp:
        return load_embeddings(fp)


def _load_overlaps_file(path: str) -> overlaps.OverlapStore:
    """The store of a binary or text overlap file, logged with its record
    count, format and load seconds."""
    start = time.perf_counter()
    with open(path, "rb") as fp:
        data = fp.read()
    store = overlaps.load_overlaps(data)
    log.info("overlaps %s: %d records, %s, %.4f s", path, len(store),
             "binary" if data[:4] == overlaps.MAGIC else "text", time.perf_counter() - start)
    return store


def _qes_params(args, cfg) -> QesParams:
    return QesParams(**_given(args, cfg, k1=int, k2=int, u=int))


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text)


def _write_results(args, results) -> int:
    """The pair file, and with --results-out one CSV row per retrieved id.
    Returns the number of pairs written."""
    with open(args.pairs_out, "w", encoding="utf-8") as fp:
        pairs = retrieval.export_pairs(results, fp)
    if args.results_out:
        rows = ["query_id,image_id,score"]
        for result in results:
            rows += [f"{result.query_id},{v},{s!r}" for v, s in result.retrieved]
        _write_text(args.results_out, "\n".join(rows) + "\n")
    return len(pairs)


def cmd_synth(args, cfg) -> int:
    settings = _given(args, cfg, n_images=int, symmetry_s=int, overlap_angle=float,
                      noise_sigma=float, dim=int, seed=int)
    scene = synthetic.generate_scene(synthetic.SceneConfig(**{"n_images": 360, **settings}))
    # every output is built before any file is opened, so a refused scene
    # writes nothing
    files = [(args.embeddings, save_embeddings(scene.embeddings)),
             (args.overlaps, overlaps.save_overlaps(scene.overlaps))]
    if args.classes:
        files.append((args.classes, synthetic.save_classes(scene.classes).encode("utf-8")))
    for path, data in files:
        with open(path, "wb") as fp:
            fp.write(data)
    return EXIT_OK


def cmd_index(args, cfg) -> int:
    emb = _load_embeddings_file(args.embeddings)
    k = _given(args, cfg, k=int).get("k", 10)
    if k < 1:
        raise ValueError("k must be >= 1")
    index = build_index(emb)
    if args.knn_out:
        ids = sorted(emb.ids)
        pos, dist = index.table([emb.position(q) for q in ids], k)
        lines = []
        for q, near, ds in zip(ids, index.ids[pos].tolist(), dist.tolist()):
            parts = [str(q)]
            for v, d in zip(near, ds):
                parts.append(str(v))
                parts.append(repr(d))
            lines.append(" ".join(parts))
        _write_text(args.knn_out, "\n".join(lines) + "\n")
    sys.stdout.write(f"ok n={len(emb)} d={emb.dim}\n")
    return EXIT_OK


def cmd_train(args, cfg) -> int:
    emb = _load_embeddings_file(args.embeddings)
    records = _load_overlaps_file(args.overlaps)
    queries = _read_queries(args.queries) if args.queries else sorted(emb.ids)
    config = trainer.TrainConfig(
        qes_params=_qes_params(args, cfg),
        **_given(args, cfg, tau_mo=float, tau_ct=float, learning_rate=float, epochs=int,
                 batch_size=int, seed=int, beta2=float),
    )
    widths = _given(args, cfg, conv_widths=_widths, fc_widths=_widths)
    log.info("training on %d queries, %d overlap records", len(queries), len(records))
    model, history = trainer.train(emb, records, queries, config, **widths)
    if history:
        log.info("final epoch loss %.6f, fmeasure %.4f",
                 history[-1].loss, history[-1].fmeasure)
    with open(args.model, "wb") as fp:
        fp.write(save_model(model))
    rows = ["epoch,loss,precision,recall,fmeasure"]
    rows += [
        f"{h.epoch},{h.loss!r},{h.precision!r},{h.recall!r},{h.fmeasure!r}"
        for h in history
    ]
    _write_text(args.history_out, "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_infer(args, cfg) -> int:
    emb = _load_embeddings_file(args.embeddings)
    with open(args.model, "rb") as fp:
        model = load_model(fp.read())
    index = build_index(emb)
    params = _qes_params(args, cfg)
    threshold = _given(args, cfg, prob_threshold=_probability)
    queries = _read_queries(args.queries) if args.queries else sorted(emb.ids)
    _given(args, cfg, threads=int)  # checked, then ignored (see the module docstring)
    results = [retrieval.gcn_retrieve(model, index, emb, q, params, **threshold)
               for q in queries]
    log.info("retrieved %d pairs for %d queries", _write_results(args, results), len(queries))
    log.info("knn table: %s", index.counts())
    return EXIT_OK


def cmd_baseline(args, cfg) -> int:
    mode = _given(args, cfg, topk=int, tau_dist=_distance)
    _given(args, cfg, threads=int)  # checked, then ignored (see the module docstring)
    if len(mode) != 1:
        sys.stderr.write("matchgraph: error: give exactly one of --topk / --tau-dist\n")
        return EXIT_USAGE
    topk, tau = mode.get("topk"), mode.get("tau_dist")
    emb = _load_embeddings_file(args.embeddings)
    index = build_index(emb)
    queries = _read_queries(args.queries) if args.queries else sorted(emb.ids)
    if topk is not None:
        # rank all query rows in blocks up front; each query then reads the table
        index.table([emb.position(q) for q in queries], topk)
        results = [retrieval.topk_retrieve(index, q, topk) for q in queries]
    else:
        results = [retrieval.threshold_retrieve(index, q, tau) for q in queries]
    log.info("knn table: %s", index.counts())
    _write_results(args, results)
    return EXIT_OK


def _load_truth(args, cfg) -> evaluation.GroundTruth:
    if args.truth_pairs:
        pairs = retrieval.read_pair_file(_read_text(args.truth_pairs, "truth pair file"))
        return evaluation.GroundTruth.from_pairs([(a, b) for a, b, _ in pairs])
    if args.overlaps:
        store = _load_overlaps_file(args.overlaps)
        return evaluation.GroundTruth.from_columns(
            *store.columns(), **_given(args, cfg, tau_mo=_fraction, tau_ct=_fraction))
    raise InvalidRecord("ground truth requires --truth-pairs or --overlaps")


def cmd_eval(args, cfg) -> int:
    if args.queries and args.embeddings:
        sys.stderr.write("matchgraph: error: give at most one of --queries / --embeddings\n")
        return EXIT_USAGE
    predicted_pairs = retrieval.read_pair_file(_read_text(args.pairs, "pair file"))
    truth = _load_truth(args, cfg)
    predicted = retrieval.pairs_to_query_sets(predicted_pairs)
    if args.queries:
        queries = _read_queries(args.queries)
    elif args.embeddings:
        queries = sorted(_load_embeddings_file(args.embeddings).ids)
    else:
        queries = sorted(set(predicted) | set(truth.universe))
    per_query = {
        q: evaluation.per_query_prf(predicted.get(q, set()), truth.relevant(q))
        for q in queries
    }
    _write_text(args.report_out, evaluation.write_metrics_report(per_query))
    return EXIT_OK


def cmd_stats(args, cfg) -> int:
    pairs = retrieval.read_pair_file(_read_text(args.pairs, "pair file"))
    truth = _load_truth(args, cfg)
    classes = None
    if args.classes:
        classes = synthetic.load_classes(_read_text(args.classes, "class file"))
    # the pair file was checked as it was read: a < b, ids in [0, 2^64), scores in [0, 1]
    results = [retrieval.RetrievalResult._built(a, ((b, score),)) for a, b, score in pairs]
    stats = evaluation.view_graph_stats(results, truth, classes)
    cross = "NA" if stats.cross_class_false_positives is None else stats.cross_class_false_positives
    text = (
        "metric,value\n"
        f"true_positive_pairs,{stats.true_positive_pairs}\n"
        f"false_positive_pairs,{stats.false_positive_pairs}\n"
        f"cross_class_false_positives,{cross}\n"
    )
    _write_text(args.report_out, text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchgraph",
        description="Matchable image pair retrieval for structure-from-motion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="key=value defaults; flags win")

    p = sub.add_parser("synth", help="generate a synthetic ring scene")
    common(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--embeddings", required=True, help="output embedding file")
    p.add_argument("--overlaps", required=True, help="output overlap records")
    p.add_argument("--classes", default=None, help="output symmetry-class file")
    p.add_argument("--n-images", dest="n_images", type=int, default=None)
    p.add_argument("--symmetry", type=int, default=None)
    p.add_argument("--overlap-angle", dest="overlap_angle", type=float, default=None)
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("index", help="validate embeddings, optionally dump neighbor lists")
    common(p)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--knn-out", dest="knn_out", default=None)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("train", help="train the subgraph classifier")
    common(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--overlaps", required=True)
    p.add_argument("--model", required=True, help="output checkpoint path")
    p.add_argument("--queries", default=None, help="file of training query ids")
    p.add_argument("--history-out", dest="history_out", default=None)
    p.add_argument("--k1", type=int, default=None)
    p.add_argument("--k2", type=int, default=None)
    p.add_argument("--u", type=int, default=None)
    p.add_argument("--tau-mo", dest="tau_mo", type=float, default=None)
    p.add_argument("--tau-ct", dest="tau_ct", type=float, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--beta2", type=float, default=None)
    p.add_argument("--conv-widths", dest="conv_widths", type=_widths, default=None)
    p.add_argument("--fc-widths", dest="fc_widths", type=_widths, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="classify subgraphs and export matchable pairs")
    common(p)
    p.add_argument("--threads", type=int, default=None, help="accepted and ignored")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--pairs-out", dest="pairs_out", required=True)
    p.add_argument("--results-out", dest="results_out", default=None)
    p.add_argument("--queries", default=None)
    p.add_argument("--k1", type=int, default=None)
    p.add_argument("--k2", type=int, default=None)
    p.add_argument("--u", type=int, default=None)
    p.add_argument("--prob-threshold", dest="prob_threshold", type=_probability, default=None,
                   help="a number in [0, 1)")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("baseline", help="top-k or distance-threshold retrieval")
    common(p)
    p.add_argument("--threads", type=int, default=None, help="accepted and ignored")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--pairs-out", dest="pairs_out", required=True)
    p.add_argument("--results-out", dest="results_out", default=None)
    p.add_argument("--queries", default=None)
    p.add_argument("--topk", type=int, default=None)
    p.add_argument("--tau-dist", dest="tau_dist", type=_distance, default=None,
                   help="a number >= 0, or inf")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("eval", help="score a pair file against ground truth")
    common(p)
    p.add_argument("--pairs", required=True, help="predicted pair file")
    p.add_argument("--overlaps", default=None, help="overlap records as ground truth")
    p.add_argument("--truth-pairs", dest="truth_pairs", default=None,
                   help="pair file as ground truth")
    p.add_argument("--tau-mo", dest="tau_mo", type=_fraction, default=None,
                   help="a number in [0, 1]")
    p.add_argument("--tau-ct", dest="tau_ct", type=_fraction, default=None,
                   help="a number in [0, 1]")
    p.add_argument("--queries", default=None)
    p.add_argument("--embeddings", default=None,
                   help="score every image of this embedding file as a query")
    p.add_argument("--report-out", dest="report_out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stats", help="view-graph diagnostics of a pair file")
    common(p)
    p.add_argument("--pairs", required=True)
    p.add_argument("--overlaps", default=None)
    p.add_argument("--truth-pairs", dest="truth_pairs", default=None)
    p.add_argument("--tau-mo", dest="tau_mo", type=_fraction, default=None,
                   help="a number in [0, 1]")
    p.add_argument("--tau-ct", dest="tau_ct", type=_fraction, default=None,
                   help="a number in [0, 1]")
    p.add_argument("--classes", default=None)
    p.add_argument("--report-out", dest="report_out", default=None)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        cfg = _read_config(args.config) if args.config else {}
        return args.func(args, cfg)
    except ParseError as exc:
        sys.stderr.write(f"matchgraph: parse error: {exc}\n")
        return EXIT_PARSE
    except OSError as exc:
        sys.stderr.write(f"matchgraph: parse error: {exc}\n")
        return EXIT_PARSE
    except (MatchgraphError, ValueError) as exc:
        sys.stderr.write(f"matchgraph: compute error: {exc}\n")
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
