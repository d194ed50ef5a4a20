"""Command-line surface wiring the library together.

Subcommands: synth, index, train, infer, baseline, eval, stats. Every
command is a deterministic function of its inputs; synth and train also
take --seed. infer and baseline answer their queries one after another
in one thread: a neighbor index is not shared between threads. They
still accept --threads (an integer, also as a config key) and ignore it,
so that existing command lines keep working.

build_parser declares options that several commands share once, on
parent parsers. A --config file of key=value lines, keyed by long flag
name with _ for -, supplies every option whose value is not a file path;
main reads it through each option's own type before the command runs,
and explicit flags win. A setting given nowhere takes the library's
default; the only defaults stated here are synth's 360 images and
index's k of 10.

Exit codes: 0 success, 2 usage error, 3 parse/read error, 4 compute error.
"""

import argparse
import functools
import io
import logging
import os
import sys
import time

import numpy as np

from . import evaluation, overlaps, retrieval, synthetic, trainer
from .embeddings import decode_text, load_embeddings, raise_earliest, read_rows, save_embeddings
from .errors import InvalidRecord, MatchgraphError, ParseError, UnknownImage
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


def _given(args, *names) -> dict:
    """The settings in `names` that were given, as a flag or in --config,
    by library name. Settings given nowhere are left out."""
    values = {name: getattr(args, _FLAGS.get(name, name)) for name in names}
    return {name: value for name, value in values.items() if value is not None}


def _read_config_into(args, actions) -> None:
    """Fill each typed option among `actions` that the command line left
    unset from the --config file, read by the option's own type."""
    cfg = _read_config(args.config) if args.config else {}
    for action in actions:
        raw = cfg.get(action.dest)
        if action.type is None or raw is None or getattr(args, action.dest) is not None:
            continue
        try:
            setattr(args, action.dest, action.type(raw))
        except (ValueError, argparse.ArgumentTypeError) as exc:
            kind = action.type.__name__.lstrip("_")
            raise InvalidRecord(f"config value {action.dest}={raw!r} is not a valid {kind}: {exc}")


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


def _queries(args, emb) -> list[int]:
    """The ids of --queries, else every image of `emb` in ascending id."""
    return _read_queries(args.queries) if args.queries else sorted(emb.ids)


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


def _qes_params(args) -> QesParams:
    return QesParams(**_given(args, "k1", "k2", "u"))


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


def cmd_synth(args) -> int:
    settings = _given(args, "n_images", "symmetry_s", "overlap_angle", "noise_sigma", "dim",
                      "seed")
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


def cmd_index(args) -> int:
    emb = _load_embeddings_file(args.embeddings)
    k = 10 if args.k is None else args.k
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


def cmd_train(args) -> int:
    emb = _load_embeddings_file(args.embeddings)
    records = _load_overlaps_file(args.overlaps)
    queries = _queries(args, emb)
    config = trainer.TrainConfig(
        qes_params=_qes_params(args),
        **_given(args, "tau_mo", "tau_ct", "learning_rate", "epochs", "batch_size", "seed",
                 "beta2"),
    )
    widths = _given(args, "conv_widths", "fc_widths")
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


def cmd_infer(args) -> int:
    emb = _load_embeddings_file(args.embeddings)
    with open(args.model, "rb") as fp:
        model = load_model(fp.read())
    index = build_index(emb)
    params = _qes_params(args)
    threshold = _given(args, "prob_threshold")
    queries = _queries(args, emb)
    results = [retrieval.gcn_retrieve(model, index, emb, q, params, **threshold)
               for q in queries]
    log.info("retrieved %d pairs for %d queries", _write_results(args, results), len(queries))
    log.info("knn table: %s", index.counts())
    return EXIT_OK


def cmd_baseline(args) -> int:
    if (args.topk is None) == (args.tau_dist is None):
        sys.stderr.write("matchgraph: error: give exactly one of --topk / --tau-dist\n")
        return EXIT_USAGE
    emb = _load_embeddings_file(args.embeddings)
    index = build_index(emb)
    queries = _queries(args, emb)
    if args.topk is not None:
        # rank all query rows in blocks up front; each query then reads the table
        index.table([emb.position(q) for q in queries], args.topk)
        results = [retrieval.topk_retrieve(index, q, args.topk) for q in queries]
    else:
        results = [retrieval.threshold_retrieve(index, q, args.tau_dist) for q in queries]
    log.info("knn table: %s", index.counts())
    _write_results(args, results)
    return EXIT_OK


def _load_truth(args) -> evaluation.GroundTruth:
    if args.truth_pairs:
        pairs = retrieval.read_pair_file(_read_text(args.truth_pairs, "truth pair file"))
        return evaluation.GroundTruth.from_pairs([(a, b) for a, b, _ in pairs])
    if args.overlaps:
        store = _load_overlaps_file(args.overlaps)
        return evaluation.GroundTruth.from_columns(*store.columns(),
                                                   **_given(args, "tau_mo", "tau_ct"))
    raise InvalidRecord("ground truth requires --truth-pairs or --overlaps")


def cmd_eval(args) -> int:
    if args.queries and args.embeddings:
        sys.stderr.write("matchgraph: error: give at most one of --queries / --embeddings\n")
        return EXIT_USAGE
    predicted_pairs = retrieval.read_pair_file(_read_text(args.pairs, "pair file"))
    truth = _load_truth(args)
    predicted = retrieval.pairs_to_query_sets(predicted_pairs)
    if args.queries:
        queries = _read_queries(args.queries)
        for q in queries:
            if q not in predicted and q not in truth.universe:
                raise UnknownImage(
                    f"query id {q} is in neither the pair file nor the ground truth; "
                    "to score images that have no pair, give --embeddings instead")
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


def cmd_stats(args) -> int:
    pairs = retrieval.read_pair_file(_read_text(args.pairs, "pair file"))
    truth = _load_truth(args)
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
    # parent parsers, each holding options that several commands share
    shared = functools.partial(argparse.ArgumentParser, add_help=False)
    config = shared()
    config.add_argument("--config", help="key=value defaults; flags win")
    seed = shared()
    seed.add_argument("--seed", type=int, help="random seed")
    embeddings = shared()
    embeddings.add_argument("--embeddings", required=True, help="embedding file")
    qes = shared()
    for flag in ("--k1", "--k2", "--u"):
        qes.add_argument(flag, type=int)
    thresholds = shared()
    for flag in ("--tau-mo", "--tau-ct"):
        thresholds.add_argument(flag, type=_fraction, help="a number in [0, 1]")
    queries = shared()
    queries.add_argument("--queries", help="file of query ids, one per line")
    retrieve = shared()
    retrieve.add_argument("--threads", type=int, help="accepted and ignored")
    retrieve.add_argument("--pairs-out", required=True, help="output pair file")
    retrieve.add_argument("--results-out", help="output CSV of retrieved ids and scores")
    truth = shared()
    truth.add_argument("--pairs", required=True, help="predicted pair file")
    truth.add_argument("--overlaps", help="overlap record file")
    truth.add_argument("--truth-pairs", help="pair file as ground truth")
    truth.add_argument("--report-out", help="output report; stdout if not given")

    p = sub.add_parser("synth", parents=[config, seed, embeddings],
                       help="generate a synthetic ring scene: embeddings, overlaps, classes")
    p.add_argument("--overlaps", required=True, help="overlap record file")
    p.add_argument("--classes", help="symmetry-class file")
    p.add_argument("--n-images", type=int)
    p.add_argument("--symmetry", type=int)
    p.add_argument("--overlap-angle", type=float)
    p.add_argument("--noise-sigma", type=float)
    p.add_argument("--dim", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("index", parents=[config, embeddings],
                       help="validate embeddings, optionally dump neighbor lists")
    p.add_argument("--k", type=int)
    p.add_argument("--knn-out")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("train", parents=[config, seed, embeddings, qes, thresholds, queries],
                       help="train the subgraph classifier")
    p.add_argument("--overlaps", required=True, help="overlap record file")
    p.add_argument("--model", required=True, help="model checkpoint")
    p.add_argument("--history-out")
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--beta2", type=float)
    p.add_argument("--conv-widths", type=_widths)
    p.add_argument("--fc-widths", type=_widths)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", parents=[config, embeddings, retrieve, queries, qes],
                       help="classify subgraphs and export matchable pairs")
    p.add_argument("--model", required=True, help="model checkpoint")
    p.add_argument("--prob-threshold", type=_probability, help="a number in [0, 1)")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("baseline", parents=[config, embeddings, retrieve, queries],
                       help="top-k or distance-threshold retrieval")
    p.add_argument("--topk", type=int)
    p.add_argument("--tau-dist", type=_distance, help="a number >= 0, or inf")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("eval", parents=[config, truth, thresholds, queries],
                       help="score a pair file against ground truth; with --embeddings, "
                            "every image of the collection is a query")
    p.add_argument("--embeddings", help="embedding file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stats", parents=[config, truth, thresholds],
                       help="view-graph diagnostics of a pair file")
    p.add_argument("--classes", help="symmetry-class file")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    try:
        _read_config_into(args, commands.choices[args.command]._actions)
        return args.func(args)
    except (ParseError, OSError) as exc:
        sys.stderr.write(f"matchgraph: parse error: {exc}\n")
        return EXIT_PARSE
    except (MatchgraphError, ValueError) as exc:
        sys.stderr.write(f"matchgraph: compute error: {exc}\n")
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
