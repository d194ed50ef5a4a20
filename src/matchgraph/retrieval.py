"""Retrieved-set production: the classifier route and the fixed-budget
baselines it is compared against.

The classifier route returns every 1-hop node whose matchability
probability clears the decision threshold, so its cardinality adapts to
the query instead of being a fixed k. Results are exported as a pair file,
which `read_pair_file` reads back through `embeddings.read_rows`, the
reader of every text format, and checks in bulk.
"""

from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

from .embeddings import EmbeddingMatrix, first_line, image_id, raise_earliest, read_rows
from .errors import InvalidRecord, MalformedHeader
from .gcn import PROB_THRESHOLD, GcnModel, model_forward
from .knn import Index
from .subgraph import QesParams, build_qes

PAIR_FILE_HEADER = "# matchgraph pairs v1"
_PAIR_ROW = np.dtype([("a", "u8"), ("b", "u8"), ("score", "f8")])


@dataclass(frozen=True)
class RetrievalResult:
    """One query's retrieved ids with scores in [0, 1], set semantics.

    The constructor checks a result built outside the library; the
    retrieval routes below build theirs through `_built`."""

    query_id: int
    retrieved: tuple[tuple[int, float], ...]

    def __post_init__(self):
        ids = [v for v, _ in self.retrieved]
        for v in (self.query_id, *ids):
            image_id(v)
        if self.query_id in ids:
            raise InvalidRecord("a query must not retrieve itself")
        if len(set(ids)) != len(ids):
            raise InvalidRecord("retrieved ids must be unique")
        if any(not 0.0 <= s <= 1.0 for _, s in self.retrieved):
            raise InvalidRecord("scores must lie in [0, 1]")

    @classmethod
    def _built(cls, query_id: int, retrieved: tuple) -> "RetrievalResult":
        """A result a retrieval route assembled: the query excluded, ids
        unique and scores in [0, 1] by construction, so stored unchecked."""
        result = cls.__new__(cls)
        object.__setattr__(result, "query_id", query_id)
        object.__setattr__(result, "retrieved", retrieved)
        return result

    def ids(self) -> set[int]:
        return {v for v, _ in self.retrieved}

    def __len__(self) -> int:
        return len(self.retrieved)


def _by_id(query_id: int, ids: np.ndarray, scores: np.ndarray) -> RetrievalResult:
    """A route's hits as a result in ascending id: ids are unique, so this
    is the order of the sorted (id, score) pairs."""
    order = np.argsort(ids)
    return RetrievalResult._built(query_id, tuple(zip(ids[order].tolist(),
                                                      scores[order].tolist())))


def gcn_retrieve(
    model: GcnModel,
    index: Index,
    emb: EmbeddingMatrix,
    query_id: int,
    params: QesParams,
    prob_threshold: float = PROB_THRESHOLD,
) -> RetrievalResult:
    """Classify the query's subgraph; retrieve 1-hop nodes scoring strictly
    above the threshold, which must lie in [0, 1). Output size is
    data-dependent, not a fixed k."""
    if not 0.0 <= prob_threshold < 1.0:
        raise ValueError(f"prob_threshold must be a number in [0, 1), got {prob_threshold!r}")
    qes = build_qes(index, emb, query_id, params)
    probs = model_forward(qes, model)
    hit = (qes.hop == 1) & (probs > prob_threshold)
    return _by_id(query_id, qes.nodes[hit], probs[hit])


def _distance_score(d: float) -> float:
    """1 - d/2, or 0 past d = 2: unit rows lie within distance 2, but
    antipodal rows can round just past it."""
    return 0.0 if d >= 2.0 else 1.0 - d / 2.0


def topk_retrieve(index: Index, query_id: int, k: int) -> RetrievalResult:
    """The k nearest neighbors, scored by a monotone map of distance."""
    neighbors = index.neighbors(query_id, k)
    retrieved = tuple(sorted((v, _distance_score(d)) for v, d in neighbors.neighbors))
    return RetrievalResult._built(query_id, retrieved)


def threshold_retrieve(index: Index, query_id: int, tau: float) -> RetrievalResult:
    """Everything within distance tau (>= 0) of the query."""
    pos, dist = index.within(index.emb.position(query_id), tau)
    scores = np.maximum(1.0 - dist / 2.0, 0.0)  # `_distance_score` of each
    return _by_id(query_id, index.ids[pos], scores)


def collapse_pairs(results: Iterable[RetrievalResult]) -> list[tuple[int, int, float]]:
    """Deduplicate to unordered pairs sorted by (a, b), keeping the best
    score per pair; of equal scores (0.0 and -0.0 among them) the first
    seen."""
    results = list(results)
    hits = [hit for result in results for hit in result.retrieved]
    if not hits:
        return []
    queries = np.array([result.query_id for result in results], dtype=np.uint64)
    q = np.repeat(queries, [len(result.retrieved) for result in results])
    ids, scores = zip(*hits)
    v, score = np.array(ids, dtype=np.uint64), np.array(scores, dtype=np.float64)
    a, b = np.minimum(q, v), np.maximum(q, v)
    order = np.lexsort((b, a))  # stable: each pair's hits stay in the order seen
    a, b, score = a[order], b[order], score[order]
    starts = np.flatnonzero(np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])])
    best = np.maximum.reduceat(score, starts)
    zero = best == 0.0  # every hit of the pair scored 0.0 or -0.0: keep the first's sign
    best[zero] = score[starts[zero]]
    return list(zip(a[starts].tolist(), b[starts].tolist(), best.tolist()))


def write_pair_file(pairs: Sequence[tuple[int, int, float]], sink: TextIO) -> None:
    """Write `id_a id_b score` lines under the pair-file header, sorted.
    A pair with a >= b is refused before anything is written."""
    pairs = sorted(pairs)
    for a, b, _ in pairs:
        if a >= b:
            raise InvalidRecord(f"pair ({a}, {b}) not in ascending order")
    sink.write("".join([PAIR_FILE_HEADER + "\n", *(f"{a} {b} {s!r}\n" for a, b, s in pairs)]))


def export_pairs(results: Iterable[RetrievalResult],
                 sink: TextIO) -> list[tuple[int, int, float]]:
    """Collapse per-query results into the undirected pair file an SfM
    matcher consumes; return the pairs written."""
    pairs = collapse_pairs(results)
    write_pair_file(pairs, sink)
    return pairs


def read_pair_file(text: str) -> list[tuple[int, int, float]]:
    """The `(id_a, id_b, score)` lines under the pair-file header, which
    `read_rows` parses; the first faulty line is reported with its byte
    offset."""
    head = first_line(text)
    if head.strip() != PAIR_FILE_HEADER:
        raise MalformedHeader("missing pair-file header", offset=0)
    rows, fault = read_rows(text, _PAIR_ROW, "pair", skip=len(head))
    a, b, score = rows["a"], rows["b"], rows["score"]
    faulty, bad = np.flatnonzero((a >= b) | ~((score >= 0.0) & (score <= 1.0))), None
    if faulty.size:
        r = int(faulty[0])
        bad = (r, InvalidRecord("pair ids must ascend within a line") if a[r] >= b[r]
               else InvalidRecord(f"pair score {float(score[r])} outside [0, 1]"))
    raise_earliest(text, fault, bad, skip=len(head))
    return list(zip(a.tolist(), b.tolist(), score.tolist()))


def pairs_to_query_sets(pairs: Iterable[tuple[int, int, float]]) -> dict[int, set[int]]:
    """Per-id partner sets implied by an undirected pair list."""
    out: dict[int, set[int]] = {}
    for a, b, _ in pairs:
        out.setdefault(a, set()).add(b)
        out.setdefault(b, set()).add(a)
    return out
