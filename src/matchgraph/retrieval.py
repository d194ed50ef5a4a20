"""Retrieved-set production: the classifier route and the fixed-budget
baselines it is compared against.

The classifier route returns every 1-hop node whose matchability
probability clears the decision threshold, so its cardinality adapts to
the query instead of being a fixed k.
"""

from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

from .embeddings import ID_END, EmbeddingMatrix
from .errors import InvalidRecord, MalformedHeader
from .gcn import PROB_THRESHOLD, GcnModel, model_forward
from .knn import Index
from .subgraph import QesParams, build_qes

PAIR_FILE_HEADER = "# matchgraph pairs v1"


@dataclass(frozen=True)
class RetrievalResult:
    """One query's retrieved ids with scores in [0, 1], set semantics."""

    query_id: int
    retrieved: tuple[tuple[int, float], ...]

    def __post_init__(self):
        ids = [v for v, _ in self.retrieved]
        if self.query_id in ids:
            raise InvalidRecord("a query must not retrieve itself")
        if len(set(ids)) != len(ids):
            raise InvalidRecord("retrieved ids must be unique")
        if any(not 0.0 <= s <= 1.0 for _, s in self.retrieved):
            raise InvalidRecord("scores must lie in [0, 1]")

    def ids(self) -> set[int]:
        return {v for v, _ in self.retrieved}

    def __len__(self) -> int:
        return len(self.retrieved)


def gcn_retrieve(
    model: GcnModel,
    index: Index,
    emb: EmbeddingMatrix,
    query_id: int,
    params: QesParams,
    prob_threshold: float = PROB_THRESHOLD,
) -> RetrievalResult:
    """Classify the query's subgraph; retrieve 1-hop nodes scoring strictly
    above the threshold. Output size is data-dependent, not a fixed k."""
    qes = build_qes(index, emb, query_id, params)
    probs = model_forward(qes, model)
    retrieved = [
        (v, float(p))
        for v, h, p in zip(qes.nodes, qes.hop, probs)
        if h == 1 and p > prob_threshold
    ]
    return RetrievalResult(query_id=query_id, retrieved=tuple(sorted(retrieved)))


def _distance_score(d: float) -> float:
    return 1.0 - d / 2.0


def topk_retrieve(index: Index, query_id: int, k: int) -> RetrievalResult:
    """The k nearest neighbors, scored by a monotone map of distance."""
    neighbors = index.neighbors(query_id, k)
    retrieved = tuple(sorted((v, _distance_score(d)) for v, d in neighbors.neighbors))
    return RetrievalResult(query_id=query_id, retrieved=retrieved)


def threshold_retrieve(index: Index, query_id: int, tau: float) -> RetrievalResult:
    """Everything within distance tau of the query."""
    row = index.emb.position(query_id)
    dists = index.distances(row)
    hits = np.flatnonzero(dists <= tau)
    hits = hits[hits != row]  # the query's own inf passes an infinite tau
    retrieved = tuple(sorted(
        (v, _distance_score(d))
        for v, d in zip(index.ids[hits].tolist(), dists[hits].tolist())
    ))
    return RetrievalResult(query_id=query_id, retrieved=retrieved)


def collapse_pairs(results: Iterable[RetrievalResult]) -> list[tuple[int, int, float]]:
    """Deduplicate to unordered pairs, keeping the best score per pair."""
    best: dict[tuple[int, int], float] = {}
    for result in results:
        q = result.query_id
        for v, score in result.retrieved:
            key = (min(q, v), max(q, v))
            if key not in best or score > best[key]:
                best[key] = score
    return [(a, b, best[(a, b)]) for a, b in sorted(best)]


def write_pair_file(pairs: Sequence[tuple[int, int, float]], sink: TextIO) -> None:
    """Write `id_a id_b score` lines under the pair-file header, sorted."""
    sink.write(PAIR_FILE_HEADER + "\n")
    for a, b, score in sorted(pairs):
        if a >= b:
            raise InvalidRecord(f"pair ({a}, {b}) not in ascending order")
        sink.write(f"{a} {b} {score!r}\n")


def export_pairs(results: Iterable[RetrievalResult], sink: TextIO) -> None:
    """Collapse per-query results into the undirected pair file an SfM
    matcher consumes."""
    write_pair_file(collapse_pairs(results), sink)


def read_pair_file(text: str) -> list[tuple[int, int, float]]:
    lines = text.splitlines(keepends=True)
    if not lines or lines[0].strip() != PAIR_FILE_HEADER:
        raise MalformedHeader("missing pair-file header", offset=0)
    pairs = []
    offset = len(lines[0].encode("utf-8"))
    for line in lines[1:]:
        stripped = line.strip()
        if stripped:
            tokens = stripped.split()
            if len(tokens) != 3:
                raise InvalidRecord(f"bad pair line {stripped!r}", offset=offset)
            try:
                a, b, score = int(tokens[0]), int(tokens[1]), float(tokens[2])
            except ValueError:
                raise InvalidRecord(f"bad pair line {stripped!r}", offset=offset)
            for v in (a, b):
                if not 0 <= v < ID_END:
                    raise InvalidRecord(f"pair id {v} outside [0, 2^64)", offset=offset)
            if a >= b:
                raise InvalidRecord(f"pair ids must ascend within a line", offset=offset)
            if not 0.0 <= score <= 1.0 or not np.isfinite(score):
                raise InvalidRecord(f"pair score {score} outside [0, 1]", offset=offset)
            pairs.append((a, b, score))
        offset += len(line.encode("utf-8"))
    return pairs


def pairs_to_query_sets(pairs: Iterable[tuple[int, int, float]]) -> dict[int, set[int]]:
    """Per-id partner sets implied by an undirected pair list."""
    out: dict[int, set[int]] = {}
    for a, b, _ in pairs:
        out.setdefault(a, set()).add(b)
        out.setdefault(b, set()).add(a)
    return out
