"""Reference distances, kNN ranking, top-k truncation and pair collapsing, used only by tests.

`distance` is the normalized-descriptor metric written per pair, on top of
`l2_normalize`; `row_distances` writes the index's difference formula for
one row against all rows. `brute_force_knn` re-ranks from scratch with per-pair
distance calls and a plain sort, so `query_knn` must agree with it exactly,
ties included. `truncate_result` cuts one wide top-k result down to any
smaller k. `collapse_pairs` is the per-hit dict that
`retrieval.collapse_pairs` must agree with, signed zeros and types
included.
"""

import numpy as np

from matchgraph.embeddings import EmbeddingMatrix
from matchgraph.errors import DegenerateVector, DimensionError, UnknownImage
from matchgraph.knn import NeighborList
from matchgraph.retrieval import RetrievalResult


def l2_normalize(v) -> np.ndarray:
    """Scale a vector to unit Euclidean norm, preserving direction.

    Raises DegenerateVector for zero-norm or non-finite input, which
    signals a corrupt embedding row.
    """
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise DegenerateVector("vector has non-finite entries")
    norm = np.sqrt(np.sum(v * v))
    if norm == 0.0:
        raise DegenerateVector("vector has zero norm")
    if not np.isfinite(norm):
        raise DegenerateVector("vector norm overflows")
    return v / norm


def distance(a, b) -> float:
    """Euclidean distance between the L2-normalized versions of a and b.

    Symmetric, scale-invariant, and bounded by [0, 2] (chord metric on the
    unit sphere).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"dimension mismatch: {a.shape} vs {b.shape}")
    diff = l2_normalize(a) - l2_normalize(b)
    return float(np.sqrt(np.sum(diff * diff)))


def row_distances(unit: np.ndarray, row: int) -> np.ndarray:
    """Distances from row `row` of the unit rows `unit` to every row, by
    subtracting, squaring and summing along each row before the square
    root, with the row's own entry at inf. These are the bits of every
    distance a `knn.Index` returns."""
    diff = unit - unit[row]
    dist = np.sqrt(np.add.reduce(diff * diff, axis=1))
    dist[row] = np.inf
    return dist


def brute_force_knn(emb: EmbeddingMatrix, query_id: int, k: int) -> NeighborList:
    """Reference implementation: per-pair distance calls and a plain sort."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if query_id not in emb:
        raise UnknownImage(f"unknown image id {query_id}")
    qvec = emb.row(query_id)
    scored = []
    for other in emb.ids:
        if other == query_id:
            continue
        scored.append((distance(qvec, emb.row(other)), other))
    scored.sort()
    take = min(k, len(scored))
    return NeighborList(
        query_id=query_id,
        neighbors=tuple((i, d) for d, i in scored[:take]),
    )


def truncate_result(result: RetrievalResult, k: int) -> RetrievalResult:
    """Keep at most the k best-scored items (ties broken by ascending id)."""
    ranked = sorted(result.retrieved, key=lambda pair: (-pair[1], pair[0]))
    return RetrievalResult(
        query_id=result.query_id,
        retrieved=tuple(sorted(ranked[:k])),
    )


def collapse_pairs(results) -> list[tuple[int, int, float]]:
    """Deduplicate to unordered pairs, keeping the best score per pair: the
    first seen of equal scores."""
    best: dict[tuple[int, int], float] = {}
    for result in results:
        q = result.query_id
        for v, score in result.retrieved:
            key = (min(q, v), max(q, v))
            if key not in best or score > best[key]:
                best[key] = score
    return [(a, b, best[(a, b)]) for a, b in sorted(best)]
