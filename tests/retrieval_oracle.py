"""Reference kNN ranking and top-k truncation, used only by tests.

`brute_force_knn` re-ranks from scratch with per-pair distance calls and a
plain sort, so `query_knn` must agree with it exactly, ties included.
`truncate_result` cuts one wide top-k result down to any smaller k.
"""

from matchgraph.embeddings import EmbeddingMatrix, distance
from matchgraph.errors import UnknownImage
from matchgraph.knn import NeighborList
from matchgraph.retrieval import RetrievalResult


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
        method=result.method,
    )
