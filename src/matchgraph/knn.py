"""Exact k-nearest-neighbor queries under the normalized-descriptor metric.

`query_knn` runs a vectorized scan over rows normalized once at build time.
Approximate search is deliberately out of scope because subgraph topology
is the classifier's input signal.
"""

from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingMatrix
from .errors import DegenerateVector, UnknownImage


@dataclass(frozen=True)
class NeighborList:
    """Nearest neighbors of one query, ascending by distance.

    Ties are broken by ascending image id so results are reproducible
    across runs and platforms.
    """

    query_id: int
    neighbors: tuple[tuple[int, float], ...]

    def ids(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.neighbors)

    def __len__(self) -> int:
        return len(self.neighbors)


@dataclass(eq=False)
class Index:
    """Searchable view over an EmbeddingMatrix.

    Holds unit-normalized rows so a query is one subtract/reduce pass. The
    index is immutable after build; the internal memo of past answers only
    caches, it never changes results.
    """

    emb: EmbeddingMatrix
    unit: np.ndarray
    _ids_array: np.ndarray
    _memo: dict = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self.emb)

    def neighbors(self, query_id: int, k: int) -> NeighborList:
        key = (query_id, k)
        hit = self._memo.get(key)
        if hit is None:
            hit = query_knn(self, query_id, k)
            self._memo[key] = hit
        return hit


def build_index(emb: EmbeddingMatrix) -> Index:
    """Normalize all rows up front; reject degenerate rows by id."""
    norms = np.sqrt(np.sum(emb.vectors * emb.vectors, axis=1))
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        raise DegenerateVector(
            f"image id {emb.ids[int(bad[0])]} has a zero-norm embedding"
        )
    unit = emb.vectors / norms[:, None]
    unit.setflags(write=False)
    return Index(emb=emb, unit=unit, _ids_array=np.asarray(emb.ids, dtype=np.uint64))


def query_knn(index: Index, query_id: int, k: int) -> NeighborList:
    """The min(k, N-1) nearest ids to the query, excluding the query itself."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if query_id not in index.emb:
        raise UnknownImage(f"unknown image id {query_id}")
    qrow = index.emb.position(query_id)
    diff = index.unit - index.unit[qrow]
    dists = np.sqrt(np.sum(diff * diff, axis=1))
    dists[qrow] = np.inf
    order = np.lexsort((index._ids_array, dists))
    take = min(k, len(index) - 1)
    picked = order[:take]
    return NeighborList(
        query_id=query_id,
        neighbors=tuple(
            (int(index._ids_array[i]), float(dists[i])) for i in picked
        ),
    )
