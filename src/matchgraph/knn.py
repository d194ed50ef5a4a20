"""Exact k-nearest-neighbor queries under the normalized-descriptor metric.

Each `Index` keeps one exact neighbor table: the nearest rows of every row
it was asked about, ranked by distance with ties broken by id. A row is
ranked on first use by one vectorized scan over rows normalized once at
build time; later requests for it, at any k up to the table width, are
array slices. Memory is O(N·w) for the widest k asked so far, w <= N-1.
Approximate search is deliberately out of scope because subgraph topology
is the classifier's input signal.
"""

import threading
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingMatrix
from .errors import DegenerateVector


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


class _Table:
    """Row positions and distances of each row's `width` nearest rows;
    `filled[r]` marks the rows ranked so far."""

    def __init__(self, n: int, width: int):
        self.width = width
        self.pos = np.empty((n, width), dtype=np.intp)
        self.dist = np.empty((n, width), dtype=np.float64)
        self.filled = np.zeros(n, dtype=bool)


class Index:
    """Searchable view over an EmbeddingMatrix.

    Holds unit-normalized rows so ranking a row is one subtract/reduce
    pass, the image id of each row in `ids`, and the neighbor table those
    rankings fill. The table only caches exact answers, so it never
    changes results. Asking for a wider k than the table holds swaps in a
    wider, empty table under a lock; threads may share an index.
    """

    def __init__(self, emb: EmbeddingMatrix, unit: np.ndarray):
        self.emb = emb
        self.unit = unit
        self.ids = np.asarray(emb.ids, dtype=np.uint64)
        self._lock = threading.Lock()
        self._table = _Table(len(emb), 0)

    def __len__(self) -> int:
        return len(self.emb)

    def distances(self, row: int) -> np.ndarray:
        """Distance from row `row` to every row, with its own entry at inf."""
        diff = self.unit - self.unit[row]
        diff *= diff
        dists = np.sqrt(np.sum(diff, axis=1))
        dists[row] = np.inf
        return dists

    def table(self, rows, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Positions and distances of the min(k, N-1) nearest rows of each
        of `rows`, as two (len(rows), min(k, N-1)) arrays."""
        if k < 1:
            raise ValueError("k must be >= 1")
        take = min(k, len(self) - 1)
        table = self._table
        if table.width < take:
            with self._lock:
                table = self._table
                if table.width < take:
                    table = self._table = _Table(len(self), take)
        rows = np.asarray(rows, dtype=np.intp)
        if take > 0:
            for row in rows[~table.filled[rows]].tolist():
                self._fill(table, row)
        return table.pos[rows, :take], table.dist[rows, :take]

    def _fill(self, table: _Table, row: int) -> None:
        # Only rows at or below the width-th smallest distance can take the
        # first `width` places, so only they are sorted. Every tie at the
        # cut is kept, so the order is the one a full sort by (distance, id)
        # gives. The row's own entry is inf and never reaches the cut.
        dists = self.distances(row)
        w = table.width
        cand = np.flatnonzero(dists <= np.partition(dists, w - 1)[w - 1])
        order = cand[np.lexsort((self.ids[cand], dists[cand]))][:w]
        with self._lock:
            table.pos[row] = order
            table.dist[row] = dists[order]
            table.filled[row] = True

    def neighbors(self, query_id: int, k: int) -> NeighborList:
        """The min(k, N-1) nearest ids to the query, excluding the query
        itself."""
        pos, dist = self.table([self.emb.position(query_id)], k)
        return NeighborList(
            query_id=query_id,
            neighbors=tuple(zip(self.ids[pos[0]].tolist(), dist[0].tolist())),
        )


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
    return Index(emb, unit)


def query_knn(index: Index, query_id: int, k: int) -> NeighborList:
    """The min(k, N-1) nearest ids to the query, excluding the query itself."""
    return index.neighbors(query_id, k)
