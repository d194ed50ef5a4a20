"""Exact k-nearest-neighbor queries under the normalized-descriptor metric.

Each `Index` keeps one exact neighbor table: the nearest rows of every row
it was asked about, ranked by distance with ties broken by id. Rows are
ranked on first use, a block of rows at a time: one matrix product gives
approximate squared distances from the block to every row, which only
picks candidates; the candidates are then ranked by the same difference
formula that `Index.distances` uses, keeping a margin proven wide enough
that the result equals a full sort by (distance, id). Later requests for a
row, at any k up to the table width, are array slices. Memory is O(N·w)
for the widest k asked so far, w <= N-1, plus O(block·N) scratch while a
block is ranked. Approximate search is deliberately out of scope because
subgraph topology is the classifier's input signal.
"""

import threading
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingMatrix
from .errors import DegenerateVector

# A fill block has about this many (row, column) entries: it ranks
# max(1, _BLOCK_ENTRIES // N) rows, and its exact pass takes the candidates
# in chunks of as many entries, so no scratch array exceeds 512 KiB. Blocks
# four times larger filled rows 4% faster at N=2000, but whole 360-image
# benchmark runs were then 3-6% slower, in phases that fill no rows too.
_BLOCK_ENTRIES = 1 << 16


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


def _difference_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean distances between `a` and `b` (broadcast), by
    subtracting first. The table and `Index.distances` both call this, so
    their distances are bit-equal."""
    diff = a - b
    diff *= diff
    return np.sqrt(np.sum(diff, axis=1))


def _candidate_margin(dim: int) -> float:
    """Slack on squared distance that keeps every exact top-w row among
    the candidates of the GEMM form.

    For float64 unit roundoff u and unit rows a, b of dimension D (any
    summation order, D·u < 0.01, so |a|², |b|² <= 1.01 and every gamma_n =
    n·u/(1 - n·u) <= 1.01·n·u), with d² = |a - b|² <= 4.04:
      A = fl(|a|² + |b|² - 2 a·b):  the dot product errs by at most
          gamma_D·|a||b|, each squared norm by gamma_D·|a|², and each of the
          two additions by u times a value below 4.1, so
          |A - d²| <= 4.12·D·u + 8.2·u;
      S = fl(sum of fl(a_i - b_i)²), the difference formula before its
          square root:  |S - d²| <= gamma_(D+2)·d² <= 4.1·(D + 2)·u.
    So eps = 8.3·(D + 2)·u bounds |A - S|. Let T be a row's w-th smallest
    A. The w columns at or below T have S <= T + eps, so the w-th smallest
    S is at most T + eps, and every column of the exact top w has
    S <= T + eps + 17·u: the last term covers columns whose S differs by up
    to 17·u but whose square roots round to the same distance, where the
    id decides. Such a column has A <= T + 2·eps + 17·u. The cut T + margin
    itself rounds down by at most 4.2·u, so a margin of 24·(D + 2)·u
    (>= 16.6·(D + 2)·u + 21.2·u for D >= 1) keeps every one of them.
    """
    return 24.0 * (dim + 2) * (np.finfo(np.float64).eps / 2)


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

    Holds unit-normalized rows and their squared norms, the image id of
    each row in `ids`, and the neighbor table. `table` fills the rows it
    is asked about that are not filled yet, in blocks of max(1, 2^16 // N)
    rows: a GEMM pass over the block gives approximate squared distances,
    every column within `_candidate_margin` of a row's w-th smallest
    approximate value is a candidate, and the candidates are ranked by
    (distance, id) with the difference formula of `distances`. The table
    only caches exact answers, so it never changes results. Asking for a
    wider k than the table holds swaps in a wider, empty table under a
    lock; threads may share an index.
    """

    def __init__(self, emb: EmbeddingMatrix, unit: np.ndarray, sqnorm: np.ndarray):
        self.emb = emb
        self.unit = unit
        self.sqnorm = sqnorm
        self.ids = np.asarray(emb.ids, dtype=np.uint64)
        self._margin = _candidate_margin(unit.shape[1])
        self._lock = threading.Lock()
        self._table = _Table(len(emb), 0)

    def __len__(self) -> int:
        return len(self.emb)

    def distances(self, row: int) -> np.ndarray:
        """Distance from row `row` to every row, with its own entry at inf."""
        dists = _difference_distances(self.unit, self.unit[row])
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
            missing = rows[~table.filled[rows]]
            if missing.size:
                if missing.size > 1:
                    missing = np.unique(missing)
                step = max(1, _BLOCK_ENTRIES // len(self))
                for start in range(0, missing.size, step):
                    self._fill_block(table, missing[start:start + step])
        return table.pos[rows, :take], table.dist[rows, :take]

    def _fill_block(self, table: _Table, rows: np.ndarray) -> None:
        # The GEMM form cancels badly for near rows and may misorder them,
        # so it only picks candidates; `_candidate_margin` proves that they
        # hold every row of the exact first `width`. Ranking the candidates
        # by (distance, id) then gives the order of a full sort. A row's own
        # entry is set to inf and never reaches the cut. Scaling by -2 is
        # exact, so it is applied to the small left operand.
        w = table.width
        approx = (self.unit[rows] * -2.0) @ self.unit.T
        approx += self.sqnorm
        approx += self.sqnorm[rows, None]
        approx[np.arange(rows.size), rows] = np.inf
        cut = np.partition(approx, w - 1, axis=1)[:, w - 1] + self._margin
        which, cand = np.divmod(np.flatnonzero(approx <= cut[:, None]), len(self))
        # One line per row, padded at inf past its last candidate; every
        # row has at least w candidates, so padding is never taken.
        counts = np.bincount(which, minlength=rows.size)
        slot = np.arange(cand.size) - (np.cumsum(counts) - counts)[which]
        pos = np.zeros((rows.size, counts.max()), dtype=np.intp)
        pos[which, slot] = cand
        dist = np.full(pos.shape, np.inf)
        step = max(1, _BLOCK_ENTRIES // self.unit.shape[1])
        for s in range(0, cand.size, step):
            part = slice(s, s + step)
            dist[which[part], slot[part]] = _difference_distances(
                self.unit[cand[part]], self.unit[rows[which[part]]])
        line = np.arange(rows.size)[:, None]
        first = np.lexsort((self.ids[pos], dist), axis=1)[:, :w]
        with self._lock:
            table.pos[rows] = pos[line, first]
            table.dist[rows] = dist[line, first]
            table.filled[rows] = True

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
    sqnorm = np.sum(unit * unit, axis=1)
    sqnorm.setflags(write=False)
    return Index(emb, unit, sqnorm)


def query_knn(index: Index, query_id: int, k: int) -> NeighborList:
    """The min(k, N-1) nearest ids to the query, excluding the query itself."""
    return index.neighbors(query_id, k)
