"""Exact k-nearest-neighbor queries under the normalized-descriptor metric.

Each `Index` keeps one exact neighbor table: the nearest rows of every row
it was asked about, ranked by distance with ties broken by id. A row is
ranked when it is first asked for, or again when asked wider than it was
ranked, and only as wide as asked (at least `_MIN_WIDTH`). Several rows
are ranked a block at a time: one matrix product gives approximate squared
distances from the block to every row, which only picks candidates; the
candidates are then ranked by the difference formula, keeping a margin
proven wide enough that the result equals a full sort by (distance, id).
A single row takes the same steps with a matrix-vector product. Rows
asked about around a pivot row q (`table(rows, k, near=q)`, as a query's
subgraph asks about its 1-hop rows) are ranked against a pool instead of
all N rows: q and every row within a radius of q that the triangle
inequality proves holds each row's exact first w (see `_candidate_margin`).
The pool falls back to all rows when q is ranked narrower than w or the
pool holds more than half of them. Requests a row's ranking covers are
array slices. A radius query (`Index.within`) is a prefix of the row's
ranking when that ranking reaches past the radius, else one matrix-vector
candidate pass that writes nothing. Memory is O(N·w) for the widest k
asked so far, w <= N-1, plus O(block·N) scratch while a block is ranked.
Approximate search is deliberately out of scope because subgraph topology
is the classifier's input signal.
"""

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingMatrix
from .errors import DegenerateVector

# Rows are ranked at least this wide (capped at N-1). It covers the
# subgraph's k2 = 5 and u = 10, so a node row asked at both is ranked once.
_MIN_WIDTH = 16

# While more than one ranking in this many re-ranked a row, rows are ranked
# at the table's capacity instead: the caller keeps asking wide for rows it
# asked narrow before. Building the subgraph of every query of a 360-image
# ring (each row is asked at k1 after it was ranked for its neighbors)
# re-ranks one row in two under the floor alone; with this rule it
# re-ranks 267 of 627 and took about a tenth less time. The 48 queries of
# a 2000-image ring re-rank 1.6% and the 96 of a 720-image ring 12%, below
# the share, so they keep the floor.
_RERANK_SHARE = 8

# A block has about this many (row, column) entries: it ranks
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


def _difference_distances(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """Row-wise Euclidean distances between `a` and `b` (broadcast), by
    subtracting first, in `out` if given (it may be `a`). Every distance
    the index returns comes from here, so its answers are bit-equal."""
    diff = np.subtract(a, b, out=out)
    diff *= diff
    dist = np.add.reduce(diff, axis=1)
    return np.sqrt(dist, out=dist)


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

    The same margin serves a radius tau. A column whose computed distance
    fl(√S) <= tau has √S·(1 - u) <= tau, so S <= tau²·(1 + 2.01·u) and
    A <= tau²·(1 + 2.01·u) + eps. The cut fl(fl(tau·tau) + margin) is at
    least tau²·(1 - 2·u) + margin·(1 - u), which exceeds that bound when
    margin·(1 - u) - eps >= 15.6·(D + 2)·u >= 46.8·u covers 4.01·u·tau²,
    that is for tau² <= 4.1 (and so for every tau <= 2). Every A is below
    4.1, and for tau² > 4.1 the cut is above 4.1: every column is a
    candidate.

    The same margin bounds a pool around a pivot row q. Let f = (D + 2)·u.
    A computed distance fl(√S) is within a factor 1 ± f of the distance δ
    (S errs by at most 1.01·(D + 2)·u relative, the root halves that and
    adds u). For a row r, let A_w be the (w + 1)-th smallest A from r to
    q and the w or more columns of q's ranking. At least w columns other
    than r are at or below it, and they have δ² <= A_w + eps, so r's w-th
    computed distance is at most U·(1 + f) with U = √(A_w + eps), and
    every column c of r's exact first w, ties included, has
    δ(r, c) <= U·(1 + f)/(1 - f). The triangle inequality
    δ(q, c) <= δ(q, r) + δ(r, c) then gives
    fl(√S(q, c)) <= (t + U)·(1 + 3.1·f), where t = fl(√S(q, r)). The radius
    is R = fl(M + margin), M the largest over r of fl(t + fl(√fl(A_w +
    margin))). fl(A_w + margin) >= A_w + eps, since margin·(1 - u) - 4.1·u
    >= eps, so each term of M is at least (t + U)·(1 - u)². As t + U < 4.1,
    fl(√S(q, c)) exceeds M by less than 4.1·(3.1·f + 2.1·u) <= 15.7·f, and
    R exceeds M by more than 22·f. So every such c is within R of q, and
    the radius pass of q at tau = R (above) returns it as a candidate.
    """
    return 24.0 * (dim + 2) * (np.finfo(np.float64).eps / 2)


class _Table:
    """Row positions and distances of each row's nearest rows. Row r holds
    its `width[r]` nearest rows in its first columns (0: not ranked yet) of
    the table's `capacity`. A wider table keeps the rows of `old`."""

    def __init__(self, n: int, capacity: int, old: "_Table | None" = None):
        self.capacity = capacity
        self.pos = np.empty((n, capacity), dtype=np.intp)
        self.dist = np.empty((n, capacity), dtype=np.float64)
        self.width = np.zeros(n, dtype=np.intp)
        if old is not None:
            self.pos[:, :old.capacity] = old.pos
            self.dist[:, :old.capacity] = old.dist
            self.width[:] = old.width


@dataclass(frozen=True)
class TableCounts:
    """Work done by an index's neighbor table: rows ranked, the rankings of
    rows that had been ranked before (narrower), rows read, radius queries
    answered from a ranked row and by a candidate pass, and rows ranked
    against a pool around a pivot instead of all rows."""

    rankings: int
    reranks: int
    rows_read: int
    radius_table: int
    radius_pass: int
    pooled: int = 0

    def __str__(self) -> str:
        return (f"rankings {self.rankings} reranks {self.reranks} rows_read {self.rows_read}"
                f" radius_table {self.radius_table} radius_pass {self.radius_pass}"
                f" pooled {self.pooled}")


class Index:
    """Searchable view over an EmbeddingMatrix.

    Holds unit-normalized rows and their squared norms, the image id of
    each row in `ids`, and the neighbor table. `table` ranks each row it is
    asked about whose ranking is missing or narrower than k, at k but at
    least `_MIN_WIDTH` (see `_RERANK_SHARE` for when it ranks wider): one
    row by a matrix-vector pass, several in blocks of max(1, 2^16 // N)
    rows by a GEMM pass (N: the pool's size when they are ranked around a
    pivot). The pass gives approximate squared distances; every column
    within `_candidate_margin` of a row's w-th smallest approximate value
    is a candidate, and the candidates are ranked by (distance, id) with
    the difference formula.
    The table only caches exact answers, so it never changes results. A
    ranking wider than the table's capacity swaps in a wider copy of the
    table. An index must not be shared between threads: asking it anything
    may write to the table.
    """

    def __init__(self, emb: EmbeddingMatrix, unit: np.ndarray, sqnorm: np.ndarray):
        self.emb = emb
        self.unit = unit
        self.sqnorm = sqnorm
        self.ids = np.asarray(emb.ids, dtype=np.uint64)
        self._margin = _candidate_margin(unit.shape[1])
        self._table = _Table(len(emb), 0)
        self._rankings = self._reranks = self._rows_read = 0
        self._radius_table = self._radius_pass = self._pooled = 0

    def __len__(self) -> int:
        return len(self.emb)

    def counts(self) -> TableCounts:
        """Rows ranked, re-ranked and read by `table` so far, radius
        queries answered, and rows ranked against a pool."""
        return TableCounts(self._rankings, self._reranks, self._rows_read,
                           self._radius_table, self._radius_pass, self._pooled)

    def table(self, rows, k: int, near: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Positions and distances of the min(k, N-1) nearest rows of each
        of `rows`, as two (len(rows), min(k, N-1)) arrays. Given a pivot
        row `near` (such as the query whose neighbors `rows` are), rows are
        ranked against a pool around it (see `_pool`); the answer is the
        same."""
        take = self._take(k)
        rows = np.asarray(rows, dtype=np.intp)
        table = self._table
        short = rows[table.width[rows] < take]
        if short.size:
            self._rank(short, take, near)
            # Widths never fall and a wider table copies them, so every row
            # is ranked at least `take` wide in the current table.
            table = self._table
        self._rows_read += rows.size
        return table.pos[rows, :take], table.dist[rows, :take]

    def _take(self, k: int) -> int:
        if k < 1:
            raise ValueError("k must be >= 1")
        return min(k, len(self) - 1)

    def _rank(self, rows: np.ndarray, take: int, near: int | None) -> None:
        w = self._width(take)
        if rows.size == 1:
            self._rank_row(int(rows[0]), w)
            return
        rows = np.unique(rows)
        cols = None if near is None else self._pool(near, rows, w)
        step = max(1, _BLOCK_ENTRIES // (len(self) if cols is None else cols.size))
        for start in range(0, rows.size, step):
            self._rank_block(rows[start:start + step], w, cols)

    def _pool(self, q: int, rows: np.ndarray, w: int) -> np.ndarray | None:
        """Row q and the candidates of its radius pass at R, sorted: a
        superset of the exact first w of each of `rows` (see
        `_candidate_margin` for R and the proof). None when q is ranked
        narrower than w or the pool would hold more than half the rows."""
        wq = int(self._table.width[q])
        if wq < w:
            return None
        # q and its ranking are w + 1 or more columns, at most one of them
        # the row itself, so the (w + 1)-th smallest bounds w others
        ring = np.append(self._table.pos[q, :wq], q)
        reach = np.partition(self._approx(rows, ring), w, axis=1)[:, w]
        reach += self._margin
        np.sqrt(reach, out=reach)
        reach += _difference_distances(self.unit[rows], self.unit[q])
        pool = self._candidate_positions(q, tau=float(reach.max()) + self._margin)
        if 2 * (pool.size + 1) > len(self):
            return None
        return np.sort(np.append(pool, q))

    def _approx(self, rows: np.ndarray, cols: np.ndarray | None) -> np.ndarray:
        """The GEMM form |a|² + |b|² - 2 a·b from each of `rows` to each of
        `cols` (every row if None). Scaling by -2 is exact, so it is
        applied to the small left operand."""
        if cols is None:
            approx = (self.unit[rows] * -2.0) @ self.unit.T
            approx += self.sqnorm
        else:
            approx = (self.unit[rows] * -2.0) @ self.unit[cols].T
            approx += self.sqnorm[cols]
        approx += self.sqnorm[rows, None]
        return approx

    def _width(self, take: int) -> int:
        """The width to rank a row asked at `take`. The counts only steer
        the width, never the result."""
        floor = _MIN_WIDTH
        if self._reranks * _RERANK_SHARE > self._rankings:
            floor = max(floor, self._table.capacity)
        return min(max(take, floor), len(self) - 1)

    def within(self, row: int, tau: float) -> tuple[np.ndarray, np.ndarray]:
        """Positions and distances of every other row at distance <= `tau`
        from row `row`, in no set order. A row ranked w wide whose w-th
        distance exceeds `tau`, or ranked over all N-1 rows, answers from
        its ranking; any other row takes one candidate pass, which writes
        nothing to the table."""
        if not tau >= 0.0:
            raise ValueError(f"tau must be a number >= 0, got {tau!r}")
        table = self._table
        w = int(table.width[row])
        if w == len(self) - 1 or (w and table.dist[row, w - 1] > tau):
            self._radius_table += 1
            end = int(np.searchsorted(table.dist[row, :w], tau, side="right"))
            return table.pos[row, :end], table.dist[row, :end]
        self._radius_pass += 1
        cand, dist = self._candidates(row, tau=tau)
        keep = dist <= tau
        return cand[keep], dist[keep]

    def _candidates(self, row: int, w: int = 0, tau: float | None = None):
        """One matrix-vector pass for row `row`: the positions whose
        approximate squared distance is within `_candidate_margin` of the
        w-th smallest, or of tau², and their exact distances."""
        cand = self._candidate_positions(row, w, tau)
        near = self.unit[cand]
        return cand, _difference_distances(near, self.unit[row], out=near)

    def _candidate_positions(self, row: int, w: int = 0, tau: float | None = None):
        # `_rank_block` for one row; its comments hold here too.
        approx = self.unit @ (self.unit[row] * -2.0)
        approx += self.sqnorm
        approx += self.sqnorm[row]
        approx[row] = np.inf
        if tau is None:
            cut = np.partition(approx, w - 1)[w - 1] + self._margin
            cand = (approx <= cut).nonzero()[0]
        else:
            cand = (approx <= tau * tau + self._margin).nonzero()[0]
            cand = cand[cand != row]  # the row's own inf passes an infinite tau
        return cand

    def _rank_row(self, row: int, w: int) -> None:
        cand, dist = self._candidates(row, w)
        first = np.lexsort((self.ids[cand], dist))[:w]
        pos, dist = cand[first], dist[first]
        table = self._writable(w)
        self._rankings += 1
        self._reranks += bool(table.width[row])
        table.pos[row, :w] = pos
        table.dist[row, :w] = dist
        table.width[row] = w

    def _rank_block(self, rows: np.ndarray, w: int, cols: np.ndarray | None) -> None:
        # The GEMM form cancels badly for near rows and may misorder them,
        # so it only picks candidates; `_candidate_margin` proves that they
        # hold every row of the exact first `w` among `cols` (a pool that
        # holds each row's exact first w over all rows, or every row).
        # Ranking the candidates by (row, distance, id) then gives each row
        # the order of a full sort. A row's own entry is set to inf and
        # never reaches the cut; a pool is sorted and holds every row.
        approx = self._approx(rows, cols)
        own = rows if cols is None else np.searchsorted(cols, rows)
        approx[np.arange(rows.size), own] = np.inf
        cut = np.partition(approx, w - 1, axis=1)[:, w - 1] + self._margin
        which, cand = np.divmod(np.flatnonzero(approx <= cut[:, None]), approx.shape[1])
        if cols is not None:
            cand = cols[cand]
            self._pooled += rows.size
        dist = np.empty(cand.size)
        step = min(cand.size, max(1, _BLOCK_ENTRIES // self.unit.shape[1]))
        near = np.empty((step, self.unit.shape[1]))
        other = np.empty_like(near)
        for s in range(0, cand.size, step):
            part = slice(s, s + step)
            m = cand[part].size
            # the positions are in range; "clip" skips the buffered copy
            # that the default mode makes when given `out`
            np.take(self.unit, cand[part], axis=0, out=near[:m], mode="clip")
            np.take(self.unit, rows[which[part]], axis=0, out=other[:m], mode="clip")
            dist[part] = _difference_distances(near[:m], other[:m], out=near[:m])
        # `which` ascends, so each row's candidates are a run of the order;
        # every row has at least w candidates.
        order = np.lexsort((self.ids[cand], dist, which))
        starts = np.searchsorted(which, np.arange(rows.size))
        first = order[starts[:, None] + np.arange(w)]
        table = self._writable(w)
        self._rankings += rows.size
        self._reranks += int(np.count_nonzero(table.width[rows]))
        table.pos[rows, :w] = cand[first]
        table.dist[rows, :w] = dist[first]
        table.width[rows] = w

    def _writable(self, w: int) -> _Table:
        """The table, widened to hold `w` columns."""
        if self._table.capacity < w:
            self._table = _Table(len(self), w, self._table)
        return self._table

    def neighbors(self, query_id: int, k: int) -> NeighborList:
        """The min(k, N-1) nearest ids to the query, excluding the query
        itself. `table` for one row, by slices of the row."""
        row = self.emb.position(query_id)
        take = self._take(k)
        table = self._table
        if table.width[row] < take:
            self._rank_row(row, self._width(take))
            table = self._table
        self._rows_read += 1
        return NeighborList(
            query_id=query_id,
            neighbors=tuple(zip(self.ids[table.pos[row, :take]].tolist(),
                                table.dist[row, :take].tolist())),
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
