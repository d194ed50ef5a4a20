"""Query enclosing subgraph construction.

A query's subgraph is built in three stages: discover nodes (the query's
nearest neighbors plus their nearest neighbors), append edges (mutual
proximity over the entire collection), and compute query-relative node
features (raw descriptor differences). The query itself is never a node.
The stages work on row positions of the index; `build_qes` maps the query
id to its row and the node rows to ids once, where it assembles the `Qes`.
A `Qes` holds its ids, hop tags, adjacency and features as read-only
arrays and carries no labels: training labels its nodes with
`trainer.label_qes` and keeps only the prepared float32 copy.
"""

from dataclasses import dataclass

import numpy as np

from .embeddings import ID_END, EmbeddingMatrix
from .errors import DimensionError, InvalidAdjacency, InvalidRecord
from .knn import Index


@dataclass(frozen=True)
class QesParams:
    """Neighbor counts: k1 first-hop, k2 second-hop, u for edge appending."""

    k1: int = 100
    k2: int = 5
    u: int = 10

    def __post_init__(self):
        if self.k1 < 1:
            raise ValueError("k1 must be >= 1")
        if self.k2 < 0:
            raise ValueError("k2 must be >= 0")
        if self.u < 1:
            raise ValueError("u must be >= 1")


def check_adjacency(a: np.ndarray) -> None:
    """Enforce the adjacency contract: square, symmetric, entries 0 or 1,
    zero diagonal."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidAdjacency("adjacency must be square")
    if not np.array_equal(a, a.T):
        raise InvalidAdjacency("adjacency must be symmetric")
    if np.any(np.diag(a) != 0.0):
        raise InvalidAdjacency("adjacency diagonal must be zero")
    if not np.isin(a, (0.0, 1.0)).all():
        raise InvalidAdjacency("adjacency entries must be 0 or 1")


class Qes:
    """A query enclosing subgraph, held in read-only arrays.

    nodes:     image ids (uint64), 1-hop nodes first (nearest-neighbor rank
               order), then 2-hop nodes in ascending id
    hop:       per-node tag, 1 or 2; a node reachable both ways keeps tag 1
    adjacency: symmetric 0/1 matrix with zero diagonal
    features:  per-node descriptor minus the query descriptor
    """

    def __init__(self, query_id, nodes, hop, adjacency, features):
        query_id, ids, hop = int(query_id), [int(v) for v in nodes], [int(h) for h in hop]
        adjacency = np.array(adjacency, dtype=np.float64, copy=True)
        features = np.array(features, dtype=np.float64, copy=True)
        n = len(ids)
        if not all(0 <= v < ID_END for v in (query_id, *ids)):
            raise InvalidRecord("image ids must lie in [0, 2^64)")
        if len(set(ids)) != n:
            raise InvalidRecord("subgraph nodes must be unique")
        if query_id in ids:
            raise InvalidRecord("query id must not appear among subgraph nodes")
        if len(hop) != n:
            raise DimensionError("hop tags must align with nodes")
        if any(h not in (1, 2) for h in hop):
            raise InvalidRecord("hop tags must be 1 or 2")
        if adjacency.shape != (n, n):
            raise DimensionError(f"adjacency must be {n}x{n}")
        check_adjacency(adjacency)
        if features.ndim != 2 or features.shape[0] != n:
            raise DimensionError("features must have one row per node")
        self._hold(query_id, np.array(ids, dtype=np.uint64), np.array(hop, dtype=int),
                   adjacency, features)

    @classmethod
    def _built(cls, query_id, nodes, hop, adjacency, features) -> "Qes":
        """The subgraph `build_qes` assembled. Its fresh arrays hold the
        contract by construction: stored read-only, not copied or checked."""
        qes = cls.__new__(cls)
        qes._hold(query_id, nodes, hop, adjacency, features)
        return qes

    def _hold(self, query_id, nodes, hop, adjacency, features) -> None:
        for a in (nodes, hop, adjacency, features):
            a.setflags(write=False)
        self.query_id, self.nodes, self.hop = query_id, nodes, hop
        self.adjacency, self.features = adjacency, features

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Qes):
            return NotImplemented
        return (
            self.query_id == other.query_id
            and np.array_equal(self.nodes, other.nodes)
            and np.array_equal(self.hop, other.hop)
            and np.array_equal(self.adjacency, other.adjacency)
            and np.array_equal(self.features, other.features)
        )


def discover_nodes(index: Index, qrow: int, k1: int, k2: int):
    """Stage 1: the k1 nearest rows of the query row, then the k2 nearest
    rows of each of those, deduplicated. Expansion stops at two hops.

    Returns (rows, hop) as arrays: the 1-hop rows in rank order, then the
    2-hop rows in ascending id. A row found in both hops keeps tag 1
    because classification coverage must equal the 1-hop set. The 1-hop
    rows are ranked around the query row (see `Index.table`).
    """
    first = index.table([qrow], k1)[0][0]
    second = first[:0]
    if k2 >= 1 and first.size:
        reached = np.zeros(len(index), dtype=bool)
        reached[index.table(first, k2, near=qrow)[0]] = True
        reached[first] = False
        reached[qrow] = False
        second = np.flatnonzero(reached)
        second = second[np.argsort(index.ids[second])]
    return np.concatenate((first, second)), np.repeat((1, 2), (first.size, second.size))


def append_edges(index: Index, rows, u: int) -> np.ndarray:
    """Stage 2: undirected edge p-r whenever r is among the u nearest
    rows of p searched over the entire collection and r is a node row."""
    n = len(rows)
    slot = np.full(len(index), -1, dtype=np.intp)
    slot[rows] = np.arange(n)
    near = slot[index.table(rows, u)[0]]
    i, j = np.nonzero(near >= 0)
    j = near[i, j]
    adjacency = np.zeros((n, n), dtype=np.float64)
    adjacency[i, j] = 1.0
    adjacency[j, i] = 1.0
    return adjacency


def compute_features(emb: EmbeddingMatrix, qrow: int, rows) -> np.ndarray:
    """Stage 3: per-node raw descriptor minus the raw query descriptor."""
    return emb.vectors[rows] - emb.vectors[qrow]


def build_qes(index: Index, emb: EmbeddingMatrix, query_id: int, params: QesParams) -> Qes:
    """Run the three stages and assemble the unlabeled subgraph."""
    if emb is not index.emb:
        raise ValueError("emb must be the matrix the index was built from: pass index.emb")
    qrow = emb.position(query_id)
    rows, hop = discover_nodes(index, qrow, params.k1, params.k2)
    adjacency = append_edges(index, rows, params.u)
    features = compute_features(emb, qrow, rows)
    return Qes._built(int(query_id), index.ids[rows], hop, adjacency, features)
