"""Query enclosing subgraph construction.

A query's subgraph is built in three stages: discover nodes (the query's
nearest neighbors plus their nearest neighbors), append edges (mutual
proximity over the entire collection), and compute query-relative node
features (raw descriptor differences). The query itself is never a node.
"""

import copy
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingMatrix
from .errors import DimensionError, InvalidAdjacency, InvalidRecord
from .knn import Index


@dataclass(frozen=True)
class QesParams:
    """Neighbor counts: k1 first-hop, k2 second-hop, u for edge appending."""

    k1: int
    k2: int
    u: int

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
    """A query enclosing subgraph.

    nodes:     image ids, 1-hop nodes first (nearest-neighbor rank order),
               then 2-hop nodes in ascending id
    hop:       per-node tag, 1 or 2; a node reachable both ways keeps tag 1
    adjacency: symmetric 0/1 matrix with zero diagonal
    features:  per-node descriptor minus the query descriptor
    labels:    optional per-node matchability, aligned with nodes
    """

    def __init__(self, query_id, nodes, hop, adjacency, features, labels=None):
        nodes = tuple(int(v) for v in nodes)
        hop = tuple(int(h) for h in hop)
        adjacency = np.array(adjacency, dtype=np.float64, copy=True)
        features = np.array(features, dtype=np.float64, copy=True)
        n = len(nodes)
        if len(set(nodes)) != n:
            raise InvalidRecord("subgraph nodes must be unique")
        if int(query_id) in nodes:
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
        adjacency.setflags(write=False)
        features.setflags(write=False)
        self.query_id = int(query_id)
        self.nodes = nodes
        self.hop = hop
        self.adjacency = adjacency
        self.features = features
        self.labels = None if labels is None else self._checked_labels(labels)

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def hop_mask(self, which: int) -> np.ndarray:
        return np.array([h == which for h in self.hop], dtype=bool)

    def _checked_labels(self, labels) -> tuple[bool, ...]:
        labels = tuple(bool(b) for b in labels)
        if len(labels) != len(self.nodes):
            raise DimensionError("labels must align with nodes")
        return labels

    def with_labels(self, labels) -> "Qes":
        """A copy with new labels, sharing the read-only arrays this one
        already checked."""
        labeled = copy.copy(self)
        labeled.labels = self._checked_labels(labels)
        return labeled

    def __eq__(self, other) -> bool:
        if not isinstance(other, Qes):
            return NotImplemented
        return (
            self.query_id == other.query_id
            and self.nodes == other.nodes
            and self.hop == other.hop
            and np.array_equal(self.adjacency, other.adjacency)
            and np.array_equal(self.features, other.features)
            and self.labels == other.labels
        )


def discover_nodes(index: Index, query_id: int, k1: int, k2: int):
    """Stage 1: the query's k1 nearest neighbors, then the k2 nearest
    neighbors of each of those, deduplicated. Expansion stops at two hops.

    Returns (nodes, hop_tags); a node found in both hops keeps tag 1
    because classification coverage must equal the 1-hop set.
    """
    qrow = index.emb.position(query_id)
    near, _ = index.table([qrow], k1)
    first = near[0]
    one_hop = index.ids[first].tolist()
    two_hop = []
    if k2 >= 1 and first.size:
        reached = np.unique(index.ids[index.table(first, k2)[0]])
        two_hop = np.setdiff1d(reached, index.ids[np.append(first, qrow)],
                               assume_unique=True).tolist()
    nodes = one_hop + two_hop
    hop = [1] * len(one_hop) + [2] * len(two_hop)
    return nodes, hop


def append_edges(index: Index, nodes, u: int) -> np.ndarray:
    """Stage 2: undirected edge p-r whenever r is among the u nearest
    neighbors of p searched over the entire collection and r is a node."""
    rows = np.array([index.emb.position(v) for v in nodes], dtype=np.intp)
    if not rows.size:
        raise InvalidRecord("cannot append edges to an empty node set")
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


def compute_features(emb: EmbeddingMatrix, query_id: int, nodes) -> np.ndarray:
    """Stage 3: per-node raw descriptor minus the raw query descriptor."""
    return emb.rows(nodes) - emb.row(query_id)


def build_qes(index: Index, emb: EmbeddingMatrix, query_id: int, params: QesParams) -> Qes:
    """Run the three stages and assemble the unlabeled subgraph."""
    nodes, hop = discover_nodes(index, query_id, params.k1, params.k2)
    adjacency = append_edges(index, nodes, params.u)
    features = compute_features(emb, query_id, nodes)
    return Qes(query_id, nodes, hop, adjacency, features)
