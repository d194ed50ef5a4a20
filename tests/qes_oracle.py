"""Independent brute-force reimplementation of subgraph construction.

Used only by tests as an oracle: distances, rankings, and the three build
stages are rewritten from the definitions with none of the library's code
paths (different normalization reduction, different sort, explicit loops).
`set_algebra_discover` is the exception: stage 1 as the library once wrote
it, with sets over the index's own kNN table.
"""

import numpy as np


def oracle_sorted_neighbors(ids, vectors, q):
    """All other ids sorted by normalized-descriptor distance, ties by id."""
    unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    qi = ids.index(q)
    scored = []
    for i, other in enumerate(ids):
        if other == q:
            continue
        scored.append((float(np.linalg.norm(unit[i] - unit[qi])), other))
    scored.sort(key=lambda t: (t[0], t[1]))
    return [other for _, other in scored]


def oracle_knn(ids, vectors, q, k):
    return oracle_sorted_neighbors(ids, vectors, q)[:k]


def oracle_build(ids, vectors, q, k1, k2, u):
    """Stages 1-3 from scratch. Returns (nodes, hops, edge id-pair set,
    features)."""
    vectors = np.asarray(vectors, dtype=np.float64)
    one_hop = oracle_knn(ids, vectors, q, k1)
    two_hop = set()
    if k2 > 0:
        for p in one_hop:
            for r in oracle_knn(ids, vectors, p, k2):
                two_hop.add(r)
        two_hop -= set(one_hop)
        two_hop.discard(q)
    nodes = list(one_hop) + sorted(two_hop)
    hops = [1] * len(one_hop) + [2] * len(two_hop)

    node_set = set(nodes)
    edges = set()
    for p in nodes:
        for r in oracle_knn(ids, vectors, p, u):
            if r in node_set:
                edges.add((min(p, r), max(p, r)))

    qi = ids.index(q)
    features = np.empty((len(nodes), vectors.shape[1]))
    for row, v in enumerate(nodes):
        vi = ids.index(v)
        for col in range(vectors.shape[1]):
            features[row, col] = vectors[vi, col] - vectors[qi, col]
    return nodes, hops, edges, features


def edges_of_qes(qes):
    """Adjacency matrix as a set of unordered id pairs."""
    out = set()
    n = len(qes.nodes)
    for i in range(n):
        for j in range(i + 1, n):
            if qes.adjacency[i, j]:
                a, b = qes.nodes[i], qes.nodes[j]
                out.add((min(a, b), max(a, b)))
    return out


def set_algebra_discover(index, qrow, k1, k2):
    """Stage 1 by set algebra on `index.table`: the k1 nearest rows of the
    query row in rank order, then the unique rows their k2 nearest reach,
    less those rows and the query row, in ascending id."""
    first = index.table([qrow], k1)[0][0]
    second = first[:0]
    if k2 >= 1 and first.size:
        reached = np.unique(index.table(first, k2)[0])
        second = np.setdiff1d(reached, np.append(first, qrow), assume_unique=True)
        second = second[np.argsort(index.ids[second])]
    return np.concatenate((first, second)), np.repeat((1, 2), (first.size, second.size))
