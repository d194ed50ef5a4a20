"""Independent recomputations the benchmark checks the program against.

Nothing here calls into matchgraph: rankings, subgraphs, the forward pass,
ground truth and scores are rebuilt from the raw vectors, the checkpoint
bytes and the ring geometry. Every `check_*` function returns True when
the program's output agrees and False on any mismatch, so a corrupted
result is rejected rather than raised.
"""

import math
import struct

import numpy as np

# Probabilities may differ from the float64 formula by this much: enough
# room for a float32 inference path, far below anything that moves a
# decision at 0.5.
PROB_TOLERANCE = 1e-6
SCORE_TOLERANCE = 1e-12


# ---------------------------------------------------------------- kNN

def decode_embeddings(data):
    """Ids and float32 rows (as float64) of an MGEB file: magic, version
    u32, count u64, dimension u32, ids u64, rows f4, little-endian."""
    if data[:4] != b"MGEB":
        raise ValueError("not an embedding file")
    _, _, n, dim = struct.unpack_from("<4sIQI", data, 0)
    ids = np.frombuffer(data, "<u8", n, 20)
    rows = np.frombuffer(data, "<f4", n * dim, 20 + 8 * n).reshape(n, dim)
    return [int(i) for i in ids], rows.astype(np.float64)


class Ranking:
    """Exact neighbor ranking by (distance, id) over raw descriptors."""

    def __init__(self, ids, vectors):
        vectors = np.asarray(vectors, dtype=np.float64)
        norms = np.sqrt(np.sum(vectors * vectors, axis=1))
        self.unit = vectors / norms[:, None]
        self.raw = vectors
        self.ids = [int(i) for i in ids]
        self.row = {image_id: r for r, image_id in enumerate(self.ids)}
        self._cache = {}

    def ranked(self, query_id):
        """(distances, ids) of every other image, ascending by (distance, id)."""
        hit = self._cache.get(query_id)
        if hit is None:
            diff = self.unit - self.unit[self.row[query_id]]
            d = np.sqrt(np.sum(diff * diff, axis=1)).tolist()
            order = sorted((d[r], image_id) for r, image_id in enumerate(self.ids)
                           if image_id != query_id)
            hit = (np.array([x for x, _ in order]), np.array([v for _, v in order]))
            self._cache[query_id] = hit
        return hit

    def top(self, query_id, k):
        return self.ranked(query_id)[1][:k].tolist()

    def within(self, query_id, tau):
        dists, ids = self.ranked(query_id)
        return set(ids[dists <= tau].tolist())


def check_neighbors(ranking, query_id, k, got):
    """`got` is the program's [(id, distance), ...] for the k nearest."""
    dists, ids = ranking.ranked(query_id)
    if [int(v) for v, _ in got] != ids[:k].tolist():
        return False
    return all(abs(float(dg) - dw) <= SCORE_TOLERANCE for (_, dg), dw in zip(got, dists[:k]))


def check_topk(ranking, query_id, k, got_ids):
    return set(got_ids) == set(ranking.top(query_id, k))


def check_threshold(ranking, query_id, tau, got_ids):
    return set(got_ids) == ranking.within(query_id, tau)


# ---------------------------------------------------------------- subgraphs

def build_subgraph(ranking, query_id, k1, k2, u):
    """From the definition: 1-hop = k1 nearest in rank order; 2-hop = the
    k2 nearest of each 1-hop node, minus the query and the 1-hop set, in
    ascending id; edge p-r when r is among p's u nearest; features are raw
    rows minus the raw query row."""
    one = ranking.top(query_id, k1)
    first = set(one)
    two = set()
    for p in one:
        for r in ranking.top(p, k2) if k2 else ():
            if r != query_id and r not in first:
                two.add(r)
    nodes = one + sorted(two)
    hop = [1] * len(one) + [2] * len(two)
    pos = {v: i for i, v in enumerate(nodes)}
    adjacency = np.zeros((len(nodes), len(nodes)))
    for p in nodes:
        for r in ranking.top(p, u):
            if r in pos:
                adjacency[pos[p], pos[r]] = adjacency[pos[r], pos[p]] = 1.0
    rows = [ranking.row[v] for v in nodes]
    features = ranking.raw[rows] - ranking.raw[ranking.row[query_id]]
    return nodes, hop, adjacency, features


def check_subgraph(ranking, query_id, k1, k2, u, nodes, hop, adjacency, features):
    adjacency = np.asarray(adjacency)
    n = len(nodes)
    if adjacency.shape != (n, n):
        return False
    if not (np.array_equal(adjacency, adjacency.T)
            and np.all(np.diag(adjacency) == 0.0)
            and np.isin(adjacency, (0.0, 1.0)).all()):
        return False
    w_nodes, w_hop, w_adj, w_feat = build_subgraph(ranking, query_id, k1, k2, u)
    return (
        [int(v) for v in nodes] == w_nodes
        and [int(h) for h in hop] == w_hop
        and np.array_equal(adjacency, w_adj)
        and np.array_equal(np.asarray(features), w_feat)
    )


# ---------------------------------------------------------------- model

def parse_checkpoint(data):
    """Read the MGCK layout: magic, version, layer count, then per layer a
    kind tag (0 conv, 1 dense), rows, cols, bias flag, f8 weights, f8 bias."""
    if data[:4] != b"MGCK":
        raise ValueError("not a checkpoint")
    offset = 8
    (count,) = struct.unpack_from("<I", data, offset)
    offset += 4
    conv, dense = [], []
    for _ in range(count):
        kind, rows, cols, has_bias = struct.unpack_from("<BIIB", data, offset)
        offset += 10
        w = np.frombuffer(data, "<f8", rows * cols, offset).reshape(rows, cols)
        offset += 8 * rows * cols
        if has_bias:
            b = np.frombuffer(data, "<f8", cols, offset)
            offset += 8 * cols
            dense.append((w, b))
        else:
            conv.append(w)
    if offset != len(data):
        raise ValueError("trailing bytes")
    return conv, dense


def forward(weights, adjacency, features):
    """sigmoid of the logit after four relu([H || G H] W) convolutions,
    G = D^-1/2 A D^-1/2 with zero rows for isolated nodes, and dense
    layers (relu except the last)."""
    conv, dense = weights
    a = np.asarray(adjacency, dtype=np.float64)
    deg = a.sum(axis=1)
    scale = np.array([1.0 / math.sqrt(x) if x > 0 else 0.0 for x in deg])
    g = a * scale[:, None] * scale[None, :]
    h = np.asarray(features, dtype=np.float64)
    for w in conv:
        h = np.maximum(np.hstack([h, g @ h]) @ w, 0.0)
    for i, (w, b) in enumerate(dense):
        h = h @ w + b
        if i < len(dense) - 1:
            h = np.maximum(h, 0.0)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-h[:, 0]))


def check_probabilities(want, got):
    got = np.asarray(got, dtype=np.float64)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= PROB_TOLERANCE))


def check_gcn_retrieval(nodes, hop, probs, retrieved_ids, threshold=0.5):
    """Retrieved ids lie in the 1-hop set and are exactly the 1-hop nodes
    above the threshold, ignoring nodes within tolerance of it."""
    retrieved = set(retrieved_ids)
    one_hop = {v for v, h in zip(nodes, hop) if h == 1}
    if not retrieved <= one_hop:
        return False
    for v, h, p in zip(nodes, hop, probs):
        if h == 1 and abs(p - threshold) > PROB_TOLERANCE and (p > threshold) != (v in retrieved):
            return False
    return True


# ---------------------------------------------------------------- pairs

def collapse(results):
    """{(a, b): best score} over per-query [(query, [(id, score), ...])]."""
    best = {}
    for q, retrieved in results:
        for v, s in retrieved:
            key = (min(q, v), max(q, v))
            if key not in best or s > best[key]:
                best[key] = s
    return best


def check_pair_file(text, results):
    lines = text.split("\n")
    if lines[0] != "# matchgraph pairs v1" or lines[-1] != "":
        return False
    keys = []
    scores = {}
    for line in lines[1:-1]:
        a, b, s = line.split(" ")
        a, b = int(a), int(b)
        if a >= b:
            return False
        keys.append((a, b))
        scores[(a, b)] = float(s)
    if keys != sorted(set(keys)):
        return False
    want = collapse(results)
    return scores.keys() == want.keys() and all(
        abs(scores[k] - want[k]) <= SCORE_TOLERANCE for k in want
    )


# ---------------------------------------------------------------- scoring

class RingTruth:
    """Matchability and symmetry classes of an n-image ring, from geometry:
    a pair is matchable when its circular distance c (in steps of 2*pi/n)
    lies in the overlap window and the linear score 1 - c/window reaches
    either threshold; class(i) = floor(i*s/n)."""

    def __init__(self, n, symmetry, window, tau_mo, tau_ct):
        self.n, self.s = n, symmetry
        step = 2.0 * math.pi / n
        reach = []
        for d in range(1, n // 2 + 1):
            circ = d * step
            if circ > window:
                break
            score = max(0.0, 1.0 - circ / window)
            if score >= tau_mo or score >= tau_ct:
                reach.append(d)
        self.reach = set(reach)

    def matchable(self, a, b):
        d = abs(a - b) % self.n
        return min(d, self.n - d) in self.reach

    def relevant(self, q):
        return {(q + sign * d) % self.n for d in self.reach for sign in (1, -1)} - {q}

    def cls(self, i):
        return (i * self.s) // self.n


def prf(predicted, relevant):
    hits = len(predicted & relevant)
    p = hits / len(predicted) if predicted else (1.0 if not relevant else 0.0)
    r = hits / len(relevant) if relevant else 1.0
    f = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f


def macro_f(truth, retrieved_by_query):
    fs = [prf(set(ids), truth.relevant(q))[2] for q, ids in retrieved_by_query]
    return sum(fs) / len(fs)


def pair_stats(truth, pairs):
    """(true pairs, false pairs, false pairs across symmetry classes)."""
    tp = fp = cross = 0
    for a, b in pairs:
        if truth.matchable(a, b):
            tp += 1
        else:
            fp += 1
            cross += truth.cls(a) != truth.cls(b)
    return tp, fp, cross


def check_close(got, want):
    return abs(float(got) - float(want)) <= SCORE_TOLERANCE


def check_eval_report(text, truth, retrieved_by_query):
    """The `eval` CSV: header, one row per query ascending, MACRO footer."""
    lines = text.strip().split("\n")
    if lines[0] != "query_id,precision,recall,fmeasure":
        return False
    rows = sorted(retrieved_by_query)
    if len(lines) != len(rows) + 2:
        return False
    sums = [0.0, 0.0, 0.0]
    for line, (q, ids) in zip(lines[1:-1], rows):
        fields = line.split(",")
        want = prf(set(ids), truth.relevant(q))
        if int(fields[0]) != q or not all(check_close(g, w) for g, w in zip(fields[1:], want)):
            return False
        sums = [s + w for s, w in zip(sums, want)]
    footer = lines[-1].split(",")
    return footer[0] == "MACRO" and all(
        check_close(g, s / len(rows)) for g, s in zip(footer[1:], sums)
    )


def check_stats_report(text, truth, pairs):
    tp, fp, cross = pair_stats(truth, pairs)
    want = ["metric,value", f"true_positive_pairs,{tp}",
            f"false_positive_pairs,{fp}", f"cross_class_false_positives,{cross}"]
    return text.strip().split("\n") == want
