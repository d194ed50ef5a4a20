"""Independent reference implementations used as oracles in GCN tests.

Forward pass in pure-python loops (no shared code with the library), the
masked loss of one subgraph and its central finite-difference gradient,
and the training step as it ran before its buffers were reused
(`oracle_train`, on the labeled subgraphs of `labeled_subgraphs`), whose
bits `trainer.train` must give.
"""

import math

import numpy as np


def _mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0.0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            aik = a[i][k]
            if aik != 0.0:
                for j in range(cols):
                    out[i][j] += aik * b[k][j]
    return out


def oracle_forward(features, adjacency, model):
    """Pure-python reimplementation of the model's forward pass."""
    n = len(features)
    degrees = [sum(row) for row in adjacency]
    g = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if adjacency[i][j] and degrees[i] > 0 and degrees[j] > 0:
                g[i][j] = adjacency[i][j] / (math.sqrt(degrees[i]) * math.sqrt(degrees[j]))
    h = [list(map(float, row)) for row in features]
    convs = [layer for layer in model.layers if layer.bias is None]
    dense = [layer for layer in model.layers if layer.bias is not None]
    for layer in convs:
        gh = _mat_mul(g, h)
        concat = [h[i] + gh[i] for i in range(n)]
        z = _mat_mul(concat, layer.weights.tolist())
        h = [[max(val, 0.0) for val in row] for row in z]
    for li, layer in enumerate(dense):
        z = _mat_mul(h, layer.weights.tolist())
        z = [[z[i][j] + float(layer.bias[j]) for j in range(len(layer.bias))] for i in range(n)]
        if li < len(dense) - 1:
            h = [[max(val, 0.0) for val in row] for row in z]
        else:
            h = z
    probs = []
    for row in h:
        x = row[0]
        if x >= 0:
            probs.append(1.0 / (1.0 + math.exp(-x)))
        else:
            e = math.exp(x)
            probs.append(e / (1.0 + e))
    return probs


def masked_loss(probs, labels, hop) -> float:
    """Mean sigmoid cross-entropy over 1-hop nodes only.

    Probabilities are clamped away from {0, 1} so the loss stays finite;
    2-hop nodes contribute exactly zero.
    """
    from matchgraph.errors import DimensionError, EmptyLossSet
    from matchgraph.gcn import _cross_entropy

    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    hop = np.asarray(hop)
    if not (probs.shape == labels.shape == hop.shape):
        raise DimensionError("probs, labels, and hop tags must align")
    mask = hop == 1
    if not mask.any():
        raise EmptyLossSet("subgraph has no 1-hop nodes")
    return float(_cross_entropy(probs[mask], labels[mask].astype(np.float64)).mean())


def finite_difference_gradients(qes, model, labels, step=1e-6):
    """Central differences of the masked loss for every parameter."""
    from matchgraph.gcn import model_forward

    grads = []
    for param in model.parameters():
        grad = np.zeros_like(param)
        flat = param.reshape(-1)
        gflat = grad.reshape(-1)
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + step
            up = masked_loss(model_forward(qes, model), labels, qes.hop)
            flat[idx] = original - step
            down = masked_loss(model_forward(qes, model), labels, qes.hop)
            flat[idx] = original
            gflat[idx] = (up - down) / (2.0 * step)
        grads.append(grad)
    return grads


def max_relative_error(analytic, numeric):
    """Worst per-parameter relative error, denominator max(|a|, |fd|, 1e-8).

    Measured per parameter array (Frobenius norm): central differences at a
    fixed 1e-6 step carry rounding noise of about ulp(loss)/2e-6 per
    coordinate, so coordinates whose true gradient is tiny but alive are
    noise-dominated no matter how correct the analytic pass is. The array
    norm is the strictest comparison the oracle itself can support.
    """
    worst = 0.0
    for a, f in zip(analytic, numeric, strict=True):
        na = float(np.linalg.norm(a))
        nf = float(np.linalg.norm(f))
        rel = float(np.linalg.norm(a - f)) / max(na, nf, 1e-8)
        worst = max(worst, rel)
    return worst


# The training step as it ran before it moved into reused buffers: each
# batch normalizes its subgraphs' G and casts their features again, the
# cached forward allocates and keeps every layer, and Adam returns fresh
# arrays. `train` must give these bits.

def cached_forward(batch, model, dtype=np.float64):
    """The batch stacked row-wise, computed in `dtype`, keeping every
    layer's input, output and weights."""
    from matchgraph.gcn import _inner_sum, _normalize, sigmoid

    gs = [_normalize(qes.adjacency).astype(dtype, copy=False) for qes in batch]
    ends = np.cumsum([len(g) for g in gs]).tolist()
    blocks = list(zip(gs, [0] + ends[:-1], ends))
    h = np.concatenate([qes.features for qes in batch]).astype(dtype, copy=False)
    convs = [layer for layer in model.layers if layer.bias is None]
    dense = [layer for layer in model.layers if layer.bias is not None]
    conv_cache = []
    for layer in convs:
        w = layer.weights.astype(dtype, copy=False)
        d = h.shape[1]
        concat = np.empty((len(h), 2 * d), dtype=h.dtype)
        concat[:, :d] = h
        for g, s, e in blocks:
            _inner_sum(g.T, h[s:e], out=concat[s:e, d:])
        z = concat @ w
        conv_cache.append((concat, z, w))
        h = np.maximum(z, 0.0)
    head = len(dense) - 1
    fc_cache = []
    for i, layer in enumerate(dense):
        w = layer.weights.astype(dtype, copy=False)
        z = h @ w + layer.bias.astype(dtype, copy=False)
        fc_cache.append((h, z, w))
        h = z if i == head else np.maximum(z, 0.0)
    return sigmoid(h[:, 0]), blocks, conv_cache, fc_cache


def cached_backward(batch, model, labels, dtype=np.float64):
    """(float64 gradients per parameter, per-subgraph losses, per-subgraph
    probabilities) of the batch's mean masked loss, on `cached_forward`."""
    from matchgraph.gcn import PROB_CLAMP, _inner_sum

    probs, blocks, conv_cache, fc_cache = cached_forward(batch, model, dtype)
    losses, per_probs = [], []
    dz = np.empty(len(probs))
    for qes, node_labels, (_, s, e) in zip(batch, labels, blocks):
        p, y, hop = probs[s:e], np.asarray(node_labels, dtype=bool), np.asarray(qes.hop)
        losses.append(masked_loss(p, y, hop))
        per_probs.append(p)
        mask = hop == 1
        live = (p > PROB_CLAMP) & (p < 1.0 - PROB_CLAMP)
        dz[s:e] = np.where(mask & live, (p - y) / (int(mask.sum()) * len(batch)), 0.0)
    dh = dz.astype(dtype)[:, None]
    grads = []  # reversed parameter order until the end
    head = len(fc_cache) - 1
    for i in range(head, -1, -1):
        h_in, z, w = fc_cache[i]
        dzl = dh if i == head else dh * (z > 0)
        grads.append(dzl.sum(axis=0))
        grads.append(_inner_sum(h_in, dzl))
        dh = dzl @ w.T
    for i in range(len(conv_cache) - 1, -1, -1):
        concat, z, w = conv_cache[i]
        dzl = dh * (z > 0)
        grads.append(_inner_sum(concat, dzl))
        if i == 0:
            break
        dconcat = dzl @ w.T
        d = dconcat.shape[1] // 2
        dh = dconcat[:, :d].copy()
        for g, s, e in blocks:
            dh[s:e] += _inner_sum(g, dconcat[s:e, d:])
    grads.reverse()
    return [g.astype(np.float64, copy=False) for g in grads], losses, per_probs


def adam_step(params, grads, m, v, t, learning_rate=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """One functional adaptive-moment update of lists of arrays, at step t
    (1-based): returns fresh (params, m, v)."""
    new_params, new_m, new_v = [], [], []
    for p, g, m1, v1 in zip(params, grads, m, v):
        m2 = beta1 * m1 + (1.0 - beta1) * g
        v2 = beta2 * v1 + (1.0 - beta2) * (g * g)
        m_hat = m2 / (1.0 - beta1**t)
        v_hat = v2 / (1.0 - beta2**t)
        new_params.append(p - learning_rate * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m2)
        new_v.append(v2)
    return new_params, new_m, new_v


def labeled_subgraphs(emb, records, queries, config):
    """(subgraph, labels) for each query whose subgraph has a 1-hop node,
    in query order: what `trainer.build_training_set` prepares."""
    from matchgraph.knn import build_index
    from matchgraph.subgraph import build_qes
    from matchgraph.trainer import label_qes

    index = build_index(emb)
    built = (build_qes(index, emb, q, config.qes_params) for q in queries)
    return [(qes, label_qes(qes, records, config)) for qes in built if 1 in qes.hop]


def oracle_train(emb, records, queries, config, conv_widths, fc_widths):
    """`trainer.train` on `cached_backward` and `adam_step`: the same
    seeds, order, scores and stats rows."""
    from matchgraph import evaluation
    from matchgraph.gcn import init_model
    from matchgraph.gcn import PROB_THRESHOLD
    from matchgraph.trainer import EpochStats

    def hop1_prf(qes, labels, probs):
        hop1 = qes.hop == 1
        predicted = hop1 & (probs > PROB_THRESHOLD)
        relevant = hop1 & labels
        counts = (int(np.count_nonzero(m)) for m in (predicted & relevant, predicted, relevant))
        return evaluation.prf_counts(*counts)

    model = init_model(emb.dim, conv_widths, fc_widths, seed=[config.seed, 0])
    subgraphs = labeled_subgraphs(emb, records, queries, config)
    m = [np.zeros_like(p) for p in model.parameters()]
    v = [np.zeros_like(p) for p in model.parameters()]
    t = 0
    history = []
    for epoch in range(1, config.epochs + 1):
        order = np.random.default_rng([config.seed, 1, epoch]).permutation(len(subgraphs))
        losses, scores = [], [None] * len(subgraphs)
        for start in range(0, len(order), config.batch_size):
            batch = [subgraphs[qi] for qi in order[start : start + config.batch_size]]
            grads, batch_losses, probs = cached_backward(
                [qes for qes, _ in batch], model, [y for _, y in batch], np.float32)
            for qi, (qes, y), p in zip(order[start : start + config.batch_size], batch, probs):
                scores[qi] = hop1_prf(qes, y, p)
            t += 1
            params, m, v = adam_step(model.parameters(), grads, m, v, t,
                                     learning_rate=config.learning_rate, beta2=config.beta2)
            model.set_parameters(params)
            losses.extend(batch_losses)
        precision, recall, fmeasure = evaluation.macro_average(scores)
        history.append(EpochStats(epoch, float(np.mean(losses)), precision, recall, fmeasure))
    return model, history
