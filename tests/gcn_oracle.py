"""Independent reference implementations used as oracles in GCN tests.

Forward pass in pure-python loops (no shared code with the library) and a
central finite-difference gradient of the masked loss.
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
    for layer in model.conv_layers:
        gh = _mat_mul(g, h)
        concat = [h[i] + gh[i] for i in range(n)]
        z = _mat_mul(concat, layer.weights.tolist())
        h = [[max(val, 0.0) for val in row] for row in z]
    for li, layer in enumerate(model.fc_layers):
        z = _mat_mul(h, layer.weights.tolist())
        z = [[z[i][j] + float(layer.bias[j]) for j in range(len(layer.bias))] for i in range(n)]
        if li < len(model.fc_layers) - 1:
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


def finite_difference_gradients(qes, model, labels, step=1e-6):
    """Central differences of the masked loss for every parameter."""
    from matchgraph.gcn import masked_loss, model_forward

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
