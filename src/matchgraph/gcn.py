"""Graph convolutional classifier over query enclosing subgraphs.

Each graph convolution mixes a node's own feature with a degree-normalized
aggregate of its neighbors' features:

    Y = relu([X || G X] W),   G = D^(-1/2) A D^(-1/2)

with concatenation along the feature axis and no bias. Four such layers
feed dense layers with bias; each is relu except the last, which is the
identity and gives one logit per node. A sigmoid turns logits into
matchability probabilities. The loss and its gradients are masked to
1-hop nodes only. The backward pass is fully analytic (no autodiff) and is
validated against central finite differences.

There are two forward passes over one arithmetic. Inference
(`model_forward`) runs float64 over one subgraph and holds only the layer
it is computing. The cached forward under `backward` runs over a batch of
subgraphs stacked row-wise, in a given dtype (float32 in training, float64
for the gradient oracle), and keeps every layer's intermediates for the
backward pass. Both build each convolution's input with `_with_aggregate`.
"""

import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionError,
    EmptyLossSet,
    MalformedHeader,
    ShapeCorruption,
    TruncatedPayload,
    VersionMismatch,
)
from .subgraph import Qes, check_adjacency

CHECKPOINT_MAGIC = b"MGCK"
CHECKPOINT_VERSION = 1
PROB_CLAMP = 1e-12
CONV_WIDTHS = (256, 256, 128, 128)  # default layer widths
FC_WIDTHS = (64,)
PROB_THRESHOLD = 0.5  # a node is retrieved, and scored in training, above this
# Longest inner dimension of one product over nodes: the weight gradients,
# and G H and its transpose in subgraphs of more nodes. OpenBLAS blocks a
# longer one differently when it runs more threads, which changes the bits.
_MAX_INNER = 256

_KIND_CONV = 0
_KIND_FC = 1


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass
class GcnLayer:
    """One graph convolution: weights shaped (2 * d_in) x d_out, no bias."""

    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2 or self.weights.shape[1] < 1:
            raise DimensionError("conv weights must be 2-d with >= 1 column")
        if self.weights.shape[0] % 2 != 0:
            raise DimensionError("conv weights must have an even row count")
        if not np.all(np.isfinite(self.weights)):
            raise DimensionError("conv weights must be finite")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[0] // 2

    @property
    def out_dim(self) -> int:
        return self.weights.shape[1]


@dataclass
class DenseLayer:
    """Fully connected layer with bias."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.weights.shape[1] < 1:
            raise DimensionError("dense weights must be 2-d with >= 1 column")
        if self.bias.shape != (self.weights.shape[1],):
            raise DimensionError("bias length must equal output width")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise DimensionError("dense parameters must be finite")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[1]


class GcnModel:
    """Four graph convolutions followed by dense layers ending in a single
    logit. Every layer is relu except the last dense layer, which is the
    identity. Immutable during inference; training replaces the layers
    wholesale through set_parameters."""

    def __init__(self, conv_layers: Sequence[GcnLayer], fc_layers: Sequence[DenseLayer]):
        conv_layers = list(conv_layers)
        fc_layers = list(fc_layers)
        if len(conv_layers) != 4:
            raise DimensionError("model requires exactly 4 graph conv layers")
        if not fc_layers:
            raise DimensionError("model requires at least one dense layer")
        if fc_layers[-1].out_dim != 1:
            raise DimensionError("final dense layer must output one logit")
        width = conv_layers[0].in_dim
        for i, layer in enumerate(conv_layers):
            if layer.in_dim != width:
                raise DimensionError(f"conv layer {i} expects input {layer.in_dim}, got {width}")
            width = layer.out_dim
        for i, layer in enumerate(fc_layers):
            if layer.in_dim != width:
                raise DimensionError(f"dense layer {i} expects input {layer.in_dim}, got {width}")
            width = layer.out_dim
        self.conv_layers = conv_layers
        self.fc_layers = fc_layers

    @property
    def input_dim(self) -> int:
        return self.conv_layers[0].in_dim

    def parameters(self) -> list[np.ndarray]:
        params = [layer.weights for layer in self.conv_layers]
        for layer in self.fc_layers:
            params.append(layer.weights)
            params.append(layer.bias)
        return params

    def set_parameters(self, params: Sequence[np.ndarray]) -> None:
        expected = 4 + 2 * len(self.fc_layers)
        if len(params) != expected:
            raise DimensionError(f"expected {expected} parameter arrays")
        if any(np.shape(new) != old.shape for new, old in zip(params, self.parameters())):
            raise DimensionError("parameter shape changed")
        # The layer constructors check finiteness; build every layer before
        # replacing any, so a rejected array leaves the model as it was.
        it = iter(params)
        conv = [GcnLayer(next(it)) for _ in self.conv_layers]
        fc = [DenseLayer(next(it), next(it)) for _ in self.fc_layers]
        self.conv_layers, self.fc_layers = conv, fc


def init_model(
    input_dim: int,
    conv_widths: Sequence[int] = CONV_WIDTHS,
    fc_widths: Sequence[int] = FC_WIDTHS,
    seed=0,
) -> GcnModel:
    """Seeded uniform initialization in +-sqrt(6 / (fan_in + fan_out)).

    Biases draw from the same bound rather than starting at zero, so no
    ReLU input sits exactly on the kink even when an upstream layer goes
    quiet.
    """
    if len(conv_widths) != 4:
        raise DimensionError("conv_widths must list exactly 4 widths")
    if any(w < 1 for w in (*conv_widths, *fc_widths)):
        raise DimensionError(f"layer widths must be >= 1: conv {conv_widths}, fc {fc_widths}")
    rng = np.random.default_rng(seed)

    def uniform(bound, *shape):
        return rng.uniform(-bound, bound, size=shape)

    conv_layers = []
    width = input_dim
    for out in conv_widths:
        bound = np.sqrt(6.0 / (2 * width + out))
        conv_layers.append(GcnLayer(uniform(bound, 2 * width, out)))
        width = out
    fc_layers = []
    for out in list(fc_widths) + [1]:
        bound = np.sqrt(6.0 / (width + out))
        fc_layers.append(DenseLayer(uniform(bound, width, out), uniform(bound, out)))
        width = out
    return GcnModel(conv_layers, fc_layers)


def aggregation_matrix(adjacency: np.ndarray) -> np.ndarray:
    """Symmetrically degree-normalized adjacency.

    Rows and columns of degree-0 nodes are zero: the concatenation in the
    layer already carries the node's own feature, so no self-loops are
    added to dodge the undefined inverse.
    """
    a = np.asarray(adjacency, dtype=np.float64)
    check_adjacency(a)
    return _normalize(a)


def _normalize(a: np.ndarray) -> np.ndarray:
    """D^(-1/2) A D^(-1/2) of an adjacency already known to be valid."""
    degrees = a.sum(axis=1)
    inv_sqrt = np.zeros_like(degrees)
    nz = degrees > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(degrees[nz])
    g = a * inv_sqrt[:, None]
    g *= inv_sqrt[None, :]
    return g


def _inner_sum(x: np.ndarray, y: np.ndarray, out=None) -> np.ndarray:
    """x.T @ y, summed in order over blocks of at most _MAX_INNER rows."""
    out = np.matmul(x[:_MAX_INNER].T, y[:_MAX_INNER], out=out)
    for start in range(_MAX_INNER, len(x), _MAX_INNER):
        out += x[start : start + _MAX_INNER].T @ y[start : start + _MAX_INNER]
    return out


def _check_input(qes: Qes, model: GcnModel) -> None:
    if qes.dim != model.input_dim:
        raise DimensionError(
            f"model expects {model.input_dim}-d features, subgraph has {qes.dim}"
        )


def _with_aggregate(h: np.ndarray, blocks) -> np.ndarray:
    """[H || G H] for rows stacked by subgraph: each (g, start, end) block
    aggregates its own rows with its own G."""
    d = h.shape[1]
    concat = np.empty((len(h), 2 * d), dtype=h.dtype)
    concat[:, :d] = h
    for g, s, e in blocks:
        _inner_sum(g.T, h[s:e], out=concat[s:e, d:])
    return concat


def _forward_cached(batch: Sequence[Qes], model: GcnModel, dtype=np.float64):
    """The forward pass `backward` differentiates: the batch's subgraphs
    stacked row-wise, computed in `dtype`, retaining every layer's
    intermediates. Each weight product runs once for the whole batch; G H
    runs per subgraph, with that subgraph's own G. Probabilities come back
    in float64. In float64 over one subgraph it gives `model_forward`'s
    bits."""
    for qes in batch:
        _check_input(qes, model)
    # Qes checked its adjacency when it was built, and the array is read-only.
    gs = [_normalize(qes.adjacency).astype(dtype, copy=False) for qes in batch]
    ends = np.cumsum([len(g) for g in gs]).tolist()
    blocks = list(zip(gs, [0] + ends[:-1], ends))
    h = np.concatenate([qes.features for qes in batch]).astype(dtype, copy=False)
    conv_cache = []
    for layer in model.conv_layers:
        w = layer.weights.astype(dtype, copy=False)
        concat = _with_aggregate(h, blocks)
        z = concat @ w
        conv_cache.append((concat, z, w))
        h = np.maximum(z, 0.0)
    head = len(model.fc_layers) - 1
    fc_cache = []
    for i, layer in enumerate(model.fc_layers):
        w = layer.weights.astype(dtype, copy=False)
        z = h @ w + layer.bias.astype(dtype, copy=False)
        fc_cache.append((h, z, w))
        h = z if i == head else np.maximum(z, 0.0)
    probs = sigmoid(h[:, 0])
    return probs, blocks, conv_cache, fc_cache


def model_forward(qes: Qes, model: GcnModel) -> np.ndarray:
    """Per-node matchability probabilities, aligned with qes.nodes.

    Float64 over the one subgraph, holding only the layer being computed:
    each input is dropped once its weight product is taken, and relu and
    the bias act in place. The products are those of `_forward_cached`,
    so the bits are too."""
    _check_input(qes, model)
    blocks = [(_normalize(qes.adjacency), 0, len(qes))]
    h = qes.features
    for layer in model.conv_layers:
        h = _with_aggregate(h, blocks) @ layer.weights
        np.maximum(h, 0.0, out=h)
    head = len(model.fc_layers) - 1
    for i, layer in enumerate(model.fc_layers):
        h = h @ layer.weights
        h += layer.bias
        if i != head:
            np.maximum(h, 0.0, out=h)
    return sigmoid(h[:, 0])


def masked_loss(probs, labels, hop) -> float:
    """Mean sigmoid cross-entropy over 1-hop nodes only.

    Probabilities are clamped away from {0, 1} so the loss stays finite;
    2-hop nodes contribute exactly zero.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    hop = np.asarray(hop)
    if not (probs.shape == labels.shape == hop.shape):
        raise DimensionError("probs, labels, and hop tags must align")
    mask = hop == 1
    if not mask.any():
        raise EmptyLossSet("subgraph has no 1-hop nodes")
    p = np.clip(probs[mask], PROB_CLAMP, 1.0 - PROB_CLAMP)
    y = labels[mask].astype(np.float64)
    terms = -(y * np.log(p) + (1.0 - y) * np.log1p(-p))
    return float(terms.mean())


@dataclass
class ModelGradients:
    """A batch's mean loss gradients in GcnModel.parameters() order, float64,
    with each subgraph's loss and per-node probabilities from the forward
    pass they were taken at."""

    grads: list[np.ndarray]
    losses: list[float]
    probs: list[np.ndarray]


def backward(batch: Sequence[Qes], model: GcnModel, labels: Sequence,
             dtype=np.float64) -> ModelGradients:
    """Exact gradients of the batch's mean masked loss for every weight and
    bias, with one label array per subgraph.

    The batch is stacked row-wise and computed in `dtype`: every node's
    output gradient is scaled by 1 / (m * B), with m its subgraph's 1-hop
    count and B the batch size, so the weight products return the batch
    mean directly. Losses and probabilities are taken in float64. The
    clamp's flat regions propagate a zero gradient, matching what finite
    differences see there.
    """
    if len(labels) != len(batch):
        raise DimensionError("need one label array per subgraph")
    probs, blocks, conv_cache, fc_cache = _forward_cached(batch, model, dtype)
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
    grads: list[np.ndarray] = []  # reversed parameter order until the end
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
            break  # below it are the node features, which are not parameters
        dconcat = dzl @ w.T
        d = dconcat.shape[1] // 2
        dh = dconcat[:, :d].copy()
        for g, s, e in blocks:
            dh[s:e] += _inner_sum(g, dconcat[s:e, d:])
    grads.reverse()

    return ModelGradients([g.astype(np.float64, copy=False) for g in grads], losses, per_probs)


def save_model(model: GcnModel) -> bytes:
    """Binary checkpoint: little-endian, 64-bit weights, lossless."""
    out = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    layers: list[tuple[int, np.ndarray, np.ndarray | None]] = []
    for layer in model.conv_layers:
        layers.append((_KIND_CONV, layer.weights, None))
    for layer in model.fc_layers:
        layers.append((_KIND_FC, layer.weights, layer.bias))
    out.append(struct.pack("<I", len(layers)))
    for kind, weights, bias in layers:
        rows, cols = weights.shape
        out.append(struct.pack("<BIIB", kind, rows, cols, 0 if bias is None else 1))
        out.append(weights.astype("<f8").tobytes())
        if bias is not None:
            out.append(bias.astype("<f8").tobytes())
    return b"".join(out)


def load_model(data: bytes) -> GcnModel:
    """Inverse of save_model; raises distinct errors for bad magic, version,
    truncation, and inconsistent shapes."""
    data = bytes(data)
    if len(data) < 4 or data[:4] != CHECKPOINT_MAGIC:
        raise MalformedHeader("not a model checkpoint", offset=0)
    offset = 4

    def take(n: int) -> bytes:
        nonlocal offset
        if len(data) < offset + n:
            raise TruncatedPayload("checkpoint ended early", offset=len(data))
        chunk = data[offset : offset + n]
        offset += n
        return chunk

    (version,) = struct.unpack("<I", take(4))
    if version != CHECKPOINT_VERSION:
        raise VersionMismatch(f"unsupported checkpoint version {version}", offset=4)
    (count,) = struct.unpack("<I", take(4))
    conv_weights: list[np.ndarray] = []
    fc_params: list[tuple[np.ndarray, np.ndarray]] = []
    for _ in range(count):
        kind, rows, cols, has_bias = struct.unpack("<BIIB", take(10))
        if kind not in (_KIND_CONV, _KIND_FC):
            raise ShapeCorruption(f"unknown layer kind {kind}", offset=offset - 10)
        weights = np.frombuffer(take(8 * rows * cols), dtype="<f8").reshape(rows, cols).copy()
        bias = None
        if has_bias:
            bias = np.frombuffer(take(8 * cols), dtype="<f8").copy()
        if kind == _KIND_CONV:
            if has_bias:
                raise ShapeCorruption("conv layer must not carry a bias", offset=offset)
            conv_weights.append(weights)
        else:
            if bias is None:
                raise ShapeCorruption("dense layer missing its bias", offset=offset)
            fc_params.append((weights, bias))
    if offset != len(data):
        raise ShapeCorruption("trailing bytes after checkpoint", offset=offset)
    try:
        return GcnModel([GcnLayer(w) for w in conv_weights],
                        [DenseLayer(w, b) for w, b in fc_params])
    except DimensionError as exc:
        raise ShapeCorruption(f"inconsistent checkpoint shapes: {exc}") from exc
