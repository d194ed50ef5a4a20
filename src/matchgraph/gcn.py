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
        if self.weights.ndim != 2:
            raise DimensionError("dense weights must be 2-d")
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
    return inv_sqrt[:, None] * a * inv_sqrt[None, :]


def _forward_cached(qes: Qes, model: GcnModel):
    """Forward pass retaining the intermediates the backward pass needs."""
    if qes.dim != model.input_dim:
        raise DimensionError(
            f"model expects {model.input_dim}-d features, subgraph has {qes.dim}"
        )
    # Qes checked its adjacency when it was built, and the array is read-only.
    g = _normalize(qes.adjacency)
    h = qes.features
    conv_cache = []
    for layer in model.conv_layers:
        concat = np.concatenate([h, g @ h], axis=1)
        z = concat @ layer.weights
        conv_cache.append((concat, z))
        h = np.maximum(z, 0.0)
    head = len(model.fc_layers) - 1
    fc_cache = []
    for i, layer in enumerate(model.fc_layers):
        z = h @ layer.weights + layer.bias
        fc_cache.append((h, z))
        h = z if i == head else np.maximum(z, 0.0)
    logits = h[:, 0]
    probs = sigmoid(logits)
    return probs, g, conv_cache, fc_cache


def model_forward(qes: Qes, model: GcnModel) -> np.ndarray:
    """Per-node matchability probabilities, aligned with qes.nodes."""
    probs, _, _, _ = _forward_cached(qes, model)
    return probs


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
    """Loss gradients in GcnModel.parameters() order, with the loss and the
    per-node probabilities of the forward pass they were taken at."""

    grads: list[np.ndarray]
    loss: float
    probs: np.ndarray


def backward(qes: Qes, model: GcnModel, labels) -> ModelGradients:
    """Exact gradients of the masked loss for every weight and bias.

    The clamp's flat regions propagate a zero gradient, matching what
    finite differences see there.
    """
    labels = np.asarray(labels, dtype=bool)
    hop = np.asarray(qes.hop)
    probs, g, conv_cache, fc_cache = _forward_cached(qes, model)
    loss = masked_loss(probs, labels, hop)

    mask = hop == 1
    m = int(mask.sum())
    y = labels.astype(np.float64)
    live = (probs > PROB_CLAMP) & (probs < 1.0 - PROB_CLAMP)
    dz = np.where(mask & live, (probs - y) / m, 0.0)

    dh = dz[:, None]
    grads: list[np.ndarray] = []  # reversed parameter order until the end
    head = len(model.fc_layers) - 1
    for i in range(head, -1, -1):
        h_in, z = fc_cache[i]
        dzl = dh if i == head else dh * (z > 0)
        grads.append(dzl.sum(axis=0))
        grads.append(h_in.T @ dzl)
        dh = dzl @ model.fc_layers[i].weights.T

    for layer, (concat, z) in zip(reversed(model.conv_layers), reversed(conv_cache)):
        dzl = dh * (z > 0)
        grads.append(concat.T @ dzl)
        if layer is model.conv_layers[0]:
            break  # below it are the node features, which are not parameters
        dconcat = dzl @ layer.weights.T
        d = layer.in_dim
        dh = dconcat[:, :d] + g.T @ dconcat[:, d:]
    grads.reverse()

    return ModelGradients(grads=grads, loss=loss, probs=probs)


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
