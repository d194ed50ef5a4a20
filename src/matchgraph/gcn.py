"""Graph convolutional classifier over query enclosing subgraphs.

Each graph convolution mixes a node's own feature with a degree-normalized
aggregate of its neighbors' features:

    Y = relu([X || G X] W),   G = D^(-1/2) A D^(-1/2)

with concatenation along the feature axis: a `Layer` with no bias whose
input is [X || G X]. One or more such layers (the paper's linkage GCN has
four) feed dense layers, each a `Layer` with bias; every layer is relu
except the last, which is the identity and gives one logit per node. A
sigmoid turns logits into matchability probabilities. The loss and its
gradients are masked to 1-hop nodes only. The backward pass is fully
analytic (no autodiff) and is validated against central finite
differences.

There are two forward passes over one arithmetic. Inference
(`model_forward`) runs float64 over one subgraph, holds only the layer it
is computing, and skips the columns of dead relu units. Training
(`backward`) runs over a batch of subgraphs stacked row-wise, in the
dtype `prepare` made them in (float32 in training, float64 for the
gradient oracle), inside a `Workspace` of buffers allocated once: each
layer's input, for a convolution its [H || G H], stays in its buffer for
the backward pass, and each relu writes straight into the next layer's
input. Every pass walks the one list `GcnModel.layers`. `prepare` makes a
subgraph's G and features in the compute dtype once, so a training run
normalizes each subgraph once, not once per step. Both forwards aggregate
with `_aggregate`.

Training leaves many relu units dead, negative on every node of a
subgraph, so that their output column is zero: 94-98% of the columns after
the second and third convolution of the benchmark's reference model.
`Workspace.dead_shares` gives each hidden layer's share of units dead on
every step since it was last read, which `train` logs each epoch.
Inference carries only the live columns on when at least half are dead.
Its probabilities are then within 1e-12 absolute of the training forward
in float64, and they are the same bits when no layer drops columns.
"""

import struct
from dataclasses import dataclass
from itertools import accumulate
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
class Layer:
    """One layer of the model. Without a bias it is a graph convolution:
    its weights are shaped (2 * d_in) x d_out, for the input [H || G H].
    With a bias it is a dense layer, weights d_in x d_out. A walk over
    `GcnModel.layers` tells the two apart by `bias is None`."""

    weights: np.ndarray
    bias: np.ndarray | None = None

    def __post_init__(self):
        kind = "conv" if self.bias is None else "dense"
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2 or self.weights.shape[1] < 1:
            raise DimensionError(f"{kind} weights must be 2-d with >= 1 column")
        if self.bias is None:
            if self.weights.shape[0] % 2 != 0:
                raise DimensionError("conv weights must have an even row count")
            if not np.all(np.isfinite(self.weights)):
                raise DimensionError("conv weights must be finite")
            return
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.bias.shape != (self.weights.shape[1],):
            raise DimensionError("bias length must equal output width")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise DimensionError("dense parameters must be finite")

    @property
    def in_dim(self) -> int:
        rows = self.weights.shape[0]
        return rows // 2 if self.bias is None else rows

    @property
    def out_dim(self) -> int:
        return self.weights.shape[1]


class GcnModel:
    """One or more graph convolutions followed by one or more dense layers
    ending in a single logit, walked in that order as `layers`. Every
    layer is relu except the last, which is the identity. Inference only
    reads it. Training updates one flat float64 vector of the parameters
    in place and passes its views to set_parameters after every step, so
    the layers view that vector and the finiteness check runs each step."""

    def __init__(self, layers: Sequence[Layer]):
        self.layers = list(layers)
        conv = [layer.bias is None for layer in self.layers]
        depth = conv.count(True)
        if not depth:
            raise DimensionError("model requires at least one graph conv layer")
        if any(conv[depth:]):
            raise DimensionError("conv layer after a dense layer")
        if depth == len(conv):
            raise DimensionError("model requires at least one dense layer")
        if self.layers[-1].out_dim != 1:
            raise DimensionError("final dense layer must output one logit")
        width = self.input_dim
        for i, layer in enumerate(self.layers):
            if layer.in_dim != width:
                raise DimensionError(f"layer {i} expects input {layer.in_dim}, got {width}")
            width = layer.out_dim

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    def parameters(self) -> list[np.ndarray]:
        """Each layer's weights, then its bias if it has one, in layer order."""
        return [p for layer in self.layers for p in (layer.weights, layer.bias) if p is not None]

    def set_parameters(self, params: Sequence[np.ndarray]) -> None:
        old = self.parameters()
        if len(params) != len(old):
            raise DimensionError(f"expected {len(old)} parameter arrays")
        if any(np.shape(new) != p.shape for new, p in zip(params, old)):
            raise DimensionError("parameter shape changed")
        # The layer constructors check finiteness; build every layer before
        # replacing any, so a rejected array leaves the model as it was.
        self.layers = [Layer(w, b) for w, b in _by_layer(self, params)]

    def parameter_views(self, flat: np.ndarray) -> list[np.ndarray]:
        """`flat` cut into arrays shaped like parameters(), in that order,
        sharing its memory."""
        views, start = [], 0
        for p in self.parameters():
            views.append(flat[start : start + p.size].reshape(p.shape))
            start += p.size
        if start != flat.size:
            raise DimensionError(f"expected {start} parameters, got {flat.size}")
        return views


def _by_layer(model: GcnModel, arrays: Sequence[np.ndarray]) -> list[tuple]:
    """Arrays in parameters() order, grouped as one (weights, bias) pair per
    layer; a convolution's bias is None."""
    it = iter(arrays)
    return [(next(it), None if layer.bias is None else next(it)) for layer in model.layers]


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
    if any(w < 1 for w in (*conv_widths, *fc_widths)):
        raise DimensionError(f"layer widths must be >= 1: conv {conv_widths}, fc {fc_widths}")
    rng = np.random.default_rng(seed)

    def uniform(bound, *shape):
        return rng.uniform(-bound, bound, size=shape)

    layers = []
    width = input_dim
    for out in conv_widths:
        bound = np.sqrt(6.0 / (2 * width + out))
        layers.append(Layer(uniform(bound, 2 * width, out)))
        width = out
    for out in [*fc_widths, 1]:
        bound = np.sqrt(6.0 / (width + out))
        layers.append(Layer(uniform(bound, width, out), uniform(bound, out)))
        width = out
    return GcnModel(layers)


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


def _inner_sum(x: np.ndarray, y: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """x.T @ y, summed in order over blocks of at most _MAX_INNER rows.
    Each block after the first is taken into `scratch`, a flat buffer of
    at least out's size, if one is given, and into a new array if not."""
    out = np.matmul(x[:_MAX_INNER].T, y[:_MAX_INNER], out=out)
    block = None if scratch is None else _rows(scratch, *out.shape)
    for start in range(_MAX_INNER, len(x), _MAX_INNER):
        out += np.matmul(x[start : start + _MAX_INNER].T, y[start : start + _MAX_INNER],
                         out=block)
    return out


def _check_width(dim: int, model: GcnModel) -> None:
    if dim != model.input_dim:
        raise DimensionError(f"model expects {model.input_dim}-d features, subgraph has {dim}")


def _aggregate(h: np.ndarray, blocks, out: np.ndarray, scratch=None) -> None:
    """G H into `out` for rows stacked by subgraph: each (g, start, end)
    block aggregates its own rows with its own G, taking the blocks of a
    subgraph over _MAX_INNER nodes into `scratch` as `_inner_sum` does."""
    for g, s, e in blocks:
        _inner_sum(g.T, h[s:e], out=out[s:e], scratch=scratch)


def _live_columns(h: np.ndarray) -> np.ndarray | None:
    """The columns of a relu output that are nonzero on some node, or None
    when fewer than half of them are zero on every node. The output is
    nonnegative, so a column is zero on every node exactly when its sum is."""
    live = np.flatnonzero(np.ones(len(h)) @ h)
    return live if 2 * len(live) <= h.shape[1] else None


def _live_rows(layer, live: np.ndarray) -> np.ndarray:
    """The rows of the layer's weights that multiply the input columns
    `live`: for a convolution, those of H and of G H."""
    if layer.bias is None:
        live = np.concatenate([live, live + layer.in_dim])
    return layer.weights[live]


def model_forward(qes: Qes, model: GcnModel) -> np.ndarray:
    """Per-node matchability probabilities, aligned with qes.nodes.

    Float64 over the one subgraph, holding only the layer being computed:
    each input is dropped once its weight product is taken, and relu and
    the bias act in place. When at least half of a relu's output columns
    are zero on every node, only its live columns go on, and the next
    layer multiplies them by the weight rows they meet. When no layer
    drops columns the products are those of the training forward in
    float64, so the bits are too; otherwise the probabilities lie within
    1e-12 of it."""
    _check_width(qes.dim, model)
    blocks = [(_normalize(qes.adjacency), 0, len(qes))]
    h = qes.features
    live = None  # the columns of h that went on, when some were dropped
    head = model.layers[-1]
    for layer in model.layers:
        weights = layer.weights if live is None else _live_rows(layer, live)
        if layer.bias is None:
            d = h.shape[1]
            concat = np.empty((len(h), 2 * d))
            concat[:, :d] = h
            _aggregate(h, blocks, concat[:, d:])
            h = concat
        h = h @ weights
        if layer.bias is not None:
            h += layer.bias
        if layer is not head:
            np.maximum(h, 0.0, out=h)
            live = _live_columns(h)
            if live is not None:
                h = h[:, live]
    return sigmoid(h[:, 0])


@dataclass(frozen=True)
class TrainingSubgraph:
    """One labeled subgraph as a training step reads it: its aggregation
    matrix G and its features in the compute dtype, its 1-hop mask, and its
    labels as float64 0/1. Made once by `prepare`; a step only stacks it."""

    g: np.ndarray
    features: np.ndarray
    hop1: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.hop1)


def prepare(qes: Qes, labels, dtype=np.float64) -> TrainingSubgraph:
    """A subgraph and one label per node, ready for `backward` in `dtype`."""
    labels = np.asarray(labels, dtype=bool)
    if labels.shape != (len(qes),):
        raise DimensionError(f"need one label per node: {len(qes)} nodes, "
                             f"labels shaped {labels.shape}")
    # Qes checked its adjacency when it was built, and the array is read-only.
    return TrainingSubgraph(
        _normalize(qes.adjacency).astype(dtype, copy=False),
        qes.features.astype(dtype, copy=False),
        qes.hop == 1,
        labels.astype(np.float64),
    )


def _rows(flat: np.ndarray, n: int, width: int) -> np.ndarray:
    """The first n rows of `width` columns of a flat scratch buffer."""
    return flat[: n * width].reshape(n, width)


class Workspace:
    """Buffers for training steps of one model shape over at most `rows`
    stacked nodes in `dtype`, allocated once and reused by every step:

    - one input per layer, [H || G H] for a convolution and H for a dense
      layer; the previous layer's relu writes H;
    - one z scratch, two gradient buffers used in turn, and one scratch
      for the blocks of a weight gradient and of G H in a subgraph over
      _MAX_INNER nodes;
    - the parameters cast to `dtype`, and their gradients;
    - for each hidden layer, its relu output's column sums added up over
      the steps since `dead_shares` last read them.

    A relu's output is kept and its input is not: h > 0 exactly where z > 0,
    so the backward pass masks with the output."""

    def __init__(self, model: GcnModel, rows: int, dtype=np.float64):
        self.rows = rows
        layers, params = model.layers, model.parameters()
        self.inputs = [np.empty((rows, layer.weights.shape[0]), dtype) for layer in layers]
        self.z = np.empty(rows * max(layer.out_dim for layer in layers), dtype)
        # The first layer's input gradient is never taken.
        widest = max(layer.weights.shape[0] for layer in layers[1:])
        self.dh = (np.empty(rows * widest, dtype), np.empty(rows * widest, dtype))
        widest_conv = max(layer.in_dim for layer in layers if layer.bias is None)
        self.block = np.empty(max(rows * widest_conv, *(p.size for p in params)), dtype)
        size = sum(p.size for p in params)
        self.weights = model.parameter_views(np.empty(size, dtype))
        self.grad = np.empty(size, dtype)
        self.grads = model.parameter_views(self.grad)
        self.grad64 = self.grad if self.grad.dtype == np.float64 else np.empty(size)
        self.grads64 = model.parameter_views(self.grad64)
        self.ones = np.ones(rows, dtype)
        self.unit_sums = [np.zeros(layer.out_dim, dtype) for layer in layers[:-1]]

    def dead_shares(self) -> list[float]:
        """For each hidden layer, the share of its units whose relu output
        was zero on every node of every step since the last call. The
        output is nonnegative, so those units' column sums are zero."""
        shares = [float(np.mean(sums == 0)) for sums in self.unit_sums]
        for sums in self.unit_sums:
            sums.fill(0)
        return shares


def _relu_backward(dh: np.ndarray, h: np.ndarray, scratch: np.ndarray) -> None:
    """dH * (h > 0) in place, with h the relu's output: the gradient at
    its input. The mask is built as 0/1 in `scratch`, in dH's dtype, which
    multiplies exactly as the boolean mask would."""
    mask = _rows(scratch, *h.shape)
    np.greater(h, 0.0, out=mask)
    dh *= mask


def _forward_batch(batch: Sequence[TrainingSubgraph], model: GcnModel, work: Workspace):
    """The forward pass `backward` differentiates: the batch's subgraphs
    stacked row-wise in `work`, computed in its dtype, each layer's input
    left in its buffer. Each weight product runs once for the whole
    batch; G H runs per subgraph, with that subgraph's own G. Returns the
    probabilities in float64, and the (G, start, end) row blocks. In
    float64 over one subgraph it gives `model_forward`'s bits when no layer
    there drops columns, and its probabilities within 1e-12 otherwise."""
    for x in batch:
        _check_width(x.features.shape[1], model)
    ends = list(accumulate(map(len, batch)))
    blocks = [(x.g, s, e) for x, s, e in zip(batch, [0] + ends[:-1], ends)]
    n = ends[-1]
    if n > work.rows:
        raise DimensionError(f"batch of {n} nodes exceeds the workspace's {work.rows} rows")
    for w, p in zip(work.weights, model.parameters()):
        np.copyto(w, p)
    inputs = [x[:n] for x in work.inputs]
    for x, (_, s, e) in zip(batch, blocks):
        inputs[0][s:e, : model.input_dim] = x.features
    head = len(model.layers) - 1
    for i, (layer, (w, b)) in enumerate(zip(model.layers, _by_layer(model, work.weights))):
        if b is None:
            d = layer.in_dim
            _aggregate(inputs[i][:, :d], blocks, inputs[i][:, d:], work.block)
        z = _rows(work.z, n, layer.out_dim)
        np.matmul(inputs[i], w, out=z)
        if b is not None:
            z += b
        if i != head:
            np.maximum(z, 0.0, out=inputs[i + 1][:, : layer.out_dim])
    return sigmoid(z[:, 0]), blocks


def _cross_entropy(probs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-node sigmoid cross-entropy against 0/1 labels `y` in float64,
    with the probabilities clamped into [PROB_CLAMP, 1 - PROB_CLAMP]."""
    p = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return -(y * np.log(p) + (1.0 - y) * np.log1p(-p))


@dataclass
class ModelGradients:
    """A batch's mean loss gradients, float64: `flat` holds them all in
    GcnModel.parameters() order and `grads` views it shaped like the
    parameters. With each subgraph's loss and per-node probabilities from
    the forward pass they were taken at. The next step in the same
    workspace overwrites the gradients."""

    grads: list[np.ndarray]
    losses: list[float]
    probs: list[np.ndarray]
    flat: np.ndarray


def backward(batch: Sequence[TrainingSubgraph], model: GcnModel,
             workspace: Workspace | None = None) -> ModelGradients:
    """Exact gradients of the batch's mean masked loss for every weight and
    bias.

    `batch` holds subgraphs `prepare` has made, all in one dtype, in which
    the batch is stacked row-wise and computed: in `workspace` if one is
    given (`train` reuses one sized for its largest batch) or else in one
    sized for this batch. Every node's output gradient is scaled by
    1 / (m * B), with m its subgraph's 1-hop count and B the batch size, so
    the weight products return the batch mean directly. Losses and
    probabilities are taken in float64: each subgraph's loss is the mean
    `_cross_entropy` of its 1-hop nodes, and 2-hop nodes add nothing. A
    subgraph with no 1-hop node raises `EmptyLossSet`. The clamp's flat
    regions propagate a zero gradient, matching what finite differences
    see there.
    """
    if not batch:
        raise DimensionError("cannot take gradients of an empty batch: it holds no subgraph")
    counts = [int(np.count_nonzero(x.hop1)) for x in batch]
    if not all(counts):
        raise EmptyLossSet("subgraph has no 1-hop nodes")
    work = workspace or Workspace(model, sum(map(len, batch)), batch[0].features.dtype)
    probs, blocks = _forward_batch(batch, model, work)
    n = len(probs)
    for h, sums in zip(work.inputs[1:], work.unit_sums):
        sums += np.matmul(work.ones[:n], h[:n, : len(sums)], out=work.z[: len(sums)])
    hop1 = np.concatenate([x.hop1 for x in batch])
    y = np.concatenate([x.labels for x in batch])
    terms = _cross_entropy(probs[hop1], y[hop1])
    cuts = list(accumulate(counts))
    losses = [float(terms[a:b].mean()) for a, b in zip([0] + cuts[:-1], cuts)]
    live = (probs > PROB_CLAMP) & (probs < 1.0 - PROB_CLAMP)
    scale = np.repeat(np.multiply(counts, len(batch)), list(map(len, batch)))
    dz = np.where(hop1 & live, (probs - y) / scale, 0.0)

    layers = list(zip(model.layers, _by_layer(model, work.weights),
                      _by_layer(model, work.grads)))
    turn = 0
    dh = _rows(work.dh[turn], n, 1)
    dh[:, 0] = dz
    head = len(layers) - 1
    for i in range(head, -1, -1):
        layer, (w, _), (dw, db) = layers[i]
        if i != head:
            _relu_backward(dh, work.inputs[i + 1][:n, : layer.out_dim], work.z)
        if db is not None:
            np.sum(dh, axis=0, out=db)
        _inner_sum(work.inputs[i][:n], dh, out=dw, scratch=work.block)
        if i == 0:
            break  # below it are the node features, which are not parameters
        turn = 1 - turn
        dx = dh = np.matmul(dh, w.T, out=_rows(work.dh[turn], n, w.shape[0]))
        if db is None:  # dH from d[H || G H], into the buffer dZ has left
            d = layer.in_dim
            turn = 1 - turn
            dh = _rows(work.dh[turn], n, d)
            dh[...] = dx[:, :d]
            for g, s, e in blocks:
                dh[s:e] += _inner_sum(g, dx[s:e, d:], out=_rows(work.z, e - s, d),
                                      scratch=work.block)

    if work.grad64 is not work.grad:
        np.copyto(work.grad64, work.grad)
    per_probs = [probs[s:e] for _, s, e in blocks]
    return ModelGradients(work.grads64, losses, per_probs, work.grad64)


def save_model(model: GcnModel) -> bytes:
    """Binary checkpoint: little-endian, 64-bit weights, lossless."""
    out = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(model.layers))]
    for layer in model.layers:
        conv = layer.bias is None
        out.append(struct.pack("<BIIB", _KIND_CONV if conv else _KIND_FC,
                               *layer.weights.shape, not conv))
        out.append(layer.weights.astype("<f8").tobytes())
        if not conv:
            out.append(layer.bias.astype("<f8").tobytes())
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
    params: list[tuple[np.ndarray, np.ndarray | None]] = []
    for _ in range(count):
        kind, rows, cols, has_bias = struct.unpack("<BIIB", take(10))
        if kind not in (_KIND_CONV, _KIND_FC):
            raise ShapeCorruption(f"unknown layer kind {kind}", offset=offset - 10)
        # The first convolution out of order follows a dense layer directly.
        if kind == _KIND_CONV and params and params[-1][1] is not None:
            raise ShapeCorruption("conv layer after a dense layer", offset=offset - 10)
        weights = np.frombuffer(take(8 * rows * cols), dtype="<f8").reshape(rows, cols).copy()
        bias = np.frombuffer(take(8 * cols), dtype="<f8").copy() if has_bias else None
        if kind == _KIND_CONV and has_bias:
            raise ShapeCorruption("conv layer must not carry a bias", offset=offset)
        if kind == _KIND_FC and bias is None:
            raise ShapeCorruption("dense layer missing its bias", offset=offset)
        params.append((weights, bias))
    if offset != len(data):
        raise ShapeCorruption("trailing bytes after checkpoint", offset=offset)
    try:
        return GcnModel([Layer(w, b) for w, b in params])
    except DimensionError as exc:
        raise ShapeCorruption(f"inconsistent checkpoint shapes: {exc}") from exc
