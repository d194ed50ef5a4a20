"""Supervision labeling and seeded training of the subgraph classifier.

Each subgraph node is labeled against its query by `overlaps.label_pair`;
a pair with no observed overlap record is non-matchable. `label_qes`
returns one bool per node. `build_training_set` builds, labels and
`prepare`s each query's subgraph in float32 once per run and keeps only
that prepared copy, so training holds no `Qes`. Training iterates epochs
over shuffled queries, takes each batch's mean gradient in one float32
pass over its subgraphs stacked row-wise, and applies one adaptive-moment
update per batch to float64 parameters. Every step computes in buffers
allocated once per run, and the update works in place on one flat vector.
Given a seed the whole procedure is bit-reproducible.
"""

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import evaluation
from .embeddings import EmbeddingMatrix
from .errors import DimensionError, NoTrainingData
from .gcn import (
    CONV_WIDTHS, FC_WIDTHS, PROB_THRESHOLD, GcnModel, ModelGradients, TrainingSubgraph,
    Workspace, backward, init_model, prepare,
)
from .knn import build_index
from .overlaps import TAU_CT, TAU_MO, OverlapStore, label_pair
# Re-exported: the benchmark calls and traces these two under trainer's name.
from .overlaps import load_overlaps, save_overlaps  # noqa: F401
from .subgraph import Qes, QesParams, build_qes

log = logging.getLogger(__name__)

ADAM_BETA1 = 0.9  # first-moment decay of the adaptive-moment update
ADAM_EPS = 1e-8  # added to the root of the second moment


@dataclass(frozen=True)
class TrainConfig:
    """Labeling thresholds, subgraph shape, and optimization settings.

    The thresholds and subgraph neighbor counts default to the balanced
    operating point; epoch count, learning rate, and batch size are
    artifact configuration with no canonical values.
    """

    tau_mo: float = TAU_MO
    tau_ct: float = TAU_CT
    qes_params: QesParams = field(default_factory=QesParams)
    learning_rate: float = 1e-3
    epochs: int = 50
    batch_size: int = 16
    seed: int = 0
    beta2: float = 0.999

    def __post_init__(self):
        if not (0.0 <= self.tau_mo <= 1.0 and 0.0 <= self.tau_ct <= 1.0):
            raise ValueError("thresholds must lie in [0, 1]")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning rate must be finite and > 0, got {self.learning_rate!r}")
        if self.epochs < 0:
            raise ValueError("epoch count must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if not 0.0 <= self.beta2 < 1.0:
            raise ValueError("beta2 must lie in [0, 1)")


def label_qes(qes: Qes, store: OverlapStore, config: TrainConfig) -> np.ndarray:
    """Whether each node is matchable with the query, one bool per node;
    unobserved pairs are negative."""
    partners = store.partners(qes.query_id)
    return np.isin(qes.nodes, partners.ids[label_pair(partners, config.tau_mo, config.tau_ct)])


@dataclass
class AdamState:
    """First/second moment estimates and the bias-correction step count,
    plus two scratch vectors for the update; flat, like the parameters."""

    step: int
    m: np.ndarray
    v: np.ndarray
    scratch: tuple[np.ndarray, np.ndarray]


def init_adam(params: np.ndarray) -> AdamState:
    return AdamState(
        step=0,
        m=np.zeros_like(params),
        v=np.zeros_like(params),
        scratch=(np.empty_like(params), np.empty_like(params)),
    )


def optimizer_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    learning_rate: float = 1e-3,
    beta2: float = 0.999,
) -> None:
    """One adaptive-moment update with bias correction, in place: `params`
    and the moments in `state` are each one flat vector, updated with
    `out=` arithmetic and no new array."""
    if not params.shape == grads.shape == state.m.shape:
        raise DimensionError(f"parameter {params.shape}, gradient {grads.shape} and "
                             f"state {state.m.shape} shapes differ")
    t = state.step + 1
    m, v, (a, b) = state.m, state.v, state.scratch
    m *= ADAM_BETA1  # m = beta1 * m + (1 - beta1) * g
    np.multiply(1.0 - ADAM_BETA1, grads, out=a)
    m += a
    v *= beta2  # v = beta2 * v + (1 - beta2) * g^2
    np.multiply(grads, grads, out=a)
    np.multiply(1.0 - beta2, a, out=a)
    v += a
    np.divide(m, 1.0 - ADAM_BETA1**t, out=a)  # lr * m_hat / (sqrt(v_hat) + eps)
    np.multiply(learning_rate, a, out=a)
    np.divide(v, 1.0 - beta2**t, out=b)
    np.sqrt(b, out=b)
    b += ADAM_EPS
    a /= b
    params -= a
    state.step = t


def average_gradients(grads: Sequence[ModelGradients]) -> list[np.ndarray]:
    """Mean of per-subgraph gradients, reduced in list order. Training no
    longer calls it, since `backward` returns a batch's mean; the benchmark's
    tracer (`bench/tracing.py`) still looks it up by name."""
    out = []
    for arrays in zip(*(g.grads for g in grads)):
        total = arrays[0].copy()
        for a in arrays[1:]:
            total += a
        out.append(total / len(arrays))
    return out


@dataclass(frozen=True)
class EpochStats:
    """One epoch's mean training loss and macro 1-hop precision, recall and
    F over the training subgraphs. Each subgraph's loss and scores come from
    the forward pass its gradient was taken at, so they describe the model
    before that subgraph's batch step, not the model at the epoch's end."""

    epoch: int
    loss: float
    precision: float
    recall: float
    fmeasure: float


def build_training_set(
    emb: EmbeddingMatrix,
    records: OverlapStore,
    queries: Sequence[int],
    config: TrainConfig,
) -> list[TrainingSubgraph]:
    """One labeled subgraph per query, prepared in float32, skipping those
    with no 1-hop node. Each `Qes` is dropped once it is prepared."""
    index = build_index(emb)
    subgraphs = []
    for q in queries:
        qes = build_qes(index, emb, q, config.qes_params)
        if not np.any(qes.hop == 1):
            log.warning("query %d has no 1-hop nodes; skipping", q)
            continue
        subgraphs.append(prepare(qes, label_qes(qes, records, config), np.float32))
    if not subgraphs:
        raise NoTrainingData("no query produced a trainable subgraph")
    log.info("knn table: %s", index.counts())
    return subgraphs


def _hop1_prf(sub: TrainingSubgraph, probs: np.ndarray) -> tuple[float, float, float]:
    """Precision, recall and F of the 1-hop nodes predicted above the
    retrieval threshold. Nodes are unique, so masks count the sets."""
    predicted = sub.hop1 & (probs > PROB_THRESHOLD)
    relevant = sub.hop1 & (sub.labels > 0.0)
    counts = (int(np.count_nonzero(m)) for m in (predicted & relevant, predicted, relevant))
    return evaluation.prf_counts(*counts)


def train(
    emb: EmbeddingMatrix,
    records: OverlapStore,
    queries: Sequence[int],
    config: TrainConfig,
    conv_widths: Sequence[int] = CONV_WIDTHS,
    fc_widths: Sequence[int] = FC_WIDTHS,
) -> tuple[GcnModel, list[EpochStats]]:
    """Optimize a fresh model on the labeled subgraphs of the given queries.

    Returns the trained model and one stats row per epoch. Deterministic:
    initialization and epoch shuffles derive from config.seed through
    fixed-purpose seed sequences, so identical inputs give bit-identical
    checkpoints.
    """
    if not queries:
        raise NoTrainingData("no training queries given")
    model = init_model(emb.dim, conv_widths, fc_widths, seed=[config.seed, 0])
    # float32 compute; the parameters and Adam state stay float64. Neither a
    # subgraph's G nor its features change between epochs.
    inputs = build_training_set(emb, records, queries, config)
    largest = sorted(map(len, inputs))[-config.batch_size:]
    work = Workspace(model, sum(largest), np.float32)
    params = np.concatenate([p.ravel() for p in model.parameters()])
    views = model.parameter_views(params)
    state = init_adam(params)
    history: list[EpochStats] = []
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        order = np.random.default_rng([config.seed, 1, epoch]).permutation(len(inputs))
        losses: list[float] = []
        grad_norms: list[float] = []
        scores = [None] * len(inputs)  # by subgraph: a fixed summation order
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            step = backward([inputs[qi] for qi in batch], model, work)
            for qi, probs in zip(batch, step.probs):
                scores[qi] = _hop1_prf(inputs[qi], probs)
            grad_norms.append(math.sqrt(sum(float(np.vdot(g, g)) for g in step.grads)))
            optimizer_step(params, step.flat, state, learning_rate=config.learning_rate,
                           beta2=config.beta2)
            try:
                model.set_parameters(views)
            except DimensionError as exc:
                raise DimensionError(f"training diverged in epoch {epoch}: {exc}") from exc
            losses.extend(step.losses)
        precision, recall, fmeasure = evaluation.macro_average(scores)
        stats = EpochStats(
            epoch=epoch,
            loss=float(np.mean(losses)),
            precision=precision,
            recall=recall,
            fmeasure=fmeasure,
        )
        history.append(stats)
        dead = "/".join(f"{share:.4f}" for share in work.dead_shares())
        log.info("epoch %d: loss %.6f precision %.4f recall %.4f fmeasure %.4f "
                 "grad_norm %.6g dead %s seconds %.3f", stats.epoch, stats.loss, precision,
                 recall, fmeasure, float(np.mean(grad_norms)), dead, time.perf_counter() - started)
    return model, history
