"""Supervision labeling and seeded training of the subgraph classifier.

Matchability labels come from thresholding mesh-overlap / common-track
scores; a pair with no observed overlap record is non-matchable. Training
iterates epochs over shuffled queries, averages per-subgraph gradients
within a batch, and applies one adaptive-moment update per batch. Given a
seed the whole procedure is bit-reproducible.
"""

import logging
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import evaluation
from .embeddings import EmbeddingMatrix
from .errors import (
    DimensionError,
    EmptyLossSet,
    InvalidRecord,
    NoTrainingData,
    NonFiniteValue,
)
from .gcn import GcnModel, ModelGradients, backward, init_model, model_forward
from .knn import build_index
from .subgraph import Qes, QesParams, build_qes

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class OverlapRecord:
    """Mesh-overlap and common-track scores for one unordered image pair."""

    i: int
    j: int
    mo: float
    ct: float

    def __post_init__(self):
        object.__setattr__(self, "i", int(self.i))
        object.__setattr__(self, "j", int(self.j))
        object.__setattr__(self, "mo", float(self.mo))
        object.__setattr__(self, "ct", float(self.ct))
        if self.i == self.j:
            raise InvalidRecord("overlap record needs two distinct images")
        for name, score in (("mo", self.mo), ("ct", self.ct)):
            if not np.isfinite(score):
                raise NonFiniteValue(f"{name} score must be finite")
            if not 0.0 <= score <= 1.0:
                raise InvalidRecord(f"{name} score {score} outside [0, 1]")


class OverlapStore:
    """Symmetric store of overlap records keyed by unordered pair."""

    def __init__(self, records: Iterable[OverlapRecord] = ()):
        self._pairs: dict[tuple[int, int], tuple[float, float]] = {}
        for record in records:
            self.add(record)

    def add(self, record: OverlapRecord) -> None:
        key = (min(record.i, record.j), max(record.i, record.j))
        value = (float(record.mo), float(record.ct))
        existing = self._pairs.get(key)
        if existing is not None and existing != value:
            raise InvalidRecord(
                f"conflicting overlap scores for pair {key}: {existing} vs {value}"
            )
        self._pairs[key] = value

    def get(self, i: int, j: int) -> OverlapRecord | None:
        value = self._pairs.get((min(i, j), max(i, j)))
        if value is None:
            return None
        return OverlapRecord(i, j, value[0], value[1])

    def records(self) -> list[OverlapRecord]:
        return [
            OverlapRecord(a, b, mo, ct)
            for (a, b), (mo, ct) in sorted(self._pairs.items())
        ]

    def __len__(self) -> int:
        return len(self._pairs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OverlapStore):
            return NotImplemented
        return self._pairs == other._pairs


def load_overlaps(text: str) -> OverlapStore:
    """Parse `i j mo ct` lines; symmetric closure is applied by the store."""
    store = OverlapStore()
    offset = 0
    for line in text.splitlines(keepends=True):
        stripped = line.strip()
        if stripped:
            tokens = stripped.split()
            if len(tokens) != 4:
                raise InvalidRecord(
                    f"overlap line needs `i j mo ct`, got {stripped!r}", offset=offset
                )
            try:
                i, j = int(tokens[0]), int(tokens[1])
                mo, ct = float(tokens[2]), float(tokens[3])
            except ValueError:
                raise InvalidRecord(f"bad overlap line {stripped!r}", offset=offset)
            try:
                store.add(OverlapRecord(i, j, mo, ct))
            except InvalidRecord as exc:
                raise InvalidRecord(str(exc), offset=offset) from None
    return store


def save_overlaps(store: OverlapStore) -> str:
    lines = [
        f"{r.i} {r.j} {r.mo!r} {r.ct!r}" for r in store.records()
    ]
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class TrainConfig:
    """Labeling thresholds, subgraph shape, and optimization settings.

    The thresholds and subgraph neighbor counts default to the balanced
    operating point; epoch count, learning rate, and batch size are
    artifact configuration with no canonical values.
    """

    tau_mo: float = 0.25
    tau_ct: float = 0.15
    qes_params: QesParams = field(default_factory=lambda: QesParams(k1=100, k2=5, u=10))
    learning_rate: float = 1e-3
    epochs: int = 50
    batch_size: int = 16
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if not (0.0 <= self.tau_mo <= 1.0 and 0.0 <= self.tau_ct <= 1.0):
            raise ValueError("thresholds must lie in [0, 1]")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.epochs < 0:
            raise ValueError("epoch count must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")


def label_pair(record: OverlapRecord, tau_mo: float, tau_ct: float) -> bool:
    """Matchable when either score reaches its threshold (inclusive)."""
    return record.mo >= tau_mo or record.ct >= tau_ct


def label_qes(qes: Qes, store: OverlapStore, config: TrainConfig) -> Qes:
    """Label every node against the query; unobserved pairs are negative."""
    labels = []
    for v in qes.nodes:
        record = store.get(qes.query_id, v)
        labels.append(
            label_pair(record, config.tau_mo, config.tau_ct) if record else False
        )
    return qes.with_labels(labels)


@dataclass
class AdamState:
    """First/second moment estimates plus the bias-correction step count."""

    step: int
    m: list[np.ndarray]
    v: list[np.ndarray]


def init_adam(params: Sequence[np.ndarray]) -> AdamState:
    return AdamState(
        step=0,
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
    )


def optimizer_step(
    params: Sequence[np.ndarray],
    grads: Sequence[np.ndarray],
    state: AdamState,
    learning_rate: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[list[np.ndarray], AdamState]:
    """One adaptive-moment update with bias correction. Functional: returns
    fresh parameter and state arrays."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise DimensionError("parameter, gradient, and state counts differ")
    t = state.step + 1
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise DimensionError(f"gradient shape {g.shape} != parameter {p.shape}")
        m2 = beta1 * m + (1.0 - beta1) * g
        v2 = beta2 * v + (1.0 - beta2) * (g * g)
        m_hat = m2 / (1.0 - beta1**t)
        v_hat = v2 / (1.0 - beta2**t)
        new_params.append(p - learning_rate * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m2)
        new_v.append(v2)
    return new_params, AdamState(step=t, m=new_m, v=new_v)


def average_gradients(grads: Sequence[ModelGradients]) -> list[np.ndarray]:
    """Mean of per-subgraph gradients, reduced in list order."""
    flats = [g.flat() for g in grads]
    out = []
    for arrays in zip(*flats):
        total = arrays[0].copy()
        for a in arrays[1:]:
            total += a
        out.append(total / len(arrays))
    return out


@dataclass(frozen=True)
class EpochStats:
    """Mean training loss plus 1-hop node classification quality."""

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
) -> list[Qes]:
    """Construct one labeled subgraph per query, skipping unusable ones."""
    index = build_index(emb)
    subgraphs = []
    for q in queries:
        qes = label_qes(build_qes(index, emb, q, config.qes_params), records, config)
        if not any(h == 1 for h in qes.hop):
            log.warning("query %d has no 1-hop nodes; skipping", q)
            continue
        subgraphs.append(qes)
    if not subgraphs:
        raise NoTrainingData("no query produced a trainable subgraph")
    return subgraphs


def _epoch_metrics(model: GcnModel, subgraphs: Sequence[Qes]):
    triples = []
    for qes in subgraphs:
        probs = model_forward(qes, model)
        hop1 = qes.hop_mask(1)
        labels = np.asarray(qes.labels, dtype=bool)
        nodes = np.asarray(qes.nodes)
        predicted = set(int(v) for v in nodes[hop1 & (probs > 0.5)])
        relevant = set(int(v) for v in nodes[hop1 & labels])
        triples.append(evaluation.per_query_prf(predicted, relevant))
    return evaluation.macro_average(triples)


def train(
    emb: EmbeddingMatrix,
    records: OverlapStore,
    queries: Sequence[int],
    config: TrainConfig,
    conv_widths: Sequence[int] = (256, 256, 128, 128),
    fc_widths: Sequence[int] = (64,),
) -> tuple[GcnModel, list[EpochStats]]:
    """Optimize a fresh model on the labeled subgraphs of the given queries.

    Returns the trained model and one stats row per epoch. Deterministic:
    initialization and epoch shuffles derive from config.seed through
    fixed-purpose seed sequences, so identical inputs give bit-identical
    checkpoints.
    """
    if not queries:
        raise NoTrainingData("no training queries given")
    subgraphs = build_training_set(emb, records, queries, config)
    model = init_model(emb.dim, conv_widths, fc_widths, seed=[config.seed, 0])
    state = init_adam(model.parameters())
    history: list[EpochStats] = []
    for epoch in range(1, config.epochs + 1):
        order = np.random.default_rng([config.seed, 1, epoch]).permutation(len(subgraphs))
        losses: list[float] = []
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            grads = []
            for qi in batch:
                qes = subgraphs[qi]
                try:
                    grads.append(backward(qes, model, np.asarray(qes.labels, dtype=bool)))
                except EmptyLossSet:
                    log.warning("query %d lost its 1-hop nodes; skipping", qes.query_id)
            if not grads:
                continue
            mean_grads = average_gradients(grads)
            params, state = optimizer_step(
                model.parameters(),
                mean_grads,
                state,
                learning_rate=config.learning_rate,
                beta1=config.beta1,
                beta2=config.beta2,
                eps=config.eps,
            )
            try:
                model.set_parameters(params)
            except DimensionError as exc:
                raise DimensionError(f"training diverged in epoch {epoch}: {exc}") from exc
            losses.extend(g.loss for g in grads)
        precision, recall, fmeasure = _epoch_metrics(model, subgraphs)
        stats = EpochStats(
            epoch=epoch,
            loss=float(np.mean(losses)) if losses else float("nan"),
            precision=precision,
            recall=recall,
            fmeasure=fmeasure,
        )
        history.append(stats)
        log.info("epoch %d: loss %.6f precision %.4f recall %.4f fmeasure %.4f",
                 stats.epoch, stats.loss, precision, recall, fmeasure)
    return model, history
