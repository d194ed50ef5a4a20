"""Supervision labeling and seeded training of the subgraph classifier.

Matchability labels come from thresholding mesh-overlap / common-track
scores; a pair with no observed overlap record is non-matchable. Training
iterates epochs over shuffled queries, takes each batch's mean gradient in
one float32 pass over its subgraphs stacked row-wise, and applies one
adaptive-moment update per batch to float64 parameters. Given a seed the
whole procedure is bit-reproducible.
"""

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import evaluation
from .embeddings import ID_END, EmbeddingMatrix
from .errors import DimensionError, InvalidRecord, NoTrainingData, NonFiniteValue, ParseError
from .evaluation import label_pair
from .gcn import (
    CONV_WIDTHS, FC_WIDTHS, PROB_THRESHOLD, GcnModel, ModelGradients, backward, init_model,
)
from .knn import build_index
from .subgraph import Qes, QesParams, build_qes

log = logging.getLogger(__name__)


def _record_fault(i: int, j: int, mo: float, ct: float) -> ParseError | None:
    """The error that rejects one overlap record, or None if it is valid."""
    for v in (i, j):
        if not 0 <= v < ID_END:
            return InvalidRecord(f"overlap id {v} outside [0, 2^64)")
    if i == j:
        return InvalidRecord("overlap record needs two distinct images")
    for name, score in (("mo", mo), ("ct", ct)):
        if not math.isfinite(score):
            return NonFiniteValue(f"{name} score must be finite")
        if not 0.0 <= score <= 1.0:
            return InvalidRecord(f"{name} score {score} outside [0, 1]")
    return None


class _Fields(NamedTuple):
    i: int
    j: int
    mo: float
    ct: float


class OverlapRecord(_Fields):
    """Mesh-overlap and common-track scores for one unordered image pair.

    The constructor checks the record; `_make` builds one from values
    already checked, as `OverlapStore.records` does."""

    __slots__ = ()

    def __new__(cls, i, j, mo, ct):
        i, j, mo, ct = int(i), int(j), float(mo), float(ct)
        fault = _record_fault(i, j, mo, ct)
        if fault is not None:
            raise fault
        return super().__new__(cls, i, j, mo, ct)


class Partners(NamedTuple):
    """The overlap rows of one image: partner ids and their scores."""

    ids: np.ndarray
    mo: np.ndarray
    ct: np.ndarray


def _check(i: np.ndarray, j: np.ndarray, mo: np.ndarray, ct: np.ndarray):
    """Check rows of overlap columns in bulk and bring them into store order.

    Returns the store's columns, sorted by pair with i < j and each
    identical repeat kept once, and the first faulty row with its error, or
    None. A row is faulty when OverlapRecord would reject it, or when it
    repeats an earlier row's pair with other scores; at equal rows the
    record's own fault comes first.
    """
    n = len(i)
    bad = np.flatnonzero((i == j) | ~((mo >= 0.0) & (mo <= 1.0)) | ~((ct >= 0.0) & (ct <= 1.0)))
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    order = np.lexsort((hi, lo))  # stable: repeats keep their row order
    lo, hi, smo, sct = lo[order], hi[order], mo[order], ct[order]
    repeat = np.zeros(n, dtype=bool)
    repeat[1:] = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
    # Scores are compared with the repeat before, not the first of the pair:
    # up to the first change they are equal, so the first conflict is the same.
    differs = np.zeros(n, dtype=bool)
    differs[1:] = (smo[1:] != smo[:-1]) | (sct[1:] != sct[:-1])
    conflicts = np.flatnonzero(repeat & differs)
    fault = None
    if bad.size:
        r = int(bad[0])
        fault = (r, _record_fault(int(i[r]), int(j[r]), float(mo[r]), float(ct[r])))
    if conflicts.size:
        s = int(conflicts[np.argmin(order[conflicts])])
        r = int(order[s])
        if fault is None or r < fault[0]:
            fault = (r, InvalidRecord(
                f"conflicting overlap scores for pair {(int(lo[s]), int(hi[s]))}: "
                f"{(float(smo[s - 1]), float(sct[s - 1]))} vs {(float(smo[s]), float(sct[s]))}"
            ))
    keep = np.ones(n, dtype=bool)
    keep[:-1] = ~repeat[1:]  # the last of identical repeats, as a later add replaced
    return (lo[keep], hi[keep], smo[keep], sct[keep]), fault


def _columns(i, j, mo, ct) -> tuple[np.ndarray, ...]:
    return (
        np.asarray(i, dtype=np.uint64), np.asarray(j, dtype=np.uint64),
        np.asarray(mo, dtype=np.float64), np.asarray(ct, dtype=np.float64),
    )


def _equal_range(values: np.ndarray, key: int) -> tuple[int, int]:
    """Bounds of the run of `key` in sorted u64 `values`. The key is made a
    u64 first: a Python int would make numpy compare in float64, after
    converting all of `values`."""
    key = np.uint64(key)
    return int(np.searchsorted(values, key, "left")), int(np.searchsorted(values, key, "right"))


class OverlapStore:
    """Overlap records keyed by unordered pair, held as four columns sorted
    by pair with i < j. Every way in checks its rows once, in bulk: each
    must be a valid OverlapRecord, and a pair may repeat only with
    identical scores."""

    def __init__(self, records: Iterable[OverlapRecord] = ()):
        records = list(records)
        self._adopt(*self._checked(*(
            [r.i for r in records], [r.j for r in records],
            [r.mo for r in records], [r.ct for r in records],
        )))

    @classmethod
    def from_columns(cls, i, j, mo, ct) -> "OverlapStore":
        """A store of the rows of four equal-length columns; ids must lie
        in [0, 2^64)."""
        store = cls.__new__(cls)
        store._adopt(*cls._checked(i, j, mo, ct))
        return store

    @staticmethod
    def _checked(i, j, mo, ct) -> tuple[np.ndarray, ...]:
        columns, fault = _check(*_columns(i, j, mo, ct))
        if fault is not None:
            raise fault[1]
        return columns

    def _adopt(self, i, j, mo, ct) -> None:
        """Take columns in store order, as `_check` returns them."""
        for column in (i, j, mo, ct):
            column.setflags(write=False)
        self._i, self._j, self._mo, self._ct = i, j, mo, ct
        self._by_j = np.argsort(j, kind="stable")
        self._j_sorted = j[self._by_j]

    def get(self, i: int, j: int) -> OverlapRecord | None:
        lo, hi = min(i, j), max(i, j)
        if not 0 <= lo < hi < ID_END:
            return None
        start, stop = _equal_range(self._i, lo)
        k = start + _equal_range(self._j[start:stop], hi)[0]
        if k == stop or int(self._j[k]) != hi:
            return None
        return OverlapRecord._make((int(i), int(j), float(self._mo[k]), float(self._ct[k])))

    def partners(self, image: int) -> Partners:
        """Every row that holds `image`, from one binary search per side."""
        start, stop = _equal_range(self._i, image)
        left, right = _equal_range(self._j_sorted, image)
        rows = np.concatenate([np.arange(start, stop), self._by_j[left:right]])
        ids = np.concatenate([self._j[start:stop], self._i[self._by_j[left:right]]])
        return Partners(ids, self._mo[rows], self._ct[rows])

    def _rows(self) -> Iterable[tuple[int, int, float, float]]:
        """`(i, j, mo, ct)` tuples of Python numbers, in store order."""
        return zip(self._i.tolist(), self._j.tolist(), self._mo.tolist(), self._ct.tolist())

    def records(self) -> list[OverlapRecord]:
        return list(map(OverlapRecord._make, self._rows()))

    def columns(self) -> tuple[np.ndarray, ...]:
        """The read-only `(i, j, mo, ct)` columns in store order."""
        return self._i, self._j, self._mo, self._ct

    def __len__(self) -> int:
        return len(self._i)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OverlapStore):
            return NotImplemented
        return all(np.array_equal(getattr(self, c), getattr(other, c))
                   for c in ("_i", "_j", "_mo", "_ct"))


def _parse(tokens: list[str]) -> tuple[list, list, list, list]:
    """Columns of the rows of four tokens; raises ValueError as int() and
    float() do."""
    return (
        list(map(int, tokens[0::4])), list(map(int, tokens[1::4])),
        list(map(float, tokens[2::4])), list(map(float, tokens[3::4])),
    )


def _parses(row: list[str]) -> bool:
    try:
        _parse(row)
    except ValueError:
        return False
    return True


def load_overlaps(text: str) -> OverlapStore:
    """Parse `i j mo ct` lines into a store, a column at a time.

    The earliest faulty line is reported, with its byte offset, whether it
    fails to parse or fails the store's check. Each stage below looks only
    at the rows before the earliest fault found so far, so the fault left
    at the end is on the earliest line and is that line's first.
    """
    lines = text.splitlines(keepends=True)
    counts = list(map(len, map(str.split, lines)))
    sizes = [c for c in counts if c]  # tokens of each non-blank line, a row
    tokens = text.split()  # line ends are whitespace too: the rows' tokens in order
    n, fault = len(sizes), None

    def line(row: int) -> int:
        return [k for k, c in enumerate(counts) if c][row]

    if sizes.count(4) != n:
        n = next(r for r, c in enumerate(sizes) if c != 4)
        fault = (n, InvalidRecord(
            f"overlap line needs `i j mo ct`, got {lines[line(n)].strip()!r}"))
    try:
        i, j, mo, ct = _parse(tokens[: 4 * n])
    except ValueError:
        n = next(r for r in range(n) if not _parses(tokens[4 * r : 4 * r + 4]))
        fault = (n, InvalidRecord(f"bad overlap line {lines[line(n)].strip()!r}"))
        i, j, mo, ct = _parse(tokens[: 4 * n])
    if i and (min(i) < 0 or min(j) < 0 or max(i) >= ID_END or max(j) >= ID_END):
        n = next(r for r in range(n) if not (0 <= i[r] < ID_END and 0 <= j[r] < ID_END))
        fault = (n, _record_fault(i[n], j[n], mo[n], ct[n]))
        i, j, mo, ct = i[:n], j[:n], mo[:n], ct[:n]
    columns, checked = _check(*_columns(i, j, mo, ct))
    fault = checked or fault
    if fault is not None:
        row, exc = fault
        offset = len("".join(lines[: line(row)]).encode("utf-8"))
        raise type(exc)(str(exc), offset=offset)
    store = OverlapStore.__new__(OverlapStore)
    store._adopt(*columns)
    return store


def save_overlaps(store: OverlapStore) -> str:
    return "".join([f"{i} {j} {mo!r} {ct!r}\n" for i, j, mo, ct in store._rows()])


@dataclass(frozen=True)
class TrainConfig:
    """Labeling thresholds, subgraph shape, and optimization settings.

    The thresholds and subgraph neighbor counts default to the balanced
    operating point; epoch count, learning rate, and batch size are
    artifact configuration with no canonical values.
    """

    tau_mo: float = evaluation.TAU_MO
    tau_ct: float = evaluation.TAU_CT
    qes_params: QesParams = field(default_factory=QesParams)
    learning_rate: float = 1e-3
    epochs: int = 50
    batch_size: int = 16
    seed: int = 0
    beta2: float = 0.999

    def __post_init__(self):
        if not (0.0 <= self.tau_mo <= 1.0 and 0.0 <= self.tau_ct <= 1.0):
            raise ValueError("thresholds must lie in [0, 1]")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.epochs < 0:
            raise ValueError("epoch count must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if not 0.0 <= self.beta2 < 1.0:
            raise ValueError("beta2 must lie in [0, 1)")


def label_qes(qes: Qes, store: OverlapStore, config: TrainConfig) -> Qes:
    """Label every node against the query; unobserved pairs are negative."""
    partners = store.partners(qes.query_id)
    matchable = set(partners.ids[label_pair(partners, config.tau_mo, config.tau_ct)].tolist())
    return qes.with_labels([v in matchable for v in qes.nodes])


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


def _hop1_prf(qes: Qes, probs: np.ndarray) -> tuple[float, float, float]:
    """Precision, recall and F of the 1-hop nodes predicted above the
    retrieval threshold."""
    hop1 = qes.hop_mask(1)
    labels = np.asarray(qes.labels, dtype=bool)
    nodes = np.asarray(qes.nodes)
    predicted = set(int(v) for v in nodes[hop1 & (probs > PROB_THRESHOLD)])
    relevant = set(int(v) for v in nodes[hop1 & labels])
    return evaluation.per_query_prf(predicted, relevant)


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
    subgraphs = build_training_set(emb, records, queries, config)
    model = init_model(emb.dim, conv_widths, fc_widths, seed=[config.seed, 0])
    state = init_adam(model.parameters())
    history: list[EpochStats] = []
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        order = np.random.default_rng([config.seed, 1, epoch]).permutation(len(subgraphs))
        losses: list[float] = []
        scores = [None] * len(subgraphs)  # by subgraph: a fixed summation order
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            qes_batch = [subgraphs[qi] for qi in batch]
            # float32 compute; the parameters and Adam state stay float64
            step = backward(qes_batch, model, [q.labels for q in qes_batch], np.float32)
            for qi, qes, probs in zip(batch, qes_batch, step.probs):
                scores[qi] = _hop1_prf(qes, probs)
            params, state = optimizer_step(
                model.parameters(),
                step.grads,
                state,
                learning_rate=config.learning_rate,
                beta2=config.beta2,
            )
            try:
                model.set_parameters(params)
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
        log.info("epoch %d: loss %.6f precision %.4f recall %.4f fmeasure %.4f seconds %.3f",
                 stats.epoch, stats.loss, precision, recall, fmeasure,
                 time.perf_counter() - started)
    return model, history
