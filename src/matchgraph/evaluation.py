"""Retrieval scoring: per-query precision/recall/F-measure and view-graph
diagnostics.

Metrics are pure set arithmetic; retrieval order never matters. Aggregation
is macro (per-query means), so the mean F-measure can legitimately fall
below both the mean precision and the mean recall.
"""

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .embeddings import ID_END
from .errors import InvalidRecord, UnknownImage
from .overlaps import TAU_CT, TAU_MO, label_pair


class GroundTruth:
    """Symmetric matchable-pair relation over a known id universe.

    Built in bulk from the pairs `(a[k], b[k])` of two u64 columns, which
    from_pairs, from_records and from_columns make; the universe gains
    every id of a pair. One map holds each id's partners, and relevant()
    and contains() both read it.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, universe: Iterable[int] = ()):
        if np.any(a == b):
            v = int(a[np.argmax(a == b)])
            raise ValueError(f"self-pair ({v}, {v}) in ground truth")
        # Each pair under both of its ids, grouped by id. A repeated pair
        # repeats a partner, which the id's frozenset folds.
        ends, others = np.concatenate([a, b]), np.concatenate([b, a])
        order = np.argsort(ends)
        ids, starts = np.unique(ends[order], return_index=True)
        ids, others = ids.tolist(), others[order].tolist()
        bounds = starts.tolist() + [len(others)]
        self.universe = frozenset(universe).union(ids)
        self._partners = {v: frozenset(others[s:e]) for v, s, e in zip(ids, bounds, bounds[1:])}

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]], universe: Iterable[int] = ()):
        pairs = [(int(a), int(b)) for a, b in pairs]
        for v in (v for pair in pairs for v in pair):
            if not 0 <= v < ID_END:
                raise InvalidRecord(f"pair id {v} outside [0, 2^64)")
        columns = np.array(pairs, dtype=np.uint64).reshape(-1, 2)
        return cls(columns[:, 0], columns[:, 1], universe)

    @classmethod
    def from_records(cls, records, tau_mo: float = TAU_MO, tau_ct: float = TAU_CT,
                     universe: Iterable[int] = ()):
        """Threshold overlap records (anything with .i/.j/.mo/.ct, ids in
        [0, 2^64)) into the matchable relation."""
        records = list(records)
        return cls.from_columns(
            np.array([r.i for r in records], dtype=np.uint64),
            np.array([r.j for r in records], dtype=np.uint64),
            np.array([r.mo for r in records], dtype=np.float64),
            np.array([r.ct for r in records], dtype=np.float64),
            tau_mo, tau_ct, universe,
        )

    @classmethod
    def from_columns(cls, i, j, mo, ct, tau_mo: float = TAU_MO, tau_ct: float = TAU_CT,
                     universe: Iterable[int] = ()):
        """Threshold overlap columns (u64 ids, float64 scores) into the
        matchable relation."""
        keep = label_pair(SimpleNamespace(mo=mo, ct=ct), tau_mo, tau_ct)
        return cls(i[keep], j[keep], universe)

    def relevant(self, query_id: int) -> set[int]:
        """A fresh set of the query's matchable partners."""
        return set(self._partners.get(query_id, ()))

    def contains(self, a: int, b: int) -> bool:
        return b in self._partners.get(a, ())

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroundTruth):
            return NotImplemented
        return self.universe == other.universe and self._partners == other._partners


def per_query_prf(predicted: set, relevant: set) -> tuple[float, float, float]:
    """Precision, recall, F-measure of one query's retrieved set.

    Empty-set conventions keep the metrics total: empty predictions score
    precision 1 against an empty relevant set and 0 otherwise; recall
    against an empty relevant set is 1; F is 0 whenever P + R is 0.
    """
    predicted = set(predicted)
    relevant = set(relevant)
    return prf_counts(len(predicted & relevant), len(predicted), len(relevant))


def prf_counts(hits: int, predicted: int, relevant: int) -> tuple[float, float, float]:
    """`per_query_prf` from the sizes of the hit, predicted and relevant
    sets, with the same empty-set conventions."""
    if predicted:
        precision = hits / predicted
    else:
        precision = 1.0 if not relevant else 0.0
    recall = hits / relevant if relevant else 1.0
    fmeasure = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return precision, recall, fmeasure


def macro_average(triples: Sequence[tuple[float, float, float]]):
    """Arithmetic mean of each component over queries. The averaged
    F-measure is the mean of per-query F values, not the harmonic mean of
    the averaged precision and recall."""
    if not triples:
        raise ValueError("cannot average zero queries")
    n = len(triples)
    return (
        sum(t[0] for t in triples) / n,
        sum(t[1] for t in triples) / n,
        sum(t[2] for t in triples) / n,
    )


@dataclass(frozen=True)
class ViewGraphStats:
    """Edge-level diagnostics of a retrieval run.

    cross_class_false_positives counts false pairs joining distinct
    symmetry copies; it is None when no class labels were supplied.
    """

    true_positive_pairs: int
    false_positive_pairs: int
    cross_class_false_positives: int | None


def view_graph_stats(
    results,
    truth: GroundTruth,
    symmetry_classes: Mapping[int, int] | None = None,
) -> ViewGraphStats:
    """Count correct and spurious undirected pairs over all query results.
    With `symmetry_classes`, every id of a spurious pair needs a class."""
    pairs: set[tuple[int, int]] = set()
    for result in results:
        q = result.query_id
        for v, _ in result.retrieved:
            pairs.add((min(q, v), max(q, v)))
    false_pairs = [(a, b) for a, b in pairs if not truth.contains(a, b)]
    cross = None
    if symmetry_classes is not None:
        missing = [v for pair in false_pairs for v in pair if v not in symmetry_classes]
        if missing:
            raise UnknownImage(f"image id {min(missing)} has no symmetry class")
        cross = sum(
            1 for a, b in false_pairs
            if symmetry_classes[a] != symmetry_classes[b]
        )
    return ViewGraphStats(
        true_positive_pairs=len(pairs) - len(false_pairs),
        false_positive_pairs=len(false_pairs),
        cross_class_false_positives=cross,
    )


def write_metrics_report(per_query: Mapping[int, tuple[float, float, float]]) -> str:
    """CSV rows `query_id,precision,recall,fmeasure` plus a MACRO footer."""
    lines = ["query_id,precision,recall,fmeasure"]
    triples = []
    for q in sorted(per_query):
        p, r, f = per_query[q]
        triples.append((p, r, f))
        lines.append(f"{q},{p!r},{r!r},{f!r}")
    mp, mr, mf = macro_average(triples)
    lines.append(f"MACRO,{mp!r},{mr!r},{mf!r}")
    return "\n".join(lines) + "\n"
