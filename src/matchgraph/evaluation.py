"""Retrieval scoring: per-query precision/recall/F-measure and view-graph
diagnostics.

Metrics are pure set arithmetic; retrieval order never matters. Aggregation
is macro (per-query means), so the mean F-measure can legitimately fall
below both the mean precision and the mean recall.
"""

from collections import defaultdict
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable, Mapping, Sequence

import numpy as np

# Labeling thresholds of the balanced operating point.
TAU_MO = 0.25
TAU_CT = 0.15


def label_pair(record, tau_mo: float, tau_ct: float):
    """Matchable when either score reaches its threshold (inclusive). Takes
    one record, or columns of scores as arrays and gives a boolean array."""
    return (record.mo >= tau_mo) | (record.ct >= tau_ct)


@dataclass(frozen=True)
class GroundTruth:
    """Symmetric matchable-pair relation over a known id universe."""

    matchable: frozenset[tuple[int, int]]
    universe: frozenset[int]

    def __post_init__(self):
        partners: defaultdict[int, list[int]] = defaultdict(list)
        for a, b in self.matchable:
            if a == b:
                raise ValueError(f"self-pair ({a}, {a}) in ground truth")
            if a > b:
                raise ValueError("ground-truth pairs must be stored as (min, max)")
            partners[a].append(b)
            partners[b].append(a)
        # Tuples take a fraction of a set's memory; relevant() builds the set.
        object.__setattr__(self, "_partners", {v: tuple(p) for v, p in partners.items()})

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]], universe: Iterable[int] = ()):
        canonical = frozenset((min(a, b), max(a, b)) for a, b in pairs)
        ids = set(universe)
        for a, b in canonical:
            ids.add(a)
            ids.add(b)
        return cls(matchable=canonical, universe=frozenset(ids))

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
        matchable relation, with the partner index built in bulk."""
        keep = label_pair(SimpleNamespace(mo=mo, ct=ct), tau_mo, tau_ct)
        a, b = i[keep], j[keep]
        if np.any(a == b):
            v = int(a[np.argmax(a == b)])
            raise ValueError(f"self-pair ({v}, {v}) in ground truth")
        # Each pair under both of its ids, grouped by id. A repeated pair
        # repeats a partner, which relevant() folds into its set.
        ends, others = np.concatenate([a, b]), np.concatenate([b, a])
        order = np.argsort(ends)
        ids, starts = np.unique(ends[order], return_index=True)
        ids, others = ids.tolist(), others[order].tolist()
        bounds = starts.tolist() + [len(others)]
        truth = cls.__new__(cls)  # checked above; __post_init__ would index again
        for name, value in (
            ("matchable", frozenset(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))),
            ("universe", frozenset(universe).union(ids)),
            ("_partners", {v: tuple(others[s:e]) for v, s, e in zip(ids, bounds, bounds[1:])}),
        ):
            object.__setattr__(truth, name, value)
        return truth

    def relevant(self, query_id: int) -> set[int]:
        """A fresh set of the query's matchable partners."""
        return set(self._partners.get(query_id, ()))

    def contains(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.matchable


def per_query_prf(predicted: set, relevant: set) -> tuple[float, float, float]:
    """Precision, recall, F-measure of one query's retrieved set.

    Empty-set conventions keep the metrics total: empty predictions score
    precision 1 against an empty relevant set and 0 otherwise; recall
    against an empty relevant set is 1; F is 0 whenever P + R is 0.
    """
    predicted = set(predicted)
    relevant = set(relevant)
    hits = len(predicted & relevant)
    if predicted:
        precision = hits / len(predicted)
    else:
        precision = 1.0 if not relevant else 0.0
    recall = hits / len(relevant) if relevant else 1.0
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
    """Count correct and spurious undirected pairs over all query results."""
    pairs: set[tuple[int, int]] = set()
    for result in results:
        q = result.query_id
        for v, _ in result.retrieved:
            pairs.add((min(q, v), max(q, v)))
    tp = sum(1 for a, b in pairs if truth.contains(a, b))
    false_pairs = [(a, b) for a, b in pairs if not truth.contains(a, b)]
    cross = None
    if symmetry_classes is not None:
        cross = sum(
            1 for a, b in false_pairs
            if symmetry_classes[a] != symmetry_classes[b]
        )
    return ViewGraphStats(
        true_positive_pairs=tp,
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
