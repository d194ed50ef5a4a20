"""Overlap supervision: the records, their store, their file format and the
labeling rule.

An overlap record holds the mesh-overlap and common-track scores of one
unordered image pair. A pair is matchable when either score reaches its
threshold; a pair with no record is non-matchable. Training labels
subgraph nodes with this rule and evaluation builds its ground truth with
it.
"""

import math
import struct
from typing import Iterable, NamedTuple

import numpy as np

from .embeddings import ID_END, check_size, decode_text, read_rows
from .errors import InvalidRecord, MalformedHeader, NonFiniteValue, ParseError, VersionMismatch

# Labeling thresholds of the balanced operating point.
TAU_MO = 0.25
TAU_CT = 0.15


def label_pair(record, tau_mo: float, tau_ct: float):
    """Matchable when either score reaches its threshold (inclusive). Takes
    one record, or columns of scores as arrays and gives a boolean array."""
    return (record.mo >= tau_mo) | (record.ct >= tau_ct)


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
        return _store(cls._checked(i, j, mo, ct))

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

    def records(self) -> list[OverlapRecord]:
        return list(map(OverlapRecord._make, zip(*(c.tolist() for c in self.columns()))))

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


def _store(columns: tuple[np.ndarray, ...]) -> OverlapStore:
    store = OverlapStore.__new__(OverlapStore)
    store._adopt(*columns)
    return store


MAGIC = b"MGOV"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIQ")  # magic, version, record count
_OVERLAP_ROW = np.dtype([("i", "<u8"), ("j", "<u8"), ("mo", "<f8"), ("ct", "<f8")])


def load_overlaps(source: str | bytes) -> OverlapStore:
    """Read an overlap file into a store: binary when its bytes start with
    the magic, otherwise `i j mo ct` lines of UTF-8 text.

    numpy's text reader parses the whole text at once; text that it
    refuses, or whose rows fail the store's check, goes to the per-line
    parser, which accepts the same texts and reports the earliest fault.
    """
    if isinstance(source, str):
        text = source
    elif source[:4] == MAGIC:
        return _load_binary(source)
    else:
        text = decode_text(source, "overlap text")
    rows = read_rows(text, _OVERLAP_ROW)
    if rows is not None:
        columns, fault = _check(rows["i"], rows["j"], rows["mo"], rows["ct"])
        if fault is None:
            return _store(columns)
    return _load_overlaps_by_line(text)


def _load_overlaps_by_line(text: str) -> OverlapStore:
    """Parse `i j mo ct` lines into a store, one line at a time.

    The loop stops at the first line that fails to parse or fails
    OverlapRecord's check; the store's check then looks for a conflicting
    repeat among the rows before it. The earliest faulty line is reported
    with its byte offset.
    """
    rows, starts, fault, offset = [], [], None, 0
    for line in text.splitlines(keepends=True):
        tokens = line.split()
        if tokens:
            if len(tokens) != 4:
                fault = InvalidRecord(f"overlap line needs `i j mo ct`, got {line.strip()!r}")
                break
            try:
                row = (int(tokens[0]), int(tokens[1]), float(tokens[2]), float(tokens[3]))
            except ValueError:
                fault = InvalidRecord(f"bad overlap line {line.strip()!r}")
                break
            fault = _record_fault(*row)
            if fault is not None:
                break
            rows.append(row)
            starts.append(offset)
        offset += len(line.encode("utf-8"))
    columns, conflict = _check(*_columns(*(list(zip(*rows)) or [()] * 4)))
    if conflict is not None:
        fault, offset = conflict[1], starts[conflict[0]]
    if fault is not None:
        raise type(fault)(str(fault), offset=offset)
    return _store(columns)


def _load_binary(data: bytes) -> OverlapStore:
    """The store of a binary overlap file. Its rows pass the same check as
    text rows; a faulty row is reported at its byte offset."""
    if len(data) < _HEADER.size:
        raise MalformedHeader("incomplete overlap header", offset=len(data))
    _, version, n = _HEADER.unpack_from(data)
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"unsupported overlap version {version}", offset=4)
    expected = _HEADER.size + _OVERLAP_ROW.itemsize * n
    check_size(data, expected)
    rows = np.frombuffer(data, dtype=_OVERLAP_ROW, count=n, offset=_HEADER.size)
    columns, fault = _check(rows["i"], rows["j"], rows["mo"], rows["ct"])
    if fault is not None:
        r, error = fault
        raise type(error)(str(error), offset=_HEADER.size + _OVERLAP_ROW.itemsize * r)
    return _store(columns)


def save_overlaps(store: OverlapStore) -> bytes:
    """The binary overlap file (little-endian): magic, version u32, record
    count u64, then one `(i u64, j u64, mo f64, ct f64)` row per record in
    store order."""
    rows = np.empty(len(store), dtype=_OVERLAP_ROW)
    for name, column in zip(_OVERLAP_ROW.names, store.columns()):
        rows[name] = column
    return _HEADER.pack(MAGIC, FORMAT_VERSION, len(rows)) + rows.tobytes()
