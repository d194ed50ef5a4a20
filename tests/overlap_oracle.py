"""Reference parser for overlap files, one line at a time.

Each line's record is checked by the `OverlapRecord` constructor and added
to a dict keyed by unordered pair: a repeat with identical scores replaces
the stored record, a repeat with other scores is a conflict. The first
faulty line raises, with its byte offset. `overlaps.load_overlaps` must give
the same records and the same errors.

`overlap_text` writes a store as the text format, one line per record.
"""

from matchgraph.errors import InvalidRecord, NonFiniteValue
from matchgraph.overlaps import OverlapRecord


def add(pairs: dict, record: OverlapRecord) -> None:
    """Store `record` oriented i < j, unless its pair holds other scores."""
    if record.i > record.j:
        record = OverlapRecord(record.j, record.i, record.mo, record.ct)
    key = (record.i, record.j)
    existing = pairs.get(key)
    if existing is not None and existing != record:
        raise InvalidRecord(
            f"conflicting overlap scores for pair {key}: "
            f"{(existing.mo, existing.ct)} vs {(record.mo, record.ct)}"
        )
    pairs[key] = record


def parse_overlaps(text: str) -> list[OverlapRecord]:
    """The records of `i j mo ct` lines, sorted by pair."""
    pairs: dict = {}
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
                add(pairs, OverlapRecord(i, j, mo, ct))
            except (InvalidRecord, NonFiniteValue) as exc:
                raise type(exc)(str(exc), offset=offset) from None
        offset += len(line.encode("utf-8"))
    return [pairs[key] for key in sorted(pairs)]


def overlap_text(store) -> str:
    """The `i j mo ct` text of a store, one line per record in store order."""
    return "".join(f"{r.i} {r.j} {r.mo!r} {r.ct!r}\n" for r in store.records())
