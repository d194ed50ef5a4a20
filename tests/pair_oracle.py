"""Reference parser for pair files, one line at a time.

The first line must be the pair-file header. Each later non-blank line
holds `id_a id_b score`; the first faulty line raises, with its byte
offset: a wrong token count, then a token that int() or float() refuses,
then an id outside [0, 2^64), then ids that do not ascend, then a score
outside [0, 1]. `retrieval.read_pair_file` must give the same pairs and
the same errors.
"""

from matchgraph.errors import InvalidRecord, MalformedHeader
from matchgraph.retrieval import PAIR_FILE_HEADER


def parse_pairs(text: str) -> list[tuple[int, int, float]]:
    lines = text.splitlines(keepends=True)
    if not lines or lines[0].strip() != PAIR_FILE_HEADER:
        raise MalformedHeader("missing pair-file header", offset=0)
    pairs = []
    offset = len(lines[0].encode("utf-8"))
    for line in lines[1:]:
        tokens = line.split()
        if tokens:
            if len(tokens) != 3:
                raise InvalidRecord(f"pair line has {len(tokens)} fields, expected 3",
                                    offset=offset)
            for token, label, cast in zip(tokens, ("id", "id", "score"), (int, int, float)):
                try:
                    cast(token)
                except ValueError:
                    raise InvalidRecord(f"bad pair {label} {token!r}", offset=offset) from None
            a, b, score = int(tokens[0]), int(tokens[1]), float(tokens[2])
            for v in (a, b):
                if not 0 <= v < 2**64:
                    raise InvalidRecord(f"pair id {v} outside [0, 2^64)", offset=offset)
            if a >= b:
                raise InvalidRecord("pair ids must ascend within a line", offset=offset)
            if not 0.0 <= score <= 1.0:
                raise InvalidRecord(f"pair score {score} outside [0, 1]", offset=offset)
            pairs.append((a, b, score))
        offset += len(line.encode("utf-8"))
    return pairs
