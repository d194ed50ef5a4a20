"""Image embedding storage, file I/O, and the reader of every text table.

Embeddings are consumed precomputed: each image contributes one global
descriptor row. Distances are measured between L2-normalized rows (see
`knn`), but the rows themselves are stored raw so that consumers needing
unnormalized descriptors (e.g. query-relative node features) still have them.

`read_rows` parses the five text formats the package reads (embedding
text, overlap text, pair files, query files and class files) into numpy
rows; each caller then checks those rows in bulk and maps a faulty row to
its line with `raise_earliest`.
"""

import io
import itertools
import operator
import re
import struct
from typing import BinaryIO, Iterator, Sequence

import numpy as np

from .errors import (
    DimensionError,
    DuplicateId,
    InvalidRecord,
    MalformedHeader,
    NonFiniteValue,
    ParseError,
    TruncatedPayload,
    UnknownImage,
    VersionMismatch,
)

MAGIC = b"MGEB"
FORMAT_VERSION = 1
ID_END = 2**64  # image ids are u64; overlap and pair files share the type
# The line breaks of str.splitlines, and those that numpy's text reader reads as spaces.
_LINE_BREAK = re.compile("\r\n|[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")
_SPACE_TO_NUMPY = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
# The integer field types of a text row, with their ranges as messages state them.
_INT_RANGES = {np.dtype("u8"): (0, ID_END, "[0, 2^64)"),
               np.dtype("i8"): (-2**63, 2**63, "[-2^63, 2^63)")}


def image_id(value, what: str = "image id") -> int:
    """`value` as an image id: an integer, Python's or numpy's, in [0, 2^64).
    A float or any other type is refused, not truncated."""
    try:
        value = operator.index(value)
    except TypeError:
        raise InvalidRecord(f"{what} {value!r} is not an integer") from None
    if not 0 <= value < ID_END:
        raise InvalidRecord(f"{what} {value} outside [0, 2^64)")
    return value


def decode_text(data: bytes, what: str) -> str:
    """`data` decoded as UTF-8; bytes that are not UTF-8 are refused with
    the byte offset of the first bad byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidRecord(f"{what} is not valid UTF-8", offset=exc.start) from None


def check_size(data: bytes, expected: int) -> None:
    """Refuse a binary file shorter or longer than its header promises."""
    if len(data) < expected:
        raise TruncatedPayload(
            f"expected {expected} bytes, file has {len(data)}", offset=len(data)
        )
    if len(data) > expected:
        raise InvalidRecord("trailing bytes after payload", offset=expected)


def first_line(text: str) -> str:
    """The first line of `text` as str.splitlines cuts it, with its break."""
    end = _LINE_BREAK.search(text)
    return text if end is None else text[:end.end()]


def first_repeat(values: np.ndarray) -> int | None:
    """The first row whose value equals an earlier row's, or None."""
    order = np.argsort(values, kind="stable")  # stable: a repeat sorts after its first
    ordered = values[order]
    repeats = order[1:][ordered[1:] == ordered[:-1]]
    return int(repeats.min()) if repeats.size else None


def read_rows(text: str, row: np.dtype, what: str,
              skip: int = 0) -> tuple[np.ndarray, ParseError | None]:
    """The whitespace-separated rows of `text[skip:]` as an array of `row`,
    and the error of the first line that does not parse, or None.

    numpy's text reader parses the text in one call. It refuses spellings
    that int() and float() accept (`1_0`, `-0`, non-ASCII digits, a lone
    carriage return inside a line), reads some line breaks of
    str.splitlines as spaces, and cannot say where a fault is; such text,
    and any text it refuses, goes to the line parser. That parser converts
    each token with int() for a u8 or i8 field and float() for an f8 field,
    and stops at the first line with a wrong token count, a token that does
    not convert, or an integer outside its field's range. The rows are
    those before that line; its error (InvalidRecord) carries the line's
    byte offset. Every value numpy accepts parses to the same number.
    """
    body = text[skip:]
    if body.strip() and not any(c in body for c in _SPACE_TO_NUMPY):
        try:
            return np.loadtxt(io.StringIO(body), dtype=row, comments=None, ndmin=1), None
        except ValueError:
            pass
    fields = [("id" if row[name].base == np.dtype("u8") else name, row[name].base)
              for name in row.names for _ in np.ndindex(row[name].shape)]
    parsed, fault = [], None
    for offset, tokens in _lines(text, skip):
        try:
            parsed.append(_parse_line(tokens, fields, what))
        except InvalidRecord as error:
            fault = InvalidRecord(str(error), offset=offset)
            break
    flat = np.dtype([(f"f{k}", base) for k, (_, base) in enumerate(fields)])  # row's layout
    return np.array(parsed, dtype=flat).view(row), fault


def _parse_line(tokens: list[str], fields: list, what: str) -> tuple:
    if len(tokens) != len(fields):
        raise InvalidRecord(f"{what} line has {len(tokens)} fields, expected {len(fields)}")
    values = []
    for token, (label, base) in zip(tokens, fields):
        try:
            values.append(float(token) if base.kind == "f" else int(token))
        except ValueError:
            raise InvalidRecord(f"bad {what} {label} {token!r}") from None
    for value, (label, base) in zip(values, fields):
        if base.kind != "f":
            low, end, span = _INT_RANGES[base]
            if not low <= value < end:
                raise InvalidRecord(f"{what} {label} {value} outside {span}")
    return tuple(values)


def _lines(text: str, skip: int) -> Iterator[tuple[int, list[str]]]:
    """The byte offset and tokens of each non-blank line of `text[skip:]`."""
    offset = len(text[:skip].encode("utf-8"))
    for line in text[skip:].splitlines(keepends=True):
        tokens = line.split()
        if tokens:
            yield offset, tokens
        offset += len(line.encode("utf-8"))


def raise_earliest(text: str, fault: ParseError | None, bad: tuple | None = None,
                   skip: int = 0) -> None:
    """Raise the earliest fault of `read_rows(text, ..., skip)`: `bad`, a
    bulk check's `(row, error)`, at the byte offset of that row's line,
    else the reader's own `fault`, which lies past every row read."""
    if bad is not None:
        offset, _ = next(itertools.islice(_lines(text, skip), bad[0], None))
        raise type(bad[1])(str(bad[1]), offset=offset)
    if fault is not None:
        raise fault


_HEADER = struct.Struct("<4sIQI")  # magic, version, N, d


class EmbeddingMatrix:
    """Immutable N x d matrix of per-image descriptors with stable ids.

    Rows are kept in 64-bit floats regardless of on-disk precision; the
    matrix is made read-only after construction.
    """

    def __init__(self, ids: Sequence[int], vectors: np.ndarray):
        vectors = np.array(vectors, dtype=np.float64, copy=True)
        if vectors.ndim != 2:
            raise DimensionError("vectors must be a 2-d array")
        if vectors.shape[1] < 1:
            raise DimensionError("descriptor dimension must be >= 1")
        if len(ids) != vectors.shape[0]:
            raise DimensionError(
                f"{len(ids)} ids for {vectors.shape[0]} rows"
            )
        ids = tuple(image_id(i) for i in ids)
        # no positions here: every fault ties, so a repeated id comes first
        fault = _check(np.array(ids, dtype=np.uint64), vectors, lambda r: 0, lambda k: 0)
        if fault is not None:
            raise fault[1]
        self._adopt(ids, vectors)

    def _adopt(self, ids: tuple[int, ...], vectors: np.ndarray) -> None:
        """Take ids and a float64 matrix that `_check` passed."""
        vectors.setflags(write=False)
        self._ids = ids
        self._vectors = vectors
        self._pos = {image_id: row for row, image_id in enumerate(ids)}

    @property
    def ids(self) -> tuple[int, ...]:
        return self._ids

    @property
    def vectors(self) -> np.ndarray:
        return self._vectors

    @property
    def dim(self) -> int:
        return self._vectors.shape[1]

    def __len__(self) -> int:
        return self._vectors.shape[0]

    def __contains__(self, image_id: int) -> bool:
        return image_id in self._pos

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmbeddingMatrix):
            return NotImplemented
        return self._ids == other._ids and np.array_equal(
            self._vectors, other._vectors
        )

    def position(self, image_id: int) -> int:
        try:
            return self._pos[image_id]
        except KeyError:
            raise UnknownImage(f"unknown image id {image_id}") from None

    def row(self, image_id: int) -> np.ndarray:
        return self._vectors[self.position(image_id)]


def _check(ids: np.ndarray, vectors: np.ndarray, id_at, value_at) -> tuple | None:
    """Check the rows of an embedding in bulk. Of a repeated id (the first
    row that repeats an earlier row's) and a value that is not finite (the
    first by flat index), the one that `id_at(row)` and `value_at(index)`
    place first, with its error, or None; at a tie, the repeated id."""
    faults = []
    r = first_repeat(ids)
    if r is not None:
        faults.append((id_at(r), DuplicateId(f"image id {int(ids[r])} repeated")))
    bad = np.flatnonzero(~np.isfinite(vectors))
    if bad.size:
        faults.append((value_at(int(bad[0])), NonFiniteValue("non-finite embedding entry")))
    return min(faults, key=lambda fault: fault[0], default=None)


def _matrix(ids: np.ndarray, vectors: np.ndarray) -> EmbeddingMatrix:
    """The matrix of u64 ids and float64 rows that `_check` passed."""
    emb = EmbeddingMatrix.__new__(EmbeddingMatrix)
    emb._adopt(tuple(ids.tolist()), vectors)
    return emb


def load_embeddings(source: bytes | BinaryIO) -> EmbeddingMatrix:
    """Parse an embedding file (binary when it starts with the magic bytes,
    whitespace-separated text otherwise)."""
    data = source if isinstance(source, (bytes, bytearray)) else source.read()
    data = bytes(data)
    if data[:4] == MAGIC:
        return _load_binary(data)
    return _load_text(data)


def save_embeddings(emb: EmbeddingMatrix) -> bytes:
    """Serialize to the binary format (32-bit float payload). A value
    that is not finite in 32 bits is refused, by image id, since
    `load_embeddings` would refuse the file."""
    with np.errstate(over="ignore"):
        payload = emb.vectors.astype("<f4")
    bad = np.flatnonzero(~np.isfinite(payload).all(axis=1))
    if bad.size:
        raise ValueError(f"image id {emb.ids[int(bad[0])]} has an embedding value "
                         "outside the 32-bit float range")
    out = [_HEADER.pack(MAGIC, FORMAT_VERSION, len(emb), emb.dim)]
    out.append(np.asarray(emb.ids, dtype="<u8").tobytes())
    out.append(payload.tobytes())
    return b"".join(out)


def _load_binary(data: bytes) -> EmbeddingMatrix:
    if len(data) < _HEADER.size:
        raise MalformedHeader("incomplete embedding header", offset=len(data))
    magic, version, n, dim = _HEADER.unpack_from(data, 0)
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"unsupported embedding version {version}", offset=4)
    if dim < 1:
        raise MalformedHeader("descriptor dimension must be >= 1", offset=16)
    ids_start = _HEADER.size
    payload_start = ids_start + 8 * n
    expected = payload_start + 4 * n * dim
    check_size(data, expected)
    ids = np.frombuffer(data, dtype="<u8", count=n, offset=ids_start)
    floats = np.frombuffer(data, dtype="<f4", count=n * dim, offset=payload_start)
    vectors = floats.astype(np.float64).reshape(n, dim)
    fault = _check(ids, vectors, lambda r: ids_start + 8 * r, lambda k: payload_start + 4 * k)
    if fault is not None:
        raise type(fault[1])(str(fault[1]), offset=fault[0])
    return _matrix(ids, vectors)


def _load_text(data: bytes) -> EmbeddingMatrix:
    """`id v1 ... vd` lines, with d set by the first non-blank line. The
    earliest faulty line is reported; within a line, a token fault comes
    first, then a repeated id, then a value that is not finite."""
    text = decode_text(data, "embedding text")
    width = len(first_line(text.lstrip()).split())
    if not width:
        raise InvalidRecord("embedding text contains no rows", offset=0)
    row = np.dtype([("id", "u8"), ("value", "f8", (max(width - 1, 1),))])
    rows, fault = read_rows(text, row, "image")
    vectors = np.array(rows["value"], dtype=np.float64)
    raise_earliest(text, fault, _check(rows["id"], vectors, lambda r: r,
                                       lambda k: k // vectors.shape[1]))
    return _matrix(rows["id"], vectors)
