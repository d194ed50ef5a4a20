"""Image embedding storage and file I/O.

Embeddings are consumed precomputed: each image contributes one global
descriptor row. Distances are measured between L2-normalized rows (see
`knn`), but the rows themselves are stored raw so that consumers needing
unnormalized descriptors (e.g. query-relative node features) still have them.
"""

import io
import struct
from typing import BinaryIO, Sequence

import numpy as np

from .errors import (
    DimensionError,
    DuplicateId,
    InvalidRecord,
    MalformedHeader,
    NonFiniteValue,
    TruncatedPayload,
    UnknownImage,
    VersionMismatch,
)

MAGIC = b"MGEB"
FORMAT_VERSION = 1
ID_END = 2**64  # image ids are u64; overlap and pair files share the type
# Line breaks of str.splitlines that numpy's text reader reads as spaces.
_SPACE_TO_NUMPY = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


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


def read_rows(text: str, row: np.dtype) -> np.ndarray | None:
    """The whitespace-separated rows of `text` as an array of `row`, parsed
    in one call of numpy's text reader, or None for blank text, for a line
    break that the reader would not see, and for any text it refuses.

    The reader refuses spellings that int() and float() accept (`1_0`,
    `-0`, non-ASCII digits, a lone carriage return inside a line) and
    cannot say where a fault is, so a None sends the caller to its line
    parser. Every value it accepts parses to the same number.
    """
    if not text.strip() or any(c in text for c in _SPACE_TO_NUMPY):
        return None
    try:
        return np.loadtxt(io.StringIO(text), dtype=row, comments=None, ndmin=1)
    except ValueError:
        return None


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
        ids = tuple(int(i) for i in ids)
        if not all(0 <= i < ID_END for i in ids):
            raise InvalidRecord("image ids must lie in [0, 2^64)")
        if len(set(ids)) != len(ids):
            raise DuplicateId("image ids must be unique")
        if not np.all(np.isfinite(vectors)):
            raise NonFiniteValue("embedding vectors must be finite")
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
    seen: set[int] = set()
    for k, image_id in enumerate(ids):
        if int(image_id) in seen:
            raise DuplicateId(
                f"image id {int(image_id)} repeated", offset=ids_start + 8 * k
            )
        seen.add(int(image_id))
    floats = np.frombuffer(data, dtype="<f4", count=n * dim, offset=payload_start)
    bad = np.flatnonzero(~np.isfinite(floats))
    if bad.size:
        raise NonFiniteValue(
            "non-finite embedding entry", offset=payload_start + 4 * int(bad[0])
        )
    vectors = floats.astype(np.float64).reshape(n, dim)
    return EmbeddingMatrix([int(i) for i in ids], vectors)


def _load_text(data: bytes) -> EmbeddingMatrix:
    text = decode_text(data, "embedding text")
    ids: list[int] = []
    rows: list[list[float]] = []
    seen: set[int] = set()
    dim: int | None = None
    offset = 0
    for line in text.splitlines(keepends=True):
        stripped = line.strip()
        if stripped:
            tokens = stripped.split()
            if len(tokens) < 2:
                raise InvalidRecord("embedding line needs an id and values", offset=offset)
            try:
                image_id = int(tokens[0])
            except ValueError:
                raise InvalidRecord(f"bad image id {tokens[0]!r}", offset=offset)
            if not 0 <= image_id < ID_END:
                raise InvalidRecord(f"image id {image_id} outside [0, 2^64)", offset=offset)
            if image_id in seen:
                raise DuplicateId(f"image id {image_id} repeated", offset=offset)
            seen.add(image_id)
            try:
                values = [float(t) for t in tokens[1:]]
            except ValueError:
                raise InvalidRecord("bad embedding value", offset=offset)
            if not all(np.isfinite(values)):
                raise NonFiniteValue("non-finite embedding entry", offset=offset)
            if dim is None:
                dim = len(values)
            elif len(values) != dim:
                raise InvalidRecord(
                    f"row has {len(values)} values, expected {dim}", offset=offset
                )
            ids.append(image_id)
            rows.append(values)
        offset += len(line.encode("utf-8"))
    if dim is None:
        raise InvalidRecord("embedding text contains no rows", offset=0)
    return EmbeddingMatrix(ids, np.array(rows, dtype=np.float64))
