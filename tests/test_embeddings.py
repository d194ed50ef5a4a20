import io
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchgraph.embeddings import EmbeddingMatrix, load_embeddings, save_embeddings
from matchgraph.errors import (
    DegenerateVector,
    DimensionError,
    DuplicateId,
    InvalidRecord,
    MalformedHeader,
    NonFiniteValue,
    TruncatedPayload,
    UnknownImage,
    VersionMismatch,
)

from retrieval_oracle import distance, l2_normalize


def make_file(ids, vectors):
    vectors = np.asarray(vectors, dtype=np.float32)
    head = struct.pack("<4sIQI", b"MGEB", 1, len(ids), vectors.shape[1])
    return head + np.asarray(ids, dtype="<u8").tobytes() + vectors.astype("<f4").tobytes()


class TestL2Normalize:
    def test_three_four_five(self):
        assert np.allclose(l2_normalize((3.0, 4.0)), (0.6, 0.8), atol=1e-12)

    def test_already_unit(self):
        assert np.allclose(l2_normalize((1.0, 0.0, 0.0)), (1.0, 0.0, 0.0), atol=0)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateVector):
            l2_normalize((0.0, 0.0))

    def test_non_finite_rejected(self):
        with pytest.raises(DegenerateVector):
            l2_normalize((1.0, float("nan")))

    def test_unit_norm_within_tolerance(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = rng.normal(size=rng.integers(1, 20))
            if np.linalg.norm(v) == 0:
                continue
            n = np.linalg.norm(l2_normalize(v))
            assert abs(n - 1.0) <= 1e-9


class TestDistance:
    def test_identical_vector_is_zero(self):
        v = (0.3, -0.7, 2.0)
        assert distance(v, v) == 0.0

    def test_orthogonal_unit_vectors(self):
        assert abs(distance((1.0, 0.0), (0.0, 1.0)) - math.sqrt(2)) <= 1e-12

    def test_scale_invariance(self):
        assert distance((2.0, 0.0), (1.0, 0.0)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            distance((1.0, 0.0), (1.0, 0.0, 0.0))

    def test_zero_norm(self):
        with pytest.raises(DegenerateVector):
            distance((0.0, 0.0), (1.0, 0.0))

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a, b = rng.normal(size=(2, 8))
            assert abs(distance(a, b) - distance(b, a)) <= 1e-12
            # identical evaluation order is bitwise reproducible
            assert distance(a, b) == distance(a, b)

    def test_positive_scaling_collapses(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = rng.normal(size=6)
            s = float(rng.uniform(0.01, 100.0))
            assert distance(a, s * a) <= 1e-9

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            a, b, c = rng.normal(size=(3, 5))
            assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9

    def test_range(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a, b = rng.normal(size=(2, 7))
            d = distance(a, b)
            assert 0.0 <= d <= 2.0 + 1e-12


class TestEmbeddingMatrix:
    def test_basic_accessors(self):
        emb = EmbeddingMatrix([5, 9], [[1.0, 2.0], [3.0, 4.0]])
        assert emb.dim == 2
        assert len(emb) == 2
        assert emb.position(9) == 1
        assert np.array_equal(emb.row(5), [1.0, 2.0])
        assert 5 in emb and 7 not in emb

    def test_unknown_id(self):
        emb = EmbeddingMatrix([5], [[1.0]])
        with pytest.raises(UnknownImage):
            emb.row(6)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateId):
            EmbeddingMatrix([1, 1], [[1.0], [2.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteValue):
            EmbeddingMatrix([1, 2], [[1.0], [float("inf")]])

    @pytest.mark.parametrize("bad_id", [-1, 2**64])
    def test_id_outside_u64_rejected(self, bad_id):
        with pytest.raises(InvalidRecord):
            EmbeddingMatrix([0, bad_id], [[1.0], [2.0]])
        assert EmbeddingMatrix([2**64 - 1], [[1.0]]).ids == (2**64 - 1,)

    def test_non_integer_id_rejected_not_truncated(self):
        with pytest.raises(InvalidRecord, match=r"image id 1\.5 is not an integer"):
            EmbeddingMatrix([1.5, 2.9], [[1.0], [2.0]])
        ids = np.array([7, 3], dtype=np.uint64)
        assert EmbeddingMatrix(ids, [[1.0], [2.0]]).ids == (7, 3)

    def test_vectors_read_only(self):
        emb = EmbeddingMatrix([1], [[1.0, 2.0]])
        with pytest.raises(ValueError):
            emb.vectors[0, 0] = 9.0


class TestBinaryFormat:
    def test_well_formed_round_trip(self):
        data = make_file([7, 3], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        emb = load_embeddings(data)
        assert len(emb) == 2
        assert emb.ids == (7, 3)
        assert save_embeddings(emb) == data

    @pytest.mark.parametrize("value", [1e39, -3.5e38, 1e300])
    def test_value_outside_float32_refused_by_id(self, value):
        # the float32 payload would hold inf, which `load_embeddings` refuses
        emb = EmbeddingMatrix([5, 12, 9], [[1.0, 2.0], [0.5, value], [3.0, value]])
        with pytest.raises(ValueError, match="image id 12 "):
            save_embeddings(emb)

    def test_float32_range_ends_round_trip(self):
        top = float(np.finfo(np.float32).max)
        emb = EmbeddingMatrix([4, 2], [[top, -top], [np.finfo(np.float64).tiny, 1.0]])
        back = load_embeddings(save_embeddings(emb))
        assert back.ids == (4, 2)
        assert back.vectors[0].tolist() == [top, -top]

    def test_accepts_stream(self):
        data = make_file([1], [[0.5, 0.25]])
        emb = load_embeddings(io.BytesIO(data))
        assert emb.ids == (1,)

    def test_payload_one_float_short(self):
        data = make_file([7, 3], [[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(TruncatedPayload) as err:
            load_embeddings(data[:-4])
        assert err.value.offset == len(data) - 4

    def test_short_header(self):
        with pytest.raises(MalformedHeader):
            load_embeddings(b"MGEB\x01\x00")

    def test_bad_version(self):
        data = make_file([1], [[1.0]])
        bad = data[:4] + struct.pack("<I", 9) + data[8:]
        with pytest.raises(VersionMismatch):
            load_embeddings(bad)

    def test_duplicate_id(self):
        data = make_file([4, 4], [[1.0], [2.0]])
        with pytest.raises(DuplicateId) as err:
            load_embeddings(data)
        assert err.value.offset == 20 + 8

    def test_non_finite_entry(self):
        data = make_file([1, 2], [[1.0], [float("nan")]])
        with pytest.raises(NonFiniteValue) as err:
            load_embeddings(data)
        assert err.value.offset == 20 + 16 + 4

    def test_repeated_id_comes_before_a_non_finite_value_of_an_earlier_row(self):
        # the ids lie before the payload in the file
        data = make_file([4, 5, 4], [[float("nan")], [1.0], [2.0]])
        with pytest.raises(DuplicateId) as err:
            load_embeddings(data)
        assert err.value.offset == 20 + 16

    def test_trailing_bytes_rejected(self):
        data = make_file([1], [[1.0]]) + b"x"
        with pytest.raises(InvalidRecord):
            load_embeddings(data)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_round_trip_random_files(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        d = int(rng.integers(1, 9))
        ids = rng.choice(10_000, size=n, replace=False)
        vectors = rng.normal(size=(n, d)).astype(np.float32)
        data = make_file(ids, vectors)
        assert save_embeddings(load_embeddings(data)) == data


class TestTextFormat:
    def test_basic(self):
        emb = load_embeddings(b"3 1.0 2.0\n9 -0.5 4.5\n")
        assert emb.ids == (3, 9)
        assert np.allclose(emb.vectors, [[1.0, 2.0], [-0.5, 4.5]])

    def test_blank_lines_skipped(self):
        emb = load_embeddings(b"\n3 1.0\n\n4 2.0\n")
        assert emb.ids == (3, 4)

    def test_inconsistent_width(self):
        with pytest.raises(InvalidRecord):
            load_embeddings(b"1 1.0 2.0\n2 3.0\n")

    def test_duplicate_id_names_offset(self):
        with pytest.raises(DuplicateId) as err:
            load_embeddings(b"1 1.0\n1 2.0\n")
        assert err.value.offset == 6

    def test_non_finite(self):
        with pytest.raises(NonFiniteValue):
            load_embeddings(b"1 nan\n")

    @pytest.mark.parametrize("line, error", [
        ("1 0.5 inf", NonFiniteValue),
        ("0 nan 0.5", DuplicateId),  # a repeated id comes before a non-finite value
        ("0 nan", InvalidRecord),  # a token fault comes before both
        ("0 nan x", InvalidRecord),
    ])
    def test_earliest_fault_of_a_line_at_its_offset(self, line, error):
        head = "0 1.0 2.0\r\n\r\n"
        with pytest.raises(error) as err:
            load_embeddings((head + line + "\r\n2 nan nan\r\n0 1 1\r\n").encode())
        assert type(err.value) is error
        assert err.value.offset == len(head)

    def test_negative_id(self):
        with pytest.raises(InvalidRecord):
            load_embeddings(b"-2 1.0\n")

    @pytest.mark.parametrize("bad_id", [-2, 2**64])
    def test_id_outside_u64_names_offset(self, bad_id):
        with pytest.raises(InvalidRecord) as err:
            load_embeddings(f"1 1.0\n{bad_id} 2.0\n".encode())
        assert err.value.offset == 6
        assert f"image id {bad_id} outside [0, 2^64)" in str(err.value)

    def test_empty(self):
        with pytest.raises(InvalidRecord):
            load_embeddings(b"   \n")
