import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from matchgraph import embeddings, overlaps, trainer
from matchgraph.errors import (
    InvalidRecord,
    MalformedHeader,
    NonFiniteValue,
    TruncatedPayload,
    VersionMismatch,
)
from matchgraph.overlaps import (
    OverlapRecord,
    OverlapStore,
    label_pair,
    load_overlaps,
    save_overlaps,
)

from overlap_oracle import overlap_text, parse_overlaps


class TestOverlapRecord:
    def test_rejects_self_pair(self):
        with pytest.raises(InvalidRecord):
            OverlapRecord(3, 3, 0.5, 0.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidRecord):
            OverlapRecord(1, 2, 1.5, 0.0)

    def test_symmetric_lookup(self):
        store = OverlapStore([OverlapRecord(4, 9, 0.7, 0.2)])
        assert store.get(9, 4).mo == 0.7
        assert store.get(4, 9).ct == 0.2
        assert store.get(4, 5) is None

    def test_conflicting_records_rejected(self):
        first = OverlapRecord(1, 2, 0.5, 0.5)
        OverlapStore([first, OverlapRecord(2, 1, 0.5, 0.5)])  # same values are fine
        with pytest.raises(InvalidRecord):
            OverlapStore([first, OverlapRecord(2, 1, 0.6, 0.5)])


class TestOverlapIO:
    def test_round_trip(self):
        store = OverlapStore(
            [OverlapRecord(5, 2, 0.25, 0.125), OverlapRecord(7, 9, 1.0, 0.0)]
        )
        assert load_overlaps(save_overlaps(store)) == store

    def test_symmetric_closure_on_load(self):
        store = load_overlaps("3 1 0.5 0.5\n")
        assert store.get(1, 3) is not None

    def test_bad_line(self):
        with pytest.raises(InvalidRecord):
            load_overlaps("1 2 0.5\n")

    def test_empty_text(self):
        assert len(load_overlaps("")) == 0

    def test_bad_record_reports_its_line_offset(self):
        with pytest.raises(InvalidRecord) as info:
            load_overlaps("0 1 0.5 0.5\n2 3 1.5 0.5\n")
        assert info.value.offset == 12
        assert "byte offset 12" in str(info.value)

    def test_offset_counts_utf8_bytes_and_blank_lines(self):
        # U+00A0 is whitespace to str.split but two bytes in UTF-8.
        text = "\n0 1 0.5 0.5\u00a0\n2 3 0.5\n"
        with pytest.raises(InvalidRecord) as info:
            load_overlaps(text)
        assert info.value.offset == len("\n0 1 0.5 0.5\u00a0\n".encode("utf-8")) == 15

    @pytest.mark.parametrize("score", ["nan", "inf"])
    def test_non_finite_score_reports_its_line_offset(self, score):
        with pytest.raises(NonFiniteValue) as info:
            load_overlaps(f"0 1 0.5 0.5\n2 3 {score} 0.5\n")
        assert info.value.offset == 12
        assert "byte offset 12" in str(info.value)


class TestOverlapIdRange:
    @pytest.mark.parametrize("line", ["-1 2 0.5 0.5", f"2 {2**64} 0.5 0.5", f"{-2**70} 3 0.5 0.5"])
    def test_id_outside_u64_reports_its_line_offset(self, line):
        with pytest.raises(InvalidRecord) as info:
            load_overlaps(f"0 1 0.5 0.5\n{line}\n")
        assert info.value.offset == 12
        assert "outside [0, 2^64)" in str(info.value)

    def test_largest_u64_id_round_trips(self):
        top = 2**64 - 1
        store = load_overlaps(f"{top} 0 0.5 0.25\n")
        assert store.get(0, top) == (0, top, 0.5, 0.25)
        assert store.columns()[1].tolist() == [top]
        data = save_overlaps(store)
        assert data[24:32] == top.to_bytes(8, "little")
        again = load_overlaps(data)
        assert again == store and again.columns()[1].tolist() == [top]
        assert overlap_text(again) == f"0 {top} 0.5 0.25\n"
        with pytest.raises(InvalidRecord):
            OverlapRecord(-1, 2, 0.5, 0.5)

    def test_non_integer_id_rejected_not_truncated(self):
        with pytest.raises(InvalidRecord, match=r"overlap id 1\.7 is not an integer"):
            OverlapRecord(1.7, 2.2, 0.5, 0.5)
        record = OverlapRecord(np.uint64(1), np.int64(2), 0.5, 0.5)
        assert record == (1, 2, 0.5, 0.5) and type(record.i) is int

    def test_lookups_are_exact_above_2_to_53(self):
        # 2^53 and 2^53 + 1 are one float64; lookups must not round them
        a, b = 2**53, 2**53 + 1
        store = OverlapStore([OverlapRecord(5, a, 0.5, 0.0), OverlapRecord(b, 7, 0.25, 1.0)])
        assert store.get(b, 7) == (b, 7, 0.25, 1.0)
        assert store.get(5, b) is None and store.get(7, a) is None
        assert store.partners(a).ids.tolist() == [5]
        assert store.partners(b).ids.tolist() == [7]


# Ids at the ends of the u64 range, and score spellings that parse to equal
# floats, so that identical repeats can be written differently. ID_FORMS
# are spellings that int() accepts and numpy's text reader refuses.
ID_POOL = [0, 1, 2, 3, 5, 8, 10, 13, 21, 2**31, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1]
ID_FORMS = {"0": "-0", "1": "\u0661", "10": "1_0"}
EQUAL_FORMS = {"0.0": "-0.0", "-0.0": "0", "1": "1.0", "1.0": "1e0", "0.5": "5e-1", "0.25": "0.250"}
# Line breaks of str.splitlines; numpy's reader refuses a lone carriage
# return inside a line and reads the others as spaces.
INLINE_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
ENDINGS = ["\n", "\r\n", "\u00a0\n", "\u00a0\r\n", " \t\n", "\r", "\x0c", "\u2028"]
BLANKS = ["", "   ", "\t", "\u00a0"]


def valid_rows(rng, count):
    """Rows of distinct pairs as token lists, each pair in a random orientation."""
    rows = {}
    while len(rows) < count:
        a, b = (ID_POOL[k] for k in rng.choice(len(ID_POOL), size=2, replace=False))
        scores = [
            list(EQUAL_FORMS)[int(rng.integers(len(EQUAL_FORMS)))] if rng.random() < 0.4
            else repr(float(rng.random()))
            for _ in range(2)
        ]
        ids = [ID_FORMS.get(str(v), str(v)) if rng.random() < 0.2 else str(v) for v in (a, b)]
        rows.setdefault((min(a, b), max(a, b)), [*ids, *scores])
    return list(rows.values())


def with_repeats(rng, rows):
    """Rows plus identical repeats, some reversed or spelled differently."""
    out = list(rows)
    for row in rows:
        if rng.random() < 0.3:
            a, b, mo, ct = row
            if rng.random() < 0.5:
                a, b = b, a
            out.append([a, b, EQUAL_FORMS.get(mo, mo), EQUAL_FORMS.get(ct, ct)])
    if rng.random() < 0.5:
        rng.shuffle(out)
    else:
        out.reverse()
    return out


def compose(rng, lines):
    """Join lines with mixed endings and separators, among blank lines."""
    parts = []
    for line in lines:
        if rng.random() < 0.2:
            parts.append(BLANKS[int(rng.integers(len(BLANKS)))] + ENDINGS[int(rng.integers(len(ENDINGS)))])
        r = rng.random()
        sep = " " if r < 0.7 else " \t " if r < 0.99 else INLINE_BREAKS[int(rng.integers(len(INLINE_BREAKS)))]
        parts.append(sep.join(line) + ENDINGS[int(rng.integers(len(ENDINGS)))])
    text = "".join(parts)
    return text.rstrip("\n") if rng.random() < 0.2 else text


def outcome(parse, text):
    try:
        return repr(parse(text))
    except (InvalidRecord, NonFiniteValue) as exc:
        return type(exc).__name__, str(exc), exc.offset


def fault_line(kind, rng, earlier):
    """One faulty line of the given kind; a conflict repeats an earlier pair."""
    if kind == "conflict":
        a, b, mo, ct = earlier[int(rng.integers(len(earlier)))]
        return [b, a, mo, "0.125" if float(ct) != 0.125 else "0.375"]
    return {
        "three tokens": ["1", "2", "0.5"],
        "five tokens": ["1", "2", "0.5", "0.5", "0.5"],
        "bad int": ["1.5", "2", "0.5", "0.5"],
        "float id": ["1.0", "2", "0.5", "0.5"],
        "bad float": ["1", "2", "0.5", "x"],
        "nan": ["1", "2", "nan", "0.5"],
        "inf": ["1", "2", "0.5", "-inf"],
        "out of range": ["1", "2", "1.5", "0.5"],
        "self-pair": ["4", "4", "0.5", "0.5"],
        "negative id": ["-1", "4", "0.5", "0.5"],
        "id past u64": ["4", str(2**64), "0.5", "0.5"],
        "self-pair and nan": ["4", "4", "nan", "0.5"],
        "bad id and self-pair": ["-1", "-1", "0.5", "0.5"],
        "parse and self-pair": ["4", "4", "x", "0.5"],
    }[kind]


FAULT_KINDS = [
    "three tokens", "five tokens", "bad int", "float id", "bad float", "nan", "inf", "out of range",
    "self-pair", "negative id", "id past u64", "conflict", "self-pair and nan",
    "bad id and self-pair", "parse and self-pair",
]


class TestLoadOverlapsMatchesOracle:
    def test_valid_texts_give_the_oracle_records(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            rows = with_repeats(rng, valid_rows(rng, int(rng.integers(0, 40))))
            text = compose(rng, rows)
            assert outcome(lambda t: load_overlaps(t).records(), text) == \
                outcome(parse_overlaps, text)

    @pytest.mark.parametrize("first", FAULT_KINDS)
    def test_earliest_fault_wins_with_the_oracle_error(self, first):
        rng = np.random.default_rng([102, FAULT_KINDS.index(first)])
        for second in FAULT_KINDS:
            for _ in range(3):
                rows = valid_rows(rng, int(rng.integers(1, 30)))
                at = int(rng.integers(1, len(rows) + 1))
                later = int(rng.integers(at, len(rows) + 1))
                lines = (rows[:at] + [fault_line(first, rng, rows[:at])] + rows[at:later]
                         + [fault_line(second, rng, rows[:at])] + rows[later:])
                text = compose(rng, lines)
                want = outcome(parse_overlaps, text)
                assert isinstance(want, tuple)
                assert outcome(lambda t: load_overlaps(t).records(), text) == want


class TestOverlapNumpyRoute:
    def test_saved_overlaps_are_read_without_the_line_parser(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("line parser called")

        rng = np.random.default_rng(103)
        ids = rng.integers(0, 2**64, size=200, dtype=np.uint64).tolist()
        ids += [0, 2**64 - 1, 2**53, 2**53 + 1]
        scores = [0.0, 1.0, 5e-324, 1 - 2**-53] + rng.random(len(ids) - 4).tolist()
        store = OverlapStore.from_columns(ids[0::2], ids[1::2], scores[0::2], scores[1::2])
        text = overlap_text(store)
        monkeypatch.setattr(embeddings, "_lines", refuse)
        assert load_overlaps(text) == store


# The binary layout, written out independently of the library.
ROW = np.dtype([("i", "<u8"), ("j", "<u8"), ("mo", "<f8"), ("ct", "<f8")])


def binary(rows, version=1, count=None):
    """A binary overlap file holding `rows` as they are, faulty ones included."""
    head = b"MGOV" + struct.pack("<IQ", version, len(rows) if count is None else count)
    return head + np.array([tuple(r) for r in rows], dtype=ROW).tobytes()


def numeric(tokens):
    a, b, mo, ct = tokens
    return int(a), int(b), float(mo), float(ct)


def text_of(rows):
    return "".join(f"{a} {b} {mo!r} {ct!r}\n" for a, b, mo, ct in rows)


# Faults a u64 row can hold; an id outside [0, 2^64) cannot be written.
BINARY_FAULTS = ["self-pair", "nan", "inf", "out of range", "conflict", "self-pair and nan"]


class TestBinaryOverlaps:
    @pytest.mark.parametrize("records", [
        [],
        [(2**64 - 1, 0, 0.5, 0.25)],
        [(1, 2, 0.0, 1.0), (4, 3, 1.0, 0.0)],
        [(1, 2, 5e-324, 2.0**-1030)],
    ], ids=["empty", "largest id", "scores 0 and 1", "subnormal"])
    def test_round_trip_keeps_every_bit(self, records):
        store = OverlapStore([OverlapRecord(*r) for r in records])
        data = save_overlaps(store)
        assert len(data) == 16 + 32 * len(records)
        again = load_overlaps(data)
        assert again == store
        assert [c.tobytes() for c in again.columns()] == [c.tobytes() for c in store.columns()]

    def test_golden_bytes(self):
        store = OverlapStore([OverlapRecord(5, 2, 0.25, 0.125), OverlapRecord(7, 9, 1.0, 0.0)])
        assert save_overlaps(store) == bytes.fromhex(
            "4d474f56" "01000000" "0200000000000000"
            "0200000000000000" "0500000000000000" "000000000000d03f" "000000000000c03f"
            "0700000000000000" "0900000000000000" "000000000000f03f" "0000000000000000"
        )

    def test_valid_rows_give_the_oracle_records(self):
        rng = np.random.default_rng(104)
        for _ in range(100):
            rows = [numeric(r) for r in with_repeats(rng, valid_rows(rng, int(rng.integers(0, 40))))]
            assert load_overlaps(binary(rows)).records() == parse_overlaps(text_of(rows))

    def test_identical_repeat_is_kept_once(self):
        store = load_overlaps(binary([(1, 2, 0.5, 0.25), (2, 1, 0.5, 0.25)]))
        assert store.records() == [(1, 2, 0.5, 0.25)]

    @pytest.mark.parametrize("first", BINARY_FAULTS)
    def test_earliest_faulty_row_raises_the_text_error_at_its_offset(self, first):
        rng = np.random.default_rng([105, BINARY_FAULTS.index(first)])
        for second in BINARY_FAULTS:
            for _ in range(3):
                rows = [numeric(r) for r in valid_rows(rng, int(rng.integers(1, 30)))]
                at = int(rng.integers(1, len(rows) + 1))
                later = int(rng.integers(at, len(rows) + 1))
                rows = (rows[:at] + [numeric(fault_line(first, rng, rows[:at]))] + rows[at:later]
                        + [numeric(fault_line(second, rng, rows[:at]))] + rows[later:])
                kind, message, line_offset = outcome(parse_overlaps, text_of(rows))
                starts = np.cumsum([0] + [len(line) for line in text_of(rows).splitlines(True)])
                offset = 16 + 32 * starts.tolist().index(line_offset)
                assert offset == 16 + 32 * at
                message = message.replace(f"(byte offset {line_offset})", f"(byte offset {offset})")
                got = outcome(lambda d: load_overlaps(d).records(), binary(rows))
                assert got == (kind, message, offset)

    @pytest.mark.parametrize("row, error, message", [
        ((4, 4, 0.5, 0.5), InvalidRecord, "overlap record needs two distinct images"),
        ((4, 5, float("nan"), 0.5), NonFiniteValue, "mo score must be finite"),
        ((4, 5, 0.5, 1.5), InvalidRecord, "ct score 1.5 outside [0, 1]"),
        ((2, 1, 0.5, 0.375), InvalidRecord,
         "conflicting overlap scores for pair (1, 2): (0.5, 0.25) vs (0.5, 0.375)"),
    ], ids=["i == j", "nan", "1.5", "conflicting repeat"])
    def test_faulty_row_is_reported_at_its_offset(self, row, error, message):
        rows = [(1, 2, 0.5, 0.25), (0, 3, 0.0, 1.0), row, (7, 8, 0.5, 0.5)]
        with pytest.raises(error) as info:
            load_overlaps(binary(rows))
        assert info.value.offset == 16 + 32 * 2
        assert str(info.value) == f"{message} (byte offset 80)"

    def test_header_and_length_faults(self):
        data = save_overlaps(OverlapStore([OverlapRecord(1, 2, 0.5, 0.25)]))
        cases = [
            (data[:4], MalformedHeader, 4),
            (data[:15], MalformedHeader, 15),
            (data[:4] + struct.pack("<I", 2) + data[8:], VersionMismatch, 4),
            (data[:-1], TruncatedPayload, 47),
            (data[:16], TruncatedPayload, 16),
            (binary([], count=2**64 - 1), TruncatedPayload, 16),
            (data + b"\0", InvalidRecord, 48),
        ]
        for bad, error, offset in cases:
            with pytest.raises(error) as info:
                load_overlaps(bad)
            assert type(info.value) is error and info.value.offset == offset

    def test_text_bytes_that_are_not_utf8_are_refused_at_their_offset(self):
        with pytest.raises(InvalidRecord) as info:
            load_overlaps(b"0 1 0.5 0.5\n2 \xff 0.5 0.5\n")
        assert info.value.offset == 14
        assert str(info.value) == "overlap text is not valid UTF-8 (byte offset 14)"

    def test_text_bytes_and_binary_give_the_text_store(self):
        rng = np.random.default_rng(106)
        for _ in range(100):
            text = compose(rng, with_repeats(rng, valid_rows(rng, int(rng.integers(0, 40)))))
            want = outcome(lambda t: load_overlaps(t).records(), text)
            assert outcome(lambda d: load_overlaps(d).records(), text.encode()) == want
            if not isinstance(want, tuple):  # compose may break a line inside a record
                store = load_overlaps(text)
                assert load_overlaps(text.encode()) == store == load_overlaps(save_overlaps(store))


class TestLabelPair:
    def test_mo_boundary_inclusive(self):
        record = OverlapRecord(1, 2, 0.25, 0.0)
        assert label_pair(record, 0.25, 0.15) is True

    def test_both_zero(self):
        record = OverlapRecord(1, 2, 0.0, 0.0)
        assert label_pair(record, 0.25, 0.15) is False

    def test_ct_branch(self):
        record = OverlapRecord(1, 2, 0.1, 0.15)
        assert label_pair(record, 0.25, 0.15) is True

    @given(
        mo=st.floats(0, 1), ct=st.floats(0, 1),
        bump_mo=st.floats(0, 1), bump_ct=st.floats(0, 1),
        tau_mo=st.floats(0, 1), tau_ct=st.floats(0, 1),
    )
    def test_monotone_in_scores(self, mo, ct, bump_mo, bump_ct, tau_mo, tau_ct):
        low = label_pair(OverlapRecord(1, 2, mo, ct), tau_mo, tau_ct)
        high = label_pair(
            OverlapRecord(1, 2, min(1.0, mo + bump_mo), min(1.0, ct + bump_ct)),
            tau_mo,
            tau_ct,
        )
        assert high or not low


class TestTrainerReExports:
    def test_trainer_names_are_the_overlap_functions(self):
        # bench/tracing.py wraps trainer.load_overlaps by identity and reports
        # trainer.load_overlaps_s; a wrapper under either name would read 0.
        assert trainer.load_overlaps is overlaps.load_overlaps
        assert trainer.save_overlaps is overlaps.save_overlaps
