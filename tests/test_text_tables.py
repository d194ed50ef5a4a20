"""The one text-table reader, `embeddings.read_rows`, behind all five text
formats: embedding text, overlap text, pair files, class files and query
files."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import matchgraph as mg
from matchgraph import cli
from matchgraph.embeddings import load_embeddings
from matchgraph.errors import InvalidRecord
from matchgraph.overlaps import load_overlaps
from matchgraph.retrieval import PAIR_FILE_HEADER, read_pair_file
from matchgraph.synthetic import load_classes

# Ids at the ends of the u64 range, and spellings that int() and float()
# accept and numpy's text reader refuses.
ID_POOL = [0, 1, 2, 3, 10, 2**53 + 1, 2**63, 2**64 - 1]
LABEL_POOL = [-2**63, -3, 0, 1, 2, 10, 2**63 - 1]
INT_FORMS = {"0": "-0", "1": "\u0661", "10": "1_0", "-3": "-\u0663"}
FLOAT_FORMS = {"0.5": "\u0660.\u0665", "0.25": "0.2_5", "0.0": "-0.0", "1.0": "1e0"}
# Line endings of str.splitlines: numpy's reader refuses a lone carriage
# return inside the text and reads \x0c and \u2028 as spaces.
PLAIN_ENDINGS = ["\n", "\r\n", "\u00a0\n", " \t\n"]
ENDINGS = PLAIN_ENDINGS + ["\r", "\x0c", "\u2028"]
BLANKS = ["", "   ", "\t", "\u00a0"]


def pick(rng, values):
    return values[int(rng.integers(len(values)))]


def spell(rng, token, forms, quirks):
    return forms.get(token, token) if quirks and rng.random() < 0.3 else token


def compose(rng, rows, quirks):
    """Rows of tokens joined by mixed separators and line endings, among
    blank lines; only texts with quirks use the spellings and line breaks
    that numpy's reader refuses."""
    endings = ENDINGS if quirks else PLAIN_ENDINGS
    parts = []
    for row in rows:
        if rng.random() < 0.2:
            parts.append(pick(rng, BLANKS) + pick(rng, endings))
        sep = pick(rng, [" ", " ", "\t", " \t "])
        parts.append(sep.join(row) + (pick(rng, endings) if rng.random() < 0.3 else "\n"))
    text = "".join(parts)
    return text.rstrip("\n") if rng.random() < 0.2 else text


def query_rows(rng, quirks):
    ids = [pick(rng, ID_POOL) for _ in range(int(rng.integers(1, 30)))]  # repeats allowed
    return [[spell(rng, str(v), INT_FORMS, quirks)] for v in ids]


def distinct_ids(rng, count):
    return [ID_POOL[k] for k in rng.choice(len(ID_POOL), size=count, replace=False)]


def class_rows(rng, quirks):
    ids = distinct_ids(rng, int(rng.integers(1, len(ID_POOL) + 1)))
    return [[spell(rng, str(v), INT_FORMS, quirks), spell(rng, str(pick(rng, LABEL_POOL)),
                                                           INT_FORMS, quirks)] for v in ids]


def embedding_rows(rng, quirks):
    ids = distinct_ids(rng, int(rng.integers(1, len(ID_POOL) + 1)))
    dim = int(rng.integers(1, 5))
    values = ["0.5", "0.25", "0.0", "1.0", "-2.5e-3"]
    return [[spell(rng, str(v), INT_FORMS, quirks)]
            + [spell(rng, pick(rng, values) if rng.random() < 0.5 else repr(float(rng.normal())),
                     FLOAT_FORMS, quirks) for _ in range(dim)]
            for v in ids]


def read_queries(text, tmp_path):
    path = tmp_path / "queries.txt"
    path.write_bytes(text.encode("utf-8"))
    return cli._read_queries(str(path))


def read_embeddings(text):
    emb = load_embeddings(text.encode("utf-8"))
    return emb.ids, emb.vectors.tolist()


FORMATS = {
    # rows, the loader, and the values that int() and float() give for the rows
    "query": (query_rows, read_queries, lambda rows: [int(t) for t, in rows]),
    "class": (class_rows, lambda text, _: load_classes(text),
              lambda rows: {int(a): int(b) for a, b in rows}),
    "embedding": (embedding_rows, lambda text, _: read_embeddings(text),
                  lambda rows: (tuple(int(r[0]) for r in rows),
                                [[float(t) for t in r[1:]] for r in rows])),
}


class TestNumpyRouteMatchesLineRoute:
    @pytest.mark.parametrize("name", list(FORMATS))
    def test_valid_texts_give_the_same_values_by_either_route(self, name, monkeypatch, tmp_path):
        make_rows, parse, values = FORMATS[name]
        accepted = []
        loadtxt = np.loadtxt

        def spy(*args, **kwargs):
            rows = loadtxt(*args, **kwargs)
            accepted.append(True)
            return rows

        def refuse(*args, **kwargs):
            raise ValueError("numpy route refused")

        rng = np.random.default_rng([301, list(FORMATS).index(name)])
        for _ in range(150):
            rows = make_rows(rng, quirks=rng.random() < 0.5)
            text = compose(rng, rows, quirks=rng.random() < 0.5)
            monkeypatch.setattr(np, "loadtxt", spy)
            by_numpy = parse(text, tmp_path)
            monkeypatch.setattr(np, "loadtxt", refuse)
            by_line = parse(text, tmp_path)
            assert repr(by_numpy) == repr(by_line) == repr(values(rows))
        monkeypatch.undo()
        # both routes were taken
        assert 20 < len(accepted) < 130


# Each format as (what its messages call it, two valid lines, and a loader
# of the text), with the three faults written for its third line.
CRLF_FORMATS = {
    "embedding text": ("image", ["0 0.5 0.25", "1 0.5 0.25"],
                       lambda text, _: load_embeddings(text.encode("utf-8")),
                       {"count": "2 0.5", "token": "2 0.5 x", "id": "{} 0.5 0.25"}),
    "overlap text": ("overlap", ["0 1 0.5 0.5", "1 2 0.5 0.5"],
                     lambda text, _: load_overlaps(text.encode("utf-8")),
                     {"count": "2 3 0.5", "token": "2 3 0.5 x", "id": "{} 3 0.5 0.5"}),
    "pair file": ("pair", [PAIR_FILE_HEADER, "0 1 0.5"], lambda text, _: read_pair_file(text),
                  {"count": "2 3", "token": "2 3 x", "id": "{} 3 0.5"}),
    "class file": ("class", ["0 0", "1 1"], lambda text, _: load_classes(text),
                   {"count": "2", "token": "2 x", "id": "{} 0"}),
    "query file": ("query", ["0", "1"], read_queries,
                   {"count": "2 3", "token": "x", "id": "{}"}),
}


class TestOneErrorPerFaultKind:
    @pytest.mark.parametrize("fault, bad_id", [("count", None), ("token", None), ("id", -1),
                                               ("id", 2**64)])
    @pytest.mark.parametrize("name", list(CRLF_FORMATS))
    def test_faulty_third_line_of_a_crlf_file(self, name, fault, bad_id, tmp_path):
        what, lines, parse, faults = CRLF_FORMATS[name]
        head = "".join(line + "\r\n" for line in lines)
        offset = len(head.encode("utf-8"))
        text = head + faults[fault].format(bad_id) + "\r\n0 0\r\n"
        message = {
            "count": rf"{what} line has \d+ fields, expected \d+",
            "token": rf"bad {what} \w+ 'x'",
            "id": rf"{what} id {bad_id} outside \[0, 2\^64\)",
        }[fault]
        with pytest.raises(InvalidRecord) as exc:
            parse(text, tmp_path)
        assert type(exc.value) is InvalidRecord
        assert re.fullmatch(rf"{message} \(byte offset {offset}\)", str(exc.value))
        assert exc.value.offset == offset


def test_only_the_reader_splits_lines():
    # every text format goes through `embeddings.read_rows`; a module that
    # splits lines itself would be a second parser
    package = Path(mg.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert "embeddings.py" in [path.name for path in modules]
    for path in modules:
        if path.name == "embeddings.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            assert not (isinstance(node, ast.Attribute) and node.attr == "splitlines"), \
                (path.name, node.lineno)
