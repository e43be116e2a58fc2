import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wspan import GenSpec, WeightedGraph, generate
import wspan.io
from wspan.emulator import EmulatorResult
from wspan.io import (
    GraphFormatError,
    read_emulator,
    read_graph,
    read_jsonl,
    read_subset,
    write_emulator,
    write_graph,
    write_jsonl,
    write_subset,
)


def test_round_trip_identity(tmp_path):
    g = generate(GenSpec(family="gnp", n=40, p=0.2, wmodel="uniform", seed=6))
    path = tmp_path / "g.txt"
    write_graph(g, path)
    assert read_graph(path) == g


def test_round_trip_decimal_weights(tmp_path):
    g = WeightedGraph(3, [(0, 1, 0.1), (1, 2, 2.5)])
    path = tmp_path / "g.txt"
    write_graph(g, path)
    back = read_graph(path)
    assert back.weight(0, 1) == 0.1
    assert back.weight(1, 2) == 2.5


def test_duplicate_edge_line_reports_location(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 2\n0 1 1.0\n1 0 2.0\n")
    with pytest.raises(GraphFormatError, match=r"bad\.txt:3: duplicate edge"):
        read_graph(path)


def test_first_bad_line_is_reported(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("4 4\n0 1 1.0\n2 3 1.0\n3 2 1.0\n0 x 1.0\n")
    with pytest.raises(GraphFormatError, match=r"bad\.txt:4: duplicate edge \(2, 3\)"):
        read_graph(path)
    path.write_text("4 4\n0 1 1.0\n0 x 1.0\n2 3 1.0\n1 0 1.0\n")
    with pytest.raises(GraphFormatError, match=r"bad\.txt:3: malformed edge line"):
        read_graph(path)
    path.write_text("4 4\n0 1 1.0\n1 0 2.0\n2 3 1.0\n3 2 1.0\n")
    with pytest.raises(GraphFormatError, match=r"bad\.txt:3: duplicate edge \(0, 1\)"):
        read_graph(path)


def read_or_error(read, *args):
    try:
        return [x.tolist() if isinstance(x, np.ndarray) else x for x in read(*args)]
    except GraphFormatError as exc:
        return str(exc)


TOKENS = ["0", "1", "2", "4", "9", "-1", "x", "1.5", "0.5", "2.0", "-2", "0", "nan", "inf", "1e400",
          "9" * 25, "g", "v", "q", ""]


@settings(max_examples=300, deadline=None)
@given(columns=st.sampled_from([3, 4]), n=st.integers(1, 5), data=st.data())
def test_one_pass_read_matches_the_line_by_line_parse(tmp_path_factory, columns, n, data):
    # well-formed files, and files whose first bad line is malformed, out of
    # range, a self-loop, a bad weight or tag, or a repeated pair, blank
    # lines among them: the same arrays, or the same located message
    ids = st.integers(0, n - 1).map(str)
    edge = st.tuples(ids, ids, st.sampled_from(["1.5", "0.5", "2.0", "3"]), st.sampled_from(["g", "v", "q"]))
    good = edge.map(lambda parts: list(parts[:columns]))
    line = st.one_of(good, good, good, st.lists(st.sampled_from(TOKENS), max_size=5))
    body = [" ".join(parts) for parts in data.draw(st.lists(line, max_size=8), label="lines")]
    path = tmp_path_factory.mktemp("io") / "g.txt"
    path.write_text("\n".join([f"{n} {sum(bool(ln.strip()) for ln in body)}", *body]) + "\n")
    want = read_or_error(wspan.io._read_line_by_line, path, path.read_text().splitlines(), n, columns)
    assert read_or_error(wspan.io._read_edge_lines, path, columns) == want


def test_negative_weight_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n0 1 -2.0\n")
    with pytest.raises(GraphFormatError, match="non-positive weight"):
        read_graph(path)


def test_non_finite_weight_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    for w in ("inf", "1e400", "-inf"):
        path.write_text(f"3 2\n0 1 {w}\n1 2 1.0\n")
        with pytest.raises(GraphFormatError, match=r"bad\.txt:2: non-finite weight"):
            read_graph(path)


def test_nan_weight_is_non_finite_not_non_positive(tmp_path):
    path = tmp_path / "bad.txt"
    for w in ("nan", "NaN", "-nan"):
        path.write_text(f"3 2\n0 1 1.0\n1 2 {w}\n")
        with pytest.raises(GraphFormatError, match=rf"bad\.txt:3: non-finite weight '{w}'"):
            read_graph(path)


def test_header_and_count_mismatches(tmp_path):
    p1 = tmp_path / "h1.txt"
    p1.write_text("2\n")
    with pytest.raises(GraphFormatError, match="header"):
        read_graph(p1)
    p2 = tmp_path / "h2.txt"
    p2.write_text("2 2\n0 1 1.0\n")
    with pytest.raises(GraphFormatError, match="promises 2 edges"):
        read_graph(p2)


def test_malformed_tokens_and_range(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2 1\n0 x 1.0\n")
    with pytest.raises(GraphFormatError, match=r"bad\.txt:2"):
        read_graph(p)
    p.write_text("2 1\n0 5 1.0\n")
    with pytest.raises(GraphFormatError, match="out of range"):
        read_graph(p)
    p.write_text("2 1\n1 1 1.0\n")
    with pytest.raises(GraphFormatError, match="self-loop"):
        read_graph(p)


def test_emulator_round_trip(tmp_path):
    em = EmulatorResult(
        n=4,
        a=np.array([0, 1]),
        b=np.array([1, 3]),
        w=np.array([1.5, 2.0]),
        virtual=np.array([False, True]),
        S=(1, 3),
        params={},
    )
    path = tmp_path / "em.txt"
    write_emulator(em, path)
    assert path.read_text() == "4 2\n0 1 1.5 g\n1 3 2.0 v\n"
    back = read_emulator(path)
    assert back.n == 4
    assert back.edges == em.edges == {(0, 1): (1.5, "g"), (1, 3): (2.0, "v")}


def test_emulator_tag_validation(tmp_path):
    p = tmp_path / "em.txt"
    p.write_text("2 1\n0 1 1.0 q\n")
    with pytest.raises(GraphFormatError, match="tag"):
        read_emulator(p)


def test_subset_round_trip_and_errors(tmp_path):
    p = tmp_path / "s.txt"
    write_subset([4, 1, 9], p)
    assert read_subset(p, 10) == [4, 1, 9]
    p.write_text("1\n1\n")
    with pytest.raises(GraphFormatError, match="duplicate"):
        read_subset(p, 10)
    p.write_text("a\n")
    with pytest.raises(GraphFormatError, match="malformed"):
        read_subset(p, 10)


def test_subset_range_and_emptiness_errors_are_located(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("0\n\n8\n9\n")
    assert read_subset(p, 10) == [0, 8, 9]
    with pytest.raises(GraphFormatError, match=r"s\.txt:4: subset vertex 9 out of range for n=9"):
        read_subset(p, 9)
    for text in ("", "\n", "\n  \n"):
        p.write_text(text)
        with pytest.raises(GraphFormatError, match=r"s\.txt: subset must be nonempty"):
            read_subset(p, 9)


def test_jsonl_round_trip(tmp_path):
    rows = [{"a": 1, "b": [1, 2]}, {"a": 2, "b": None}]
    p = tmp_path / "r.jsonl"
    write_jsonl(rows, p)
    assert read_jsonl(p) == rows


def test_jsonl_errors_name_the_file_and_line(tmp_path):
    p = tmp_path / "r.jsonl"
    for text, where in (
        ('{"a": 1, "b": 2}\n\n{"a": \n', r"r\.jsonl:3: invalid JSON: Expecting value at column 7"),
        ('{"a": 1, "b": 2}\n[1, 2]\n', r"r\.jsonl:2: expected a JSON object, got list"),
        ('{"a": 1, "b": 2}\n{"a": 2}\n', r"r\.jsonl:2: record has no 'b'"),
        ('{"a": 1, "b": "x"}\n', r"r\.jsonl:1: record's 'b' must be int, got 'x'"),
        ('{"a": 1, "b": 2}\n{"a": false, "b": 2}\n', r"r\.jsonl:2: record's 'a' must be int, got False"),
    ):
        p.write_text(text)
        with pytest.raises(GraphFormatError, match=where):
            read_jsonl(p, keys={"a": int, "b": int})
