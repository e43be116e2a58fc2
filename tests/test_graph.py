import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wspan import GenSpec, WeightedGraph, build_4w_emulator, build_index, generate
from wspan import graph
from wspan.algos import ALGOS

from conftest import edge_weights_reference, mixed_graphs, small_graphs


# values that fail one check each, by the check
FAULTS = {
    "id": st.sampled_from([0.5, 1.0, "1", None, np.float64(2.0)]),
    "range": st.sampled_from([-1, -5, 99, 2**70]),
    "weight": st.sampled_from([0.0, -0.0, -1.0, math.inf, -math.inf, math.nan]),
    "convert": st.sampled_from(["x", None, 1j]),
}


@st.composite
def faulty_edges(draw):
    """(n, edges): distinct valid triples with 0-3 faults of any kind put in
    anywhere: bad ids, self-loops, repeated pairs in either orientation, bad
    weights.  Some valid entries are numpy scalars or weight strings."""
    n = draw(st.integers(1, 7))
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), 2)) or [(0, 0)]), unique=True))
    edges = [[u, v, draw(st.integers(1, 5).map(float))] for u, v in pairs if u != v]
    for e in edges:
        e[0] = draw(st.sampled_from([e[0], np.int64(e[0]), np.int32(e[0])]))
        e[2] = draw(st.sampled_from([e[2], str(e[2]), np.float32(e[2])]))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["id", "range", "loop", "repeat", "weight", "convert"]))
        at = draw(st.integers(0, len(edges)))
        x = draw(st.integers(0, max(n - 1, 0)))
        if kind in ("id", "range"):
            e = [x, (x + 1) % n, 1.0]
            e[draw(st.integers(0, 1))] = draw(FAULTS[kind])
        elif kind == "loop":
            e = [x, x, 1.0]
        elif kind == "repeat" and edges:
            u, v, _ = edges[draw(st.integers(0, len(edges) - 1))]
            e = [v, u, 2.0] if draw(st.booleans()) else [u, v, 2.0]
            at = draw(st.integers(0, len(edges)))
        elif kind in ("weight", "convert"):
            e = [x, (x + 1) % n, draw(FAULTS[kind])]
        else:
            continue
        edges.insert(at, e)
    return n, [tuple(e) for e in edges]


def outcome(build):
    """The graph's sorted (u, v, w) triples, or the type and message it raised."""
    try:
        return sorted(build())
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


def columns(edges):
    """The edges as (u, v, w) columns: numpy arrays where numpy keeps every
    value as it is (integer ids, numeric weights), else lists, whose entries
    the messages show as given."""

    def array(col, kinds):
        try:
            arr = np.asarray(col)
        except (ValueError, TypeError, OverflowError):
            return None
        return arr if arr.ndim == 1 and arr.dtype.kind in kinds else None

    u, v, w = list(map(list, zip(*edges))) or [[], [], []]
    ids = array(u, "iu"), array(v, "iu")
    if all(x is not None for x in ids):
        u, v = ids
    weights = array(w, "iuf")
    return u, v, w if weights is None else weights


@settings(max_examples=300, deadline=None)
@given(faulty_edges())
@example((3, [(0, 1, 1.0), (1, 2, 0.0), (2, 2, 1.0)]))
@example((3, [(0, 1, 1.0), (2, 2, 0.0), (1, 0, 1.0)]))
@example((3, [(2, 1, "x"), (1, 2, 1.0)]))
@example((3, [(0, 1, 1.0), (1, 0, "x")]))
@example((3, [(0, 1, 1.0), (0, 3, 1.0), (0.5, 2, 1.0)]))
@example((3, [(0, 1, 1.0), (2, 0.5, 1.0), (0, 9, 1.0)]))
def test_validation_matches_the_per_edge_loop(case):
    n, edges = case
    expected = outcome(lambda: [(u, v, w) for (u, v), w in edge_weights_reference(n, edges).items()])
    assert outcome(lambda: WeightedGraph(n, edges).edge_items()) == expected
    assert outcome(lambda: WeightedGraph(n, iter(edges)).edge_items()) == expected
    assert outcome(lambda: WeightedGraph._from_arrays(n, *columns(edges)).edge_items()) == expected


@settings(max_examples=50, deadline=None)
@given(mixed_graphs(), st.data())
def test_lookups_and_equality_read_the_arrays(g, data):
    items = {(a, b): w for a, b, w in g.edge_items()}
    for u, v in itertools.product(range(-1, g.n + 1), repeat=2):
        key = (min(u, v), max(u, v))
        assert g.has_edge(u, v) == (key in items)
        if key in items:
            assert g.weight(u, v) == items[key] and type(g.weight(u, v)) is float
        else:
            with pytest.raises(KeyError):
                g.weight(u, v)
    assert not g.has_edge(0.5, 1) and not g.has_edge(0, 2**70)
    items = g.edge_items()
    assert g == WeightedGraph(g.n, items[::-1]) and g != WeightedGraph(g.n + 1, items)
    if items:
        i = data.draw(st.integers(0, len(items) - 1))
        u, v, w = items[i]
        assert g != WeightedGraph(g.n, items[:i] + [(u, v, w + 1.0)] + items[i + 1 :])
        assert g != WeightedGraph(g.n, items[:i] + items[i + 1 :])


@settings(max_examples=50, deadline=None)
@given(small_graphs(), st.data())
def test_edge_ids_round_trip(g, data):
    a, b, _ = g.edge_arrays()
    every = np.arange(g.m)
    assert np.array_equal(g.edge_ids(a, b), every)
    assert np.array_equal(g.edge_ids(b, a), every)
    # any edges, in any order, as Python ints with either endpoint first
    ids = data.draw(st.lists(st.integers(0, g.m - 1), max_size=2 * g.m) if g.m else st.just([]))
    flip = data.draw(st.lists(st.booleans(), min_size=len(ids), max_size=len(ids)))
    items = g.edge_items()
    ends = [items[i][1::-1] if f else items[i][:2] for i, f in zip(ids, flip)]
    got = g.edge_ids([u for u, _ in ends], [v for _, v in ends])
    assert got.tolist() == ids
    # pairs that are no edge get -1, out of range ones too: (u, n + v) has the code of (u + 1, v)
    pairs = [(u, v) for u in range(-1, g.n + 1) for v in range(-1, 2 * g.n + 1) if not g.has_edge(u, v)]
    assert g.edge_ids(*zip(*pairs)).tolist() == [-1] * len(pairs)


def edge_ids_uncached(g: WeightedGraph, u, v) -> np.ndarray:
    """edge_ids as it was before the codes were cached: all m codes a*n + b
    formed on every call."""
    a, b, _ = g.edge_arrays()
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    codes = lo * g.n + hi
    order = np.argsort(codes)
    ids = np.empty(len(codes), dtype=np.intp)
    ids[order] = np.searchsorted(a * g.n + b, codes[order])
    found = ids < len(a)
    found[found] = (a[ids[found]] == lo[found]) & (b[ids[found]] == hi[found])
    return np.where(found, ids, -1)


@settings(max_examples=80, deadline=None)
@given(mixed_graphs(), st.data())
def test_edge_ids_match_the_uncached_search(g, data):
    ends = st.integers(-2, 2 * g.n + 1)
    for _ in range(3):
        pairs = data.draw(st.lists(st.tuples(ends, ends), max_size=12))
        u, v = [p[0] for p in pairs], [p[1] for p in pairs]
        got = g.edge_ids(u, v)
        assert got.tolist() == edge_ids_uncached(g, u, v).tolist()
        assert all((i >= 0) == g.has_edge(x, y) for i, x, y in zip(got.tolist(), u, v))
    # the codes are formed once per graph and kept read-only
    codes = g._codes
    assert codes is not None and not codes.flags.writeable
    g.edge_ids([0], [0])
    assert g._codes is codes


@settings(max_examples=50, deadline=None)
@given(small_graphs(), st.data())
def test_subgraph_is_cut_from_the_edge_arrays(g, data):
    items = g.edge_items()
    chosen = data.draw(st.lists(st.sampled_from(items), unique=True) if items else st.just([]))
    keys = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v, _ in chosen]
    h, fresh = g.subgraph(keys), WeightedGraph(g.n, chosen)
    assert h == fresh and h.edge_keys() == fresh.edge_keys()
    for x, y in zip(h.edge_arrays(), fresh.edge_arrays()):
        assert x.dtype == y.dtype and np.array_equal(x, y) and not x.flags.writeable
    assert np.array_equal(h.csr().toarray(), fresh.csr().toarray())
    # a pair that is no edge of g raises KeyError, an edge given twice ValueError
    missing = [p for p in itertools.combinations(range(g.n), 2) if not g.has_edge(*p)]
    absent = data.draw(st.sampled_from(missing + [(0, 0), (0, g.n), (-1, 1)]))
    with pytest.raises(KeyError):
        g.subgraph(keys + [absent])
    if keys:
        u, v = keys[data.draw(st.integers(0, len(keys) - 1))]
        with pytest.raises(ValueError, match="parallel edge"):
            g.subgraph(keys + [data.draw(st.sampled_from([(u, v), (v, u)]))])


def test_subgraph_raises_for_the_first_bad_key():
    g = WeightedGraph(4, [(0, 1, 1.5), (1, 2, 2.5), (0, 2, 9.0)])
    with pytest.raises(ValueError, match=r"parallel edge \(0, 1\)"):
        g.subgraph([(0, 1), (1, 0), (2, 3)])
    with pytest.raises(KeyError, match=r"\(2, 3\)"):
        g.subgraph([(3, 2), (0, 1), (1, 0)])
    # numpy ids are vertex ids; ids that are no integers are no edge keys
    assert g.subgraph(np.array([[2, 1]])) == WeightedGraph(4, [(1, 2, 2.5)])
    with pytest.raises(KeyError):
        g.subgraph([(0, 1), ("1", "2")])
    with pytest.raises(KeyError):
        g.subgraph([(0.5, 1)])
    assert g.subgraph([]) == WeightedGraph(4, []) == WeightedGraph(4, []).subgraph(set())


def test_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        WeightedGraph(3, [(1, 1, 2.0)])


def test_rejects_parallel_edge():
    with pytest.raises(ValueError, match="parallel"):
        WeightedGraph(3, [(0, 1, 1.0), (1, 0, 2.0)])


def test_rejects_nonpositive_weight():
    with pytest.raises(ValueError, match="non-positive"):
        WeightedGraph(2, [(0, 1, 0.0)])
    with pytest.raises(ValueError, match="non-positive"):
        WeightedGraph(2, [(0, 1, -3.0)])


def test_rejects_non_finite_weight():
    for w in (float("inf"), 1e308 * 10, float("nan")):
        with pytest.raises(ValueError, match="non-finite"):
            WeightedGraph(3, [(0, 1, w), (1, 2, 1.0)])


def test_rejects_out_of_range_vertex():
    with pytest.raises(ValueError, match="out of range"):
        WeightedGraph(2, [(0, 2, 1.0)])


def test_rejects_non_integer_vertex_id():
    # a float id used to be accepted and truncated to 0 by the distance code
    with pytest.raises(ValueError, match=r"integers in edge \(0.5, 2\)"):
        WeightedGraph(3, [(0.5, 2, 1.0), (1, 2, 1.0)])
    with pytest.raises(ValueError, match="integers"):
        WeightedGraph(3, [("0", 2, 1.0)])


def test_rejects_non_integer_vertex_count():
    # a float n used to be accepted, and the distance code then failed inside scipy
    with pytest.raises(ValueError, match="vertex count must be an integer, got 2.5"):
        WeightedGraph(2.5, [(0, 1, 1.0)])
    with pytest.raises(ValueError, match="vertex count must be an integer"):
        WeightedGraph("3", [])
    with pytest.raises(ValueError, match="vertex count must be nonnegative, got -1"):
        WeightedGraph(-1, [])
    with pytest.raises(ValueError, match="vertex count must be an integer, got 2.5"):
        generate(GenSpec(family="path", n=2.5))
    g = WeightedGraph(np.int64(3), [(0, 1, 1.0)])
    assert type(g.n) is int and g.n == 3


def test_numpy_ids_are_stored_as_python_ints():
    g = WeightedGraph(3, [(np.int64(2), np.int32(0), np.float32(1.5))])
    assert g.edge_items() == [(0, 2, 1.5)]
    assert all(type(x) is int for x in g.edge_items()[0][:2])
    assert type(g.edge_items()[0][2]) is float
    assert g.edge_keys() == {(0, 2)} and all(type(x) is int for x in next(iter(g.edge_keys())))


def test_adjacency_and_degree():
    g = WeightedGraph(4, [(0, 2, 2.0), (2, 3, 1.0), (0, 1, 1.0)])
    csr = g.csr()
    row = slice(csr.indptr[0], csr.indptr[1])
    assert csr.indices[row].tolist() == [1, 2] and csr.data[row].tolist() == [1.0, 2.0]
    assert np.diff(csr.indptr).tolist() == [2, 1, 2, 1]
    assert g.weight(3, 2) == 1.0
    assert g.has_edge(1, 0) and not g.has_edge(1, 2)


def test_subgraph_keeps_weights():
    g = WeightedGraph(3, [(0, 1, 1.5), (1, 2, 2.5), (0, 2, 9.0)])
    h = g.subgraph({(0, 1), (2, 1)})
    assert h.m == 2
    assert h.weight(1, 2) == 2.5
    assert not h.has_edge(0, 2)



@settings(max_examples=40, deadline=None)
@given(small_graphs(max_n=9))
def test_edge_arrays_and_csr_are_one_cached_layout(g):
    a, b, w = g.edge_arrays()
    assert (a.dtype, b.dtype, w.dtype) == (np.int64, np.int64, np.float64)
    assert list(zip(a.tolist(), b.tolist(), w.tolist())) == sorted(g.edge_items())
    assert all(u < v for u, v in zip(a.tolist(), b.tolist()))
    for x in (a, b, w):
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[:1] = 0
    csr = g.csr()
    assert csr is g.csr() and g.edge_arrays()[0] is a
    codes = g.csr_codes()
    assert codes is g.csr_codes() and not codes.flags.writeable
    rows = np.repeat(np.arange(g.n), np.diff(csr.indptr))
    assert codes.tolist() == (rows * g.n + csr.indices).tolist() == sorted(codes.tolist())
    dense = csr.toarray()
    assert np.array_equal(dense, dense.T)
    assert csr.nnz == 2 * g.m and csr.has_sorted_indices
    for u, v, wt in g.edge_items():
        assert dense[u, v] == wt


def test_two_certifications_build_h_layout_once(monkeypatch):
    g = generate(GenSpec(family="gnp", n=60, p=0.15, wmodel="uniform", seed=3))
    idx = build_index(g)
    em = build_4w_emulator(g, seed=1, idx=idx)
    h = em.to_graph()
    csr_builds, item_calls = [], []
    real_csr, real_items = graph.graph_csr, graph.WeightedGraph.edge_items
    monkeypatch.setattr(graph, "graph_csr", lambda *a: csr_builds.append(a[0]) or real_csr(*a))
    monkeypatch.setattr(
        graph.WeightedGraph, "edge_items", lambda self: item_calls.append(1) or real_items(self)
    )
    certify = ALGOS["emulator4w"].certify
    first = [r.to_dict() for r in certify(g, h, {}, idx, None)]
    arrays = h.edge_arrays()
    second = [r.to_dict() for r in certify(g, h, {}, idx, None)]
    assert first == second and all(r["passed"] for r in first)
    assert csr_builds == [h.n] and item_calls == []
    assert h.edge_arrays() is arrays
