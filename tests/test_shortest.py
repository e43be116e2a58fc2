import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wspan.fast2w
import wspan.shortest as shortest
from wspan import (
    GenSpec,
    WeightedGraph,
    build_fast_2w,
    build_index,
    generate,
    sample_levels,
    sssp_canonical,
)
from wspan.shortest import (
    ShortestPathIndex,
    canonical_rows,
    canonical_tree_from_dist,
    distance_matrix,
    path_vertices,
)

from conftest import (
    brute_force_apsp,
    canonical_paths,
    mixed_graphs,
    neighbor_lists,
    oracle_canonical_path,
    small_graphs,
    tied_source,
)


def test_path_graph_sssp():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    dist, parent = sssp_canonical(g, 0)
    assert dist.tolist() == [0.0, 1.0, 2.0]
    assert parent.tolist() == [-1, 0, 1]


def test_four_cycle_tie_prefers_low_id_neighbor():
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
    dist, parent = sssp_canonical(g, 0)
    assert dist[2] == 2.0
    # oracle: enumerate both shortest paths, apply the tie-break rule
    assert oracle_canonical_path(g, 0, 2) == (0, 1, 2)
    assert parent[2] == 1


def test_disconnected_vertex_gets_inf():
    g = WeightedGraph(3, [(0, 1, 1.0)])
    dist, parent = sssp_canonical(g, 0)
    assert math.isinf(dist[2])
    assert parent[2] == -1


def test_sssp_source_out_of_range():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        sssp_canonical(g, 5)


def test_index_triangle_route_around_heavy_edge():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)])
    assert brute_force_apsp(g)[0, 2] == 2.0
    idx = build_index(g)
    assert idx.dist[0][2] == 2.0
    assert idx.W[0][2] == 1.0
    assert path_vertices(g, 0, 2) == [0, 1, 2]


def test_index_single_edge():
    g = WeightedGraph(2, [(0, 1, 3.0)])
    idx = build_index(g)
    assert idx.dist[0][1] == 3.0
    assert idx.W[0][1] == 3.0


def test_index_star_heaviest_of_two_legs():
    g = WeightedGraph(5, [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0), (0, 4, 4.0)])
    idx = build_index(g)
    for i in range(1, 5):
        for j in range(i + 1, 5):
            assert idx.W[i][j] == max(float(i), float(j))
            assert idx.dist[i][j] == float(i + j)


def test_canonical_path_identity():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    idx = build_index(g)
    assert path_vertices(g, 1, 1) == [1]
    assert idx.dist[1][1] == 0.0
    assert idx.W[1][1] == 0.0


def test_canonical_path_whole_path_graph():
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0)])
    idx = build_index(g)
    assert path_vertices(g, 0, 3) == [0, 1, 2, 3]
    assert idx.dist[0][3] == 4.0
    assert idx.W[0][3] == 2.0


def test_canonical_path_disconnected_errors():
    g = WeightedGraph(3, [(0, 1, 1.0)])
    with pytest.raises(ValueError, match="no path"):
        path_vertices(g, 0, 2)


def test_canonical_path_endpoints_out_of_range_error():
    # v = -1 used to index the last vertex and return the path [0, 1, -1]
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    for u, v in ((0, -1), (0, 3), (-1, 0), (5, 5)):
        with pytest.raises(ValueError, match="out of range for n=3"):
            path_vertices(g, u, v)


def test_grid_corner_path_matches_oracle_and_is_stable():
    g = generate(GenSpec(family="grid", n=9, rows=3, cols=3, wmodel="unit", seed=0))
    expected = oracle_canonical_path(g, 0, 8)
    first = path_vertices(g, 0, 8)
    assert tuple(first) == expected
    for _ in range(3):
        assert path_vertices(g, 0, 8) == first
    # the staircase is monotone: row and column indices never decrease
    rows = [v // 3 for v in first]
    cols = [v % 3 for v in first]
    assert rows == sorted(rows) and cols == sorted(cols)


@settings(max_examples=60, deadline=None)
@given(small_graphs(max_n=9))
def test_distances_match_brute_force(g):
    idx = build_index(g)
    bf = brute_force_apsp(g)
    assert np.array_equal(idx.dist, bf)  # integer weights: exact


@settings(max_examples=40, deadline=None)
@given(small_graphs(max_n=8, integer_weights=False))
def test_distances_match_brute_force_floats(g):
    idx = build_index(g)
    bf = brute_force_apsp(g)
    both = np.isfinite(bf)
    assert np.isfinite(idx.dist).tolist() == both.tolist()
    assert np.allclose(idx.dist[both], bf[both], rtol=1e-9)


@settings(max_examples=60, deadline=None)
@given(small_graphs(max_n=9))
def test_index_structural_invariants(g):
    idx = build_index(g)
    path = canonical_paths(g)
    n = g.n
    assert np.array_equal(idx.dist, idx.dist.T)
    assert all(idx.dist[i][i] == 0.0 for i in range(n))
    assert np.array_equal(idx.W, idx.W.T)
    for u in range(n):
        for v in range(u + 1, n):
            if not math.isfinite(idx.dist[u][v]):
                continue
            h = len(path(u, v)) - 1
            assert h >= 1
            assert idx.W[u][v] >= idx.dist[u][v] / h
            assert idx.W[u][v] <= idx.dist[u][v]


@settings(max_examples=60, deadline=None)
@given(small_graphs(max_n=9))
def test_canonical_paths_reverse_and_subpath(g):
    idx = build_index(g)
    path = canonical_paths(g)
    n = g.n
    for u in range(n):
        for v in range(u + 1, n):
            if not math.isfinite(idx.dist[u][v]):
                continue
            fwd = path(u, v)
            bwd = path(v, u)
            assert fwd == list(reversed(bwd))
            assert path_vertices(g, u, v) == fwd
            # every contiguous subsequence is itself canonical
            for i in range(len(fwd)):
                for j in range(i + 1, len(fwd)):
                    a, b = fwd[i], fwd[j]
                    assert path(a, b) == fwd[i : j + 1]
                    assert idx.dist[u][v] == pytest.approx(
                        idx.dist[u][a] + idx.dist[a][v], rel=1e-12
                    )


@settings(max_examples=50, deadline=None)
@given(small_graphs(max_n=9))
def test_canonical_path_pairs_intersect_contiguously(g):
    idx = build_index(g)
    path = canonical_paths(g)
    n = g.n
    paths = []
    for u in range(n):
        for v in range(u + 1, n):
            if math.isfinite(idx.dist[u][v]):
                paths.append(path(u, v))
    for p in paths[:12]:
        for q in paths[:12]:
            shared = set(p) & set(q)
            if not shared:
                continue
            pos = sorted(p.index(x) for x in shared)
            assert pos == list(range(pos[0], pos[-1] + 1)), (p, q)


def test_index_agrees_with_per_source_sssp(medium_gnp):
    idx = build_index(medium_gnp)
    _, _, ref = per_source_reference(medium_gnp)
    for s in (0, 17, 42):
        dist, parent = sssp_canonical(medium_gnp, s)
        assert np.array_equal(dist, idx.dist[s])
        assert np.array_equal(parent, ref[s])


def test_index_agrees_with_per_source_sssp_on_ties(medium_grid):
    idx = build_index(medium_grid)
    _, _, ref = per_source_reference(medium_grid)
    for s in (0, 24, 48):
        dist, parent = sssp_canonical(medium_grid, s)
        assert np.array_equal(dist, idx.dist[s])
        assert np.array_equal(parent, ref[s])


def per_source_reference(g):
    """(dist, W, parent) from canonical_tree_from_dist on every source."""
    n = g.n
    dist = distance_matrix(g.csr())
    W = np.full((n, n), math.inf)
    parent = np.full((n, n), -1, dtype=np.int32)
    adj = neighbor_lists(g)
    for s in range(n):
        p, heavy = canonical_tree_from_dist(adj, s, dist[s].tolist())
        parent[s] = p
        reach = np.isfinite(dist[s])
        W[s, reach] = np.array(heavy)[reach]
        W[s, s] = 0.0
    return dist, W, parent


@pytest.mark.parametrize("rows", [1, 2, 3])
@settings(max_examples=60, deadline=None)
@given(g=st.one_of(st.just(WeightedGraph(0, [])), mixed_graphs()), data=st.data())
def test_blocked_kernel_matches_per_source_rule(rows, g, data):
    dist, W, parent = per_source_reference(g)
    roots = []
    if g.n:
        roots = data.draw(st.lists(st.integers(min_value=0, max_value=g.n - 1), min_size=1, max_size=6))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shortest, "_block_rows", lambda n, m: rows)
        idx = build_index(g)
        every = canonical_rows(g, parents=True)
        sub = canonical_rows(g, roots)
        sub_parents = canonical_rows(g, roots, parents=True)
        single = [sssp_canonical(g, s) for s in range(g.n)]
    assert np.array_equal(idx.dist, dist)
    assert np.array_equal(idx.W, W)
    assert np.array_equal(every[0], dist)
    assert every[1].dtype == np.int32 and np.array_equal(every[1], parent)
    assert np.array_equal(sub[0], dist[roots]) and np.array_equal(sub[1], W[roots])
    assert np.array_equal(sub_parents[0], dist[roots])
    assert np.array_equal(sub_parents[1], parent[roots])
    # and at the block size _block_rows picks
    assert all(np.array_equal(x, y) for x, y in zip(canonical_rows(g, roots), sub))
    assert all(
        np.array_equal(x, y) for x, y in zip(canonical_rows(g, roots, parents=True), sub_parents)
    )
    for s, (d, p) in enumerate(single):
        assert np.array_equal(d, dist[s]) and p.dtype == np.int32 and np.array_equal(p, parent[s])


def counting_tie_rule(monkeypatch):
    calls = []
    orig = shortest.canonical_tree_from_dist

    def counted(adj, s, dist):
        calls.append(s)
        return orig(adj, s, dist)

    monkeypatch.setattr(shortest, "canonical_tree_from_dist", counted)
    return calls


def test_tie_rule_runs_once_per_tied_source(monkeypatch):
    # a unit 4-cycle (every source ties) beside a path (no source ties)
    g = WeightedGraph(
        7, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0), (4, 5, 2.0), (5, 6, 3.0)]
    )
    grid = generate(GenSpec(family="grid", n=36, rows=6, cols=6, wmodel="unit"))
    grid_tied = [s for s in range(grid.n) if tied_source(grid, s)]
    calls = counting_tie_rule(monkeypatch)
    for rows in (1, 3, 7):
        monkeypatch.setattr(shortest, "_block_rows", lambda n, m: rows)
        calls.clear()
        build_index(g)
        assert sorted(calls) == [0, 1, 2, 3]
        calls.clear()
        build_index(grid)
        assert sorted(calls) == grid_tied


def test_fast2w_runs_no_tie_rule_on_tied_roots(monkeypatch):
    g = generate(GenSpec(family="gnp", n=40, p=0.15, wmodel="unit", seed=2))
    ls = sample_levels(g, 4.0, seed=3)
    tied_roots = sum(
        tied_source(g.subgraph(ls.E[i] | ls.estar[i]), r)
        for i in range(1, ls.k + 1)
        for r in ls.D[i]
    )
    assert tied_roots > 0
    # fast2w binds no name of the shortest module, so the calls below are all it could make
    assert all(getattr(x, "__module__", None) != shortest.__name__ for x in vars(wspan.fast2w).values())
    calls = counting_tie_rule(monkeypatch)
    kernel = []
    real = shortest.canonical_rows
    monkeypatch.setattr(
        shortest, "canonical_rows", lambda *args, **kw: kernel.append(args) or real(*args, **kw)
    )
    build_fast_2w(g, 4.0, seed=3)
    assert kernel == [] and calls == []


def test_tie_rule_never_runs_without_ties(monkeypatch):
    g = generate(GenSpec(family="gnp", n=60, p=0.12, wmodel="uniform", seed=5))
    calls = counting_tie_rule(monkeypatch)
    build_index(g)
    build_fast_2w(g, 4.0, seed=1)
    sssp_canonical(g, 0)
    assert calls == []


def test_absorbed_edge_weight_is_a_value_error():
    # from 0, 1e16 + 1 == 1e16: vertex 1 sits at the distance of its only predecessor 2
    g = WeightedGraph(3, [(0, 2, 1e16), (1, 2, 1.0)])
    with pytest.raises(ValueError, match="source 0: vertex 1 .* absorbed an edge weight"):
        build_index(g)


def test_index_temporaries_stay_within_block_budget():
    assert ShortestPathIndex.__slots__ == ("n", "dist", "W")
    # at n = 800 an n x n int32 parent array alone (2.4 MiB) would break the bound
    for n, radius in ((400, 0.12), (800, 0.085)):
        g = generate(GenSpec(family="geometric", n=n, radius=radius, seed=3, keep_lcc=True))
        assert g.n > 0.75 * n and g.m > 5 * n
        build_index(g)  # warm up lazy imports and caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            idx = build_index(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = idx.dist.nbytes + idx.W.nbytes
        # slack: the edge list, scipy's CSR copies and the directed edge arrays
        assert peak - base - returned < shortest._BLOCK_BYTES + (1 << 20)
