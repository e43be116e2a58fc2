import math

import numpy as np
import pytest
from hypothesis import given, settings

from wspan import GenSpec, WeightedGraph, build_index, generate, sssp_canonical
from wspan.shortest import path_vertices

from conftest import (
    brute_force_apsp,
    oracle_canonical_path,
    small_graphs,
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
    assert path_vertices(idx, 0, 2) == [0, 1, 2]


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
    assert path_vertices(idx, 1, 1) == [1]
    assert idx.dist[1][1] == 0.0
    assert idx.W[1][1] == 0.0


def test_canonical_path_whole_path_graph():
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0)])
    idx = build_index(g)
    assert path_vertices(idx, 0, 3) == [0, 1, 2, 3]
    assert idx.dist[0][3] == 4.0
    assert idx.W[0][3] == 2.0


def test_canonical_path_disconnected_errors():
    g = WeightedGraph(3, [(0, 1, 1.0)])
    idx = build_index(g)
    with pytest.raises(ValueError, match="no path"):
        path_vertices(idx, 0, 2)


def test_grid_corner_path_matches_oracle_and_is_stable():
    g = generate(GenSpec(family="grid", n=9, rows=3, cols=3, wmodel="unit", seed=0))
    idx = build_index(g)
    expected = oracle_canonical_path(g, 0, 8)
    first = path_vertices(idx, 0, 8)
    assert tuple(first) == expected
    for _ in range(3):
        assert path_vertices(idx, 0, 8) == first
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
    n = g.n
    assert np.array_equal(idx.dist, idx.dist.T)
    assert all(idx.dist[i][i] == 0.0 for i in range(n))
    assert np.array_equal(idx.W, idx.W.T)
    for u in range(n):
        for v in range(u + 1, n):
            if not math.isfinite(idx.dist[u][v]):
                continue
            h = len(path_vertices(idx, u, v)) - 1
            assert h >= 1
            assert idx.W[u][v] >= idx.dist[u][v] / h
            assert idx.W[u][v] <= idx.dist[u][v]


@settings(max_examples=60, deadline=None)
@given(small_graphs(max_n=9))
def test_canonical_paths_reverse_and_subpath(g):
    idx = build_index(g)
    n = g.n
    for u in range(n):
        for v in range(u + 1, n):
            if not math.isfinite(idx.dist[u][v]):
                continue
            fwd = path_vertices(idx, u, v)
            bwd = path_vertices(idx, v, u)
            assert fwd == list(reversed(bwd))
            # every contiguous subsequence is itself canonical
            for i in range(len(fwd)):
                for j in range(i + 1, len(fwd)):
                    a, b = fwd[i], fwd[j]
                    assert path_vertices(idx, a, b) == fwd[i : j + 1]
                    assert idx.dist[u][v] == pytest.approx(
                        idx.dist[u][a] + idx.dist[a][v], rel=1e-12
                    )


@settings(max_examples=50, deadline=None)
@given(small_graphs(max_n=9))
def test_canonical_path_pairs_intersect_contiguously(g):
    idx = build_index(g)
    n = g.n
    paths = []
    for u in range(n):
        for v in range(u + 1, n):
            if math.isfinite(idx.dist[u][v]):
                paths.append(path_vertices(idx, u, v))
    for p in paths[:12]:
        for q in paths[:12]:
            shared = set(p) & set(q)
            if not shared:
                continue
            pos = sorted(p.index(x) for x in shared)
            assert pos == list(range(pos[0], pos[-1] + 1)), (p, q)


def test_index_agrees_with_per_source_sssp(medium_gnp):
    idx = build_index(medium_gnp)
    for s in (0, 17, 42):
        dist, parent = sssp_canonical(medium_gnp, s)
        assert np.array_equal(dist, idx.dist[s])
        assert np.array_equal(parent, idx.parent[s])


def test_index_agrees_with_per_source_sssp_on_ties(medium_grid):
    idx = build_index(medium_grid)
    for s in (0, 24, 48):
        dist, parent = sssp_canonical(medium_grid, s)
        assert np.array_equal(dist, idx.dist[s])
        assert np.array_equal(parent, idx.parent[s])
