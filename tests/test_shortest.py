import contextlib
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wspan.fast2w
import wspan.graph
import wspan.greedy
import wspan.shortest as shortest
import wspan.verify
from wspan import (
    GenSpec,
    WeightedGraph,
    build_4w_emulator,
    build_6eps_spanner,
    build_fast_2w,
    build_index,
    build_poly_spanner,
    build_subsetwise_spanner,
    generate,
    sample_levels,
    verify_additive_W,
    verify_multiplicative,
    verify_non_contracting,
)
from wspan.graph import graph_csr
from wspan.shortest import (
    canonical_tree_from_dist,
    distance_matrix,
    covered_rows,
    open_columns,
    path_vertices,
)

from conftest import (
    brute_force_apsp,
    canonical_paths,
    canonical_rows,
    clustered_graphs,
    covered_rows_reference,
    mask_keys,
    mixed_graphs,
    neighbor_lists,
    open_columns_reference,
    oracle_canonical_path,
    shared_rows,
    small_graphs,
    sparse_800,
    sssp_canonical,
    tied_source,
    tight_reference,
    tree_rows_reference,
    unindexed,
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
    with pytest.raises(ValueError):  # from distance_matrix
        sssp_canonical(g, 5)


def test_index_triangle_route_around_heavy_edge():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)])
    assert brute_force_apsp(g)[0, 2] == 2.0
    dist, W = canonical_rows(g)
    assert dist[0][2] == 2.0
    assert W[0][2] == 1.0
    assert path_vertices(g, 0, 2) == [0, 1, 2]


def test_index_single_edge():
    g = WeightedGraph(2, [(0, 1, 3.0)])
    dist, W = canonical_rows(g)
    assert dist[0][1] == 3.0
    assert W[0][1] == 3.0


def test_index_star_heaviest_of_two_legs():
    g = WeightedGraph(5, [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0), (0, 4, 4.0)])
    dist, W = canonical_rows(g)
    for i in range(1, 5):
        for j in range(i + 1, 5):
            assert W[i][j] == max(float(i), float(j))
            assert dist[i][j] == float(i + j)


def test_canonical_path_identity():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    dist, W = canonical_rows(g)
    assert path_vertices(g, 1, 1) == [1]
    assert dist[1][1] == 0.0
    assert W[1][1] == 0.0


def test_canonical_path_whole_path_graph():
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0)])
    dist, W = canonical_rows(g)
    assert path_vertices(g, 0, 3) == [0, 1, 2, 3]
    assert dist[0][3] == 4.0
    assert W[0][3] == 2.0


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
    assert np.array_equal(idx, bf)  # integer weights: exact


@settings(max_examples=40, deadline=None)
@given(small_graphs(max_n=8, integer_weights=False))
def test_distances_match_brute_force_floats(g):
    idx = build_index(g)
    bf = brute_force_apsp(g)
    both = np.isfinite(bf)
    assert np.isfinite(idx).tolist() == both.tolist()
    assert np.allclose(idx[both], bf[both], rtol=1e-9)


@settings(max_examples=60, deadline=None)
@given(mixed_graphs())
@example(WeightedGraph(0, []))
@example(WeightedGraph(1, []))
def test_index_is_the_read_only_distance_matrix(g):
    idx = build_index(g)
    assert np.array_equal(idx, distance_matrix(g.csr()))
    assert idx.nbytes == 8 * g.n**2
    with pytest.raises(ValueError, match="read-only"):
        idx[...] = 0.0


# every builder and verifier that takes an index, called so that it reads it
INDEX_READERS = {
    "6w": lambda g, idx: build_6eps_spanner(g, 1.0, idx=idx),
    "subsetwise": lambda g, idx: build_subsetwise_spanner(g, [0, 2], 1.0, idx=idx),
    "poly": lambda g, idx: build_poly_spanner(g, 0.5, idx=idx),
    "emulator4w": lambda g, idx: build_4w_emulator(g, 1, idx=idx),
    "additive": lambda g, idx: verify_additive_W(g, g, 2.0, idx=idx),
    "additive-subset": lambda g, idx: verify_additive_W(g, g, 2.0, pair_class=[0, 2], idx=idx),
    # an empty candidate fails every edge, so G's rows are read
    "multiplicative": lambda g, idx: verify_multiplicative(g, WeightedGraph(3, []), 3.0, idx=idx),
    "non-contracting": lambda g, idx: verify_non_contracting(g, g, idx=idx),
}


@pytest.mark.parametrize("other", [2, 5])
@pytest.mark.parametrize("reader", sorted(INDEX_READERS))
def test_index_of_another_graph_is_rejected(reader, other):
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 4.0)])
    idx = build_index(WeightedGraph(other, [(u, u + 1, 1.0) for u in range(other - 1)]))
    with pytest.raises(ValueError, match=rf"\({other}, {other}\) given for a graph of shape \(3, 3\)"):
        INDEX_READERS[reader](g, idx)
    INDEX_READERS[reader](g, build_index(g))  # g's own index is read


@settings(max_examples=60, deadline=None)
@given(small_graphs(max_n=9))
def test_index_structural_invariants(g):
    idx = build_index(g)
    W = canonical_rows(g)[1]
    path = canonical_paths(g)
    n = g.n
    assert np.array_equal(idx, idx.T)
    assert all(idx[i][i] == 0.0 for i in range(n))
    assert np.array_equal(W, W.T)
    for u in range(n):
        for v in range(u + 1, n):
            if not math.isfinite(idx[u][v]):
                continue
            h = len(path(u, v)) - 1
            assert h >= 1
            assert W[u][v] >= idx[u][v] / h
            assert W[u][v] <= idx[u][v]


@settings(max_examples=60, deadline=None)
@given(small_graphs(max_n=9))
def test_canonical_paths_reverse_and_subpath(g):
    idx = build_index(g)
    path = canonical_paths(g)
    n = g.n
    for u in range(n):
        for v in range(u + 1, n):
            if not math.isfinite(idx[u][v]):
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
                    assert idx[u][v] == pytest.approx(
                        idx[u][a] + idx[a][v], rel=1e-12
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
            if math.isfinite(idx[u][v]):
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
        assert np.array_equal(dist, idx[s])
        assert np.array_equal(parent, ref[s])


def test_index_agrees_with_per_source_sssp_on_ties(medium_grid):
    idx = build_index(medium_grid)
    _, _, ref = per_source_reference(medium_grid)
    for s in (0, 24, 48):
        dist, parent = sssp_canonical(medium_grid, s)
        assert np.array_equal(dist, idx[s])
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


def set_block_sizes(mp, rows):
    """Blocks of tie-free sources, runs of tied sources and blocks of
    one-weight W rows of the given size."""
    mp.setattr(shortest, "_block_rows", lambda n, m: rows)
    mp.setattr(shortest, "_sweep_rows", lambda n: rows)
    mp.setattr(shortest, "_tie_runs", lambda n, m, tight: [
        slice(lo, lo + rows) for lo in range(0, len(tight), rows)
    ])


@pytest.mark.parametrize("rows", [1, 2, 3])
@settings(max_examples=60, deadline=None)
@given(g=st.one_of(st.just(WeightedGraph(0, [])), mixed_graphs()), data=st.data())
def test_blocked_kernel_matches_per_source_rule(rows, g, data):
    dist, W, parent = per_source_reference(g)
    roots = []
    if g.n:
        roots = data.draw(st.lists(st.integers(min_value=0, max_value=g.n - 1), min_size=1, max_size=6))
    with pytest.MonkeyPatch.context() as mp:
        set_block_sizes(mp, rows)
        idx = build_index(g)
        full = canonical_rows(g)
        every = canonical_rows(g, parents=True)
        sub = canonical_rows(g, roots)
        sub_parents = canonical_rows(g, roots, parents=True)
        single = [sssp_canonical(g, s) for s in range(g.n)]
    assert np.array_equal(idx, dist) and np.array_equal(full[0], dist)
    assert np.array_equal(full[1], W)
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


def unit_graph(n, pairs):
    return WeightedGraph(n, [(u, v, 1.0) for u, v in pairs])


def cycle(n, at=0):
    return [(at + i, at + (i + 1) % n) for i in range(n)]


def lollipop(depth):
    """A unit path whose far end is depth - 2 hops from a 4-cycle: from the
    path's first vertex the tie at the cycle's far corner sits at hop depth."""
    return unit_graph(depth + 2, [(i, i + 1) for i in range(depth - 2)] + cycle(4, depth - 2))


def union(*graphs):
    edges, n = [], 0
    for g in graphs:
        edges += [(u + n, v + n, w) for u, v, w in g.edge_items()]
        n += g.n
    return WeightedGraph(n, edges)


def deep_tied_graphs():
    """Tied graphs deeper and wider than mixed_graphs draws: unit grids up to
    8 x 12, even cycles and lollipops of depths 7, 8, 9, 16 and 17 (the
    lifting tables cross 2^3 and 2^4 levels), unit and {1, 2, 3}-weight gnp
    up to n = 40, and unions with tie-free parts."""
    grids = [
        generate(GenSpec(family="grid", n=r * c, rows=r, cols=c, wmodel="unit"))
        for r, c in ((2, 2), (3, 5), (6, 7), (8, 12))
    ]
    depths = (7, 8, 9, 16, 17)
    cycles = [unit_graph(2 * d, cycle(2 * d)) for d in depths]
    lollipops = [lollipop(d) for d in depths]
    gnps = [
        generate(GenSpec(family="gnp", n=n, p=p, wmodel="unit", seed=seed))
        for n, p, seed in ((24, 0.2, 1), (40, 0.08, 2), (40, 0.15, 3))
    ]
    draws = np.random.default_rng(3).integers(1, 4, gnps[2].m).tolist()
    gnps[2] = WeightedGraph(gnps[2].n, [(u, v, float(w)) for (u, v, _), w in zip(gnps[2].edge_items(), draws)])
    free = generate(GenSpec(family="gnp", n=20, p=0.3, wmodel="uniform", seed=4))
    path = unit_graph(17, [(i, i + 1) for i in range(16)])
    unions = [union(grids[2], free), union(path, cycles[4], free), union(free, gnps[2])]
    return grids + cycles + lollipops + gnps + unions


DEEP_TIED_GRAPHS = deep_tied_graphs()


@pytest.mark.parametrize("rows", [1, 2, 3, None])
@pytest.mark.parametrize("g", DEEP_TIED_GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_blocked_kernel_matches_per_source_rule_on_deep_ties(rows, g):
    dist, W, parent = per_source_reference(g)
    roots = list(range(0, g.n, 3))
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            set_block_sizes(mp, rows)
        idx = build_index(g)
        full = canonical_rows(g)
        every = canonical_rows(g, parents=True)
        sub = canonical_rows(g, roots)
        sub_parents = canonical_rows(g, roots, parents=True)
    assert np.array_equal(idx, dist) and np.array_equal(full[1], W)
    assert np.array_equal(every[1], parent)
    assert np.array_equal(sub[1], W[roots]) and np.array_equal(sub_parents[1], parent[roots])


def weighted_grid_cut(rows, cols, cut):
    """A unit grid whose edges between rows cut - 1 and cut weigh 2: every
    source reaches both sides, so its tight edges weigh 1 and 2."""
    g = generate(GenSpec(family="grid", n=rows * cols, rows=rows, cols=cols, wmodel="unit"))
    across = {(cut - 1) * cols + c for c in range(cols)}
    return WeightedGraph(g.n, [
        (u, v, 2.0 if min(u, v) in across and abs(u - v) == cols else w) for u, v, w in g.edge_items()
    ])


def weighted_lollipop(depth):
    """lollipop(depth) whose 4-cycle sides from the path weigh (1, 3) and (2, 2):
    the two shortest paths to the far corner tie at equal hops with heaviest
    edges 3 and 2, so W there is the knockout's choice."""
    c0, c1, c2, c3 = range(depth - 2, depth + 2)
    path = [(i, i + 1, 1.0) for i in range(depth - 2)]
    return WeightedGraph(depth + 2, path + [(c0, c1, 1.0), (c1, c2, 3.0), (c0, c3, 2.0), (c3, c2, 2.0)])


# tied graphs with two edge weights, whose every tied source mixes tight
# weights, so its W row still takes the hop-layer knockout
MIXED_TIED_GRAPHS = [weighted_grid_cut(8, 12, 4), weighted_lollipop(9), weighted_lollipop(17)]


def counting_knockout(monkeypatch):
    """Rows the knockout finishes, one entry per call."""
    rows = []
    orig = shortest._knockout

    def counted(x, e, start, head, layers, kn, m):
        rows.append(kn)
        return orig(x, e, start, head, layers, kn, m)

    monkeypatch.setattr(shortest, "_knockout", counted)
    return rows


@pytest.mark.parametrize("rows", [1, 2, 3, None])
@pytest.mark.parametrize("g", MIXED_TIED_GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_knockout_still_finishes_mixed_weight_w_rows(rows, g):
    dist, W, _ = per_source_reference(g)
    tied = [s for s in range(g.n) if tied_source(g, s)]
    assert tied
    roots = list(range(0, g.n, 3))
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            set_block_sizes(mp, rows)
        knocked = counting_knockout(mp)
        full = canonical_rows(g)
        assert sum(knocked) == len(tied) * g.n
        sub = canonical_rows(g, roots)
    assert np.array_equal(full[0], dist) and np.array_equal(full[1], W)
    assert np.array_equal(sub[1], W[roots])


@st.composite
def one_weight_graphs(draw):
    """Tied graphs near the one-weight rule: one weight on every edge (1,
    2.5, 0.1, whose sums round, or 1e16), whose W rows skip the tie rule,
    and graphs whose unit parts meet other weights, which take it: a unit
    part joined to a {1, 2, 3} or an absorbing {1, 1e16} part, or a unit
    cycle with a chord too heavy ever to be tight."""
    kind = draw(st.sampled_from(["joined", "absorbing", "chord", "one"]))
    if kind == "chord":
        n = draw(st.integers(min_value=4, max_value=12))
        i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        if j == i + 1 or (i, j) == (0, n - 1):
            return unit_graph(n, cycle(n))
        extra = draw(st.sampled_from([0.5, 1.0, 3.0]))
        return WeightedGraph(n, [(u, v, 1.0) for u, v in cycle(n)] + [(i, j, min(j - i, n - j + i) + extra)])
    if kind == "one":
        w = draw(st.sampled_from([1.0, 2.5, 0.1, 1e16]))
        return draw(small_graphs(max_n=9, weights=st.just(w)))
    unit = draw(small_graphs(max_n=7, weights=st.just(1.0)))
    other = st.sampled_from([1.0, 2.0, 3.0] if kind == "joined" else [1.0, 1e16])
    return union(unit, draw(small_graphs(max_n=7, weights=other)))


@pytest.mark.parametrize("rows", [1, 2, 3])
@settings(max_examples=80, deadline=None)
@given(g=one_weight_graphs(), data=st.data())
def test_one_weight_w_rows_match_per_source_rule(rows, g, data):
    roots = data.draw(st.one_of(
        st.none(), st.lists(st.integers(min_value=0, max_value=g.n - 1), min_size=1, max_size=6)
    ))
    sources = range(g.n) if roots is None else roots
    dist = distance_matrix(g.csr(), roots)
    adj = neighbor_lists(g)
    want = err = None
    try:
        want = [canonical_tree_from_dist(adj, s, dist[i].tolist())[1] for i, s in enumerate(sources)]
    except ValueError as exc:
        err = str(exc)
    with pytest.MonkeyPatch.context() as mp:
        set_block_sizes(mp, rows)
        try:
            got = canonical_rows(g, roots)
        except ValueError as exc:
            assert str(exc) == err
            return
    assert err is None and np.array_equal(got[0], dist)
    for i, s in enumerate(sources):
        reach = np.isfinite(dist[i])
        heavy = np.where(reach, want[i], math.inf)
        heavy[s] = 0.0
        assert np.array_equal(got[1][i], heavy)


def test_unit_grid_6w_build_and_check_run_no_knockout(monkeypatch):
    g = generate(GenSpec(family="grid", n=144, rows=12, cols=12, wmodel="unit"))
    assert all(tied_source(g, s) for s in range(g.n))
    blocks, trees = [], []
    tie, tree = shortest._tie_block, shortest._tree_block
    monkeypatch.setattr(shortest, "_tie_block", lambda *args: blocks.append(args) or tie(*args))
    monkeypatch.setattr(shortest, "_tree_block", lambda *args: trees.append(args) or tree(*args))
    res = build_6eps_spanner(g, 1.0)
    assert verify_additive_W(g, res.to_graph(g), 7.0).passed
    assert blocks == trees == []
    # parent rows still take the knockout, and match the per-source rule
    _, _, parent = per_source_reference(g)
    knocked = counting_knockout(monkeypatch)
    for u, v in ((0, g.n - 1), (5, 130), (77, 12)):
        want = [v]
        while want[-1] != u:
            want.append(int(parent[u, want[-1]]))
        assert path_vertices(g, u, v) == want[::-1]
    assert len(blocks) == len(knocked) == 3


ABSORBING = st.sampled_from([1.0, 2.0, 1e16, 3e16])


@pytest.mark.parametrize("rows", [1, 2, 3])
@settings(max_examples=80, deadline=None)
@given(g=small_graphs(max_n=10, weights=ABSORBING), data=st.data())
def test_absorbed_weight_error_matches_per_source_rule(rows, g, data):
    # 1e16 + 1 == 1e16, so these weights absorb one another in float sums
    roots = data.draw(st.lists(st.integers(min_value=0, max_value=g.n - 1), min_size=1, max_size=6))
    dist = distance_matrix(g.csr(), roots)
    adj = neighbor_lists(g)
    want = None
    try:
        for i, s in enumerate(roots):
            canonical_tree_from_dist(adj, s, dist[i].tolist())
    except ValueError as exc:
        want = str(exc)
    with pytest.MonkeyPatch.context() as mp:
        set_block_sizes(mp, rows)
        for parents in (False, True):
            got = None
            try:
                canonical_rows(g, roots, parents=parents)
            except ValueError as exc:
                got = str(exc)
            assert got == want


def counting_tie_rule(monkeypatch):
    calls = []
    orig = shortest.canonical_tree_from_dist

    def counted(adj, s, dist):
        calls.append(s)
        return orig(adj, s, dist)

    monkeypatch.setattr(shortest, "canonical_tree_from_dist", counted)
    return calls


def test_tie_rule_never_runs_on_tied_sources(monkeypatch):
    # every source ties on a unit 4-cycle and on a unit grid
    four_cycle = unit_graph(4, cycle(4))
    grid = generate(GenSpec(family="grid", n=36, rows=6, cols=6, wmodel="unit"))
    calls = counting_tie_rule(monkeypatch)
    for g in (four_cycle, grid):
        assert all(tied_source(g, s) for s in range(g.n))
        build_index(g)
        canonical_rows(g, parents=True)
        sssp_canonical(g, 0)
        path_vertices(g, 0, g.n - 2)
    assert calls == []


def test_fast2w_runs_no_tie_rule_on_tied_roots(monkeypatch):
    g = generate(GenSpec(family="gnp", n=40, p=0.15, wmodel="unit", seed=2))
    ls = sample_levels(g, 4.0, seed=3)
    tied_roots = sum(
        tied_source(g.subgraph(mask_keys(g, ls.E[i] | ls.estar[i])), r)
        for i in range(1, ls.k + 1)
        for r in ls.D[i]
    )
    assert tied_roots > 0
    # fast2w binds no name of the shortest module, so the calls below are all it could make
    assert all(getattr(x, "__module__", None) != shortest.__name__ for x in vars(wspan.fast2w).values())
    calls = counting_tie_rule(monkeypatch)
    kernel = []
    real = shortest.tree_rows
    monkeypatch.setattr(
        shortest, "tree_rows", lambda *args, **kw: kernel.append(args) or real(*args, **kw)
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


@st.composite
def spread_graphs(draw):
    """Graphs whose weight spread n * w_max / w_min lies near w_floor's bound
    2^51, on either side, or well past it, where float sums can absorb a
    weight: w_min = 1, w_max = 2^e * n^-1 for e in [48, 56], and the weights
    between drawn from 1, w_max and their geometric mean."""
    g = draw(small_graphs(max_n=9))
    if g.m == 0:
        return g
    e = draw(st.floats(min_value=48.0, max_value=56.0))
    w_max = 2.0**e / g.n
    pick = st.sampled_from([1.0, w_max, math.sqrt(w_max)])
    weights = [draw(pick) for _ in range(g.m)]
    weights[0], weights[-1] = 1.0, w_max
    a, b, _ = g.edge_arrays()
    return WeightedGraph(g.n, zip(a.tolist(), b.tolist(), weights))


@settings(max_examples=300, deadline=None)
@given(spread_graphs())
def test_absorb_guard_clears_only_graphs_that_absorb_nothing(g):
    w = g.edge_arrays()[2]
    cleared = shortest.absorb_free(g)
    assert cleared == (not g.m or g.n * (w.max() / w.min()) <= 2.0**51)
    if not cleared:
        assert shortest.w_floor(g) is None
    else:
        canonical_rows(g)
        canonical_rows(g, parents=True)
        build_index(g)


def test_absorb_guard_rejects_the_absorbing_example():
    g = WeightedGraph(3, [(0, 2, 1e16), (1, 2, 1.0)])
    assert not shortest.absorb_free(g) and shortest.w_floor(g) is None
    assert shortest.absorb_free(WeightedGraph(3, [(0, 2, 2.0**49), (1, 2, 1.0)]))
    with pytest.raises(ValueError, match="absorbed an edge weight"):
        canonical_rows(g)


def test_index_temporaries_stay_within_block_budget():
    # the index stores G's distances and nothing else: one float64 n x n matrix
    idx = build_index(generate(GenSpec(family="gnp", n=30, p=0.2, seed=3)))
    assert type(idx) is np.ndarray and idx.dtype == np.float64 and idx.shape == (30, 30)
    # at n = 800 an n x n int32 parent array alone (2.4 MiB) would break the
    # bound; the W rows of every source are what build_index computed before
    # it dropped W
    for n, radius in ((400, 0.12), (800, 0.085)):
        g = generate(GenSpec(family="geometric", n=n, radius=radius, seed=3, keep_lcc=True))
        assert g.n > 0.75 * n and g.m > 5 * n
        canonical_rows(g)  # warm up lazy imports and caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            dist, W = canonical_rows(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = dist.nbytes + W.nbytes
        # slack: the edge list, scipy's CSR copies and the directed edge arrays
        assert peak - base - returned < shortest._BLOCK_BYTES + (1 << 20)


def test_tied_index_temporaries_stay_within_block_budget():
    canonical_rows(unit_graph(4, cycle(4)))  # warm up lazy imports
    for spec in (
        GenSpec(family="grid", n=784, rows=28, cols=28, wmodel="unit"),
        GenSpec(family="gnp", n=800, p=0.01, wmodel="unit", seed=5),
    ):
        g = generate(spec)
        g.csr(), g.edge_arrays()
        assert sum(tied_source(g, s) for s in range(0, g.n, 50)) >= 15
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            dist, W = canonical_rows(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = dist.nbytes + W.nbytes
        # slack: the directed edge arrays and scipy's copies of the BFS graph
        assert peak - base - returned < shortest._BLOCK_BYTES + (1 << 20)


# ------------------------------------------------------------ covered rows


def masked_csr(g: WeightedGraph, mask):
    a, b, w = g.edge_arrays()
    mask = np.asarray(mask, dtype=bool)
    return graph_csr(g.n, a[mask], b[mask], w[mask])


def same_bits(x, y) -> bool:
    return np.array_equal(x.view(np.int64), y.view(np.int64))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(mixed_graphs(), st.integers(1, 6).map(lambda n: WeightedGraph(n, []))),
    st.data(),
)
def test_shared_rows_are_the_rows_dijkstra_on_h_returns(g, data):
    # decimal, tied and multi-part graphs, G or H without edges, n = 1: on a
    # subgraph the kernel covers a row exactly when H's Dijkstra row is G's
    # bit for bit, and its mask is the == test it replaced
    mask = data.draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m), label="H's edges")
    sources = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=2 * g.n), label="sources")
    budget = data.draw(st.sampled_from([0, 4096, shortest._BLOCK_BYTES]), label="budget")
    h = masked_csr(g, mask)
    dist = distance_matrix(g.csr(), sources)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shortest, "_BLOCK_BYTES", budget)
        got = covered_rows(open_columns(g, h), dist)
    want = [same_bits(x, y) for x, y in zip(distance_matrix(h, sources), dist)]
    assert got.tolist() == want == shared_rows(h, dist).tolist() == covered_rows_reference(h, dist).tolist()


@st.composite
def other_h(draw, g: WeightedGraph):
    """An H on g's vertices that is not in general a subgraph: some of g's
    edges, or all of them, or all with one at an ulp or twice its weight
    (its columns open) or at an ulp or half below (closed); and extra edges
    between random pairs weighing d_G of the pair, an ulp above or below
    it, half or twice it, or 1 where g keeps the pair apart.  An extra edge
    on a pair of g replaces g's weight there, except in an H drawn to hold
    all of g, where it only lowers it."""
    share = draw(st.sampled_from(["some", "all", "heavier", "lighter"]), label="H's share of G")
    if share == "some":
        keep = draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m), label="H's edges of G")
    else:
        keep = [True] * g.m
    edges = {(u, v): w for (u, v, w), k in zip(g.edge_items(), keep) if k}
    if share in ("heavier", "lighter") and g.m:
        u, v, w = g.edge_items()[draw(st.integers(0, g.m - 1), label="reweighted edge")]
        up = share == "heavier"
        edges[u, v] = float(draw(
            st.sampled_from([np.nextafter(w, math.inf if up else 0), 2 * w if up else w / 2]),
            label="its weight",
        ))
    d = distance_matrix(g.csr())
    pairs = st.tuples(st.integers(0, g.n - 1), st.integers(0, g.n - 1)).filter(lambda p: p[0] != p[1])
    for u, v in draw(st.lists(pairs, max_size=2 * g.n), label="extra pairs"):
        at = d[u, v]
        if math.isinf(at):
            w = 1.0
        else:
            w = draw(
                st.sampled_from([at, np.nextafter(at, math.inf), np.nextafter(at, 0), at / 2, 2 * at]),
                label="extra weight",
            )
        key = min(u, v), max(u, v)
        edges[key] = min(float(w), edges.get(key, math.inf)) if share == "all" else float(w)
    return WeightedGraph(g.n, [(u, v, w) for (u, v), w in edges.items()])


@pytest.mark.parametrize("rows", [1, 2, 3])
@settings(max_examples=100, deadline=None)
@given(g=mixed_graphs(), data=st.data())
def test_covered_rows_are_rows_h_does_not_lengthen(rows, g, data):
    # with extra edges at, above and below d_G, H's Dijkstra row from a
    # covered row's source is <= G's row, entry by entry
    h = data.draw(other_h(g), label="H").csr()
    S = data.draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n), label="sources")
    budget = data.draw(st.sampled_from([0, 4096, shortest._BLOCK_BYTES]), label="budget")
    idx = build_index(g) if data.draw(st.booleans(), label="indexed") else None
    assert shortest.absorb_free(g, h)
    d_h = distance_matrix(h, S)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shortest, "_sweep_rows", lambda n: rows)
        mp.setattr(shortest, "_BLOCK_BYTES", budget)
        for lo, dist, run in shortest.sweep(g, idx, S, h):
            covered = np.ones(len(dist), dtype=bool)
            covered[run] = False
            assert covered.tolist() == covered_rows_reference(h, dist).tolist()
            assert (d_h[lo : lo + rows][covered] <= dist[covered]).all()


@pytest.mark.parametrize("rows", [1, 2, 3])
@settings(max_examples=100, deadline=None)
@given(g=mixed_graphs(), data=st.data())
def test_sweep_runs_match_the_all_columns_reference(rows, g, data):
    # the kernel reads the open columns alone, yet every block's run is the
    # one the test over every column gives, on subgraphs, supersets of G,
    # G with one edge reweighted and H with extra edges alike
    h = data.draw(other_h(g), label="H")
    S = data.draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n), label="sources")
    budget = data.draw(st.sampled_from([0, 4096, shortest._BLOCK_BYTES]), label="budget")
    # before build_index records which edges may be tight, every edge counts
    assert g._tight is None
    assert open_columns(g, h.csr())[0].tolist() == open_columns_reference(g, h)
    idx = build_index(g) if data.draw(st.booleans(), label="indexed") else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shortest, "_sweep_rows", lambda n: rows)
        mp.setattr(shortest, "_BLOCK_BYTES", budget)
        blocks = list(shortest.sweep(g, idx, S, h.csr()))
    d_g = distance_matrix(g.csr(), S)
    assert [lo for lo, _, _ in blocks] == list(range(0, len(S), rows))
    for lo, dist, run in blocks:
        assert np.array_equal(dist, d_g[lo : lo + rows])
        if shortest.absorb_free(g, h.csr()):
            assert run.tolist() == np.flatnonzero(~covered_rows_reference(h.csr(), dist)).tolist()
        else:
            assert run.tolist() == list(range(len(dist)))


@settings(max_examples=100, deadline=None)
@given(g=mixed_graphs(), data=st.data())
def test_open_columns_match_the_entry_by_entry_reference(g, data):
    # G indexed, its twin never indexed and an edgeless G, each against a
    # subgraph of G, that subgraph with some weights halved or doubled, G
    # with extra edges (at G-isolated vertices too), G itself, its +4W
    # emulator and an edgeless H: the search opens the columns the entry by
    # entry reference opens, and the row test on them is the test of every
    # column, in runs of any size
    twin = unindexed(g)
    idx = build_index(g)
    a, b, w = g.edge_arrays()
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m), label="H's edges"), dtype=bool)
    scale = data.draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=g.m, max_size=g.m), label="scales")
    deg = np.diff(g.csr().indptr)
    lacks = [(u, v) for u, v in itertools.combinations(range(g.n), 2) if not g.has_edge(u, v)]
    extra = data.draw(st.lists(st.sampled_from(lacks), max_size=g.n), label="extra edges") if lacks else []
    extra += [(u, v) for u, v in lacks if deg[u] == 0 or deg[v] == 0][:1]
    extra_w = data.draw(st.sampled_from([0.1, 1.0, 50.0]), label="extra weight")
    hs = [
        WeightedGraph._from_arrays(g.n, a[keep], b[keep], w[keep]),
        WeightedGraph._from_arrays(g.n, a[keep], b[keep], (w * scale)[keep]),
        WeightedGraph(g.n, g.edge_items() + [(u, v, extra_w) for u, v in dict.fromkeys(extra)]),
        g,
        build_4w_emulator(g, 1, idx=idx).to_graph(),
        WeightedGraph(g.n, []),
    ]
    for G in (g, twin, WeightedGraph(g.n, [])):
        dist = distance_matrix(G.csr())
        for h in hs:
            for budget in (shortest._BLOCK_BYTES, 0):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(shortest, "_BLOCK_BYTES", budget)
                    part = open_columns(G, h.csr())
                    covered = covered_rows(part, dist)
                assert part[0].tolist() == open_columns_reference(G, h)
                assert covered.tolist() == covered_rows_reference(h.csr(), dist).tolist()


@pytest.mark.parametrize("rows", [1, 2, 3])
@settings(max_examples=100, deadline=None)
@given(
    g=st.one_of(mixed_graphs(), spread_graphs(), small_graphs(max_n=8, weights=ABSORBING)),
    data=st.data(),
)
def test_edges_never_tight_leave_runs_w_and_parents_unchanged(rows, g, data):
    # decimal near-ties, tied, multi-part and absorbing graphs: every edge
    # tight on some row of G is in the mask build_index records, and the
    # sweep's runs, the W rows and the parent rows over the masked edges are
    # those over every edge, the absorbed-weight error included; on a twin
    # never indexed, or where a weight may be absorbed, the mask is None
    twin = unindexed(g)
    idx = distance_matrix(g.csr())  # G's index, as build_index returns it where nothing is absorbed
    idx.flags.writeable = False
    with contextlib.suppress(ValueError):  # an absorbed weight raises there, recording no mask
        assert np.array_equal(build_index(g), idx)
    assert twin._tight is None
    if not shortest.absorb_free(g):
        assert g._tight is None
    edges, entries = g._tight or (None, None)
    tight = tight_reference(g, idx)
    a, b, _ = g.edge_arrays()
    if edges is not None:
        assert {(min(p, v), max(p, v)) for p, v in tight} <= set(zip(a[edges].tolist(), b[edges].tolist()))
    if entries is not None:
        csr = g.csr()
        heads = np.repeat(np.arange(g.n), np.diff(csr.indptr))
        assert tight <= set(zip(csr.indices[entries].tolist(), heads[entries].tolist()))
    h = data.draw(other_h(g), label="H").csr()
    S = data.draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n), label="sources")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shortest, "_sweep_rows", lambda n: rows)
        blocks = list(shortest.sweep(g, idx, S, h))
    for lo, dist, run in blocks:
        if shortest.absorb_free(g, h):
            assert run.tolist() == np.flatnonzero(~covered_rows_reference(h, dist)).tolist()
        else:
            assert run.tolist() == list(range(len(dist)))
        src = S[lo : lo + rows]
        for parents in (False, True):
            try:
                want = tree_rows_reference(g, dist, src, parents)
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    shortest.tree_rows(g, dist, src, parents)
                continue
            got = shortest.tree_rows(g, dist, src, parents)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            if src:
                u, v = src[0], int(np.argmax(np.isfinite(dist[0]) & (np.arange(g.n) != src[0])))
                if math.isfinite(dist[0, v]) and v != u:
                    assert path_vertices(g, u, v, idx) == path_vertices(twin, u, v)


def test_an_edge_longer_than_its_ends_distance_can_be_tight():
    # 1 -> 3 weighs an ulp more than 1 -> 2 -> 3, yet from 0 both reach 3 at
    # 4.0 in floats, and the direct edge is the canonical parent's: the
    # mask's margin keeps it
    g = WeightedGraph(4, [(0, 1, 3.0), (1, 2, 0.5), (2, 3, 0.5), (1, 3, 1.0000000000000002)])
    idx = build_index(g)
    assert idx[1, 3] < g.weight(1, 3) and idx[0, 3] == 3.0 + g.weight(1, 3) == 4.0
    edges = (g._tight or (None, None))[0]
    assert edges.all() if edges is not None else True
    assert shortest.tree_rows(g, idx[:1], [0], parents=True)[0].tolist() == [-1, 0, 1, 1]
    assert path_vertices(g, 0, 3, idx) == [0, 1, 3]


def test_a_lighter_copy_of_an_edge_never_tight_stays_in_the_gather():
    # G's 0 - 2 is never tight (0 - 1 - 2 is shorter), and column 2 opens,
    # as H lacks 1 - 2: H's copy of 0 - 2 at 1.5 < 3 covers row 0, and a
    # copy at G's weight or heavier passes on no row
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 3.0)])
    idx = build_index(g)
    assert g._tight[0].tolist() == [True, False, True]
    for w02, covered in ((1.5, [True, False, False]), (3.0, [False, False, False]), (4.0, [False, False, False])):
        h = WeightedGraph(3, [(0, 1, 1.0), (0, 2, w02)]).csr()
        cols, nbr = open_columns(g, h)[:2]
        # one H entry at each open column, 1 - 0 and 2 - 0
        assert cols.tolist() == [1, 2] and len(nbr) == 2
        assert covered_rows_reference(h, idx).tolist() == covered
        run = next(shortest.sweep(g, idx, [0, 1, 2], h))[2]
        assert run.tolist() == np.flatnonzero(~np.array(covered)).tolist()


@pytest.mark.parametrize(
    "n, kept, sixw_open",
    [(128, 408, 50), (256, 923, 91)],
)
def test_mask_counts_on_the_benchmark_gnp(n, kept, sixw_open):
    # the benchmark's gnp-uniform instances at seed 1: about a quarter of
    # the edges may be tight, the poly and +2W spanners hold all of those,
    # so their checks open no column, and the +(6+eps)W spanner opens fewer
    g = generate(GenSpec(family="gnp", n=n, p=2 * math.sqrt(n) / (n - 1), wmodel="uniform", seed=1000 + n))
    twin = unindexed(g)
    idx = build_index(g)
    edges = g._tight[0]
    assert g.m == {128: 1429, 256: 4005}[n] and np.count_nonzero(edges) == kept
    outputs = {
        "poly": (build_poly_spanner(g, 0.5, 16.0, idx=idx), 0),
        "fast2w": (build_fast_2w(g, 4.0, 1), 0),
        "6w": (build_6eps_spanner(g, 1.0, idx=idx), sixw_open),
    }
    # the W kernel reads the masked edges alone
    seen, real = [], shortest._tight_edges
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shortest, "_tight_edges", lambda dist, ea, buf: seen.append(len(ea[2])) or real(dist, ea, buf))
        W = shortest.tree_rows(g, idx[:3], [0, 1, 2])
    assert seen and set(seen) == {kept}
    assert np.array_equal(W, tree_rows_reference(g, idx[:3], [0, 1, 2]))
    for name, (res, opened) in outputs.items():
        h = res.to_graph(g).csr()
        assert open_columns(twin, h)[0].size >= n - 1, name
        cols, nbr = open_columns(g, h)[:2]
        assert cols.size == opened, name
        if not opened:
            assert len(nbr) == 0


def test_the_mask_is_gathered_once_per_index():
    # the benchmark's gnp-uniform n = 256 graph at seed 1: build_index reads
    # the 2m entries of each of the two masks from the distances once, and
    # the builds and checks given the index after it read what it recorded
    n = 256
    g = generate(GenSpec(family="gnp", n=n, p=2 * math.sqrt(n) / (n - 1), wmodel="uniform", seed=1000 + n))
    S = sorted(np.random.default_rng(np.random.SeedSequence([1, 1])).choice(n, 16, replace=False).tolist())
    gathers, real = [], shortest._read

    def counted(graph, idx, at):
        if isinstance(at, tuple) and len(at[0]) == 2 * g.m:
            gathers.append(len(at[0]))
        return real(graph, idx, at)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shortest, "_read", counted)
        idx = build_index(g)
        recorded = g._tight
        for res, c, pairs in (
            (build_6eps_spanner(g, 1.0, idx=idx), 7.0, None),
            (build_poly_spanner(g, 0.5, 16.0, idx=idx), 16.0 * n**0.25 * math.log2(n), None),
            (build_subsetwise_spanner(g, S, 0.5, idx=idx), 2.5, S),
        ):
            assert verify_additive_W(g, res.to_graph(g), c, pair_class=pairs, idx=idx).passed
        emulator = build_4w_emulator(g, 1, idx=idx).to_graph()
        assert emulator.m != 2 * g.m  # its lower-bound check reads one entry per edge
        assert verify_non_contracting(g, emulator, idx=idx).passed
        assert verify_additive_W(g, emulator, 4.0, idx=idx).passed
    assert gathers == [2 * g.m, 2 * g.m] and g._tight is recorded and recorded is not None


@settings(max_examples=80, deadline=None)
@given(
    g=st.one_of(mixed_graphs(), spread_graphs(), small_graphs(max_n=8, weights=ABSORBING), clustered_graphs()),
    data=st.data(),
)
def test_an_indexed_graph_gives_its_unindexed_twins_results(g, data):
    # without the index, a graph build_index has read uses its recorded
    # mask: every builder's output, stats and bought paths (clustered
    # graphs buy some) and every checker's report equal those of a twin
    # never indexed, and so does an absorbed weight's ValueError
    twin = unindexed(g)
    with contextlib.suppress(ValueError):
        build_index(g)
    S = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=g.n), label="subset")
    c = data.draw(st.sampled_from([0.0, 0.5, 2.0, 7.0]), label="c")

    def outcome(call):
        try:
            return call()
        except ValueError as exc:
            return str(exc)

    def results(x):
        out = []
        for build in (
            lambda: build_6eps_spanner(x, 1.0),
            lambda: build_poly_spanner(x, 0.5, 1.0),
            lambda: build_subsetwise_spanner(x, S, 0.5),
            lambda: wspan.greedy.greedy_multiplicative(x, 2),
        ):
            res = outcome(build)
            if isinstance(res, str):
                out.append(res)
                continue
            h = res.to_graph(x)
            out.append((res.kept.tolist(), res.paths_added, res.stats))
            for check in (
                lambda: verify_additive_W(x, h, c),
                lambda: verify_additive_W(x, h, c, pair_class=S),
                lambda: verify_multiplicative(x, h, 3.0),
            ):
                rep = outcome(check)
                out.append(rep if isinstance(rep, str) else rep.to_dict())
        if x.n >= 2:
            em = build_4w_emulator(x, 1).to_graph()
            for check in (lambda: verify_non_contracting(x, em), lambda: verify_additive_W(x, em, 4.0)):
                rep = outcome(check)
                out.append(rep if isinstance(rep, str) else rep.to_dict())
        return out

    assert results(g) == results(twin)


def test_emulator_and_g_itself_open_no_column():
    # the +4W emulator of a graph keeps all of G's edges at G's weights
    # once its per-vertex quota reaches the largest degree, and so does H =
    # G: no column is open, the kernel gathers nothing, and the checks'
    # reports are those of the kernel that read every column
    g = sparse_800("geometric")
    idx = build_index(g)
    emulator = build_4w_emulator(g, seed=1, idx=idx).to_graph()
    for h in (emulator, g):
        cols, *entries = open_columns(g, h.csr())
        assert cols.size == 0 and all(len(x) == 0 for x in entries)
    kernel, gathered = shortest.covered_rows, []

    def spy(part, dist):
        gathered.append(len(part[1]))
        return kernel(part, dist)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shortest, "covered_rows", spy)
        for h, c, h_rows in ((emulator, 4.0, 1), (g, 2.0, 0)):
            for given_idx in (idx, None):
                rep = verify_additive_W(g, h, c, idx=given_idx).to_dict()
                assert rep == {
                    "bound_kind": "additive-cW",
                    "params": {"c": c, "pair_class": "all"},
                    "pairs_checked": 319600,
                    "passed": True,
                    "violation_count": 0,
                    "violations": [],
                    "max_slack_ratio": 0.0,
                    "size": h.m,
                    "w_rows": 0,
                    "h_rows": h_rows,
                }
    assert len(gathered) == 4 * math.ceil(g.n / wspan.graph._sweep_rows(g.n))
    assert not any(gathered)


def test_shared_rows_settle_an_isolated_source_of_an_edgeless_h():
    g = WeightedGraph(4, [(1, 2, 0.5), (2, 3, 0.25)])
    dist = distance_matrix(g.csr())
    # 0 is isolated in G too; 1, 2 and 3 reach one another in G only
    for mask in ([False, False], [True, False]):
        h = masked_csr(g, mask)
        assert covered_rows(open_columns(g, h), dist).tolist() == [True, False, False, False]
        assert covered_rows_reference(h, dist).tolist() == [True, False, False, False]
    assert covered_rows(open_columns(g, g.csr()), dist).all()
    one = WeightedGraph(1, [])
    assert covered_rows(open_columns(one, one.csr()), distance_matrix(one.csr())).tolist() == [True]


@settings(max_examples=100, deadline=None)
@given(spread_graphs(), st.data())
def test_graphs_that_may_absorb_never_reach_the_kernel(g, data):
    # where a float sum might absorb a weight of G, or an H weight below G's,
    # a row's cover by H's edges proves nothing, so every row runs Dijkstra
    # on H (and on H0)
    runs = []
    if not shortest.absorb_free(g):
        mask = data.draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m), label="H's edges")
        h = g.subgraph(mask_keys(g, np.array(mask, dtype=bool)))
        runs.append((lambda: verify_additive_W(g, h, 2.0), lambda rep: rep.h_rows))
        runs.append((lambda: build_6eps_spanner(g, 1.0), lambda res: res.stats["h_rows"]))
    if g.m:
        # not a subgraph: G with its lightest edge, of weight 1, far lighter
        a, b, w = g.edge_arrays()
        light = w.copy()
        light[0] = min(1.0, g.n * w.max() / 2.0**53) / 2
        emu = WeightedGraph(g.n, zip(a.tolist(), b.tolist(), light.tolist()))
        assert not shortest.absorb_free(g, emu.csr())
        runs.append((lambda: verify_additive_W(g, emu, 2.0), lambda rep: rep.h_rows))

    def refuse(*args):
        raise AssertionError("covered_rows called")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shortest, "covered_rows", refuse)
        for run, rows in runs:
            try:
                out = run()
            except ValueError as exc:  # W of a row that did absorb a weight
                assert "absorbed an edge weight" in str(exc)
            else:
                assert rows(out) == g.n


@pytest.mark.parametrize("rows", [1, 2, 3])
@settings(max_examples=100, deadline=None)
@given(g=st.one_of(mixed_graphs(), spread_graphs()), data=st.data())
def test_sweep_names_the_rows_h_does_not_share(rows, g, data):
    # each block holds G's rows of its sources, and run the rows whose
    # Dijkstra row on H is not G's; every row where G may absorb a weight
    mask = data.draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m), label="H's edges")
    S = data.draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n), label="sources")
    idx = None
    if data.draw(st.booleans(), label="indexed"):
        try:
            idx = build_index(g)
        except ValueError:  # a float sum absorbed a weight
            pass
    h = masked_csr(g, mask)
    d_g, d_h = distance_matrix(g.csr(), S), distance_matrix(h, S)
    apart = [not same_bits(x, y) for x, y in zip(d_h, d_g)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shortest, "_sweep_rows", lambda n: rows)
        for given in (h, None):
            blocks = list(shortest.sweep(g, idx, S, given))
            assert [lo for lo, _, _ in blocks] == list(range(0, len(S), rows))
            for lo, dist, run in blocks:
                assert np.array_equal(dist, d_g[lo : lo + rows])
                if given is not None and shortest.absorb_free(g):
                    assert run.tolist() == np.flatnonzero(apart[lo : lo + rows]).tolist()
                else:
                    assert run.tolist() == list(range(len(dist)))


def test_verify_and_greedy_read_g_rows_through_sweep_alone():
    # no block loop of their own: neither module binds the block size, the
    # row test or the row reader, under any name
    kernels = (wspan.graph._sweep_rows, shortest.covered_rows, shortest.index_rows)
    for module in (wspan.verify, wspan.greedy):
        assert not any(hasattr(module, f.__name__) for f in kernels)
        assert not any(x is f for x in vars(module).values() for f in kernels)
        assert module.sweep is shortest.sweep


@pytest.mark.parametrize("family", ["geometric", "gnp"])
def test_covered_rows_temporaries_stay_within_block_budget(family):
    g = sparse_800(family)
    dist = distance_matrix(g.csr(), np.arange(0, g.n, 2))
    # a third of G's edges dropped (no row is covered), G itself and its +4W
    # emulator, with more entries than G (every row is, and neither opens a
    # column); the open columns' slice and its temporaries are counted
    emulator = build_4w_emulator(g, seed=1).to_graph().csr()
    assert emulator.nnz > g.csr().nnz
    for h, settled in ((masked_csr(g, np.arange(g.m) % 3 != 0), 0), (g.csr(), len(dist)), (emulator, len(dist))):
        covered_rows(open_columns(g, h), dist[:1])  # warm up
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = covered_rows(open_columns(g, h), dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.count_nonzero(out) == settled
        assert peak - base - out.nbytes < shortest._BLOCK_BYTES
