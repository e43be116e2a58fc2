import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wspan import (
    GenSpec,
    WeightedGraph,
    build_6eps_spanner,
    build_index,
    build_poly_spanner,
    build_subsetwise_spanner,
    generate,
    greedy_multiplicative,
    make_pair_order,
    t_light_init,
    verify_additive_W,
    verify_multiplicative,
    verify_subgraph,
)
import wspan.greedy as greedy
from wspan.greedy import multiplicative_k_for, poly_stretch_factor

from conftest import (
    brute_force_apsp,
    forbid_full_index,
    greedy_mult_oracle,
    mixed_graphs,
    oracle_canonical_path,
    path_buying_oracle,
    small_graphs,
    sparse_800,
)


def random_tree(n=12, seed=3):
    return generate(GenSpec(family="tree", n=n, wmodel="uniform", seed=seed))


@st.composite
def clustered_graphs(draw, max_n: int = 9):
    """Two clusters of light edges joined by heavy ones.

    Each cluster holds a cycle through its vertices, so every vertex has two
    edges lighter than any cross edge and a 2-light initialization keeps the
    clusters apart; path buying then has to join them.  Random graphs this
    small rarely buy a path at all.
    """
    n = draw(st.integers(min_value=6, max_value=max_n))
    k = draw(st.integers(min_value=3, max_value=n - 3))
    light = st.integers(1, 3).map(float)
    heavy = st.integers(8, 20).map(float)
    cycles = {(i, i + 1) for i in range(k - 1)} | {(0, k - 1)}
    cycles |= {(i, i + 1) for i in range(k, n - 1)} | {(k, n - 1)}
    edges = []
    for u, v in itertools.combinations(range(n), 2):
        inside = (u < k) == (v < k)
        if (u, v) in cycles or draw(st.booleans()):
            edges.append((u, v, draw(light if inside else heavy)))
    if not any((u < k) != (v < k) for u, v, _ in edges):
        edges.append((k - 1, k, draw(heavy)))
    return WeightedGraph(n, edges)


buying_graphs = st.one_of(small_graphs(max_n=8), clustered_graphs())


# ---------------------------------------------------------------- pair order


def ordered(idx, pairs, by_dist=True):
    """pairs in make_pair_order's order, with keys read from idx."""
    uv = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    us, vs = uv[:, 0], uv[:, 1]
    order = make_pair_order(uv, idx.W[us, vs], idx.dist[us, vs] if by_dist else None)
    assert order.shape == (len(uv),)
    return uv[order].tolist()


def test_pair_order_w_then_dist():
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 4.0)])
    idx = build_index(g)
    # equal W=1 for both, d(0,1)=1 < d(0,2)=2, whatever the input order
    for pairs in ([(0, 2), (0, 1)], [(0, 1), (0, 2)]):
        assert ordered(idx, pairs) == [[0, 1], [0, 2]]
    assert ordered(idx, []) == []


def test_pair_order_all_equal_keys_id_lexicographic():
    g = WeightedGraph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
    idx = build_index(g)
    for pairs in ([(0, 3), (0, 2), (0, 1)], [(0, 2), (0, 3), (0, 1)]):
        assert ordered(idx, pairs) == [[0, 1], [0, 2], [0, 3]]


def test_pair_order_triangle_heavy_edge_last():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)])
    idx = build_index(g)
    # W is 1 for every pair (the heavy edge is never on a shortest path),
    # so the distance key pushes (0,2) last
    for pairs in ([(0, 2), (1, 2), (0, 1)], [(1, 2), (0, 2), (0, 1)]):
        assert ordered(idx, pairs) == [[0, 1], [1, 2], [0, 2]]
        # without distances the all-equal key falls back to id order
        assert ordered(idx, pairs, by_dist=False) == [[0, 1], [0, 2], [1, 2]]
    assert ordered(idx, [], by_dist=False) == []


# ------------------------------------------------------------- multiplicative


def test_mult_tree_is_incompressible():
    g = random_tree()
    for k in (1, 2, 3):
        assert greedy_multiplicative(g, k).edges == g.edge_keys()


def test_mult_triangle_k1_keeps_all():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    assert greedy_mult_oracle(g, 1) == g.edge_keys()
    assert greedy_multiplicative(g, 1).edges == g.edge_keys()


def test_mult_four_cycle_k2_drops_one():
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
    expected = greedy_mult_oracle(g, 2)
    res = greedy_multiplicative(g, 2)
    assert res.edges == expected
    assert res.m == 3


def test_mult_rejects_bad_k():
    with pytest.raises(ValueError):
        greedy_multiplicative(WeightedGraph(2, [(0, 1, 1.0)]), 0)


@settings(max_examples=30, deadline=None)
@given(small_graphs(max_n=8))
def test_mult_matches_bruteforce_simulation(g):
    for k in (1, 2):
        assert greedy_multiplicative(g, k).edges == greedy_mult_oracle(g, k)


@settings(max_examples=25, deadline=None)
@given(small_graphs(max_n=9, integer_weights=False))
def test_mult_stretch_bound_per_edge(g):
    k = 2
    res = greedy_multiplicative(g, k)
    assert verify_multiplicative(g, res.to_graph(g), 2 * k - 1).passed


# -------------------------------------------------------------------- 6w


def test_6eps_tree_returns_tree():
    g = random_tree(n=30, seed=9)
    res = build_6eps_spanner(g, 0.5)
    assert res.edges == g.edge_keys()


def test_6eps_small_tree_zero_paths():
    g = generate(GenSpec(family="path", n=6, wmodel="uniform", seed=2))
    res = build_6eps_spanner(g, 0.5)
    assert res.edges == g.edge_keys()
    assert res.paths_added == []


def test_6eps_complete_graph_verified():
    g = generate(GenSpec(family="complete", n=5, wmodel="exp-spread", seed=1))
    idx = build_index(g)
    res = build_6eps_spanner(g, 1.0, idx=idx)
    assert res.params["t"] == 2  # ceil(5^(1/3))
    assert verify_additive_W(g, res.to_graph(g), 7.0, idx=idx).passed
    assert verify_subgraph(g, res.to_graph(g))


def test_6eps_larger_eps_never_bigger(medium_gnp):
    idx = build_index(medium_gnp)
    loose = build_6eps_spanner(medium_gnp, 10.0, idx=idx)
    tight = build_6eps_spanner(medium_gnp, 0.1, idx=idx)
    assert loose.m <= tight.m


def test_6eps_rejects_bad_eps():
    for eps in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            build_6eps_spanner(WeightedGraph(2, [(0, 1, 1.0)]), eps)


@settings(max_examples=20, deadline=None)
@given(small_graphs(max_n=9, integer_weights=False))
def test_6eps_bound_holds_on_random_graphs(g):
    idx = build_index(g)
    res = build_6eps_spanner(g, 0.25, idx=idx)
    assert res.edges <= g.edge_keys()
    assert verify_additive_W(g, res.to_graph(g), 6.25, idx=idx).passed


@settings(max_examples=40, deadline=None)
@given(buying_graphs, st.sampled_from([0.25, 1.0]))
def test_6eps_matches_path_buying_oracle(g, eps):
    res = build_6eps_spanner(g, eps)
    start = t_light_init(g, res.params["t"]).kept_edges if g.m else set()
    pairs = list(itertools.combinations(range(g.n), 2))
    edges, bought = path_buying_oracle(g, start, pairs, 6.0 + eps, by_dist=True)
    assert res.edges == edges
    assert res.paths_added == bought


# ------------------------------------------------------------- subsetwise


def test_subsetwise_singleton_is_light_init_only():
    g = generate(GenSpec(family="gnp", n=20, p=0.3, wmodel="uniform", seed=5))
    res = build_subsetwise_spanner(g, [7], 1.0)
    assert res.params["t"] == 1
    assert res.paths_added == []


def test_subsetwise_full_vertex_set(medium_gnp):
    idx = build_index(medium_gnp)
    res = build_subsetwise_spanner(medium_gnp, list(range(medium_gnp.n)), 0.5, idx=idx)
    assert res.params["t"] == math.ceil(math.sqrt(medium_gnp.n))
    assert verify_additive_W(medium_gnp, res.to_graph(medium_gnp), 2.5, idx=idx).passed


def test_subsetwise_bound_only_inside_subset():
    g = generate(GenSpec(family="gnp", n=50, p=0.12, wmodel="exp-spread", seed=8))
    idx = build_index(g)
    S = [1, 5, 9, 14, 20, 27, 33, 41, 48]
    res = build_subsetwise_spanner(g, S, 0.5, idx=idx)
    inside = verify_additive_W(g, res.to_graph(g), 2.5, pair_class=S, idx=idx)
    assert inside.passed
    outside = verify_additive_W(g, res.to_graph(g), 2.5, idx=idx)
    assert outside.pairs_checked > inside.pairs_checked  # both classes were measured


@settings(max_examples=40, deadline=None)
@given(buying_graphs, st.data())
def test_subsetwise_matches_path_buying_oracle(g, data):
    S = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=g.n), label="S")
    res = build_subsetwise_spanner(g, S, 0.5)
    start = t_light_init(g, res.params["t"]).kept_edges if g.m else set()
    pairs = list(itertools.combinations(sorted(set(S)), 2))
    edges, bought = path_buying_oracle(g, start, pairs, 2.5, by_dist=False)
    assert res.edges == edges
    assert res.paths_added == bought


def test_subsetwise_rejects_empty_and_bad_subset():
    g = WeightedGraph(3, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        build_subsetwise_spanner(g, [], 1.0)
    with pytest.raises(ValueError):
        build_subsetwise_spanner(g, [5], 1.0)
    for eps in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="eps must be finite"):
            build_subsetwise_spanner(g, [0, 1], eps)


# ------------------------------------------------------------------- poly


def test_poly_eps_one_keeps_distances_exactly():
    g = generate(GenSpec(family="gnp", n=40, p=0.2, wmodel="uniform", seed=13))
    idx = build_index(g)
    res = build_poly_spanner(g, 1.0, idx=idx)
    assert res.paths_added == []
    assert verify_additive_W(g, res.to_graph(g), 0.0, idx=idx).passed  # d_H == d_G


def test_poly_two_vertices():
    g = WeightedGraph(2, [(0, 1, 2.5)])
    res = build_poly_spanner(g, 0.5)
    assert res.edges == g.edge_keys()


def test_poly_k_selection():
    # smallest odd stretch >= log2(n)
    assert multiplicative_k_for(8) == 2  # stretch 3 >= 3
    assert multiplicative_k_for(16) == 3  # stretch 5 >= 4
    assert multiplicative_k_for(256) == 5  # stretch 9 >= 8
    assert multiplicative_k_for(2) == 1


def test_poly_rejects_bad_params():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        build_poly_spanner(g, 1.5)
    for c in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="c must be finite"):
            build_poly_spanner(g, 0.5, c=c)


@settings(max_examples=15, deadline=None)
@given(small_graphs(max_n=9, integer_weights=False))
def test_poly_bound_holds(g):
    idx = build_index(g)
    res = build_poly_spanner(g, 0.0, 16.0, idx=idx)
    factor = poly_stretch_factor(g.n, 0.0, 16.0)
    assert verify_additive_W(g, res.to_graph(g), factor, idx=idx).passed
    assert res.edges <= g.edge_keys()


# ------------------------------------------------------------ shared shape


def test_edgeless_graph_gives_empty_spanners():
    g = WeightedGraph(4, [])
    for res in (
        greedy_multiplicative(g, 2),
        build_6eps_spanner(g, 1.0),
        build_subsetwise_spanner(g, [0, 2], 0.5),
        build_poly_spanner(g, 0.5),
    ):
        assert res.edges == set() and res.paths_added == []


def test_results_record_processing_order(medium_gnp):
    idx = build_index(medium_gnp)
    res = build_6eps_spanner(medium_gnp, 0.1, idx=idx)
    # paths_added is ordered exactly as processed: W nondecreasing
    ws = [idx.W[u][v] for u, v in res.paths_added]
    assert ws == sorted(ws)
    counts = res.stats["phase_edge_counts"]
    assert counts["light_init"] + counts["paths"] == res.m


def two_cliques(k=4, cross=10.0):
    """Two k-cliques of unit edges joined by one heavy edge (0, k), which a
    t-light initialization with t < k drops: then every pair across the
    cliques fails H0."""
    clique = lambda o: [(o + i, o + j, 1.0) for i, j in itertools.combinations(range(k), 2)]  # noqa: E731
    return WeightedGraph(2 * k, clique(0) + clique(k) + [(0, k, cross)])


def h0_failures(g, start, pairs, c):
    """The pairs u < v with d_H0(u, v) > d_G(u, v) + c * W(u, v), brute force."""
    dg, dh = brute_force_apsp(g), brute_force_apsp(g.subgraph(start))
    out = set()
    for u, v in pairs:
        if math.isfinite(dg[u, v]):
            path = oracle_canonical_path(g, u, v)
            w = max(g.weight(a, b) for a, b in zip(path, path[1:]))
            if dh[u, v] > dg[u, v] + c * w:
                out.add((u, v))
    return out


def test_buy_paths_gets_the_pairs_h0_fails(monkeypatch):
    # the benchmark counts len(args[3]) of _buy_paths as pairs scanned
    seen = []
    orig = greedy._buy_paths

    def counted(*args, **kwargs):
        seen.append({tuple(p) for p in args[3].tolist()})
        assert len(seen[-1]) == len(args[3])
        return orig(*args, **kwargs)

    monkeypatch.setattr(greedy, "_buy_paths", counted)
    half = two_cliques()
    # two copies: pairs across them are disconnected in G and never scanned
    g = WeightedGraph(16, half.edge_items() + [(u + 8, v + 8, w) for u, v, w in half.edge_items()])
    S = [1, 6, 9, 14]
    everywhere = list(itertools.combinations(range(g.n), 2))
    inside = list(itertools.combinations(S, 2))
    light = lambda t: t_light_init(g, t).kept_edges  # noqa: E731
    mult = greedy_multiplicative(g, multiplicative_k_for(g.n)).edges
    expected = [
        h0_failures(g, light(math.ceil(g.n ** (1 / 3))), everywhere, 7.0),
        h0_failures(g, light(math.ceil(g.n**0.5)) | mult, everywhere, poly_stretch_factor(g.n, 0.5, 16.0)),
        h0_failures(g, light(math.ceil(math.sqrt(len(S)))), inside, 2.5),
    ]
    assert expected[0] and expected[2]  # the light init drops the cliques' joining edges
    assert all((u < 8) == (v < 8) for u, v in expected[0] | expected[1] | expected[2])
    for rows in (1, 3, None):
        del seen[:]
        with monkeypatch.context() as mp:
            if rows is not None:
                mp.setattr(greedy, "_sweep_rows", lambda n: rows)
            build_6eps_spanner(g, 1.0)
            build_poly_spanner(g, 0.5)
            build_subsetwise_spanner(g, S, 0.5)
        assert seen == expected


@settings(max_examples=60, deadline=None)
@given(st.one_of(buying_graphs, mixed_graphs()), st.data())
def test_index_is_an_optional_cache(g, data):
    S = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=g.n), label="S")
    rows = data.draw(st.sampled_from([1, 2, 3, None]), label="sources per block")
    idx = build_index(g)
    builds = (
        lambda i: build_6eps_spanner(g, 0.25, idx=i),
        lambda i: build_poly_spanner(g, 0.0, 0.5, idx=i),
        lambda i: build_subsetwise_spanner(g, S, 0.5, idx=i),
    )
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(greedy, "_sweep_rows", lambda n: rows)
        for build in builds:
            cached, computed = build(idx), build(None)
            assert cached.edges == computed.edges
            assert cached.paths_added == computed.paths_added
            assert cached.stats == computed.stats


def test_builders_without_index_build_no_full_index(monkeypatch):
    g = two_cliques(k=9)
    S = [1, 4, 10, 13]
    rows = forbid_full_index(monkeypatch)
    monkeypatch.setattr(greedy, "_sweep_rows", lambda n: 4)
    for build in (lambda: build_6eps_spanner(g, 1.0), lambda: build_poly_spanner(g, 0.5)):
        del rows[:]
        build()
        assert rows[:5] == [list(range(lo, min(lo + 4, g.n))) for lo in range(0, g.n, 4)]
    monkeypatch.setattr(greedy, "_sweep_rows", lambda n: 3)
    del rows[:]
    res = build_subsetwise_spanner(g, S, 0.5)
    assert res.paths_added
    assert rows[:2] == [S[:3], S[3:]]
    # then path_vertices: one source's parent row per bought pair
    assert len(rows) == 2 + len(res.paths_added) and all(len(r) == 1 for r in rows[2:])


@pytest.mark.parametrize("family", ["geometric", "gnp"])
def test_6eps_without_index_peaks_below_8_mib(family):
    g = sparse_800(family)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build_6eps_spanner(g, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an index alone is 16 * n^2 bytes, 9.8 MiB here
    assert peak - base < 8 << 20


def test_6eps_scan_memory_is_linear_in_pairs():
    n = 400
    g = generate(GenSpec(family="gnp", n=n, p=2 * math.sqrt(n) / (n - 1), wmodel="uniform", seed=1))
    idx = build_index(g)
    pairs = (int(np.isfinite(idx.dist).sum()) - n) // 2
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build_6eps_spanner(g, 1.0, idx=idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # n oracle rows of 8 bytes per vertex, and a bounded cost per scanned pair
    assert peak - base < 8 * n * n + 160 * pairs
