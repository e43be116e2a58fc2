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

from conftest import connected_pairs, greedy_mult_oracle, path_buying_oracle, small_graphs


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


def test_pair_order_w_then_dist():
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 4.0)])
    idx = build_index(g)
    # equal W=1 for both, d(0,1)=1 < d(0,2)=2; either orientation, list or array
    for pairs in ([(0, 2), (0, 1)], [(2, 0), (1, 0)], np.array([[0, 2], [1, 0]])):
        po = make_pair_order(idx, pairs, "W-then-dist")
        assert po.pairs.tolist() == [[0, 1], [0, 2]]
        assert po.pairs.dtype == np.int64
    empty = make_pair_order(idx, [], "W-then-dist").pairs
    assert empty.shape == (0, 2) and empty.dtype == np.int64


def test_pair_order_all_equal_keys_id_lexicographic():
    g = WeightedGraph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
    idx = build_index(g)
    for pairs in ([(0, 3), (0, 2), (0, 1)], [(3, 0), (0, 2), (1, 0)]):
        po = make_pair_order(idx, pairs, "W-then-dist")
        assert po.pairs.tolist() == [[0, 1], [0, 2], [0, 3]]


def test_pair_order_triangle_heavy_edge_last():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)])
    idx = build_index(g)
    # W is 1 for every pair (the heavy edge is never on a shortest path),
    # so the distance key pushes (0,2) last
    for pairs in ([(0, 2), (1, 2), (0, 1)], [(2, 0), (2, 1), (1, 0)]):
        po = make_pair_order(idx, pairs, "W-then-dist")
        assert po.pairs.tolist() == [[0, 1], [1, 2], [0, 2]]
        # W-only mode falls back to id order on the all-equal key
        po2 = make_pair_order(idx, pairs, "W-only")
        assert po2.pairs.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert make_pair_order(idx, [], "W-only").pairs.shape == (0, 2)


def test_pair_order_rejects_unknown_mode():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    for pairs in ([(0, 1)], []):
        with pytest.raises(ValueError):
            make_pair_order(build_index(g), pairs, "by-degree")


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
    with pytest.raises(ValueError):
        build_6eps_spanner(WeightedGraph(2, [(0, 1, 1.0)]), 0.0)


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
    with pytest.raises(ValueError):
        build_poly_spanner(g, 0.5, c=0.0)


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


def test_buy_paths_gets_every_connected_pair(monkeypatch):
    # the benchmark counts len(args[3]) of _buy_paths as pairs scanned
    seen = []
    orig = greedy._buy_paths

    def counted(*args, **kwargs):
        seen.append(len(args[3]))
        return orig(*args, **kwargs)

    monkeypatch.setattr(greedy, "_buy_paths", counted)
    half = generate(GenSpec(family="gnp", n=20, p=0.3, wmodel="uniform", seed=1))
    g = WeightedGraph(40, half.edge_items() + [(u + 20, v + 20, w) for u, v, w in half.edge_items()])
    everywhere = len(connected_pairs(g))
    assert everywhere < 40 * 39 // 2  # the two halves are not connected
    S = [0, 3, 5, 21, 25, 39]
    inside = sum(1 for u, v in connected_pairs(g) if u in S and v in S)
    build_6eps_spanner(g, 1.0)
    build_poly_spanner(g, 0.5)
    build_subsetwise_spanner(g, S, 0.5)
    assert seen == [everywhere, everywhere, inside]


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
