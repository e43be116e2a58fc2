import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from wspan import (
    GenSpec,
    WeightedGraph,
    build_6eps_spanner,
    build_fast_2w,
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
from wspan.shortest import canonical_rows

from conftest import (
    WEIGHTS,
    brute_force_apsp,
    buying_graphs,
    forbid_full_index,
    greedy_mult_oracle,
    greedy_mult_reference,
    mask_keys,
    mixed_graphs,
    oracle_canonical_path,
    path_buying_oracle,
    path_buying_reference,
    small_graphs,
    sparse_800,
)


def random_tree(n=12, seed=3):
    return generate(GenSpec(family="tree", n=n, wmodel="uniform", seed=seed))


# ---------------------------------------------------------------- pair order


def ordered(g, pairs, by_dist=True):
    """pairs in make_pair_order's order, with keys read from g's rows."""
    dist, W = canonical_rows(g)
    uv = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    us, vs = uv[:, 0], uv[:, 1]
    order = make_pair_order(uv, W[us, vs], dist[us, vs] if by_dist else None)
    assert order.shape == (len(uv),)
    return uv[order].tolist()


def test_pair_order_w_then_dist():
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 4.0)])
    # equal W=1 for both, d(0,1)=1 < d(0,2)=2, whatever the input order
    for pairs in ([(0, 2), (0, 1)], [(0, 1), (0, 2)]):
        assert ordered(g, pairs) == [[0, 1], [0, 2]]
    assert ordered(g, []) == []


def test_pair_order_all_equal_keys_id_lexicographic():
    g = WeightedGraph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
    for pairs in ([(0, 3), (0, 2), (0, 1)], [(0, 2), (0, 3), (0, 1)]):
        assert ordered(g, pairs) == [[0, 1], [0, 2], [0, 3]]


def test_pair_order_triangle_heavy_edge_last():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)])
    # W is 1 for every pair (the heavy edge is never on a shortest path),
    # so the distance key pushes (0,2) last
    for pairs in ([(0, 2), (1, 2), (0, 1)], [(1, 2), (0, 2), (0, 1)]):
        assert ordered(g, pairs) == [[0, 1], [1, 2], [0, 2]]
        # without distances the all-equal key falls back to id order
        assert ordered(g, pairs, by_dist=False) == [[0, 1], [0, 2], [1, 2]]
    assert ordered(g, [], by_dist=False) == []


# ------------------------------------------------------------- multiplicative


def test_mult_tree_is_incompressible():
    g = random_tree()
    for k in (1, 2, 3):
        assert mask_keys(g, greedy_multiplicative(g, k).kept) == g.edge_keys()


def test_mult_triangle_k1_keeps_all():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    assert greedy_mult_oracle(g, 1) == g.edge_keys()
    assert mask_keys(g, greedy_multiplicative(g, 1).kept) == g.edge_keys()


def test_mult_four_cycle_k2_drops_one():
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
    expected = greedy_mult_oracle(g, 2)
    res = greedy_multiplicative(g, 2)
    assert mask_keys(g, res.kept) == expected
    assert res.m == 3


def test_mult_rejects_bad_k():
    g = generate(GenSpec(family="gnp", n=30, p=0.3, wmodel="uniform", seed=2, keep_lcc=True))
    for k in (0, -1, math.inf, math.nan, 2.5, 2.0, "2", 10**400):
        with pytest.raises(ValueError, match="k must"):
            greedy_multiplicative(g, k)
    # an integer of another type is an integer
    assert np.array_equal(greedy_multiplicative(g, np.int64(2)).kept, greedy_multiplicative(g, 2).kept)


def test_mult_rejects_an_overflowing_threshold():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1e308)])
    assert mask_keys(g, greedy_multiplicative(g, 1).kept) == g.edge_keys()
    with pytest.raises(ValueError, match=r"overflows on edge \(1, 2\)"):
        greedy_multiplicative(g, 2)


def counted_searches(monkeypatch) -> list:
    """Record the (source, limit) of every search the multiplicative greedy makes."""
    calls = []
    real = greedy._sp_dijkstra

    def counting(csr, **kwargs):
        calls.append((kwargs["indices"], kwargs["limit"]))
        return real(csr, **kwargs)

    monkeypatch.setattr(greedy, "_sp_dijkstra", counting)
    return calls


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["decimal", "int", "unit"]).flatmap(lambda kind: small_graphs(max_n=9, weights=WEIGHTS[kind])))
def test_mult_matches_one_search_per_edge(g):
    with pytest.MonkeyPatch.context() as mp:
        calls = counted_searches(mp)
        for k in (1, 2, 3):
            del calls[:]
            res = greedy_multiplicative(g, k)
            assert mask_keys(g, res.kept) == greedy_mult_reference(g, k)
            assert res.stats["searched_edges"] == len(calls) <= g.m


def test_mult_searches_nothing_on_a_tree(monkeypatch):
    calls = counted_searches(monkeypatch)
    res = greedy_multiplicative(random_tree(n=40), 2)
    assert res.m == 39 and calls == [] and res.stats["searched_edges"] == 0


def test_mult_forest_path_at_the_threshold_drops_without_a_search(monkeypatch):
    # scanned (0, 1), (0, 3), (1, 2), (2, 3): the last closes the cycle, and
    # its forest path 2-1-0-3 has d_F = 3 = (2k-1) * 1
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
    calls = counted_searches(monkeypatch)
    res = greedy_multiplicative(g, 2)
    assert mask_keys(g, res.kept) == {(0, 1), (0, 3), (1, 2)} == greedy_mult_reference(g, 2)
    assert calls == [] and res.stats["searched_edges"] == 0


def test_mult_searches_from_the_tail_up_to_the_threshold(monkeypatch):
    # forest 0-1-2-3 of unit edges; for k = 1, (0, 3, 1.5) has d_F = 3 > 1.5
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.5), (0, 2, 2.5)])
    calls = counted_searches(monkeypatch)
    res = greedy_multiplicative(g, 1)
    # (0, 3) is searched and kept; (0, 2) has d_F = 2 <= 2.5 and is dropped
    assert calls == [(0, 1.5)]
    assert mask_keys(g, res.kept) == {(0, 1), (1, 2), (2, 3), (0, 3)}
    assert res.stats["searched_edges"] == 1


def test_scipy_reads_an_inf_csr_entry_as_no_edge():
    # the multiplicative greedy's spanner is G's CSR with inf on the edges not kept
    full = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 0.5), (2, 3, 4.0)])
    kept = full.subgraph([(0, 1), (1, 2)]).csr()
    data = np.where(np.isin(full.csr().data, [0.5, 4.0]), np.inf, full.csr().data)
    masked = csr_matrix((data, full.csr().indices, full.csr().indptr), shape=(4, 4))
    for s in range(4):
        for limit in (np.inf, 1.0, 1.5, 2.0):
            got = dijkstra(masked, directed=True, indices=s, limit=limit)
            assert np.array_equal(got, dijkstra(kept, directed=True, indices=s, limit=limit))
    assert dijkstra(masked, indices=0).tolist() == [0.0, 1.0, 2.0, np.inf]


@pytest.mark.parametrize("family", ["geometric", "gnp"])
def test_mult_peaks_below_8_mib(family):
    g = sparse_800(family)
    for k in (2, multiplicative_k_for(g.n)):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            greedy_multiplicative(g, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an n x n distance matrix alone is 8 * n^2 bytes, 4.9 MiB here
        assert peak - base < 8 << 20


@settings(max_examples=30, deadline=None)
@given(small_graphs(max_n=8))
def test_mult_matches_bruteforce_simulation(g):
    for k in (1, 2):
        assert mask_keys(g, greedy_multiplicative(g, k).kept) == greedy_mult_oracle(g, k)


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
    assert mask_keys(g, res.kept) == g.edge_keys()


def test_6eps_small_tree_zero_paths():
    g = generate(GenSpec(family="path", n=6, wmodel="uniform", seed=2))
    res = build_6eps_spanner(g, 0.5)
    assert mask_keys(g, res.kept) == g.edge_keys()
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
    assert mask_keys(g, res.kept) <= g.edge_keys()
    assert verify_additive_W(g, res.to_graph(g), 6.25, idx=idx).passed


@settings(max_examples=40, deadline=None)
@given(buying_graphs, st.sampled_from([0.25, 1.0]))
def test_6eps_matches_path_buying_oracle(g, eps):
    res = build_6eps_spanner(g, eps)
    start = mask_keys(g, t_light_init(g, res.params["t"]).kept)
    pairs = list(itertools.combinations(range(g.n), 2))
    edges, bought = path_buying_oracle(g, start, pairs, 6.0 + eps, by_dist=True)
    assert mask_keys(g, res.kept) == edges
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
    start = mask_keys(g, t_light_init(g, res.params["t"]).kept)
    pairs = list(itertools.combinations(sorted(set(S)), 2))
    edges, bought = path_buying_oracle(g, start, pairs, 2.5, by_dist=False)
    assert mask_keys(g, res.kept) == edges
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
    assert mask_keys(g, res.kept) == g.edge_keys()


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
    assert mask_keys(g, res.kept) <= g.edge_keys()


# ------------------------------------------------------------ shared shape


def test_poly_rejects_a_multiplicative_spanner_of_another_edge_count():
    # both graphs have n = 64, so k alone cannot tell them apart
    other = generate(GenSpec(family="gnp", n=64, p=0.3, wmodel="uniform", seed=1))
    g = generate(GenSpec(family="gnp", n=64, p=0.1, wmodel="uniform", seed=2))
    mult = greedy_multiplicative(other, multiplicative_k_for(64))
    with pytest.raises(ValueError, match=rf"over {other.m} edges, not {g.m}"):
        build_poly_spanner(g, 0.5, mult=mult)
    own = greedy_multiplicative(g, multiplicative_k_for(64))
    assert np.array_equal(build_poly_spanner(g, 0.5, mult=own).kept, build_poly_spanner(g, 0.5).kept)


@settings(max_examples=40, deadline=None)
@given(mixed_graphs(), st.integers(0, 3))
def test_to_graph_cuts_g_by_the_mask(g, seed):
    results = (
        greedy_multiplicative(g, 2),
        build_6eps_spanner(g, 1.0),
        build_subsetwise_spanner(g, [0, g.n - 1], 0.5),
        build_poly_spanner(g, 0.5),
        build_fast_2w(g, 1.0, seed),
    )
    for res in results:
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(WeightedGraph, "edge_ids", lambda self, u, v: calls.append(1))
            h = res.to_graph(g)
        assert calls == []
        assert h == g.subgraph(mask_keys(g, res.kept)) and h.m == res.m


def test_edgeless_graph_gives_empty_spanners():
    g = WeightedGraph(4, [])
    for res in (
        greedy_multiplicative(g, 2),
        build_6eps_spanner(g, 1.0),
        build_subsetwise_spanner(g, [0, 2], 0.5),
        build_poly_spanner(g, 0.5),
    ):
        assert not res.kept.any() and res.paths_added == []


def test_results_record_processing_order(medium_gnp):
    idx = build_index(medium_gnp)
    res = build_6eps_spanner(medium_gnp, 0.1, idx=idx)
    # paths_added is ordered exactly as processed: W nondecreasing
    W = canonical_rows(medium_gnp)[1]
    ws = [W[u][v] for u, v in res.paths_added]
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
    light = lambda t: mask_keys(g, t_light_init(g, t).kept)  # noqa: E731
    mult = mask_keys(g, greedy_multiplicative(g, multiplicative_k_for(g.n)).kept)
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
            assert np.array_equal(cached.kept, computed.kept)
            assert cached.paths_added == computed.paths_added
            assert cached.stats == computed.stats


@settings(max_examples=100, deadline=None)
@given(st.one_of(buying_graphs, mixed_graphs()), st.data())
def test_candidate_pass_matches_the_all_rows_reference(g, data):
    S = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=g.n), label="S")
    rows = data.draw(st.integers(1, 3), label="sources per block")
    idx = build_index(g) if data.draw(st.booleans(), label="indexed") else None
    builds = (
        lambda: build_6eps_spanner(g, 0.25, idx=idx),
        lambda: build_poly_spanner(g, 0.0, 0.5, idx=idx),
        lambda: build_subsetwise_spanner(g, S, 0.5, idx=idx),
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(greedy, "_sweep_rows", lambda n: rows)
        got = [build() for build in builds]
        mp.setattr(greedy, "_path_buying", path_buying_reference)
        want = [build() for build in builds]
    for res, ref in zip(got, want):
        assert np.array_equal(res.kept, ref.kept)
        assert res.paths_added == ref.paths_added
        assert res.stats["w_rows"] <= ref.stats["w_rows"]
        assert res.stats["h_rows"] <= ref.stats["h_rows"]
        masked = {"w_rows": 0, "h_rows": 0}
        assert {**res.stats, **masked} == {**ref.stats, **masked}
    # and from any H0 at any c, where candidates are many and W varies
    start = np.array(data.draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m), label="H0"), dtype=bool)
    # the builders' c is always positive
    c = data.draw(st.sampled_from([0.5, 2.0, 7.0]), label="c")
    by_dist = data.draw(st.booleans(), label="by_dist")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(greedy, "_sweep_rows", lambda n: rows)
        kept, bought, added, counts = greedy._path_buying(g, idx, sorted(set(S)), start, c, by_dist)
        ref = path_buying_reference(g, idx, sorted(set(S)), start, c, by_dist)
    assert np.array_equal(kept, ref[0]) and (bought, added) == ref[1:3]
    # W is read on exactly the rows of S with a later pair d_H0 > d_G + c * L
    minw = np.full(g.n, math.inf)
    for u, v, w in g.edge_items():
        minw[u], minw[v] = min(minw[u], w), min(minw[v], w)
    d_g = dijkstra(g.csr())
    d_h0 = dijkstra(g.subgraph(mask_keys(g, start)).csr())
    T = sorted(set(S))
    fails = [any(d_h0[u, v] > d_g[u, v] + c * max(minw[u], minw[v]) for v in T if v > u) for u in T]
    assert counts["w_rows"] == sum(fails)
    # and H0's Dijkstra on exactly the rows of S where H0's row is not G's
    assert counts["h_rows"] == sum(not np.array_equal(d_h0[u], d_g[u]) for u in T)


def test_candidate_pass_runs_dijkstra_on_h0_only_where_h0_shares_no_row_of_g(monkeypatch):
    g = generate(GenSpec(family="gnp", n=40, p=0.15, wmodel="uniform", seed=4))
    start = t_light_init(g, math.ceil(g.n ** (1.0 / 3.0))).kept
    d_g, d_h0 = dijkstra(g.csr()), dijkstra(g.subgraph(mask_keys(g, start)).csr())
    # the rows where H0's distances are not G's, bit for bit
    apart = np.flatnonzero((d_h0 != d_g).any(axis=1)).tolist()
    assert 0 < len(apart) < g.n
    sources = []
    real = greedy._sp_dijkstra

    def counting(csr, **kwargs):
        if np.ndim(kwargs["indices"]):  # the candidate pass; path buying runs one source at a time
            sources.extend(kwargs["indices"].tolist())
        return real(csr, **kwargs)

    monkeypatch.setattr(greedy, "_sp_dijkstra", counting)
    monkeypatch.setattr(greedy, "_sweep_rows", lambda n: 7)
    res = build_6eps_spanner(g, 1.0)
    assert sources == apart and res.stats["h_rows"] == len(apart)


def test_builders_without_index_build_no_full_index(monkeypatch):
    # every vertex's lightest edge weighs 1, so L = 1 on every pair, and only
    # a pair across the cliques, whose H0 path is missing or long, can fail
    # d_H0 <= d_G + c * L: W is computed on the rows holding one
    g = two_cliques(k=9)
    S = [1, 4, 10, 13]
    rows = forbid_full_index(monkeypatch)
    monkeypatch.setattr(greedy, "_sweep_rows", lambda n: 4)
    res = build_6eps_spanner(g, 1.0)
    # H0 lacks the heavy edge: rows 0..8 have a later vertex across, 9..17 none
    assert rows[:3] == [[0, 1, 2, 3], [4, 5, 6, 7], [8]] and res.stats["w_rows"] == 9
    # then path_vertices: one source's parent row per bought pair
    assert len(rows) == 3 + len(res.paths_added) and all(len(r) == 1 for r in rows[3:])
    del rows[:]
    # poly's H0 holds the heavy edge (a bridge, so in the multiplicative
    # spanner), and its stretch factor exceeds every d_H0 - d_G
    res = build_poly_spanner(g, 0.5)
    assert rows == [] and res.stats["w_rows"] == 0 and not res.paths_added
    monkeypatch.setattr(greedy, "_sweep_rows", lambda n: 3)
    del rows[:]
    res = build_subsetwise_spanner(g, S, 0.5)
    assert res.paths_added
    # blocks [1, 4, 10] and [13]: 10 and 13 have no later vertex across
    assert rows[:1] == [[1, 4]] and res.stats["w_rows"] == 2
    assert len(rows) == 1 + len(res.paths_added) and all(len(r) == 1 for r in rows[1:])


def test_builders_hold_edge_masks_not_graphs(monkeypatch):
    # fast2w's levels and path buying's spanner are masks over G's edge arrays:
    # no subgraph is built and no edge weight is looked up one at a time
    g = two_cliques(k=9)
    levels = generate(GenSpec(family="gnp", n=64, p=0.2, wmodel="uniform", seed=3))
    built, looked_up = [], []
    init, weight, subgraph = WeightedGraph.__init__, WeightedGraph.weight, WeightedGraph.subgraph
    monkeypatch.setattr(WeightedGraph, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    # a subgraph is cut from G's arrays without __init__
    monkeypatch.setattr(WeightedGraph, "subgraph", lambda self, keys: built.append(keys) or subgraph(self, keys))
    monkeypatch.setattr(WeightedGraph, "weight", lambda self, u, v: looked_up.append((u, v)) or weight(self, u, v))
    fast = build_fast_2w(levels, 4.0, seed=1)
    bought = [build_6eps_spanner(g, 0.25), build_subsetwise_spanner(g, [1, 4, 10, 13], 0.5)]
    assert built == [] and looked_up == []
    assert fast.params["k"] >= 1 and any(fast.stats["phase_edge_counts"]["spt_trees"])
    assert all(res.paths_added for res in bought)


def three_clusters():
    """Three 5-cliques of light edges, chained by heavy edges that a 3-light
    initialization drops: path buying must buy across both joins."""
    inner = [(i, j, float(1 + (i + j) % 3)) for i, j in itertools.combinations(range(5), 2)]
    edges = [(o + i, o + j, w) for o in (0, 5, 10) for i, j, w in inner]
    return WeightedGraph(15, edges + [(0, 5, 12.0), (2, 7, 15.0), (4, 11, 9.0), (8, 13, 20.0)])


def test_buy_loop_grows_one_matrix_from_one_source_at_a_time(monkeypatch):
    # bought paths are written into one matrix, so H0's CSR is the build's
    # only graph_csr, and every search inside _buy_paths has one source
    sources, csr_builds, buying = [], [], []
    dijkstra, csr, buy = greedy._sp_dijkstra, greedy.graph_csr, greedy._buy_paths

    def counting(matrix, **kwargs):
        if buying:
            sources.append(kwargs["indices"])
        return dijkstra(matrix, **kwargs)

    def marked(*args):
        buying.append(True)
        try:
            return buy(*args)
        finally:
            buying.pop()

    monkeypatch.setattr(greedy, "_sp_dijkstra", counting)
    monkeypatch.setattr(greedy, "graph_csr", lambda *a: csr_builds.append(a[0]) or csr(*a))
    monkeypatch.setattr(greedy, "_buy_paths", marked)
    cliques, clusters = two_cliques(k=9), three_clusters()
    builds = (
        (lambda: build_6eps_spanner(cliques, 0.25), 1),
        (lambda: build_6eps_spanner(clusters, 0.25), 2),
        (lambda: build_subsetwise_spanner(clusters, [0, 3, 6, 8, 12, 14], 0.5), 2),
    )
    for build, paths in builds:
        del sources[:], csr_builds[:]
        res = build()
        # searches follow a purchase, which a rebuilt matrix would show
        assert len(res.paths_added) == paths and len(csr_builds) == 1
        assert sources and all(np.ndim(s) == 0 for s in sources)


def test_poly_buy_heavy_golden():
    # a dense gnp at a small c buys many paths; the output is pinned
    g = generate(GenSpec(family="gnp", n=200, p=0.2, wmodel="uniform", seed=2))
    res = build_poly_spanner(g, 0.3, 0.002)
    assert res.m == 745 and len(res.paths_added) == 124
    kept = hashlib.sha256(np.packbits(res.kept).tobytes()).hexdigest()
    assert kept == "34ff3dc8f8a6103bab3938d836e2ddbae36935430f72e93a3a9c742e323313c2"
    bought = hashlib.sha256(np.array(res.paths_added, dtype=np.int64).tobytes()).hexdigest()
    assert bought == "03bb615a1ccd61c63098194258aa97a6628f6a42754510f352e137b114d09afd"


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
    pairs = (int(np.isfinite(idx).sum()) - n) // 2
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build_6eps_spanner(g, 1.0, idx=idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # n cached rows of 8 bytes per vertex, and a bounded cost per scanned pair
    assert peak - base < 8 * n * n + 160 * pairs
