import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

from wspan import (
    GenSpec,
    WeightedGraph,
    build_fast_2w,
    build_index,
    generate,
    sample_levels,
    verify_additive_W,
    verify_subgraph,
)
import wspan.fast2w
from wspan.fast2w import _level_trees
from wspan.graph import edge_key

from conftest import (
    canonical_rows,
    fast2w_reference,
    levels_reference,
    mask_keys,
    mixed_graphs,
    neighbor_lists,
    spt_edges_reference,
    tied_source,
)


def gnp(n, p, seed, wmodel="uniform"):
    return generate(GenSpec(family="gnp", n=n, p=p, wmodel=wmodel, seed=seed))


def sampled_roots(stats) -> int:
    """The sum of |D_i| over the levels 1..k."""
    return sum(level["d_size"] for level in stats["levels"][1:-1])


def test_same_seed_same_structure():
    g = gnp(40, 0.2, 3)
    a = sample_levels(g, 2.0, seed=77)
    b = sample_levels(g, 2.0, seed=77)
    assert a.D == b.D
    assert len(a.estar) == len(b.estar) and a.E.keys() == b.E.keys()
    assert all(np.array_equal(x, y) for x, y in zip(a.estar, b.estar))
    assert all(np.array_equal(a.E[i], b.E[i]) for i in a.E)
    c = sample_levels(g, 2.0, seed=78)
    assert a.D != c.D  # overwhelmingly likely for n=40 over 5 levels


def test_deep_levels_sample_everything():
    g = gnp(32, 0.3, 1)
    ls = sample_levels(g, 2.0, seed=0)
    # probability c*log2(n)/s_i clamps to 1 once s_i <= c*log2(n)
    clamped = [i for i in range(1, ls.k + 1) if 2.0 * math.log2(g.n) / ls.s[i] >= 1.0]
    assert clamped, "expected at least one clamped level at n=32"
    for i in clamped:
        assert ls.D[i] == frozenset(range(g.n))


def test_sampled_size_expectation_64():
    # E|D_1| = 64 * (2*log2(64)/32) = 24; mean over 100 seeds within 3 sigma
    g = gnp(64, 0.18, 5)
    p = 2.0 * math.log2(64) / 32.0
    sizes = [len(sample_levels(g, 2.0, seed=s).D[1]) for s in range(100)]
    sigma_mean = math.sqrt(64 * p * (1 - p)) / 10.0
    assert abs(sum(sizes) / 100.0 - 24.0) <= 3.0 * sigma_mean + 1e-9


def test_structural_invariants():
    g = gnp(48, 0.25, 2)
    ls = sample_levels(g, 2.0, seed=9)
    D, pivot, estar, E = levels_reference(g, 2.0, 9)
    ls_estar = [mask_keys(g, x) for x in ls.estar]
    ls_E = {i: mask_keys(g, x) for i, x in ls.E.items()}
    assert (ls.D, ls_estar, ls_E) == (D, estar, E)
    adj = {v: dict(lst) for v, lst in enumerate(neighbor_lists(g))}
    # V_i, the vertices of degree >= s_i: empty at level 0, growing with i
    v_sizes = [level["v_size"] for level in ls.level_sizes()[:-1]]
    assert v_sizes == [sum(len(adj[v]) >= s for v in adj) for s in ls.s]
    assert v_sizes[0] == 0 and v_sizes == sorted(v_sizes)
    assert ls_E[1] == g.edge_keys()
    assert any(pivot[i] for i in range(1, ls.k + 1))
    for i in range(1, ls.k + 1):
        assert ls_estar[i] == {edge_key(v, pv) for v, pv in pivot[i].items()}
        for v, pv in pivot[i].items():
            assert pv in ls.D[i]
            assert pv in adj[v]
            assert len(adj[v]) >= ls.s[i]
        for v in range(g.n):
            incident = {(min(v, u), max(v, u)) for u in adj[v]}
            in_next = incident & ls_E[i + 1]
            if v in pivot[i]:
                cutoff = adj[v][pivot[i][v]]
                expected = {
                    (min(v, u), max(v, u)) for u, w in adj[v].items() if w < cutoff
                }
                # edges can also enter from the other endpoint's bunch
                assert expected <= in_next
            else:
                assert incident <= ls_E[i + 1]


@settings(max_examples=150, deadline=None)
@given(g=mixed_graphs(), data=st.data())
def test_spt_union_keeps_root_distances(g, data):
    roots = data.draw(st.lists(st.integers(min_value=0, max_value=g.n - 1), min_size=1, max_size=6))
    # the level: all of g's edges, or a random subset of them
    everything = data.draw(st.booleans())
    drawn = data.draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m))
    level = g.subgraph(mask_keys(g, np.array(drawn, dtype=bool) | everything))
    trees, _ = _level_trees(g, level.csr(), [frozenset(roots)])
    spt = mask_keys(g, trees[0])
    assert spt <= level.edge_keys()
    assert len(spt) <= len(roots) * (g.n - 1)
    # exact distances from every root, inf included, over the union alone
    assert np.array_equal(dijkstra(g.subgraph(spt).csr(), indices=roots), dijkstra(level.csr(), indices=roots))
    if not any(tied_source(level, r) for r in roots):
        # a tie-free root has one shortest-path tree: the canonical one
        _, parent = canonical_rows(level, roots, parents=True)
        assert spt == {edge_key(v, int(u)) for row in parent for v, u in enumerate(row) if u >= 0}


@settings(max_examples=100, deadline=None)
@given(g=mixed_graphs(), data=st.data())
def test_level_trees_match_one_dijkstra_call_per_sample(g, data):
    vertices = st.frozensets(st.integers(min_value=0, max_value=g.n - 1), max_size=g.n)
    samples = data.draw(st.lists(vertices, min_size=1, max_size=4))
    drawn = data.draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m))
    level = g.subgraph(mask_keys(g, np.array(drawn, dtype=bool)))
    rows = data.draw(st.integers(min_value=1, max_value=4))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wspan.fast2w, "_sweep_rows", lambda n: rows)
        trees, roots = _level_trees(g, level.csr(), samples)
    weights = {(u, v): w for u, v, w in level.edge_items()}
    assert [mask_keys(g, t) for t in trees] == [
        spt_edges_reference(g.n, weights, sorted(sample)) for sample in samples
    ]
    assert roots == len(frozenset().union(*samples))


@st.composite
def level_graphs(draw):
    """Trees, cycles, grids and sparse gnp graphs, whose first levels are all
    of g since no vertex reaches s_i, and dense gnp graphs, whose levels all
    differ.  On weighted grids and sparse gnp the levels' tree unions differ."""
    kind = draw(st.sampled_from(["tree", "cycle", "grid", "sparse-gnp", "dense-gnp"]))
    wmodel = draw(st.sampled_from(["unit", "uniform"]))
    seed = draw(st.integers(min_value=0, max_value=1000))
    if kind == "cycle":
        n = draw(st.integers(min_value=3, max_value=40))
        w = draw(st.lists(st.sampled_from([1.0, 2.0, 3.5]), min_size=n, max_size=n))
        return WeightedGraph(n, [(v, (v + 1) % n, w[v]) for v in range(n)])
    if kind == "grid":
        rows, cols = draw(st.integers(2, 9)), draw(st.integers(2, 9))
        return generate(GenSpec(family="grid", n=rows * cols, rows=rows, cols=cols, wmodel=wmodel, seed=seed))
    if kind == "tree":
        return generate(GenSpec(family="tree", n=draw(st.integers(2, 60)), wmodel=wmodel, seed=seed))
    if kind == "sparse-gnp":
        n = draw(st.integers(min_value=30, max_value=100))
        return gnp(n, 4.0 / n, seed, wmodel)
    n = draw(st.integers(min_value=16, max_value=48))
    return gnp(n, draw(st.floats(min_value=0.5, max_value=0.9)), seed, wmodel)


@settings(max_examples=80, deadline=None)
@given(g=level_graphs(), seed=st.integers(min_value=0, max_value=1000), data=st.data())
def test_fast2w_matches_per_level_reference(g, seed, data):
    # small c samples few roots at the first levels, so their tree unions differ
    c = data.draw(st.sampled_from([1.0, 1.5, 2.0]))
    rows = data.draw(st.integers(min_value=1, max_value=8))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wspan.fast2w, "_sweep_rows", lambda n: rows)
        res = build_fast_2w(g, c, seed)
    edges, stats = fast2w_reference(g, c, seed)
    sources = res.stats.pop("spt_sources")
    assert mask_keys(g, res.kept) == edges and res.stats == stats
    assert sources <= sampled_roots(stats)


def test_spt_sources_counts_the_dijkstra_roots(monkeypatch):
    g = generate(GenSpec(family="grid", n=196, rows=14, cols=14, wmodel="unit", seed=1))
    roots = []
    real = wspan.fast2w.dijkstra
    monkeypatch.setattr(
        wspan.fast2w, "dijkstra", lambda csr, **kw: roots.append(len(kw["indices"])) or real(csr, **kw)
    )
    res = build_fast_2w(g, 4.0, seed=1)
    # no grid vertex reaches s_i = 196 / 2^i, so every level is the whole grid
    assert res.stats["spt_sources"] == sum(roots) == g.n < sampled_roots(res.stats)


def test_fast2w_peak_stays_below_16_mib():
    n = 2048
    g = gnp(n, 2 * math.sqrt(n) / (n - 1), 5)
    g.edge_arrays(), g.csr(), g.incident_by_weight()  # the graph's own cached layouts
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build_fast_2w(g, 4.0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # holding every root's distance and predecessor rows at once takes 58 MiB
    assert peak - base <= 16 << 20


def test_rejects_small_c():
    with pytest.raises(ValueError):
        sample_levels(gnp(10, 0.5, 0), 0.5, seed=0)
    for c in (math.inf, math.nan):
        with pytest.raises(ValueError, match="c must be finite"):
            build_fast_2w(gnp(10, 0.5, 0), c, seed=0)


def test_tree_input_round_trips():
    g = generate(GenSpec(family="tree", n=25, wmodel="uniform", seed=6))
    res = build_fast_2w(g, 4.0, seed=0)
    assert mask_keys(g, res.kept) == g.edge_keys()
    idx = build_index(g)
    rep = verify_additive_W(g, res.to_graph(g), 0.0, idx=idx)
    assert rep.passed  # equality of all distances


def test_n4_exhaustive():
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (0, 3, 5.0), (0, 2, 4.0)])
    idx = build_index(g)
    for seed in range(10):
        res = build_fast_2w(g, 4.0, seed=seed)
        assert verify_subgraph(g, res.to_graph(g))
        assert verify_additive_W(g, res.to_graph(g), 2.0, idx=idx).passed


def test_subgraph_property_over_seeds():
    g = gnp(60, 0.15, 4, wmodel="exp-spread")
    for seed in range(5):
        res = build_fast_2w(g, 2.0, seed=seed)
        assert mask_keys(g, res.kept) <= g.edge_keys()
        assert verify_subgraph(g, res.to_graph(g))


def test_stretch_two_w_across_seeds():
    g = gnp(100, 0.12, 21, wmodel="uniform")
    idx = build_index(g)
    failures = []
    for seed in range(20):
        res = build_fast_2w(g, 4.0, seed=seed)
        rep = verify_additive_W(g, res.to_graph(g), 2.0, idx=idx)
        if not rep.passed:
            failures.append((seed, [v.to_dict() for v in rep.violations[:3]]))
    assert len(failures) <= 1, f"stretch failures at c=4: {failures}"


def test_stats_record_level_sizes():
    g = gnp(64, 0.2, 11)
    res = build_fast_2w(g, 2.0, seed=1)
    levels = res.stats["levels"]
    assert levels[0]["v_size"] == 0
    assert levels[1]["e_size"] == g.m  # E_1 is the full edge set
    assert res.stats["phase_edge_counts"]["final_dump"] == levels[-1]["e_size"]
    assert res.params["k"] == math.ceil(0.5 * math.log2(64))
