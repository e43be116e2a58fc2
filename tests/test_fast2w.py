import math

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
from wspan.fast2w import _spt_edges
from wspan.graph import edge_key
from wspan.shortest import canonical_rows

from conftest import levels_reference, mask_keys, mixed_graphs, neighbor_lists, tied_source


def gnp(n, p, seed, wmodel="uniform"):
    return generate(GenSpec(family="gnp", n=n, p=p, wmodel=wmodel, seed=seed))


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
    spt = mask_keys(g, _spt_edges(g, level.csr(), roots))
    assert spt <= level.edge_keys()
    assert len(spt) <= len(roots) * (g.n - 1)
    # exact distances from every root, inf included, over the union alone
    assert np.array_equal(dijkstra(g.subgraph(spt).csr(), indices=roots), dijkstra(level.csr(), indices=roots))
    if not any(tied_source(level, r) for r in roots):
        # a tie-free root has one shortest-path tree: the canonical one
        _, parent = canonical_rows(level, roots, parents=True)
        assert spt == {edge_key(v, int(u)) for row in parent for v, u in enumerate(row) if u >= 0}


def test_rejects_small_c():
    with pytest.raises(ValueError):
        sample_levels(gnp(10, 0.5, 0), 0.5, seed=0)
    for c in (math.inf, math.nan):
        with pytest.raises(ValueError, match="c must be finite"):
            build_fast_2w(gnp(10, 0.5, 0), c, seed=0)


def test_tree_input_round_trips():
    g = generate(GenSpec(family="tree", n=25, wmodel="uniform", seed=6))
    res = build_fast_2w(g, 4.0, seed=0)
    assert res.edges == g.edge_keys()
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
        assert res.edges <= g.edge_keys()
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
