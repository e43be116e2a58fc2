import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wspan import (
    GenSpec,
    WeightedGraph,
    build_4w_emulator,
    build_index,
    generate,
    verify_additive_W,
    verify_non_contracting,
    verify_subgraph,
)

from conftest import emulator_reference, forbid_full_index, mixed_graphs, small_graphs


def dense(n, seed):
    return generate(GenSpec(family="gnp", n=n, p=0.5, wmodel="uniform", seed=seed))


def test_tree_distances_preserved_exactly():
    g = generate(GenSpec(family="tree", n=20, wmodel="uniform", seed=2))
    idx = build_index(g)
    em = build_4w_emulator(g, seed=0, idx=idx)
    # t saturates every degree, so all graph edges survive with tag g
    assert {k for k, (_, tag) in em.edges.items() if tag == "g"} == g.edge_keys()
    h = em.to_graph()
    assert verify_non_contracting(g, h, idx=idx).passed
    assert verify_additive_W(g, h, 0.0, idx=idx).passed  # d_H == d_G


def test_two_vertex_graph():
    g = WeightedGraph(2, [(0, 1, 4.0)])
    em = build_4w_emulator(g, seed=1)
    assert (0, 1) in em.edges
    assert em.edges[(0, 1)][0] == 4.0


def test_edgeless_graph_has_no_edges():
    for seed in range(5):
        assert build_4w_emulator(WeightedGraph(8, []), seed=seed).edges == {}


def test_rejects_single_vertex():
    with pytest.raises(ValueError):
        build_4w_emulator(WeightedGraph(1, []), seed=0)


def test_virtual_edges_carry_exact_distances():
    g = dense(60, seed=7)
    idx = build_index(g)
    em = build_4w_emulator(g, seed=3, idx=idx)
    assert em.virtual_count > 0
    for (u, v), (w, tag) in em.edges.items():
        if tag == "v":
            assert w == idx[u][v]
        else:
            assert w == g.weight(u, v)
    # emulators are not subgraphs once a virtual shortcut appears
    shortcut = any(
        tag == "v" and (not g.has_edge(u, v) or g.weight(u, v) != w)
        for (u, v), (w, tag) in em.edges.items()
    )
    assert shortcut == (not verify_subgraph(g, em.to_graph()))


def test_duplicate_pair_keeps_minimum_weight():
    # force the sampled pair onto a heavy direct edge with a light detour
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 10.0)])
    idx = build_index(g)
    for seed in range(60):
        em = build_4w_emulator(g, seed=seed, idx=idx)
        if 0 in em.S and 2 in em.S:
            w, tag = em.edges[(0, 2)]
            assert w == 2.0 and tag == "v"
            break
    else:
        pytest.fail("no seed sampled both endpoints")


def test_non_contraction_every_seed():
    g = dense(40, seed=5)
    idx = build_index(g)
    for seed in range(10):
        em = build_4w_emulator(g, seed=seed, idx=idx)
        assert verify_non_contracting(g, em.to_graph(), idx=idx).passed


def test_sample_size_bound_and_stretch_across_seeds():
    failures = []
    for n, gseed in ((100, 1), (150, 2)):
        g = dense(n, seed=gseed)
        idx = build_index(g)
        for seed in range(20):
            em = build_4w_emulator(g, seed=seed, idx=idx)
            assert len(em.S) <= 2 * n ** (2.0 / 3.0)
            h = em.to_graph()
            assert verify_non_contracting(g, h, idx=idx).passed
            rep = verify_additive_W(g, h, 4.0, idx=idx)
            if not rep.passed:
                failures.append((n, seed, [v.to_dict() for v in rep.violations[:3]]))
    assert len(failures) <= 2, f"emulator stretch failures: {failures}"


def test_size_budget():
    g = dense(80, seed=9)
    em = build_4w_emulator(g, seed=4)
    t = em.params["t"]
    assert em.m <= g.n * t + len(em.S) ** 2


# two weighted 6-cliques: seed 3 samples 0, 1, 4, 5 and 7, 9, 10, across both
TWO_CLIQUES = WeightedGraph(
    12,
    [
        (u, v, float(1 + (7 * u + v) % 5))
        for a in (0, 6)
        for u, v in itertools.combinations(range(a, a + 6), 2)
    ],
)


@settings(max_examples=60, deadline=None)
@given(g=small_graphs(max_n=14), seed=st.integers(min_value=0, max_value=1000))
@example(g=TWO_CLIQUES, seed=3)
def test_emulator_without_index_reads_sample_distances_only(g, seed):
    indexed = build_4w_emulator(g, seed, idx=build_index(g))
    # fails on build_index's all-pairs Dijkstra; records any W or parent rows
    with pytest.MonkeyPatch.context() as mp:
        calls = forbid_full_index(mp)
        alone = build_4w_emulator(g, seed)
    assert calls == []
    assert alone.edges == indexed.edges
    assert (alone.S, alone.params) == (indexed.S, indexed.params)


def emulator_rows(em) -> list[tuple[int, int, float, str]]:
    tags = ["v" if x else "g" for x in em.virtual.tolist()]
    return list(zip(em.a.tolist(), em.b.tolist(), em.w.tolist(), tags))


@settings(max_examples=80, deadline=None)
@given(g=mixed_graphs(), seed=st.integers(min_value=0, max_value=1000))
def test_emulator_arrays_match_the_pairwise_merge(g, seed):
    expected = emulator_reference(g, seed)
    for idx in (None, build_index(g)):
        em = build_4w_emulator(g, seed, idx=idx)
        assert emulator_rows(em) == expected
        assert em.m == len(expected) and em.virtual_count == sum(tag == "v" for *_, tag in expected)
        assert em.edges == {(u, v): (w, tag) for u, v, w, tag in expected}
        assert em.to_graph() == WeightedGraph(g.n, [(u, v, w) for u, v, w, _ in expected])


def test_sampled_kept_edge_at_its_distance_stays_a_graph_edge():
    # every edge is a shortest path, so a sampled pair that is an edge has d == w
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    for seed in range(60):
        em = build_4w_emulator(g, seed=seed)
        if {0, 1} <= set(em.S):
            assert em.edges[(0, 1)] == (1.0, "g")
            assert emulator_rows(em) == emulator_reference(g, seed)
            break
    else:
        pytest.fail("no seed sampled both endpoints")
