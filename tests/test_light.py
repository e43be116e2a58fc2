import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wspan import (
    GenSpec,
    WeightedGraph,
    build_index,
    generate,
    sample_levels,
    t_light_init,
)
from wspan.graph import edge_key

from conftest import (
    canonical_paths,
    canonical_rows,
    levels_reference,
    light_kept_edges,
    light_selections,
    mask_keys,
    neighbor_lists,
    small_graphs,
)


def star_15() -> WeightedGraph:
    return WeightedGraph(6, [(0, leaf, float(leaf)) for leaf in range(1, 6)])


def test_star_center_keeps_two_but_leaves_keep_all():
    g = star_15()
    li = t_light_init(g, 2)
    # center selects weights 1 and 2; every leaf re-adds its only edge
    assert light_selections(g, 2)[0] == [1, 2]
    assert mask_keys(g, li.kept) == light_kept_edges(g, 2)
    assert mask_keys(g, li.kept) == {(0, leaf) for leaf in range(1, 6)}
    assert len(li.kept_edges) == 5


def test_saturating_t_keeps_everything():
    g = star_15()
    li = t_light_init(g, 5)
    assert mask_keys(g, li.kept) == g.edge_keys()


def test_tie_at_cutoff_prefers_smaller_neighbor_id():
    # vertex 3 keeps 0 and one of the tied 1, 2; those two each keep their
    # weight-1 edges instead, so only 3's choice can keep (1, 3) or (2, 3)
    g = WeightedGraph(
        8,
        [(3, 2, 2.0), (3, 1, 2.0), (3, 0, 1.0), (1, 4, 1.0), (1, 5, 1.0), (2, 6, 1.0), (2, 7, 1.0)],
    )
    kept = mask_keys(g, t_light_init(g, 2).kept)
    assert (1, 3) in kept and (2, 3) not in kept
    assert kept == g.edge_keys() - {(2, 3)}


def test_t_zero_rejected():
    with pytest.raises(ValueError):
        t_light_init(star_15(), 0)


def test_light_neighbor_queries():
    g = star_15()
    kept = mask_keys(g, t_light_init(g, 2).kept)
    sel = light_selections(g, 2)
    assert (0, 5) in kept  # kept from the leaf's side
    assert 5 not in sel[0] and 0 in sel[5]
    assert (1, 2) not in kept  # non-adjacent
    assert all(u < v for u, v in kept)


@settings(max_examples=50, deadline=None)
@given(small_graphs(max_n=10))
def test_selection_counts_and_size_cap(g):
    adj = neighbor_lists(g)
    for t in (1, 2, 4):
        li = t_light_init(g, t)
        kept = mask_keys(g, li.kept)
        assert len(li.kept_edges) <= g.n * t
        assert kept == light_kept_edges(g, t)
        for u, sel in enumerate(light_selections(g, t)):
            assert len(sel) == min(len(adj[u]), t)
            assert all(edge_key(u, v) in kept for v in sel)
            if sel:
                cutoff = max(g.weight(u, v) for v in sel)
                for v, w in adj[u]:
                    if v not in sel:
                        assert w >= cutoff


@settings(max_examples=60, deadline=None)
@given(g=small_graphs(max_n=12), t=st.integers(min_value=1, max_value=12), seed=st.integers(0, 3))
def test_array_selections_match_per_vertex_reference(g, t, seed):
    assert mask_keys(g, t_light_init(g, t).kept) == light_kept_edges(g, t)
    ls = sample_levels(g, 1.0, seed)
    D, _, estar, E = levels_reference(g, 1.0, seed)
    assert ls.D == D
    assert [mask_keys(g, x) for x in ls.estar] == estar
    assert {i: mask_keys(g, x) for i, x in ls.E.items()} == E


@settings(max_examples=40, deadline=None)
@given(g=small_graphs(max_n=12), t=st.integers(min_value=1, max_value=12), seed=st.integers(0, 3))
def test_incident_edges_are_sorted_once_per_graph(g, t, seed):
    # every light init and fast2w's levels read one cached, read-only sort,
    # and their outputs are those of the per-vertex references every time
    first = g.incident_by_weight()
    for _ in range(2):
        assert mask_keys(g, t_light_init(g, t).kept) == light_kept_edges(g, t)
        ls = sample_levels(g, 1.0, seed)
        D, _, estar, E = levels_reference(g, 1.0, seed)
        assert ls.D == D and [mask_keys(g, x) for x in ls.estar] == estar
        assert {i: mask_keys(g, x) for i, x in ls.E.items()} == E
        again = g.incident_by_weight()
        assert all(x is y for x, y in zip(again, first))
    for x in first:
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[:1] = 0
    rows = list(zip(*(x.tolist() for x in (first[0], first[2], first[1]))))
    assert rows == sorted(rows)  # by (tail, w, head)


@settings(max_examples=50, deadline=None)
@given(small_graphs(max_n=10))
def test_monotone_in_t(g):
    prev = set()
    for t in (1, 2, 3, 4):
        cur = mask_keys(g, t_light_init(g, t).kept)
        assert prev <= cur
        prev = cur


def test_light_neighbor_density_on_missing_paths():
    """Paths missing l edges have ~t*l vertices with a light path-neighbor.

    Statistical calibration: per-pair misses of the t*l/8 floor are warned
    about, the corpus-wide aggregate must hold.
    """
    total_found = 0.0
    total_floor = 0.0
    per_pair_misses = []
    for seed in range(4):
        g = generate(GenSpec(family="gnp", n=60, p=0.25, wmodel="exp-spread", seed=seed))
        idx = build_index(g)
        W = canonical_rows(g)[1]
        path_of = canonical_paths(g)
        t = 4
        kept = mask_keys(g, t_light_init(g, t).kept)
        adj = neighbor_lists(g)
        pairs = [(u, v) for u in range(0, 60, 7) for v in range(3, 60, 9) if u < v]
        for u, v in pairs:
            if not (idx[u][v] < float("inf")):
                continue
            path = path_of(u, v)
            on_path = set(path)
            missing = sum(
                1 for a, b in zip(path, path[1:]) if (min(a, b), max(a, b)) not in kept
            )
            if missing == 0:
                continue
            wmax = W[u][v]
            members = set()
            for y in path:
                for x, w in adj[y]:
                    if w <= wmax and edge_key(x, y) in kept:
                        members.add(x)
            floor = t * missing / 8.0
            total_found += len(members)
            total_floor += floor
            if len(members) < floor:
                per_pair_misses.append((seed, u, v, len(members), floor))
    for miss in per_pair_misses:
        warnings.warn(f"light-neighbor floor missed on pair {miss}")
    assert total_floor > 0, "corpus produced no paths with missing edges"
    assert total_found >= total_floor
