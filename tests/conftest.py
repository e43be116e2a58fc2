"""Shared oracles and graph strategies.

The oracles here are deliberately independent of the package's shortest-path
code: Floyd-Warshall for distances, exhaustive path enumeration for the
canonical-path rule, rebuild-from-scratch simulations of the greedy
multiplicative spanner and of path buying, and per-vertex loops for the light
selections and the +2W levels.  They read a graph only through edge_items().
Expected values in the tests are computed by these, never by the code under
test.  minimax_path_weight is a cross-check rather than an oracle: it reads
the distances of the index it is given.  canonical_paths is no oracle
either: it walks the package's own parent rows, for tests that read the
canonical paths of many pairs of one graph.  tied_source classifies sources
by scipy's distances, the ones the package's kernels see.  forbid_full_index
is a guard for the tests that check G without its index, and sparse_800
gives the graphs of their memory checks.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

import wspan.shortest
from wspan import GenSpec, WeightedGraph, generate
from wspan.shortest import canonical_rows


def neighbor_lists(g: WeightedGraph) -> list[list[tuple[int, float]]]:
    """Per-vertex (neighbor, weight) lists sorted by neighbor id."""
    adj: list[list[tuple[int, float]]] = [[] for _ in range(g.n)]
    for u, v, w in g.edge_items():
        adj[u].append((v, w))
        adj[v].append((u, w))
    return [sorted(lst) for lst in adj]


def light_selections(g: WeightedGraph, t: int) -> list[list[int]]:
    """Each vertex's t lightest neighbors, by (weight, neighbor id)."""
    return [[v for _, v in sorted((w, v) for v, w in lst)[:t]] for lst in neighbor_lists(g)]


def light_kept_edges(g: WeightedGraph, t: int) -> set[tuple[int, int]]:
    """Union over both endpoints of the light selections."""
    return {(min(u, v), max(u, v)) for u, sel in enumerate(light_selections(g, t)) for v in sel}


def levels_reference(g: WeightedGraph, c: float, seed: int):
    """(D, pivot, estar, E) of the +2W levels, one vertex at a time.

    The samples replay the documented draws: level i in [1, k] takes n
    uniforms from the seeded PCG64 stream and keeps the vertices below
    min(1, c*log2(n)/s_i).  A vertex of degree >= s_i pivots on its
    lightest neighbor in D_i, by (weight, neighbor id), and passes the
    edges strictly lighter than that pivot edge to level i + 1; every other
    vertex passes all its edges.  Lists are indexed by level, level 0 empty.
    """
    n = g.n
    adj = neighbor_lists(g)
    k = max(0, math.ceil(0.5 * math.log2(n))) if n >= 2 else 0
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    D, pivot, estar = [set()], [{}], [set()]
    E = {1: {(u, v) for u, v, _ in g.edge_items()}}
    for i in range(1, k + 1):
        s_i = n / 2.0**i
        draws = rng.random(n)
        D.append({v for v in range(n) if draws[v] < min(1.0, c * math.log2(n) / s_i)})
        pv = {}
        for v in range(n):
            near = [(w, u) for u, w in adj[v] if u in D[i]]
            if len(adj[v]) >= s_i and near:
                pv[v] = min(near)
        pivot.append({v: u for v, (_, u) in pv.items()})
        estar.append({(min(v, u), max(v, u)) for v, (_, u) in pv.items()})
        E[i + 1] = {
            (min(v, u), max(v, u))
            for v in range(n)
            for u, w in adj[v]
            if v not in pv or w < pv[v][0]
        }
    return D, pivot, estar, E


def canonical_paths(g: WeightedGraph):
    """path(u, v): the canonical u-v vertex sequence, as path_vertices gives it.

    The parent rows of every source come from one canonical_rows call, so
    each path is a walk up a stored row instead of one Dijkstra per pair.
    """
    _, parent = canonical_rows(g, parents=True)

    def path(u: int, v: int) -> list[int]:
        seq = [v]
        while seq[-1] != u:
            x = int(parent[u, seq[-1]])
            if x < 0:
                raise ValueError(f"no path between {u} and {v}")
            seq.append(x)
        seq.reverse()
        return seq

    return path


def tied_source(g: WeightedGraph, s: int) -> bool:
    """True iff some vertex has two exact shortest-path predecessors from s."""
    dist = dijkstra(g.csr(), indices=s)
    adj = neighbor_lists(g)
    for v in range(g.n):
        if v != s and math.isfinite(dist[v]):
            if sum(1 for u, w in adj[v] if dist[u] + w == dist[v]) > 1:
                return True
    return False


def forbid_full_index(monkeypatch) -> list:
    """Fail every canonical_rows call over all vertices, the one build_index
    makes; record the sources of the others."""
    calls = []
    real = wspan.shortest.canonical_rows

    def rows(g, sources=None, parents=False):
        if sources is None:
            raise AssertionError("full index built")
        calls.append(list(sources))
        return real(g, sources, parents)

    # index_rows and build_index reach the kernel through this module attribute
    monkeypatch.setattr(wspan.shortest, "canonical_rows", rows)
    return calls


def brute_force_apsp(g: WeightedGraph) -> np.ndarray:
    """Floyd-Warshall on a dense matrix; cubic and Dijkstra-free."""
    n = g.n
    d = np.full((n, n), math.inf)
    np.fill_diagonal(d, 0.0)
    for u, v, w in g.edge_items():
        d[u, v] = d[v, u] = w
    for k in range(n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


def enumerate_shortest_paths(g: WeightedGraph, u: int, v: int) -> list[tuple[int, ...]]:
    """All simple u-v paths of minimum total weight (tiny graphs only)."""
    adj = neighbor_lists(g)
    best = [math.inf]
    found: list[tuple[tuple[int, ...], float]] = []

    def walk(x: int, seen: set[int], acc: float, trail: list[int]):
        if acc > best[0]:
            return
        if x == v:
            if acc < best[0]:
                best[0] = acc
                found.clear()
            if acc == best[0]:
                found.append((tuple(trail), acc))
            return
        for y, w in adj[x]:
            if y not in seen:
                seen.add(y)
                trail.append(y)
                walk(y, seen, acc + w, trail)
                trail.pop()
                seen.remove(y)

    walk(u, {u}, 0.0, [u])
    return [p for p, acc in found if acc == best[0]]


def oracle_canonical_path(g: WeightedGraph, u: int, v: int) -> tuple[int, ...]:
    """Apply the documented rule to the enumerated shortest paths.

    Minimum hop count first, then the lexicographically smallest sorted
    edge-key list.
    """

    def key(path: tuple[int, ...]):
        eks = sorted((min(a, b), max(a, b)) for a, b in zip(path, path[1:]))
        return (len(path) - 1, eks)

    cands = enumerate_shortest_paths(g, u, v)
    assert cands, f"no path between {u} and {v}"
    return min(cands, key=key)


def minimax_path_weight(g: WeightedGraph, idx) -> np.ndarray:
    """Per-pair minimum, over all shortest paths, of the heaviest edge.

    Used as a small-n cross-check: the canonical path's heaviest edge can
    only be >= this value, and the gap measures how much slack the canonical
    choice grants the additive bounds.  Computed by dynamic programming over
    the shortest-path DAG of every source, read off idx.dist; intended for
    n <= ~50.
    """
    n = g.n
    adj = neighbor_lists(g)
    out = np.full((n, n), math.inf)
    np.fill_diagonal(out, 0.0)
    for s in range(n):
        dist = idx.dist[s]
        order = np.argsort(dist, kind="stable")
        best = [math.inf] * n
        best[s] = 0.0
        for v in order.tolist():
            if v == s or not np.isfinite(dist[v]):
                continue
            for u, w in adj[v]:
                if np.isfinite(dist[u]) and dist[u] + w == dist[v]:
                    cand = best[u] if best[u] >= w else w
                    if cand < best[v]:
                        best[v] = cand
        out[s] = best
    return out


def greedy_mult_oracle(g: WeightedGraph, k: int) -> set[tuple[int, int]]:
    """Simulate the multiplicative greedy with full recomputation."""
    stretch = 2 * k - 1
    kept: list[tuple[int, int, float]] = []
    for u, v, w in sorted(g.edge_items(), key=lambda e: (e[2], e[0], e[1])):
        d = brute_force_apsp(WeightedGraph(g.n, kept))[u, v]
        if d > stretch * w:
            kept.append((u, v, w))
    return {(u, v) for u, v, _ in kept}


def path_buying_oracle(
    g: WeightedGraph,
    start: set[tuple[int, int]],
    pairs: list[tuple[int, int]],
    c: float,
    by_dist: bool,
) -> tuple[set[tuple[int, int]], list[tuple[int, int]]]:
    """Simulate path buying with a from-scratch distance per scanned pair.

    The connected pairs (u < v) are scanned by (W, d_G, u, v) when by_dist,
    else by (W, u, v), where W is the heaviest edge of the oracle canonical
    path.  Each pair's current d_H is recomputed with brute_force_apsp on
    the edges held so far, and its canonical path is bought when d_H exceeds
    d_G + c * W.  Returns (final edges, pairs bought).  Use integer weights,
    so that Floyd-Warshall sums are exact.
    """
    d = brute_force_apsp(g)
    scan = []
    for u, v in pairs:
        if not math.isfinite(d[u, v]):
            continue
        path = oracle_canonical_path(g, u, v)
        w = max(g.weight(a, b) for a, b in zip(path, path[1:]))
        key = (w, d[u, v], u, v) if by_dist else (w, u, v)
        scan.append((key, u, v, path, d[u, v] + c * w))
    edges = set(start)
    bought = []
    for _, u, v, path, thresh in sorted(scan):
        if brute_force_apsp(g.subgraph(edges))[u, v] > thresh:
            edges.update((min(a, b), max(a, b)) for a, b in zip(path, path[1:]))
            bought.append((u, v))
    return edges, bought


@st.composite
def small_graphs(
    draw, max_n: int = 10, integer_weights: bool = True, connected: bool = False, weights=None
):
    """Random small weighted graphs; integer weights make ties exact.

    weights, a strategy of floats, replaces the integer or continuous
    weight choice when given.
    """
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    if weights is not None:
        wgen = weights
    elif integer_weights:
        wgen = st.integers(min_value=1, max_value=5).map(float)
    else:
        wgen = st.floats(min_value=1.0, max_value=50.0, allow_nan=False, allow_infinity=False)
    edges = []
    for (u, v), k in zip(pairs, keep):
        if k:
            edges.append((u, v, draw(wgen)))
    if connected:
        present = {e[:2] for e in edges}
        for v in range(1, n):
            if not any(v in p for p in present):
                u = draw(st.integers(min_value=0, max_value=v - 1))
                if (u, v) not in present:
                    edges.append((u, v, draw(wgen)))
                    present.add((u, v))
    return WeightedGraph(n, edges)


# weight sets: all ties, small integers, decimals whose float sums are
# inexact, and continuous weights (no ties)
WEIGHTS = {
    "unit": st.just(1.0),
    "int": st.integers(min_value=1, max_value=5).map(float),
    "decimal": st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.1]),
    "float": st.floats(min_value=1.0, max_value=50.0, allow_nan=False, allow_infinity=False),
}


@st.composite
def mixed_graphs(draw):
    """Disjoint unions of one or two small graphs, each with its own weight set.

    A union of a tied and a tie-free part puts sources with and without
    distance ties in one block.
    """
    edges, n = [], 0
    for kind in draw(st.lists(st.sampled_from(sorted(WEIGHTS)), min_size=1, max_size=2)):
        part = draw(small_graphs(max_n=7, weights=WEIGHTS[kind]))
        edges += [(u + n, v + n, w) for u, v, w in part.edge_items()]
        n += part.n
    return WeightedGraph(n, edges)


def sparse_800(family: str) -> WeightedGraph:
    """An n = 800 gnp or geometric graph, for the index-free memory checks;
    with its cached layouts built, so a traced run counts only the check."""
    if family == "gnp":
        g = generate(GenSpec(family="gnp", n=800, p=2 * math.sqrt(800) / 799, wmodel="uniform", seed=5))
    else:
        g = generate(GenSpec(family="geometric", n=800, radius=0.08, seed=5))
    g.csr(), g.edge_arrays()
    return g


@pytest.fixture(scope="session")
def medium_gnp() -> WeightedGraph:
    return generate(GenSpec(family="gnp", n=50, p=0.15, wmodel="uniform", seed=11))


@pytest.fixture(scope="session")
def medium_grid() -> WeightedGraph:
    return generate(GenSpec(family="grid", n=49, rows=7, cols=7, wmodel="unit", seed=4))
