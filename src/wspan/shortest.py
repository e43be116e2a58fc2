"""Canonical shortest paths: per-pair unique, subpath-closed, reversal-safe.

Among the shortest u-v paths, the canonical one is the path minimizing
(total weight, hop count, sorted list of edge keys) lexicographically, where
an edge key is the pair (min endpoint, max endpoint).  All three components
are invariant under path reversal and additive under concatenation, so the
minimizer is unique per pair (distinct simple paths between the same
endpoints have distinct edge sets), every contiguous subpath of a canonical
path is the canonical path of its endpoints, and two canonical paths
intersect in at most one contiguous segment.

The rule prefers the lower-id neighbor in the common symmetric cases (e.g.
both shortest paths around an even cycle) while remaining consistent across
sources, which a naive "smaller predecessor id" relaxation is not.

Distance ties are detected with exact float equality: the intended regimes
are integer-valued weights (float arithmetic is exact) and continuous random
weights (ties have probability zero).
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _sp_dijkstra

from .graph import WeightedGraph

INF = math.inf

Adjacency = list[list[tuple[int, float]]]


class ShortestPathIndex:
    """All-pairs canonical shortest-path data for one graph.

    dist[u][v]   exact shortest-path distance (inf when disconnected)
    W[u][v]      heaviest edge weight on the canonical u-v path (inf when
                 disconnected, 0 on the diagonal)
    parent[s][v] predecessor of v on the canonical path from s (-1 for the
                 source itself and for unreachable vertices)

    Immutable after construction; safe for concurrent reads.
    """

    __slots__ = ("n", "dist", "W", "parent")

    def __init__(self, n: int, dist: np.ndarray, W: np.ndarray, parent: np.ndarray):
        self.n = n
        self.dist = dist
        self.W = W
        self.parent = parent


def graph_csr(n: int, items: list[tuple[int, int, float]]) -> csr_matrix:
    """Symmetric CSR matrix for scipy's shortest-path routines."""
    if not items:
        return csr_matrix((n, n))
    us = [e[0] for e in items] + [e[1] for e in items]
    vs = [e[1] for e in items] + [e[0] for e in items]
    ws = [e[2] for e in items] * 2
    return csr_matrix((ws, (us, vs)), shape=(n, n))


def distance_matrix(
    n: int, items: list[tuple[int, int, float]], sources: list[int] | None = None
) -> np.ndarray:
    """Distances of an arbitrary weighted edge list (C-speed).

    Row i holds the distances from sources[i]; sources None means every
    vertex, giving the n x n all-pairs matrix.
    """
    return _sp_dijkstra(graph_csr(n, items), directed=True, indices=sources)


def canonical_tree_from_dist(
    adj: Adjacency, s: int, dist: list[float]
) -> tuple[list[int], list[float]]:
    """Canonical parents and running-max edge weights.

    dist must be the exact shortest-path distances from s over adj.  Among
    the predecessors u with dist[u] + w == dist[v], the parent minimizes the
    hop count and then the sorted edge-key list of the whole path.  Edge keys
    are encoded as min(u,v)*n + max(u,v) so the tie lists are flat int
    tuples.
    """
    n = len(adj)
    parent = [-1] * n
    hops = [0] * n
    heavy = [0.0] * n
    ties: list[tuple[int, ...] | None] = [None] * n
    ties[s] = ()
    order = sorted((dist[v], v) for v in range(n) if dist[v] < INF)
    for dv, v in order:
        if v == s:
            continue
        best_h = -1
        cands: list[tuple[int, float]] = []
        for u, w in adj[v]:
            du = dist[u]
            if du < INF and du + w == dv:
                h = hops[u] + 1
                if best_h < 0 or h < best_h:
                    best_h = h
                    cands = [(u, w)]
                elif h == best_h:
                    cands.append((u, w))
        if not cands:
            raise AssertionError(f"no exact predecessor for vertex {v}; inconsistent dist array")
        if len(cands) == 1:
            u, w = cands[0]
            tie_u = ties[u]
            assert tie_u is not None
            ek = u * n + v if u < v else v * n + u
            pos = bisect_left(tie_u, ek)
            best_tie = tie_u[:pos] + (ek,) + tie_u[pos:]
        else:
            best_tie = None
            u, w = cands[0]
            for cu, cw in cands:
                tie_u = ties[cu]
                assert tie_u is not None
                ek = cu * n + v if cu < v else v * n + cu
                pos = bisect_left(tie_u, ek)
                cand_tie = tie_u[:pos] + (ek,) + tie_u[pos:]
                if best_tie is None or cand_tie < best_tie:
                    best_tie = cand_tie
                    u, w = cu, cw
        parent[v] = u
        hops[v] = best_h
        heavy[v] = heavy[u] if heavy[u] >= w else w
        ties[v] = best_tie
    return parent, heavy


class EdgeArrays:
    """Directed edge arrays (both orientations) for vectorized DAG tests."""

    __slots__ = ("n", "us", "vs", "ws", "adj")

    def __init__(self, n: int, items: list[tuple[int, int, float]]):
        self.n = n
        us = [e[0] for e in items] + [e[1] for e in items]
        vs = [e[1] for e in items] + [e[0] for e in items]
        ws = [e[2] for e in items] * 2
        self.us = np.array(us, dtype=np.int64)
        self.vs = np.array(vs, dtype=np.int64)
        self.ws = np.array(ws, dtype=float)
        adj: Adjacency = [[] for _ in range(n)]
        for u, v, w in items:
            adj[u].append((v, w))
            adj[v].append((u, w))
        self.adj = adj


def canonical_tree_arrays(
    ea: EdgeArrays, s: int, dist_row: np.ndarray, need_weights: bool = True
) -> tuple[list[int], list[float]]:
    """Canonical tree for one source, vectorized when no distance ties exist.

    Every exact shortest-path predecessor is found with one array pass; if
    each reachable vertex has a unique predecessor the parents are forced
    and no tie-breaking is involved.  Otherwise the reference per-vertex
    rule in canonical_tree_from_dist decides.  Both paths produce identical
    results on tie-free inputs.
    """
    n = ea.n
    reach = np.isfinite(dist_row)
    mask = reach[ea.us] & reach[ea.vs] & (dist_row[ea.us] + ea.ws == dist_row[ea.vs])
    heads = ea.vs[mask]
    counts = np.bincount(heads, minlength=n)
    if (counts > 1).any():
        return canonical_tree_from_dist(ea.adj, s, dist_row.tolist())
    parent_arr = np.full(n, -1, dtype=np.int64)
    parent_arr[heads] = ea.us[mask]
    parent = parent_arr.tolist()
    heavy = [0.0] * n
    if need_weights:
        wpar_arr = np.zeros(n)
        wpar_arr[heads] = ea.ws[mask]
        wpar = wpar_arr.tolist()
        for v in np.argsort(dist_row, kind="stable").tolist():
            p = parent[v]
            if p >= 0:
                heavy[v] = heavy[p] if heavy[p] >= wpar[v] else wpar[v]
    return parent, heavy


def sssp_canonical(g: WeightedGraph, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Distances and canonical parents from source s.

    dist[v] is inf for vertices disconnected from s; parent[v] is -1 for the
    source and for unreachable vertices.
    """
    if not 0 <= s < g.n:
        raise ValueError(f"source {s} out of range for n={g.n}")
    dist = _sp_dijkstra(graph_csr(g.n, g.edge_items()), directed=True, indices=s)
    parent, _ = canonical_tree_from_dist(g.adjacency(), s, dist.tolist())
    return dist, np.array(parent, dtype=np.int32)


def build_index(g: WeightedGraph) -> ShortestPathIndex:
    """All-pairs canonical index: n single-source computations.

    The distance phase is batched through scipy; parent selection and
    heaviest-edge tracking run the canonical rule per source.
    """
    n = g.n
    if n == 0:
        z = np.zeros((0, 0))
        return ShortestPathIndex(0, z, z.copy(), z.astype(np.int32))
    items = g.edge_items()
    ea = EdgeArrays(n, items)
    dist = _sp_dijkstra(graph_csr(n, items), directed=True)
    W = np.full((n, n), INF)
    parent = np.full((n, n), -1, dtype=np.int32)
    for s in range(n):
        p, heavy = canonical_tree_arrays(ea, s, dist[s])
        parent[s] = p
        wrow = np.array(heavy)
        wrow[np.isinf(dist[s])] = INF
        W[s] = wrow
        W[s, s] = 0.0
    return ShortestPathIndex(n, dist, W, parent)


def path_vertices(idx: ShortestPathIndex, u: int, v: int) -> list[int]:
    """Vertex sequence of the canonical u-v path via u's parent row."""
    if u == v:
        return [u]
    if not np.isfinite(idx.dist[u][v]):
        raise ValueError(f"no path between {u} and {v}")
    prow = idx.parent[u]
    seq = [v]
    x = v
    while x != u:
        x = int(prow[x])
        seq.append(x)
    seq.reverse()
    return seq
