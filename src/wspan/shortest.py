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

The rule serves W, which the greedy builders and the verifier read through
index_rows, and path buying (path_vertices).  The +2W spanner needs exact
distances only, so fast2w takes scipy's own shortest-path trees and does
not use this module.

One kernel, canonical_rows, computes the canonical trees behind
build_index, index_rows, sssp_canonical and path_vertices.
scipy gives the exact distances from the requested sources.  The
sources are then taken a block at a time: one gather-and-compare over the
edge arrays finds every tight edge of the block, a source is tie-free when
each reachable vertex has exactly one tight in-edge (which is then its
parent), and W(s, v) follows for the whole block by pointer doubling up the
parent trees.  Each source whose distances tie goes alone through the
per-vertex rule in canonical_tree_from_dist, over neighbor lists read off
the graph's CSR once per call and only when some source ties.  Blocks are
sized from n and m so that the kernel's temporaries beyond the returned
arrays stay within _BLOCK_BYTES (1 MiB).  The CSR and the edge arrays are
the graph's own cached layouts (WeightedGraph.csr, edge_arrays).

A call writes the W rows (build_index, index_rows) or the parent rows
(sssp_canonical, path_vertices) its caller reads, never both.

Distance ties are detected with exact float equality: the intended regimes
are integer-valued weights (float arithmetic is exact) and continuous random
weights (ties have probability zero).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _sp_dijkstra

from .graph import WeightedGraph

INF = math.inf

Adjacency = Sequence[Sequence[tuple[int, float]]]


class ShortestPathIndex:
    """All-pairs canonical shortest-path data for one graph: 16 * n^2 bytes.

    dist[u][v]   exact shortest-path distance (inf when disconnected)
    W[u][v]      heaviest edge weight on the canonical u-v path (inf when
                 disconnected, 0 on the diagonal)

    Canonical paths are not stored; path_vertices computes one on demand.
    Immutable after construction; safe for concurrent reads.
    """

    __slots__ = ("n", "dist", "W")

    def __init__(self, n: int, dist: np.ndarray, W: np.ndarray):
        self.n = n
        self.dist = dist
        self.W = W


def distance_matrix(csr: csr_matrix, sources: Sequence[int] | None = None) -> np.ndarray:
    """Distances over a symmetric CSR matrix such as WeightedGraph.csr() (C-speed).

    Row i holds the distances from sources[i]; sources None means every
    vertex, giving the n x n all-pairs matrix.
    """
    return _sp_dijkstra(csr, directed=True, indices=sources)


def _neighbor_lists(g: WeightedGraph) -> list[list[tuple[int, float]]]:
    """Per-vertex (neighbor, weight) lists in neighbor id order, read off g.csr()."""
    csr = g.csr()
    ptr, heads, ws = csr.indptr.tolist(), csr.indices.tolist(), csr.data.tolist()
    return [list(zip(heads[lo:hi], ws[lo:hi])) for lo, hi in zip(ptr, ptr[1:])]


def _absorbed(s: int, v: int) -> ValueError:
    # a tight predecessor not yet placed sits at v's own distance: dist[u] + w
    # rounded back to dist[u], so the float sums cannot order the two
    return ValueError(
        f"source {s}: vertex {v} has a tight neighbor at its own distance; float sums "
        "absorbed an edge weight, so shortest paths cannot be told apart"
    )


def canonical_tree_from_dist(
    adj: Adjacency, s: int, dist: list[float]
) -> tuple[list[int], list[float]]:
    """Canonical parents and running-max edge weights.

    dist must be the exact shortest-path distances from s over adj.  Among
    the predecessors u with dist[u] + w == dist[v], the parent minimizes the
    hop count and then the sorted edge-key list of the whole path.  Edge keys
    are encoded as min(u,v)*n + max(u,v) so the tie lists are flat int
    tuples.  Raises ValueError when a float sum absorbed an edge weight (a
    tight neighbor at v's own distance) or dist does not fit adj.
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
            raise ValueError(
                f"source {s}: vertex {v} has no exact predecessor; inconsistent dist array"
            )
        if len(cands) == 1:
            u, w = cands[0]
            tie_u = ties[u]
            if tie_u is None:
                raise _absorbed(s, v)
            ek = u * n + v if u < v else v * n + u
            pos = bisect_left(tie_u, ek)
            best_tie = tie_u[:pos] + (ek,) + tie_u[pos:]
        else:
            best_tie = None
            u, w = cands[0]
            for cu, cw in cands:
                tie_u = ties[cu]
                if tie_u is None:
                    raise _absorbed(s, v)
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


# Bytes of temporaries one block of sources may hold in _tree_block.  Small
# blocks also keep the block's working set in a core's L2 cache.
_BLOCK_BYTES = 1 << 20


def _block_rows(n: int, m: int) -> int:
    """Sources per block: the most whose _tree_block temporaries fit _BLOCK_BYTES.

    Per source the block holds at most about 26 bytes per edge (two gathered
    distance rows, their sums and the tight-edge masks) and 64 per vertex
    (the NaN-marked row and the index arrays of the tight edges and of the
    pointer doubling).
    """
    return max(1, _BLOCK_BYTES // max(1, 26 * m + 64 * n))


def _sweep_rows(n: int) -> int:
    """Sources per block of a sweep over G's rows (verifier, greedy candidates):
    about 64 bytes per vertex per source (G's and H's rows, their columns, masks)."""
    return max(1, _BLOCK_BYTES // (64 * max(n, 1)))


def _tree_block(
    dist: np.ndarray,
    ea: tuple[np.ndarray, ...],
    out: np.ndarray,
    parents: bool,
    buf: tuple[np.ndarray, ...],
) -> np.ndarray:
    """Canonical parent rows or W rows of one block's tie-free sources.

    dist holds exact distance rows, one per source.  ea is (a, b, w, tails,
    heads, ws): the undirected edge arrays, then the same edges in both
    directions (a->b first, then b->a).  out is the block's output rows:
    parents, filled with -1 beforehand, when parents is true, else W.  buf
    holds the per-edge work arrays, allocated once for the largest block and
    reused by every block.

    An edge u->v is tight in a row when dist[u] + w == dist[v].  Dijkstra's
    final predecessor of every reachable vertex is tight, so a row is
    tie-free iff its tight edges number one less than its reachable
    vertices; then every reachable vertex other than the source has exactly
    one tight in-edge, which is its canonical parent.  W follows by pointer
    doubling up the parent tree.  Rows with ties are left as they are; their
    indices are returned.
    """
    a, b, w, tails, heads, ws = ea
    k, n = dist.shape
    m = len(w)
    reach = np.isfinite(dist)
    # NaN compares unequal, so no edge between unreachable vertices is tight
    d = np.where(reach, dist, np.nan)
    da, db, sums, tight = (x[..., :k, :] for x in buf)
    # mode clip: the ids are in range, and the default mode copies through a buffer
    np.take(d, a, axis=1, out=da, mode="clip")
    np.take(d, b, axis=1, out=db, mode="clip")
    del d
    np.add(da, w, out=sums)
    np.equal(sums, db, out=tight[0])
    np.add(db, w, out=sums)
    np.equal(sums, da, out=tight[1])
    tied = np.zeros(0, dtype=np.int64)
    if np.count_nonzero(tight) != np.count_nonzero(reach) - k:
        per_row = np.count_nonzero(tight, axis=2).sum(axis=0)
        tied = np.flatnonzero(per_row != np.count_nonzero(reach, axis=1) - 1)
        tight[:, tied] = False
    # at most n - 1 tight edges per row remain
    side, hit = np.divmod(np.flatnonzero(tight), k * m)
    row, e = np.divmod(hit, m)
    e += side * m  # index into the directed arrays
    del side, hit
    at = row * n + heads[e]
    if parents:
        out.reshape(-1)[at] = tails[e]
        return tied
    heavy = out.reshape(-1)  # a view: out is a run of whole rows
    heavy.fill(0.0)
    heavy[at] = ws[e]
    # jump[x] climbs toward the root; heavy[x] is the max over the edges climbed
    jump = np.arange(k * n)
    jump[at] = row * n + tails[e]
    del row, e, at
    while True:
        nxt = jump[jump]
        if np.array_equal(nxt, jump):
            break
        np.maximum(heavy, heavy[jump], out=heavy)
        jump = nxt
    out[~reach] = INF
    return tied


def canonical_rows(
    g: WeightedGraph, sources: list[int] | None = None, parents: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """(dist, W) rows of the canonical trees from the given sources.

    Row i belongs to sources[i]; sources None means every vertex.  With
    parents true the second array holds the canonical parent rows instead
    of W (int32; -1 for the source and for unreachable vertices), for
    sssp_canonical and path_vertices; build_index and index_rows read W.
    Tie-free sources are handled a block at a time by _tree_block; each
    source whose distances tie goes through canonical_tree_from_dist on its
    own.
    """
    n = g.n
    dist = _sp_dijkstra(g.csr(), directed=True, indices=sources)
    a, b, w = g.edge_arrays()
    ea = (a, b, w, np.concatenate([a, b]), np.concatenate([b, a]), np.concatenate([w, w]))
    src = np.arange(n) if sources is None else np.asarray(sources, dtype=np.int64)
    k, m = len(src), len(w)
    out = np.full((k, n), -1, dtype=np.int32) if parents else np.empty((k, n))
    rows = max(1, min(k, _block_rows(n, m)))
    buf = (*(np.empty((rows, m)) for _ in range(3)), np.empty((2, rows, m), dtype=bool))
    adj: Adjacency | None = None
    for lo in range(0, k, rows):
        blk = slice(lo, min(lo + rows, k))
        for i in _tree_block(dist[blk], ea, out[blk], parents, buf).tolist():
            s = int(src[lo + i])
            if adj is None:
                adj = _neighbor_lists(g)
            p, heavy = canonical_tree_from_dist(adj, s, dist[lo + i].tolist())
            if parents:
                out[lo + i] = p
            else:
                out[lo + i] = heavy
                out[lo + i, ~np.isfinite(dist[lo + i])] = INF
                out[lo + i, s] = 0.0
    return dist, out


def sssp_canonical(g: WeightedGraph, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Distances and canonical parents from source s.

    dist[v] is inf for vertices disconnected from s; parent[v] is -1 for the
    source and for unreachable vertices.
    """
    if not 0 <= s < g.n:
        raise ValueError(f"source {s} out of range for n={g.n}")
    dist, parent = canonical_rows(g, [s], parents=True)
    return dist[0], parent[0]


def build_index(g: WeightedGraph) -> ShortestPathIndex:
    """All-pairs canonical index: canonical_rows from every source.

    One scipy call computes all distances.  The tie-free sources then get
    their W rows from the blocked kernel, whose temporaries stay within
    _BLOCK_BYTES (1 MiB) beyond the returned 16 * n^2 bytes; each source
    whose distances tie falls back to canonical_tree_from_dist.
    """
    n = g.n
    if n == 0:
        z = np.zeros((0, 0))
        return ShortestPathIndex(0, z, z.copy())
    dist, W = canonical_rows(g)
    return ShortestPathIndex(n, dist, W)


def index_rows(
    g: WeightedGraph, idx: ShortestPathIndex | None, sources: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """G's (dist, W) rows of the given (nonempty) sources, row i for sources[i].

    The greedy builders and the verifier read G only through this.  idx is
    an optional cache, sliced when given; else canonical_rows computes the
    same rows.
    """
    if idx is not None:
        return idx.dist[sources], idx.W[sources]
    return canonical_rows(g, sources)


def path_vertices(g: WeightedGraph, u: int, v: int) -> list[int]:
    """Vertex sequence of the canonical u-v path.

    Walks v up u's parent row, which sssp_canonical computes anew on every
    call: one Dijkstra and one canonical tree from u.
    """
    for x in (u, v):
        if not 0 <= x < g.n:
            raise ValueError(f"vertex {x} out of range for n={g.n}")
    if u == v:
        return [u]
    dist, prow = sssp_canonical(g, u)
    if not np.isfinite(dist[v]):
        raise ValueError(f"no path between {u} and {v}")
    seq = [v]
    x = v
    while x != u:
        x = int(prow[x])
        seq.append(x)
    seq.reverse()
    return seq
