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

The rule serves W, which the greedy builders and the verifier compute on
demand (tree_rows), and path buying (path_vertices).  The +2W spanner needs
exact distances only, so fast2w takes scipy's own shortest-path trees and
does not use this module.

One kernel, tree_rows, computes the canonical trees of given sources from
their exact distance rows, all in numpy.  The sources are taken a block at
a time: one gather-and-compare over the edge arrays finds every tight edge
of the block, a source is tie-free when each reachable vertex has exactly
one tight in-edge (which is then its parent), and W(s, v) follows for the
whole block by pointer doubling up the parent trees.
The sources whose distances tie are finished afterwards, a run of them at a
time: a BFS over their tight edges gives the hop layers, and layer by layer
a knockout among each vertex's min-hop tight in-edges picks its parent.
Two candidates' canonical paths share the tree path down to their lowest
common ancestor and are edge-disjoint below it, so the winner is the one
whose branch below it, with its edge to the vertex, holds the smaller edge
key; binary-lifting tables answer that for a whole layer in one vectorized
climb.  Blocks and runs are sized from n, m and the tight edges so that the
temporaries beyond the returned arrays stay within graph._BLOCK_BYTES
(1 MiB).  The CSR and the edge arrays are the graph's own cached layouts
(WeightedGraph.csr, edge_arrays); once build_index has run on G, the edge
arrays are cut to the edges that may be tight (below).

W rows of a graph whose edges all weigh one w0, as on unit weights, need
neither step: W(s, v) is w0 at every reachable v != s, 0 at s and inf
elsewhere.  Every shortest s-v path, the canonical one included, has only
edges of weight w0, so its heaviest edge is w0, with no float arithmetic
involved.  Nor can a float sum absorb the weight there, which the tie rule
would report: a vertex h hops from s gets the distance d_h, w0 added h
times in turn, and d_h rises strictly with h while it is below 2^53 w0
(w0 is then more than half of d_h's last place), each step by less than
2 w0, so only paths of more than 2^52 hops, far beyond n - 1, could reach
it.  So an edge u->v is tight exactly when v is one hop further from s
than u, and none is tight both ways.  Parent rows, and W rows of graphs
with two or more edge weights, take the blocks and the tie rule above.

W is read on demand because a cheap bound settles most pairs (w_floor).
For u != v connected, the canonical u-v path leaves u along an edge at u
and enters v along an edge at v, so W(u, v) >= L(u, v) = max(minw(u),
minw(v)), minw being a vertex's lightest incident weight; L takes no
arithmetic.  And W(u, v) <= d_G(u, v) in floats: each tight step sets
d' = fl(d + w) >= w, as d >= 0 and rounding is monotone, and d never falls
along the path.  So G's index (build_index) is its n x n distance matrix
alone, and the verifier and the path buyers compute W on the rows that L
cannot settle.  This module is the only one that reads G's distances:
index_rows and pair_distances slice the index when one is given, check
its shape, and otherwise run Dijkstra.  Every scipy Dijkstra call here goes
through distance_matrix.  The verifier and path buying read G's rows a
block at a time through one generator, sweep, which also names the rows of
each block that an H may lengthen (below); path_vertices reads one row, and
its parent row from tree_rows.

An H on G's vertices, a subgraph of G or an emulator, often does not
lengthen G's distance row from a source u: covered_rows tells which rows
from G's rows alone, reading only the columns open_columns names (below),
sweep applies it to each block, and the verifier and path buying run
Dijkstra on H only for the others.  Write d_G and d_H for
scipy's Dijkstra rows from u.  Row u is covered when every vertex v is u,
has d_G(v) = inf, or has an H edge (p, v) with fl(d_G(p) + w) <= d_G(v).
- Then d_H <= d_G bit for bit, given absorb_free(G, H): n w_max(G) <=
  2^51 w_min over G's and H's weights.  That bound keeps every H weight
  from being absorbed into a finite d_G, so fl(d_G(p) + w) > d_G(p), and a
  covering edge into a reachable v has d_G(p) < d_G(v).  Follow such edges
  back from v: d_G falls strictly at each step, so the walk ends at u.  Along
  it, by induction and monotone rounding, the left-to-right float sum of the
  H path to each vertex x is at most fl(d_G(p) + w) <= d_G(x), and
  Dijkstra's d_H(x) is at most the float sum of any H path to x.
- On a subgraph H of G with G's weights the cover is exact: d_H = d_G on a
  covered row, and only there.  d_H >= d_G, since Dijkstra's result is the
  least left-to-right float sum over the paths to v, rounding is monotone,
  and every H path is a G path.  Every G edge (p, v) has fl(d_G(p) + w) >=
  d_G(v), since Dijkstra relaxed it, so <= holds exactly where == does, and
  where the rows are equal, H's own Dijkstra predecessor of v is an edge
  with fl(d_G(p) + w) = d_G(v).  absorb_free(G) implies absorb_free(G, H).
- On an H that is not a subgraph, such as the +4W emulator (its virtual
  edges' float sums read an ulp below d_G on most rows), a covered row has
  d_H <= d_G, but not always d_H = d_G.  Either way its ratios are <= 0:
  the verifier runs Dijkstra on the covered rows only while their ratios
  may decide the largest one, on every H.
- Only the open columns need reading (open_columns): v is open when G has
  an edge (p, v) that H lacks or holds at a larger weight.  Any other v
  passes on every row, exactly in floats.  For v != u with d_G(v) finite,
  scipy's final d_G(v) is fl(d_G(p) + w) for the G edge (p, v) whose
  relaxation set it, p settled before v; H holds that edge at some w' <=
  w, so by monotone rounding fl(d_G(p) + w') <= d_G(v).  And d_G(v) = inf
  or v = u passes anyway.  So the mask on the open columns is the mask on
  all of them, bit for bit.  An H that holds every edge of G at G's weight
  or lighter, G itself or the +4W emulator once each vertex's quota of
  light edges reaches its degree, opens no column: every row is covered
  with no gather at all.  open_columns finds the open columns with one
  search of H's entry codes v * n + p (graph._entry_codes) in G's, and
  covered_rows gathers every H entry there.

Most of G's edges are tight on no row at all: on uniform random weights
about a quarter lie on a shortest path, the essential subgraph (Karger,
Koller and Phillips, "Finding the hidden path", SIAM J. Comput. 1993;
McGeoch, "All-pairs shortest paths and the essential subgraph",
Algorithmica 1995).  build_index finds a superset of those edges, exactly
in floats, from the distances it has just computed, with a gather of 2m
entries per mask (_tight_masks), and records it on the graph; from then
on the row test and the W kernel leave the others out, on every call on
that graph, with or without the index:
- The lemma.  Write d for G's exact rows, e = 2^-53, and call p -> v, of
  weight w, tight on row s when fl(d(s, p) + w) = d(s, v).  Then w <=
  d(p, v) + 1.03 (n^2 + 2 n) e w_max, for n < 2^26 and weights within
  [2^-960, 2^960], so that no sum leaves the normal range.  Let D = d(s,
  p), the float sum along s's tree path to p, and P Dijkstra's tree path
  from p to v, of k <= n - 1 edges and real length R.  Dijkstra's d(s, v)
  is at most the left-to-right float sum of any walk, here s ~> p and
  then P, and each of its k roundings adds at most a factor 1 + e, so
  d(s, v) <= (D + R)(1 + e)^k.  Tightness gives d(s, v) >= (D + w)(1 -
  e), and d(p, v), the float sum along P, is at least R (1 - e)^k.  So
  w <= D ((1 + e)^k / (1 - e) - 1) + d(p, v) (1 + e)^k / (1 - e)^(k+1)
  <= d(p, v) + 1.01 n e D + 2.02 n e d(p, v).  D is a float sum of at
  most n - 1 weights, below 1.01 n w_max, and d(p, v) <= w <= w_max, as
  the edge is itself a path: the bound follows.  The test keeps p -> v
  when w <= fl(d(p, v) + delta), delta being w_max times the exact 4 n^2
  e; its two roundings lower the threshold by at most e (w_max + 2
  delta), which the margin of 4 n^2 over 1.03 (n^2 + 2 n) covers for n >=
  2.
- The masks.  d may read differently each way in floats (two sums of
  one path in opposite orders), so a CSR entry (v, p) takes d(p, v), its
  own direction, and an undirected edge either direction's value.  The
  lemma holds on every row, so the masks need no source, and it is about
  G's exact rows, which index_rows returns bit for bit with or without
  the index: the masks hold for every caller's rows of G.  Where every
  edge may be tight, as on Euclidean or one-weight graphs, they are None,
  and so they are before build_index runs or where absorb_free(G) fails
  (there every row's W is computed, to raise on an absorbed weight).
- The open columns.  The G edge whose relaxation set d(s, v) is tight, so
  a G entry that can never be tight opens no column, and the column
  argument above is unchanged.
- The W kernel.  tree_rows takes the edges that may be tight alone.
  Their tight sets are the tight sets, so the parents, W, the detected
  ties and the absorbed-weight error are unchanged, and a subset of the
  sorted edge arrays is sorted, so edge keys still compare as indices.

fast2w needs scipy's predecessors, not distances, so it keeps its own
searches.

canonical_tree_from_dist is the same rule one source at a time, in pure
Python.  No code here calls it; the tests check tree_rows against it, and
perfbench/layers.py probes its name.

A call writes the W rows or the parent rows (path_vertices) its caller
reads, never both.

Distance ties are detected with exact float equality: the intended regimes
are integer-valued weights (float arithmetic is exact) and continuous random
weights (ties have probability zero).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterator, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order as _sp_bfs
from scipy.sparse.csgraph import dijkstra as _sp_dijkstra

from .graph import _BLOCK_BYTES, WeightedGraph, _entry_codes, _sweep_rows

INF = math.inf

Adjacency = Sequence[Sequence[tuple[int, float]]]


def distance_matrix(
    csr: csr_matrix, sources: Sequence[int] | None = None, limit: float = INF
) -> np.ndarray:
    """Distances over a symmetric CSR matrix such as WeightedGraph.csr() (C-speed).

    Row i holds the distances from sources[i]; sources None means every
    vertex, giving the n x n all-pairs matrix.  Distances above limit read
    inf, and the search stops there.
    """
    return _sp_dijkstra(csr, directed=True, indices=sources, limit=limit)


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
    """Canonical parents and running-max edge weights, one source in pure Python.

    dist must be the exact shortest-path distances from s over adj.  Among
    the predecessors u with dist[u] + w == dist[v], the parent minimizes the
    hop count and then the sorted edge-key list of the whole path.  Edge keys
    are encoded as min(u,v)*n + max(u,v) so the tie lists are flat int
    tuples.  Raises ValueError when a float sum absorbed an edge weight (a
    tight neighbor at v's own distance) or dist does not fit adj.  This is
    the reference for tree_rows, which computes the same trees.
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


def _block_rows(n: int, m: int) -> int:
    """Sources per block: the most whose _tree_block temporaries fit _BLOCK_BYTES.

    Per source the block holds at most about 26 bytes per edge (two gathered
    distance rows, their sums and the tight-edge masks) and 64 per vertex
    (the NaN-marked row and the index arrays of the tight edges and of the
    pointer doubling).  The block's tied sources are finished later, in
    runs that _tie_runs sizes to the same budget once the block's work
    arrays are freed, so ties do not shrink the blocks.
    """
    return max(1, _BLOCK_BYTES // max(1, 26 * m + 64 * n))


def _edge_distances(
    csr: csr_matrix, a: np.ndarray, b: np.ndarray, limit: np.ndarray | None = None
) -> np.ndarray:
    """d(a[i], b[i]) over a symmetric CSR matrix, for endpoint arrays in any order.

    Dijkstra runs from the distinct a[i] only, _sweep_rows(n) of them at a
    time, so the temporaries are O(len(a) + block * n).  With limit given,
    each block's search stops past its largest limit[i]: entry i is exact
    where d(a[i], b[i]) <= limit[i], and otherwise some value > limit[i]
    (inf past the block's limit).
    """
    out = np.empty(len(a))
    by_tail = np.argsort(a, kind="stable")
    tails, first = np.unique(a[by_tail], return_index=True)
    first = np.append(first, len(a))
    rows = _sweep_rows(csr.shape[0])
    for lo in range(0, len(tails), rows):
        block = tails[lo : lo + rows]
        run = by_tail[first[lo] : first[lo + len(block)]]
        dist = distance_matrix(csr, block, INF if limit is None else limit[run].max())
        out[run] = dist[np.searchsorted(block, a[run]), b[run]]
    return out


def _tight_edges(
    dist: np.ndarray, ea: tuple[np.ndarray, ...], buf: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """(reach, tight) of a block of exact distance rows, one row per source.

    ea is (a, b, w, tails, heads, ws): the undirected edge arrays, then the
    same edges in both directions (a->b first, then b->a, so directed edge
    i is undirected edge i % m).  buf holds the per-edge work arrays (three
    float rows and a (2, rows, m) mask, rows >= the block's).  tight[s, i, e]
    is true when directed edge s * m + e, u->v, has dist[i, u] + w == dist[i, v];
    it is a view of buf's mask.
    """
    a, b, w = ea[:3]
    k = len(dist)
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
    return reach, tight


def _edge_buffers(rows: int, m: int) -> tuple[np.ndarray, ...]:
    return (*(np.empty((rows, m)) for _ in range(3)), np.empty((2, rows, m), dtype=bool))


def _write_trees(
    out: np.ndarray,
    reach: np.ndarray,
    row: np.ndarray,
    e: np.ndarray,
    ea: tuple[np.ndarray, ...],
    parents: bool,
) -> None:
    """Fill out's rows from the parent edges: directed edge e[i] enters its
    head in row row[i].  out holds parent rows (filled with -1 beforehand)
    when parents is true, else W rows, which follow by pointer doubling up
    the parent trees."""
    tails, heads, ws = ea[3:]
    k, n = out.shape
    at = row * n + heads[e]
    if parents:
        out.reshape(-1)[at] = tails[e]
        return
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


def _tree_block(
    dist: np.ndarray,
    ea: tuple[np.ndarray, ...],
    out: np.ndarray,
    parents: bool,
    buf: tuple[np.ndarray, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical parent rows or W rows of one block's tie-free sources.

    dist holds exact distance rows, one per source; out is the block's
    output rows (see _write_trees); ea and buf as in _tight_edges.  buf is
    allocated once for the largest block and reused by every block.

    Dijkstra's final predecessor of every reachable vertex is tight, so a
    row is tie-free iff its tight edges number one less than its reachable
    vertices; then every reachable vertex other than the source has exactly
    one tight in-edge, which is its canonical parent.  Rows with ties are
    left for _tie_block: returns their indices and tight-edge counts.  W
    rows of a graph whose edges all weigh one w0 never come here:
    tree_rows writes them from dist alone.
    """
    k = len(dist)
    m = len(ea[2])
    reach, tight = _tight_edges(dist, ea, buf)
    tied = count = np.zeros(0, dtype=np.int64)
    if np.count_nonzero(tight) != np.count_nonzero(reach) - k:
        per_row = np.count_nonzero(tight, axis=2).sum(axis=0)
        tied = np.flatnonzero(per_row != np.count_nonzero(reach, axis=1) - 1)
        count = per_row[tied]
        tight[:, tied] = False
    # at most n - 1 tight edges per row remain
    side, hit = np.divmod(np.flatnonzero(tight), k * m)
    row, e = np.divmod(hit, m)
    e += side * m  # index into the directed arrays
    del side, hit
    _write_trees(out, reach, row, e, ea, parents)
    return tied, count


def _tie_block(
    dist: np.ndarray, src: np.ndarray, ea: tuple[np.ndarray, ...], parents: bool
) -> np.ndarray:
    """Canonical parent rows or W rows of sources whose distances tie.

    dist holds their exact distance rows, src the sources, ea the edge
    arrays as in _tight_edges.  Once no float sum absorbed a weight, dist
    rises strictly along every tight edge (w > 0), so a row's tight edges
    form a DAG.  The parent the rule of canonical_tree_from_dist picks for
    v is found hop layer by hop layer for all rows at once:

    1. hop layers: a BFS over the tight edges gives each vertex's min hops;
    2. candidates of v at hop h: its tight in-edges from hop h - 1;
    3. a knockout among each vertex's candidates (_knockout).

    Raises ValueError when a float sum absorbed an edge weight: at the first
    such source in src order, it names the vertex at which
    canonical_tree_from_dist stops, the endpoint smallest by (dist, id) of
    an edge tight in both directions (its endpoints share one distance).

    W rows come here only from graphs with two or more edge weights (see
    tree_rows); parent rows come here whenever they tie.
    """
    a, b = ea[:2]
    k, n = dist.shape
    m = len(a)
    tight = np.empty((2, k, m), dtype=bool)
    buf = _edge_buffers(1, m)
    for r in range(k):
        tight[:, r] = _tight_edges(dist[r : r + 1], ea, buf)[1][:, 0]
        es = np.flatnonzero(tight[0, r] & tight[1, r])
        if len(es):
            ends = np.concatenate([a[es], b[es]])
            raise _absorbed(int(src[r]), int(ends[np.lexsort((ends, dist[r, ends]))[0]]))
    del buf
    cands = _candidates(tight, src, n, ea)
    del tight
    pe = _knockout(*cands, k * n, m)
    del cands
    at = np.flatnonzero(pe >= 0)
    out = np.full((k, n), -1, dtype=np.int32) if parents else np.empty((k, n))
    _write_trees(out, np.isfinite(dist), at // n, pe[at], ea, parents)
    return out


def _candidates(
    tight: np.ndarray, src: np.ndarray, n: int, ea: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, ...]:
    """The min-hop tight in-edges of every vertex of k rows, given their
    (2, k, m) tight masks; vertex v of row i has the id i * n + v.

    Returns (x, e, start, head, layers): candidate i is the directed edge
    e[i] from x[i], sorted by (hop, head).  Run j of candidates, from
    start[j], enters head[j]; the runs of hop h are layers[h - 1]:layers[h].
    """
    tails, heads = ea[3:5]
    k, m = tight.shape[1:]
    kn = k * n
    # the tight edges x -> y, along e, sorted by x
    by_tail = np.argsort(tails, kind="stable")
    flat = np.flatnonzero(tight.transpose(1, 0, 2).reshape(k, 2 * m)[:, by_tail])
    r, e = np.divmod(flat, 2 * m)
    del flat
    e = by_tail[e]
    r *= n
    x = tails[e]
    x += r
    y = heads[e]
    y += r
    del r
    # hop layers: BFS from a vertex kn joined to every source, then each
    # vertex's depth in the BFS tree by pointer doubling
    ptr = np.zeros(kn + 2, dtype=np.int64)
    np.cumsum(np.bincount(x, minlength=kn), out=ptr[1:-1])
    ptr[-1] = ptr[-2] + k
    to = np.append(y, np.arange(k) * n + src).astype(np.int32)
    dag = csr_matrix((np.ones(len(to)), to, ptr), shape=(kn + 1, kn + 1))
    del to, ptr
    par = _sp_bfs(dag, kn, directed=True, return_predecessors=True)[1]
    del dag
    par[par < 0] = kn
    hop = (np.arange(kn + 1) != kn).astype(np.int64)
    while True:
        nxt = par[par]
        if np.array_equal(nxt, par):
            break
        hop += hop[par]
        par = nxt
    hop -= 1
    del par, nxt
    # with unit weights every tight edge is a candidate
    keep = hop[x] + 1 == hop[y]
    if not keep.all():
        x, y, e = x[keep], y[keep], e[keep]
    del keep
    order = np.argsort(hop[y] * kn + y, kind="stable")
    x = x[order]
    y = y[order]
    e = e[order]
    del order
    start = np.flatnonzero(np.concatenate([[True], y[1:] != y[:-1]]))
    head = y[start]
    layers = np.searchsorted(hop[head], np.arange(1, (hop[head[-1]] if len(head) else 0) + 2))
    return x, e, start, head, layers


def _knockout(
    x: np.ndarray,
    e: np.ndarray,
    start: np.ndarray,
    head: np.ndarray,
    layers: np.ndarray,
    kn: int,
    m: int,
) -> np.ndarray:
    """Parent edges: pe[v] is the directed edge into v of its winning
    candidate (_candidates gives the arguments), -1 for sources and
    unreachable vertices.

    Each vertex's candidates meet in rounds of matches, hop layer by hop
    layer, so that the trees down to hop h - 1 are final when the layer of
    hop h plays.  Candidates a and b of v then sit at equal depth, so their
    canonical paths share the tree path from the source down to c = LCA(a, b)
    and are edge-disjoint below it.  The two sorted edge-key lists, each
    with its edge to v added, share the keys above c and differ in the
    rest, so the list holding the smallest differing key is the smaller: a
    wins iff the smallest key on its branch below c, plus its edge to v, is
    below b's.  Binary-lifting tables (Bender and Farach-Colton, "The LCA
    problem revisited", 2000) give the 2^j-th ancestor and the smallest key
    on that climb, and one vectorized climb answers every match of a round.
    Edge keys compare as edge indices, since the edge arrays are sorted by
    (min endpoint, max endpoint).
    """
    c = len(x)
    size = np.diff(np.append(start, c))
    hop = np.repeat(np.searchsorted(layers, np.arange(len(head)), side="right"), size)
    place = np.arange(c) - np.repeat(start, size)
    size = np.repeat(size, size)
    # in round r, place i (a multiple of 2^(r+1)) meets place i + 2^r;
    # matches[r] holds the left places and where each hop's places begin
    matches = []
    for r in range(int(size.max(initial=1) - 1).bit_length()):
        left = np.flatnonzero((place % (2 << r) == 0) & (place + (1 << r) < size))
        matches.append((left, np.searchsorted(hop[left], np.arange(1, len(layers) + 1))))
    del hop, place, size
    win = np.arange(c)  # win[i]: the candidate holding place i so far
    # up[j][v]: v's 2^j-th ancestor, or the source; low[j][v]: the smallest
    # edge key on that climb (m for none)
    up = [np.arange(kn)]
    low = [np.full(kn, m, dtype=np.int32)]
    pe = np.full(kn, -1, dtype=np.int64)
    for h in range(1, len(layers)):
        while (1 << len(up)) < h - 1:
            up.append(up[-1][up[-1]])
            low.append(np.minimum(low[-1], low[-1][up[-2]]))
        for r, (left, at) in enumerate(matches):
            lo = left[at[h - 1] : at[h]]
            p = len(lo)
            if not p:
                continue
            i = win[np.concatenate([lo, lo + (1 << r)])]
            # climb both sides of each match at once: xy[:p] against xy[p:]
            xy, key = x[i], e[i] % m
            for j in range(len(up) - 1, -1, -1):
                nx = up[j][xy]
                go = nx[:p] != nx[p:]
                go = np.concatenate([go, go])
                np.minimum(key, np.where(go, low[j][xy], m), out=key)
                np.copyto(xy, nx, where=go)
            # xy[:p] and xy[p:] are now children of the LCA: add their edges to it
            np.minimum(key, low[0][xy], out=key)
            win[lo] = np.where(key[p:] < key[:p], i[p:], i[:p])
        runs = slice(layers[h - 1], layers[h])
        i = win[start[runs]]
        v = head[runs]
        pe[v] = e[i]
        up[0][v] = x[i]
        low[0][v] = e[i] % m
        for j in range(1, len(up)):
            mid = up[j - 1][v]
            up[j][v] = up[j - 1][mid]
            low[j][v] = np.minimum(low[j - 1][v], low[j - 1][mid])
    return pe


def _tie_runs(n: int, m: int, tight: np.ndarray) -> list[slice]:
    """Runs of tied sources for _tie_block, whose temporaries fit _BLOCK_BYTES.

    tight[i] counts the tight edges of tied source i.  Any run holds about
    42 bytes per edge (one source's float work rows, the edges' order by
    tail).  Per source it adds about 6 bytes per edge (the tight masks), 72
    per tight edge (the tight edges and their BFS graph, then the candidates,
    the knockout's matches and its climbs) and 48 + 12 log2(n) per vertex
    (BFS and parent-edge arrays, the lifting tables).
    """
    levels = max(1, (n - 1).bit_length())
    cost = np.cumsum(6 * m + 72 * tight + (48 + 12 * levels) * n)
    budget = _BLOCK_BYTES - 42 * m
    runs, lo = [], 0
    while lo < len(cost):
        spent = cost[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(cost, spent + budget, side="right")))
        runs.append(slice(lo, hi))
        lo = hi
    return runs


def absorb_free(g: WeightedGraph, h: csr_matrix | None = None) -> bool:
    """True when no float sum over g can absorb an edge weight of g, nor one
    of h, a symmetric CSR matrix on g's vertices, when h is given.  Else W
    must be computed on every row, because only the tie rule (_tie_block)
    detects an absorbed weight and raises; and a cover of a row by h's edges
    (covered_rows) proves nothing.

    Absorption cannot happen when n * w_max <= 2^52 * w_min, w_max being
    g's largest weight and w_min the smallest of g's and h's: a finite
    distance of g is the float sum of at most n - 1 of its weights along a
    path, each rounding a partial sum up by a factor of at most 1 + 2^-53,
    so it is below (n - 1) w_max (1 + 2^-53)^n < 2 n w_max.  A weight w is
    absorbed into a distance d, fl(d + w) == d, only when w <= ulp(d) / 2
    <= 2^-53 d < 2^-52 n w_max, which the bound rules out for w >= w_min.
    The test below computes n * (w_max / w_min) with two roundings and asks
    for 2^51, half the bound, which covers them.
    """
    w = g.edge_arrays()[2]
    low = w.min(initial=INF)
    if h is not None:
        low = min(low, h.data.min(initial=INF))
    return g.n * (w.max(initial=0.0) / low) <= 2.0**51


def w_floor(g: WeightedGraph) -> np.ndarray | None:
    """minw, each vertex's lightest incident weight (inf when isolated), so
    that W(u, v) >= max(minw[u], minw[v]) for connected u != v (module
    docstring); or None where a float sum might absorb an edge weight
    (absorb_free), so that every row takes W instead.
    """
    if not absorb_free(g):
        return None
    csr = g.csr()
    minw = np.full(g.n, INF)
    has = np.diff(csr.indptr) > 0
    if has.any():
        minw[has] = np.minimum.reduceat(csr.data, csr.indptr[:-1][has])
    return minw


def open_columns(g: WeightedGraph, h: csr_matrix) -> tuple:
    """The columns of G's rows that the row test must read, with H's
    entries there, for covered_rows.

    Column v is open when G has an edge (p, v) that H, a symmetric CSR
    matrix on g's vertices, lacks or holds at a larger weight.  Every other
    column passes the row test on every exact row of G (module docstring).
    Where build_index recorded G's entries that may be tight, only those
    open a column.  A run of rows v at a time, H's entry codes are searched
    in G's cached csr_codes, and a G entry is closed where H holds its code
    at a weight no larger; the run's temporaries, about 40 bytes per H
    entry and 20 per G entry, fit _BLOCK_BYTES.

    Returns (cols, nbr, w, start, has): the open columns, as an index
    array; the other endpoints (as intp, which np.take would otherwise
    convert on every call) and weights of their H entries, column by
    column; and, for the open columns holding an H entry, where their
    entries start in nbr and their positions in cols.
    """
    n, gc, code = g.n, g.csr(), g.csr_codes()
    tight = None if g._tight is None else g._tight[1]
    is_open = np.zeros(n, dtype=bool)
    cost = 40 * h.indptr.astype(np.int64) + 20 * gc.indptr
    lo = 0
    while lo < n:
        hi = max(lo + 1, int(np.searchsorted(cost, cost[lo] + _BLOCK_BYTES, side="right")) - 1)
        g0, g1 = gc.indptr[lo], gc.indptr[hi]
        if g1 > g0:  # else the run's rows hold no G entry, and open nothing
            hc, gcode = _entry_codes(h, lo, hi), code[g0:g1]
            at = np.minimum(np.searchsorted(gcode, hc), g1 - g0 - 1)
            held = (gcode[at] == hc) & (h.data[h.indptr[lo] : h.indptr[hi]] <= gc.data[g0:g1][at])
            live = np.ones(g1 - g0, dtype=bool) if tight is None else tight[g0:g1].copy()
            live[at[held]] = False
            is_open[gcode[live] // n] = True
        lo = hi
    cols, size = np.flatnonzero(is_open), np.diff(h.indptr)
    at, size = np.repeat(is_open, size), size[cols]
    deg = size > 0
    return cols, h.indices[at].astype(np.intp), h.data[at], (np.cumsum(size) - size)[deg], np.flatnonzero(deg)


def covered_rows(part: tuple, dist: np.ndarray) -> np.ndarray:
    """Rows that H does not lengthen: true at row i when every vertex v
    is dist[i]'s source, has dist[i, v] = inf, or has an edge (p, v) of H
    with fl(dist[i, p] + w) <= dist[i, v].

    dist holds G's exact rows, as scipy's Dijkstra gives them, and part is
    open_columns(G, H): only the open columns are read, since every other
    one passes on every such row (module docstring).  Where absorb_free(G,
    H) holds, Dijkstra on H from a true row's source returns a row <=
    dist[i] bit for bit, and on a subgraph of G with G's weights exactly
    dist[i] (module docstring).  With no column open, every row is true and
    nothing is gathered.

    One gather over the open columns' H entries, an add, a minimum.reduceat
    over their starts and a compare with those columns of dist, in runs of
    rows whose temporaries fit _BLOCK_BYTES beside part's arrays: 8 bytes
    per entry and 32 per open column per row.  part holds 16 bytes per
    entry and 40 per open column.
    """
    cols, nbr, w, start, has = part
    k, c = len(dist), len(cols)
    step = max(1, (_BLOCK_BYTES - 16 * len(nbr) - 40 * c) // max(1, 8 * len(nbr) + 32 * c))
    sums = np.empty((min(k, step), len(nbr)))
    low = np.full((min(k, step), c), INF)  # an open column with no H entry keeps inf
    out = np.empty(k, dtype=bool)
    for lo in range(0, k, step):
        d = dist[lo : lo + step]
        s, m = sums[: len(d)], low[: len(d)]
        # mode clip: the ids are in range, and the default mode copies through a buffer
        np.take(d, nbr, axis=1, out=s, mode="clip")
        s += w
        m[:, has] = np.minimum.reduceat(s, start, axis=1)
        d = d[:, cols]
        out[lo : lo + len(d)] = ((m <= d) | (d == 0)).all(axis=1)
    return out


def tree_rows(g: WeightedGraph, dist: np.ndarray, sources, parents: bool = False) -> np.ndarray:
    """W rows of the canonical trees from the given sources, given their
    exact distance rows (dist[i] from sources[i], as scipy's Dijkstra gives
    them); with parents true, the canonical parent rows instead (int32; -1
    for the source and for unreachable vertices).

    _tree_block finishes the tie-free sources a block at a time, then
    _tie_block the sources whose distances tie, in the runs _tie_runs
    sizes.  Both stay within _BLOCK_BYTES of temporaries.  Raises
    ValueError when a float sum absorbed an edge weight (_tie_block).
    Where build_index recorded G's edges that may be tight, both read those
    alone; the others are tight on no exact row, so the output is the same.

    W rows of a graph whose edges all weigh one w0 skip both: W is w0 where
    dist is finite, 0 at the source and inf elsewhere, exact and never
    absorbed (module docstring), written _sweep_rows(n) rows at a time.
    """
    n = g.n
    a, b, w = g.edge_arrays()
    src = np.asarray(sources, dtype=np.int64)
    k = len(src)
    out = np.full((k, n), -1, dtype=np.int32) if parents else np.empty((k, n))
    if not parents and len(w) and w.min() == w.max():
        step = _sweep_rows(n)
        for lo in range(0, k, step):
            blk = out[lo : lo + step]
            blk.fill(INF)
            np.copyto(blk, w[0], where=np.isfinite(dist[lo : lo + step]))
        out[np.arange(k), src] = 0.0
        return out
    edges = None if g._tight is None else g._tight[0]
    if edges is not None:
        # a subset of the sorted arrays is sorted, so edge keys still compare as indices
        a, b, w = a[edges], b[edges], w[edges]
    m = len(w)
    ea = (a, b, w, np.concatenate([a, b]), np.concatenate([b, a]), np.concatenate([w, w]))
    rows = max(1, min(k, _block_rows(n, m)))
    buf = _edge_buffers(rows, m)
    tied, count = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for lo in range(0, k, rows):
        blk = slice(lo, min(lo + rows, k))
        t, c = _tree_block(dist[blk], ea, out[blk], parents, buf)
        tied.append(lo + t)
        count.append(c)
    del buf
    tied = np.concatenate(tied)
    for run in _tie_runs(n, m, np.concatenate(count)):
        at = tied[run]
        out[at] = _tie_block(dist[at], src[at], ea, parents)
    return out


def _tight_masks(g: WeightedGraph, dist: np.ndarray) -> tuple | None:
    """(edges, entries), the edges of G that may be tight on some exact row
    of G, given dist, G's exact n x n distances (module docstring).

    entries is a boolean mask over g.csr()'s entries, true at entry (v, p)
    where p -> v may be tight; edges is one over g.edge_arrays(), true where
    either direction may be tight, or None where that is every edge.  Each
    is one gather of 2m entries of dist: the second costs less than finding
    each edge's two entries in the CSR.  None, so that every edge counts,
    where absorb_free(g) fails, where a weight lies outside [2^-960,
    2^960], where every edge weighs the same (each edge is then a shortest
    path of its ends), or where every entry may be tight, as on Euclidean
    weights.
    """
    a, b, w = g.edge_arrays()
    if not len(w) or w.min() == w.max() or not absorb_free(g):
        return None
    if not (2.0**-960 <= w.min() and w.max() <= 2.0**960):
        return None
    n, csr = g.n, g.csr()
    delta = float(w.max() * (4.0 * n * n * 2.0**-53))
    heads = np.repeat(np.arange(n), np.diff(csr.indptr))
    # entry (v, p) is the edge p -> v, tight when d(p, v) is within delta of its weight
    entries = csr.data <= _read(g, dist, (csr.indices, heads)) + delta
    if entries.all():
        return None
    # d may differ each way in floats: either direction's own value holds the edge
    d = _read(g, dist, (np.concatenate([a, b]), np.concatenate([b, a])))
    edges = w <= np.maximum(d[: len(w)], d[len(w) :]) + delta
    return (None if edges.all() else edges), entries


def build_index(g: WeightedGraph) -> np.ndarray:
    """G's index: its n x n all-pairs distance matrix (one scipy call, 8 * n^2 bytes).

    The matrix is read-only, so it is safe for concurrent reads.  W is not
    stored (tree_rows computes it on demand).  On a graph where a float
    sum might absorb an edge weight (not absorb_free) the W rows of every
    source are computed and dropped, so that an absorbed weight raises
    ValueError here, as it would on any row read later.  The edges of G
    that may be tight (_tight_masks) are recorded on g, for open_columns
    and tree_rows to read on every later call, with or without the index.
    """
    dist = distance_matrix(g.csr())
    if not absorb_free(g):
        tree_rows(g, dist, np.arange(g.n))
    dist.flags.writeable = False
    g._tight = _tight_masks(g, dist)
    return dist


def _read(g: WeightedGraph, idx: np.ndarray, at) -> np.ndarray:
    """idx[at], once idx is checked to have g's shape: the one read of an
    index.  A pair of id arrays is read at the flat positions u * n + v
    where idx is C-contiguous, as build_index's is: several times faster
    than numpy's two-index gather."""
    if idx.shape != (g.n, g.n):
        raise ValueError(f"index of shape {idx.shape} given for a graph of shape {(g.n, g.n)}")
    if isinstance(at, tuple) and idx.flags.c_contiguous:
        return idx.take(np.asarray(at[0], dtype=np.int64) * g.n + at[1])
    return idx[at]


def index_rows(g: WeightedGraph, idx: np.ndarray | None, sources: Sequence[int]) -> np.ndarray:
    """G's distance rows of the given sources, row i for sources[i].

    The builders and the verifier read G's distance rows only through
    this.  idx, G's index (build_index), is an optional cache, sliced when
    given; else one Dijkstra call computes the same rows.  Raises
    ValueError when idx does not have g's shape.
    """
    if idx is not None:
        return _read(g, idx, sources)
    return distance_matrix(g.csr(), sources)


def pair_distances(
    g: WeightedGraph, idx: np.ndarray | None, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """d_G(a[i], b[i]): read from idx when given, as index_rows does, else
    computed by _edge_distances from the distinct a[i] only."""
    if idx is not None:
        return _read(g, idx, (a, b))
    return _edge_distances(g.csr(), a, b)


def sweep(
    g: WeightedGraph,
    idx: np.ndarray | None,
    S: Sequence[int] | np.ndarray,
    h: csr_matrix | None = None,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """G's distance rows of the sources S, a _sweep_rows(n) block at a time.

    Yields (lo, dist, run) per block: dist holds index_rows of S[lo : lo +
    len(dist)], and run the positions in the block of the rows that h, a
    symmetric CSR matrix on G's vertices, may lengthen (covered_rows).  run
    is every row when h is None or absorb_free(g, h) does not hold; else
    the open columns and h's entries there (open_columns) are found once
    per call, and every block's test reads those columns alone.
    The verifier's sweep and edge checks and path buying's candidate pass
    read G's rows through this alone.
    """
    S = np.asarray(S, dtype=np.int64)
    part = None
    if h is not None and absorb_free(g, h):
        part = open_columns(g, h)
    rows = _sweep_rows(g.n)
    for lo in range(0, len(S), rows):
        dist = index_rows(g, idx, S[lo : lo + rows])
        yield lo, dist, np.arange(len(dist)) if part is None else np.flatnonzero(~covered_rows(part, dist))


def path_vertices(g: WeightedGraph, u: int, v: int, idx: np.ndarray | None = None) -> list[int]:
    """Vertex sequence of the canonical u-v path.

    Walks v up u's canonical parent row, which tree_rows computes from u's
    distance row (index_rows: a slice of idx, G's index, when given, else
    one Dijkstra from u).
    """
    for x in (u, v):
        if not 0 <= x < g.n:
            raise ValueError(f"vertex {x} out of range for n={g.n}")
    if u == v:
        return [u]
    dist = index_rows(g, idx, [u])
    prow = tree_rows(g, dist, [u], parents=True)[0]
    if not np.isfinite(dist[0, v]):
        raise ValueError(f"no path between {u} and {v}")
    seq = [v]
    x = v
    while x != u:
        x = int(prow[x])
        seq.append(x)
    seq.reverse()
    return seq
