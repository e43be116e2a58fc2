"""Shared oracles and graph strategies.

The oracles here are deliberately independent of the package's shortest-path
code: Floyd-Warshall for distances, exhaustive path enumeration for the
canonical-path rule, rebuild-from-scratch simulations of the greedy
multiplicative spanner (by Floyd-Warshall, and by one scipy search per edge
in greedy_mult_reference) and of path buying, and per-vertex loops for the
light selections and the +2W levels, and fast2w_reference, which grows the
+2W spanner on those levels with one scipy Dijkstra call per level over all
of its roots (spt_edges_reference).  edge_weights_reference checks edges one
at a time, and emulator_reference merges the emulator's sampled clique into
a dict one pair at a time.  They read a graph only through edge_items(),
and so does mask_keys, which turns the builders' edge masks into key sets
for comparison with them.
Expected values in the tests are computed by these, never by the code under
test.  minimax_path_weight is a cross-check rather than an oracle: it reads
the distances of the index it is given.  canonical_rows and
sssp_canonical are no oracles either: they are scipy's Dijkstra rows with
the package's tree_rows on them, which the tests check against
canonical_tree_from_dist.  Nor is canonical_paths: it walks those parent
rows, for tests that read the canonical paths of many pairs of one graph.
tied_source classifies sources by scipy's distances, the ones the
package's kernels see.  forbid_full_index is a guard for the tests that
check G without its index, and sparse_800 gives the graphs of their memory
checks.  sweep_reference and
path_buying_reference are the verifier's sweep and path buying's candidate
pass as they were when every row took W and ran Dijkstra on H (H0): the
oracles for the rows that now take W on demand and H's rows from G's.
shared_rows is the row test shortest.covered_rows replaced, with == in place
of <=: the oracle for the kernel's mask on subgraphs.  covered_rows_reference
is the same <= test read on every column, as the kernel read it before it
took only the open columns (shortest.open_columns): the oracle for its mask
on any H.  open_columns_reference finds those columns one G entry at a
time, taking the recorded mask of the entries that may be tight as given:
the oracle for open_columns' search.  unindexed gives a twin of a graph
that build_index never read, so that no mask of the edges that may be
tight is recorded on it;
tree_rows_reference is tree_rows on that twin, over every edge of G, as it
read them before it took only the edges that may be tight, and
tight_reference lists the edges tight on some row by brute force: the
oracles for that mask.  clustered_graphs draws
graphs on which path buying buys paths, and buying_graphs mixes them with
small_graphs.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

import wspan.greedy
import wspan.shortest
import wspan.verify
from wspan import GenSpec, WeightedGraph, generate
from wspan.graph import edge_key
from wspan.shortest import distance_matrix, index_rows, tree_rows


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


def edge_weights_reference(n: int, edges) -> dict[tuple[int, int], float]:
    """{(u, v): w}, u < v, of the edges (u, v, w), checked one edge at a time.

    Each edge's checks run in order: integer ids, ids in range, no
    self-loop, no pair given before in either orientation, float() of the
    weight, a finite positive weight.  The first failure raises.
    """
    w: dict[tuple[int, int], float] = {}
    for u, v, weight in edges:
        try:
            u, v = operator.index(u), operator.index(v)
        except TypeError:
            raise ValueError(f"vertex ids must be integers in edge ({u!r}, {v!r})") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"vertex id out of range in edge ({u}, {v})")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        key = edge_key(u, v)
        if key in w:
            raise ValueError(f"parallel edge {key}")
        weight = float(weight)
        if not 0 < weight < math.inf:
            raise ValueError(f"non-positive or non-finite weight {weight} on edge {key}")
        w[key] = weight
    return w


def emulator_reference(g: WeightedGraph, seed: int) -> list[tuple[int, int, float, str]]:
    """Sorted (u, v, w, tag) of the +4W emulator, merged one pair at a time.

    The kept edges are light_kept_edges' at the emulator's t, tagged "g".  The
    sample replays the documented draw: n uniforms from the seeded PCG64
    stream, a vertex kept below n^(-1/3).  Each connected sample pair u < v
    then takes scipy's distance d, tagged "v", unless it is a kept edge of
    weight w <= d.
    """
    n = g.n
    t = max(1, math.ceil(2.0 * n ** (1.0 / 3.0) * math.log(n)))
    weight = {(u, v): w for u, v, w in g.edge_items()}
    edges = {key: (weight[key], "g") for key in light_kept_edges(g, t)}
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sample = [v for v, x in enumerate(rng.random(n).tolist()) if x < n ** (-1.0 / 3.0)]
    dist = dijkstra(g.csr(), indices=sample) if sample else np.zeros((0, n))
    for i, u in enumerate(sample):
        for v in sample[i + 1 :]:
            d = float(dist[i, v])
            held = edges.get((u, v))
            if math.isfinite(d) and (held is None or d < held[0]):
                edges[(u, v)] = (d, "v")
    return sorted((u, v, w, tag) for (u, v), (w, tag) in edges.items())


def mask_keys(g: WeightedGraph, mask: np.ndarray) -> set[tuple[int, int]]:
    """Keys (u, v) of the edges a boolean mask over g's edge arrays selects."""
    assert mask.dtype == bool and mask.shape == (g.m,)
    return {(u, v) for (u, v, _), keep in zip(g.edge_items(), mask.tolist()) if keep}


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


def spt_edges_reference(n: int, weights: dict[tuple[int, int], float], roots: list[int]) -> set:
    """Keys of the union of scipy's Dijkstra predecessor trees from roots, in
    one call over the graph of the given edge weights.

    The CSR is laid out as graph_csr lays one out, each edge in both
    directions and every row sorted by column, so on tied inputs scipy picks
    the same trees it picks over the package's CSR.
    """
    if not roots:
        return set()
    tails = [u for u, _ in weights] + [v for _, v in weights]
    heads = [v for _, v in weights] + [u for u, _ in weights]
    csr = csr_matrix((list(weights.values()) * 2, (tails, heads)), shape=(n, n))
    csr.sort_indices()
    _, parent = dijkstra(csr, directed=True, indices=roots, return_predecessors=True)
    return {edge_key(p, v) for row in parent.tolist() for v, p in enumerate(row) if p >= 0}


def fast2w_reference(g: WeightedGraph, c: float, seed: int):
    """(edges, stats) of the +2W spanner, with one Dijkstra call per level.

    The levels are those of levels_reference; level i adds the trees that
    spt_edges_reference grows from all of D_i at once over E_i and its pivot
    edges, and the edges surviving past level k are kept.  The stats are
    build_fast_2w's but spt_sources: the level sizes and the edge counts.
    """
    n = g.n
    D, _, estar, E = levels_reference(g, c, seed)
    k = len(D) - 1
    weight = {(u, v): w for u, v, w in g.edge_items()}
    kept, spt_trees = set(E[k + 1]), []
    for i in range(1, k + 1):
        tree = spt_edges_reference(n, {e: weight[e] for e in E[i] | estar[i]}, sorted(D[i]))
        spt_trees.append(len(tree))
        kept |= tree
    deg = [len(nb) for nb in neighbor_lists(g)]
    s = [n / 2.0**i for i in range(k + 1)]
    levels = [
        {
            "level": i,
            "s": s[i],
            "v_size": sum(d >= s[i] for d in deg),
            "d_size": len(D[i]),
            "e_size": len(E[i]) if i >= 1 else None,
        }
        for i in range(k + 1)
    ] + [{"level": k + 1, "e_size": len(E[k + 1])}]
    return kept, {
        "levels": levels,
        "phase_edge_counts": {"spt_trees": spt_trees, "final_dump": len(E[k + 1])},
    }


def canonical_rows(g: WeightedGraph, sources=None, parents: bool = False):
    """(dist, W) rows of the canonical trees from the given sources (every
    vertex when None), or (dist, parent rows) with parents true: scipy's
    Dijkstra rows and the package's tree_rows on them."""
    dist = distance_matrix(g.csr(), sources)
    return dist, tree_rows(g, dist, np.arange(g.n) if sources is None else sources, parents)


def sssp_canonical(g: WeightedGraph, s: int):
    """Distances and canonical parents from source s, one row of canonical_rows."""
    dist, parent = canonical_rows(g, [s], parents=True)
    return dist[0], parent[0]


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
    """Fail G's all-pairs distances (build_index's one Dijkstra call over
    every vertex) and any W or parent rows computed over every vertex;
    record the sources of the other tree_rows calls."""
    calls = []
    dijkstra, rows = wspan.shortest._sp_dijkstra, wspan.shortest.tree_rows

    def no_full_dijkstra(csr, *args, indices=None, **kwargs):
        if indices is None:
            raise AssertionError("full index built")
        return dijkstra(csr, *args, indices=indices, **kwargs)

    def some_rows(g, dist, sources, parents=False):
        sources = np.asarray(sources).tolist()
        if len(set(sources)) == g.n:
            raise AssertionError("W or parent rows of every vertex computed")
        calls.append(sources)
        return rows(g, dist, sources, parents)

    monkeypatch.setattr(wspan.shortest, "_sp_dijkstra", no_full_dijkstra)
    # the verifier and the path buyers bind the kernel by name
    for module in (wspan.shortest, wspan.verify, wspan.greedy):
        monkeypatch.setattr(module, "tree_rows", some_rows)
    return calls


def sweep_reference(g: WeightedGraph, h: WeightedGraph, c: float, pair_class=None, idx=None):
    """verify_additive_W's report as the sweep gave it with W on every row:
    G's distance and W rows of each block of shortest._sweep_rows(n) sources,
    and the same float operations, with Dijkstra on H from every row.
    w_rows and h_rows stay 0."""
    S = list(range(g.n)) if pair_class is None else sorted(set(pair_class))
    report = wspan.verify.StretchReport(
        bound_kind="additive-cW",
        params={"c": c, "pair_class": "all" if pair_class is None else "subset"},
        pairs_checked=0,
        size=h.m,
    )
    cols = np.asarray(S)
    csr = h.csr()
    found = []
    tops: list[float] = []
    rows = wspan.shortest._sweep_rows(g.n)
    for lo in range(0, len(S), rows):
        hi = min(lo + rows, len(S))
        dh = dijkstra(csr, indices=S[lo:hi])[:, cols]
        dist = index_rows(g, idx, S[lo:hi])
        W = tree_rows(g, dist, S[lo:hi])
        dg, wb = dist[:, cols], W[:, cols]
        connected = (np.arange(len(S)) > np.arange(lo, hi)[:, None]) & np.isfinite(dg)
        report.pairs_checked += int(np.count_nonzero(connected))
        with np.errstate(invalid="ignore"):
            bd = dg + c * wb
            bad = connected & (dh - bd > wspan.verify.REL_TOL * np.maximum(1.0, np.abs(bd)))
        i, j = np.nonzero(bad)
        found.append((cols[lo + i], cols[j], dg[i, j], dh[i, j], wb[i, j], dh[i, j] - bd[i, j]))
        sel = connected & np.isfinite(dh)
        if sel.any():
            tops.append(float(((dh[sel] - dg[sel]) / wb[sel]).max()))
    report.violations = wspan.verify._violations(*(np.concatenate(x) for x in zip(*found)))
    report.max_slack_ratio = max(tops, default=math.nan)
    return report


def shared_rows(csr: csr_matrix, dist: np.ndarray) -> np.ndarray:
    """Rows of G's exact rows dist that H, the CSR matrix csr of a subgraph
    of G with G's weights, shares: true at row i iff every vertex v has
    dist[i, v] = min over v's H edges (p, v) of fl(dist[i, p] + w), inf for
    a vertex with no H edge, or is the source, at 0."""
    k, n = dist.shape
    low = np.full((k, n), math.inf)
    has = np.diff(csr.indptr) > 0
    if has.any():
        sums = dist[:, csr.indices] + csr.data
        low[:, has] = np.minimum.reduceat(sums, csr.indptr[:-1][has], axis=1)
    return ((low == dist) | (dist == 0)).all(axis=1)


def covered_rows_reference(csr: csr_matrix, dist: np.ndarray) -> np.ndarray:
    """Rows of G's exact rows dist that H, the symmetric CSR matrix csr on
    G's vertices, does not lengthen, every column read: true at row i iff
    every vertex v is the source, at 0, or has dist[i, v] >= the min over
    v's H edges (p, v) of fl(dist[i, p] + w), inf for a vertex with no H
    edge."""
    k, n = dist.shape
    low = np.full((k, n), math.inf)
    has = np.diff(csr.indptr) > 0
    if has.any():
        sums = dist[:, csr.indices] + csr.data
        low[:, has] = np.minimum.reduceat(sums, csr.indptr[:-1][has], axis=1)
    return ((low <= dist) | (dist == 0)).all(axis=1)


def open_columns_reference(g: WeightedGraph, h: WeightedGraph) -> list[int]:
    """The columns v where g has an entry (v, p) that may be tight and that
    h lacks or holds at a larger weight, entry by entry.  The mask of the
    entries that may be tight, g._tight[1] over the CSR entries in (v, p)
    order, is taken as recorded; every entry counts without it."""
    held = {}
    for u, v, w in h.edge_items():
        held[u, v] = held[v, u] = w
    entries = sorted((v, p, w) for u, x, w in g.edge_items() for v, p in ((u, x), (x, u)))
    may = [True] * len(entries) if g._tight is None else g._tight[1].tolist()
    return sorted({v for (v, p, w), t in zip(entries, may) if t and held.get((v, p), math.inf) > w})


def unindexed(g: WeightedGraph) -> WeightedGraph:
    """A graph equal to g that build_index never read: every edge counts."""
    return WeightedGraph._from_arrays(g.n, *g.edge_arrays())


def tree_rows_reference(g: WeightedGraph, dist: np.ndarray, sources, parents: bool = False) -> np.ndarray:
    """W rows (parent rows with parents true) of the canonical trees from
    sources over every edge of g: tree_rows with no edge left out."""
    return tree_rows(unindexed(g), dist, sources, parents)


def tight_reference(g: WeightedGraph, dist: np.ndarray) -> set[tuple[int, int]]:
    """The directed edges (p, v) of g tight on some row of dist, exact rows
    of g: fl(dist[i, p] + w) == dist[i, v] with dist[i, v] finite."""
    out = set()
    for u, v, w in g.edge_items():
        for p, q in ((u, v), (v, u)):
            if (np.isfinite(dist[:, q]) & (dist[:, p] + w == dist[:, q])).any():
                out.add((p, q))
    return out


def path_buying_reference(g, idx, S, start, c, by_dist):
    """greedy._path_buying with W and H0's Dijkstra on every row of the
    candidate pass (the same blocks, of shortest._sweep_rows(n) sources, and
    float operations); its w_rows and h_rows are every row of S."""
    a, b, w = g.edge_arrays()
    h0 = wspan.greedy.graph_csr(g.n, a[start], b[start], w[start])
    cols = np.asarray(S, dtype=np.int64)
    found = [np.zeros((0, 2), dtype=np.int64)]
    keys = [np.zeros((3, 0))]
    rows = wspan.shortest._sweep_rows(g.n)
    for lo in range(0, len(S), rows):
        block = S[lo : lo + rows]
        dist = index_rows(g, idx, block)
        W = tree_rows(g, dist, block)
        dg, wg = dist[:, cols], W[:, cols]
        thresh = dg + c * wg
        dh = dijkstra(h0, indices=block)[:, cols]
        i, j = np.nonzero((dh > thresh) & (cols > cols[lo : lo + len(block), None]))
        found.append(np.stack([cols[lo + i], cols[j]], axis=1))
        keys.append(np.stack([thresh[i, j], wg[i, j], dg[i, j]]))
    pairs = np.concatenate(found)
    thresh, W, d = np.concatenate(keys, axis=1)
    order = wspan.greedy.make_pair_order(pairs, W, d if by_dist else None)
    counts = {"w_rows": len(S), "h_rows": len(S)}
    return (*wspan.greedy._buy_paths(g, start, thresh[order], pairs[order]), counts)


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
    the shortest-path DAG of every source, read off idx; intended for
    n <= ~50.
    """
    n = g.n
    adj = neighbor_lists(g)
    out = np.full((n, n), math.inf)
    np.fill_diagonal(out, 0.0)
    for s in range(n):
        dist = idx[s]
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


def greedy_mult_reference(g: WeightedGraph, k: int) -> set[tuple[int, int]]:
    """The multiplicative greedy with one bounded scipy Dijkstra per edge.

    Each edge (u, v, w), by (w, u, v), is searched from u on a CSR rebuilt
    from the edges kept so far, with limit (2k-1) * w, and kept iff v lies
    past the limit.  Its float sums are scipy's, which Floyd-Warshall's need
    not match on decimal weights.
    """
    stretch = 2 * k - 1
    kept: list[tuple[int, int, float]] = []
    for u, v, w in sorted(g.edge_items(), key=lambda e: (e[2], e[0], e[1])):
        t = stretch * w
        if dijkstra(WeightedGraph(g.n, kept).csr(), indices=u, limit=t)[v] > t:
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
