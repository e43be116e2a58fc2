"""Deterministic greedy spanner constructions.

Three path-buying variants share one scheme: seed the spanner H0 with a
light initialization, order the pairs by the heaviest edge on their
canonical shortest path, and buy the whole canonical path of every pair
whose current distance exceeds its threshold d_G + c*W.  The multiplicative
greedy scans edges instead of pairs, and searches only those its Kruskal
forest cannot decide (greedy_multiplicative).

The spanner only gains edges, so only the candidates, the pairs with
d_H0(u->v) > d_G + c*W, can be bought.  One pass over blocks of sources
finds them: shortest.sweep gives G's distance rows of each block and the
rows that H0, a CSR of H0's edges (graph_csr), does not lengthen
(shortest.covered_rows).  A covered row holds no candidate, as no
threshold lies below d_G = d_H0 there, so Dijkstra on H0 runs from the
other sources only; stats["h_rows"] counts them.  W is computed
(shortest.tree_rows) only on the rows with a pair d_H0 > d_G + c*L, where
L(u, v) = max(minw(u), minw(v)) <= W(u, v) (shortest.w_floor): rounding is
monotone, so fl(d_G + fl(c*L)) <= fl(d_G + fl(c*W)), and a pair at or
below the first threshold is at or below the second.  stats["w_rows"]
counts those rows.  No n x n array is held, and on random graphs there
are usually no candidates.

The growing spanner, in path buying and in the multiplicative greedy alike,
is one copy of G's CSR whose entries are inf until their edge is kept
(_inf_csr), so buying a path writes its weights and no search rebuilds the
matrix.  Path buying's distance queries use a row cache: a row is a full
single-source run (C-speed) on the spanner as it stood, an upper bound on
every later distance, so a pair whose cached estimate from u or v meets its
threshold is skipped.  The cache starts empty: H0's row of u is the one
that made (u, v) a candidate, so it could not clear the pair.  Pairs that
still look violating get a fresh run from u, so the scan-time semantics are
exactly "query the current spanner".  A bought path's vertices come from
u's canonical parent row (shortest.path_vertices), which reads u's
distance row from G's index when the build was given one, so with an
index no Dijkstra runs on G.  Every edge set, the light init, the spanner
and the result, is a boolean mask over g.edge_arrays().
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _sp_dijkstra

from .graph import WeightedGraph, graph_csr, subset_vertices
from .light import t_light_init
from .shortest import INF, _edge_distances, path_vertices, sweep, tree_rows, w_floor


@dataclass(eq=False)
class SpannerResult:
    """A constructed spanner: kept is a boolean mask over the input graph's
    edge_arrays() of the edges it keeps."""

    kept: np.ndarray
    params: dict
    paths_added: list[tuple[int, int]] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return int(np.count_nonzero(self.kept))

    def to_graph(self, g: WeightedGraph) -> WeightedGraph:
        a, b, w = g.edge_arrays()
        return WeightedGraph._from_arrays(g.n, a[self.kept], b[self.kept], w[self.kept])


def make_pair_order(pairs: np.ndarray, W: np.ndarray, d: np.ndarray | None = None) -> np.ndarray:
    """Processing order of pairs: the permutation that sorts them by key.

    pairs is a k x 2 integer array of (u, v) rows with u < v; W, and d when
    given, hold each pair's heaviest path edge and distance.  The key is
    (W, d, u, v) with d, else (W, u, v); both orders are total and
    deterministic.
    """
    keys = (pairs[:, 1], pairs[:, 0], W) if d is None else (pairs[:, 1], pairs[:, 0], d, W)
    return np.lexsort(keys)


def _inf_csr(g: WeightedGraph, a: np.ndarray, b: np.ndarray) -> tuple[csr_matrix, np.ndarray]:
    """A copy of G's CSR whose entries are all inf, and at[:, i], the two
    data positions of edge (a[i], b[i]) for the edges a, b of G given.

    An inf entry is no edge to scipy's Dijkstra, as a relaxation through it
    never wins, so a grown spanner is this matrix with its kept edges'
    weights written into h.data, the matrix's own array, and no search
    rebuilds it.
    """
    h = g.csr()
    n = g.n
    # rows are sorted by column, so the entries' codes are sorted
    at = np.searchsorted(g.csr_codes(), np.stack([a * n + b, b * n + a]))
    return csr_matrix((np.full(len(h.data), INF), h.indices, h.indptr), shape=h.shape), at


def _buy_paths(
    g: WeightedGraph,
    kept: np.ndarray,
    thresh: np.ndarray,
    pairs: np.ndarray,
    idx: np.ndarray | None = None,
) -> tuple[np.ndarray, list[tuple[int, int]], int]:
    """Scan pairs (k x 2, in order) against their thresholds, buying paths
    into a copy of kept, H0's edge mask.

    A pair's canonical path is added (path_vertices, reading u's row of
    idx, G's index, when given) only when the current spanner distance
    strictly exceeds its threshold.  The spanner is an _inf_csr matrix; a
    row is one single-source run on it, kept as an upper bound on every
    later distance, so a pair that an earlier row of u or v puts within its
    threshold is skipped.  Memory is O(m + r * n), r the
    rows run.  Returns (the final edge mask, pairs bought, edges added by
    paths).
    """
    kept = kept.copy()
    bought: list[tuple[int, int]] = []
    added = 0
    if not len(pairs):
        return kept, bought, added
    a, b, w = g.edge_arrays()
    h, at = _inf_csr(g, a, b)
    data = h.data
    data[at[:, kept]] = w[kept]
    rows: dict[int, np.ndarray] = {}
    for (u, v), t in zip(pairs.tolist(), thresh.tolist()):
        if (u in rows and rows[u][v] <= t) or (v in rows and rows[v][u] <= t):
            continue
        rows[u] = _sp_dijkstra(h, directed=True, indices=u)
        if rows[u][v] <= t:
            continue
        seq = path_vertices(g, u, v, idx)
        ids = g.edge_ids(seq[:-1], seq[1:])
        new = ids[~kept[ids]]
        kept[new] = True
        data[at[:, new]] = w[new]
        added += len(new)
        bought.append((u, v))
    return kept, bought, added


def _path_buying(
    g: WeightedGraph,
    idx: np.ndarray | None,
    S: list[int],
    start: np.ndarray,
    c: float,
    by_dist: bool,
) -> tuple[np.ndarray, list[tuple[int, int]], int, dict]:
    """_buy_paths from H0 = start, an edge mask it leaves unchanged, over the
    candidates among the pairs u < v of S; also returns the row counts
    {"w_rows": rows whose W was computed, "h_rows": rows of H0 that
    Dijkstra computed}.

    S is sorted and unique.  A candidate has d_H0(u->v) > d_G(u,v) + c*W(u,v),
    read from u's rows; an infinite threshold fails no comparison, so
    disconnected pairs drop out.  A row H0 does not lengthen (shortest.sweep)
    holds none, and W is read only on the rows that may hold one (module
    docstring); where w_floor gives no bound, every row takes both.  The
    order key is (W, d, u, v) when by_dist, else (W, u, v).
    """
    a, b, w = g.edge_arrays()
    h0 = graph_csr(g.n, a[start], b[start], w[start])
    cols = np.asarray(S, dtype=np.int64)
    minw = w_floor(g)
    found = [np.zeros((0, 2), dtype=np.int64)]
    keys = [np.zeros((3, 0))]
    counts = {"w_rows": 0, "h_rows": 0}
    for lo, dist, run in sweep(g, idx, cols, h0):
        # d_H0 <= d_G on a covered row, and no threshold lies below d_G
        if not len(run):
            continue
        src, dist = cols[lo + run], dist[run]
        counts["h_rows"] += len(src)
        dh = _sp_dijkstra(h0, directed=True, indices=src)[:, cols]
        later = cols > src[:, None]
        if minw is None:
            need = np.arange(len(src))
        else:
            with np.errstate(invalid="ignore"):  # 0*inf on a pair no path joins
                low = dist[:, cols] + c * np.maximum(minw[src][:, None], minw[cols])
            need = np.flatnonzero(((dh > low) & later).any(axis=1))
        if not len(need):
            continue
        counts["w_rows"] += len(need)
        wg = tree_rows(g, dist[need], src[need])[:, cols]
        dg = dist[need][:, cols]
        thresh = dg + c * wg
        i, j = np.nonzero((dh[need] > thresh) & later[need])
        found.append(np.stack([src[need[i]], cols[j]], axis=1))
        keys.append(np.stack([thresh[i, j], wg[i, j], dg[i, j]]))
    pairs = np.concatenate(found)
    thresh, W, d = np.concatenate(keys, axis=1)
    order = make_pair_order(pairs, W, d if by_dist else None)
    return (*_buy_paths(g, start, thresh[order], pairs[order], idx), counts)


def _forest_mask(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kruskal's forest of the edges (a[i], b[i]) taken in array order.

    True where an edge joins two components of the edges before it; a
    union-find with path halving.
    """
    root = list(range(n))
    out = np.zeros(len(a), dtype=bool)
    for i, (u, v) in enumerate(zip(a.tolist(), b.tolist())):
        while root[u] != u:
            root[u] = u = root[root[u]]
        while root[v] != v:
            root[v] = v = root[root[v]]
        if u != v:
            root[u] = v
            out[i] = True
    return out


def _mult_k(k) -> int:
    """k as a Python int; ValueError unless it is an integer >= 1 whose 2k - 1
    is a finite float."""
    try:
        k = operator.index(k)
    except TypeError:
        raise ValueError(f"k must be an integer, got {k!r}") from None
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    try:
        float(2 * k - 1)
    except OverflowError:
        raise ValueError(f"k must give a finite stretch 2k-1, got k = {k}") from None
    return k


def greedy_multiplicative(g: WeightedGraph, k: int) -> SpannerResult:
    """Classic greedy (2k-1)-multiplicative spanner.

    Scans edges by (weight, a, b) and keeps an edge iff the current spanner
    distance between its endpoints exceeds t = (2k-1) times its weight.
    k must be an integer >= 1.

    Kruskal's forest F of that order decides most edges without a search.
    A forest edge joins two components of the spanner, whose components are
    always F's, so it is kept.  A non-forest edge (a, b) finds F's unique
    a-b path already in the spanner; Dijkstra on F from a returns that
    path's float sum, and the spanner's distance from a is at most it, as
    rounding is monotone.  So the edge is dropped when d_F(a, b) <= t.  Only
    the rest are searched: one bounded Dijkstra from a on the current
    spanner, stats["searched_edges"] of them.  The spanner is an _inf_csr
    matrix, as in path buying, so no search rebuilds it.  Memory is
    O(m + block * n), block the _sweep_rows sources of the forest
    distances; no n x n array is held.
    """
    k = _mult_k(k)
    stretch = 2 * k - 1
    n = g.n
    a, b, w = g.edge_arrays()
    order = np.lexsort((b, a, w))
    a, b, w = a[order], b[order], w[order]
    with np.errstate(over="ignore"):
        thresh = float(stretch) * w
    if not np.isfinite(thresh).all():
        i = int(np.argmax(~np.isfinite(thresh)))
        raise ValueError(f"(2k-1) * weight overflows on edge ({a[i]}, {b[i]}), k = {k}")
    kept = _forest_mask(n, a, b)
    rest = np.flatnonzero(~kept)
    d_f = _edge_distances(graph_csr(n, a[kept], b[kept], w[kept]), a[rest], b[rest], thresh[rest])
    rest = rest[d_f > thresh[rest]]
    h, at = _inf_csr(g, a, b)
    data = h.data
    forest = np.flatnonzero(kept)
    done = 0
    for i in rest.tolist():
        # the forest edges scanned before edge i join the spanner
        upto = int(np.searchsorted(forest, i))
        data[at[:, forest[done:upto]]] = w[forest[done:upto]]
        done = upto
        t = thresh[i]
        # distances == limit survive the bounded search, so an inf result
        # means the current distance strictly exceeds t
        if _sp_dijkstra(h, directed=True, indices=int(a[i]), limit=t)[b[i]] > t:
            kept[i] = True
            data[at[:, i]] = w[i]
    return SpannerResult(
        kept=kept[np.argsort(order)],  # in g.edge_arrays() order
        params={"algo": "mult", "k": k, "stretch": stretch},
        stats={"phase_edge_counts": {"greedy": int(np.count_nonzero(kept))}, "searched_edges": len(rest)},
    )


def build_6eps_spanner(
    g: WeightedGraph, eps: float, idx: np.ndarray | None = None
) -> SpannerResult:
    """Additive spanner with stretch (6+eps) times the heaviest path edge.

    Seeds with a ceil(n^(1/3))-light initialization, then scans all connected
    pairs ordered by (heaviest path edge, distance) and buys the canonical
    path of any pair whose current distance exceeds
    d_G(u,v) + (6+eps)*W(u,v).  idx is an optional cache.
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    t = max(1, math.ceil(g.n ** (1.0 / 3.0)))
    start = t_light_init(g, t).kept
    kept, bought, added, counts = _path_buying(g, idx, list(range(g.n)), start, 6.0 + eps, by_dist=True)
    return SpannerResult(
        kept=kept,
        params={"algo": "6w", "eps": eps, "t": t},
        paths_added=bought,
        stats={
            "phase_edge_counts": {"light_init": int(np.count_nonzero(start)), "paths": added},
            **counts,
        },
    )


def build_subsetwise_spanner(
    g: WeightedGraph, subset: list[int], eps: float, idx: np.ndarray | None = None
) -> SpannerResult:
    """Additive (2+eps)W spanner for pairs inside the given vertex subset.

    Seeds with a ceil(sqrt(|S|))-light initialization and scans the subset
    pairs by heaviest path edge only, reading G's rows of S alone.
    """
    S = subset_vertices(subset, g.n)
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    t = max(1, math.ceil(math.sqrt(len(S))))
    start = t_light_init(g, t).kept
    kept, bought, added, counts = _path_buying(g, idx, S, start, 2.0 + eps, by_dist=False)
    return SpannerResult(
        kept=kept,
        params={"algo": "subsetwise", "eps": eps, "t": t, "subset_size": len(S)},
        paths_added=bought,
        stats={
            "phase_edge_counts": {"light_init": int(np.count_nonzero(start)), "paths": added},
            **counts,
        },
    )


def poly_stretch_factor(n: int, eps: float, c: float) -> float:
    """Additive stretch multiplier c * n^((1-eps)/2) * log2(n)."""
    if n < 2:
        return 0.0
    return c * n ** ((1.0 - eps) / 2.0) * math.log2(n)


def multiplicative_k_for(n: int) -> int:
    """k such that 2k-1 is the smallest odd integer >= log2(n)."""
    if n < 2:
        return 1
    return max(1, math.ceil((math.log2(n) + 1.0) / 2.0))


def build_poly_spanner(
    g: WeightedGraph,
    eps: float,
    c: float = 16.0,
    idx: np.ndarray | None = None,
    mult: SpannerResult | None = None,
) -> SpannerResult:
    """Near-linear-size spanner with polynomial additive stretch.

    Union of a ceil(n^eps)-light initialization, a greedy multiplicative
    spanner of odd stretch >= log2(n), and canonical paths bought for pairs
    whose distance exceeds d_G + c * n^((1-eps)/2) * log2(n) * W, scanned by
    nondecreasing heaviest path edge.  A precomputed multiplicative spanner
    may be passed to share work across eps values; it must come from
    greedy_multiplicative(g, multiplicative_k_for(g.n)).  One built with
    another k, or over a graph with another edge count, raises ValueError;
    one from another graph with g's edge count is the caller's to rule out.
    idx is an optional cache.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must be in [0, 1], got {eps}")
    if not 0 < c < math.inf:
        raise ValueError(f"c must be finite and > 0, got {c}")
    n = g.n
    t = max(1, math.ceil(n**eps))
    light = t_light_init(g, t).kept
    k = multiplicative_k_for(n)
    if mult is None:
        mult = greedy_multiplicative(g, k)
    elif mult.params.get("k") != k:
        raise ValueError(f"precomputed multiplicative spanner used k={mult.params.get('k')}, need {k}")
    elif len(mult.kept) != g.m:
        raise ValueError(f"precomputed multiplicative spanner is over {len(mult.kept)} edges, not {g.m}")
    factor = poly_stretch_factor(n, eps, c)
    start = light | mult.kept
    kept, bought, added, counts = _path_buying(g, idx, list(range(n)), start, factor, by_dist=False)
    return SpannerResult(
        kept=kept,
        params={"algo": "poly", "eps": eps, "c": c, "t": t, "mult_k": k, "stretch_factor": factor},
        paths_added=bought,
        stats={
            "phase_edge_counts": {
                "light_init": int(np.count_nonzero(light)),
                "mult_spanner": int(np.count_nonzero(mult.kept & ~light)),
                "paths": added,
            },
            **counts,
        },
    )
