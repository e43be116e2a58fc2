"""Deterministic greedy spanner constructions.

Three path-buying variants share one scheme: seed the spanner H0 with a
light initialization, order the pairs by the heaviest edge on their
canonical shortest path, and buy the whole canonical path of every pair
whose current distance exceeds its threshold d_G + c*W.  The multiplicative
greedy scans edges instead of pairs.

The spanner only gains edges, so only the candidates, the pairs with
d_H0(u->v) > d_G + c*W, can be bought.  One pass over blocks of sources
finds them: G's rows come through shortest.index_rows, H0's from one
Dijkstra run over the CSR the scan's oracle then uses.  No n x n array is
held, and on random graphs there are usually no candidates.

Distance queries against the growing spanner use an upper-bound row cache:
any previously computed distance is a valid upper bound, so a pair whose
cached estimate meets its threshold is skipped.  The cache starts with H0's
rows of the candidates' endpoints, the only rows read.  Pairs that still
look violating get a fresh single-source run (C-speed), so the scan-time
semantics are exactly "query the current spanner".  The spanner's one edge
set is the oracle's weight dict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import dijkstra as _sp_dijkstra

from .graph import WeightedGraph, edge_key, graph_csr
from .light import t_light_init
from .shortest import INF, ShortestPathIndex, _sweep_rows, index_rows, path_vertices


@dataclass
class SpannerResult:
    """A constructed spanner: an edge subset of the input graph."""

    edges: set[tuple[int, int]]
    params: dict
    paths_added: list[tuple[int, int]] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return len(self.edges)

    def to_graph(self, g: WeightedGraph) -> WeightedGraph:
        return g.subgraph(self.edges)


def make_pair_order(pairs: np.ndarray, W: np.ndarray, d: np.ndarray | None = None) -> np.ndarray:
    """Processing order of pairs: the permutation that sorts them by key.

    pairs is a k x 2 integer array of (u, v) rows with u < v; W, and d when
    given, hold each pair's heaviest path edge and distance.  The key is
    (W, d, u, v) with d, else (W, u, v); both orders are total and
    deterministic.
    """
    keys = (pairs[:, 1], pairs[:, 0], W) if d is None else (pairs[:, 1], pairs[:, 0], d, W)
    return np.lexsort(keys)


class _GrowingDistances:
    """Distance oracle for an edge set that only grows.

    Cached rows are exact for the version at which they were computed and
    remain valid upper bounds afterwards.  refresh() recomputes one row
    against the current edges.  weights, the edge set with its weights, is
    owned by the oracle and grows with add_edge.
    """

    def __init__(self, n: int, weights: dict[tuple[int, int], float]):
        self.n = n
        self.weights = weights
        self._csr = None
        self._rows: dict[int, np.ndarray] = {}

    def prime(self, rows: list[int]) -> None:
        """Compute the given rows at the current version in one batch."""
        dist = _sp_dijkstra(self._matrix(), directed=True, indices=rows)
        for u, row in zip(rows, dist):
            self._rows[u] = row

    def _matrix(self):
        if self._csr is None:
            ab = np.array(list(self.weights), dtype=np.int64).reshape(-1, 2)
            w = np.fromiter(self.weights.values(), dtype=np.float64, count=len(ab))
            self._csr = graph_csr(self.n, ab[:, 0], ab[:, 1], w)
        return self._csr

    def add_edge(self, u: int, v: int, w: float) -> bool:
        key = edge_key(u, v)
        if key in self.weights:
            return False
        self.weights[key] = w
        self._csr = None
        return True

    def upper(self, u: int, v: int) -> float:
        """Best known upper bound on the current distance between u and v."""
        best = INF
        row = self._rows.get(u)
        if row is not None:
            best = row[v]
        row = self._rows.get(v)
        if row is not None and row[u] < best:
            best = row[u]
        return float(best)

    def refresh(self, u: int) -> np.ndarray:
        row = _sp_dijkstra(self._matrix(), directed=True, indices=u)
        self._rows[u] = row
        return row

    def bounded_query(self, u: int, v: int, limit: float) -> float:
        """Distance u->v if it is <= limit, else inf.  Does not cache."""
        if not self.weights:
            return INF
        row = _sp_dijkstra(self._matrix(), directed=True, indices=u, limit=limit)
        return float(row[v])


def _buy_paths(
    g: WeightedGraph, oracle: _GrowingDistances, thresh: np.ndarray, pairs: np.ndarray
) -> tuple[set[tuple[int, int]], list[tuple[int, int]], int]:
    """Scan pairs (k x 2, in order) against their thresholds, buying paths.

    A pair's canonical path is added (path_vertices) only when the current
    spanner distance strictly exceeds its threshold.  The oracle holds H0;
    it is primed with the rows of the pairs' endpoints, the only rows read.
    Returns (final edges, pairs bought, edges added by paths).
    """
    if len(pairs):
        oracle.prime(np.unique(pairs).tolist())
    bought: list[tuple[int, int]] = []
    added = 0
    for (u, v), t in zip(pairs.tolist(), thresh.tolist()):
        if oracle.upper(u, v) <= t:
            continue
        row = oracle.refresh(u)
        if row[v] <= t:
            continue
        seq = path_vertices(g, u, v)
        for a, b in zip(seq, seq[1:]):
            added += oracle.add_edge(a, b, g.weight(a, b))
        bought.append((u, v))
    return set(oracle.weights), bought, added


def _path_buying(
    g: WeightedGraph,
    idx: ShortestPathIndex | None,
    S: list[int],
    start: set[tuple[int, int]],
    c: float,
    by_dist: bool,
) -> tuple[set[tuple[int, int]], list[tuple[int, int]], int]:
    """_buy_paths from H0 = start over the candidates among the pairs u < v of S.

    S is sorted and unique.  A candidate has d_H0(u->v) > d_G(u,v) + c*W(u,v),
    read from u's rows; an infinite threshold fails no comparison, so
    disconnected pairs drop out.  The order key is (W, d, u, v) when
    by_dist, else (W, u, v).
    """
    oracle = _GrowingDistances(g.n, {k: g.weight(*k) for k in start})
    h0 = oracle._matrix()  # the oracle's own CSR, built once
    cols = np.asarray(S, dtype=np.int64)
    found = [np.zeros((0, 2), dtype=np.int64)]
    keys = [np.zeros((3, 0))]
    rows = _sweep_rows(g.n)
    for lo in range(0, len(S), rows):
        block = S[lo : lo + rows]
        dist, W = index_rows(g, idx, block)
        dg, wg = dist[:, cols], W[:, cols]
        thresh = dg + c * wg
        dh = _sp_dijkstra(h0, directed=True, indices=block)[:, cols]
        i, j = np.nonzero((dh > thresh) & (cols > cols[lo : lo + len(block), None]))
        found.append(np.stack([cols[lo + i], cols[j]], axis=1))
        keys.append(np.stack([thresh[i, j], wg[i, j], dg[i, j]]))
    pairs = np.concatenate(found)
    thresh, W, d = np.concatenate(keys, axis=1)
    order = make_pair_order(pairs, W, d if by_dist else None)
    return _buy_paths(g, oracle, thresh[order], pairs[order])


def greedy_multiplicative(g: WeightedGraph, k: int) -> SpannerResult:
    """Classic greedy (2k-1)-multiplicative spanner.

    Scans edges by nondecreasing weight and keeps an edge iff the current
    spanner distance between its endpoints exceeds (2k-1) times its weight.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    stretch = 2 * k - 1
    oracle = _GrowingDistances(g.n, {})
    a, b, ws = g.edge_arrays()
    order = np.lexsort((b, a, ws))
    for u, v, w in zip(a[order].tolist(), b[order].tolist(), ws[order].tolist()):
        thresh = stretch * w
        # distances == limit survive the bounded search, so an inf result
        # means the current distance strictly exceeds thresh
        if oracle.bounded_query(u, v, thresh) > thresh:
            oracle.add_edge(u, v, w)
    edges = set(oracle.weights)
    return SpannerResult(
        edges=edges,
        params={"algo": "mult", "k": k, "stretch": stretch},
        stats={"phase_edge_counts": {"greedy": len(edges)}},
    )


def build_6eps_spanner(
    g: WeightedGraph, eps: float, idx: ShortestPathIndex | None = None
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
    start = t_light_init(g, t).kept_edges
    edges, bought, added = _path_buying(g, idx, list(range(g.n)), start, 6.0 + eps, by_dist=True)
    return SpannerResult(
        edges=edges,
        params={"algo": "6w", "eps": eps, "t": t},
        paths_added=bought,
        stats={"phase_edge_counts": {"light_init": len(start), "paths": added}},
    )


def build_subsetwise_spanner(
    g: WeightedGraph, subset: list[int], eps: float, idx: ShortestPathIndex | None = None
) -> SpannerResult:
    """Additive (2+eps)W spanner for pairs inside the given vertex subset.

    Seeds with a ceil(sqrt(|S|))-light initialization and scans the subset
    pairs by heaviest path edge only, reading G's rows of S alone.
    """
    S = sorted(set(subset))
    if not S:
        raise ValueError("subset must be nonempty")
    for s in S:
        if not 0 <= s < g.n:
            raise ValueError(f"subset vertex {s} out of range")
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    t = max(1, math.ceil(math.sqrt(len(S))))
    start = t_light_init(g, t).kept_edges
    edges, bought, added = _path_buying(g, idx, S, start, 2.0 + eps, by_dist=False)
    return SpannerResult(
        edges=edges,
        params={"algo": "subsetwise", "eps": eps, "t": t, "subset_size": len(S)},
        paths_added=bought,
        stats={"phase_edge_counts": {"light_init": len(start), "paths": added}},
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
    idx: ShortestPathIndex | None = None,
    mult: SpannerResult | None = None,
) -> SpannerResult:
    """Near-linear-size spanner with polynomial additive stretch.

    Union of a ceil(n^eps)-light initialization, a greedy multiplicative
    spanner of odd stretch >= log2(n), and canonical paths bought for pairs
    whose distance exceeds d_G + c * n^((1-eps)/2) * log2(n) * W, scanned by
    nondecreasing heaviest path edge.  A precomputed multiplicative spanner
    may be passed to share work across eps values; it must come from
    greedy_multiplicative(g, multiplicative_k_for(g.n)).  idx is an optional
    cache.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must be in [0, 1], got {eps}")
    if not 0 < c < math.inf:
        raise ValueError(f"c must be finite and > 0, got {c}")
    n = g.n
    t = max(1, math.ceil(n**eps))
    start = set(t_light_init(g, t).kept_edges)
    light_count = len(start)
    k = multiplicative_k_for(n)
    if mult is None:
        mult = greedy_multiplicative(g, k)
    elif mult.params.get("k") != k:
        raise ValueError(f"precomputed multiplicative spanner used k={mult.params.get('k')}, need {k}")
    mult_new = len(mult.edges - start)
    start |= mult.edges
    factor = poly_stretch_factor(n, eps, c)
    edges, bought, added = _path_buying(g, idx, list(range(n)), start, factor, by_dist=False)
    return SpannerResult(
        edges=edges,
        params={"algo": "poly", "eps": eps, "c": c, "t": t, "mult_k": k, "stretch_factor": factor},
        paths_added=bought,
        stats={
            "phase_edge_counts": {
                "light_init": light_count,
                "mult_spanner": mult_new,
                "paths": added,
            }
        },
    )
