"""Deterministic greedy spanner constructions.

Three path-buying variants share one scheme: seed the spanner with a light
initialization, sort the candidate pairs by the heaviest edge on their
shortest path, and buy the whole canonical shortest path for every pair
whose current stretch exceeds the trigger.  The multiplicative greedy scans
edges instead of pairs.

The pairs stay numpy arrays from start to scan: the connected pairs are the
nonzero entries of the upper triangle of the finite-distance mask, one
lexsort orders them into a k x 2 array, and every pair's threshold
d_G + c*W is computed once as an array before the loop.  The spanner's one
edge set is the distance oracle's weight dict.

Distance queries against the growing spanner use an upper-bound row cache:
since the spanner only gains edges, any previously computed distance is a
valid upper bound, so a pair whose cached estimate already meets its
threshold can be skipped without recomputation.  Before the scan, one
batched Dijkstra run on the initial spanner fills the rows of the vertices
that appear in the scan, the only rows ever read: every vertex with a
connected partner for the all-pairs variants, vertices of S only for the
subsetwise one.  Pairs that still look violating get a fresh single-source
run (C-speed) before the trigger is evaluated, so the scan-time semantics
are exactly "query the current spanner".
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import dijkstra as _sp_dijkstra

from .graph import WeightedGraph, edge_key, graph_csr
from .light import t_light_init
from .shortest import INF, ShortestPathIndex, build_index, path_vertices


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


@dataclass(frozen=True, eq=False)
class PairOrder:
    """Deterministic processing order for vertex pairs.

    pairs is a k x 2 int64 array whose rows are (min id, max id), in
    processing order; an empty order has shape (0, 2).
    """

    pairs: np.ndarray
    mode: str


def make_pair_order(
    idx: ShortestPathIndex, pairs: Sequence[tuple[int, int]] | np.ndarray, mode: str = "W-then-dist"
) -> PairOrder:
    """Sort pairs by heaviest-path-edge weight, optionally then by distance.

    pairs is any sequence of vertex pairs or a k x 2 integer array, in
    either orientation.  mode "W-then-dist": key (W, d, min id, max id);
    mode "W-only": key (W, min id, max id).  Both orders are total and
    deterministic.
    """
    if mode not in ("W-then-dist", "W-only"):
        raise ValueError(f"unknown pair order mode {mode!r}")
    uv = np.sort(np.asarray(pairs, dtype=np.int64).reshape(-1, 2), axis=1)
    us, vs = uv[:, 0], uv[:, 1]
    if mode == "W-then-dist":
        order = np.lexsort((vs, us, idx.dist[us, vs], idx.W[us, vs]))
    else:
        order = np.lexsort((vs, us, idx.W[us, vs]))
    return PairOrder(uv[order], mode)


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
    g: WeightedGraph,
    idx: ShortestPathIndex,
    start_edges: set[tuple[int, int]],
    pairs: np.ndarray,
    c: float,
) -> tuple[set[tuple[int, int]], list[tuple[int, int]], int]:
    """Scan ordered pairs, buying canonical paths.

    pairs is a PairOrder's k x 2 array.  The thresholds d_G + c*W of all
    pairs are computed once, as an array; a pair's canonical path is
    computed (path_vertices) and added only when the current spanner
    distance strictly exceeds its threshold.  The oracle is primed with the
    rows of the vertices the pairs name, the only rows upper() and refresh()
    read, and its weight dict is the one edge set.  Returns (final edges,
    pairs bought, edges added by paths).
    """
    us, vs = pairs[:, 0], pairs[:, 1]
    thresh = idx.dist[us, vs] + c * idx.W[us, vs]
    oracle = _GrowingDistances(g.n, {k: g.weight(*k) for k in start_edges})
    oracle.prime(np.unique(pairs).tolist())
    bought: list[tuple[int, int]] = []
    added = 0
    for u, v, t in zip(us.tolist(), vs.tolist(), thresh.tolist()):
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


def _connected_pairs(idx: ShortestPathIndex, vertices: list[int] | None = None) -> np.ndarray:
    """Connected pairs as a k x 2 int64 array of (u, v) rows with u < v.

    With vertices, only pairs inside that subset are returned.
    """
    if vertices is None:
        return np.argwhere(np.triu(np.isfinite(idx.dist), k=1))
    vs = np.array(sorted(vertices), dtype=np.int64)
    return vs[np.argwhere(np.triu(np.isfinite(idx.dist[np.ix_(vs, vs)]), k=1))]


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
    d_G(u,v) + (6+eps)*W(u,v).
    """
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if idx is None:
        idx = build_index(g)
    t = max(1, math.ceil(g.n ** (1.0 / 3.0)))
    start = t_light_init(g, t).kept_edges
    order = make_pair_order(idx, _connected_pairs(idx), "W-then-dist")
    edges, bought, added = _buy_paths(g, idx, start, order.pairs, 6.0 + eps)
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
    pairs by heaviest path edge only.
    """
    S = sorted(set(subset))
    if not S:
        raise ValueError("subset must be nonempty")
    for s in S:
        if not 0 <= s < g.n:
            raise ValueError(f"subset vertex {s} out of range")
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if idx is None:
        idx = build_index(g)
    t = max(1, math.ceil(math.sqrt(len(S))))
    start = t_light_init(g, t).kept_edges
    order = make_pair_order(idx, _connected_pairs(idx, S), "W-only")
    edges, bought, added = _buy_paths(g, idx, start, order.pairs, 2.0 + eps)
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
    greedy_multiplicative(g, multiplicative_k_for(g.n)).
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must be in [0, 1], got {eps}")
    if not c > 0:
        raise ValueError(f"c must be > 0, got {c}")
    if idx is None:
        idx = build_index(g)
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
    order = make_pair_order(idx, _connected_pairs(idx), "W-only")
    edges, bought, added = _buy_paths(g, idx, start, order.pairs, factor)
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
