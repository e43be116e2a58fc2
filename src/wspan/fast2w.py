"""Randomized +2W spanner via geometric degree levels and sampled hitting sets.

Level i has a degree threshold s_i = n/2^i.  High-degree vertices (degree >=
s_i) restrict their surviving incident edges to the "bunch": edges strictly
lighter than the edge to their pivot, the lightest-edge neighbor inside the
level's random sample D_i.  Low-degree vertices keep everything.  Shortest
path trees rooted at every sampled vertex over the level's surviving edges
(plus the pivot edges) repair every pair whose shortest path lost an edge at
this level, at an additive cost of twice the heaviest path edge.  Whatever
survives all levels is small enough to dump wholesale.

All randomness is a seeded generator, so a (graph, c, seed) triple fully
determines the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import WeightedGraph, edge_key
from .greedy import SpannerResult
from .shortest import canonical_rows

EdgeSet = set[tuple[int, int]]


@dataclass
class LevelStructure:
    """Sampled level data: thresholds, samples, pivots, and edge sets.

    Lists are indexed by level 0..k (level 0 is empty by convention since
    s_0 = n exceeds every degree); E maps level i in [1, k+1] to the edge
    set surviving into that level.
    """

    k: int
    s: list[float]
    V: list[frozenset[int]]
    D: list[frozenset[int]]
    pivot: list[dict[int, int]]
    estar: list[EdgeSet]
    E: dict[int, EdgeSet]
    rng_seed: int
    c: float

    def level_sizes(self) -> list[dict]:
        return [
            {
                "level": i,
                "s": self.s[i],
                "v_size": len(self.V[i]),
                "d_size": len(self.D[i]),
                "e_size": len(self.E.get(i, ())) if i >= 1 else None,
            }
            for i in range(self.k + 1)
        ] + [{"level": self.k + 1, "e_size": len(self.E[self.k + 1])}]


def sample_levels(g: WeightedGraph, c: float, seed: int) -> LevelStructure:
    """Sample the level structure for the +2W construction.

    Per level i in [1, k]: every vertex joins D_i independently with
    probability min(1, c*log2(n)/s_i); the per-level membership draws are
    consumed in level order from one seeded PCG64 stream.
    """
    if c < 1:
        raise ValueError(f"c must be >= 1, got {c}")
    n = g.n
    adj = g.adjacency()
    k = max(0, math.ceil(0.5 * math.log2(n))) if n >= 2 else 0
    s = [n / 2.0**i for i in range(k + 1)]
    deg = [len(adj[v]) for v in range(n)]
    V = [frozenset(v for v in range(n) if deg[v] >= s[i]) for i in range(k + 1)]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    D: list[frozenset[int]] = [frozenset()]
    for i in range(1, k + 1):
        p = min(1.0, c * math.log2(n) / s[i])
        draws = rng.random(n)
        D.append(frozenset(np.nonzero(draws < p)[0].tolist()))
    pivot: list[dict[int, int]] = [{}]
    estar: list[EdgeSet] = [set()]
    for i in range(1, k + 1):
        pv: dict[int, int] = {}
        es: EdgeSet = set()
        for v in V[i]:
            best: tuple[float, int] | None = None
            for u, w in adj[v]:
                if u in D[i] and (best is None or (w, u) < best):
                    best = (w, u)
            if best is not None:
                pv[v] = best[1]
                es.add(edge_key(v, best[1]))
        pivot.append(pv)
        estar.append(es)
    E: dict[int, EdgeSet] = {1: g.edge_keys()}
    for i in range(1, k + 1):
        nxt: EdgeSet = set()
        for v in range(n):
            if v in V[i] and v in pivot[i]:
                cutoff = g.weight(v, pivot[i][v])
                nxt.update(edge_key(v, u) for u, w in adj[v] if w < cutoff)
            else:
                nxt.update(edge_key(v, u) for u, _ in adj[v])
        E[i + 1] = nxt
    return LevelStructure(k=k, s=s, V=V, D=D, pivot=pivot, estar=estar, E=E, rng_seed=seed, c=c)


def _spt_edges(g: WeightedGraph, roots: list[int]) -> EdgeSet:
    """Union of canonical shortest-path-tree edges of g over the given roots."""
    if not roots:
        return set()
    _, _, parent = canonical_rows(g, roots, need_weights=False)
    # each vertex's distinct parents, found down its column without a k x n index array
    parent.sort(axis=0)
    fresh = parent >= 0
    fresh[1:] &= parent[1:] != parent[:-1]
    u = parent[fresh].astype(np.int64)
    v = np.nonzero(fresh)[1]
    return set(zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist()))


def build_fast_2w(g: WeightedGraph, c: float = 4.0, seed: int = 0) -> SpannerResult:
    """Randomized spanner with additive stretch twice the heaviest path edge.

    For each level, adds the canonical shortest-path trees rooted at every
    sampled vertex over that level's surviving edges plus pivot edges, then
    dumps the edges surviving past the last level.  Output is always a
    subgraph of g; the stretch bound holds with high probability in c.
    """
    ls = sample_levels(g, c, seed)
    edges: EdgeSet = set()
    per_level_tree_edges = []
    for i in range(1, ls.k + 1):
        tree = _spt_edges(g.subgraph(ls.E[i] | ls.estar[i]), sorted(ls.D[i]))
        per_level_tree_edges.append(len(tree))
        edges |= tree
    edges |= ls.E[ls.k + 1]
    return SpannerResult(
        edges=edges,
        params={"algo": "fast2w", "c": c, "seed": seed, "k": ls.k},
        stats={
            "levels": ls.level_sizes(),
            "phase_edge_counts": {
                "spt_trees": per_level_tree_edges,
                "final_dump": len(ls.E[ls.k + 1]),
            },
        },
    )
