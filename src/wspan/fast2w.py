"""Randomized +2W spanner via geometric degree levels and sampled hitting sets.

Level i has a degree threshold s_i = n/2^i.  High-degree vertices (degree >=
s_i) restrict their surviving incident edges to the "bunch": edges strictly
lighter than the edge to their pivot, the lightest-edge neighbor inside the
level's random sample D_i.  Low-degree vertices keep everything.  Shortest
path trees rooted at every sampled vertex over the level's surviving edges
(plus the pivot edges) repair every pair whose shortest path lost an edge at
this level, at an additive cost of twice the heaviest path edge.  Whatever
survives all levels is small enough to dump wholesale.  Every level's
pivots and bunches are masks over one sort of the incident edges by
(vertex, weight, neighbor id).

The proof needs from each sampled root only exact distances over its level's
edges, so each tree is whichever shortest-path tree Dijkstra builds; the
canonical tie rule of wspan.shortest plays no part here.  All randomness is a
seeded generator, so a (graph, c, seed) triple fully determines the output
for a given scipy version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .graph import WeightedGraph, edge_key_set
from .greedy import SpannerResult

EdgeSet = set[tuple[int, int]]


@dataclass
class LevelStructure:
    """Sampled level data: thresholds, samples and edge sets.

    Lists are indexed by level 0..k (level 0 is empty by convention since
    s_0 = n exceeds every degree): v_sizes[i] counts the vertices of degree
    >= s_i, D[i] is the sample and estar[i] the pivot edges.  E maps level i
    in [1, k+1] to the edge set surviving into that level.
    """

    k: int
    s: list[float]
    v_sizes: list[int]
    D: list[frozenset[int]]
    estar: list[EdgeSet]
    E: dict[int, EdgeSet]
    rng_seed: int
    c: float

    def level_sizes(self) -> list[dict]:
        return [
            {
                "level": i,
                "s": self.s[i],
                "v_size": self.v_sizes[i],
                "d_size": len(self.D[i]),
                "e_size": len(self.E.get(i, ())) if i >= 1 else None,
            }
            for i in range(self.k + 1)
        ] + [{"level": self.k + 1, "e_size": len(self.E[self.k + 1])}]


def sample_levels(g: WeightedGraph, c: float, seed: int) -> LevelStructure:
    """Sample the level structure for the +2W construction.

    Per level i in [1, k]: every vertex joins D_i independently with
    probability min(1, c*log2(n)/s_i); the per-level membership draws are
    consumed in level order from one seeded PCG64 stream.  A vertex of
    degree >= s_i with a neighbor in D_i pivots on its lightest such edge
    (ties toward the smaller neighbor id): the first of its incident edges,
    sorted by (weight, neighbor id), whose head is in D_i.  Its bunch, the
    edges it passes to level i + 1, are those strictly lighter than that
    edge; every other vertex passes all its edges.
    """
    if not 1 <= c < math.inf:
        raise ValueError(f"c must be finite and >= 1, got {c}")
    n = g.n
    k = max(0, math.ceil(0.5 * math.log2(n))) if n >= 2 else 0
    s = [n / 2.0**i for i in range(k + 1)]
    deg = np.diff(g.csr().indptr)
    tail, head, w = g.incident_by_weight()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    D: list[frozenset[int]] = [frozenset()]
    estar: list[EdgeSet] = [set()]
    E: dict[int, EdgeSet] = {1: g.edge_keys()}
    for i in range(1, k + 1):
        in_d = rng.random(n) < min(1.0, c * math.log2(n) / s[i])
        D.append(frozenset(np.flatnonzero(in_d).tolist()))
        hits = np.flatnonzero(in_d[head] & (deg[tail] >= s[i]))
        # entries are grouped by tail, so a tail's first hit is its pivot edge
        piv = hits[np.diff(tail[hits], prepend=-1) != 0]
        estar.append(edge_key_set(tail[piv], head[piv]))
        cutoff = np.full(n, math.inf)
        cutoff[tail[piv]] = w[piv]
        bunch = w < cutoff[tail]
        E[i + 1] = edge_key_set(tail[bunch], head[bunch])
    v_sizes = [int(np.count_nonzero(deg >= si)) for si in s]
    return LevelStructure(k=k, s=s, v_sizes=v_sizes, D=D, estar=estar, E=E, rng_seed=seed, c=c)


def _spt_edges(g: WeightedGraph, roots: list[int]) -> EdgeSet:
    """Union of shortest-path-tree edges of g over the given roots.

    Each root's tree is Dijkstra's own predecessor tree, from one scipy call
    over g's CSR.  Where no distance from a root ties, it is the only
    shortest-path tree.
    """
    if not roots:
        return set()
    _, parent = dijkstra(g.csr(), directed=True, indices=roots, return_predecessors=True)
    # each vertex's distinct parents, found down its column without a k x n index array;
    # scipy marks the root and unreachable vertices with -9999
    parent.sort(axis=0)
    fresh = parent >= 0
    fresh[1:] &= parent[1:] != parent[:-1]
    u = parent[fresh].astype(np.int64)
    return edge_key_set(u, np.nonzero(fresh)[1])


def build_fast_2w(g: WeightedGraph, c: float = 4.0, seed: int = 0) -> SpannerResult:
    """Randomized spanner with additive stretch twice the heaviest path edge.

    For each level, adds a shortest-path tree rooted at every sampled vertex
    over that level's surviving edges plus pivot edges (Dijkstra's own
    predecessors; no tie rule), then dumps the edges surviving past the last
    level.  Output is always a subgraph of g, fixed by (g, c, seed) for a
    given scipy; the stretch bound holds with high probability in c.
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
