"""Randomized +2W spanner via geometric degree levels and sampled hitting sets.

Level i has a degree threshold s_i = n/2^i.  High-degree vertices (degree >=
s_i) restrict their surviving incident edges to the "bunch": edges strictly
lighter than the edge to their pivot, the lightest-edge neighbor inside the
level's random sample D_i.  Low-degree vertices keep everything.  Shortest
path trees rooted at every sampled vertex over the level's surviving edges
(plus the pivot edges) repair every pair whose shortest path lost an edge at
this level, at an additive cost of twice the heaviest path edge.  Whatever
survives all levels is small enough to dump wholesale.  Pivots are found
in one sort of the incident edges by (vertex, weight, neighbor id).  Every
edge set, a level's pivot edges, its surviving edges, its trees and the
result, is a boolean mask over g.edge_arrays().

While s_i exceeds every degree no vertex pivots, so the first levels are
often all of g.  Levels are therefore grouped by edge set: each distinct
level graph gets one graph_csr of its masked arrays, and Dijkstra runs once
from each root sampled at any level of the group, a _sweep_rows block of
roots at a time, each level taking the rows of its own roots.  Memory is
O(block * n + k * m).

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
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .graph import WeightedGraph, _sweep_rows, graph_csr
from .greedy import SpannerResult


@dataclass
class LevelStructure:
    """Sampled level data: thresholds, samples and edge masks.

    Lists are indexed by level 0..k (level 0 is empty by convention since
    s_0 = n exceeds every degree): v_sizes[i] counts the vertices of degree
    >= s_i, D[i] is the sample and estar[i] the pivot edges.  E maps level i
    in [1, k+1] to the edges surviving into that level.  Each edge set is a
    boolean mask over g.edge_arrays().
    """

    k: int
    s: list[float]
    v_sizes: list[int]
    D: list[frozenset[int]]
    estar: list[np.ndarray]
    E: dict[int, np.ndarray]

    def level_sizes(self) -> list[dict]:
        return [
            {
                "level": i,
                "s": self.s[i],
                "v_size": self.v_sizes[i],
                "d_size": len(self.D[i]),
                "e_size": int(np.count_nonzero(self.E[i])) if i >= 1 else None,
            }
            for i in range(self.k + 1)
        ] + [{"level": self.k + 1, "e_size": int(np.count_nonzero(self.E[self.k + 1]))}]


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
    tail, head, wt = g.incident_by_weight()
    a, b, w = g.edge_arrays()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    D: list[frozenset[int]] = [frozenset()]
    estar = [np.zeros(len(w), dtype=bool)]
    E = {1: np.ones(len(w), dtype=bool)}
    for i in range(1, k + 1):
        in_d = rng.random(n) < min(1.0, c * math.log2(n) / s[i])
        D.append(frozenset(np.flatnonzero(in_d).tolist()))
        hits = np.flatnonzero(in_d[head] & (deg[tail] >= s[i]))
        # entries are grouped by tail, so a tail's first hit is its pivot edge
        piv = hits[np.diff(tail[hits], prepend=-1) != 0]
        pivots = np.zeros(len(w), dtype=bool)
        pivots[g.edge_ids(tail[piv], head[piv])] = True
        estar.append(pivots)
        cutoff = np.full(n, math.inf)
        cutoff[tail[piv]] = wt[piv]
        # an edge is in a bunch when it is lighter than either end's pivot edge
        E[i + 1] = (w < cutoff[a]) | (w < cutoff[b])
    v_sizes = [int(np.count_nonzero(deg >= si)) for si in s]
    return LevelStructure(k=k, s=s, v_sizes=v_sizes, D=D, estar=estar, E=E)


def _add_tree_edges(g: WeightedGraph, parent: np.ndarray, tree: np.ndarray) -> None:
    """Mark in tree, a mask over g.edge_arrays(), the edges of the predecessor
    rows parent (sorted in place)."""
    # each vertex's distinct parents, found down its column without a k x n index array;
    # scipy marks the root and unreachable vertices with -9999
    parent.sort(axis=0)
    fresh = parent >= 0
    fresh[1:] &= parent[1:] != parent[:-1]
    tree[g.edge_ids(parent[fresh], np.nonzero(fresh)[1])] = True


def _level_trees(
    g: WeightedGraph, level: csr_matrix, samples: list[frozenset[int]]
) -> tuple[list[np.ndarray], int]:
    """(trees, roots): per sample, the mask over g.edge_arrays() of the union
    of shortest-path-tree edges over its vertices as roots, in the subgraph
    of g whose CSR is level; and the number of distinct roots, each of which
    Dijkstra ran from once.

    Each root's tree is Dijkstra's own predecessor tree.  scipy computes a
    root's predecessor row from the CSR and that root alone, so one row
    serves every sample holding the root.  The roots are taken
    _sweep_rows(n) at a time, and a block's rows are freed before the next.
    Where no distance from a root ties, its tree is the only shortest-path
    tree.
    """
    trees = [np.zeros(g.m, dtype=bool) for _ in samples]
    roots = sorted(frozenset().union(*samples))
    member = np.zeros((len(samples), g.n), dtype=bool)
    for j, sample in enumerate(samples):
        member[j, list(sample)] = True
    rows = _sweep_rows(g.n)
    for lo in range(0, len(roots), rows):
        block = roots[lo : lo + rows]
        _, parent = dijkstra(level, directed=True, indices=block, return_predecessors=True)
        for tree, held in zip(trees, member[:, block]):
            if held.any():
                _add_tree_edges(g, parent[held], tree)
    return trees, len(roots)


def build_fast_2w(g: WeightedGraph, c: float = 4.0, seed: int = 0) -> SpannerResult:
    """Randomized spanner with additive stretch twice the heaviest path edge.

    For each level, adds a shortest-path tree rooted at every sampled vertex
    over that level's surviving edges plus pivot edges (Dijkstra's own
    predecessors; no tie rule), then dumps the edges surviving past the last
    level.  Levels with equal edge sets share one CSR, and Dijkstra runs once
    from each vertex sampled at any of them; stats["spt_sources"] counts
    those runs.  Output is always a subgraph of g, fixed by (g, c, seed) for
    a given scipy; the stretch bound holds with high probability in c.
    """
    ls = sample_levels(g, c, seed)
    a, b, w = g.edge_arrays()
    kept = ls.E[ls.k + 1].copy()
    # levels by edge set: while s_i exceeds every degree, a level is all of g
    groups: dict[bytes, tuple[np.ndarray, list[int]]] = {}
    for i in range(1, ls.k + 1):
        level = ls.E[i] | ls.estar[i]
        groups.setdefault(level.tobytes(), (level, []))[1].append(i)
    per_level_tree_edges = [0] * ls.k
    sources = 0
    for level, members in groups.values():
        trees, roots = _level_trees(
            g, graph_csr(g.n, a[level], b[level], w[level]), [ls.D[i] for i in members]
        )
        sources += roots
        for i, tree in zip(members, trees):
            per_level_tree_edges[i - 1] = int(np.count_nonzero(tree))
            kept |= tree
    return SpannerResult(
        kept=kept,
        params={"algo": "fast2w", "c": c, "seed": seed, "k": ls.k},
        stats={
            "levels": ls.level_sizes(),
            "phase_edge_counts": {
                "spt_trees": per_level_tree_edges,
                "final_dump": int(np.count_nonzero(ls.E[ls.k + 1])),
            },
            "spt_sources": sources,
        },
    )
