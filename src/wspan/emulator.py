"""Additive +4W emulator: heavy light-initialization plus a sampled clique.

Unlike a spanner, the emulator may contain edges absent from the input
graph; it must never shorten a distance.  The construction keeps each
vertex's ceil(2 * n^(1/3) * ln n) lightest edges at their original weights
and connects every pair of a random vertex sample (rate n^(-1/3)) by a
virtual edge weighted with the exact graph distance.  Only the distances
among the sample are read, from G's rows of the sampled vertices
(shortest.index_rows: sliced from the index when one is given, else one
Dijkstra per sampled vertex).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import WeightedGraph
from .light import t_light_init
from .shortest import index_rows


@dataclass(eq=False)
class EmulatorResult:
    """A weighted graph on the input's vertex set, edges tagged by origin.

    The edges are the arrays (a, b, w), a < b, sorted by (a, b); virtual is
    False for an original graph edge at its original weight and True for a
    virtual edge weighted with the exact graph distance of its endpoints.
    stats holds the builder's counts (empty on an emulator read from a file).
    """

    n: int
    a: np.ndarray
    b: np.ndarray
    w: np.ndarray
    virtual: np.ndarray
    S: tuple[int, ...]
    params: dict
    stats: dict = field(default_factory=dict)

    @property
    def edges(self) -> dict[tuple[int, int], tuple[float, str]]:
        """{(u, v): (weight, tag)}, tag "g" for a graph edge, "v" for a virtual one."""
        tags = np.where(self.virtual, "v", "g").tolist()
        return dict(zip(zip(self.a.tolist(), self.b.tolist()), zip(self.w.tolist(), tags)))

    @property
    def m(self) -> int:
        return len(self.a)

    @property
    def virtual_count(self) -> int:
        return int(np.count_nonzero(self.virtual))

    def to_graph(self) -> WeightedGraph:
        return WeightedGraph._from_arrays(self.n, self.a, self.b, self.w)


def build_4w_emulator(
    g: WeightedGraph, seed: int = 0, idx: np.ndarray | None = None
) -> EmulatorResult:
    """Build the emulator; deterministic given (g, seed).

    Virtual edges are added for connected sample pairs only (a disconnected
    pair has no finite distance to carry).  When a sampled pair is also a
    kept graph edge, the smaller weight wins and the entry is tagged virtual
    only if the distance is strictly smaller than the edge weight.  idx,
    G's index, is an optional cache; without it no index is built, and the
    edges are the same either way.
    """
    n = g.n
    if n < 2:
        raise ValueError(f"emulator needs n >= 2, got n={n}")
    t = max(1, math.ceil(2.0 * n ** (1.0 / 3.0) * math.log(n)))
    kept = t_light_init(g, t).kept
    ga, gb, gw = (x[kept] for x in g.edge_arrays())
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sample = np.nonzero(rng.random(n) < n ** (-1.0 / 3.0))[0]
    dist = index_rows(g, idx, sample)[:, sample]
    # the kept edges, then the connected sample pairs (sorted, so a < b);
    # each pair's lightest entry wins, and on a tie the graph edge
    i, j = np.triu_indices(len(sample), k=1)
    d = dist[i, j]
    finite = np.isfinite(d)
    a = np.concatenate([ga, sample[i[finite]]])
    b = np.concatenate([gb, sample[j[finite]]])
    w = np.concatenate([gw, d[finite]])
    virtual = np.arange(len(a)) >= len(ga)
    codes = a * n + b
    order = np.lexsort((virtual, w, codes))
    order = order[np.diff(codes[order], prepend=-1) != 0]
    virtual = virtual[order]
    v = int(np.count_nonzero(virtual))
    params = {"algo": "emulator4w", "seed": seed, "t": t, "sample_prob": n ** (-1.0 / 3.0)}
    stats = {
        "phase_edge_counts": {"light_init": len(order) - v, "virtual": v},
        "sampled_set_size": len(sample),
        "virtual_edges": v,
    }
    return EmulatorResult(n, a[order], b[order], w[order], virtual, tuple(sample.tolist()), params, stats)
