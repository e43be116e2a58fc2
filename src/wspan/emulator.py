"""Additive +4W emulator: heavy light-initialization plus a sampled clique.

Unlike a spanner, the emulator may contain edges absent from the input
graph; it must never shorten a distance.  The construction keeps each
vertex's ceil(2 * n^(1/3) * ln n) lightest edges at their original weights
and connects every pair of a random vertex sample (rate n^(-1/3)) by a
virtual edge weighted with the exact graph distance.  Only the distances
among the sample are read: from the index when one is given, else from one
Dijkstra per sampled vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph, edge_key
from .light import t_light_init
from .shortest import ShortestPathIndex, distance_matrix


@dataclass
class EmulatorResult:
    """A weighted graph on the input's vertex set, edges tagged by origin.

    edges maps (u, v) with u < v to (weight, tag); tag "g" marks an original
    graph edge at its original weight, tag "v" a virtual edge weighted with
    the exact graph distance of its endpoints.
    """

    n: int
    edges: dict[tuple[int, int], tuple[float, str]]
    S: tuple[int, ...]
    params: dict

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def virtual_count(self) -> int:
        return sum(1 for _, tag in self.edges.values() if tag == "v")

    def to_graph(self) -> WeightedGraph:
        return WeightedGraph(self.n, [(u, v, w) for (u, v), (w, _) in self.edges.items()])


def build_4w_emulator(
    g: WeightedGraph, seed: int = 0, idx: ShortestPathIndex | None = None
) -> EmulatorResult:
    """Build the emulator; deterministic given (g, seed).

    Virtual edges are added for connected sample pairs only (a disconnected
    pair has no finite distance to carry).  When a sampled pair is also a
    kept graph edge, the smaller weight wins and the entry is tagged virtual
    only if the distance is strictly smaller than the edge weight.  Without
    idx the sample's distances come from distance_matrix over its rows, so no
    index is built; the edges are the same either way.
    """
    n = g.n
    if n < 2:
        raise ValueError(f"emulator needs n >= 2, got n={n}")
    t = max(1, math.ceil(2.0 * n ** (1.0 / 3.0) * math.log(n)))
    edges: dict[tuple[int, int], tuple[float, str]] = {}
    for u, v in t_light_init(g, t).kept_edges:
        edges[(u, v)] = (g.weight(u, v), "g")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sample = np.nonzero(rng.random(n) < n ** (-1.0 / 3.0))[0].tolist()
    if idx is None:
        dist = distance_matrix(g.csr(), sample)[:, sample]
    else:
        dist = idx.dist[np.ix_(sample, sample)]
    for i, a in enumerate(sample):
        for j, b in enumerate(sample[i + 1 :], start=i + 1):
            d = float(dist[i, j])
            if not np.isfinite(d):
                continue
            key = edge_key(a, b)
            held = edges.get(key)
            if held is None or d < held[0]:
                edges[key] = (d, "v")
    return EmulatorResult(
        n=n,
        edges=edges,
        S=tuple(sample),
        params={"algo": "emulator4w", "seed": seed, "t": t, "sample_prob": n ** (-1.0 / 3.0)},
    )
