"""Undirected weighted graph with strictly positive edge weights.

Vertices are integer ids 0..n-1.  Edges are unordered pairs stored under the
key (min(u,v), max(u,v)).  Instances are immutable after construction and
safe to share between threads; the only state they fill in later is the
adjacency tuples, derived from the edges and cached for the life of the
object.
"""

from __future__ import annotations

import math
from collections.abc import Iterable


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Normalized dict key for the undirected edge {u, v}."""
    return (u, v) if u < v else (v, u)


class WeightedGraph:
    """Simple undirected graph with positive real edge weights.

    Rejects self-loops, parallel edges, out-of-range vertex ids, and
    non-positive or non-finite weights at construction time.

    The adjacency tuples are cached on first use and freed with the graph.
    Two threads filling the cache at once compute the same value twice;
    neither result is wrong.
    """

    __slots__ = ("n", "_w", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, float]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        w: dict[tuple[int, int], float] = {}
        for u, v, weight in edges:
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
        self._w = w
        self._adj: tuple[tuple[tuple[int, float], ...], ...] | None = None

    @property
    def m(self) -> int:
        return len(self._w)

    def weight(self, u: int, v: int) -> float:
        return self._w[edge_key(u, v)]

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self._w

    def edge_items(self) -> list[tuple[int, int, float]]:
        """Edges as (u, v, w) with u < v, in sorted order."""
        return [(u, v, w) for (u, v), w in sorted(self._w.items())]

    def edge_keys(self) -> set[tuple[int, int]]:
        return set(self._w)

    def weights(self) -> dict[tuple[int, int], float]:
        return dict(self._w)

    def adjacency(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """Per-vertex tuple of (neighbor, weight), sorted by neighbor id."""
        if self._adj is None:
            lists: list[list[tuple[int, float]]] = [[] for _ in range(self.n)]
            for (u, v), w in sorted(self._w.items()):
                lists[u].append((v, w))
                lists[v].append((u, w))
            for lst in lists:
                lst.sort()
            self._adj = tuple(tuple(lst) for lst in lists)
        return self._adj

    def degree(self, u: int) -> int:
        return len(self.adjacency()[u])

    def subgraph(self, keys: Iterable[tuple[int, int]]) -> "WeightedGraph":
        """Graph on the same vertex set keeping only the given edge keys."""
        return WeightedGraph(self.n, [(u, v, self._w[edge_key(u, v)]) for u, v in keys])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self.n == other.n and self._w == other._w

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={self.m})"

