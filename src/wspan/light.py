"""Light-edge initialization: each vertex keeps its t lightest incident edges.

The kept edge set seeds every deterministic spanner construction and the
emulator.  An edge survives if either endpoint selects it, so the result has
at most n*t edges.  The selection is one pass over the graph's incident
edges sorted by (vertex, weight, neighbor id): an entry is kept when fewer
than t entries of its vertex precede it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph


@dataclass(frozen=True, eq=False)
class LightInit:
    """Result of a t-light initialization: kept is a boolean mask over
    g.edge_arrays() of the edges that either endpoint selected."""

    t: int
    kept: np.ndarray

    @property
    def kept_edges(self) -> np.ndarray:
        """Positions in g.edge_arrays() of the kept edges."""
        return np.flatnonzero(self.kept)


def t_light_init(g: WeightedGraph, t: int) -> LightInit:
    """Keep, for each vertex, its min(deg, t) lightest incident edges.

    Ties at the cutoff weight are broken toward the smaller neighbor id, so
    the result is deterministic for a given graph.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    tail, head, _ = g.incident_by_weight()
    # rank of each entry among its vertex's entries
    keep = np.arange(len(tail)) - g.csr().indptr[tail] < t
    kept = np.zeros(g.m, dtype=bool)
    kept[g.edge_ids(tail[keep], head[keep])] = True
    return LightInit(t, kept)
