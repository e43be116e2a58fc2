"""Exact brute-force certification of stretch bounds and size scaling.

G's distances and heaviest path edges come from its ShortestPathIndex, or,
for a subset pair class S checked without one, from G's canonical rows of S
alone (shortest.canonical_rows).  A candidate H's distances are computed
exactly by Dijkstra: from every vertex for all-pairs classes, or, for a
subset pair class S, from the vertices of S only.  H's all-pairs matrix is
computed at most once per graph object and kept on it (WeightedGraph._dist)
until the graph is freed, so the lower- and upper-bound checks of an
emulator share one run.  A passing report is a proof for the instance at
hand (up to the stated float tolerance).  Pairs that are connected in the
base graph but not in the candidate are reported as a distinct "unreachable"
violation kind so that construction bugs are not conflated with stretch
failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .graph import WeightedGraph
from .shortest import ShortestPathIndex, build_index, canonical_rows, distance_matrix

REL_TOL = 1e-9


@dataclass(frozen=True)
class Violation:
    u: int
    v: int
    d_g: float
    d_h: float
    w_heavy: float
    slack: float
    kind: str = "stretch"

    def to_dict(self) -> dict:
        return {
            "u": self.u,
            "v": self.v,
            "d_g": self.d_g,
            "d_h": self.d_h,
            "w_heavy": self.w_heavy,
            "slack": self.slack,
            "kind": self.kind,
        }


@dataclass
class StretchReport:
    """Outcome of one verification pass."""

    bound_kind: str
    params: dict
    pairs_checked: int
    violations: list[Violation] = field(default_factory=list)
    max_slack_ratio: float = math.nan
    size: int = 0

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "bound_kind": self.bound_kind,
            "params": self.params,
            "pairs_checked": self.pairs_checked,
            "passed": self.passed,
            "violation_count": len(self.violations),
            "violations": [v.to_dict() for v in self.violations[:50]],
            "max_slack_ratio": None if math.isnan(self.max_slack_ratio) else self.max_slack_ratio,
            "size": self.size,
        }


def _h_distances(h: WeightedGraph, sources: list[int] | None = None) -> np.ndarray:
    """Rows of H's distance matrix: all n, or those of the given sources.

    The all-pairs matrix is computed on first request and kept read-only on
    h.  A sources request reads it when it is there and otherwise runs
    Dijkstra from the sources alone, without filling the memo.
    """
    if h._dist is None:
        if sources is not None:
            return distance_matrix(h.n, h.edge_items(), sources=sources)
        dist = distance_matrix(h.n, h.edge_items())
        dist.setflags(write=False)
        h._dist = dist
    return h._dist if sources is None else h._dist[sources]


def _upper(n: int) -> np.ndarray:
    """Mask of the pairs i < j of an n x n block."""
    return np.triu(np.ones((n, n), dtype=bool), k=1)


def _slack_ratio(dg: np.ndarray, dh: np.ndarray, W: np.ndarray, mask: np.ndarray) -> float:
    sel = mask & np.isfinite(dg) & np.isfinite(dh) & (W > 0) & np.isfinite(W)
    if not sel.any():
        return math.nan
    return float(((dh[sel] - dg[sel]) / W[sel]).max())


def _collect(
    report: StretchReport,
    dg: np.ndarray,
    dh: np.ndarray,
    W: np.ndarray,
    bound: np.ndarray,
    ids: list[int] | None = None,
) -> StretchReport:
    """Shared violation sweep: bound holds, up to relative tolerance.

    The arrays are square blocks over the same vertices, and the pairs i < j
    of the block are checked.  Row/column i is vertex ids[i], or vertex i
    when ids is None.
    """
    mask = _upper(dg.shape[0])
    connected = mask & np.isfinite(dg)
    report.pairs_checked = int(connected.sum())
    unreachable = connected & ~np.isfinite(dh)
    with np.errstate(invalid="ignore"):  # inf-inf on pairs the masks discard
        tol = REL_TOL * np.maximum(1.0, np.abs(bound))
        over = connected & np.isfinite(dh) & (dh - bound > tol)
    vid = (lambda i: int(i)) if ids is None else (lambda i: int(ids[i]))
    for u, v in np.argwhere(unreachable):
        report.violations.append(
            Violation(vid(u), vid(v), float(dg[u, v]), math.inf, float(W[u, v]), math.inf, "unreachable")
        )
    for u, v in np.argwhere(over):
        report.violations.append(
            Violation(
                vid(u), vid(v), float(dg[u, v]), float(dh[u, v]), float(W[u, v]),
                float(dh[u, v] - bound[u, v]),
            )
        )
    report.max_slack_ratio = _slack_ratio(dg, dh, W, mask)
    return report


def verify_additive_W(
    g: WeightedGraph,
    h: WeightedGraph,
    c_of_n: float | Callable[[int], float],
    pair_class: list[int] | None = None,
    idx: ShortestPathIndex | None = None,
) -> StretchReport:
    """Check d_H <= d_G + c * W(u,v) for every connected pair in the class.

    W(u,v) is the heaviest edge on the canonical shortest u-v path of g.
    c_of_n may be a constant or a function of the vertex count (for bounds
    like c * sqrt(n) * log n).  pair_class None means all pairs; otherwise
    only pairs inside the given (nonempty) subset are checked, and the
    distances of H, and of g when idx is None, are computed from the
    subset's vertices only.
    """
    if h.n != g.n:
        raise ValueError(f"vertex set mismatch: g has n={g.n}, h has n={h.n}")
    S = None
    if pair_class is not None:
        S = sorted(set(pair_class))
        if not S:
            raise ValueError("subset must be nonempty")
        for s in pair_class:
            if not 0 <= s < g.n:
                raise ValueError(f"subset vertex {s} out of range")
    c = float(c_of_n(g.n)) if callable(c_of_n) else float(c_of_n)
    report = StretchReport(
        bound_kind="additive-cW",
        params={"c": c, "pair_class": "all" if S is None else "subset"},
        pairs_checked=0,
        size=h.m,
    )
    if S is None:
        if idx is None:
            idx = build_index(g)
        dg, W, dh = idx.dist, idx.W, _h_distances(h)
    else:
        if idx is None:
            dg, W, _ = canonical_rows(g, S)
        else:
            dg, W = idx.dist[S], idx.W[S]
        dg, W, dh = dg[:, S], W[:, S], _h_distances(h, S)[:, S]
    bound = dg + c * np.where(np.isfinite(W), W, 0.0)
    return _collect(report, dg, dh, W, bound, S)


def verify_multiplicative(
    g: WeightedGraph,
    h: WeightedGraph,
    alpha: float,
    idx: ShortestPathIndex | None = None,
) -> StretchReport:
    """Check d_H <= alpha * d_G for every connected pair."""
    if h.n != g.n:
        raise ValueError(f"vertex set mismatch: g has n={g.n}, h has n={h.n}")
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    if idx is None:
        idx = build_index(g)
    report = StretchReport(
        bound_kind="multiplicative-alpha", params={"alpha": alpha}, pairs_checked=0, size=h.m
    )
    return _collect(report, idx.dist, _h_distances(h), idx.W, alpha * idx.dist)


def verify_subgraph(g: WeightedGraph, h: WeightedGraph) -> bool:
    """True iff every edge of h exists in g with an identical weight."""
    if h.n != g.n:
        return False
    gw = g.weights()
    return all(gw.get(k) == w for k, w in h.weights().items())


def verify_non_contracting(
    g: WeightedGraph,
    h: WeightedGraph,
    idx: ShortestPathIndex | None = None,
) -> StretchReport:
    """Check d_H >= d_G (within relative tolerance) for all pairs.

    The lower-bound side of the emulator contract; unreachable pairs in h
    trivially satisfy it.
    """
    if h.n != g.n:
        raise ValueError(f"vertex set mismatch: g has n={g.n}, h has n={h.n}")
    if idx is None:
        idx = build_index(g)
    dh = _h_distances(h)
    mask = _upper(g.n)
    report = StretchReport(bound_kind="exact", params={"direction": "lower"}, pairs_checked=0, size=h.m)
    connected = mask & np.isfinite(idx.dist)
    report.pairs_checked = int(connected.sum())
    # connecting a pair that g keeps apart shortens an infinite distance
    for u, v in np.argwhere(mask & ~np.isfinite(idx.dist) & np.isfinite(dh)):
        report.violations.append(
            Violation(int(u), int(v), math.inf, float(dh[u, v]), math.inf, math.inf, "contraction")
        )
    with np.errstate(invalid="ignore"):
        contracted = connected & np.isfinite(dh) & (idx.dist - dh > REL_TOL * np.maximum(1.0, idx.dist))
    for u, v in np.argwhere(contracted):
        report.violations.append(
            Violation(
                int(u), int(v), float(idx.dist[u, v]), float(dh[u, v]), float(idx.W[u, v]),
                float(idx.dist[u, v] - dh[u, v]), "contraction",
            )
        )
    report.max_slack_ratio = _slack_ratio(idx.dist, dh, idx.W, mask)
    return report


def size_scaling_fit(records: list[tuple[int, int]]) -> float:
    """Least-squares slope of log(edge_count) against log(n).

    Needs at least three distinct n values with positive edge counts.
    """
    ns = [n for n, _ in records]
    ms = [m for _, m in records]
    if len(set(ns)) < 3:
        raise ValueError("need at least 3 distinct n values to fit an exponent")
    if any(m <= 0 for m in ms) or any(n <= 0 for n in ns):
        raise ValueError("n and edge counts must be positive for a log-log fit")
    slope = np.polyfit(np.log(np.array(ns, dtype=float)), np.log(np.array(ms, dtype=float)), 1)[0]
    return float(slope)
