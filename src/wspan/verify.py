"""Exact brute-force certification of stretch bounds and size scaling.

Every upper-bound check (additive on all pairs or on S x S, multiplicative)
is one sweep: Dijkstra on H from a block of sources at a time over one CSR
of H, compared with the same rows of G's distances and W, read through
shortest.index_rows (sliced from G's index when one is given).  All pairs is
the case S = every vertex.  Blocks are sized by shortest._sweep_rows, so a
check holds O(block * n) memory beyond H and any index given.  The
multiplicative bound reads no W: its sweep takes G's distances alone
(shortest.distance_rows), and W only for the rows that hold a violation.

The lower bound d_H >= d_G holds for every pair iff every edge (a, b) of H
has w_H(a, b) >= d_G(a, b): an H path is then no shorter than the chain of G
distances along it, which the triangle inequality bounds by d_G, and the
edge is itself an H path.  So verify_non_contracting reads one index entry
per H edge, computes no distances of H, and reports violating edges.
Without an index it runs Dijkstra on G from H's distinct edge tails only, a
sweep block of them at a time (shortest._edge_distances).

A passing report is a proof for the instance at hand (up to the stated
float tolerance).  Pairs that are connected in the base graph but not in the
candidate are reported as a distinct "unreachable" violation kind so that
construction bugs are not conflated with stretch failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .graph import WeightedGraph
from .shortest import (
    ShortestPathIndex,
    _edge_distances,
    _sweep_rows,
    distance_matrix,
    distance_rows,
    index_rows,
)

REL_TOL = 1e-9


def _json_float(x: float) -> float | None:
    """x, or None where JSON has no number for it (inf, NaN)."""
    return x if math.isfinite(x) else None


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
            "d_g": _json_float(self.d_g),
            "d_h": _json_float(self.d_h),
            "w_heavy": _json_float(self.w_heavy),
            "slack": _json_float(self.slack),
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
            "max_slack_ratio": _json_float(self.max_slack_ratio),
            "size": self.size,
        }


def _sweep(
    report: StretchReport, g: WeightedGraph, h: WeightedGraph, S: list[int],
    idx: ShortestPathIndex | None, bound: Callable[[np.ndarray, np.ndarray | None], np.ndarray],
    reads_W: bool = True,
) -> StretchReport:
    """Check d_H <= bound(d_G, W), up to relative tolerance, on S x S.

    S is sorted and duplicate-free; the pairs u < v of S connected in g are
    checked.  G's rows of each block come from index_rows.  A check whose
    bound reads no W (reads_W false) reads G's distances alone, gets W only
    for the block's sources that hold a violation (the reports list it), and
    reports the largest d_H / d_G as max_slack_ratio instead of the largest
    (d_H - d_G) / W.  Violations are listed unreachable pairs first, then
    bound violations, each by (u, v).
    """
    cols = np.asarray(S)
    csr = h.csr()
    unreachable: list[Violation] = []
    over: list[Violation] = []
    tops: list[float] = []
    rows = _sweep_rows(g.n)
    for lo in range(0, len(S), rows):
        hi = min(lo + rows, len(S))
        dh = distance_matrix(csr, S[lo:hi])[:, cols]
        if reads_W:
            dist, W = index_rows(g, idx, S[lo:hi])
            dg, wb = dist[:, cols], W[:, cols]
        else:
            dg, wb = distance_rows(g, idx, S[lo:hi])[:, cols], None
        # the pairs i < j of S: column position past the row's own
        connected = (np.arange(len(S)) > np.arange(lo, hi)[:, None]) & np.isfinite(dg)
        report.pairs_checked += int(np.count_nonzero(connected))
        reach = np.isfinite(dh)
        bd = bound(dg, wb)
        with np.errstate(invalid="ignore"):  # inf-inf on pairs the masks discard
            bad = connected & reach & (dh - bd > REL_TOL * np.maximum(1.0, np.abs(bd)))
        lost = connected & ~reach
        if wb is None:
            wb = np.full(dg.shape, np.nan)
            hit = np.flatnonzero((bad | lost).any(axis=1))
            if len(hit):
                wb[hit] = index_rows(g, idx, [S[lo + i] for i in hit.tolist()])[1][:, cols]
        for i, j in np.argwhere(lost).tolist():
            unreachable.append(
                Violation(S[lo + i], S[j], float(dg[i, j]), math.inf, float(wb[i, j]), math.inf, "unreachable")
            )
        for i, j in np.argwhere(bad).tolist():
            over.append(
                Violation(
                    S[lo + i], S[j], float(dg[i, j]), float(dh[i, j]), float(wb[i, j]),
                    float(dh[i, j] - bd[i, j]),
                )
            )
        if reads_W:
            sel = connected & reach & (wb > 0)
            if sel.any():
                tops.append(float(((dh[sel] - dg[sel]) / wb[sel]).max()))
        else:
            sel = connected & reach
            if sel.any():
                tops.append(float((dh[sel] / dg[sel]).max()))
    report.violations = unreachable + over
    report.max_slack_ratio = max(tops, default=math.nan)
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
    like c * sqrt(n) * log n); c must be finite and >= 0.  pair_class None
    means all pairs; otherwise only pairs inside the given (nonempty) subset
    are checked, and the distances of H, and of g when idx is None, are
    computed from the subset's vertices only.  idx is an optional cache.
    """
    if h.n != g.n:
        raise ValueError(f"vertex set mismatch: g has n={g.n}, h has n={h.n}")
    if pair_class is None:
        S = list(range(g.n))
    else:
        S = sorted(set(pair_class))
        if not S:
            raise ValueError("subset must be nonempty")
        for s in pair_class:
            if not 0 <= s < g.n:
                raise ValueError(f"subset vertex {s} out of range")
    c = float(c_of_n(g.n)) if callable(c_of_n) else float(c_of_n)
    if not 0 <= c < math.inf:
        raise ValueError(f"additive factor c must be finite and >= 0, got {c}")
    report = StretchReport(
        bound_kind="additive-cW",
        params={"c": c, "pair_class": "all" if pair_class is None else "subset"},
        pairs_checked=0,
        size=h.m,
    )
    return _sweep(report, g, h, S, idx, lambda dg, W: dg + c * np.where(np.isfinite(W), W, 0.0))


def verify_multiplicative(
    g: WeightedGraph,
    h: WeightedGraph,
    alpha: float,
    idx: ShortestPathIndex | None = None,
) -> StretchReport:
    """Check d_H <= alpha * d_G for every connected pair; alpha finite, >= 1.

    Reads G's distances only (idx.dist when idx is given, else Dijkstra on
    g per sweep block) and no W, so it never runs the canonical-tree rule
    on a passing check.  max_slack_ratio is the largest d_H / d_G.
    """
    if h.n != g.n:
        raise ValueError(f"vertex set mismatch: g has n={g.n}, h has n={h.n}")
    if not 1 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and >= 1, got {alpha}")
    report = StretchReport(
        bound_kind="multiplicative-alpha", params={"alpha": alpha}, pairs_checked=0, size=h.m
    )
    return _sweep(report, g, h, list(range(g.n)), idx, lambda dg, W: alpha * dg, reads_W=False)


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
    """Check d_H >= d_G for all pairs, edge by edge.

    The lower-bound side of the emulator contract.  It holds iff every edge
    (a, b) of h has w_H(a, b) >= d_G(a, b) within relative tolerance, so
    pairs_checked counts h's edges, each violation is an edge with d_h its
    weight, and max_slack_ratio stays NaN.  An edge between two components
    of g is a violation: it connects a pair that g keeps apart.  Without
    idx, d_G comes from Dijkstra on g from h's edge tails, in sweep blocks,
    and W from g's rows of the violating edges' tails; the report equals
    the indexed one.
    """
    if h.n != g.n:
        raise ValueError(f"vertex set mismatch: g has n={g.n}, h has n={h.n}")
    a, b, w = h.edge_arrays()
    dg = idx.dist[a, b] if idx is not None else _edge_distances(g.csr(), a, b)
    # inf - w > REL_TOL * inf is false, so non-finite d_G is flagged on its own
    bad = np.flatnonzero(~np.isfinite(dg) | (dg - w > REL_TOL * np.maximum(1.0, dg)))
    report = StretchReport(bound_kind="exact", params={"direction": "lower"}, pairs_checked=h.m, size=h.m)
    if not len(bad):
        return report
    tails = np.unique(a[bad])
    heavy = index_rows(g, idx, tails.tolist())[1][np.searchsorted(tails, a[bad]), b[bad]]
    for i, wh in zip(bad.tolist(), heavy.tolist()):
        report.violations.append(
            Violation(int(a[i]), int(b[i]), float(dg[i]), float(w[i]), wh, float(dg[i] - w[i]), "contraction")
        )
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
