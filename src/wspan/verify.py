"""Exact brute-force certification of stretch bounds and size scaling.

Checks take one of two shapes.  The additive bound d_H <= d_G + c * W, on
all pairs or on S x S, is a sweep: H's rows from a block of sources at a
time, by Dijkstra where H may lengthen G's row (below), compared with the
same rows of G's distances.  G's distances are
read only through shortest (shortest.sweep for blocks of rows,
pair_distances for the edge checks), which slices G's index, its distance
matrix, when one is given.  Blocks are sized by graph._sweep_rows, so a
check holds O(block * n) memory beyond H and any index given.

W is computed (shortest.tree_rows, one call per run of rows checked) only
on the rows whose outcome the lower bound L(u, v) = max(minw(u), minw(v))
<= W(u, v) cannot settle (shortest.w_floor); StretchReport.w_rows counts
them.  The result is exactly the all-rows one, because rounding is
monotone:
- Violations.  The bound b = fl(d_G + fl(c * W)) only grows with W, and the
  test d_H - b > REL_TOL * max(1, b) only weakens as b grows.  So a pair
  that passes with L in place of W passes with W, and a row needs W only
  when some pair fails with L (an unreachable pair always does).
- max_slack_ratio, the largest r = x / W over pairs H connects, x = d_H -
  d_G.  As L <= W <= d_G, r <= x / L when x >= 0 and r <= x / d_G when
  x < 0, and the reverse bounds hold below.  A block's rows are fetched
  when their upper bound exceeds T, the larger of the exact maximum over
  the rows fetched so far and the block's largest lower bound; the row
  holding that lower bound is fetched too when it exceeds the maximum so
  far.  Every row left out then has all its ratios at most T, which the
  fetched rows reach, so the maximum over fetched rows is the maximum.
Every row takes W where w_floor gives no bound: on a graph whose float sums
might absorb an edge weight, so that the absorbed weight raises as it
always did.  The bounds are computed in place, in three block-sized float
buffers beside G's and H's rows.

H's rows come from Dijkstra only where H may lengthen G's row.
shortest.sweep names the rows of each block that H does not lengthen
(shortest.covered_rows: d_H <= d_G bit for bit, for any H on G's vertices,
where no float sum absorbs a weight of G or H), and the sweep runs Dijkstra
on H from the other sources; StretchReport.h_rows counts the rows Dijkstra
computed.  A covered row holds no violation, as d_H <= d_G <= d_G + c * W,
and every ratio on it is <= 0, whatever H is: a subgraph of G, where the
row is G's and its ratios are 0, or another H such as the +4W emulator,
whose virtual edges may read an ulp below d_G.  So the covered rows with a
pair to check matter only while the maximum stays below 0: after each
block's other rows, the sweep runs Dijkstra on H from them in runs of 1, 2,
4, ... rows, the length doubling across blocks, and checks them like the
others, until the maximum reaches 0.  On any rows, a pair with d_H = d_G
has the ratio 0 exactly, with no W.

The other two bounds are local, and are checked on edges.  d_H >= d_G holds
for every pair iff every edge (a, b) of H has w_H(a, b) >= d_G(a, b): chain
G's distances along an H path.  d_H <= alpha * d_G holds for every pair iff
every edge (a, b) of G has d_H(a, b) <= alpha * w(a, b): chain the edge
bound along a shortest G path, and w(a, b) >= d_G(a, b).  The largest
d_H / d_G over pairs is then the largest d_H(a, b) / w(a, b) over G's
edges, as a shortest path's edges are tight (the local characterization of
t-spanners; Peleg and Schaffer, "Graph spanners", 1989), up to the rounding
of float path sums: a pair's d_H / d_G can read an ulp above it unless the
weights are integers.  Each edge check runs Dijkstra from its edges'
distinct tails only (shortest._edge_distances): on G for the lower bound
when no index is given (shortest.pair_distances), and on H for the
multiplicative one, which reads G's rows of its failing edges' tails only.
Without an index, the lower bound skips the H edges that G holds at their
weight or lighter, which meet it exactly: of an emulator, only its virtual
edges are searched.

A passing report is a proof for the instance at hand (up to the stated
float tolerance).  Pairs that are connected in the base graph but not in the
candidate are reported as a distinct "unreachable" violation kind so that
construction bugs are not conflated with stretch failures.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .graph import WeightedGraph, subset_vertices
from .shortest import _edge_distances, distance_matrix, pair_distances, sweep, tree_rows, w_floor

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
        return {k: _json_float(x) if isinstance(x, float) else x for k, x in asdict(self).items()}


@dataclass
class StretchReport:
    """Outcome of one verification pass; w_rows counts the rows of G whose
    W was computed, h_rows the additive sweep's rows of H that Dijkstra
    computed: the rows H may lengthen, and the rows it does not lengthen
    that the ratio maximum needed (module docstring)."""

    bound_kind: str
    params: dict
    pairs_checked: int
    violations: list[Violation] = field(default_factory=list)
    max_slack_ratio: float = math.nan
    size: int = 0
    w_rows: int = 0
    h_rows: int = 0

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
            "w_rows": self.w_rows,
            "h_rows": self.h_rows,
        }


def _violations(u, v, dg, dh, wh, slack, kind: str = "stretch") -> list[Violation]:
    """Violations of the pairs (u[i], v[i]) from index arrays: those with
    d_h inf, of kind "unreachable", first, then the others as kind, each
    in (u, v) order."""
    order = np.lexsort((v, u, np.isfinite(dh)))
    cols = (np.asarray(x)[order].tolist() for x in (u, v, dg, dh, wh, slack))
    return [Violation(*row, kind if math.isfinite(row[3]) else "unreachable") for row in zip(*cols)]


def _tail_rows(
    report: StretchReport,
    g: WeightedGraph,
    idx: np.ndarray | None,
    a: np.ndarray,
    b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """G's (d_G, W) of the pairs (a[i], b[i]), read from the rows of the
    distinct a[i], a sweep block of them at a time; report.w_rows counts
    those rows."""
    tails, at = np.unique(a, return_inverse=True)
    dg, wh = np.empty(len(a)), np.empty(len(a))
    for lo, dist, _ in sweep(g, idx, tails):
        sel = (at >= lo) & (at < lo + len(dist))
        W = tree_rows(g, dist, tails[lo : lo + len(dist)])
        dg[sel], wh[sel] = dist[at[sel] - lo, b[sel]], W[at[sel] - lo, b[sel]]
    report.w_rows += len(tails)
    return dg, wh


def _exceeds(dh: np.ndarray, bound: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """d_H > bound up to relative tolerance, dh - bound > REL_TOL * max(1,
    |bound|); an unreachable pair, d_H inf against a finite bound, exceeds
    it.  Works in place: bound becomes dh - bound, and tol the tolerance."""
    np.abs(bound, out=tol)
    np.maximum(tol, 1.0, out=tol)
    tol *= REL_TOL
    np.subtract(dh, bound, out=bound)
    return bound > tol


def _rows_needing_w(
    dh: np.ndarray, dg: np.ndarray, connected: np.ndarray, sel: np.ndarray,
    L: np.ndarray, c: float, top: float,
) -> np.ndarray:
    """The rows of a sweep block that need W (module docstring): a pair
    fails the bound with L in place of W, or the row's ratio upper bound
    beats T; and the row holding the block's largest lower bound, when that
    beats top, the largest ratio found so far.  Works in three block-sized
    float buffers, L's among them."""
    # inf-inf, 0*inf and x/inf on pairs the masks discard
    with np.errstate(invalid="ignore", divide="ignore"):
        buf = np.multiply(L, c)
        buf += dg
        x = np.empty_like(buf)
        need = (connected & _exceeds(dh, buf, x)).any(axis=1)
        # x / W lies between x / L and x / d_G, whatever the sign of x
        np.subtract(dh, dg, out=x)
        np.divide(x, L, out=L)
        np.divide(x, dg, out=buf)
        np.maximum(L, buf, out=x)  # upper bounds
        np.minimum(L, buf, out=L)  # lower bounds
        off = ~sel
        np.copyto(x, -math.inf, where=off)
        np.copyto(L, -math.inf, where=off)
        upper, lower = x.max(axis=1), L.max(axis=1)
    best = int(np.argmax(lower))
    need |= upper > max(top, lower[best])
    if lower[best] > top:
        need[best] = True
    return need


def _check_rows(
    report: StretchReport, found: list, g: WeightedGraph, csr, cols: np.ndarray,
    at: np.ndarray, dist: np.ndarray, minw: np.ndarray | None, c: float, top: float,
) -> float:
    """Check the rows at (positions in cols) against H's Dijkstra rows,
    given G's rows dist, taking W only on the rows that need it (module
    docstring).  Appends their violations to found; returns the largest
    ratio found so far.  A pair with d_H = d_G has the ratio 0 exactly."""
    dg = dist[:, cols]
    dh = distance_matrix(csr, cols[at])[:, cols]
    report.h_rows += len(at)
    # the pairs i < j of S: column position past the row's own
    connected = (np.arange(len(cols)) > at[:, None]) & np.isfinite(dg)
    sel = connected & np.isfinite(dh)
    if (sel & (dh == dg)).any():
        top = max(top, 0.0)
    if minw is None:
        need = np.ones(len(at), dtype=bool)
    else:  # L on the rows' pairs, a buffer the call then reuses
        need = _rows_needing_w(dh, dg, connected, sel, np.maximum(minw[cols[at], None], minw[cols]), c, top)
    rows = np.flatnonzero(need)
    if not len(rows):
        return top
    report.w_rows += len(rows)
    wb = tree_rows(g, dist[rows], cols[at[rows]])[:, cols]
    dg, dh, connected, sel = dg[rows], dh[rows], connected[rows], sel[rows]
    with np.errstate(invalid="ignore"):  # inf-inf and 0*inf on pairs the mask discards
        slack = dg + c * wb  # the bound, then d_H less it
        bad = connected & _exceeds(dh, slack, np.empty_like(slack))
    i, j = np.nonzero(bad)
    found.append((cols[at[rows[i]]], cols[j], dg[i, j], dh[i, j], wb[i, j], slack[i, j]))
    if sel.any():
        top = max(top, float(((dh[sel] - dg[sel]) / wb[sel]).max()))
    return top


def _sweep(
    report: StretchReport, g: WeightedGraph, h: WeightedGraph, S: list[int],
    idx: np.ndarray | None, c: float,
) -> StretchReport:
    """Check d_H <= d_G + c * W, up to relative tolerance, on S x S.

    S is sorted and duplicate-free; the pairs u < v of S connected in g are
    checked.  G's distance rows of each block come from shortest.sweep,
    with the rows H does not lengthen, and W only on the rows that need it
    (module docstring).  max_slack_ratio is the largest (d_H - d_G) / W.
    """
    cols = np.asarray(S)
    csr = h.csr()
    minw = w_floor(g)
    found = [(cols[:0], cols[:0], *(np.zeros(0) for _ in range(4)))]
    top = -math.inf  # the largest ratio of the rows checked so far
    k = 1  # the length of the next run of covered rows
    for lo, dist, run in sweep(g, idx, cols, csr):
        at = np.arange(lo, lo + len(dist))
        connected = (np.arange(len(S)) > at[:, None]) & np.isfinite(dist[:, cols])
        report.pairs_checked += int(np.count_nonzero(connected))
        if len(run):
            top = _check_rows(report, found, g, csr, cols, at[run], dist[run], minw, c, top)
        # a covered row holds no violation, and its ratios are <= 0: check
        # those with a pair in runs of 1, 2, 4, ... rows while top < 0
        covered = connected.any(axis=1)
        covered[run] = False
        rows = np.flatnonzero(covered)
        while len(rows) and top < 0:
            top = _check_rows(report, found, g, csr, cols, at[rows[:k]], dist[rows[:k]], minw, c, top)
            rows, k = rows[k:], 2 * k
    report.violations = _violations(*(np.concatenate(x) for x in zip(*found)))
    report.max_slack_ratio = top if top > -math.inf else math.nan
    return report


def verify_additive_W(
    g: WeightedGraph,
    h: WeightedGraph,
    c: float,
    pair_class: list[int] | None = None,
    idx: np.ndarray | None = None,
) -> StretchReport:
    """Check d_H <= d_G + c * W(u,v) for every connected pair in the class.

    W(u,v) is the heaviest edge on the canonical shortest u-v path of g;
    c must be finite and >= 0.  pair_class None means all pairs; otherwise
    only pairs inside the given (nonempty) subset are checked, and the
    distances of H, and of g when idx is None, are computed from the
    subset's vertices only.  idx, G's index (build_index), is an optional
    cache.
    """
    if h.n != g.n:
        raise ValueError(f"vertex set mismatch: g has n={g.n}, h has n={h.n}")
    S = list(range(g.n)) if pair_class is None else subset_vertices(pair_class, g.n)
    c = float(c)
    if not 0 <= c < math.inf:
        raise ValueError(f"additive factor c must be finite and >= 0, got {c}")
    report = StretchReport(
        bound_kind="additive-cW",
        params={"c": c, "pair_class": "all" if pair_class is None else "subset"},
        pairs_checked=0,
        size=h.m,
    )
    return _sweep(report, g, h, S, idx, c)


def verify_multiplicative(
    g: WeightedGraph,
    h: WeightedGraph,
    alpha: float,
    idx: np.ndarray | None = None,
) -> StretchReport:
    """Check d_H <= alpha * d_G for every connected pair; alpha finite, >= 1.

    Checked on g's edges (module docstring), so pairs_checked counts them and
    each violation is a failing edge, with its own d_G, W and slack
    d_H - alpha * d_G.  max_slack_ratio is the largest d_H(a, b) / w(a, b)
    over the edges h connects.  Only failing edges get an unbounded search
    on h and G's rows of their tails (idx is an optional cache).
    """
    if h.n != g.n:
        raise ValueError(f"vertex set mismatch: g has n={g.n}, h has n={h.n}")
    if not 1 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and >= 1, got {alpha}")
    a, b, w = g.edge_arrays()
    bound = alpha * w
    tol = REL_TOL * np.maximum(1.0, bound)
    # finite entries are exact; a search stopped by its limit reads inf and fails
    dh = _edge_distances(h.csr(), a, b, bound + tol)
    bad = np.flatnonzero(dh - bound > tol)
    report = StretchReport(
        bound_kind="multiplicative-alpha", params={"alpha": alpha}, pairs_checked=g.m, size=h.m
    )
    if len(bad):
        dh[bad] = _edge_distances(h.csr(), a[bad], b[bad])
        dg, wh = _tail_rows(report, g, idx, a[bad], b[bad])
        report.violations = _violations(a[bad], b[bad], dg, dh[bad], wh, dh[bad] - alpha * dg)
    reach = np.isfinite(dh)
    if reach.any():
        report.max_slack_ratio = float((dh[reach] / w[reach]).max())
    return report


def verify_subgraph(g: WeightedGraph, h: WeightedGraph) -> bool:
    """True iff every edge of h exists in g with an identical weight."""
    if h.n != g.n:
        return False
    ha, hb, hw = h.edge_arrays()
    at = g.edge_ids(ha, hb)
    return bool((at >= 0).all() and np.array_equal(g.edge_arrays()[2][at], hw))


def verify_non_contracting(
    g: WeightedGraph,
    h: WeightedGraph,
    idx: np.ndarray | None = None,
) -> StretchReport:
    """Check d_H >= d_G for all pairs, edge by edge.

    The lower-bound side of the emulator contract, checked on h's edges
    (module docstring): pairs_checked counts them, each violation is an edge
    with d_h its weight, and max_slack_ratio stays NaN.  An edge between two
    components of g is a violation: it connects a pair that g keeps apart.
    An edge (a, b, w) that g holds at a weight <= w is none, since Dijkstra
    from a relaxes g's edge, so d_G(a, b) <= w exactly.  Without an index,
    d_G is computed for the other edges only (for an emulator, its virtual
    edges); with one, reading every edge's d_G is one gather, cheaper than
    finding the edges g holds.
    """
    if h.n != g.n:
        raise ValueError(f"vertex set mismatch: g has n={g.n}, h has n={h.n}")
    a, b, w = h.edge_arrays()
    if idx is None:
        at = g.edge_ids(a, b)
        held = at >= 0
        held[held] = g.edge_arrays()[2][at[held]] <= w[held]
        a, b, w = (x[~held] for x in (a, b, w))
    dg = pair_distances(g, idx, a, b)
    # inf - w > REL_TOL * inf is false, so non-finite d_G is flagged on its own
    bad = np.flatnonzero(~np.isfinite(dg) | (dg - w > REL_TOL * np.maximum(1.0, dg)))
    report = StretchReport(bound_kind="exact", params={"direction": "lower"}, pairs_checked=h.m, size=h.m)
    if len(bad):
        heavy = _tail_rows(report, g, idx, a[bad], b[bad])[1]
        slack = dg[bad] - w[bad]
        report.violations = _violations(a[bad], b[bad], dg[bad], w[bad], heavy, slack, "contraction")
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
