"""Seeded graph generators for the test corpus and benchmarks.

All randomness comes from a single numpy PCG64 stream seeded with the spec's
seed.  Draw order is fixed: structure draws first (one uniform per candidate
pair / per vertex, in lexicographic order), then weight draws (one per kept
edge, in sorted edge order).  Identical GenSpec values therefore produce
identical graphs on any platform.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components

from .graph import WeightedGraph, vertex_count

FAMILIES = ("gnp", "grid", "geometric", "star", "path", "complete", "tree")
WEIGHT_MODELS = ("unit", "uniform", "exp-spread")

DEFAULT_WMAX = {"unit": 1.0, "uniform": 100.0, "exp-spread": 1000.0}


@dataclass(frozen=True)
class GenSpec:
    """Deterministic description of one generated graph."""

    family: str
    n: int
    p: float | None = None
    rows: int | None = None
    cols: int | None = None
    radius: float | None = None
    branching: int | None = None
    wmodel: str = "unit"
    wmax: float | None = None
    seed: int = 0
    keep_lcc: bool = False

    def to_dict(self) -> dict:
        d = asdict(self)
        return {k: v for k, v in d.items() if v is not None and not (k == "keep_lcc" and v is False)}

    @staticmethod
    def from_dict(d: dict) -> "GenSpec":
        return GenSpec(**d)


def _draw_weights(rng: np.random.Generator, count: int, wmodel: str, wmax: float) -> np.ndarray:
    if wmodel == "unit":
        return np.ones(count)
    if wmodel == "uniform":
        return rng.uniform(1.0, wmax, size=count)
    if wmodel == "exp-spread":
        return np.exp(rng.uniform(0.0, math.log(wmax), size=count))
    raise ValueError(f"unknown weight model {wmodel!r}")


# Bytes of temporaries one block of rows may hold in _close_pairs, at about
# 48 per row and column of the distance matrix.
_PAIR_BLOCK_BYTES = 1 << 20


def _close_pairs(pts: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, length) of the point pairs i < j at euclidean distance <= r.

    Pairs come in lexicographic order.  The distances are computed one block
    of rows at a time, with the same floating-point operations as the full
    n x n matrix, so the lengths are exactly that matrix's entries.
    """
    n = len(pts)
    rows = max(1, _PAIR_BLOCK_BYTES // (48 * max(n, 1)))
    iu, iv, lengths = [], [], []
    for lo in range(0, n, rows):
        diff = pts[lo : lo + rows, None, :] - pts[None, :, :]
        d = np.sqrt((diff * diff).sum(axis=2))
        i, j = np.nonzero(d <= r)
        upper = j > i + lo
        i, j = i[upper], j[upper]
        iu.append(i + lo)
        iv.append(j)
        lengths.append(d[i, j])
    if not iu:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)
    return np.concatenate(iu), np.concatenate(iv), np.concatenate(lengths)


def _structure(spec: GenSpec, rng: np.random.Generator) -> tuple[int, list[tuple[int, int]]]:
    fam = spec.family
    n = spec.n
    if n < 1:
        raise ValueError("n must be >= 1")
    if fam == "gnp":
        p = spec.p
        if p is None or not 0.0 <= p <= 1.0:
            raise ValueError(f"gnp needs edge probability p in [0, 1], got {p}")
        iu, iv = np.triu_indices(n, k=1)
        mask = rng.random(len(iu)) < p
        pairs = list(zip(iu[mask].tolist(), iv[mask].tolist()))
        return n, pairs
    if fam == "grid":
        rows, cols = spec.rows, spec.cols
        if rows is None or cols is None:
            rows = max(1, math.isqrt(n))
            cols = rows
        if rows < 1 or cols < 1:
            raise ValueError("grid dims must be positive")
        nn = rows * cols
        pairs = []
        for r in range(rows):
            for c in range(cols):
                v = r * cols + c
                if c + 1 < cols:
                    pairs.append((v, v + 1))
                if r + 1 < rows:
                    pairs.append((v, v + cols))
        return nn, pairs
    if fam == "star":
        return n, [(0, v) for v in range(1, n)]
    if fam == "path":
        return n, [(v, v + 1) for v in range(n - 1)]
    if fam == "complete":
        iu, iv = np.triu_indices(n, k=1)
        return n, list(zip(iu.tolist(), iv.tolist()))
    if fam == "tree":
        b = spec.branching
        if b is not None and b < 1:
            raise ValueError("branching must be >= 1")
        pairs = []
        child_count = [0] * n
        for v in range(1, n):
            eligible = [u for u in range(v) if b is None or child_count[u] < b]
            u = eligible[int(rng.integers(0, len(eligible)))]
            child_count[u] += 1
            pairs.append((u, v))
        return n, pairs
    raise ValueError(f"unknown family {spec.family!r}")


def generate(spec: GenSpec) -> WeightedGraph:
    """Build the graph described by spec.  Pure function of the spec."""
    if spec.family not in FAMILIES:
        raise ValueError(f"unknown family {spec.family!r}")
    if spec.wmodel not in WEIGHT_MODELS:
        raise ValueError(f"unknown weight model {spec.wmodel!r}")
    wmax = spec.wmax if spec.wmax is not None else DEFAULT_WMAX[spec.wmodel]
    if wmax < 1.0:
        raise ValueError(f"wmax must be >= 1, got {wmax}")
    vertex_count(spec.n)  # a ValueError, before numpy or range() raise a TypeError
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))

    if spec.family == "geometric":
        # weights are the euclidean lengths, rescaled so the minimum is 1
        n = spec.n
        r = spec.radius
        if r is None or r <= 0:
            raise ValueError(f"geometric needs radius > 0, got {r}")
        pts = rng.random((n, 2))
        iu, iv, lengths = _close_pairs(pts, r)
        edges = []
        if len(lengths):
            w_min = float(lengths.min())
            if w_min <= 0:
                raise ValueError("coincident points produce a zero-length edge")
            edges = list(zip(iu.tolist(), iv.tolist(), (lengths / w_min).tolist()))
    else:
        n, pairs = _structure(spec, rng)
        pairs.sort()
        weights = _draw_weights(rng, len(pairs), spec.wmodel, wmax)
        edges = [(u, v, float(w)) for (u, v), w in zip(pairs, weights.tolist())]

    g = WeightedGraph(n, edges)
    if spec.keep_lcc and g.n > 0:
        # components are labelled in order of their lowest vertex, so argmax
        # keeps the largest component with the lowest vertex
        _, labels = connected_components(g.csr(), directed=False)
        big = labels == np.argmax(np.bincount(labels))
        relabel = np.cumsum(big) - 1
        a, b, w = g.edge_arrays()
        kept = big[a]
        g = WeightedGraph(
            int(np.count_nonzero(big)),
            zip(relabel[a[kept]].tolist(), relabel[b[kept]].tolist(), w[kept].tolist()),
        )
    return g
