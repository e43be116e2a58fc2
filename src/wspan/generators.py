"""Seeded graph generators for the test corpus and benchmarks.

All randomness comes from a single numpy PCG64 stream seeded with the spec's
seed.  Draw order is fixed: structure draws first (one uniform per candidate
pair / per vertex, in lexicographic order), then weight draws (one per kept
edge, in sorted edge order).  Identical GenSpec values therefore produce
identical graphs on any platform.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields

import numpy as np
from scipy.sparse.csgraph import connected_components

from .graph import _BLOCK_BYTES, WeightedGraph, vertex_count

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
        """The spec of a JSON object; ValueError naming a field it does not
        know or lacks, or whose value is not of the field's type.  A float
        field also takes an integer, an optional field null, and a bool is no
        number."""
        if not isinstance(d, dict):
            raise ValueError(f"expected a JSON object, got {type(d).__name__}")
        for key in d:
            if key not in _FIELD_TYPES:
                raise ValueError(f"unknown field {key!r}")
        for key in ("family", "n"):
            if key not in d:
                raise ValueError(f"missing field {key!r}")
        _check_types(d)
        return GenSpec(**d)


# the annotations are strings: "int", "float | None", ...
_FIELD_TYPES = {f.name: f.type for f in fields(GenSpec)}


def _check_types(d: dict) -> None:
    """ValueError naming the first field of d whose value is not of the
    field's type.  A float field also takes an integer, an optional field
    None, and a bool is no number."""
    for key, value in d.items():
        kind, _, optional = _FIELD_TYPES[key].partition(" | ")
        if value is None and optional:
            continue
        number = not isinstance(value, bool) and isinstance(value, numbers.Real)
        ok = {
            "str": isinstance(value, str),
            "int": number and isinstance(value, numbers.Integral),
            "float": number,
            "bool": isinstance(value, bool),
        }[kind]
        if not ok:
            raise ValueError(f"field {key!r} must be {kind}, got {value!r}")


def _draw_weights(rng: np.random.Generator, count: int, wmodel: str, wmax: float) -> np.ndarray:
    if wmodel == "unit":
        return np.ones(count)
    if wmodel == "uniform":
        return rng.uniform(1.0, wmax, size=count)
    if wmodel == "exp-spread":
        return np.exp(rng.uniform(0.0, math.log(wmax), size=count))
    raise ValueError(f"unknown weight model {wmodel!r}")


def _block_rows(n: int) -> int:
    """Rows of the n x n pair matrix per block in _close_pairs and _gnp_pairs:
    the most whose temporaries, about 48 bytes per pair, fit _BLOCK_BYTES."""
    return max(1, _BLOCK_BYTES // (48 * max(n, 1)))


def _close_pairs(pts: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, length) of the point pairs i < j at euclidean distance <= r.

    Pairs come in lexicographic order.  The distances are computed one block
    of rows at a time, with the same floating-point operations as the full
    n x n matrix, so the lengths are exactly that matrix's entries.
    """
    n = len(pts)
    rows = _block_rows(n)
    iu, iv, lengths = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for lo in range(0, n, rows):
        diff = pts[lo : lo + rows, None, :] - pts[None, :, :]
        d = np.sqrt((diff * diff).sum(axis=2))
        i, j = np.nonzero(d <= r)
        upper = j > i + lo
        i, j = i[upper], j[upper]
        iu.append(i + lo)
        iv.append(j)
        lengths.append(d[i, j])
    return np.concatenate(iu), np.concatenate(iv), np.concatenate(lengths)


def _gnp_pairs(n: int, p: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of the pairs i < j whose uniform draw is below p, in lexicographic order.

    One uniform per pair, in lexicographic pair order, drawn one block of
    rows at a time.  PCG64 yields the same doubles whether they are drawn in
    one call or in chunks, so the graph is the one a single draw of all
    n(n-1)/2 uniforms gives.
    """
    rows = _block_rows(n)
    iu, iv = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for lo in range(0, n - 1, rows):
        i = np.arange(lo, min(lo + rows, n - 1))
        # row i holds the pairs (i, i+1) .. (i, n-1), from draw start[k] of the block on
        lens = n - 1 - i
        start = np.cumsum(lens) - lens
        hit = np.flatnonzero(rng.random(int(lens.sum())) < p)
        k = np.searchsorted(start, hit, side="right") - 1
        iu.append(i[k])
        iv.append(hit - start[k] + i[k] + 1)
    return np.concatenate(iu), np.concatenate(iv)


def _structure(spec: GenSpec, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) of the family's edges, u < v, in any order."""
    fam = spec.family
    n = spec.n
    if n < 1:
        raise ValueError("n must be >= 1")
    if fam == "gnp":
        p = spec.p
        if p is None or not 0.0 <= p <= 1.0:
            raise ValueError(f"gnp needs edge probability p in [0, 1], got {p}")
        return _gnp_pairs(n, p, rng)
    if fam == "grid":
        rows, cols = spec.rows, spec.cols
        for name, x in (("rows", rows), ("cols", cols)):
            if x is not None and not (isinstance(x, numbers.Integral) and x >= 1):
                raise ValueError(f"grid {name} must be an integer >= 1, got {x!r}")
        if rows is None and cols is None:
            rows = cols = math.isqrt(n)
            if rows * cols != n:
                raise ValueError(f"grid n={n} is not a perfect square; give rows or cols")
        elif rows is None or cols is None:
            name, given = ("rows", rows) if cols is None else ("cols", cols)
            if n % given:
                raise ValueError(f"grid n={n} is not a multiple of {name}={given}")
            rows, cols = (given, n // given) if cols is None else (n // given, given)
        elif rows * cols != n:
            raise ValueError(f"grid n={n} differs from rows*cols = {rows}*{cols} = {rows * cols}")
        ids = np.arange(n).reshape(rows, cols)
        right, down = ids[:, :-1].ravel(), ids[:-1, :].ravel()
        return np.concatenate([right, down]), np.concatenate([right + 1, down + cols])
    if fam == "star":
        return np.zeros(n - 1, dtype=np.int64), np.arange(1, n)
    if fam == "path":
        return np.arange(n - 1), np.arange(1, n)
    if fam == "complete":
        return np.triu_indices(n, k=1)
    if fam == "tree":
        b = spec.branching
        if b is not None and b < 1:
            raise ValueError("branching must be >= 1")
        parents = []
        child_count = [0] * n
        for v in range(1, n):
            eligible = [u for u in range(v) if b is None or child_count[u] < b]
            u = eligible[int(rng.integers(0, len(eligible)))]
            child_count[u] += 1
            parents.append(u)
        return np.array(parents, dtype=np.int64), np.arange(1, n)
    raise ValueError(f"unknown family {spec.family!r}")


def generate(spec: GenSpec) -> WeightedGraph:
    """Build the graph described by spec.  Pure function of the spec.

    ValueError for a spec that describes no graph, naming the field whose
    value is not of its type as GenSpec.from_dict does.
    """
    if spec.family not in FAMILIES:
        raise ValueError(f"unknown family {spec.family!r}")
    if spec.wmodel not in WEIGHT_MODELS:
        raise ValueError(f"unknown weight model {spec.wmodel!r}")
    vertex_count(spec.n)  # a ValueError, before numpy or range() raise a TypeError
    # the same for the other fields; the grid sides have a check of their own
    _check_types({f: getattr(spec, f) for f in _FIELD_TYPES if f not in ("n", "rows", "cols")})
    wmax = spec.wmax if spec.wmax is not None else DEFAULT_WMAX[spec.wmodel]
    if not 1.0 <= wmax < math.inf:
        raise ValueError(f"wmax must be finite and >= 1, got {wmax}")
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))

    n = spec.n
    if spec.family == "geometric":
        # weights are the euclidean lengths, rescaled so the minimum is 1
        r = spec.radius
        if r is None or not 0 < r < math.inf:
            raise ValueError(f"geometric needs a finite radius > 0, got {r}")
        pts = rng.random((n, 2))
        u, v, w = _close_pairs(pts, r)
        if len(w):
            w_min = float(w.min())
            if w_min <= 0:
                raise ValueError("coincident points produce a zero-length edge")
            w = w / w_min
    else:
        u, v = _structure(spec, rng)
        # weights are drawn in sorted edge order
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        w = _draw_weights(rng, len(u), spec.wmodel, wmax)

    g = WeightedGraph._from_arrays(n, u, v, w)
    if spec.keep_lcc and g.n > 0:
        # components are labelled in order of their lowest vertex, so argmax
        # keeps the largest component with the lowest vertex
        _, labels = connected_components(g.csr(), directed=False)
        big = labels == np.argmax(np.bincount(labels))
        # the relabel is monotone, so the kept edges stay sorted with a < b
        relabel = np.cumsum(big) - 1
        kept = big[g.edge_arrays()[0]]
        a, b, w = (x[kept] for x in g.edge_arrays())
        g = WeightedGraph._from_arrays(int(np.count_nonzero(big)), relabel[a], relabel[b], w)
    return g
