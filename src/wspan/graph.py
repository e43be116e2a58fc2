"""Undirected weighted graph with strictly positive edge weights.

Vertices are integer ids 0..n-1.  Edges are unordered pairs stored under the
key (min(u,v), max(u,v)).  Instances are immutable after construction and
safe to share between threads.

This module is the one place that knows how edges are laid out.  The
validated weight dict serves lookups and equality.  The edge
arrays sorted by (a, b) and the symmetric CSR matrix, whose rows are the
neighbor lists in id order, are derived from it on first use and cached.
The builders hold a subset of a graph's edges as a boolean mask over its
edge arrays; edge_ids gives the positions of endpoint pairs there, and a
subgraph is cut from those arrays without validating its edges again.

_BLOCK_BYTES is the one budget for the temporaries of work done a block of
sources at a time (shortest, verify, greedy, fast2w), and _sweep_rows turns
it into the sources per block of a sweep over a graph's rows.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable

import numpy as np
from scipy.sparse import csr_matrix


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Normalized dict key for the undirected edge {u, v}."""
    return (u, v) if u < v else (v, u)


def edge_key_set(u: np.ndarray, v: np.ndarray) -> set[tuple[int, int]]:
    """Keys of the edges {u[i], v[i]}, as a set of Python int pairs."""
    return set(zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist()))


def vertex_count(n) -> int:
    """n as a Python int; ValueError unless it is a nonnegative integer."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"vertex count must be an integer, got {n!r}") from None
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    return n


def subset_vertices(subset: Iterable[int], n: int) -> list[int]:
    """The distinct vertices of subset, sorted; ValueError unless there is
    at least one and each is a vertex id below n."""
    S = sorted(set(subset))
    if not S:
        raise ValueError("subset must be nonempty")
    for s in (S[0], S[-1]):
        if not 0 <= s < n:
            raise ValueError(f"subset vertex {s} out of range for n={n}")
    return S


# Bytes of temporaries one block of sources may hold: a block or a run of
# tied sources in shortest's kernels, a _sweep_rows block elsewhere.  Small
# blocks also keep the block's working set in a core's L2 cache.
_BLOCK_BYTES = 1 << 20


def _sweep_rows(n: int) -> int:
    """Sources per block of a sweep over a graph's rows (verifier, greedy
    candidates, fast2w's trees): about 64 bytes per vertex per source (G's
    and H's rows, their columns, masks)."""
    return max(1, _BLOCK_BYTES // (64 * max(n, 1)))


def graph_csr(n: int, a: np.ndarray, b: np.ndarray, w: np.ndarray) -> csr_matrix:
    """Symmetric n x n CSR matrix of the undirected edges (a[i], b[i], w[i]).

    The edges may come in any order.  Each is stored in both directions and
    every row's column indices are sorted: scipy's canonical layout.
    """
    tails = np.concatenate([a, b])
    heads = np.concatenate([b, a])
    order = np.lexsort((heads, tails))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
    return csr_matrix((np.concatenate([w, w])[order], heads[order], indptr), shape=(n, n))


class WeightedGraph:
    """Simple undirected graph with positive real edge weights.

    Rejects a non-integer or negative vertex count, non-integer,
    out-of-range and self-loop vertex ids, parallel edges, and non-positive
    or non-finite weights at construction time.  The vertex count and ids
    are stored as Python ints.

    The edge arrays and the CSR matrix are computed on first use and freed
    with the graph.  Two threads filling a cache at once compute the same
    value twice; neither result is wrong.
    """

    __slots__ = ("n", "_w", "_arrays", "_csr")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, float]]):
        self.n = n = vertex_count(n)
        w: dict[tuple[int, int], float] = {}
        for u, v, weight in edges:
            try:
                u, v = operator.index(u), operator.index(v)
            except TypeError:
                raise ValueError(f"vertex ids must be integers in edge ({u!r}, {v!r})") from None
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
        self._arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._csr: csr_matrix | None = None

    @property
    def m(self) -> int:
        return len(self._w)

    def weight(self, u: int, v: int) -> float:
        return self._w[edge_key(u, v)]

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self._w

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (a, b, w): int64 endpoints with a < b and float64 weights,
        sorted by (a, b)."""
        if self._arrays is None:
            m = len(self._w)
            ab = np.fromiter(itertools.chain.from_iterable(self._w), np.int64, 2 * m).reshape(m, 2)
            order = np.lexsort((ab[:, 1], ab[:, 0]))
            arrays = (ab[order, 0], ab[order, 1], np.fromiter(self._w.values(), np.float64, m)[order])
            for x in arrays:
                x.flags.writeable = False
            self._arrays = arrays
        return self._arrays

    def edge_ids(self, u, v) -> np.ndarray:
        """Positions in edge_arrays() of the edges {u[i], v[i]}: a binary search
        of the codes a*n + b.  A pair that is no edge gets some position in
        [0, m], so callers that may pass one compare the endpoints found."""
        a, b, _ = self.edge_arrays()
        u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
        codes = np.minimum(u, v) * self.n + np.maximum(u, v)
        # searching the codes in sorted order is several times faster
        order = np.argsort(codes)
        ids = np.empty(len(codes), dtype=np.intp)
        ids[order] = np.searchsorted(a * self.n + b, codes[order])
        return ids

    def csr(self) -> csr_matrix:
        """Symmetric CSR matrix of the edges (graph_csr); callers must not modify it."""
        if self._csr is None:
            self._csr = graph_csr(self.n, *self.edge_arrays())
        return self._csr

    def incident_by_weight(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Both directions of every edge as (tail, head, w), sorted by (tail, w, head).

        Vertex u's entries, lightest first, sit at csr().indptr[u] up to
        csr().indptr[u + 1].
        """
        csr = self.csr()
        tail = np.repeat(np.arange(self.n), np.diff(csr.indptr))
        # stable, and each CSR row is sorted by head, so equal weights keep head order
        order = np.lexsort((csr.data, tail))
        return tail, csr.indices[order], csr.data[order]

    def edge_items(self) -> list[tuple[int, int, float]]:
        """Edges as (u, v, w) Python scalars with u < v, in sorted order."""
        a, b, w = self.edge_arrays()
        return list(zip(a.tolist(), b.tolist(), w.tolist()))

    def edge_keys(self) -> set[tuple[int, int]]:
        return set(self._w)

    def subgraph(self, keys: Iterable[tuple[int, int]]) -> "WeightedGraph":
        """Graph on the same vertex set keeping only the given edge keys.

        The result is cut from this graph's validated edge arrays.  The first
        key, in the given order, that is no edge of this graph raises
        KeyError, or that repeats an earlier one, in either orientation, the
        parallel-edge ValueError.
        """
        keys = list(keys)
        uv = np.array(keys) if keys else np.zeros((0, 2), dtype=np.int64)
        if uv.shape[1:] != (2,) or uv.dtype.kind not in "iu":
            # keys that are not pairs of integers get __init__'s checks
            return WeightedGraph(self.n, [(u, v, self._w[edge_key(u, v)]) for u, v in keys])
        a, b, w = self.edge_arrays()
        u, v = np.minimum(uv[:, 0], uv[:, 1]), np.maximum(uv[:, 0], uv[:, 1])
        at = np.minimum(self.edge_ids(u, v), max(self.m - 1, 0))
        found = (a[at] == u) & (b[at] == v) if self.m else np.zeros(len(keys), dtype=bool)
        # among keys at one position all but the first are missing or repeated
        order = np.argsort(at, kind="stable")
        later = np.zeros(len(keys), dtype=bool)
        later[order[1:]] = at[order[1:]] == at[order[:-1]]
        bad = np.flatnonzero(~found | later)
        if len(bad):
            key = (int(u[bad[0]]), int(v[bad[0]]))
            if not found[bad[0]]:
                raise KeyError(key)
            raise ValueError(f"parallel edge {key}")
        keep = np.zeros(self.m, dtype=bool)
        keep[at] = True
        return WeightedGraph._from_edge_arrays(self.n, a[keep], b[keep], w[keep])

    @classmethod
    def _from_edge_arrays(cls, n: int, a: np.ndarray, b: np.ndarray, w: np.ndarray) -> "WeightedGraph":
        """Graph of edge arrays laid out as edge_arrays() returns them, whose
        edges are already validated; __init__ is skipped."""
        g = cls.__new__(cls)
        g.n = n
        g._w = dict(zip(zip(a.tolist(), b.tolist()), w.tolist()))
        for x in (a, b, w):
            x.flags.writeable = False
        g._arrays = (a, b, w)
        g._csr = None
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self.n == other.n and self._w == other._w

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={self.m})"
