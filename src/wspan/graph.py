"""Undirected weighted graph with strictly positive edge weights.

Vertices are integer ids 0..n-1.  An edge is an unordered pair, keyed
(min(u,v), max(u,v)).  A graph's edges never change after construction;
what it holds besides them are caches whose presence changes no result, so
instances are safe to share between threads, and a thread that reads a
cache while another fills it may see either state.

This module is the one place that knows how edges are laid out.  A graph is
its edge arrays (a, b, w), a < b, sorted by (a, b) and validated in one
batch at construction; the symmetric CSR matrix, whose rows are the
neighbor lists in id order, is derived from them on first use and cached.
Lookups binary-search the arrays and equality compares them.  The builders
hold a subset of a graph's edges as a boolean mask over its edge arrays;
edge_ids gives the positions of endpoint pairs there, searching the sorted
codes a*n + b, which are cached beside the CSR, as are the codes v*n + p of
the CSR's entries (csr_codes; _entry_codes computes them for any CSR
matrix), the incident edges sorted by weight (incident_by_weight) and, once
shortest.build_index has read the graph's distances, the masks of the edges
that may be tight on some shortest path (_tight, which only shortest writes
and reads, and where every edge counts without it).

_BLOCK_BYTES is the one budget for the temporaries of work done a block of
sources or rows at a time (shortest, fast2w, generators), and _sweep_rows
turns it into the sources per block of a sweep over a graph's rows.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable

import numpy as np
from scipy.sparse import csr_matrix


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Normalized key (min, max) of the undirected edge {u, v}."""
    return (u, v) if u < v else (v, u)


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


# Bytes of temporaries one block of sources or rows may hold.  Small blocks
# also keep the block's working set in a core's L2 cache.
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


def _entry_codes(csr: csr_matrix, lo: int, hi: int) -> np.ndarray:
    """The codes v * n + p of csr's entries (v, p) in rows lo to hi - 1, in
    csr's order: sorted, when csr is scipy's canonical layout."""
    n = csr.shape[0]
    rows = np.arange(lo, hi, dtype=np.int64) * n
    return np.repeat(rows, np.diff(csr.indptr[lo : hi + 1])) + csr.indices[csr.indptr[lo] : csr.indptr[hi]]


def _column(x, kinds: str, convert, dtype) -> tuple[np.ndarray, np.ndarray]:
    """(values, bad): x as a dtype array, and where convert rejects an entry.
    A 1-d array numpy holds in a dtype of one of kinds is cast at once;
    anything else is converted one entry at a time."""
    try:
        arr = np.asarray(x)
        if arr.ndim == 1 and arr.dtype.kind in kinds:
            return arr.astype(dtype), np.zeros(len(arr), dtype=bool)
    except (TypeError, ValueError, OverflowError):
        pass
    out, bad = np.zeros(len(x), dtype=dtype), np.zeros(len(x), dtype=bool)
    for i, e in enumerate(x):
        try:
            out[i] = convert(e)
        except (TypeError, ValueError, OverflowError):
            bad[i] = True
    return out, bad


def _checked_edges(n: int, u, v, w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (a, b, w) of the edges (u[i], v[i], w[i]), laid out as
    edge_arrays() returns them.

    All edges are checked at once, and the first edge in the given order
    that fails a check raises.  Per edge, in this order: ids that are no
    integers, an id out of range, a self-loop and a pair given before in
    either orientation raise ValueError, a weight float() rejects raises
    float()'s error, and one not finite and positive ValueError.
    """
    # ids beyond int64 are out of range for every graph, so they are clipped
    vertex_id = lambda x: max(-1, min(operator.index(x), 2**63 - 1))  # noqa: E731
    (ui, u_bad), (vi, v_bad) = (_column(x, "biu", vertex_id, np.int64) for x in (u, v))
    wf, w_bad = _column(w, "biuf", float, np.float64)
    a, b = np.minimum(ui, vi), np.maximum(ui, vi)
    ok = ~(u_bad | v_bad) & (a >= 0) & (b < n)
    # edges that fail an earlier check get distinct negative codes
    codes = np.where(ok, a * n + b, -1 - np.arange(len(a)))
    order = np.argsort(codes, kind="stable")
    # among equal codes, in input order, all but the first repeat it
    later = np.zeros(len(a), dtype=bool)
    later[order[1:]] = codes[order[1:]] == codes[order[:-1]]
    faults = np.stack([u_bad | v_bad, ~ok, a == b, later, w_bad, ~((wf > 0) & (wf < np.inf))])
    if faults.any():
        i = int(np.argmax(faults.any(axis=0)))
        check, key = int(np.argmax(faults[:, i])), (int(a[i]), int(b[i]))
        if check == 0:
            raise ValueError(f"vertex ids must be integers in edge ({u[i]!r}, {v[i]!r})")
        if check == 1:
            ends = operator.index(u[i]), operator.index(v[i])
            raise ValueError(f"vertex id out of range in edge ({ends[0]}, {ends[1]})")
        if check == 2:
            raise ValueError(f"self-loop at vertex {key[0]}")
        if check == 3:
            raise ValueError(f"parallel edge {key}")
        if check == 4:
            float(w[i])  # raises float()'s own error
        raise ValueError(f"non-positive or non-finite weight {float(wf[i])} on edge {key}")
    arrays = a[order], b[order], wf[order]
    for x in arrays:
        x.flags.writeable = False
    return arrays


class WeightedGraph:
    """Simple undirected graph with positive real edge weights.

    Rejects a non-integer or negative vertex count, and the first bad edge
    in the given order (_checked_edges), at construction time.  The vertex
    count is stored as a Python int.  The CSR matrix, the edge and entry
    codes and the incident edges by weight are computed on first use; two
    threads filling one at once compute the same value twice.  _tight holds
    shortest.build_index's masks of the edges that may be tight, None
    until then or where every edge counts.
    """

    __slots__ = ("n", "_arrays", "_csr", "_codes", "_csr_codes", "_incident", "_tight")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, float]]):
        n = vertex_count(n)
        u, v, w = [], [], []
        for x, y, z in edges:
            u.append(x)
            v.append(y)
            w.append(z)
        self.n, self._arrays = n, _checked_edges(n, u, v, w)
        self._csr = self._codes = self._csr_codes = self._incident = self._tight = None

    @classmethod
    def _from_arrays(cls, n: int, u, v, w) -> "WeightedGraph":
        """Graph of the edges (u[i], v[i], w[i]), checked as __init__ checks
        its triples."""
        g = cls.__new__(cls)
        g.n = vertex_count(n)
        g._arrays = _checked_edges(g.n, u, v, w)
        g._csr = g._codes = g._csr_codes = g._incident = g._tight = None
        return g

    @property
    def m(self) -> int:
        return len(self._arrays[2])

    def _find(self, u: int, v: int) -> int:
        """Position of the edge {u, v} in edge_arrays(), or -1 if it is none:
        a binary search for the run of a's equal to the smaller end, then for
        the larger end in that run's b's, so a lookup allocates no O(m) array."""
        key = edge_key(u, v)
        if not (0 <= key[0] and key[1] < self.n):
            return -1
        a, b, _ = self._arrays
        lo, hi = np.searchsorted(a, key[0]), np.searchsorted(a, key[0], side="right")
        i = lo + int(np.searchsorted(b[lo:hi], key[1]))
        return i if i < hi and b[i] == key[1] else -1

    def weight(self, u: int, v: int) -> float:
        i = self._find(u, v)
        if i < 0:
            raise KeyError(edge_key(u, v))
        return float(self._arrays[2][i])

    def has_edge(self, u: int, v: int) -> bool:
        return self._find(u, v) >= 0

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (a, b, w): int64 endpoints with a < b and float64 weights,
        sorted by (a, b)."""
        return self._arrays

    def edge_ids(self, u, v) -> np.ndarray:
        """Positions in edge_arrays() of the pairs {u[i], v[i]}, -1 for a pair
        that is no edge: a binary search of the cached sorted codes a*n + b,
        O(k log m) for k pairs once the codes are cached."""
        a, b, _ = self.edge_arrays()
        if self._codes is None:
            keys = a * self.n + b
            keys.flags.writeable = False
            self._codes = keys
        u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        codes = lo * self.n + hi
        # searching the codes in sorted order is several times faster
        order = np.argsort(codes)
        ids = np.empty(len(codes), dtype=np.intp)
        ids[order] = np.searchsorted(self._codes, codes[order])
        # the position found holds the pair, or other endpoints, or is m
        found = ids < len(a)
        found[found] = (a[ids[found]] == lo[found]) & (b[ids[found]] == hi[found])
        return np.where(found, ids, -1)

    def csr(self) -> csr_matrix:
        """Symmetric CSR matrix of the edges (graph_csr); callers must not modify it."""
        if self._csr is None:
            self._csr = graph_csr(self.n, *self.edge_arrays())
        return self._csr

    def csr_codes(self) -> np.ndarray:
        """Read-only codes v * n + p of csr()'s entries (row v, column p), in
        csr()'s order, and so sorted (_entry_codes)."""
        if self._csr_codes is None:
            codes = _entry_codes(self.csr(), 0, self.n)
            codes.flags.writeable = False
            self._csr_codes = codes
        return self._csr_codes

    def incident_by_weight(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Both directions of every edge as read-only (tail, head, w), sorted
        by (tail, w, head).

        Vertex u's entries, lightest first, sit at csr().indptr[u] up to
        csr().indptr[u + 1].
        """
        if self._incident is None:
            csr = self.csr()
            tail = np.repeat(np.arange(self.n), np.diff(csr.indptr))
            # stable, and each CSR row is sorted by head, so equal weights keep head order
            order = np.lexsort((csr.data, tail))
            arrays = tail, csr.indices[order], csr.data[order]
            for x in arrays:
                x.flags.writeable = False
            self._incident = arrays
        return self._incident

    def edge_items(self) -> list[tuple[int, int, float]]:
        """Edges as (u, v, w) Python scalars with u < v, in sorted order."""
        a, b, w = self.edge_arrays()
        return list(zip(a.tolist(), b.tolist(), w.tolist()))

    def edge_keys(self) -> set[tuple[int, int]]:
        a, b, _ = self.edge_arrays()
        return set(zip(a.tolist(), b.tolist()))

    def subgraph(self, keys: Iterable[tuple[int, int]]) -> "WeightedGraph":
        """Graph on the same vertex set keeping only the given edge keys.

        The first key, in the given order, that is no edge of this graph
        raises KeyError, or that repeats an earlier one, in either
        orientation, the parallel-edge ValueError.  Keys that are not pairs
        of integers raise KeyError.
        """
        keys = list(keys)
        uv = np.array(keys) if keys else np.zeros((0, 2), dtype=np.int64)
        if uv.shape[1:] != (2,) or uv.dtype.kind not in "iu":
            raise KeyError("edge keys must be pairs of integer vertex ids")
        at = self.edge_ids(uv[:, 0], uv[:, 1])
        stop = np.append(np.flatnonzero(at < 0), len(keys))[0]
        # a key that repeats one before the first missing key raises here
        h = WeightedGraph._from_arrays(self.n, *(x[at[:stop]] for x in self._arrays))
        if stop < len(keys):
            raise KeyError(edge_key(*uv[stop].tolist()))
        return h

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self.n == other.n and all(map(np.array_equal, self._arrays, other._arrays))

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={self.m})"
