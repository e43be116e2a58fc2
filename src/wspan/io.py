"""Text formats: edge lists, tagged emulator edge lists, subsets, JSON lines.

Graph files: first line "n m", then m lines "u v w" with 0-based ids and a
decimal weight.  Weights are written with repr(), so read/write round-trips
are lossless.  Emulator files carry a fourth column, "g" for an original
graph edge and "v" for a virtual one.  Malformed input is rejected with the
offending path and line number.
"""

from __future__ import annotations

import json
import math
import operator
from pathlib import Path

import numpy as np

from .emulator import EmulatorResult
from .graph import WeightedGraph


class GraphFormatError(ValueError):
    """Raised for malformed input files; message carries location."""


def _fail(path, lineno: int, msg: str) -> None:
    raise GraphFormatError(f"{path}:{lineno}: {msg}")


def _parse_header(path, line: str) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 2:
        _fail(path, 1, f"expected header 'n m', got {line.strip()!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        _fail(path, 1, f"non-integer header {line.strip()!r}")
    if n < 0 or m < 0:
        _fail(path, 1, "negative counts in header")
    return n, m


def _parse_edge_line(path, lineno: int, line: str, n: int, columns: int) -> tuple[int, int, float, str]:
    parts = line.split()
    if len(parts) != columns:
        _fail(path, lineno, f"expected {columns} fields, got {len(parts)}")
    try:
        u, v = int(parts[0]), int(parts[1])
        w = float(parts[2])
    except ValueError:
        _fail(path, lineno, f"malformed edge line {line.strip()!r}")
    if not (0 <= u < n and 0 <= v < n):
        _fail(path, lineno, f"vertex id out of range in ({u}, {v}) for n={n}")
    if u == v:
        _fail(path, lineno, f"self-loop at vertex {u}")
    if not math.isfinite(w):
        _fail(path, lineno, f"non-finite weight {parts[2]!r}")
    if not w > 0:
        _fail(path, lineno, f"non-positive weight {w}")
    tag = parts[3] if columns == 4 else "g"
    if tag not in ("g", "v"):
        _fail(path, lineno, f"edge tag must be 'g' or 'v', got {tag!r}")
    return u, v, w, tag


def _parse_fields(body: list[str], n: int, columns: int):
    """(u, v, w, virtual) of the nonblank edge lines body, converted a
    column at a time with int and float, as _parse_edge_line converts one
    line; None when any line fails one of its checks, for the per-line
    parse to locate.  The fields go into one flat list: a list per line,
    kept alive, would leave the garbage collector a full pass to run."""
    tokens: list[str] = []
    for parts in map(str.split, body):
        if len(parts) != columns:
            return None
        tokens += parts
    try:
        u = np.array(list(map(int, tokens[0::columns])), dtype=np.int64)
        v = np.array(list(map(int, tokens[1::columns])), dtype=np.int64)
        w = np.array(list(map(float, tokens[2::columns])), dtype=np.float64)
        in_range = (u >= 0) & (u < n) & (v >= 0) & (v < n)
    except (ValueError, OverflowError):
        return None
    if not (in_range.all() and (u != v).all() and np.isfinite(w).all() and (w > 0).all()):
        return None
    virtual = np.zeros(len(w), dtype=bool)
    if columns == 4:
        tags = tokens[3::4]
        if not set(tags) <= {"g", "v"}:
            return None
        virtual = np.array(tags, dtype=str) == "v"
    return u, v, w, virtual


def _read_edge_lines(
    path: str | Path, columns: int
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(n, a, b, w, virtual) of an edge-list file, a < b, sorted by (a, b);
    the first bad line, malformed or repeating an earlier pair, is reported.

    Each line is split once and the columns are converted in one pass; only
    a file that fails a check is parsed again line by line, to locate the
    error."""
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        _fail(path, 1, "empty file")
    n, m = _parse_header(path, lines[0])
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != m:
        raise GraphFormatError(f"{path}: header promises {m} edges, found {len(body)}")
    parsed = _parse_fields(body, n, columns)
    if parsed is not None:
        u, v, w, virtual = parsed
        a, b = np.minimum(u, v), np.maximum(u, v)
        codes = a * n + b
        order = np.argsort(codes, kind="stable")
        if not (codes[order[1:]] == codes[order[:-1]]).any():
            return n, a[order], b[order], w[order], virtual[order]
    return _read_line_by_line(path, lines, n, columns)


def _read_line_by_line(
    path: Path, lines: list[str], n: int, columns: int
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """_read_edge_lines one line at a time, so that the first bad line,
    malformed or repeating an earlier pair, is reported with its number."""
    body = [(i + 2, ln) for i, ln in enumerate(lines[1:]) if ln.strip()]
    rows, error = [], None
    try:
        for lineno, ln in body:
            rows.append(_parse_edge_line(path, lineno, ln, n, columns))
    except GraphFormatError as exc:
        error = exc
    u, v, w, tags = (list(map(operator.itemgetter(k), rows)) for k in range(4))
    u, v = np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)
    a, b = np.minimum(u, v), np.maximum(u, v)
    # the lines parsed before a malformed one may repeat a pair first
    codes = a * n + b
    order = np.argsort(codes, kind="stable")
    repeats = order[1:][codes[order[1:]] == codes[order[:-1]]]
    if len(repeats):
        i = int(repeats.min())
        _fail(path, body[i][0], f"duplicate edge {(int(a[i]), int(b[i]))}")
    if error is not None:
        raise error
    w, virtual = np.array(w, dtype=np.float64), np.array(tags, dtype=str) == "v"
    return n, a[order], b[order], w[order], virtual[order]


def read_graph(path: str | Path) -> WeightedGraph:
    n, a, b, w, _ = _read_edge_lines(path, columns=3)
    return WeightedGraph._from_arrays(n, a, b, w)


def write_graph(g: WeightedGraph, path: str | Path) -> None:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v} {w!r}" for u, v, w in g.edge_items()]
    Path(path).write_text("\n".join(lines) + "\n")


def read_emulator(path: str | Path) -> EmulatorResult:
    """Read a tagged edge list; the sampled set is not stored in the file."""
    return EmulatorResult(*_read_edge_lines(path, columns=4), S=(), params={})


def write_emulator(em: EmulatorResult, path: str | Path) -> None:
    """Write the tagged edge list in the emulator's (a, b) order."""
    tags = np.where(em.virtual, "v", "g").tolist()
    lines = [f"{em.n} {em.m}"]
    lines += [f"{u} {v} {w!r} {t}" for u, v, w, t in zip(em.a.tolist(), em.b.tolist(), em.w.tolist(), tags)]
    Path(path).write_text("\n".join(lines) + "\n")


def read_subset(path: str | Path, n: int) -> list[int]:
    """One vertex id per line, each below n; duplicates and an empty subset
    rejected."""
    path = Path(path)
    out: list[int] = []
    seen = set()
    for lineno, ln in enumerate(path.read_text().splitlines(), start=1):
        if not ln.strip():
            continue
        try:
            v = int(ln)
        except ValueError:
            _fail(path, lineno, f"malformed vertex id {ln.strip()!r}")
        if v < 0:
            _fail(path, lineno, f"negative vertex id {v}")
        if v >= n:
            _fail(path, lineno, f"subset vertex {v} out of range for n={n}")
        if v in seen:
            _fail(path, lineno, f"duplicate vertex id {v}")
        seen.add(v)
        out.append(v)
    if not out:
        raise GraphFormatError(f"{path}: subset must be nonempty")
    return out


def write_subset(subset: list[int], path: str | Path) -> None:
    Path(path).write_text("\n".join(str(v) for v in subset) + "\n")


def write_jsonl(records: list[dict], path: str | Path) -> None:
    Path(path).write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


def read_jsonl(path: str | Path, keys: dict[str, type] | None = None) -> list[dict]:
    """One JSON object per nonblank line.  A line that is not valid JSON, is
    not an object, lacks one of keys or holds a value not of its key's type
    is rejected with its line number; a bool is no int."""
    path = Path(path)
    out = []
    for lineno, ln in enumerate(path.read_text().splitlines(), start=1):
        if not ln.strip():
            continue
        try:
            rec = json.loads(ln)
        except json.JSONDecodeError as exc:
            _fail(path, lineno, f"invalid JSON: {exc.msg} at column {exc.colno}")
        if not isinstance(rec, dict):
            _fail(path, lineno, f"expected a JSON object, got {type(rec).__name__}")
        for key, kind in (keys or {}).items():
            if key not in rec:
                _fail(path, lineno, f"record has no {key!r}")
            value = rec[key]
            if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
                _fail(path, lineno, f"record's {key!r} must be {kind.__name__}, got {value!r}")
        out.append(rec)
    return out
