"""The algorithm table: one entry per builder, read by the CLI and bench.

Each entry lists its spec fields with their defaults, builds its output, and
certifies the bound its guarantee promises.  Algorithm specs are written
NAME[:FIELD...] (e.g. "6w:0.5", "poly:0:16").  The verifier's --bound
spellings are aliases onto the same entries; see BOUNDS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .emulator import build_4w_emulator
from .fast2w import build_fast_2w
from .greedy import (
    build_6eps_spanner,
    build_poly_spanner,
    build_subsetwise_spanner,
    greedy_multiplicative,
    poly_stretch_factor,
)
from .verify import verify_additive_W, verify_multiplicative, verify_non_contracting


@dataclass(frozen=True)
class Field:
    """One positional field of a spec: its name, string parser and default.

    A field whose default is None is required.
    """

    name: str
    parse: Callable[[str], Any]
    default: Any = None


@dataclass(frozen=True)
class Algo:
    """One builder and the bound that certifies its output.

    build(g, p, idx, seed, subset) returns a SpannerResult or EmulatorResult;
    certify(g, h, p, idx, subset) returns the verifier reports, all of which
    must pass.  subset is the vertex subset for entries with takes_subset
    (bench draws it at the size the "size" field gives, the CLI reads it from
    a file) and None otherwise.  deterministic: the bound always holds, so a failure is a
    bug.  seeded: bench output depends on the run seed (directly, or through
    the subset it draws).  emulator: the output is a tagged emulator file.
    """

    fields: tuple[Field, ...]
    build: Callable[..., Any]
    certify: Callable[..., list]
    deterministic: bool
    seeded: bool
    takes_subset: bool = False
    emulator: bool = False


def _size(text: str):
    return text if text in ("sqrt", "quarter") else int(text)


_EPS = Field("eps", float)

ALGOS: dict[str, Algo] = {
    "mult": Algo(
        fields=(Field("k", int),),
        build=lambda g, p, idx, seed, subset: greedy_multiplicative(g, p["k"]),
        # --bound mult:ALPHA gives the stretch itself
        certify=lambda g, h, p, idx, subset: [
            verify_multiplicative(g, h, p["alpha"] if "alpha" in p else 2 * p["k"] - 1, idx=idx)
        ],
        deterministic=True,
        seeded=False,
    ),
    "6w": Algo(
        fields=(_EPS,),
        build=lambda g, p, idx, seed, subset: build_6eps_spanner(g, p["eps"], idx=idx),
        certify=lambda g, h, p, idx, subset: [verify_additive_W(g, h, 6.0 + p["eps"], idx=idx)],
        deterministic=True,
        seeded=False,
    ),
    "subsetwise": Algo(
        fields=(_EPS, Field("size", _size, "sqrt")),
        build=lambda g, p, idx, seed, subset: build_subsetwise_spanner(g, subset, p["eps"], idx=idx),
        certify=lambda g, h, p, idx, subset: [
            verify_additive_W(g, h, 2.0 + p["eps"], pair_class=subset, idx=idx)
        ],
        deterministic=True,
        seeded=True,
        takes_subset=True,
    ),
    "poly": Algo(
        fields=(_EPS, Field("c", float, 16.0)),
        build=lambda g, p, idx, seed, subset: build_poly_spanner(g, p["eps"], p["c"], idx=idx),
        certify=lambda g, h, p, idx, subset: [
            verify_additive_W(g, h, poly_stretch_factor(g.n, p["eps"], p["c"]), idx=idx)
        ],
        deterministic=True,
        seeded=False,
    ),
    "fast2w": Algo(
        fields=(Field("c", float, 4.0),),
        build=lambda g, p, idx, seed, subset: build_fast_2w(g, p["c"], seed),
        certify=lambda g, h, p, idx, subset: [verify_additive_W(g, h, 2.0, idx=idx)],
        deterministic=False,
        seeded=True,
    ),
    "emulator4w": Algo(
        fields=(),
        build=lambda g, p, idx, seed, subset: build_4w_emulator(g, seed, idx=idx),
        certify=lambda g, h, p, idx, subset: [
            verify_non_contracting(g, h, idx=idx),
            verify_additive_W(g, h, 4.0, idx=idx),
        ],
        deterministic=False,
        seeded=True,
        emulator=True,
    ),
}

# --bound spelling -> (table entry, the fields that spelling carries)
BOUNDS: dict[str, tuple[str, tuple[Field, ...]]] = {
    "6w": ("6w", ALGOS["6w"].fields),
    "poly": ("poly", ALGOS["poly"].fields),
    "2w": ("fast2w", ()),
    "4w-emu": ("emulator4w", ()),
    "mult": ("mult", (Field("alpha", float),)),
    "subset": ("subsetwise", (_EPS, Field("subset", str))),
}


def _parse_fields(spec: str, fields: tuple[Field, ...], what: str) -> dict:
    """Field values of NAME[:FIELD...]; the last field takes the rest of spec."""
    _, sep, rest = spec.partition(":")
    parts = rest.split(":", max(len(fields) - 1, 0)) if sep else []
    omitted = fields[len(parts):]
    if len(parts) > len(fields) or any(f.default is None for f in omitted):
        raise ValueError(f"malformed {what} {spec!r}")
    try:
        values = {f.name: f.parse(text) for f, text in zip(fields, parts)}
    except ValueError as exc:
        raise ValueError(f"malformed {what} {spec!r}") from exc
    values.update((f.name, f.default) for f in omitted)
    return values


def parse_algo(spec: str) -> tuple[str, dict]:
    """Parse an algorithm spec like "6w:0.5" or "subsetwise:1:sqrt".

    Forms: mult:K | 6w:EPS | poly:EPS[:C] | subsetwise:EPS[:SIZE] |
    fast2w[:C] | emulator4w.  SIZE is an integer or "sqrt"/"quarter".
    """
    name = spec.partition(":")[0]
    if name not in ALGOS:
        raise ValueError(f"unknown algorithm {name!r}")
    return name, _parse_fields(spec, ALGOS[name].fields, "algorithm spec")


def parse_bound(spec: str) -> tuple[str, dict]:
    """Parse a --bound spelling into (table entry, field values).

    Forms: 6w:EPS | 2w | 4w-emu | poly:EPS[:C] | mult:ALPHA |
    subset:EPS:SFILE.  ALPHA is the multiplicative stretch itself; SFILE is
    a subset file path and may contain ':'.
    """
    kind = spec.partition(":")[0]
    if kind not in BOUNDS:
        raise ValueError(f"unknown bound kind {kind!r}")
    name, fields = BOUNDS[kind]
    return name, _parse_fields(spec, fields, "bound spec")
