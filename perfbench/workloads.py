"""The benchmark's workloads, the jobs they run and how each output is certified.

A workload is a list of instances, each generated with `wspan.generate` from
the run's seed, and the builders run on every instance.  A job is one
(instance, builder) pair: build, then certify the output with the verifier
that matches the builder's guarantee.  Only names exported by the `wspan`
package (plus the `wspan.io` module) are called.  See README.md in this
directory for why each workload exists.
"""

from __future__ import annotations

import hashlib
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import wspan
import wspan.io as wio

from spans import Tracer

EPS_6W = 1.0
EPS_SUBSET = 0.5
EPS_POLY = 0.5
C_POLY = 16.0
C_FAST2W = 4.0

# span each builder's call is recorded under
BUILD_SPAN = {
    "mult": "greedy.mult",
    "6w": "greedy.build",
    "poly": "greedy.build",
    "subsetwise": "greedy.build",
    "fast2w": "fast2w.build",
    "emulator4w": "emulator.build",
}


@dataclass(frozen=True)
class InstanceSpec:
    name: str
    spec: wspan.GenSpec
    subset_size: int | None = None


@dataclass(frozen=True)
class Workload:
    algos: tuple[str, ...]
    round_trip_io: bool
    # (seed, tiny) -> instance specs; tiny ones serve as the warm-up
    instances: Callable[[int, bool], list[InstanceSpec]]


def _gnp(n: int, wmodel: str, seed: int) -> wspan.GenSpec:
    return wspan.GenSpec(family="gnp", n=n, p=2.0 * math.sqrt(n) / (n - 1), wmodel=wmodel, seed=seed)


def _gnp_uniform(seed: int, tiny: bool) -> list[InstanceSpec]:
    return [
        InstanceSpec(f"gnp{n}", _gnp(n, "uniform", 1000 * seed + n), math.ceil(math.sqrt(n)))
        for n in ((24, 32) if tiny else (128, 256))
    ]


def _unit_ties(seed: int, tiny: bool) -> list[InstanceSpec]:
    n, side = (24, 5) if tiny else (192, 14)
    return [
        InstanceSpec(f"gnp{n}-unit", _gnp(n, "unit", 1000 * seed + n)),
        InstanceSpec(
            f"grid{side}x{side}",
            wspan.GenSpec(family="grid", n=side * side, rows=side, cols=side, wmodel="unit"),
        ),
    ]


def _geometric(seed: int, tiny: bool) -> list[InstanceSpec]:
    n, radius = (48, 0.35) if tiny else (1024, 0.07)
    spec = wspan.GenSpec(family="geometric", n=n, radius=radius, seed=1000 * seed + n, keep_lcc=True)
    return [InstanceSpec(f"geo{n}", spec, 8)]


WORKLOADS = {
    "gnp-uniform": Workload(("mult", "6w", "poly", "subsetwise", "fast2w", "emulator4w"), False, _gnp_uniform),
    "unit-ties": Workload(("6w", "fast2w", "emulator4w"), False, _unit_ties),
    "geometric-1024": Workload(("subsetwise", "emulator4w"), True, _geometric),
}


@dataclass
class Instance:
    name: str
    graph: wspan.WeightedGraph
    subset: list[int] | None


def generate_instances(workload: Workload, seed: int, tracer: Tracer, tiny: bool = False) -> list[Instance]:
    out = []
    for i, ispec in enumerate(workload.instances(seed, tiny)):
        with tracer.span("generators.generate"):
            g = wspan.generate(ispec.spec)
        subset = None
        if ispec.subset_size is not None:
            rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
            size = min(ispec.subset_size, g.n)
            subset = sorted(rng.choice(g.n, size=size, replace=False).tolist())
        out.append(Instance(ispec.name, g, subset))
    return out


def mult_k(n: int) -> int:
    """k whose stretch 2k-1 is the smallest odd integer >= log2(n), as poly requires."""
    return max(1, math.ceil((math.log2(n) + 1.0) / 2.0)) if n >= 2 else 1


def poly_c(n: int) -> float:
    """The poly builder's additive multiplier c * n^((1-eps)/2) * log2(n)."""
    return C_POLY * n ** ((1.0 - EPS_POLY) / 2.0) * math.log2(n) if n >= 2 else 0.0


def _build(algo: str, inst: Instance, idx, seed: int, mult):
    g = inst.graph
    if algo == "mult":
        return wspan.greedy_multiplicative(g, mult_k(g.n))
    if algo == "6w":
        return wspan.build_6eps_spanner(g, EPS_6W, idx=idx)
    if algo == "poly":
        return wspan.build_poly_spanner(g, EPS_POLY, C_POLY, idx=idx, mult=mult)
    if algo == "subsetwise":
        return wspan.build_subsetwise_spanner(g, inst.subset, EPS_SUBSET, idx=idx)
    if algo == "fast2w":
        return wspan.build_fast_2w(g, C_FAST2W, seed)
    if algo == "emulator4w":
        return wspan.build_4w_emulator(g, seed, idx=idx)
    raise ValueError(f"unknown algorithm {algo!r}")


def _certify(algo: str, inst: Instance, idx, h) -> tuple[bool, int]:
    """(passed, pairs checked) for the bound the builder guarantees."""
    g = inst.graph
    if algo == "emulator4w":
        reports = [
            wspan.verify_non_contracting(g, h, idx=idx),
            wspan.verify_additive_W(g, h, 4.0, idx=idx),
        ]
    elif algo == "mult":
        reports = [wspan.verify_multiplicative(g, h, 2 * mult_k(g.n) - 1, idx=idx)]
    elif algo == "subsetwise":
        reports = [wspan.verify_additive_W(g, h, 2.0 + EPS_SUBSET, pair_class=inst.subset, idx=idx)]
    else:
        c = {"6w": 6.0 + EPS_6W, "poly": poly_c(g.n), "fast2w": 2.0}[algo]
        reports = [wspan.verify_additive_W(g, h, c, idx=idx)]
    passed = all(r.passed for r in reports)
    if algo != "emulator4w":
        passed = passed and wspan.verify_subgraph(g, h)
    return passed, sum(r.pairs_checked for r in reports)


def output_digest(algo: str, res, h) -> str:
    """sha256 of the output's sorted edge list, one 'u v w' (+ tag) line per edge."""
    if algo == "emulator4w":
        lines = (f"{u} {v} {w!r} {tag}" for (u, v), (w, tag) in sorted(res.edges.items()))
    else:
        lines = (f"{u} {v} {w!r}" for u, v, w in h.edge_items())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _layer_counts(tracer: Tracer, algo: str, res) -> None:
    if algo == "emulator4w":
        tracer.add("emulator.virtual_edges", res.virtual_count)
        tracer.add("emulator.sample_size", len(res.S))
    elif algo == "fast2w":
        tracer.add("fast2w.tie_roots", 0)
        levels = res.stats.get("levels")
        if levels is not None:
            tracer.add("fast2w.spt_roots", sum(lv.get("d_size") or 0 for lv in levels))


@dataclass
class JobResult:
    job: str
    algo: str
    instance: str
    seconds: float
    passed: bool
    m_out: int = 0
    digest: str = ""
    error: str | None = None
    io_seconds: float = 0.0


def _round_trip(tracer: Tracer, tmp: Path, write, read, obj):
    """Write obj through wspan.io and read it back."""
    path = tmp / "round-trip.txt"
    with tracer.span("io.write"):
        write(obj, path)
    tracer.add("io.bytes", path.stat().st_size)
    with tracer.span("io.read"):
        back = read(path)
    path.unlink()
    return back


def round_trip_graph(tracer: Tracer, tmp: Path, g) -> bool:
    return _round_trip(tracer, tmp, wio.write_graph, wio.read_graph, g) == g


def run_job(
    tracer: Tracer, algo: str, inst: Instance, idx, seed: int, mult, tmp: Path | None
) -> tuple[JobResult, object]:
    """Build and certify one (instance, builder) pair; returns (result, builder output)."""
    job = f"{inst.name}/{algo}"
    tracer.job = job
    res = None
    try:
        with tracer.span("job") as sp:
            with tracer.span(BUILD_SPAN[algo]):
                res = _build(algo, inst, idx, seed, mult)
            with tracer.span("graph.subgraph"):
                h = res.to_graph() if algo == "emulator4w" else res.to_graph(inst.graph)
            with tracer.span("verify.check"):
                passed, pairs = _certify(algo, inst, idx, h)
        out = JobResult(job, algo, inst.name, sp.duration, passed, res.m, output_digest(algo, res, h))
        tracer.add("verify.pairs_checked", pairs)
        _layer_counts(tracer, algo, res)
        if tmp is not None:
            with tracer.span("io") as io_sp:
                if algo == "emulator4w":
                    back = _round_trip(tracer, tmp, wio.write_emulator, wio.read_emulator, res)
                    same = back.edges == res.edges
                else:
                    same = round_trip_graph(tracer, tmp, h)
            out.io_seconds = io_sp.duration
            if not same:
                out.passed = False
                out.error = "io round trip changed the output"
    except Exception:  # one job's crash is one failed job; the run goes on
        out = JobResult(job, algo, inst.name, 0.0, False, error=traceback.format_exc())
    finally:
        tracer.job = None
    return out, res


@dataclass
class Pass:
    """One pass: the seconds of each part, keyed "instance/index", "instance/ALGO"
    (build + certify) or ".../io" (wspan.io round trip)."""

    traced: bool
    parts: dict[str, float] = field(default_factory=dict)
    jobs: list = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    missing: dict = field(default_factory=dict)


def run_pass(workload: Workload, instances: list[Instance], seed: int, tracer: Tracer, tmp: Path) -> Pass:
    """One pass over every job of the workload."""
    p = Pass(traced=tracer.record)
    io_tmp = tmp if workload.round_trip_io else None
    for inst in instances:
        tracer.job = f"{inst.name}/index"
        with tracer.span("shortest.index") as sp:
            idx = wspan.build_index(inst.graph)
        tracer.add("shortest.tie_sources", 0)
        p.parts[tracer.job] = sp.duration
        if io_tmp is not None:
            with tracer.span("io") as sp:
                same = round_trip_graph(tracer, io_tmp, inst.graph)
            p.parts[f"{inst.name}/io"] = sp.duration
            if not same:
                p.problems.append(f"{inst.name}: io round trip changed the graph")
        tracer.job = None
        mult = None
        for algo in workload.algos:
            job, out = run_job(tracer, algo, inst, idx, seed, mult, io_tmp)
            if algo == "mult":
                mult = out
            p.jobs.append(job)
            p.parts[job.job] = job.seconds
            if io_tmp is not None:
                p.parts[f"{job.job}/io"] = job.io_seconds
    return p


def set_up(workload: Workload, seed: int, tmp: Path) -> tuple[list[Instance], float]:
    """Generate the instances, then warm up on tiny instances of the same families.

    Returns the instances and the seconds spent in wspan.generate.
    """
    tracer = Tracer(True, 0.0)
    instances = generate_instances(workload, seed, tracer)
    quiet = Tracer(False, 0.0)
    run_pass(workload, generate_instances(workload, seed, quiet, tiny=True), seed, quiet, tmp)
    return instances, tracer.self_times().get("generators.generate", 0.0)
