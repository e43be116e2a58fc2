#!/usr/bin/env python3
"""wspan benchmark: time from a graph in memory to a certified spanner or emulator.

    python3 perfbench/run.py --workload gnp-uniform --seed 1 --seconds 36 --trace 0

Run from the repository root; the package is imported from ./src.  One run is
one fresh process with one client in a closed loop: it generates the
workload's instances from the seed, warms up, then repeats passes for
--seconds.  A pass runs every job of the workload once: build_index per
instance, then each builder, each output certified by its verifier.  With
--trace 1 untraced and traced passes alternate and the per-layer metrics come
from the traced ones.  The last line of stdout is one JSON object with the
metrics BENCHMARK.json names; the full record goes to perfbench/out/.
"""

from __future__ import annotations

import os
import sys
import time

T0 = time.perf_counter()
# single-threaded numeric libraries; must be set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("gnp-uniform", "unit-ties", "geometric-1024")
# set-up is timed in this process and in this many fresh ones; setup_s is the median
SETUP_CHILDREN = 4


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0, help="how long the passes run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="full JSON record (default: perfbench/out/...)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.seconds > 0:
        ap.error("--seconds must be > 0")
    return args


def part_medians(passes) -> dict[str, float]:
    """Median seconds of each part over the passes."""
    return {k: statistics.median(p.parts[k] for p in passes) for k in passes[0].parts}


def setup_in_fresh_processes(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def tail(values: list[float]) -> tuple[str, float]:
    """Highest percentile with at least ten samples above it; the maximum when
    even the median has fewer (under 20 samples)."""
    pct = math.floor(100 * (1 - 10 / len(values)))
    if pct < 50:
        return "max", max(values)
    return f"p{pct}", statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def part_timing(passes, keep) -> dict:
    """Timing of the parts whose key satisfies keep.

    The value is the sum over those parts of each part's 90th-percentile time
    in the run.  On a shared 2-vCPU virtual machine, CPU speed flips between a
    fast and a slow state 1.4-1.7x apart, and which one holds most of a run
    varies, so a part's median jumps between the two from run to run.  The
    90th percentile sits in the slow state, which most runs visit; on the same
    ten-seed sets it spread 0.06-0.17 against 0.06-0.27 for the median.  The
    median and the tail over whole passes are reported beside it.
    """
    keys = [k for k in passes[0].parts if keep(k)]
    per_part = [[p.parts[k] for p in passes] for k in keys]
    label, tail_value = tail([sum(v) for v in zip(*per_part)])
    return {"value": sum(p90(v) for v in per_part), "unit": "s",
            "median": sum(statistics.median(v) for v in per_part),
            "tail": label, "tail_value": tail_value, "samples": len(passes)}


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
    }


def digest_problems(passes) -> list[str]:
    """Every pass must produce byte-identical outputs."""
    seen: dict[str, set[str]] = {}
    for p in passes:
        for j in p.jobs:
            seen.setdefault(j.job, set()).add(j.digest)
    return [f"{job}: outputs differ between passes" for job, ds in seen.items() if len(ds) > 1]


def print_report(args, record: dict) -> None:
    print(f"wspan benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    c = record["counts"]
    print(f"  passes: {c['untraced_passes']} untraced, {c['traced_passes']} traced; jobs attempted "
          f"{c['attempted']}, failed {c['failed']}")
    print(f"  {'end-to-end metric':<26}{'unit':<7}{'value':>12}{'median':>10}  {'tail':>16}  samples")
    for name, m in record["end_to_end"].items():
        if "tail" in m:
            t = f"{m['tail']} {m['tail_value']:.4f}"
            print(f"  {name:<26}{m['unit']:<7}{m['value']:>12.4f}{m['median']:>10.4f}  {t:>16}  {m['samples']}")
        else:
            print(f"  {name:<26}{m['unit']:<7}{m['value']:>12.4f}")
    if record["per_layer"]:
        print(f"  {'per-layer metric':<26}{'unit':<7}{'median':>12}")
        for name, m in record["per_layer"].items():
            print(f"  {name:<26}{m['unit']:<7}{m['value']:>12.4f}")
        for name, why in record["missing"].items():
            print(f"  {name:<26}missing: {why}")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wspan" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'wspan'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        print(f"error: {bench_file} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import layers
    import workloads as W
    from spans import Probes, Tracer

    workload = W.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmpname:
        tmp = Path(tmpname)
        instances, generate_s = W.set_up(workload, args.seed, tmp)
        own_setup = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        setup_samples = [own_setup] + setup_in_fresh_processes(args)

        probes = Probes(layers.PROBES)
        passes = []
        spans_out: list[dict] = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            tracer = Tracer(traced, T0)
            with probes.installed(tracer) if traced else nullcontext():
                p = W.run_pass(workload, instances, args.seed, tracer, tmp)
            if traced:
                p.layers, p.missing = layers.layer_values(tracer.self_times(), tracer.counts, probes.absent)
                spans_out.append(tracer.dump())
            passes.append(p)
            if time.perf_counter() - start >= args.seconds and (not args.trace or len(passes) >= 2):
                break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    problems = [s for p in passes for s in p.problems] + digest_problems(passes)
    attempted = sum(len(p.jobs) for p in passes)
    failed_jobs = [j for p in passes for j in p.jobs if not j.passed]
    problems += [f"{j.job}: " + (j.error or "certification failed").strip().splitlines()[-1]
                 for j in failed_jobs]
    failed = len(failed_jobs)

    label, tail_value = tail(setup_samples)
    e2e = {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s",
                    "median": statistics.median(setup_samples), "tail": label,
                    "tail_value": tail_value, "samples": len(setup_samples)},
        "certify_s": part_timing(untraced, lambda k: True),
        "index_s": part_timing(untraced, lambda k: k.endswith("/index")),
    }
    for algo in workload.algos:
        e2e[f"algo_s.{algo}"] = part_timing(untraced, lambda k, a=algo: k.endswith("/" + a))
    e2e["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    e2e["edges_out"] = {"value": sum(j.m_out for j in passes[0].jobs), "unit": "edges"}
    e2e["fail_ratio"] = {"value": failed / attempted, "unit": "1"}
    e2e["certified_ratio"] = {"value": 1.0 - failed / attempted, "unit": "1"}

    per_layer: dict[str, dict] = {}
    missing: dict[str, str] = {}
    if traced:
        # generation runs once, during set-up, so it is timed there
        per_layer["generators.generate_s"] = {"value": generate_s, "unit": "s"}
        for name, (unit, _, _) in layers.LAYER_METRICS.items():
            vals = [p.layers[name] for p in traced if name in p.layers]
            if len(vals) == len(traced):
                per_layer[name] = {"value": statistics.median(vals), "unit": unit}
            else:
                missing[name] = traced[0].missing.get(name, "not measured in every traced pass")
        # medians on both sides, so that layer self times add up to trace.certify_s
        traced_certify = sum(part_medians(traced).values())
        per_layer["trace.certify_s"] = {"value": traced_certify, "unit": "s"}
        per_layer["trace.overhead_s"] = {"value": traced_certify - e2e["certify_s"]["median"], "unit": "s"}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "counts": {"attempted": attempted, "failed": failed, "untraced_passes": len(untraced),
                   "traced_passes": len(traced)},
        "instances": [{"name": i.name, "n": i.graph.n, "m": i.graph.m,
                       "subset_size": None if i.subset is None else len(i.subset)} for i in instances],
        "setup_samples_s": setup_samples,
        "end_to_end": e2e,
        "per_layer": per_layer,
        "missing": missing,
        "problems": problems,
        "passes": [{"traced": p.traced, "parts": p.parts} for p in passes],
        "jobs": [{k: v for k, v in asdict(j).items() if k not in ("seconds", "io_seconds")}
                 for j in passes[0].jobs],
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_path = args.out or OUT_DIR / f"{stem}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    if spans_out:
        (OUT_DIR / f"{stem}.spans.json").write_text(json.dumps(spans_out) + "\n")
    print_report(args, record)

    declared = json.loads(bench_file.read_text())["per_layer" if args.trace else "end_to_end"]
    source = per_layer if args.trace else e2e
    metrics = {m["name"]: {"value": source[m["name"]]["value"], "unit": m["unit"]}
               for m in declared if m["name"] in source}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
