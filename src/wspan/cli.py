"""Command-line interface: generate, build, verify, bench, stats.

Exit codes: 0 success / all bounds verified, 1 verification failure,
2 usage or parse error.  The default seed comes from $WSPAN_SEED when a
--seed flag is omitted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import defaultdict

from .algos import ALGOS, parse_bound
from .bench import run_bench
from .generators import FAMILIES, WEIGHT_MODELS, GenSpec, generate
from .io import (
    GraphFormatError,
    read_emulator,
    read_graph,
    read_jsonl,
    read_subset,
    write_emulator,
    write_graph,
    write_jsonl,
)
from .verify import size_scaling_fit

FORMAT_HELP = """\
file formats:
  graph files     first line "n m", then one edge per line: "u v w" with
                  0-based vertex ids and a positive, finite decimal weight
  emulator files  same, plus a tag column: "g" original edge, "v" virtual
  subset files    one vertex id per line
  bench records   one JSON object per line (keys: algo, params, n, m_in,
                  m_out, paths_bought, wall_time_ms, seed, verify_pass,
                  max_slack_ratio)
  corpus files    JSON list of generator specs, e.g.
                  [{"family": "gnp", "n": 64, "p": 0.2, "wmodel": "uniform",
                    "seed": 1}]
"""


def _default_seed() -> int:
    text = os.environ.get("WSPAN_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"$WSPAN_SEED must be an integer, got {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wspan",
        description="Weighted additive spanners, emulators, and exact stretch verification.",
        epilog=FORMAT_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("generate", help="write a seeded random graph")
    g.add_argument("--family", required=True, choices=FAMILIES)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--p", type=float, help="gnp edge probability")
    g.add_argument("--rows", type=int, help="grid rows (default n / cols, or sqrt(n); rows * cols must be n)")
    g.add_argument("--cols", type=int, help="grid cols (default n / rows, or sqrt(n))")
    g.add_argument("--radius", type=float, help="geometric connection radius")
    g.add_argument("--branching", type=int, help="tree branching limit")
    g.add_argument("--wmodel", default="unit", choices=WEIGHT_MODELS)
    g.add_argument("--wmax", type=float, help="max weight (default per model)")
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--keep-lcc", action="store_true", help="keep only the largest component")
    g.add_argument("-o", "--out", required=True)

    b = sub.add_parser("build", help="build a spanner or emulator from a graph file")
    b.add_argument("--algo", required=True, choices=list(ALGOS))
    b.add_argument("--graph", required=True)
    b.add_argument("-o", "--out", required=True)
    b.add_argument("--eps", type=float, help="additive stretch slack (6w, subsetwise, poly)")
    b.add_argument("--k", type=int, help="multiplicative stretch parameter (mult)")
    b.add_argument("--c", type=float, help="poly stretch constant / fast2w sampling constant")
    b.add_argument("--subset", help="subset file (subsetwise)")
    b.add_argument("--seed", type=int, default=None, help="seed (fast2w, emulator4w)")
    b.add_argument("--stats", help="also write the stats JSON to this path")

    v = sub.add_parser("verify", help="check a spanner/emulator file against a bound")
    v.add_argument("--graph", required=True)
    v.add_argument("--spanner", required=True)
    v.add_argument(
        "--bound",
        required=True,
        help="6w:EPS | 2w | 4w-emu | poly:EPS[:C] (C defaults to 16) | mult:ALPHA | subset:EPS:SFILE",
    )

    r = sub.add_parser("bench", help="run build+verify pipelines over a corpus")
    r.add_argument("--corpus", required=True, help="JSON file with a list of generator specs")
    r.add_argument("--algos", required=True, help="comma-separated algorithm specs, e.g. 6w:1,mult:2")
    r.add_argument("--seeds", default=None, help="comma-separated seeds (default: $WSPAN_SEED)")
    r.add_argument("--out", required=True, help="records file (JSON lines)")
    r.add_argument("--jobs", type=int, default=1)

    s = sub.add_parser("stats", help="summarize bench records (sizes, scaling fit, pass rates)")
    s.add_argument("--records", required=True)
    s.add_argument("--algo", help="restrict to one algorithm")
    return ap


def _cmd_generate(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    spec = GenSpec(
        family=args.family,
        n=args.n,
        p=args.p,
        rows=args.rows,
        cols=args.cols,
        radius=args.radius,
        branching=args.branching,
        wmodel=args.wmodel,
        wmax=args.wmax,
        seed=seed,
        keep_lcc=args.keep_lcc,
    )
    g = generate(spec)
    write_graph(g, args.out)
    print(json.dumps({"n": g.n, "m": g.m, "spec": spec.to_dict()}, sort_keys=True))
    return 0


def _require(args, flag: str, algo: str, default=None):
    value = getattr(args, flag)
    if value is None:
        if default is None:
            raise ValueError(f"--{flag} is required for --algo {algo}")
        return default
    return value


def _cmd_build(args) -> int:
    g = read_graph(args.graph)
    seed = args.seed if args.seed is not None else _default_seed()
    name = args.algo
    algo = ALGOS[name]
    # the CLI reads the subset from --subset; a size field only matters to bench
    subset = read_subset(_require(args, "subset", name)) if algo.takes_subset else None
    params = {
        f.name: _require(args, f.name, name, f.default) for f in algo.fields if f.name != "size"
    }
    res = algo.build(g, params, idx=None, seed=seed, subset=subset)

    stats = {"algo": name, "params": res.params, "n": g.n, "m_in": g.m, "m_out": res.m}
    if algo.emulator:
        write_emulator(res, args.out)
        stats.update(
            paths_bought=0,
            phase_edge_counts={"light_init": res.m - res.virtual_count, "virtual": res.virtual_count},
            sampled_set_size=len(res.S),
            virtual_edges=res.virtual_count,
        )
    else:
        write_graph(res.to_graph(g), args.out)
        stats["paths_bought"] = len(res.paths_added)
        stats["phase_edge_counts"] = res.stats.get("phase_edge_counts", {})
        if "levels" in res.stats:
            stats["levels"] = res.stats["levels"]
    out = json.dumps(stats, sort_keys=True)
    print(out)
    if args.stats:
        with open(args.stats, "w") as fh:
            fh.write(out + "\n")
    return 0


def _cmd_verify(args) -> int:
    name, params = parse_bound(args.bound)
    algo = ALGOS[name]
    g = read_graph(args.graph)
    h = read_emulator(args.spanner).to_graph() if algo.emulator else read_graph(args.spanner)
    subset = read_subset(params["subset"]) if algo.takes_subset else None
    reports = algo.certify(g, h, params, idx=None, subset=subset)
    payload = {"bound": args.bound, "reports": [r.to_dict() for r in reports]}
    print(json.dumps(payload, sort_keys=True))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_bench(args) -> int:
    with open(args.corpus) as fh:
        specs = [GenSpec.from_dict(d) for d in json.load(fh)]
    algo_specs = [s for s in args.algos.split(",") if s]
    seeds = (
        [int(s) for s in args.seeds.split(",") if s] if args.seeds is not None else [_default_seed()]
    )
    records, det_fail = run_bench(specs, algo_specs, seeds, jobs=args.jobs)
    write_jsonl(records, args.out)
    print(json.dumps({"records": len(records), "deterministic_failure": det_fail}))
    return 1 if det_fail else 0


def _cmd_stats(args) -> int:
    records = read_jsonl(args.records)
    if args.algo:
        records = [r for r in records if r["algo"] == args.algo]
    by_algo: dict[str, dict[int, list[dict]]] = defaultdict(lambda: defaultdict(list))
    for r in records:
        by_algo[r["algo"]][r["n"]].append(r)
    summary = []
    for algo, by_n in sorted(by_algo.items()):
        sizes = {}
        fit_points = []
        passes = total = 0
        for n, recs in sorted(by_n.items()):
            ms = sorted(r["m_out"] for r in recs)
            med = ms[len(ms) // 2]
            sizes[str(n)] = med
            fit_points.append((n, med))
            passes += sum(1 for r in recs if r["verify_pass"])
            total += len(recs)
        entry = {
            "algo": algo,
            "median_m_out": sizes,
            "verify_pass_rate": passes / total if total else None,
        }
        if len({n for n, _ in fit_points}) >= 3:
            entry["size_exponent"] = round(size_scaling_fit(fit_points), 4)
        summary.append(entry)
    print(json.dumps(summary, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        if args.cmd == "generate":
            return _cmd_generate(args)
        if args.cmd == "build":
            return _cmd_build(args)
        if args.cmd == "verify":
            return _cmd_verify(args)
        if args.cmd == "bench":
            return _cmd_bench(args)
        return _cmd_stats(args)
    except (GraphFormatError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"wspan: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
