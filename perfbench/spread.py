#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload unit-ties --seeds 1-10 [--trace 0]

Runs one fresh `perfbench/run.py` process per seed, one at a time, for the
run length BENCHMARK.json sets.  For each end-to-end metric it prints the
median of the per-run values and the distance between their first and third
quartiles as a share of the median, next to a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if args.trace else "end_to_end"]
    values: dict[str, list[float]] = {m["name"]: [] for m in declared}
    ok = True
    for seed in args.seeds:
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name, m in result["metrics"].items():
            values[name].append(m["value"])

    print(f"{'metric':<26}{'median':>12}{'spread':>9}{'bound/3':>9}")
    for m in declared:
        vals = values[m["name"]]
        if len(vals) < 2:
            continue
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        third = f"{m['bound'] / 3:.3f}" if "bound" in m else "-"
        print(f"{m['name']:<26}{med:>12.4f}{spread:>9.3f}{third:>9}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
