"""Reproducible build-verify-measure pipelines over generated corpora.

One record is emitted per (instance, algorithm, seed).  Record content is a
pure function of the corpus and seeds except for wall_time_ms.  Builds whose
output ignores the seed (the deterministic all-pairs constructions) are run
once per instance and their measurement shared across seeds.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .algos import ALGOS, parse_algo
from .generators import GenSpec, generate
from .shortest import build_index


@dataclass
class BenchRecord:
    algo: str
    params: dict
    n: int
    m_in: int
    m_out: int
    paths_bought: int
    wall_time_ms: float
    seed: int
    verify_pass: bool
    max_slack_ratio: float | None

    def to_dict(self) -> dict:
        return asdict(self)


def _subset_for(n: int, size_spec, seed: int) -> list[int]:
    if size_spec == "sqrt":
        size = max(1, math.ceil(math.sqrt(n)))
    elif size_spec == "quarter":
        size = max(1, math.ceil(n / 4))
    else:
        size = int(size_spec)
    size = min(size, n)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5E7)))
    return sorted(rng.choice(n, size=size, replace=False).tolist())


def _one_run(g, idx, name: str, params: dict, seed: int):
    """Build + verify one (algo, seed) on a prepared instance."""
    algo = ALGOS[name]
    subset = _subset_for(g.n, params["size"], seed) if algo.takes_subset else None
    t0 = time.perf_counter()
    res = algo.build(g, params, idx=idx, seed=seed, subset=subset)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    h = res.to_graph() if algo.emulator else res.to_graph(g)
    reports = algo.certify(g, h, params, idx=idx, subset=subset)
    return res, wall_ms, all(r.passed for r in reports), reports[-1].max_slack_ratio


def _run_instance(task: tuple[GenSpec, list[tuple[str, dict]], list[int]]) -> list[dict]:
    spec, algos, seeds = task
    g = generate(spec)
    idx = build_index(g)
    records: list[dict] = []
    for name, params in algos:
        cached = None
        for seed in seeds:
            if not ALGOS[name].seeded:
                if cached is None:
                    cached = _one_run(g, idx, name, params, seed)
                res, wall_ms, ok, ratio = cached
            else:
                res, wall_ms, ok, ratio = _one_run(g, idx, name, params, seed)
            records.append(
                BenchRecord(
                    algo=name,
                    params={**params, **{k: v for k, v in res.params.items() if k != "algo"}},
                    n=g.n,
                    m_in=g.m,
                    m_out=res.m,
                    paths_bought=len(getattr(res, "paths_added", [])),
                    wall_time_ms=wall_ms,
                    seed=seed,
                    verify_pass=ok,
                    max_slack_ratio=None if ratio is None or math.isnan(ratio) else float(ratio),
                ).to_dict()
            )
    return records


def run_bench(
    specs: list[GenSpec],
    algo_specs: list[str],
    seeds: list[int],
    jobs: int = 1,
) -> tuple[list[dict], bool]:
    """Run every (instance, algo, seed) combination.

    Returns (records, deterministic_failure): the flag is True when any
    algorithm with a deterministic guarantee failed verification.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    algos = [parse_algo(s) for s in algo_specs]
    if not seeds:
        seeds = [0]
    tasks = [(spec, algos, seeds) for spec in specs]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_instance = list(pool.map(_run_instance, tasks))
    else:
        per_instance = [_run_instance(t) for t in tasks]
    records = [r for chunk in per_instance for r in chunk]
    det_fail = any(ALGOS[r["algo"]].deterministic and not r["verify_pass"] for r in records)
    return records, det_fail
