"""The benchmark's traced passes still find every per-layer metric it declares.

perfbench/ reads counters through probes: wrappers around module attributes
of the package.  A refactor that renames or deletes one of those attributes,
or stops producing a counter, drops a declared metric from the benchmark's
output line.  This test runs one traced pass of each workload on its tiny
instances, with the benchmark's own modules imported read-only, and checks
that every declared per-layer metric has a value, and that no source goes
to the per-source tie rule even where every source ties.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# added by perfbench/run.py itself, outside the traced pass
ADDED_BY_RUNNER = {"generators.generate_s", "trace.certify_s"}


@pytest.fixture(scope="module")
def bench():
    """(layers, workloads, spans) modules of perfbench/, imported without writing bytecode."""
    names = ("spans", "layers", "workloads")
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        spans, layers, workloads = (importlib.import_module(name) for name in names)
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
    yield layers, workloads, spans
    for name in names:
        sys.modules.pop(name, None)


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_traced_pass_yields_every_declared_metric(bench, name, tmp_path):
    layers, workloads, spans = bench
    workload = workloads.WORKLOADS[name]
    seed = 1
    instances = workloads.generate_instances(workload, seed, spans.Tracer(False, 0.0), tiny=True)
    probes = spans.Probes(layers.PROBES)
    tracer = spans.Tracer(True, 0.0)
    with probes.installed(tracer):
        p = workloads.run_pass(workload, instances, seed, tracer, tmp_path)
    values, missing = layers.layer_values(tracer.self_times(), tracer.counts, probes.absent)
    assert probes.absent == set()
    declared = {m["name"] for m in SPEC["per_layer"]} - ADDED_BY_RUNNER
    assert {m: missing.get(m) for m in declared - set(values)} == {}
    if name == "unit-ties":
        # unit weights tie every source, and tree_rows finishes them all in
        # numpy: the probed per-source rule never runs
        assert values["shortest.tie_sources"] == 0
    assert p.problems == [] and all(j.passed for j in p.jobs), [j.error for j in p.jobs]
