"""Per-layer metrics: which span or counter gives each, and the probes they need.

Layer names are the package's module names.  Time metrics are self times of
the named spans, so they add up, with the benchmark's own glue, to the traced
pass.  Counters that no public call returns come from probes: wrappers the
traced passes put around the module attributes a layer calls through.
"""

from __future__ import annotations

from spans import counted, spanned

# probe targets, by the module attribute replaced
SHORTEST_DIJKSTRA = "wspan.shortest._sp_dijkstra"
TIE_TREE = "wspan.shortest.canonical_tree_from_dist"
GREEDY_DIJKSTRA = "wspan.greedy._sp_dijkstra"
BUY_PATHS = "wspan.greedy._buy_paths"
GREEDY_LIGHT = "wspan.greedy.t_light_init"
EMULATOR_LIGHT = "wspan.emulator.t_light_init"
PAIR_ORDER = "wspan.greedy.make_pair_order"
SAMPLE_LEVELS = "wspan.fast2w.sample_levels"
VERIFY_APSP = "wspan.verify.distance_matrix"


def _count_light(tracer, args, kwargs, result):
    tracer.add("light.kept_edges", len(result.kept_edges))


def _count_ties(tracer, args, kwargs, result):
    # build_index falls back to this rule once per source whose distances tie
    where = tracer.current
    if where == "shortest.index":
        tracer.add("shortest.tie_sources")
    elif where == "fast2w.build":
        tracer.add("fast2w.tie_roots")


def _count_dijkstra(tracer, args, kwargs, result):
    tracer.add("greedy.dijkstra_calls")


def _count_buy_paths(tracer, args, kwargs, result):
    scan = kwargs["scan"] if "scan" in kwargs else args[3]
    _, bought, added = result
    tracer.add("greedy.pairs_scanned", len(scan))
    tracer.add("greedy.paths_bought", len(bought))
    tracer.add("greedy.path_edges", added)


PROBES = [
    (SHORTEST_DIJKSTRA, spanned("shortest.distance", only_under="shortest.index")),
    (TIE_TREE, counted(_count_ties)),
    (GREEDY_DIJKSTRA, counted(_count_dijkstra)),
    (BUY_PATHS, counted(_count_buy_paths)),
    (GREEDY_LIGHT, spanned("light.init", after=_count_light)),
    (EMULATOR_LIGHT, spanned("light.init", after=_count_light)),
    (PAIR_ORDER, spanned("greedy.pair_order")),
    (SAMPLE_LEVELS, spanned("fast2w.sample_levels")),
    (VERIFY_APSP, spanned("verify.h_apsp")),
]

LIGHT = (GREEDY_LIGHT, EMULATOR_LIGHT)

# name -> (unit, span names whose self times add up, or None for a counter,
#          probes the value depends on)
LAYER_METRICS: dict[str, tuple[str, tuple[str, ...] | None, tuple[str, ...]]] = {
    "graph.subgraph_s": ("s", ("graph.subgraph",), ()),
    "shortest.distance_s": ("s", ("shortest.distance",), (SHORTEST_DIJKSTRA,)),
    "shortest.canonical_s": ("s", ("shortest.index",), (SHORTEST_DIJKSTRA,)),
    "shortest.tie_sources": ("count", None, (TIE_TREE,)),
    "light.init_s": ("s", ("light.init",), LIGHT),
    "light.kept_edges": ("count", None, LIGHT),
    "greedy.pair_order_s": ("s", ("greedy.pair_order",), (PAIR_ORDER,)),
    "greedy.scan_s": ("s", ("greedy.build",), (PAIR_ORDER, *LIGHT)),
    "greedy.pairs_scanned": ("count", None, (BUY_PATHS,)),
    "greedy.dijkstra_calls": ("count", None, (GREEDY_DIJKSTRA,)),
    "greedy.paths_bought": ("count", None, (BUY_PATHS,)),
    "greedy.path_edges": ("count", None, (BUY_PATHS,)),
    "greedy.mult_s": ("s", ("greedy.mult",), ()),
    "fast2w.sample_levels_s": ("s", ("fast2w.sample_levels",), (SAMPLE_LEVELS,)),
    "fast2w.spt_s": ("s", ("fast2w.build",), (SAMPLE_LEVELS,)),
    "fast2w.spt_roots": ("count", None, ()),
    "fast2w.tie_roots": ("count", None, (TIE_TREE,)),
    "emulator.build_s": ("s", ("emulator.build",), (EMULATOR_LIGHT,)),
    "emulator.virtual_edges": ("count", None, ()),
    "emulator.sample_size": ("count", None, ()),
    "verify.h_apsp_s": ("s", ("verify.h_apsp",), (VERIFY_APSP,)),
    "verify.sweep_s": ("s", ("verify.check",), (VERIFY_APSP,)),
    "verify.pairs_checked": ("count", None, ()),
    "io.write_s": ("s", ("io.write",), ()),
    "io.read_s": ("s", ("io.read",), ()),
    "io.bytes": ("bytes", None, ()),
    # the benchmark's own code between the calls above
    "trace.glue_s": ("s", ("job", "io"), ()),
}


def layer_values(self_times: dict[str, float], counts: dict[str, float], absent: set[str]):
    """(values, missing) for one traced pass; missing maps a metric to the reason."""
    values: dict[str, float] = {}
    missing: dict[str, str] = {}
    for name, (_, spans, needs) in LAYER_METRICS.items():
        gone = [p for p in needs if p in absent]
        if gone:
            missing[name] = f"probe target gone: {', '.join(gone)}"
        elif spans is None:
            if name in counts:
                values[name] = counts[name]
            else:
                missing[name] = "not exercised by this workload"
        elif any(s in self_times for s in spans):
            values[name] = sum(self_times.get(s, 0.0) for s in spans)
        else:
            missing[name] = "not exercised by this workload"
    return values, missing
