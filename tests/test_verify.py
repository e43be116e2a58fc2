import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wspan.shortest
import wspan.verify

from wspan import (
    GenSpec,
    WeightedGraph,
    build_4w_emulator,
    build_6eps_spanner,
    build_index,
    build_poly_spanner,
    build_subsetwise_spanner,
    generate,
    greedy_multiplicative,
    size_scaling_fit,
    verify_additive_W,
    verify_multiplicative,
    verify_non_contracting,
    verify_subgraph,
)
from wspan.algos import ALGOS
from wspan.shortest import _BLOCK_BYTES, distance_matrix
from wspan.verify import REL_TOL, Violation

from conftest import (
    brute_force_apsp,
    buying_graphs,
    canonical_rows,
    forbid_full_index,
    minimax_path_weight,
    mixed_graphs,
    small_graphs,
    sparse_800,
    sweep_reference,
)


def triangle_heavy():
    return WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)])


def four_cycle():
    return WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])


# ------------------------------------------------------------- additive


def test_identity_spanner_zero_violations():
    g = triangle_heavy()
    for c in (0.0, 2.0, 10.0):
        rep = verify_additive_W(g, g, c)
        assert rep.passed
        assert rep.pairs_checked == 3


def test_dropping_redundant_heavy_edge_passes_at_c0():
    g = triangle_heavy()
    h = g.subgraph({(0, 1), (1, 2)})
    rep = verify_additive_W(g, h, 0.0)
    assert rep.passed  # d(0,2) was already 2 via vertex 1


def test_empty_spanner_reports_unreachable_kind():
    g = triangle_heavy()
    h = WeightedGraph(3, [])
    rep = verify_additive_W(g, h, 100.0)
    assert not rep.passed
    assert len(rep.violations) == 3
    assert all(v.kind == "unreachable" for v in rep.violations)


def test_additive_detects_violation_with_slack():
    g = four_cycle()
    h = g.subgraph({(0, 1), (1, 2), (2, 3)})
    rep = verify_additive_W(g, h, 1.0)  # bound 1+1=2 < 3
    assert not rep.passed
    (v,) = rep.violations
    assert (v.u, v.v) == (0, 3)
    assert v.d_h == 3.0 and v.d_g == 1.0
    assert v.slack == pytest.approx(1.0)
    assert rep.max_slack_ratio == pytest.approx(2.0)


def test_vertex_set_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        verify_additive_W(triangle_heavy(), WeightedGraph(2, []), 1.0)


def test_pair_class_restriction():
    g = four_cycle()
    h = g.subgraph({(0, 1), (1, 2), (2, 3)})
    rep = verify_additive_W(g, h, 1.0, pair_class=[0, 1, 2])
    assert rep.passed
    assert rep.pairs_checked == 3


def test_pair_class_empty_rejected():
    g = four_cycle()
    with pytest.raises(ValueError, match="subset must be nonempty"):
        verify_additive_W(g, g, 1.0, pair_class=[])


def test_pair_class_out_of_range_rejected():
    g = four_cycle()
    with pytest.raises(ValueError, match="subset vertex 999 out of range"):
        verify_additive_W(g, g, 1.0, pair_class=[0, 999])


def full_matrix_report(dist, W, dh: np.ndarray, bound, pairs) -> tuple[list, int, float]:
    """(violations, pairs checked, max slack ratio) of d_H <= bound(d_G, W),
    pair by pair over full n x n matrices, in the verifier's order:
    unreachable pairs first, then bound violations, each by (u, v).  The
    slack ratio is (d_H - d_G) / W."""
    unreachable, over, ratios = [], [], []
    checked = 0
    for u, v in pairs:
        dg, w, d = float(dist[u, v]), float(W[u, v]), float(dh[u, v])
        if not math.isfinite(dg):
            continue
        checked += 1
        if not math.isfinite(d):
            unreachable.append(Violation(u, v, dg, math.inf, w, math.inf, "unreachable"))
            continue
        b = bound(dg, w)
        if d - b > REL_TOL * max(1.0, abs(b)):
            over.append(Violation(u, v, dg, d, w, d - b))
        ratios.append((d - dg) / w)
    return unreachable + over, checked, max(ratios) if ratios else math.nan


@settings(max_examples=60, deadline=None)
@given(small_graphs(max_n=9), st.data())
def test_subset_report_matches_full_matrix_reference(g, data):
    keys = sorted(g.edge_keys())
    kept = data.draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)), label="kept")
    h = g.subgraph([k for k, keep in zip(keys, kept) if keep])
    S = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=g.n), label="S")
    c = data.draw(st.sampled_from([0.0, 0.5, 2.0]), label="c")
    rows = data.draw(st.sampled_from([1, 2, 3, None]), label="sources per block")
    idx = build_index(g)
    dh = brute_force_apsp(h)
    additive = lambda dg, w: dg + c * w  # noqa: E731
    cases = [
        (S, itertools.combinations(sorted(set(S)), 2), idx),
        (S, itertools.combinations(sorted(set(S)), 2), None),  # G's rows of S only
        (None, itertools.combinations(range(g.n), 2), idx),
    ]
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(wspan.shortest, "_sweep_rows", lambda n: rows)
        reports = [verify_additive_W(g, h, c, pair_class=p, idx=given) for p, _, given in cases]
    dist, W = canonical_rows(g)
    expected = [full_matrix_report(dist, W, dh, additive, pairs) for _, pairs, _ in cases]
    for rep, (violations, checked, ratio) in zip(reports, expected):
        assert rep.violations == violations
        assert rep.pairs_checked == checked
        assert rep.max_slack_ratio == ratio or (math.isnan(rep.max_slack_ratio) and math.isnan(ratio))


def counted_distance_matrix(monkeypatch, module=wspan.verify) -> list:
    """Record the sources of every distance computation made through
    module.distance_matrix: in wspan.verify, those on H."""
    calls = []
    real = module.distance_matrix

    def counting(csr, sources=None, *args):
        calls.append(None if sources is None else list(sources))
        return real(csr, sources, *args)

    monkeypatch.setattr(module, "distance_matrix", counting)
    return calls


def test_emulator_certify_runs_one_apsp_on_h(monkeypatch, medium_gnp):
    g = medium_gnp
    idx = build_index(g)
    res = build_4w_emulator(g, seed=3, idx=idx)
    h = res.to_graph()
    calls = counted_distance_matrix(monkeypatch)
    assert verify_non_contracting(g, h, idx=idx).passed
    assert calls == []  # the lower bound reads one index entry per H edge
    monkeypatch.setattr(wspan.shortest, "_sweep_rows", lambda n: 7)
    certify = ALGOS["emulator4w"].certify
    reports = certify(g, h, {}, idx=idx, subset=None)
    assert len(calls) == math.ceil(g.n / 7)
    assert [s for srcs in calls for s in srcs] == list(range(g.n))
    del calls[:]
    again = certify(g, h, {}, idx=idx, subset=None)
    assert [s for srcs in calls for s in srcs] == list(range(g.n))
    fresh = certify(g, res.to_graph(), {}, idx=idx, subset=None)
    assert [r.to_dict() for r in reports] == [r.to_dict() for r in again]
    assert [r.to_dict() for r in reports] == [r.to_dict() for r in fresh]


def test_subset_certify_asks_for_subset_sources_only(monkeypatch, medium_gnp):
    g = medium_gnp
    S = [3, 17, 4, 40, 17]
    calls = counted_distance_matrix(monkeypatch)
    monkeypatch.setattr(wspan.shortest, "_sweep_rows", lambda n: 3)
    reports = ALGOS["subsetwise"].certify(g, g.subgraph([]), {"eps": 0.5}, idx=build_index(g), subset=S)
    assert calls == [[3, 4, 17], [40]]
    assert [s for srcs in calls for s in srcs] == sorted(set(S))
    assert reports[0].pairs_checked == 6


def test_emulator_certify_memory_stays_within_block_budget():
    g = generate(GenSpec(family="geometric", n=400, radius=0.12, seed=3, keep_lcc=True))
    assert g.n > 300
    idx = build_index(g)
    h = build_4w_emulator(g, seed=1, idx=idx).to_graph()
    certify = ALGOS["emulator4w"].certify
    certify(g, h, {}, idx=idx, subset=None)  # warm up lazy imports and caches
    csr = h.csr()
    csr_bytes = csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        certify(g, h, {}, idx=idx, subset=None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # slack: H's edge list and arrays, the reports
    assert peak - base < _BLOCK_BYTES + csr_bytes + (1 << 20)


def test_subset_check_without_index_builds_no_full_index(monkeypatch, medium_grid):
    g = medium_grid  # unit weights: every source ties
    h = g.subgraph(sorted(g.edge_keys())[::2])
    S = [40, 3, 17, 3, 25]
    expected = verify_additive_W(g, h, 2.5, pair_class=S, idx=build_index(g)).to_dict()
    assert not expected["passed"]
    rows = forbid_full_index(monkeypatch)
    assert verify_additive_W(g, h, 2.5, pair_class=S).to_dict() == expected
    # one tree_rows call for the block; 40, last in S, has no pair to check
    assert rows == [[3, 17, 25]] and expected["w_rows"] == 3


@pytest.mark.parametrize("family", ["geometric", "gnp"])
def test_additive_check_without_index_peaks_below_8_mib(family):
    g = sparse_800(family)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert verify_additive_W(g, g, 7.0).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # G's rows are read a sweep block at a time; all of them are 16 * n^2 bytes
    assert peak - base < 8 << 20


def test_non_contraction_without_index_builds_no_full_index(monkeypatch, medium_gnp):
    g = medium_gnp
    idx = build_index(g)
    # every third edge halved: contractions, some sharing a tail
    h = lowered(build_4w_emulator(g, seed=3, idx=idx).to_graph())
    a = h.edge_arrays()[0]
    expected = verify_non_contracting(g, h, idx=idx)
    assert len({v.u for v in expected.violations}) < len(expected.violations)
    calls = counted_distance_matrix(monkeypatch, wspan.shortest)
    rows = forbid_full_index(monkeypatch)
    monkeypatch.setattr(wspan.shortest, "_sweep_rows", lambda n: 7)
    got = verify_non_contracting(g, h)
    assert got.violations == expected.violations and got.to_dict() == expected.to_dict()
    tails = np.unique(a).tolist()
    bad = sorted({v.u for v in expected.violations})
    # d_G of H's edges from their tails, then G's rows of the violations' tails,
    # each in blocks of 7
    blocks = [bad[i : i + 7] for i in range(0, len(bad), 7)]
    assert len(blocks) > 1
    assert calls == [tails[i : i + 7] for i in range(0, len(tails), 7)] + blocks
    assert rows == blocks


def lowered(g: WeightedGraph, every: int = 3) -> WeightedGraph:
    """g with every every-th edge at half its weight: pairs with d_H < d_G."""
    a, b, w = g.edge_arrays()
    return WeightedGraph(g.n, zip(a.tolist(), b.tolist(), np.where(np.arange(g.m) % every, w, w / 2).tolist()))


@st.composite
def sweep_cases(draw):
    """(G, H): G from mixed_graphs or buying_graphs, or with no edges at all
    (no connected pair); H a random subgraph of G (d_H >= d_G, and pairs it
    cuts apart are unreachable), G's +4W emulator, G with some weights
    halved (d_H < d_G), or G itself."""
    g = draw(st.one_of(mixed_graphs(), buying_graphs))
    if draw(st.integers(0, 9)) == 0:
        g = WeightedGraph(g.n, [])
    kind = draw(st.sampled_from(["subgraph", "emulator", "lowered", "copy"]))
    if kind == "subgraph":
        keys = sorted(g.edge_keys())
        kept = draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
        return g, g.subgraph([k for k, keep in zip(keys, kept) if keep])
    if kind == "emulator":
        return g, build_4w_emulator(g, seed=draw(st.integers(0, 3))).to_graph()
    if kind == "lowered":
        return g, lowered(g, draw(st.integers(1, 3)))
    return g, g


def same_report(got, want) -> None:
    """Equal reports but for w_rows and h_rows, max_slack_ratio bit for bit."""
    assert got.violations == want.violations
    assert {**got.to_dict(), "w_rows": 0, "h_rows": 0} == want.to_dict()
    assert np.float64(got.max_slack_ratio).tobytes() == np.float64(want.max_slack_ratio).tobytes()


@settings(max_examples=200, deadline=None)
@given(sweep_cases(), st.data())
def test_sweep_matches_the_all_rows_reference(gh, data):
    g, h = gh
    c = data.draw(st.sampled_from([0.0, 0.5, 2.0, 4.0, 7.0]), label="c")
    S = data.draw(st.none() | st.lists(st.integers(0, g.n - 1), min_size=1, max_size=g.n), label="S")
    rows = data.draw(st.integers(1, 3), label="sources per block")
    idx = build_index(g) if data.draw(st.booleans(), label="indexed") else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wspan.shortest, "_sweep_rows", lambda n: rows)
        got = verify_additive_W(g, h, c, pair_class=S, idx=idx)
        want = sweep_reference(g, h, c, S, idx)
    same_report(got, want)
    assert 0 <= got.w_rows <= (g.n if S is None else len(set(S)))


def test_sweep_matches_the_all_rows_reference_on_each_case():
    g = generate(GenSpec(family="gnp", n=40, p=0.15, wmodel="uniform", seed=4))
    idx = build_index(g)
    d_g = distance_matrix(g.csr())
    emulator = build_4w_emulator(g, seed=2, idx=idx).to_graph()
    spanner = build_6eps_spanner(g, 1.0, idx=idx).to_graph(g)
    cut = g.subgraph(sorted(g.edge_keys())[::2])
    cases = {
        # x < 0: the emulator's float sums fall below d_G on some pairs
        "emulator": (emulator, lambda d: (d < d_g).any()),
        "lowered": (lowered(g), lambda d: (d < d_g).any()),
        "spanner": (spanner, lambda d: (d >= d_g).all()),  # x >= 0
        "cut": (cut, lambda d: (np.isinf(d) & np.isfinite(d_g)).any()),  # unreachable pairs
    }
    for name, (h, holds) in cases.items():
        assert holds(distance_matrix(h.csr())), name
        for rows in (1, 2, 3, None):
            with pytest.MonkeyPatch.context() as mp:
                if rows is not None:
                    mp.setattr(wspan.shortest, "_sweep_rows", lambda n: rows)
                for given, c in itertools.product((idx, None), (0.0, 2.0, 4.0, 7.0)):
                    got = verify_additive_W(g, h, c, idx=given)
                    same_report(got, sweep_reference(g, h, c, idx=given))
                    assert got.w_rows < g.n, name
    # no connected pair: nothing checked, and the ratio is NaN
    empty = WeightedGraph(g.n, [])
    got = verify_additive_W(empty, empty, 2.0)
    same_report(got, sweep_reference(empty, empty, 2.0))
    assert got.pairs_checked == 0 and math.isnan(got.max_slack_ratio) and got.w_rows == 0


def test_sweep_runs_dijkstra_on_h_only_where_h_shares_no_row_of_g(monkeypatch):
    g = generate(GenSpec(family="gnp", n=40, p=0.15, wmodel="uniform", seed=4))
    h = build_6eps_spanner(g, 1.0).to_graph(g)
    d_g, d_h = distance_matrix(g.csr()), distance_matrix(h.csr())
    # the rows where H's distances are not G's, bit for bit
    apart = np.flatnonzero((d_h != d_g).any(axis=1)).tolist()
    assert 0 < len(apart) < g.n
    S = list(range(0, g.n, 3))
    want = [sweep_reference(g, h, 7.0), sweep_reference(g, h, 7.0, S)]
    calls = counted_distance_matrix(monkeypatch)
    monkeypatch.setattr(wspan.shortest, "_sweep_rows", lambda n: 7)
    for pair_class, ref, rows in ((None, want[0], apart), (S, want[1], [u for u in apart if u in S])):
        del calls[:]
        got = verify_additive_W(g, h, 7.0, pair_class=pair_class)
        same_report(got, ref)
        assert [s for srcs in calls for s in srcs] == rows and got.h_rows == len(rows)


def test_w_rows_counts_on_a_fixed_instance():
    # the rows whose W was computed, in the reports and the builders' stats,
    # on the benchmark's gnp-uniform n = 128 instance at seed 1
    g = generate(GenSpec(family="gnp", n=128, p=2 * math.sqrt(128) / 127, wmodel="uniform", seed=1128))
    idx = build_index(g)
    S = list(range(0, 128, 11))
    sixw = build_6eps_spanner(g, 1.0, idx=idx)
    poly = build_poly_spanner(g, 0.5, idx=idx)
    subset = build_subsetwise_spanner(g, S, 0.5, idx=idx)
    emulator = build_4w_emulator(g, seed=1, idx=idx).to_graph()
    counts = {
        "6w build": sixw.stats["w_rows"],
        "poly build": poly.stats["w_rows"],
        "subset build": subset.stats["w_rows"],
        "6w verify": verify_additive_W(g, sixw.to_graph(g), 7.0, idx=idx).w_rows,
        "poly verify": verify_additive_W(g, poly.to_graph(g), poly.params["stretch_factor"], idx=idx).w_rows,
        "subset verify": verify_additive_W(g, subset.to_graph(g), 2.5, pair_class=S, idx=idx).w_rows,
        "emulator verify": verify_additive_W(g, emulator, 4.0, idx=idx).w_rows,
        "lowered non-contraction": verify_non_contracting(g, lowered(g), idx=idx).w_rows,
    }
    # no candidate pass needs W here; 6w's check at c = 7 needs it on a
    # quarter of the rows, where (d_H - d_G) / L may beat the ratio found;
    # poly's spanner shares every row of G, whose ratios are all 0 without W
    assert counts == {
        "6w build": 0,
        "poly build": 0,
        "subset build": 0,
        "6w verify": 33,
        "poly verify": 0,
        "subset verify": 4,
        "emulator verify": 1,
        "lowered non-contraction": 102,
    }


# -------------------------------------------------------- multiplicative


def test_multiplicative_identity():
    g = four_cycle()
    assert verify_multiplicative(g, g, 1.0).passed


def test_multiplicative_cycle_minus_edge():
    g = four_cycle()
    h = g.subgraph({(0, 1), (1, 2), (2, 3)})
    assert verify_multiplicative(g, h, 3.0).passed
    rep = verify_multiplicative(g, h, 2.0)
    assert [((v.u, v.v), v.d_h) for v in rep.violations] == [((0, 3), 3.0)]


def test_multiplicative_check_reads_no_w(monkeypatch, medium_grid):
    g = medium_grid  # unit weights: every source ties
    h = greedy_multiplicative(g, 2).to_graph(g)
    fails = g.subgraph(sorted(g.edge_keys())[::2])
    idx = build_index(g)
    reports = [verify_multiplicative(g, x, 3.0, idx=idx) for x in (h, fails)]
    assert reports[0].passed and not reports[1].passed
    expected = [r.to_dict() for r in reports]
    rows = forbid_full_index(monkeypatch)
    monkeypatch.setattr(wspan.shortest, "_sweep_rows", lambda n: 5)
    for given in (idx, None):
        del rows[:]
        assert verify_multiplicative(g, h, 3.0, idx=given).to_dict() == expected[0]
        assert rows == []
        # a failing check reads W for the reports, on the rows holding violations only
        assert verify_multiplicative(g, fails, 3.0, idx=given).to_dict() == expected[1]
        hit = sorted({v.u for v in reports[1].violations})
        assert sorted(s for r in rows for s in r) == hit and expected[1]["w_rows"] == len(hit)


def pairwise_multiplicative(dist, W, dh: np.ndarray, alpha: float) -> tuple[dict, float]:
    """({(u, v): violation}, max d_H / d_G) of d_H <= alpha * d_G, pair by
    pair over full n x n matrices; the ratio over the pairs H connects."""
    bad, ratios = {}, []
    for u, v in itertools.combinations(range(len(dh)), 2):
        dg, w, d = float(dist[u, v]), float(W[u, v]), float(dh[u, v])
        if not math.isfinite(dg):
            continue
        if not math.isfinite(d):
            bad[u, v] = Violation(u, v, dg, math.inf, w, math.inf, "unreachable")
            continue
        if d - alpha * dg > REL_TOL * max(1.0, alpha * dg):
            bad[u, v] = Violation(u, v, dg, d, w, d - alpha * dg)
        ratios.append(d / dg)
    return bad, max(ratios, default=math.nan)


@st.composite
def multiplicative_candidates(draw):
    """(G, H): G a union of one or two small graphs, each with its own
    weight set (unit, integer, decimal or continuous), so possibly
    disconnected; H a random subgraph of G, an emulator output, a greedy
    multiplicative spanner or a copy of G."""
    g = draw(mixed_graphs())
    kind = draw(st.sampled_from(["subgraph", "emulator", "greedy", "copy"]))
    if kind == "subgraph":
        keys = sorted(g.edge_keys())
        kept = draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
        h = g.subgraph([k for k, keep in zip(keys, kept) if keep])
    elif kind == "emulator":
        h = build_4w_emulator(g, seed=draw(st.integers(0, 3))).to_graph()
    elif kind == "greedy":
        h = greedy_multiplicative(g, draw(st.integers(1, 3))).to_graph(g)
    else:
        h = WeightedGraph(g.n, g.edge_items())
    return g, h


# decimal weights whose path sums round apart: d_H(1, 4) = 1.2000000000000002
# over d_G(1, 4) = 1.2, though every edge of either path has ratio exactly 1
_ROUNDED_APART = [(0, 5, 0.1), (0, 6, 0.1), (1, 6, 0.1), (2, 3, 0.1), (2, 4, 0.1), (3, 4, 0.2), (3, 5, 0.7)]


@settings(max_examples=200, deadline=None)
@given(multiplicative_candidates(), st.sampled_from([1.0, 1.5, 3.0, 5.0]), st.integers(1, 3), st.booleans())
@example(
    gh=(WeightedGraph(7, _ROUNDED_APART), WeightedGraph(7, [e for e in _ROUNDED_APART if e[:2] != (3, 4)])),
    alpha=1.0,
    rows=1,
    indexed=False,
)
def test_edgewise_multiplicative_matches_pairwise_reference(gh, alpha, rows, indexed):
    g, h = gh
    idx = build_index(g)
    dh = wspan.shortest.distance_matrix(h.csr())
    bad, ratio = pairwise_multiplicative(*canonical_rows(g), dh, alpha)
    searched = []
    real = wspan.shortest._sp_dijkstra

    def dijkstra(csr, *args, **kwargs):
        searched.append(csr)
        return real(csr, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        # H's searches and G's rows of the failing edges' tails, `rows` sources at a time
        mp.setattr(wspan.shortest, "_sweep_rows", lambda n: rows)
        mp.setattr(wspan.shortest, "_sp_dijkstra", dijkstra)
        rep = verify_multiplicative(g, h, alpha, idx=idx if indexed else None)
    assert rep.passed == (not bad)
    assert rep.pairs_checked == g.m
    if rep.passed:
        assert all(csr is not g.csr() for csr in searched)  # G's edges alone
    for viol in rep.violations:
        ref = bad[viol.u, viol.v]
        assert g.has_edge(viol.u, viol.v) and viol.kind == ref.kind
        assert (viol.d_g, viol.d_h, viol.w_heavy, viol.slack) == (ref.d_g, ref.d_h, ref.w_heavy, ref.slack)
    # the largest d_H(a, b) / w(a, b) over G's edges that H connects, bit for bit
    a, b, w = g.edge_arrays()
    reach = np.isfinite(dh[a, b])
    on_edges = float((dh[a, b][reach] / w[reach]).max()) if reach.any() else math.nan
    assert np.float64(rep.max_slack_ratio).tobytes() == np.float64(on_edges).tobytes()
    # an edge is a pair with d_G <= w, so no pair's ratio falls below it
    assert math.isnan(rep.max_slack_ratio) or rep.max_slack_ratio <= ratio
    if np.isfinite(dh[np.isfinite(idx)]).all():  # H connects every pair G does
        assert math.isnan(rep.max_slack_ratio) == math.isnan(ratio)
        if all((x.edge_arrays()[2] % 1 == 0).all() for x in (g, h)):
            # integer weights: every path sum is exact, so the pairs' largest
            # ratio is the edges' one, bit for bit
            assert rep.max_slack_ratio == ratio or math.isnan(ratio)
        else:
            # d_H and d_G are float sums along different paths, which can
            # round apart (_ROUNDED_APART)
            assert math.isnan(ratio) or ratio <= rep.max_slack_ratio * (1 + REL_TOL)


def test_multiplicative_tolerance_applies_per_edge():
    # 0.1 + 0.2 rounds above 0.3: within the tolerance of the edge (0, 2)
    g = WeightedGraph(3, [(0, 1, 0.1), (1, 2, 0.2), (0, 2, 0.3)])
    rep = verify_multiplicative(g, g.subgraph({(0, 1), (1, 2)}), 1.0)
    assert rep.passed and rep.pairs_checked == 3
    assert rep.max_slack_ratio == (0.1 + 0.2) / 0.3 > 1.0


def test_multiplicative_rejects_alpha_below_one():
    with pytest.raises(ValueError):
        verify_multiplicative(four_cycle(), four_cycle(), 0.5)


# ------------------------------------------------------------- subgraph


def test_subgraph_checks():
    g = triangle_heavy()
    assert verify_subgraph(g, g)
    rew = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.5), (0, 2, 5.0)])
    assert not verify_subgraph(g, rew)
    extra = WeightedGraph(3, [(0, 1, 1.0)])
    assert verify_subgraph(g, extra)
    assert not verify_subgraph(g, WeightedGraph(4, [(0, 1, 1.0)]))  # another vertex set
    assert verify_subgraph(g, WeightedGraph(3, []))
    triangle = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    assert not verify_subgraph(extra, triangle)  # edges g lacks
    # an edge g lacks next to one of g's with the same larger endpoint
    assert not verify_subgraph(WeightedGraph(6, [(2, 5, 1.0)]), WeightedGraph(6, [(1, 5, 1.0)]))


@settings(max_examples=100, deadline=None)
@given(g=mixed_graphs(), data=st.data())
def test_subgraph_check_matches_its_per_edge_definition(g, data):
    # h: some of g's edges, perhaps one reweighted, a pair g lacks, another vertex set
    keep = data.draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m))
    edges = [e for e, k in zip(g.edge_items(), keep) if k]
    if edges and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(edges) - 1))
        u, v, w = edges[i]
        edges[i] = (u, v, data.draw(st.sampled_from([w, w + 1.0, w * (1 + 2**-52)])))
    missing = [p for p in itertools.combinations(range(g.n), 2) if not g.has_edge(*p)]
    if missing and data.draw(st.booleans()):
        edges.append((*data.draw(st.sampled_from(missing)), 1.0))
    h = WeightedGraph(g.n + data.draw(st.sampled_from([0, 0, 1])), edges)
    expected = h.n == g.n and all(g.has_edge(u, v) and g.weight(u, v) == w for u, v, w in h.edge_items())
    assert verify_subgraph(g, h) is expected


# ------------------------------------------------------- non-contracting


def test_non_contracting_identity_and_equality_edge():
    g = triangle_heavy()
    assert verify_non_contracting(g, g).passed
    h = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 2.0)])  # virtual at d_G
    assert verify_non_contracting(g, h).passed


def test_non_contracting_planted_violation():
    g = triangle_heavy()
    h = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])  # 0.5 * d_G(0,2)
    rep = verify_non_contracting(g, h)
    assert not rep.passed
    assert [(v.u, v.v) for v in rep.violations] == [(0, 2)]
    assert rep.violations[0].kind == "contraction"


def test_non_contracting_flags_false_connection():
    g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    h = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0), (1, 2, 9.0)])
    rep = verify_non_contracting(g, h)
    assert not rep.passed
    assert all(v.kind == "contraction" and math.isinf(v.d_g) for v in rep.violations)


@st.composite
def lower_bound_candidates(draw):
    """(G, H) with H drawn around G's distances: some of G's edges, a few
    with lowered weights, virtual edges at exactly d_G, and edges across
    G's components.  Integer and half weights keep every sum exact."""
    g = draw(small_graphs(max_n=8))
    d = brute_force_apsp(g)
    edges = []
    for u, v, w in g.edge_items():
        kind = draw(st.sampled_from(["keep", "drop", "lower"]))
        if kind != "drop":
            edges.append((u, v, w - 0.5 if kind == "lower" else w))
    for u, v in itertools.combinations(range(g.n), 2):
        if not g.has_edge(u, v) and draw(st.integers(0, 3)) == 0:
            w = float(d[u, v]) if math.isfinite(d[u, v]) else float(draw(st.integers(1, 9)))
            edges.append((u, v, w))
    return g, WeightedGraph(g.n, edges)


@settings(max_examples=150, deadline=None)
@given(lower_bound_candidates(), st.integers(min_value=1, max_value=3))
def test_edgewise_non_contraction_matches_pairwise_reference(gh, rows):
    g, h = gh
    dg, dh = brute_force_apsp(g), brute_force_apsp(h)

    def contracted(u, v):
        if not math.isfinite(dg[u, v]):
            return math.isfinite(dh[u, v])
        return dg[u, v] - dh[u, v] > REL_TOL * max(1.0, dg[u, v])

    bad_pairs = {(u, v) for u, v in itertools.combinations(range(g.n), 2) if contracted(u, v)}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wspan.shortest, "_sweep_rows", lambda n: rows)
        rep = verify_non_contracting(g, h)
    # the index-free report, from tail blocks of `rows` sources, equals the indexed one
    indexed = verify_non_contracting(g, h, idx=build_index(g))
    assert rep.violations == indexed.violations and rep.to_dict() == indexed.to_dict()
    assert rep.passed == (not bad_pairs)
    assert rep.pairs_checked == h.m and math.isnan(rep.max_slack_ratio)
    for viol in rep.violations:
        assert (viol.u, viol.v) in bad_pairs
        assert viol.kind == "contraction" and viol.d_h == h.weight(viol.u, viol.v)
        assert viol.d_g == dg[viol.u, viol.v]


def test_bounds_must_be_finite_numbers():
    g = WeightedGraph(6, [(i, (i + 1) % 6, 1.0) for i in range(6)])
    h = g.subgraph([(i, i + 1) for i in range(5)])  # slack ratio 4 on (0, 5)
    assert not verify_multiplicative(g, h, 2.0).passed
    for alpha in (math.nan, math.inf, 0.5):
        with pytest.raises(ValueError, match="alpha must be finite and >= 1"):
            verify_multiplicative(g, h, alpha)
    for c in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="c must be finite and >= 0"):
            verify_additive_W(g, h, c)
        with pytest.raises(ValueError, match="c must be finite and >= 0"):
            verify_additive_W(g, h, c, pair_class=[0, 5])


def test_report_json_has_no_non_finite_numbers():
    g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    reports = [
        verify_additive_W(g, WeightedGraph(4, []), 1.0),  # unreachable pairs
        verify_non_contracting(g, WeightedGraph(4, [(1, 2, 9.0)])),  # across components
    ]
    assert all(not r.passed for r in reports)
    for rep in reports:
        d = rep.to_dict()
        assert d["max_slack_ratio"] is None
        for v in d["violations"]:
            if v["kind"] == "unreachable":
                assert v["d_h"] is None and v["slack"] is None and v["w_heavy"] == 1.0
            else:
                assert v["d_g"] is None and v["w_heavy"] is None and v["slack"] is None
                assert v["d_h"] == 9.0


# ------------------------------------------------------------ properties


@settings(max_examples=40, deadline=None)
@given(small_graphs(max_n=9, integer_weights=False))
def test_self_verification_at_c0(g):
    assert verify_additive_W(g, g, 0.0).passed


@settings(max_examples=20, deadline=None)
@given(small_graphs(max_n=8))
def test_adding_edges_weakly_improves(g):
    keys = sorted(g.edge_keys())
    half = g.subgraph(keys[: len(keys) // 2])
    full = g
    rep_half = verify_additive_W(g, half, 3.0)
    rep_full = verify_additive_W(g, full, 3.0)
    assert len(rep_full.violations) <= len(rep_half.violations)
    if not math.isnan(rep_full.max_slack_ratio) and not math.isnan(rep_half.max_slack_ratio):
        assert rep_full.max_slack_ratio <= rep_half.max_slack_ratio + 1e-12


@settings(max_examples=30, deadline=None)
@given(small_graphs(max_n=10))
def test_canonical_w_vs_minimax_w_gap(g):
    """Cross-check: the canonical path's heaviest edge against the minimum
    achievable over all shortest paths.  The canonical value can exceed the
    minimax one (making verified bounds conservative in the loose direction);
    this measures the gap instead of assuming it away."""
    idx = build_index(g)
    W = canonical_rows(g)[1]
    mm = minimax_path_weight(g, idx=idx)
    finite = np.isfinite(idx)
    assert (W[finite] >= mm[finite] - 1e-12).all()


# ------------------------------------------------------------ scaling fit


def test_fit_recovers_power_law():
    data = [(n, round(n ** (4.0 / 3.0))) for n in (64, 128, 256, 512)]
    assert size_scaling_fit(data) == pytest.approx(4.0 / 3.0, abs=1e-3)


def test_fit_linear_and_constant():
    assert size_scaling_fit([(n, 3 * n) for n in (10, 100, 1000)]) == pytest.approx(1.0, abs=1e-9)
    assert size_scaling_fit([(n, 7) for n in (10, 100, 1000)]) == pytest.approx(0.0, abs=1e-9)


def test_fit_needs_three_sizes():
    with pytest.raises(ValueError):
        size_scaling_fit([(10, 5), (20, 9)])
    with pytest.raises(ValueError):
        size_scaling_fit([(10, 5), (10, 7), (20, 9)])
