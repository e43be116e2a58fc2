import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wspan.verify

from wspan import (
    GenSpec,
    WeightedGraph,
    build_4w_emulator,
    build_index,
    generate,
    size_scaling_fit,
    verify_additive_W,
    verify_multiplicative,
    verify_non_contracting,
    verify_subgraph,
)
from wspan.algos import ALGOS
from wspan.shortest import _BLOCK_BYTES
from wspan.verify import REL_TOL, Violation

from conftest import brute_force_apsp, forbid_full_index, minimax_path_weight, small_graphs, sparse_800


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


def test_additive_c_of_n_callable():
    g = four_cycle()
    h = g.subgraph({(0, 1), (1, 2), (2, 3)})
    rep = verify_additive_W(g, h, lambda n: float(n) / 2.0)  # c = 2
    assert rep.params["c"] == 2.0
    assert rep.passed  # d_H(0,3)=3 <= 1 + 2*1


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


def full_matrix_report(idx, dh: np.ndarray, bound, pairs) -> tuple[list, int, float]:
    """(violations, pairs checked, max slack ratio) of d_H <= bound(d_G, W),
    pair by pair over full n x n matrices, in the verifier's order:
    unreachable pairs first, then bound violations, each by (u, v)."""
    unreachable, over, ratios = [], [], []
    checked = 0
    for u, v in pairs:
        dg, w, d = float(idx.dist[u, v]), float(idx.W[u, v]), float(dh[u, v])
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
    alpha = data.draw(st.sampled_from([1.0, 1.5, 3.0]), label="alpha")
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
            mp.setattr(wspan.verify, "_sweep_rows", lambda n: rows)
        reports = [verify_additive_W(g, h, c, pair_class=p, idx=given) for p, _, given in cases]
        reports.append(verify_multiplicative(g, h, alpha, idx=idx))
    expected = [full_matrix_report(idx, dh, additive, pairs) for _, pairs, _ in cases]
    expected.append(
        full_matrix_report(idx, dh, lambda dg, w: alpha * dg, itertools.combinations(range(g.n), 2))
    )
    for rep, (violations, checked, ratio) in zip(reports, expected):
        assert rep.violations == violations
        assert rep.pairs_checked == checked
        assert rep.max_slack_ratio == ratio or (math.isnan(rep.max_slack_ratio) and math.isnan(ratio))


def counted_distance_matrix(monkeypatch) -> list:
    """Record the sources of every H distance computation the verifier makes."""
    calls = []
    real = wspan.verify.distance_matrix

    def counting(csr, sources=None):
        calls.append(None if sources is None else list(sources))
        return real(csr, sources)

    monkeypatch.setattr(wspan.verify, "distance_matrix", counting)
    return calls


def test_emulator_certify_runs_one_apsp_on_h(monkeypatch, medium_gnp):
    g = medium_gnp
    idx = build_index(g)
    res = build_4w_emulator(g, seed=3, idx=idx)
    h = res.to_graph()
    calls = counted_distance_matrix(monkeypatch)
    assert verify_non_contracting(g, h, idx=idx).passed
    assert calls == []  # the lower bound reads one index entry per H edge
    monkeypatch.setattr(wspan.verify, "_sweep_rows", lambda n: 7)
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
    monkeypatch.setattr(wspan.verify, "_sweep_rows", lambda n: 3)
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
    g = medium_grid  # unit weights: every source takes the tie rule
    h = g.subgraph(sorted(g.edge_keys())[::2])
    S = [40, 3, 17, 3, 25]
    expected = verify_additive_W(g, h, 2.5, pair_class=S, idx=build_index(g)).to_dict()
    assert not expected["passed"]
    rows = forbid_full_index(monkeypatch)
    assert verify_additive_W(g, h, 2.5, pair_class=S).to_dict() == expected
    assert rows == [sorted(set(S))]


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
    a, b, w = build_4w_emulator(g, seed=3, idx=idx).to_graph().edge_arrays()
    # every third edge halved: contractions, some sharing a tail
    h = WeightedGraph(g.n, zip(a.tolist(), b.tolist(), np.where(np.arange(len(w)) % 3, w, w / 2).tolist()))
    expected = verify_non_contracting(g, h, idx=idx)
    assert len({v.u for v in expected.violations}) < len(expected.violations)
    calls = counted_distance_matrix(monkeypatch)
    rows = forbid_full_index(monkeypatch)
    monkeypatch.setattr(wspan.verify, "_sweep_rows", lambda n: 7)
    got = verify_non_contracting(g, h)
    assert got.violations == expected.violations and got.to_dict() == expected.to_dict()
    tails = np.unique(a).tolist()
    assert calls == [tails[i : i + 7] for i in range(0, len(tails), 7)]
    assert rows == [sorted({v.u for v in expected.violations})]


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
        mp.setattr(wspan.verify, "_sweep_rows", lambda n: rows)
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
    for c in (math.nan, math.inf, -1.0, lambda n: math.nan):
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
    mm = minimax_path_weight(g, idx=idx)
    finite = np.isfinite(idx.dist)
    assert (idx.W[finite] >= mm[finite] - 1e-12).all()


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
