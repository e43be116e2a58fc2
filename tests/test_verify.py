import math

import numpy as np
import pytest
from hypothesis import given, settings

from wspan import (
    WeightedGraph,
    build_index,
    size_scaling_fit,
    verify_additive_W,
    verify_multiplicative,
    verify_non_contracting,
    verify_subgraph,
)
from wspan.verify import minimax_path_weight

from conftest import small_graphs


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


def test_pair_class_out_of_range_rejected():
    g = four_cycle()
    with pytest.raises(ValueError, match="subset vertex 999 out of range"):
        verify_additive_W(g, g, 1.0, pair_class=[0, 999])


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
