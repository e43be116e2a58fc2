import pytest

from wspan import WeightedGraph


def test_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        WeightedGraph(3, [(1, 1, 2.0)])


def test_rejects_parallel_edge():
    with pytest.raises(ValueError, match="parallel"):
        WeightedGraph(3, [(0, 1, 1.0), (1, 0, 2.0)])


def test_rejects_nonpositive_weight():
    with pytest.raises(ValueError, match="non-positive"):
        WeightedGraph(2, [(0, 1, 0.0)])
    with pytest.raises(ValueError, match="non-positive"):
        WeightedGraph(2, [(0, 1, -3.0)])


def test_rejects_non_finite_weight():
    for w in (float("inf"), 1e308 * 10, float("nan")):
        with pytest.raises(ValueError, match="non-finite"):
            WeightedGraph(3, [(0, 1, w), (1, 2, 1.0)])


def test_rejects_out_of_range_vertex():
    with pytest.raises(ValueError, match="out of range"):
        WeightedGraph(2, [(0, 2, 1.0)])


def test_adjacency_and_degree():
    g = WeightedGraph(4, [(0, 1, 1.0), (0, 2, 2.0), (2, 3, 1.0)])
    assert g.adjacency()[0] == ((1, 1.0), (2, 2.0))
    assert g.degree(0) == 2
    assert g.degree(3) == 1
    assert g.weight(3, 2) == 1.0
    assert g.has_edge(1, 0) and not g.has_edge(1, 2)


def test_subgraph_keeps_weights():
    g = WeightedGraph(3, [(0, 1, 1.5), (1, 2, 2.5), (0, 2, 9.0)])
    h = g.subgraph({(0, 1), (2, 1)})
    assert h.m == 2
    assert h.weight(1, 2) == 2.5
    assert not h.has_edge(0, 2)

