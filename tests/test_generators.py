import math
import re

import numpy as np
import pytest

from wspan import GenSpec, WeightedGraph, generate, generators


def test_path_family():
    g = generate(GenSpec(family="path", n=5))
    assert g.n == 5 and g.m == 4
    assert all(w == 1.0 for _, _, w in g.edge_items())


def test_complete_family():
    g = generate(GenSpec(family="complete", n=4))
    assert g.m == 6


def test_star_family():
    g = generate(GenSpec(family="star", n=7, wmodel="uniform", seed=1))
    assert g.m == 6
    assert all(u == 0 for u, _, _ in g.edge_items())


def test_grid_dims():
    g = generate(GenSpec(family="grid", n=12, rows=3, cols=4))
    assert g.n == 12
    assert g.m == 3 * 3 + 2 * 4  # horizontal + vertical runs


def test_grid_has_exactly_the_specs_vertex_count():
    # one side given: the other is n divided by it
    assert generate(GenSpec(family="grid", n=12, rows=3)) == generate(GenSpec(family="grid", n=12, rows=3, cols=4))
    assert generate(GenSpec(family="grid", n=12, cols=4)) == generate(GenSpec(family="grid", n=12, rows=3, cols=4))
    # neither given: a square
    assert generate(GenSpec(family="grid", n=16)) == generate(GenSpec(family="grid", n=16, rows=4, cols=4))
    for spec, why in (
        (GenSpec(family="grid", n=10, rows=3, cols=4), "differs from rows\\*cols = 3\\*4 = 12"),
        (GenSpec(family="grid", n=10, rows=3), "is not a multiple of rows=3"),
        (GenSpec(family="grid", n=10, cols=4), "is not a multiple of cols=4"),
        (GenSpec(family="grid", n=10), "is not a perfect square"),
        (GenSpec(family="grid", n=10, rows=0), "rows must be an integer >= 1"),
        (GenSpec(family="grid", n=10, rows=5, cols=-2), "cols must be an integer >= 1"),
        (GenSpec(family="grid", n=10, rows=2.5), "rows must be an integer >= 1, got 2.5"),
    ):
        with pytest.raises(ValueError, match=f"^grid .*{why}"):
            generate(spec)


def test_tree_family_edge_count_and_branching():
    g = generate(GenSpec(family="tree", n=30, seed=5))
    assert g.m == 29
    b = generate(GenSpec(family="tree", n=30, branching=2, seed=5))
    assert b.m == 29
    child_count = [0] * 30
    for u, v, _ in b.edge_items():
        child_count[min(u, v)] += 1
    assert max(child_count) <= 2


def test_gnp_determinism():
    spec = GenSpec(family="gnp", n=100, p=0.1, wmodel="uniform", seed=7)
    assert generate(spec) == generate(spec)
    other = generate(GenSpec(family="gnp", n=100, p=0.1, wmodel="uniform", seed=8))
    assert generate(spec) != other


def test_weight_bounds_respected():
    for wmodel, wmax in (("uniform", 50.0), ("exp-spread", 200.0)):
        g = generate(GenSpec(family="gnp", n=60, p=0.2, wmodel=wmodel, wmax=wmax, seed=3))
        ws = [w for _, _, w in g.edge_items()]
        assert min(ws) >= 1.0
        assert max(ws) <= wmax


def test_geometric_weights_rescaled_to_min_one():
    g = generate(GenSpec(family="geometric", n=40, radius=0.35, seed=9))
    ws = [w for _, _, w in g.edge_items()]
    assert min(ws) == 1.0
    assert g.m > 0


def dense_close_pairs(pts: np.ndarray, r: float):
    """(i, j, length) of the pairs i < j within r, from the full n x n distance matrix."""
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    iu, iv = np.triu_indices(len(pts), k=1)
    mask = d[iu, iv] <= r
    return iu[mask], iv[mask], d[iu, iv][mask]


@pytest.mark.parametrize("block_bytes", [48 * 300, 3 * 48 * 300, None])
def test_geometric_row_blocks_match_dense_formula(block_bytes, monkeypatch):
    if block_bytes is not None:  # 1 and 3 rows per block at n = 300
        monkeypatch.setattr(generators, "_BLOCK_BYTES", block_bytes)
    for n in (1, 2, 57, 300):
        for seed in range(3):
            pts = np.random.default_rng(np.random.SeedSequence(seed)).random((n, 2))
            # a typical radius, one that spans all pairs, one below every distance
            for r in (0.15, 2.0, 1e-9):
                got = generators._close_pairs(pts, r)
                want = dense_close_pairs(pts, r)
                assert all(np.array_equal(x, y) for x, y in zip(got, want)), (n, seed, r)
                i, j, lengths = want
                w = (lengths / lengths.min()).tolist() if len(lengths) else []
                g = generate(GenSpec(family="geometric", n=n, radius=r, seed=seed))
                assert g == WeightedGraph(n, zip(i.tolist(), j.tolist(), w))
                if r == 2.0:
                    assert g.m == n * (n - 1) // 2
                elif r == 1e-9:
                    assert g.m == 0


def dense_gnp_pairs(n: int, p: float, seed: int):
    """(i, j, rng): the kept pairs from one draw of all n(n-1)/2 uniforms, and
    the generator, where the weight draws start."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    iu, iv = np.triu_indices(n, k=1)
    mask = rng.random(len(iu)) < p
    return iu[mask], iv[mask], rng


@pytest.mark.parametrize("block_bytes", [48 * 300, 3 * 48 * 300, None])
def test_gnp_row_blocks_match_dense_draw(block_bytes, monkeypatch):
    if block_bytes is not None:  # 1 and 3 rows per block at n = 300
        monkeypatch.setattr(generators, "_BLOCK_BYTES", block_bytes)
    for n in (1, 2, 57, 300):
        for seed in range(3):
            for p in (0.0, 0.1, 1.0):
                i, j, rng = dense_gnp_pairs(n, p, seed)
                w = rng.uniform(1.0, 100.0, size=len(i))  # the weights follow in the same stream
                g = generate(GenSpec(family="gnp", n=n, p=p, wmodel="uniform", seed=seed))
                assert g == WeightedGraph(n, zip(i.tolist(), j.tolist(), w.tolist())), (n, seed, p)
                if p == 1.0:
                    assert g.m == n * (n - 1) // 2


def test_keep_lcc_yields_connected_graph():
    from conftest import brute_force_apsp

    spec = GenSpec(family="gnp", n=60, p=0.03, seed=2, keep_lcc=True)
    g = generate(spec)
    assert g.n <= 60
    d = brute_force_apsp(g)
    assert all(math.isfinite(d[0][v]) for v in range(g.n))
    # edgeless inputs keep one vertex, whatever the family
    for spec in (
        GenSpec(family="geometric", n=5, radius=1e-9, keep_lcc=True, seed=1),
        GenSpec(family="gnp", n=5, p=0.0, keep_lcc=True, seed=1),
    ):
        assert generate(spec) == WeightedGraph(1, [])


def test_invalid_parameters():
    with pytest.raises(ValueError):
        generate(GenSpec(family="gnp", n=10))  # missing p
    with pytest.raises(ValueError):
        generate(GenSpec(family="gnp", n=10, p=1.5))
    with pytest.raises(ValueError):
        generate(GenSpec(family="geometric", n=10))  # missing radius
    with pytest.raises(ValueError):
        generate(GenSpec(family="ring", n=10))
    with pytest.raises(ValueError):
        generate(GenSpec(family="path", n=5, wmodel="zipf"))
    with pytest.raises(ValueError):
        generate(GenSpec(family="path", n=5, wmodel="uniform", wmax=0.5))


def test_generate_names_a_field_of_the_wrong_type():
    # the field check of GenSpec.from_dict, before numpy or a comparison raises TypeError
    for given, message in (
        ({"p": "x"}, "field 'p' must be float, got 'x'"),
        ({"p": 0.5, "seed": 1.5}, "field 'seed' must be int, got 1.5"),
        ({"p": 0.5, "wmodel": "uniform", "wmax": "9"}, "field 'wmax' must be float, got '9'"),
        ({"p": 0.5, "keep_lcc": "yes"}, "field 'keep_lcc' must be bool, got 'yes'"),
        ({"p": True}, "field 'p' must be float, got True"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate(GenSpec(family="gnp", n=8, **given))
    # numpy scalars are numbers of their field's type
    spec = GenSpec(family="gnp", n=np.int64(8), p=np.float64(0.5), seed=np.int64(3))
    assert generate(spec) == generate(GenSpec(family="gnp", n=8, p=0.5, seed=3))


def test_spec_round_trips_through_dict():
    spec = GenSpec(family="gnp", n=64, p=0.2, wmodel="exp-spread", wmax=30.0, seed=4)
    assert GenSpec.from_dict(spec.to_dict()) == spec
