"""Acceptance suite: every headline guarantee, checked end to end.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion.  The corpus, the per-graph shortest-path indexes, and the built
spanners are session fixtures shared across criteria, so the whole module
stays within a few minutes on a laptop.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from wspan import (
    GenSpec,
    build_4w_emulator,
    build_6eps_spanner,
    build_index,
    build_poly_spanner,
    build_subsetwise_spanner,
    generate,
    greedy_multiplicative,
    size_scaling_fit,
    verify_multiplicative,
)
from wspan.algos import ALGOS
from wspan.greedy import multiplicative_k_for, poly_stretch_factor

from conftest import brute_force_apsp, canonical_paths


def _pline(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


# --------------------------------------------------------------- fixtures


def corpus_specs() -> list[tuple[str, GenSpec]]:
    """>= 50 graphs: gnp/grid/geometric, n in [20, 300], all weight models."""
    specs: list[tuple[str, GenSpec]] = []
    wmodels = ("unit", "uniform", "exp-spread")
    for i, n in enumerate((20, 40, 70, 100, 150, 220, 300)):
        for j, wm in enumerate(wmodels):
            p = min(0.9, math.sqrt(n) / (n - 1))
            specs.append(
                (f"gnp{n}-{wm}", GenSpec(family="gnp", n=n, p=p, wmodel=wm, seed=10 * i + j))
            )
    for i, n in enumerate((24, 48, 96, 192, 288)):
        p = min(0.9, 2.0 * math.sqrt(n) / (n - 1))
        wm = wmodels[i % 3]
        specs.append((f"gnpd{n}-{wm}", GenSpec(family="gnp", n=n, p=p, wmodel=wm, seed=100 + i)))
    for i, n in enumerate((30, 60, 90, 130, 170, 260)):
        p = min(0.9, 1.4 * math.sqrt(n) / (n - 1))
        wm = wmodels[(i + 1) % 3]
        specs.append((f"gnpx{n}-{wm}", GenSpec(family="gnp", n=n, p=p, wmodel=wm, seed=200 + i)))
    dims = [(4, 5), (6, 6), (8, 8), (9, 9), (10, 10), (12, 12), (15, 15), (17, 17)]
    for i, (r, c) in enumerate(dims):
        wm = wmodels[i % 3]
        specs.append(
            (f"grid{r}x{c}-{wm}", GenSpec(family="grid", n=r * c, rows=r, cols=c, wmodel=wm, seed=i))
        )
    for i, (r, c) in enumerate([(8, 8), (12, 12), (14, 14)]):
        wm = wmodels[(i + 1) % 3]
        specs.append(
            (f"gridb{r}x{c}-{wm}", GenSpec(family="grid", n=r * c, rows=r, cols=c, wmodel=wm, seed=40 + i))
        )
    for i, n in enumerate((25, 35, 50, 65, 80, 95, 120, 170, 230, 300)):
        radius = 1.8 * math.sqrt(math.log(n) / (math.pi * n))
        specs.append((f"geo{n}", GenSpec(family="geometric", n=n, radius=radius, seed=300 + i)))
    assert len(specs) >= 50
    return specs


@pytest.fixture(scope="session")
def corpus():
    return [(name, generate(spec)) for name, spec in corpus_specs()]


@pytest.fixture(scope="session")
def indexes(corpus):
    return {name: build_index(g) for name, g in corpus}


@pytest.fixture(scope="session")
def spanners_6w(corpus, indexes):
    out = {}
    for name, g in corpus:
        for eps in (0.1, 1.0):
            out[(name, eps)] = build_6eps_spanner(g, eps, idx=indexes[name])
    return out


@pytest.fixture(scope="session")
def scaling_runs():
    """gnp with average degree ~= sqrt(n): builds and timings per (n, seed)."""
    out = {"6w": [], "fast2w": [], "poly": [], "fast2w_time": []}
    from wspan import build_fast_2w

    for n in (64, 128, 256, 512):
        p = math.sqrt(n) / (n - 1)
        for seed in range(5):
            g = generate(GenSpec(family="gnp", n=n, p=p, wmodel="uniform", seed=1000 + seed))
            idx = build_index(g)
            r6 = build_6eps_spanner(g, 1.0, idx=idx)
            out["6w"].append((n, r6.m))
            t0 = time.perf_counter()
            rf = build_fast_2w(g, 4.0, seed=seed)
            out["fast2w_time"].append((n, time.perf_counter() - t0))
            out["fast2w"].append((n, rf.m))
            rp = build_poly_spanner(g, 0.0, 16.0, idx=idx)
            out["poly"].append((n, rp.m))
    return out


def _medians(records: list[tuple[int, float]]) -> list[tuple[int, float]]:
    byn: dict[int, list[float]] = {}
    for n, v in records:
        byn.setdefault(n, []).append(v)
    return [(n, sorted(vs)[len(vs) // 2]) for n, vs in sorted(byn.items())]


# --------------------------------------------------------------- criteria


def test_criterion_1_deterministic_6w_stretch(corpus, indexes, spanners_6w):
    failures = []
    for name, g in corpus:
        for eps in (0.1, 1.0):
            res = spanners_6w[(name, eps)]
            (rep,) = ALGOS["6w"].certify(g, res.to_graph(g), {"eps": eps}, idx=indexes[name], subset=None)
            if not rep.passed:
                failures.append((name, eps, rep.violations[:3]))
    ok = not failures
    _pline(1, ok, f"(6+eps)W bound on {len(corpus)} graphs x eps in {{0.1, 1}}; failures={failures[:3]}")
    assert ok, failures


def test_criterion_2_subsetwise_stretch(corpus, indexes):
    failures = []
    eps = 0.5
    for gi, (name, g) in enumerate(corpus):
        rng = np.random.default_rng(np.random.SeedSequence((gi, 0x52)))
        for size in (math.ceil(math.sqrt(g.n)), math.ceil(g.n / 4)):
            S = sorted(rng.choice(g.n, min(size, g.n), replace=False).tolist())
            res = build_subsetwise_spanner(g, S, eps, idx=indexes[name])
            (rep,) = ALGOS["subsetwise"].certify(g, res.to_graph(g), {"eps": eps}, idx=indexes[name], subset=S)
            if not rep.passed:
                failures.append((name, size, rep.violations[:3]))
    ok = not failures
    _pline(2, ok, f"(2+{eps})W bound on SxS for |S| in {{ceil(sqrt n), ceil(n/4)}}; failures={failures[:3]}")
    assert ok, failures


def test_criterion_3_poly_stretch_and_path_budget(corpus, indexes):
    failures = []
    over_budget = []
    c = 16.0
    for name, g in corpus:
        idx = indexes[name]
        mult = greedy_multiplicative(g, multiplicative_k_for(g.n))
        for eps in (0.0, 0.5, 1.0):
            res = build_poly_spanner(g, eps, c, idx=idx, mult=mult)
            (rep,) = ALGOS["poly"].certify(g, res.to_graph(g), {"eps": eps, "c": c}, idx=idx, subset=None)
            assert rep.params["c"] == poly_stretch_factor(g.n, eps, c)
            if not rep.passed:
                failures.append((name, eps, rep.violations[:3]))
            budget = g.n ** ((1.0 - eps) / 2.0)
            if len(res.paths_added) > budget:
                over_budget.append((name, eps, len(res.paths_added), budget))
    ok = not failures and not over_budget
    _pline(3, ok, f"c*n^((1-eps)/2)*log2(n)*W bound and path budget; failures={failures[:2]} over_budget={over_budget[:2]}")
    assert ok, (failures, over_budget)


def test_criterion_4_randomized_2w_stretch():
    from wspan import build_fast_2w

    runs = 0
    bad = []
    for n, gseed in ((64, 501), (128, 502), (256, 503)):
        p = math.sqrt(n) / (n - 1)
        g = generate(GenSpec(family="gnp", n=n, p=p, wmodel="uniform", seed=gseed))
        idx = build_index(g)
        for seed in range(20):
            res = build_fast_2w(g, 4.0, seed=seed)
            (rep,) = ALGOS["fast2w"].certify(g, res.to_graph(g), {"c": 4.0}, idx=idx, subset=None)
            runs += 1
            if not rep.passed:
                bad.append((n, seed, [v.to_dict() for v in rep.violations[:2]]))
    for entry in bad:
        print(f"[criterion 4] violation logged: {entry}")
    ok = len(bad) <= 0.05 * runs
    _pline(4, ok, f"+2W held in {runs - len(bad)}/{runs} (instance, seed) runs at c=4")
    assert ok, bad


def test_criterion_5_emulator():
    lower_failures = []
    upper_failures = []
    size_failures = []
    runs = 0
    for n, p, gseed in ((100, 0.4, 601), (150, 0.3, 602), (200, 0.25, 603)):
        g = generate(GenSpec(family="gnp", n=n, p=p, wmodel="uniform", seed=gseed))
        idx = build_index(g)
        for seed in range(20):
            em = build_4w_emulator(g, seed=seed, idx=idx)
            runs += 1
            if len(em.S) > 2 * n ** (2.0 / 3.0):
                size_failures.append((n, seed, len(em.S)))
            lower, rep = ALGOS["emulator4w"].certify(g, em.to_graph(), {}, idx=idx, subset=None)
            if not lower.passed:
                lower_failures.append((n, seed))
            if not rep.passed:
                upper_failures.append((n, seed, [v.to_dict() for v in rep.violations[:2]]))
    ok = (
        not lower_failures
        and not size_failures
        and len(upper_failures) <= 0.05 * runs
    )
    _pline(
        5,
        ok,
        f"non-contraction {runs - len(lower_failures)}/{runs}, +4W {runs - len(upper_failures)}/{runs}, "
        f"|S| bound misses={size_failures}",
    )
    assert ok, (lower_failures, upper_failures, size_failures)


def test_criterion_6_size_scaling(scaling_runs):
    exp_6w = size_scaling_fit(_medians(scaling_runs["6w"]))
    exp_f2w = size_scaling_fit(_medians(scaling_runs["fast2w"]))
    poly_ratio_ok = all(
        m <= 8.0 * n * math.log2(n) for n, m in _medians(scaling_runs["poly"])
    )
    ok = exp_6w <= 1.45 and exp_f2w <= 1.65 and poly_ratio_ok
    _pline(
        6,
        ok,
        f"size exponents: 6w(eps=1)={exp_6w:.3f} (<=1.45), fast2w={exp_f2w:.3f} (<=1.65), "
        f"poly(eps=0) <= 8*n*log2(n): {poly_ratio_ok}",
    )
    assert ok, (exp_6w, exp_f2w, _medians(scaling_runs["poly"]))


def test_criterion_7_runtime_scaling(scaling_runs):
    meds = _medians(scaling_runs["fast2w_time"])
    slope = float(
        np.polyfit(np.log([n for n, _ in meds]), np.log([t for _, t in meds]), 1)[0]
    )
    ok = slope <= 2.3
    _pline(7, ok, f"fast2w wall-clock exponent {slope:.3f} over n in {{64..512}} (<=2.3); medians={meds}")
    assert ok, meds


def small_corpus_specs() -> list[GenSpec]:
    specs = []
    for n in range(2, 13):
        specs.append(GenSpec(family="path", n=n, wmodel="unit"))
        specs.append(GenSpec(family="tree", n=n, wmodel="unit", seed=n))
        if n >= 4:
            specs.append(GenSpec(family="gnp", n=n, p=0.5, wmodel="uniform", seed=n))
            specs.append(GenSpec(family="complete", n=n, wmodel="exp-spread", seed=n))
        if n >= 6 and n % 2 == 0:
            specs.append(GenSpec(family="grid", n=n, rows=2, cols=n // 2, wmodel="unit"))
    return specs


def test_criterion_8_oracle_equivalence(corpus, indexes):
    # exact match against an independent cubic-time brute force on n <= 12
    mismatches = []
    for spec in small_corpus_specs():
        g = generate(spec)
        idx = build_index(g)
        bf = brute_force_apsp(g)
        if spec.wmodel == "unit":
            same = np.array_equal(idx, bf)
        else:
            both = np.isfinite(bf)
            same = np.isfinite(idx).tolist() == both.tolist() and np.allclose(
                idx[both], bf[both], rtol=1e-9
            )
        if not same:
            mismatches.append(spec)

    # canonical-path structure on 10,000 random path pairs from the corpus
    rng = np.random.default_rng(8_000)
    structural_failures = 0
    checked_pairs = 0
    names = [name for name, _ in corpus]
    graphs = dict(corpus)
    paths = {}
    while checked_pairs < 10_000:
        name = names[int(rng.integers(0, len(names)))]
        g, idx = graphs[name], indexes[name]
        finite = np.argwhere(np.isfinite(idx) & ~np.eye(g.n, dtype=bool))
        if len(finite) < 2:
            continue
        if name not in paths:
            paths[name] = canonical_paths(g)
        path_of = paths[name]
        (u1, v1), (u2, v2) = finite[rng.integers(0, len(finite), size=2)]
        p = path_of(int(u1), int(v1))
        q = path_of(int(u2), int(v2))
        checked_pairs += 1
        # subpath property on a random contiguous slice of p
        i = int(rng.integers(0, len(p)))
        j = int(rng.integers(i, len(p)))
        if path_of(p[i], p[j]) != p[i : j + 1]:
            structural_failures += 1
            continue
        # reversal consistency
        if path_of(int(v1), int(u1)) != list(reversed(p)):
            structural_failures += 1
            continue
        # single contiguous intersection
        shared = set(p) & set(q)
        if shared:
            for seq in (p, q):
                pos = sorted(seq.index(x) for x in shared)
                if pos != list(range(pos[0], pos[-1] + 1)):
                    structural_failures += 1
                    break
    ok = not mismatches and structural_failures == 0
    _pline(
        8,
        ok,
        f"brute-force match on {len(small_corpus_specs())} small graphs; "
        f"{checked_pairs} path pairs, {structural_failures} structural failures",
    )
    assert ok, (mismatches, structural_failures)


def test_criterion_9_multiplicative_corollary(corpus, indexes, spanners_6w):
    failures = []
    for name, g in corpus:
        res = spanners_6w[(name, 1.0)]
        rep = verify_multiplicative(g, res.to_graph(g), 8.0, idx=indexes[name])
        if not rep.passed:
            failures.append((name, rep.violations[:3]))
    ok = not failures
    _pline(9, ok, f"6w(eps=1) outputs are 8-multiplicative spanners on {len(corpus)} graphs")
    assert ok, failures
