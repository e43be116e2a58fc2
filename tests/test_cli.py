import json

import pytest

import wspan.shortest
from wspan.algos import ALGOS, BOUNDS, parse_algo, parse_bound
from wspan.bench import run_bench
from wspan.fast2w import build_fast_2w
from wspan.cli import _build_parser, main
from wspan.generators import GenSpec
from wspan.graph import WeightedGraph
from wspan.greedy import greedy_multiplicative
from wspan.io import read_graph, read_jsonl, write_graph, write_subset
from wspan.shortest import build_index
from wspan.verify import verify_additive_W

from conftest import forbid_full_index


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def gen_graph(capsys, tmp_path, name="g.txt", n=30, p=0.2, seed=3):
    path = tmp_path / name
    code, out, _ = run(
        capsys, "generate", "--family", "gnp", "--n", str(n), "--p", str(p),
        "--wmodel", "uniform", "--seed", str(seed), "-o", str(path),
    )
    assert code == 0
    return path, json.loads(out)


def test_generate_writes_parseable_graph(capsys, tmp_path):
    path, meta = gen_graph(capsys, tmp_path)
    g = read_graph(path)
    assert g.n == meta["n"] and g.m == meta["m"]


def test_build_and_verify_each_spanner_algo(capsys, tmp_path):
    graph, _ = gen_graph(capsys, tmp_path)
    cases = [
        (["--algo", "6w", "--eps", "1.0"], "6w:1.0"),
        (["--algo", "mult", "--k", "2"], "mult:3"),
        (["--algo", "poly", "--eps", "0.5", "--c", "16"], "poly:0.5:16"),
        (["--algo", "fast2w", "--c", "4", "--seed", "5"], "2w"),
    ]
    for flags, bound in cases:
        out_path = tmp_path / f"span_{flags[1]}.txt"
        code, out, _ = run(
            capsys, "build", *flags, "--graph", str(graph), "-o", str(out_path)
        )
        assert code == 0
        stats = json.loads(out)
        assert stats["m_out"] == read_graph(out_path).m
        assert stats["m_in"] == 30 or stats["n"] == 30
        code, out, _ = run(
            capsys, "verify", "--graph", str(graph), "--spanner", str(out_path),
            "--bound", bound,
        )
        assert code == 0, out
        payload = json.loads(out)
        assert all(r["passed"] for r in payload["reports"])


def test_build_mult_reports_its_searches(capsys, tmp_path):
    graph, _ = gen_graph(capsys, tmp_path, n=60, p=0.3)
    out_path = tmp_path / "hm.txt"
    code, out, _ = run(capsys, "build", "--algo", "mult", "--k", "2", "--graph", str(graph), "-o", str(out_path))
    assert code == 0
    stats = json.loads(out)
    res = greedy_multiplicative(read_graph(graph), 2)
    assert stats["searched_edges"] == res.stats["searched_edges"] > 0
    assert stats["m_out"] == res.m


def test_build_and_verify_echo_their_w_rows(capsys, tmp_path):
    # two unit 5-cliques joined by a heavy edge, which 6w's light init drops:
    # only the rows 0..4 hold pairs across, the ones whose W is computed
    clique = lambda o: [(o + i, o + j, 1.0) for i in range(5) for j in range(i + 1, 5)]  # noqa: E731
    g = WeightedGraph(10, clique(0) + clique(5) + [(0, 5, 10.0)])
    graph, sfile = tmp_path / "g.txt", tmp_path / "s.txt"
    write_graph(g, graph)
    write_subset([1, 2, 6, 7], sfile)
    for name, flags, bound in (
        ("6w", ["--eps", "1"], "6w:1"),
        ("poly", ["--eps", "0.5"], "poly:0.5"),
        ("subsetwise", ["--eps", "0.5", "--subset", str(sfile)], f"subset:0.5:{sfile}"),
    ):
        out_path = tmp_path / f"{name}.txt"
        code, out, _ = run(capsys, "build", "--algo", name, *flags, "--graph", str(graph), "-o", str(out_path))
        assert code == 0
        subset = [1, 2, 6, 7] if name == "subsetwise" else None
        res = ALGOS[name].build(g, parse_algo(f"{name}:{flags[1]}")[1], None, 0, subset)
        stats = json.loads(out)
        assert (stats["w_rows"], stats["h_rows"]) == (res.stats["w_rows"], res.stats["h_rows"])
        code, out, _ = run(capsys, "verify", "--graph", str(graph), "--spanner", str(out_path), "--bound", bound)
        reports = ALGOS[name].certify(g, res.to_graph(g), parse_bound(bound)[1], None, subset)
        assert code == 0
        got = [(r["w_rows"], r["h_rows"]) for r in json.loads(out)["reports"]]
        assert got == [(r.w_rows, r.h_rows) for r in reports]
    assert res.stats["w_rows"] == 2  # subsetwise: rows 1 and 2 of S
    # the subsetwise H0 (a 2-light init) lacks the heavy edge, so no row of S
    # is G's; its spanner holds a path across, and so shares rows with G
    assert res.stats["h_rows"] == 4 and reports[0].h_rows < 4


def test_build_fast2w_reports_its_dijkstra_sources(capsys, tmp_path):
    graph, _ = gen_graph(capsys, tmp_path, n=60, p=0.3)
    out_path = tmp_path / "h2.txt"
    argv = ["--algo", "fast2w", "--c", "4", "--seed", "3", "--graph", str(graph), "-o", str(out_path)]
    code, out, _ = run(capsys, "build", *argv)
    assert code == 0
    stats = json.loads(out)
    res = build_fast_2w(read_graph(graph), 4.0, 3)
    assert stats["spt_sources"] == res.stats["spt_sources"] > 0
    assert stats["levels"] == res.stats["levels"] and stats["m_out"] == res.m


def test_build_subsetwise_with_subset_file(capsys, tmp_path):
    graph, _ = gen_graph(capsys, tmp_path)
    sfile = tmp_path / "s.txt"
    write_subset([0, 3, 7, 11, 19], sfile)
    out_path = tmp_path / "sub.txt"
    code, out, _ = run(
        capsys, "build", "--algo", "subsetwise", "--eps", "0.5",
        "--subset", str(sfile), "--graph", str(graph), "-o", str(out_path),
    )
    assert code == 0
    code, _, _ = run(
        capsys, "verify", "--graph", str(graph), "--spanner", str(out_path),
        "--bound", f"subset:0.5:{sfile}",
    )
    assert code == 0


def test_subset_bound_builds_no_full_index(capsys, tmp_path, monkeypatch):
    graph, _ = gen_graph(capsys, tmp_path, n=40, p=0.15)
    g = read_graph(graph)
    sfile = tmp_path / "s.txt"
    S = [0, 3, 7, 11, 19, 33]
    write_subset(S, sfile)
    sparse = tmp_path / "sparse.txt"
    write_graph(g.subgraph(sorted(g.edge_keys())[::3]), sparse)
    bound = f"subset:0.5:{sfile}"
    # what the verifier printed when it was handed the full index of G
    expected = {}
    for h_path in (graph, sparse):
        rep = verify_additive_W(g, read_graph(h_path), 2.5, pair_class=S, idx=build_index(g))
        payload = json.dumps({"bound": bound, "reports": [rep.to_dict()]}, sort_keys=True)
        expected[h_path] = (0 if rep.passed else 1, payload + "\n")
    assert expected[graph][0] == 0 and expected[sparse][0] == 1
    forbid_full_index(monkeypatch)
    for h_path in (graph, sparse):
        code, out, _ = run(
            capsys, "verify", "--graph", str(graph), "--spanner", str(h_path), "--bound", bound
        )
        assert (code, out) == expected[h_path]


def test_no_command_builds_a_full_index(capsys, tmp_path, monkeypatch):
    graph, _ = gen_graph(capsys, tmp_path, n=40, p=0.15)
    sfile = tmp_path / "s.txt"
    write_subset([0, 3, 7, 11, 19, 33], sfile)
    flags = {
        "mult": ["--k", "2"],
        "6w": ["--eps", "1"],
        "subsetwise": ["--eps", "0.5", "--subset", str(sfile)],
        "poly": ["--eps", "0.5"],
        "fast2w": ["--seed", "1"],
        "emulator4w": ["--seed", "1"],
    }
    bounds = {
        "mult": "mult:3",
        "6w": "6w:1",
        "subsetwise": f"subset:0.5:{sfile}",
        "poly": "poly:0.5",
        "fast2w": "2w",
        "emulator4w": "4w-emu",
    }
    assert sorted(flags) == sorted(ALGOS) == sorted(bounds)
    forbid_full_index(monkeypatch)
    for name in ALGOS:
        out = tmp_path / f"{name}.txt"
        code, _, err = run(capsys, "build", "--algo", name, *flags[name], "--graph", str(graph), "-o", str(out))
        assert code == 0, err
        code, _, err = run(capsys, "verify", "--graph", str(graph), "--spanner", str(out), "--bound", bounds[name])
        assert code == 0, err


def test_non_finite_build_parameters_are_exit_2(capsys, tmp_path):
    graph, _ = gen_graph(capsys, tmp_path)
    cases = [
        ["--algo", "6w", "--eps", "inf"],
        ["--algo", "6w", "--eps", "nan"],
        ["--algo", "poly", "--eps", "0.5", "--c", "inf"],
        ["--algo", "fast2w", "--c", "nan"],
        ["--algo", "fast2w", "--c", "inf"],
    ]
    for flags in cases:
        code, out, err = run(capsys, "build", *flags, "--graph", str(graph), "-o", str(tmp_path / "h.txt"))
        assert code == 2 and out == "", flags
        assert err.startswith("wspan: error:") and "must be finite" in err, flags


def test_non_finite_generate_parameters_are_exit_2(capsys, tmp_path):
    out_path = tmp_path / "g.txt"
    cases = [
        (["--family", "geometric", "--radius", "nan"], "radius"),
        (["--family", "geometric", "--radius", "inf"], "radius"),
        (["--family", "gnp", "--p", "0.3", "--wmodel", "uniform", "--wmax", "nan"], "wmax"),
        (["--family", "gnp", "--p", "0.3", "--wmodel", "uniform", "--wmax", "inf"], "wmax"),
        (["--family", "gnp", "--p", "0.3", "--wmodel", "exp-spread", "--wmax", "nan"], "wmax"),
        (["--family", "gnp", "--p", "0.3", "--wmodel", "exp-spread", "--wmax", "inf"], "wmax"),
    ]
    for flags, name in cases:
        code, out, err = run(capsys, "generate", "--n", "10", *flags, "-o", str(out_path))
        assert code == 2 and out == "" and not out_path.exists(), flags
        assert err.startswith("wspan: error:") and name in err and "finite" in err, flags


def test_build_emulator_and_verify(capsys, tmp_path, monkeypatch):
    graph, _ = gen_graph(capsys, tmp_path, n=40, p=0.4)
    out_path = tmp_path / "emu.txt"

    def no_index(*args, **kwargs):
        raise AssertionError("canonical trees computed for an emulator build")

    with monkeypatch.context() as mp:
        mp.setattr(wspan.shortest, "tree_rows", no_index)
        code, out, _ = run(
            capsys, "build", "--algo", "emulator4w", "--seed", "2",
            "--graph", str(graph), "-o", str(out_path),
        )
    assert code == 0
    stats = json.loads(out)
    assert stats["sampled_set_size"] >= 0
    code, out, _ = run(
        capsys, "verify", "--graph", str(graph), "--spanner", str(out_path),
        "--bound", "4w-emu",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["reports"]) == 2  # non-contraction + additive


def test_verify_detects_planted_violation(capsys, tmp_path):
    graph, _ = gen_graph(capsys, tmp_path)
    g = read_graph(graph)
    # keep a single lightest edge: nearly every pair becomes unreachable
    lone = min(g.edge_items(), key=lambda e: e[2])
    bad = tmp_path / "bad.txt"
    write_graph(g.subgraph({lone[:2]}), bad)
    code, out, _ = run(
        capsys, "verify", "--graph", str(graph), "--spanner", str(bad), "--bound", "6w:1.0"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["reports"][0]["violation_count"] > 0


def test_missing_required_parameter_is_usage_error(capsys, tmp_path):
    graph, _ = gen_graph(capsys, tmp_path)
    code, _, err = run(
        capsys, "build", "--algo", "6w", "--graph", str(graph), "-o", str(tmp_path / "o.txt")
    )
    assert code == 2
    assert "--eps is required" in err


def test_parse_error_is_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 1 -1\n")
    code, _, err = run(
        capsys, "verify", "--graph", str(bad), "--spanner", str(bad), "--bound", "2w"
    )
    assert code == 2
    assert "non-positive" in err


def test_non_finite_weight_is_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 2\n0 1 inf\n1 2 1.0\n")
    span = tmp_path / "span.txt"
    span.write_text("3 1\n1 2 1.0\n")
    code, out, err = run(
        capsys, "verify", "--graph", str(bad), "--spanner", str(span), "--bound", "6w:1"
    )
    assert code == 2 and out == ""
    assert "bad.txt:2: non-finite weight" in err


def test_absorbed_edge_weight_is_exit_2(capsys, tmp_path):
    # 1e16 + 1 == 1e16 in floats, so from vertex 0 the tie rule cannot order 1 and 2
    graph = tmp_path / "g.txt"
    graph.write_text("3 2\n0 2 1e16\n1 2 1\n")
    for argv in (
        ["build", "--algo", "6w", "--eps", "1", "--graph", str(graph), "-o", str(tmp_path / "h.txt")],
        ["verify", "--graph", str(graph), "--spanner", str(graph), "--bound", "2w"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("wspan: error: source 0: vertex 1")
        assert "absorbed an edge weight" in err and "Traceback" not in err


def test_non_integer_vertex_count_is_exit_2(capsys, tmp_path):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([{"family": "path", "n": 2.5}]))
    code, out, err = run(
        capsys, "bench", "--corpus", str(corpus), "--algos", "6w:1", "--out", str(tmp_path / "r.jsonl")
    )
    assert code == 2 and out == ""
    assert err == f"wspan: error: {corpus}: entry 0: field 'n' must be int, got 2.5\n"


def test_grid_vertex_count_mismatch_is_exit_2(capsys, tmp_path):
    out_file = tmp_path / "g.txt"
    code, out, err = run(
        capsys, "generate", "--family", "grid", "--n", "10", "--rows", "3", "-o", str(out_file)
    )
    assert code == 2 and out == "" and not out_file.exists()
    assert err == "wspan: error: grid n=10 is not a multiple of rows=3\n"


def test_bound_spec_extra_fields_are_exit_2(capsys, tmp_path):
    graph, _ = gen_graph(capsys, tmp_path)
    for bound in ("2w:junk", "6w:1:2", "4w-emu:1", "poly:0.5:16:3"):
        code, out, err = run(
            capsys, "verify", "--graph", str(graph), "--spanner", str(graph), "--bound", bound
        )
        assert code == 2 and out == "", bound
        assert "malformed bound spec" in err


def test_subset_bound_path_may_contain_colon(capsys, tmp_path):
    graph, _ = gen_graph(capsys, tmp_path)
    sdir = tmp_path / "a:b"
    sdir.mkdir()
    sfile = sdir / "s.txt"
    write_subset([0, 3, 7], sfile)
    code, out, _ = run(
        capsys, "verify", "--graph", str(graph), "--spanner", str(graph),
        "--bound", f"subset:0.5:{sfile}",
    )
    assert code == 0
    assert json.loads(out)["reports"][0]["params"]["pair_class"] == "subset"


def test_subset_bound_vertex_out_of_range_is_exit_2(capsys, tmp_path):
    graph, _ = gen_graph(capsys, tmp_path)
    sfile = tmp_path / "s.txt"
    write_subset([0, 999], sfile)
    code, out, err = run(
        capsys, "verify", "--graph", str(graph), "--spanner", str(graph),
        "--bound", f"subset:0.5:{sfile}",
    )
    assert code == 2 and out == ""
    assert "subset vertex 999 out of range" in err


def test_subset_file_errors_name_the_file_and_line(capsys, tmp_path):
    graph, meta = gen_graph(capsys, tmp_path)
    sfile = tmp_path / "s.txt"
    n = meta["n"]
    for text, where in ((f"0\n3\n{n}\n", f"{sfile}:3: subset vertex {n} out of range for n={n}"),
                        ("\n", f"{sfile}: subset must be nonempty")):
        sfile.write_text(text)
        for argv in (
            ["build", "--algo", "subsetwise", "--eps", "0.5", "--subset", str(sfile),
             "--graph", str(graph), "-o", str(tmp_path / "h.txt")],
            ["verify", "--graph", str(graph), "--spanner", str(graph), "--bound", f"subset:0.5:{sfile}"],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert where in err


def test_subset_bound_empty_subset_is_exit_2(capsys, tmp_path):
    graph, _ = gen_graph(capsys, tmp_path)
    sfile = tmp_path / "s.txt"
    write_subset([], sfile)
    for argv in (
        ["build", "--algo", "subsetwise", "--eps", "0.5", "--subset", str(sfile),
         "--graph", str(graph), "-o", str(tmp_path / "h.txt")],
        ["verify", "--graph", str(graph), "--spanner", str(graph), "--bound", f"subset:0.5:{sfile}"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "subset must be nonempty" in err


def test_nan_bounds_are_exit_2(capsys, tmp_path):
    # a 6-cycle minus the edge (0, 5): d_H(0, 5) = 5 against d_G = W = 1
    graph, span = tmp_path / "g.txt", tmp_path / "h.txt"
    graph.write_text("6 6\n" + "".join(f"{i} {(i + 1) % 6} 1\n" for i in range(6)))
    span.write_text("6 5\n" + "".join(f"{i} {i + 1} 1\n" for i in range(5)))
    code, _, _ = run(capsys, "verify", "--graph", str(graph), "--spanner", str(span), "--bound", "mult:2")
    assert code == 1
    for bound in ("mult:nan", "6w:nan", "poly:nan", "poly:0.5:nan", "mult:inf"):
        code, out, err = run(
            capsys, "verify", "--graph", str(graph), "--spanner", str(span), "--bound", bound
        )
        assert code == 2 and out == "", bound
        assert err.startswith("wspan: error:") and "must be finite" in err, bound


def test_verify_stdout_is_standard_json(capsys, tmp_path):
    def no_constant(name):
        raise AssertionError(f"non-standard JSON constant {name}")

    graph, span, emu = tmp_path / "g.txt", tmp_path / "h.txt", tmp_path / "e.txt"
    graph.write_text("4 2\n0 1 1\n2 3 1\n")
    span.write_text("4 1\n0 1 1\n")  # (2, 3) unreachable
    emu.write_text("4 3\n0 1 1 g\n1 2 9 v\n2 3 1 g\n")  # (1, 2) joins two components
    for spanner, bound in ((span, "6w:1"), (emu, "4w-emu")):
        code, out, _ = run(
            capsys, "verify", "--graph", str(graph), "--spanner", str(spanner), "--bound", bound
        )
        assert code == 1
        payload = json.loads(out, parse_constant=no_constant)
        assert any(r["violation_count"] for r in payload["reports"])


def test_poly_bound_defaults_c_to_16(capsys, tmp_path):
    graph, _ = gen_graph(capsys, tmp_path)
    span = tmp_path / "poly.txt"
    code, _, _ = run(
        capsys, "build", "--algo", "poly", "--eps", "0.5", "--graph", str(graph), "-o", str(span)
    )
    assert code == 0
    reports = []
    for bound in ("poly:0.5", "poly:0.5:16"):
        code, out, _ = run(
            capsys, "verify", "--graph", str(graph), "--spanner", str(span), "--bound", bound
        )
        assert code == 0
        reports.append(json.loads(out)["reports"])
    assert reports[0] == reports[1]


def test_default_seed_from_environment(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("WSPAN_SEED", "123")
    p1 = tmp_path / "a.txt"
    code, _, _ = run(
        capsys, "generate", "--family", "gnp", "--n", "20", "--p", "0.3", "-o", str(p1)
    )
    assert code == 0
    p2 = tmp_path / "b.txt"
    run(
        capsys, "generate", "--family", "gnp", "--n", "20", "--p", "0.3",
        "--seed", "123", "-o", str(p2),
    )
    assert read_graph(p1) == read_graph(p2)


def test_non_integer_seed_variable_is_exit_2(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("WSPAN_SEED", "abc")
    code, out, err = run(
        capsys, "generate", "--family", "gnp", "--n", "20", "--p", "0.3", "-o", str(tmp_path / "g.txt")
    )
    assert code == 2 and out == ""
    assert err == "wspan: error: $WSPAN_SEED must be an integer, got 'abc'\n"


# ------------------------------------------------------------------ bench


def test_parse_algo_specs():
    assert parse_algo("mult:3") == ("mult", {"k": 3})
    assert parse_algo("6w:0.25") == ("6w", {"eps": 0.25})
    assert parse_algo("poly:0") == ("poly", {"eps": 0.0, "c": 16.0})
    assert parse_algo("subsetwise:1:quarter") == ("subsetwise", {"eps": 1.0, "size": "quarter"})
    assert parse_algo("fast2w") == ("fast2w", {"c": 4.0})
    assert parse_algo("emulator4w") == ("emulator4w", {})
    with pytest.raises(ValueError):
        parse_algo("mult")
    with pytest.raises(ValueError):
        parse_algo("6w:fast")
    with pytest.raises(ValueError):
        parse_algo("emulator4w:1")
    with pytest.raises(ValueError):
        parse_algo("steiner:2")


def test_algo_table_is_the_cli_vocabulary():
    sub = next(a for a in _build_parser()._actions if a.dest == "cmd")
    algo = next(a for a in sub.choices["build"]._actions if a.dest == "algo")
    assert list(algo.choices) == list(ALGOS)
    bound_help = next(a for a in sub.choices["verify"]._actions if a.dest == "bound").help
    documented = ["6w:0.5", "2w", "4w-emu", "poly:0.5:16", "mult:3", "subset:0.5:s.txt"]
    assert sorted(spec.split(":")[0] for spec in documented) == sorted(BOUNDS)
    for spec in documented:
        assert spec.split(":")[0] in bound_help
        name, _ = parse_bound(spec)
        assert name in ALGOS
    assert parse_bound("mult:3") == ("mult", {"alpha": 3.0})
    assert parse_bound("poly:0.5") == ("poly", {"eps": 0.5, "c": 16.0})
    assert parse_bound("subset:0.5:x:y") == ("subsetwise", {"eps": 0.5, "subset": "x:y"})
    with pytest.raises(ValueError, match="unknown bound kind"):
        parse_bound("fast2w")


def test_run_bench_empty_algos_is_empty():
    specs = [GenSpec(family="path", n=5)]
    records, det_fail = run_bench(specs, [], [0])
    assert records == [] and det_fail is False


def test_run_bench_tree_corpus_6w_incompressible():
    specs = [GenSpec(family="tree", n=20, wmodel="uniform", seed=s) for s in (1, 2)]
    records, det_fail = run_bench(specs, ["6w:1.0"], [0])
    assert not det_fail
    assert len(records) == 2
    for r in records:
        assert r["m_out"] == r["m_in"]
        assert r["verify_pass"] is True


def test_run_bench_determinism_and_jobs():
    specs = [
        GenSpec(family="gnp", n=24, p=0.25, wmodel="uniform", seed=s) for s in (1, 2, 3)
    ]
    algos = ["6w:1.0", "fast2w:4", "subsetwise:1:sqrt"]
    rec_a, _ = run_bench(specs, algos, [0, 1])
    rec_b, _ = run_bench(specs, algos, [0, 1], jobs=2)
    strip = lambda rs: [{k: v for k, v in r.items() if k != "wall_time_ms"} for r in rs]
    assert strip(rec_a) == strip(rec_b)


def test_bench_cli_and_stats(capsys, tmp_path):
    corpus = tmp_path / "corpus.json"
    specs = [
        GenSpec(family="gnp", n=n, p=0.3, wmodel="uniform", seed=1).to_dict()
        for n in (16, 24, 32)
    ]
    corpus.write_text(json.dumps(specs))
    records = tmp_path / "records.jsonl"
    code, out, _ = run(
        capsys, "bench", "--corpus", str(corpus), "--algos", "6w:1,mult:2",
        "--seeds", "0", "--out", str(records),
    )
    assert code == 0
    assert json.loads(out)["records"] == 6
    rows = read_jsonl(records)
    assert {r["algo"] for r in rows} == {"6w", "mult"}
    code, out, _ = run(capsys, "stats", "--records", str(records))
    assert code == 0
    summary = json.loads(out)
    entry = next(e for e in summary if e["algo"] == "6w")
    assert "size_exponent" in entry
    assert entry["verify_pass_rate"] == 1.0


def test_stats_fits_the_n_with_edges_only(capsys, tmp_path):
    # a path on one vertex has no edges: its median m_out of 0 is reported
    # but left out of the log-log fit
    corpus = tmp_path / "corpus.json"
    records = tmp_path / "records.jsonl"
    for ns, fitted in (((1, 4, 8, 16), True), ((1, 4, 8), False)):
        corpus.write_text(json.dumps([{"family": "path", "n": n} for n in ns]))
        code, _, _ = run(
            capsys, "bench", "--corpus", str(corpus), "--algos", "mult:2",
            "--seeds", "0", "--out", str(records),
        )
        assert code == 0
        code, out, err = run(capsys, "stats", "--records", str(records))
        assert code == 0 and err == ""
        (entry,) = json.loads(out)
        assert entry["median_m_out"] == {str(n): n - 1 for n in ns}
        assert entry["verify_pass_rate"] == 1.0
        # a path's size is n - 1, so the exponent sits just above 1
        assert ("size_exponent" in entry) == fitted
        if fitted:
            assert 1.0 < entry["size_exponent"] < 1.3


def test_stats_rejects_bad_records_with_their_line(capsys, tmp_path):
    records = tmp_path / "r.jsonl"
    good = json.dumps({"algo": "6w", "n": 8, "m_out": 9, "verify_pass": True})
    for line, msg in (
        (json.dumps({"algo": "6w", "n": 8, "verify_pass": True}), "record has no 'm_out'"),
        ("[1, 2]", "expected a JSON object, got list"),
        ('{"algo": ', "invalid JSON"),
        (json.dumps({"algo": "6w", "n": 8, "m_out": "x", "verify_pass": True}), "record's 'm_out' must be int, got 'x'"),
        (json.dumps({"algo": "6w", "n": True, "m_out": 9, "verify_pass": True}), "record's 'n' must be int, got True"),
        (json.dumps({"algo": 6, "n": 8, "m_out": 9, "verify_pass": True}), "record's 'algo' must be str, got 6"),
        (json.dumps({"algo": "6w", "n": 8, "m_out": 9, "verify_pass": 1}), "record's 'verify_pass' must be bool, got 1"),
    ):
        records.write_text(f"{good}\n\n{line}\n")
        code, out, err = run(capsys, "stats", "--records", str(records))
        assert code == 2 and out == ""
        assert err.startswith(f"wspan: error: {records}:3: {msg}") and "Traceback" not in err


def test_bench_rejects_bad_corpus_and_jobs(capsys, tmp_path):
    corpus = tmp_path / "corpus.json"
    out_file = tmp_path / "r.jsonl"
    for entries, msg in (
        ({"family": "gnp"}, f"{corpus}: expected a JSON list of generator specs, got dict"),
        ([{"family": "path", "n": 4}, {"family": "path", "n": 4, "bogus": 1}], f"{corpus}: entry 1: unknown field 'bogus'"),
        (["path"], f"{corpus}: entry 0: expected a JSON object, got str"),
        ([{"n": 4}], f"{corpus}: entry 0: missing field 'family'"),
        ([{"family": "gnp", "n": 8, "p": "x"}], f"{corpus}: entry 0: field 'p' must be float, got 'x'"),
        ([{"family": "gnp", "n": 8, "p": 0.5, "seed": 1.5}], f"{corpus}: entry 0: field 'seed' must be int, got 1.5"),
        ([{"family": "path", "n": 4, "keep_lcc": "yes"}], f"{corpus}: entry 0: field 'keep_lcc' must be bool, got 'yes'"),
        ([{"family": "path", "n": "8"}], f"{corpus}: entry 0: field 'n' must be int, got '8'"),
        ([{"family": "path", "n": 4, "wmodel": None}], f"{corpus}: entry 0: field 'wmodel' must be str, got None"),
    ):
        corpus.write_text(json.dumps(entries))
        code, out, err = run(capsys, "bench", "--corpus", str(corpus), "--algos", "6w:1", "--out", str(out_file))
        assert code == 2 and out == "" and not out_file.exists()
        assert err == f"wspan: error: {msg}\n"
    corpus.write_text(json.dumps([{"family": "path", "n": 4}]))
    for jobs in ("0", "-1"):
        code, out, err = run(
            capsys, "bench", "--corpus", str(corpus), "--algos", "6w:1", "--out", str(out_file), "--jobs", jobs
        )
        assert code == 2 and out == "" and not out_file.exists()
        assert err == f"wspan: error: jobs must be >= 1, got {jobs}\n"
