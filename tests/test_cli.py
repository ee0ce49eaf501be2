import functools
import json
import time

import pytest

from totpcount import (
    DnfFormula,
    Graph,
    full_binary_tree,
    save_dnf,
    save_graph,
    save_tree,
)
from totpcount import cli
from totpcount.cli import main
from totpcount.problems import CnfFormula, save_cnf
from totpcount.trees import ExplicitTree, random_tree
import numpy as np


@pytest.fixture
def dnf_file(tmp_path):
    path = tmp_path / "phi.dnf"
    save_dnf(DnfFormula(2, ((1,),)), path)
    return path


@pytest.fixture
def tree_file(tmp_path):
    path = tmp_path / "fb2.tree"
    save_tree(full_binary_tree(2), path)
    return path


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "k3.graph"
    save_graph(Graph.from_edges(3, [(1, 2), (2, 3), (1, 3)]), path)
    return path


@pytest.fixture
def cnf_file(tmp_path):
    path = tmp_path / "phi.cnf"
    save_cnf(CnfFormula(2, ((1, 2),)), path)
    return path


@pytest.fixture
def unsat_cnf_file(tmp_path):
    path = tmp_path / "unsat.cnf"
    save_cnf(CnfFormula(2, ((1,), (-1,))), path)
    return path


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


def test_estimate_dnf_record_shape(capsys, dnf_file):
    code, record = run_cli(
        capsys,
        ["estimate", "--problem", "dnf", "--input", str(dnf_file),
         "--xi", "0.05", "--delta", "0.1", "--seed", "7", "--transport", "exact"],
    )
    assert code == 0
    for key in ("estimate", "fraction", "error_radius", "steps"):
        assert key in record
    assert abs(record["estimate"] - 2) <= record["error_radius"]


def test_estimate_tree_fixture_near_seven(capsys, tree_file):
    code, record = run_cli(
        capsys,
        ["estimate", "--problem", "tree", "--input", str(tree_file),
         "--xi", "0.1", "--delta", "0.1", "--seed", "3", "--transport", "exact"],
    )
    assert code == 0
    assert abs(record["estimate"] - 7) <= record["error_radius"]


def test_estimate_missing_input_exits_two(tree_file):
    with pytest.raises(SystemExit) as err:
        main(["estimate", "--problem", "tree", "--xi", "0.1", "--delta", "0.1", "--seed", "1"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--problem", "tree", "--xi", "1", "--delta", "0.5", "--seed", "1"],
        ["exact", "--problem", "is", "--threshold", "10"],
        ["capp", "--problem", "dnf", "--epsilon", "0.5", "--delta", "0.5", "--seed", "1"],
    ],
    ids=["estimate", "exact", "capp"],
)
def test_directory_as_input_exits_two(capsys, tmp_path, argv):
    code = main(argv + ["--input", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and str(tmp_path) in captured.err


def _spy_on_runner(monkeypatch, command: str) -> list:
    """Count the bench runs of ``command``; ``functools.wraps`` keeps its signature and type hints."""
    calls = []
    runner = cli._RUNNERS[command]

    @functools.wraps(runner)
    def spied(**kwargs):
        calls.append(kwargs)
        return runner(**kwargs)

    monkeypatch.setitem(cli._RUNNERS, command, spied)
    return calls


def test_bench_out_directory_exits_two(capsys, tmp_path, tree_file, monkeypatch):
    calls = _spy_on_runner(monkeypatch, "estimate")
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"runs": [
        {"command": "estimate", "problem": "tree", "input": str(tree_file),
         "xi": 0.5, "delta": 0.5, "seed": 1, "transport": "exact"}
    ]}), encoding="utf-8")
    code = main(["bench", "--suite", str(suite), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and str(tmp_path) in captured.err
    # The output is opened before the first run.
    assert calls == []


def test_bench_ill_typed_last_entry_exits_two_before_any_run(capsys, tmp_path, tree_file, monkeypatch):
    calls = _spy_on_runner(monkeypatch, "estimate")
    exact_calls = _spy_on_runner(monkeypatch, "exact")
    first = {"command": "exact", "problem": "tree", "input": str(tree_file), "threshold": 10}
    run = {"command": "estimate", "problem": "tree", "input": str(tree_file),
           "xi": 0.5, "delta": 0.5, "seed": 1, "transport": "exact"}
    # A value of the wrong type, then a string that is not one of the choices.
    for key, value in [("xi", "x"), ("problem", "tre"), ("transport", "exakt")]:
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"runs": [first, run, dict(run, **{key: value})]}),
                         encoding="utf-8")
        out = tmp_path / "o.jsonl"
        code = main(["bench", "--suite", str(suite), "--out", str(out)])
        assert code == 2
        assert f"run 2: parameter {key!r}" in capsys.readouterr().err
        assert calls == [] and exact_calls == [] and not out.exists()


def test_estimate_bad_xi_exits_two(capsys, tree_file):
    code = main(
        ["estimate", "--problem", "tree", "--input", str(tree_file),
         "--xi", "2.0", "--delta", "0.1", "--seed", "1"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--problem", "tree", "--xi", "0.5"],
        ["ras", "--problem", "tree", "--k", "2", "--beta", "0.5"],
        ["capp", "--problem", "dnf", "--epsilon", "0.2"],
        ["gapcsat", "--problem", "dnf", "--rho", "0.4"],
    ],
    ids=lambda argv: argv[0],
)
def test_workers_below_one_exits_two(capsys, tree_file, dnf_file, argv):
    source = tree_file if "tree" in argv else dnf_file
    code = main(argv + ["--input", str(source), "--delta", "0.2", "--seed", "1",
                        "--transport", "exact", "--workers", "0"])
    assert code == 2
    assert "workers must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("burn_const", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--problem", "tree", "--xi", "0.5"],
        # Cutoff ceil(4 * 2 * sqrt(2)) = 12 >= 7 nodes: ras answers exactly,
        # so only the early check can reject the constant.
        ["ras", "--problem", "tree", "--k", "4", "--beta", "0.5"],
        ["capp", "--problem", "dnf", "--epsilon", "0.2"],
        ["gapcsat", "--problem", "dnf", "--rho", "0.4"],
    ],
    ids=lambda argv: argv[0],
)
def test_burn_const_not_positive_exits_two(capsys, tree_file, dnf_file, argv, burn_const):
    source = tree_file if "tree" in argv else dnf_file
    code = main(argv + ["--input", str(source), "--delta", "0.2", "--seed", "1",
                        "--transport", "exact", "--burn-const", burn_const])
    assert code == 2
    assert "must be positive" in capsys.readouterr().err


_EXTREME_BASE = {
    "estimate": ["--xi", "0.5", "--burn-const", "0.05"],
    "ras": ["--k", "2", "--beta", "0.5"],
}


_EXTREME_CASES = [
    (["estimate", "--burn-const", "inf"], 2, "burn_const must be positive and finite"),
    (["estimate", "--burn-const", "nan"], 2, "burn_const must be positive and finite"),
    (["estimate", "--burn-const", "1e308"], 3, "burn-in steps T would be inf"),
    (["ras", "--k", "inf"], 2, "k must be >= 1 and finite"),
    (["ras", "--k", "nan"], 2, "k must be >= 1 and finite"),
    # The cutoff overflows a float; 3 nodes are counted exactly.
    (["ras", "--k", "1e308"], 0, "estimate=3 mode=exact"),
    (["estimate", "--xi", "1e-200"], 3, "samples m would be inf"),
    (["estimate", "--xi", "1e-10", "--transport", "exact"], 3, "samples m would be 5.12e+22"),
    (["estimate", "--delta", "1e-320"], 3, "repetitions t would be inf"),
]


@pytest.mark.parametrize(
    "argv, code, says", _EXTREME_CASES, ids=[" ".join(argv) for argv, _, _ in _EXTREME_CASES]
)
def test_extreme_numbers_are_refused_by_name(capsys, tmp_path, argv, code, says):
    path = tmp_path / "two.graph"
    path.write_text("p graph 2 0\n", encoding="utf-8")
    command, *overrides = argv
    # argparse keeps the last value of an option, so the overrides win.
    assert main([command, "--problem", "is", "--input", str(path), "--delta", "0.5",
                 "--seed", "1", *_EXTREME_BASE[command], *overrides]) == code
    assert says in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, text, argv",
    [
        ("neg.graph", "p graph -3 0\n", ["estimate", "--problem", "is", "--xi", "0.5"]),
        ("neg.cnf", "p cnf -2 0\n", ["capp", "--problem", "cnf", "--epsilon", "0.2"]),
        ("twice.dnf", "p dnf 1 1\np dnf 3 1\n3 0\n", ["exact", "--problem", "dnf"]),
    ],
    ids=["negative-graph-header", "negative-cnf-header", "second-dnf-header"],
)
def test_bad_header_exits_two(capsys, tmp_path, name, text, argv):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    if argv[0] == "exact":
        argv = argv + ["--threshold", "10"]
    else:
        argv = argv + ["--delta", "0.2", "--seed", "1", "--transport", "exact"]
    code = main(argv + ["--input", str(path)])
    assert code == 2
    assert f"{path}:" in capsys.readouterr().err


def test_estimate_height_guard_exits_three(capsys, tmp_path):
    rng = np.random.default_rng(0)
    tall = random_tree(rng, 501, child_prob=0.0)
    path = tmp_path / "tall.tree"
    save_tree(tall, path)
    code = main(
        ["estimate", "--problem", "tree", "--input", str(path),
         "--xi", "0.5", "--delta", "0.1", "--seed", "1", "--transport", "exact"]
    )
    assert code == 3


def test_exact_triangle(capsys, triangle_file):
    code, record = run_cli(
        capsys, ["exact", "--problem", "is", "--input", str(triangle_file), "--threshold", "5"]
    )
    assert code == 0
    assert record["outcome"] == "exact" and record["value"] == 3


def test_exact_exceeds(capsys, triangle_file):
    code, record = run_cli(
        capsys, ["exact", "--problem", "is", "--input", str(triangle_file), "--threshold", "2"]
    )
    assert code == 0
    assert record["outcome"] == "exceeds" and "value" not in record
    assert record["nodes_visited"] <= 3


def test_exact_empty_instance(capsys, tmp_path):
    path = tmp_path / "empty.dnf"
    save_dnf(DnfFormula(2, ()), path)
    code, record = run_cli(
        capsys, ["exact", "--problem", "dnf", "--input", str(path), "--threshold", "0"]
    )
    assert code == 0
    assert record["outcome"] == "exact" and record["value"] == 0


def test_ras_exact_branch(capsys, triangle_file):
    code, record = run_cli(
        capsys,
        ["ras", "--problem", "is", "--input", str(triangle_file),
         "--k", "2", "--beta", "0.5", "--delta", "0.2", "--seed", "1"],
    )
    assert code == 0
    assert record["mode"] == "exact" and record["estimate"] == 3.0


def test_estimate_monotone_circuit(capsys, tmp_path):
    path = tmp_path / "or.mono"
    path.write_text("input 1\ninput 2\ngate 3 OR 1 2\noutput 3\n", encoding="utf-8")
    code, record = run_cli(
        capsys,
        ["estimate", "--problem", "mono", "--input", str(path),
         "--xi", "0.1", "--delta", "0.1", "--seed", "2", "--transport", "exact"],
    )
    assert code == 0
    assert abs(record["estimate"] - 3) <= record["error_radius"]


def test_ras_estimator_branch(capsys, tmp_path):
    # Tautological 6-variable formula (64 solutions) sits above the exact
    # cutoff ceil(2 * 2^3.5 * 2^(7/3)/2) = 51, so the sampling branch runs.
    path = tmp_path / "dense.dnf"
    path.write_text("p dnf 6 1\n0\n", encoding="utf-8")
    code, record = run_cli(
        capsys,
        ["ras", "--problem", "dnf", "--input", str(path),
         "--k", "2", "--beta", "0.3333", "--delta", "0.2", "--seed", "6",
         "--transport", "exact"],
    )
    assert code == 0
    assert record["mode"] == "telescoping"
    assert abs(record["estimate"] - 64) <= 64 * record["relative_error_bound"]


def test_ras_rejects_small_k(capsys, triangle_file):
    code = main(
        ["ras", "--problem", "is", "--input", str(triangle_file),
         "--k", "0.5", "--beta", "0.5", "--delta", "0.2", "--seed", "1"]
    )
    assert code == 2


def test_capp_cnf(capsys, cnf_file):
    code, record = run_cli(
        capsys,
        ["capp", "--problem", "cnf", "--input", str(cnf_file),
         "--epsilon", "0.1", "--delta", "0.1", "--seed", "5", "--transport", "exact"],
    )
    assert code == 0
    assert 0.65 <= record["p_hat"] <= 0.85
    assert record["route"] == "complement"


def test_capp_unsupported_family_exits_two(capsys, triangle_file):
    code = main(
        ["capp", "--problem", "is", "--input", str(triangle_file),
         "--epsilon", "0.1", "--delta", "0.1", "--seed", "5"]
    )
    assert code == 2


def test_gapcsat_unsat(capsys, unsat_cnf_file):
    code, record = run_cli(
        capsys,
        ["gapcsat", "--problem", "cnf", "--input", str(unsat_cnf_file),
         "--rho", "0.5", "--delta", "0.05", "--seed", "2", "--transport", "exact"],
    )
    assert code == 0
    assert record["verdict"] == "unsatisfiable"


def test_gapcsat_sat(capsys, cnf_file):
    code, record = run_cli(
        capsys,
        ["gapcsat", "--problem", "cnf", "--input", str(cnf_file),
         "--rho", "0.5", "--delta", "0.05", "--seed", "2", "--transport", "exact"],
    )
    assert code == 0
    assert record["verdict"] == "satisfiable"


def test_determinism_identical_records(capsys, dnf_file):
    argv = ["estimate", "--problem", "dnf", "--input", str(dnf_file),
            "--xi", "0.1", "--delta", "0.1", "--seed", "9", "--transport", "exact"]
    _, first = run_cli(capsys, argv)
    _, second = run_cli(capsys, argv)
    first.pop("wall_time_s")
    second.pop("wall_time_s")
    assert first == second


def test_bench_runs_manifest(capsys, tmp_path, tree_file):
    manifest = {
        "runs": [
            {"command": "estimate", "problem": "tree", "input": str(tree_file),
             "xi": 0.2, "delta": 0.2, "seed": s, "transport": "exact"}
            for s in range(3)
        ]
    }
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(manifest), encoding="utf-8")
    out = tmp_path / "results.jsonl"
    code, record = run_cli(capsys, ["bench", "--suite", str(suite), "--out", str(out)])
    assert code == 0 and record["runs"] == 3
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(lines) == 3
    for line in lines:
        assert abs(line["estimate"] - 7) <= line["error_radius"]


def test_bench_coverage_over_random_trees(capsys, tmp_path):
    rng = np.random.default_rng(99)
    runs = []
    truths = []
    for i in range(20):
        tree = random_tree(rng, int(rng.integers(1, 7)), child_prob=0.55, max_nodes=80)
        path = tmp_path / f"tree_{i}.tree"
        save_tree(tree, path)
        truths.append(len(tree.nodes))
        runs.append(
            {"command": "estimate", "problem": "tree", "input": path.name,
             "xi": 0.2, "delta": 0.2, "seed": i, "transport": "exact"}
        )
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"runs": runs}), encoding="utf-8")
    out = tmp_path / "results.jsonl"
    code, _ = run_cli(capsys, ["bench", "--suite", str(suite), "--out", str(out)])
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    covered = sum(
        abs(rec["estimate"] - truth) <= rec["error_radius"]
        for rec, truth in zip(records, truths)
    )
    assert covered / len(records) >= 1 - 0.2 - 0.05


def test_bench_empty_suite(capsys, tmp_path):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"runs": []}), encoding="utf-8")
    out = tmp_path / "results.jsonl"
    code, record = run_cli(capsys, ["bench", "--suite", str(suite), "--out", str(out)])
    assert code == 0 and record["runs"] == 0
    assert out.read_text() == ""


def test_bench_malformed_manifest(capsys, tmp_path):
    suite = tmp_path / "suite.json"
    suite.write_text("[not a manifest", encoding="utf-8")
    code = main(["bench", "--suite", str(suite), "--out", str(tmp_path / "o.jsonl")])
    assert code == 2


def test_bench_relative_inputs(capsys, tmp_path):
    save_tree(ExplicitTree([(), (1,)]), tmp_path / "t.tree")
    suite = tmp_path / "suite.json"
    suite.write_text(
        json.dumps({"runs": [{"command": "exact", "problem": "tree",
                              "input": "t.tree", "threshold": 5}]}),
        encoding="utf-8",
    )
    out = tmp_path / "results.jsonl"
    code, record = run_cli(capsys, ["bench", "--suite", str(suite), "--out", str(out)])
    assert code == 0
    line = json.loads(out.read_text().splitlines()[0])
    assert line["value"] == 2


def _exact_suite(tmp_path, **extra):
    save_tree(ExplicitTree([(), (1,)]), tmp_path / "t.tree")
    suite = tmp_path / "suite.json"
    run = {"command": "exact", "problem": "tree", "input": "t.tree", "threshold": 5, **extra}
    suite.write_text(json.dumps({"runs": [run]}), encoding="utf-8")
    return suite


def test_bench_unknown_keyword_is_a_parse_error(capsys, tmp_path):
    suite = _exact_suite(tmp_path, thresold=5)
    code = main(["bench", "--suite", str(suite), "--out", str(tmp_path / "o.jsonl")])
    assert code == 2
    assert "bad arguments" in capsys.readouterr().err


def test_bench_runner_type_error_propagates(tmp_path, monkeypatch):
    # A TypeError raised inside a runner is a bug in the package, not a
    # bad manifest, so it must not be reported as exit code 2.
    def broken(*args, **kwargs):
        raise TypeError("raised inside the runner")

    monkeypatch.setattr(cli, "count_up_to", broken)
    suite = _exact_suite(tmp_path)
    with pytest.raises(TypeError, match="raised inside the runner"):
        main(["bench", "--suite", str(suite), "--out", str(tmp_path / "o.jsonl")])


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("estimate", "xi", "0.5"),
        ("estimate", "burn_const", "2"),
        ("estimate", "seed", 1.5),
        ("estimate", "workers", True),
        ("estimate", "problem", None),
        ("exact", "threshold", "5"),
        ("estimate", "problem", "tre"),
        ("estimate", "transport", "exakt"),
    ],
)
def test_bench_wrong_typed_value_is_a_parse_error(capsys, tmp_path, tree_file, command, key, value):
    run = {"command": command, "problem": "tree", "input": str(tree_file), key: value}
    if command == "estimate":
        run = {"xi": 0.5, "delta": 0.2, "seed": 1, "transport": "exact", **run}
    else:
        run = {"threshold": 5, **run}
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"runs": [run]}), encoding="utf-8")
    code = main(["bench", "--suite", str(suite), "--out", str(tmp_path / "o.jsonl")])
    assert code == 2
    assert f"run 0: parameter {key!r}" in capsys.readouterr().err


def test_bench_accepts_an_int_for_a_float(capsys, tmp_path, tree_file):
    run = {"command": "estimate", "problem": "tree", "input": str(tree_file),
           "xi": 1, "delta": 0.2, "seed": 1, "burn_const": 2, "transport": "exact"}
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"runs": [run]}), encoding="utf-8")
    out = tmp_path / "o.jsonl"
    code, record = run_cli(capsys, ["bench", "--suite", str(suite), "--out", str(out)])
    assert code == 0 and record["runs"] == 1
    assert json.loads(out.read_text())["params"]["burn_const"] == 2


def test_cli_and_bench_give_the_same_record(capsys, tmp_path, tree_file, dnf_file):
    """One run through ``main`` and through a one-entry manifest: equal records but for time."""
    # Int-valued floats throughout: the command line parses "1" for a float
    # option as 1.0, and a manifest's 1 must reach the record as 1.0 too.
    exact = {"delta": 0.5, "seed": 1, "burn_const": 2, "transport": "exact"}
    cases = [
        ("estimate", {"problem": "tree", "input": str(tree_file), "xi": 1, **exact}),
        ("exact", {"problem": "tree", "input": str(tree_file), "threshold": 5}),
        ("ras", {"problem": "tree", "input": str(tree_file), "k": 2, "beta": 0.5, **exact}),
        ("capp", {"problem": "dnf", "input": str(dnf_file), "epsilon": 0.5, **exact}),
        ("gapcsat", {"problem": "dnf", "input": str(dnf_file), "rho": 1, **exact}),
    ]

    def canonical(record):
        # JSON text, so that 1 and 1.0 differ.
        return json.dumps({k: v for k, v in record.items() if k != "wall_time_s"}, sort_keys=True)

    for command, kwargs in cases:
        argv = [command]
        for key, value in kwargs.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        code, from_cli = run_cli(capsys, argv)
        assert code == 0, argv
        suite = tmp_path / f"{command}.json"
        suite.write_text(json.dumps({"runs": [{"command": command, **kwargs}]}), encoding="utf-8")
        out = tmp_path / f"{command}.jsonl"
        code, _ = run_cli(capsys, ["bench", "--suite", str(suite), "--out", str(out)])
        assert code == 0, command
        assert canonical(json.loads(out.read_text())) == canonical(from_cli)


def _tiny_runs(tree_file, dnf_file):
    """Runner keywords of each of the five commands on tiny inputs, exact transport."""
    exact = {"delta": 0.5, "seed": 1, "transport": "exact"}
    return {
        "estimate": {"problem": "tree", "input": str(tree_file), "xi": 1.0, **exact},
        "exact": {"problem": "tree", "input": str(tree_file), "threshold": 5},
        "ras": {"problem": "tree", "input": str(tree_file), "k": 2.0, "beta": 0.5, **exact},
        "capp": {"problem": "dnf", "input": str(dnf_file), "epsilon": 0.5, **exact},
        "gapcsat": {"problem": "dnf", "input": str(dnf_file), "rho": 1.0, **exact},
    }


@pytest.mark.parametrize("command", ["estimate", "exact", "ras", "capp", "gapcsat"])
def test_wall_time_covers_the_whole_command(monkeypatch, tree_file, dnf_file, command):
    """Every record's wall_time_s includes parsing the input and building the adapter."""
    for name in ("_load_tree_source", "_load_circuit_source"):
        load = getattr(cli, name)

        def slow(*args, load=load):
            time.sleep(0.05)
            return load(*args)

        monkeypatch.setattr(cli, name, slow)
    record = cli._RUNNERS[command](**_tiny_runs(tree_file, dnf_file)[command])
    assert record["wall_time_s"] >= 0.05


def _shown(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def test_summary_line_comes_from_the_record(capsys, tmp_path, tree_file, dnf_file):
    """The stderr line is ``<command>: k=v ...`` and every k=v is the record's."""
    runs = _tiny_runs(tree_file, dnf_file)
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"runs": [{"command": "exact", **runs["exact"]}]}),
                     encoding="utf-8")
    exceeds = dict(runs["exact"], threshold=2)
    cases = [*runs.items(), ("exact", exceeds),
             ("bench", {"suite": str(suite), "out": str(tmp_path / "o.jsonl")})]
    for command, kwargs in cases:
        argv = [command]
        for key, value in kwargs.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        assert main(argv) == 0, argv
        captured = capsys.readouterr()
        record = json.loads(captured.out)
        line = captured.err.strip()
        assert "\n" not in line
        head, _, rest = line.partition(" ")
        assert head == f"{command}:", line
        pairs = rest.split(" ")
        assert all("=" in pair for pair in pairs), line
        for pair in pairs:
            key, _, value = pair.partition("=")
            assert key in record, (line, key)
            assert value == _shown(record[key]), (line, key)
