"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Statistical criteria use fixed seeds, so the suite is
fully reproducible.

Sampling-heavy criteria (7, 8, 9, 11) drive the full estimator pipeline
with its literal sample-size and median-repetition rules, but draw root
hits from the exact stationary law ("exact" transport) instead of paying
the walk's burn-in for every one of the ~10^12 chain steps the literal
schedule implies at these scales; the walk itself is validated separately
by criteria 1, 4, and 5 and by the unit suite, and criterion 14 checks the
coverage of the chain transport at its default burn-in on small trees.
"""
import json
import time
from fractions import Fraction

import numpy as np
import pytest

from totpcount import (
    CnfFormula,
    build_branching_tree,
    count_computation_paths,
    count_independent_sets,
    count_sat,
    capp,
    dnf_instance,
    estimate_size,
    exact_conductance,
    full_binary_tree,
    gap_csat,
    is_instance,
    materialize_tree,
    monotone_instance,
    random_tree,
    save_dnf,
    save_tree,
    stationary_exact,
    transition_matrix_exact,
    truncate,
    EstimatorConfig,
    ExactCount,
    ExceedsThreshold,
    count_up_to,
    ras,
)
from totpcount.chain import IndexedTree, burn_in_steps
from totpcount import cli
from totpcount.cli import main as cli_main
from totpcount.generate import random_cnf, random_dnf, random_graph, random_monotone_circuit
from totpcount.oracles import root_mass_exact, tv_distance
from totpcount.problems import save_circuit, save_graph
from totpcount.trees import depth_counts


def _criterion(num: int, ok: bool, elapsed: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} ({elapsed:.1f}s) {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def tree_suite():
    """100 random explicit trees, heights 1-10, at most 200 nodes each."""
    rng = np.random.default_rng(1001)
    suite = []
    for i in range(100):
        height = (i % 10) + 1
        prob = float(rng.uniform(0.35, 0.7))
        suite.append(random_tree(rng, height, child_prob=prob, max_nodes=200))
    return suite


def test_criterion_01_stationarity_and_reversibility(tree_suite):
    t0 = time.perf_counter()
    ok = True
    for tree in tree_suite:
        pi = stationary_exact(tree)
        nodes, rows = transition_matrix_exact(tree, lazy=True)
        row_of = dict(zip(nodes, rows))
        incoming = {p: Fraction(0) for p in nodes}
        for i, row in zip(nodes, rows):
            ok &= sum(row.values()) == 1
            for j, p_ij in row.items():
                incoming[j] += pi[i] * p_ij
        ok &= all(incoming[j] == pi[j] for j in nodes)
        for p in nodes:
            if p:
                q = p[:-1]
                ok &= pi[p] * row_of[p][q] == pi[q] * row_of[q].get(p, Fraction(0))
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _criterion(1, ok, elapsed, "exact piP = pi and reversibility on 100 trees")


def _inverse_alphas(tree) -> list[int]:
    # 1/alpha_{S_i} equals the integer weight W_i = sum over depth<=i of 2^(i-d).
    counts = depth_counts(tree)
    inv, weight = [], 0
    for r in counts:
        weight = 2 * weight + r
        inv.append(weight)
    return inv


def test_criterion_02_telescoping_identity(tree_suite):
    t0 = time.perf_counter()
    ok = True
    for tree in tree_suite:
        inv = _inverse_alphas(tree)
        counts = depth_counts(tree)
        ok &= inv[0] == 1
        ok &= inv[-1] - sum(inv[:-1]) == len(tree.nodes)
        ok &= all(counts[k] == inv[k] - 2 * inv[k - 1] for k in range(1, tree.height + 1))
    # Tie the integer route to the stationary law on a sample of trees.
    for tree in tree_suite[:10]:
        inv = _inverse_alphas(tree)
        for i in (1, tree.height):
            assert Fraction(1) / (root_mass_exact(truncate(tree, i)) / 2**i) == inv[i]
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _criterion(2, ok, elapsed, "|S| and per-level identities exact on 100 trees")


def test_criterion_03_alpha_bounds(tree_suite):
    t0 = time.perf_counter()
    ok = True
    for tree in tree_suite:
        n = tree.height
        weight = _inverse_alphas(tree)[-1]
        ok &= weight <= (n + 1) * 2**n
        ok &= root_mass_exact(tree) >= Fraction(1, n + 1)
        ok &= (weight == (n + 1) * 2**n) == (len(tree.nodes) == 2 ** (n + 1) - 1)
    for h in range(1, 7):
        fb = full_binary_tree(h)
        ok &= _inverse_alphas(fb)[-1] == (h + 1) * 2**h
        ok &= root_mass_exact(fb) == Fraction(1, h + 1)
    elapsed = time.perf_counter() - t0
    _criterion(3, ok, elapsed, "1/alpha <= (n+1)2^n with equality iff full binary")


def test_criterion_04_conductance_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    ok = True
    checked = 0
    while checked < 50:
        height = int(rng.integers(1, 9))
        tree = random_tree(rng, height, child_prob=0.45, max_nodes=18)
        if len(tree.nodes) < 2:
            continue
        report = exact_conductance(tree)
        ok &= report.phi >= Fraction(1, 4 * (tree.height + 1))
        checked += 1
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    _criterion(4, ok, elapsed, "phi >= 1/(4(n+1)) on 50 trees of <= 18 nodes")


def test_criterion_05_empirical_mixing():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    restarts = 100_000
    worst = 0.0
    ok = True
    for i in range(20):
        height = (i % 8) + 1
        tree = random_tree(rng, height, child_prob=0.5, max_nodes=120)
        steps = burn_in_steps(tree.height, 0.02)
        indexed = IndexedTree(tree)
        finals = indexed.walk_batch(restarts, steps, rng)
        freq = np.bincount(finals, minlength=len(indexed.nodes)) / restarts
        empirical = {p: freq[k] for k, p in enumerate(indexed.nodes)}
        dist = tv_distance(empirical, stationary_exact(tree))
        worst = max(worst, dist)
        ok &= dist <= 0.023
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    _criterion(5, ok, elapsed, f"TV after burn-in <= 0.023 on 20 trees (worst {worst:.4f})")


def test_criterion_06_machine_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    ok = True
    for _ in range(100):
        g = random_graph(rng, int(rng.integers(1, 11)), float(rng.uniform(0.15, 0.6)))
        inst = is_instance(g)
        f = count_independent_sets(g)
        ok &= len(materialize_tree(inst).nodes) == f
        ok &= count_computation_paths(inst) == f + 1
    for _ in range(100):
        phi = random_dnf(rng, int(rng.integers(1, 11)), int(rng.integers(0, 7)))
        inst = dnf_instance(phi)
        f = count_sat(phi)
        ok &= len(materialize_tree(inst).nodes) == f
        ok &= count_computation_paths(inst) == f + 1
    for _ in range(100):
        circuit = random_monotone_circuit(rng, int(rng.integers(1, 11)), int(rng.integers(1, 13)))
        inst = monotone_instance(circuit)
        f = count_sat(circuit)
        ok &= len(materialize_tree(inst).nodes) == f
        ok &= count_computation_paths(inst) == f + 1
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    _criterion(6, ok, elapsed, "node count = brute force and paths = f+1, 100 per family")


def test_criterion_07_additive_error_coverage():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    trees = [
        random_tree(rng, 10, child_prob=float(rng.uniform(0.45, 0.7)))
        for _ in range(50)
    ]
    xi, delta, runs = 0.1, 0.1, 100
    radius = xi * 2**10
    ok = True
    worst = 1.0
    for tree in trees:
        truth = len(tree.nodes)
        hits = 0
        for seed in range(runs):
            config = EstimatorConfig(xi, delta, seed, transport="exact")
            report = estimate_size(tree, config)
            hits += abs(report.size_estimate - truth) <= radius
        coverage = hits / runs
        worst = min(worst, coverage)
        ok &= coverage >= 0.85
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1800.0
    _criterion(7, ok, elapsed, f"coverage >= 0.85 per tree over 50x100 runs (worst {worst:.2f})")


def test_criterion_08_capp_on_cnf():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    ok = True
    worst = 1.0
    for _ in range(50):
        phi = random_cnf(rng, 10, 20, width=3)
        p_true = count_sat(phi) / 2**10
        hits = 0
        for seed in range(50):
            result = capp(phi, epsilon=0.1, delta=0.1, seed=seed, transport="exact")
            hits += abs(result.p_hat - p_true) <= 0.1
        coverage = hits / 50
        worst = min(worst, coverage)
        ok &= coverage >= 0.85
    elapsed = time.perf_counter() - t0
    _criterion(8, ok, elapsed, f"|p_hat - p| <= 0.1 in >= 85% of runs per CNF (worst {worst:.2f})")


def test_criterion_09_gapcsat():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    rho = 0.4
    instances = []
    # Unsatisfiable half: a contradiction block on variables 1 and 2 plus noise.
    block = ((1, 2), (1, -2), (-1, 2), (-1, -2))
    for _ in range(50):
        noise = random_cnf(rng, 10, 6, width=3).clauses
        phi = CnfFormula(10, block + noise)
        assert count_sat(phi) == 0
        instances.append((phi, False))
    # Satisfiable half: wide clauses keep the acceptance probability high.
    made = 0
    while made < 50:
        phi = random_cnf(rng, 10, int(rng.integers(2, 5)), width=5)
        if count_sat(phi) > rho * 2**10:
            instances.append((phi, True))
            made += 1
    wrong = 0
    for seed, (phi, satisfiable) in enumerate(instances):
        verdict = gap_csat(phi, rho=rho, delta=0.01, seed=seed, transport="exact")
        wrong += verdict.satisfiable != satisfiable
    elapsed = time.perf_counter() - t0
    ok = wrong <= 5
    _criterion(9, ok, elapsed, f"{wrong} wrong verdicts out of 100 promise instances")


def test_criterion_10_exact_threshold():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    ok = True
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(1, 9)), 0.4)
        phi = random_dnf(rng, int(rng.integers(1, 9)), int(rng.integers(0, 5)))
        circuit = random_monotone_circuit(rng, int(rng.integers(1, 9)), int(rng.integers(1, 8)))
        for inst, truth in (
            (is_instance(g), count_independent_sets(g)),
            (dnf_instance(phi), count_sat(phi)),
            (monotone_instance(circuit), count_sat(circuit)),
        ):
            for threshold in (0, max(0, truth - 1), truth, truth + 5):
                outcome = count_up_to(inst, threshold)
                ok &= outcome.nodes_visited <= threshold + 1
                if truth <= threshold:
                    ok &= outcome == ExactCount(truth, outcome.nodes_visited)
                else:
                    ok &= isinstance(outcome, ExceedsThreshold)
    elapsed = time.perf_counter() - t0
    _criterion(10, ok, elapsed, "count_up_to matches brute force, visits <= threshold+1")


def test_criterion_11_ras():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1111)
    k, beta, delta = 5.0, 1 / 3, 0.1
    n_vars = 11  # machine height 12, tau = ceil(5 * 2^6 * 4) = 1280
    tau = 1280
    ok = True
    # Exact branch: sparse formulas stay below the cutoff and come back exact.
    exact_checked = 0
    while exact_checked < 5:
        phi = random_dnf(rng, n_vars, int(rng.integers(1, 4)), max_width=4)
        f = count_sat(phi)
        if f > tau:
            continue
        exact_checked += 1
        report = ras(dnf_instance(phi), k, beta, delta, seed=1, transport="exact")
        ok &= report.mode in ("exact", "empty")
        ok &= report.size_estimate == float(f) and report.error_radius == 0.0
    # Estimator branch: dense formulas with f >= 2^(height-2), above the cutoff.
    worst = 1.0
    made = 0
    while made < 5:
        phi = random_dnf(rng, n_vars, 8, max_width=2)
        f = count_sat(phi)
        if f <= max(tau, 2**10):
            continue
        made += 1
        inst = dnf_instance(phi)
        hits = 0
        for seed in range(40):
            report = ras(inst, k, beta, delta, seed=seed, transport="exact")
            assert report.mode == "telescoping"
            hits += abs(report.size_estimate - f) <= f / k
        coverage = hits / 40
        worst = min(worst, coverage)
        ok &= coverage >= 0.85
    elapsed = time.perf_counter() - t0
    _criterion(11, ok, elapsed, f"exact branch bit-exact; relative error <= 1/5 (worst {worst:.2f})")


def test_criterion_12_step_scaling():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1212)
    tree = random_tree(rng, 3, child_prob=0.6)
    reports = {}
    for xi in (0.4, 0.2):
        config = EstimatorConfig(xi, 0.5, 11, transport="chain")
        reports[xi] = estimate_size(tree, config)
    ratio = reports[0.2].total_chain_steps / reports[0.4].total_chain_steps
    ok = 3.2 <= ratio <= 4.8
    ok &= reports[0.2].error_radius < reports[0.4].error_radius
    elapsed = time.perf_counter() - t0
    _criterion(12, ok, elapsed, f"chain steps grow by {ratio:.2f}x when xi halves")


def test_criterion_13_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1313)
    tree_path = tmp_path / "t.tree"
    save_tree(random_tree(rng, 3, child_prob=0.7), tree_path)
    dnf_path = tmp_path / "phi.dnf"
    save_dnf(random_dnf(rng, 4, 3), dnf_path)
    cnf_path = tmp_path / "phi.cnf"
    from totpcount import save_cnf

    save_cnf(random_cnf(rng, 4, 3), cnf_path)

    commands = [
        ["estimate", "--problem", "tree", "--input", str(tree_path),
         "--xi", "0.5", "--delta", "0.3", "--seed", "21"],
        ["estimate", "--problem", "dnf", "--input", str(dnf_path),
         "--xi", "0.2", "--delta", "0.2", "--seed", "22", "--transport", "exact"],
        ["estimate", "--problem", "tree", "--input", str(tree_path), "--xi", "0.3",
         "--delta", "0.2", "--seed", "23", "--transport", "exact", "--workers", "3"],
        ["ras", "--problem", "dnf", "--input", str(dnf_path),
         "--k", "3", "--beta", "0.5", "--delta", "0.2", "--seed", "24", "--transport", "exact"],
        ["capp", "--problem", "cnf", "--input", str(cnf_path),
         "--epsilon", "0.2", "--delta", "0.2", "--seed", "25", "--transport", "exact"],
        ["gapcsat", "--problem", "cnf", "--input", str(cnf_path),
         "--rho", "0.4", "--delta", "0.1", "--seed", "26", "--transport", "exact"],
    ]
    ok = True
    for argv in commands:
        records = []
        for _ in range(2):
            code = cli_main(argv)
            record = json.loads(capsys.readouterr().out.strip())
            record.pop("wall_time_s", None)
            records.append(record)
            ok &= code == 0
        ok &= records[0] == records[1]
    # Worker count must not change results, only scheduling.
    base = cli_main(commands[2][:-2] + ["--workers", "1"])
    one = json.loads(capsys.readouterr().out.strip())
    one.pop("wall_time_s", None)
    ok &= base == 0
    three_run = cli_main(commands[2])
    three = json.loads(capsys.readouterr().out.strip())
    three.pop("wall_time_s", None)
    ok &= three_run == 0
    ok &= {k: v for k, v in one.items() if k != "params"} == {
        k: v for k, v in three.items() if k != "params"
    }
    elapsed = time.perf_counter() - t0
    _criterion(13, ok, elapsed, "same seed reproduces identical estimate fields")


def _chain_run_fails(report, tree, truth) -> bool:
    """Whether a chain-transport report misses its radius or a depth's own target.

    The per-depth gate is the one the benchmark applies: at every depth
    i >= 1 the root-hit fraction lies within zeta * p_i of p_i, the exact
    root mass of the depth-i truncation.
    """
    if abs(report.size_estimate - truth) > report.error_radius:
        return True
    for i, alpha in enumerate(report.alpha_estimates[1:], start=1):
        p = float(root_mass_exact(truncate(tree, i)))
        if abs(alpha.root_hit_fraction - p) > alpha.zeta * p:
            return True
    return False


def _allowed_failures(delta: float, runs: int) -> float:
    """delta's share of ``runs`` plus a 3-sigma binomial allowance."""
    return runs * delta + 3 * np.sqrt(runs * delta * (1 - delta))


def test_criterion_14_chain_transport_coverage(tmp_path, monkeypatch):
    # Criteria 07, 08, 09 and 11 draw root hits from the exact law; this
    # one walks the chain at the default burn constant, on explicit trees
    # and on the oracle-backed trees the CLI builds.
    t0 = time.perf_counter()
    rng = np.random.default_rng(1414)
    explicit_runs, explicit_failed = 100, 0
    for k in range(explicit_runs):
        tree = random_tree(rng, 3 if k % 20 == 19 else 2, child_prob=float(rng.uniform(0.4, 0.8)))
        report = estimate_size(tree, EstimatorConfig(0.5, 0.1, k))
        explicit_failed += _chain_run_fails(report, tree, len(tree.nodes))
    ok = explicit_failed <= _allowed_failures(0.1, explicit_runs)

    reports = []
    estimate = cli.estimate_size

    def recorded(*args):
        reports.append(estimate(*args))
        return reports[-1]

    monkeypatch.setattr(cli, "estimate_size", recorded)
    draws = {
        "is": (lambda: random_graph(rng, 1, 0.4), save_graph, is_instance),
        "dnf": (lambda: random_dnf(rng, 1, int(rng.integers(1, 3))), save_dnf, dnf_instance),
        "mono": (lambda: random_monotone_circuit(rng, 1, int(rng.integers(1, 3))), save_circuit,
                 monotone_instance),
    }
    oracle_runs, oracle_failed = 0, 0
    for problem, (draw, save, adapt) in draws.items():
        for k in range(6):
            instance = draw()
            tree = build_branching_tree(adapt(instance))
            assert tree.height == 2
            path = tmp_path / f"{problem}{k}"
            save(instance, path)
            record = cli.run_estimate(problem, str(path), 1.0, 0.5, k)
            assert record["params"]["transport"] == "chain" and record["steps"] > 0
            oracle_runs += 1
            oracle_failed += _chain_run_fails(reports[-1], tree, count_up_to(tree, 8).value)
    ok &= oracle_failed <= _allowed_failures(0.5, oracle_runs)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    _criterion(
        14, ok, elapsed,
        f"chain-transport failures: {explicit_failed}/{explicit_runs} explicit (delta 0.1), "
        f"{oracle_failed}/{oracle_runs} oracle-backed (delta 0.5)",
    )
