"""Workloads of the totpcount benchmark: seeded inputs, CLI calls, checks.

A workload is a list of passes.  Pass ``p`` of a workload is generated
from ``SeedSequence([seed, family, p])`` alone, so the same seed always
gives the same inputs, and every call in a run reads an input file of its
own.  The height-3 walk-oracle inputs come from so small a space that
their contents repeat; the runner clears the package's caches after every
call, so no call finds an earlier call's work cached.
Each call is a keyword dict for one of the ``totpcount.cli.run_*``
runners, exactly as a ``totpcount bench`` manifest entry holds it.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from totpcount import cli, generate, machine, oracles, problems, trees
from totpcount.problems import CnfFormula

# Walk-oracle burn-in constant.  At the package default (2.0) one call plans
# 3.4e7 scalar steps (over two minutes); 0.025 keeps the same code path and
# schedule shape at 4.2e5 steps, two to three seconds per call.
WALK_ORACLE_BURN = 0.025
WALK_ORACLE_COUNT = 3
# Sizes of the enumerate-oracle inputs: a formula call takes about 0.3 s,
# so a 35-s run holds a dozen passes of seven calls.
ENUM_VARS = 14
GRAPH_VERTICES = 18
GAP_RHO = 0.2
EXACT_THRESHOLD = 2000


@dataclass
class Call:
    """One CLI call: its runner keywords plus the input object for the oracle."""

    command: str
    kwargs: dict[str, Any]  # "input" is relative to the run directory
    instance: Any

    def manifest_entry(self) -> dict[str, Any]:
        return {"command": self.command, **self.kwargs}

    def run(self, run_dir: Path) -> tuple[dict, list | None]:
        """(CLI record, per-depth (root-hit fraction, zeta) of an ``estimate`` call)."""
        kwargs = dict(self.kwargs, input=str(run_dir / self.kwargs["input"]))
        if self.command != "estimate":
            return getattr(cli, f"run_{self.command}")(**kwargs), None
        with _captured_reports() as reports:
            record = cli.run_estimate(**kwargs)
        (report,) = reports
        return record, [(a.root_hit_fraction, a.zeta) for a in report.alpha_estimates]


@contextmanager
def _captured_reports():
    """Collect the EstimateReport behind each ``cli.run_estimate`` record."""
    original = cli.__dict__.get("estimate_size")
    if original is None:
        raise RuntimeError("totpcount.cli.estimate_size is gone; the depth check needs it")
    reports: list = []

    def capture(*args, **kwargs):
        reports.append(original(*args, **kwargs))
        return reports[-1]

    cli.estimate_size = capture
    try:
        yield reports
    finally:
        cli.estimate_size = original


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _write(obj, run_dir: Path, name: str) -> str:
    rel = f"inputs/{name}"
    path = run_dir / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(obj, trees.ExplicitTree):
        trees.save_tree(obj, path)
    elif isinstance(obj, problems.Graph):
        problems.save_graph(obj, path)
    elif isinstance(obj, problems.DnfFormula):
        problems.save_dnf(obj, path)
    elif isinstance(obj, problems.CnfFormula):
        problems.save_cnf(obj, path)
    else:
        problems.save_circuit(obj, path)
    return rel


def _chain_estimate(w: "Workload", rel, instance, problem, rng) -> Call:
    kwargs = dict(problem=problem, input=rel, xi=w.xi, delta=w.delta, seed=_seed(rng),
                  burn_const=w.burn_const, workers=1, transport="chain")
    return Call("estimate", kwargs, instance)


def _walk_explicit(w, rng, run_dir, p) -> list[Call]:
    tree = trees.random_tree(rng, w.height)
    rel = _write(tree, run_dir, f"p{p:04d}.tree")
    return [_chain_estimate(w, rel, tree, "tree", rng)]


def _walk_oracle(w, rng, run_dir, p) -> list[Call]:
    # Call cost grows with the tree (one to four nodes here), so each input
    # is drawn until its count is WALK_ORACLE_COUNT: the run's median then
    # does not depend on how many small trees a seed happens to draw.
    inputs = [
        ("is", lambda: generate.random_graph(rng, 2, 0.5), "graph"),
        ("dnf", lambda: generate.random_dnf(rng, 2, 2, max_width=2), "dnf"),
        ("mono", lambda: generate.random_monotone_circuit(rng, 2, 3), "mono"),
    ]
    calls = []
    for problem, draw, ext in inputs:
        instance = draw()
        while truth(instance) != WALK_ORACLE_COUNT:
            instance = draw()
        rel = _write(instance, run_dir, f"p{p:04d}-{problem}.{ext}")
        calls.append(_chain_estimate(w, rel, instance, problem, rng))
    return calls


def _in_band(draw, n_inputs: int, lo: float, hi: float):
    """First draw whose acceptance probability lies in [lo, hi]."""
    while True:
        circuit = draw()
        if lo <= oracles.count_sat(circuit) / 2.0**n_inputs <= hi:
            return circuit


def _unsat_cnf(rng, n_vars: int, extra: int) -> CnfFormula:
    """Unsatisfiable by construction: all eight sign patterns over three variables."""
    a, b, c = (int(v) for v in rng.choice(np.arange(1, n_vars + 1), size=3, replace=False))
    core = [(sa * a, sb * b, sc * c) for sa in (1, -1) for sb in (1, -1) for sc in (1, -1)]
    clauses = tuple(core) + generate.random_cnf(rng, n_vars, extra).clauses
    order = rng.permutation(len(clauses))
    return CnfFormula(n_vars, tuple(clauses[i] for i in order))


def _enumerate_oracle(w, rng, run_dir, p) -> list[Call]:
    capp_kw = dict(epsilon=0.1, delta=0.1, burn_const=2.0, workers=1, transport="exact")
    gap_kw = dict(rho=GAP_RHO, delta=0.1, burn_const=2.0, workers=1, transport="exact")
    n = ENUM_VARS
    calls = []
    # Enumeration cost follows the node count: the model count, or for CNF
    # inputs (complement route) the non-model count.  The formulas are sized
    # (and the monotone circuit drawn into a band of p) so that each call
    # enumerates most of the 2^n leaves, so the run's median falls among
    # calls of similar cost whatever the seed.  Both gap instances sit
    # inside the promise: an unsatisfiable core, or p >= 0.25 > rho.
    circuits = [
        ("capp", "cnf", generate.random_cnf(rng, n, 40), capp_kw),
        ("capp", "dnf", generate.random_dnf(rng, n, 14), capp_kw),
        ("capp", "mono", _in_band(lambda: generate.random_monotone_circuit(rng, n, 24),
                                  n, 0.85, 1.0), capp_kw),
        ("gapcsat", "cnf", _unsat_cnf(rng, n, 24), gap_kw),
        ("gapcsat", "cnf", _in_band(lambda: generate.random_cnf(rng, n, 9), n, 0.25, 0.35),
         gap_kw),
    ]
    for k, (command, problem, instance, kw) in enumerate(circuits):
        rel = _write(instance, run_dir, f"p{p:04d}-{k}.{problem}")
        calls.append(Call(command, dict(problem=problem, input=rel, seed=_seed(rng), **kw), instance))
    g_exact = generate.random_graph(rng, GRAPH_VERTICES, 0.3)
    rel = _write(g_exact, run_dir, f"p{p:04d}-exact.graph")
    calls.append(Call("exact", dict(problem="is", input=rel, threshold=EXACT_THRESHOLD), g_exact))
    g_ras = generate.random_graph(rng, GRAPH_VERTICES, 0.3)
    rel = _write(g_ras, run_dir, f"p{p:04d}-ras.graph")
    calls.append(Call("ras", dict(problem="is", input=rel, k=2.0, beta=0.3, delta=0.1,
                                  seed=_seed(rng), burn_const=2.0, workers=1,
                                  transport="exact"), g_ras))
    return calls


@dataclass(frozen=True)
class Workload:
    """A pass generator plus the settings of its chain ``estimate`` calls."""

    name: str
    family: int  # generator key of the workload's inputs
    make: Callable[..., list[Call]]
    height: int = 0  # tree height of every chain call (0: no chain calls)
    xi: float = 1.0
    delta: float = 0.5
    burn_const: float = 2.0

    def make_pass(self, seed: int, p: int, run_dir: Path) -> list[Call]:
        # SeedSequence takes nonnegative entropy only.
        rng = np.random.default_rng(np.random.SeedSequence([seed % 2**64, self.family, p]))
        return self.make(self, rng, run_dir, p)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("walk-explicit", 1, _walk_explicit, height=4, xi=1.0, delta=0.5),
        Workload("walk-oracle", 2, _walk_oracle, height=3, xi=1.0, delta=0.9,
                 burn_const=WALK_ORACLE_BURN),
        Workload("enumerate-oracle", 3, _enumerate_oracle),
    )
}


# ---------------------------------------------------------------------------
# correctness


def truth(instance) -> int:
    """Oracle count: tree nodes, nonempty independent sets, or models."""
    if isinstance(instance, trees.ExplicitTree):
        return trees.exact_size(instance)
    if isinstance(instance, problems.Graph):
        return oracles.count_independent_sets(instance)
    return oracles.count_sat(instance)


_ADAPTERS = {"is": problems.is_instance, "dnf": problems.dnf_instance,
             "mono": problems.monotone_instance}


def root_masses(problem: str, instance, count: int) -> list[float]:
    """Exact stationary root mass of the depth-i truncation, for i = 0..height.

    The truncation S_i keeps the nodes of depth <= i; a node of depth d
    weighs 2^(i-d), and the root's mass is 2^i over the total weight.
    """
    tree = instance if problem == "tree" else trees.materialize(
        machine.build_branching_tree(_ADAPTERS[problem](instance)))
    if len(tree.nodes) != count:
        raise ValueError(f"tree has {len(tree.nodes)} nodes, the oracle counts {count}")
    if count == 0:
        return []
    per_depth = [0] * (tree.height + 1)
    for node in tree.nodes:
        per_depth[len(node)] += 1
    masses, weight = [], 0
    for i, nodes in enumerate(per_depth):
        weight = 2 * weight + nodes
        masses.append(2.0**i / weight)
    return masses


def _n_inputs(instance) -> int:
    return instance.n_inputs if isinstance(instance, problems.MonotoneCircuit) else instance.n_vars


def check(call: Call, record: dict, count: int, alphas: list | None) -> tuple[bool, float | None]:
    """(passed, |error| / radius) of one record against the oracle count.

    An ``estimate`` must also meet, at every depth i >= 1, its own target
    |root-hit fraction - exact root mass| <= zeta * mass: the radius alone
    (xi * 2^height at xi = 1) admits any count.  The ratio is given for
    the randomized estimates (estimate, capp) only.
    """
    kw = call.kwargs
    if call.command == "estimate":
        masses = root_masses(kw["problem"], call.instance, count)
        depths_ok = len(alphas) == len(masses) and all(
            abs(p_hat - p) <= zeta * p for (p_hat, zeta), p in zip(alphas[1:], masses[1:]))
        err, radius = abs(record["estimate"] - count), record["error_radius"]
        return depths_ok and err <= radius, err / radius if radius else 0.0
    if call.command == "capp":
        err = abs(record["p_hat"] - count / 2.0 ** _n_inputs(call.instance))
        return err <= kw["epsilon"], err / kw["epsilon"]
    if call.command == "gapcsat":
        if 0 < count <= kw["rho"] * 2.0 ** _n_inputs(call.instance):
            raise ValueError(f"{kw['input']}: generated outside the gap promise")
        expected = "satisfiable" if count > 0 else "unsatisfiable"
        return record["verdict"] == expected, None
    if call.command == "exact":
        if count <= kw["threshold"]:
            return record["outcome"] == "exact" and record["value"] == count, None
        return record["outcome"] == "exceeds", None
    if call.command == "ras":
        return abs(record["estimate"] - count) <= count / kw["k"], None
    raise ValueError(f"no check for command {call.command!r}")
