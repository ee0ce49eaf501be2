"""Command-line interface: estimate, exact, ras, capp, gapcsat, bench.

Every command prints one JSON object to stdout (machine-readable) and a
one-line human summary to stderr.  Exit codes: 0 success, 2 parse or
parameter errors, 3 internal guard violations.  Seeds are mandatory for
randomized commands so every run is reproducible.
"""
from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
import time
import typing
from pathlib import Path

from .capp import capp, gap_csat
from .errors import (
    MalformedInstanceError,
    ParseError,
    SizeGuardError,
    UnsupportedFamilyError,
)
from .estimator import (
    TRANSPORTS,
    EstimatorConfig,
    ExactCount,
    count_up_to,
    estimate_size,
    ras,
)
from .machine import build_branching_tree
from .problems import (
    dnf_instance,
    is_instance,
    load_cnf,
    load_dnf,
    load_graph,
    load_circuit,
    monotone_instance,
)
from .trees import load_tree

INSTANCE_PROBLEMS = ("is", "dnf", "mono")
TREE_PROBLEMS = INSTANCE_PROBLEMS + ("tree",)
CIRCUIT_PROBLEMS = ("dnf", "cnf", "mono")


def _load_tree_source(problem: str, path: str):
    if problem == "tree":
        return load_tree(path)
    if problem == "is":
        return build_branching_tree(is_instance(load_graph(path)))
    if problem == "dnf":
        return build_branching_tree(dnf_instance(load_dnf(path)))
    if problem == "mono":
        return build_branching_tree(monotone_instance(load_circuit(path)))
    raise ValueError(f"unknown problem family {problem!r}")


def _load_circuit_source(problem: str, path: str):
    if problem == "dnf":
        return load_dnf(path)
    if problem == "cnf":
        return load_cnf(path)
    if problem == "mono":
        return load_circuit(path)
    raise UnsupportedFamilyError(
        f"family {problem!r} has no acceptance-probability solver; "
        f"supported: {', '.join(CIRCUIT_PROBLEMS)}"
    )


def _report_fields(report) -> dict:
    return {
        "estimate": report.size_estimate,
        "estimate_clamped": report.size_clamped,
        "fraction": report.fraction,
        "fraction_clamped": min(max(report.fraction, 0.0), 1.0),
        "error_radius": report.error_radius,
        "height": report.height,
        "steps": report.total_chain_steps,
        "samples": report.total_samples,
        "mode": report.mode,
        "degenerate_depths": report.degenerate_depths,
    }


def _run_params(
    delta: float, seed: int, burn_const: float, workers: int, transport: str, **own
) -> dict:
    """The record's ``params``, checked before any input is read.

    Any worker count of at least one runs the same serial path.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if not 0 < burn_const < math.inf:
        raise ValueError(f"burn_const must be positive and finite, got {burn_const}")
    return {**own, "delta": delta, "seed": seed, "burn_const": burn_const,
            "workers": workers, "transport": transport}


def run_estimate(
    problem: str,
    input: str,
    xi: float,
    delta: float,
    seed: int,
    burn_const: float = 2.0,
    workers: int = 1,
    transport: str = "chain",
) -> dict:
    params = _run_params(delta, seed, burn_const, workers, transport, xi=xi)
    tree = _load_tree_source(problem, input)
    report = estimate_size(tree, EstimatorConfig(xi, delta, seed, burn_const, transport))
    return {
        "command": "estimate",
        "problem": problem,
        "input": str(input),
        "params": params,
        **_report_fields(report),
        "wall_time_s": report.wall_time_s,
    }


def run_exact(problem: str, input: str, threshold: int) -> dict:
    t0 = time.perf_counter()
    tree = _load_tree_source(problem, input)
    outcome = count_up_to(tree, threshold)
    record = {
        "command": "exact",
        "problem": problem,
        "input": str(input),
        "params": {"threshold": threshold},
        "nodes_visited": outcome.nodes_visited,
        "wall_time_s": time.perf_counter() - t0,
    }
    if isinstance(outcome, ExactCount):
        record["outcome"] = "exact"
        record["value"] = outcome.value
    else:
        record["outcome"] = "exceeds"
    return record


def run_ras(
    problem: str,
    input: str,
    k: float,
    beta: float,
    delta: float,
    seed: int,
    burn_const: float = 2.0,
    workers: int = 1,
    transport: str = "chain",
) -> dict:
    params = _run_params(delta, seed, burn_const, workers, transport, k=k, beta=beta)
    tree = _load_tree_source(problem, input)
    report = ras(tree, k, beta, delta, seed, burn_const, transport)
    return {
        "command": "ras",
        "problem": problem,
        "input": str(input),
        "params": params,
        "relative_error_bound": 1.0 / k,
        **_report_fields(report),
        "wall_time_s": report.wall_time_s,
    }


def run_capp(
    problem: str,
    input: str,
    epsilon: float,
    delta: float,
    seed: int,
    burn_const: float = 2.0,
    workers: int = 1,
    transport: str = "chain",
) -> dict:
    params = _run_params(delta, seed, burn_const, workers, transport, epsilon=epsilon)
    circuit = _load_circuit_source(problem, input)
    result = capp(circuit, epsilon, delta, seed, burn_const, transport)
    return {
        "command": "capp",
        "problem": problem,
        "input": str(input),
        "params": params,
        "p_hat": result.p_hat,
        "route": result.route,
        "steps": result.report.total_chain_steps,
        "samples": result.report.total_samples,
        "wall_time_s": result.report.wall_time_s,
    }


def run_gapcsat(
    problem: str,
    input: str,
    rho: float,
    delta: float,
    seed: int,
    burn_const: float = 2.0,
    workers: int = 1,
    transport: str = "chain",
) -> dict:
    t0 = time.perf_counter()
    params = _run_params(delta, seed, burn_const, workers, transport, rho=rho)
    circuit = _load_circuit_source(problem, input)
    verdict = gap_csat(circuit, rho, delta, seed, burn_const, transport)
    return {
        "command": "gapcsat",
        "problem": problem,
        "input": str(input),
        "params": params,
        "verdict": "satisfiable" if verdict.satisfiable else "unsatisfiable",
        "p_hat": verdict.p_hat,
        "wall_time_s": time.perf_counter() - t0,
    }


_RUNNERS = {
    "estimate": run_estimate,
    "exact": run_exact,
    "ras": run_ras,
    "capp": run_capp,
    "gapcsat": run_gapcsat,
}


def _fits(value, hint: type) -> bool:
    """Whether a manifest value has the runner's type: an int passes for a float, a bool never."""
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def run_bench(suite: str, out: str) -> dict:
    """Execute a manifest of runs and write one JSON record per line.

    Every entry is checked (command, argument binding and types) and
    ``out`` is opened before the first run, so a bad suite or an
    unwritable output fails before any run starts.
    """
    t0 = time.perf_counter()
    suite_path = Path(suite)
    try:
        manifest = json.loads(suite_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{suite}: cannot read manifest: {exc}") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("runs"), list):
        raise ParseError(f"{suite}: manifest must be an object with a 'runs' list")
    runs = []
    for idx, entry in enumerate(manifest["runs"]):
        if not isinstance(entry, dict) or "command" not in entry:
            raise ParseError(f"{suite}: run {idx} must be an object with a 'command'")
        kwargs = dict(entry)
        command = kwargs.pop("command")
        runner = _RUNNERS.get(command)
        if runner is None:
            raise ParseError(f"{suite}: run {idx}: unknown command {command!r}")
        try:
            inspect.signature(runner).bind(**kwargs)
        except TypeError as exc:
            raise ParseError(f"{suite}: run {idx}: bad arguments: {exc}") from exc
        for name, hint in typing.get_type_hints(runner).items():
            if name in kwargs and not _fits(kwargs[name], hint):
                raise ParseError(
                    f"{suite}: run {idx}: parameter {name!r} must be {hint.__name__}, "
                    f"got {kwargs[name]!r}"
                )
        if "input" in kwargs and not Path(kwargs["input"]).is_absolute():
            kwargs["input"] = str(suite_path.parent / kwargs["input"])
        runs.append((runner, kwargs))
    with open(out, "w", encoding="utf-8") as fh:
        for runner, kwargs in runs:
            fh.write(json.dumps(runner(**kwargs), sort_keys=True) + "\n")
    return {
        "command": "bench",
        "suite": str(suite),
        "out": str(out),
        "runs": len(runs),
        "wall_time_s": time.perf_counter() - t0,
    }


def _add_common(sub, seed_required=True):
    sub.add_argument("--input", required=True, help="instance file")
    sub.add_argument("--delta", type=float, required=True, help="failure probability")
    sub.add_argument("--seed", type=int, required=seed_required, help="master seed")
    sub.add_argument("--burn-const", type=float, default=2.0, dest="burn_const",
                     help="burn-in constant of the mixing bound (default 2)")
    sub.add_argument("--workers", type=int, default=1,
                     help="accepted for compatibility and must be >= 1; depths "
                          "always run serially, so the result is the same at any value")
    sub.add_argument("--transport", choices=TRANSPORTS, default="chain",
                     help="sampling transport: walk the chain, or draw from the "
                          "exact stationary law (validation shortcut)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="totpcount",
        description="Approximate counting via a lazy walk on self-reducibility trees.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("estimate", help="additive-error size estimate")
    p.add_argument("--problem", choices=TREE_PROBLEMS, required=True)
    p.add_argument("--xi", type=float, required=True, help="additive error target")
    _add_common(p)

    p = subs.add_parser("exact", help="exact count up to a threshold")
    p.add_argument("--problem", choices=TREE_PROBLEMS, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--threshold", type=int, required=True)

    p = subs.add_parser("ras", help="relative (1 +- 1/k) approximation scheme")
    p.add_argument("--problem", choices=TREE_PROBLEMS, required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    _add_common(p)

    p = subs.add_parser("capp", help="circuit acceptance probability")
    p.add_argument("--problem", choices=CIRCUIT_PROBLEMS + ("is", "tree"), required=True)
    p.add_argument("--epsilon", type=float, required=True)
    _add_common(p)

    p = subs.add_parser("gapcsat", help="gap satisfiability under the promise")
    p.add_argument("--problem", choices=CIRCUIT_PROBLEMS + ("is", "tree"), required=True)
    p.add_argument("--rho", type=float, required=True)
    _add_common(p)

    p = subs.add_parser("bench", help="run a manifest of commands")
    p.add_argument("--suite", required=True, help="JSON manifest path")
    p.add_argument("--out", required=True, help="JSON-lines output path")

    return parser


def _summary(record: dict) -> str:
    command = record.get("command")
    if command == "estimate":
        return (
            f"estimate={record['estimate']:.6g} +- {record['error_radius']:.6g} "
            f"(fraction={record['fraction_clamped']:.6g}, steps={record['steps']})"
        )
    if command == "exact":
        if record["outcome"] == "exact":
            return f"exact count: {record['value']} (visited {record['nodes_visited']})"
        return f"count exceeds {record['params']['threshold']}"
    if command == "ras":
        return (
            f"estimate={record['estimate']:.6g} mode={record['mode']} "
            f"(relative error <= {record['relative_error_bound']:.4g} when estimated)"
        )
    if command == "capp":
        return f"p_hat={record['p_hat']:.6g} via {record['route']} route"
    if command == "gapcsat":
        return f"verdict: {record['verdict']} (p_hat={record['p_hat']:.6g})"
    if command == "bench":
        return f"ran {record['runs']} benchmark entries -> {record['out']}"
    return command or ""


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    kwargs = {k: v for k, v in vars(args).items() if k not in ("command",)}
    runner = _RUNNERS.get(args.command, run_bench if args.command == "bench" else None)
    try:
        record = runner(**kwargs)
    except (ValueError, ParseError, UnsupportedFamilyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SizeGuardError, MalformedInstanceError) as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(record, sort_keys=True))
    print(_summary(record), file=sys.stderr)
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
