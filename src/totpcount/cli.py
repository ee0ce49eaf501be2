"""Command-line interface: estimate, exact, ras, capp, gapcsat, bench.

Every command prints one JSON record to stdout and a one-line summary
of it to stderr: ``<command>: k=v ...``, where each k is a key of the
record and v its value (floats at ``.6g``), so the summary shows nothing
the record lacks.  A record's ``wall_time_s`` is the whole command, from
its runner's first line (parsing the input and building the adapter
included) to the record.  Exit codes: 0 success, 2 parse or
parameter errors, 3 internal guard violations.  Seeds are mandatory for
randomized commands so every run is reproducible.

Each command is declared once, by its runner's signature: every
parameter is a ``--name`` option (``burn_const`` is ``--burn-const``)
and a bench manifest key of the same name, typed, defaulted and required
as the signature says, with the choices of its ``Literal`` hint.
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
from typing import Literal

from .capp import capp, gap_csat
from .chain import BURN_CONST
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

TreeProblem = Literal["is", "dnf", "mono", "tree"]
CircuitFamily = Literal["dnf", "cnf", "mono"]
# capp and gapcsat also take the tree-only families, and refuse them by name.
CircuitProblem = Literal[CircuitFamily, "is", "tree"]
Transport = Literal[TRANSPORTS]

# Help text by parameter name; a name that is missing gets none.
_HELP = {
    "input": "instance file",
    "xi": "additive error target",
    "delta": "failure probability",
    "seed": "master seed",
    "burn_const": "burn-in constant of the mixing bound (default %(default)s)",
    "workers": "accepted for compatibility and must be >= 1; depths always run "
               "serially, so the result is the same at any value",
    "transport": "sampling transport: walk the chain, or draw from the exact "
                 "stationary law (validation shortcut)",
    "suite": "JSON manifest path",
    "out": "JSON-lines output path",
}


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
        f"supported: {', '.join(typing.get_args(CircuitFamily))}"
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


def _record(command: str, problem: str, input: str, params: dict, t0: float, **fields) -> dict:
    """One runner's record: the envelope every command shares around its own ``fields``.

    ``wall_time_s`` is the whole call, timed from ``t0``, the runner's first line.
    """
    return {"command": command, "problem": problem, "input": str(input), "params": params,
            **fields, "wall_time_s": time.perf_counter() - t0}


def run_estimate(
    problem: TreeProblem,
    input: str,
    xi: float,
    delta: float,
    seed: int,
    burn_const: float = BURN_CONST,
    workers: int = 1,
    transport: Transport = TRANSPORTS[0],
) -> dict:
    """Additive-error size estimate."""
    t0 = time.perf_counter()
    params = _run_params(delta, seed, burn_const, workers, transport, xi=xi)
    tree = _load_tree_source(problem, input)
    report = estimate_size(tree, EstimatorConfig(xi, delta, seed, burn_const, transport))
    return _record("estimate", problem, input, params, t0, **_report_fields(report))


def run_exact(problem: TreeProblem, input: str, threshold: int) -> dict:
    """Exact count up to a threshold."""
    t0 = time.perf_counter()
    tree = _load_tree_source(problem, input)
    outcome = count_up_to(tree, threshold)
    if isinstance(outcome, ExactCount):
        answer = {"outcome": "exact", "value": outcome.value}
    else:
        answer = {"outcome": "exceeds"}
    return _record("exact", problem, input, {"threshold": threshold}, t0,
                   nodes_visited=outcome.nodes_visited, **answer)


def run_ras(
    problem: TreeProblem,
    input: str,
    k: float,
    beta: float,
    delta: float,
    seed: int,
    burn_const: float = BURN_CONST,
    workers: int = 1,
    transport: Transport = TRANSPORTS[0],
) -> dict:
    """Relative (1 +- 1/k) approximation scheme."""
    t0 = time.perf_counter()
    params = _run_params(delta, seed, burn_const, workers, transport, k=k, beta=beta)
    tree = _load_tree_source(problem, input)
    report = ras(tree, k, beta, delta, seed, burn_const, transport)
    return _record("ras", problem, input, params, t0, relative_error_bound=1.0 / k,
                   **_report_fields(report))


def run_capp(
    problem: CircuitProblem,
    input: str,
    epsilon: float,
    delta: float,
    seed: int,
    burn_const: float = BURN_CONST,
    workers: int = 1,
    transport: Transport = TRANSPORTS[0],
) -> dict:
    """Circuit acceptance probability."""
    t0 = time.perf_counter()
    params = _run_params(delta, seed, burn_const, workers, transport, epsilon=epsilon)
    circuit = _load_circuit_source(problem, input)
    result = capp(circuit, epsilon, delta, seed, burn_const, transport)
    return _record("capp", problem, input, params, t0, p_hat=result.p_hat, route=result.route,
                   steps=result.report.total_chain_steps, samples=result.report.total_samples)


def run_gapcsat(
    problem: CircuitProblem,
    input: str,
    rho: float,
    delta: float,
    seed: int,
    burn_const: float = BURN_CONST,
    workers: int = 1,
    transport: Transport = TRANSPORTS[0],
) -> dict:
    """Gap satisfiability under the promise."""
    t0 = time.perf_counter()
    params = _run_params(delta, seed, burn_const, workers, transport, rho=rho)
    circuit = _load_circuit_source(problem, input)
    verdict = gap_csat(circuit, rho, delta, seed, burn_const, transport)
    return _record("gapcsat", problem, input, params, t0,
                   verdict="satisfiable" if verdict.satisfiable else "unsatisfiable",
                   p_hat=verdict.p_hat)


_RUNNERS = {
    "estimate": run_estimate,
    "exact": run_exact,
    "ras": run_ras,
    "capp": run_capp,
    "gapcsat": run_gapcsat,
}


def _options(runner) -> list[tuple[str, object, object]]:
    """(name, type hint, default) of each parameter of ``runner``, in signature order."""
    hints = typing.get_type_hints(runner)
    return [(p.name, hints[p.name], p.default)
            for p in inspect.signature(runner).parameters.values()]


def _choices(hint) -> tuple | None:
    return typing.get_args(hint) if typing.get_origin(hint) is Literal else None


def _parsed(value, hint):
    """A manifest ``value`` as its option would pass it to the runner.

    A choice must be one of the hint's; an int passes for a float and
    becomes one; a bool fits only a bool.  Raises TypeError otherwise.
    """
    choices = _choices(hint)
    if choices is not None:
        fits = value in choices
    elif isinstance(value, bool):
        fits = hint is bool
    else:
        fits = isinstance(value, (int, float) if hint is float else hint)
    if not fits:
        raise TypeError(value)
    return float(value) if hint is float else value


def run_bench(suite: str, out: str) -> dict:
    """Run a manifest of commands, writing one JSON record per line.

    A run's keys are its runner's parameter names (``burn_const``, where
    the command line says ``--burn-const``), and a run gives the same
    record as the same command line.  Before the first run, every entry's
    command and its parameter names, types and choices are checked as
    the command line checks them, and ``out`` is opened, so a bad suite
    or an unwritable output fails before any run starts.  Ranges (say
    ``xi`` in (0, 1]) are checked only when their run starts.
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
        for name, hint, _ in _options(runner):
            if name not in kwargs:
                continue
            try:
                kwargs[name] = _parsed(kwargs[name], hint)
            except (TypeError, OverflowError):
                choices = _choices(hint)
                expected = f"one of {choices}" if choices else hint.__name__
                raise ParseError(
                    f"{suite}: run {idx}: parameter {name!r} must be {expected}, "
                    f"got {kwargs[name]!r}"
                ) from None
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


def _commands() -> dict:
    return {**_RUNNERS, "bench": run_bench}


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per runner, with one option per parameter of its signature."""
    parser = argparse.ArgumentParser(
        prog="totpcount",
        description="Approximate counting via a lazy walk on self-reducibility trees.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, runner in _commands().items():
        # The first line of a runner's docstring is its command's help.
        sub = subs.add_parser(command, help=(runner.__doc__ or "").partition("\n")[0])
        for name, hint, default in _options(runner):
            required = default is inspect.Parameter.empty
            choices = _choices(hint)
            sub.add_argument(
                "--" + name.replace("_", "-"),
                type=None if choices or hint is str else hint,
                choices=choices,
                required=required,
                default=None if required else default,
                help=_HELP.get(name),
            )
    return parser


# The record keys each command's stderr summary shows, in order.
_SUMMARY_KEYS = {
    "estimate": ("estimate", "error_radius", "fraction_clamped", "steps"),
    "exact": ("outcome", "value", "nodes_visited"),
    "ras": ("estimate", "mode", "relative_error_bound"),
    "capp": ("p_hat", "route"),
    "gapcsat": ("verdict", "p_hat"),
    "bench": ("runs", "out"),
}


def _summary(record: dict) -> str:
    """``<command>: k=v ...`` over the command's summary keys that the record has, floats at .6g."""
    command = record["command"]
    shown = (f"{k}={record[k]:.6g}" if isinstance(record[k], float) else f"{k}={record[k]}"
             for k in _SUMMARY_KEYS[command] if k in record)
    return " ".join((f"{command}:", *shown))


def main(argv=None) -> int:
    kwargs = vars(build_parser().parse_args(argv))
    runner = _commands()[kwargs.pop("command")]
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
