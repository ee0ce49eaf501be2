"""Independent exact oracles and walk diagnostics, for desk-scale validation.

Everything here is deliberately brute force: subset and assignment
enumeration, exhaustive replay, and full subset enumeration for the
conductance.  The walk's exact laws are here too, in exact rationals:
its stationary law (``stationary_exact``), the root's mass under it
(``root_mass_exact``) and its transition matrix, lazy or not
(``transition_matrix_exact``).  The guards are hard errors, never silent
approximations -- these routines are the truth source the randomized
components are tested against.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .errors import SizeGuardError
from .machine import SelfReducibleInstance, _advance, build_branching_tree
from .problems import CnfFormula, DnfFormula, Graph, MonotoneCircuit
from . import trees
from .trees import ExplicitTree, NodePath, materialize

MAX_ENUM_VARS = 25
MAX_CONDUCTANCE_NODES = 18

_CHUNK = 1 << 20


def _assignment_chunks(n: int):
    total = 1 << n
    for start in range(0, total, _CHUNK):
        yield np.arange(start, min(start + _CHUNK, total), dtype=np.int64)


def count_independent_sets(g: Graph) -> int:
    """Number of nonempty independent sets, by subset enumeration."""
    if g.n_vertices > MAX_ENUM_VARS:
        raise SizeGuardError(f"enumeration guard: {g.n_vertices} > {MAX_ENUM_VARS} vertices")
    if g.n_vertices == 0:
        return 0
    edges = sorted(g.edges)
    total = 0
    for chunk in _assignment_chunks(g.n_vertices):
        ok = np.ones(chunk.shape, dtype=bool)
        for u, v in edges:
            ok &= ((chunk >> (u - 1)) & (chunk >> (v - 1)) & 1) == 0
        total += int(np.count_nonzero(ok))
    return total - 1  # drop the empty set


def count_sat(formula: DnfFormula | CnfFormula | MonotoneCircuit) -> int:
    """Exact satisfying-assignment count by full enumeration."""
    if isinstance(formula, DnfFormula):
        n = formula.n_vars
    elif isinstance(formula, CnfFormula):
        n = formula.n_vars
    elif isinstance(formula, MonotoneCircuit):
        n = formula.n_inputs
    else:
        raise TypeError(f"cannot count models of {type(formula).__name__}")
    if n > MAX_ENUM_VARS:
        raise SizeGuardError(f"enumeration guard: {n} > {MAX_ENUM_VARS} variables")
    total = 0
    for chunk in _assignment_chunks(n):
        if isinstance(formula, DnfFormula):
            sat = np.zeros(chunk.shape, dtype=bool)
            for term in formula.terms:
                hit = np.ones(chunk.shape, dtype=bool)
                for lit in term:
                    bit = (chunk >> (abs(lit) - 1)) & 1
                    hit &= bit == (1 if lit > 0 else 0)
                sat |= hit
        elif isinstance(formula, CnfFormula):
            sat = np.ones(chunk.shape, dtype=bool)
            for clause in formula.clauses:
                hit = np.zeros(chunk.shape, dtype=bool)
                for lit in clause:
                    bit = (chunk >> (abs(lit) - 1)) & 1
                    hit |= bit == (1 if lit > 0 else 0)
                sat &= hit
        else:
            if formula.output == -1:
                break
            values = [((chunk >> i) & 1).astype(bool) for i in range(n)]
            for op, a, b in formula.gates:
                values.append(values[a] & values[b] if op == "AND" else values[a] | values[b])
            sat = values[formula.output]
        total += int(np.count_nonzero(sat))
    return total


def materialize_tree(instance: SelfReducibleInstance) -> ExplicitTree:
    """Exhaustive walk of the branching-tree oracle into an explicit tree."""
    return materialize(build_branching_tree(instance))


def count_computation_paths(instance: SelfReducibleInstance) -> int:
    """Number of maximal runs of the wrapped machine, by exhaustive replay.

    Equals the branching-tree node count plus one for nonempty instances,
    and one for empty ones.  More runs than ``trees.DEFAULT_MATERIALIZE_GUARD``
    raise SizeGuardError.
    """
    guard = trees.DEFAULT_MATERIALIZE_GUARD
    nonempty = bool(instance.decision(instance.initial))
    if not nonempty:
        return 1
    paths = 0
    stack = [(instance.initial, True, 0, 0)]
    while stack:
        cur = stack.pop()
        pair = _advance(instance, cur)
        if pair is None:
            paths += 1
            if paths > guard:
                raise SizeGuardError(f"run count exceeds the guard of {guard}")
        else:
            stack.extend(pair)
    return paths


def stationary_exact(tree: ExplicitTree) -> dict[NodePath, Fraction]:
    """Exact stationary law pi(i) = 2^(n - depth(i)) / W, W = sum of weights."""
    if tree.is_empty:
        raise ValueError("the stationary law of an empty tree is undefined")
    n = tree.height
    weights = {node: 1 << (n - len(node)) for node in tree.nodes}
    total = sum(weights.values())
    return {node: Fraction(w, total) for node, w in weights.items()}


def root_mass_exact(tree: ExplicitTree) -> Fraction:
    """pi(root) without building the full map."""
    if tree.is_empty:
        raise ValueError("empty tree")
    n = tree.height
    total = sum(1 << (n - len(node)) for node in tree.nodes)
    return Fraction(1 << n, total)


def transition_matrix_exact(tree: ExplicitTree, lazy: bool = True):
    """Dense transition matrix of the walk as exact rationals.

    Returns (ordered node list, matrix as list of row dicts node->Fraction).
    """
    if tree.is_empty:
        raise ValueError("empty tree")
    nodes = sorted(tree.nodes, key=lambda p: (len(p), p))
    up = Fraction(1, 4) if lazy else Fraction(1, 2)
    down = Fraction(1, 8) if lazy else Fraction(1, 4)
    rows: list[dict[NodePath, Fraction]] = []
    for node in nodes:
        row: dict[NodePath, Fraction] = {}
        if node:
            row[node[:-1]] = up
        for child in tree.children(node):
            row[child] = down
        row[node] = row.get(node, Fraction(0)) + (1 - sum(row.values()))
        rows.append(row)
    return nodes, rows


def tv_distance(
    empirical: Mapping[NodePath, float],
    exact: Mapping[NodePath, Fraction | float],
) -> float:
    """Total variation distance (1/2) sum |empirical - exact| over the union support."""
    keys = set(empirical) | set(exact)
    return 0.5 * sum(abs(float(empirical.get(k, 0.0)) - float(exact.get(k, 0))) for k in keys)


@dataclass(frozen=True)
class ConductanceReport:
    """Exact conductance of the lazy walk, with the bound it must satisfy."""

    phi: Fraction
    minimizing_subset: frozenset[NodePath]
    bound: Fraction

    @property
    def respects_bound(self) -> bool:
        return self.phi >= self.bound


def exact_conductance(tree: ExplicitTree) -> ConductanceReport:
    """Minimize boundary weight over stationary mass across all valid subsets.

    Uses the lazy walk's edge weights w(parent u, child v) = pi(v)/4
    (equivalently pi(u)/8), enumerating every Y with 0 < pi(Y) <= 1/2.
    The normalizing factor cancels, so the search runs in integers:
    node weights 2^(n - depth), cut weight sum of child weights over cut
    edges divided by 4.

    Single-node trees have no valid subset and are rejected.
    """
    if tree.is_empty:
        raise ValueError("conductance of an empty tree is undefined")
    k = len(tree.nodes)
    if k > MAX_CONDUCTANCE_NODES:
        raise SizeGuardError(f"conductance guard: {k} > {MAX_CONDUCTANCE_NODES} nodes")
    if tree.height > 50:
        raise SizeGuardError("conductance guard: node weights 2^height overflow int64")
    if k == 1:
        raise ValueError("a single-node tree has no subset with 0 < pi(Y) <= 1/2")
    nodes = sorted(tree.nodes, key=lambda p: (len(p), p))
    index = {p: i for i, p in enumerate(nodes)}
    n = tree.height
    weights = np.array([1 << (n - len(p)) for p in nodes], dtype=np.int64)
    total = int(weights.sum())
    edges = [(index[p[:-1]], i, int(weights[i])) for i, p in enumerate(nodes) if p]

    subsets = np.arange(1 << k, dtype=np.int64)
    member = ((subsets[:, None] >> np.arange(k, dtype=np.int64)[None, :]) & 1).astype(bool)
    mass = member @ weights
    cut = np.zeros(1 << k, dtype=np.int64)
    for u, v, w_child in edges:
        cut += np.where(member[:, u] != member[:, v], w_child, 0)
    valid = (mass > 0) & (2 * mass <= total)
    if not valid.any():
        raise ValueError("no subset satisfies 0 < pi(Y) <= 1/2")
    # phi(Y) = (cut/4) / mass; distinct ratios of <= 23-bit integers are
    # separated far beyond double rounding, so the float argmin is exact.
    ratios = np.full(1 << k, np.inf)
    np.divide(cut, mass, out=ratios, where=valid)
    best = int(np.argmin(ratios))
    phi = Fraction(int(cut[best]), 4 * int(mass[best]))
    subset = frozenset(nodes[i] for i in range(k) if member[best, i])
    return ConductanceReport(phi=phi, minimizing_subset=subset, bound=Fraction(1, 4 * (n + 1)))
