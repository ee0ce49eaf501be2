"""Concrete problem families and their self-reducible machines.

Each adapter turns an input object into a ``SelfReducibleInstance`` whose
branching tree has exactly as many nodes as the quantity being counted:

* ``is_instance``       -- nonempty independent sets of a graph,
* ``dnf_instance``      -- satisfying assignments of a DNF formula,
* ``monotone_instance`` -- satisfying assignments of a monotone circuit.

All adapters split on the lowest-numbered remaining vertex/variable, so
runs are reproducible, and declare ``branch_bound = n + 1`` (the +1 pays
for the synthetic final split).  DNF and monotone steps are bitmask
operations on an int carried in the state: the terms still consistent
with the prefix, or the circuit's node values with unassigned inputs
at 1.  ``cnf_complement`` maps a CNF formula to the DNF of its
negation, which counts the *non*-solutions.

The independent-set count deliberately excludes the empty set: the
decision version must be nontrivially easy (any single vertex is an
independent set), which is an assertion about nonempty sets.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError
from .machine import HALT, Branch, Deterministic, SelfReducibleInstance, StepOutcome

# ---------------------------------------------------------------------------
# input objects


@dataclass(frozen=True)
class Graph:
    """Undirected graph on vertices 1..n_vertices, no self-loops."""

    n_vertices: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n_vertices < 0:
            raise ValueError("n_vertices must be nonnegative")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u <= self.n_vertices and 1 <= v <= self.n_vertices):
                raise ValueError(f"edge ({u},{v}) references an unknown vertex")
            if u > v:
                raise ValueError("edges must be stored as (min, max) pairs")

    @staticmethod
    def from_edges(n_vertices: int, edges) -> "Graph":
        return Graph(n_vertices, frozenset((min(u, v), max(u, v)) for u, v in edges))

    def adjacency(self) -> dict[int, frozenset[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(1, self.n_vertices + 1)}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return {v: frozenset(s) for v, s in adj.items()}


def _check_formula(n_vars: int, groups: tuple[tuple[int, ...], ...], kind: str) -> None:
    if n_vars < 0:
        raise ValueError("n_vars must be nonnegative")
    for lits in groups:
        seen: set[int] = set()
        for lit in lits:
            if lit == 0 or abs(lit) > n_vars:
                raise ValueError(f"literal {lit} outside variables 1..{n_vars}")
            if -lit in seen:
                raise ValueError(f"{kind} contains both {abs(lit)} and its negation")
            seen.add(lit)


@dataclass(frozen=True)
class DnfFormula:
    """Disjunction of terms; each term is a conjunction of literals."""

    n_vars: int
    terms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_formula(self.n_vars, self.terms, "term")


@dataclass(frozen=True)
class CnfFormula:
    """Conjunction of clauses; each clause a disjunction of literals."""

    n_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_formula(self.n_vars, self.clauses, "clause")


@dataclass(frozen=True)
class MonotoneCircuit:
    """AND/OR circuit over inputs 0..n_inputs-1, gates in topological order.

    Gate operands reference node indices: 0..n_inputs-1 are inputs, and
    n_inputs+j is gate j.  ``output`` is a node index.
    """

    n_inputs: int
    gates: tuple[tuple[str, int, int], ...]
    output: int

    def __post_init__(self):
        if self.n_inputs < 0:
            raise ValueError("n_inputs must be nonnegative")
        for j, (op, a, b) in enumerate(self.gates):
            if op not in ("AND", "OR"):
                raise ValueError(f"gate {j}: unknown operation {op!r}")
            limit = self.n_inputs + j
            if not (0 <= a < limit and 0 <= b < limit):
                raise ValueError(f"gate {j}: operands must reference earlier nodes")
        if self.n_inputs + len(self.gates) == 0:
            if self.output != -1:
                raise ValueError("empty circuit must use output=-1")
        elif not 0 <= self.output < self.n_inputs + len(self.gates):
            raise ValueError("output references an unknown node")


# ---------------------------------------------------------------------------
# adapters


def is_instance(g: Graph) -> SelfReducibleInstance:
    """Machine counting nonempty independent sets of ``g``.

    A state is (residual vertices, committed?): choosing 0 at vertex v
    puts v in the set (v and its neighborhood leave the residual),
    choosing 1 leaves v out.  A state has solutions iff some vertex
    remains or something was already committed.
    """
    adj = g.adjacency()
    initial = (frozenset(range(1, g.n_vertices + 1)), False)

    def decision(state) -> bool:
        residual, committed = state
        return bool(residual) or committed

    def step(state) -> StepOutcome:
        residual, committed = state
        if not residual:
            return HALT
        v = min(residual)
        took = (residual - {v} - adj[v], True)
        skipped = (residual - {v}, committed)
        if decision(skipped):
            return Branch(took, skipped)
        return Deterministic(took)

    return SelfReducibleInstance(
        initial=initial,
        step=step,
        decision=decision,
        branch_bound=g.n_vertices + 1,
        step_budget=2 * (g.n_vertices + 2),
    )


def dnf_instance(phi: DnfFormula) -> SelfReducibleInstance:
    """Machine counting satisfying assignments of a DNF formula.

    A state is (k, mask): the first k variables are assigned, and bit j of
    mask is set iff term j is consistent with that prefix, so the prefix
    has solutions iff mask != 0.  Variable k+1 has two precomputed kill
    masks, the terms that setting it to 0 (its positive literals) or to 1
    (its negative literals) falsifies; a step clears one of them from the
    mask for each choice.
    """
    n = phi.n_vars
    terms = phi.terms
    kill = [[0, 0] for _ in range(n)]  # kill[var - 1][value]
    for j, term in enumerate(terms):
        for lit in term:
            kill[abs(lit) - 1][1 if lit < 0 else 0] |= 1 << j
    initial = (0, (1 << len(terms)) - 1)

    def decision(state: tuple[int, int]) -> bool:
        return state[1] != 0

    def step(state: tuple[int, int]) -> StepOutcome:
        k, mask = state
        if k == n:
            return HALT
        kill0, kill1 = kill[k]
        low, high = mask & ~kill0, mask & ~kill1
        if low and high:
            return Branch((k + 1, low), (k + 1, high))
        if low:
            return Deterministic((k + 1, low))
        if high:
            return Deterministic((k + 1, high))
        return HALT

    return SelfReducibleInstance(
        initial=initial,
        step=step,
        decision=decision,
        branch_bound=n + 1,
        step_budget=2 * (n + 2),
    )


def monotone_instance(circuit: MonotoneCircuit) -> SelfReducibleInstance:
    """Machine counting satisfying assignments of a monotone circuit.

    A state is (k, values): the first k inputs are assigned, and bit v of
    values, for v in the output's cone (below), is node v's value when
    every unassigned input is 1.
    Monotonicity makes the decision exact: the prefix leads to a solution
    iff the output's bit is set.  AND and OR of 1s are 1, so with nothing
    assigned every node is 1.

    Setting input k to 1 changes no value, since the state already
    assumed it, so the high child is the state's values again: free, and
    a solution prefix whenever the state is one.  Setting it to 0 can only
    clear bits.  ``lower`` clears input k and then follows a fanout table
    built once per instance: each node lists its readers as (gate bit,
    gate node, other-operand bit), the other bit 0 for an AND gate.  A
    reader still at 1 goes to 0 when its other operand is 0, which covers
    AND gates, OR gates and gates that read one node twice, and each node
    that goes to 0 has its own readers rechecked.

    Only the bits of the output's cone, the output and the nodes it reads
    directly or through other gates, are kept current.  A gate outside
    the cone has no fanout entries, so its bit stays 1 whatever the
    inputs.  No gate in the cone reads a gate outside it, so the output's
    bit, the only bit that steps and decisions read, is exact.
    """
    n = circuit.n_inputs
    n_nodes = n + len(circuit.gates)
    # Gates come in topological order, so one pass from the output back
    # marks every node the output reads.
    cone = [False] * n_nodes
    if circuit.output != -1:
        cone[circuit.output] = True
    for g in range(n_nodes - 1, n - 1, -1):
        if cone[g]:
            _, a, b = circuit.gates[g - n]
            cone[a] = cone[b] = True
    fanout: list[list[tuple[int, int, int]]] = [[] for _ in range(n_nodes)]
    for g, (op, a, b) in enumerate(circuit.gates, start=n):
        if not cone[g]:
            continue
        fanout[a].append((1 << g, g, 0 if op == "AND" else 1 << b))
        if b != a:
            fanout[b].append((1 << g, g, 0 if op == "AND" else 1 << a))
    out_bit = 0 if circuit.output == -1 else 1 << circuit.output
    initial = (0, (1 << n_nodes) - 1)

    def lower(values: int, k: int) -> int:
        values &= ~(1 << k)
        cleared = [k]
        while cleared:
            for gbit, g, other in fanout[cleared.pop()]:
                if values & gbit and not values & other:
                    values ^= gbit
                    cleared.append(g)
        return values

    def decision(state: tuple[int, int]) -> bool:
        return bool(state[1] & out_bit)

    def step(state: tuple[int, int]) -> StepOutcome:
        k, values = state
        if k == n:
            return HALT
        low = lower(values, k)
        if low & out_bit:
            return Branch((k + 1, low), (k + 1, values))
        return Deterministic((k + 1, values))

    return SelfReducibleInstance(
        initial=initial,
        step=step,
        decision=decision,
        branch_bound=n + 1,
        step_budget=2 * (n + 2),
    )


def cnf_complement(phi: CnfFormula) -> DnfFormula:
    """DNF of the negation: clause (l1 v ... v lk) becomes term (-l1 ^ ... ^ -lk).

    The result counts non-solutions of ``phi``: sat(result) = 2^n - sat(phi).
    """
    return DnfFormula(
        n_vars=phi.n_vars,
        terms=tuple(tuple(-lit for lit in clause) for clause in phi.clauses),
    )


# ---------------------------------------------------------------------------
# file formats


def _header(line: str, kind: str, path, lineno: int) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 4 or parts[0] != "p" or parts[1] != kind:
        raise ParseError(f"{path}:{lineno}: expected header 'p {kind} N M'")
    try:
        n, m = int(parts[2]), int(parts[3])
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: non-integer header fields") from exc
    if n < 0 or m < 0:
        raise ParseError(f"{path}:{lineno}: negative header fields")
    return n, m


def _read_dimacs(path, kind: str, item: str) -> tuple[int, int, list[tuple[int, str]]]:
    """The one 'p kind N M' header of a DIMACS-style file, and its numbered body lines.

    Blank lines and 'c' comments are skipped; a body line before the
    header, or a second header, is a ParseError.
    """
    header = None
    body: list[tuple[int, str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            if line.startswith("p"):
                if header is not None:
                    raise ParseError(f"{path}:{lineno}: second header line")
                header = _header(line, kind, path, lineno)
            elif header is None:
                raise ParseError(f"{path}:{lineno}: {item} before the header")
            else:
                body.append((lineno, line))
    if header is None:
        raise ParseError(f"{path}: missing 'p {kind} N M' header")
    return (*header, body)


def _built(path, make, n: int, items: list, declared: int, item: str):
    """``make(n, items)`` once the body holds the declared number of items."""
    if len(items) != declared:
        raise ParseError(f"{path}: header declares {declared} {item}s, found {len(items)}")
    try:
        return make(n, tuple(items))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_graph(path) -> Graph:
    """DIMACS-like graph file: 'p graph N M' then M lines 'e u v'."""
    n, declared, body = _read_dimacs(path, "graph", "edge")
    edges: list[tuple[int, int]] = []
    for lineno, line in body:
        parts = line.split()
        if parts[0] != "e" or len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: expected 'e u v'")
        try:
            edges.append((int(parts[1]), int(parts[2])))
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-integer endpoints") from exc
    return _built(path, Graph.from_edges, n, edges, declared, "edge")


def save_graph(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"p graph {g.n_vertices} {len(g.edges)}\n")
        for u, v in sorted(g.edges):
            fh.write(f"e {u} {v}\n")


def load_dnf(path) -> DnfFormula:
    """DNF file: 'p dnf N M' then M lines of literals, one term per line, 0-terminated."""
    n, declared, body = _read_dimacs(path, "dnf", "term")
    terms: list[tuple[int, ...]] = []
    for lineno, line in body:
        try:
            ints = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-integer literal") from exc
        if not ints or ints[-1] != 0 or 0 in ints[:-1]:
            raise ParseError(f"{path}:{lineno}: term must be 0-terminated literals")
        terms.append(tuple(ints[:-1]))
    return _built(path, DnfFormula, n, terms, declared, "term")


def save_dnf(phi: DnfFormula, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"p dnf {phi.n_vars} {len(phi.terms)}\n")
        for term in phi.terms:
            fh.write(" ".join(str(lit) for lit in term) + " 0\n")


def load_cnf(path) -> CnfFormula:
    """Standard DIMACS CNF: clauses are 0-terminated literal runs."""
    n, declared, body = _read_dimacs(path, "cnf", "clause")
    tokens: list[int] = []
    for lineno, line in body:
        try:
            tokens.extend(int(tok) for tok in line.split())
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-integer literal") from exc
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for tok in tokens:
        if tok == 0:
            clauses.append(tuple(current))
            current = []
        else:
            current.append(tok)
    if current:
        raise ParseError(f"{path}: trailing clause without terminating 0")
    return _built(path, CnfFormula, n, clauses, declared, "clause")


def save_cnf(phi: CnfFormula, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"p cnf {phi.n_vars} {len(phi.clauses)}\n")
        for clause in phi.clauses:
            fh.write(" ".join(str(lit) for lit in clause) + " 0\n")


def load_circuit(path) -> MonotoneCircuit:
    """Line-based monotone circuit: 'input k', 'gate g AND|OR a b', 'output g'."""
    ids: dict[int, int] = {}
    n_inputs = 0
    gates: list[tuple[str, int, int]] = []
    output_id = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            try:
                if parts[0] == "input" and len(parts) == 2:
                    gid = int(parts[1])
                    if gid in ids:
                        raise ParseError(f"{path}:{lineno}: duplicate identifier {gid}")
                    if gates:
                        raise ParseError(f"{path}:{lineno}: inputs must precede gates")
                    ids[gid] = n_inputs
                    n_inputs += 1
                elif parts[0] == "gate" and len(parts) == 5 and parts[2] in ("AND", "OR"):
                    gid, a, b = int(parts[1]), int(parts[3]), int(parts[4])
                    if gid in ids:
                        raise ParseError(f"{path}:{lineno}: duplicate identifier {gid}")
                    if a not in ids or b not in ids:
                        raise ParseError(f"{path}:{lineno}: operand not declared earlier")
                    ids[gid] = n_inputs + len(gates)
                    gates.append((parts[2], ids[a], ids[b]))
                elif parts[0] == "output" and len(parts) == 2:
                    if output_id is not None:
                        raise ParseError(f"{path}:{lineno}: multiple output lines")
                    output_id = int(parts[1])
                else:
                    raise ParseError(f"{path}:{lineno}: unrecognized line {line!r}")
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-integer identifier") from exc
    if output_id is None:
        raise ParseError(f"{path}: missing 'output g' line")
    if output_id not in ids:
        raise ParseError(f"{path}: output references undeclared identifier {output_id}")
    try:
        return MonotoneCircuit(n_inputs, tuple(gates), ids[output_id])
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def save_circuit(circuit: MonotoneCircuit, path) -> None:
    """Write ``circuit`` in the format ``load_circuit`` reads.

    The format's ``output g`` line must name a declared node, so the
    empty circuit (``output == -1``) has no file form; it raises
    ValueError before any file is opened.
    """
    if circuit.output == -1:
        raise ValueError("the empty circuit has no output node to write")
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(circuit.n_inputs):
            fh.write(f"input {i + 1}\n")
        for j, (op, a, b) in enumerate(circuit.gates):
            fh.write(f"gate {circuit.n_inputs + j + 1} {op} {a + 1} {b + 1}\n")
        fh.write(f"output {circuit.output + 1}\n")
