import pytest

from totpcount import (
    HALT,
    Branch,
    CnfFormula,
    Deterministic,
    DnfFormula,
    Graph,
    MonotoneCircuit,
    ParseError,
    SelfReducibleInstance,
    build_branching_tree,
    cnf_complement,
    count_independent_sets,
    count_sat,
    dnf_instance,
    is_instance,
    load_cnf,
    load_circuit,
    load_dnf,
    load_graph,
    materialize_tree,
    monotone_instance,
    save_cnf,
    save_circuit,
    save_dnf,
    save_graph,
)
from totpcount.generate import (
    random_cnf,
    random_dnf,
    random_graph,
    random_monotone_circuit,
)


# --- adapter counts on the worked examples


@pytest.mark.parametrize(
    "edges, n, expected",
    [([(1, 2)], 2, 2), ([(1, 2), (2, 3), (1, 3)], 3, 3), ([(1, 2), (2, 3)], 3, 4)],
)
def test_is_instance_counts(edges, n, expected):
    g = Graph.from_edges(n, edges)
    assert count_independent_sets(g) == expected
    assert len(materialize_tree(is_instance(g)).nodes) == expected


@pytest.mark.parametrize(
    "terms, n, expected",
    [(((1, 2),), 2, 1), (((1,),), 2, 2), ((), 2, 0)],
)
def test_dnf_instance_counts(terms, n, expected):
    phi = DnfFormula(n, terms)
    assert count_sat(phi) == expected
    assert len(materialize_tree(dnf_instance(phi)).nodes) == expected


def test_monotone_instance_counts():
    c_and = MonotoneCircuit(2, (("AND", 0, 1),), 2)
    c_or = MonotoneCircuit(2, (("OR", 0, 1),), 2)
    assert count_sat(c_and) == 1
    assert count_sat(c_or) == 3
    assert len(materialize_tree(monotone_instance(c_and)).nodes) == 1
    assert len(materialize_tree(monotone_instance(c_or)).nodes) == 3


def test_degenerate_empty_circuit_counts_zero():
    empty = MonotoneCircuit(0, (), -1)
    assert count_sat(empty) == 0
    assert materialize_tree(monotone_instance(empty)).is_empty


def test_zero_variable_dnf():
    top = DnfFormula(0, ((),))  # one empty term: always true
    assert count_sat(top) == 1
    assert len(materialize_tree(dnf_instance(top)).nodes) == 1


def test_empty_graph_has_no_nonempty_independent_sets():
    g = Graph.from_edges(0, [])
    assert count_independent_sets(g) == 0
    assert materialize_tree(is_instance(g)).is_empty


# --- complement reduction


def test_cnf_complement_example():
    phi = CnfFormula(2, ((1, 2),))
    psi = cnf_complement(phi)
    assert psi.terms == ((-1, -2),)
    assert count_sat(psi) == 1 == 4 - count_sat(phi)


def test_cnf_complement_zero_clauses():
    phi = CnfFormula(3, ())
    psi = cnf_complement(phi)
    assert psi.terms == ()
    assert count_sat(phi) == 8 and count_sat(psi) == 0


def test_cnf_complement_of_unsatisfiable():
    phi = CnfFormula(2, ((1,), (-1,)))
    psi = cnf_complement(phi)
    assert count_sat(phi) == 0
    assert count_sat(psi) == 4


def test_cnf_complement_roundtrip_counts(rng):
    for _ in range(30):
        n = int(rng.integers(1, 9))
        phi = random_cnf(rng, n, int(rng.integers(0, 7)))
        assert count_sat(phi) + count_sat(cnf_complement(phi)) == 2**n


# --- adapter vs oracle sweeps and the height convention


def test_adapters_match_bruteforce(rng):
    for _ in range(30):
        g = random_graph(rng, int(rng.integers(1, 9)), edge_prob=float(rng.uniform(0.1, 0.6)))
        assert len(materialize_tree(is_instance(g)).nodes) == count_independent_sets(g)
    for _ in range(30):
        phi = random_dnf(rng, int(rng.integers(1, 9)), int(rng.integers(0, 6)))
        assert len(materialize_tree(dnf_instance(phi)).nodes) == count_sat(phi)
    for _ in range(30):
        c = random_monotone_circuit(rng, int(rng.integers(1, 9)), int(rng.integers(1, 8)))
        assert len(materialize_tree(monotone_instance(c)).nodes) == count_sat(c)


def _prefix_dnf_instance(phi: DnfFormula) -> SelfReducibleInstance:
    """Reference machine: states are assignment prefixes, terms rescanned each step."""

    def decision(assigned):
        return any(
            all(abs(lit) > len(assigned) or assigned[abs(lit) - 1] == (lit > 0) for lit in term)
            for term in phi.terms
        )

    def step(assigned):
        if len(assigned) == phi.n_vars:
            return HALT
        low, high = assigned + (0,), assigned + (1,)
        if decision(low) and decision(high):
            return Branch(low, high)
        return Deterministic(low if decision(low) else high)

    return SelfReducibleInstance((), step, decision, phi.n_vars + 1, 2 * (phi.n_vars + 2))


def test_dnf_masks_give_the_prefix_machines_tree(rng):
    for _ in range(40):
        phi = random_dnf(rng, int(rng.integers(1, 8)), int(rng.integers(0, 6)))
        masks = materialize_tree(dnf_instance(phi))
        assert masks.nodes == materialize_tree(_prefix_dnf_instance(phi)).nodes


def test_dnf_masks_match_bruteforce_at_the_edges(rng):
    cases = [
        DnfFormula(4, ()),
        DnfFormula(0, ()),
        DnfFormula(0, ((),)),
        DnfFormula(3, ((),)),
        # 64 copies of one term, then one that only a 65th mask bit can carry.
        DnfFormula(3, ((1, 2),) * 64 + ((-1,),)),
        random_dnf(rng, 9, 70),
        random_dnf(rng, 9, 130, max_width=4),
    ]
    cases += [cnf_complement(random_cnf(rng, int(rng.integers(1, 9)), int(rng.integers(0, 7))))
              for _ in range(20)]
    for phi in cases:
        assert len(materialize_tree(dnf_instance(phi)).nodes) == count_sat(phi)


def _with_random_output(rng, circuit: MonotoneCircuit) -> MonotoneCircuit:
    """``circuit`` with its output moved to a node drawn from all of them."""
    n_nodes = circuit.n_inputs + len(circuit.gates)
    return MonotoneCircuit(circuit.n_inputs, circuit.gates, int(rng.integers(0, n_nodes)))


def _accepts_with_ones(circuit: MonotoneCircuit, assigned: tuple[int, ...]) -> bool:
    """Whether ``circuit`` accepts when every input past ``assigned`` is 1."""
    if circuit.output == -1:
        return False
    values = list(assigned) + [1] * (circuit.n_inputs - len(assigned))
    for op, a, b in circuit.gates:
        values.append(values[a] & values[b] if op == "AND" else values[a] | values[b])
    return values[circuit.output] == 1


def _prefix_monotone_instance(circuit: MonotoneCircuit) -> SelfReducibleInstance:
    """Reference machine: states are assignment prefixes, the circuit re-evaluated each step."""

    def decision(assigned):
        return _accepts_with_ones(circuit, assigned)

    def step(assigned):
        if len(assigned) == circuit.n_inputs:
            return HALT
        low, high = assigned + (0,), assigned + (1,)
        if decision(low) and decision(high):
            return Branch(low, high)
        return Deterministic(low if decision(low) else high)

    n = circuit.n_inputs
    return SelfReducibleInstance((), step, decision, n + 1, 2 * (n + 2))


def test_monotone_values_give_the_prefix_machines_tree(rng):
    cases = [
        # AND and OR gates that read one node twice, feeding each other.
        MonotoneCircuit(3, (("AND", 0, 0), ("OR", 1, 1), ("AND", 3, 4), ("OR", 5, 2)), 6),
        MonotoneCircuit(2, (("OR", 0, 0), ("AND", 2, 1)), 2),
        # The output on an input, with gates above it.
        MonotoneCircuit(3, (("AND", 0, 1), ("OR", 3, 2)), 1),
        # Inputs 2..4 are read by no gate.
        MonotoneCircuit(5, (("OR", 0, 1),), 5),
        MonotoneCircuit(1, (), 0),
        MonotoneCircuit(1, (("AND", 0, 0),), 1),
        MonotoneCircuit(0, (), -1),
    ]
    cases += [
        _with_random_output(rng, random_monotone_circuit(
            rng, int(rng.integers(1, 9)), int(rng.integers(0, 10))))
        for _ in range(200)
    ]
    for circuit in cases:
        values = build_branching_tree(monotone_instance(circuit)).iter_nodes()
        prefixes = build_branching_tree(_prefix_monotone_instance(circuit)).iter_nodes()
        assert list(values) == list(prefixes), circuit


def test_monotone_state_keeps_only_the_output_cone_current():
    # The output is x0 OR x1; gate 2, x0 AND x1, is outside its cone.
    # Setting x0 to 0 would turn gate 2 off, but its bit stays 1.
    circuit = MonotoneCircuit(2, (("AND", 0, 1), ("OR", 0, 1)), 3)
    instance = monotone_instance(circuit)
    assert instance.step(instance.initial) == Branch((1, 0b1110), (1, 0b1111))
    values = list(build_branching_tree(instance).iter_nodes())
    prefixes = list(build_branching_tree(_prefix_monotone_instance(circuit)).iter_nodes())
    assert values == prefixes and len(values) == count_sat(circuit) == 3


def test_branch_bound_is_n_plus_one(rng):
    g = random_graph(rng, 7, 0.3)
    assert is_instance(g).branch_bound == 8
    phi = random_dnf(rng, 7, 3)
    assert dnf_instance(phi).branch_bound == 8
    c = random_monotone_circuit(rng, 7, 4)
    assert monotone_instance(c).branch_bound == 8


# --- validation


def test_contradictory_term_rejected():
    with pytest.raises(ValueError):
        DnfFormula(2, ((1, -1),))


def test_tautological_clause_rejected():
    with pytest.raises(ValueError):
        CnfFormula(2, ((1, -1),))


def test_out_of_range_literal_rejected():
    with pytest.raises(ValueError):
        DnfFormula(2, ((3,),))


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(1, 1)])


def test_circuit_rejects_forward_reference():
    with pytest.raises(ValueError):
        MonotoneCircuit(1, (("AND", 0, 2),), 1)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Graph.from_edges(-1, []),
        lambda: DnfFormula(-1, ()),
        lambda: CnfFormula(-2, ()),
        lambda: MonotoneCircuit(-1, (), -1),
    ],
    ids=["graph", "dnf", "cnf", "circuit"],
)
def test_negative_size_rejected(make):
    with pytest.raises(ValueError, match="nonnegative"):
        make()


# --- file formats


def test_graph_file_roundtrip(tmp_path, rng):
    g = random_graph(rng, 6, 0.4)
    path = tmp_path / "g.graph"
    save_graph(g, path)
    assert load_graph(path) == g


def test_dnf_file_roundtrip(tmp_path, rng):
    phi = random_dnf(rng, 6, 4)
    path = tmp_path / "phi.dnf"
    save_dnf(phi, path)
    assert load_dnf(path) == phi


def test_cnf_file_roundtrip(tmp_path, rng):
    phi = random_cnf(rng, 6, 5)
    path = tmp_path / "phi.cnf"
    save_cnf(phi, path)
    assert load_cnf(path) == phi


def test_circuit_file_roundtrip(tmp_path, rng):
    path = tmp_path / "c.mono"
    for _ in range(50):
        c = _with_random_output(rng, random_monotone_circuit(
            rng, int(rng.integers(1, 9)), int(rng.integers(0, 10))))
        save_circuit(c, path)
        assert load_circuit(path) == c


def test_empty_circuit_has_no_file_form(tmp_path):
    path = tmp_path / "empty.mono"
    with pytest.raises(ValueError):
        save_circuit(MonotoneCircuit(0, (), -1), path)
    assert not path.exists()


def test_cnf_multiline_clauses(tmp_path):
    path = tmp_path / "phi.cnf"
    path.write_text("c comment\np cnf 3 2\n1 2\n3 0\n-1 -2 0\n", encoding="utf-8")
    phi = load_cnf(path)
    assert phi.clauses == ((1, 2, 3), (-1, -2))


@pytest.mark.parametrize(
    "name, text, loader",
    [
        ("bad.graph", "p graph 2\ne 1 2\n", load_graph),
        ("bad.graph2", "p graph 2 1\ne 1 x\n", load_graph),
        ("bad.dnf", "p dnf 2 1\n1 2\n", load_dnf),
        ("bad.cnf", "p cnf 2 1\n1 2\n", load_cnf),
        ("bad.mono", "input 1\ngate 2 XOR 1 1\noutput 2\n", load_circuit),
        ("bad2.mono", "input 1\ngate 2 AND 1 3\noutput 2\n", load_circuit),
    ],
)
def test_parse_errors(tmp_path, name, text, loader):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError):
        loader(path)


@pytest.mark.parametrize(
    "text, loader, message",
    [
        ("p graph -3 0\n", load_graph, "negative header fields"),
        ("p graph 3 -1\n", load_graph, "negative header fields"),
        ("p dnf -1 0\n", load_dnf, "negative header fields"),
        ("p cnf -2 0\n", load_cnf, "negative header fields"),
        ("p graph 2 0\np graph 3 0\n", load_graph, "second header line"),
        ("p dnf 1 1\np dnf 3 1\n3 0\n", load_dnf, "second header line"),
        ("p cnf 1 0\np cnf 1 0\n", load_cnf, "second header line"),
    ],
)
def test_header_errors(tmp_path, text, loader, message):
    path = tmp_path / "bad"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=message):
        loader(path)
