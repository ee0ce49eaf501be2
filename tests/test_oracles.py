from fractions import Fraction

import pytest

from totpcount import trees
from totpcount import (
    CnfFormula,
    DnfFormula,
    ExplicitTree,
    Graph,
    MonotoneCircuit,
    SizeGuardError,
    count_computation_paths,
    count_independent_sets,
    count_sat,
    dnf_instance,
    exact_conductance,
    full_binary_tree,
    is_instance,
    materialize_tree,
    random_tree,
    stationary_exact,
    tv_distance,
)


def test_count_is_triangle():
    assert count_independent_sets(Graph.from_edges(3, [(1, 2), (2, 3), (1, 3)])) == 3


def test_count_is_isolated_vertices():
    assert count_independent_sets(Graph.from_edges(3, [])) == 7


def test_count_is_single_vertex():
    assert count_independent_sets(Graph.from_edges(1, [])) == 1


def test_count_sat_examples():
    assert count_sat(DnfFormula(2, ((1, 2),))) == 1
    assert count_sat(CnfFormula(2, ((1, 2),))) == 3
    assert count_sat(MonotoneCircuit(2, (("OR", 0, 1),), 2)) == 3


def test_enumeration_guards():
    with pytest.raises(SizeGuardError):
        count_independent_sets(Graph.from_edges(26, []))
    with pytest.raises(SizeGuardError):
        count_sat(CnfFormula(26, ()))


def test_materialize_tree_examples():
    assert len(materialize_tree(is_instance(Graph.from_edges(2, [(1, 2)]))).nodes) == 2
    assert materialize_tree(dnf_instance(DnfFormula(3, ()))).is_empty
    assert len(materialize_tree(dnf_instance(DnfFormula(2, ((1,),)))).nodes) == 2


def test_materialize_tree_guard(monkeypatch):
    inst = dnf_instance(DnfFormula(10, ((),)))  # 1024 solutions
    monkeypatch.setattr(trees, "DEFAULT_MATERIALIZE_GUARD", 100)
    with pytest.raises(SizeGuardError):
        materialize_tree(inst)


def test_count_paths_of_empty_instance():
    assert count_computation_paths(dnf_instance(DnfFormula(2, ()))) == 1


def test_tv_identical_distributions():
    pi = stationary_exact(full_binary_tree(2))
    assert tv_distance(pi, pi) == 0.0


def test_tv_point_mass_versus_full_binary():
    pi = stationary_exact(full_binary_tree(2))
    point = {(): 1.0}
    assert tv_distance(point, pi) == pytest.approx(2 / 3)


def test_tv_disjoint_point_masses():
    assert tv_distance({(): 1.0}, {(1,): Fraction(1)}) == 1.0


def test_tv_symmetric_and_bounded(rng):
    for _ in range(5):
        tree = random_tree(rng, 4, child_prob=0.6)
        pi = stationary_exact(tree)
        nodes = sorted(tree.nodes)
        weights = rng.random(len(nodes))
        emp = {p: w / weights.sum() for p, w in zip(nodes, weights)}
        d = tv_distance(emp, pi)
        assert 0.0 <= d <= 1.0
        assert d == pytest.approx(tv_distance(pi, emp))


def test_conductance_single_node_rejected():
    with pytest.raises(ValueError):
        exact_conductance(ExplicitTree([()]))


def test_conductance_two_node_tree():
    report = exact_conductance(ExplicitTree([(), (0,)]))
    assert report.phi == Fraction(1, 4)
    assert report.bound == Fraction(1, 8)
    assert report.respects_bound
    assert report.minimizing_subset == frozenset({(0,)})


def test_conductance_full_binary_two():
    report = exact_conductance(full_binary_tree(2))
    assert report.bound == Fraction(1, 12)
    assert report.respects_bound


def test_conductance_guard():
    with pytest.raises(SizeGuardError):
        exact_conductance(full_binary_tree(5))  # 63 nodes


def test_conductance_bound_on_random_trees(rng):
    for _ in range(10):
        tree = random_tree(rng, int(rng.integers(1, 7)), child_prob=0.45, max_nodes=16)
        report = exact_conductance(tree)
        assert report.respects_bound
