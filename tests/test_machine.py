from collections import deque

import pytest

from totpcount import (
    Branch,
    Deterministic,
    DnfFormula,
    Graph,
    HALT,
    MalformedInstanceError,
    NotInTreeError,
    SelfReducibleInstance,
    build_branching_tree,
    count_computation_paths,
    count_independent_sets,
    count_sat,
    dnf_instance,
    is_instance,
    materialize_tree,
    monotone_instance,
)
from totpcount import machine
from totpcount.generate import random_dnf, random_graph, random_monotone_circuit


def test_dnf_two_solutions_has_two_nodes():
    phi = DnfFormula(2, ((1,),))
    tree = materialize_tree(dnf_instance(phi))
    assert len(tree.nodes) == 2 == count_sat(phi)


def test_is_single_edge_has_two_nodes():
    g = Graph.from_edges(2, [(1, 2)])
    tree = materialize_tree(is_instance(g))
    assert len(tree.nodes) == 2 == count_independent_sets(g)


def test_unsatisfiable_dnf_gives_empty_tree():
    tree = build_branching_tree(dnf_instance(DnfFormula(2, ())))
    assert tree.is_empty
    with pytest.raises(NotInTreeError):
        tree.children(())


def test_children_of_path_graph_root_reach_full_count():
    g = Graph.from_edges(3, [(1, 2), (2, 3)])
    inst = is_instance(g)
    tree = materialize_tree(inst)
    assert len(tree.nodes) == 4 == count_independent_sets(g)
    kids = build_branching_tree(inst).children(())
    assert kids  # the root of a 4-node tree must branch somewhere below


def test_single_solution_dnf_root_is_leaf():
    inst = dnf_instance(DnfFormula(2, ((1, 2),)))
    assert build_branching_tree(inst).children(()) == ()


def test_synthetic_branch_children_halt():
    # f=2 for (x1) on two variables: nodes are () and the synthetic (1,).
    inst = dnf_instance(DnfFormula(2, ((1,),)))
    assert build_branching_tree(inst).children((1,)) == ()


def test_replay_is_deterministic():
    g = Graph.from_edges(4, [(1, 2), (3, 4)])
    inst = is_instance(g)
    tree = build_branching_tree(inst)
    first = [tree.children(node) for node in sorted(materialize_tree(inst).nodes)]
    second = [tree.children(node) for node in sorted(materialize_tree(inst).nodes)]
    assert first == second


def _random_instances(rng):
    for _ in range(8):
        yield is_instance(random_graph(rng, int(rng.integers(1, 7)), edge_prob=0.4))
        yield dnf_instance(random_dnf(rng, int(rng.integers(1, 7)), int(rng.integers(0, 5))))
        yield monotone_instance(
            random_monotone_circuit(rng, int(rng.integers(1, 7)), int(rng.integers(1, 6)))
        )


def _bfs_nodes(tree, max_depth=None):
    """Reference enumeration: breadth-first through ``children``, down to ``max_depth``."""
    if tree.is_empty:
        return []
    nodes, queue = [], deque([()])
    while queue:
        node = queue.popleft()
        nodes.append(node)
        if max_depth is None or len(node) < max_depth:
            queue.extend(tree.children(node))
    return nodes


def test_cursor_walk_matches_children_bfs(rng):
    for inst in _random_instances(rng):
        tree = build_branching_tree(inst)
        for depth in [None, *range(tree.height + 1)]:
            walked = list(tree.iter_nodes(depth))
            assert len(walked) == len(set(walked))
            assert set(walked) == set(_bfs_nodes(tree, depth))


def test_cursor_walk_is_preorder():
    tree = build_branching_tree(is_instance(Graph.from_edges(3, [(1, 2)])))
    walked = list(tree.iter_nodes())
    assert walked == sorted(walked)


def test_cursor_walk_advances_each_edge_once(rng, monkeypatch):
    # One advance from the initial state, then one for each of the two
    # cursors of every node: 2 * nodes + 1 in all.
    advance, advances = machine._advance, [0]

    def counting_advance(*args):
        advances[0] += 1
        return advance(*args)

    monkeypatch.setattr(machine, "_advance", counting_advance)
    for inst in _random_instances(rng):
        n_nodes = len(_bfs_nodes(build_branching_tree(inst)))
        advances[0] = 0
        assert len(list(build_branching_tree(inst).iter_nodes())) == n_nodes
        if n_nodes:
            assert advances[0] == 2 * n_nodes + 1


def test_path_count_identity_on_random_instances(rng):
    for _ in range(25):
        g = random_graph(rng, int(rng.integers(1, 8)), edge_prob=0.4)
        inst = is_instance(g)
        f = count_independent_sets(g)
        assert len(materialize_tree(inst).nodes) == f
        assert count_computation_paths(inst) == f + 1
    for _ in range(25):
        phi = random_dnf(rng, int(rng.integers(1, 8)), int(rng.integers(0, 5)))
        inst = dnf_instance(phi)
        f = count_sat(phi)
        assert len(materialize_tree(inst).nodes) == f
        assert count_computation_paths(inst) == f + 1


def test_tree_height_bound(rng):
    for _ in range(10):
        phi = random_dnf(rng, 6, 3)
        inst = dnf_instance(phi)
        tree = materialize_tree(inst)
        if tree.nodes:
            assert max(len(p) for p in tree.nodes) <= inst.branch_bound


def test_branch_bound_violation_is_reported():
    runaway = SelfReducibleInstance(
        initial=0,
        step=lambda s: Branch(s + 1, s + 1),
        decision=lambda s: True,
        branch_bound=2,
        step_budget=100,
    )
    tree = build_branching_tree(runaway)
    with pytest.raises(MalformedInstanceError):
        tree.children((1, 1))


def test_step_budget_violation_is_reported():
    spinner = SelfReducibleInstance(
        initial=0,
        step=lambda s: Deterministic(s),
        decision=lambda s: True,
        branch_bound=3,
        step_budget=50,
    )
    tree = build_branching_tree(spinner)
    with pytest.raises(MalformedInstanceError):
        tree.children(())


def _straight_run(calls: int, budget: int) -> SelfReducibleInstance:
    """One run of ``calls`` step calls: ``calls - 1`` Deterministic moves, then HALT."""
    return SelfReducibleInstance(
        initial=0,
        step=lambda s: Deterministic(s + 1) if s < calls - 1 else HALT,
        decision=lambda s: True,
        branch_bound=1,
        step_budget=budget,
    )


def test_a_run_may_use_its_whole_step_budget():
    tree = build_branching_tree(_straight_run(3, budget=3))
    assert tree.children(()) == ()
    assert list(tree.iter_nodes()) == [()]


def test_one_step_call_over_the_budget_raises():
    tree = build_branching_tree(_straight_run(3, budget=2))
    with pytest.raises(MalformedInstanceError, match="step budget of 2"):
        tree.children(())
    with pytest.raises(MalformedInstanceError, match="step budget of 2"):
        list(tree.iter_nodes())


def test_a_step_that_returns_no_outcome_is_reported():
    tree = build_branching_tree(
        SelfReducibleInstance(0, lambda s: s + 1, lambda s: True, branch_bound=3, step_budget=10)
    )
    with pytest.raises(MalformedInstanceError, match="not a StepOutcome"):
        tree.children(())
    with pytest.raises(MalformedInstanceError, match="not a StepOutcome"):
        list(tree.iter_nodes())


@pytest.mark.parametrize(
    "instance, message",
    [
        # Splits forever: advancing the depth-2 nodes makes a third split.
        (SelfReducibleInstance(0, lambda s: Branch(s + 1, s + 1), lambda s: True, 2, 100),
         "branch bound of 2"),
        # Never halts: the first run spends its budget before any split.
        (SelfReducibleInstance(0, lambda s: Deterministic(s), lambda s: True, 3, 50),
         "step budget of 50"),
    ],
    ids=["branch-bound", "step-budget"],
)
def test_enumeration_reports_overruns(instance, message):
    tree = build_branching_tree(instance)
    with pytest.raises(MalformedInstanceError, match=message):
        list(tree.iter_nodes())


def test_queries_outside_tree_raise():
    inst = dnf_instance(DnfFormula(2, ((1, 2),)))  # single node ()
    tree = build_branching_tree(inst)
    with pytest.raises(NotInTreeError):
        tree.children((0,))
    assert (0,) not in tree
    assert () in tree


def test_halt_outcome_singleton_usable():
    assert HALT == HALT
