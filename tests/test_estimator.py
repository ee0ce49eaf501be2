import numpy as np
import pytest

from totpcount import (
    Branch,
    Deterministic,
    DnfFormula,
    EstimatorConfig,
    ExactCount,
    ExceedsThreshold,
    ExplicitTree,
    Graph,
    HALT,
    MalformedInstanceError,
    SelfReducibleInstance,
    SizeGuardError,
    absolute_error_estimate,
    build_branching_tree,
    count_sat,
    count_up_to,
    dnf_instance,
    estimate_size,
    full_binary_tree,
    is_instance,
    materialize,
    random_tree,
    ras,
    telescoped_size,
)
from totpcount import cli, estimator, trees
from totpcount.trees import depth_counts


def exact_cfg(xi, delta, seed):
    return EstimatorConfig(xi, delta, seed, transport="exact")


# --- telescoping


def test_telescoped_size_full_binary_identity():
    assert telescoped_size([1.0, 4.0, 12.0]) == 7.0


def test_telescoped_size_single_level():
    assert telescoped_size([1.0]) == 1.0
    assert telescoped_size([]) == 0.0


# --- estimate_size special cases


def test_empty_tree_estimates_zero_without_sampling():
    report = estimate_size(ExplicitTree([], height=5), exact_cfg(0.1, 0.1, 1))
    assert report.size_estimate == 0.0
    assert report.total_samples == 0 and report.total_chain_steps == 0
    assert report.mode == "empty" and report.error_radius == 0.0


def test_height_zero_tree_is_exact():
    report = estimate_size(ExplicitTree([()]), exact_cfg(0.1, 0.1, 1))
    assert report.size_estimate == 1.0
    assert report.total_samples == 0
    assert report.alpha_estimates[0].value == 1.0


def test_estimate_full_binary_exact_transport():
    report = estimate_size(full_binary_tree(2), exact_cfg(0.1, 0.1, 7))
    assert abs(report.size_estimate - 7) <= report.error_radius
    assert len(report.alpha_estimates) == 3
    assert report.alpha_estimates[0].value == 1.0  # pinned, not sampled
    assert report.fraction == report.size_estimate / 4.0


def test_estimate_full_binary_chain_transport(rng):
    config = EstimatorConfig(0.5, 0.3, 3)
    report = estimate_size(full_binary_tree(2), config)
    assert abs(report.size_estimate - 7) <= report.error_radius
    assert report.total_chain_steps > 0


def test_estimate_random_trees_cover_truth(rng):
    for seed in range(5):
        tree = random_tree(rng, 6, child_prob=0.6)
        report = estimate_size(tree, exact_cfg(0.1, 0.1, seed))
        assert abs(report.size_estimate - len(tree.nodes)) <= report.error_radius


def test_estimate_rejects_bad_parameters():
    fb = full_binary_tree(1)
    with pytest.raises(ValueError):
        estimate_size(fb, EstimatorConfig(0.0, 0.1, 1))
    with pytest.raises(ValueError):
        estimate_size(fb, EstimatorConfig(0.1, 0.0, 1))
    with pytest.raises(ValueError):
        estimate_size(fb, EstimatorConfig(0.1, 0.1, -3))
    with pytest.raises(ValueError):
        estimate_size(fb, EstimatorConfig(0.1, 0.1, 1, transport="warp"))


def test_height_guard():
    tall = ExplicitTree([()], height=501)
    with pytest.raises(SizeGuardError):
        estimate_size(tall, exact_cfg(0.5, 0.1, 1))


def test_determinism_same_seed_same_result():
    tree = full_binary_tree(3)
    a = estimate_size(tree, exact_cfg(0.2, 0.1, 42))
    b = estimate_size(tree, exact_cfg(0.2, 0.1, 42))
    assert a.size_estimate == b.size_estimate
    assert [x.value for x in a.alpha_estimates] == [x.value for x in b.alpha_estimates]


def test_sample_count_scales_inverse_quadratically():
    tree = full_binary_tree(3)
    wide = estimate_size(tree, exact_cfg(0.4, 0.2, 1))
    narrow = estimate_size(tree, exact_cfg(0.2, 0.2, 1))
    ratio = narrow.total_samples / wide.total_samples
    assert 3.2 <= ratio <= 4.8
    assert narrow.error_radius < wide.error_radius


# --- fraction


def test_fraction_of_empty_instance_is_zero():
    tree = build_branching_tree(dnf_instance(DnfFormula(2, ())))
    assert estimate_size(tree, EstimatorConfig(0.1, 0.1, 1)).fraction == 0.0


def test_fraction_of_dnf_instance(rng):
    tree = build_branching_tree(dnf_instance(DnfFormula(2, ((1,),))))
    p_hat = estimate_size(tree, exact_cfg(0.05, 0.1, 11)).fraction
    assert abs(p_hat - 2 / 8) <= 0.05  # machine height is 3, so p = f / 2^3


def test_fraction_clamps_for_explicit_trees():
    fb = full_binary_tree(6)  # 127 nodes, fraction 127/64 before clamping
    report = estimate_size(fb, exact_cfg(0.05, 0.1, 5))
    assert abs(report.fraction - 127 / 64) <= 0.05
    assert cli._report_fields(report)["fraction_clamped"] == 1.0


class _NoRootHits:
    """Stands in for a depth's generator: every binomial draw is 0 hits."""

    def binomial(self, n, p):
        return 0


def test_zero_root_hits_are_flagged_degenerate(monkeypatch):
    sampled = estimate_size(full_binary_tree(3), exact_cfg(0.5, 0.2, 1))
    assert sampled.degenerate_depths == 0
    assert not any(a.degenerate for a in sampled.alpha_estimates)
    monkeypatch.setattr(estimator, "derived_rng", lambda seed, *key: _NoRootHits())
    report = estimate_size(full_binary_tree(3), exact_cfg(0.5, 0.2, 1))
    assert [a.degenerate for a in report.alpha_estimates] == [False, True, True, True]
    assert report.degenerate_depths == 3
    assert cli._report_fields(report)["degenerate_depths"] == 3
    for i, a in enumerate(report.alpha_estimates[1:], start=1):
        assert a.root_hit_fraction == 1 / (2 * a.samples)
        assert a.value == a.root_hit_fraction * 2.0**-i


# --- threshold decider


def test_count_up_to_triangle():
    g = Graph.from_edges(3, [(1, 2), (2, 3), (1, 3)])
    assert count_up_to(is_instance(g), 5) == ExactCount(3, 3)
    out = count_up_to(is_instance(g), 2)
    assert isinstance(out, ExceedsThreshold) and out.threshold == 2


def test_count_up_to_empty_instance():
    assert count_up_to(dnf_instance(DnfFormula(2, ())), 7) == ExactCount(0, 0)


def test_count_up_to_visit_bound(rng):
    tree = random_tree(rng, 6, child_prob=0.7)
    for threshold in (0, 1, 3, 10, len(tree.nodes), 2 * len(tree.nodes)):
        out = count_up_to(tree, threshold)
        assert out.nodes_visited <= threshold + 1
        if isinstance(out, ExactCount):
            assert out.value == len(tree.nodes) <= threshold


def test_count_up_to_takes_thresholds_past_sys_maxsize():
    # ras may ask for a cutoff up to 2^(height+1), and heights reach 500.
    assert count_up_to(full_binary_tree(2), 2**600) == ExactCount(7, 7)


def test_count_up_to_rejects_negative_threshold():
    with pytest.raises(ValueError):
        count_up_to(full_binary_tree(1), -1)


def _split_every_third_step(state):
    if state == 12:
        return HALT
    return Branch(state + 1, state + 1) if (state + 1) % 3 == 0 else Deterministic(state + 1)


MALFORMED = {
    # Four splits, well within the branch bound, but 13 steps per run.  Each
    # stretch between splits is 3 steps, within the budget of 8, so only the
    # step count carried along the whole run exceeds it.
    "step budget": SelfReducibleInstance(
        0, _split_every_third_step, lambda s: True, branch_bound=10, step_budget=8
    ),
    # Splits forever: advancing the depth-1 nodes makes a third split.
    "branch bound": SelfReducibleInstance(
        0, lambda s: Branch(s + 1, s + 1), lambda s: True, branch_bound=2, step_budget=100
    ),
}


@pytest.mark.parametrize("bound", sorted(MALFORMED))
def test_malformed_instances_raise_through_enumeration(bound):
    inst = MALFORMED[bound]
    with pytest.raises(MalformedInstanceError, match=bound):
        count_up_to(inst, 100)
    with pytest.raises(MalformedInstanceError, match=bound):
        materialize(build_branching_tree(inst))
    with pytest.raises(MalformedInstanceError, match=bound):
        estimate_size(build_branching_tree(inst), exact_cfg(0.5, 0.2, 1))


def test_materialize_guard_holds_on_a_second_call(monkeypatch):
    # A tree materialized once must still be checked against a smaller
    # guard: nothing from the first enumeration may be reused.
    tree = build_branching_tree(dnf_instance(DnfFormula(6, ((1,),))))
    assert len(materialize(tree).nodes) == 32
    monkeypatch.setattr(trees, "DEFAULT_MATERIALIZE_GUARD", 5)
    with pytest.raises(SizeGuardError):
        materialize(tree)


def test_exact_transport_depth_count_guard(monkeypatch):
    tree = build_branching_tree(dnf_instance(DnfFormula(7, ((),))))  # 128 nodes
    monkeypatch.setattr(trees, "DEFAULT_MATERIALIZE_GUARD", 128)
    assert depth_counts(tree) == [1, 2, 4, 8, 16, 32, 64, 1, 0]
    monkeypatch.setattr(trees, "DEFAULT_MATERIALIZE_GUARD", 127)
    with pytest.raises(SizeGuardError):
        estimate_size(tree, exact_cfg(0.5, 0.2, 1))


# --- absolute-error scheduling


def test_absolute_error_radius_formula():
    tree = random_tree(np.random.default_rng(3), 20, child_prob=0.4, max_nodes=60)
    report = absolute_error_estimate(tree, 2**10, 0.3, 9, transport="exact")
    assert report.xi == pytest.approx(2.0**-5)
    assert report.error_radius == pytest.approx(2.0**15)
    assert abs(report.size_estimate - len(tree.nodes)) <= report.error_radius


def test_absolute_error_boundary_s():
    fb = full_binary_tree(3)
    report = absolute_error_estimate(fb, 2**3, 0.2, 1, transport="exact")
    assert report.xi == 1.0 and report.error_radius == pytest.approx(2.0**3)


def test_absolute_error_s_out_of_range():
    fb = full_binary_tree(3)
    with pytest.raises(ValueError):
        absolute_error_estimate(fb, 0.5, 0.2, 1)
    with pytest.raises(ValueError):
        absolute_error_estimate(fb, 9.0, 0.2, 1)


# --- randomized approximation scheme


def test_ras_exact_branch_on_triangle():
    g = Graph.from_edges(3, [(1, 2), (2, 3), (1, 3)])
    report = ras(is_instance(g), k=2.0, beta=0.5, delta=0.2, seed=1)
    assert report.mode == "exact"
    assert report.size_estimate == 3.0 and report.error_radius == 0.0


def test_ras_empty_instance():
    report = ras(dnf_instance(DnfFormula(3, ())), k=2.0, beta=0.5, delta=0.2, seed=1)
    assert report.size_estimate == 0.0


def test_ras_estimator_branch(rng):
    # Tautological 6-variable formula: 64 solutions, above the exact cutoff
    # ceil(2 * 2^3.5 * 2^(7/6)) = 51 at height 7.
    phi = DnfFormula(6, ((),))
    f = count_sat(phi)
    assert f == 64
    report = ras(dnf_instance(phi), k=2.0, beta=1 / 3, delta=0.2, seed=4, transport="exact")
    assert report.mode == "telescoping"
    assert abs(report.size_estimate - f) <= f / 2.0


def test_ras_parameter_validation():
    fb = full_binary_tree(2)
    with pytest.raises(ValueError):
        ras(fb, k=0.5, beta=0.5, delta=0.2, seed=1)
    with pytest.raises(ValueError):
        ras(fb, k=2.0, beta=1.5, delta=0.2, seed=1)
