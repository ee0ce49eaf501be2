"""Tree-size estimation by telescoping per-depth normalizing factors.

For a tree S of height n, let S_i be its truncation to depth i (its
nodes of depth <= i) and alpha_i the normalizing factor of the
stationary law on S_i (viewed at height i).  The per-level node counts
satisfy r_0 = 1/alpha_0 = 1 and r_k = 1/alpha_k - 2/alpha_{k-1}, so the
total size telescopes to

    |S| = 1/alpha_n - sum_{k=0}^{n-1} 1/alpha_k.

No S_i is built as a tree of its own: every depth walks S itself with i
as the cut (``chain.estimate_alpha``), and the exact transport reads
every pi_{S_i}(root) off one count of S's nodes per depth.

The estimator targets an additive guarantee: with per-depth relative
accuracy zeta = xi / (2(n+1)) and stationarity deviation
zeta / (1 + zeta), the combined estimate lands within xi * 2^n of |S|
with probability 1 - delta (failure budget split evenly over depths).

Also here: the exact threshold decider (depth-first search that never
visits more than threshold+1 nodes), the absolute-error scheduler, and
the sub-exhaustive randomized approximation scheme built from the two.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import chain as chain_mod
from .chain import AlphaEstimate, ChainParams, guard_height
from .errors import SizeGuardError
from .machine import SelfReducibleInstance, build_branching_tree

# ``materialize`` and ``truncate`` are not called here (enumeration goes
# through ``iter_nodes``, and a truncation is a depth argument), but they
# stay module attributes: the benchmark tracer, benchmarks/tracer.py,
# patches ``estimator.materialize`` and ``estimator.truncate``.
from .trees import DEFAULT_MATERIALIZE_GUARD, BranchingTree, materialize, truncate  # noqa: F401

TRANSPORTS = ("chain", "exact")


def derived_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic substream for (seed, key...): a depth's draws depend on nothing else."""
    return np.random.default_rng(np.random.SeedSequence(entropy=[seed, *key]))


@dataclass(frozen=True)
class EstimatorConfig:
    """Accuracy targets and reproducibility knobs for one estimation run."""

    xi: float
    delta: float
    seed: int
    chain: ChainParams = ChainParams()
    transport: str = "chain"

    def __post_init__(self):
        if not 0 < self.xi <= 1:
            raise ValueError("xi must lie in (0, 1]")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {self.transport!r}")


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate with its error radius and sampling metadata.

    ``size_estimate`` is the raw telescoped value and may be negative or
    exceed the node-count ceiling; ``size_clamped`` rounds and clamps it.
    ``fraction`` is size_estimate / 2^height, unclamped.
    ``degenerate_depths`` counts the depths whose estimate fell back to
    1/(2m) root hits (``AlphaEstimate.degenerate``).
    """

    size_estimate: float
    size_clamped: int
    fraction: float
    error_radius: float
    height: int
    xi: float
    delta: float
    alpha_estimates: tuple[AlphaEstimate, ...]
    total_chain_steps: int
    total_samples: int
    transport: str
    mode: str
    wall_time_s: float
    degenerate_depths: int = 0


@dataclass(frozen=True)
class ExactCount:
    """The count is known exactly (it did not exceed the threshold)."""

    value: int
    nodes_visited: int = 0


@dataclass(frozen=True)
class ExceedsThreshold:
    """The count provably exceeds the threshold; search stopped early."""

    threshold: int
    nodes_visited: int = 0


CountOutcome = ExactCount | ExceedsThreshold


def telescoped_size(inverse_alphas: Sequence[float]) -> float:
    """|S| from the inverse factors of S_0..S_n: last minus the sum of the rest."""
    if not inverse_alphas:
        return 0.0
    return inverse_alphas[-1] - math.fsum(inverse_alphas[:-1])


def _clamp_size(raw: float, height: int) -> int:
    ceiling = 2 ** (height + 1) - 1
    return int(min(max(round(raw), 0), ceiling))


def _report(
    raw: float,
    height: int,
    config: EstimatorConfig,
    alphas: tuple[AlphaEstimate, ...],
    mode: str,
    t0: float,
    error_radius: float | None = None,
) -> EstimateReport:
    return EstimateReport(
        size_estimate=raw,
        size_clamped=_clamp_size(raw, height),
        fraction=raw / 2.0**height,
        error_radius=config.xi * 2.0**height if error_radius is None else error_radius,
        height=height,
        xi=config.xi,
        delta=config.delta,
        alpha_estimates=alphas,
        total_chain_steps=sum(a.chain_steps for a in alphas),
        total_samples=sum(a.samples * a.repetitions for a in alphas),
        transport=config.transport,
        mode=mode,
        wall_time_s=time.perf_counter() - t0,
        degenerate_depths=sum(a.degenerate for a in alphas),
    )


def _depth_counts(tree: BranchingTree, max_nodes: int = DEFAULT_MATERIALIZE_GUARD) -> list[int]:
    """Number of nodes at each depth 0..height, by one enumeration.

    The tree is walked by ``iter_nodes`` and never stored; past
    ``max_nodes`` nodes it raises SizeGuardError, as ``materialize``
    would.
    """
    counts = [0] * (tree.height + 1)
    for seen, node in enumerate(tree.iter_nodes(), start=1):
        if seen > max_nodes:
            raise SizeGuardError(f"tree exceeds the materialization guard of {max_nodes} nodes")
        counts[len(node)] += 1
    return counts


def _exact_root_masses(tree: BranchingTree) -> list[float]:
    """pi_{S_i}(root) for every depth i, from one count of nodes per depth."""
    masses: list[float] = []
    weight = 0  # sum over nodes of depth <= i of 2^(i - depth), updated per level
    for i, count in enumerate(_depth_counts(tree)):
        weight = 2 * weight + count
        masses.append((1 << i) / weight)
    return masses


def estimate_size(tree: BranchingTree, config: EstimatorConfig) -> EstimateReport:
    """Estimate the node count of ``tree`` within +- xi * 2^height.

    Empty trees return 0 exactly and height-0 trees return 1 exactly,
    without any sampling; the depth-0 factor is always pinned to 1 since
    a nonempty truncation at depth 0 is the bare root.

    With the default "chain" transport every sample is an independent
    restart of the lazy walk run for its full burn-in.  The "exact"
    transport draws root hits from the exact stationary mass instead
    (requires a materializable tree) and reports zero chain steps; it
    exists to validate the estimator's statistics separately from the
    walk's mixing.  Depths run in order, each on its own ``derived_rng``.
    """
    t0 = time.perf_counter()
    if tree.is_empty:
        return _report(0.0, tree.height, config, (), "empty", t0, error_radius=0.0)
    n = tree.height
    guard_height(n)
    exact0 = AlphaEstimate(1.0, 0.0, 1.0, 0, 0, 1.0, 0)
    if n == 0:
        return _report(1.0, 0, config, (exact0,), "telescoping", t0)

    zeta = config.xi / (2 * (n + 1))
    delta_call = config.delta / (n + 1)
    masses = _exact_root_masses(tree) if config.transport == "exact" else None
    alphas = [exact0]
    for i in range(1, n + 1):
        rng = derived_rng(config.seed, i)
        if masses is None:
            alpha = chain_mod.estimate_alpha(tree, i, zeta, delta_call, config.chain, rng)
        else:
            alpha = chain_mod._alpha_from_hits(
                i, zeta, delta_call, lambda m, p=masses[i]: int(rng.binomial(m, p)), 0
            )
        alphas.append(alpha)

    raw = telescoped_size([1.0 / a.value for a in alphas])
    return _report(raw, n, config, tuple(alphas), "telescoping", t0)


def _tree_of(source: BranchingTree | SelfReducibleInstance) -> BranchingTree:
    if isinstance(source, SelfReducibleInstance):
        # Memoized replay, for this call only: the chain transport's walk
        # asks for the same nodes' children over and over.
        return build_branching_tree(source, memoize=True)
    return source


def count_up_to(
    source: BranchingTree | SelfReducibleInstance,
    threshold: int,
) -> CountOutcome:
    """Decide deterministically whether the tree has at most ``threshold`` nodes.

    Depth-first enumeration (``iter_nodes``) that stops as soon as
    threshold+1 nodes are seen, so it never visits more than threshold+1
    nodes; on a machine-backed tree no node's children are advanced after
    the last node counted.
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    tree = _tree_of(source)
    if tree.is_empty:
        return ExactCount(0, 0)
    count = 0
    for _ in tree.iter_nodes():
        count += 1
        if count > threshold:
            return ExceedsThreshold(threshold, count)
    return ExactCount(count, count)


def absolute_error_estimate(
    source: BranchingTree | SelfReducibleInstance,
    s: float,
    delta: float,
    seed: int,
    chain: ChainParams = ChainParams(),
    transport: str = "chain",
) -> EstimateReport:
    """Estimate within absolute error 2^(height/2) * sqrt(s).

    Runs the size estimator with xi = sqrt(s / 2^height); the budget knob
    s must lie in [1, 2^height].
    """
    tree = _tree_of(source)
    n = tree.height
    guard_height(n)
    if not 1 <= s <= 2.0**n:
        raise ValueError(f"s must lie in [1, 2^{n}]")
    xi = math.sqrt(s / 2.0**n)
    config = EstimatorConfig(min(xi, 1.0), delta, seed, chain, transport)
    return estimate_size(tree, config)


def ras(
    source: BranchingTree | SelfReducibleInstance,
    k: float,
    beta: float,
    delta: float,
    seed: int,
    chain: ChainParams = ChainParams(),
    transport: str = "chain",
) -> EstimateReport:
    """Relative (1 +- 1/k) approximation in sub-exhaustive time.

    With s = 2^(beta * height), small counts (up to ceil(k 2^(height/2)
    sqrt(s))) are resolved exactly by the threshold decider; larger counts
    fall through to the absolute-error estimator, whose radius
    2^(height/2) sqrt(s) is then below count / k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 < beta < 1:
        raise ValueError("beta must lie in (0, 1)")
    t0 = time.perf_counter()
    tree = _tree_of(source)
    n = tree.height
    guard_height(n)
    s = 2.0 ** (beta * n)
    tau = math.ceil(k * 2.0 ** (n / 2) * math.sqrt(s))
    outcome = count_up_to(tree, tau)
    if isinstance(outcome, ExactCount):
        config = EstimatorConfig(
            min(1.0, max(math.sqrt(s / 2.0**n), 1e-9)), delta, seed, chain, transport
        )
        return _report(
            float(outcome.value), n, config, (), "exact", t0, error_radius=0.0
        )
    return absolute_error_estimate(tree, s, delta, seed, chain, transport)
