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

Guarantee.  Every depth i >= 1 is estimated at relative accuracy
zeta = xi / (2(n+1)) with failure budget delta / (n+1).  Each exact
1/alpha_k = W_k, the weight of S_k viewed at height k, lies in
[2^k, (k+1) 2^k].  If every alpha-hat_k / alpha_k lies in [a, b], each
1/alpha-hat_k is off by at most e W_k with e = max(1/a - 1, 1 - 1/b),
and the telescoped sum, whose depth-0 term is exact, by at most
e sum_{k=1}^{n} (k+1) 2^k = e n 2^(n+1).  So:

- "exact" transport: [a, b] = [1 - zeta, 1 + zeta] and e = zeta / (1 - zeta),
  so |S-hat - |S|| <= n / ((n+1)(1 - zeta)) xi 2^n <= xi 2^n (as
  (n+1) zeta = xi/2 <= 1/2), with failure probability at most
  n delta / (n+1) <= delta;
- "chain" transport at burn constant C >= 2: the burn-in's root deviation
  eps = zeta / (1 + zeta) widens [a, b] to [(1 - zeta)/(1 + zeta), 1 + 2 zeta]
  and the per-depth failure bound to (delta/(n+1))^((1 - zeta)^2) (see
  ``chain.estimate_alpha``), so e = 2 zeta / (1 - zeta) and
  |S-hat - |S|| <= 2n / ((n+1)(1 - zeta)) xi 2^n <= 2 xi 2^n, with
  failure probability at most n (delta/(n+1))^((1 - zeta)^2).

The reported ``error_radius`` is xi 2^n on both transports: on the chain
transport that is what the schedule aims at, not what it proves.

Also here: the exact threshold decider (depth-first search that never
visits more than threshold+1 nodes), the absolute-error scheduler, and
the sub-exhaustive randomized approximation scheme built from the two.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import chain as chain_mod
from .chain import BURN_CONST, AlphaEstimate, guard_height
from .machine import SelfReducibleInstance, build_branching_tree

from .trees import BranchingTree, depth_counts

# ``materialize`` and ``truncate`` are not called here (enumeration goes
# through ``depth_counts``, and a truncation is a depth argument), but they
# stay module attributes: the benchmark tracer, benchmarks/tracer.py,
# patches ``estimator.materialize`` and ``estimator.truncate``.
from .trees import materialize, truncate  # noqa: F401

# The first transport is the default.
TRANSPORTS = ("chain", "exact")


def derived_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic substream for (seed, key...): a depth's draws depend on nothing else."""
    return np.random.default_rng(np.random.SeedSequence(entropy=[seed, *key]))


@dataclass(frozen=True)
class EstimatorConfig:
    """Accuracy targets and reproducibility knobs for one estimation run.

    ``burn_const`` is the multiplier C > 0 of the walk's burn-in bound
    (``chain.burn_in_steps``); C = 2 carries the guarantee.
    """

    xi: float
    delta: float
    seed: int
    burn_const: float = BURN_CONST
    transport: str = TRANSPORTS[0]

    def __post_init__(self):
        if not 0 < self.xi <= 1:
            raise ValueError("xi must lie in (0, 1]")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if not 0 < self.burn_const < math.inf:
            raise ValueError(f"burn_const must be positive and finite, got {self.burn_const}")
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
    alpha_estimates: tuple[AlphaEstimate, ...]
    total_chain_steps: int
    total_samples: int
    mode: str
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
    error_radius: float | None = None,
) -> EstimateReport:
    return EstimateReport(
        size_estimate=raw,
        size_clamped=_clamp_size(raw, height),
        fraction=raw / 2.0**height,
        error_radius=config.xi * 2.0**height if error_radius is None else error_radius,
        height=height,
        xi=config.xi,
        alpha_estimates=alphas,
        total_chain_steps=sum(a.chain_steps for a in alphas),
        total_samples=sum(a.samples * a.repetitions for a in alphas),
        mode=mode,
        degenerate_depths=sum(a.degenerate for a in alphas),
    )


def _exact_root_masses(tree: BranchingTree) -> list[float]:
    """pi_{S_i}(root) for every depth i, from one count of nodes per depth."""
    masses: list[float] = []
    weight = 0  # sum over nodes of depth <= i of 2^(i - depth), updated per level
    for i, count in enumerate(depth_counts(tree)):
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
    if tree.is_empty:
        return _report(0.0, tree.height, config, (), "empty", error_radius=0.0)
    n = tree.height
    guard_height(n)
    exact0 = AlphaEstimate(1.0, 0.0, 0, 0, 1.0, 0)
    if n == 0:
        return _report(1.0, 0, config, (exact0,), "telescoping")

    zeta = config.xi / (2 * (n + 1))
    delta_call = config.delta / (n + 1)
    masses = _exact_root_masses(tree) if config.transport == "exact" else None
    alphas = [exact0]
    for i in range(1, n + 1):
        rng = derived_rng(config.seed, i)
        if masses is None:
            alpha = chain_mod.estimate_alpha(tree, i, zeta, delta_call, config.burn_const, rng)
        else:
            alpha = chain_mod._alpha_from_hits(
                i, zeta, delta_call, lambda m, p=masses[i]: int(rng.binomial(m, p)), 0
            )
        alphas.append(alpha)

    raw = telescoped_size([1.0 / a.value for a in alphas])
    return _report(raw, n, config, tuple(alphas), "telescoping")


def _tree_of(source: BranchingTree | SelfReducibleInstance) -> BranchingTree:
    if isinstance(source, SelfReducibleInstance):
        return build_branching_tree(source)
    return source


def count_up_to(
    source: BranchingTree | SelfReducibleInstance,
    threshold: int,
) -> CountOutcome:
    """Decide deterministically whether the tree has at most ``threshold`` nodes.

    Depth-first enumeration (``iter_nodes``) cut off after threshold+1
    nodes, the way ``trees.guarded_nodes`` cuts at its guard, so it never
    visits more than threshold+1 nodes; on a machine-backed tree no node's
    children are advanced after the last node counted.
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    # islice stops at sys.maxsize at most, a count no enumeration reaches.
    stop = min(threshold + 1, sys.maxsize)
    count = sum(1 for _ in itertools.islice(_tree_of(source).iter_nodes(), stop))
    if count > threshold:
        return ExceedsThreshold(threshold, count)
    return ExactCount(count, count)


def absolute_error_estimate(
    source: BranchingTree | SelfReducibleInstance,
    s: float,
    delta: float,
    seed: int,
    burn_const: float = BURN_CONST,
    transport: str = TRANSPORTS[0],
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
    config = EstimatorConfig(min(math.sqrt(s / 2.0**n), 1.0), delta, seed, burn_const, transport)
    return estimate_size(tree, config)


def ras(
    source: BranchingTree | SelfReducibleInstance,
    k: float,
    beta: float,
    delta: float,
    seed: int,
    burn_const: float = BURN_CONST,
    transport: str = TRANSPORTS[0],
) -> EstimateReport:
    """Relative (1 +- 1/k) approximation in sub-exhaustive time.

    With s = 2^(beta * height), small counts (up to ceil(k 2^(height/2)
    sqrt(s))) are resolved exactly by the threshold decider; larger counts
    are estimated at the absolute-error target xi = sqrt(s / 2^height),
    whose radius 2^(height/2) sqrt(s) is then below count / k.  Both
    routes share one ``EstimatorConfig``, checked before counting.
    """
    if not 1 <= k < math.inf:
        raise ValueError(f"k must be >= 1 and finite, got {k}")
    if not 0 < beta < 1:
        raise ValueError("beta must lie in (0, 1)")
    tree = _tree_of(source)
    n = tree.height
    guard_height(n)
    s = 2.0 ** (beta * n)
    config = EstimatorConfig(min(math.sqrt(s / 2.0**n), 1.0), delta, seed, burn_const, transport)
    # A tree of height n has fewer than 2^(n+1) nodes, so a larger cutoff
    # answers the same and keeps a huge k from overflowing the ceiling.
    cutoff = min(k * 2.0 ** (n / 2) * math.sqrt(s), 2.0 ** (n + 1))
    outcome = count_up_to(tree, math.ceil(cutoff))
    if isinstance(outcome, ExactCount):
        return _report(float(outcome.value), n, config, (), "exact", error_radius=0.0)
    return estimate_size(tree, config)
