"""The lazy up/down walk on a branching tree and its root-mass estimator.

The walk moves from a node to its parent with probability 1/4, to each
present child with probability 1/8, and stays put otherwise (so the hold
probability is always at least 1/2).  Its stationary law puts mass
proportional to 2^(n - depth) on each node, where n is the tree height;
the normalizing factor alpha therefore satisfies pi(root) = alpha * 2^n,
and estimating the root's stationary mass recovers alpha.

Because every transition probability is a multiple of 1/8, one step is
a table lookup on a uniform draw from {0..7}.  The vectorized walker for
explicit trees composes that table with itself into a j-step table whose
columns are the 8^j sequences of j draws, so one gather on a uniform
3j-bit code moves a walker j steps with exactly the law of j steps (see
``IndexedTree``).  The scalar ``lazy_step`` keeps the interval form of
the same kernel for oracle-backed trees.

Sample-size rule: estimating pi(root) within a factor (1 +- zeta) with
failure probability <= 1/4 needs m = ceil(4(n+1)/zeta^2) independent
draws (Chebyshev, using Var <= (1-p)/p and p >= 1/(n+1)); the confidence
is then boosted to 1 - delta by taking the median of t = ceil(8 ln(1/delta))
repetitions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import SizeGuardError
from .trees import (
    ROOT,
    BranchingTree,
    ExplicitTree,
    NodePath,
    TruncatedTree,
    materialize,
)

TRANSPORTS = ("chain", "exact")


@dataclass(frozen=True)
class ChainParams:
    """Knobs of the walk: target deviation from stationarity and burn-in slack.

    ``tv_tolerance`` is the allowed total-variation deviation of a sample
    from the stationary law.  The two entry points fill it differently:
    ``estimate_alpha`` uses it when set and otherwise derives
    zeta / (8 (n+1)) from its accuracy target (``default_tv_tolerance``);
    ``estimator.estimate_size`` always replaces it with zeta / (1 + zeta)
    for its per-depth zeta, whatever the caller set.
    ``burn_in_constant`` is the unspecified constant of the
    conductance-based mixing bound.
    """

    tv_tolerance: float | None = None
    burn_in_constant: float = 2.0

    def __post_init__(self):
        if self.tv_tolerance is not None and not 0 < self.tv_tolerance < 1:
            raise ValueError("tv_tolerance must lie in (0, 1)")
        if self.burn_in_constant <= 0:
            raise ValueError("burn_in_constant must be positive")


@dataclass(frozen=True)
class AlphaEstimate:
    """Estimated normalizing factor of the stationary law on one tree."""

    value: float
    zeta: float
    confidence: float
    samples: int
    repetitions: int
    root_hit_fraction: float
    chain_steps: int = 0


def default_tv_tolerance(zeta: float, height: int) -> float:
    """Deviation small enough to be absorbed into the relative target zeta."""
    return zeta / (8 * (height + 1))


def burn_in_steps(height: int, tv_tolerance: float, constant: float = 2.0) -> int:
    """Steps until the walk from the root is within ``tv_tolerance`` of stationary.

    Conductance of the lazy walk is at least 1/(4(n+1)) and the root's
    stationary mass at least 1/(n+1), giving
    T = ceil(C * 16 (n+1)^2 * (ln(n+1) + ln(1/tv))).  On a single node the
    distribution is already exact, so T = 0.
    """
    if height < 0:
        raise ValueError("height must be nonnegative")
    if not 0 < tv_tolerance < 1:
        raise ValueError("tv_tolerance must lie in (0, 1)")
    if constant <= 0:
        raise ValueError("constant must be positive")
    if height == 0:
        return 0
    n1 = height + 1
    return math.ceil(constant * 16 * n1 * n1 * (math.log(n1) + math.log(1.0 / tv_tolerance)))


def lazy_step(tree: BranchingTree, node: NodePath, rng: np.random.Generator) -> NodePath:
    """One move of the lazy walk: parent 1/4, each child 1/8, else stay."""
    u = rng.random()
    if u < 0.25:
        return node[:-1] if node else node
    if u < 0.5:
        kids = tree.children(node)
        want = node + (0,) if u < 0.375 else node + (1,)
        if want in kids:
            return want
        return node
    return node


def sample_stationary(
    tree: BranchingTree,
    height: int,
    params: ChainParams,
    rng: np.random.Generator,
) -> NodePath:
    """One walk from the root for the full burn-in; returns the final node."""
    if tree.is_empty:
        raise ValueError("cannot sample from an empty tree")
    if params.tv_tolerance is None:
        raise ValueError("sample_stationary needs an explicit tv_tolerance")
    node: NodePath = ROOT
    for _ in range(burn_in_steps(height, params.tv_tolerance, params.burn_in_constant)):
        node = lazy_step(tree, node, rng)
    return node


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


# ---------------------------------------------------------------------------
# batched walking on explicit trees


# Entries of the j-step table (int32, so 128 KB) and uint16 codes per draw
# block (64 KB).  Larger caps buy little speed and cost resident memory.
_TABLE_ENTRIES = 1 << 15
_BLOCK_CODES = 1 << 15
# A j-step code takes 3j bits and must fit a uint16.
_MAX_JUMP = 5


class IndexedTree:
    """Array form of an explicit tree for the vectorized walker.

    ``flat_table[8 k + b]`` is the node reached from node k when the step
    draw is b in {0..7}: draws 0-1 move to the parent (the root holds),
    draw 2 to the left child, draw 3 to the right child (absent children
    hold), and draws 4-7 hold.  Each outcome thus has exactly its kernel
    probability.

    ``jump_table[8^j k + c]``, for c in [0, 8^j), is the node reached from
    node k after ``jump`` = j one-step moves whose draws are the base-8
    digits of c, most significant first.  It is ``flat_table`` composed
    with itself j times.  A uniform c has j independent uniform digits, so
    an outcome's share of the 8^j columns is exactly its probability under
    j steps of the walk: row k of the transition matrix to the power j.
    j is the largest value up to 5 whose table, K 8^j entries for K nodes,
    stays within 2^15 entries: j = 5 at a single node, 4 up to 8 nodes,
    3 up to 64, 2 up to 512; trees above 4096 nodes walk with j = 1.
    """

    def __init__(self, tree: ExplicitTree):
        if tree.is_empty:
            raise ValueError("empty tree")
        self.nodes = sorted(tree.nodes, key=lambda p: (len(p), p))
        index = {p: i for i, p in enumerate(self.nodes)}
        k = len(self.nodes)
        table = np.empty((k, 8), dtype=np.int32)
        for i, p in enumerate(self.nodes):
            parent = index[p[:-1]] if p else i
            left = index.get(p + (0,), i)
            right = index.get(p + (1,), i)
            table[i] = (parent, parent, left, right, i, i, i, i)
        self.flat_table = table.ravel()
        self.root = index[ROOT]
        jump, self.jump = table, 1
        while self.jump < _MAX_JUMP and k * 8 ** (self.jump + 1) <= _TABLE_ENTRIES:
            jump = table[jump].reshape(k, -1)
            self.jump += 1
        self.jump_table = jump.ravel()

    def walk_batch(self, n_walkers: int, steps: int, rng: np.random.Generator) -> np.ndarray:
        """Final node indices of ``n_walkers`` independent walks from the root.

        Walks ``steps // jump`` gathers on the j-step table, then the
        ``steps % jump`` leftover steps on the one-step table.
        """
        state = np.full(n_walkers, self.root, dtype=np.int32)
        index = np.empty_like(state)
        _advance(state, index, self.jump_table, self.jump, steps // self.jump, rng)
        _advance(state, index, self.flat_table, 1, steps % self.jump, rng)
        return state


def _advance(state, index, table, jump, gathers, rng) -> None:
    """Move every walker in ``state`` by ``gathers`` lookups of a ``jump``-step table."""
    bits = 3 * jump
    rows = max(1, _BLOCK_CODES // max(len(state), 1))
    for start in range(0, gathers, rows):
        codes = rng.integers(
            0, 1 << bits, size=(min(rows, gathers - start), len(state)), dtype=np.uint16
        )
        for row in codes:
            np.left_shift(state, bits, out=index)
            index |= row
            # Every index is in range; "clip" only skips the bounds buffer.
            np.take(table, index, out=state, mode="clip")
        # Free this block before the next one is drawn.
        del codes, row


def _as_explicit(tree: BranchingTree) -> ExplicitTree | None:
    """Cheap explicit view when one exists; None for oracle-backed trees."""
    if isinstance(tree, ExplicitTree):
        return tree
    if isinstance(tree, TruncatedTree) and isinstance(tree.base, ExplicitTree):
        return ExplicitTree(
            (p for p in tree.base.nodes if len(p) <= tree.height), height=tree.height
        )
    return None


def sample_size_for(height: int, zeta: float) -> int:
    """Draws per repetition for a (1 +- zeta) root-mass estimate at 3/4 confidence."""
    return math.ceil(4 * (height + 1) / (zeta * zeta))


def repetitions_for(delta: float) -> int:
    """Median repetitions boosting 3/4 confidence to 1 - delta."""
    return max(1, math.ceil(8 * math.log(1.0 / delta)))


def _alpha_from_hits(
    height: int,
    zeta: float,
    delta: float,
    draw_hits: Callable[[int], int],
    steps_per_sample: int,
) -> AlphaEstimate:
    m = sample_size_for(height, zeta)
    t = repetitions_for(delta)
    fractions = [draw_hits(m) / m for _ in range(t)]
    p_hat = float(np.median(fractions))
    if p_hat <= 0.0:
        # Keeps the reciprocal finite; under the sample-size rule the median
        # of root-hit fractions is zero only with negligible probability.
        p_hat = 1.0 / (2.0 * m)
    return AlphaEstimate(
        value=p_hat * 2.0 ** (-height),
        zeta=zeta,
        confidence=1.0 - delta,
        samples=m,
        repetitions=t,
        root_hit_fraction=p_hat,
        chain_steps=m * t * steps_per_sample,
    )


def estimate_alpha(
    tree: BranchingTree,
    height: int,
    zeta: float,
    delta: float,
    params: ChainParams = ChainParams(),
    rng: np.random.Generator | None = None,
    transport: str = "chain",
) -> AlphaEstimate:
    """Estimate the normalizing factor of the stationary law on ``tree``.

    Parameters
    ----------
    tree : nonempty branching tree (explicit or oracle-backed).
    height : height at which the tree is viewed; alpha = pi(root) / 2^height.
    zeta, delta : relative error target and failure probability, both in (0,1).
    params : walk configuration; tv_tolerance defaults to zeta / (8(height+1)).
    rng : numpy Generator; required unless the tree has a single node.
    transport : "chain" draws each sample by running the walk for the full
        burn-in; "exact" draws root hits from the exact stationary mass of
        the (materialized) tree -- a perfect-sampling shortcut for
        validation, with zero chain steps.

    The estimate satisfies P[(1-zeta) alpha <= value <= (1+zeta) alpha]
    >= 1 - delta, up to the stationarity deviation absorbed into zeta.
    """
    if tree.is_empty:
        raise ValueError("cannot estimate alpha of an empty tree")
    if not 0 < zeta < 1:
        raise ValueError("zeta must lie in (0, 1)")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if transport not in TRANSPORTS:
        raise ValueError(f"unknown transport {transport!r}")
    if height == 0:
        # Single reachable node: the root has all the mass, analytically.
        return AlphaEstimate(1.0, zeta, 1.0, 0, 0, 1.0, 0)
    if rng is None:
        raise ValueError("an rng is required for sampling")

    if transport == "exact":
        explicit = _as_explicit(tree) or materialize(tree)
        if explicit.height != height:
            explicit = ExplicitTree(explicit.nodes, height=height)
        p = float(root_mass_exact(explicit))
        return _alpha_from_hits(
            height, zeta, delta, lambda m: int(rng.binomial(m, p)), steps_per_sample=0
        )

    tv = params.tv_tolerance if params.tv_tolerance is not None else default_tv_tolerance(zeta, height)
    steps = burn_in_steps(height, tv, params.burn_in_constant)
    explicit = _as_explicit(tree)
    if explicit is not None:
        indexed = IndexedTree(explicit)

        def draw_hits(m: int) -> int:
            finals = indexed.walk_batch(m, steps, rng)
            return int(np.count_nonzero(finals == indexed.root))

    else:

        def draw_hits(m: int) -> int:
            hits = 0
            for _ in range(m):
                node: NodePath = ROOT
                for _ in range(steps):
                    node = lazy_step(tree, node, rng)
                hits += node == ROOT
            return hits

    return _alpha_from_hits(height, zeta, delta, draw_hits, steps_per_sample=steps)


def guard_height(height: int, limit: int = 500) -> None:
    """Reject heights whose 2^height leaves double precision entirely."""
    if height > limit:
        raise SizeGuardError(
            f"height {height} exceeds the floating-point guard of {limit}"
        )
