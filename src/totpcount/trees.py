"""Binary branching trees addressed by choice bitstrings.

A tree here is a prefix-closed set of nodes inside the full binary tree of
height n.  A node is identified purely by the sequence of binary choices
(0 = left, 1 = right) that reaches it from the root, so implicit trees of
large height are representable without materializing anything.  The
library reads a tree through four members of ``BranchingTree`` and no
others: ``height``, ``is_empty``, the ``children`` oracle and
``iter_nodes``.  The oracle is pure and read-only, so every pass over a
tree sees the same nodes.  Whole-tree passes (``materialize``, the
threshold decider, exact per-depth counts, the walker's index) go
through ``iter_nodes``, which a tree may implement more cheaply than one
oracle call per node.  Every whole-tree pass that keeps or counts all
the nodes -- ``materialize``, ``depth_counts`` and the oracles'
``materialize_tree`` and ``count_computation_paths`` -- stops at one
node guard, ``DEFAULT_MATERIALIZE_GUARD`` (10^6), read when the pass
runs, and raises SizeGuardError past it; the threshold decider stops
the same way at its threshold.  A truncation S_i is a depth,
not a tree object: ``iter_nodes(i)`` enumerates it and the walk takes i
as its cut (``chain.estimate_alpha``); ``truncate`` builds it as an
explicit tree.

The empty tree is a first-class value: downstream estimators check
``is_empty`` and never run a walk on it.
"""
from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from collections import deque
from typing import Iterable, Iterator

import numpy as np

from .errors import NotInTreeError, ParseError, SizeGuardError

NodePath = tuple[int, ...]

ROOT: NodePath = ()

DEFAULT_MATERIALIZE_GUARD = 10**6


class BranchingTree(ABC):
    """Oracle view of a prefix-closed binary tree of bounded height.

    The library calls ``height``, ``is_empty``, ``children`` and
    ``iter_nodes``; a tree implements the first three and may override
    the fourth.
    """

    height: int

    @property
    @abstractmethod
    def is_empty(self) -> bool:
        """True iff the tree contains no nodes at all."""

    @abstractmethod
    def children(self, node: NodePath) -> tuple[NodePath, ...]:
        """Children of ``node`` present in the tree, as extended paths.

        Raises NotInTreeError when ``node`` itself is not in the tree;
        silently answering for foreign nodes would poison the walk.
        """

    def iter_nodes(self, max_depth: int | None = None) -> Iterator[NodePath]:
        """Depth-first preorder over the nodes of depth <= ``max_depth``.

        ``None`` means every node.  Children come from ``children``, so
        an oracle-backed tree pays one oracle call per node; trees that
        can enumerate more cheaply override this.
        """
        if self.is_empty:
            return
        stack: list[NodePath] = [ROOT]
        while stack:
            node = stack.pop()
            yield node
            if max_depth is None or len(node) < max_depth:
                stack.extend(reversed(self.children(node)))


class ExplicitTree(BranchingTree):
    """A tree held as an explicit node set; the test-scale realization."""

    def __init__(self, nodes: Iterable[NodePath], height: int | None = None):
        node_set = frozenset(tuple(p) for p in nodes)
        max_depth = max((len(p) for p in node_set), default=0)
        if height is None:
            height = max_depth
        if height < max_depth:
            raise ValueError(f"declared height {height} is below max node depth {max_depth}")
        for p in node_set:
            if any(b not in (0, 1) for b in p):
                raise ValueError(f"node {p!r} is not a bitstring")
            if p and p[:-1] not in node_set:
                raise ValueError(f"node set is not prefix-closed: missing parent of {p!r}")
        if node_set and ROOT not in node_set:
            raise ValueError("nonempty tree must contain the root")
        self.nodes = node_set
        self.height = int(height)

    @property
    def is_empty(self) -> bool:
        return not self.nodes

    def children(self, node: NodePath) -> tuple[NodePath, ...]:
        if node not in self.nodes:
            raise NotInTreeError(f"node {node!r} is not in the tree")
        return tuple(c for b in (0, 1) if (c := node + (b,)) in self.nodes)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExplicitTree)
            and self.nodes == other.nodes
            and self.height == other.height
        )

    def __hash__(self) -> int:
        return hash((self.nodes, self.height))

    def __repr__(self) -> str:
        return f"ExplicitTree({len(self.nodes)} nodes, height={self.height})"


def truncate(tree: BranchingTree, depth: int) -> ExplicitTree:
    """The subtree of all nodes of depth <= ``depth``, with height ``depth``, as an explicit tree."""
    if not 0 <= depth <= tree.height:
        raise ValueError(f"truncation depth {depth} outside [0, {tree.height}]")
    return ExplicitTree(tree.iter_nodes(depth), height=depth)


def exact_size(tree: ExplicitTree) -> int:
    """Ground-truth node count of an explicit tree."""
    return len(tree.nodes)


def full_binary_tree(height: int) -> ExplicitTree:
    """The complete binary tree with every node down to ``height``."""
    nodes: list[NodePath] = [ROOT]
    frontier: list[NodePath] = [ROOT]
    for _ in range(height):
        frontier = [p + (b,) for p in frontier for b in (0, 1)]
        nodes.extend(frontier)
    return ExplicitTree(nodes, height=height)


def materialize(tree: BranchingTree) -> ExplicitTree:
    """Enumerate the tree's nodes (``guarded_nodes``) into an explicit tree.

    Raises SizeGuardError as soon as more nodes than the node guard
    allows are seen.  The declared height is preserved so stationary masses computed
    on the result match the implicit original.  Nothing is cached: each
    call enumerates the tree again, under the guard as it is then.
    """
    if tree.is_empty:
        return ExplicitTree((), height=tree.height)
    if isinstance(tree, ExplicitTree):
        return tree
    return ExplicitTree(guarded_nodes(tree), height=tree.height)


def guarded_nodes(tree: BranchingTree) -> Iterator[NodePath]:
    """``tree.iter_nodes()``, raising SizeGuardError where it would pass the node guard.

    The guard is ``DEFAULT_MATERIALIZE_GUARD`` when the enumeration
    starts, checked once after that many nodes, not once per node.
    """
    guard = DEFAULT_MATERIALIZE_GUARD
    nodes = tree.iter_nodes()
    yield from itertools.islice(nodes, guard)
    if next(nodes, None) is not None:
        raise SizeGuardError(f"tree exceeds the materialization guard of {guard} nodes")


def depth_counts(tree: BranchingTree) -> list[int]:
    """Number of nodes at each depth 0..height, by one guarded enumeration."""
    counts = [0] * (tree.height + 1)
    for node in guarded_nodes(tree):
        counts[len(node)] += 1
    return counts


def random_tree(
    rng: np.random.Generator,
    height: int,
    child_prob: float = 0.5,
    max_nodes: int | None = None,
) -> ExplicitTree:
    """Random prefix-closed tree of the given declared height.

    One random path is forced down to full depth so the declared height
    is actually realized; every other child is kept independently with
    probability ``child_prob``.  ``max_nodes`` caps the size by stopping
    breadth-first growth; it must leave room for the root and that
    forced path, or ValueError is raised.
    """
    if max_nodes is not None and max_nodes < height + 1:
        raise ValueError(f"max_nodes {max_nodes} is below the {height + 1} nodes every such tree has")
    nodes: set[NodePath] = {ROOT}
    path: NodePath = ROOT
    for _ in range(height):
        path = path + (int(rng.integers(0, 2)),)
        nodes.add(path)
    queue: deque[NodePath] = deque(sorted(nodes, key=lambda p: (len(p), p)))
    while queue:
        node = queue.popleft()
        if len(node) >= height:
            continue
        for b in (0, 1):
            child = node + (b,)
            if child in nodes:
                continue
            if max_nodes is not None and len(nodes) >= max_nodes:
                continue
            if rng.random() < child_prob:
                nodes.add(child)
                queue.append(child)
    return ExplicitTree(nodes, height=height)


def save_tree(tree: ExplicitTree, path) -> None:
    """Write one node per line; '-' stands for the root (empty path)."""
    with open(path, "w", encoding="utf-8") as fh:
        for node in sorted(tree.nodes, key=lambda p: (len(p), p)):
            fh.write(("-" if not node else "".join(str(b) for b in node)) + "\n")


def load_tree(path) -> ExplicitTree:
    """Read a tree file, validating bitstrings and prefix-closure."""
    nodes: list[NodePath] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line == "-":
                nodes.append(ROOT)
                continue
            if any(ch not in "01" for ch in line):
                raise ParseError(f"{path}:{lineno}: expected a string over {{0,1}} or '-'")
            nodes.append(tuple(int(ch) for ch in line))
    try:
        return ExplicitTree(nodes)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
