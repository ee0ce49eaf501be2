"""Binary branching trees addressed by choice bitstrings.

A tree here is a prefix-closed set of nodes inside the full binary tree of
height n.  A node is identified purely by the sequence of binary choices
(0 = left, 1 = right) that reaches it from the root, so implicit trees of
large height are representable without materializing anything.  Trees are
exposed through a children oracle; the oracle is pure and read-only, so
every pass over a tree sees the same nodes.  Whole-tree passes (``materialize``,
the threshold decider, exact per-depth counts) go through ``iter_nodes``,
which a tree may implement more cheaply than one oracle call per node.

The empty tree is a first-class value: downstream estimators check
``is_empty`` and never run a walk on it.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from typing import Iterable, Iterator

import numpy as np

from .errors import NotInTreeError, ParseError, SizeGuardError

NodePath = tuple[int, ...]

ROOT: NodePath = ()

DEFAULT_MATERIALIZE_GUARD = 10**6


class BranchingTree(ABC):
    """Oracle view of a prefix-closed binary tree of bounded height."""

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

    @abstractmethod
    def __contains__(self, node: NodePath) -> bool: ...

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

    def __contains__(self, node: NodePath) -> bool:
        return tuple(node) in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)

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

    def depth_counts(self) -> list[int]:
        """Number of nodes at each depth 0..height."""
        counts = [0] * (self.height + 1)
        for p in self.nodes:
            counts[len(p)] += 1
        return counts

    def is_full_binary(self) -> bool:
        return len(self.nodes) == 2 ** (self.height + 1) - 1


class TruncatedTree(BranchingTree):
    """View of a tree cut at a given depth; children at the cut are hidden."""

    def __init__(self, base: BranchingTree, height: int):
        if isinstance(base, TruncatedTree):
            height, base = min(height, base.height), base.base
        self.base = base
        self.height = int(height)

    @property
    def is_empty(self) -> bool:
        return self.base.is_empty

    def children(self, node: NodePath) -> tuple[NodePath, ...]:
        if len(node) > self.height:
            raise NotInTreeError(f"node {node!r} is deeper than the truncation depth")
        if len(node) == self.height:
            if node not in self.base:
                raise NotInTreeError(f"node {node!r} is not in the tree")
            return ()
        return self.base.children(node)

    def __contains__(self, node: NodePath) -> bool:
        return len(node) <= self.height and node in self.base

    def iter_nodes(self, max_depth: int | None = None) -> Iterator[NodePath]:
        cut = self.height if max_depth is None else min(max_depth, self.height)
        return self.base.iter_nodes(cut)


def truncate(tree: BranchingTree, depth: int) -> BranchingTree:
    """The subtree of all nodes of depth <= ``depth``, with height ``depth``."""
    if not 0 <= depth <= tree.height:
        raise ValueError(f"truncation depth {depth} outside [0, {tree.height}]")
    if isinstance(tree, ExplicitTree):
        return ExplicitTree((p for p in tree.nodes if len(p) <= depth), height=depth)
    return TruncatedTree(tree, depth)


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


def materialize(tree: BranchingTree, max_nodes: int = DEFAULT_MATERIALIZE_GUARD) -> ExplicitTree:
    """Enumerate the tree's nodes (``tree.iter_nodes``) into an explicit tree.

    Raises SizeGuardError as soon as more than ``max_nodes`` nodes are
    seen.  The declared height is preserved so stationary masses computed
    on the result match the implicit original.  Nothing is cached: each
    call enumerates the tree again, under its own guard.
    """
    if tree.is_empty:
        return ExplicitTree((), height=tree.height)
    if isinstance(tree, ExplicitTree):
        return tree
    nodes: list[NodePath] = []
    for node in tree.iter_nodes():
        nodes.append(node)
        if len(nodes) > max_nodes:
            raise SizeGuardError(f"tree exceeds the materialization guard of {max_nodes} nodes")
    return ExplicitTree(nodes, height=tree.height)


def random_tree(
    rng: np.random.Generator,
    height: int,
    child_prob: float = 0.5,
    max_nodes: int | None = None,
    ensure_height: bool = True,
) -> ExplicitTree:
    """Random prefix-closed tree of the given declared height.

    Children are kept independently with probability ``child_prob``;
    ``ensure_height`` forces one random path down to full depth so the
    declared height is actually realized.  ``max_nodes`` caps the size by
    stopping breadth-first growth.
    """
    nodes: set[NodePath] = {ROOT}
    if ensure_height:
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
