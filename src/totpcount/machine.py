"""Branching trees of self-reducible counting machines.

A ``SelfReducibleInstance`` is a deterministic state machine that either
halts, steps to a single successor, or splits into two successors, both of
which are known to lead to at least one solution.  The number of solutions
of the instance is recovered as the node count of its *branching tree*:
the tree whose nodes are the split points, addressed by the bitstring of
split choices taken to reach them.

To make node count equal solution count exactly, the machine is wrapped
with one synthetic final split appended at the end of the rightmost run
(the run that never takes a 0 at any split; a split-free run counts as
rightmost).  A wrapped machine with f solutions then has f tree nodes and
f+1 maximal runs.

The ``children`` oracle replays the machine from its initial state along
the node's path on every call, keeping the oracle pure and the tree
stateless; the chain walk asks it once per node it expands, into a table
of rows that it grows for one call (``chain._GrownRows``).  Whole-tree enumeration goes
through ``InstanceTree.iter_nodes`` instead: a depth-first walk that
keeps every pending node's split pair on its stack, so each tree edge
costs one advance and no path is ever replayed.  An advance allocates
nothing but its two child cursors, which are plain tuples.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator

from .errors import MalformedInstanceError, NotInTreeError
from .trees import ROOT, BranchingTree, NodePath


@dataclass(frozen=True)
class Halt:
    """The run ends here."""


@dataclass(frozen=True)
class Deterministic:
    """The run continues to a single successor state."""

    state: Any


@dataclass(frozen=True)
class Branch:
    """The run splits; both successors lead to at least one solution."""

    if_zero: Any
    if_one: Any


StepOutcome = Halt | Deterministic | Branch

HALT = Halt()


@dataclass(frozen=True)
class SelfReducibleInstance:
    """Problem-specific machine: step/decision functions plus bounds.

    ``branch_bound`` is the maximum number of split choices on any run of
    the wrapped machine (the tree height bound).  ``step_budget`` bounds
    total ``step`` calls along one run; exceeding it raises instead of
    hanging.  ``decision(initial)`` must be False exactly when the
    instance has no solutions.
    """

    initial: Any
    step: Callable[[Any], StepOutcome]
    decision: Callable[[Any], bool]
    branch_bound: int
    step_budget: int


# Sentinel state for the two runs spawned by the synthetic final split.
_SYNTHETIC_LEAF = object()


def _advance(instance: SelfReducibleInstance, cur: tuple):
    """Run until the wrapped machine splits or halts.

    A cursor is a point mid-run, the plain tuple ``(state, all_ones,
    steps_used, branches_used)``: the machine state, whether every split
    so far took a 1, and the step calls and splits spent since the
    initial state, whose cursor is ``(initial, True, 0, 0)``.

    Returns ``None`` at a run end, or ``(cursor_if_0, cursor_if_1)`` at a
    split.  The synthetic split fires when the underlying machine halts on
    an all-ones choice prefix (only for nonempty instances).
    """
    state, all_ones, steps, branches = cur
    if state is _SYNTHETIC_LEAF:
        return None
    step, budget = instance.step, instance.step_budget
    while True:
        if steps >= budget:
            raise MalformedInstanceError(f"run exceeded the declared step budget of {budget}")
        outcome = step(state)
        steps += 1
        if isinstance(outcome, Deterministic):
            state = outcome.state
            continue
        if isinstance(outcome, Halt):
            if not all_ones:
                return None
            zero = one = _SYNTHETIC_LEAF
        elif isinstance(outcome, Branch):
            zero, one = outcome.if_zero, outcome.if_one
        else:
            raise MalformedInstanceError(f"step returned {outcome!r}, not a StepOutcome")
        branches += 1
        if branches > instance.branch_bound:
            raise MalformedInstanceError(
                f"run exceeded the declared branch bound of {instance.branch_bound}"
            )
        return (zero, False, steps, branches), (one, all_ones, steps, branches)


class InstanceTree(BranchingTree):
    """Branching tree of a wrapped machine, given by replay.

    Node count equals the instance's solution count; height is declared as
    the instance's branch bound.  ``children`` replays the node's path
    from the initial state; ``iter_nodes`` enumerates the whole tree
    with one advance per edge.
    """

    def __init__(self, instance: SelfReducibleInstance):
        self.instance = instance
        self.height = instance.branch_bound
        self._nonempty = bool(instance.decision(instance.initial))

    @property
    def is_empty(self) -> bool:
        return not self._nonempty

    def _split_at(self, node: NodePath) -> tuple[tuple, tuple]:
        """Child cursors of the split point addressed by ``node``."""
        pair = _advance(self.instance, (self.instance.initial, True, 0, 0))
        if pair is None:
            raise NotInTreeError("the branching tree is empty")
        for depth, bit in enumerate(node):
            pair = _advance(self.instance, pair[bit])
            if pair is None:
                raise NotInTreeError(f"node {node[: depth + 1]!r} is not in the branching tree")
        return pair

    def children(self, node: NodePath) -> tuple[NodePath, ...]:
        if self.is_empty:
            raise NotInTreeError("the branching tree is empty")
        node = tuple(node)
        pair = self._split_at(node)
        return tuple(node + (b,) for b in (0, 1) if _advance(self.instance, pair[b]) is not None)

    def iter_nodes(self, max_depth: int | None = None) -> Iterator[NodePath]:
        """Depth-first preorder over the nodes, one machine advance per edge.

        The stack holds every pending node together with its split pair,
        so a child's pair comes from advancing one cursor of its parent's
        pair and no path is replayed.  Without ``max_depth`` the cursors
        of nodes at the declared height are advanced too, so a machine
        that branches past its bound raises MalformedInstanceError, as
        ``children`` does; with it, nodes at depth ``max_depth`` are
        yielded and not advanced.  A node's children are advanced only
        when the caller asks for the next node, so a caller that stops
        early pays for no node it did not receive.
        """
        if self.is_empty:
            return
        instance = self.instance
        stack = [(ROOT, self._split_at(ROOT))]
        while stack:
            node, pair = stack.pop()
            yield node
            if max_depth is not None and len(node) >= max_depth:
                continue
            low, high = _advance(instance, pair[0]), _advance(instance, pair[1])
            if high is not None:
                stack.append((node + (1,), high))
            if low is not None:
                stack.append((node + (0,), low))


def build_branching_tree(instance: SelfReducibleInstance) -> InstanceTree:
    """Branching tree with node count equal to the instance's value.

    For a zero-valued instance the returned tree is empty and no machine
    run is ever replayed.
    """
    return InstanceTree(instance)
