"""The lazy up/down walk on a branching tree and its root-mass estimator.

The walk moves from a node to its parent with probability 1/4, to each
present child with probability 1/8, and stays put otherwise (so the hold
probability is always at least 1/2).  Its stationary law puts mass
proportional to 2^(n - depth) on each node, where n is the tree height;
the normalizing factor alpha therefore satisfies pi(root) = alpha * 2^n,
and estimating the root's stationary mass recovers alpha.

The lazy kernel is P = (I + Q) / 2, where the non-lazy kernel Q moves to
the parent with probability 1/2 and to each child with probability 1/4
(a move to the root's parent or to an absent child holds).  By the binomial
theorem P^T = sum_k C(T, k) 2^-T Q^k, so a walk of T lazy steps has
exactly the law of k ~ Binomial(T, 1/2) moves of Q.  The vectorized
walker for explicit trees walks only those moves, by the law
Q^k = Q^r (Q^J)^q, r = k mod J, q = k div J: one draw from the root's
row of Q^r, on every tree, then q jumps of J moves.  Every Q probability
is a multiple of 1/4, so 4^J Q^J is an integer matrix whose rows sum to
4^J, and each draw is one uniform 2J-bit code sampled through an exact
integer CDF of its row: a guide table of 2^g buckets a row gives the
target of each bucket that lies inside one target's codes, and the
row's CDF resolves the codes of a bucket that straddles two targets
(see ``IndexedTree`` and ``_jump``).  A draw first takes the code's top
16 bits, one lane of a full-range 64-bit word, which pick the bucket;
only a walker whose bucket straddles draws the code's other bits.
Every tree builds its rows one way: the jump rows are the integer rows
of (4Q)^J, raised from the rows of 4Q by sparse binary powering, and
the remainder rows are carried forward from the root.  J = 28 while a
row has at least 2^10 buckets, which is every tree of at most 32 nodes;
on larger trees J is the largest j whose 4^j buckets a row fit the
table cap, and no bucket straddles.  Its ``walk_batch``
walks the walkers sorted by their move counts, so the walkers that make
each jump form one suffix, and shuffles the finals at the end.
``estimate_alpha`` walks all t repetitions of m samples of a depth
together, in consecutive ``walk_batch`` calls of 2^15 walkers (the last
one shorter), and credits each call's root hits to the repetition of
each draw position (``_batched_root_hits``).  That one sampling path takes
either walker.  On an oracle-backed tree the walker draws the same move
counts, one ``rng.binomial`` call per batch, then one lazily drawn stream
of 2-bit codes, one a move, and walks the samples one after another from
the root, one Python lookup per move, over a table of the rows of S_i
that grows as the walk finds nodes (``_GrownRows``).  A row's child
columns are filled by one ``children`` query (a machine replay) the
first time a walker there draws a child move, so each node is asked at
most once and no node the walk never reaches is asked at all.  Either
way the walk at depth i runs on the truncation S_i of the tree it is
given, with no tree object for S_i:
``IndexedTree(tree, i)`` indexes only the nodes of depth <= i, and the
grown table gives rows at depth i hold columns without asking the tree,
so the child moves of depth-i nodes find no child and hold.

Sample-size rule: estimating pi(root) within a factor (1 +- zeta) with
failure probability <= 1/4 needs m = ceil(4(n+1)/zeta^2) independent
draws (Chebyshev, using Var <= (1-p)/p and p >= 1/(n+1)); the confidence
is then boosted to 1 - delta by taking the median of t = ceil(8 ln(1/delta))
repetitions.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import SizeGuardError
from .trees import ROOT, BranchingTree, ExplicitTree, NodePath

# ``materialize`` is not called here, but it stays a module attribute: the
# benchmark tracer, benchmarks/tracer.py, patches ``chain.materialize``.
from .trees import materialize  # noqa: F401


@dataclass(frozen=True)
class AlphaEstimate:
    """Estimated normalizing factor of the stationary law on one tree.

    ``degenerate`` is set when the median root-hit fraction was zero and
    was replaced by 1/(2m) to keep 1/alpha finite; such an estimate
    carries no (1 +- zeta) guarantee.
    """

    value: float
    zeta: float
    samples: int
    repetitions: int
    root_hit_fraction: float
    chain_steps: int = 0
    degenerate: bool = False


# The burn-in multiplier C that ``burn_in_steps`` derives; every entry point
# (``EstimatorConfig``, ``capp``, ``ras``, the CLI) defaults to it.
BURN_CONST = 2.0


def burn_in_steps(height: int, root_deviation: float, constant: float = BURN_CONST) -> int:
    """Lazy steps T after which |P^T(r, r) / pi(r) - 1| <= eps = ``root_deviation`` at the root r.

    Derivation, for height n: the lazy walk is reversible with
    eigenvalues in [0, 1], so |P^t(r, r) / pi(r) - 1| <= e^(-gap t) / pi(r);
    its conductance Phi >= 1/(4(n+1)) gives gap >= Phi^2 / 2 >= 1/(32(n+1)^2)
    (Cheeger); and pi(r) >= 1/(n+1), as each of the n+1 depths weighs at
    most 2^n.  So T = ceil(C * 16 (n+1)^2 * (ln(n+1) + ln(1/eps))) meets
    eps at C = 2, the default: the constant is derived, not free.  On a
    single node T = 0.
    """
    if height < 0:
        raise ValueError("height must be nonnegative")
    if not 0 < root_deviation < 1:
        raise ValueError("root_deviation must lie in (0, 1)")
    if not 0 < constant < math.inf:
        raise ValueError(f"constant must be positive and finite, got {constant}")
    if height == 0:
        return 0
    n1 = height + 1
    return _count(
        "burn-in steps T",
        constant * 16 * n1 * n1 * (math.log(n1) + math.log(1.0 / root_deviation)),
    )


def _count(name: str, value: float) -> int:
    """``ceil(value)``, or SizeGuardError naming ``name`` when that is no finite int64."""
    if not value < 2.0**63:
        raise SizeGuardError(f"{name} would be {value:.4g}, not a finite count below 2^63")
    return math.ceil(value)


# The reference rule for one lazy step, holds included.  No walker calls
# it: both walk the Q moves of P = (I + Q) / 2 instead, and the tests
# check their laws against it.  The benchmark tracer, benchmarks/tracer.py,
# patches ``chain.lazy_step`` and refuses to run without it.
def lazy_step(
    children: Callable[[NodePath], tuple[NodePath, ...]],
    node: NodePath,
    u: float,
    depth: int,
) -> NodePath:
    """One lazy-walk move on the depth-``depth`` truncation, on uniform draw ``u``.

    ``children`` is the tree's children function.  Parent on u < 1/4,
    left child on [1/4, 3/8), right child on [3/8, 1/2), else stay.  A
    child move at depth ``depth`` holds without calling ``children``, as
    the truncation has no nodes below it.
    """
    if u < 0.25:
        return node[:-1] if node else node
    if u < 0.5 and len(node) < depth:
        want = node + (0,) if u < 0.375 else node + (1,)
        if want in children(node):
            return want
    return node


# ---------------------------------------------------------------------------
# batched walking on explicit trees


# Entries of each guide table (int32, so 128 KB).  Larger caps buy little
# speed and cost resident memory.
_TABLE_ENTRIES = 1 << 15
# Moves per long jump: 4^28 = 2^56 move sequences, so a jump's code has 56
# bits, of which the first 16 pick the guide bucket.  The int64 search
# bounds of 32 rows then reach 32 2^56 = 2^61; J = 29 would reach 2^63.
_LONG_JUMP = 28
# Fewest guide buckets a row (as a power of two) that a long jump takes.
# Below it a bucket straddles targets too often; the walk then jumps
# j moves on 4^j buckets, which never straddle.
_MIN_GUIDE_BITS = 10
# Terms a chunk of ``_product`` expands, at about 100 bytes of temporaries
# a term: a 31-node build then peaks near 0.45 MB under tracemalloc, where
# expanding each product whole peaked at 1.9 MB.
_PRODUCT_TERMS = 1 << 12
# Walkers per walk_batch call of ``_batched_root_hits``: wide enough to
# spread numpy's per-call cost over many walkers, small enough that the
# walker arrays (16 bytes a walker) stay small.
_BATCH_WALKERS = 1 << 15


class IndexedTree:
    """Array form of a tree, or of its truncation, for the vectorized walker.

    The rows are the nodes of ``tree.iter_nodes(max_depth)`` (every node
    when ``max_depth`` is None), sorted by (depth, path), so the root is
    row 0.  Children past ``max_depth`` are not indexed, so moves to them
    hold, exactly as on the truncated tree.

    The lazy kernel is P = (I + Q) / 2: half of its draws hold at every
    node whatever its children, and the other half make one move of the
    non-lazy kernel Q, which goes to the parent with probability 1/2 and
    to each child with probability 1/4 (a move to the root's parent or
    to an absent child holds).  The walker therefore tables Q only.

    ``flat_table[4 k + b]`` is the node reached from node k by the Q move
    whose draw is b in {0..3}: draws 0-1 move to the parent (the root
    holds), draw 2 to the left child and draw 3 to the right child
    (absent children hold).  Each outcome thus has exactly its Q
    probability.

    The walk moves by jumps of ``jump`` = J moves, drawn from guide
    tables of 2^g buckets a row (g = ``bits``), one uniform 2J-bit code a
    draw (see ``_jump``).  Row k of ``jump_table`` samples the law of
    Q^J from node k, and row r of ``remainder_table``, for r < J, the law
    of Q^r from the root.  The tables hold at most ``_TABLE_ENTRIES``
    = 2^15 entries up to 8192 nodes, which sets g and J for K nodes: up
    to 32 nodes J = 28 and 2^g = 2^10 buckets, the most that
    max(K, 28) rows fit; above, J is the largest j whose K 4^j entries
    fit 2^15 (4 up to 128 nodes, 3 up to 512, 2 up to 2048, and 1 above,
    whose 4 K jump entries pass the cap past 8192 nodes), and 2^g = 4^J.

    Every table is cut from exact integer rows that sum to 4^J, the same
    way on every tree.  Jump row k is row k of (4Q)^J: the rows of 4Q,
    each row's move counts over its four draws, are read off
    ``flat_table`` and raised to the J-th power over their nonzero
    entries by binary powering (``_product``), so no K x K array is built.
    Remainder row r is 4^J Q^r(root, .), which ``flat_table`` carries
    forward from the root one move at a time.  Code c goes to the target
    whose integer CDF interval holds c, so each target has exactly its
    probability.  A bucket holds the 2^(2J - g) codes that share their
    top g bits; one that lies inside one target's interval is that
    target, and one that straddles two or more targets is resolved
    against the row's CDF: ``jump_bounds`` and ``jump_targets``, or
    ``remainder_bounds`` and ``remainder_targets`` (see ``_guide``).
    Above 32 nodes g = 2J, each bucket is one code, so no bucket
    straddles and the bounds are empty.  Each row lists its targets in
    index order.

    Table entries are 2^g times the node reached, pre-shifted into the
    row offset of the next draw; a straddling bucket of row k holds
    -1 - k instead.
    """

    def __init__(self, tree: BranchingTree, max_depth: int | None = None):
        if tree.is_empty:
            raise ValueError("empty tree")
        self.nodes = sorted(tree.iter_nodes(max_depth), key=lambda p: (len(p), p))
        index = {p: i for i, p in enumerate(self.nodes)}
        k = len(self.nodes)
        table = np.empty((k, 4), dtype=np.int32)
        for i, p in enumerate(self.nodes):
            parent = index[p[:-1]] if p else i
            table[i] = (parent, parent, index.get(p + (0,), i), index.get(p + (1,), i))
        self.flat_table = table.ravel()
        self.root = index[ROOT]
        # A long jump's remainder table has J rows, so max(K, J) rows share the cap.
        bits = (_TABLE_ENTRIES // max(k, _LONG_JUMP)).bit_length() - 1
        self.jump = _LONG_JUMP if bits >= _MIN_GUIDE_BITS else max(1, bits // 2)
        self.bits = bits if self.jump == _LONG_JUMP else 2 * self.jump
        width = 2 * self.jump
        # Row r is 4^J Q^r(root, .), an integer row as 4^r Q^r is one:
        # each node passes a quarter of its count along each of its draws.
        reach = np.zeros((self.jump, k), dtype=np.int64)
        reach[0, self.root] = 1 << width
        for r in range(1, self.jump):
            np.add.at(reach[r], self.flat_table, (reach[r - 1] >> 2).repeat(4))
        keys = np.flatnonzero(reach)
        remainder = _guide(keys % k, reach.ravel()[keys], self.bits, width)
        self.remainder_table, self.remainder_bounds, self.remainder_targets = remainder
        # one = 4Q, each row's move counts over its four draws, keyed K row + target.
        # (4Q)^J by binary powering over the bits of J below its leading one: a square
        # for each bit and one more product by 4Q for each set bit (6 products at J = 28).
        one = power = np.unique(np.arange(k).repeat(4) * k + self.flat_table, return_counts=True)
        for bit in bin(self.jump)[3:]:
            power = _product(power, power, k)
            if bit == "1":
                power = _product(power, one, k)
        keys, counts = power
        jump = _guide(keys % k, counts, self.bits, width)
        self.jump_table, self.jump_bounds, self.jump_targets = jump

    def walk_batch(self, n_walkers: int, steps: int, rng: np.random.Generator) -> np.ndarray:
        """Final node indices (int32) of ``n_walkers`` independent ``steps``-step lazy walks from the root.

        Because P = (I + Q) / 2, the binomial theorem gives
        P^T = sum_k C(T, k) 2^-T Q^k: T lazy steps have exactly the law
        of k ~ Binomial(T, 1/2) moves of Q.  Each walker draws its own k,
        and since Q^k = Q^r (Q^J)^q for r = k mod J and q = k div J, it
        makes one draw from the root's remainder row r and then q jumps
        (see ``IndexedTree``).  Every walker starts at the root, so the
        move counts can be sorted without carrying any state along; walked
        in that order, the walkers that make a p-th jump are a suffix of
        the state, and each jump pass moves one suffix.  A final
        ``rng.shuffle`` makes the walkers exchangeable again, so any fixed
        split of the result into rows gives independent rows.  On a
        one-node tree every walk ends at the root, and nothing is drawn.

        A call draws ``n_walkers`` move counts, then ceil(w / 4) 64-bit
        words for each pass of w walkers, 16 bits of code a walker, and
        one more word for each of them whose bucket straddles: one
        remainder pass over all of them and about ``steps / (2 J)`` jump
        passes.  Memory is 4 bytes a walker of state, then 8 of move
        counts, freed before the 8 of gather index are allocated, and 2 of
        codes and 1 of straddle mask for each pass, whatever ``steps`` is.
        """
        state = np.full(n_walkers, self.root, dtype=np.int32)
        if not (n_walkers and steps) or len(self.nodes) == 1:
            return state
        j, bits, width = self.jump, self.bits, 2 * self.jump
        moves = _sorted_moves(n_walkers, steps, rng)
        low, high = int(moves[0]) // j, int(moves[-1]) // j
        # Jump p moves the walkers with more than p j moves: all of them
        # for p < low, and from starts[p - low] on for later p.
        starts = np.searchsorted(moves, np.arange(low + 1, high + 1, dtype=np.int64) * j).tolist()
        np.remainder(moves, j, out=state)
        # Free the move counts before the gather index is allocated.
        del moves
        state <<= bits
        index = np.empty(n_walkers, dtype=np.intp)
        _jump(state, index, self.remainder_table, self.remainder_bounds, self.remainder_targets, bits, width, rng)
        for p in range(high):
            lo = starts[p - low] if p >= low else 0
            _jump(state[lo:], index[lo:], self.jump_table, self.jump_bounds, self.jump_targets, bits, width, rng)
        state >>= bits
        rng.shuffle(state)
        return state


def _guide(targets: np.ndarray, counts: np.ndarray, bits: int, width: int) -> tuple[np.ndarray, ...]:
    """Guide table (int32), search bounds (int64) and their targets, of integer rows that each sum to 2^width.

    The rows come as their nonzero entries, sorted by (row, target):
    ``targets`` and ``counts``.  The bounds are the running sums of the
    counts over all rows, so the entries of row k have bounds k 2^width
    plus the row's cumulative counts, one increasing run over all rows
    (K 2^width <= 2^61 fits int64, see ``_LONG_JUMP``).  Code c of row k
    goes to the entry whose bounds interval holds k 2^width + c, so a
    uniform ``width``-bit code reaches each target with probability its
    count / 2^width, and ``targets[searchsorted(bounds, k 2^width + c,
    side="right")]`` is that target.  Bucket b of row k holds the codes
    [b s, (b + 1) s), s = 2^(width - bits), at guide index
    2^bits k + b = (k 2^width + b s) / s; it straddles when some bound
    lies strictly inside it, at index bound // s with bound % s > 0, and
    that bound's row is bound >> width.  Its guide entry is 2^bits times
    the target of its first code, or -1 - k when it straddles.  When no
    bucket straddles, no code is looked up and the bounds and targets are
    empty.  The running sums overwrite ``counts``, and every other
    temporary but the guide itself holds one value an entry, so a build
    allocates little beyond the table.
    """
    span = 1 << (width - bits)
    bounds = np.cumsum(counts, out=counts)
    # Bucket starts in [previous bound, bound) number ceil(bound / s) - ceil(previous bound / s).
    guide = (targets.astype(np.int32) << bits).repeat(np.diff(-(-bounds // span), prepend=0))
    straddle = bounds[bounds % span > 0]
    if not straddle.size:
        return guide, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    guide[straddle // span] = -1 - (straddle >> width)
    return guide, bounds, targets


def _product(a, b, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Product of two K x K integer matrices, each held as its nonzero entries.

    A matrix is a pair (keys, counts) of int64 arrays, with keys
    K row + column in increasing order.  Entry (r, m) of ``a`` meets
    each entry (m, t) of ``b``, which sit at ``starts[m]`` up to
    ``starts[m + 1]`` of its keys, and the products are summed per key.
    The terms are expanded and summed for a chunk of whole rows of ``a``
    at a time, about ``_PRODUCT_TERMS`` terms a chunk, so the temporaries
    stay small however dense the rows are; the chunks' keys are disjoint
    and ascending, so they are concatenated.  No K x K array is allocated.
    """
    (keys, counts), (b_keys, b_counts) = a, b
    starts = np.searchsorted(b_keys, np.arange(k + 1) * k)
    mid = keys % k
    lengths = starts[mid + 1] - starts[mid]
    rows = max(1, k * _PRODUCT_TERMS // int(lengths.sum()))
    cuts = np.searchsorted(keys, np.arange(0, k + rows, rows) * k).tolist()
    parts = []
    for lo, hi in zip(cuts, cuts[1:]):
        n = lengths[lo:hi]
        at = np.arange(n.sum()) + (starts[mid[lo:hi]] - np.cumsum(n) + n).repeat(n)
        chunk, inverse = np.unique((keys[lo:hi] - mid[lo:hi]).repeat(n) + b_keys[at] % k, return_inverse=True)
        sums = np.zeros(chunk.size, dtype=np.int64)
        np.add.at(sums, inverse, counts[lo:hi].repeat(n) * b_counts[at])
        parts.append((chunk, sums))
    chunks, sums = zip(*parts)
    return np.concatenate(chunks), np.concatenate(sums)


def _sorted_moves(n_walkers: int, steps: int, rng: np.random.Generator) -> np.ndarray:
    """Q-move counts of ``n_walkers`` lazy walks of ``steps`` steps, sorted (int64).

    Each count is Binomial(steps, 1/2), drawn by one ``rng.binomial``
    call as int64, which holds the counts of a ``steps`` past 2^32.
    """
    moves = rng.binomial(steps, 0.5, size=n_walkers)
    moves.sort()
    return moves


def _jump(state, index, table, bounds, targets, bits, width, rng) -> None:
    """Move every walker of ``state`` by one draw from its row of guide table ``table``.

    ``state`` (int32) holds each walker's row pre-shifted, 2^``bits``
    times it, and gets the target pre-shifted the same way, in place.
    Each walker's code is uniform on [0, 2^``width``) and independent of
    every other: its top 16 bits are one 16-bit lane of ceil(n / 4)
    full-range uint64 words drawn for the n walkers, and its other
    ``width`` - 16 bits, when ``width`` > 16, the top bits of one more
    word.  The lane's top ``bits`` bits pick the bucket: one OR forms
    the gather index 2^bits k + b, an ``np.intp`` index (``np.take``
    converts any other index to ``intp`` first, which made a gather about
    1.6x slower with an int32 index).  A bucket that lies inside one
    target's codes gives it, whatever the code's other bits, so those
    are drawn only for the walkers whose bucket straddles, a few percent
    at most: their bucket gathers -1 - k, and each draws its extra word
    and looks its whole code up in ``bounds`` (see ``_guide``).  When
    ``width`` <= 16, ``bits`` = ``width``, so no bucket straddles and a
    lane's top ``width`` bits are the whole code.
    """
    n = len(state)
    lanes = rng.integers(0, 1 << 64, size=-(-n // 4), dtype=np.uint64).view(np.uint16)[:n]
    np.right_shift(lanes, 16 - bits, out=index)
    np.bitwise_or(index, state, out=index)
    # Every index is in range, so the mode changes no result; "wrap"
    # gathered fastest and, like "clip", needs no bounds buffer.
    np.take(table, index, out=state, mode="wrap")
    straddle = np.flatnonzero(state < 0)
    if straddle.size:
        row = -1 - state[straddle].astype(np.int64)
        rest = rng.integers(0, 1 << 64, size=straddle.size, dtype=np.uint64) >> (80 - width)
        code = (row << 16 | lanes[straddle]) << (width - 16) | rest.astype(np.int64)
        state[straddle] = targets[np.searchsorted(bounds, code, side="right")] << bits


# ---------------------------------------------------------------------------
# scalar walking on oracle-backed trees


# Rows the scalar walk may grow in one estimate_alpha call, at about 80
# bytes a row (85 MB at the cap); past it the call raises SizeGuardError
# rather than evict.
_MAX_ROWS = 1 << 20
# 64-bit words per draw block of the scalar walk's 2-bit codes.  The walk
# reads a block as a list of 2^12 small ints (32 KB); 2^12-word blocks,
# four times that, ran within the host's noise of it (about 4% faster
# in-process).
_BLOCK_WORDS = 1 << 10


class _GrownRows:
    """The rows of S_i that the scalar walk has found, for one ``estimate_alpha`` call.

    It is the oracle-backed counterpart of ``IndexedTree``: ``root`` is
    the root's row and ``walk_batch`` walks from it, so
    ``_batched_root_hits`` takes either walker.

    Laid out like ``IndexedTree.flat_table`` with its entries pre-shifted:
    ``table[4 k + c]`` is 4 times the row reached from row k by the Q move
    whose code is c in {0..3} (0 and 1 to the parent, 2 to the left child,
    3 to the right child; a hold is 4 k), so a code means the same move
    here as in ``walk_batch``.  A row is stored by that offset 4 k, and
    the root is row 0.  A row starts with its parent columns set and its
    child columns at -1, unknown, except at depth i, where the truncation
    has no children and they hold.  The first child move at an unknown
    row expands it: its path is rebuilt from the parent links and one
    ``tree.children`` query fills both child columns, appending a row for
    each child present.  So the tree is asked once per node the walk
    reaches with a child move, and never about a node of depth i or below.
    The root's row is expanded first, as the first child move of any walk
    is made there; so the walker knows before it walks whether the root
    has a child in S_i at all.
    """

    root = 0

    def __init__(self, tree: BranchingTree, depth: int, planned_steps: int):
        self.tree, self.depth, self.planned_steps = tree, depth, planned_steps
        self.table = [0, 0, -1, -1]
        self._expand(0)

    def walk_batch(self, n_walkers: int, steps: int, rng: np.random.Generator) -> np.ndarray:
        """Final row offsets (int32) of ``n_walkers`` independent ``steps``-step lazy walks from the root.

        As in ``IndexedTree.walk_batch``, each walk makes
        k ~ Binomial(``steps``, 1/2) Q moves, all drawn by one
        ``rng.binomial`` call.  The walks then read their moves from one
        stream of 2-bit codes, the low 2 bits of each 16-bit lane, in
        memory order, of exactly ceil(sum k / 4) full-range words, drawn
        lazily in blocks of at most ``_BLOCK_WORDS``; each walk starts at
        the root and takes the next k codes of the stream.  Every bit of
        a full-range word is an independent fair bit, so each code is
        exactly uniform on {0..3}.  A generator's full-range uint64
        words do not depend on how they are split into calls, so neither
        do the walks.  The walks run one after another on their own
        draws, so the finals are independent in draw order, with no sort
        and no shuffle.  Memory is the listed move counts, the finals and
        one block of codes, whatever T is.  When the root has no child in
        S_i, every walk holds there, and nothing is drawn.
        """
        if len(self.table) == 4:
            return np.full(n_walkers, self.root, dtype=np.int32)
        moves = rng.binomial(steps, 0.5, size=n_walkers).tolist()
        words = -(-sum(moves) // 4)
        sizes = (min(_BLOCK_WORDS, words - w) for w in range(0, words, _BLOCK_WORDS))
        stream = itertools.chain.from_iterable(
            (rng.integers(0, 1 << 64, size=size, dtype=np.uint64).view(np.uint16) & 3).tolist()
            for size in sizes
        )
        walk = self.walk
        finals = (walk(itertools.islice(stream, k)) for k in moves)
        return np.fromiter(finals, dtype=np.int32, count=n_walkers)

    def walk(self, codes: Iterable[int]) -> int:
        """Offset of the row reached from the root by one Q move per 2-bit code."""
        table, at = self.table, 0
        for c in codes:
            to = table[at + c]
            if to < 0:
                self._expand(at)
                to = table[at + c]
            at = to
        return at

    def path(self, at: int) -> NodePath:
        """Path of the row at offset ``at``, read off the parent links."""
        table, bits = self.table, []
        while at:
            up = table[at]
            bits.append(1 if table[up + 3] == at else 0)
            at = up
        return tuple(reversed(bits))

    def _expand(self, at: int) -> None:
        table = self.table
        node = self.path(at)
        present = self.tree.children(node)
        for b in (0, 1):
            if node + (b,) not in present:
                table[at + 2 + b] = at
                continue
            if len(table) >= 4 * _MAX_ROWS:
                raise SizeGuardError(
                    f"the walk at depth {self.depth} outgrew its cap of {_MAX_ROWS} rows "
                    f"of S_{self.depth} ({self.planned_steps} planned steps)"
                )
            row = len(table)
            table[at + 2 + b] = row
            hold = row if len(node) + 1 == self.depth else -1
            table += (at, at, hold, hold)


def sample_size_for(height: int, zeta: float) -> int:
    """Draws per repetition for a (1 +- zeta) root-mass estimate at 3/4 confidence."""
    square = zeta * zeta
    return _count("samples m", 4 * (height + 1) / square if square else math.inf)


def repetitions_for(delta: float) -> int:
    """Median repetitions boosting 3/4 confidence to 1 - delta."""
    return max(1, _count("repetitions t", 8 * math.log(1.0 / delta)))


def _batched_root_hits(
    walker: IndexedTree | _GrownRows, m: int, t: int, steps: int, rng: np.random.Generator
) -> list[int]:
    """Root hits of each of ``t`` repetitions of ``m`` walks of ``walker``, in order.

    ``walker`` is an ``IndexedTree`` or a ``_GrownRows``; this is the one
    sampling path of both.  The m t walks go out in consecutive
    ``walker.walk_batch`` calls of ``_BATCH_WALKERS`` walkers, the last
    call shorter, so memory stays bounded whatever m and t are.  Draw
    position j of the m t is credited to repetition j // m.  Walkers are
    independent, and ``walk_batch`` returns them exchangeable: in
    uniformly random order from ``IndexedTree``, and i.i.d. in draw order
    from the scalar ``_GrownRows``.  So the repetitions are independent,
    as one call per repetition would give, wherever the call boundaries
    fall.
    """
    hits = np.zeros(t, dtype=np.int64)
    for first in range(0, m * t, _BATCH_WALKERS):
        finals = walker.walk_batch(min(_BATCH_WALKERS, m * t - first), steps, rng)
        hits += np.bincount((first + np.flatnonzero(finals == walker.root)) // m, minlength=t)
    return hits.tolist()


def _alpha_from_hits(
    height: int,
    zeta: float,
    delta: float,
    draw_hits: Callable[[int], int],
    steps_per_sample: int,
) -> AlphaEstimate:
    m = sample_size_for(height, zeta)
    t = repetitions_for(delta)
    # The exact sorted middle, as np.median gives it, without the
    # numpy.ma import that np.median's first call costs.
    fractions = sorted(draw_hits(m) / m for _ in range(t))
    half = t // 2
    p_hat = fractions[half] if t % 2 else (fractions[half - 1] + fractions[half]) / 2
    degenerate = p_hat <= 0.0
    if degenerate:
        # Keeps the reciprocal finite; under the sample-size rule the median
        # of root-hit fractions is zero only with negligible probability.
        p_hat = 1.0 / (2.0 * m)
    return AlphaEstimate(
        value=p_hat * 2.0 ** (-height),
        zeta=zeta,
        samples=m,
        repetitions=t,
        root_hit_fraction=p_hat,
        chain_steps=m * t * steps_per_sample,
        degenerate=degenerate,
    )


def estimate_alpha(
    tree: BranchingTree,
    height: int,
    zeta: float,
    delta: float,
    burn_const: float = BURN_CONST,
    rng: np.random.Generator | None = None,
) -> AlphaEstimate:
    """Estimate the stationary law's normalizing factor on ``tree`` cut at depth ``height``.

    Parameters
    ----------
    tree : nonempty branching tree (explicit or oracle-backed).
    height : depth i of the truncation S_i that is walked, and the height
        at which S_i is viewed: alpha = pi_{S_i}(root) / 2^i.  Nodes of
        ``tree`` deeper than i are never visited; i may also exceed
        ``tree.height``, which views the whole tree at a larger height.
    zeta, delta : relative error target and failure probability, both in (0,1).
    burn_const : the multiplier C > 0 of ``burn_in_steps``; C = 2 carries
        the guarantee, and smaller values walk shorter burn-ins without it.
    rng : numpy Generator; required unless ``height`` is 0.

    Each sample walks ``burn_in_steps(height, zeta / (1 + zeta), C)``
    steps from the root, as Binomial(T, 1/2) moves of the non-lazy
    kernel.  The walker is ``IndexedTree(tree, height)`` on an explicit
    tree, vectorized, and otherwise ``_GrownRows``, one scalar move at a
    time over a table of the rows of S_i that lives for the call and
    grows as the walk finds nodes, asking ``tree.children`` once per
    node it expands.  Both go through the one sampling path,
    ``_batched_root_hits``, in ``walk_batch`` calls of at most
    ``_BATCH_WALKERS`` walkers (2^15).  A call whose row table would pass
    ``_MAX_ROWS`` rows (2^20) raises SizeGuardError, and one whose T, m
    or t is no finite count below 2^63 raises it before it walks.

    Guarantee, at C >= 2.  Let p = P^T(r, r) be one sample's chance to
    end at the root r, and pi = pi_{S_i}(r) = alpha 2^i >= 1/(i+1).  The
    burn-in keeps |p / pi - 1| <= eps = zeta / (1 + zeta), so p lies in
    [pi / (1 + zeta), pi (1 + 2 zeta) / (1 + zeta)].  By Chebyshev, with
    Var <= p / m and m = 4(i+1) / zeta^2, one repetition's root-hit
    fraction leaves (1 +- zeta) p with probability at most
    1 / (4(i+1) p) <= (1 + zeta) / 4, as p may fall below 1/(i+1).  The
    median of t = ceil(8 ln(1/delta)) repetitions then fails with
    probability at most exp(-t (1 - zeta)^2 / 8) <= delta^((1 - zeta)^2)
    (Hoeffding), and otherwise value / alpha lies in
    [(1 - zeta) / (1 + zeta), 1 + 2 zeta]: the root deviation widens the
    (1 +- zeta) band rather than being absorbed into it.
    """
    if tree.is_empty:
        raise ValueError("cannot estimate alpha of an empty tree")
    if not 0 < zeta < 1:
        raise ValueError("zeta must lie in (0, 1)")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if not 0 < burn_const < math.inf:
        raise ValueError(f"burn_const must be positive and finite, got {burn_const}")
    if height == 0:
        # Single reachable node: the root has all the mass, analytically.
        return AlphaEstimate(1.0, zeta, 0, 0, 1.0, 0)
    if rng is None:
        raise ValueError("an rng is required for sampling")

    steps = burn_in_steps(height, zeta / (1 + zeta), burn_const)
    m, t = sample_size_for(height, zeta), repetitions_for(delta)
    if isinstance(tree, ExplicitTree):
        walker = IndexedTree(tree, height)
    else:
        walker = _GrownRows(tree, height, m * t * steps)
    hits = iter(_batched_root_hits(walker, m, t, steps, rng))
    return _alpha_from_hits(height, zeta, delta, lambda m: next(hits), steps_per_sample=steps)


# Heights above this are refused: the 2^height scale leaves double precision.
MAX_HEIGHT = 500


def guard_height(height: int) -> None:
    """Reject heights whose 2^height leaves double precision entirely."""
    if height > MAX_HEIGHT:
        raise SizeGuardError(f"height {height} exceeds the floating-point guard of {MAX_HEIGHT}")
