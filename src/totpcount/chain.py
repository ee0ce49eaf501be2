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
walker for explicit trees walks only those moves.  Every Q probability is
a multiple of 1/4, so one move is a table lookup on a uniform draw from
{0..3}; the walker composes that table into a j-step table whose columns
are the 4^j sequences of j draws, so one gather on a uniform 2j-bit code
makes j moves with exactly the law of Q^j (see ``IndexedTree``).  The
codes are the 16-bit lanes of full-range 64-bit random words, each
masked to its low 2j bits (see ``_advance``).  ``walk_batch`` walks the
walkers sorted by their move counts, so the walkers still moving form
one contiguous slice at every gather, and shuffles the finals at the end.
On an explicit tree ``estimate_alpha`` walks all t repetitions of m
samples of a depth together, in the fewest ``walk_batch`` calls of at
most 2^15 walkers that hold whole repetitions, and splits each call's
finals back into per-repetition root-hit counts.  On an oracle-backed
tree it walks the same move counts and 2-bit codes one sample at a time,
one Python lookup per move, in bounded blocks (``_grown_root_hits``),
over a table of the rows of S_i that grows as the walk finds nodes
(``_GrownRows``).  A row's child columns are filled by one ``children``
query (a machine replay) the first time a walker there draws a child
move, so each node is asked at most once and no node the walk never
reaches is asked at all.  Either way the walk at depth i runs on the
truncation S_i of the tree it is given, with no tree object for S_i:
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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

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


def burn_in_steps(height: int, root_deviation: float, constant: float = 2.0) -> int:
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
# A j-step code takes 2j bits (one base-4 digit a move) and must fit a
# uint16 lane.  Under the 2^15-entry cap j reaches 7, at one or two nodes.
_MAX_JUMP = 8
# Walkers per walk_batch call when estimate_alpha batches repetitions:
# wide enough to spread numpy's per-call cost over many walkers, small
# enough that the walker arrays (16 bytes a walker) stay small.
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

    ``jump_table[4^j k + c]``, for c in [0, 4^j), is 4^j times the node
    reached from node k after ``jump`` = j Q moves whose draws are the
    base-4 digits of c, most significant first.  Apart from that factor
    it is ``flat_table`` composed with itself j times.  A uniform c has j
    independent uniform digits, so an outcome's share of the 4^j columns
    is exactly its probability under Q^j.  The factor 4^j pre-shifts each
    outcome into the row offset of the next gather, so a walker's next
    index is its state OR its code (see ``_advance``).
    j is the largest value up to 8 whose table, K 4^j entries for K
    nodes, stays within 2^15 entries: j = 7 up to 2 nodes, 6 up to 8,
    5 up to 32, 4 up to 128, 3 up to 512, 2 up to 2048; trees above 2048
    nodes walk with j = 1.
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
        jump, self.jump = table, 1
        while self.jump < _MAX_JUMP and k * 4 ** (self.jump + 1) <= _TABLE_ENTRIES:
            jump = table[jump].reshape(k, -1)
            self.jump += 1
        self.jump_table = (jump << 2 * self.jump).ravel()

    def walk_batch(self, n_walkers: int, steps: int, rng: np.random.Generator) -> np.ndarray:
        """Final node indices (int32) of ``n_walkers`` independent ``steps``-step lazy walks from the root.

        Because P = (I + Q) / 2, the binomial theorem gives
        P^T = sum_k C(T, k) 2^-T Q^k: T lazy steps have exactly the law
        of k ~ Binomial(T, 1/2) moves of Q.  So each walker draws its own
        k and walks q = k // j gathers on the j-step table, then
        r = k % j moves on the one-step table.  Every walker starts at
        the root, so the move counts can be sorted without carrying any
        state along.  Walked in that order, the walkers still moving at
        each gather are a suffix of the state, and those of one q that
        still owe an s-th leftover move are one contiguous slice.  A
        final ``rng.shuffle`` makes the walkers exchangeable again, so
        any fixed split of the result into rows gives independent rows.

        A call costs about ``n_walkers * steps / (2 j)`` gathered entries
        plus a fixed numpy cost per gather; ``estimate_alpha`` therefore
        walks many repetitions per call.  Memory is 4 bytes a walker of
        state, then 8 of move counts, freed before the 8 of gather index
        are allocated, and a draw block of 2 bytes a code,
        max(2^15, ``n_walkers``) codes.
        """
        state = np.full(n_walkers, self.root, dtype=np.int32)
        if not (n_walkers and steps):
            return state
        j = self.jump
        moves = _sorted_moves(n_walkers, steps, rng)
        low, high = int(moves[0]) // j, int(moves[-1]) // j
        # edges[x] is the number of walkers with fewer than low j + x moves.
        edges = np.searchsorted(
            moves, np.arange(low * j, (high + 1) * j + 1, dtype=np.int64)
        ).tolist()
        # Free the move counts before the gather index is allocated.
        del moves
        index = np.empty(n_walkers, dtype=np.intp)
        # Gather g moves the walkers with more than g full gathers.
        full = ((edges[max(0, g + 1 - low) * j], n_walkers) for g in range(high))
        _advance(state, index, self.jump_table, 2 * j, full, rng)
        leftover = (
            (edges[(q - low) * j + s], edges[(q - low + 1) * j])
            for q in range(low, high + 1)
            for s in range(1, j)
        )
        _advance(state, index, self.flat_table << 2, 2, leftover, rng)
        rng.shuffle(state)
        return state


def _sorted_moves(n_walkers: int, steps: int, rng: np.random.Generator) -> np.ndarray:
    """Q-move counts of ``n_walkers`` lazy walks of ``steps`` steps, sorted (int64).

    Each count is Binomial(steps, 1/2).  They are drawn in chunks of at
    most 2^13 into one buffer, sorted in place; int32 would silently wrap
    the counts of a ``steps`` past 2^32.
    """
    moves = np.empty(n_walkers, dtype=np.int64)
    chunk = _BLOCK_CODES // 4
    for start in range(0, n_walkers, chunk):
        part = moves[start : start + chunk]
        part[...] = rng.binomial(steps, 0.5, size=len(part))
    moves.sort()
    return moves


def _advance(state, index, table, bits, slices, rng) -> None:
    """Move ``state[lo:hi]`` by one lookup of ``table`` for each (lo, hi) in ``slices``.

    ``table`` holds each outcome pre-shifted by ``bits`` = 2j bits for a
    j-move table (4^j times its node).  While it walks, ``state`` holds
    shifted nodes, so one ``bitwise_or`` with a 2j-bit code forms the
    gather index 4^j k + c.  The index is ``np.intp`` and the state stays
    int32: ``np.take`` converts any other index to ``intp`` first, which
    made a gather about 1.6x slower with an int32 index.  Slices are
    views, so a gather allocates nothing.

    Codes are drawn in blocks of at least ``_BLOCK_CODES`` and of at
    least the widest slice they serve, as full-range uint64 words cut
    into uint16 lanes by ``_cut_codes``; a slice wider than what is left
    of a block starts a new block.  That is a quarter of a 64-bit draw
    per code: about 1.6 ns, against 6 ns for a bounded uint16 draw
    (2-core Xeon, numpy 2.4).
    """
    state <<= bits
    codes, used = np.empty(0, dtype=np.uint16), 0
    for lo, hi in slices:
        width = hi - lo
        if not width:
            continue
        if used + width > len(codes):
            # Free the spent block before the next one is drawn.
            codes, used = None, 0
            words = -(-max(width, _BLOCK_CODES) // 4)
            codes = _cut_codes(rng.integers(0, 1 << 64, size=words, dtype=np.uint64), bits)
        np.bitwise_or(state[lo:hi], codes[used : used + width], out=index[lo:hi])
        # Every index is in range, so the mode changes no result;
        # "wrap" gathered fastest and, like "clip", needs no bounds buffer.
        np.take(table, index[lo:hi], out=state[lo:hi], mode="wrap")
        used += width
    state >>= bits


def _cut_codes(words: np.ndarray, bits: int) -> np.ndarray:
    """The uint16 lanes of uint64 ``words``, each masked to its low ``bits`` bits.

    Works in place: the result is a view of ``words``.  Each bit of a
    full-range uniform word is an independent fair bit, so the low
    ``bits`` bits of every lane are exactly uniform on [0, 2^bits) and
    independent of all other lanes.  Hence each code is uniform, its base-4
    digits are independent uniform move draws, and the j-move law is
    exact, with no rejection and no bias.  (A generator's raw output is
    not used directly: some generators emit 32-bit raw values.)
    """
    codes = words.view(np.uint16)
    codes &= (1 << bits) - 1
    return codes


# ---------------------------------------------------------------------------
# scalar walking on oracle-backed trees


# Rows the scalar walk may grow in one estimate_alpha call, at about 80
# bytes a row (85 MB at the cap); past it the call raises SizeGuardError
# rather than evict.
_MAX_ROWS = 1 << 20
# Move counts per ``_sorted_moves`` call of the scalar walk, and 64-bit
# words per draw block of its 2-bit codes.  The walk reads a block as a
# list of 2^12 small ints (32 KB); 2^12-word blocks, four times that,
# ran within the host's noise of it (about 4% faster in-process).
_BLOCK_SAMPLES = 1 << 12
_BLOCK_WORDS = 1 << 10


class _GrownRows:
    """The rows of S_i that the scalar walk has found, for one ``estimate_alpha`` call.

    Laid out like ``IndexedTree.flat_table`` pre-shifted for ``_advance``:
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
    """

    def __init__(self, tree: BranchingTree, depth: int, planned_steps: int):
        self.tree, self.depth, self.planned_steps = tree, depth, planned_steps
        self.table = [0, 0, -1, -1]

    def walk(self, codes: list[int], at: int = 0) -> int:
        """Offset of the row reached from offset ``at`` by one Q move per 2-bit code.

        ``at`` is the root by default; a sample walked over several
        blocks of codes starts each block where the last one ended.
        """
        table = self.table
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


def _grown_root_hits(rows: _GrownRows, m: int, steps: int, rng: np.random.Generator) -> int:
    """Root hits of ``m`` walks of ``steps`` lazy steps from the root of ``rows``.

    As in ``walk_batch``, each walk makes k ~ Binomial(``steps``, 1/2) Q
    moves, drawn sorted by ``_sorted_moves`` for at most
    ``_BLOCK_SAMPLES`` walks at a time.  Those walks read their moves in
    turn from one stream of 2-bit codes, the ``_cut_codes`` lanes of
    exactly enough full-range words, drawn in blocks of at most
    ``_BLOCK_WORDS``; a walk that reaches the end of a block carries its
    row into the next.  A generator's full-range uint64 words do not
    depend on how they are split into calls, so neither do the walks.
    Memory is one block and one chunk of counts, whatever m and T are.
    """
    hits, walk = 0, rows.walk
    for first in range(0, m, _BLOCK_SAMPLES):
        moves = _sorted_moves(min(_BLOCK_SAMPLES, m - first), steps, rng).tolist()
        left, block, used = sum(moves), [], 0
        for k in moves:
            at = 0
            while used + k > len(block):
                at = walk(block[used:], at)
                k -= len(block) - used
                words = min(_BLOCK_WORDS, -(-left // 4))
                block = _cut_codes(rng.integers(0, 1 << 64, size=words, dtype=np.uint64), 2).tolist()
                left, used = left - len(block), 0
            hits += walk(block[used : used + k], at) == 0
            used += k
    return hits


def sample_size_for(height: int, zeta: float) -> int:
    """Draws per repetition for a (1 +- zeta) root-mass estimate at 3/4 confidence."""
    square = zeta * zeta
    return _count("samples m", 4 * (height + 1) / square if square else math.inf)


def repetitions_for(delta: float) -> int:
    """Median repetitions boosting 3/4 confidence to 1 - delta."""
    return max(1, _count("repetitions t", 8 * math.log(1.0 / delta)))


def _batched_root_hits(
    indexed: IndexedTree, m: int, t: int, steps: int, rng: np.random.Generator
) -> Iterator[int]:
    """Root hits of each of ``t`` repetitions of ``m`` walks, in order.

    The m t walkers go out in the fewest ``walk_batch`` calls of at most
    ``_BATCH_WALKERS`` walkers each that hold whole repetitions, sized
    evenly (their repetition counts differ by at most one); a repetition
    wider than the cap walks alone.  Each call's finals are read as one
    row of m walkers per repetition.  Walkers are independent and
    ``walk_batch`` returns them in uniformly random order, so the rows
    are independent repetitions, as one call per repetition would give.
    Batches are walked lazily, as their counts are asked for.
    """
    calls = -(-t // max(1, _BATCH_WALKERS // m))
    base, extra = divmod(t, calls)
    for reps in [base + 1] * extra + [base] * (calls - extra):
        finals = indexed.walk_batch(reps * m, steps, rng)
        yield from np.count_nonzero(finals.reshape(reps, m) == indexed.root, axis=1).tolist()


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
    burn_const: float = 2.0,
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
    rng : numpy Generator; required unless the tree has a single node.

    Each sample walks ``burn_in_steps(height, zeta / (1 + zeta), C)``
    steps from the root, as Binomial(T, 1/2) moves of the non-lazy
    kernel: vectorized on explicit trees, one scalar move at a time on
    oracle-backed ones.  There the move counts and 2-bit codes are drawn
    as ``walk_batch`` draws them, in blocks of at most ``_BLOCK_SAMPLES``
    counts (2^12) and ``_BLOCK_WORDS`` words of codes (2^10), and the
    walk moves over a table of the rows of S_i that lives for the call
    and grows as the walk finds nodes, asking ``tree.children`` once per
    node it expands.  A call whose table
    would pass ``_MAX_ROWS`` rows (2^20) raises SizeGuardError, and one
    whose T, m or t is no finite count below 2^63 raises it before it
    walks.
    The estimate satisfies
    P[(1-zeta) alpha <= value <= (1+zeta) alpha] >= 1 - delta, up to
    that root deviation, which is absorbed into zeta.
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
        batched = _batched_root_hits(IndexedTree(tree, height), m, t, steps, rng)

        def draw_hits(m: int) -> int:
            return next(batched)

    else:
        rows = _GrownRows(tree, height, m * t * steps)

        def draw_hits(m: int) -> int:
            return _grown_root_hits(rows, m, steps, rng)

    return _alpha_from_hits(height, zeta, delta, draw_hits, steps_per_sample=steps)


def guard_height(height: int, limit: int = 500) -> None:
    """Reject heights whose 2^height leaves double precision entirely."""
    if height > limit:
        raise SizeGuardError(
            f"height {height} exceeds the floating-point guard of {limit}"
        )
