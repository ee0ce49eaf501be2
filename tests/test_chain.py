import functools
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from totpcount import (
    AlphaEstimate,
    DnfFormula,
    EstimatorConfig,
    ExplicitTree,
    Graph,
    InstanceTree,
    MonotoneCircuit,
    SizeGuardError,
    burn_in_steps,
    build_branching_tree,
    dnf_instance,
    estimate_alpha,
    estimate_size,
    full_binary_tree,
    is_instance,
    lazy_step,
    materialize,
    monotone_instance,
    random_tree,
    root_mass_exact,
    stationary_exact,
    transition_matrix_exact,
    truncate,
    tv_distance,
)
from totpcount import chain, cli, estimator
from totpcount.chain import (
    IndexedTree,
    repetitions_for,
    sample_size_for,
)
from totpcount.estimator import derived_rng
from totpcount.generate import random_dnf, random_graph, random_monotone_circuit
from totpcount.trees import ROOT


# --- one-step kernel


def test_lazy_step_internal_node():
    tree = full_binary_tree(2)
    node = (0,)
    assert lazy_step(tree.children, node, 0.1, tree.height) == ()  # parent at u < 1/4
    assert lazy_step(tree.children, node, 0.3, tree.height) == (0, 0)  # left child
    assert lazy_step(tree.children, node, 0.4, tree.height) == (0, 1)  # right child
    assert lazy_step(tree.children, node, 0.7, tree.height) == node  # lazy hold


def test_lazy_step_root_holds_instead_of_parent():
    tree = full_binary_tree(2)
    assert lazy_step(tree.children, (), 0.1, tree.height) == ()
    assert lazy_step(tree.children, (), 0.3, tree.height) == (0,)


def test_lazy_step_leaf_holds_instead_of_children():
    tree = full_binary_tree(2)
    leaf = (0, 0)
    assert lazy_step(tree.children, leaf, 0.1, tree.height) == (0,)
    assert lazy_step(tree.children, leaf, 0.3, tree.height) == leaf
    assert lazy_step(tree.children, leaf, 0.45, tree.height) == leaf


def test_lazy_step_missing_child_holds():
    tree = ExplicitTree([(), (1,)])
    assert lazy_step(tree.children, (), 0.3, tree.height) == ()  # no left child
    assert lazy_step(tree.children, (), 0.4, tree.height) == (1,)


# --- burn-in schedule


def test_burn_in_zero_height_needs_no_steps():
    assert burn_in_steps(0, 0.5) == 0


def test_burn_in_formula_value():
    # ceil(2 * 16 * 100 * (ln 10 + ln 100)) = ceil(22104.816...)
    assert burn_in_steps(9, 0.01, constant=2.0) == 22105


def test_burn_in_monotone():
    assert burn_in_steps(5, 0.01) <= burn_in_steps(6, 0.01)
    assert burn_in_steps(5, 0.02) <= burn_in_steps(5, 0.01)


def test_burn_in_halving_tolerance_adds_log_two():
    n, eps, c = 7, 0.04, 2.0
    delta_steps = burn_in_steps(n, eps / 2, c) - burn_in_steps(n, eps, c)
    assert abs(delta_steps - c * 16 * (n + 1) ** 2 * math.log(2)) <= 1.0


def test_burn_in_rejects_bad_arguments():
    with pytest.raises(ValueError):
        burn_in_steps(-1, 0.1)
    with pytest.raises(ValueError):
        burn_in_steps(3, 1.5)


def _root_returns(tree, steps):
    """{t: P^t(root, root)} of the lazy walk for each t in ``steps``, exactly.

    Every lazy probability is a multiple of 1/8, so 8P is an integer
    matrix; the root's row of (8P)^t is carried forward by repeated
    squaring and divided by 8^t at the end.
    """
    nodes, rows = transition_matrix_exact(tree)
    scaled = [[8 * row.get(q, Fraction(0)) for q in nodes] for row in rows]
    assert all(x.denominator == 1 for row in scaled for x in row)
    matrix = [[int(x) for x in row] for row in scaled]
    root = nodes.index(ROOT)

    def times(vector, power):
        return [sum(x * power[c][b] for c, x in enumerate(vector)) for b in range(len(nodes))]

    row, done, out = [int(node == ROOT) for node in nodes], 0, {}
    for t in sorted(set(steps)):
        power, left = matrix, t - done
        while left:
            if left & 1:
                row = times(row, power)
            left >>= 1
            if left:
                power = [times(r, power) for r in power]
        done = t
        out[t] = Fraction(row[root], 8**t)
    return out


_BURN_IN_TREES = [
    ExplicitTree([()]),
    ExplicitTree([(), (1,)]),
    full_binary_tree(1),
    full_binary_tree(2),
    ExplicitTree([(), (0,), (0, 1), (0, 1, 1), (0, 1, 1, 0), (0, 1, 1, 0, 0), (0, 1, 1, 0, 0, 1)]),
    *(random_tree(np.random.default_rng(7 + h), h, child_prob=0.6, max_nodes=7) for h in (2, 3, 4, 5)),
]


@pytest.mark.parametrize("tree", _BURN_IN_TREES, ids=lambda t: f"{len(t.nodes)}nodes-height{t.height}")
def test_burn_in_bounds_the_root_deviation_exactly(tree):
    # The derivation in burn_in_steps, in exact rationals on trees of at
    # most 7 nodes: |P^t(r,r)/pi(r) - 1| <= (1 - 1/(32(n+1)^2))^t / pi(r)
    # at short t, where that spectral bound has content, and the root
    # deviation at T = burn_in_steps(n, eps) is at most eps, for eps = 1/2
    # and for the zeta/(1+zeta) that estimate_size uses at xi = 1.
    n = tree.height
    pi_root = root_mass_exact(tree)
    assert pi_root >= Fraction(1, n + 1)
    zeta = Fraction(1, 2 * (n + 1))
    targets = [Fraction(1, 2), zeta / (1 + zeta)]
    burn = [burn_in_steps(n, float(eps)) for eps in targets]
    short = list(range(0, 65, 8))
    returns = _root_returns(tree, short + burn)
    gap = Fraction(1, 32 * (n + 1) ** 2)
    for t in short:
        assert abs(returns[t] / pi_root - 1) <= (1 - gap) ** t / pi_root
    for eps, t in zip(targets, burn):
        assert abs(returns[t] / pi_root - 1) <= eps


# --- exact stationary law


def test_stationary_full_binary_two():
    pi = stationary_exact(full_binary_tree(2))
    assert pi[()] == Fraction(1, 3)
    assert pi[(0,)] == pi[(1,)] == Fraction(1, 6)
    assert pi[(0, 0)] == Fraction(1, 12)


def test_stationary_single_node():
    assert stationary_exact(ExplicitTree([()])) == {(): Fraction(1)}


def test_stationary_chain_tree():
    pi = stationary_exact(ExplicitTree([(), (1,), (1, 1)]))
    assert (pi[()], pi[(1,)], pi[(1, 1)]) == (Fraction(4, 7), Fraction(2, 7), Fraction(1, 7))


def _check_stationarity(tree, lazy):
    nodes, rows = transition_matrix_exact(tree, lazy=lazy)
    pi = stationary_exact(tree)
    for row in rows:
        assert sum(row.values()) == 1
    for j in nodes:
        assert sum(pi[i] * rows[k].get(j, Fraction(0)) for k, i in enumerate(nodes)) == pi[j]
    for k, i in enumerate(nodes):
        for j, p_ij in rows[k].items():
            if i != j:
                k_j = nodes.index(j)
                assert pi[i] * p_ij == pi[j] * rows[k_j].get(i, Fraction(0))


def test_stationarity_and_reversibility_exact(rng):
    for _ in range(5):
        tree = random_tree(rng, int(rng.integers(1, 6)), child_prob=0.6)
        _check_stationarity(tree, lazy=True)
        _check_stationarity(tree, lazy=False)


def test_alpha_bounds(rng):
    for _ in range(10):
        h = int(rng.integers(1, 8))
        tree = random_tree(rng, h, child_prob=0.5)
        weight = sum(1 << (h - len(p)) for p in tree.nodes)
        assert weight <= (h + 1) * 2**h
        assert root_mass_exact(tree) >= Fraction(1, h + 1)
    fb = full_binary_tree(4)
    assert sum(1 << (4 - len(p)) for p in fb.nodes) == 5 * 2**4
    assert root_mass_exact(fb) == Fraction(1, 5)


# --- sampling


def test_indexed_walker_matches_stationary(rng):
    tree = random_tree(rng, 4, child_prob=0.6)
    walkers = 40_000
    steps = burn_in_steps(4, 0.02)
    indexed = IndexedTree(tree)
    finals = indexed.walk_batch(walkers, steps, rng)
    counts = np.bincount(finals, minlength=len(indexed.nodes))
    empirical = {p: counts[i] / walkers for i, p in enumerate(indexed.nodes)}
    assert tv_distance(empirical, stationary_exact(tree)) < 0.035


def _exact_matrix(tree, lazy=True):
    nodes, rows = transition_matrix_exact(tree, lazy=lazy)
    return [[row.get(q, Fraction(0)) for q in nodes] for row in rows]


def _matmul(a, b):
    return [[sum((x * b[m][c] for m, x in enumerate(row)), Fraction(0)) for c in range(len(b))] for row in a]


def _exact_power(tree, j, lazy=True):
    """The transition matrix to the power j, in exact rationals."""
    step = _exact_matrix(tree, lazy)
    power = step
    for _ in range(j - 1):
        power = _matmul(power, step)
    return power


ORACLE_TREES = {
    "is": build_branching_tree(is_instance(Graph.from_edges(4, [(1, 2)]))),
    "dnf": build_branching_tree(dnf_instance(DnfFormula(4, ((1,), (2, 3))))),
    # (x0 OR x1) AND x2: three satisfying assignments.
    "mono": build_branching_tree(
        monotone_instance(MonotoneCircuit(3, (("OR", 0, 1), ("AND", 3, 2)), 4))
    ),
}


SMALL_TREES = [
    ExplicitTree([()]),
    ExplicitTree([()], height=2),
    ExplicitTree([(), (1,)]),
    full_binary_tree(1),
    ExplicitTree([(), (0,), (0, 1), (0, 1, 0)]),
    full_binary_tree(2),
    ExplicitTree([(), (0,), (1,), (0, 0), (1, 0), (1, 1), (1, 1, 0), (1, 1, 1)]),
]


@pytest.mark.parametrize("tree", SMALL_TREES, ids=lambda t: f"{len(t.nodes)}nodes")
def test_lazy_steps_are_binomially_many_non_lazy_moves(tree):
    # P^T = sum_k C(T, k) 2^-T Q^k, exactly, for the lazy kernel P = (I + Q) / 2.
    lazy, moves = _exact_matrix(tree), _exact_matrix(tree, lazy=False)
    size = len(lazy)
    identity = [[Fraction(int(r == c)) for c in range(size)] for r in range(size)]
    lazy_power, move_powers = identity, [identity]
    for steps in range(1, 13):
        lazy_power = _matmul(lazy_power, lazy)
        move_powers.append(_matmul(move_powers[-1], moves))
        thinned = [
            [
                sum(
                    (Fraction(math.comb(steps, k), 2**steps) * q[r][c] for k, q in enumerate(move_powers)),
                    Fraction(0),
                )
                for c in range(size)
            ]
            for r in range(size)
        ]
        assert thinned == lazy_power


def _codes_per_target(table, bounds, bits, row, width):
    """Codes of [0, 2^32) that each target of one guide row gets, counted through guide and CDF.

    A pure bucket gives all of its 2^(32 - bits) codes to the target its
    entry names; a straddling bucket (entry -1 - row) splits its codes by
    the row's integer CDF.  Also returns the number of straddling buckets.
    """
    span = 1 << (32 - bits)
    entries = table[row << bits : (row + 1) << bits].astype(np.int64)
    counts = np.zeros(width, dtype=np.int64)
    pure = entries >= 0
    np.add.at(counts, entries[pure] >> bits, span)
    straddling = np.flatnonzero(~pure)
    assert np.all(entries[straddling] == -1 - row)
    if straddling.size:
        ends = bounds[row * width : (row + 1) * width] - (row << 32)
        starts = np.concatenate([[0], ends[:-1]])
        for b in straddling.tolist():
            lo, hi = b * span, (b + 1) * span
            counts += np.clip(np.minimum(ends, hi) - np.maximum(starts, lo), 0, None)
    return counts, straddling.size


# J = 16 at the default constants, and each j of the short jump: a cap of
# max(K, 16) 4^j entries leaves 4^j buckets a row, and a guide of more
# than 2j bits turns the long jump off.
JUMPS = [*range(1, 9), 16]


def _indexed_at_jump(tree, jump, monkeypatch):
    if jump != 16:
        monkeypatch.setattr(chain, "_MIN_GUIDE_BITS", 2 * jump + 1)
        monkeypatch.setattr(chain, "_TABLE_ENTRIES", max(len(tree.nodes), 16) * 4**jump)
    indexed = IndexedTree(tree)
    assert indexed.jump == jump
    return indexed


@pytest.mark.parametrize("jump", JUMPS)
@pytest.mark.parametrize("tree", SMALL_TREES, ids=lambda t: f"{len(t.nodes)}nodes")
def test_jump_table_has_the_exact_j_step_law(tree, jump, monkeypatch):
    k = len(tree.nodes)
    indexed = _indexed_at_jump(tree, jump, monkeypatch)
    straddles = 0
    for row, exact in enumerate(_exact_power(tree, jump, lazy=False)):
        counts, straddled = _codes_per_target(
            indexed.jump_table, indexed.jump_bounds, indexed.bits, row, k
        )
        assert [Fraction(int(c), 2**32) for c in counts] == exact
        straddles += straddled
    if jump == 16 and k > 1:
        # Some bucket straddles two targets, so the CDF fix-up is exercised.
        assert straddles > 0
    if jump < 16:
        assert straddles == 0 and indexed.bits == 2 * jump
    if jump == 1:
        assert np.array_equal(indexed.jump_table >> 2, indexed.flat_table)


@pytest.mark.parametrize("jump", JUMPS)
@pytest.mark.parametrize("tree", SMALL_TREES, ids=lambda t: f"{len(t.nodes)}nodes")
def test_remainder_rows_have_the_exact_r_step_law_from_the_root(tree, jump, monkeypatch):
    k = len(tree.nodes)
    indexed = _indexed_at_jump(tree, jump, monkeypatch)
    assert indexed.remainder_table.size == jump << indexed.bits
    for r in range(jump):
        counts, _ = _codes_per_target(
            indexed.remainder_table, indexed.remainder_bounds, indexed.bits, r, k
        )
        if r:
            exact = _exact_power(tree, r, lazy=False)[indexed.root]
        else:
            exact = [Fraction(int(c == indexed.root)) for c in range(k)]
        assert [Fraction(int(c), 2**32) for c in counts] == exact


def _root_row(tree, r):
    """The root's row of Q^r over ``tree``'s nodes in (depth, path) order, in exact rationals."""
    nodes, rows = transition_matrix_exact(tree, lazy=False)
    step, law = dict(zip(nodes, rows)), {ROOT: Fraction(1)}
    for _ in range(r):
        moved = {}
        for node, p in law.items():
            for to, q in step[node].items():
                moved[to] = moved.get(to, Fraction(0)) + p * q
        law = moved
    return [law.get(node, Fraction(0)) for node in nodes]


@pytest.mark.parametrize(
    "tree, jump", [(full_binary_tree(6), 4), (full_binary_tree(10), 2)], ids=["127nodes", "2047nodes"]
)
def test_remainder_rows_past_32_nodes_have_the_exact_r_step_law(tree, jump):
    indexed = IndexedTree(tree)
    k = len(indexed.nodes)
    assert indexed.jump == jump and k > 32
    # Each count is a multiple of the bucket span, so no bucket straddles.
    assert indexed.remainder_bounds.size == 0
    for r in range(jump):
        counts, straddled = _codes_per_target(
            indexed.remainder_table, indexed.remainder_bounds, indexed.bits, r, k
        )
        assert straddled == 0
        assert [Fraction(int(c), 2**32) for c in counts] == _root_row(tree, r)
    tables = (indexed.jump_table, indexed.remainder_table, indexed.jump_bounds, indexed.remainder_bounds)
    assert all(table.size <= 2**15 for table in tables)


@pytest.mark.parametrize(
    "tree, jump",
    [
        (ExplicitTree([()]), 16),
        (ExplicitTree([(), (1,)]), 16),
        (SMALL_TREES[-1], 16),
        (ExplicitTree(full_binary_tree(2).nodes | {(0, 0, 0), (0, 0, 1)}), 16),
        (full_binary_tree(4), 16),
        (full_binary_tree(5), 4),
        (full_binary_tree(6), 4),
        (full_binary_tree(8), 3),
        (full_binary_tree(10), 2),
        (full_binary_tree(12), 1),
    ],
    ids=lambda x: str(x) if isinstance(x, int) else f"{len(x.nodes)}nodes",
)
def test_jump_length_follows_the_table_cap(tree, jump):
    indexed = IndexedTree(tree)
    k = len(tree.nodes)
    assert indexed.jump == jump
    # 2^11 buckets a row up to 16 nodes and 2^10 up to 32; 4^j above.
    assert indexed.bits == (11 if k <= 16 else 10 if k <= 32 else 2 * jump)
    assert indexed.jump_table.size == k << indexed.bits
    assert indexed.remainder_table.size == jump << indexed.bits
    tables = (indexed.jump_table, indexed.remainder_table, indexed.jump_bounds, indexed.remainder_bounds)
    assert all(table.size <= 2**15 for table in tables)


def _walk_law_distance(tree, walkers, steps, rng):
    indexed = IndexedTree(tree)
    finals = indexed.walk_batch(walkers, steps, rng)
    assert finals.shape == (walkers,)
    freq = np.bincount(finals, minlength=len(indexed.nodes)) / walkers
    exact = np.linalg.matrix_power(np.array(_exact_matrix(tree), dtype=float), steps)
    return 0.5 * np.abs(freq - exact[indexed.root]).sum()


def test_walk_batch_zero_steps_stays_at_root(rng):
    indexed = IndexedTree(full_binary_tree(2))
    assert np.array_equal(indexed.walk_batch(50, 0, rng), np.full(50, indexed.root))


@pytest.mark.parametrize("steps", [1, 2, 3, 6, 7, 13, 20])
def test_walk_batch_leftover_steps(steps, rng, monkeypatch):
    # Sixteen moves per jump here, so every walker whose binomial move
    # count is not a multiple of sixteen draws from a remainder row.
    tree = full_binary_tree(1)
    assert IndexedTree(tree).jump == 16
    drawn = []
    sorted_moves = chain._sorted_moves

    def recorded(*args):
        drawn.append(sorted_moves(*args).copy())
        return drawn[-1]

    monkeypatch.setattr(chain, "_sorted_moves", recorded)
    assert _walk_law_distance(tree, 100_000, steps, rng) < 0.01
    (moves,) = drawn
    assert np.count_nonzero(moves % 16) > 0
    if steps > 16:
        assert np.count_nonzero((moves >= 16) & (moves % 16 > 0)) > 0


def test_walk_batch_single_node_tree():
    indexed, spy = IndexedTree(ExplicitTree([()], height=3)), _SpyRng(0)
    assert np.array_equal(indexed.walk_batch(20, 13, spy), np.zeros(20))
    # Every walk holds at the root, so nothing is drawn.
    assert spy.moves == spy.words == []


def test_walk_batch_wider_than_a_draw_block(rng):
    # Each pass draws its own codes, however wide it is.
    walkers = 2**15 + 1001
    assert _walk_law_distance(full_binary_tree(2), walkers, 9, rng) < 0.015


def test_walk_batch_spans_several_draw_blocks(rng):
    # About 203 moves a walker: about 12 jump passes of sixteen moves
    # after the remainder pass, each drawing its own codes.
    assert _walk_law_distance(full_binary_tree(2), 1000, 4 * 101 + 3, rng) < 0.05


# Trees of 1, 2, 11 and 32 rows: the 32-row tree is the largest that
# jumps sixteen moves, on 2^10 guide buckets a row.
Z_TREES = [
    ExplicitTree([()], height=2),
    ExplicitTree([(), (1,)]),
    ExplicitTree(full_binary_tree(2).nodes | {(0, 0, 0), (0, 0, 1), (1, 1, 0), (0, 0, 1, 1)}),
    ExplicitTree(full_binary_tree(4).nodes | {(1, 1, 1, 1, 1)}),
]


@pytest.mark.parametrize("steps", [7, 61, 300, 3206])
@pytest.mark.parametrize("tree", Z_TREES, ids=lambda t: f"{len(t.nodes)}rows")
def test_walk_batch_ends_at_each_node_with_its_exact_t_step_probability(tree, steps):
    indexed = IndexedTree(tree)
    rng = np.random.default_rng(steps * 100 + len(tree.nodes))
    walkers, width = 2**17, 2**15
    finals = np.concatenate([indexed.walk_batch(width, steps, rng) for _ in range(walkers // width)])
    counts = np.bincount(finals, minlength=len(indexed.nodes))
    exact = np.linalg.matrix_power(np.array(_exact_matrix(tree), dtype=float), steps)[indexed.root]
    reached = exact > 0
    assert np.all(counts[~reached] == 0)
    p = exact[reached]
    z = (counts[reached] - walkers * p) / np.sqrt(walkers * p * (1 - p) + (p == 1))
    assert np.abs(z).max() <= 5, z


@pytest.mark.parametrize("steps", [5, 40, 407, 3206])
@pytest.mark.parametrize("tree", [full_binary_tree(2), full_binary_tree(6)], ids=["7nodes", "127nodes"])
def test_walk_batch_draws_exactly_the_code_words_it_uses(tree, steps):
    indexed, walkers = IndexedTree(tree), 3001
    spy = _SpyRng(steps)
    indexed.walk_batch(walkers, steps, spy)
    (moves,) = spy.moves
    j = indexed.jump
    # Half a word a walker for the remainder pass, then for jump p the
    # walkers with at least p j moves.
    widths = [walkers] + [int(np.count_nonzero(moves >= p * j)) for p in range(1, int(moves.max()) // j + 1)]
    assert spy.words == [-(-w // 2) for w in widths]


def test_walk_batch_memory_does_not_grow_with_the_walk(rng):
    indexed = IndexedTree(full_binary_tree(4))
    peaks = []
    for steps in (3206, 10 * 3206):
        indexed.walk_batch(2**15, steps, rng)
        tracemalloc.start()
        indexed.walk_batch(2**15, steps, rng)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 64 * 1024, peaks


def test_walk_batch_rows_are_exchangeable(rng):
    # The walkers are walked sorted by their number of moves, so without
    # the final shuffle the first row would hold the fewest-move walks and
    # the last row the most.  Each row must have the T-step law instead.
    tree = ExplicitTree([(), (0,), (0, 1), (0, 1, 0)])
    steps, rows, width = 8, 8, 20_000
    indexed = IndexedTree(tree)
    finals = indexed.walk_batch(rows * width, steps, rng).reshape(rows, width)
    exact = float(_exact_power(tree, steps)[indexed.root][indexed.root])
    sigma = math.sqrt(exact * (1 - exact) / width)
    for row in (finals[0], finals[-1]):
        assert abs(np.mean(row == indexed.root) - exact) <= 4 * sigma


class _WordsRng:
    """A generator stub that deals out chosen move counts, then chosen 64-bit words in order."""

    def __init__(self, moves, words):
        self.moves, self.words = moves, words

    def binomial(self, n, p, size):
        assert size == len(self.moves)
        return np.array(self.moves, dtype=np.int64)

    def integers(self, low, high, size, dtype):
        drawn, self.words = self.words[:size], self.words[size:]
        return drawn.copy()


def test_grown_walk_moves_are_the_low_bits_of_each_lane(monkeypatch):
    walked = []
    walk = chain._GrownRows.walk

    def recorded(self, codes):
        walked.append(list(codes))
        return walk(self, walked[-1])

    monkeypatch.setattr(chain._GrownRows, "walk", recorded)
    rows = chain._GrownRows(ORACLE_TREES["dnf"], 2, 0)
    words = np.array(
        [0xFEDC_BA98_7654_3210, 0xFFFF_FFFF_FFFF_FFFF, 0, 0x8001_7FFE_0F0F_F0F0],
        dtype=np.uint64,
    )
    # Lanes come out in memory order: least significant first on little-endian hosts.
    lanes = range(4) if sys.byteorder == "little" else range(3, -1, -1)
    expected = [(int(w) >> 16 * i) & 3 for w in words for i in lanes]
    # 14 moves take the first 14 lanes of exactly four words.
    rng = _WordsRng([5, 0, 9], words)
    rows.walk_batch(3, 20, rng)
    assert [len(codes) for codes in walked] == [5, 0, 9]
    assert [c for codes in walked for c in codes] == expected[:14]
    assert rng.words.size == 0
    # Every 16-bit lane value once: each move gets exactly 2^14 of them.
    walked.clear()
    every_lane = np.arange(1 << 16, dtype=np.uint16).view(np.uint64)
    rows.walk_batch(1, 1 << 17, _WordsRng([1 << 16], every_lane))
    assert np.bincount(walked[0], minlength=4).tolist() == [1 << 14] * 4


def test_scalar_walk_matches_stationary_on_instance_tree(rng):
    # f=2 for (x1) over two variables: nodes () and (1,), height 3,
    # stationary masses (2/3, 1/3).
    tree = build_branching_tree(dnf_instance(DnfFormula(2, ((1,),))))
    hits = {(): 0, (1,): 0}
    for _ in range(1500):
        node = ROOT
        for u in rng.random(60):
            node = lazy_step(tree.children, node, u, tree.height)
        hits[node] += 1
    empirical = {p: c / 1500 for p, c in hits.items()}
    exact = {(): Fraction(2, 3), (1,): Fraction(1, 3)}
    assert tv_distance(empirical, exact) < 0.06


# --- alpha estimation


def test_estimate_alpha_single_node():
    est = estimate_alpha(ExplicitTree([()]), 0, 0.1, 0.1)
    assert est.value == 1.0 and est.root_hit_fraction == 1.0


def test_estimate_alpha_full_binary_chain_transport(rng):
    est = estimate_alpha(full_binary_tree(2), 2, 0.1, 0.1, rng=rng)
    assert 0.9 / 12 <= est.value <= 1.1 / 12
    assert est.samples == math.ceil(4 * 3 / 0.01)
    assert est.repetitions == math.ceil(8 * math.log(10))
    assert est.chain_steps == est.samples * est.repetitions * burn_in_steps(2, 0.1 / (1 + 0.1))


def test_estimate_alpha_chain_tree_viewed_at_height_two(rng):
    tree = ExplicitTree([(), (1,), (1, 1)])
    est = estimate_alpha(tree, 2, 0.1, 0.1, rng=rng)
    assert abs(est.value - 1 / 7) <= 0.1 / 7


def test_estimate_alpha_exact_transport_on_instance():
    # The exact transport lives in estimate_size; xi = 0.8 at height 3
    # gives the per-depth zeta = xi / (2 (n+1)) = 0.1.
    tree = build_branching_tree(dnf_instance(DnfFormula(2, ((1,),))))
    report = estimate_size(tree, EstimatorConfig(0.8, 0.1, 5, transport="exact"))
    last = report.alpha_estimates[-1]
    assert last.zeta == 0.1
    assert abs(last.value - 1 / 12) <= 0.1 / 12
    assert last.chain_steps == 0 and report.total_chain_steps == 0


def test_estimate_alpha_scalar_chain_on_single_node_instance(rng):
    # Zero-variable satisfiable formula: one tree node viewed at height 1.
    tree = build_branching_tree(dnf_instance(DnfFormula(0, ((),))))
    assert tree.height == 1
    est = estimate_alpha(tree, 1, 0.5, 0.3, rng=rng)
    assert est.value == 0.5  # root mass 1 at height 1
    assert est.root_hit_fraction == 1.0


def _spy_on_estimate_alpha(monkeypatch):
    """Record each walk_batch width, of either walker, and each (m, hits) that draw_hits returns."""
    widths, draws = [], []
    alpha = chain._alpha_from_hits

    def spied_walk(walk):
        def spied(self, n_walkers, steps, rng):
            widths.append(n_walkers)
            return walk(self, n_walkers, steps, rng)

        return spied

    def spied_alpha(height, zeta, delta, draw_hits, steps_per_sample):
        def recorded(m):
            hits = draw_hits(m)
            draws.append((m, hits))
            return hits

        return alpha(height, zeta, delta, recorded, steps_per_sample)

    for walker in (IndexedTree, chain._GrownRows):
        monkeypatch.setattr(walker, "walk_batch", spied_walk(walker.walk_batch))
    monkeypatch.setattr(chain, "_alpha_from_hits", spied_alpha)
    return widths, draws


@pytest.mark.parametrize("cap", [chain._BATCH_WALKERS, 5000, 1000])
@pytest.mark.parametrize(
    "tree",
    [
        full_binary_tree(3),
        ExplicitTree([(), (0,), (1,), (1, 0), (1, 0, 1), (1, 0, 1, 1)]),
        pytest.param(ORACLE_TREES["mono"], id="mono"),
    ],
    ids=lambda t: f"height{t.height}",
)
def test_estimate_alpha_walks_whole_repetitions_per_batch(tree, cap, monkeypatch, rng):
    monkeypatch.setattr(chain, "_BATCH_WALKERS", cap)
    widths, draws = _spy_on_estimate_alpha(monkeypatch)
    h, zeta, delta = tree.height, 0.1, 0.1
    burn_const = 0.1
    est = estimate_alpha(tree, h, zeta, delta, burn_const, rng=rng)
    m, t = sample_size_for(h, zeta), repetitions_for(delta)
    steps = burn_in_steps(h, zeta / (1 + zeta), 0.1)
    assert [d for d, _ in draws] == [m] * t
    assert all(0 <= hits <= m for _, hits in draws)
    # The m t walks go out in consecutive calls of the cap, the last shorter.
    assert widths == [cap] * (m * t // cap) + [m * t % cap] * (m * t % cap > 0)
    assert (est.samples, est.repetitions) == (m, t)
    assert est.chain_steps == m * t * steps


class _StubWalker:
    """A walker whose finals are the root exactly at the chosen draw positions."""

    root = 0

    def __init__(self, at_root):
        self.at_root, self.widths = at_root, []

    def walk_batch(self, n_walkers, steps, rng):
        first = sum(self.widths)
        self.widths.append(n_walkers)
        return np.where(self.at_root[first : first + n_walkers], self.root, 1).astype(np.int32)


@pytest.mark.parametrize(
    "m, t, cap",
    [
        (3, 5, 64),  # m t below the cap
        (1, 1, 1),
        (4, 8, 32),  # m t at the cap
        (7, 10, 30),  # m < cap < m t, cap no multiple of m
        (5, 9, 12),
        (3, 7, 2),  # cap below m
        (11, 4, 10),  # m = cap + 1
        (2, 3, 1),
        (2_000, 19, 2**15),  # the walk-explicit depth-4 schedule
    ],
)
def test_batched_root_hits_walks_fixed_chunks_and_credits_each_draw_to_its_repetition(
    m, t, cap, monkeypatch
):
    monkeypatch.setattr(chain, "_BATCH_WALKERS", cap)
    at_root = np.random.default_rng(m * t + cap).random(m * t) < 0.3
    walker = _StubWalker(at_root)
    hits = list(chain._batched_root_hits(walker, m, t, 9, None))
    assert walker.widths == [cap] * (m * t // cap) + [m * t % cap] * (m * t % cap > 0)
    assert hits == [int(np.count_nonzero(at_root[r * m : (r + 1) * m])) for r in range(t)]


LAW_TREES = [
    ExplicitTree([(), (1,)]),
    ExplicitTree([(), (0,), (1,), (0, 0), (1, 0), (1, 1)]),
    ExplicitTree([(), (0,), (0, 1), (0, 1, 0)]),
    ExplicitTree([(), (1,), (1, 0), (1, 1), (1, 1, 0)], height=4),
]


def _law_tree_id(tree) -> str:
    return f"{len(tree.nodes)}nodes-height{tree.height}"


def _assert_root_hits_follow_the_exact_t_step_law(tree, monkeypatch) -> list[int]:
    """Check the mean root-hit fraction against P^T(r, r); return the walk_batch widths."""
    widths, draws = _spy_on_estimate_alpha(monkeypatch)
    est = estimate_alpha(
        tree, tree.height, 0.1, 0.1, 0.005,
        rng=np.random.default_rng(4242),
    )
    walks = est.samples * est.repetitions
    steps = est.chain_steps // walks
    explicit = materialize(tree)
    nodes, _ = transition_matrix_exact(explicit)
    root = nodes.index(ROOT)
    exact = np.linalg.matrix_power(np.array(_exact_matrix(explicit), dtype=float), steps)[root, root]
    mean_fraction = np.mean([hits / m for m, hits in draws])
    assert abs(mean_fraction - exact) <= 4 * math.sqrt(exact * (1 - exact) / walks)
    return widths


LAW_AND_ORACLE_TREES = [
    *(pytest.param(tree, id=_law_tree_id(tree)) for tree in LAW_TREES),
    *(pytest.param(tree, id=name) for name, tree in ORACLE_TREES.items()),
]


@pytest.mark.parametrize("tree", LAW_AND_ORACLE_TREES)
def test_batched_root_hits_follow_the_exact_t_step_law(tree, monkeypatch):
    # Walks of T = 1, 3, 5 and 9 steps on the explicit trees end 39-78
    # sigma away from the stationary root mass, so this checks the law of
    # exactly T steps, leftover steps included, not just the limit.  The
    # oracle-backed trees take the scalar walker, checked against the
    # exact law of their materialized copy.
    _assert_root_hits_follow_the_exact_t_step_law(tree, monkeypatch)


@pytest.mark.parametrize("tree", LAW_AND_ORACLE_TREES)
def test_repetitions_split_across_walk_batch_calls_follow_the_exact_t_step_law(tree, monkeypatch):
    # Every repetition here has m >= 800 walkers, so a cap of 300 walks
    # each one in several calls and adds up their hits.
    monkeypatch.setattr(chain, "_BATCH_WALKERS", 300)
    widths = _assert_root_hits_follow_the_exact_t_step_law(tree, monkeypatch)
    assert max(widths) == 300 and len(widths) > repetitions_for(0.1)


def test_a_wide_repetition_walks_in_bounded_memory(monkeypatch):
    # Two nodes at a tiny burn-in, explicit and oracle-backed: m grows
    # 11-fold between the two runs, and one walk_batch call per
    # repetition would grow the peak with it.
    widths, _ = _spy_on_estimate_alpha(monkeypatch)
    for tree in (ExplicitTree([(), (0,)]), build_branching_tree(dnf_instance(DnfFormula(1, ((),))))):
        estimate_alpha(tree, 1, 0.05, 0.9, 0.001, rng=np.random.default_rng(1))
        peaks = []
        for zeta in (0.01, 0.003):
            widths.clear()
            tracemalloc.start()
            est = estimate_alpha(tree, 1, zeta, 0.9, 0.001, rng=np.random.default_rng(1))
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            assert est.samples > chain._BATCH_WALKERS
            assert max(widths) == chain._BATCH_WALKERS
            assert sum(widths) == est.samples * est.repetitions
        assert peaks[1] <= 1.25 * peaks[0], (tree, peaks)


# --- truncation is a depth argument


def test_estimate_alpha_walks_the_truncation_of_a_whole_explicit_tree():
    tree = random_tree(np.random.default_rng(81), 5, child_prob=0.7)
    burn_const = 0.05
    for i in range(tree.height):
        cut = sorted((p for p in tree.nodes if len(p) <= i), key=lambda p: (len(p), p))
        assert IndexedTree(tree, i).nodes == cut
        whole = estimate_alpha(tree, i, 0.3, 0.3, burn_const, rng=np.random.default_rng(i))
        alone = estimate_alpha(truncate(tree, i), i, 0.3, 0.3, burn_const, rng=np.random.default_rng(i))
        assert whole == alone


@pytest.mark.parametrize(
    "tree",
    [
        build_branching_tree(is_instance(Graph.from_edges(4, [(1, 2)]))),
        build_branching_tree(dnf_instance(DnfFormula(4, ((1,), (2, 3))))),
    ],
    ids=["is", "dnf"],
)
def test_scalar_walk_stays_within_the_truncation_depth(tree, monkeypatch):
    deepest = max(map(len, materialize(tree).nodes))
    assert deepest < tree.height
    asked = []
    children = InstanceTree.children

    def recorded(self, node):
        asked.append(node)
        return children(self, node)

    monkeypatch.setattr(InstanceTree, "children", recorded)
    for i in range(1, tree.height):
        asked.clear()
        estimate_alpha(tree, i, 0.5, 0.5, 0.05, rng=np.random.default_rng(i))
        # Nodes at depth i hold without asking; the walk reaches depth
        # i where the tree has nodes there, so it asks about their parents.
        assert max(map(len, asked)) < i
        assert min(i, deepest) - 1 in map(len, asked)


def test_grown_walk_asks_at_most_once_per_step_and_stops_at_its_row_cap(monkeypatch):
    # 2^30 independent sets: far more nodes than any walk can visit.
    tree = build_branching_tree(is_instance(Graph.from_edges(30, [])))
    i, zeta, delta, burn_const = 30, 0.9, 0.9, 0.001
    steps = burn_in_steps(i, zeta / (1 + zeta), burn_const)
    planned = sample_size_for(i, zeta) * repetitions_for(delta) * steps
    asked = Counter()
    children = InstanceTree.children

    def counted(self, node):
        asked[node] += 1
        return children(self, node)

    monkeypatch.setattr(InstanceTree, "children", counted)
    est = estimate_alpha(tree, i, zeta, delta, burn_const, rng=np.random.default_rng(5))
    assert est.chain_steps == planned
    assert 0 < sum(asked.values()) <= planned
    assert max(asked.values()) == 1
    monkeypatch.setattr(chain, "_MAX_ROWS", 8)
    message = f"cap of 8 rows of S_30 \\({planned} planned steps\\)"
    with pytest.raises(SizeGuardError, match=message):
        estimate_alpha(tree, i, zeta, delta, burn_const, rng=np.random.default_rng(5))


@pytest.mark.parametrize("tree", ORACLE_TREES.values(), ids=ORACLE_TREES.keys())
def test_scalar_walk_asks_each_node_once(tree, monkeypatch):
    asked = Counter()
    children = InstanceTree.children

    def counted(self, node):
        asked[node] += 1
        return children(self, node)

    monkeypatch.setattr(InstanceTree, "children", counted)
    for i in range(1, tree.height + 1):
        asked.clear()
        estimate_alpha(tree, i, 0.5, 0.5, 0.05, rng=np.random.default_rng(i))
        assert asked and max(asked.values()) == 1
        assert set(asked) <= set(tree.iter_nodes(i))


def _random_instance_trees(seed: int, per_kind: int) -> list[InstanceTree]:
    """Nonempty trees of small random graphs, DNF formulas and monotone circuits."""
    rng = np.random.default_rng(seed)
    draws = [
        lambda: is_instance(random_graph(rng, int(rng.integers(1, 5)), 0.4)),
        lambda: dnf_instance(random_dnf(rng, int(rng.integers(1, 5)), 2, max_width=2)),
        lambda: monotone_instance(random_monotone_circuit(rng, int(rng.integers(1, 4)), 3)),
    ]
    trees = []
    for draw in draws:
        for _ in range(per_kind):
            tree = build_branching_tree(draw())
            while tree.is_empty:
                tree = build_branching_tree(draw())
            trees.append(tree)
    return trees


def _flat_table_estimate(tree, i, zeta, delta, burn_const, rng) -> AlphaEstimate:
    """The estimate of walking ``IndexedTree(tree, i).flat_table`` on the scalar walk's draws.

    The m t samples go out in consecutive batches of ``_BATCH_WALKERS``
    samples, the last one shorter, as ``_batched_root_hits`` walks them.
    Each batch draws the Binomial(T, 1/2) move counts of all its samples
    in one call, then all of its 2-bit codes in one call, and its samples
    read the codes in turn, in draw order; sample j of the m t counts
    toward repetition j // m.  Code c moves as ``lazy_step`` does on
    [c/8, (c+1)/8), so this is the ``lazy_step`` walk with its holds
    skipped (see ``test_grown_rows_move_as_lazy_step_at_the_interval_ends``).
    """
    indexed = IndexedTree(tree, i)
    table = indexed.flat_table.tolist()
    m, t = sample_size_for(i, zeta), repetitions_for(delta)
    steps = burn_in_steps(i, zeta / (1 + zeta), burn_const)
    # Lanes come out in memory order: least significant first on little-endian hosts.
    lanes = range(4) if sys.byteorder == "little" else range(3, -1, -1)
    cap = chain._BATCH_WALKERS
    hits = [0] * t
    for first in range(0, m * t, cap):
        moves = rng.binomial(steps, 0.5, size=min(cap, m * t - first))
        words = rng.integers(0, 2**64, size=-(-int(moves.sum()) // 4), dtype=np.uint64)
        codes = iter([(int(w) >> 16 * lane) & 3 for w in words for lane in lanes])
        for sample, k in enumerate(moves.tolist(), first):
            node = indexed.root
            for _ in range(k):
                node = table[4 * node + next(codes)]
            hits[sample // m] += node == indexed.root
    fractions = [h / m for h in hits]
    p_hat = float(np.median(fractions))
    degenerate = p_hat <= 0.0
    if degenerate:
        p_hat = 1.0 / (2.0 * m)
    return AlphaEstimate(
        p_hat * 2.0**-i, zeta, m, t, p_hat, m * t * steps, degenerate
    )


@pytest.mark.parametrize(
    "tree",
    [*ORACLE_TREES.values(), *_random_instance_trees(91, 3)],
    ids=[*ORACLE_TREES.keys(), *(f"random{k}" for k in range(9))],
)
def test_grown_walk_gives_the_lazy_step_estimate(tree, monkeypatch):
    burn_const = 0.05
    # A cap of 7 walkers splits each repetition into several walk_batch calls.
    for cap in (chain._BATCH_WALKERS, 7):
        monkeypatch.setattr(chain, "_BATCH_WALKERS", cap)
        for i in range(1, tree.height + 1):
            walked = estimate_alpha(tree, i, 0.5, 0.5, burn_const, rng=np.random.default_rng(i))
            reference = _flat_table_estimate(tree, i, 0.5, 0.5, burn_const, np.random.default_rng(i))
            assert walked == reference


class _SpyRng:
    """A generator that records the move counts and the code words it is asked for."""

    def __init__(self, seed: int):
        self.rng, self.moves, self.words = np.random.default_rng(seed), [], []

    def binomial(self, n, p, size):
        drawn = self.rng.binomial(n, p, size)
        self.moves.append(drawn)
        return drawn

    def integers(self, low, high, size, dtype):
        self.words.append(size)
        return self.rng.integers(low, high, size=size, dtype=dtype)

    def shuffle(self, x):
        self.rng.shuffle(x)


@pytest.mark.parametrize(
    "tree",
    [*ORACLE_TREES.values(), *_random_instance_trees(91, 3)],
    ids=[*ORACLE_TREES.keys(), *(f"random{k}" for k in range(9))],
)
def test_uniform_blocks_of_any_size_give_the_same_walk(tree, monkeypatch):
    zeta, delta, burn_const = 0.5, 0.5, 0.05
    hits, default_cap = [], chain._BLOCK_WORDS
    batched = chain._batched_root_hits

    def recorded(*args):
        counts = batched(*args)
        hits.extend(counts)
        return counts

    walked = []
    walk = chain._GrownRows.walk

    def counted(self, codes):
        codes = list(codes)
        walked.append(len(codes))
        return walk(self, codes)

    monkeypatch.setattr(chain, "_batched_root_hits", recorded)
    monkeypatch.setattr(chain._GrownRows, "walk", counted)
    for i in range(1, tree.height + 1):
        spy = _SpyRng(i)
        estimate_alpha(tree, i, zeta, delta, burn_const, rng=spy)
        if not tree.children(()):
            # A bare root: every walk holds there, and nothing is drawn.
            assert spy.moves == spy.words == []
            continue
        # The words of the longest walk: caps below it split that walk.
        longest = -(-max(int(moves.max()) for moves in spy.moves) // 4)
        assert longest >= 2
        runs = []
        for cap in [default_cap, 1, 2, longest - 1, longest, longest + 1]:
            monkeypatch.setattr(chain, "_BLOCK_WORDS", cap)
            spy, hits[:], walked[:] = _SpyRng(i), [], []
            runs.append((estimate_alpha(tree, i, zeta, delta, burn_const, rng=spy), list(hits)))
            assert max(spy.words) <= cap
            # One code per planned move, from exactly enough words.
            planned = sum(int(moves.sum()) for moves in spy.moves)
            assert sum(walked) == planned
            assert sum(spy.words) == sum(-(-int(moves.sum()) // 4) for moves in spy.moves)
        assert all(run == runs[0] for run in runs), i


@pytest.mark.parametrize("tree", ORACLE_TREES.values(), ids=ORACLE_TREES.keys())
def test_grown_rows_move_as_lazy_step_at_the_interval_ends(tree):
    # Code c is the Q move that lazy_step makes on [c/8, (c+1)/8): the
    # parent for codes 0 and 1, the left child for 2 and the right child
    # for 3.  Check each code from every node of every truncation against
    # flat_table, and against lazy_step at both ends of its interval.
    children = functools.cache(tree.children)
    for i in range(1, tree.height + 1):
        indexed = IndexedTree(tree, i)
        rows = chain._GrownRows(tree, i, 0)
        for node in tree.iter_nodes(i):
            to_node, k = [2 + b for b in node], indexed.nodes.index(node)
            for c in range(4):
                to = rows.path(rows.walk(to_node + [c]))
                assert to == indexed.nodes[indexed.flat_table[4 * k + c]]
                for u in (c / 8, float(np.nextafter((c + 1) / 8, 0.0))):
                    assert to == lazy_step(children, node, u, i)


def test_a_bare_root_walks_nothing(tmp_path, monkeypatch):
    # One empty term over no variables accepts everything, and its tree is
    # the root alone: every walk holds there, so no code word is drawn,
    # while the record still reports the schedule's planned steps.
    dnf = tmp_path / "bare.dnf"
    dnf.write_text("p dnf 0 1\n0\n")
    spies = []

    def spy_rng(seed, *key):
        spies.append(_SpyRng(seed))
        return spies[-1]

    monkeypatch.setattr(estimator, "derived_rng", spy_rng)
    record = cli.run_capp("dnf", str(dnf), 0.1, 0.1, 1)
    assert record["p_hat"] == 1.0 and record["steps"] > 0
    assert spies and all(spy.words == [] for spy in spies)


@pytest.mark.parametrize("n", [1, 23, 1000])
def test_bulk_uniforms_are_the_scalar_stream(n):
    # The scalar walk draws its code words in blocks whose sizes depend on
    # the block cap; its walks do not depend on that cap only because
    # full-range uint64 words split into any calls give the same stream.
    bulk, split = derived_rng(7, 3), derived_rng(7, 3)

    def words(rng, size):
        return rng.integers(0, 2**64, size=size, dtype=np.uint64).tolist()

    cut = n // 3
    assert words(bulk, n) == words(split, cut) + [w for _ in range(n - cut) for w in words(split, 1)]
    assert words(bulk, 1) == words(split, 1)


def test_move_counts_past_2_to_the_31_do_not_wrap(rng):
    steps = 3 * 2**32
    moves = chain._sorted_moves(4, steps, rng)
    assert np.all(np.abs(moves - steps / 2) <= 10 * math.sqrt(steps) / 2)


def test_median_needs_no_masked_arrays(tmp_path):
    # np.median's first call imports numpy.ma; the estimator takes the
    # sorted middle of its fractions itself.
    script = f"""
import sys
from pathlib import Path
from totpcount import cli
from totpcount.problems import DnfFormula, Graph, save_dnf, save_graph
graph, dnf = Path({str(tmp_path)!r}) / "edge.graph", Path({str(tmp_path)!r}) / "x1.dnf"
save_graph(Graph.from_edges(2, [(1, 2)]), graph)
save_dnf(DnfFormula(2, ((1,),)), dnf)
cli.run_estimate("is", str(graph), 1.0, 0.5, 1, burn_const=0.025)
cli.run_capp("dnf", str(dnf), 0.5, 0.5, 1, transport="exact")
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""
    src = str(Path(chain.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_estimate_alpha_validates_parameters(rng):
    fb = full_binary_tree(1)
    with pytest.raises(ValueError):
        estimate_alpha(fb, 1, 0.0, 0.1, rng=rng)
    with pytest.raises(ValueError):
        estimate_alpha(fb, 1, 0.1, 1.0, rng=rng)
    with pytest.raises(ValueError):
        estimate_alpha(ExplicitTree([], height=2), 2, 0.1, 0.1, rng=rng)


@pytest.mark.parametrize("burn_const", [math.inf, math.nan])
def test_burn_const_must_be_finite(rng, burn_const):
    for height in (1, 0):
        with pytest.raises(ValueError, match="burn_const must be positive and finite"):
            estimate_alpha(full_binary_tree(1), height, 0.1, 0.1, burn_const=burn_const, rng=rng)
    with pytest.raises(ValueError, match="burn_const must be positive and finite"):
        EstimatorConfig(0.5, 0.1, 1, burn_const=burn_const)
    with pytest.raises(ValueError, match="constant must be positive and finite"):
        burn_in_steps(3, 0.1, burn_const)


def test_counts_past_int64_are_refused_by_name():
    # A finite constant can still overflow T; a tiny zeta or delta, m or t.
    with pytest.raises(SizeGuardError, match="burn-in steps T would be inf"):
        burn_in_steps(3, 0.1, 1e308)
    with pytest.raises(SizeGuardError, match="samples m would be inf"):
        sample_size_for(3, 1e-200)
    with pytest.raises(SizeGuardError, match="samples m would be 1.6e\\+21"):
        sample_size_for(3, 1e-10)
    with pytest.raises(SizeGuardError, match="repetitions t would be inf"):
        repetitions_for(1e-320)
    assert sample_size_for(3, 2.0**-29) == 2**62


def test_chain_params_validation(rng):
    # The burn-in constant is checked before the height-0 shortcut, which
    # walks no steps, and before any estimation run starts.
    for height in (1, 0):
        with pytest.raises(ValueError, match="burn_const"):
            estimate_alpha(full_binary_tree(1), height, 0.1, 0.1, burn_const=-1.0, rng=rng)
    with pytest.raises(ValueError, match="burn_const"):
        EstimatorConfig(0.5, 0.1, 1, burn_const=0)
