#!/usr/bin/env python3
"""How fast the walk mixes, and the conductance bound behind it.

Plots (textually) the total-variation distance to stationarity as the
walk runs, then checks the exact conductance of small trees against the
1/(4(n+1)) lower bound that drives the quadratic-in-height burn-in.
"""
import numpy as np

from totpcount import exact_conductance, full_binary_tree, random_tree, stationary_exact
from totpcount.chain import IndexedTree, burn_in_steps
from totpcount.oracles import tv_distance

rng = np.random.default_rng(31)

print("=== TV decay on a random tree of height 6 ===")
tree = random_tree(rng, 6, child_prob=0.55, max_nodes=60)
print(f"{len(tree.nodes)} nodes; burn-in budget for root deviation 0.02: "
      f"{burn_in_steps(6, 0.02)} steps")
indexed = IndexedTree(tree)
pi = stationary_exact(tree)
walkers = 40_000
state = np.full(walkers, indexed.root, dtype=np.int64)
flat = indexed.flat_table
checkpoints = {0, 10, 30, 100, 300, 1000, 3000}
for step in range(3001):
    if step in checkpoints:
        freq = np.bincount(state, minlength=len(indexed.nodes)) / walkers
        empirical = {p: freq[i] for i, p in enumerate(indexed.nodes)}
        dist = tv_distance(empirical, pi)
        bar = "#" * int(60 * dist)
        print(f"  step {step:>5}: tv = {dist:.4f} {bar}")
    # One lazy step: draws 0-3 make the non-lazy move that flat_table
    # holds for them, draws 4-7 hold.
    draws = rng.integers(0, 8, size=walkers, dtype=np.int64)
    state = np.where(draws < 4, flat[state * 4 + (draws & 3)], state)

print()
print("=== exact conductance vs the 1/(4(n+1)) bound ===")
for label, tree in [
    ("two-node", random_tree(np.random.default_rng(1), 1, child_prob=0.0)),
    ("full binary h=3", full_binary_tree(3)),
    ("random h=4", random_tree(rng, 4, child_prob=0.5, max_nodes=16)),
]:
    report = exact_conductance(tree)
    print(f"  {label:>16}: phi = {report.phi} >= {report.bound}  "
          f"({'ok' if report.respects_bound else 'VIOLATED'})")
