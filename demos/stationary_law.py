#!/usr/bin/env python3
"""The walk's stationary law on small trees, exactly and empirically.

Builds a few explicit trees, prints the exact stationary masses
pi(node) = alpha * 2^(height - depth), verifies the telescoping identity
that recovers the node count from the per-depth normalizing factors, and
compares against frequencies from a batch of walks.
"""
import numpy as np

from totpcount import full_binary_tree, random_tree, stationary_exact, truncate
from totpcount.chain import IndexedTree, burn_in_steps
from totpcount.estimator import telescoped_size
from totpcount.oracles import root_mass_exact

rng = np.random.default_rng(7)

print("=== full binary tree of height 2 ===")
fb = full_binary_tree(2)
pi = stationary_exact(fb)
for node in sorted(fb.nodes, key=lambda p: (len(p), p)):
    label = "-" if not node else "".join(map(str, node))
    print(f"  pi({label:>3}) = {pi[node]}")

inv = []
for i in range(fb.height + 1):
    view = truncate(fb, i)
    inv.append(float(2**i / root_mass_exact(view)))
print(f"  1/alpha per depth: {inv}")
print(f"  telescoped size:   {telescoped_size(inv):.0f}  (true size {len(fb.nodes)})")

print()
print("=== random tree of height 5, walk vs exact law ===")
tree = random_tree(rng, 5, child_prob=0.6, max_nodes=40)
print(f"  {len(tree.nodes)} nodes")
steps = burn_in_steps(tree.height, root_deviation=0.01)
print(f"  burn-in for root deviation 0.01: {steps} steps")
indexed = IndexedTree(tree)
finals = indexed.walk_batch(50_000, steps, rng)
freq = np.bincount(finals, minlength=len(indexed.nodes)) / len(finals)
pi = stationary_exact(tree)
print(f"  {'node':>8} {'exact':>10} {'empirical':>10}")
for idx, node in enumerate(indexed.nodes[:8]):
    label = "-" if not node else "".join(map(str, node))
    print(f"  {label:>8} {float(pi[node]):>10.4f} {freq[idx]:>10.4f}")
worst = max(abs(float(pi[p]) - freq[i]) for i, p in enumerate(indexed.nodes))
print(f"  worst per-node gap: {worst:.4f}")
