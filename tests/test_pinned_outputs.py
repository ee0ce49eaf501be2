"""Seeded CLI records pinned field by field.

Each case runs one ``cli.run_*`` runner on a fixed input and seed, and
its record must equal the pinned one in every field except
``wall_time_s`` (timing) and ``input`` (a temporary path).  The pins
cover both sampling paths of the chain transport (an explicit tree, and
an independent-set, a DNF and a monotone-circuit instance tree) and the
exact transport through ``capp`` (on a DNF formula and on a monotone
circuit) and ``ras``, so a refactor of either path that changes a single
draw shows up here.

To re-pin after a deliberate change of output, run this file as a
script with the package on the path; it prints the expected records.
"""
import json
import sys

import pytest

from totpcount import cli
from totpcount.problems import (
    DnfFormula,
    Graph,
    MonotoneCircuit,
    save_circuit,
    save_dnf,
    save_graph,
)
from totpcount.trees import ExplicitTree, save_tree

# A height-4 tree of 11 nodes, and a height-6 tree of 20 nodes that is
# large enough for ``ras`` at beta = 0.1 to telescope rather than count.
_TREE4 = ["", "0", "1", "00", "01", "11", "000", "011", "110", "0110", "0111"]
_TREE6 = _TREE4 + ["001", "010", "0000", "1100", "00000", "01101", "000001", "011010", "011011"]

INPUTS = {
    "tree4.tree": lambda path: save_tree(_tree(_TREE4), path),
    "tree6.tree": lambda path: save_tree(_tree(_TREE6), path),
    # Three independent sets: {}, {1}, {2}.
    "edge.graph": lambda path: save_graph(Graph.from_edges(2, [(1, 2)]), path),
    # Two of the four assignments satisfy x1.
    "x1.dnf": lambda path: save_dnf(DnfFormula(2, ((1,),)), path),
    "six.dnf": lambda path: save_dnf(DnfFormula(6, ((1, 2), (-3, 4, 5), (2, -6))), path),
    # x0 OR x1 on two inputs: three satisfying assignments.
    "or2.circuit": lambda path: save_circuit(MonotoneCircuit(2, (("OR", 0, 1),), 2), path),
    # Nine inputs, both gate kinds, an AND of node 4 with itself, and the
    # output on node 15 (gate 6), which a later gate reads; inputs 7 and 8
    # lie outside the output's cone.
    "nine.circuit": lambda path: save_circuit(
        MonotoneCircuit(9, (
            ("OR", 0, 1), ("AND", 2, 3), ("OR", 9, 10), ("AND", 4, 4),
            ("OR", 5, 6), ("AND", 12, 13), ("OR", 11, 14), ("AND", 15, 7),
            ("OR", 16, 8),
        ), 15),
        path,
    ),
}

CASES = {
    "estimate-tree-chain": (
        "estimate",
        dict(problem="tree", input="tree4.tree", xi=1.0, delta=0.5, seed=11),
    ),
    "estimate-is-chain": (
        "estimate",
        dict(problem="is", input="edge.graph", xi=1.0, delta=0.9, seed=12, burn_const=0.025),
    ),
    "estimate-dnf-chain": (
        "estimate",
        dict(problem="dnf", input="x1.dnf", xi=1.0, delta=0.9, seed=13, burn_const=0.025),
    ),
    "estimate-mono-chain": (
        "estimate",
        dict(problem="mono", input="or2.circuit", xi=1.0, delta=0.9, seed=16, burn_const=0.025),
    ),
    "capp-dnf-exact": (
        "capp",
        dict(problem="dnf", input="six.dnf", epsilon=0.2, delta=0.2, seed=14, transport="exact"),
    ),
    "capp-mono-exact": (
        "capp",
        dict(problem="mono", input="nine.circuit", epsilon=0.2, delta=0.2, seed=17,
             transport="exact"),
    ),
    "ras-tree-exact": (
        "ras",
        dict(problem="tree", input="tree6.tree", k=1.0, beta=0.1, delta=0.2, seed=15,
             transport="exact"),
    ),
}

UNPINNED = ("wall_time_s", "input")


def _tree(lines: list[str]) -> ExplicitTree:
    return ExplicitTree(tuple(int(ch) for ch in line) for line in lines)


def run_case(name: str, directory) -> dict:
    """The record of case ``name``, with its input written under ``directory``."""
    command, kwargs = CASES[name]
    path = directory / kwargs["input"]
    INPUTS[kwargs["input"]](path)
    record = getattr(cli, f"run_{command}")(**dict(kwargs, input=str(path)))
    return {key: value for key, value in record.items() if key not in UNPINNED}


# Recorded with ``python tests/test_pinned_outputs.py``.
PINNED = {
    "capp-mono-exact": {
        "command": "capp",
        "p_hat": 0.8698765498905239,
        "params": {
            "burn_const": 2.0,
            "delta": 0.2,
            "epsilon": 0.2,
            "seed": 17,
            "transport": "exact",
            "workers": 1
        },
        "problem": "mono",
        "route": "direct",
        "samples": 415272000,
        "steps": 0
    },
    "capp-dnf-exact": {
        "command": "capp",
        "p_hat": 0.4562265342092484,
        "params": {
            "burn_const": 2.0,
            "delta": 0.2,
            "epsilon": 0.2,
            "seed": 14,
            "transport": "exact",
            "workers": 1
        },
        "problem": "dnf",
        "route": "direct",
        "samples": 107520000,
        "steps": 0
    },
    "estimate-dnf-chain": {
        "command": "estimate",
        "degenerate_depths": 0,
        "error_radius": 8.0,
        "estimate": 2.326516929886724,
        "estimate_clamped": 2,
        "fraction": 0.2908146162358405,
        "fraction_clamped": 0.2908146162358405,
        "height": 3,
        "mode": "telescoping",
        "params": {
            "burn_const": 0.025,
            "delta": 0.9,
            "seed": 13,
            "transport": "chain",
            "workers": 1,
            "xi": 1.0
        },
        "problem": "dnf",
        "samples": 27648,
        "steps": 423936
    },
    "estimate-is-chain": {
        "command": "estimate",
        "degenerate_depths": 0,
        "error_radius": 8.0,
        "estimate": 2.1184525279487403,
        "estimate_clamped": 2,
        "fraction": 0.26480656599359254,
        "fraction_clamped": 0.26480656599359254,
        "height": 3,
        "mode": "telescoping",
        "params": {
            "burn_const": 0.025,
            "delta": 0.9,
            "seed": 12,
            "transport": "chain",
            "workers": 1,
            "xi": 1.0
        },
        "problem": "is",
        "samples": 27648,
        "steps": 423936
    },
    "estimate-mono-chain": {
        "command": "estimate",
        "degenerate_depths": 0,
        "error_radius": 8.0,
        "estimate": 3.4636855951136027,
        "estimate_clamped": 3,
        "fraction": 0.43296069938920034,
        "fraction_clamped": 0.43296069938920034,
        "height": 3,
        "mode": "telescoping",
        "params": {
            "burn_const": 0.025,
            "delta": 0.9,
            "seed": 16,
            "transport": "chain",
            "workers": 1,
            "xi": 1.0
        },
        "problem": "mono",
        "samples": 27648,
        "steps": 423936
    },
    "estimate-tree-chain": {
        "command": "estimate",
        "degenerate_depths": 0,
        "error_radius": 16.0,
        "estimate": 12.020909075816832,
        "estimate_clamped": 12,
        "fraction": 0.751306817238552,
        "fraction_clamped": 0.751306817238552,
        "height": 4,
        "mode": "telescoping",
        "params": {
            "burn_const": 2.0,
            "delta": 0.5,
            "seed": 11,
            "transport": "chain",
            "workers": 1,
            "xi": 1.0
        },
        "problem": "tree",
        "samples": 106400,
        "steps": 209722000
    },
    "ras-tree-exact": {
        "command": "ras",
        "degenerate_depths": 0,
        "error_radius": 9.84915530675933,
        "estimate": 20.002205418527524,
        "estimate_clamped": 20,
        "fraction": 0.31253445966449256,
        "fraction_clamped": 0.31253445966449256,
        "height": 6,
        "mode": "telescoping",
        "params": {
            "beta": 0.1,
            "burn_const": 2.0,
            "delta": 0.2,
            "k": 1.0,
            "seed": 15,
            "transport": "exact",
            "workers": 1
        },
        "problem": "tree",
        "relative_error_bound": 1.0,
        "samples": 25920374,
        "steps": 0
    }
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_record_is_pinned(name, tmp_path):
    assert run_case(name, tmp_path) == PINNED[name]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        records = {name: run_case(name, Path(tmp)) for name in sorted(CASES)}
    json.dump(records, sys.stdout, indent=4, sort_keys=True)
    print()
