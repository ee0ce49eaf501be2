"""Planned chain work, computed from the sample schedule without sampling.

``estimate_size`` runs, at every depth i = 1..n of a height-n tree,
``sample_size_for(i, zeta)`` samples times ``repetitions_for(delta/(n+1))``
repetitions, each a walk of ``burn_in_steps(i, zeta/(1+zeta), C)`` steps,
with zeta = xi / (2(n+1)).  The totals below use the package's own rule
functions, so they follow any change to the schedule.
"""
from __future__ import annotations

from totpcount.chain import burn_in_steps, repetitions_for, sample_size_for

# The (height, xi) grid of the project roadmap, at delta = 0.1.
ROADMAP_GRID = ((10, 0.5), (20, 0.1), (40, 0.1))
GRID_DELTA = 0.1


def planned_steps(height: int, xi: float, delta: float, burn_const: float = 2.0) -> int:
    """Chain steps one ``estimate`` call plans on a tree of this height."""
    if height == 0:
        return 0
    zeta = xi / (2 * (height + 1))
    tv = zeta / (1 + zeta)
    reps = repetitions_for(delta / (height + 1))
    return sum(
        sample_size_for(i, zeta) * reps * burn_in_steps(i, tv, burn_const)
        for i in range(1, height + 1)
    )


def roadmap_table(steps_per_s: float | None) -> list[dict]:
    """Planned steps of the roadmap grid, and hours at a measured walker rate."""
    rows = []
    for height, xi in ROADMAP_GRID:
        steps = planned_steps(height, xi, GRID_DELTA)
        hours = steps / steps_per_s / 3600 if steps_per_s else None
        rows.append({"height": height, "xi": xi, "delta": GRID_DELTA,
                     "planned_steps": steps, "hours": hours})
    return rows
