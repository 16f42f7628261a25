"""
The one-engine-call-per-replica loops that `catbranch.harness` ran before it
drew the replicas of a shared medium as blocks of consecutive trees of one
engine call, kept as the reference for the tests.  Replica i is a
`simulate_*` call of its own at seed `seed + i`, read whole.
"""

from __future__ import annotations

import numpy as np

from catbranch.particle import (MassPath, SimConfig, simulate_reactant_quenched,
                                stopping_time)
from catbranch.points import point_process_at_level


def neighbor_heights(forest, t: float) -> list[float]:
    """The level-t neighbour MRCA heights (a capped forest read at its
    cap)."""
    cap = forest.height_cap
    level = t if cap is None else min(t, cap)
    return point_process_at_level(forest, level, 1.0).heights


def tree_counts(replicas: int, seed: int, medium: MassPath, n: int,
                t: float) -> np.ndarray:
    """Per replica of unit-rate reactants of initial mass 1: zero marks + 1
    on a nonempty level, else 0."""
    counts = np.zeros(replicas)
    for i in range(replicas):
        cfg = SimConfig(n=n, b2=1.0, t_max=t, seed=seed + i)
        mass, forest = simulate_reactant_quenched(cfg, medium)
        if mass.value_at(t) <= 0.0:
            continue
        hs = neighbor_heights(forest, t)
        counts[i] = sum(1 for h in hs if h == 0.0) + 1.0
    return counts


def level_census(replicas: int, seed: int, medium: MassPath, n: int,
                 t: float) -> tuple[np.ndarray, np.ndarray]:
    """Per replica of unit-rate reactants of initial mass 1, the level-t
    mass; and the neighbour heights of all replicas, pooled."""
    masses = np.zeros(replicas)
    heights: list[float] = []
    for i in range(replicas):
        cfg = SimConfig(n=n, b2=1.0, t_max=t, seed=seed + i)
        mass, forest = simulate_reactant_quenched(cfg, medium)
        masses[i] = mass.value_at(t)
        heights.extend(neighbor_heights(forest, t))
    return masses, np.array(heights)


def extinction_times(replicas: int, seed: int, horizon: float) -> np.ndarray:
    """Per replica of one unit-rate root in the unit medium, the time its
    mass path reaches 0; +inf when it is alive at the horizon."""
    medium = MassPath.constant(1.0)
    out = np.empty(replicas)
    for i in range(replicas):
        cfg = SimConfig(n=1, b2=1.0, t_max=horizon, seed=seed + i)
        mass, _ = simulate_reactant_quenched(cfg, medium)
        out[i] = stopping_time(mass, 0.0)
    return out


def tree_heights_and_leaves(replicas: int, seed: int, medium: MassPath,
                            **config) -> tuple[np.ndarray, np.ndarray]:
    """Per replica of one unit-rate root in `medium`, the height and the
    leaf count of its forest."""
    heights, leaves = np.empty(replicas), np.empty(replicas, dtype=int)
    for i in range(replicas):
        cfg = SimConfig(n=1, b2=1.0, seed=seed + i, **config)
        _, forest = simulate_reactant_quenched(cfg, medium)
        heights[i] = forest.height()
        leaves[i] = forest.leaf_count()
    return heights, leaves
