"""
The one-engine-call-per-replica loops that `catbranch.harness` ran before it
drew its replicas as blocks of consecutive trees of one engine call (first
those of a shared medium, then those that each carry their own catalyst),
kept as the reference for the tests.  Replica i is a `simulate_*` call of
its own at seed `seed + i`, read whole.
"""

from __future__ import annotations

import numpy as np

from catbranch.harness import _different_tree_prob, _level_trees
from catbranch.particle import (MassPath, SimConfig, simulate_joint,
                                simulate_reactant_quenched, stopping_time)
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


def different_tree_probs(replicas: int, seed: int, n: int, t: float,
                         t_max: float) -> np.ndarray:
    """`comparison`'s quenched half: per replica, a catalyst and a reactant
    of initial mass 1 run to t_max by one `simulate_joint` call, the chance
    that two level-t picks of the reactant lie in different trees (the
    forest read at min(t, its cap)), 0 on an empty level."""
    out = np.zeros(replicas)
    for i in range(replicas):
        _, (_, forest) = simulate_joint(SimConfig(n=n, t_max=t_max, seed=seed + i))
        p = _different_tree_prob(np.bincount(_level_trees(forest, t)[1]).tolist())
        out[i] = 0.0 if np.isnan(p) else p
    return out


def joint_masses(replicas: int, seed: int, n: int,
                 checkpoints) -> tuple[np.ndarray, np.ndarray]:
    """`criticality`'s particle half: per replica (rows), the catalyst and
    reactant masses of one `simulate_joint` call run to the last checkpoint,
    at each checkpoint."""
    cat = np.zeros((replicas, len(checkpoints)))
    rea = np.zeros((replicas, len(checkpoints)))
    for i in range(replicas):
        cfg = SimConfig(n=n, t_max=max(checkpoints), seed=seed + i)
        (cm, _), (rm, _) = simulate_joint(cfg)
        cat[i] = [cm.value_at(t) for t in checkpoints]
        rea[i] = [rm.value_at(t) for t in checkpoints]
    return cat, rea
