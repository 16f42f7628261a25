"""
The event-driven particle engine that `catbranch.particle` used before it
drew whole generations at once, kept as the law reference for the tests.

It makes one event per loop turn: an exponential waiting time for the whole
live population, a uniform pick of the individual that branches, a 0-or-2
offspring coin and, in the galton_watson recording, a coin for the order of
the two children.  Nodes are numbered in event order.  `simulate_population`
has the signature and outputs of `particle._simulate_population`, so a test
can put it in the engine's place and run the public `simulate_*` functions
through it.
"""

from __future__ import annotations

import math

import numpy as np

from catbranch.forest import NEVER, FamilyForest
from catbranch.particle import GALTON_WATSON, MassPath, stopping_time


def simulate_population(n: int, b: float, medium: MassPath, count0: int,
                        t_max: float, rng: np.random.Generator,
                        representation: str) -> tuple[MassPath, FamilyForest]:
    """Run one population with per-individual clock rate n*b*medium(t) for
    each of birth and death, recording mass path and forest.

    The medium must cover [0, t_max] (step paths cover everything to the
    right of their last jump, so constants always do).  Simulation stops at
    extinction, at t_max, or at the medium's absorption time, whichever
    comes first.  That stopping horizon, when finite, is the forest's height
    cap and the death of every survivor, so the forest needs no truncation
    at the horizon; with an infinite horizon the population has died out
    and the forest is uncapped.  Nodes are numbered in event order.
    """
    exponential = rng.exponential
    integers = rng.integers
    uniform = rng.random
    galton_watson = representation == GALTON_WATSON

    parent = [-1] * count0
    birth = [0.0] * count0
    death = [NEVER] * count0
    children: list[list[int]] = [[] for _ in range(count0)]
    alive = list(range(count0))
    roots = list(range(count0))
    if count0 > 1:  # roots sit in a random linear order
        roots = rng.permutation(count0).tolist()

    # Python floats, so event times stay Python floats
    med_times = medium.times.tolist()
    med_values = medium.values.tolist()
    med_last = len(med_times) - 1
    med_i = 0
    med_stop = stopping_time(medium, 0.0)
    horizon = min(t_max, med_stop)
    rate_scale = 2.0 * n * b

    times = [0.0]
    counts = [count0]
    t = 0.0
    live = count0

    while live > 0 and t < horizon:
        # per-individual hazard (birth + death clocks): 2*n*b*medium
        target = exponential()
        # advance through the medium's constant steps until the hazard
        # integral reaches the target
        while True:
            while med_i < med_last and med_times[med_i + 1] <= t:
                med_i += 1
            rate = rate_scale * med_values[med_i] * live
            step_end = horizon
            if med_i < med_last and med_times[med_i + 1] <= horizon:
                step_end = med_times[med_i + 1]
            if rate > 0.0:
                dt = target / rate
                if t + dt <= step_end:
                    t = t + dt
                    break
                target -= rate * (step_end - t)
            t = step_end
            if t >= horizon:
                break
            med_i += 1
        if t >= horizon:
            break

        # pick a uniform living individual and resolve the event: in both
        # recordings it ends, and on a split it gets two children born now
        k = int(integers(live))
        node = alive[k]
        death[node] = t
        if uniform() < 0.5:
            first = len(parent)
            second = first + 1
            parent += (node, node)
            birth += (t, t)
            death += (NEVER, NEVER)
            children += ([], [])
            if galton_watson:
                # two fresh children in a random order
                if uniform() < 0.5:
                    first, second = second, first
                children[node] = [first, second]
                alive[k] = first
                alive.append(second)
            else:
                # birth-death: the newborn branches off to the left of the
                # continuing parent
                children[node] = [first, second]
                alive[k] = second
                alive.append(first)
            live += 1
        else:
            alive[k] = alive[-1]
            alive.pop()
            live -= 1
        times.append(t)
        counts.append(live)

    height_cap = None
    if math.isfinite(horizon):
        height_cap = horizon
        closed = float(horizon)
        for node in alive:
            death[node] = closed

    # the recording is valid forever once the population or its medium died
    path_horizon = math.inf if (live == 0 or med_stop <= t_max) else t_max
    mass = MassPath(np.asarray(times), np.asarray(counts, dtype=float) / n,
                    horizon=path_horizon)
    return mass, FamilyForest.from_children(parent, birth, death, children,
                                            roots, height_cap=height_cap)
