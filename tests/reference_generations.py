"""
The generation loop that `catbranch.particle` ran before it drew its
generations in hazard units, kept as the reference for the tests.

Each generation's hazards are mapped to times as they are drawn, a node
ends iff its time is below its horizon, and its children are born at that
time.  The time maps take the birth times, which bound a time from below.
`simulate_population` has the signature and outputs of
`particle._simulate_population`, so a test can put it in the engine's place
and run the public `simulate_*` functions through it.  It keeps the engine's
node budget, `particle.MAX_NODES`, read at each call, so that the two stop
at the same generation.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence, Union

import numpy as np

from catbranch import particle
from catbranch.errors import PopulationCapError
from catbranch.forest import FamilyForest
from catbranch.particle import (GALTON_WATSON, MassPath, _live_counts,
                                stopping_time)


def time_of_hazard(medium: MassPath, rate_scale: float, horizon: float):
    """The inverse of the cumulative hazard L(t) = rate_scale * integral of
    the medium over [0, t], as a function of arrays of hazards and of the
    birth times that bound them from below.

    Below the horizon the medium is positive, so L is strictly increasing
    and piecewise linear with knots at the medium's jumps; past its last
    knot below the horizon it continues with the last slope.  Times at or
    beyond the horizon only tell that a clock did not ring before it.
    """
    if not horizon > 0.0:  # nothing happens before the horizon
        return lambda h, born: np.full(h.size, horizon)
    inside = medium.times < horizon
    knots = medium.times[inside]
    rates = rate_scale * medium.values[inside]
    slope = rates[-1]
    if knots.size == 1:  # constant medium; knots[0] == 0
        return lambda h, born: h / slope
    hazards = np.concatenate(([0.0], np.cumsum(rates[:-1] * np.diff(knots))))
    last_knot, last_hazard = knots[-1], hazards[-1]

    def to_time(h, born):
        t = np.where(h > last_hazard, last_knot + (h - last_hazard) / slope,
                     np.interp(h, hazards, knots))
        # interpolation may round a time below the birth by an ulp
        return np.maximum(t, born)
    return to_time


def simulate_population(n: int, b: float,
                        medium: Union[MassPath, Sequence[MassPath]], count0: int,
                        t_max: float, rng: np.random.Generator,
                        representation: str) -> tuple[MassPath, FamilyForest]:
    """`particle._simulate_population` with each generation's deaths read
    on the time axis as the generation is drawn."""
    exponential = rng.exponential
    uniform = rng.random
    galton_watson = representation == GALTON_WATSON
    if count0 > particle.MAX_NODES:
        raise PopulationCapError(
            f"node budget exceeded: more than {particle.MAX_NODES} nodes")

    roots = np.arange(count0)
    if count0 > 1:  # roots sit in a random linear order
        roots = rng.permutation(count0)
    media = [medium] if isinstance(medium, MassPath) else list(medium)
    stops = [stopping_time(m, 0.0) for m in media]
    med_stop = max(stops)
    if len(media) == 1:
        horizon = min(t_max, med_stop)
        to_time = time_of_hazard(media[0], 2.0 * n * b, horizon)
        block = None
        cap = horizon
    else:
        horizons = np.minimum(t_max, stops)
        horizon = float(horizons.max())
        maps = [time_of_hazard(m, 2.0 * n * b, h) for m, h in zip(media, horizons)]

        def to_time(h, born, block):
            # each block through its own medium's map
            t = np.empty_like(h)
            for j, one in enumerate(maps):
                mine = block == j
                t[mine] = one(h[mine], born[mine])
            return t
        # each root's block is its place in the linear order // k
        block = np.empty(count0, dtype=np.intp)
        block[roots] = np.arange(count0) // (count0 // len(media))
        cap = horizons[block]

    # one array per generation, in node order
    born = np.zeros(count0)
    born_hazard = born  # cumulative hazard at birth
    births = [born]
    deaths: list[np.ndarray] = []
    splits: list[np.ndarray] = []
    endings: list[np.ndarray] = []  # deaths below the node's horizon
    nodes = count0
    while True:  # at least once, so that no roots make empty arrays
        m = born.size
        if galton_watson:
            hazard = born_hazard + exponential(size=m)
            split = uniform(m) < 0.5
        else:
            # competing birth and death clocks, each at half the hazard
            # rate; the birth clock ringing first splits the edge
            birth_clock = exponential(size=m)
            death_clock = exponential(size=m)
            hazard = born_hazard + 2.0 * np.minimum(birth_clock, death_clock)
            split = birth_clock < death_clock
        if block is None:
            death = to_time(hazard, born)
        else:
            death = to_time(hazard, born, block)
        ended = death < cap
        split &= ended
        deaths.append(np.minimum(death, cap))
        splits.append(split)
        endings.append(ended)
        born = death[split].repeat(2)
        born_hazard = hazard[split].repeat(2)
        if block is not None:
            block = block[split].repeat(2)
            cap = horizons[block]
        births.append(born)
        nodes += born.size
        if nodes > particle.MAX_NODES:
            raise PopulationCapError(
                f"node budget exceeded: more than {particle.MAX_NODES} nodes")
        if not born.size:
            break

    # the arrays of the end are built one after another, and each input is
    # dropped once used: the generation lists, the inverse hazards (16
    # bytes a knot) and the event arrays would otherwise be held to the
    # return, which is the call's peak
    del to_time
    generations = list(itertools.accumulate((d.size for d in deaths),
                                            initial=0))
    death = np.concatenate(deaths)
    del deaths
    split = np.concatenate(splits)
    del splits
    ended = np.concatenate(endings)
    del endings
    times, counts = _live_counts(count0, death, split, ended)
    del ended
    live = int(counts[-1]) if counts.size else count0
    # the recording is valid forever once the population or its medium died
    path_horizon = math.inf if (live == 0 or med_stop <= t_max) else t_max
    mass = MassPath(np.concatenate(([0.0], times)),
                    np.concatenate(([count0], counts)) / n,
                    horizon=path_horizon)
    del times, counts

    # generations are numbered in order and each lists its children in
    # parent order, so the j-th split node has children count0 + 2j, +1:
    # the child list is every non-root node, in id order
    birth = np.concatenate(births)
    del births
    parent = np.concatenate((np.full(count0, -1), split.nonzero()[0].repeat(2)))
    kid_ptr = np.zeros(death.size + 1, dtype=np.intp)
    np.cumsum(split, out=kid_ptr[1:])
    del split
    kid_ptr *= 2
    forest = FamilyForest(parent, birth, death, kid_ptr,
                          np.arange(count0, death.size), roots,
                          height_cap=horizon if math.isfinite(horizon) else None,
                          generations=generations)
    return mass, forest
