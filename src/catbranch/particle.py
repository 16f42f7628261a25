"""
particle.py
===========
Exact simulation of the two-type branching particle model with full
family-forest recording.

Model.  The catalyst population branches autonomously; the reactant's
branching rate is proportional to the current catalyst total mass.  At
rescaling index n every particle carries mass 1/n and clocks accelerate so
that total masses stay O(1).

Clock convention.  Each individual carries an independent birth clock and an
independent death clock, both ringing at rate n * b * (medium mass at the
current time); for the catalyst the medium is the constant 1, for the
reactant it is the catalyst total-mass path.  Equivalently, branch events
occur at rate 2 * n * b * medium and produce 0 or 2 offspring with equal
probability.  Under this convention the closed forms used by the
verification suites hold with rate path lambda = b * medium, e.g. the
single-ancestor extinction law  P{extinct by t} = I(t) / (1 + I(t)) with
I(t) = integral of lambda.  (The square-root diffusion pair integrated in
`diffusion` uses its own normalization; the dictionary between the two is a
constant time change, documented there.)

Engine.  Individuals are independent given the medium, so the engine draws
a whole generation at once.  A node born at time s with cumulative hazard
L(s) = 2 n b * integral of the medium over [0, s] ends at L^-1(L(s) + E),
E a standard exponential; nodes that end before the horizon split into two
children born at that time or die.  Nodes are numbered generation by
generation, and the two children of a split have consecutive ids.  The
total-mass path has one entry per event.  Two interchangeable recordings
draw a generation of m nodes differently:

  galton_watson   `exponential(size=m)` for the branch clocks at rate
                  2 n b * medium, then `random(m) < 0.5` for the 0-or-2
                  offspring coin;
  birth_death     `exponential(size=m)` twice, for a birth clock and a
                  death clock each at rate n b * medium; the first to ring
                  ends the edge, and a birth splits it into the newborn
                  (left child) and the continuing individual (right child).

Both produce the same total-mass law and the same genealogical distance
distributions; they differ path-by-path, which the representation
equivalence suite exercises.  Before the generations, a population of more
than one root draws its roots' linear order with `permutation`.

Cap.  `max_live` bounds the live population after every event;
`PopulationCapError` is raised as soon as the generations drawn so far show
that the bound is exceeded, so a runaway population stops before its whole
forest is drawn.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .errors import InputError, PopulationCapError, malformed_lines
from .forest import FamilyForest

GALTON_WATSON = "galton_watson"
BIRTH_DEATH = "birth_death"


@dataclass
class SimConfig:
    b1: float = 1.0
    b2: float = 1.0
    n: int = 1
    initial_catalyst_mass: float = 1.0
    initial_reactant_mass: float = 1.0
    delta: float = 0.0
    t_max: float = math.inf
    seed: int = 0
    representation: str = GALTON_WATSON
    max_live: int = 10_000_000

    def __post_init__(self) -> None:
        for name in ("b1", "b2", "delta", "initial_catalyst_mass",
                     "initial_reactant_mass"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite")
        if math.isnan(self.t_max):
            raise InputError("t_max must not be NaN")
        if self.b1 <= 0 or self.b2 <= 0:
            raise InputError("rates must be positive")
        if int(self.n) != self.n or self.n < 1:
            raise InputError("rescaling index must be a positive integer")
        self.n = int(self.n)
        if self.delta < 0:
            raise InputError("truncation threshold must be >= 0")
        if self.seed < 0:
            raise InputError("seed must be >= 0")
        if self.representation not in (GALTON_WATSON, BIRTH_DEATH):
            raise InputError(f"unknown representation {self.representation!r}")
        for mass in (self.initial_catalyst_mass, self.initial_reactant_mass):
            count = mass * self.n
            if abs(count - round(count)) > 1e-9 or count < 0:
                raise InputError("initial masses must be multiples of 1/n")


@dataclass
class MassPath:
    """Cadlag step function: value is `values[i]` on [times[i], times[i+1]).

    `horizon` marks how far the recording is trustworthy; +inf means the
    final value extends forever (absorbed paths, synthetic constants).
    """

    times: np.ndarray   # non-decreasing and finite, times[0] == 0
    values: np.ndarray  # same length
    horizon: float = math.inf

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.size == 0 or self.times.size != self.values.size:
            raise InputError("times/values must be nonempty and equal length")
        if self.times[0] != 0.0:
            raise InputError("mass path must start at time 0")
        # NaN fails the comparisons, and the last time is the largest
        if not ((self.times[1:] >= self.times[:-1]).all()
                and self.times[-1] < math.inf):
            raise InputError("mass path times must be finite and non-decreasing")
        if not np.isfinite(self.values).all():
            raise InputError("mass path values must be finite")

    @classmethod
    def constant(cls, value: float) -> "MassPath":
        return cls(np.array([0.0]), np.array([float(value)]))

    @property
    def end_time(self) -> float:
        return float(self.times[-1])

    def value_at(self, t: float) -> float:
        i = int(np.searchsorted(self.times, t, side="right")) - 1
        return float(self.values[max(i, 0)])

    def integral(self, a: float, b: float) -> float:
        """Exact integral of the step function over [a, b]."""
        if b < a:
            raise InputError("integral needs a <= b")
        total = 0.0
        i = max(int(np.searchsorted(self.times, a, side="right")) - 1, 0)
        lo = a
        while lo < b:
            hi = self.times[i + 1] if i + 1 < self.times.size else math.inf
            seg = min(b, hi)
            total += self.values[i] * (seg - lo)
            lo = seg
            i += 1
        return total

    def write(self, fh: TextIO) -> None:
        fh.write(f"# horizon={float(self.horizon)!r}\n")
        fh.write("t,value\n")
        for t, v in zip(self.times, self.values):
            fh.write(f"{float(t)!r},{float(v)!r}\n")

    @classmethod
    def read(cls, fh: TextIO) -> "MassPath":
        horizon = math.inf
        ts, vs = [], []
        with malformed_lines("mass path"):
            first = fh.readline()
            if first.startswith("#"):
                horizon = float(first.split("=", 1)[1])
                first = fh.readline()
            if first.strip() == "t,value":  # column names
                first = ""
            for line in itertools.chain((first,), fh):
                line = line.strip()
                if not line:
                    continue
                a, b = line.split(",")
                ts.append(float(a))
                vs.append(float(b))
        return cls(np.asarray(ts), np.asarray(vs), horizon=horizon)


def stopping_time(path: MassPath, delta: float) -> float:
    """First entrance time of the path into [0, delta]; +inf if never."""
    if delta < 0:
        raise InputError("threshold must be >= 0")
    hits = (path.values <= delta).nonzero()[0]
    if hits.size == 0:
        return math.inf
    return float(path.times[hits[0]])


# ---------------------------------------------------------------------- #
# Particle engine                                                         #
# ---------------------------------------------------------------------- #

def _time_of_hazard(medium: MassPath, rate_scale: float, horizon: float):
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


def _live_counts(count0: int, death: np.ndarray, split: np.ndarray,
                 horizon: float):
    """The times of the events (the deaths below the horizon) in order, and
    the live count after each: a split adds one individual (two children
    replace the parent), another death removes one."""
    ended = death < horizon
    times = death[ended]
    order = times.argsort()
    return times[order], count0 + np.where(split[ended], 1, -1)[order].cumsum()


def _simulate_population(n: int, b: float, medium: MassPath, count0: int,
                         t_max: float, rng: np.random.Generator,
                         representation: str,
                         max_live: int) -> tuple[MassPath, FamilyForest]:
    """Run one population with per-individual clock rate n*b*medium(t) for
    each of birth and death, recording mass path and forest.

    Individuals are independent given the medium, so the engine draws one
    generation at a time: every node's lifetime comes from the cumulative
    hazard, and the nodes that end before the horizon split or die.  Nodes
    are numbered generation by generation, and the two children of a split
    have consecutive ids.  The mass path has one entry per event.

    The medium must cover [0, t_max] (step paths cover everything to the
    right of their last jump, so constants always do).  Simulation stops at
    extinction, at t_max, or at the medium's absorption time, whichever
    comes first.  That stopping horizon, when finite, is the forest's height
    cap and the death of every survivor, so the forest needs no truncation
    at the horizon; with an infinite horizon the population has died out
    and the forest is uncapped.  `PopulationCapError` is raised when the
    live count exceeds `max_live` after some event; generations are
    checked as they grow, before the whole forest is drawn.
    """
    exponential = rng.exponential
    uniform = rng.random
    galton_watson = representation == GALTON_WATSON

    roots = list(range(count0))
    if count0 > 1:  # roots sit in a random linear order
        roots = rng.permutation(count0).tolist()
    med_stop = stopping_time(medium, 0.0)
    horizon = min(t_max, med_stop)
    to_time = _time_of_hazard(medium, 2.0 * n * b, horizon)

    # one array per generation, in node order
    born = np.zeros(count0)
    born_hazard = born  # cumulative hazard at birth
    births = [born]
    deaths: list[np.ndarray] = []
    splits: list[np.ndarray] = []
    nodes = count0
    next_check = max_live
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
        death = to_time(hazard, born)
        split &= death < horizon
        deaths.append(np.minimum(death, horizon))
        splits.append(split)
        born = death[split].repeat(2)
        born_hazard = hazard[split].repeat(2)
        births.append(born)
        nodes += born.size
        if nodes > next_check:
            # a lower bound on the live count: the new children are left
            # out, so this generation's splits only remove their parents
            _, lower = _live_counts(
                count0, np.concatenate(deaths),
                np.concatenate(splits[:-1] + [np.zeros_like(split)]), horizon)
            if lower.size and lower.max() > max_live:
                raise PopulationCapError(
                    f"live population exceeded cap {max_live}")
            next_check = 2 * nodes
        if not born.size:
            break

    death = np.concatenate(deaths)
    split = np.concatenate(splits)
    times, counts = _live_counts(count0, death, split, horizon)
    if counts.size and counts.max() > max_live:
        raise PopulationCapError(f"live population exceeded cap {max_live}")
    live = int(counts[-1]) if counts.size else count0

    # generations are numbered in order and each lists its children in
    # parent order, so the j-th split node has children count0 + 2j, +1
    splitting = split.nonzero()[0]
    first_child = np.full(death.size, -1)
    first_child[splitting] = np.arange(count0, death.size, 2)
    parent = [-1] * count0 + splitting.repeat(2).tolist()
    children = [[c, c + 1] if c >= 0 else [] for c in first_child.tolist()]
    forest = FamilyForest(parent, np.concatenate(births).tolist(),
                          death.tolist(), children, roots,
                          height_cap=horizon if math.isfinite(horizon) else None)

    # the recording is valid forever once the population or its medium died
    path_horizon = math.inf if (live == 0 or med_stop <= t_max) else t_max
    mass = MassPath(np.concatenate(([0.0], times)),
                    np.concatenate(([count0], counts)) / n,
                    horizon=path_horizon)
    return mass, forest


_CATALYST, _REACTANT = 0, 1


def _stream(seed: int, which: int) -> np.random.Generator:
    """The catalyst (0) or reactant (1) generator of a seed: child `which`
    of `SeedSequence(seed).spawn(2)`, built without building the other."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(which,)))


def simulate_catalyst(cfg: SimConfig) -> tuple[MassPath, FamilyForest]:
    """Autonomous critical binary population at rate b1, rescaling n."""
    rng = _stream(cfg.seed, _CATALYST)
    return _catalyst_with_rng(cfg, rng)


def _catalyst_with_rng(cfg: SimConfig, rng: np.random.Generator):
    count0 = round(cfg.initial_catalyst_mass * cfg.n)
    return _simulate_population(
        cfg.n, cfg.b1, MassPath.constant(1.0), count0, cfg.t_max, rng,
        cfg.representation, cfg.max_live)


def simulate_reactant_quenched(cfg: SimConfig,
                               catalyst: MassPath) -> tuple[MassPath, FamilyForest]:
    """Reactant population in a fixed catalyst medium.

    The forest is cut at the first time the catalyst mass reaches the
    truncation threshold (its absorption time when the threshold is 0), or
    at t_max if that comes first; after catalyst absorption the reactant
    mass is constant, and surviving lineages are clipped at the cut.
    """
    rng = _stream(cfg.seed, _REACTANT)
    return _reactant_with_rng(cfg, catalyst, rng)


def _reactant_with_rng(cfg: SimConfig, catalyst: MassPath,
                       rng: np.random.Generator):
    cut = stopping_time(catalyst, cfg.delta)
    if not math.isfinite(cut):
        if not math.isfinite(cfg.t_max):
            raise InputError(
                "catalyst path never reaches the truncation threshold; "
                "set a finite t_max")
        cut = cfg.t_max
    cut = min(cut, cfg.t_max)
    if min(cut, cfg.t_max) > catalyst.horizon:
        raise InputError("catalyst path does not cover the reactant horizon")
    count0 = round(cfg.initial_reactant_mass * cfg.n)
    mass, forest = _simulate_population(
        cfg.n, cfg.b2, catalyst, count0, cfg.t_max, rng,
        cfg.representation, cfg.max_live)
    # the engine stops at min(t_max, catalyst absorption), which is the cut
    # unless a positive threshold is reached earlier
    if forest.height_cap is None or cut < forest.height_cap:
        forest = forest.truncate(cut)
    return mass, forest


def simulate_joint(cfg: SimConfig):
    """Catalyst plus reactant quenched on it, one seed, fixed stream order.

    The catalyst half is what `simulate_catalyst` returns for the same
    config.  Both call `_catalyst_with_rng` rather than each other, so code
    that wraps the public functions (tracing, event counts) sees one call
    per population.
    """
    catalyst = _catalyst_with_rng(cfg, _stream(cfg.seed, _CATALYST))
    return catalyst, _reactant_with_rng(cfg, catalyst[0],
                                        _stream(cfg.seed, _REACTANT))
