"""
particle.py
===========
Exact event-driven simulation of the two-type branching particle model with
full family-forest recording.

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

Two interchangeable forest recordings are provided:

  galton_watson   every branch event kills the individual and creates 0 or
                  2 fresh children;
  birth_death     death clocks end an individual with no offspring, birth
                  clocks split its edge into a continuation plus a newborn,
                  randomly ordered.

Both produce the same total-mass law and the same genealogical distance
distributions; they differ path-by-path, which the representation
equivalence suite exercises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .errors import InputError, PopulationCapError, malformed_lines
from .forest import NEVER, FamilyForest

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

    times: np.ndarray   # increasing, times[0] == 0
    values: np.ndarray  # same length
    horizon: float = math.inf

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.size == 0 or self.times.size != self.values.size:
            raise InputError("times/values must be nonempty and equal length")
        if self.times[0] != 0.0:
            raise InputError("mass path must start at time 0")

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
            line = fh.readline()
            if line.startswith("#"):
                horizon = float(line.split("=", 1)[1])
                fh.readline()  # column names
            for line in fh:
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
    hits = np.flatnonzero(path.values <= delta)
    if hits.size == 0:
        return math.inf
    return float(path.times[hits[0]])


# ---------------------------------------------------------------------- #
# Event engine                                                            #
# ---------------------------------------------------------------------- #

def _simulate_population(n: int, b: float, medium: MassPath, count0: int,
                         t_max: float, rng: np.random.Generator,
                         representation: str,
                         max_live: int) -> tuple[MassPath, FamilyForest]:
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
        if live > max_live:
            raise PopulationCapError(
                f"live population exceeded cap {max_live}")
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
    return mass, FamilyForest(parent, birth, death, children, roots,
                              height_cap=height_cap)


def _streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Catalyst and reactant generators from one seed, fixed spawn order."""
    cat_ss, rea_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(cat_ss), np.random.default_rng(rea_ss)


def simulate_catalyst(cfg: SimConfig) -> tuple[MassPath, FamilyForest]:
    """Autonomous critical binary population at rate b1, rescaling n."""
    rng, _ = _streams(cfg.seed)
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
    _, rng = _streams(cfg.seed)
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
    cat_rng, rea_rng = _streams(cfg.seed)
    catalyst = _catalyst_with_rng(cfg, cat_rng)
    return catalyst, _reactant_with_rng(cfg, catalyst[0], rea_rng)
