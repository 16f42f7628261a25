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
a whole generation at once, in hazard units: on the clock L(t) = 2 n b *
integral of the medium over [0, t] the population is the classical
constant-rate critical forest, so a node born at hazard L(s) ends at hazard
L(s) + E, E a standard exponential.  A node that ends below the hazard at
the horizon splits into two children born at that hazard or dies; the
others live to the horizon.  No time is read while the generations are
drawn: after the last one, one call of the inverse L^-1 maps every node's
hazard to its time of death, which is then raised to its parent's where
rounding put it an ulp below and clipped at the horizon.  Nodes are
numbered generation by generation, and the two children of a split have
consecutive ids.  The total-mass path has one entry per event: its times,
the sorted deaths below the horizon, are built with it, and its values,
the live counts after each event, on first read, so a path that nothing
reads costs no sort of the events by time.  Two interchangeable
recordings draw a generation of m nodes differently:

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

Several media.  A reactant may be given R media, one per replica: medium j
drives block j, the k = count0 / R consecutive trees j*k ... j*k + k - 1 of
the linear order, and every node carries its block.  Each block stops at
its own horizon, min(t_max, absorption of its medium): a node ends iff its
hazard is below its medium's hazard at that horizon, which caps its
block's nodes; the forest's height cap is the largest of the horizons.
The time map groups the nodes by block and maps each group through its own
medium's inverse hazard, so a block's deaths are exactly those its medium
alone gives.  The mass path is the sum of the blocks' paths: every event of
every block is one of its jumps.

Forest.  The engine hands its forest over as the arrays it drew: births,
deaths clipped at the horizon, parents, and the children as the run of
non-root ids (the j-th split's pair at count0 + 2j, +1), with the node-id
bounds of its generations.  It builds no per-node Python objects.  The
forest sweeps its pre-order from the generations on the first query, so a
forest that nothing reads (a catalyst that only serves as a medium) costs
only the concatenation of its generations.

Node budget.  What a call stores grows with its nodes, not with its live
population: every node drawn is held in the call's arrays to the return,
and a population of count0 roots draws about count0 * (1 + 2 n b *
integral of the medium) nodes while its live count stays near count0.  A
catalyst at n = 1000 to t = 5 drew 13.8M nodes with at most 6 393 alive,
and held 62 bytes a node at the engine's return and 118 once its forest's
order and tree index and its mass values were read.  `MAX_NODES` (30M
nodes, about 3.5 GB once read) bounds the nodes of a call: a root count
above it raises `PopulationCapError` before anything is drawn, and so does
a node count above it after a generation, before the next is drawn, so a
call never draws more than `MAX_NODES` nodes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence, TextIO, Union

import numpy as np

from ._columns import float_texts, read_columns, write_rows
from .errors import InputError, PopulationCapError, malformed_lines
from .forest import FamilyForest

GALTON_WATSON = "galton_watson"
BIRTH_DEATH = "birth_death"

# the most nodes one engine call may store (see the module's "Node budget")
MAX_NODES = 30_000_000


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

    def __post_init__(self) -> None:
        for name in ("b1", "b2", "delta", "initial_catalyst_mass",
                     "initial_reactant_mass"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite")
        if not self.t_max > 0:  # NaN fails too; +inf is valid
            raise InputError("t_max must be > 0")
        if self.b1 <= 0 or self.b2 <= 0:
            raise InputError("rates must be positive")
        self.n = _positive_int(self.n, "rescaling index")
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


def _positive_int(value, name: str) -> int:
    """`value` as an int; NaN, infinities, fractions and values below 1
    are an `InputError`."""
    if not (math.isfinite(value) and value == int(value) and value >= 1):
        raise InputError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


@dataclass
class MassPath:
    """Cadlag step function: value is `values[i]` on [times[i], times[i+1]).

    `horizon` marks how far the recording is trustworthy; +inf means the
    final value extends forever (absorbed paths, synthetic constants).

    A path that the particle engine returns holds its events until its
    `values` are first read, and builds them then (`_of_events`); to
    everything that reads it, it is the path it would be with its values
    built at once.
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
        if not self.horizon > 0.0:  # NaN fails too; +inf is valid
            raise InputError("mass path horizon must be > 0")

    @classmethod
    def constant(cls, value: float) -> "MassPath":
        return cls(np.array([0.0]), np.array([float(value)]))

    @classmethod
    def _of_events(cls, count0: int, n: int, death: np.ndarray,
                   split: np.ndarray, ended: np.ndarray,
                   horizon: float) -> "MassPath":
        """The mass path at rescaling index n of a population of count0
        roots whose events are the deaths marked `ended`, each a split or
        not: the times are the events' in order, and the values, the live
        counts after each over n, are built by `_live_counts` on first
        read.  The arrays are held, unchanged, until then.

        The times are sorted finite deaths, so they are the bytes of
        `_live_counts`' gather, and the path needs no check.
        """
        path = cls.__new__(cls)
        path.times = np.concatenate(([0.0], np.sort(death[ended])))
        path.horizon = horizon
        path._events = (count0, n, death, split, ended)
        return path

    def __getattr__(self, name: str):
        # only reached while a path of `_of_events` has not built `values`
        events = self.__dict__.get("_events")
        if name != "values" or events is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        count0, n, death, split, ended = events
        _, counts = _live_counts(count0, death, split, ended)
        self.values = np.concatenate(([count0], counts)) / n
        del self._events
        return self.values

    @property
    def end_time(self) -> float:
        return float(self.times[-1])

    def value_at(self, t: float) -> float:
        if math.isnan(t):
            raise InputError("mass path read at time NaN")
        i = int(np.searchsorted(self.times, t, side="right")) - 1
        return float(self.values[max(i, 0)])

    def integral(self, a: float, b: float) -> float:
        """Exact integral of the step function over [a, b]."""
        if math.isnan(a) or math.isnan(b):
            raise InputError("integral bounds must not be NaN")
        if b < a:
            raise InputError("integral needs a <= b")
        total = 0.0
        i = max(int(np.searchsorted(self.times, a, side="right")) - 1, 0)
        lo = a
        while lo < b:
            hi = self.times[i + 1] if i + 1 < self.times.size else math.inf
            seg = min(b, hi)
            # a zero value adds nothing, also over the unbounded last step
            if self.values[i] != 0.0:
                total += self.values[i] * (seg - lo)
            lo = seg
            i += 1
        return total

    def write(self, fh: TextIO) -> None:
        fh.write(f"# horizon={float(self.horizon)!r}\n")
        fh.write("t,value\n")
        # the values are few multiples of 1/n, repeated along the path
        write_rows(fh, [list(map(repr, self.times.tolist())),
                        float_texts(self.values)], sep=",")

    @classmethod
    def read(cls, fh: TextIO) -> "MassPath":
        horizon = math.inf
        with malformed_lines("mass path"):
            first = fh.readline()
            if first.startswith("#"):
                horizon = float(first.split("=", 1)[1])
                first = fh.readline()
            if first.strip() == "t,value":  # column names
                first = ""
            ts, vs = read_columns(first + fh.read(), "mass path", 2, sep=",")
            ts, vs = np.array(ts, dtype=float), np.array(vs, dtype=float)
        return cls(ts, vs, horizon=horizon)


def stopping_time(path: MassPath, delta: float) -> float:
    """First entrance time of the path into [0, delta]; +inf if never."""
    if not delta >= 0:  # NaN fails too
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
    the medium over [0, t], as a function of an array of hazards, and
    L(horizon), the hazard at the horizon.

    Below the horizon the medium is positive, so L is strictly increasing
    and piecewise linear with knots at the medium's jumps; past its last
    knot below the horizon it continues with the last slope.  A hazard
    below L(horizon) reads a time below the horizon, up to rounding;
    times at or beyond the horizon only tell that a clock did not ring
    before it.
    """
    if not horizon > 0.0:  # nothing happens before the horizon
        return (lambda h: np.full(h.size, horizon)), 0.0
    inside = medium.times < horizon
    knots = medium.times[inside]
    rates = rate_scale * medium.values[inside]
    slope = rates[-1]
    hazards = np.concatenate(([0.0], np.cumsum(rates[:-1] * np.diff(knots))))
    last_knot, last_hazard = knots[-1], hazards[-1]
    top = last_hazard + slope * (horizon - last_knot)
    if knots.size == 1:  # constant medium; knots[0] == 0
        return (lambda h: h / slope), top
    return (lambda h: np.where(h > last_hazard,
                               last_knot + (h - last_hazard) / slope,
                               np.interp(h, hazards, knots))), top


def _time_of_hazards(media: Sequence[MassPath], rate_scale: float,
                     horizons: np.ndarray):
    """The inverse cumulative hazards of several media, as a function of
    arrays of hazards and of each node's medium, and each medium's hazard
    at its horizon.

    Each medium has its own `_time_of_hazard`.  The nodes are grouped by
    medium with one stable sort of their media, and each group goes through
    its medium's map, so a node's time is what its medium alone gives.
    """
    maps, tops = zip(*(_time_of_hazard(medium, rate_scale, horizon)
                       for medium, horizon in zip(media, horizons)))

    def to_time(h, medium):
        order = medium.argsort(kind="stable")
        groups = np.split(order, np.bincount(medium, minlength=len(maps))
                          .cumsum()[:-1])
        t = np.empty_like(h)
        for one, group in zip(maps, groups):
            t[group] = one(h[group])
        return t
    return to_time, np.array(tops)


def _live_counts(count0: int, death: np.ndarray, split: np.ndarray,
                 ended: np.ndarray):
    """The times of the events (the deaths below the horizon, marked
    `ended`) in order, and the live count after each: a split adds one
    individual (two children replace the parent), another death removes
    one."""
    times = death[ended]
    order = times.argsort()
    return times[order], count0 + np.where(split[ended], 1, -1)[order].cumsum()


def _parents(count0: int, split: np.ndarray) -> np.ndarray:
    """The parent of every node, -1 for the roots: the j-th split node has
    children count0 + 2j, +1."""
    return np.concatenate((np.full(count0, -1), split.nonzero()[0].repeat(2)))


def _settle(death: np.ndarray, parent: np.ndarray, count0: int,
            ended: np.ndarray, cap) -> None:
    """Finish the times of death of a forest's nodes, read from their
    hazards, in place: never below the parent's death, and clipped at the
    cap (one per node, or one for all), which is the death of every node
    that does not end below it."""
    # a time may round below the parent's by an ulp, and a raised death may
    # raise its children's in turn
    kids, up = death[count0:], death[parent[count0:]]
    low = kids < up
    while low.any():
        kids[low] = up[low]
        up = death[parent[count0:]]
        low = kids < up
    np.minimum(death, cap, out=death)
    np.copyto(death, cap, where=~ended)


def _simulate_population(n: int, b: float,
                         medium: Union[MassPath, Sequence[MassPath]], count0: int,
                         t_max: float, rng: np.random.Generator,
                         representation: str) -> tuple[MassPath, FamilyForest]:
    """Run one population with per-individual clock rate n*b*medium(t) for
    each of birth and death, recording mass path and forest.

    Individuals are independent given the medium, so the engine draws one
    generation at a time in hazard units: a node ends at its birth hazard
    plus an exponential, and the nodes that end below the hazard at the
    horizon split or die.  Nodes are numbered generation by generation, and
    the two children of a split have consecutive ids; the forest keeps the
    generation bounds, from which it derives its pre-order when first read.
    The hazards of all nodes are mapped to times once, at the end.  The
    mass path has one entry per event; it holds the event arrays and
    builds its values when they are first read.

    The medium must cover [0, t_max] (step paths cover everything to the
    right of their last jump, so constants always do).  Simulation stops at
    extinction, at t_max, or at the medium's absorption time, whichever
    comes first.  That stopping horizon, when finite, is the forest's height
    cap and the death of every survivor, so the forest needs no truncation
    at the horizon; with an infinite horizon the population has died out
    and the forest is uncapped.  `PopulationCapError` is raised when the
    root count, or the node count after a generation, exceeds `MAX_NODES`
    (see the module's "Node budget").

    `medium` may also be a sequence of R media, one per block of count0 / R
    consecutive trees of the linear order (see the module docstring); R
    must divide count0, and each medium needs a finite horizon.  A sequence
    of one medium is that medium.
    """
    galton_watson = representation == GALTON_WATSON
    if count0 > MAX_NODES:  # before anything is drawn
        raise PopulationCapError(
            f"node budget exceeded: more than {MAX_NODES} nodes")

    # roots sit in a random linear order
    roots = rng.permutation(count0) if count0 > 1 else np.arange(count0)
    media = [medium] if isinstance(medium, MassPath) else list(medium)
    stops = [stopping_time(m, 0.0) for m in media]
    med_stop = max(stops)
    if len(media) == 1:
        cap = horizon = min(t_max, med_stop)
        time_map, top = _time_of_hazard(media[0], 2.0 * n * b, horizon)
        block = None
    else:
        cap = np.minimum(t_max, stops)
        horizon = float(cap.max())
        time_map, tops = _time_of_hazards(media, 2.0 * n * b, cap)
        # each root's block is its place in the linear order // k
        block = np.empty(count0, dtype=np.min_scalar_type(len(media) - 1))
        block[roots] = np.arange(count0) // (count0 // len(media))
        top = tops[block]

    # one array per generation, in node order; an ending is a death below
    # the node's horizon
    born_hazard = np.zeros(count0)  # cumulative hazard at birth
    hazards, splits, endings, blocks = [], [], [], []
    nodes = count0
    while True:  # at least once, so that no roots make empty arrays
        m = born_hazard.size
        if galton_watson:
            hazard = born_hazard + rng.exponential(size=m)
            split = rng.random(m) < 0.5
        else:
            # competing birth and death clocks, each at half the hazard
            # rate; the birth clock ringing first splits the edge
            birth_clock = rng.exponential(size=m)
            death_clock = rng.exponential(size=m)
            hazard = born_hazard + 2.0 * np.minimum(birth_clock, death_clock)
            split = birth_clock < death_clock
        ended = hazard < top
        split &= ended
        hazards.append(hazard)
        splits.append(split)
        endings.append(ended)
        born_hazard = hazard[split].repeat(2)
        if block is not None:
            blocks.append(block)
            block = block[split].repeat(2)
            top = tops[block]
        nodes += born_hazard.size
        if nodes > MAX_NODES:  # before the next generation is drawn
            raise PopulationCapError(
                f"node budget exceeded: more than {MAX_NODES} nodes")
        if not born_hazard.size:
            break

    # the arrays of the end are built one after another, and each input is
    # dropped once used: the generation lists and the inverse hazards (16
    # bytes a knot) would otherwise be held to the return, which is the
    # call's peak; the mass path holds the event arrays until it is read
    generations = list(itertools.accumulate((h.size for h in hazards),
                                            initial=0))
    split = np.concatenate(splits)
    del splits
    ended = np.concatenate(endings)
    del endings
    death = np.concatenate(hazards)
    del hazards
    # with blocks, the map takes each node's block and `cap` is per block
    if blocks:
        block = np.concatenate(blocks)
        del blocks
        death, cap = time_map(death, block), cap[block]
        del block
    else:
        death = time_map(death)
    del time_map
    parent = _parents(count0, split)
    _settle(death, parent, count0, ended, cap)
    del cap
    # a split replaces its parent by two children, another ending removes one
    live = count0 + 2 * np.count_nonzero(split) - np.count_nonzero(ended)
    # the recording is valid forever once the population or its medium died
    path_horizon = math.inf if (live == 0 or med_stop <= t_max) else t_max
    mass = MassPath._of_events(count0, n, death, split, ended, path_horizon)

    # generations are numbered in order and each lists its children in
    # parent order, so the child list is every non-root node, in id order
    birth = death[parent]
    birth[:count0] = 0.0
    kid_ptr = np.zeros(death.size + 1, dtype=np.intp)
    np.cumsum(split, out=kid_ptr[1:])
    del split
    kid_ptr *= 2
    forest = FamilyForest(parent, birth, death, kid_ptr,
                          np.arange(count0, death.size), roots,
                          height_cap=horizon if math.isfinite(horizon) else None,
                          generations=generations)
    return mass, forest


_CATALYST, _REACTANT = 0, 1


def _stream(seed: int, which: int) -> np.random.Generator:
    """The catalyst (0) or reactant (1) generator of a seed: child `which`
    of `SeedSequence(seed).spawn(2)`, built without building the other."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(which,)))


def simulate_catalyst(cfg: SimConfig) -> tuple[MassPath, FamilyForest]:
    """Autonomous critical binary population at rate b1, rescaling n."""
    return _catalyst(cfg)


def _catalyst(cfg: SimConfig):
    count0 = round(cfg.initial_catalyst_mass * cfg.n)
    return _simulate_population(
        cfg.n, cfg.b1, MassPath.constant(1.0), count0, cfg.t_max,
        _stream(cfg.seed, _CATALYST), cfg.representation)


def simulate_reactant_quenched(
        cfg: SimConfig, catalyst: Union[MassPath, Sequence[MassPath]]
) -> tuple[MassPath, FamilyForest]:
    """Reactant population in a fixed catalyst medium.

    The forest is cut at the first time the catalyst mass reaches the
    truncation threshold (its absorption time when the threshold is 0), or
    at t_max if that comes first; after catalyst absorption the reactant
    mass is constant, and surviving lineages are clipped at the cut.

    `catalyst` may also be a sequence of R catalyst paths, one per replica:
    path j drives the k = n * initial_reactant_mass / R consecutive trees
    j*k ... j*k + k - 1 of the forest's linear order, whose lineages are cut
    at min(t_max, absorption of path j).  The mass path returned is the sum
    of the replicas'.  This needs the threshold 0, and n *
    initial_reactant_mass a multiple of R.
    """
    return _reactant(cfg, catalyst)


def _reactant(cfg: SimConfig, catalyst: Union[MassPath, Sequence[MassPath]]):
    media = [catalyst] if isinstance(catalyst, MassPath) else list(catalyst)
    if not media:
        raise InputError("no catalyst path given")
    if len(media) > 1 and cfg.delta != 0.0:
        raise InputError("per-replica catalyst paths need truncation threshold 0")
    count0 = round(cfg.initial_reactant_mass * cfg.n)
    if count0 % len(media):
        raise InputError(f"{count0} reactant roots do not split into "
                         f"{len(media)} equal blocks")
    for medium in media:
        cut = min(stopping_time(medium, cfg.delta), cfg.t_max)
        if not math.isfinite(cut):
            raise InputError(
                "catalyst path never reaches the truncation threshold; "
                "set a finite t_max")
        if cut > medium.horizon:
            raise InputError("catalyst path does not cover the reactant horizon")
    # one medium goes in as a MassPath, the form that the event-driven
    # reference engine (tests/reference_engine.py) also takes
    mass, forest = _simulate_population(
        cfg.n, cfg.b2, media[0] if len(media) == 1 else media, count0,
        cfg.t_max, _stream(cfg.seed, _REACTANT), cfg.representation)
    # the engine stops at min(t_max, catalyst absorption), which is the cut
    # unless a positive threshold is reached earlier (one medium only)
    if len(media) == 1 and (forest.height_cap is None
                            or cut < forest.height_cap):
        forest = forest.truncate(cut)
    return mass, forest


def simulate_joint(cfg: SimConfig):
    """Catalyst plus reactant quenched on it, one seed, fixed stream order.

    The catalyst half is what `simulate_catalyst` returns for the same
    config.  Both call `_catalyst` rather than each other, so code that
    wraps the public functions (tracing, event counts) sees one call per
    population.
    """
    catalyst = _catalyst(cfg)
    return catalyst, _reactant(cfg, catalyst[0])
