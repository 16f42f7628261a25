"""
The particle engine draws its generations in hazard units and maps them to
time once per call; `reference_generations` keeps the loop that mapped each
generation as it was drawn.  The draws are the same, so every output must
be the same, bit for bit.
"""

import math
import pickle

import numpy as np
import pytest

import reference_generations
from catbranch import particle
from catbranch.errors import PopulationCapError
from catbranch.particle import (BIRTH_DEATH, GALTON_WATSON, MassPath,
                                SimConfig, simulate_catalyst,
                                simulate_reactant_quenched)

# falls to 0.5 at 0.9 and dies out at 1.3
STEP = MassPath(np.array([0.0, 0.4, 0.9, 1.3]), np.array([1.5, 0.75, 0.5, 0.0]))
# the second is absorbed at time 0, so its block never ends below its cap
MEDIA = [STEP, MassPath(np.array([0.0]), np.array([0.0])),
         MassPath(np.array([0.0, 0.5]), np.array([1.0, 3.0])),
         MassPath(np.array([0.0, 0.2, 0.7]), np.array([2.0, 0.5, 0.0]))]

CASES = {
    "constant": lambda rep, seed: simulate_catalyst(SimConfig(
        n=10, t_max=1.0, seed=seed, representation=rep,
        initial_catalyst_mass=3.0)),
    "constant-unbounded": lambda rep, seed: simulate_catalyst(SimConfig(
        n=3, t_max=math.inf, seed=seed, representation=rep)),
    # cut at 0.9, where the medium reaches delta, below its absorption
    "step-delta": lambda rep, seed: simulate_reactant_quenched(SimConfig(
        n=10, t_max=5.0, delta=0.5, seed=seed, representation=rep,
        initial_reactant_mass=2.0), STEP),
    "four-media": lambda rep, seed: simulate_reactant_quenched(SimConfig(
        n=5, t_max=1.5, seed=seed, representation=rep,
        initial_reactant_mass=4.0), MEDIA),
}

FIELDS = ("parent", "birth", "death", "kid_ptr", "kids", "roots",
          "_generations", "height_cap")


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("representation", [GALTON_WATSON, BIRTH_DEATH])
def test_outputs_equal_the_time_unit_loop(monkeypatch, case, representation):
    nodes = 0
    for seed in range(6):
        mass, forest = CASES[case](representation, seed)
        nodes += len(forest)
        with monkeypatch.context() as m:
            m.setattr(particle, "_simulate_population",
                      reference_generations.simulate_population)
            ref_mass, ref_forest = CASES[case](representation, seed)
        for field in FIELDS:
            assert np.array_equal(getattr(forest, field),
                                  getattr(ref_forest, field)), field
        assert np.array_equal(mass.times, ref_mass.times)
        assert np.array_equal(mass.values, ref_mass.values)
        assert mass.horizon == ref_mass.horizon
    assert nodes > 300


def _spy(monkeypatch, name):
    """Replace `particle.<name>` by a wrapper that records the arguments
    of each call, and return the list they go to."""
    calls, real = [], getattr(particle, name)

    def spy(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(particle, name, spy)
    return calls


def _spy_events(monkeypatch):
    """Record the arguments of each `MassPath._of_events` call, the events
    of each engine path, in the list returned."""
    calls, real = [], MassPath._of_events

    def spy(cls, *args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(MassPath, "_of_events", classmethod(spy))
    return calls


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("representation", [GALTON_WATSON, BIRTH_DEATH])
class TestLazyMassPath:
    """The engine's path holds its events and builds its values on first
    read; read, it is the path that `_live_counts` gives."""

    def test_path_equals_the_live_counts(self, monkeypatch, case,
                                         representation):
        made = _spy_events(monkeypatch)
        for seed in range(4):
            mass, _ = CASES[case](representation, seed)
            (count0, n, death, split, ended, horizon), = made
            made.clear()
            times, counts = particle._live_counts(count0, death, split, ended)
            want_times = np.concatenate(([0.0], times))
            want_values = np.concatenate(([count0], counts)) / n
            assert np.array_equal(mass.times.view(np.int64),
                                  want_times.view(np.int64))
            assert np.array_equal(mass.values.view(np.int64),
                                  want_values.view(np.int64))
            assert mass.horizon == horizon

    def test_unread_values_are_never_counted(self, monkeypatch, case,
                                             representation):
        counted = _spy(monkeypatch, "_live_counts")
        for seed in range(4):
            mass, _ = CASES[case](representation, seed)
            assert mass.times[0] == 0.0
            assert not counted
            mass.values
            mass.values
            assert len(counted) == 1
            counted.clear()

    def test_unread_path_survives_a_pickle_round_trip(self, case,
                                                      representation):
        mass, _ = CASES[case](representation, 3)
        back = pickle.loads(pickle.dumps(mass))
        read, _ = CASES[case](representation, 3)
        assert np.array_equal(back.times, read.times)
        assert np.array_equal(back.values, read.values)
        assert back.horizon == read.horizon


class TestSettle:
    # a root, its children 1 and 2, and the children 3 and 4 of node 1
    PARENT = np.array([-1, 0, 0, 1, 1])

    def test_deaths_never_fall_below_the_parents(self):
        # node 3 is raised twice: to node 1's time, then to the root's
        death = np.array([0.5, 0.4, 0.7, 0.3, 0.9])
        particle._settle(death, self.PARENT, 1, np.ones(5, bool), math.inf)
        assert death.tolist() == [0.5, 0.5, 0.7, 0.5, 0.9]

    @pytest.mark.parametrize("cap", [0.8, np.full(5, 0.8)], ids=["one", "per-node"])
    def test_nodes_that_do_not_end_die_at_the_cap(self, cap):
        # node 2 ends just above the cap by rounding, node 4 just below it
        # without ending: both die at the cap
        death = np.array([0.5, 0.6, np.nextafter(0.8, 1.0), 0.7,
                          np.nextafter(0.8, 0.0)])
        ended = np.array([True, True, True, True, False])
        particle._settle(death, self.PARENT, 1, ended, cap)
        assert death.tolist() == [0.5, 0.6, 0.8, 0.7, 0.8]


class _CountedDraws:
    """A generator that counts the variates it hands out."""

    def __init__(self, rng, counter):
        self._rng, self._counter = rng, counter

    def _count(self, out):
        self._counter[0] += np.size(out)
        return out

    def exponential(self, size=None):
        return self._count(self._rng.exponential(size=size))

    def random(self, size=None):
        return self._count(self._rng.random(size))

    def permutation(self, x):
        return self._count(self._rng.permutation(x))


# runaway populations: (draw, config, node budget, least forest size)
CAPPED = {
    # 15 138 (galton_watson) or 7 482 (birth_death) nodes
    "one-medium": (simulate_catalyst, dict(n=64, seed=5, t_max=5.0), 3_000,
                   7_000),
    # 4 blocks of 16 roots, 23 836 (galton_watson) or 18 908 (birth_death)
    # nodes
    "four-media": (lambda cfg: simulate_reactant_quenched(cfg, [
        MassPath(np.array([0.0, 1.0, 2.5]), np.array([1.0, 1.5, 0.75])),
        MassPath(np.array([0.0, 0.5]), np.array([2.0, 0.5])),
        MassPath.constant(1.0),
        MassPath(np.array([0.0, 2.0, 3.0]), np.array([0.5, 1.0, 0.0]))]),
        dict(n=16, seed=7, t_max=5.0, initial_reactant_mass=4.0), 6_000,
        15_000),
}


@pytest.mark.parametrize("case", list(CAPPED))
@pytest.mark.parametrize("representation", [GALTON_WATSON, BIRTH_DEATH])
def test_population_cap_stops_before_the_forest_is_drawn(monkeypatch, case,
                                                         representation):
    drawn = [0]
    stream = particle._stream
    monkeypatch.setattr(particle, "_stream", lambda seed, which: _CountedDraws(
        stream(seed, which), drawn))
    draw, config, budget, least = CAPPED[case]
    cfg = SimConfig(representation=representation, **config)
    _, forest = draw(cfg)
    whole, drawn[0] = drawn[0], 0
    assert len(forest) > least
    monkeypatch.setattr(particle, "MAX_NODES", budget)
    with pytest.raises(PopulationCapError):
        draw(cfg)
    capped, drawn[0] = drawn[0], 0
    # at the same generation as the loop that read times as it drew
    monkeypatch.setattr(particle, "_simulate_population",
                        reference_generations.simulate_population)
    with pytest.raises(PopulationCapError):
        draw(cfg)
    assert capped == drawn[0] < 0.7 * whole


def test_budget_binds_below_a_live_count_cap(monkeypatch):
    # 23 110 nodes with at most 217 alive: what a call stores follows its
    # nodes, so the budget stops it though few are ever alive
    drawn = [0]
    stream = particle._stream
    monkeypatch.setattr(particle, "_stream", lambda seed, which: _CountedDraws(
        stream(seed, which), drawn))
    cfg = SimConfig(n=50, t_max=2.0, seed=0)
    mass, forest = simulate_catalyst(cfg)
    assert (len(forest), round(mass.values.max() * 50)) == (23_110, 217)
    drawn[0] = 0
    monkeypatch.setattr(particle, "MAX_NODES", 10_000)
    with pytest.raises(PopulationCapError, match="more than 10000 nodes"):
        simulate_catalyst(cfg)
    # the roots' order, then two variates a node for at most the budget
    assert drawn[0] <= 50 + 2 * 10_000
