"""Every reader of a forest's linear order agrees exactly with the
hand-written walks in `reference_walks` on drawn forests, ties included.

The array queries get their pre-order three ways: engine forests sweep
their generations, random and decoded forests (and every `trim` and
`truncate`) are handed it by their builder, and forests read from text
walk their child lists."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_walks as ref
from catbranch.contour import Excursion, contour_from_forest, tree_from_excursion
from catbranch.forest import FamilyForest, random_binary_forest
from catbranch.harness import _level_trees
from catbranch.particle import (BIRTH_DEATH, GALTON_WATSON, MassPath, SimConfig,
                                simulate_joint, simulate_reactant_quenched)
from catbranch.points import point_process_at_level

# a catalyst-like step path: it falls to 0.25 at 1.2 and dies out at 1.6
STEP_MEDIUM = MassPath(np.array([0.0, 0.3, 0.7, 1.2, 1.6]),
                       np.array([1.0, 2.0, 2.0 / 3.0, 0.25, 0.0]))


@st.composite
def random_forests(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_binary_forest(
        rng, max_roots=draw(st.integers(1, 4)),
        split_prob=draw(st.sampled_from([0.3, 0.45, 0.6])),
        max_depth=draw(st.integers(0, 7)),
        # a coarse grid puts many nodes at equal heights
        length_grid=draw(st.one_of(st.integers(2, 4), st.sampled_from([16, 64]))))


@st.composite
def decoded_forests(draw):
    """Forests decoded from dyadic excursions on a 1/4 grid: flats, equal
    valleys and zero-length edges all occur."""
    inner = draw(st.lists(st.integers(0, 8), max_size=30))
    hs = [0.0] + [k / 4 for k in inner] + [0.0]
    return tree_from_excursion(Excursion([float(i) for i in range(len(hs))], hs))


@st.composite
def engine_forests(draw):
    """Engine forests as the engine hands them over: up to 40 roots in a
    drawn order, both recordings, a constant or a step medium, capped or
    (run to extinction) uncapped, and empty populations."""
    t_max = draw(st.sampled_from([0.5, 1.0, 2.0, math.inf]))
    cfg = SimConfig(n=draw(st.integers(1, 8 if t_max == math.inf else 40)),
                    t_max=t_max,
                    delta=draw(st.sampled_from([0.0, 0.5])),
                    initial_reactant_mass=draw(st.sampled_from([1.0, 0.0])),
                    representation=draw(st.sampled_from([GALTON_WATSON,
                                                         BIRTH_DEATH])),
                    seed=draw(st.integers(0, 10**6)))
    if draw(st.booleans()):  # cut at 1.2 when delta is 0.5, else at 1.6
        return simulate_reactant_quenched(cfg, STEP_MEDIUM)[1]
    (_, catalyst), (_, reactant) = simulate_joint(cfg)
    return draw(st.sampled_from([catalyst, reactant]))


@st.composite
def cut(draw, forests):
    """A drawn forest as it is, trimmed, or truncated at a branch height."""
    f = draw(forests)
    how = draw(st.sampled_from(["none", "trim", "truncate"]))
    if how == "trim":
        return f.trim(draw(st.sampled_from([0.125, 0.25, 0.5])))
    branches = sorted({f.death_height(v) for v in range(len(f)) if f.children_of(v)})
    if how == "truncate" and branches:
        return f.truncate(draw(st.sampled_from(branches)))
    return f


def levels(f):
    """The forest's birth and node-top heights, and the points between."""
    hs = sorted({0.0} | {f.birth[v] for v in range(len(f))}
                | {f.death_height(v) for v in range(len(f))})
    hs = [h for h in hs if math.isfinite(h)]
    hs += [(a + b) / 2 for a, b in zip(hs, hs[1:])]
    if f.height_cap is not None:
        hs = [h for h in hs if h <= f.height_cap]
    return st.lists(st.sampled_from(hs), min_size=1, max_size=4)


def check(f, ts):
    f.validate()
    assert f.tree_index().tolist() == ref.tree_index(f)
    for t in ts:
        assert f.level_set(t) == ref.level_set(f, t)
        sizes = np.bincount(_level_trees(f, t)[1])
        assert sizes[sizes > 0].tolist() == ref.level_tree_sizes(f, t)
        if t > 0:
            got = point_process_at_level(f, t, 1.0).heights
            assert got == ref.point_process_heights(f, t)
    times, heights = ref.contour(f, 2.0)
    e = contour_from_forest(f, 2.0)
    assert e.e == heights
    if all(a < b for a, b in zip(times, times[1:])):
        assert e.u == times
    else:  # the time sum rounded a step away: those breakpoints move an ulp on
        assert all(a < b for a, b in zip(e.u, e.u[1:]))
        assert all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(e.u, times))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_random_forests_match_reference(data):
    f = data.draw(cut(random_forests()))
    check(f, data.draw(levels(f)))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_decoded_forests_match_reference(data):
    f = data.draw(cut(decoded_forests()))
    check(f, data.draw(levels(f)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_engine_forests_match_reference(data):
    f = data.draw(cut(engine_forests()))
    check(f, data.draw(levels(f)))


# four media that absorb at distinct times, one per block of 10 roots
PER_REPLICA_MEDIA = [MassPath(np.array([0.0, a]), np.array([1.0, 0.0]))
                     for a in (0.7, 1.2, 0.4, 2.0)]


@pytest.mark.parametrize("cfg, media", [
    (SimConfig(n=40, t_max=1.0, seed=3), None),
    (SimConfig(n=40, t_max=2.0, seed=4, representation=BIRTH_DEATH), None),
    (SimConfig(n=6, t_max=math.inf, seed=5), None),
    (SimConfig(n=20, t_max=5.0, delta=0.5, seed=6), STEP_MEDIUM),
    (SimConfig(n=10, t_max=1.5, seed=7, initial_reactant_mass=4.0),
     PER_REPLICA_MEDIA),
], ids=["gw", "bd", "uncapped", "step-cut", "per-replica-media"])
def test_engine_forest_matches_its_read_back(cfg, media):
    """The pre-order swept from the engine's generations equals the walk
    of the same forest read back from text, and so do the queries; the
    tree index handed down the generations, read before the pre-order is
    built, equals the walk's too."""
    if media is None:
        forests = [f for _, f in simulate_joint(cfg)]
    else:
        forests = [simulate_reactant_quenched(cfg, media)[1]]
    for f in forests:
        g = FamilyForest.from_text(f.to_text())
        assert len(f) > 50
        assert np.array_equal(f.tree_index(), g.tree_index())
        assert np.array_equal(f.order, g.order)
        top = f.height() if f.height_cap is None else f.height_cap
        for t in (0.0, 0.1 * top, 0.5 * top, 0.9 * top, top):
            assert f.level_set(t) == g.level_set(t)
            if t > 0:
                assert (point_process_at_level(f, t, 1.0).heights
                        == point_process_at_level(g, t, 1.0).heights)
