"""Every reader of a forest's linear order agrees exactly with the
hand-written walks in `reference_walks` on drawn forests, ties included."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_walks as ref
from catbranch.contour import Excursion, contour_from_forest, tree_from_excursion
from catbranch.errors import InputError
from catbranch.forest import random_binary_forest
from catbranch.particle import SimConfig, simulate_joint
from catbranch.points import point_process_at_level


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
    cfg = SimConfig(n=draw(st.integers(1, 4)),
                    t_max=draw(st.sampled_from([0.5, 1.0, 2.0])),
                    delta=draw(st.sampled_from([0.0, 0.5])),
                    seed=draw(st.integers(0, 10**6)))
    (_, catalyst), (_, reactant) = simulate_joint(cfg)
    return draw(st.sampled_from([catalyst, reactant]))


@st.composite
def cut(draw, forests):
    """A drawn forest as it is, trimmed, or truncated at a branch height."""
    f = draw(forests)
    how = draw(st.sampled_from(["none", "trim", "truncate"]))
    if how == "trim":
        return f.trim(draw(st.sampled_from([0.125, 0.25, 0.5])))
    branches = sorted({f.death_height(v) for v in range(len(f)) if f.children[v]})
    if how == "truncate" and branches:
        return f.truncate(draw(st.sampled_from(branches)))
    return f


def levels(f):
    """The forest's birth and node-top heights, and the points between."""
    hs = sorted({f.birth[v] for v in range(len(f))}
                | {f.death_height(v) for v in range(len(f))})
    hs = [h for h in hs if math.isfinite(h)]
    hs += [(a + b) / 2 for a, b in zip(hs, hs[1:])]
    if f.height_cap is not None:
        hs = [h for h in hs if h <= f.height_cap]
    return st.lists(st.sampled_from(hs), min_size=1, max_size=4)


def check(f, ts):
    assert f.tree_index() == ref.tree_index(f)
    for t in ts:
        assert f.level_set(t) == ref.level_set(f, t)
        if t > 0:
            got = point_process_at_level(f, t, 1.0).heights
            assert got == ref.point_process_heights(f, t)
    times, heights = ref.contour(f, 2.0)
    if all(a < b for a, b in zip(times, times[1:])):
        e = contour_from_forest(f, 2.0)
        assert (e.u, e.e) == (times, heights)
    else:  # the time sum rounded a step away; no excursion can hold it
        with pytest.raises(InputError, match="increase strictly"):
            contour_from_forest(f, 2.0)


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
