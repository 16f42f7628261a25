"""
The replica axis of the particle suites: replicas of a shared medium are
blocks of k consecutive trees of one engine call, and so are replicas that
each carry their own catalyst, the catalysts' mass paths being the media of
one reactant call.  Exact checks per block, and fixed-seed two-sample tests
of each statistic the suites read per block against the one-call-per-replica
loops of `reference_replicas`.
"""

import hashlib
import math
import weakref

import numpy as np
import pytest

import reference_replicas as ref
from catbranch import harness, particle
from catbranch.errors import InputError
from catbranch.forest import FamilyForest
from catbranch.oracles import two_sample_counts_chi2, two_sample_ks
from catbranch.particle import (MassPath, SimConfig, simulate_catalyst,
                                simulate_reactant_quenched)

# a medium with a jump below the level, so the engine inverts a hazard with
# a knot
STEP = MassPath(np.array([0.0, 0.4]), np.array([1.5, 0.75]))
ALPHA = 1e-3


def _catalysts(seeds, scales) -> list[MassPath]:
    return [MassPath(m.times, c * m.values) for m, c in zip(
        (simulate_catalyst(SimConfig(n=20, t_max=30.0, seed=s))[0] for s in seeds),
        scales)]


def _catalyst_blocks(count: int) -> list[MassPath]:
    # the blocks of one catalyst call at n = 5: some die out early, some
    # live to t_max
    _, forest = simulate_catalyst(SimConfig(n=5, t_max=30.0, seed=9,
                                            initial_catalyst_mass=count))
    return harness._block_mass_paths(forest, 5, 5)


# copies of one medium, and media with different values, knot counts (one,
# for the constant) and absorption times, four and 120 of them, so that a
# node read in the wrong medium would read the wrong time
MEDIA = {
    "copies": lambda: _catalysts((4, 4, 4, 4), (1.0, 1.0, 1.0, 1.0)),
    "distinct": lambda: _catalysts((4, 6, 5, 4), (1.0, 2.0, 0.5, 1.5)),
    "120-media": lambda: _catalyst_blocks(119) + [MassPath.constant(1.0)],
}


def _digest(mass, forest) -> str:
    return hashlib.sha256(repr((mass.times.tolist(), forest.canonical_shape()))
                          .encode()).hexdigest()


class TestBlocks:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_zero_marks_and_level_counts_per_block(self, seed):
        n, k, t = 8, 8, 1.0
        runs = list(harness._replica_runs(40, k, seed, STEP, n=n, b2=1.0, t_max=t))
        assert sum(r for r, _, _ in runs) == 40
        for r, mass, forest in runs:
            assert forest.roots.size == r * k
            trees, heights, block = harness._level_blocks(forest, k, t)
            levels = np.bincount(trees // k, minlength=r)
            # the block level counts add up to the population at t
            assert levels.sum() == round(n * mass.value_at(t))
            # in each nonempty block, zero marks + 1 = trees with survivors
            zeros = np.bincount(block[heights == 0.0], minlength=r)
            surviving = np.bincount(np.unique(trees) // k, minlength=r)
            assert ((zeros + 1)[levels > 0] == surviving[levels > 0]).all()
            assert (surviving[levels == 0] == 0).all()
            # one pair fewer than crossings in every nonempty block
            pairs = np.bincount(block, minlength=r)
            assert (pairs == np.maximum(levels - 1, 0)).all()

    def test_chunks_take_consecutive_seeds(self, monkeypatch):
        monkeypatch.setattr(harness, "CHUNK_NODES", 300)
        runs = list(harness._replica_runs(10, 5, 70, STEP, n=5, b2=1.0, t_max=1.0))
        assert len(runs) > 1 and sum(r for r, _, _ in runs) == 10
        for c, (r, mass, forest) in enumerate(runs):
            cfg = SimConfig(n=5, b2=1.0, t_max=1.0, seed=70 + c,
                            initial_reactant_mass=r)
            assert _digest(mass, forest) == _digest(
                *simulate_reactant_quenched(cfg, STEP))

    def test_chunks_follow_the_node_budget(self):
        # 1 + 2 n b * integral = 101 expected nodes per root at n = 50
        runs = harness._replica_runs(50, 50, 5, MassPath.constant(1.0), n=50,
                                     b2=1.0, t_max=1.0)
        per_call = harness.CHUNK_NODES // (50 * 101)
        assert [r for r, _, _ in runs] == [per_call] * (50 // per_call) + (
            [50 % per_call] if 50 % per_call else [])

    def test_level_census_numbers_replicas_across_chunks(self, monkeypatch):
        monkeypatch.setattr(harness, "CHUNK_NODES", 400)
        levels, heights, blocks = harness._level_census(12, 3, STEP, 4, 1.0, b2=1.0)
        assert levels.size == 12 and heights.size == blocks.size
        assert (np.diff(blocks) >= 0).all()
        assert (np.bincount(blocks, minlength=12) == np.maximum(levels - 1, 0)).all()

    @pytest.mark.parametrize("medium", [
        STEP, MassPath(np.array([0.0, 0.6]), np.array([1.0, 0.0]))],
        ids=["step", "absorbed-below-the-level"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_tree_counts_are_zero_marks_plus_one(self, medium, seed):
        # the point-process statement behind tree_count: a nonempty level's
        # zero marks separate its trees
        levels, heights, blocks = harness._level_census(40, seed, medium, 10,
                                                        1.0, b2=1.0)
        zeros = np.bincount(blocks[heights == 0.0], minlength=40)
        want = np.where(levels > 0, zeros + 1.0, 0.0)
        got = harness._tree_counts(40, seed, medium, 10, 1.0)
        assert np.array_equal(got, want) and 0 < want.max() and 0 in want

    def test_tree_sizes_read_each_block_at_its_level(self):
        # two trees that split (roots 0 and 2) and two single edges, capped
        # at 1; the linear order puts root 2's tree first
        forest = FamilyForest.from_children(
            [-1, -1, -1, -1, 0, 0, 2, 2],
            [0.0, 0.0, 0.0, 0.0, 0.4, 0.4, 0.3, 0.3],
            [0.4, 0.2, 0.3, 1.0, 1.0, 0.7, 0.8, 1.0],
            [[4, 5], [], [6, 7], [], [], [], [], []], [2, 3, 0, 1], height_cap=1.0)
        # block 0 between its split and the deaths below, block 1 at the cap
        assert harness._tree_sizes(forest, 2, np.array([0.5, 1.0])).tolist() == [
            [2, 1], [1, 0]]
        # a node counts at its death, its children only after their birth
        assert harness._tree_sizes(forest, 2, np.array([0.3, 0.4])).tolist() == [
            [1, 1], [1, 0]]
        # one block of four trees
        assert harness._tree_sizes(forest, 4, np.array([0.5])).tolist() == [
            [2, 1, 2, 0]]

    def test_zero_replicas_is_an_input_error(self):
        with pytest.raises(InputError, match="replicas must be >= 1"):
            harness._tree_counts(0, 1, STEP, 5, 1.0)


class TestAgainstOneCallPerReplica:
    """Batched and per-replica routes draw different streams; each pair
    must agree in law."""

    def test_tree_counts(self):
        got = harness._tree_counts(400, 11, STEP, 10, 1.0)
        want = ref.tree_counts(400, 21, STEP, 10, 1.0)
        assert two_sample_counts_chi2(got, want) >= ALPHA

    def test_level_masses_and_neighbor_heights(self):
        levels, heights, _ = harness._level_census(300, 12, STEP, 10, 1.0, b2=1.0)
        masses, ref_heights = ref.level_census(300, 22, STEP, 10, 1.0)
        assert two_sample_counts_chi2(levels, np.rint(10 * masses)) >= ALPHA
        assert two_sample_ks(heights, ref_heights)[1] >= ALPHA

    def test_extinction_times(self):
        got = harness._extinction_times(3000, 13, 2.0)
        want = ref.extinction_times(3000, 23, 2.0)
        # the survivors sit at +inf on both sides; compare at the horizon
        assert two_sample_ks(np.minimum(got, 2.0), np.minimum(want, 2.0))[1] >= ALPHA

    def test_tree_heights_and_leaves(self):
        medium = harness.saved_catalyst(4)
        got_h, got_l = harness._tree_heights_and_leaves(600, 14, medium,
                                                        delta=0.2, t_max=50.0)
        want_h, want_l = ref.tree_heights_and_leaves(600, 24, medium,
                                                     delta=0.2, t_max=50.0)
        assert two_sample_ks(got_h, want_h)[1] >= ALPHA
        assert two_sample_counts_chi2(got_l, want_l) >= ALPHA


class TestPerReplicaMedia:
    """Replicas that each carry their own catalyst: blocks of one catalyst
    call, whose mass paths drive the blocks of one reactant call."""

    def test_catalyst_paths_are_the_live_counts_of_their_blocks(self):
        n, k, r, t_max = 5, 5, 8, 1.5
        mass, forest = simulate_catalyst(SimConfig(
            n=n, t_max=t_max, seed=8, initial_catalyst_mass=r * k / n))
        paths = harness._block_mass_paths(forest, k, n)
        assert len(paths) == r
        block = forest.tree_index() // k
        died = 0
        for j, path in enumerate(paths):
            birth, death = forest.birth[block == j], forest.death[block == j]
            ends = np.append(path.times, t_max)
            for s in np.concatenate((path.times, (ends[:-1] + ends[1:]) / 2)):
                live = np.count_nonzero((birth <= s) & (s < death))
                assert path.value_at(s) == live / n
            extinct = path.values[-1] == 0.0
            assert path.horizon == (math.inf if extinct else t_max)
            died += extinct
        assert 0 < died < r  # both kinds of horizon are checked
        # the blocks' paths add up to the call's own path
        for s in mass.times:
            assert sum(round(n * p.value_at(s)) for p in paths) == round(
                n * mass.value_at(s))

    def test_catalyst_forest_is_freed_before_the_reactant_call(self, monkeypatch):
        monkeypatch.setattr(harness, "CHUNK_NODES", 200)
        catalyst = harness.simulate_catalyst
        reactant = harness.simulate_reactant_quenched
        drawn, freed = [], []

        def draw(cfg):
            mass, forest = catalyst(cfg)
            # `FamilyForest` has slots and no weakref slot; its arrays do
            drawn.append(weakref.ref(forest.parent))
            return mass, forest

        def react(cfg, media):
            freed.append(drawn[-1]() is None)
            return reactant(cfg, media)

        monkeypatch.setattr(harness, "simulate_catalyst", draw)
        monkeypatch.setattr(harness, "simulate_reactant_quenched", react)
        assert sum(r for r, _, _ in harness._quenched_runs(12, 5, 5, 1.0)) == 12
        assert len(freed) > 1 and all(freed)

    @pytest.mark.parametrize("t_max", [0.8, 30.0])  # below and past absorption
    @pytest.mark.parametrize("media", list(MEDIA))
    def test_each_medium_inverts_as_that_medium_alone(self, t_max, media):
        media = MEDIA[media]()
        # at least four media with many knots (all of them, in the cases of four)
        assert sorted(m.times.size for m in media)[-4] > 50
        horizons = np.minimum(t_max, [particle.stopping_time(m, 0.0) for m in media])
        scale = 2.0 * 5
        several, tops = particle._time_of_hazards(media, scale, horizons)
        totals = np.array([scale * m.integral(0.0, horizon)
                           for m, horizon in zip(media, horizons)])
        # the nodes of all media in one call, in random order of media, and
        # each medium's hazard at its horizon; keys of the engine's dtype
        rng = np.random.default_rng(3)
        block = rng.permutation(np.arange(len(media)).repeat(20_000))
        h = np.append(rng.uniform(0.0, 1.2, block.size) * totals[block], totals)
        block = np.append(block, np.arange(len(media))).astype(
            np.min_scalar_type(len(media) - 1))
        got = several(h, block)
        for j, (medium, horizon) in enumerate(zip(media, horizons)):
            single, top = particle._time_of_hazard(medium, scale, horizon)
            # the hazard at the horizon, which decides whether a node ends
            assert tops[j] == top == pytest.approx(totals[j], rel=1e-12)
            mine = block == j
            assert np.array_equal(got[mine], single(h[mine]))

    def test_copies_of_one_medium_draw_the_single_medium_forest(self):
        # one seed, so one stream: the same nodes at the same times as the
        # single-medium engine's
        medium = harness.saved_catalyst(4)
        copies, k, n = 5, 4, 4
        cfg = SimConfig(n=n, t_max=3.0, seed=17,
                        initial_reactant_mass=copies * k / n)
        mass1, one = simulate_reactant_quenched(cfg, medium)
        mass, many = simulate_reactant_quenched(cfg, [medium] * copies)
        assert len(one) > 1000
        for field in ("parent", "roots", "birth", "death"):
            assert np.array_equal(getattr(one, field), getattr(many, field)), field
        assert np.array_equal(mass.times, mass1.times)
        assert np.array_equal(mass.values, mass1.values)
        assert many.height_cap == one.height_cap

    @pytest.mark.parametrize("t_max", [2.0, 1.0])
    def test_each_block_stops_at_its_own_catalyst(self, t_max):
        absorb = [0.9, 0.3, 1.2, 0.6]  # not in order, so offsets matter
        media = [MassPath(np.array([0.0, a]), np.array([1.0, 0.0])) for a in absorb]
        n, k = 6, 24  # mass 4 a block: its lineages reach the cap
        mass, forest = simulate_reactant_quenched(SimConfig(
            n=n, t_max=t_max, seed=5, initial_reactant_mass=len(absorb) * k / n),
            media)
        caps = np.minimum(absorb, t_max)
        block = forest.tree_index() // k
        events = 0
        for j, cap in enumerate(caps):
            death = forest.death[block == j]
            assert (death <= cap).all() and (death == cap).any()
            events += np.count_nonzero(death < cap)
        assert forest.height_cap == caps.max()
        # every event of every block is a jump of the summed path
        assert mass.times.size - 1 == events

    @pytest.mark.parametrize("config, match", [
        ({"initial_reactant_mass": 1.0}, "equal blocks"),  # 4 roots, 3 media
        ({"initial_reactant_mass": 3.0, "delta": 0.5}, "threshold 0"),
    ])
    def test_rejected_media(self, config, match):
        with pytest.raises(InputError, match=match):
            simulate_reactant_quenched(SimConfig(n=4, t_max=1.0, **config),
                                       [STEP] * 3)


class TestPerReplicaMediaAgainstOneCallPerReplica:
    """Blocks of two calls per chunk against one `simulate_joint` call per
    replica; the streams differ, the laws must not."""

    def test_different_tree_probabilities(self):
        got = harness._different_tree_probs(
            harness._reactant_level_sizes(400, 31, 10, 1.0, 1.25))
        want = ref.different_tree_probs(400, 41, 10, 1.0, 1.25)
        assert two_sample_ks(got, want)[1] >= ALPHA

    def test_catalyst_and_reactant_masses(self):
        checkpoints = (0.25, 0.5, 1.0)
        got = harness._joint_masses(400, 32, 10, checkpoints)
        want = ref.joint_masses(400, 42, 10, checkpoints)
        for ours, theirs in zip(got, want):  # catalyst, then reactant
            for k in range(len(checkpoints)):
                assert two_sample_counts_chi2(np.rint(10 * ours[:, k]),
                                              np.rint(10 * theirs[:, k])) >= ALPHA
