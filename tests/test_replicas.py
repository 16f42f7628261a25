"""
The replica axis of the particle suites: replicas of a shared medium are
blocks of k consecutive trees of one engine call.  Exact checks per block,
and fixed-seed two-sample tests of each statistic the suites read per
block against the one-call-per-replica loops of `reference_replicas`.
"""

import hashlib

import numpy as np
import pytest

import reference_replicas as ref
from catbranch import harness
from catbranch.errors import InputError
from catbranch.oracles import two_sample_counts_chi2, two_sample_ks
from catbranch.particle import MassPath, SimConfig, simulate_reactant_quenched

# a medium with a jump below the level, so the engine inverts a hazard with
# a knot
STEP = MassPath(np.array([0.0, 0.4]), np.array([1.5, 0.75]))
ALPHA = 1e-3


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
