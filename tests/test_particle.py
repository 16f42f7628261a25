import hashlib
import io
import math
import warnings

import numpy as np
import pytest

import reference_engine
from catbranch import particle
from catbranch.errors import InputError, PopulationCapError
from catbranch.oracles import two_sample_ks
from catbranch.particle import (BIRTH_DEATH, GALTON_WATSON, MassPath,
                                SimConfig, simulate_catalyst, simulate_joint,
                                simulate_reactant_quenched, stopping_time)
from catbranch.points import point_process_at_level


@pytest.fixture
def reference(monkeypatch):
    """Run the public `simulate_*` functions through the reference engine."""
    monkeypatch.setattr(particle, "_simulate_population",
                        reference_engine.simulate_population)


class TestSimConfig:
    def test_validates_rates(self):
        with pytest.raises(InputError):
            SimConfig(b1=0.0)
        with pytest.raises(InputError):
            SimConfig(n=0)
        with pytest.raises(InputError):
            SimConfig(representation="bogus")

    @pytest.mark.parametrize("value", [0, -1, 2.5, math.nan, math.inf])
    def test_rescaling_index_must_be_a_positive_integer(self, value):
        with pytest.raises(InputError, match="rescaling index"):
            SimConfig(n=value)

    def test_integral_values_become_ints(self):
        cfg = SimConfig(n=4.0)
        assert cfg.n == 4 and type(cfg.n) is int

    def test_mass_granularity(self):
        with pytest.raises(InputError):
            SimConfig(n=4, initial_reactant_mass=0.3)
        SimConfig(n=4, initial_reactant_mass=0.75)

    @pytest.mark.parametrize("field", ["b1", "b2", "delta",
                                       "initial_catalyst_mass",
                                       "initial_reactant_mass"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(InputError):
            SimConfig(**{field: value})

    def test_rejects_negative_seed(self):
        with pytest.raises(InputError, match="seed"):
            SimConfig(seed=-1)

    def test_t_max_may_be_infinite_but_not_nan(self):
        assert SimConfig(t_max=math.inf).t_max == math.inf
        with pytest.raises(InputError):
            SimConfig(t_max=math.nan)

    @pytest.mark.parametrize("t_max", [0.0, -1.0, -math.inf])
    def test_t_max_must_be_positive(self, t_max):
        # the mass path's horizon is t_max, and it must be > 0
        with pytest.raises(InputError, match="t_max"):
            SimConfig(t_max=t_max)


class TestMassPath:
    def test_value_and_integral(self):
        p = MassPath(np.array([0.0, 1.0, 2.5]), np.array([1.0, 3.0, 0.0]))
        assert p.value_at(0.5) == 1.0
        assert p.value_at(1.0) == 3.0
        assert p.value_at(10.0) == 0.0
        assert p.integral(0.0, 2.0) == pytest.approx(1.0 + 3.0)
        assert p.integral(0.5, 1.5) == pytest.approx(0.5 + 1.5)

    @staticmethod
    def _absorbed(kind):
        """A path that ends at value 0: written out, or the engine's (whose
        values are built on first read)."""
        if kind == "written":
            return MassPath(np.array([0.0, 1.0, 2.5]), np.array([1.0, 3.0, 0.0]))
        mass, _ = simulate_catalyst(SimConfig(n=4, t_max=math.inf, seed=2))
        return mass

    @pytest.mark.parametrize("kind", ["written", "engine"])
    def test_readers_reject_nan(self, kind):
        p = self._absorbed(kind)
        with pytest.raises(InputError, match="threshold"):
            stopping_time(p, math.nan)
        with pytest.raises(InputError, match="NaN"):
            p.value_at(math.nan)
        with pytest.raises(InputError, match="NaN"):
            p.integral(0.0, math.nan)
        with pytest.raises(InputError, match="NaN"):
            p.integral(math.nan, 1.0)

    @pytest.mark.parametrize("kind", ["written", "engine"])
    def test_integral_to_infinity_of_an_absorbed_path_is_its_area(self, kind):
        p = self._absorbed(kind)
        assert p.values[-1] == 0.0 and p.horizon == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            area = p.integral(0.0, math.inf)
        assert area == p.integral(0.0, p.end_time) > 0.0
        if kind == "written":
            assert area == 1.0 + 4.5

    def test_stopping_time(self):
        p = MassPath(np.array([0.0, 1.0, 2.0]), np.array([2.0, 1.0, 0.0]))
        assert stopping_time(p, 0.0) == 2.0
        assert stopping_time(p, 1.0) == 1.0
        assert stopping_time(p, 5.0) == 0.0
        assert stopping_time(p, -1 if False else 0.5) == 2.0
        q = MassPath(np.array([0.0]), np.array([1.0]))
        assert math.isinf(stopping_time(q, 0.5))

    def test_monotone_in_threshold(self):
        p = MassPath(np.array([0.0, 1.0, 2.0]), np.array([3.0, 2.0, 0.0]))
        assert stopping_time(p, 2.0) <= stopping_time(p, 1.0)

    def test_csv_round_trip(self):
        p = MassPath(np.array([0.0, 0.5]), np.array([1.0, 0.0]), horizon=4.0)
        buf = io.StringIO()
        p.write(buf)
        buf.seek(0)
        q = MassPath.read(buf)
        assert np.array_equal(q.times, p.times)
        assert np.array_equal(q.values, p.values)
        assert q.horizon == 4.0

    @pytest.mark.parametrize("text", [
        "# horizon=4.0\nt,value\n0.0,1.0\n0.5\n",
        "# horizon=4.0\nt,value\n0.0,1.0\n0.5,x\n",
        "# horizon=four\nt,value\n0.0,1.0\n",
        "# horizon\nt,value\n0.0,1.0\n",
    ])
    def test_read_rejects_malformed_lines(self, text):
        with pytest.raises(InputError, match="malformed mass path"):
            MassPath.read(io.StringIO(text))

    def test_read_keeps_first_line_without_header(self):
        q = MassPath.read(io.StringIO("0.0,1.0\n0.0,2.0\n0.5,0.0\n"))
        assert q.times.tolist() == [0.0, 0.0, 0.5]
        assert q.values.tolist() == [1.0, 2.0, 0.0]
        assert q.horizon == math.inf

    def test_read_skips_column_line_without_header(self):
        q = MassPath.read(io.StringIO("t,value\n0.0,1.0\n0.5,0.0\n"))
        assert q.times.tolist() == [0.0, 0.5]
        assert q.values.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("times, values", [
        ([0.0, math.nan], [1.0, 0.0]),
        ([0.0, math.inf], [1.0, 0.0]),
        ([0.0, 1.0, 0.5], [1.0, 2.0, 0.0]),
        ([0.0, 1.0], [1.0, math.nan]),
        ([0.0, 1.0], [math.inf, 0.0]),
    ], ids=["nan-time", "inf-time", "decreasing", "nan-value", "inf-value"])
    def test_rejects_bad_times_and_values(self, times, values):
        with pytest.raises(InputError):
            MassPath(np.array(times), np.array(values))


class TestDeterminism:
    def test_bit_exact_replay(self):
        cfg = SimConfig(n=2, seed=99, t_max=4.0)
        a = simulate_joint(cfg)
        b = simulate_joint(cfg)
        assert np.array_equal(a[0][0].times, b[0][0].times)
        assert np.array_equal(a[1][0].times, b[1][0].times)
        assert a[1][1].canonical_shape() == b[1][1].canonical_shape()

    def test_catalyst_marginal_matches_joint(self):
        cfg = SimConfig(n=3, seed=123, t_max=2.0)
        joint_cat = simulate_joint(cfg)[0]
        solo_cat = simulate_catalyst(cfg)
        assert np.array_equal(joint_cat[0].times, solo_cat[0].times)
        assert np.array_equal(joint_cat[0].values, solo_cat[0].values)

    def test_representations_diverge(self):
        cfg_gw = SimConfig(n=1, seed=7, t_max=10.0, representation=GALTON_WATSON)
        cfg_bd = SimConfig(n=1, seed=7, t_max=10.0, representation=BIRTH_DEATH)
        f_gw = simulate_catalyst(cfg_gw)[1]
        f_bd = simulate_catalyst(cfg_bd)[1]
        # same seed, different node bookkeeping
        assert f_gw.canonical_shape() != f_bd.canonical_shape() or len(f_gw) <= 1


def _digest(mass, forest):
    h = hashlib.sha256()
    h.update(mass.times.tobytes())
    h.update(mass.values.tobytes())
    h.update(repr(forest.canonical_shape()).encode())
    h.update(repr(forest.height_cap).encode())
    return h.hexdigest()


@pytest.mark.usefixtures("reference")
class TestStreamPreservation:
    """Digests of mass paths, forest shapes and height caps, recorded from
    the event-driven engine when it built forests through `ForestBuilder`
    and truncated them at the horizon.  They run through that engine, now
    `reference_engine`, and pin it as the law reference, together with the
    seeding, truncation and stream order of the public functions.  Node ids
    do not enter `canonical_shape`, so the digests hold for any numbering
    of the nodes."""

    JOINT = {
        (1, GALTON_WATSON, 5, 1.0): (
            "c661d9725170f424c116f52d959e307fc499d209259b0e6c89691b02ca223cfb",
            "8328ae4eff9bcb91a8ca71d71eb1888033bcaea98fda8cd66f8080985bc56d74"),
        (2, GALTON_WATSON, 5, 1.0): (
            "2458045eef02666c848661b8fcd6e930f13b3e45129b742fde965370c30d19c1",
            "3294d47c82a68cfbca8f3f774b43f73153fdbca4b9428fdfb5b3e9de8dd37d38"),
        (3, GALTON_WATSON, 5, 1.0): (
            "44dc95a1e8e705ca73279e7f9f2fad6a5af0c8c3cff5cda2a0e06d731a2111aa",
            "70c1c6ddd5cbc99d72a9ec27129591f5f7380d8ce12e5ba66a356b6a2b196a89"),
        (4, BIRTH_DEATH, 5, 1.0): (
            "4f2fd2750bc13b2505b3e93303530b67dd9213f3226a48a62377914a02e40dbc",
            "f31d888ad08778c703448094fa612f1844bca92441e2e9176a25d8928f263684"),
        # catalyst runs to extinction, reactant is cut at its absorption
        (7, GALTON_WATSON, 1, math.inf): (
            "d9f6045c4d173f6b39629f61b7133322e675940904bb11f9b6412356876111ef",
            "8fea95390a7a4097b11150fcfdc7c9a4be243d669b539c4ef006136e322f9b14"),
    }

    @pytest.mark.parametrize("key", list(JOINT), ids=str)
    def test_joint(self, key):
        seed, representation, n, t_max = key
        cat, rea = simulate_joint(SimConfig(n=n, t_max=t_max, seed=seed,
                                            representation=representation))
        assert (_digest(*cat), _digest(*rea)) == self.JOINT[key]

    def test_reactant_cut_below_horizon(self):
        # the catalyst falls to delta = 0.2 at 0.916, before it dies out at
        # 1.194, so the reactant forest is truncated with 11 survivors
        cfg = SimConfig(n=5, t_max=2.0, seed=10, delta=0.2)
        catalyst, _ = simulate_catalyst(cfg)
        mass, forest = simulate_reactant_quenched(cfg, catalyst)
        assert forest.height_cap < stopping_time(catalyst, 0.0)
        assert _digest(mass, forest) == (
            "2369b78cddd8d924f28446e1d70a948393f3e9b4fffda6fc28701bf1afe998ca")


class TestConsistency:
    def test_mass_equals_level_count(self):
        cfg = SimConfig(n=4, seed=11, t_max=3.0)
        mass, forest = simulate_catalyst(cfg)
        rng = np.random.default_rng(0)
        for _ in range(20):
            # query between events, where both conventions agree
            t = float(rng.uniform(0.0, min(3.0, mass.times[-1] + 0.5)))
            if t in mass.times or t == 0.0:
                continue
            assert len(forest.level_set(min(t, 3.0))) == round(
                mass.value_at(t) * cfg.n)

    def test_forest_truncated_at_threshold(self):
        catalyst = MassPath(np.array([0.0, 2.0]), np.array([1.0, 0.0]))
        cfg = SimConfig(n=1, seed=5, delta=0.0, t_max=10.0)
        _, forest = simulate_reactant_quenched(cfg, catalyst)
        assert forest.height_cap == 2.0
        assert forest.height() <= 2.0

    @pytest.mark.parametrize("representation", [GALTON_WATSON, BIRTH_DEATH])
    def test_empty_population(self, representation):
        cfg = SimConfig(n=2, seed=3, t_max=1.0, initial_reactant_mass=0.0,
                        representation=representation)
        _, (mass, forest) = simulate_joint(cfg)
        assert mass.times.tolist() == [0.0] and mass.values.tolist() == [0.0]
        assert len(forest) == 0 and forest.roots.tolist() == []

    def test_zero_medium_never_branches(self):
        catalyst = MassPath(np.array([0.0]), np.array([0.0]))
        cfg = SimConfig(n=2, seed=5, t_max=5.0)
        mass, forest = simulate_reactant_quenched(cfg, catalyst)
        assert len(forest) == len(forest.roots)
        assert np.all(mass.values == mass.values[0])

    def test_reactant_frozen_after_medium_dies(self):
        catalyst = MassPath(np.array([0.0, 1.5]), np.array([2.0, 0.0]))
        cfg = SimConfig(n=1, seed=21, t_max=10.0)
        mass, _ = simulate_reactant_quenched(cfg, catalyst)
        assert mass.times[-1] <= 1.5

    @pytest.mark.parametrize("representation", [GALTON_WATSON, BIRTH_DEATH])
    def test_population_cap(self, monkeypatch, representation):
        # a forest of exactly the budget passes, one node more does not
        cfg = SimConfig(n=64, seed=3, t_max=5.0, representation=representation)
        _, forest = simulate_catalyst(cfg)
        monkeypatch.setattr(particle, "MAX_NODES", len(forest))
        _, again = simulate_catalyst(cfg)
        assert np.array_equal(again.death, forest.death)
        monkeypatch.setattr(particle, "MAX_NODES", len(forest) - 1)
        with pytest.raises(PopulationCapError,
                           match=f"more than {len(forest) - 1} nodes"):
            simulate_catalyst(cfg)

    def test_root_count_above_the_cap_draws_nothing(self, monkeypatch):
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"drew from the generator ({name})")

        monkeypatch.setattr(particle, "_stream", lambda seed, which: NoDraws())
        monkeypatch.setattr(particle, "MAX_NODES", 7)
        cfg = SimConfig(n=4, seed=3, t_max=1.0, initial_catalyst_mass=2.0)
        with pytest.raises(PopulationCapError, match="more than 7 nodes"):
            simulate_catalyst(cfg)

    def test_medium_coverage_error(self):
        short = MassPath(np.array([0.0]), np.array([1.0]), horizon=1.0)
        cfg = SimConfig(n=1, seed=1, t_max=5.0)
        with pytest.raises(InputError):
            simulate_reactant_quenched(cfg, short)


def _step_medium() -> MassPath:
    """A random catalyst-like step path: it starts at 1, moves in steps of
    1/3 between 2/3 and 8/3, falls to 0.1 at 1.2 and dies out at 1.6."""
    rng = np.random.default_rng(20_240)
    times = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.2, 9)), [1.2, 1.6]))
    values = np.concatenate(([1.0], rng.integers(2, 9, 9) / 3, [0.1, 0.0]))
    return MassPath(times, values)


class TestLawEquivalence:
    """The generation-synchronous engine against the event-driven reference
    engine: two-sample KS at fixed seeds, on disjoint seed blocks because
    the two engines read the same streams differently."""

    ALPHA = 0.001

    def _compare(self, monkeypatch, draw, replicas):
        """`draw(seed)` returns a tuple of lists of statistics; each list is
        pooled over seeds and compared between the engines."""
        ours = [draw(seed) for seed in range(replicas)]
        monkeypatch.setattr(particle, "_simulate_population",
                            reference_engine.simulate_population)
        theirs = [draw(1_000_000 + seed) for seed in range(replicas)]
        for k in range(len(ours[0])):
            a = [x for row in ours for x in row[k]]
            b = [x for row in theirs for x in row[k]]
            assert two_sample_ks(a, b)[1] > self.ALPHA, k

    @pytest.mark.parametrize("representation", [GALTON_WATSON, BIRTH_DEATH])
    def test_catalyst_extinction_and_level_population(self, monkeypatch,
                                                      representation):
        horizon = 3.0

        def draw(seed):
            mass, forest = simulate_catalyst(SimConfig(
                n=3, t_max=horizon, seed=seed, representation=representation))
            return ([min(stopping_time(mass, 0.0), horizon)],
                    [len(forest.level_set(1.0))])
        self._compare(monkeypatch, draw, 2_000)

    @pytest.mark.parametrize("representation", [GALTON_WATSON, BIRTH_DEATH])
    def test_reactant_on_step_medium(self, monkeypatch, representation):
        medium = _step_medium()

        def draw(seed):
            _, forest = simulate_reactant_quenched(SimConfig(
                n=3, t_max=1.5, seed=seed, representation=representation),
                medium)
            return ([len(forest.level_set(1.0))],
                    point_process_at_level(forest, 1.0, 1.0 / 3).heights)
        self._compare(monkeypatch, draw, 2_000)

    @pytest.mark.parametrize("representation", [GALTON_WATSON, BIRTH_DEATH])
    def test_reactant_cut_below_horizon(self, monkeypatch, representation):
        medium = _step_medium()
        cut = stopping_time(medium, 0.2)
        assert cut == 1.2 < stopping_time(medium, 0.0)

        def draw(seed):
            _, forest = simulate_reactant_quenched(SimConfig(
                n=3, t_max=5.0, delta=0.2, seed=seed,
                representation=representation), medium)
            assert forest.height_cap == cut
            return [forest.total_edge_length()], [len(forest.level_set(0.6))]
        self._compare(monkeypatch, draw, 2_000)


class TestEngineExact:
    """Identities that every forest of the engine satisfies."""

    CASES = [(rep, kind) for rep in (GALTON_WATSON, BIRTH_DEATH)
             for kind in ("constant", "step", "unbounded")]

    @staticmethod
    def _run(representation, kind, seed):
        n = 3
        if kind == "step":  # capped at the medium's absorption, 1.6
            cfg = SimConfig(n=n, t_max=5.0, seed=seed,
                            representation=representation)
            return n, simulate_reactant_quenched(cfg, _step_medium())
        t_max = 1.5 if kind == "constant" else math.inf
        cfg = SimConfig(n=n, t_max=t_max, seed=seed,
                        representation=representation)
        return n, simulate_catalyst(cfg)

    @pytest.mark.parametrize("representation, kind", CASES)
    def test_forest_matches_mass_path(self, representation, kind):
        rng = np.random.default_rng(1)
        for seed in range(25):
            n, (mass, forest) = self._run(representation, kind, seed)
            forest.validate()
            cap = forest.height_cap
            final = round(mass.values[-1] * n)
            # one event per node, except for the survivors
            assert mass.times.size - 1 == len(forest) - final
            if cap is None:
                assert kind == "unbounded" and final == 0
                cap = mass.end_time
            else:
                # survivors are exactly the nodes closed at the cap
                assert max(forest.death) <= cap
                assert sum(d == cap for d in forest.death) == final
            for t in rng.uniform(0.0, cap, 30):
                if t > 0.0 and t not in mass.times:
                    assert len(forest.level_set(t)) == round(mass.value_at(t) * n)

    def test_children_consecutive_and_numbered_by_generation(self):
        _, forest = simulate_catalyst(SimConfig(n=4, t_max=1.0, seed=3))
        depth = [0] * len(forest)
        for v in range(len(forest)):
            p = forest.parent[v]
            if p != -1:
                depth[v] = depth[p] + 1
        assert depth == sorted(depth)
        for v in range(len(forest)):
            kids = forest.children_of(v)
            assert kids == [] or kids == [kids[0], kids[0] + 1]


class TestStatisticalSmoke:
    def test_criticality_small(self):
        vals = []
        for i in range(800):
            cfg = SimConfig(n=4, seed=40_000 + i, t_max=1.0)
            mass, _ = simulate_catalyst(cfg)
            vals.append(mass.value_at(1.0))
        arr = np.asarray(vals)
        se = arr.std(ddof=1) / math.sqrt(arr.size)
        assert abs(arr.mean() - 1.0) <= 4.0 * se

    def test_extinction_skewed_without_doubled_clock(self):
        # single-ancestor extinction by t=1 in a unit medium must sit near
        # 1/2 (the half-rate clock would give 1/3 instead)
        medium = MassPath.constant(1.0)
        dead = 0
        n_rep = 3_000
        for i in range(n_rep):
            cfg = SimConfig(n=1, seed=70_000 + i, t_max=1.0)
            mass, _ = simulate_reactant_quenched(cfg, medium)
            dead += stopping_time(mass, 0.0) <= 1.0
        assert abs(dead / n_rep - 0.5) < 0.035

    def test_catalyst_extinction_time_law(self):
        # single-ancestor absorption time has CDF t / (1 + t); the tail is
        # heavy, so compare conditioned on absorption within the horizon
        from catbranch.oracles import ks_test
        horizon = 8.0
        times = []
        for i in range(2_500):
            cfg = SimConfig(n=1, b1=1.0, t_max=horizon, seed=80_000 + i)
            mass, _ = simulate_catalyst(cfg)
            at = stopping_time(mass, 0.0)
            if at < horizon:
                times.append(at)
        cap = horizon / (1.0 + horizon)
        _, p = ks_test(times, lambda t: (t / (1.0 + t)) / cap)
        assert p > 0.005
        assert len(times) / 2_500 == pytest.approx(cap, abs=0.03)
