import functools
import hashlib
import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_contour
import reference_paths
import reference_race
from catbranch import harness
from catbranch.contour import tree_from_excursion
from catbranch.diffusion import (RACE_FLOAT_LANES, DiffusionPath, SDEConfig,
                                 _euler_step, _feller_path, _fold,
                                 _limit_contour_from_scale,
                                 _LimitContour,
                                 _race_floats,
                                 bridge_refined_depths, hitting_race,
                                 integrate_catalytic_feller,
                                 local_time_estimate,
                                 quadratic_variation, scale_function,
                                 simulate_limit_contour,
                                 simulate_random_evolution)
from catbranch.errors import InputError
from catbranch.particle import MassPath


def flat_medium(horizon=2.0, step=1e-3, value=1.0):
    n = int(round(horizon / step))
    return DiffusionPath(step, np.full(n + 1, float(value)))


class TestIntegrator:
    def test_paths_nonnegative_and_frozen(self):
        cfg = SDEConfig(seed=1, step=1e-3, horizon=3.0)
        X, Y = integrate_catalytic_feller(cfg)
        assert np.all(X.values >= 0.0)
        assert np.all(Y.values >= 0.0)
        if X.absorbed_index is not None:
            assert np.all(X.values[X.absorbed_index:] == 0.0)
            assert np.all(np.diff(Y.values[X.absorbed_index:]) == 0.0)

    def test_replay(self):
        cfg = SDEConfig(seed=5, step=1e-3, horizon=1.0)
        X1, _ = integrate_catalytic_feller(cfg)
        X2, _ = integrate_catalytic_feller(cfg)
        assert np.array_equal(X1.values, X2.values)

    def test_martingale_mean(self):
        # vectorized mean flatness is covered by the harness; here a coarse
        # sanity bound on a small ensemble
        vals = []
        for s in range(300):
            X, _ = integrate_catalytic_feller(
                SDEConfig(seed=1000 + s, step=2e-3, horizon=1.0))
            vals.append(X.values[-1])
        arr = np.asarray(vals)
        assert abs(arr.mean() - 1.0) <= 4 * arr.std(ddof=1) / math.sqrt(arr.size)

    def test_reactant_absorbs_first(self):
        # the reactant stays at 0 from its first zero, the catalyst moves on
        X, Y = integrate_catalytic_feller(SDEConfig(seed=3, step=1e-3,
                                                    horizon=4.0))
        ya = Y.absorbed_index
        assert X.absorbed_index is None and ya is not None
        assert np.all(Y.values[:ya] > 0.0) and np.all(Y.values[ya:] == 0.0)
        assert np.all(np.diff(X.values[ya:]) != 0.0)

    def test_catalyst_absorbs_first(self):
        # the catalyst stays at 0 from its first zero, the reactant freezes
        X, Y = integrate_catalytic_feller(SDEConfig(seed=0, step=1e-3,
                                                    horizon=4.0))
        xa = X.absorbed_index
        assert Y.absorbed_index is None and xa is not None
        assert np.all(X.values[:xa] > 0.0) and np.all(X.values[xa:] == 0.0)
        assert Y.values[xa] > 0.0 and np.all(Y.values[xa:] == Y.values[xa])

    def test_absorption_law(self):
        # P{absorbed by t} = exp(-2 x0 / t) for the unit-rate pair
        rng = np.random.default_rng(42)
        n, step = 8000, 1e-3
        x, w = np.ones(n), np.ones(n)
        dead_by_1 = None
        sq = math.sqrt(step)
        for k in range(int(2.0 / step)):
            x, _ = _euler_step(rng, x, w, None, sq)
            if k == int(1.0 / step) - 1:
                dead_by_1 = np.mean(x == 0.0)
        dead_by_2 = np.mean(x == 0.0)
        assert dead_by_1 == pytest.approx(math.exp(-2.0), abs=0.02)
        assert dead_by_2 == pytest.approx(math.exp(-1.0), abs=0.02)

    def test_hitting_race_shape(self):
        res = hitting_race(500, SDEConfig(seed=2, step=1e-3), max_epochs=12)
        assert 0.0 <= res["p_reactant_first"] <= 1.0
        assert res["unresolved_fraction"] <= 0.01

    @pytest.mark.parametrize("args", [
        {"n_replicas": 0}, {"n_replicas": -3},
        {"epoch_horizon": 0.0}, {"epoch_horizon": -1.0},
        {"epoch_horizon": math.nan}, {"epoch_horizon": math.inf},
        {"epoch_horizon": 4e-3},  # under half the step: no epoch steps
        {"max_epochs": 0}, {"max_epochs": -1}], ids=str)
    def test_hitting_race_rejects_bad_arguments(self, args):
        kwargs = dict({"n_replicas": 8, "epoch_horizon": 0.1, "max_epochs": 1},
                      **args)
        with pytest.raises(InputError):
            hitting_race(cfg=SDEConfig(seed=1, step=1e-2), **kwargs)

    def test_hitting_race_defaults_cover_1e6_time_units(self):
        # a unit catalyst survives 1e6 time units with chance about 2e-6,
        # which bounds the fraction the race leaves unresolved
        params = inspect.signature(hitting_race).parameters
        first, epochs = (params["epoch_horizon"].default,
                         params["max_epochs"].default)
        assert first * (2 ** epochs - 1) >= 1e6

    def test_hitting_race_smallest_arguments(self):
        res = hitting_race(8, SDEConfig(seed=1, step=1e-2), epoch_horizon=0.1,
                           max_epochs=1)
        assert res["reactant_first"] + res["catalyst_first"] == 8

    def test_path_csv_round_trip(self, tmp_path):
        X, _ = integrate_catalytic_feller(SDEConfig(seed=3, step=1e-2,
                                                    horizon=0.5))
        target = tmp_path / "x.csv"
        with open(target, "w") as fh:
            X.write(fh, seed=3)
        with open(target) as fh:
            back = DiffusionPath.read(fh)
        assert back.step == X.step
        assert np.array_equal(back.values, X.values)

    def test_path_read_rejects_malformed_lines(self):
        import io
        with pytest.raises(InputError, match="malformed diffusion path"):
            DiffusionPath.read(io.StringIO("# step=0.01 seed=3\n1.0\nx\n"))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_path_rejects_non_finite_values(self, value):
        with pytest.raises(InputError, match="path values must be finite"):
            DiffusionPath(0.01, [1.0, value, 0.5])

    def test_first_hit_time_rejects_a_nan_level(self):
        with pytest.raises(InputError, match="hitting level"):
            flat_medium().first_hit_time(math.nan)

    @pytest.mark.parametrize("field,value", [
        ("b1", 0.0), ("b2", -1.0), ("step", 0.0), ("horizon", -1.0),
        ("b1", math.nan), ("step", math.inf), ("horizon", math.inf),
        ("x0", -0.5), ("y0", math.nan), ("x0", math.inf)])
    def test_config_rejects_bad_values(self, field, value):
        with pytest.raises(InputError):
            SDEConfig(**{field: value})


class TestScaleFunction:
    def test_constant_medium_linear(self):
        X = flat_medium(value=3.0)
        sf = scale_function(X, 0.5)
        assert sf(1.0) == pytest.approx(3.0)
        assert sf(0.0) == 0.0
        assert sf.inverse(sf(0.7)) == pytest.approx(0.7, abs=1e-9)

    def test_stops_at_threshold(self):
        vals = np.concatenate([np.linspace(1.0, 0.1, 100),
                               np.full(50, 0.05)])
        X = DiffusionPath(0.01, vals)
        sf = scale_function(X, 0.2)
        assert sf.x_top <= 0.95

    def test_rejects_degenerate(self):
        X = flat_medium(value=0.1)
        with pytest.raises(InputError):
            scale_function(X, 0.5)

    @pytest.mark.parametrize("delta", [-0.1, math.nan])
    def test_rejects_bad_threshold(self, delta):
        with pytest.raises(InputError, match="threshold must be >= 0"):
            scale_function(flat_medium(), delta)

    def test_rejects_a_medium_without_samples(self):
        with pytest.raises(InputError, match="no samples"):
            scale_function(DiffusionPath(0.01, []), 0.5)


# values of the path kernel tests: a path that never falls to 0.5, falls to
# it first at index 0, in the middle or on the last sample, and no samples
_HIT_CASES = {
    "never": [1.0, 2.0, 0.75, 3.0],
    "first": [0.5, 2.0, 0.1, 3.0],
    "middle": [1.0, 0.7, 0.2, 0.9, 0.5, 0.4],
    "last": [1.0, 2.0, 0.75, 0.25],
    "empty": [],
}


class TestPathKernelReference:
    """The trimmed path kernels against their earlier forms: the `np.mod`
    fold (`tests/reference_contour.py`), and the two-test Feller loop and
    the `flatnonzero` first hits (`tests/reference_paths.py`)."""

    @staticmethod
    def same_fold(path, top):
        got, ref = path.copy(), path.copy()
        _fold(got, top)
        reference_contour.fold(ref, top)
        assert got.view(np.int64).tobytes() == ref.view(np.int64).tobytes()

    @pytest.mark.parametrize("top", [1e-9, 3e-7, 1e-3, 0.37, 1.0, 12.5, 3e5])
    def test_fold_equals_the_mod_fold(self, top):
        rng = np.random.default_rng(17)
        period = 2.0 * top
        walks = [c * np.cumsum(rng.standard_normal(5000)) * top
                 for c in (1.0, -1.0, 0.01, 30.0)]
        multiples = np.arange(-40, 41) * period
        zeros = np.array([0.0, -0.0, 1e-300, -1e-300])
        wide = np.concatenate((rng.uniform(-1e8, 1e8, 2000),
                               np.logspace(-12, 8, 500),
                               -np.logspace(-12, 8, 500), [1e8, -1e8]))
        path = np.concatenate(walks + [multiples, zeros, wide])
        assert np.any(path < 0.0) and np.any(path > 0.0)
        self.same_fold(path, top)

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(-1e8, 1e8), min_size=1, max_size=50),
           top=st.floats(1e-9, 3e5))
    def test_fold_equals_the_mod_fold_on_any_floats(self, values, top):
        self.same_fold(np.array(values), top)

    @staticmethod
    def same_feller(seed, n_steps, step, x0, b, floor, clock=None):
        got = _feller_path(np.random.default_rng(seed), n_steps, step, x0, b,
                           floor=floor, clock=clock)
        ref = reference_paths.feller_path(np.random.default_rng(seed), n_steps,
                                          step, x0, b, floor=floor, clock=clock)
        assert got.tobytes() == ref.tobytes()
        return got

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_steps=st.integers(0, 9000),
           step=st.sampled_from([2e-4, 1e-3, 0.05]), x0=st.floats(0.0, 3.0),
           b=st.floats(0.1, 4.0))
    def test_feller_path_with_a_floor(self, seed, n_steps, step, x0, b):
        # `qv_dichotomy`'s catalyst: frozen from its first value <= 0.02
        self.same_feller(seed, n_steps, step, x0, b, 0.02)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_steps=st.integers(1, 9000),
           step=st.sampled_from([1e-3, 0.01, 0.05]), x0=st.floats(0.01, 3.0),
           y0=st.floats(0.0, 3.0), b2=st.floats(0.1, 4.0))
    def test_feller_path_on_an_absorbing_clock(self, seed, n_steps, step, x0,
                                               y0, b2):
        # `integrate_catalytic_feller`'s reactant, on its catalyst's clock
        clock = reference_paths.feller_path(np.random.default_rng(seed + 1),
                                            n_steps, step, x0, 1.0)
        self.same_feller(seed, n_steps, step, y0, b2, 0.0, clock=clock)

    @pytest.mark.parametrize("floor", [0.0, 0.02])
    def test_feller_path_clipped_below_zero(self, floor):
        x = self.same_feller(3, 5000, 0.05, 0.05, 1.0, floor)
        k = int(np.flatnonzero(x == 0.0)[0])
        assert x[k - 1] > floor and np.all(x[k:] == 0.0)

    def test_feller_path_to_n_steps(self):
        x = self.same_feller(3, 9000, 1e-4, 3.0, 1.0, 0.02)
        assert np.all(x > 0.02) and np.all(np.diff(x[-10:]) != 0.0)

    @pytest.mark.parametrize("case", _HIT_CASES)
    def test_first_hit_time_equals_the_flatnonzero_form(self, case):
        path = DiffusionPath(0.25, _HIT_CASES[case])
        for level in (0.5, -1.0, math.inf, -math.inf):
            got = path.first_hit_time(level)
            assert got == reference_paths.first_hit_time(path.values, 0.25,
                                                         level)
        assert (path.first_hit_time(0.5) == math.inf) == (case in ("never",
                                                                   "empty"))

    @pytest.mark.parametrize("case", ["never", "middle", "last"])
    def test_scale_function_equals_the_flatnonzero_form(self, case):
        path = DiffusionPath(0.25, _HIT_CASES[case])
        sf = scale_function(path, 0.5)
        ref = reference_paths.scale_function(path.values, 0.25, 0.5)
        for got, want in zip((sf.x, sf.s, sf.m), ref):
            assert got.tobytes() == want.tobytes()


class TestLimitContour:
    def test_stays_in_range(self):
        X = flat_medium()
        z = simulate_limit_contour(X, 0.5, 0.5, seed=3, theta_step=1e-4)
        assert z.values.min() >= 0.0
        assert z.values.max() <= 2.0 + 1e-9
        assert z.brownian is not None and z.scale is not None

    def test_rejects_zero_threshold(self):
        X = flat_medium()
        with pytest.raises(InputError):
            simulate_limit_contour(X, 0.0, 1.0, seed=1)

    @pytest.mark.parametrize("delta", [-0.5, math.nan])
    def test_rejects_negative_or_nan_threshold(self, delta):
        with pytest.raises(InputError, match="positive threshold"):
            simulate_limit_contour(flat_medium(), delta, 1.0, seed=1)

    @pytest.mark.parametrize("args", [
        {"local_time_budget": math.nan}, {"local_time_budget": math.inf},
        {"local_time_budget": -1.0}, {"local_time_budget": 0.0},
        {"theta_step": 0.0}, {"theta_step": -1e-4}, {"theta_step": math.nan},
        {"theta_step": math.inf}], ids=str)
    def test_rejects_bad_arguments_before_stepping(self, args):
        # a NaN budget used to run to the step cap before it raised
        kwargs = dict({"local_time_budget": 0.01, "theta_step": 1e-4}, **args)
        with pytest.raises(InputError, match="must be finite and > 0"):
            simulate_limit_contour(flat_medium(horizon=0.5), 0.5, seed=1,
                                   max_steps=1_000, **kwargs)

    def test_unreachable_budget_raises_before_stepping(self):
        # 2e311 band steps: the count is infinite in floats
        with pytest.raises(InputError, match="step cap reached"):
            _limit_contour_from_scale(scale_function(flat_medium(), 0.5),
                                      1e308, theta_step=1e-4)

    def test_smallest_budget(self):
        z = simulate_limit_contour(harness._x_identity_path(horizon=0.5), 0.5,
                                   0.01, seed=1, theta_step=1e-4)
        assert z.values.size > 1

    def test_time_change_is_computed_once_on_first_access(self):
        X, _ = integrate_catalytic_feller(SDEConfig(seed=5, step=1e-3,
                                                    horizon=3.0))
        sf = scale_function(X, 0.2)
        assert np.ptp(sf.m) > 0.5  # a medium far from constant
        z = _limit_contour_from_scale(sf, 0.5, seed=3, theta_step=1e-4)
        assert "time_change" not in vars(z)
        med = np.maximum(sf.medium_at(z.values), 1e-12)
        eager = np.concatenate([[0.0], np.cumsum(1e-4 / med[:-1])])
        assert z.time_change.tobytes() == eager.tobytes()
        assert z.time_change is z.time_change

    def test_values_are_mapped_once_on_first_read(self):
        X, _ = integrate_catalytic_feller(SDEConfig(seed=5, step=1e-3,
                                                    horizon=3.0))
        sf = scale_function(X, 0.2)
        z = _limit_contour_from_scale(sf, 0.5, seed=3, theta_step=1e-4)
        assert "values" not in vars(z)
        local_time_estimate(z, 0.5, 0.02)
        assert "values" not in vars(z)
        assert z.values.tobytes() == sf.inverse(2.0 * z.brownian).tobytes()
        assert z.values is z.values

    def test_level_mass_near_budget(self):
        X = flat_medium()
        ms = []
        for s in range(40):
            z = simulate_limit_contour(X, 0.5, 1.0, seed=100 + s,
                                       theta_step=4e-5)
            ms.append(local_time_estimate(z, 1.0, 0.02) / 2.0)
        assert np.mean(ms) == pytest.approx(1.0, abs=0.25)

    def test_local_time_scaling_identity(self):
        # the estimate on the contour equals the estimate on its Brownian
        # image divided by the scale slope, at matched bands
        X = flat_medium(value=2.0)
        z = simulate_limit_contour(X, 0.5, 0.5, seed=9, theta_step=4e-5)
        t = 0.8
        slope = 2.0  # medium value at the level
        eps = 0.02
        lz = local_time_estimate(z.values, t, eps)
        lb = local_time_estimate(2.0 * z.brownian, float(z.scale(t)),
                                 slope * eps)
        assert lz == pytest.approx(lb / slope, rel=1e-9)


@functools.cache
def _contour_media():
    """The unit medium (x_top 2) and a Feller path (x_top about 1), whose
    scale functions the contour tests step."""
    X, _ = integrate_catalytic_feller(SDEConfig(seed=5, step=1e-3,
                                                horizon=3.0))
    return (scale_function(harness._x_identity_path(horizon=2.0), 0.5),
            scale_function(X, 0.2))


def _band_and_occupation(theta_step):
    band = 20.0 * math.sqrt(theta_step)
    return band, theta_step / band


class TestContourReference:
    """`_limit_contour_from_scale` against the loop that summed the
    occupation in floats per 65536-step chunk
    (`tests/reference_contour.py`)."""

    @settings(max_examples=40, deadline=None)
    @given(medium=st.integers(0, 1), theta_step=st.sampled_from([1e-3, 1e-4]),
           budget=st.floats(0.01, 2.0), frac=st.floats(0.01, 0.99),
           seed=st.integers(0, 2**32 - 1))
    def test_same_driving_path_as_the_reference(self, medium, theta_step,
                                                budget, frac, seed):
        # the budget is moved to `frac` of the way between two counts of
        # band steps, away from the float ties on which the two loops differ
        per_step = _band_and_occupation(theta_step)[1]
        budget = (math.floor(budget / per_step) + frac) * per_step
        sf = _contour_media()[medium]
        z = _limit_contour_from_scale(sf, budget, seed, theta_step)
        ref = reference_contour.driving_path(sf, budget, seed, theta_step)
        assert z.brownian.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("medium,theta_step,budget,seed", [
        # the ties: the reference's chunk sum rounds short of the budget at
        # 2000 (200) band steps, and it stops on the 2001st (201st)
        (1, 1e-4, 1.0, 2), (1, 1e-4, 0.1, 7),
        (0, 1e-4, 0.05, 0), (0, 1e-3, 1.0, 1), (1, 1e-3, 2.0, 3),
        (0, 1e-5, 0.3, 4), (1, 1e-4, 0.5, 5)])
    def test_stops_on_the_band_step_that_reaches_the_budget(
            self, medium, theta_step, budget, seed):
        band, per_step = _band_and_occupation(theta_step)
        need = 1
        while need * per_step < budget:
            need += 1
        z = _limit_contour_from_scale(_contour_media()[medium], budget, seed,
                                      theta_step)
        assert z.brownian[-1] < band
        assert np.count_nonzero(z.brownian[1:] < band) == need


class TestRaceReference:
    """`hitting_race` against the race that ran every step as a batch step
    (`tests/reference_race.py`): the same dict, before, across and after
    the switch to Python floats."""

    @staticmethod
    def check(n, cfg, epoch_horizon, max_epochs):
        got = hitting_race(n, cfg, epoch_horizon, max_epochs)
        assert got == reference_race.hitting_race(n, cfg, epoch_horizon,
                                                  max_epochs)
        return got

    def test_crosses_the_switch_from_above(self):
        n = 300
        res = self.check(n, SDEConfig(seed=3, step=1e-2), 0.5, 8)
        assert n * (1.0 - res["unresolved_fraction"]) > n - RACE_FLOAT_LANES

    @pytest.mark.parametrize("n", [1, 2, RACE_FLOAT_LANES])
    def test_starts_below_the_switch(self, n):
        res = self.check(n, SDEConfig(seed=11, step=1e-2), 0.5, 8)
        assert res["unresolved_fraction"] < 1.0

    def test_stops_at_the_epoch_cap_with_float_survivors(self):
        res = self.check(RACE_FLOAT_LANES + 40, SDEConfig(seed=5, step=1e-2),
                         0.5, 3)
        assert 0.0 < res["unresolved_fraction"] * (RACE_FLOAT_LANES + 40) \
            <= RACE_FLOAT_LANES

    def test_tie_coin_in_the_float_tail(self):
        # small starts and a coarse step: at this seed one replica's two
        # components hit in the same float step
        self.check(20, SDEConfig(seed=10, step=0.05, x0=0.05, y0=0.05), 2.0, 3)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           b1=st.floats(0.25, 4.0), b2=st.floats(0.25, 4.0),
           step=st.floats(1e-4, 1e-2))
    def test_float_steps_are_batch_steps_bit_for_bit(self, m, seed, b1, b2,
                                                     step):
        z = np.random.default_rng(seed).uniform(0.5, 2.0, 2 * m)
        xs, ys = z[:m].tolist(), z[m:].tolist()
        w = np.full(2 * m, b1)
        batch_rng = np.random.default_rng(seed + 1)
        float_rng = np.random.default_rng(seed + 1)
        sqdt = math.sqrt(step)
        for _ in range(20):
            z, hit = _euler_step(batch_rng, z, w, b2, sqdt)
            _race_floats(float_rng, xs, ys, b1, b2, sqdt, 1, [0, 0])
            if hit:
                break
            assert xs + ys == z.tolist()

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
           step=st.sampled_from([1e-2, 2e-2, 5e-2]),
           x0=st.floats(0.0, 2.0), y0=st.floats(0.0, 2.0),
           b1=st.floats(0.25, 4.0), b2=st.floats(0.25, 4.0),
           epoch_horizon=st.floats(0.05, 2.0), max_epochs=st.integers(1, 8))
    def test_same_dict_as_the_batch_race(self, n, seed, step, x0, y0, b1, b2,
                                         epoch_horizon, max_epochs):
        self.check(n, SDEConfig(x0=x0, y0=y0, b1=b1, b2=b2, step=step,
                                seed=seed), epoch_horizon, max_epochs)


class TestLocalTimeAndQV:
    def test_outside_band_zero(self):
        vals = np.linspace(0.0, 1.0, 50)
        assert local_time_estimate(vals, 5.0, 0.1) == 0.0

    @pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -0.1])
    def test_rejects_bad_band(self, eps):
        vals = np.linspace(0.0, 1.0, 50)
        with pytest.raises(InputError, match="band half-width"):
            local_time_estimate(vals, 0.5, eps)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_level(self, t):
        with pytest.raises(InputError, match="level must be finite"):
            local_time_estimate(np.linspace(0.0, 1.0, 101), t, 0.1)
        z = simulate_limit_contour(flat_medium(), 0.5, 0.05, seed=1,
                                   theta_step=1e-4)
        with pytest.raises(InputError, match="level must be finite"):
            local_time_estimate(z, t, 0.1)

    def test_contour_estimate_equals_the_eager_one(self):
        # the contour maps only the steps near the band; the estimate must
        # be the float of mapping the whole path, on 200 contours in two
        # media (the unit one, x_top 2, and a Feller path, x_top about 1),
        # with bands at 0 and x_top, bands no contour enters and bands
        # narrower than the medium's grid step 1e-3
        X, _ = integrate_catalytic_feller(SDEConfig(seed=5, step=1e-3,
                                                    horizon=3.0))
        media = (scale_function(harness._x_identity_path(horizon=2.0), 0.5),
                 scale_function(X, 0.2))
        entered = 0
        for sf in media:
            top = sf.x_top
            bands = [(1.0, 0.02), (0.5, 0.02), (0.0, 0.05), (0.01, 0.02),
                     (top, 0.05), (top - 0.003, 0.01), (0.3, 2e-4),
                     (0.7005, 1e-4), (top + 1.0, 0.5), (-3.0, 0.5),
                     (0.4, 10.0)]
            for seed in range(100):
                z = _limit_contour_from_scale(sf, [0.05, 0.5][seed % 2],
                                              seed=seed, theta_step=1e-4)
                zeta = sf.inverse(2.0 * z.brownian)
                for t, eps in bands:
                    got = local_time_estimate(z, t, eps)
                    assert got == local_time_estimate(zeta, t, eps), (seed, t, eps)
                    entered += got > 0.0
                assert "values" not in vars(z)
        assert entered > 500  # 884 of the 2200 estimates are not 0

    def test_contour_estimate_at_the_rounding_edges(self):
        # a path that starts a step at every scale knot, at s(t - eps) and
        # s(t + eps) of every band, and at 1-3 ulps either side of each: the
        # starts where a window read off s(t -+ eps) alone drops steps
        X, _ = integrate_catalytic_feller(SDEConfig(seed=5, step=1e-3,
                                                    horizon=3.0))
        for sf in (scale_function(harness._x_identity_path(horizon=2.0), 0.5),
                   scale_function(X, 0.2)):
            bands = [(t, eps) for t in np.linspace(0.0, sf.x_top, 23)
                     for eps in (1e-4, 7e-4, 0.02, 0.1)]
            bands += [(sf.x[j] + e, e) for j in (3, 200, 700)
                      for e in (0.25, 0.0625, 0.001)]
            edges = np.concatenate([sf.s] + [sf([t - e, t + e]) for t, e in bands])
            w = [edges]
            for direction in (-np.inf, np.inf):
                near = edges
                for _ in range(3):
                    near = np.nextafter(near, direction)
                    w.append(near)
            w = np.repeat(np.clip(np.concatenate(w), 0.0, sf.top), 2)
            w[1::2] = w[0::2][::-1]
            beta = w / 2.0
            z = _LimitContour(1e-4, beta, sf)
            for t, eps in bands:
                assert local_time_estimate(z, t, eps) == \
                    local_time_estimate(z.values, t, eps), (t, eps)

    def test_halving_consistency(self):
        rng = np.random.default_rng(11)
        vals = np.abs(np.cumsum(rng.standard_normal(400_000) * 1e-3))
        a = local_time_estimate(vals, 0.2, 0.02)
        b = local_time_estimate(vals, 0.2, 0.01)
        assert a == pytest.approx(b, rel=0.15)

    def test_qv_piecewise_linear_vanishes(self):
        u = np.linspace(0, 1, 11)
        coarse = quadratic_variation(np.abs(u - 0.5))
        fine = quadratic_variation(np.abs(np.linspace(0, 1, 10_001) - 0.5))
        assert fine < 0.02 * coarse

    def test_qv_brownian(self):
        rng = np.random.default_rng(12)
        sigma = 1.7
        vals = np.cumsum(rng.standard_normal(200_000) * sigma * math.sqrt(1e-5))
        assert quadratic_variation(vals) == pytest.approx(sigma ** 2 * 2.0,
                                                          rel=0.05)

    def test_qv_tracks_inverse_medium_clock(self):
        # realized quadratic sums of the contour accumulate (4 / X) per unit
        # natural time under the d<B> = 4 X convention; X constant makes the
        # identity sharp
        X = flat_medium(value=2.0)
        z = simulate_limit_contour(X, 0.5, 1.0, seed=21, theta_step=1e-5)
        qv = quadratic_variation(z.values)
        u_total = float(z.time_change[-1])
        assert qv == pytest.approx(4.0 * u_total / 2.0, rel=0.05)


class TestBridgeCensus:
    def test_counts_match_excursion_rates(self):
        # reflected Brownian path on [0,1]: interior depth bins carry
        # ell * (1/(2 a1) - 1/(2 a2)) excursions per path (deep tails are
        # horizon-censored because long excursions straddle the endpoints,
        # so the check targets interior bins, pooled over paths)
        step_var = 1e-5
        n = int(4.0 / step_var)
        rng = np.random.default_rng(31)
        census_rng = np.random.default_rng(7)
        ell_sum = 0.0
        bins = [(0.05, 0.15), (0.15, 0.3)]
        counts = [0, 0]
        for _ in range(20):
            W = np.cumsum(rng.standard_normal(n) * math.sqrt(step_var))
            vals = 1.0 - np.abs(1.0 - np.mod(np.abs(W), 2.0))
            ell_sum += local_time_estimate(vals, 0.5, 0.01)
            depths = bridge_refined_depths(vals, 0.5, step_var, census_rng)
            for k, (a1, a2) in enumerate(bins):
                counts[k] += int(np.sum((depths > a1) & (depths <= a2)))
        for k, (a1, a2) in enumerate(bins):
            expected = ell_sum * (1.0 / (2 * a1) - 1.0 / (2 * a2))
            assert counts[k] == pytest.approx(expected, rel=0.12)


def bridge_depths_loop(beta, level, step_var, rng):
    """`bridge_refined_depths` as it was written before its segments were
    read with one `minimum.reduceat`: a Python loop over the runs below the
    level and the cut steps of each.  The reference of the exactness test."""
    below = beta < level
    if not below.any() or below.all():
        return np.empty(0)
    a = beta[:-1]
    b = beta[1:]
    step_below = below[:-1] & below[1:]
    p_split = np.zeros(a.size)
    p_split[step_below] = np.exp(
        -2.0 * (level - a[step_below]) * (level - b[step_below]) / step_var)
    splits = rng.random(a.size) < p_split
    mins = np.minimum(a, b)
    u = rng.random(a.size)
    sb = step_below
    aa, bb = a[sb], b[sb]
    mins[sb] = 0.5 * (aa + bb -
                      np.sqrt((aa - bb) ** 2 - 2.0 * step_var * np.log(u[sb])))
    idx = np.flatnonzero(below)
    starts = idx[np.r_[True, np.diff(idx) > 1]]
    ends = idx[np.r_[np.diff(idx) > 1, True]]
    if starts.size and starts[0] == 0:
        starts, ends = starts[1:], ends[1:]
    if starts.size and ends[-1] == len(beta) - 1:
        starts, ends = starts[:-1], ends[:-1]
    depths = []
    for s, e in zip(starts, ends):
        seg_start = s
        cut_steps = np.flatnonzero(splits[s:e]) + s if e > s else np.empty(0, int)
        for be in list(cut_steps) + [e]:
            if be > seg_start:
                m = float(mins[seg_start:be].min())
            else:
                m = float(beta[seg_start])
            depths.append(level - m)
            seg_start = be
    return np.asarray(depths)


# samples on a grid around the level 0.5, so that runs of every length,
# leading and trailing runs and samples at the level itself all occur
GRID_PATHS = st.lists(st.sampled_from([0.0, 0.2, 0.45, 0.5, 0.55, 0.8, 1.0]),
                      min_size=1, max_size=40)


@settings(max_examples=400, deadline=None)
@given(values=GRID_PATHS,
       # a large step variance splits nearly every step below the level,
       # cuts on a run's first step included; a small one almost none
       step_var=st.sampled_from([1e-3, 0.05, 1.0, 1e3]),
       seed=st.integers(0, 2**32 - 1))
def test_bridge_depths_match_the_loop(values, step_var, seed):
    beta = np.array(values)
    got = bridge_refined_depths(beta, 0.5, step_var, np.random.default_rng(seed))
    want = bridge_depths_loop(beta, 0.5, step_var, np.random.default_rng(seed))
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("values, segments", [
    ([1.0, 0.2, 1.0], 1),                      # a one-sample run
    ([0.2, 0.0, 1.0, 0.1, 1.0, 0.0, 0.2], 1),  # leading and trailing runs dropped
    ([1.0, 0.2, 0.1, 0.0, 0.1, 1.0], 4),       # three steps, each cut
    ([1.0, 0.4, 1.0, 0.3, 0.2, 1.0, 0.1, 0.1, 0.2, 0.3, 1.0], 1 + 2 + 4),
])
def test_bridge_depths_cut_cases(values, segments):
    # at a step variance of 1e6 every step below the level splits (with
    # chance 1 - 5e-7), so a run of j steps is j + 1 segments, the first
    # empty: a cut on the run's first step
    beta = np.array(values)
    for seed in range(20):
        got = bridge_refined_depths(beta, 0.5, 1e6, np.random.default_rng(seed))
        want = bridge_depths_loop(beta, 0.5, 1e6, np.random.default_rng(seed))
        assert np.array_equal(got, want) and got.size == segments


class TestLaplaceDictionary:
    def test_frozen_medium_laplace_transform(self):
        # E[exp(-lam Y_t)] for dY = sqrt(Y) dW matches the closed form with
        # rate path 1/2 (the b <-> 2b clock dictionary)
        from catbranch.oracles import laplace_branching
        rng = np.random.default_rng(77)
        n_rep, step, t = 20_000, 1e-3, 1.0
        y = np.ones(n_rep)
        sq = math.sqrt(step)
        for _ in range(int(t / step)):
            y = np.maximum(y + np.sqrt(y) * sq * rng.standard_normal(n_rep), 0.0)
        for lam in (0.5, 1.0, 2.0):
            mc = float(np.mean(np.exp(-lam * y)))
            se = float(np.std(np.exp(-lam * y)) / math.sqrt(n_rep))
            target = laplace_branching(1.0, lam, 0.5, t)
            assert abs(mc - target) <= 4.0 * se + 5e-3


class TestLimitContourTreeCount:
    def test_mean_matches_poisson_rate(self):
        # flat unit medium, unit budget: expected distinct trees at level 1
        # is budget / s(1) = 1
        from catbranch.diffusion import bridge_refined_depths
        X = flat_medium()
        counts = []
        rng = np.random.default_rng(8)
        for s in range(120):
            z = simulate_limit_contour(X, 0.5, 1.0, seed=40_000 + s,
                                       theta_step=4e-5)
            sf = z.scale
            w_t = float(sf(1.0)) / 2.0
            depths = bridge_refined_depths(z.brownian, w_t, 4e-5, rng)
            marks = int(np.sum(depths > w_t - 3.0 * math.sqrt(4e-5)))
            reached = bool((z.brownian >= w_t).any())
            counts.append(marks + (1 if reached else 0))
        mean = float(np.mean(counts))
        se = float(np.std(counts) / math.sqrt(len(counts)))
        assert abs(mean - 1.0) <= 3.0 * se + 0.05


class TestRandomEvolution:
    def test_zero_medium_goes_straight(self):
        medium = MassPath(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
        with pytest.raises(InputError):
            # medium starts at the threshold: nothing to traverse
            simulate_random_evolution(medium, 1, 0.0, seed=1)

    @pytest.mark.parametrize("values, message", [
        ([1.0, 0.5], "never reaches the threshold"),
        ([0.1, 0.0], "starts at or below the threshold")])
    def test_threshold_entrance_errors(self, values, message):
        medium = MassPath(np.array([0.0, 1.0]), np.array(values))
        with pytest.raises(InputError, match=message):
            simulate_random_evolution(medium, 1, 0.2, seed=1)

    @pytest.mark.parametrize("n, b2, message", [
        (0, 1.0, "rescaling index"), (1.5, 1.0, "rescaling index"),
        (1, math.nan, "b2"), (1, 0.0, "b2"), (1, -1.0, "b2")],
        ids=["n-zero", "n-fraction", "b2-nan", "b2-zero", "b2-negative"])
    def test_rejects_bad_index_and_rate(self, n, b2, message):
        # n = 0 used to divide by zero, and a NaN or non-positive b2 gave
        # a contour without flips
        medium = MassPath(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        with pytest.raises(InputError, match=message):
            simulate_random_evolution(medium, n, 0.0, seed=1, b2=b2)

    def test_flip_free_climb_with_tiny_rate(self):
        medium = MassPath(np.array([0.0, 4.0]), np.array([1e-9, 0.0]))
        exc = simulate_random_evolution(medium, 1, 0.0, seed=2,
                                        n_excursions=1)
        # up to the top, reflect, straight back down
        assert exc.e == [0.0, 4.0, 0.0]

    def test_flip_counts_poisson(self):
        # constant medium c: direction flips at rate 2 n^2 c per unit of
        # traversal time (the package clock convention)
        c, n = 1.5, 2
        medium = MassPath(np.array([0.0, 50.0]), np.array([c, 0.0]))
        exc = simulate_random_evolution(medium, n, 0.0, seed=3,
                                        n_excursions=400)
        duration = exc.duration
        interior = np.asarray(exc.e[1:-1])
        left = np.asarray(exc.e[:-2])
        # count actual flips (strict turning points away from boundaries)
        flips = sum(1 for k in range(1, len(exc.e) - 1)
                    if 0.0 < exc.e[k] < 50.0)
        rate = 2.0 * n * n * c
        expected = rate * duration
        assert flips == pytest.approx(expected, rel=0.1)

    def test_excursions_close_at_zero(self):
        medium = MassPath(np.array([0.0, 3.0]), np.array([2.0, 0.0]))
        exc = simulate_random_evolution(medium, 1, 0.0, seed=4,
                                        n_excursions=25)
        zeros = [h for h in exc.e if h == 0.0]
        assert len(zeros) == 26  # start + one per completed excursion
        assert max(exc.e) <= 3.0

    def test_decoded_trees_match_the_segment_reading(self):
        # `random_evolution` reads each tree's height and leaves from the
        # decoded contour; the reference reads each zero-to-zero segment's
        # maximum and strict interior peaks, the top's reflections included
        medium = harness.saved_catalyst(4)
        exc = simulate_random_evolution(medium, 1, 0.2, seed=5,
                                        n_excursions=300)
        hs = np.asarray(exc.e)
        zeros = np.flatnonzero(hs == 0.0)
        want_h, want_l = [], []
        for a, b in zip(zeros[:-1], zeros[1:]):
            seg = hs[a:b + 1]
            want_h.append(float(seg.max()))
            inner = seg[1:-1]
            want_l.append(int(np.sum((inner > seg[:-2]) & (inner > seg[2:]))))
        got_h, got_l = harness._heights_and_leaves(tree_from_excursion(exc))
        assert got_h.tolist() == want_h and got_l.tolist() == want_l


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestStreamPins:
    """sha256 digests of the diffusion kernels' outputs, recorded before
    `hitting_race` compacted survivors only on hit steps, the limit contour
    stepped in blocks of at most 16384 steps and counted its budget in band
    steps, and `qv_dichotomy` ran its catalyst loop on Python floats; the
    criticality and comparison digests were recorded
    before their Euler loops moved to the package's batch step, and the
    diffusion_gate digest before the race's last survivors stepped on Python
    floats and the time change became lazy.  Those changes keep every draw
    and every float."""

    RACES = {
        # survivors carried through five epochs
        (300, (("seed", 3), ("step", 1e-2)), 0.5, 6):
            "6dd99a49002d281e5bcea22e91f41828a6b446cff1159de52bcd1c8144cd5eb5",
        # half the replicas left unresolved at the epoch cap
        (300, (("seed", 3), ("step", 1e-2)), 0.5, 2):
            "bfa101adee171bec1bf3345d50253187f5875798a6ce75da5223fc70521d9a0f",
        # two replicas where both components hit in the same step (tie coin)
        (200, (("seed", 4), ("step", 0.05), ("x0", 0.2), ("y0", 0.2)), 2.0, 3):
            "082f1fc0c71f21c2df912ee9320855e6ac60f2fad19ca5f621f49904f7b830d9",
    }

    @pytest.mark.parametrize("key", list(RACES), ids=str)
    def test_hitting_race(self, key):
        n, cfg, epoch_horizon, max_epochs = key
        res = hitting_race(n, SDEConfig(**dict(cfg)),
                           epoch_horizon=epoch_horizon, max_epochs=max_epochs)
        assert _sha(json.dumps(res, sort_keys=True).encode()) == self.RACES[key]

    # (seed, budget): (samples, values, brownian, time_change) on a flat
    # medium at theta_step 1e-5 (re-folded every 65536 steps; blocks of
    # 2048, 2048, 4096, 8192 and then 16384 steps)
    CONTOURS = {
        # two whole chunks, stop at step 35677 of the third (its third block)
        (1, 1.0): (166750,
                   "81047909a46b1b45ddfe8c4af190aadf51e57e654389e5cfe9d68223c5ff9daf",
                   "1cba0f04c29d1ddb43156a0fe97622043517d9c4167f7a4ef7f9435aa701dad6",
                   "f24e28afaeea6b5b84f2843c4a12b34bee5041721a0510aa9f5099db407acdf1"),
        # two whole chunks, stop at step 14873 of the third (its first block)
        (2, 1.0): (145946,
                   "89b5ce9558cbc1f1d851f358dcd6a21da31a5fa4ea50d0be218f450fd02613e5",
                   "4478784f3c5e4e217ed290e6c901cb27971d8c7ae52ebd4c990f0ae819a0d20d",
                   "e7f590f8cc7ac09a0741e03cf7cc2d4b23ba34e7981e9e95bede12dd12ec9e7a"),
        # stop inside the first block
        (6, 0.05): (318,
                    "b83ac66d3ba113d90741e18a0045ea22bfed03659b36b0114e2e3b63e9fa196b",
                    "5b511dc67303770cc95c7aecc88b22b15a44e89baa19a6792298f6554cfe0be7",
                    "04c64193773b55db8f744c0948fea6a016e13bc547a77ef8d2bd76a7c7ca3943"),
    }

    @pytest.mark.parametrize("key", list(CONTOURS), ids=str)
    def test_limit_contour(self, key):
        seed, budget = key
        sf = scale_function(flat_medium(), 0.5)
        z = _limit_contour_from_scale(sf, budget, seed, 1e-5, 50_000_000)
        got = (len(z.values), _sha(z.values.tobytes()),
               _sha(z.brownian.tobytes()), _sha(z.time_change.tobytes()))
        assert got == self.CONTOURS[key]

    # the benchmark's diffusion_gate suites at its "full" sizes and the
    # suites' default seeds (pass 0 of a benchmark run at seed 0), one
    # digest per suite; the hitting_prob digest was recorded after the
    # race's first epoch became 0.25 time units instead of 1 (earlier 8)
    # and its epoch cap 22 instead of 20, a change of its stream that
    # leaves the other suites' digests as they were
    GATE_SUITES = {
        "hitting_prob": ({"replicas": 1_000, "step": 1e-3},
                         "b88ab7d6758b9df92dc14a8f5fbb69bf4250a9b598118e15d9bc8ce9fb6ae96b"),
        "limit_intensity": ({"replicas": 60, "theta_step": 1e-4},
                            "b93515de99f6bc21247e0cb1ab3b65ad3c6ce293829170215cde0895fe670532"),
        "qv_dichotomy": ({"replicas": 30, "theta_step": 1e-3},
                         "abf85ab1da31dee76d4f6cecfbdefb13fcd5a10b36a7d9376c0f97afbaf04cec"),
    }

    @pytest.mark.parametrize("suite", list(GATE_SUITES))
    def test_diffusion_gate_reports(self, suite):
        size, digest = self.GATE_SUITES[suite]
        reports, _ = harness.run_suites([suite], {suite: size}, echo=False)
        assert _sha(harness.reports_to_json(reports).encode()) == digest

    # the benchmark's forest_gate suites, likewise; recorded before the
    # particle engine drew its generations in hazard units and mapped them
    # to time once per call, and before tree_count read its counts from the
    # level's trees instead of the zero marks, changes that keep every draw
    FOREST_GATE_SUITES = {
        "tree_count": ({"replicas": 10},
                       "7b982b55231c7c3d4d64afc236310d902cacea4efb6fea37cbc7e99d6b98bbe4"),
        "stretching": ({"replicas": 2},
                       "98c27a91c321c5661f4a3aaf54e21241e20f8da5a75ac33e32a8158889024380"),
        "comparison": ({"replicas": 4},
                       "b5134f9a4cc4f8de9e5ee3974d05adbb82b765b97863c24f964ec8e319495886"),
        "reactant_intensity": ({"replicas": 12, "document_replicas": 0},
                               "203ffc8b941582a192436981cb40d4f72000081ad6c28acf33d2ae061a7da5b7"),
        "codec": ({"count": 150},
                  "b6c4b2ee31a21eebad848bfb70c6070943b182ed09a1c4725b18a88df0a07fdd"),
        "points": ({"count": 150},
                   "804609de6c16aaea9902a1c31aaa3f05e6a4673478ffd3c4bab5b8e93dd47beb"),
    }

    @pytest.mark.parametrize("suite", list(FOREST_GATE_SUITES))
    def test_forest_gate_reports(self, suite):
        size, digest = self.FOREST_GATE_SUITES[suite]
        reports, _ = harness.run_suites([suite], {suite: size}, echo=False)
        assert _sha(harness.reports_to_json(reports).encode()) == digest

    def test_qv_dichotomy_report(self):
        # 17 of 20 catalysts absorbed, 13 of them with a top-hitting contour
        reports = harness.run_qv_dichotomy(replicas=20, theta_step=1e-3)
        assert _sha(harness.reports_to_json(reports).encode()) == (
            "a9d6be649884144175b7220b2f2c334cfb98e813a96cb74dbc15bcac969066fa")

    def test_criticality_sde_reports(self):
        # the X and Y martingale reports of the stacked pair
        reports = harness.run_criticality(replicas=20, sde_replicas=2000)
        assert [r.name for r in reports[2:]] == ["criticality[X]",
                                                 "criticality[Y]"]
        assert _sha(harness.reports_to_json(reports[2:]).encode()) == (
            "c4188fce0f5845c5f3b3bc09447e9aba3461e59348f4b23d85628615dae20709")

    def test_comparison_matching_constant(self):
        # the Euler estimate of z = t * E[1 / int_0^t X] from the b1 = 2
        # catalyst paths, which documents the closed-form z
        reports = harness.run_comparison(z_replicas=500, replicas=2)
        zs = [r.details["z_euler"] for r in reports]
        assert _sha(json.dumps(zs).encode()) == (
            "b2a5b4d0c2085fe8f9c4820c1f36f566b8ebdd0542ba20c2553ad51336037a98")
