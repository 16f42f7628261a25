import hashlib
import json
import math

import numpy as np
import pytest

from catbranch import harness
from catbranch.diffusion import (DiffusionPath, SDEConfig,
                                 _limit_contour_from_scale,
                                 bridge_refined_depths, hitting_race,
                                 integrate_catalytic_feller,
                                 local_time_estimate, quadratic_variation,
                                 scale_function, scale_function_from_mass_path,
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

    def test_absorption_law(self):
        # P{absorbed by t} = exp(-2 x0 / t) for the unit-rate pair
        rng = np.random.default_rng(42)
        n, step = 8000, 1e-3
        x = np.ones(n)
        dead_by_1 = None
        sq = math.sqrt(step)
        for k in range(int(2.0 / step)):
            x = np.maximum(x + np.sqrt(x) * sq * rng.standard_normal(n), 0.0)
            if k == int(1.0 / step) - 1:
                dead_by_1 = np.mean(x == 0.0)
        dead_by_2 = np.mean(x == 0.0)
        assert dead_by_1 == pytest.approx(math.exp(-2.0), abs=0.02)
        assert dead_by_2 == pytest.approx(math.exp(-1.0), abs=0.02)

    def test_hitting_race_shape(self):
        res = hitting_race(500, SDEConfig(seed=2, step=1e-3), max_epochs=12)
        assert 0.0 <= res["p_reactant_first"] <= 1.0
        assert res["unresolved_fraction"] <= 0.01

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

    def test_from_mass_path(self):
        medium = MassPath(np.array([0.0, 1.0, 2.0]),
                          np.array([2.0, 1.0, 0.0]))
        sf = scale_function_from_mass_path(medium, 0.0, grid=1e-3)
        assert sf(1.0) == pytest.approx(2.0, abs=1e-6)
        assert sf(2.0) == pytest.approx(3.0, abs=1e-6)


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


class TestLocalTimeAndQV:
    def test_outside_band_zero(self):
        vals = np.linspace(0.0, 1.0, 50)
        assert local_time_estimate(vals, 5.0, 0.1) == 0.0

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


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestStreamPins:
    """sha256 digests of the diffusion kernels' outputs, recorded before
    `hitting_race` compacted survivors only on hit steps, the limit contour
    stepped in doubling sub-blocks and `qv_dichotomy` ran its catalyst loop
    on Python floats.  Those changes keep every draw and every float."""

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
    # medium at theta_step 1e-5 (65536-step chunks in sub-blocks of 2048,
    # 2048, 4096, ..., 32768 steps)
    CONTOURS = {
        # two whole chunks, stop at step 35677 of the third (last sub-block)
        (1, 1.0): (166750,
                   "81047909a46b1b45ddfe8c4af190aadf51e57e654389e5cfe9d68223c5ff9daf",
                   "1cba0f04c29d1ddb43156a0fe97622043517d9c4167f7a4ef7f9435aa701dad6",
                   "f24e28afaeea6b5b84f2843c4a12b34bee5041721a0510aa9f5099db407acdf1"),
        # two whole chunks, stop at step 14873 of the third (fourth sub-block)
        (2, 1.0): (145946,
                   "89b5ce9558cbc1f1d851f358dcd6a21da31a5fa4ea50d0be218f450fd02613e5",
                   "4478784f3c5e4e217ed290e6c901cb27971d8c7ae52ebd4c990f0ae819a0d20d",
                   "e7f590f8cc7ac09a0741e03cf7cc2d4b23ba34e7981e9e95bede12dd12ec9e7a"),
        # stop inside the first sub-block
        (6, 0.05): (318,
                    "b83ac66d3ba113d90741e18a0045ea22bfed03659b36b0114e2e3b63e9fa196b",
                    "5b511dc67303770cc95c7aecc88b22b15a44e89baa19a6792298f6554cfe0be7",
                    "04c64193773b55db8f744c0948fea6a016e13bc547a77ef8d2bd76a7c7ca3943"),
    }

    @pytest.mark.parametrize("key", list(CONTOURS), ids=str)
    def test_limit_contour(self, key):
        seed, budget = key
        sf = scale_function(flat_medium(), 0.5)
        z = _limit_contour_from_scale(sf, budget, seed, 1e-5, None, 50_000_000)
        got = (len(z.values), _sha(z.values.tobytes()),
               _sha(z.brownian.tobytes()), _sha(z.time_change.tobytes()))
        assert got == self.CONTOURS[key]

    def test_qv_dichotomy_report(self):
        # 17 of 20 catalysts absorbed, 13 of them with a top-hitting contour
        reports = harness.run_qv_dichotomy(replicas=20, theta_step=1e-3)
        assert _sha(harness.reports_to_json(reports).encode()) == (
            "a9d6be649884144175b7220b2f2c334cfb98e813a96cb74dbc15bcac969066fa")
