import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from catbranch import _ks
from catbranch.errors import InputError
from catbranch.oracles import (_chi2_sf, feller_extinction_cdf, hitting_probability,
                               inverse_area_mean, ks_test, laplace_branching,
                               mean_confidence, oracle_extinction_prob, oracle_mrca_cdf,
                               oracle_mrca_density, oracle_mrca_survival,
                               oracle_reactant_intensity, poisson_count_test,
                               stretch_map, stretch_map_inverse,
                               two_sample_counts_chi2, two_sample_ks)
from catbranch.particle import MassPath


class TestExtinction:
    def test_unit_rate(self):
        assert oracle_extinction_prob(1.0, 1.0) == pytest.approx(0.5)
        assert oracle_extinction_prob(1.0, 0.0) == 0.0
        assert oracle_extinction_prob(1.0, 1e7) == pytest.approx(1.0, abs=1e-6)

    def test_step_path_exact(self):
        rate = MassPath(np.array([0.0, 1.0]), np.array([2.0, 0.0]))
        # integral over [0, 3] is 2
        assert oracle_extinction_prob(rate, 3.0) == pytest.approx(2.0 / 3.0)


class TestMrca:
    def test_pinned_value(self):
        assert oracle_mrca_cdf(1.0, 1.0, 0.5) == pytest.approx(1.0 / 3.0)

    def test_endpoints(self):
        assert oracle_mrca_cdf(1.0, 1.0, 0.0) == pytest.approx(0.0)
        assert oracle_mrca_cdf(1.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_survival_complements_cdf(self):
        for h in (0.1, 0.5, 0.9):
            assert (oracle_mrca_survival(1.0, 1.0, h)
                    + oracle_mrca_cdf(1.0, 1.0, h)) == pytest.approx(1.0)

    def test_density_normalizes(self):
        total, _ = quad(lambda h: oracle_mrca_density(1.0, 1.0, h), 0.0, 1.0)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_density_matches_cdf(self):
        h = 0.37
        eps = 1e-6
        num = (oracle_mrca_cdf(1.0, 1.0, h + eps)
               - oracle_mrca_cdf(1.0, 1.0, h - eps)) / (2 * eps)
        assert num == pytest.approx(oracle_mrca_density(1.0, 1.0, h), rel=1e-4)

    @pytest.mark.parametrize("rate, h, message", [
        (1.0, 3.0, "need 0 <= h <= t"),
        (1.0, 2.0, "need 0 <= h <= t"),
        (1.0, -0.5, "need 0 <= h <= t"),
        (1.0, math.nan, "need 0 <= h <= t"),
        (0.0, 0.5, "medium integral vanishes"),
        (MassPath(np.array([0.0, 2.0]), np.array([0.0, 1.0])), 0.5,
         "medium integral vanishes"),
    ], ids=["h-above-t", "h-twice-t", "h-negative", "h-nan", "zero-medium",
            "zero-until-after-t"])
    @pytest.mark.parametrize("law", [oracle_mrca_density, oracle_mrca_survival])
    def test_rejects_heights_outside_the_level_and_a_zero_medium(
            self, law, rate, h, message):
        with pytest.raises(InputError, match=message):
            law(rate, 1.0, h)


class TestIntensities:
    def test_flat_medium_pinned(self):
        assert oracle_reactant_intensity(1.0, 1.0, 1.0, 0.0, 0.5) == pytest.approx(1.0)
        assert oracle_reactant_intensity(1.0, 1.0, 1.0, 0.3, 0.3) == 0.0

    def test_flat_medium_closed_form(self):
        # in the unit medium the intensity is y_t * (1/(t-h2) - 1/(t-h1))
        for y_t, t, h1, h2 in ((1.0, 1.0, 0.0, 0.5), (1.0, 1.0, 0.2, 0.7),
                               (2.0, 1.0, 0.1, 0.9), (0.5, 3.0, 1.0, 2.5)):
            got = oracle_reactant_intensity(1.0, y_t, t, h1, h2)
            assert got == y_t * (1.0 / (t - h2) - 1.0 / (t - h1))

    def test_additivity(self):
        a = oracle_reactant_intensity(1.0, 2.0, 1.0, 0.1, 0.4)
        b = oracle_reactant_intensity(1.0, 2.0, 1.0, 0.4, 0.8)
        c = oracle_reactant_intensity(1.0, 2.0, 1.0, 0.1, 0.8)
        assert a + b == pytest.approx(c)

    def test_divergence_guard(self):
        with pytest.raises(InputError):
            oracle_reactant_intensity(1.0, 1.0, 1.0, 0.5, 1.0)


class TestHittingAndTransforms:
    def test_pinned_hitting(self):
        assert hitting_probability(1.0, 1.0, 1.0, 1.0) == pytest.approx(5 ** -0.5)

    def test_extinction_cdf(self):
        assert feller_extinction_cdf(1.0, 1.0) == pytest.approx(math.exp(-2.0))
        assert feller_extinction_cdf(1.0, 0.0) == 0.0

    @pytest.mark.parametrize("oracle, args, message", [
        (oracle_extinction_prob, (1.0, math.nan), "rate integral"),
        (oracle_extinction_prob, (1.0, math.inf), "rate integral"),
        (oracle_extinction_prob, (-1.0, 1.0), "rate integral"),
        (hitting_probability, (1.0, 0.0, 1.0, 1.0), "b2"),
        (hitting_probability, (1.0, 1.0, 0.0, 1.0), "x0"),
        (hitting_probability, (1.0, 1.0, 1.0, math.nan), "y0"),
        (feller_extinction_cdf, (1.0, math.nan), "t must not be NaN"),
        (feller_extinction_cdf, (1.0, 1.0, 0.0), "b1"),
    ], ids=["extinction-t-nan", "extinction-t-inf", "extinction-negative-rate",
            "hitting-b2-zero", "hitting-x0-zero", "hitting-y0-nan",
            "feller-t-nan", "feller-b1-zero"])
    def test_closed_forms_reject_bad_arguments(self, oracle, args, message):
        # each used to return NaN or divide by zero
        with pytest.raises(InputError, match=message):
            oracle(*args)

    def test_stretch_pinned(self):
        assert stretch_map(2.0, 1.0, 0.25) == pytest.approx(0.5)
        assert stretch_map(2.0, 1.0, 0.0) == 0.0
        assert stretch_map(1.0, 1.0, 0.4) == pytest.approx(0.4)  # identity

    def test_stretch_inverse(self):
        rate = MassPath(np.array([0.0, 0.5]), np.array([1.0, 3.0]))
        for h in (0.1, 0.45, 0.9):
            w = stretch_map(rate, 1.0, h)
            assert stretch_map_inverse(rate, 1.0, w) == pytest.approx(h, abs=1e-9)

    @pytest.mark.parametrize("seed", range(20))
    def test_stretch_inverse_agrees_with_bisection(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 8))
        times = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 3.0, k))))
        medium = MassPath(times, rng.uniform(0.05, 3.0, k + 1))
        t = float(rng.uniform(0.5, 3.5))
        total = stretch_map(medium, t, t)
        at_knots = [stretch_map(medium, t, t - s) for s in times if 0 < s < t]
        ws = np.concatenate(([0.0, total], at_knots, rng.uniform(0, total, 20)))
        got = stretch_map_inverse(medium, t, ws)
        want = [bisect_stretch_inverse(medium, t, w) for w in ws]
        assert np.abs(got - want).max() <= 1e-12
        assert stretch_map_inverse(medium, t, float(ws[-1])) == got[-1]

    def test_stretch_inverse_constant_rate(self):
        assert stretch_map_inverse(2.0, 1.0, 0.5) == pytest.approx(0.25)
        assert stretch_map_inverse(2.0, 1.0, 2.0) == 1.0
        assert stretch_map_inverse(2.0, 1.0, 0.0) == 0.0

    def test_stretch_inverse_flat_tail(self):
        # a medium absorbed at 0.6 leaves the backward integral flat for
        # h < 0.4; the inverse is the least h reaching w
        medium = MassPath(np.array([0.0, 0.6]), np.array([1.0, 0.0]))
        got = stretch_map_inverse(medium, 1.0, np.array([0.0, 1e-3, 0.6]))
        assert got[0] == 0.0
        assert got[1:] == pytest.approx([0.401, 1.0], abs=1e-12)

    @pytest.mark.parametrize("w", [-1e-9, 2.0 + 1e-9, math.nan])
    def test_stretch_inverse_rejects_out_of_range(self, w):
        with pytest.raises(InputError, match="stretch range"):
            stretch_map_inverse(2.0, 1.0, w)
        with pytest.raises(InputError, match="stretch range"):
            stretch_map_inverse(2.0, 1.0, np.array([0.5, w]))

    def test_laplace_pinned(self):
        assert laplace_branching(1.0, 1.0, 1.0, 1.0) == pytest.approx(
            math.exp(-0.5))
        assert laplace_branching(1.0, 0.0, 1.0, 1.0) == 1.0


def bisect_stretch_inverse(x, t: float, w: float, tol: float = 1e-12) -> float:
    """Reference inverse of `stretch_map` in h, by bisection."""
    lo, hi = 0.0, t
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if stretch_map(x, t, mid) < w:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


class TestInverseAreaMean:
    """E[1 / int_0^t X] for dX = sqrt(b1 X) dW from x0."""

    def test_pinned_values(self):
        # the matching constants of the comparison suite: z = t * E
        assert inverse_area_mean(0.5) == pytest.approx(3.0, rel=1e-12)
        assert inverse_area_mean(1.0) == pytest.approx(2.2758474084, rel=1e-10)

    @pytest.mark.parametrize("t, x0, b1", [(0.5, 1.0, 2.0), (1.0, 1.0, 2.0),
                                           (0.3, 2.5, 0.7), (4.0, 0.2, 1.0)])
    def test_matches_the_laplace_integral(self, t, x0, b1):
        # int_0^inf (4s/b1) exp(-(2 x0/b1) s tanh(t s)) ds, before rescaling
        direct, _ = quad(lambda s: 4.0 * s / b1
                         * math.exp(-2.0 * x0 / b1 * s * math.tanh(t * s)),
                         0.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)
        assert inverse_area_mean(t, x0, b1) == pytest.approx(direct, rel=1e-9)

    @pytest.mark.parametrize("x0, b1", [(1.0, 2.0), (0.3, 1.0), (4.0, 5.0)])
    def test_small_t_limit(self, x0, b1):
        # int_0^t X ~ x0 t, with relative variance b1 t / (3 x0)
        for t in (1e-9, 1e-7, 1e-6):
            e = inverse_area_mean(t, x0, b1) * x0 * t
            assert e == pytest.approx(1.0 + b1 * t / (3.0 * x0), rel=1e-8)

    @pytest.mark.parametrize("x0, b1", [(1.0, 2.0), (0.3, 1.0), (4.0, 5.0)])
    def test_large_t_limit(self, x0, b1):
        # the total area is Levy: x0^2 / (b1 Z^2), so E[1/A] = b1 / x0^2;
        # the area left after t shifts it by O((x0 / (b1 t))^3)
        t = 2e4 * x0 / b1
        assert inverse_area_mean(t, x0, b1) == pytest.approx(b1 / x0 ** 2,
                                                             rel=1e-10)

    def test_decreasing_in_t(self):
        values = [inverse_area_mean(t) for t in (0.1, 0.5, 1.0, 2.0, 10.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @settings(max_examples=200, deadline=None)
    @given(log_uniform(1e-3, 1e3), log_uniform(1e-2, 1e2),
           log_uniform(1e-2, 1e2), log_uniform(1e-3, 1e3))
    def test_feller_scaling(self, t, x0, b1, a):
        # X_{a u} / a is the same diffusion from x0 / a, with area / a^2
        assert inverse_area_mean(t, x0, b1) == pytest.approx(
            inverse_area_mean(t / a, x0 / a, b1) / a ** 2, rel=1e-9)

    @pytest.mark.parametrize("name", ["t", "x0", "b1"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_bad_arguments(self, name, value):
        args = {"t": 1.0, "x0": 1.0, "b1": 2.0, name: value}
        with pytest.raises(InputError, match=name):
            inverse_area_mean(**args)


class TestStatTools:
    def test_ks_calibration(self):
        # samples drawn from their own CDF reject at roughly the nominal rate
        rng = np.random.default_rng(17)
        rejections = 0
        runs = 200
        for _ in range(runs):
            sample = rng.exponential(size=300)
            _, p = ks_test(sample, lambda x: 1.0 - math.exp(-max(x, 0.0)))
            rejections += p < 0.05
        assert 2 <= rejections <= 25

    def test_ks_detects_shift(self):
        rng = np.random.default_rng(18)
        sample = rng.exponential(size=400) + 0.5
        _, p = ks_test(sample, lambda x: 1.0 - math.exp(-max(x, 0.0)))
        assert p < 1e-6

    def test_two_sample(self):
        rng = np.random.default_rng(19)
        a = rng.normal(size=500)
        b = rng.normal(size=500)
        assert two_sample_ks(a, b)[1] > 0.01
        assert two_sample_ks(a, b + 1.0)[1] < 1e-6

    def test_poisson_count_calibration(self):
        rng = np.random.default_rng(20)
        counts = rng.poisson(5.0, size=200)
        assert poisson_count_test(counts, 5.0, seed=1) > 0.01
        assert poisson_count_test(counts, 10.0, seed=1) < 0.001

    def test_poisson_inhomogeneous_means(self):
        rng = np.random.default_rng(21)
        means = rng.uniform(0.5, 4.0, size=300)
        counts = rng.poisson(means)
        assert poisson_count_test(counts, means, seed=2) > 0.01

    @pytest.mark.parametrize("counts,means,n_sim,message", [
        ([1.0, math.nan], 2.0, 4000, "counts must be finite"),
        ([1.0, math.inf], 2.0, 4000, "counts must be finite"),
        ([1.0, -1.0], 2.0, 4000, "counts must be finite and >= 0"),
        ([1.0, 2.0], [2.0, math.nan], 4000, "means must be finite"),
        ([1.0, 2.0], math.inf, 4000, "means must be finite"),
        ([1.0, 2.0], 2.0, 0, "at least one simulated null"),
        ([1.0, 2.0, 3.0], [1.0, 2.0], 4000, "one value or one per count"),
    ], ids=["nan-count", "inf-count", "negative-count", "nan-mean", "inf-mean",
            "no-nulls", "means-shape"])
    def test_poisson_count_test_rejects_bad_input(self, counts, means, n_sim,
                                                  message):
        with pytest.raises(InputError, match=message):
            poisson_count_test(counts, means, n_sim=n_sim)

    def test_counts_chi2(self):
        rng = np.random.default_rng(22)
        a = rng.poisson(3.0, size=800)
        b = rng.poisson(3.0, size=800)
        c = rng.poisson(4.5, size=800)
        assert two_sample_counts_chi2(a, b) > 0.01
        assert two_sample_counts_chi2(a, c) < 1e-4

    @pytest.mark.parametrize("bad", [-1, math.nan, math.inf, 1.5],
                             ids=["negative", "nan", "inf", "fraction"])
    def test_counts_chi2_rejects_bad_counts(self, bad):
        with pytest.raises(InputError, match="counts must be finite integers"):
            two_sample_counts_chi2([1, 2, bad], [1, 2, 3])
        with pytest.raises(InputError, match="counts must be finite integers"):
            two_sample_counts_chi2([1, 2, 3], [bad, 2, 3])

    def test_mean_confidence(self):
        m, se = mean_confidence([1.0, 2.0, 3.0, 4.0])
        assert m == 2.5 and se > 0
        with pytest.raises(InputError):
            mean_confidence([1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_mean_confidence_rejects_non_finite_values(self, bad):
        with pytest.raises(InputError, match="finite"):
            mean_confidence([1.0, bad, 2.0])

    def test_ks_reads_an_integer_cdf_value_as_a_float(self):
        # the first CDF value is the integer 0; the others are fractions
        cdf = lambda x: 0 if x < 0 else x
        assert ks_test([-1.0, 0.25, 0.5, 0.75], cdf) == ks_test(
            [-1.0, 0.25, 0.5, 0.75], lambda x: float(cdf(x)))

    def test_ks_rejects_a_nan_cdf_value(self):
        # (nan, nan) before, which a `p < alpha` check reads as a pass
        with pytest.raises(InputError, match="CDF returned NaN"):
            ks_test([0.1, 0.2], lambda x: math.nan)
        with pytest.raises(InputError, match="CDF returned NaN"):
            ks_test([0.1, 0.2], lambda x: x if x < 0.15 else math.nan)

    @pytest.mark.parametrize("bad", [[], [0.5, math.nan], [math.inf, 0.2],
                                     [-math.inf]])
    def test_ks_rejects_empty_and_non_finite_samples(self, bad):
        with pytest.raises(InputError):
            ks_test(bad, lambda x: x)
        with pytest.raises(InputError):
            two_sample_ks(bad, [0.1, 0.2])
        with pytest.raises(InputError):
            two_sample_ks([0.1, 0.2], bad)


def _exp_cdf(x: float) -> float:
    return 1.0 - math.exp(-max(x, 0.0))


class TestScipyEquality:
    """The KS p-values equal `scipy.stats`' bit for bit, statistic and
    p-value both, on cases that reach every branch of the ported code, and
    the chi-square tail agrees with `scipy.special.chdtrc` to 1e-11.  Only
    this class imports `scipy.stats`; the package never does, and it loads
    `scipy.special` only for `_ks.smirnov`."""

    # n d^2 at the one-sample branch points (Durbin's matrix up to 0.754693
    # and Pomeranz up to 4 at n <= 140; above n = 140 twice the one-sided
    # law from 2.2 and 0 from 370), and just beside them
    NDSQ = (0.3, 0.754693, 0.7547, 1.0, 2.19, 2.2, 2.21, 3.99, 4.0, 4.01,
            18.0, 369.0, 370.0, 371.0)
    # either side of n = 140 (the exact methods) and of n = 100 000
    # (Durbin's matrix against Pelz-Good for n d^1.5 <= 1.4); at the large
    # sizes `smirnov` takes 0.15 s a call, so they skip its middle range
    SIZES = (1, 2, 3, 10, 140, 141, 1_000, 100_000, 100_001)

    @staticmethod
    def _one_sample_cases():
        for n in TestScipyEquality.SIZES:
            for ndsq in TestScipyEquality.NDSQ:
                if n < 100_000 or ndsq < 2.2 or ndsq >= 369.0:
                    yield n, math.sqrt(ndsq / n)
            # n d <= 0.5, <= 1 and >= n - 1 (Ruben-Gambino); d >= 0.5
            for nd in (0.25, 0.5, 0.5000001, 0.75, 1.0, max(n - 1, 1e-3), n - 0.5):
                yield n, nd / n
            for d in (0.5, 0.7, 0.999, 1.0, 1.5):
                yield n, d
            # Durbin's matrix above n = 140: 1 < n d, n d^1.5 <= 1.4
            yield n, min(1.5 / n, 0.5 * (1.4 / n) ** (2.0 / 3.0))

    def test_kstwo_sf_every_branch(self, monkeypatch):
        from scipy import stats

        reached = set()
        for name in ("_kolmogn_DMTW", "_kolmogn_Pomeranz", "_kolmogn_PelzGood",
                     "smirnov"):
            def spy(*args, _name=name, _f=getattr(_ks, name)):
                reached.add(_name)
                return _f(*args)
            monkeypatch.setattr(_ks, name, spy)
        for n, d in self._one_sample_cases():
            got = _ks.kstwo_sf(np.float64(d), n)
            assert got == float(stats.kstwo.sf(np.float64(d), n)), (n, d)
        assert reached == {"_kolmogn_DMTW", "_kolmogn_Pomeranz",
                           "_kolmogn_PelzGood", "smirnov"}

    @pytest.mark.parametrize("n, scale", [(1, 1.0), (20, 1.0), (140, 1.2),
                                          (141, 1.0), (3_000, 1.05)])
    def test_ks_test(self, n, scale):
        from scipy import stats

        sample = np.random.default_rng(n).exponential(scale, size=n)
        want = stats.kstest(sample, np.vectorize(_exp_cdf))
        assert ks_test(sample, _exp_cdf) == (float(want.statistic),
                                             float(want.pvalue))

    @pytest.mark.parametrize("n1, n2, shift", [
        (500, 500, 0.0), (500, 500, 0.3),        # equal sizes
        (300, 200, 0.0), (2_530, 2_466, 0.05),   # unequal sizes, exact
        (40, 40, None), (37, 55, None),          # identical draws: h = 0
        (10_001, 300, 0.1), (12_000, 11_000, 0.0),  # over 10 000: asymptotic
    ])
    def test_two_sample_ks(self, n1, n2, shift):
        from scipy import stats

        rng = np.random.default_rng(n1 + n2)
        a = rng.normal(size=n1)
        b = np.resize(a, n2) if shift is None else rng.normal(size=n2) + shift
        want = stats.ks_2samp(a, b)
        assert two_sample_ks(a, b) == (float(want.statistic), float(want.pvalue))

    def test_two_sample_ks_with_ties(self):
        from scipy import stats

        rng = np.random.default_rng(5)
        a = np.round(rng.normal(size=700), 1)
        b = np.round(rng.normal(size=650), 1)
        want = stats.ks_2samp(a, b)
        assert two_sample_ks(a, b) == (float(want.statistic), float(want.pvalue))

    @pytest.mark.parametrize("values, lam", [(2, 0.0), (2, 0.15), (5, 0.0), (5, 0.1)],
                             ids=["dof1", "dof1-shifted", "dof4", "dof4-shifted"])
    def test_counts_chi2(self, values, lam):
        from scipy import stats

        # every value holds at least 10 counts, so no bin is pooled and the
        # contingency table is the two histograms
        rng = np.random.default_rng(values)
        a = rng.integers(0, values, size=300)
        b = np.minimum(rng.integers(0, values, size=280)
                       + (rng.random(280) < lam), values - 1)
        table = np.vstack([np.bincount(a, minlength=values),
                           np.bincount(b, minlength=values)]).astype(float)
        assert table.sum(axis=0).min() >= 10
        want = stats.chi2_contingency(table)
        assert want.dof == values - 1
        assert two_sample_counts_chi2(a, b) == pytest.approx(float(want.pvalue),
                                                             rel=1e-12)

    # degrees of freedom: every one to 100, the gate's 45-48 among them,
    # and 399-401, 500 and 2000 (at the last two, e^-x/2 alone underflows
    # at the top of the sweep)
    DOFS = (*range(1, 101), 399, 400, 401, 500, 2_000)

    def test_chi2_sf(self):
        from scipy import special

        for dof in self.DOFS:
            for x in np.linspace(0.0, 3.0 * dof + 10.0, 61):
                want = float(special.chdtrc(dof, x))
                if want >= 1e-300:
                    assert _chi2_sf(dof, float(x)) == pytest.approx(
                        want, rel=1e-11, abs=0.0), (dof, x)

    @pytest.mark.parametrize("x", [1e-300, 1e-8, 0.3, 1.0, 7.5, 80.0, 1400.0])
    def test_chi2_sf_exact_cases(self, x):
        assert _chi2_sf(2, x) == math.exp(-x / 2.0)
        assert _chi2_sf(1, x) == math.erfc(math.sqrt(x / 2.0))
        for dof in (1, 2, 3, 46, 2_000):
            assert _chi2_sf(dof, 0.0) == 1.0


@pytest.mark.parametrize("tau", [1e-4, 1e-2, 0.5, 1.0, 2.0, 100.0])
def test_inverse_area_mean_matches_quad(tau):
    # adaptive quadrature of the same integrand in w = c u
    c = min(1.0, math.sqrt(tau))
    a = tau / c
    j, _ = quad(lambda w: w * math.exp(-(w / c) * math.tanh(a * w)), 0.0, math.inf,
                epsabs=0.0, epsrel=1e-12, limit=200)
    # x0 = 1 and b1 = 2 make t = tau
    assert inverse_area_mean(tau) == pytest.approx(2.0 * j / c ** 2, rel=1e-13, abs=0.0)


def _fresh_interpreter(code: str) -> str:
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    got = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, env=env)
    assert got.returncode == 0, got.stderr
    return got.stdout.strip()


def test_no_scipy_stats_or_integrate_import():
    """A fresh interpreter that runs the command line's and the harness's
    statistics loads no SciPy module and no `multiprocessing`; only a KS
    p-value in the one-sided law's tail loads `scipy.special`."""
    imports = """
import sys
import catbranch.cli, catbranch.harness
from catbranch import _ks, oracles
"""
    calls = """
oracles.ks_test([0.2, 0.5, 0.7], lambda x: x)
oracles.two_sample_ks([0.1, 0.4, 0.5], [0.2, 0.3])
oracles.two_sample_counts_chi2([0, 1, 2] * 10, [1, 2, 0] * 10)
assert oracles.two_sample_counts_chi2([0, 1, 2] * 10, [0, 0, 1] * 10) < 0.05
# 47 values of 16 or 24 counts each: no bin is pooled, and dof = 46 as
# in the gate
wide = [k for k in range(47) for _ in range(6 + 8 * (k % 2))]
assert 0.0 < oracles.two_sample_counts_chi2(list(range(47)) * 10, wide) < 1.0
oracles.inverse_area_mean(1.0)
"""
    # d >= 1/2 at n = 3: twice `smirnov`
    tail = "assert 0.0 < _ks.kstwo_sf(0.6, 3) < 1.0\n"
    report = ('print(sorted(m for m in sys.modules\n'
              '             if m.partition(".")[0] in ("scipy", "multiprocessing")))\n')
    assert _fresh_interpreter(imports + calls + report) == "[]"
    assert "'scipy.special'" in _fresh_interpreter(imports + tail + report)
