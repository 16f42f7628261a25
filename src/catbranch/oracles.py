"""
oracles.py
==========
Closed-form laws of the model, as pure deterministic functions, plus the
small statistical toolkit (exact one- and two-sample KS tests, a
contingency chi-square, a Monte Carlo Poisson count test and a mean's
standard error) used to compare simulations against them.

The toolkit needs numpy only.  The KS p-values come from `_ks`, a port of
SciPy 1.17.1's exact distributions that equals `scipy.stats` bit for bit
except where Durbin's matrix takes Pomeranz's place and in the one-sided
tail, where it agrees to 1e-10; the chi-square keeps SciPy's
`chi2_contingency` arithmetic and takes its p-value from `_chi2_sf`, the
closed form of the chi-square tail at a whole number of degrees of
freedom, within 1e-11 of `scipy.special.chdtrc`; `inverse_area_mean` is a
double-exponential quadrature on numpy.  So neither importing `oracles`
nor running its statistics loads a SciPy module; SciPy is a test dependency.

All rate-path arguments follow the package clock convention documented in
`particle`: a population in medium eta with coefficient b has rate path
lambda(t) = b * eta(t), and the single-ancestor extinction law is
I/(1+I) with I the integral of lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from . import _ks
from .errors import InputError
from .particle import MassPath

RatePath = Union[float, MassPath]


def _integral(rate: RatePath, a: float, b: float) -> float:
    if isinstance(rate, MassPath):
        return rate.integral(a, b)
    return float(rate) * (b - a)


def _value_at(rate: RatePath, t: float) -> float:
    if isinstance(rate, MassPath):
        return rate.value_at(t)
    return float(rate)


def oracle_extinction_prob(rate: RatePath, t: float) -> float:
    """P{single-ancestor population extinct by t} = I/(1+I), I = int rate."""
    if t < 0:
        raise InputError("time must be >= 0")
    total = _integral(rate, 0.0, t)
    if not 0.0 <= total < math.inf:  # NaN fails too
        raise InputError("rate integral over [0, t] must be finite and >= 0")
    return total / (1.0 + total)


def oracle_mrca_survival(rate: RatePath, t: float, h: float) -> float:
    """P{neighbor MRCA height >= h} at level t in the quenched medium."""
    if not 0.0 <= h <= t:
        raise InputError("need 0 <= h <= t")
    i0 = _integral(rate, 0.0, t)
    if i0 <= 0:
        raise InputError("medium integral vanishes on [0, t]")
    ih = _integral(rate, h, t)
    return (ih / (1.0 + ih)) * ((1.0 + i0) / i0)


def oracle_mrca_cdf(rate: RatePath, t: float, h: float) -> float:
    return 1.0 - oracle_mrca_survival(rate, t, h)


def oracle_mrca_density(rate: RatePath, t: float, h: float) -> float:
    """Density in h of the neighbor MRCA height at level t, on [0, t]."""
    if not 0.0 <= h <= t:
        raise InputError("need 0 <= h <= t")
    i0 = _integral(rate, 0.0, t)
    if i0 <= 0:
        raise InputError("medium integral vanishes on [0, t]")
    ih = _integral(rate, h, t)
    return _value_at(rate, h) / (1.0 + ih) ** 2 * (1.0 + i0) / i0


def oracle_reactant_intensity(X: RatePath, y_t: float, t: float,
                              h1: float, h2: float) -> float:
    """Expected number of level-t points with MRCA height in (h1, h2],
    over the full index range [0, Y_t], in the quenched medium X."""
    if not 0.0 <= h1 <= h2 <= t:
        raise InputError("need 0 <= h1 <= h2 <= t")
    if h2 >= t and h2 > h1:
        raise InputError("the intensity is not integrable up to the level")
    if h1 == h2:
        return 0.0
    i1 = _integral(X, h1, t)
    i2 = _integral(X, h2, t)
    if i1 <= 0 or i2 <= 0:
        raise InputError("medium integral vanishes on the interval")
    return y_t * (1.0 / i2 - 1.0 / i1)


def hitting_probability(b1: float, b2: float, x0: float, y0: float) -> float:
    """P{reactant mass absorbs before catalyst mass} for the SDE pair."""
    for name, value in (("b1", b1), ("b2", b2), ("x0", x0)):
        if not 0.0 < value < math.inf:
            raise InputError(f"{name} must be finite and > 0")
    if not 0.0 <= y0 < math.inf:
        raise InputError("y0 must be finite and >= 0")
    return (4.0 * b1 / b2 * y0 / x0 ** 2 + 1.0) ** -0.5


def feller_extinction_cdf(x0: float, t: float, b1: float = 1.0) -> float:
    """P{the square-root diffusion from x0 is absorbed by t}."""
    if not 0.0 < b1 < math.inf:
        raise InputError("b1 must be finite and > 0")
    if not 0.0 <= x0 < math.inf:
        raise InputError("x0 must be finite and >= 0")
    if math.isnan(t):
        raise InputError("t must not be NaN")
    if t <= 0:
        return 0.0
    return math.exp(-2.0 * x0 / (b1 * t))


# The double-exponential (exp-sinh) rule of `inverse_area_mean`: nodes
# w = exp((pi/2) sinh s) at steps of 1/32 in s over [-4.5, 3], trapezoid
# weights times dw/ds.  The nodes run from 1e-31 to 7e6, past where
# w exp(-w) underflows, and cluster double-exponentially at 0, where a
# large tau puts a feature of width 1/sqrt(tau).  Against 40-digit mpmath
# quadratures of J it is within 2.4e-16 relative at 60 log-uniform tau in
# [1e-10, 1e7].
_DE_S = np.arange(-144, 97) / 32.0
_DE_NODES = np.exp(0.5 * np.pi * np.sinh(_DE_S))
_DE_WEIGHTS = 0.5 * np.pi * np.cosh(_DE_S) * _DE_NODES / 32.0


def inverse_area_mean(t: float, x0: float = 1.0, b1: float = 2.0) -> float:
    """E[1 / int_0^t X] for the square-root diffusion dX = sqrt(b1 X) dW,
    X_0 = x0.

    The area A = int_0^t X has the Laplace transform
    E[exp(-lam A)] = exp(-x0 v(t)), where v' = lam - (b1/2) v^2, v(0) = 0,
    so v(t) = sqrt(2 lam / b1) tanh(t sqrt(b1 lam / 2)).  Integrating
    1/A = int_0^inf exp(-lam A) dlam under the expectation and putting
    lam = 2 s^2 / b1 gives

        E[1/A] = int_0^inf (4 s / b1) exp(-(2 x0 / b1) s tanh(t s)) ds.

    With u = 2 x0 s / b1 it is (b1 / x0^2) J(tau), tau = b1 t / (2 x0),
    J(tau) = int_0^inf u exp(-u tanh(tau u)) du: J ~ 1/(2 tau) as tau -> 0
    (E[1/A] ~ 1/(x0 t)) and J -> 1 as tau -> inf (b1/x0^2, the Levy law
    A ~ x0^2 / (b1 Z^2) of the total area).  The quadrature runs in
    w = c u, c = min(1, sqrt(tau)), where the integrand lives on w of order
    one at every tau, on the fixed double-exponential rule above.
    """
    for name, value in (("t", t), ("x0", x0), ("b1", b1)):
        if not 0.0 < value < math.inf:
            raise InputError(f"{name} must be finite and > 0")
    tau = b1 * t / (2.0 * x0)
    c = min(1.0, math.sqrt(tau))
    a = tau / c
    w = _DE_NODES
    j = float(np.sum(w * np.exp(-(w / c) * np.tanh(a * w)) * _DE_WEIGHTS))
    return b1 / x0 ** 2 * j / c ** 2


def stretch_map(x: RatePath, t: float, h: float) -> float:
    """Backward medium integral: the height map sending depth h below t in
    the quenched tree to the matching depth in the constant-medium tree."""
    if not 0.0 <= h <= t:
        raise InputError("need 0 <= h <= t")
    return _integral(x, t - h, t)


def stretch_map_inverse(x: RatePath, t: float, w):
    """Inverse of `stretch_map` in h, for a scalar or an array of values
    `w` in [0, total + 1e-12]: the least h with stretch_map(x, t, h) >= w.

    The backward integral of a step medium is piecewise linear in h, with
    knots where t - h meets the medium's jumps, so the inverse is exact:
    find the segment by `searchsorted` and divide by its slope.
    """
    total = stretch_map(x, t, t)
    ws = np.asarray(w, dtype=float)
    if not ((0.0 <= ws) & (ws <= total + 1e-12)).all():  # NaN fails too
        raise InputError("value outside the stretch range")
    medium = x if isinstance(x, MassPath) else MassPath.constant(x)
    inside = medium.times[(medium.times > 0.0) & (medium.times < t)]
    starts = np.concatenate(([0.0], inside))
    # backward from t: knots in h and the medium's value on each segment
    hs = t - np.concatenate((starts, [t]))[::-1]
    rates = medium.values[np.searchsorted(medium.times, starts,
                                          side="right") - 1][::-1]
    cum = np.concatenate(([0.0], np.cumsum(rates * np.diff(hs))))
    flat = np.atleast_1d(ws)
    seg = np.searchsorted(cum, flat) - 1  # cum[seg] < w <= cum[seg + 1]
    # w <= 0 maps to 0, and w past the summed total (by rounding) to t
    h = np.where(seg < 0, 0.0, t)
    inner = (seg >= 0) & (seg < rates.size)  # a segment of positive slope
    s = seg[inner]
    h[inner] = np.minimum(hs[s] + (flat[inner] - cum[s]) / rates[s], t)
    return float(h[0]) if ws.ndim == 0 else h


def laplace_branching(y: float, lam: float, rate: RatePath, t: float) -> float:
    """Laplace transform of the branching-diffusion mass at time t started
    from y, with time-dependent rate path (noise variance 2*rate*mass)."""
    if not lam >= 0:  # NaN fails too
        raise InputError("Laplace argument must be >= 0")
    if math.isnan(y):
        raise InputError("starting mass must not be NaN")
    total = _integral(rate, 0.0, t)
    if not 0.0 <= total < math.inf:
        raise InputError("rate integral over [0, t] must be finite and >= 0")
    return math.exp(-y * lam / (1.0 + lam * total))


# ---------------------------------------------------------------------- #
# Statistical machinery                                                   #
# ---------------------------------------------------------------------- #

def _finite_sample(sample: Sequence[float]) -> np.ndarray:
    arr = np.asarray(sample, dtype=float)
    if arr.size == 0:
        raise InputError("empty sample")
    if not np.isfinite(arr).all():
        raise InputError("sample values must be finite")
    return arr


def ks_test(sample: Sequence[float], cdf: Callable[[float], float]) -> tuple[float, float]:
    """One-sample KS statistic and exact two-sided p-value against a
    callable CDF (`scipy.stats.kstest`'s; see `_ks` for where it is bit for
    bit).  An empty sample, a NaN or infinite value or a NaN value of the
    CDF is an `InputError`."""
    return _ks.ks_1samp(_finite_sample(sample), cdf)


def two_sample_ks(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-sample KS statistic and two-sided p-value, exact up to 10 000
    values a sample (`scipy.stats.ks_2samp`'s; see `_ks` for where it is
    bit for bit).  An empty sample or a NaN or infinite value is an
    `InputError`."""
    return _ks.ks_2samp(_finite_sample(a), _finite_sample(b))


def poisson_count_test(counts: Sequence[float], means: Union[float, Sequence[float]],
                       seed: int = 0, n_sim: int = 4000) -> float:
    """Monte Carlo p-value for 'counts are Poisson with the given means'.

    The statistic combines the mean discrepancy and the dispersion
    (chi-square) against simulated Poisson nulls with identical means, so
    it is calibrated even when individual means are small or unequal.
    """
    obs = np.asarray(counts, dtype=float)
    try:
        m = np.broadcast_to(np.asarray(means, dtype=float), obs.shape).copy()
    except ValueError:
        raise InputError("Poisson means must be one value or one per count") from None
    if obs.size == 0:
        raise InputError("empty count vector")
    if not (np.isfinite(obs).all() and np.all(obs >= 0)):
        raise InputError("counts must be finite and >= 0")
    if not (np.isfinite(m).all() and np.all(m > 0)):
        raise InputError("Poisson means must be finite and positive")
    if n_sim < 1:
        raise InputError("the test needs at least one simulated null")

    def stat(c: np.ndarray) -> float:
        return float(np.sum((c - m) ** 2 / m))

    t_obs = stat(obs)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    # the nulls' deviations, squared and scaled in place
    dev = rng.poisson(m, size=(n_sim,) + m.shape) - m
    dev **= 2
    dev /= m
    t_null = np.sum(dev, axis=tuple(range(1, dev.ndim)))
    # two-sided in dispersion: too regular is as suspicious as too wild
    hi = float(np.mean(t_null >= t_obs))
    lo = float(np.mean(t_null <= t_obs))
    return max(min(2.0 * min(hi, lo), 1.0), 1.0 / n_sim)


def two_sample_counts_chi2(a: Sequence[int], b: Sequence[int]) -> float:
    """Two-sample homogeneity test for small nonnegative integer counts.

    Bins the union of values, pools sparse tail bins, and runs the standard
    contingency chi-square.
    """
    min_expected = 5.0
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise InputError("empty sample")
    for x in (a, b):
        # NaN fails every comparison
        if not (np.isfinite(x).all() and (x >= 0).all()
                and (x == np.floor(x)).all()):
            raise InputError("counts must be finite integers >= 0")
    a, b = a.astype(int), b.astype(int)
    top = int(max(a.max(), b.max()))
    ca = np.bincount(a, minlength=top + 1).astype(float)
    cb = np.bincount(b, minlength=top + 1).astype(float)
    # greedy left-to-right pooling so every bin carries enough mass
    bins_a, bins_b = [], []
    acc_a = acc_b = 0.0
    for va, vb in zip(ca, cb):
        acc_a += va
        acc_b += vb
        if acc_a + acc_b >= 2 * min_expected:
            bins_a.append(acc_a)
            bins_b.append(acc_b)
            acc_a = acc_b = 0.0
    if acc_a + acc_b > 0 and bins_a:
        bins_a[-1] += acc_a
        bins_b[-1] += acc_b
    if len(bins_a) < 2:
        return 1.0
    # `scipy.stats.chi2_contingency`'s arithmetic: expected counts from the
    # margins, Yates' correction (no larger than the difference) at one
    # degree of freedom, and Pearson's statistic
    observed = np.vstack([bins_a, bins_b])
    expected = (observed.sum(axis=1, keepdims=True) * observed.sum(axis=0, keepdims=True)
                / observed.sum())
    dof = observed.shape[1] - 1
    if dof == 1:
        diff = expected - observed
        observed = observed + np.minimum(0.5, np.abs(diff)) * np.sign(diff)
    stat = ((observed - expected) ** 2 / expected).sum()
    return _chi2_sf(dof, stat)


def _chi2_sf(dof: int, x: float) -> float:
    """P{chi^2 with a whole number `dof` of degrees of freedom > x}.

    With h = x/2 this is the regularized upper gamma Q(dof/2, h), a finite
    sum (DLMF section 8.4): e^-h h^k / k! over k < dof/2 at even `dof`, and
    erfc(sqrt h) plus e^-h h^(k - 1/2) / Gamma(k + 1/2) over
    1 <= k <= dof/2 at odd `dof`.  Each term is taken in logs, since e^-h
    alone underflows past h = 745 while the sum need not.
    """
    if x <= 0.0:
        return 1.0
    h = 0.5 * x
    log_h = math.log(h)
    if dof % 2 == 0:
        return math.fsum(math.exp(k * log_h - h - math.lgamma(k + 1))
                         for k in range(dof // 2))
    return math.erfc(math.sqrt(h)) + math.fsum(
        math.exp((k - 0.5) * log_h - h - math.lgamma(k + 0.5))
        for k in range(1, dof // 2 + 1))


def mean_confidence(sample: Sequence[float]) -> tuple[float, float]:
    """Sample mean and its standard error.  A NaN or infinite value is an
    `InputError`."""
    arr = _finite_sample(sample)
    if arr.size < 2:
        raise InputError("sample too small")
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


@dataclass
class OracleReport:
    """Self-describing outcome of one verification check."""

    name: str
    law: str
    statistic: float
    target: float | str
    test: str
    p_value: float | None
    alpha_or_tol: float
    passed: bool
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "name": self.name,
            "law": self.law,
            "statistic": self.statistic,
            "target": self.target,
            "test": self.test,
            "p_value": self.p_value,
            "alpha_or_tol": self.alpha_or_tol,
            "passed": bool(self.passed),
            "details": self.details,
        }
        return out

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        pv = "-" if self.p_value is None else f"{self.p_value:.4f}"
        return (f"[{flag}] {self.name}: stat={self.statistic:.6g} "
                f"target={self.target} test={self.test} p={pv}")
