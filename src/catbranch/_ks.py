"""
_ks.py
======
Exact two-sided Kolmogorov-Smirnov p-values, ported from SciPy 1.17.1
(`scipy/stats/_ksstats.py`, `scipy/stats/_stats_py.py` and
`scipy/stats/_stats_pythran.py`) so that `oracles` need not import
`scipy.stats`.  The port keeps SciPy's branches, operations and numpy
types (the one-sample statistic arrives as a 0-d array, and some scaled
products run in `np.longdouble`), so its p-values equal
`scipy.stats.kstest` and `scipy.stats.ks_2samp` bit for bit;
`tests/test_oracles.py` checks that.

One sample (`kstwo_sf`, SciPy's `kstwo.sf`): the branch choice of Simard &
L'Ecuyer, "Computing the Two-Sided Kolmogorov-Smirnov Distribution",
J. Stat. Softw. 39(11), 2011, over
  Ruben & Gambino's closed forms near n d = 1 and n d = n - 1;
  Durbin's matrix algorithm, "The Probability that the Sample Distribution
    Function Lies Between Two Parallel Straight Lines", Ann. Math. Statist.
    39, 1968, in the form of Marsaglia, Tsang & Wang, "Evaluating
    Kolmogorov's Distribution", J. Stat. Softw. 8(18), 2003;
  Pomeranz's recursion, "Exact Cumulative Distribution of the
    Kolmogorov-Smirnov Statistic for Small Samples (Algorithm 487)",
    Comm. ACM 17(12), 1974;
  Pelz & Good's expansion, "Approximating the Lower Tail-areas of the
    Kolmogorov-Smirnov One-sample Statistic", J. R. Stat. Soc. B 38(2),
    1976;
  and twice the one-sided law, `scipy.special.smirnov`.
The one-sided law serves the tail only (d >= 1/2, or n d^2 above 4 up to
n = 140 and above 2.2 beyond); past a few points a sample that is a
p-value below about 0.025.  So `smirnov` imports `scipy.special` (about
23 MB and 0.15 s) on its first call, not at import.

Two samples (`ks_2samp`): Hodges' lattice-path count, "The Significance
Probability of the Smirnov Two-Sample Test", Ark. Mat. 3(43), 1958, with
the complement recursion of Viehmann, "Numerically more stable computation
of the p-values for the two-sample Kolmogorov-Smirnov test",
arXiv:2102.08037; above 10 000 points a sample, the one-sample law at
round(n1 n2 / (n1 + n2)).

The ported code is under SciPy's license:

Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions
are met:

1. Redistributions of source code must retain the above copyright
   notice, this list of conditions and the following disclaimer.

2. Redistributions in binary form must reproduce the above
   copyright notice, this list of conditions and the following
   disclaimer in the documentation and/or other materials provided
   with the distribution.

3. Neither the name of the copyright holder nor the names of its
   contributors may be used to endorse or promote products derived
   from this software without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
"AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
(INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import InputError

_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi ** 2
_PI_FOUR = np.pi ** 4
_PI_SIX = np.pi ** 6

# B_{2j} / (2j) / (2j - 1) for j = 8, ..., 1, B_m the Bernoulli numbers
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]

# above this many points a sample, `ks_2samp` uses the one-sample law
_MAX_EXACT_N = 10_000


def _clip(p):
    return np.clip(p, 0.0, 1.0)


def _log_nfactorial_div_n_pow_n(n):
    # log(n! / n^n) by Stirling's series, with n log(n) removed up front
    rn = 1.0 / n
    return np.log(n) / 2 - n + _LOG_2PI / 2 + rn * np.polyval(_STIRLING_COEFFS, rn / n)


def _kolmogn_DMTW(n, d):
    """P(D_n <= d) by Durbin's matrix algorithm, for 1 < n d and d < 1/2.

    With d = (k - h) / n, k a positive integer and 0 <= h < 1, it is the
    k-th diagonal entry of (n! / n^n) H^n for an m x m matrix H, m = 2k - 1,
    powered by squaring with scaling (Marsaglia, Tsang & Wang)."""
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    H = np.zeros([m, m])
    # v (first column, last row reversed): (1 - h^(j+1)) / (j+1)!;
    # w: 1 / j!
    intm = np.arange(1, m + 1)
    v = 1.0 - h ** intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # may underflow, harmlessly
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0) ** m - 2 * h ** m
    v[-1] = (1.0 + tt) * fac

    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(np.shape(H)[0])
    nn = n
    expnt = 0  # binary exponent taken out of Hpwr
    Hexpnt = 0  # and out of H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2

    p = Hpwr[k - 1, k - 1]
    # times n! / n^n; a rescale turns p into a longdouble, as in SciPy
    for i in range(1, n + 1):
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return _clip(p)


def _pomeranz_compute_j1j2(i, n, ll, ceilf, roundf):
    """The ends of the nonzero run of row i."""
    if i == 0:
        j1, j2 = -ll - ceilf - 1, ll + ceilf - 1
    else:
        ip1div2, ip1mod2 = divmod(i + 1, 2)
        if ip1mod2 == 0:  # i is odd
            if ip1div2 == n + 1:
                j1, j2 = n - ll - ceilf - 1, n + ll + ceilf - 1
            else:
                j1, j2 = ip1div2 - 1 - ll - roundf - 1, ip1div2 + ll - 1 + ceilf - 1
        else:
            j1, j2 = ip1div2 - 1 - ll - 1, ip1div2 + ll + roundf - 1
    return max(j1 + 2, 0), min(j2, n)


def _kolmogn_Pomeranz(n, x):
    """P(D_n <= x) by Pomeranz's recursion.

    Each of 2n + 1 rows is the previous row convolved with one of three
    truncated Poisson weight sequences; only two rows, and only their
    nonzero runs, are kept, rescaled against underflow.  The answer is n!
    times the last entry."""
    t = n * x
    ll = int(np.floor(t))
    f = 1.0 * (t - ll)  # the fractional part of t
    g = min(f, 1.0 - f)
    ceilf = (1 if f > 0 else 0)
    roundf = (1 if f > 0.5 else 0)
    npwrs = 2 * (ll + 1)  # the most powers a convolution needs
    gpower = np.empty(npwrs)  # (g/n)^m / m!
    twogpower = np.empty(npwrs)  # (2g/n)^m / m!
    onem2gpower = np.empty(npwrs)  # ((1-2g)/n)^m / m!

    gpower[0] = 1.0
    twogpower[0] = 1.0
    onem2gpower[0] = 1.0
    expnt = 0
    g_over_n, two_g_over_n, one_minus_two_g_over_n = g / n, 2 * g / n, (1 - 2 * g) / n
    for m in range(1, npwrs):
        gpower[m] = gpower[m - 1] * g_over_n / m
        twogpower[m] = twogpower[m - 1] * two_g_over_n / m
        onem2gpower[m] = onem2gpower[m - 1] * one_minus_two_g_over_n / m

    V0 = np.zeros([npwrs])
    V1 = np.zeros([npwrs])
    V1[0] = 1  # the first row
    V0s, V1s = 0, 0  # where the two rows start

    j1, j2 = _pomeranz_compute_j1j2(0, n, ll, ceilf, roundf)
    for i in range(1, 2 * n + 2):
        k1 = j1
        V0, V1 = V1, V0
        V0s, V1s = V1s, V0s
        V1.fill(0.0)
        j1, j2 = _pomeranz_compute_j1j2(i, n, ll, ceilf, roundf)
        if i == 1 or i == 2 * n + 1:
            pwrs = gpower
        else:
            pwrs = (twogpower if i % 2 else onem2gpower)
        ln2 = j2 - k1 + 1
        if ln2 > 0:
            conv = np.convolve(V0[k1 - V0s:k1 - V0s + ln2], pwrs[:ln2])
            conv_start = j1 - k1
            conv_len = j2 - j1 + 1
            V1[:conv_len] = conv[conv_start:conv_start + conv_len]
            if 0 < np.max(V1) < _EM128:
                V1 *= _EP128
                expnt -= _E128
            V1s = V0s + j1 - k1

    # times n!
    ans = V1[n - V1s]
    for m in range(1, n + 1):
        if np.abs(ans) > _EP128:
            ans *= _EM128
            expnt += _E128
        ans *= m
    if expnt != 0:
        ans = np.ldexp(ans, expnt)
    return _clip(ans)


def _kolmogn_PelzGood(n, x):
    """P(D_n <= x) by the Pelz-Good approximation, for 0 < x < 1.

    The Li-Chien / Korolyuk expansion K0(z) + K1(z)/sqrt(n) + K2(z)/n +
    K3(z)/n^1.5, z = x sqrt(n), with each K transformed by the Jacobi theta
    functional equation into a series that converges fast for small z."""
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z ** 2, z ** 3, z ** 4, z ** 6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z below about 0.0417
        return 0.0
    q = np.exp(qlog)

    # coefficients of the terms of the sums for K1, K2 and K3
    k1a = -zsquared
    k1b = _PI_SQUARED / 4

    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16

    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z ** 8

    K0to3 = np.zeros(4)
    # sum c_i q^(i^2) over odd i by Horner's scheme
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m ** 2, m ** 4, m ** 6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b * msquared,
                           k2a + k2b * msquared + k2c * mfour,
                           k3a + k3b * msquared + k3c * mfour + k3d * msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    K0to3 /= np.array([z, 6 * zfour, 72 * z ** 7, 6480 * z ** 10])

    # the other terms, over all integers k: (pi^2 k^2) q^(k^2) in K2 and
    # (3 pi^2 k^2 z^2 - pi^4 k^4) q^(k^2) in K3
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q ** ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI / (-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI / (216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n
    return sum(K0to3)


def smirnov(n, x):
    """`scipy.special.smirnov(n, x)`, P(D_n^+ >= x), imported on first use."""
    from scipy.special import smirnov as one_sided

    return one_sided(n, x)


def _kolmogn_sf(n, x):
    """P(D_n >= x) for an integer n >= 1 and a 0-d float64 array
    0.5/n < x < 1: SciPy's `_kolmogn(n, x, cdf=False)`."""
    t = n * x
    if t <= 1.0:  # Ruben-Gambino: 1/2n <= x <= 1/n
        if t <= 0.5:  # x > 0.5/n, but n x rounds to 0.5
            return 1.0
        if n <= 140:
            prob = np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))
        else:
            prob = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2 * t - 1))
        return _clip(1.0 - prob)
    if t >= n - 1:  # Ruben-Gambino
        return _clip(2 * (1.0 - x) ** n)
    if x >= 0.5:  # exact: twice the one-sided law
        return _clip(2 * smirnov(n, x))

    nxsquared = t * x
    if n <= 140:
        if nxsquared <= 0.754693:
            return _clip(1.0 - _kolmogn_DMTW(n, x))
        if nxsquared <= 4:
            return _clip(1.0 - _kolmogn_Pomeranz(n, x))
        # Miller's approximation: twice the one-sided law
        return _clip(2 * smirnov(n, x))

    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return _clip(2 * smirnov(n, x))
    if n <= 100000 and n * x ** 1.5 <= 1.4:
        cdfprob = _kolmogn_DMTW(n, x)
    else:
        cdfprob = _kolmogn_PelzGood(n, x)
    return _clip(1.0 - cdfprob)


def kstwo_sf(d: float, n: int) -> float:
    """P(D_n >= d) for the two-sided one-sample KS statistic D_n of n
    points, n >= 1 integer-valued: SciPy's `kstwo.sf(d, n)`."""
    x = np.asarray(d, dtype=np.float64)  # 0-d, as `kstwo.sf` passes it on
    if x <= 0.5 / n:
        return 1.0
    if x >= 1.0:
        return 0.0
    return float(_kolmogn_sf(int(n), x))


def ks_1samp(x: np.ndarray, cdf: Callable[[float], float]) -> tuple[float, float]:
    """Two-sided one-sample KS statistic and exact p-value of the finite
    sample `x` against `cdf`: SciPy's `kstest(x, np.vectorize(cdf))` for a
    CDF that returns floats.  The values are read as floats whatever the
    CDF returns; `np.vectorize` alone takes its output type from the first
    value, so an integer 0 there would truncate every value to 0 or 1.
    A NaN CDF value is an `InputError`, where SciPy returns NaN for the
    statistic and the p-value."""
    n = x.size
    x = np.sort(x)
    cdfvals = np.vectorize(cdf, otypes=[float])(x)
    if np.isnan(cdfvals).any():
        raise InputError("the CDF returned NaN")
    dplus = (np.arange(1.0, n + 1) / n - cdfvals).max()
    dminus = (cdfvals - np.arange(0.0, n) / n).max()
    d = dplus if dplus > dminus else dminus
    return float(d), kstwo_sf(d, n)


def _compute_prob_outside_square(n: int, h: int) -> float:
    """P(D_{n,n} >= h/n): the share of lattice paths from (0, 0) to (n, n)
    that touch x - y = h or x - y = -h.

    The alternating sum 2 (binom(2n, n-h) - binom(2n, n-2h) + ...) /
    binom(2n, n) cancels badly; each term is divided by binom(2n, n) and
    the common factors are taken out, 2 A0 (1 - A1 (1 - A2 (1 - ...)))."""
    P = 0.0
    k = int(np.floor(n / h))
    while k >= 0:
        p1 = 1.0
        # each Ai has h factors above and h below
        for j in range(h):
            p1 = (n - k * h - j) * p1 / (n + k * h + j + 1)
        P = p1 * (1.0 - P)
        k -= 1
    return 2 * P


def _compute_outer_prob_inside_method(m: int, n: int, g: int, h: int) -> float:
    """The share of lattice paths from (0, 0) to (m, n) that leave the
    band |x/m - y/n| < h / lcm(m, n), for m, n > 0, g = gcd(m, n) and
    0 <= h <= lcm(m, n).

    Hodges' inside method counts the paths A(x, y) that stay strictly
    inside, A(x, y) = A(x - 1, y) + A(x, y - 1).  Viehmann's form carries
    the complement as a share instead of a count: a cell outside the band
    has share 1, a cell (0, y) inside has share 0, and inside

        P(x, y) = (P(x - 1, y) x + P(x, y - 1) y) / (x + y),

    which keeps every value in [0, 1] and needs no binomial coefficient.

    SciPy's compiled loop fills one column x at a time over the band's
    window of y, and each cell waits for the one below it.  Here the
    lattice is stepped by anti-diagonals x + y = s instead: a cell reads
    only cells of diagonal s - 1, so a diagonal's band is one numpy
    expression, with each cell's operations and their order unchanged and
    so the same floats.  A column whose window is empty lets no path
    through, and the share is 1.
    """
    if m < n:  # the share is symmetric in m and n; below m >= n
        m, n = n, m
    mg = m // g
    ng = n // g
    # column x's window of y inside the band: minj <= y < maxj
    cols = np.arange(m + 1)
    minj = np.minimum(np.maximum(np.floor((ng * cols - h) / mg).astype(np.int64) + 1, 0), n)
    minj[0] = 0
    maxj = np.minimum(np.ceil((ng * cols + h) / mg).astype(np.int64), n + 1)
    if np.any(maxj[1:] <= minj[1:]):
        return 1.0
    # x + minj and x + maxj increase strictly, so diagonal s meets the band
    # in one run lo <= x <= hi, and the runs move right as s grows
    diags = np.arange(m + n + 1)
    los = np.searchsorted(cols + maxj, diags, side="right").tolist()
    his = (np.searchsorted(cols + minj, diags, side="right") - 1).tolist()

    xs = cols.astype(float)
    # y = s - x on diagonal s is ys[m + n - s + x]
    ys = np.arange(m + n, -1, -1, dtype=float)
    P = np.ones(m + 1)  # P[x] = P(x, s - x): share 1 off the band
    P[0] = 0.0  # (0, 0)
    left = np.empty(m + 1)
    below = np.empty(m + 1)
    for s in range(1, m + n + 1):
        lo, hi = los[s], his[s]
        if lo == 0:
            lo = 1  # P[0] = P(0, s) stays 0
        if lo <= hi:
            a, b = left[:hi + 1 - lo], below[:hi + 1 - lo]
            np.multiply(P[lo - 1:hi], xs[lo:hi + 1], out=a)
            np.multiply(P[lo:hi + 1], ys[m + n - s + lo:m + n - s + hi + 1], out=b)
            np.add(a, b, out=a)
            np.divide(a, s, out=P[lo:hi + 1])
        # the cells of diagonal s - 1's run left of diagonal s's are off it
        P[los[s - 1]:min(los[s], his[s - 1] + 1)] = 1.0
    return float(P[m])


def _attempt_exact_2kssamp(n1: int, n2: int, g: int, d: float) -> tuple[bool, float, float]:
    """(success, d rounded to the lattice, exact two-sided p-value)."""
    lcm = (n1 // g) * n2
    h = int(np.round(d * lcm))
    d = h * 1.0 / lcm
    if h == 0:
        return True, d, 1.0
    if n1 == n2:
        prob = _compute_prob_outside_square(n1, h)
    else:
        prob = _compute_outer_prob_inside_method(n1, n2, g, h)
    return 0 <= prob <= 1, d, prob


def ks_2samp(data1: np.ndarray, data2: np.ndarray) -> tuple[float, float]:
    """Two-sided two-sample KS statistic and p-value of two nonempty
    finite samples: SciPy's `ks_2samp(data1, data2)`, exact up to
    `_MAX_EXACT_N` points a sample."""
    data1 = np.sort(data1)
    data2 = np.sort(data2)
    n1 = data1.shape[0]
    n2 = data2.shape[0]
    data_all = np.concatenate([data1, data2])
    # searchsorted counts ties on both sides alike
    cdf1 = np.searchsorted(data1, data_all, side='right') / n1
    cdf2 = np.searchsorted(data2, data_all, side='right') / n2
    cddiffs = cdf1 - cdf2
    minS = np.clip(-cddiffs.min(), 0, 1)
    maxS = cddiffs.max()
    d = minS if minS > maxS else maxS

    exact = max(n1, n2) <= _MAX_EXACT_N
    if exact:
        exact, d, prob = _attempt_exact_2kssamp(n1, n2, math.gcd(n1, n2), d)
    if not exact:
        m, n = sorted([float(n1), float(n2)], reverse=True)
        en = m * n / (m + n)
        prob = kstwo_sf(d, np.round(en))
    return float(d), float(prob)
