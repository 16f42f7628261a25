"""
diffusion.py
============
Numerical simulation of the diffusion-scale objects: the catalytic
square-root diffusion pair, the quenched limit contour built from a
reflected Brownian motion through the medium's scale function, the exact
random-evolution contour, and path functionals (local time, quadratic
variation, hitting times).

Conventions
-----------
* The mass pair solves  dX = sqrt(b1*X) dW,  dY = sqrt(b2*X*Y) dW'  with
  independent drivers, Euler-Maruyama with full truncation (negative
  proposals clipped to zero, zero absorbs).  Y's coefficient vanishes once
  X absorbs, so Y freezes automatically.
* Generator-to-SDE dictionary: a generator a(x) f'' corresponds to noise
  variance d<B> = 2 a(x) dt.  The limit contour's Brownian image B = s(zeta)
  has generator 2 X f'' and hence d<B> = 4 X dt; in the driving Brownian
  clock theta (d<beta> = dt) that is beta = B/2 with d theta = X du.  The
  engine below steps beta on a uniform theta grid, which keeps the step
  quality uniform; levels, depths, local-time estimates and realized
  quadratic sums are invariant under this reparameterization, and the
  natural-time stamps are returned as a cumulative time change.
* Particle-clock dictionary: the particle model's mass limits are the
  b -> 2b versions of the pair above (a constant time change); closed-form
  cross-checks between the modules always go through the stated formulas,
  never through pathwise identification.

Local time
----------
`local_time_estimate` implements the band estimator
(1/2 eps) * sum of squared path increments inside (t-eps, t+eps).  For the
limit contour this estimator equals  2/X_t  times the driving Brownian
occupation density at the mapped level, so the level-t mass carried by the
contour is  M_t = X_t * estimate / 2;  verification suites normalize depth
counts by M, under which the downward-excursion depth intensity is

    count(depth > d) per unit M/X_t-index = s'(t) / (s(t) - s(t-d)).

Under the same convention the contour's realized quadratic variation
accumulates (4 / X) per unit natural time (d<B> = 4 X dt maps to
d<zeta> = (4 / X) du); only ratios of quadratic sums are convention-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .contour import Excursion
from .errors import InputError, malformed_lines
from .particle import MassPath

DEFAULT_SDE_STEP = 1e-4
DEFAULT_CONTOUR_STEP = 1e-5


@dataclass
class DiffusionPath:
    """Uniform-grid sampled path; constant after absorption if absorbed.

    Contour paths produced by `simulate_limit_contour` also carry the
    driving reflected Brownian path and the scale function used to map it,
    so downstream censuses can work in the coordinate where increments are
    exactly Gaussian.
    """

    step: float
    values: np.ndarray
    absorbed_index: Optional[int] = None
    time_change: Optional[np.ndarray] = None  # natural-time stamps, optional
    brownian: Optional[np.ndarray] = None
    scale: Optional["ScaleFunction"] = None

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.step <= 0:
            raise InputError("grid step must be > 0")

    @property
    def duration(self) -> float:
        return self.step * (len(self.values) - 1)

    def times(self) -> np.ndarray:
        return self.step * np.arange(len(self.values))

    def value_at(self, t: float) -> float:
        return float(np.interp(t, self.times(), self.values))

    def first_hit_time(self, level: float) -> float:
        """First grid time the path is <= level; +inf if never."""
        hits = np.flatnonzero(self.values <= level)
        if hits.size == 0:
            return math.inf
        return float(hits[0] * self.step)

    def write(self, fh, seed: int | None = None) -> None:
        fh.write(f"# step={self.step!r} seed={seed} "
                 f"horizon={self.duration!r}\n")
        for v in self.values:
            fh.write(f"{float(v)!r}\n")

    @classmethod
    def read(cls, fh) -> "DiffusionPath":
        header = fh.readline()
        if not header.startswith("# step="):
            raise InputError("missing path header")
        with malformed_lines("diffusion path"):
            fields = dict(tok.split("=", 1) for tok in header[1:].split())
            values = np.array([float(line) for line in fh if line.strip()])
            step = float(fields["step"])
        return cls(step, values)


@dataclass
class SDEConfig:
    x0: float = 1.0
    y0: float = 1.0
    b1: float = 1.0
    b2: float = 1.0
    step: float = DEFAULT_SDE_STEP
    horizon: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("b1", "b2", "step", "horizon"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise InputError(f"{name} must be finite and > 0")
        for name in ("x0", "y0"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise InputError(f"{name} must be finite and >= 0")


def integrate_catalytic_feller(cfg: SDEConfig) -> tuple[DiffusionPath, DiffusionPath]:
    """Full-truncation Euler-Maruyama paths of the catalytic pair."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    n_steps = int(round(cfg.horizon / cfg.step))
    x = np.empty(n_steps + 1)
    y = np.empty(n_steps + 1)
    x[0], y[0] = cfg.x0, cfg.y0
    sqdt = math.sqrt(cfg.step)
    xa = ya = None
    for k in range(n_steps):
        xv, yv = x[k], y[k]
        if xv > 0.0:
            xn = xv + math.sqrt(cfg.b1 * xv) * sqdt * rng.standard_normal()
            xn = max(xn, 0.0)
        else:
            xn = 0.0
        if yv > 0.0 and xv > 0.0:
            yn = yv + math.sqrt(cfg.b2 * xv * yv) * sqdt * rng.standard_normal()
            yn = max(yn, 0.0)
        else:
            yn = yv if yv > 0.0 else 0.0
        x[k + 1], y[k + 1] = xn, yn
        if xa is None and xn == 0.0:
            xa = k + 1
        if ya is None and yn == 0.0:
            ya = k + 1
    return (DiffusionPath(cfg.step, x, absorbed_index=xa),
            DiffusionPath(cfg.step, y, absorbed_index=ya))


def hitting_race(n_replicas: int, cfg: SDEConfig,
                 epoch_horizon: float = 8.0,
                 max_epochs: int = 20) -> dict:
    """Vectorized race between the reactant and catalyst absorption times.

    Runs the pair at the configured step on [0, epoch_horizon], then doubles
    the step on successive doubled-length epochs (the pair is self-similar,
    so the relative resolution stays constant on survivors) until every
    replica resolved or the epoch cap is reached.  A replica resolves the
    moment either component hits zero: once X absorbs Y is frozen forever,
    and vice versa the race is decided.  Leftovers are split evenly and
    their fraction reported.

    Most steps resolve no replica, so the hit masks, tallies, tie coin and
    compaction of the survivors run only on steps where some replica hits.
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    # z[:m] catalyst, z[m:] reactant of the m live replicas, in the layout of
    # each step's 2m normals; w = [b1, ..., b1, b2*x] makes w*z the squared
    # noise scales [b1*x, (b2*x)*y]
    m = n_replicas
    z = np.empty(2 * m)
    z[:m] = cfg.x0
    z[m:] = cfg.y0
    w = np.full(2 * m, float(cfg.b1))
    reactant_first = 0
    catalyst_first = 0
    step = cfg.step
    epoch_len = epoch_horizon
    for _ in range(max_epochs):
        if m == 0:
            break
        n_steps = int(round(epoch_len / step))
        sqdt = math.sqrt(step)
        for _ in range(n_steps):
            noise = rng.standard_normal(2 * m)
            # x + sqrt(b1*x)*sqdt*noise and y + sqrt((b2*x)*y)*sqdt*noise,
            # in that operation order
            np.multiply(cfg.b2, z[:m], out=w[m:])
            zn = w * z
            np.sqrt(zn, out=zn)
            zn *= sqdt
            zn *= noise
            zn += z
            if zn.min() > 0.0:
                z = zn  # nothing hit, so clipping at 0 changes nothing
                continue
            np.maximum(zn, 0.0, out=zn)
            x_hit = zn[:m] == 0.0
            y_hit = zn[m:] == 0.0
            both = y_hit & x_hit
            reactant_first += int(np.count_nonzero(y_hit & ~x_hit))
            catalyst_first += int(np.count_nonzero(x_hit & ~y_hit))
            nb = int(np.count_nonzero(both))
            if nb:
                heads = int(np.count_nonzero(rng.random(nb) < 0.5))
                reactant_first += heads
                catalyst_first += nb - heads
            keep = ~(y_hit | x_hit)
            z = np.concatenate((zn[:m][keep], zn[m:][keep]))
            m = z.size // 2
            if m == 0:
                break
            w = np.full(2 * m, float(cfg.b1))
        epoch_len *= 2.0
        step *= 2.0
    unresolved = m
    reactant_first += unresolved // 2
    catalyst_first += unresolved - unresolved // 2
    p = reactant_first / n_replicas
    return {"p_reactant_first": p,
            "reactant_first": reactant_first,
            "catalyst_first": catalyst_first,
            "unresolved_fraction": unresolved / n_replicas,
            "se": math.sqrt(max(p * (1 - p), 1e-12) / n_replicas)}


# ---------------------------------------------------------------------- #
# Scale function                                                          #
# ---------------------------------------------------------------------- #

@dataclass
class ScaleFunction:
    """s(x) = integral of the medium up to x, on the medium's grid.

    `m` keeps the medium values on the same grid so the inverse problem and
    the natural-time change need no numerical differentiation.
    """

    x: np.ndarray
    s: np.ndarray
    m: np.ndarray

    def __call__(self, v):
        return np.interp(v, self.x, self.s)

    def inverse(self, w):
        return np.interp(w, self.s, self.x)

    def medium_at(self, v):
        return np.interp(v, self.x, self.m)

    @property
    def top(self) -> float:
        return float(self.s[-1])

    @property
    def x_top(self) -> float:
        return float(self.x[-1])


def scale_function(X: DiffusionPath, delta: float) -> ScaleFunction:
    """Cumulative trapezoid integral of X up to its first entrance into
    [0, delta] (the whole sampled range if it stays above)."""
    if delta < 0:
        raise InputError("threshold must be >= 0")
    vals = X.values
    if vals[0] <= delta:
        raise InputError("medium starts at or below the threshold")
    hits = np.flatnonzero(vals <= delta)
    end = int(hits[0]) + 1 if hits.size else len(vals)
    xs = X.step * np.arange(end)
    vs = vals[:end]
    s = np.concatenate([[0.0], np.cumsum(0.5 * (vs[1:] + vs[:-1]) * X.step)])
    return ScaleFunction(xs, s, vs.copy())


def scale_function_from_mass_path(medium: MassPath, delta: float,
                                  grid: float = 1e-3) -> ScaleFunction:
    """Scale function of a step-function medium, exact on a uniform grid."""
    cut = math.inf
    hits = np.flatnonzero(medium.values <= delta)
    if hits.size:
        cut = float(medium.times[hits[0]])
    if cut == 0.0:
        raise InputError("medium starts at or below the threshold")
    end = cut if math.isfinite(cut) else medium.horizon
    if not math.isfinite(end):
        raise InputError("medium never reaches the threshold; no finite top")
    n = max(2, int(round(end / grid)) + 1)
    xs = np.linspace(0.0, end, n)
    s = np.empty_like(xs)
    s[0] = 0.0
    for i in range(1, n):
        s[i] = s[i - 1] + medium.integral(xs[i - 1], xs[i])
    m = np.array([medium.value_at(v) for v in xs])
    return ScaleFunction(xs, s, m)


# ---------------------------------------------------------------------- #
# Limit contour engine                                                    #
# ---------------------------------------------------------------------- #

def simulate_limit_contour(X: DiffusionPath, delta: float,
                           local_time_budget: float,
                           seed: int = 0,
                           theta_step: float = DEFAULT_CONTOUR_STEP,
                           boundary_band: float | None = None,
                           max_steps: int = 50_000_000) -> DiffusionPath:
    """Quenched limit contour, stopped at a boundary local-time budget.

    The contour zeta lives on [0, tau_delta] (first entrance of the medium
    into [0, delta]); its Brownian image B = s(zeta) has d<B> = 4 X dt and
    reflects at 0 and s(tau_delta).  We step beta = B/2 on a uniform grid in
    the Brownian clock and stop once the one-sided occupation density of
    beta at 0 reaches the budget (the budget is the initial mass carried by
    the contour's forest).

    The returned path holds zeta on the Brownian-clock grid along with the
    natural-time stamps; see the module notes on reparameterization.
    """
    if delta <= 0:
        raise InputError("the limit contour needs a positive threshold")
    sf = scale_function(X, delta)
    return _limit_contour_from_scale(sf, local_time_budget, seed, theta_step,
                                     boundary_band, max_steps)


def _fold(path: np.ndarray, top: float) -> None:
    """Exact triangle map of a free path into [0, top], in place."""
    np.mod(path, 2.0 * top, out=path)
    np.subtract(path, top, out=path)
    np.abs(path, out=path)
    np.subtract(top, path, out=path)


def _limit_contour_from_scale(sf: ScaleFunction, budget: float, seed,
                              theta_step: float, boundary_band, max_steps):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    top = sf.top / 2.0  # beta reflects on [0, top]
    if top <= 0:
        raise InputError("degenerate scale range")
    sq = math.sqrt(theta_step)
    band = boundary_band if boundary_band is not None else 20.0 * sq
    # beta is re-folded and ell0 updated once per logical 65536-step chunk.
    # A chunk is evaluated in sub-blocks of 2048 steps and then of the size
    # done so far (doubling), stopping at the first sub-block that can close
    # the budget; carrying the raw cumulative sum and the integer occupation
    # count across sub-blocks gives the floats of a whole-chunk evaluation.
    chunk = 65536
    first_block = 2048
    per_step = theta_step / band
    beta = 0.0
    ell0 = 0.0
    pieces = [np.array([0.0])]
    steps = 0
    reached = False
    while steps < max_steps:
        blocks = []  # folded paths of this chunk's sub-blocks
        occs = []    # their running occupations
        raw = 0.0    # unfolded cumulative sum at the end of the last sub-block
        count = 0    # steps of this chunk spent below the band
        done = 0
        while done < chunk:
            size = min(max(first_block, done), chunk - done)
            path = rng.standard_normal(size) * sq
            if done:
                path[0] += raw
            np.cumsum(path, out=path)
            raw = float(path[-1])
            path += beta
            _fold(path, top)
            below = np.cumsum(path < band)
            below += count
            count = int(below[-1])
            occ = below * per_step
            blocks.append(path)
            occs.append(occ)
            done += size
            # both forms of the budget test hold, so the whole chunk would
            # stop, and in this sub-block or an earlier one
            if occ[-1] >= budget - ell0 and ell0 + occ[-1] >= budget:
                break
        if ell0 + occs[-1][-1] >= budget:
            # stop in the first sub-block whose occupation reaches the rest
            # of the budget; if rounding leaves none, take the whole chunk
            target = budget - ell0
            k = next((i for i, o in enumerate(occs) if o[-1] >= target),
                     len(occs) - 1)
            stop = int(np.searchsorted(occs[k], target)) + 1
            pieces.extend(blocks[:k])
            pieces.append(blocks[k][:stop])
            reached = True
            break
        pieces.extend(blocks)
        ell0 += float(occs[-1][-1])
        beta = float(blocks[-1][-1])
        steps += chunk
    if not reached:
        raise InputError("step cap reached before the local-time budget")
    beta_path = np.concatenate(pieces)
    zeta = sf.inverse(2.0 * beta_path)
    # natural-time stamps: du = dtheta / X(zeta)
    med = np.maximum(sf.medium_at(zeta), 1e-12)
    u = np.concatenate([[0.0], np.cumsum(theta_step / med[:-1])])
    return DiffusionPath(theta_step, zeta, time_change=u,
                         brownian=beta_path, scale=sf)


def bridge_refined_depths(beta: np.ndarray, level: float, step_var: float,
                          rng: np.random.Generator) -> np.ndarray:
    """Depths of complete downward excursions of a Brownian-grid path.

    Exact in law given the grid skeleton: per-step Brownian-bridge maxima
    split runs whose interiors cross back above the level unseen by the
    grid, and per-step bridge minima recover the continuous minimum of each
    excursion.  Depths are measured from the level, in the path's own
    coordinate; incomplete leading/trailing runs are dropped.
    """
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


def local_time_estimate(path, t: float, eps: float) -> float:
    """(1 / 2 eps) * sum of squared increments taken inside the band."""
    values = path.values if isinstance(path, DiffusionPath) else np.asarray(path, float)
    if eps <= 0:
        raise InputError("band half-width must be > 0")
    inside = np.abs(values[:-1] - t) < eps
    inc = np.diff(values)
    return float(np.sum(inc[inside] ** 2) / (2.0 * eps))


def cumulative_local_time(values: np.ndarray, t: float, eps: float) -> np.ndarray:
    """Running band estimator, aligned with the sample indices."""
    values = np.asarray(values, dtype=float)
    inc2 = np.diff(values) ** 2
    inside = np.abs(values[:-1] - t) < eps
    out = np.concatenate([[0.0], np.cumsum(inc2 * inside) / (2.0 * eps)])
    return out


def quadratic_variation(path) -> float:
    """Sum of squared increments at the sampling scale."""
    values = path.values if isinstance(path, DiffusionPath) else np.asarray(path, float)
    return float(np.sum(np.diff(values) ** 2))


# ---------------------------------------------------------------------- #
# Random evolution (exact quenched contour)                               #
# ---------------------------------------------------------------------- #

def simulate_random_evolution(catalyst: MassPath, n: int, delta: float,
                              seed: int = 0, b2: float = 1.0,
                              n_excursions: int = 1,
                              max_breakpoints: int = 20_000_000) -> Excursion:
    """Piecewise-linear contour of the quenched reactant forest.

    The height moves at slope +-2n and the slope sign flips at rate
    2 * n^2 * b2 * (catalyst mass at the current height) per unit traversal
    time, i.e. n * b2 * mass per unit height moved; the factor matches the
    particle model's clock convention, under which ascents end at
    no-offspring events and descents end at unexplored branch points, each
    at rate n * b2 * mass per unit height.  Reflection at 0 completes one
    excursion (one tree) and at the medium's threshold entrance time clips
    the forest.
    """
    if n_excursions < 1:
        raise InputError("need at least one excursion")
    top = _threshold_entrance(catalyst, delta)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    med_t = catalyst.times
    med_v = catalyst.values

    us = [0.0]
    hs = [0.0]
    h = 0.0
    v = 1.0  # slope sign
    u = 0.0
    done = 0
    target = rng.exponential()
    while done < n_excursions and len(us) < max_breakpoints:
        # one monotone run: from h toward a boundary unless the clock rings
        flipped = False
        while True:
            if v > 0:
                i = int(np.searchsorted(med_t, h, side="right")) - 1
                seg_end = med_t[i + 1] if i + 1 < med_t.size else math.inf
                seg_end = min(seg_end, top)
                span = seg_end - h
            else:
                i = int(np.searchsorted(med_t, h, side="left")) - 1
                i = max(i, 0)
                seg_end = float(med_t[i])
                span = h - seg_end
            rate_h = n * b2 * float(med_v[i])  # hazard per unit height moved
            if rate_h > 0.0 and target <= rate_h * span:
                h = h + v * target / rate_h
                target = rng.exponential()
                flipped = True
                break
            target -= rate_h * span
            h = seg_end
            if v > 0 and h >= top:
                break
            if v < 0 and h <= 0.0:
                h = 0.0
                break
        u += abs(h - hs[-1]) / (2.0 * n)
        us.append(u)
        hs.append(h)
        if flipped:
            v = -v
        elif h >= top:
            v = -1.0
        else:  # h == 0.0: excursion complete
            done += 1
            v = 1.0
    if hs[-1] != 0.0:
        raise InputError("breakpoint cap reached before the excursion closed")
    return Excursion(us, hs)


def _threshold_entrance(medium: MassPath, delta: float) -> float:
    hits = np.flatnonzero(medium.values <= delta)
    if hits.size == 0:
        raise InputError("medium never reaches the threshold")
    top = float(medium.times[hits[0]])
    if top <= 0.0:
        raise InputError("medium starts at or below the threshold")
    return top
