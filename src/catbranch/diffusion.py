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
  independent drivers by one scheme, full-truncation Euler-Maruyama: one
  normal per component and step, negative proposals clipped to zero, zero
  absorbs.  Y's coefficient vanishes once X absorbs, so Y freezes
  automatically.  The scheme has three forms: `_euler_step` steps many
  stacked replicas with numpy; `_feller_path` steps one path on Python
  floats, which avoids numpy's per-call cost on a path of one replica; and
  `_race_floats` steps the few pairs left in an absorption race on Python
  floats, with `_euler_step`'s normals and operation order, so its floats
  are the batch step's.  `hitting_race` uses the batch step while many
  replicas race, and `_race_floats` for its last `RACE_FLOAT_LANES`
  survivors.
* Generator-to-SDE dictionary: a generator a(x) f'' corresponds to noise
  variance d<B> = 2 a(x) dt.  The limit contour's Brownian image B = s(zeta)
  has generator 2 X f'' and hence d<B> = 4 X dt; in the driving Brownian
  clock theta (d<beta> = dt) that is beta = B/2 with d theta = X du.  The
  engine below steps beta on a uniform theta grid, which keeps the step
  quality uniform; levels, depths, local-time estimates and realized
  quadratic sums are invariant under this reparameterization, and the
  natural-time stamps are a cumulative time change, computed from the
  contour and its scale function on first access (no suite reads them).
  The contour's own values zeta = s^-1(2 beta) are likewise mapped on first
  read and cached, so `values == scale.inverse(2 * brownian)` holds for
  every contour; a local-time estimate maps only the steps near its band.
* The limit contour's local-time budget is counted in band steps: the
  contour stops on the `need`-th step that ends in the band [0, band),
  band = 20 sqrt(theta_step), where `need` is the least count whose
  occupation need * theta_step / band reaches the budget in floats.  An
  integer count carries no rounding from one block to the next, which a
  float sum of the blocks' occupations would.  beta is stepped in blocks of
  at most 16384 steps but re-folded into [0, top] only at every 65536th
  step, the unfolded cumulative sum carried in between: a fold moves the
  floats of every later step, so a fold per block would draw other contours
  than the pinned ones.
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
from functools import cached_property
from typing import Optional

import numpy as np

from ._columns import read_columns, write_rows
from .contour import Excursion
from .errors import InputError, malformed_lines
from .particle import MassPath, _positive_int, stopping_time

DEFAULT_SDE_STEP = 1e-4
DEFAULT_CONTOUR_STEP = 1e-5
DEFAULT_CONTOUR_STEP_CAP = 50_000_000

# Survivors at or below which `hitting_race` steps on Python floats.  On a
# 2-CPU Xeon with CPython 3.11 and numpy 2.4, a batch step costs 10-11.5 us
# for 1-32 survivors (eight numpy calls), and a float step about 2.1 us plus
# 0.4 us per survivor, so the two break even near 22 survivors; over 30
# races of 1000 replicas at step 1e-3, switching at 16, 24 and 32 survivors
# cut the race's time to 0.79, 0.76 and 0.79 of the batch step's alone.
# There about 10k of a race's 17.6k steps have 24 survivors or fewer.
RACE_FLOAT_LANES = 24


@dataclass
class DiffusionPath:
    """Uniform-grid sampled path; constant after absorption if absorbed."""

    step: float
    values: np.ndarray
    absorbed_index: Optional[int] = None

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if not 0.0 < self.step < math.inf:
            raise InputError("grid step must be finite and > 0")
        if not np.isfinite(self.values).all():
            raise InputError("path values must be finite")

    @property
    def duration(self) -> float:
        return self.step * (len(self.values) - 1)

    def times(self) -> np.ndarray:
        return self.step * np.arange(len(self.values))

    def value_at(self, t: float) -> float:
        return float(np.interp(t, self.times(), self.values))

    def first_hit_time(self, level: float) -> float:
        """First grid time the path is <= level; +inf if never."""
        if math.isnan(level):
            raise InputError("hitting level must not be NaN")
        i = _first_at_or_below(self.values, level)
        return math.inf if i is None else float(i * self.step)

    def write(self, fh, seed: int | None = None) -> None:
        fh.write(f"# step={self.step!r} seed={seed} "
                 f"horizon={self.duration!r}\n")
        write_rows(fh, [list(map(repr, self.values.tolist()))])

    @classmethod
    def read(cls, fh) -> "DiffusionPath":
        header = fh.readline()
        if not header.startswith("# step="):
            raise InputError("missing path header")
        with malformed_lines("diffusion path"):
            fields = dict(tok.split("=", 1) for tok in header[1:].split())
            (values,) = read_columns(fh.read(), "diffusion path", 1)
            values = np.array(values, dtype=float)
            step = float(fields["step"])
        return cls(step, values)


def _first_at_or_below(values: np.ndarray, level: float) -> int | None:
    """Index of the first value <= level, or None if there is none;
    `argmax` stops at the first hit, where `flatnonzero` would list them
    all (a frozen tail is one long run of hits)."""
    below = values <= level
    if below.size:
        i = int(below.argmax())
        if below[i]:
            return i
    return None


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


def _euler_step(rng: np.random.Generator, z: np.ndarray, w: np.ndarray,
                b2: float | None, sqdt: float) -> tuple[np.ndarray, bool]:
    """One Euler step z + sqrt(w*z)*sqdt*N of m stacked replicas, in that
    operation order, clipped at 0 only when some proposal is <= 0; returns
    the new z and whether any component is at 0.  z is [x..., y...] with b2
    given, or [x...] for the catalyst alone with b2 None, and N holds one
    normal per component in z's layout.  `w` holds b1 in its catalyst half;
    the step writes b2*x into its reactant half, so w*z is [b1*x, (b2*x)*y].
    """
    if b2 is not None:
        m = z.size // 2
        np.multiply(b2, z[:m], out=w[m:])
    zn = w * z
    np.sqrt(zn, out=zn)
    zn *= sqdt
    zn *= rng.standard_normal(z.size)
    zn += z
    if zn.min() > 0.0:
        return zn, False
    np.maximum(zn, 0.0, out=zn)
    return zn, True


def _feller_path(rng: np.random.Generator, n_steps: int, step: float,
                 x0: float, b: float, floor: float = 0.0,
                 clock: np.ndarray | None = None) -> np.ndarray:
    """One Euler path x + sqrt(x*b*step)*N on Python floats, clipped at 0,
    from x0 for `n_steps` steps and frozen from its first value <= `floor`;
    normals are drawn in blocks of 4096, only as far as the path needs them.
    A `clock` path c, which stays at 0 once it is 0, scales step k's normal
    by sqrt(c[k]): the reactant of the pair is this path with b = b2 on the
    catalyst's clock, frozen once the catalyst absorbs.

    `floor` must be >= 0: a step then needs one test, `xv <= floor`, since
    every negative proposal passes it and is clipped to 0 inside it."""
    sqrt = math.sqrt
    x = np.empty(n_steps + 1)
    x[0] = xv = x0
    bs = b * step
    k = 1
    while k <= n_steps and xv > floor and (clock is None or clock[k - 1] > 0.0):
        size = min(4096, n_steps + 1 - k)
        noise = rng.standard_normal(size)
        if clock is not None:
            noise *= np.sqrt(clock[k - 1:k - 1 + size])
        block = []
        append = block.append
        for nk in noise.tolist():
            xv = xv + sqrt(xv * bs) * nk
            if xv <= floor:
                if xv < 0.0:
                    xv = 0.0
                append(xv)
                break
            append(xv)
        x[k:k + len(block)] = block
        k += len(block)
    x[k:] = xv
    return x


def integrate_catalytic_feller(cfg: SDEConfig) -> tuple[DiffusionPath, DiffusionPath]:
    """Full-truncation Euler-Maruyama paths of the catalytic pair: the
    catalyst, then the reactant on the catalyst's clock, each absorbed at
    its first zero."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    n_steps = int(round(cfg.horizon / cfg.step))
    x = _feller_path(rng, n_steps, cfg.step, cfg.x0, cfg.b1)
    y = _feller_path(rng, n_steps, cfg.step, cfg.y0, cfg.b2, clock=x)
    paths = []
    for v in (x, y):
        zeros = np.flatnonzero(v == 0.0)
        paths.append(DiffusionPath(cfg.step, v, absorbed_index=(
            int(zeros[0]) if zeros.size else None)))
    return tuple(paths)


def hitting_race(n_replicas: int, cfg: SDEConfig,
                 epoch_horizon: float = 0.25,
                 max_epochs: int = 22) -> dict:
    """Vectorized race between the reactant and catalyst absorption times.

    Runs the pair at the configured step h on [0, epoch_horizon], then
    doubles the step on successive doubled-length epochs until every
    replica resolved or the epoch cap is reached: with the defaults the
    first epoch is e = 0.25, the step is h on [0, e], 2h on [e, 3e], 4h on
    [3e, 7e], and so on, every epoch takes the first one's step count, and
    22 epochs cover e (2^22 - 1), about 1e6 time units, by when a unit
    catalyst survives with probability about 2e-6 (2 x0 / (b1 t)), an upper
    bound on the unresolved fraction.  A replica resolves the moment either
    component hits zero: once X absorbs Y is frozen forever, and vice versa
    the race is decided; a replica whose components hit in the same step is
    decided by a fair coin.  Leftovers are split evenly and their fraction
    reported.

    The coarser steps rest on a measurement, not on an exact scaling: c X(t/c)
    is again the catalyst (from c x0), but Y is self-similar only in X's
    area clock, and c Y(t/c) has the rate b2 / c.  `tests/race_bias.py`
    measures p - target at the `hitting_prob` gate's step 1e-4 and 20 000
    replicas over seeds 101-110, each schedule on epochs that cover at
    least 1e6 time units:

        first epoch   mean p - target    SE
        8             +0.0015            0.0010
        1             +0.0001            0.0012
        0.5           -0.0011            0.0012
        0.25          +0.0003            0.0012
        1 minus 8     -0.0013            0.0013 (paired)
        0.5 minus 1   -0.0013            0.0014 (paired)
        0.25 minus 1  +0.0001            0.0014 (paired)

    against the gate's tolerance of 0.015.  The default is the shortest
    first epoch whose paired difference to the first epoch of 1 lies within
    one paired SE.  Over those seeds, on a 2-CPU Xeon, the race took 10.8 s
    a seed with a first epoch of 1, 8.1 s with 0.5 and 5.5 s with 0.25.
    Epochs after the last survivor resolved cost nothing: the loop stops at
    once.

    Most steps resolve no replica, so the hit masks, tallies, tie coin and
    compaction of the survivors run only on steps where some replica hits.
    Once at most `RACE_FLOAT_LANES` replicas survive, `_race_floats` steps
    them on Python floats, with the same draws and the same floats.
    """
    if n_replicas < 1:
        raise InputError("the race needs at least one replica")
    if not 0.0 < epoch_horizon < math.inf:
        raise InputError("epoch_horizon must be finite and > 0")
    if round(epoch_horizon / cfg.step) < 1:
        # every epoch has the first one's step count: none would step
        raise InputError("epoch_horizon must hold at least one step")
    if max_epochs < 1:
        raise InputError("the race needs at least one epoch")
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    b1, b2 = float(cfg.b1), float(cfg.b2)
    m = n_replicas
    z = np.empty(2 * m)
    z[:m] = cfg.x0
    z[m:] = cfg.y0
    w = np.full(2 * m, b1)
    lanes = None  # (xs, ys): the survivors as Python floats, once few are left
    tally = [0, 0]  # reactant first, catalyst first
    step = cfg.step
    epoch_len = epoch_horizon
    for _ in range(max_epochs):
        if m == 0:
            break
        n_steps = int(round(epoch_len / step))
        sqdt = math.sqrt(step)
        k = 0
        while lanes is None and k < n_steps:
            if m <= RACE_FLOAT_LANES:
                lanes = (z[:m].tolist(), z[m:].tolist())
                break
            k += 1
            z, hit = _euler_step(rng, z, w, b2, sqdt)
            if not hit:
                continue
            x_hit = z[:m] == 0.0
            y_hit = z[m:] == 0.0
            _tally_hits(rng, tally, int(np.count_nonzero(y_hit & ~x_hit)),
                        int(np.count_nonzero(x_hit & ~y_hit)),
                        int(np.count_nonzero(y_hit & x_hit)))
            keep = ~(y_hit | x_hit)
            z = np.concatenate((z[:m][keep], z[m:][keep]))
            m = z.size // 2
            w = np.full(2 * m, b1)
        if lanes is not None:
            m = _race_floats(rng, *lanes, b1, b2, sqdt, n_steps - k, tally)
        epoch_len *= 2.0
        step *= 2.0
    unresolved = m
    reactant_first = tally[0] + unresolved // 2
    catalyst_first = tally[1] + unresolved - unresolved // 2
    p = reactant_first / n_replicas
    return {"p_reactant_first": p,
            "reactant_first": reactant_first,
            "catalyst_first": catalyst_first,
            "unresolved_fraction": unresolved / n_replicas,
            "se": math.sqrt(max(p * (1 - p), 1e-12) / n_replicas)}


def _tally_hits(rng: np.random.Generator, tally: list, reactant: int,
                catalyst: int, both: int) -> None:
    """Add one step's resolved replicas to `tally`; the `both` replicas
    whose components hit together take one fair coin each."""
    tally[0] += reactant
    tally[1] += catalyst
    if both:
        heads = int(np.count_nonzero(rng.random(both) < 0.5))
        tally[0] += heads
        tally[1] += both - heads


def _race_floats(rng: np.random.Generator, xs: list, ys: list, b1: float,
                 b2: float, sqdt: float, n_steps: int, tally: list) -> int:
    """Up to `n_steps` race steps of the survivors `xs`, `ys` on Python
    floats; updates the lists and `tally` in place and returns the number
    of survivors.

    Each step draws `_euler_step`'s normals (x's, then y's) and applies its
    operations in its order, so the floats are the batch step's: a proposal
    <= 0 is the only value the batch step clips, and its replica leaves the
    race.  Hits are tallied, tie coins included, as in `hitting_race`.
    """
    sqrt = math.sqrt
    normal = rng.standard_normal
    m = len(xs)
    for _ in range(n_steps):
        if m == 0:
            break
        noise = normal(2 * m).tolist()
        hit = False
        for i in range(m):
            x = xs[i]
            y = ys[i]
            ys[i] = y = y + sqrt(b2 * x * y) * sqdt * noise[m + i]
            xs[i] = x = x + sqrt(b1 * x) * sqdt * noise[i]
            if x <= 0.0 or y <= 0.0:
                hit = True
        if not hit:
            continue
        reactant = catalyst = both = 0
        keep = []
        for i, (x, y) in enumerate(zip(xs, ys)):
            if x > 0.0 and y > 0.0:
                keep.append(i)
            elif x > 0.0:
                reactant += 1
            elif y > 0.0:
                catalyst += 1
            else:
                both += 1
        _tally_hits(rng, tally, reactant, catalyst, both)
        xs[:] = [xs[i] for i in keep]
        ys[:] = [ys[i] for i in keep]
        m = len(keep)
    return m


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
    if not delta >= 0:
        raise InputError("threshold must be >= 0")
    vals = X.values
    if not vals.size:
        raise InputError("medium has no samples")
    if vals[0] <= delta:
        raise InputError("medium starts at or below the threshold")
    hit = _first_at_or_below(vals, delta)
    end = len(vals) if hit is None else hit + 1
    xs = X.step * np.arange(end)
    vs = vals[:end]
    s = np.concatenate([[0.0], np.cumsum(0.5 * (vs[1:] + vs[:-1]) * X.step)])
    return ScaleFunction(xs, s, vs.copy())


# ---------------------------------------------------------------------- #
# Limit contour engine                                                    #
# ---------------------------------------------------------------------- #

def simulate_limit_contour(X: DiffusionPath, delta: float,
                           local_time_budget: float,
                           seed: int = 0,
                           theta_step: float = DEFAULT_CONTOUR_STEP,
                           max_steps: int = DEFAULT_CONTOUR_STEP_CAP) -> DiffusionPath:
    """Quenched limit contour, stopped at a boundary local-time budget.

    The contour zeta lives on [0, tau_delta] (first entrance of the medium
    into [0, delta]); its Brownian image B = s(zeta) has d<B> = 4 X dt and
    reflects at 0 and s(tau_delta).  We step beta = B/2 on a uniform grid in
    the Brownian clock and stop once the one-sided occupation density of
    beta at 0 (its time in the band [0, 20 sqrt(theta_step)) over the
    band's width) reaches the budget (the budget is the initial mass
    carried by the contour's forest).  The budget is counted in band steps,
    and `max_steps` is checked before each block of at most 16384 steps;
    see the module notes.

    The returned path holds zeta on the Brownian-clock grid; its natural-time
    stamps `time_change` are computed on first access.  See the module notes
    on reparameterization.
    """
    if not delta > 0:
        raise InputError("the limit contour needs a positive threshold")
    sf = scale_function(X, delta)
    return _limit_contour_from_scale(sf, local_time_budget, seed, theta_step,
                                     max_steps)


def _fold(path: np.ndarray, top: float) -> None:
    """Exact triangle map of a free path into [0, top], in place.

    `fmod` plus the period where it is negative is `np.mod` bit for bit for
    a period 2 top > 0: numpy's float `mod` is that sum, except that it
    turns a zero remainder into +0.0 where this leaves -0.0, and the next
    three ops take both zeros to the same 0.0.  It takes a third to two
    thirds of `mod`'s time, more as the path spans more periods."""
    period = 2.0 * top
    np.fmod(path, period, out=path)
    np.add(path, period, out=path, where=path < 0.0)
    np.subtract(path, top, out=path)
    np.abs(path, out=path)
    np.subtract(top, path, out=path)


class _StepCapReached(InputError):
    """The limit contour reached its step cap before its local-time
    budget: bad input where the caller chose the cap, an outcome of the
    draw where a suite draws many contours under one generous cap."""


def _limit_contour_from_scale(sf: ScaleFunction, budget: float, seed=0,
                              theta_step: float = DEFAULT_CONTOUR_STEP,
                              max_steps: int = DEFAULT_CONTOUR_STEP_CAP) -> DiffusionPath:
    """`simulate_limit_contour` on a given scale function."""
    for name, value in (("local-time budget", budget), ("theta_step", theta_step)):
        if not 0.0 < value < math.inf:
            raise InputError(f"{name} must be finite and > 0")
    top = sf.top / 2.0  # beta reflects on [0, top]
    if top <= 0:
        raise InputError("degenerate scale range")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sq = math.sqrt(theta_step)
    band = 20.0 * sq
    per_step = theta_step / band  # the occupation of one band step
    if budget / per_step > max_steps + 16384:
        # more band steps than the loop can take, or an infinite count
        raise _StepCapReached("step cap reached before the local-time budget")
    # the budget in band steps: the least count c with c * per_step >=
    # budget in floats (a ceil of the quotient can read one more)
    need = math.ceil(budget / per_step)
    while (need - 1) * per_step >= budget:
        need -= 1
    while need * per_step < budget:
        need += 1
    # blocks of 2048, 2048, 4096, 8192 and then 16384 steps tile every
    # 65536 steps, at which beta is re-folded; `raw` is the unfolded sum
    pieces = [np.array([0.0])]
    beta = raw = 0.0
    steps = count = 0  # steps taken, and how many of them end in the band
    while steps < max_steps:
        size = min(max(2048, steps), 16384)
        path = rng.standard_normal(size) * sq
        path[0] += raw
        np.cumsum(path, out=path)
        raw = float(path[-1])
        path += beta
        _fold(path, top)
        below = path < band
        hits = int(np.count_nonzero(below))
        if count + hits >= need:  # stop on the need-th band step
            stop = int(np.flatnonzero(below)[need - count - 1]) + 1
            pieces.append(path[:stop])
            return _LimitContour(theta_step, np.concatenate(pieces), sf)
        pieces.append(path)
        count += hits
        steps += size
        if steps % 65536 == 0:
            beta, raw = float(path[-1]), 0.0
    raise _StepCapReached("step cap reached before the local-time budget")


class _LimitContour(DiffusionPath):
    """A limit contour as `_limit_contour_from_scale` returns it: the
    driving path `brownian` (beta), in whose coordinate increments are
    exactly Gaussian, and the `scale` s.  The values zeta = s^-1(2 beta)
    and the natural-time stamps `time_change` are computed on first read
    and cached; `local_time_estimate` relies on the invariant
    `values == scale.inverse(2 * brownian)` to map only the steps near its
    band."""

    def __init__(self, step: float, brownian: np.ndarray,
                 scale: ScaleFunction) -> None:
        self.step = step
        self.absorbed_index = None
        self.brownian = brownian
        self.scale = scale

    @cached_property
    def values(self) -> np.ndarray:
        return self.scale.inverse(2.0 * self.brownian)

    @cached_property
    def time_change(self) -> np.ndarray:
        """Natural-time stamps, du = dtheta / X(zeta)."""
        med = np.maximum(self.scale.medium_at(self.values), 1e-12)
        return np.concatenate([[0.0], np.cumsum(self.step / med[:-1])])


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
    if not starts.size:
        return np.empty(0)
    # a run [s, e] of samples is cut into segments at its split steps: the
    # steps s ... e - 1 lie below the level, and only they can split, so
    # the split steps past the first kept start and before the last kept
    # end are the cuts, each one starting a segment; segment [a, b) reads
    # the bridge minima of its steps, an empty one (a cut on the run's
    # first step) the sample beta[a]
    cuts = np.flatnonzero(splits)
    cuts = cuts[(cuts >= starts[0]) & (cuts < ends[-1])]
    seg_start = np.sort(np.concatenate((starts, cuts)))
    seg_end = np.sort(np.concatenate((cuts, ends)))
    bounds = np.empty(2 * seg_start.size, dtype=np.intp)
    bounds[0::2], bounds[1::2] = seg_start, seg_end
    m = np.minimum.reduceat(mins, bounds)[0::2]
    return level - np.where(seg_end > seg_start, m, beta[seg_start])


def local_time_estimate(path, t: float, eps: float) -> float:
    """(1 / 2 eps) * sum of squared increments taken inside the band.

    On a limit contour only the steps that can start inside the band are
    mapped to zeta (`_band_steps`); they are the eager estimate's
    increments, in its order, so the result is the same float."""
    if not 0.0 < eps < math.inf:  # NaN fails too
        raise InputError(f"band half-width must be finite and > 0, got {eps!r}")
    if not math.isfinite(t):
        raise InputError(f"level must be finite, got {t!r}")
    if isinstance(path, _LimitContour):
        start, end = _band_steps(path.brownian, path.scale, t, eps)
    else:
        values = path.values if isinstance(path, DiffusionPath) else np.asarray(path, float)
        start, end = values[:-1], values[1:]
    inside = np.abs(start - t) < eps
    inc = end - start
    return float(np.sum(inc[inside] ** 2) / (2.0 * eps))


def _band_steps(beta: np.ndarray, sf: ScaleFunction, t: float,
                eps: float) -> tuple[np.ndarray, np.ndarray]:
    """zeta = s^-1(2 beta) at the start and the end of every step of a
    contour whose start can map into (t - eps, t + eps), in path order: a
    superset of the steps inside the band, mapped by the same `np.interp`
    floats as the whole path.

    s^-1 is linear on each cell [s_j, s_(j+1)] of the scale grid, returns
    x_j exactly at s_j and rounds monotonically inside a cell, so a start at
    or above s_b maps to at least x_b.  It can overshoot a cell's top
    x_(j+1) by a few ulps, far less than a grid cell, so a start below
    s_(a-1) maps below x_a.  With a the last knot and b the first whose
    x - t (the band test's subtraction, monotone in x) is <= -eps and
    >= eps, every start outside [s_(a-1), s_b) fails the band test."""
    d = sf.x - t
    a = int(np.count_nonzero(d <= -eps)) - 1
    b = sf.x.size - int(np.count_nonzero(d >= eps))
    lo = sf.s[a - 1] if a >= 1 else -math.inf
    hi = sf.s[b] if b < sf.x.size else math.inf
    w = 2.0 * beta
    idx = np.flatnonzero((w[:-1] >= lo) & (w[:-1] < hi))
    return sf.inverse(w[idx]), sf.inverse(w[idx + 1])


def quadratic_variation(path) -> float:
    """Sum of squared increments at the sampling scale."""
    values = path.values if isinstance(path, DiffusionPath) else np.asarray(path, float)
    return float(np.sum(np.diff(values) ** 2))


# ---------------------------------------------------------------------- #
# Random evolution (exact quenched contour)                               #
# ---------------------------------------------------------------------- #

# Breakpoints at which `simulate_random_evolution` stops; an excursion still
# open there raises `InputError`.
_MAX_BREAKPOINTS = 20_000_000


def simulate_random_evolution(catalyst: MassPath, n: int, delta: float,
                              seed: int = 0, b2: float = 1.0,
                              n_excursions: int = 1) -> Excursion:
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
    n = _positive_int(n, "rescaling index")
    if not 0.0 < b2 < math.inf:
        raise InputError("b2 must be finite and > 0")
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
    while done < n_excursions and len(us) < _MAX_BREAKPOINTS:
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
    top = stopping_time(medium, delta)
    if top == math.inf:
        raise InputError("medium never reaches the threshold")
    if top <= 0.0:
        raise InputError("medium starts at or below the threshold")
    return top
