"""
harness.py
==========
Named verification suites: each runs a seeded Monte Carlo experiment and
compares it against the closed-form laws in `oracles`, returning
self-describing reports.  Every suite is deterministic given its arguments;
the defaults are the sizes used by the acceptance tests and the CLI.

Suite registry (criterion numbers refer to the package's acceptance list in
tests/test_acceptance.py):

  hitting_prob        1   SDE absorption race vs closed form
  extinction          2   particle extinction law on a frozen medium
  mrca                3   neighbor MRCA height law at a level
  codec               4   forest <-> contour exactness
  points              5   point-process reconstruction vs direct distances
  representation      6   branch-event vs birth-death recordings
  random_evolution    7   particle contour law vs flip-clock contour
  limit_intensity     8   limit-contour excursion depth intensity
  reactant_intensity  9   rescaled particle depth counts vs limit intensity
  tree_count         10   zero-mark counts vs Poisson
  stretching         11   quenched metric stretching map
  comparison         12   different-tree probability inequality
  qv_dichotomy       13   quadratic-variation growth dichotomy
  criticality        14   martingale means (smoke)
"""

from __future__ import annotations

import json
import math
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import diffusion as dfn
from . import oracles as orc
from .contour import contour_from_forest
from .errors import InputError
from .forest import FamilyForest, random_binary_forest
from .particle import (MassPath, SimConfig, simulate_catalyst, simulate_joint,
                       simulate_reactant_quenched, stopping_time,
                       GALTON_WATSON, BIRTH_DEATH)
from .points import (pairwise_level_distances, point_process_at_level,
                     reconstruct_distance_matrix)
from .oracles import OracleReport

ALPHA = 0.01


# ---------------------------------------------------------------------- #
# helpers                                                                 #
# ---------------------------------------------------------------------- #

def _level_tree_sizes(forest: FamilyForest, t: float) -> list[int]:
    """Sizes of the level-t population per root tree (capped forests are
    read at their cap, where lineages continue unbranched)."""
    cap = forest.height_cap
    level = t if cap is None else min(t, cap)
    pts = forest.level_set(level)
    tidx = forest.tree_index()
    counts: dict[int, int] = {}
    for p in pts:
        k = tidx[p.node]
        counts[k] = counts.get(k, 0) + 1
    return list(counts.values())


def _different_tree_prob(sizes: Sequence[int]) -> float:
    k = sum(sizes)
    if k == 0:
        return math.nan
    return 1.0 - sum((m / k) ** 2 for m in sizes)


def _neighbor_heights(forest: FamilyForest, t: float) -> list[float]:
    cap = forest.height_cap
    level = t if cap is None else min(t, cap)
    return point_process_at_level(forest, level, 1.0).heights


def _x_identity_path(horizon: float = 2.0, step: float = 1e-3) -> dfn.DiffusionPath:
    n = int(round(horizon / step))
    return dfn.DiffusionPath(step, np.ones(n + 1))


def _sde_x_paths(n_replicas: int, t: float, step: float, seed: int,
                 b1: float = 1.0):
    """Vectorized catalyst-mass SDE paths on [0, t]; returns the running
    integral at t and the terminal values.  `b1` scales the squared noise
    (the particle catalyst's small-step limit corresponds to b1 = 2)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n_steps = int(round(t / step))
    x = np.full(n_replicas, 1.0)
    integral = np.zeros(n_replicas)
    sqdt = math.sqrt(step)
    for _ in range(n_steps):
        prev = x
        noise = rng.standard_normal(n_replicas)
        x = np.maximum(prev + np.sqrt(np.maximum(b1 * prev, 0.0)) * sqdt * noise, 0.0)
        integral += 0.5 * (prev + x) * step
    return integral, x


def _frozen_feller_path(rng: np.random.Generator, n_steps: int, step: float,
                        floor: float) -> np.ndarray:
    """Euler path x + sqrt(x*step)*N, clipped at 0, from x = 1 for `n_steps`
    steps, frozen from its first value at or below `floor`.  The steps run on
    Python floats over blocks of normals drawn only as far as the path needs
    them; the draws are those of one `standard_normal(n_steps)`, cut short."""
    x = np.empty(n_steps + 1)
    xv = 1.0
    x[0] = xv
    k = 1
    while k <= n_steps and xv > floor:
        block = []
        for nk in rng.standard_normal(min(4096, n_steps + 1 - k)).tolist():
            xv = xv + math.sqrt(xv * step) * nk
            if xv < 0.0:
                xv = 0.0
            block.append(xv)
            if xv <= floor:
                break
        x[k:k + len(block)] = block
        k += len(block)
    x[k:] = xv
    return x


# ---------------------------------------------------------------------- #
# 1. hitting probability                                                  #
# ---------------------------------------------------------------------- #

def run_hitting_prob(seed: int = 101, replicas: int = 20_000,
                     step: float = 1e-4) -> list[OracleReport]:
    cfg = dfn.SDEConfig(seed=seed, step=step)
    res = dfn.hitting_race(replicas, cfg)
    target = orc.hitting_probability(cfg.b1, cfg.b2, cfg.x0, cfg.y0)
    tol = 0.015
    p = res["p_reactant_first"]
    return [OracleReport(
        name="hitting_prob", law="absorption-race closed form",
        statistic=p, target=target, test=f"|p - target| <= {tol}",
        p_value=None, alpha_or_tol=tol, passed=abs(p - target) <= tol,
        details={"se": res["se"], "unresolved": res["unresolved_fraction"],
                 "replicas": replicas})]


# ---------------------------------------------------------------------- #
# 2. extinction law                                                       #
# ---------------------------------------------------------------------- #

def run_extinction(seed: int = 2_000_000, replicas: int = 20_000,
                   checkpoints: Sequence[float] = (0.5, 1.0, 2.0)) -> list[OracleReport]:
    medium = MassPath.constant(1.0)
    horizon = max(checkpoints)
    hits = {t: 0 for t in checkpoints}
    for i in range(replicas):
        cfg = SimConfig(n=1, b2=1.0, t_max=horizon, seed=seed + i)
        mass, _ = simulate_reactant_quenched(cfg, medium)
        at = stopping_time(mass, 0.0)
        for t in checkpoints:
            if at <= t:
                hits[t] += 1
    tol = 0.015
    out = []
    for t in checkpoints:
        emp = hits[t] / replicas
        target = orc.oracle_extinction_prob(1.0, t)
        out.append(OracleReport(
            name=f"extinction[t={t}]", law="extinction I/(1+I)",
            statistic=emp, target=target, test=f"|emp - target| <= {tol}",
            p_value=None, alpha_or_tol=tol, passed=abs(emp - target) <= tol,
            details={"replicas": replicas}))
    return out


# ---------------------------------------------------------------------- #
# 3. MRCA law                                                             #
# ---------------------------------------------------------------------- #

def run_mrca(seed: int = 3_000_000, replicas: int = 12_000,
             t: float = 1.0, min_samples: int = 5_000) -> list[OracleReport]:
    medium = MassPath.constant(1.0)
    heights: list[float] = []
    i = 0
    while len(heights) < min_samples and i < replicas:
        cfg = SimConfig(n=1, b2=1.0, t_max=t, seed=seed + i)
        _, forest = simulate_reactant_quenched(cfg, medium)
        heights.extend(_neighbor_heights(forest, t))
        i += 1
    stat, p = orc.ks_test(heights, lambda h: orc.oracle_mrca_cdf(1.0, t, h))
    return [OracleReport(
        name="mrca", law="neighbor MRCA height CDF",
        statistic=stat, target="KS", test="one-sample KS",
        p_value=p, alpha_or_tol=ALPHA, passed=p >= ALPHA,
        details={"pooled": len(heights),
                 "cdf_at_half": orc.oracle_mrca_cdf(1.0, t, t / 2)})]


# ---------------------------------------------------------------------- #
# 4. codec round trip                                                     #
# ---------------------------------------------------------------------- #

def run_codec(seed: int = 4, count: int = 1_000) -> list[OracleReport]:
    from .contour import tree_from_excursion
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(count):
        f = random_binary_forest(rng)
        e = contour_from_forest(f, 2.0)
        if tree_from_excursion(e).canonical_shape() != f.canonical_shape():
            bad += 1
        if e.duration != f.total_edge_length():  # dyadic lengths: exact
            bad += 1
    return [OracleReport(
        name="codec", law="decode(encode(f)) isometric to f, exactly",
        statistic=float(bad), target=0.0, test="exact equality",
        p_value=None, alpha_or_tol=0.0, passed=bad == 0,
        details={"forests": count})]


# ---------------------------------------------------------------------- #
# 5. point-process consistency                                            #
# ---------------------------------------------------------------------- #

def run_points(seed: int = 5, count: int = 1_000) -> list[OracleReport]:
    rng = np.random.default_rng(seed)
    bad = 0
    checked = 0
    for _ in range(count):
        f = random_binary_forest(rng)
        h = f.height()
        t = float(rng.uniform(0.2, 0.95)) * h
        pts = f.level_set(t)
        if len(pts) == 0:
            continue
        checked += 1
        pp = point_process_at_level(f, t, 1.0)
        rec = reconstruct_distance_matrix(pp)
        direct = pairwise_level_distances(f, t)
        if rec.shape != direct.shape or not np.array_equal(rec, direct):
            bad += 1
    return [OracleReport(
        name="points", law="ultrametric reconstruction equals direct distances",
        statistic=float(bad), target=0.0, test="exact equality",
        p_value=None, alpha_or_tol=0.0, passed=bad == 0 and checked > 0,
        details={"forests_checked": checked})]


# ---------------------------------------------------------------------- #
# 6. representation equivalence                                           #
# ---------------------------------------------------------------------- #

def run_representation(seed: int = 6_000_000, replicas: int = 10_000,
                       horizon: float = 30.0, level: float = 1.0) -> list[OracleReport]:
    data = {}
    # disjoint seed blocks: the comparison is two-sample by design
    for block, rep_kind in enumerate((GALTON_WATSON, BIRTH_DEATH)):
        ext, pop, maxd = [], [], []
        for i in range(replicas):
            cfg = SimConfig(n=1, b1=1.0, t_max=horizon,
                            seed=seed + block * replicas + i,
                            representation=rep_kind)
            mass, forest = simulate_catalyst(cfg)
            ext.append(min(stopping_time(mass, 0.0), horizon))
            k = len(forest.level_set(min(level, horizon)))
            pop.append(k)
            if k >= 2:
                heights = _neighbor_heights(forest, level)
                maxd.append(2.0 * (level - min(heights)))
        data[rep_kind] = (ext, pop, maxd)
    out = []
    for name, idx in (("extinction_time", 0), ("level_population", 1),
                      ("level_max_distance", 2)):
        stat, p = orc.two_sample_ks(data[GALTON_WATSON][idx], data[BIRTH_DEATH][idx])
        out.append(OracleReport(
            name=f"representation[{name}]", law="recordings agree in law",
            statistic=stat, target="two-sample KS", test="two-sample KS",
            p_value=p, alpha_or_tol=ALPHA, passed=p >= ALPHA,
            details={"n_gw": len(data[GALTON_WATSON][idx]),
                     "n_bd": len(data[BIRTH_DEATH][idx])}))
    return out


# ---------------------------------------------------------------------- #
# 7. random-evolution equivalence                                         #
# ---------------------------------------------------------------------- #

def saved_catalyst(seed: int = 4) -> MassPath:
    """The frozen unit-scale catalyst realization used by suite 7."""
    mass, _ = simulate_catalyst(SimConfig(n=1, b1=1.0, seed=seed))
    return mass


def run_random_evolution(seed: int = 7_000_000, replicas: int = 3_000,
                         delta: float = 0.2,
                         catalyst_seed: int = 4) -> list[OracleReport]:
    medium = saved_catalyst(catalyst_seed)
    heights_p, leaves_p = [], []
    for i in range(replicas):
        cfg = SimConfig(n=1, b2=1.0, delta=delta, seed=seed + i, t_max=50.0)
        _, forest = simulate_reactant_quenched(cfg, medium)
        heights_p.append(forest.height())
        leaves_p.append(forest.leaf_count())
    exc = dfn.simulate_random_evolution(medium, 1, delta, seed=seed - 1,
                                        n_excursions=replicas)
    hs = np.asarray(exc.e)
    zeros = np.flatnonzero(hs == 0.0)
    heights_r, leaves_r = [], []
    for a, b in zip(zeros[:-1], zeros[1:]):
        seg = hs[a:b + 1]
        heights_r.append(float(seg.max()))
        interior = seg[1:-1]
        leaves_r.append(int(np.sum((interior > seg[:-2]) & (interior > seg[2:]))))
    _, p_h = orc.two_sample_ks(heights_p, heights_r)
    p_l = orc.two_sample_counts_chi2(leaves_p, leaves_r)
    mk = lambda nm, p, stat: OracleReport(
        name=f"random_evolution[{nm}]", law="contour law equals flip-clock law",
        statistic=stat, target="two-sample", test="KS" if nm == "height" else "chi2",
        p_value=p, alpha_or_tol=ALPHA, passed=p >= ALPHA,
        details={"replicas": replicas, "truncation_top": stopping_time(medium, delta)})
    return [mk("height", p_h, float(np.mean(heights_p) - np.mean(heights_r))),
            mk("leaf_count", p_l, float(np.mean(leaves_p) - np.mean(leaves_r)))]


# ---------------------------------------------------------------------- #
# 8. limit-contour excursion intensity                                    #
# ---------------------------------------------------------------------- #

def run_limit_intensity(seed: int = 8_000_000, replicas: int = 300,
                        t: float = 1.0,
                        bins: Sequence[tuple[float, float]] = ((0.1, 0.3), (0.3, 0.5), (0.5, 0.9)),
                        theta_step: float = 1e-5,
                        budget: float = 1.0) -> list[OracleReport]:
    X = _x_identity_path(horizon=2.0)
    nu = np.array([orc.oracle_brownian_intensity(1.0, t, h1, h2) for h1, h2 in bins])
    census_rng = np.random.default_rng(np.random.SeedSequence(seed + 7))
    counts = np.zeros((replicas, len(bins)))
    masses = np.zeros(replicas)
    for i in range(replicas):
        z = dfn.simulate_limit_contour(X, 0.5, budget, seed=seed + i,
                                       theta_step=theta_step)
        sf = z.scale
        w_t = float(sf(t)) / 2.0
        x_t = float(sf.medium_at(t))
        masses[i] = x_t * dfn.local_time_estimate(z, t, 0.02) / 2.0
        depths_b = dfn.bridge_refined_depths(z.brownian, w_t, theta_step,
                                             census_rng)
        hs = sf.inverse(2.0 * (w_t - depths_b))
        for k, (h1, h2) in enumerate(bins):
            counts[i, k] = np.sum((hs > h1) & (hs <= h2))
    keep = masses > 0  # replicas whose contour never reached the level carry
    out = []           # no conditional information (their counts are zero)
    for k, (h1, h2) in enumerate(bins):
        means = masses[keep] * nu[k]
        p = orc.poisson_count_test(counts[keep, k], means, seed=seed + 13 + k)
        out.append(OracleReport(
            name=f"limit_intensity[({h1},{h2}]]", law="depth intensity per unit level mass",
            statistic=float(counts[keep, k].sum() / means.sum()),
            target=1.0, test="MC Poisson", p_value=p,
            alpha_or_tol=ALPHA, passed=p >= ALPHA,
            details={"observed": float(counts[keep, k].sum()),
                     "expected": float(means.sum()),
                     "replicas_kept": int(keep.sum())}))
    return out


# ---------------------------------------------------------------------- #
# 9. reactant limit intensity at finite rescaling                         #
# ---------------------------------------------------------------------- #

def _depth_census_particle(n: int, b2: float, replicas: int, seed: int,
                           t: float, bins) -> tuple[np.ndarray, np.ndarray]:
    medium = MassPath.constant(1.0)
    counts = np.zeros((replicas, len(bins)))
    masses = np.zeros(replicas)
    for i in range(replicas):
        cfg = SimConfig(n=n, b2=b2, t_max=t, seed=seed + i)
        mass, forest = simulate_reactant_quenched(cfg, medium)
        masses[i] = mass.value_at(t)
        for h in _neighbor_heights(forest, t):
            for k, (h1, h2) in enumerate(bins):
                if h1 < h <= h2:
                    counts[i, k] += 1
    return counts, masses


def run_reactant_intensity(seed: int = 9_000_000, replicas: int = 50,
                           n: int = 50, t: float = 1.0,
                           bins=((0.1, 0.3), (0.3, 0.5), (0.5, 0.8)),
                           document_n: int = 100,
                           document_replicas: int = 50) -> list[OracleReport]:
    """Binned depth counts of the rescaled particle model against the limit
    intensity, pooled over replicas conditional on the level mass.

    The replica count is sized so the known finite-rescaling deviation of
    the gap law (exactly computable; about -11% on the deepest bin at
    n = 50) stays well below the chi-square detection threshold, while
    factor-level rate errors remain decisively detectable.  A doubled-n run
    documents that the deviation shrinks; it gates nothing, and it is left
    out when `document_replicas` is 0.
    """
    nu = np.array([orc.oracle_reactant_intensity(1.0, 1.0, t, h1, h2)
                   for h1, h2 in bins])
    counts, masses = _depth_census_particle(n, 1.0, replicas, seed, t, bins)
    keep = masses > 0
    pooled_obs = counts[keep].sum(axis=0)
    pooled_exp = masses[keep].sum() * nu
    p = orc.poisson_count_test(pooled_obs, pooled_exp, seed=seed + 5)
    ratio_n = pooled_obs / pooled_exp
    reports = [OracleReport(
        name=f"reactant_intensity[n={n}]", law="limit depth intensity",
        statistic=float(pooled_obs.sum() / pooled_exp.sum()), target=1.0,
        test="MC Poisson chi2 (pooled bins)", p_value=p, alpha_or_tol=ALPHA,
        passed=p >= ALPHA,
        details={"observed_per_bin": pooled_obs.tolist(),
                 "expected_per_bin": pooled_exp.tolist(),
                 "replicas": replicas})]
    if document_replicas < 1:
        return reports
    # residual-bias documentation at a finer rescaling: reported, not gated
    counts2, masses2 = _depth_census_particle(document_n, 1.0,
                                              document_replicas, seed + 77, t, bins)
    keep2 = masses2 > 0
    ratio_2n = counts2[keep2].sum(axis=0) / (masses2[keep2].sum() * nu)
    reports.append(OracleReport(
        name=f"reactant_intensity[n={document_n}, documentation]",
        law="finite-rescaling bias shrinks with n",
        statistic=float(np.mean(np.abs(ratio_2n - 1.0))),
        target=f"< deviation at n={n} ({np.mean(np.abs(ratio_n - 1.0)):.4f})",
        test="documentation only", p_value=None, alpha_or_tol=math.nan,
        passed=True,
        details={"ratios_n": ratio_n.tolist(), "ratios_2n": ratio_2n.tolist()}))
    return reports


# ---------------------------------------------------------------------- #
# 10. tree-count Poisson                                                  #
# ---------------------------------------------------------------------- #

def run_tree_count(seed: int = 10_000_000, replicas: int = 600,
                   n: int = 50, t: float = 1.0) -> list[OracleReport]:
    """Distinct-tree counts at the level versus their Poisson limit.

    The zero marks of the level point process separate distinct trees, so
    the count of trees with level-t survivors is marks + 1 on nonempty
    levels; unconditionally it is Binomial(#initial particles, survival)
    and converges to Poisson(1 / int_0^t medium).  Conditioning the mark
    count on the level mass instead would tilt it to the heavier
    size-composition posterior, which is not the Poisson statement.
    """
    medium = MassPath.constant(1.0)
    counts = np.zeros(replicas)
    for i in range(replicas):
        cfg = SimConfig(n=n, b2=1.0, t_max=t, seed=seed + i)
        mass, forest = simulate_reactant_quenched(cfg, medium)
        if mass.value_at(t) <= 0.0:
            continue
        hs = _neighbor_heights(forest, t)
        counts[i] = sum(1 for h in hs if h == 0.0) + 1.0
    mean = 1.0 / medium.integral(0.0, t)
    p = orc.poisson_count_test(counts, mean, seed=seed + 3)
    return [OracleReport(
        name="tree_count", law="level tree count Poisson(1 / int X)",
        statistic=float(counts.mean()), target=mean,
        test="MC Poisson dispersion", p_value=p, alpha_or_tol=ALPHA,
        passed=p >= ALPHA,
        details={"replicas": replicas, "variance": float(counts.var()),
                 "finite_n_mean": n / (1.0 + n * medium.integral(0.0, t))})]


# ---------------------------------------------------------------------- #
# 11. stretching map                                                      #
# ---------------------------------------------------------------------- #

def run_stretching(seed: int = 11_000_000, replicas: int = 150,
                   n: int = 40, t: float = 1.0,
                   medium_value: float = 2.0) -> list[OracleReport]:
    # quenched reactant in a constant medium, level t
    medium = MassPath.constant(medium_value)
    depths_reactant: list[float] = []
    for i in range(replicas):
        cfg = SimConfig(n=n, b2=1.0, t_max=t, seed=seed + i)
        _, forest = simulate_reactant_quenched(cfg, medium)
        depths_reactant.extend(t - h for h in _neighbor_heights(forest, t))
    # constant-rate population read at the stretched level
    t_z = orc.stretch_map(medium, t, t)  # = medium_value * t
    depths_classic: list[float] = []
    for i in range(replicas):
        cfg = SimConfig(n=n, b1=1.0, t_max=t_z, seed=seed + 500_000 + i)
        _, forest = simulate_catalyst(cfg)
        depths_classic.extend(t_z - h for h in _neighbor_heights(forest, t_z))
    mapped = [orc.stretch_map_inverse(medium, t, d) for d in depths_classic]
    stat, p = orc.two_sample_ks(depths_reactant, mapped)
    return [OracleReport(
        name="stretching", law="metric stretching by the backward medium integral",
        statistic=stat, target="two-sample KS", test="two-sample KS",
        p_value=p, alpha_or_tol=ALPHA, passed=p >= ALPHA,
        details={"n_reactant": len(depths_reactant),
                 "n_classic": len(depths_classic), "stretched_level": t_z})]


# ---------------------------------------------------------------------- #
# 12. comparison inequality                                               #
# ---------------------------------------------------------------------- #

def run_comparison(seed: int = 12_000_000, replicas: int = 700,
                   n: int = 40, checkpoints: Sequence[float] = (0.5, 1.0),
                   z_replicas: int = 6_000, tol: float = 0.02) -> list[OracleReport]:
    out = []
    for idx, t in enumerate(checkpoints):
        # match expected tree counts: the constant-rate forest from mass z
        # has z/t expected trees at height t, the quenched-medium forest
        # E[1 / int_0^t medium]; the medium follows the particle clock, so
        # its integral law is that of the b1=2 square-root diffusion
        integrals, _ = _sde_x_paths(z_replicas, t, 1e-3, seed + 17 + idx,
                                    b1=2.0)
        z = t * float(np.mean(1.0 / np.maximum(integrals, 1e-9)))
        # an extinct level contributes zero to the pair integral (the level
        # measure has no mass), so dead replicas count as zeros rather than
        # being dropped; dropping them conditions the two sides on survival
        # events with different probabilities and breaks the comparison
        react = []
        base = seed + 1000 * idx
        for i in range(replicas):
            cfg = SimConfig(n=n, t_max=t + 0.25, seed=base + i)
            _, (rm, rf) = simulate_joint(cfg)
            sizes = _level_tree_sizes(rf, t)
            p_hat = _different_tree_prob(sizes)
            react.append(0.0 if math.isnan(p_hat) else p_hat)
        classic = []
        z_mass = max(round(z * n), 1) / n
        for i in range(replicas):
            cfg = SimConfig(n=n, b1=1.0, t_max=t, seed=base + 500_000 + i,
                            initial_catalyst_mass=z_mass)
            _, forest = simulate_catalyst(cfg)
            sizes = _level_tree_sizes(forest, t)
            p_hat = _different_tree_prob(sizes)
            classic.append(0.0 if math.isnan(p_hat) else p_hat)
        r_mean, r_se = orc.mean_confidence(react)
        c_mean, c_se = orc.mean_confidence(classic)
        gap = r_mean - c_mean
        out.append(OracleReport(
            name=f"comparison[t={t}]",
            law="different-tree probability: quenched-medium <= constant-rate",
            statistic=gap, target=f"<= {tol}", test="mean difference with CI",
            p_value=None, alpha_or_tol=tol, passed=gap <= tol,
            details={"reactant": r_mean, "reactant_se": r_se,
                     "classic": c_mean, "classic_se": c_se,
                     "matched_initial_mass": z_mass, "z": z}))
    return out


# ---------------------------------------------------------------------- #
# 13. quadratic-variation dichotomy                                       #
# ---------------------------------------------------------------------- #

def run_qv_dichotomy(seed: int = 555, replicas: int = 500,
                     deltas: Sequence[float] = (0.2, 0.1, 0.05, 0.02),
                     theta_step: float = 1e-5, budget: float = 1.0,
                     x_horizon: float = 14.0) -> list[OracleReport]:
    qt, qr = [], []
    mono_bad = 0
    kept = 0
    for rep in range(replicas):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                           spawn_key=(rep,)))
        step = 2e-4
        n_steps = int(round(x_horizon / step))
        x = _frozen_feller_path(rng, n_steps, step, deltas[-1])
        if x[-1] > deltas[-1]:
            continue  # catalyst outlived the horizon; conditioning documented
        X = dfn.DiffusionPath(step, x)
        kept += 1
        sf = dfn.scale_function(X, deltas[-1])
        taus = [X.first_hit_time(d) for d in deltas]
        z = dfn._limit_contour_from_scale(sf, budget, seed=seed * 1_000_003 + rep,
                                          theta_step=theta_step,
                                          boundary_band=None,
                                          max_steps=80_000_000)
        zeta = z.values
        dz2 = np.diff(zeta) ** 2
        below = zeta[:-1]
        qv = np.array([float(dz2[below <= tau].sum()) for tau in taus])
        if not np.all(np.diff(qv) >= 0.0):
            mono_bad += 1
        w_top = sf.top / 2.0
        top_hit = z.brownian.max() >= w_top - 3.0 * math.sqrt(theta_step)
        (qt if top_hit else qr).append(qv)
    qt_arr, qr_arr = np.array(qt), np.array(qr)
    rt = qt_arr[:, -1] / qt_arr[:, 0]
    rr = qr_arr[:, -1] / qr_arr[:, 0]
    rt_m = float(rt.mean())
    rr_m = float(rr.mean())
    return [
        OracleReport(
            name="qv_dichotomy[monotone]", law="restricted sums grow as the cut rises",
            statistic=float(mono_bad), target=0.0, test="exact (coupled excision)",
            p_value=None, alpha_or_tol=0.0, passed=mono_bad == 0,
            details={"kept": kept}),
        OracleReport(
            name="qv_dichotomy[medium-outlives-forest]",
            law="QV grows without bound as the threshold drops",
            statistic=rt_m, target="> 3", test="conditional mean of ratios",
            p_value=None, alpha_or_tol=3.0, passed=rt_m > 3.0,
            details={"n": int(rt.size), "se": float(rt.std() / math.sqrt(rt.size)),
                     "median": float(np.median(rt)),
                     "qv_curve": qt_arr.mean(axis=0).tolist()}),
        OracleReport(
            name="qv_dichotomy[forest-dies-first]",
            law="QV stabilizes once the cut clears the forest",
            statistic=rr_m, target="< 1.5", test="conditional mean of ratios",
            p_value=None, alpha_or_tol=1.5, passed=rr_m < 1.5,
            details={"n": int(rr.size), "se": float(rr.std() / math.sqrt(rr.size)),
                     "median": float(np.median(rr)),
                     "qv_curve": qr_arr.mean(axis=0).tolist()}),
    ]


# ---------------------------------------------------------------------- #
# 14. criticality martingale smoke test                                   #
# ---------------------------------------------------------------------- #

def run_criticality(seed: int = 14_000_000, replicas: int = 4_000,
                    n: int = 20, checkpoints: Sequence[float] = (0.25, 0.5, 1.0),
                    sde_replicas: int = 20_000) -> list[OracleReport]:
    cat = np.zeros((replicas, len(checkpoints)))
    rea = np.zeros((replicas, len(checkpoints)))
    for i in range(replicas):
        cfg = SimConfig(n=n, t_max=max(checkpoints), seed=seed + i)
        (cm, _), (rm, _) = simulate_joint(cfg)
        for k, t in enumerate(checkpoints):
            cat[i, k] = cm.value_at(t)
            rea[i, k] = rm.value_at(t)
    out = []
    for label, arr in (("catalyst", cat), ("reactant", rea)):
        worst = 0.0
        for k, t in enumerate(checkpoints):
            m, se = orc.mean_confidence(arr[:, k])
            worst = max(worst, abs(m - 1.0) / se)
        out.append(OracleReport(
            name=f"criticality[{label}]", law="total mass is a martingale",
            statistic=worst, target="<= 3 SE", test="mean flatness",
            p_value=None, alpha_or_tol=3.0, passed=worst <= 3.0,
            details={"replicas": replicas, "checkpoints": list(checkpoints)}))
    # SDE pair
    rng = np.random.default_rng(np.random.SeedSequence(seed + 99))
    step = 1e-3
    x = np.full(sde_replicas, 1.0)
    y = np.full(sde_replicas, 1.0)
    worst_x = worst_y = 0.0
    t_now = 0.0
    sqdt = math.sqrt(step)
    for t in checkpoints:
        n_steps = int(round((t - t_now) / step))
        for _ in range(n_steps):
            noise = rng.standard_normal(2 * sde_replicas)
            x_new = np.maximum(x + np.sqrt(x) * sqdt * noise[:sde_replicas], 0.0)
            y = np.maximum(y + np.sqrt(x * y) * sqdt * noise[sde_replicas:], 0.0)
            x = x_new
        t_now = t
        mx, sx = float(x.mean()), float(x.std() / math.sqrt(sde_replicas))
        my, sy = float(y.mean()), float(y.std() / math.sqrt(sde_replicas))
        worst_x = max(worst_x, abs(mx - 1.0) / sx)
        worst_y = max(worst_y, abs(my - 1.0) / sy)
    for label, worst in (("X", worst_x), ("Y", worst_y)):
        out.append(OracleReport(
            name=f"criticality[{label}]", law="SDE mass is a martingale",
            statistic=worst, target="<= 3 SE", test="mean flatness",
            p_value=None, alpha_or_tol=3.0, passed=worst <= 3.0,
            details={"replicas": sde_replicas}))
    return out


# ---------------------------------------------------------------------- #
# registry                                                                #
# ---------------------------------------------------------------------- #

SUITES: dict[str, Callable[..., list[OracleReport]]] = {
    "hitting_prob": run_hitting_prob,
    "extinction": run_extinction,
    "mrca": run_mrca,
    "codec": run_codec,
    "points": run_points,
    "representation": run_representation,
    "random_evolution": run_random_evolution,
    "limit_intensity": run_limit_intensity,
    "reactant_intensity": run_reactant_intensity,
    "tree_count": run_tree_count,
    "stretching": run_stretching,
    "comparison": run_comparison,
    "qv_dichotomy": run_qv_dichotomy,
    "criticality": run_criticality,
}


def run_suites(names: Iterable[str], overrides: Optional[dict] = None,
               echo: bool = True) -> tuple[list[OracleReport], bool]:
    overrides = overrides or {}
    reports: list[OracleReport] = []
    for name in names:
        if name not in SUITES:
            raise InputError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
        kwargs = overrides.get(name, {})
        got = SUITES[name](**kwargs)
        reports.extend(got)
        if echo:
            for r in got:
                print(r.line())
    all_pass = all(r.passed for r in reports)
    return reports, all_pass


def reports_to_json(reports: Sequence[OracleReport]) -> str:
    def fallback(obj):
        if isinstance(obj, (np.integer,)):
            return int(obj)
        if isinstance(obj, (np.floating,)):
            return float(obj)
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        return str(obj)

    return json.dumps([r.to_json_dict() for r in reports], indent=2,
                      default=fallback)
