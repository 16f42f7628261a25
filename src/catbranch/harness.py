"""
harness.py
==========
Named verification suites: each runs a seeded Monte Carlo experiment and
compares it against the closed-form laws in `oracles`, returning
self-describing reports.  Laws, sizes, tolerances and levels are constants
in each suite body; only `seed`, `replicas` (or `count`) and the arguments
some caller sets can be set, and their defaults are the acceptance sizes.

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

Replicas.  Individuals are independent given their medium, so R replicas
of k roots in one medium are one population of R * k roots, and the engine
puts its roots in a uniformly random order.  The particle suites therefore
draw their replicas as blocks of k consecutive trees of few engine calls
(`_replica_runs`, cut into calls of about `CHUNK_NODES` expected nodes) and
read each statistic per block with one array reduction over the tree index
// k: the level count of each tree at its block's level (`_tree_sizes`),
neighbour heights by the level point process's range minima, keeping the
pairs inside a block (`_level_blocks`), and per-tree heights, leaves and
extinction times by a reduction over each tree's run of the pre-order
(`_tree_reduce`).  Calls go through the public `simulate_*` functions.

Where each replica carries its own catalyst (comparison's quenched half,
criticality), the catalysts are the blocks of a `_replica_runs` call with
no medium.  Their mass paths, read from its forest without an engine call
(`_block_mass_paths`), are the media of one `simulate_reactant_quenched`
call, whose block j is the reactant of catalyst j, cut at min(t_max,
catalyst j's absorption) and read at min(t, that cap) (`_quenched_runs`).
"""

from __future__ import annotations

import json
import math
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import diffusion as dfn
from . import oracles as orc
from .contour import contour_from_forest, tree_from_excursion
from .errors import InputError
from .forest import FamilyForest, random_binary_forest
from .particle import (MassPath, SimConfig, _live_counts, simulate_catalyst,
                       simulate_reactant_quenched, stopping_time,
                       GALTON_WATSON, BIRTH_DEATH)
from .points import (neighbor_heights, pairwise_level_distances,
                     point_process_at_level, reconstruct_distance_matrix)
from .oracles import OracleReport

ALPHA = 0.01


# ---------------------------------------------------------------------- #
# helpers                                                                 #
# ---------------------------------------------------------------------- #

# Expected node count of one engine call of a replica batch.  The engine
# and the level reading of a call hold about 110 bytes a node at their peak,
# so a call stays near 2 MB; larger calls saved little time per replica.
CHUNK_NODES = 20_000


def _level_trees(forest: FamilyForest, t: float) -> tuple[np.ndarray, np.ndarray]:
    """The pre-order ranks of the level-t population and the tree of each,
    in linear order (capped forests are read at their cap, where lineages
    continue unbranched)."""
    cap = forest.height_cap
    level = t if cap is None else min(t, cap)
    ranks = forest.level_positions(level)
    return ranks, forest.tree_index()[forest.order[ranks]]


def _different_tree_prob(sizes: Sequence[int]) -> float:
    """The chance that two uniform picks of the level population lie in
    different trees, from the level count of each tree (a tree with none
    adds exactly 0)."""
    k = sum(sizes)
    if k == 0:
        return math.nan
    return 1.0 - sum((m / k) ** 2 for m in sizes)


def _replica_runs(replicas: int, k: int, seed: int, medium: Optional[MassPath],
                  **config) -> Iterator[tuple[int, MassPath, FamilyForest]]:
    """`replicas` independent populations of k roots each, drawn as blocks
    of consecutive trees of few engine calls: (replicas in the call, mass
    path, forest) per call.

    Individuals are independent given the medium, so one population of
    r * k roots is r replicas of k roots, and the engine orders its roots
    uniformly at random, so any k consecutive trees of its linear order are
    one replica.  A reactant in `medium` runs through
    `simulate_reactant_quenched`; `medium` None runs catalysts through
    `simulate_catalyst`.  Calls are cut at `CHUNK_NODES` expected nodes,
    1 + 2 n b * (integral of the medium to the engine's horizon) per root,
    and call c takes seed `seed + c`.  `config` holds the other `SimConfig`
    fields (n, t_max, rates, ...).  The engine's node budget
    (`particle.MAX_NODES`) bounds a whole call, all its replicas together.
    Each call's result is yielded unbound, so that a consumer that drops a
    forest frees it before the next call.
    """
    if replicas < 1:
        raise InputError(f"replicas must be >= 1, got {replicas!r}")
    cfg = SimConfig(**config)
    rate = cfg.b1 if medium is None else cfg.b2
    env = MassPath.constant(1.0) if medium is None else medium
    horizon = min(cfg.t_max, stopping_time(env, 0.0))
    per_root = 1.0 + 2.0 * cfg.n * rate * env.integral(0.0, horizon)
    size = max(1, int(CHUNK_NODES / (k * per_root)))
    for c, start in enumerate(range(0, replicas, size)):
        r = min(size, replicas - start)
        mass0 = r * k / cfg.n
        if medium is None:
            yield (r, *simulate_catalyst(SimConfig(
                **config, seed=seed + c, initial_catalyst_mass=mass0)))
        else:
            yield (r, *simulate_reactant_quenched(SimConfig(
                **config, seed=seed + c, initial_reactant_mass=mass0), medium))


def _block_mass_paths(forest: FamilyForest, k: int, n: int) -> list[MassPath]:
    """The mass path of each block of k consecutive trees of a catalyst
    forest, blocks in linear order, read from the forest without an engine
    call.

    A stable radix pass by block (keys of the smallest unsigned type)
    groups the nodes, and the engine's `_live_counts` reads each block's
    events, its deaths below the height cap, in time order with the live
    count from its k roots after each.  As for the engine's path of one
    population in the constant medium, a block's path is valid forever once
    the block has died out, and up to the cap otherwise.
    """
    cap = math.inf if forest.height_cap is None else forest.height_cap
    blocks = forest.roots.size // k
    block = (forest.tree_index() // k).astype(np.min_scalar_type(blocks))
    order = block.argsort(kind="stable")
    bounds = np.searchsorted(block[order], np.arange(blocks + 1)).tolist()
    death = forest.death[order]
    split = np.diff(forest.kid_ptr)[order] > 0
    ended = death < cap
    paths = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        times, counts = _live_counts(k, death[lo:hi], split[lo:hi], ended[lo:hi])
        live = counts[-1] if counts.size else k
        paths.append(MassPath(np.concatenate(([0.0], times)),
                              np.concatenate(([k], counts)) / n,
                              horizon=math.inf if live == 0 else cap))
    return paths


def _quenched_runs(replicas: int, seed: int, n: int, t_max: float) -> Iterator[
        tuple[int, list[MassPath], FamilyForest]]:
    """`replicas` independent pairs of a unit-rate catalyst and a unit-rate
    reactant in it, both of initial mass 1 (n roots), run to a finite t_max
    and drawn as blocks of two engine calls per chunk: (replicas in the
    chunk, the catalysts' mass paths, reactant forest).

    The catalysts are `_replica_runs` blocks of n roots with no medium,
    which cuts the chunks and gives chunk c seed `seed + c`; the reactant
    has as many expected nodes (the catalyst is a martingale from 1).  The
    catalysts' mass paths, read by `_block_mass_paths`, are the media of
    one `simulate_reactant_quenched` call at the chunk's seed, whose block
    j is the reactant of catalyst j, cut at min(t_max, its catalyst's
    absorption).  A seed's catalyst and reactant streams are those of
    `simulate_joint`.  As in `_replica_runs`, the reactant forest is not
    held past its yield, so a consumer that drops it frees it before the
    next chunk's catalyst call.
    """
    c = 0  # counted by hand: `enumerate` would hold the catalyst forest
    for r, _, cat in _replica_runs(replicas, n, seed, None, n=n, t_max=t_max):
        media = _block_mass_paths(cat, n, n)
        del cat  # not held through the reactant call, the chunk's peak
        _, rea = simulate_reactant_quenched(SimConfig(
            n=n, t_max=t_max, seed=seed + c, initial_reactant_mass=r), media)
        yield r, media, rea
        del rea  # not held through the next chunk's catalyst call
        c += 1


def _tree_sizes(forest: FamilyForest, k: int, levels: np.ndarray) -> np.ndarray:
    """The level count of each tree of a forest read as blocks of k
    consecutive trees, one row per block (r, k), at its block's level
    (`levels[j]` for block j): its nodes with birth < level <= death."""
    tree = forest.tree_index()
    level = levels[tree // k]
    alive = (forest.birth < level) & (level <= forest.death)
    r = len(levels)
    return np.bincount(tree[alive], minlength=r * k).reshape(r, k)


def _caps(media: Sequence[MassPath], t_max: float) -> np.ndarray:
    """The level at which each reactant block of a `_quenched_runs` chunk
    is capped: min(t_max, absorption of its catalyst)."""
    return np.minimum(t_max, [stopping_time(m, 0.0) for m in media])


def _level_blocks(forest: FamilyForest, k: int,
                  t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a forest as blocks of k consecutive trees at level t.

    Returns the tree of each level crossing, in linear order, and the
    neighbour MRCA heights of the crossing pairs inside one block, with
    each pair's block.  The pairs that straddle two blocks are dropped:
    their zero marks only separate replicas.
    """
    ranks, trees = _level_trees(forest, t)
    block = trees // k
    inside = block[:-1] == block[1:]
    return trees, neighbor_heights(forest, ranks)[inside], block[:-1][inside]


def _tree_reduce(ufunc: np.ufunc, forest: FamilyForest,
                 values: np.ndarray) -> np.ndarray:
    """`ufunc` over the nodes of each tree, trees in linear order: each tree
    is a run of the pre-order starting at its root."""
    order = forest.order
    return ufunc.reduceat(values[order], np.flatnonzero(forest.parent[order] == -1))


def _level_census(replicas: int, seed: int, medium: Optional[MassPath],
                  n: int, t: float, **config):
    """Replicas of initial mass 1 (n roots) read at level t: the level
    count of each replica, and the pooled neighbour heights inside the
    replicas, in replica order, with the replica of each."""
    counts, heights, blocks = [], [], []
    done = 0
    for r, _, forest in _replica_runs(replicas, n, seed, medium, n=n,
                                      t_max=t, **config):
        trees, h, block = _level_blocks(forest, n, t)
        counts.append(np.bincount(trees // n, minlength=r))
        heights.append(h)
        blocks.append(block + done)
        done += r
    return (np.concatenate(counts), np.concatenate(heights),
            np.concatenate(blocks))


def _x_identity_path(horizon: float = 2.0) -> dfn.DiffusionPath:
    step = 1e-3
    return dfn.DiffusionPath(step, np.ones(int(round(horizon / step)) + 1))


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


def _ks_or_empty(test: Callable[..., tuple[float, float]],
                 **samples: np.ndarray) -> tuple[float, Optional[float], dict]:
    """(statistic, p-value, {}) of the KS `test` on the named samples.  A
    valid draw can leave a sample empty, and the test's `InputError` for it
    is an outcome, not bad input: statistic 0.0, no p-value (the report
    fails) and details naming the empty samples."""
    try:
        stat, p = test(*samples.values())
    except InputError:
        empty = [name for name, sample in samples.items() if len(sample) == 0]
        if not empty:
            raise
        return 0.0, None, {"empty_samples": empty}
    return stat, p, {}


# ---------------------------------------------------------------------- #
# 2. extinction law                                                       #
# ---------------------------------------------------------------------- #

def _extinction_times(replicas: int, seed: int, horizon: float) -> np.ndarray:
    """Per replica of one unit-rate root in the unit medium, the time its
    tree dies out, its last death; +inf for a tree alive at the horizon,
    where the forest is capped."""
    ends = np.concatenate([
        _tree_reduce(np.maximum, forest, forest.death)
        for _, _, forest in _replica_runs(replicas, 1, seed, MassPath.constant(1.0),
                                          n=1, b2=1.0, t_max=horizon)])
    return np.where(ends < horizon, ends, math.inf)


def run_extinction(seed: int = 2_000_000, replicas: int = 20_000) -> list[OracleReport]:
    checkpoints = (0.5, 1.0, 2.0)
    extinct_at = _extinction_times(replicas, seed, max(checkpoints))
    tol = 0.015
    out = []
    for t in checkpoints:
        emp = int(np.count_nonzero(extinct_at <= t)) / replicas
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

def run_mrca(seed: int = 3_000_000, replicas: int = 12_000) -> list[OracleReport]:
    t, min_samples = 1.0, 5_000
    # replicas in index order until min_samples heights are pooled
    pooled: list[np.ndarray] = []
    count = 0
    for r, _, forest in _replica_runs(replicas, 1, seed, MassPath.constant(1.0),
                                      n=1, b2=1.0, t_max=t):
        _, heights, block = _level_blocks(forest, 1, t)
        reached = np.bincount(block, minlength=r).cumsum()
        last = np.searchsorted(reached, min_samples - count)
        pooled.append(heights[block <= last])
        count += pooled[-1].size
        if count >= min_samples:
            break
    stat, p, empty = _ks_or_empty(
        lambda heights: orc.ks_test(heights, lambda h: orc.oracle_mrca_cdf(1.0, t, h)),
        pooled=np.concatenate(pooled))
    return [OracleReport(
        name="mrca", law="neighbor MRCA height CDF",
        statistic=stat, target="KS", test="one-sample KS",
        p_value=p, alpha_or_tol=ALPHA, passed=p is not None and p >= ALPHA,
        details={"pooled": count,
                 "cdf_at_half": orc.oracle_mrca_cdf(1.0, t, t / 2), **empty})]


# ---------------------------------------------------------------------- #
# 4. codec round trip                                                     #
# ---------------------------------------------------------------------- #

def run_codec(seed: int = 4, count: int = 1_000) -> list[OracleReport]:
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
        if f.level_positions(t).size == 0:
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

def run_representation(seed: int = 6_000_000, replicas: int = 10_000) -> list[OracleReport]:
    horizon, level = 30.0, 1.0
    data = {}
    # disjoint seeds: the comparison is two-sample by design
    for sample, rep_kind in enumerate((GALTON_WATSON, BIRTH_DEATH)):
        ext, pop, maxd = [], [], []
        for r, _, forest in _replica_runs(replicas, 1, seed + 500_000 * sample,
                                          None, n=1, b1=1.0, t_max=horizon,
                                          representation=rep_kind):
            # one root per replica; the forest is capped at the horizon
            ext.append(_tree_reduce(np.maximum, forest, forest.death))
            trees, heights, block = _level_blocks(forest, 1, level)
            counts = np.bincount(trees, minlength=r)
            lowest = np.full(r, math.inf)
            np.minimum.at(lowest, block, heights)
            pop.append(counts)
            maxd.append(2.0 * (level - lowest[counts >= 2]))
        data[rep_kind] = tuple(map(np.concatenate, (ext, pop, maxd)))
    out = []
    for name, idx in (("extinction_time", 0), ("level_population", 1),
                      ("level_max_distance", 2)):
        gw, bd = data[GALTON_WATSON][idx], data[BIRTH_DEATH][idx]
        stat, p, empty = _ks_or_empty(orc.two_sample_ks, gw=gw, bd=bd)
        out.append(OracleReport(
            name=f"representation[{name}]", law="recordings agree in law",
            statistic=stat, target="two-sample KS", test="two-sample KS",
            p_value=p, alpha_or_tol=ALPHA, passed=p is not None and p >= ALPHA,
            details={"n_gw": len(gw), "n_bd": len(bd), **empty}))
    return out


# ---------------------------------------------------------------------- #
# 7. random-evolution equivalence                                         #
# ---------------------------------------------------------------------- #

def saved_catalyst(seed: int = 4) -> MassPath:
    """The frozen unit-scale catalyst realization used by suite 7."""
    mass, _ = simulate_catalyst(SimConfig(n=1, b1=1.0, seed=seed))
    return mass


def _heights_and_leaves(forest: FamilyForest) -> tuple[np.ndarray, np.ndarray]:
    """The height and the leaf count of each tree, trees in linear order."""
    leaf = (np.diff(forest.kid_ptr) == 0).astype(np.intp)
    return (_tree_reduce(np.maximum, forest, forest.death),
            _tree_reduce(np.add, forest, leaf))


def _tree_heights_and_leaves(replicas: int, seed: int, medium: MassPath,
                             **config) -> tuple[np.ndarray, np.ndarray]:
    """Per replica of one unit-rate root in `medium`, the height and the
    leaf count of its tree."""
    runs = [_heights_and_leaves(forest) for _, _, forest in
            _replica_runs(replicas, 1, seed, medium, n=1, b2=1.0, **config)]
    heights, leaves = zip(*runs)
    return np.concatenate(heights), np.concatenate(leaves)


def run_random_evolution(seed: int = 7_000_000, replicas: int = 3_000) -> list[OracleReport]:
    delta, catalyst_seed = 0.2, 4
    medium = saved_catalyst(catalyst_seed)
    heights_p, leaves_p = _tree_heights_and_leaves(replicas, seed, medium,
                                                   delta=delta, t_max=50.0)
    exc = dfn.simulate_random_evolution(medium, 1, delta, seed=seed - 1,
                                        n_excursions=replicas)
    heights_r, leaves_r = _heights_and_leaves(tree_from_excursion(exc))
    # the leaf counts come from the same trees as the heights
    _, p_h, empty = _ks_or_empty(orc.two_sample_ks, particle=heights_p,
                                 flip_clock=heights_r)
    p_l = None if empty else orc.two_sample_counts_chi2(leaves_p, leaves_r)
    mk = lambda nm, p, a, b: OracleReport(
        name=f"random_evolution[{nm}]", law="contour law equals flip-clock law",
        statistic=0.0 if empty else float(np.mean(a) - np.mean(b)),
        target="two-sample", test="KS" if nm == "height" else "chi2",
        p_value=p, alpha_or_tol=ALPHA, passed=p is not None and p >= ALPHA,
        details={"replicas": replicas, "truncation_top": stopping_time(medium, delta),
                 **empty})
    return [mk("height", p_h, heights_p, heights_r),
            mk("leaf_count", p_l, leaves_p, leaves_r)]


# ---------------------------------------------------------------------- #
# 8. limit-contour excursion intensity                                    #
# ---------------------------------------------------------------------- #

def run_limit_intensity(seed: int = 8_000_000, replicas: int = 300,
                        theta_step: float = 1e-5) -> list[OracleReport]:
    t, budget = 1.0, 1.0
    bins = ((0.1, 0.3), (0.3, 0.5), (0.5, 0.9))
    sf = dfn.scale_function(_x_identity_path(horizon=2.0), 0.5)
    w_t = float(sf(t)) / 2.0
    x_t = float(sf.medium_at(t))
    nu = np.array([orc.oracle_reactant_intensity(1.0, 1.0, t, h1, h2)
                   for h1, h2 in bins])
    census_rng = np.random.default_rng(np.random.SeedSequence(seed + 7))
    counts = np.zeros((replicas, len(bins)))
    masses = np.zeros(replicas)
    for i in range(replicas):
        z = dfn._limit_contour_from_scale(sf, budget, seed=seed + i,
                                          theta_step=theta_step)
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

def _depth_census_particle(n: int, replicas: int, seed: int, t: float,
                           bins) -> tuple[np.ndarray, float]:
    """The neighbour heights of unit-rate reactants of initial mass 1 in
    the unit medium, at level t, pooled over the replicas per bin, and the
    replicas' summed level mass."""
    levels, heights, _ = _level_census(replicas, seed, MassPath.constant(1.0),
                                       n, t, b2=1.0)
    counts = np.array([np.count_nonzero((heights > h1) & (heights <= h2))
                       for h1, h2 in bins], dtype=float)
    return counts, levels.sum() / n


def run_reactant_intensity(seed: int = 9_000_000, replicas: int = 50,
                           n: int = 50,
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
    t, document_n = 1.0, 100
    bins = ((0.1, 0.3), (0.3, 0.5), (0.5, 0.8))
    nu = np.array([orc.oracle_reactant_intensity(1.0, 1.0, t, h1, h2)
                   for h1, h2 in bins])
    # a replica with no level mass has no heights: it adds to neither side
    pooled_obs, mass = _depth_census_particle(n, replicas, seed, t, bins)
    pooled_exp = mass * nu
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
    counts2, mass2 = _depth_census_particle(document_n, document_replicas,
                                            seed + 77, t, bins)
    ratio_2n = counts2 / (mass2 * nu)
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

def _tree_counts(replicas: int, seed: int, medium: MassPath, n: int,
                 t: float) -> np.ndarray:
    """Per replica of unit-rate reactants of initial mass 1 in `medium`,
    the number of trees with level-t survivors (a capped forest read at
    its cap); on a nonempty level it is the zero marks of the level point
    process + 1."""
    counts = []
    for r, _, forest in _replica_runs(replicas, n, seed, medium, n=n,
                                      t_max=t, b2=1.0):
        level = t if forest.height_cap is None else min(t, forest.height_cap)
        sizes = _tree_sizes(forest, n, np.full(r, level))
        counts.append(np.count_nonzero(sizes, axis=1))
    return np.concatenate(counts).astype(float)


def run_tree_count(seed: int = 10_000_000, replicas: int = 600) -> list[OracleReport]:
    """Distinct-tree counts at the level versus their Poisson limit.

    The zero marks of the level point process separate distinct trees, so
    the count of trees with level-t survivors is marks + 1 on nonempty
    levels; unconditionally it is Binomial(#initial particles, survival)
    and converges to Poisson(1 / int_0^t medium).  Conditioning the mark
    count on the level mass instead would tilt it to the heavier
    size-composition posterior, which is not the Poisson statement.
    """
    n, t = 50, 1.0
    medium = MassPath.constant(1.0)
    counts = _tree_counts(replicas, seed, medium, n, t)
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

def run_stretching(seed: int = 11_000_000, replicas: int = 150) -> list[OracleReport]:
    n, t, medium_value = 40, 1.0, 2.0
    # quenched reactant in a constant medium, level t
    medium = MassPath.constant(medium_value)
    depths_reactant = t - _level_census(replicas, seed, medium, n, t, b2=1.0)[1]
    # constant-rate population read at the stretched level
    t_z = orc.stretch_map(medium, t, t)  # = medium_value * t
    depths_classic = t_z - _level_census(replicas, seed + 500_000, None, n, t_z,
                                         b1=1.0)[1]
    mapped = orc.stretch_map_inverse(medium, t, depths_classic)
    stat, p, empty = _ks_or_empty(orc.two_sample_ks, reactant=depths_reactant,
                                  classic=mapped)
    return [OracleReport(
        name="stretching", law="metric stretching by the backward medium integral",
        statistic=stat, target="two-sample KS", test="two-sample KS",
        p_value=p, alpha_or_tol=ALPHA, passed=p is not None and p >= ALPHA,
        details={"n_reactant": depths_reactant.size,
                 "n_classic": depths_classic.size, "stretched_level": t_z, **empty})]


# ---------------------------------------------------------------------- #
# 12. comparison inequality                                               #
# ---------------------------------------------------------------------- #

def _different_tree_probs(sizes: np.ndarray) -> list[float]:
    """`_different_tree_prob` of each row of per-tree level counts, 0 for a
    row with an empty level."""
    probs = map(_different_tree_prob, sizes.tolist())
    return [0.0 if math.isnan(p) else p for p in probs]


def _reactant_level_sizes(replicas: int, seed: int, n: int, t: float,
                          t_max: float) -> np.ndarray:
    """Per replica (rows) of a unit-mass reactant in its own unit-mass
    catalyst run to t_max, the level count of each of its n trees at
    min(t, its cap)."""
    rows = []
    for r, media, forest in _quenched_runs(replicas, seed, n, t_max):
        rows.append(_tree_sizes(forest, n, np.minimum(t, _caps(media, t_max))))
        del forest  # freed before the next chunk's engine calls
    return np.concatenate(rows)


def run_comparison(seed: int = 12_000_000, replicas: int = 700,
                   z_replicas: int = 0) -> list[OracleReport]:
    """Different-tree probability: quenched medium against constant rate.

    The constant-rate forest from mass z has z/t expected trees at height t,
    the quenched-medium forest E[1 / int_0^t X]; the medium follows the
    particle clock, so X is the b1 = 2 square-root diffusion from 1.  The
    matching constant z = t E[1 / int_0^t X] is exact: the area's Laplace
    transform is exp(-v(t)) with v' = lam - v^2, v(t) = sqrt(lam)
    tanh(t sqrt(lam)), and 1/A = int_0^inf exp(-lam A) dlam gives
    E[1/A] = int_0^inf 2 s exp(-s tanh(t s)) ds (lam = s^2), one quadrature
    (`oracles.inverse_area_mean`): z = 1.5 at t = 0.5 and 2.2758 at t = 1.

    `z_replicas` > 0 adds an Euler Monte Carlo of the same constant on that
    many b1 = 2 paths, reported as `z_euler` with its standard error; it
    documents the closed form and decides nothing.
    """
    n, checkpoints, tol = 40, (0.5, 1.0), 0.02
    out = []
    for idx, t in enumerate(checkpoints):
        z = t * orc.inverse_area_mean(t)
        euler = {}
        if z_replicas > 0:
            rng = np.random.default_rng(np.random.SeedSequence(seed + 17 + idx))
            step = 1e-3
            x, w = np.ones(z_replicas), np.full(z_replicas, 2.0)
            integral = np.zeros(z_replicas)  # trapezoid rule on the Euler grid
            for _ in range(int(round(t / step))):
                prev = x
                x, _ = dfn._euler_step(rng, prev, w, None, math.sqrt(step))
                integral += 0.5 * (prev + x) * step
            mean, se = orc.mean_confidence(1.0 / np.maximum(integral, 1e-9))
            euler = {"z_euler": t * mean, "z_euler_se": t * se}
        # an extinct level contributes zero to the pair integral (the level
        # measure has no mass), so dead replicas count as zeros rather than
        # being dropped; dropping them conditions the two sides on survival
        # events with different probabilities and breaks the comparison
        base = seed + 1000 * idx
        react = _different_tree_probs(_reactant_level_sizes(
            replicas, base, n, t, t + 0.25))
        k = max(round(z * n), 1)
        z_mass = k / n
        classic = []
        for r, _, forest in _replica_runs(replicas, k, base + 500_000, None,
                                          n=n, b1=1.0, t_max=t):
            classic.extend(_different_tree_probs(_tree_sizes(forest, k, np.full(r, t))))
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
                     "matched_initial_mass": z_mass, "z": z, **euler}))
    return out


# ---------------------------------------------------------------------- #
# 13. quadratic-variation dichotomy                                       #
# ---------------------------------------------------------------------- #

def run_qv_dichotomy(seed: int = 555, replicas: int = 500,
                     theta_step: float = 1e-5) -> list[OracleReport]:
    deltas = (0.2, 0.1, 0.05, 0.02)
    budget, x_horizon = 1.0, 14.0
    qt, qr = [], []
    mono_bad = kept = capped = 0
    for rep in range(replicas):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                           spawn_key=(rep,)))
        step = 2e-4
        x = dfn._feller_path(rng, int(round(x_horizon / step)), step, 1.0, 1.0,
                             floor=deltas[-1])
        if x[-1] > deltas[-1]:
            continue  # catalyst outlived the horizon; conditioning documented
        X = dfn.DiffusionPath(step, x)
        kept += 1
        sf = dfn.scale_function(X, deltas[-1])
        taus = [X.first_hit_time(d) for d in deltas]
        try:
            z = dfn._limit_contour_from_scale(sf, budget, seed=seed * 1_000_003 + rep,
                                              theta_step=theta_step,
                                              max_steps=80_000_000)
        except dfn._StepCapReached:
            capped += 1  # a valid seed's contour: it fails the monotone report
            continue
        zeta = z.values
        dz2 = np.diff(zeta) ** 2
        below = zeta[:-1]
        qv = np.array([float(dz2[below <= tau].sum()) for tau in taus])
        if not np.all(np.diff(qv) >= 0.0):
            mono_bad += 1
        w_top = sf.top / 2.0
        top_hit = z.brownian.max() >= w_top - 3.0 * math.sqrt(theta_step)
        (qt if top_hit else qr).append(qv)
    for label, group in (("medium-outlives-forest", qt), ("forest-dies-first", qr)):
        if not group:
            raise InputError(f"qv_dichotomy: the {label} group is empty "
                             f"({kept} of {replicas} replicas kept); raise replicas")
    qt_arr, qr_arr = np.array(qt), np.array(qr)
    rt = qt_arr[:, -1] / qt_arr[:, 0]
    rr = qr_arr[:, -1] / qr_arr[:, 0]
    rt_m = float(rt.mean())
    rr_m = float(rr.mean())
    return [
        OracleReport(
            name="qv_dichotomy[monotone]", law="restricted sums grow as the cut rises",
            statistic=float(mono_bad), target=0.0, test="exact (coupled excision)",
            p_value=None, alpha_or_tol=0.0, passed=mono_bad == 0 and capped == 0,
            details={"kept": kept, **({"capped": capped} if capped else {})}),
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

def _joint_masses(replicas: int, seed: int, n: int,
                  checkpoints: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Per replica (rows) of a unit-mass catalyst and a unit-mass reactant
    in it, run to the last checkpoint, the two masses at each checkpoint:
    the catalyst's read from its mass path, the reactant's as its level
    count / n at min(t, its cap)."""
    t_max = max(checkpoints)
    cat, rea = [], []
    for r, media, forest in _quenched_runs(replicas, seed, n, t_max):
        cat.append([[m.value_at(t) for t in checkpoints] for m in media])
        caps = _caps(media, t_max)
        rea.append(np.stack([_tree_sizes(forest, n, np.minimum(t, caps)).sum(axis=1)
                             for t in checkpoints], axis=1) / n)
        del forest  # freed before the next chunk's engine calls
    return np.concatenate(cat), np.concatenate(rea)


def run_criticality(seed: int = 14_000_000, replicas: int = 4_000,
                    n: int = 20, sde_replicas: int = 20_000) -> list[OracleReport]:
    checkpoints = (0.25, 0.5, 1.0)
    cat, rea = _joint_masses(replicas, seed, n, checkpoints)
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
    # SDE pair, unit rates, stacked as [x..., y...]
    rng = np.random.default_rng(np.random.SeedSequence(seed + 99))
    step = 1e-3
    z = np.ones(2 * sde_replicas)
    w = np.ones(2 * sde_replicas)
    worst_x = worst_y = 0.0
    t_now = 0.0
    for t in checkpoints:
        for _ in range(int(round((t - t_now) / step))):
            z, _ = dfn._euler_step(rng, z, w, 1.0, math.sqrt(step))
        t_now = t
        x, y = z[:sde_replicas], z[sde_replicas:]
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
