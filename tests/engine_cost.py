"""
Cost of one particle engine call, split into a cost per generation and a
cost per node.

Runs `particle._simulate_population` on fixed seeds for five call shapes
at n = 40 (unit rate):

  constant   150 roots in the unit medium to t_max 1
  step       150 roots in one catalyst's mass path to t_max 1.25
  4 media    4 blocks of 40 roots, each in its own catalyst's mass path
  20 media   20 blocks of 40 roots, likewise
  constant   600 roots, as the first

and prints per shape the mean generations, nodes and milliseconds of a
call (each call timed as the minimum over `--rounds` runs), twice: with
the mass path the call returns unread, as the genealogy suites leave it,
and with its values read, which sorts the events by time.  Each shape
but the last is then run with 4 times the roots per medium, and a call's
time t = a * generations + c * nodes, its path unread, is solved from the
two sizes: a in microseconds per generation, c in nanoseconds per node.

    python tests/engine_cost.py [--seeds 5] [--rounds 15]

About 20 seconds on a 2-CPU Xeon.  The file is not named test_*.py, so pytest
does not collect it.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from catbranch.harness import _block_mass_paths  # noqa: E402
from catbranch.particle import (GALTON_WATSON, MassPath, SimConfig,  # noqa: E402
                                _simulate_population, simulate_catalyst)

N = 40
T_MAX = 1.25


def catalyst_paths(count: int) -> list[MassPath]:
    """The mass paths of `count` unit-mass catalysts at n = 40, drawn as
    blocks of one call to t_max 1.25."""
    _, forest = simulate_catalyst(SimConfig(
        n=N, t_max=T_MAX, seed=1, initial_catalyst_mass=count))
    return _block_mass_paths(forest, N, N)


def shapes() -> list[tuple[str, object, int, float, bool]]:
    """(name, medium or media, roots, t_max, fitted) of each call shape."""
    four, twenty = catalyst_paths(4), catalyst_paths(20)
    return [
        ("constant", MassPath.constant(1.0), 150, 1.0, True),
        ("step", catalyst_paths(1)[0], 150, T_MAX, True),
        ("4 media", four, 4 * N, T_MAX, True),
        ("20 media", twenty, 20 * N, T_MAX, True),
        ("constant", MassPath.constant(1.0), 600, 1.0, False),
    ]


def cost(medium, sizes: list[int], t_max: float, seeds: int,
         rounds: int) -> list[tuple[float, float, float]]:
    """Per root count, the mean generations, nodes and seconds of a call
    over the seeds, with the mass path unread and with its values read.
    The sizes and both readings are timed in turn within each round, so
    that a drift of the host's speed moves them alike."""
    out = []
    for roots in sizes:
        gens, nodes = [], []
        for seed in range(seeds):
            _, forest = _simulate_population(N, 1.0, medium, roots, t_max,
                                             np.random.default_rng(seed),
                                             GALTON_WATSON, 10_000_000)
            gens.append(len(forest._generations) - 1)
            nodes.append(len(forest))
        out.append([float(np.mean(gens)), float(np.mean(nodes))])
    best = np.full((len(sizes), 2, seeds), np.inf)
    for _ in range(rounds):
        for i, roots in enumerate(sizes):
            for read in (0, 1):
                for seed in range(seeds):
                    rng = np.random.default_rng(seed)
                    t0 = time.perf_counter()
                    mass, _ = _simulate_population(N, 1.0, medium, roots,
                                                   t_max, rng, GALTON_WATSON,
                                                   10_000_000)
                    if read:
                        mass.values
                    best[i, read, seed] = min(best[i, read, seed],
                                              time.perf_counter() - t0)
    return [(g, v, float(t), float(r))
            for (g, v), (t, r) in zip(out, best.mean(axis=2))]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--rounds", type=int, default=15)
    args = ap.parse_args(argv)

    print(f"{'shape':<10} {'roots':>6} {'generations':>12} {'nodes':>8} "
          f"{'ms/call':>8} {'ms read':>8}  (path unread; values read)")
    fits = []
    for name, medium, roots, t_max, fitted in shapes():
        sizes = [roots, 4 * roots] if fitted else [roots]
        small, *large = cost(medium, sizes, t_max, args.seeds, args.rounds)
        print(f"{name:<10} {roots:>6} {small[0]:>12.1f} {small[1]:>8.0f} "
              f"{1e3 * small[2]:>8.3f} {1e3 * small[3]:>8.3f}", flush=True)
        if large:
            a, c = np.linalg.solve([small[:2], large[0][:2]],
                                   [small[2], large[0][2]])
            fits.append((name, a, c))
    print(f"\n{'shape':<10} {'us/generation':>14} {'ns/node':>8}  "
          "(fit of the shape at 1x and 4x roots)")
    for name, a, c in fits:
        print(f"{name:<10} {1e6 * a:>14.2f} {1e9 * c:>8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
