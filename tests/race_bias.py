"""
Euler bias of the absorption race at the `hitting_prob` gate's size, under
two epoch schedules.

Runs `diffusion.hitting_race` at the gate's step (1e-4) and replica count
(20 000) on seeds 101, 102, ... with a first epoch of 8 time units and of 1
(the step doubles each epoch in both), and prints, per seed, p - target and
the race's time, then per schedule the mean of p - target over the seeds
with its standard error, and the paired difference of the two schedules
with its standard error.  The target is `oracles.hitting_probability`, the
exact absorption-race law.  The last line checks that the 1-unit schedule's
|mean p - target| exceeds the 8-unit schedule's by at most 2 paired SE.

    python tests/race_bias.py [--seeds 10] [--first-seed 101]

About 6 minutes for 10 seeds on a 2-CPU Xeon.  The file is not named
test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from catbranch.diffusion import SDEConfig, hitting_race  # noqa: E402
from catbranch.oracles import hitting_probability  # noqa: E402

GATE_STEP = 1e-4
GATE_REPLICAS = 20_000
SCHEDULES = (8.0, 1.0)  # first epoch, in time units


def mean_se(xs: list[float]) -> tuple[float, float]:
    k = len(xs)
    mean = sum(xs) / k
    var = sum((x - mean) ** 2 for x in xs) / (k - 1)
    return mean, math.sqrt(var / k)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    args = ap.parse_args(argv)
    if args.seeds < 2:
        ap.error("--seeds must be >= 2 for a standard error")

    cfg0 = SDEConfig(step=GATE_STEP)
    target = hitting_probability(cfg0.b1, cfg0.b2, cfg0.x0, cfg0.y0)
    print(f"step {GATE_STEP}, {GATE_REPLICAS} replicas, target {target:.5f}")
    print("seed   " + "   ".join(f"p-target[{e:g}]  time[{e:g}]"
                                for e in SCHEDULES))
    bias = {e: [] for e in SCHEDULES}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cfg = SDEConfig(step=GATE_STEP, seed=seed)
        row = [f"{seed:<6d}"]
        for e in SCHEDULES:
            t0 = time.perf_counter()
            res = hitting_race(GATE_REPLICAS, cfg, epoch_horizon=e)
            secs = time.perf_counter() - t0
            bias[e].append(res["p_reactant_first"] - target)
            row.append(f"{bias[e][-1]:+13.5f}  {secs:6.1f} s")
        print(" ".join(row), flush=True)

    old, new = SCHEDULES
    print(f"\nfirst epoch   mean p-target   SE       over {args.seeds} seeds")
    mean = {}
    for e in SCHEDULES:
        mean[e], se = mean_se(bias[e])
        print(f"{e:<13g} {mean[e]:+.5f}        {se:.5f}")
    d, d_se = mean_se([b - a for a, b in zip(bias[old], bias[new])])
    print(f"{new:g} minus {old:g}     {d:+.5f}        {d_se:.5f}  (paired)")
    excess = abs(mean[new]) - abs(mean[old])
    ok = excess <= 2.0 * d_se
    print(f"|bias[{new:g}]| - |bias[{old:g}]| = {excess:+.5f}, "
          f"{'within' if ok else 'beyond'} 2 paired SE ({2.0 * d_se:.5f})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
