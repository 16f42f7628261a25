"""
The absorption race that `catbranch.diffusion.hitting_race` ran before it
stepped its last survivors on Python floats, kept as the reference for the
tests.

Every step, however few replicas survive, is one `_euler_step` of the
stacked survivors; steps with a hit tally the resolved replicas, toss one
fair coin for each replica whose components hit together, and compact the
survivors.  `hitting_race` has the signature and the output of
`diffusion.hitting_race`, which must return the same dict.
"""

from __future__ import annotations

import math

import numpy as np

from catbranch.diffusion import SDEConfig, _euler_step


def hitting_race(n_replicas: int, cfg: SDEConfig,
                 epoch_horizon: float = 0.25,
                 max_epochs: int = 22) -> dict:
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
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
            z, hit = _euler_step(rng, z, w, cfg.b2, sqdt)
            if not hit:
                continue
            x_hit = z[:m] == 0.0
            y_hit = z[m:] == 0.0
            both = y_hit & x_hit
            reactant_first += int(np.count_nonzero(y_hit & ~x_hit))
            catalyst_first += int(np.count_nonzero(x_hit & ~y_hit))
            nb = int(np.count_nonzero(both))
            if nb:
                heads = int(np.count_nonzero(rng.random(nb) < 0.5))
                reactant_first += heads
                catalyst_first += nb - heads
            keep = ~(y_hit | x_hit)
            z = np.concatenate((z[:m][keep], z[m:][keep]))
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
