"""
Path kernels of `catbranch.diffusion` in the forms they had before they were
trimmed, kept as the reference for the tests.

`feller_path` is `_feller_path` with two tests a step: clip below 0, then
stop at or below `floor`.  `first_hit_time` and `scale_function` find the
first sample at or below a level with `np.flatnonzero`, as
`DiffusionPath.first_hit_time` and `scale_function` did.  Each must return
the same floats as the package's kernel.
"""

from __future__ import annotations

import math

import numpy as np


def feller_path(rng: np.random.Generator, n_steps: int, step: float,
                x0: float, b: float, floor: float = 0.0,
                clock: np.ndarray | None = None) -> np.ndarray:
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
        for nk in noise.tolist():
            xv = xv + math.sqrt(xv * bs) * nk
            if xv < 0.0:
                xv = 0.0
            block.append(xv)
            if xv <= floor:
                break
        x[k:k + len(block)] = block
        k += len(block)
    x[k:] = xv
    return x


def first_hit_time(values: np.ndarray, step: float, level: float) -> float:
    hits = np.flatnonzero(values <= level)
    if hits.size == 0:
        return math.inf
    return float(hits[0] * step)


def scale_function(values: np.ndarray, step: float,
                   delta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The grid, integral and medium arrays of `scale_function`'s result."""
    hits = np.flatnonzero(values <= delta)
    end = int(hits[0]) + 1 if hits.size else len(values)
    xs = step * np.arange(end)
    vs = values[:end]
    s = np.concatenate([[0.0], np.cumsum(0.5 * (vs[1:] + vs[:-1]) * step)])
    return xs, s, vs.copy()
