"""
The limit-contour stepping loop that `catbranch.diffusion` ran before it
counted its budget in band steps, kept as the reference for the tests.

beta is re-folded and the float occupation `ell0` updated once per logical
65536-step chunk.  A chunk is evaluated in sub-blocks of 2048 steps and then
of the size done so far (doubling), each with a running-occupation array,
stopping at the first sub-block that can close the budget.  `driving_path`
takes `_limit_contour_from_scale`'s arguments and returns the driving path
beta, which must hold the same bytes as the contour's `brownian` wherever
the float occupation sum and the band-step count agree on the stop.

`fold` is the triangle map that `diffusion._fold` made with `np.mod`, kept
here so that the reference shares no kernel with the package.
"""

from __future__ import annotations

import math

import numpy as np

from catbranch.diffusion import (DEFAULT_CONTOUR_STEP,
                                 DEFAULT_CONTOUR_STEP_CAP, ScaleFunction,
                                 _StepCapReached)


def fold(path: np.ndarray, top: float) -> None:
    """Exact triangle map of a free path into [0, top], in place."""
    np.mod(path, 2.0 * top, out=path)
    np.subtract(path, top, out=path)
    np.abs(path, out=path)
    np.subtract(top, path, out=path)


def driving_path(sf: ScaleFunction, budget: float, seed=0,
                 theta_step: float = DEFAULT_CONTOUR_STEP,
                 max_steps: int = DEFAULT_CONTOUR_STEP_CAP) -> np.ndarray:
    top = sf.top / 2.0  # beta reflects on [0, top]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sq = math.sqrt(theta_step)
    band = 20.0 * sq
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
            fold(path, top)
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
        raise _StepCapReached("step cap reached before the local-time budget")
    return np.concatenate(pieces)
