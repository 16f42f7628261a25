"""
contour.py
==========
Exact bidirectional codec between finite ordered forests and piecewise
linear excursions.

Encoding walks the forest depth first at a constant speed: the traced height
rises along each edge, dips to the branch height between sibling subtrees,
and touches zero between consecutive trees.  Peaks are leaf heights, valleys
are branch heights, and the excursion duration is twice the total edge
length divided by the speed.  Decoding inverts this by splitting at the
(leftmost) minimal valley of each zero-to-zero segment, so equal-height
valleys become distinct branch points in traversal order and the codec is
deterministic on crafted inputs as well.

Breakpoints store exact heights read from the forest (no accumulation into
heights), which makes round trips exact isometries whenever the forest's
heights are exactly representable floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .errors import InputError, malformed_lines
from .forest import FamilyForest, ForestBuilder


@dataclass
class Excursion:
    """Piecewise linear nonnegative path from (0,0) back to height 0.

    `u` are strictly increasing times, `e` the heights at those times;
    values between breakpoints interpolate linearly.
    """

    u: list[float]
    e: list[float]

    def __post_init__(self) -> None:
        if len(self.u) != len(self.e) or not self.u:
            raise InputError("breakpoint arrays must be nonempty, equal length")
        if self.u[0] != 0.0 or self.e[0] != 0.0:
            raise InputError("excursion must start at (0, 0)")
        if self.e[-1] != 0.0:
            raise InputError("excursion must end at height 0")
        if not math.isfinite(self.u[-1]):
            raise InputError("excursion duration must be finite")
        for k in range(1, len(self.u)):
            if not self.u[k] > self.u[k - 1]:
                raise InputError("breakpoint times must increase strictly")
            if not 0.0 <= self.e[k] < math.inf:
                raise InputError("excursion heights must be finite and >= 0")

    @property
    def duration(self) -> float:
        return self.u[-1]

    def max_height(self) -> float:
        return max(self.e)

    def value_at(self, s: float) -> float:
        return float(np.interp(s, self.u, self.e))

    # -- file format: two columns after a speed header ------------------- #

    def write(self, fh: TextIO, speed: float = 2.0) -> None:
        fh.write(f"# speed={float(speed)!r}\n")
        for u, e in zip(self.u, self.e):
            fh.write(f"{float(u)!r} {float(e)!r}\n")

    @classmethod
    def read(cls, fh: TextIO) -> tuple["Excursion", float]:
        header = fh.readline()
        if not header.startswith("# speed="):
            raise InputError("missing excursion speed header")
        us, es = [], []
        with malformed_lines("contour"):
            speed = float(header.split("=", 1)[1])
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                a, b = line.split()
                us.append(float(a))
                es.append(float(b))
        return cls(us, es), speed


def _turning_heights(f: FamilyForest) -> list[float]:
    """Alternating extremum heights of the depth-first trace, incl. the
    bracketing zeros.

    One pass over the pre-order: the trace dips to a node's birth (0 for a
    root) before every node that is not its predecessor's child, peaks at
    every leaf's death height, and closes at 0.  Zero-length edges collapse
    and duplicates merge in `_extrema`.
    """
    parent, birth, children = f.parent, f.birth, f.children
    seq: list[float] = []
    prev = -1
    for v in f.dfs_order():
        p = parent[v]
        if p == -1:
            seq.append(0.0)  # the glued root between trees
        elif p != prev:
            seq.append(birth[v])  # valley between sibling subtrees
        if not children[v]:
            d = f.death_height(v)
            if not math.isfinite(d):
                raise InputError("cannot encode a forest with unbounded edges")
            seq.append(d)
        prev = v
    seq.append(0.0)
    return _extrema(seq)


def contour_from_forest(f: FamilyForest, speed: float) -> Excursion:
    """Depth-first contour of a finite forest traced at the given speed."""
    if not 0 < speed < math.inf:
        raise InputError(f"contour speed must be finite and > 0, got {speed!r}")
    heights = _turning_heights(f)
    if len(heights) == 1:
        return Excursion([0.0], [0.0])
    times = [0.0]
    for k in range(1, len(heights)):
        times.append(times[-1] + abs(heights[k] - heights[k - 1]) / speed)
    return Excursion(times, heights)


def _extrema(hs: list[float]) -> list[float]:
    """Strict local extrema of a height sequence: flats merge and monotone
    runs keep their far end."""
    th = [hs[0]]
    for h in hs[1:]:
        if h == th[-1]:
            continue
        if len(th) >= 2 and (th[-1] - th[-2]) * (h - th[-1]) > 0:
            th[-1] = h  # extend monotone run
        else:
            th.append(h)
    return th


class _ArgminTable:
    """Sparse table for leftmost-argmin range queries over a float array."""

    def __init__(self, vals: list[float]) -> None:
        n = len(vals)
        self.vals = np.asarray(vals, dtype=float)
        self.table = [np.arange(n)]
        span = 1
        while 2 * span <= n:
            prev = self.table[-1]
            a = prev[: n - 2 * span + 1]
            b = prev[span: n - span + 1]
            pick = self.vals[b] < self.vals[a]
            self.table.append(np.where(pick, b, a))
            span *= 2
        self.log = np.zeros(n + 1, dtype=int)
        for i in range(2, n + 1):
            self.log[i] = self.log[i // 2] + 1

    def argmin(self, lo: int, hi: int) -> int:
        """Leftmost argmin over the inclusive range [lo, hi]."""
        k = int(self.log[hi - lo + 1])
        a = int(self.table[k][lo])
        b = int(self.table[k][hi - (1 << k) + 1])
        if self.vals[b] < self.vals[a]:
            return b
        return a


def tree_from_excursion(e: Excursion) -> FamilyForest:
    """Forest whose depth-first contour is the given excursion.

    Local maxima become leaves, local minima branch points, zeros separate
    trees; the linear order is the order of first visits.
    """
    heights = _extrema(e.e)
    b = ForestBuilder()
    if len(heights) <= 1:
        r = b.add_root(0.0)
        b.set_death(r, 0.0)
        return b.freeze()

    # split at zeros into per-tree peak/valley runs
    k = 0
    while k < len(heights) - 1:
        assert heights[k] == 0.0
        j = k + 1
        while heights[j] != 0.0:
            j += 1
        peaks = [heights[i] for i in range(k + 1, j, 2)]
        valleys = [heights[i] for i in range(k + 2, j, 2)]
        _build_tree(b, peaks, valleys)
        k = j
    return b.freeze()


def _build_tree(b: ForestBuilder, peaks: list[float], valleys: list[float]) -> None:
    root = b.add_root(0.0)
    if not peaks:
        b.set_death(root, 0.0)
        return
    table = _ArgminTable(valleys) if valleys else None
    # work items: (node, peak-range lo..hi inclusive)
    stack = [(root, 0, len(peaks) - 1)]
    while stack:
        node, lo, hi = stack.pop()
        if lo == hi:
            b.set_death(node, peaks[lo])
            continue
        j = table.argmin(lo, hi - 1)  # valleys[i] sits between peaks i, i+1
        split = valleys[j]
        b.set_death(node, split)
        left = b.add_child(node, split)
        right = b.add_child(node, split)
        # push right first so the left subtree is numbered first (linear order)
        stack.append((right, j + 1, hi))
        stack.append((left, lo, j))


def excise_above(e: Excursion, t: float) -> Excursion:
    """Remove the open time intervals where the path exceeds t and close the
    gaps; the result never exceeds t and codes the truncation of the tree."""
    if t < 0:
        raise InputError("level must be >= 0")
    us, hs = e.u, e.e
    out_u: list[float] = []
    out_h: list[float] = []

    def emit(u: float, h: float) -> None:
        if out_u and u <= out_u[-1]:
            return  # clip points repeat exactly; nothing else can collide
        out_u.append(u)
        out_h.append(h)

    cut = 0.0
    above = hs[0] > t
    clip_time = 0.0  # shifted time of the last upward crossing
    if not above:
        emit(us[0], hs[0])
    for k in range(1, len(us)):
        u0, h0, u1, h1 = us[k - 1], hs[k - 1], us[k], hs[k]
        if not above:
            if h1 <= t:
                emit(u1 - cut, h1)
            else:
                # upward crossing of t inside this segment
                enter_u = u0 + (u1 - u0) * (t - h0) / (h1 - h0)
                clip_time = enter_u - cut
                emit(clip_time, t)
                above = True
        else:
            if h1 < t:
                exit_u = u0 + (u1 - u0) * (t - h0) / (h1 - h0)
                # close the gap so the path resumes at the stored clip time
                cut = exit_u - clip_time
                emit(clip_time, t)
                emit(u1 - cut, h1)
                above = False
            elif h1 == t:
                cut = u1 - clip_time
                emit(clip_time, t)
                above = False
            # else: still above, the whole segment is excised
    if len(out_u) <= 1:
        return Excursion([0.0], [0.0])
    return Excursion(out_u, out_h)
