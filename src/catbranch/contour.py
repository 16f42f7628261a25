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

import itertools
import math
import operator
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from ._columns import read_columns, write_rows
from .errors import InputError, malformed_lines
from .forest import FamilyForest


@dataclass
class Excursion:
    """Piecewise linear nonnegative path from (0,0) back to height 0.

    `u` are strictly increasing times, `e` the heights at those times;
    values between breakpoints interpolate linearly.
    """

    u: list[float]
    e: list[float]

    def __post_init__(self) -> None:
        u, e = self.u, self.e
        if len(u) != len(e) or not u:
            raise InputError("breakpoint arrays must be nonempty, equal length")
        if u[0] != 0.0 or e[0] != 0.0:
            raise InputError("excursion must start at (0, 0)")
        if e[-1] != 0.0:
            raise InputError("excursion must end at height 0")
        if not math.isfinite(u[-1]):
            raise InputError("excursion duration must be finite")
        # whole-sequence checks in C; a comparison with NaN fails them
        if not (all(map(operator.lt, u, itertools.islice(u, 1, None)))
                and all(map(operator.le, itertools.repeat(0.0), e))
                and all(map(operator.gt, itertools.repeat(math.inf), e))):
            k = next(k for k in range(1, len(u))
                     if not (u[k] > u[k - 1] and 0.0 <= e[k] < math.inf))
            if not u[k] > u[k - 1]:
                raise InputError("breakpoint times must increase strictly")
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
        write_rows(fh, [list(map(repr, map(float, self.u))),
                        list(map(repr, map(float, self.e)))])

    @classmethod
    def read(cls, fh: TextIO) -> tuple["Excursion", float]:
        header = fh.readline()
        if not header.startswith("# speed="):
            raise InputError("missing excursion speed header")
        with malformed_lines("contour"):
            speed = float(header.split("=", 1)[1])
            us, es = read_columns(fh.read(), "contour", 2)
            us, es = list(map(float, us)), list(map(float, es))
        if not 0 < speed < math.inf:
            raise InputError(f"contour speed must be finite and > 0, got {speed!r}")
        return cls(us, es), speed


def _turning_heights(f: FamilyForest) -> np.ndarray:
    """Alternating extremum heights of the depth-first trace, incl. the
    bracketing zeros.

    Read off the pre-order: the trace passes through a node's birth (0 for
    a root) before the node, peaks at every leaf's death height, and closes
    at 0.  A birth is a valley when the node is not its predecessor's
    child; otherwise it lies on the rising edge and merges in `_extrema`,
    as do zero-length edges and duplicates.
    """
    order = f.order
    # a row per node, its birth and then its peak if a leaf, and a last row
    # that closes at 0
    heights = np.zeros((order.size + 1, 2))
    heights[:-1, 0] = np.where(f.parent[order] == -1, 0.0, f.birth[order])
    heights[:-1, 1] = f.death[order]
    turns = np.ones((order.size + 1, 2), dtype=bool)
    turns[:-1, 1] = (f.kid_ptr[1:] == f.kid_ptr[:-1])[order]
    turns[-1, 1] = False
    seq = heights[turns]
    if not np.isfinite(seq).all():
        raise InputError("cannot encode a forest with unbounded edges")
    return _extrema(seq)


def contour_from_forest(f: FamilyForest, speed: float) -> Excursion:
    """Depth-first contour of a finite forest traced at the given speed."""
    if not 0 < speed < math.inf:
        raise InputError(f"contour speed must be finite and > 0, got {speed!r}")
    heights = _turning_heights(f)
    if heights.size == 1:
        return Excursion([0.0], [0.0])
    # a running sum, step by step, as the breakpoints are traced
    times = np.zeros(heights.size)
    np.cumsum(np.abs(np.diff(heights)) / speed, out=times[1:])
    stalled = np.flatnonzero(times[1:] <= times[:-1])
    times = times.tolist()
    if stalled.size:
        # a step below half an ulp of the running time leaves it unchanged;
        # move such a breakpoint one ulp on, and any it then catches up with
        for k in range(stalled[0] + 1, len(times)):
            if times[k] <= times[k - 1]:
                times[k] = math.nextafter(times[k - 1], math.inf)
    return Excursion(times, heights.tolist())


def _extrema(hs) -> np.ndarray:
    """Strict local extrema of a height sequence: flats merge and monotone
    runs keep their far end."""
    h = np.asarray(hs, dtype=float)
    keep = np.ones(h.size, dtype=bool)
    np.not_equal(h[1:], h[:-1], out=keep[1:])
    h = h[keep]
    rising = h[1:] > h[:-1]
    keep = np.ones(h.size, dtype=bool)
    np.not_equal(rising[1:], rising[:-1], out=keep[1:-1])
    return h[keep]


class _ArgminTable:
    """Sparse table for leftmost-argmin range queries over a float array."""

    def __init__(self, heights: np.ndarray) -> None:
        n = heights.size
        rows = [np.arange(n)]
        span = 1
        while 2 * span <= n:
            prev = rows[-1]
            a = prev[: n - 2 * span + 1]
            b = prev[span: n - span + 1]
            rows.append(np.where(heights[b] < heights[a], b, a))
            span *= 2
        # the queries read single entries, which lists serve fastest
        self.vals = heights.tolist()
        self.table = [row.tolist() for row in rows]

    def argmin(self, lo: int, hi: int) -> int:
        """Leftmost argmin over the inclusive range [lo, hi]."""
        k = (hi - lo + 1).bit_length() - 1  # the largest k with 2**k <= width
        a = self.table[k][lo]
        b = self.table[k][hi - (1 << k) + 1]
        if self.vals[b] < self.vals[a]:
            return b
        return a


def tree_from_excursion(e: Excursion) -> FamilyForest:
    """Forest whose depth-first contour is the given excursion.

    Local maxima become leaves, local minima branch points, zeros separate
    trees; the linear order is the order of first visits.  The two children
    of a split get consecutive ids, and each tree is numbered as it is
    reached.
    """
    # 0, peak, valley, peak, ..., peak, 0: valley i sits between peaks i
    # and i + 1, and the valleys at 0 part the trees
    heights = _extrema(e.e)
    peaks, valleys = heights[1::2], heights[2:-1:2]
    table = _ArgminTable(valleys)
    ends = [-1, *np.flatnonzero(valleys == 0.0).tolist(), peaks.size - 1]
    peaks, valleys = peaks.tolist(), valleys.tolist()
    parent: list[int] = []
    birth: list[float] = []
    death: list[float] = []
    first: list[int] = []  # each node's first child, -1 for a leaf
    roots: list[int] = []
    order: list[int] = []  # the pre-order, as the nodes are visited
    # work items (node, peak range lo..hi), the trees' last on top; a tree's
    # root (node -1) is made when its tree is reached, and a split pushes
    # its right child first, so the left subtree is visited first
    stack = [(-1, a + 1, b) for a, b in zip(ends[-2::-1], ends[:0:-1])]
    while stack:
        node, lo, hi = stack.pop()
        if node < 0:
            node = len(parent)
            roots.append(node)
            parent.append(-1)
            birth.append(0.0)
            death.append(0.0)
            first.append(-1)
        order.append(node)
        if lo >= hi:  # a leaf, or (an empty range) the single point's root
            if lo == hi:
                death[node] = peaks[lo]
            continue
        j = table.argmin(lo, hi - 1)
        split = valleys[j]
        death[node] = split
        left = first[node] = len(parent)
        parent += (node, node)
        birth += (split, split)
        death += (split, split)
        first += (-1, -1)
        stack.append((left + 1, j + 1, hi))
        stack.append((left, lo, j))
    first = np.array(first, dtype=np.intp)
    inner = first >= 0
    kid_ptr = np.zeros(first.size + 1, dtype=np.intp)
    np.cumsum(2 * inner, out=kid_ptr[1:])
    kids = (first[inner, None] + np.arange(2)).ravel()
    return FamilyForest(parent, birth, death, kid_ptr, kids, roots, order=order)


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
