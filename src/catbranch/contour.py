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
    return Excursion(times.tolist(), heights.tolist())


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
    heights = _extrema(e.e).tolist()
    nodes = _Nodes()
    if len(heights) <= 1:  # the single point: one root of height 0
        _build_tree(nodes, [], [])
    # split at zeros into per-tree peak/valley runs
    k = 0
    while k < len(heights) - 1:
        assert heights[k] == 0.0
        j = k + 1
        while heights[j] != 0.0:
            j += 1
        _build_tree(nodes, heights[k + 1:j:2], heights[k + 2:j:2])
        k = j
    return nodes.forest()


class _Nodes:
    """Node columns of a binary forest under construction.  The two
    children of a split get consecutive ids, and the nodes are recorded in
    pre-order as they are visited."""

    def __init__(self) -> None:
        self.parent: list[int] = []
        self.birth: list[float] = []
        self.death: list[float] = []
        self.first_child: list[int] = []
        self.roots: list[int] = []
        self.order: list[int] = []

    def add(self, parent: int, birth: float) -> int:
        node = len(self.parent)
        self.parent.append(parent)
        self.birth.append(birth)
        self.death.append(birth)
        self.first_child.append(-1)
        return node

    def forest(self) -> FamilyForest:
        first = np.array(self.first_child, dtype=np.intp)
        inner = first >= 0
        kid_ptr = np.zeros(first.size + 1, dtype=np.intp)
        np.cumsum(2 * inner, out=kid_ptr[1:])
        kids = (first[inner, None] + np.arange(2)).ravel()
        return FamilyForest(self.parent, self.birth, self.death, kid_ptr, kids,
                            self.roots, order=self.order)


def _build_tree(nodes: _Nodes, peaks: list[float], valleys: list[float]) -> None:
    root = nodes.add(-1, 0.0)
    nodes.roots.append(root)
    if not peaks:
        nodes.order.append(root)
        return
    table = _ArgminTable(valleys) if valleys else None
    # work items: (node, peak-range lo..hi inclusive), popped in pre-order
    stack = [(root, 0, len(peaks) - 1)]
    while stack:
        node, lo, hi = stack.pop()
        nodes.order.append(node)
        if lo == hi:
            nodes.death[node] = peaks[lo]
            continue
        j = table.argmin(lo, hi - 1)  # valleys[i] sits between peaks i, i+1
        split = valleys[j]
        nodes.death[node] = split
        left = nodes.add(node, split)
        right = nodes.add(node, split)
        nodes.first_child[node] = left
        # push right first so the left subtree is visited first (linear order)
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
