"""
points.py
=========
Level-t genealogical point processes.

The population alive at height t, read in the forest's linear order, is
summarized by the consecutive-neighbor MRCA heights: point i sits at
(i * spacing, h_i) where h_i is the splitting height between neighbors i and
i+1.  Neighbors in distinct trees split at the glued root, h = 0, and these
zero marks count tree separations.  All pairwise distances at the level are
recovered by the ultrametric closure

    d(x_i, x_j) = 2 * (t - min(h_i, ..., h_{j-1})),

the max-of-consecutive-distances rule.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence, TextIO, Union

import numpy as np

from ._columns import read_columns, write_rows
from .contour import Excursion
from .errors import InputError, malformed_lines
from .forest import FamilyForest


@dataclass
class GenealogicalPointProcess:
    level: float
    spacing: float
    heights: list[float]  # neighbor MRCA heights, linear order

    def __post_init__(self) -> None:
        if not 0 < self.spacing < math.inf:
            raise InputError(f"spacing must be finite and > 0, got {self.spacing!r}")
        if not 0 <= self.level < math.inf:
            raise InputError(f"point-process level must be finite and >= 0, got {self.level!r}")
        if self.level <= 0 and self.heights:
            raise InputError("nonempty point process needs level > 0")
        for h in self.heights:
            if not 0.0 <= h < self.level:
                raise InputError("point heights must lie in [0, t)")

    @property
    def points(self) -> list[tuple[float, float]]:
        return list(zip(self._ells(), self.heights))

    def _ells(self) -> list:
        """The points' positions, (i + 1) * spacing for point i."""
        return list(map(operator.mul, range(1, len(self.heights) + 1),
                        itertools.repeat(self.spacing)))

    @property
    def zero_marks(self) -> int:
        return sum(1 for h in self.heights if h == 0.0)

    def write(self, fh: TextIO) -> None:
        fh.write("# t=%r spacing=%r zero_marks=%d\n"
                 % (self.level, self.spacing, self.zero_marks))
        fh.write("ell,h\n")
        write_rows(fh, [list(map(repr, self._ells())), list(map(repr, self.heights))],
                   sep=",")

    @classmethod
    def read(cls, fh: TextIO) -> "GenealogicalPointProcess":
        header = fh.readline()
        if not header.startswith("#"):
            raise InputError("missing point-process header")
        with malformed_lines("point-process"):
            fields = dict(tok.split("=", 1) for tok in header[1:].split())
            level = float(fields["t"])
            spacing = float(fields["spacing"])
            zero_marks = int(fields["zero_marks"])
            first = fh.readline()
            if first.strip() == "ell,h":  # column names
                first = ""
            ells, heights = read_columns(first + fh.read(), "point-process", 2, sep=",")
            ells, heights = list(map(float, ells)), list(map(float, heights))
        pp = cls(level, spacing, heights)
        if ells != pp._ells():
            raise InputError("malformed point-process file: the ell column is "
                             f"not 1, 2, 3, ... times the spacing {spacing!r}")
        if zero_marks != pp.zero_marks:
            raise InputError(f"malformed point-process file: header zero_marks="
                             f"{zero_marks}, but {pp.zero_marks} heights are 0")
        return pp


def point_process_at_level(f: FamilyForest, t: float,
                           spacing: float) -> GenealogicalPointProcess:
    """Neighbor MRCA heights of the ordered level-t population.

    The splitting height between two consecutive level crossings, at
    pre-order ranks a < b, is the minimum birth over the ranks (a, b], with
    a root's birth read as 0: a range minimum over the pre-order, the
    reduction of lowest common ancestors to range minima (Bender and
    Farach-Colton, 2000).  This is the valley floor of the contour between
    the two visits: a node's birth is its parent's death, so the lowest
    birth entered is the death of the crossings' most recent common
    ancestor, and a root entered means the crossings meet at the glued
    root, 0.
    """
    if not 0 < t < math.inf:
        raise InputError(f"level must be finite and > 0 for a point process, got {t!r}")
    heights = neighbor_heights(f, f.level_positions(t))
    return GenealogicalPointProcess(t, spacing, heights.tolist())


def neighbor_heights(f: FamilyForest, ranks: np.ndarray) -> np.ndarray:
    """The splitting heights of consecutive level crossings at the
    increasing pre-order ranks `ranks` (see `point_process_at_level`): one
    fewer than the crossings, and none for fewer than two."""
    if ranks.size < 2:
        return np.zeros(0)
    between = f.order[ranks[0] + 1:ranks[-1] + 1]
    floor = np.where(f.parent[between] == -1, 0.0, f.birth[between])
    return np.minimum.reduceat(floor, ranks[:-1] - ranks[0])


def reconstruct_distance_matrix(p: GenealogicalPointProcess) -> np.ndarray:
    """(k+1) x (k+1) pairwise distances of the level population from the k
    neighbor points, by the ultrametric max rule."""
    k = len(p.heights)
    t = p.level
    n = k + 1
    d = np.zeros((n, n), dtype=float)
    for i in range(n):
        running = t
        for j in range(i + 1, n):
            running = min(running, p.heights[j - 1])
            val = 2.0 * (t - running)
            d[i, j] = val
            d[j, i] = val
    return d


def pairwise_level_distances(f: FamilyForest, t: float) -> np.ndarray:
    """Direct pairwise distances of the level-t population (independent
    route used to cross-check the point-process reconstruction)."""
    pts = f.level_set(t)
    n = len(pts)
    d = np.zeros((n, n), dtype=float)
    for i in range(n):
        for j in range(i + 1, n):
            val = f.genealogical_distance(pts[i], pts[j])
            d[i, j] = val
            d[j, i] = val
    return d


PathLike = Union[Excursion, Sequence[float], np.ndarray]


def excursion_depths_below_level(path: PathLike, t: float,
                                 depth_floor: float = 0.0):
    """Maximal depths of the complete downward excursions of a path below t.

    Returns a list of (index, depth) pairs, one per excursion that starts
    and ends at the level, the index counting the excursions kept; the
    leading segment before the first visit of t and the trailing segment
    after the last are incomplete and are dropped, and so are dips
    shallower than the floor.  A sampled path (a sequence of heights) is
    read as the piecewise-linear path through its samples, which must be
    finite; the floor must lie in [0, inf).
    """
    if not math.isfinite(t):
        raise InputError(f"level must be finite, got {t!r}")
    if not 0.0 <= depth_floor < math.inf:
        raise InputError(f"depth floor must be finite and >= 0, "
                         f"got {depth_floor!r}")
    if isinstance(path, Excursion):
        hs = path.e
    else:
        arr = np.asarray(path, dtype=float)
        if not np.isfinite(arr).all():
            raise InputError("sampled path heights must be finite")
        hs = arr.tolist()
    if len(hs) < 2:
        return []
    return _depths_exact(hs, t, depth_floor)


def _depths_exact(hs: Sequence[float], t: float, floor: float):
    out = []
    count = 0
    above = hs[0] >= t
    seen_above = above
    run_min = None if above else hs[0]
    for h in hs[1:]:
        if above:
            if h < t:
                above = False
                run_min = h
        else:
            if h >= t:
                if seen_above:
                    depth = t - run_min
                    if depth >= floor:
                        count += 1
                        out.append((count, depth))
                seen_above = True
                above = True
                run_min = None
            else:
                run_min = min(run_min, h)
    return out
