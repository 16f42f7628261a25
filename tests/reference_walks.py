"""
The hand-written forest walks that `catbranch` used before its forests
became arrays, kept as the reference for the tests.

Each function walks the child lists (`FamilyForest.children_of`) from
`roots` with its own stack, as the library once did:

  level_set             a pre-order generator filtered by birth < t <= death
  tree_index            a per-root stack that stamps the root's number
  level_tree_sizes      the level set counted per tree in a dict, as the
                        harness once counted it
  point_process_heights a (node, child-index) stack that tracks the lowest
                        branch or root-glue height dipped to between two
                        level crossings
  contour               a (node, child-index) stack that interleaves leaf
                        heights with the branch height between siblings,
                        then merges flats and monotone runs, timed at the
                        given speed
"""

from __future__ import annotations

import math

from catbranch.errors import InputError
from catbranch.forest import FamilyForest, TreePoint


def _dfs(f: FamilyForest):
    for r in f.roots.tolist():
        stack = [r]
        while stack:
            v = stack.pop()
            yield v
            stack.extend(reversed(f.children_of(v)))


def level_set(f: FamilyForest, t: float) -> list[TreePoint]:
    if t == 0.0:
        return [TreePoint(r, 0.0) for r in f.roots.tolist()]
    return [TreePoint(v, t - f.birth[v]) for v in _dfs(f)
            if f.birth[v] < t <= f.death_height(v)]


def tree_index(f: FamilyForest) -> list[int]:
    idx = [-1] * len(f)
    for i, r in enumerate(f.roots.tolist()):
        stack = [r]
        while stack:
            v = stack.pop()
            idx[v] = i
            stack.extend(f.children_of(v))
    return idx


def level_tree_sizes(f: FamilyForest, t: float) -> list[int]:
    tree = tree_index(f)
    sizes: dict[int, int] = {}
    for p in level_set(f, t):
        sizes[tree[p.node]] = sizes.get(tree[p.node], 0) + 1
    return list(sizes.values())


def point_process_heights(f: FamilyForest, t: float) -> list[float]:
    heights: list[float] = []
    pending_min = t  # lowest height dipped to since the previous crossing
    seen_any = False

    for r in f.roots.tolist():
        stack: list[tuple[int, int]] = [(r, 0)]
        while stack:
            v, ci = stack.pop()
            kids = f.children_of(v)
            d = f.death_height(v)
            if ci == 0:
                # climbing this edge: does it cross the level?
                if f.birth[v] < t <= d:
                    if seen_any:
                        heights.append(pending_min)
                    seen_any = True
                    pending_min = t
            if ci > 0:
                pending_min = min(pending_min, d)  # dip to the branch height
            if ci < len(kids):
                stack.append((v, ci + 1))
                stack.append((kids[ci], 0))
        pending_min = 0.0  # dip to the glued root between trees
    return heights


def _turning_heights(f: FamilyForest) -> list[float]:
    seq: list[float] = [0.0]

    for r in f.roots.tolist():
        # iterative in-order interleave: L(v) = L(c1) + [death_v] + L(c2) ...
        stack: list[tuple[int, int]] = [(r, 0)]
        while stack:
            v, ci = stack.pop()
            kids = f.children_of(v)
            d = f.death_height(v)
            if not math.isfinite(d):
                raise InputError("cannot encode a forest with unbounded edges")
            if not kids:
                seq.append(d)
                continue
            if 0 < ci < len(kids):
                seq.append(d)  # valley between sibling subtrees
            if ci < len(kids):
                stack.append((v, ci + 1))
                stack.append((kids[ci], 0))
        seq.append(0.0)

    # merge flats: keep strict direction changes only
    out = [seq[0]]
    for h in seq[1:]:
        if h == out[-1]:
            continue
        if len(out) >= 2 and (out[-1] - out[-2]) * (h - out[-1]) > 0:
            out[-1] = h  # extend monotone run
        else:
            out.append(h)
    if len(out) == 1:
        out = [0.0]
    return out


def contour(f: FamilyForest, speed: float) -> tuple[list[float], list[float]]:
    """Breakpoint times and heights of the depth-first contour."""
    heights = _turning_heights(f)
    if len(heights) == 1:
        return [0.0], [0.0]
    times = [0.0]
    for k in range(1, len(heights)):
        times.append(times[-1] + abs(heights[k] - heights[k - 1]) / speed)
    return times, heights
