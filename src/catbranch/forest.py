"""
forest.py
=========
Rooted, linearly ordered real-tree forests recorded as explicit node tables.

A forest holds one node per individual of a branching population.  Each node
carries a birth height, a death height (``math.inf`` for individuals that
never die before a horizon cut), an ordered child list and a parent link.
Height in the tree equals time in the population, measured from the roots at
height 0.  Points in the continuum tree are addressed as ``TreePoint(node,
offset)`` with the offset measured from the node's birth, so all metric
arithmetic is exact float arithmetic on stored values — the topology never
depends on floating-point comparisons of derived quantities.

The genealogical metric: for points a, b at heights ha, hb,

    d(a, b) = (ha - tau) + (hb - tau)

where tau is the height of the splitting point of their most recent common
ancestor.  Points in different trees of the forest meet at the glued root,
tau = 0, so two distinct roots are at distance 0 and the level-t populations
of a forest form an ultrametric space.

Public surface
--------------
  FamilyForest          node-table container with metric/shape operations
  TreePoint             (node, offset) address of a tree point
  ForestBuilder         append-only constructor used by simulators/codecs
  gh_distance_bounds    certified lower/upper bounds on rooted GH distance
  random_binary_forest  seeded generator of small forests with dyadic edge
                        lengths (verification and property tests)
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Optional, TextIO

from .errors import InputError, malformed_lines

NEVER = math.inf


class TreePoint(NamedTuple):
    node: int
    offset: float


class ForestBuilder:
    """Append-only accumulator of node records; `freeze()` yields a forest
    that adopts the builder's lists, so the builder is done once frozen."""

    def __init__(self) -> None:
        self.parent: list[int] = []
        self.birth: list[float] = []
        self.death: list[float] = []
        self.children: list[list[int]] = []
        self.roots: list[int] = []

    def add_root(self, birth: float = 0.0) -> int:
        nid = self._add(-1, birth)
        self.roots.append(nid)
        return nid

    def add_child(self, parent: int, birth: float) -> int:
        nid = self._add(parent, birth)
        self.children[parent].append(nid)
        return nid

    def _add(self, parent: int, birth: float) -> int:
        nid = len(self.parent)
        self.parent.append(parent)
        self.birth.append(float(birth))
        self.death.append(NEVER)
        self.children.append([])
        return nid

    def set_death(self, node: int, death: float) -> None:
        self.death[node] = float(death)

    def freeze(self, height_cap: Optional[float] = None,
               validate: bool = False) -> "FamilyForest":
        return FamilyForest(self.parent, self.birth, self.death,
                            self.children, self.roots,
                            height_cap=height_cap, validate=validate)


class FamilyForest:
    """
    Immutable-by-convention forest of rooted ordered real trees.

    Construction is cheap: the five lists are adopted, not copied, so the
    caller hands them over and must not change them afterwards.  Treat a
    forest as read-only; forests may share lists (see `truncate`).  All
    derived structure (the depth-first pre-order, subtree maxima, tree
    index) is computed lazily and cached, so forests are safe to share
    across threads once built.  The pre-order is the only walk over
    `children`; every other reader of the linear order uses it.
    """

    __slots__ = ("parent", "birth", "death", "children", "roots",
                 "height_cap", "_order", "_subtree_max", "_tree_index")

    def __init__(self, parent, birth, death, children, roots,
                 height_cap: Optional[float] = None,
                 validate: bool = False) -> None:
        self.parent = parent
        self.birth = birth
        self.death = death
        self.children = children
        self.roots = roots
        self.height_cap = height_cap
        self._order: Optional[list[int]] = None
        self._subtree_max: Optional[list[float]] = None
        self._tree_index: Optional[list[int]] = None
        if validate:
            self.validate()

    # ------------------------------------------------------------------ #
    # Structure                                                           #
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.parent)

    def validate(self) -> None:
        n = len(self)
        seen_child = [False] * n
        for nid in range(n):
            p = self.parent[nid]
            if p == -1:
                if nid not in self.roots:
                    raise InputError(f"node {nid} has no parent and is not a root")
            else:
                if not 0 <= p < n:
                    raise InputError(f"node {nid}: parent {p} out of range")
                if nid not in self.children[p]:
                    raise InputError(f"node {nid} missing from parent child list")
                if self.birth[nid] != self.death[p]:
                    raise InputError(
                        f"node {nid}: birth {self.birth[nid]} != parent death "
                        f"{self.death[p]}")
            if not self.birth[nid] <= self.death[nid]:  # NaN fails too
                raise InputError(f"node {nid}: death before birth")
            if self.height_cap is not None and self.death[nid] > self.height_cap:
                raise InputError(f"node {nid}: death above height cap")
            for c in self.children[nid]:
                if not 0 <= c < n or self.parent[c] != nid:
                    raise InputError(f"node {nid}: child {c} does not name it as parent")
                if seen_child[c]:
                    raise InputError(f"node {c} has two parents")
                seen_child[c] = True
        if len(set(self.roots)) != len(self.roots):
            raise InputError("a root is listed twice")
        for r in self.roots:
            if not 0 <= r < n:
                raise InputError(f"root {r} out of range")
            if self.parent[r] != -1:
                raise InputError(f"root {r} has a parent")

    def dfs_order(self) -> list[int]:
        """Pre-order of the nodes, respecting root and child order.

        Built on the first call and cached: the returned list is shared by
        every caller, who must not mutate it.
        """
        if self._order is None:
            order = []
            children = self.children
            stack = self.roots[::-1]
            while stack:
                v = stack.pop()
                order.append(v)
                stack.extend(reversed(children[v]))
            self._order = order
        return self._order

    def labels(self) -> list[tuple[int, ...]]:
        """Lexicographic ancestry labels consistent with the stored order."""
        lab: list[tuple[int, ...]] = [()] * len(self)
        for i, r in enumerate(self.roots):
            lab[r] = (i + 1,)
        for v in self.dfs_order():
            for k, c in enumerate(self.children[v]):
                lab[c] = lab[v] + (k + 1,)
        return lab

    def edge_length(self, node: int) -> float:
        d = self.death_height(node)
        return d - self.birth[node]

    def death_height(self, node: int) -> float:
        d = self.death[node]
        if d == NEVER and self.height_cap is not None:
            return self.height_cap
        return d

    def subtree_max_height(self) -> list[float]:
        """Per node: maximal death height reachable in its subtree."""
        if self._subtree_max is None:
            m = [0.0] * len(self)
            for v in reversed(self.dfs_order()):
                if self.children[v]:
                    m[v] = max(m[c] for c in self.children[v])
                else:
                    m[v] = self.death_height(v)
            self._subtree_max = m
        return self._subtree_max

    def tree_index(self) -> list[int]:
        """Index of the root tree each node belongs to: the count of roots
        met up to the node in the pre-order, less one."""
        if self._tree_index is None:
            idx = [-1] * len(self)
            parent = self.parent
            k = -1
            for v in self.dfs_order():
                if parent[v] == -1:
                    k += 1
                idx[v] = k
            self._tree_index = idx
        return self._tree_index

    def height(self) -> float:
        if not self.roots:
            return 0.0
        return max(self.subtree_max_height()[r] for r in self.roots)

    def total_edge_length(self) -> float:
        return sum(self.edge_length(v) for v in range(len(self)))

    def leaf_count(self) -> int:
        return sum(1 for v in range(len(self)) if not self.children[v])

    # ------------------------------------------------------------------ #
    # Metric                                                              #
    # ------------------------------------------------------------------ #

    def point_height(self, p: TreePoint) -> float:
        self._check_point(p)
        return self.birth[p.node] + p.offset

    def _check_point(self, p: TreePoint) -> None:
        if not 0 <= p.node < len(self):
            raise InputError(f"node id {p.node} out of range")
        if not 0.0 <= p.offset <= self.edge_length(p.node):
            raise InputError(
                f"offset {p.offset} outside edge of node {p.node} "
                f"(length {self.edge_length(p.node)})")

    def _root_path(self, node: int) -> list[int]:
        path = []
        v = node
        while v != -1:
            path.append(v)
            v = self.parent[v]
        path.reverse()
        return path

    def mrca_height(self, a: TreePoint, b: TreePoint) -> float:
        """Splitting height of the most recent common ancestor of a and b.

        Points in distinct trees meet at the glued root, height 0.
        """
        self._check_point(a)
        self._check_point(b)
        ha = self.birth[a.node] + a.offset
        hb = self.birth[b.node] + b.offset
        if a.node == b.node:
            return min(ha, hb)
        pa = self._root_path(a.node)
        pb = self._root_path(b.node)
        if pa[0] != pb[0]:
            return 0.0
        k = 0
        last = 0
        limit = min(len(pa), len(pb))
        while k < limit and pa[k] == pb[k]:
            last = k
            k += 1
        common = pa[last]
        if common == a.node:
            return ha
        if common == b.node:
            return hb
        return self.death_height(common)

    def genealogical_distance(self, a: TreePoint, b: TreePoint) -> float:
        ha = self.point_height(a)
        hb = self.point_height(b)
        if a == b:
            return 0.0
        tau = self.mrca_height(a, b)
        return (ha - tau) + (hb - tau)

    # ------------------------------------------------------------------ #
    # Slicing operations                                                  #
    # ------------------------------------------------------------------ #

    def truncate(self, t: float) -> "FamilyForest":
        """Remove everything above height t; edges crossing t are clipped."""
        if not 0 <= t < math.inf:
            raise InputError(f"truncation level must be finite and >= 0, got {t!r}")
        if t >= self.height() and all(self.death[v] != NEVER for v in range(len(self))):
            return FamilyForest(self.parent, self.birth, self.death,
                                self.children, self.roots, height_cap=t)
        if t == 0.0:
            b = ForestBuilder()
            for _ in self.roots:
                r = b.add_root(0.0)
                b.set_death(r, 0.0)
            return b.freeze(height_cap=0.0)
        keep = [False] * len(self)
        new_id = [-1] * len(self)
        b = ForestBuilder()
        for v in self.dfs_order():
            if self.birth[v] >= t:
                continue
            keep[v] = True
            p = self.parent[v]
            if p == -1:
                nid = b.add_root(self.birth[v])
            else:
                nid = b.add_child(new_id[p], self.birth[v])
            new_id[v] = nid
            b.set_death(nid, min(self.death_height(v), t))
        return b.freeze(height_cap=t)

    def level_set(self, t: float) -> list[TreePoint]:
        """Points at height exactly t, in the forest's linear order.

        A node contributes while birth < t <= death; at t == 0 the root
        points are returned.  At a branch height the single branch point is
        reported once (as the parent's death point).
        """
        if not 0 <= t < math.inf:
            raise InputError(f"level must be finite and >= 0, got {t!r}")
        if self.height_cap is not None and t > self.height_cap:
            raise InputError("level above forest height cap")
        if t == 0.0:
            return [TreePoint(r, 0.0) for r in self.roots]
        out = []
        for v in self.dfs_order():
            if self.birth[v] < t <= self.death_height(v):
                out.append(TreePoint(v, t - self.birth[v]))
        return out

    def trim(self, eps: float) -> "FamilyForest":
        """Keep the root and every point with a descendant at distance >= eps."""
        if eps <= 0:
            raise InputError("trim radius must be > 0")
        m = self.subtree_max_height()
        b = ForestBuilder()
        new_id = [-1] * len(self)
        for v in self.dfs_order():
            cut = m[v] - eps
            p = self.parent[v]
            if p == -1:
                nid = b.add_root(self.birth[v])
                b.set_death(nid, min(self.death_height(v), max(self.birth[v], cut)))
                new_id[v] = nid
            else:
                if new_id[p] == -1 or cut <= self.birth[v]:
                    continue
                nid = b.add_child(new_id[p], self.birth[v])
                b.set_death(nid, min(self.death_height(v), cut))
                new_id[v] = nid
        cap = None if self.height_cap is None else self.height_cap
        return b.freeze(height_cap=cap)

    def ancestors(self, t: float, eps: float) -> list[TreePoint]:
        """Ordered ancestors at height t - eps of the population alive at t."""
        if not 0 < eps <= t:
            raise InputError("need 0 < eps <= t")
        m = self.subtree_max_height()
        return [p for p in self.level_set(t - eps) if m[p.node] >= t]

    # ------------------------------------------------------------------ #
    # Net sums and shape                                                  #
    # ------------------------------------------------------------------ #

    def i2_length(self, mesh: float) -> float:
        """Sum of squared gaps over a mesh-net of the forest.

        The net consists of all roots, branch points and leaves plus equal
        subdivisions of every edge at the given mesh; adjacent net points are
        consecutive along an edge, so each edge of length L contributes
        L^2 / ceil(L / mesh).  Refining the mesh on a finite forest drives
        the sum to zero; on rough trees sampled at fine resolution the sum
        stabilizes at the quadratic variation of the generating contour for
        meshes well above the sampling scale.
        """
        if mesh <= 0:
            raise InputError("mesh must be > 0")
        total = 0.0
        for v in range(len(self)):
            length = self.edge_length(v)
            if length <= 0.0:
                continue
            k = max(1, math.ceil(length / mesh))
            total += length * length / k
        return total

    def diameter(self) -> float:
        """Largest pairwise distance, root gluing included."""
        if not self.roots:
            return 0.0
        m = self.subtree_max_height()
        best = 0.0
        # within-tree diameters: deepest two child subtrees under each branch
        for v in range(len(self)):
            if len(self.children[v]) >= 2:
                depths = sorted((m[c] for c in self.children[v]), reverse=True)
                d = (depths[0] - self.death_height(v)) + (depths[1] - self.death_height(v))
                best = max(best, d)
            best = max(best, m[v] - self.birth[v] if self.parent[v] == -1 else 0.0)
        heights = sorted((m[r] for r in self.roots), reverse=True)
        if len(heights) >= 2:
            best = max(best, heights[0] + heights[1])
        best = max(best, heights[0])
        return best

    def canonical_shape(self):
        """Nested (birth, death, children-shapes) tuples in linear order.

        Two forests are order-preserving root-invariant isometric iff their
        canonical shapes are equal (heights are compared exactly).
        """
        # iterative post-order to survive deep birth-death chains
        memo: dict[int, tuple] = {}
        for v in reversed(self.dfs_order()):
            memo[v] = (self.birth[v], self.death_height(v),
                       tuple(memo[c] for c in self.children[v]))
        return tuple(memo[r] for r in self.roots)

    # ------------------------------------------------------------------ #
    # Serialization                                                       #
    # ------------------------------------------------------------------ #

    def write(self, fh: TextIO) -> None:
        cap = "none" if self.height_cap is None else repr(float(self.height_cap))
        fh.write("# roots=%s height_cap=%s\n"
                 % (",".join(map(str, self.roots)), cap))
        for v in range(len(self)):
            fields = [str(v), str(self.parent[v]), repr(float(self.birth[v])),
                      repr(float(self.death[v]))]
            fields.extend(str(c) for c in self.children[v])
            fh.write(" ".join(fields) + "\n")

    def to_text(self) -> str:
        import io
        buf = io.StringIO()
        self.write(buf)
        return buf.getvalue()

    @classmethod
    def read(cls, fh: TextIO) -> "FamilyForest":
        header = fh.readline()
        if not header.startswith("#"):
            raise InputError("missing forest header line")
        parent, birth, death, children = [], [], [], []
        with malformed_lines("forest"):
            fields = dict(tok.split("=", 1) for tok in header[1:].split())
            roots = [int(x) for x in fields["roots"].split(",") if x != ""]
            cap_s = fields["height_cap"]
            cap = None if cap_s == "none" else float(cap_s)
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                toks = line.split()
                nid = int(toks[0])
                if nid != len(parent):
                    raise InputError("node ids must be consecutive from 0")
                parent.append(int(toks[1]))
                birth.append(float(toks[2]))
                death.append(float(toks[3]))
                children.append([int(c) for c in toks[4:]])
        return cls(parent, birth, death, children, roots, height_cap=cap,
                   validate=True)

    @classmethod
    def from_text(cls, text: str) -> "FamilyForest":
        import io
        return cls.read(io.StringIO(text))


# ---------------------------------------------------------------------- #
# Gromov-Hausdorff bounds                                                  #
# ---------------------------------------------------------------------- #

def _skeleton_points(f: FamilyForest) -> list[TreePoint]:
    pts = [TreePoint(f.roots[0], 0.0)] if f.roots else []
    for v in range(len(f)):
        if f.parent[v] == -1 and v != (f.roots[0] if f.roots else -1):
            pts.append(TreePoint(v, 0.0))
        nk = len(f.children[v])
        if nk != 1:  # leaves and branch points
            pts.append(TreePoint(v, f.edge_length(v)))
    return pts

def _net_radius(f: FamilyForest) -> float:
    r = 0.0
    for v in range(len(f)):
        if len(f.children[v]) == 1:
            # unary chains: the gap between skeleton points spans the chain
            continue
        r = max(r, f.edge_length(v) / 2.0)
    # account for unary chains by walking them
    for v in range(len(f)):
        if len(f.children[v]) == 1:
            top = v
            length = f.edge_length(v)
            c = f.children[v][0]
            while len(f.children[c]) == 1:
                length += f.edge_length(c)
                c = f.children[c][0]
            length += f.edge_length(c)
            r = max(r, length / 2.0)
    return r


def _min_skeleton_distortion(f1: FamilyForest, f2: FamilyForest,
                             s1: list[TreePoint], s2: list[TreePoint]) -> float:
    """Exact minimum distortion over correspondences of the skeletons that
    pair the two glued roots, via enumeration of function pairs."""
    d1 = [[f1.genealogical_distance(a, b) for b in s1] for a in s1]
    d2 = [[f2.genealogical_distance(a, b) for b in s2] for a in s2]
    n1, n2 = len(s1), len(s2)
    best = math.inf
    # maps fixing root->root (index 0 is a root point in both skeletons)
    for fmap in itertools.product(range(n2), repeat=n1 - 1):
        fm = (0,) + fmap
        dis_f = max(abs(d1[i][j] - d2[fm[i]][fm[j]])
                    for i in range(n1) for j in range(i + 1, n1))
        if dis_f >= best:
            continue
        for gmap in itertools.product(range(n1), repeat=n2 - 1):
            gm = (0,) + gmap
            dis = dis_f
            for p in range(n2):
                for q in range(p + 1, n2):
                    dis = max(dis, abs(d2[p][q] - d1[gm[p]][gm[q]]))
                if dis >= best:
                    break
            for i in range(n1):
                for p in range(n2):
                    dis = max(dis, abs(d1[i][gm[p]] - d2[fm[i]][p]))
            best = min(best, dis)
    return best


def gh_distance_bounds(f1: FamilyForest, f2: FamilyForest) -> tuple[float, float]:
    """Certified (lower, upper) bounds on the rooted Gromov-Hausdorff
    distance between two finite forests (roots glued per forest).

    Lower bounds: half the height difference, half the diameter difference,
    and — when the combined skeleton is small enough to enumerate — half the
    minimal skeleton correspondence distortion minus the net radii.  Upper
    bounds: the larger height (glue the roots), twice the sup-norm of the
    time-aligned contours, the skeleton bound plus net radii, and height
    difference when one forest is an exact truncation of the other.
    """
    from .contour import contour_from_forest  # local import, avoids cycle

    h1, h2 = f1.height(), f2.height()
    lower = 0.5 * abs(h1 - h2)
    lower = max(lower, 0.5 * abs(f1.diameter() - f2.diameter()))

    uppers = [max(h1, h2)]

    e1 = contour_from_forest(f1, 2.0)
    e2 = contour_from_forest(f2, 2.0)
    uppers.append(2.0 * _aligned_supnorm(e1, e2))

    # truncation detection: exact match of canonical shapes
    if h1 >= h2:
        if f1.truncate(h2).canonical_shape() == f2.canonical_shape():
            uppers.append(h1 - h2)
    else:
        if f2.truncate(h1).canonical_shape() == f1.canonical_shape():
            uppers.append(h2 - h1)

    s1, s2 = _skeleton_points(f1), _skeleton_points(f2)
    if 0 < len(s1) + len(s2) <= 8:
        r1, r2 = _net_radius(f1), _net_radius(f2)
        dis = _min_skeleton_distortion(f1, f2, s1, s2)
        lower = max(lower, 0.5 * dis - (r1 + r2))
        uppers.append(0.5 * dis + (r1 + r2))

    upper = min(uppers)
    return lower, max(lower, upper)


def _aligned_supnorm(e1, e2) -> float:
    """Sup distance between two excursions linearly rescaled to [0, 1]."""
    u1, h1 = e1.u, e1.e
    u2, h2 = e2.u, e2.e
    d1 = u1[-1] if len(u1) > 1 else 0.0
    d2 = u2[-1] if len(u2) > 1 else 0.0
    if d1 == 0.0 and d2 == 0.0:
        return 0.0
    if d1 == 0.0:
        return max(h2)
    if d2 == 0.0:
        return max(h1)
    import numpy as np
    s = np.union1d(np.asarray(u1) / d1, np.asarray(u2) / d2)
    v1 = np.interp(s, np.asarray(u1) / d1, h1)
    v2 = np.interp(s, np.asarray(u2) / d2, h2)
    return float(np.max(np.abs(v1 - v2)))


# ---------------------------------------------------------------------- #
# Random forests for verification                                          #
# ---------------------------------------------------------------------- #

def random_binary_forest(rng, max_roots: int = 3, split_prob: float = 0.45,
                         max_depth: int = 6, length_grid: int = 64) -> FamilyForest:
    """Random critical-binary-shaped forest with dyadic rational edge lengths.

    Edge lengths are multiples of 1/length_grid, so every height in the
    forest is exactly representable and codec round trips can be asserted
    with zero tolerance.
    """
    b = ForestBuilder()

    def grow(node: int, birth: float, depth: int) -> None:
        length = (1 + int(rng.integers(length_grid))) / length_grid
        death = birth + length
        b.set_death(node, death)
        if depth < max_depth and rng.random() < split_prob:
            for _ in range(2):
                child = b.add_child(node, death)
                grow(child, death, depth + 1)

    n_roots = 1 + int(rng.integers(max_roots))
    for _ in range(n_roots):
        r = b.add_root(0.0)
        grow(r, 0.0, 0)
    return b.freeze()
