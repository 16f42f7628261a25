"""
forest.py
=========
Rooted, linearly ordered real-tree forests stored as numpy arrays.

A forest holds one node per individual of a branching population.  Height
in the tree equals time in the population, measured from the roots at
height 0.  The forest has one layout, flat arrays indexed by node id:

  parent          the parent's id, -1 for a root
  birth, death    heights; in a capped forest `death` is clipped at the
                  cap, and only an uncapped forest may hold `math.inf` for
                  an individual that never dies
  kid_ptr, kids   the ordered children in CSR form: the children of node v
                  are kids[kid_ptr[v]:kid_ptr[v + 1]]
  roots           the roots in the forest's linear order

Two arrays are derived on first use and cached: `order`, the nodes in
depth-first pre-order (the forest's linear order), and `tree_index()`, the
root tree of each node.  The pre-order comes from whoever knows it
cheapest:

  * a forest built generation by generation (the particle engine) derives
    it from its generations: one reverse sweep gives subtree sizes, one
    forward sweep places each left child right after its parent and each
    right child after the left child's subtree;
  * a builder that numbers or visits its nodes in pre-order (`truncate`,
    `trim`, `random_binary_forest`, the contour decoder) hands it over;
  * any other forest (files, `from_children`) takes one walk over `kids`.

Every level query is array work over the pre-order: the level-t
population is the mask birth < t <= death read in `order`.

Points in the continuum tree are addressed as ``TreePoint(node, offset)``
with the offset measured from the node's birth, so all metric arithmetic is
exact float arithmetic on stored values — the topology never depends on
floating-point comparisons of derived quantities.

The genealogical metric: for points a, b at heights ha, hb,

    d(a, b) = (ha - tau) + (hb - tau)

where tau is the height of the splitting point of their most recent common
ancestor.  Points in different trees of the forest meet at the glued root,
tau = 0, so two distinct roots are at distance 0 and the level-t populations
of a forest form an ultrametric space.  The point-level operations
(`mrca_height`, `genealogical_distance`, `trim`, `ancestors`, `labels`,
`diameter`, `gh_distance_bounds`) are plain readings of the arrays, kept
simple rather than fast.

Public surface
--------------
  FamilyForest          array container with metric/shape operations
  TreePoint             (node, offset) address of a tree point
  gh_distance_bounds    certified lower/upper bounds on rooted GH distance
  random_binary_forest  seeded generator of small forests with dyadic edge
                        lengths (verification and property tests)
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Optional, Sequence, TextIO

import numpy as np

from ._columns import float_texts, read_columns, write_rows
from .errors import InputError, malformed_lines

NEVER = math.inf


class TreePoint(NamedTuple):
    node: int
    offset: float


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _first(mask: np.ndarray) -> Optional[int]:
    """Index of the first true entry, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


class FamilyForest:
    """
    Immutable forest of rooted ordered real trees, stored as arrays.

    The constructor adopts the arrays it is given (lists are converted) and
    makes them read-only; forests may share arrays (see `truncate`).  The
    children of node v are kids[kid_ptr[v]:kid_ptr[v + 1]], in linear
    order.  A builder that knows the pre-order passes it as `order`; a
    builder that numbers its nodes generation by generation, the children
    of each generation's splits forming the next generation in consecutive
    pairs, in parent order, passes the node-id bounds of its generations as
    `generations`, from which the pre-order is swept on first use.  Derived
    arrays are cached, so forests are safe to share across threads once
    their caches are built.
    """

    __slots__ = ("parent", "birth", "death", "kid_ptr", "kids", "roots",
                 "height_cap", "_order", "_generations", "_tree")

    def __init__(self, parent, birth, death, kid_ptr, kids, roots,
                 height_cap: Optional[float] = None,
                 order=None, generations: Optional[Sequence[int]] = None) -> None:
        death = np.asarray(death, dtype=float)
        if height_cap is not None and (death == NEVER).any():
            death = np.where(death == NEVER, height_cap, death)
        self.parent = _frozen(np.asarray(parent, dtype=np.intp))
        self.birth = _frozen(np.asarray(birth, dtype=float))
        self.death = _frozen(death)
        self.kid_ptr = _frozen(np.asarray(kid_ptr, dtype=np.intp))
        self.kids = _frozen(np.asarray(kids, dtype=np.intp))
        self.roots = _frozen(np.asarray(roots, dtype=np.intp))
        self.height_cap = height_cap
        self._order = None if order is None else _frozen(np.asarray(order, dtype=np.intp))
        self._generations = generations
        self._tree: Optional[np.ndarray] = None

    @classmethod
    def from_children(cls, parent, birth, death, children, roots,
                      height_cap: Optional[float] = None) -> "FamilyForest":
        """A forest from per-node child lists."""
        kid_ptr = np.zeros(len(children) + 1, dtype=np.intp)
        np.cumsum([len(c) for c in children], out=kid_ptr[1:])
        kids = list(itertools.chain.from_iterable(children))
        return cls(parent, birth, death, kid_ptr, kids, roots,
                   height_cap=height_cap)

    @classmethod
    def _from_preorder(cls, parent, birth, death, roots,
                       height_cap: Optional[float] = None) -> "FamilyForest":
        """A forest whose node ids are its pre-order ranks, so each node's
        children are the nodes naming it as parent, in id order."""
        parent = np.asarray(parent, dtype=np.intp)
        n = parent.size
        # sorted by parent, the roots (parent -1) come first, then the
        # children of each node in id order
        counts = np.bincount(parent + 1, minlength=n + 1)
        kid_ptr = counts.cumsum() - counts[0]
        kids = np.argsort(parent, kind="stable")[counts[0]:]
        return cls(parent, birth, death, kid_ptr, kids, roots,
                   height_cap=height_cap, order=np.arange(n))

    # ------------------------------------------------------------------ #
    # Structure                                                           #
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self.parent.size

    def validate(self) -> None:
        """Raise `InputError` unless the arrays form a forest: every node
        one root born at 0 or the listed child of its one parent, born at
        its parent's death, living no less than zero time, under the cap,
        and reached from a root."""
        n = len(self)
        parent, birth, death = self.parent, self.birth, self.death
        roots, kids, kid_ptr = self.roots, self.kids, self.kid_ptr
        counts = np.diff(kid_ptr)
        if (birth.shape != (n,) or death.shape != (n,) or kid_ptr.shape != (n + 1,)
                or kid_ptr[0] != 0 or kid_ptr[-1] != kids.size or (counts < 0).any()):
            raise InputError("node arrays disagree in length")
        if roots.size and (roots.min() < 0 or roots.max() >= n):
            bad = roots[(roots < 0) | (roots >= n)]
            raise InputError(f"root {bad[0]} out of range")
        if (np.bincount(roots, minlength=n) > 1).any():
            raise InputError("a root is listed twice")
        if n and (parent.min() < -1 or parent.max() >= n):
            v = _first((parent < -1) | (parent >= n))
            raise InputError(f"node {v}: parent {parent[v]} out of range")
        if (parent[roots] != -1).any():
            raise InputError(f"root {roots[parent[roots] != -1][0]} has a parent")
        if (birth[roots] != 0.0).any():  # NaN fails too
            v = roots[birth[roots] != 0.0][0]
            raise InputError(f"root {v} born at {birth[v]}, not at 0")
        if np.count_nonzero(parent == -1) != roots.size:
            listed = np.zeros(n, dtype=bool)
            listed[roots] = True
            v = _first(~listed & (parent == -1))
            raise InputError(f"node {v} has no parent and is not a root")
        owner = np.repeat(np.arange(n), counts)
        if kids.size and (kids.min() < 0 or kids.max() >= n
                          or (parent[kids] != owner).any()):
            in_range = (kids >= 0) & (kids < n)
            named = np.zeros(kids.size, dtype=bool)
            named[in_range] = parent[kids[in_range]] == owner[in_range]
            k = _first(~named)
            raise InputError(f"node {owner[k]}: child {kids[k]} does not name it as parent")
        listings = np.bincount(kids, minlength=n)
        if (listings != (parent >= 0)).any():
            v = _first(listings > 1)
            if v is not None:
                raise InputError(f"node {v} has two parents")
            v = _first(listings != (parent >= 0))
            raise InputError(f"node {v} missing from parent child list")
        if (birth[kids] != death[owner]).any():
            v = kids[birth[kids] != death[owner]].min()
            raise InputError(f"node {v}: birth {birth[v]} != parent death "
                             f"{death[parent[v]]}")
        if not (birth <= death).all():  # NaN fails too
            raise InputError(f"node {_first(~(birth <= death))}: death before birth")
        if self.height_cap is not None and not (death <= self.height_cap).all():
            v = _first(~(death <= self.height_cap))  # a NaN cap fails too
            raise InputError(f"node {v}: death {death[v]} above height cap "
                             f"{self.height_cap}")
        # each node now has one parent at most, so the pre-order meets every
        # node once at most; a node it misses hangs off no root
        if self.order.size != n:
            reached = np.zeros(n, dtype=bool)
            reached[self.order] = True
            raise InputError(f"node {_first(~reached)} is not reached from any root")

    @property
    def order(self) -> np.ndarray:
        """The nodes in depth-first pre-order, respecting root and child
        order: the forest's linear order.  Cached and read-only."""
        if self._order is None:
            if self._generations is not None:
                order = self._order_from_generations()
            else:
                order = self._walk()
            self._order = _frozen(order)
        return self._order

    def _walk(self) -> np.ndarray:
        """The pre-order by one walk over the child lists (list copies)."""
        # the child lists reversed as one: v's children, last first, are
        # rev[end[v + 1]:end[v]], ready to push
        rev = self.kids[::-1].tolist()
        end = (self.kids.size - self.kid_ptr).tolist()
        order: list[int] = []
        visit = order.append
        stack = self.roots[::-1].tolist()
        pop, push = stack.pop, stack.extend
        while stack:
            v = pop()
            visit(v)
            push(rev[end[v + 1]:end[v]])
        return np.array(order, dtype=np.intp)

    def _order_from_generations(self) -> np.ndarray:
        """The pre-order from the generation layout, one numpy step per
        generation: a sweep from the deepest generation up adds each child
        pair's subtree sizes to its parent, and a sweep down ranks the left
        child right after its parent and the right child after the left
        child's subtree."""
        bounds, parent = self._generations, self.parent
        n = len(self)
        size = np.ones(n, dtype=np.intp)
        for a, b in zip(bounds[-2:0:-1], bounds[:0:-1]):
            size[parent[a:b:2]] += size[a:b:2] + size[a + 1:b:2]
        pre = np.empty(n, dtype=np.intp)
        first = size[self.roots]
        pre[self.roots] = np.cumsum(first) - first
        for a, b in zip(bounds[1:-1], bounds[2:]):
            left = pre[parent[a:b:2]] + 1
            pre[a:b:2] = left
            pre[a + 1:b:2] = left + size[a:b:2]
        order = np.empty(n, dtype=np.intp)
        order[pre] = np.arange(n)
        return order

    def children_of(self, node: int) -> list[int]:
        """The children of a node, in linear order."""
        return self.kids[self.kid_ptr[node]:self.kid_ptr[node + 1]].tolist()

    def _child_lists(self) -> list[list[int]]:
        kids, kid_ptr = self.kids.tolist(), self.kid_ptr.tolist()
        return [kids[a:b] for a, b in zip(kid_ptr, kid_ptr[1:])]

    def labels(self) -> list[tuple[int, ...]]:
        """Lexicographic ancestry labels consistent with the stored order."""
        lab: list[tuple[int, ...]] = [()] * len(self)
        for i, r in enumerate(self.roots.tolist()):
            lab[r] = (i + 1,)
        children = self._child_lists()
        for v in self.order.tolist():
            for k, c in enumerate(children[v]):
                lab[c] = lab[v] + (k + 1,)
        return lab

    def edge_length(self, node: int) -> float:
        return float(self.death[node] - self.birth[node])

    def death_height(self, node: int) -> float:
        return float(self.death[node])

    def subtree_max_height(self) -> list[float]:
        """Per node: maximal death height reachable in its subtree."""
        m = self.death.tolist()
        children = self._child_lists()
        for v in reversed(self.order.tolist()):
            if children[v]:
                m[v] = max(m[c] for c in children[v])
        return m

    def tree_index(self) -> np.ndarray:
        """Index of the root tree each node belongs to: the count of roots
        met up to the node in the pre-order, less one.  A forest in the
        generation layout whose pre-order is not built yet hands each
        generation its parents' trees instead.  Cached and read-only."""
        if self._tree is None:
            tree = np.empty(len(self), dtype=np.intp)
            if self._order is None and self._generations is not None:
                tree[self.roots] = np.arange(self.roots.size)
                bounds, parent = self._generations, self.parent
                for a, b in zip(bounds[1:-1], bounds[2:]):
                    tree[a:b] = tree[parent[a:b]]
            else:
                order = self.order
                tree[order] = np.cumsum(self.parent[order] == -1) - 1
            self._tree = _frozen(tree)
        return self._tree

    def height(self) -> float:
        return float(self.death.max()) if len(self) else 0.0

    def total_edge_length(self) -> float:
        return sum((self.death - self.birth).tolist())

    def leaf_count(self) -> int:
        return int(np.count_nonzero(np.diff(self.kid_ptr) == 0))

    # ------------------------------------------------------------------ #
    # Metric                                                              #
    # ------------------------------------------------------------------ #

    def point_height(self, p: TreePoint) -> float:
        self._check_point(p)
        return float(self.birth[p.node]) + p.offset

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
            v = int(self.parent[v])
        path.reverse()
        return path

    def mrca_height(self, a: TreePoint, b: TreePoint) -> float:
        """Splitting height of the most recent common ancestor of a and b.

        Points in distinct trees meet at the glued root, height 0.
        """
        self._check_point(a)
        self._check_point(b)
        ha = float(self.birth[a.node]) + a.offset
        hb = float(self.birth[b.node]) + b.offset
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

    def _subforest(self, keep: np.ndarray, death: np.ndarray,
                   height_cap: Optional[float]) -> "FamilyForest":
        """The forest of the nodes `keep`, listed in pre-order and closed
        under taking parents, renumbered by their rank in `keep`."""
        new_id = np.full(len(self), -1, dtype=np.intp)
        new_id[keep] = np.arange(keep.size)
        up = self.parent[keep]
        roots = new_id[self.roots]
        return FamilyForest._from_preorder(
            np.where(up >= 0, new_id[up], -1), self.birth[keep], death,
            roots[roots >= 0], height_cap=height_cap)

    def truncate(self, t: float) -> "FamilyForest":
        """Remove everything above height t; edges crossing t are clipped."""
        if not 0 <= t < math.inf:
            raise InputError(f"truncation level must be finite and >= 0, got {t!r}")
        if t >= self.height() and not (self.death == NEVER).any():
            return FamilyForest(self.parent, self.birth, self.death,
                                self.kid_ptr, self.kids, self.roots,
                                height_cap=t, order=self._order,
                                generations=self._generations)
        if t == 0.0:
            k = self.roots.size
            return FamilyForest._from_preorder(np.full(k, -1), np.zeros(k),
                                               np.zeros(k), np.arange(k),
                                               height_cap=0.0)
        order = self.order
        keep = order[self.birth[order] < t]
        return self._subforest(keep, np.minimum(self.death[keep], t), t)

    def level_positions(self, t: float) -> np.ndarray:
        """Pre-order ranks of the population at height exactly t, in
        increasing order: the ranks of the nodes with birth < t <= death,
        or of the roots at t == 0.  At a branch height the single branch
        point is its parent's death point, so it is counted once."""
        if not 0 <= t < math.inf:
            raise InputError(f"level must be finite and >= 0, got {t!r}")
        if self.height_cap is not None and t > self.height_cap:
            raise InputError("level above forest height cap")
        order = self.order
        if t == 0.0:
            return np.flatnonzero(self.parent[order] == -1)
        alive = (self.birth < t) & (t <= self.death)
        return np.flatnonzero(alive[order])

    def level_set(self, t: float) -> list[TreePoint]:
        """Points at height exactly t, in the forest's linear order (see
        `level_positions`)."""
        nodes = self.order[self.level_positions(t)]
        offsets = (t - self.birth[nodes]) if t != 0.0 else np.zeros(nodes.size)
        return list(map(TreePoint, nodes.tolist(), offsets.tolist()))

    def trim(self, eps: float) -> "FamilyForest":
        """Keep the root and every point with a descendant at distance >= eps."""
        if eps <= 0:
            raise InputError("trim radius must be > 0")
        cut = np.array(self.subtree_max_height()) - eps
        order = self.order
        # a kept node's parent is kept: its cut is no lower and its birth
        # no higher
        keep = order[(self.parent[order] == -1) | (cut[order] > self.birth[order])]
        top = np.where(self.parent[keep] == -1,
                       np.maximum(self.birth[keep], cut[keep]), cut[keep])
        return self._subforest(keep, np.minimum(self.death[keep], top),
                               self.height_cap)

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
        for length in (self.death - self.birth).tolist():
            if length <= 0.0:
                continue
            k = max(1, math.ceil(length / mesh))
            total += length * length / k
        return total

    def diameter(self) -> float:
        """Largest pairwise distance, root gluing included."""
        if not len(self):
            return 0.0
        m = self.subtree_max_height()
        birth, death, parent = (self.birth.tolist(), self.death.tolist(),
                                self.parent.tolist())
        best = 0.0
        # within-tree diameters: deepest two child subtrees under each branch
        for v, kids in enumerate(self._child_lists()):
            if len(kids) >= 2:
                depths = sorted((m[c] for c in kids), reverse=True)
                d = (depths[0] - death[v]) + (depths[1] - death[v])
                best = max(best, d)
            best = max(best, m[v] - birth[v] if parent[v] == -1 else 0.0)
        heights = sorted((m[r] for r in self.roots.tolist()), reverse=True)
        if len(heights) >= 2:
            best = max(best, heights[0] + heights[1])
        best = max(best, heights[0])
        return best

    def canonical_shape(self):
        """Nested (birth, death, children-shapes) tuples in linear order.

        Two forests are order-preserving root-invariant isometric iff their
        canonical shapes are equal (heights are compared exactly).
        """
        birth, death = self.birth.tolist(), self.death.tolist()
        kids, kid_ptr = self.kids.tolist(), self.kid_ptr.tolist()
        memo = list(zip(birth, death, itertools.repeat(())))  # the leaves' shapes
        shape = memo.__getitem__
        # the inner nodes in reverse pre-order, so deep chains need no stack
        order = self.order
        inner = order[(self.kid_ptr[1:] > self.kid_ptr[:-1])[order]][::-1]
        for v in inner.tolist():
            memo[v] = (birth[v], death[v], tuple(map(shape, kids[kid_ptr[v]:kid_ptr[v + 1]])))
        return tuple(map(shape, self.roots.tolist()))

    # ------------------------------------------------------------------ #
    # Serialization                                                       #
    # ------------------------------------------------------------------ #

    def write(self, fh: TextIO) -> None:
        cap = "none" if self.height_cap is None else repr(float(self.height_cap))
        fh.write("# roots=%s height_cap=%s\n"
                 % (",".join(map(str, self.roots.tolist())), cap))
        n = len(self)
        # each child's birth repeats its parent's death
        heights = float_texts(np.concatenate([self.birth, self.death]))
        write_rows(fh, [list(map(str, range(n))), list(map(str, self.parent.tolist())),
                        heights[:n], heights[n:]],
                   tails=(self.kid_ptr, list(map(str, self.kids.tolist()))))

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
        with malformed_lines("forest"):
            fields = dict(tok.split("=", 1) for tok in header[1:].split())
            roots = [int(x) for x in fields["roots"].split(",") if x != ""]
            cap_s = fields["height_cap"]
            cap = None if cap_s == "none" else float(cap_s)
            ids, parent, birth, death, counts, kids = read_columns(
                fh.read(), "forest", 4, ragged=True)
            # numpy parses each field with int() or float(), without a
            # Python call per field
            n = len(ids)
            if (np.array(ids, dtype=np.intp) != np.arange(n)).any():
                raise InputError("node ids must be consecutive from 0")
            parent = np.array(parent, dtype=np.intp)
            birth_text = np.array(birth, dtype=object)
            death_text = np.array(death, dtype=object)
            death = np.array(death, dtype=float)
            # a child's birth is its parent's death, written as the same
            # text: copy those, and parse only the births written otherwise
            copied = (parent >= 0) & (parent < n)
            copied[copied] = birth_text[copied] == death_text[parent[copied]]
            birth_text[copied] = death[parent[copied]]
            birth = np.array(birth_text.tolist(), dtype=float)
            kid_ptr = np.zeros(n + 1, dtype=np.intp)
            np.cumsum(counts, out=kid_ptr[1:])
            forest = cls(parent, birth, death, kid_ptr, np.array(kids, dtype=np.intp),
                         roots, height_cap=cap)
        forest.validate()
        return forest

    @classmethod
    def from_text(cls, text: str) -> "FamilyForest":
        import io
        return cls.read(io.StringIO(text))


# ---------------------------------------------------------------------- #
# Gromov-Hausdorff bounds                                                  #
# ---------------------------------------------------------------------- #

def _skeleton_points(f: FamilyForest) -> list[TreePoint]:
    roots = f.roots.tolist()
    pts = [TreePoint(roots[0], 0.0)] if roots else []
    for v, kids in enumerate(f._child_lists()):
        if f.parent[v] == -1 and v != roots[0]:
            pts.append(TreePoint(v, 0.0))
        if len(kids) != 1:  # leaves and branch points
            pts.append(TreePoint(v, f.edge_length(v)))
    return pts

def _net_radius(f: FamilyForest) -> float:
    children = f._child_lists()
    r = 0.0
    for v in range(len(f)):
        if len(children[v]) == 1:
            # unary chains: the gap between skeleton points spans the chain
            continue
        r = max(r, f.edge_length(v) / 2.0)
    # account for unary chains by walking them
    for v in range(len(f)):
        if len(children[v]) == 1:
            length = f.edge_length(v)
            c = children[v][0]
            while len(children[c]) == 1:
                length += f.edge_length(c)
                c = children[c][0]
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
    with zero tolerance.  Nodes are numbered in pre-order.
    """
    parent: list[int] = []
    birth: list[float] = []
    death: list[float] = []

    def grow(up: int, born: float, depth: int) -> None:
        node = len(parent)
        parent.append(up)
        birth.append(born)
        length = (1 + int(rng.integers(length_grid))) / length_grid
        top = born + length
        death.append(top)
        if depth < max_depth and rng.random() < split_prob:
            for _ in range(2):
                grow(node, top, depth + 1)

    roots = []
    for _ in range(1 + int(rng.integers(max_roots))):
        roots.append(len(parent))
        grow(-1, 0.0, 0)
    return FamilyForest._from_preorder(parent, birth, death, roots)
