import math

import numpy as np
import pytest

from catbranch.errors import InputError
from catbranch.forest import (FamilyForest, TreePoint, gh_distance_bounds,
                              random_binary_forest)


def leaf_points(f, height):
    return [p for p in f.level_set(height)]


class TestGenealogicalDistance:
    def test_same_point_is_zero(self, cherry):
        p = TreePoint(1, 0.25)
        assert cherry.genealogical_distance(p, p) == 0.0

    def test_split_height_rule(self, cherry):
        # both leaves at height 1, most recent split at 0.5
        a, b = leaf_points(cherry, 1.0)
        assert cherry.genealogical_distance(a, b) == 1.0
        assert cherry.mrca_height(a, b) == 0.5

    def test_three_leaf_distances(self, three_leaf):
        l1, l2, l3 = leaf_points(three_leaf, 1.0)
        assert three_leaf.genealogical_distance(l1, l2) == pytest.approx(0.4)
        assert three_leaf.genealogical_distance(l1, l3) == pytest.approx(1.0)
        assert three_leaf.genealogical_distance(l2, l3) == pytest.approx(1.0)

    def test_distinct_roots_at_zero(self, two_tree_forest):
        r1, r2 = two_tree_forest.level_set(0.0)
        assert two_tree_forest.genealogical_distance(r1, r2) == 0.0

    def test_distinct_trees_above_zero(self, two_tree_forest):
        a, b = leaf_points(two_tree_forest, 0.75)
        assert two_tree_forest.genealogical_distance(a, b) == 1.5

    def test_ancestor_descendant(self, cherry):
        low = TreePoint(0, 0.25)
        high = TreePoint(1, 0.3)
        assert cherry.genealogical_distance(low, high) == pytest.approx(0.55)

    def test_invalid_inputs(self, cherry):
        with pytest.raises(InputError):
            cherry.genealogical_distance(TreePoint(9, 0.0), TreePoint(0, 0.0))
        with pytest.raises(InputError):
            cherry.genealogical_distance(TreePoint(0, 0.9), TreePoint(0, 0.0))

    def test_symmetry_and_identity_random(self, rng):
        for _ in range(50):
            f = random_binary_forest(rng)
            h = f.height() * 0.7
            pts = f.level_set(h)
            for i in range(min(len(pts), 4)):
                for j in range(min(len(pts), 4)):
                    dij = f.genealogical_distance(pts[i], pts[j])
                    dji = f.genealogical_distance(pts[j], pts[i])
                    assert dij == dji
                    assert (dij == 0.0) == (i == j or h == 0.0)


class TestUltrametricAndFourPoint:
    def test_level_ultrametric(self, rng):
        for _ in range(40):
            f = random_binary_forest(rng)
            t = 0.6 * f.height()
            pts = f.level_set(t)
            if len(pts) < 3:
                continue
            idx = rng.choice(len(pts), size=min(5, len(pts)), replace=False)
            sel = [pts[i] for i in idx]
            for a in sel:
                for b in sel:
                    for c in sel:
                        dab = f.genealogical_distance(a, b)
                        dbc = f.genealogical_distance(b, c)
                        dac = f.genealogical_distance(a, c)
                        assert dac <= max(dab, dbc) + 1e-12

    def test_four_point_condition(self, rng):
        for _ in range(40):
            f = random_binary_forest(rng)
            n = len(f)
            ids = rng.integers(0, n, size=4)
            pts = [TreePoint(int(i), 0.5 * f.edge_length(int(i))) for i in ids]
            d = [[f.genealogical_distance(p, q) for q in pts] for p in pts]
            lhs = d[0][1] + d[2][3]
            rhs = max(d[0][2] + d[1][3], d[0][3] + d[1][2])
            assert lhs <= rhs + 1e-12


class TestTruncate:
    def test_above_height_noop(self, cherry):
        g = cherry.truncate(5.0)
        assert g.canonical_shape() == cherry.canonical_shape()
        assert g.height_cap == 5.0

    def test_clips_single_edge(self, single_edge):
        g = single_edge.truncate(1.0)
        assert g.height() == 1.0
        assert len(g) == 1
        assert g.height_cap == 1.0

    def test_zero_returns_roots(self, cherry):
        g = cherry.truncate(0.0)
        assert len(g) == 1
        assert g.height() == 0.0

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_rejects_bad_level(self, cherry, t):
        with pytest.raises(InputError, match="truncation level"):
            cherry.truncate(t)

    def test_removes_branch_points_above(self, rng):
        for _ in range(20):
            f = random_binary_forest(rng)
            t = 0.5 * f.height()
            g = f.truncate(t)
            for v in range(len(g)):
                assert g.death_height(v) <= t
                if len(g.children_of(v)) == 2:
                    assert g.death_height(v) < t


class TestTrim:
    def test_taller_than_tree(self, cherry):
        g = cherry.trim(5.0)
        assert len(g) == 1
        assert g.height() == 0.0

    def test_half_edge(self, single_edge):
        g = single_edge.trim(1.0)
        assert g.height() == pytest.approx(1.0)
        assert len(g) == 1

    def test_cherry_becomes_edge(self, cherry):
        g = cherry.trim(0.7)
        assert len(g) == 1
        assert g.height() == pytest.approx(0.3)

    def test_semigroup(self, rng):
        # dyadic radii keep the float arithmetic exact across both routes
        for _ in range(30):
            f = random_binary_forest(rng)
            e1, e2 = 0.25, 0.125
            a = f.trim(e1).trim(e2)
            b = f.trim(e1 + e2)
            assert a.canonical_shape() == b.canonical_shape()

    def test_rejects_nonpositive(self, cherry):
        with pytest.raises(InputError):
            cherry.trim(0.0)


class TestLevelSetAndAncestors:
    def test_roots_at_zero(self, two_tree_forest):
        pts = two_tree_forest.level_set(0.0)
        assert [p.node for p in pts] == two_tree_forest.roots.tolist()

    def test_single_point_mid_edge(self, single_edge):
        assert len(single_edge.level_set(1.0)) == 1

    def test_order_is_linear(self, three_leaf):
        pts = three_leaf.level_set(1.0)
        labels = three_leaf.labels()
        got = [labels[p.node] for p in pts]
        assert got == sorted(got)

    def test_ancestors_cherry(self, cherry):
        assert len(cherry.ancestors(1.0, 0.3)) == 2
        assert len(cherry.ancestors(1.0, 0.7)) == 1

    def test_ancestors_full_depth(self, cherry):
        pts = cherry.ancestors(1.0, 1.0)
        assert len(pts) == 1 and pts[0].node == cherry.roots[0]

    def test_no_survivors_empty(self, single_edge):
        # nothing alive at 1.5 after truncation at 1
        g = single_edge.truncate(1.0)
        assert g.ancestors(1.0, 0.4) != []
        h = single_edge.truncate(2.0)
        assert h.ancestors(2.0, 0.5) != []

    def test_ancestors_monotone_in_eps(self, rng):
        for _ in range(20):
            f = random_binary_forest(rng)
            t = 0.8 * f.height()
            sizes = [len(f.ancestors(t, eps)) for eps in (0.1 * t, 0.4 * t, 0.9 * t)]
            assert sizes == sorted(sizes, reverse=True)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_level_set_rejects_bad_level(self, cherry, t):
        with pytest.raises(InputError, match="level must be finite"):
            cherry.level_set(t)

    def test_range_validation(self, cherry):
        with pytest.raises(InputError):
            cherry.ancestors(1.0, 0.0)
        with pytest.raises(InputError):
            cherry.ancestors(1.0, 1.5)


class TestI2Length:
    def test_single_edge_exact(self, single_edge):
        # edge of length 2, mesh 2/m: m pieces of (2/m)^2
        for m in (1, 2, 5, 10):
            mesh = 2.0 / m
            assert single_edge.i2_length(mesh) == pytest.approx(4.0 / m)

    def test_refinement_decreases(self, rng):
        for _ in range(10):
            f = random_binary_forest(rng)
            vals = [f.i2_length(mesh) for mesh in (0.5, 0.1, 0.02, 0.004)]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
            assert vals[-1] < 0.2 * vals[0] + 1e-9


class TestGHBounds:
    def test_identical_forests(self, cherry):
        lo, up = gh_distance_bounds(cherry, cherry)
        assert lo == 0.0 and up == 0.0

    def test_two_edges_bracket_truth(self):
        f1 = FamilyForest.from_children([-1], [0.0], [2.0], [[]], [0])
        f2 = FamilyForest.from_children([-1], [0.0], [1.0], [[]], [0])
        lo, up = gh_distance_bounds(f1, f2)
        # true rooted GH distance between segments of lengths 2 and 1 is 1/2
        assert lo <= 0.5 <= up
        assert lo == pytest.approx(0.5)

    def test_truncation_upper_bound(self, rng):
        for _ in range(15):
            f = random_binary_forest(rng)
            t = 0.6 * f.height()
            g = f.truncate(t)
            lo, up = gh_distance_bounds(f, g)
            assert lo <= up <= f.height() - t + 1e-12

    def test_ordering(self, rng):
        for _ in range(15):
            f1 = random_binary_forest(rng)
            f2 = random_binary_forest(rng)
            lo, up = gh_distance_bounds(f1, f2)
            assert 0.0 <= lo <= up


class TestSerialization:
    def test_round_trip(self, rng):
        for _ in range(25):
            f = random_binary_forest(rng)
            text = f.to_text()
            g = FamilyForest.from_text(text)
            assert g.canonical_shape() == f.canonical_shape()
            assert g.to_text() == text

    def test_infinite_death_survives(self):
        f = FamilyForest.from_children([-1], [0.0], [math.inf], [[]], [0])
        g = FamilyForest.from_text(f.to_text())
        assert math.isinf(g.death[0])

    def test_rejects_garbage(self):
        with pytest.raises(InputError):
            FamilyForest.from_text("not a forest\n")

    @pytest.mark.parametrize("text", [
        "# roots=0 height_cap=none\n0 -1 0.0\n",             # short line
        "# roots=0 height_cap=none\n0 -1 0.0 x\n",           # bad float
        "# roots=0 height_cap=none\n0 -1 0.0 nan\n",         # NaN death
        "# roots=0 height_cap=none\nzero -1 0.0 1.0\n",      # bad id
        "# roots=0\n0 -1 0.0 1.0\n",                         # no cap
        "# roots=0 height_cap\n0 -1 0.0 1.0\n",              # no '='
        "# roots=0 height_cap=none\n0 -1 0.0 1.0 7\n",       # child range
        "# roots=3 height_cap=none\n0 -1 0.0 1.0\n",         # root range
        "# roots=0,0 height_cap=none\n0 -1 0.0 1.0\n",       # root twice
        "# roots=0,1 height_cap=none\n0 -1 0.0 1.0 1\n1 -1 1.0 2.0\n",
        "# roots=0 height_cap=none\n0 -1 0.5 1.0\n",         # root born above 0
        "# roots=0 height_cap=nan\n0 -1 0.0 1.0\n",          # NaN cap
        "# roots=0 height_cap=none\n0 -1 0.0 1.0\n1.0 0 1.0 2.0\n",  # id 1.0
    ])
    def test_rejects_malformed_lines(self, text):
        with pytest.raises(InputError):
            FamilyForest.from_text(text)

    def test_rejects_nodes_no_root_reaches(self):
        # nodes 1 and 2 name each other as parent: a zero-length 2-cycle
        # that hangs off no root
        text = ("# roots=0 height_cap=none\n0 -1 0.0 1.0\n"
                "1 2 0.5 0.5 2\n2 1 0.5 0.5 1\n")
        with pytest.raises(InputError, match="node 1 is not reached from any root"):
            FamilyForest.from_text(text)


class TestLabels:
    def test_ulam_harris_structure(self, three_leaf):
        labels = three_leaf.labels()
        for v in range(len(three_leaf)):
            p = three_leaf.parent[v]
            if p == -1:
                assert len(labels[v]) == 1
            else:
                assert labels[v][:-1] == labels[p]
                k = three_leaf.children_of(p).index(v)
                assert labels[v][-1] == k + 1

    def test_mass_count_matches_level(self, rng):
        for _ in range(10):
            f = random_binary_forest(rng)
            t = 0.5 * f.height()
            alive = sum(1 for v in range(len(f))
                        if f.birth[v] < t <= f.death_height(v))
            assert len(f.level_set(t)) == alive
