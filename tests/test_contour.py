import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catbranch.contour import (Excursion, _extrema, contour_from_forest,
                               excise_above, tree_from_excursion)
from catbranch.errors import InputError
from catbranch.forest import FamilyForest, random_binary_forest
from catbranch.harness import _heights_and_leaves
from forest_strategies import forests

# excursions on a quarter grid, one breakpoint a time unit, with flats,
# equal valleys and valleys at 0; and the single point
dyadic_excursions = st.one_of(
    st.just([0.0]),
    st.lists(st.integers(0, 8), max_size=14).map(
        lambda ks: [0.0, *(k / 4 for k in ks), 0.0])).map(
    lambda hs: Excursion([float(i) for i in range(len(hs))], hs))


class TestExcursionType:
    def test_validation(self):
        with pytest.raises(InputError):
            Excursion([0.0, 1.0], [0.1, 0.0])     # must start at 0
        with pytest.raises(InputError):
            Excursion([0.0, 1.0], [0.0, 0.5])     # must end at 0
        with pytest.raises(InputError):
            Excursion([0.0, 0.0], [0.0, 0.0])     # strictly increasing times
        with pytest.raises(InputError):
            Excursion([0.0, 1.0, 2.0], [0.0, -0.1, 0.0])
        with pytest.raises(InputError):
            Excursion([0.0, 1.0, 2.0], [0.0, float("nan"), 0.0])
        with pytest.raises(InputError):
            Excursion([0.0, 1.0, float("inf")], [0.0, 1.0, 0.0])

    def test_value_interpolation(self):
        e = Excursion([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        assert e.value_at(0.5) == 0.5
        assert e.max_height() == 1.0

    def test_file_round_trip(self):
        e = Excursion([0.0, 0.5, 0.75, 1.0, 1.5], [0.0, 1.0, 0.5, 1.0, 0.0])
        buf = io.StringIO()
        e.write(buf, speed=2.0)
        buf.seek(0)
        e2, speed = Excursion.read(buf)
        assert speed == 2.0
        assert e2.u == e.u and e2.e == e.e

    @pytest.mark.parametrize("text", [
        "# speed=2.0\n0.0 0.0\n0.5 0.5 junk\n1.0 0.0\n",
        "# speed=2.0\n0.0 0.0\n0.5\n1.0 0.0\n",
        "# speed=2.0\n0.0 0.0\n0.5 half\n1.0 0.0\n",
        "# speed=fast\n0.0 0.0\n1.0 0.0\n",
        "# speed=2.0\n0.0 0.0\n0.5 0.5 0.5\n1.0\n",   # widths 3 and 1
    ])
    def test_read_rejects_malformed_lines(self, text):
        with pytest.raises(InputError, match="malformed contour"):
            Excursion.read(io.StringIO(text))


class TestEncode:
    def test_single_edge_triangle(self, single_edge):
        e = contour_from_forest(single_edge, 2.0)
        assert list(zip(e.u, e.e)) == [(0.0, 0.0), (1.0, 2.0), (2.0, 0.0)]

    def test_cherry_extrema(self, cherry):
        e = contour_from_forest(cherry, 2.0)
        assert e.e == [0.0, 1.0, 0.5, 1.0, 0.0]

    def test_max_height_is_forest_height(self, rng):
        for _ in range(30):
            f = random_binary_forest(rng)
            e = contour_from_forest(f, 2.0)
            assert e.max_height() == f.height()

    def test_duration_bookkeeping(self, rng):
        # dyadic edge lengths make the identity exact
        for _ in range(30):
            f = random_binary_forest(rng)
            for speed in (1.0, 2.0, 8.0):
                e = contour_from_forest(f, speed)
                assert e.duration == 2.0 * f.total_edge_length() / speed

    @pytest.mark.parametrize("speed", [math.nan, math.inf])
    def test_rejects_bad_speed(self, cherry, speed):
        with pytest.raises(InputError, match="speed"):
            contour_from_forest(cherry, speed)

    def test_rejects_unbounded(self):
        # a root that never dies, no cap
        f = FamilyForest.from_children([-1], [0.0], [math.inf], [[]], [0])
        with pytest.raises(InputError):
            contour_from_forest(f, 2.0)

    def test_multi_tree_touches_zero(self, two_tree_forest):
        e = contour_from_forest(two_tree_forest, 2.0)
        assert e.e == [0.0, 1.0, 0.0, 1.0, 0.0]

    def test_turning_heights_an_ulp_apart(self):
        # non-dyadic grids and trim's `m - eps` put turning heights an ulp
        # apart (3.8333333333333335 and 3.833333333333334, say), and the
        # time sum can then absorb a step; such a breakpoint moves an ulp on
        import numpy as np
        rng = np.random.default_rng(1)
        for i in range(2000):
            f = random_binary_forest(rng, max_roots=4, split_prob=0.5, max_depth=7,
                                     length_grid=(12, 24, 56, 8)[i % 4]).trim(0.25)
            e = contour_from_forest(f, 1.0)
            back = contour_from_forest(tree_from_excursion(e), 1.0)
            assert (back.u, back.e) == (e.u, e.e)
            # the first-order rounding error of the two float sums compared:
            # K contour steps against n edge lengths, doubled
            length = 2.0 * f.total_edge_length()
            bound = (len(e.u) - 1 + len(f) + 2) * 2.0**-53 * length
            assert abs(e.duration - length) <= bound


class TestDecode:
    def test_triangle_to_edge(self):
        e = Excursion([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
        f = tree_from_excursion(e)
        assert len(f) == 1 and f.height() == 2.0

    def test_w_shape_to_cherry(self, cherry):
        e = Excursion([0.0, 0.5, 0.75, 1.0, 1.5], [0.0, 1.0, 0.5, 1.0, 0.0])
        f = tree_from_excursion(e)
        assert f.canonical_shape() == cherry.canonical_shape()

    @settings(max_examples=400, deadline=None)
    @given(f=forests())
    def test_round_trip_exact(self, f):
        g = tree_from_excursion(contour_from_forest(f, 2.0))
        assert g.canonical_shape() == f.canonical_shape()

    def test_round_trip_other_speeds(self, rng):
        for speed in (0.5, 2.0, 16.0):
            f = random_binary_forest(rng)
            g = tree_from_excursion(contour_from_forest(f, speed))
            assert g.canonical_shape() == f.canonical_shape()

    def test_encode_of_decode_identity(self, rng):
        # slope +-speed excursions reproduce exactly
        for _ in range(40):
            f = random_binary_forest(rng)
            e = contour_from_forest(f, 2.0)
            e2 = contour_from_forest(tree_from_excursion(e), 2.0)
            assert e2.u == e.u and e2.e == e.e

    def test_leaf_order_is_peak_order(self, rng):
        for _ in range(25):
            f = random_binary_forest(rng)
            e = contour_from_forest(f, 2.0)
            hs = e.e
            peaks = [hs[k] for k in range(1, len(hs) - 1)
                     if hs[k] > hs[k - 1] and hs[k] > hs[k + 1]]
            if len(hs) == 3:
                peaks = [hs[1]]
            g = tree_from_excursion(e)
            leaf_heights = [g.death_height(v) for v in g.order.tolist()
                            if not g.children_of(v)]
            assert peaks == leaf_heights

    def test_per_tree_heights_and_leaves_survive_the_codec(self, rng):
        # `random_evolution` reads its flip-clock contour through the decoder
        # with the reduction it applies to particle forests
        for _ in range(200):
            f = random_binary_forest(rng)
            g = tree_from_excursion(contour_from_forest(f, 2.0))
            want_h, want_l = _heights_and_leaves(f)
            got_h, got_l = _heights_and_leaves(g)
            assert got_h.tolist() == want_h.tolist()
            assert got_l.tolist() == want_l.tolist()

    def test_equal_height_valleys(self):
        # crafted tie: both valleys at 0.5 resolve left-to-right
        e = Excursion([0, 1, 1.5, 2.5, 3.0, 4.0, 5.0],
                      [0.0, 1.0, 0.5, 1.5, 0.5, 1.0, 0.0])
        f = tree_from_excursion(e)
        assert f.leaf_count() == 3
        # first split is the leftmost tie, yielding a zero-length inner node
        shapes = f.canonical_shape()
        assert shapes[0][1] == 0.5

    @settings(max_examples=400, deadline=None)
    @given(e=dyadic_excursions)
    def test_decodes_any_excursion_in_pre_order(self, e):
        f = tree_from_excursion(e)
        f.validate()
        assert f.order.tolist() == list(range(len(f)))
        assert contour_from_forest(f, 2.0).e == _extrema(e.e).tolist()


class TestExcise:
    @pytest.mark.parametrize("t", [-0.5, math.nan])
    def test_rejects_bad_level(self, cherry, t):
        # a NaN level used to fail later as "excursion must end at height 0"
        with pytest.raises(InputError, match=f"level must be >= 0, got {t!r}"):
            excise_above(contour_from_forest(cherry, 2.0), t)

    def test_above_max_noop(self, cherry):
        e = contour_from_forest(cherry, 2.0)
        g = excise_above(e, 2.0)
        assert g.u == e.u and g.e == e.e

    def test_triangle_clip(self):
        e = Excursion([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
        g = excise_above(e, 1.0)
        assert list(zip(g.u, g.e)) == [(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)]

    @settings(max_examples=100, deadline=None)
    @given(f=forests(), frac=st.sampled_from([0.25, 0.5, 0.6, 0.75])
           | st.floats(0.05, 0.95))
    def test_matches_truncation(self, f, frac):
        # the dyadic fractions put the cut exactly at node heights
        t = frac * f.height()
        e = contour_from_forest(f, 2.0)
        left = tree_from_excursion(excise_above(e, t))
        right = f.truncate(t)
        # compare metric content: contours of both agree
        ce = contour_from_forest(left, 2.0)
        cf = contour_from_forest(right, 2.0)
        assert ce.e == pytest.approx(cf.e, abs=1e-12)
        assert ce.u == pytest.approx(cf.u, abs=1e-12)

    def test_sup_norm_bound(self, rng):
        for _ in range(20):
            f = random_binary_forest(rng)
            t = 0.5 * f.height()
            e = contour_from_forest(f, 2.0)
            g = excise_above(e, t)
            assert max(g.e) <= t + 1e-15
            assert f.height() - max(g.e) <= f.height() - t + 1e-12
