import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from catbranch.contour import Excursion, contour_from_forest
from catbranch.errors import InputError
from catbranch.forest import random_binary_forest
from catbranch.points import (GenealogicalPointProcess,
                              excursion_depths_below_level,
                              pairwise_level_distances,
                              point_process_at_level,
                              reconstruct_distance_matrix)
from forest_strategies import forests


class TestExtraction:
    def test_single_individual_empty(self, single_edge):
        pp = point_process_at_level(single_edge, 1.0, 1.0)
        assert pp.heights == []

    def test_cherry_single_point(self, cherry):
        pp = point_process_at_level(cherry, 1.0, 1.0)
        assert pp.points == [(1.0, 0.5)]
        assert pp.zero_marks == 0

    def test_two_trees_zero_mark(self, two_tree_forest):
        pp = point_process_at_level(two_tree_forest, 1.0, 1.0)
        assert pp.heights == [0.0]
        assert pp.zero_marks == 1

    def test_spacing_convention(self, three_leaf):
        pp = point_process_at_level(three_leaf, 1.0, 0.25)
        assert [ell for ell, _ in pp.points] == [0.25, 0.5]

    def test_level_validation(self, cherry):
        g = cherry.truncate(0.8)
        with pytest.raises(InputError):
            point_process_at_level(g, 0.9, 1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_rejects_non_finite_level(self, cherry, t):
        with pytest.raises(InputError, match="level must be finite"):
            point_process_at_level(cherry, t, 1.0)

    @pytest.mark.parametrize("spacing", [math.nan, math.inf])
    def test_rejects_non_finite_spacing(self, cherry, spacing):
        with pytest.raises(InputError, match="spacing"):
            point_process_at_level(cherry, 0.75, spacing)


class TestReconstruction:
    def test_three_leaf_matrix(self, three_leaf):
        pp = point_process_at_level(three_leaf, 1.0, 1.0)
        assert pp.heights == [0.8, 0.5]
        m = reconstruct_distance_matrix(pp)
        expected = np.array([[0.0, 0.4, 1.0],
                             [0.4, 0.0, 1.0],
                             [1.0, 1.0, 0.0]])
        assert m == pytest.approx(expected, abs=1e-15)
        # the exactness contract is against the direct route
        assert np.array_equal(m, pairwise_level_distances(three_leaf, 1.0))

    def test_all_zero_marks(self):
        pp = GenealogicalPointProcess(1.0, 1.0, [0.0, 0.0])
        m = reconstruct_distance_matrix(pp)
        off = m[~np.eye(3, dtype=bool)]
        assert np.all(off == 2.0)

    @settings(max_examples=300, deadline=None)
    @given(f=forests(), frac=st.sampled_from([0.25, 0.5, 0.75])
           | st.floats(0.2, 0.95))
    def test_matches_direct_distances(self, f, frac):
        # the dyadic fractions put the level exactly at node heights
        t = frac * f.height()
        assume(f.level_set(t))
        pp = point_process_at_level(f, t, 1.0)
        assert np.array_equal(reconstruct_distance_matrix(pp),
                              pairwise_level_distances(f, t))

    def test_truncation_does_not_change_level(self, rng):
        for _ in range(50):
            f = random_binary_forest(rng)
            t = 0.5 * f.height()
            a = point_process_at_level(f, t, 1.0)
            b = point_process_at_level(f.truncate(t), t, 1.0)
            assert a.heights == b.heights


class TestDepths:
    def test_monotone_path_empty(self):
        vals = np.linspace(0.0, 2.0, 100)
        assert excursion_depths_below_level(vals, 1.0) == []

    def test_single_dip(self):
        e = Excursion([0, 1, 1.3, 2, 3], [0.0, 1.0, 0.4, 1.0, 0.0])
        out = excursion_depths_below_level(e, 1.0)
        assert len(out) == 1
        assert out[0][1] == pytest.approx(0.6)

    def test_matches_point_process(self, rng):
        for _ in range(80):
            f = random_binary_forest(rng)
            t = 0.7 * f.height()
            pp = point_process_at_level(f, t, 1.0)
            e = contour_from_forest(f, 2.0)
            deps = excursion_depths_below_level(e, t)
            assert [d for _, d in deps] == pytest.approx(
                [t - h for h in pp.heights], abs=1e-12)

    def test_depth_floor_suppresses(self):
        e = Excursion([0, 1, 1.1, 2, 3], [0.0, 1.0, 0.95, 1.0, 0.0])
        assert excursion_depths_below_level(e, 1.0, depth_floor=0.1) == []
        assert len(excursion_depths_below_level(e, 1.0)) == 1

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_level(self, t):
        e = Excursion([0, 1, 1.3, 2, 3], [0.0, 1.0, 0.4, 1.0, 0.0])
        for path in (e, [0.0, 1.0, 0.4, 1.0, 0.0]):
            with pytest.raises(InputError, match="level must be finite"):
                excursion_depths_below_level(path, t)

    @pytest.mark.parametrize("floor", [math.nan, -0.1, math.inf, -math.inf])
    def test_rejects_floor_outside_zero_to_inf(self, floor):
        e = Excursion([0, 1, 1.3, 2, 3], [0.0, 1.0, 0.4, 1.0, 0.0])
        for path in (e, [1.0, 0.2, 1.0]):
            with pytest.raises(InputError, match="depth floor"):
                excursion_depths_below_level(path, 0.5, depth_floor=floor)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_samples(self, bad):
        # a NaN inside the run below 0.5 used to be dropped by its minimum
        for path in ([1.0, 0.2, bad, 0.3, 1.0],
                     np.array([1.0, 0.2, bad, 0.3, 1.0])):
            with pytest.raises(InputError, match="finite"):
                excursion_depths_below_level(path, 0.5)

    @pytest.mark.parametrize("vals", [[], [0.3], np.zeros(0), np.ones(1)])
    def test_empty_or_single_sample_path(self, vals):
        assert excursion_depths_below_level(vals, 0.5) == []


def run_length_depths(values, t, floor):
    """The complete runs of samples below t and their depths, by run
    lengths: runs touching either end of the path are dropped."""
    values = np.asarray(values, dtype=float)
    below = values < t
    if not below.any() or below.all():
        return []
    idx = np.flatnonzero(below)
    starts = idx[np.r_[True, np.diff(idx) > 1]]
    ends = idx[np.r_[np.diff(idx) > 1, True]]
    if starts[0] == 0:
        starts, ends = starts[1:], ends[1:]
    if starts.size and ends[-1] == values.size - 1:
        starts, ends = starts[:-1], ends[:-1]
    depths = [t - float(values[s:e + 1].min()) for s, e in zip(starts, ends)]
    return list(enumerate((d for d in depths if d >= floor), start=1))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.5])
                       | st.floats(0.0, 2.0), max_size=60),
       t=st.sampled_from([0.5, 1.0]) | st.floats(0.0, 2.0),
       floor=st.sampled_from([0.0, 0.3, 1.0]))
def test_sampled_path_matches_run_lengths(values, t, floor):
    # the grid values put samples exactly at the level
    want = run_length_depths(values, t, floor)
    assert excursion_depths_below_level(np.array(values), t, floor) == want
    assert excursion_depths_below_level(values, t, floor) == want


class TestCSV:
    def test_round_trip(self, three_leaf):
        pp = point_process_at_level(three_leaf, 1.0, 0.5)
        buf = io.StringIO()
        pp.write(buf)
        buf.seek(0)
        back = GenealogicalPointProcess.read(buf)
        assert back.level == pp.level
        assert back.spacing == pp.spacing
        assert back.heights == pp.heights
        assert back.zero_marks == pp.zero_marks

    @pytest.mark.parametrize("text", [
        "# t=1.0 spacing=0.5 zero_marks=0\nell,h\n0.5\n",
        "# t=1.0 spacing=0.5 zero_marks=0\nell,h\n0.5,high\n",
        "# t=1.0 zero_marks=0\nell,h\n0.5,0.2\n",
        "# t=1.0 spacing\nell,h\n0.5,0.2\n",
        # three fields, an ell that is no number or off the grid i * spacing,
        # an empty field, no comma, zero marks that disagree with the heights
        "# t=1.0 spacing=0.05 zero_marks=0\nell,h\njunk,0.1,extra\n7.5,0.2\n",
        "# t=1.0 spacing=0.05 zero_marks=0\nell,h\njunk,0.1\n0.1,0.2\n",
        "# t=1.0 spacing=0.05 zero_marks=0\nell,h\n0.05,0.1\n7.5,0.2\n",
        "# t=1.0 spacing=0.05 zero_marks=0\nell,h\n0.05,,0.1\n",
        "# t=1.0 spacing=0.05 zero_marks=0\nell,h\n0.05 0.1\n",
        "# t=1.0 spacing=0.05 zero_marks=1\nell,h\n0.05,0.1\n",
        "# t=1.0 spacing=0.05 zero_marks=0\nell,h\n0.05,0.0\n",
        "# t=1.0 spacing=0.05\nell,h\n0.05,0.1\n",
    ])
    def test_read_rejects_malformed_lines(self, text):
        with pytest.raises(InputError, match="malformed point-process"):
            GenealogicalPointProcess.read(io.StringIO(text))

    def test_read_keeps_first_line_without_column_names(self):
        pp = GenealogicalPointProcess.read(
            io.StringIO("# t=1.0 spacing=0.5 zero_marks=0\n0.5,0.2\n"))
        assert pp.heights == [0.2]

    @pytest.mark.parametrize("text", [
        "# t=nan spacing=0.5 zero_marks=0\nell,h\n",
        "# t=inf spacing=0.5 zero_marks=0\nell,h\n",
        "# t=-1.0 spacing=0.5 zero_marks=0\nell,h\n",
        "# t=1.0 spacing=nan zero_marks=0\nell,h\n",
        "# t=1.0 spacing=inf zero_marks=0\nell,h\n",
    ], ids=["nan-level", "inf-level", "negative-level", "nan-spacing",
            "inf-spacing"])
    def test_read_rejects_bad_header(self, text):
        with pytest.raises(InputError, match="must be finite"):
            GenealogicalPointProcess.read(io.StringIO(text))
