"""Every text reader against its writer, on drawn objects.

Two properties, over the forest, contour, mass-path, point-process and
diffusion-path formats:

  * write -> read gives back the same floats bit for bit: subnormals,
    values near 1e+-300 and the largest float, and `inf` deaths in uncapped
    forests;
  * a file cut short anywhere, or with any one character changed, either
    reads as a valid object or raises `InputError`, never another
    exception.
"""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catbranch.contour import Excursion
from catbranch.diffusion import DiffusionPath
from catbranch.errors import InputError
from catbranch.forest import FamilyForest
from catbranch.particle import MassPath
from catbranch.points import GenealogicalPointProcess

# finite floats >= 0, with the extremes drawn often
EDGES = [0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 0.1, 1.0, 1e300,
         1.7976931348623157e308]
nonneg = st.one_of(st.sampled_from(EDGES),
                   st.floats(min_value=0.0, allow_infinity=False, allow_nan=False))
finite = st.one_of(nonneg, nonneg.map(lambda x: -x))
positive = nonneg.filter(lambda x: x > 0.0)


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@st.composite
def forests(draw):
    """Forests of up to 12 nodes in drawn root and child order; uncapped
    ones may hold `inf` deaths."""
    n = draw(st.integers(0, 12))
    parent = [draw(st.integers(-1, v - 1)) for v in range(n)]
    capped = draw(st.booleans())
    death_heights = nonneg if capped else st.one_of(nonneg, st.just(math.inf))
    birth, death = [], []
    for v in range(n):
        birth.append(0.0 if parent[v] == -1 else death[parent[v]])
        death.append(max(birth[v], draw(death_heights)))
    children = [draw(st.permutations([u for u in range(n) if parent[u] == v]))
                for v in range(n)]
    roots = draw(st.permutations([v for v in range(n) if parent[v] == -1]))
    cap = max(death, default=0.0) if capped else None
    forest = FamilyForest.from_children(parent, birth, death, children, roots,
                                        height_cap=cap)
    forest.validate()
    return forest


@st.composite
def excursions(draw):
    times = sorted(set(draw(st.lists(positive, max_size=12))))
    heights = [0.0] + [draw(nonneg) for _ in times[:-1]] + [0.0] * bool(times)
    return Excursion([0.0] + times, heights)


@st.composite
def mass_paths(draw):
    times = sorted(draw(st.lists(nonneg, max_size=12)))
    values = draw(st.lists(finite, min_size=len(times) + 1, max_size=len(times) + 1))
    return MassPath(np.array([0.0] + times), np.array(values),
                    horizon=draw(st.one_of(positive, st.just(math.inf))))


@st.composite
def point_processes(draw):
    level = draw(positive)
    heights = [h for h in draw(st.lists(nonneg, max_size=12)) if h < level]
    return GenealogicalPointProcess(level, draw(positive), heights)


@st.composite
def diffusion_paths(draw):
    return DiffusionPath(draw(positive), np.array(draw(st.lists(finite, max_size=12))))


def text_of(obj) -> str:
    buf = io.StringIO()
    obj.write(buf)
    return buf.getvalue()


def same_forest(a: FamilyForest, b: FamilyForest) -> bool:
    return (all(np.array_equal(getattr(a, k), getattr(b, k))
                for k in ("parent", "kid_ptr", "kids", "roots"))
            and bits(a.birth) == bits(b.birth) and bits(a.death) == bits(b.death)
            and repr(a.height_cap) == repr(b.height_cap))


@settings(max_examples=150, deadline=None)
@given(forests())
def test_forest_round_trip_is_bit_exact(f):
    assert same_forest(FamilyForest.from_text(f.to_text()), f)


@settings(max_examples=150, deadline=None)
@given(excursions(), positive)
def test_contour_round_trip_is_bit_exact(e, speed):
    buf = io.StringIO()
    e.write(buf, speed=speed)
    back, got_speed = Excursion.read(io.StringIO(buf.getvalue()))
    assert bits(back.u) == bits(e.u) and bits(back.e) == bits(e.e)
    assert bits([got_speed]) == bits([speed])


@settings(max_examples=150, deadline=None)
@given(mass_paths())
def test_mass_path_round_trip_is_bit_exact(p):
    back = MassPath.read(io.StringIO(text_of(p)))
    assert bits(back.times) == bits(p.times) and bits(back.values) == bits(p.values)
    assert bits([back.horizon]) == bits([p.horizon])


@pytest.mark.parametrize("read, text", [
    (DiffusionPath.read, "# step=nan seed=1\n1.0\n2.0\n"),
    (DiffusionPath.read, "# step=inf seed=1\n1.0\n2.0\n"),
    (DiffusionPath.read, "# step=0.0 seed=1\n1.0\n2.0\n"),
    (DiffusionPath.read, "# step=-0.1 seed=1\n1.0\n2.0\n"),
    (DiffusionPath.read, "# step=0.1 seed=1\n1.0\nnan\n"),
    (MassPath.read, "# horizon=nan\nt,value\n0.0,1.0\n"),
    (MassPath.read, "# horizon=0.0\nt,value\n0.0,1.0\n"),
    (MassPath.read, "# horizon=-inf\nt,value\n0.0,1.0\n"),
    (Excursion.read, "# speed=nan\n0.0 0.0\n1.0 1.0\n2.0 0.0\n"),
    (Excursion.read, "# speed=inf\n0.0 0.0\n1.0 1.0\n2.0 0.0\n"),
    (Excursion.read, "# speed=0.0\n0.0 0.0\n1.0 1.0\n2.0 0.0\n"),
], ids=["step-nan", "step-inf", "step-zero", "step-negative", "value-nan",
        "horizon-nan", "horizon-zero", "horizon-minus-inf", "speed-nan",
        "speed-inf", "speed-zero"])
def test_bad_header_is_an_input_error(read, text):
    with pytest.raises(InputError):
        read(io.StringIO(text))


@settings(max_examples=150, deadline=None)
@given(point_processes())
def test_point_process_round_trip_is_bit_exact(pp):
    back = GenealogicalPointProcess.read(io.StringIO(text_of(pp)))
    assert bits([back.level, back.spacing]) == bits([pp.level, pp.spacing])
    assert bits(back.heights) == bits(pp.heights)


@settings(max_examples=150, deadline=None)
@given(diffusion_paths())
def test_diffusion_path_round_trip_is_bit_exact(path):
    back = DiffusionPath.read(io.StringIO(text_of(path)))
    assert bits([back.step]) == bits([path.step])
    assert bits(back.values) == bits(path.values)


def contour_text(e: Excursion) -> str:
    buf = io.StringIO()
    e.write(buf, speed=2.0)
    return buf.getvalue()


READERS = {
    "forest": (forests().map(text_of), FamilyForest.read, FamilyForest),
    "contour": (excursions().map(contour_text), lambda fh: Excursion.read(fh)[0],
                Excursion),
    "mass path": (mass_paths().map(text_of), MassPath.read, MassPath),
    "point process": (point_processes().map(text_of), GenealogicalPointProcess.read,
                      GenealogicalPointProcess),
    "diffusion path": (diffusion_paths().map(text_of), DiffusionPath.read,
                       DiffusionPath),
}

# characters that the formats give a meaning to, and some they do not
CHARS = st.one_of(st.sampled_from(list("0123456789-+.e,= \t\r\n#nafi_x")
                                  + ["\x00", "\x0b", "\x85", "\xa0", " ", "１"]),
                  st.characters(max_codepoint=255))


@st.composite
def damaged(draw, kind):
    """A valid file of the kind, cut short or with one character changed."""
    text = draw(READERS[kind][0])
    at = draw(st.integers(0, max(len(text) - 1, 0)))
    if draw(st.booleans()):
        return text[:at]
    return text[:at] + draw(CHARS) + text[at + 1:]


def reads_or_rejects(kind: str, text: str) -> None:
    _, read, cls = READERS[kind]
    try:
        obj = read(io.StringIO(text))
    except InputError:
        return
    assert isinstance(obj, cls)


@settings(max_examples=300, deadline=None)
@given(damaged("forest"))
def test_damaged_forest_reads_or_raises_input_error(text):
    reads_or_rejects("forest", text)


@settings(max_examples=300, deadline=None)
@given(damaged("contour"))
def test_damaged_contour_reads_or_raises_input_error(text):
    reads_or_rejects("contour", text)


@settings(max_examples=300, deadline=None)
@given(damaged("mass path"))
def test_damaged_mass_path_reads_or_raises_input_error(text):
    reads_or_rejects("mass path", text)


@settings(max_examples=300, deadline=None)
@given(damaged("point process"))
def test_damaged_point_process_reads_or_raises_input_error(text):
    reads_or_rejects("point process", text)


@settings(max_examples=300, deadline=None)
@given(damaged("diffusion path"))
def test_damaged_diffusion_path_reads_or_raises_input_error(text):
    reads_or_rejects("diffusion path", text)
