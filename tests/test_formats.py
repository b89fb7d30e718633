import math
import os
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freedrift import formats
from freedrift.cylinders import CylinderScene, export_scene, lemma1_bound
from freedrift.evolution import speeds
from freedrift.formats import (
    ParseError,
    fmt_float,
    frames_csv,
    parse_config_text,
    parse_particles,
    parse_report,
    parse_table_csv,
    particles_document,
    report_document,
    svg_snapshot,
    write_text_atomic,
)
from oracles import (
    reference_export_scene,
    reference_frames_csv,
    reference_particles_document,
    reference_svg_snapshot,
)


def test_fmt_float_round_trips_doubles():
    values = [0.0, 1.0, -1.0, math.pi, 0.1, 1e-300, 1e300, 2.0 ** -52,
              123456789.123456789, -0.0]
    for v in values:
        assert float(fmt_float(v)) == v


def test_particles_round_trip():
    P = np.array([(0.0, 0.0), (-3.0, 4.0)])
    V = np.array([(1.25, -0.5), (math.atan(2), math.pi)])
    text = particles_document(P, V)
    assert text.startswith("particles v1\n")
    back_P, back_V = parse_particles(text)
    assert back_P.tolist() == P.tolist()
    assert back_V.tolist() == V.tolist()
    assert back_P.flags.c_contiguous and back_V.flags.c_contiguous


def test_particles_blank_lines_skipped():
    text = "particles v1\n\n0,0,1,0\n\n"
    P, V = parse_particles(text)
    assert P.shape == V.shape == (1, 2)


def test_particles_header_only_is_empty():
    P, V = parse_particles("particles v1\n")
    assert P.shape == V.shape == (0, 2)


def test_particles_bad_header():
    with pytest.raises(ParseError) as info:
        parse_particles("particle v2\n0,0,1,0\n")
    assert info.value.line_no == 1


def test_particles_bad_field_count():
    with pytest.raises(ParseError) as info:
        parse_particles("particles v1\n0,0,1\n")
    assert info.value.line_no == 2
    assert "4 fields" in str(info.value)


def test_particles_bad_number_reports_line():
    with pytest.raises(ParseError) as info:
        parse_particles("particles v1\n0,0,1,0\n0,1,x,0\n")
    assert info.value.line_no == 3


@pytest.mark.parametrize("bad, message", [
    ("0,1,2", "line 4: expected 4 fields x1,x2,v1,v2, got 3"),
    ("0,1,2,3,4", "line 4: expected 4 fields x1,x2,v1,v2, got 5"),
    ("0, 1 ,x y,3", "line 4: expected a number, got 'x y'"),
    ("0,1,,3", "line 4: expected a number, got ''"),
    ("nan,1,2,3", "line 4: non-finite Vec2 component: (nan, 1.0)"),
    ("0,1,2,-inf", "line 4: non-finite Vec2 component: (2.0, -inf)"),
    ("inf,1,nan,3", "line 4: non-finite Vec2 component: (inf, 1.0)"),
])
def test_particles_bad_row_names_its_line_past_a_blank(bad, message):
    text = f"particles v1\n0,0,1,0\n\n{bad}\n5,5,1,0\n"
    with pytest.raises(ParseError) as info:
        parse_particles(text)
    assert info.value.line_no == 4
    assert str(info.value) == message


@pytest.mark.parametrize("later", ["0,1", "0,1,x,0", "0,1,nan,0"])
def test_particles_first_bad_line_wins(later):
    # A non-finite row is reported before any later error, whatever its kind.
    text = f"particles v1\n0,0,1,0\n0,inf,1,0\n{later}\n"
    with pytest.raises(ParseError) as info:
        parse_particles(text)
    assert str(info.value) == "line 3: non-finite Vec2 component: (0.0, inf)"


def test_report_round_trip_and_value_formats():
    text = report_document({
        "count": 3,
        "ok": True,
        "bad": False,
        "ratio": 0.1,
        "pair": (0, 2),
        "missing": None,
        "label": "all-times",
    })
    assert text.startswith("report v1\n")
    back = parse_report(text)
    assert back == {
        "count": "3",
        "ok": "true",
        "bad": "false",
        "ratio": fmt_float(0.1),
        "pair": "0,2",
        "missing": "none",
        "label": "all-times",
    }


def test_report_bad_header():
    with pytest.raises(ParseError):
        parse_report("reported v1\nok = true\n")


def test_config_text_comments_and_spacing():
    parsed = parse_config_text("# run\ncommand = verify\n\n  seed=7\n")
    assert parsed == {"command": "verify", "seed": "7"}


def test_config_text_duplicate_key():
    with pytest.raises(ParseError) as info:
        parse_config_text("a = 1\na = 2\n")
    assert info.value.line_no == 2


def test_config_text_missing_equals():
    with pytest.raises(ParseError) as info:
        parse_config_text("command verify\n")
    assert info.value.line_no == 1


def test_table_csv_round_trip():
    rows = parse_table_csv("# profile\n-1,-0.5\n0,0\n1,0.5\n")
    assert rows == [(-1, -0.5), (0, 0.0), (1, 0.5)]


def test_table_csv_bad_index():
    with pytest.raises(ParseError) as info:
        parse_table_csv("0.5,1\n")
    assert info.value.line_no == 1


def test_atomic_write_creates_and_replaces(tmp_path):
    path = str(tmp_path / "report.txt")
    write_text_atomic(path, "first\n")
    write_text_atomic(path, "second\n")
    with open(path) as handle:
        assert handle.read() == "second\n"
    # no temp droppings left behind
    assert sorted(os.listdir(tmp_path)) == ["report.txt"]


def test_atomic_write_takes_chunks(tmp_path):
    path = str(tmp_path / "frames.csv")
    write_text_atomic(path, (f"{k}\n" for k in range(3)))
    with open(path) as handle:
        assert handle.read() == "0\n1\n2\n"
    assert sorted(os.listdir(tmp_path)) == ["frames.csv"]


def test_frames_csv_layout():
    series = [(0.0, np.array([(0.0, 0.0), (1.0, 2.0)])),
              (0.5, np.array([(0.25, 0.0), (1.0, 2.5)]))]
    lines = "".join(frames_csv(series)).splitlines()
    assert lines[0] == "frame,time,particle,x1,x2"
    assert lines[1] == "0,0,0,0,0"
    assert lines[4] == "1,0.5,1,1,2.5"
    assert len(lines) == 5


def test_svg_snapshot_geometry():
    text = svg_snapshot(np.array([(0.0, 0.0), (1.0, 3.0)]), 0.5, -2.0, 4.0)
    assert text.count("<circle") == 2
    assert 'viewBox="0 0 6 6"' in text
    # y flips: world x2=3 inside [-2, 4] lands at cy = 4 - 3 = 1
    assert 'cy="1"' in text
    assert 'r="0.5"' in text


def test_svg_snapshot_rejects_bad_viewport():
    with pytest.raises(ValueError):
        svg_snapshot(np.zeros((0, 2)), 0.5, 2.0, 2.0)


def _g17(values) -> list[str]:
    """The strings that _g17_chars lays out for values."""
    chars = formats._g17_chars(np.array(values, dtype=float))
    return [column.tobytes().translate(None, b"\0").decode() for column in chars.T]


def _largest_below_power_of_ten(p: int) -> float:
    d = float(f"1e{p}")
    return d if Fraction(d) < Fraction(10) ** p else float(np.nextafter(d, 0.0))


# Half-even ties, both sides of the fast range's edges and of the decades
# where %g changes notation, the largest double below each power of ten in
# the fast range (where a round-up would carry into the next decade), +-0
# and the smallest subnormal.
PINNED = [
    1 + 2 ** -17, 1 + 3 * 2 ** -17,
    *(float(v) for edge in (1e-4, 1.0, 1e15, 1e16, 1e17)
      for v in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, math.inf))),
    *(_largest_below_power_of_ten(p) for p in range(-4, 16)),
    0.0, -0.0, 5e-324,
]


def test_g17_ties_round_half_to_even():
    assert _g17([1 + 2 ** -17, 1 + 3 * 2 ** -17, 999.99999999999989]) == [
        "1.0000076293945312", "1.0000228881835938", "999.99999999999989"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
@example(PINNED)
def test_g17_chars_matches_format_on_finite_doubles(values):
    assert _g17(values) == [format(v, ".17g") for v in values]


FAST_BITS = st.integers(int(np.float64(1e-4).view(np.uint64)) - 2 ** 20,
                        int(np.float64(1e15).view(np.uint64)) + 2 ** 20)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.integers(0, 2 ** 64 - 1), FAST_BITS),
                          st.booleans()), max_size=40))
def test_g17_chars_matches_format_on_bit_patterns(patterns):
    bits = np.array([b | (1 << 63) if negative else b for b, negative in patterns],
                    dtype=np.uint64)
    values = bits.view(np.float64).tolist()
    assert _g17(values) == [format(v, ".17g") for v in values]


SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
           -1e-7, 3e-5, 1e15, -1e16, 1e17, 0.5, 123.0)
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(-1e300, 1e300),
                   st.floats(-1e-4, 1e-4), st.floats(-1e3, 1e3))
INTEGER = st.integers(-10 ** 6, 10 ** 6).map(float)


@st.composite
def tables(draw, columns: int) -> np.ndarray:
    """(n, columns) float64 rows, 0 <= n <= 50; some rows integer-valued."""
    rows = draw(st.lists(st.one_of(st.tuples(*[VALUES] * columns),
                                   st.tuples(*[INTEGER] * columns)), max_size=50))
    return np.array(rows, dtype=float).reshape(len(rows), columns)


BLOCKS = st.sampled_from([1, 3, 8192])


@settings(max_examples=100, deadline=None)
@given(tables(4), BLOCKS)
def test_particles_document_matches_reference(A, block):
    P, V = A[:, :2], A[:, 2:]
    with mock.patch.object(formats, "_ROW_BLOCK", block):
        assert particles_document(P, V) == reference_particles_document(P, V)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.one_of(VALUES, INTEGER), tables(2)), max_size=4),
       BLOCKS)
def test_frames_csv_matches_reference(series, block):
    with mock.patch.object(formats, "_ROW_BLOCK", block):
        assert ("".join(frames_csv(series))
                == "".join(reference_frames_csv(series)))


@settings(max_examples=100, deadline=None)
@given(tables(2), st.sampled_from([0.5, 1e-7, 0.44721359549995793]),
       st.sampled_from([(-1e300, 1e300), (-2.0, 4.0), (-0.0, 1e-5)]), BLOCKS)
def test_svg_snapshot_matches_reference(points, radius, viewport, block):
    with mock.patch.object(formats, "_ROW_BLOCK", block):
        assert (svg_snapshot(points, radius, *viewport)
                == reference_svg_snapshot(points, radius, *viewport))


@settings(max_examples=100, deadline=None)
@given(tables(5), BLOCKS)
def test_export_scene_matches_reference(A, block):
    bases, V = A[:, :3], A[:, 3:]
    if len(A):
        bounds = (min(speeds(V)), max(speeds(V)))
        scene = CylinderScene(bases, V, lemma1_bound(bounds[1]) / 2.0, bounds)
    else:
        scene = CylinderScene(bases, V, None, (0.0, 0.0))
    with mock.patch.object(formats, "_ROW_BLOCK", block):
        assert export_scene(scene) == reference_export_scene(scene)
