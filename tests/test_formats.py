import math
import os
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freedrift import formats
from freedrift.cylinders import export_scene, lemma1_bound
from freedrift.formats import (
    ParseError,
    fmt_float,
    frames_csv,
    parse_config_text,
    parse_particles,
    parse_table_csv,
    particles_document,
    report_document,
    svg_snapshot,
    write_text_atomic,
)
from freedrift.lattice import Window, arctan_profile, build_flow
from oracles import (
    configuration,
    parse_report,
    reference_export_scene,
    reference_frames_csv,
    reference_parse_particles,
    reference_particles_document,
    reference_svg_snapshot,
)


def test_fmt_float_round_trips_doubles():
    values = [0.0, 1.0, -1.0, math.pi, 0.1, 1e-300, 1e300, 2.0 ** -52,
              123456789.123456789, -0.0]
    for v in values:
        assert float(fmt_float(v)) == v


def test_particles_round_trip():
    flow = build_flow(arctan_profile(), Window(-3, 1, 0, 4), shift_margin=0.5).configuration
    text = "".join(particles_document(flow.particle_rows()))
    assert text.startswith("particles v1\n")
    positions, velocities = parse_particles(text.encode())
    assert positions.tolist() == flow.P.ravel().tolist()
    assert velocities.tolist() == flow.V.ravel().tolist()
    assert positions.typecode == velocities.typecode == "d"


def test_particles_blank_lines_skipped():
    positions, velocities = parse_particles(b"particles v1\n\n0,0,1,0\n\n")
    assert positions.tolist() == [0.0, 0.0] and velocities.tolist() == [1.0, 0.0]


def test_particles_header_only_is_empty():
    positions, velocities = parse_particles(b"particles v1\n")
    assert len(positions) == len(velocities) == 0


def test_particles_bad_header():
    with pytest.raises(ParseError) as info:
        parse_particles(b"particle v2\n0,0,1,0\n")
    assert info.value.line_no == 1


def test_particles_bad_field_count():
    with pytest.raises(ParseError) as info:
        parse_particles(b"particles v1\n0,0,1\n")
    assert info.value.line_no == 2
    assert "4 fields" in str(info.value)


def test_particles_bad_number_reports_line():
    with pytest.raises(ParseError) as info:
        parse_particles(b"particles v1\n0,0,1,0\n0,1,x,0\n")
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
        parse_particles(text.encode())
    assert info.value.line_no == 4
    assert str(info.value) == message


@pytest.mark.parametrize("later", ["0,1", "0,1,x,0", "0,1,nan,0"])
def test_particles_first_bad_line_wins(later):
    # A non-finite row is reported before any later error, whatever its kind.
    text = f"particles v1\n0,0,1,0\n0,inf,1,0\n{later}\n"
    with pytest.raises(ParseError) as info:
        parse_particles(text.encode())
    assert str(info.value) == "line 3: non-finite Vec2 component: (0.0, inf)"


# Particle text for the comparison with the line-by-line reference parser.
# Plain fields are what a block of plain rows may hold; odd fields go
# through the per-line loop, or make float fail on a plain-looking block.
PLAIN_FIELDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from(["1e999", "-1e999", "-0", "+1.5", ".5", "5.", "1E-3", "0e0",
                     "", "e", "1e", "--1", "1.2.3", "+-1"]))
ODD_FIELDS = st.sampled_from([
    "nan", "-inf", "Infinity", " 1", "2 ", "\t3", " 1 e5", "1_0", "+_1", "1__0",
    "\u0661", "\u0663.\u0665", "\uff11", "x", "0x1", "1e5\u00a0"])
FIELDS = st.one_of(PLAIN_FIELDS, PLAIN_FIELDS, ODD_FIELDS)
LINES = st.one_of(
    st.lists(PLAIN_FIELDS, min_size=4, max_size=4).map(",".join),
    st.lists(FIELDS, min_size=4, max_size=4).map(",".join),
    st.lists(FIELDS, max_size=6).map(",".join),
    st.sampled_from(["", " ", "\t", " \t "]))
# Every str.splitlines separator; mostly "\n".
BREAKS = st.sampled_from(["\n"] * 10 + [
    "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
PARSE_BLOCKS = st.sampled_from([1, 2, 7, 30, 1 << 16])


@st.composite
def particle_texts(draw) -> str:
    header = draw(st.sampled_from([formats.PARTICLES_HEADER] * 8
                                  + [" particles v1\t", "particles v2", ""]))
    lines = draw(st.lists(st.tuples(LINES, BREAKS), max_size=40))
    text = header + draw(BREAKS) + "".join(line + br for line, br in lines)
    if lines and draw(st.booleans()):  # no final line break
        text = text[:-len(lines[-1][1])]
    return text


def _parse_outcome(parse, text):
    """The positions' and velocities' bits, 16 bytes a row, or the
    ParseError's line and message."""
    try:
        positions, velocities = parse(text)
    except ParseError as exc:
        return "error", exc.line_no, str(exc)
    return "rows", bytes(memoryview(positions)), bytes(memoryview(velocities))


_PLAIN_ROWS = "".join(f"{k},{k}.5,-{k}e-3,+{k}\n" for k in range(6))


@settings(max_examples=400, deadline=None)
@given(particle_texts(), PARSE_BLOCKS)
@example("particles v1\n1e999,0,0,0\n" + _PLAIN_ROWS + "x,1,2,3\n", 1)
@example("particles v1\n" + _PLAIN_ROWS + "0,nan,0,0\n" + _PLAIN_ROWS + "0,1\n", 7)
@example("particles v1\n" + _PLAIN_ROWS + "0,0,-1e999,0\n" + _PLAIN_ROWS, 1 << 16)
@example("particles v1\r\n" + _PLAIN_ROWS.replace("\n", "\r\n"), 2)
@example("particles v1\r" + _PLAIN_ROWS.replace("\n", "\r") + "\r0,nan,0,0\r", 2)
@example("particles v1\n" + _PLAIN_ROWS + "\n" + _PLAIN_ROWS + "1,2,3,4", 30)
@example("particles v1\n" + _PLAIN_ROWS + "1,\u0662,3,4\n" + _PLAIN_ROWS, 30)
@example("particles v1\u2028" + _PLAIN_ROWS + "1,2,3,4\r5,6,7,8\n", 7)
@example("particles v1\n0.0", 1)
@example("particles v1\n" + _PLAIN_ROWS + "55", 1 << 16)
def test_parse_particles_matches_reference(text, block):
    with mock.patch.object(formats, "_PARSE_BLOCK", block):
        got = _parse_outcome(parse_particles, text.encode())
    assert got == _parse_outcome(reference_parse_particles, text)


def test_plain_rows_skip_the_line_loop(monkeypatch):
    line_loop = []
    parse_lines = formats._parse_lines

    def counted(lines, first_line):
        line_loop.extend(lines)
        return parse_lines(lines, first_line)

    monkeypatch.setattr(formats, "_parse_lines", counted)
    monkeypatch.setattr(formats, "_PARSE_BLOCK", 64)
    P = np.arange(400.0).reshape(200, 2)
    data = reference_particles_document(P, -P).encode()
    for newline in (b"\n", b"\r\n", b"\r"):
        positions, velocities = parse_particles(data.replace(b"\n", newline))
        assert positions.tolist() == P.ravel().tolist()
        assert velocities.tolist() == (-P).ravel().tolist()
    assert line_loop == []


def test_bytes_that_are_not_utf8_raise_at_their_position(monkeypatch):
    # The bad byte sits in a later block; the error counts from the start.
    monkeypatch.setattr(formats, "_PARSE_BLOCK", 8)
    data = b"particles v1\n" + b"0,0,1,0\n" * 4 + b"0,1,\xff,0\n"
    with pytest.raises(UnicodeDecodeError) as info:
        parse_particles(data)
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode()
    assert str(info.value) == str(whole.value)
    # An earlier bad line comes first, whether the byte follows it in the
    # same 64 KiB block or, past 20,000 more rows, in a later one.
    monkeypatch.setattr(formats, "_PARSE_BLOCK", 1 << 16)
    for rows in (0, 20_000):
        data = (b"particles v1\n0,0,0,0\n1,2,3\n" + b"1,1,1,1\n" * rows
                + b"5,0,0,0 \xff\n")
        with pytest.raises(ParseError, match="^line 3: expected 4 fields"):
            parse_particles(data)


def _traced_peak(make):
    """What make() returns, and the peak of traced memory while it ran."""
    tracemalloc.start()
    try:
        return make(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _peak_above_arrays(n: int, task: str) -> int:
    """Peak traced memory of one parse or one fully consumed emitter on n
    seeded rows, above its input (made before tracing) and its output
    arrays."""
    rng = np.random.default_rng(n)
    P, V = rng.uniform(-100.0, 100.0, (n, 2)), rng.uniform(-2.0, 2.0, (n, 2))
    if task in ("parse", "parse-cr"):
        data = reference_particles_document(P, V).encode()
        if task == "parse-cr":
            data = data.replace(b"\n", b"\r")
        (positions, velocities), peak = _traced_peak(lambda: parse_particles(data))
        return peak - 8 * (len(positions) + len(velocities))
    # The particles file of a flow of columns of 400 rows, n // 400 of them.
    flow = build_flow(arctan_profile(), Window(0, n // 400 - 1, 0, 399), 0.5).configuration
    config = configuration(P, V)
    chunks = {"particles": lambda: particles_document(flow.particle_rows()),
              "svg": lambda: svg_snapshot(P, 0.5, -200.0, 200.0),
              "scene": lambda: export_scene(config, 0.25)}[task]
    return _traced_peak(lambda: sum(map(len, chunks())))[1]


@pytest.mark.parametrize("task", ["parse", "parse-cr", "particles", "svg", "scene"])
def test_memory_is_bounded_by_a_block(task):
    n = 2000
    with mock.patch.object(formats, "_ROW_BLOCK", 256), \
            mock.patch.object(formats, "_PARSE_BLOCK", 1 << 13):
        small, large = (_peak_above_arrays(rows, task) for rows in (n, 4 * n))
    # export_scene sorts its rows first: np.lexsort's n-long order, with
    # its work space, is all that may grow.
    allowed = 16 * 3 * n if task == "scene" else 0
    assert large - small <= allowed + (16 << 10)


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


def test_config_text_empty_key():
    with pytest.raises(ParseError, match="^line 2: empty key$"):
        parse_config_text("seed = 7\n = verify\n")


def test_table_csv_round_trip():
    rows = parse_table_csv("# profile\n-1,-0.5\n0,0\n1,0.5\n")
    assert rows == [(-1, -0.5), (0, 0.0), (1, 0.5)]


def test_table_csv_bad_index():
    with pytest.raises(ParseError) as info:
        parse_table_csv("0.5,1\n")
    assert info.value.line_no == 1


@pytest.mark.parametrize("row, count", [("1", 1), ("1,0.5,2", 3)])
def test_table_csv_wrong_field_count(row, count):
    with pytest.raises(ParseError,
                       match=f"^line 2: expected 2 fields n,value, got {count}$"):
        parse_table_csv(f"0,0\n{row}\n")


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


def test_atomic_write_that_fails_leaves_nothing(tmp_path):
    def chunks():
        yield "0\n"
        raise RuntimeError("emitter failed")

    with pytest.raises(RuntimeError, match="emitter failed"):
        write_text_atomic(str(tmp_path / "frames.csv"), chunks())
    assert os.listdir(tmp_path) == []


def test_frames_csv_layout():
    series = [(0.0, np.array([(0.0, 0.0), (1.0, 2.0)])),
              (0.5, np.array([(0.25, 0.0), (1.0, 2.5)]))]
    lines = "".join(frames_csv(series)).splitlines()
    assert lines[0] == "frame,time,particle,x1,x2"
    assert lines[1] == "0,0,0,0,0"
    assert lines[4] == "1,0.5,1,1,2.5"
    assert len(lines) == 5


def test_svg_snapshot_geometry():
    text = "".join(svg_snapshot(np.array([(0.0, 0.0), (1.0, 3.0)]), 0.5, -2.0, 4.0))
    assert text.count("<circle") == 2
    assert 'viewBox="0 0 6 6"' in text
    # y flips: world x2=3 inside [-2, 4] lands at cy = 4 - 3 = 1
    assert 'cy="1"' in text
    assert 'r="0.5"' in text


def test_svg_snapshot_rejects_bad_viewport():
    # An empty side, and sides that are not finite, one by overflow.
    for lo, hi in ((2.0, 2.0), (-1e308, 1e308), (-math.inf, 0.0), (0.0, math.inf)):
        with pytest.raises(ValueError, match=r"^bad viewport "):
            svg_snapshot(np.zeros((0, 2)), 0.5, lo, hi)


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
        assert ("".join(svg_snapshot(points, radius, *viewport))
                == reference_svg_snapshot(points, radius, *viewport))


@settings(max_examples=100, deadline=None)
@given(tables(4), BLOCKS)
def test_export_scene_matches_reference(A, block):
    # A configuration holds each row once; the first of each stays in place.
    A = A[np.sort(np.unique(A, axis=0, return_index=True)[1])]
    P, V = A[:, :2], A[:, 2:]
    radius = lemma1_bound(max(map(math.hypot, *V.T.tolist()), default=0.0)) / 2.0
    # The scene's axis points are the positions at time 0.
    scene = SimpleNamespace(bases=np.column_stack((P, np.zeros(len(P)))),
                            velocities=V, radius=radius)
    with mock.patch.object(formats, "_ROW_BLOCK", block):
        assert ("".join(export_scene(configuration(P, V), radius))
                == reference_export_scene(scene))
