import math
import os

import numpy as np
import pytest

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
