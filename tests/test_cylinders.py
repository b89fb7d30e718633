import math
import random

import numpy as np
import pytest

from freedrift import cli, formats
from freedrift.cylinders import (
    CylinderScene,
    HardCoreNotVerifiedError,
    RadiusTooLargeError,
    SCENE_HEADER,
    WorldLine,
    build_scene,
    export_scene,
    lemma1_bound,
    parse_scene,
    verify_scene,
    worldline_of,
)
from freedrift.evolution import MovingConfiguration, Particle
from freedrift.formats import ParseError, parse_report
from freedrift.geometry import Vec2, Vec3, line_distance_3d
from freedrift.lattice import Window, arctan_profile, build_flow

from oracles import line_grid_min_distance, scalar_grid_min


def _static_pair(distance):
    return MovingConfiguration.from_particles((
        Particle(Vec2(0.0, 0.0), Vec2(0.0, 0.0)),
        Particle(Vec2(distance, 0.0), Vec2(0.0, 0.0)),
    ))


def _line_tuple(line):
    return ((line.base.x1, line.base.x2, line.base.x3),
            (line.direction.x1, line.direction.x2, line.direction.x3))


def test_worldline_of_static_particle():
    line = worldline_of(Particle(Vec2(0.0, 0.0), Vec2(0.0, 0.0)))
    assert _line_tuple(line) == ((0.0, 0.0, 0.0), (0.0, 0.0, 1.0))


def test_worldline_of_moving_particle():
    line = worldline_of(Particle(Vec2(1.0, 2.0), Vec2(3.0, 4.0)))
    assert _line_tuple(line) == ((1.0, 2.0, 0.0), (3.0, 4.0, 1.0))


def test_worldline_angle_to_vertical():
    line = worldline_of(Particle(Vec2(0.0, 0.0), Vec2(1.0, 0.0)))
    assert math.atan(line.speed) == pytest.approx(math.pi / 4, abs=1e-15)


def test_worldline_requires_unit_time_component():
    with pytest.raises(ValueError):
        WorldLine(Vec3(0.0, 0.0, 0.0), Vec3(1.0, 0.0, 0.5))


def test_lemma1_bound_values():
    assert lemma1_bound(0.0) == 1.0
    assert lemma1_bound(1.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    with pytest.raises(ValueError):
        lemma1_bound(-1.0)
    with pytest.raises(ValueError):
        lemma1_bound(math.inf)


def test_lemma1_minimizer_identity():
    m = 2.0
    u = m / (1.0 + m * m)
    value = (1.0 - m * u) ** 2 + u * u
    assert value == pytest.approx(0.2, rel=1e-12)
    assert value == pytest.approx(1.0 / (1.0 + m * m), rel=1e-12)
    assert lemma1_bound(m) == pytest.approx(math.sqrt(value), rel=1e-12)


def test_scalar_grid_min_tracks_closed_form():
    rng = random.Random(4)
    for _ in range(50):
        m = rng.uniform(0.01, 10.0)
        value, argmin = scalar_grid_min(m)
        assert value == pytest.approx(1.0 / (1.0 + m * m), abs=1e-8)
        assert argmin == pytest.approx(m / (1.0 + m * m), abs=2e-5)


def test_verify_scene_static_pair():
    report = verify_scene(_static_pair(1.0), radius=0.5)
    assert report.speed_max == 0.0
    assert report.separation_floor == 1.0
    assert report.required_distance == 1.0
    assert report.min_line_distance == pytest.approx(1.0, abs=1e-12)
    assert report.distances_ok
    assert report.passed
    # Zero velocities coincide, so the parallel axes are still flagged.
    assert not report.nonparallel_ok
    assert report.duplicate_direction_pairs == ((0, 1),)


def test_verify_scene_counts_every_duplicate_direction():
    config = MovingConfiguration(
        np.column_stack((2.0 * np.arange(20), np.zeros(20))), np.zeros((20, 2)))
    report = verify_scene(config, radius=0.5)
    assert report.passed and not report.nonparallel_ok
    assert report.duplicate_direction_count == 19
    assert len(report.duplicate_direction_pairs) == 16


def test_verify_scene_detects_injected_duplicate_velocity():
    config = MovingConfiguration.from_particles((
        Particle(Vec2(0.0, 0.0), Vec2(0.5, 0.0)),
        Particle(Vec2(0.0, 3.0), Vec2(0.5, 0.0)),
        Particle(Vec2(0.0, 6.0), Vec2(0.25, 0.1)),
    ))
    report = verify_scene(config, radius=0.25)
    assert not report.nonparallel_ok
    assert report.duplicate_direction_pairs == ((0, 1),)


def test_verify_scene_3x3_flow():
    flow = build_flow(arctan_profile(), Window.square(1), shift_margin=0.5)
    config = flow.as_configuration()
    speeds = [math.hypot(p.velocity.x1, p.velocity.x2) for p in config.particles]
    cap = max(speeds)
    radius = lemma1_bound(cap) / 2.0
    report = verify_scene(config, radius)
    assert report.passed
    assert report.speed_max == cap
    assert report.min_line_distance >= report.separation_floor - 1e-9
    assert report.distance_margin >= -1e-9

    # Cross-check the scanned minimum against scalar per-pair distances.
    lines = [worldline_of(p) for p in config.particles]
    best = math.inf
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            best = min(best, line_distance_3d(lines[i].base, lines[i].direction,
                                              lines[j].base, lines[j].direction))
    assert report.min_line_distance == pytest.approx(best, rel=1e-12)


def test_verify_scene_line_distances_match_grid_oracle():
    flow = build_flow(arctan_profile(), Window.square(1), shift_margin=0.5)
    particles = flow.particles
    rng = random.Random(11)
    for _ in range(6):
        i, j = rng.sample(range(len(particles)), 2)
        li = worldline_of(particles[i])
        lj = worldline_of(particles[j])
        closed = line_distance_3d(li.base, li.direction, lj.base, lj.direction)
        gridded = line_grid_min_distance(
            (li.base.x1, li.base.x2, li.base.x3),
            (li.direction.x1, li.direction.x2, li.direction.x3),
            (lj.base.x1, lj.base.x2, lj.base.x3),
            (lj.direction.x1, lj.direction.x2, lj.direction.x3))
        assert closed == pytest.approx(gridded, abs=1e-6)


def test_verify_scene_rejects_unverified_hardcore():
    head_on = MovingConfiguration.from_particles((
        Particle(Vec2(0.0, 0.0), Vec2(1.0, 0.0)),
        Particle(Vec2(4.0, 0.0), Vec2(-1.0, 0.0)),
    ))
    with pytest.raises(HardCoreNotVerifiedError):
        verify_scene(head_on, radius=0.25)


def test_verify_scene_passes_pair_ten_apart():
    # np.arctan and math.atan differ in the last bit on these speeds.
    config = MovingConfiguration(np.array([(0.0, 0.0), (0.0, 10.0)]),
                                 np.array([(0.33824492665443673, 0.0),
                                           (1.3382449266544367, 0.0)]))
    report = verify_scene(config, lemma1_bound(1.3382449266544367) / 2.0)
    assert report.min_line_distance == 10.0
    assert report.passed


def test_radius_above_the_floor_gets_no_tolerance(tmp_path, monkeypatch):
    # RADIUS_SLACK admits a radius whose 2 radius lies 4.5e-14 above both
    # the floor and the minimum worldline distance. DISTANCE_TOL must not
    # forgive that shortfall: the scene fails.
    (tmp_path / "rows.txt").write_text("particles v1\n0,0,2,1e-12\n1,0,2,0\n")
    monkeypatch.chdir(tmp_path)
    code = cli.main(["--command", "cylinders", "--particles", "rows.txt",
                     "--radius", "0.2236067977500013", "--out", "out"])
    report = parse_report((tmp_path / "out" / "cylinder_report.txt").read_text())
    assert code == 1
    assert report["passed"] == "false"
    assert report["distances_ok"] == "false"
    assert float(report["distance_margin"]) == -4.4686476741162551e-14
    assert float(report["required_distance"]) > float(report["separation_floor"])


def test_verify_scene_rejects_oversized_radius():
    with pytest.raises(RadiusTooLargeError):
        verify_scene(_static_pair(1.0), radius=0.6)
    with pytest.raises(ValueError):
        verify_scene(_static_pair(1.0), radius=0.0)


def test_scene_invariants():
    vertical = worldline_of(Particle(Vec2(0.0, 0.0), Vec2(0.0, 0.0)))
    other = worldline_of(Particle(Vec2(2.0, 0.0), Vec2(0.0, 0.0)))
    with pytest.raises(ValueError):
        CylinderScene.from_cylinders(((vertical, 0.5), (other, 0.25)), (0.0, 0.0))
    with pytest.raises(RadiusTooLargeError):
        CylinderScene.from_cylinders(((vertical, 0.51),), (0.0, 0.0))
    with pytest.raises(ValueError):
        # speed 0 is not in [1, 2]
        CylinderScene.from_cylinders(((vertical, 0.5),), (1.0, 2.0))
    scene = CylinderScene.from_cylinders(((vertical, 0.5),), (0.0, 0.0))
    assert scene.radius == 0.5


def test_build_scene_defaults():
    flow = build_flow(arctan_profile(), Window.square(1), shift_margin=0.5)
    scene = build_scene(flow.as_configuration())
    m, cap = scene.speed_bounds
    assert scene.radius == lemma1_bound(cap) / 2.0
    assert m <= cap
    assert len(scene.cylinders) == 9


def test_export_empty_scene_is_header_only():
    doc = "".join(export_scene(CylinderScene.from_cylinders((), (0.0, 0.0))))
    assert doc == SCENE_HEADER + "\n"
    parsed = parse_scene(doc)
    assert parsed.cylinders == ()


def test_export_single_vertical_cylinder():
    scene = build_scene(_static_pair(2.0), radius=0.5)
    doc = "".join(export_scene(scene))
    lines = doc.splitlines()
    assert lines[0] == SCENE_HEADER
    assert lines[1] == "0,0,0,0,0,1,0.5"
    assert lines[2] == "2,0,0,0,0,1,0.5"


def test_export_rows_sorted_by_axis_point():
    particles = (
        Particle(Vec2(3.0, 0.0), Vec2(0.25, 0.0)),
        Particle(Vec2(-1.0, 5.0), Vec2(0.0, 0.5)),
        Particle(Vec2(-1.0, 2.0), Vec2(0.5, 0.25)),
    )
    scene = build_scene(MovingConfiguration.from_particles(particles), radius=0.25)
    rows = "".join(export_scene(scene)).splitlines()[1:]
    keys = [tuple(float(f) for f in row.split(",")[:3]) for row in rows]
    assert keys == sorted(keys)


@pytest.mark.parametrize("block", [1, 4, 8, 9])
def test_export_in_blocks_is_byte_identical(monkeypatch, block):
    flow = build_flow(arctan_profile(), Window.square(1), shift_margin=0.5)
    scene = build_scene(flow.as_configuration())
    whole = "".join(export_scene(scene))  # nine rows: one block
    monkeypatch.setattr(formats, "_ROW_BLOCK", block)
    assert "".join(export_scene(scene)) == whole


def test_scene_round_trip_preserves_distances():
    flow = build_flow(arctan_profile(), Window.square(1), shift_margin=0.5)
    scene = build_scene(flow.as_configuration())
    parsed = parse_scene("".join(export_scene(scene)))
    assert len(parsed.cylinders) == 9
    assert parsed.radius == pytest.approx(scene.radius, rel=1e-15)

    original = sorted(scene.cylinders,
                      key=lambda c: (c[0].base.x1, c[0].base.x2, c[0].base.x3))
    for (line_a, _), (line_b, _) in zip(original, parsed.cylinders):
        assert line_a.base == line_b.base
    for i in range(9):
        for j in range(i + 1, 9):
            da = line_distance_3d(original[i][0].base, original[i][0].direction,
                                  original[j][0].base, original[j][0].direction)
            db = line_distance_3d(parsed.cylinders[i][0].base,
                                  parsed.cylinders[i][0].direction,
                                  parsed.cylinders[j][0].base,
                                  parsed.cylinders[j][0].direction)
            assert db == pytest.approx(da, rel=1e-12)


def test_parse_scene_rejects_bad_input():
    with pytest.raises(ParseError):
        parse_scene("wrong header\n")
    with pytest.raises(ParseError):
        parse_scene(SCENE_HEADER + "\n1,2,3\n")
    with pytest.raises(ParseError):
        parse_scene(SCENE_HEADER + "\n0,0,0,0,0,ow,0.5\n")
    with pytest.raises(ParseError):
        parse_scene(SCENE_HEADER + "\n0,0,0,0,0,-1,0.5\n")
