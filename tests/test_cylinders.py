import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from freedrift import formats, geometry
from freedrift.cylinders import (
    HardCoreNotVerifiedError,
    RadiusTooLargeError,
    SCENE_HEADER,
    export_scene,
    lemma1_bound,
    verify_scene,
)
from freedrift.configuration import MovingConfiguration
from freedrift.lattice import (Window, arctan_profile, build_flow, rational_profile,
                               table_profile, tanh_profile)

from oracles import (configuration, exact_scene_overlaps, line_distance_3d,
                     line_grid_min_distance, read_scene, scalar_grid_min)


def _config(rows):
    """Configuration of (x1, x2, v1, v2) rows."""
    A = np.array(rows, dtype=float).reshape(-1, 4)
    return configuration(A[:, :2], A[:, 2:])


def _static_pair(distance):
    return _config([(0.0, 0.0, 0.0, 0.0), (distance, 0.0, 0.0, 0.0)])


def _worldlines(bases, velocities):
    """(base, direction) 3-tuples of the axes b + t (v1, v2, 1)."""
    return [(tuple(b), (v1, v2, 1.0))
            for b, (v1, v2) in zip(bases.tolist(), velocities.tolist())]


def _axes(config):
    """The worldlines of a configuration: bases (x, 0), slopes v."""
    return _worldlines(np.column_stack((config.P, np.zeros(len(config)))), config.V)


def _export(config, radius=0.25):
    return "".join(export_scene(config, radius))


def _worldline_of(row):
    bases, slopes, _ = read_scene(_export(_config([row])))
    (line,) = _worldlines(bases, slopes)
    return line


def test_worldline_of_static_particle():
    line = _worldline_of((0.0, 0.0, 0.0, 0.0))
    assert line == ((0.0, 0.0, 0.0), (0.0, 0.0, 1.0))


def test_worldline_of_moving_particle():
    line = _worldline_of((1.0, 2.0, 3.0, 4.0))
    assert line == ((1.0, 2.0, 0.0), (3.0, 4.0, 1.0))


def test_worldline_angle_to_vertical():
    (row,) = _export(_config([(0.0, 0.0, 1.0, 0.0)])).splitlines()[1:]
    # The direction (v, 1) is not normalised.
    dx, dy, dz = map(float, row.split(",")[3:6])
    assert math.atan2(math.hypot(dx, dy), dz) == pytest.approx(math.pi / 4, abs=1e-15)


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
    config = configuration(
        np.column_stack((2.0 * np.arange(20), np.zeros(20))), np.zeros((20, 2)))
    report = verify_scene(config, radius=0.5)
    assert report.passed and not report.nonparallel_ok
    assert report.duplicate_direction_count == 19
    assert len(report.duplicate_direction_pairs) == 16


def test_verify_scene_detects_injected_duplicate_velocity():
    config = _config([
        (0.0, 0.0, 0.5, 0.0),
        (0.0, 3.0, 0.5, 0.0),
        (0.0, 6.0, 0.25, 0.1),
    ])
    report = verify_scene(config, radius=0.25)
    assert not report.nonparallel_ok
    assert report.duplicate_direction_pairs == ((0, 1),)


def test_verify_scene_3x3_flow():
    config = build_flow(arctan_profile(), Window.square(1), shift_margin=0.5).configuration
    cap = max(map(math.hypot, *config.V.T.tolist()))
    radius = lemma1_bound(cap) / 2.0
    report = verify_scene(config, radius)
    assert report.passed
    assert report.speed_max == cap
    assert report.min_line_distance >= report.separation_floor
    assert report.distance_margin >= 0.0

    # Cross-check the scanned minimum against scalar per-pair distances.
    lines = _axes(config)
    best = math.inf
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            best = min(best, line_distance_3d(*lines[i], *lines[j]))
    assert report.min_line_distance == pytest.approx(best, rel=1e-12)


def test_verify_scene_line_distances_match_grid_oracle():
    flow = build_flow(arctan_profile(), Window.square(1), shift_margin=0.5).configuration
    lines = _axes(flow)
    rng = random.Random(11)
    for _ in range(6):
        i, j = rng.sample(range(len(lines)), 2)
        closed = line_distance_3d(*lines[i], *lines[j])
        gridded = line_grid_min_distance(*lines[i], *lines[j])
        assert closed == pytest.approx(gridded, abs=1e-6)


def test_verify_scene_rejects_unverified_hardcore():
    head_on = _config([(0.0, 0.0, 1.0, 0.0), (4.0, 0.0, -1.0, 0.0)])
    with pytest.raises(HardCoreNotVerifiedError):
        verify_scene(head_on, radius=0.25)


def test_verify_scene_requires_a_particle():
    with pytest.raises(ValueError,
                       match="^configuration must contain at least one particle$"):
        verify_scene(MovingConfiguration([], []), None)


def test_verify_scene_passes_pair_ten_apart():
    # np.arctan and math.atan differ in the last bit on these speeds.
    config = configuration(np.array([(0.0, 0.0), (0.0, 10.0)]),
                           np.array([(0.33824492665443673, 0.0),
                                     (1.3382449266544367, 0.0)]))
    report = verify_scene(config, lemma1_bound(1.3382449266544367) / 2.0)
    assert report.min_line_distance == 10.0
    assert report.passed


def test_verify_scene_measures_speeds_as_the_scene_does():
    # math.hypot and np.hypot round both of these speeds differently on
    # some platforms; the report must agree with math.hypot, the one
    # definition of speed, to the last bit.
    config = _config([(0.0, 0.0, 0.535, 1.896), (100.0, 0.0, 0.394, 0.112)])
    measured = [math.hypot(0.535, 1.896), math.hypot(0.394, 0.112)]
    assert config.speed_range() == (min(measured), max(measured))
    report = verify_scene(config, 0.1)
    assert report.speed_max == max(measured)
    assert report.speed_min == min(measured)
    assert report.separation_floor == lemma1_bound(max(measured))
    # radius None is half the floor.
    assert verify_scene(config, None).radius == report.separation_floor / 2.0


def _nudged_window3():
    flow = build_flow(arctan_profile(), Window.square(3), shift_margin=0.5).configuration
    V = flow.V.copy()
    V[5, 0] = np.nextafter(V[5, 0], np.inf)  # V0 no longer a function of x2
    return configuration(flow.P, V)


@pytest.mark.parametrize("case", [_nudged_window3])
def test_verify_scene_past_the_limit_is_undecided(monkeypatch, case):
    config = case()
    total = len(config) * (len(config) - 1) // 2
    monkeypatch.setattr(geometry, "EXHAUSTIVE_LIMIT", total)
    assert verify_scene(config, None).mode == "exhaustive"
    monkeypatch.setattr(geometry, "EXHAUSTIVE_LIMIT", total - 1)
    with pytest.raises(geometry.UndecidedError, match=f"^{total} pairs .* {total - 1}$"):
        verify_scene(config, None)


def test_verify_scene_rejects_oversized_radius():
    with pytest.raises(RadiusTooLargeError):
        verify_scene(_static_pair(1.0), radius=0.6)
    # No slack: one ulp above half the floor is refused.
    flow = build_flow(arctan_profile(), Window.square(2), shift_margin=0.5).configuration
    half = verify_scene(flow, None).radius
    with pytest.raises(RadiusTooLargeError, match=f"^radius {math.nextafter(half, 1)} "
                                                  f"exceeds {half}$"):
        verify_scene(flow, math.nextafter(half, 1))
    with pytest.raises(ValueError):
        verify_scene(_static_pair(1.0), radius=0.0)


def test_export_empty_scene_is_header_only():
    doc = _export(MovingConfiguration([], []))
    assert doc == SCENE_HEADER + "\n"
    bases, velocities, radii = read_scene(doc)
    assert len(bases) == len(velocities) == len(radii) == 0


def test_export_single_vertical_cylinder():
    lines = _export(_static_pair(2.0), radius=0.5).splitlines()
    assert lines[0] == SCENE_HEADER
    assert lines[1] == "0,0,0,0,0,1,0.5"
    assert lines[2] == "2,0,0,0,0,1,0.5"


def test_export_rows_sorted_by_axis_point():
    config = _config([
        (3.0, 0.0, 0.25, 0.0),
        (-1.0, 5.0, 0.0, 0.5),
        (-1.0, 2.0, 0.5, 0.25),
    ])
    rows = _export(config).splitlines()[1:]
    keys = [tuple(float(f) for f in row.split(",")[:3]) for row in rows]
    assert keys == sorted(keys)


@pytest.mark.parametrize("block", [1, 4, 8, 9])
def test_export_in_blocks_is_byte_identical(monkeypatch, block):
    flow = build_flow(arctan_profile(), Window.square(1), shift_margin=0.5).configuration
    whole = _export(flow)  # nine rows: one block
    # The same rows shuffled, written from the configuration's columns.
    order = random.Random(block).sample(range(len(flow)), len(flow))
    shuffled = configuration(flow.P[order], flow.V[order])
    monkeypatch.setattr(formats, "_ROW_BLOCK", block)
    for config in (flow, shuffled):
        header, *chunks = export_scene(config, 0.25)
        assert max(chunk.count("\n") for chunk in chunks) <= block
        # Each chunk holds rows of one x1 column: columns are not merged.
        assert all(len({row.split(",")[0] for row in chunk.splitlines()}) == 1
                   for chunk in chunks)
        assert header + "".join(chunks) == whole


def test_scene_round_trip_preserves_distances():
    config = build_flow(arctan_profile(), Window.square(1), shift_margin=0.5).configuration
    radius = verify_scene(config, None).radius
    bases, velocities, radii = read_scene(_export(config, radius))
    parsed = _worldlines(bases, velocities)
    assert len(parsed) == 9
    assert radii.tolist() == [radius] * 9

    original = sorted(_axes(config))
    for (base_a, _), (base_b, _) in zip(original, parsed):
        assert base_a == base_b
    for i in range(9):
        for j in range(i + 1, 9):
            da = line_distance_3d(*original[i], *original[j])
            db = line_distance_3d(*parsed[i], *parsed[j])
            assert db == da


def test_export_does_no_arithmetic_per_row(monkeypatch):
    flow = build_flow(arctan_profile(), Window(-3, 2, -1, 4),
                      shift_margin=0.5).configuration
    config = configuration(flow.P, flow.V)

    def refuse(*args):
        raise AssertionError("export_scene computed a length")

    monkeypatch.setattr(math, "hypot", refuse)
    for source in (flow, config):
        assert _export(source).count("\n") == 1 + len(flow)


SCENE_PROFILES = [arctan_profile(), tanh_profile(), rational_profile(),
                  table_profile((n, n + 0.25 * math.sin(n)) for n in range(-40, 41))]


@st.composite
def small_flows(draw):
    """(profile, window of 1 to 6 by 1 to 6 points at offsets up to +-30,
    single rows and columns included, shift margin 0, 0.5 or 2)."""
    x_lo, y_lo = draw(st.integers(-30, 30)), draw(st.integers(-30, 30))
    window = Window(x_lo, x_lo + draw(st.integers(0, 5)),
                    y_lo, y_lo + draw(st.integers(0, 5)))
    return (draw(st.sampled_from(SCENE_PROFILES)), window,
            draw(st.sampled_from([0.0, 0.5, 2.0])))


@settings(max_examples=80, deadline=None)
@given(small_flows(), st.randoms(use_true_random=False))
@example((arctan_profile(), Window.square(1), 0.5), random.Random(0))
@example((tanh_profile(), Window(-5, 4, -5, 4), 0.5), random.Random(1))  # 100 rows
def test_scene_rows_are_particle_rows_with_their_worldline(inputs, rng):
    """From a window and from its rows shuffled and read from a particles
    file, each scene row is the particles row in its place with 0 after
    x2 and 1,<radius> after v2, and no two of its cylinders overlap,
    decided exactly."""
    try:
        flow = build_flow(*inputs).configuration
    except ValueError:
        return  # tanh saturates in double precision
    report = verify_scene(flow, None)
    assert report.passed
    header, *rows = "".join(formats.particles_document(flow.particle_rows())).splitlines()
    expected = [SCENE_HEADER] + [
        f"{x1},{x2},0,{v1},{v2},1,{formats.fmt_float(report.radius)}"
        for x1, x2, v1, v2 in (row.split(",") for row in rows)]
    rng.shuffle(rows)
    positions, velocities = formats.parse_particles(
        "\n".join([header, *rows, ""]).encode())
    for source in (flow, MovingConfiguration(positions, velocities)):
        scene = _export(source, report.radius)
        assert scene.splitlines() == expected
        assert exact_scene_overlaps(scene) == []


def test_cylinders_at_the_default_radius_do_not_overlap_exactly():
    # The worldlines lie 1/sqrt(1 + M^2) apart, up to 1e-300 in V1.
    config = _config([(0.0, 0.0, 1.0206185567010309, 0.0),
                      (1.0, 0.0, 1.0206185567010309, -1e-300)])
    report = verify_scene(config, None)
    assert report.passed
    assert exact_scene_overlaps(_export(config, report.radius)) == []


# Velocity components, among them ones about 1e-300 and the subnormal
# 5e-324, which leave a row's speed its other component.
COMPONENTS = st.sampled_from([0.0, 1e-300, -1e-300, 5e-324, 1.0206185567010309,
                              -1.0206185567010309]) | st.floats(-3.0, 3.0)


@st.composite
def certified_flow_rows(draw):
    """(x1, x2, v1, v2) rows of a subset of a flow-like lattice: 1 to 4
    keys per axis at gaps 1, 1.5 or 3, V1 strictly decreasing in x1 and V0
    strictly increasing in x2, each row kept with odds 3 to 1. Only subsets
    the certificate decides are drawn."""
    keys = []
    for _ in range(2):
        start = float(draw(st.integers(-30, 30)))
        gaps = draw(st.lists(st.sampled_from([1.0, 1.0, 1.0, 1.5, 3.0]), max_size=3))
        keys.append([start + sum(gaps[:k]) for k in range(len(gaps) + 1)])
    x1, x2 = keys
    v1_of_x1 = sorted(draw(st.lists(COMPONENTS, min_size=len(x1), max_size=len(x1),
                                    unique=True)), reverse=True)
    v0_of_x2 = sorted(draw(st.lists(COMPONENTS, min_size=len(x2), max_size=len(x2),
                                    unique=True)))
    rows = [(a, b, v0, v1) for a, v1 in zip(x1, v1_of_x1)
            for b, v0 in zip(x2, v0_of_x2)]
    kept = draw(st.lists(st.sampled_from([True, True, True, False]),
                         min_size=len(rows), max_size=len(rows)))
    rows = [row for row, keep in zip(rows, kept) if keep]
    assume(len(rows) > 1 and _config(rows).certify(worldline=True) is not None)
    return rows


@settings(max_examples=100, deadline=None)
@given(certified_flow_rows())
@example([(0.0, 0.0, -1.0, 1e-300), (0.0, 1.0, 1.5, 1e-300),
          (1.0, 0.0, -1.0, -1e-300), (1.0, 1.0, 1.5, -1e-300)])
def test_certified_scenes_clear_the_floor_exactly(rows):
    """The certificate's worldline minimum and the floor are rounded down
    by one function, of S and of M >= S: no certified scene is short of
    the floor, and its cylinders at the default radius do not overlap,
    decided exactly."""
    config = _config(rows)
    report = verify_scene(config, None)
    assert report.mode == "exhaustive-structural"
    assert report.separation_floor <= report.min_line_distance
    assert report.passed
    assert exact_scene_overlaps(_export(config, report.radius)) == []
