import dataclasses
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from freedrift import geometry
from freedrift.cylinders import verify_scene
from freedrift.evolution import (
    BadRangeError,
    slice_at,
    snapshot_series,
    verify_hardcore,
)
from freedrift.geometry import IdenticalParticleError, Vec2, closest_approach
from freedrift.lattice import Window, arctan_profile, build_flow

from oracles import configuration, time_grid_min_distance


def _config(rows):
    """Configuration of (position, velocity) pairs of 2-tuples."""
    A = np.array(rows, dtype=float).reshape(-1, 4)
    return configuration(A[:, :2], A[:, 2:])


def _pair(x, vx, y, vy):
    return _config([(x, vx), (y, vy)])


def _one(x, vx):
    return _config([(x, vx)])


def _slice_min(points):
    best = math.inf
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            best = min(best, math.hypot(points[i, 0] - points[j, 0],
                                        points[i, 1] - points[j, 1]))
    return best


def test_slice_at_zero_is_identity():
    config = _pair((0.25, -3.0), (1.0, 2.0), (5.0, 5.0), (-1.0, 0.5))
    sliced = slice_at(config, 0.0)
    assert sliced.tolist() == [[0.25, -3.0], [5.0, 5.0]]


def test_slice_at_linear_motion():
    config = _one((0.0, 0.0), (1.0, 2.0))
    (pos,) = slice_at(config, 3.0)
    assert pos.tolist() == [3.0, 6.0]


def test_slice_at_rejects_nonfinite_time():
    config = _one((0.0, 0.0), (0.0, 0.0))
    with pytest.raises(ValueError):
        slice_at(config, math.inf)


def test_two_particle_flow_separated_at_far_times():
    config = build_flow(arctan_profile(), Window(0, 1, 0, 0), 1.0).configuration
    a, b = (Vec2(*row) for row in config.P.tolist())
    va, vb = (Vec2(*row) for row in config.V.tolist())
    closed = closest_approach(a, va, b, vb)
    for t in (10.0, -10.0):
        (p, q) = slice_at(config, t)
        dist = math.hypot(p[0] - q[0], p[1] - q[1])
        assert dist >= closed.distance - 1e-12
        assert dist >= 1.0 - 1e-9


def test_duplicate_particles_rejected():
    with pytest.raises(IdenticalParticleError):
        _pair((0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (1.0, 0.0))


# The message names the first particle that repeats an earlier one, with
# its values as written: signed zeros are equal, so a and z are duplicates.
@pytest.mark.parametrize("order, named", [
    ("ABCBA", "(2.0, 0.0, 0.0, 0.5)"),
    ("ABACB", "(0.0, 0.0, 1.0, 0.0)"),
    ("azC", "(-0.0, 1.0, 0.5, -0.0)"),
])
def test_duplicate_particle_names_the_first_repeat(order, named):
    rows = {
        "A": ((0.0, 0.0), (1.0, 0.0)),
        "B": ((2.0, 0.0), (0.0, 0.5)),
        "C": ((4.0, 0.0), (0.0, 0.0)),
        "a": ((0.0, 1.0), (0.5, 0.0)),
        "z": ((-0.0, 1.0), (0.5, -0.0)),
    }
    with pytest.raises(IdenticalParticleError) as info:
        _config([rows[k] for k in order])
    assert str(info.value) == f"duplicate particle at {named}"


def test_configuration_holds_contiguous_arrays():
    A = np.array([(0.0, 1.0, 0.5, 0.0), (2.5, -3.0, -1.0, 0.25)])
    config = configuration(A[:, :2], A[:, 2:])
    assert len(config) == 2
    assert config.P.flags.c_contiguous and config.V.flags.c_contiguous
    assert config.P.tolist() == [[0.0, 1.0], [2.5, -3.0]]
    assert config.V.tolist() == [[0.5, 0.0], [-1.0, 0.25]]


def test_configuration_rejects_bad_arrays():
    with pytest.raises(ValueError, match=r"non-finite particle 1"):
        configuration(np.array([(0.0, 0.0), (1.0, math.nan)]), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="must both be"):
        configuration(np.zeros((3, 2)), np.zeros((2, 2)))


def test_non_finite_velocity_names_its_particle():
    P = np.array([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    V = np.array([(0.0, 0.0), (0.0, 0.0), (math.inf, 0.0)])
    with pytest.raises(ValueError) as info:
        configuration(P, V)
    assert str(info.value) == "non-finite particle 2: (2.0, 0.0, inf, 0.0)"


def test_particles_sharing_a_position_differ_by_velocity():
    rows = [((0.0, 0.0), (1.0, 0.0)), ((0.0, 0.0), (1.0, 0.5)),
            ((0.0, 0.0), (0.5, 0.0))]
    assert len(_config(rows)) == 3
    with pytest.raises(IdenticalParticleError) as info:
        _config(rows + [rows[1]])
    assert str(info.value) == "duplicate particle at (0.0, 0.0, 1.0, 0.5)"


def test_verify_hardcore_static_pair_passes():
    config = _pair((0.0, 0.0), (0.0, 0.0), (2.0, 0.0), (0.0, 0.0))
    report = verify_hardcore(config, threshold=1.0)
    assert report.min_alltime_distance == 2.0
    assert report.passed
    assert report.margin == 1.0
    assert report.witness_pair == (0, 1)
    assert report.witness_time is None  # constant distance, attained at all t


def test_verify_hardcore_head_on_pair_fails_at_t2():
    config = _pair((0.0, 0.0), (1.0, 0.0), (4.0, 0.0), (-1.0, 0.0))
    report = verify_hardcore(config, threshold=1.0)
    oracle_d, oracle_t = time_grid_min_distance(
        (0.0, 0.0), (1.0, 0.0), (4.0, 0.0), (-1.0, 0.0))
    assert abs(report.min_alltime_distance - oracle_d) < 1e-9
    assert report.witness_time == pytest.approx(oracle_t, abs=1e-9)
    assert report.min_alltime_distance == pytest.approx(0.0, abs=1e-12)
    assert report.witness_time == pytest.approx(2.0, abs=1e-9)
    assert not report.passed


def test_verify_hardcore_5x5_arctan_flow_zero_margin():
    flow = build_flow(arctan_profile(), Window.square(2), shift_margin=0.5).configuration
    report = verify_hardcore(flow, threshold=1.0)
    assert report.passed
    assert report.min_alltime_distance == pytest.approx(1.0, abs=1e-9)
    assert abs(report.margin) <= 1e-9
    assert report.mode == "exhaustive-structural"
    assert report.pairs_checked == report.pairs_total == 25 * 24 // 2


def test_verify_hardcore_requires_a_particle():
    config = _config([])
    with pytest.raises(ValueError):
        verify_hardcore(config)


@pytest.mark.parametrize("threshold", [math.inf, -math.inf, math.nan])
def test_verify_hardcore_requires_a_finite_threshold(threshold):
    with pytest.raises(ValueError, match="^threshold must be finite$"):
        verify_hardcore(_one((0.0, 0.0), (0.0, 0.0)), threshold)


def test_snapshot_series_single_frame():
    config = _pair((0.0, 0.0), (1.0, 0.0), (0.0, 3.0), (0.0, 0.0))
    series = list(snapshot_series(config, 2.0, 9.0, 1))
    assert len(series) == 1
    assert series[0][0] == 2.0
    assert series[0][1].tolist() == slice_at(config, 2.0).tolist()


def test_snapshot_series_three_frames_on_0_2():
    config = _one((0.0, 0.0), (1.0, 0.0))
    times = [t for t, _ in snapshot_series(config, 0.0, 2.0, 3)]
    assert times == [0.0, 1.0, 2.0]


def test_snapshot_series_static_config_identical_frames():
    config = _pair((0.0, 0.0), (0.0, 0.0), (1.5, -2.0), (0.0, 0.0))
    frames = [pts.tolist() for _, pts in snapshot_series(config, -5.0, 5.0, 7)]
    assert all(pts == frames[0] for pts in frames[1:])


def test_snapshot_series_makes_its_times_lazily():
    config = _pair((0.0, 0.0), (1.0, 0.0), (0.0, 3.0), (0.0, 0.0))
    # numpy is loaded and the arrays made before tracing starts.
    assert config.P.shape == config.V.shape == (2, 2)
    tracemalloc.start()
    try:
        t, points = next(iter(snapshot_series(config, 0.0, 1.0, 10 ** 6)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert t == 0.0 and points.tolist() == config.P.tolist()
    # A list of the 10**6 times would take about 32 MB.
    assert peak < 1 << 20


def test_snapshot_series_bad_ranges():
    config = _one((0.0, 0.0), (0.0, 0.0))
    with pytest.raises(BadRangeError):
        snapshot_series(config, 1.0, 0.0, 2)
    with pytest.raises(BadRangeError):
        snapshot_series(config, 0.0, 1.0, 0)
    with pytest.raises(BadRangeError):
        snapshot_series(config, 0.0, math.nan, 2)


def test_slices_never_undercut_alltime_minimum():
    rng = random.Random(20)
    particles = []
    seen = set()
    while len(particles) < 18:
        pos = (rng.uniform(-8, 8), rng.uniform(-8, 8))
        if pos in seen:
            continue
        seen.add(pos)
        vel = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        particles.append((pos, vel))
    config = _config(particles)
    report = verify_hardcore(config, threshold=0.0)
    for k in range(41):
        t = -5.0 + k * 0.25
        assert report.min_alltime_distance <= _slice_min(slice_at(config, t)) + 1e-9


def test_large_window_flow_passes_structural():
    # 101x101 lattice: 52M pairs, beyond the engine's exhaustive limit, all
    # decided by the structural certificate.
    flow = build_flow(arctan_profile(), Window.square(50), shift_margin=0.5).configuration
    report = verify_hardcore(flow, threshold=1.0)
    assert report.mode == "exhaustive-structural"
    assert report.pairs_checked == report.pairs_total == 10201 * 10200 // 2
    assert report.seed is None
    assert report.passed
    assert report.min_alltime_distance >= 1.0 - 1e-9


def test_flow_without_the_structure_is_undecided_past_the_limit(monkeypatch):
    flow = build_flow(arctan_profile(), Window.square(3), shift_margin=0.5).configuration
    V = flow.V.copy()
    V[5, 0] = np.nextafter(V[5, 0], np.inf)  # V0 no longer a function of x2
    config = configuration(flow.P, V)
    monkeypatch.setattr(geometry, "EXHAUSTIVE_LIMIT", 49 * 48 // 2)
    assert verify_hardcore(config, threshold=1.0).mode == "exhaustive"
    monkeypatch.setattr(geometry, "EXHAUSTIVE_LIMIT", 49 * 48 // 2 - 1)
    with pytest.raises(geometry.UndecidedError, match="1176 pairs .* 1175"):
        verify_hardcore(config, threshold=1.0)


def test_time_symmetry_exact():
    rng = random.Random(21)
    particles = [
        ((rng.uniform(-5, 5), rng.uniform(-5, 5)),
         (rng.uniform(-3, 3), rng.uniform(-3, 3)))
        for _ in range(12)
    ]
    forward = _config(particles)
    backward = configuration(forward.P, -forward.V)
    rf = verify_hardcore(forward, threshold=1.0)
    rb = verify_hardcore(backward, threshold=1.0)
    assert rf.min_alltime_distance == rb.min_alltime_distance
    assert rf.witness_pair == rb.witness_pair


def test_translation_invariance():
    base = build_flow(arctan_profile(), Window.square(2), shift_margin=0.5).configuration
    # Offsets exactly representable, so pair differences are bit-identical.
    moved = configuration(base.P + np.array([10.5, -3.25]), base.V)
    ra = verify_hardcore(base, threshold=1.0)
    rb = verify_hardcore(moved, threshold=1.0)
    assert ra.min_alltime_distance == rb.min_alltime_distance
    assert ra.witness_pair == rb.witness_pair
    assert ra.witness_time == rb.witness_time


def test_configuration_is_frozen():
    config = _one((0.0, 0.0), (1.0, 2.0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.P = np.zeros((1, 2))


def test_a_flow_is_read_as_its_configuration():
    flow = build_flow(arctan_profile(), Window(-2, 1, -1, 3), 0.5).configuration
    config = configuration(flow.P, flow.V)
    assert verify_hardcore(flow) == verify_hardcore(config)
    assert verify_scene(flow, None) == verify_scene(config, None)
    for (t, a), (u, b) in zip(snapshot_series(flow, -1.0, 2.0, 4),
                              snapshot_series(config, -1.0, 2.0, 4), strict=True):
        assert t == u
        assert a.tolist() == b.tolist()


# Few distinct components, both zeros among them: duplicates are common,
# and -0.0 must meet 0.0.
_COMPONENT = st.sampled_from([0.0, -0.0, 1.0, -2.5])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_COMPONENT, _COMPONENT), max_size=60),
       st.randoms(use_true_random=False))
@example([(0.0, -0.0), (-0.0, 0.0)] * 12, random.Random(0))
def test_duplicate_velocities_match_grouping(velocities, rng):
    # Rows at (k, 0) in a shuffled order, so the particles are distinct
    # and their indices are not the order of their velocities.
    rows = [(float(k), 0.0, *v) for k, v in enumerate(velocities)]
    rng.shuffle(rows)
    config = _config(rows)
    got = config.duplicate_velocities()
    assert got == oracles.duplicate_velocities([row[2:] for row in rows])
    assert len(got[1]) == min(got[0], 16)
