"""Unit and property tests for the planar kinematics core, and for the
scalar line distance oracle the worldline kernel is checked against."""
from __future__ import annotations

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

import oracles
from freedrift.geometry import (
    IdenticalParticleError,
    Vec2,
    closest_approach,
    norm,
)
from freedrift.lattice import Window, build_flow, tanh_profile
from oracles import line_distance_3d, rotate_quarter


def _v2(a, b):
    return Vec2(float(a), float(b))


# ---------------------------------------------------------------- rotate


@pytest.mark.parametrize(
    "u, expected",
    [
        ((1, 0), (0, 1)),
        ((0, 0), (0, 0)),
        ((3, -2), (2, 3)),
    ],
)
def test_rotate_quarter_examples(u, expected):
    r = rotate_quarter(_v2(*u))
    assert (r.x1, r.x2) == expected


def test_rotate_quarter_four_times_is_identity():
    rng = random.Random(7)
    for _ in range(100):
        u = _v2(rng.uniform(-10, 10), rng.uniform(-10, 10))
        r = u
        for _ in range(4):
            r = rotate_quarter(r)
        assert (r.x1, r.x2) == (u.x1, u.x2)


def test_rotate_quarter_preserves_norm_and_is_orthogonal():
    rng = random.Random(11)
    for _ in range(200):
        u = _v2(rng.uniform(-50, 50), rng.uniform(-50, 50))
        r = rotate_quarter(u)
        assert norm(r) == norm(u)
        assert u.x1 * r.x1 + u.x2 * r.x2 == 0.0


# ---------------------------------------------------------------- closest_approach


def test_static_pair_keeps_distance_at_all_times():
    pa = closest_approach(_v2(0, 0), _v2(0, 0), _v2(2, 0), _v2(0, 0))
    assert pa.distance == 2.0
    assert pa.time_at_min is None


def test_perpendicular_passing_pair():
    # Oracle (time-grid minimization): distance 2.0 at t = 0.0.
    pa = closest_approach(_v2(0, 0), _v2(1, 0), _v2(0, 2), _v2(-1, 0))
    assert pa.distance == pytest.approx(2.0, abs=1e-12)
    assert pa.time_at_min == pytest.approx(0.0, abs=1e-12)


def test_moving_point_passes_static_obstacle():
    # Oracle (time-grid minimization): distance 1.0 at t = 3.0.
    pa = closest_approach(_v2(0, 0), _v2(1, 0), _v2(3, 1), _v2(0, 0))
    assert pa.distance == pytest.approx(1.0, abs=1e-12)
    assert pa.time_at_min == pytest.approx(3.0, abs=1e-12)


def test_underflowing_relative_speed_keeps_a_finite_time():
    # |dv|^2 = 1e-340 underflows to 0; the time comes from the unit direction.
    pa = closest_approach(_v2(0, 0), _v2(1e-170, 0), _v2(0, 1), _v2(0, 0))
    assert pa.distance == 1.0
    assert pa.time_at_min == 0.0
    pa = closest_approach(_v2(0, 0), _v2(1e-170, 0), _v2(-3, 1), _v2(0, 0))
    assert pa.distance == 1.0
    assert pa.time_at_min == pytest.approx(-3e170, rel=1e-15)


def test_underflowing_relative_speed_with_numpy_floats():
    x, y, zero = (np.float64(v) for v in (0.0, 1.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning either
        pa = closest_approach(Vec2(zero, zero), Vec2(np.float64(1e-170), zero),
                              Vec2(x, y), Vec2(zero, zero))
    assert pa.distance == 1.0
    assert math.isfinite(pa.time_at_min) and pa.time_at_min == 0.0


def test_subnormal_relative_speed_gives_an_infinite_time_without_warning():
    # -1 / 2.2e-309 overflows: the closest approach lies infinitely far back.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pa = closest_approach(_v2(1e8, 0), _v2(0, 0),
                              _v2(1e8 + 1, 0), _v2(2.2250738585072014e-309, 0))
    assert pa.distance == 0.0
    assert pa.time_at_min == -math.inf


def test_overflowing_relative_speed_keeps_a_finite_time():
    # |dv|^2 = 1e400 overflows to inf, which left the time NaN.
    pa = closest_approach(_v2(0, 0), _v2(1e200, 0), _v2(-3e200, 1), _v2(0, 0))
    assert pa.distance == 1.0
    assert pa.time_at_min == -3.0


def test_identical_particles_rejected():
    with pytest.raises(IdenticalParticleError):
        closest_approach(_v2(1, 2), _v2(3, 4), _v2(1, 2), _v2(3, 4))


def test_equal_velocity_distinct_positions_is_legal():
    pa = closest_approach(_v2(0, 0), _v2(5, -1), _v2(0, 3), _v2(5, -1))
    assert pa.distance == 3.0
    assert pa.time_at_min is None


def _random_pair(rng):
    x = _v2(rng.uniform(-10, 10), rng.uniform(-10, 10))
    y = _v2(rng.uniform(-10, 10), rng.uniform(-10, 10))
    vx = _v2(rng.uniform(-3, 3), rng.uniform(-3, 3))
    vy = _v2(rng.uniform(-3, 3), rng.uniform(-3, 3))
    return x, vx, y, vy


def test_symmetry_is_exact():
    rng = random.Random(23)
    for _ in range(500):
        x, vx, y, vy = _random_pair(rng)
        a = closest_approach(x, vx, y, vy)
        b = closest_approach(y, vy, x, vx)
        assert a.distance == b.distance
        assert a.time_at_min == b.time_at_min


def test_galilean_invariance():
    rng = random.Random(29)
    for _ in range(500):
        x, vx, y, vy = _random_pair(rng)
        if (vx.x1, vx.x2) == (vy.x1, vy.x2):
            continue
        shift = _v2(rng.uniform(-20, 20), rng.uniform(-20, 20))
        base = closest_approach(x, vx, y, vy).distance
        moved = closest_approach(
            x, _v2(vx.x1 + shift.x1, vx.x2 + shift.x2),
            y, _v2(vy.x1 + shift.x1, vy.x2 + shift.x2),
        ).distance
        assert moved == pytest.approx(base, rel=1e-12, abs=1e-12)


def test_rotation_equivariance():
    rng = random.Random(31)
    for _ in range(300):
        x, vx, y, vy = _random_pair(rng)
        if (vx.x1, vx.x2) == (vy.x1, vy.x2):
            continue
        theta = rng.uniform(0, 2 * math.pi)
        c, s = math.cos(theta), math.sin(theta)

        def rot(u):
            return _v2(c * u.x1 - s * u.x2, s * u.x1 + c * u.x2)

        base = closest_approach(x, vx, y, vy).distance
        turned = closest_approach(rot(x), rot(vx), rot(y), rot(vy)).distance
        assert turned == pytest.approx(base, rel=1e-12, abs=1e-12)


def test_time_grid_oracle_agrees_with_closed_form():
    rng = random.Random(37)
    for _ in range(1000):
        x, vx, y, vy = _random_pair(rng)
        if (vx.x1, vx.x2) == (vy.x1, vy.x2):
            continue
        pa = closest_approach(x, vx, y, vy)
        grid_min, _ = oracles.time_grid_min_distance(
            (x.x1, x.x2), (vx.x1, vx.x2), (y.x1, y.x2), (vy.x1, vy.x2))
        # A sampled minimum can never undercut the true one.
        assert grid_min >= pa.distance - 1e-9
        assert grid_min == pytest.approx(pa.distance, abs=1e-6)


def test_grid_convergence_is_quadratic_near_minimum():
    rng = random.Random(41)
    checked = 0
    for _ in range(200):
        x, vx, y, vy = _random_pair(rng)
        if (vx.x1, vx.x2) == (vy.x1, vy.x2):
            continue
        pa = closest_approach(x, vx, y, vy)
        t0 = pa.time_at_min

        def grid_err(h):
            # Samples straddle the minimizer at offsets (k + 1/2) h.
            best = math.inf
            for k in range(-8, 8):
                t = t0 + (k + 0.5) * h
                d = math.hypot(
                    (x.x1 + t * vx.x1) - (y.x1 + t * vy.x1),
                    (x.x2 + t * vx.x2) - (y.x2 + t * vy.x2),
                )
                best = min(best, d)
            return best - pa.distance

        e1, e2 = grid_err(0.1), grid_err(0.05)
        if e2 < 1e-10 or pa.distance < 1e-6:
            continue
        checked += 1
        assert 2.5 < e1 / e2 < 5.5
    assert checked > 50


# ---------------------------------------------------------------- separation margin


def separation_margin(x, y, wx, wy):
    """|<x-y, wx-wy>| / |wx-wy| for one field increment."""
    dw = Vec2(wx.x1 - wy.x1, wx.x2 - wy.x2)
    return abs((x.x1 - y.x1) * dw.x1 + (x.x2 - y.x2) * dw.x2) / norm(dw)


def quarter_turned_approach(x, y, wx, wy):
    """Closest approach of the pair with velocities v = -I w = (w2, -w1)."""
    return closest_approach(x, _v2(wx.x2, -wx.x1), y, _v2(wy.x2, -wy.x1))


@pytest.mark.parametrize(
    "x, y, wx, wy, expected",
    [
        ((0, 0), (1, 0), (0, 0), (1, 0), 1.0),
        ((0, 0), (1, 0), (0, 0), (math.pi / 4, 0), 1.0),
        ((0, 0), (0, 3), (0, 1), (0, 0), 3.0),
    ],
)
def test_separation_margin_examples(x, y, wx, wy, expected):
    got = quarter_turned_approach(_v2(*x), _v2(*y), _v2(*wx), _v2(*wy))
    assert got.distance == pytest.approx(expected, rel=1e-12)


def test_separation_margin_matches_quarter_turned_motion():
    """The increment quotient is the closest approach under v = -I w."""
    rng = random.Random(43)
    for _ in range(500):
        x, wx, y, wy = _random_pair(rng)
        if (wx.x1, wx.x2) == (wy.x1, wy.x2):
            continue
        margin = separation_margin(x, y, wx, wy)
        assert quarter_turned_approach(x, y, wx, wy).distance == margin


# ---------------------------------------------------------------- line_distance_3d oracle


def _v3(a, b, c):
    return (float(a), float(b), float(c))


def test_parallel_vertical_lines():
    d = line_distance_3d(_v3(0, 0, 0), _v3(0, 0, 1), _v3(1, 0, 0), _v3(0, 0, 1))
    assert d == 1.0


def test_classic_skew_axes():
    d = line_distance_3d(_v3(0, 0, 0), _v3(1, 0, 0), _v3(0, 0, 1), _v3(0, 1, 0))
    assert d == 1.0


def test_chasing_pair_worldlines_meet():
    # x=(0,0) static, y=(1,0) moving with v=(1,0): y reaches the origin at
    # t=-1, so the two space-time lines intersect and the distance is 0.
    # Oracle (nested 2D grid minimization): 0.0.
    d = line_distance_3d(_v3(0, 0, 0), _v3(0, 0, 1), _v3(1, 0, 0), _v3(1, 0, 1))
    assert d == pytest.approx(0.0, abs=1e-12)


def test_skew_worldlines_of_sideways_mover():
    # x=(0,0) static, y=(1,0) with v=(0,1): oracle gives exactly 1.0.
    d = line_distance_3d(_v3(0, 0, 0), _v3(0, 0, 1), _v3(1, 0, 0), _v3(0, 1, 1))
    assert d == pytest.approx(1.0, rel=1e-12)


def test_generic_worldline_pair_frozen_oracle_value():
    # Oracle (nested 2D grid minimization): 0.7504170142107037.
    d = line_distance_3d(
        _v3(0, 0, 0), _v3(0.3, 0.1, 1), _v3(1.5, 0, 0), _v3(-0.2, 0.4, 1))
    assert d == pytest.approx(0.7504170142107037, abs=1e-9)


def test_zero_direction_rejected():
    with pytest.raises(ValueError):
        line_distance_3d(_v3(0, 0, 0), _v3(0, 0, 0), _v3(1, 0, 0), _v3(0, 0, 1))
    with pytest.raises(ValueError):
        line_distance_3d(_v3(0, 0, 0), _v3(0, 0, 1), _v3(1, 0, 0), _v3(0, 0, 0))


def test_line_distance_matches_grid_oracle_on_random_lines():
    rng = random.Random(47)
    for _ in range(50):
        p1 = (rng.uniform(-3, 3), rng.uniform(-3, 3), 0.0)
        p2 = (rng.uniform(-3, 3), rng.uniform(-3, 3), 0.0)
        d1 = (rng.uniform(-2, 2), rng.uniform(-2, 2), 1.0)
        d2 = (rng.uniform(-2, 2), rng.uniform(-2, 2), 1.0)
        closed = line_distance_3d(p1, d1, p2, d2)
        assert oracles.line_grid_min_distance(p1, d1, p2, d2) == pytest.approx(
            closed, abs=1e-6)


def test_nearly_parallel_worldlines_keep_their_digits():
    # Rows 260 and 299 of the tanh window-19 flow: neighbouring columns whose
    # velocities differ by about 6.5e-11. d1 x d2 taken directly cancels
    # products near 2.9 down to that size and gives 0.3245685681463485.
    flow = build_flow(tanh_profile(), Window.square(19), 0.5).configuration
    P, V = flow.P, flow.V
    i, j = 260, 299
    d = line_distance_3d(_v3(*P[i], 0), _v3(*V[i], 1), _v3(*P[j], 0), _v3(*V[j], 1))
    assert d == 0.32456874820913106
    exact_sq = oracles.exact_line_distance_sq(P, V, i, j)
    assert abs(Fraction(d) ** 2 / exact_sq - 1) <= Fraction(8, 2 ** 52)


@pytest.mark.parametrize("swap", [False, True])
def test_much_shorter_direction_is_not_rounded_away(swap):
    # The lines meet at (0, 1, 0). d2 - d1 rounds to -d1, so d1 x (d2 - d1)
    # would read 0 and take the parallel branch; the shorter d2 keeps it.
    lines = [(_v3(0, 0, 0), _v3(1, 1, 0)), (_v3(0, 1, 0), _v3(1e-20, 0, 0))]
    if swap:
        lines.reverse()
    assert line_distance_3d(*lines[0], *lines[1]) == 0.0


def test_nearly_parallel_lines_are_skew():
    # Directions 1e-15 apart: the lines meet at t = -2e15, and only lines
    # with equal directions take the parallel branch, which would read 2.
    d = line_distance_3d(
        _v3(0, 0, 0), _v3(0, 0, 1), _v3(2, 0, 0), _v3(1e-15, 0, 1))
    assert d == 0.0


# ---------------------------------------------------------------- finiteness


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_components_rejected(bad):
    with pytest.raises(ValueError):
        Vec2(bad, 0.0)
    with pytest.raises(ValueError):
        Vec2(0.0, bad)
