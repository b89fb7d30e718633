"""Planar and space-time vector kinematics.

Scalar building blocks for everything else in the package: the quarter-turn
rotation, closest point of approach for two linearly moving points, the
separation margin of a velocity-field increment, and line-line distance in
three dimensions. All arithmetic is IEEE double precision.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

# Scale-invariant degeneracy test for the parallel-line branch.
PARALLEL_EPS = 1e-12
# Absolute tolerance for ">=" verdicts on distances.
DISTANCE_TOL = 1e-9
# Slack on the inequality chain margins before a pair counts as failing.
CHAIN_TOL = 1e-12
# The positive normal doubles.
_NORMAL_MIN = sys.float_info.min
_NORMAL_MAX = sys.float_info.max


class GeometryError(ValueError):
    """Base class for geometric precondition failures."""


class IdenticalParticleError(GeometryError):
    """Raised when two particles share both position and velocity."""


class DegenerateVelocityError(GeometryError):
    """Raised when a velocity-field increment is exactly zero."""


class ZeroDirectionError(GeometryError):
    """Raised when a line direction vector is zero."""


@dataclass(frozen=True, slots=True)
class Vec2:
    """Planar vector; components must be finite."""

    x1: float
    x2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x1) and math.isfinite(self.x2)):
            raise ValueError(f"non-finite Vec2 component: ({self.x1}, {self.x2})")


@dataclass(frozen=True, slots=True)
class Vec3:
    """Space-time vector; components must be finite."""

    x1: float
    x2: float
    x3: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x1) and math.isfinite(self.x2) and math.isfinite(self.x3)):
            raise ValueError(f"non-finite Vec3 component: ({self.x1}, {self.x2}, {self.x3})")


@dataclass(frozen=True, slots=True)
class PairApproach:
    """Closest approach of one moving pair.

    ``time_at_min`` is None when the relative velocity is zero: the distance
    is then constant, attained at all times.
    """

    distance: float
    time_at_min: float | None

    @property
    def at_all_times(self) -> bool:
        return self.time_at_min is None


def add(u: Vec2, v: Vec2) -> Vec2:
    return Vec2(u.x1 + v.x1, u.x2 + v.x2)


def sub(u: Vec2, v: Vec2) -> Vec2:
    return Vec2(u.x1 - v.x1, u.x2 - v.x2)


def dot(u: Vec2, v: Vec2) -> float:
    return u.x1 * v.x1 + u.x2 * v.x2


def norm(u: Vec2) -> float:
    return math.hypot(u.x1, u.x2)


def rotate_quarter(u: Vec2) -> Vec2:
    """Rotate a planar vector by a quarter turn counterclockwise.

    Applying it four times returns the argument; norms are preserved and the
    result is orthogonal to the argument.
    """
    return Vec2(-u.x2, u.x1)


def closest_approach(x: Vec2, vx: Vec2, y: Vec2, vy: Vec2) -> PairApproach:
    """Closest approach of two points moving with constant velocities.

    Args:
        x, vx: initial position and velocity of the first point.
        y, vy: initial position and velocity of the second point.

    Returns:
        PairApproach with the infimum over all (signed) times of
        ``|(x + t vx) - (y + t vy)|`` and the minimizing time. Equal
        velocities give the constant separation with the all-times marker.

    Raises:
        IdenticalParticleError: if the points coincide and move identically.
    """
    dv = sub(vx, vy)
    dx = sub(x, y)
    if dv.x1 == 0.0 and dv.x2 == 0.0:
        if dx.x1 == 0.0 and dx.x2 == 0.0:
            raise IdenticalParticleError("coincident particles with equal velocities")
        return PairApproach(distance=norm(dx), time_at_min=None)
    distance = abs(dot(dx, rotate_quarter(dv))) / norm(dv)
    speed2 = dot(dv, dv)
    if _NORMAL_MIN <= speed2 <= _NORMAL_MAX:
        time_at_min = -dot(dx, dv) / speed2
    else:
        # |dv|^2 underflows or overflows: project onto the unit direction.
        speed = norm(dv)
        time_at_min = -dot(dx, Vec2(dv.x1 / speed, dv.x2 / speed)) / speed
    return PairApproach(distance=distance, time_at_min=time_at_min)


def separation_margin(x: Vec2, y: Vec2, wx: Vec2, wy: Vec2) -> float:
    """Quotient |<x-y, wx-wy>| / |wx-wy| for one field increment.

    This equals the closest-approach distance of the pair when velocities are
    taken as the quarter-turn of the field values (v = -I w): rotating both
    the separation and the increment leaves the quotient unchanged.

    Raises:
        DegenerateVelocityError: if wx equals wy exactly.
    """
    dw = sub(wx, wy)
    if dw.x1 == 0.0 and dw.x2 == 0.0:
        raise DegenerateVelocityError("zero field increment")
    return abs(dot(sub(x, y), dw)) / norm(dw)


def _cross3(a: Vec3, b: Vec3) -> Vec3:
    return Vec3(
        a.x2 * b.x3 - a.x3 * b.x2,
        a.x3 * b.x1 - a.x1 * b.x3,
        a.x1 * b.x2 - a.x2 * b.x1,
    )


def _dot3(a: Vec3, b: Vec3) -> float:
    return a.x1 * b.x1 + a.x2 * b.x2 + a.x3 * b.x3


def _norm3(a: Vec3) -> float:
    return math.sqrt(a.x1 * a.x1 + a.x2 * a.x2 + a.x3 * a.x3)


def line_distance_3d(p1: Vec3, d1: Vec3, p2: Vec3, d2: Vec3) -> float:
    """Euclidean distance between the infinite lines p1 + t d1 and p2 + s d2.

    Nonparallel lines use the cross-product formula; the parallel branch
    (cross norm below PARALLEL_EPS times the product of direction norms)
    projects p2 - p1 off the shared direction. The normal d1 x d2 is
    computed as d1 x (d2 - d1), or as (d1 - d2) x d2 when d2 is shorter,
    both equal in exact arithmetic, so that nearly parallel directions do not
    cancel its large products to noise, and a much shorter direction is not
    rounded away in the difference.

    Raises:
        ZeroDirectionError: if either direction vector is zero.
    """
    n1 = _norm3(d1)
    n2 = _norm3(d2)
    if n1 == 0.0 or n2 == 0.0:
        raise ZeroDirectionError("line direction must be nonzero")
    if n1 <= n2:
        cross = _cross3(d1, Vec3(d2.x1 - d1.x1, d2.x2 - d1.x2, d2.x3 - d1.x3))
    else:
        cross = _cross3(Vec3(d1.x1 - d2.x1, d1.x2 - d2.x2, d1.x3 - d2.x3), d2)
    offset = Vec3(p2.x1 - p1.x1, p2.x2 - p1.x2, p2.x3 - p1.x3)
    cross_norm = _norm3(cross)
    if cross_norm < PARALLEL_EPS * n1 * n2:
        # Parallel: distance from p2 to the first line.
        return _norm3(_cross3(offset, d1)) / n1
    return abs(_dot3(offset, cross)) / cross_norm
