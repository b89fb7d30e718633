"""Planar and space-time vector kinematics.

Scalar building blocks for everything else in the package: the closest
point of approach for two linearly moving points, and the result of a
decision over every pair of a configuration. All arithmetic is IEEE double
precision, and nothing here needs numpy.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

# Scale-invariant degeneracy test for the parallel-line branch.
PARALLEL_EPS = 1e-12
# Absolute tolerance for ">=" verdicts on distances.
DISTANCE_TOL = 1e-9
# The falsifier's default seed, and so the CLI's --seed default.
DEFAULT_SEED = 0x5EED
# The positive normal doubles.
_NORMAL_MIN = sys.float_info.min
_NORMAL_MAX = sys.float_info.max


class GeometryError(ValueError):
    """Base class for geometric precondition failures."""


class IdenticalParticleError(GeometryError):
    """Raised when two particles share both position and velocity."""


class UndecidedError(Exception):
    """More than _pairscan.EXHAUSTIVE_LIMIT pairs: no pass, so no verdict.
    Not a ValueError, because the input is valid."""


@dataclass(frozen=True, slots=True)
class Vec2:
    """Planar vector; components must be finite."""

    x1: float
    x2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x1) and math.isfinite(self.x2)):
            raise ValueError(f"non-finite Vec2 component: ({self.x1}, {self.x2})")


@dataclass(frozen=True, slots=True)
class PairApproach:
    """Closest approach of one moving pair.

    ``time_at_min`` is None when the relative velocity is zero: the distance
    is then constant, attained at all times.
    """

    distance: float
    time_at_min: float | None


@dataclass(frozen=True)
class PairScan:
    """Result of one decision over every pair: a pass of the pair engine
    or a structural certificate. Worldline fields are None when that kernel
    was not requested; with no pairs, minima are inf."""

    pairs_total: int
    pairs_checked: int
    mode: str
    min_distance: float
    witness: tuple[int, int] | None
    line_distance: float | None = None
    line_witness: tuple[int, int] | None = None


def sub(u: Vec2, v: Vec2) -> Vec2:
    return Vec2(u.x1 - v.x1, u.x2 - v.x2)


def dot(u: Vec2, v: Vec2) -> float:
    return u.x1 * v.x1 + u.x2 * v.x2


def norm(u: Vec2) -> float:
    return math.hypot(u.x1, u.x2)


def closest_approach(x: Vec2, vx: Vec2, y: Vec2, vy: Vec2) -> PairApproach:
    """Closest approach of two points moving with constant velocities.

    Args:
        x, vx: initial position and velocity of the first point.
        y, vy: initial position and velocity of the second point.

    Returns:
        PairApproach with the infimum over all (signed) times of
        ``|(x + t vx) - (y + t vy)|`` and the minimizing time. Equal
        velocities give the constant separation and time_at_min None.

    Raises:
        IdenticalParticleError: if the points coincide and move identically.
    """
    dv = sub(vx, vy)
    dx = sub(x, y)
    if dv.x1 == 0.0 and dv.x2 == 0.0:
        if dx.x1 == 0.0 and dx.x2 == 0.0:
            raise IdenticalParticleError("coincident particles with equal velocities")
        return PairApproach(distance=norm(dx), time_at_min=None)
    # The offset's component across the relative velocity (dv turned a
    # quarter counterclockwise).
    distance = abs(dot(dx, Vec2(-dv.x2, dv.x1))) / norm(dv)
    speed2 = dot(dv, dv)
    if _NORMAL_MIN <= speed2 <= _NORMAL_MAX:
        time_at_min = -dot(dx, dv) / speed2
    else:
        # |dv|^2 underflows or overflows: project onto the unit direction.
        speed = norm(dv)
        time_at_min = -dot(dx, Vec2(dv.x1 / speed, dv.x2 / speed)) / speed
    return PairApproach(distance=distance, time_at_min=time_at_min)
