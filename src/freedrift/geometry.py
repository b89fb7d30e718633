"""Planar and space-time vector kinematics.

Scalar building blocks for everything else in the package: the closest
point of approach for two linearly moving points, the result of a decision
over every pair of a configuration, the limit past which no decision is
made, and the worldline bound that a lattice flow's structure proves: S,
the largest velocity component over the kinds of pair that occur, and
1/sqrt(1 + S^2) rounded down. All arithmetic is IEEE double precision, and
nothing here needs numpy.

Constants that several modules read are defined here, once each:
TINY_SPEED, EXHAUSTIVE_LIMIT, DISK_RADIUS, and DEFAULT_SEED,
DEFAULT_THRESHOLD and DEFAULT_BUDGET, the CLI's and the library's defaults.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

# A nonzero relative velocity shorter than this is scaled up by a power of
# two before the products of dx x dv, which would be subnormal and round
# off their digits (0.75 x 5e-324 reads 1e-323). Distances are ratios
# homogeneous in dv, so the scaling changes only their rounding.
TINY_SPEED = 2.0 ** -500
# The CLI's --seed default. No command reads the seed; falsify_report.txt
# records it.
DEFAULT_SEED = 0x5EED
# verify's default threshold, the unit separation of the paper's flows.
DEFAULT_THRESHOLD = 1.0
# The falsifier's default budget of field evaluations.
DEFAULT_BUDGET = 10 ** 6
# The radius of the disks that evolve draws and the assign report states:
# 5e-10 short of 1/2, since disks of radius 1/2 around particles exactly 1
# apart touch. It decides no verdict.
DISK_RADIUS = 0.4999999995
# The most pairs the engine visits one by one; a decision that needs more
# raises UndecidedError.
EXHAUSTIVE_LIMIT = 10**7
# The positive normal doubles.
_NORMAL_MIN = sys.float_info.min
_NORMAL_MAX = sys.float_info.max


class GeometryError(ValueError):
    """Base class for geometric precondition failures."""


class IdenticalParticleError(GeometryError):
    """Raised when two particles share both position and velocity."""


class UndecidedError(Exception):
    """More than EXHAUSTIVE_LIMIT pairs: no pass, so no verdict. Not a
    ValueError, because the input is valid."""


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

    @classmethod
    def zero_pairs(cls, worldline: bool) -> "PairScan":
        """The result over fewer than two particles, as the pair engine
        gives it: mode "exhaustive", no pair, minima inf."""
        return cls(pairs_total=0, pairs_checked=0, mode="exhaustive",
                   min_distance=math.inf, witness=None,
                   line_distance=math.inf if worldline else None)

    @classmethod
    def certified(cls, n: int, witness, line_distance, line_witness) -> "PairScan":
        """The structural certificate's result over n particles: every pair
        checked, mode "exhaustive-structural", minimum exactly 1 at witness."""
        total = pair_count(n)
        return cls(pairs_total=total, pairs_checked=total,
                   mode="exhaustive-structural", min_distance=1.0,
                   witness=witness, line_distance=line_distance,
                   line_witness=line_witness)


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def require_exhaustive(pairs: int) -> None:
    """Raise UndecidedError when pairs exceed EXHAUSTIVE_LIMIT."""
    if pairs > EXHAUSTIVE_LIMIT:
        raise UndecidedError(f"{pairs} pairs exceed the exhaustive limit of "
                             f"{EXHAUSTIVE_LIMIT}")


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
    speed = length = norm(dv)
    across = Vec2(-dv.x2, dv.x1)
    if speed < TINY_SPEED:
        e = -math.frexp(speed)[1]
        across = Vec2(math.ldexp(across.x1, e), math.ldexp(across.x2, e))
        length = norm(across)
    distance = abs(dot(dx, across)) / length
    speed2 = dot(dv, dv)
    if _NORMAL_MIN <= speed2 <= _NORMAL_MAX:
        time_at_min = -dot(dx, dv) / speed2
    else:
        # |dv|^2 underflows or overflows: project onto the unit direction.
        time_at_min = -dot(dx, Vec2(dv.x1 / speed, dv.x2 / speed)) / speed
    return PairApproach(distance=distance, time_at_min=time_at_min)


def worldline_bound(v0, v1) -> tuple[float, float]:
    """S, and the largest double not above 1/sqrt(1 + S^2): the minimum
    worldline distance that the structure of a lattice flow proves
    (configuration.MovingConfiguration.certify).

    v0 holds the V0 of each distinct x2 value and v1 the V1 of each
    distinct x1 value, of either sign. S is the largest of them in
    absolute value over the kinds of pair that occur: V0 counts only when
    there is more than one x1 value, and V1 only when there is more than
    one x2 value, since pairs in one x1 column share V1 and pairs in one
    x2 row share V0. At least one of v0 and v1 holds two values.
    """
    s = max(max(map(abs, v0)) if len(v1) > 1 else 0.0,
            max(map(abs, v1)) if len(v0) > 1 else 0.0)
    return s, _inverse_hypot_down(s)


def _inverse_hypot_down(s: float) -> float:
    """The largest double not above 1/sqrt(1 + s^2), for finite s.

    With 1 = a / 2^k and s = b / 2^k (_dyadic), that is a / sqrt(a^2 + b^2).
    Its floor in steps of 2^-1074, the doubles' finest, is the integer
    square root of the floored quotient a^2 4^1074 // (a^2 + b^2); cut to
    the 53 bits of a double, it stays a floor.
    """
    (a, b), _ = _dyadic(1.0, s)
    m = math.isqrt((a * a << 2 * 1074) // (a * a + b * b))
    cut = max(0, m.bit_length() - 53)
    return math.ldexp(m >> cut, cut - 1074)


def _dyadic(*values: float) -> tuple[list[int], int]:
    """Integers m and a shift s with values[i] == m[i] / 2**s exactly: a
    double is an integer over a power of two, so inequalities on doubles
    are decided exactly on these integers."""
    ratios = [v.as_integer_ratio() for v in values]
    s = max(q.bit_length() for _, q in ratios) - 1
    return [p << (s + 1 - q.bit_length()) for p, q in ratios], s
