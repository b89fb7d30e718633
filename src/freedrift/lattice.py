"""Monotone-profile velocity assignments on integer windows.

A bounded strictly increasing integer-to-real profile phi induces the field
w(x1, x2) = (phi(x1), phi(x2)) on lattice points. Rotating it a quarter turn
(v = -I w) and adding one common shift along the first axis yields bounded,
pairwise distinct velocities whose motions never come closer than unit
distance; verify_flow checks that claim plus the inequality chain behind it.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _pairscan
from .evolution import MovingConfiguration, Particle
from .geometry import Vec2


class ProfileKind(enum.Enum):
    ARCTAN = "arctan"
    TANH = "tanh"
    RATIONAL_SATURATING = "rational"
    TABLE_DRIVEN = "table"

# Closest approaches are >= 1 for every flow built here; half of that,
# shrunk, is always a safe disk radius.
DISK_RADIUS = (1.0 - 1e-9) / 2.0
UNIT_GUARANTEE = 1.0
CHAIN_TOL = 1e-12
DISTANCE_TOL = 1e-9


class EmptyWindowError(ValueError):
    """Raised for windows containing no lattice points."""


class NonMonotoneProfileError(ValueError):
    """Raised when a profile fails strict monotonicity on the needed range."""


class OutOfDomainError(ValueError):
    """Raised when a table-driven profile lacks a requested integer."""


@dataclass(frozen=True)
class MonotoneProfile:
    """Bounded strictly increasing map from integers to reals.

    kind selects a built-in (arctan, tanh, rational n/(1+|n|)) or a
    table-driven profile; bound is the sup of |phi| over the domain.
    """

    kind: ProfileKind
    table: tuple[tuple[int, float], ...] | None = None
    bound: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.kind, ProfileKind):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if (self.kind is ProfileKind.TABLE_DRIVEN) != (self.table is not None):
            raise ValueError("table data is required exactly for table profiles")
        if self.table is not None:
            ns = [n for n, _ in self.table]
            vals = [v for _, v in self.table]
            if len(ns) < 2:
                raise ValueError("table profile needs at least two entries")
            if any(b <= a for a, b in zip(ns, ns[1:])):
                raise ValueError("table integers must be strictly increasing")
            if any(not math.isfinite(v) for v in vals):
                raise ValueError("table values must be finite")
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise NonMonotoneProfileError("table values must be strictly increasing")
        if not (math.isfinite(self.bound) and self.bound > 0):
            raise ValueError("profile bound must be finite and positive")


def arctan_profile() -> MonotoneProfile:
    return MonotoneProfile(ProfileKind.ARCTAN, bound=math.pi / 2)


def tanh_profile() -> MonotoneProfile:
    return MonotoneProfile(ProfileKind.TANH, bound=1.0)


def rational_profile() -> MonotoneProfile:
    """phi(n) = n / (1 + |n|), saturating at +-1."""
    return MonotoneProfile(ProfileKind.RATIONAL_SATURATING, bound=1.0)


def table_profile(pairs) -> MonotoneProfile:
    table = tuple((int(n), float(v)) for n, v in pairs)
    bound = max(abs(v) for _, v in table)
    return MonotoneProfile(ProfileKind.TABLE_DRIVEN, table=table, bound=bound)


def named_profile(name: str) -> MonotoneProfile:
    """Built-in profile by config name (arctan, tanh, rational)."""
    factories = {
        "arctan": arctan_profile,
        "tanh": tanh_profile,
        "rational": rational_profile,
    }
    if name not in factories:
        raise ValueError(f"unknown profile name {name!r}; "
                         f"expected one of {sorted(factories)} or a table file")
    return factories[name]()


@lru_cache(maxsize=64)
def _table_map(table):
    return dict(table)


def profile_eval(phi: MonotoneProfile, n: int) -> float:
    """phi(n). Table-driven profiles never extrapolate."""
    n = int(n)
    if phi.kind is ProfileKind.ARCTAN:
        return math.atan(n)
    if phi.kind is ProfileKind.TANH:
        return math.tanh(n)
    if phi.kind is ProfileKind.RATIONAL_SATURATING:
        return n / (1 + abs(n))
    values = _table_map(phi.table)
    if n not in values:
        raise OutOfDomainError(f"table profile has no value for n={n}")
    return values[n]


def assign_w(phi: MonotoneProfile, point: tuple[int, int]) -> Vec2:
    """Componentwise profile application w(x1, x2) = (phi(x1), phi(x2))."""
    return Vec2(profile_eval(phi, point[0]), profile_eval(phi, point[1]))


@dataclass(frozen=True)
class Window:
    """Inclusive integer rectangle."""

    x_lo: int
    x_hi: int
    y_lo: int
    y_hi: int

    def __post_init__(self) -> None:
        if self.x_lo > self.x_hi or self.y_lo > self.y_hi:
            raise EmptyWindowError(f"empty window {self}")

    @classmethod
    def square(cls, n: int) -> "Window":
        return cls(-n, n, -n, n)

    def points(self):
        for i in range(self.x_lo, self.x_hi + 1):
            for j in range(self.y_lo, self.y_hi + 1):
                yield (i, j)

    def count(self) -> int:
        return (self.x_hi - self.x_lo + 1) * (self.y_hi - self.y_lo + 1)


@dataclass(frozen=True)
class FlowAssignment:
    """A window's particles with their common shift and declared bounds."""

    particles: tuple[Particle, ...]
    shift: Vec2
    speed_min: float
    speed_max: float
    disk_radius: float

    def as_configuration(self) -> MovingConfiguration:
        return MovingConfiguration(self.particles, discreteness_radius=1.0)


def _check_monotone(phi: MonotoneProfile, lo: int, hi: int) -> None:
    prev = profile_eval(phi, lo)
    if abs(prev) > phi.bound + 1e-12:
        raise NonMonotoneProfileError(f"|phi({lo})| exceeds declared bound")
    for n in range(lo + 1, hi + 1):
        cur = profile_eval(phi, n)
        if cur <= prev:
            raise NonMonotoneProfileError(
                f"phi({n}) = {cur} does not increase past phi({n - 1}) = {prev}")
        if abs(cur) > phi.bound + 1e-12:
            raise NonMonotoneProfileError(f"|phi({n})| exceeds declared bound")
        prev = cur


def build_flow(phi: MonotoneProfile, window: Window,
               shift_margin: float) -> FlowAssignment:
    """Velocities v(x) = -I w(x) + a on the window.

    The shift a points along the positive first axis with magnitude
    sup|w| + shift_margin, so every speed lands in
    [shift_margin, |a| + sup|w|]. shift_margin 0 is allowed: the relative
    velocities, and hence all closest approaches, do not depend on it.
    """
    if not (math.isfinite(shift_margin) and shift_margin >= 0):
        raise ValueError("shift_margin must be finite and >= 0")
    _check_monotone(phi, window.x_lo, window.x_hi)
    _check_monotone(phi, window.y_lo, window.y_hi)

    points = list(window.points())
    w = [(profile_eval(phi, i), profile_eval(phi, j)) for i, j in points]
    sup_speed = max(math.hypot(w1, w2) for w1, w2 in w)
    a = sup_speed + shift_margin
    particles = tuple(
        Particle(Vec2(float(i), float(j)), Vec2(w2 + a, -w1))
        for (i, j), (w1, w2) in zip(points, w)
    )
    return FlowAssignment(
        particles=particles,
        shift=Vec2(a, 0.0),
        speed_min=float(shift_margin),
        speed_max=a + sup_speed,
        disk_radius=DISK_RADIUS,
    )


@dataclass(frozen=True)
class FlowReport:
    """verify_flow outcome: distances, chain margins, injectivity, speeds."""

    particle_count: int
    pairs_total: int
    pairs_checked: int
    mode: str
    seed: int | None
    min_distance: float
    witness_pair: tuple[int, int] | None
    chain_dot_margin: float
    chain_norm_margin: float
    chain_failures: tuple[tuple[int, int], ...]
    chain_failure_count: int
    injective: bool
    duplicate_velocity_pairs: tuple[tuple[int, int], ...]
    speed_measured_min: float
    speed_measured_max: float
    speed_declared_min: float
    speed_declared_max: float
    speeds_ok: bool
    passed: bool
    # The pass behind this report; verify_hardcore can reuse it.
    scan: _pairscan.PairScan = field(repr=False, compare=False)


def recovered_field(flow: FlowAssignment) -> np.ndarray:
    """w = I(v - a) per particle: undo the shift, rotate back."""
    V = np.array([(p.velocity.x1, p.velocity.x2) for p in flow.particles],
                 dtype=float).reshape(len(flow.particles), 2)
    vu = V - np.array([flow.shift.x1, flow.shift.x2])
    return np.column_stack((-vu[:, 1], vu[:, 0]))


def verify_flow(flow: FlowAssignment,
                sample_budget: int = _pairscan.DEFAULT_SAMPLE_BUDGET, *,
                seed: int = _pairscan.DEFAULT_SEED,
                exhaustive_limit: int = _pairscan.EXHAUSTIVE_LIMIT) -> FlowReport:
    """Check the unit-distance guarantee and the inequality chain behind it.

    Exhaustive over pairs up to exhaustive_limit, uniformly sampled (seeded)
    beyond it; the report records which. passed states the flow contract:
    closest approaches >= 1, chain margins >= -1e-12, injective velocities,
    speeds within the declared range.
    """
    n = len(flow.particles)
    if n < 1:
        raise ValueError("flow must contain at least one particle")
    P = np.array([(p.position.x1, p.position.x2) for p in flow.particles],
                 dtype=float).reshape(n, 2)
    V = np.array([(p.velocity.x1, p.velocity.x2) for p in flow.particles],
                 dtype=float).reshape(n, 2)
    W = recovered_field(flow)

    scan = _pairscan.scan(
        P, V, W, chain_tolerance=CHAIN_TOL, exhaustive_limit=exhaustive_limit,
        sample_budget=sample_budget, seed=seed)
    dup_count, dup_pairs = _pairscan.duplicate_rows(V)

    speeds = np.hypot(V[:, 0], V[:, 1])
    measured_min = float(speeds.min())
    measured_max = float(speeds.max())
    speeds_ok = (measured_min >= flow.speed_min - DISTANCE_TOL
                 and measured_max <= flow.speed_max + DISTANCE_TOL)

    distance_ok = scan.min_distance >= UNIT_GUARANTEE - DISTANCE_TOL
    chain_ok = (scan.dot_margin >= -CHAIN_TOL
                and scan.norm_margin >= -CHAIN_TOL)
    injective = dup_count == 0

    return FlowReport(
        particle_count=n,
        pairs_total=scan.pairs_total,
        pairs_checked=scan.pairs_checked,
        mode=scan.mode,
        seed=scan.seed,
        min_distance=scan.min_distance,
        witness_pair=scan.witness,
        chain_dot_margin=scan.dot_margin,
        chain_norm_margin=scan.norm_margin,
        chain_failures=scan.failures,
        chain_failure_count=scan.failure_count,
        injective=injective,
        duplicate_velocity_pairs=dup_pairs,
        speed_measured_min=measured_min,
        speed_measured_max=measured_max,
        speed_declared_min=flow.speed_min,
        speed_declared_max=flow.speed_max,
        speeds_ok=bool(speeds_ok),
        passed=bool(distance_ok and chain_ok and injective and speeds_ok),
        scan=scan,
    )
