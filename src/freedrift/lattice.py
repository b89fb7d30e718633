"""Monotone-profile velocity assignments on integer windows.

A bounded strictly increasing integer-to-real profile phi induces the field
w(x1, x2) = (phi(x1), phi(x2)) on lattice points. Rotating it a quarter turn
(v = -I w) and adding one common shift along the first axis yields bounded,
pairwise distinct velocities whose motions never come closer than unit
distance. verify_flow decides that claim by the structural certificate,
which also proves the inequality chain behind it.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _pairscan
from .evolution import DISK_RADIUS, MovingConfiguration, speeds
from .formats import UNREPORTED
from .geometry import Vec2


class ProfileKind(enum.Enum):
    ARCTAN = "arctan"
    TANH = "tanh"
    RATIONAL_SATURATING = "rational"
    TABLE_DRIVEN = "table"

# Largest window build_flow accepts. A particle costs 32 bytes in P and V;
# a command adds a few more (n, 2) float64 arrays (field, slices, sort
# keys), while text is parsed and emitted a block of rows at a time. Peak
# RSS grows by about 230 bytes per particle (evolve, the largest, measured
# at N = 100 and 200, from a window or a particles file), so 2**22
# particles, a square window up to N = 1023, stay near 1 GiB. Larger
# windows are refused before anything is allocated.
MAX_PARTICLES = 1 << 22


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

    def count(self) -> int:
        return (self.x_hi - self.x_lo + 1) * (self.y_hi - self.y_lo + 1)


@dataclass(frozen=True, eq=False)
class FlowAssignment(MovingConfiguration):
    """A window's particles, a configuration that every verifier reads as
    it is, with their common shift and declared bounds."""

    shift: Vec2
    speed_min: float
    speed_max: float
    disk_radius: float


def _profile_values(phi: MonotoneProfile, lo: int, hi: int) -> np.ndarray:
    """phi(lo), ..., phi(hi), checked strictly increasing and within bound."""
    values = [profile_eval(phi, n) for n in range(lo, hi + 1)]
    for k, cur in enumerate(values):
        n = lo + k
        if k and cur <= values[k - 1]:
            prev = values[k - 1]
            raise NonMonotoneProfileError(
                f"phi({n}) = {cur} does not increase past phi({n - 1}) = {prev}")
        if abs(cur) > phi.bound:
            raise NonMonotoneProfileError(f"|phi({n})| exceeds declared bound")
    return np.array(values)


def build_flow(phi: MonotoneProfile, window: Window,
               shift_margin: float) -> FlowAssignment:
    """Velocities v(x) = -I w(x) + a on the window.

    The shift a points along the positive first axis with magnitude
    sup|w| + shift_margin, rounded up where rounding would take a speed
    below shift_margin, so every speed lands in
    [shift_margin, |a| + sup|w|]. shift_margin 0 is allowed: the relative
    velocities, and hence all closest approaches, do not depend on it.

    The profile is evaluated once per integer of each axis; the points,
    x-major (x1 outer, x2 inner), gather their values by index. Raises
    NonMonotoneProfileError when phi, or phi shifted by a in double
    precision, is not strictly increasing on the window, and ValueError
    for windows of more than MAX_PARTICLES points, for coordinates beyond
    2**53 and for a speed bound a + sup|w| that overflows float64. So
    every flow it returns with two or more particles has the structure
    that verify_flow needs, and finite speeds. The flow is a
    MovingConfiguration, so its arrays are checked once, here.
    """
    if not (math.isfinite(shift_margin) and shift_margin >= 0):
        raise ValueError("shift_margin must be finite and >= 0")
    n = window.count()
    if n > MAX_PARTICLES:
        raise ValueError(f"window has {n} points, more than the limit of "
                         f"{MAX_PARTICLES} (lattice.MAX_PARTICLES)")
    # Positions are doubles: beyond 2**53, neighbouring integers merge.
    if max(map(abs, (window.x_lo, window.x_hi, window.y_lo, window.y_hi))) > 2 ** 53:
        raise ValueError(f"window {window} reaches beyond 2**53, where "
                         "neighbouring integers round to the same double")
    phi_x = _profile_values(phi, window.x_lo, window.x_hi)
    phi_y = _profile_values(phi, window.y_lo, window.y_hi)
    ix = np.repeat(np.arange(len(phi_x)), len(phi_y))
    iy = np.tile(np.arange(len(phi_y)), len(phi_x))
    w1, w2 = phi_x[ix], phi_y[iy]
    sup_speed = float(_pairscan.math_map(math.hypot, w1, w2).max())
    a = sup_speed + shift_margin
    # Every speed is at least its V0, but a rounded down can take the
    # smallest V0 below shift_margin (phi(y_lo) near -sup|w|): step a up.
    while float(phi_y[0]) + a < shift_margin:
        a = math.nextafter(a, math.inf)
    # Bounds every V0 too: phi <= sup|w|, and rounding is monotone.
    speed_max = a + sup_speed
    if not math.isfinite(speed_max):
        raise ValueError(f"speed bound a + sup|w| with shift a = {a} overflows "
                         "float64: the profile values are too large")
    shifted = phi_y + a
    merged = np.flatnonzero(shifted[1:] <= shifted[:-1])
    if merged.size:
        k = int(merged[0])
        n = window.y_lo + k
        raise NonMonotoneProfileError(
            f"phi({n + 1}) + a = {float(shifted[k + 1])} does not increase past "
            f"phi({n}) + a with shift a = {a}: the profile saturates in double "
            "precision, so two velocities would coincide")
    P = np.empty((n, 2))
    P[:, 0] = window.x_lo + ix
    P[:, 1] = window.y_lo + iy
    V = np.empty((n, 2))
    V[:, 0] = w2 + a
    V[:, 1] = -w1
    return FlowAssignment(
        P=P,
        V=V,
        shift=Vec2(a, 0.0),
        speed_min=float(shift_margin),
        speed_max=speed_max,
        disk_radius=DISK_RADIUS,
    )


@dataclass(frozen=True)
class FlowReport:
    """verify_flow outcome: distances, chain margins, injectivity, speeds."""

    particle_count: int
    min_distance: float
    witness_pair: tuple[int, int] | None
    chain_dot_margin: float
    chain_norm_margin: float
    chain_failure_count: int
    injective: bool
    speed_measured_min: float
    speed_measured_max: float
    speed_declared_min: float
    speed_declared_max: float
    speeds_ok: bool
    pairs_total: int
    pairs_checked: int
    mode: str
    seed: None  # no verdict rests on a sample; kept as the report's seed line
    passed: bool
    # The pass behind this report; verify_hardcore can reuse it.
    scan: _pairscan.PairScan = field(repr=False, compare=False, metadata=UNREPORTED)


def recovered_field(flow: FlowAssignment) -> np.ndarray:
    """w = I(v - a) per particle: undo the shift, rotate back."""
    vu = flow.V - np.array([flow.shift.x1, flow.shift.x2])
    return np.column_stack((-vu[:, 1], vu[:, 0]))


def verify_flow(flow: FlowAssignment) -> FlowReport:
    """Check the unit-distance guarantee by the structural certificate.

    _pairscan.certify decides every pair exactly at any window size: mode
    "exhaustive-structural", minimum exactly 1 at the smallest unit axis
    pair. Its hypotheses prove the rest of the flow contract but speeds:
    the inequality chain, with both margins exactly 0 (see certify), and
    injective velocities, since equal velocities would force equal x1 and
    equal x2. Flows from build_flow with two or more particles have that
    structure; any other flow of two or more particles raises ValueError,
    and evolution.verify_hardcore decides it with the pair engine. One
    particle has no pair: mode "exhaustive", minimum and chain margins inf.
    Speeds are measured by evolution.speeds, as in every verifier, and
    passed states that they are finite and lie within the declared range,
    compared exactly.
    """
    P, V = flow.P, flow.V
    n = len(P)
    if n < 1:
        raise ValueError("flow must contain at least one particle")
    scan = _pairscan.scan(P, V) if n == 1 else _pairscan.certify(P, V)
    if scan is None:
        raise ValueError("flow lacks the lattice structure that the certificate "
                         "decides; check its configuration with "
                         "evolution.verify_hardcore")
    margin = 0.0 if scan.pairs_total else math.inf

    measured = speeds(V)
    measured_min = float(measured.min())
    measured_max = float(measured.max())
    speeds_ok = bool(math.isfinite(measured_max)
                     and flow.speed_min <= measured_min
                     and measured_max <= flow.speed_max)

    return FlowReport(
        particle_count=n,
        pairs_total=scan.pairs_total,
        pairs_checked=scan.pairs_checked,
        mode=scan.mode,
        seed=None,
        min_distance=scan.min_distance,
        witness_pair=scan.witness,
        chain_dot_margin=margin,
        chain_norm_margin=margin,
        chain_failure_count=0,
        injective=True,
        speed_measured_min=measured_min,
        speed_measured_max=measured_max,
        speed_declared_min=flow.speed_min,
        speed_declared_max=flow.speed_max,
        speeds_ok=speeds_ok,
        passed=speeds_ok,
        scan=scan,
    )
