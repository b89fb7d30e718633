"""Monotone-profile velocity assignments on integer windows.

A bounded strictly increasing integer-to-real profile phi induces the field
w(x1, x2) = (phi(x1), phi(x2)) on lattice points. Rotating it a quarter turn
(v = -I w) and adding one common shift along the first axis yields bounded,
pairwise distinct velocities whose motions never come closer than unit
distance.

A flow is the profile's values on the window's two axes plus the shift.
Its particles are one configuration.MovingConfiguration, the product of
those axes, 2 (2N + 1) keys and velocity components for the square window
of size N: build_flow and verify_flow work on them in pure Python and load
no numpy. The configuration decides its pairs, worldlines included, by
the structural certificate (certify), which also proves the inequality
chain behind it, and measures its speeds and writes its rows from the
axes too. Its arrays P and V are built, with numpy, only when evolve
reads them.

The profile is evaluated once per integer of each axis. A table profile
holds its rows as one dict, so a window costs the same whatever the
table's length.
"""
from __future__ import annotations

import contextlib
import enum
import math
from array import array
from dataclasses import dataclass, field
from itertools import repeat
from operator import neg

from .configuration import MovingConfiguration
from .formats import UNREPORTED
from .geometry import DISK_RADIUS, Vec2


class ProfileKind(enum.Enum):
    ARCTAN = "arctan"
    TANH = "tanh"
    RATIONAL_SATURATING = "rational"
    TABLE_DRIVEN = "table"

# Largest window build_flow accepts, for every command. assign, verify and
# cylinders on a window hold only the two axes, a string or two per axis
# value and a block of text, and allocate no P or V. A particles file is
# held as its doubles, 32 bytes a particle, of which P and V are views:
# verify and cylinders on it add, while the constructor and the
# certificate run, its positions as complex numbers (about 70 bytes a
# particle), and evolve adds a few (n, 2) float64 arrays (slices) and, on
# a window, builds P and V, while text is parsed and emitted a block of
# rows at a time. Peak RSS grows by about 230 bytes per particle (evolve,
# the largest, measured at N = 100 and 200 from a window or a particles
# file, and at 100 and 400 from a file; verify and cylinders on a file
# about 130), so 2**22 particles, a square window up to N = 1023, stay
# near 1 GiB. Larger windows are refused before anything is allocated.
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
    table-driven profile; bound is the sup of |phi| over the domain. A
    table profile also holds its rows as one dict, built once here, which
    profile_eval reads.
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
            object.__setattr__(self, "_values", dict(self.table))
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
    # An empty table reaches MonotoneProfile's check on its rows.
    bound = max((abs(v) for _, v in table), default=0.0)
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


def profile_eval(phi: MonotoneProfile, n: int) -> float:
    """phi(n). A table profile looks n up in its dict, in O(1) time, and
    never extrapolates: OutOfDomainError for an integer it has no row
    for."""
    n = int(n)
    if phi.kind is ProfileKind.ARCTAN:
        return math.atan(n)
    if phi.kind is ProfileKind.TANH:
        return math.tanh(n)
    if phi.kind is ProfileKind.RATIONAL_SATURATING:
        return n / (1 + abs(n))
    if n not in phi._values:
        raise OutOfDomainError(f"table profile has no value for n={n}")
    return phi._values[n]


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


@dataclass(frozen=True)
class FlowAssignment:
    """A window's particles, held as the profile's values on the window's
    two axes and the common shift, with the declared bounds.

    Particle k = i * len(phi_y) + j, x-major (x1 outer, x2 inner), sits at
    (x_lo + i, y_lo + j) and moves with (phi_y[j] + shift.x1, -phi_x[i]).
    configuration is that set of particles, the product of the two axes
    (x1 with V1 = -phi_x, x2 with V0 = phi_y + shift.x1), which every
    verifier and emitter reads. ValueError unless the axes hold one value
    per integer of a window within 2**53, the shift lies along x1 and the
    product has the structure its decision rests on;
    NonMonotoneProfileError when phi_y + shift, in double precision, is
    not strictly increasing.
    """

    window: Window = field(metadata=UNREPORTED)
    phi_x: tuple[float, ...] = field(repr=False, metadata=UNREPORTED)
    phi_y: tuple[float, ...] = field(repr=False, metadata=UNREPORTED)
    shift: Vec2
    speed_min: float
    speed_max: float
    disk_radius: float = field(default=DISK_RADIUS, init=False)  # decides no verdict
    configuration: MovingConfiguration = field(
        init=False, repr=False, compare=False, metadata=UNREPORTED)

    def __post_init__(self) -> None:
        win, a = self.window, self.shift.x1
        v0 = [w2 + a for w2 in self.phi_y]
        configuration = None
        # Integer coordinates within 2**53 are distinct doubles 1 apart; the
        # configuration checks the rest of its structure.
        if (len(self.phi_x) == win.x_hi - win.x_lo + 1
                and len(v0) == win.y_hi - win.y_lo + 1
                and max(map(abs, (win.x_lo, win.x_hi, win.y_lo, win.y_hi))) <= 2 ** 53
                and self.shift.x2 == 0.0):
            for n, (cur, nxt) in enumerate(zip(v0, v0[1:]), win.y_lo):
                if not cur < nxt:  # NaN, which compares false, is refused too
                    raise NonMonotoneProfileError(
                        f"phi({n + 1}) + a = {nxt} does not increase past "
                        f"phi({n}) + a with shift a = {a}: the profile saturates "
                        "in double precision, so two velocities would coincide")
            with contextlib.suppress(ValueError):
                configuration = MovingConfiguration(axes=(
                    array("d", range(win.x_lo, win.x_hi + 1)),
                    array("d", range(win.y_lo, win.y_hi + 1)),
                    array("d", v0), array("d", map(neg, self.phi_x))))
        if configuration is None:
            raise ValueError("flow axes need one value per integer of the "
                             "window, within 2**53, a shift along x1, and "
                             "strictly increasing phi_x and phi_y + shift "
                             "with finite spans")
        object.__setattr__(self, "configuration", configuration)


def _profile_values(phi: MonotoneProfile, lo: int, hi: int) -> tuple[float, ...]:
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
    return tuple(values)


def build_flow(phi: MonotoneProfile, window: Window,
               shift_margin: float) -> FlowAssignment:
    """Velocities v(x) = -I w(x) + a on the window.

    The shift a points along the positive first axis with magnitude
    sup|w| + shift_margin, rounded up where rounding would take a speed
    below shift_margin, so every speed lands in
    [shift_margin, |a| + sup|w|]. shift_margin 0 is allowed: the relative
    velocities, and hence all closest approaches, do not depend on it.

    The profile is evaluated once per integer of each axis, and the flow
    holds those values; everything here is computed on the two axes, in
    pure Python. sup|w| is the largest math.hypot(phi(x1), phi(x2)) over
    the window's points. Raises NonMonotoneProfileError when phi is not
    strictly increasing on the window, or, from FlowAssignment, when phi
    shifted by a in double precision is not, and ValueError for windows of
    more than MAX_PARTICLES points, for coordinates beyond 2**53 (checked
    before the profile is evaluated) and for a speed bound a + sup|w| that
    overflows float64. So every flow it returns has a configuration, and
    finite speeds.
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
    # math.hypot reads only the magnitudes of its arguments.
    ys = set(map(abs, phi_y))
    sup_speed = max(max(map(math.hypot, repeat(w1), ys))
                    for w1 in set(map(abs, phi_x)))
    a = sup_speed + shift_margin
    # Every speed is at least its V0, but a rounded down can take the
    # smallest V0 below shift_margin (phi(y_lo) near -sup|w|): step a up.
    while phi_y[0] + a < shift_margin:
        a = math.nextafter(a, math.inf)
    # Bounds every V0 too: phi <= sup|w|, and rounding is monotone.
    speed_max = a + sup_speed
    if not math.isfinite(speed_max):
        raise ValueError(f"speed bound a + sup|w| with shift a = {a} overflows "
                         "float64: the profile values are too large")
    return FlowAssignment(
        window=window,
        phi_x=phi_x,
        phi_y=phi_y,
        shift=Vec2(a, 0.0),
        speed_min=float(shift_margin),
        speed_max=speed_max,
    )


@dataclass(frozen=True)
class FlowReport:
    """verify_flow outcome: distances, chain margins, injectivity, speeds."""

    particle_count: int
    min_distance: float
    witness_pair: tuple[int, int] | None
    chain_dot_margin: float
    chain_norm_margin: float
    # What the flow's structure proves (verify_flow).
    chain_failure_count: int = field(default=0, init=False)
    injective: bool = field(default=True, init=False)
    speed_measured_min: float
    speed_measured_max: float
    speed_declared_min: float
    speed_declared_max: float
    speeds_ok: bool
    pairs_total: int
    pairs_checked: int
    mode: str
    seed: None = field(default=None, init=False)  # no verdict rests on a sample
    passed: bool


def verify_flow(flow: FlowAssignment) -> FlowReport:
    """Check the unit-distance guarantee from the flow's two axes.

    The pairs are decided by the flow's configuration, the product of its
    axes, without building its rows: certify's exact result. The structure
    that result rests on proves the rest of the flow contract but speeds:
    the inequality chain, with both margins exactly 0 (see certify), and
    injective velocities, since equal velocities would force equal x1 and
    equal x2. One particle has no pair: chain margins inf.

    Speeds are measured by the configuration's speed_range(); passed
    states that they are finite and lie within the declared range,
    compared exactly.
    """
    configuration = flow.configuration
    scan = configuration.decide()
    margin = 0.0 if scan.pairs_total else math.inf
    measured_min, measured_max = configuration.speed_range()
    speeds_ok = bool(math.isfinite(measured_max)
                     and flow.speed_min <= measured_min
                     and measured_max <= flow.speed_max)

    return FlowReport(
        particle_count=len(configuration),
        pairs_total=scan.pairs_total,
        pairs_checked=scan.pairs_checked,
        mode=scan.mode,
        min_distance=scan.min_distance,
        witness_pair=scan.witness,
        chain_dot_margin=margin,
        chain_norm_margin=margin,
        speed_measured_min=measured_min,
        speed_measured_max=measured_max,
        speed_declared_min=flow.speed_min,
        speed_declared_max=flow.speed_max,
        speeds_ok=speeds_ok,
        passed=speeds_ok,
    )
