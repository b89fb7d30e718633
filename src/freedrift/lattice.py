"""Monotone-profile velocity assignments on integer windows.

A bounded strictly increasing integer-to-real profile phi induces the field
w(x1, x2) = (phi(x1), phi(x2)) on lattice points. Rotating it a quarter turn
(v = -I w) and adding one common shift along the first axis yields bounded,
pairwise distinct velocities whose motions never come closer than unit
distance.

A flow is the profile's values on the window's two axes plus the shift, so
build_flow and verify_flow work on 2 (2N + 1) doubles for the square window
of size N, in pure Python, and load no numpy: a flow decides its pairs
(FlowAssignment.decide), worldlines included, with the result that the
structural certificate gives on its arrays, which also proves the
inequality chain behind it. It measures its speeds and writes the rows of
its particles and cylinder-scene files from the axes too, in one row
generator that formats each axis value once: a scene row is a particles
row with the worldline's 0 and 1 and the radius added. The arrays P and V
are built, with numpy, only when a command reads them: evolve.

The profile is evaluated once per integer of each axis. A table profile
holds its rows as one dict, so a window costs the same whatever the
table's length.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import TYPE_CHECKING

from .evolution import DISK_RADIUS
from .formats import UNREPORTED, _row_slices, fmt_float
from .geometry import PairScan, Vec2, _inverse_hypot_down

if TYPE_CHECKING:
    import numpy as np


class ProfileKind(enum.Enum):
    ARCTAN = "arctan"
    TANH = "tanh"
    RATIONAL_SATURATING = "rational"
    TABLE_DRIVEN = "table"

# Largest window build_flow accepts, for every command. assign, verify and
# cylinders on a window hold only the two axes, a string or two per axis
# value and a block of text, and allocate no P or V. evolve, and every
# command on a particles file, read a configuration's arrays: a particle
# costs 32 bytes in P and V, and a command adds a few more (n, 2) float64
# arrays (slices, sort keys), while text is parsed and emitted a block of
# rows at a time. Peak RSS grows by about 230 bytes per particle (evolve,
# the largest, measured at N = 100 and 200, from a window or a particles
# file), so 2**22 particles, a square window up to N = 1023, stay near
# 1 GiB. Larger windows are refused before anything is allocated.
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
    Every verifier reads a flow as a configuration, through len, row,
    decide, speed_range and duplicate_velocities, and both emitters
    through particle_rows, all from the axes; P and V, (n, 2)
    float64 arrays, are built on first read. The axes must have the
    structure that decide rests on, else ValueError;
    NonMonotoneProfileError when phi_y + shift, in double precision, is
    not strictly increasing.
    """

    window: Window = field(metadata=UNREPORTED)
    phi_x: tuple[float, ...] = field(repr=False, metadata=UNREPORTED)
    phi_y: tuple[float, ...] = field(repr=False, metadata=UNREPORTED)
    shift: Vec2
    speed_min: float
    speed_max: float
    disk_radius: float

    def __post_init__(self) -> None:
        win, wx, v0 = self.window, self.phi_x, self._v0()
        # Integer coordinates within 2**53 are distinct doubles 1 apart;
        # strictly monotone finite velocity components do the rest.
        if not (len(wx) == win.x_hi - win.x_lo + 1
                and len(v0) == win.y_hi - win.y_lo + 1
                and max(map(abs, (win.x_lo, win.x_hi, win.y_lo, win.y_hi))) <= 2 ** 53
                and self.shift.x2 == 0.0
                and all(a < b for a, b in zip(wx, wx[1:]))
                and math.isfinite(wx[-1] - wx[0])
                and math.isfinite(v0[-1] - v0[0])):
            raise ValueError("flow axes need one value per integer of the "
                             "window, within 2**53, a shift along x1, and "
                             "strictly increasing phi_x and phi_y + shift "
                             "with finite spans")
        for n, (cur, nxt) in enumerate(zip(v0, v0[1:]), win.y_lo):
            if not cur < nxt:  # NaN, which compares false, is refused too
                raise NonMonotoneProfileError(
                    f"phi({n + 1}) + a = {nxt} does not increase past phi({n}) "
                    f"+ a with shift a = {self.shift.x1}: the profile saturates "
                    "in double precision, so two velocities would coincide")

    def _v0(self) -> list[float]:
        """V0 along the x2 axis: phi_y + shift.x1."""
        a = self.shift.x1
        return [w2 + a for w2 in self.phi_y]

    def __len__(self) -> int:
        return len(self.phi_x) * len(self.phi_y)

    def decide(self, worldline: bool = False) -> PairScan:
        """The result MovingConfiguration.decide gives on the flow's
        arrays, read off the structure the constructor checked: integer
        coordinates 1 apart, V0 = phi(x2) + a strictly increasing in x2
        alone, V1 = -phi(x1) strictly decreasing in x1 alone. Every pair is
        decided exactly, mode "exhaustive-structural", minimum exactly 1 at
        the smallest unit axis pair, which is (0, 1) in x-major order. One
        particle has no pair: the engine's zero-pair scan, mode
        "exhaustive", minima inf.

        With worldline, also certify's worldline minimum: S is the largest
        |V0| and |phi(x1)| over the kinds of pair that occur (a single
        column has only pairs sharing its V1, a single row only pairs
        sharing V0), line_distance the largest double not above
        1/sqrt(1 + S^2), and line_witness the smallest unit axis pair whose
        shared velocity component has magnitude S: (i ny, i ny + 1) in the
        first x1 column with |phi(x1)| = S, or (j, ny + j) in the first x2
        row with |V0| = S, ny = len(phi_y). Such a pair always exists, so
        no array is read."""
        n = len(self)
        total = n * (n - 1) // 2
        if not total:
            line = math.inf if worldline else None
            return PairScan(pairs_total=0, pairs_checked=0, mode="exhaustive",
                            min_distance=math.inf, witness=None,
                            line_distance=line)
        line_distance = line_witness = None
        if worldline:
            v0, nx, ny = self._v0(), len(self.phi_x), len(self.phi_y)
            # Pairs in one x1 column share V1, pairs in one x2 row share V0;
            # S is taken over the kinds of pair that occur.
            s = max(max(map(abs, v0)) if nx > 1 else 0.0,
                    max(map(abs, self.phi_x)) if ny > 1 else 0.0)
            line_witness = min(
                [(i * ny, i * ny + 1) for i, w1 in enumerate(self.phi_x)
                 if ny > 1 and abs(w1) == s]
                + [(j, ny + j) for j, a in enumerate(v0) if nx > 1 and abs(a) == s])
            line_distance = _inverse_hypot_down(s)
        return PairScan(pairs_total=total, pairs_checked=total,
                        mode="exhaustive-structural", min_distance=1.0,
                        witness=(0, 1), line_distance=line_distance,
                        line_witness=line_witness)

    def speed_range(self) -> tuple[float, float]:
        """The smallest and largest speed, measured by math.hypot on the
        doubles of V, as evolution.speeds measures them, one x1 column at a
        time, so memory stays O(side)."""
        v0 = self._v0()
        low, high = math.inf, -math.inf
        # math.hypot reads only the magnitudes of its arguments, so the
        # columns of x1 values with one |phi(x1)| measure the same speeds.
        for w1 in set(map(abs, self.phi_x)):
            column = list(map(math.hypot, v0, repeat(w1)))
            low = min(low, min(column))
            high = max(high, max(column))
        return low, high

    def duplicate_velocities(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """Equal velocities, as a MovingConfiguration counts them: none,
        (0, ()), by the structure the constructor checked, since equal
        velocities would force equal x1 and equal x2."""
        return 0, ()

    def particle_rows(self, radius: float | None = None):
        """The x1,x2,v1,v2 rows of every particle, x-major, in the bytes
        the particles format writes (format(x, ".17g")); given a radius,
        the x1,x2,0,v1,v2,1,r rows of cylinders.export_scene instead, the
        same doubles with the worldline's axis point (x, 0) and direction
        (v, 1). x-major order is already the order by axis point. Yields
        at most formats._ROW_BLOCK rows of one x1 column at a time. Each
        axis value is formatted once, and no row takes arithmetic."""
        sep, end = ((",", "\n") if radius is None
                    else (",0,", f",1,{fmt_float(radius)}\n"))
        y_lo = self.window.y_lo
        middles = [f"{fmt_float(float(y_lo + j))}{sep}{fmt_float(a)}"
                   for j, a in enumerate(self._v0())]
        for i, w1 in enumerate(self.phi_x):
            head = fmt_float(float(self.window.x_lo + i)) + ","
            tail = f",{fmt_float(-w1)}{end}"
            for rows in _row_slices(len(middles)):
                yield head + (tail + head).join(middles[rows]) + tail

    def row(self, k: int) -> tuple[float, float, float, float]:
        """Particle k as (x1, x2, v1, v2): the doubles of P[k] and V[k]."""
        i, j = divmod(k, len(self.phi_y))
        return (float(self.window.x_lo + i), float(self.window.y_lo + j),
                self.phi_y[j] + self.shift.x1, -self.phi_x[i])

    def _indices(self):
        """The axis indices (i, j) of every particle, as two int arrays."""
        import numpy as np
        nx, ny = len(self.phi_x), len(self.phi_y)
        return np.repeat(np.arange(nx), ny), np.tile(np.arange(ny), nx)

    @cached_property
    def P(self) -> np.ndarray:
        """Positions, an (n, 2) float64 array."""
        import numpy as np
        ix, iy = self._indices()
        P = np.empty((len(ix), 2))
        P[:, 0] = self.window.x_lo + ix
        P[:, 1] = self.window.y_lo + iy
        return P

    @cached_property
    def V(self) -> np.ndarray:
        """Velocities, an (n, 2) float64 array."""
        import numpy as np
        ix, iy = self._indices()
        V = np.empty((len(ix), 2))
        V[:, 0] = np.array(self.phi_y)[iy] + self.shift.x1
        V[:, 1] = -np.array(self.phi_x)[ix]
        return V


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
    overflows float64. So every flow it returns has the structure that
    FlowAssignment.decide rests on, and finite speeds.
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


def verify_flow(flow: FlowAssignment) -> FlowReport:
    """Check the unit-distance guarantee from the flow's two axes.

    The pairs are decided by flow.decide(): certify's result on the flow's
    arrays, without building them. The structure that result rests on
    proves the rest of the flow contract but speeds: the inequality chain,
    with both margins exactly 0 (see certify), and injective velocities,
    since equal velocities would force equal x1 and equal x2. One particle
    has no pair: chain margins inf.

    Speeds are measured by flow.speed_range(), as evolution.speeds
    measures them; passed states that they are finite and lie within the
    declared range, compared exactly.
    """
    scan = flow.decide()
    margin = 0.0 if scan.pairs_total else math.inf
    measured_min, measured_max = flow.speed_range()
    speeds_ok = bool(math.isfinite(measured_max)
                     and flow.speed_min <= measured_min
                     and measured_max <= flow.speed_max)

    return FlowReport(
        particle_count=len(flow),
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
    )
