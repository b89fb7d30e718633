"""Moving configurations: time slices, all-time hard-core verification,
and snapshot series for the emitters.

A configuration is a finite set of particles, each a position plus a
constant velocity. A MovingConfiguration holds them as a particles file
gives them, two array('d') of x1, x2 and of v1, v2 per particle, and reads
them in pure Python as four columns: it checks them, decides every pair by
the structural certificate (certify), measures its speeds and writes its
scene rows without numpy. Its (n, 2) float64 arrays P and V are views of
the same doubles, made with numpy only when read: by the pair engine, for
two rows or more the certificate does not decide, by evolve and by tests,
as a lattice.FlowAssignment makes its arrays from its two axes. Both are
read the same way, through len, row, decide, speed_range,
duplicate_velocities and particle_rows. Results are exact for the pairs
present; a finite window says nothing about particles outside it.
verify_hardcore asks the configuration for its decision over all pairs,
decide(). Every distance verdict, here and in cylinders, is one plain
distance >= bound on the doubles the decision gives, with no slack.
"""
from __future__ import annotations

import cmath
import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, count, islice, repeat
from operator import add, eq, gt, lt
from typing import TYPE_CHECKING

from . import formats
from .formats import _row_slices, fmt_float
from .geometry import (DEFAULT_THRESHOLD, IdenticalParticleError, PairScan,
                       Vec2, _dyadic, closest_approach, pair_count,
                       require_exhaustive, worldline_bound)

if TYPE_CHECKING:
    import numpy as np

# Index pairs duplicate_velocities lists; it counts every duplicate.
_DUPLICATE_PAIRS = 16


class BadRangeError(ValueError):
    """Raised for an empty or inverted snapshot time range."""


@dataclass(frozen=True, eq=False)
class MovingConfiguration:
    """Finite particle set, frozen.

    positions holds x1, x2 and velocities v1, v2 of each particle in turn,
    2n doubles each: an array('d'), as parse_particles returns it, is kept
    as given, and any other iterable of floats is copied into one. Treat
    their contents as read-only. Non-finite values and duplicate particles
    (same position and velocity) are rejected outright; spacing is
    measured by the verifiers.
    """

    positions: array
    velocities: array

    def __post_init__(self) -> None:
        for name in ("positions", "velocities"):
            values = getattr(self, name)
            if not (isinstance(values, array) and values.typecode == "d"):
                object.__setattr__(self, name, array("d", values))
        p, v = len(self.positions), len(self.velocities)
        if p != v or p % 2:
            raise ValueError(f"positions ({p} doubles) and velocities ({v} "
                             "doubles) must both be two doubles per particle")
        # A sum of doubles is finite only if every term is. One that
        # overflows sends the search through every row, which finds none.
        if not math.isfinite(sum(self.positions) + sum(self.velocities)):
            for k in range(len(self)):
                if not all(map(math.isfinite, self.row(k))):
                    raise ValueError(f"non-finite particle {k}: {self.row(k)}")
        # Particles at distinct positions are distinct; otherwise the first
        # particle that repeats an earlier one is named. The positions are
        # not kept: they would hold 64 bytes a row while evolve runs.
        if len(_positions(*self._columns[:2])) < len(self):
            first: dict = {}
            for k, particle in enumerate(zip(*self._columns)):
                if first.setdefault(particle, k) != k:
                    raise IdenticalParticleError(
                        f"duplicate particle at {self.row(k)}")

    @property
    def _columns(self):
        """x1, x2, v1, v2, each n doubles: strided views of the arrays."""
        p, v = memoryview(self.positions), memoryview(self.velocities)
        return p[0::2], p[1::2], v[0::2], v[1::2]

    def __len__(self) -> int:
        return len(self.positions) // 2

    def row(self, k: int) -> tuple[float, float, float, float]:
        """Particle k as (x1, x2, v1, v2)."""
        return (*self.positions[2 * k:2 * k + 2], *self.velocities[2 * k:2 * k + 2])

    @cached_property
    def P(self) -> np.ndarray:
        """Positions, a read-only (n, 2) float64 view of positions."""
        import numpy as np
        return np.frombuffer(memoryview(self.positions).toreadonly()).reshape(-1, 2)

    @cached_property
    def V(self) -> np.ndarray:
        """Velocities, a read-only (n, 2) float64 view of velocities."""
        import numpy as np
        return np.frombuffer(memoryview(self.velocities).toreadonly()).reshape(-1, 2)

    @cached_property
    def _lattice(self):
        """The structure certify rests on, or None when it is absent: V1
        (the column v2) a strictly decreasing function of x1 alone and V0
        (v1) a strictly increasing function of x2 alone, each with finite
        span, and any two distinct x1 values, and any two distinct x2
        values, at least 1 apart. Per axis, _axis's map from each key to
        its velocity component, and its keys with a key exactly 1 above."""
        if not len(self):
            return None
        x1, x2, v1, v2 = self._columns
        # Any subset of rows with the structure has it, so the first rows
        # go first: random rows are refused there, before a dict over
        # every row is built. Exporting 8,000 of them would otherwise take
        # about 110 bytes a row more at its peak than 2,000.
        for rows in (slice(_HEAD_ROWS), slice(None)):
            one = _axis(x1[rows], v2[rows], lt)
            two = None if one is None else _axis(x2[rows], v1[rows], gt)
            if two is None:
                return None
        return one, two

    def certify(self, worldline: bool = False) -> PairScan | None:
        """Decide every pair at once from the structure of a lattice flow,
        or return None when that structure is absent.

        The structure (_lattice) holds for the particles of a lattice flow,
        in any order and any subset: any two distinct x1 values, and any two
        distinct x2 values, are at least 1 apart; V0 is a strictly
        increasing function of x2 alone and V1 a strictly decreasing
        function of x1 alone. Since particles are distinct, so are their
        positions. A pair with offset d and velocity difference dv then has
        |d x dv| = |d1||dv1| + |d2||dv0| >= |dv0| + |dv1| >= |dv|, with
        equality exactly at unit axis pairs: one coordinate shared, the
        other exactly 1 apart. When such a pair exists the minimum closest
        approach over all pairs is exactly 1, and the witness is the
        smallest unit axis pair (i < j): the first row that has a unit axis
        neighbour, with its neighbour of smallest index.

        The structure also proves a flow's inequality chain. Its recovered
        field has W0 = -fl(V1 - a2) and W1 = fl(V0 - a1), and rounded
        subtraction is monotone, so W0 is a non-decreasing function of x1
        alone and W1 of x2 alone: <d, dW> = |d1||dW0| + |d2||dW1| >=
        |dW0| + |dW1| >= |dW|, with equality at unit axis pairs. Both chain
        margins are 0.

        With worldline, also the minimum distance between worldlines
        (x, 0) + t (v, 1). Their normal is (-dv1, dv0, v_i x dv) and
        |v_i x dv| <= S (|dv0| + |dv1|) with S = max_i max(|V_i0|, |V_i1|),
        so every worldline distance is at least 1/sqrt(1 + S^2). S is taken
        only over the kinds of pair that occur: with one x1 value every pair
        shares V1 (dv1 = 0), so |v_i x dv| = |V1| |dv0| and S = |V1|; with
        one x2 value, likewise S = max|V0|. A unit axis pair whose shared
        velocity component c has |c| = S attains the bound exactly, and
        only such pairs do. The smallest of them (i < j) is the witness,
        and line_distance is the largest double not above 1/sqrt(1 + S^2).
        A single column or row always has one. When no unit axis pair
        attains S the bound may not be the minimum, and the result is None.

        Every test compares the given doubles exactly: a coordinate gap
        that rounds to 1.0 is decided in integer arithmetic. Velocity spans
        must be finite, so the witness has a finite closest-approach time.
        The result has mode "exhaustive-structural" and counts every pair
        as checked. Pure Python: dicts over the distinct keys, and the
        positions as complex numbers for the witnesses (_unit_pair).
        """
        lattice = self._lattice
        if lattice is None:
            return None
        (v1_of_x1, above1), (v0_of_x2, above2) = lattice
        x1, x2 = self._columns[:2]
        witness = _unit_pair(x1, x2, above1, above2)
        if witness is None:
            return None
        line_distance = line_witness = None
        if worldline:
            s, line_distance = worldline_bound(v0_of_x2.values(), v1_of_x1.values())
            line_witness = _unit_pair(
                x1, x2, above1, above2,
                rows=[b for b, c in v0_of_x2.items() if abs(c) == s],
                columns=[a for a, c in v1_of_x1.items() if abs(c) == s])
            if line_witness is None:
                return None
        return PairScan.certified(len(self), witness, line_distance, line_witness)

    def decide(self, worldline: bool = False) -> PairScan:
        """Every pair's closest approach, and with worldline its worldline
        distance: the structural certificate's exact result (certify), else
        one engine pass over every pair, which past
        geometry.EXHAUSTIVE_LIMIT raises UndecidedError before the engine,
        or numpy, is loaded; fewer than two rows, PairScan.zero_pairs."""
        if len(self) < 2:
            return PairScan.zero_pairs(worldline)
        certified = self.certify(worldline)
        if certified is not None:
            return certified
        require_exhaustive(pair_count(len(self)))
        from ._pairscan import scan
        return scan(self.P, self.V, worldline=worldline)

    def speed_range(self) -> tuple[float, float]:
        """The smallest and largest speed, |v| by math.hypot (numpy's
        hypot need not match it to the last bit); at least one particle."""
        measured = array("d", map(math.hypot, *self._columns[2:]))
        return min(measured), max(measured)

    def duplicate_velocities(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """Equal velocities: (count, pairs). In the rows sorted by (v1, v2,
        index), -0.0 equal to 0.0, each two neighbours (i, j) with equal
        velocities are a duplicate, and pairs holds the first
        _DUPLICATE_PAIRS of them, sorted. None, (0, ()), with the
        structure certify checks, as in a flow, since equal velocities
        would force equal x1 and equal x2. cylinders asks after decide(),
        so other configurations have at most 4,472 rows to sort."""
        if self._lattice is not None:
            return 0, ()
        rows = sorted(zip(*self._columns[2:], count()))
        pairs = [(a[2], b[2]) for a, b in zip(rows, rows[1:]) if a[:2] == b[:2]]
        return len(pairs), tuple(sorted(pairs[:_DUPLICATE_PAIRS]))

    def particle_rows(self, radius: float):
        """The x1,x2,0,v1,v2,1,r rows of cylinders.export_scene, sorted by
        position (by x1, then x2, ties in input order): each particle's
        doubles, in the bytes the particles format writes
        (format(x, ".17g")), with the worldline's axis point (x, 0) and
        direction (v, 1). Yields at most formats._ROW_BLOCK rows at a time.

        With the structure certify checks, positions are distinct and each
        x1 column's rows, its x2 values sorted, go out by
        formats._column_rows, as a flow writes its rows. A zero is written
        with its own sign, which one text per key cannot hold when a
        column's zeros carry both signs. Such a configuration, and one
        without the structure, goes through the array emitter
        (formats._rows_text) from P and V, sorted by np.lexsort: its order
        takes 8 bytes a row, where sorting the rows in Python would take
        over 100, and only that order grows with n.
        """
        end = f",1,{fmt_float(radius)}\n"
        if not (self._lattice is not None
                and _zeros_of_one_sign(self.positions)
                and _zeros_of_one_sign(self.velocities)):
            return self._array_rows(end)
        (v1_of_x1, _), (v0_of_x2, _) = self._lattice
        middles = {b: f"{fmt_float(b)},0,{fmt_float(c)}" for b, c in v0_of_x2.items()}
        columns: dict = {a: [] for a in sorted(v1_of_x1)}
        for a, b in zip(*self._columns[:2]):
            columns[a].append(b)
        return formats._column_rows(
            ((a, v1_of_x1[a], [middles[b] for b in sorted(column)])
             for a, column in columns.items()), end)

    def _array_rows(self, end: str):
        """particle_rows from P and V, by the array emitter."""
        import numpy as np
        P, V = self.P, self.V
        order = np.lexsort((P[:, 1], P[:, 0]))
        # The rows are gathered a block at a time.
        for rows in _row_slices(len(self)):
            k = order[rows]
            p, v = P[k], V[k]
            yield from formats._rows_text(len(p), (
                p[:, 0], ",", p[:, 1], ",0,", v[:, 0], ",", v[:, 1], end))


# The rows that _lattice checks first.
_HEAD_ROWS = 64


def _positions(x1, x2) -> dict:
    """The distinct positions x1 + x2 j, as complex numbers, in the order
    of their first rows: the keys of a dict, which take about half the
    memory of a set's."""
    return dict.fromkeys(map(complex, x1, x2))


# The bits of -0.0, read as a signed 64-bit integer; those of 0.0 are 0.
_NEGATIVE_ZERO_BITS = -1 << 63


def _zeros_of_one_sign(values: array) -> bool:
    """Whether neither of the two columns interleaved in values holds both
    0.0 and -0.0, read off the doubles' bits."""
    bits = array("q")
    bits.frombytes(memoryview(values).cast("B"))
    return not any(column.count(0) and column.count(_NEGATIVE_ZERO_BITS)
                   for column in (bits[0::2], bits[1::2]))


def _axis(keys, values, across):
    """For one axis of a configuration, with key column keys and velocity
    component values: ({key: value}, [the keys with a key exactly 1 above
    them]), or None unless values is a function of keys, with finite span,
    related by across from each distinct key to the next larger one, and
    distinct keys are at least 1 apart. -0.0 and 0.0 are one key, as they
    compare equal.
    """
    of = dict(zip(keys, values))
    if not all(map(eq, map(of.__getitem__, keys), values)):
        return None
    ordered = sorted(of)
    steps = list(map(of.__getitem__, ordered))
    if not (all(map(across, steps[1:], steps)) and math.isfinite(steps[-1] - steps[0])):
        return None
    above = []
    for a, b in zip(ordered, ordered[1:]):
        gap = b - a
        if gap == 1.0:
            # The float difference rounds; decide it exactly on the integers
            # a = an/2^s, b = bn/2^s: b - a - 1 has the sign of over.
            (an, bn), s = _dyadic(a, b)
            over = bn - an - (1 << s)
            if over < 0:
                return None
            if over == 0:
                above.append(a)
        elif gap < 1.0:
            return None
    return of, above


def _shifts(step, keys, shared, only):
    """Each row's move to its neighbour one way: its key's value in step,
    or infinity where step lacks its key, or only (unless None) lacks its
    shared coordinate. No particle is at infinity."""
    shifts = map(step.get, keys, repeat(math.inf))
    if only is not None:
        shifts = map(add, shifts, map(only.get, shared, repeat(math.inf)))
    return shifts


def _first(flags, stop):
    """The index of the first true one of flags before stop, else stop."""
    return next(compress(count(), islice(flags, stop)), stop)


def _unit_pair(x1, x2, above1, above2, rows=None, columns=None):
    """The smallest pair (i < j) of rows that share one coordinate and lie
    exactly 1 apart in the other, or None. above1 and above2 hold the x1
    and x2 keys with a key exactly 1 above them. With rows, a pair 1 apart
    in x1 counts only when its shared x2 is in rows; with columns, a pair
    1 apart in x2 only when its shared x1 is in columns. The rows'
    positions are distinct.

    A key 1 above another is exactly the other plus 1, so a position's
    neighbours are itself plus or minus 1 and 1j, in floats. Each way, up
    and down each axis, is one pass in C over the rows, which stops at the
    first row it finds or at the row found so far:
    - The first row with any neighbour position is i if one of those
      positions is occupied, as in most flows: one scan of the rows finds
      the first row there, j, and no dict is built.
    - Else i is the first row with a neighbour position in a dict of all
      the rows' positions (_positions). An axis with no neighbour up from
      any row has none down either, and is passed once. j is the first
      row at one of i's neighbours.
    A neighbour before i would have been found first.
    """
    axes = []
    for unit, above, keys, shared, only in ((1.0, above1, x1, x2, rows),
                                            (1j, above2, x2, x1, columns)):
        only = None if only is None else dict.fromkeys(only, 0.0)
        axes.append([(dict.fromkeys(above, unit), keys, shared, only),
                     ({a + 1.0: -unit for a in above}, keys, shared, only)])
    moves = [move for up, down in axes for move in (up, down)]

    def first_at(k):
        """The first row at a neighbour of row k, or None."""
        row = complex(x1[k], x2[k])
        targets = {row + shift for step, keys, shared, only in moves
                   for shift in _shifts(step, (keys[k],), (shared[k],), only)
                   if cmath.isfinite(shift)}
        found = map(targets.__contains__, map(complex, x1, x2))
        return next(compress(count(), found), None)

    n = start = len(x1)
    for move in moves:
        start = _first(map(cmath.isfinite, _shifts(*move)), start)
    if start == n:
        return None
    j = first_at(start)
    if j is not None:
        return start, j
    table = _positions(x1, x2)
    i = n
    for up, down in axes:
        for step, keys, shared, only in (up, down) if up[0] else ():
            moved = map(add, table, _shifts(step, keys, shared, only))
            i = _first(map(table.__contains__, moved), i)
            if i == n:
                break
    return None if i == n else (i, first_at(i))


@dataclass(frozen=True)
class HardCoreReport:
    """Outcome of the all-time pairwise distance check.

    witness_time is None either when the witness pair keeps a constant
    distance (attained at all times) or when there is no pair at all.
    """

    particle_count: int
    passed_threshold: float = field(metadata={"key": "threshold"})
    min_alltime_distance: float
    witness_pair: tuple[int, int] | None
    witness_time: float | None
    margin: float
    pairs_total: int
    pairs_checked: int
    mode: str
    seed: None = field(default=None, init=False)  # no verdict rests on a sample
    passed: bool


def slice_at(config: MovingConfiguration, t: float) -> np.ndarray:
    """Positions x + t v(x) at one time, in input order, as an (n, 2) array."""
    if not math.isfinite(t):
        raise ValueError("slice time must be finite")
    return config.P + t * config.V


def verify_hardcore(config: MovingConfiguration,
                    threshold: float = DEFAULT_THRESHOLD) -> HardCoreReport:
    """All-time minimum pairwise distance versus a threshold.

    config.decide() decides every pair. For a MovingConfiguration that is
    the structural certificate for a configuration with the structure of a
    lattice flow, exactly, mode "exhaustive-structural", in pure Python;
    otherwise the pair engine (closed-form closest approach), mode
    "exhaustive", which past geometry.EXHAUSTIVE_LIMIT pairs raises
    UndecidedError. A lattice.FlowAssignment gives the certificate's result
    from its two axes. Neither builds arrays. The witness is the
    lexicographically smallest minimizing pair; only its two rows are read
    besides the decision.
    """
    if len(config) < 1:
        raise ValueError("configuration must contain at least one particle")
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
    scan = config.decide()
    witness_time: float | None = None
    if scan.witness is not None:
        p, q = (config.row(k) for k in scan.witness)
        witness_time = closest_approach(
            Vec2(*p[:2]), Vec2(*p[2:]), Vec2(*q[:2]), Vec2(*q[2:])).time_at_min
    return HardCoreReport(
        particle_count=len(config),
        min_alltime_distance=scan.min_distance,
        witness_pair=scan.witness,
        witness_time=witness_time,
        passed_threshold=threshold,
        margin=scan.min_distance - threshold,
        passed=scan.min_distance >= threshold,
        pairs_total=scan.pairs_total,
        pairs_checked=scan.pairs_checked,
        mode=scan.mode,
    )


def snapshot_series(config: MovingConfiguration, t0: float, t1: float,
                    frames: int):
    """Uniformly spaced slices (t, positions) on [t0, t1], endpoints included.

    The range is checked at once; each time and its slice are computed
    lazily, one per step of the returned iterator, so a large frames holds
    no list of times. frames=1 gives the single slice at t0.
    """
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise BadRangeError("time range must be finite")
    if t0 > t1:
        raise BadRangeError(f"inverted time range [{t0}, {t1}]")
    if frames < 1:
        raise BadRangeError(f"frames must be >= 1, got {frames}")
    # endpoints land exactly on t0, t1
    times = (t0,) if frames == 1 else (
        t0 * (1.0 - u) + t1 * u for u in (k / (frames - 1) for k in range(frames)))
    return ((t, slice_at(config, t)) for t in times)
