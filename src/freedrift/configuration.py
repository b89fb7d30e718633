"""Moving configurations: finite sets of particles, each a position and a
constant velocity, and the one decision over their pairs.

A MovingConfiguration's rows are either listed, as a particles file gives
them, or the full product of a lattice window's two axes, held as the axes
alone. Every exact verdict rests on one product structure, V0 a function
of x2 alone and V1 of x1 alone (_lattice), which certify, decide, the
worldline bound, duplicate_velocities and the row writer (particle_rows)
each read in one body. Only len, row, P and V, the witness pair,
speed_range and the zero-sign guard of the row writer depend on which
rows exist. P and V are made, with numpy, only when read: by the pair
engine, by evolve and by tests. Results are exact for the pairs present;
a finite window says nothing about particles outside it.
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
from .geometry import (IdenticalParticleError, PairScan, _dyadic, pair_count,
                       require_exhaustive, worldline_bound)

if TYPE_CHECKING:
    import numpy as np

# Index pairs duplicate_velocities lists; it counts every duplicate.
_DUPLICATE_PAIRS = 16


@dataclass(frozen=True, eq=False)
class MovingConfiguration:
    """Finite particle set, frozen.

    Listed rows: positions holds x1, x2 and velocities v1, v2 of each
    particle in turn, 2n doubles each: an array('d'), as parse_particles
    returns it, is kept as given, and any other iterable of floats is
    copied into one. Treat their contents as read-only. Non-finite values
    and duplicate particles (same position and velocity) are rejected
    outright; spacing is measured by the verifiers.

    A product: axes = (x1, x2, v1, v2), four array('d'): the x1 keys, the
    x2 keys, the v1 (V0) of each x2 key and the v2 (V1) of each x1 key, and
    no positions or velocities; row i len(x2) + j, x-major, is (x1[i],
    x2[j], v1[j], v2[i]). Each axis needs one velocity component per key,
    finite keys in increasing order, and the structure certify rests on,
    else ValueError.
    """

    positions: array | None = None
    velocities: array | None = None
    axes: tuple | None = field(default=None, kw_only=True, repr=False)

    def __post_init__(self) -> None:
        if self.axes is not None:
            x1, x2, v1, v2 = self.axes
            if not (self.positions is self.velocities is None and x1 and x2
                    and len(x1) == len(v2) and len(x2) == len(v1)
                    and all(map(lt, x1, x1[1:])) and all(map(lt, x2, x2[1:]))
                    and math.isfinite(x1[-1] - x1[0] + x2[-1] - x2[0])
                    and self._lattice is not None):
                raise ValueError("product axes need one velocity component per key, "
                                 "increasing finite keys and certify's structure")
            return
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
        """Listed rows' x1, x2, v1, v2, each n doubles: strided views of
        the arrays."""
        p, v = memoryview(self.positions), memoryview(self.velocities)
        return p[0::2], p[1::2], v[0::2], v[1::2]

    def __len__(self) -> int:
        if self.axes is None:
            return len(self.positions) // 2
        return len(self.axes[0]) * len(self.axes[1])

    def row(self, k: int) -> tuple[float, float, float, float]:
        """Particle k as (x1, x2, v1, v2); IndexError unless 0 <= k < n."""
        if not 0 <= k < len(self):
            raise IndexError(f"row {k} of a configuration of {len(self)} rows")
        if self.axes is None:
            return (*self.positions[2 * k:2 * k + 2], *self.velocities[2 * k:2 * k + 2])
        x1, x2, v1, v2 = self.axes
        i, j = divmod(k, len(x2))
        return x1[i], x2[j], v1[j], v2[i]

    @cached_property
    def P(self) -> np.ndarray:
        """Positions, an (n, 2) float64 array: a read-only view of listed
        positions, or a product's, built from its axes."""
        import numpy as np
        if self.axes is None:
            return np.frombuffer(memoryview(self.positions).toreadonly()).reshape(-1, 2)
        x1, x2 = self.axes[:2]
        return np.column_stack((np.repeat(x1, len(x2)), np.tile(x2, len(x1))))

    @cached_property
    def V(self) -> np.ndarray:
        """Velocities, an (n, 2) float64 array: a read-only view of listed
        velocities, or a product's, built from its axes."""
        import numpy as np
        if self.axes is None:
            return np.frombuffer(memoryview(self.velocities).toreadonly()).reshape(-1, 2)
        x1, x2, v1, v2 = self.axes
        return np.column_stack((np.tile(v1, len(x1)), np.repeat(v2, len(x2))))

    @cached_property
    def _lattice(self):
        """The structure certify rests on, or None when it is absent: V1
        (the column v2) a strictly decreasing function of x1 alone and V0
        (v1) a strictly increasing function of x2 alone, each with finite
        span, and any two distinct x1 values, and any two distinct x2
        values, at least 1 apart. Per axis, _axis's distinct keys, their
        velocity components and the keys with a key exactly 1 above. A
        product's axes are read as its columns."""
        if not len(self):
            return None
        x1, x2, v1, v2 = self._columns if self.axes is None else self.axes
        # Any subset of rows with the structure has it, so the first rows go
        # first: random rows are refused there, before a dict over every row
        # is built. Exporting 8,000 of them would otherwise take about 110
        # bytes a row more at its peak than 2,000.
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
        as checked. Pure Python, over the distinct keys of each axis.
        """
        lattice = self._lattice
        if lattice is None:
            return None
        (x1s, v2s, above1), (x2s, v1s, above2) = lattice
        # The smallest unit axis pair: in closed form for a product.
        pair = _unit_pair if self.axes is None else _product_pair
        x1, x2 = (self._columns if self.axes is None else self.axes)[:2]
        witness = pair(x1, x2, above1, above2)
        if witness is None:
            return None
        line_distance = line_witness = None
        if worldline:
            s, line_distance = worldline_bound(v1s, v2s)
            line_witness = pair(
                x1, x2, above1, above2,
                rows=[b for b, c in zip(x2s, v1s) if abs(c) == s],
                columns=[a for a, c in zip(x1s, v2s) if abs(c) == s])
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
        hypot need not match it to the last bit); at least one particle.
        Listed rows are measured row by row; a product one x1 column at a
        time, over the V0 axis, so memory stays O(side)."""
        if self.axes is None:
            measured = array("d", map(math.hypot, *self._columns[2:]))
            return min(measured), max(measured)
        v1, v2 = self.axes[2:]
        low, high = math.inf, -math.inf
        # math.hypot reads only the magnitudes of its arguments, so the
        # columns of x1 values with one |V1| measure the same speeds.
        for c in set(map(abs, v2)):
            column = list(map(math.hypot, v1, repeat(c)))
            low, high = min(low, min(column)), max(high, max(column))
        return low, high

    def duplicate_velocities(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """Equal velocities: (count, pairs). In the rows sorted by (v1, v2,
        index), -0.0 equal to 0.0, each two neighbours (i, j) with equal
        velocities are a duplicate, and pairs holds the first
        _DUPLICATE_PAIRS of them, sorted. None, (0, ()), with the
        structure certify checks, as in every product, since equal
        velocities would force equal x1 and equal x2. cylinders asks after
        decide(), so other configurations have at most 4,472 rows to sort."""
        if self._lattice is not None:
            return 0, ()
        rows = sorted(zip(*self._columns[2:], count()))
        pairs = [(a[2], b[2]) for a, b in zip(rows, rows[1:]) if a[:2] == b[:2]]
        return len(pairs), tuple(sorted(pairs[:_DUPLICATE_PAIRS]))

    def particle_rows(self, radius: float | None = None):
        """The x1,x2,v1,v2 rows of the particles format; given a radius,
        the x1,x2,0,v1,v2,1,r rows of cylinders.export_scene instead, the
        same doubles with the worldline's axis point (x, 0) and direction
        (v, 1). Each double in the bytes the particles format writes
        (format(x, ".17g")). Rows are sorted by position (by x1, then x2,
        ties in input order), which is a product's x-major order. Yields
        at most formats._ROW_BLOCK rows at a time.

        With the structure certify checks, positions are distinct and each
        x1 column's rows, its x2 values sorted, go out by
        formats._column_rows. A zero is written with its own sign, which
        one text per key cannot hold when listed rows' zeros carry both
        signs; a product's keys and values are each one double, so its
        zeros always can. Such listed rows, and rows without the structure,
        go through the array emitter (formats._rows_text) from P and V,
        sorted by np.lexsort: its order takes 8 bytes a row, where sorting
        the rows in Python would take over 100, and only that order grows
        with n.
        """
        sep, end = ((",", "\n") if radius is None
                    else (",0,", f",1,{fmt_float(radius)}\n"))
        if not (self._lattice is not None
                and (self.axes is not None
                     or (_zeros_of_one_sign(self.positions)
                         and _zeros_of_one_sign(self.velocities)))):
            return self._array_rows(sep, end)
        (x1s, v2s, _), (x2s, v1s, _) = self._lattice
        middles = [f"{fmt_float(b)}{sep}{fmt_float(c)}" for b, c in zip(x2s, v1s)]
        if self.axes is None:
            index, columns = dict(zip(x2s, middles)), {a: [] for a in x1s}
            for a, b in zip(*self._columns[:2]):
                columns[a].append(b)
            texts = ([index[b] for b in sorted(columns[a])] for a in x1s)
        else:
            texts = repeat(middles)
        return formats._column_rows(zip(x1s, v2s, texts), end)

    def _array_rows(self, sep: str, end: str):
        """particle_rows from P and V, by the array emitter."""
        import numpy as np
        P, V = self.P, self.V
        order = np.lexsort((P[:, 1], P[:, 0]))
        # The rows are gathered a block at a time.
        for rows in _row_slices(len(self)):
            k = order[rows]
            p, v = P[k], V[k]
            yield from formats._rows_text(len(p), (
                p[:, 0], ",", p[:, 1], sep, v[:, 0], ",", v[:, 1], end))


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
    component values: its distinct keys in increasing order, the value of
    each and the keys with a key exactly 1 above them, three array('d');
    or None unless values is a function of keys, with finite span,
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
    above = array("d")
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
    return array("d", ordered), array("d", steps), above


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


def _product_pair(x1, x2, above1, above2, rows=None, columns=None):
    """_unit_pair for the product of the increasing keys x1 and x2, x-major,
    in closed form. Keys at least 1 apart put a key's unit neighbour next
    to it: a pair 1 apart in x2 is rows (k, k + 1), one 1 apart in x1 rows
    (k, k + len(x2)). The smallest of each kind starts at the first key of
    each axis that qualifies, and above1, above2, rows and columns list
    their keys in increasing order."""
    ny = len(x2)
    pairs = []
    for step, wanted1, wanted2 in ((1, columns, above2), (ny, above1, rows)):
        wanted1, wanted2 = (keys if wanted is None else wanted
                            for wanted, keys in ((wanted1, x1), (wanted2, x2)))
        if wanted1 and wanted2:
            i, j = x1.index(wanted1[0]), x2.index(wanted2[0])
            pairs.append((i * ny + j, i * ny + j + step))
    return min(pairs, default=None)


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
