"""The pair engine: one pass over the pairs of a particle configuration.

Shared by the flow, hard-core, and cylinder verifiers. `scan` evaluates
every requested kernel on the same pairs in a single pass: closest approach
always (every verdict rests on it) and worldline distance on request. A
command makes at most one pass: `cylinders` scans both kernels once, and
its hard-core gate reads the closest-approach minimum of that pass.

The pass walks tiles of about TILE_PAIRS pairs, a block of rows against a
block of columns, as broadcast differences of contiguous slices, so memory
stays bounded by the tile, whatever n. It is exhaustive: rows [a, b)
against the columns a+1 .. n-1, with the in-tile lower triangle masked out.
Beyond EXHAUSTIVE_LIMIT pairs it makes no pass and raises UndecidedError:
a verdict covers every pair or is not given.

Ties go to the lexicographically smallest pair. Tiles are row-major and
visited in increasing a, so the first minimum of a tile is its smallest
pair and a later tile replaces the running minimum only when strictly
smaller.

Every kernel value must be finite: a NaN or infinity (coordinates too large
for float64) raises ValueError naming the pair, never a silent verdict.

`certify` is the engine's shortcut for lattice flows. It checks, in
O(n log n), the structure under which every closest approach is at least 1
with equality exactly at unit axis pairs, and then reports the exact
minimum over all pairs without visiting them. On request it also gives the
exact worldline minimum 1/sqrt(1 + S^2), S the largest velocity component
in absolute value over the kinds of pair that occur, rounded down to a
double. A configuration held as arrays decides its pairs
(evolution.MovingConfiguration.decide) by the certificate, or by `scan`
when it returns None. A lattice flow decides its pairs without them
(lattice.FlowAssignment.decide): from its two axes it gives the result
that certify gives on its arrays, worldlines included.

PairScan and UndecidedError live in geometry, which loads no numpy.
"""
from __future__ import annotations

import math

import numpy as np

from .geometry import (PARALLEL_EPS, PairScan, UndecidedError,
                       _inverse_hypot_down)

EXHAUSTIVE_LIMIT = 10**7
# Pairs per exhaustive tile: big enough to amortize numpy call overhead,
# small enough that a tile's temporaries stay in cache.
TILE_PAIRS = 1 << 13
# Stands in for masked (non-)pairs: above every finite kernel value.
_MASKED = np.finfo(float).max
# Index pairs duplicate_rows lists; it counts every duplicate.
_DUPLICATE_PAIRS = 16


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def math_map(f, *columns: np.ndarray) -> np.ndarray:
    """f(a, b, ...) for each element of the float64 columns, as one `math`
    call each, into a float64 array.

    numpy's hypot, exp, cos and sin need not match `math`'s to the last
    bit, so the callers that must agree with a CPython float computation
    map `math` instead. A memoryview yields the elements as Python floats
    one at a time, so no list of them is built.
    """
    return np.fromiter(map(f, *map(memoryview, columns)), float,
                       len(columns[0]))


class _Tile:
    """Rows [a, b) against columns [c0, c1); entry (r, c) is the pair
    (a + r, c0 + c). A diagonal block, c0 = a + 1, holds a pair only where
    c >= r; lower, row-major lower-triangle indices of a square at least
    b - a wide, masks out the rest."""

    def __init__(self, a: int, b: int, c0: int, c1: int, lower=None):
        self.a = a
        self.c0 = c0
        self.cols = c1 - c0
        self.i = (slice(a, b), None)
        self.j = (None, slice(c0, c1))
        masked = (b - a) * (b - a - 1) // 2 if c0 == a + 1 else 0
        self.count = (b - a) * self.cols - masked
        self.lower = (lower[0][:masked], lower[1][:masked]) if masked else None

    def mask(self, x):
        if self.lower is not None:
            x[self.lower] = _MASKED

    def pair(self, k: int) -> tuple[int, int]:
        r, c = divmod(int(k), self.cols)
        return self.a + r, self.c0 + c


def _tiles(n: int):
    """Every pair: blocks of rows [a, b) against the columns a+1 .. n-1."""
    # rows <= min(cols, TILE_PAIRS // cols) <= isqrt(TILE_PAIRS); the lower
    # triangle of a smaller square is a prefix of this one, row-major.
    lower = np.tril_indices(math.isqrt(TILE_PAIRS) + 1, -1)
    a = 0
    while a < n - 1:
        rows = max(1, min(n - 1 - a, TILE_PAIRS // (n - 1 - a)))
        yield _Tile(a, a + rows, a + 1, n, lower)
        a += rows


def _closest(dx0, dx1, num, dv_norm):
    """Closest-approach distance |dx x dv| / |dv|; |dx| for static pairs."""
    out = num / dv_norm
    static = dv_norm == 0.0
    if static.any():
        out = np.where(static, np.hypot(dx0, dx1), out)
    return out


def _worldline(dx0, dx1, dv0, dv1, num, vi, vj, len_i, len_j):
    """Distance between worldlines (x_i + t v_i, t) and (x_j + t v_j, t).

    The direction cross product (v_i, 1) x (v_j, 1) is (-dv1, dv0, n3), so
    the skew distance is |dx x dv| / |cross|; parallel lines take the
    distance from x_j to the line of i. n3 = v_i x v_j is computed as
    v x dv with v the shorter of v_i, v_j (v_i x dv = v_j x dv exactly):
    for nearly equal velocities the products of v_i x v_j cancel and lose
    most of their digits, and against the longer velocity the rounding of
    dv can cancel them instead.
    """
    shorter = len_i <= len_j
    n3 = (np.where(shorter, vi[0], vj[0]) * dv1
          - np.where(shorter, vi[1], vj[1]) * dv0)
    cross_norm = np.sqrt(dv1 * dv1 + dv0 * dv0 + n3 * n3)
    out = num / cross_norm
    parallel = cross_norm < PARALLEL_EPS * len_i * len_j
    if parallel.any():
        c3 = dx0 * vi[1] - dx1 * vi[0]
        out = np.where(parallel, np.sqrt(dx1 * dx1 + dx0 * dx0 + c3 * c3) / len_i, out)
    return out


class _Min:
    """Running minimum of one kernel with its lexicographic witness."""

    def __init__(self, label: str):
        self.label = label
        self.value = math.inf
        self.pair: tuple[int, int] | None = None

    def offer(self, tile: _Tile, x) -> None:
        """Fold in one tile's values x. Tiles come in pair order, so a tie
        keeps the earlier pair."""
        tile.mask(x)
        k = int(np.argmin(x))
        value = float(x.flat[k])
        _require_finite(self.label, tile, x, value)
        if value < self.value:
            self.value = value
            self.pair = tile.pair(k)


def _require_finite(label: str, tile: _Tile, x, low: float) -> None:
    """Raise if x holds a NaN or infinity; low is its minimum."""
    if math.isfinite(low) and math.isfinite(x.max()):
        return
    k = int(np.flatnonzero(~np.isfinite(x))[0])
    i, j = tile.pair(k)
    raise ValueError(f"{label} of pair ({i}, {j}) is {float(x.flat[k])}; "
                     "the coordinates are too large for float64")


def _columns(A):
    return (np.ascontiguousarray(A[:, 0], dtype=float),
            np.ascontiguousarray(A[:, 1], dtype=float))


def scan(P, V, *, worldline: bool = False) -> PairScan:
    """One pass over every pair of positions P and velocities V, (n, 2) each.

    Always computes the minimum closest-approach distance. With worldline,
    also the minimum distance between worldlines (x, 0) + t (v, 1).

    Raises UndecidedError, before any work, if there are more than
    EXHAUSTIVE_LIMIT pairs, and ValueError naming the pair if any kernel
    value is NaN or infinite.
    """
    n = len(P)
    total = pair_count(n)
    if total > EXHAUSTIVE_LIMIT:
        raise UndecidedError(f"{total} pairs exceed the exhaustive limit of "
                             f"{EXHAUSTIVE_LIMIT}")
    px, py = _columns(P)
    vx, vy = _columns(V)
    closest = _Min("closest approach")
    line = _Min("worldline distance") if worldline else None
    checked = 0
    # Overflow shows up as a non-finite kernel value, which raises.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if line is not None:
            length = np.sqrt(1.0 + vx ** 2 + vy ** 2)
        for tile in _tiles(n):
            i, j = tile.i, tile.j
            checked += tile.count
            dx0 = px[j] - px[i]
            dx1 = py[j] - py[i]
            dv0 = vx[j] - vx[i]
            dv1 = vy[j] - vy[i]
            tile.mask(dv0)  # keeps non-pairs off the static, parallel branches
            num = np.abs(dx1 * dv0 - dx0 * dv1)
            closest.offer(tile, _closest(dx0, dx1, num, np.hypot(dv0, dv1)))
            if line is not None:
                line.offer(tile, _worldline(
                    dx0, dx1, dv0, dv1, num, (vx[i], vy[i]), (vx[j], vy[j]),
                    length[i], length[j]))
    return PairScan(
        pairs_total=total,
        pairs_checked=checked,
        mode="exhaustive",
        min_distance=closest.value,
        witness=closest.pair,
        line_distance=line.value if line is not None else None,
        line_witness=line.pair if line is not None else None,
    )


def certify(P, V, *, worldline: bool = False) -> PairScan | None:
    """Decide every pair at once from the structure of a lattice flow, or
    return None when that structure is absent.

    The structure, checked on positions P and velocities V (n, 2):
    positions are distinct; any two distinct x1 values, and any two
    distinct x2 values, are at least 1 apart; V0 is a strictly increasing
    function of x2 alone and V1 a strictly decreasing function of x1 alone.
    A pair with offset d and velocity difference dv then has
    |d x dv| = |d1||dv1| + |d2||dv0| >= |dv0| + |dv1| >= |dv|, with equality
    exactly at unit axis pairs: one coordinate shared, the other exactly 1
    apart. When such a pair exists the minimum closest approach over all
    pairs is exactly 1, and the witness is the smallest unit axis pair
    (i < j).

    The structure also proves a flow's inequality chain. Its recovered
    field has W0 = -fl(V1 - a2) and W1 = fl(V0 - a1), and rounded
    subtraction is monotone, so W0 is a non-decreasing function of x1 alone
    and W1 of x2 alone: <d, dW> = |d1||dW0| + |d2||dW1| >= |dW0| + |dW1|
    >= |dW|, with equality at unit axis pairs. Both chain margins are 0.

    With worldline, also the minimum distance between worldlines
    (x, 0) + t (v, 1). Their normal is (-dv1, dv0, v_i x dv) and
    |v_i x dv| <= S (|dv0| + |dv1|) with S = max_i max(|V_i0|, |V_i1|), so
    every worldline distance is at least 1/sqrt(1 + S^2). S is taken only
    over the kinds of pair that occur: with one x1 value every pair shares
    V1 (dv1 = 0), so |v_i x dv| = |V1| |dv0| and S = |V1|; with one x2
    value, likewise S = max|V0|. A unit axis pair whose shared velocity
    component c has |c| = S attains the bound exactly, and only such pairs
    do. The smallest of them (i < j) is the witness, and line_distance is
    the largest double not above 1/sqrt(1 + S^2). A single column or row
    always has one. When no unit axis pair attains S the bound may not be
    the minimum, and the result is None.

    Every test compares the given doubles exactly: a coordinate gap that
    rounds to 1.0 is decided in integer arithmetic. Velocity differences
    must be finite, so the witness has a finite closest-approach time. The
    result has mode "exhaustive-structural" and counts every pair as
    checked.
    """
    n = len(P)
    if n < 2:
        return None
    x1, x2 = _columns(P)
    v0, v1 = _columns(V)
    # Axis 1 sorts rows by (x1, x2), axis 2 by (x2, x1); along axis k, a
    # velocity component must be a function of x_k alone.
    one = _Axis(x1, x2, np.lexsort((x2, x1)))
    if one.unit is None or one.duplicate():
        return None
    # A stable sort on x2 of rows in (x1, x2) order leaves them in (x2, x1)
    # order, and costs far less than a second lexsort.
    two = _Axis(x2, x1, one.order[np.argsort(x2[one.order], kind="stable")])
    if (two.unit is None
            or not one.function(v1, np.less)
            or not two.function(v0, np.greater)
            # Finite velocity differences give the witness a finite time.
            or not all(math.isfinite(float(v.max()) - float(v.min())) for v in (v0, v1))):
        return None
    witness = _smallest(one.unit_pair(two), two.unit_pair(one))
    if witness is None:
        return None
    line_distance = line_witness = None
    if worldline:
        a0, a1 = np.abs(v0), np.abs(v1)
        # Pairs in one x1 column share V1, pairs in one x2 row share V0;
        # S is taken over the kinds of pair that occur.
        s = float(max(a0.max() if one.new.any() else 0.0,
                      a1.max() if two.new.any() else 0.0))
        line_witness = _smallest(one.unit_pair(two, a1 == s),
                                 two.unit_pair(one, a0 == s))
        if line_witness is None:
            return None
        line_distance = _inverse_hypot_down(s)
    total = pair_count(n)
    return PairScan(
        pairs_total=total,
        pairs_checked=total,
        mode="exhaustive-structural",
        min_distance=1.0,
        witness=witness,
        line_distance=line_distance,
        line_witness=line_witness,
    )


class _Axis:
    """Rows in (key, other) order, with the ranks of their key values."""

    def __init__(self, key, other, order):
        self.order = order
        self.other = other
        keys = key[self.order]
        # new[k]: sorted rows k and k+1 have different keys.
        self.new = keys[1:] != keys[:-1]
        self.unit = _unit_gaps(keys[:-1][self.new], keys[1:][self.new])
        ranks = np.empty(len(key), dtype=np.intp)
        ranks[self.order[0]] = 0
        ranks[self.order[1:]] = np.cumsum(self.new)
        self.rank = ranks

    def duplicate(self) -> bool:
        """Whether two rows share both coordinates."""
        others = self.other[self.order]
        return bool((~self.new & (others[1:] == others[:-1])).any())

    def function(self, values, across) -> bool:
        """Whether values are a function of the key alone, related by across
        from each key to the next."""
        s = values[self.order]
        return bool(np.where(self.new, across(s[1:], s[:-1]), s[1:] == s[:-1]).all())

    def unit_pair(self, cross: "_Axis", mask=None) -> tuple[int, int] | None:
        """The smallest pair (i < j) of rows that share this key and whose
        other coordinates are exactly 1 apart (cross sorts by them). With
        mask, one bool per row and a function of the key, only pairs of
        selected rows."""
        rows = self.order
        r = cross.rank[rows]
        step = np.flatnonzero(~self.new & (r[1:] == r[:-1] + 1))
        step = step[cross.unit[r[step]]]
        if mask is not None:
            step = step[mask[rows[step]]]
        if not step.size:
            return None
        a, b = rows[step], rows[step + 1]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        k = int(np.argmin(lo * len(rows) + hi))
        return int(lo[k]), int(hi[k])


def _smallest(*pairs):
    return min((p for p in pairs if p is not None), default=None)


def _unit_gaps(lo, hi):
    """For gaps hi - lo > 0 between sorted distinct values: whether each is
    exactly 1, or None if any is below 1."""
    gap = hi - lo
    if not (gap >= 1.0).all():
        return None
    unit = gap == 1.0
    tied = np.flatnonzero(unit)
    # The float difference rounds; decide these gaps exactly, on the
    # integer ratios a = an/ad, b = bn/bd: b - a - 1 has the sign of over.
    for k, a, b in zip(tied.tolist(), lo[tied].tolist(), hi[tied].tolist()):
        (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
        over = bn * ad - an * bd - ad * bd
        if over < 0:
            return None
        unit[k] = over == 0
    return unit


def duplicate_rows(A):
    """Exactly equal rows of an (n, 2) array.

    Returns (count, pairs) where pairs lists up to _DUPLICATE_PAIRS index
    pairs (i < j), each a duplicate adjacency in value-sorted order.
    """
    n = len(A)
    if n < 2:
        return 0, ()
    order = np.lexsort((A[:, 1], A[:, 0]))
    S = A[order]
    eq = np.flatnonzero((S[1:, 0] == S[:-1, 0]) & (S[1:, 1] == S[:-1, 1]))
    pairs = []
    for k in eq[:_DUPLICATE_PAIRS]:
        a, b = int(order[k]), int(order[k + 1])
        pairs.append((min(a, b), max(a, b)))
    return int(len(eq)), tuple(sorted(pairs))
