"""The pair engine: one pass over the pairs of a particle configuration.

Shared by the hard-core and cylinder verifiers, for the configurations that
the structural certificate (configuration.MovingConfiguration.certify) does
not decide. `scan` evaluates every requested kernel on the same pairs in a
single pass: closest approach always (every verdict rests on it) and
worldline distance on request. A command makes at most one pass:
`cylinders` scans both kernels once, and its hard-core gate reads the
closest-approach minimum of that pass.

The pass walks tiles of about TILE_PAIRS pairs, a block of rows against a
block of columns, as broadcast differences of contiguous slices, so memory
stays bounded by the tile, whatever n. It is exhaustive: rows [a, b)
against the columns a+1 .. n-1, with the in-tile lower triangle masked out.
Beyond geometry.EXHAUSTIVE_LIMIT pairs it makes no pass and raises
UndecidedError: a verdict covers every pair or is not given.

Ties go to the lexicographically smallest pair. Tiles are row-major and
visited in increasing a, so the first minimum of a tile is its smallest
pair and a later tile replaces the running minimum only when strictly
smaller.

Every kernel value must be finite: a NaN or infinity (coordinates too large
for float64) raises ValueError naming the pair, never a silent verdict.

This module, and numpy with it, is loaded only when a pass runs. A
lattice flow, and a particles file with a flow's structure in any row
order, is decided without it.
"""
from __future__ import annotations

import math

import numpy as np

from .geometry import TINY_SPEED, PairScan, pair_count, require_exhaustive

# Pairs per exhaustive tile: big enough to amortize numpy call overhead,
# small enough that a tile's temporaries stay in cache.
TILE_PAIRS = 1 << 13
# Stands in for masked (non-)pairs: above every finite kernel value.
_MASKED = np.finfo(float).max


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
    it is zero exactly when dv = 0: those lines are parallel and take the
    distance from x_j to the line of i, and every other pair the skew
    distance |dx x dv| / |cross|. dv is at least TINY_SPEED long or scaled
    up (`_lift`), so its squares do not underflow. n3 = v_i x v_j is
    computed as v x dv with v the shorter of v_i, v_j (v_i x dv = v_j x dv
    exactly): for nearly equal velocities the products of v_i x v_j cancel
    and lose most of their digits, and against the longer velocity the
    rounding of dv can cancel them instead.
    """
    shorter = len_i <= len_j
    n3 = (np.where(shorter, vi[0], vj[0]) * dv1
          - np.where(shorter, vi[1], vj[1]) * dv0)
    out = num / np.sqrt(dv1 * dv1 + dv0 * dv0 + n3 * n3)
    parallel = (dv0 == 0.0) & (dv1 == 0.0)
    if parallel.any():
        c3 = dx0 * vi[1] - dx1 * vi[0]
        out = np.where(parallel, np.sqrt(dx1 * dx1 + dx0 * dx0 + c3 * c3) / len_i, out)
    return out


def _lift(dv0, dv1, dv_norm):
    """dv0, dv1 and dv_norm with each nonzero dv shorter than TINY_SPEED
    scaled by the power of two that brings its norm into [1/2, 1), exactly.
    """
    tiny = (dv_norm < TINY_SPEED) & (dv_norm > 0.0)
    if not tiny.any():
        return dv0, dv1, dv_norm
    shift = np.where(tiny, -np.frexp(dv_norm)[1], 0)
    dv0, dv1 = np.ldexp(dv0, shift), np.ldexp(dv1, shift)
    return dv0, dv1, np.hypot(dv0, dv1)


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
    geometry.EXHAUSTIVE_LIMIT pairs, and ValueError naming the pair if any
    kernel value is NaN or infinite.
    """
    n = len(P)
    total = pair_count(n)
    require_exhaustive(total)
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
            dv0, dv1, dv_norm = _lift(dv0, dv1, np.hypot(dv0, dv1))
            num = np.abs(dx1 * dv0 - dx0 * dv1)
            closest.offer(tile, _closest(dx0, dx1, num, dv_norm))
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

