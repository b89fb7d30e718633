"""The pair engine: one pass over the pairs of a particle configuration.

Shared by the flow, hard-core, and cylinder verifiers. `scan` evaluates
every requested kernel on the same pairs in a single pass: closest approach
always (every verdict rests on it), the inequality chain when a field W is
given, and worldline distance on request. A command that needs the engine
makes one pass: `verify` scans closest approach plus chain once and hands
the result to both verifiers, `cylinders` scans closest approach plus
worldline distance once.

Up to a pair-count limit the pass is exhaustive. It walks upper-triangle
tiles of about TILE_PAIRS pairs: a block of rows [a, b) against the columns
a+1 .. n-1, as broadcast differences of contiguous slices, with the in-tile
lower triangle masked out. Memory stays bounded by the tile, whatever n.
Beyond the limit the pass draws pairs uniformly with a seeded generator in
fixed-size chunks and feeds them to the same kernels.

Ties go to the lexicographically smallest pair. Tiles are row-major and
visited in increasing a, so the first minimum of a tile is its smallest
pair and a later tile replaces the running minimum only when strictly
smaller. Drawn chunks have no order, so their ties are broken by pair.
Chain failures are kept in enumeration order (lexicographic when
exhaustive), the first max_failures of them.

Every kernel value must be finite: a NaN or infinity (coordinates too large
for float64) raises ValueError naming the pair, never a silent verdict.

`certify` is the engine's shortcut for lattice flows. It checks, in
O(n log n), the structure under which every closest approach is at least 1
with equality exactly at unit axis pairs, and then reports the exact
minimum over all pairs without visiting them. On request it also gives the
exact worldline minimum 1/sqrt(1 + S^2), S the largest velocity component
in absolute value, rounded down to a double. The flow, hard-core and scene
verifiers call it first and run `scan` only when it returns None.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CHAIN_TOL, PARALLEL_EPS

DEFAULT_SEED = 0x5EED
EXHAUSTIVE_LIMIT = 10**7
DEFAULT_SAMPLE_BUDGET = 10**6
# Pairs drawn per sampled chunk; part of the seeded stream, so fixed.
_CHUNK = 1 << 18
# Pairs per exhaustive tile: big enough to amortize numpy call overhead,
# small enough that a tile's temporaries stay in cache.
TILE_PAIRS = 1 << 13
# Stands in for masked (non-)pairs: above every finite kernel value.
_MASKED = np.finfo(float).max


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


class _Tile:
    """Rows [a, b) against columns a+1 .. n-1; entry (r, c) is the pair
    (a + r, a + 1 + c), valid when c >= r."""

    def __init__(self, a: int, b: int, n: int, lower):
        self.a = a
        self.cols = n - 1 - a
        self.i = (slice(a, b), None)
        self.j = (None, slice(a + 1, n))
        masked = (b - a) * (b - a - 1) // 2
        self.count = (b - a) * self.cols - masked
        self.lower = lower[0][:masked], lower[1][:masked]

    def mask(self, x):
        x[self.lower] = _MASKED

    def pair(self, k: int) -> tuple[int, int]:
        r, c = divmod(int(k), self.cols)
        return self.a + r, self.a + 1 + c

    def first(self, x, k: int) -> int:
        """Flat index of the smallest pair valued x[k], k the first such."""
        return k  # row-major order is lexicographic


def _tiles(n: int):
    # rows <= min(cols, TILE_PAIRS // cols) <= isqrt(TILE_PAIRS); the lower
    # triangle of a smaller square is a prefix of this one, row-major.
    lower = np.tril_indices(math.isqrt(TILE_PAIRS) + 1, -1)
    a = 0
    while a < n - 1:
        rows = max(1, min(n - 1 - a, TILE_PAIRS // (n - 1 - a)))
        yield _Tile(a, a + rows, n, lower)
        a += rows


class _Draw:
    """One chunk of sampled pairs ii[k] < jj[k], in draw order."""

    def __init__(self, ii, jj, n: int):
        self.i = ii
        self.j = jj
        self.n = n
        self.count = len(ii)

    def mask(self, x):
        pass

    def pair(self, k: int) -> tuple[int, int]:
        return int(self.i[k]), int(self.j[k])

    def first(self, x, k: int) -> int:
        """Index of the smallest pair valued x[k]."""
        tied = np.flatnonzero(x == x[k])
        return int(tied[np.argmin(self.i[tied] * self.n + self.j[tied])])


def _draws(n: int, budget: int, seed: int):
    rng = np.random.default_rng(seed)
    remaining = budget
    while remaining > 0:
        m = min(_CHUNK, remaining)
        ii = rng.integers(0, n, size=m)
        jj = rng.integers(0, n - 1, size=m)
        jj = np.where(jj >= ii, jj + 1, jj)  # uniform over the n-1 others
        yield _Draw(np.minimum(ii, jj), np.maximum(ii, jj), n)
        remaining -= m


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


def _chain(dx0, dx1, dw0, dw1):
    """Margins of <dx, dW> >= |dW1| + |dW2| and of |dW1| + |dW2| >= |dW|."""
    dot = dx0 * dw0 + dx1 * dw1
    l1 = np.abs(dw0) + np.abs(dw1)
    l2 = np.hypot(dw0, dw1)
    return dot - l1, l1 - l2


class _Min:
    """Running minimum of one kernel with its lexicographic witness."""

    def __init__(self, label: str):
        self.label = label
        self.value = math.inf
        self.pair: tuple[int, int] | None = None

    def offer(self, chunk, x) -> None:
        chunk.mask(x)
        k = int(np.argmin(x))
        _require_finite(self.label, chunk, x, x.flat[k])
        k = chunk.first(x, k)
        value = float(x.flat[k])
        pair = chunk.pair(k)
        if value < self.value or (value == self.value and pair < self.pair):
            self.value = value
            self.pair = pair


class _Chain:
    """Running chain margins and the first max_failures failing pairs."""

    def __init__(self, tolerance: float, max_failures: int):
        self.tolerance = tolerance
        self.max_failures = max_failures
        self.dot_margin = self.norm_margin = math.inf
        self.failures: list[tuple[int, int]] = []
        self.failure_count = 0

    def offer(self, chunk, m1, m2) -> None:
        chunk.mask(m1)
        chunk.mask(m2)
        low1, low2 = float(m1.min()), float(m2.min())
        _require_finite("chain dot margin", chunk, m1, low1)
        _require_finite("chain norm margin", chunk, m2, low2)
        self.dot_margin = min(self.dot_margin, low1)
        self.norm_margin = min(self.norm_margin, low2)
        if min(low1, low2) >= -self.tolerance:
            return
        bad = np.flatnonzero((m1 < -self.tolerance) | (m2 < -self.tolerance))
        self.failure_count += len(bad)
        room = max(0, self.max_failures - len(self.failures))
        self.failures.extend(chunk.pair(k) for k in bad[:room])


def _require_finite(label: str, chunk, x, low) -> None:
    """Raise if x holds a NaN or infinity; low is its minimum."""
    if math.isfinite(low) and math.isfinite(x.max()):
        return
    k = int(np.flatnonzero(~np.isfinite(x))[0])
    i, j = chunk.pair(k)
    raise ValueError(f"{label} of pair ({i}, {j}) is {float(x.flat[k])}; "
                     "the coordinates are too large for float64")


def _columns(A):
    return (np.ascontiguousarray(A[:, 0], dtype=float),
            np.ascontiguousarray(A[:, 1], dtype=float))


@dataclass(frozen=True)
class PairScan:
    """Result of one pass. Chain and worldline fields are None when the
    kernel was not requested; with no pairs, minima are inf."""

    pairs_total: int
    pairs_checked: int
    mode: str
    seed: int | None
    min_distance: float
    witness: tuple[int, int] | None
    line_distance: float | None = None
    line_witness: tuple[int, int] | None = None
    dot_margin: float | None = None
    norm_margin: float | None = None
    failures: tuple[tuple[int, int], ...] = ()
    failure_count: int = 0


def scan(P, V, W=None, *, worldline: bool = False,
         chain_tolerance: float = CHAIN_TOL,
         exhaustive_limit: int = EXHAUSTIVE_LIMIT,
         sample_budget: int = DEFAULT_SAMPLE_BUDGET,
         seed: int = DEFAULT_SEED, max_failures: int = 16) -> PairScan:
    """One pass over the pairs of positions P and velocities V, (n, 2) each.

    Always computes the minimum closest-approach distance. With a field W
    (n, 2), also the chain margins <x-y, dW> - (|dW1|+|dW2|) and
    (|dW1|+|dW2|) - |dW|, counting pairs below -chain_tolerance as failures
    (lattice points are at integer offsets, so each coordinate contributes
    at least its profile increment). With worldline, also the minimum
    distance between worldlines (x, 0) + t (v, 1).

    Raises ValueError naming the pair if any kernel value is NaN or infinite.
    """
    n = len(P)
    total = pair_count(n)
    exhaustive = total <= exhaustive_limit
    if total == 0:
        chunks = ()
    elif exhaustive:
        chunks = _tiles(n)
    else:
        chunks = _draws(n, sample_budget, seed)
    px, py = _columns(P)
    vx, vy = _columns(V)
    closest = _Min("closest approach")
    line = _Min("worldline distance") if worldline else None
    chain = _Chain(chain_tolerance, max_failures) if W is not None else None
    if chain is not None:
        wx, wy = _columns(W)
    checked = 0
    # Overflow shows up as a non-finite kernel value, which raises.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if line is not None:
            length = np.sqrt(1.0 + vx ** 2 + vy ** 2)
        for chunk in chunks:
            i, j = chunk.i, chunk.j
            checked += chunk.count
            dx0 = px[j] - px[i]
            dx1 = py[j] - py[i]
            dv0 = vx[j] - vx[i]
            dv1 = vy[j] - vy[i]
            chunk.mask(dv0)  # keeps non-pairs off the static, parallel branches
            num = np.abs(dx1 * dv0 - dx0 * dv1)
            closest.offer(chunk, _closest(dx0, dx1, num, np.hypot(dv0, dv1)))
            if line is not None:
                line.offer(chunk, _worldline(
                    dx0, dx1, dv0, dv1, num, (vx[i], vy[i]), (vx[j], vy[j]),
                    length[i], length[j]))
            if chain is not None:
                chain.offer(chunk, *_chain(dx0, dx1, wx[j] - wx[i], wy[j] - wy[i]))
    return PairScan(
        pairs_total=total,
        pairs_checked=checked,
        mode="exhaustive" if exhaustive else "sampled",
        seed=None if exhaustive else seed,
        min_distance=closest.value,
        witness=closest.pair,
        line_distance=line.value if line is not None else None,
        line_witness=line.pair if line is not None else None,
        dot_margin=chain.dot_margin if chain is not None else None,
        norm_margin=chain.norm_margin if chain is not None else None,
        failures=tuple(chain.failures) if chain is not None else (),
        failure_count=chain.failure_count if chain is not None else 0,
    )


def certify(P, V, W=None, *, worldline: bool = False) -> PairScan | None:
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
    (i < j). With a field W, W0 a non-decreasing function of x1 alone and
    W1 of x2 alone give <d, dW> = |d1||dW0| + |d2||dW1| >= |dW0| + |dW1|
    >= |dW|, so both chain margins have minimum exactly 0, at the same pair.

    With worldline, also the minimum distance between worldlines
    (x, 0) + t (v, 1). Their normal is (-dv1, dv0, v_i x dv) and
    |v_i x dv| <= S (|dv0| + |dv1|) with S = max_i max(|V_i0|, |V_i1|), so
    every worldline distance is at least 1/sqrt(1 + S^2). A unit axis pair
    whose shared velocity component c has |c| = S attains it exactly, and
    only such pairs do. The smallest of them (i < j) is the witness, and
    line_distance is the largest double not above 1/sqrt(1 + S^2). When no
    unit axis pair attains S the bound may not be the minimum, and the
    result is None.

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
    w0, w1 = _columns(W) if W is not None else (None, None)
    # Axis 1 sorts rows by (x1, x2), axis 2 by (x2, x1); along axis k, V and
    # W components must be functions of x_k alone.
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
            or not all(math.isfinite(float(v.max()) - float(v.min())) for v in (v0, v1))
            or (W is not None and not (one.function(w0, np.greater_equal)
                                       and two.function(w1, np.greater_equal)))):
        return None
    witness = _smallest(one.unit_pair(two), two.unit_pair(one))
    if witness is None:
        return None
    line_distance = line_witness = None
    if worldline:
        a0, a1 = np.abs(v0), np.abs(v1)
        s = float(max(a0.max(), a1.max()))
        # Pairs in one x1 column share V1, pairs in one x2 row share V0.
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
        seed=None,
        min_distance=1.0,
        witness=witness,
        line_distance=line_distance,
        line_witness=line_witness,
        dot_margin=0.0 if W is not None else None,
        norm_margin=0.0 if W is not None else None,
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


def _inverse_hypot_down(s: float) -> float:
    """The largest double not above 1/sqrt(1 + s^2), for finite s.

    Decided exactly on integer ratios: a double is a ratio of integers.
    """
    sn, sd = s.as_integer_ratio()

    def above(d: float) -> bool:
        """Whether d^2 (1 + s^2) > 1."""
        dn, dd = d.as_integer_ratio()
        return dn * dn * (sd * sd + sn * sn) > (dd * sd) ** 2

    d = 1.0 / math.hypot(1.0, s)
    while above(d):
        d = math.nextafter(d, 0.0)
    while not above(up := math.nextafter(d, math.inf)):
        d = up
    return d


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


def duplicate_rows(A, max_pairs: int = 16):
    """Exactly equal rows of an (n, 2) array.

    Returns (count, pairs) where pairs lists up to max_pairs index pairs
    (i < j), each a duplicate adjacency in value-sorted order.
    """
    n = len(A)
    if n < 2:
        return 0, ()
    order = np.lexsort((A[:, 1], A[:, 0]))
    S = A[order]
    eq = np.flatnonzero((S[1:, 0] == S[:-1, 0]) & (S[1:, 1] == S[:-1, 1]))
    pairs = []
    for k in eq[:max_pairs]:
        a, b = int(order[k]), int(order[k + 1])
        pairs.append((min(a, b), max(a, b)))
    return int(len(eq)), tuple(sorted(pairs))
