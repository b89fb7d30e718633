"""Independent brute-force oracles used to pin expected test values.

The grid oracles minimize on grids and refine; nothing reuses the closed
forms under test. Brackets are derived from norms (Cauchy-Schwarz bounds) or
grown until the minimizer stops landing on the boundary. The exact oracle
evaluates the squared worldline distance in rationals on the given doubles,
with no rounding at all, to decide last-bit questions. The falsifier
reference is the `Vec2` formulation of the search, kept to pin the float
search bit for bit; it decides its hits again in rationals
(`exact_violation`). The reference emitters format one row at a time with
str.format, as the emitters did before they formatted whole columns, and
pin the emitted bytes. The reference parser reads a particles file line by
line, as the parser did before it read plain rows a block at a time, and
pins its arrays and its errors. `line_distance_3d` is the scalar per-pair
form of the worldline kernel, itself checked against the grid and exact
oracles, and `read_scene` reads an exported scene back into arrays;
`exact_scene_overlaps` decides, in integers, which cylinders of a scene
overlap. `configuration` holds the rows of two (n, 2) arrays as a
MovingConfiguration.
`recovered_field` undoes a flow's shift and quarter turn, and
`exact_chain_failures` decides the inequality chain on it in rationals,
for the tests of the chain that the flow verifier proves without
computing it.
The cone and segment-chaining apparatus of the impossibility argument
(`Cone`, `chain_check`, `direction_capacity`), which no command runs, is
kept here for the criteria that check it; `chain_check` and
`violation_margin` evaluate fields point by point with
`reference_evaluate`. `parse_report` reads an emitted report back.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from freedrift.cylinders import SCENE_HEADER
from freedrift.configuration import MovingConfiguration
from freedrift.falsifier import (
    BUDGET_SPENT,
    PAIRS_TRIED,
    Exhausted,
    FieldKind,
    ViolationReport,
)
from freedrift.formats import PARTICLES_HEADER, REPORT_HEADER, ParseError, fmt_float
from freedrift.geometry import Vec2, dot, norm, sub


def time_grid_min_distance(x, vx, y, vy, levels: int = 28, points: int = 2001):
    """Grid-minimize |(x + t vx) - (y + t vy)| over t; returns (distance, t).

    The grid runs over s = t |vx-vy|, the distance moved along the unit
    direction u of vx-vy. The squared distance is a convex quadratic in s,
    so refining around the sampled argmin converges. The initial bracket
    |s| <= |x-y| + 1 contains the true minimizer for any nonzero relative
    velocity, and stays finite where |x-y| / |vx-vy| overflows (a
    subnormal relative velocity).
    """
    dx = np.array([x[0] - y[0], x[1] - y[1]], dtype=float)
    dv = np.array([vx[0] - vy[0], vx[1] - vy[1]], dtype=float)
    dv_norm = math.hypot(dv[0], dv[1])
    if dv_norm == 0.0:
        return math.hypot(dx[0], dx[1]), None
    # Scaled by its largest component first: a subnormal dv divided by its
    # own rounded norm is not a unit vector.
    u = dv / np.max(np.abs(dv))
    u /= math.hypot(u[0], u[1])
    half = math.hypot(dx[0], dx[1]) + 1.0
    center = 0.0
    best_d = math.inf
    best_s = 0.0
    for _ in range(levels):
        ss = np.linspace(center - half, center + half, points)
        d = np.hypot(dx[0] + ss * u[0], dx[1] + ss * u[1])
        k = int(np.argmin(d))
        if d[k] < best_d:
            best_d = float(d[k])
            best_s = float(ss[k])
        center = float(ss[k])
        # Keep a few cells of slack so the true argmin stays inside.
        half = 4.0 * (2.0 * half / (points - 1))
    return best_d, best_s / dv_norm


def line_grid_min_distance(p1, d1, p2, d2, half: float = 64.0,
                           levels: int = 30, points: int = 41,
                           inner_levels: int = 18, inner_points: int = 41):
    """Grid minimization of |(p1 + t d1) - (p2 + s d2)| over t and s.

    For each t, the distance h(t) from p1 + t d1 to the second line is
    minimized over s on nested grids from the bracket |s| <= |p1 + t d1 - p2|
    / |d2| + 1 (Cauchy-Schwarz). h is convex, being the partial minimum of
    a convex function, so nested grids on t converge too: they double the
    bracket whenever the argmin lands on its boundary, then refine. A joint
    grid on (t, s) does not: for nearly parallel lines its argmin stalls
    across the narrow valley of the distance, away from the minimum. Works
    for parallel lines too (h is then constant).
    """
    p1 = np.asarray(p1, dtype=float)
    d1 = np.asarray(d1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    d2_norm = math.sqrt(float(d2 @ d2))
    unit = np.linspace(-1.0, 1.0, inner_points)

    def to_second_line(ts):
        q = p1[None, :] + ts[:, None] * d1[None, :] - p2[None, :]
        rows = np.arange(len(ts))
        center = np.zeros(len(ts))
        spread = np.sqrt((q ** 2).sum(axis=1)) / d2_norm + 1.0
        best = np.full(len(ts), math.inf)
        for _ in range(inner_levels):
            ss = center[:, None] + spread[:, None] * unit[None, :]
            diff = q[:, None, :] - ss[:, :, None] * d2[None, None, :]
            dist = np.sqrt((diff ** 2).sum(axis=2))
            k = np.argmin(dist, axis=1)
            best = np.minimum(best, dist[rows, k])
            center = ss[rows, k]
            spread = spread * (8.0 / (inner_points - 1))
        return best

    center = 0.0
    best = math.inf
    for _ in range(levels):
        ts = np.linspace(center - half, center + half, points)
        h = to_second_line(ts)
        i = int(np.argmin(h))
        best = min(best, float(h[i]))
        center = float(ts[i])
        if i in (0, points - 1):
            half *= 2.0
        elif half < 1e-10 * (1.0 + abs(center)):
            break  # h is |d1|-Lipschitz: the bracket is fine enough
        else:
            half = 4.0 * (2.0 * half / (points - 1))
    return best


def exact_line_distance_sq(P, V, i, j) -> Fraction:
    """Exact squared distance between the worldlines (P[k], 0) + t (V[k], 1)
    of rows i and j, a ratio of integers on the given doubles.

    The directions a = (V[i], 1) and b = (V[j], 1) have the cross product
    (-dv1, dv0, a x dv), dv = V[j] - V[i], which is zero exactly when
    dv = 0. Then the lines are parallel, and the distance is the offset's
    (d, 0) from the line of i; otherwise it is the offset projected on
    that normal.
    """
    d0, d1 = (Fraction(float(P[j][k])) - Fraction(float(P[i][k])) for k in (0, 1))
    a0, a1, b0, b1 = (Fraction(float(x)) for x in (V[i][0], V[i][1], V[j][0], V[j][1]))
    dv0, dv1 = b0 - a0, b1 - a1
    if dv0 == dv1 == 0:
        # (d, 0) x (a, 1) over |(a, 1)|.
        cross = (d1, -d0, d0 * a1 - d1 * a0)
        return sum(c * c for c in cross) / (a0 * a0 + a1 * a1 + 1)
    n3 = a0 * dv1 - a1 * dv0
    return (d1 * dv0 - d0 * dv1) ** 2 / (dv0 * dv0 + dv1 * dv1 + n3 * n3)


def _cross3(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _norm3(a) -> float:
    return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])


def line_distance_3d(p1, d1, p2, d2) -> float:
    """Distance between the infinite lines p1 + t d1 and p2 + s d2, for
    3-tuples of floats, in scalar double arithmetic.

    The per-pair reference for the worldline kernel. Lines whose normal
    d1 x d2 is zero in floats are parallel: p2 - p1 projected off the
    shared direction. Every other pair uses the cross-product formula, with
    the normal's norm taken by hypot, so that a tiny normal does not
    underflow to 0. The normal is computed as d1 x (d2 - d1), or as
    (d1 - d2) x d2 when d2 is shorter, both equal in exact arithmetic, so
    that nearly parallel directions do not cancel its large products to
    noise, and a much shorter direction is not rounded away in the
    difference. Raises ValueError for a zero direction.
    """
    n1 = _norm3(d1)
    n2 = _norm3(d2)
    if n1 == 0.0 or n2 == 0.0:
        raise ValueError("line direction must be nonzero")
    if n1 <= n2:
        cross = _cross3(d1, (d2[0] - d1[0], d2[1] - d1[1], d2[2] - d1[2]))
    else:
        cross = _cross3((d1[0] - d2[0], d1[1] - d2[1], d1[2] - d2[2]), d2)
    offset = (p2[0] - p1[0], p2[1] - p1[1], p2[2] - p1[2])
    if cross == (0.0, 0.0, 0.0):
        # Parallel: distance from p2 to the first line.
        return _norm3(_cross3(offset, d1)) / n1
    return abs(offset[0] * cross[0] + offset[1] * cross[1]
               + offset[2] * cross[2]) / math.hypot(*cross)


def read_scene(text: str):
    """(bases, velocities, radii) arrays of a cylinder-scene text: the row
    px,py,pz,dx,dy,dz,r has base (px, py, pz), slope (dx/dz, dy/dz) and
    radius r."""
    header, *rows = text.splitlines()
    assert header == SCENE_HEADER, header
    A = np.array([row.split(",") for row in rows], dtype=float).reshape(-1, 7)
    return A[:, :3], A[:, 3:5] / A[:, 5:6], A[:, 6]


def recovered_field(V, shift) -> np.ndarray:
    """w = I(v - a) per velocity row of V of a lattice flow with shift a:
    undo the shift, rotate back."""
    vu = V - np.array([shift.x1, shift.x2])
    return np.column_stack((-vu[:, 1], vu[:, 0]))


def exact_chain_failures(P, V, shift) -> list[tuple[int, int]]:
    """The pairs (i, j), i < j, of the rows P, V of a lattice flow with
    shift a at which the chain <d, dW> >= |dW0| + |dW1| fails,
    d = P[j] - P[i] and dW = W[j] - W[i] with W = recovered_field(V, a),
    decided in rationals on the doubles."""
    W = [tuple(map(Fraction, w)) for w in recovered_field(V, shift).tolist()]
    P = [tuple(map(Fraction, p)) for p in P.tolist()]
    failures = []
    for i in range(len(P)):
        for j in range(i + 1, len(P)):
            d0, d1 = P[j][0] - P[i][0], P[j][1] - P[i][1]
            w0, w1 = W[j][0] - W[i][0], W[j][1] - W[i][1]
            if d0 * w0 + d1 * w1 < abs(w0) + abs(w1):
                failures.append((i, j))
    return failures


def rotate_quarter(u):
    """u turned a quarter counterclockwise, as `closest_approach` turns the
    relative velocity."""
    return Vec2(-u.x2, u.x1)


def parse_report(text: str) -> dict[str, str]:
    """The `key = value` lines of an emitted report, values as str."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != REPORT_HEADER:
        raise ParseError(1, f"expected header {REPORT_HEADER!r}")
    out = {}
    for ln, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(ln, "expected `key = value`")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def scalar_grid_min(m: float, lo: float = 0.0, hi: float = 1.0,
                    step: float = 1e-5):
    """Single fine-grid minimum of (1 - m*u)^2 + u^2; returns (value, argmin)."""
    us = np.arange(lo, hi + step, step)
    vals = (1.0 - m * us) ** 2 + us ** 2
    k = int(np.argmin(vals))
    return float(vals[k]), float(us[k])


def greedy_direction_packing(delta: float) -> int:
    """Greedily place directions on the circle with pairwise circular
    distance >= 2*delta; returns how many fit.

    Walks a fine angular grid and accepts every angle far enough (in circular
    metric) from all accepted ones. Independent of the floor(pi/delta)
    arithmetic it is checked against.
    """
    accepted: list[float] = []
    steps = 200000
    for k in range(steps):
        theta = 2.0 * math.pi * k / steps
        ok = True
        for a in accepted:
            d = abs(theta - a)
            circ = min(d, 2.0 * math.pi - d)
            if circ < 2.0 * delta:
                ok = False
                break
        if ok:
            accepted.append(theta)
    return len(accepted)


def direction_capacity(aperture_cos: float) -> int:
    """How many pairwise 2*arcsin(a)-separated directions fit on a circle."""
    if not 0.0 < aperture_cos < 1.0:
        raise ValueError("aperture cosine must lie in (0, 1)")
    return math.floor(math.pi / math.asin(aperture_cos))


class ZeroAxisError(ValueError):
    """Cone axis must be nonzero."""


class DegenerateSegmentError(ValueError):
    """Chain subdivision needs segment length > 1."""


@dataclass(frozen=True)
class Cone:
    """Closed convex cone {z : <axis, z> >= aperture_cos |axis| |z|}."""

    axis: Vec2
    aperture_cos: float

    def __post_init__(self):
        if self.axis.x1 == 0.0 and self.axis.x2 == 0.0:
            raise ZeroAxisError("cone axis must be nonzero")
        if not 0.0 < self.aperture_cos < 1.0:
            raise ValueError("aperture cosine must lie in (0, 1)")

    @property
    def half_angle(self) -> float:
        return math.asin(self.aperture_cos)


class ConeMembership(NamedTuple):
    margin: float
    member: bool


def cone_contains(cone: Cone, z) -> ConeMembership:
    """Membership with margin <u,z> - a|u||z|; zero is a member (margin 0)."""
    margin = dot(cone.axis, z) - cone.aperture_cos * norm(cone.axis) * norm(z)
    return ConeMembership(margin, margin >= 0.0)


def reference_evaluate(field, p):
    """Field value at p by the per-call kind dispatch on Vec2 points; the
    independent reference for the float kernels of `CandidateField`."""
    if field.kind is FieldKind.CONSTANT:
        return field.value
    if field.kind is FieldKind.SATURATED_RADIAL:
        u1, u2 = p.x1 / field.scale, p.x2 / field.scale
        f = field.bound / math.hypot(1.0, u1, u2)
        return Vec2(f * u1, f * u2)
    if field.kind is FieldKind.ROTATIONAL:
        f = field.bound / max(math.hypot(p.x1, p.x2), field.scale)
        return Vec2(-f * p.x2, f * p.x1)
    if field.kind is FieldKind.CLAMPED_LINEAR:
        f = field.bound / math.sqrt(2.0)
        c1 = min(1.0, max(-1.0, p.x1 / field.scale))
        c2 = min(1.0, max(-1.0, p.x2 / field.scale))
        return Vec2(f * c1, f * c2)
    rows = field.values
    ny, nx = len(rows), len(rows[0])
    u = (p.x1 - field.origin[0]) / field.spacing
    v = (p.x2 - field.origin[1]) / field.spacing
    u = min(max(u, 0.0), nx - 1.0)
    v = min(max(v, 0.0), ny - 1.0)
    i = min(int(u), nx - 2) if nx > 1 else 0
    j = min(int(v), ny - 2) if ny > 1 else 0
    fu = u - i
    fv = v - j
    i2 = min(i + 1, nx - 1)
    j2 = min(j + 1, ny - 1)
    w00, w10 = rows[j][i], rows[j][i2]
    w01, w11 = rows[j2][i], rows[j2][i2]
    a0 = (w00[0] * (1 - fu) + w10[0] * fu, w00[1] * (1 - fu) + w10[1] * fu)
    a1 = (w01[0] * (1 - fu) + w11[0] * fu, w01[1] * (1 - fu) + w11[1] * fu)
    return Vec2(a0[0] * (1 - fv) + a1[0] * fv,
                a0[1] * (1 - fv) + a1[1] * fv)


@dataclass(frozen=True)
class ChainCheckReport:
    """One run of the subdivision argument along [x, y]."""

    n: int
    step_length: float
    increment_margins: tuple[float, ...]
    increments_in_cone: bool
    sum_margin: float
    sum_in_cone: bool
    convexity_respected: bool


def chain_check(field, x, y, a: float) -> ChainCheckReport:
    """Subdivide [x, y] into n = ceil(L/2) steps of length in (1, 2] and
    test each increment w(z_i) - w(z_{i+1}), plus their telescoped total,
    against the cone around x - y. Convexity holds when some increment is
    outside the cone or the total misses it by at most 1e-12."""
    length = norm(sub(x, y))
    if not length > 1.0:
        raise DegenerateSegmentError(f"segment length {length} <= 1")
    n = math.ceil(length / 2.0)
    cone = Cone(sub(x, y), a)
    values = [reference_evaluate(field, Vec2(x.x1 + (i / n) * (y.x1 - x.x1),
                                             x.x2 + (i / n) * (y.x2 - x.x2)))
              for i in range(n + 1)]
    margins = tuple(cone_contains(cone, sub(values[i], values[i + 1])).margin
                    for i in range(n))
    total = cone_contains(cone, sub(values[0], values[n]))
    all_in = all(m >= 0.0 for m in margins)
    return ChainCheckReport(
        n=n, step_length=length / n, increment_margins=margins,
        increments_in_cone=all_in, sum_margin=total.margin,
        sum_in_cone=total.member,
        convexity_respected=not all_in or total.margin >= -1e-12)


def violation_margin(field, c: float, x, y) -> float:
    """c |dw| - |<x-y, dw>|, dw = w(x) - w(y): the margin falsify
    reports."""
    dw = sub(reference_evaluate(field, x), reference_evaluate(field, y))
    return c * norm(dw) - abs(dot(sub(x, y), dw))


class _ReferenceSearch:
    """Budgeted pair search on Vec2 points: `sub`, `dot`, `norm` and
    `reference_evaluate` for every pair."""

    def __init__(self, field, c, budget):
        self.field = field
        self.c = c
        self.budget = budget
        self.evals = 0
        self.best_margin = -math.inf
        self.best_pair = None
        # The signs of <x-y, dw> seen so far.
        self.signs = set()

    def out_of_budget(self):
        return self.evals + 2 > self.budget

    def try_pair(self, x, y):
        if self.out_of_budget():
            return None
        separation = norm(sub(x, y))
        if not separation > 1.0:
            return None
        wx = reference_evaluate(self.field, x)
        wy = reference_evaluate(self.field, y)
        self.evals += 2
        dw = sub(wx, wy)
        inner = dot(sub(x, y), dw)
        if inner > 0.0 or inner < 0.0:
            self.signs.add(inner > 0.0)
        margin = self.c * norm(dw) - abs(inner)
        if margin > self.best_margin:
            self.best_margin = margin
            self.best_pair = (x, y)
        if margin >= 0.0 and exact_violation(self.c, x, y, wx, wy):
            return (x, y, margin, inner, norm(dw), separation)
        return None


def exact_violation(c, x, y, wx, wy):
    """|x-y| > 1 and c |dw| >= |<x-y, dw>|, dw = wx - wy, in rationals on
    the given doubles."""
    d1, d2 = Fraction(x.x1) - Fraction(y.x1), Fraction(x.x2) - Fraction(y.x2)
    e1 = Fraction(wx.x1) - Fraction(wy.x1)
    e2 = Fraction(wx.x2) - Fraction(wy.x2)
    return (d1 * d1 + d2 * d2 > 1
            and Fraction(c) ** 2 * (e1 * e1 + e2 * e2) >= (d1 * e1 + d2 * e2) ** 2)


def _reference_probe_pairs():
    for radius in (2.0, 8.0, 32.0, 128.0, 512.0, 2048.0, 8192.0):
        for k in range(16):
            theta = 2.0 * math.pi * k / 16
            ux, uy = math.cos(theta), math.sin(theta)
            x = Vec2(radius * ux, radius * uy)
            yield x, Vec2(-radius * ux, -radius * uy)
            for gap in (1.25, 2.0):
                yield x, Vec2((radius + gap) * ux, (radius + gap) * uy)
            gap = 1.25
            for h in (0.5 * gap / radius, gap / radius, 2.0 * gap / radius):
                phi = theta + h / radius
                yield x, Vec2((radius + gap) * math.cos(phi),
                              (radius + gap) * math.sin(phi))


def _reference_length_scale(field):
    """The field's scale, or for a grid max(|o1|, |o2|, spacing max(nx, ny))."""
    if field.kind is not FieldKind.SAMPLED_GRID:
        return field.scale
    ny, nx = len(field.values), len(field.values[0])
    return max(abs(field.origin[0]), abs(field.origin[1]),
               field.spacing * max(nx, ny))


def _reference_scaled_pairs(field, c):
    length = _reference_length_scale(field)
    for k in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0):
        r = k * length / c
        if not 0.0 < r < math.inf:
            continue
        for gap in (1.001, 1.01, 1.25):
            for h in (0.0, 0.1, 0.25, 0.5, 1.0, 2.0):
                theta = h * c / r
                if math.isfinite(theta):
                    yield Vec2(r, 0.0), Vec2((r + gap) * math.cos(theta),
                                             (r + gap) * math.sin(theta))


def reference_falsify(field, c, budget):
    """The two-stage violation search with a `Vec2` for every point and
    every field value: the probes, then the pairs at radii k L/c.
    `falsify` must return exactly this result."""
    search = _ReferenceSearch(field, c, budget)
    for stage, pairs in (("probe", _reference_probe_pairs()),
                         ("scaled", _reference_scaled_pairs(field, c))):
        for x, y in pairs:
            hit = search.try_pair(x, y)
            if hit is not None:
                x, y, margin, inner, dw_norm, separation = hit
                return ViolationReport(
                    x=x, y=y, c=c, margin=margin, inner_product=inner,
                    increment_norm=dw_norm, separation=separation,
                    evaluations_used=search.evals, stage=stage,
                    both_signs_observed=len(search.signs) == 2)
    return Exhausted(best_margin=search.best_margin,
                     best_pair=search.best_pair,
                     evaluations_used=search.evals,
                     note=BUDGET_SPENT if search.out_of_budget() else PAIRS_TRIED)


def configuration(P, V) -> MovingConfiguration:
    """The configuration of positions P and velocities V, (n, 2) arrays:
    their rows in turn, as parse_particles reads them from a file."""
    return MovingConfiguration(np.ravel(P), np.ravel(V))


def duplicate_velocities(velocities, listed: int = 16):
    """(count, pairs) of equal velocities, by grouping the rows on their
    velocity (-0.0 and 0.0 are one key): a group of m rows, in index order,
    has m - 1 duplicates, each two of its rows in turn. pairs holds the
    first `listed` of them, groups taken by increasing velocity, sorted."""
    groups: dict = {}
    for k, v in enumerate(velocities):
        groups.setdefault(tuple(v), []).append(k)
    pairs = [pair for key in sorted(groups)
             for pair in zip(groups[key], groups[key][1:])]
    return len(pairs), tuple(sorted(pairs[:listed]))


def reference_particles_document(P, V) -> str:
    row = "{:.17g},{:.17g},{:.17g},{:.17g}\n".format
    return PARTICLES_HEADER + "\n" + "".join(map(row, *P.T.tolist(), *V.T.tolist()))


def reference_frames_csv(series):
    yield "frame,time,particle,x1,x2\n"
    for frame, (t, points) in enumerate(series):
        row = f"{frame},{fmt_float(t)},{{}},{{:.17g}},{{:.17g}}\n".format
        yield "".join(map(row, range(len(points)), *points.T.tolist()))


def reference_svg_snapshot(points, radius: float, lo: float, hi: float) -> str:
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"bad viewport [{lo}, {hi}]")
    side = hi - lo
    circle = ('<circle cx="{:.17g}" cy="{:.17g}" '
              f'r="{fmt_float(radius)}" fill="#336699" '
              'stroke="black" stroke-width="0.02"/>\n').format
    circles = map(circle, (points[:, 0] - lo).tolist(), (hi - points[:, 1]).tolist())
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" width="512" height="512" '
        f'viewBox="0 0 {fmt_float(side)} {fmt_float(side)}">\n'
        f'<rect width="{fmt_float(side)}" height="{fmt_float(side)}" fill="white"/>\n'
        + "".join(circles) + "</svg>\n")


def reference_export_scene(scene) -> str:
    B, V = scene.bases, scene.velocities
    # Stable, like sorting rows on their (px, py, pz) tuples.
    order = np.lexsort((B[:, 2], B[:, 1], B[:, 0]))
    row = ("{:.17g}," * 6 + fmt_float(scene.radius) + "\n").format
    rows = np.hstack((B, V, np.ones((len(V), 1))))[order]
    return SCENE_HEADER + "\n" + "".join(map(row, *rows.T.tolist()))


def exact_scene_overlaps(text: str) -> list[tuple[int, int]]:
    """The pairs (i, j), i < j, of rows of a cylinder-scene text whose
    cylinders' interiors meet, decided exactly.

    A row px,py,pz,dx,dy,dz,r is the cylinder of radius r around the line
    p + t d, for any direction d. Each field is read as the double it
    denotes, as a Fraction; the doubles of a scene share one power-of-two
    denominator, so every value is scaled to an integer by it, which
    multiplies both sides of each comparison below by the same power of
    it. Two skew axes are (w.c)^2 / |c|^2 apart squared, with
    w = q - p and c = d x e; parallel axes (c = 0) are |w x d|^2 / |d|^2
    apart squared. The interiors meet when that is below (r + s)^2.
    """
    header, *rows = text.splitlines()
    assert header == SCENE_HEADER, header
    values = [[Fraction(float(f)) for f in row.split(",")] for row in rows]
    assert all(len(row) == 7 for row in values)
    scale = max((v.denominator for row in values for v in row), default=1)
    rows = [[int(v * scale) for v in row] for row in values]

    def dot(a, b):
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]

    overlaps = []
    for i in range(len(rows)):
        p, d, r = rows[i][:3], rows[i][3:6], rows[i][6]
        for j in range(i + 1, len(rows)):
            q, e, s = rows[j][:3], rows[j][3:6], rows[j][6]
            w = [b - a for a, b in zip(p, q)]
            reach = (r + s) ** 2
            c = _cross3(d, e)
            if any(c):
                meet = dot(w, c) ** 2 < reach * dot(c, c)
            else:
                u = _cross3(w, d)
                meet = dot(u, u) < reach * dot(d, d)
            if meet:
                overlaps.append((i, j))
    return overlaps


def _reference_parse_float(line_no: int, field: str) -> float:
    try:
        return float(field)
    except ValueError:
        raise ParseError(line_no, f"expected a number, got {field!r}") from None


def _reference_check_finite(values, row_lines) -> None:
    A = np.array(values, dtype=float).reshape(-1, 4)
    finite = np.isfinite(A)
    bad = np.flatnonzero(~finite.all(axis=1))
    if bad.size:
        k = int(bad[0])
        x = (A[k, :2] if not finite[k, :2].all() else A[k, 2:]).tolist()
        raise ParseError(row_lines[k],
                         f"non-finite Vec2 component: ({x[0]}, {x[1]})")


def reference_parse_particles(text: str) -> tuple[np.ndarray, np.ndarray]:
    lines = text.splitlines()
    if not lines or lines[0].strip() != PARTICLES_HEADER:
        raise ParseError(1, f"expected header {PARTICLES_HEADER!r}")
    values: list[float] = []
    row_lines: list[int] = []
    for ln, raw in enumerate(lines[1:], start=2):
        fields = raw.split(",")
        try:
            if len(fields) != 4:
                if not raw.strip():
                    continue
                raise ParseError(
                    ln, f"expected 4 fields x1,x2,v1,v2, got {len(fields)}")
            values.extend(map(float, fields))
        except ValueError as exc:
            # Earlier rows come first: finish checking them, then report.
            del values[4 * len(row_lines):]
            _reference_check_finite(values, row_lines)
            if isinstance(exc, ParseError):
                raise
            for f in fields:
                _reference_parse_float(ln, f.strip())
        row_lines.append(ln)
    _reference_check_finite(values, row_lines)
    A = np.array(values, dtype=float).reshape(-1, 4)
    return np.ascontiguousarray(A[:, :2]), np.ascontiguousarray(A[:, 2:])
