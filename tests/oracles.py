"""Independent brute-force oracles used to pin expected test values.

The grid oracles minimize on grids and refine; nothing reuses the closed
forms under test. Brackets are derived from norms (Cauchy-Schwarz bounds) or
grown until the minimizer stops landing on the boundary. The exact oracle
evaluates the squared worldline distance in rationals on the given doubles,
with no rounding at all, to decide last-bit questions. The falsifier
reference is the `Vec2` formulation of the search, kept to pin the float
search bit for bit.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from freedrift.falsifier import (
    BUDGET_SPENT,
    REFINE_CONVERGED,
    Exhausted,
    FieldKind,
    ViolationReport,
)
from freedrift.geometry import Vec2, dot, norm, sub


def time_grid_min_distance(x, vx, y, vy, levels: int = 28, points: int = 2001):
    """Grid-minimize |(x + t vx) - (y + t vy)| over t; returns (distance, t).

    The squared distance is a convex quadratic in t, so refining around the
    sampled argmin converges. The initial bracket |t| <= |x-y|/|vx-vy| + 1
    contains the true minimizer for any nonzero relative velocity.
    """
    dx = np.array([x[0] - y[0], x[1] - y[1]], dtype=float)
    dv = np.array([vx[0] - vy[0], vx[1] - vy[1]], dtype=float)
    dv_norm = math.hypot(dv[0], dv[1])
    if dv_norm == 0.0:
        return math.hypot(dx[0], dx[1]), None
    half = math.hypot(dx[0], dx[1]) / dv_norm + 1.0
    center = 0.0
    best_d = math.inf
    best_t = 0.0
    for _ in range(levels):
        ts = np.linspace(center - half, center + half, points)
        d = np.hypot(dx[0] + ts * dv[0], dx[1] + ts * dv[1])
        k = int(np.argmin(d))
        if d[k] < best_d:
            best_d = float(d[k])
            best_t = float(ts[k])
        center = float(ts[k])
        # Keep a few cells of slack so the true argmin stays inside.
        half = 4.0 * (2.0 * half / (points - 1))
    return best_d, best_t


def line_grid_min_distance(p1, d1, p2, d2, half: float = 64.0,
                           levels: int = 30, points: int = 41):
    """Nested 2D grid minimization of |(p1 + t d1) - (p2 + s d2)|.

    Doubles the bracket whenever the argmin lands on its boundary, then
    refines. Works for parallel lines too (flat valley; the value still
    converges).
    """
    p1 = np.asarray(p1, dtype=float)
    d1 = np.asarray(d1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    center = np.array([0.0, 0.0])
    best = math.inf
    for _ in range(levels):
        ts = np.linspace(center[0] - half, center[0] + half, points)
        ss = np.linspace(center[1] - half, center[1] + half, points)
        tg, sg = np.meshgrid(ts, ss, indexing="ij")
        diff = (p1[None, None, :] + tg[:, :, None] * d1[None, None, :]
                - p2[None, None, :] - sg[:, :, None] * d2[None, None, :])
        dist = np.sqrt((diff ** 2).sum(axis=2))
        flat = int(np.argmin(dist))
        i, j = divmod(flat, points)
        best = min(best, float(dist[i, j]))
        on_edge = i in (0, points - 1) or j in (0, points - 1)
        center = np.array([ts[i], ss[j]])
        if on_edge:
            half *= 2.0
        else:
            half = 4.0 * (2.0 * half / (points - 1))
    return best


def exact_line_distance_sq(P, V, i, j) -> Fraction:
    """Exact squared distance between the worldlines (P[k], 0) + t (V[k], 1)
    of rows i and j, in rationals on the given doubles.

    The offset (d, 0) projected on the normal a x b of the directions
    a = (V[i], 1), b = (V[j], 1); for parallel lines (a = b), the offset's
    distance from the line of i.
    """
    d0, d1 = (Fraction(float(P[j][k])) - Fraction(float(P[i][k])) for k in (0, 1))
    a0, a1, b0, b1 = (Fraction(float(x)) for x in (V[i][0], V[i][1], V[j][0], V[j][1]))
    normal = (a1 - b1, b0 - a0, a0 * b1 - a1 * b0)
    normal_sq = sum(c * c for c in normal)
    if normal_sq:
        return (d0 * normal[0] + d1 * normal[1]) ** 2 / normal_sq
    # (d, 0) x (a, 1) over |(a, 1)|.
    cross = (d1, -d0, d0 * a1 - d1 * a0)
    return sum(c * c for c in cross) / (a0 * a0 + a1 * a1 + 1)


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
        self.pos_seen = False
        self.neg_seen = False

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
        if inner > 0.0:
            self.pos_seen = True
        elif inner < 0.0:
            self.neg_seen = True
        margin = self.c * norm(dw) - abs(inner)
        if margin > self.best_margin:
            self.best_margin = margin
            self.best_pair = (x, y)
        if margin >= 0.0:
            return (x, y, margin, inner, norm(dw), separation)
        return None


def _reference_violation(search, hit, stage):
    x, y, margin, inner, dw_norm, separation = hit
    return ViolationReport(
        x=x, y=y, c=search.c, margin=margin, inner_product=inner,
        increment_norm=dw_norm, separation=separation,
        evaluations_used=search.evals, stage=stage,
        both_signs_observed=search.pos_seen and search.neg_seen,
    )


def _reference_exhausted(search):
    return Exhausted(best_margin=search.best_margin,
                     best_pair=search.best_pair,
                     evaluations_used=search.evals,
                     note=BUDGET_SPENT if search.out_of_budget() else REFINE_CONVERGED)


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


def _reference_refine(search):
    x, y = search.best_pair
    step = 1.0
    while step > 1e-9 and not search.out_of_budget():
        improved = False
        for dx1, dx2, dy1, dy2 in (
            (step, 0, 0, 0), (-step, 0, 0, 0),
            (0, step, 0, 0), (0, -step, 0, 0),
            (0, 0, step, 0), (0, 0, -step, 0),
            (0, 0, 0, step), (0, 0, 0, -step),
        ):
            cand_x = Vec2(x.x1 + dx1, x.x2 + dx2)
            cand_y = Vec2(y.x1 + dy1, y.x2 + dy2)
            if not norm(sub(cand_x, cand_y)) > 1.0:
                continue
            before = search.best_margin
            hit = search.try_pair(cand_x, cand_y)
            if hit is not None:
                return hit
            if search.best_margin > before:
                x, y = cand_x, cand_y
                improved = True
                break
            if search.out_of_budget():
                return None
        if not improved:
            step /= 2.0
    return None


def reference_falsify(field, c, budget, seed):
    """The staged violation search with a `Vec2` for every point and every
    field value: probes, four seeded random streams, then refinement of the
    best pair. `falsify` must return exactly this result."""
    search = _ReferenceSearch(field, c, budget)
    for x, y in _reference_probe_pairs():
        hit = search.try_pair(x, y)
        if hit is not None:
            return _reference_violation(search, hit, "probe")
        if search.out_of_budget():
            return _reference_exhausted(search)

    random_budget = (budget - search.evals) * 3 // 4
    per_stream = random_budget // 4
    for stream in range(4):
        rng = random.Random(seed * 1000003 + stream)
        stream_end = search.evals + per_stream
        while search.evals + 2 <= min(stream_end, budget):
            r = math.exp(rng.uniform(0.0, math.log(1e4)))
            t = rng.uniform(0.0, 2.0 * math.pi)
            x = Vec2(r * math.cos(t), r * math.sin(t))
            gap = math.exp(rng.uniform(math.log(1.0001), math.log(1e3)))
            phi = rng.uniform(0.0, 2.0 * math.pi)
            y = Vec2(x.x1 + gap * math.cos(phi), x.x2 + gap * math.sin(phi))
            hit = search.try_pair(x, y)
            if hit is not None:
                return _reference_violation(search, hit, f"random-slot-{stream}")

    if search.best_pair is not None:
        hit = _reference_refine(search)
        if hit is not None:
            return _reference_violation(search, hit, "refine")
    return _reference_exhausted(search)
