"""Counterexample search against a universal separation inequality.

No bounded continuous planar vector field w can keep
|<x-y, w(x)-w(y)>| > c |w(x)-w(y)| for every pair with |x-y| > 1; this
module makes that failure observable. It provides a library of bounded
continuous candidate fields and a deterministic search that exhibits
violating pairs. Equality (including dw = 0) already defeats the strict
inequality, so the search accepts margin >= 0.

The search tries two fixed lists of pairs in order: far-field probes at
fixed radii ("probe"), then pairs at radii k L/c, L the field's length
scale, with angular offsets h c/r ("scaled"). The inequality is
homogeneous in w, so the field's bound does not say where it breaks; its
length scale does. A field that is constant along the x1 axis past L
(rotational, linear, a grid past its last node) has dw = 0 at the
scaled pairs on that axis, and one that saturates along rays (radial)
breaks where r >~ L/c and t <~ c/r. Every hit the floats find is then
decided again exactly, in integers on the doubles x, y, w(x), w(y) and c
(`_exact_violation`): |x-y| > 1 and c^2 |dw|^2 >= <x-y, dw>^2. A float hit
that fails it is not reported, and the search goes on. The check is exact
for the field values as doubles, not for the field itself: for the radial
field at c <= 1e-5 the true margins (about c^2/4r at r >~ 2/c) fall below
double resolution, and the hits found there have dw rounded to 0. At
x = (2e5, 0), y = (200001.001, 0) the margin computed in 50-digit decimals
from the field's formula is -1.25e-16, so such a hit holds on the doubles
only.

Each field kind's formula is written once, in `_KERNELS`, in CPython
floats, and both stages decide their pairs one at a time through it, so
`falsify` never imports numpy.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .formats import UNREPORTED
from .geometry import DEFAULT_BUDGET, Vec2, _dyadic, norm


class FieldKind(enum.Enum):
    CONSTANT = "constant"
    SATURATED_RADIAL = "radial"
    ROTATIONAL = "rotational"
    CLAMPED_LINEAR = "linear"
    SAMPLED_GRID = "grid"


@dataclass(frozen=True)
class CandidateField:
    """Bounded continuous field; its values never exceed bound in norm.

    The search evaluates it through its kind's formula in `_KERNELS`.
    """

    kind: FieldKind
    bound: float
    value: Vec2 | None = None
    scale: float = 1.0
    origin: tuple[float, float] | None = None
    spacing: float | None = None
    values: tuple[tuple[tuple[float, float], ...], ...] | None = None

    def __post_init__(self) -> None:
        if (self.kind is FieldKind.CONSTANT) != (self.value is not None):
            raise ValueError("constant fields take a value, others do not")
        grid_parts = (self.origin is not None, self.spacing is not None,
                      self.values is not None)
        if (self.kind is FieldKind.SAMPLED_GRID) != all(grid_parts):
            raise ValueError("grid fields take origin, spacing and values")
        if self.kind is FieldKind.SAMPLED_GRID:
            # Before the bound, which grid_field takes from these values.
            if self.spacing <= 0 or not math.isfinite(self.spacing):
                raise ValueError("grid spacing must be finite and positive")
            if not all(map(math.isfinite, self.origin)):
                raise ValueError(f"grid origin {self.origin} is not finite")
            rows = self.values
            if len(rows) < 1 or len(rows[0]) < 1:
                raise ValueError("grid needs at least one node")
            if any(len(row) != len(rows[0]) for row in rows):
                raise ValueError("grid rows must have equal length")
            for j, row in enumerate(rows):
                for i, w in enumerate(row):
                    if not all(map(math.isfinite, w)):
                        raise ValueError(
                            f"grid value {w} at node ({i}, {j}) is not finite")
        if not (math.isfinite(self.bound) and self.bound > 0):
            raise ValueError("field bound must be finite and positive")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError("field scale must be finite and positive")


# Each kind's formula, once: a factory field -> kernel, and
# kernel(x1, x2) -> (w1, w2) maps a point's coordinates to the field's
# value there.

def _constant(field: CandidateField):
    w = (field.value.x1, field.value.x2)
    return lambda x1, x2: w


def _radial(field: CandidateField):
    bound, scale, hypot = field.bound, field.scale, math.hypot

    def kernel(x1, x2):
        u1, u2 = x1 / scale, x2 / scale
        f = bound / hypot(1.0, u1, u2)
        return f * u1, f * u2
    return kernel


def _rotational(field: CandidateField):
    bound, scale, hypot = field.bound, field.scale, math.hypot

    def kernel(x1, x2):
        f = bound / max(hypot(x1, x2), scale)
        return -f * x2, f * x1
    return kernel


def _linear(field: CandidateField):
    f, scale = field.bound / math.sqrt(2.0), field.scale

    def kernel(x1, x2):
        return (f * min(1.0, max(-1.0, x1 / scale)),
                f * min(1.0, max(-1.0, x2 / scale)))
    return kernel


def _grid(field: CandidateField):
    rows = field.values
    ny, nx = len(rows), len(rows[0])
    (o1, o2), spacing = field.origin, field.spacing
    # Node (i, j) of component c is tables[c][j nx + i]. Its neighbours up
    # each axis are right and up further on, or itself where the grid is
    # one node wide.
    tables = [tuple(w[c] for row in rows for w in row) for c in (0, 1)]
    right, up = int(nx > 1), nx if ny > 1 else 0

    def kernel(x1, x2):
        # Clamping extends the boundary values constantly: still continuous.
        u = min(max((x1 - o1) / spacing, 0.0), nx - 1.0)
        v = min(max((x2 - o2) / spacing, 0.0), ny - 1.0)
        # u, v >= 0, so truncation is the floor.
        i = min(int(u), max(nx - 2, 0))
        j = min(int(v), max(ny - 2, 0))
        fu, fv = u - i, v - j
        gu, gv = 1 - fu, 1 - fv
        k00 = j * nx + i
        k10, k01 = k00 + right, k00 + up
        k11 = k01 + right
        return tuple((t[k00] * gu + t[k10] * fu) * gv
                     + (t[k01] * gu + t[k11] * fu) * fv for t in tables)
    return kernel


_KERNELS = {
    FieldKind.CONSTANT: _constant,
    FieldKind.SATURATED_RADIAL: _radial,
    FieldKind.ROTATIONAL: _rotational,
    FieldKind.CLAMPED_LINEAR: _linear,
    FieldKind.SAMPLED_GRID: _grid,
}


def constant_field(value: Vec2) -> CandidateField:
    bound = max(norm(value), 1e-300)  # zero field still has a valid bound slot
    return CandidateField(FieldKind.CONSTANT, bound=bound, value=value)


def saturated_radial_field(bound: float = 1.0, scale: float = 1.0) -> CandidateField:
    return CandidateField(FieldKind.SATURATED_RADIAL, bound=bound, scale=scale)


def rotational_field(bound: float = 1.0, scale: float = 1.0) -> CandidateField:
    return CandidateField(FieldKind.ROTATIONAL, bound=bound, scale=scale)


def clamped_linear_field(bound: float = 1.0, scale: float = 1.0) -> CandidateField:
    return CandidateField(FieldKind.CLAMPED_LINEAR, bound=bound, scale=scale)


def grid_field(origin: tuple[float, float], spacing: float,
               values) -> CandidateField:
    rows = tuple(tuple((float(w[0]), float(w[1])) for w in row)
                 for row in values)
    bound = max(math.hypot(w[0], w[1]) for row in rows for w in row)
    return CandidateField(FieldKind.SAMPLED_GRID, bound=max(bound, 1e-300),
                          origin=(float(origin[0]), float(origin[1])),
                          spacing=float(spacing), values=rows)


# Built-in field factories by name, each taking the bound.
_BUILTIN = {
    "constant": lambda bound: constant_field(Vec2(bound, 0.0)),
    "radial": saturated_radial_field,
    "rotational": rotational_field,
    "linear": clamped_linear_field,
}
def builtin_field(name: str, bound: float = 1.0) -> CandidateField:
    if name not in _BUILTIN:
        raise ValueError(f"unknown field {name!r}; "
                         f"expected one of {sorted(_BUILTIN)} or a grid file")
    return _BUILTIN[name](bound)


@dataclass(frozen=True)
class ViolationReport:
    """A pair defeating the strict separation inequality for this c.

    margin = c |dw| - |<x-y, dw>| with dw = w(x) - w(y); margin >= 0 means
    the strict inequality fails at (x, y), dw = 0 being the degenerate case.
    """

    x: Vec2
    y: Vec2
    c: float = field(metadata=UNREPORTED)
    separation: float
    margin: float
    inner_product: float
    increment_norm: float
    evaluations_used: int
    stage: str
    both_signs_observed: bool

    def __post_init__(self) -> None:
        if not self.separation > 1.0:
            raise ValueError("violation pair must satisfy |x-y| > 1")


BUDGET_SPENT = ("budget exhausted without finding a violation; "
                "this does not certify the field satisfies the inequality")
PAIRS_TRIED = ("every probe and scaled pair tried with budget left, without "
               "finding a violation; this does not certify the field "
               "satisfies the inequality")


@dataclass(frozen=True)
class Exhausted:
    """Search ended without a violation: its budget ran out, or every pair
    was tried with budget left. note says which. Certifies nothing about
    the field."""

    best_margin: float
    best_pair: tuple[Vec2, Vec2] | None = field(metadata=UNREPORTED)
    evaluations_used: int
    note: str = BUDGET_SPENT


_PROBE_RADII = (2.0, 8.0, 32.0, 128.0, 512.0, 2048.0, 8192.0)
_PROBE_ANGLES = 16
# The scaled stage's pairs x = (r, 0), y = (r + g)(cos t, sin t) with
# r = k L/c and t = h c/r, k outermost and h innermost. A field that
# saturates along rays, such as the radial one, breaks only where
# r >~ L/c and t <~ c/r (its margin is about c t - r t^2 - g^2/r^3),
# which the fixed probe radii (<= 8,192) miss once L/c is large.
_SCALED_RADII = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0)
_SCALED_GAPS = (1.001, 1.01, 1.25)
_SCALED_ANGLES = (0.0, 0.1, 0.25, 0.5, 1.0, 2.0)


class _Search:
    """Budgeted pair search; shared state across the two stages.

    A pair is four floats (x1, x2, y1, y2), which `try_pair` decides
    through the field's kernel; `Vec2` is built only for the result. The
    margin is c hypot(dw) - |<x-y, dw>|, dw = w(x) - w(y).
    """

    def __init__(self, field: CandidateField, c: float, budget: int):
        self.kernel = _KERNELS[field.kind](field)
        self.c = c
        self.budget = budget
        self.evals = 0
        self.best_margin = -math.inf
        self.best_pair: tuple[float, float, float, float] | None = None
        # Whether some pair had <x-y, dw> > 0, and some < 0.
        self.positive = self.negative = False

    def out_of_budget(self) -> bool:
        return self.evals + 2 > self.budget

    def try_pair(self, x1: float, x2: float, y1: float, y2: float):
        """Decide the pair (x, y); the hit, or None.

        A hit is a pair whose float margin is >= 0 and that passes
        `_exact_violation`. A pair with |x-y| <= 1 is skipped and costs
        nothing, and none is evaluated past the budget. A non-finite
        increment raises ValueError. Otherwise the sign of <x-y, dw> is
        noted, and the pair is kept as the best if its margin is strictly
        larger than the best one (NaN never is).
        """
        d1, d2 = x1 - y1, x2 - y2
        separation = math.hypot(d1, d2)
        if not separation > 1.0 or self.out_of_budget():
            return None
        wx1, wx2 = self.kernel(x1, x2)
        wy1, wy2 = self.kernel(y1, y2)
        dw1, dw2 = wx1 - wy1, wx2 - wy2
        # A finite increment implies both field values are finite.
        if not (math.isfinite(dw1) and math.isfinite(dw2)):
            raise ValueError(
                f"field increment w(x) - w(y) = ({dw1}, {dw2}) is not "
                f"finite at x = ({x1}, {x2}), y = ({y1}, {y2})")
        self.evals += 2
        inner = d1 * dw1 + d2 * dw2
        dw_norm = math.hypot(dw1, dw2)
        margin = self.c * dw_norm - abs(inner)
        pair = (x1, x2, y1, y2)
        if inner > 0.0:
            self.positive = True
        elif inner < 0.0:
            self.negative = True
        if margin > self.best_margin:
            self.best_margin, self.best_pair = margin, pair
        if margin >= 0.0 and _exact_violation(self.c, *pair,
                                              wx1, wx2, wy1, wy2):
            return (*pair, margin, inner, dw_norm, separation)
        return None


def _exact_violation(c: float, x1: float, x2: float, y1: float, y2: float,
                     wx1: float, wx2: float, wy1: float, wy2: float) -> bool:
    """Whether |x-y| > 1 and c^2 |dw|^2 >= <x-y, dw>^2, dw = w(x) - w(y),
    hold exactly for these finite doubles.

    Every double is an integer over a power of two, so both sides are
    integers once the positions are scaled by 2^s and the field values by
    2^t; `fractions` is not imported for this, it costs about 0.4 MB and
    1.4 ms a process.
    """
    (a1, a2, b1, b2), s = _dyadic(x1, x2, y1, y2)
    (u1, u2, v1, v2), t = _dyadic(wx1, wx2, wy1, wy2)
    d1, d2, e1, e2 = a1 - b1, a2 - b2, u1 - v1, u2 - v2
    p, q = c.as_integer_ratio()
    return (d1 * d1 + d2 * d2 > 1 << 2 * s
            and p * p * (e1 * e1 + e2 * e2) << 2 * s
            >= q * q * (d1 * e1 + d2 * e2) ** 2)


def _violation(search: _Search, hit, stage: str) -> ViolationReport:
    x1, x2, y1, y2, margin, inner, dw_norm, separation = hit
    return ViolationReport(
        x=Vec2(x1, x2), y=Vec2(y1, y2), c=search.c, margin=margin,
        inner_product=inner, increment_norm=dw_norm, separation=separation,
        evaluations_used=search.evals, stage=stage,
        both_signs_observed=search.positive and search.negative,
    )


def _probe_pairs():
    """Structured far-field probes: antipodal, same-ray, near-ray pairs."""
    for radius in _PROBE_RADII:
        for k in range(_PROBE_ANGLES):
            theta = 2.0 * math.pi * k / _PROBE_ANGLES
            ux, uy = math.cos(theta), math.sin(theta)
            x1, x2 = radius * ux, radius * uy
            yield x1, x2, -radius * ux, -radius * uy
            for gap in (1.25, 2.0):
                yield x1, x2, (radius + gap) * ux, (radius + gap) * uy
            # Slight transverse offsets: where saturating radial fields
            # lose their separating inner product.
            gap = 1.25
            for h in (0.5 * gap / radius, gap / radius, 2.0 * gap / radius):
                phi = theta + h / radius
                yield (x1, x2, (radius + gap) * math.cos(phi),
                       (radius + gap) * math.sin(phi))


def _length_scale(field: CandidateField) -> float:
    """The field's length scale L: its scale, or for a grid the largest of
    its origin's coordinates and its spacing times its nodes per side."""
    if field.kind is not FieldKind.SAMPLED_GRID:
        return field.scale
    rows = field.values
    return max(abs(field.origin[0]), abs(field.origin[1]),
               field.spacing * max(len(rows), len(rows[0])))


def _scaled_pairs(field: CandidateField, c: float):
    """The scaled stage's pairs, those with finite coordinates."""
    length = _length_scale(field)
    for k in _SCALED_RADII:
        r = k * length / c
        if not 0.0 < r < math.inf:
            continue
        for gap in _SCALED_GAPS:
            for h in _SCALED_ANGLES:
                theta = h * c / r
                if math.isfinite(theta):
                    yield (r, 0.0, (r + gap) * math.cos(theta),
                           (r + gap) * math.sin(theta))


def falsify(field: CandidateField, c: float,
            budget: int = DEFAULT_BUDGET) -> ViolationReport | Exhausted:
    """Search for a pair with |x-y| > 1 where the strict inequality
    |<x-y, w(x)-w(y)>| > c |w(x)-w(y)| fails.

    Two deterministic stages, in order: 672 structured far-field probes,
    then 126 pairs at radii k L/c and angular offsets h c/r ("scaled"), L
    the field's length scale (its scale, or a grid's extent). Scaling w by
    a constant scales both sides of the inequality alike, so the bound
    does not enter. A hit found in floats is reported only if it holds
    exactly on the doubles x, y, w(x), w(y) and c (see the module
    docstring); otherwise the search goes on. Exhausted is an honest
    result, not an error; it carries the best margin, says whether the
    budget ran out or every pair was tried first, and certifies nothing.

    Raises:
        ValueError: for c or budget out of range, or when a field increment
            w(x) - w(y) is not finite.
    """
    if not (math.isfinite(c) and c > 0):
        raise ValueError("c must be finite and positive")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    search = _Search(field, c, budget)
    for stage, pairs in (("probe", _probe_pairs()),
                         ("scaled", _scaled_pairs(field, c))):
        for pair in pairs:
            hit = search.try_pair(*pair)
            if hit is not None:
                return _violation(search, hit, stage)
    pair = search.best_pair
    return Exhausted(best_margin=search.best_margin,
                     best_pair=None if pair is None else
                     (Vec2(pair[0], pair[1]), Vec2(pair[2], pair[3])),
                     evaluations_used=search.evals,
                     note=BUDGET_SPENT if search.out_of_budget() else PAIRS_TRIED)
