"""Counterexample search against a universal separation inequality.

No bounded continuous planar vector field w can keep
|<x-y, w(x)-w(y)>| > c |w(x)-w(y)| for every pair with |x-y| > 1; this
module makes that failure observable. It provides a library of bounded
continuous candidate fields and a deterministic search that exhibits
violating pairs. Equality (including dw = 0) already defeats the strict
inequality, so the search accepts margin >= 0.

The search runs five stages in order: far-field probes at fixed radii,
pairs at radii scaled by bound/c ("scaled"), seeded random pairs, a
bisection between pairs of opposite sign of <x-y, dw> ("sign-change"),
and local refinement of the best pair. Every hit the floats find is then
decided again exactly, in integers on the doubles x, y, w(x), w(y) and c
(`_exact_violation`): |x-y| > 1 and c^2 |dw|^2 >= <x-y, dw>^2. A float hit
that fails it is not reported, and the search goes on. The check is exact
for the field values as doubles, not for the field itself: for the radial
field at c <= 1e-5 the true margins (about c^2/4r at r >~ 2/c) fall below
double resolution, and the hits found there have dw rounded to 0. At
x = (2e5, 0), y = (200001.001, 0) the margin computed in 50-digit decimals
from the field's formula is -1.25e-16, so such a hit holds on the doubles
only.

The search decides pairs in batches of float64 arrays, and its results are
bit for bit those of a pair-by-pair pass in CPython floats. The rule that
keeps them so: numpy runs only IEEE arithmetic (+, -, *, /, abs, min, max
and comparisons), which rounds as CPython's float operations do, while
every exp, cos, sin and hypot is a `math` call mapped over the batch.
numpy's versions of those may differ from `math` in the last bit: with
numpy 2.4 on x86-64, np.exp disagreed with math.exp on 4.6% of 10^6
uniform inputs in [0, ln 10^4], and np.hypot with math.hypot on about
0.6% of random points. The random stage draws from `random.Random` a batch at a time
(`_random_floats`), never from numpy.random: importing numpy.random costs
about 5.3 MB of RSS and 15-20 ms, a sixth of the falsifier's peak RSS.
"""
from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ._pairscan import math_map
from .formats import UNREPORTED
from .geometry import DEFAULT_SEED, Vec2, norm


class FieldKind(enum.Enum):
    CONSTANT = "constant"
    SATURATED_RADIAL = "radial"
    ROTATIONAL = "rotational"
    CLAMPED_LINEAR = "linear"
    SAMPLED_GRID = "grid"


@dataclass(frozen=True)
class CandidateField:
    """Bounded continuous field; its values never exceed bound in norm.

    `_kernel(x1, x2) -> (w1, w2)` evaluates the field on float64
    coordinate arrays, picked once per kind.
    """

    kind: FieldKind
    bound: float
    value: Vec2 | None = None
    scale: float = 1.0
    origin: tuple[float, float] | None = None
    spacing: float | None = None
    values: tuple[tuple[tuple[float, float], ...], ...] | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.bound) and self.bound > 0):
            raise ValueError("field bound must be finite and positive")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError("field scale must be finite and positive")
        if (self.kind is FieldKind.CONSTANT) != (self.value is not None):
            raise ValueError("constant fields take a value, others do not")
        grid_parts = (self.origin is not None, self.spacing is not None,
                      self.values is not None)
        if (self.kind is FieldKind.SAMPLED_GRID) != all(grid_parts):
            raise ValueError("grid fields take origin, spacing and values")
        if self.kind is FieldKind.SAMPLED_GRID:
            if self.spacing <= 0 or not math.isfinite(self.spacing):
                raise ValueError("grid spacing must be finite and positive")
            rows = self.values
            if len(rows) < 1 or len(rows[0]) < 1:
                raise ValueError("grid needs at least one node")
            if any(len(row) != len(rows[0]) for row in rows):
                raise ValueError("grid rows must have equal length")
        object.__setattr__(self, "_kernel", _KERNELS[self.kind](self))


# Each kernel maps arrays of coordinates (x1, x2) to the field values
# (w1, w2) as two float64 arrays. `CandidateField` picks its kernel once, so
# every evaluation of a field runs the same arithmetic. Each element is the
# scalar formula's CPython float, by the rule in the module docstring:
# `math_map` for hypot, and `_pymax`/`_pymin` where the formula uses
# Python's max and min.

def _pymax(a, b):
    """Python's max(a, b) elementwise: b only where b > a."""
    return np.where(b > a, b, a)


def _pymin(a, b):
    """Python's min(a, b) elementwise: b only where b < a."""
    return np.where(b < a, b, a)


def _constant_kernel(field: CandidateField):
    w1, w2 = field.value.x1, field.value.x2

    def kernel(x1: np.ndarray, x2: np.ndarray):
        return np.full(len(x1), w1), np.full(len(x1), w2)
    return kernel


def _radial_kernel(field: CandidateField):
    bound, scale = field.bound, field.scale
    hypot_1 = partial(math.hypot, 1.0)

    def kernel(x1: np.ndarray, x2: np.ndarray):
        u1, u2 = x1 / scale, x2 / scale
        f = bound / math_map(hypot_1, u1, u2)
        return f * u1, f * u2
    return kernel


def _rotational_kernel(field: CandidateField):
    bound, scale = field.bound, field.scale

    def kernel(x1: np.ndarray, x2: np.ndarray):
        f = bound / _pymax(math_map(math.hypot, x1, x2), scale)
        return -f * x2, f * x1
    return kernel


def _linear_kernel(field: CandidateField):
    f, scale = field.bound / math.sqrt(2.0), field.scale

    def kernel(x1: np.ndarray, x2: np.ndarray):
        c1 = _pymin(1.0, _pymax(-1.0, x1 / scale))
        c2 = _pymin(1.0, _pymax(-1.0, x2 / scale))
        return f * c1, f * c2
    return kernel


def _grid_kernel(field: CandidateField):
    w = np.array(field.values, dtype=float)
    ny, nx = w.shape[:2]
    (o1, o2), spacing = field.origin, field.spacing

    def kernel(x1: np.ndarray, x2: np.ndarray):
        u = (x1 - o1) / spacing
        v = (x2 - o2) / spacing
        # Clamping extends the boundary values constantly: still continuous.
        u = _pymin(_pymax(u, 0.0), nx - 1.0)
        v = _pymin(_pymax(v, 0.0), ny - 1.0)
        # u, v >= 0, so the cast truncates as int() does.
        i = np.minimum(u.astype(np.intp), max(nx - 2, 0))
        j = np.minimum(v.astype(np.intp), max(ny - 2, 0))
        fu = u - i
        fv = v - j
        i2 = np.minimum(i + 1, nx - 1)
        j2 = np.minimum(j + 1, ny - 1)
        # Node values as (2, n): one row per component.
        w00, w10 = w[j, i].T, w[j, i2].T
        w01, w11 = w[j2, i].T, w[j2, i2].T
        a0 = w00 * (1 - fu) + w10 * fu
        a1 = w01 * (1 - fu) + w11 * fu
        w1, w2 = a0 * (1 - fv) + a1 * fv
        return w1, w2
    return kernel


_KERNELS = {
    FieldKind.CONSTANT: _constant_kernel,
    FieldKind.SATURATED_RADIAL: _radial_kernel,
    FieldKind.ROTATIONAL: _rotational_kernel,
    FieldKind.CLAMPED_LINEAR: _linear_kernel,
    FieldKind.SAMPLED_GRID: _grid_kernel,
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
REFINE_CONVERGED = ("refinement converged with budget left, without finding a "
                    "violation; this does not certify the field satisfies the "
                    "inequality")


@dataclass(frozen=True)
class Exhausted:
    """Search ended without a violation: its budget ran out, or refinement
    converged with budget left. note says which. Certifies nothing about
    the field."""

    best_margin: float
    best_pair: tuple[Vec2, Vec2] | None = field(metadata=UNREPORTED)
    evaluations_used: int
    note: str = BUDGET_SPENT


_PROBE_RADII = (2.0, 8.0, 32.0, 128.0, 512.0, 2048.0, 8192.0)
_PROBE_ANGLES = 16
# The scaled stage's pairs x = (r, 0), y = (r + g)(cos t, sin t) with
# r = k bound/c and t = h c/r, k outermost and h innermost. A field that
# saturates along rays, such as the radial one, breaks only where
# r >~ bound/c and t <~ c/r (its margin is about c t - r t^2 - g^2/r^3),
# which the fixed probe radii (<= 8,192) and random radii (<= 10^4) miss
# once c is small.
_SCALED_RADII = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0)
_SCALED_GAPS = (1.001, 1.01, 1.25)
_SCALED_ANGLES = (0.0, 0.1, 0.25, 0.5, 1.0, 2.0)
# Halvings of the sign-change path: its bracket ends at 2^-60 of the
# path, below the 2^-52 relative spacing of the doubles on it.
_BISECTION_STEPS = 60
# The random stage draws from this many fixed seeded streams, one after
# another; stream k labels its hits "random-slot-k".
_RANDOM_STREAMS = 4
# Pairs per batch in the random stage: one draw and one kernel call each.
_CHUNK = 2048
# Refinement's eight moves in the order tried (+x1, -x1, +x2, ..., -y2),
# one per column; the rows are the offsets of x1, x2, y1 and y2.
_MOVES = ((1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
          (0.0, 0.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0),
          (0.0, 0.0, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0),
          (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, -1.0))


class _Search:
    """Budgeted, seeded pair search; shared state across stages.

    Pairs come in float64 arrays (x1, x2, y1, y2) and are decided as a
    batch; `Vec2` is built only for the result. The margin is
    c hypot(dw) - |<x-y, dw>|, dw = w(x) - w(y), and every decision is the
    one a pair-by-pair pass would make.
    """

    def __init__(self, field: CandidateField, c: float, budget: int):
        self.kernel = field._kernel
        self.c = c
        self.budget = budget
        self.evals = 0
        self.best_margin = -math.inf
        self.best_pair: tuple[float, float, float, float] | None = None
        # The latest pair decided with <x-y, dw> > 0, and with < 0.
        self.pos_pair: tuple[float, float, float, float] | None = None
        self.neg_pair: tuple[float, float, float, float] | None = None

    def out_of_budget(self) -> bool:
        return self.evals + 2 > self.budget

    def try_pairs(self, x1: np.ndarray, x2: np.ndarray, y1: np.ndarray,
                  y2: np.ndarray, *, until_better: bool = False):
        """Decide the pairs in order; the first hit, or None.

        A hit is a pair whose float margin is >= 0 and that passes
        `_exact_violation`; a float hit that fails it is passed over. A
        pair with |x-y| <= 1 is skipped and costs nothing; pairs past the
        budget are not evaluated. The batch stops at the first hit and,
        with until_better, at the first margin above the best one before
        the call. A non-finite increment before that stop raises
        ValueError. The kept pair of each sign, the best margin (the first
        strictly larger one; NaN never) and the evaluation count then cover
        the pairs up to the stop.
        """
        with np.errstate(all="ignore"):
            d1 = x1 - y1
            d2 = x2 - y2
            separation = math_map(math.hypot, d1, d2)
            take = np.flatnonzero(separation > 1.0)
            take = take[:(self.budget - self.evals) // 2]
            n = len(take)
            if n == 0:
                return None
            x1, x2, y1, y2, d1, d2, separation = (
                a[take] for a in (x1, x2, y1, y2, d1, d2, separation))
            w1, w2 = self.kernel(np.concatenate((x1, y1)),
                                 np.concatenate((x2, y2)))
            dw1 = w1[:n] - w1[n:]
            dw2 = w2[:n] - w2[n:]
            inner = d1 * dw1 + d2 * dw2
            dw_norm = math_map(math.hypot, dw1, dw2)
            margin = self.c * dw_norm - np.abs(inner)
        # A finite increment implies both field values are finite.
        finite = np.isfinite(dw1) & np.isfinite(dw2)
        bad = n if finite.all() else int(np.argmin(finite))
        hits = margin[:bad] >= 0.0
        better = margin[:bad] > (self.best_margin if until_better else math.inf)
        for k in np.flatnonzero(hits | better).tolist():
            found = bool(hits[k]) and _exact_violation(
                self.c, *(float(a[k]) for a in (x1, x2, y1, y2)),
                *(float(a[j]) for j in (k, n + k) for a in (w1, w2)))
            if found or better[k]:
                end = k + 1
                break
        else:
            if bad < n:
                e1, e2, p1, p2, q1, q2 = (float(a[bad])
                                          for a in (dw1, dw2, x1, x2, y1, y2))
                raise ValueError(
                    f"field increment w(x) - w(y) = ({e1}, {e2}) is not "
                    f"finite at x = ({p1}, {p2}), y = ({q1}, {q2})")
            end, found = n, False
        self.evals += 2 * end
        inner, margin = inner[:end], margin[:end]

        def pair(k):
            return float(x1[k]), float(x2[k]), float(y1[k]), float(y2[k])

        signed = np.flatnonzero(inner > 0.0)
        if len(signed):
            self.pos_pair = pair(signed[-1])
        signed = np.flatnonzero(inner < 0.0)
        if len(signed):
            self.neg_pair = pair(signed[-1])
        ranked = np.where(np.isnan(margin), -math.inf, margin)
        k = int(np.argmax(ranked))
        if ranked[k] > self.best_margin:
            self.best_margin = float(margin[k])
            self.best_pair = pair(k)
        if found:
            k = end - 1
            return tuple(float(a[k]) for a in (x1, x2, y1, y2, margin, inner,
                                               dw_norm, separation))
        return None


def _dyadic(*values: float) -> tuple[list[int], int]:
    """Integers m and a shift s with values[i] == m[i] / 2**s exactly."""
    ratios = [v.as_integer_ratio() for v in values]
    s = max(q.bit_length() for _, q in ratios) - 1
    return [p << (s + 1 - q.bit_length()) for p, q in ratios], s


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
        both_signs_observed=(search.pos_pair is not None
                             and search.neg_pair is not None),
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


def _scaled_pairs(bound: float, c: float):
    """The scaled stage's pairs, those with finite coordinates."""
    for k in _SCALED_RADII:
        r = k * bound / c
        if not 0.0 < r < math.inf:
            continue
        for gap in _SCALED_GAPS:
            for h in _SCALED_ANGLES:
                theta = h * c / r
                if math.isfinite(theta):
                    yield (r, 0.0, (r + gap) * math.cos(theta),
                           (r + gap) * math.sin(theta))


def _random_floats(rng: random.Random, n: int) -> np.ndarray:
    """The next n values of rng.random(), drawn at once.

    random() makes each double from two 32-bit Mersenne Twister outputs
    a, b as ((a >> 5) * 2**26 + (b >> 6)) / 2**53, and getrandbits(64 n)
    returns the next 2n outputs as little-endian 32-bit words. So the
    values and the generator state afterwards are those of n random()
    calls.
    """
    words = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"),
                          dtype="<u4").astype(np.uint64)
    return ((words[0::2] >> 5) * 2 ** 26 + (words[1::2] >> 6)) / 2.0 ** 53


def _uniform(a: float, b: float, u: np.ndarray) -> np.ndarray:
    """random.uniform(a, b) for each random() value in u."""
    return a + (b - a) * u


def falsify(field: CandidateField, c: float, budget: int = 10 ** 6,
            seed: int = DEFAULT_SEED) -> ViolationReport | Exhausted:
    """Search for a pair with |x-y| > 1 where the strict inequality
    |<x-y, w(x)-w(y)>| > c |w(x)-w(y)| fails.

    Five deterministic stages, in order: structured far-field probes;
    126 pairs at radii k bound/c and angular offsets h c/r ("scaled");
    seeded random pairs (three quarters of the budget left, split evenly
    across fixed seeded streams, run one after another, so the first hit
    in stream order wins); a bisection between the latest pairs of each
    sign of <x-y, dw> to a zero of it ("sign-change"), when both signs
    occurred; and local refinement of the best pair seen. A hit found in
    floats is reported only if it holds exactly on the doubles x, y,
    w(x), w(y) and c (see the module docstring); otherwise the search
    goes on. Exhausted is an honest result, not an error; it carries the
    best margin, says whether the budget ran out or refinement converged
    first, and certifies nothing.

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
                         ("scaled", _scaled_pairs(field.bound, c))):
        hit = search.try_pairs(*np.array(list(pairs), dtype=float)
                               .reshape(-1, 4).T)
        if hit is not None:
            return _violation(search, hit, stage)
        if search.out_of_budget():
            return _exhausted(search)

    cos, sin, exp = math.cos, math.sin, math.exp
    log_r_max = math.log(1e4)
    log_gap_min, log_gap_max = math.log(1.0001), math.log(1e3)
    turn = 2.0 * math.pi
    random_budget = (budget - search.evals) * 3 // 4
    per_stream = random_budget // _RANDOM_STREAMS
    for stream in range(_RANDOM_STREAMS):
        rng = random.Random(seed * 1000003 + stream)
        stream_end = min(search.evals + per_stream, budget)
        # Each pair takes four draws, and every pair of a batch would be
        # drawn by a pair-by-pair loop too: no batch outruns the stream.
        while (pairs := min((stream_end - search.evals) // 2, _CHUNK)) > 0:
            r, t, gap, phi = _random_floats(rng, 4 * pairs).reshape(pairs, 4).T
            r = math_map(exp, _uniform(0.0, log_r_max, r))
            t = _uniform(0.0, turn, t)
            x1, x2 = r * math_map(cos, t), r * math_map(sin, t)
            gap = math_map(exp, _uniform(log_gap_min, log_gap_max, gap))
            phi = _uniform(0.0, turn, phi)
            hit = search.try_pairs(x1, x2, x1 + gap * math_map(cos, phi),
                                   x2 + gap * math_map(sin, phi))
            if hit is not None:
                return _violation(search, hit, f"random-slot-{stream}")

    if search.pos_pair is not None and search.neg_pair is not None:
        hit = _sign_change(search)
        if hit is not None:
            return _violation(search, hit, "sign-change")
    if search.best_pair is not None:
        hit = _refine(search)
        if hit is not None:
            return _violation(search, hit, "refine")
    return _exhausted(search)


def _sign_change(search: _Search):
    """Bisect from the kept pairs of each sign of <x-y, dw> to a zero of it,
    where margin = c |dw| - |<x-y, dw>| >= 0 if dw != 0.

    The path from the positive pair (t = 0) to the negative one (t = 1)
    stays inside {|x-y| > 1}: x moves linearly, and x - y in polar form,
    its length interpolated (both ends are > 1) and its angle taken along
    the shorter arc. Each step decides the midpoint of the bracket and
    keeps the half whose ends differ in sign. The stage ends at a hit,
    after _BISECTION_STEPS steps, or at a midpoint of neither sign
    (<x-y, dw> zero or NaN, a pair not more than 1 apart, or no budget).
    """
    (a1, a2, b1, b2), (e1, e2, f1, f2) = search.pos_pair, search.neg_pair
    length0 = math.hypot(a1 - b1, a2 - b2)
    length1 = math.hypot(e1 - f1, e2 - f2)
    angle0 = math.atan2(a2 - b2, a1 - b1)
    turn = math.atan2(e2 - f2, e1 - f1) - angle0
    if turn > math.pi:
        turn -= 2.0 * math.pi
    elif turn < -math.pi:
        turn += 2.0 * math.pi
    lo, hi = 0.0, 1.0
    for _ in range(_BISECTION_STEPS):
        if search.out_of_budget():
            return None
        t = 0.5 * (lo + hi)
        length = length0 + t * (length1 - length0)
        angle = angle0 + t * turn
        x1, x2 = a1 + t * (e1 - a1), a2 + t * (e2 - a2)
        pair = (x1, x2, x1 - length * math.cos(angle),
                x2 - length * math.sin(angle))
        hit = search.try_pairs(*np.array(pair)[:, None])
        if hit is not None:
            return hit
        if search.pos_pair == pair:
            lo = t
        elif search.neg_pair == pair:
            hi = t
        else:
            return None
    return None


def _refine(search: _Search):
    """Coordinate-perturbation ascent on the violation margin.

    Each round tries the eight moves of one step in order and takes the
    first that raises the best margin; a round without one halves the
    step.
    """
    moves = np.array(_MOVES)
    step = 1.0
    while step > 1e-9 and not search.out_of_budget():
        before = search.best_margin
        base = np.array(search.best_pair)[:, None]
        hit = search.try_pairs(*(base + step * moves), until_better=True)
        if hit is not None:
            return hit
        if not search.best_margin > before:
            step /= 2.0
    return None


def _exhausted(search: _Search) -> Exhausted:
    pair = search.best_pair
    return Exhausted(best_margin=search.best_margin,
                     best_pair=None if pair is None else
                     (Vec2(pair[0], pair[1]), Vec2(pair[2], pair[3])),
                     evaluations_used=search.evals,
                     note=BUDGET_SPENT if search.out_of_budget() else REFINE_CONVERGED)
