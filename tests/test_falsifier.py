import dataclasses
import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from freedrift import falsifier, geometry
from freedrift.falsifier import (
    BUDGET_SPENT,
    PAIRS_TRIED,
    CandidateField,
    Exhausted,
    FieldKind,
    ViolationReport,
    builtin_field,
    constant_field,
    clamped_linear_field,
    falsify,
    grid_field,
    rotational_field,
    saturated_radial_field,
)
from freedrift.geometry import Vec2

from oracles import (
    Cone,
    DegenerateSegmentError,
    ZeroAxisError,
    chain_check,
    cone_contains,
    direction_capacity,
    exact_violation,
    greedy_direction_packing,
    reference_evaluate,
    reference_falsify,
    violation_margin,
)


def _at(field, p):
    """The field's formula at p, in CPython floats."""
    return Vec2(*falsifier._KERNELS[field.kind](field)(p.x1, p.x2))


def _sampled_grid(n, spacing, fn):
    """n x n grid centred on the origin with fn(x1, x2) at each node."""
    o = -spacing * (n - 1) / 2
    return grid_field((o, o), spacing,
                      [[fn(o + i * spacing, o + j * spacing) for i in range(n)]
                       for j in range(n)])


# One field per kind, plus fields the probes cannot break and the scaled
# stage does, at radii k L/c: a wide radial field, a linear field
# unclamped over the probes' radii and a grid sampling a radial field
# over them.
FIELDS = {
    "constant": builtin_field("constant"),
    "radial": builtin_field("radial"),
    "rotational": builtin_field("rotational"),
    "linear": builtin_field("linear"),
    "grid": grid_field((0.0, 0.0), 2.0,
                       [[(0.3, -0.2), (-0.1, 0.4), (0.2, 0.2)],
                        [(-0.3, 0.1), (0.25, -0.25), (0.0, 0.5)]]),
    "radial-wide": saturated_radial_field(scale=100.0),
    "linear-wide": clamped_linear_field(scale=1e4),
    "grid-radial": _sampled_grid(
        9, 2500.0, lambda x1, x2: (x1 / math.hypot(1e3, x1, x2),
                                   x2 / math.hypot(1e3, x1, x2))),
}
# A radial field with L = 1e300: linear, w = x/L, at every pair the search
# can separate. It breaks only where r >~ L/c, and at c = 1e-4 the scaled
# radii k L/c are so large that r + g rounds to r and t = h c/r leaves y
# within 1e-3 of x: no scaled pair is more than 1 apart, and the search
# ends after the probes with budget left.
UNBROKEN = saturated_radial_field(scale=1e300)
PROBE_EVALUATIONS = 1344  # 672 probe pairs, all separated by more than 1


def test_cone_axis_is_interior():
    result = cone_contains(Cone(Vec2(1.0, 0.0), 0.5), Vec2(1.0, 0.0))
    assert result.member
    assert result.margin == 0.5


def test_cone_perpendicular_is_outside():
    result = cone_contains(Cone(Vec2(1.0, 0.0), 0.5), Vec2(0.0, 1.0))
    assert not result.member
    assert result.margin == -0.5


def test_cone_zero_vector_is_member():
    result = cone_contains(Cone(Vec2(3.0, -2.0), 0.25), Vec2(0.0, 0.0))
    assert result.member
    assert result.margin == 0.0


def test_cone_scale_invariance_doubled_axis():
    z = Vec2(1.0, 1.0)
    small = cone_contains(Cone(Vec2(1.0, 0.0), 0.5), z)
    large = cone_contains(Cone(Vec2(2.0, 0.0), 0.5), z)
    assert small.member == large.member
    assert large.margin == 2.0 * small.margin


def test_cone_scale_invariance_random_power_of_two():
    rng = random.Random(3)
    for _ in range(200):
        axis = Vec2(rng.uniform(-2, 2) or 1.0, rng.uniform(-2, 2))
        z = Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2))
        a = rng.uniform(0.05, 0.95)
        base = cone_contains(Cone(axis, a), z)
        for k in (-3, 1, 4, 8):
            scaled_axis = Vec2(axis.x1 * 2.0 ** k, axis.x2 * 2.0 ** k)
            scaled = cone_contains(Cone(scaled_axis, a), z)
            assert scaled.member == base.member
            assert scaled.margin == base.margin * 2.0 ** k


def test_cone_convexity_on_member_pairs():
    rng = random.Random(9)
    cone = Cone(Vec2(1.0, 2.0), 0.4)
    members = []
    while len(members) < 200:
        z = Vec2(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if cone_contains(cone, z).member:
            members.append(z)
    for _ in range(1000):
        z1, z2 = rng.choice(members), rng.choice(members)
        lam = rng.uniform(0.0, 1.0)
        mix = Vec2(lam * z1.x1 + (1 - lam) * z2.x1,
                   lam * z1.x2 + (1 - lam) * z2.x2)
        assert cone_contains(cone, mix).margin >= -1e-12


def test_cone_validation():
    with pytest.raises(ZeroAxisError):
        Cone(Vec2(0.0, 0.0), 0.5)
    with pytest.raises(ValueError):
        Cone(Vec2(1.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        Cone(Vec2(1.0, 0.0), 0.0)


def test_chain_check_subdivision_counts():
    field = saturated_radial_field()
    one = chain_check(field, Vec2(0.0, 0.0), Vec2(1.5, 0.0), 0.25)
    assert one.n == 1
    assert len(one.increment_margins) == 1
    four = chain_check(field, Vec2(0.0, 0.0), Vec2(7.0, 0.0), 0.25)
    assert four.n == 4
    assert four.step_length == pytest.approx(1.75, rel=1e-15)
    assert 1.0 < four.step_length <= 2.0


def test_chain_check_degenerate_segment():
    field = saturated_radial_field()
    with pytest.raises(DegenerateSegmentError):
        chain_check(field, Vec2(0.0, 0.0), Vec2(1.0, 0.0), 0.25)
    with pytest.raises(DegenerateSegmentError):
        chain_check(field, Vec2(0.0, 0.0), Vec2(0.25, 0.0), 0.25)


def test_chain_check_constant_field_all_zero():
    field = constant_field(Vec2(0.5, -0.25))
    report = chain_check(field, Vec2(0.0, 0.0), Vec2(9.0, 1.0), 0.3)
    assert report.increment_margins == (0.0,) * report.n
    assert report.increments_in_cone
    assert report.sum_margin == 0.0
    assert report.sum_in_cone
    assert report.convexity_respected


def test_chain_check_soundness_when_increments_inside():
    # Radial field along a ray: every increment is a positive multiple of
    # the axis, so all margins are positive and the sum must follow.
    field = saturated_radial_field()
    report = chain_check(field, Vec2(10.0, 0.0), Vec2(2.0, 0.0), 0.4)
    assert all(m > 0 for m in report.increment_margins)
    assert report.increments_in_cone
    assert report.sum_in_cone
    assert report.sum_margin > 0
    assert report.convexity_respected


def test_builtin_fields_are_bounded():
    rng = random.Random(14)
    for name in falsifier._BUILTIN:
        field = builtin_field(name, bound=0.75)
        for _ in range(300):
            r = math.exp(rng.uniform(0, math.log(1e6)))
            t = rng.uniform(0, 2 * math.pi)
            p = Vec2(r * math.cos(t), r * math.sin(t))
            assert math.hypot(*_xy(_at(field, p))) <= 0.75 + 1e-12


def _xy(v):
    return v.x1, v.x2


def test_builtin_field_unknown_name():
    with pytest.raises(ValueError):
        builtin_field("vortex")


def test_grid_field_bilinear_interpolation():
    field = grid_field((0.0, 0.0), 1.0,
                       [[(0.0, 0.0), (1.0, 0.0)],
                        [(0.0, 1.0), (1.0, 1.0)]])
    center = _at(field, Vec2(0.5, 0.5))
    assert center == Vec2(0.5, 0.5)
    corner = _at(field, Vec2(1.0, 1.0))
    assert corner == Vec2(1.0, 1.0)
    # Constant extension beyond the hull.
    assert _at(field, Vec2(9.0, -4.0)) == _at(field, Vec2(1.0, 0.0))


def test_grid_field_validation():
    with pytest.raises(ValueError):
        grid_field((0.0, 0.0), 0.0, [[(0.0, 0.0)]])
    with pytest.raises(ValueError):
        CandidateField(FieldKind.SAMPLED_GRID, bound=1.0, origin=(0.0, 0.0),
                       spacing=1.0, values=(((0.0, 0.0),), ()))


_GRID = {"origin": (0.0, 0.0), "spacing": 1.0, "values": (((0.0, 0.0),),)}


@pytest.mark.parametrize("kind, parts, message", [
    (FieldKind.SATURATED_RADIAL, {"bound": 0.0},
     "field bound must be finite and positive"),
    (FieldKind.SATURATED_RADIAL, {"bound": math.inf},
     "field bound must be finite and positive"),
    (FieldKind.SATURATED_RADIAL, {"scale": -1.0},
     "field scale must be finite and positive"),
    (FieldKind.SATURATED_RADIAL, {"scale": math.nan},
     "field scale must be finite and positive"),
    (FieldKind.CONSTANT, {}, "constant fields take a value, others do not"),
    (FieldKind.ROTATIONAL, {"value": Vec2(1.0, 0.0)},
     "constant fields take a value, others do not"),
    (FieldKind.SAMPLED_GRID, {**_GRID, "spacing": None},
     "grid fields take origin, spacing and values"),
    (FieldKind.CLAMPED_LINEAR, _GRID, "grid fields take origin, spacing and values"),
    (FieldKind.SAMPLED_GRID, {**_GRID, "values": ()}, "grid needs at least one node"),
    (FieldKind.SAMPLED_GRID, {**_GRID, "values": ((),)}, "grid needs at least one node"),
    (FieldKind.SAMPLED_GRID, {**_GRID, "origin": (math.inf, 0.0)},
     "grid origin (inf, 0.0) is not finite"),
    (FieldKind.SAMPLED_GRID, {**_GRID, "origin": (0.0, math.nan)},
     "grid origin (0.0, nan) is not finite"),
    (FieldKind.SAMPLED_GRID, {**_GRID, "values": (((0.0, 1.0), (math.nan, 0.0)),)},
     "grid value (nan, 0.0) at node (1, 0) is not finite"),
    # grid_field's bound from these values: NaN, as the first node's norm.
    (FieldKind.SAMPLED_GRID, {**_GRID, "bound": math.nan,
                              "values": (((math.nan, 0.0), (0.0, 1.0)),)},
     "grid value (nan, 0.0) at node (0, 0) is not finite"),
    (FieldKind.SAMPLED_GRID, {**_GRID, "values": (((0.0, 1.0),), ((0.0, -math.inf),))},
     "grid value (0.0, -inf) at node (0, 1) is not finite"),
], ids=["zero-bound", "inf-bound", "negative-scale", "nan-scale", "no-value",
        "value-for-rotational", "grid-without-spacing", "grid-parts-for-linear",
        "no-row", "empty-row", "inf-origin", "nan-origin", "nan-value",
        "nan-first-value", "inf-value"])
def test_candidate_field_refusals(kind, parts, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CandidateField(kind, **{"bound": 1.0, **parts})


def test_falsify_constant_field_immediate():
    field = builtin_field("constant")
    report = falsify(field, c=0.1, budget=10 ** 4)
    assert isinstance(report, ViolationReport)
    assert report.increment_norm == 0.0
    assert report.margin == 0.0
    assert report.stage == "probe"
    assert report.separation > 1.0


def test_falsify_rotational_within_budget():
    report = falsify(rotational_field(), c=0.1, budget=10 ** 5)
    assert isinstance(report, ViolationReport)
    assert report.evaluations_used <= 10 ** 5
    # Near-perpendicular geometry: inner product tiny next to c.
    assert abs(report.inner_product) <= 0.1 * report.increment_norm


def test_falsify_radial_within_budget():
    report = falsify(saturated_radial_field(), c=0.1, budget=10 ** 5)
    assert isinstance(report, ViolationReport)
    assert report.evaluations_used <= 10 ** 5


def test_falsify_all_families_all_c():
    for name in falsifier._BUILTIN:
        for c in (0.05, 0.1, 0.5):
            report = falsify(builtin_field(name), c=c, budget=10 ** 6)
            assert isinstance(report, ViolationReport), (name, c)
            recomputed = violation_margin(builtin_field(name), c,
                                          report.x, report.y)
            assert recomputed == pytest.approx(report.margin, rel=1e-12,
                                               abs=1e-300)


def test_falsify_grid_field():
    field = grid_field((-1.0, -1.0), 1.0,
                       [[(-1.0, 0.0), (0.0, 0.0), (1.0, 0.0)],
                        [(-1.0, 0.0), (0.0, 0.0), (1.0, 0.0)]])
    report = falsify(field, c=0.1, budget=10 ** 5)
    assert isinstance(report, ViolationReport)


def test_falsify_deterministic():
    first = falsify(saturated_radial_field(), c=0.05, budget=10 ** 5)
    second = falsify(saturated_radial_field(), c=0.05, budget=10 ** 5)
    assert first == second


def test_falsify_exhausted_is_a_value():
    result = falsify(saturated_radial_field(), c=0.05, budget=12)
    assert isinstance(result, Exhausted)
    assert result.evaluations_used <= 12
    assert result.best_margin < 0
    assert "certif" in result.note


def test_exhausted_note_says_the_budget_ran_out():
    result = falsify(saturated_radial_field(), c=0.05, budget=12)
    assert result.evaluations_used + 2 > 12
    assert result.note == BUDGET_SPENT
    assert "budget exhausted" in result.note


def test_exhausted_note_says_every_pair_was_tried():
    result = falsify(UNBROKEN, c=1e-4, budget=20000)
    assert isinstance(result, Exhausted)
    assert result.evaluations_used == PROBE_EVALUATIONS
    assert result.note == PAIRS_TRIED
    assert "tried with budget left" in result.note
    assert "certif" in result.note


def test_falsify_rejects_bad_arguments():
    with pytest.raises(ValueError):
        falsify(builtin_field("constant"), c=-1.0)
    with pytest.raises(ValueError):
        falsify(builtin_field("constant"), c=0.1, budget=0)


def test_violation_report_requires_separation():
    with pytest.raises(ValueError):
        ViolationReport(x=Vec2(0.0, 0.0), y=Vec2(0.5, 0.0), c=0.1, margin=0.0,
                        inner_product=0.0, increment_norm=0.0, separation=0.5,
                        evaluations_used=2, stage="probe",
                        both_signs_observed=False)


def test_direction_capacity_matches_greedy_packing():
    assert direction_capacity(0.05) == 62
    delta = math.asin(0.05)
    assert greedy_direction_packing(delta) == 62
    with pytest.raises(ValueError):
        direction_capacity(1.5)


def _stage(result):
    return "exhausted" if isinstance(result, Exhausted) else result.stage


# Budgets ending inside the probe stage, just past it, and past both.
@pytest.mark.parametrize("name, stages", [
    ("constant", {"probe"}),
    ("radial", {"probe", "exhausted"}),
    ("rotational", {"probe"}),
    ("linear", {"probe"}),
    ("grid", {"probe"}),
    ("radial-wide", {"exhausted", "scaled"}),
    ("grid-radial", {"exhausted", "scaled"}),
])
def test_falsify_matches_reference_search(name, stages):
    field = FIELDS[name]
    seen = set()
    for c in (1e-3, 0.05):
        for budget in (100, 1343, 1346, 5000, 50000):
            result = falsify(field, c, budget)
            assert result == reference_falsify(field, c, budget), (c, budget)
            seen.add(_stage(result))
    assert seen == stages


@pytest.mark.parametrize("c", [1e-4, 3e-4])
def test_falsify_matches_reference_when_exhausted(c):
    for budget in (20000, 10 ** 5):
        result = falsify(UNBROKEN, c, budget)
        assert isinstance(result, Exhausted)
        assert result.best_pair is not None
        assert result == reference_falsify(UNBROKEN, c, budget)


# Grids one node wide along an axis, or both: their neighbour up that axis
# is the node itself.
DEGENERATE_GRIDS = {
    "grid-row": grid_field((-1.0, 0.5), 2.0,
                           [[(0.3, -0.2), (-0.1, 0.4), (0.2, 0.2), (-0.0, 0.0)]]),
    "grid-column": grid_field((0.0, -3.0), 1.5,
                              [[(0.3, -0.2)], [(-0.1, 0.4)], [(0.0, -0.0)]]),
    "grid-node": grid_field((2.0, -2.0), 1.0, [[(0.25, -0.5)]]),
}


def test_field_kernels_match_reference_evaluate():
    # Each field's formula at each point, compared bit for bit with the
    # scalar reference.
    rng = random.Random(5)
    for name, field in {**FIELDS, **DEGENERATE_GRIDS}.items():
        # Signed zeros and grid nodes, where ties meet min and max.
        points = [Vec2(a, b) for a in (0.0, -0.0, 2.0, 1e4)
                  for b in (0.0, -0.0, -2.0)]
        for _ in range(500):
            r = math.exp(rng.uniform(math.log(1e-3), math.log(1e5)))
            t = rng.uniform(0.0, 2.0 * math.pi)
            points.append(Vec2(r * math.cos(t), r * math.sin(t)))
        for p in points:
            expected = reference_evaluate(field, p)
            point = _at(field, p)
            assert (point.x1.hex(), point.x2.hex()) == \
                (expected.x1.hex(), expected.x2.hex()), (name, p)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4000),
       st.sampled_from([FIELDS["radial"], FIELDS["radial-wide"],
                        FIELDS["grid-radial"], UNBROKEN]))
def test_budget_accounting(budget, field):
    result = falsify(field, 1e-4, budget)
    assert result.evaluations_used % 2 == 0
    assert result.evaluations_used <= budget
    assert result == reference_falsify(field, 1e-4, budget)


# The probes do not break these fields, and the scaled stage breaks
# radial-wide after 1,456 evaluations and grid-radial at its first pair,
# after 1,346: budgets that end before those run out inside the stages.
@pytest.mark.parametrize("name, c, budget", [
    *((name, c, budget) for name, c in (("radial-wide", 1e-4), ("radial-wide", 3e-4))
      for budget in (1, 3, 1344, 1345, 1346, 1455)),
    *(("grid-radial", 0.1, budget) for budget in (1, 3, 1344, 1345)),
])
def test_a_budget_spent_in_the_probe_or_scaled_stage_exhausts(name, c, budget):
    field = FIELDS[name]
    result = falsify(field, c, budget)
    assert isinstance(result, Exhausted)
    assert result.note == BUDGET_SPENT
    assert repr(result) == repr(reference_falsify(field, c, budget))


def test_budget_one_evaluates_nothing():
    result = falsify(FIELDS["radial"], 1e-4, budget=1)
    assert isinstance(result, Exhausted)
    assert result.evaluations_used == 0
    assert result.best_pair is None


def test_falsify_builds_vec2_only_for_the_result(monkeypatch):
    calls = []
    original = geometry.Vec2.__post_init__

    def counting(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(geometry.Vec2, "__post_init__", counting)
    result = falsify(UNBROKEN, 1e-4, budget=20000)
    assert isinstance(result, Exhausted)
    assert len(calls) < 10


def test_non_finite_increment_raises():
    # Finite samples whose increment overflows: w(x) - w(y) = -2e308.
    field = grid_field((0.0, 0.0), 1.0, [[(1e308, 0.0), (-1e308, 0.0)],
                                         [(1e308, 0.0), (-1e308, 0.0)]])
    with pytest.raises(ValueError, match=r"w\(x\) - w\(y\) = \(-inf, 0.0\) "
                                         r"is not finite at x = \("):
        falsify(field, 0.1)


# The empty scaled stage, non-finite increments and NaN margins. Each run
# must equal the reference.

def test_empty_scaled_stage_ends_the_search_after_the_probes():
    # At c = 5e-324, r = k L/c overflows for every k: the scaled stage has
    # no pair, and the search ends after the probes with budget left.
    field, c = FIELDS["radial"], 5e-324
    assert list(falsifier._scaled_pairs(field, c)) == []
    for budget in (1344, 1346, 4000):
        result = falsify(field, c, budget)
        assert result == reference_falsify(field, c, budget), budget
        assert isinstance(result, Exhausted)
        assert result.evaluations_used == PROBE_EVALUATIONS
        assert result.note == (BUDGET_SPENT if budget < 1346 else PAIRS_TRIED)


def _grid_radial_with_far_spikes():
    """grid-radial with +-1e308 on the x1 axis beyond radius 7500: only
    the antipodal probe at radius 8192 spans them, and its increment
    overflows."""
    def node(x1, x2):
        return (x1 / math.hypot(1e3, x1, x2), x2 / math.hypot(1e3, x1, x2))
    o = -10000.0
    rows = [[node(o + i * 2500.0, o + j * 2500.0) for i in range(9)]
            for j in range(9)]
    rows[4][0] = rows[4][1] = (-1e308, 0.0)
    rows[4][7] = rows[4][8] = (1e308, 0.0)
    return grid_field((o, o), 2500.0, rows)


def test_non_finite_increment_at_a_probe_raises(monkeypatch):
    field = _grid_radial_with_far_spikes()
    tried = []
    original = oracles._ReferenceSearch.try_pair

    def recording(self, x, y):
        tried.append((x, y))
        return original(self, x, y)

    monkeypatch.setattr(oracles._ReferenceSearch, "try_pair", recording)
    for c in (1e-3, 0.05):
        tried.clear()
        # The reference fails building the non-finite increment.
        with pytest.raises(ValueError, match="non-finite Vec2"):
            reference_falsify(field, c, 10 ** 5)
        x, y = tried[-1]
        # Pair 577 of the 672 probes, after 576 pairs without a hit.
        assert len(tried) == 577
        wx, wy = reference_evaluate(field, x), reference_evaluate(field, y)
        message = (f"field increment w(x) - w(y) = ({wx.x1 - wy.x1}, "
                   f"{wx.x2 - wy.x2}) is not finite at x = ({x.x1}, {x.x2}), "
                   f"y = ({y.x1}, {y.x2})")
        with pytest.raises(ValueError) as raised:
            falsify(field, c, 10 ** 5)
        assert str(raised.value) == message
        assert "y = (-8192.0, -0.0)" in message


def test_hit_at_an_earlier_probe_than_a_non_finite_increment_wins():
    # At c = 1.25 the second probe already breaks the field; the overflow
    # at probe 577 is never reached.
    field = _grid_radial_with_far_spikes()
    result = falsify(field, 1.25, 10 ** 5)
    assert result.stage == "probe"
    assert result.evaluations_used == 4
    assert result == reference_falsify(field, 1.25, 10 ** 5)


def test_try_pair_keeps_only_a_strictly_larger_margin():
    # w = (clamp(x1, 0, 1), 0): moving x2 or y2 changes neither dw nor
    # <x-y, dw>, so these pairs all have the first one's margin. None of
    # them becomes the best; the strictly larger last one does.
    field = grid_field((0.0, 0.0), 1.0, [[(0.0, 0.0), (1.0, 0.0)]])
    search = falsifier._Search(field, 0.1, 100)
    first = (0.5, 0.0, 3.0, 0.0)
    assert search.try_pair(*first) is None
    before = search.best_margin
    assert before == 0.1 * 0.5 - 2.5 * 0.5
    for pair in (first, (0.5, 1.0, 3.0, 1.0), (0.5, 2.0, 3.0, 0.0),
                 (0.5, -3.0, 3.0, 5.0)):
        assert search.try_pair(*pair) is None
        assert (search.best_margin, search.best_pair) == (before, first)
    assert search.try_pair(0.75, 0.0, 3.0, 0.0) is None
    assert search.evals == 2 + 2 * 5
    assert search.best_margin > before
    assert search.best_pair == (0.75, 0.0, 3.0, 0.0)


def test_nan_margins_never_become_the_best():
    # Along x1 only: A at x1 = 2, B at 3.25 and near A at -2 and 4. With
    # c = 1.5 the probes (2, 0)-(3.25, 0) and the two nearest near-ray ones
    # overflow both c |dw| and |<x-y, dw>|: their margins are NaN, between
    # finite negative margins.
    a, b, w = 0.85e308, -0.85e308, 0.8e308
    row = [w] + [a] * 16 + [b] * 7 + [w]
    field = grid_field((-2.0, 0.0), 0.25, [[(v, 0.0) for v in row]])
    assert math.isnan(violation_margin(field, 1.5, Vec2(2.0, 0.0),
                                       Vec2(3.25, 0.0)))
    for budget in (4, 8, 10):
        result = falsify(field, 1.5, budget)
        assert isinstance(result, Exhausted)
        assert not math.isnan(result.best_margin)
        assert result == reference_falsify(field, 1.5, budget)
    assert result.best_pair == (Vec2(2.0, 0.0), Vec2(4.0, 0.0))


def test_float_hit_failing_the_exact_check_is_passed_over():
    # w is (0.787, 0.33) from x1 = 1 on and 0 up to x1 = -1. The first
    # probe, x = (2, 0), y = (-2, 0), has float margin 0, but exactly
    # c^2 |dw|^2 < <x-y, dw>^2. The search goes on to the second probe,
    # x = (2, 0), y = (3.25, 0), where dw = 0 exactly.
    field = grid_field((-1.0, 0.0), 2.0, [[(0.0, 0.0), (0.787, 0.33)]])
    c = 3.6888314486865403
    x, y = Vec2(2.0, 0.0), Vec2(-2.0, 0.0)
    assert violation_margin(field, c, x, y) == 0.0
    assert not exact_violation(c, x, y, reference_evaluate(field, x),
                               reference_evaluate(field, y))
    result = falsify(field, c)
    assert result == reference_falsify(field, c, 10 ** 6)
    assert (result.stage, result.evaluations_used) == ("probe", 4)
    assert (result.y, result.increment_norm) == (Vec2(3.25, 0.0), 0.0)
    # The same two pairs one after the other: the first is passed over and
    # counted, and kept as the best.
    search = falsifier._Search(field, c, 100)
    assert search.try_pair(2.0, 0.0, -2.0, 0.0) is None
    hit = search.try_pair(2.0, 0.0, 3.25, 0.0)
    assert hit[:4] == (2.0, 0.0, 3.25, 0.0)
    assert search.evals == 4
    assert search.best_margin == 0.0
    assert search.best_pair == (2.0, 0.0, -2.0, 0.0)


_DOUBLES = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=5e-324, allow_infinity=False),
       st.tuples(*[_DOUBLES] * 8))
@example(0.1, (0.0, 0.0, 1.0, 0.0, 0.3, 0.0, 0.0, 0.0))
@example(5e-324, (1e308, -1e308, -1e308, 1e308, 5e-324, 0.0, -5e-324, 1.0))
@example(3.6888314486865403, (2.0, 0.0, -2.0, 0.0, 0.787, 0.33, 0.0, 0.0))
def test_exact_check_matches_rationals(c, values):
    x1, x2, y1, y2, wx1, wx2, wy1, wy2 = values
    expected = exact_violation(c, Vec2(x1, x2), Vec2(y1, y2),
                               Vec2(wx1, wx2), Vec2(wy1, wy2))
    assert falsifier._exact_violation(c, *values) == expected


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


_C = _log_uniform(1e-8, 2.0)


@st.composite
def _grids(draw):
    """Grids of 1 to 7 nodes a side, spacing 0.05 to 2e4, origin within
    +-2e4 and node values within +-m, m from 1e-4 to 10, in steps of m/64:
    far from the subnormals, so that scaling by a power of two is exact."""
    nx, ny = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    spacing = draw(_log_uniform(0.05, 2e4))
    origin = draw(st.tuples(*[st.floats(-2e4, 2e4)] * 2))
    m = draw(_log_uniform(1e-4, 10.0))
    component = st.integers(-64, 64).map(lambda n: n * m / 64)
    values = draw(st.lists(st.lists(st.tuples(component, component),
                                    min_size=nx, max_size=nx),
                           min_size=ny, max_size=ny))
    return origin, spacing, values


def _builtin(name, bound, scale):
    if name == "constant":
        return constant_field(Vec2(bound, 0.0))
    return {"radial": saturated_radial_field, "rotational": rotational_field,
            "linear": clamped_linear_field}[name](bound, scale)


def _times(result, factor):
    """result with each quantity of the field's values multiplied by
    factor."""
    if isinstance(result, Exhausted):
        return dataclasses.replace(result, best_margin=result.best_margin * factor)
    return dataclasses.replace(result, margin=result.margin * factor,
                               inner_product=result.inner_product * factor,
                               increment_norm=result.increment_norm * factor)


# The inequality is homogeneous in w: w and 2^k w break at the same pairs,
# with margins 2^k apart. The search must not see the difference.
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(falsifier._BUILTIN)), _log_uniform(1e-3, 1e5),
       _C, st.integers(-40, 40))
@example("radial", 1.0, 1e-5, -10)  # bound 2^-10 ~ 1e-3
@example("radial", 100.0, 1e-4, 10)
def test_scaling_a_builtin_field_scales_only_its_margins(name, scale, c, k):
    result = falsify(_builtin(name, 2.0 ** k, scale), c)
    assert result == _times(falsify(_builtin(name, 1.0, scale), c), 2.0 ** k)


@settings(max_examples=60, deadline=None)
@given(_grids(), _C, st.integers(-40, 40))
def test_scaling_a_grid_field_scales_only_its_margins(grid, c, k):
    origin, spacing, values = grid
    scaled = [[(w1 * 2.0 ** k, w2 * 2.0 ** k) for w1, w2 in row] for row in values]
    result = falsify(grid_field(origin, spacing, scaled), c)
    assert result == _times(falsify(grid_field(origin, spacing, values), c),
                            2.0 ** k)


# Every field the tests draw breaks in one of the two stages: the probes
# (672 pairs) or the scaled pairs (126), each pair 2 evaluations.
BOTH_STAGES = 2 * (672 + 126)


def _breaks_in_both_stages(field, c):
    result = falsify(field, c)
    assert isinstance(result, ViolationReport), result
    assert result.stage in ("probe", "scaled")
    assert result.evaluations_used <= BOTH_STAGES


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(falsifier._BUILTIN)), _log_uniform(1e-6, 1e6),
       _log_uniform(1e-3, 1e5), _C)
@example("radial", 1e-6, 1e5, 1e-8)
@example("radial", 1e6, 1e-3, 2.0)
@example("radial", 1e-3, 1.0, 1e-5)
def test_every_builtin_field_breaks_in_the_probe_or_scaled_stage(name, bound,
                                                                  scale, c):
    _breaks_in_both_stages(_builtin(name, bound, scale), c)


@settings(max_examples=150, deadline=None)
@given(_grids(), _C)
def test_every_grid_field_breaks_in_the_probe_or_scaled_stage(grid, c):
    _breaks_in_both_stages(grid_field(*grid), c)
