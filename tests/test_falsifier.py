import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from freedrift import falsifier, geometry
from freedrift.falsifier import (
    BUDGET_SPENT,
    DEFAULT_SEED,
    REFINE_CONVERGED,
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


# One field per kind, plus fields the probes cannot break: a wide radial
# field, which the scaled stage does not break either at c = 1e-4, 1e-3 or
# 0.05, a linear field unclamped over the search window and a grid
# sampling a radial field over that window.
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


def test_falsify_constant_field_immediate():
    field = builtin_field("constant")
    report = falsify(field, c=0.1, budget=10 ** 4, seed=1)
    assert isinstance(report, ViolationReport)
    assert report.increment_norm == 0.0
    assert report.margin == 0.0
    assert report.stage == "probe"
    assert report.separation > 1.0


def test_falsify_rotational_within_budget():
    report = falsify(rotational_field(), c=0.1, budget=10 ** 5, seed=1)
    assert isinstance(report, ViolationReport)
    assert report.evaluations_used <= 10 ** 5
    # Near-perpendicular geometry: inner product tiny next to c.
    assert abs(report.inner_product) <= 0.1 * report.increment_norm


def test_falsify_radial_within_budget():
    report = falsify(saturated_radial_field(), c=0.1, budget=10 ** 5, seed=1)
    assert isinstance(report, ViolationReport)
    assert report.evaluations_used <= 10 ** 5


def test_falsify_all_families_all_c():
    for name in falsifier._BUILTIN:
        for c in (0.05, 0.1, 0.5):
            report = falsify(builtin_field(name), c=c, budget=10 ** 6, seed=2)
            assert isinstance(report, ViolationReport), (name, c)
            recomputed = violation_margin(builtin_field(name), c,
                                          report.x, report.y)
            assert recomputed == pytest.approx(report.margin, rel=1e-12,
                                               abs=1e-300)


def test_falsify_grid_field():
    field = grid_field((-1.0, -1.0), 1.0,
                       [[(-1.0, 0.0), (0.0, 0.0), (1.0, 0.0)],
                        [(-1.0, 0.0), (0.0, 0.0), (1.0, 0.0)]])
    report = falsify(field, c=0.1, budget=10 ** 5, seed=3)
    assert isinstance(report, ViolationReport)


def test_falsify_deterministic():
    first = falsify(saturated_radial_field(), c=0.05, budget=10 ** 5, seed=42)
    second = falsify(saturated_radial_field(), c=0.05, budget=10 ** 5, seed=42)
    assert first == second


def test_falsify_exhausted_is_a_value():
    result = falsify(saturated_radial_field(), c=0.05, budget=12, seed=1)
    assert isinstance(result, Exhausted)
    assert result.evaluations_used <= 12
    assert result.best_margin < 0
    assert "certif" in result.note


def test_exhausted_note_says_the_budget_ran_out():
    result = falsify(saturated_radial_field(), c=0.05, budget=12, seed=1)
    assert result.evaluations_used + 2 > 12
    assert result.note == BUDGET_SPENT
    assert "budget exhausted" in result.note


def test_exhausted_note_says_refinement_converged():
    # Refinement stops once its step falls below 1e-9, with budget left.
    result = falsify(FIELDS["radial-wide"], c=1e-4, budget=20000)
    assert isinstance(result, Exhausted)
    assert result.evaluations_used == 15812
    assert result.note == REFINE_CONVERGED
    assert "converged with budget left" in result.note
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


# Budgets ending inside the probe stage (672 pairs, 1,344 evaluations),
# just past it, inside a random stream and in the last stages.
@pytest.mark.parametrize("name, stages", [
    ("constant", {"probe"}),
    ("radial", {"probe", "exhausted"}),
    ("rotational", {"probe"}),
    ("linear", {"probe"}),
    ("grid", {"probe"}),
    ("radial-wide", {"exhausted", "random-slot-0", "random-slot-1",
                     "random-slot-2", "refine"}),
    ("grid-radial", {"exhausted", "scaled", "sign-change"}),
])
def test_falsify_matches_reference_search(name, stages):
    field = FIELDS[name]
    seen = set()
    for c in (1e-3, 0.05):
        for budget in (100, 1343, 1346, 5000, 50000):
            for seed in (1, 7):
                result = falsify(field, c, budget, seed)
                assert result == reference_falsify(field, c, budget, seed), \
                    (c, budget, seed)
                seen.add(_stage(result))
    assert seen == stages


@pytest.mark.parametrize("c", [1e-4, 3e-4])
def test_falsify_matches_reference_when_exhausted(c):
    field = FIELDS["radial-wide"]
    for budget, seed in ((20000, DEFAULT_SEED), (10 ** 5, 1)):
        result = falsify(field, c, budget, seed)
        assert isinstance(result, Exhausted)
        assert result.best_pair is not None
        assert result == reference_falsify(field, c, budget, seed)


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
@given(st.integers(1, 4000), st.integers(0, 2 ** 32),
       st.sampled_from(["radial", "radial-wide", "grid-radial"]))
def test_budget_accounting(budget, seed, name):
    field = FIELDS[name]
    result = falsify(field, 1e-4, budget, seed)
    assert result.evaluations_used % 2 == 0
    assert result.evaluations_used <= budget
    assert result == reference_falsify(field, 1e-4, budget, seed)


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
    result = falsify(FIELDS["radial-wide"], 1e-4, budget=20000)
    assert isinstance(result, Exhausted)
    assert len(calls) < 10


def test_non_finite_increment_raises():
    # Finite samples whose increment overflows: w(x) - w(y) = -2e308.
    field = grid_field((0.0, 0.0), 1.0, [[(1e308, 0.0), (-1e308, 0.0)],
                                         [(1e308, 0.0), (-1e308, 0.0)]])
    with pytest.raises(ValueError, match=r"w\(x\) - w\(y\) = \(-inf, 0.0\) "
                                         r"is not finite at x = \("):
        falsify(field, 0.1)


# The stages' edges: where the random streams end, a random-stage hit,
# non-finite increments and NaN margins. Each run must equal the reference.

PROBE_EVALUATIONS = 1344  # 672 probe pairs, all separated by more than 1
# Then 126 scaled pairs, also all separated, for fields they do not break.
BEFORE_RANDOM = PROBE_EVALUATIONS + 252


def _per_stream(budget):
    return (budget - BEFORE_RANDOM) * 3 // 4 // 4


def _budget_for(per_stream):
    """The smallest budget that gives each random stream per_stream
    evaluations."""
    budget = BEFORE_RANDOM + -(-16 * per_stream // 3)
    assert _per_stream(budget) == per_stream
    return budget


# Each stream's evaluations, even, or odd with the last one unused.
@pytest.mark.parametrize("per_stream", [4096, 8192, 5650, 5651, 4094])
def test_stream_budgets_ending_after_a_pair_or_inside_one(per_stream):
    field = FIELDS["radial-wide"]  # no random pair breaks it at c = 1e-4
    budget = _budget_for(per_stream)
    for seed in (1, DEFAULT_SEED):
        result = falsify(field, 1e-4, budget, seed)
        assert isinstance(result, Exhausted)
        assert result.evaluations_used > BEFORE_RANDOM + 4 * (per_stream - 1)
        assert result == reference_falsify(field, 1e-4, budget, seed)


def test_empty_scaled_stage_hands_the_probes_to_the_random_stage(monkeypatch):
    # At c = 5e-324, r = k bound/c overflows for every k: the scaled stage
    # has no pair, and the random stage starts right after the probes. Only
    # that stage draws, so the first pair tried after a draw is its first.
    field, c = FIELDS["radial"], 5e-324
    assert list(falsifier._scaled_pairs(field.bound, c)) == []
    draws, starts = [], []

    class Drawing(random.Random):
        def uniform(self, a, b):
            draws.append((a, b))
            return super().uniform(a, b)

    original = falsifier._Search.try_pair

    def recording(self, *pair):
        if draws and not starts:
            starts.append(self.evals)
        return original(self, *pair)

    monkeypatch.setattr(falsifier, "random", SimpleNamespace(Random=Drawing))
    monkeypatch.setattr(falsifier._Search, "try_pair", recording)
    reached = 0
    for budget in (1344, 1346, 1355, 1356, 1600, 2500, 4000):
        # A stream of fewer than 2 evaluations draws no pair.
        reaches = (budget - PROBE_EVALUATIONS) * 3 // 4 // 4 >= 2
        reached += reaches
        for seed in (1, 7):
            draws.clear()
            starts.clear()
            result = falsify(field, c, budget, seed)
            assert result == reference_falsify(field, c, budget, seed), budget
            assert starts == ([PROBE_EVALUATIONS] if reaches else [])
    assert reached == 5


def test_random_stage_hit_matches_reference():
    # grid-radial at c = 0.05, seed 2, breaks at the 1,805th pair of the
    # first random stream.
    field = FIELDS["grid-radial"]
    result = falsify(field, 0.05, 50000, 2)
    assert result.stage == "random-slot-0"
    assert (result.evaluations_used - BEFORE_RANDOM) // 2 == 1805
    assert result == reference_falsify(field, 0.05, 50000, 2)


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
            reference_falsify(field, c, 10 ** 5, 1)
        x, y = tried[-1]
        # Pair 577 of the 672 probes, after 576 pairs without a hit.
        assert len(tried) == 577
        wx, wy = reference_evaluate(field, x), reference_evaluate(field, y)
        message = (f"field increment w(x) - w(y) = ({wx.x1 - wy.x1}, "
                   f"{wx.x2 - wy.x2}) is not finite at x = ({x.x1}, {x.x2}), "
                   f"y = ({y.x1}, {y.x2})")
        with pytest.raises(ValueError) as raised:
            falsify(field, c, 10 ** 5, 1)
        assert str(raised.value) == message
        assert "y = (-8192.0, -0.0)" in message


def test_hit_at_an_earlier_probe_than_a_non_finite_increment_wins():
    # At c = 1.25 the second probe already breaks the field; the overflow
    # at probe 577 is never reached.
    field = _grid_radial_with_far_spikes()
    result = falsify(field, 1.25, 10 ** 5, 1)
    assert result.stage == "probe"
    assert result.evaluations_used == 4
    assert result == reference_falsify(field, 1.25, 10 ** 5, 1)


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


def test_refine_stops_its_moves_at_a_strictly_larger_margin(monkeypatch):
    # w = (g(x1), 0), g piecewise linear through g(-1..4) = 1, 1, 2, 0, 0, 0,
    # and c = 0.1: from (0, 0)-(3, 0) at step 1, moving x1 either way or y1
    # up lowers the margin, moving x2 keeps it, and moving y1 down to 2
    # raises it. The round stops there, and the next starts from that pair.
    field = grid_field((-1.0, 0.0), 1.0,
                       [[(1.0, 0.0), (1.0, 0.0), (2.0, 0.0),
                         (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)]])
    search = falsifier._Search(field, 0.1, 10 ** 4)
    assert search.try_pair(0.0, 0.0, 3.0, 0.0) is None
    before = search.best_margin
    tried = []
    original = falsifier._Search.try_pair

    def recording(self, *pair):
        hit = original(self, *pair)
        tried.append((pair, self.evals, self.best_margin))
        return hit

    monkeypatch.setattr(falsifier._Search, "try_pair", recording)
    falsifier._refine(search)
    pairs = [pair for pair, _, _ in tried]
    assert pairs[:7] == [(1.0, 0.0, 3.0, 0.0), (-1.0, 0.0, 3.0, 0.0),
                         (0.0, 1.0, 3.0, 0.0), (0.0, -1.0, 3.0, 0.0),
                         (0.0, 0.0, 4.0, 0.0), (0.0, 0.0, 2.0, 0.0),
                         (1.0, 0.0, 2.0, 0.0)]
    assert [margin for _, _, margin in tried[:5]] == [before] * 5
    _, evals, margin = tried[5]
    assert evals == 2 + 2 * 6
    assert margin > before
    assert margin == 0.1 - 2.0


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
        assert result == reference_falsify(field, 1.5, budget, DEFAULT_SEED)
    assert result.best_pair == (Vec2(2.0, 0.0), Vec2(4.0, 0.0))


def test_sign_change_stage_bisects_to_a_hit():
    # grid-radial at c = 0.05 shows both signs of <x-y, dw> and survives
    # the probes, the scaled pairs and the random streams at these budgets.
    field = FIELDS["grid-radial"]
    for budget, seed in ((5000, 1), (20000, 7), (50000, 1)):
        result = falsify(field, 0.05, budget, seed)
        assert result == reference_falsify(field, 0.05, budget, seed)
        assert result.stage == "sign-change"
        assert result.both_signs_observed
        assert abs(result.inner_product) <= 0.05 * result.increment_norm
        # At most _BISECTION_STEPS pairs after the random streams.
        random_end = BEFORE_RANDOM + 4 * _per_stream(budget)
        steps = (result.evaluations_used - random_end) // 2
        assert 0 < steps <= falsifier._BISECTION_STEPS


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
    assert result == reference_falsify(field, c, 10 ** 6, DEFAULT_SEED)
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
