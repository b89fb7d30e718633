import dataclasses
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from freedrift import _pairscan
from freedrift.evolution import MovingConfiguration, speeds, verify_hardcore
from freedrift.geometry import Vec2, closest_approach, norm, sub
from freedrift.lattice import (
    DISK_RADIUS,
    MAX_PARTICLES,
    EmptyWindowError,
    FlowReport,
    MonotoneProfile,
    NonMonotoneProfileError,
    OutOfDomainError,
    ProfileKind,
    Window,
    arctan_profile,
    build_flow,
    named_profile,
    profile_eval,
    rational_profile,
    table_profile,
    tanh_profile,
    verify_flow,
)
from oracles import recovered_field


def all_profiles():
    table = table_profile((n, n + 0.25 * math.sin(n)) for n in range(-6, 7))
    return [arctan_profile(), tanh_profile(), rational_profile(), table]


def particles(flow):
    """(position, velocity) Vec2 pairs of the flow's rows."""
    return [(Vec2(*p), Vec2(*v)) for p, v in zip(flow.P.tolist(), flow.V.tolist())]


def test_profile_eval_arctan_values():
    phi = arctan_profile()
    assert profile_eval(phi, 0) == 0.0
    assert profile_eval(phi, 1) == math.atan(1)
    assert profile_eval(phi, 1) == pytest.approx(math.pi / 4, abs=1e-15)


def test_profile_eval_tanh_value():
    assert profile_eval(tanh_profile(), -2) == math.tanh(-2.0)


def test_profile_eval_rational_values():
    phi = rational_profile()
    assert profile_eval(phi, 0) == 0.0
    assert profile_eval(phi, 3) == 0.75
    assert profile_eval(phi, -3) == -0.75


def test_profiles_monotone_and_bounded_on_scan():
    for phi in all_profiles():
        lo, hi = (-6, 6)
        values = [profile_eval(phi, n) for n in range(lo, hi + 1)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(abs(v) <= phi.bound + 1e-12 for v in values)


def test_table_profile_eval_and_domain():
    phi = table_profile([(-1, -0.5), (0, 0.0), (2, 0.75)])
    assert profile_eval(phi, 2) == 0.75
    with pytest.raises(OutOfDomainError):
        profile_eval(phi, 1)


def test_table_profile_must_increase():
    with pytest.raises(NonMonotoneProfileError):
        table_profile([(0, 0.0), (1, 0.0)])
    with pytest.raises(ValueError):
        table_profile([(1, 0.0), (0, 1.0)])  # unsorted integers


@pytest.mark.parametrize("rows", [[], [(0, 0.5)]], ids=["empty", "one-row"])
def test_table_profile_needs_two_rows(rows):
    with pytest.raises(ValueError, match="table profile needs at least two entries"):
        table_profile(rows)


def test_named_profile_lookup():
    assert named_profile("arctan").kind is ProfileKind.ARCTAN
    assert named_profile("tanh").kind is ProfileKind.TANH
    assert named_profile("rational").kind is ProfileKind.RATIONAL_SATURATING
    with pytest.raises(ValueError):
        named_profile("linear")


def test_window_shapes():
    win = Window.square(2)
    assert win == Window(-2, 2, -2, 2)
    assert win.count() == 25
    with pytest.raises(EmptyWindowError):
        Window(1, 0, 0, 0)


def test_build_flow_two_point_window():
    flow = build_flow(arctan_profile(), Window(0, 1, 0, 0), shift_margin=1.0)
    assert len(flow.P) == 2
    a, b = particles(flow)
    dv = Vec2(b[1].x1 - a[1].x1, b[1].x2 - a[1].x2)
    assert dv == Vec2(0.0, -math.atan(1))  # -I(pi/4, 0)
    approach = closest_approach(*a, *b)
    assert approach.distance == 1.0
    assert flow.speed_min == 1.0
    assert flow.shift == Vec2(math.atan(1) + 1.0, 0.0)


def test_build_flow_single_point():
    flow = build_flow(tanh_profile(), Window(3, 3, -2, -2), shift_margin=0.25)
    assert len(flow.P) == 1
    assert flow.speed_min == 0.25
    report = verify_flow(flow)
    assert report.min_distance == math.inf
    assert report.passed


def test_build_flow_3x3_all_pairs_separated():
    flow = build_flow(arctan_profile(), Window.square(1), shift_margin=0.5)
    parts = particles(flow)
    assert len(parts) == 9
    W = recovered_field(flow)
    count = 0
    for i in range(9):
        for j in range(i + 1, 9):
            # The separation margin |<x-y, dw>| / |dw| of the increment.
            dw = sub(Vec2(*W[i]), Vec2(*W[j]))
            offset = sub(parts[i][0], parts[j][0])
            margin = abs(offset.x1 * dw.x1 + offset.x2 * dw.x2) / norm(dw)
            approach = closest_approach(*parts[i], *parts[j])
            assert margin >= 1.0 - 1e-12
            assert approach.distance == pytest.approx(margin, rel=1e-12)
            count += 1
    assert count == 36


def test_build_flow_rejects_bad_margin():
    with pytest.raises(ValueError):
        build_flow(arctan_profile(), Window.square(1), shift_margin=-0.1)
    with pytest.raises(ValueError):
        build_flow(arctan_profile(), Window.square(1), shift_margin=math.nan)


def test_build_flow_zero_margin_allowed():
    flow = build_flow(arctan_profile(), Window.square(1), shift_margin=0.0)
    assert flow.speed_min == 0.0
    assert verify_flow(flow).passed


def test_build_flow_window_outside_table_domain():
    phi = table_profile([(0, 0.0), (1, 1.0)])
    with pytest.raises(OutOfDomainError):
        build_flow(phi, Window(0, 2, 0, 0), shift_margin=1.0)


def test_build_flow_rejects_lying_bound():
    # Constructible profile whose declared bound undercuts its values.
    phi = MonotoneProfile(ProfileKind.TABLE_DRIVEN,
                          table=((-1, -2.0), (0, 0.0), (1, 2.0)), bound=1.0)
    with pytest.raises(NonMonotoneProfileError):
        build_flow(phi, Window(-1, 1, 0, 0), shift_margin=1.0)
    # The bound is compared with no slack.
    phi = MonotoneProfile(ProfileKind.TABLE_DRIVEN, table=((0, 0.0), (1, 1.0)),
                          bound=1.0 - 5e-13)
    with pytest.raises(NonMonotoneProfileError):
        build_flow(phi, Window(0, 1, 0, 1), shift_margin=1.0)


def test_disk_radius_below_half_minimum():
    flow = build_flow(arctan_profile(), Window.square(2), shift_margin=0.5)
    report = verify_flow(flow)
    assert flow.disk_radius == DISK_RADIUS == (1.0 - 1e-9) / 2.0
    assert flow.disk_radius < report.min_distance / 2.0


def test_build_flow_matches_pointwise_definition():
    window = Window(-3, 2, -1, 4)
    for phi in all_profiles():
        flow = build_flow(phi, window, shift_margin=0.5)
        # x-major: x1 outer, x2 inner.
        points = list(itertools.product(range(window.x_lo, window.x_hi + 1),
                                        range(window.y_lo, window.y_hi + 1)))
        w = [Vec2(profile_eval(phi, i), profile_eval(phi, j)) for i, j in points]
        sup = max(math.hypot(v.x1, v.x2) for v in w)
        a = sup + 0.5
        assert flow.P.tolist() == [[float(i), float(j)] for i, j in points]
        assert flow.V.tolist() == [[v.x2 + a, -v.x1] for v in w]
        assert flow.shift == Vec2(a, 0.0)
        assert (flow.speed_min, flow.speed_max) == (0.5, a + sup)


def test_build_flow_rejects_saturated_shifted_profile():
    # tanh passes its own monotonicity check at N = 20, but adding the
    # shift a rounds neighbouring values together.
    with pytest.raises(NonMonotoneProfileError,
                       match=r"phi\(19\) \+ a = .* past phi\(18\) \+ a"):
        build_flow(tanh_profile(), Window.square(20), shift_margin=0.5)
    report = verify_flow(build_flow(tanh_profile(), Window.square(19), 0.5))
    assert report.injective and report.passed


def test_build_flow_refuses_windows_beyond_the_cap():
    with pytest.raises(ValueError, match="MAX_PARTICLES"):
        build_flow(arctan_profile(), Window.square(10 ** 6), 0.5)
    with pytest.raises(ValueError, match="MAX_PARTICLES"):
        build_flow(arctan_profile(), Window(0, 0, 0, MAX_PARTICLES), 0.5)
    flow = build_flow(arctan_profile(), Window(0, 0, 0, 9), 0.5)
    assert flow.P.shape == (10, 2)


def test_verify_flow_3x3_example():
    flow = build_flow(arctan_profile(), Window.square(1), shift_margin=0.5)
    report = verify_flow(flow)
    assert report.passed
    assert report.min_distance == pytest.approx(1.0, abs=1e-12)
    assert report.chain_dot_margin >= 0.0
    assert report.chain_norm_margin >= 0.0
    assert report.chain_failure_count == 0
    assert report.injective
    # Witness pair must be axis-adjacent lattice neighbors.
    i, j = report.witness_pair
    pi, pj = flow.P[i], flow.P[j]
    step = (abs(pi[0] - pj[0]), abs(pi[1] - pj[1]))
    assert sorted(step) == [0.0, 1.0]


def test_verify_flow_flags_duplicate_velocities():
    # Equal velocities break V1's strict decrease in x1: a flow refuses
    # the axes that give them and the certificate refuses their arrays; the
    # hard-core verifier decides those with the engine.
    flow = build_flow(arctan_profile(), Window(0, 1, 0, 0), shift_margin=1.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        dataclasses.replace(flow, phi_x=flow.phi_x[:1] * 2)
    V = flow.V[[0, 0]]
    assert _pairscan.certify(flow.P, V) is None
    report = verify_hardcore(MovingConfiguration(flow.P, V))
    assert report.mode == "exhaustive"
    assert (report.min_alltime_distance, report.witness_pair) == (1.0, (0, 1))


def test_verify_flow_speed_window():
    for phi in all_profiles():
        flow = build_flow(phi, Window.square(2), shift_margin=0.75)
        report = verify_flow(flow)
        assert report.speeds_ok
        norm_a = math.hypot(flow.shift.x1, flow.shift.x2)
        for v1, v2 in flow.V.tolist():
            speed = math.hypot(v1, v2)
            assert speed >= flow.speed_min - 1e-12
            assert speed <= norm_a + math.sqrt(2) * phi.bound + 1e-12


def test_verify_flow_compares_speeds_exactly():
    flow = build_flow(arctan_profile(), Window.square(2), shift_margin=0.5)
    report = verify_flow(flow)
    lo, hi = report.speed_measured_min, report.speed_measured_max
    assert lo == 0.9585960144742947
    # A declared bound 5e-10 past the measured speed is not forgiven.
    assert not verify_flow(dataclasses.replace(flow, speed_min=lo + 5e-10)).speeds_ok
    assert not verify_flow(dataclasses.replace(
        flow, speed_max=math.nextafter(hi, 0))).speeds_ok
    assert verify_flow(dataclasses.replace(flow, speed_min=lo, speed_max=hi)).speeds_ok


def test_shift_invariance_of_minimum_distance():
    mins = []
    for margin in (0.0, 0.5, 10.0):
        flow = build_flow(arctan_profile(), Window.square(2), shift_margin=margin)
        mins.append(verify_flow(flow).min_distance)
    assert mins[1] == pytest.approx(mins[0], rel=1e-12)
    assert mins[2] == pytest.approx(mins[0], rel=1e-12)


def test_chain_margins_across_profiles_and_windows():
    rng = random.Random(7)
    for phi in all_profiles():
        for _ in range(3):
            x_lo = rng.randint(-5, 2)
            y_lo = rng.randint(-5, 2)
            win = Window(x_lo, x_lo + rng.randint(1, 4),
                         y_lo, y_lo + rng.randint(1, 4))
            flow = build_flow(phi, win, shift_margin=rng.choice([0.0, 0.5, 2.0]))
            report = verify_flow(flow)
            assert report.chain_dot_margin >= -1e-12
            assert report.chain_norm_margin >= -1e-12
            assert report.min_distance >= 1.0 - 1e-9
            assert report.passed


def test_flow_feeds_hardcore_verifier():
    flow = build_flow(rational_profile(), Window.square(2), shift_margin=0.5)
    report = verify_hardcore(flow, threshold=1.0)
    assert report.passed


def test_flow_speeds_are_measured_as_every_verifier_measures_them():
    # np.hypot rounds the fastest speed one ulp above math.hypot here; the
    # report must agree with evolution.speeds, as verify_scene does.
    phi = table_profile([(0, -0.132), (1, -0.062), (2, 1.332)])
    flow = build_flow(phi, Window(0, 2, 0, 0), shift_margin=0.5)
    report = verify_flow(flow)
    measured = speeds(flow.V)
    assert report.speed_measured_max == float(measured.max()) == 2.164821026502182
    assert float(np.hypot(flow.V[:, 0], flow.V[:, 1]).max()) == 2.1648210265021826
    assert report.speed_measured_min == float(measured.min())


def _report_from_arrays(flow):
    """verify_flow's report as the flow's arrays give it: certify's result
    (the engine's zero-pair scan for one particle) and evolution.speeds."""
    P, V = flow.P, flow.V
    scan = _pairscan.certify(P, V) if len(P) > 1 else _pairscan.scan(P, V)
    measured = speeds(V)
    lo, hi = float(measured.min()), float(measured.max())
    ok = math.isfinite(hi) and flow.speed_min <= lo and hi <= flow.speed_max
    margin = 0.0 if scan.pairs_total else math.inf
    return FlowReport(
        particle_count=len(P), min_distance=scan.min_distance,
        witness_pair=scan.witness, chain_dot_margin=margin,
        chain_norm_margin=margin, chain_failure_count=0, injective=True,
        speed_measured_min=lo, speed_measured_max=hi,
        speed_declared_min=flow.speed_min, speed_declared_max=flow.speed_max,
        speeds_ok=ok, pairs_total=scan.pairs_total,
        pairs_checked=scan.pairs_checked, mode=scan.mode, seed=None,
        passed=ok, scan=scan)


@pytest.mark.parametrize("phi", [
    arctan_profile(), tanh_profile(), rational_profile(),
    table_profile((n, n + 0.25 * math.sin(n)) for n in range(-40, 41)),
], ids=["arctan", "tanh", "rational", "table"])
def test_axes_decide_as_the_arrays_do(phi):
    """verify_flow reads only the axes; its report, and the hard-core
    report it hands its scan to, are those that the arrays give."""
    windows = [Window(3, 3, -2, -2), Window(-4, 5, 1, 1), Window(2, 2, -3, 6),
               Window(-3, 2, -1, 4), Window(1, 4, -6, -2),
               *map(Window.square, (0, 1, 2, 32))]
    for window, margin in itertools.product(windows, (0.0, 0.5, 2.0)):
        try:
            flow = build_flow(phi, window, margin)
        except NonMonotoneProfileError:
            continue  # tanh saturates before N = 32
        report = verify_flow(flow)
        hardcore = verify_hardcore(flow, scan=report.scan)
        assert "P" not in vars(flow) and "V" not in vars(flow)
        expected = _report_from_arrays(flow)
        assert report == expected and report.scan == expected.scan
        assert hardcore == verify_hardcore(MovingConfiguration(flow.P, flow.V))


def test_a_flow_holds_only_axes_with_the_certified_structure():
    flow = build_flow(arctan_profile(), Window(-2, 1, -1, 3), shift_margin=0.5)
    assert [list(flow.row(k)) for k in range(len(flow))] == \
        np.column_stack((flow.P, flow.V)).tolist()
    for bad in [dict(phi_x=flow.phi_x[::-1]),
                dict(phi_y=flow.phi_y[:-1]),
                # Increasing, but equal once shifted.
                dict(phi_y=tuple(k * 1e-17 for k in range(len(flow.phi_y)))),
                dict(phi_x=(-math.inf, *flow.phi_x[1:])),
                dict(shift=Vec2(flow.shift.x1, 1.0)),
                dict(window=Window(2 ** 53 - 2, 2 ** 53 + 1, -1, 3))]:
        with pytest.raises(ValueError, match="flow axes"):
            dataclasses.replace(flow, **bad)


def test_certified_reports_match_the_engine(monkeypatch):
    """Apart from the mode, certifying gives the engine's report values."""
    for phi in all_profiles():
        flow = build_flow(phi, Window(-3, 2, -1, 4), shift_margin=0.5)
        config = flow
        report, hardcore = verify_flow(flow), verify_hardcore(config)
        assert report.mode == hardcore.mode == "exhaustive-structural"
        assert report.scan == _pairscan.certify(flow.P, flow.V)
        engine = _pairscan.scan(flow.P, flow.V)
        assert dataclasses.replace(report.scan, mode="exhaustive") == engine
        with monkeypatch.context() as m:
            m.setattr(_pairscan, "certify", lambda *args, **kw: None)
            engine_hardcore = verify_hardcore(config)
        assert engine_hardcore.mode == "exhaustive"
        assert dataclasses.replace(hardcore, mode="exhaustive") == engine_hardcore


def _nudged(V):
    V = V.copy()
    V[7, 0] = np.nextafter(V[7, 0], -np.inf)
    return V


@pytest.mark.parametrize("refused", [_nudged, lambda V: V[:, ::-1].copy()],
                         ids=["nudged", "swapped"])
def test_refused_flow_runs_the_engine(refused):
    # The certificate refuses these velocities, which no flow holds; their
    # configuration goes to the hard-core verifier and its engine.
    flow = build_flow(arctan_profile(), Window.square(2), shift_margin=0.5)
    V = refused(flow.V)
    assert _pairscan.certify(flow.P, V) is None
    config = MovingConfiguration(flow.P, V)
    assert verify_hardcore(config) == verify_hardcore(
        config, scan=_pairscan.scan(flow.P, V))


@pytest.mark.parametrize("P, V", [
    # A shared position: the engine reports that pair at distance 0.
    ([[0.0, 0.0], [0.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]]),
    # A float gap of exactly 1.0 whose exact gap is below 1, beside the
    # unit axis pair (1, 2).
    ([[2.0 ** -60, 0.0], [1.0, 0.0], [1.0, 1.0]],
     [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]]),
], ids=["shared-position", "inexact-gap"])
def test_refused_configuration_runs_the_engine(P, V):
    config = MovingConfiguration(np.array(P), np.array(V))
    assert _pairscan.certify(config.P, config.V) is None
    report = verify_hardcore(config)
    assert report.mode == "exhaustive"
    assert report == verify_hardcore(config, scan=_pairscan.scan(config.P, config.V))


def test_flow_beyond_the_exhaustive_limit_is_certified():
    flow = build_flow(arctan_profile(), Window.square(50), shift_margin=0.5)
    report = verify_flow(flow)
    assert report.mode == "exhaustive-structural" and report.seed is None
    assert report.pairs_checked == report.pairs_total == 10201 * 10200 // 2
    assert (report.min_distance, report.witness_pair) == (1.0, (0, 1))
    assert (report.chain_dot_margin, report.chain_norm_margin) == (0.0, 0.0)
    assert report.passed


def largest_margin(phi, window):
    """The largest shift margin build_flow accepts on window, by bisection
    over the bit patterns of the non-negative doubles; None if it refuses
    margin 0."""
    def accepts(bits):
        try:
            build_flow(phi, window, float(np.int64(bits).view(float)))
        except ValueError:
            return False
        return True

    if not accepts(0):
        return None
    lo, hi = 0, int(np.float64(np.inf).view(np.int64))  # accepted, refused
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if accepts(mid) else (lo, mid)
    return float(np.int64(lo).view(float))


@st.composite
def flow_inputs(draw):
    """(profile, window of two or more points inside its domain, shift
    margin from 0 up to the largest build_flow accepts there)."""
    name = draw(st.sampled_from(["arctan", "tanh", "rational", "table"]))
    if name == "table":
        values = draw(st.lists(
            st.one_of(st.floats(-10.0, 10.0),
                      st.floats(allow_nan=False, allow_infinity=False),
                      st.sampled_from([-1.7e308, 1e308, 1.7e308])),
            min_size=2, max_size=8, unique=True))
        # Near +-2**53, where neighbouring integers stop being doubles.
        first = draw(st.integers(-20, 20)) + draw(st.sampled_from([0, 2 ** 53, -2 ** 53]))
        phi = table_profile(zip(range(first, first + len(values)), sorted(values)))
        domain = (first, first + len(values) - 1)
        lows = st.integers(*domain)
    else:
        phi = named_profile(name)
        domain = (-10 ** 4, 10 ** 4)
        lows = st.one_of(st.integers(-30, 30), st.integers(*domain))
    x_lo, y_lo = draw(lows), draw(lows)
    x_hi = draw(st.integers(x_lo, min(domain[1], x_lo + 5)))
    y_min = y_lo + (x_hi == x_lo)
    assume(y_min <= domain[1])
    window = Window(x_lo, x_hi, y_lo, draw(st.integers(y_min, min(domain[1], y_lo + 5))))
    top = largest_margin(phi, window)
    if top is None:
        return phi, window, 0.0
    return phi, window, draw(st.one_of(st.just(top), st.just(0.0), st.floats(0.0, top)))


@settings(max_examples=150, deadline=None)
@given(flow_inputs())
@example((table_profile([(2 ** 53 - 1, 0.0), (2 ** 53, 1.0), (2 ** 53 + 1, 2.0)]),
          Window(2 ** 53 - 1, 2 ** 53 + 1, 2 ** 53 - 1, 2 ** 53 - 1), 0.0))
@example((table_profile([(0, 0.0), (1, 1e308)]), Window(0, 1, 0, 1), 0.0))
# Finite velocities whose speed bound a + sup|w| overflows.
@example((table_profile([(0, 0.0), (1, 1e308), (2, 1.5e308)]), Window(1, 2, 0, 0), 0.0))
# phi(-1) = -sup|w|: a = sup|w| + 0.1 rounded down gave V0 below 0.1.
@example((arctan_profile(), Window(0, 0, -1, 0), 0.1))
def test_every_built_flow_is_certified(inputs):
    """verify_flow's result on the axes is the certificate's on the arrays:
    build_flow never returns a flow of two or more particles that the
    certificate refuses, nor one whose speeds overflow or leave the
    declared range. The recovered field then has the structure that proves
    the inequality chain."""
    try:
        flow = build_flow(*inputs)
    except ValueError:
        return  # refused: no flow to decide
    report = verify_flow(flow)
    assert report.scan == _pairscan.certify(flow.P, flow.V) is not None
    assert math.isfinite(flow.speed_max) and report.speeds_ok
    assert flow.speed_min <= report.speed_measured_min
    assert report.speed_measured_max <= flow.speed_max
    W = recovered_field(flow)
    for k in (0, 1):
        # W_k is a non-decreasing function of x_k alone.
        order = np.lexsort((flow.P[:, 1 - k], flow.P[:, k]))
        x, w = flow.P[order, k], W[order, k]
        assert np.where(x[1:] == x[:-1], w[1:] == w[:-1], w[1:] >= w[:-1]).all()
