"""The pair engine against per-pair formulas and the brute-force oracles.

Tiles are shrunk to a few pairs so that minima and ties fall across tile
boundaries. `reference` evaluates every pair at once with
the per-pair gather formulas the engine's kernels must reproduce bit for
bit; `geometry` and `oracles` check the values independently.
"""
import dataclasses
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freedrift import _pairscan, geometry
from freedrift.configuration import MovingConfiguration
from freedrift.formats import parse_particles
from freedrift.geometry import (IdenticalParticleError, UndecidedError,
                                Vec2, _inverse_hypot_down,
                                closest_approach)
from freedrift.lattice import (
    Window,
    arctan_profile,
    build_flow,
    rational_profile,
    table_profile,
    tanh_profile,
)
from oracles import (
    configuration,
    exact_line_distance_sq,
    line_distance_3d,
    line_grid_min_distance,
    reference_particles_document,
    time_grid_min_distance,
)

TILES = (1, 2, 3, 5, 8, 1 << 13)


def scan_tiled(tile, *args, **kwargs):
    with mock.patch.object(_pairscan, "TILE_PAIRS", tile):
        return _pairscan.scan(*args, **kwargs)


def reference(P, V):
    """Every pair in lexicographic order, by per-pair gathers."""
    ii, jj = np.triu_indices(len(P), 1)
    dx = P[jj] - P[ii]
    dv = V[jj] - V[ii]
    dv_norm = np.hypot(dv[:, 0], dv[:, 1])
    # A nonzero dv shorter than 2^-500, scaled by a power of two to a norm
    # in [1/2, 1).
    tiny = (dv_norm < 2.0 ** -500) & (dv_norm > 0.0)
    dv = np.ldexp(dv, np.where(tiny, -np.frexp(dv_norm)[1], 0)[:, None])
    dv_norm = np.hypot(dv[:, 0], dv[:, 1])
    num = np.abs(dx[:, 1] * dv[:, 0] - dx[:, 0] * dv[:, 1])
    static = dv_norm == 0.0
    closest = np.where(static, np.hypot(dx[:, 0], dx[:, 1]),
                       num / np.where(static, 1.0, dv_norm))

    a, b = V[ii], V[jj]
    n1 = -dv[:, 1]
    n2 = dv[:, 0]
    len_a = np.sqrt(1.0 + a[:, 0] ** 2 + a[:, 1] ** 2)
    len_b = np.sqrt(1.0 + b[:, 0] ** 2 + b[:, 1] ** 2)
    short = np.where((len_a <= len_b)[:, None], a, b)
    n3 = short[:, 0] * dv[:, 1] - short[:, 1] * n2
    cross_norm = np.sqrt(n1 * n1 + n2 * n2 + n3 * n3)
    parallel = (n1 == 0.0) & (n2 == 0.0)
    back = P[ii] - P[jj]
    skew = (np.abs((-back[:, 0]) * n1 + (-back[:, 1]) * n2)
            / np.where(parallel, 1.0, cross_norm))
    c3 = -back[:, 0] * a[:, 1] + back[:, 1] * a[:, 0]
    point_line = np.sqrt(back[:, 1] ** 2 + back[:, 0] ** 2 + c3 * c3) / len_a
    line = np.where(parallel, point_line, skew)


    def best(x):
        k = int(np.argmin(x))  # first minimum: the smallest pair
        return float(x[k]), (int(ii[k]), int(jj[k]))

    return {
        "closest": best(closest),
        "line": best(line),
    }


coordinate = st.floats(-50.0, 50.0, allow_nan=False)
speed = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def configurations(draw):
    """(P, V) of distinct particles, in one of several shapes."""
    n = draw(st.integers(0, 14))
    shape = draw(st.sampled_from(["random", "lattice", "static", "parallel"]))
    if shape == "random":
        points = draw(st.lists(st.tuples(coordinate, coordinate),
                               min_size=n, max_size=n, unique=True))
    else:
        points = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                               min_size=n, max_size=n, unique=True))
    P = np.array(points, dtype=float).reshape(len(points), 2)
    n = len(P)
    if shape == "static":
        V = np.zeros((n, 2)) + draw(st.sampled_from([0.0, 0.5]))
    elif shape == "parallel":
        base = np.array([draw(speed), draw(speed)])
        # Equal velocities, or ones 1e-14 or 1e-10 apart: nearly parallel.
        scale = draw(st.sampled_from([0.0, 1e-14, 1e-10]))
        signs = draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]),
                              min_size=2 * n, max_size=2 * n))
        V = base + scale * np.array(signs).reshape(n, 2)
    else:
        V = np.array(draw(st.lists(st.tuples(speed, speed),
                                   min_size=n, max_size=n)), dtype=float).reshape(n, 2)
    if shape == "lattice":
        V = np.round(V)  # many equal velocities and tied distances
    return P, V


@settings(max_examples=150, deadline=None)
@given(configurations(), st.sampled_from(TILES))
def test_engine_matches_reference_bit_for_bit(config, tile):
    P, V = config
    n = len(P)
    scan = scan_tiled(tile, P, V, worldline=True)
    assert scan.pairs_total == scan.pairs_checked == n * (n - 1) // 2
    assert scan.mode == "exhaustive"
    if n < 2:
        assert (scan.min_distance, scan.witness) == (math.inf, None)
        assert (scan.line_distance, scan.line_witness) == (math.inf, None)
        return
    ref = reference(P, V)
    assert (scan.min_distance, scan.witness) == ref["closest"]
    assert (scan.line_distance, scan.line_witness) == ref["line"]


# Two static particles 6.26e-29 apart merge into one in the 1e8 shift.
MERGED = (np.array([[0.0, 0.0], [0.0, 6.26e-29]]), np.zeros((2, 2)))
# A subnormal relative speed: the time of closest approach is -inf.
SUBNORMAL = (np.array([[0.0, 0.0], [1.0, 0.0]]),
             np.array([[0.0, 0.0], [2.2250738585072014e-309, 0.0]]))
# The least subnormal relative speed, across the offset: |x-y| / |dv|
# overflows.
SUBNORMAL_ACROSS = (np.array([[0.0, 0.0], [0.0, 1.0]]),
                    np.array([[0.0, 0.0], [5e-324, 0.0]]))


@settings(max_examples=60, deadline=None)
@given(configurations(), st.sampled_from(TILES), st.sampled_from([1e8, -1e8]))
@example(MERGED, 1, 1e8)
@example(SUBNORMAL, 1, 1e8)
def test_coordinates_around_1e8(config, tile, offset):
    """Far from the origin the engine still matches the per-pair reference
    bit for bit and the scalar formulas closely; integer points shift
    exactly, so there every value and witness is unchanged."""
    P, V = config
    far = P + offset
    n = len(P)
    scan = scan_tiled(tile, far, V, worldline=True)
    if n < 2:
        return
    ref = reference(far, V)
    assert (scan.min_distance, scan.witness) == ref["closest"]
    assert (scan.line_distance, scan.line_witness) == ref["line"]

    # Python floats, as MovingConfiguration.row gives them: numpy scalars
    # warn where a float division overflows to inf.
    far_rows, V_rows = far.tolist(), V.tolist()

    def scalar_distance(i, j):
        # Points closer than the spacing of doubles near 1e8 merge in the
        # shift; a merged pair with equal velocities is one particle twice,
        # which the scalar formula refuses. It is static at dx = 0, so its
        # distance is 0.
        if far_rows[i] == far_rows[j] and V_rows[i] == V_rows[j]:
            return 0.0
        return closest_approach(Vec2(*far_rows[i]), Vec2(*V_rows[i]),
                                Vec2(*far_rows[j]), Vec2(*V_rows[j])).distance

    closest = min(scalar_distance(i, j)
                  for i in range(n) for j in range(i + 1, n))
    assert scan.min_distance == pytest.approx(closest, rel=1e-12, abs=1e-12)
    if np.array_equal(P, np.round(P)):
        near = scan_tiled(tile, P, V, worldline=True)
        assert near == scan


# Worldlines that cross at t = 128 at an angle of 0.4 degrees: a joint
# (t, s) grid oracle stalled across their narrow valley at 0.34.
NEARLY_PARALLEL = (np.array([[8.0, 0.0], [0.0, 0.0]]),
                   np.array([[-2.75, 0.0], [-2.6875, 0.0]]))


@settings(max_examples=60, deadline=None)
@given(configurations(), st.sampled_from(TILES))
@example(NEARLY_PARALLEL, 1)
@example(SUBNORMAL, 1)
@example(SUBNORMAL_ACROSS, 1)
def test_engine_matches_scalar_formulas_and_oracles(config, tile):
    P, V = config
    n = len(P)
    if n < 2:
        return
    scan = scan_tiled(tile, P, V, worldline=True)
    # Python floats, as MovingConfiguration.row gives them: numpy scalars
    # warn where a float division overflows to inf.
    P_rows, V_rows = P.tolist(), V.tolist()
    closest = {}
    line = {}
    for i in range(n):
        for j in range(i + 1, n):
            x, vx = Vec2(*P_rows[i]), Vec2(*V_rows[i])
            y, vy = Vec2(*P_rows[j]), Vec2(*V_rows[j])
            closest[i, j] = closest_approach(x, vx, y, vy).distance
            line[i, j] = line_distance_3d(
                (x.x1, x.x2, 0.0), (vx.x1, vx.x2, 1.0),
                (y.x1, y.x2, 0.0), (vy.x1, vy.x2, 1.0))
    assert scan.min_distance == pytest.approx(min(closest.values()), rel=1e-12, abs=1e-12)
    assert scan.line_distance == pytest.approx(min(line.values()), rel=1e-9, abs=1e-12)
    # Every pair before the witness is larger; ties resolve to the first.
    for pair, value in closest.items():
        if pair < scan.witness:
            assert value >= scan.min_distance * (1 - 1e-12) - 1e-12
    i, j = scan.witness
    oracle, _ = time_grid_min_distance(P[i], V[i], P[j], V[j])
    assert scan.min_distance == pytest.approx(oracle, rel=1e-6, abs=1e-7)
    i, j = scan.line_witness
    dv = math.hypot(*(V[j] - V[i]))
    if dv > 1e-2:  # the grid oracle needs skew lines with nearby feet
        oracle = line_grid_min_distance((*P[i], 0.0), (*V[i], 1.0),
                                        (*P[j], 0.0), (*V[j], 1.0))
        assert scan.line_distance == pytest.approx(oracle, rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("tile", TILES)
def test_lattice_ties_keep_first_pair(tile):
    flow = build_flow(arctan_profile(), Window.square(3), 0.5).configuration
    P, V = flow.P, flow.V
    for velocities in (V, np.zeros_like(V)):
        scan = scan_tiled(tile, P, velocities)
        assert (scan.min_distance, scan.witness) == (1.0, (0, 1))


def test_one_and_two_particles():
    one = _pairscan.scan(np.zeros((1, 2)), np.zeros((1, 2)), worldline=True)
    assert (one.pairs_total, one.pairs_checked, one.mode) == (0, 0, "exhaustive")
    assert (one.min_distance, one.witness, one.line_distance) == (math.inf, None, math.inf)
    P = np.array([[-2.0, 0.0], [2.0, 0.5]])
    V = np.array([[1.0, 0.0], [-1.0, 0.0]])
    two = _pairscan.scan(P, V, worldline=True)
    assert (two.pairs_total, two.pairs_checked) == (1, 1)
    assert (two.min_distance, two.witness, two.line_witness) == (0.5, (0, 1), (0, 1))


@pytest.mark.parametrize("rows, worldline, message", [
    # Head-on at 1e200: the cross term is inf - inf.
    ([[0, 0, 0, 0], [1e200, 1e200, -1e200, -1e200]], False,
     r"closest approach of pair \(0, 1\) is nan"),
    # Perpendicular at 1e300: the cross term overflows to inf, which must
    # not hide behind the finite minimum of pair (0, 1).
    ([[0, 0, 0, 0], [0, 0.5, 0, 0], [1e300, 1e300, -1e300, 1e300]], False,
     r"closest approach of pair \(0, 2\) is inf"),
    # Parallel, and the offset squared overflows.
    ([[0, 0, 0.5, 0], [1e200, 0, 0.5, 0]], True,
     r"worldline distance of pair \(0, 1\) is inf"),
])
def test_non_finite_kernel_value_names_the_pair(rows, worldline, message):
    A = np.array(rows, dtype=float)
    with pytest.raises(ValueError, match=message):
        _pairscan.scan(A[:, :2], A[:, 2:], worldline=worldline)


@pytest.mark.parametrize("worldline", [False, True])
def test_scan_past_the_limit_is_undecided_before_any_tile(worldline, monkeypatch):
    P, V = np.arange(10.0).reshape(5, 2), np.zeros((5, 2))  # 10 pairs
    monkeypatch.setattr(geometry, "EXHAUSTIVE_LIMIT", 10)
    at_limit = _pairscan.scan(P, V, worldline=worldline)
    assert (at_limit.mode, at_limit.pairs_total, at_limit.pairs_checked) == \
        ("exhaustive", 10, 10)

    def no_tiles(n):
        raise AssertionError("a tile was made past the limit")

    monkeypatch.setattr(geometry, "EXHAUSTIVE_LIMIT", 9)
    monkeypatch.setattr(_pairscan, "_tiles", no_tiles)
    with pytest.raises(UndecidedError,
                       match=r"^10 pairs exceed the exhaustive limit of 9$") as raised:
        _pairscan.scan(P, V, worldline=worldline)
    # The input is valid: no handler of bad input may take it.
    assert not isinstance(raised.value, ValueError)


# The structural certificate: every pair decided from the lattice structure.

PROFILES = {
    "arctan": arctan_profile(),
    "rational": rational_profile(),
    "tanh": tanh_profile(),
    "table": table_profile((n, math.atan(n / 3.0) + n / 100.0) for n in range(-12, 13)),
}


def certify(P, V, worldline=False):
    """The structural certificate on the rows of (n, 2) arrays P and V."""
    return configuration(P, V).certify(worldline)


def smallest_unit_axis_pair(P):
    """First pair (i < j), lexicographically, one coordinate shared and the
    other exactly 1 apart; P holds integers, so float differences are exact."""
    n = len(P)
    for i in range(n):
        for j in range(i + 1, n):
            if sorted(np.abs(P[j] - P[i]).tolist()) == [0.0, 1.0]:
                return i, j
    return None


def assert_certified(cert, P, V):
    n = len(P)
    assert cert.mode == "exhaustive-structural"
    assert cert.pairs_total == cert.pairs_checked == n * (n - 1) // 2
    assert cert.min_distance == 1.0
    assert cert.witness == smallest_unit_axis_pair(P)
    assert cert.line_distance is None
    i, j = cert.witness
    oracle, _ = time_grid_min_distance(P[i], V[i], P[j], V[j])
    assert oracle == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_certificate_agrees_with_engine_on_windows(name):
    for n in range(13):
        flow = build_flow(PROFILES[name], Window.square(n), 0.5).configuration
        cert = certify(flow.P, flow.V)
        if n == 0:
            assert cert is None  # one particle, no pair
            continue
        scan = _pairscan.scan(flow.P, flow.V)
        assert_certified(cert, flow.P, flow.V)
        assert (scan.min_distance, scan.witness) == (1.0, (0, 1)) == \
            (cert.min_distance, cert.witness)
        assert scan.pairs_total == cert.pairs_total


@pytest.mark.parametrize("n", [25, 32])
def test_certificate_agrees_with_engine_on_large_arctan_windows(n):
    flow = build_flow(arctan_profile(), Window.square(n), 0.5).configuration
    cert = certify(flow.P, flow.V)
    scan = _pairscan.scan(flow.P, flow.V)
    assert cert.mode == "exhaustive-structural" and scan.mode == "exhaustive"
    assert cert.pairs_checked == scan.pairs_checked == scan.pairs_total
    assert (cert.min_distance, cert.witness) == (scan.min_distance, scan.witness) \
        == (1.0, (0, 1))


@st.composite
def lattice_rows(draw):
    """Rows of a small flow on a random rectangle, shuffled and thinned."""
    x_lo, y_lo = draw(st.integers(-5, 3)), draw(st.integers(-5, 3))
    window = Window(x_lo, x_lo + draw(st.integers(0, 4)),
                    y_lo, y_lo + draw(st.integers(0, 4)))
    flow = build_flow(PROFILES[draw(st.sampled_from(sorted(PROFILES)))], window,
                      0.5).configuration
    n = len(flow.P)
    order = draw(st.permutations(range(n)))
    keep = [k for k in order if draw(st.booleans())] if draw(st.booleans()) else order
    rows = np.array(keep, dtype=int)
    return flow.P[rows], flow.V[rows]


@settings(max_examples=120, deadline=None)
@given(lattice_rows())
def test_certificate_on_shuffled_and_sparse_rows(rows):
    P, V = rows
    cert = certify(P, V)
    if smallest_unit_axis_pair(P) is None:
        assert cert is None
        return
    assert_certified(cert, P, V)
    scan = _pairscan.scan(P, V)
    assert scan.min_distance == pytest.approx(1.0, abs=1e-12)


def test_checkerboard_has_no_unit_axis_pair():
    flow = build_flow(arctan_profile(), Window.square(3), 0.5).configuration
    black = (flow.P.sum(axis=1) % 2) == 0
    assert certify(flow.P[black], flow.V[black]) is None


def test_certificate_finds_a_pair_after_rows_without_one():
    """The black squares of a checkerboard, then the white square (2, 3):
    the first row's neighbour positions are all empty, so the first pair
    is looked up among every position, for both witnesses."""
    flow = build_flow(arctan_profile(), Window.square(3), 0.5).configuration
    black = np.flatnonzero(flow.P.sum(axis=1) % 2 == 0)
    white = np.flatnonzero((flow.P == [2.0, 3.0]).all(axis=1))
    rows = np.concatenate([black, white])
    P, V = flow.P[rows], flow.V[rows]
    assert (np.abs(P - P[0]).sum(axis=1) != 1.0).all()
    cert = certify(P, V)
    assert_certified(cert, P, V)
    assert cert.witness == (17, 25)
    line = certify(P, V, worldline=True)
    assert_exact_line_minimum(line, P, V)
    assert line.line_witness == (17, 25)


def _flow_arrays():
    flow = build_flow(arctan_profile(), Window.square(3), 0.5).configuration
    return flow.P.copy(), flow.V.copy()


def _nudged():
    P, V = _flow_arrays()
    V[20, 1] = np.nextafter(V[20, 1], np.inf)  # V1 no longer a function of x1
    return P, V


def _swapped():
    P, V = _flow_arrays()
    return P, V[:, ::-1].copy()


def _shared_position():
    P, V = _flow_arrays()
    P[9] = P[8]
    return P, V


def _duplicate_row():
    # One particle twice: the velocity structure still holds.
    P, V = _flow_arrays()
    return np.vstack((P, P[:1])), np.vstack((V, V[:1]))


# Rows 1 and 2 are a unit axis pair; rows 0 and 1 are closer than 1.
CLOSE_V = np.array([[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])


def _inexact_gap():
    # 1.0 - 2**-60 rounds to 1.0, but the exact gap is below 1.
    return np.array([[2.0 ** -60, 0.0], [1.0, 0.0], [1.0, 1.0]]), CLOSE_V


def _close_columns():
    return np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 1.0]]), CLOSE_V


BLOCK = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])


def _flat_v0():
    # V0 constant, so not strictly increasing in x2; V1 = -x1 is fine.
    return BLOCK, np.column_stack((np.zeros(4), -BLOCK[:, 0]))


def _flat_v1():
    # V1 constant, so not strictly decreasing in x1; V0 = x2 is fine.
    return BLOCK, np.column_stack((BLOCK[:, 1], np.zeros(4)))


def _velocity_overflow():
    # dv0 = 2e308 overflows, so the witness would get no finite time.
    return np.array([[0.0, 0.0], [0.0, 1.0]]), np.array([[-1e308, 0.0], [1e308, 0.0]])


def _rows(text):
    A = np.array([[float(v) for v in line.split(",")]
                  for line in text.splitlines()[1:]])
    return A[:, :2], A[:, 2:]


@pytest.mark.parametrize("case", [
    _nudged, _swapped, _shared_position, _duplicate_row, _inexact_gap,
    _close_columns, _flat_v0, _flat_v1, _velocity_overflow,
    lambda: _rows("particles v1\n0,0,0,0\n1e200,1e200,-1e200,-1e200\n"),
    lambda: _rows("particles v1\n0,0,1e300,0\n1e300,1e300,0,1e300\n"),
], ids=["nudged", "swapped", "shared-position", "duplicate-row", "inexact-gap",
        "close-columns", "flat-v0", "flat-v1", "velocity-overflow",
        "head-on-huge", "perpendicular-huge"])
def test_certificate_refuses(case):
    P, V = case()
    if case is _duplicate_row:
        # A particle given twice never reaches the certificate: the
        # configuration refuses it.
        with pytest.raises(IdenticalParticleError):
            configuration(P, V)
        return
    assert certify(P, V) is None
    assert certify(P, V, worldline=True) is None


def test_certificate_accepts_exact_unit_gaps_off_the_integers():
    P = np.array([[0.5, 0.25], [1.5, 0.25]])
    V = np.array([[0.0, 1.0], [0.0, -1.0]])
    cert = certify(P, V)
    assert (cert.min_distance, cert.witness) == (1.0, (0, 1))


def test_certificate_names_the_exact_minimizer():
    # Pair (0, 1) is 1 + 2**-60 apart in x1, which rounds to 1.0, so the
    # float engine reports it first; its exact closest approach exceeds 1.
    # The exact minimum 1 is attained only at the unit axis pair (1, 2).
    P = np.array([[-2.0 ** -60, 0.0], [1.0, 0.0], [1.0, 1.0]])
    V = np.array([[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
    scan = _pairscan.scan(P, V)
    assert (scan.min_distance, scan.witness) == (1.0, (0, 1))
    cert = certify(P, V)
    assert (cert.min_distance, cert.witness) == (1.0, (1, 2))


# The worldline certificate: the exact minimum 1/sqrt(1 + S^2).

def exact_line_minimum(P, V):
    """Exact minimum squared worldline distance and its smallest minimiser."""
    Pl, Vl = P.tolist(), V.tolist()
    best, pair = None, None
    for i in range(len(Pl)):
        for j in range(i + 1, len(Pl)):
            value = exact_line_distance_sq(Pl, Vl, i, j)
            if best is None or value < best:
                best, pair = value, (i, j)
    return best, pair


def assert_rounded_down(x, exact_sq):
    """x is the largest double not above the square root of exact_sq."""
    assert x > 0.0
    assert Fraction(x) ** 2 <= exact_sq < Fraction(math.nextafter(x, math.inf)) ** 2


def largest_shared_component(P, V):
    """S over the kinds of pair that occur: V0, shared by the pairs of one
    x2 row, counts when the rows hold two or more x1 values; V1, shared by
    the pairs of one x1 column, when they hold two or more x2 values."""
    return Fraction(max(float(np.abs(V[:, k]).max()) for k in (0, 1)
                        if len(set(P[:, k].tolist())) > 1))


def assert_exact_line_minimum(cert, P, V):
    exact_sq, pair = exact_line_minimum(P, V)
    assert cert.line_witness == pair
    assert_rounded_down(cert.line_distance, exact_sq)
    s = largest_shared_component(P, V)
    assert exact_sq == 1 / (1 + s * s)
    # The closest-approach half is the plain certificate's.
    assert dataclasses.replace(cert, line_distance=None, line_witness=None) == \
        certify(P, V)


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_worldline_certificate_is_the_exact_minimum_on_windows(name):
    for n in range(5):
        flow = build_flow(PROFILES[name], Window.square(n), 0.5).configuration
        cert = certify(flow.P, flow.V, worldline=True)
        if n == 0:
            assert cert is None
            continue
        assert_exact_line_minimum(cert, flow.P, flow.V)


@settings(max_examples=100, deadline=None)
@given(lattice_rows())
def test_worldline_certificate_on_shuffled_and_sparse_rows(rows):
    P, V = rows
    cert = certify(P, V, worldline=True)
    if certify(P, V) is None:
        assert cert is None
        return
    # Refused exactly when no pair attains the bound, e.g. when the rows
    # attaining S lost their unit axis neighbours.
    s = largest_shared_component(P, V)
    exact_sq, _ = exact_line_minimum(P, V)
    assert exact_sq >= 1 / (1 + s * s)
    if exact_sq > 1 / (1 + s * s):
        assert cert is None
    else:
        assert_exact_line_minimum(cert, P, V)


def exact_closest_sq(P, V, i, j) -> Fraction:
    """The squared closest approach of rows i and j, (d x dv)^2 / |dv|^2,
    in rationals on the given doubles."""
    d = [Fraction(a) - Fraction(b) for a, b in zip(P[j].tolist(), P[i].tolist())]
    dv = [Fraction(a) - Fraction(b) for a, b in zip(V[j].tolist(), V[i].tolist())]
    return (d[0] * dv[1] - d[1] * dv[0]) ** 2 / (dv[0] ** 2 + dv[1] ** 2)


@st.composite
def window_subsets(draw):
    """Rows of a flow on a square window of up to N = 32 (4,225 points): a
    rectangle of up to 8 x 8 of its points anywhere in it, thinned and
    shuffled, and the whole window, shuffled."""
    n = draw(st.integers(0, 32))
    # The table covers -12..12; tanh saturates in double precision past 19.
    profile = draw(st.sampled_from(["arctan", "rational"] + ["tanh"] * (n <= 19)
                                   + ["table"] * (n <= 12)))
    flow = build_flow(PROFILES[profile], Window.square(n), 0.5).configuration
    side = 2 * n + 1
    x0, y0 = draw(st.integers(0, side - 1)), draw(st.integers(0, side - 1))
    width = draw(st.integers(1, min(8, side - x0)))
    height = draw(st.integers(1, min(8, side - y0)))
    rows = [i * side + j for i in range(x0, x0 + width) for j in range(y0, y0 + height)]
    if draw(st.booleans()):
        rows = [k for k in rows if draw(st.booleans())]
    rows = draw(st.permutations(rows))
    return flow.P[rows], flow.V[rows]


def _tanh_window_15_rows(n):
    """The first n rows of the tanh flow on window 15: x1 = -15 and x2 from
    -15 up. Neighbouring rows share V1, and their V0 differ by about
    1.2e-12."""
    flow = build_flow(tanh_profile(), Window.square(15), 0.5).configuration
    assert flow.P[:n].tolist() == [[-15.0, -15.0 + k] for k in range(n)]
    return flow.P[:n], flow.V[:n]


@settings(max_examples=100, deadline=None)
@given(window_subsets())
@example(_tanh_window_15_rows(2))
# The exact minimiser is (0, 1), which an engine that took nearly parallel
# worldlines as parallel read as 0.8046, and (2, 3) the same double as the
# certificate's minimum.
@example(_tanh_window_15_rows(4))
def test_certificate_matches_engine_and_oracles_on_window_subsets(rows):
    """The certificate's result and both its witnesses on rows of flows at
    windows up to 32, against the engine on the same rows and the
    brute-force oracles: the smallest unit axis pair, and the exact
    worldline minimum and its smallest minimiser."""
    P, V = rows
    cert, line = certify(P, V), certify(P, V, worldline=True)
    if smallest_unit_axis_pair(P) is None:
        assert cert is line is None
        return
    assert_certified(cert, P, V)
    # The certificate decides whatever the limit on the engine's pairs.
    with mock.patch.object(geometry, "EXHAUSTIVE_LIMIT", 0):
        assert configuration(P, V).decide() == cert
    engine = _pairscan.scan(P, V, worldline=True)
    assert (engine.pairs_total, engine.pairs_checked) == \
        (cert.pairs_total, cert.pairs_checked)
    # A unit axis pair is exactly 1.0 in floats too; the engine's witness
    # may be another pair that rounds to 1.0 or below, but exactly it is
    # not below 1.
    assert engine.min_distance <= 1.0
    assert engine.min_distance == pytest.approx(1.0, abs=1e-12)
    assert exact_closest_sq(P, V, *cert.witness) == 1
    assert exact_closest_sq(P, V, *engine.witness) >= 1
    s = largest_shared_component(P, V)
    exact_sq, pair = exact_line_minimum(P, V)
    if exact_sq > 1 / (1 + s * s):
        assert line is None
        return
    assert_exact_line_minimum(line, P, V)
    assert line.line_witness == pair
    assert engine.line_distance == pytest.approx(line.line_distance, rel=1e-12)


def test_engine_measures_nearly_parallel_worldlines_skew():
    """Two worldlines whose directions differ by about 1e-12 are skew,
    exactly 1/sqrt(1 + V1^2) apart, which the certificate gives; taken as
    parallel, they would read 0.80, the distance from one point of one to
    the other."""
    P, V = _tanh_window_15_rows(2)
    line = certify(P, V, worldline=True)
    assert_exact_line_minimum(line, P, V)
    engine = _pairscan.scan(P, V, worldline=True)
    assert engine.line_distance == pytest.approx(line.line_distance, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.tuples(coordinate, coordinate), st.tuples(speed, speed),
       st.integers(0, 1), st.one_of(st.integers(1, 64),
                                    st.floats(1e-16, 1e-6)))
@example((2.0, 0.0), (0.5, -0.25), 0, 1)
@example((0.0, 1.5), (0.0, 0.0), 0, 1)  # dv = (5e-324, 0)
def test_engine_measures_nearly_parallel_worldlines_exactly(y, v, k, apart):
    """Velocities that differ in one component by 1 to 64 ulps, or by a
    relative 1e-16 to 1e-6: the worldlines are skew, and the engine's
    distance is the exact one to within the rounding of the offset."""
    w = list(v)
    if isinstance(apart, int):
        for _ in range(apart):
            w[k] = math.nextafter(w[k], math.inf)
    else:
        w[k] += apart * max(abs(w[k]), 1.0)
    P, V = np.array([[0.0, 0.0], y]), np.array([v, w])
    exact = math.sqrt(exact_line_distance_sq(P, V, 0, 1))
    engine = _pairscan.scan(P, V, worldline=True)
    assert engine.line_distance == pytest.approx(
        exact, rel=1e-12, abs=1e-12 * (1 + math.hypot(*y)))


def test_subnormal_relative_velocity_is_measured_exactly():
    """Row 1 drifts along x1 at 5e-324, 0.75 across from row 0: both its
    closest approach and its worldline distance are exactly 0.75. Unscaled,
    0.75 * 5e-324 rounds up to 1e-323, and both would read 1, a pass for
    verify and cylinders."""
    P = np.array([[0.0, 0.0], [0.0, 0.75]])
    V = np.array([[0.0, 0.0], [5e-324, 0.0]])
    assert exact_closest_sq(P, V, 0, 1) == exact_line_distance_sq(P, V, 0, 1) \
        == Fraction(9, 16)
    scan = _pairscan.scan(P, V, worldline=True)
    assert (scan.min_distance, scan.line_distance) == (0.75, 0.75)
    assert closest_approach(Vec2(0.0, 0.0), Vec2(0.0, 0.0), Vec2(0.0, 0.75),
                            Vec2(5e-324, 0.0)).distance == 0.75


def test_certificate_matches_the_engine_on_a_shuffled_window():
    """Every row of the window-32 flow, shuffled: the certificate's minima
    and witnesses are the engine's on the same rows (8,923,200 pairs)."""
    flow = build_flow(arctan_profile(), Window.square(32), 0.5).configuration
    rows = np.random.default_rng(32).permutation(len(flow))
    P, V = flow.P[rows], flow.V[rows]
    line = certify(P, V, worldline=True)
    engine = _pairscan.scan(P, V, worldline=True)
    assert (line.min_distance, line.witness) == (engine.min_distance, engine.witness)
    assert line.witness == smallest_unit_axis_pair(P)
    assert line.line_distance == pytest.approx(engine.line_distance, rel=1e-12)
    i, j = line.line_witness
    assert_rounded_down(line.line_distance, exact_line_distance_sq(P, V, i, j))


LINE_PROFILES = [arctan_profile(), tanh_profile(), rational_profile(),
                 table_profile((n, n + 0.25 * math.sin(n)) for n in range(-3000, 3001))]


@st.composite
def single_lines(draw):
    """((profile, single row or column of 2 to 13 points at offsets up to
    +-3000, shift margin), an order of its points)."""
    phi = draw(st.sampled_from(LINE_PROFILES))
    length = draw(st.integers(2, 13))
    lo = draw(st.one_of(st.integers(-15, 3), st.integers(-3000, 3001 - length)))
    at = draw(st.integers(-3000, 3000))
    column = draw(st.booleans())
    window = (Window(at, at, lo, lo + length - 1) if column
              else Window(lo, lo + length - 1, at, at))
    margin = draw(st.sampled_from([0.0, 0.5, 2.0]))
    return (phi, window, margin), draw(st.permutations(range(length)))


@settings(max_examples=100, deadline=None)
@given(single_lines())
# The engine reads 0.602170129585289 at (2, 3); exactly, the minimum lies
# at (0, 1), and rounded down it is 0.6021701295852891.
@example(((arctan_profile(), Window(-4, -4, -6, 6), 0.5), list(range(12, -1, -1))))
def test_single_rows_and_columns_get_the_exact_worldline_minimum(line):
    """Every pair of a single column shares V1, every pair of a single row
    V0, so the exact minimum is 1/sqrt(1 + c^2) at the smallest unit pair.
    The flow gives it from its axes and the certificate from the same rows
    shuffled and read from a file."""
    inputs, order = line
    try:
        flow = build_flow(*inputs).configuration
    except ValueError:
        return  # tanh saturates in double precision
    cert = flow.decide(worldline=True)
    assert "P" not in vars(flow) and "V" not in vars(flow)
    assert cert.mode == "exhaustive-structural"
    assert_exact_line_minimum(cert, flow.P, flow.V)
    P, V = flow.P[order], flow.V[order]
    text = reference_particles_document(P, V)
    cert = MovingConfiguration(*parse_particles(text.encode())).decide(worldline=True)
    assert cert.mode == "exhaustive-structural"
    assert_exact_line_minimum(cert, P, V)


def test_worldline_certificate_needs_a_pair_attaining_s():
    P, V = _flow_arrays()
    # S is attained only along the row x2 = 3; keep every other point of it.
    assert set(P[np.abs(V).max(axis=1) == np.abs(V).max(), 1]) == {3.0}
    keep = ~((P[:, 1] == 3.0) & (P[:, 0] % 2 == 1))
    assert certify(P[keep], V[keep]) is not None
    assert certify(P[keep], V[keep], worldline=True) is None


@pytest.mark.parametrize("s", [0.0, 1e-300, 0.5, 1.0, 2.0, 3.515463243748644,
                               1e8, 1e200, 1.7e308])
def test_inverse_hypot_is_rounded_down(s):
    assert_rounded_down(_inverse_hypot_down(s), 1 / (1 + Fraction(s) ** 2))


def test_worldline_kernel_is_within_four_ulps_of_exact():
    # Velocities of neighbouring tanh columns agree to about 1e-10, where
    # computing v_i x v_j directly cancelled to errors of up to 6e-9.
    flow = build_flow(tanh_profile(), Window.square(10), 0.5).configuration
    P, V = flow.P, flow.V
    ii, jj = np.triu_indices(len(P), 1)
    dx, dv = P[jj] - P[ii], V[jj] - V[ii]
    num = np.abs(dx[:, 1] * dv[:, 0] - dx[:, 0] * dv[:, 1])
    length = np.sqrt(1.0 + V[:, 0] ** 2 + V[:, 1] ** 2)
    line = _pairscan._worldline(dx[:, 0], dx[:, 1], dv[:, 0], dv[:, 1], num,
                                (V[ii, 0], V[ii, 1]), (V[jj, 0], V[jj, 1]),
                                length[ii], length[jj])
    Pl, Vl = P.tolist(), V.tolist()
    low, high = (1 - Fraction(4, 2 ** 52)) ** 2, (1 + Fraction(4, 2 ** 52)) ** 2
    far = [(i, j) for i, j, x in zip(ii.tolist(), jj.tolist(), line.tolist())
           if not low <= Fraction(x) ** 2 / exact_line_distance_sq(Pl, Vl, i, j) <= high]
    assert far == []


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_worldline_kernel_takes_the_shorter_velocity(order):
    # dv = (0, 1) - (1e20, 1e20) rounds to (-1e20, -1e20), parallel to the
    # long velocity: (1e20, 1e20) x dv reads 0, (0, 1) x dv the exact 1e20.
    P = np.array([[0.0, 0.0], [2.0, 0.0]])[list(order)]
    V = np.array([[1e20, 1e20], [0.0, 1.0]])[list(order)]
    exact_sq = exact_line_distance_sq(P, V, 0, 1)
    assert float(exact_sq) == pytest.approx(4 / 3)  # 1.155, not 1.414
    got = _pairscan.scan(P, V, worldline=True).line_distance
    assert abs(Fraction(got) ** 2 / exact_sq - 1) <= Fraction(4, 2 ** 52)
