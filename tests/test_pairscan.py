"""The pair engine against per-pair formulas and the brute-force oracles.

Tiles are shrunk to a few pairs so that minima, ties and chain failures
fall across tile boundaries. `reference` evaluates every pair at once with
the per-pair gather formulas the engine's kernels must reproduce bit for
bit; `geometry` and `oracles` check the values independently.
"""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freedrift import _pairscan
from freedrift.geometry import (
    PARALLEL_EPS,
    Vec2,
    Vec3,
    closest_approach,
    line_distance_3d,
)
from freedrift.lattice import Window, arctan_profile, build_flow, recovered_field
from oracles import line_grid_min_distance, time_grid_min_distance

TILES = (1, 2, 3, 5, 8, 1 << 13)
TOL = 1e-12


def scan_tiled(tile, *args, **kwargs):
    with mock.patch.object(_pairscan, "TILE_PAIRS", tile):
        return _pairscan.scan(*args, **kwargs)


def reference(P, V, W):
    """Every pair in lexicographic order, by per-pair gathers."""
    ii, jj = np.triu_indices(len(P), 1)
    dx = P[jj] - P[ii]
    dv = V[jj] - V[ii]
    num = np.abs(dx[:, 1] * dv[:, 0] - dx[:, 0] * dv[:, 1])
    dv_norm = np.hypot(dv[:, 0], dv[:, 1])
    static = dv_norm == 0.0
    closest = np.where(static, np.hypot(dx[:, 0], dx[:, 1]),
                       num / np.where(static, 1.0, dv_norm))

    a, b = V[ii], V[jj]
    n1 = a[:, 1] - b[:, 1]
    n2 = b[:, 0] - a[:, 0]
    n3 = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    cross_norm = np.sqrt(n1 * n1 + n2 * n2 + n3 * n3)
    len_a = np.sqrt(1.0 + a[:, 0] ** 2 + a[:, 1] ** 2)
    len_b = np.sqrt(1.0 + b[:, 0] ** 2 + b[:, 1] ** 2)
    parallel = cross_norm < PARALLEL_EPS * len_a * len_b
    back = P[ii] - P[jj]
    skew = (np.abs((-back[:, 0]) * n1 + (-back[:, 1]) * n2)
            / np.where(parallel, 1.0, cross_norm))
    c3 = -back[:, 0] * a[:, 1] + back[:, 1] * a[:, 0]
    point_line = np.sqrt(back[:, 1] ** 2 + back[:, 0] ** 2 + c3 * c3) / len_a
    line = np.where(parallel, point_line, skew)

    dw = W[jj] - W[ii]
    dot = dx[:, 0] * dw[:, 0] + dx[:, 1] * dw[:, 1]
    l1 = np.abs(dw[:, 0]) + np.abs(dw[:, 1])
    l2 = np.hypot(dw[:, 0], dw[:, 1])
    m1, m2 = dot - l1, l1 - l2
    bad = np.flatnonzero((m1 < -TOL) | (m2 < -TOL))

    def best(x):
        k = int(np.argmin(x))  # first minimum: the smallest pair
        return float(x[k]), (int(ii[k]), int(jj[k]))

    return {
        "closest": best(closest),
        "line": best(line),
        "margins": (float(m1.min()), float(m2.min())),
        "failures": tuple((int(ii[k]), int(jj[k])) for k in bad[:16]),
        "failure_count": len(bad),
    }


coordinate = st.floats(-50.0, 50.0, allow_nan=False)
speed = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def configurations(draw):
    """(P, V, W) of distinct particles, in one of several shapes."""
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
        # Far below or far above the parallel threshold, never near it.
        scale = draw(st.sampled_from([0.0, 1e-14, 1e-10]))
        signs = draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]),
                              min_size=2 * n, max_size=2 * n))
        V = base + scale * np.array(signs).reshape(n, 2)
    else:
        V = np.array(draw(st.lists(st.tuples(speed, speed),
                                   min_size=n, max_size=n)), dtype=float).reshape(n, 2)
    if shape == "lattice":
        V = np.round(V)  # many equal velocities and tied distances
    W = np.array(draw(st.lists(st.tuples(speed, speed), min_size=n, max_size=n)),
                 dtype=float).reshape(n, 2)
    return P, V, W


@settings(max_examples=150, deadline=None)
@given(configurations(), st.sampled_from(TILES))
def test_engine_matches_reference_bit_for_bit(config, tile):
    P, V, W = config
    n = len(P)
    scan = scan_tiled(tile, P, V, W, worldline=True, chain_tolerance=TOL)
    assert scan.pairs_total == scan.pairs_checked == n * (n - 1) // 2
    assert scan.mode == "exhaustive" and scan.seed is None
    if n < 2:
        assert (scan.min_distance, scan.witness) == (math.inf, None)
        assert (scan.line_distance, scan.line_witness) == (math.inf, None)
        assert (scan.dot_margin, scan.norm_margin) == (math.inf, math.inf)
        assert (scan.failures, scan.failure_count) == ((), 0)
        return
    ref = reference(P, V, W)
    assert (scan.min_distance, scan.witness) == ref["closest"]
    assert (scan.line_distance, scan.line_witness) == ref["line"]
    assert (scan.dot_margin, scan.norm_margin) == ref["margins"]
    assert scan.failures == ref["failures"]
    assert scan.failure_count == ref["failure_count"]


# Two static particles 6.26e-29 apart merge into one in the 1e8 shift.
MERGED = (np.array([[0.0, 0.0], [0.0, 6.26e-29]]), np.zeros((2, 2)),
          np.zeros((2, 2)))


@settings(max_examples=60, deadline=None)
@given(configurations(), st.sampled_from(TILES), st.sampled_from([1e8, -1e8]))
@example(MERGED, 1, 1e8)
def test_coordinates_around_1e8(config, tile, offset):
    """Far from the origin the engine still matches the per-pair reference
    bit for bit and the scalar formulas closely; integer points shift
    exactly, so there every value and witness is unchanged."""
    P, V, W = config
    far = P + offset
    n = len(P)
    scan = scan_tiled(tile, far, V, W, worldline=True, chain_tolerance=TOL)
    if n < 2:
        return
    ref = reference(far, V, W)
    assert (scan.min_distance, scan.witness) == ref["closest"]
    assert (scan.line_distance, scan.line_witness) == ref["line"]
    assert (scan.dot_margin, scan.norm_margin) == ref["margins"]
    assert scan.failures == ref["failures"]
    assert scan.failure_count == ref["failure_count"]

    def scalar_distance(i, j):
        # Points closer than the spacing of doubles near 1e8 merge in the
        # shift; a merged pair with equal velocities is one particle twice,
        # which the scalar formula refuses. It is static at dx = 0, so its
        # distance is 0.
        if np.array_equal(far[i], far[j]) and np.array_equal(V[i], V[j]):
            return 0.0
        return closest_approach(Vec2(*far[i]), Vec2(*V[i]),
                                Vec2(*far[j]), Vec2(*V[j])).distance

    closest = min(scalar_distance(i, j)
                  for i in range(n) for j in range(i + 1, n))
    assert scan.min_distance == pytest.approx(closest, rel=1e-12, abs=1e-12)
    if np.array_equal(P, np.round(P)):
        near = scan_tiled(tile, P, V, W, worldline=True, chain_tolerance=TOL)
        assert near == scan


@settings(max_examples=60, deadline=None)
@given(configurations(), st.sampled_from(TILES))
def test_engine_matches_scalar_formulas_and_oracles(config, tile):
    P, V, _ = config
    n = len(P)
    if n < 2:
        return
    scan = scan_tiled(tile, P, V, worldline=True)
    closest = {}
    line = {}
    for i in range(n):
        for j in range(i + 1, n):
            x, vx = Vec2(*P[i]), Vec2(*V[i])
            y, vy = Vec2(*P[j]), Vec2(*V[j])
            closest[i, j] = closest_approach(x, vx, y, vy).distance
            line[i, j] = line_distance_3d(
                Vec3(x.x1, x.x2, 0.0), Vec3(vx.x1, vx.x2, 1.0),
                Vec3(y.x1, y.x2, 0.0), Vec3(vy.x1, vy.x2, 1.0))
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
    flow = build_flow(arctan_profile(), Window.square(3), 0.5)
    P, V = flow.P, flow.V
    for velocities in (V, np.zeros_like(V)):
        scan = scan_tiled(tile, P, velocities, recovered_field(flow))
        assert (scan.min_distance, scan.witness) == (1.0, (0, 1))
        assert scan.failure_count == 0


@pytest.mark.parametrize("tile", TILES)
def test_first_sixteen_chain_failures_in_order(tile):
    n = 10
    P = np.column_stack((np.arange(n, dtype=float), np.zeros(n)))
    W = -P  # a decreasing field: every pair breaks the chain
    scan = scan_tiled(tile, P, np.zeros_like(P), W)
    expected = [(i, j) for i in range(n) for j in range(i + 1, n)]
    assert scan.failure_count == len(expected) == 45
    assert scan.failures == tuple(expected[:16])
    assert scan.dot_margin == -(n - 1) ** 2 - (n - 1)


def test_one_and_two_particles():
    one = _pairscan.scan(np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 2)),
                         worldline=True)
    assert (one.pairs_total, one.pairs_checked, one.mode) == (0, 0, "exhaustive")
    assert (one.min_distance, one.witness, one.line_distance) == (math.inf, None, math.inf)
    assert (one.dot_margin, one.failures) == (math.inf, ())
    P = np.array([[-2.0, 0.0], [2.0, 0.5]])
    V = np.array([[1.0, 0.0], [-1.0, 0.0]])
    two = _pairscan.scan(P, V, worldline=True)
    assert (two.pairs_total, two.pairs_checked) == (1, 1)
    assert (two.min_distance, two.witness, two.line_witness) == (0.5, (0, 1), (0, 1))
    assert two.dot_margin is None and two.failure_count == 0


def test_sampled_pass_keeps_its_draws():
    # Pinned from the per-kernel scans this engine replaced: same seeded
    # stream, same chunks (two here), same tie rule, same failure order.
    flow = build_flow(arctan_profile(), Window.square(3), 0.5)
    P, V = flow.P, flow.V
    scan = _pairscan.scan(P, V, -recovered_field(flow), worldline=True,
                          exhaustive_limit=0, sample_budget=(1 << 18) + 1000,
                          seed=0x5EED)
    assert (scan.pairs_total, scan.pairs_checked) == (1176, 263144)
    assert (scan.mode, scan.seed) == ("sampled", 0x5EED)
    assert (scan.min_distance, scan.witness) == (1.0, (0, 1))
    assert (scan.line_distance, scan.line_witness) == (0.2736033736705343, (6, 13))
    assert (scan.dot_margin, scan.norm_margin) == (-34.973281627151124, 0.0)
    assert scan.failure_count == 263144
    assert scan.failures == (
        (15, 34), (6, 31), (10, 33), (45, 48), (14, 35), (10, 15), (17, 44),
        (24, 30), (3, 10), (21, 23), (9, 14), (0, 5), (6, 21), (30, 38),
        (11, 15), (2, 27))


@pytest.mark.parametrize("exhaustive_limit", [_pairscan.EXHAUSTIVE_LIMIT, 0])
@pytest.mark.parametrize("rows, worldline, message", [
    # Head-on at 1e200: the cross term is inf - inf.
    ([[0, 0, 0, 0], [1e200, 1e200, -1e200, -1e200]], False,
     r"closest approach of pair \(0, 1\) is nan"),
    # Perpendicular at 1e300: the cross term overflows to inf, which must
    # not hide behind the finite minimum of pair (0, 1).
    ([[0, 0, 0, 0], [0, 0.5, 0, 0], [1e300, 1e300, -1e300, 1e300]], False,
     r"closest approach of pair \(0, 2\) is inf"),
    # Parallel after underflow, and the offset squared overflows.
    ([[0, 0, 0, 0], [1e200, 0, 0, 1e-200]], True,
     r"worldline distance of pair \(0, 1\) is inf"),
])
def test_non_finite_kernel_value_names_the_pair(rows, worldline, message,
                                                 exhaustive_limit):
    A = np.array(rows, dtype=float)
    with pytest.raises(ValueError, match=message):
        _pairscan.scan(A[:, :2], A[:, 2:], worldline=worldline,
                       exhaustive_limit=exhaustive_limit, sample_budget=1000)


def test_non_finite_chain_margin_names_the_pair():
    P = np.array([[0.0, 0.0], [1e200, 0.0]])
    W = np.array([[0.0, 0.0], [1e200, 0.0]])
    with pytest.raises(ValueError, match=r"chain dot margin of pair \(0, 1\)"):
        _pairscan.scan(P, np.eye(2), W)
