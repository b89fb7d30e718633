"""Acceptance suite: one test per shipping criterion, one verdict line each.

Run with `pytest tests/test_acceptance.py -v` (add -s to stream the verdict
lines). Every expected value here is either asserted against an independent
oracle from oracles.py or is a closed-form quantity recomputed in place.
"""
import decimal
import math
import os
import random
import subprocess
import sys
import time

import pytest

from freedrift import cylinders as cyl
from freedrift.configuration import MovingConfiguration
from freedrift.evolution import verify_hardcore
from freedrift.falsifier import ViolationReport, builtin_field, falsify
from freedrift.geometry import Vec2, closest_approach
from freedrift.lattice import (
    Window,
    arctan_profile,
    build_flow,
    verify_flow,
)
from oracles import (
    Cone,
    chain_check,
    cone_contains,
    direction_capacity,
    duplicate_velocities,
    exact_chain_failures,
    greedy_direction_packing,
    line_distance_3d,
    line_grid_min_distance,
    scalar_grid_min,
    violation_margin,
)

WINDOW_NS = (1, 5, 25, 50)


def conclude(number: int, name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {number} ({name}): {verdict}"
    if detail and not ok:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def arctan_flows():
    """Shifted arctan flows on {-N..N}^2 plus their verification reports."""
    out = {}
    for n in WINDOW_NS:
        started = time.perf_counter()
        flow = build_flow(arctan_profile(), Window.square(n), 0.5)
        report = verify_flow(flow)
        out[n] = (flow, report, time.perf_counter() - started)
    return out


def test_criterion_1_unit_separation(arctan_flows):
    failures = []
    for n in WINDOW_NS:
        flow, report, elapsed = arctan_flows[n]
        # The structural certificate decides every pair at every window.
        expected_mode = "exhaustive-structural"
        if report.mode != expected_mode:
            failures.append(f"N={n} mode {report.mode}")
        if not report.min_distance >= 1.0:
            failures.append(f"N={n} min {report.min_distance}")
        # axis-adjacent pair must attain the unit bound
        by_site = {tuple(p): (Vec2(*p), Vec2(*v))
                   for p, v in zip(flow.configuration.P.tolist(),
                                   flow.configuration.V.tolist())}
        a, b = by_site[(0.0, 0.0)], by_site[(1.0, 0.0)]
        attained = closest_approach(*a, *b).distance
        if abs(attained - 1.0) > 1e-9:
            failures.append(f"N={n} adjacent {attained}")
        if n == 25 and elapsed > 60.0:
            failures.append(f"N=25 took {elapsed:.1f}s")
    conclude(1, "all-time pair separation >= 1 on arctan windows",
             not failures, "; ".join(failures))


def test_criterion_2_chain_inequality(arctan_flows):
    failures = []
    for n in WINDOW_NS:
        flow, report, _ = arctan_flows[n]
        if not report.chain_dot_margin >= -1e-12:
            failures.append(f"N={n} dot {report.chain_dot_margin}")
        if not report.chain_norm_margin >= -1e-12:
            failures.append(f"N={n} norm {report.chain_norm_margin}")
        if report.chain_failure_count:
            failures.append(f"N={n} {report.chain_failure_count} failures")
        # The chain rests on injective velocities: check them on the rows.
        duplicates, _ = duplicate_velocities(flow.configuration.V.tolist())
        if duplicates:
            failures.append(f"N={n} {duplicates} equal velocities")
    # The report margins are the proof's constants, so recompute the chain
    # <d, dW> >= |dW0| + |dW1| exactly on every pair of the small windows.
    for n in (1, 5):
        flow = arctan_flows[n][0]
        failures += [f"N={n} exact chain at pair {pair}" for pair in exact_chain_failures(
            flow.configuration.P, flow.configuration.V, flow.shift)]
    conclude(2, "componentwise chain inequality on arctan windows",
             not failures, "; ".join(failures))


def test_criterion_3_shift_invariance_and_speed_bounds():
    failures = []
    margins = (0.0, 0.5, 10.0)
    reports = {}
    for margin in margins:
        flow = build_flow(arctan_profile(), Window.square(2), margin)
        report = verify_flow(flow)
        reports[margin] = (flow, report)
        low_ok = report.speed_measured_min >= margin - 1e-12
        w_cap = math.sqrt(2.0) * (math.pi / 2.0)
        cap = math.hypot(flow.shift.x1, flow.shift.x2) + w_cap
        high_ok = report.speed_measured_max <= cap + 1e-12
        if not (low_ok and high_ok):
            failures.append(f"margin={margin} speeds "
                            f"[{report.speed_measured_min}, "
                            f"{report.speed_measured_max}]")
    mins = [reports[m][1].min_distance for m in margins]
    scale = max(abs(v) for v in mins)
    if max(mins) - min(mins) > 1e-12 * scale:
        failures.append(f"min distances differ: {mins}")
    conclude(3, "shift leaves separations unchanged within speed bounds",
             not failures, "; ".join(failures))


def test_criterion_4_worldline_distance_floor():
    failures = []
    flow = build_flow(arctan_profile(), Window.square(2), 0.5)
    config = flow.configuration
    report = verify_flow(flow)
    speed_cap = report.speed_measured_max
    floor = cyl.lemma1_bound(speed_cap)
    scene_report = cyl.verify_scene(config, floor / 2.0)
    if not scene_report.min_line_distance >= floor:
        failures.append(f"line min {scene_report.min_line_distance} "
                        f"< floor {floor}")

    # independent grid oracle vs the closed form on random line pairs
    lines = [((x1, x2, 0.0), (v1, v2, 1.0))
             for (x1, x2), (v1, v2) in zip(config.P.tolist(), config.V.tolist())]
    rng = random.Random(41)
    worst = 0.0
    for _ in range(100):
        i, j = rng.sample(range(len(lines)), 2)
        (p1, d1), (p2, d2) = lines[i], lines[j]
        closed = line_distance_3d(p1, d1, p2, d2)
        gridded = line_grid_min_distance(p1, d1, p2, d2)
        worst = max(worst, abs(closed - gridded))
    if worst > 1e-6:
        failures.append(f"line oracle gap {worst}")

    # scalar reduction: min over u of (1 - M u)^2 + u^2 equals 1/(1 + M^2)
    rng = random.Random(42)
    worst = 0.0
    for _ in range(1000):
        m = rng.uniform(0.0, 10.0)
        value, _ = scalar_grid_min(m)
        worst = max(worst, abs(value - 1.0 / (1.0 + m * m)))
    if worst > 1e-8:
        failures.append(f"scalar oracle gap {worst}")
    conclude(4, "worldline distances meet the 1/sqrt(1+M^2) floor",
             not failures, "; ".join(failures))


def test_criterion_5_nonparallel_directions():
    failures = []
    flow = build_flow(arctan_profile(), Window.square(2), 0.5)
    report = cyl.verify_scene(flow.configuration, 0.05)
    if report.duplicate_direction_pairs or not report.nonparallel_ok:
        failures.append(f"flow scene duplicates "
                        f"{report.duplicate_direction_pairs}")

    injected = MovingConfiguration([0.0, 0.0, 0.0, 3.0, 10.0, 0.0],
                                   [0.5, 0.25, 0.5, 0.25, 0.5, -0.25])
    if not verify_hardcore(injected, 1.0).passed:
        failures.append("injected configuration lost hard-core")
    dup_report = cyl.verify_scene(injected, 0.05)
    if dup_report.nonparallel_ok or \
            (0, 1) not in dup_report.duplicate_direction_pairs:
        failures.append(f"duplicate missed: "
                        f"{dup_report.duplicate_direction_pairs}")
    conclude(5, "scene directions pairwise distinct, duplicates detected",
             not failures, "; ".join(failures))


def test_criterion_6_falsifier_breaks_every_family():
    failures = []
    for name in ("constant", "radial", "rotational", "linear"):
        for c in (1e-4, 3e-4, 0.05, 0.1, 0.5):
            field = builtin_field(name)
            started = time.perf_counter()
            result = falsify(field, c, budget=10 ** 6)
            elapsed = time.perf_counter() - started
            tag = f"{name}/c={c}"
            if not isinstance(result, ViolationReport):
                failures.append(f"{tag} exhausted")
                continue
            if result.evaluations_used > 10 ** 6:
                failures.append(f"{tag} over budget")
            if result.evaluations_used > 2000:
                failures.append(f"{tag} took {result.evaluations_used} "
                                "evaluations")
            if elapsed > 30.0:
                failures.append(f"{tag} took {elapsed:.1f}s")
            again = violation_margin(field, c, result.x, result.y)
            if abs(again - result.margin) > \
                    1e-12 * max(abs(result.margin), 1e-300):
                failures.append(f"{tag} margin mismatch {again} "
                                f"vs {result.margin}")
    conclude(6, "every candidate family yields a verified violation",
             not failures, "; ".join(failures))


def test_criterion_6_radial_hits_hold_for_the_field_itself():
    # The radial field w(p) = p / sqrt(1 + |p|^2) and the margin
    # c |dw| - |<x-y, dw>| in 50-digit decimals on the reported doubles:
    # the hits are violations of the field, not of its rounding.
    failures = []
    with decimal.localcontext() as ctx:
        ctx.prec = 50

        def w(p1, p2):
            f = 1 / (1 + p1 * p1 + p2 * p2).sqrt()
            return f * p1, f * p2

        for c in (1e-4, 3e-4):
            result = falsify(builtin_field("radial"), c, budget=10 ** 6)
            if not isinstance(result, ViolationReport):
                failures.append(f"c={c} exhausted")
                continue
            x1, x2, y1, y2 = map(decimal.Decimal, (result.x.x1, result.x.x2,
                                                   result.y.x1, result.y.x2))
            (a1, a2), (b1, b2) = w(x1, x2), w(y1, y2)
            e1, e2 = a1 - b1, a2 - b2
            margin = (decimal.Decimal(c) * (e1 * e1 + e2 * e2).sqrt()
                      - abs((x1 - y1) * e1 + (x2 - y2) * e2))
            if not margin > 0:
                failures.append(f"c={c} margin {margin}")
    conclude(6, "radial hits at small c hold in 50-digit arithmetic",
             not failures, "; ".join(failures))


def test_criterion_7_segment_split_and_cone_convexity():
    failures = []
    field = builtin_field("constant")
    for length in (1.1, 2.0, 7.0, 100.0):
        n = math.ceil(length / 2.0)
        step = length / n
        if not (1.0 < step <= 2.0):
            failures.append(f"L={length} step {step}")
        report = chain_check(field, Vec2(length, 0.0), Vec2(0.0, 0.0), 0.4)
        if report.n != n or report.step_length != step:
            failures.append(f"L={length} chain split {report.n}")

    rng = random.Random(43)
    for aperture_cos in (0.025, 0.5):
        cone = Cone(Vec2(0.6, -0.8), aperture_cos)
        angle0 = math.atan2(cone.axis.x2, cone.axis.x1)
        spread = 0.999 * cone.half_angle
        for _ in range(5000):
            zs = []
            for _ in range(2):
                theta = angle0 + rng.uniform(-spread, spread)
                r = rng.uniform(0.1, 10.0)
                zs.append(Vec2(r * math.cos(theta), r * math.sin(theta)))
            for z in zs:
                if not cone_contains(cone, z).member:
                    failures.append(f"a={aperture_cos} member construction")
            total = Vec2(zs[0].x1 + zs[1].x1, zs[0].x2 + zs[1].x2)
            if cone_contains(cone, total).margin < -1e-12:
                failures.append(f"a={aperture_cos} sum left the cone")
        if failures:
            break
    conclude(7, "segment splitting lands in (1, 2] and cones are convex",
             not failures, "; ".join(failures[:3]))


def test_criterion_8_direction_capacity():
    capacity = direction_capacity(0.05)
    packed = greedy_direction_packing(math.asin(0.05))
    arithmetic = math.floor(math.pi / math.asin(0.05))
    ok = capacity == 62 and packed == 62 and arithmetic == 62
    conclude(8, "direction capacity at aperture 0.05 is 62",
             ok, f"capacity={capacity} packed={packed}")


def test_criterion_9_seeded_runs_byte_identical(tmp_path):
    jobs = (
        ("assign", ["--command", "assign", "--window", "2"],
         ("particles.txt", "assign_report.txt")),
        ("verify", ["--command", "verify", "--window", "2"],
         ("report.txt", "flow_report.txt")),
        ("evolve", ["--command", "evolve", "--window", "1", "--frames", "3"],
         ("frames.csv", "frame0000.svg", "frame0001.svg", "frame0002.svg")),
        ("cylinders", ["--command", "cylinders", "--window", "2"],
         ("scene.txt", "cylinder_report.txt")),
        ("falsify", ["--command", "falsify", "--field", "radial",
                     "--c", "0.05"], ("falsify_report.txt",)),
    )
    failures = []
    for name, args, outputs in jobs:
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}"
            run = subprocess.run(
                [sys.executable, "-m", "freedrift.cli", *args,
                 "--seed", "7", "--out", str(out)],
                capture_output=True, text=True)
            if run.returncode not in (0, 1):
                failures.append(f"{name} exit {run.returncode}")
            dirs.append(out)
        for rel in outputs:
            with open(dirs[0] / rel, "rb") as fa, \
                    open(dirs[1] / rel, "rb") as fb:
                if fa.read() != fb.read():
                    failures.append(f"{name}/{rel} differs")
        listed = sorted(os.listdir(dirs[0]))
        if listed != sorted(outputs):
            failures.append(f"{name} emitted {listed}")
    conclude(9, "reruns with one seed emit byte-identical files",
             not failures, "; ".join(failures))
