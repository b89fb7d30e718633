"""Checks of the files one CLI invocation emitted.

Every check recomputes what it can with the benchmark's own formulas and
never imports freedrift, so a defect in the program cannot hide in a shared
helper. Each check returns a list of problems; an empty list is a pass.
"""
from __future__ import annotations

import hashlib
import math
from pathlib import Path

DISTANCE_TOL = 1e-9


def parse_report(path: Path) -> dict[str, str]:
    """`report v1` key = value pairs; raises ValueError on a bad header."""
    lines = path.read_text().splitlines()
    if not lines or lines[0].strip() != "report v1":
        raise ValueError(f"{path.name}: missing 'report v1' header")
    out = {}
    for line in lines[1:]:
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


def read_particle_rows(path: Path) -> list[tuple[float, float, float, float]]:
    lines = path.read_text().splitlines()
    if not lines or lines[0].strip() != "particles v1":
        raise ValueError(f"{path.name}: missing 'particles v1' header")
    rows = []
    for line in lines[1:]:
        if line.strip():
            x1, x2, v1, v2 = (float(f) for f in line.split(","))
            rows.append((x1, x2, v1, v2))
    return rows


def closest_approach(a, b) -> float:
    """Infimum over all real t of |(xa + t va) - (xb + t vb)|, by projection."""
    dx1, dx2 = b[0] - a[0], b[1] - a[1]
    dv1, dv2 = b[2] - a[2], b[3] - a[3]
    speed2 = dv1 * dv1 + dv2 * dv2
    t = 0.0 if speed2 == 0.0 else -(dx1 * dv1 + dx2 * dv2) / speed2
    return math.hypot(dx1 + t * dv1, dx2 + t * dv2)


def radial_field(x1: float, x2: float) -> tuple[float, float]:
    """The built-in `radial` field: w(p) = p / sqrt(1 + |p|^2)."""
    f = 1.0 / math.sqrt(1.0 + x1 * x1 + x2 * x2)
    return f * x1, f * x2


def claims_every_pair(mode: str) -> bool:
    """`exhaustive` claims every pair today; a mode named `exhaustive-<how>`
    (for instance bounded by block lower bounds) makes the same claim."""
    return mode == "exhaustive" or mode.startswith("exhaustive-")


def certified_pairs(report: dict[str, str]) -> int:
    """Pairs a report vouches for: all of them, unless it only sampled."""
    return int(report["pairs_total"]) if claims_every_pair(report["mode"]) else 0


def tree_digest(directory: Path) -> str:
    """One hash over every file name and its bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _exit(code: int, expected: int) -> list[str]:
    return [] if code == expected else [f"exit code {code}, expected {expected}"]


def _at_least(report, key, floor, problems):
    value = float(report[key])
    if not value >= floor:
        problems.append(f"{key} = {value} < {floor}")
    return value


def _exhaustive_consistent(report, problems):
    if certified_pairs(report) and report["pairs_checked"] != report["pairs_total"]:
        problems.append(f"mode {report['mode']} checked {report['pairs_checked']}"
                        f" of {report['pairs_total']} pairs")


def check_assign(out: Path, code: int, particle_count: int) -> list[str]:
    problems = _exit(code, 0)
    if problems:
        return problems
    rows = read_particle_rows(out / "particles.txt")
    report = parse_report(out / "assign_report.txt")
    if len(rows) != particle_count:
        problems.append(f"particles.txt has {len(rows)} rows, expected {particle_count}")
    if int(report["particle_count"]) != particle_count:
        problems.append(f"assign_report particle_count {report['particle_count']}")
    return problems


def check_verify(out: Path, code: int, particle_count: int,
                 input_rows=None) -> list[str]:
    """report.txt always; flow_report.txt when verify built the flow itself.

    On a lattice window (input_rows None) axis-adjacent pairs attain the
    closed-form minimum of exactly 1. On a particles file the reported
    witness rows must reproduce the reported distance.
    """
    problems = _exit(code, 0)
    if problems:
        return problems
    report = parse_report(out / "report.txt")
    if report["passed"] != "true":
        problems.append("report.txt: passed != true")
    if int(report["particle_count"]) != particle_count:
        problems.append(f"report.txt particle_count {report['particle_count']}")
    distance = _at_least(report, "min_alltime_distance", 1.0 - DISTANCE_TOL, problems)
    _exhaustive_consistent(report, problems)
    if input_rows is None:
        if abs(distance - 1.0) > DISTANCE_TOL:
            problems.append(f"lattice minimum {distance} != 1")
        flow = parse_report(out / "flow_report.txt")
        if flow["passed"] != "true":
            problems.append("flow_report.txt: passed != true")
        if int(flow["chain_failure_count"]) != 0:
            problems.append(f"chain failures: {flow['chain_failure_count']}")
        flow_distance = _at_least(flow, "min_distance", 1.0 - DISTANCE_TOL, problems)
        if abs(flow_distance - 1.0) > DISTANCE_TOL:
            problems.append(f"flow minimum {flow_distance} != 1")
        _exhaustive_consistent(flow, problems)
    else:
        i, j = (int(k) for k in report["witness_pair"].split(","))
        recomputed = closest_approach(input_rows[i], input_rows[j])
        if abs(recomputed - distance) > DISTANCE_TOL * max(1.0, distance):
            problems.append(f"witness rows {i},{j} are {recomputed} apart, "
                            f"report says {distance}")
    return problems


def check_cylinders(out: Path, code: int, particle_count: int) -> list[str]:
    problems = _exit(code, 0)
    if problems:
        return problems
    report = parse_report(out / "cylinder_report.txt")
    if report["passed"] != "true":
        problems.append("cylinder_report.txt: passed != true")
    required = float(report["required_distance"])
    _at_least(report, "min_line_distance", required, problems)
    _exhaustive_consistent(report, problems)
    scene_rows = (out / "scene.txt").read_bytes().count(b"\n") - 1
    if scene_rows != particle_count:
        problems.append(f"scene.txt has {scene_rows} cylinders, expected {particle_count}")
    return problems


def check_evolve(out: Path, code: int, particle_count: int, frames: int) -> list[str]:
    problems = _exit(code, 0)
    if problems:
        return problems
    csv_rows = (out / "frames.csv").read_bytes().count(b"\n") - 1
    if csv_rows != frames * particle_count:
        problems.append(f"frames.csv has {csv_rows} rows, expected "
                        f"{frames} x {particle_count}")
    svgs = sorted(p.name for p in out.glob("frame*.svg"))
    expected = [f"frame{k:04d}.svg" for k in range(frames)]
    if svgs != expected:
        problems.append(f"SVG files {svgs}, expected {expected}")
    for name in set(svgs) & set(expected):
        circles = (out / name).read_bytes().count(b"<circle")
        if circles != particle_count:
            problems.append(f"{name} draws {circles} particles")
    return problems


def check_falsify(out: Path, code: int, c: float, min_evaluations: int) -> list[str]:
    """A violation must hold under the benchmark's own radial field; an
    exhausted search must have spent the whole deterministic budget."""
    report = parse_report(out / "falsify_report.txt")
    problems = []
    if float(report["c"]) != c or report["field"] != "radial":
        problems.append(f"report is for field {report['field']} at c = {report['c']}")
    if report["outcome"] == "violation":
        problems += _exit(code, 0)
        x1, x2 = (float(v) for v in report["x"].split(","))
        y1, y2 = (float(v) for v in report["y"].split(","))
        wx, wy = radial_field(x1, x2), radial_field(y1, y2)
        dw1, dw2 = wx[0] - wy[0], wx[1] - wy[1]
        d1, d2 = x1 - y1, x2 - y2
        margin = c * math.hypot(dw1, dw2) - abs(d1 * dw1 + d2 * dw2)
        if not math.hypot(d1, d2) > 1.0:
            problems.append("violation pair is not more than 1 apart")
        if not margin >= 0.0:
            problems.append(f"violation margin recomputes to {margin}")
    elif report["outcome"] == "exhausted":
        problems += _exit(code, 1)
        used = int(report["evaluations_used"])
        if used < min_evaluations:
            problems.append(f"exhausted after {used} < {min_evaluations} evaluations")
    else:
        problems.append(f"unknown outcome {report['outcome']!r}")
    return problems
