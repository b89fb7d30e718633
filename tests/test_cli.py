"""End-to-end runs of the command-line driver in a subprocess."""
import os
import stat
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from freedrift import _pairscan, cli, geometry, lattice
from freedrift.configuration import MovingConfiguration
from freedrift.formats import parse_particles
from freedrift.geometry import _inverse_hypot_down
from freedrift.lattice import Window, arctan_profile, build_flow

from oracles import (duplicate_velocities, exact_chain_failures, parse_report,
                     read_scene, reference_export_scene,
                     reference_particles_document)

HEAD_ON = "particles v1\n-2,0,1,0\n2,0,-1,0\n"
STATIC_PAIR = "particles v1\n0,0,0,0\n0,3,0,0\n"
# Pairs whose closest approach overflows float64: NaN, then inf.
HEAD_ON_HUGE = "particles v1\n0,0,0,0\n1e200,1e200,-1e200,-1e200\n"
PERPENDICULAR_HUGE = "particles v1\n0,0,1e300,0\n1e300,1e300,0,1e300\n"
# Finite grid samples whose field increment overflows to -inf.
OVERFLOW_GRID = ("particles v1\n0,0,1e308,0\n1,0,-1e308,0\n"
                 "0,1,1e308,0\n1,1,-1e308,0\n")
# Speeds whose np.arctan and math.atan differ in the last bit.
ANNULUS_PAIR = ("particles v1\n0,0,0.33824492665443673,0\n"
                "0,10,1.3382449266544367,0\n")


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "freedrift.cli", *map(str, args)],
        capture_output=True, text=True, cwd=cwd)


def read(path):
    with open(path, "rb") as handle:
        return handle.read()


def test_verify_small_flow_passes(tmp_path):
    out = tmp_path / "out"
    result = run_cli("--command", "verify", "--window", "2",
                     "--profile", "arctan", "--threshold", "1",
                     "--out", out)
    assert result.returncode == 0, result.stderr
    report = parse_report(read(out / "report.txt").decode())
    assert report["passed"] == "true"
    assert float(report["min_alltime_distance"]) == pytest.approx(1.0, abs=1e-9)
    flow = parse_report(read(out / "flow_report.txt").decode())
    assert flow["passed"] == "true"
    assert flow["injective"] == "true"
    # The same flow's rows, as assign writes them: pairwise distinct
    # velocities, and the chain exactly on every pair.
    rows = tmp_path / "rows"
    assert run_cli("--command", "assign", "--window", "2",
                   "--profile", "arctan", "--out", rows).returncode == 0
    positions, velocities = parse_particles(read(rows / "particles.txt"))
    a = float(parse_report(read(rows / "assign_report.txt").decode())["shift"]
              .split(",")[0])
    P, V = (np.reshape(values, (-1, 2)) for values in (positions, velocities))
    assert duplicate_velocities(V.tolist())[0] == 0
    assert exact_chain_failures(P, V, geometry.Vec2(a, 0.0)) == []


def test_verify_head_on_pair_fails_with_witness(tmp_path):
    particles = tmp_path / "pair.txt"
    particles.write_text(HEAD_ON)
    out = tmp_path / "out"
    result = run_cli("--command", "verify", "--particles", particles,
                     "--threshold", "1", "--out", out)
    assert result.returncode == 1
    report = parse_report(read(out / "report.txt").decode())
    assert report["passed"] == "false"
    assert float(report["witness_time"]) == pytest.approx(2.0, abs=1e-9)
    assert float(report["min_alltime_distance"]) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("args, rows", [
    (["--window", "2", "--threshold", "1.0000000005"], None),
    (["--particles", "rows.txt"], "particles v1\n0,0,0,0\n0.9999999995,0,0,0\n"),
], ids=["flow-below-threshold", "static-pair-below-one"])
def test_verify_fails_a_minimum_5e_10_short(tmp_path, monkeypatch, args, rows):
    # Each minimum lies 5e-10 below the threshold: no slack passes it.
    monkeypatch.chdir(tmp_path)
    if rows is not None:
        (tmp_path / "rows.txt").write_text(rows)
    assert cli.main(["--command", "verify", *args, "--out", "out"]) == 1
    report = parse_report(read(tmp_path / "out" / "report.txt").decode())
    assert report["margin"] == "-5.000000413701855e-10"
    assert report["passed"] == "false"


def test_falsify_constant_field_finds_zero_increment(tmp_path):
    out = tmp_path / "out"
    result = run_cli("--command", "falsify", "--field", "constant",
                     "--c", "0.1", "--out", out)
    assert result.returncode == 0, result.stderr
    report = parse_report(read(out / "falsify_report.txt").decode())
    assert report["outcome"] == "violation"
    assert float(report["increment_norm"]) == 0.0
    assert float(report["margin"]) >= 0.0


def test_falsify_tiny_budget_exhausts(tmp_path):
    out = tmp_path / "out"
    result = run_cli("--command", "falsify", "--field", "rotational",
                     "--c", "0.1", "--budget", "1", "--out", out)
    assert result.returncode == 1
    report = parse_report(read(out / "falsify_report.txt").decode())
    assert report["outcome"] == "exhausted"
    assert int(report["evaluations_used"]) <= 1


def test_assign_output_feeds_verify(tmp_path):
    out = tmp_path / "out"
    result = run_cli("--command", "assign", "--window", "1", "--out", out)
    assert result.returncode == 0
    positions, velocities = parse_particles(read(out / "particles.txt"))
    assert len(positions) == len(velocities) == 9 * 2
    second = run_cli("--command", "verify",
                     "--particles", out / "particles.txt",
                     "--threshold", "1", "--out", tmp_path / "check")
    assert second.returncode == 0, second.stderr


def test_evolve_writes_frames_and_svgs(tmp_path):
    out = tmp_path / "out"
    result = run_cli("--command", "evolve", "--window", "1",
                     "--t0", "0", "--t1", "2", "--frames", "3", "--out", out)
    assert result.returncode == 0, result.stderr
    names = sorted(os.listdir(out))
    assert names == ["frame0000.svg", "frame0001.svg", "frame0002.svg",
                     "frames.csv"]
    lines = read(out / "frames.csv").decode().splitlines()
    assert lines[0] == "frame,time,particle,x1,x2"
    assert len(lines) == 1 + 3 * 9
    svg = read(out / "frame0002.svg").decode()
    assert svg.count("<circle") == 9
    # all frames share the one fixed viewport
    first = read(out / "frame0000.svg").decode()
    assert first.split("\n")[0] == svg.split("\n")[0]


def test_cylinders_scene_round_trips(tmp_path):
    out = tmp_path / "out"
    result = run_cli("--command", "cylinders", "--window", "1", "--out", out)
    assert result.returncode == 0, result.stderr
    report = parse_report(read(out / "cylinder_report.txt").decode())
    assert report["passed"] == "true"
    assert report["distances_ok"] == "true"
    bases, _, radii = read_scene(read(out / "scene.txt").decode())
    assert len(bases) == 9
    assert radii.tolist() == [radii[0]] * 9
    assert radii[0] == pytest.approx(float(report["radius"]), rel=1e-15)


def test_cylinders_passes_pair_ten_apart(tmp_path):
    particles = tmp_path / "pair.txt"
    particles.write_text(ANNULUS_PAIR)
    out = tmp_path / "out"
    result = run_cli("--command", "cylinders", "--particles", particles,
                     "--out", out)
    assert result.returncode == 0, result.stdout
    report = parse_report(read(out / "cylinder_report.txt").decode())
    assert report["passed"] == "true"


def test_cylinders_head_on_pair_fails_hardcore(tmp_path):
    particles = tmp_path / "pair.txt"
    particles.write_text(HEAD_ON)
    result = run_cli("--command", "cylinders", "--particles", particles,
                     "--out", tmp_path / "out")
    assert result.returncode == 1
    assert result.stderr == "cylinders: all-time minimum distance 0.0 < 1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["verify", "cylinders"])
@pytest.mark.parametrize("text", [HEAD_ON_HUGE, PERPENDICULAR_HUGE])
def test_non_finite_distance_is_input_error(tmp_path, command, text):
    particles = tmp_path / "huge.txt"
    particles.write_text(text)
    result = run_cli("--command", command, "--particles", particles,
                     "--out", tmp_path / "out")
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: closest approach of pair (0, 1)")
    assert len(result.stderr.splitlines()) == 1


def test_verify_certifies_every_pair_of_window_100(tmp_path):
    # 40,401 particles, 816,100,200 pairs: far beyond the engine's
    # exhaustive limit, all decided by the structural certificate.
    out = tmp_path / "out"
    result = run_cli("--command", "verify", "--window", "100", "--out", out)
    assert result.returncode == 0, result.stderr
    for name in ("report.txt", "flow_report.txt"):
        report = parse_report(read(out / name).decode())
        assert report["mode"] == "exhaustive-structural"
        assert report["pairs_checked"] == report["pairs_total"] == "816100200"
        assert report["seed"] == "none"
        assert report["passed"] == "true"


# Runs the command in sys.argv[1:] and prints its exit code and peak RSS
# (ru_maxrss, KiB on Linux) as os.wait4 gives them. A child forked from the
# test process would count that process's image, whatever it has grown to,
# in its ru_maxrss; forked from this small launcher, it counts only its own.
MEASURE_CHILD = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL,
                         stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_verify_of_window_1000_allocates_no_particle_arrays(tmp_path):
    # 4,004,001 particles: P and V alone would take 128 MB. The flow is
    # decided from its two axes of 2,001 values each.
    out = tmp_path / "out"
    launcher = subprocess.run(
        [sys.executable, "-c", MEASURE_CHILD, sys.executable, "-m",
         "freedrift.cli", "--command", "verify", "--window", "1000",
         "--out", str(out)],
        capture_output=True, text=True, check=True)
    status, maxrss = map(int, launcher.stdout.split())
    assert status == 0
    assert maxrss * 1024 < 100e6
    report = parse_report(read(out / "flow_report.txt").decode())
    assert report["pairs_checked"] == report["pairs_total"] == "8016010002000"
    assert report["passed"] == "true"


def test_cylinders_certifies_every_pair_of_window_100(tmp_path):
    out = tmp_path / "out"
    result = run_cli("--command", "cylinders", "--window", "100", "--out", out)
    assert result.returncode == 0, result.stderr
    report = parse_report(read(out / "cylinder_report.txt").decode())
    assert report["mode"] == "exhaustive-structural"
    assert report["pairs_checked"] == report["pairs_total"] == "816100200"
    assert report["seed"] == "none"
    assert report["passed"] == "true"
    assert float(report["min_line_distance"]) >= float(report["required_distance"])


def test_verify_pair_whose_speed_squared_underflows(tmp_path):
    particles = tmp_path / "pair.txt"
    particles.write_text("particles v1\n0,0,0,0\n0,1,1e-170,0\n")
    out = tmp_path / "out"
    result = run_cli("--command", "verify", "--particles", particles, "--out", out)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    report = parse_report(read(out / "report.txt").decode())
    assert report["mode"] == "exhaustive-structural"
    assert (report["min_alltime_distance"], report["witness_pair"],
            report["witness_time"]) == ("1", "0,1", "0")


def test_cylinders_measures_speeds_once(tmp_path, monkeypatch):
    # A particles file's speeds from its columns, a window's from its axes.
    calls = []
    speed_range = MovingConfiguration.speed_range

    def measured(config):
        calls.append(("axes" if config.axes else "rows", len(config)))
        return speed_range(config)
    monkeypatch.setattr(MovingConfiguration, "speed_range", measured)

    assert cli.main(["--command", "cylinders", "--window", "2",
                     "--out", str(tmp_path / "window")]) == 0
    assert calls == [("axes", 25)]
    flow = build_flow(arctan_profile(), Window.square(2), 0.5).configuration
    rows = tmp_path / "rows.txt"
    rows.write_text(reference_particles_document(flow.P, flow.V))
    calls.clear()
    assert cli.main(["--command", "cylinders", "--particles", str(rows),
                     "--out", str(tmp_path / "file")]) == 0
    assert calls == [("rows", 25)]
    for name in ("scene.txt", "cylinder_report.txt"):
        assert read(tmp_path / "window" / name) == read(tmp_path / "file" / name)


@pytest.fixture
def scan_passes(monkeypatch):
    """The keyword arguments of each pair-engine pass, as they happen."""
    passes = []
    scan = _pairscan.scan

    def counted(*a, **kw):
        passes.append(kw)
        return scan(*a, **kw)

    monkeypatch.setattr(_pairscan, "scan", counted)
    return passes


@pytest.mark.parametrize("args", [
    ["--command", "verify", "--particles", "pair.txt"],
    ["--command", "cylinders", "--particles", "pair.txt"],
])
def test_each_command_makes_one_pass(tmp_path, monkeypatch, scan_passes, args):
    # Two particles at rest lack the lattice structure, so each command scans.
    (tmp_path / "pair.txt").write_text(STATIC_PAIR)
    monkeypatch.chdir(tmp_path)
    assert cli.main([*args, "--out", "out"]) == 0
    assert len(scan_passes) == 1


def test_verify_of_a_lattice_flow_makes_no_pass(tmp_path, scan_passes):
    # The structural certificate decides every pair of the flow.
    assert cli.main(["--command", "verify", "--window", "2",
                     "--out", str(tmp_path / "out")]) == 0
    assert scan_passes == []


def test_cylinders_of_a_lattice_flow_makes_no_pass(tmp_path, scan_passes):
    # The certificate also gives the exact worldline minimum.
    assert cli.main(["--command", "cylinders", "--window", "2",
                     "--out", str(tmp_path / "out")]) == 0
    assert scan_passes == []
    report = parse_report(read(tmp_path / "out" / "cylinder_report.txt").decode())
    assert report["mode"] == "exhaustive-structural"


def _window3():
    flow = build_flow(arctan_profile(), Window.square(3), 0.5).configuration
    return flow.P.copy(), flow.V.copy()


def _nudged():
    P, V = _window3()
    V[20, 1] = np.nextafter(V[20, 1], np.inf)  # V1 no longer a function of x1
    return P, V, []


def _swapped():
    P, V = _window3()
    return P, V[:, ::-1].copy(), []


def _sparse():
    # S is attained only along the row x2 = 3; keep every other point of it,
    # so no unit axis pair attains the worldline bound.
    P, V = _window3()
    keep = ~((P[:, 1] == 3.0) & (P[:, 0] % 2 == 1))
    return P[keep], V[keep], []


@pytest.mark.parametrize("case", [_nudged, _swapped, _sparse],
                         ids=["nudged", "swapped", "sparse"])
def test_cylinders_refusals_fall_back_to_the_engine(tmp_path, monkeypatch, capsys,
                                                    scan_passes, case):
    P, V, extra = case()
    (tmp_path / "rows.txt").write_text(reference_particles_document(P, V))
    monkeypatch.chdir(tmp_path)
    args = ["--command", "cylinders", "--particles", "rows.txt", *extra]
    code = cli.main([*args, "--out", "out"])
    printed = capsys.readouterr()
    assert len(scan_passes) == 1
    # The same run with no certificate at all: the engine's bytes.
    monkeypatch.setattr(MovingConfiguration, "certify", lambda *a, **kw: None)
    assert cli.main([*args, "--out", "engine"]) == code
    assert capsys.readouterr() == printed
    written = sorted(p.name for p in (tmp_path / "engine").glob("*"))
    assert sorted(p.name for p in (tmp_path / "out").glob("*")) == written
    for name in written:
        assert read(tmp_path / "out" / name) == read(tmp_path / "engine" / name)
    if written:
        report = parse_report(read(tmp_path / "out" / "cylinder_report.txt").decode())
        assert report["mode"] == "exhaustive"


def test_cylinders_of_a_single_column_is_certified(tmp_path, monkeypatch,
                                                  capsys, scan_passes):
    # Every pair of one column shares V1 = c and lies exactly |dx2|/sqrt(1 +
    # c^2) apart, so the certificate gives the worldline minimum at the
    # smallest unit pair, from the axes and from the same rows read from a
    # file alike, with no pass over the pairs.
    monkeypatch.chdir(tmp_path)
    assert cli.main(["--command", "assign", "--window=0:0,-3:3", "--out", "rows"]) == 0
    capsys.readouterr()
    runs = []
    for source in (["--window=0:0,-3:3"], ["--particles", "rows/particles.txt"]):
        assert cli.main(["--command", "cylinders", *source, "--out", "out"]) == 0
        runs.append((capsys.readouterr(), read(tmp_path / "out" / "scene.txt"),
                     read(tmp_path / "out" / "cylinder_report.txt")))
    assert runs[0] == runs[1]
    assert scan_passes == []
    report = parse_report(runs[0][2].decode())
    assert (report["mode"], report["pairs_checked"]) == ("exhaustive-structural", "21")
    # Past the exhaustive limit too: a 6,001-point column and row, each at
    # 1/sqrt(1 + c^2) rounded down, c the shared V1 of the column (-phi(0))
    # and the shared V0 of the row (row k of a particle is x1, x2, v1, v2).
    for window, k in [(Window(0, 0, -3000, 3000), 3),
                      (Window(-3000, 3000, -500, -500), 2)]:
        text = f"{window.x_lo}:{window.x_hi},{window.y_lo}:{window.y_hi}"
        assert cli.main(["--command", "cylinders", f"--window={text}",
                         "--out", "long"]) == 0
        capsys.readouterr()
        report = parse_report(read(tmp_path / "long" / "cylinder_report.txt").decode())
        assert (report["mode"], report["pairs_checked"], report["witness_pair"]) == \
            ("exhaustive-structural", "18003000", "0,1")
        c = build_flow(arctan_profile(), window, 0.5).configuration.row(0)[k]
        assert float(report["min_line_distance"]) == _inverse_hypot_down(c)
    assert scan_passes == []


def test_cylinders_radius_above_half_the_floor_is_refused(tmp_path, capsys,
                                                         scan_passes):
    # One ulp above floor / 2 = 0.14260689159438425, as the report prints it.
    out = tmp_path / "out"
    assert cli.main(["--command", "cylinders", "--window", "2",
                     "--radius", "0.14260689159438428", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: radius 0.14260689159438428 "
                                       "exceeds 0.14260689159438425\n")
    assert not out.exists()
    assert scan_passes == []


def test_certified_scene_at_the_floor_is_decided_once(tmp_path, monkeypatch,
                                                      scan_passes):
    # The fastest row's speed is its V0, so the certificate's worldline
    # minimum and the floor are one double: the certificate decides, with
    # margin 0 and no engine pass.
    (tmp_path / "rows.txt").write_text("particles v1\n0,0,1.0206185567010309,0\n"
                                       "1,0,1.0206185567010309,-1e-300\n")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["--command", "cylinders", "--particles", "rows.txt",
                     "--out", "out"]) == 0
    assert scan_passes == []
    report = parse_report(read(tmp_path / "out" / "cylinder_report.txt").decode())
    assert report["mode"] == "exhaustive-structural"
    assert report["separation_floor"] == "0.69985497121846485"
    assert report["min_line_distance"] == "0.69985497121846485"
    assert report["distance_margin"] == "0"
    assert report["passed"] == "true"


def _zero_column_rows(mixed):
    """The window-2 flow's rows in a seeded order, with -0.0 for x1 on its
    x1 = 0 column, where V1 = -phi(0) is -0.0 already; mixed, every other
    row there takes 0.0 for x1 and every third 0.0 for V1."""
    flow = build_flow(arctan_profile(), Window.square(2), 0.5).configuration
    P, V = flow.P.copy(), flow.V.copy()
    zero = np.flatnonzero(P[:, 0] == 0.0)
    assert np.signbit(V[zero, 1]).all()
    P[zero, 0] = -0.0
    if mixed:
        P[zero[::2], 0] = 0.0
        V[zero[::3], 1] = 0.0
    order = np.random.default_rng(5).permutation(len(P))
    return P[order], V[order]


@pytest.mark.parametrize("mixed", [False, True], ids=["negative", "mixed"])
def test_signed_zeros_are_written_as_given(tmp_path, monkeypatch, mixed):
    """0.0 and -0.0 compare equal, so one dict key holds both: each scene
    row must still write its own zeros' signs, as format(x, ".17g") does
    value by value, and neither report may depend on them."""
    P, V = _zero_column_rows(mixed)
    unsigned = np.where(P == 0.0, 0.0, P), np.where(V == 0.0, 0.0, V)
    monkeypatch.chdir(tmp_path)
    outputs = []
    for name, (p, v) in (("signed", (P, V)), ("unsigned", unsigned)):
        (tmp_path / f"{name}.txt").write_text(reference_particles_document(p, v))
        for command in ("verify", "cylinders"):
            assert cli.main(["--command", command, "--particles", f"{name}.txt",
                             "--out", name]) == 0
        outputs.append({f: read(tmp_path / name / f)
                        for f in ("report.txt", "cylinder_report.txt")})
        report = parse_report(outputs[-1]["cylinder_report.txt"].decode())
        assert report["mode"] == "exhaustive-structural"
    assert outputs[0] == outputs[1]
    radius = float(report["radius"])
    scene = SimpleNamespace(bases=np.column_stack((P, np.zeros(len(P)))),
                            velocities=V, radius=radius)
    text = read(tmp_path / "signed" / "scene.txt").decode()
    assert text == reference_export_scene(scene)
    # Rows are x1,x2,0,v1,v2,1,r.
    assert "\n-0," in text and ("\n0," in text) == mixed
    assert ",-0,1," in text and (",0,1," in text) == mixed


@pytest.mark.xfail(strict=True, reason=(
    "the float engine reads the minimum as exactly 1 at margin 0 (ROADMAP "
    "finding 1); exact verdicts at the threshold are ROADMAP item 2"))
def test_verify_fails_a_flow_nudged_below_unit_distance(tmp_path, capsys):
    # The window-32 flow with row 1's V0 one ulp higher: rows 1 and 66,
    # (-32, -31) and (-31, -31), share x2, lie 1 apart in x1 and now differ
    # in V0, so their closest approach |dv1| / |dv| is below 1.
    flow = build_flow(arctan_profile(), Window.square(32), 0.5).configuration
    V = flow.V.copy()
    V[1, 0] = np.nextafter(V[1, 0], np.inf)
    d = [Fraction(b) - Fraction(a) for a, b in zip(flow.P[1].tolist(), flow.P[66].tolist())]
    dv = [Fraction(b) - Fraction(a) for a, b in zip(V[1].tolist(), V[66].tolist())]
    assert d == [1, 0] and dv[0] != 0
    assert (d[0] * dv[1] - d[1] * dv[0]) ** 2 < dv[0] ** 2 + dv[1] ** 2
    (tmp_path / "nudged.txt").write_text(reference_particles_document(flow.P, V))
    code = cli.main(["--command", "verify", "--particles", str(tmp_path / "nudged.txt"),
                     "--out", str(tmp_path / "out")])
    assert capsys.readouterr().out.endswith(": fail\n")
    assert code == 1


@pytest.mark.parametrize("command", ["verify", "cylinders"])
def test_undecided_past_the_limit_writes_no_report(tmp_path, monkeypatch, capsys,
                                                   command):
    P, V, _ = _nudged()
    (tmp_path / "rows.txt").write_text(reference_particles_document(P, V))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(geometry, "EXHAUSTIVE_LIMIT", 49 * 48 // 2 - 1)
    assert cli.main(["--command", command, "--particles", "rows.txt",
                     "--out", "out"]) == 1
    printed = capsys.readouterr()
    assert printed.out == (f"{command}: undecided: 1176 pairs exceed the "
                           "exhaustive limit of 1175\n")
    assert printed.err == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("radius", ["-1", "0"])
def test_evolve_refuses_a_radius_that_is_not_positive(tmp_path, capsys, radius):
    out = tmp_path / "out"
    assert cli.main(["--command", "evolve", "--window", "1", "--radius", radius,
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: radius must be finite and positive\n"
    assert not out.exists()


def test_evolve_refuses_a_viewport_whose_side_overflows(tmp_path, capsys):
    # The pad of radius 1e308 on both sides makes a side of inf.
    out = tmp_path / "out"
    assert cli.main(["--command", "evolve", "--window", "1", "--frames", "1",
                     "--radius", "1e308", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: bad viewport [")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["verify", "evolve", "cylinders"])
@pytest.mark.parametrize("radius, message", [
    ("abc", "could not convert string to float: 'abc'"),
    ("nan", "must be finite, got 'nan'"),
    ("-inf", "must be finite, got '-inf'"),
    ("Auto", "could not convert string to float: 'Auto'"),
], ids=["abc", "nan", "-inf", "Auto"])
def test_radius_that_is_not_auto_or_a_finite_float_is_input_error(
        tmp_path, monkeypatch, capsys, command, radius, message):
    # Refused as the value of its key, like every other key, before the
    # configuration is built.
    built = []
    monkeypatch.setattr(lattice, "build_flow", lambda *a: built.append(a))
    out = tmp_path / "out"
    assert cli.main(["--command", command, "--window", "1", "--radius", radius,
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: bad value for 'radius': {message}\n"
    assert built == [] and not out.exists()


@pytest.mark.parametrize("radius", ["-1", "0", "10"])
def test_bad_radius_refused_before_any_pass(tmp_path, scan_passes, radius):
    assert cli.main(["--command", "cylinders", "--window", "2",
                     "--radius", radius, "--out", str(tmp_path / "out")]) == 2
    assert scan_passes == []


def test_seeded_runs_byte_identical(tmp_path):
    jobs = [
        ("verify", ["--command", "verify", "--window", "2", "--seed", "99"],
         ["report.txt", "flow_report.txt"]),
        ("cyl", ["--command", "cylinders", "--window", "1", "--seed", "99"],
         ["cylinder_report.txt", "scene.txt"]),
        ("fals", ["--command", "falsify", "--field", "radial", "--c", "0.05",
                  "--seed", "99"], ["falsify_report.txt"]),
        ("evolve", ["--command", "evolve", "--window", "1", "--frames", "2"],
         ["frames.csv", "frame0000.svg", "frame0001.svg"]),
    ]
    for name, args, outputs in jobs:
        a, b = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        first = run_cli(*args, "--out", a)
        second = run_cli(*args, "--out", b)
        assert first.returncode == second.returncode
        # stdout may mention the out directory; files must match exactly
        assert first.stdout.replace(str(a), "") == \
            second.stdout.replace(str(b), "")
        for rel in outputs:
            assert read(a / rel) == read(b / rel), f"{name}/{rel} differs"


def test_flag_values_may_start_with_a_dash(tmp_path):
    runs = []
    for args in (["--window", "-3:2,-1:4", "--threshold", "-1"],
                 ["--window=-3:2,-1:4", "--threshold=-1"]):
        out = tmp_path / f"run{len(runs)}"
        result = run_cli("--command", "verify", *args, "--out", out)
        assert result.returncode == 0, result.stderr
        runs.append((result.stdout, result.stderr,
                     {p.name: read(p) for p in sorted(out.iterdir())}))
    assert runs[0] == runs[1]
    report = parse_report(runs[0][2]["report.txt"].decode())
    assert (report["particle_count"], report["threshold"]) == ("36", "-1")
    # A flag with no value after it is still an input error.
    result = run_cli("--command", "verify", "--out", tmp_path / "x", "--window")
    assert result.returncode == 2
    assert "argument --window: expected one argument" in result.stderr


def test_abbreviated_flags_take_values_starting_with_a_dash(tmp_path, capsys):
    runs = []
    for args in (["--win", "-3:2,-1:4", "--thr", "-1"],
                 ["--window=-3:2,-1:4", "--threshold", "-1"]):
        out = tmp_path / f"run{len(runs)}"
        assert cli.main(["--command", "verify", *args, "--out", str(out)]) == 0
        runs.append((capsys.readouterr(),
                     {p.name: read(p) for p in sorted(out.iterdir())}))
    assert runs[0] == runs[1]
    report = parse_report(runs[0][1]["report.txt"].decode())
    assert (report["particle_count"], report["threshold"]) == ("36", "-1")
    # A prefix of two flags is still ambiguous, and a flag before another
    # flag's abbreviation still has no value.
    for args in (["--co", "verify"], ["--command", "verify", "--window", "--thr", "1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "ambiguous option: --co could match --config, --command" in err
    assert "argument --window: expected one argument" in err


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("# demo run\ncommand = verify\nwindow = 1\n"
                      "threshold = 1.0\nseed = 0x5EED\n")
    out = tmp_path / "out"
    result = run_cli("--config", config, "--window", "2", "--out", out)
    assert result.returncode == 0, result.stderr
    report = parse_report(read(out / "report.txt").decode())
    assert report["particle_count"] == "25"


def test_table_profile_from_file(tmp_path):
    table = tmp_path / "profile.csv"
    table.write_text("\n".join(f"{n},{n / (1 + abs(n)):.17g}"
                               for n in range(-3, 4)) + "\n")
    result = run_cli("--command", "verify", "--window", "2",
                     "--profile", f"table:{table}",
                     "--out", tmp_path / "out")
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("command", ["assign", "verify", "cylinders"])
def test_overflowing_speed_bound_is_input_error(tmp_path, command):
    # Finite velocities, but a + sup|w| = 1.5e308 + 1.5e308 overflows.
    table = tmp_path / "profile.csv"
    table.write_text("0,0.0\n1,1e308\n2,1.5e308\n")
    out = tmp_path / "out"
    result = run_cli("--command", command, "--window", "1:2,0:0",
                     "--profile", f"table:{table}", "--out", out)
    assert result.returncode == 2
    assert result.stderr.startswith("error: speed bound a + sup|w| ")
    assert "overflows" in result.stderr
    assert not out.exists()


def test_empty_table_profile_is_input_error(tmp_path, capsys):
    table = tmp_path / "profile.csv"
    table.write_text("# n,value rows, none yet\n")
    out = tmp_path / "out"
    assert cli.main(["--command", "verify", "--profile", f"table:{table}",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "error: table profile needs at least two entries\n"
    assert not out.exists()


@pytest.mark.parametrize("window", ["3,", "1,2", "1:2", "a", "2.5"])
def test_malformed_window_names_the_value_and_the_forms(tmp_path, capsys, window):
    out = tmp_path / "out"
    assert cli.main(["--command", "verify", "--window", window,
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: bad window {window!r}: "
                                       "expected N or x_lo:x_hi,y_lo:y_hi\n")
    assert not out.exists()


def test_grid_field_from_file(tmp_path):
    grid = tmp_path / "grid.txt"
    rows = ["particles v1"]
    for y in (-1.0, 0.0, 1.0):
        for x in (-1.0, 0.0, 1.0):
            rows.append(f"{x},{y},{0.5 if x > 0 else -0.5},0")
    grid.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    result = run_cli("--command", "falsify", "--field", f"grid:{grid}",
                     "--c", "0.1", "--out", out)
    assert result.returncode == 0, result.stderr
    report = parse_report(read(out / "falsify_report.txt").decode())
    assert report["outcome"] == "violation"


@pytest.mark.parametrize("rows, message", [
    ([], "grid file has no rows"),
    (["0,0,0,0", "1,0,0,0", "0,1,0,0"],
     "grid samples must cover a full rectangular grid"),
    (["0,0,0,0", "1,0,0,0", "3,0,0,0", "0,1,0,0", "1,1,0,0", "3,1,0,0"],
     "grid spacing must be uniform on both axes"),
    (["0,0,1,0", "0,0,2,0", "1,1,0,0", "1,1,0,1"],
     "grid samples repeat a position"),
], ids=["no-rows", "not-rectangular", "non-uniform", "repeated"])
def test_malformed_grid_file_is_input_error(tmp_path, capsys, rows, message):
    grid = tmp_path / "grid.txt"
    grid.write_text("\n".join(["particles v1", *rows]) + "\n")
    out = tmp_path / "out"
    assert cli.main(["--command", "falsify", "--field", f"grid:{grid}",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("slip", [0.5, 2.0], ids=["within", "beyond"])
def test_grid_spacing_tolerance(tmp_path, slip):
    # Decimal 0.1 steps are not exactly uniform as doubles (0.3 - 0.2 is
    # not 0.1); the last step also slips by slip tolerances.
    xs = [0.0, 0.1, 0.2, 0.3 + slip * cli.GRID_SPACING_TOL]
    grid = tmp_path / "grid.txt"
    grid.write_text("particles v1\n" + "".join(
        f"{x!r},{y!r},{x!r},0\n" for y in xs for x in xs))
    if slip > 1:
        with pytest.raises(ValueError, match="grid spacing must be uniform"):
            cli._parse_field(f"grid:{grid}")
        return
    field = cli._parse_field(f"grid:{grid}")
    assert (field.origin, field.spacing) == ((0.0, 0.0), 0.1)


def test_non_finite_field_increment_is_input_error(tmp_path):
    grid = tmp_path / "grid.txt"
    grid.write_text(OVERFLOW_GRID)
    out = tmp_path / "out"
    result = run_cli("--command", "falsify", "--field", f"grid:{grid}",
                     "--c", "0.1", "--out", out)
    assert result.returncode == 2
    assert result.stderr.startswith("error: field increment w(x) - w(y) = ")
    assert len(result.stderr.splitlines()) == 1
    assert not out.exists()


def test_unknown_command_is_input_error(tmp_path):
    result = run_cli("--command", "bogus", "--out", tmp_path / "out")
    assert result.returncode == 2
    assert "command" in result.stderr


def test_missing_particles_file_is_input_error(tmp_path):
    result = run_cli("--command", "verify",
                     "--particles", tmp_path / "absent.txt",
                     "--out", tmp_path / "out")
    assert result.returncode == 2


def test_malformed_particles_reports_line(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("particles v1\n0,0,1,0\n0,1,x,0\n")
    result = run_cli("--command", "verify", "--particles", bad,
                     "--out", tmp_path / "out")
    assert result.returncode == 2
    assert "line 3" in result.stderr


@pytest.mark.parametrize("rows", [
    ["0,0,1,0", "", "0,1,x,0", "5,5,1,0"],
    ["0,0,1,0", "", "", "0,1,2"],
    ["0,0,1,0", "0,inf,1,0"],
    ["0,0,1,0", "", "3,0,0,1", ""],
], ids=["bad-field", "field-count", "non-finite", "passes"])
@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_particles_lines_end_as_with_newlines(tmp_path, rows, newline):
    """A file read as bytes numbers its lines, and parses, as the same
    rows with newlines do."""
    runs = []
    for name, nl in (("lf", "\n"), ("other", newline)):
        particles = tmp_path / f"{name}.txt"
        particles.write_bytes(nl.join(["particles v1", *rows, ""]).encode())
        out = tmp_path / name
        result = run_cli("--command", "verify", "--particles", particles,
                         "--out", out)
        files = {f.name: f.read_bytes() for f in out.glob("*")}
        runs.append((result.returncode, result.stdout, result.stderr, files))
    assert runs[0] == runs[1]


def test_particles_file_that_is_not_utf8_is_input_error(tmp_path):
    particles = tmp_path / "latin1.txt"
    particles.write_bytes(b"particles v1\n0,0,1,0\n0,1,\xe9,0\n")
    result = run_cli("--command", "verify", "--particles", particles,
                     "--out", tmp_path / "out")
    assert result.returncode == 2
    assert result.stderr == ("error: 'utf-8' codec can't decode byte 0xe9 in "
                             "position 25: invalid continuation byte\n")


def test_particles_file_is_held_once(tmp_path):
    # Read as text, the file's bytes and its decoded str are alive at once:
    # a peak of twice the file.
    rng = np.random.default_rng(7)
    n = 20000
    P, V = rng.uniform(-100.0, 100.0, (n, 2)), rng.uniform(-2.0, 2.0, (n, 2))
    particles = tmp_path / "particles.txt"
    # A file whose lines end in "\r" alone is read a block at a time too.
    for newline in ("\n", "\r"):
        particles.write_bytes(reference_particles_document(P, V)
                              .replace("\n", newline).encode())
        tracemalloc.start()
        try:
            _, configuration = cli._load_configuration(
                cli.RunConfig(particles=str(particles)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert configuration.P.tolist() == P.tolist()
        assert peak < 1.8 * particles.stat().st_size


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_emitted_files_take_the_mode_open_gives(tmp_path, umask, mode):
    out = tmp_path / "out"
    for command in ("verify", "cylinders"):
        result = subprocess.run(
            [sys.executable, "-m", "freedrift.cli", "--command", command,
             "--window", "1", "--out", str(out)],
            capture_output=True, text=True, umask=umask)
        assert result.returncode == 0, result.stderr
    names = sorted(os.listdir(out))
    assert names == ["cylinder_report.txt", "flow_report.txt", "report.txt",
                     "scene.txt"]
    assert [stat.S_IMODE(os.stat(out / name).st_mode) for name in names] == [mode] * 4


def test_unknown_config_key_is_input_error(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("command = verify\nwibble = 3\n")
    result = run_cli("--config", config, "--out", tmp_path / "out")
    assert result.returncode == 2
    assert "wibble" in result.stderr


def test_oversized_radius_is_input_error(tmp_path):
    result = run_cli("--command", "cylinders", "--window", "1",
                     "--radius", "10", "--out", tmp_path / "out")
    assert result.returncode == 2


def test_saturated_profile_is_input_error(tmp_path):
    result = run_cli("--command", "assign", "--profile", "tanh",
                     "--window", "20", "--out", tmp_path / "out")
    assert result.returncode == 2
    assert result.stderr.startswith("error: phi(19) + a = ")
    assert len(result.stderr.splitlines()) == 1
    assert not (tmp_path / "out").exists()
    result = run_cli("--command", "verify", "--profile", "tanh",
                     "--window", "19", "--out", tmp_path / "out")
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("command", ["assign", "verify", "cylinders", "evolve"])
def test_huge_window_refused_before_allocating(tmp_path, capsys, command):
    tracemalloc.start()
    started = time.perf_counter()
    try:
        code = cli.main(["--command", command, "--window", "1000000",
                         "--out", str(tmp_path / "out")])
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert elapsed < 0.5
    assert peak < 1 << 20
    err = capsys.readouterr().err
    assert err.startswith("error: window has 4000004000001 points")
    assert len(err.splitlines()) == 1


def test_duplicate_particle_is_input_error(tmp_path):
    particles = tmp_path / "dup.txt"
    particles.write_text("particles v1\n0,0,1,0\n3,0,0,1\n0,0,1,0\n")
    result = run_cli("--command", "verify", "--particles", particles,
                     "--out", tmp_path / "out")
    assert result.returncode == 2
    assert result.stderr == "error: duplicate particle at (0.0, 0.0, 1.0, 0.0)\n"


def test_cylinder_report_counts_every_duplicate_direction(tmp_path):
    # 20 static particles: 19 duplicate directions, more than the 16 pairs
    # a report lists.
    particles = tmp_path / "static.txt"
    particles.write_text("particles v1\n" + "".join(
        f"{2 * k},0,0,0\n" for k in range(20)))
    out = tmp_path / "out"
    result = run_cli("--command", "cylinders", "--particles", particles,
                     "--out", out)
    assert result.returncode == 0, result.stderr
    report = parse_report(read(out / "cylinder_report.txt").decode())
    assert report["nonparallel_ok"] == "false"
    assert report["duplicate_direction_pairs"] == "19"
