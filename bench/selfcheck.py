"""Self-check of the benchmark harness on tiny inputs; takes seconds.

Run from the repository root:

    python3 bench/selfcheck.py

It runs every workload at window 2 and a falsifier budget of 1000 through
both the timed and the traced path, and requires every check to pass. It
then feeds each check a deliberately wrong output and requires the check to
fail, so that a check which never fires cannot pass silently. Exit code 0
means the harness is sound; 1 lists what went wrong.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import checks
import run
from workloads import WORKLOADS, Seeds, Session, Sizes

TINY = Sizes(lattice_window=2, shuffled_window=2, falsify_budget=1000,
             falsify_min_evaluations=1000)
SEED = 7


def tiny_session(name: str, work: Path) -> Session:
    return Session(WORKLOADS[name], TINY, Seeds.derive(SEED), work,
                   run.subprocess_runner(work))


def rewrite(path: Path, key: str, value: str) -> None:
    lines = [f"{key} = {value}" if line.split(" = ")[0] == key else line
             for line in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")


def run_workloads(work: Path, errors: list[str]) -> dict[str, Path]:
    """Every workload through both paths; returns one kept output per command."""
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    kept = {}
    for name in WORKLOADS:
        session = tiny_session(name, work / name)
        (work / name).mkdir(parents=True)
        measured = run.timed_run(session, 0.0, {})
        session.repetition()  # a second repetition must repeat every byte
        record = {}
        layers = run.traced_run(session, 0.0, per_layer, record)
        for op in session.ops:
            errors += [f"{name}/{op.command}: {p}" for p in op.problems]
        if set(measured) != {m["name"] for m in spec["end_to_end"]}:
            errors.append(f"{name}: end-to-end metrics {sorted(measured)}")
        if record["absent_spans"]:
            errors.append(f"{name}: absent spans {record['absent_spans']}")
        if not layers["cli.self_s"][0] > 0:
            errors.append(f"{name}: cli span recorded nothing")
        for out in sorted((work / name).iterdir()):
            if out.is_dir():
                kept[f"{name}/{out.name}"] = out
    return kept


def wrong_outputs(kept: dict[str, Path], work: Path):
    """(what was broken, problems its check reports) for each corruption."""
    n = (2 * TINY.lattice_window + 1) ** 2

    def copy(key):
        dst = work / "broken" / key.replace("/", "_")
        shutil.rmtree(dst, ignore_errors=True)
        shutil.copytree(kept[key], dst)
        return dst

    out = copy("lattice-32/00-verify")
    rewrite(out / "report.txt", "min_alltime_distance", "0.99")
    yield "lattice distance below 1", checks.check_verify(out, 0, n)

    out = copy("lattice-32/00-verify")
    rewrite(out / "flow_report.txt", "chain_failure_count", "3")
    yield "chain failures", checks.check_verify(out, 0, n)

    out = copy("lattice-32/00-verify")
    rewrite(out / "report.txt", "pairs_checked", "1")
    yield "exhaustive mode with pairs unchecked", checks.check_verify(out, 0, n)

    out = copy("lattice-32/00-verify")
    yield "verify exit code 1", checks.check_verify(out, 1, n)

    out = copy("shuffled-100/01-verify")
    rows = checks.read_particle_rows(work / "shuffled-100" / "shuffled-particles.txt")
    rewrite(out / "report.txt", "min_alltime_distance", "1.5")
    yield "witness rows not at the reported distance", checks.check_verify(out, 0, n, rows)

    out = copy("lattice-32/01-cylinders")
    rewrite(out / "cylinder_report.txt", "min_line_distance", "0.01")
    yield "worldlines closer than required", checks.check_cylinders(out, 0, n)

    out = copy("shuffled-100/00-assign")
    yield "assign row count", checks.check_assign(out, 0, n + 1)

    out = copy("shuffled-100/03-evolve")
    (out / "frame0004.svg").unlink()
    yield "missing SVG frame", checks.check_evolve(out, 0, n, 5)

    out = copy("falsify-deep/00-falsify")
    rewrite(out / "falsify_report.txt", "evaluations_used", "998")
    yield "search quit early", checks.check_falsify(out, 1, 1e-4, 1000)

    out = copy("falsify-deep/00-falsify")
    rewrite(out / "falsify_report.txt", "outcome", "violation")
    (out / "falsify_report.txt").write_text(
        (out / "falsify_report.txt").read_text() + "x = 0,0\ny = 2,0\n")
    yield "violation that is not one", checks.check_falsify(out, 0, 1e-4, 1000)

    session = tiny_session("falsify-deep", work / "drift")
    (work / "drift").mkdir()
    real = session.run

    def drifting(command, argv):
        result = real(command, argv)
        report = Path(argv[argv.index("--out") + 1]) / "falsify_report.txt"
        report.write_text(report.read_text() + f"# run {len(session.ops)}\n")
        return result

    session.run = drifting
    session.repetition()
    second = session.repetition()
    yield "bytes differ between repetitions", second[0].problems


def main() -> int:
    work = run.WORK_ROOT / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    errors: list[str] = []
    try:
        kept = run_workloads(work, errors)
        for what, problems in wrong_outputs(kept, work):
            status = "caught" if problems else "MISSED"
            print(f"{status}: {what}" + (f" ({problems[0]})" if problems else ""))
            if not problems:
                errors.append(f"check did not fire on: {what}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for error in errors:
        print(f"FAIL {error}")
    print("selfcheck: " + ("FAIL" if errors else "PASS"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
