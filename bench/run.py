"""freedrift benchmark: time to verdict of the CLI on fixed workloads.

Run from the repository root:

    python3 bench/run.py --workload lattice-32 --seed 1 --seconds 30 --trace 0

With --trace 0 a closed loop with one client runs the workload's CLI
commands as child processes, one at a time, repeating the sequence until
--seconds have passed, and reports end-to-end metrics. With --trace 1 it
calls `freedrift.cli.main` in-process for the same commands, alternating
untraced and traced repetitions, and reports per-layer metrics. Every
command's output is checked either way.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A run record with the per-command timings,
the seed and the machine goes to .bench_work/records/.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from spans import COUNTS, Tracer, layer_metrics
from workloads import FULL, WORKLOADS, Seeds, Session

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 150.0
# Import-time samples: a few before the first repetition, one after each.
SETUP_FIRST, SETUP_PER_REPETITION = 3, 1


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv: list[str], log: Path) -> tuple[int, float, int]:
    """Run one child to completion: (exit code, wall s, peak RSS KiB)."""
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=sink, stderr=sink)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def subprocess_runner(work: Path):
    def run(command, argv):
        return spawn([sys.executable, "-m", "freedrift.cli", *argv],
                     work / f"{command}.log")
    return run


def inprocess_runner(main, tracer: Tracer | None):
    def run(command, argv):
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if tracer is None:
                code = main(argv)
            else:
                code = tracer.call("cli.self_s", main, argv)
        return code, time.perf_counter() - start, None
    return run


def repeat(step, seconds: float) -> None:
    """Call step at least once, then again while one more call of average
    length still ends within `seconds`."""
    count, start = 0, time.perf_counter()
    while True:
        step()
        count += 1
        elapsed = time.perf_counter() - start
        if elapsed * (count + 1) / count > seconds:
            return


def percentile_summary(samples: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond."""
    ordered = sorted(samples)
    n = len(ordered)
    summary = {"n": n, "median": statistics.median(ordered), "samples": samples}
    if n > 10:
        summary[f"p{100 * (n - 10) / n:.4g}"] = ordered[n - 11]
    return summary


def timed_run(session: Session, seconds: float, record: dict) -> dict:
    setup = []
    argv = [sys.executable, "-c", "import freedrift"]
    log = session.work / "import.log"

    def probe(k):
        for _ in range(k):
            code, wall, _ = spawn(argv, log)
            if code != 0:
                raise RuntimeError(f"import freedrift exited {code}")
            setup.append(wall)

    spawn(argv, log)  # compiles bytecode on a fresh checkout; not a sample
    probe(SETUP_FIRST)
    reps = []

    def step():
        reps.append(session.repetition())
        probe(SETUP_PER_REPETITION)

    repeat(step, seconds)
    verdicts = [sum(op.wall_s for op in rep) for rep in reps]
    per_command = {}
    for op in session.ops:
        per_command.setdefault(f"{op.command}_s", []).append(op.wall_s)
    record["setup_s"] = percentile_summary(setup)
    record["verdict_s"] = percentile_summary(verdicts)
    record["commands"] = {k: percentile_summary(v) for k, v in per_command.items()}
    return {
        "verdict_s": (statistics.median(verdicts), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(op.maxrss_kb for op in session.ops) * 1024 / 1e6, "MB"),
    }


def traced_run(session: Session, seconds: float, units: dict, record: dict) -> dict:
    sys.path.insert(0, str(SRC))
    from freedrift import cli

    tracer = Tracer()
    per_rep = []
    untraced = inprocess_runner(cli.main, None)
    traced = inprocess_runner(cli.main, tracer)

    def repetition(runner):
        session.run = runner
        return session.repetition()

    def step():
        # Alternate which side runs first, so warm-up and drift cancel out.
        traced_first = len(per_rep) % 2 == 1
        if not traced_first:
            plain = repetition(untraced)
        tracer.reset()
        tracer.install()
        try:
            rep = repetition(traced)
        finally:
            tracer.uninstall()
        if traced_first:
            plain = repetition(untraced)
        metrics = layer_metrics(tracer)
        metrics["trace.overhead_s"] = (sum(op.wall_s for op in rep)
                                       - sum(op.wall_s for op in plain))
        certified = sum(op.certified for op in rep)
        total = sum(op.pairs_total for op in rep)
        metrics["certified_share"] = certified / total if total else 0.0
        per_rep.append(metrics)

    repeat(step, seconds)
    metrics = {}
    for name, unit in units.items():
        values = [rep[name] for rep in per_rep]
        if name in COUNTS:  # repeat exactly for one seed, or the run is wrong
            if len(set(values)) != 1:
                session.ops[-1].problems.append(
                    f"{name} varies between repetitions: {values}")
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    record["absent_spans"] = tracer.absent
    record["repetitions"] = len(per_rep)
    return metrics


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "freedrift").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as handle:
        cpu = next((line.split(":", 1)[1].strip() for line in handle
                    if line.startswith("model name")), cpu)
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_commit": commit,
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "freedrift" / "cli.py").is_file():
        print(f"error: run from the repository root; {SRC / 'freedrift'} "
              "is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    session = Session(WORKLOADS[args.workload], FULL, Seeds.derive(args.seed),
                      work, subprocess_runner(work))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "cli_seed": session.seeds.cli, **machine()}
    try:
        if args.trace:
            measured = traced_run(session, args.seconds, units, record)
        else:
            measured = timed_run(session, args.seconds, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(measured) != set(units):
        print(f"error: measured {sorted(measured)}, BENCHMARK.json lists "
              f"{sorted(units)}", file=sys.stderr)
        return 2
    failed = [op for op in session.ops if op.problems]
    result = {
        "correct": not failed,
        "attempted": len(session.ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in measured.items()},
    }
    record["failures"] = [{"command": op.command, "problems": op.problems}
                          for op in failed]
    record["result"] = result
    records = WORK_ROOT / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (records / name).write_text(json.dumps(record, indent=2) + "\n")
    for op in failed:
        print(f"FAILED {op.command}: {'; '.join(op.problems)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
