"""The benchmark's workloads: which CLI commands run, on which inputs.

A workload is a function that runs one repetition of its command sequence
through a Session. The Session hides whether each command runs as a child
process (end-to-end timing) or in-process (the traced run), clears each
command's output directory, checks what the command wrote, and compares its
bytes with the first repetition of the same seed.
"""
from __future__ import annotations

import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from checks import (
    certified_pairs,
    check_assign,
    check_cylinders,
    check_evolve,
    check_falsify,
    check_verify,
    parse_report,
    read_particle_rows,
    tree_digest,
)

FALSIFY_FIELD = "radial"
FALSIFY_C = 1e-4
FRAMES = 5


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the self-check shrinks them to seconds."""

    lattice_window: int = 32
    shuffled_window: int = 100
    falsify_budget: int = 10 ** 6
    # An exhausted search spends 1,344 evaluations on probes and three
    # quarters of the rest (748,992) on random pairs; fewer would mean it
    # quit early. Refinement then adds a seed-dependent few hundred
    # (750,848 to 750,884 in total for the seeds tried).
    falsify_min_evaluations: int = 750_336


FULL = Sizes()


@dataclass(frozen=True)
class Seeds:
    """What the benchmark seed decides: the CLI `--seed` and the row order."""

    cli: int
    permutation: int

    @classmethod
    def derive(cls, seed: int) -> "Seeds":
        rng = random.Random(seed)
        return cls(cli=rng.randrange(1, 2 ** 31), permutation=rng.randrange(2 ** 63))


@dataclass
class Op:
    """One CLI invocation and what its check found."""

    command: str
    code: int
    wall_s: float
    maxrss_kb: int | None
    problems: list[str]
    certified: int = 0
    pairs_total: int = 0


# run(command, argv) -> (exit code, wall seconds, child peak RSS in KiB or None)
Runner = Callable[[str, list[str]], tuple[int, float, "int | None"]]


@dataclass
class Session:
    workload: Callable[["Session"], None]
    sizes: Sizes
    seeds: Seeds
    work: Path
    run: Runner
    ops: list[Op] = field(default_factory=list)
    _digests: dict[int, str] = field(default_factory=dict)
    _position: int = 0

    def repetition(self) -> list[Op]:
        start = len(self.ops)
        self._position = 0
        self.workload(self)
        return self.ops[start:]

    def invoke(self, command: str, args: list[str], check, *check_args) -> Path:
        out = self.work / f"{self._position:02d}-{command}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        code, wall, rss = self.run(command, ["--command", command, *args,
                                             "--out", str(out)])
        op = Op(command, code, wall, rss, [])
        try:
            op.problems = check(out, code, *check_args)
            op.certified, op.pairs_total = _certification(out)
            digest = tree_digest(out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            op.problems.append(f"unreadable output: {exc!r}")
        else:
            first = self._digests.setdefault(self._position, digest)
            if digest != first:
                op.problems.append("output bytes differ from the first "
                                   "repetition with this seed")
        self.ops.append(op)
        self._position += 1
        return out


def _certification(out: Path) -> tuple[int, int]:
    """(pairs certified, pairs total) over the pair-scan reports in out."""
    certified = total = 0
    for name in ("report.txt", "flow_report.txt", "cylinder_report.txt"):
        if (out / name).is_file():
            report = parse_report(out / name)
            certified += certified_pairs(report)
            total += int(report["pairs_total"])
    return certified, total


def _square(window: int) -> int:
    return (2 * window + 1) ** 2


def lattice(s: Session) -> None:
    """verify then cylinders straight from the arctan window."""
    w = s.sizes.lattice_window
    args = ["--window", str(w), "--seed", str(s.seeds.cli)]
    s.invoke("verify", args, check_verify, _square(w))
    s.invoke("cylinders", args, check_cylinders, _square(w))


def shuffled(s: Session) -> None:
    """assign, shuffle the rows, then verify, cylinders and evolve the file."""
    w = s.sizes.shuffled_window
    n = _square(w)
    assigned = s.invoke("assign", ["--window", str(w)], check_assign, n)
    particles = s.work / "shuffled-particles.txt"
    try:
        permute_rows(assigned / "particles.txt", particles, s.seeds.permutation)
        rows = read_particle_rows(particles)
    except (OSError, ValueError) as exc:
        s.ops[-1].problems.append(f"cannot shuffle assign output: {exc!r}")
        return
    args = ["--particles", str(particles), "--seed", str(s.seeds.cli)]
    s.invoke("verify", args, check_verify, n, rows)
    s.invoke("cylinders", args, check_cylinders, n)
    s.invoke("evolve", ["--particles", str(particles), "--frames", str(FRAMES)],
             check_evolve, n, FRAMES)


def falsify(s: Session) -> None:
    """One falsifier search that runs its whole budget."""
    s.invoke("falsify", ["--field", FALSIFY_FIELD, "--c", repr(FALSIFY_C),
                         "--budget", str(s.sizes.falsify_budget),
                         "--seed", str(s.seeds.cli)],
             check_falsify, FALSIFY_C, s.sizes.falsify_min_evaluations)


def permute_rows(src: Path, dst: Path, seed: int) -> None:
    """Copy a particles file with its rows in a seeded random order."""
    header, *rows = src.read_text().splitlines()
    random.Random(seed).shuffle(rows)
    dst.write_text("\n".join([header, *rows]) + "\n")


WORKLOADS = {
    "lattice-32": lattice,
    "shuffled-100": shuffled,
    "falsify-deep": falsify,
}
