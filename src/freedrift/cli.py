"""Command-line driver: builds flows, verifies them, renders evolutions,
exports cylinder scenes, and runs the field falsifier.

Every run is deterministic for a fixed config and seed; emitted files carry
no timestamps or environment-dependent content. Exit codes: 0 pass (or
violation found), 1 verification failure (or search exhausted, or a pair
scan past the exhaustive limit: undecided, no report), 2 bad input.

Each command imports only the modules it runs: `falsify` never loads the
lattice, evolution or cylinder modules, the other commands never load the
falsifier, `evolve --particles` never loads the lattice module, and only
`cylinders` loads the cylinder module. numpy is loaded by the commands that
read or write particle arrays: `verify --window` decides the flow from its
two axes and loads no numpy, while `verify --particles`, `assign`, `evolve`,
`cylinders` and `falsify` do.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields

from .geometry import DEFAULT_SEED, UndecidedError

PASS_EXIT = 0
FAIL_EXIT = 1
INPUT_EXIT = 2


@dataclass
class RunConfig:
    command: str = ""
    window: str = "2"
    profile: str = "arctan"
    shift_margin: float = 0.5
    threshold: float = 1.0
    t0: float = 0.0
    t1: float = 10.0
    frames: int = 5
    field: str = "constant"
    c: float = 0.1
    budget: int = 10 ** 6
    seed: int = DEFAULT_SEED
    out: str = "out"
    particles: str = ""
    radius: str = "auto"


def _to_int(text: str) -> int:
    return int(text, 0)


def _to_finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {text!r}")
    return value


def _apply(config: RunConfig, key: str, raw: str) -> None:
    """Set one field from its text, converted by the type of its default."""
    defaults = {f.name: f.default for f in fields(RunConfig)}
    if key not in defaults:
        known = ", ".join(sorted(defaults))
        raise ValueError(f"unknown key {key!r}; known keys: {known}")
    convert = {float: _to_finite, int: _to_int}.get(type(defaults[key]), str)
    try:
        setattr(config, key, convert(raw))
    except ValueError as exc:
        raise ValueError(f"bad value for {key!r}: {exc}") from None


def _flag(arg: str, flags) -> str | None:
    """The flag that arg spells in full or, as argparse allows, abbreviates
    by an unambiguous prefix; None for anything else."""
    if arg in flags:
        return arg
    matches = [f for f in flags if arg.startswith("--") and f.startswith(arg)]
    return matches[0] if len(matches) == 1 else None


def load_run_config(argv) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="freedrift",
        description="collision-free constant-velocity assignments: "
                    "build, verify, render, falsify")
    parser.add_argument("--config", help="flat key = value configuration file")
    flags = {"--config"}
    for f in fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        flags.add(flag)
        parser.add_argument(flag, dest=f.name, default=None, metavar="V")
    # Every flag takes one value: join each flag, or its abbreviation, to
    # the argument after it, unless that is a flag too, so that a value
    # starting with "-", such as the window -3:2,-1:4, is not read as a flag.
    argv = list(sys.argv[1:] if argv is None else argv)
    k = 0
    while k < len(argv) - 1:
        flag = _flag(argv[k], flags)
        if flag is not None and _flag(argv[k + 1], flags) is None:
            argv[k:k + 2] = [f"{flag}={argv[k + 1]}"]
        k += 1
    args = parser.parse_args(argv)

    config = RunConfig()
    if args.config is not None:
        from .formats import parse_config_text
        with open(args.config) as handle:
            for key, value in parse_config_text(handle.read()).items():
                _apply(config, key, value)
    for f in fields(RunConfig):
        raw = getattr(args, f.name)
        if raw is not None:
            _apply(config, f.name, raw)

    if config.command not in COMMANDS:
        raise ValueError(f"command must be one of {', '.join(COMMANDS)}; "
                         f"got {config.command!r}")
    if config.frames < 1:
        raise ValueError("frames must be >= 1")
    if config.budget < 1:
        raise ValueError("budget must be >= 1")
    return config


def _parse_window(text: str):
    from .lattice import Window
    text = text.strip()
    if "," in text:
        xs, ys = text.split(",", 1)
        x_lo, _, x_hi = xs.partition(":")
        y_lo, _, y_hi = ys.partition(":")
        parts = (x_lo, x_hi, y_lo, y_hi)
    else:
        parts = (text,)
    try:
        bounds = [int(part) for part in parts]
    except ValueError:
        raise ValueError(f"bad window {text!r}: expected N or "
                         "x_lo:x_hi,y_lo:y_hi") from None
    if len(bounds) == 4:
        return Window(*bounds)
    n, = bounds
    if n < 0:
        raise ValueError(f"square window size must be >= 0, got {n}")
    return Window.square(n)


def _parse_profile(text: str):
    from .lattice import named_profile, table_profile
    if text.startswith("table:"):
        from .formats import parse_table_csv
        path = text[len("table:"):]
        with open(path) as handle:
            return table_profile(parse_table_csv(handle.read()))
    return named_profile(text)


def _parse_field(text: str):
    from .falsifier import builtin_field
    if text.startswith("grid:"):
        from .formats import parse_particles
        path = text[len("grid:"):]
        with open(path) as handle:
            return _grid_from_samples(*parse_particles(handle.read()))
    return builtin_field(text)


def _grid_from_samples(P, V):
    """Grid field from particle rows read as (position, vector value)."""
    from .falsifier import grid_field
    if not len(P):
        raise ValueError("grid file has no rows")
    xs = sorted(set(P[:, 0].tolist()))
    ys = sorted(set(P[:, 1].tolist()))
    if len(xs) * len(ys) != len(P):
        raise ValueError("grid samples must cover a full rectangular grid")
    steps = [b - a for a, b in zip(xs, xs[1:])] + \
            [b - a for a, b in zip(ys, ys[1:])]
    spacing = steps[0] if steps else 1.0
    if any(abs(s - spacing) > 1e-9 * max(abs(spacing), 1.0) for s in steps):
        raise ValueError("grid spacing must be uniform on both axes")
    by_pos = dict(zip(map(tuple, P.tolist()), map(tuple, V.tolist())))
    if len(by_pos) != len(P):
        raise ValueError("grid samples repeat a position")
    try:
        values = [[by_pos[(x, y)] for x in xs] for y in ys]
    except KeyError as exc:
        raise ValueError(f"grid is missing a node at {exc.args[0]}") from None
    return grid_field((xs[0], ys[0]), spacing, values)


def _load_configuration(config: RunConfig):
    """The configuration of the particles file, or else the flow built on
    the window, which every verifier reads as a configuration."""
    if config.particles:
        from .evolution import MovingConfiguration
        from .formats import parse_particles
        with open(config.particles) as handle:
            return MovingConfiguration(*parse_particles(handle.read()))
    from .lattice import build_flow
    return build_flow(_parse_profile(config.profile),
                      _parse_window(config.window), config.shift_margin)


def _emit(config: RunConfig, name: str, text) -> str:
    """Write text, a str or the chunks an emitter yields, to name in the
    output directory."""
    from .formats import write_text_atomic
    os.makedirs(config.out, exist_ok=True)
    path = os.path.join(config.out, name)
    write_text_atomic(path, text)
    return path


def _cmd_assign(config: RunConfig) -> int:
    from .formats import particles_document, report_document, report_items
    from .lattice import build_flow
    flow = build_flow(_parse_profile(config.profile),
                      _parse_window(config.window), config.shift_margin)
    _emit(config, "particles.txt", particles_document(flow.P, flow.V))
    _emit(config, "assign_report.txt", report_document({
        "command": "assign",
        "window": config.window,
        "profile": config.profile,
        "shift_margin": config.shift_margin,
        "particle_count": len(flow.P),
        **report_items(flow),
    }))
    print(f"assigned {len(flow.P)} particles "
          f"-> {os.path.join(config.out, 'particles.txt')}")
    return PASS_EXIT


def _cmd_verify(config: RunConfig) -> int:
    from .evolution import verify_hardcore
    from .formats import fmt_float, report_document, report_items
    configuration = _load_configuration(config)
    flow_report = scan = None
    if not config.particles:
        from .lattice import verify_flow
        # The flow report's scan serves the hard-core report too.
        flow_report = verify_flow(configuration)
        scan = flow_report.scan
    hardcore = verify_hardcore(configuration, config.threshold, scan=scan)
    items = report_items(hardcore)
    if hardcore.witness_pair is not None and hardcore.witness_time is None:
        items["witness_time"] = "all-times"
    _emit(config, "report.txt", report_document({"command": "verify", **items}))
    passed = hardcore.passed
    if flow_report is not None:
        _emit(config, "flow_report.txt", report_document(
            {"command": "verify", **report_items(flow_report)}))
        passed = passed and flow_report.passed
    verdict = "pass" if passed else "fail"
    print(f"verify: min all-time distance {fmt_float(hardcore.min_alltime_distance)} "
          f"vs threshold {fmt_float(hardcore.passed_threshold)}: {verdict}")
    return PASS_EXIT if passed else FAIL_EXIT


def _cmd_evolve(config: RunConfig) -> int:
    from .evolution import DISK_RADIUS, snapshot_series, speeds
    from .formats import fmt_float, frames_csv, svg_snapshot
    configuration = _load_configuration(config)
    series = snapshot_series(configuration, config.t0, config.t1,
                             config.frames)
    draw_radius = DISK_RADIUS if config.radius == "auto" else _to_finite(config.radius)
    if not draw_radius > 0:
        raise ValueError("radius must be finite and positive")
    P = configuration.P
    horizon = max(abs(config.t0), abs(config.t1))
    fastest = float(speeds(configuration.V).max(initial=0.0))
    pad = fastest * horizon + draw_radius + 1.0
    lo = (float(P.min()) if P.size else 0.0) - pad
    hi = (float(P.max()) if P.size else 0.0) + pad

    def rendered():
        # Each frame goes out as soon as it is computed: its SVG file, then
        # its rows of frames.csv.
        for index, (t, points) in enumerate(series):
            _emit(config, f"frame{index:04d}.svg",
                  svg_snapshot(points, draw_radius, lo, hi))
            yield t, points

    _emit(config, "frames.csv", frames_csv(rendered()))
    print(f"evolve: {config.frames} frames on [{fmt_float(config.t0)}, "
          f"{fmt_float(config.t1)}] -> {config.out}")
    return PASS_EXIT


def _cmd_cylinders(config: RunConfig) -> int:
    from . import cylinders as cyl
    from .formats import fmt_float, report_document, report_items
    configuration = _load_configuration(config)
    radius = None if config.radius == "auto" else _to_finite(config.radius)
    try:
        report = cyl.verify_scene(configuration, radius)
    except cyl.HardCoreNotVerifiedError as exc:
        print(f"cylinders: {exc}", file=sys.stderr)
        return FAIL_EXIT
    _emit(config, "scene.txt", cyl.export_scene(
        configuration.P, configuration.V, report.radius))
    _emit(config, "cylinder_report.txt", report_document(
        {"command": "cylinders", **report_items(report)}))
    verdict = "pass" if report.passed else "fail"
    print(f"cylinders: min worldline distance "
          f"{fmt_float(report.min_line_distance)} vs required "
          f"{fmt_float(report.required_distance)}: {verdict}")
    return PASS_EXIT if report.passed else FAIL_EXIT


def _cmd_falsify(config: RunConfig) -> int:
    from .falsifier import ViolationReport, falsify
    from .formats import fmt_float, report_document, report_items
    field = _parse_field(config.field)
    result = falsify(field, config.c, config.budget, config.seed)
    found = isinstance(result, ViolationReport)
    _emit(config, "falsify_report.txt", report_document({
        "command": "falsify",
        "field": config.field,
        "c": config.c,
        "budget": config.budget,
        "seed": config.seed,
        "outcome": "violation" if found else "exhausted",
        **report_items(result),
    }))
    if found:
        print(f"falsify: violation at separation "
              f"{fmt_float(result.separation)} with margin "
              f"{fmt_float(result.margin)} ({result.stage}, "
              f"{result.evaluations_used} evaluations)")
        return PASS_EXIT
    print(f"falsify: exhausted after {result.evaluations_used} evaluations; "
          f"best margin {fmt_float(result.best_margin)}")
    return FAIL_EXIT


_DISPATCH = {
    "assign": _cmd_assign,
    "verify": _cmd_verify,
    "evolve": _cmd_evolve,
    "cylinders": _cmd_cylinders,
    "falsify": _cmd_falsify,
}
COMMANDS = tuple(_DISPATCH)


def main(argv=None) -> int:
    try:
        config = load_run_config(argv)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_EXIT
    try:
        return _DISPATCH[config.command](config)
    except UndecidedError as exc:
        print(f"{config.command}: undecided: {exc}")
        return FAIL_EXIT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_EXIT


if __name__ == "__main__":
    sys.exit(main())
