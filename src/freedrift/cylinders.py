"""Space-time cylinder scenes around particle worldlines.

A particle (x, v) traces the line {(x + t v, t)}. When a configuration
keeps all pairwise distances >= 1 at all times and speeds stay <= M, any
two of its worldlines are at least 1/sqrt(1+M^2) apart, so cylinders of
half that radius around them have pairwise disjoint interiors. This module
verifies the distance and nonparallelity claims for a configuration and a
radius of at most half that floor, and exports the cylinders straight from
the configuration's arrays in a plain text format.

For a lattice flow the verification needs no pass over the pairs: the
structural certificate gives the worldline minimum 1/sqrt(1+S^2), S the
largest velocity component in absolute value, rounded down; since S <= M
it is at least the floor, up to the rounding of both. Other configurations
go through the pair engine.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _pairscan
from .evolution import MovingConfiguration, speeds, verify_hardcore
from .formats import UNREPORTED, _row_slices, _rows_text, fmt_float
from .geometry import DISTANCE_TOL

SCENE_HEADER = "cylinder-scene v1"


class HardCoreNotVerifiedError(ValueError):
    """Scene verification asked for a configuration that fails hard-core."""


class RadiusTooLargeError(ValueError):
    """Requested radius exceeds the guaranteed half-separation."""


def lemma1_bound(max_speed: float) -> float:
    """Worldline separation floor 1/sqrt(1 + M^2) for speeds <= M."""
    if not (math.isfinite(max_speed) and max_speed >= 0):
        raise ValueError("max speed must be finite and >= 0")
    return 1.0 / math.hypot(1.0, max_speed)


@dataclass(frozen=True)
class SceneReport:
    """verify_scene outcome: distances vs floor, and parallelity.

    passed is the disjoint-interiors verdict, distances_ok. Parallel axes
    do not break disjointness, so nonparallel_ok is reported on its own and
    does not gate passed; a static pair of distant particles passes with
    parallel axes flagged.
    """

    particle_count: int
    radius: float
    speed_min: float
    speed_max: float
    separation_floor: float
    required_distance: float
    min_line_distance: float
    witness_pair: tuple[int, int] | None
    distance_margin: float
    distances_ok: bool
    nonparallel_ok: bool
    duplicate_direction_pairs: tuple[tuple[int, int], ...] = field(metadata=UNREPORTED)
    # All duplicate directions; the pairs above list the first
    # _pairscan._DUPLICATE_PAIRS.
    duplicate_direction_count: int = field(
        metadata={"key": "duplicate_direction_pairs"})
    pairs_total: int
    pairs_checked: int
    mode: str
    seed: None  # no verdict rests on a sample; kept as the report's seed line
    passed: bool


def verify_scene(config: MovingConfiguration, radius: float | None) -> SceneReport:
    """Check pairwise worldline distances against the floor 1/sqrt(1+M^2).

    The configuration must already satisfy the all-time unit-distance
    condition, checked in the same decision over the pairs; the speed
    ceiling M is measured here with evolution.speeds, never trusted from
    metadata. The radius must be at most half the floor as the report
    prints it, checked before any pair; radius None means half the floor.

    One _pairscan.decide, with worldline, decides every pair: the
    structural certificate (mode "exhaustive-structural", its worldline
    minimum rounded down) or else the pair engine (mode "exhaustive"), or
    it raises _pairscan.UndecidedError. Either way the distances pass at
    the floor less DISTANCE_TOL.
    """
    if len(config) < 1:
        raise ValueError("configuration must contain at least one particle")
    P, V = config.P, config.V
    measured = speeds(V)
    m = float(measured.min())
    cap = float(measured.max())
    floor = lemma1_bound(cap)
    if radius is None:
        radius = floor / 2.0
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError("radius must be finite and positive")
    if radius > floor / 2.0:
        raise RadiusTooLargeError(f"radius {radius} exceeds {floor / 2.0}")

    scan = _pairscan.decide(P, V, worldline=True)
    hardcore = verify_hardcore(config, 1.0, scan=scan)
    if not hardcore.passed:
        raise HardCoreNotVerifiedError(
            f"all-time minimum distance {hardcore.min_alltime_distance} < 1")

    distances_ok = bool(scan.line_distance >= floor - DISTANCE_TOL)
    dup_count, dup_pairs = _pairscan.duplicate_rows(V)

    return SceneReport(
        particle_count=len(config),
        radius=radius,
        speed_min=m,
        speed_max=cap,
        separation_floor=floor,
        required_distance=floor,
        min_line_distance=scan.line_distance,
        witness_pair=scan.line_witness,
        distance_margin=scan.line_distance - floor,
        distances_ok=distances_ok,
        nonparallel_ok=dup_count == 0,
        duplicate_direction_pairs=dup_pairs,
        duplicate_direction_count=dup_count,
        pairs_total=scan.pairs_total,
        pairs_checked=scan.pairs_checked,
        mode=scan.mode,
        seed=None,
        passed=distances_ok,
    )


def export_scene(P, V, radius: float):
    """Text form of the cylinders of one radius around the worldlines
    (x, 0) + t (v, 1) of positions P and velocities V, (n, 2) each.

    Yields the header line, then px,py,pz,dx,dy,dz,r rows in chunks of
    text: the axis point (x, 0) and the unit direction (v, 1) / |(v, 1)|,
    sorted by axis point. The radius is written as given; verify_scene is
    what checks it.
    """
    yield SCENE_HEADER + "\n"
    if len(P) == 0:
        return
    # Stable, like sorting rows on their (px, py, pz) tuples: pz is 0.
    order = np.lexsort((P[:, 1], P[:, 0]))
    tail = "," + fmt_float(radius) + "\n"
    # The rows are gathered and their directions made a block at a time.
    for rows in _row_slices(len(P)):
        k = order[rows]
        p, v = P[k], V[k]
        ones = np.ones(len(v))
        lengths = _pairscan.math_map(math.hypot, v[:, 0], v[:, 1], ones)
        yield from _rows_text(len(p), (
            p[:, 0], ",", p[:, 1], ",0,", v[:, 0] / lengths, ",",
            v[:, 1] / lengths, ",", ones / lengths, tail))
