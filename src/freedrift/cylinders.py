"""Space-time cylinder scenes around particle worldlines.

A particle (x, v) traces the line {(x + t v, t)}. When a configuration
keeps all pairwise distances >= 1 at all times and speeds stay <= M, any
two of its worldlines are at least 1/sqrt(1+M^2) apart, so cylinders of
half that radius around them have pairwise disjoint interiors. This module
verifies the distance and nonparallelity claims for a configuration and a
radius of at most half that floor, and exports the cylinders straight from
the configuration in a plain text format.

For a lattice flow the verification needs no pass over the pairs: the
structural certificate gives the worldline minimum 1/sqrt(1+S^2), S the
largest velocity component in absolute value over the kinds of pair that
occur, rounded down; since S <= M it is at least the floor, up to the
rounding of both. Other configurations go through the pair engine. Either
way one decision, the configuration's decide, gives both the
closest-approach minimum, which must clear 1, and the worldline minimum,
each judged by evolution.clears, the rule of every distance verdict.

A scene row is a particle's worldline: the axis point (x, 0) and the
direction (v, 1), written with the particle's own doubles, so the file
holds what was verified and its rows take no arithmetic. A lattice flow
answers every question here from its two axes (decide, speed_range,
duplicate_velocities, particle_rows), so cylinders on a window holds no P
or V and loads no numpy. A configuration held as arrays is read through
numpy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .evolution import MovingConfiguration, clears
from .formats import UNREPORTED, _row_slices, _rows_text, fmt_float

SCENE_HEADER = "cylinder-scene v2"


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
    ceiling M is measured here by config.speed_range(), as
    evolution.speeds measures it, never trusted from metadata. The radius
    must be at most half the floor as the report prints it, checked before
    any pair; radius None means half the floor.

    One config.decide(worldline=True) decides every pair: the structural
    certificate (mode "exhaustive-structural", its worldline minimum
    rounded down) or else the pair engine (mode "exhaustive"), or it
    raises UndecidedError. Its closest-approach minimum must clear 1
    (evolution.clears), else HardCoreNotVerifiedError, and its worldline
    minimum is held to the floor by the same rule.
    """
    if len(config) < 1:
        raise ValueError("configuration must contain at least one particle")
    m, cap = config.speed_range()
    floor = lemma1_bound(cap)
    if radius is None:
        radius = floor / 2.0
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError("radius must be finite and positive")
    if radius > floor / 2.0:
        raise RadiusTooLargeError(f"radius {radius} exceeds {floor / 2.0}")

    scan = config.decide(worldline=True)
    if not clears(scan.min_distance, 1.0):
        raise HardCoreNotVerifiedError(
            f"all-time minimum distance {scan.min_distance} < 1")

    distances_ok = clears(scan.line_distance, floor)
    dup_count, dup_pairs = config.duplicate_velocities()

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


def export_scene(config: MovingConfiguration, radius: float):
    """Text form of the cylinders of one radius around the worldlines
    (x, 0) + t (v, 1) of a configuration's particles.

    Yields the header line, then x1,x2,0,v1,v2,1,r rows in chunks of
    text: the axis point (x, 0) and the direction (v, 1), the particle's
    own doubles as the particles format writes them, sorted by axis point.
    The direction is not normalised, so the file holds exactly the
    worldlines that verify_scene decides. The radius is written as given;
    verify_scene is what checks it. A lattice flow writes the same bytes
    from its two axes (FlowAssignment.particle_rows); a
    MovingConfiguration, from its arrays, a block of rows at a time.
    """
    yield SCENE_HEADER + "\n"
    if not isinstance(config, MovingConfiguration):
        yield from config.particle_rows(radius)
        return
    import numpy as np

    P, V = config.P, config.V
    # Stable, like sorting rows on their (px, py, pz) tuples: pz is 0.
    order = np.lexsort((P[:, 1], P[:, 0]))
    tail = ",1," + fmt_float(radius) + "\n"
    # The rows are gathered a block at a time.
    for rows in _row_slices(len(P)):
        k = order[rows]
        p, v = P[k], V[k]
        yield from _rows_text(len(p), (
            p[:, 0], ",", p[:, 1], ",0,", v[:, 0], ",", v[:, 1], tail))
