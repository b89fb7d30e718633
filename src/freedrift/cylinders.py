"""Space-time cylinder scenes around particle worldlines.

A particle (x, v) traces the line {(x + t v, t)}. When a configuration
keeps all pairwise distances >= 1 at all times and speeds stay <= M, any
two of its worldlines are at least 1/sqrt(1+M^2) apart, so cylinders of
half that radius around them have pairwise disjoint interiors. This module
verifies the distance and nonparallelity claims for a configuration and a
radius of at most half that floor, and exports the cylinders straight from
the configuration in a plain text format.

The floor is the largest double not above 1/sqrt(1+M^2), M the largest
speed as math.hypot measures it (lemma1_bound). For a lattice flow the
structural certificate gives the worldline minimum with no pass over the
pairs, by the same function (geometry._inverse_hypot_down) of S, the
largest velocity component in absolute value over the kinds of pair that
occur. math.hypot errs by less than an ulp, so M is never below a
velocity's larger component: S <= M, and a certified scene is never short
of the floor. Other configurations go through the pair engine. Either way
one decision, the configuration's decide, gives both the closest-approach
minimum, which must be >= 1, and the worldline minimum, which must be >=
the floor: plain comparisons on those doubles, with no slack.

A scene row is a particle's worldline: the axis point (x, 0) and the
direction (v, 1), written with the particle's own doubles, so the file
holds what was verified and its rows take no arithmetic. Every question
here is asked of one type, configuration.MovingConfiguration (decide,
speed_range, duplicate_velocities, particle_rows): a window's, the
product of its two axes, answers from the axes, and a particles file with
a flow's structure, in any row order, from its four columns. Either holds
no P or V and loads no numpy unless the certificate finds no unit axis
pair; a one-row file, which has no pair, loads none either. A
configuration without that structure goes through the pair engine and is
written from its arrays, with numpy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .formats import UNREPORTED
from .geometry import _inverse_hypot_down

if TYPE_CHECKING:
    from .configuration import MovingConfiguration

SCENE_HEADER = "cylinder-scene v2"


class HardCoreNotVerifiedError(ValueError):
    """Scene verification asked for a configuration that fails hard-core."""


class RadiusTooLargeError(ValueError):
    """Requested radius exceeds the guaranteed half-separation."""


def lemma1_bound(max_speed: float) -> float:
    """Worldline separation floor for speeds <= M: the largest double not
    above 1/sqrt(1 + M^2), by the function that gives the certificate's
    worldline minimum (geometry._inverse_hypot_down)."""
    if not (math.isfinite(max_speed) and max_speed >= 0):
        raise ValueError("max speed must be finite and >= 0")
    return _inverse_hypot_down(max_speed)


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
    # The first configuration._DUPLICATE_PAIRS duplicate directions.
    duplicate_direction_pairs: tuple[tuple[int, int], ...] = field(metadata=UNREPORTED)
    # All duplicate directions.
    duplicate_direction_count: int = field(
        metadata={"key": "duplicate_direction_pairs"})
    pairs_total: int
    pairs_checked: int
    mode: str
    seed: None = field(default=None, init=False)  # no verdict rests on a sample
    passed: bool


def verify_scene(config: MovingConfiguration, radius: float | None) -> SceneReport:
    """Check pairwise worldline distances against the floor, lemma1_bound(M).

    The configuration must already satisfy the all-time unit-distance
    condition, checked in the same decision over the pairs; the speed
    ceiling M is measured here by config.speed_range(), by math.hypot on
    the doubles of V, never trusted from metadata. The radius
    must be at most half the floor as the report prints it, checked before
    any pair; radius None means half the floor.

    One config.decide(worldline=True) decides every pair: the structural
    certificate (mode "exhaustive-structural", its worldline minimum
    rounded down as the floor is, so never below it) or else the pair
    engine (mode "exhaustive"), or it raises UndecidedError. Its
    closest-approach minimum must be >= 1, else HardCoreNotVerifiedError,
    and passed is its worldline minimum >= the floor, with no slack.
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
    if not scan.min_distance >= 1.0:
        raise HardCoreNotVerifiedError(
            f"all-time minimum distance {scan.min_distance} < 1")

    distances_ok = scan.line_distance >= floor
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
    verify_scene is what checks it. The configuration writes its rows
    (particle_rows): from its axes, whether a window's product or a file's
    rows with a flow's structure, else from its arrays, the same bytes
    either way.
    """
    yield SCENE_HEADER + "\n"
    yield from config.particle_rows(radius)
