"""Space-time cylinder scenes around particle worldlines.

A particle (x, v) traces the line {(x + t v, t)}. When a configuration
keeps all pairwise distances >= 1 at all times and speeds stay <= M, any
two of its worldlines are at least 1/sqrt(1+M^2) apart, so cylinders of
half that radius around them have pairwise disjoint interiors. This module
builds such scenes, verifies the distance/nonparallelity/annulus claims,
and round-trips scenes through a plain text format.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _pairscan
from .evolution import MovingConfiguration, Particle, verify_hardcore
from .formats import ParseError, fmt_float
from .geometry import Vec3

SCENE_HEADER = "cylinder-scene v1"
DISTANCE_TOL = 1e-9
# Slack on the radius cap so a radius computed as exactly bound/2 passes.
RADIUS_SLACK = 1.0 + 1e-12


class HardCoreNotVerifiedError(ValueError):
    """Scene verification asked for a configuration that fails hard-core."""


class RadiusTooLargeError(ValueError):
    """Requested radius exceeds the guaranteed half-separation."""


def lemma1_bound(max_speed: float) -> float:
    """Worldline separation floor 1/sqrt(1 + M^2) for speeds <= M."""
    if not (math.isfinite(max_speed) and max_speed >= 0):
        raise ValueError("max speed must be finite and >= 0")
    return 1.0 / math.hypot(1.0, max_speed)


@dataclass(frozen=True, slots=True)
class WorldLine:
    """Space-time line through base with direction (v1, v2, 1)."""

    base: Vec3
    direction: Vec3

    def __post_init__(self) -> None:
        if self.direction.x3 != 1.0:
            raise ValueError("worldline direction must have third coordinate 1")

    @property
    def speed(self) -> float:
        return math.hypot(self.direction.x1, self.direction.x2)


def worldline_of(p: Particle) -> WorldLine:
    return WorldLine(
        base=Vec3(p.position.x1, p.position.x2, 0.0),
        direction=Vec3(p.velocity.x1, p.velocity.x2, 1.0),
    )


@dataclass(frozen=True)
class CylinderScene:
    """Equal-radius cylinders around worldlines, speeds within [m, M]."""

    cylinders: tuple[tuple[WorldLine, float], ...]
    speed_bounds: tuple[float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cylinders", tuple(self.cylinders))
        m, cap = self.speed_bounds
        if not (math.isfinite(m) and math.isfinite(cap) and 0 <= m <= cap):
            raise ValueError(f"bad speed bounds {self.speed_bounds}")
        if not self.cylinders:
            return
        radii = {r for _, r in self.cylinders}
        if len(radii) != 1:
            raise ValueError("all cylinder radii must be equal")
        radius = next(iter(radii))
        if not (math.isfinite(radius) and radius > 0):
            raise ValueError("radius must be finite and positive")
        if radius > lemma1_bound(cap) / 2.0 * RADIUS_SLACK:
            raise RadiusTooLargeError(
                f"radius {radius} exceeds {lemma1_bound(cap) / 2.0}")
        for line, _ in self.cylinders:
            if not (m - 1e-12 <= line.speed <= cap + 1e-12):
                raise ValueError(
                    f"direction speed {line.speed} outside [{m}, {cap}]")

    @property
    def radius(self) -> float:
        if not self.cylinders:
            raise ValueError("empty scene has no radius")
        return self.cylinders[0][1]


def build_scene(config: MovingConfiguration,
                radius: float | None = None) -> CylinderScene:
    """Scene with measured speed bounds; radius defaults to half the floor."""
    speeds = [math.hypot(p.velocity.x1, p.velocity.x2)
              for p in config.particles]
    if not speeds:
        return CylinderScene((), (0.0, 0.0))
    m, cap = min(speeds), max(speeds)
    if radius is None:
        radius = lemma1_bound(cap) / 2.0
    return CylinderScene(
        tuple((worldline_of(p), radius) for p in config.particles),
        (m, cap),
    )


@dataclass(frozen=True)
class SceneReport:
    """verify_scene outcome: distances vs floor, parallelity, annulus.

    passed is the disjoint-interiors verdict (distances plus annulus
    consistency). Parallel axes do not break disjointness, so
    nonparallel_ok is reported on its own and does not gate passed;
    a static pair of distant particles passes with parallel axes flagged.
    """

    particle_count: int
    pairs_total: int
    pairs_checked: int
    mode: str
    seed: int | None
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
    duplicate_direction_pairs: tuple[tuple[int, int], ...]
    annulus_ok: bool
    annulus_forms_agree: bool
    passed: bool


def verify_scene(config: MovingConfiguration, radius: float, *,
                 sample_budget: int = _pairscan.DEFAULT_SAMPLE_BUDGET,
                 seed: int = _pairscan.DEFAULT_SEED,
                 exhaustive_limit: int = _pairscan.EXHAUSTIVE_LIMIT) -> SceneReport:
    """Check pairwise worldline distances against max(2 radius, floor).

    The configuration must already satisfy the all-time unit-distance
    condition, checked in the same pass over the pairs; the speed ceiling
    M is measured here, never trusted from metadata. The annulus check runs
    in both its arctan-angle and plain speed forms, which must agree.
    """
    P = config.positions_array()
    V = config.velocities_array()
    scan = _pairscan.scan(
        P, V, worldline=True, exhaustive_limit=exhaustive_limit,
        sample_budget=sample_budget, seed=seed)
    hardcore = verify_hardcore(config, 1.0, scan=scan)
    if not hardcore.passed:
        raise HardCoreNotVerifiedError(
            f"all-time minimum distance {hardcore.min_alltime_distance} < 1")
    speeds = np.hypot(V[:, 0], V[:, 1])
    m = float(speeds.min())
    cap = float(speeds.max())
    floor = lemma1_bound(cap)
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError("radius must be finite and positive")
    if radius > floor / 2.0 * RADIUS_SLACK:
        raise RadiusTooLargeError(f"radius {radius} exceeds {floor / 2.0}")

    required = max(2.0 * radius, floor)
    margin = scan.line_distance - required
    distances_ok = scan.line_distance >= required - DISTANCE_TOL

    dup_count, dup_pairs = _pairscan.duplicate_rows(V)
    nonparallel_ok = dup_count == 0

    # Same claim in two monotone-equivalent forms; both must say yes.
    angles = np.arctan(speeds)
    annulus_by_angle = bool(
        np.all(angles >= math.atan(m)) and np.all(angles <= math.atan(cap)))
    annulus_by_speed = bool(np.all(speeds >= m) and np.all(speeds <= cap))
    annulus_forms_agree = annulus_by_angle == annulus_by_speed

    return SceneReport(
        particle_count=len(config),
        pairs_total=scan.pairs_total,
        pairs_checked=scan.pairs_checked,
        mode=scan.mode,
        seed=scan.seed,
        radius=radius,
        speed_min=m,
        speed_max=cap,
        separation_floor=floor,
        required_distance=required,
        min_line_distance=scan.line_distance,
        witness_pair=scan.line_witness,
        distance_margin=margin,
        distances_ok=bool(distances_ok),
        nonparallel_ok=bool(nonparallel_ok),
        duplicate_direction_pairs=dup_pairs,
        annulus_ok=annulus_by_speed,
        annulus_forms_agree=annulus_forms_agree,
        passed=bool(distances_ok and annulus_by_speed and annulus_forms_agree),
    )


def export_scene(scene: CylinderScene) -> str:
    """Text form: header, then px,py,pz,dx,dy,dz,r rows (unit directions),
    sorted by axis point."""
    rows = []
    for line, radius in scene.cylinders:
        b, d = line.base, line.direction
        length = math.hypot(d.x1, d.x2, d.x3)
        rows.append((
            (b.x1, b.x2, b.x3),
            ",".join(fmt_float(v) for v in (
                b.x1, b.x2, b.x3,
                d.x1 / length, d.x2 / length, d.x3 / length,
                radius)),
        ))
    rows.sort(key=lambda item: item[0])
    return "\n".join([SCENE_HEADER] + [text for _, text in rows]) + "\n"


def parse_scene(text: str) -> CylinderScene:
    """Inverse of export_scene up to direction renormalization rounding."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != SCENE_HEADER:
        raise ParseError(1, f"expected header {SCENE_HEADER!r}")
    cylinders = []
    for ln, raw in enumerate(lines[1:], start=2):
        stripped = raw.strip()
        if not stripped:
            continue
        fields = stripped.split(",")
        if len(fields) != 7:
            raise ParseError(ln, f"expected 7 fields, got {len(fields)}")
        try:
            px, py, pz, dx, dy, dz, radius = (float(f) for f in fields)
        except ValueError:
            raise ParseError(ln, f"bad number in {stripped!r}") from None
        if not dz > 0:
            raise ParseError(ln, "direction must point forward in time")
        line = WorldLine(Vec3(px, py, pz), Vec3(dx / dz, dy / dz, 1.0))
        cylinders.append((line, radius))
    if not cylinders:
        return CylinderScene((), (0.0, 0.0))
    speeds = [line.speed for line, _ in cylinders]
    return CylinderScene(tuple(cylinders), (min(speeds), max(speeds)))
