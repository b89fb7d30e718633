"""Space-time cylinder scenes around particle worldlines.

A particle (x, v) traces the line {(x + t v, t)}. When a configuration
keeps all pairwise distances >= 1 at all times and speeds stay <= M, any
two of its worldlines are at least 1/sqrt(1+M^2) apart, so cylinders of
half that radius around them have pairwise disjoint interiors. This module
builds such scenes, verifies the distance and nonparallelity claims, and
round-trips scenes through a plain text format.

For a lattice flow the verification needs no pass over the pairs: the
structural certificate gives the exact worldline minimum 1/sqrt(1+S^2),
S the largest velocity component in absolute value, at least the floor
above because S <= M. Other configurations go through the pair engine.
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from . import _pairscan
from .evolution import MovingConfiguration, Particle, speeds, verify_hardcore
from .formats import UNREPORTED, ParseError, fmt_float
from .geometry import DISTANCE_TOL, Vec3

SCENE_HEADER = "cylinder-scene v1"
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


def _equal_radius(radii) -> float | None:
    distinct = set(radii)
    if len(distinct) > 1:
        raise ValueError("all cylinder radii must be equal")
    return distinct.pop() if distinct else None


@dataclass(frozen=True, eq=False)
class CylinderScene:
    """Equal-radius cylinders around the axes b + t (v1, v2, 1).

    bases (n, 3) holds the axis points b and velocities (n, 2) the axis
    slopes v; every speed |v| lies within speed_bounds [m, M]. radius is
    None exactly when the scene is empty. measured, when given, holds
    evolution.speeds(velocities), already computed by the caller.
    """

    bases: np.ndarray
    velocities: np.ndarray
    radius: float | None
    speed_bounds: tuple[float, float]
    measured: InitVar[np.ndarray | None] = None

    def __post_init__(self, measured) -> None:
        m, cap = self.speed_bounds
        if not (math.isfinite(m) and math.isfinite(cap) and 0 <= m <= cap):
            raise ValueError(f"bad speed bounds {self.speed_bounds}")
        n = len(self.bases)
        if self.bases.shape != (n, 3) or self.velocities.shape != (n, 2):
            raise ValueError(f"bases {self.bases.shape} and velocities "
                             f"{self.velocities.shape} must be (n, 3) and (n, 2)")
        if n == 0:
            return
        radius = self.radius
        if not (radius is not None and math.isfinite(radius) and radius > 0):
            raise ValueError("radius must be finite and positive")
        if radius > lemma1_bound(cap) / 2.0 * RADIUS_SLACK:
            raise RadiusTooLargeError(
                f"radius {radius} exceeds {lemma1_bound(cap) / 2.0}")
        if measured is None:
            measured = np.array(speeds(self.velocities))
        outside = np.flatnonzero((measured < m - 1e-12) | (measured > cap + 1e-12))
        if outside.size:
            raise ValueError(f"direction speed {float(measured[outside[0]])} "
                             f"outside [{m}, {cap}]")

    @classmethod
    def from_cylinders(cls, cylinders, speed_bounds) -> "CylinderScene":
        """Scene from (WorldLine, radius) pairs, the per-cylinder API form."""
        cylinders = tuple(cylinders)
        bases = [(line.base.x1, line.base.x2, line.base.x3) for line, _ in cylinders]
        slopes = [(line.direction.x1, line.direction.x2) for line, _ in cylinders]
        return cls(np.array(bases, dtype=float).reshape(-1, 3),
                   np.array(slopes, dtype=float).reshape(-1, 2),
                   _equal_radius(r for _, r in cylinders), speed_bounds)

    @property
    def cylinders(self) -> tuple[tuple[WorldLine, float], ...]:
        """(WorldLine, radius) pairs, built on each access."""
        return tuple(
            (WorldLine(Vec3(*b), Vec3(v1, v2, 1.0)), self.radius)
            for b, (v1, v2) in zip(self.bases.tolist(), self.velocities.tolist()))


def build_scene(config: MovingConfiguration, radius: float | None = None,
                measured: np.ndarray | None = None) -> CylinderScene:
    """Scene with measured speed bounds; radius defaults to half the floor.

    measured, when given, is the array of evolution.speeds(config.V),
    already computed by the caller.
    """
    n = len(config)
    if n == 0:
        return CylinderScene(np.zeros((0, 3)), np.zeros((0, 2)), None, (0.0, 0.0))
    if measured is None:
        measured = np.array(speeds(config.V))
    m, cap = float(measured.min()), float(measured.max())
    if radius is None:
        radius = lemma1_bound(cap) / 2.0
    bases = np.zeros((n, 3))
    bases[:, :2] = config.P
    return CylinderScene(bases, config.V, radius, (m, cap), measured)


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
    # All duplicate directions; the pairs above list the first 16.
    duplicate_direction_count: int = field(
        metadata={"key": "duplicate_direction_pairs"})
    pairs_total: int
    pairs_checked: int
    mode: str
    seed: int | None
    passed: bool


def verify_scene(config: MovingConfiguration, radius: float, *,
                 sample_budget: int = _pairscan.DEFAULT_SAMPLE_BUDGET,
                 seed: int = _pairscan.DEFAULT_SEED,
                 exhaustive_limit: int = _pairscan.EXHAUSTIVE_LIMIT) -> SceneReport:
    """Check pairwise worldline distances against max(2 radius, floor).

    The configuration must already satisfy the all-time unit-distance
    condition, checked in the same pass over the pairs; the speed ceiling
    M is measured here, never trusted from metadata, and the radius is
    checked against it before the pass.

    A configuration with the structure of a lattice flow is decided by the
    structural certificate (_pairscan.certify with worldline): the exact
    minima over all pairs, mode "exhaustive-structural". Its worldline
    minimum is rounded down and is used only when it is at least the
    required distance; when the certificate is absent or falls short, the
    pair engine decides.
    """
    if len(config) < 1:
        raise ValueError("configuration must contain at least one particle")
    P, V = config.P, config.V
    measured = np.hypot(V[:, 0], V[:, 1])
    m = float(measured.min())
    cap = float(measured.max())
    floor = lemma1_bound(cap)
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError("radius must be finite and positive")
    if radius > floor / 2.0 * RADIUS_SLACK:
        raise RadiusTooLargeError(f"radius {radius} exceeds {floor / 2.0}")

    required = max(2.0 * radius, floor)

    scan = _pairscan.certify(P, V, worldline=True)
    certified = scan is not None and scan.line_distance >= required
    if not certified:
        scan = _pairscan.scan(
            P, V, worldline=True, exhaustive_limit=exhaustive_limit,
            sample_budget=sample_budget, seed=seed)
    hardcore = verify_hardcore(config, 1.0, scan=scan)
    if not hardcore.passed:
        raise HardCoreNotVerifiedError(
            f"all-time minimum distance {hardcore.min_alltime_distance} < 1")

    margin = scan.line_distance - required
    distances_ok = bool(scan.line_distance >= required - DISTANCE_TOL)
    dup_count, dup_pairs = _pairscan.duplicate_rows(V)
    nonparallel_ok = dup_count == 0

    return SceneReport(
        particle_count=len(config),
        radius=radius,
        speed_min=m,
        speed_max=cap,
        separation_floor=floor,
        required_distance=required,
        min_line_distance=scan.line_distance,
        witness_pair=scan.line_witness,
        distance_margin=margin,
        distances_ok=distances_ok,
        nonparallel_ok=bool(nonparallel_ok),
        duplicate_direction_pairs=dup_pairs,
        duplicate_direction_count=dup_count,
        pairs_total=scan.pairs_total,
        pairs_checked=scan.pairs_checked,
        mode=scan.mode,
        seed=scan.seed,
        passed=distances_ok,
    )


def export_scene(scene: CylinderScene) -> str:
    """Text form: header, then px,py,pz,dx,dy,dz,r rows (unit directions),
    sorted by axis point."""
    B, V = scene.bases, scene.velocities
    if len(B) == 0:
        return SCENE_HEADER + "\n"
    lengths = np.array(list(map(math.hypot, V[:, 0].tolist(), V[:, 1].tolist(),
                                [1.0] * len(V))))
    D = np.column_stack((V, np.ones(len(V)))) / lengths[:, None]
    # Stable, like sorting rows on their (px, py, pz) tuples.
    order = np.lexsort((B[:, 2], B[:, 1], B[:, 0]))
    row = ("{:.17g}," * 6 + fmt_float(scene.radius) + "\n").format
    return SCENE_HEADER + "\n" + "".join(map(row, *np.hstack((B, D))[order].T.tolist()))


def parse_scene(text: str) -> CylinderScene:
    """Inverse of export_scene up to direction renormalization rounding."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != SCENE_HEADER:
        raise ParseError(1, f"expected header {SCENE_HEADER!r}")
    bases, slopes, radii = [], [], []
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
        row = (px, py, pz, dx / dz, dy / dz)
        if not all(map(math.isfinite, row)):
            raise ParseError(ln, f"non-finite axis in {stripped!r}")
        bases.append(row[:3])
        slopes.append(row[3:])
        radii.append(radius)
    V = np.array(slopes, dtype=float).reshape(-1, 2)
    measured = np.array(speeds(V))
    bounds = ((float(measured.min()), float(measured.max())) if measured.size
              else (0.0, 0.0))
    return CylinderScene(np.array(bases, dtype=float).reshape(-1, 3), V,
                         _equal_radius(radii), bounds, measured)
