"""Moving configurations: time slices, all-time hard-core verification,
and snapshot series for the emitters.

A configuration is a finite set of particles, each a position plus a
constant velocity. Results are exact for the pairs present; a finite window
says nothing about particles outside it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _pairscan
from .geometry import IdenticalParticleError, Vec2, closest_approach

DEFAULT_THRESHOLD = 1.0
# Absolute tolerance for ">=" verdicts on distances.
DISTANCE_TOL = 1e-9


class BadRangeError(ValueError):
    """Raised for an empty or inverted snapshot time range."""


@dataclass(frozen=True, slots=True)
class Particle:
    """A point with its constant velocity."""

    position: Vec2
    velocity: Vec2


@dataclass
class MovingConfiguration:
    """Finite particle set with a claimed lower bound on initial spacing.

    Duplicate particles (same position and velocity) are rejected outright;
    the initial-spacing claim itself is checked by initial_min_distance and
    the verifiers, not eagerly on construction.
    """

    particles: tuple[Particle, ...]
    discreteness_radius: float = 1.0

    def __post_init__(self) -> None:
        self.particles = tuple(self.particles)
        if not (math.isfinite(self.discreteness_radius) and self.discreteness_radius > 0):
            raise ValueError("discreteness_radius must be finite and positive")
        seen = set()
        for p in self.particles:
            key = (p.position.x1, p.position.x2, p.velocity.x1, p.velocity.x2)
            if key in seen:
                raise IdenticalParticleError(f"duplicate particle at {key}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.particles)

    def positions_array(self) -> np.ndarray:
        return np.array([(p.position.x1, p.position.x2) for p in self.particles],
                        dtype=float).reshape(len(self.particles), 2)

    def velocities_array(self) -> np.ndarray:
        return np.array([(p.velocity.x1, p.velocity.x2) for p in self.particles],
                        dtype=float).reshape(len(self.particles), 2)


@dataclass(frozen=True)
class HardCoreReport:
    """Outcome of the all-time pairwise distance check.

    witness_time is None either when the witness pair keeps a constant
    distance (attained at all times) or when there is no pair at all.
    """

    min_alltime_distance: float
    witness_pair: tuple[int, int] | None
    witness_time: float | None
    passed_threshold: float
    margin: float
    passed: bool
    pairs_total: int
    pairs_checked: int
    mode: str
    seed: int | None


def slice_at(config: MovingConfiguration, t: float) -> list[Vec2]:
    """Positions x + t v(x) at one time, in input order."""
    if not math.isfinite(t):
        raise ValueError("slice time must be finite")
    return [
        Vec2(p.position.x1 + t * p.velocity.x1, p.position.x2 + t * p.velocity.x2)
        for p in config.particles
    ]


def initial_min_distance(config: MovingConfiguration) -> float:
    """Minimum pairwise distance of the t=0 slice (inf for < 2 particles)."""
    P = config.positions_array()
    return _pairscan.scan(P, np.zeros_like(P)).min_distance


def verify_hardcore(config: MovingConfiguration,
                    threshold: float = DEFAULT_THRESHOLD, *,
                    sample_budget: int = _pairscan.DEFAULT_SAMPLE_BUDGET,
                    seed: int = _pairscan.DEFAULT_SEED,
                    exhaustive_limit: int = _pairscan.EXHAUSTIVE_LIMIT,
                    scan: _pairscan.PairScan | None = None) -> HardCoreReport:
    """All-time minimum pairwise distance versus a threshold.

    Exact per pair (closed-form closest approach); exhaustive over pairs up
    to exhaustive_limit, uniformly sampled beyond it. The witness is the
    lexicographically smallest minimizing pair in enumeration order.

    scan, when given, is a pass already made over this configuration's
    pairs (as verify_flow and verify_scene make one); it is used instead of
    scanning again.
    """
    if len(config) < 1:
        raise ValueError("configuration must contain at least one particle")
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
    if scan is None:
        scan = _pairscan.scan(
            config.positions_array(), config.velocities_array(),
            exhaustive_limit=exhaustive_limit,
            sample_budget=sample_budget, seed=seed)
    witness_time: float | None = None
    if scan.witness is not None:
        i, j = scan.witness
        pa = closest_approach(config.particles[i].position,
                              config.particles[i].velocity,
                              config.particles[j].position,
                              config.particles[j].velocity)
        witness_time = pa.time_at_min
    margin = scan.min_distance - threshold
    return HardCoreReport(
        min_alltime_distance=scan.min_distance,
        witness_pair=scan.witness,
        witness_time=witness_time,
        passed_threshold=threshold,
        margin=margin,
        passed=bool(scan.min_distance >= threshold - DISTANCE_TOL),
        pairs_total=scan.pairs_total,
        pairs_checked=scan.pairs_checked,
        mode=scan.mode,
        seed=scan.seed,
    )


def snapshot_series(config: MovingConfiguration, t0: float, t1: float,
                    frames: int) -> list[tuple[float, list[Vec2]]]:
    """Uniformly spaced slices on [t0, t1], endpoints included.

    frames=1 gives the single slice at t0.
    """
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise BadRangeError("time range must be finite")
    if t0 > t1:
        raise BadRangeError(f"inverted time range [{t0}, {t1}]")
    if frames < 1:
        raise BadRangeError(f"frames must be >= 1, got {frames}")
    if frames == 1:
        return [(t0, slice_at(config, t0))]
    out = []
    for k in range(frames):
        u = k / (frames - 1)
        t = t0 * (1.0 - u) + t1 * u  # endpoints land exactly on t0, t1
        out.append((t, slice_at(config, t)))
    return out
