"""Moving configurations: time slices, all-time hard-core verification,
and snapshot series for the emitters.

A configuration is a finite set of particles, each a position plus a
constant velocity, held as two (n, 2) float64 arrays P and V. Results are
exact for the pairs present; a finite window says nothing about particles
outside it. A lattice.FlowAssignment is read the same way, through P, V,
len, row, decide, speed_range and duplicate_velocities, and builds its
arrays only when P or V is read.
verify_hardcore asks the configuration for its decision over all pairs,
decide(), which a flow gives from its two axes. Every distance verdict,
here and in cylinders, goes through clears, the one place DISTANCE_TOL
enters a verdict.

numpy is imported by the functions that make or read whole arrays, so
HardCoreReport, DISK_RADIUS, clears and verify_hardcore on a flow load
without it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .formats import UNREPORTED
from .geometry import (DISTANCE_TOL, IdenticalParticleError, PairScan, Vec2,
                       closest_approach)

if TYPE_CHECKING:
    import numpy as np

DEFAULT_THRESHOLD = 1.0
# Closest approaches are >= 1 in every configuration that passes at the
# default threshold; half of that, shrunk, is a safe disk radius to draw.
DISK_RADIUS = (1.0 - DISTANCE_TOL) / 2.0


class BadRangeError(ValueError):
    """Raised for an empty or inverted snapshot time range."""


def clears(distance: float, bound: float) -> bool:
    """The verdict distance >= bound, with the one slack DISTANCE_TOL."""
    return bool(distance >= bound - DISTANCE_TOL)


def speeds(V) -> np.ndarray:
    """|v| for each row of V by math.hypot, which numpy's hypot need not
    match to the last bit, as a float64 array."""
    from ._pairscan import math_map
    return math_map(math.hypot, V[:, 0], V[:, 1])


@dataclass(frozen=True, eq=False)
class MovingConfiguration:
    """Finite particle set, frozen.

    P and V are the positions and velocities, contiguous (n, 2) float64
    arrays; treat their contents as read-only. Non-finite values and
    duplicate particles (same position and velocity) are rejected outright;
    spacing is measured by the verifiers.
    """

    P: np.ndarray = field(metadata=UNREPORTED)
    V: np.ndarray = field(metadata=UNREPORTED)

    def __post_init__(self) -> None:
        import numpy as np
        P = np.ascontiguousarray(self.P, dtype=float)
        V = np.ascontiguousarray(self.V, dtype=float)
        if P.ndim != 2 or P.shape[1:] != (2,) or V.shape != P.shape:
            raise ValueError(f"positions {P.shape} and velocities "
                             f"{V.shape} must both be (n, 2)")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "V", V)
        bad = ~(np.isfinite(P).all(axis=1) & np.isfinite(V).all(axis=1))
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"non-finite particle {k}: {self.row(k)}")
        # Sorting is stable, so within each run of equal rows the indices
        # increase; the smallest index that is not first in its run is the
        # first particle that repeats an earlier one.
        order = np.lexsort((V[:, 1], V[:, 0], P[:, 1], P[:, 0]))
        Ps, Vs = P[order], V[order]
        same = (Ps[1:] == Ps[:-1]).all(axis=1) & (Vs[1:] == Vs[:-1]).all(axis=1)
        repeats = order[1:][same]
        if repeats.size:
            raise IdenticalParticleError(
                f"duplicate particle at {self.row(int(repeats.min()))}")

    def row(self, k: int) -> tuple[float, float, float, float]:
        """Particle k as (x1, x2, v1, v2)."""
        return (*self.P[k].tolist(), *self.V[k].tolist())

    def decide(self, worldline: bool = False) -> PairScan:
        """Every pair's closest approach, and with worldline its worldline
        distance: the structural certificate's exact result when P and V
        have the structure of a lattice flow, else one engine pass over
        every pair, which past _pairscan.EXHAUSTIVE_LIMIT raises
        UndecidedError."""
        from ._pairscan import certify, scan
        return (certify(self.P, self.V, worldline=worldline)
                or scan(self.P, self.V, worldline=worldline))

    def speed_range(self) -> tuple[float, float]:
        """The smallest and largest of speeds(V); at least one particle."""
        measured = speeds(self.V)
        return float(measured.min()), float(measured.max())

    def duplicate_velocities(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """Equal velocities, as _pairscan.duplicate_rows counts them."""
        from ._pairscan import duplicate_rows
        return duplicate_rows(self.V)

    def __len__(self) -> int:
        return len(self.P)


@dataclass(frozen=True)
class HardCoreReport:
    """Outcome of the all-time pairwise distance check.

    witness_time is None either when the witness pair keeps a constant
    distance (attained at all times) or when there is no pair at all.
    """

    particle_count: int
    passed_threshold: float = field(metadata={"key": "threshold"})
    min_alltime_distance: float
    witness_pair: tuple[int, int] | None
    witness_time: float | None
    margin: float
    pairs_total: int
    pairs_checked: int
    mode: str
    seed: None  # no verdict rests on a sample; kept as the report's seed line
    passed: bool


def slice_at(config: MovingConfiguration, t: float) -> np.ndarray:
    """Positions x + t v(x) at one time, in input order, as an (n, 2) array."""
    if not math.isfinite(t):
        raise ValueError("slice time must be finite")
    return config.P + t * config.V


def verify_hardcore(config: MovingConfiguration,
                    threshold: float = DEFAULT_THRESHOLD) -> HardCoreReport:
    """All-time minimum pairwise distance versus a threshold.

    config.decide() decides every pair. For a MovingConfiguration that is
    the structural certificate for a configuration with the structure of a
    lattice flow, exactly, mode "exhaustive-structural"; otherwise the
    pair engine (closed-form closest approach), mode "exhaustive", which
    past _pairscan.EXHAUSTIVE_LIMIT pairs raises UndecidedError. A
    lattice.FlowAssignment gives the certificate's result
    from its two axes, so it builds no arrays. The witness is the
    lexicographically smallest minimizing pair; only its two rows are read
    besides the decision.
    """
    if len(config) < 1:
        raise ValueError("configuration must contain at least one particle")
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
    scan = config.decide()
    witness_time: float | None = None
    if scan.witness is not None:
        p, q = (config.row(k) for k in scan.witness)
        witness_time = closest_approach(
            Vec2(*p[:2]), Vec2(*p[2:]), Vec2(*q[:2]), Vec2(*q[2:])).time_at_min
    return HardCoreReport(
        particle_count=len(config),
        min_alltime_distance=scan.min_distance,
        witness_pair=scan.witness,
        witness_time=witness_time,
        passed_threshold=threshold,
        margin=scan.min_distance - threshold,
        passed=clears(scan.min_distance, threshold),
        pairs_total=scan.pairs_total,
        pairs_checked=scan.pairs_checked,
        mode=scan.mode,
        seed=None,
    )


def snapshot_series(config: MovingConfiguration, t0: float, t1: float,
                    frames: int):
    """Uniformly spaced slices (t, positions) on [t0, t1], endpoints included.

    The range is checked at once; the slices are computed lazily, one per
    step of the returned iterator. frames=1 gives the single slice at t0.
    """
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise BadRangeError("time range must be finite")
    if t0 > t1:
        raise BadRangeError(f"inverted time range [{t0}, {t1}]")
    if frames < 1:
        raise BadRangeError(f"frames must be >= 1, got {frames}")
    if frames == 1:
        times = [t0]
    else:
        # endpoints land exactly on t0, t1
        times = [t0 * (1.0 - u) + t1 * u
                 for u in (k / (frames - 1) for k in range(frames))]
    return ((t, slice_at(config, t)) for t in times)
