"""Moving configurations over time: time slices, all-time hard-core
verification, and snapshot series for the emitters, each of one
configuration.MovingConfiguration, a file's rows or a window's product.
verify_hardcore asks it for its decision over all pairs, decide(); every
distance verdict, here and in cylinders, is one plain distance >= bound
on the doubles the decision gives, with no slack.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .geometry import DEFAULT_THRESHOLD, Vec2, closest_approach

if TYPE_CHECKING:
    import numpy as np

    from .configuration import MovingConfiguration


class BadRangeError(ValueError):
    """Raised for an empty or inverted snapshot time range."""


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
    seed: None = field(default=None, init=False)  # no verdict rests on a sample
    passed: bool


def slice_at(config: MovingConfiguration, t: float) -> np.ndarray:
    """Positions x + t v(x) at one time, in input order, as an (n, 2) array."""
    if not math.isfinite(t):
        raise ValueError("slice time must be finite")
    return config.P + t * config.V


def verify_hardcore(config: MovingConfiguration,
                    threshold: float = DEFAULT_THRESHOLD) -> HardCoreReport:
    """All-time minimum pairwise distance versus a threshold.

    config.decide() decides every pair: the structural certificate for a
    configuration with the structure of a lattice flow, a window's product
    of axes or a file's rows, exactly, mode "exhaustive-structural", in
    pure Python and with no arrays; otherwise the pair engine (closed-form
    closest approach), mode "exhaustive", which past
    geometry.EXHAUSTIVE_LIMIT pairs raises UndecidedError. The witness is
    the lexicographically smallest minimizing pair; only its two rows are
    read besides the decision.
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
        passed=scan.min_distance >= threshold,
        pairs_total=scan.pairs_total,
        pairs_checked=scan.pairs_checked,
        mode=scan.mode,
    )


def snapshot_series(config: MovingConfiguration, t0: float, t1: float,
                    frames: int):
    """Uniformly spaced slices (t, positions) on [t0, t1], endpoints included.

    The range is checked at once; each time and its slice are computed
    lazily, one per step of the returned iterator, so a large frames holds
    no list of times. frames=1 gives the single slice at t0.
    """
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise BadRangeError("time range must be finite")
    if t0 > t1:
        raise BadRangeError(f"inverted time range [{t0}, {t1}]")
    if frames < 1:
        raise BadRangeError(f"frames must be >= 1, got {frames}")
    # endpoints land exactly on t0, t1
    times = (t0,) if frames == 1 else (
        t0 * (1.0 - u) + t1 * u for u in (k / (frames - 1) for k in range(frames)))
    return ((t, slice_at(config, t)) for t in times)
