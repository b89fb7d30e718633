"""Collision-free kinematics for planar point sets.

Constructs constant-velocity assignments on integer windows whose particles
never come closer than unit distance, verifies user-supplied configurations,
packs the corresponding space-time cylinders, and searches for violations of
would-be universal separation fields.

The namespace is lazy (PEP 562): ``import freedrift`` loads no submodule and
no numpy. Each exported name imports its home module on first use and is
then cached here.
"""
import importlib

# Each submodule and the public names it exports.
_EXPORTS = {
    "configuration": ("MovingConfiguration",),
    "cylinders": (
        "HardCoreNotVerifiedError",
        "RadiusTooLargeError",
        "SceneReport",
        "export_scene",
        "lemma1_bound",
        "verify_scene",
    ),
    "evolution": (
        "BadRangeError",
        "HardCoreReport",
        "slice_at",
        "snapshot_series",
        "verify_hardcore",
    ),
    "falsifier": (
        "CandidateField",
        "Exhausted",
        "FieldKind",
        "ViolationReport",
        "builtin_field",
        "clamped_linear_field",
        "constant_field",
        "falsify",
        "grid_field",
        "rotational_field",
        "saturated_radial_field",
    ),
    "formats": ("ParseError",),
    "geometry": (
        "GeometryError",
        "IdenticalParticleError",
        "PairApproach",
        "UndecidedError",
        "Vec2",
        "closest_approach",
    ),
    "lattice": (
        "EmptyWindowError",
        "FlowAssignment",
        "FlowReport",
        "MonotoneProfile",
        "NonMonotoneProfileError",
        "OutOfDomainError",
        "ProfileKind",
        "Window",
        "arctan_profile",
        "build_flow",
        "named_profile",
        "profile_eval",
        "rational_profile",
        "table_profile",
        "tanh_profile",
        "verify_flow",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
