"""Per-layer spans for the traced run, recorded from outside the program.

The traced run calls `freedrift.cli.main` in-process. `Tracer.install`
replaces each traced function with a timing wrapper in every freedrift
module that holds it, because `cli` and `cylinders` import several
functions by name. A target that no longer exists is reported as absent,
so a later change that merges or renames a function does not break the run.

Spans nest; a span's self time is its duration minus the durations of the
spans called inside it.
"""
from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict

from checks import claims_every_pair


def _count_scan(kind):
    def count(tracer, result, args, kwargs):
        tracer.counts["pairscan.scans"] += 1
        tracer.counts["pairscan.pairs_evaluated"] += result.pairs_checked
        tracer.counts[f"pairscan.{kind}_pairs"] += result.pairs_checked
        if claims_every_pair(result.mode):
            tracer.counts["pairscan.pairs_certified"] += result.pairs_total
    return count


def _count_bytes(tracer, result, args, kwargs):
    path = args[0] if args else kwargs["path"]
    tracer.counts["formats.bytes_written"] += os.path.getsize(path)


def _count_evaluations(tracer, result, args, kwargs):
    tracer.counts["falsifier.evaluations"] += result.evaluations_used


# (metric, module, attribute or Class.method, counter called with the result)
SPANS = (
    ("pairscan.closest_s", "freedrift._pairscan", "scan_closest_approach",
     _count_scan("closest")),
    ("pairscan.chain_s", "freedrift._pairscan", "scan_chain", _count_scan("chain")),
    ("pairscan.worldline_s", "freedrift._pairscan", "scan_worldline_distance",
     _count_scan("worldline")),
    ("lattice.build_flow_s", "freedrift.lattice", "build_flow", None),
    ("lattice.verify_flow_s", "freedrift.lattice", "verify_flow", None),
    ("evolution.config_s", "freedrift.evolution", "MovingConfiguration.__init__", None),
    ("evolution.config_s", "freedrift.evolution",
     "MovingConfiguration.positions_array", None),
    ("evolution.config_s", "freedrift.evolution",
     "MovingConfiguration.velocities_array", None),
    ("evolution.verify_hardcore_s", "freedrift.evolution", "verify_hardcore", None),
    ("evolution.snapshot_series_s", "freedrift.evolution", "snapshot_series", None),
    ("cylinders.verify_scene_s", "freedrift.cylinders", "verify_scene", None),
    ("cylinders.build_scene_s", "freedrift.cylinders", "build_scene", None),
    ("cylinders.export_scene_s", "freedrift.cylinders", "export_scene", None),
    ("formats.parse_particles_s", "freedrift.formats", "parse_particles", None),
    ("formats.emit_s", "freedrift.formats", "particles_document", None),
    ("formats.emit_s", "freedrift.formats", "report_document", None),
    ("formats.emit_s", "freedrift.formats", "frames_csv", None),
    ("formats.emit_s", "freedrift.formats", "svg_snapshot", None),
    ("formats.write_s", "freedrift.formats", "write_text_atomic", _count_bytes),
    ("falsifier.falsify_s", "freedrift.falsifier", "falsify", _count_evaluations),
)


class Tracer:
    """Self time per span name and counts, summed until reset."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.absent: list[str] = []
        self._children = [0.0]
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.counts.clear()

    def call(self, name, fn, *args, **kwargs):
        """Run fn as a span called `name`."""
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self.self_s[name] += elapsed - self._children.pop()
            self._children[-1] += elapsed

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                counter(self, result, args, kwargs)
            return result
        return traced

    def install(self) -> None:
        self.absent = []
        for name, module_name, attr, counter in SPANS:
            try:
                owner = importlib.import_module(module_name)
                path = attr.split(".")
                for part in path[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, path[-1])
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}:{attr}")
                continue
            traced = self._wrap(name, original, counter)
            holders = [owner] if len(path) > 1 else [
                module for key, module in list(sys.modules.items())
                if key.split(".")[0] == "freedrift" and module is not None]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, value))
                        setattr(holder, key, traced)

    def uninstall(self) -> None:
        while self._undo:
            holder, key, value = self._undo.pop()
            setattr(holder, key, value)


COUNTS = ("pairscan.scans", "pairscan.pairs_evaluated", "pairscan.pairs_certified",
          "formats.bytes_written", "falsifier.evaluations")


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of one traced repetition; 0 where the
    workload's commands never reach the layer."""
    s, c = tracer.self_s, tracer.counts
    out = {name: s[name] for name, *_ in SPANS}
    for kind in ("closest", "chain", "worldline"):
        out[f"pairscan.{kind}_pairs_per_s"] = _rate(c[f"pairscan.{kind}_pairs"],
                                                    s[f"pairscan.{kind}_s"])
    for name in COUNTS:
        out[name] = c[name]
    out["falsifier.evals_per_s"] = _rate(c["falsifier.evaluations"],
                                         s["falsifier.falsify_s"])
    out["cli.self_s"] = s["cli.self_s"]
    return out
