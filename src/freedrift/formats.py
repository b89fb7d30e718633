"""Text formats shared by the CLI and exporters.

All floats are written with 17 significant digits, enough for doubles to
round-trip exactly; all emitters are deterministic (no timestamps, no
environment-dependent content), so identical inputs give identical bytes.
"""
from __future__ import annotations

import dataclasses
import math
import os
import tempfile

import numpy as np

PARTICLES_HEADER = "particles v1"
REPORT_HEADER = "report v1"
# Field metadata of a report dataclass field that is not a report key.
UNREPORTED = {"reported": False}


class ParseError(ValueError):
    """Input text violating a format; carries a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt_float(value)
    if isinstance(value, int):
        return str(value)
    if value is None:
        return "none"
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt_value(v) for v in value)
    return str(value)


def _parse_float(line_no: int, field: str) -> float:
    try:
        return float(field)
    except ValueError:
        raise ParseError(line_no, f"expected a number, got {field!r}") from None


def particles_document(P, V) -> str:
    """Positions P and velocities V, (n, 2) each, one x1,x2,v1,v2 row each."""
    row = "{:.17g},{:.17g},{:.17g},{:.17g}\n".format
    return PARTICLES_HEADER + "\n" + "".join(map(row, *P.T.tolist(), *V.T.tolist()))


def _check_finite(values, row_lines) -> None:
    """Raise for the first row of values (flat, 4 per row) that holds a
    NaN or infinity, naming its position or else its velocity."""
    A = np.array(values, dtype=float).reshape(-1, 4)
    finite = np.isfinite(A)
    bad = np.flatnonzero(~finite.all(axis=1))
    if bad.size:
        k = int(bad[0])
        x = (A[k, :2] if not finite[k, :2].all() else A[k, 2:]).tolist()
        raise ParseError(row_lines[k],
                         f"non-finite Vec2 component: ({x[0]}, {x[1]})")


def parse_particles(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Positions and velocities, (n, 2) float64 arrays, of a particles file.

    Blank lines are skipped. The first bad line raises ParseError with its
    line number: a wrong field count, a field that is not a number, or a
    NaN or infinity.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != PARTICLES_HEADER:
        raise ParseError(1, f"expected header {PARTICLES_HEADER!r}")
    values: list[float] = []
    row_lines: list[int] = []
    for ln, raw in enumerate(lines[1:], start=2):
        fields = raw.split(",")
        try:
            if len(fields) != 4:
                if not raw.strip():
                    continue
                raise ParseError(
                    ln, f"expected 4 fields x1,x2,v1,v2, got {len(fields)}")
            values.extend(map(float, fields))
        except ValueError as exc:
            # Earlier rows come first: finish checking them, then report.
            del values[4 * len(row_lines):]
            _check_finite(values, row_lines)
            if isinstance(exc, ParseError):
                raise
            for f in fields:
                _parse_float(ln, f.strip())
        row_lines.append(ln)
    _check_finite(values, row_lines)
    A = np.array(values, dtype=float).reshape(-1, 4)
    return np.ascontiguousarray(A[:, :2]), np.ascontiguousarray(A[:, 2:])


def report_document(items) -> str:
    """Flat `key = value` document; arrays join with commas."""
    lines = [REPORT_HEADER]
    for key, value in dict(items).items():
        lines.append(f"{key} = {_fmt_value(value)}")
    return "\n".join(lines) + "\n"


def report_items(report) -> dict:
    """A report dataclass as report keys, in field declaration order.

    Fields marked metadata=UNREPORTED are left out, a field with
    metadata={"key": k} is written under the key k, and dataclass values
    such as Vec2 become their component tuples.
    """
    items = {}
    for f in dataclasses.fields(report):
        if f.metadata.get("reported", True):
            value = getattr(report, f.name)
            if dataclasses.is_dataclass(value):
                value = dataclasses.astuple(value)
            items[f.metadata.get("key", f.name)] = value
    return items


def parse_report(text: str) -> dict[str, str]:
    lines = text.splitlines()
    if not lines or lines[0].strip() != REPORT_HEADER:
        raise ParseError(1, f"expected header {REPORT_HEADER!r}")
    out: dict[str, str] = {}
    for ln, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(ln, "expected `key = value`")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def parse_config_text(text: str) -> dict[str, str]:
    """Flat key-value config: `key = value`, blank lines and # comments."""
    out: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(ln, "expected `key = value`")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ParseError(ln, "empty key")
        if key in out:
            raise ParseError(ln, f"duplicate key {key!r}")
        out[key] = value.strip()
    return out


def parse_table_csv(text: str) -> list[tuple[int, float]]:
    """Profile table rows `n,value`, one per line, # comments allowed."""
    rows = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise ParseError(ln, f"expected 2 fields n,value, got {len(fields)}")
        try:
            n = int(fields[0].strip())
        except ValueError:
            raise ParseError(ln, f"expected an integer, got {fields[0]!r}") from None
        rows.append((n, _parse_float(ln, fields[1].strip())))
    return rows


def write_text_atomic(path: str, text) -> None:
    """Write-then-rename so readers never observe a partial file.

    text is a string or an iterable of strings, written as they come.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def frames_csv(series):
    """Snapshot series of (t, (n, 2) positions) as CSV rows
    frame,time,particle,x1,x2: yields the header line, then each frame's
    rows as soon as series yields the frame."""
    yield "frame,time,particle,x1,x2\n"
    for frame, (t, points) in enumerate(series):
        row = f"{frame},{fmt_float(t)},{{}},{{:.17g}},{{:.17g}}\n".format
        yield "".join(map(row, range(len(points)), *points.T.tolist()))


def svg_snapshot(points, radius: float, lo: float, hi: float) -> str:
    """One frame as SVG: disks at the (n, 2) positions in the fixed world
    square [lo, hi]^2.

    The world y axis points up, SVG's points down, so y is flipped.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"bad viewport [{lo}, {hi}]")
    side = hi - lo
    circle = ('<circle cx="{:.17g}" cy="{:.17g}" '
              f'r="{fmt_float(radius)}" fill="#336699" '
              'stroke="black" stroke-width="0.02"/>\n').format
    circles = map(circle, (points[:, 0] - lo).tolist(), (hi - points[:, 1]).tolist())
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" width="512" height="512" '
        f'viewBox="0 0 {fmt_float(side)} {fmt_float(side)}">\n'
        f'<rect width="{fmt_float(side)}" height="{fmt_float(side)}" fill="white"/>\n'
        + "".join(circles) + "</svg>\n")
