"""Text formats shared by the CLI and exporters.

All floats are written with 17 significant digits, as format(x, ".17g")
writes them, enough for doubles to round-trip exactly; all emitters are
deterministic (no timestamps, no environment-dependent content), so
identical inputs give identical bytes.

The bulk emitters of arrays (frames.csv, SVG frames, and the cylinder
scenes of particle configurations without a lattice flow's structure) format
whole float64 columns at once with integer arithmetic: for
1e-4 <= |x| < 1e15 and for +-0, x = M 2^e with M < 2^53 is scaled by
10^(16-X) as the exact 128-bit product M 5^(16-X) (32-bit limbs in uint64)
shifted right, rounded half to even on the exact remainder, which gives the
17 digits that CPython's correctly rounded dtoa gives; X, the decimal
exponent, is guessed from log10 and checked against the digit count. Every
other value, and any row the checks reject, goes through format(x, ".17g").
Rows go out _ROW_BLOCK at a time: the bulk emitters yield str chunks, so
the memory they hold is bounded by a block whatever the row count.

The rows of a configuration with a lattice flow's structure, a window's
product of axes or a particles file's rows
(MovingConfiguration.particle_rows), go out by one row writer,
_column_rows, one x1 column at a time: head (x1), the middle text
of the row's x2 (x2, a separator and V0) and tail (V1 and the row's end),
each distinct double formatted once by format(x, ".17g"). A chunk holds
one column's rows: chunks merged across columns raised the peak RSS of
assign --window 100 and 1000 by about 1 MiB (CPython 3.11, x86-64).

parse_particles reads rows a block at a time, from the file's bytes, into
two array('d'), with no numpy. numpy is imported by the column functions
themselves, so the particles, report, config and table formats and
write_text_atomic load without it.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
import os
from array import array
from typing import TYPE_CHECKING

if TYPE_CHECKING:
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


# The bulk emitters build this many rows per chunk of text, so the
# character matrices alive at once stay bounded whatever the row count.
_ROW_BLOCK = 8192
# Characters of one value in _g17_chars: a sign, "0." and three zeros
# before the digits of a value below 1, then 17 digits, each but the last
# followed by a slot for the decimal point. Longer than any ".17g" string.
_WIDTH = 39
_WRITE_SLICE = 1 << 20
# parse_particles reads rows a block of at least this many bytes at a time;
# each block runs on to the end of its last line.
_PARSE_BLOCK = 1 << 16
# The characters of a plain particle row besides its commas and newline.
_NUMBER_CHARS = b"0123456789+-.eE"


def _scaled(M: np.ndarray, e: np.ndarray, X: np.ndarray):
    """q = floor(M 2^e 10^(16-X)) for uint64 M < 2^53, whether rounding
    half to even adds one to q, and where the product fits the arithmetic.

    M 5^k, k = 16-X, is formed exactly as a 128-bit (hi, lo) pair from
    32-bit limbs, then shifted right by s = -(e+k); lo's low s bits are the
    exact remainder.
    """
    import numpy as np
    k = 16 - X
    s = -(e + k)
    ok = (k >= 0) & (k <= 27) & (s >= 1) & (s <= 63)
    F = np.array([5 ** j for j in range(28)], dtype=np.uint64)[np.clip(k, 0, 27)]
    s = np.clip(s, 1, 63).astype(np.uint64)
    low32, one = np.uint64(0xFFFFFFFF), np.uint64(1)
    m0, m1 = M & low32, M >> np.uint64(32)
    f0, f1 = F & low32, F >> np.uint64(32)
    lo = m0 * f0
    mid = m1 * f0 + m0 * f1  # below 2^54
    hi = m1 * f1 + (mid >> np.uint64(32))
    mid <<= np.uint64(32)
    lo += mid  # wraps modulo 2^64; the carry goes to hi
    hi += lo < mid
    q = (hi << (np.uint64(64) - s)) | (lo >> s)
    ok &= (hi >> s) == 0
    lo &= (one << s) - one  # the remainder
    half = one << (s - one)
    up = (lo > half) | ((lo == half) & ((q & one) == one))
    return q, up, ok


def _g17_chars(x: np.ndarray) -> np.ndarray:
    """The characters of format(v, ".17g") for each v of the float64
    column x, as a (_WIDTH, n) uint8 matrix: column i holds v = x[i]'s
    characters in order, with zero bytes between and after them.
    """
    import numpy as np
    E16, E17 = np.uint64(10 ** 16), np.uint64(10 ** 17)
    n = len(x)
    a = np.abs(x)
    zero = a == 0
    fast = (a >= 1e-4) & (a < 1e15)
    g = np.where(fast, a, 1.0)
    X = np.floor(np.log10(g)).astype(np.int64)
    m, e = np.frexp(g)
    M = (m * 2.0 ** 53).astype(np.uint64)
    e = e.astype(np.int64) - 53
    # X is right exactly when 10^16 <= q < 10^17; log10 can miss by one
    # next to a power of ten, so the misses are redone once with X -+ 1.
    q, up, ok = _scaled(M, e, X)
    right = ok & (q >= E16) & (q < E17)
    redo = np.flatnonzero(~right)
    if redo.size:
        X[redo] += np.where(ok[redo] & (q[redo] < E16), -1, 1)
        q[redo], up[redo], ok[redo] = _scaled(M[redo], e[redo], X[redo])
        right[redo] = ok[redo] & (q[redo] >= E16) & (q[redo] < E17)
    D = q + up
    carry = D == E17  # rounds up to 10^17: one digit more in the exponent
    D[carry] = E16
    X += carry
    slow = ~(fast & right | zero)
    # Zeros are laid out as the digits of 10^16 at X = 0 with the "1"
    # turned to "0", and slow values are overwritten at the end.
    D[zero | slow] = E16
    X[zero | slow] = 0
    X = X.astype(np.int8)

    # The 17 digits, from the two halves D // 10^9 and D % 10^9.
    R = np.empty((17, n), np.uint8)
    A = np.empty((2, n), np.uint32)
    A[0] = D // np.uint64(10 ** 9)
    A[1] = D - A[0].astype(np.uint64) * np.uint64(10 ** 9)
    ten = np.uint32(10)
    for j in range(8):
        Q = A // ten
        R[7 - j], R[16 - j] = A - Q * ten
        A = Q
    R[8] = A[1]

    # %g's fixed notation: digit j shows up to the last nonzero digit or
    # the units digit, whichever comes later; the point after the units
    # digit X shows when a nonzero digit follows it.
    out = np.zeros((_WIDTH, n), np.uint8)
    J = np.arange(17, dtype=np.int8)[:, None]
    last = ((R != 0) * J).max(axis=0)
    R += np.uint8(ord("0"))
    R *= J <= np.maximum(last, X)
    out[6::2] = R
    out[7::2] = ((J[:16] == X) & (last > X)) * np.uint8(ord("."))
    out[6] -= zero
    out[0] = np.signbit(x) * np.uint8(ord("-"))
    below_1 = X < 0
    out[1] = below_1 * np.uint8(ord("0"))
    out[2] = below_1 * np.uint8(ord("."))
    for j in range(3):
        out[3 + j] = (X < -1 - j) * np.uint8(ord("0"))
    idx = np.flatnonzero(slow)
    if idx.size:
        text = b"".join(format(v, ".17g").encode().ljust(_WIDTH, b"\0")
                        for v in x[idx].tolist())
        out[:, idx] = np.frombuffer(text, np.uint8).reshape(-1, _WIDTH).T
    return out


def _row_slices(n: int):
    """Slices covering range(n), _ROW_BLOCK rows each."""
    return (slice(start, min(start + _ROW_BLOCK, n))
            for start in range(0, n, _ROW_BLOCK))


def _column_rows(columns, end: str):
    """For each (x1, v1, middles) of columns, two doubles and a list of
    texts, the rows f"{x1},{middle},{v1}{end}", the doubles in .17g, at
    most _ROW_BLOCK rows of one column a chunk."""
    for x1, v1, middles in columns:
        head = fmt_float(x1) + ","
        tail = f",{fmt_float(v1)}{end}"
        for rows in _row_slices(len(middles)):
            yield head + (tail + head).join(middles[rows]) + tail


def _rows_text(n: int, parts):
    """The text of n rows, yielded _ROW_BLOCK rows at a time as str.

    Each row is its parts in order: a str is written as is, a float64
    column of n values by format(v, ".17g"), and a (w, n) uint8 matrix
    (one from _g17_chars) by its nonzero bytes.
    """
    import numpy as np
    for rows in _row_slices(n):
        block = []
        for part in parts:
            if isinstance(part, str):
                block.append(np.frombuffer(part.encode("ascii"), np.uint8)[:, None])
            else:
                chars = (part[:, rows] if part.ndim == 2
                         else _g17_chars(part[rows]))
                # Drop character slots no value of the block uses.
                block.append(chars[chars.any(axis=1)])
        # The rows are laid out in place in one buffer, which translate
        # then copies without the zero bytes.
        count = rows.stop - rows.start
        widths = [len(chars) for chars in block]
        text = bytearray(sum(widths) * count)
        lines = np.frombuffer(text, np.uint8).reshape(count, -1)
        for column, chars in zip(np.cumsum([0] + widths), block):
            lines[:, column:column + len(chars)] = chars.T
        del block, chars, lines
        text = text.translate(None, b"\0")
        yield text.decode("ascii")


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt_float(value)
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


def particles_document(rows):
    """The particles file of x1,x2,v1,v2 rows: yields the header line, then
    the chunks of row text that rows yields, such as
    configuration.MovingConfiguration.particle_rows()."""
    yield PARTICLES_HEADER + "\n"
    yield from rows


def _check_finite(values, row_lines) -> None:
    """Raise for the first row of values (4 per row) that holds a NaN or
    infinity, naming its position or else its velocity."""
    # A sum of doubles is finite only if every term is; one that overflows
    # sends the search through every row, which finds none.
    if math.isfinite(sum(values)):
        return
    for k, line in enumerate(row_lines):
        row = values[4 * k:4 * k + 4]
        if not all(map(math.isfinite, row)):
            x = row[:2] if not all(map(math.isfinite, row[:2])) else row[2:]
            raise ParseError(line, f"non-finite Vec2 component: ({x[0]}, {x[1]})")


def _parse_lines(lines, first_line: int) -> array:
    """The x1,x2,v1,v2 values of the rows of lines, numbered from
    first_line, as one array('d') of 4 per row.

    Blank lines are skipped. The first bad line raises ParseError: a wrong
    field count, a field that is not a number, or a NaN or infinity.
    """
    values: list[float] = []
    row_lines: list[int] = []
    for ln, raw in enumerate(lines, start=first_line):
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
    return array("d", values)


def _plain_rows(block: bytes) -> array | None:
    """The values of a block of plain rows, 4 per row, else None.

    A plain row is ASCII digits, signs, points and exponent letters with
    exactly three commas, ending in a newline; deleting all but the commas
    and newlines of a plain block leaves ",,,\n" once per row, and any
    other byte, ASCII or not, is left over.
    """
    # A last row without its newline ("1,2,3,4\n55") would pass the comma
    # check below with its fields silently dropped.
    if not block.endswith(b"\n"):
        return None
    if block.translate(None, _NUMBER_CHARS) != b",,,\n" * block.count(b"\n"):
        return None
    fields = block.replace(b"\n", b",").split(b",")
    fields.pop()  # the empty field after the last newline
    try:
        return array("d", map(float, fields))
    except ValueError:  # an empty field, "1e" and the like: the line loop reports it
        return None


def _parse_blocks(data: bytes, start: int, ln: int, eol: bytes):
    """The values of the rows of data[start:], its first line numbered ln,
    as arrays of 4 per row, one block of at least _PARSE_BLOCK bytes at a
    time. Each block ends at an eol byte, "\n", or "\r" in a file without
    "\n"; that byte is never part of a multi-byte character, so a block
    that is not plain is decoded as UTF-8 on its own."""
    while start < len(data):
        stop = data.find(eol, start + _PARSE_BLOCK - 1) + 1 or len(data)
        block = data[start:stop]
        # Rows ending in "\r\n" or "\r" are plain too: str.splitlines, which
        # numbers the lines of the other blocks, ends a line there as at "\n".
        values = _plain_rows(block.replace(b"\r\n", b"\n").replace(b"\r", b"\n"))
        if values is None:
            try:
                lines = block.decode().splitlines()
            except UnicodeDecodeError as exc:
                # Earlier lines come first: parse the whole lines before the
                # bad byte (a sentinel ends the partial one, which is
                # dropped), then report it, its position counted from the
                # start of the data.
                before = block[:exc.start].decode() + "\0"
                _parse_lines(before.splitlines()[:-1], ln)
                raise UnicodeDecodeError(exc.encoding, data, start + exc.start,
                                         start + exc.end, exc.reason) from None
            values = _parse_lines(lines, ln)
            ln += len(lines)
        else:
            rows = len(values) // 4
            _check_finite(values, range(ln, ln + rows))
            ln += rows
        start = stop
        yield values


def parse_particles(data: bytes) -> tuple[array, array]:
    """The bytes of a particles file, UTF-8 text, as the positions and
    velocities that MovingConfiguration takes: two array('d'), of x1, x2
    and of v1, v2 for each row in turn.

    Blank lines are skipped, and lines end as str.splitlines ends them.
    The first bad line raises ParseError with its line number: a wrong
    field count, a field that is not a number, or a NaN or infinity. Bytes
    that are not UTF-8 raise UnicodeDecodeError, a ValueError, unless a line
    before them is bad.

    The rows are read a block at a time (_parse_blocks) into preallocated
    arrays, so the memory held besides the data and the result is bounded
    by a block; blocks end at "\n", or at "\r" when the data has no "\n".
    A block of plain rows (_plain_rows) goes through one split
    and one map(float) on its bytes; any other block, or one that float
    rejects, is decoded and goes line by line. No numpy is loaded.
    """
    # A file whose lines end in "\r" alone has no "\n" to split blocks at.
    eol = b"\n" if b"\n" in data else b"\r"
    head = data[:data.find(eol) + 1] or data
    lines = head.decode().splitlines()
    if not lines or lines[0].strip() != PARTICLES_HEADER:
        raise ParseError(1, f"expected header {PARTICLES_HEADER!r}")
    # Exact for plain rows; grown when other line breaks make more.
    capacity = data.count(eol, len(head)) + (not data.endswith(eol))
    positions = array("d", [0.0]) * (2 * capacity)
    velocities = array("d", [0.0]) * (2 * capacity)
    n = 0
    for values in itertools.chain([_parse_lines(lines[1:], 2)],
                                  _parse_blocks(data, len(head), len(lines) + 1, eol)):
        rows = len(values) // 4
        if 2 * (n + rows) > len(positions):
            more = array("d", [0.0]) * (2 * max(n, rows))
            positions += more
            velocities += more
        for out, column in ((positions, 0), (velocities, 2)):
            out[2 * n:2 * (n + rows):2] = values[column::4]
            out[2 * n + 1:2 * (n + rows):2] = values[column + 1::4]
        n += rows
    del positions[2 * n:], velocities[2 * n:]
    return positions, velocities


def report_document(items) -> str:
    """Flat `key = value` document; arrays join with commas."""
    lines = [f"{key} = {_fmt_value(value)}" for key, value in dict(items).items()]
    return "\n".join([REPORT_HEADER, *lines]) + "\n"


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

    text is a string or an iterable of strings, written as they come, a
    slice of at most _WRITE_SLICE characters at a time: the file encodes
    what it is given whole, so a long string would otherwise be held twice.
    The file gets the mode open() would give it, 0666 less the umask.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
    # O_EXCL never opens an existing file or follows a link, and the kernel
    # applies the umask to 0666 as open() does (mkstemp would give 0600).
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL
                 | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            for chunk in [text] if isinstance(text, str) else text:
                for k in range(0, len(chunk), _WRITE_SLICE):
                    handle.write(chunk[k:k + _WRITE_SLICE])
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
    rows as soon as series yields the frame, in chunks of text."""
    import numpy as np
    yield "frame,time,particle,x1,x2\n"
    particle = None
    for frame, (t, points) in enumerate(series):
        if particle is None or particle.shape[1] != len(points):
            particle = _g17_chars(np.arange(len(points), dtype=float))
            # Kept for every frame: without the slots no index uses.
            particle = particle[particle.any(axis=1)]
        yield from _rows_text(len(points), (
            f"{frame},{fmt_float(t)},", particle,
            ",", points[:, 0], ",", points[:, 1], "\n"))


def svg_snapshot(points, radius: float, lo: float, hi: float):
    """One frame as SVG: disks at the (n, 2) positions in the fixed world
    square [lo, hi]^2, yielded in chunks of text. A bad viewport, one
    whose side hi - lo is not a finite positive double, raises ValueError
    at the call.

    The world y axis points up, SVG's points down, so y is flipped.
    """
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ValueError(f"bad viewport [{lo}, {hi}]")
    return _svg_chunks(points, radius, lo, hi)


def _svg_chunks(points, radius: float, lo: float, hi: float):
    side = hi - lo
    yield ('<svg xmlns="http://www.w3.org/2000/svg" width="512" height="512" '
           f'viewBox="0 0 {fmt_float(side)} {fmt_float(side)}">\n'
           f'<rect width="{fmt_float(side)}" height="{fmt_float(side)}" fill="white"/>\n')
    tail = (f'" r="{fmt_float(radius)}" fill="#336699" '
            'stroke="black" stroke-width="0.02"/>\n')
    # The shifted coordinates are made a block at a time, not for all rows.
    for rows in _row_slices(len(points)):
        block = points[rows]
        yield from _rows_text(len(block), (
            '<circle cx="', block[:, 0] - lo, '" cy="', hi - block[:, 1], tail))
    yield "</svg>\n"
