"""The files the CLI writes, JSON and exact "%.17g" CSV, under one policy
for values that are not finite:

- JSON refuses NaN and +-inf; a value that can be undefined is None (null).
- CSV allows NaN only in a "phase" column, the phase of a dark point.
- ``write_outputs`` checks every output of a command, and encodes its JSON,
  before it opens the first file.  A refusal is a DegenerateGeometryError,
  so the CLI exits 3 and writes nothing.
"""

import functools
import json

import numpy as np

from .errors import DegenerateGeometryError
from .superpose import FieldMap

# Values formatted per numpy pass of the CSV writer: a pass's slot planes (29
# bytes a value) stay below the 128 KiB at which glibc's malloc maps fresh
# pages (16384 values took about 11 000 minor faults per ferris map), and the
# row buffer is made once per file, so a warm map's write takes no minor fault.
_CHUNK_VALUES = 4096
# Decimal exponents the numpy path formats: |x| in [1e-280, 1e280] keeps every
# scaled product below and its error terms well above the float64 range limits.
_E_MIN, _E_MAX = -281, 280
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter for float64
# How close to a rounding tie the 17th digit may fall before Python formats it
_TIE_WINDOW = 1e-6


@functools.cache
def _decimal_tables():
    """Per decimal exponent E from _E_MIN to _E_MAX (column E - _E_MIN),
    built on first use: scale (4, n_E) float64, Dekker's halves of hi, hi,
    lo, with hi = 10^(16 - E) and lo = 10^(16 - E) - hi correctly rounded
    from exact integers; layout (12, n_E) uint8, the %g prefix
    "0.000"[:1 - E] of fixed notation below 1 (-4 <= E < 0) or the exponent
    "e+dd" or "e-ddd" of scientific notation (E < -4 or E >= 17), padded
    with 0 bytes, then the count of digits before the point (0 below 1) and
    the mantissa slot of the point (18: none in the mantissa)."""
    hi, lo, layout = [], [], []
    for e in range(_E_MIN, _E_MAX + 1):
        if e <= 16:
            h = float(10 ** (16 - e))
            hi.append(h)
            lo.append(float(10 ** (16 - e) - int(h)))
        else:
            d = 10 ** (e - 16)
            num, den = (1 / d).as_integer_ratio()
            hi.append(num / den)
            lo.append((den - num * d) / (den * d))
        if -4 <= e < 0:
            text, n_int, point = "0.000"[:1 - e].ljust(10, "\0"), 0, 18
        elif 0 <= e < 17:
            text, n_int, point = "\0" * 10, e + 1, e + 1
        else:
            text, n_int, point = ("\0" * 5 + "e%+03d" % e).ljust(10, "\0"), 1, 1
        layout.append(list(text.encode()) + [n_int, point])
    hi = np.array(hi)
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    return (np.stack([hi_hi, hi - hi_hi, hi, np.array(lo)]),
            np.array(layout, dtype=np.uint8).T.copy())


def _slots(values):
    """The "%.17g" text of each value of a 1-D float64 array, as (29, n)
    uint8 planes: slot 0 the sign, 1-5 the prefix "0.000", 6-23 the
    mantissa, 24-28 the exponent "e-ddd"; unused slots are 0.  For a finite
    x with 1e-280 <= |x| <= 1e280:

    - E = floor(log10|x|), and m = |x| * 10^(16 - E) is formed as p + e:
      p = fl(|x| * hi), and e the product's exact rounding error (Dekker's
      two-product) plus |x| * lo, so p + e is m to about 1e-14;
    - p >= 2^53 is an integer, so N = p + floor(e + 1/2) is m rounded half
      up, exactly unless m + 1/2 lies within _TIE_WINDOW of an integer;
    - log10 may misplace E by one next to a power of ten; then N <= 10^16
      or N >= 10^17, so N is the 17-digit significand only strictly
      between those bounds (N = 10^17 is also the carry into E + 1).

    Zeros, NaN, infinities, |x| out of range, values near a tie (which Python
    rounds half to even) and values on or past the bounds are formatted by
    Python's "%.17g" in one % operation and written into their slots."""
    n = values.size
    scale, layout = _decimal_tables()
    a = np.abs(values)
    fallback = ~((a >= 1e-280) & (a <= 1e280))
    a[fallback] = 1.5
    col = np.floor(np.log10(a)).astype(np.intp)
    col -= _E_MIN
    hi_hi, hi_lo, hi, lo = np.take(scale, col, axis=1)
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    p = a * hi
    e = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo + a * lo
    e += 0.5
    r = np.floor(e)
    e -= r
    fallback |= np.abs(e - 0.5) > 0.5 - _TIE_WINDOW
    sig = p.astype(np.int64)
    sig += r.astype(np.int64)
    fallback |= (sig <= 10 ** 16) | (sig >= 10 ** 17)

    # digits: rows 0-17 hold the 18 digits of sig (row 0 is 0), two 9-digit
    # halves at once by uint32 divmod by 10; row 18 stays 0
    halves = np.empty((2, n), dtype=np.uint32)
    np.divmod(sig, 10 ** 9, out=(halves[0], halves[1]), casting="unsafe")
    digits = np.zeros((19, n), dtype=np.uint8)
    ten = np.uint32(10)
    for i in range(8, -1, -1):
        q = halves // ten
        np.subtract(halves, q * ten, out=digits[i:18:9], casting="unsafe")
        halves = q
    sig_digits = digits[1:18]
    slots = np.arange(18, dtype=np.uint8)[:, None]
    n_sig = ((sig_digits != 0) * slots[1:]).max(axis=0)
    lay = np.take(layout, col, axis=1)
    n_int, point = lay[10], lay[11]
    sig_digits += np.uint8(48)
    sig_digits *= slots[:17] < np.maximum(n_int, n_sig)

    planes = np.empty((29, n), dtype=np.uint8)
    planes[0] = np.signbit(values) * np.uint8(45)
    planes[1:6] = lay[:5]
    # mantissa slot s holds digit s before the point and digit s - 1 after
    # it; the point goes in where digits follow it
    mantissa = planes[6:24]
    np.subtract(digits[:18], digits[1:], out=mantissa)
    point[n_sig <= n_int] = 18
    mantissa *= slots > point
    mantissa += digits[1:]
    cols = np.flatnonzero(point < 18)
    mantissa[point[cols], cols] = 46
    planes[24:29] = lay[5:10]
    rows = np.flatnonzero(fallback)
    if rows.size:
        text = ("%.17g\n" * rows.size % tuple(values[rows].tolist())).split("\n")[:-1]
        planes[:, rows] = np.array(text, dtype="S29").view(np.uint8).reshape(-1, 29).T
    return planes


def write_rows(path, header, data, axes=()):
    """Write a header line, then one line per row i of the 2-D float64
    ``data``: each axis's value at grid point i (the first axis varying
    fastest), then the row's values, in "%.17g", comma-separated, LF
    newlines: np.savetxt's bytes, NaN, inf and rows of no columns included.

    Axes are formatted once and gathered per row; ``data`` is formatted about
    _CHUNK_VALUES values at a time into a (rows, columns, 30) uint8 buffer
    made once per file: ``_slots``' 29 bytes, then "," or "\\n"; 0 bytes are
    dropped."""
    n_rows, n_cols = data.shape[0], len(axes) + data.shape[1]
    step = max(1, _CHUNK_VALUES // max(1, data.shape[1]))
    texts = [_slots(axis).T.copy() for axis in axes]
    buf = np.empty((min(step, n_rows), n_cols, 30), dtype=np.uint8)
    buf[:, :, 29] = 44
    buf[:, -1:, 29] = 10
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, n_rows, step):
            rows = buf[:min(step, n_rows - start)]
            point = np.arange(start, start + len(rows))
            for j, text in enumerate(texts):
                point, index = np.divmod(point, len(text))
                rows[:, j, :29] = np.take(text, index, axis=0)
            block = data[start:start + len(rows)]
            rows[:, len(axes):, :29] = _slots(block.ravel()).reshape(
                29, *block.shape).transpose(1, 2, 0)
            fh.write(rows.tobytes().translate(None, b"\0") if n_cols else b"\n" * len(rows))


def _checked(name, content):
    """The write of one output, path -> None: a dict as JSON, a FieldMap as
    rows (coord1, coord2, amplitude, phase, intensity), one per grid point,
    axis2-major, a (header, rows) table as its rows.  Raises
    DegenerateGeometryError where the output breaks the non-finite policy."""
    if isinstance(content, dict):
        try:
            text = json.dumps(content, indent=2, sort_keys=True, allow_nan=False) + "\n"
        except ValueError as exc:
            raise DegenerateGeometryError(f"{name}: {exc}") from None
        return lambda path: path.write_bytes(text.encode())   # one write
    if isinstance(content, FieldMap):
        header = "coord1,coord2,amplitude,phase,intensity"
        data = np.stack([content.amplitude, content.phase, content.intensity], -1).reshape(-1, 3)
        axes = (content.grid.axis1, content.grid.axis2)
    else:
        header, data, axes = content[0], np.asarray(content[1], dtype=float), ()
    columns = zip(header.split(","), (*axes, *data.T), strict=True)
    bad = [column for column, values in columns if not np.isfinite(values).all()
           and (column != "phase" or np.isinf(values).any())]
    if bad:
        raise DegenerateGeometryError(f"{name}: non-finite values in column {', '.join(bad)}")
    return lambda path: write_rows(path, header, data, axes)


def write_outputs(directory, outputs):
    """Write each (file name, content) output into the Path ``directory``,
    each checked (see ``_checked``) before the first file is opened."""
    for write, path in [(_checked(name, content), directory / name) for name, content in outputs]:
        write(path)
