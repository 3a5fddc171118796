"""Superposition of two counter-propagating Laguerre-Gaussian beams.

The pair interferes into an axial fringe lattice; this module evaluates the
total amplitude/phase, the phase difference split into its physical parts,
and sampled intensity maps on half-plane (rho, z) or transverse (x, y) grids.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateGeometryError
from .lg_mode import (BeamSpec, CylPoint, _local_z, _phase_parts, _row_phase, mode_amplitude,
                      mode_phase)

__all__ = [
    "BLOCK_POINTS",
    "DARK_FRACTION",
    "FieldMap",
    "GridSpec",
    "PairSpec",
    "PhaseDifference",
    "intensity_map",
    "pair_complex",
    "phase_difference",
    "total_amplitude",
    "total_phase",
]

# Fraction of max(U1, U2) below which the total amplitude counts as a dark
# point and the total phase is undefined
DARK_FRACTION = 1e-9


@dataclass(frozen=True)
class PairSpec:
    """Two beams of one wavelength, waist and radial index p sharing an
    axis, foci separated by ``separation_d``.

    Beam 1 (winding l1, amplitude scale amp1) travels along +z with its
    focus at z = -d/2; beam 2 (winding l2, default l1, amplitude scale amp2)
    travels along -z with its focus at z = +d/2, so in the lab frame it
    carries -l2 phi and the pattern has l1 + l2 spokes.  ``delta_omega`` and
    ``delta_k`` are the frequency and wavenumber offsets of beam 2 relative
    to beam 1, applied as an extra phase delta_k * z + delta_omega * t on
    beam 2.  ``beam1`` and ``beam2`` are built and validated once, from
    these values.
    """

    wavelength: float
    waist: float
    l1: int
    l2: int = None
    separation_d: float = 0.0
    delta_omega: float = 0.0
    delta_k: float = 0.0
    radial_p: int = 0
    amp1: float = 1.0
    amp2: float = 1.0
    beam1: BeamSpec = field(init=False, repr=False)
    beam2: BeamSpec = field(init=False, repr=False)

    def __post_init__(self):
        d = self.separation_d
        if d < 0.0:
            raise ValueError("separation_d must be >= 0")
        if self.l2 is None:
            object.__setattr__(self, "l2", self.l1)
        for name, l, direction, amp in (("beam1", self.l1, 1, self.amp1),
                                        ("beam2", self.l2, -1, self.amp2)):
            object.__setattr__(self, name, BeamSpec(
                self.wavelength, self.waist, l, self.radial_p, direction=direction,
                focal_z=-0.5 * direction * d, amp_scale=amp))

    @property
    def azimuthal_order(self):
        """Number of bright spokes: the phi coefficient l1 + l2 of the static
        phase difference."""
        return self.l1 + self.l2


# the constructor's former name, which perfbench/workloads.py still calls
PairSpec.counterpropagating = PairSpec


@dataclass(frozen=True)
class PhaseDifference:
    """Static phase difference Theta1 - Theta2 split into its parts."""

    plane: float        # k (z - f1) + k (z - f2) = 2 k z, as f2 = -f1
    azimuthal: float    # (l1 + l2) phi
    gouy: float         # difference of the two Gouy terms
    curvature: float    # difference of the two wavefront-curvature terms

    @property
    def total(self):
        return self.plane + self.azimuthal + self.gouy + self.curvature


def phase_difference(pair, pt):
    """Split Theta1 - Theta2 (at equal frequencies, time terms cancelling)
    into plane, azimuthal, Gouy and curvature parts.

    Each part is beam 2's closed-form term subtracted from beam 1's; the
    parts sum to mode_phase(beam1) - mode_phase(beam2) up to float rounding.
    """
    b1, b2 = pair.beam1, pair.beam2
    parts1 = _phase_parts(b1, _local_z(b1, pt.z), pt)
    parts2 = _phase_parts(b2, _local_z(b2, pt.z), pt)
    return PhaseDifference(*(a - b for a, b in zip(parts1, parts2)))


def _offset_phase(pair, pt, t, th2):
    """Beam 2's static phase th2 plus its offsets delta_k * z + delta_omega * t."""
    return th2 + pair.delta_k * pt.z + pair.delta_omega * t


def _pair_terms(pair, pt, t):
    """Amplitudes and static phases (U1, U2, Theta1, Theta2) of both beams,
    each mode evaluated once.  The beams share omega, so omega * t cancels
    identically in any interference quantity: ``mode_phase`` leaves it out,
    and only beam 2's offsets delta_k * z + delta_omega * t are added, so no
    huge phase is formed whose difference would lose precision."""
    u1 = mode_amplitude(pair.beam1, pt)
    u2 = mode_amplitude(pair.beam2, pt)
    th1 = mode_phase(pair.beam1, pt)
    return u1, u2, th1, _offset_phase(pair, pt, t, mode_phase(pair.beam2, pt))


def _amplitude_of(u1, u2, th1, th2):
    """sqrt(U1^2 + U2^2 + 2 U1 U2 cos(Theta1 - Theta2)) clamped into
    [||U1| - |U2||, |U1| + |U2|]; U and Theta may differ in shape, as for
    scalar rho and z with an array of phi."""
    radicand = (u1 * u1 + u2 * u2) + 2.0 * u1 * u2 * np.cos(th1 - th2)
    amplitude = np.sqrt(np.maximum(radicand, 0.0))
    a1 = np.abs(u1)
    a2 = np.abs(u2)
    return np.minimum(np.maximum(amplitude, np.abs(a1 - a2)), a1 + a2)[()]


def _pair_intensity(pair, pt, t, out=None):
    """|E|^2 = (U1 - U2)^2 + 4 U1 U2 cos^2(Delta / 2) at the points, into
    ``out`` (of shape pt.shape) if given; no phase and no square root.

    Delta, the phase difference with beam 2's offsets, is built as
    r + rho^2 (kappa1 - kappa2): r holds the plane, azimuthal and Gouy
    differences and delta_k z + delta_omega t, and kappa is each beam's
    curvature from ``_row_phase``.  On a separable rho_z block r and kappa
    are per row, so Delta / 2 costs two full-block passes (halving is
    exact).  The form is non-negative up to rounding.  Delta is rounded
    apart from the Theta1 - Theta2 that total_amplitude and intensity_map keep,
    so the two intensities differ by up to a few eps max|Theta| times
    2 |U1 U2|, plus a few eps (|U1| + |U2|)^2."""
    b1, b2 = pair.beam1, pair.beam2
    u1 = mode_amplitude(b1, pt)
    u2 = mode_amplitude(b2, pt)
    plane1, azimuthal1, gouy1, kappa1 = _row_phase(b1, _local_z(b1, pt.z), pt.phi)
    plane2, azimuthal2, gouy2, kappa2 = _row_phase(b2, _local_z(b2, pt.z), pt.phi)
    row = (plane1 + azimuthal1 + gouy1) - _offset_phase(pair, pt, t, plane2 + azimuthal2 + gouy2)
    cross = np.multiply(pt.rho * pt.rho, 0.5 * (kappa1 - kappa2), out=np.empty(pt.shape))
    cross += 0.5 * row
    np.cos(cross, out=cross)
    cross *= cross
    cross *= u1
    cross *= u2
    cross *= 4.0
    out = np.subtract(u1, u2, out=np.empty(pt.shape) if out is None else out)
    out *= out
    out += cross
    return out[()]


def _complex_of(u1, u2, th1, th2):
    return u1 * np.exp(1j * th1) + u2 * np.exp(1j * th2)


def _phase_of(u1, u2, th1, th2):
    e = _complex_of(u1, u2, th1, th2)
    dark = np.abs(e) <= DARK_FRACTION * np.maximum(np.abs(u1), np.abs(u2))
    return np.where(dark, np.nan, np.angle(e))


def total_amplitude(pair, pt, t=0.0):
    """Amplitude of the two-beam field:
    sqrt(U1^2 + U2^2 + 2 U1 U2 cos(Theta1 - Theta2)).

    Clamped into the exact envelope [||U1| - |U2||, |U1| + |U2|].  The signed
    amplitudes can be negative where the radial polynomial oscillates
    (radial_p > 0), so the envelope is built from magnitudes.
    """
    return _amplitude_of(*_pair_terms(pair, pt, t))


def pair_complex(pair, pt, t=0.0):
    """Complex field U1 e^{i Theta1} + U2 e^{i (Theta2 + dk z + dw t)} with the
    common optical carrier divided out."""
    return _complex_of(*_pair_terms(pair, pt, t))


def total_phase(pair, pt, t=0.0):
    """Principal-value phase of the two-beam field; NaN at dark points
    (total amplitude <= DARK_FRACTION * max(U1, U2))."""
    return _phase_of(*_pair_terms(pair, pt, t))


@dataclass(frozen=True)
class GridSpec:
    """Sampling grid for field maps.

    ``kind`` is "rho_z" (axis1 = rho, axis2 = z, at fixed ``phi``) or "xy"
    (axis1 = x, axis2 = y, at fixed ``z_slice``).  Maps are evaluated at the
    fixed ``time``.
    """

    kind: str
    axis1: np.ndarray
    axis2: np.ndarray
    phi: float = 0.0
    z_slice: float = 0.0
    time: float = 0.0

    def __post_init__(self):
        if self.kind not in ("rho_z", "xy"):
            raise ConfigError("grid kind must be 'rho_z' or 'xy'")
        for name, ax in (("axis1", self.axis1), ("axis2", self.axis2)):
            ax = np.asarray(ax, dtype=float)
            if ax.ndim != 1 or ax.size < 2:
                raise ConfigError(f"{name} must be a 1-D array of at least 2 samples")
            if np.any(np.diff(ax) <= 0.0):
                raise ConfigError(f"{name} must be strictly increasing")
            object.__setattr__(self, name, ax)
        if self.kind == "rho_z" and self.axis1[0] < 0.0:
            raise ConfigError("rho samples must be >= 0")

    @classmethod
    def rho_z(cls, rho_max, n_rho, z_min, z_max, n_z, rho_min=0.0, phi=0.0, time=0.0):
        if rho_max <= rho_min:
            raise ConfigError("rho_max must exceed rho_min")
        if z_max <= z_min:
            raise ConfigError("z_max must exceed z_min")
        return cls(kind="rho_z",
                   axis1=np.linspace(rho_min, rho_max, int(n_rho)),
                   axis2=np.linspace(z_min, z_max, int(n_z)),
                   phi=phi, time=time)

    @classmethod
    def xy(cls, half_width, n, z=0.0, time=0.0):
        if half_width <= 0.0:
            raise ConfigError("half_width must be positive")
        ax = np.linspace(-half_width, half_width, int(n))
        return cls(kind="xy", axis1=ax, axis2=ax, z_slice=z, time=time)

    @property
    def spacing1(self):
        return (self.axis1[-1] - self.axis1[0]) / (self.axis1.size - 1)

    @property
    def spacing2(self):
        return (self.axis2[-1] - self.axis2[0]) / (self.axis2.size - 1)


# Grid points in one row block of a map; every point is computed the same
# way in any block.  A block's five to seven temporaries each stay under the
# 128 KiB at which glibc's malloc maps fresh pages, and the ring finder's
# peak heap use stays within 1.6 times its coarse map.  glibc trims its heap
# only past twice the largest chunk it has mapped and freed, such as that
# map, so a warm rings op takes no fresh pages.  The CSV writer fills at
# most this many rows at once.
BLOCK_POINTS = 16_000


# Values formatted per numpy pass of the CSV writer.  A pass's largest arrays,
# its slot planes (29 bytes a value), stay below the 128 KiB at which glibc's
# malloc maps fresh pages: 16384 values took about 11 000 minor page faults
# per ferris map.  The row buffer (30 bytes a value, axis text included) is
# made once per file and reused by every pass, so a warm map's to_csv takes
# no minor page fault.
_CHUNK_VALUES = 4096
# Decimal exponents the numpy path formats: |x| in [1e-280, 1e280] keeps every
# scaled product below and its error terms well above the float64 range limits.
_E_MIN, _E_MAX = -281, 280
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter for float64
# How close to a rounding tie the 17th digit may fall before Python formats it
_TIE_WINDOW = 1e-6


@functools.cache
def _decimal_tables():
    """Per decimal exponent E from _E_MIN to _E_MAX (column E - _E_MIN):

    - scale (4, n_E) float64: Dekker's halves of hi, hi, lo, where hi is
      10^(16 - E) correctly rounded and lo the correctly rounded remainder
      10^(16 - E) - hi, both from exact integers;
    - layout (12, n_E) uint8: the %g prefix "0.000"[:1 - E] of fixed
      notation below 1 (-4 <= E < 0), the exponent "e+dd" or "e-ddd" of
      scientific notation (E < -4 or E >= 17), each left-aligned and padded
      with 0 bytes; the count of digits before the point (0 below 1); and
      the mantissa slot of the point (18: none in the mantissa).
    Built on first use, not at import."""
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
    mantissa, 24-28 the exponent "e-ddd"; unused slots are 0.

    For a finite x with 1e-280 <= |x| <= 1e280:

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
    Python's "%.17g" in one % operation and written into their slots.
    """
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


def _write_rows(path, header, data, axes=()):
    """Write a header line, then one line per row i of the 2-D float64
    ``data``: the value of each axis at grid point i (the first axis varying
    fastest), then the row's values; "%.17g", comma-separated, LF newlines.

    Each axis is formatted once and its text gathered per row, so rows
    format only ``data``: at most BLOCK_POINTS rows and about _CHUNK_VALUES
    of its values at a time.  A row's values go into a (rows, columns, 30)
    uint8 buffer, made once per file: 29 slots of text from ``_slots``, then
    "," or, at the end of the row, "\n"; the 0 bytes are dropped."""
    n_rows, n_cols = data.shape[0], len(axes) + data.shape[1]
    step = max(1, min(BLOCK_POINTS, _CHUNK_VALUES // max(1, data.shape[1])))
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
            # rows of no columns are empty lines, as np.savetxt writes them
            fh.write(rows.tobytes().translate(None, b"\0") if n_cols
                     else b"\n" * len(rows))


def write_csv(path, header, data):
    """Write a header line, then one row of ``data`` per line: "%.17g" values
    (doubles round-trip), comma-separated, LF newlines.  The bytes are those
    np.savetxt writes with the same format, NaN included.

    Rows are formatted in numpy (``_write_rows``).  1-D data is one column,
    as np.savetxt writes it."""
    data = np.asarray(data, dtype=float)
    _write_rows(path, header, data[:, None] if data.ndim == 1 else np.atleast_2d(data))


@dataclass(frozen=True)
class FieldMap:
    """Sampled total field on a grid; arrays indexed [axis2, axis1]."""

    grid: GridSpec
    amplitude: np.ndarray
    phase: np.ndarray
    intensity: np.ndarray

    def to_csv(self, path):
        """Write rows (coord1, coord2, amplitude, phase, intensity), one per
        grid point, axis2-major; 17 significant digits, LF newlines, the
        bytes np.savetxt writes.  Each axis is formatted once."""
        data = np.column_stack([self.amplitude.ravel(), self.phase.ravel(),
                                self.intensity.ravel()])
        _write_rows(path, "coord1,coord2,amplitude,phase,intensity", data,
                    (self.grid.axis1, self.grid.axis2))


def _block_points(grid, rows):
    """CylPoint of the grid rows ``rows`` with separable operands: axis1 as
    shape (1, n1) and axis2 as (rows, 1).  On rho_z grids everything that
    depends on z alone (w(z), the axial prefactor, the Gouy and plane
    phases) is then evaluated once per row."""
    a1 = grid.axis1[None, :]
    a2 = grid.axis2[rows][:, None]
    if grid.kind == "rho_z":
        return CylPoint(rho=a1, phi=grid.phi, z=a2)
    return CylPoint.from_cartesian(a1, a2, grid.z_slice)


def _fill_blocks(n2, n1, fill):
    """Call fill(rows) for blocks of rows of an (n2, n1) array, about
    BLOCK_POINTS points each."""
    step = max(1, BLOCK_POINTS // n1)
    for a in range(0, n2, step):
        fill(slice(a, min(a + step, n2)))


def _require_finite(pair, grid, values):
    """Raise DegenerateGeometryError unless every value (an amplitude or an
    intensity) of a map block is finite.  The mode amplitude is built in log
    space and is finite for |l| <= 1000 and every p a BeamSpec accepts
    (p <= 40) out to 1e4 w0; farther out the Laguerre factor L_p^|l|(x)
    overflows (from about 2e4 w0 at p = 40)."""
    if np.isfinite(values).all():
        return
    if grid.kind == "rho_z":
        rho_max = grid.axis1[-1]
    else:
        rho_max = math.hypot(np.max(np.abs(grid.axis1)), np.max(np.abs(grid.axis2)))
    raise DegenerateGeometryError(
        f"map amplitude is not finite for |l1| = {abs(pair.beam1.winding_l)}, "
        f"|l2| = {abs(pair.beam2.winding_l)}, p = {pair.beam1.radial_p} on the "
        f"{grid.kind} grid, reaching rho = {rho_max:.6g} m "
        f"({rho_max / pair.beam1.waist_w0:.4g} w0): the mode amplitude overflows "
        f"at this l, p and extent")


def _pair_intensity_at(pair, grid, rho, z):
    """|E|^2 of the pair at chosen points of a rho_z grid, rho of shape
    (R, W) or (1, W) and z of shape (R, 1), as an (R, W) array, for the ring
    finder: ``_pair_intensity`` writes each block of rows in place, and
    neither the amplitude nor the phase is formed.  A value depends only on
    its point, not on the block or the shape it is evaluated in.  Raises
    DegenerateGeometryError where a value is not finite."""
    intensity = np.empty((z.shape[0], rho.shape[1]))

    def fill(rows):
        pt = CylPoint(rho=rho[rows] if rho.shape[0] > 1 else rho, phi=grid.phi, z=z[rows])
        _pair_intensity(pair, pt, grid.time, out=intensity[rows])
        _require_finite(pair, grid, intensity[rows])

    _fill_blocks(*intensity.shape, fill)
    return intensity


def intensity_map(pair, grid, n_threads=1):
    """Evaluate the pair field over a grid in row blocks.  ``n_threads`` is
    ignored: maps run on the calling thread, and the parameter stays only
    because the benchmark still passes it.  Raises DegenerateGeometryError
    where the amplitude is not finite; the phase is NaN at dark points."""
    n2, n1 = grid.axis2.size, grid.axis1.size
    amplitude = np.empty((n2, n1))
    phase = np.empty((n2, n1))

    def fill(rows):
        terms = _pair_terms(pair, _block_points(grid, rows), grid.time)
        amplitude[rows] = _amplitude_of(*terms)
        _require_finite(pair, grid, amplitude[rows])
        phase[rows] = _phase_of(*terms)

    _fill_blocks(n2, n1, fill)
    return FieldMap(grid=grid, amplitude=amplitude, phase=phase,
                    intensity=amplitude ** 2)
