"""Superposition of two counter-propagating Laguerre-Gaussian beams.

The pair interferes into an axial fringe lattice; this module evaluates the
total amplitude/phase, the phase difference split into its physical parts,
and sampled intensity maps on half-plane (rho, z) or transverse (x, y) grids.
"""

import concurrent.futures
import contextvars
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateGeometryError
from .lg_mode import BeamSpec, CylPoint, _local_z, _phase_parts, mode_amplitude, mode_phase

__all__ = [
    "BLOCK_POINTS",
    "DARK_FRACTION",
    "FieldMap",
    "GridSpec",
    "PairSpec",
    "PhaseDifference",
    "amplitude_map",
    "gouy_difference_closed_form",
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


def gouy_difference_closed_form(pair, z):
    """Single-arctangent form -(|l| + 1) * atan2(2 z z_R, z_R^2 - z^2 + d^2/4)
    of the Gouy part of the phase difference, for equal beams.

    It reproduces the sum of the two per-beam arctangent terms exactly; the
    two-argument form keeps the branch right.  By the arctangent subtraction
    identity the denominator is z_R^2 plus the product (d/2 + z)(d/2 - z) of
    the beams' local offsets, so d^2/4 enters with the sign opposite to z^2
    and grouping it with z^2, as z_R^2 - (z^2 + d^2/4), is wrong.
    """
    b = pair.beam1
    l = abs(b.winding_l)
    zr = b.rayleigh_range
    d = pair.separation_d
    z = np.asarray(z)
    return -(l + 1.0) * np.arctan2(2.0 * z * zr, zr * zr - z * z + 0.25 * d * d)


def _offset_phase(pair, pt, t, th2):
    """Beam 2's static phase th2 plus its offsets delta_k * z + delta_omega * t."""
    return th2 + pair.delta_k * np.asarray(pt.z) + pair.delta_omega * t


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
    [||U1| - |U2||, |U1| + |U2|].

    Worked in place in two buffers of the broadcast shape of all four
    operands (U and Theta may differ in shape, as for scalar rho and z with
    an array of phi): on a map block each fresh block-sized temporary costs
    more than the arithmetic done in it.  The sum is formed in the order
    (U1^2 + U2^2) + 2 U1 U2 cos(...), and np.clip(x, lo, hi) is
    minimum(maximum(x, lo), hi) for lo <= hi."""
    shape = np.broadcast(u1, u2, th1, th2).shape
    amplitude = np.subtract(th1, th2, out=np.empty(shape))
    np.cos(amplitude, out=amplitude)
    work = np.multiply(2.0, u1, out=np.empty(shape))
    work *= u2
    amplitude *= work
    np.multiply(u1, u1, out=work)
    work += u2 * u2
    amplitude += work
    np.maximum(amplitude, 0.0, out=amplitude)
    np.sqrt(amplitude, out=amplitude)
    a1 = np.abs(u1)
    a2 = np.abs(u2)
    np.maximum(amplitude, np.abs(np.subtract(a1, a2, out=work), out=work), out=amplitude)
    np.minimum(amplitude, np.add(a1, a2, out=work), out=amplitude)
    return amplitude[()]


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


# Grid points in one row block of a map.  A block's temporaries stay small
# enough for the cache, and the blocks are the units the --threads pool hands
# out; every point is computed the same way in any block, so maps do not
# depend on the thread count.  write_csv formats at most this many rows at
# once, so its memory does not grow with the file.
BLOCK_POINTS = 100_000


def _column_values(col):
    """Return (values, fmt): the column's cells and their field in the row
    format.

    A column of mostly distinct values (a field column) is passed as floats
    under "%.17g".  A column whose values repeat (a tiled or repeated grid
    axis) formats each distinct bit pattern once and is passed as strings
    under "%s"; the bit pattern keeps -0.0 apart from 0.0.
    """
    bits = col.view(np.int64)
    ordered = np.sort(bits)
    if 2 * (1 + np.count_nonzero(ordered[1:] != ordered[:-1])) > bits.size:
        return col.tolist(), "%.17g"
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = "\n".join(["%.17g"] * distinct.size) % tuple(distinct.view(np.float64).tolist())
    return np.array(text.split("\n"), dtype=object)[inverse].tolist(), "%s"


def write_csv(path, header, data):
    """Write a header line, then one row of ``data`` per line: "%.17g" values
    (doubles round-trip), comma-separated, LF newlines.  The bytes are those
    np.savetxt writes with the same format, NaN included.

    Each block of at most BLOCK_POINTS rows is formatted column by column
    into one argument list and written with a single % operation; a column
    of repeated values formats each distinct value once.  1-D data is one
    column, as np.savetxt writes it."""
    data = np.asarray(data, dtype=float)
    data = data[:, None] if data.ndim == 1 else np.atleast_2d(data)
    n_cols = data.shape[1]
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, data.shape[0], BLOCK_POINTS):
            block = data[start:start + BLOCK_POINTS]
            cells = [None] * block.size
            formats = []
            for j, col in enumerate(block.T):
                values, fmt = _column_values(col)
                cells[j::n_cols] = values
                formats.append(fmt)
            fh.write((",".join(formats) + "\n") * block.shape[0] % tuple(cells))


@dataclass(frozen=True)
class FieldMap:
    """Sampled total field on a grid; arrays indexed [axis2, axis1]."""

    grid: GridSpec
    amplitude: np.ndarray
    phase: np.ndarray
    intensity: np.ndarray

    def to_csv(self, path):
        """Write rows (coord1, coord2, amplitude, phase, intensity), one per
        grid point, axis2-major; 17 significant digits, LF newlines."""
        n2, n1 = self.amplitude.shape
        c1 = np.tile(self.grid.axis1, n2)
        c2 = np.repeat(self.grid.axis2, n1)
        data = np.column_stack([c1, c2, self.amplitude.ravel(),
                                self.phase.ravel(), self.intensity.ravel()])
        write_csv(path, "coord1,coord2,amplitude,phase,intensity", data)


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


def _fill_blocks(grid, n_threads, fill):
    """Call fill(rows) for row blocks of about BLOCK_POINTS points, on a pool
    of n_threads workers.  Each block runs in a copy of the caller's context,
    so context-local state such as np.errstate reaches the workers."""
    n2 = grid.axis2.size
    step = max(1, BLOCK_POINTS // grid.axis1.size)
    blocks = [slice(a, min(a + step, n2)) for a in range(0, n2, step)]
    n_threads = min(max(1, int(n_threads)), len(blocks))
    with concurrent.futures.ThreadPoolExecutor(max_workers=n_threads) as pool:
        ctx = contextvars.copy_context()
        list(pool.map(lambda rows: ctx.copy().run(fill, rows), blocks))


def _require_finite(pair, grid, amplitude):
    """Raise DegenerateGeometryError unless every amplitude of a map block is
    finite.  The mode amplitude is built in log space and is finite for
    |l| <= 1000 and every p a BeamSpec accepts (p <= 40) out to 1e4 w0;
    farther out the Laguerre factor L_p^|l|(x) overflows (from about
    2e4 w0 at p = 40)."""
    if np.isfinite(amplitude).all():
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


def amplitude_map(pair, grid, n_threads=1):
    """Total amplitude over a grid, indexed [axis2, axis1], without the
    phase a FieldMap also carries.  Equal to ``intensity_map(...).amplitude``
    at less than half the cost.  Raises DegenerateGeometryError where the
    amplitude is not finite."""
    amplitude = np.empty((grid.axis2.size, grid.axis1.size))

    def fill(rows):
        amplitude[rows] = total_amplitude(pair, _block_points(grid, rows), t=grid.time)
        _require_finite(pair, grid, amplitude[rows])

    _fill_blocks(grid, n_threads, fill)
    return amplitude


def intensity_map(pair, grid, n_threads=1):
    """Evaluate the pair field over a grid in row blocks, optionally spread
    across worker threads.  Output is independent of n_threads.  Raises
    DegenerateGeometryError where the amplitude is not finite; the phase is
    NaN at dark points."""
    n2, n1 = grid.axis2.size, grid.axis1.size
    amplitude = np.empty((n2, n1))
    phase = np.empty((n2, n1))

    def fill(rows):
        terms = _pair_terms(pair, _block_points(grid, rows), grid.time)
        amplitude[rows] = _amplitude_of(*terms)
        _require_finite(pair, grid, amplitude[rows])
        phase[rows] = _phase_of(*terms)

    _fill_blocks(grid, n_threads, fill)
    return FieldMap(grid=grid, amplitude=amplitude, phase=phase,
                    intensity=amplitude ** 2)
