"""Superposition of two counter-propagating Laguerre-Gaussian beams.

The pair interferes into an axial fringe lattice; this module evaluates the
total amplitude/phase, the phase difference split into its physical parts,
and sampled intensity maps on half-plane (rho, z) or transverse (x, y) grids.
"""

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


def _pair_intensity(pair, pt, t, out=None):
    """|E|^2 = (U1 - U2)^2 + 4 U1 U2 cos^2(Delta / 2) at the points, into
    ``out`` (of shape pt.shape) if given; no phase and no square root.

    Delta, the phase difference with beam 2's offsets, is built as
    r + rho^2 (kappa1 - kappa2): r holds the plane, azimuthal and Gouy
    differences and delta_k z + delta_omega t, and kappa is each beam's
    curvature from ``_row_phase``.  On a separable rho_z block r and kappa
    are per row, so Delta / 2 costs two full-block passes (halving is
    exact).  The form is non-negative up to rounding.  Delta is rounded
    apart from the Theta1 and Theta2 that the complex field E of
    intensity_map reads, so the two intensities differ by up to a few
    eps max|Theta| times 2 |U1 U2|, plus a few eps (|U1| + |U2|)^2."""
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


def _field(pair, pt, t):
    """(E, U1, U2): the one complex field E = U1 e^{i Theta1} + U2 e^{i Theta2}
    and the signed amplitudes its envelope and dark rule read."""
    u1, u2, th1, th2 = _pair_terms(pair, pt, t)
    return u1 * np.exp(1j * th1) + u2 * np.exp(1j * th2), u1, u2


def _amplitude_of(e, u1, u2):
    """|E| clamped into [||U1| - |U2||, |U1| + |U2|]; U may be a scalar where
    E is an array, as for scalar rho and z with an array of phi."""
    a1, a2 = np.abs(u1), np.abs(u2)
    return np.minimum(np.maximum(np.abs(e), np.abs(a1 - a2)), a1 + a2)[()]


def _phase_of(e, u1, u2):
    dark = np.abs(e) <= DARK_FRACTION * np.maximum(np.abs(u1), np.abs(u2))
    return np.where(dark, np.nan, np.angle(e))[()]


def total_amplitude(pair, pt, t=0.0):
    """Amplitude |E| of the two-beam field, the modulus of ``pair_complex``,
    clamped into the exact envelope [||U1| - |U2||, |U1| + |U2|] that
    rounding can leave by a few eps (|U1| + |U2|).  The signed amplitudes
    are negative where the radial polynomial is (radial_p > 0), so the
    envelope is built from magnitudes.  Finite wherever U1 and U2 are."""
    return _amplitude_of(*_field(pair, pt, t))


def pair_complex(pair, pt, t=0.0):
    """Complex field U1 e^{i Theta1} + U2 e^{i (Theta2 + dk z + dw t)} with the
    common optical carrier divided out."""
    return _field(pair, pt, t)[0]


def total_phase(pair, pt, t=0.0):
    """Principal-value phase angle(E) of the two-beam field; NaN at dark
    points (|E| <= DARK_FRACTION * max(|U1|, |U2|))."""
    return _phase_of(*_field(pair, pt, t))


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
# map, so a warm rings op takes no fresh pages.
BLOCK_POINTS = 16_000


@dataclass(frozen=True)
class FieldMap:
    """Sampled total field on a grid; arrays indexed [axis2, axis1]."""

    grid: GridSpec
    amplitude: np.ndarray
    phase: np.ndarray
    intensity: np.ndarray


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
    """Raise DegenerateGeometryError unless every intensity of a map block is
    finite.  The mode amplitude is built in log space and is finite for
    |l| <= 1000 and every p a BeamSpec accepts (p <= 40) out to 1e4 w0;
    farther out the Laguerre factor L_p^|l|(x) overflows (from about 2e4 w0
    at p = 40).  The amplitude |E| is finite at any amplitude scale, but
    where it exceeds about 1.3e154 its square, the intensity, overflows."""
    if np.isfinite(values).all():
        return
    rho_max = grid.axis1[-1] if grid.kind == "rho_z" else math.hypot(
        np.max(np.abs(grid.axis1)), np.max(np.abs(grid.axis2)))
    raise DegenerateGeometryError(
        f"map intensity is not finite for |l1| = {abs(pair.beam1.winding_l)}, |l2| = "
        f"{abs(pair.beam2.winding_l)}, p = {pair.beam1.radial_p} on the {grid.kind} grid, "
        f"reaching rho = {rho_max:.6g} m ({rho_max / pair.beam1.waist_w0:.4g} w0): the mode "
        f"amplitude or its square overflows at this l, p, amplitude scale and extent")


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
    """Evaluate the pair field over a grid in row blocks, each forming E once:
    the amplitude is total_amplitude's clamped |E|, the intensity its square
    and the phase total_phase's angle(E), NaN at dark points.  ``n_threads``
    is ignored: maps run on the calling thread, and the parameter stays only
    because the benchmark still passes it.  Raises DegenerateGeometryError
    where the intensity is not finite, as for amplitudes above about 1.3e154."""
    n2, n1 = grid.axis2.size, grid.axis1.size
    amplitude, phase, intensity = (np.empty((n2, n1)) for _ in range(3))

    def fill(rows):
        e, u1, u2 = _field(pair, _block_points(grid, rows), grid.time)
        amplitude[rows] = _amplitude_of(e, u1, u2)
        np.square(amplitude[rows], out=intensity[rows])
        _require_finite(pair, grid, intensity[rows])
        phase[rows] = _phase_of(e, u1, u2)

    _fill_blocks(n2, n1, fill)
    return FieldMap(grid=grid, amplitude=amplitude, phase=phase, intensity=intensity)
