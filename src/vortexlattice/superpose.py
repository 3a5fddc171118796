"""Superposition of two counter-propagating Laguerre-Gaussian beams.

The pair interferes into an axial fringe lattice; this module evaluates the
total amplitude/phase, the phase difference split into its physical parts,
and sampled intensity maps on half-plane (rho, z) or transverse (x, y) grids.
It alone forms the field E = U1 e^{i Theta1} + U2 e^{i (Theta2 + delta_omega t)},
in real parts, for maps, point values and forces, and the phase difference
Delta (``_phase_rows``) of the ring finder's intensity and of its slope.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DarkPointError, DegenerateGeometryError
from .lg_mode import AXIS_RHO, BeamSpec, CylPoint, _amplitude_jet, _curvature, _jet, _real, _row_phase, \
    _theta_z, mode_amplitude, mode_phase

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
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class PairSpec:
    """Two beams of one wavelength, waist and radial index p sharing an
    axis, foci separated by ``separation_d``.

    Beam 1 (winding l1, amplitude scale amp1) travels along +z with its
    focus at z = -d/2; beam 2 (winding l2, default l1, amplitude scale amp2)
    travels along -z with its focus at z = +d/2, so in the lab frame it
    carries -l2 phi and the pattern has l1 + l2 spokes.  Beam 2 differs from
    beam 1 only by the frequency offset ``delta_omega``, an extra phase
    delta_omega * t; both share one wavenumber.  ``beam1`` and ``beam2`` are
    built and validated once, from these values, which must be finite.
    """

    wavelength: float
    waist: float
    l1: int
    l2: int = None
    separation_d: float = 0.0
    delta_omega: float = 0.0
    radial_p: int = 0
    amp1: float = 1.0
    amp2: float = 1.0
    beam1: BeamSpec = field(init=False, repr=False)
    beam2: BeamSpec = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("separation_d", "delta_omega"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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
    real = _real(pt)
    plane1, azimuthal1, gouy1, kappa1 = _row_phase(pair.beam1, pt.z, pt.phi, real)
    plane2, azimuthal2, gouy2, kappa2 = _row_phase(pair.beam2, pt.z, pt.phi, real)
    rho2 = pt.rho * pt.rho
    return PhaseDifference(plane1 - plane2, azimuthal1 - azimuthal2, gouy1 - gouy2,
                           rho2 * kappa1 - rho2 * kappa2)


def _phase_rows(pair, z, phi, t):
    """(r, kappa1 - kappa2) at lab z and angle phi: the phase difference
    Delta = Theta1 - Theta2 - delta_omega t is r + rho^2 (kappa1 - kappa2),
    r the plane-wave, azimuthal and Gouy differences less delta_omega t and
    kappa each beam's curvature from ``_row_phase``, per row on a separable
    block.  The shared omega t cancels, so no huge phase is formed."""
    plane1, azimuthal1, gouy1, kappa1 = _row_phase(pair.beam1, z, phi)
    plane2, azimuthal2, gouy2, kappa2 = _row_phase(pair.beam2, z, phi)
    return ((plane1 + azimuthal1 + gouy1) - (plane2 + azimuthal2 + gouy2 + pair.delta_omega * t),
            kappa1 - kappa2)


def _curvature_rows(pair, z):
    """kappa1 - kappa2 of ``_phase_rows`` at lab z alone, from each beam's
    ``_curvature``, without the plane-wave, azimuthal and Gouy terms."""
    return _curvature(pair.beam1, z)[1] - _curvature(pair.beam2, z)[1]


def _half_delta(pair, pt, t):
    """(Delta / 2, kappa1 - kappa2) at the points: Delta / 2 =
    rho^2 (kappa1 - kappa2) / 2 + r / 2 from ``_phase_rows``, a fresh array
    of pt.shape (halving is exact); on a separable rho_z block r and kappa
    are per row, so it costs two full-block passes."""
    row, kappa = _phase_rows(pair, pt.z, pt.phi, t)
    half = np.multiply(pt.rho * pt.rho, 0.5 * kappa, out=np.empty(pt.shape))
    half += 0.5 * row
    return half, kappa


def _add_cross(u1, u2, cos_sq, out=None):
    """|E|^2 = (U1 - U2)^2 + 4 U1 U2 cos^2(Delta / 2) from cos_sq =
    cos^2(Delta / 2), an array it overwrites, into ``out`` (of its shape)
    if given.  The form is non-negative up to rounding."""
    cos_sq *= u1
    cos_sq *= u2
    cos_sq *= 4.0
    out = np.subtract(u1, u2, out=np.empty(cos_sq.shape) if out is None else out)
    out *= out
    out += cos_sq
    return out[()]


def _pair_intensity(pair, pt, t, out=None):
    """|E|^2 = (U1 - U2)^2 + 4 U1 U2 cos^2(Delta / 2) at the points, into
    ``out`` (of shape pt.shape) if given; no phase and no square root
    (``_half_delta``, ``_add_cross``).  Delta is rounded apart from the
    Theta1 and Theta2 that the field E of intensity_map reads, so the two
    intensities differ by up to a few eps max|Theta| times 2 |U1 U2|, plus
    a few eps (|U1| + |U2|)^2; ``_intensity_slope`` forms this I bit for
    bit."""
    u1 = mode_amplitude(pair.beam1, pt)
    u2 = mode_amplitude(pair.beam2, pt)
    cross = _half_delta(pair, pt, t)[0]
    np.cos(cross, out=cross)
    cross *= cross
    return _add_cross(u1, u2, cross, out)


def _intensity_slope(pair, pt, t, axial=True):
    """(I, dI/drho, dI/dz) at the points for the ring finder's polish: I as
    ``_pair_intensity`` forms it, bit for bit, and with P = U1 U2
    dI = 2 (U1 - U2) d(U1 - U2) + 4 cos^2(Delta / 2) dP - 2 P sin(Delta) dDelta,
    which is 2 (U1 dU1 + U2 dU2) + 2 cos(Delta) dP - 2 P sin(Delta) dDelta,
    in rho and z.  U and dU come from each beam's amplitude half
    (``_amplitude_jet``), Delta / 2 from ``_half_delta``,
    dDelta/drho = 2 rho (kappa1 - kappa2) and dDelta/dz the difference of
    the beams' ``_theta_z``; delta_omega t does not vary.  No phase Theta,
    no azimuthal entry and no modulus is formed.  The rho entry is 0 on the
    axis (rho <= AXIS_RHO), as each dU/drho is; without ``axial`` the z
    entry is None and is not formed."""
    b1, b2 = pair.beam1, pair.beam2
    u1, (r1, _, z1), zl1, den1 = _amplitude_jet(b1, pt)
    u2, (r2, _, z2), zl2, den2 = _amplitude_jet(b2, pt)
    half, kappa = _half_delta(pair, pt, t)
    cos = np.cos(half)
    cos_sq = cos * cos
    # 2 (U1 - U2), 4 cos^2(Delta / 2) and 2 P sin(Delta) = 4 P sin(Delta / 2) cos(Delta / 2)
    diff, weight, beat = 2.0 * (u1 - u2), 4.0 * cos_sq, np.sin(half, out=half) * cos * (4.0 * u1 * u2)
    rho = pt.rho
    radial = (diff * (r1 - r2) + weight * (u2 * r1 + u1 * r2)
              - beat * (2.0 * (rho * (rho > AXIS_RHO)) * kappa))
    slope_z = None
    if axial:
        slope_z = (diff * (z1 - z2) + weight * (u2 * z1 + u1 * z2)
                   - beat * (_theta_z(b1, rho, zl1, den1) - _theta_z(b2, rho, zl2, den2)))
    return _add_cross(u1, u2, cos_sq), radial, slope_z


def _field(pair, pt, t):
    """(Re E, Im E, U1, U2): the one field E = U1 e^{i Theta1} + U2 e^{i Theta2}
    in real parts, from numpy's cos and sin as ``_pair_gradient`` forms it,
    and the signed amplitudes its envelope and dark rule read; Theta2 takes
    beam 2's offset delta_omega t, and the shared omega t cancels."""
    u1 = mode_amplitude(pair.beam1, pt)
    u2 = mode_amplitude(pair.beam2, pt)
    th1 = mode_phase(pair.beam1, pt)
    th2 = mode_phase(pair.beam2, pt) + pair.delta_omega * t
    return u1 * np.cos(th1) + u2 * np.cos(th2), u1 * np.sin(th1) + u2 * np.sin(th2), u1, u2


def _amplitude_of(modulus, u1, u2):
    """|E| from numpy's complex modulus, clamped into [||U1| - |U2||, |U1| + |U2|];
    U may be a scalar where E is an array (scalar rho and z, an array of phi)."""
    a1, a2 = np.abs(u1), np.abs(u2)
    return np.minimum(np.maximum(modulus, np.abs(a1 - a2)), a1 + a2)[()]


def _phase_of(modulus, re, im, u1, u2):
    dark = modulus <= DARK_FRACTION * np.maximum(np.abs(u1), np.abs(u2))
    return np.where(dark, np.nan, np.arctan2(im, re))[()]


def _pair_gradient(pair, pt, t):
    """|E|, E and grad(E) of the total field and max(|U1|, |U2|), from one
    jet per beam, for the full force model: ``(|E|, (Re E, Im E),
    (Re grad E, Im grad E), u_max)``, each part of grad(E) a (rho, phi, z)
    triple of entries.

    E and grad(E) = sum_j e^{i Theta_j} (grad U_j + i U_j grad Theta_j) are
    written out in real parts with numpy's cos and sin: Re E and Im E are
    ``_field``'s bit for bit, and |E| is numpy's complex modulus of them, as
    in ``total_amplitude``.  numpy's complex array multiply may fuse a
    multiply and an add, so complex products on scalars would not give an
    array's bits; the real ones do.
    """
    u1, th1, gu1, gth1 = _jet(pair.beam1, pt)
    u2, th2, gu2, gth2 = _jet(pair.beam2, pt)
    th2 = th2 + pair.delta_omega * t
    real = _real(pt)
    c1, s1, c2, s2 = real(np.cos(th1)), real(np.sin(th1)), real(np.cos(th2)), real(np.sin(th2))
    re, im = u1 * c1 + u2 * c2, u1 * s1 + u2 * s2
    # grad E = sum_j (c_j + i s_j) (a_j + i b_j), a_j = grad U_j, b_j = U_j grad Theta_j,
    # in one loop: list comprehensions would cost a call each at a point of scalars
    grad_e = [], []
    for a1, b1, a2, b2 in zip(gu1, gth1, gu2, gth2):
        b1, b2 = u1 * b1, u2 * b2
        grad_e[0].append((c1 * a1 - s1 * b1) + (c2 * a2 - s2 * b2))
        grad_e[1].append((c1 * b1 + s1 * a1) + (c2 * b2 + s2 * a2))
    a1, a2, amp = abs(u1), abs(u2), np.abs(re + 1j * im)
    if isinstance(amp, np.ndarray):
        return amp, (re, im), grad_e, np.maximum(a1, a2)
    # a point of scalars: floats, and np.maximum(a1, a2) with its NaN rule
    return float(amp), (re, im), grad_e, a2 if a2 > a1 or a2 != a2 else a1


def _phase_slope(amp, e, grad_e, u_max, strict=False):
    """grad(arg E) = Im(grad E / E) as a (rho, phi, z) triple of entries,
    each 0 at dark points, where |E| <= DARK_FRACTION * max(|U1|, |U2|);
    ``strict`` raises DarkPointError instead if any point is dark.  The
    arguments are those ``_pair_gradient`` returns.

    Magnitudes set the threshold: the signed amplitudes are negative where
    the radial polynomial is (radial_p > 0).  E and grad E are divided by
    max(|U1|, |U2|) first, so |E / max|^2, the quotient's denominator, is
    at least DARK_FRACTION^2 off dark points and stays normal in the far
    field, where |E|^2 underflows.  The divisor is at least the smallest
    normal float.
    """
    re, im = e
    dark = amp <= DARK_FRACTION * u_max
    array = isinstance(dark, np.ndarray)
    if strict and (dark.any() if array else dark):
        raise DarkPointError("total phase undefined at a dark point")
    if array:
        scale = np.where(dark, 1.0, np.maximum(u_max, _TINY))
        re, im = np.where(dark, 1.0, re), np.where(dark, 0.0, im)
    elif dark:
        return 0.0, 0.0, 0.0
    else:
        # a point of scalars: np.maximum(u_max, _TINY) on floats, NaN included
        scale = _TINY if u_max < _TINY else u_max
    re, im = re / scale, im / scale
    den = re * re + im * im
    slope = tuple((gi / scale * re - gr / scale * im) / den for gr, gi in zip(*grad_e))
    return tuple(np.where(dark, 0.0, g) for g in slope) if array else slope


def total_amplitude(pair, pt, t=0.0):
    """Amplitude |E| of the two-beam field, the modulus of ``pair_complex``,
    clamped into the exact envelope [||U1| - |U2||, |U1| + |U2|] that
    rounding can leave by a few eps (|U1| + |U2|).  The signed amplitudes
    are negative where the radial polynomial is (radial_p > 0), so the
    envelope is built from magnitudes.  Finite wherever U1 and U2 are."""
    re, im, u1, u2 = _field(pair, pt, t)
    return _amplitude_of(np.abs(re + 1j * im), u1, u2)


def pair_complex(pair, pt, t=0.0):
    """Complex field U1 e^{i Theta1} + U2 e^{i (Theta2 + dw t)} with the
    common optical carrier divided out, Re E + 1j Im E."""
    re, im, _, _ = _field(pair, pt, t)
    return re + 1j * im


def total_phase(pair, pt, t=0.0):
    """Principal-value phase arctan2(Im E, Re E) of the two-beam field; NaN
    at dark points (|E| <= DARK_FRACTION * max(|U1|, |U2|))."""
    re, im, u1, u2 = _field(pair, pt, t)
    return _phase_of(np.abs(re + 1j * im), re, im, u1, u2)


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
# way in any block.  A block's five to seven 64 KB temporaries stay under
# the 128 KiB at which glibc's malloc maps fresh pages, and the ring
# finder's heap peak, its coarse map and one block, stays under twice that
# map, past which glibc trims its heap once it has mapped and freed the
# map: a warm rings op takes no fresh pages (about 400 with 16 000 points).
BLOCK_POINTS = 8_000


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
    """|E|^2 of the pair at the rows z (shape (R, 1)) and columns rho (shape
    (1, W)) of a rho_z grid, or any such points, as an (R, W) array, for the
    ring finder: ``_pair_intensity`` writes each block of rows in place, and
    neither the amplitude nor the phase is formed.  A value depends only on
    its point, not on the block it is evaluated in.  Raises
    DegenerateGeometryError where a value is not finite."""
    intensity = np.empty((z.shape[0], rho.shape[1]))

    def fill(rows):
        pt = CylPoint(rho=rho, phi=grid.phi, z=z[rows])
        _pair_intensity(pair, pt, grid.time, out=intensity[rows])
        _require_finite(pair, grid, intensity[rows])

    _fill_blocks(*intensity.shape, fill)
    return intensity


def intensity_map(pair, grid, n_threads=1):
    """Evaluate the pair field over a grid in row blocks, each forming E once:
    the amplitude is total_amplitude's clamped |E|, the intensity its square
    and the phase total_phase's arctan2(Im E, Re E), NaN at dark points.  ``n_threads``
    is ignored: maps run on the calling thread, and the parameter stays only
    because the benchmark still passes it.  Raises DegenerateGeometryError
    where the intensity is not finite, as for amplitudes above about 1.3e154."""
    n2, n1 = grid.axis2.size, grid.axis1.size
    amplitude, phase, intensity = (np.empty((n2, n1)) for _ in range(3))

    def fill(rows):
        re, im, u1, u2 = _field(pair, _block_points(grid, rows), grid.time)
        modulus = np.abs(re + 1j * im)
        amplitude[rows] = _amplitude_of(modulus, u1, u2)
        np.square(amplitude[rows], out=intensity[rows])
        _require_finite(pair, grid, intensity[rows])
        phase[rows] = _phase_of(modulus, re, im, u1, u2)

    _fill_blocks(n2, n1, fill)
    return FieldMap(grid=grid, amplitude=amplitude, phase=phase, intensity=intensity)
