"""Single Laguerre-Gaussian mode in cylindrical coordinates.

Evaluates the amplitude and phase of an LG beam with winding number l and
radial index p, propagating along +z or -z with its focal plane anywhere on
the axis.  All quantities are SI; angles are radians.  Every evaluation
routine accepts scalars or broadcastable numpy arrays.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT

# Radius below which the radial and azimuthal gradient components are 0 (m)
AXIS_RHO = 1e-15

__all__ = [
    "BeamSpec",
    "CylPoint",
    "FieldSample",
    "AXIS_RHO",
    "laguerre_poly",
    "mode_amplitude",
    "mode_field",
    "mode_gradient",
    "mode_phase",
    "rayleigh_range",
    "waist_at",
    "wrap_phase",
]


def wrap_phase(theta):
    """Reduce an angle (or array of angles) to the interval (-pi, pi]."""
    m = np.mod(theta, 2.0 * np.pi)
    return m - 2.0 * np.pi * (m > np.pi)


@dataclass(frozen=True)
class BeamSpec:
    """Geometry and strength of one Laguerre-Gaussian beam.

    Parameters
    ----------
    wavelength : float
        Vacuum wavelength (m).
    waist_w0 : float
        Beam waist at the focal plane (m).
    winding_l : int
        Azimuthal winding number; may be negative.
    radial_p : int
        Radial mode index, >= 0.
    direction : int
        +1 for propagation along +z, -1 for -z.
    focal_z : float
        Lab-frame z of the focal plane (m).
    amp_scale : float
        Overall amplitude scale (the plane-wave amplitude the normalisation
        constant multiplies).
    azimuthal_sign : int
        Sign of the azimuthal phase term l*phi in the lab frame.  A beam
        viewed from its own propagation axis always carries +l*phi; a
        counter-propagating partner appears with the opposite handedness
        in shared lab coordinates, hence the explicit sign.
    norm_constant : float or None
        Mode normalisation constant; None selects sqrt(p! / (p + |l|)!).
    """

    wavelength: float
    waist_w0: float
    winding_l: int
    radial_p: int = 0
    direction: int = 1
    focal_z: float = 0.0
    amp_scale: float = 1.0
    azimuthal_sign: int = 1
    norm_constant: float = None

    def __post_init__(self):
        if self.wavelength <= 0.0:
            raise ValueError("wavelength must be positive")
        if self.waist_w0 <= 0.0:
            raise ValueError("waist_w0 must be positive")
        if self.radial_p < 0:
            raise ValueError("radial_p must be >= 0")
        if self.direction not in (-1, 1):
            raise ValueError("direction must be +1 or -1")
        if self.azimuthal_sign not in (-1, 1):
            raise ValueError("azimuthal_sign must be +1 or -1")
        if self.amp_scale < 0.0:
            raise ValueError("amp_scale must be >= 0")

    @property
    def wavenumber(self):
        return 2.0 * np.pi / self.wavelength

    @property
    def rayleigh_range(self):
        return np.pi * self.waist_w0 ** 2 / self.wavelength

    @property
    def omega(self):
        return C_LIGHT * self.wavenumber

    @property
    def norm(self):
        """Resolved normalisation constant C_{lp}."""
        if self.norm_constant is not None:
            return self.norm_constant
        l, p = abs(self.winding_l), self.radial_p
        # lgamma keeps the ratio finite for large |l| where p! / (p+|l|)!
        # underflows if the factorials are formed separately
        return math.exp(0.5 * (math.lgamma(p + 1.0) - math.lgamma(p + l + 1.0)))


@dataclass(frozen=True)
class CylPoint:
    """Cylindrical coordinates (rho, phi, z); fields may be numpy arrays."""

    rho: float
    phi: float
    z: float

    def __post_init__(self):
        if np.any(np.asarray(self.rho) < 0.0):
            raise ValueError("rho must be >= 0")

    @classmethod
    def from_cartesian(cls, x, y, z):
        return cls(rho=np.hypot(x, y), phi=np.arctan2(y, x), z=z)


@dataclass(frozen=True)
class FieldSample:
    """Field amplitude (>= 0) and phase at one point or grid of points."""

    amplitude: float
    phase: float

    @property
    def intensity(self):
        return self.amplitude ** 2

    @property
    def complex_value(self):
        return self.amplitude * np.exp(1j * self.phase)


def rayleigh_range(beam):
    """Rayleigh range pi * w0^2 / lambda of a beam (m)."""
    return beam.rayleigh_range


def waist_at(beam, z_local):
    """Beam radius w(z) = w0 sqrt(1 + (z/z_R)^2) at axial offset z_local from
    the focal plane (m)."""
    u = np.asarray(z_local) / beam.rayleigh_range
    return beam.waist_w0 * np.sqrt(1.0 + u * u)


def laguerre_poly(p, alpha, x):
    """Generalised Laguerre polynomial L_p^alpha(x) by the three-term
    upward recurrence in the degree.

    Stable for the small p used here; x may be an array.
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if p == 0:
        return prev
    cur = 1.0 + alpha - x
    for n in range(1, p):
        prev, cur = cur, ((2.0 * n + 1.0 + alpha - x) * cur - (n + alpha) * prev) / (n + 1.0)
    return cur


def _local_z(beam, z):
    """Axial offset from the focal plane, measured along the propagation
    direction (positive downstream)."""
    return beam.direction * (np.asarray(z) - beam.focal_z)


def mode_amplitude(beam, pt):
    """Field amplitude of the mode at a point.

    Parameters
    ----------
    beam : BeamSpec
    pt : CylPoint

    Returns
    -------
    float or ndarray
        amp_scale * C_lp * (1 + z^2/z_R^2)^(-1/2) * (sqrt(2) rho / w)^|l|
        * L_p^|l|(2 rho^2 / w^2) * exp(-rho^2 / w^2), with w = w(z) and z
        the local axial offset.
    """
    l = abs(beam.winding_l)
    zl = _local_z(beam, pt.z)
    zr = beam.rayleigh_range
    w = waist_at(beam, zl)
    rho = np.asarray(pt.rho)
    arg = 2.0 * rho * rho / (w * w)
    radial = (np.sqrt(2.0) * rho / w) ** l * laguerre_poly(beam.radial_p, l, arg) * np.exp(-0.5 * arg)
    return beam.amp_scale * beam.norm * radial / np.sqrt(1.0 + (zl / zr) ** 2)


def mode_phase(beam, pt, t=0.0, principal=False):
    """Phase of the mode at a point and time.

    The phase is the sum of the plane-wave term direction * k * (z - focal_z),
    the azimuthal term azimuthal_sign * l * phi, the Gouy term
    -(2p + |l| + 1) * arctan(z_local / z_R), the wavefront-curvature term
    k * rho^2 * z_local / (2 (z_local^2 + z_R^2)), and omega * t.

    Set ``principal=True`` to wrap the result into (-pi, pi].  The unwrapped
    value is exact and is the form finite differences should act on.
    """
    k = beam.wavenumber
    zl = _local_z(beam, pt.z)
    zr = beam.rayleigh_range
    rho = np.asarray(pt.rho)
    plane = beam.direction * k * (np.asarray(pt.z) - beam.focal_z)
    azimuthal = beam.azimuthal_sign * beam.winding_l * np.asarray(pt.phi)
    gouy = -(2.0 * beam.radial_p + abs(beam.winding_l) + 1.0) * np.arctan(zl / zr)
    curvature = k * rho * rho * zl / (2.0 * (zl * zl + zr * zr))
    theta = plane + azimuthal + gouy + curvature
    if t != 0.0:
        theta = theta + beam.omega * t
    if principal:
        theta = wrap_phase(theta)
    return theta


def mode_gradient(beam, pt):
    """Gradients of the mode's amplitude and phase.

    Returns ``(grad_amplitude, grad_phase)``, each stacked as
    [d/drho, (1/rho) d/dphi, d/dz] along axis 0.  With x = 2 rho^2 / w^2 the
    amplitude is pref * R(x), pref = amp_scale * C_lp / sqrt(1 + z^2/z_R^2)
    and R = x^(|l|/2) L_p^|l|(x) e^(-x/2); dL_p^a/dx = -L_(p-1)^(a+1) gives
    x R'(x) = x^(|l|/2) e^(-x/2) [((|l| - x)/2) L_p^|l| - x L_(p-1)^(|l|+1)].
    Both w(z) and the (1 + z^2/z_R^2)^(-1/2) prefactor carry the axial
    dependence, so dU/dz_local = -z_local (U + 2 pref x R') / (z_local^2 + z_R^2).
    The phase gradient differentiates the plane-wave, azimuthal, Gouy and
    curvature terms of ``mode_phase``; omega * t has no spatial gradient.

    On the axis (rho <= AXIS_RHO) the rho and phi entries are 0, the values
    a central difference of the mode extended evenly in rho gives: the
    azimuthal slope l / rho has no limit there, and for |l| = 1 the
    amplitude, proportional to rho, has no radial derivative.
    """
    l = abs(beam.winding_l)
    k = beam.wavenumber
    zl = _local_z(beam, pt.z)
    zr = beam.rayleigh_range
    den = zl * zl + zr * zr
    rho = np.asarray(pt.rho)
    on_axis = rho <= AXIS_RHO
    safe_rho = np.where(on_axis, 1.0, rho)
    w = waist_at(beam, zl)
    arg = 2.0 * rho * rho / (w * w)
    lag = laguerre_poly(beam.radial_p, l, arg)
    lag_deriv = laguerre_poly(beam.radial_p - 1, l + 1, arg) if beam.radial_p > 0 else 0.0
    pref = beam.amp_scale * beam.norm / np.sqrt(1.0 + (zl / zr) ** 2)
    envelope = pref * (np.sqrt(2.0) * rho / w) ** l * np.exp(-0.5 * arg)
    amplitude = envelope * lag
    x_dr = envelope * ((0.5 * (l - arg)) * lag - arg * lag_deriv)
    shape = (3,) + np.broadcast(rho, np.asarray(pt.phi), zl).shape
    grad_amplitude = np.zeros(shape)
    grad_amplitude[0] = np.where(on_axis, 0.0, 2.0 * x_dr / safe_rho)
    grad_amplitude[2] = -beam.direction * zl * (amplitude + 2.0 * x_dr) / den
    grad_phase = np.empty(shape)
    grad_phase[0] = np.where(on_axis, 0.0, k * rho * zl / den)
    grad_phase[1] = np.where(on_axis, 0.0, beam.azimuthal_sign * beam.winding_l / safe_rho)
    grad_phase[2] = beam.direction * (k - (2.0 * beam.radial_p + l + 1.0) * zr / den
                                      + 0.5 * k * rho * rho * (zr * zr - zl * zl) / (den * den))
    return grad_amplitude, grad_phase


def mode_field(beam, pt, t=0.0):
    """Amplitude and principal-value phase of the mode as a FieldSample."""
    return FieldSample(
        amplitude=mode_amplitude(beam, pt),
        phase=wrap_phase(mode_phase(beam, pt, t=t)),
    )
