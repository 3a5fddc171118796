"""Single Laguerre-Gaussian mode in cylindrical coordinates.

Evaluates the amplitude and phase of an LG beam with winding number l and
radial index p, propagating along +z or -z with its focal plane anywhere on
the axis.  All quantities are SI; angles are radians.  Every evaluation
routine accepts scalars or broadcastable numpy arrays.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

# Radius below which the radial and azimuthal gradient components are 0 (m)
AXIS_RHO = 1e-15

_SQRT2 = math.sqrt(2.0)

__all__ = [
    "BeamSpec",
    "CylPoint",
    "AXIS_RHO",
    "laguerre_poly",
    "mode_amplitude",
    "mode_jet",
    "mode_phase",
    "waist_at",
]


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

    ``wavenumber``, ``rayleigh_range`` and ``norm`` are computed once per
    instance; the spec is frozen, and ``dataclasses.replace`` builds a new
    instance with its own values.
    """

    wavelength: float
    waist_w0: float
    winding_l: int
    radial_p: int = 0
    direction: int = 1
    focal_z: float = 0.0
    amp_scale: float = 1.0
    azimuthal_sign: int = 1

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

    @functools.cached_property
    def wavenumber(self):
        return 2.0 * np.pi / self.wavelength

    @functools.cached_property
    def rayleigh_range(self):
        return np.pi * self.waist_w0 ** 2 / self.wavelength

    @functools.cached_property
    def norm(self):
        """Normalisation constant C_{lp} = sqrt(p! / (p + |l|)!)."""
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
        if (np.asarray(self.rho) < 0.0).any():
            raise ValueError("rho must be >= 0")

    @functools.cached_property
    def shape(self):
        """Broadcast shape of rho, phi and z."""
        return np.broadcast(self.rho, self.phi, self.z).shape

    @classmethod
    def from_cartesian(cls, x, y, z):
        return cls(rho=np.hypot(x, y), phi=np.arctan2(y, x), z=z)


def waist_at(beam, z_local):
    """Beam radius w(z) = w0 sqrt(1 + (z/z_R)^2) at axial offset z_local from
    the focal plane (m)."""
    u = np.asarray(z_local) / beam.rayleigh_range
    return beam.waist_w0 * np.sqrt(1.0 + u * u)


def laguerre_poly(p, alpha, x):
    """Generalised Laguerre polynomial L_p^alpha(x) by the three-term
    upward recurrence in the degree.

    Tested for p up to 40, where the mode it builds still integrates to
    its normalisation to 1e-6; x may be an array.
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


def _amplitude(beam, pt):
    """U of ``mode_amplitude`` with what it is built from:
    ``(U, z_local, rho, x, L_p^|l|(x), env)``, x = 2 rho^2 / w^2 and env the
    envelope pref x^(|l|/2) e^(-x/2).  For p = 0 the Laguerre factor is None
    and env is U."""
    l = abs(beam.winding_l)
    zl = _local_z(beam, pt.z)
    u = zl / beam.rayleigh_range
    w = beam.waist_w0 * np.sqrt(1.0 + u * u)
    rho = np.asarray(pt.rho)
    x = 2.0 * rho * rho / (w * w)
    power = (_SQRT2 * rho / w) ** l
    gauss = np.exp(-0.5 * x)
    scale = beam.amp_scale * beam.norm
    # the prefactor keeps 1 + u ** 2 rather than reusing sqrt(1 + u * u) from
    # w: on numpy scalars u ** 2 and u * u can differ in the last bit, which
    # would move the bytes of single-point outputs such as trajectories
    axial = np.sqrt(1.0 + u ** 2)
    env = scale * (power * gauss) / axial
    if not beam.radial_p:
        return env, zl, rho, x, None, env
    lag = laguerre_poly(beam.radial_p, l, x)
    return scale * (power * lag * gauss) / axial, zl, rho, x, lag, env


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
        the local axial offset.  L_0 = 1 is not formed.
    """
    return _amplitude(beam, pt)[0]


def _phase_parts(beam, zl, pt):
    """Plane-wave, azimuthal, Gouy and curvature terms of the phase at local
    axial offset zl."""
    k = beam.wavenumber
    zr = beam.rayleigh_range
    rho = np.asarray(pt.rho)
    plane = beam.direction * k * (np.asarray(pt.z) - beam.focal_z)
    azimuthal = beam.azimuthal_sign * beam.winding_l * np.asarray(pt.phi)
    gouy = -(2.0 * beam.radial_p + abs(beam.winding_l) + 1.0) * np.arctan(zl / zr)
    curvature = k * rho * rho * zl / (2.0 * (zl * zl + zr * zr))
    return plane, azimuthal, gouy, curvature


def _phase(beam, zl, pt):
    """Unwrapped phase of ``mode_phase`` at local axial offset zl."""
    plane, azimuthal, gouy, curvature = _phase_parts(beam, zl, pt)
    return plane + azimuthal + gouy + curvature


def mode_phase(beam, pt):
    """Unwrapped phase of the mode at a point.

    The phase is the sum of the plane-wave term direction * k * (z - focal_z),
    the azimuthal term azimuthal_sign * l * phi, the Gouy term
    -(2p + |l| + 1) * arctan(z_local / z_R) and the wavefront-curvature term
    k * rho^2 * z_local / (2 (z_local^2 + z_R^2)).  The optical carrier
    omega * t is left out: every beam of a pair shares it.
    """
    return _phase(beam, _local_z(beam, pt.z), pt)


def mode_jet(beam, pt):
    """Amplitude, unwrapped phase and both gradients of the mode in one pass.

    Returns ``(U, Theta, grad_U, grad_Theta)``.  U and Theta equal
    ``mode_amplitude(beam, pt)`` and ``mode_phase(beam, pt)`` exactly;
    each gradient is stacked as [d/drho, (1/rho) d/dphi, d/dz] along axis 0.

    With x = 2 rho^2 / w^2 the amplitude is pref * R(x),
    pref = amp_scale * C_lp / sqrt(1 + z^2/z_R^2) and
    R = x^(|l|/2) L_p^|l|(x) e^(-x/2); dL_p^a/dx = -L_(p-1)^(a+1) gives
    x R'(x) = x^(|l|/2) e^(-x/2) [((|l| - x)/2) L_p^|l| - x L_(p-1)^(|l|+1)].
    Both w(z) and the (1 + z^2/z_R^2)^(-1/2) prefactor carry the axial
    dependence, so dU/dz_local = -z_local (U + 2 pref x R') / (z_local^2 + z_R^2).
    The phase gradient differentiates the plane-wave, azimuthal, Gouy and
    curvature terms of ``mode_phase``.

    On the axis (rho <= AXIS_RHO) the rho and phi entries are 0, the values
    a central difference of the mode extended evenly in rho gives: the
    azimuthal slope l / rho has no limit there, and for |l| = 1 the
    amplitude, proportional to rho, has no radial derivative.
    """
    l = abs(beam.winding_l)
    p = beam.radial_p
    k = beam.wavenumber
    zr = beam.rayleigh_range
    amplitude, zl, rho, x, lag, envelope = _amplitude(beam, pt)
    # envelope * slope is pref * x R'(x)
    slope = 0.5 * (l - x)
    if p:
        slope = slope * lag - x * laguerre_poly(p - 1, l + 1, x)
    x_dr = envelope * slope
    den = zl * zl + zr * zr
    off_axis = rho > AXIS_RHO
    shape = (3,) + pt.shape
    grad_amplitude = np.zeros(shape)
    np.divide(2.0 * x_dr, rho, out=grad_amplitude[0, ...], where=off_axis)
    grad_amplitude[2] = -beam.direction * zl * (amplitude + 2.0 * x_dr) / den
    grad_phase = np.zeros(shape)
    np.divide(k * rho * zl, den, out=grad_phase[0, ...], where=off_axis)
    np.divide(beam.azimuthal_sign * beam.winding_l, rho, out=grad_phase[1, ...],
              where=off_axis)
    grad_phase[2] = beam.direction * (k - (2.0 * p + l + 1.0) * zr / den
                                      + 0.5 * k * rho * rho * (zr * zr - zl * zl) / (den * den))
    return amplitude, _phase(beam, zl, pt), grad_amplitude, grad_phase
