"""Single Laguerre-Gaussian mode in cylindrical coordinates.

Evaluates the amplitude and phase of an LG beam with winding number l and
radial index p, propagating along +z or -z with its focal plane anywhere on
the axis.  All quantities are SI; angles are radians.  Every evaluation
routine accepts scalars or broadcastable numpy arrays.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

# Radius below which the radial and azimuthal gradient components are 0 (m)
AXIS_RHO = 1e-15

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

    A beam carries +l*phi about its own propagation axis, so in the lab
    frame its azimuthal phase is direction * l * phi: a -z beam of winding l
    has the opposite handedness of a +z beam of winding l.  radial_p is at
    most 40, the range ``laguerre_poly`` is tested for.

    ``wavenumber``, ``rayleigh_range``, ``norm``, ``log_norm``,
    ``log_scale`` and the envelope's w0^2 and sqrt(2 / |l|) / w0 are
    computed once per instance; the spec is frozen, and
    ``dataclasses.replace`` builds a new instance with its own values.
    """

    wavelength: float
    waist_w0: float
    winding_l: int
    radial_p: int = 0
    direction: int = 1
    focal_z: float = 0.0
    amp_scale: float = 1.0

    def __post_init__(self):
        if self.wavelength <= 0.0:
            raise ValueError("wavelength must be positive")
        if self.waist_w0 <= 0.0:
            raise ValueError("waist_w0 must be positive")
        if not 0 <= self.radial_p <= 40:
            raise ValueError("radial_p must lie in [0, 40]")
        if self.direction not in (-1, 1):
            raise ValueError("direction must be +1 or -1")
        if self.amp_scale < 0.0:
            raise ValueError("amp_scale must be >= 0")

    @functools.cached_property
    def wavenumber(self):
        return 2.0 * np.pi / self.wavelength

    @functools.cached_property
    def rayleigh_range(self):
        return np.pi * self.waist_w0 ** 2 / self.wavelength

    @functools.cached_property
    def log_norm(self):
        """log C_lp, straight from lgamma: C_lp itself underflows to 0 near
        |l| = 600."""
        l, p = abs(self.winding_l), self.radial_p
        return 0.5 * (math.lgamma(p + 1.0) - math.lgamma(p + l + 1.0))

    @functools.cached_property
    def norm(self):
        """Normalisation constant C_{lp} = sqrt(p! / (p + |l|)!)."""
        return math.exp(self.log_norm)

    @functools.cached_property
    def _w0_sq(self):
        """w0^2, the envelope's w^2 at the focal plane."""
        return self.waist_w0 * self.waist_w0

    @functools.cached_property
    def _rho_scale(self):
        """sqrt(2 / |l|) / w0, the factor of rho in the envelope's log term;
        0 for l = 0, which has no such term."""
        l = abs(self.winding_l)
        return math.sqrt(2.0 / l) / self.waist_w0 if l else 0.0

    @functools.cached_property
    def log_scale(self):
        """log(amp_scale C_lp |l|^(|l|/2)), the constant term of the
        log-space amplitude; -inf for a dark beam (amp_scale = 0).

        |l|^(|l|/2) pairs with (x / |l|)^(|l|/2) in the envelope, a factor
        near 1 on the ring, so that the per-point terms stay small where U
        is large (relative error at most 6e-13 at |l| = 1000, against
        1.2e-12 for x^(|l|/2) with C_lp alone)."""
        if not self.amp_scale:
            return -math.inf
        l = abs(self.winding_l)
        return math.log(self.amp_scale) + self.log_norm + (0.5 * l * math.log(l) if l else 0.0)


@dataclass(frozen=True, init=False)
class CylPoint:
    """Cylindrical coordinates (rho, phi, z), each stored once as a Python
    float or as an ndarray of ndim >= 1 (the caller's own, if it is one):
    arithmetic on a numpy scalar or a 0-d array costs a ufunc call, and
    single-point callers build thousands of points and do a few dozen
    operations on each.  A scalar or 0-d coordinate keeps its value, its
    sign bit and NaN.  ``shape`` is the broadcast shape, () when no
    coordinate is an array."""

    rho: float
    phi: float
    z: float
    shape: tuple = field(init=False, repr=False, compare=False)

    def __init__(self, rho, phi, z):
        if type(rho) is float and type(phi) is float and type(z) is float:
            # three Python floats, as a single atom's force call passes them:
            # stored as they are, without the per-coordinate walk below
            shape = ()
            negative = rho < 0.0
        else:
            coords, arrays = [], []
            for value in (rho, phi, z):
                if not isinstance(value, np.ndarray):
                    value = np.asarray(value)
                if value.ndim:
                    arrays.append(value)
                else:
                    value = float(value)
                coords.append(value)
            rho, phi, z = coords
            shape = np.broadcast(*arrays).shape if arrays else ()
            negative = (rho < 0.0).any() if isinstance(rho, np.ndarray) else rho < 0.0
        if negative:
            raise ValueError("rho must be >= 0")
        # the dataclass is frozen: its own attributes are set through __dict__
        self.__dict__.update(rho=rho, phi=phi, z=z, shape=shape)

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
    its normalisation to 1e-6; x may be an array, and a float x gives a
    float.
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    if type(x) is not float:
        x = np.asarray(x, dtype=float)
    if p == 0:
        return 1.0 if type(x) is float else np.ones_like(x)
    prev = 1.0
    cur = 1.0 + alpha - x
    for n in range(1, p):
        prev, cur = cur, ((2.0 * n + 1.0 + alpha - x) * cur - (n + alpha) * prev) / (n + 1.0)
    return cur


def _local_z(beam, z):
    """Axial offset from the focal plane, measured along the propagation
    direction (positive downstream)."""
    return beam.direction * (z - beam.focal_z)


def _off_axis(num, den, rho):
    """num / den where rho > AXIS_RHO, else 0: the rho and phi entries of a
    gradient, which are 0 on the axis.  This is the one division that gives
    0 on the axis: a scalar rho takes one comparison and at most one
    division, an array one masked np.divide into zeros of the broadcast
    shape of num, den and rho."""
    if not isinstance(rho, np.ndarray):
        return num / den if rho > AXIS_RHO else 0.0
    out = np.zeros(np.broadcast_shapes(np.shape(num), np.shape(den), rho.shape))
    np.divide(num, den, out=out, where=rho > AXIS_RHO)
    return out


def _stacked(shape, *entries):
    """The entries stacked along a new axis 0, each broadcast to ``shape``:
    one np.array of floats for a point of scalars (shape ()), else one
    array filled entry by entry."""
    if not shape:
        return np.array(entries, dtype=float)
    out = np.empty((len(entries),) + shape)
    for i, entry in enumerate(entries):
        out[i] = entry
    return out


def _at(ufunc, x):
    """ufunc(x), as a Python float for a float x.  numpy stays the one source
    of the exponential, logarithm and arctangent, since math.exp, math.log
    and math.atan differ from it in the last bit on some inputs; at a point
    of scalars the arithmetic on the result then stays on floats, where an
    operation is not a ufunc call."""
    return float(ufunc(x)) if type(x) is float else ufunc(x)


def _times_exp(factor, log_env):
    """factor * exp(log_env) as sign(factor) exp(log_env + log|factor|), so
    that a large factor is not lost when exp(log_env) alone underflows;
    exactly 0 where factor is 0."""
    return _at(np.sign, factor) * _at(np.exp, log_env + _at(np.log, abs(factor) + (factor == 0.0)))


def _amplitude(beam, pt):
    """U of ``mode_amplitude`` with what it is built from:
    ``(U, z_local, rho, w^2, L_p^|l|(x), log_env)``, x = 2 rho^2 / w^2 and
    log_env the log of the envelope pref x^(|l|/2) e^(-x/2) before the
    on-axis zero.  For p = 0 the Laguerre factor is None, x is not formed
    and U is the envelope.

    U is formed in log space with one exp:
    log(amp_scale C_lp |l|^(|l|/2)) + |l| log(sqrt(2 / |l|) rho / w0)
    - (|l| + 1)/2 log(1 + u^2) - rho^2 / w^2 (+ log|L_p^|l|(x)|, its sign
    carried apart), u = z_local / z_R and w^2 = w0^2 (1 + u^2); for l = 0
    there is no rho term.  The rho term depends on rho alone and the u term
    on z alone, so on a separable block only rho^2 / w^2, two sums and the
    exp are full-block work.  No power of rho / w overflows, and U
    underflows only where it is below the smallest double.  On the axis U
    is exactly 0 for l != 0, and no log(0) is formed: a scalar rho that is
    not > 0 skips the rho term and zeroes U (NaN stays NaN); an array rho
    that holds such a point takes 1 as the log's argument there, and the
    rho > 0 mask zeroes the result.  An array with no such point skips the
    mask, since multiplying by 1 is exact.
    """
    l = abs(beam.winding_l)
    zl = _local_z(beam, pt.z)
    u = zl / beam.rayleigh_range
    axial = 1.0 + u * u
    w2 = beam._w0_sq * axial
    rho = pt.rho
    # -rho^2 / w^2 first: numpy then adds the other terms into that
    # temporary, which has the broadcast shape of rho and z, in place
    log_env = rho * rho / -w2 + (beam.log_scale - 0.5 * (l + 1.0) * _at(np.log, axial))
    # the factor that zeroes U on the axis: False for a scalar rho that is
    # not > 0, the rho > 0 mask for an array rho that holds such a point,
    # else None
    mask = None
    if l:
        if isinstance(rho, np.ndarray):
            scaled = rho * beam._rho_scale
            off_axis = rho > 0.0
            if not off_axis.all():
                scaled += ~off_axis
                mask = off_axis
            log_env += l * np.log(scaled)
        elif rho > 0.0:
            log_env += l * _at(np.log, rho * beam._rho_scale)
        else:
            mask = False
    if beam.radial_p:
        lag = laguerre_poly(beam.radial_p, l, 2.0 * rho * rho / w2)
        amplitude = _times_exp(lag, log_env)
    else:
        lag = None
        amplitude = _at(np.exp, log_env)
    if mask is not None:
        amplitude *= mask
    return amplitude, zl, rho, w2, lag, log_env


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
        the local axial offset.  L_0 = 1 is not formed.  The product is
        formed in log space with one exp, so no factor overflows (tested to
        |l| = 1000, p = 40); it underflows to 0 only where U itself is
        below the smallest double.
    """
    return _amplitude(beam, pt)[0]


def _row_phase(beam, zl, phi):
    """Everything of the phase at local axial offset zl and angle phi but
    rho: the plane-wave, azimuthal and Gouy terms and the curvature
    kappa = k zl / (2 (zl^2 + z_R^2)), which times rho^2 is the
    wavefront-curvature term.  On a separable block each is per row."""
    k = beam.wavenumber
    zr = beam.rayleigh_range
    plane = k * zl
    azimuthal = beam.direction * beam.winding_l * phi
    gouy = -(2.0 * beam.radial_p + abs(beam.winding_l) + 1.0) * _at(np.arctan, zl / zr)
    kappa = k * zl / (2.0 * (zl * zl + zr * zr))
    return plane, azimuthal, gouy, kappa


def _phase_parts(beam, zl, pt):
    """Plane-wave, azimuthal, Gouy and curvature terms of the phase at local
    axial offset zl; the curvature term is rho * rho * kappa."""
    plane, azimuthal, gouy, kappa = _row_phase(beam, zl, pt.phi)
    return plane, azimuthal, gouy, pt.rho * pt.rho * kappa


def _phase(beam, zl, pt):
    """Unwrapped phase of ``mode_phase`` at local axial offset zl."""
    plane, azimuthal, gouy, curvature = _phase_parts(beam, zl, pt)
    return plane + azimuthal + gouy + curvature


def mode_phase(beam, pt):
    """Unwrapped phase of the mode at a point.

    The phase is the sum of the plane-wave term direction * k * (z - focal_z),
    the azimuthal term direction * l * phi, the Gouy term
    -(2p + |l| + 1) * arctan(z_local / z_R) and the wavefront-curvature term
    k * rho^2 * z_local / (2 (z_local^2 + z_R^2)).  The optical carrier
    omega * t is left out: every beam of a pair shares it.
    """
    return _phase(beam, _local_z(beam, pt.z), pt)


def mode_jet(beam, pt):
    """Amplitude, unwrapped phase and both gradients of the mode in one pass.

    Returns ``(U, Theta, grad_U, grad_Theta)``.  U and Theta equal
    ``mode_amplitude(beam, pt)`` and ``mode_phase(beam, pt)`` exactly;
    each gradient is stacked as [d/drho, (1/rho) d/dphi, d/dz] along axis 0
    from the entries of ``_jet``.
    """
    u, theta, grad_u, grad_theta = _jet(beam, pt)
    return u, theta, _stacked(pt.shape, *grad_u), _stacked(pt.shape, *grad_theta)


def _jet(beam, pt):
    """``(U, Theta, grad_U, grad_Theta)`` of ``mode_jet`` with each gradient
    its (rho, phi, z) triple of entries: floats at a point of scalars, else
    arrays or floats that broadcast against pt.shape.

    With x = 2 rho^2 / w^2 the amplitude is pref * R(x),
    pref = amp_scale * C_lp / sqrt(1 + z^2/z_R^2) and
    R = x^(|l|/2) L_p^|l|(x) e^(-x/2); dL_p^a/dx = -L_(p-1)^(a+1) gives
    x R'(x) = x^(|l|/2) e^(-x/2) [((|l| - x)/2) L_p^|l| - x L_(p-1)^(|l|+1)].
    Both w(z) and the (1 + z^2/z_R^2)^(-1/2) prefactor carry the axial
    dependence, so dU/dz_local = -z_local (U + 2 pref x R') / (z_local^2 + z_R^2).
    For p > 0, pref x R' is formed in log space like U, its bracket's sign
    carried apart.
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
    amplitude, zl, rho, w2, lag, log_env = _amplitude(beam, pt)
    x = 2.0 * rho * rho / w2
    # x_dr is pref * x R'(x), the envelope times slope
    slope = 0.5 * (l - x)
    if p:
        slope = slope * lag - x * laguerre_poly(p - 1, l + 1, x)
        x_dr = _times_exp(slope, log_env)
        if l:
            x_dr *= rho > 0.0
    else:
        x_dr = amplitude * slope
    den = zl * zl + zr * zr
    grad_amplitude = (_off_axis(2.0 * x_dr, rho, rho), 0.0,
                      -beam.direction * zl * (amplitude + 2.0 * x_dr) / den)
    grad_phase = (_off_axis(k * rho * zl, den, rho),
                  _off_axis(beam.direction * beam.winding_l, rho, rho),
                  beam.direction * (k - (2.0 * p + l + 1.0) * zr / den
                                    + 0.5 * k * rho * rho * (zr * zr - zl * zl) / (den * den)))
    return amplitude, _phase(beam, zl, pt), grad_amplitude, grad_phase
