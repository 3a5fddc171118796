"""Radiation forces of a pair of Laguerre-Gaussian beams on a two-level atom.

Scattering (dissipative) and dipole (reactive) forces in the steady-state
two-level model, plus the closed-form trap quantities of the near-resonant
counter-propagating pair: saturation factors, the axial spring constant and
its value on the central ring, the ring radius, and the axial torque.

Every force takes a ``PairSpec``, and one name, ``mode``, picks the model
(``FORCE_MODELS``): "reduced" adds the two beams' forces, each with the
reduced phase gradient (0, l / rho, direction * k), the dominant slopes the
beam imposes in its own frame; "full" applies the force formulas to the
interfered field at time t; the potential of an atom at rest takes its
amplitude.  One beam's force is the reduced force of a pair whose beam 2 has
amp_scale 0; one beam's complete phase gradient is ``mode_jet(beam, pt)[3]``.

Every gradient is in closed form.  ``lg_mode.mode_jet`` gives U, Theta,
grad(U) and grad(Theta) of each mode in one pass.  Forces, like gradients,
are arrays stacked [rho, phi, z] on axis 0, with the points' broadcast shape
after it.  ``_forces`` returns the scattering and dipole forces together and
evaluates each beam's mode once for both; the total field
E = sum_j U_j e^{i Theta_j} has
grad(E) = sum_j e^{i Theta_j} (grad U_j + i U_j grad Theta_j), from which
Omega grad(Omega) = s^2 Re(E* grad E) and
grad(arg E) = Im(grad E / E), with s = rabi_omega0 / (reference amplitude).
Only ``axial_force_slope`` differentiates numerically: it is the numeric leg
of the spring-constant check.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from .errors import DarkPointError, DegenerateGeometryError
from .lg_mode import CylPoint, _off_axis, _stacked, mode_amplitude, mode_jet, mode_phase
# mode_phase and pair_complex are not called here; they stay module attributes
# because perfbench/spans.py traces calls by rebinding these names
from .superpose import DARK_FRACTION, PairSpec, _offset_phase, pair_complex, total_amplitude

__all__ = [
    "FORCE_MODELS",
    "AtomSpec",
    "Velocity",
    "axial_force_slope",
    "central_ring_radius",
    "detuning_eff",
    "dipole_force",
    "dipole_potential",
    "ferris_rate",
    "lift_speed",
    "phase_gradient",
    "q_plus",
    "rabi_at",
    "scattering_force",
    "spring_constant",
    "spring_constant_k0",
    "harmonic_potential_v0",
    "torque_axial",
]

# The force models a ``mode`` names: the beams' forces added, or the interfered field's
FORCE_MODELS = ("reduced", "full")
_REDUCED = FORCE_MODELS[0]
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class AtomSpec:
    """Two-level atom: mass (kg), natural linewidth gamma (rad/s), static
    detuning detuning0 = omega_light - omega_atom (rad/s), and the Rabi
    frequency rabi_omega0 (rad/s) an amplitude equal to the reference
    amp_scale would drive."""

    mass: float
    gamma: float
    detuning0: float
    rabi_omega0: float

    @functools.cached_property
    def _force_constants(self):
        """(Gamma^2 / 4, hbar Gamma / 4), the atom's factors of
        ``_coefficients``."""
        return 0.25 * self.gamma ** 2, 0.25 * HBAR * self.gamma

    def __post_init__(self):
        if self.mass <= 0.0:
            raise ValueError("mass must be positive")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if self.rabi_omega0 < 0.0:
            raise ValueError("rabi_omega0 must be >= 0")


@dataclass(frozen=True)
class Velocity:
    """Velocity in the local cylindrical frame (m/s); v_phi is the linear
    azimuthal speed, not an angular rate."""

    v_rho: float = 0.0
    v_phi: float = 0.0
    v_z: float = 0.0


def rabi_at(atom, amplitude, amp_scale_ref):
    """Local Rabi frequency: rabi_omega0 scaled by amplitude / amp_scale_ref."""
    if amp_scale_ref <= 0.0:
        raise ValueError("amp_scale_ref must be positive")
    return atom.rabi_omega0 * np.asarray(amplitude) / amp_scale_ref


def _pair_amp_ref(pair):
    """Reference amplitude the atom's rabi_omega0 corresponds to: beam 1's
    amp_scale, falling back to beam 2's when beam 1 is switched off."""
    ref = pair.beam1.amp_scale
    if ref <= 0.0:
        ref = pair.beam2.amp_scale
    if ref <= 0.0:
        raise DegenerateGeometryError("both beams have amp_scale 0, so no amplitude "
                                      "sets the Rabi frequency")
    return ref


def _reduced_gradient(beam, pt):
    """Reduced phase gradient of one beam as the triple
    (0.0, l / rho, direction * k), with the azimuthal entry 0 for
    rho <= AXIS_RHO and an array of rho's shape for an array rho; the
    entries broadcast against pt.shape."""
    # own-frame azimuthal slope l / rho: every beam advances its phase in
    # its own handedness, so beam 2's slope is +l2 / rho here while its lab
    # phase, direction * l * phi, has -l2 / rho
    return 0.0, _off_axis(beam.winding_l, pt.rho, pt.rho), beam.direction * beam.wavenumber


def _pair_gradient(pair, pt, t):
    """Total field E, its gradient and max(|U1|, |U2|), from one mode jet
    per beam.

    grad(E) = sum_j e^{i Theta_j} (grad U_j + i U_j grad Theta_j), so
    Re(E* grad E) = |E| grad|E| and grad(arg E) = Im(grad E / E).
    """
    u1, th1, gu1, gth1 = mode_jet(pair.beam1, pt)
    u2, th2, gu2, gth2 = mode_jet(pair.beam2, pt)
    th2 = _offset_phase(pair, pt, t, th2)
    gth2[2] += pair.delta_k
    c1 = np.exp(1j * th1)
    c2 = np.exp(1j * th2)
    e = u1 * c1 + u2 * c2
    grad_e = c1 * (gu1 + 1j * u1 * gth1) + c2 * (gu2 + 1j * u2 * gth2)
    return e, grad_e, np.maximum(np.abs(u1), np.abs(u2))


def _phase_slope(e, grad_e, u_max, strict=False):
    """grad(arg E) = Im(grad E / E), set to 0 at dark points, where
    |E| <= DARK_FRACTION * max(|U1|, |U2|); ``strict`` raises DarkPointError
    instead if any point is dark.

    Magnitudes set the threshold: the signed amplitudes are negative where
    the radial polynomial is (radial_p > 0).  Dividing E and grad E by
    max(|U1|, |U2|) first keeps the quotient finite in the far field, where
    |E|^2 underflows.  The divisor is at least the smallest normal float:
    complex division by a subnormal overflows its reciprocal.
    """
    if not isinstance(e, np.ndarray):
        # a point of scalars: one comparison, and no 0-d arrays
        if abs(e) <= DARK_FRACTION * u_max:
            if strict:
                raise DarkPointError("total phase undefined at a dark point")
            return np.zeros(grad_e.shape)
        # np.maximum(u_max, _TINY), NaN included
        scale = _TINY if u_max < _TINY else u_max
        return (grad_e / scale / (e / scale)).imag
    dark = np.abs(e) <= DARK_FRACTION * u_max
    if strict and np.any(dark):
        raise DarkPointError("total phase undefined at a dark point")
    scale = np.where(dark, 1.0, np.maximum(u_max, _TINY))
    e_scaled = np.where(dark, 1.0, e / scale)
    return np.where(dark, 0.0, (grad_e / scale / e_scaled).imag)


def _checked(pair, mode=_REDUCED):
    """``mode`` once ``pair`` is known to be a PairSpec and ``mode`` one of
    FORCE_MODELS."""
    if not isinstance(pair, PairSpec):
        raise TypeError(f"expected a PairSpec, got {type(pair).__name__}; one beam is "
                        "a pair whose beam 2 has amp_scale 0")
    if mode not in FORCE_MODELS:
        raise ValueError(f"mode must be one of {FORCE_MODELS}")
    return mode


def phase_gradient(pair, pt, t=0.0):
    """Gradient [g_rho, g_phi, g_z] of the total-field phase at time t,
    Im(grad E / E), with grad E formed from the two modes' closed-form
    gradients; a DarkPointError is raised if any evaluation point is dark.
    """
    _checked(pair)
    return _phase_slope(*_pair_gradient(pair, pt, t), strict=True)


def detuning_eff(atom, vel, grad):
    """Doppler-corrected detuning detuning0 - v . grad(Theta)."""
    if vel is None:
        return atom.detuning0
    return atom.detuning0 - (vel.v_rho * grad[0] + vel.v_phi * grad[1] + vel.v_z * grad[2])


def _field_terms(pair, pt, vel, t, scattering, dipole):
    """|E|, grad(arg E) and Re(E* grad E) of the interfered field from one
    ``_pair_gradient``.  The slope is 0 at a dark point, unless the dipole
    force's Doppler shift needs it there: that raises DarkPointError."""
    e, grad_e, u_max = _pair_gradient(pair, pt, t)
    grad = None
    if scattering or vel is not None:
        grad = _phase_slope(e, grad_e, u_max, strict=dipole and vel is not None)
    return np.abs(e), grad, (np.conj(e) * grad_e).real if dipole else None


def _coefficients(atom, vel, amp, grad, ref):
    """Scattering and dipole coefficients of a field of amplitude ``amp``
    and phase gradient ``grad``: F_sc = c_sc grad(Theta) and
    F_dip = c_dip Omega grad(Omega), with c_sc = (hbar Gamma / 4) Omega^2 / D,
    c_dip = -(hbar / 2) Delta_eff / D and
    D = Delta_eff^2 + Omega^2 / 2 + Gamma^2 / 4."""
    quarter_gamma_sq, quarter_hbar_gamma = atom._force_constants
    delta = detuning_eff(atom, vel, grad)
    omega = atom.rabi_omega0 * amp / ref
    den = delta * delta + 0.5 * omega * omega + quarter_gamma_sq
    return quarter_hbar_gamma * omega * omega / den, -0.5 * HBAR * delta / den


def _forces(atom, pair, pt, vel, mode, t, scattering, dipole):
    """Scattering and dipole forces of a pair at time t in the model
    ``mode``, from one evaluation of each beam's mode.  Points are scalars or
    broadcastable arrays, as in ``lg_mode``; each force is an array of shape
    (3,) + pt.shape stacked [rho, phi, z], zeros when not asked for.

    In the reduced model each beam's mode is a jet when the dipole force
    needs grad(U), else its amplitude, and the forces add beam by beam.
    The reduced gradient's rho entry is 0, so each beam's scattering
    coefficient goes straight into F_phi and F_z.
    """
    mode = _checked(pair, mode)
    ref = _pair_amp_ref(pair)
    s = atom.rabi_omega0 / ref
    fs = fd = None
    if mode == _REDUCED:
        f_phi, f_z, f_dip = [], [], []
        for beam in (pair.beam1, pair.beam2):
            if dipole:
                u, _, grad_u, _ = mode_jet(beam, pt)
            else:
                u = mode_amplitude(beam, pt)
            grad = _reduced_gradient(beam, pt)
            c_sc, c_dip = _coefficients(atom, vel, u, grad, ref)
            if scattering:
                f_phi.append(c_sc * grad[1])
                f_z.append(c_sc * grad[2])
            if dipole:
                f_dip.append(c_dip * (s * s * (u * grad_u)))
        if scattering:
            fs = _stacked(pt.shape, 0.0, f_phi[0] + f_phi[1], f_z[0] + f_z[1])
        if dipole:
            fd = f_dip[0] + f_dip[1]
    else:
        amp, grad, amp_grad_amp = _field_terms(pair, pt, vel, t, scattering, dipole)
        c_sc, c_dip = _coefficients(atom, vel, amp, grad, ref)
        if scattering:
            fs = c_sc * grad
        if dipole:
            fd = c_dip * (s * s * amp_grad_amp)
    return (np.zeros((3,) + pt.shape) if fs is None else fs,
            np.zeros((3,) + pt.shape) if fd is None else fd)


def scattering_force(atom, pair, pt, vel=None, mode="reduced", t=0.0):
    """Scattering force (hbar Gamma / 4) Omega^2 grad(Theta) /
    (Delta_eff^2 + Omega^2 / 2 + Gamma^2 / 4).

    ``mode="reduced"`` adds the two single-beam forces, each with its
    reduced phase gradient, and ``mode="full"`` is the force of the
    interfered total field, with the gradient Im(grad E / E); it is zero at
    dark points.
    """
    return _forces(atom, pair, pt, vel, mode, t, True, False)[0]


def dipole_force(atom, pair, pt, vel=None, mode="reduced", t=0.0):
    """Dipole force -(hbar / 2) Omega grad(Omega) Delta_eff /
    (Delta_eff^2 + Omega^2 / 2 + Gamma^2 / 4), in closed form.

    ``mode`` is as for ``scattering_force``.  Per beam
    Omega grad(Omega) = s^2 U grad(U), with s = rabi_omega0 over the
    reference amplitude and U, grad(U) from one ``mode_jet``; for the total
    field it is s^2 Re(E* grad E), and velocity coupling raises
    DarkPointError at a dark point.
    """
    return _forces(atom, pair, pt, vel, mode, t, False, True)[1]


def _potential(atom, amplitude, amp_ref):
    omega = rabi_at(atom, amplitude, amp_ref)
    delta = atom.detuning0
    sat = 0.5 * omega * omega / (delta * delta + 0.25 * atom.gamma ** 2)
    return 0.5 * HBAR * delta * np.log1p(sat)


def dipole_potential(atom, pair, pt, mode="reduced", combine=None):
    """Dipole potential (hbar Delta0 / 2) ln(1 + (Omega^2/2) /
    (Delta0^2 + Gamma^2/4)) of an atom at rest, from the mode amplitudes:
    "reduced" adds the beams' potentials and "full" is the interfered
    field's.  -grad V is ``dipole_force`` of the same ``mode`` at zero
    velocity.  ``combine`` ("sum-of-beams" or "total-field") is an optional
    alias of the mode; one that disagrees with ``mode`` raises ValueError."""
    mode = _checked(pair, mode)
    if combine not in (None, "sum-of-beams" if mode == _REDUCED else "total-field"):
        raise ValueError(f"combine={combine!r} disagrees with mode={mode!r}")
    ref = _pair_amp_ref(pair)
    if mode == _REDUCED:
        return _potential(atom, mode_amplitude(pair.beam1, pt), ref) \
            + _potential(atom, mode_amplitude(pair.beam2, pt), ref)
    return _potential(atom, total_amplitude(pair, pt), ref)


def _omega_sq(atom, pair, beam, pt):
    """Omega^2 of one beam of the pair at pt."""
    omega = rabi_at(atom, mode_amplitude(beam, pt), _pair_amp_ref(pair))
    return omega * omega


def _sat_q(atom, omega_sq):
    return omega_sq / (atom.detuning0 ** 2 + 0.25 * atom.gamma ** 2 + 0.5 * omega_sq)


def q_plus(atom, pair, pt):
    """Saturation factor of the co-propagating beam (beam 1):
    Omega1^2 / (Delta0^2 + Gamma^2/4 + Omega1^2/2).  Monotone in Omega1^2 and
    bounded above by 2."""
    return _sat_q(atom, _omega_sq(atom, pair, pair.beam1, pt))


def central_ring_radius(pair):
    """Radius of the midplane intensity ring:
    w0 sqrt(|l|/2) sqrt(1 + d^2 / (4 z_R^2)); 0 for l = 0."""
    b = pair.beam1
    l = abs(b.winding_l)
    if l == 0:
        return 0.0
    u = 0.5 * pair.separation_d / b.rayleigh_range
    return b.waist_w0 * np.sqrt(0.5 * l) * np.sqrt(1.0 + u * u)


def _spring_prefactor(atom, pair, rho):
    """(hbar Gamma k / 2) d D X / (D + X/2)^2 of the spring constants, with
    D = Delta0^2 + Gamma^2/4 and X = Omega^2 of beam 1 at (rho, 0, 0)."""
    dd = atom.detuning0 ** 2 + 0.25 * atom.gamma ** 2
    x = _omega_sq(atom, pair, pair.beam1, CylPoint(rho=rho, phi=0.0, z=0.0))
    return 0.5 * HBAR * atom.gamma * pair.beam1.wavenumber * pair.separation_d * dd * x \
        / (dd + 0.5 * x) ** 2


def spring_constant(atom, pair, rho):
    """Axial spring constant -dF_z/dz at z = 0 of the reduced sum-of-beams
    scattering force, at radius rho (N/m).

    K(rho) = (hbar Gamma k / 2) d D X / (D + X/2)^2
             * [(|l|+1)(z_R^2 + d^2/4) - 2 rho^2 z_R^2 / w0^2]
             / (z_R^2 + d^2/4)^2,
    with D = Delta0^2 + Gamma^2/4 and X = Omega^2(rho) evaluated at the
    midplane.  Positive (restoring) on the central ring, zero at d = 0.
    """
    b = pair.beam1
    d = pair.separation_d
    zr = b.rayleigh_range
    a2 = zr * zr + 0.25 * d * d
    bracket = (abs(b.winding_l) + 1.0) * a2 - 2.0 * np.asarray(rho) ** 2 * zr * zr / b.waist_w0 ** 2
    return _spring_prefactor(atom, pair, rho) * bracket / (a2 * a2)


def spring_constant_k0(atom, pair):
    """Spring constant on the central ring, where the radial bracket of
    spring_constant collapses:
    K0 = (hbar Gamma k / 2) d D X0 / (D + X0/2)^2 / (z_R^2 + d^2/4)."""
    d = pair.separation_d
    zr = pair.beam1.rayleigh_range
    return _spring_prefactor(atom, pair, central_ring_radius(pair)) / (zr * zr + 0.25 * d * d)


def harmonic_potential_v0(atom, pair, z):
    """Harmonic axial trap potential (1/2) K0 z^2 about the central ring."""
    return 0.5 * spring_constant_k0(atom, pair) * np.asarray(z) ** 2


def axial_force_slope(atom, pair, rho):
    """dF_z/dz at z = 0 of the reduced sum-of-beams scattering force, by
    five-point central differences with step z_R / 100; -slope is the numeric
    spring constant."""
    h = 0.01 * pair.beam1.rayleigh_range

    def fz(zz):
        return scattering_force(atom, pair, CylPoint(rho=rho, phi=0.0, z=zz), mode=_REDUCED)[2]

    return (8.0 * (fz(h) - fz(-h)) - (fz(2.0 * h) - fz(-2.0 * h))) / (12.0 * h)


def torque_axial(atom, pair):
    """Axial radiation torque on the central ring:
    (hbar Gamma l / 2) Q_plus(rho_0, 0); zero for l = 0."""
    l = pair.beam1.winding_l
    if l == 0:
        return 0.0
    pt = CylPoint(rho=central_ring_radius(pair), phi=0.0, z=0.0)
    return 0.5 * HBAR * atom.gamma * l * q_plus(atom, pair, pt)


def ferris_rate(pair):
    """Angular rate Delta_omega / (l1 + l2) at which the spoke pattern of a
    frequency-offset pair revolves (rad/s)."""
    m = pair.azimuthal_order
    if m == 0:
        raise DegenerateGeometryError("pattern rotation undefined: no azimuthal spokes")
    return pair.delta_omega / m


def lift_speed(pair):
    """Axial crawl speed Delta_omega / (2 k) of the fringe lattice (m/s)."""
    return pair.delta_omega / (2.0 * pair.beam1.wavenumber)
