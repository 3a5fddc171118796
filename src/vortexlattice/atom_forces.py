"""Radiation forces of one or two Laguerre-Gaussian beams on a two-level atom.

Scattering (dissipative) and dipole (reactive) forces in the steady-state
two-level model, plus the closed-form trap quantities of the near-resonant
counter-propagating pair: saturation factors, the axial spring constant and
its value on the central ring, the ring radius, and the axial torque.

One name, ``mode``, picks the model.  For a beam it picks the phase
gradient: "reduced" keeps only the dominant slopes the beam imposes in its
own frame, exactly (0, l / rho, direction * k); "full" differentiates the
complete phase.  For a pair, "reduced" adds the two beams' forces, each with
its reduced gradient, and "full" applies the force formulas to the
interfered field at time t.

Every gradient is in closed form.  ``lg_mode.mode_jet`` gives U, Theta,
grad(U) and grad(Theta) of each mode in one pass.  ``_forces`` returns the
scattering and dipole forces together and evaluates each beam's mode once
for both; the total field E = sum_j U_j e^{i Theta_j}
has grad(E) = sum_j e^{i Theta_j} (grad U_j + i U_j grad Theta_j), from
which Omega grad(Omega) = s^2 Re(E* grad E) and
grad(arg E) = Im(grad E / E), with s = rabi_omega0 / (reference amplitude).
Only ``axial_force_slope`` differentiates numerically: it is the numeric leg
of the spring-constant check.
"""

from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from .errors import DarkPointError, DegenerateGeometryError
from .lg_mode import AXIS_RHO, BeamSpec, CylPoint, mode_amplitude, mode_jet, mode_phase
# mode_phase and pair_complex are not called here; they stay module attributes
# because perfbench/spans.py traces calls by rebinding these names
from .superpose import DARK_FRACTION, PairSpec, _offset_phase, pair_complex, total_amplitude

__all__ = [
    "AtomSpec",
    "ForceVec",
    "Velocity",
    "axial_force_slope",
    "central_ring_radius",
    "detuning_eff",
    "dipole_force",
    "dipole_potential",
    "ferris_rate",
    "lift_speed",
    "phase_gradient",
    "q_minus",
    "q_plus",
    "rabi_at",
    "scattering_force",
    "spring_constant",
    "spring_constant_k0",
    "harmonic_potential_v0",
    "torque_axial",
]

_REDUCED, _FULL = "reduced", "full"
_SUM, _TOTAL = "sum-of-beams", "total-field"
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

    def as_array(self):
        return np.array([self.v_rho, self.v_phi, self.v_z])


@dataclass(frozen=True)
class ForceVec:
    """Force components along (rho^, phi^, z^) at the evaluation point (N)."""

    f_rho: float
    f_phi: float
    f_z: float

    def as_array(self):
        return np.array([self.f_rho, self.f_phi, self.f_z])

    def __add__(self, other):
        return ForceVec(self.f_rho + other.f_rho,
                        self.f_phi + other.f_phi,
                        self.f_z + other.f_z)


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


def _beam_phase_gradient(beam, pt, mode):
    """Phase gradient of one beam; the reduced one is (0, l / rho,
    direction * k), shaped (3,) + shape(rho), with the azimuthal entry 0 for
    rho <= AXIS_RHO."""
    if mode == _REDUCED:
        rho = np.asarray(pt.rho)
        grad = np.zeros((3,) + rho.shape)
        # own-frame azimuthal slope l / rho: every beam advances its phase in
        # its own handedness, so no lab-frame azimuthal_sign appears here
        np.divide(beam.winding_l, rho, out=grad[1, ...], where=rho > AXIS_RHO)
        grad[2] = beam.direction * beam.wavenumber
        return grad
    return mode_jet(beam, pt)[3]


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
    """grad(arg E) = Im(grad E / E), set to 0 at dark points, and the dark
    mask |E| <= DARK_FRACTION * max(|U1|, |U2|); ``strict`` raises
    DarkPointError instead if any point is dark.

    Magnitudes set the threshold: the signed amplitudes are negative where
    the radial polynomial is (radial_p > 0).  Dividing E and grad E by
    max(|U1|, |U2|) first keeps the quotient finite in the far field, where
    |E|^2 underflows.  The divisor is at least the smallest normal float:
    complex division by a subnormal overflows its reciprocal.
    """
    dark = np.abs(e) <= DARK_FRACTION * u_max
    if strict and np.any(dark):
        raise DarkPointError("total phase undefined at a dark point")
    scale = np.where(dark, 1.0, np.maximum(u_max, _TINY))
    e_scaled = np.where(dark, 1.0, e / scale)
    return np.where(dark, 0.0, (grad_e / scale / e_scaled).imag), dark


def _checked_mode(mode):
    if mode not in (_REDUCED, _FULL):
        raise ValueError("mode must be 'reduced' or 'full'")
    return mode


def phase_gradient(field, pt, mode="reduced", t=0.0):
    """Gradient of the optical phase as an array [g_rho, g_phi, g_z].

    For a BeamSpec, ``mode="reduced"`` returns exactly
    (0, l / rho, direction * k) with the azimuthal entry zeroed on the axis;
    ``mode="full"`` differentiates the closed-form phase (``mode_jet``).
    For a PairSpec the gradient of the total-field phase is Im(grad E / E),
    with grad E formed from the two modes' closed-form gradients; only
    ``mode="full"`` is meaningful there, and a DarkPointError is raised if
    any evaluation point is dark.
    """
    mode = _checked_mode(mode)
    if isinstance(field, BeamSpec):
        return _beam_phase_gradient(field, pt, mode)
    if mode == _REDUCED:
        raise ValueError("a pair has no single reduced gradient; evaluate per beam")
    return _phase_slope(*_pair_gradient(field, pt, t), strict=True)[0]


def detuning_eff(atom, vel, grad):
    """Doppler-corrected detuning detuning0 - v . grad(Theta)."""
    if vel is None:
        return atom.detuning0
    return atom.detuning0 - (vel.v_rho * grad[0] + vel.v_phi * grad[1] + vel.v_z * grad[2])


def _sums_beams(combine):
    if combine not in (_SUM, _TOTAL):
        raise ValueError("combine must be 'sum-of-beams' or 'total-field'")
    return combine == _SUM


def _beam_terms(beam, pt, mode, jet):
    """U, the phase gradient and U grad(U) (None unless ``jet``) of one beam
    from one mode evaluation; ``mode_jet``'s U equals ``mode_amplitude``."""
    if jet or mode == _FULL:
        u, _, grad_u, grad = mode_jet(beam, pt)
    else:
        u = mode_amplitude(beam, pt)
    if mode == _REDUCED:
        grad = _beam_phase_gradient(beam, pt, mode)
    return u, grad, u * grad_u if jet else None


def _field_terms(pair, pt, vel, t, scattering, dipole):
    """|E|, grad(arg E) and Re(E* grad E) of the interfered field from one
    ``_pair_gradient``.  The slope is 0 at a dark point, unless the dipole
    force's Doppler shift needs it there: that raises DarkPointError."""
    e, grad_e, u_max = _pair_gradient(pair, pt, t)
    grad = None
    if scattering or vel is not None:
        grad = _phase_slope(e, grad_e, u_max, strict=dipole and vel is not None)[0]
    return np.abs(e), grad, (np.conj(e) * grad_e).real if dipole else None


def _forces(atom, field, pt, vel, mode, t, scattering, dipole):
    """Scattering and dipole forces of a beam or a pair at time t, each a
    ForceVec (zero when not asked for), from one evaluation of each beam's
    mode.  For a beam ``mode`` picks the phase gradient; for a pair it is the
    model (see the module docstring).  Points are scalars or broadcastable
    arrays, as in ``lg_mode``.
    """
    mode = _checked_mode(mode)
    if isinstance(field, BeamSpec):
        ref, terms = field.amp_scale, [_beam_terms(field, pt, mode, dipole)]
    elif mode == _REDUCED:
        ref = _pair_amp_ref(field)
        terms = [_beam_terms(b, pt, mode, dipole) for b in (field.beam1, field.beam2)]
    else:
        ref = _pair_amp_ref(field)
        terms = [_field_terms(field, pt, vel, t, scattering, dipole)]
    quarter_gamma_sq = 0.25 * atom.gamma ** 2
    fs, fd = [], []
    for amp, grad, amp_grad_amp in terms:
        delta = detuning_eff(atom, vel, grad)
        if scattering:
            omega = rabi_at(atom, amp, ref)
            pref = 0.25 * HBAR * atom.gamma * omega * omega \
                / (delta * delta + 0.5 * omega * omega + quarter_gamma_sq)
            fs.append(ForceVec(pref * grad[0], pref * grad[1], pref * grad[2]))
        if dipole:
            s = atom.rabi_omega0 / ref
            omega, omega_grad_omega = s * amp, s * s * amp_grad_amp
            scale = -0.5 * HBAR * delta / (delta * delta + 0.5 * omega * omega + quarter_gamma_sq)
            fd.append(ForceVec(scale * omega_grad_omega[0], scale * omega_grad_omega[1],
                               scale * omega_grad_omega[2]))
    return (sum(fs[1:], fs[0]) if fs else ForceVec(0.0, 0.0, 0.0),
            sum(fd[1:], fd[0]) if fd else ForceVec(0.0, 0.0, 0.0))


def scattering_force(atom, field, pt, vel=None, mode="reduced", t=0.0):
    """Scattering force (hbar Gamma / 4) Omega^2 grad(Theta) /
    (Delta_eff^2 + Omega^2 / 2 + Gamma^2 / 4).

    ``field`` is a BeamSpec or a PairSpec.  For a pair, ``mode="reduced"``
    adds the two single-beam forces, each with its reduced phase gradient,
    and ``mode="full"`` is the force of the interfered total field, with the
    gradient Im(grad E / E); it is zero at dark points.
    """
    return _forces(atom, field, pt, vel, mode, t, True, False)[0]


def dipole_force(atom, field, pt, vel=None, mode="reduced", t=0.0):
    """Dipole force -(hbar / 2) Omega grad(Omega) Delta_eff /
    (Delta_eff^2 + Omega^2 / 2 + Gamma^2 / 4), in closed form.

    For one beam Omega grad(Omega) = s^2 U grad(U), with s = rabi_omega0 over
    the reference amplitude and U, grad(U) from one ``mode_jet``.  A pair
    takes ``mode`` as ``scattering_force`` does; for the total field it is
    s^2 Re(E* grad E), and velocity coupling raises DarkPointError at a
    dark point.
    """
    return _forces(atom, field, pt, vel, mode, t, False, True)[1]


def _potential(atom, omega, delta):
    sat = 0.5 * omega * omega / (delta * delta + 0.25 * atom.gamma ** 2)
    return 0.5 * HBAR * delta * np.log1p(sat)


def dipole_potential(atom, field, pt, vel=None, mode="reduced",
                     combine="sum-of-beams", t=0.0):
    """Dipole potential (hbar Delta_eff / 2) ln(1 + (Omega^2/2) /
    (Delta_eff^2 + Gamma^2/4)); its negative gradient is the dipole force
    when the velocity is zero."""
    mode = _checked_mode(mode)

    def beam_potential(beam, amp_ref):
        u, grad, _ = _beam_terms(beam, pt, mode, False)
        return _potential(atom, rabi_at(atom, u, amp_ref), detuning_eff(atom, vel, grad))

    if isinstance(field, BeamSpec):
        return beam_potential(field, field.amp_scale)
    ref = _pair_amp_ref(field)
    if _sums_beams(combine):
        return beam_potential(field.beam1, ref) + beam_potential(field.beam2, ref)
    grad = None if vel is None else phase_gradient(field, pt, mode=_FULL, t=t)
    omega = rabi_at(atom, total_amplitude(field, pt, t=t), ref)
    return _potential(atom, omega, detuning_eff(atom, vel, grad))


def _sat_q(atom, omega_sq):
    return omega_sq / (atom.detuning0 ** 2 + 0.25 * atom.gamma ** 2 + 0.5 * omega_sq)


def q_plus(atom, pair, pt):
    """Saturation factor of the co-propagating beam (beam 1):
    Omega1^2 / (Delta0^2 + Gamma^2/4 + Omega1^2/2).  Monotone in Omega1^2 and
    bounded above by 2."""
    omega = rabi_at(atom, mode_amplitude(pair.beam1, pt), _pair_amp_ref(pair))
    return _sat_q(atom, omega * omega)


def q_minus(atom, pair, pt):
    """Saturation factor of the counter-propagating beam (beam 2)."""
    omega = rabi_at(atom, mode_amplitude(pair.beam2, pt), _pair_amp_ref(pair))
    return _sat_q(atom, omega * omega)


def central_ring_radius(pair):
    """Radius of the midplane intensity ring:
    w0 sqrt(|l|/2) sqrt(1 + d^2 / (4 z_R^2)); 0 for l = 0."""
    b = pair.beam1
    l = abs(b.winding_l)
    if l == 0:
        return 0.0
    u = 0.5 * pair.separation_d / b.rayleigh_range
    return b.waist_w0 * np.sqrt(0.5 * l) * np.sqrt(1.0 + u * u)


def _omega_sq_midplane(atom, pair, rho):
    pt = CylPoint(rho=rho, phi=0.0, z=0.0)
    omega = rabi_at(atom, mode_amplitude(pair.beam1, pt), _pair_amp_ref(pair))
    return omega * omega


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
    dd = atom.detuning0 ** 2 + 0.25 * atom.gamma ** 2
    x = _omega_sq_midplane(atom, pair, rho)
    a2 = zr * zr + 0.25 * d * d
    bracket = (abs(b.winding_l) + 1.0) * a2 - 2.0 * np.asarray(rho) ** 2 * zr * zr / b.waist_w0 ** 2
    return 0.5 * HBAR * atom.gamma * b.wavenumber * d * dd * x \
        / (dd + 0.5 * x) ** 2 * bracket / (a2 * a2)


def spring_constant_k0(atom, pair):
    """Spring constant on the central ring, where the radial bracket of
    spring_constant collapses:
    K0 = (hbar Gamma k / 2) d D X0 / (D + X0/2)^2 / (z_R^2 + d^2/4)."""
    b = pair.beam1
    d = pair.separation_d
    zr = b.rayleigh_range
    dd = atom.detuning0 ** 2 + 0.25 * atom.gamma ** 2
    x0 = _omega_sq_midplane(atom, pair, central_ring_radius(pair))
    return 0.5 * HBAR * atom.gamma * b.wavenumber * d * dd * x0 \
        / (dd + 0.5 * x0) ** 2 / (zr * zr + 0.25 * d * d)


def harmonic_potential_v0(atom, pair, z):
    """Harmonic axial trap potential (1/2) K0 z^2 about the central ring."""
    return 0.5 * spring_constant_k0(atom, pair) * np.asarray(z) ** 2


def axial_force_slope(atom, pair, rho, z=0.0, h=None):
    """dF_z/dz of the reduced sum-of-beams scattering force by five-point
    central differences; -slope at z = 0 is the numeric spring constant."""
    b = pair.beam1
    if h is None:
        h = 0.01 * b.rayleigh_range

    def fz(zz):
        f = scattering_force(atom, pair, CylPoint(rho=rho, phi=0.0, z=zz), mode=_REDUCED)
        return f.f_z

    return (8.0 * (fz(z + h) - fz(z - h)) - (fz(z + 2.0 * h) - fz(z - 2.0 * h))) / (12.0 * h)


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
