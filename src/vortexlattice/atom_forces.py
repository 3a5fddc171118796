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

Every gradient is in closed form.  ``lg_mode._jet`` gives U, Theta,
grad(U) and grad(Theta) of each mode in one pass, each gradient a
(rho, phi, z) triple of entries, and its amplitude half
``lg_mode._amplitude_jet`` gives U and grad(U) alone.  Each model has one
force function, ``_reduced_forces`` or ``_full_forces``, that gives the scattering and
dipole forces together, each its triple of entries, from one evaluation of
each beam's mode, so a point of scalars computes on floats; an RK4 stage
reads those triples.  ``_forces`` picks the function by ``mode``.  The
public forces and ``phase_gradient`` are arrays stacked [rho, phi, z] on
axis 0, with the points' broadcast shape after it.  The full model reads
E, grad(E) and grad(arg E) = Im(grad E / E) of the total field as
``superpose`` forms them in real parts (``_pair_gradient``,
``_phase_slope``), and Omega grad(Omega) = s^2 Re(E* grad E) in real parts
too, s = rabi_omega0 / (reference amplitude).  Only ``axial_force_slope``
differentiates numerically: it is the numeric leg of the spring-constant check.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np

from .constants import HBAR
from .errors import DegenerateGeometryError
from .lg_mode import CylPoint, _amplitude_jet, _off_axis, _stacked, mode_amplitude, mode_phase
# mode_phase and pair_complex are not called here; they stay module attributes
# because perfbench/spans.py traces calls by rebinding these names
from .superpose import PairSpec, _pair_gradient, _phase_slope, pair_complex, total_amplitude

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
    "spring_sweep",
    "harmonic_potential_v0",
    "torque_axial",
]

# The force models a ``mode`` names: the beams' forces added, or the interfered field's
FORCE_MODELS = ("reduced", "full")
_REDUCED = FORCE_MODELS[0]
# The (rho, phi, z) triple of a force not asked for
_NO_FORCE = (0.0, 0.0, 0.0)


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
        for name in ("mass", "gamma", "detuning0", "rabi_omega0"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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


def _reduced_gradient(beam, pt, azimuthal=True):
    """Reduced phase gradient of one beam as the triple
    (0.0, l / rho, direction * k), with the azimuthal entry 0 for
    rho <= AXIS_RHO and an array of rho's shape for an array rho; the
    entries broadcast against pt.shape.  Without ``azimuthal``, for a
    caller that does not read that entry, it is 0.0 and l / rho is not
    formed."""
    # own-frame azimuthal slope l / rho: every beam advances its phase in
    # its own handedness, so beam 2's slope is +l2 / rho here while its lab
    # phase, direction * l * phi, has -l2 / rho
    return (0.0, _off_axis(beam.winding_l, pt.rho, pt.rho) if azimuthal else 0.0,
            beam.direction * beam.wavenumber)


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
    return _stacked(pt.shape, *_phase_slope(*_pair_gradient(pair, pt, t), strict=True))


def detuning_eff(atom, vel, grad):
    """Doppler-corrected detuning detuning0 - v . grad(Theta)."""
    if vel is None:
        return atom.detuning0
    return atom.detuning0 - (vel.v_rho * grad[0] + vel.v_phi * grad[1] + vel.v_z * grad[2])


def _field_terms(pair, pt, vel, t, scattering, dipole):
    """|E|, grad(arg E) and Re(E* grad E) of the interfered field from one
    ``_pair_gradient``, each gradient a (rho, phi, z) triple of entries.
    The slope is 0 at a dark point, unless the dipole force's Doppler shift
    needs it there: that raises DarkPointError."""
    amp, e, grad_e, u_max = _pair_gradient(pair, pt, t)
    grad = None
    if scattering or vel is not None:
        grad = _phase_slope(amp, e, grad_e, u_max, strict=dipole and vel is not None)
    return amp, grad, [e[0] * gr + e[1] * gi for gr, gi in zip(*grad_e)] if dipole else None


def _coefficients(atom, vel, amp, grad, ref):
    """Scattering and dipole coefficients of a field of amplitude ``amp``
    and phase gradient ``grad``: F_sc = c_sc grad(Theta) and
    F_dip = c_dip Omega grad(Omega), with c_sc = (hbar Gamma / 4) Omega^2 / D,
    c_dip = -(hbar / 2) Delta_eff / D and
    D = Delta_eff^2 + Omega^2 / 2 + Gamma^2 / 4."""
    quarter_gamma_sq, quarter_hbar_gamma = atom._force_constants
    delta = atom.detuning0 if vel is None else detuning_eff(atom, vel, grad)
    omega = atom.rabi_omega0 * amp / ref
    den = delta * delta + 0.5 * omega * omega + quarter_gamma_sq
    return quarter_hbar_gamma * omega * omega / den, -0.5 * HBAR * delta / den


def _reduced_forces(atom, pair, pt, vel, t, scattering, dipole, ref, s, azimuthal=True):
    """Scattering and dipole forces of the reduced model (t unread), each
    its (rho, phi, z) triple of entries, zeros when not asked for: the
    beams' forces added, beam 1's first.  Each beam's mode is the jet's
    amplitude half when the dipole force needs grad(U), else its amplitude
    (neither forms Theta or grad(Theta)); its scattering
    coefficient goes straight into F_phi and F_z.  Without ``azimuthal``
    F_phi of the scattering force is 0.0, and the azimuthal slope is formed
    only for velocity coupling."""
    fs = fd = None
    for beam in (pair.beam1, pair.beam2):
        if dipole:
            u, grad_u, _, _ = _amplitude_jet(beam, pt)
        else:
            u = mode_amplitude(beam, pt)
        grad = _reduced_gradient(beam, pt, azimuthal or vel is not None)
        c_sc, c_dip = _coefficients(atom, vel, u, grad, ref)
        if scattering:
            f_phi, f_z = c_sc * grad[1] if azimuthal else 0.0, c_sc * grad[2]
            fs = (0.0, f_phi, f_z) if fs is None else (0.0, fs[1] + f_phi, fs[2] + f_z)
        if dipole:
            f = [c_dip * (s * s * (u * g)) for g in grad_u]
            fd = f if fd is None else [a + b for a, b in zip(fd, f)]
    return fs or _NO_FORCE, fd or _NO_FORCE


def _full_forces(atom, pair, pt, vel, t, scattering, dipole, ref, s, azimuthal=True):
    """Scattering and dipole forces of the full model at time t, as
    ``_reduced_forces`` gives them: the formulas applied to the interfered
    field (``_field_terms``)."""
    amp, grad, amp_grad_amp = _field_terms(pair, pt, vel, t, scattering, dipole)
    c_sc, c_dip = _coefficients(atom, vel, amp, grad, ref)
    fs = fd = _NO_FORCE
    if scattering:
        fs = c_sc * grad[0], c_sc * grad[1] if azimuthal else 0.0, c_sc * grad[2]
    if dipole:
        fd = [c_dip * (s * s * a) for a in amp_grad_amp]
    return fs, fd


def _run_constants(atom, pair, mode):
    """(forces, ref, s): the force function of the ``_checked`` model
    (``_reduced_forces`` or ``_full_forces``), the reference amplitude of
    ``_pair_amp_ref`` and s = rabi_omega0 / ref.  A trajectory forms them
    once per run."""
    forces = _reduced_forces if _checked(pair, mode) == _REDUCED else _full_forces
    ref = _pair_amp_ref(pair)
    return forces, ref, atom.rabi_omega0 / ref


def _forces(atom, pair, pt, vel, mode, t, scattering, dipole):
    """Scattering and dipole forces of a pair at time t in the model
    ``mode``, from one evaluation of each beam's mode, each stacked from
    its triple as an array of shape (3,) + pt.shape, [rho, phi, z]."""
    forces, ref, s = _run_constants(atom, pair, mode)
    return tuple(_stacked(pt.shape, *f)
                 for f in forces(atom, pair, pt, vel, t, scattering, dipole, ref, s))


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
    reference amplitude and U, grad(U) from one jet; for the total
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
    u = 0.5 * pair.separation_d / b.rayleigh_range
    return b.waist_w0 * np.sqrt(0.5 * abs(b.winding_l)) * np.sqrt(1.0 + u * u)


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


def spring_sweep(atom, pair, d_values):
    """The central ring's spring constant over focal separations: an (n, 3)
    array of rows (d, ``spring_constant_k0``, -``axial_force_slope`` on the
    central ring), one per d of ``d_values``, with the pair otherwise as it is."""
    rows = []
    for d in d_values:
        pair_d = replace(pair, separation_d=float(d))
        rows.append((d, spring_constant_k0(atom, pair_d),
                     -axial_force_slope(atom, pair_d, central_ring_radius(pair_d))))
    return np.array(rows, dtype=float).reshape(-1, 3)


def torque_axial(atom, pair):
    """Axial radiation torque on the central ring:
    (hbar Gamma l / 2) Q_plus(rho_0, 0); zero for l = 0."""
    pt = CylPoint(rho=central_ring_radius(pair), phi=0.0, z=0.0)
    return 0.5 * HBAR * atom.gamma * pair.beam1.winding_l * q_plus(atom, pair, pt)


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
