import math

import numpy as np
import pytest
from scipy.optimize import brentq

from vortexlattice import atom_forces, superpose
from vortexlattice.atom_forces import (AtomSpec, Velocity, _forces,
                                       _reduced_gradient, axial_force_slope, central_ring_radius,
                                       detuning_eff, dipole_force,
                                       dipole_potential, ferris_rate,
                                       harmonic_potential_v0, lift_speed,
                                       phase_gradient, q_plus, rabi_at,
                                       scattering_force, spring_constant,
                                       spring_constant_k0, spring_sweep, torque_axial)
from vortexlattice.constants import HBAR
from vortexlattice.errors import DarkPointError, DegenerateGeometryError
from vortexlattice.lg_mode import BeamSpec, CylPoint, mode_amplitude, mode_jet
from vortexlattice.superpose import (PairSpec, pair_complex, phase_difference,
                                     total_amplitude, total_phase)

WAVELENGTH = 589.16e-9
GAMMA = 2.0 * math.pi * 10.01e6
NA_MASS = 3.8175e-26


def sodium(delta0=0.5 * GAMMA, rabi=GAMMA):
    return AtomSpec(mass=NA_MASS, gamma=GAMMA, detuning0=delta0, rabi_omega0=rabi)


def pair(l1=1, w0=8e-6, d_frac=1.4, **kw):
    zr = math.pi * w0 ** 2 / WAVELENGTH
    return PairSpec(WAVELENGTH, w0, l1=l1, separation_d=d_frac * zr, **kw)


def grad5(f, h):
    return (8.0 * (f(h) - f(-h)) - (f(2.0 * h) - f(-2.0 * h))) / (12.0 * h)


def test_atom_spec_validation():
    with pytest.raises(ValueError):
        AtomSpec(mass=0.0, gamma=GAMMA, detuning0=0.0, rabi_omega0=GAMMA)
    with pytest.raises(ValueError):
        AtomSpec(mass=NA_MASS, gamma=-1.0, detuning0=0.0, rabi_omega0=GAMMA)
    with pytest.raises(ValueError):
        AtomSpec(mass=NA_MASS, gamma=GAMMA, detuning0=0.0, rabi_omega0=-GAMMA)
    # a non-finite parameter would make every force NaN without an error
    valid = dict(mass=NA_MASS, gamma=GAMMA, detuning0=0.5 * GAMMA, rabi_omega0=GAMMA)
    for name in valid:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=name):
                AtomSpec(**{**valid, name: bad})


def test_vector_helpers():
    v = Velocity(1.0, 2.0, 3.0)
    assert (v.v_rho, v.v_phi, v.v_z) == (1.0, 2.0, 3.0)
    assert Velocity() == Velocity(0.0, 0.0, 0.0)


def test_rabi_scaling():
    atom = sodium()
    assert rabi_at(atom, 2.0, 2.0) == atom.rabi_omega0
    assert rabi_at(atom, 1.0, 2.0) == pytest.approx(0.5 * atom.rabi_omega0, rel=1e-12)


def test_reduced_gradient_per_beam():
    b1 = pair(l1=3).beam1
    pt = CylPoint(rho=5e-6, phi=0.4, z=2e-5)
    g_rho, g_phi, g_z = _reduced_gradient(b1, pt)
    np.testing.assert_allclose([g_rho, g_phi, g_z], [0.0, 3.0 / 5e-6, b1.wavenumber],
                               rtol=1e-12)
    b2 = pair(l1=3).beam2
    g_rho, g_phi, g_z = _reduced_gradient(b2, pt)
    np.testing.assert_allclose([g_rho, g_phi, g_z], [0.0, 3.0 / 5e-6, -b2.wavenumber],
                               rtol=1e-12)
    _, on_axis, _ = _reduced_gradient(b1, CylPoint(rho=0.0, phi=0.0, z=0.0))
    assert on_axis == 0.0


def full_gradient_analytic(beam, pt):
    """Closed-form gradient of the single-beam phase, written out here
    independently of lg_mode.mode_jet."""
    k = beam.wavenumber
    zr = beam.rayleigh_range
    zl = beam.direction * (pt.z - beam.focal_z)
    den = zl * zl + zr * zr
    g_rho = k * pt.rho * zl / den
    g_phi = beam.direction * beam.winding_l / pt.rho
    n = 2.0 * beam.radial_p + abs(beam.winding_l) + 1.0
    dz_local = k - n * zr / den + 0.5 * k * pt.rho ** 2 * (zr * zr - zl * zl) / den ** 2
    return np.array([g_rho, g_phi, beam.direction * dz_local])


def test_full_gradient_single_beam():
    for b in (pair(l1=2).beam1, pair(l1=2).beam2, pair(l1=-5).beam1):
        pt = CylPoint(rho=6.5e-6, phi=0.3, z=4e-5)
        got = mode_jet(b, pt)[3]
        np.testing.assert_allclose(got, full_gradient_analytic(b, pt), rtol=1e-8)


def test_full_gradient_on_axis_gaussian():
    b = BeamSpec(WAVELENGTH, 8e-6, winding_l=0)
    g = mode_jet(b, CylPoint(rho=0.0, phi=0.0, z=0.0))[3]
    want_z = b.wavenumber - 1.0 / b.rayleigh_range
    np.testing.assert_allclose(g, [0.0, 0.0, want_z], rtol=1e-9, atol=1e-9 * abs(want_z))


def test_pair_gradient_is_finite_off_dark_points():
    p = pair()
    pt = CylPoint(rho=7e-6, phi=0.0, z=0.0)
    g = phase_gradient(p, pt)
    assert np.all(np.isfinite(g))


@pytest.mark.parametrize("mode", ["Reduced", "FULL", "bogus"])
@pytest.mark.parametrize("force", [scattering_force, dipole_force, dipole_potential])
def test_unknown_force_mode_is_rejected(force, mode):
    """A misspelt mode raises ValueError (for the potential also with a
    combine given); it never means "full"."""
    p = pair(l1=2)
    pt = CylPoint(rho=3e-6, phi=0.2, z=1e-6)
    calls = [{}]
    if force is dipole_potential:
        calls.append({"combine": "total-field"})
    for kwargs in calls:
        with pytest.raises(ValueError, match="mode must be"):
            force(sodium(), p, pt, mode=mode, **kwargs)


@pytest.mark.parametrize("call", [
    lambda b, pt: scattering_force(sodium(), b, pt),
    lambda b, pt: dipole_force(sodium(), b, pt, mode="full"),
    lambda b, pt: dipole_potential(sodium(), b, pt),
    lambda b, pt: phase_gradient(b, pt),
], ids=["scattering_force", "dipole_force", "dipole_potential", "phase_gradient"])
def test_beam_field_raises_type_error(call):
    """The forces, the potential and the phase gradient take a pair; a lone
    beam is a TypeError that names PairSpec, for a dark beam as well."""
    pt = CylPoint(rho=3e-6, phi=0.2, z=1e-6)
    for amp in (1.0, 0.0):
        with pytest.raises(TypeError, match="PairSpec"):
            call(BeamSpec(WAVELENGTH, 8e-6, 1, amp_scale=amp), pt)


@pytest.mark.parametrize("mode", ["reduced", "full"])
@pytest.mark.parametrize("force", [scattering_force, dipole_force, dipole_potential])
def test_dark_pair_raises_degenerate_geometry(force, mode):
    """With both beams at amp_scale 0 no amplitude sets the Rabi frequency."""
    p = pair(l1=1, amp1=0.0, amp2=0.0)
    pt = CylPoint(rho=np.array([3e-6, 7e-6]), phi=0.2, z=1e-6)
    with pytest.raises(DegenerateGeometryError, match="amp_scale 0"):
        force(sodium(), p, pt, mode=mode)


def test_pair_gradient_dark_point_raises():
    p = pair(l1=1, d_frac=0.0)
    dark = CylPoint(rho=p.beam1.waist_w0 / math.sqrt(2.0), phi=math.pi / 2.0, z=0.0)
    with pytest.raises(DarkPointError):
        phase_gradient(p, dark)


def test_detuning_eff():
    atom = sodium(delta0=3.0e7)
    vel = Velocity(1.0, 2.0, 3.0)
    grad = np.array([10.0, 20.0, 30.0])
    assert detuning_eff(atom, vel, grad) == pytest.approx(3.0e7 - 140.0, rel=1e-12)


def test_scattering_force_single_beam_oracle():
    atom = sodium()
    p = pair(l1=2, amp2=0.0)
    b = p.beam1
    pt = CylPoint(rho=6e-6, phi=0.1, z=1e-5)
    omega = rabi_at(atom, mode_amplitude(b, pt), b.amp_scale)
    den = atom.detuning0 ** 2 + 0.5 * omega ** 2 + 0.25 * atom.gamma ** 2
    pref = HBAR * 0.25 * atom.gamma * omega ** 2 / den
    grad = np.array([0.0, 2.0 / 6e-6, b.wavenumber])
    f = scattering_force(atom, p, pt, mode="reduced")
    np.testing.assert_allclose(f, pref * grad, rtol=1e-12)


def test_scattering_force_velocity_coupling():
    atom = sodium()
    p = pair(l1=2, amp2=0.0)
    b = p.beam1
    pt = CylPoint(rho=6e-6, phi=0.1, z=1e-5)
    vel = Velocity(0.0, 0.0, 2.0)
    grad = np.array([0.0, 2.0 / 6e-6, b.wavenumber])
    delta = atom.detuning0 - 2.0 * b.wavenumber
    omega = rabi_at(atom, mode_amplitude(b, pt), b.amp_scale)
    den = delta ** 2 + 0.5 * omega ** 2 + 0.25 * atom.gamma ** 2
    want = HBAR * 0.25 * atom.gamma * omega ** 2 / den * grad
    got = scattering_force(atom, p, pt, vel=vel, mode="reduced")
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_scattering_saturation_bound():
    """|F| stays below hbar |grad Theta| Gamma / 2 however strong the drive."""
    atom = sodium(rabi=200.0 * GAMMA)
    p = pair(l1=1, amp2=0.0)
    b = p.beam1
    pt = CylPoint(rho=b.waist_w0 / math.sqrt(2.0), phi=0.0, z=-2.5e-4)
    f = scattering_force(atom, p, pt, mode="reduced")
    grad = np.array([0.0, 1.0 / pt.rho, b.wavenumber])
    bound = HBAR * 0.5 * atom.gamma * np.linalg.norm(grad)
    assert np.linalg.norm(f) < bound


def test_axial_force_vanishes_on_midplane_ring():
    atom = sodium()
    p = pair(l1=1)
    rho0 = central_ring_radius(p)
    f = scattering_force(atom, p, CylPoint(rho=rho0, phi=0.0, z=0.0), mode="reduced")
    assert f[2] == 0.0
    assert f[1] > 0.0


def test_axial_force_odd_in_z():
    atom = sodium()
    p = pair(l1=1)
    rho0 = central_ring_radius(p)
    for z in (1e-5, 5e-5, 2e-4):
        up = scattering_force(atom, p, CylPoint(rho=rho0, phi=0.0, z=z), mode="reduced")
        dn = scattering_force(atom, p, CylPoint(rho=rho0, phi=0.0, z=-z), mode="reduced")
        assert up[2] == -dn[2]
    # restoring: force points back toward the midplane
    probe = scattering_force(atom, p, CylPoint(rho=rho0, phi=0.0, z=1e-5), mode="reduced")
    assert probe[2] < 0.0


def test_spring_constant_identities():
    atom = sodium()
    p = pair(l1=1)
    rho0 = central_ring_radius(p)
    k0 = spring_constant_k0(atom, p)
    assert k0 > 0.0
    assert spring_constant(atom, p, rho0) == pytest.approx(k0, rel=1e-12)
    slope = axial_force_slope(atom, p, rho0)
    assert -slope == pytest.approx(k0, rel=1e-6)
    # the d = 0 overlap geometry has no axial trap at all
    p0 = pair(l1=1, d_frac=0.0)
    assert spring_constant_k0(atom, p0) == 0.0
    assert axial_force_slope(atom, p0, central_ring_radius(p0)) == 0.0


def test_spring_constant_radial_falloff():
    """The radial bracket shrinks with rho and goes negative far outside the
    ring."""
    atom = sodium()
    p = pair(l1=1)
    rho0 = central_ring_radius(p)
    assert spring_constant(atom, p, 0.98 * rho0) > 0.0
    w0 = p.beam1.waist_w0
    zr = p.beam1.rayleigh_range
    d = p.separation_d
    rho_neg = 1.2 * w0 * math.sqrt((1.0 + 0.5 * abs(p.beam1.winding_l))
                                   * (1.0 + 0.25 * d * d / (zr * zr)))
    assert spring_constant(atom, p, rho_neg) < 0.0


def test_harmonic_potential():
    atom = sodium()
    p = pair(l1=1)
    k0 = spring_constant_k0(atom, p)
    z = np.array([0.0, 1e-5, -2e-5])
    np.testing.assert_allclose(harmonic_potential_v0(atom, p, z),
                               0.5 * k0 * z ** 2, rtol=1e-12)


def q_minus(atom, pair, pt):
    """Saturation factor of the counter-propagating beam (beam 2), the twin
    of q_plus; nothing in the package needs it."""
    return atom_forces._sat_q(atom, atom_forces._omega_sq(atom, pair, pair.beam2, pt))


def test_saturation_factors():
    atom = sodium()
    p = pair(l1=1, amp2=0.5)
    rho0 = central_ring_radius(p)
    pt = CylPoint(rho=rho0, phi=0.0, z=0.0)
    o1 = atom.rabi_omega0 * mode_amplitude(p.beam1, pt)
    o2 = atom.rabi_omega0 * mode_amplitude(p.beam2, pt)
    dd = atom.detuning0 ** 2 + 0.25 * atom.gamma ** 2
    assert q_plus(atom, p, pt) == pytest.approx(o1 ** 2 / (dd + 0.5 * o1 ** 2), rel=1e-12)
    assert q_minus(atom, p, pt) == pytest.approx(o2 ** 2 / (dd + 0.5 * o2 ** 2), rel=1e-12)
    assert 0.0 < q_minus(atom, p, pt) < q_plus(atom, p, pt) < 2.0
    # Q is monotone in the drive and saturates below 2
    strong = AtomSpec(mass=NA_MASS, gamma=GAMMA, detuning0=0.5 * GAMMA,
                      rabi_omega0=500.0 * GAMMA)
    assert q_plus(strong, p, pt) < 2.0
    assert q_plus(strong, p, pt) > q_plus(atom, p, pt)


def test_dipole_force_is_potential_gradient_sum():
    atom = sodium(delta0=-2.0 * GAMMA, rabi=0.5 * GAMMA)
    p = pair(l1=2, d_frac=0.8, amp2=0.7)
    rho0 = central_ring_radius(p)
    rng = np.random.default_rng(4)
    n = 120
    rho = rho0 * rng.uniform(0.5, 1.5, n)
    phi = rng.uniform(-np.pi, np.pi, n)
    z = rng.uniform(-0.5, 0.5, n) * p.beam1.rayleigh_range
    got = dipole_force(atom, p, CylPoint(rho=rho, phi=phi, z=z), mode="reduced")
    h = WAVELENGTH / 400.0

    def v(rr, pp, zz):
        return dipole_potential(atom, p, CylPoint(rho=np.abs(rr), phi=pp, z=zz),
                                combine="sum-of-beams")

    want = -np.stack([grad5(lambda s: v(rho + s, phi, z), h),
                      grad5(lambda s: v(rho, phi + s, z), h / rho) / rho,
                      grad5(lambda s: v(rho, phi, z + s), h)])
    rel = np.linalg.norm(got - want, axis=0) \
        / np.maximum(np.linalg.norm(got, axis=0), np.linalg.norm(want, axis=0))
    assert np.max(rel) < 1e-6


def test_dipole_force_total_field_consistency():
    """The interfered-field dipole force matches -grad V everywhere,
    near-dark fringes included: Omega grad(Omega) = s^2 Re(E* grad E) is in
    closed form and needs no division."""
    atom = sodium(delta0=-2.0 * GAMMA, rabi=0.5 * GAMMA)
    p = pair(l1=2, d_frac=0.8, amp2=0.7)
    rho0 = central_ring_radius(p)
    rng = np.random.default_rng(12)
    rho = rho0 * rng.uniform(0.6, 1.4, 400)
    phi = rng.uniform(-np.pi, np.pi, 400)
    z = rng.uniform(-0.5, 0.5, 400) * p.beam1.rayleigh_range
    got = dipole_force(atom, p, CylPoint(rho=rho, phi=phi, z=z), mode="full")
    h = WAVELENGTH / 400.0

    def v(rr, pp, zz):
        return dipole_potential(atom, p, CylPoint(rho=np.abs(rr), phi=pp, z=zz),
                                mode="full", combine="total-field")

    want = -np.stack([grad5(lambda s: v(rho + s, phi, z), h),
                      grad5(lambda s: v(rho, phi + s, z), h / rho) / rho,
                      grad5(lambda s: v(rho, phi, z + s), h)])
    rel = np.linalg.norm(got - want, axis=0) \
        / np.maximum(np.linalg.norm(got, axis=0), np.linalg.norm(want, axis=0))
    assert np.max(rel) < 1e-6


def test_dipole_potential_needs_amplitudes_only(monkeypatch):
    """The potential of an atom at rest takes mode amplitudes alone: no mode
    jet or its amplitude half, phase gradient or Doppler-corrected detuning,
    in either model."""
    calls = []
    for module, name in ((atom_forces, "_amplitude_jet"), (superpose, "_jet"),
                         (atom_forces, "phase_gradient"), (atom_forces, "detuning_eff")):
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    p = pair(l1=2, amp2=0.7)
    pt = CylPoint(rho=np.array([2e-6, 7e-6]), phi=0.4, z=np.array([-1e-6, 3e-6]))
    for mode in ("reduced", "full"):
        assert np.all(np.isfinite(dipole_potential(sodium(), p, pt, mode=mode)))
    assert calls == []


def test_dipole_potential_combine_is_an_agreeing_alias():
    """combine names the model a second time: agreeing, it returns exactly
    what mode alone returns; disagreeing or unknown, it raises ValueError.
    mode="full" alone gives the interfered field's potential."""
    atom = sodium(delta0=-2.0 * GAMMA)
    p = pair(l1=2, amp2=0.7)
    pt = CylPoint(rho=np.array([2e-6, 7e-6]), phi=0.4, z=np.array([-1e-6, 3e-6]))
    for mode, combine in (("reduced", "sum-of-beams"), ("full", "total-field")):
        alone = dipole_potential(atom, p, pt, mode=mode)
        np.testing.assert_array_equal(dipole_potential(atom, p, pt, mode=mode, combine=combine),
                                      alone, strict=True)
    for mode, combine in (("reduced", "total-field"), ("full", "sum-of-beams"),
                          ("full", "total")):
        with pytest.raises(ValueError, match="combine"):
            dipole_potential(atom, p, pt, mode=mode, combine=combine)
    ref = p.beam1.amp_scale
    omega = atom.rabi_omega0 * total_amplitude(p, pt) / ref
    want = 0.5 * HBAR * atom.detuning0 * np.log1p(
        0.5 * omega ** 2 / (atom.detuning0 ** 2 + 0.25 * GAMMA ** 2))
    np.testing.assert_allclose(dipole_potential(atom, p, pt, mode="full"), want, rtol=1e-14)


def arg_gradient_stencil(p, rho, phi, z, t, h):
    """Five-point stencil of arg E from the unwrapped phase differences
    arg(E(x + s) / E(x - s)), which need no unwrapping of arg E itself."""
    def e(rr, pp, zz):
        return pair_complex(p, CylPoint(rho=rr, phi=pp, z=zz), t)

    def along(shift, step):
        d1 = np.angle(e(*shift(step)) * np.conj(e(*shift(-step))))
        d2 = np.angle(e(*shift(2.0 * step)) * np.conj(e(*shift(-2.0 * step))))
        return (8.0 * d1 - d2) / (12.0 * step)

    return np.stack([along(lambda s: (rho + s, phi, z), h),
                     along(lambda s: (rho, phi + s, z), h / rho) / rho,
                     along(lambda s: (rho, phi, z + s), h)])


def offset_pair_points():
    p = pair(l1=2, d_frac=0.8, amp2=0.7, delta_omega=2.0 * math.pi * 1e3)
    rho0 = central_ring_radius(p)
    rng = np.random.default_rng(5)
    rho = rho0 * rng.uniform(0.6, 1.4, 400)
    phi = rng.uniform(-np.pi, np.pi, 400)
    z = rng.uniform(-0.5, 0.5, 400) * p.beam1.rayleigh_range
    return p, rho, phi, z


def test_pair_phase_gradient_matches_stencil():
    """The total-field phase gradient Im(grad E / E) against a
    stencil of the phase differences, with frequency and wavenumber offsets
    on beam 2.  The step is small because arg E varies on the scale of |E|
    near dark fringes."""
    p, rho, phi, z = offset_pair_points()
    t = 3e-5
    got = phase_gradient(p, CylPoint(rho=rho, phi=phi, z=z), t=t)
    want = arg_gradient_stencil(p, rho, phi, z, t, WAVELENGTH / 20000.0)
    rel = np.linalg.norm(got - want, axis=0) / np.linalg.norm(want, axis=0)
    assert np.max(rel) < 1e-6


def test_scattering_force_total_field_matches_stencil():
    """The total-field scattering force, velocity coupling included, equals
    its formula evaluated with the stencil phase gradient."""
    atom = sodium()
    p, rho, phi, z = offset_pair_points()
    t = 3e-5
    pts = CylPoint(rho=rho, phi=phi, z=z)
    vel = Velocity(0.3, -0.2, 0.5)
    grad = arg_gradient_stencil(p, rho, phi, z, t, WAVELENGTH / 20000.0)
    omega = rabi_at(atom, total_amplitude(p, pts, t=t), p.beam1.amp_scale)
    delta = detuning_eff(atom, vel, grad)
    pref = 0.25 * HBAR * atom.gamma * omega ** 2 \
        / (delta ** 2 + 0.5 * omega ** 2 + 0.25 * atom.gamma ** 2)
    want = pref * grad
    got = scattering_force(atom, p, pts, vel=vel, mode="full", t=t)
    rel = np.linalg.norm(got - want, axis=0) / np.linalg.norm(want, axis=0)
    assert np.max(rel) < 1e-6


def test_pair_dark_point_with_negative_amplitudes():
    """radial_p = 1 makes both amplitudes negative outside the inner node;
    where the two beams cancel the total phase is undefined, so the phase
    gradient raises and the total-field scattering force is 0.  Under
    velocity coupling the scattering force still takes the slope as 0, while
    the dipole force, whose detuning needs the slope, raises."""
    p = PairSpec(WAVELENGTH, 8e-6, l1=1, separation_d=0.0, radial_p=1)
    rho = 1.5 * p.beam1.waist_w0
    z = brentq(lambda zz: phase_difference(p, CylPoint(rho, 0.0, zz)).total - math.pi,
               1e-12, 0.6 * WAVELENGTH, xtol=1e-30)
    pt = CylPoint(rho=rho, phi=0.0, z=z)
    assert mode_amplitude(p.beam1, pt) < 0.0 and mode_amplitude(p.beam2, pt) < 0.0
    assert np.isnan(total_phase(p, pt))
    with pytest.raises(DarkPointError):
        phase_gradient(p, pt)
    f = scattering_force(sodium(), p, pt, mode="full")
    np.testing.assert_array_equal(f, [0.0, 0.0, 0.0])
    vel = Velocity(0.3, -0.2, 0.5)
    f = scattering_force(sodium(), p, pt, vel=vel, mode="full")
    np.testing.assert_array_equal(f, [0.0, 0.0, 0.0])
    with pytest.raises(DarkPointError):
        dipole_force(sodium(), p, pt, vel=vel, mode="full")
    with pytest.raises(DarkPointError):
        _forces(sodium(), p, pt, vel, "full", 0.0, True, True)


def test_total_field_far_from_beam_is_finite():
    """About 28 waists out, |E|^2 underflows while |E| is still far above the
    dark threshold; the phase gradient and the forces stay finite there."""
    atom = sodium()
    p = pair(l1=1, d_frac=1.4)
    pt = CylPoint(rho=2.259e-4, phi=0.0, z=-1.2277e-4)
    assert 0.0 < abs(pair_complex(p, pt)) < 1e-154
    g = phase_gradient(p, pt)
    assert np.all(np.isfinite(g)) and g[2] != 0.0
    vel = Velocity(0.0, 0.0, 0.2)
    for force in (scattering_force, dipole_force):
        f = force(atom, p, pt, vel=vel, mode="full")
        assert np.all(np.isfinite(f))


def test_total_field_with_subnormal_amplitudes_is_finite():
    """Next to the axis of a high-winding pair both amplitudes are
    subnormal, where dividing by max(|U1|, |U2|) as a complex number would
    overflow; the phase gradient and the forces stay finite there."""
    atom = sodium()
    w0 = 2.0 * WAVELENGTH
    zr = math.pi * w0 ** 2 / WAVELENGTH
    p = PairSpec(WAVELENGTH, w0, l1=31, l2=30, separation_d=zr)
    pt = CylPoint(rho=5e-16, phi=0.0, z=-2.5 * zr)
    u_max = max(abs(mode_amplitude(p.beam1, pt)), abs(mode_amplitude(p.beam2, pt)))
    assert 0.0 < u_max < np.finfo(float).tiny
    g = phase_gradient(p, pt)
    assert np.all(np.isfinite(g)) and g[2] != 0.0
    for vel in (None, Velocity(0.0, 0.0, 0.2)):
        for force in (scattering_force, dipole_force):
            f = force(atom, p, pt, vel=vel, mode="full")
            assert np.all(np.isfinite(f))


def test_dipole_potential_sign():
    # red detuning pulls toward intensity maxima: negative well at the ring
    atom = sodium(delta0=-2.0 * GAMMA, rabi=0.5 * GAMMA)
    p = pair(l1=1)
    rho0 = central_ring_radius(p)
    v_ring = dipole_potential(atom, p, CylPoint(rho=rho0, phi=0.0, z=0.0))
    assert v_ring < 0.0
    blue = sodium(delta0=+2.0 * GAMMA, rabi=0.5 * GAMMA)
    assert dipole_potential(blue, p, CylPoint(rho=rho0, phi=0.0, z=0.0)) > 0.0


def test_torque_matches_azimuthal_force():
    atom = sodium()
    p = pair(l1=2)
    rho0 = central_ring_radius(p)
    f = scattering_force(atom, p, CylPoint(rho=rho0, phi=0.0, z=0.0), mode="reduced")
    assert torque_axial(atom, p) == pytest.approx(rho0 * f[1], rel=1e-12)
    assert torque_axial(atom, pair(l1=0)) == 0.0
    # negative winding spins the other way
    assert torque_axial(atom, pair(l1=-2)) == pytest.approx(-torque_axial(atom, p), rel=1e-12)


def test_central_ring_radius_scaling():
    p0 = pair(l1=2, d_frac=0.0)
    w0 = p0.beam1.waist_w0
    assert central_ring_radius(p0) == pytest.approx(w0, rel=1e-12)
    p2 = pair(l1=2, d_frac=2.0)
    assert central_ring_radius(p2) == pytest.approx(w0 * math.sqrt(2.0), rel=1e-12)
    assert central_ring_radius(pair(l1=0)) == 0.0


def test_ferris_rate_and_lift_speed():
    dw = 2.0 * math.pi * 1000.0
    p = pair(l1=2, d_frac=0.0, delta_omega=dw)
    assert ferris_rate(p) == pytest.approx(dw / 4.0, rel=1e-12)
    assert lift_speed(p) == pytest.approx(1000.0 * WAVELENGTH / 2.0, rel=1e-12)
    assert lift_speed(p) == pytest.approx(2.9458e-4, rel=1e-6)
    with pytest.raises(DegenerateGeometryError):
        ferris_rate(pair(l1=1, l2=-1, delta_omega=dw))


def test_forces_vectorize():
    atom = sodium()
    p = pair(l1=1)
    rho0 = central_ring_radius(p)
    z = np.linspace(-1e-5, 1e-5, 7)
    pts = CylPoint(rho=np.full_like(z, rho0), phi=np.zeros_like(z), z=z)
    f = scattering_force(atom, p, pts, mode="reduced")
    assert np.shape(f[2]) == (7,)
    singles = [scattering_force(atom, p, CylPoint(rho=rho0, phi=0.0, z=zz), mode="reduced")[2]
               for zz in z]
    np.testing.assert_allclose(f[2], singles, rtol=1e-12, atol=1e-300)
    # on a line (scalar rho and phi, three z) both forces, the one not asked
    # for too, take the points' broadcast shape after the component axis
    line = CylPoint(rho=rho0, phi=0.0, z=z[:3])
    for model in ("reduced", "full"):
        assert [np.shape(g) for g in _forces(atom, p, line, None, model, 0.0, True, False)] \
            == [(3, 3), (3, 3)]


def test_spring_sweep_is_the_per_d_calls():
    """Each row of spring_sweep is d, spring_constant_k0 and
    -axial_force_slope on the central ring of the pair at that d, bit for
    bit; the pair's other settings (here l2 and amp2) carry over."""
    atom = sodium()
    base = pair(l1=2, l2=3, amp2=0.8)
    d_values = np.linspace(0.0, 3.0 * base.beam1.rayleigh_range, 7)
    want = []
    for d in d_values:
        p = PairSpec(WAVELENGTH, 8e-6, l1=2, l2=3, amp2=0.8, separation_d=float(d))
        want.append((d, spring_constant_k0(atom, p),
                     -axial_force_slope(atom, p, central_ring_radius(p))))
    rows = spring_sweep(atom, base, d_values)
    assert rows.shape == (7, 3)
    assert rows.tobytes() == np.array(want).tobytes()
