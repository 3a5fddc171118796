"""Properties checked over generated beams, pairs and points.

Beams cover |l| <= 80, p <= 3, both directions and focal planes off the
origin; points come as Python floats, as 1-D arrays and as the separable
(1, n) rho row and (m, 1) z column the map kernel passes, and include points
on and next to the axis (rho <= AXIS_RHO).
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vortexlattice.atom_forces import (AtomSpec, Velocity, _forces, dipole_force,
                                       phase_gradient, scattering_force)
from vortexlattice.constants import HBAR
from vortexlattice.lg_mode import (AXIS_RHO, BeamSpec, CylPoint, laguerre_poly,
                                   mode_amplitude, mode_jet, mode_phase, waist_at)
from vortexlattice.errors import DarkPointError, VortexLatticeError
from vortexlattice.ring_analysis import find_rings
from vortexlattice.superpose import (BLOCK_POINTS, GridSpec, PairSpec, amplitude_map,
                                     intensity_map, pair_complex, total_amplitude)

WAVELENGTH = 589.16e-9
GAMMA = 2.0 * math.pi * 10.01e6
ATOM = AtomSpec(mass=3.8175e-26, gamma=GAMMA, detuning0=0.5 * GAMMA, rabi_omega0=GAMMA)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

signs = st.sampled_from([1, -1])
unit = st.floats(0.0, 1.0)
# radii on the axis or just off it
axis_rho = st.sampled_from([0.0, 0.5 * AXIS_RHO, AXIS_RHO, 2.0 * AXIS_RHO])


@st.composite
def beams(draw):
    w0 = draw(st.floats(2.0, 12.0)) * WAVELENGTH
    zr = math.pi * w0 ** 2 / WAVELENGTH
    return BeamSpec(wavelength=WAVELENGTH, waist_w0=w0,
                    winding_l=draw(st.integers(-80, 80)),
                    radial_p=draw(st.integers(0, 3)),
                    direction=draw(signs),
                    focal_z=draw(signs) * draw(st.floats(0.05, 2.0)) * zr,
                    amp_scale=draw(st.floats(0.1, 3.0)),
                    azimuthal_sign=draw(signs))


@st.composite
def points(draw, rho_max, z_lo, z_hi):
    """A CylPoint with rho in [0, rho_max] and z in [z_lo, z_hi]; scalar,
    1-D, or separable (rho a (1, n) row, z an (m, 1) column)."""
    rho = unit.map(lambda f: f * rho_max) | axis_rho
    phi = st.floats(-math.pi, math.pi)
    z = unit.map(lambda f: z_lo + f * (z_hi - z_lo))
    form = draw(st.sampled_from(["scalar", "array", "separable"]))
    if form == "scalar":
        return CylPoint(rho=draw(rho), phi=draw(phi), z=draw(z))
    n = draw(st.integers(1, 6))
    rhos = np.array(draw(st.lists(rho, min_size=n, max_size=n)))
    if form == "array":
        return CylPoint(rho=rhos, phi=np.array(draw(st.lists(phi, min_size=n, max_size=n))),
                        z=np.array(draw(st.lists(z, min_size=n, max_size=n))))
    m = draw(st.integers(1, 4))
    zs = np.array(draw(st.lists(z, min_size=m, max_size=m)))
    return CylPoint(rho=rhos[None, :], phi=draw(phi), z=zs[:, None])


@st.composite
def beams_and_points(draw):
    b = draw(beams())
    zr = b.rayleigh_range
    rho_max = (math.sqrt(0.5 * abs(b.winding_l) + b.radial_p) + 3.0) * waist_at(b, 3.0 * zr)
    pt = draw(points(rho_max, b.focal_z - 3.0 * zr, b.focal_z + 3.0 * zr))
    return b, pt


@st.composite
def pairs_and_points(draw, symmetric=False):
    """A counter-propagating pair and points spanning its ring stack; a
    symmetric pair has l2 = l1, equal amplitudes and no offsets."""
    w0 = draw(st.floats(2.0, 12.0)) * WAVELENGTH
    zr = math.pi * w0 ** 2 / WAVELENGTH
    l1 = draw(st.integers(-80, 80))
    amp1 = draw(st.floats(0.1, 3.0))
    if symmetric:
        l2, amp2, dw, dk = l1, amp1, 0.0, 0.0
    else:
        l2, amp2 = draw(st.integers(-80, 80)), draw(st.floats(0.1, 3.0))
        dw, dk = draw(st.floats(0.0, 1e6)), draw(st.floats(-50.0, 50.0))
    d = draw(st.floats(0.0, 3.0)) * zr
    pair = PairSpec.counterpropagating(WAVELENGTH, w0, l1=l1, l2=l2, separation_d=d,
                                       radial_p=draw(st.integers(0, 3)), amp1=amp1,
                                       amp2=amp2, delta_omega=dw, delta_k=dk)
    z_hi = 0.5 * d + 2.0 * zr
    w_far = w0 * math.sqrt(1.0 + (z_hi / zr) ** 2)
    rho_max = (math.sqrt(0.5 * max(abs(l1), abs(l2)) + pair.beam1.radial_p) + 3.0) * w_far
    return pair, draw(points(rho_max, -z_hi, z_hi)), draw(st.floats(0.0, 1e-6))


# ------------------------------------------------------------- one mode

@SETTINGS
@given(case=beams_and_points(), t=st.sampled_from([0.0, 3.3e-9]))
def test_mode_jet_equals_separate_calls(case, t):
    """mode_jet's U and Theta are exactly mode_amplitude's and mode_phase's,
    and its gradients are finite and do not depend on t."""
    b, pt = case
    u, theta, grad_u, grad_theta = mode_jet(b, pt, t)
    np.testing.assert_array_equal(u, mode_amplitude(b, pt), strict=True)
    np.testing.assert_array_equal(theta, mode_phase(b, pt, t=t), strict=True)
    _, _, want_u, want_theta = mode_jet(b, pt)
    np.testing.assert_array_equal(grad_u, want_u, strict=True)
    np.testing.assert_array_equal(grad_theta, want_theta, strict=True)
    assert np.all(np.isfinite(grad_u)) and np.all(np.isfinite(grad_theta))


@SETTINGS
@given(case=beams_and_points())
def test_mode_amplitude_equals_product_formula(case):
    """The amplitude is exactly the product formula with w from waist_at and
    L_p^|l| multiplied in, also for p = 0 where L_0 = 1 is not formed."""
    b, pt = case
    l = abs(b.winding_l)
    zl = b.direction * (np.asarray(pt.z) - b.focal_z)
    w = waist_at(b, zl)
    rho = np.asarray(pt.rho)
    arg = 2.0 * rho * rho / (w * w)
    radial = (np.sqrt(2.0) * rho / w) ** l * laguerre_poly(b.radial_p, l, arg) \
        * np.exp(-0.5 * arg)
    want = b.amp_scale * b.norm * radial / np.sqrt(1.0 + (zl / b.rayleigh_range) ** 2)
    np.testing.assert_array_equal(mode_amplitude(b, pt), want, strict=True)


@SETTINGS
@given(case=beams_and_points())
def test_reduced_phase_gradient_closed_form(case):
    """The reduced gradient is exactly (0, l / rho, direction * k) stacked to
    (3,) + shape(rho), with the azimuthal entry 0 for rho <= AXIS_RHO."""
    b, pt = case
    rho = np.asarray(pt.rho)
    on_axis = rho <= AXIS_RHO
    g_phi = np.where(on_axis, 0.0, b.winding_l / np.where(on_axis, 1.0, rho))
    g_z = np.broadcast_to(float(b.direction) * b.wavenumber, g_phi.shape)
    want = np.stack(np.broadcast_arrays(np.zeros_like(g_phi), g_phi, g_z))
    np.testing.assert_array_equal(phase_gradient(b, pt, mode="reduced"), want, strict=True)


@SETTINGS
@given(old=beams(), new=beams())
def test_cached_beam_constants_follow_replace(old, new):
    """A spec built by dataclasses.replace computes its own wavenumber,
    Rayleigh range and normalisation, not the ones its source cached."""
    cached = (old.wavenumber, old.rayleigh_range, old.norm)
    changed = dataclasses.replace(old, wavelength=new.wavelength, waist_w0=new.waist_w0,
                                  winding_l=new.winding_l, radial_p=new.radial_p)
    fresh = BeamSpec(new.wavelength, new.waist_w0, new.winding_l, new.radial_p)
    assert (changed.wavenumber, changed.rayleigh_range, changed.norm) == \
        (fresh.wavenumber, fresh.rayleigh_range, fresh.norm)
    assert (old.wavenumber, old.rayleigh_range, old.norm) == cached
    assert dataclasses.replace(old, waist_w0=2.0 * old.waist_w0).rayleigh_range \
        == math.pi * (2.0 * old.waist_w0) ** 2 / old.wavelength


# ------------------------------------------------------------- pairs

@SETTINGS
@given(case=pairs_and_points())
def test_pair_complex_matches_total_amplitude(case):
    """|pair_complex|^2 equals total_amplitude^2 to 1e-12 of (|U1| + |U2|)^2.

    The squares are compared because total_amplitude takes a square root of
    U1^2 + U2^2 + 2 U1 U2 cos(Theta1 - Theta2): near a dark point a rounding
    error of eps * S^2 in that sum becomes sqrt(eps) * S in the amplitude."""
    pair, pt, t = case
    amp = total_amplitude(pair, pt, t=t)
    scale = np.abs(mode_amplitude(pair.beam1, pt)) + np.abs(mode_amplitude(pair.beam2, pt))
    err = np.abs(np.abs(pair_complex(pair, pt, t=t)) ** 2 - amp ** 2)
    assert np.all(np.isfinite(amp))
    assert np.all(err <= 1e-12 * scale ** 2)


@SETTINGS
@given(case=pairs_and_points())
def test_total_amplitude_within_envelope(case):
    pair, pt, t = case
    u1 = np.abs(mode_amplitude(pair.beam1, pt))
    u2 = np.abs(mode_amplitude(pair.beam2, pt))
    amp = total_amplitude(pair, pt, t=t)
    assert np.all(amp <= u1 + u2)
    assert np.all(amp >= np.abs(u1 - u2))


@SETTINGS
@given(case=pairs_and_points(symmetric=True))
def test_axial_force_odd_in_z_for_symmetric_pairs(case):
    """For l2 = l1, equal amplitudes and no offsets, beam 1 at (phi, -z) is
    beam 2 at (-phi, z), so f_z is odd under (phi, z) -> (-phi, -z) in both
    force models.  The reduced forces do not depend on phi, so there f_z is
    odd in z at fixed phi as well; the total field has spokes, so it is not."""
    pair, pt, _ = case
    phi, z = np.asarray(pt.phi), np.asarray(pt.z)
    scale = 1e-12 * HBAR * GAMMA * pair.beam1.wavenumber
    for mode, mirrored_phi in (("reduced", phi), ("reduced", -phi), ("full", -phi)):
        here = scattering_force(ATOM, pair, pt, mode=mode).f_z
        there = scattering_force(ATOM, pair, CylPoint(rho=pt.rho, phi=mirrored_phi, z=-z),
                                 mode=mode).f_z
        assert np.all(np.abs(here + there) <= scale)


speeds = st.floats(-2.0, 2.0)
velocities = st.none() | st.builds(Velocity, speeds, speeds, speeds)


@SETTINGS
@given(case=pairs_and_points(), vel=velocities, model=st.sampled_from(["reduced", "full"]))
def test_shared_forces_equal_scalar_calls_and_wrappers(case, vel, model):
    """_forces on broadcast points equals its scalar calls point by point, to
    1e-12 of each force's magnitude (a component that cancels down to
    rounding, such as f_phi of a pair with l1 = 0, differs in that noise),
    and its two outputs are scattering_force's and dipole_force's.  Under
    velocity coupling a dark point (the axis, the far field) makes the full
    model's dipole force raise, while its scattering force is still given."""
    pair, pt, t = case
    both = [scattering_force, dipole_force]
    try:
        got = _forces(ATOM, pair, pt, vel, model, t, True, True)
    except DarkPointError:
        assert model == "full" and vel is not None
        with pytest.raises(DarkPointError):
            dipole_force(ATOM, pair, pt, vel=vel, mode=model, t=t)
        both = [scattering_force]
        got = (_forces(ATOM, pair, pt, vel, model, t, True, False)[0],)
    for force, f in zip(both, got):
        np.testing.assert_array_equal(
            f.as_array(), force(ATOM, pair, pt, vel=vel, mode=model, t=t).as_array(),
            strict=True)
    rho, phi, z = np.broadcast_arrays(pt.rho, pt.phi, pt.z)
    for idx in np.ndindex(rho.shape):
        one = CylPoint(rho=float(rho[idx]), phi=float(phi[idx]), z=float(z[idx]))
        for force, f in zip(both, got):
            want = force(ATOM, pair, one, vel=vel, mode=model, t=t).as_array()
            here = np.broadcast_to(f.as_array(), (3,) + rho.shape)[(slice(None),) + idx]
            assert np.all(np.abs(here - want) <= 1e-12 * np.linalg.norm(want))


# ------------------------------------------------------------- maps

@st.composite
def lattices(draw):
    """A pair with generated l, p, d and delta_omega, the rho_z region
    find_rings accepts for it (between the foci, at its resolution limits)
    and a map grid, rho_z or xy; each grid holds at least three row blocks
    of BLOCK_POINTS points."""
    w0 = draw(st.floats(3.0, 6.0)) * WAVELENGTH
    l, p = draw(st.integers(-12, 12)), draw(st.integers(0, 2))
    d = draw(st.floats(2.0, 30.0)) * WAVELENGTH
    pair = PairSpec.counterpropagating(WAVELENGTH, w0, l1=l, separation_d=d,
                                       radial_p=p, delta_omega=draw(st.floats(0.0, 1e7)))
    z_half = 0.5 * d + WAVELENGTH
    rho_max = (math.sqrt(0.5 * abs(l) + p) + 2.0) * waist_at(pair.beam1, d)
    n_rho = math.ceil(rho_max / (w0 / 100.0)) + 1
    n_z = max(math.ceil(2.0 * z_half / (WAVELENGTH / 20.0)) + 1, 3 * BLOCK_POINTS // n_rho + 1)
    time = draw(st.floats(0.0, 1e-6))
    region = GridSpec.rho_z(rho_max=rho_max, n_rho=n_rho, z_min=-z_half, z_max=z_half,
                            n_z=n_z, phi=draw(st.floats(-math.pi, math.pi)), time=time)
    if draw(st.booleans()):
        grid = region
    else:
        grid = GridSpec.xy(half_width=rho_max, n=math.ceil(math.sqrt(3 * BLOCK_POINTS)) + 1,
                           z=draw(st.floats(-1.0, 1.0)) * z_half, time=time)
    return pair, region, grid


def _rings_outcome(pair, region, n_threads):
    """find_rings' result, or its error, in a form compared exactly (repr
    keeps every float's bits, and NaN equals NaN)."""
    try:
        return repr(find_rings(pair, region, n_threads=n_threads))
    except VortexLatticeError as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(case=lattices())
def test_maps_and_rings_do_not_depend_on_thread_count(case):
    pair, region, grid = case
    for g in (region, grid):
        assert g.axis2.size >= 3 * (BLOCK_POINTS // g.axis1.size)
    assert np.array_equal(amplitude_map(pair, grid, n_threads=1),
                          amplitude_map(pair, grid, n_threads=3))
    one, three = intensity_map(pair, grid, n_threads=1), intensity_map(pair, grid, n_threads=3)
    assert np.array_equal(one.amplitude, three.amplitude)
    assert np.array_equal(one.phase, three.phase, equal_nan=True)
    assert np.array_equal(one.intensity, three.intensity)
    assert _rings_outcome(pair, region, 1) == _rings_outcome(pair, region, 3)
