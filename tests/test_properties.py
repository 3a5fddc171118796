"""Properties checked over generated beams, pairs and points.

Beams cover |l| <= 80, p <= 3, both directions and focal planes off the
origin; points come as Python floats, as 1-D arrays, as the separable
(1, n) rho row and (m, 1) z column the map kernel passes, and as a line
(scalar rho and phi, 1-D z), and include points on and next to the axis
(rho <= AXIS_RHO).  The mode is also checked against its product formula
evaluated by mpmath at 50 digits, for |l| up to 1000 and p up to 10.
"""

import dataclasses
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vortexlattice.atom_forces import (FORCE_MODELS, AtomSpec, Velocity, _field_terms, _forces,
                                       _pair_gradient, _phase_slope, _reduced_gradient,
                                       dipole_force, dipole_potential, scattering_force,
                                       spring_constant_k0)
from test_superpose import full_grid_points
from vortexlattice import superpose
from vortexlattice.constants import HBAR
from vortexlattice.lg_mode import (AXIS_RHO, BeamSpec, CylPoint, _local_z, _phase_parts,
                                   mode_amplitude, mode_jet, mode_phase, waist_at)
from vortexlattice.errors import DarkPointError, DegenerateGeometryError, VortexLatticeError
from vortexlattice.ring_analysis import find_rings
from vortexlattice.superpose import (BLOCK_POINTS, DARK_FRACTION, GridSpec, PairSpec,
                                     pair_complex, total_amplitude, total_phase)

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
                    amp_scale=draw(st.floats(0.1, 3.0)))


@st.composite
def points(draw, rho_max, z_lo, z_hi):
    """A CylPoint with rho in [0, rho_max] and z in [z_lo, z_hi]; scalar,
    1-D, separable (rho a (1, n) row, z an (m, 1) column) or a line (scalar
    rho and phi, z 1-D)."""
    rho = unit.map(lambda f: f * rho_max) | axis_rho
    phi = st.floats(-math.pi, math.pi)
    z = unit.map(lambda f: z_lo + f * (z_hi - z_lo))
    form = draw(st.sampled_from(["scalar", "array", "separable", "line"]))
    if form == "scalar":
        return CylPoint(rho=draw(rho), phi=draw(phi), z=draw(z))
    n = draw(st.integers(1, 6))
    if form == "line":
        return CylPoint(rho=draw(rho), phi=draw(phi),
                        z=np.array(draw(st.lists(z, min_size=n, max_size=n))))
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
def pairs(draw, symmetric=False):
    """(pair, rho_max, z_hi): a counter-propagating pair and the extent of
    its ring stack, rho <= rho_max and |z| <= z_hi; a symmetric pair has
    l2 = l1, equal amplitudes and no offsets."""
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
    pair = PairSpec(WAVELENGTH, w0, l1=l1, l2=l2, separation_d=d,
                    radial_p=draw(st.integers(0, 3)), amp1=amp1,
                    amp2=amp2, delta_omega=dw, delta_k=dk)
    z_hi = 0.5 * d + 2.0 * zr
    w_far = w0 * math.sqrt(1.0 + (z_hi / zr) ** 2)
    rho_max = (math.sqrt(0.5 * max(abs(l1), abs(l2)) + pair.beam1.radial_p) + 3.0) * w_far
    return pair, rho_max, z_hi


@st.composite
def pairs_and_points(draw, symmetric=False):
    """A pair from ``pairs``, points spanning its ring stack and a time."""
    pair, rho_max, z_hi = draw(pairs(symmetric))
    return pair, draw(points(rho_max, -z_hi, z_hi)), draw(st.floats(0.0, 1e-6))


# ------------------------------------------------------------- the point

@st.composite
def coordinates(draw, lo, n, m):
    """A coordinate in [lo, 10] as a Python float, an int, an np.float64, a
    0-d array, or a 1-D (n,) or 2-D (m, n) or (m, 1) array."""
    value = st.floats(lo, 10.0)
    form = draw(st.sampled_from(["float", "int", "float64", "0-d", "1-D", "2-D", "column"]))
    if form == "int":
        return draw(st.integers(int(lo), 10))
    if form in ("float", "float64", "0-d"):
        return {"float": float, "float64": np.float64, "0-d": np.array}[form](draw(value))
    shape = {"1-D": (n,), "2-D": (m, n), "column": (m, 1)}[form]
    size = math.prod(shape)
    return np.array(draw(st.lists(value, min_size=size, max_size=size))).reshape(shape)


@SETTINGS
@given(data=st.data(), n=st.integers(1, 4), m=st.integers(1, 3), k=st.integers(2, 3))
def test_point_stores_each_coordinate_once(data, n, m, k):
    """Each coordinate is stored as a Python float (exactly that type, from
    a float, an int, a numpy scalar or a 0-d array), or as the caller's own
    ndarray when it has ndim >= 1, with its values kept; shape is their
    broadcast shape, () for a point of scalars, and follows a replaced
    coordinate."""
    rho, phi, z = (data.draw(coordinates(lo, n, m)) for lo in (0.0, -10.0, -10.0))
    pt = CylPoint(rho, phi, z)
    assert pt.shape == np.broadcast(rho, phi, z).shape
    if not any(np.ndim(c) for c in (rho, phi, z)):
        assert pt.shape == ()
    for given_value, stored in zip((rho, phi, z), (pt.rho, pt.phi, pt.z)):
        if isinstance(given_value, np.ndarray) and given_value.ndim:
            assert stored is given_value
        else:
            assert type(stored) is float
        np.testing.assert_array_equal(stored, given_value)
    new_z = np.zeros((k, 1, 1))
    assert dataclasses.replace(pt, z=new_z).shape == np.broadcast(rho, phi, new_z).shape


# ------------------------------------------------------------- one mode

@SETTINGS
@given(case=beams_and_points())
def test_mode_jet_equals_separate_calls(case):
    """mode_jet's U and Theta are exactly mode_amplitude's and mode_phase's,
    and its gradients are finite."""
    b, pt = case
    u, theta, grad_u, grad_theta = mode_jet(b, pt)
    np.testing.assert_array_equal(u, mode_amplitude(b, pt), strict=True)
    np.testing.assert_array_equal(theta, mode_phase(b, pt), strict=True)
    assert np.all(np.isfinite(grad_u)) and np.all(np.isfinite(grad_theta))


def mp_mode(b, rho, z):
    """(U, dU/drho, dU/dz) of the product formula
    amp_scale C_lp (1 + u^2)^(-1/2) x^(|l|/2) L_p^|l|(x) e^(-x/2),
    x = 2 rho^2 / w^2, at 50 digits from the beam's float constants, as
    floats; the derivatives by mpmath.diff, dU/drho only off the axis."""
    l, p = abs(b.winding_l), b.radial_p
    with mpmath.workdps(50):
        w0, zr, f = (mpmath.mpf(v) for v in (b.waist_w0, b.rayleigh_range, b.focal_z))
        c = b.amp_scale * mpmath.sqrt(mpmath.factorial(p) / mpmath.factorial(p + l))

        def u(r, zz):
            a = 1 + (b.direction * (zz - f) / zr) ** 2
            x = 2 * r * r / (w0 * w0 * a)
            return c / mpmath.sqrt(a) * mpmath.sqrt(x) ** l * mpmath.laguerre(p, l, x) \
                * mpmath.exp(-x / 2)

        r, zz = mpmath.mpf(rho), mpmath.mpf(z)
        d_rho = mpmath.diff(lambda t: u(t, zz), r) if rho else mpmath.mpf(0)
        return float(u(r, zz)), float(d_rho), float(mpmath.diff(lambda t: u(r, t), zz))


def assert_oracle_close(got, want, size):
    """|got - want| <= 1e-12 max(size, 1e-290): relative to size where the
    value is a normal double, absolute below that."""
    assert abs(got - want) <= 1e-12 * max(size, 1e-290), (got, want, size)


@SETTINGS
@given(case=beams_and_points())
def test_mode_amplitude_equals_product_formula(case):
    """The amplitude is the product formula with L_p^|l| multiplied in
    (also for p = 0, where L_0 = 1 is not formed) to 1e-12, the formula
    evaluated by mpmath at 50 digits."""
    b, pt = case
    shape = np.broadcast(pt.rho, pt.phi, pt.z).shape
    got = np.broadcast_to(mode_amplitude(b, pt), shape)
    for i, (rho, z) in enumerate(zip(np.broadcast_to(pt.rho, shape).flat,
                                     np.broadcast_to(pt.z, shape).flat)):
        want = mp_mode(b, rho, z)[0]
        assert_oracle_close(got.flat[i], want, abs(want))


# oracle radii, in ring radii w(z) sqrt(max(|l|, 1) / 2)
ORACLE_RADII = np.array([0.0, 0.5, 1.0, 1.5, 3.0, 10.0])


@pytest.mark.parametrize("p", [0, 3, 10])
@pytest.mark.parametrize("l", [0, 1, 80, 250, 600, 1000])
def test_mode_and_jet_match_the_mpmath_oracle(l, p):
    """mode_amplitude and mode_jet's U and grad U against mp_mode, from the
    axis to 10 ring radii, in the focal plane and 0.7 z_R from it, for both
    directions.  U is within 1e-12 of the oracle where |U| > 1e-290 and
    exactly 0 on the axis for l != 0; the jet's U is mode_amplitude's.

    Each gradient component is a sum of terms of size |U| (|l| + x + 1) / rho
    (radial) and |U| (|l| + x + 1) |z_local| / (z_local^2 + z_R^2) (axial),
    x = 2 rho^2 / w^2, which cancel where the component has a zero, as on
    the ring; its error is measured against the component plus that size."""
    for sign in (1, -1):
        b = BeamSpec(wavelength=WAVELENGTH, waist_w0=3e-6, winding_l=sign * l, radial_p=p,
                     direction=sign, focal_z=-2e-6 * sign, amp_scale=1.7)
        zr = b.rayleigh_range
        for zeta in (0.0, 0.7):
            zl = zeta * zr
            z = b.focal_z + b.direction * zl
            w2 = b.waist_w0 ** 2 * (1.0 + zeta * zeta)
            rho = math.sqrt(0.5 * max(l, 1) * w2) * ORACLE_RADII
            pt = CylPoint(rho=rho, phi=0.3, z=z)
            u = mode_amplitude(b, pt)
            u_jet, _, grad, _ = mode_jet(b, pt)
            np.testing.assert_array_equal(u_jet, u, strict=True)
            for i, r in enumerate(rho):
                want, d_rho, d_z = mp_mode(b, r, z)
                if l and not r:
                    assert u[i] == 0.0 and grad[2, i] == 0.0
                    continue
                assert_oracle_close(u[i], want, abs(want))
                terms = abs(want) * (l + 2.0 * r * r / w2 + 1.0)
                if r:
                    assert_oracle_close(grad[0, i], d_rho, abs(d_rho) + terms / r)
                assert_oracle_close(grad[2, i], d_z,
                                    abs(d_z) + terms * zl / (zl * zl + zr * zr))


@st.composite
def wide_pairs_and_points(draw):
    """A pair with |l1|, |l2| <= 1000 and p <= 40, either beam possibly
    dark (amp_scale 0), and points from the axis out to 0.5-20 ring radii,
    within 3 z_R of either focus."""
    w0 = draw(st.floats(2.0, 12.0)) * WAVELENGTH
    zr = math.pi * w0 ** 2 / WAVELENGTH
    l1, l2 = draw(st.integers(-1000, 1000)), draw(st.integers(-1000, 1000))
    p = draw(st.integers(0, 40))
    amps = st.just(0.0) | st.floats(0.1, 3.0)
    d = draw(st.floats(0.0, 3.0)) * zr
    pair = PairSpec(WAVELENGTH, w0, l1=l1, l2=l2, separation_d=d,
                    radial_p=p, amp1=draw(amps), amp2=draw(amps))
    z_hi = 0.5 * d + 3.0 * zr
    ring = math.sqrt(0.5 * max(abs(l1), abs(l2), 1) + p) * waist_at(pair.beam1, d + 3.0 * zr)
    pt = draw(points(draw(st.floats(0.5, 20.0)) * ring, -z_hi, z_hi))
    return pair, pt, draw(st.floats(0.0, 1e-6))


@SETTINGS
@given(case=wide_pairs_and_points())
def test_amplitude_jet_and_total_amplitude_are_finite_to_l_1000(case):
    """For every |l| <= 1000 and p <= 40 the amplitude, every part of the
    jet and the total amplitude are finite, and nothing warns (warnings are
    errors): the log-space envelope neither overflows nor forms inf * 0.
    A dark beam (amp_scale 0) gives exactly 0, with no log(0)."""
    pair, pt, t = case
    for b in (pair.beam1, pair.beam2):
        u = mode_amplitude(b, pt)
        assert np.all(np.isfinite(u))
        assert b.amp_scale or not np.any(u)
        for part in mode_jet(b, pt):
            assert np.all(np.isfinite(part))
    assert np.all(np.isfinite(total_amplitude(pair, pt, t=t)))


@SETTINGS
@given(case=wide_pairs_and_points(), vel=st.none() | st.builds(
    Velocity, *[st.floats(-10.0, 10.0)] * 3), dipole_atom=st.booleans())
def test_forces_and_spring_constant_are_finite_to_l_1000(case, vel, dipole_atom):
    """Over the same pairs and points, both force models give finite
    scattering and dipole forces, for scalar and array points and with and
    without velocity coupling, and spring_constant_k0 is finite.  The only
    refusals are typed: both beams dark (DegenerateGeometryError) and the
    full model's Doppler-shifted dipole force at a dark point
    (DarkPointError)."""
    pair, pt, t = case
    atom = dataclasses.replace(ATOM, detuning0=-2.0 * GAMMA) if dipole_atom else ATOM
    if not (pair.amp1 or pair.amp2):
        with pytest.raises(DegenerateGeometryError):
            _forces(atom, pair, pt, vel, "reduced", t, True, True)
        with pytest.raises(DegenerateGeometryError):
            spring_constant_k0(atom, pair)
        return
    assert math.isfinite(spring_constant_k0(atom, pair))
    for model in ("reduced", "full"):
        try:
            forces = _forces(atom, pair, pt, vel, model, t, True, True)
        except DarkPointError:
            assert model == "full" and vel is not None
            forces = _forces(atom, pair, pt, vel, model, t, True, False)
        for f in forces:
            assert np.all(np.isfinite(f))


@SETTINGS
@given(case=beams_and_points())
def test_reduced_phase_gradient_closed_form(case):
    """The reduced gradient is exactly the triple (0, l / rho, direction * k),
    which broadcasts to the shape of (rho, phi, z), with the azimuthal entry
    0 for rho <= AXIS_RHO."""
    b, pt = case
    shape = np.broadcast(pt.rho, pt.phi, pt.z).shape
    rho = np.broadcast_to(pt.rho, shape)
    on_axis = rho <= AXIS_RHO
    g_phi = np.where(on_axis, 0.0, b.winding_l / np.where(on_axis, 1.0, rho))
    g_z = np.full(shape, float(b.direction) * b.wavenumber)
    want = np.stack([np.zeros(shape), g_phi, g_z])
    got = _reduced_gradient(b, pt)
    assert len(got) == 3
    np.testing.assert_array_equal(np.stack([np.broadcast_to(g, shape) for g in got]), want,
                                  strict=True)


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
    """|pair_complex|^2 equals total_amplitude^2 to 1e-12 of (|U1| + |U2|)^2,
    and the amplitude is finite."""
    pair, pt, t = case
    amp = total_amplitude(pair, pt, t=t)
    scale = np.abs(mode_amplitude(pair.beam1, pt)) + np.abs(mode_amplitude(pair.beam2, pt))
    err = np.abs(np.abs(pair_complex(pair, pt, t=t)) ** 2 - amp ** 2)
    assert np.all(np.isfinite(amp))
    assert np.all(err <= 1e-12 * scale ** 2)


@SETTINGS
@given(case=pairs_and_points())
def test_total_phase_is_the_angle_of_pair_complex(case):
    """total_phase is np.angle(pair_complex) bit for bit, and NaN exactly at
    the dark points |E| <= DARK_FRACTION * max(|U1|, |U2|)."""
    pair, pt, t = case
    e = pair_complex(pair, pt, t=t)
    u_max = np.maximum(np.abs(mode_amplitude(pair.beam1, pt)),
                       np.abs(mode_amplitude(pair.beam2, pt)))
    dark = np.abs(e) <= DARK_FRACTION * u_max
    phase = np.asarray(total_phase(pair, pt, t=t))
    assert np.array_equal(np.isnan(phase), dark)
    assert np.array_equal(phase[~dark], np.angle(e)[~dark])


@SETTINGS
@given(case=pairs_and_points())
def test_total_amplitude_within_envelope(case):
    pair, pt, t = case
    u1 = np.abs(mode_amplitude(pair.beam1, pt))
    u2 = np.abs(mode_amplitude(pair.beam2, pt))
    amp = total_amplitude(pair, pt, t=t)
    assert np.all(amp <= u1 + u2)
    assert np.all(amp >= np.abs(u1 - u2))


@st.composite
def combine_cases(draw):
    """A pair from ``pairs``, possibly with one beam dark, a time t > 0 and
    points spanning its ring stack in one of four shapes: a scalar point, a
    separable (1, n) x (m, 1) block, scalar rho and z with a 1-D phi (U
    scalar, Theta an array), or 1-D arrays whose first rho is 0."""
    pair, rho_max, z_hi = draw(pairs())
    dark = draw(st.sampled_from([None, "amp1", "amp2"]))
    if dark is not None:
        pair = dataclasses.replace(pair, **{dark: 0.0})
    rho = unit.map(lambda f: f * rho_max) | axis_rho
    phi = st.floats(-math.pi, math.pi)
    z = unit.map(lambda f: (2.0 * f - 1.0) * z_hi)
    n = draw(st.integers(1, 6))

    def array(values, size):
        return np.array(draw(st.lists(values, min_size=size, max_size=size)))

    form = draw(st.sampled_from(["scalar", "separable", "phi", "flat"]))
    if form == "scalar":
        pt = CylPoint(rho=draw(rho), phi=draw(phi), z=draw(z))
    elif form == "separable":
        pt = CylPoint(rho=array(rho, n)[None, :], phi=draw(phi),
                      z=array(z, draw(st.integers(1, 4)))[:, None])
    elif form == "phi":
        pt = CylPoint(rho=draw(rho), phi=array(phi, n), z=draw(z))
    else:
        rhos = array(rho, n)
        rhos[0] = 0.0
        pt = CylPoint(rho=rhos, phi=array(phi, n), z=array(z, n))
    return pair, pt, draw(st.floats(1e-9, 1e-6))


def clamped_modulus(pair, pt, e):
    """|e| clamped into the envelope [||U1| - |U2||, |U1| + |U2|] of the
    pair's amplitudes at pt, in the order total_amplitude clamps."""
    a1 = np.abs(mode_amplitude(pair.beam1, pt))
    a2 = np.abs(mode_amplitude(pair.beam2, pt))
    return np.minimum(np.maximum(np.abs(e), np.abs(a1 - a2)), a1 + a2)[()]


@SETTINGS
@given(case=combine_cases())
def test_amplitude_combine_is_the_clamped_modulus_of_pair_complex(case):
    """total_amplitude is the clamped |pair_complex| bit for bit, with that
    value's type and the shape of the points."""
    pair, pt, t = case
    got = total_amplitude(pair, pt, t=t)
    want = clamped_modulus(pair, pt, pair_complex(pair, pt, t=t))
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want) == pt.shape
    assert np.array_equal(got, want)


@SETTINGS
@given(case=combine_cases())
def test_total_amplitude_is_the_modulus_the_force_model_reads(case):
    """The full force model's field, E from _pair_gradient, gives
    total_amplitude bit for bit once clamped: the full-model dipole
    potential and force read one field."""
    pair, pt, t = case
    e = _pair_gradient(pair, pt, t)[0]
    assert np.array_equal(total_amplitude(pair, pt, t=t), clamped_modulus(pair, pt, e))


@SETTINGS
@given(case=combine_cases())
def test_total_amplitude_matches_the_mpmath_modulus(case):
    """total_amplitude is within 4 eps (|U1| + |U2|) of
    |U1 e^{i Theta1} + U2 e^{i Theta2}| evaluated by mpmath at 50 digits
    from the same doubles U1, U2, Theta1 and Theta2, dark points included:
    the complex sum rounds each term by about eps |U|, and no cancellation
    of squares next to a dark point magnifies that."""
    pair, pt, t = case
    terms = np.broadcast_arrays(*superpose._pair_terms(pair, pt, t))
    got = np.broadcast_to(total_amplitude(pair, pt, t=t), terms[0].shape)
    eps = np.finfo(float).eps
    with mpmath.workdps(50):
        for idx in np.ndindex(got.shape):
            u1, u2, th1, th2 = (mpmath.mpf(float(x[idx])) for x in terms)
            want = float(abs(u1 * mpmath.expj(th1) + u2 * mpmath.expj(th2)))
            scale = abs(float(terms[0][idx])) + abs(float(terms[1][idx]))
            assert abs(got[idx] - want) <= 4.0 * eps * scale, (idx, got[idx], want)


def intensity_bound(pair, pt, t):
    """(bound, resolved): how far two roundings of the pair intensity
    I = U1^2 + U2^2 + 2 U1 U2 cos(Delta) from the same U1 and U2 may differ,
    and the points where that bound holds.

    Phase: A is the sum of |part| over the plane, azimuthal, Gouy and
    curvature parts of both beams and beam 2's offsets delta_k z and
    delta_omega t, so every intermediate of Delta (or of Theta1 and Theta2)
    is at most A.  Each side forms its phase in at most eight roundings of
    at most eps/2 * A, so the two phase differences part by at most 8 eps A,
    and |dI/dDelta| = 2 |U1 U2 sin Delta| <= 2 |U1 U2| makes that
    16 eps |U1 U2| A.  Magnitude: each side rounds its products, squares and
    sums at most eight times, by at most eps/2 * S, S = (|U1| + |U2|)^2,
    which is 8 eps S for both.  Where S <= 1e-250 the squares leave the
    normal range, and a bound relative to S does not hold."""
    eps = np.finfo(float).eps
    u1 = mode_amplitude(pair.beam1, pt)
    u2 = mode_amplitude(pair.beam2, pt)
    phase_scale = np.abs(pair.delta_k * pt.z) + abs(pair.delta_omega * t)
    for beam in (pair.beam1, pair.beam2):
        for part in _phase_parts(beam, _local_z(beam, pt.z), pt):
            phase_scale = phase_scale + np.abs(part)
    s = (np.abs(u1) + np.abs(u2)) ** 2
    return 16.0 * eps * np.abs(u1 * u2) * phase_scale + 8.0 * eps * s, s > 1e-250


@SETTINGS
@given(case=pairs_and_points())
def test_pair_intensity_is_the_square_of_pair_complex(case):
    """The ring finder's kernel, (U1 - U2)^2 + 4 U1 U2 cos^2(Delta / 2) with
    Delta built apart from Theta1 - Theta2, is |pair_complex|^2 within
    intensity_bound at points of every shape, the scalar point included."""
    pair, pt, t = case
    got = superpose._pair_intensity(pair, pt, t)
    bound, resolved = intensity_bound(pair, pt, t)
    err = np.abs(got - np.abs(pair_complex(pair, pt, t=t)) ** 2)
    assert np.shape(got) == pt.shape
    assert np.all(err[resolved] <= bound[resolved])


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
        here = scattering_force(ATOM, pair, pt, mode=mode)[2]
        there = scattering_force(ATOM, pair, CylPoint(rho=pt.rho, phi=mirrored_phi, z=-z),
                                 mode=mode)[2]
        assert np.all(np.abs(here + there) <= scale)


speeds = st.floats(-2.0, 2.0)
velocities = st.none() | st.builds(Velocity, speeds, speeds, speeds)


@SETTINGS
@given(case=pairs_and_points(), vel=velocities, model=st.sampled_from(["reduced", "full"]))
def test_shared_forces_equal_scalar_calls_and_wrappers(case, vel, model):
    """_forces on broadcast points equals its scalar calls point by point, to
    1e-12 of each force's largest component (a component that cancels down
    to rounding, such as f_phi of a pair with l1 = 0, differs in that noise),
    and its two outputs, shaped (3,) + the points' broadcast shape, are
    scattering_force's and dipole_force's.  Under
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
    rho, phi, z = np.broadcast_arrays(pt.rho, pt.phi, pt.z)
    for force, f in zip(both, got):
        assert f.shape == (3,) + rho.shape
        np.testing.assert_array_equal(f, force(ATOM, pair, pt, vel=vel, mode=model, t=t),
                                      strict=True)
    for idx in np.ndindex(rho.shape):
        one = CylPoint(rho=float(rho[idx]), phi=float(phi[idx]), z=float(z[idx]))
        for force, f in zip(both, got):
            want = force(ATOM, pair, one, vel=vel, mode=model, t=t)
            _assert_close(f[(slice(None),) + idx], want, 1e-12)


@st.composite
def dark_partner_pairs(draw):
    """A pair whose beam 1 or beam 2 has amp_scale 0, the lit beam, points
    spanning its ring stack, a time and a velocity (or None)."""
    pair, pt, t = draw(pairs_and_points())
    dark = draw(st.sampled_from(["amp1", "amp2"]))
    pair = dataclasses.replace(pair, **{dark: 0.0})
    lit = pair.beam2 if dark == "amp1" else pair.beam1
    return pair, lit, pt, t, draw(velocities)


def _single_beam_forces(beam, pt, vel, grad):
    """Scattering force, dipole force and potential of one beam alone, whose
    amp_scale sets the Rabi frequency, with the phase gradient ``grad``:
    F_sc = (hbar Gamma / 4) Omega^2 grad / D,
    F_dip = -(hbar / 2) Delta s^2 U grad(U) / D and
    V = (hbar Delta0 / 2) ln(1 + (Omega^2 / 2) / (Delta0^2 + Gamma^2 / 4)),
    with s = rabi_omega0 / amp_scale, Omega = s U,
    Delta = Delta0 - v . grad and D = Delta^2 + Omega^2 / 2 + Gamma^2 / 4."""
    u, _, grad_u, _ = mode_jet(beam, pt)
    s = ATOM.rabi_omega0 / beam.amp_scale
    omega_sq = (s * u) ** 2
    delta = ATOM.detuning0
    if vel is not None:
        delta = delta - (vel.v_rho * grad[0] + vel.v_phi * grad[1] + vel.v_z * grad[2])
    den = delta ** 2 + 0.5 * omega_sq + 0.25 * GAMMA ** 2
    f_sc = 0.25 * HBAR * GAMMA * omega_sq / den * grad
    f_dip = -0.5 * HBAR * delta / den * s * s * u * grad_u
    v = 0.5 * HBAR * ATOM.detuning0 * np.log1p(
        0.5 * omega_sq / (ATOM.detuning0 ** 2 + 0.25 * GAMMA ** 2))
    return f_sc, f_dip, v


def _assert_close(got, want, rtol, vector=True):
    """max |got - want| <= rtol max |want| per point, the maxima over the
    components along axis 0 of a vector; unlike the 2-norm, the maximum does
    not underflow for forces near 1e-160 N."""
    err, size = np.abs(np.subtract(*np.broadcast_arrays(got, want))), np.abs(want)
    if vector:
        err, size = np.max(err, axis=0), np.max(size, axis=0)
    assert np.all(err <= rtol * size)


@SETTINGS
@given(case=dark_partner_pairs())
def test_dark_partner_pair_is_one_beam(case):
    """A pair whose partner beam is dark acts as its lit beam alone.  The
    reduced forces and potential are the single-beam closed forms with the
    reduced gradient (0, l / rho, direction * k), to 1e-12; the full model's
    are the same forms with mode_jet's phase gradient, plus delta_k along z
    when the lit beam is beam 2, to 1e-11.  Under velocity coupling the full
    dipole force raises DarkPointError where the lit beam's amplitude is 0.

    The full model is checked at least 1% of a waist off the axis.  Its
    slope Im(grad E / E) rounds by about eps |grad U / U| = eps |l| / rho
    there, which next to the axis exceeds 1e-11 of the force: 3.7e-11 at
    rho = 2e-15 m for l = 1."""
    pair, lit, pt, t, vel = case
    rho = np.broadcast_to(pt.rho, np.broadcast(pt.rho, pt.phi, pt.z).shape)
    g_phi = np.where(rho > AXIS_RHO, lit.winding_l / np.where(rho > AXIS_RHO, rho, 1.0), 0.0)
    reduced = np.stack(np.broadcast_arrays(0.0, g_phi, float(lit.direction) * lit.wavenumber))
    off_axis = dataclasses.replace(pt, rho=np.maximum(rho, 0.01 * lit.waist_w0))
    full = mode_jet(lit, off_axis)[3]
    if lit is pair.beam2:
        full[2] += pair.delta_k
    for model, pt, grad, rtol in (("reduced", pt, reduced, 1e-12),
                                  ("full", off_axis, full, 1e-11)):
        f_sc, f_dip, v = _single_beam_forces(lit, pt, vel, grad)
        _assert_close(scattering_force(ATOM, pair, pt, vel=vel, mode=model, t=t),
                      f_sc, rtol)
        _assert_close(dipole_potential(ATOM, pair, pt, mode=model), v, rtol, vector=False)
        try:
            got = dipole_force(ATOM, pair, pt, vel=vel, mode=model, t=t)
        except DarkPointError:
            assert model == "full" and vel is not None
            assert np.any(mode_amplitude(lit, pt) == 0.0)
            continue
        _assert_close(got, f_dip, rtol)


@SETTINGS
@given(case=pairs_and_points(), lit=st.sampled_from(["beam1", "beam2"]))
def test_reduced_azimuthal_force_takes_each_beams_own_frame_slope(case, lit):
    """The reduced model gives each beam its own-frame azimuthal slope
    l / rho, while the field's beam 2 carries -l2 phi in the lab.  So for an
    atom at rest the reduced F_phi equals the full model's when only beam 1
    is lit (amp2 = 0) and is minus it when only beam 2 is (amp1 = 0), to
    1e-12."""
    pair, pt, t = case
    pair = dataclasses.replace(pair, **{"amp2" if lit == "beam1" else "amp1": 0.0})
    sign = 1.0 if lit == "beam1" else -1.0
    reduced = scattering_force(ATOM, pair, pt, mode="reduced")[1]
    full = scattering_force(ATOM, pair, pt, mode="full", t=t)[1]
    _assert_close(full, sign * reduced, 1e-12, vector=False)


@st.composite
def trapped_atoms(draw):
    """An atom at a red or blue detuning of 0.2 to 5 Gamma with a Rabi
    frequency of 0.1 to 2 Gamma, a pair with |l1|, |l2| <= 8, p <= 2,
    d <= 2 z_R and amp2 in [0.3, 1], and 8 points in its ring region:
    |z| <= d/2 + z_R/2 and rho from 0.3 w0 out to
    (sqrt(max |l| / 2 + p) + 1) w(z)."""
    w0 = draw(st.floats(2.0, 12.0)) * WAVELENGTH
    zr = math.pi * w0 ** 2 / WAVELENGTH
    l1, l2, p = draw(st.integers(-8, 8)), draw(st.integers(-8, 8)), draw(st.integers(0, 2))
    d = draw(st.floats(0.0, 2.0)) * zr
    pair = PairSpec(WAVELENGTH, w0, l1=l1, l2=l2, separation_d=d,
                    radial_p=p, amp2=draw(st.floats(0.3, 1.0)))
    atom = dataclasses.replace(ATOM, detuning0=draw(signs) * draw(st.floats(0.2, 5.0)) * GAMMA,
                               rabi_omega0=draw(st.floats(0.1, 2.0)) * GAMMA)
    fractions = st.lists(unit, min_size=8, max_size=8).map(np.array)
    z = (2.0 * draw(fractions) - 1.0) * (0.5 * d + 0.5 * zr)
    rho_max = (math.sqrt(0.5 * max(abs(l1), abs(l2)) + p) + 1.0) \
        * waist_at(pair.beam1, z - pair.beam1.focal_z)
    rho = 0.3 * w0 + draw(fractions) * (rho_max - 0.3 * w0)
    phi = (2.0 * draw(fractions) - 1.0) * math.pi
    return atom, pair, CylPoint(rho=rho, phi=phi, z=z)


@SETTINGS
@given(case=trapped_atoms(), model=st.sampled_from(["reduced", "full"]))
def test_dipole_force_is_minus_potential_gradient(case, model):
    """At rest the closed-form dipole force equals -grad V, with V the
    dipole_potential of the same model, to 1e-6 of the larger magnitude plus
    a rounding floor 2 eps |V| / h.

    The gradient is the lambda/400 five-point stencil S(h), extrapolated
    with S(2h) to (16 S(h) - S(2h)) / 15, whose weights on the values of V
    sum to 1.65 / h in magnitude.  S(h) alone errs by its h^4 term near the
    points where grad V vanishes: up to 3.7e-6 of the force over 1000 pairs
    with d = 0 and amp2 = 1, against 2e-8 for the extrapolated stencil over
    3000 pairs of these ranges."""
    atom, pair, pt = case
    rho, phi, z = pt.rho, pt.phi, pt.z
    h = WAVELENGTH / 400.0

    def v(rr, pp, zz):
        return dipole_potential(atom, pair, CylPoint(rho=rr, phi=pp, z=zz), mode=model)

    def grad(f, step):
        def five_point(s):
            return (8.0 * (f(s) - f(-s)) - (f(2.0 * s) - f(-2.0 * s))) / (12.0 * s)
        return (16.0 * five_point(step) - five_point(2.0 * step)) / 15.0

    want = -np.stack([grad(lambda s: v(rho + s, phi, z), h),
                      grad(lambda s: v(rho, phi + s, z), h / rho) / rho,
                      grad(lambda s: v(rho, phi, z + s), h)])
    got = dipole_force(atom, pair, pt, mode=model)
    err = np.linalg.norm(got - want, axis=0)
    larger = np.maximum(np.linalg.norm(got, axis=0), np.linalg.norm(want, axis=0))
    floor = 2.0 * np.finfo(float).eps * np.abs(v(rho, phi, z)) / h
    assert np.all(err <= 1e-6 * larger + floor)


# ------------------------------------------------------------- maps

@st.composite
def lattices(draw):
    """A pair with generated l, p, d and delta_omega, the rho_z region
    find_rings accepts for it (between the foci, at its resolution limits),
    at least three row blocks of BLOCK_POINTS points."""
    w0 = draw(st.floats(3.0, 6.0)) * WAVELENGTH
    l, p = draw(st.integers(-12, 12)), draw(st.integers(0, 2))
    d = draw(st.floats(2.0, 30.0)) * WAVELENGTH
    pair = PairSpec(WAVELENGTH, w0, l1=l, separation_d=d,
                    radial_p=p, delta_omega=draw(st.floats(0.0, 1e7)))
    z_half = 0.5 * d + WAVELENGTH
    rho_max = (math.sqrt(0.5 * abs(l) + p) + 2.0) * waist_at(pair.beam1, d)
    n_rho = math.ceil(rho_max / (w0 / 100.0)) + 1
    n_z = max(math.ceil(2.0 * z_half / (WAVELENGTH / 20.0)) + 1, 3 * BLOCK_POINTS // n_rho + 1)
    region = GridSpec.rho_z(rho_max=rho_max, n_rho=n_rho, z_min=-z_half, z_max=z_half,
                            n_z=n_z, phi=draw(st.floats(-math.pi, math.pi)),
                            time=draw(st.floats(0.0, 1e-6)))
    return pair, region


@st.composite
def intensity_grids(draw):
    """A pair from ``pairs`` and a small rho_z grid over its ring stack at a
    non-zero time: the grids the ring finder's kernel runs on."""
    pair, rho_max, z_hi = draw(pairs())
    return pair, GridSpec.rho_z(rho_max=rho_max, n_rho=draw(st.integers(2, 12)),
                                z_min=-z_hi, z_max=z_hi, n_z=draw(st.integers(2, 9)),
                                phi=draw(st.floats(-math.pi, math.pi)),
                                time=draw(st.floats(1e-9, 1e-6)))


@SETTINGS
@given(case=intensity_grids())
def test_intensity_kernel_blocks_threads_and_complex_field(case):
    """The ring finder's kernel over a whole grid, run in row blocks of two
    rows: the separable blocks give exactly the kernel's values on the same
    points as full-size arrays, and the intensity is |pair_complex|^2 within
    intensity_bound."""
    pair, grid = case
    full = full_grid_points(grid)
    with mock.patch.object(superpose, "BLOCK_POINTS", 2 * grid.axis1.size):
        one = superpose._pair_intensity_at(pair, grid, grid.axis1[None, :], grid.axis2[:, None])
    assert np.array_equal(one, superpose._pair_intensity(pair, full, grid.time))
    bound, resolved = intensity_bound(pair, full, grid.time)
    err = np.abs(one - np.abs(pair_complex(pair, full, t=grid.time)) ** 2)
    assert np.all(err[resolved] <= bound[resolved])


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(case=lattices())
def test_rings_strictly_increase_in_z(case):
    """Ring z positions come out strictly increasing without a sort: the
    ridge peaks are at least two rows apart, and each parabolic vertex lies
    within half a row of its peak row."""
    pair, region = case
    try:
        found = find_rings(pair, region)
    except VortexLatticeError:
        return
    z = [ring.z_pos for ring in found.rings]
    assert np.all(np.diff(z) > 0.0)
    assert [s.z_pos for s in found.splittings] == sorted(s.z_pos for s in found.splittings)


# ------------------------------------------- a scalar point, a one-point array

@st.composite
def scalar_cases(draw):
    """A pair with |l| <= 4 (0 included), p <= 3, possibly one dark beam and
    offsets; a point whose rho may be 0.0, -0.0 or AXIS_RHO, given as three
    Python floats; a time; no velocity or one."""
    w0 = draw(st.floats(2.0, 12.0)) * WAVELENGTH
    zr = math.pi * w0 ** 2 / WAVELENGTH
    amp1, amp2 = draw(st.sampled_from([(1.0, 1.0), (0.6, 1.3), (0.0, 1.0), (1.0, 0.0)]))
    pair = PairSpec(WAVELENGTH, w0, l1=draw(st.integers(-4, 4)), l2=draw(st.integers(-4, 4)),
                    radial_p=draw(st.integers(0, 3)),
                    separation_d=draw(st.floats(0.0, 2.0)) * zr,
                    delta_omega=draw(st.sampled_from([0.0, 2.0 * math.pi * 1e4])),
                    delta_k=draw(st.sampled_from([0.0, 30.0])), amp1=amp1, amp2=amp2)
    rho = draw(st.sampled_from([0.0, -0.0, AXIS_RHO, 0.5 * AXIS_RHO])
               | unit.map(lambda f: f * 3.0 * w0))
    point = (rho, draw(st.floats(-math.pi, math.pi)), draw(st.floats(-2.0, 2.0)) * zr)
    vel = draw(st.none() | st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(lambda v: Velocity(*v)))
    return pair, point, draw(st.sampled_from([0.0, 1e-7])), vel


def _one_point_bits(scalar, array):
    """The result at a scalar point equals the result at the same point as
    shape-(1,) arrays, signs of zero and NaNs included."""
    want = np.asarray(array)[..., 0]
    return (np.shape(scalar) == want.shape and np.array_equal(scalar, want, equal_nan=True)
            and np.array_equal(np.signbit(scalar), np.signbit(want)))


def _result_or_error(fn, *args):
    try:
        return fn(*args)
    except DarkPointError:
        return DarkPointError


@SETTINGS
@given(case=scalar_cases())
def test_a_scalar_point_gives_the_bits_of_a_one_point_array(case):
    """The scalar branches (the point's float path, the envelope's rho test,
    the force stack and the phase slope) give exactly what the array code
    gives for the same point: mode_amplitude, mode_jet, both models' _forces
    with every toggle, and _phase_slope, strict or not."""
    pair, (rho, phi, z), t, vel = case
    array = CylPoint(rho=np.array([rho]), phi=np.array([phi]), z=np.array([z]))
    for scalar in (CylPoint(rho=rho, phi=phi, z=z),
                   CylPoint(rho=np.float64(rho), phi=np.float64(phi), z=np.float64(z))):
        for beam in (pair.beam1, pair.beam2):
            assert _one_point_bits(mode_amplitude(beam, scalar), mode_amplitude(beam, array))
            for got, want in zip(mode_jet(beam, scalar), mode_jet(beam, array), strict=True):
                assert _one_point_bits(got, want)
        for mode in FORCE_MODELS:
            for scattering, dipole in ((True, False), (False, True), (True, True)):
                got, want = (_result_or_error(_forces, ATOM, pair, pt, vel, mode, t,
                                              scattering, dipole) for pt in (scalar, array))
                if want is DarkPointError:
                    assert got is DarkPointError, (mode, scattering, dipole)
                else:
                    assert all(map(_one_point_bits, got, want)), (mode, scattering, dipole)
        for strict in (False, True):
            got = _result_or_error(_phase_slope, *_pair_gradient(pair, scalar, t), strict)
            want = _result_or_error(_phase_slope, *_pair_gradient(pair, array, t), strict)
            assert got is want if want is DarkPointError else _one_point_bits(got, want)


def complex_field_terms(jets):
    """Re(E* grad E) and Im(grad E / E) in the package's former complex
    form, on the stacked (3,) gradients of two jets (U, Theta, grad U,
    grad Theta), beam 2's offsets already added."""
    (u1, th1, gu1, gth1), (u2, th2, gu2, gth2) = jets
    c1, c2 = np.exp(1j * th1), np.exp(1j * th2)
    e = u1 * c1 + u2 * c2
    grad_e = c1 * (gu1 + 1j * u1 * gth1) + c2 * (gu2 + 1j * u2 * gth2)
    scale = max(abs(u1), abs(u2), np.finfo(float).tiny)
    with np.errstate(invalid="ignore", divide="ignore"):
        return (np.conj(e) * grad_e).real, (grad_e / scale / (e / scale)).imag


@SETTINGS
@given(case=scalar_cases())
def test_real_combine_matches_the_mpmath_field_terms(case):
    """The full model's Re(E* grad E) and, off dark points, Im(grad E / E)
    from _field_terms are within 4 eps S G_c and 4 eps S G_c / |E|^2 of
    their 50-digit mpmath values from the same doubles U, Theta, grad U and
    grad Theta, per component c, with S = |U1| + |U2| and
    G_c = sum_j |d_c U_j| + |U_j| |d_c Theta_j|: each term of E and grad E
    is rounded by a few eps of its size, and the products and the quotient
    carry that through (the largest ratio seen is 2.4 of the 4).  The
    former complex form, products fused or not, meets the same bounds.
    Both are checked where S > 1e-290, and Re(E* grad E) where also
    S G_c > 1e-290, so that every term is a normal float: a subnormal U
    is rounded to a fixed step, not relative to its size."""
    pair, (rho, phi, z), t, _ = case
    pt = CylPoint(rho=rho, phi=phi, z=z)
    jets = [list(mode_jet(beam, pt)) for beam in (pair.beam1, pair.beam2)]
    jets[1][1] = superpose._offset_phase(pair, pt, t, jets[1][1])
    jets[1][3][2] += pair.delta_k
    amp, slope, dip = _field_terms(pair, pt, None, t, True, True)
    old_dip, old_slope = complex_field_terms(jets)
    dark = amp <= DARK_FRACTION * max(abs(u) for u, *_ in jets)
    with mpmath.workdps(50):
        mp = [(mpmath.mpf(float(u)), mpmath.mpf(float(th)), [mpmath.mpf(float(g)) for g in gu],
               [mpmath.mpf(float(g)) for g in gth]) for u, th, gu, gth in jets]
        e = sum(u * mpmath.expj(th) for u, th, _, _ in mp)
        s = sum(abs(u) for u, *_ in mp)
        for k in range(3):
            grad_e = sum(mpmath.expj(th) * (gu[k] + 1j * u * gth[k]) for u, th, gu, gth in mp)
            size = s * sum(abs(gu[k]) + abs(u) * abs(gth[k]) for u, _, gu, gth in mp)
            bound = 4.0 * np.finfo(float).eps * size
            if s > 1e-290 and size > 1e-290:
                want = float((mpmath.conj(e) * grad_e).real)
                assert abs(dip[k] - want) <= bound, (k, dip[k], want)
                assert abs(old_dip[k] - want) <= bound, (k, old_dip[k], want)
            if s > 1e-290 and not dark:
                want = float((grad_e / e).imag)
                bound = float(bound / abs(e) ** 2)
                assert abs(slope[k] - want) <= bound, (k, slope[k], want)
                assert abs(old_slope[k] - want) <= bound, (k, old_slope[k], want)
