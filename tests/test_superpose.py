import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vortexlattice import superpose
from vortexlattice.atom_forces import AtomSpec, dipole_potential
from vortexlattice.errors import DegenerateGeometryError
from vortexlattice.lg_mode import BeamSpec, CylPoint, mode_amplitude, mode_jet, mode_phase
from vortexlattice.superpose import (BLOCK_POINTS, GridSpec, PairSpec, intensity_map,
                                     pair_complex, phase_difference,
                                     total_amplitude, total_phase)

WAVELENGTH = 589.16e-9


def pair(l1=2, l2=None, w0=8e-6, d=None, **kw):
    zr = math.pi * w0 ** 2 / WAVELENGTH
    if d is None:
        d = 0.8 * zr
    return PairSpec(WAVELENGTH, w0, l1=l1, l2=l2, separation_d=d, **kw)


def random_points(pr, n, seed=0, z_span=1.0):
    rng = np.random.default_rng(seed)
    b = pr.beam1
    rho_hi = (math.sqrt(abs(b.winding_l) / 2.0 + b.radial_p) + 2.0) * b.waist_w0 * 2.0
    return CylPoint(rho=rng.uniform(0.0, rho_hi, n),
                    phi=rng.uniform(-np.pi, np.pi, n),
                    z=rng.uniform(-z_span, z_span, n) * b.rayleigh_range)


def lab_winding(beam):
    """The phi coefficient of the beam's lab-frame phase, from its
    azimuthal phase slope times rho."""
    rho = beam.waist_w0
    return mode_jet(beam, CylPoint(rho=rho, phi=0.4, z=0.0))[3][1] * rho


def test_counterpropagating_layout():
    p = pair(l1=3, d=1e-4)
    assert p.beam1.direction == 1
    assert p.beam2.direction == -1
    assert p.beam1.focal_z == -5e-5
    assert p.beam2.focal_z == +5e-5
    assert lab_winding(p.beam1) == pytest.approx(3.0, rel=1e-15)
    assert lab_winding(p.beam2) == pytest.approx(-3.0, rel=1e-15)
    assert p.azimuthal_order == 6
    assert pair(l1=3, l2=-3).azimuthal_order == 0
    assert pair(l1=2, l2=-1).azimuthal_order == 1


def test_pair_validation():
    with pytest.raises(ValueError):
        pair(d=-1e-6)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("spec, name", [(BeamSpec, "wavelength"), (BeamSpec, "waist_w0"),
                                        (BeamSpec, "focal_z"), (BeamSpec, "amp_scale"),
                                        (PairSpec, "separation_d"), (PairSpec, "delta_omega")])
def test_specs_reject_non_finite_values(spec, name, value):
    """A beam or pair setting that is NaN or infinite raises ValueError
    naming it, instead of fields that come back NaN or infinite."""
    args = {"wavelength": WAVELENGTH}
    args.update({"waist_w0": 10e-6, "winding_l": 2} if spec is BeamSpec
                else {"waist": 10e-6, "l1": 2, "separation_d": 20e-6})
    args[name] = value
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        spec(**args)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(wavelength=st.floats(300e-9, 2e-6), waist=st.floats(1e-6, 1e-4),
       l1=st.integers(-1000, 1000), l2=st.none() | st.integers(-1000, 1000),
       d=st.floats(0.0, 1e-3), new_d=st.floats(0.0, 1e-3), p=st.integers(0, 40),
       amp1=st.floats(0.0, 3.0), amp2=st.floats(0.0, 3.0),
       delta_omega=st.floats(-1e8, 1e8))
def test_pair_builds_its_beams(wavelength, waist, l1, l2, d, new_d, p, amp1, amp2,
                               delta_omega):
    """A pair's beams share its wavelength, waist and p; beam 1 travels
    along +z with its focus at -d/2 and lab winding l1, beam 2 along -z with
    its focus at +d/2 and lab winding -l2 (l2 defaulting to l1), so the
    pattern has l1 + l2 spokes.  Replacing d gives the pair built afresh
    with that d, beams included."""
    pr = PairSpec(wavelength, waist, l1, l2, separation_d=d, delta_omega=delta_omega,
                  radial_p=p, amp1=amp1, amp2=amp2)
    l2 = l1 if l2 is None else l2
    assert pr.l2 == l2
    b1, b2 = pr.beam1, pr.beam2
    assert (b1.direction, b2.direction) == (1, -1)
    assert (b1.focal_z, b2.focal_z) == (-0.5 * d, 0.5 * d)
    for b in (b1, b2):
        assert (b.wavelength, b.waist_w0, b.radial_p) == (wavelength, waist, p)
    assert (b1.amp_scale, b2.amp_scale) == (amp1, amp2)
    assert (b1.winding_l, b2.winding_l) == (l1, l2)
    assert lab_winding(b1) == pytest.approx(l1, rel=1e-15)
    assert lab_winding(b2) == pytest.approx(-l2, rel=1e-15)
    assert pr.azimuthal_order == l1 + l2
    moved = dataclasses.replace(pr, separation_d=new_d)
    fresh = PairSpec(wavelength, waist, l1, l2, new_d, delta_omega, p, amp1, amp2)
    assert moved == fresh
    assert (moved.beam1, moved.beam2) == (fresh.beam1, fresh.beam2)


def test_phase_difference_matches_beam_phases():
    """The four-part split must reassemble the direct per-beam difference."""
    p = pair(l1=2, l2=5)
    pts = random_points(p, 500, seed=3)
    diff = phase_difference(p, pts)
    direct = mode_phase(p.beam1, pts) - mode_phase(p.beam2, pts)
    np.testing.assert_allclose(diff.total, direct, rtol=1e-10, atol=1e-9)


def test_phase_difference_parts():
    p = pair(l1=2)
    k = p.beam1.wavenumber
    pt = CylPoint(rho=6e-6, phi=0.7, z=3e-5)
    diff = phase_difference(p, pt)
    assert diff.plane == pytest.approx(2.0 * k * 3e-5, rel=1e-12)
    assert diff.azimuthal == pytest.approx(4.0 * 0.7, rel=1e-12)
    # azimuthal part carries l1 + l2 for the standard pair
    d36 = phase_difference(pair(l1=3, l2=6), pt)
    assert d36.azimuthal == pytest.approx(9.0 * 0.7, rel=1e-12)


def gouy_difference_closed_form(pair, z):
    """Single-arctangent form -(|l| + 1) * atan2(2 z z_R, z_R^2 - z^2 + d^2/4)
    of the Gouy part of the phase difference, for equal beams: the oracle
    the package's two per-beam arctangent terms are checked against.

    It reproduces the sum of the two per-beam arctangent terms exactly; the
    two-argument form keeps the branch right.  By the arctangent subtraction
    identity the denominator is z_R^2 plus the product (d/2 + z)(d/2 - z) of
    the beams' local offsets, so d^2/4 enters with the sign opposite to z^2
    and grouping it with z^2, as z_R^2 - (z^2 + d^2/4), is wrong.
    """
    b = pair.beam1
    l = abs(b.winding_l)
    zr = b.rayleigh_range
    d = pair.separation_d
    z = np.asarray(z)
    return -(l + 1.0) * np.arctan2(2.0 * z * zr, zr * zr - z * z + 0.25 * d * d)


def test_gouy_closed_form_exact():
    p = pair(l1=4, d=1.2 * pair().beam1.rayleigh_range)
    z = np.linspace(-2.0, 2.0, 801) * p.beam1.rayleigh_range
    pts = CylPoint(rho=np.zeros_like(z), phi=0.0, z=z)
    parts = phase_difference(p, pts)
    closed = gouy_difference_closed_form(p, z)
    np.testing.assert_allclose(closed, parts.gouy, rtol=1e-12, atol=1e-12)


def test_curvature_difference_odd_in_z():
    p = pair(l1=2)
    rho = 7e-6
    z = np.linspace(1e-6, 3e-4, 50)
    fwd = phase_difference(p, CylPoint(rho=rho, phi=0.0, z=z)).curvature
    bwd = phase_difference(p, CylPoint(rho=rho, phi=0.0, z=-z)).curvature
    np.testing.assert_allclose(fwd, -bwd, rtol=1e-12)


def test_total_field_matches_complex_sum():
    for seed, (l1, l2, p_idx, amp2) in enumerate([(2, 2, 0, 1.0), (3, -1, 0, 0.6),
                                                  (1, 4, 2, 1.3)]):
        pr = pair(l1=l1, l2=l2, radial_p=p_idx, amp2=amp2,
                  delta_omega=2.0 * math.pi * 500.0)
        pts = random_points(pr, 2000, seed=seed)
        u1 = mode_amplitude(pr.beam1, pts)
        u2 = mode_amplitude(pr.beam2, pts)
        want = u1 * np.exp(1j * mode_phase(pr.beam1, pts)) \
            + u2 * np.exp(1j * mode_phase(pr.beam2, pts))
        got = pair_complex(pr, pts)
        scale = np.maximum(np.maximum(np.abs(u1), np.abs(u2)), 1e-30)
        np.testing.assert_allclose(np.abs(got - want) / scale, 0.0, atol=1e-12)

        amp = total_amplitude(pr, pts)
        ph = total_phase(pr, pts)
        ok = ~np.isnan(ph)
        recon = amp[ok] * np.exp(1j * ph[ok])
        np.testing.assert_allclose(np.abs(recon - want[ok]) / scale[ok], 0.0, atol=1e-12)


def test_total_amplitude_envelope():
    pr = pair(l1=1, radial_p=1, amp2=0.5)
    pts = random_points(pr, 3000, seed=9)
    u1 = np.abs(mode_amplitude(pr.beam1, pts))
    u2 = np.abs(mode_amplitude(pr.beam2, pts))
    amp = total_amplitude(pr, pts)
    assert np.all(amp <= u1 + u2 + 1e-30)
    assert np.all(amp >= np.abs(u1 - u2) - 1e-30)


def test_dark_point_phase_is_nan():
    # equal amplitudes, destructive azimuthal phase at the midplane ring
    pr = pair(l1=1, d=0.0)
    ring = pr.beam1.waist_w0 / math.sqrt(2.0)
    dark = CylPoint(rho=ring, phi=math.pi / 2.0, z=0.0)
    scale = abs(mode_amplitude(pr.beam1, dark)) + abs(mode_amplitude(pr.beam2, dark))
    # 0 up to the rounding of sin(fl(pi)) = 1.22e-16 in the complex sum
    assert total_amplitude(pr, dark) <= np.finfo(float).eps * scale
    assert math.isnan(total_phase(pr, dark))
    bright = CylPoint(rho=ring, phi=0.0, z=0.0)
    assert total_amplitude(pr, bright) > 0.0
    assert not math.isnan(total_phase(pr, bright))


def test_both_halves_of_one_field_share_a_scalar_type():
    """At a point of scalars, given as Python floats or as numpy scalars,
    total_amplitude and total_phase return the same numpy scalar type, a dark
    point's NaN phase included; on arrays both keep the points' shape, and
    the phase is angle(pair_complex) under the dark rule, bit for bit."""
    pr = pair(l1=1, d=0.0)
    ring = pr.beam1.waist_w0 / math.sqrt(2.0)
    for phi in (0.0, math.pi / 2.0):            # bright, then dark
        for cast in (float, np.float64):
            pt = CylPoint(rho=cast(ring), phi=cast(phi), z=cast(0.0))
            amp, ph = total_amplitude(pr, pt), total_phase(pr, pt)
            assert type(amp) is type(ph) is np.float64
    pts = CylPoint(rho=np.full((2, 3), ring), phi=np.linspace(0.0, math.pi, 6).reshape(2, 3),
                   z=0.0)
    e = pair_complex(pr, pts)
    u_max = np.maximum(np.abs(mode_amplitude(pr.beam1, pts)),
                       np.abs(mode_amplitude(pr.beam2, pts)))
    want = np.where(np.abs(e) <= superpose.DARK_FRACTION * u_max, np.nan, np.angle(e))
    got = total_phase(pr, pts)
    assert type(got) is np.ndarray and type(total_amplitude(pr, pts)) is np.ndarray
    assert got.shape == total_amplitude(pr, pts).shape == (2, 3)
    assert got.tobytes() == want.tobytes()


def test_azimuthal_symmetry_of_spokes():
    pr = pair(l1=2)      # 4 spokes
    base = CylPoint(rho=6e-6, phi=0.25, z=1e-5)
    shifted = CylPoint(rho=6e-6, phi=0.25 + math.pi / 2.0, z=1e-5)
    assert total_amplitude(pr, base) == pytest.approx(total_amplitude(pr, shifted), rel=1e-12)


def test_mirror_symmetry():
    """Swapping the two beams' roles maps (phi, z) -> (-phi, -z)."""
    pr = pair(l1=3)
    pts = random_points(pr, 400, seed=5)
    mirrored = CylPoint(rho=pts.rho, phi=-np.asarray(pts.phi), z=-np.asarray(pts.z))
    np.testing.assert_allclose(total_amplitude(pr, pts), total_amplitude(pr, mirrored),
                               rtol=1e-10, atol=1e-300)


def test_frequency_offset_rotates_pattern():
    pr = pair(l1=2, d=0.0, delta_omega=2.0 * math.pi * 1000.0)
    m = pr.azimuthal_order
    t = 3.7e-5
    pts = random_points(pr, 200, seed=7, z_span=0.2)
    rotated = CylPoint(rho=pts.rho, phi=np.asarray(pts.phi) - pr.delta_omega * t / m,
                       z=pts.z)
    np.testing.assert_allclose(total_amplitude(pr, pts, t=t),
                               total_amplitude(pr, rotated), rtol=1e-9, atol=1e-300)


def fringe_spacing_on_ring(pr, n=40001, span=6e-6):
    """Median axial spacing of intensity maxima at the midplane ring radius."""
    from scipy.signal import find_peaks
    b = pr.beam1
    u = 0.5 * pr.separation_d / b.rayleigh_range
    rho0 = b.waist_w0 * math.sqrt(abs(b.winding_l) / 2.0) * math.sqrt(1.0 + u * u)
    z = np.linspace(-span, span, n)
    amp = total_amplitude(pr, CylPoint(rho=rho0, phi=0.0, z=z))
    peaks, _ = find_peaks(amp * amp)
    return float(np.median(np.diff(z[peaks]))), rho0


def test_fringe_spacing_near_half_wavelength():
    w0 = 4 * WAVELENGTH
    pr = pair(l1=4, w0=w0, d=40 * WAVELENGTH)
    spacing, rho0 = fringe_spacing_on_ring(pr)
    k = pr.beam1.wavenumber
    assert spacing == pytest.approx(math.pi / k, rel=0.10)

    # sharper: spacing 2 pi / Phi'(0) from the exact phase-difference slope
    zr = pr.beam1.rayleigh_range
    d = pr.separation_d
    l = abs(pr.beam1.winding_l)
    u = 0.5 * d / zr
    slope = 2.0 * k - 2.0 * (l + 1.0) / (zr * (1.0 + u * u)) \
        + k * rho0 ** 2 * (zr * zr - 0.25 * d * d) / (0.25 * d * d + zr * zr) ** 2
    assert spacing == pytest.approx(2.0 * math.pi / slope, rel=1e-2)


def test_midplane_ring_radius_at_zero_separation():
    pr = pair(l1=4, d=0.0)
    w0 = pr.beam1.waist_w0
    rho = np.linspace(0.1 * w0, 3.0 * w0, 3001)
    amp = total_amplitude(pr, CylPoint(rho=rho, phi=0.0, z=0.0))
    cell = rho[1] - rho[0]
    assert abs(rho[np.argmax(amp)] - w0 * math.sqrt(2.0)) <= cell


def test_grid_spec_validation():
    from vortexlattice.errors import ConfigError
    with pytest.raises(ConfigError):
        GridSpec.rho_z(rho_min=-1e-6, rho_max=1e-5, n_rho=10, z_min=-1e-5,
                       z_max=1e-5, n_z=10)
    with pytest.raises(ConfigError):
        GridSpec.rho_z(rho_min=0.0, rho_max=1e-5, n_rho=1, z_min=-1e-5,
                       z_max=1e-5, n_z=10)
    with pytest.raises(ConfigError):
        GridSpec.rho_z(rho_min=2e-5, rho_max=1e-5, n_rho=10, z_min=-1e-5,
                       z_max=1e-5, n_z=10)
    with pytest.raises(ConfigError):
        GridSpec.xy(half_width=0.0, n=10)


def test_grid_spacing_and_points():
    g = GridSpec.rho_z(rho_min=0.0, rho_max=9e-6, n_rho=10, z_min=-2e-5,
                       z_max=2e-5, n_z=21)
    assert g.spacing1 == pytest.approx(1e-6, rel=1e-12)
    assert g.spacing2 == pytest.approx(2e-6, rel=1e-12)
    block = superpose._block_points(g, slice(None))
    assert block.shape == (21, 10)
    np.testing.assert_array_equal(block.rho[0], g.axis1)
    np.testing.assert_array_equal(block.z[:, 0], g.axis2)


def test_intensity_map_values_and_threads():
    pr = pair(l1=2)
    g = GridSpec.rho_z(rho_min=0.0, rho_max=1.6e-5, n_rho=64, z_min=-1e-4,
                       z_max=1e-4, n_z=48)
    fm = intensity_map(pr, g)
    pt = CylPoint(rho=g.axis1[17], phi=g.phi, z=g.axis2[5])
    assert fm.amplitude[5, 17] == pytest.approx(total_amplitude(pr, pt), rel=1e-12)
    assert fm.intensity[5, 17] == pytest.approx(total_amplitude(pr, pt) ** 2, rel=1e-12)


def test_xy_map_matches_cylindrical_evaluation():
    pr = pair(l1=1)
    g = GridSpec.xy(half_width=1.2e-5, n=31, z=2e-5)
    fm = intensity_map(pr, g)
    x, y = g.axis1[22], g.axis2[8]
    pt = CylPoint.from_cartesian(x, y, 2e-5)
    assert fm.amplitude[8, 22] == pytest.approx(total_amplitude(pr, pt), rel=1e-12)


def _multi_block_grids():
    """A rho_z and an xy grid, each several row blocks large, with a row
    count that is not a multiple of the block height."""
    grids = [GridSpec.rho_z(rho_min=0.0, rho_max=3e-5, n_rho=400,
                            z_min=-1e-4, z_max=1e-4, n_z=601),
             GridSpec.xy(half_width=2.4e-5, n=401, z=1.5e-5)]
    for g in grids:
        n2, n1 = g.axis2.size, g.axis1.size
        rows_per_block = BLOCK_POINTS // n1
        assert n1 * n2 > BLOCK_POINTS
        assert n2 % rows_per_block != 0
    return grids


def full_grid_points(grid):
    """CylPoint of every grid point as full (len(axis2), len(axis1)) arrays:
    the reference the separable row blocks are checked against."""
    shape = (grid.axis2.size, grid.axis1.size)
    a1 = np.broadcast_to(grid.axis1[None, :], shape)
    a2 = np.broadcast_to(grid.axis2[:, None], shape)
    if grid.kind == "rho_z":
        return CylPoint(rho=a1, phi=grid.phi, z=a2)
    return CylPoint.from_cartesian(a1, a2, grid.z_slice)


@pytest.mark.parametrize("kind", [0, 1], ids=["rho_z", "xy"])
def test_separable_blocks_equal_full_grid_points(kind):
    """The kernel's separable (1, n1) x (rows, 1) operands give exactly the
    values of every grid point as full-size broadcast arrays."""
    pr = pair(l1=2, radial_p=1, delta_omega=1e3)
    g = _multi_block_grids()[kind]
    g = GridSpec(kind=g.kind, axis1=g.axis1, axis2=g.axis2, phi=0.7,
                 z_slice=g.z_slice, time=3e-4)
    block = full_grid_points(g)
    fm = intensity_map(pr, g)
    assert np.array_equal(fm.amplitude, total_amplitude(pr, block, t=g.time))
    assert np.array_equal(fm.phase, total_phase(pr, block, t=g.time), equal_nan=True)


def test_map_raises_where_the_intensity_overflows():
    """At amplitude scales of 1e200 the amplitude |E| is finite, but its
    square does not fit a double: intensity_map raises rather than return
    inf intensities.  Numpy's overflow warning comes first and is caught."""
    pr = pair(l1=2, w0=3e-6, d=20e-6, amp1=1e200, amp2=1e200)
    g = GridSpec.rho_z(rho_max=6e-6, n_rho=5, z_min=-5e-6, z_max=5e-6, n_z=3)
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(DegenerateGeometryError, match="map intensity is not finite"):
            intensity_map(pr, g)


def test_total_amplitude_is_finite_at_large_amplitude_scales():
    """At amp1 = amp2 = 1e200, where U1^2 + U2^2 + 2 U1 U2 cos(Theta1 -
    Theta2) would overflow to inf - inf, total_amplitude is the clamped
    |pair_complex| (about 4.95e199) with no warning, and the full model's
    dipole potential, which reads it, is finite."""
    pr = pair(l1=2, w0=3e-6, d=20e-6, amp1=1e200, amp2=1e200)
    pt = CylPoint(rho=3e-6, phi=0.0, z=0.1e-6)
    a1, a2 = abs(mode_amplitude(pr.beam1, pt)), abs(mode_amplitude(pr.beam2, pt))
    want = min(max(abs(pair_complex(pr, pt)), abs(a1 - a2)), a1 + a2)
    assert 1e199 < want < 1e200
    assert total_amplitude(pr, pt) == want
    gamma = 2.0 * math.pi * 10.01e6
    atom = AtomSpec(mass=3.8175e-26, gamma=gamma, detuning0=0.5 * gamma, rabi_omega0=gamma)
    assert math.isfinite(dipole_potential(atom, pr, pt, mode="full"))


@pytest.mark.parametrize("kind", ["rho_z", "xy"])
def test_maps_are_finite_at_large_l(kind):
    """At l = 200 a map reaching 4 ring radii, where the power form of the
    envelope was inf * 0, is finite and warns nothing, and equals
    total_amplitude at every grid point."""
    w0 = 3e-6
    pr = PairSpec(WAVELENGTH, w0, l1=200, separation_d=8e-6)
    reach = 4.0 * w0 * math.sqrt(100.0)
    if kind == "rho_z":
        g = GridSpec.rho_z(rho_max=reach, n_rho=41, z_min=-4e-6, z_max=4e-6, n_z=5)
    else:
        g = GridSpec.xy(half_width=reach / math.sqrt(2.0), n=41)
    amp = total_amplitude(pr, full_grid_points(g))
    assert np.isfinite(amp).all() and amp.max() > 0.0
    np.testing.assert_array_equal(intensity_map(pr, g).amplitude, amp)


@pytest.mark.parametrize("n_threads", [1, 2])
def test_map_workers_keep_the_callers_errstate(monkeypatch, n_threads):
    """The caller's np.errstate holds in every row block of a map, for both
    the finder's kernel and intensity_map, whatever the ignored n_threads
    intensity_map is given.  Far out on an l = 200 grid the envelope
    underflows to 0, which numpy ignores by default: under
    errstate(under="raise") both maps raise FloatingPointError; under
    errstate(under="call") each of the seven row blocks runs with that
    setting and reports underflows; with no errstate the maps are finite and
    warn nothing, with warnings turned into errors."""
    w0 = 3e-6
    pr = PairSpec(WAVELENGTH, w0, l1=200, separation_d=8e-6)
    g = GridSpec.rho_z(rho_max=4.0 * w0 * math.sqrt(100.0), n_rho=41,
                       z_min=-4e-6, z_max=4e-6, n_z=41)
    settings_seen = []

    def recorded(kernel):
        def block(*args, **kwargs):
            settings_seen.append(np.geterr()["under"])
            return kernel(*args, **kwargs)
        return block

    monkeypatch.setattr(superpose, "BLOCK_POINTS", 41 * 6)
    for name in ("_pair_intensity", "_field"):
        monkeypatch.setattr(superpose, name, recorded(getattr(superpose, name)))
    maps = (lambda: superpose._pair_intensity_at(pr, g, g.axis1[None, :], g.axis2[:, None]),
            lambda: intensity_map(pr, g, n_threads=n_threads).amplitude)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for make_map in maps:
            with np.errstate(under="raise"):
                with pytest.raises(FloatingPointError):
                    make_map()
            settings_seen.clear()
            underflows = []
            with np.errstate(under="call", call=lambda *args: underflows.append(args)):
                make_map()
            assert settings_seen == ["call"] * 7 and underflows
            assert np.isfinite(make_map()).all()
