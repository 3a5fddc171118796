import dataclasses
import io
import math
import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vortexlattice import output, superpose
from vortexlattice.errors import DegenerateGeometryError
from vortexlattice.lg_mode import CylPoint, mode_amplitude, mode_jet, mode_phase
from vortexlattice.output import write_outputs, write_rows
from vortexlattice.superpose import (BLOCK_POINTS, FieldMap, GridSpec, PairSpec, intensity_map,
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


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(wavelength=st.floats(300e-9, 2e-6), waist=st.floats(1e-6, 1e-4),
       l1=st.integers(-1000, 1000), l2=st.none() | st.integers(-1000, 1000),
       d=st.floats(0.0, 1e-3), new_d=st.floats(0.0, 1e-3), p=st.integers(0, 40),
       amp1=st.floats(0.0, 3.0), amp2=st.floats(0.0, 3.0),
       delta_omega=st.floats(-1e8, 1e8), delta_k=st.floats(-1e3, 1e3))
def test_pair_builds_its_beams(wavelength, waist, l1, l2, d, new_d, p, amp1, amp2,
                               delta_omega, delta_k):
    """A pair's beams share its wavelength, waist and p; beam 1 travels
    along +z with its focus at -d/2 and lab winding l1, beam 2 along -z with
    its focus at +d/2 and lab winding -l2 (l2 defaulting to l1), so the
    pattern has l1 + l2 spokes.  Replacing d gives the pair built afresh
    with that d, beams included."""
    pr = PairSpec(wavelength, waist, l1, l2, separation_d=d, delta_omega=delta_omega,
                  delta_k=delta_k, radial_p=p, amp1=amp1, amp2=amp2)
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
    fresh = PairSpec(wavelength, waist, l1, l2, new_d, delta_omega, delta_k, p, amp1, amp2)
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
                  delta_omega=2.0 * math.pi * 500.0, delta_k=12.0)
        pts = random_points(pr, 2000, seed=seed)
        u1 = mode_amplitude(pr.beam1, pts)
        u2 = mode_amplitude(pr.beam2, pts)
        want = u1 * np.exp(1j * mode_phase(pr.beam1, pts)) \
            + u2 * np.exp(1j * (mode_phase(pr.beam2, pts) + pr.delta_k * pts.z))
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
    assert total_amplitude(pr, dark) == 0.0
    assert math.isnan(total_phase(pr, dark))
    bright = CylPoint(rho=ring, phi=0.0, z=0.0)
    assert total_amplitude(pr, bright) > 0.0
    assert not math.isnan(total_phase(pr, bright))


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


def test_field_map_csv_round_trip(tmp_path):
    pr = pair(l1=2)
    g = GridSpec.rho_z(rho_min=0.0, rho_max=1.2e-5, n_rho=12, z_min=-3e-5,
                       z_max=3e-5, n_z=9)
    fm = intensity_map(pr, g)
    path = tmp_path / "map.csv"
    write_outputs(tmp_path, [(path.name, fm)])
    raw = path.read_bytes()
    assert b"\r" not in raw
    header = raw.splitlines()[0].decode()
    assert header == "coord1,coord2,amplitude,phase,intensity"
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    assert data.shape == (12 * 9, 5)
    # %.17g preserves doubles exactly
    grid_c1 = np.tile(g.axis1, 9)
    np.testing.assert_array_equal(data[:, 0], grid_c1)
    np.testing.assert_array_equal(data[:, 2], fm.amplitude.ravel())
    np.testing.assert_array_equal(data[:, 4], fm.intensity.ravel())


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


def test_write_csv_matches_savetxt(tmp_path):
    data = np.array([[0.0, -0.0, 1.0 / 3.0],
                     [np.nan, np.inf, -np.inf],
                     [5e-324, 1.7976931348623157e308, -2.5e-17],
                     [123456789.0, -1e-300, 0.1]])
    header = "a,b,c"
    path = tmp_path / "data.csv"
    write_rows(path, header, data)
    ref = io.StringIO()
    np.savetxt(ref, data, fmt="%.17g", delimiter=",", header=header, comments="")
    assert path.read_bytes() == ref.getvalue().encode()


def _savetxt_bytes(header, data):
    ref = io.StringIO()
    np.savetxt(ref, data, fmt="%.17g", delimiter=",", header=header, comments="")
    return ref.getvalue().encode()


def _savetxt_map_bytes(fm):
    """np.savetxt's bytes of a map's column stack: axis1 tiled, axis2
    repeated, then amplitude, phase and intensity."""
    n2, n1 = fm.amplitude.shape
    data = np.column_stack([np.tile(fm.grid.axis1, n2), np.repeat(fm.grid.axis2, n1),
                            fm.amplitude.ravel(), fm.phase.ravel(), fm.intensity.ravel()])
    return _savetxt_bytes("coord1,coord2,amplitude,phase,intensity", data)


def _bits(pattern):
    return float(np.array(pattern, dtype=np.uint64).view(np.float64))


# doubles whose "%.17g" text or bit pattern is easy to get wrong: both zeros,
# NaN with either sign bit and with a payload, both infinities, subnormals
SPECIAL_VALUES = [0.0, -0.0, math.nan, -math.nan, _bits(0x7FF8000000000001),
                  _bits(0xFFF0000000000123), math.inf, -math.inf, 5e-324, -5e-324,
                  2.2250738585072009e-308, 1e-310, 2.2250738585072014e-308,
                  1.7976931348623157e308, 0.1, 1.0 / 3.0]
csv_values = st.one_of(st.floats(), st.sampled_from(SPECIAL_VALUES))


@st.composite
def csv_columns(draw, n_rows):
    """A column of n_rows doubles: arbitrary values, signed zeros, NaNs and
    infinities mixed, a few values drawn repeatedly, or a few values tiled or
    repeated, as a map's coordinate columns repeat its axes."""
    kind = draw(st.sampled_from(["free", "signed", "pool", "tiled", "repeated"]))
    if kind == "free":
        return draw(st.lists(csv_values, min_size=n_rows, max_size=n_rows))
    if kind == "signed":
        pool = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf]
        return draw(st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows))
    pool = draw(st.lists(csv_values, min_size=1, max_size=5))
    if kind == "pool":
        return draw(st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows))
    reps = -(-n_rows // len(pool))
    laid_out = np.tile(pool, reps) if kind == "tiled" else np.repeat(pool, reps)
    return laid_out[:n_rows].tolist()


@st.composite
def csv_arrays(draw):
    """A 2-D array, or a 1-D one, which np.savetxt writes as one column."""
    n_rows = draw(st.integers(1, 40))
    if draw(st.booleans()):
        return np.array(draw(csv_columns(n_rows)))
    n_cols = draw(st.integers(1, 6))
    return np.array([draw(csv_columns(n_rows)) for _ in range(n_cols)]).T


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=csv_arrays(), chunk_values=st.sampled_from([1, 2, 5, 7, output._CHUNK_VALUES]))
def test_write_csv_matches_savetxt_on_generated_arrays(tmp_path_factory, data, chunk_values):
    """Byte for byte np.savetxt's output (a 1-D array is one column, as
    np.savetxt writes it), across row-block boundaries: chunks of as few as
    one row."""
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    with mock.patch.object(output, "_CHUNK_VALUES", chunk_values):
        write_rows(path, "h1,h2", data[:, None] if data.ndim == 1 else data)
    assert path.read_bytes() == _savetxt_bytes("h1,h2", data)


@pytest.mark.parametrize("kind", ["rho_z", "xy"])
def test_field_map_csv_matches_savetxt(tmp_path, kind):
    """A FieldMap is written as np.savetxt's bytes of its column stack; its
    coordinate columns repeat, and each grid has an on-axis NaN phase."""
    pr = pair(l1=2)
    if kind == "rho_z":
        g = GridSpec.rho_z(rho_max=1.2e-5, n_rho=23, z_min=-3e-5, z_max=3e-5, n_z=17)
    else:
        g = GridSpec.xy(half_width=1.6e-5, n=33, z=1e-6)
    fm = intensity_map(pr, g)
    assert np.isnan(fm.phase).any()
    write_outputs(tmp_path, [("map.csv", fm)])
    assert (tmp_path / "map.csv").read_bytes() == _savetxt_map_bytes(fm)


# axis samples the formatter's Python fallback writes (below 1e-280 or above
# 1e280 in magnitude, subnormals among them) and some it writes in numpy
FALLBACK_AXIS_VALUES = [5e-324, -5e-324, 1e-310, -1e-300, 1e281, -1e300, -2.5e-5,
                        1000000000000000.25, 1.0 / 3.0]


@st.composite
def map_axes(draw):
    """A strictly increasing axis: integer multiples of a drawn spacing,
    negative ones and an exact 0.0 among them, joined by drawn values."""
    spacing = draw(st.sampled_from([1e-300, 1e-6, 1.0, 1e285]) | st.floats(1e-12, 1e3))
    below, above = draw(st.integers(0, 36)), draw(st.integers(2, 36))
    extra = draw(st.lists(st.sampled_from(FALLBACK_AXIS_VALUES)
                          | st.floats(-1e300, 1e300).filter(bool), max_size=4))
    return np.unique(np.concatenate([spacing * np.arange(-below, above), extra]))


def _map_values(rng, shape):
    """Field columns for a map: values of every decimal exponent, exact zeros
    in all three columns and NaN phases, at the zeros and elsewhere."""
    amplitude, phase, intensity = (rng.standard_normal(shape)
                                   * 10.0 ** rng.integers(-310, 300, shape)
                                   for _ in range(3))
    zeros = rng.random(shape) < 0.2
    amplitude[zeros] = intensity[zeros] = 0.0
    phase[zeros | (rng.random(shape) < 0.1)] = np.nan
    return amplitude, phase, intensity


@pytest.mark.parametrize("chunk_values", [7, 64, output._CHUNK_VALUES])
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(axis1=map_axes(), axis2=map_axes(), seed=st.integers(0, 2 ** 32 - 1))
def test_field_map_csv_matches_savetxt_on_generated_grids(tmp_path_factory, chunk_values,
                                                          axis1, axis2, seed):
    """A FieldMap's write, which formats each axis once, gives np.savetxt's
    bytes of its column stack on generated axes and field values, over maps
    of one chunk or several, the last one partial, at the package's chunk
    size and at small ones."""
    g = GridSpec(kind="xy", axis1=axis1, axis2=axis2)
    fm = FieldMap(g, *_map_values(np.random.default_rng(seed), (axis2.size, axis1.size)))
    directory = tmp_path_factory.mktemp("map")
    with mock.patch.object(output, "_CHUNK_VALUES", chunk_values):
        write_outputs(directory, [("map.csv", fm)])
    assert (directory / "map.csv").read_bytes() == _savetxt_map_bytes(fm)


def _neighbours(x):
    return [np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]


def _write_column_bytes(tmp_path, values):
    path = tmp_path / "column.csv"
    write_rows(path, "x", np.array(values, dtype=float)[:, None])
    return path.read_bytes()


# every power of ten a double can be near, with both neighbours and signs; the
# %g switch between fixed and scientific notation; subnormals; NaN with a sign
# or a payload; and exact ties of the 17th digit, which round half to even
EDGE_VALUES = ([s * y for k in range(-323, 309) for y in _neighbours(float(f"1e{k}"))
                for s in (1.0, -1.0)]
               + [s * y for x in (1e-5, 1e-4, 1e16, 1e17) for y in _neighbours(x)
                  for s in (1.0, -1.0)]
               + [_bits(b) for b in (0x1, 0x2, 0x000FFFFFFFFFFFFF, 0x0008000000000001,
                                     0x800FFFFFFFFFFFFF, 0x8000000000000001)]
               + SPECIAL_VALUES + [1000000000000000.25, 1000000000000000.75, -2.5e-5])


def test_write_csv_formats_edge_values_as_percent_17g(tmp_path):
    """write_rows' numpy formatter writes Python's "%.17g" byte for byte at
    every value where scaling, rounding or the %g layout could slip."""
    assert _write_column_bytes(tmp_path, EDGE_VALUES) \
        == ("x\n" + "".join("%.17g\n" % x for x in EDGE_VALUES)).encode()
    assert _write_column_bytes(tmp_path, [1000000000000000.25, 1000000000000000.75]) \
        == b"x\n1000000000000000.2\n1000000000000000.8\n"


def test_write_csv_writes_rows_of_no_columns_as_savetxt(tmp_path):
    """Rows of no columns are empty lines, as np.savetxt writes them."""
    path = tmp_path / "empty.csv"
    for data in (np.zeros((3, 0)), np.zeros((0, 4))):
        write_rows(path, "h", data)
        assert path.read_bytes() == _savetxt_bytes("h", data)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(patterns=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_write_csv_formats_raw_bit_patterns_as_percent_17g(tmp_path_factory, patterns):
    """Any 64-bit pattern viewed as a double: NaNs, infinities, subnormals and
    normals of both signs come out as Python's "%.17g"."""
    values = np.array(patterns, dtype=np.uint64).view(np.float64).tolist()
    assert _write_column_bytes(tmp_path_factory.mktemp("csv"), values) \
        == ("x\n" + "".join("%.17g\n" % x for x in values)).encode()


def test_map_raises_where_the_intensity_overflows():
    """At amplitude scales of 1e200 the radicand overflows and the clamp
    leaves the amplitude finite (|U1| + |U2|, without its fringes), but its
    square does not fit a double: intensity_map raises rather than return
    inf intensities.  Numpy's overflow warnings come first and are caught."""
    pr = pair(l1=2, w0=3e-6, d=20e-6, amp1=1e200, amp2=1e200)
    g = GridSpec.rho_z(rho_max=6e-6, n_rho=5, z_min=-5e-6, z_max=5e-6, n_z=3)
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(DegenerateGeometryError, match="map intensity is not finite"):
            intensity_map(pr, g)


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
    for name in ("_pair_intensity", "_pair_terms"):
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
