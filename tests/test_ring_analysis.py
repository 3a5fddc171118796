import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import find_peaks

from vortexlattice import ring_analysis, superpose
from vortexlattice.atom_forces import lift_speed
from vortexlattice.cli import _write_json
from vortexlattice.errors import (DegenerateGeometryError, ResolutionError,
                                  RingDetectionError)
from vortexlattice.lg_mode import waist_at
from vortexlattice.ring_analysis import (double_ring_radii, find_rings,
                                         measure_axial_drift,
                                         measure_rotation_rate,
                                         radial_separation, suggested_sample_dt)
from vortexlattice.superpose import (BLOCK_POINTS, GridSpec, PairSpec, amplitude_map,
                                     intensity_map)

signs = st.sampled_from([1, -1])

WAVELENGTH = 589.16e-9


def pair(l1=4, w0_factor=4.0, d_factor=40.0, **kw):
    """Small, quick-to-scan lattice: waists and separation in wavelengths."""
    return PairSpec(WAVELENGTH, w0_factor * WAVELENGTH, l1=l1,
                    separation_d=d_factor * WAVELENGTH, **kw)


def lattice_region(p, rho_lo=3.0, rho_hi=9.0, z_half=22.0, n_rho=151, n_z=881):
    lam = p.beam1.wavelength
    return GridSpec.rho_z(rho_min=rho_lo * lam, rho_max=rho_hi * lam, n_rho=n_rho,
                          z_min=-z_half * lam, z_max=z_half * lam, n_z=n_z)


def ring_radius_formula(p, z_from_midplane):
    b = p.beam1
    arm = 0.5 * p.separation_d
    w = waist_at(b, arm - z_from_midplane)
    return w * math.sqrt(abs(b.winding_l) / 2.0)


def test_double_ring_radii_limits():
    p = pair()
    r_inner, r_outer = double_ring_radii(p, 0.0)
    assert r_inner == pytest.approx(r_outer, rel=1e-12)
    b = p.beam1
    u = 0.5 * p.separation_d / b.rayleigh_range
    rho0 = b.waist_w0 * math.sqrt(2.0) * math.sqrt(1.0 + u * u)
    assert r_inner == pytest.approx(rho0, rel=1e-12)
    delta = 0.2 * p.separation_d
    r_inner, r_outer = double_ring_radii(p, delta)
    assert r_inner < r_outer
    assert r_inner == pytest.approx(ring_radius_formula(p, delta), rel=1e-12)


def test_double_ring_radii_domain():
    p = pair()
    with pytest.raises(DegenerateGeometryError):
        double_ring_radii(p, -1e-9)
    with pytest.raises(DegenerateGeometryError):
        double_ring_radii(p, 0.5 * p.separation_d)
    with pytest.raises(DegenerateGeometryError):
        double_ring_radii(pair(d_factor=0.0), 0.0)


def test_radial_separation_against_exact():
    w0 = 8e-6
    zr = math.pi * w0 ** 2 / WAVELENGTH
    p = PairSpec(WAVELENGTH, w0, l1=2, separation_d=0.2 * zr)
    delta = 0.05 * zr
    split = radial_separation(p, delta)
    r_inner, r_outer = double_ring_radii(p, delta)
    assert split.exact == pytest.approx(r_outer - r_inner, rel=1e-12)
    assert split.approx == pytest.approx(split.exact, rel=0.15)
    assert split.alpha < 1.0
    assert split.alpha == pytest.approx(math.sqrt(4.0) * 0.2 * zr * delta / zr ** 2,
                                        rel=1e-12)


def test_radial_separation_error_halves_with_d():
    """The leading-order splitting approaches the exact one as the geometry
    shrinks; halving d (with delta scaled along) at least halves the error."""
    w0 = 8e-6
    zr = math.pi * w0 ** 2 / WAVELENGTH
    errs = []
    for d in (0.8 * zr, 0.4 * zr, 0.2 * zr, 0.1 * zr):
        p = PairSpec(WAVELENGTH, w0, l1=2, separation_d=d)
        split = radial_separation(p, 0.25 * d)
        errs.append(abs(split.approx - split.exact) / split.exact)
    for bigger, smaller in zip(errs, errs[1:]):
        assert smaller <= 0.55 * bigger


def test_find_rings_lattice_structure():
    p = pair()
    rings = find_rings(p, lattice_region(p))
    classes = [r.classification for r in rings.rings]
    assert classes.count("central") == 1
    central = rings.rings[classes.index("central")]
    region = lattice_region(p)
    dz = region.spacing2
    drho = region.spacing1
    assert abs(central.z_pos) <= dz
    assert abs(central.radius - ring_radius_formula(p, 0.0)) <= drho
    # symmetric pairs about the midplane
    others = sorted(r.z_pos for r in rings.rings if r.classification == "double")
    assert len(others) >= 10
    for z in others:
        partner = min(others, key=lambda q: abs(q + z))
        assert abs(partner + z) <= 2.0 * dz
    # near-midplane fringe spacing is 2 pi / Phi'(0), the axial period of the
    # phase difference on the midplane ring, Gouy and curvature terms included
    b = p.beam1
    k, zr, d = b.wavenumber, b.rayleigh_range, p.separation_d
    u = 0.5 * d / zr
    rho0 = b.waist_w0 * math.sqrt(abs(b.winding_l) / 2.0) * math.sqrt(1.0 + u * u)
    slope = 2.0 * k - 2.0 * (abs(b.winding_l) + 1.0) / (zr * (1.0 + u * u)) \
        + k * rho0 ** 2 * (zr * zr - 0.25 * d * d) / (0.25 * d * d + zr * zr) ** 2
    assert rings.fringe_delta == pytest.approx(2.0 * math.pi / slope, rel=1e-2)


def split_pair():
    """Strong focusing and high winding number so the double rings separate
    beyond the doughnut ring width and both radial maxima resolve."""
    return PairSpec(WAVELENGTH, 4.0 * WAVELENGTH, l1=20, separation_d=65.0 * WAVELENGTH)


def split_region():
    lam = WAVELENGTH
    return GridSpec.rho_z(rho_min=11 * lam, rho_max=23 * lam, n_rho=301,
                          z_min=-36 * lam, z_max=36 * lam, n_z=1441)


def test_find_rings_no_split_when_rings_merge():
    """At gentle focusing the sub-ring separation stays below the doughnut
    ring width, so no row resolves two radial maxima."""
    p = pair()
    rings = find_rings(p, lattice_region(p))
    assert rings.splittings == []


def test_find_rings_splitting_accuracy():
    p = split_pair()
    rings = find_rings(p, split_region())
    assert len(rings.splittings) >= 20
    arm = 0.25 * p.separation_d
    band = [s for s in rings.splittings if arm <= abs(s.z_pos) <= 2.1 * arm]
    assert band
    for s in band:
        assert s.delta_rho == pytest.approx(s.r_outer - s.r_inner, rel=1e-9)
        assert s.r_inner == pytest.approx(ring_radius_formula(p, abs(s.z_pos)), rel=0.10)
        assert s.r_outer == pytest.approx(ring_radius_formula(p, -abs(s.z_pos)), rel=0.10)


def test_find_rings_resolution_gate():
    p = pair()
    with pytest.raises(ResolutionError):
        find_rings(p, lattice_region(p, n_z=201))       # dz too coarse
    with pytest.raises(ResolutionError):
        find_rings(p, lattice_region(p, n_rho=31))      # drho too coarse
    with pytest.raises(ResolutionError):
        find_rings(p, lattice_region(p, z_half=8.0, n_z=321))   # misses the foci
    with pytest.raises(ResolutionError):
        g = GridSpec.xy(half_width=9.0 * WAVELENGTH, n=301)
        find_rings(p, g)


def test_find_rings_no_peaks():
    dark = pair(amp1=0.0, amp2=0.0)
    with pytest.raises(RingDetectionError):
        find_rings(dark, lattice_region(dark))


def test_find_rings_single_beam():
    """With one beam switched off there is no lattice: a single broad maximum
    at that beam's focal plane and no usable fringe spacing."""
    p = pair(amp2=0.0)
    rings = find_rings(p, lattice_region(p, z_half=24.0, n_z=961))
    assert len(rings.rings) == 1
    assert rings.rings[0].z_pos == pytest.approx(-0.5 * p.separation_d,
                                                 abs=0.5e-6)
    assert math.isnan(rings.fringe_delta)
    assert rings.splittings == []


def test_ring_set_json_schema(tmp_path):
    p = split_pair()
    rings = find_rings(p, split_region())
    path = tmp_path / "rings.json"
    _write_json(path, rings.to_json_dict())
    loaded = json.loads(path.read_text())
    assert set(loaded) == {"fringe_delta", "rings", "splittings"}
    assert isinstance(loaded["fringe_delta"], float)
    assert set(loaded["rings"][0]) == {"z", "radius", "peak", "class"}
    assert set(loaded["splittings"][0]) == {"z", "delta_rho"}
    # NaN spacing serializes as null, not as bare NaN
    single = find_rings(pair(amp2=0.0), lattice_region(p, z_half=24.0, n_z=961))
    path2 = tmp_path / "single.json"
    _write_json(path2, single.to_json_dict())
    assert json.loads(path2.read_text())["fringe_delta"] is None


def test_suggested_sample_dt():
    dw = 2.0 * math.pi * 1000.0
    p = pair(d_factor=0.0, delta_omega=dw)
    assert suggested_sample_dt(p) == pytest.approx(0.25 * math.pi / dw, rel=1e-12)
    with pytest.raises(DegenerateGeometryError):
        suggested_sample_dt(pair(d_factor=0.0))


def test_measure_rotation_rate():
    dw = 2.0 * math.pi * 1000.0
    p = pair(l1=2, w0_factor=20.0, d_factor=0.0, delta_omega=dw)
    dt = suggested_sample_dt(p)
    rate = measure_rotation_rate(p, p.beam1.waist_w0, 0.0, 0.0, dt)
    assert rate == pytest.approx(dw / 4.0, rel=1e-9)
    neg = pair(l1=-3, w0_factor=20.0, d_factor=0.0, delta_omega=dw)
    rho_neg = neg.beam1.waist_w0 * math.sqrt(1.5)
    rate_neg = measure_rotation_rate(neg, rho_neg, 0.0, 0.0, suggested_sample_dt(neg))
    assert rate_neg == pytest.approx(-dw / 6.0, rel=1e-9)
    with pytest.raises(DegenerateGeometryError):
        measure_rotation_rate(pair(l1=1, l2=-1, delta_omega=dw), 1e-5, 0.0, 0.0, dt)


def test_measure_axial_drift():
    dw = 2.0 * math.pi * 1000.0
    p = pair(l1=2, w0_factor=20.0, d_factor=0.0, delta_omega=dw)
    dt = suggested_sample_dt(p)
    drift = measure_axial_drift(p, p.beam1.waist_w0, 0.0, dt)
    want = dw / (2.0 * p.beam1.wavenumber)
    assert drift == pytest.approx(want, rel=1e-3)


@pytest.mark.parametrize("l1", [1, 2, 3])
def test_measure_axial_drift_follows_the_phase_slope(l1):
    """The tracked fringe crawls at delta_omega / Phi'(0), with
    Phi'(0) = 2k - 2(|l| + 1)/z_R + k rho^2/z_R^2 at d = 0 on the probe
    radius: the Gouy and curvature slopes are physics, not tracker error, so
    the reading sits more than 1e-4 away from lift_speed's delta_omega / 2k."""
    dw = 2.0 * math.pi * 1000.0
    p = pair(l1=l1, w0_factor=20.0, d_factor=0.0, delta_omega=dw)
    b = p.beam1
    k, zr = b.wavenumber, b.rayleigh_range
    rho = b.waist_w0 * math.sqrt(l1 / 2.0)
    slope = 2.0 * k - 2.0 * (l1 + 1.0) / zr + k * rho ** 2 / zr ** 2
    drift = measure_axial_drift(p, rho, 0.0, suggested_sample_dt(p))
    assert drift == pytest.approx(dw / slope, rel=1e-6)
    assert abs(drift / lift_speed(p) - 1.0) > 1e-4


def test_find_rings_intensity_skips_the_phase_but_matches_the_map(monkeypatch):
    """find_rings never maps the phase: it takes one amplitude_map, the
    amplitude intensity_map gives, and squares that array in place into the
    intensity intensity_map gives."""
    p = pair()
    region = lattice_region(p)
    assert region.axis1.size * region.axis2.size > BLOCK_POINTS
    want = intensity_map(p, region)
    maps = []

    def recorded(*args, **kwargs):
        amplitude = amplitude_map(*args, **kwargs)
        maps.append((amplitude, amplitude.copy()))
        return amplitude

    def no_phase(*args):
        raise AssertionError("find_rings mapped the phase")

    monkeypatch.setattr(ring_analysis, "amplitude_map", recorded)
    monkeypatch.setattr(superpose, "_phase_of", no_phase)
    find_rings(p, region, n_threads=2)
    [(squared, amplitude)] = maps
    assert np.array_equal(amplitude, want.amplitude)
    assert np.array_equal(squared, want.intensity)


def test_find_rings_thread_count_invariant():
    p = pair()
    region = lattice_region(p)
    one = find_rings(p, region, n_threads=1)
    two = find_rings(p, region, n_threads=2)
    assert one == two
    assert len(one.rings) >= 10


# ------------------------------------------- the peak finder against scipy

def scipy_peaks(values, **kw):
    return find_peaks(values, **kw)[0]


@st.composite
def peak_cases(draw):
    """Up to 60 samples drawn from a few integer levels, so plateaus, ties
    and maxima on the border are common, with the height and prominence
    thresholds each absent or drawn from the same levels."""
    level = st.integers(0, draw(st.integers(1, 5))).map(float)
    values = np.array(draw(st.lists(level, max_size=60)), dtype=float)
    threshold = st.none() | level
    return values, {"prominence": draw(threshold), "height": draw(threshold)}


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(case=peak_cases())
def test_find_peaks_matches_scipy(case):
    values, kw = case
    got = ring_analysis._find_peaks(values, **kw)
    assert np.array_equal(got, scipy_peaks(values, **kw))


def _outcome(fn, *args):
    """fn's result, or its error, in a form compared exactly."""
    try:
        return fn(*args)
    except RingDetectionError as exc:
        return f"RingDetectionError: {exc}"


def _with_scipy_peaks(fn, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ring_analysis, "_find_peaks", scipy_peaks)
        return _outcome(fn, *args)


@st.composite
def paper_lattices(draw):
    """A pair in the paper's range (|l| from 20 to 80, w0 from 3 to 5
    wavelengths, d from 6 to 10 waists) and the coarsest region find_rings
    accepts for it: drho = w0/100 and dz = lambda/20 over a rho window
    holding the rings between the foci, about 1e5 to 3e5 points."""
    w0 = draw(st.floats(3.0, 5.0)) * WAVELENGTH
    l = draw(st.integers(20, 80)) * draw(signs)
    p = PairSpec(WAVELENGTH, w0, l1=l, separation_d=draw(st.floats(6.0, 10.0)) * w0)
    d = p.separation_d
    rho_lo = max(0.0, ring_radius_formula(p, 0.5 * d) - 0.7 * w0)
    rho_hi = ring_radius_formula(p, -0.5 * d) + 0.7 * w0
    z_half = 0.5 * d + WAVELENGTH / 20.0
    region = GridSpec.rho_z(rho_min=rho_lo, rho_max=rho_hi,
                            n_rho=math.ceil((rho_hi - rho_lo) / (w0 / 100.0)) + 1,
                            z_min=-z_half, z_max=z_half,
                            n_z=math.ceil(2.0 * z_half / (WAVELENGTH / 20.0)) + 1)
    return p, region


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(case=paper_lattices())
def test_find_rings_same_with_scipy_peaks(case):
    p, region = case
    ours = _outcome(lambda: find_rings(p, region).to_json_dict())
    assert ours["rings"]
    assert ours == _with_scipy_peaks(lambda: find_rings(p, region).to_json_dict())


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(l=st.integers(1, 80), sign=signs, w0=st.floats(3.0, 20.0),
       d=st.floats(0.0, 10.0), dw=st.floats(1e2, 1e6), rho=st.floats(0.5, 1.5),
       t0=st.floats(0.0, 1e-3))
def test_measure_axial_drift_same_with_scipy_peaks(l, sign, w0, d, dw, rho, t0):
    p = PairSpec(WAVELENGTH, w0 * WAVELENGTH, l1=sign * l,
                 separation_d=d * w0 * WAVELENGTH,
                 delta_omega=sign * dw)
    rho_probe = rho * ring_radius_formula(p, 0.0)
    t1 = t0 + suggested_sample_dt(p)
    ours = _outcome(measure_axial_drift, p, rho_probe, t0, t1)
    assert ours == _with_scipy_peaks(measure_axial_drift, p, rho_probe, t0, t1)
