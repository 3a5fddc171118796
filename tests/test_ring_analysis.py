import ast
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar
from scipy.signal import find_peaks, peak_prominences

from test_config_cli import REPO
from test_properties import intensity_bound, lattices
from test_superpose import full_grid_points
from vortexlattice import atom_forces, cli, lg_mode, ring_analysis, superpose
from vortexlattice.atom_forces import central_ring_radius, ferris_rate, lift_speed
from vortexlattice.cli import main
from vortexlattice.config import RunConfig
from vortexlattice.errors import (DegenerateGeometryError, ResolutionError,
                                  RingDetectionError, VortexLatticeError)
from vortexlattice.lg_mode import CylPoint, mode_amplitude, waist_at
from vortexlattice.output import write_outputs
from vortexlattice.ring_analysis import (Ring, RingSet, RingSplit, compare_rings,
                                         double_ring_radii, find_rings,
                                         fringe_drift_speed, measure_axial_drift,
                                         measure_rotation_rate,
                                         radial_separation, suggested_sample_dt)
from vortexlattice.superpose import (BLOCK_POINTS, GridSpec, PairSpec, intensity_map,
                                     total_amplitude)

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
    """Every delta >= 0 is in the domain, the foci and beyond them too,
    where each radius is the beam's ring radius at |d/2 -+ delta| from its
    focus (the form is even in d/2 - delta); d = 0 gives equal radii.  A
    negative or NaN delta raises, in radial_separation too."""
    p = pair()
    half_d = 0.5 * p.separation_d
    b = p.beam1
    for delta in (half_d, 1.5 * half_d, 4.0 * half_d):
        w1, w2 = double_ring_radii(p, delta)
        assert w1 == pytest.approx(ring_radius_formula(p, delta), rel=1e-12)
        assert w2 == pytest.approx(ring_radius_formula(p, -delta), rel=1e-12)
        assert radial_separation(p, delta).exact == w2 - w1
    # even in d/2 - delta: as far past a focus as short of it
    assert double_ring_radii(p, 1.5 * half_d)[0] == pytest.approx(
        double_ring_radii(p, 0.5 * half_d)[0], rel=1e-12)
    assert double_ring_radii(p, half_d)[0] == b.waist_w0 * math.sqrt(0.5 * abs(b.winding_l))
    w1, w2 = double_ring_radii(pair(d_factor=0.0), 3.0 * WAVELENGTH)
    assert w1 == w2
    for bad in (-1e-9, -half_d, math.nan):
        with pytest.raises(DegenerateGeometryError):
            double_ring_radii(p, bad)
        with pytest.raises(DegenerateGeometryError):
            radial_separation(p, bad)


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


def split_region(rho_max=23.0):
    """split_pair's rings between the foci; rho_max = 21 cuts the outer
    rings' lobes short, so that past many a partner the row ends above the
    valley between it and its ring: the far base then decides."""
    lam = WAVELENGTH
    return GridSpec.rho_z(rho_min=11 * lam, rho_max=rho_max * lam,
                          n_rho=round((rho_max - 11.0) * 25.0) + 1,
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
    write_outputs(tmp_path, [(path.name, rings.to_json_dict())])
    loaded = json.loads(path.read_text())
    assert set(loaded) == {"fringe_delta", "rings", "splittings"}
    assert isinstance(loaded["fringe_delta"], float)
    assert set(loaded["rings"][0]) == {"z", "radius", "peak", "class"}
    assert set(loaded["splittings"][0]) == {"z", "delta_rho"}
    # NaN spacing serializes as null, not as bare NaN
    single = find_rings(pair(amp2=0.0), lattice_region(p, z_half=24.0, n_z=961))
    path2 = tmp_path / "single.json"
    write_outputs(tmp_path, [(path2.name, single.to_json_dict())])
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
    """The tracked fringe crawls at fringe_drift_speed's delta_omega / Phi'(0),
    with Phi'(0) = 2k - 2(|l| + 1)/z_R + k rho^2/z_R^2 at d = 0 on the probe
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
    assert fringe_drift_speed(p, rho) == pytest.approx(dw / slope, rel=1e-12)
    assert abs(drift / lift_speed(p) - 1.0) > 1e-4


@pytest.mark.parametrize("measure, where", [(measure_rotation_rate, (3e-6, 0.0)),
                                            (measure_axial_drift, (3e-6,))],
                         ids=["rotation", "drift"])
def test_equal_times_raise_degenerate_geometry(measure, where):
    """With t1 == t0 no time passes and a rate would be 0 / 0: both
    measurements raise DegenerateGeometryError, not a NaN with a warning."""
    p = PairSpec(589e-9, 20 * 589e-9, l1=2, delta_omega=2.0 * math.pi * 1e3)
    with pytest.raises(DegenerateGeometryError, match="no time elapses"):
        measure(p, *where, 1e-4, 1e-4)


@pytest.mark.parametrize("t0, t1", [(1e-4, math.nan), (1e-4, math.inf), (1e-4, -math.inf),
                                    (math.nan, 1e-4)],
                         ids=["t1-nan", "t1-inf", "t1-neg-inf", "t0-nan"])
@pytest.mark.parametrize("measure, where", [(measure_rotation_rate, (3e-6, 0.0)),
                                            (measure_axial_drift, (3e-6,))],
                         ids=["rotation", "drift"])
def test_non_finite_times_raise_degenerate_geometry(measure, where, t0, t1):
    """A sample time that is NaN or infinite gives no rate: both
    measurements raise DegenerateGeometryError, not a NaN, a
    RingDetectionError or a RuntimeWarning."""
    p = PairSpec(589e-9, 20 * 589e-9, l1=2, delta_omega=2.0 * math.pi * 1e3)
    with pytest.raises(DegenerateGeometryError, match="must be finite"):
        measure(p, *where, t0, t1)


def ferris_pair(**kw):
    """The pair of configs/ferris.json."""
    return PairSpec(589.16e-9, 11.7832e-6, l1=2, delta_omega=2.0 * math.pi * 1e3, **kw)


RATES = pytest.mark.parametrize("measure, where", [(measure_rotation_rate, (0.0,)),
                                                   (measure_axial_drift, ())],
                                ids=["rotation", "drift"])


@RATES
@pytest.mark.parametrize("dark", ["amp1", "amp2"])
def test_a_dark_beam_has_no_rate_to_measure(measure, where, dark):
    """With one beam off nothing moves: both measurements raise where they
    returned -0.0 and 0.0, which ferris compared with a rate of 1570.8 rad/s."""
    p = ferris_pair(**{dark: 0.0})
    with pytest.raises(DegenerateGeometryError, match="dark"):
        measure(p, central_ring_radius(p), *where, 0.0, suggested_sample_dt(p))


def test_the_axis_has_no_rotation_to_measure():
    """On the axis both doughnuts are 0, so there are no spokes to follow."""
    p = ferris_pair()
    with pytest.raises(DegenerateGeometryError, match="dark"):
        measure_rotation_rate(p, 0.0, 0.0, 0.0, suggested_sample_dt(p))


@RATES
@pytest.mark.parametrize("sign", [1, -1])
def test_aliased_time_steps_raise(measure, where, sign):
    """The spoke harmonic and the tracked fringe each advance by
    delta_omega (t1 - t0), so a step of pi / |delta_omega| or more aliases:
    at 1.1 pi it read -0.818 times the rate.  At 0.9 pi the rate holds."""
    p = ferris_pair()
    rho = central_ring_radius(p)
    with pytest.raises(DegenerateGeometryError, match="alias"):
        measure(p, rho, *where, 0.0, sign * 1.1 * math.pi / p.delta_omega)
    got = measure(p, rho, *where, 0.0, sign * 0.9 * math.pi / p.delta_omega)
    want = ferris_rate(p) if measure is measure_rotation_rate else fringe_drift_speed(p, rho)
    assert got == pytest.approx(want, rel=1e-6)


def test_ring_analysis_imports_only_public_names_from_atom_forces():
    """ring_analysis takes the pair field, its gradient and its phase rows
    from superpose: of atom_forces it imports only names that module
    exports, so no field helper grows back in the force module for the
    finder to borrow, and of lg_mode no private name, so the phase
    difference is formed in superpose alone."""
    tree = ast.parse((REPO / "src" / "vortexlattice" / "ring_analysis.py").read_text())

    def imported(module):
        return [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and (node.module or "").rpartition(".")[2] == module for alias in node.names]

    names = imported("atom_forces")
    assert names and set(names) <= set(atom_forces.__all__), names
    names = imported("lg_mode")
    assert names and not [n for n in names if n.startswith("_")], names


def test_find_rings_intensity_skips_the_phase_but_matches_the_map(monkeypatch):
    """find_rings never maps the phase: it evaluates the coarse scan and the
    rows of its maxima with _pair_intensity_at, and each value is
    |pair_complex|^2 at the same point within intensity_bound (the coarse
    scan's, on grid points, is intensity_map's there).  Both are
    |U1 e^{i Theta1} + U2 e^{i Theta2}|^2 from the same U1 and U2: the
    kernel rounds the phase difference Delta as a row term plus
    rho^2 (kappa1 - kappa2), the map Theta1 and Theta2 apart, each off by
    at most 4 eps A for the phase scale A, and the complex sum, modulus and
    square of the map round by eps-sized parts of (|U1| + |U2|)^2."""
    p = pair()
    region = lattice_region(p)
    assert region.axis1.size * region.axis2.size > BLOCK_POINTS
    want = intensity_map(p, region)
    seen = []

    def recorded(pair_, grid, rho, z):
        assert grid is region
        seen.append((superpose._pair_intensity_at(pair_, grid, rho, z), rho, z))
        return seen[-1][0]

    def no_phase(*args):
        raise AssertionError("find_rings mapped the phase")

    with monkeypatch.context() as mp:
        mp.setattr(superpose, "_phase_of", no_phase)
        mp.setattr(ring_analysis, "_pair_intensity_at", recorded)
        assert find_rings(p, region).rings
    assert len(seen) == 2
    (coarse, rho, z), (profiles, rho_p, z_p) = seen
    rows, cols = np.searchsorted(region.axis2, z[:, 0]), np.searchsorted(region.axis1, rho[0])
    assert np.array_equal(region.axis2[rows], z[:, 0]) and np.array_equal(region.axis1[cols], rho[0])
    full = full_grid_points(region)
    bound, resolved = intensity_bound(p, full, region.time)
    assert resolved.all()
    assert np.all(np.abs(coarse - want.intensity[np.ix_(rows, cols)])
                  <= bound[np.ix_(rows, cols)])
    pt = superpose.CylPoint(rho=rho_p + 0.0 * z_p, phi=region.phi, z=z_p + 0.0 * rho_p)
    bound, _ = intensity_bound(p, pt, region.time)
    assert np.all(np.abs(profiles - np.abs(superpose.pair_complex(p, pt, region.time)) ** 2)
                  <= bound)


# ------------------------------------------ the full-map finder, as an oracle

# The full-map finder's ridge peaks must rise this far above their bases,
# relative to the ridge's maximum: the data are noise-free, so this only
# rejects float-level wiggles
RIDGE_PROMINENCE = 1e-6

def oracle_find_peaks(values, prominence=None, height=None):
    """The package's former 1-D peak finder, kept as the oracle of the
    row-wise _find_peaks: indices, in increasing order, of the peaks of a
    finite 1-D array, as scipy.signal.find_peaks defines them."""
    x = np.asarray(values, dtype=float)
    step = np.diff(x)
    if step.all():
        peaks = np.flatnonzero((step[:-1] > 0.0) & (step[1:] < 0.0)) + 1
    else:
        starts = np.flatnonzero(np.concatenate(([True], step != 0.0)))
        level = x[starts]
        runs = np.flatnonzero((level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])) + 1
        peaks = (starts[runs] + starts[runs + 1] - 1) // 2
    if height is not None:
        peaks = peaks[x[peaks] >= height]
    if prominence is None or peaks.size == 0:
        return peaks
    valley = np.minimum.reduceat(x, np.concatenate(([0], peaks)))
    keep = x[peaks] - np.maximum(valley[:-1], valley[1:]) >= prominence
    for k in np.flatnonzero(~keep):
        p = peaks[k]
        top = x[p]
        higher = np.flatnonzero(x[:p] > top)
        left = x[higher[-1] + 1 if higher.size else 0:p + 1].min()
        higher = np.flatnonzero(x[p:] > top)
        right = x[p:p + higher[0] if higher.size else x.size].min()
        keep[k] = top - max(left, right) >= prominence
    return peaks[keep]


def oracle_refine_row(axis, values, idx):
    """The package's former scalar parabolic refinement, kept as the
    oracle's: (position, value) of the vertex through the samples idx - 1,
    idx, idx + 1, or the sample at a border or if not concave."""
    x0, y0 = axis[idx], values[idx]
    den = values[idx - 1] - 2.0 * y0 + values[idx + 1] if 0 < idx < values.size - 1 else 0.0
    if den >= 0.0:
        return x0, y0
    diff = values[idx - 1] - values[idx + 1]
    return x0 + 0.5 * (axis[idx + 1] - x0) * diff / den, y0 - 0.125 * diff ** 2 / den


def full_intensity(pair, region):
    """The finder's kernel, _pair_intensity_at, on every point of the region."""
    return superpose._pair_intensity_at(pair, region, region.axis1[None, :],
                                        region.axis2[:, None])


def full_map_find_rings(pair, region, map_fn=full_intensity):
    """find_rings as it was before the coarse scan: one map of the whole
    region (by map_fn, full_intensity by default), its ridge and first
    argmax in every row, then the same peak, refinement and splitting
    steps, one ring at a time with the frozen 1-D peak finder and scalar
    refinement.  The package's finder must give its repr, errors
    included."""
    b = pair.beam1
    if region.kind != "rho_z":
        raise ResolutionError("ring detection needs a rho_z region")
    dz_max = b.wavelength / 20.0
    drho_max = b.waist_w0 / 100.0
    dz, drho = region.spacing2, region.spacing1
    if dz > dz_max * (1.0 + 1e-9) or drho > drho_max * (1.0 + 1e-9):
        raise ResolutionError(
            f"grid spacing (drho={drho:.3e} m, dz={dz:.3e} m) too coarse; "
            f"need drho <= {drho_max:.3e} m and dz <= {dz_max:.3e} m")
    half_d = 0.5 * pair.separation_d
    if region.axis2[0] > -half_d + dz or region.axis2[-1] < half_d - dz:
        raise ResolutionError("region must cover |z| <= d/2 between the foci")

    intensity = map_fn(pair, region)
    ridge_idx = np.argmax(intensity, axis=1)
    rows = np.arange(intensity.shape[0])
    ridge_val = intensity[rows, ridge_idx]

    find_peaks_ = oracle_find_peaks
    refine = oracle_refine_row
    peak_rows = find_peaks_(ridge_val, prominence=RIDGE_PROMINENCE * ridge_val.max())
    if peak_rows.size == 0:
        raise RingDetectionError("no interference maxima found in the region")

    z_axis, rho_axis = region.axis2, region.axis1
    raw = []
    for j in peak_rows:
        z_ref, i_ref = refine(z_axis, ridge_val, j)
        rho_ref, _ = refine(rho_axis, intensity[j], ridge_idx[j])
        raw.append((z_ref, rho_ref, i_ref, j))

    z_vals = np.array([item[0] for item in raw])
    if z_vals.size >= 2:
        gaps = np.diff(z_vals)
        near = (np.abs(z_vals[:-1]) <= 0.5 * half_d) & (np.abs(z_vals[1:]) <= 0.5 * half_d)
        fringe_delta = float(np.median(gaps[near] if np.any(near) else gaps))
    else:
        fringe_delta = float("nan")

    central_tol = max(1.5 * dz, 0.51 * fringe_delta) if math.isfinite(fringe_delta) \
        else 1.5 * dz
    nearest = int(np.argmin(np.abs(z_vals)))

    rings, splittings = [], []
    for n, (z_ref, rho_ref, i_ref, j) in enumerate(raw):
        central = (n == nearest) and abs(z_ref) <= central_tol
        rings.append(ring_analysis.Ring(z_pos=float(z_ref), radius=float(rho_ref),
                                        peak_intensity=float(i_ref),
                                        classification="central" if central else "double"))
        if central:
            continue
        profile = intensity[j]
        cand = find_peaks_(profile, prominence=ring_analysis.SPLIT_PROMINENCE * profile.max(),
                           height=ring_analysis.SPLIT_HEIGHT * profile.max())
        if cand.size < 2:
            continue
        top = cand[np.argsort(profile[cand])[-2:]]
        radii = sorted(refine(rho_axis, profile, i)[0] for i in top)
        splittings.append(ring_analysis.RingSplit(
            z_pos=float(z_ref), delta_rho=float(radii[1] - radii[0]),
            r_inner=float(radii[0]), r_outer=float(radii[1])))

    return ring_analysis.RingSet(rings=rings, fringe_delta=fringe_delta, splittings=splittings)


def finder_outcome(finder, p, region):
    """The finder's RingSet, or its error as type and text."""
    try:
        return finder(p, region)
    except VortexLatticeError as exc:
        return f"{type(exc).__name__}: {exc}"


def visibility(p, z, rho):
    """Fringe visibility V = 2 |U1 U2| / (U1^2 + U2^2) at (rho, phi = 0, z):
    1 where the two beams are equally bright there, 0 where one is dark."""
    pt = CylPoint(rho=np.asarray(rho, dtype=float), phi=0.0, z=np.asarray(z, dtype=float))
    u1, u2 = mode_amplitude(p.beam1, pt), mode_amplitude(p.beam2, pt)
    den = u1 * u1 + u2 * u2
    return np.where(den > 0.0, 2.0 * np.abs(u1 * u2) / np.where(den > 0.0, den, 1.0), 0.0)


def row_of(region, z):
    """The grid row nearest z: where the full-map finder reads a ring, whose
    parabolic z lies within half a row of it."""
    return region.axis2[int(np.rint((z - region.axis2[0]) / region.spacing2))]


def crest_radius(p, region, rho, z):
    """The radius of the maximum of I(., z) nearest rho, to 1e-4 of a
    radial cell, or None where it is not within 8 cells: a ring followed
    along its crest to the row z."""
    drho = region.spacing1

    def dim(r):
        pt = CylPoint(rho=np.array([r]), phi=region.phi, z=np.array([z]))
        return -superpose._pair_intensity(p, pt, region.time)[0]

    lo, hi = max(rho - 8.0 * drho, region.axis1[0]), rho + 8.0 * drho
    x = minimize_scalar(dim, bounds=(lo, hi), method="bounded", options={"xatol": 1e-4 * drho}).x
    if lo == region.axis1[0] and x < lo + 1e-2 * drho:
        return lo
    return x if lo + 1e-2 * drho < x < hi - 1e-2 * drho else None


def near_on_the_crest(p, region, mine, theirs, z):
    """Whether the full-map finder's radius ``theirs``, read in the grid
    row of its ring at z, is within one radial cell of the radius ``mine``
    of find_rings followed along its crest to that row."""
    there = crest_radius(p, region, mine, row_of(region, z))
    return there is not None and abs(there - theirs) <= region.spacing1


def lattice_rings(p, region, rings):
    """Which rings are lattice rings: visibility V >= 0.5 (a fringe
    maximum's z is ill-conditioned where V is low) and more than a row from
    the region's z ends (a maximum there is no peak of a grid row)."""
    dz = region.spacing2
    z = np.array([r.z_pos for r in rings])
    return (visibility(p, z, [r.radius for r in rings]) >= 0.5) \
        & (z > region.axis2[0] + dz) & (z < region.axis2[-1] - dz)


def one_to_one(z_from, z_to, dz):
    """For each z of z_from, the index of the nearest z of z_to within dz;
    asserts there is one and that no index is taken twice."""
    z_to = np.asarray(z_to)
    got = []
    for z in z_from:
        near = np.flatnonzero(np.abs(z_to - z) <= dz)
        assert near.size, f"nothing within {dz:.3e} m of z = {z:.6e} m"
        got.append(near[np.argmin(np.abs(z_to[near] - z))])
    assert len(set(got)) == len(got)
    return got


def split_by_the_rule(p, region, ring):
    """The splitting rule at a ring's own z, from scipy on 64 samples per
    radial cell of that row: the radius of the ring's partner, the
    brightest peak but the ring's that reaches SPLIT_HEIGHT of the row's
    top and rises SPLIT_PROMINENCE of it above the higher of its bases, or
    False where there is none.  None where the sampling cannot decide: a
    peak's height or prominence, over the top, within 1e-3 of its
    threshold, or the two brightest passing peaks within 1e-3 of the top
    of each other."""
    rho = np.linspace(region.axis1[0], region.axis1[-1], 64 * (region.axis1.size - 1) + 1)
    row = superpose._pair_intensity(p, CylPoint(rho=rho, phi=region.phi, z=ring.z_pos),
                                    region.time)
    top = row.max()
    peaks = find_peaks(row)[0]
    peaks = peaks[np.abs(rho[peaks] - ring.radius) > region.spacing1]
    height, prominence = row[peaks] / top, peak_prominences(row, peaks)[0] / top
    if np.any(np.abs(height - ring_analysis.SPLIT_HEIGHT) < 1e-3) \
            or np.any(np.abs(prominence - ring_analysis.SPLIT_PROMINENCE) < 1e-3):
        return None
    passes = np.sort(height[(height >= ring_analysis.SPLIT_HEIGHT)
                            & (prominence >= ring_analysis.SPLIT_PROMINENCE)])
    if passes.size >= 2 and passes[-1] - passes[-2] < 1e-3:
        return None
    return rho[peaks][height == passes[-1]][0] if passes.size else False


def assert_split_is_the_rules(p, region, ring, split):
    """find_rings' splitting (or None) at a ring is the rule's decision at
    the ring's z (split_by_the_rule), the partner within one radial cell,
    where the rule decides; returns whether it decides."""
    rule = split_by_the_rule(p, region, ring)
    if rule is None:
        return False
    if split is None:
        assert rule is False
    else:
        partner = split.r_outer if split.r_inner == ring.radius else split.r_inner
        assert rule is not False and abs(partner - rule) <= region.spacing1
    return True


def assert_near_the_oracle(p, region, want=None):
    """find_rings against the full-map finder (``want``, its RingSet where
    already found): the same error text, or

    - its lattice rings (``lattice_rings``) one to one with rings of
      find_rings within one grid cell in z, and for radial_p = 0 the other
      way round too: with p > 0 a lobe's fringe maximum can be its row's
      brightest over less than a row before another lobe's outshines it, a
      ring the grid's ridge cannot resolve;
    - the radius of each such ring within one radial cell of find_rings'
      ring followed along its crest to the full-map finder's row
      (``near_on_the_crest``): that finder reads the radius in the grid row
      of its ridge peak, up to half a row from the ring, which on a tilted
      crest moves it by several radial cells (the xfail
      test_radii_are_within_one_cell_of_the_full_map_finders measures it);
    - its splittings one to one with those of find_rings within one cell in
      z, r_inner and r_outer within one radial cell as the radii; where the
      two finders differ at a ring of find_rings, in whether it splits or
      in the partner, find_rings takes the rule's decision at the ring's
      own z (``assert_split_is_the_rules``) and the full-map finder the
      decision at its grid row: when two lobes are about as bright, or the
      partner's prominence is near SPLIT_PROMINENCE, half a row decides;
    - the same number of central rings, z within one cell, and the fringe
      spacing within one cell.

    Returns find_rings' RingSet as its repr, or its error as type and
    text."""
    got = finder_outcome(find_rings, p, region)
    if want is None:
        want = finder_outcome(full_map_find_rings, p, region)
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
        return got
    dz = region.spacing2
    z_got = np.array([r.z_pos for r in got.rings])
    lattice = [r for r, on in zip(want.rings, lattice_rings(p, region, want.rings)) if on]
    for r, k in zip(lattice, one_to_one([r.z_pos for r in lattice], z_got, dz)):
        assert near_on_the_crest(p, region, got.rings[k].radius, r.radius, r.z_pos)
    if not p.beam1.radial_p:
        one_to_one(z_got[lattice_rings(p, region, got.rings)], [r.z_pos for r in want.rings], dz)
    split_of = {s.z_pos: s for s in got.splittings}
    seen = set()
    for s in want.splittings:
        near = np.flatnonzero(np.abs(z_got - s.z_pos) <= dz)
        if not near.size:
            continue        # a ring only the full-map finder reports
        ring = got.rings[near[np.argmin(np.abs(z_got[near] - s.z_pos))]]
        t = split_of.get(ring.z_pos)
        assert ring.z_pos not in seen
        seen.add(ring.z_pos)
        if t is None or not all(near_on_the_crest(p, region, mine, theirs, s.z_pos)
                                for mine, theirs in ((t.r_inner, s.r_inner),
                                                     (t.r_outer, s.r_outer))):
            assert_split_is_the_rules(p, region, ring, t)
    for ring in got.rings:
        if ring.z_pos in split_of and ring.z_pos not in seen:
            assert_split_is_the_rules(p, region, ring, split_of[ring.z_pos])
    central = [[r.z_pos for r in rs.rings if r.classification == "central"] for rs in (got, want)]
    assert len(central[0]) == len(central[1])
    assert all(abs(a - b) <= dz for a, b in zip(*central))
    assert math.isnan(got.fringe_delta) == math.isnan(want.fringe_delta)
    assert not abs(got.fringe_delta - want.fringe_delta) > dz
    return repr(got)


# ------------------------------------ the finder on the amplitude map squared

def amplitude_squared(pair, region):
    """The finder's map before the intensity kernel: the total amplitude
    squared."""
    return intensity_map(pair, region).intensity


def rings_and_rows(p, region, intensity_map_fn):
    """The full-map finder with its map made by intensity_map_fn, that map's
    ridge, the rows of the ridge peaks, found as the finder finds them, and
    the indices of the rings with a splitting."""
    maps = []

    def recorded(*args, **kwargs):
        maps.append(intensity_map_fn(*args, **kwargs))
        return maps[-1]

    rings = full_map_find_rings(p, region, map_fn=recorded)
    [intensity] = maps
    ridge = intensity.max(axis=1)
    rows = oracle_find_peaks(ridge, prominence=RIDGE_PROMINENCE * ridge.max())
    assert rows.size == len(rings.rings)
    split_z = {s.z_pos for s in rings.splittings}
    return rings, ridge, rows, [n for n, r in enumerate(rings.rings) if r.z_pos in split_z]


def close(a, b):
    """a equals b within 1e-12 of b's largest |value|."""
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    return a.shape == b.shape and np.all(np.abs(a - b) <= 1e-12 * np.max(np.abs(b), initial=0.0))


def assert_same_rings(p, region):
    """find_rings is within one cell of the full-map finder on the intensity
    kernel, and that finder and the same finder on the amplitude map squared
    give the same peak rows,
    ring classes and splitting rows, and every value within 1e-12 of its
    column's largest |value|.  A peak between two ridge rows that tie to
    rounding, as the central ring of a grid symmetric about z = 0 with an
    even row count, may sit on either row."""
    got, _, got_rows, got_split = rings_and_rows(p, region, full_intensity)
    assert_near_the_oracle(p, region, got)
    want, ridge, want_rows, want_split = rings_and_rows(p, region, amplitude_squared)
    assert want.rings
    assert got_rows.size == want_rows.size
    moved = got_rows != want_rows
    assert np.all(np.abs(got_rows - want_rows)[moved] == 1)
    assert close(ridge[got_rows[moved]], ridge[want_rows[moved]])
    assert [r.classification for r in got.rings] == [r.classification for r in want.rings]
    assert got_split == want_split
    for name in ("z_pos", "radius", "peak_intensity"):
        assert close([getattr(r, name) for r in got.rings], [getattr(r, name) for r in want.rings])
    for name in ("z_pos", "delta_rho", "r_inner", "r_outer"):
        assert close([getattr(s, name) for s in got.splittings],
                     [getattr(s, name) for s in want.splittings])
    assert close([got.fringe_delta], [want.fringe_delta])


@pytest.mark.parametrize("case", ["lattice", "split"])
def test_find_rings_matches_the_amplitude_squared(case):
    """Multi-block lattices, one without and one with resolved splittings."""
    p = pair() if case == "lattice" else split_pair()
    region = lattice_region(p) if case == "lattice" else split_region()
    assert region.axis1.size * region.axis2.size > BLOCK_POINTS
    assert_same_rings(p, region)


# ------------------------------------------ the drift tracker against scipy

def scipy_peaks(values, **kw):
    return find_peaks(values, **kw)[0]


def _outcome(fn, *args):
    """fn's result, or its error, in a form compared exactly."""
    try:
        return fn(*args)
    except RingDetectionError as exc:
        return f"RingDetectionError: {exc}"


def oracle_axial_drift(pair, rho, t0, t1):
    """measure_axial_drift as it was with the package's copy of scipy's peak
    finder and its parabola refiner: scipy.signal.find_peaks and
    oracle_refine_row on the same 1201 samples of the line."""
    half_span = 1.5 * np.pi / pair.beam1.wavenumber
    z = np.linspace(-half_span, half_span, 1201)

    def peak_near_center(t):
        amp = total_amplitude(pair, CylPoint(rho=rho, phi=0.0, z=z), t=t)
        intensity = amp * amp
        cand = scipy_peaks(intensity)
        if cand.size == 0:
            raise RingDetectionError("no fringe maximum on the sampling line")
        return oracle_refine_row(z, intensity, cand[np.argmin(np.abs(z[cand]))])[0]

    return (peak_near_center(t1) - peak_near_center(t0)) / (t1 - t0)


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
    """find_rings makes no peak search, and the full-map finder with
    scipy's peak search in place of its frozen one is within one cell of
    it."""
    p, region = case
    assert find_rings(p, region).rings
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys.modules[__name__], "oracle_find_peaks", scipy_peaks)
        assert_near_the_oracle(p, region)


@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(case=paper_lattices())
def test_find_rings_matches_the_amplitude_squared_on_paper_lattices(case):
    assert_same_rings(*case)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(l=st.integers(1, 80), sign=signs, w0=st.floats(3.0, 20.0),
       d=st.floats(0.0, 10.0), dw=st.floats(1e2, 1e6), rho=st.floats(0.5, 1.5),
       t0=st.floats(0.0, 1e-3))
def test_measure_axial_drift_same_with_scipy_peaks(l, sign, w0, d, dw, rho, t0):
    """The drift, or its error, is the scipy oracle's bit for bit: the
    tracker's maxima are scipy's on the line's samples, and its vertex the
    frozen refinement's."""
    p = PairSpec(WAVELENGTH, w0 * WAVELENGTH, l1=sign * l,
                 separation_d=d * w0 * WAVELENGTH,
                 delta_omega=sign * dw)
    rho_probe = rho * ring_radius_formula(p, 0.0)
    t1 = t0 + suggested_sample_dt(p)
    ours = _outcome(measure_axial_drift, p, rho_probe, t0, t1)
    theirs = _outcome(oracle_axial_drift, p, rho_probe, t0, t1)
    assert repr(ours) == repr(theirs)


# --------------------------------- the finder against the full-map oracle

def fixture_case(case):
    if case == "ring_lattice":
        cfg = RunConfig.from_file(REPO / "configs" / "ring_lattice.json")
        return cfg.pair, cfg.rings_grid
    if case == "split":
        return split_pair(), split_region()
    if case == "split_cut":
        return split_pair(), split_region(rho_max=21.0)
    p = {"lattice": pair(), "single": pair(amp2=0.0), "dark": pair(amp1=0.0, amp2=0.0)}[case]
    if case == "single":
        return p, lattice_region(p, z_half=24.0, n_z=961)
    return p, lattice_region(p)


@pytest.mark.parametrize("case", ["ring_lattice", "split", "single"])
def test_find_rings_forms_no_field_gradient_and_no_phase(case, monkeypatch):
    """The polish reads I and grad I from superpose._intensity_slope, built
    from each beam's amplitude half and the phase difference's rows: with
    the full force model's field gradient (superpose._pair_gradient) and a
    mode's phase (lg_mode.mode_phase, which the jet calls, and superpose's
    name for it) made to raise, find_rings returns the same rings."""
    p, region = fixture_case(case)
    want = find_rings(p, region).to_json_dict()

    def refused(*args, **kwargs):
        raise AssertionError("find_rings formed a field gradient or a phase")

    for module, name in ((superpose, "_pair_gradient"), (lg_mode, "mode_phase"),
                         (superpose, "mode_phase")):
        monkeypatch.setattr(module, name, refused)
    assert find_rings(p, region).to_json_dict() == want


@pytest.mark.parametrize("case", ["ring_lattice", "lattice", "split", "split_cut", "single",
                                  "dark"])
def test_find_rings_is_the_full_map_finder(case):
    """configs/ring_lattice.json's 420 x 6000 rings_grid and the fixtures:
    the lattice, the resolved splittings, on the full region and cut short
    past the outer rings, one beam switched off (one ring, no fringe
    spacing) and both off (every row 0)."""
    p, region = fixture_case(case)
    got = assert_near_the_oracle(p, region)
    assert got.startswith("RingDetectionError: " if case == "dark" else "RingSet(")
    if case.startswith("split"):
        assert "RingSplit(" in got


def radius_gaps(p, region):
    """The largest gaps, in radial cells, between the full-map finder's
    radii and find_rings' as they stand, not followed along the crest: of
    the lattice rings, and of r_inner and r_outer of the splittings at the
    same rings."""
    got, want = find_rings(p, region), full_map_find_rings(p, region)
    dz, drho = region.spacing2, region.spacing1
    lattice = [r for r, on in zip(want.rings, lattice_rings(p, region, want.rings)) if on]
    at = one_to_one([r.z_pos for r in lattice], [r.z_pos for r in got.rings], dz)
    rings = max(abs(got.rings[k].radius - r.radius) for r, k in zip(lattice, at)) / drho
    split_of = {s.z_pos: s for s in got.splittings}
    splits = [0.0]
    for s in want.splittings:
        t = [split_of[r.z_pos] for r in got.rings
             if abs(r.z_pos - s.z_pos) <= dz and r.z_pos in split_of]
        splits += [max(abs(t[0].r_inner - s.r_inner), abs(t[0].r_outer - s.r_outer)) / drho] if t else []
    return rings, max(splits)


@pytest.mark.parametrize("case", [
    pytest.param("ring_lattice", marks=pytest.mark.xfail(strict=True, reason=(
        "ring radii up to 2.32 radial cells and splitting radii up to 1.41 cells from the "
        "full-map finder's, by the crests' tilt"))),
    pytest.param("lattice", marks=pytest.mark.xfail(strict=True, reason=(
        "ring radii up to 3.12 radial cells from the full-map finder's, by the crests' tilt"))),
    pytest.param("split", marks=pytest.mark.xfail(strict=True, reason=(
        "ring radii up to 4.11 radial cells and splitting radii up to 2.10 cells from the "
        "full-map finder's, by the crests' tilt"))),
])
def test_radii_are_within_one_cell_of_the_full_map_finders(case):
    """The radius clause of the oracle criterion as first written: lattice
    rings, and the splittings at them, within one radial cell of the
    full-map finder's radii as they stand.  It does not hold: that finder
    reads a ring's radius in the grid row of its ridge peak, up to half a
    row from the ring, and where the crest is tilted the crest's radius
    there differs from the ring's by several radial cells.  Followed along
    the crest to that row, find_rings' radii are within 0.003 cells of the
    full-map finder's on these cases (assert_near_the_oracle binds one
    cell)."""
    rings, splits = radius_gaps(*fixture_case(case))
    assert rings <= 1.0 and splits <= 1.0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=lattices())
def test_find_rings_is_the_full_map_finder_on_generated_lattices(case):
    """Generated l, p <= 2, d, delta_omega, phi and time, each region at the
    finder's resolution limits."""
    p, region = case
    assert_near_the_oracle(p, region)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=paper_lattices())
def test_find_rings_is_the_full_map_finder_on_paper_lattices(case):
    assert_near_the_oracle(*case)


def test_find_rings_raises_where_the_far_field_is_not_finite():
    """A thin region around 19122 w0 at p = 40 and d = 0, where the
    Laguerre factor overflows in the outer quarter (from about 19122.24 w0
    on): the finder, which scans each row's last column, where
    x = 2 rho^2 / w^2 is largest, raises the full map's
    DegenerateGeometryError with the same text.  Numpy's overflow warnings
    are silenced; as errors they would come first."""
    p = PairSpec(WAVELENGTH, 3e-6, l1=1, radial_p=40)
    w0 = p.beam1.waist_w0
    region = GridSpec.rho_z(rho_min=19121.5 * w0, rho_max=19122.5 * w0, n_rho=1001,
                            z_min=0.0, z_max=WAVELENGTH / 400.0, n_z=2)
    assert ring_analysis._coarse_stride(p, region) > 1
    with np.errstate(over="ignore", invalid="ignore"):
        got = assert_near_the_oracle(p, region)
    assert got.startswith("DegenerateGeometryError: map intensity is not finite")


def test_rings_command_writes_the_full_map_finders_rings(tmp_path, monkeypatch):
    """`rings` on configs/ring_lattice.json writes the same files with the
    package's finder as with the full-map oracle in its place.  Each side's
    files are its RingSet (rings.json, and the splittings' z, r_inner and
    r_outer in ring_comparison.csv) and compare_rings of that RingSet
    (the rest of ring_comparison.csv and rings_summary.json, bit for bit),
    and the two RingSets agree as assert_near_the_oracle asks."""
    config = str(REPO / "configs" / "ring_lattice.json")
    cfg = RunConfig.from_file(config)
    assert main(["rings", "--config", config, "--out", str(tmp_path / "finder")]) == 0
    monkeypatch.setattr(cli, "find_rings", full_map_find_rings)
    assert main(["rings", "--config", config, "--out", str(tmp_path / "oracle")]) == 0
    names = sorted(path.name for path in (tmp_path / "finder").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "oracle").iterdir())
    assert "ring_comparison.csv" in names
    sets = []
    for side in ("finder", "oracle"):
        rings = json.loads((tmp_path / side / "rings.json").read_text())
        rows = np.loadtxt(tmp_path / side / "ring_comparison.csv", delimiter=",", skiprows=1,
                          ndmin=2)
        ringset = RingSet(
            rings=[Ring(r["z"], r["radius"], r["peak"], r["class"]) for r in rings["rings"]],
            fringe_delta=rings["fringe_delta"],
            splittings=[RingSplit(z, r_o - r_i, r_i, r_o) for z, r_i, r_o in rows[:, :3]])
        assert rings == ringset.to_json_dict()
        want_rows, want_summary = compare_rings(cfg.pair, ringset)
        assert np.array_equal(rows, want_rows)
        summary = json.loads((tmp_path / side / "rings_summary.json").read_text())
        assert summary == json.loads(json.dumps(want_summary))
        sets.append(ringset)
    assert sets[0] == find_rings(cfg.pair, cfg.rings_grid)
    assert_near_the_oracle(cfg.pair, cfg.rings_grid, sets[1])


# ------------------------------------------ the polished rings themselves

@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(l=st.integers(1, 80), sign=signs, w0=st.floats(3.0, 6.0), d=st.floats(0.0, 10.0))
def test_symmetric_pairs_central_ring_is_the_closed_form(l, sign, w0, d):
    """Equal beams, phi = 0 and t = 0: the pattern is even in z and on the
    midplane the two fields are equal, so the central ring sits at z = 0 on
    the beams' ring radius, central_ring_radius.  The polish finds it there,
    z within 1e-6 of a cell and the radius to 1e-9, which no grid point
    holds in general."""
    p = PairSpec(WAVELENGTH, w0 * WAVELENGTH, l1=sign * l, separation_d=d * w0 * WAVELENGTH)
    rho0 = central_ring_radius(p)
    w = waist_at(p.beam1, 0.5 * p.separation_d)
    half = 0.5 * p.separation_d + WAVELENGTH
    region = GridSpec.rho_z(rho_min=max(0.0, rho0 - 1.5 * w), rho_max=rho0 + 1.5 * w,
                            n_rho=math.ceil(3.0 * w / (p.beam1.waist_w0 / 100.0)) + 1,
                            z_min=-half, z_max=half,
                            n_z=math.ceil(2.0 * half / (WAVELENGTH / 20.0)) + 2)
    [central] = [r for r in find_rings(p, region).rings if r.classification == "central"]
    assert abs(central.z_pos) <= 1e-6 * region.spacing2
    assert central.radius == pytest.approx(rho0, rel=1e-9)


@pytest.mark.parametrize("case", ["ring_lattice", "lattice", "split", "single"])
def test_rings_are_polished_maxima(case):
    """Every ring is a local maximum of _pair_intensity, and every splitting
    radius one along rho at its ring's z: each probe 0.01 of a cell away,
    in rho and (for rings) in z, is dimmer.  A ring whose visibility is
    below 1e-3 has a fringe too faint for its z probes to tell from the
    envelope's slope, so only its rho probes bind."""
    p, region = fixture_case(case)
    rings = find_rings(p, region)
    dz, drho = region.spacing2, region.spacing1

    def intensity(rho, z):
        pt = CylPoint(rho=np.asarray(rho, dtype=float), phi=region.phi,
                      z=np.asarray(z, dtype=float))
        return superpose._pair_intensity(p, pt, region.time)

    z = np.array([r.z_pos for r in rings.rings])
    rho = np.array([r.radius for r in rings.rings])
    top = intensity(rho, z)
    inside = (rho - 0.01 * drho >= region.axis1[0]) & (rho + 0.01 * drho <= region.axis1[-1])
    for step in (-0.01 * drho, 0.01 * drho):
        assert np.all(intensity(rho + step, z)[inside] < top[inside])
    faint = visibility(p, z, rho) < 1e-3
    for step in (-0.01 * dz, 0.01 * dz):
        assert np.all(intensity(rho, z + step)[~faint] < top[~faint])
    for split in rings.splittings:
        for r in (split.r_inner, split.r_outer):
            assert intensity(r - 0.01 * drho, split.z_pos) < intensity(r, split.z_pos)
            assert intensity(r + 0.01 * drho, split.z_pos) < intensity(r, split.z_pos)
    if case.startswith("split"):
        assert rings.splittings


@pytest.mark.parametrize("case", ["ring_lattice", "lattice", "split", "split_cut"])
def test_every_ring_splits_as_the_rule_says_at_its_z(case):
    """At every ring but the central one, find_rings splits, and picks its
    partner, as scipy's peak heights and prominences on a row of 64
    samples per radial cell at the ring's z say (split_by_the_rule), the
    partner's prominence taken against the higher of its two bases, the
    far one running to a brighter point or the row's end; rings where the
    sampling cannot decide are skipped."""
    p, region = fixture_case(case)
    rings = find_rings(p, region)
    split_of = {s.z_pos: s for s in rings.splittings}
    decided = 0
    for ring in rings.rings:
        if ring.classification == "double":
            decided += assert_split_is_the_rules(p, region, ring, split_of.get(ring.z_pos))
    assert decided >= 0.9 * len(rings.rings) - 1
    if case == "split":
        assert rings.splittings


@pytest.mark.parametrize("case", ["ring_lattice", "split"])
def test_polish_ends_below_a_millionth_of_a_cell(case, monkeypatch):
    """Every ring and every splitting radius comes from a polish whose next
    step, where it ended, was below POLISH_TOL = 1e-6 of a cell in rho and
    z."""
    p, region = fixture_case(case)
    ended = []

    def recorded(*args, **kwargs):
        out = polish(*args, **kwargs)
        ended.append(out)
        return out

    polish = ring_analysis._polish
    monkeypatch.setattr(ring_analysis, "_polish", recorded)
    rings = find_rings(p, region)
    assert ring_analysis.POLISH_TOL == 1e-6
    points = np.concatenate(ended, axis=1)
    done = {(rho, z): last for rho, z, _, last in points.T}
    for r in rings.rings:
        assert done[(r.radius, r.z_pos)] < 1e-6
    for split in rings.splittings:
        assert all(done[(r, split.z_pos)] < 1e-6 for r in (split.r_inner, split.r_outer))


# ------------------------------------------ compare_rings on hand-built sets

def split_at(p, z, reading="midplane"):
    """A splitting at z whose radii are double_ring_radii's, with delta read
    from the midplane (|z|) or from a focal plane (d/2 - |z|)."""
    delta = abs(z) if reading == "midplane" else 0.5 * p.separation_d - abs(z)
    r_inner, r_outer = double_ring_radii(p, delta)
    return RingSplit(z_pos=z, delta_rho=r_outer - r_inner, r_inner=r_inner, r_outer=r_outer)


def ring_set(*splittings, rings=()):
    return RingSet(rings=list(rings), fringe_delta=float("nan"), splittings=list(splittings))


def test_compare_rings_keeps_every_splitting_off_the_midplane():
    """A splitting at z = 0 gives no row; each other, at a focus and past
    one included, gives z, its radii, double_ring_radii, its delta_rho and
    radial_separation, in order."""
    p = pair()
    half_d = 0.5 * p.separation_d
    kept = [split_at(p, -1.5 * half_d), split_at(p, -half_d), split_at(p, -3.0 * WAVELENGTH),
            split_at(p, 7.0 * WAVELENGTH), split_at(p, half_d), split_at(p, 1.5 * half_d)]
    rows, _ = compare_rings(p, ring_set(*kept[:3], RingSplit(0.0, 1e-7, 1e-6, 1.1e-6),
                                        *kept[3:]))
    want = []
    for split in kept:
        delta = abs(split.z_pos)
        want.append((split.z_pos, split.r_inner, split.r_outer, *double_ring_radii(p, delta),
                     split.delta_rho, *radial_separation(p, delta)))
    assert rows.shape == (6, 9)
    assert rows.tobytes() == np.array(want).tobytes()


def test_compare_rings_summary_reads_the_first_row_between_the_foci():
    """Rows at or past a focus come first in z, but the summary's delta
    reading and alpha are the first row's between the foci; with no such
    row it has neither, though the rows are kept."""
    p = pair()
    half_d = 0.5 * p.separation_d
    outside = [split_at(p, -1.5 * half_d), split_at(p, -half_d)]
    inside = [split_at(p, -5.0 * WAVELENGTH, "focal"), split_at(p, 9.0 * WAVELENGTH)]
    rows, summary = compare_rings(p, ring_set(*outside, *inside))
    assert rows.shape == (4, 9)
    assert summary["alpha_first_split"] == rows[2, 8] == radial_separation(
        p, 5.0 * WAVELENGTH).alpha
    assert summary["delta_reading"]["matching"] == "focal_plane_offset"
    assert summary["delta_reading"]["focal_plane_offset_err"] == 0.0
    rows, summary = compare_rings(p, ring_set(*outside))
    assert rows.shape == (2, 9)
    assert not {"delta_reading", "alpha_first_split", "alpha_lt_1"} & set(summary)


def test_compare_rings_without_rows_reads_no_offset():
    """With no splitting between midplane and foci (and no central ring)
    the summary holds the ring count, the spacings and the formula radius
    only: no delta_reading, alpha_* or central_* keys."""
    p = pair()
    rows, summary = compare_rings(p, ring_set(RingSplit(0.0, 1e-7, 1e-6, 1.1e-6),
                                              rings=[Ring(1e-6, 5e-6, 1.0, "double")]))
    assert rows.shape == (0, 9)
    assert summary == {"n_rings": 1, "fringe_delta": None,
                       "half_wavelength": math.pi / p.beam1.wavenumber,
                       "central_radius_formula": central_ring_radius(p)}


def test_rings_command_without_rows_writes_no_comparison(tmp_path, monkeypatch, capsys):
    """rings writes ring_comparison.csv only when there are rows; without
    it the metadata and the printed paths leave it out too."""
    central = Ring(0.0, 2.6e-5, 1.0, "central")
    monkeypatch.setattr(cli, "find_rings", lambda pair_, region: ring_set(rings=[central]))
    out = tmp_path / "out"
    assert main(["rings", "--config", str(REPO / "configs" / "ring_lattice.json"),
                 "--out", str(out)]) == 0
    names = ["rings.json", "rings_summary.json", "rings_metadata.json"]
    assert capsys.readouterr().out.splitlines() == [str(out / name) for name in names]
    assert sorted(path.name for path in out.iterdir()) == sorted(names)
    assert json.loads((out / "rings_metadata.json").read_text())["outputs"] == names[:2]
    summary = json.loads((out / "rings_summary.json").read_text())
    assert (summary["central_z"], summary["central_radius"]) == (0.0, 2.6e-5)
    assert not {"delta_reading", "alpha_first_split", "alpha_lt_1"} & set(summary)


@pytest.mark.parametrize("reading, matching", [("midplane", "midplane_offset"),
                                               ("focal", "focal_plane_offset")])
def test_compare_rings_reads_delta_the_way_the_first_split_matches(reading, matching):
    """The first row's radii are compared with double_ring_radii at |z| and
    at d/2 - |z|; the verdict names the reading that matches (the later
    rows do not count)."""
    p = pair()
    first = split_at(p, -5.0 * WAVELENGTH, reading)
    _, summary = compare_rings(p, ring_set(first, split_at(p, 9.0 * WAVELENGTH)))
    got = summary["delta_reading"]
    assert got["matching"] == matching
    errs = {"midplane": got["midplane_offset_err"], "focal": got["focal_plane_offset_err"]}
    assert errs.pop(reading) == 0.0
    assert errs.popitem()[1] > 0.1


def test_compare_rings_has_no_focal_reading_where_it_rounds_onto_the_focus():
    """So near the midplane that d/2 - |z| rounds to d/2, the focal-plane
    reading does not read like |z| (it names the focus, not an offset
    inside it): the midplane reading stands alone, with no verdict."""
    p = pair()
    _, summary = compare_rings(p, ring_set(split_at(p, 1e-30)))
    assert 0.5 * p.separation_d - 1e-30 == 0.5 * p.separation_d
    assert summary["delta_reading"] == {"midplane_offset_err": 0.0}


@pytest.mark.parametrize("l1, lt_1", [(4, True), (80, False)])
def test_compare_rings_alpha_is_the_first_splits(l1, lt_1):
    """alpha_first_split is radial_separation's alpha at the first row's
    |z|, and alpha_lt_1 says whether those rings merge optically."""
    p = pair(l1=l1)
    z = 10.0 * WAVELENGTH
    rows, summary = compare_rings(p, ring_set(split_at(p, z), split_at(p, 1.5 * z)))
    assert summary["alpha_first_split"] == rows[0, 8] == radial_separation(p, z).alpha
    assert summary["alpha_lt_1"] is lt_1
