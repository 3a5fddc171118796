import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import find_peaks

from test_config_cli import REPO
from test_properties import intensity_bound, lattices
from test_superpose import full_grid_points
from vortexlattice import cli, ring_analysis, superpose
from vortexlattice.atom_forces import central_ring_radius, lift_speed
from vortexlattice.cli import main
from vortexlattice.config import RunConfig
from vortexlattice.errors import (DegenerateGeometryError, ResolutionError,
                                  RingDetectionError, VortexLatticeError)
from vortexlattice.lg_mode import waist_at
from vortexlattice.output import write_outputs
from vortexlattice.ring_analysis import (Ring, RingSet, RingSplit, compare_rings,
                                         double_ring_radii, find_rings,
                                         fringe_drift_speed, measure_axial_drift,
                                         measure_rotation_rate,
                                         radial_separation, suggested_sample_dt)
from vortexlattice.superpose import BLOCK_POINTS, GridSpec, PairSpec, intensity_map

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


def test_find_rings_intensity_skips_the_phase_but_matches_the_map(monkeypatch):
    """find_rings never maps the phase: it evaluates the coarse columns, the
    windows and the peak rows with _pair_intensity_at, and each value it
    evaluates is intensity_map's at the same grid point within
    intensity_bound.  Both are
    |U1 e^{i Theta1} + U2 e^{i Theta2}|^2 from the same U1 and U2: the
    kernel rounds the phase difference Delta as a row term plus
    rho^2 (kappa1 - kappa2), the map Theta1 and Theta2 apart, each off by
    at most 4 eps A for the phase scale A, and the complex sum, modulus and
    square of the map round by eps-sized parts of (|U1| + |U2|)^2."""
    p = pair()
    region = lattice_region(p)
    assert region.axis1.size * region.axis2.size > BLOCK_POINTS
    want = intensity_map(p, region)
    bound, resolved = intensity_bound(p, full_grid_points(region), region.time)
    assert resolved.all()

    def no_phase(*args):
        raise AssertionError("find_rings mapped the phase")

    with monkeypatch.context() as mp:
        mp.setattr(superpose, "_phase_of", no_phase)
        outcome, seen = finder_evaluations(p, region)
    assert outcome.startswith("RingSet(")
    assert len(seen) == 3
    for intensity, rows, cols in seen:
        assert np.all(np.abs(intensity - want.intensity[rows, cols]) <= bound[rows, cols])


# ------------------------------------------ the full-map finder, as an oracle

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
    """The package's former scalar parabolic refinement, kept as the oracle
    of the array _refine_row: (position, value) of the vertex through the
    samples idx - 1, idx, idx + 1, or the sample at a border or if not
    concave."""
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
    peak_rows = find_peaks_(ridge_val, prominence=ring_analysis.RIDGE_PROMINENCE * ridge_val.max())
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


def rings_repr(finder, p, region):
    """The finder's RingSet as its repr (every float's bits, NaN equal to
    NaN), or its error as type and text."""
    try:
        return repr(finder(p, region))
    except VortexLatticeError as exc:
        return f"{type(exc).__name__}: {exc}"


def assert_finder_is_the_oracle(p, region):
    got = rings_repr(find_rings, p, region)
    assert got == rings_repr(full_map_find_rings, p, region)
    return got


def finder_evaluations(p, region):
    """find_rings' outcome (as rings_repr) and every evaluation it made
    with _pair_intensity_at, as (values, row indices, column indices) of
    region's grid: the coarse columns of every row, the windows, the peak
    rows."""
    seen = []

    def recorded_points(pair_, grid, rho, z):
        assert grid is region
        intensity = superpose._pair_intensity_at(pair_, grid, rho, z)
        seen.append((intensity, rho, z))
        return intensity

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ring_analysis, "_pair_intensity_at", recorded_points)
        outcome = rings_repr(find_rings, p, region)
    indexed = []
    for intensity, rho, z in seen:
        rows, cols = np.searchsorted(region.axis2, z), np.searchsorted(region.axis1, rho)
        assert np.array_equal(region.axis2[rows], z) and np.array_equal(region.axis1[cols], rho)
        indexed.append((intensity, rows, cols))
    return outcome, indexed


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
    rows = oracle_find_peaks(ridge, prominence=ring_analysis.RIDGE_PROMINENCE * ridge.max())
    assert rows.size == len(rings.rings)
    split_z = {s.z_pos for s in rings.splittings}
    return rings, ridge, rows, [n for n, r in enumerate(rings.rings) if r.z_pos in split_z]


def close(a, b):
    """a equals b within 1e-12 of b's largest |value|."""
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    return a.shape == b.shape and np.all(np.abs(a - b) <= 1e-12 * np.max(np.abs(b), initial=0.0))


def assert_same_rings(p, region):
    """find_rings, which is the full-map finder on the intensity kernel, and
    the same finder on the amplitude map squared give the same peak rows,
    ring classes and splitting rows, and every value within 1e-12 of its
    column's largest |value|.  A peak between two ridge rows that tie to
    rounding, as the central ring of a grid symmetric about z = 0 with an
    even row count, may sit on either row."""
    got, _, got_rows, got_split = rings_and_rows(p, region, full_intensity)
    assert repr(got) == repr(find_rings(p, region))
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


@st.composite
def peak_row_cases(draw):
    """Up to 6 rows of up to 40 samples, all drawn from a few integer
    levels, and for each row a prominence and a height threshold, each
    absent or drawn from the same levels."""
    level = st.integers(0, draw(st.integers(1, 5))).map(float)
    n_rows, n = draw(st.integers(1, 6)), draw(st.integers(0, 40))
    row = st.lists(level, min_size=n, max_size=n)
    values = np.array(draw(st.lists(row, min_size=n_rows, max_size=n_rows)),
                      dtype=float).reshape(n_rows, n)
    thresholds = st.lists(st.none() | level, min_size=n_rows, max_size=n_rows)
    return values, draw(thresholds), draw(thresholds)


def per_row(thresholds):
    """The row-wise form of one threshold per row: None when every row has
    none, else an array with -inf, which keeps every peak, for a None."""
    if all(t is None for t in thresholds):
        return None
    return np.array([-np.inf if t is None else t for t in thresholds])


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(case=peak_row_cases())
def test_find_peaks_row_wise_matches_scipy(case):
    """Each row of the row-wise search is scipy's search on that row alone,
    with that row's thresholds, and the peaks come in row-major order."""
    values, prominence, height = case
    rows, cols = ring_analysis._find_peaks(values, prominence=per_row(prominence),
                                           height=per_row(height))
    assert np.all(np.diff(rows) >= 0)
    for r, row in enumerate(values):
        want = scipy_peaks(row, prominence=prominence[r], height=height[r])
        assert np.array_equal(cols[rows == r], want)


def scipy_row_peaks(values, prominence=None, height=None):
    """_find_peaks' contract, 1-D and row-wise, by scipy.signal.find_peaks
    on each row."""
    x = np.atleast_2d(np.asarray(values, dtype=float))
    limits = [[None] * len(x) if t is None else np.broadcast_to(t, x.shape[:1])
              for t in (prominence, height)]
    found = [scipy_peaks(row, prominence=prom, height=h) for row, prom, h in zip(x, *limits)]
    if np.ndim(values) == 1:
        return found[0]
    rows = np.repeat(np.arange(len(x)), [f.size for f in found])
    return rows, np.concatenate(found).astype(int)


def _outcome(fn, *args):
    """fn's result, or its error, in a form compared exactly."""
    try:
        return fn(*args)
    except RingDetectionError as exc:
        return f"RingDetectionError: {exc}"


def _with_scipy_peaks(fn, *args):
    """fn's outcome with every peak search made by scipy, and the number of
    dimensions of each searched array, in call order."""
    searched = []

    def recorded(values, **kw):
        searched.append(np.ndim(values))
        return scipy_row_peaks(values, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ring_analysis, "_find_peaks", recorded)
        return _outcome(fn, *args), searched


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
    theirs, searched = _with_scipy_peaks(lambda: find_rings(p, region).to_json_dict())
    assert ours == theirs
    # the ridge, then the profiles of all peak rows at once
    assert searched == [1, 2]


@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(case=paper_lattices())
def test_find_rings_matches_the_amplitude_squared_on_paper_lattices(case):
    assert_same_rings(*case)


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
    theirs, searched = _with_scipy_peaks(measure_axial_drift, p, rho_probe, t0, t1)
    assert ours == theirs
    # one line search at each time, or the first only if it found nothing
    assert searched == ([1] if isinstance(ours, str) else [1, 1])


# --------------------------------- the finder against the full-map oracle

def fixture_case(case):
    if case == "ring_lattice":
        cfg = RunConfig.from_file(REPO / "configs" / "ring_lattice.json")
        return cfg.pair, cfg.rings_grid
    if case == "split":
        return split_pair(), split_region()
    p = {"lattice": pair(), "single": pair(amp2=0.0), "dark": pair(amp1=0.0, amp2=0.0)}[case]
    if case == "single":
        return p, lattice_region(p, z_half=24.0, n_z=961)
    return p, lattice_region(p)


@pytest.mark.parametrize("case", ["ring_lattice", "lattice", "split", "single", "dark"])
def test_find_rings_is_the_full_map_finder(case):
    """configs/ring_lattice.json's 420 x 6000 rings_grid and the fixtures:
    the lattice, the resolved splittings, one beam switched off (one ring,
    no fringe spacing) and both off (every row 0)."""
    p, region = fixture_case(case)
    got = assert_finder_is_the_oracle(p, region)
    assert got.startswith("RingDetectionError: " if case == "dark" else "RingSet(")
    if case == "split":
        assert "RingSplit(" in got


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=lattices())
def test_find_rings_is_the_full_map_finder_on_generated_lattices(case):
    """Generated l, p <= 2, d, delta_omega, phi and time, each region at the
    finder's resolution limits."""
    p, region = case
    assert_finder_is_the_oracle(p, region)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=paper_lattices())
def test_find_rings_is_the_full_map_finder_on_paper_lattices(case):
    assert_finder_is_the_oracle(*case)


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
        got = assert_finder_is_the_oracle(p, region)
    assert got.startswith("DegenerateGeometryError: map intensity is not finite")


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(case=lattices())
def test_windows_and_coarse_grid_give_the_maps_bits(case):
    """Every value find_rings evaluates (the coarse grid of a column
    subset, the banded windows, the peak rows) has the bits of the kernel
    on the full grid at the same grid point: this is what makes the finder
    exact."""
    p, region = case
    full = full_intensity(p, region)
    outcome, seen = finder_evaluations(p, region)
    assert outcome.startswith("RingSet(") and len(seen) == 3
    for intensity, rows, cols in seen:
        assert np.array_equal(intensity, full[rows, cols])


def test_rings_command_writes_the_full_map_finders_bytes(tmp_path, monkeypatch):
    """`rings` on configs/ring_lattice.json writes the same rings.json,
    ring_comparison.csv and rings_summary.json with the package's finder as
    with the full-map oracle in its place."""
    config = str(REPO / "configs" / "ring_lattice.json")
    assert main(["rings", "--config", config, "--out", str(tmp_path / "finder")]) == 0
    monkeypatch.setattr(cli, "find_rings", full_map_find_rings)
    assert main(["rings", "--config", config, "--out", str(tmp_path / "oracle")]) == 0
    for name in ("rings.json", "ring_comparison.csv", "rings_summary.json"):
        got = (tmp_path / "finder" / name).read_bytes()
        assert got
        assert got == (tmp_path / "oracle" / name).read_bytes()


# ------------------------- the batched refinement and split choice, exactly

@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(values=st.lists(st.lists(st.integers(0, 3).map(float) | st.floats(0.0, 1e3),
                                min_size=5, max_size=5), min_size=1, max_size=4),
       scale=st.floats(1e-9, 1e3))
def test_refine_row_is_the_scalar_refinement(values, scale):
    """At every index of every row, borders and flat or convex triples
    included, the array refinement gives the frozen scalar one's bits, for
    a 1-D array and row-wise alike."""
    values = np.array(values)
    axis = scale * np.arange(values.shape[1])
    rows, cols = np.indices(values.shape)
    got = ring_analysis._refine_row(axis, values, rows, cols)
    want = [[oracle_refine_row(axis, row, c) for c in range(row.size)] for row in values]
    assert np.stack(got, axis=-1).tobytes() == np.array(want).tobytes()
    got = ring_analysis._refine_row(axis, values[0], cols[0])
    assert np.stack(got, axis=-1).tobytes() == np.array(want[0]).tobytes()


def test_refine_row_squares_as_numpy_scalars_do():
    """The vertex value squares the slope difference with libm's pow, as **
    did on the numpy scalars of the scalar refinement; an array's ** 2
    multiplies, which differs in the last bit for about 1 in 1200 random
    values, so 20000 concave rows of random samples tell the two apart."""
    values = np.random.default_rng(29).random((20000, 3)) + [0.0, 1.0, 0.0]
    axis = np.arange(3.0)
    got = ring_analysis._refine_row(axis, values, np.arange(len(values)), 1)
    want = [oracle_refine_row(axis, row, 1) for row in values]
    assert np.stack(got, axis=-1).tobytes() == np.array(want).tobytes()


def synthetic_finder_case(profiles):
    """A pair and region that pass find_rings' gates, with one ring per
    profile, and a map of that region in which every fourth row from row 2
    (the middle one at z = 0) is a ridge peak holding the next profile,
    scaled so that the ridge reads 3 at the peaks, 1 half-way and 2 between.
    Each other row holds its nearest peak row's profile, scaled likewise."""
    p = pair(d_factor=1.0)
    n_rings, n_rho = len(profiles), len(profiles[0])
    dz, drho = WAVELENGTH / 20.0, p.beam1.waist_w0 / 100.0
    region = GridSpec.rho_z(rho_min=WAVELENGTH, rho_max=WAVELENGTH + (n_rho - 1) * drho,
                            n_rho=n_rho, z_min=-2 * n_rings * dz, z_max=2 * n_rings * dz,
                            n_z=4 * n_rings + 1)
    rows = np.arange(region.axis2.size)
    ridge = 2.0 + np.cos(0.5 * np.pi * (rows - 2))
    nearest = np.minimum(rows // 4, n_rings - 1)
    shape = np.array(profiles, dtype=float)
    intensity = shape[nearest] * (ridge / shape.max(axis=1)[nearest])[:, None]
    return p, region, intensity


def finder_on_map(p, region, intensity):
    """find_rings with its kernel reading the given map and its coarse
    stride 1, so that its ridge is the map's; its RingSet, which must be the
    full-map oracle's on the same map."""
    def lookup(pair_, grid, rho, z):
        return intensity[np.searchsorted(grid.axis2, z), np.searchsorted(grid.axis1, rho)]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ring_analysis, "_pair_intensity_at", lookup)
        mp.setattr(ring_analysis, "_coarse_stride", lambda pair_, region_: 1)
        got = find_rings(p, region)
    assert repr(got) == repr(full_map_find_rings(p, region, lambda *_: intensity))
    return got


def bumps(*tops, width=40):
    """A profile of `width` samples: 0, then each top followed by 0."""
    out = np.zeros(width)
    out[1:2 * len(tops):2] = tops
    return out


SPLIT_EDGE_CASES = {
    "equal_top_two": bumps(0, 5, 0, 5),
    "one_candidate": np.array([0.0, 1, 3, 6, 3, 1] + [0] * 34),
    "no_candidate_max_at_the_end": np.arange(40.0),
    "max_at_column_0": np.array([9.0, 8, 6, 3, 1, 2, 1] + [0] * 33),
    "central": bumps(8, 7),
    # numpy's argsort ranks these candidates [4, 1, 3, 2, 0] on AVX-512
    # hosts and the stable sort [4, 1, 2, 3, 0]: their top two differ
    "tie_at_the_cut": bumps(20, 10, 10, 10, 3),
    "plateau_candidate": np.array([0.0, 2, 9, 9, 9, 2, 0, 3, 6, 3] + [0] * 30),
    "18_candidates_tied_at_the_cut": bumps(30, *[10] * 17),
    "18_candidates": bumps(*np.random.default_rng(29).permutation(18) + 10.0),
}


def test_split_choice_edge_cases_are_the_oracles():
    """One ring per case of SPLIT_EDGE_CASES, the central one in the middle:
    equal top candidates, rows with one and with no candidate, a row maximum
    in the first or the last column, where the refinement falls back to the
    sample, a flat-topped candidate, ties at the cut, which np.argsort
    decides, and rows with more than 16 candidates."""
    p, region, intensity = synthetic_finder_case(list(SPLIT_EDGE_CASES.values()))
    rings = finder_on_map(p, region, intensity)
    names = list(SPLIT_EDGE_CASES)
    assert [r.classification == "central" for r in rings.rings] == \
        [name == "central" for name in names]
    split = {r.z_pos for r in rings.rings} & {s.z_pos for s in rings.splittings}
    assert [r.z_pos in split for r in rings.rings] == \
        [name in ("equal_top_two", "tie_at_the_cut", "plateau_candidate",
                  "18_candidates_tied_at_the_cut", "18_candidates") for name in names]
    assert rings.rings[names.index("max_at_column_0")].radius == region.axis1[0]
    assert rings.rings[names.index("no_candidate_max_at_the_end")].radius == region.axis1[-1]


@st.composite
def synthetic_profiles(draw):
    """Five profiles of 3 to 40 samples from a few integer levels, so that
    ties, plateaus, maxima at either end and flat rows are common."""
    level = st.integers(0, draw(st.integers(1, 6))).map(float)
    n = draw(st.integers(3, 40))
    profiles = draw(st.lists(st.lists(level, min_size=n, max_size=n), min_size=5, max_size=5))
    return [row if max(row) > 0.0 else [1.0] + row[1:] for row in profiles]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(profiles=synthetic_profiles())
def test_split_choice_is_the_oracles_on_integer_profiles(profiles):
    assert len(finder_on_map(*synthetic_finder_case(profiles)).rings) == 5


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
