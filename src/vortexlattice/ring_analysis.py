"""Detection and geometry of the bright rings of the interference lattice.

Locates intensity maxima on a half-plane (rho, z) map, measures the axial
fringe spacing, classifies the central ring, and measures the splitting of
the off-centre double rings.  Also provides the closed-form double-ring radii,
the comparison of detected rings with them, and the rotation/drift
measurements for frequency-offset pairs.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .atom_forces import central_ring_radius
from .errors import DegenerateGeometryError, ResolutionError, RingDetectionError
from .lg_mode import CylPoint, _local_z, _row_phase, mode_jet
# intensity_map is not called here; it stays a module attribute because
# perfbench/spans.py traces calls by rebinding this name
from .superpose import _pair_intensity_at, intensity_map, total_amplitude

__all__ = [
    "RadialSplit",
    "Ring",
    "RingSet",
    "RingSplit",
    "compare_rings",
    "double_ring_radii",
    "find_rings",
    "fringe_drift_speed",
    "measure_axial_drift",
    "measure_rotation_rate",
    "radial_separation",
    "suggested_sample_dt",
]

# Peak prominence threshold relative to the strongest ridge value; data are
# noise-free so this only rejects float-level wiggles
RIDGE_PROMINENCE = 1e-6

# Secondary radial maxima must reach these fractions of the row maximum to
# count as a resolved double-ring partner
SPLIT_PROMINENCE = 0.05
SPLIT_HEIGHT = 0.10

# A coarse local maximum of a row gets a fine window when it reaches this
# fraction of the row's coarse maximum; the lobe holding the row maximum is
# sampled at nearly its top (see find_rings), far above it
LOBE = 0.5


@dataclass(frozen=True)
class Ring:
    """One detected bright ring: axial position, radius and peak intensity,
    classified as the central ring or a member of a double-ring pair."""

    z_pos: float
    radius: float
    peak_intensity: float
    classification: str


@dataclass(frozen=True)
class RingSplit:
    """Resolved radial splitting of a double ring at axial position z."""

    z_pos: float
    delta_rho: float
    r_inner: float
    r_outer: float


@dataclass(frozen=True)
class RingSet:
    """All rings found on a map, with the median axial fringe spacing and the
    resolved radial splittings."""

    rings: list
    fringe_delta: float
    splittings: list = field(default_factory=list)

    def to_json_dict(self):
        return {
            "fringe_delta": None if math.isnan(self.fringe_delta) else self.fringe_delta,
            "rings": [{"z": r.z_pos, "radius": r.radius, "peak": r.peak_intensity,
                       "class": r.classification} for r in self.rings],
            "splittings": [{"z": s.z_pos, "delta_rho": s.delta_rho}
                           for s in self.splittings],
        }


def _find_peaks(values, prominence=None, height=None):
    """Peaks of each row of a finite (rows, n) array, as the (row, column)
    index arrays of the kept peaks in row-major order; for a 1-D array, the
    columns of the one row.

    A peak is a strict local maximum; a flat plateau counts once, at its
    middle index (rounded down), and a sample or plateau touching either
    end of its row is never a peak.  ``height`` and ``prominence`` are None,
    one threshold, or one per row (-inf keeps every peak).  ``height`` keeps
    peaks whose value is >= it.  ``prominence`` keeps peaks whose
    prominence is >= it: the peak value minus the higher of its two bases,
    each base being the minimum from the peak out to the nearest strictly
    higher sample on that side, or to the row's end.
    """
    x = np.asarray(values, dtype=float)
    one_row = x.ndim == 1
    x = np.atleast_2d(x)
    # inner[r, c] marks a peak at column c + 1 of row r; boolean masks
    # only, as a map-sized float temporary would grow the heap
    inner = x[:, 1:-1] > x[:, :-2]
    inner &= x[:, 1:-1] > x[:, 2:]
    for r in np.flatnonzero((x[:, 1:] == x[:, :-1]).any(axis=1)):
        # collapse each run of equal samples to one, then map back to the
        # run's middle index
        starts = np.flatnonzero(np.concatenate(([True], x[r, 1:] != x[r, :-1])))
        level = x[r, starts]
        runs = np.flatnonzero((level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])) + 1
        inner[r] = False
        inner[r, (starts[runs] + starts[runs + 1] - 1) // 2 - 1] = True
    rows, cols = np.divmod(np.flatnonzero(inner), max(inner.shape[1], 1))
    cols += 1
    top = x[rows, cols]
    if height is not None:
        keep = top >= np.broadcast_to(height, x.shape[:1])[rows]
        rows, cols, top = rows[keep], cols[keep], top[keep]
    if prominence is not None and rows.size:
        prominence = np.broadcast_to(prominence, x.shape[:1])[rows]
        # a base reaches at least down to the valley between the peak and
        # its neighbouring peak (or its row's end), so the prominence is at
        # least the peak minus the higher of those two valleys; one segment
        # starts at each row start and at each peak, so peak k's valleys are
        # segments k + rows[k] and the one after.  Only a peak this lower
        # bound does not clear needs the walk to the nearest higher sample
        n = x.shape[1]
        valley = np.minimum.reduceat(
            x.ravel(), np.sort(np.concatenate((np.arange(x.shape[0]) * n, rows * n + cols))))
        left = np.arange(rows.size) + rows
        keep = top - np.maximum(valley[left], valley[left + 1]) >= prominence
        for k in np.flatnonzero(~keep):
            row, p = x[rows[k]], cols[k]
            higher = np.flatnonzero(row[:p] > top[k])
            base_l = row[higher[-1] + 1 if higher.size else 0:p + 1].min()
            higher = np.flatnonzero(row[p:] > top[k])
            base_r = row[p:p + higher[0] if higher.size else n].min()
            keep[k] = top[k] - max(base_l, base_r) >= prominence[k]
        rows, cols = rows[keep], cols[keep]
    return cols if one_row else (rows, cols)


def _refine_row(axis, values, *idx):
    """(positions, values) of the vertices of the parabolas through the
    samples c - 1, c, c + 1 of ``values`` along its last axis, which lies on
    the equally spaced ``axis``, at the index arrays ``idx`` (one per axis
    of values; c is the last): within half a cell of axis[c] at a local
    maximum, and the sample itself at either end or where not concave."""
    col = idx[-1]
    n = values.shape[-1]
    lo, hi = np.maximum(col - 1, 0), np.minimum(col + 1, n - 1)
    x0, y0 = axis[col], values[idx]
    y_lo, y_hi = values[idx[:-1] + (lo,)], values[idx[:-1] + (hi,)]
    den = y_lo - 2.0 * y0 + y_hi
    fit = (col > 0) & (col < n - 1) & (den < 0.0)
    den = np.where(fit, den, -1.0)
    diff = y_lo - y_hi
    # float_power, like the ** of a numpy scalar, rounds libm's pow; an
    # array's ** 2 multiplies, which differs in the last bit now and then
    return (np.where(fit, x0 + 0.5 * (axis[hi] - x0) * diff / den, x0),
            np.where(fit, y0 - 0.125 * np.float_power(diff, 2) / den, y0))


def _coarse_stride(pair, region):
    """Column stride s of find_rings' coarse scan: the most radial cells
    that keep the coarse spacing h within both bounds below, at least 1 and
    less than the column count.

    Along a row (fixed z) the intensity is U1^2 + U2^2 + 2 U1 U2 cos(Delta),
    and two things vary with rho.  Each amplitude is a radial oscillator
    eigenfunction of order 2p + |l| + 1 in rho sqrt(2) / w, whose local
    radial wavenumber is at most 2 sqrt(2p + 1) / w, so a radial lobe of
    U^2 is about pi w / (2 sqrt(2p + 1)) wide (no less than 0.9 of that for
    p <= 40); with w >= w0, h <= w0 / 10 and h <= pi w0 / (16 sqrt(2p + 1))
    put about 8 coarse cells across each lobe.  Half the phase difference,
    Delta / 2, is a row term plus rho^2 (kappa1 - kappa2) / 2, so it turns
    by rho |kappa1 - kappa2| h per coarse cell; h <= (pi / 8) / (rho_max
    max |kappa1 - kappa2|) keeps that turn within pi / 8 in every row, so
    each period pi of cos^2(Delta / 2) spans at least 8 coarse cells too."""
    b1, b2 = pair.beam1, pair.beam2
    w0 = b1.waist_w0
    h = min(0.1 * w0, math.pi * w0 / (16.0 * math.sqrt(2.0 * b1.radial_p + 1.0)))
    kappa1 = _row_phase(b1, _local_z(b1, region.axis2), region.phi)[3]
    kappa2 = _row_phase(b2, _local_z(b2, region.axis2), region.phi)[3]
    turn = region.axis1[-1] * np.max(np.abs(kappa1 - kappa2))
    if turn > 0.0:
        h = min(h, 0.125 * math.pi / turn)
    return max(1, min(int(h / region.spacing1), region.axis1.size - 1))


def find_rings(pair, region):
    """Detect the bright rings of the pair's interference pattern.

    ``region`` must be a "rho_z" GridSpec covering |z| <= d/2 with axial
    spacing <= lambda/20 and radial spacing <= w0/100, otherwise a
    ResolutionError is raised.  The intensity is that of the one kernel
    entry ``_pair_intensity_at``, (U1 - U2)^2 + 4 U1 U2 cos^2(Delta / 2),
    evaluated only where a ring can be, in three stages on the region's own
    grid points:

    1. a coarse scan: every row at every s-th column (the first and the last
       always included), s from ``_coarse_stride``;
    2. fine windows: in each row, each coarse local maximum that reaches
       LOBE of the coarse row maximum gets the fine columns of its two
       neighbouring coarse cells;
    3. peak rows: each row that holds a ring, in full.

    The stride puts about 8 coarse cells across every radial lobe of the
    row profile.  A row's highest lobe is then sampled within half a cell of
    its top, at nearly the top's value and so above LOBE of the coarse row
    maximum, and the coarse samples rise towards the top from both sides:
    the higher of the two coarse samples around the top is a coarse local
    maximum, and its window holds the top.  The ridge (each row's maximum)
    is therefore the full map's, bit for bit, and so is everything read
    from it: along each z row the radial maximum is refined by a parabolic
    fit; local maxima of that ridge along z give the rings, again refined
    parabolically.  The fringe spacing is the median gap between adjacent
    rings near the midplane (|z| <= d/4), or between all rings when no two
    adjacent ones lie there (always at d = 0).
    The ring nearest z = 0 is classified "central" when it sits within half
    a fringe of the midplane; every other ring belongs to a double-ring pair
    and its radial splitting is recorded where a second radial maximum is
    resolved; both searches and every refinement run on all peak rows at
    once.  The scan holds each row's last column, where x = 2 rho^2 / w^2
    and any overflow of the Laguerre factor are largest, so a map that is not
    finite raises DegenerateGeometryError as the full map would.

    Raises RingDetectionError when no interference maxima exist in the
    region.
    """
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

    z_axis, rho_axis = region.axis2, region.axis1
    n1 = rho_axis.size
    s = _coarse_stride(pair, region)
    cols = np.arange(0, n1 + s - 1, s)
    cols[-1] = n1 - 1
    coarse = _pair_intensity_at(pair, region, rho_axis[None, cols], z_axis[:, None])
    ridge_val = coarse.max(axis=1)
    # coarse local maxima reaching LOBE of their row's coarse maximum; a
    # window spans the coarse cells on both sides of its maximum, so cell c,
    # between columns cols[c] and cols[c + 1], is refined where either end
    # is such a maximum
    lobe = coarse >= LOBE * ridge_val[:, None]
    lobe[:, 1:] &= coarse[:, 1:] >= coarse[:, :-1]
    lobe[:, :-1] &= coarse[:, :-1] >= coarse[:, 1:]
    cell_rows, cells = np.divmod(np.flatnonzero(lobe[:, :-1] | lobe[:, 1:]), cols.size - 1)
    # the coarse map, the finder's largest array, is freed before the
    # windows are made, so they reuse its memory (see BLOCK_POINTS)
    del coarse, lobe
    if s > 1 and cells.size:
        # the s - 1 fine columns inside each cell, shifted left where the
        # last cell is narrower
        first = np.minimum(cols[:-1] + 1, n1 - s + 1)
        cell_rho = rho_axis[first[:, None] + np.arange(s - 1)]
        fine = _pair_intensity_at(pair, region, cell_rho[cells], z_axis[cell_rows, None])
        # column by column: numpy reduces a short last axis slowly
        np.maximum.at(ridge_val, cell_rows, functools.reduce(np.maximum, fine.T))

    peak_rows = _find_peaks(ridge_val, prominence=RIDGE_PROMINENCE * ridge_val.max())
    if peak_rows.size == 0:
        raise RingDetectionError("no interference maxima found in the region")
    profiles = _pair_intensity_at(pair, region, rho_axis[None, :], z_axis[peak_rows, None])
    ring = np.arange(peak_rows.size)
    z_vals, i_vals = _refine_row(z_axis, ridge_val, peak_rows)
    rho_vals, _ = _refine_row(rho_axis, profiles, ring, np.argmax(profiles, axis=1))
    # peak rows ascend two or more apart, so the refined z ascend too

    if z_vals.size >= 2:
        gaps = np.diff(z_vals)
        near = (np.abs(z_vals[:-1]) <= 0.5 * half_d) & (np.abs(z_vals[1:]) <= 0.5 * half_d)
        fringe_delta = float(np.median(gaps[near] if np.any(near) else gaps))
    else:
        fringe_delta = float("nan")

    central_tol = max(1.5 * dz, 0.51 * fringe_delta) if math.isfinite(fringe_delta) \
        else 1.5 * dz
    nearest = int(np.argmin(np.abs(z_vals)))
    central = nearest if abs(z_vals[nearest]) <= central_tol else -1
    rings = [Ring(z_pos=z, radius=rho, peak_intensity=i,
                  classification="central" if n == central else "double")
             for n, (z, rho, i) in enumerate(zip(z_vals.tolist(), rho_vals.tolist(),
                                                 i_vals.tolist()))]

    # the two highest radial maxima of every other row with two or more;
    # sorted by row, then value, each row's top two end its run
    top = profiles.max(axis=1)
    rows, cols = _find_peaks(profiles, prominence=SPLIT_PROMINENCE * top,
                             height=SPLIT_HEIGHT * top)
    keep = rows != central
    rows, cols = rows[keep], cols[keep]
    vals = profiles[rows, cols]
    order = np.lexsort((vals, rows))
    cols, vals = cols[order], vals[order]
    count = np.bincount(rows, minlength=ring.size)
    split = np.flatnonzero(count >= 2)
    end = np.cumsum(count)[split]
    pick = cols[end[:, None] - [2, 1]]
    # where the second value ties the third, which two win is up to how
    # np.argsort orders equal values, and that varies with the platform's
    # sort kernel, so those rows are ranked by np.argsort itself
    tied = (count[split] >= 3) & (vals[end - 2] == vals[end - 3])
    for k in np.flatnonzero(tied):
        cand = np.sort(cols[end[k] - count[split[k]]:end[k]])
        pick[k] = cand[np.argsort(profiles[split[k], cand])[-2:]]
    radii = np.sort(_refine_row(rho_axis, profiles, split[:, None], pick)[0], axis=1)
    splittings = [RingSplit(z_pos=z, delta_rho=outer - inner, r_inner=inner, r_outer=outer)
                  for z, (inner, outer) in zip(z_vals[split].tolist(), radii.tolist())]

    return RingSet(rings=rings, fringe_delta=fringe_delta, splittings=splittings)


def double_ring_radii(pair, delta):
    """Radii (w1, w2) of the two rings crossing the plane a distance
    ``delta`` from the midplane: each beam's ring radius at axial distances
    d/2 -+ delta from its focus.  Any delta >= 0: the radius is even in
    d/2 - delta, so the form holds past a focus (delta >= d/2) too."""
    b = pair.beam1
    d = pair.separation_d
    if not delta >= 0.0:
        raise DegenerateGeometryError("delta must be >= 0")
    l = abs(b.winding_l)
    zr = b.rayleigh_range
    base = b.waist_w0 * np.sqrt(0.5 * l)
    w1 = base * np.sqrt(1.0 + ((0.5 * d - delta) / zr) ** 2)
    w2 = base * np.sqrt(1.0 + ((0.5 * d + delta) / zr) ** 2)
    return w1, w2


class RadialSplit(NamedTuple):
    """Exact and linearised double-ring separations plus the closeness
    parameter alpha = sqrt(2 |l|) d delta / z_R^2."""

    exact: float
    approx: float
    alpha: float


def radial_separation(pair, delta):
    """Separation w2 - w1 of the double rings at offset ``delta``.

    ``approx`` is the leading order in d delta / z_R^2:
    w0 sqrt(2 |l|) d delta / (2 z_R^2), i.e. w0 * alpha / 2.  (Dropping that
    factor of 2, w0 * alpha, overestimates the separation twofold and does
    not converge to ``exact`` as d shrinks.)  Rings merge optically when
    alpha < 1.
    """
    b = pair.beam1
    w1, w2 = double_ring_radii(pair, delta)
    alpha = math.sqrt(2.0 * abs(b.winding_l)) * pair.separation_d * delta \
        / b.rayleigh_range ** 2
    return RadialSplit(exact=float(w2 - w1), approx=0.5 * b.waist_w0 * alpha, alpha=alpha)


def compare_rings(pair, ringset):
    """Detected rings against the closed forms: (rows, summary).

    ``rows`` is (n, 9), one row per splitting off the midplane (|z| > 0),
    past a focus too: z, r_inner, r_outer, ``double_ring_radii`` at
    delta = |z|, delta_rho, and ``radial_separation`` (exact, approx, alpha).
    ``summary`` gives the ring count, the fringe spacing beside pi/k, the
    central ring beside ``central_ring_radius`` and, from the first row
    between the foci (0 < |z| < d/2), its alpha and which reading of delta,
    |z| from the midplane or d/2 - |z| from a focal plane, puts the
    closed-form radii nearer the measured ones."""
    half_d = 0.5 * pair.separation_d
    rows = []
    first = None        # the first row between the foci
    for split in ringset.splittings:
        delta = abs(split.z_pos)
        if not delta > 0.0:
            continue
        if first is None and delta < half_d:
            first = len(rows)
        w1, w2 = double_ring_radii(pair, delta)
        sep = radial_separation(pair, delta)
        rows.append((split.z_pos, split.r_inner, split.r_outer, w1, w2,
                     split.delta_rho, sep.exact, sep.approx, sep.alpha))

    summary = {
        "n_rings": len(ringset.rings),
        "fringe_delta": None if math.isnan(ringset.fringe_delta) else ringset.fringe_delta,
        "half_wavelength": math.pi / pair.beam1.wavenumber,
        "central_radius_formula": central_ring_radius(pair),
    }
    central = [r for r in ringset.rings if r.classification == "central"]
    if central:
        summary["central_z"] = central[0].z_pos
        summary["central_radius"] = central[0].radius
    if first is not None:
        z0, r_in, r_out, w1, w2 = rows[first][:5]

        def err(w1, w2):    # the two radii's relative errors, summed
            return abs(w1 - r_in) / r_in + abs(w2 - r_out) / r_out

        err_mid = err(w1, w2)
        summary["delta_reading"] = reading = {"midplane_offset_err": err_mid}
        # d/2 - |z| reads like |z| only strictly inside (0, d/2); rounding
        # can put it on either end
        alt = half_d - abs(z0)
        if 0.0 < alt < half_d:
            reading["focal_plane_offset_err"] = err_alt = err(*double_ring_radii(pair, alt))
            reading["matching"] = "midplane_offset" if err_mid <= err_alt else "focal_plane_offset"
        summary["alpha_first_split"] = rows[first][8]
        summary["alpha_lt_1"] = bool(rows[first][8] < 1.0)
    return np.array(rows, dtype=float).reshape(-1, 9), summary


def suggested_sample_dt(pair):
    """Sampling interval keeping rotation/drift phase steps safely inside one
    fringe: 0.25 pi / |delta_omega|."""
    if pair.delta_omega == 0.0:
        raise DegenerateGeometryError("pattern is static: delta_omega = 0")
    return 0.25 * math.pi / abs(pair.delta_omega)


def measure_rotation_rate(pair, rho, z, t0, t1):
    """Angular velocity of the spoke pattern from the phase of its azimuthal
    harmonic.

    Samples the intensity at max(8 |l1 + l2|, 64) angles on the circle
    (rho, z) at t0 and t1, reads the phase of the harmonic l1 + l2 from an
    FFT, and converts its advance into a rotation rate, which is unambiguous
    while |delta_omega| * (t1 - t0) < pi.
    """
    m = pair.azimuthal_order
    if m == 0:
        raise DegenerateGeometryError("no azimuthal spokes to track")
    n = max(8 * abs(m), 64)
    phi = 2.0 * np.pi * np.arange(n) / n

    def harmonic_phase(t):
        amp = total_amplitude(pair, CylPoint(rho=rho, phi=phi, z=z), t=t)
        spec = np.fft.rfft(amp * amp)
        psi = np.angle(spec[abs(m)])
        return psi if m > 0 else -psi

    dpsi = harmonic_phase(t1) - harmonic_phase(t0)
    dpsi = (dpsi + np.pi) % (2.0 * np.pi) - np.pi
    return -dpsi / (m * (t1 - t0))


def fringe_drift_speed(pair, rho):
    """Axial speed Delta_omega / Phi'(0) at which the fringes crawl on the
    line (rho, phi=0), where Phi = Theta1 - Theta2 - delta_k z is the phase
    difference there (m/s).  lift_speed's Delta_omega / 2k leaves out the
    Gouy and curvature slopes; measure_axial_drift tracks this speed."""
    probe = CylPoint(rho=rho, phi=0.0, z=0.0)
    slope = mode_jet(pair.beam1, probe)[3][2] - mode_jet(pair.beam2, probe)[3][2] - pair.delta_k
    return pair.delta_omega / slope


def measure_axial_drift(pair, rho, t0, t1):
    """Axial crawl speed of the fringe lattice from peak tracking.

    Follows the fringe maximum nearest z = 0 between t0 and t1, on 1201
    points of the line (rho, phi=0) spanning 1.5 fringes either side.  The
    displacement must stay well inside one fringe (``suggested_sample_dt``).
    """
    half_span = 1.5 * np.pi / pair.beam1.wavenumber
    z = np.linspace(-half_span, half_span, 1201)

    def peak_near_center(t):
        amp = total_amplitude(pair, CylPoint(rho=rho, phi=0.0, z=z), t=t)
        intensity = amp * amp
        cand = _find_peaks(intensity)
        if cand.size == 0:
            raise RingDetectionError("no fringe maximum on the sampling line")
        j = cand[np.argmin(np.abs(z[cand]))]
        z_ref, _ = _refine_row(z, intensity, j)
        return z_ref

    return (peak_near_center(t1) - peak_near_center(t0)) / (t1 - t0)
