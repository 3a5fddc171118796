"""Detection and geometry of the bright rings of the interference lattice.

Locates intensity maxima on a half-plane (rho, z) map, measures the axial
fringe spacing, classifies the central ring, and measures the splitting of
the off-centre double rings.  Also provides the closed-form double-ring radii,
the comparison of detected rings with them, and the rotation/drift
measurements for frequency-offset pairs.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .atom_forces import central_ring_radius
from .errors import DegenerateGeometryError, ResolutionError, RingDetectionError
from .lg_mode import CylPoint, mode_amplitude, mode_jet
# intensity_map is not called here; it stays a module attribute because
# perfbench/spans.py traces calls by rebinding this name
from .superpose import DARK_FRACTION, _curvature_rows, _intensity_slope, _pair_intensity_at, intensity_map, \
    total_amplitude

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

# A double-ring partner's least rise above the valley and height, as
# fractions of its ring's intensity (find_rings)
SPLIT_PROMINENCE = 0.05
SPLIT_HEIGHT = 0.10

# A polish ends below this next step, in grid cells, or fails (_polish)
POLISH_TOL = 1e-6
POLISH_ROUNDS = 60


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
    each period pi of cos^2(Delta / 2) spans at least 8 coarse cells too
    (kappa1 - kappa2 per row from ``_curvature_rows``)."""
    b = pair.beam1
    w0 = b.waist_w0
    h = min(0.1 * w0, math.pi * w0 / (16.0 * math.sqrt(2.0 * b.radial_p + 1.0)))
    turn = region.axis1[-1] * np.max(np.abs(_curvature_rows(pair, region.axis2)))
    if turn > 0.0:
        h = min(h, 0.125 * math.pi / turn)
    return max(1, min(int(h / region.spacing1), region.axis1.size - 1))


def _polish(pair, region, start, lo, hi, cells, sign=1.0, up=None):
    """Maxima of sign * I, I = |E|^2 at the region's phi and time, from the
    (2, n) (rho, z) points ``start``, each within its bounds ``lo`` and
    ``hi`` (z fixed for all where those are equal): rows (rho, z, I, last),
    ``last`` the next step in grid cells where it fell below POLISH_TOL on
    both axes, that step taken; else inf (no end in POLISH_ROUNDS, or a
    step past the z bounds, which hold no maximum then).

    In coarse cells (``cells``), the first step is a quarter cell on each
    axis: up where ``up`` (2, n) is positive, else down, or towards the
    farther bound without ``up`` or from a bound.  Each round reads I and
    grad I from ``superpose._intensity_slope`` at x + d and at the corners
    (x_rho, x_z + d_z) and (x_rho + d_rho, x_z): a secant column of the
    slope matrix H per axis.  Where z is fixed a round reads I and dI/drho
    at x + d alone, the slope at x being known (and read with it in the
    first round), and takes the 1-D step.  A trial lower than x beyond
    rounding is refused and the trust radius T shrinks to half that step,
    else it may grow to four times the step, up to 4.  The step solves
    (H - mu) s = -g with mu = 0 (the secant Newton step) where H is negative
    definite and that step is within T, else with
    mu = max(eig H, 0) + |g| / T, which keeps |s| <= T."""
    cell = np.array(cells)[:, None]
    fine = np.array([[region.spacing1], [region.spacing2]]) / cell
    axial = bool(np.any(lo[1] != hi[1]))
    # state rows: x, d, lo, hi, slope at x (two each), H_rho_rho, H_rho_z,
    # H_z_rho, H_z_z, T, sign * I at x, index, sign
    state = np.zeros((18, start.shape[1]))
    state[0:2], state[4:6], state[6:8] = start / cell, lo / cell, hi / cell
    x, lo, hi = state[0:2], state[4:6], state[6:8]
    far = hi - x >= x - lo
    up = far if up is None else np.where(np.minimum(hi - x, x - lo) > 0.0, up > 0.0, far)
    state[2:4] = np.where(up, np.minimum(hi - x, 0.25), np.maximum(lo - x, -0.25))
    state[13], state[14], state[16], state[17] = -1.0, 1.0, np.arange(x.shape[1]), sign
    out = np.full((4, x.shape[1]), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for rounds in range(POLISH_ROUNDS):
            if not (m := state.shape[1]):
                break
            x, d, lo, hi, g, h, radius, value, sgn = (
                state[0:2], state[2:4], state[4:6], state[6:8], state[8:10], state[10:14],
                state[14], state[15], state[17])
            trial = x + d
            if axial:
                pts = np.concatenate((trial, [x[0], trial[1]], [trial[0], x[1]]), axis=1) * cell
            else:
                pts = (np.concatenate((trial, x), axis=1) if not rounds else trial) * cell
            i, *slope = _intensity_slope(
                pair, CylPoint(rho=pts[0], phi=region.phi, z=pts[1]), region.time, axial)
            i = sgn * i[:m]
            better = (i - value >= -1e-12 * np.abs(value)) | (not rounds)
            size = np.maximum(np.abs(d[0]), np.abs(d[1]))
            radius[:] = np.where(better, np.minimum(np.maximum(4.0 * size, radius), 4.0), 0.5 * size)
            if axial:
                slope = (np.array(slope) * cell).reshape(2, 3, m) * sgn
                h[:] = np.where(np.abs(d) >= 1e-4 * fine, (slope[:, :1] - slope[:, 1:]) / d,
                                h.reshape(2, 2, m)).reshape(4, m)
                x[:], g[:], value[:] = (np.where(better, trial, x), np.where(better, slope[:, 0], g),
                                        np.where(better, i, value))
                gu, gv = g
                a, b, c = h[0], 0.5 * (h[1] + h[2]), h[3]
                top = 0.5 * (a + c) + np.hypot(0.5 * (a - c), b)
                norm = np.hypot(gu, gv)
                s = np.array([b * gv - c * gu, b * gu - a * gv]) / (a * c - b * b)
                mu = np.where((top < 0.0) & (np.maximum(np.abs(s[0]), np.abs(s[1])) <= radius), 0.0,
                              np.maximum(top, 0.0) + norm / radius)
                a, c = a - mu, c - mu
                s = np.where(norm > 0.0, [b * gv - c * gu, b * gu - a * gv] / (a * c - b * b), 0.0)
                # a point on its z bound that would step past it
                past = ((x[1] == lo[1]) & (s[1] < 0.0)) | ((x[1] == hi[1]) & (s[1] > 0.0))
                d[:] = np.minimum(np.maximum(s, lo - x), hi - x)
                last = np.maximum(np.abs(d[0]) / fine[0], np.abs(d[1]) / fine[1])
            else:
                # the slope at x + d, and at x in the first round
                slope = (slope[0] * cell[0]).reshape(-1, m) * sgn
                h[0] = np.where(np.abs(d[0]) >= 1e-4 * fine[0],
                                (slope[0] - (g[0] if rounds else slope[1])) / d[0], h[0])
                x[0], g[0], value[:] = (np.where(better, trial[0], x[0]), np.where(better, slope[0], g[0]),
                                        np.where(better, i, value))
                a, gu = h[0], g[0]
                norm = np.abs(gu)
                mu = np.where((a < 0.0) & (np.abs(gu / a) <= radius), 0.0, np.maximum(a, 0.0) + norm / radius)
                past = False
                d[0] = np.minimum(np.maximum(np.where(norm > 0.0, gu / (mu - a), 0.0), lo[0] - x[0]),
                                  hi[0] - x[0])
                last = np.abs(d[0]) / fine[0]
            done = last < POLISH_TOL
            if (done | past).any():
                out[:, state[16, done].astype(int)] = np.concatenate(
                    ((x + d)[:, done] * cell, [(sgn * value)[done], last[done]]))
                state = state[:, ~(done | past)]
    return out


def _bases(rho, rows, peak, top, ring):
    """(start, lo, hi) for ``_polish`` of both bases of each radial
    maximum's prominence, left ones first, as scipy.signal.peak_prominences
    takes them: the lowest point between the maximum (at ``peak``, of
    intensity ``top``) and the nearest brighter point on that side, the ring
    at ``ring`` or a sample of the maximum's row ``rows`` at the coarse
    columns ``rho``, else the row's end.  A base starts at the side's lowest
    sample, between its neighbours, or mid-side where the side has none."""
    out = []
    for side in (-1.0, 1.0):
        ahead = side * (rho - peak[:, None]) > 0.0
        edge = side * np.min(np.where(ahead & (rows > top[:, None]), side * rho, np.inf), axis=1)
        edge = np.where((side * (ring - peak) > 0.0) & (side * (ring - edge) < 0.0), ring, edge)
        inside = ahead & (side * (rho - edge[:, None]) < 0.0)
        a = np.argmin(np.where(inside, rows, np.inf), axis=1)
        near, far = np.minimum(peak, edge), np.maximum(peak, edge)
        empty = ~inside[np.arange(peak.size), a]
        out.append((np.where(empty, 0.5 * (near + far), rho[a]),
                    np.where(empty, near, np.maximum(rho[np.maximum(a - 1, 0)], near)),
                    np.where(empty, far, np.minimum(rho[np.minimum(a + 1, rho.size - 1)], far))))
    return [np.concatenate((left, right)) for left, right in zip(*out)]


def find_rings(pair, region):
    """The bright rings of the pair's interference pattern: maxima of
    I = |E|^2, located between grid points.  ``region`` must be a "rho_z"
    GridSpec covering |z| <= d/2 with axial spacing <= lambda/20 and radial
    spacing <= w0/100, else ResolutionError.

    1. A coarse scan, ``_pair_intensity_at`` on the region's own points at
       every k-th row (the most with k dz <= lambda/8, 4 per fringe) and
       every s-th column (``_coarse_stride``, about 8 per radial lobe), the
       first and last row and column always in: a map that is not finite
       raises DegenerateGeometryError, as x = 2 rho^2 / w^2 and any overflow
       of the Laguerre factor are largest in the last column.
    2. Each 2-D local maximum of that map (ties kept) seeds a ``_polish``
       of grad I = 0 in (rho, z), z within its neighbouring coarse rows;
       one that does not end there is dropped, repeats count once.  The
       polish reads I, as ``_pair_intensity_at`` forms it, and grad I from
       ``superpose._intensity_slope``: the beams' amplitudes and the phase
       difference's rows, with no phase, field or complex modulus formed.
    3. A maximum is a ring when no coarse sample of its row (its z) and no
       other radial maximum there (one whose neighbouring samples do not
       hold it), polished in rho (a 1-D polish), is brighter.

    The ring nearest z = 0 is "central" within half a fringe of the
    midplane, every other a member of a double-ring pair.  The fringe
    spacing is the median gap between adjacent rings within |z| <= d/4, or
    between all rings where no two adjacent ones lie there (as at d = 0).
    A ring splits where another radial maximum of its row reaches
    SPLIT_HEIGHT of the ring and rises SPLIT_PROMINENCE of it above the
    higher of its two bases, as scipy.signal.peak_prominences takes them
    (``_bases``, each polished); the brightest such maximum is the
    partner.  Raises RingDetectionError when there are no maxima.
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

    s, k = _coarse_stride(pair, region), max(1, int(b.wavelength / 8.0 / dz))
    z_c, rho_c = (ax[np.append(np.arange(0, ax.size - 1, st), ax.size - 1)]
                  for ax, st in ((region.axis2, k), (region.axis1, s)))
    coarse = _pair_intensity_at(pair, region, rho_c[None, :], z_c[:, None])
    cells = (s * drho, k * dz)
    n_z, n_rho = coarse.shape
    seed = coarse > 0.0
    for dr, dc in ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)):
        r0, c0 = max(-dr, 0), max(-dc, 0)
        r1, c1 = n_z - max(dr, 0), n_rho - max(dc, 0)
        seed[r0:r1, c0:c1] &= coarse[r0:r1, c0:c1] >= coarse[r0 + dr:r1 + dr, c0 + dc:c1 + dc]
    r, c = np.nonzero(seed)
    rl, rh, cl, ch = np.maximum(r - 1, 0), np.minimum(r + 1, n_z - 1), np.maximum(c - 1, 0), \
        np.minimum(c + 1, n_rho - 1)
    # each seed's first step heads for its brighter neighbour on each axis
    out = _polish(pair, region, np.array([rho_c[c], z_c[r]]),
                  np.array([np.full(r.size, rho_c[0]), z_c[rl]]),
                  np.array([np.full(r.size, rho_c[-1]), z_c[rh]]), cells,
                  up=np.array([coarse[r, ch] - coarse[r, cl], coarse[rh, c] - coarse[rl, c]]))
    # the ended maxima, sorted by z, then rho, each once
    out = out[:, np.isfinite(out[3])]
    rho_v, z_v, i_v, _ = out[:, np.lexsort(out[:2])]
    again = (np.abs(np.diff(z_v)) <= 1e-3 * dz) & (np.abs(np.diff(rho_v)) <= 1e-3 * drho)
    rho_v, z_v, i_v = (v[np.append(True, ~again)[:v.size]] for v in (rho_v, z_v, i_v))

    # each maximum's row at the coarse columns; in the rows of those no
    # sample outshines, every other radial maximum that could outshine the
    # maximum or be its partner, and both bases of its prominence, all
    # polished in rho.  A coarse maximum whose neighbouring samples hold the
    # maximum is taken for its own peak: polished, no such sample ended
    # anywhere else on the tests' generated and paper lattices, even with
    # columns eight times coarser.
    profiles = _pair_intensity_at(pair, region, rho_c[None, :], z_v[:, None])
    # a ring is its row's brightest point: a sample beats it only by more
    # than 1e-9 of it.  Both sides are _pair_intensity's formula, but the
    # polish read I at its last accepted point, a step below POLISH_TOL from
    # the reported one, and Delta rounds by a few eps max|Delta| from point
    # to point, so a sample at the maximum itself (the axis column under an
    # l = 0 ring) may read a hair above it
    ring = profiles.max(axis=1) <= i_v * (1.0 + 1e-9)
    inner = profiles[:, 1:-1]
    m, c = np.nonzero((inner >= profiles[:, :-2]) & (inner >= profiles[:, 2:])
                      & (inner >= 0.5 * SPLIT_HEIGHT * i_v[:, None]) & ring[:, None])
    c += 1
    keep = (rho_v[m] < rho_c[c - 1]) | (rho_v[m] > rho_c[c + 1])
    m, c = m[keep], c[keep]
    start, lo, hi = _bases(rho_c, profiles[m], rho_c[c], profiles[m, c], rho_v[m])
    z = z_v[np.tile(m, 3)]
    rho_m, _, i_m, _ = _polish(pair, region, np.array([np.concatenate((rho_c[c], start)), z]),
                               np.array([np.concatenate((rho_c[c - 1], lo)), z]),
                               np.array([np.concatenate((rho_c[c + 1], hi)), z]), cells,
                               np.repeat([1.0, -1.0], [m.size, 2 * m.size]))
    rho_m, i_m, base = rho_m[:m.size], i_m[:m.size], np.max(i_m[m.size:].reshape(2, -1), axis=0)
    ring[m[i_m > i_v[m]]] = False
    if not ring.any():
        raise RingDetectionError("no interference maxima found in the region")

    z_vals = z_v[ring]
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
             for n, (z, rho, i) in enumerate(zip(z_vals.tolist(), rho_v[ring].tolist(),
                                                 i_v[ring].tolist()))]

    # a ring's partner is the brightest other radial maximum of its row
    # that reaches SPLIT_HEIGHT of it and rises SPLIT_PROMINENCE of it above
    # the higher of its bases
    top = i_v[m]
    ok = (i_m >= SPLIT_HEIGHT * top) & (i_m - base >= SPLIT_PROMINENCE * top) & ring[m]
    ok &= m != (np.flatnonzero(ring)[central] if central >= 0 else -1)
    order = np.lexsort((i_m[ok], m[ok]))
    p, rho_p = m[ok][order], rho_m[ok][order]
    pick = np.append(p[1:] != p[:-1], True)[:p.size]
    p, rho_p = p[pick], rho_p[pick]
    inner, outer = np.minimum(rho_v[p], rho_p), np.maximum(rho_v[p], rho_p)
    splittings = [RingSplit(z_pos=z, delta_rho=r_o - r_i, r_inner=r_i, r_outer=r_o)
                  for z, r_i, r_o in zip(z_v[p].tolist(), inner.tolist(), outer.tolist())]
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


def _elapsed(pair, rho, z, t0, t1):
    """t1 - t0 of a rate of the pattern at (rho, 0, z); DegenerateGeometryError
    unless both times are finite and |t1 - t0| lies in (0, pi / |delta_omega|),
    as a longer step aliases, and |U1| and |U2| there each exceed DARK_FRACTION
    times the other, compared with no ratio (one is 0 / 0 on the axis)."""
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise DegenerateGeometryError(f"t0 = {t0!r}, t1 = {t1!r}: sample times must be finite")
    if t1 == t0:
        raise DegenerateGeometryError(f"t0 = t1 = {t0!r}: no time elapses between the samples")
    if abs(pair.delta_omega) * abs(t1 - t0) >= math.pi:
        raise DegenerateGeometryError(f"|t1 - t0| = {abs(t1 - t0)!r} >= pi / |delta_omega|: aliased")
    u1, u2 = (abs(mode_amplitude(b, CylPoint(rho, 0.0, z))) for b in (pair.beam1, pair.beam2))
    if not (u1 > DARK_FRACTION * u2 and u2 > DARK_FRACTION * u1):
        raise DegenerateGeometryError(f"|U1| = {u1!r}, |U2| = {u2!r}: a beam is dark at the probe")
    return t1 - t0


def measure_rotation_rate(pair, rho, z, t0, t1):
    """Angular velocity of the spoke pattern from the phase of its azimuthal
    harmonic.

    Samples the intensity at max(8 |l1 + l2|, 64) angles on the circle
    (rho, z) at t0 and t1, reads the phase of the harmonic l1 + l2 from an
    FFT into a rotation rate; DegenerateGeometryError unless it is unambiguous,
    |delta_omega| |t1 - t0| < pi, and both beams are bright at (rho, 0, z).
    """
    m = pair.azimuthal_order
    if m == 0:
        raise DegenerateGeometryError("no azimuthal spokes to track")
    dt = _elapsed(pair, rho, z, t0, t1)
    n = max(8 * abs(m), 64)
    phi = 2.0 * np.pi * np.arange(n) / n

    def harmonic_phase(t):
        amp = total_amplitude(pair, CylPoint(rho=rho, phi=phi, z=z), t=t)
        spec = np.fft.rfft(amp * amp)
        psi = np.angle(spec[abs(m)])
        return psi if m > 0 else -psi

    dpsi = harmonic_phase(t1) - harmonic_phase(t0)
    dpsi = (dpsi + np.pi) % (2.0 * np.pi) - np.pi
    return -dpsi / (m * dt)


def fringe_drift_speed(pair, rho):
    """Axial speed Delta_omega / Phi'(0) at which the fringes crawl on the
    line (rho, phi=0), where Phi = Theta1 - Theta2 is the static phase
    difference there (m/s).  lift_speed's Delta_omega / 2k leaves out the
    Gouy and curvature slopes; measure_axial_drift tracks this speed."""
    probe = CylPoint(rho=rho, phi=0.0, z=0.0)
    slope = mode_jet(pair.beam1, probe)[3][2] - mode_jet(pair.beam2, probe)[3][2]
    return pair.delta_omega / slope


def measure_axial_drift(pair, rho, t0, t1):
    """Axial crawl speed of the fringe lattice from peak tracking.

    Follows the fringe maximum nearest z = 0 between t0 and t1, on 1201
    points of the line (rho, phi=0) spanning 1.5 fringes either side.  Raises
    DegenerateGeometryError unless |delta_omega| |t1 - t0| < pi (see
    ``suggested_sample_dt``) and both beams are bright at (rho, 0, 0).
    """
    dt = _elapsed(pair, rho, 0.0, t0, t1)
    half_span = 1.5 * np.pi / pair.beam1.wavenumber
    z = np.linspace(-half_span, half_span, 1201)

    def peak_near_center(t):
        i = total_amplitude(pair, CylPoint(rho=rho, phi=0.0, z=z), t=t) ** 2
        # maxima: above both neighbours, or the first of a two-sample top
        mid, fall = i[1:-1], i[1:-1] > i[2:]
        cand = np.flatnonzero((mid > i[:-2]) & (fall | (mid == i[2:]) & np.r_[fall[1:], False])) + 1
        if cand.size == 0:
            raise RingDetectionError("no fringe maximum on the sampling line")
        j = cand[np.argmin(np.abs(z[cand]))]
        # the vertex of the parabola through samples j - 1, j, j + 1
        den = i[j - 1] - 2.0 * i[j] + i[j + 1]
        return z[j] + 0.5 * (z[j + 1] - z[j]) * (i[j - 1] - i[j + 1]) / den if den < 0.0 else z[j]

    return (peak_near_center(t1) - peak_near_center(t0)) / dt
