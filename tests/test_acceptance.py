"""End-to-end acceptance checks, one per shipped capability.

Each test prints a single "criterion N PASS/FAIL: ..." verdict before its
assertions; run with ``pytest tests/test_acceptance.py -v -s`` to see every
line.  Criterion 4's last clause checks the near-midplane axial fringe
spacing of the high-winding, tightly focused ring lattice against the
closed-form spacing 2 pi / Phi'(0), where Phi'(0) is the axial slope of the
phase difference Theta1 - Theta2 at the midplane ring, Gouy and curvature
terms included.  At that geometry the closed form sits 6.1% above the
plane-wave pi/k and the detected spacing 6.6% above it, so pi/k is printed
for information only.
"""

import math
import time

import numpy as np
import pytest

from vortexlattice.atom_forces import (AtomSpec, axial_force_slope,
                                       central_ring_radius, dipole_force,
                                       dipole_potential, ferris_rate,
                                       lift_speed, spring_constant,
                                       spring_constant_k0)
from vortexlattice.dynamics import (IntegratorConfig, TrajectoryState,
                                    estimate_frequency, integrate,
                                    trap_frequency)
from vortexlattice.lg_mode import CylPoint, mode_amplitude, mode_phase
from vortexlattice.ring_analysis import (double_ring_radii, find_rings,
                                         measure_axial_drift,
                                         measure_rotation_rate,
                                         radial_separation)
from vortexlattice.superpose import (GridSpec, PairSpec, pair_complex,
                                     total_amplitude, total_phase)

WAVELENGTH = 589.16e-9
GAMMA = 2.0 * math.pi * 10.01e6
NA_MASS = 3.8175e-26


def verdict(n, ok, detail):
    print(f"criterion {n} {'PASS' if ok else 'FAIL'}: {detail}")


def sodium(delta0=0.5 * GAMMA, rabi=GAMMA):
    return AtomSpec(mass=NA_MASS, gamma=GAMMA, detuning0=delta0,
                    rabi_omega0=rabi)


def grad5(f, h):
    return (8.0 * (f(h) - f(-h)) - (f(2.0 * h) - f(-2.0 * h))) / (12.0 * h)


def rel_gap(a, b):
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def test_criterion_1_complex_sum_equivalence():
    t_start = time.perf_counter()
    rng = np.random.default_rng(20260814)
    worst = 0.0
    n_total = 0
    for _ in range(20):
        l1 = int(rng.integers(0, 7))
        l2 = int(rng.integers(0, 7))
        p = int(rng.integers(0, 4))
        w0 = float(rng.uniform(2.0, 10.0)) * WAVELENGTH
        zr = math.pi * w0 ** 2 / WAVELENGTH
        d = float(rng.uniform(0.0, 2.0)) * zr
        pr = PairSpec(
            WAVELENGTH, w0, l1=l1, l2=l2, separation_d=d, radial_p=p,
            amp2=float(rng.uniform(0.3, 1.0)),
            delta_omega=float(rng.uniform(0.0, 1e5)),
            delta_k=float(rng.uniform(0.0, 10.0)))
        z_hi = 0.5 * d + zr
        w_far = w0 * math.sqrt(1.0 + (z_hi / zr) ** 2)
        rho_hi = (math.sqrt(max(l1, l2) / 2.0 + p) + 2.0) * w_far
        n = 500
        pts = CylPoint(rho=rng.uniform(0.0, rho_hi, n),
                       phi=rng.uniform(-np.pi, np.pi, n),
                       z=rng.uniform(-z_hi, z_hi, n))
        t = float(rng.uniform(0.0, 1e-5))
        u1 = mode_amplitude(pr.beam1, pts)
        u2 = mode_amplitude(pr.beam2, pts)
        want = u1 * np.exp(1j * mode_phase(pr.beam1, pts)) \
            + u2 * np.exp(1j * (mode_phase(pr.beam2, pts)
                                + pr.delta_k * pts.z + pr.delta_omega * t))
        scale = np.maximum(np.maximum(np.abs(u1), np.abs(u2)), 1e-30)
        err = np.abs(pair_complex(pr, pts, t=t) - want) / scale
        amp = total_amplitude(pr, pts, t=t)
        ph = total_phase(pr, pts, t=t)
        lit = ~np.isnan(ph)
        err2 = np.abs(amp[lit] * np.exp(1j * ph[lit]) - want[lit]) / scale[lit]
        worst = max(worst, float(np.max(err)), float(np.max(err2)))
        n_total += n
    elapsed = time.perf_counter() - t_start
    ok = worst <= 1e-12 and elapsed < 5.0
    verdict(1, ok, f"worst rel err {worst:.3e} over {n_total} points "
                   f"(tol 1e-12), {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_2_dipole_force_matches_gradient():
    t_start = time.perf_counter()
    atom = sodium(delta0=-2.0 * GAMMA, rabi=0.5 * GAMMA)
    w0 = 8e-6
    zr = math.pi * w0 ** 2 / WAVELENGTH
    pr = PairSpec(WAVELENGTH, w0, l1=2, separation_d=0.8 * zr, amp2=0.7)
    rho0 = central_ring_radius(pr)
    rng = np.random.default_rng(7)
    n = 1000
    rho = rho0 * rng.uniform(0.4, 1.6, n)
    phi = rng.uniform(-np.pi, np.pi, n)
    z = rng.uniform(-0.6, 0.6, n) * zr
    got = dipole_force(atom, pr, CylPoint(rho=rho, phi=phi, z=z))
    h = WAVELENGTH / 400.0

    def v(rr, pp, zz):
        return dipole_potential(atom, pr, CylPoint(rho=np.abs(rr), phi=pp, z=zz))

    want = -np.stack([grad5(lambda s: v(rho + s, phi, z), h),
                      grad5(lambda s: v(rho, phi + s, z), h / rho) / rho,
                      grad5(lambda s: v(rho, phi, z + s), h)])
    rel = np.linalg.norm(got - want, axis=0) \
        / np.maximum(np.linalg.norm(got, axis=0), np.linalg.norm(want, axis=0))
    worst = float(np.max(rel))
    elapsed = time.perf_counter() - t_start
    ok = worst <= 1e-6 and elapsed < 10.0
    verdict(2, ok, f"worst rel err {worst:.3e} over {n} points (tol 1e-6), "
                   f"{elapsed:.2f}s")
    assert worst <= 1e-6
    assert elapsed < 10.0


def test_criterion_3_spring_constant_triangle():
    t_start = time.perf_counter()
    atom = sodium()
    w0 = 8e-6
    zr = math.pi * w0 ** 2 / WAVELENGTH
    ds = np.linspace(0.0, 3.0 * zr, 50)
    k_analytic = np.empty(50)
    worst = 0.0
    for i, d in enumerate(ds):
        pr = PairSpec(WAVELENGTH, w0, l1=1, separation_d=float(d))
        rho0 = central_ring_radius(pr)
        k0 = spring_constant_k0(atom, pr)
        k_at_ring = spring_constant(atom, pr, rho0)
        k_numeric = -axial_force_slope(atom, pr, rho0)
        k_analytic[i] = k0
        worst = max(worst, rel_gap(k0, k_at_ring), rel_gap(k0, k_numeric),
                    rel_gap(k_at_ring, k_numeric))
    i_max = int(np.argmax(k_analytic))
    rising = np.flatnonzero(np.diff(k_analytic) < 0.0)
    single_peak = bool(rising.size and np.all(rising >= i_max)
                       and 0 < i_max < 49)
    elapsed = time.perf_counter() - t_start
    ok = (k_analytic[0] == 0.0 and worst <= 1e-6 and single_peak
          and elapsed < 30.0)
    verdict(3, ok, f"worst pairwise rel gap {worst:.3e} (tol 1e-6), "
                   f"K0(0)={k_analytic[0]}, peak at d={ds[i_max] / zr:.2f} z_R, "
                   f"{elapsed:.2f}s")
    assert k_analytic[0] == 0.0
    assert worst <= 1e-6
    assert single_peak
    assert elapsed < 30.0


def ring_lattice_pair():
    w0 = 6.0 * WAVELENGTH
    return PairSpec(WAVELENGTH, w0, l1=80, separation_d=24.0 * w0)


def ring_lattice_region():
    return GridSpec.rho_z(rho_min=19.44228e-6, rho_max=33.58212e-6, n_rho=420,
                          z_min=-44.1163e-6, z_max=44.1163e-6, n_z=6000)


_RING_CACHE = {}


def ring_lattice():
    if "rings" not in _RING_CACHE:
        t0 = time.perf_counter()
        _RING_CACHE["rings"] = find_rings(ring_lattice_pair(),
                                          ring_lattice_region())
        _RING_CACHE["seconds"] = time.perf_counter() - t0
    return _RING_CACHE["rings"], _RING_CACHE["seconds"]


def test_criterion_4_ring_lattice_reproduction():
    pr = ring_lattice_pair()
    region = ring_lattice_region()
    rings, elapsed = ring_lattice()
    dz, drho = region.spacing2, region.spacing1
    b = pr.beam1
    rho0 = b.waist_w0 * math.sqrt(b.winding_l / 2.0) * math.sqrt(
        1.0 + pr.separation_d ** 2 / (4.0 * b.rayleigh_range ** 2))

    central = [r for r in rings.rings if r.classification == "central"]
    central_ok = len(central) == 1 and abs(central[0].z_pos) <= dz
    radius_err = abs(central[0].radius - rho0) if central else math.inf
    radius_ok = radius_err <= drho

    others = sorted(r.z_pos for r in rings.rings if r.classification == "double")
    pairs_ok = len(others) >= 10 and all(
        abs(min(others, key=lambda q: abs(q + z)) + z) <= 2.0 * dz
        for z in others)

    # axial period 2 pi / Phi'(0) of the lattice on the midplane ring, with
    # the Gouy (-) and curvature (+) terms of the phase-difference slope
    k, zr, d = b.wavenumber, b.rayleigh_range, pr.separation_d
    u = 0.5 * d / zr
    slope = 2.0 * k - 2.0 * (abs(b.winding_l) + 1.0) / (zr * (1.0 + u * u)) \
        + k * rho0 ** 2 * (zr * zr - 0.25 * d * d) / (0.25 * d * d + zr * zr) ** 2
    spacing = 2.0 * math.pi / slope
    fringe_err = abs(rings.fringe_delta - spacing) / spacing
    fringe_ok = fringe_err <= 0.01
    plane_wave_err = abs(rings.fringe_delta - math.pi / k) / (math.pi / k)

    ok = central_ok and radius_ok and pairs_ok and fringe_ok and elapsed < 120.0
    verdict(4, ok, f"central |z|={abs(central[0].z_pos):.2e} (cell {dz:.2e}), "
                   f"radius err {radius_err:.2e} (cell {drho:.2e}), "
                   f"{len(others)} paired rings, fringe err {fringe_err:.3%} "
                   f"from 2pi/Phi'(0) (tol 1%; {plane_wave_err:.3%} from pi/k), "
                   f"{elapsed:.1f}s")
    assert central_ok
    assert radius_ok
    assert pairs_ok
    assert elapsed < 120.0
    assert fringe_ok, f"fringe spacing off 2pi/Phi'(0) by {fringe_err:.3%}"


def test_criterion_5_double_ring_formulas():
    t_start = time.perf_counter()
    pr = ring_lattice_pair()
    rings, _ = ring_lattice()
    half_d = 0.5 * pr.separation_d
    checked = 0
    worst = 0.0
    for split in rings.splittings:
        delta = abs(split.z_pos)
        if not 0.0 < delta < half_d:
            continue
        w1, w2 = double_ring_radii(pr, delta)
        worst = max(worst, abs(split.r_inner - w1) / w1,
                    abs(split.r_outer - w2) / w2)
        checked += 1

    w0 = 8e-6
    zr = math.pi * w0 ** 2 / WAVELENGTH
    errs = []
    for d in (0.8 * zr, 0.4 * zr, 0.2 * zr, 0.1 * zr):
        p = PairSpec(WAVELENGTH, w0, l1=2, separation_d=d)
        s = radial_separation(p, 0.25 * d)
        errs.append(abs(s.approx - s.exact) / s.exact)
    halves = all(small <= 0.55 * big for big, small in zip(errs, errs[1:]))

    elapsed = time.perf_counter() - t_start
    ok = checked >= 10 and worst <= 0.10 and halves
    verdict(5, ok, f"{checked} splittings, worst radius err {worst:.3%} "
                   f"(tol 10%), approx err sequence "
                   f"{'/'.join(f'{e:.2e}' for e in errs)}, {elapsed:.1f}s")
    assert checked >= 10
    assert worst <= 0.10
    assert halves


def test_criterion_6_ferris_wheel_rates():
    t_start = time.perf_counter()
    w0 = 20.0 * WAVELENGTH
    delta_omega = 2.0 * math.pi * 1e3
    pr = PairSpec(WAVELENGTH, w0, l1=2, delta_omega=delta_omega)
    ring = w0 * math.sqrt(2.0 / 2.0)
    want_rot = delta_omega / 4.0
    got_rot = measure_rotation_rate(pr, ring, 0.0, 0.0, 1.25e-4)
    rot_err = abs(got_rot - want_rot) / want_rot
    assert ferris_rate(pr) == pytest.approx(want_rot, rel=1e-12)

    want_drift = delta_omega / (2.0 * pr.beam1.wavenumber)
    got_drift = measure_axial_drift(pr, ring, 0.0, 1.25e-4)
    drift_err = abs(got_drift - want_drift) / want_drift

    elapsed = time.perf_counter() - t_start
    ok = rot_err <= 1e-6 and drift_err <= 0.05 and elapsed < 60.0
    verdict(6, ok, f"rotation rel err {rot_err:.3e} (tol 1e-6), "
                   f"drift rel err {drift_err:.3e} (tol 5%), {elapsed:.1f}s")
    assert rot_err <= 1e-6
    assert drift_err <= 0.05
    assert elapsed < 60.0


def test_criterion_7_trap_dynamics():
    t_start = time.perf_counter()
    atom = sodium()
    w0 = 8e-6
    zr = math.pi * w0 ** 2 / WAVELENGTH
    pr = PairSpec(WAVELENGTH, w0, l1=1, separation_d=1.4 * zr)
    omega = trap_frequency(atom, pr)
    assert omega == pytest.approx(math.sqrt(spring_constant_k0(atom, pr)
                                            / atom.mass), rel=1e-12)
    period = 2.0 * math.pi / omega
    rho0 = central_ring_radius(pr)
    init = TrajectoryState(0.0, rho0, 0.0, 0.01 * zr, 0.0, 0.0, 0.0)

    cfg = IntegratorConfig(step=period / 400, duration=5.0 * period,
                           include_azimuthal=False)
    states = integrate(atom, pr, init, cfg)
    ts = np.array([s.time for s in states])
    zs = np.array([s.z for s in states])
    freq_err = abs(estimate_frequency(ts, zs) - omega) / omega

    def final_state(n):
        c = IntegratorConfig(step=period / n, duration=period,
                             include_azimuthal=False, sample_every=10 ** 9)
        return np.array(integrate(atom, pr, init, c)[-1][1:])

    ref = final_state(3200)
    errs = [np.linalg.norm(final_state(n) - ref) for n in (100, 200, 400)]
    ratios = (errs[0] / errs[1], errs[1] / errs[2])
    fourth_order = all(13.0 < r < 19.0 for r in ratios)

    # conservative leg: oscillation in the radial dipole well of the ring
    cons_atom = sodium(delta0=-2.0 * GAMMA)
    well = TrajectoryState(0.0, 1.08 * rho0, 0.0, 0.0, 0.0, 0.0, 0.0)
    cons = IntegratorConfig(step=period / 400, duration=3.0 * period,
                            include_scattering=False, include_dipole=True,
                            sample_every=10)
    cstates = integrate(cons_atom, pr, well, cons)

    def energy(s):
        ke = 0.5 * atom.mass * (s.vx ** 2 + s.vy ** 2 + s.vz ** 2)
        return ke + float(dipole_potential(cons_atom, pr, CylPoint.from_cartesian(*s[1:4])))

    e = np.array([energy(s) for s in cstates])
    drift = float(np.max(np.abs(e - e[0])) / abs(e[0]) / 3.0)

    elapsed = time.perf_counter() - t_start
    ok = (freq_err <= 0.02 and fourth_order and drift <= 1e-6
          and elapsed < 60.0)
    verdict(7, ok, f"freq rel err {freq_err:.3e} (tol 2%), step-halving error "
                   f"ratios {ratios[0]:.1f}/{ratios[1]:.1f}, energy drift "
                   f"{drift:.2e}/period (tol 1e-6), {elapsed:.1f}s")
    assert freq_err <= 0.02
    assert fourth_order
    assert drift <= 1e-6
    assert elapsed < 60.0


def test_criterion_8_paraxial_residual():
    t_start = time.perf_counter()
    from vortexlattice.lg_mode import BeamSpec

    def residual(l, p, w0):
        b = BeamSpec(wavelength=WAVELENGTH, waist_w0=w0, winding_l=l,
                     radial_p=p)
        k = b.wavenumber
        zr = b.rayleigh_range

        def env(rho, phi, z):
            pt = CylPoint(rho=rho, phi=phi, z=z)
            th = mode_phase(b, pt) - k * z
            return mode_amplitude(b, pt) * np.exp(1j * th)

        rho = np.linspace(0.25 * w0, (math.sqrt(l / 2.0 + p) + 1.8) * w0, 201)
        z = np.linspace(-zr, zr, 81)
        hr, hz, hphi = w0 / 200.0, zr / 400.0, 1e-3
        R, Z = np.meshgrid(rho, z, indexing="ij")
        f = lambda dr, dp, dzz: env(R + dr, 0.3 + dp, Z + dzz)
        psi = f(0.0, 0.0, 0.0)
        lap = (f(hr, 0, 0) - 2.0 * psi + f(-hr, 0, 0)) / hr ** 2 \
            + (f(hr, 0, 0) - f(-hr, 0, 0)) / (2.0 * hr * R) \
            + (f(0, hphi, 0) - 2.0 * psi + f(0, -hphi, 0)) / (hphi ** 2 * R ** 2)
        ddz = (f(0, 0, hz) - f(0, 0, -hz)) / (2.0 * hz)
        return float(np.max(np.abs(lap + 2.0j * k * ddz)) / np.max(np.abs(lap)))

    worst = 0.0
    for l, p in ((0, 0), (1, 0), (4, 1), (7, 2), (10, 0), (10, 3)):
        for w0 in (10.0 * WAVELENGTH, 25.0 * WAVELENGTH):
            worst = max(worst, residual(l, p, w0))
    elapsed = time.perf_counter() - t_start
    ok = worst <= 1e-3 and elapsed < 30.0
    verdict(8, ok, f"worst discretized-envelope residual {worst:.3e} "
                   f"(tol 1e-3), {elapsed:.1f}s")
    assert worst <= 1e-3
    assert elapsed < 30.0
