"""Seeded workloads: config generators, CLI arguments and output checks.

Each workload turns a seed into a small pool of JSON run configs.  Every
config in a workload costs the same amount of work (the grid or the step
count is fixed); only the physical parameters vary, inside the paper's
regime.  The checks read what the CLI wrote and compare it with closed forms
computed here, independently of the package, using the tolerances of the
acceptance gate in ``tests/test_acceptance.py``.
"""

import json
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

WAVELENGTH = 589.16e-9
NA_MASS = 3.8175e-26
GAMMA = 2.0 * math.pi * 10.01e6
HBAR = 1.054571817e-34
K_LIGHT = 2.0 * math.pi / WAVELENGTH

RINGS_N_RHO, RINGS_N_Z = 420, 6000
FERRIS_N, FERRIS_TIMES = 161, 3
TRAP_REDUCED_STEPS = 800
TRAP_TOTAL_STEPS = 160
STEPS_PER_PERIOD = 400
SAMPLE_EVERY = 4

# Tolerances, as in the acceptance gate (criteria 4, 5, 6 and 7)
SPLIT_RADIUS_TOL = 0.10
MIN_SPLITTINGS = 10
ROTATION_TOL = 1e-6
DRIFT_TOL = 0.05
OMEGA_TOL = 0.02
ENERGY_DRIFT_TOL = 1e-6
# intensity is written as amplitude**2, so the CSV must reproduce it exactly
INTENSITY_TOL = 1e-12
# superpose.DARK_FRACTION is relative to the local beam amplitude; against the
# map maximum a looser cut still separates the axis from the bright ring
DARK_AMPLITUDE = 1e-6


class CheckFailed(Exception):
    """An output is missing or malformed, so no error ratio can be formed."""


@dataclass(frozen=True)
class Case:
    """One generated op: the config written for the CLI and the SI
    parameters the checks compare against."""

    config: dict
    params: dict


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json and README.md say why it was chosen."""

    name: str
    argv: tuple                 # subcommand and fixed options
    work_unit: str              # what work_per_s counts
    generate: Callable          # (rng) -> Case
    work: Callable              # (Case) -> work units of one op
    check: Callable             # (out_dir, Case) -> {check name: error / tolerance}
    threaded: bool = False      # the dominant phase runs on the --threads pool


def rayleigh_range(w0):
    return math.pi * w0 * w0 / WAVELENGTH


def ring_radius(w0, l, z_local):
    """Radius w(z) sqrt(|l|/2) of an LG_l0 bright ring at axial distance
    z_local from its focus."""
    zr = rayleigh_range(w0)
    return w0 * math.sqrt(0.5 * abs(l)) * math.sqrt(1.0 + (z_local / zr) ** 2)


def spring_constant_k0(w0, l, d, delta0, rabi):
    """Axial spring constant of the reduced sum-of-beams scattering force on
    the central ring (README's closed form), for equal unit-amplitude beams."""
    zr = rayleigh_range(w0)
    u = 0.5 * d / zr
    w = w0 * math.sqrt(1.0 + u * u)
    rho0 = w * math.sqrt(0.5 * abs(l))
    # LG_l0 amplitude of beam 1 at the midplane, normalised by 1/sqrt(|l|!)
    amp = math.exp(0.5 * abs(l) * math.log(abs(l)) - 0.5 * math.lgamma(abs(l) + 1.0)
                   - rho0 * rho0 / (w * w)) / math.sqrt(1.0 + u * u) if l else 1.0
    x0 = (rabi * amp) ** 2
    dd = delta0 ** 2 + 0.25 * GAMMA ** 2
    return 0.5 * HBAR * GAMMA * K_LIGHT * d * dd * x0 / (dd + 0.5 * x0) ** 2 \
        / (zr * zr + 0.25 * d * d)


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc


def read_csv(path, n_cols, n_rows=None, nan_col=None):
    """Rows of a CSV written by the CLI as an (n, n_cols) float array, after
    checking the header, the shape and that every value is finite.  Column
    ``nan_col`` may also hold NaN (the phase at dark points)."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc
    lines = text.splitlines()
    if len(lines) < 2 or len(lines[0].split(",")) != n_cols:
        raise CheckFailed(f"{path.name}: missing header or rows")
    if n_rows is not None and len(lines) - 1 != n_rows:
        raise CheckFailed(f"{path.name}: {len(lines) - 1} rows, want {n_rows}")
    body = ",".join(lines[1:])
    with warnings.catch_warnings():
        # numpy warns, rather than raises, on a partly parsed string
        warnings.simplefilter("error")
        try:
            data = np.fromstring(body, sep=",")
        except (ValueError, DeprecationWarning) as exc:
            raise CheckFailed(f"{path.name}: {exc}") from exc
    if data.size != n_cols * (len(lines) - 1) or data.size != body.count(",") + 1:
        raise CheckFailed(f"{path.name}: ragged rows")
    data = data.reshape(-1, n_cols)
    finite = np.isfinite(data)
    if nan_col is not None:
        finite[:, nan_col] |= np.isnan(data[:, nan_col])
    if not np.all(finite):
        raise CheckFailed(f"{path.name}: non-finite value")
    return data


def _rel(got, want):
    return abs(got - want) / abs(want)


# ring-detect --------------------------------------------------------------

def gen_rings(rng):
    l = int(rng.integers(60, 81))
    w0 = float(rng.uniform(5.8, 6.2)) * WAVELENGTH
    d = float(rng.uniform(22.0, 26.0)) * w0
    rho0 = ring_radius(w0, l, 0.5 * d)
    drho = 0.95 * w0 / 100.0           # ring_analysis needs drho <= w0/100
    half_span = 0.5 * (RINGS_N_RHO - 1) * drho
    z_max = 1.04 * 0.5 * d             # dz stays below lambda/20 for d <= 26 w0
    config = {
        "beams": {"wavelength": WAVELENGTH, "waist": w0, "l1": l},
        "pair": {"d": d},
        "rings_grid": {"rho_min": rho0 - half_span, "rho_max": rho0 + half_span,
                       "n_rho": RINGS_N_RHO, "z_min": -z_max, "z_max": z_max,
                       "n_z": RINGS_N_Z},
    }
    params = {"l": l, "w0": w0, "d": d, "rho0": rho0,
              "drho": 2.0 * half_span / (RINGS_N_RHO - 1),
              "dz": 2.0 * z_max / (RINGS_N_Z - 1)}
    return Case(config, params)


def check_rings(out, case):
    """Criterion 4 without its pi/k fringe clause, and criterion 5's
    double-ring radii."""
    p = case.params
    rings = _read_json(out / "rings.json").get("rings", [])
    central = [r for r in rings if r.get("class") == "central"]
    if len(central) != 1:
        raise CheckFailed(f"{len(central)} central rings, want 1")
    splits = read_csv(out / "ring_comparison.csv", 9)
    if splits.shape[0] < MIN_SPLITTINGS:
        raise CheckFailed(f"{splits.shape[0]} splittings, want >= {MIN_SPLITTINGS}")
    worst = 0.0
    for z, r_inner, r_outer in splits[:, :3]:
        delta = abs(z)
        w1 = ring_radius(p["w0"], p["l"], 0.5 * p["d"] - delta)
        w2 = ring_radius(p["w0"], p["l"], 0.5 * p["d"] + delta)
        worst = max(worst, _rel(r_inner, w1), _rel(r_outer, w2))
    return {"central_z": abs(central[0]["z"]) / p["dz"],
            "central_radius": abs(central[0]["radius"] - p["rho0"]) / p["drho"],
            "split_radii": worst / SPLIT_RADIUS_TOL}


# ferris-maps --------------------------------------------------------------

def gen_ferris(rng):
    l1 = int(rng.integers(1, 4))
    w0 = 11.7832e-6
    dw = 2.0 * math.pi * float(rng.uniform(0.5, 2.0)) * 1e3
    gaps = rng.uniform(50e-6, 200e-6, FERRIS_TIMES - 1)
    times = [0.0] + [float(t) for t in np.cumsum(gaps)]
    half_width = w0 * (math.sqrt(0.5 * l1) + 0.55)
    config = {
        "beams": {"wavelength": WAVELENGTH, "waist": w0, "l1": l1},
        "pair": {"d": 0.0, "delta_omega": dw},
        "ferris": {"t_samples": times},
        "xy_grid": {"half_width": half_width, "n": FERRIS_N},
    }
    return Case(config, {"l1": l1, "dw": dw, "half_width": half_width})


def check_ferris(out, case):
    """Criterion 6's rates, plus the shape, finiteness and coordinates of
    every map CSV.  The phase is NaN only at dark points, which the odd grid
    puts on the beam axis."""
    p = case.params
    summary = _read_json(out / "ferris_summary.json")
    try:
        rot = _rel(summary["rotation_rate_measured"], p["dw"] / (2 * p["l1"]))
        drift = _rel(summary["drift_speed_measured"], p["dw"] / (2.0 * K_LIGHT))
    except (KeyError, TypeError) as exc:
        raise CheckFailed(f"ferris_summary.json: {exc!r}") from exc
    axis = np.linspace(-p["half_width"], p["half_width"], FERRIS_N)
    coords = intensity = 0.0
    for i in range(FERRIS_TIMES):
        data = read_csv(out / f"ferris_xy_t{i}_z0.csv", 5, FERRIS_N * FERRIS_N, nan_col=3)
        coords = max(coords, float(np.max(np.abs(data[:, 0] - np.tile(axis, FERRIS_N)))),
                     float(np.max(np.abs(data[:, 1] - np.repeat(axis, FERRIS_N)))))
        amp, inten = data[:, 2], data[:, 4]
        if np.any(np.isnan(data[:, 3]) & (amp > DARK_AMPLITUDE * amp.max())):
            raise CheckFailed(f"ferris_xy_t{i}_z0.csv: NaN phase at a bright point")
        intensity = max(intensity, float(np.max(np.abs(amp * amp - inten)
                                                / np.maximum(inten, 1e-300))))
    return {"rotation_rate": rot / ROTATION_TOL, "drift_speed": drift / DRIFT_TOL,
            "map_coords": coords / (1e-12 * p["half_width"]),
            "map_intensity": intensity / INTENSITY_TOL}


# trap-reduced and trap-total ----------------------------------------------

def _trap_case(rng, delta0, rho_factor, z_factor, steps, include_dipole):
    w0, l = 8e-6, 1
    zr = rayleigh_range(w0)
    d = float(rng.uniform(1.2, 1.6)) * zr
    k0 = spring_constant_k0(w0, l, d, delta0, GAMMA)
    period = 2.0 * math.pi / math.sqrt(k0 / NA_MASS)
    step = period / STEPS_PER_PERIOD
    rho0 = ring_radius(w0, l, 0.5 * d)
    config = {
        "beams": {"wavelength": WAVELENGTH, "waist": w0, "l1": l},
        "pair": {"d": d},
        "atom": {"mass": NA_MASS, "gamma": GAMMA, "delta0": delta0, "rabi": GAMMA},
        "trajectory": {"rho": rho_factor * rho0, "phi": 0.0, "z": z_factor * zr,
                       "step": step, "duration": steps * step,
                       "include_azimuthal": False,
                       "include_scattering": not include_dipole,
                       "include_dipole": include_dipole,
                       "sample_every": SAMPLE_EVERY},
    }
    params = {"w0": w0, "l": l, "d": d, "delta0": delta0, "steps": steps,
              "omega": 2.0 * math.pi / period, "periods": steps / STEPS_PER_PERIOD}
    return Case(config, params)


def gen_trap_reduced(rng):
    return _trap_case(rng, delta0=0.5 * GAMMA, rho_factor=1.0,
                      z_factor=float(rng.uniform(0.005, 0.015)),
                      steps=TRAP_REDUCED_STEPS, include_dipole=False)


def gen_trap_total(rng):
    return _trap_case(rng, delta0=-2.0 * GAMMA,
                      rho_factor=float(rng.uniform(1.06, 1.10)), z_factor=0.0,
                      steps=TRAP_TOTAL_STEPS, include_dipole=True)


def _trajectory_rows(out, case):
    n_rows = case.params["steps"] // SAMPLE_EVERY + 1
    return read_csv(out / "trajectory.csv", 9, n_rows)


def check_trap_reduced(out, case):
    """Criterion 7's oscillation frequency against sqrt(K0 / m)."""
    _trajectory_rows(out, case)
    summary = _read_json(out / "trajectory_summary.json")
    measured = summary.get("oscillation_omega_measured")
    if not isinstance(measured, float):
        raise CheckFailed(f"oscillation_omega_measured is {measured!r}")
    return {"trap_omega": _rel(measured, case.params["omega"]) / OMEGA_TOL}


def check_trap_total(out, case):
    """Criterion 7's conservative leg: kinetic energy plus the total-field
    dipole potential along trajectory.csv, drift per trap period."""
    from vortexlattice.atom_forces import AtomSpec, dipole_potential
    from vortexlattice.lg_mode import CylPoint
    from vortexlattice.superpose import PairSpec

    p = case.params
    rows = _trajectory_rows(out, case)
    atom = AtomSpec(mass=NA_MASS, gamma=GAMMA, detuning0=p["delta0"], rabi_omega0=GAMMA)
    pair = PairSpec.counterpropagating(WAVELENGTH, p["w0"], l1=p["l"], separation_d=p["d"])
    pts = CylPoint(rho=rows[:, 7], phi=rows[:, 8], z=rows[:, 3])
    kinetic = 0.5 * NA_MASS * np.sum(rows[:, 4:7] ** 2, axis=1)
    energy = kinetic + dipole_potential(atom, pair, pts, mode="full", combine="total-field")
    drift = float(np.max(np.abs(energy - energy[0])) / abs(energy[0])) / p["periods"]
    return {"energy_drift": drift / ENERGY_DRIFT_TOL}


WORKLOADS = {w.name: w for w in (
    Workload("ring-detect", ("rings",), "grid_points", gen_rings,
             lambda case: RINGS_N_RHO * RINGS_N_Z, check_rings, threaded=True),
    Workload("ferris-maps", ("ferris",), "grid_points", gen_ferris,
             lambda case: FERRIS_TIMES * FERRIS_N * FERRIS_N, check_ferris),
    Workload("trap-reduced", ("trajectory",), "atom_steps", gen_trap_reduced,
             lambda case: case.params["steps"], check_trap_reduced),
    Workload("trap-total", ("trajectory", "--mode", "full"), "atom_steps", gen_trap_total,
             lambda case: case.params["steps"], check_trap_total),
)}
