"""Semiclassical point-particle trajectories in the two-beam force field.

A classic fixed-step fourth-order Runge-Kutta integrator advances the atom in
Cartesian coordinates (the cylindrical frame is singular on the axis), and
each sample is that state itself, a ``TrajectoryState`` tuple
(time, x, y, z, vx, vy, vz); ``np.array(states)`` is the trajectory.  Forces
are evaluated in the local cylindrical frame at every substage's absolute
time, so the pattern of a frequency-offset pair turns and crawls under the
atom.  The force model is "reduced" (the beams' forces added) or "full" (the
interfered field); the scattering and dipole forces toggle independently and
share each substage's mode evaluations, with optional velocity coupling.
The model's force function, its constants and the toggles are read once per
run (``_stage``), so a stage pays only for the forces the run asks for.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .atom_forces import FORCE_MODELS, Velocity, _run_constants, central_ring_radius, \
    spring_constant_k0
# scattering_force and dipole_force are not called here; they stay module
# attributes because perfbench/spans.py traces calls by rebinding these names
from .atom_forces import dipole_force, scattering_force
from .errors import DegenerateGeometryError, DivergenceError, StepSizeError
from .lg_mode import CylPoint, waist_at

__all__ = [
    "IntegratorConfig",
    "TrajectoryState",
    "angular_momentum",
    "estimate_frequency",
    "integrate",
    "summarize_trajectory",
    "trap_frequency",
]

# Trajectories further out than this multiple of the beam extent abort
DIVERGENCE_FACTOR = 10.0

# Minimum resolution of one trap period or pattern period, in steps
MIN_STEPS_PER_PERIOD = 50


class TrajectoryState(NamedTuple):
    """Sample of the atom: the time, then its Cartesian position and velocity."""

    time: float
    x: float
    y: float
    z: float
    vx: float
    vy: float
    vz: float


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration controls.

    ``force_model`` selects "reduced" (per-beam reduced phase gradients,
    forces added) or "full" (full gradient of the interfered field).
    ``velocity_coupling`` feeds v . grad(Theta) into the detuning.  The
    scattering and dipole contributions toggle independently, and
    ``include_azimuthal`` can zero the azimuthal scattering component to
    isolate the conservative trap motion from the spin-up torque.
    """

    step: float
    duration: float
    force_model: str = "reduced"
    velocity_coupling: bool = False
    include_scattering: bool = True
    include_dipole: bool = False
    include_azimuthal: bool = True
    sample_every: int = 1

    def __post_init__(self):
        if not 0.0 < self.step < math.inf:
            raise ValueError("step must be positive and finite")
        if not (self.step <= self.duration and self.duration / self.step < math.inf):
            raise ValueError("duration must be at least one step and a finite number of steps")
        if self.force_model not in FORCE_MODELS:
            raise ValueError(f"force_model must be one of {FORCE_MODELS}")
        every = self.sample_every
        if isinstance(every, bool) or not isinstance(every, (int, np.integer)) or every < 1:
            raise ValueError("sample_every must be an integer >= 1")


def trap_frequency(atom, pair):
    """Harmonic axial frequency sqrt(K0 / m) on the central ring (rad/s)."""
    k0 = spring_constant_k0(atom, pair)
    if k0 <= 0.0:
        raise DegenerateGeometryError("no axial trap: K0 <= 0 for this geometry")
    return math.sqrt(k0 / atom.mass)


def angular_momentum(atom, state):
    """Axial angular momentum m (x v_y - y v_x) of a trajectory state."""
    return atom.mass * (state.x * state.vy - state.y * state.vx)


def _stage(atom, pair, cfg):
    """The run's RK4 stage ``accel(t, x, y, z, vx, vy, vz)``: the
    acceleration (ax, ay, az) as floats, from the cylindrical force triples
    of the model's force function, which ``_run_constants`` picks once per
    run with its constants.  A lone force is used as it is (0.0 + -0.0
    would lose a sign of zero)."""
    forces, ref, s_ref = _run_constants(atom, pair, cfg.force_model)
    scattering, dipole = cfg.include_scattering, cfg.include_dipole
    azimuthal, coupling = cfg.include_azimuthal, cfg.velocity_coupling
    inv_m = 1.0 / atom.mass

    def accel(t, x, y, z, vx, vy, vz):
        rho = math.hypot(x, y)
        phi = math.atan2(y, x)
        c, s = math.cos(phi), math.sin(phi)
        vel = Velocity(v_rho=vx * c + vy * s, v_phi=vy * c - vx * s, v_z=vz) if coupling else None
        fs, fd = forces(atom, pair, CylPoint(rho, phi, z), vel, t, scattering, dipole, ref,
                        s_ref, azimuthal)
        if scattering and dipole:
            f_rho, f_phi, f_z = fs[0] + fd[0], fs[1] + fd[1], fs[2] + fd[2]
        else:
            f_rho, f_phi, f_z = fs if scattering else fd
        return (f_rho * c - f_phi * s) * inv_m, (f_rho * s + f_phi * c) * inv_m, f_z * inv_m

    return accel


def _extents(pair):
    """Radial and axial extent of the beam region: the central ring radius
    plus four beam radii at the far focus, and half the focal separation
    plus two Rayleigh ranges."""
    b = pair.beam1
    w_far = waist_at(b, pair.separation_d)
    radial = central_ring_radius(pair) + 4.0 * w_far
    axial = 0.5 * pair.separation_d + 2.0 * b.rayleigh_range
    return radial, axial


def integrate(atom, pair, init, cfg):
    """Advance a TrajectoryState through the pair's force field.

    Returns ``init`` and every ``sample_every``-th state, always the last one.
    Each RK4 substage sees the force at its absolute time, counted from
    ``init.time``.  Raises StepSizeError when the step resolves the axial
    trap period, or the pattern period 2 pi / |delta_omega| of a
    frequency-offset pair, with fewer than MIN_STEPS_PER_PERIOD points, and
    DivergenceError if the atom leaves DIVERGENCE_FACTOR times the beam
    extent or its state stops being finite.
    """
    k0 = spring_constant_k0(atom, pair)
    periods = [("trap", 2.0 * math.pi / math.sqrt(k0 / atom.mass))] if k0 > 0.0 else []
    if pair.delta_omega != 0.0:
        periods.append(("pattern", 2.0 * math.pi / abs(pair.delta_omega)))
    for name, period in periods:
        if cfg.step > period / MIN_STEPS_PER_PERIOD:
            raise StepSizeError(
                f"step {cfg.step:.3e} s too coarse for {name} period {period:.3e} s; "
                f"need <= {period / MIN_STEPS_PER_PERIOD:.3e} s")

    radial_max, axial_max = _extents(pair)
    radial_max *= DIVERGENCE_FACTOR
    axial_max *= DIVERGENCE_FACTOR

    # the state is six floats: on (6,) arrays each stage's update costs more
    # numpy calls than the force's arithmetic, and on tuples the packing and
    # unpacking cost about as much again, so the stages are written out per
    # component.  The position's slope is the velocity, so a stage evaluates
    # only the acceleration.  The updates keep the array form's operation
    # order, y + (h / 2) k and y + (h / 6) (((k1 + 2 k2) + 2 k3) + k4), so
    # the samples are the same
    x, y, z, vx, vy, vz = (float(v) for v in init[1:])
    accel = _stage(atom, pair, cfg)
    n_steps = max(1, round(cfg.duration / cfg.step))
    h = cfg.step
    half = 0.5 * h
    sixth = h / 6.0
    samples = [init]
    for n in range(1, n_steps + 1):
        t = init.time + (n - 1) * h
        ax1, ay1, az1 = accel(t, x, y, z, vx, vy, vz)
        vx2, vy2, vz2 = vx + half * ax1, vy + half * ay1, vz + half * az1
        ax2, ay2, az2 = accel(t + half, x + half * vx, y + half * vy, z + half * vz,
                              vx2, vy2, vz2)
        vx3, vy3, vz3 = vx + half * ax2, vy + half * ay2, vz + half * az2
        ax3, ay3, az3 = accel(t + half, x + half * vx2, y + half * vy2, z + half * vz2,
                              vx3, vy3, vz3)
        vx4, vy4, vz4 = vx + h * ax3, vy + h * ay3, vz + h * az3
        ax4, ay4, az4 = accel(t + h, x + h * vx3, y + h * vy3, z + h * vz3, vx4, vy4, vz4)
        x, y, z, vx, vy, vz = (x + sixth * (((vx + 2.0 * vx2) + 2.0 * vx3) + vx4),
                               y + sixth * (((vy + 2.0 * vy2) + 2.0 * vy3) + vy4),
                               z + sixth * (((vz + 2.0 * vz2) + 2.0 * vz3) + vz4),
                               vx + sixth * (((ax1 + 2.0 * ax2) + 2.0 * ax3) + ax4),
                               vy + sixth * (((ay1 + 2.0 * ay2) + 2.0 * ay3) + ay4),
                               vz + sixth * (((az1 + 2.0 * az2) + 2.0 * az3) + az4))
        # every comparison with NaN is False, so the region test alone would
        # let a NaN state through; the sum of the six floats is NaN or
        # infinite when any of them is
        if not math.isfinite(x + y + z + vx + vy + vz):
            raise DivergenceError(f"trajectory state became non-finite at step {n}")
        if math.hypot(x, y) > radial_max or abs(z) > axial_max:
            raise DivergenceError(f"trajectory left the beam region at step {n}")
        if n % cfg.sample_every == 0 or n == n_steps:
            samples.append(TrajectoryState(init.time + n * h, x, y, z, vx, vy, vz))
    return samples


def estimate_frequency(times, values):
    """Angular frequency of an oscillating series from its zero crossings.

    The series is demeaned, crossing times are linearly interpolated, and the
    mean half-period gives omega = pi / mean(gap).  Returns NaN when fewer
    than three crossings exist.
    """
    t = np.asarray(times, dtype=float)
    x = np.asarray(values, dtype=float)
    x = x - x.mean()
    sign = np.sign(x)
    nz = sign != 0.0
    idx = np.where(np.diff(sign[nz]) != 0.0)[0]
    t_nz, x_nz = t[nz], x[nz]
    if idx.size < 3:
        return float("nan")
    crossings = t_nz[idx] - x_nz[idx] * (t_nz[idx + 1] - t_nz[idx]) \
        / (x_nz[idx + 1] - x_nz[idx])
    return math.pi / float(np.mean(np.diff(crossings)))


def summarize_trajectory(atom, pair, states):
    """A trajectory's samples as rows, and what they show: (rows, summary).

    ``rows`` is (n, 9): each sample, then its rho and phi (math.hypot and
    math.atan2; numpy's differ in the last bit on some samples).  ``summary``
    gives the axial frequency measured from z beside sqrt(K0/m) (each None
    where undefined), L_z at both ends and whether it never decreases, the
    last position, and the farthest rho and |z| against the beam extent
    itself, which the divergence guard allows DIVERGENCE_FACTOR times."""
    rho = [math.hypot(st.x, st.y) for st in states]
    phi = [math.atan2(st.y, st.x) for st in states]
    rows = np.column_stack((np.array(states), rho, phi))
    lz = [angular_momentum(atom, st) for st in states]
    omega = estimate_frequency(rows[:, 0], rows[:, 3])
    try:
        omega_ref = trap_frequency(atom, pair)
    except DegenerateGeometryError:
        omega_ref = None
    radial, axial = _extents(pair)
    max_rho = float(np.max(rows[:, 7]))
    max_abs_z = float(np.max(np.abs(rows[:, 3])))
    summary = {
        "n_samples": len(states),
        # NaN (fewer than three crossings) is written as null
        "oscillation_omega_measured": None if math.isnan(omega) else omega,
        "oscillation_omega_analytic": omega_ref,
        "lz_initial": lz[0],
        "lz_final": lz[-1],
        "lz_monotone_nondecreasing": bool(np.all(np.diff(lz) >= -1e-12 * max(
            1e-60, float(np.max(np.abs(lz)))))),
        "final": {"rho": rho[-1], "phi": phi[-1], "z": states[-1].z},
        "max_rho": max_rho,
        "max_abs_z": max_abs_z,
        "left_beam_extent": bool(max_rho > radial or max_abs_z > axial),
    }
    return rows, summary
