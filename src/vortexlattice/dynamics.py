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
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .atom_forces import FORCE_MODELS, Velocity, _forces, central_ring_radius, \
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
        if self.step <= 0.0:
            raise ValueError("step must be positive")
        if self.duration < self.step:
            raise ValueError("duration must be at least one step")
        if self.force_model not in FORCE_MODELS:
            raise ValueError(f"force_model must be one of {FORCE_MODELS}")
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")


def trap_frequency(atom, pair):
    """Harmonic axial frequency sqrt(K0 / m) on the central ring (rad/s)."""
    k0 = spring_constant_k0(atom, pair)
    if k0 <= 0.0:
        raise DegenerateGeometryError("no axial trap: K0 <= 0 for this geometry")
    return math.sqrt(k0 / atom.mass)


def angular_momentum(atom, state):
    """Axial angular momentum m (x v_y - y v_x) of a trajectory state."""
    return atom.mass * (state.x * state.vy - state.y * state.vx)


def _force_cartesian(atom, pair, cfg, t, x, y, z, vx, vy, vz):
    rho = math.hypot(x, y)
    phi = math.atan2(y, x)
    c, s = math.cos(phi), math.sin(phi)
    pt = CylPoint(rho=rho, phi=phi, z=z)
    vel = None
    if cfg.velocity_coupling:
        vel = Velocity(v_rho=vx * c + vy * s, v_phi=vy * c - vx * s, v_z=vz)
    fs, fd = _forces(atom, pair, pt, vel, cfg.force_model, t,
                     cfg.include_scattering, cfg.include_dipole)
    if not cfg.include_azimuthal:
        fs[1] = 0.0
    f_rho, f_phi, f_z = (fs + fd).tolist()
    return f_rho * c - f_phi * s, f_rho * s + f_phi * c, f_z


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

    # the state is a tuple of floats: on (6,) arrays each stage's update
    # costs more numpy calls than the force's arithmetic.  The updates keep
    # the array form's operation order, y + (h / 2) k and
    # y + (h / 6) (((k1 + 2 k2) + 2 k3) + k4), so the samples are the same
    y = tuple(float(v) for v in init[1:])
    inv_m = 1.0 / atom.mass

    def deriv(t, x, y, z, vx, vy, vz):
        fx, fy, fz = _force_cartesian(atom, pair, cfg, t, x, y, z, vx, vy, vz)
        return vx, vy, vz, fx * inv_m, fy * inv_m, fz * inv_m

    n_steps = max(1, round(cfg.duration / cfg.step))
    h = cfg.step
    half = 0.5 * h
    sixth = h / 6.0
    samples = [init]
    for n in range(1, n_steps + 1):
        t = init.time + (n - 1) * h
        k1 = deriv(t, *y)
        k2 = deriv(t + half, *[a + half * b for a, b in zip(y, k1)])
        k3 = deriv(t + half, *[a + half * b for a, b in zip(y, k2)])
        k4 = deriv(t + h, *[a + h * b for a, b in zip(y, k3)])
        y = tuple(a + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
                  for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))
        # every comparison with NaN is False, so the region test alone would
        # let a NaN state through; the sum of the six floats is NaN or
        # infinite when any of them is
        if not math.isfinite(sum(y)):
            raise DivergenceError(f"trajectory state became non-finite at step {n}")
        if math.hypot(y[0], y[1]) > radial_max or abs(y[2]) > axial_max:
            raise DivergenceError(f"trajectory left the beam region at step {n}")
        if n % cfg.sample_every == 0 or n == n_steps:
            samples.append(TrajectoryState(init.time + n * h, *y))
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
