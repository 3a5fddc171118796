import math

import numpy as np
import pytest

from vortexlattice import atom_forces, dynamics
from vortexlattice.atom_forces import (AtomSpec, Velocity,
                                       central_ring_radius, dipole_force,
                                       dipole_potential, spring_constant_k0,
                                       torque_axial)
from vortexlattice.dynamics import (IntegratorConfig, TrajectoryState,
                                    angular_momentum, estimate_frequency,
                                    integrate, trap_frequency)
from vortexlattice.errors import (DegenerateGeometryError, DivergenceError,
                                  StepSizeError)
from vortexlattice.lg_mode import CylPoint
from vortexlattice.superpose import PairSpec

WAVELENGTH = 589.16e-9
GAMMA = 2.0 * math.pi * 10.01e6
NA_MASS = 3.8175e-26


def sodium():
    return AtomSpec(mass=NA_MASS, gamma=GAMMA, detuning0=0.5 * GAMMA,
                    rabi_omega0=GAMMA)


def trap_pair(d_frac=1.4):
    w0 = 8e-6
    zr = math.pi * w0 ** 2 / WAVELENGTH
    return PairSpec.counterpropagating(WAVELENGTH, w0, l1=1, separation_d=d_frac * zr)


def on_ring_state(pair, z_frac=0.01, **vel):
    zr = pair.beam1.rayleigh_range
    v = Velocity(vel.get("v_rho", 0.0), vel.get("v_phi", 0.0), vel.get("v_z", 0.0))
    return TrajectoryState(position=CylPoint(rho=central_ring_radius(pair), phi=0.0,
                                             z=z_frac * zr),
                           velocity=v, time=0.0)


def cartesian_state(state):
    p, v = state.position, state.velocity
    c, s = math.cos(p.phi), math.sin(p.phi)
    return np.array([p.rho * c, p.rho * s, p.z,
                     v.v_rho * c - v.v_phi * s, v.v_rho * s + v.v_phi * c, v.v_z])


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(step=0.0, duration=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(step=1.0, duration=0.5)
    with pytest.raises(ValueError):
        IntegratorConfig(step=1e-6, duration=1e-3, force_model="other")
    with pytest.raises(ValueError):
        IntegratorConfig(step=1e-6, duration=1e-3, sample_every=0)


def test_trap_frequency_identity_and_degenerate():
    atom = sodium()
    p = trap_pair()
    assert trap_frequency(atom, p) == pytest.approx(
        math.sqrt(spring_constant_k0(atom, p) / atom.mass), rel=1e-12)
    with pytest.raises(DegenerateGeometryError):
        trap_frequency(atom, trap_pair(d_frac=0.0))


def test_force_free_motion_is_ballistic():
    atom = sodium()
    p = trap_pair()
    init = on_ring_state(p, z_frac=0.0, v_z=0.005)
    period = 2.0 * math.pi / trap_frequency(atom, p)
    cfg = IntegratorConfig(step=period / 200, duration=period,
                           include_scattering=False, include_dipole=False,
                           sample_every=10 ** 9)
    final = integrate(atom, p, init, cfg)[-1]
    n_steps = round(cfg.duration / cfg.step)
    want_z = init.position.z + 0.005 * n_steps * cfg.step
    assert final.position.z == pytest.approx(want_z, rel=1e-12)
    assert final.position.rho == pytest.approx(init.position.rho, rel=1e-12)


def test_axial_oscillation_frequency():
    atom = sodium()
    p = trap_pair()
    omega = trap_frequency(atom, p)
    period = 2.0 * math.pi / omega
    cfg = IntegratorConfig(step=period / 400, duration=5.0 * period,
                           include_azimuthal=False)
    states = integrate(atom, p, on_ring_state(p), cfg)
    ts = np.array([s.time for s in states])
    zs = np.array([s.position.z for s in states])
    measured = estimate_frequency(ts, zs)
    assert measured == pytest.approx(omega, rel=2e-2)
    # small-amplitude start stays near the midplane
    assert np.max(np.abs(zs)) < 1.5 * states[0].position.z


def test_azimuthal_spin_up_rate():
    """With the azimuthal push on, the atom picks up angular speed at
    torque / (m rho0) while it still sits near the ring."""
    atom = sodium()
    p = trap_pair()
    rho0 = central_ring_radius(p)
    period = 2.0 * math.pi / trap_frequency(atom, p)
    t_end = 0.04 * period
    cfg = IntegratorConfig(step=t_end / 200, duration=t_end, sample_every=10 ** 9)
    init = on_ring_state(p, z_frac=0.0)
    final = integrate(atom, p, init, cfg)[-1]
    n_steps = round(cfg.duration / cfg.step)
    want_v_phi = torque_axial(atom, p) / (atom.mass * rho0) * (n_steps * cfg.step)
    assert final.velocity.v_phi == pytest.approx(want_v_phi, rel=1e-2)
    assert angular_momentum(atom, final) > angular_momentum(atom, init)


def test_angular_momentum_never_decreases():
    atom = sodium()
    p = trap_pair()
    period = 2.0 * math.pi / trap_frequency(atom, p)
    cfg = IntegratorConfig(step=period / 400, duration=period, sample_every=20)
    states = integrate(atom, p, on_ring_state(p), cfg)
    lz = np.array([angular_momentum(atom, s) for s in states])
    assert np.all(np.diff(lz) >= -1e-40)


def test_energy_conservation_dipole_only():
    """Red-detuned radial oscillation in the ring's dipole well; kinetic and
    potential energy trade at the percent level while their sum holds."""
    atom = AtomSpec(mass=NA_MASS, gamma=GAMMA, detuning0=-2.0 * GAMMA,
                    rabi_omega0=GAMMA)
    p = trap_pair()
    period = 2.0 * math.pi / trap_frequency(atom, p)
    cfg = IntegratorConfig(step=period / 400, duration=3.0 * period,
                           include_scattering=False, include_dipole=True,
                           sample_every=10)
    well = TrajectoryState(
        position=CylPoint(rho=1.08 * central_ring_radius(p), phi=0.0, z=0.0),
        velocity=Velocity(0.0, 0.0, 0.0), time=0.0)
    states = integrate(atom, p, well, cfg)

    def energy(s):
        v = s.velocity
        ke = 0.5 * atom.mass * (v.v_rho ** 2 + v.v_phi ** 2 + v.v_z ** 2)
        return ke + float(dipole_potential(atom, p, s.position))

    e = np.array([energy(s) for s in states])
    ke = np.array([0.5 * atom.mass * (s.velocity.v_rho ** 2
                                      + s.velocity.v_phi ** 2
                                      + s.velocity.v_z ** 2) for s in states])
    assert np.max(ke) > 5e-3 * abs(e[0])       # the atom really oscillates
    drift_per_period = np.max(np.abs(e - e[0])) / abs(e[0]) / 3.0
    assert drift_per_period < 1e-8


def test_fourth_order_convergence():
    atom = sodium()
    p = trap_pair()
    period = 2.0 * math.pi / trap_frequency(atom, p)
    init = on_ring_state(p)

    def final(n):
        cfg = IntegratorConfig(step=period / n, duration=period,
                               include_azimuthal=False, sample_every=10 ** 9)
        return cartesian_state(integrate(atom, p, init, cfg)[-1])

    ref = final(3200)
    errs = [np.linalg.norm(final(n) - ref) for n in (100, 200, 400)]
    assert 13.0 < errs[0] / errs[1] < 19.0
    assert 13.0 < errs[1] / errs[2] < 19.0


def test_step_size_gate():
    atom = sodium()
    p = trap_pair()
    period = 2.0 * math.pi / trap_frequency(atom, p)
    with pytest.raises(StepSizeError):
        integrate(atom, p, on_ring_state(p),
                  IntegratorConfig(step=period / 10, duration=period))


def test_divergence_detection():
    atom = sodium()
    p = trap_pair()
    period = 2.0 * math.pi / trap_frequency(atom, p)
    runaway = on_ring_state(p, z_frac=0.0, v_z=2000.0)
    cfg = IntegratorConfig(step=period / 400, duration=10.0 * period,
                           include_scattering=False)
    with pytest.raises(DivergenceError):
        integrate(atom, p, runaway, cfg)


def test_sampling_layout():
    atom = sodium()
    p = trap_pair()
    period = 2.0 * math.pi / trap_frequency(atom, p)
    cfg = IntegratorConfig(step=period / 100, duration=period, sample_every=10)
    states = integrate(atom, p, on_ring_state(p), cfg)
    assert len(states) == 11
    assert states[0].time == 0.0
    assert states[-1].time == pytest.approx(100 * cfg.step, rel=1e-12)


def test_estimate_frequency_known_signal():
    omega = 2.0 * math.pi * 37.0
    t = np.linspace(0.0, 5.0 * 2.0 * math.pi / omega, 1000)
    assert estimate_frequency(t, np.sin(omega * t + 0.3)) == pytest.approx(omega, rel=1e-4)
    assert math.isnan(estimate_frequency(t[:3], np.sin(omega * t[:3])))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_divergence_guard_catches_non_finite_state(monkeypatch, bad):
    """A NaN position fails every comparison, so the region test alone would
    let it through; the guard must still raise."""
    atom = sodium()
    p = trap_pair()
    period = 2.0 * math.pi / trap_frequency(atom, p)
    monkeypatch.setattr(dynamics, "_forces",
                        lambda *args, **kwargs: (np.full(3, bad), np.zeros(3)))
    cfg = IntegratorConfig(step=period / 400, duration=period)
    with pytest.raises(DivergenceError, match="non-finite"):
        integrate(atom, p, on_ring_state(p), cfg)


def ferris_pair(delta_omega):
    """l = 2, d = 0 and w0 = 6 wavelengths: the spokes of the total field
    turn at delta_omega / 4, and with d = 0 no axial trap sets a step bound."""
    return PairSpec.counterpropagating(WAVELENGTH, 6.0 * WAVELENGTH, l1=2,
                                       delta_omega=delta_omega)


def red_atom():
    return AtomSpec(mass=NA_MASS, gamma=GAMMA, detuning0=-2.0 * GAMMA, rabi_omega0=GAMMA)


def dipole_full(step, duration):
    return IntegratorConfig(step=step, duration=duration, force_model="full",
                            include_scattering=False, include_dipole=True,
                            sample_every=10 ** 9)


def test_trajectory_sees_the_turning_pattern():
    """A frequency offset turns the interference pattern under the atom, so
    the final state of a full-model trajectory depends on it."""
    atom = red_atom()
    finals = []
    for dw in (0.0, 2.0 * math.pi * 1e5):
        p = ferris_pair(dw)
        init = TrajectoryState(CylPoint(rho=central_ring_radius(p), phi=0.0, z=0.0),
                               Velocity(), time=0.0)
        finals.append(cartesian_state(integrate(atom, p, init, dipole_full(1e-7, 2e-5))[-1]))
    assert not np.array_equal(finals[0], finals[1])
    assert abs(finals[1][5]) > 1e-3          # the conveyor has pushed the atom along z


def test_first_stage_force_is_taken_at_the_initial_time(monkeypatch):
    atom = red_atom()
    p = ferris_pair(2.0 * math.pi * 1e5)
    init = TrajectoryState(CylPoint(rho=central_ring_radius(p), phi=0.3, z=1e-7),
                           Velocity(), time=1.3e-6)
    calls = []
    forces = dynamics._forces

    def recording(*args):
        result = forces(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(dynamics, "_forces", recording)
    integrate(atom, p, init, dipole_full(1e-7, 1e-7))
    assert len(calls) == 4
    args, (_, fd) = calls[0]
    pt, t = args[2], args[5]
    assert t == init.time
    want = dipole_force(atom, p, pt, mode="full", t=init.time)
    np.testing.assert_array_equal(fd, want)
    assert not np.array_equal(want, dipole_force(atom, p, pt, mode="full"))


@pytest.mark.parametrize("factor, raises", [(1.001, True), (0.999, False)])
def test_pattern_period_step_gate(factor, raises):
    """A frequency-offset pair needs MIN_STEPS_PER_PERIOD steps per pattern
    period 2 pi / |delta_omega|, here 10 us."""
    atom = red_atom()
    dw = -2.0 * math.pi * 1e5
    p = ferris_pair(dw)
    step = factor * 2.0 * math.pi / abs(dw) / dynamics.MIN_STEPS_PER_PERIOD
    init = TrajectoryState(CylPoint(rho=central_ring_radius(p), phi=0.0, z=0.0),
                           Velocity(), time=0.0)
    cfg = dipole_full(step, step)
    if raises:
        with pytest.raises(StepSizeError, match="pattern period"):
            integrate(atom, p, init, cfg)
    else:
        assert len(integrate(atom, p, init, cfg)) == 2


@pytest.mark.parametrize("model, scattering, dipole, jets, amplitudes",
                         [("full", True, True, 2, 0), ("reduced", True, False, 0, 2)])
def test_each_stage_evaluates_each_mode_once(monkeypatch, model, scattering, dipole,
                                             jets, amplitudes):
    """The scattering and dipole forces of a stage share each beam's mode
    evaluation: a jet when the stage needs gradients, else an amplitude."""
    atom = sodium()
    p = trap_pair()
    period = 2.0 * math.pi / trap_frequency(atom, p)
    counts = {"mode_jet": 0, "mode_amplitude": 0}
    for name in counts:
        def counting(*args, _fn=getattr(atom_forces, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(atom_forces, name, counting)
    cfg = IntegratorConfig(step=period / 400, duration=period, force_model=model,
                           velocity_coupling=True, include_scattering=scattering,
                           include_dipole=dipole)
    _, _, fz = dynamics._force_cartesian(atom, p, cfg, 0.0,
                                         *cartesian_state(on_ring_state(p, v_z=0.01)))
    assert counts == {"mode_jet": jets, "mode_amplitude": amplitudes}
    assert fz != 0.0
