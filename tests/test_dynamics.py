import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vortexlattice import atom_forces, dynamics, lg_mode
from vortexlattice.atom_forces import (AtomSpec, Velocity, central_ring_radius,
                                       detuning_eff, dipole_force, dipole_potential,
                                       spring_constant_k0, torque_axial)
from vortexlattice.constants import HBAR
from vortexlattice.dynamics import (IntegratorConfig, TrajectoryState,
                                    angular_momentum, estimate_frequency,
                                    integrate, summarize_trajectory, trap_frequency)
from vortexlattice.errors import (DarkPointError, DegenerateGeometryError,
                                  DivergenceError, StepSizeError)
from vortexlattice.lg_mode import AXIS_RHO, CylPoint, mode_amplitude, mode_jet
from vortexlattice.superpose import DARK_FRACTION, PairSpec

WAVELENGTH = 589.16e-9
GAMMA = 2.0 * math.pi * 10.01e6
NA_MASS = 3.8175e-26


def sodium():
    return AtomSpec(mass=NA_MASS, gamma=GAMMA, detuning0=0.5 * GAMMA,
                    rabi_omega0=GAMMA)


def trap_pair(d_frac=1.4):
    w0 = 8e-6
    zr = math.pi * w0 ** 2 / WAVELENGTH
    return PairSpec(WAVELENGTH, w0, l1=1, separation_d=d_frac * zr)


def on_ring_state(pair, z_frac=0.01, v_z=0.0):
    """At rest on the central ring at phi = 0 (so x = rho), or moving along z."""
    return TrajectoryState(0.0, central_ring_radius(pair), 0.0,
                           z_frac * pair.beam1.rayleigh_range, 0.0, 0.0, v_z)


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
    want_z = init.z + 0.005 * n_steps * cfg.step
    assert final.z == pytest.approx(want_z, rel=1e-12)
    assert math.hypot(final.x, final.y) == pytest.approx(init.x, rel=1e-12)


def test_axial_oscillation_frequency():
    atom = sodium()
    p = trap_pair()
    omega = trap_frequency(atom, p)
    period = 2.0 * math.pi / omega
    cfg = IntegratorConfig(step=period / 400, duration=5.0 * period,
                           include_azimuthal=False)
    states = integrate(atom, p, on_ring_state(p), cfg)
    ts = np.array([s.time for s in states])
    zs = np.array([s.z for s in states])
    measured = estimate_frequency(ts, zs)
    assert measured == pytest.approx(omega, rel=2e-2)
    # small-amplitude start stays near the midplane
    assert np.max(np.abs(zs)) < 1.5 * states[0].z


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
    v_phi = angular_momentum(atom, final) / (atom.mass * math.hypot(final.x, final.y))
    assert v_phi == pytest.approx(want_v_phi, rel=1e-2)
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
    well = TrajectoryState(0.0, 1.08 * central_ring_radius(p), 0.0, 0.0, 0.0, 0.0, 0.0)
    states = integrate(atom, p, well, cfg)
    ke = np.array([0.5 * atom.mass * (s.vx ** 2 + s.vy ** 2 + s.vz ** 2) for s in states])
    e = ke + np.array([float(dipole_potential(atom, p, CylPoint.from_cartesian(*s[1:4])))
                       for s in states])
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
        return np.array(integrate(atom, p, init, cfg)[-1][1:])

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
    init = on_ring_state(p)
    states = integrate(atom, p, init, cfg)
    assert len(states) == 11
    assert states[0] is init
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
    return PairSpec(WAVELENGTH, 6.0 * WAVELENGTH, l1=2, delta_omega=delta_omega)


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
        init = on_ring_state(p, z_frac=0.0)
        finals.append(integrate(atom, p, init, dipole_full(1e-7, 2e-5))[-1])
    assert finals[0][1:] != finals[1][1:]
    assert abs(finals[1].vz) > 1e-3          # the conveyor has pushed the atom along z


def test_first_stage_force_is_taken_at_the_initial_time(monkeypatch):
    atom = red_atom()
    p = ferris_pair(2.0 * math.pi * 1e5)
    rho = central_ring_radius(p)
    init = TrajectoryState(1.3e-6, rho * math.cos(0.3), rho * math.sin(0.3), 1e-7,
                           0.0, 0.0, 0.0)
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
    init = on_ring_state(p, z_frac=0.0)
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
    evaluation: a jet (lg_mode._jet, which mode_jet stacks) when the stage
    needs gradients, else an amplitude."""
    atom = sodium()
    p = trap_pair()
    period = 2.0 * math.pi / trap_frequency(atom, p)
    counts = {"_jet": 0, "mode_amplitude": 0}
    for name in counts:
        def counting(*args, _fn=getattr(atom_forces, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(atom_forces, name, counting)
    cfg = IntegratorConfig(step=period / 400, duration=period, force_model=model,
                           velocity_coupling=True, include_scattering=scattering,
                           include_dipole=dipole)
    _, _, fz = dynamics._force_cartesian(atom, p, cfg, 0.0,
                                         *on_ring_state(p, v_z=0.01)[1:])
    assert counts == {"_jet": jets, "mode_amplitude": amplitudes}
    assert fz != 0.0


@pytest.mark.parametrize("coupling", [False, True])
@pytest.mark.parametrize("azimuthal", [True, False])
def test_reduced_scattering_stage_builds_no_array(monkeypatch, coupling, azimuthal):
    """Every kind of stage computes on floats, the reduced scattering stage
    trap-reduced repeats and the full dipole-only stage trap-total repeats
    among them: in both models, with scattering, dipole or both, and with
    numpy.array, numpy.zeros, numpy.empty and both _stacked made to raise,
    _force_cartesian returns the same three floats, bit for bit, as
    unpatched, with the run constants given or not."""
    atom = sodium()
    p = trap_pair()
    period = 2.0 * math.pi / trap_frequency(atom, p)
    rho = central_ring_radius(p)
    state = (rho * math.cos(0.7), rho * math.sin(0.7), 0.02 * p.beam1.rayleigh_range,
             0.01, -0.02, 0.03)
    kinds = [(model, scattering, dipole) for model in atom_forces.FORCE_MODELS
             for scattering, dipole in ((True, False), (False, True), (True, True))]

    def forces(cfg):
        run = atom_forces._run_constants(atom, p, cfg.force_model)
        return [dynamics._force_cartesian(atom, p, cfg, 1e-6, *state, *extra)
                for extra in ((), (run,))]

    configs = [IntegratorConfig(step=period / 400, duration=period, force_model=model,
                                velocity_coupling=coupling, include_scattering=scattering,
                                include_dipole=dipole, include_azimuthal=azimuthal)
               for model, scattering, dipole in kinds]
    want = [forces(cfg) for cfg in configs]

    def refuse(*args, **kwargs):
        raise AssertionError("an array was built in a scalar stage")

    with monkeypatch.context() as patched:
        for owner, name in ((np, "array"), (np, "zeros"), (np, "empty"),
                            (lg_mode, "_stacked"), (atom_forces, "_stacked")):
            patched.setattr(owner, name, refuse)
        got = [forces(cfg) for cfg in configs]
    for kind, got_kind, want_kind in zip(kinds, got, want):
        for force in got_kind:
            assert all(type(f) is float for f in force), kind
            assert force[2] != 0.0, kind
        assert np.array(got_kind).tobytes() == np.array(want_kind).tobytes(), kind
    # the reduced radial force is 0, so the transverse scattering force is
    # azimuthal
    assert (got[0][0][1] != 0.0) is azimuthal


# ------------------------------------------------- bit-for-bit reference
# The force and RK4 loop as they were on arrays: each reduced beam built a
# (3,) gradient, scaled it and the beams' forces were summed, the full
# model's phase slope was np.where on any shape, and the state was a (6,)
# array.  The package's scalar path must give the same bits.

def _reference_field_terms(pair, pt, vel, t, scattering, dipole):
    """|E|, grad(arg E) and Re(E* grad E) of the interfered field on stacked
    (3,) gradients, every complex product written out in real parts with
    c = cos(Theta) and s = sin(Theta), and the slope Im(grad E / E) masked
    by np.where at dark points."""
    u1, th1, gu1, gth1 = mode_jet(pair.beam1, pt)
    u2, th2, gu2, gth2 = mode_jet(pair.beam2, pt)
    th2 = th2 + pair.delta_k * pt.z + pair.delta_omega * t
    gth2[2] += pair.delta_k
    c1, s1, c2, s2 = np.cos(th1), np.sin(th1), np.cos(th2), np.sin(th2)
    e_re, e_im = u1 * c1 + u2 * c2, u1 * s1 + u2 * s2
    b1, b2 = u1 * gth1, u2 * gth2
    g_re = (c1 * gu1 - s1 * b1) + (c2 * gu2 - s2 * b2)
    g_im = (c1 * b1 + s1 * gu1) + (c2 * b2 + s2 * gu2)
    amp = np.abs(e_re + 1j * e_im)
    grad = None
    if scattering or vel is not None:
        u_max = np.maximum(np.abs(u1), np.abs(u2))
        dark = amp <= DARK_FRACTION * u_max
        if dipole and vel is not None and np.any(dark):
            raise DarkPointError("dark")
        scale = np.where(dark, 1.0, np.maximum(u_max, np.finfo(float).tiny))
        e_re_s, e_im_s = np.where(dark, 1.0, e_re) / scale, np.where(dark, 0.0, e_im) / scale
        grad = np.where(dark, 0.0, (g_im / scale * e_re_s - g_re / scale * e_im_s)
                        / (e_re_s * e_re_s + e_im_s * e_im_s))
    return amp, grad, e_re * g_re + e_im * g_im if dipole else None


def _reference_forces(atom, pair, pt, vel, mode, t, scattering, dipole):
    ref = atom_forces._pair_amp_ref(pair)
    if mode == "reduced":
        terms = []
        for beam in (pair.beam1, pair.beam2):
            if dipole:
                u, _, grad_u, _ = mode_jet(beam, pt)
            else:
                u = mode_amplitude(beam, pt)
            rho = np.asarray(pt.rho)
            grad = np.zeros((3,) + pt.shape)
            np.divide(beam.winding_l, rho, out=grad[1, ...], where=rho > AXIS_RHO)
            grad[2] = beam.direction * beam.wavenumber
            terms.append((u, grad, u * grad_u if dipole else None))
    else:
        terms = [_reference_field_terms(pair, pt, vel, t, scattering, dipole)]
    quarter_gamma_sq = 0.25 * atom.gamma ** 2
    s = atom.rabi_omega0 / ref
    fs, fd = [], []
    for amp, grad, amp_grad_amp in terms:
        delta = detuning_eff(atom, vel, grad)
        omega = atom.rabi_omega0 * amp / ref
        den = delta * delta + 0.5 * omega * omega + quarter_gamma_sq
        if scattering:
            fs.append(0.25 * HBAR * atom.gamma * omega * omega / den * grad)
        if dipole:
            fd.append(-0.5 * HBAR * delta / den * (s * s * amp_grad_amp))
    return (sum(fs[1:], fs[0]) if fs else np.zeros((3,) + pt.shape),
            sum(fd[1:], fd[0]) if fd else np.zeros((3,) + pt.shape))


def _reference_integrate(atom, pair, init, cfg):
    inv_m = 1.0 / atom.mass

    def deriv(state, t):
        x, y, z, vx, vy, vz = state
        rho = math.hypot(x, y)
        phi = math.atan2(y, x)
        c, s = math.cos(phi), math.sin(phi)
        vel = None
        if cfg.velocity_coupling:
            vel = Velocity(v_rho=vx * c + vy * s, v_phi=vy * c - vx * s, v_z=vz)
        fs, fd = _reference_forces(atom, pair, CylPoint(rho=rho, phi=phi, z=z), vel,
                                   cfg.force_model, t, cfg.include_scattering,
                                   cfg.include_dipole)
        if not cfg.include_azimuthal:
            fs[1] = 0.0
        f_rho, f_phi, f_z = (fs + fd).tolist()
        return np.array([state[3], state[4], state[5], (f_rho * c - f_phi * s) * inv_m,
                         (f_rho * s + f_phi * c) * inv_m, f_z * inv_m])

    y = np.array(init[1:], dtype=float)
    n_steps = max(1, round(cfg.duration / cfg.step))
    h = cfg.step
    samples = [init]
    for n in range(1, n_steps + 1):
        t = init.time + (n - 1) * h
        k1 = deriv(y, t)
        k2 = deriv(y + 0.5 * h * k1, t + 0.5 * h)
        k3 = deriv(y + 0.5 * h * k2, t + 0.5 * h)
        k4 = deriv(y + h * k3, t + h)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if n % cfg.sample_every == 0 or n == n_steps:
            samples.append(TrajectoryState(init.time + n * h, *y.tolist()))
    return samples


def _outcome(fn, *args):
    """fn(*args), or the type of the package error it raises."""
    try:
        return fn(*args)
    except DarkPointError as exc:
        return type(exc)


def _same(got, want):
    if isinstance(want, type):
        return got is want
    return all(np.array_equal(g, w) for g, w in zip(got, want))


@st.composite
def reference_runs(draw):
    """A pair with l1 != l2 allowed, p <= 3, any d, a frequency offset or
    none and possibly one dark beam; an atom; a start near the ring; and an
    integrator with every toggle drawn, its step well inside both step gates."""
    w0 = draw(st.floats(4.0, 14.0)) * WAVELENGTH
    zr = math.pi * w0 ** 2 / WAVELENGTH
    amp1, amp2 = draw(st.sampled_from([(1.0, 1.0), (0.6, 1.3), (0.0, 1.0), (1.0, 0.0)]))
    pair = PairSpec(WAVELENGTH, w0, l1=draw(st.integers(-4, 4)), l2=draw(st.integers(-4, 4)),
                    radial_p=draw(st.integers(0, 3)),
                    separation_d=draw(st.floats(0.0, 2.0)) * zr,
                    delta_omega=draw(st.sampled_from([0.0, 2.0 * math.pi * 1e4,
                                                      -2.0 * math.pi * 3e5])),
                    delta_k=draw(st.sampled_from([0.0, 30.0])), amp1=amp1, amp2=amp2)
    atom = AtomSpec(mass=NA_MASS, gamma=GAMMA, detuning0=draw(st.sampled_from([0.5, -2.0])) * GAMMA,
                    rabi_omega0=GAMMA)
    periods = [2.0 * math.pi / abs(pair.delta_omega)] if pair.delta_omega else [1e-4]
    k0 = spring_constant_k0(atom, pair)
    if k0 > 0.0:
        periods.append(2.0 * math.pi / math.sqrt(k0 / atom.mass))
    step = min(periods) / 400.0
    cfg = IntegratorConfig(step=step, duration=draw(st.integers(1, 10)) * step,
                           force_model=draw(st.sampled_from(atom_forces.FORCE_MODELS)),
                           velocity_coupling=draw(st.booleans()),
                           include_scattering=draw(st.booleans()),
                           include_dipole=draw(st.booleans()),
                           include_azimuthal=draw(st.booleans()),
                           sample_every=draw(st.integers(1, 3)))
    rho = draw(st.floats(0.05, 2.0)) * w0 * math.sqrt(0.5 * max(abs(pair.l1), 1))
    phi = draw(st.floats(-math.pi, math.pi))
    v = [draw(st.floats(-0.05, 0.05)) for _ in range(3)]
    init = TrajectoryState(draw(st.floats(0.0, 1e-6)), rho * math.cos(phi), rho * math.sin(phi),
                           draw(st.floats(-0.5, 0.5)) * zr, *v)
    return atom, pair, init, cfg


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(run=reference_runs())
def test_scalar_path_is_bit_identical_to_the_array_reference(run):
    """integrate's samples, and the scalar and array forces of both models
    with every toggle, equal the array-state reference under np.array_equal:
    the float RK4 state and the per-component reduced sum keep each
    product's association, so no tolerance is needed."""
    atom, pair, init, cfg = run
    got = _outcome(integrate, atom, pair, init, cfg)
    want = _outcome(_reference_integrate, atom, pair, init, cfg)
    if isinstance(want, type):
        assert got is want
    else:
        assert np.array_equal(np.array(got), np.array(want))
    rho = math.hypot(init.x, init.y)
    for pt in (CylPoint(rho=rho, phi=math.atan2(init.y, init.x), z=init.z),
               CylPoint(rho=np.array([0.0, rho, 2.0 * rho]), phi=0.3, z=init.z)):
        for vel in (None, Velocity(init.vx, init.vy, init.vz)):
            for mode in atom_forces.FORCE_MODELS:
                for scattering, dipole in ((True, False), (False, True), (True, True)):
                    args = (atom, pair, pt, vel, mode, init.time, scattering, dipole)
                    assert _same(_outcome(atom_forces._forces, *args),
                                 _outcome(_reference_forces, *args)), (mode, scattering, dipole)


def spinning_states(spins):
    """Samples on the x axis with v_y = spin (a given L_z), z oscillating."""
    return [TrajectoryState(1e-6 * n, 5e-6, 0.0, 1e-7 * math.cos(0.7 * n), 0.0, spin, 0.0)
            for n, spin in enumerate(spins)]


def test_summarize_trajectory_without_a_trap_has_no_analytic_frequency():
    """At d = 0, K0 = 0 and trap_frequency raises: the summary gives None,
    while a trapping pair gives sqrt(K0/m)."""
    atom, states = sodium(), spinning_states([0.0] * 40)
    _, summary = summarize_trajectory(atom, trap_pair(d_frac=0.0), states)
    assert summary["oscillation_omega_analytic"] is None
    assert isinstance(summary["oscillation_omega_measured"], float)
    _, summary = summarize_trajectory(atom, trap_pair(), states)
    assert summary["oscillation_omega_analytic"] == trap_frequency(atom, trap_pair())


@pytest.mark.parametrize("spins, monotone", [(np.linspace(1e-3, 0.0, 20), False),
                                             (np.linspace(0.0, 1e-3, 20), True)])
def test_summarize_trajectory_lz_monotone_flags_a_spin_down(spins, monotone):
    """lz_monotone_nondecreasing is false once L_z falls (a spun-down
    series) and true while it rises; lz_initial and lz_final are
    angular_momentum at the ends, and rows are the samples, rho and phi."""
    atom, states = sodium(), spinning_states(spins)
    rows, summary = summarize_trajectory(atom, trap_pair(), states)
    assert summary["lz_monotone_nondecreasing"] is monotone
    assert (summary["lz_initial"], summary["lz_final"]) == (
        angular_momentum(atom, states[0]), angular_momentum(atom, states[-1]))
    assert rows.tobytes() == np.column_stack((np.array(states), [5e-6] * 20, [0.0] * 20)).tobytes()
