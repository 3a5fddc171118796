"""Semiclassical motion of one sodium atom in the ring trap.

Starts the atom on the central ring, nudged slightly off the midplane.
Axially the scattering-force imbalance restores it, so it oscillates at
sqrt(K0/m).  Azimuthally the spoke pattern applies a steady radiation
torque; since the scattering force has no radial component in the reduced
model, a spun-up atom eventually slides off the ring, so the azimuthal
kick is shown separately on a short leg.
"""

import math

from vortexlattice.atom_forces import AtomSpec, central_ring_radius, torque_axial
from vortexlattice.dynamics import (IntegratorConfig, TrajectoryState, integrate,
                                    summarize_trajectory, trap_frequency)
from vortexlattice.superpose import PairSpec

wavelength = 589.16e-9
gamma = 2.0 * math.pi * 10.01e6
atom = AtomSpec(mass=3.8175e-26, gamma=gamma, detuning0=0.5 * gamma,
                rabi_omega0=gamma)

w0 = 8e-6
zr = math.pi * w0 ** 2 / wavelength
pair = PairSpec(wavelength, w0, l1=1, separation_d=1.4 * zr)

omega = trap_frequency(atom, pair)
period = 2.0 * math.pi / omega
rho0 = central_ring_radius(pair)
print(f"trap frequency {omega / (2 * math.pi) * 1e-3:.3f} kHz "
      f"(period {period * 1e6:.1f} us), ring at {rho0 * 1e6:.3f} um")

# at rest on the ring at phi = 0, so x = rho0 and y = 0
init = TrajectoryState(time=0.0, x=rho0, y=0.0, z=0.01 * zr, vx=0.0, vy=0.0, vz=0.0)

# leg 1: axial oscillation, azimuthal push off; summarize_trajectory gives
# the trajectory command's trajectory.csv rows and trajectory_summary.json
cfg = IntegratorConfig(step=period / 400, duration=4.0 * period,
                       include_azimuthal=False, sample_every=40)
rows, summary = summarize_trajectory(atom, pair, integrate(atom, pair, init, cfg))
print("\naxial breathing about the midplane:")
print("   t/us     z/um    rho/um")
for t, x, y, z, vx, vy, vz, rho, phi in rows[:: len(rows) // 10]:
    print(f"  {t * 1e6:6.1f}  {z * 1e6:+7.3f}  {rho * 1e6:8.3f}")

measured = summary["oscillation_omega_measured"]
print(f"measured {measured:.1f} rad/s vs sqrt(K0/m) = "
      f"{summary['oscillation_omega_analytic']:.1f} rad/s "
      f"({abs(measured - omega) / omega:.2%} apart)")

# leg 2: the torque, over a tenth of a period so the atom stays on the ring
short = IntegratorConfig(step=period / 1000, duration=0.1 * period,
                         sample_every=10 ** 9)
rows, summary = summarize_trajectory(atom, pair, integrate(atom, pair, init, short))
v_phi = summary["lz_final"] / (atom.mass * summary["final"]["rho"])
want = torque_axial(atom, pair) / (atom.mass * rho0) * rows[-1, 0]
print(f"\nazimuthal spin-up after {rows[-1, 0] * 1e6:.1f} us: "
      f"v_phi = {v_phi * 1e3:.4f} mm/s "
      f"(torque/(m rho0) * t = {want * 1e3:.4f} mm/s)")
print("left running, the spun-up atom slides radially off the ring: the "
      "reduced scattering force confines z but not rho")
