"""Axial spring constant of the midplane ring vs focal separation.

On the central ring the two scattering forces push along +z and -z with
equal strength, so the net axial force vanishes.  With the focal planes
co-located (d = 0) the balance is indifferent: displacing the atom changes
both beams identically and the restoring force stays zero.  Separating the
foci makes the balance stable, with a spring constant that grows from zero,
peaks, and falls off again as the beams decouple.
"""

import math
from dataclasses import replace

import numpy as np

from vortexlattice.atom_forces import (AtomSpec, central_ring_radius,
                                       harmonic_potential_v0, spring_sweep)
from vortexlattice.superpose import PairSpec

wavelength = 589.16e-9       # sodium D2
gamma = 2.0 * math.pi * 10.01e6
atom = AtomSpec(mass=3.8175e-26, gamma=gamma, detuning0=0.5 * gamma,
                rabi_omega0=gamma)

w0 = 8e-6
zr = math.pi * w0 ** 2 / wavelength
pair = PairSpec(wavelength, w0, l1=1)
print(f"sodium in an l=1 pair, w0 = {w0 * 1e6:.0f} um, zR = {zr * 1e6:.0f} um\n")
print("  d/zR    ring/um    K0 analytic      K0 numeric      trap f/kHz")

# the rows the spring-sweep command writes to spring_sweep.csv
rows = spring_sweep(atom, pair, zr * np.linspace(0.0, 3.0, 16))
for d, k0, numeric in rows:
    rho0 = central_ring_radius(replace(pair, separation_d=d))
    f_hz = math.sqrt(k0 / atom.mass) / (2.0 * math.pi) if k0 > 0.0 else 0.0
    print(f"  {d / zr:4.1f}   {rho0 * 1e6:8.3f}   {k0:.6e}   {numeric:.6e}"
          f"   {f_hz * 1e-3:9.3f}")

d_best = rows[np.argmax(rows[:, 1]), 0]
print(f"\nstiffest trap near d = {d_best / zr:.1f} zR")
v0 = harmonic_potential_v0(atom, replace(pair, separation_d=d_best), 1e-6)
print(f"harmonic well depth over a 1 um axial excursion there: "
      f"{v0:.3e} J ({v0 / 1.380649e-23 * 1e6:.2f} uK)")
