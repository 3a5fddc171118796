"""Axial spring constant of the midplane ring vs focal separation.

On the central ring the two scattering forces push along +z and -z with
equal strength, so the net axial force vanishes.  With the focal planes
co-located (d = 0) the balance is indifferent: displacing the atom changes
both beams identically and the restoring force stays zero.  Separating the
foci makes the balance stable, with a spring constant that grows from zero,
peaks, and falls off again as the beams decouple.
"""

import math

import numpy as np

from vortexlattice.atom_forces import (AtomSpec, axial_force_slope,
                                       central_ring_radius,
                                       harmonic_potential_v0,
                                       spring_constant_k0)
from vortexlattice.superpose import PairSpec

wavelength = 589.16e-9       # sodium D2
gamma = 2.0 * math.pi * 10.01e6
atom = AtomSpec(mass=3.8175e-26, gamma=gamma, detuning0=0.5 * gamma,
                rabi_omega0=gamma)

w0 = 8e-6
zr = math.pi * w0 ** 2 / wavelength
print(f"sodium in an l=1 pair, w0 = {w0 * 1e6:.0f} um, zR = {zr * 1e6:.0f} um\n")
print("  d/zR    ring/um    K0 analytic      K0 numeric      trap f/kHz")

best = (0.0, 0.0)
for frac in np.linspace(0.0, 3.0, 16):
    d = float(frac) * zr
    pair = PairSpec(wavelength, w0, l1=1, separation_d=d)
    rho0 = central_ring_radius(pair)
    k0 = spring_constant_k0(atom, pair)
    numeric = -axial_force_slope(atom, pair, rho0)
    f_hz = math.sqrt(k0 / atom.mass) / (2.0 * math.pi) if k0 > 0.0 else 0.0
    print(f"  {frac:4.1f}   {rho0 * 1e6:8.3f}   {k0:.6e}   {numeric:.6e}"
          f"   {f_hz * 1e-3:9.3f}")
    if k0 > best[1]:
        best = (frac, k0)

print(f"\nstiffest trap near d = {best[0]:.1f} zR")
pair = PairSpec(wavelength, w0, l1=1, separation_d=best[0] * zr)
v0 = harmonic_potential_v0(atom, pair, 1e-6)
print(f"harmonic well depth over a 1 um axial excursion there: "
      f"{v0:.3e} J ({v0 / 1.380649e-23 * 1e6:.2f} uK)")
