"""Profile of a single doughnut beam.

Evaluates one Laguerre-Gaussian mode and walks through the quantities the
rest of the package leans on: the bright-ring radius w0*sqrt(l/2), the
hyperbolic waist growth w(z), the Gouy phase accrued through the focus, and
the 2*pi*l phase winding around the axis.
"""

import math

import numpy as np

from vortexlattice.lg_mode import BeamSpec, CylPoint, mode_amplitude, mode_phase, waist_at

wavelength = 589.16e-9
w0 = 8e-6
l = 3

beam = BeamSpec(wavelength=wavelength, waist_w0=w0, winding_l=l)
zr = beam.rayleigh_range
print(f"LG mode l={l}, p=0, waist {w0 * 1e6:.1f} um")
print(f"Rayleigh range: {zr * 1e6:.1f} um")

# the intensity ring: scan the focal plane and locate the radial maximum
rho = np.linspace(1e-9, 3.0 * w0, 4000)
amp = mode_amplitude(beam, CylPoint(rho=rho, phi=0.0, z=0.0))
ring = rho[np.argmax(np.abs(amp))]
print(f"bright ring at rho = {ring * 1e6:.3f} um; "
      f"w0*sqrt(l/2) = {w0 * math.sqrt(l / 2.0) * 1e6:.3f} um")

# waist growth along the axis
print("\n  z/zR    w(z)/w0   ring(z)/ring(0)")
for zf in (0.0, 0.5, 1.0, 2.0):
    z = zf * zr
    a = mode_amplitude(beam, CylPoint(rho=rho * (1.0 + 3.0 * zf), phi=0.0, z=z))
    rz = rho[np.argmax(np.abs(a))] * (1.0 + 3.0 * zf)
    print(f"  {zf:4.1f}    {waist_at(beam, z) / w0:7.4f}   {rz / ring:10.4f}")

# Gouy phase: on the axis of the fundamental mode, where the radial
# curvature term vanishes, phase - k z is exactly -atan(z/zR)
gauss = BeamSpec(wavelength=wavelength, waist_w0=w0, winding_l=0)
print("\nGouy phase of the fundamental mode on axis:")
for zf in (-2.0, -1.0, 0.0, 1.0, 2.0):
    z = zf * zr
    residual = mode_phase(gauss, CylPoint(rho=0.0, phi=0.0, z=z)) \
        - gauss.wavenumber * z
    print(f"  z = {zf:+4.1f} zR   phase - k z = {residual:+8.4f} rad "
          f"(-atan(z/zR) = {-math.atan(zf):+8.4f})")

# phase winds by 2 pi l around the axis
phi = np.linspace(-math.pi, math.pi, 721)
ph = mode_phase(beam, CylPoint(rho=ring, phi=phi, z=0.0))
winding = np.unwrap(ph)
print(f"\nphase winding over one turn: "
      f"{(winding[-1] - winding[0]) / (2.0 * math.pi):.2f} * 2pi (expected {l})")
