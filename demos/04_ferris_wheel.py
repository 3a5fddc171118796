"""Rotating spoke pattern from a small frequency offset.

With opposite azimuthal signs the two beams interfere into 2l bright spokes
around the ring.  Detuning one beam by delta_omega makes the whole pattern
revolve rigidly at delta_omega / (2l) while the axial standing wave crawls
along z at delta_omega / Phi'(0), close to delta_omega / (2k): a slow ferris
wheel riding on an optical conveyor.
"""

import math

import numpy as np

from vortexlattice.atom_forces import ferris_rate, lift_speed
from vortexlattice.lg_mode import CylPoint
from vortexlattice.ring_analysis import (fringe_drift_speed,
                                         measure_axial_drift,
                                         measure_rotation_rate,
                                         suggested_sample_dt)
from vortexlattice.superpose import PairSpec, total_amplitude

wavelength = 589.16e-9
w0 = 20.0 * wavelength
l = 2
delta_omega = 2.0 * math.pi * 1e3        # 1 kHz beat

pair = PairSpec(wavelength, w0, l1=l, delta_omega=delta_omega)
ring = w0 * math.sqrt(l / 2.0)
print(f"l={l} pair, {pair.azimuthal_order} spokes on the ring at "
      f"{ring * 1e6:.2f} um, beat {delta_omega / (2 * math.pi):.0f} Hz")

# show the spokes: intensity around the ring at t=0
phi = np.linspace(-math.pi, math.pi, 96, endpoint=False)
amp = total_amplitude(pair, CylPoint(rho=ring, phi=phi, z=0.0))
bar = "".join(" .:-=+*#"[min(7, int(8 * a * a / np.max(amp) ** 2))] for a in amp)
print(f"\nintensity around the ring (one row = 2pi): |{bar}|")

dt = suggested_sample_dt(pair)
print(f"\nsampling the pattern {dt * 1e6:.0f} us apart "
      "(phase advance stays below pi):")
for t1 in (dt, 2.0 * dt):
    rot = measure_rotation_rate(pair, ring, 0.0, 0.0, t1)
    print(f"  t = 0 .. {t1 * 1e6:5.0f} us   rotation {rot:10.4f} rad/s")

print(f"predicted ferris rate delta_omega/(2l) = {ferris_rate(pair):10.4f} rad/s")

drift = measure_axial_drift(pair, ring, 0.0, dt)
drift_ref = fringe_drift_speed(pair, ring)
print(f"\naxial conveyor speed: measured {drift * 1e3:.6f} mm/s")
print(f"  delta_omega/Phi'(0) = {drift_ref * 1e3:.6f} mm/s "
      f"(rel. err {abs(drift - drift_ref) / abs(drift_ref):.1e}, ferris_summary.json's)")
print(f"  delta_omega/(2k)    = {lift_speed(pair) * 1e3:.6f} mm/s "
      f"(plane waves: no Gouy or curvature slope)")

turn = 2.0 * math.pi / ferris_rate(pair)
print(f"one full revolution of the wheel takes {turn * 1e3:.1f} ms, during "
      f"which the lattice climbs {drift_ref * turn * 1e6:.2f} um")
