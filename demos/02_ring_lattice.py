"""The ring lattice of two axially shifted counter-propagating beams.

Two identical doughnut beams travel toward each other with focal planes
pulled apart by a distance d.  Their interference carves the doughnut shell
into a finite stack of coaxial bright rings between the foci, spaced about
half a wavelength apart.  Away from the midplane each beam has a different
local ring radius, so the lattice rings split into concentric pairs once the
separation outgrows the ring thickness.
"""

import math

from vortexlattice.ring_analysis import compare_rings, find_rings
from vortexlattice.superpose import GridSpec, PairSpec

wavelength = 589.16e-9
w0 = 4.0 * wavelength
l = 20
d = 65.0 * wavelength

pair = PairSpec(wavelength, w0, l1=l, separation_d=d)
zr = pair.beam1.rayleigh_range
print(f"l={l}, w0={w0 * 1e6:.2f} um, focal separation d={d * 1e6:.2f} um "
      f"({d / zr:.2f} zR)")

region = GridSpec.rho_z(rho_min=11 * wavelength, rho_max=23 * wavelength,
                        n_rho=301, z_min=-36 * wavelength,
                        z_max=36 * wavelength, n_z=1441)
rings = find_rings(pair, region)
# the comparison the rings command writes: ring_comparison.csv and rings_summary.json
rows, summary = compare_rings(pair, rings)

rho0 = summary["central_radius_formula"]
# the grid runs past the foci at z = +-d/2, so some rings lie beyond them
past_foci = sum(abs(ring.z_pos) >= 0.5 * d for ring in rings.rings)
print(f"\n{summary['n_rings']} bright rings: {summary['n_rings'] - past_foci} between "
      f"the foci, {past_foci} past them")
print(f"central ring: z = {summary['central_z'] * 1e9:+.1f} nm, "
      f"radius {summary['central_radius'] * 1e6:.3f} um "
      f"(w(d/2) sqrt(l/2) = {rho0 * 1e6:.3f} um)")
# the lattice's axial period is 2 pi / Phi'(0), the slope of the phase
# difference Theta1 - Theta2 along the midplane ring at rho0
k = pair.beam1.wavenumber
u = 0.5 * d / zr
gouy = 2.0 * (l + 1.0) / (zr * (1.0 + u * u))
curvature = k * rho0 ** 2 * (zr * zr - 0.25 * d * d) / (0.25 * d * d + zr * zr) ** 2
spacing = 2.0 * math.pi / (2.0 * k - gouy + curvature)
print(f"axial fringe spacing: {summary['fringe_delta'] * 1e9:.1f} nm "
      f"(2 pi/Phi'(0) = {spacing * 1e9:.1f} nm, "
      f"pi/k = {summary['half_wavelength'] * 1e9:.1f} nm)")
print(f"  the Gouy phase slows the phase difference by {gouy / (2.0 * k):.1%} "
      f"of 2k and wavefront curvature speeds it by "
      f"{curvature / (2.0 * k):.1%}, stretching the fringes beyond pi/k")

past_focus = sum(abs(z) >= 0.5 * d for z in rows[:, 0])
print(f"\n{len(rows)} rings resolve a radial split, {past_focus} of them past a focus; "
      "farther from the midplane the split widens:")
print("   z/um    measured pair/um     w1, w2 formula/um    alpha")
for z, r_inner, r_outer, w1, w2, *_, alpha in rows[:: max(1, len(rows) // 8)]:
    print(f"  {z * 1e6:+6.2f}   {r_inner * 1e6:.3f}, {r_outer * 1e6:.3f}"
          f"        {w1 * 1e6:.3f}, {w2 * 1e6:.3f}      {alpha:.2f}")

reading = summary["delta_reading"]
print(f"\non the first split the formula radii are off by "
      f"{reading['midplane_offset_err']:.1e} (summed relative error) with delta "
      f"read from the midplane and by {reading['focal_plane_offset_err']:.1e} "
      f"read from a focal plane: the {reading['matching'].replace('_', ' ')} "
      f"reading matches.")
print("alpha = sqrt(2 l) d delta / zR^2 tracks how far the pair has "
      "separated; rings merge optically for small alpha.")
