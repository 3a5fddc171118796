"""Interference lattices of counter-propagating Laguerre-Gaussian beams and
the scattering/dipole traps they impose on two-level atoms."""

from .atom_forces import (AtomSpec, Velocity, axial_force_slope, central_ring_radius,
                          detuning_eff, dipole_force, dipole_potential, ferris_rate,
                          harmonic_potential_v0, lift_speed, phase_gradient, q_plus,
                          rabi_at, scattering_force, spring_constant, spring_constant_k0,
                          spring_sweep, torque_axial)
from .config import RunConfig, parse_quantity
from .constants import AMU, HBAR
from .dynamics import (IntegratorConfig, TrajectoryState, angular_momentum,
                       estimate_frequency, integrate, summarize_trajectory,
                       trap_frequency)
from .errors import (ConfigError, DarkPointError, DegenerateGeometryError,
                     DivergenceError, ResolutionError, RingDetectionError,
                     StepSizeError, VortexLatticeError)
from .lg_mode import (BeamSpec, CylPoint, laguerre_poly, mode_amplitude,
                      mode_jet, mode_phase, waist_at)
from .ring_analysis import (RadialSplit, Ring, RingSet, RingSplit, compare_rings,
                            double_ring_radii, find_rings, fringe_drift_speed,
                            measure_axial_drift, measure_rotation_rate,
                            radial_separation, suggested_sample_dt)
from .superpose import (FieldMap, GridSpec, PairSpec, PhaseDifference, intensity_map,
                        intensity_maps, pair_complex, phase_difference, total_amplitude,
                        total_phase)

__version__ = "0.1.0"
