"""Physical constants used across the package (SI units)."""

# Reduced Planck constant, J s
HBAR = 1.054571817e-34

# Vacuum speed of light, m / s
C_LIGHT = 299792458.0

# Atomic mass unit, kg
AMU = 1.66053906660e-27
