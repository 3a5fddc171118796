"""JSON run configuration with unit-suffixed quantities.

Numbers are taken as bare SI values; strings carry a unit suffix, e.g.
"8um", "10.01MHz", "0.5ms".  Frequencies given in hertz are ordinary
frequencies and are converted to angular ones (multiplied by 2 pi); bare
numbers in frequency slots are already rad/s.  Every quantity must resolve
to a finite number, every flag must be a JSON boolean, and a section or key
outside ``SECTION_KEYS`` is an error, so a misspelt key cannot be dropped
silently.
"""

import json
import math
import re
from dataclasses import dataclass

from .atom_forces import AtomSpec, Velocity
from .constants import AMU
from .dynamics import IntegratorConfig, TrajectoryState
from .errors import ConfigError
from .lg_mode import CylPoint
from .superpose import GridSpec, PairSpec

__all__ = ["MAX_GRID_POINTS", "RunConfig", "parse_quantity"]

_TWO_PI = 2.0 * math.pi

_UNITS = {
    "length": {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "µm": 1e-6,
               "μm": 1e-6, "nm": 1e-9, "pm": 1e-12},
    "angular_frequency": {"rad/s": 1.0, "Hz": _TWO_PI, "kHz": _TWO_PI * 1e3,
                          "MHz": _TWO_PI * 1e6, "GHz": _TWO_PI * 1e9},
    "time": {"s": 1.0, "ms": 1e-3, "us": 1e-6, "µs": 1e-6, "μs": 1e-6,
             "ns": 1e-9},
    "mass": {"kg": 1.0, "amu": AMU, "u": AMU},
    "speed": {"m/s": 1.0, "mm/s": 1e-3, "um/s": 1e-6},
    "wavenumber": {"rad/m": 1.0},
    "plain": {},
}

# Most points one grid may hold: a float64 map over 5e7 points takes 400 MB,
# and a command holds several maps of its grid
MAX_GRID_POINTS = 50_000_000

_GRID_KEYS = ("rho_min", "rho_max", "n_rho", "z_min", "z_max", "n_z", "phi", "time")
SECTION_KEYS = {
    "beams": ("wavelength", "waist", "l1", "l2", "p", "amp1", "amp2", "azimuthal_sign2"),
    "pair": ("d", "delta_omega", "delta_k"),
    "atom": ("mass", "gamma", "delta0", "rabi"),
    "grid": _GRID_KEYS,
    "rings_grid": _GRID_KEYS,
    "xy_grid": ("half_width", "n", "z_slices", "time"),
    "sweep": ("d_min", "d_max", "steps"),
    "ferris": ("t_samples",),
    "trajectory": ("rho", "phi", "z", "v_rho", "v_phi", "v_z", "step", "duration",
                   "velocity_coupling", "include_scattering", "include_dipole",
                   "include_azimuthal", "sample_every"),
}

_QUANTITY_RE = re.compile(r"^\s*([+-]?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)\s*(\S*)\s*$")


def parse_quantity(value, kind, name="value"):
    """Convert a config entry to SI.  ``value`` may be a number (already SI,
    except hertz-kinds which are rad/s) or a string with a unit suffix."""
    if isinstance(value, bool):
        raise ConfigError(f"{name}: expected a quantity, got a boolean")
    if isinstance(value, (int, float)):
        try:
            number = float(value)
        except OverflowError:
            raise ConfigError(f"{name}: integer beyond the float range") from None
    elif isinstance(value, str):
        m = _QUANTITY_RE.match(value)
        if not m:
            raise ConfigError(f"{name}: cannot parse quantity {value!r}")
        number, suffix = float(m.group(1)), m.group(2)
        if suffix != "":
            table = _UNITS[kind]
            if suffix not in table:
                raise ConfigError(f"{name}: unknown {kind} unit {suffix!r} in {value!r}")
            number *= table[suffix]
    else:
        raise ConfigError(f"{name}: expected a number or unit-suffixed string")
    if not math.isfinite(number):
        raise ConfigError(f"{name}: {value!r} is not a finite quantity")
    return number


def _section(raw, key, required=False):
    sec = raw.get(key)
    if sec is None:
        if required:
            raise ConfigError(f"missing required config section {key!r}")
        return None
    if not isinstance(sec, dict):
        raise ConfigError(f"config section {key!r} must be an object")
    _reject_unknown(sec, SECTION_KEYS[key], f"key(s) in config section {key!r}")
    return sec


def _reject_unknown(keys, allowed, what):
    unknown = sorted(str(k) for k in set(keys) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {what}: {', '.join(unknown)}")


def _get(sec, key, kind, name, default=None, required=False):
    if key not in sec:
        if required:
            raise ConfigError(f"{name}: missing required key {key!r}")
        return default
    return parse_quantity(sec[key], kind, f"{name}.{key}")


def _get_int(sec, key, name, default=None, required=False):
    if key not in sec:
        if required:
            raise ConfigError(f"{name}: missing required key {key!r}")
        return default
    v = sec[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{name}.{key} must be an integer")
    return v


def _get_bool(sec, key, name, default):
    v = sec.get(key, default)
    if not isinstance(v, bool):
        raise ConfigError(f"{name}.{key} must be true or false")
    return v


def _pair(raw):
    beams = _section(raw, "beams", required=True)
    pair_sec = _section(raw, "pair") or {}
    d = _get(pair_sec, "d", "length", "pair", default=0.0)
    if d < 0.0:
        raise ConfigError("pair.d must be >= 0")
    try:
        return PairSpec.counterpropagating(
            wavelength=_get(beams, "wavelength", "length", "beams", required=True),
            waist=_get(beams, "waist", "length", "beams", required=True),
            l1=_get_int(beams, "l1", "beams", required=True),
            l2=_get_int(beams, "l2", "beams"),
            separation_d=d,
            delta_omega=_get(pair_sec, "delta_omega", "angular_frequency", "pair",
                             default=0.0),
            delta_k=_get(pair_sec, "delta_k", "wavenumber", "pair", default=0.0),
            radial_p=_get_int(beams, "p", "beams", default=0),
            amp1=_get(beams, "amp1", "plain", "beams", default=1.0),
            amp2=_get(beams, "amp2", "plain", "beams", default=1.0),
            azimuthal_sign2=_get_int(beams, "azimuthal_sign2", "beams", default=-1),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _atom(raw):
    sec = _section(raw, "atom")
    if sec is None:
        return None
    try:
        return AtomSpec(
            mass=_get(sec, "mass", "mass", "atom", required=True),
            gamma=_get(sec, "gamma", "angular_frequency", "atom", required=True),
            detuning0=_get(sec, "delta0", "angular_frequency", "atom", required=True),
            rabi_omega0=_get(sec, "rabi", "angular_frequency", "atom", required=True),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _grid(raw, key):
    sec = _section(raw, key)
    if sec is None:
        return None
    n_rho = _get_int(sec, "n_rho", key, required=True)
    n_z = _get_int(sec, "n_z", key, required=True)
    # each axis is bounded too: with the other size <= 0 the product says
    # nothing, and the rho axis is allocated before the z axis is rejected
    if max(n_rho, n_z, n_rho * n_z) > MAX_GRID_POINTS:
        raise ConfigError(f"{key}: {n_rho} x {n_z} grid points exceed the limit of {MAX_GRID_POINTS}")
    try:
        return GridSpec.rho_z(
            rho_min=_get(sec, "rho_min", "length", key, default=0.0),
            rho_max=_get(sec, "rho_max", "length", key, required=True),
            n_rho=n_rho,
            z_min=_get(sec, "z_min", "length", key, required=True),
            z_max=_get(sec, "z_max", "length", key, required=True),
            n_z=n_z,
            phi=_get(sec, "phi", "plain", key, default=0.0),
            time=_get(sec, "time", "time", key, default=0.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _xy(raw):
    sec = _section(raw, "xy_grid")
    if sec is None:
        return ()
    half_width = _get(sec, "half_width", "length", "xy_grid", required=True)
    n = _get_int(sec, "n", "xy_grid", required=True)
    if n < 2:
        raise ConfigError("xy_grid.n must be >= 2")
    if n * n > MAX_GRID_POINTS:
        raise ConfigError(f"xy_grid: {n} x {n} grid points exceed the limit of {MAX_GRID_POINTS}")
    slices = sec.get("z_slices", [0.0])
    if not isinstance(slices, list) or not slices:
        raise ConfigError("xy_grid.z_slices must be a non-empty list")
    time = _get(sec, "time", "time", "xy_grid", default=0.0)
    return tuple(GridSpec.xy(half_width, n, z=parse_quantity(z, "length", "xy_grid.z_slices"),
                             time=time) for z in slices)


def _sweep(raw):
    sec = _section(raw, "sweep")
    if sec is None:
        return None
    steps = _get_int(sec, "steps", "sweep", required=True)
    if steps < 2:
        raise ConfigError("sweep.steps must be >= 2")
    d_min = _get(sec, "d_min", "length", "sweep", required=True)
    if d_min < 0.0:
        raise ConfigError("sweep.d_min must be >= 0")
    d_max = _get(sec, "d_max", "length", "sweep", required=True)
    if d_max <= d_min:
        raise ConfigError("sweep.d_max must exceed sweep.d_min")
    return d_min, d_max, steps


def _ferris(raw):
    sec = _section(raw, "ferris")
    if sec is None:
        return ()
    samples = sec.get("t_samples")
    if not isinstance(samples, list) or len(samples) < 1:
        raise ConfigError("ferris.t_samples must be a non-empty list")
    return tuple(parse_quantity(s, "time", "ferris.t_samples") for s in samples)


def _trajectory(raw):
    """Initial state and integrator settings, or (None, None)."""
    sec = _section(raw, "trajectory")
    if sec is None:
        return None, None
    try:
        pos = CylPoint(rho=_get(sec, "rho", "length", "trajectory", required=True),
                       phi=_get(sec, "phi", "plain", "trajectory", default=0.0),
                       z=_get(sec, "z", "length", "trajectory", required=True))
        vel = Velocity(v_rho=_get(sec, "v_rho", "speed", "trajectory", default=0.0),
                       v_phi=_get(sec, "v_phi", "speed", "trajectory", default=0.0),
                       v_z=_get(sec, "v_z", "speed", "trajectory", default=0.0))
        integrator = IntegratorConfig(
            step=_get(sec, "step", "time", "trajectory", required=True),
            duration=_get(sec, "duration", "time", "trajectory", required=True),
            velocity_coupling=_get_bool(sec, "velocity_coupling", "trajectory", False),
            include_scattering=_get_bool(sec, "include_scattering", "trajectory", True),
            include_dipole=_get_bool(sec, "include_dipole", "trajectory", False),
            include_azimuthal=_get_bool(sec, "include_azimuthal", "trajectory", True),
            sample_every=_get_int(sec, "sample_every", "trajectory", default=1),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return TrajectoryState(position=pos, velocity=vel, time=0.0), integrator


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration resolved to SI quantities."""

    pair: PairSpec
    atom: AtomSpec = None
    grid: GridSpec = None
    rings_grid: GridSpec = None
    xy: tuple = ()                      # one xy GridSpec per z slice
    sweep: tuple = None                 # (d_min, d_max, steps)
    ferris_times: tuple = ()
    trajectory_init: TrajectoryState = None
    trajectory_config: IntegratorConfig = None

    @classmethod
    def from_file(cls, path):
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except ValueError as exc:
            # JSONDecodeError, a UnicodeDecodeError, or an integer literal
            # beyond Python's digit limit for int()
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        _reject_unknown(raw, SECTION_KEYS, "config section(s)")
        init, integrator = _trajectory(raw)
        return cls(pair=_pair(raw), atom=_atom(raw),
                   grid=_grid(raw, "grid"), rings_grid=_grid(raw, "rings_grid"),
                   xy=_xy(raw), sweep=_sweep(raw), ferris_times=_ferris(raw),
                   trajectory_init=init, trajectory_config=integrator)

    def xy_grids(self):
        """One GridSpec per configured xy z slice."""
        return list(self.xy)

    def to_si_dict(self):
        """SI echo of the resolved configuration, for run metadata: every
        section ``from_dict`` reads, under its own keys and as bare SI
        numbers, so loading the echo rebuilds this configuration.  Grid
        endpoints are the axes' first and last samples, which
        ``np.linspace`` returns exactly."""
        b1, b2 = self.pair.beam1, self.pair.beam2
        out = {
            "beams": {"wavelength": b1.wavelength, "waist": b1.waist_w0,
                      "l1": b1.winding_l, "l2": b2.winding_l, "p": b1.radial_p,
                      "amp1": b1.amp_scale, "amp2": b2.amp_scale,
                      "azimuthal_sign2": b2.azimuthal_sign},
            "pair": {"d": self.pair.separation_d,
                     "delta_omega": self.pair.delta_omega,
                     "delta_k": self.pair.delta_k},
        }
        if self.atom is not None:
            out["atom"] = {"mass": self.atom.mass, "gamma": self.atom.gamma,
                           "delta0": self.atom.detuning0,
                           "rabi": self.atom.rabi_omega0}
        for key in ("grid", "rings_grid"):
            grid = getattr(self, key)
            if grid is not None:
                out[key] = {"rho_min": float(grid.axis1[0]), "rho_max": float(grid.axis1[-1]),
                            "n_rho": grid.axis1.size,
                            "z_min": float(grid.axis2[0]), "z_max": float(grid.axis2[-1]),
                            "n_z": grid.axis2.size, "phi": grid.phi, "time": grid.time}
        if self.xy:
            first = self.xy[0]
            out["xy_grid"] = {"half_width": float(first.axis1[-1]), "n": first.axis1.size,
                              "z_slices": [g.z_slice for g in self.xy], "time": first.time}
        if self.sweep is not None:
            out["sweep"] = {"d_min": self.sweep[0], "d_max": self.sweep[1],
                            "steps": self.sweep[2]}
        if self.ferris_times:
            out["ferris"] = {"t_samples": list(self.ferris_times)}
        if self.trajectory_init is not None and self.trajectory_config is not None:
            pos, vel = self.trajectory_init.position, self.trajectory_init.velocity
            integ = self.trajectory_config
            out["trajectory"] = {
                "rho": pos.rho, "phi": pos.phi, "z": pos.z,
                "v_rho": vel.v_rho, "v_phi": vel.v_phi, "v_z": vel.v_z,
                "step": integ.step, "duration": integ.duration,
                "velocity_coupling": integ.velocity_coupling,
                "include_scattering": integ.include_scattering,
                "include_dipole": integ.include_dipole,
                "include_azimuthal": integ.include_azimuthal,
                "sample_every": integ.sample_every}
        return out
