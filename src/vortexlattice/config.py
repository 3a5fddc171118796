"""JSON run configuration with unit-suffixed quantities.

Numbers are taken as bare SI values; strings carry a unit suffix, e.g.
"8um", "10.01MHz", "0.5ms".  Frequencies given in hertz are ordinary
frequencies and are converted to angular ones (multiplied by 2 pi); bare
numbers in frequency slots are already rad/s.  Every quantity must resolve
to a finite number, every flag must be a JSON boolean, and a section or key
outside ``SECTION_KEYS`` is an error, so a misspelt key cannot be dropped
silently.

``SECTION_KEYS`` is the one schema.  A config is read into SI sections
with every default filled in, and the run objects are built from those
sections; ``RunConfig.to_si_dict`` echoes them back.
"""

import copy
import json
import math
import re
from dataclasses import dataclass, field

from .atom_forces import AtomSpec
from .constants import AMU
from .dynamics import IntegratorConfig, TrajectoryState
from .errors import ConfigError
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
    "plain": {},
}

# Most points one grid may hold: a float64 map over 5e7 points takes 400 MB,
# and a command holds several maps of its grid
MAX_GRID_POINTS = 50_000_000

# Default of a key that a present section must set
_REQUIRED = object()

# Each section maps key -> (kind, default).  A kind is a parse_quantity kind,
# "int", "flag" (a JSON boolean) or "<kind> list" (a non-empty list); a
# default is an SI value or _REQUIRED.  beams.l2 defaults to beams.l1.
_GRID_KEYS = {"rho_min": ("length", 0.0), "rho_max": ("length", _REQUIRED),
              "n_rho": ("int", _REQUIRED), "z_min": ("length", _REQUIRED),
              "z_max": ("length", _REQUIRED), "n_z": ("int", _REQUIRED),
              "phi": ("plain", 0.0), "time": ("time", 0.0)}
SECTION_KEYS = {
    "beams": {"wavelength": ("length", _REQUIRED), "waist": ("length", _REQUIRED),
              "l1": ("int", _REQUIRED), "l2": ("int", None), "p": ("int", 0),
              "amp1": ("plain", 1.0), "amp2": ("plain", 1.0)},
    "pair": {"d": ("length", 0.0), "delta_omega": ("angular_frequency", 0.0)},
    "atom": {"mass": ("mass", _REQUIRED), "gamma": ("angular_frequency", _REQUIRED),
             "delta0": ("angular_frequency", _REQUIRED),
             "rabi": ("angular_frequency", _REQUIRED)},
    "grid": _GRID_KEYS,
    "rings_grid": _GRID_KEYS,
    "xy_grid": {"half_width": ("length", _REQUIRED), "n": ("int", _REQUIRED),
                "z_slices": ("length list", [0.0]), "time": ("time", 0.0)},
    "sweep": {"d_min": ("length", _REQUIRED), "d_max": ("length", _REQUIRED),
              "steps": ("int", _REQUIRED)},
    "ferris": {"t_samples": ("time list", _REQUIRED)},
    "trajectory": {"rho": ("length", _REQUIRED), "phi": ("plain", 0.0),
                   "z": ("length", _REQUIRED), "v_rho": ("speed", 0.0),
                   "v_phi": ("speed", 0.0), "v_z": ("speed", 0.0),
                   "step": ("time", _REQUIRED), "duration": ("time", _REQUIRED),
                   "velocity_coupling": ("flag", False),
                   "include_scattering": ("flag", True),
                   "include_dipole": ("flag", False), "include_azimuthal": ("flag", True),
                   "sample_every": ("int", 1)},
}
_STATE_KEYS = ("rho", "phi", "z", "v_rho", "v_phi", "v_z")

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


def _reject_unknown(keys, allowed, what):
    unknown = sorted(str(k) for k in set(keys) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {what}: {', '.join(unknown)}")


def _convert(value, kind, name):
    """One config value of a schema kind, in SI."""
    if kind.endswith(" list"):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{name} must be a non-empty list")
        return [_convert(v, kind[:-len(" list")], name) for v in value]
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name} must be an integer")
        return value
    if kind == "flag":
        if not isinstance(value, bool):
            raise ConfigError(f"{name} must be true or false")
        return value
    return parse_quantity(value, kind, name)


def _read(raw):
    """Every present section in SI, defaults filled in.  ``beams`` is
    required; ``pair`` is always read, since each of its keys has a default."""
    _reject_unknown(raw, SECTION_KEYS, "config section(s)")
    si = {}
    for name, schema in SECTION_KEYS.items():
        sec = raw.get(name)
        if sec is None:
            if name == "beams":
                raise ConfigError("missing required config section 'beams'")
            if name != "pair":
                continue
            sec = {}
        if not isinstance(sec, dict):
            raise ConfigError(f"config section {name!r} must be an object")
        _reject_unknown(sec, schema, f"key(s) in config section {name!r}")
        out = si[name] = {}
        for key, (kind, default) in schema.items():
            if key in sec:
                out[key] = _convert(sec[key], kind, f"{name}.{key}")
            elif default is _REQUIRED:
                raise ConfigError(f"{name}: missing required key {key!r}")
            else:
                out[key] = default
    if si["beams"]["l2"] is None:
        si["beams"]["l2"] = si["beams"]["l1"]
    return si


def _pair(beams, pair):
    if pair["d"] < 0.0:
        raise ConfigError("pair.d must be >= 0")
    return PairSpec(
        wavelength=beams["wavelength"], waist=beams["waist"], l1=beams["l1"],
        l2=beams["l2"], separation_d=pair["d"], delta_omega=pair["delta_omega"],
        radial_p=beams["p"], amp1=beams["amp1"], amp2=beams["amp2"])


def _atom(atom):
    return AtomSpec(mass=atom["mass"], gamma=atom["gamma"], detuning0=atom["delta0"],
                    rabi_omega0=atom["rabi"])


def _grid(grid, name):
    n_rho, n_z = grid["n_rho"], grid["n_z"]
    # each axis is bounded too: with the other size <= 0 the product says
    # nothing, and the rho axis is allocated before the z axis is rejected
    if max(n_rho, n_z, n_rho * n_z) > MAX_GRID_POINTS:
        raise ConfigError(f"{name}: {n_rho} x {n_z} grid points exceed the limit of {MAX_GRID_POINTS}")
    return GridSpec.rho_z(**grid)


def _xy(xy):
    n = xy["n"]
    if n < 2:
        raise ConfigError("xy_grid.n must be >= 2")
    if n * n > MAX_GRID_POINTS:
        raise ConfigError(f"xy_grid: {n} x {n} grid points exceed the limit of {MAX_GRID_POINTS}")
    return tuple(GridSpec.xy(xy["half_width"], n, z=z, time=xy["time"])
                 for z in xy["z_slices"])


def _sweep(sweep):
    if sweep["steps"] < 2:
        raise ConfigError("sweep.steps must be >= 2")
    if sweep["d_min"] < 0.0:
        raise ConfigError("sweep.d_min must be >= 0")
    if sweep["d_max"] <= sweep["d_min"]:
        raise ConfigError("sweep.d_max must exceed sweep.d_min")
    return sweep["d_min"], sweep["d_max"], sweep["steps"]


def _trajectory(traj):
    """Cartesian initial state, from the cylindrical keys, and integrator settings."""
    rho, phi, z, v_rho, v_phi, v_z = (traj[k] for k in _STATE_KEYS)
    if rho < 0.0:
        raise ConfigError("trajectory.rho must be >= 0")
    c, s = math.cos(phi), math.sin(phi)
    state = TrajectoryState(0.0, rho * c, rho * s, z,
                            v_rho * c - v_phi * s, v_rho * s + v_phi * c, v_z)
    return state, IntegratorConfig(**{k: v for k, v in traj.items() if k not in _STATE_KEYS})


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration resolved to SI quantities, and the SI
    sections it was built from."""

    pair: PairSpec
    atom: AtomSpec = None
    grid: GridSpec = None
    rings_grid: GridSpec = None
    xy: tuple = ()                      # one xy GridSpec per z slice
    sweep: tuple = None                 # (d_min, d_max, steps)
    ferris_times: tuple = ()
    trajectory_init: TrajectoryState = None
    trajectory_config: IntegratorConfig = None
    si_sections: dict = field(default=None, compare=False, repr=False)

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
        si = _read(raw)

        def build(name, make, absent=None):
            return make(si[name]) if name in si else absent

        try:
            init, integrator = build("trajectory", _trajectory, (None, None))
            return cls(pair=_pair(si["beams"], si["pair"]), atom=build("atom", _atom),
                       grid=build("grid", lambda g: _grid(g, "grid")),
                       rings_grid=build("rings_grid", lambda g: _grid(g, "rings_grid")),
                       xy=build("xy_grid", _xy, ()), sweep=build("sweep", _sweep),
                       ferris_times=build("ferris", lambda f: tuple(f["t_samples"]), ()),
                       trajectory_init=init, trajectory_config=integrator, si_sections=si)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def xy_grids(self):
        """One GridSpec per configured xy z slice."""
        return list(self.xy)

    def to_si_dict(self):
        """SI echo of the configuration, for run metadata: each section
        ``from_dict`` read, as bare SI numbers with every default filled in,
        so loading the echo rebuilds this configuration."""
        return copy.deepcopy(self.si_sections)
