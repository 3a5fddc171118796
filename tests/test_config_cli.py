import ast
import dataclasses
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vortexlattice
from vortexlattice import cli
from vortexlattice.atom_forces import lift_speed
from vortexlattice.cli import main
from vortexlattice.config import MAX_GRID_POINTS, SECTION_KEYS, RunConfig, parse_quantity
from vortexlattice.constants import AMU
from vortexlattice.dynamics import _extents, angular_momentum, integrate
from vortexlattice.errors import ConfigError, DegenerateGeometryError
from vortexlattice.output import write_outputs
from vortexlattice.ring_analysis import fringe_drift_speed
from vortexlattice.superpose import BLOCK_POINTS

REPO = Path(__file__).resolve().parents[1]
TWO_PI = 2.0 * math.pi


def base_config(**extra):
    cfg = {
        "beams": {"wavelength": "589.16nm", "waist": "3um", "l1": 2},
        "pair": {"d": "8um"},
        "atom": {"mass": "3.8175e-26kg", "gamma": "10.01MHz",
                 "delta0": "5.005MHz", "rabi": "10.01MHz"},
    }
    cfg.update(extra)
    return cfg


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------- quantities

def test_parse_quantity_units():
    assert parse_quantity("8um", "length") == pytest.approx(8e-6, rel=1e-15)
    assert parse_quantity("589.16nm", "length") == pytest.approx(5.8916e-7)
    assert parse_quantity("10.01MHz", "angular_frequency") == pytest.approx(
        TWO_PI * 10.01e6, rel=1e-15)
    assert parse_quantity("1kHz", "angular_frequency") == pytest.approx(TWO_PI * 1e3)
    assert parse_quantity("2amu", "mass") == pytest.approx(2.0 * AMU, rel=1e-15)
    assert parse_quantity("0.5ms", "time") == pytest.approx(5e-4)
    assert parse_quantity("3mm/s", "speed") == pytest.approx(3e-3)


def test_parse_quantity_bare_numbers_are_si():
    assert parse_quantity(8e-6, "length") == 8e-6
    assert parse_quantity(3, "mass") == 3.0
    # bare angular frequencies are taken as rad/s, no 2*pi factor
    assert parse_quantity(100.0, "angular_frequency") == 100.0
    assert parse_quantity("42", "plain") == 42.0


def test_parse_quantity_rejections():
    with pytest.raises(ConfigError):
        parse_quantity(True, "plain", "flag")
    with pytest.raises(ConfigError):
        parse_quantity("8parsec", "length")
    with pytest.raises(ConfigError):
        parse_quantity("not a number", "time")
    with pytest.raises(ConfigError):
        parse_quantity([1.0], "length")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10 ** 400,
                                   "1e400um", "1e300GHz", "inf", "nan"],
                         ids=["NaN", "Infinity", "-Infinity", "10**400", "1e400um",
                              "1e300GHz", "inf-string", "nan-string"])
def test_parse_quantity_rejects_non_finite(value):
    with pytest.raises(ConfigError):
        parse_quantity(value, "angular_frequency" if "Hz" in str(value) else "length")


# JSON documents as json.load returns them: NaN and Infinity are literals it
# accepts, and an integer literal may exceed the float range
json_scalars = (st.none() | st.booleans() | st.floats() | st.integers()
                | st.integers(min_value=10 ** 300, max_value=10 ** 400) | st.text()
                | st.builds("{}{}".format, st.floats() | st.integers(),
                            st.sampled_from(["", "um", "nm", "MHz", "GHz", "ms", "amu",
                                             "mm/s", "rad/m", " parsec"])))
json_values = st.recursive(json_scalars, lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(), inner, max_size=3), max_leaves=6)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(value=json_values, kind=st.sampled_from(["length", "angular_frequency", "time",
                                                "mass", "speed", "wavenumber", "plain"]))
def test_parse_quantity_is_finite_or_config_error(value, kind):
    try:
        got = parse_quantity(value, kind)
    except ConfigError:
        return
    assert isinstance(got, float) and math.isfinite(got)


# -------------------------------------------------------------- run configs

def test_from_file_spring_fixture():
    cfg = RunConfig.from_file(REPO / "configs" / "spring_sweep.json")
    assert cfg.pair.separation_d == pytest.approx(4.7777632861e-4, rel=1e-12)
    assert cfg.pair.beam1.waist_w0 == pytest.approx(8e-6)
    assert cfg.atom.gamma == pytest.approx(TWO_PI * 10.01e6, rel=1e-12)
    assert cfg.sweep[2] == 50
    assert cfg.sweep[0] == 0.0
    assert cfg.sweep[1] == pytest.approx(1.0238064184e-3, rel=1e-12)
    assert cfg.grid is not None and cfg.grid.kind == "rho_z"


def test_from_dict_validation():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"pair": {"d": 0.0}})        # no beams
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"beams": {"wavelength": "589nm"}})  # no waist
    with pytest.raises(ConfigError):
        RunConfig.from_dict(base_config(sweep={"d_min": 0.0, "d_max": "1um",
                                               "steps": 1}))
    with pytest.raises(ConfigError, match="sweep.d_min"):
        RunConfig.from_dict(base_config(sweep={"d_min": "-1um", "d_max": "1um",
                                               "steps": 3}))
    with pytest.raises(ConfigError):
        RunConfig.from_dict(base_config(seed=True))
    cfg = base_config()
    cfg["pair"]["d"] = "-1um"
    with pytest.raises(ConfigError):
        RunConfig.from_dict(cfg)
    cfg = base_config()
    cfg["beams"]["p"] = 41      # beyond the range laguerre_poly is tested for
    with pytest.raises(ConfigError, match="radial_p"):
        RunConfig.from_dict(cfg)


@pytest.mark.parametrize("key, l", [("l1", 1001), ("l1", -1001), ("l2", 1001), ("l2", -1001)])
def test_winding_beyond_1000_is_a_config_error(key, l):
    cfg = base_config()
    cfg["beams"][key] = l
    with pytest.raises(ConfigError, match="winding_l"):
        RunConfig.from_dict(cfg)


def full_config():
    """A valid config that sets every accepted key."""
    grid = {"rho_min": 0.0, "rho_max": "6um", "n_rho": 5, "z_min": "-5um",
            "z_max": "5um", "n_z": 5, "phi": 0.0, "time": 0.0}
    return base_config(
        beams={"wavelength": "589.16nm", "waist": "3um", "l1": 2, "l2": 2, "p": 0,
               "amp1": 1.0, "amp2": 1.0},
        pair={"d": "8um", "delta_omega": "1kHz"},
        grid=grid, rings_grid=dict(grid),
        xy_grid={"half_width": "6um", "n": 5, "z_slices": [0.0, "1um"], "time": 0.0},
        sweep={"d_min": 0.0, "d_max": "10um", "steps": 3},
        ferris={"t_samples": [0.0, "1us"]},
        trajectory={"rho": "2um", "phi": 0.0, "z": "0.1um", "v_rho": 0.0, "v_phi": 0.0,
                    "v_z": 0.0, "step": "0.1us", "duration": "1us",
                    "velocity_coupling": False, "include_scattering": True,
                    "include_dipole": False, "include_azimuthal": True,
                    "sample_every": 1})


def test_full_config_sets_every_accepted_key():
    cfg = full_config()
    assert {s: set(cfg[s]) for s in SECTION_KEYS} == \
        {s: set(keys) for s, keys in SECTION_KEYS.items()}
    RunConfig.from_dict(cfg)


@pytest.mark.parametrize("section,key", [
    (None, "seed"), (None, "grids"), (None, "mode"),
    ("trajectory", "include_dipol"), ("beams", "wavelenght"), ("grid", "kind"),
    ("pair", "delta_k")])
def test_unknown_keys_are_rejected(tmp_path, section, key):
    cfg = full_config()
    # a number, which any quantity key would parse, so that only the
    # unknown-key rule can refuse it
    (cfg if section is None else cfg[section])[key] = 0.0
    with pytest.raises(ConfigError, match=key):
        RunConfig.from_dict(cfg)
    path = write_config(tmp_path, cfg)
    assert run_cli(["field-map", "--config", path, "--out", tmp_path / "o"]) == 2


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_trajectory_flags_must_be_json_booleans(value):
    for flag in ("velocity_coupling", "include_scattering", "include_dipole",
                 "include_azimuthal"):
        cfg = full_config()
        cfg["trajectory"][flag] = value
        with pytest.raises(ConfigError, match=flag):
            RunConfig.from_dict(cfg)


def test_trajectory_flags_are_read():
    cfg = full_config()
    flags = {"velocity_coupling": True, "include_scattering": False,
             "include_dipole": True, "include_azimuthal": False}
    cfg["trajectory"].update(flags)
    integrator = RunConfig.from_dict(cfg).trajectory_config
    assert {f: getattr(integrator, f) for f in flags} == flags


# every key, the grid sizes included: MAX_GRID_POINTS bounds what a generated
# size can allocate
FUZZED_KEYS = [(section, key) for section, keys in SECTION_KEYS.items() for key in keys]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(where=st.sampled_from(FUZZED_KEYS), value=json_values)
def test_from_dict_accepts_or_raises_config_error(where, value):
    """Any JSON value at any key gives a config whose SI echo is finite, or a
    ConfigError; never another exception."""
    cfg = full_config()
    cfg[where[0]][where[1]] = value
    try:
        run = RunConfig.from_dict(cfg)
    except ConfigError:
        return
    json.dumps(run.to_si_dict(), allow_nan=False)


@pytest.mark.parametrize("section,sizes", [
    ("grid", {"n_rho": MAX_GRID_POINTS + 1}),
    ("grid", {"n_z": MAX_GRID_POINTS + 1}),
    ("rings_grid", {"n_rho": 10_000, "n_z": MAX_GRID_POINTS // 10_000 + 1}),
    ("rings_grid", {"n_rho": 10 ** 30, "n_z": 10 ** 30}),
    ("grid", {"n_rho": 10 ** 12, "n_z": 0}),   # product 0, axis still bounded
    ("xy_grid", {"n": 7072}),           # 7072^2 points
    ("xy_grid", {"n": MAX_GRID_POINTS + 1})])
def test_grid_sizes_are_bounded(tmp_path, section, sizes):
    """A grid of more than MAX_GRID_POINTS points is a ConfigError (exit 2),
    raised before any axis is allocated."""
    cfg = full_config()
    cfg[section].update(sizes)
    with pytest.raises(ConfigError, match=str(MAX_GRID_POINTS)):
        RunConfig.from_dict(cfg)
    path = write_config(tmp_path, cfg)
    assert run_cli(["field-map", "--config", path, "--out", tmp_path / "o"]) == 2


def test_grid_sizes_at_the_bound_load():
    cfg = full_config()
    cfg["grid"].update(n_rho=10_000, n_z=MAX_GRID_POINTS // 10_000)
    cfg["xy_grid"]["n"] = 7071
    run = RunConfig.from_dict(cfg)
    assert run.grid.axis1.size * run.grid.axis2.size == MAX_GRID_POINTS
    assert all(g.axis1.size == 7071 for g in run.xy)
    for section, key, msg in (("grid", "n_rho", "axis1 must be a 1-D array of at least 2"),
                              ("rings_grid", "n_z", "axis2 must be a 1-D array of at least 2"),
                              ("xy_grid", "n", "xy_grid.n must be >= 2")):
        cfg = full_config()
        cfg[section][key] = 1
        with pytest.raises(ConfigError, match=msg):
            RunConfig.from_dict(cfg)


def test_config_file_read_errors_are_config_errors(tmp_path):
    """A file json.load cannot read raises ConfigError and exits 2."""
    huge = tmp_path / "huge.json"
    huge.write_text('{"beams": {"wavelength": ' + "9" * 5000 + "}}")
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'{"beams": "\xff"}')
    for path in (huge, binary):
        with pytest.raises(ConfigError):
            RunConfig.from_file(path)
        assert run_cli(["field-map", "--config", path, "--out", tmp_path / "o"]) == 2


def test_shipped_configs_load():
    for path in sorted((REPO / "configs").glob("*.json")):
        RunConfig.from_file(path)


def test_readme_schema_table_matches_accepted_keys():
    readme = (REPO / "README.md").read_text()
    table = readme.split("## Config schema", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for row in table.splitlines():
        cells = row.split("|")
        if len(cells) == 5:
            for section in re.findall(r"`([^`]+)`", cells[1]):
                documented[section] = set(re.findall(r"`([^`]+)`", cells[2]))
    assert documented == {s: set(keys) for s, keys in SECTION_KEYS.items()}


def test_public_names_are_exported():
    """Every name in a module's __all__ exists; every class or function in
    one is importable from vortexlattice; and every name the package's
    __init__ imports from a module with an __all__ is in it (upper-case
    constants exempt)."""
    for info in pkgutil.iter_modules(vortexlattice.__path__):
        module = importlib.import_module(f"vortexlattice.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{info.name}.__all__ names a missing {name}"
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert getattr(vortexlattice, name, None) is obj, \
                    f"{info.name}.{name} is not importable from vortexlattice"
    init = Path(vortexlattice.__file__).read_text()
    for node in ast.parse(init).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            public = getattr(importlib.import_module(f"vortexlattice.{node.module}"),
                             "__all__", None)
            if public is not None:
                names = [alias.name for alias in node.names]
                assert [n for n in names if not n.isupper() and n not in public] == [], \
                    f"vortexlattice imports names missing from {node.module}.__all__"


def test_xy_grids_fixture():
    cfg = RunConfig.from_file(REPO / "configs" / "ring_lattice_xy.json")
    grids = cfg.xy_grids()
    assert len(grids) == 3
    assert [g.z_slice for g in grids] == pytest.approx([0.0, 1.473e-7, 2.96e-5])
    assert all(g.kind == "xy" and g.axis1.size == 241 for g in grids)


def test_to_si_dict_echo():
    cfg = RunConfig.from_dict(base_config())
    echo = cfg.to_si_dict()
    assert echo["beams"]["l2"] == 2
    assert echo["pair"]["d"] == pytest.approx(8e-6)
    assert echo["atom"]["rabi"] == pytest.approx(TWO_PI * 10.01e6)


LENGTH_UNITS = {"um": 1e-6, "nm": 1e-9}
RATE_UNITS = {"Hz": TWO_PI, "MHz": TWO_PI * 1e6}
TIME_UNITS = {"us": 1e-6, "ms": 1e-3}
SPEED_UNITS = {"mm/s": 1e-3}


@st.composite
def round_trip_configs(draw):
    """Configs setting every section, each quantity a bare SI number or a
    unit-suffixed string, optional keys and sections left out at random."""
    def value(lo, hi):
        return draw(st.floats(lo, hi, allow_subnormal=False))

    def quantity(si, units):
        suffix = draw(st.sampled_from(["", *units]))
        return si if suffix == "" else f"{si / units[suffix]!r}{suffix}"

    def maybe(section, key, make):
        if draw(st.booleans()):
            section[key] = make()

    beams = {"wavelength": quantity(value(300e-9, 2e-6), LENGTH_UNITS),
             "waist": quantity(value(1e-6, 1e-4), LENGTH_UNITS),
             "l1": draw(st.integers(-80, 80))}
    maybe(beams, "l2", lambda: draw(st.integers(-80, 80)))
    maybe(beams, "p", lambda: draw(st.integers(0, 3)))
    maybe(beams, "amp1", lambda: value(0.0, 3.0))
    maybe(beams, "amp2", lambda: value(0.0, 3.0))
    pair = {}
    maybe(pair, "d", lambda: quantity(value(0.0, 1e-3), LENGTH_UNITS))
    maybe(pair, "delta_omega", lambda: quantity(value(-1e8, 1e8), RATE_UNITS))
    atom = {"mass": draw(st.sampled_from([3.8175e-26, "22.99amu", "1.44e-25kg"])),
            "gamma": quantity(value(1e5, 1e9), RATE_UNITS),
            "delta0": quantity(value(-1e9, 1e9), RATE_UNITS),
            "rabi": quantity(value(0.0, 1e9), RATE_UNITS)}
    d_min = value(0.0, 1e-3)
    sweep = {"d_min": quantity(d_min, LENGTH_UNITS),
             "d_max": quantity(d_min + value(1e-9, 1e-3), LENGTH_UNITS),
             "steps": draw(st.integers(2, 500))}
    ferris = {"t_samples": [quantity(value(0.0, 1e-2), TIME_UNITS)
                            for _ in range(draw(st.integers(1, 4)))]}
    raw = {"beams": beams, "pair": pair, "atom": atom, "sweep": sweep, "ferris": ferris}

    def grid():
        rho_min, z_min = value(0.0, 1e-4), value(-1e-3, 1e-3)
        sec = {"rho_max": quantity(rho_min + value(1e-7, 1e-3), LENGTH_UNITS),
               "n_rho": draw(st.integers(2, 400)),
               "z_min": quantity(z_min, LENGTH_UNITS),
               "z_max": quantity(z_min + value(1e-7, 1e-3), LENGTH_UNITS),
               "n_z": draw(st.integers(2, 400))}
        maybe(sec, "rho_min", lambda: quantity(rho_min, LENGTH_UNITS))
        maybe(sec, "phi", lambda: value(-math.pi, math.pi))
        maybe(sec, "time", lambda: quantity(value(0.0, 1e-3), TIME_UNITS))
        return sec

    def xy_grid():
        sec = {"half_width": quantity(value(1e-7, 1e-3), LENGTH_UNITS),
               "n": draw(st.integers(2, 300))}
        maybe(sec, "z_slices", lambda: [quantity(value(-1e-3, 1e-3), LENGTH_UNITS)
                                        for _ in range(draw(st.integers(1, 3)))])
        maybe(sec, "time", lambda: quantity(value(0.0, 1e-3), TIME_UNITS))
        return sec

    def trajectory():
        step = value(1e-9, 1e-6)
        sec = {"rho": quantity(value(0.0, 1e-4), LENGTH_UNITS),
               "z": quantity(value(-1e-3, 1e-3), LENGTH_UNITS),
               "step": quantity(step, TIME_UNITS),
               # at least two steps, whatever the units round to
               "duration": quantity(step * value(2.0, 1e4), TIME_UNITS)}
        maybe(sec, "phi", lambda: value(-math.pi, math.pi))
        for key in ("v_rho", "v_phi", "v_z"):
            maybe(sec, key, lambda: quantity(value(-1.0, 1.0), SPEED_UNITS))
        for key in ("velocity_coupling", "include_scattering", "include_dipole",
                    "include_azimuthal"):
            maybe(sec, key, lambda: draw(st.booleans()))
        maybe(sec, "sample_every", lambda: draw(st.integers(1, 10)))
        return sec

    for key, make in (("grid", grid), ("rings_grid", grid), ("xy_grid", xy_grid),
                      ("trajectory", trajectory)):
        maybe(raw, key, make)
    return raw


def assert_same_grids(first, second):
    pairs = [(first.grid, second.grid), (first.rings_grid, second.rings_grid),
             *zip(first.xy, second.xy)]
    assert len(first.xy) == len(second.xy)
    for a, b in pairs:
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(a.axis1, b.axis1) and np.array_equal(a.axis2, b.axis2)
            assert (a.kind, a.phi, a.z_slice, a.time) == (b.kind, b.phi, b.z_slice, b.time)


def assert_echo_round_trips(first):
    """The SI echo, written as JSON and loaded again, echoes itself and
    rebuilds the same configuration, grid axes bit for bit."""
    echo = json.loads(json.dumps(first.to_si_dict(), allow_nan=False))
    second = RunConfig.from_dict(echo)
    assert second.to_si_dict() == echo
    assert second.pair == first.pair
    assert second.atom == first.atom
    assert second.sweep == first.sweep
    assert second.ferris_times == first.ferris_times
    assert second.trajectory_init == first.trajectory_init
    assert second.trajectory_config == first.trajectory_config
    assert_same_grids(first, second)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(raw=round_trip_configs())
def test_si_echo_round_trips(raw):
    assert_echo_round_trips(RunConfig.from_dict(raw))


@pytest.mark.parametrize("name", sorted(p.name for p in (REPO / "configs").glob("*.json")))
def test_shipped_config_echo_round_trips(name):
    assert_echo_round_trips(RunConfig.from_file(REPO / "configs" / name))


# ---------------------------------------------------------------------- cli

def test_cli_rings_and_ferris_never_import_scipy(tmp_path):
    """scipy is a test-only dependency: importing the CLI and running the
    two commands that find peaks (rings and ferris) leave no scipy module
    in sys.modules."""
    import vortexlattice
    src = str(Path(vortexlattice.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    rings = write_config(tmp_path, base_config(rings_grid={
        "rho_max": "6um", "n_rho": 201, "z_min": "-4.5um", "z_max": "4.5um", "n_z": 401}),
        "rings.json")
    ferris = write_config(tmp_path, {
        "beams": {"wavelength": "589.16nm", "waist": "11.7832um", "l1": 2},
        "pair": {"delta_omega": "1kHz"}, "ferris": {"t_samples": [0.0, "125us"]},
        "xy_grid": {"half_width": "18um", "n": 21}}, "ferris.json")
    code = (
        "import json, sys\n"
        "from vortexlattice.cli import main\n"
        f"codes = [main(['rings', '--config', {rings!r}, '--out', {str(tmp_path / 'r')!r}]),\n"
        f"         main(['ferris', '--config', {ferris!r}, '--out', {str(tmp_path / 'f')!r}])]\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(json.dumps({'codes': codes, 'scipy': loaded}))\n")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report == {"codes": [0, 0], "scipy": []}
    assert (tmp_path / "r" / "rings.json").is_file()
    assert (tmp_path / "f" / "ferris_summary.json").is_file()


def run_cli(args):
    return main([str(a) for a in args])


def test_cli_field_map_writes_outputs(tmp_path):
    cfg = base_config(grid={"rho_max": "6um", "n_rho": 40,
                            "z_min": "-10um", "z_max": "10um", "n_z": 50})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert run_cli(["field-map", "--config", path, "--out", out]) == 0
    assert (out / "field_map_rho_z.csv").is_file()
    meta = json.loads((out / "field-map_metadata.json").read_text())
    assert meta["command"] == "field-map"
    assert "threads" not in meta
    assert "field_map_rho_z.csv" in meta["outputs"]
    header = (out / "field_map_rho_z.csv").read_text().splitlines()[0]
    assert header == "coord1,coord2,amplitude,phase,intensity"


def test_cli_starts_no_thread(tmp_path, monkeypatch):
    """--threads is accepted and ignored: with Thread.start made to raise,
    field-map (on a grid of several row blocks), rings and ferris exit 0
    and write with --threads 2 the bytes they write without the flag, and
    their metadata records no thread count."""
    def refuse(thread):
        raise AssertionError(f"a thread was started: {thread!r}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    n_rho, n_z = 401, 747
    assert n_z >= 3 * (BLOCK_POINTS // n_rho)
    runs = [["field-map", "--config", write_config(tmp_path, base_config(grid={
                "rho_max": "6um", "n_rho": n_rho, "z_min": "-9um", "z_max": "9um",
                "n_z": n_z}), "field_map.json")],
            ["rings", "--config", write_config(tmp_path, base_config(rings_grid={
                "rho_max": "6um", "n_rho": 201, "z_min": "-4.5um", "z_max": "4.5um",
                "n_z": 401}), "rings.json")],
            ["ferris", "--config", REPO / "configs" / "ferris.json"]]
    for i, args in enumerate(runs):
        plain, flagged = tmp_path / f"{i}_plain", tmp_path / f"{i}_flagged"
        assert run_cli(args + ["--out", plain]) == 0
        assert run_cli(args + ["--out", flagged, "--threads", 2]) == 0
        names = sorted(p.name for p in plain.iterdir())
        assert names == sorted(p.name for p in flagged.iterdir())
        for name in names:
            assert (plain / name).read_bytes() == (flagged / name).read_bytes()
        meta = json.loads((plain / f"{args[0]}_metadata.json").read_text())
        assert meta["command"] == args[0] and "threads" not in meta


def test_cli_spring_sweep_config_range(tmp_path):
    """spring-sweep runs the config's sweep range; it has no flags to set
    the range, and without a sweep section it is a configuration error."""
    zr = math.pi * (3e-6) ** 2 / 589.16e-9
    path = write_config(tmp_path, base_config(sweep={"d_min": 0.0, "d_max": 2.0 * zr,
                                                     "steps": 7}))
    out = tmp_path / "sweep"
    assert run_cli(["spring-sweep", "--config", path, "--out", out]) == 0
    data = np.genfromtxt(out / "spring_sweep.csv", delimiter=",", names=True)
    assert data.shape[0] == 7
    assert data["d"][0] == 0.0 and data["K0_analytic"][0] == 0.0
    pos = data["K0_analytic"] > 0.0
    rel = np.abs(data["K0_numeric"][pos] - data["K0_analytic"][pos])
    rel /= data["K0_analytic"][pos]
    assert np.max(rel) < 1e-6
    for flag in ("--d-min", "--d-max", "--steps"):
        assert cli_exit_code(["spring-sweep", "--config", path, "--out", out,
                              flag, 3]) == 2
    no_sweep = write_config(tmp_path, base_config(), "no_sweep.json")
    assert run_cli(["spring-sweep", "--config", no_sweep, "--out", out]) == 2


def test_cli_rings_small_case(tmp_path):
    cfg = base_config(rings_grid={"rho_max": "6um", "n_rho": 201,
                                  "z_min": "-4.5um", "z_max": "4.5um",
                                  "n_z": 401})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "rings"
    assert run_cli(["rings", "--config", path, "--out", out]) == 0
    payload = json.loads((out / "rings.json").read_text())
    assert payload["rings"]
    summary = json.loads((out / "rings_summary.json").read_text())
    assert summary["n_rings"] == len(payload["rings"])
    if "central_radius" in summary:
        assert summary["central_radius"] == pytest.approx(
            summary["central_radius_formula"], rel=0.05)


def short_trajectory_config(tmp_path):
    cfg = json.loads((REPO / "configs" / "trajectory.json").read_text())
    cfg["trajectory"]["duration"] = "11.0374us"     # 20 steps, no crossings
    return write_config(tmp_path, cfg)


def cli_exit_code(args):
    """main's return value, or the status of argparse's SystemExit."""
    try:
        return run_cli(args)
    except SystemExit as exc:
        return exc.code


def test_cli_mode_override_recorded(tmp_path):
    path = short_trajectory_config(tmp_path)
    for mode, args in (("reduced", []), ("full", ["--mode", "full"])):
        out = tmp_path / mode
        assert run_cli(["trajectory", "--config", path, "--out", out, *args]) == 0
        meta = json.loads((out / "trajectory_metadata.json").read_text())
        assert meta["force_model"] == mode
        # the config echo holds config keys only, so it loads again
        assert RunConfig.from_dict(meta["config"]).trajectory_config.force_model == "reduced"
    # --mode changes nothing a map computes, so only trajectory takes it
    grid = write_config(tmp_path, base_config(grid={
        "rho_max": "6um", "n_rho": 20, "z_min": "-5um", "z_max": "5um", "n_z": 21}),
        "grid.json")
    assert cli_exit_code(["field-map", "--config", grid, "--out", tmp_path / "fm",
                          "--mode", "full"]) == 2


def test_cli_dark_pair_is_a_numerical_error(tmp_path):
    """With both beams off no amplitude sets the Rabi frequency: the force
    commands exit 3 on both sample configs."""
    for name, command in (("trajectory.json", "trajectory"),
                          ("spring_sweep.json", "spring-sweep")):
        cfg = json.loads((REPO / "configs" / name).read_text())
        cfg["beams"].update(amp1=0.0, amp2=0.0)
        path = write_config(tmp_path, cfg, name)
        assert run_cli([command, "--config", path, "--out", tmp_path / command]) == 3


def test_cli_dark_start_is_a_numerical_error(tmp_path, capsys):
    """The full-model dipole force with velocity coupling needs the total
    phase, which is undefined on the dark axis of an l = 1 pair: a trajectory
    started at rho = 0 exits 3 with a message, not a traceback."""
    cfg = json.loads((REPO / "configs" / "trajectory.json").read_text())
    cfg["atom"]["delta0"] = "-20.02MHz"           # -2 Gamma
    cfg["trajectory"].update(rho="0um", velocity_coupling=True, include_dipole=True)
    path = write_config(tmp_path, cfg)
    assert run_cli(["trajectory", "--config", path, "--out", tmp_path / "out",
                    "--mode", "full"]) == 3
    assert "numerical error: total phase undefined at a dark point" in capsys.readouterr().err


def test_cli_map_at_large_l_is_finite(tmp_path):
    """An xy map at l = 200 reaching 4 ring radii, where the power form of
    the envelope was inf * 0 at 1200 of 1681 points, is finite: field-map
    exits 0 and writes every amplitude finite."""
    path = write_config(tmp_path, base_config(
        beams={"wavelength": "589.16nm", "waist": "3um", "l1": 200},
        xy_grid={"half_width": "120um", "n": 41}))
    out = tmp_path / "out"
    assert run_cli(["field-map", "--config", path, "--out", out]) == 0
    data = np.loadtxt(out / "field_map_xy_0.csv", delimiter=",", skiprows=1)
    assert data.shape == (41 * 41, 5)
    assert np.isfinite(data[:, 2]).all() and data[:, 2].max() > 0.0


def test_cli_csv_bytes_survive_a_savetxt_round_trip(tmp_path):
    """Each CSV ferris writes, read back with np.loadtxt and written again
    with np.savetxt("%.17g"), gives the same bytes (configs/ferris.json on a
    smaller grid; the on-axis point has a NaN phase)."""
    cfg = json.loads((REPO / "configs" / "ferris.json").read_text())
    cfg["xy_grid"]["n"] = 41
    out = tmp_path / "out"
    assert run_cli(["ferris", "--config", write_config(tmp_path, cfg), "--out", out]) == 0
    csvs = sorted(out.glob("*.csv"))
    assert len(csvs) == len(cfg["ferris"]["t_samples"])
    for path in csvs:
        raw = path.read_bytes()
        header = raw.split(b"\n", 1)[0].decode()
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (41 * 41, 5) and np.isnan(data[:, 3]).any()
        again = io.BytesIO()
        np.savetxt(again, data, fmt="%.17g", delimiter=",", header=header, comments="")
        assert again.getvalue() == raw


def test_cli_ferris_drift_error_is_against_the_phase_slope(tmp_path):
    """ferris_summary.json measures drift_rel_err against the fringe speed
    delta_omega / Phi'(0) of the probe line, Phi'(0) = 2k - 2(|l| + 1)/z_R
    + k rho^2/z_R^2 at d = 0, and keeps lift_speed's delta_omega / 2k as
    drift_speed_analytic (configs/ferris.json on a smaller grid)."""
    cfg = json.loads((REPO / "configs" / "ferris.json").read_text())
    cfg["xy_grid"]["n"] = 21
    out = tmp_path / "out"
    assert run_cli(["ferris", "--config", write_config(tmp_path, cfg), "--out", out]) == 0
    summary = json.loads((out / "ferris_summary.json").read_text())
    pair = RunConfig.from_file(write_config(tmp_path, cfg)).pair
    b = pair.beam1
    k, zr, l = b.wavenumber, b.rayleigh_range, abs(b.winding_l)
    rho = summary["probe_radius"]
    slope = 2.0 * k - 2.0 * (l + 1.0) / zr + k * rho ** 2 / zr ** 2
    assert summary["drift_speed_phase_slope"] == pytest.approx(pair.delta_omega / slope,
                                                               rel=1e-12)
    assert summary["drift_speed_phase_slope"] == fringe_drift_speed(pair, rho)
    assert summary["drift_speed_analytic"] == lift_speed(pair)
    assert summary["drift_rel_err"] < 1e-6
    assert summary["drift_rel_err"] == abs(
        summary["drift_speed_measured"] - summary["drift_speed_phase_slope"]) \
        / summary["drift_speed_phase_slope"]


def test_cli_ferris_with_a_dark_beam_exits_3_and_writes_nothing(tmp_path):
    """With beam 2 off no pattern moves: ferris refuses to read a rate
    (exit 3) where it wrote relative errors of 1.0 before."""
    cfg = json.loads((REPO / "configs" / "ferris.json").read_text())
    cfg["xy_grid"]["n"] = 21
    cfg["beams"]["amp2"] = 0.0
    out = tmp_path / "out"
    assert run_cli(["ferris", "--config", write_config(tmp_path, cfg), "--out", out]) == 3
    assert list(out.iterdir()) == []


def test_cli_exit_codes(tmp_path):
    # 2: config invalid (missing required key)
    bad = write_config(tmp_path, {"beams": {"wavelength": "589nm"}}, "bad.json")
    assert run_cli(["field-map", "--config", bad, "--out", tmp_path]) == 2

    good = write_config(tmp_path, base_config(
        grid={"rho_max": "6um", "n_rho": 20, "z_min": "-5um",
              "z_max": "5um", "n_z": 21}))

    # 2: command needs a section the config lacks
    assert run_cli(["trajectory", "--config", good, "--out", tmp_path]) == 2

    # 2: bad thread count
    assert run_cli(["field-map", "--config", good, "--out", tmp_path / "x",
                    "--threads", 0]) == 2

    # 3: ring detection on a grid too coarse to trust
    coarse = write_config(tmp_path, base_config(
        rings_grid={"rho_max": "6um", "n_rho": 201, "z_min": "-4.5um",
                    "z_max": "4.5um", "n_z": 11}), "coarse.json")
    assert run_cli(["rings", "--config", coarse, "--out", tmp_path / "r"]) == 3

    # 4: output path runs through an existing regular file
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert run_cli(["field-map", "--config", good,
                    "--out", blocker / "sub"]) == 4


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_cli_trajectory_too_short_to_oscillate_writes_null(tmp_path):
    path = short_trajectory_config(tmp_path)
    out = tmp_path / "short"
    assert run_cli(["trajectory", "--config", path, "--out", out]) == 0
    summary = json.loads((out / "trajectory_summary.json").read_text(),
                         parse_constant=_reject_constant)
    assert summary["oscillation_omega_measured"] is None
    assert summary["n_samples"] == 6


def test_cli_json_writer_rejects_non_finite(tmp_path):
    """The JSON writer refuses NaN and both infinities, nested too, with the
    package's error, which the CLI maps to exit 3, and opens no file."""
    for bad in (float("nan"), float("inf"), float("-inf")):
        for content in ({"value": bad}, {"outer": {"values": [1.0, bad]}}):
            with pytest.raises(DegenerateGeometryError, match="bad.json"):
                write_outputs(tmp_path, [("bad.json", content)])
    assert list(tmp_path.iterdir()) == []


def test_cli_refused_output_exits_3_and_writes_nothing(tmp_path, monkeypatch):
    """A command whose JSON summary holds NaN, after a map that is fine,
    exits 3 with no file written: every output is checked first."""
    def nan_summary(cfg):
        return cli.cmd_field_map(cfg) + [("summary.json", {"value": float("nan")})]

    monkeypatch.setitem(cli.COMMANDS, "field-map", (nan_summary, "field-map with a NaN"))
    good = write_config(tmp_path, base_config(
        grid={"rho_max": "6um", "n_rho": 20, "z_min": "-5um", "z_max": "5um", "n_z": 21}))
    out = tmp_path / "out"
    assert run_cli(["field-map", "--config", good, "--out", out]) == 3
    assert list(out.iterdir()) == []


def test_cli_builds_its_parser_once_and_looks_commands_up_per_call(tmp_path, monkeypatch):
    """Every main call parses with the one parser of the process, and runs
    the command COMMANDS holds at that call: one replaced after the parser
    was built still runs."""
    parser = cli.build_parser()
    seen = []

    def stub(cfg):
        seen.append(cfg)
        return []

    monkeypatch.setitem(cli.COMMANDS, "field-map", (stub, "a stand-in field-map"))
    good = write_config(tmp_path, base_config(
        grid={"rho_max": "6um", "n_rho": 20, "z_min": "-5um", "z_max": "5um", "n_z": 21}))
    for run in range(2):
        assert run_cli(["field-map", "--config", good, "--out", tmp_path / "out"]) == 0
        assert len(seen) == run + 1 and cli.build_parser() is parser
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["field-map_metadata.json"]


@pytest.mark.parametrize("command", ["field-map", "rings", "ferris"])
def test_map_commands_exit_3_where_the_intensity_overflows(tmp_path, capsys, command):
    """beams.amp1 = amp2 = 1e200 is accepted, but a map's intensity does not
    fit a double: field-map, rings and ferris exit 3, write nothing and print
    one line, the numerical error.  Numpy's overflow warning, which came
    first and escaped main untyped under warnings as errors, is not given."""
    cfg = base_config(
        grid={"rho_max": "6um", "n_rho": 5, "z_min": "-5um", "z_max": "5um", "n_z": 3},
        rings_grid={"rho_min": "2.8um", "rho_max": "3.2um", "n_rho": 21,
                    "z_min": "-0.5um", "z_max": "0.5um", "n_z": 41},
        xy_grid={"half_width": "6um", "n": 5}, ferris={"t_samples": [0.0, "125us", "250us"]})
    cfg["beams"].update(amp1=1e200, amp2=1e200)
    cfg["pair"].update(d="1um", delta_omega="1kHz")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli([command, "--config", write_config(tmp_path, cfg), "--out", out]) == 3
    assert list(out.iterdir()) == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical error: map intensity is not finite")


@pytest.mark.parametrize("mode", ["reduced", "full"])
def test_cli_trajectory_csv_is_the_integrated_state(tmp_path, mode):
    """Off phi = 0, with the azimuthal push and velocity coupling on, the
    first seven columns of trajectory.csv are the integrator's samples bit
    for bit, rho and phi are math.hypot and math.atan2 of each sample, and
    L_z = m (x v_y - y v_x) equals m rho v_phi in the cylindrical frame."""
    cfg = json.loads((REPO / "configs" / "trajectory.json").read_text())
    cfg["trajectory"].update(phi=0.7, v_phi="1mm/s", include_azimuthal=True,
                             velocity_coupling=True, duration="600us")
    path = write_config(tmp_path, cfg)
    out = tmp_path / mode
    assert run_cli(["trajectory", "--config", path, "--out", out, "--mode", mode]) == 0

    run = RunConfig.from_file(path)
    integrator = dataclasses.replace(run.trajectory_config, force_model=mode)
    states = integrate(run.atom, run.pair, run.trajectory_init, integrator)
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(rows[:, :7], np.array(states))
    np.testing.assert_array_equal(rows[:, 7], [math.hypot(s.x, s.y) for s in states])
    np.testing.assert_array_equal(rows[:, 8], [math.atan2(s.y, s.x) for s in states])
    assert np.ptp(rows[:, 8]) > 0.0           # the atom turns about the axis

    for s in states:
        phi = math.atan2(s.y, s.x)
        v_phi = s.vy * math.cos(phi) - s.vx * math.sin(phi)
        assert angular_momentum(run.atom, s) == pytest.approx(
            run.atom.mass * math.hypot(s.x, s.y) * v_phi, rel=1e-12)
    summary = json.loads((out / "trajectory_summary.json").read_text())
    assert summary["lz_final"] == angular_momentum(run.atom, states[-1])
    assert summary["final"] == {"rho": rows[-1, 7], "phi": rows[-1, 8], "z": states[-1].z}


@pytest.mark.parametrize("mode, left", [("reduced", False), ("full", True)])
def test_cli_trajectory_summary_reports_the_farthest_sample(tmp_path, mode, left):
    """max_rho and max_abs_z are the largest rho and |z| in trajectory.csv,
    and left_beam_extent compares them with the beam extent itself, not
    DIVERGENCE_FACTOR times it.  On configs/trajectory.json the reduced
    model holds the atom on the ring; the interfered field pushes it out to
    rho = 272 um, past the 62 um radial extent, and the run still exits 0."""
    path = REPO / "configs" / "trajectory.json"
    out = tmp_path / mode
    assert run_cli(["trajectory", "--config", path, "--out", out, "--mode", mode]) == 0
    summary = json.loads((out / "trajectory_summary.json").read_text())
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert summary["max_rho"] == np.max(rows[:, 7])
    assert summary["max_abs_z"] == np.max(np.abs(rows[:, 3]))
    assert summary["left_beam_extent"] is left
    radial, axial = _extents(RunConfig.from_file(path).pair)
    assert bool(summary["max_rho"] > radial or summary["max_abs_z"] > axial) is left
    if left:
        assert summary["max_rho"] > 2.7e-4 and 6.1e-5 < radial < 6.3e-5


def test_trajectory_start_is_cartesian_and_rho_must_not_be_negative():
    traj = {"rho": "2um", "phi": 0.5, "z": "0.1um", "v_rho": "1mm/s", "v_phi": "2mm/s",
            "step": "0.1us", "duration": "1us"}
    init = RunConfig.from_dict(base_config(trajectory=traj)).trajectory_init
    assert init.time == 0.0
    assert math.hypot(init.x, init.y) == pytest.approx(2e-6, rel=1e-15)
    assert math.atan2(init.y, init.x) == pytest.approx(0.5, rel=1e-15)
    assert (init.vx, init.vy) == pytest.approx(
        (1e-3 * math.cos(0.5) - 2e-3 * math.sin(0.5),
         1e-3 * math.sin(0.5) + 2e-3 * math.cos(0.5)), rel=1e-15)
    with pytest.raises(ConfigError, match="rho must be >= 0"):
        RunConfig.from_dict(base_config(trajectory=dict(traj, rho="-2um")))
