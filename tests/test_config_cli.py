import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vortexlattice import cli
from vortexlattice.cli import main
from vortexlattice.config import RunConfig, parse_quantity
from vortexlattice.constants import AMU
from vortexlattice.errors import ConfigError

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
        RunConfig.from_dict(base_config(mode={"phase": "exotic"}))
    with pytest.raises(ConfigError):
        RunConfig.from_dict(base_config(sweep={"d_min": 0.0, "d_max": "1um",
                                               "steps": 1}))
    with pytest.raises(ConfigError):
        RunConfig.from_dict(base_config(seed=True))
    cfg = base_config()
    cfg["pair"]["d"] = "-1um"
    with pytest.raises(ConfigError):
        RunConfig.from_dict(cfg)


def test_xy_grids_fixture():
    cfg = RunConfig.from_file(REPO / "configs" / "ring_lattice_xy.json")
    grids = cfg.xy_grids()
    assert len(grids) == 3
    assert [g.z_slice for g in grids] == pytest.approx([0.0, 1.473e-7, 2.96e-5])
    assert all(g.kind == "xy" and g.axis1.size == 241 for g in grids)


def test_to_si_dict_echo():
    cfg = RunConfig.from_dict(base_config(seed=7))
    echo = cfg.to_si_dict()
    assert echo["seed"] == 7
    assert echo["beams"]["l2"] == 2
    assert echo["pair"]["d"] == pytest.approx(8e-6)
    assert echo["atom"]["rabi"] == pytest.approx(TWO_PI * 10.01e6)


# ---------------------------------------------------------------------- cli

def test_cli_import_does_not_load_scipy_signal():
    """scipy.signal costs about a second to import and only ring detection
    uses it, so importing the CLI must not pull it in."""
    import vortexlattice
    src = str(Path(vortexlattice.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, vortexlattice.cli; print('scipy.signal' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def run_cli(args):
    return main([str(a) for a in args])


def test_cli_field_map_writes_outputs(tmp_path, monkeypatch):
    monkeypatch.delenv("VL_THREADS", raising=False)
    cfg = base_config(grid={"rho_max": "6um", "n_rho": 40,
                            "z_min": "-10um", "z_max": "10um", "n_z": 50})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert run_cli(["field-map", "--config", path, "--out", out]) == 0
    assert (out / "field_map_rho_z.csv").is_file()
    meta = json.loads((out / "field-map_metadata.json").read_text())
    assert meta["command"] == "field-map"
    assert meta["threads"] == 1
    assert "field_map_rho_z.csv" in meta["outputs"]
    header = (out / "field_map_rho_z.csv").read_text().splitlines()[0]
    assert header == "coord1,coord2,amplitude,phase,intensity"


def test_cli_thread_count_does_not_change_bytes(tmp_path, monkeypatch):
    cfg = base_config(grid={"rho_max": "6um", "n_rho": 33,
                            "z_min": "-9um", "z_max": "9um", "n_z": 41})
    path = write_config(tmp_path, cfg)
    blobs = {}
    for threads in ("1", "4"):
        monkeypatch.setenv("VL_THREADS", threads)
        out = tmp_path / f"t{threads}"
        assert run_cli(["field-map", "--config", path, "--out", out]) == 0
        blobs[threads] = (out / "field_map_rho_z.csv").read_bytes()
        meta = json.loads((out / "field-map_metadata.json").read_text())
        assert meta["threads"] == int(threads)
    assert blobs["1"] == blobs["4"]


def test_cli_spring_sweep_flag_override(tmp_path, monkeypatch):
    monkeypatch.delenv("VL_THREADS", raising=False)
    path = write_config(tmp_path, base_config())
    out = tmp_path / "sweep"
    zr = math.pi * (3e-6) ** 2 / 589.16e-9
    code = run_cli(["spring-sweep", "--config", path, "--out", out,
                    "--d-min", 0.0, "--d-max", 2.0 * zr, "--steps", 7])
    assert code == 0
    data = np.genfromtxt(out / "spring_sweep.csv", delimiter=",", names=True)
    assert data.shape[0] == 7
    assert data["d"][0] == 0.0 and data["K0_analytic"][0] == 0.0
    pos = data["K0_analytic"] > 0.0
    rel = np.abs(data["K0_numeric"][pos] - data["K0_analytic"][pos])
    rel /= data["K0_analytic"][pos]
    assert np.max(rel) < 1e-6


def test_cli_rings_small_case(tmp_path, monkeypatch):
    monkeypatch.delenv("VL_THREADS", raising=False)
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


def test_cli_mode_override_recorded(tmp_path, monkeypatch):
    monkeypatch.delenv("VL_THREADS", raising=False)
    cfg = base_config(grid={"rho_max": "6um", "n_rho": 20,
                            "z_min": "-5um", "z_max": "5um", "n_z": 21})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "full"
    assert run_cli(["field-map", "--config", path, "--out", out,
                    "--mode", "full"]) == 0
    meta = json.loads((out / "field-map_metadata.json").read_text())
    assert meta["config"]["mode"] == {"phase": "full", "combine": "total-field"}


def test_cli_exit_codes(tmp_path, monkeypatch):
    monkeypatch.delenv("VL_THREADS", raising=False)
    # 2: config invalid (missing required key)
    bad = write_config(tmp_path, {"beams": {"wavelength": "589nm"}}, "bad.json")
    assert run_cli(["field-map", "--config", bad, "--out", tmp_path]) == 2

    good = write_config(tmp_path, base_config(
        grid={"rho_max": "6um", "n_rho": 20, "z_min": "-5um",
              "z_max": "5um", "n_z": 21}))

    # 2: command needs a section the config lacks
    assert run_cli(["trajectory", "--config", good, "--out", tmp_path]) == 2

    # 2: bad thread override
    monkeypatch.setenv("VL_THREADS", "abc")
    assert run_cli(["field-map", "--config", good, "--out", tmp_path / "x"]) == 2
    monkeypatch.delenv("VL_THREADS")

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


def test_cli_trajectory_too_short_to_oscillate_writes_null(tmp_path, monkeypatch):
    monkeypatch.delenv("VL_THREADS", raising=False)
    cfg = json.loads((REPO / "configs" / "trajectory.json").read_text())
    cfg["trajectory"]["duration"] = "11.0374us"     # 20 steps, no crossings
    path = write_config(tmp_path, cfg)
    out = tmp_path / "short"
    assert run_cli(["trajectory", "--config", path, "--out", out]) == 0
    summary = json.loads((out / "trajectory_summary.json").read_text(),
                         parse_constant=_reject_constant)
    assert summary["oscillation_omega_measured"] is None
    assert summary["n_samples"] == 6


def test_cli_json_writer_rejects_non_finite(tmp_path):
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            cli._write_json(tmp_path / "bad.json", {"value": bad})
